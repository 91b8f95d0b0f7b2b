"""The library names the benchmark in ``perfbench/`` reaches into.

``perfbench/tracer.py`` wraps the functions in its ``TRACED_FUNCTIONS`` by
module and attribute name, and the toy-train step clock marks a step each
time the trainer calls ``ToyModel.variables``. A rename or a second call per
step would break the benchmark without failing a library test. The
benchmark's toy config (``perfbench/workloads.py``) is the ``TrainConfig``
default cut to fewer steps, which the tests and the golden file rely on.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import imvalign
import imvalign.cli  # noqa: F401  (the tracer wraps cli.main)
from imvalign import toy

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_functions():
    return _load("tracer").TRACED_FUNCTIONS


def test_every_traced_function_is_a_library_callable():
    traced = _traced_functions()
    assert traced
    for module_name, attr, _ in traced:
        module = getattr(imvalign, module_name)
        assert callable(getattr(module, attr, None)), f"imvalign.{module_name}.{attr}"


def test_train_asks_for_tape_variables_once_per_step(monkeypatch):
    calls = []
    variables = toy.ToyModel.variables

    def counted(model, tape):
        calls.append(tape)
        return variables(model, tape)

    monkeypatch.setattr(toy.ToyModel, "variables", counted)
    toy.train(toy.ToyTask(seed=0), toy.TrainConfig(steps=7, pool_size=8, batch_size=4))
    assert len(calls) == 7
    assert len({id(tape) for tape in calls}) == 7


@pytest.mark.parametrize("mode", toy.MODES)
def test_the_benchmark_toy_config_is_the_default_cut_to_its_steps(mode, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for workloads' sibling imports
    workloads = _load("workloads")
    assert workloads.toy_config(mode, 420) == toy.TrainConfig(mode=mode, steps=420)
    assert workloads.TOY_TASK == toy.ToyTask(seed=0)
