"""The library names the benchmark in ``perfbench/`` reaches into.

``perfbench/tracer.py`` wraps the functions in its ``TRACED_FUNCTIONS`` by
module and attribute name, and the toy-train step clock marks a step each
time the trainer calls ``ToyModel.variables``. A rename or a second call per
step would break the benchmark without failing a library test.
"""

import importlib.util
from pathlib import Path

import imvalign
import imvalign.cli  # noqa: F401  (the tracer wraps cli.main)
from imvalign import toy

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED_FUNCTIONS


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
