"""The library names the benchmark in ``perfbench/`` reaches into.

``perfbench/tracer.py`` wraps the functions in its ``TRACED_FUNCTIONS`` by
module and attribute name, and times each backward by wrapping the callable
handed to ``Tape.record(name, out_data, backward)``, dropping its return
value. The toy-train step clock marks a step each time the trainer calls
``ToyModel.variables``. A rename, a second call per step or a backward that
returns its gradients would break the benchmark without failing a library
test. The benchmark's toy config (``perfbench/workloads.py``) is the
``TrainConfig`` default cut to fewer steps, which the tests and the golden
file rely on.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import imvalign
import imvalign.cli  # noqa: F401  (the tracer wraps cli.main)
from imvalign import autodiff as ad
from imvalign import toy
from imvalign.attention import scaled_dot_alignment
from imvalign.core import compute_imv
from imvalign.monotonic import KernelConfig, hma_transform, sma_loss
from imvalign.positions import align_from_positions, extract_positions

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


def _pipeline(weights):
    """grad-long's objective at a small size: attention to the rebuilt
    alignment, contracted with ``weights``, plus the soft penalty."""
    kernel = KernelConfig(sigma2=0.25)

    def f(queries, keys):
        imv = compute_imv(scaled_dot_alignment(queries, keys))
        pos = extract_positions(hma_transform(imv), kernel)
        return align_from_positions(pos, weights.shape[1], kernel) * weights, sma_loss(imv)

    return f


def test_a_traced_backward_gives_the_untraced_gradients_and_counts_every_op(monkeypatch):
    tracer_module = _load("tracer")
    rng = np.random.default_rng(0)
    keys = rng.normal(size=(6, 4))
    queries = keys[np.repeat(np.arange(6), 3)] + 0.3 * rng.normal(size=(18, 4))
    f = _pipeline(rng.normal(size=(6, 18)))
    expected_out, expected = ad.forward_backward(f, [queries, keys])

    tapes = []
    backward = ad.Tape.backward

    def kept(tape, root):
        tapes.append(tape)
        return backward(tape, root)

    monkeypatch.setattr(ad.Tape, "backward", kept)
    tracer = tracer_module.Tracer()
    with tracer_module.instrument(tracer):
        out, grads = ad.forward_backward(f, [queries, keys])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(out + grads, expected_out + expected))

    (tape,) = tapes
    calls = {key[len("autodiff.op."):-len(".calls")]: n for key, n in tracer.counts.items()
             if key.endswith(".calls")}
    assert calls == Counter(node.name for node in tape.nodes)
    spans = Counter(tracer.names[i] for i in tracer.name_id)
    assert {name: spans[f"autodiff.op.{name}.backward"] for name in calls} == Counter(
        node.name for node in tape.nodes if node.grad is not None)


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
