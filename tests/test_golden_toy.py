"""Toy training against ``golden_toy.json`` (written by ``write_golden_toy.py``).

Bit for bit when numpy and the BLAS are the recorded ones; otherwise the
traces of the first steps within the file's tolerance, and a warning says
which comparison ran.
"""

import numpy as np
import pytest

import write_golden_toy as golden


@pytest.fixture(scope="module")
def recorded():
    return golden.load()


@pytest.mark.parametrize("mode", golden.MODES)
def test_toy_training_matches_the_golden_file(recorded, mode):
    want = recorded["modes"][mode]
    model, report, tapes = golden.run(mode)
    got = golden.record(model, report, tapes)
    tol = recorded["tolerance"]
    k = tol["steps"]
    if golden.on_recorded_environment(
        recorded, f"compared the first {k} steps within rtol {tol['rtol']:g}, atol {tol['atol']:g}"
    ):
        for name in golden.TRACES:
            assert got["traces"][name] == want["traces"][name], name
        assert got["params_sha256"] == want["params_sha256"]
        assert got["nodes_per_step"] == want["nodes_per_step"]
        return
    for name in golden.TRACES:
        expected = [float.fromhex(x) for x in want["traces"][name].split()[:k]]
        np.testing.assert_allclose(getattr(report, name)[:k], expected,
                                   rtol=tol["rtol"], atol=tol["atol"], err_msg=name)
    assert got["nodes_per_step"].split()[:k] == want["nodes_per_step"].split()[:k]
