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


def test_check_reports_the_first_step_that_leaves_the_file():
    want = {"traces": {name: "0x1.0p+0 0x1.8p+0 0x1.0p+1" for name in golden.TRACES},
            "params_sha256": "ab", "nodes_per_step": "208 208 208"}
    assert golden.compare("HMA", want, want) == [
        f"HMA: traces match ({golden.STEPS} steps)", "  params_sha256 matches", "  nodes_per_step match"]
    got = {"traces": dict(want["traces"], ap_loss="0x1.0p+0 0x1.8p+0 0x1.1p+1",
                          accuracy="0x1.0p+0 0x1.9p+0 0x1.0p+1", diagonality="0x1.0p+0 0x1.9p+0"),
           "params_sha256": "cd", "nodes_per_step": "208 189 208"}
    assert golden.compare("SMA", got, want) == [
        "SMA: traces leave the file at step 1",
        "  accuracy: recorded 0x1.8p+0 (1.5), run 0x1.9p+0 (1.5625)",
        "  diagonality: recorded 0x1.8p+0 (1.5), run 0x1.9p+0 (1.5625)",
        "  params_sha256 differs",
        "  nodes_per_step differ from step 1",
    ]
    assert golden.first_difference("1 2", "1 2 3") == 2
    assert golden.first_difference("1 2 3", "1 2 3") is None
