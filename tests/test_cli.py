import json
import time

import numpy as np
import pytest

import reference_tape as ref
from imvalign import autodiff as ad
from imvalign import cli
from imvalign.checks import CHECKABLE_OPS, run_check
from imvalign.cli import main
from imvalign.matrixio import read_matrix, read_vector, write_matrix, write_vector


def _matrix_file(tmp_path, m, name="m.csv"):
    path = tmp_path / name
    write_matrix(path, m)
    return str(path)


def _vector_file(tmp_path, v, name="v.csv"):
    path = tmp_path / name
    write_vector(path, v)
    return str(path)


def test_imv_identity(tmp_path, capsys):
    alignment = _matrix_file(tmp_path, np.eye(2))
    out = tmp_path / "pi.csv"
    assert main(["imv", "--alignment", alignment, "--out", str(out)]) == 0
    assert np.array_equal(read_vector(out), [0.0, 1.0])
    printed = capsys.readouterr().out
    assert "monotone" in printed and "complete" in printed
    # without --out the IMV is printed after the report
    assert main(["imv", "--alignment", alignment]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0,1"


def test_imv_hand_case(tmp_path):
    alignment = _matrix_file(tmp_path, np.array([[0.25, 0.1], [0.5, 0.2], [0.25, 0.7]]))
    out = tmp_path / "pi.csv"
    assert main(["imv", "--alignment", alignment, "--out", str(out)]) == 0
    assert np.allclose(read_vector(out), [1.0, 1.6], atol=1e-12)


def test_imv_rejects_unnormalized(tmp_path):
    alignment = _matrix_file(tmp_path, np.array([[0.9, 0.5], [0.4, 0.5]]))
    assert main(["imv", "--alignment", alignment]) == 3


def test_imv_malformed_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a\nmatrix\n")
    assert main(["imv", "--alignment", str(bad)]) == 2
    assert main(["imv", "--alignment", str(tmp_path / "missing.csv")]) == 2


def test_hma_hand_case(tmp_path):
    imv = _vector_file(tmp_path, [0.5, 0.2, 1.0])
    out = tmp_path / "star.csv"
    assert main(["hma", "--imv", imv, "--t1", "5", "--out", str(out)]) == 0
    assert np.allclose(read_vector(out), [0.0, 0.0, 4.0], atol=1e-12)


def test_hma_degenerate_exits_4(tmp_path):
    imv = _vector_file(tmp_path, [1.0, 1.0, 1.0])
    assert main(["hma", "--imv", imv, "--t1", "3"]) == 4


def test_reconstruct_near_identity(tmp_path):
    imv = _vector_file(tmp_path, [0.0, 1.0])
    out = tmp_path / "alpha.csv"
    code = main(
        ["reconstruct", "--imv", imv, "--t1", "2", "--sigma2", "0.01", "--out", str(out)]
    )
    assert code == 0
    assert np.allclose(read_matrix(out), np.eye(2), atol=1e-10)


def test_reconstruct_rejects_a_position_too_far_from_every_row(tmp_path, capsys):
    # the kernel logit of 1e160 overflows at every row: its column would be NaN
    imv = _vector_file(tmp_path, [0.0, 1e160])
    out = tmp_path / "alpha.csv"
    assert main(["reconstruct", "--imv", imv, "--t1", "3", "--out", str(out)]) == 3
    assert not out.exists()
    assert "position 1e+160 is too far from rows 0..2" in capsys.readouterr().err


def test_positions_roundtrip(tmp_path):
    imv = _vector_file(tmp_path, [0.0, 0.0, 1.0, 1.0])
    out = tmp_path / "e.csv"
    code = main(["positions", "--imv", imv, "--t1", "2", "--sigma2", "0.01", "--out", str(out)])
    assert code == 0
    assert np.allclose(read_vector(out), [0.5, 2.5], atol=1e-9)


def test_sma_zero(tmp_path, capsys):
    imv = _vector_file(tmp_path, [0.0, 0.5, 1.0])
    assert main(["sma", "--imv", imv, "--t1", "2"]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_oracle_counts(capsys):
    import math

    for t1 in range(2, 6):
        for t2 in range(t1, 11):
            assert main(["oracle", "--t1", str(t1), "--t2", str(t2)]) == 0
            assert capsys.readouterr().out.strip() == f"{math.comb(t2 - 1, t1 - 1)} paths, PASS"


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),  # skips row 1
    np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),  # never reaches row 2
    np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]]),  # a step of 1.5
    np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),  # starts at row 1, steps back
])
def test_oracle_fails_a_path_that_breaks_a_constraint(monkeypatch, capsys, bad):
    good = cli.enumerate_monotonic_paths(3, 3)
    monkeypatch.setattr(cli, "enumerate_monotonic_paths", lambda t1, t2: good + [bad])
    assert main(["oracle", "--t1", "3", "--t2", "3"]) == 4
    assert capsys.readouterr().out.strip() == "2 paths, FAIL"


@pytest.mark.parametrize("t1, t2", [(4, 3), (1, 3), (0, 3)])
def test_oracle_infeasible(t1, t2, capsys):
    assert main(["oracle", "--t1", str(t1), "--t2", str(t2)]) == 2
    assert "the oracle needs 2 <= t1 <= t2" in capsys.readouterr().err


def test_oracle_refuses_sizes_over_its_cap(capsys):
    # C(39, 11) = 1,676,056,044 dense 12x40 matrices: refused before enumerating
    start = time.perf_counter()
    assert main(["oracle", "--t1", "12", "--t2", "40"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "1676056044 monotonic paths" in capsys.readouterr().err
    # one matrix alone over the cap: the count is named, not computed
    assert main(["oracle", "--t1", "100000", "--t2", "200000"]) == 2
    assert "C(199999, 99999) monotonic paths" in capsys.readouterr().err
    # the largest size the benchmark's cli-files workload asks for stays far below it
    assert main(["oracle", "--t1", "5", "--t2", "10"]) == 0
    assert capsys.readouterr().out.strip() == "126 paths, PASS"


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--op", "sma_loss", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["gradcheck", "--op", "hma_transform"]) == 0
    assert main(["gradcheck", "--op", "not_an_op"]) == 2


def test_gradcheck_fails_a_nan_gradient(monkeypatch, capsys):
    # finite at every probe around x = 0, where the analytic gradient is 0 * inf
    op, x = (lambda v: ref.relu(ref.log(v * v))), np.array([0.0, 2.0])
    monkeypatch.setitem(CHECKABLE_OPS, "nan_gradient", lambda rng: (op, [x]))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not ad.gradcheck(op, [x]).passed
        assert main(["gradcheck", "--op", "nan_gradient"]) == 4
    assert "nan_gradient: FAIL (max rel err nan" in capsys.readouterr().out


def test_run_check_rejects_unknown_op():
    with pytest.raises(KeyError, match="unknown op 'nope'; known: align_from_imv"):
        run_check("nope")


def test_train_toy_command(tmp_path, capsys):
    config = {
        "mode": "HMA",
        "steps": 5,
        "batch_size": 4,
        "pool_size": 8,
        "report_path": str(tmp_path / "report.jsonl"),
        "heatmap_path": str(tmp_path / "final.pgm"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["train-toy", "--config", str(path)]) == 0
    _, report = cli.train(*cli.load_run_config(str(path))[:2])
    report.write_jsonl(str(tmp_path / "expected.jsonl"))
    assert (tmp_path / "report.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
    assert (tmp_path / "final.pgm").read_text().startswith("P2")


def test_train_toy_rejects_bad_configs(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["train-toy", "--config", str(bad_json)]) == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"mode": "HMA", "bogus_key": 1}))
    assert main(["train-toy", "--config", str(unknown)]) == 2

    bad_mode = tmp_path / "mode.json"
    bad_mode.write_text(json.dumps({"mode": "XYZ"}))
    assert main(["train-toy", "--config", str(bad_mode)]) == 2

    not_an_object = tmp_path / "array.json"
    not_an_object.write_text(json.dumps([{"mode": "HMA"}]))
    assert main(["train-toy", "--config", str(not_an_object)]) == 2


def _read_pgm(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "P2"
    cols, rows = map(int, lines[1].split())
    assert lines[2] == "255"
    pixels = np.array([[int(x) for x in line.split()] for line in lines[3:]])
    assert pixels.shape == (rows, cols)
    return pixels


def test_heatmap_identity(tmp_path):
    alignment = _matrix_file(tmp_path, np.eye(3))
    out = tmp_path / "id.pgm"
    assert main(["heatmap", "--alignment", alignment, "--out", str(out)]) == 0
    pixels = _read_pgm(out)
    assert np.array_equal(pixels, np.eye(3, dtype=int) * 255)


def test_heatmap_uniform(tmp_path):
    alignment = _matrix_file(tmp_path, np.full((2, 4), 0.5))
    out = tmp_path / "u.pgm"
    assert main(["heatmap", "--alignment", alignment, "--out", str(out)]) == 0
    assert np.all(_read_pgm(out) == 255)


def test_heatmap_scales_linearly(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.random((4, 5))
    alignment = _matrix_file(tmp_path, m)
    out = tmp_path / "r.pgm"
    assert main(["heatmap", "--alignment", alignment, "--out", str(out)]) == 0
    expected = np.rint(m * (255.0 / m.max())).astype(int)
    assert np.array_equal(_read_pgm(out), expected)


def test_cli_roundtrip_imv_reconstruct_imv(tmp_path):
    # a monotone alignment: convex mixture of two hard paths
    from imvalign.core import enumerate_monotonic_paths

    hard = enumerate_monotonic_paths(3, 6)
    alpha = 0.5 * hard[0] + 0.5 * hard[-1]
    a_file = _matrix_file(tmp_path, alpha)
    pi_file = tmp_path / "pi.csv"
    assert main(["imv", "--alignment", a_file, "--out", str(pi_file)]) == 0
    recon_file = tmp_path / "recon.csv"
    assert (
        main(
            ["reconstruct", "--imv", str(pi_file), "--t1", "3", "--sigma2", "0.001", "--out", str(recon_file)]
        )
        == 0
    )
    pi2_file = tmp_path / "pi2.csv"
    assert main(["imv", "--alignment", str(recon_file), "--out", str(pi2_file)]) == 0
    assert np.max(np.abs(read_vector(pi2_file) - read_vector(pi_file))) < 0.1


@pytest.mark.parametrize("command, option, value", [
    (command, option, value)
    for command, option in [("reconstruct", "--sigma2"), ("positions", "--sigma2"), ("sma", "--lambda0")]
    for value in ["nan", "-1"]
] + [
    ("sma", f"--lambda{i}", "inf") for i in range(4)
] + [
    (command, "--sigma2", value) for command in ("reconstruct", "positions") for value in ("1e-320", "inf")
])
def test_invalid_numeric_setting_exits_2(tmp_path, command, option, value):
    imv = _vector_file(tmp_path, [0.0, 0.5, 1.0])
    argv = [command, "--imv", imv, "--t1", "2", option, value]
    if command == "reconstruct":
        argv += ["--out", str(tmp_path / "alpha.csv")]
    assert main(argv) == 2
    assert not (tmp_path / "alpha.csv").exists()


@pytest.mark.parametrize("setting", [
    {"sigma2": -1}, {"sigma2": float("nan")}, {"epsilon": 0}, {"epsilon": float("nan")},
    {"ap_weight": float("nan")}, {"ap_weight": -1}, {"accuracy_threshold": float("nan")},
    {"noise_sigma": float("nan")}, {"noise_sigma": -1}, {"sigma2": 1e-320}, {"sigma2": 1e400},
    {"embed_dim": 0}, {"frame_dim": 0}, {"steps": 1.5}, {"vocab": 6.5}, {"seed": 1.5},
    {"task_seed": 1.5}, {"batch_size": 2.5, "pool_size": 4}, {"pool_size": 3.0, "batch_size": 2},
    {"dmin": 1.5, "dmax": 3}, {"steps": True}, {"noise_sigma": 1e400}, {"lr": 1e400},
    {"epsilon": 1e400}, {"ap_weight": 1e400}, {"sma_weights": [1e400, 1, 1, 1]},
    {"sma_weights": [1, 1, 1, -1]},
])
def test_train_toy_invalid_numeric_setting_exits_2(tmp_path, setting):
    path = tmp_path / "cfg.json"
    heatmap = tmp_path / "h.pgm"
    path.write_text(json.dumps({"steps": 1, "report_path": None, "heatmap_path": str(heatmap), **setting}))
    assert main(["train-toy", "--config", str(path)]) == 2
    assert not heatmap.exists()


def test_train_toy_refuses_an_oversized_task(tmp_path, monkeypatch, capsys):
    # refused while the config is read: training, which would allocate, never starts
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("train was called"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"steps": 2, "report_path": None, "t1_max": 100000}))
    assert main(["train-toy", "--config", str(path)]) == 2
    assert "over the cap of 10000000 entries" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--h", "-1"), ("--h", "nan"), ("--tol", "-1"), ("--tol", "nan")])
def test_gradcheck_invalid_setting_exits_2(option, value):
    assert main(["gradcheck", "--op", "sma_loss", option, value]) == 2


def test_usage_error_exit_code():
    assert main(["imv"]) == 2
    assert main(["no-such-command"]) == 2


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; a fresh interpreter importing the
    # CLI must not pull it in
    import os
    import subprocess
    import sys

    import imvalign

    src = os.path.dirname(os.path.dirname(os.path.abspath(imvalign.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import imvalign.cli; import sys; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _old_heatmap_alignment(model, task, mode, sigma2):
    """The inline scaled-dot -> IMV -> HMA -> positions -> reconstruction
    chain train-toy used for its heatmap; the reference for the shared
    forward pass."""
    from imvalign.attention import scaled_dot_alignment
    from imvalign.core import compute_imv
    from imvalign.monotonic import KernelConfig, hma_transform
    from imvalign.positions import align_from_positions, extract_positions
    from imvalign.toy import make_batch

    batch = make_batch(task, 0)
    p = model.params
    alpha = scaled_dot_alignment(batch.frames @ p["frame_proj"], p["embed"][batch.token_ids])
    imv = compute_imv(alpha)
    if mode == "HMA":
        imv = hma_transform(imv)
    pos = extract_positions(imv, KernelConfig(sigma2=sigma2))
    return align_from_positions(pos, batch.t2, KernelConfig(sigma2=sigma2))


@pytest.mark.parametrize("mode", ["HMA", "SMA", "NM"])
def test_train_toy_heatmap_equals_inline_chain(tmp_path, monkeypatch, mode):
    import imvalign.cli as cli

    captured = {}

    def train(task, cfg):
        model, report = cli_train(task, cfg)
        captured.update(task=task, cfg=cfg, model=model)
        return model, report

    cli_train = cli.train
    monkeypatch.setattr(cli, "train", train)
    monkeypatch.setattr(cli, "write_pgm", lambda path, alpha: captured.update(alpha=alpha))
    config = {"mode": mode, "steps": 20, "batch_size": 4, "pool_size": 8, "sigma2": 0.3,
              "report_path": str(tmp_path / "report.jsonl")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["train-toy", "--config", str(path)]) == 0
    expected = _old_heatmap_alignment(captured["model"], captured["task"], mode, 0.3)
    assert np.array_equal(captured["alpha"], expected)


def _load(tmp_path, config):
    from imvalign.cli import load_run_config

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return load_run_config(str(path))


def test_run_config_defaults(tmp_path):
    from imvalign.toy import ToyTask, TrainConfig

    task, cfg, report_path, heatmap_path = _load(tmp_path, {})
    assert task == ToyTask()
    assert cfg == TrainConfig()
    assert report_path == "toy_report.jsonl"
    assert heatmap_path == "toy_alignment.pgm"


def test_run_config_routes_keys(tmp_path):
    from imvalign.monotonic import SmaWeights

    task, cfg, report_path, heatmap_path = _load(tmp_path, {
        "task_seed": 7, "seed": 3, "vocab": 5, "lr": 0.05, "mode": "SMA",
        "sma_weights": [0.5, 1, 2.0, 0], "report_path": None, "heatmap_path": "h.pgm",
    })
    assert (task.seed, task.vocab) == (7, 5)
    assert (cfg.seed, cfg.lr, cfg.mode, cfg.steps) == (3, 0.05, "SMA", 1200)
    assert cfg.sma_weights == SmaWeights(0.5, 1.0, 2.0, 0.0)
    assert (report_path, heatmap_path) == (None, "h.pgm")


@pytest.mark.parametrize("paths", [
    {"heatmap_path": None}, {"heatmap_path": 7}, {"heatmap_path": ""}, {"heatmap_path": ["h.pgm"]},
    {"report_path": 7}, {"report_path": True}, {"report_path": {"path": "r.jsonl"}},
])
def test_train_toy_rejects_bad_output_paths_before_training(tmp_path, monkeypatch, capsys, paths):
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("train was called"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"steps": 1, **paths}))
    assert main(["train-toy", "--config", str(path)]) == 2
    key = next(iter(paths))
    assert f"{key} must be a" in capsys.readouterr().err


@pytest.mark.parametrize("report_path", [None, ""])
def test_train_toy_without_a_report_writes_only_the_heatmap(tmp_path, monkeypatch, capsys, report_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"steps": 2, "batch_size": 4, "pool_size": 8,
                                                   "report_path": report_path}))
    assert main(["train-toy", "--config", "cfg.json"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "toy_alignment.pgm"]
    assert f"report: {report_path}; heatmap: toy_alignment.pgm" in capsys.readouterr().out


def test_run_config_rejects_bad_sma_weights(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sma_weights": [1.0, 1.0, 1.0]}))
    assert main(["train-toy", "--config", str(path)]) == 2


def _library_exception_classes():
    """Every exception class an ``imvalign`` module defines, found by
    introspection so a new one cannot be missed."""
    import importlib
    import inspect
    import pkgutil

    import imvalign

    found = []
    for info in pkgutil.iter_modules(imvalign.__path__):
        module = importlib.import_module(f"imvalign.{info.name}")
        found += [obj for _, obj in inspect.getmembers(module, inspect.isclass)
                  if issubclass(obj, BaseException) and obj.__module__ == module.__name__]
    return found


def _resolved_code(cls):
    return next((cli.EXIT_CODES[c] for c in cls.__mro__ if c in cli.EXIT_CODES), None)


def test_every_library_exception_class_has_an_exit_code():
    classes = _library_exception_classes()
    names = {cls.__name__ for cls in classes}
    assert {"AlignmentError", "DegenerateImvError", "ConfigError", "MatrixFormatError", "NonFiniteError",
            "NonDeterministicError", "TrainDivergenceError", "UntrainedModelError"} <= names
    assert all(_resolved_code(cls) in (2, 3, 4) for cls in classes)
    # a subclass's entry wins over its base's; the file-format errors resolve through ValueError
    assert [_resolved_code(c) for c in (cli.DegenerateImvError, cli.AlignmentError, cli.ConfigError)] == [4, 3, 2]


@pytest.mark.parametrize("cls", _library_exception_classes(), ids=lambda cls: cls.__name__)
def test_a_library_exception_raised_by_a_command_exits_with_its_code(monkeypatch, capsys, cls):
    def run_check(*args, **kwargs):
        # bypasses subclass __init__ signatures; str(exc) is the message
        raise cls.__new__(cls, "injected failure")

    monkeypatch.setattr(cli, "run_check", run_check)
    assert main(["gradcheck", "--op", "sma_loss"]) == _resolved_code(cls)
    assert capsys.readouterr().err == "error: injected failure\n"


def test_an_unlisted_exception_is_not_swallowed(monkeypatch):
    # a RuntimeError of no listed class is a bug: it keeps its traceback
    def run_check(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "run_check", run_check)
    with pytest.raises(RuntimeError, match="bug"):
        main(["gradcheck", "--op", "sma_loss"])


def test_readme_lists_every_exit_code_class():
    import pathlib

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("Exit codes"):]
    section = section[:section.index("\n\n")]
    for cls, code in cli.EXIT_CODES.items():
        assert f"`{cls.__name__}` ({code})" in section, cls.__name__


# one case per path argument: the command's argv, with {bad} at the path under test
_PATH_ARGUMENTS = {
    "imv --alignment": ["imv", "--alignment", "{bad}"],
    "imv --out": ["imv", "--alignment", "{alignment}", "--out", "{bad}"],
    "hma --imv": ["hma", "--imv", "{bad}", "--t1", "2"],
    "hma --out": ["hma", "--imv", "{imv}", "--t1", "2", "--out", "{bad}"],
    "reconstruct --imv": ["reconstruct", "--imv", "{bad}", "--t1", "2", "--out", "{out}"],
    "reconstruct --out": ["reconstruct", "--imv", "{imv}", "--t1", "2", "--out", "{bad}"],
    "positions --imv": ["positions", "--imv", "{bad}", "--t1", "2"],
    "positions --out": ["positions", "--imv", "{imv}", "--t1", "2", "--out", "{bad}"],
    "sma --imv": ["sma", "--imv", "{bad}", "--t1", "2"],
    "heatmap --alignment": ["heatmap", "--alignment", "{bad}", "--out", "{out}"],
    "heatmap --out": ["heatmap", "--alignment", "{alignment}", "--out", "{bad}"],
    "train-toy --config": ["train-toy", "--config", "{bad}"],
    "train-toy report_path": ["train-toy", "--config", "{report_config}"],
    "train-toy heatmap_path": ["train-toy", "--config", "{heatmap_config}"],
}


def _fault_argv(tmp_path, name, kind):
    """Write a command's good inputs and return its argv with one path
    argument made unusable: a directory, or a path in a missing directory."""
    bad = tmp_path / "a_dir" if kind == "directory" else tmp_path / "missing" / "x.out"
    if kind == "directory":
        bad.mkdir()
    inputs = {"alignment": _matrix_file(tmp_path, np.eye(2)), "imv": _vector_file(tmp_path, [0.0, 1.0]),
              "out": str(tmp_path / "out.csv"), "bad": str(bad)}
    for key in ("report_path", "heatmap_path"):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({"steps": 2, "batch_size": 4, "pool_size": 8, "report_path": None,
                                      "heatmap_path": str(tmp_path / "h.pgm"), key: str(bad)}))
        inputs[key.replace("_path", "_config")] = str(config)
    return [arg.format(**inputs) for arg in _PATH_ARGUMENTS[name]]


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.mark.parametrize("kind", ["directory", "missing parent"])
@pytest.mark.parametrize("name", sorted(_PATH_ARGUMENTS))
def test_an_unusable_path_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, name, kind):
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("train was called"))
    argv = _fault_argv(tmp_path, name, kind)
    before = _tree(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert _tree(tmp_path) == before


def test_an_unusable_path_exits_2_without_a_traceback_from_a_fresh_interpreter(tmp_path):
    import os
    import subprocess
    import sys

    import imvalign

    src = os.path.dirname(os.path.dirname(os.path.abspath(imvalign.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = _fault_argv(tmp_path, "imv --out", "directory")
    out = subprocess.run([sys.executable, "-m", "imvalign.cli", *argv], env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: [Errno 21] Is a directory") and out.stderr.count("\n") == 1


def test_train_toy_permission_error_at_write_time_exits_2(tmp_path, monkeypatch, capsys):
    # a read-only path cannot be made while running as root: the writer raises instead
    def write_pgm(path, alpha):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "write_pgm", write_pgm)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"steps": 2, "batch_size": 4, "pool_size": 8, "report_path": None,
                                "heatmap_path": str(tmp_path / "h.pgm")}))
    assert main(["train-toy", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{tmp_path / 'h.pgm'}'\n"
