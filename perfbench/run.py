"""imvalign benchmark: one command, four workloads, untraced or traced.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The first line of output is a header describing the machine, the
second a detail line with the workload's own figures, and the last one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# numpy reads these when it loads BLAS; one thread keeps runs steady and
# below the core count. Child processes inherit them.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("toy-train", "align-long", "grad-long", "cli-files")
SETUP_SAMPLES = 3
SETUP_HOST_PROBES = 2  # reference interpreters after each set-up sample

# Tape ops the library records; clamp has no caller in the library.
TAPE_OPS = ("add", "sub", "mul", "div", "exp", "log", "tanh", "relu", "abs", "sum", "cumsum",
            "concat", "take_rows", "getitem", "reshape", "transpose", "matmul")

# per-layer metric -> spans whose self times it sums, in ms per unit of work
SPAN_METRICS = {
    "autodiff.record_ms": ("autodiff.record",),
    "autodiff.backward_ms": ("autodiff.backward",),
    "autodiff.softmax_ms": ("autodiff.softmax",),
    "attention.scaled_dot_alignment_ms": ("attention.scaled_dot_alignment",),
    "core.compute_imv_ms": ("core.compute_imv",),
    "core.validate_imv_ms": ("core.validate_imv",),
    "core.context_map_ms": ("core.context_map",),
    "core.enumerate_monotonic_paths_ms": ("core.enumerate_monotonic_paths",),
    "monotonic.hma_transform_ms": ("monotonic.hma_transform",),
    "monotonic.sma_loss_ms": ("monotonic.sma_loss",),
    "monotonic.align_from_imv_ms": ("monotonic.align_from_imv",),
    "monotonic.streaming_hma_run_ms": ("monotonic.streaming_hma_run",),
    "positions.extract_positions_ms": ("positions.extract_positions",),
    "positions.align_from_positions_ms": ("positions.align_from_positions",),
    "positions.ap_loss_ms": ("positions.ap_loss",),
    "positions.infer_t2_ms": ("positions.infer_t2",),
    "toy.metrics_ms": ("toy.metrics",),
    "toy.step_self_ms": ("toy.train", "toy.evaluate_step"),
    "toy.make_batch_ms": ("toy.make_batch",),
    "toy.infer_ms": ("toy.infer",),
    "matrixio.read_ms": ("matrixio.read",),
    "matrixio.write_ms": ("matrixio.write",),
    "cli.main_ms": ("cli.main",),
}
SPAN_METRICS.update({f"autodiff.op.{op}.backward_ms": (f"autodiff.op.{op}.backward",) for op in TAPE_OPS})
# per-layer counters, per unit of work
COUNT_METRICS = ("monotonic.hma_degenerate", "matrixio.bytes") + tuple(f"autodiff.op.{op}.calls" for op in TAPE_OPS)
# the workload's own end-to-end figures, measured untraced inside a traced run
WORKLOAD_METRICS = {
    "hma_steps_per_s": "steps/s", "sma_steps_per_s": "steps/s", "nm_steps_per_s": "steps/s",
    "hma_time_to_acc_s": "s", "align_seqs_per_s": "seq/s", "stream_cols_per_s": "columns/s",
    "grad_seqs_per_s": "seq/s", "cli_cmd_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="imvalign benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs and one round: finishes in seconds, for the benchmark's tests")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import imvalign from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "imvalign", "__init__.py")):
        raise SystemExit(f"error: no imvalign sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import imvalign
    import imvalign.cli  # noqa: F401  (the cli-files workload calls it in-process)

    if os.path.dirname(os.path.abspath(imvalign.__file__)) != os.path.join(SRC, "imvalign"):
        raise SystemExit(f"error: imported imvalign from {imvalign.__file__}, not {SRC}")
    import workloads

    return workloads


def make_inputs(wl, args, workdir: str):
    if args.workload == "toy-train":
        return wl.toy_inputs(args.seed, args.small)
    if args.workload == "align-long":
        return wl.align_inputs(args.seed, args.small)
    if args.workload == "grad-long":
        return wl.grad_inputs(args.seed, args.small)
    return wl.cli_inputs(args.seed, args.small, workdir)


def header(args) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(os.path.join(SRC, "imvalign"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "small": args.small, "git_commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(), "blas_threads": BLAS_THREADS,
    }


def measure_setup(args, workdir: str) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import imvalign and make
    the workload's inputs, then exit, and the host scale measured by
    reference interpreters started after each of them."""
    import reference

    times = []
    host = reference.HostClock(reference.NOMINAL_PROBE_S)
    for i in range(1 if args.small else SETUP_SAMPLES):
        probe = os.path.join(workdir, f"probe{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", probe] + (["--small"] if args.small else [])
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=170)
        times.append(time.perf_counter() - start)
        shutil.rmtree(probe, ignore_errors=True)
        for _ in range(SETUP_HOST_PROBES):
            host.add(reference.probe_seconds())
    return statistics.median(times), host.scale()


def run_phase(wl, args, inputs, seconds: float, tracer=None):
    stats = wl.Stats()
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    if args.workload == "toy-train":
        wl.run_toy(inputs, seconds, stats, paused)
    elif args.workload == "align-long":
        wl.run_align(inputs, seconds, stats, args.small)
    elif args.workload == "grad-long":
        wl.run_grad(inputs, seconds, stats, args.small, paused)
    else:
        wl.run_cli(inputs, seconds, stats, args.small, ROOT, traced=tracer is not None)
    return stats


def end_to_end(stats, setup_s: float, scale: float = 1.0) -> dict:
    """The gated metrics; times are multiplied by ``scale`` (the host scale
    of :mod:`reference`, which set ``setup_s`` too), rates divided by it."""
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms": {"value": 1e3 * statistics.median(stats.op_s) * scale if stats.op_s else 0.0, "unit": "ms"},
        "ops_per_s": {"value": len(stats.op_s) / stats.busy_s / scale if stats.busy_s else 0.0, "unit": "1/s"},
    }


def unscaled(stats, setup_raw_s: float, setup_scale: float) -> dict:
    """What end_to_end reports before host scaling, and the scales."""
    return {"setup_s": setup_raw_s, "op_ms": 1e3 * statistics.median(stats.op_s) if stats.op_s else 0.0,
            "ops_per_s": len(stats.op_s) / stats.busy_s if stats.busy_s else 0.0,
            "setup_scale": setup_scale, "op_scale": stats.host.scale(), "host_samples": len(stats.host.samples)}


def workload_figures(workload: str, stats) -> dict:
    """The figures the workload exists to measure, by their own names."""
    s = stats.sums

    def rate(num, den):
        return s.get(num, 0.0) / s[den] if s.get(den) else 0.0

    figures = dict.fromkeys(WORKLOAD_METRICS, 0.0)
    if workload == "toy-train":
        for mode in ("HMA", "SMA", "NM"):
            figures[f"{mode.lower()}_steps_per_s"] = rate(f"{mode}_steps", f"{mode}_s")
        figures["hma_time_to_acc_s"] = rate("hma_time_to_acc_s", "hma_reached")
    elif workload == "align-long":
        figures["align_seqs_per_s"] = len(stats.op_s) / s["pipeline_s"] if s.get("pipeline_s") else 0.0
        figures["stream_cols_per_s"] = rate("stream_cols", "stream_s")
    elif workload == "grad-long":
        figures["grad_seqs_per_s"] = len(stats.op_s) / stats.busy_s if stats.busy_s else 0.0
    elif stats.op_s:
        figures["cli_cmd_s"] = statistics.median(stats.op_s)
    return figures


def per_layer(workload: str, tracer, traced, untraced) -> dict:
    units = max(len(traced.op_s), 1)
    metrics = {}
    for name, spans in SPAN_METRICS.items():
        metrics[name] = (sum(tracer.self_s.get(s, 0.0) for s in spans) * 1e3 / units, "ms")
    cols = max(traced.sums.get("stream_cols", 0), 1)
    metrics["monotonic.streaming_hma_step_ms"] = (tracer.self_s.get("monotonic.streaming_hma_step", 0.0) * 1e3 / cols, "ms")
    for name in COUNT_METRICS:
        metrics[name] = (tracer.counts.get(name, 0) / units, "count")
    metrics["autodiff.nodes"] = (sum(tracer.counts.get(f"autodiff.op.{op}.calls", 0) for op in TAPE_OPS) / units,
                                 "count")
    metrics["cli.import_s"] = (traced.sums.get("import_s", 0.0) / units, "s")
    if traced.op_s and untraced.op_s:
        # host-scaled, as the two halves ran at different times
        overhead = 100.0 * (statistics.median(traced.op_s) * traced.host.scale()
                            / (statistics.median(untraced.op_s) * untraced.host.scale()) - 1.0)
    else:
        overhead = 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    for name, value in workload_figures(workload, untraced).items():
        metrics[name] = (value, WORKLOAD_METRICS[name])
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = import_library()
    if args.setup_probe:
        os.makedirs(args.setup_probe, exist_ok=True)
        make_inputs(wl, args, args.setup_probe)
        return 0

    run_header = header(args)
    print(json.dumps({"header": run_header}), flush=True)
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_raw_s, setup_scale = measure_setup(args, workdir)
        setup_s = setup_raw_s * setup_scale
        inputs = make_inputs(wl, args, workdir)
        if args.trace:
            import tracer as tracing

            untraced = run_phase(wl, args, inputs, args.seconds / 2)
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                traced = run_phase(wl, args, inputs, args.seconds / 2, tracer)
            phases = [untraced, traced]
            metrics = per_layer(args.workload, tracer, traced, untraced)
            tracer.save(os.path.join(HERE, "_work", f"trace-{args.workload}-seed{args.seed}.npz"), run_header)
            detail = {"untraced": end_to_end(untraced, setup_s, untraced.host.scale()),
                      "traced": end_to_end(traced, setup_s, traced.host.scale()), "spans_dropped": tracer.dropped}
        else:
            stats = run_phase(wl, args, inputs, args.seconds)
            phases = [stats]
            metrics = end_to_end(stats, setup_s, stats.host.scale())
            detail = {k: v for k, v in workload_figures(args.workload, stats).items() if v}
            detail["unscaled"] = unscaled(stats, setup_raw_s, setup_scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    round_failures = int(sum(p.sums.get("round_checks_failed", 0) for p in phases))
    detail["round_checks_failed"] = round_failures
    print(json.dumps({"detail": detail}), flush=True)
    result = {
        "correct": round_failures == 0 and all(p.op_s for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
