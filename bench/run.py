"""End-to-end and per-layer benchmark for jitower.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one process and one closed-loop client.  Each operation (one
``jitower build``, or one load-plus-verify) goes in-process through
``jitower.cli.main`` and starts only after the previous one ended; its
tower file, report and check list are compared with the pins in
``pins.json``.

A fixed reference kernel is timed in a short window before each operation
and after the last one.  The gated times are scaled to a reference host
speed: an operation's wall time times CALIB_REF_S over the mean of the
windows on either side of it, and the set-up time times CALIB_REF_S over
the run's ``host.calib_s`` (median window).  On a shared host whose speed
drifts by a quarter within minutes this keeps runs made at different times
comparable; the raw times are printed beside them and kept in the record.

``--trace 0`` runs operations for S seconds of operation time (at least
one; none that the median so far says would end after S) and reports
``wall_s`` (median scaled operation time), ``setup_s`` (median of several
set-ups in fresh processes, scaled) and ``peak_rss_mb``.  ``--trace 1``
runs one untraced and then one traced operation and reports the per-layer
metrics of the traced one; ``trace.overhead_s`` is the difference of their
scaled times.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (host, raw
samples, calibration windows) is written to ``bench/out/``, and in traced
runs the spans too.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from spans import COMPUTED, Tracer, metric_units
from workloads import WORKLOADS, check_outputs, import_jitower, prepare

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 7
CALIB_REPS = 6
CALIB_REF_S = 0.080  # host.calib_s of the reference host, a 2-core x86_64 VM

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {**metric_units(), "trace.overhead_s": "s", "host.calib_s": "s"}


def measure_setup(workload: str, seed: int, directory: Path) -> list:
    """Wall times of SETUP_REPEATS fresh-process set-ups (see setup_probe.py)."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload",
               workload, "--seed", str(seed), "--dir", str(directory / f"probe{k}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
    return times


def calibrate() -> float:
    """One calibration window: median time of a fixed kernel that uses no
    jitower code.

    Interpreted loops around small numpy updates, the same mix as the
    program's own hot paths; it puts the host's speed at the time on record.
    """
    base = np.random.default_rng(20261017).integers(0, 5, size=(200, 200))
    times = []
    for _ in range(CALIB_REPS):
        t0 = time.perf_counter()
        a = base.copy()
        for c in range(a.shape[1]):
            piv = a[c, c] or 1
            a = (a * piv - np.outer(a[:, c], a[c])) % 5
        table = {}
        for i in range(60_000):
            table[i % 977] = table.get(i % 977, 0) + i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(samples: list, windows: list) -> list:
    """Operation times at reference host speed; ``windows[i]`` and
    ``windows[i + 1]`` are the calibrations just before and after op i."""
    return [t * CALIB_REF_S * 2 / (windows[i] + windows[i + 1])
            for i, t in enumerate(samples)]


def host_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_op(cli, inputs, i: int) -> tuple:
    """One operation; returns (wall seconds, list of problems)."""
    gc.collect()  # free the previous operation's cycles, outside the timing
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(inputs.argv(i))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a raising operation is a failed one; keep measuring
        elapsed = time.perf_counter() - t0
        return elapsed, ["raised:\n" + traceback.format_exc()]
    elapsed = time.perf_counter() - t0
    return elapsed, check_outputs(inputs, i, code)


def closed_loop(cli, inputs, seconds: float) -> tuple:
    """Operations back to back for ``seconds`` of operation time; at least
    one, and none that would be expected (by the median so far) to end
    after ``seconds``.  Returns (wall times, problem lists of the failed
    operations, calibration windows around them)."""
    samples, problems, windows = [], [], [calibrate()]
    while True:
        elapsed, problem = run_op(cli, inputs, len(samples))
        samples.append(elapsed)
        windows.append(calibrate())
        if problem:
            problems.append(problem)
        if sum(samples) + statistics.median(samples) > seconds:
            return samples, problems, windows


def traced_pair(cli, inputs, spans_path: Path) -> tuple:
    """One untraced then one traced operation; returns (wall times, problem
    lists, calibration windows, per-layer values of the traced operation)."""
    windows = [calibrate()]
    first, problem0 = run_op(cli, inputs, 0)
    windows.append(calibrate())
    with Tracer() as tracer:
        tracer.op_id = 1
        traced, problem1 = run_op(cli, inputs, 1)
    windows.append(calibrate())
    tracer.save(spans_path)
    layer = tracer.metrics(op_id=1)
    plain_ref, traced_ref = scaled([first, traced], windows)
    layer["trace.overhead_s"] = traced_ref - plain_ref
    layer["host.calib_s"] = statistics.median(windows)
    problems = [p for p in (problem0, problem1) if p]
    return [first, traced], problems, windows, layer


def percentile_line(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"none (n={n} < 11)"
    k = n - 11
    return f"p{100 * (k + 1) // n} = {sorted(samples)[k]:.4f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=OUT))
    try:
        try:
            setup = measure_setup(args.workload, args.seed, rundir)
            cli = import_jitower()
        except (RuntimeError, ImportError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        host = host_record()
        inputs = prepare(WORKLOADS[args.workload], args.seed, rundir / "run")
        if args.trace:
            samples, problems, windows, layer = traced_pair(
                cli, inputs, OUT / f"spans-{args.workload}-s{args.seed}.npz")
            metrics = {k: {"value": layer[k], "unit": u} for k, u in LAYER_UNITS.items()}
        else:
            samples, problems, windows = closed_loop(cli, inputs, args.seconds)
            ops_ref = scaled(samples, windows)
            values = {
                "wall_s": statistics.median(ops_ref),
                "setup_s": statistics.median(setup) * CALIB_REF_S / statistics.median(windows),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    calib = statistics.median(windows)
    attempted = len(samples)
    failed = len(problems)
    for problem in problems:
        print(f"failed operation: {'; '.join(problem)}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"1 process, {'traced' if args.trace else 'untraced'}")
    print("host: " + ", ".join(f"{k} {v}" for k, v in host.items())
          + f", host.calib_s {calib:.4f} s (median of {len(windows)} windows; "
          f"reference {CALIB_REF_S} s)")
    if args.trace:
        for name, m in metrics.items():
            tag = " (computed)" if name in COMPUTED else ""
            print(f"{name} = {m['value']:.6g} {m['unit']}{tag}")
    else:
        print(f"wall_s = {metrics['wall_s']['value']:.4f} s at reference speed "
              f"(raw median {statistics.median(samples):.4f} s), median over "
              f"n={attempted} operations; highest percentile with >=10 beyond: "
              f"{percentile_line(ops_ref)}")
        print(f"setup_s = {metrics['setup_s']['value']:.4f} s at reference speed "
              f"(raw median {statistics.median(setup):.4f} s of {SETUP_REPEATS} "
              f"fresh-process set-ups)")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MiB")
    print(f"fail_rate = {failed}/{attempted} = {failed / attempted:.4g}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host, "host.calib_s": calib, "calib_windows_s": windows,
              "samples_s": samples, "setup_samples_s": setup,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
