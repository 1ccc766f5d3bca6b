"""Paper-scale benchmark for paleokalman: fit, smooth and impute, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload paper-rwn --seed 1 --seconds 10 --trace 0

The input panel is drawn from --seed, written as an ingest CSV and hashed
before anything is timed. A pass is: set up from the CSV (ingest, layout,
compile), one exact-diffuse loglik of the whole panel at the workload's
parameters, a fit with standard errors of each fit window (consecutive
slices of the panel's youngest rows), filter + smooth of the panel, and
impute on a 10-ky grid.

With --trace 0 the run repeats whole passes for --seconds (at least one)
and reports the end-to-end metrics. Each time is the median of its stage's
samples, each sample its call's wall time at a reference speed measured
by a probe that runs before, during and after the call (see refspeed.py:
this host's speed drifts by up to ~1.7x), and fit_s is the median over
the windows of each window's median fit. The raw wall times are in the
report line.

With --trace 1 it runs one pass with the package's entry points wrapped in
spans (see layers.py), and reports the per-layer metrics; the spans and
their self times go to perfbench/out/trace-<workload>-seed<seed>.json. The
tracing overhead is trace.pass_s minus one pass's raw untraced stage
times for the same seed; trace.overhead_s is the part spent inside the
wrappers.

Either way every pass is checked, and failed checks are counted, never
skipped. The self-test is `python3 -m pytest -q perfbench`.

Load is a closed loop: one process, one thread, one caller; BLAS is held to
one thread. The second-to-last stdout line is a JSON report (environment,
machine load, input hash, samples, checks); the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("paper-rwn", "source-fit")
END_TO_END_UNITS = {
    "setup_s": "s",
    "loglik_s": "s",
    "fit_s": "s",
    "smooth_s": "s",
    "impute_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument(
        "--scale", default="full", choices=("full", "small"),
        help="input sizes; small is for the self-test only",
    )
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_load() -> dict:
    """/proc/loadavg and the aggregate steal ticks from /proc/stat."""
    steal = None
    for line in _read("/proc/stat").splitlines():
        if line.startswith("cpu "):
            fields = line.split()
            steal = int(fields[8]) if len(fields) > 8 else None
            break
    return {"loadavg": _read("/proc/loadavg").strip(), "steal_ticks": steal}


def environment() -> dict:
    import numpy
    import scipy
    from paleokalman import _kernels

    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "HAVE_NUMBA": bool(_kernels.HAVE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paleokalman" / "__init__.py").is_file():
        print(f"paleokalman sources not found under {SRC}", file=sys.stderr)
        return 2
    # must precede the first numpy import
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import layers
    import workloads

    load_before = machine_load()
    wl = workloads.WORKLOADS[args.workload]
    scale = workloads.FULL if args.scale == "full" else workloads.SMALL
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        data, truth, windows = wl.make_input(args.seed, scale)
        csv_path = workdir / "panel.csv"
        layers.ingest_mod.write_ingest_csv(data, csv_path)
        del data
        input_info = {"csv_sha256": sha256_of(csv_path), "csv_bytes": csv_path.stat().st_size}
        if args.trace:
            metrics, checks, tracer = workloads.measure_traced(wl, csv_path, scale, truth, windows, workdir)
            units = layers.PER_LAYER_UNITS
            extra = {"self_times": tracer.summary()}
        else:
            metrics, checks, samples = workloads.measure(wl, csv_path, scale, truth, windows, args.seconds)
            units = END_TO_END_UNITS
            extra = {"samples": samples}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [c for c in checks if not c[1]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "input": input_info,
        "environment": environment(),
        "load_before": load_before,
        "load_after": machine_load(),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        **extra,
    }
    if args.trace:
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({**report, "spans": tracer.to_json()}) + "\n")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
