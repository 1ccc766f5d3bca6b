"""Self-test of the benchmark at reduced sizes.

Run from the repository root with `python3 -m pytest -q perfbench`. It
checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that the correctness checks run and are counted, and that
the input depends on the seed alone.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 3, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "small"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit_and_checks_counted(workload, trace):
    report, result = parse(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]

    names = {c["name"] for c in report["checks"]}
    assert {"kernel_loglik_matches_filter", "smooth.psd_rows", "impute.grid_points"} <= names
    assert {"fit[0].converged", "fit[0].loglik_at_least_truth", "fit[0].kernel_loglik_matches_filter"} <= names
    if trace:
        assert {"trace.fit_evals_match_n_evals", "trace.hessian_evals"} <= names
    assert result["attempted"] == len(report["checks"]) >= 3
    assert result["failed"] == sum(not c["ok"] for c in report["checks"])
    assert result["correct"] == (result["failed"] == 0)

    env = report["environment"]
    assert set(env["blas_threads"].values()) == {"1"}
    assert {"python", "numpy", "scipy", "HAVE_NUMBA", "nproc", "cpu_model"} <= set(env)
    assert {"loadavg", "steal_ticks"} <= set(report["load_before"]) & set(report["load_after"])


def test_input_depends_on_seed_only():
    digests = [parse(run_bench("source-fit", 0, seed))[0]["input"]["csv_sha256"] for seed in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]


def test_trace_counts_match_the_fit():
    report, result = parse(run_bench("source-fit", 1))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # every fit window has the panel's parameters, so each Hessian costs 2d^2 + 1
    d = metrics["modelspec.n_params"]
    windows = sum(c["name"].endswith("].converged") for c in report["checks"])
    assert metrics["fitting.hessian_evals"] == windows * (2 * d * d + 1)
    assert metrics["kernels.loglik_calls"] >= (
        metrics["fitting.nelder_mead_evals"] + metrics["fitting.bfgs_evals"] + metrics["fitting.hessian_evals"]
    )
    assert result["failed"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("paper-rwn", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_nests_spans_and_restores_patches():
    sys.path.insert(0, str(HERE))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(HERE))

    mod = types.SimpleNamespace()
    mod.leaf = lambda: time.sleep(0.01)
    mod.outer = lambda: [mod.leaf() for _ in range(3)]
    original_leaf = mod.leaf
    with Tracer() as tracer:
        tracer.patch(mod, "leaf", "leaf")
        tracer.patch(mod, "outer", "outer")
        mod.outer()
    assert mod.leaf is original_leaf
    assert [s.name for s in tracer.spans] == ["outer", "leaf", "leaf", "leaf"]
    assert all(s.parent == 0 for s in tracer.spans[1:])
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 3
    outer = summary["outer"]
    assert 0.0 <= outer["self_s"] < outer["total_s"] - 0.029
    assert len(tracer.named("leaf", under="outer")) == 3


def test_speed_sampler_probes_during_the_call_and_restores_sigalrm():
    sys.path.insert(0, str(HERE))
    try:
        import refspeed
    finally:
        sys.path.remove(str(HERE))
    import signal

    previous = signal.getsignal(signal.SIGALRM)
    with refspeed.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.probes) >= 4  # entry, exit and ticks in between
    assert 0.25 < sampler.elapsed <= 0.3 + 1e-3
    assert sampler.at_reference_speed == sampler.elapsed * refspeed.REF_PROBE_S / sampler.mean_probe
