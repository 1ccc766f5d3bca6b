"""The benchmark's workloads: inputs drawn from a seed, one pipeline pass,
and the checks that pass's outputs must meet.

Every call into the package goes through a module attribute at call time
(`kalman.filter`, not a local alias) so that layers.instrument can wrap it.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from paleokalman import _kernels, fitting, imputation, kalman, modelspec
from paleokalman.core import PanelDataset
from paleokalman.modelspec import ModelSpec
from paleokalman.oracle import simulate

import layers
import refspeed
from layers import ingest_mod
from tracing import Tracer

MEAN_DT = 0.00283  # My, mean spacing of the paper's panel
OBSERVED_SHARE = 0.95  # each series is observed on this share of rows
PANEL_SOURCES = 16
PANEL_SPECIES = 4
# Published pooled estimates (d18O, d13C). The increment correlation only
# shapes the simulated d13C column, which the univariate workloads ignore.
EPS2 = (0.0205, 0.0340)
ETA2 = (1.8364, 1.2135)
RHO = 0.5
GRID_SPAN_MYA = (67.0, 0.0)
PSD_TOL = 1e-10  # indefinite: min eigenvalue < -PSD_TOL * max |eigenvalue|
LOGLIK_RTOL = 1e-9
# within a pass, a stage shorter than this is called again (each call one
# sample) until its calls add up to it
STAGE_MIN_SECONDS = 0.1


@dataclass(frozen=True)
class Scale:
    panel_rows: int  # paper-rwn: rows of the whole panel
    panel_windows: tuple  # paper-rwn: (count, rows) of the fit windows
    source_windows: tuple  # source-fit: (count, rows); the panel is their union
    n_sources: int  # source-fit
    mesh_years: float


FULL = Scale(
    panel_rows=23_722,
    panel_windows=(8, 250),
    source_windows=(8, 60),
    n_sources=4,
    mesh_years=10_000.0,
)
# Reduced sizes for the self-test: every stage and check still runs.
SMALL = Scale(
    panel_rows=400,
    panel_windows=(2, 100),
    source_windows=(2, 40),
    n_sources=4,
    mesh_years=100_000.0,
)


def _stamps(rng, rows: int) -> np.ndarray:
    t = np.cumsum(rng.exponential(MEAN_DT, size=rows))
    return t - t[-1] - 0.001  # youngest row 1 ky before present


def paper_panel(seed: int, scale: Scale) -> tuple:
    """Two-isotope panel like the paper's, plus d18O truth by (role, group)."""
    rng = np.random.default_rng(seed)
    stamps = _stamps(rng, scale.panel_rows)
    observed = rng.random((scale.panel_rows, 2)) < OBSERVED_SHARE
    data = simulate(
        ModelSpec(arity="bivariate", corr_grouping="pooled"),
        [*EPS2, *ETA2, RHO],
        stamps,
        seed=seed,
        n_sources=PANEL_SOURCES,
        n_species=PANEL_SPECIES,
        observed=observed,
    )
    truth = {("sigma_eps2", "pooled"): EPS2[0], ("sigma_eta2", "pooled"): ETA2[0]}
    return data, truth, scale.panel_windows


def source_variances(n_sources: int) -> np.ndarray:
    return np.geomspace(0.01, 0.06, n_sources)


def source_panel(seed: int, scale: Scale) -> tuple:
    """d18O only, two slots per row, sources assigned round-robin."""
    rng = np.random.default_rng(seed)
    eps = source_variances(scale.n_sources)
    count, rows = scale.source_windows
    data = simulate(
        ModelSpec(meas_grouping="by-source"),
        [*eps, ETA2[0]],
        _stamps(rng, count * rows),
        slots_per_row=2,
        seed=seed,
        n_sources=scale.n_sources,
    )
    truth = {("sigma_eps2", f"src{k}"): float(v) for k, v in enumerate(eps)}
    truth[("sigma_eta2", "pooled")] = ETA2[0]
    return data, truth, scale.source_windows


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ModelSpec
    # seed, scale -> (PanelDataset, truth by (role, group), (count, rows) of
    # the fit windows: consecutive slices of the panel's youngest rows)
    make_input: Callable[[int, Scale], tuple]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-rwn", ModelSpec(), paper_panel),
        Workload("source-fit", ModelSpec(meas_grouping="by-source"), source_panel),
    )
}


def fit_windows(data: PanelDataset, windows: tuple) -> list:
    """The panel's youngest count * rows rows, split into count consecutive
    sub-panels of rows rows each, youngest first."""
    count, rows = windows
    n = data.n_rows
    return [dataclasses.replace(data, rows=data.rows[n - (i + 1) * rows : n - i * rows]) for i in range(count)]


def truth_vector(layout, truth: dict) -> np.ndarray:
    return np.array([truth[(p.role, p.group)] for p in layout.params])


def setup(spec: ModelSpec, csv_path) -> tuple:
    """What a user does before fitting: ingest the CSV, lay out and compile."""
    data, _ = ingest_mod.ingest(csv_path)
    layout = modelspec.build_layout(spec, data)
    compiled = kalman.compile_model(spec, layout, data)
    return data, layout, compiled


class StageClock:
    """Wall time per named stage, one sample per call.

    With min_seconds a call is repeated until the calls add up to it (at
    least one call), so that stages of a few milliseconds still give many
    samples. Each call starts after a full collection so that garbage left
    by the previous call is not charged to it.

    With a tracer each call is a span. Without one each call is timed
    against the reference probe (see refspeed.py), and `scaled` keeps its
    time at the reference speed.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict = {}  # raw wall times
        self.scaled: dict = {}  # at the reference speed, without a tracer
        self.probes: list = []  # mean probe time per call, without a tracer

    def run(self, name: str, call, min_seconds: float = 0.0):
        """Time call() under name; returns the last call's result."""
        samples = self.samples.setdefault(name, [])
        spent = 0.0
        while True:
            # free the previous call's output first, so that peak memory does
            # not depend on how many calls fit in min_seconds
            result = None
            gc.collect()
            if self.tracer is not None:
                t0 = time.perf_counter()
                with self.tracer.block(name.split("/")[0]):
                    result = call()
                elapsed = time.perf_counter() - t0
            else:
                with refspeed.SpeedSampler() as sampler:
                    result = call()
                elapsed = sampler.elapsed
                self.probes.append(sampler.mean_probe)
                self.scaled.setdefault(name, []).append(sampler.at_reference_speed)
            samples.append(elapsed)
            spent += elapsed
            if spent >= min_seconds:
                return result


@dataclass
class PassOutput:
    data: PanelDataset  # the ingested panel
    layout: object
    windows: list  # the fit windows, sub-panels of data
    fit_results: list  # a FitResult per window
    kernel_loglik: float  # the panel's loglik at the workload's parameters
    run: object  # FilterRun of the panel at those parameters
    paths: object  # its smoothed StatePaths
    table: object  # ImputationTable on the grid


def run_pass(wl: Workload, csv_path, truth: dict, windows: tuple, grid, clock: StageClock,
             min_seconds: float = 0.0) -> PassOutput:
    """One pipeline pass, timed stage by stage on clock: set up from the CSV,
    score the panel at the workload's parameters, fit each window, filter +
    smooth the panel, impute on the grid. Fit window i is timed as
    fit_s/<i>."""
    data, layout, compiled = clock.run("setup_s", lambda: setup(wl.spec, csv_path), min_seconds)
    params = truth_vector(layout, truth)
    kernel_loglik = clock.run("loglik_s", lambda: _kernels.loglik_from_compiled(compiled, params), min_seconds)
    subpanels = fit_windows(data, windows)
    options = fitting.FitOptions(seed=0)
    fit_results = [
        clock.run(f"fit_s/{i}", lambda: fitting.fit(wl.spec, sub, options)) for i, sub in enumerate(subpanels)
    ]

    def filter_and_smooth():
        run = kalman.filter(wl.spec, layout, params, data, compiled=compiled)
        return run, kalman.smooth(run)

    run, paths = clock.run("smooth_s", filter_and_smooth, min_seconds)
    table = clock.run("impute_s", lambda: imputation.impute(params, wl.spec, data, grid), min_seconds)
    return PassOutput(data, layout, subpanels, fit_results, kernel_loglik, run, paths, table)


def indefinite_rows(covs: np.ndarray) -> int:
    """Rows whose covariance has min eigenvalue < -PSD_TOL * max |eigenvalue|."""
    eig = np.linalg.eigvalsh(covs)
    scale = np.max(np.abs(eig), axis=1)
    return int(np.sum(eig[:, 0] < -PSD_TOL * scale))


def expected_grid_points(mesh_years: float) -> int:
    start, end = GRID_SPAN_MYA
    return math.floor((start - end) * 1e6 / mesh_years)


def _loglik_matches(name: str, kernel_ll: float, filter_ll: float) -> tuple:
    return (name, bool(abs(kernel_ll - filter_ll) <= LOGLIK_RTOL * abs(filter_ll)),
            f"kernel={kernel_ll!r} filter={filter_ll!r}")


def check_pass(wl: Workload, out: PassOutput, truth: dict, mesh_years: float, refs: dict) -> list:
    """(name, ok, detail) for every check on one pass; none is skipped.

    refs caches, by window index, the window's compiled model and its loglik
    at the workload's parameters; every pass fits the same windows. The
    package calls here are made outside the timed stages.
    """
    checks = []
    for i, (sub, res) in enumerate(zip(out.windows, out.fit_results)):
        checks.append((f"fit[{i}].converged", bool(res.converged), f"notes={list(res.notes)}"))
        if i not in refs:
            cm = kalman.compile_model(wl.spec, res.layout, sub)
            refs[i] = cm, _kernels.loglik_from_compiled(cm, truth_vector(res.layout, truth))
        cm, ll_truth = refs[i]
        # the optimum cannot score below the parameters that drew the data
        checks.append(
            (f"fit[{i}].loglik_at_least_truth", res.loglik >= ll_truth - LOGLIK_RTOL * abs(ll_truth),
             f"loglik={res.loglik!r} truth={ll_truth!r}")
        )
        kernel_ll = _kernels.loglik_from_compiled(cm, res.params_hat)
        filter_ll = kalman.filter(wl.spec, res.layout, res.params_hat, sub, compiled=cm).loglik
        checks.append(_loglik_matches(f"fit[{i}].kernel_loglik_matches_filter", kernel_ll, filter_ll))
    checks.append(_loglik_matches("kernel_loglik_matches_filter", out.kernel_loglik, out.run.loglik))
    n_indef = indefinite_rows(out.paths.smoothed_covs)
    checks.append(("smooth.psd_rows", n_indef == 0, f"indefinite_rows={n_indef}"))
    n_grid = out.table.n_rows
    finite = bool(np.all(np.isfinite(out.table.means)) and np.all(np.isfinite(out.table.sds)))
    checks.append(
        ("impute.grid_points", n_grid == expected_grid_points(mesh_years) and finite,
         f"points={n_grid} finite={finite}")
    )
    return checks


def measure(wl: Workload, csv_path, scale: Scale, truth: dict, windows: tuple, seconds: float) -> tuple:
    """Untraced run: whole passes until the next one would end after
    `seconds` (at least one). Returns (end-to-end metrics, checks, samples).

    Each time metric is the median of its stage's samples at the reference
    speed (see StageClock), and fit_s the median over the windows of each
    window's median fit: a few windows take far more optimizer evals than
    the rest.
    """
    grid = imputation.make_grid(*GRID_SPAN_MYA, scale.mesh_years)
    clock = StageClock()
    checks = []
    refs: dict = {}
    fit_evals = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        out = run_pass(wl, csv_path, truth, windows, grid, clock, STAGE_MIN_SECONDS)
        checks += check_pass(wl, out, truth, scale.mesh_years, refs)
        fit_evals.append([res.n_evals for res in out.fit_results])
        del out  # as in StageClock.run: one pass's outputs alive at a time
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - started + longest > seconds:
            break
    scaled = clock.scaled
    metrics = {name: statistics.median(v) for name, v in scaled.items() if "/" not in name}
    metrics["fit_s"] = statistics.median(
        statistics.median(v) for name, v in scaled.items() if name.startswith("fit_s/")
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"raw_s": clock.samples, "reference_speed_s": scaled, "probe_s": clock.probes}
    return metrics, checks, {**samples, "fit_n_evals": fit_evals}


def measure_traced(wl: Workload, csv_path, scale: Scale, truth: dict, windows: tuple, workdir) -> tuple:
    """Traced run: one pass and the two CSV writers, all under spans.
    Returns (per-layer metrics, checks, tracer)."""
    with Tracer() as tracer:
        layers.instrument(tracer)
        grid = imputation.make_grid(*GRID_SPAN_MYA, scale.mesh_years)
        clock = StageClock(tracer)
        out = run_pass(wl, csv_path, truth, windows, grid, clock)
        files = {
            "kalman.write_state_paths_csv": workdir / "states.csv",
            "imputation.write_impute_csv": workdir / "grid.csv",
        }
        kalman.write_state_paths_csv(out.paths, wl.spec, files["kalman.write_state_paths_csv"])
        imputation.write_impute_csv(out.table, files["imputation.write_impute_csv"])
    written = {name: path.stat().st_size for name, path in files.items()}

    checks = check_pass(wl, out, truth, scale.mesh_years, {})
    # the trace's counts against the program's own
    evals = layers.fit_eval_counts(tracer)
    outside_hessian = sum(evals.values()) - evals["fitting.numerical_hessian"]
    n_evals = sum(res.n_evals for res in out.fit_results)
    checks.append(
        ("trace.fit_evals_match_n_evals", outside_hessian == n_evals,
         f"traced={outside_hessian} n_evals={n_evals}")
    )
    expected = sum(2 * res.n_params ** 2 + 1 for res in out.fit_results)
    checks.append(
        ("trace.hessian_evals", evals["fitting.numerical_hessian"] == expected,
         f"traced={evals['fitting.numerical_hessian']} expected={expected}")
    )
    indefinite = indefinite_rows(out.paths.smoothed_covs)
    pass_s = sum(sum(v) for v in clock.samples.values())
    metrics = layers.layer_metrics(tracer, out, indefinite, written, pass_s)
    return metrics, checks, tracer
