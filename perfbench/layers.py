"""Which package entry points the traced run wraps, and the per-layer
metrics computed from the spans they record."""

from __future__ import annotations

import importlib
import math

import numpy as np
import scipy.optimize

from paleokalman import _kernels, fitting, imputation, kalman, modelspec

# `paleokalman.ingest` is the function; this is the module it lives in
ingest_mod = importlib.import_module("paleokalman.ingest")

_MINIMIZE_SPANS = {"Nelder-Mead": "fitting.nelder_mead", "BFGS": "fitting.bfgs"}


def _minimize_name(args, kwargs) -> str:
    return _MINIMIZE_SPANS.get(kwargs.get("method"), "fitting.minimize")


def _note_nan(span, args, result) -> None:
    span.attrs["nan"] = not math.isfinite(result)


def _note_merged_rows(span, args, result) -> None:
    span.attrs["merged_rows"] = result[0].n_rows


def instrument(tracer) -> None:
    """Wrap every traced entry point, including the aliases other modules
    of the package call it by (fitting.build_layout, imputation.build_layout,
    fitting.compile_model)."""
    patches = [
        (ingest_mod, "ingest", "ingest.ingest", None),
        (ingest_mod, "parse_csv", "ingest.parse_csv", None),
        (ingest_mod, "build_dataset", "ingest.build_dataset", None),
        (modelspec, "build_layout", "modelspec.build_layout", None),
        (fitting, "build_layout", "modelspec.build_layout", None),
        (imputation, "build_layout", "modelspec.build_layout", None),
        (kalman, "compile_model", "kalman.compile_model", None),
        (fitting, "compile_model", "kalman.compile_model", None),
        (_kernels, "loglik_from_compiled", "kernels.loglik", _note_nan),
        (fitting, "fit", "fitting.fit", None),
        (scipy.optimize, "minimize", _minimize_name, None),
        (fitting, "numerical_hessian", "fitting.numerical_hessian", None),
        (kalman, "filter", "kalman.filter", None),
        (kalman, "smooth", "kalman.smooth", None),
        (imputation, "impute", "imputation.impute", None),
        (imputation, "merge_grid", "imputation.merge_grid", _note_merged_rows),
        (kalman, "write_state_paths_csv", "kalman.write_state_paths_csv", None),
        (imputation, "write_impute_csv", "imputation.write_impute_csv", None),
    ]
    for owner, attr, name, annotate in patches:
        tracer.patch(owner, attr, name, annotate)


PER_LAYER_UNITS = {
    "ingest.parse_csv_s": "s",
    "ingest.build_dataset_s": "s",
    "ingest.rows": "count",
    "ingest.values": "count",
    "modelspec.build_layout_s": "s",
    "modelspec.n_params": "count",
    "kalman.compile_model_s": "s",
    "kernels.loglik_calls": "count",
    "kernels.loglik_s": "s",
    "kernels.loglik_ms_per_call": "ms",
    "kernels.nan_returns": "count",
    "kernels.state_dim": "count",
    "fitting.nelder_mead_evals": "count",
    "fitting.nelder_mead_s": "s",
    "fitting.bfgs_evals": "count",
    "fitting.bfgs_s": "s",
    "fitting.hessian_evals": "count",
    "fitting.hessian_s": "s",
    "fitting.other_evals": "count",
    "fitting.iterations": "count",
    "fitting.plumbing_s": "s",
    "fit_loglik": "nat",
    "kalman.filter_calls": "count",
    "kalman.filter_s": "s",
    "kalman.smooth_s": "s",
    "kalman.slots_per_pass": "count",
    "kalman.diffuse_slots": "count",
    "kalman.negative_level_var_rows": "count",
    "indefinite_rows": "count",
    "imputation.merge_grid_s": "s",
    "imputation.grid_points": "count",
    "imputation.merged_rows": "count",
    "kalman.write_state_paths_csv_s": "s",
    "kalman.write_state_paths_csv_bytes": "bytes",
    "imputation.write_impute_csv_s": "s",
    "imputation.write_impute_csv_bytes": "bytes",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def fit_eval_counts(tracer) -> dict:
    """Kernel calls inside fit, split by the fitting stage they ran under."""
    kernel = tracer.named("kernels.loglik", under="fitting.fit")
    stages = ("fitting.nelder_mead", "fitting.bfgs", "fitting.numerical_hessian")
    counts = {s: sum(tracer.has_ancestor(k, s) for k in kernel) for s in stages}
    counts["other"] = len(kernel) - sum(counts.values())
    return counts


def layer_metrics(tracer, out, indefinite: int, written: dict, pass_s: float) -> dict:
    """Per-layer values from one traced pass; `out` is its PassOutput,
    `written` maps writer span names to the bytes each wrote and pass_s is
    the pass's traced wall time. Fit counts and logliks are summed over the
    pass's fit windows."""
    kernel = tracer.named("kernels.loglik")
    kernel_s = sum(s.duration for s in kernel)
    evals = fit_eval_counts(tracer)
    fit_s = tracer.total("fitting.fit")
    data, results = out.data, out.fit_results
    m = out.layout.spec.order_m
    level_vars = out.paths.smoothed_covs[:, ::m, ::m].diagonal(axis1=1, axis2=2)
    values = {
        "ingest.parse_csv_s": tracer.total("ingest.parse_csv"),
        "ingest.build_dataset_s": tracer.total("ingest.build_dataset"),
        "ingest.rows": data.n_rows,
        "ingest.values": data.n_observed_slots(),
        "modelspec.build_layout_s": tracer.total("modelspec.build_layout"),
        "modelspec.n_params": out.layout.n_params,
        "kalman.compile_model_s": tracer.total("kalman.compile_model"),
        "kernels.loglik_calls": len(kernel),
        "kernels.loglik_s": kernel_s,
        "kernels.loglik_ms_per_call": 1e3 * kernel_s / len(kernel) if kernel else 0.0,
        "kernels.nan_returns": sum(s.attrs["nan"] for s in kernel),
        "kernels.state_dim": out.run.compiled.s,
        "fitting.nelder_mead_evals": evals["fitting.nelder_mead"],
        "fitting.nelder_mead_s": tracer.total("fitting.nelder_mead"),
        "fitting.bfgs_evals": evals["fitting.bfgs"],
        "fitting.bfgs_s": tracer.total("fitting.bfgs"),
        "fitting.hessian_evals": evals["fitting.numerical_hessian"],
        "fitting.hessian_s": tracer.total("fitting.numerical_hessian"),
        "fitting.other_evals": evals["other"],
        "fitting.iterations": sum(res.iterations for res in results),
        "fitting.plumbing_s": fit_s - sum(s.duration for s in tracer.named("kernels.loglik", under="fitting.fit")),
        "fit_loglik": sum(res.loglik for res in results),
        "kalman.filter_calls": len(tracer.named("kalman.filter")),
        "kalman.filter_s": tracer.total("kalman.filter"),
        "kalman.smooth_s": tracer.total("kalman.smooth"),
        "kalman.slots_per_pass": int(np.count_nonzero(~np.isnan(out.paths.innovations))),
        "kalman.diffuse_slots": out.run.n_diffuse_slots,
        "kalman.negative_level_var_rows": int(np.sum(np.any(level_vars < 0.0, axis=1))),
        "indefinite_rows": indefinite,
        "imputation.merge_grid_s": tracer.total("imputation.merge_grid"),
        "imputation.grid_points": out.table.n_rows,
        "imputation.merged_rows": sum(s.attrs["merged_rows"] for s in tracer.named("imputation.merge_grid")),
        "kalman.write_state_paths_csv_s": tracer.total("kalman.write_state_paths_csv"),
        "kalman.write_state_paths_csv_bytes": written["kalman.write_state_paths_csv"],
        "imputation.write_impute_csv_s": tracer.total("imputation.write_impute_csv"),
        "imputation.write_impute_csv_bytes": written["imputation.write_impute_csv"],
        "trace.pass_s": pass_s,
        "trace.overhead_s": tracer.overhead_s,
        "trace.spans": len(tracer.spans),
    }
    assert values.keys() == PER_LAYER_UNITS.keys()
    return values
