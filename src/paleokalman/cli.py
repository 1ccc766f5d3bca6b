"""Command-line front end: fit, smooth, impute, gain.

Every command is deterministic given its flags (and seed); rerunning a
command overwrites its outputs byte-identically. Output CSVs carry a
leading comment line with the tool version and the exact invocation; the
fit JSON carries the same information under a "meta" key.

Exit codes: 0 success, 2 fit did not converge (best effort written),
3 no finite cutoff frequency, 64 usage error, 65 data/parse error (or a
malformed fit file, or a filter that fails on the fitted estimates),
66 fit/data mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from . import kalman
from .butterworth import (
    cutoff_frequency,
    gain_curve,
    half_gain_frequency,
    mean_increment,
    signal_to_noise,
    write_gain_csv,
)
from .fitting import FitOptions, FitResult, InitializationError, _fit_matches, fit as run_fit
from .imputation import GridTooLargeError, impute, make_grid, write_impute_csv
from .ingest import ParseError, SchemaError, ingest, load_species_buckets
from .modelspec import MAX_ORDER, ModelSpec, build_layout

__all__ = ["main"]

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_NO_CUTOFF = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_MISMATCH = 66

PRESETS = ("rwn", "rwn-source", "rwn-species", "rwn-climate", "biv", "biv-full", "irw")


class UsageError(Exception):
    pass


class _FitMismatch(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through UsageError so
    # main() can map it to exit 64 instead.
    def error(self, message):
        raise UsageError(message)


def _bounded(kind, accept, bound: str):
    # an argparse type: kind(text), which accept() must pass; argparse turns
    # a rejection into a usage error, before any file is read
    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


_ORDER = _bounded(int, lambda m: 1 <= m <= MAX_ORDER, f"in [1, {MAX_ORDER}]")
_AT_LEAST_ONE = _bounded(int, lambda n: n >= 1, "at least 1")
_POSITIVE_FINITE = _bounded(float, lambda x: 0.0 < x < math.inf, "a positive finite number")
_AGE_MYA = _bounded(float, lambda x: 0.0 <= x < math.inf, "a non-negative finite number")


def _invocation(argv) -> str:
    return "paleokalman " + " ".join(argv)


def _header_lines(argv) -> tuple:
    return (f"# paleokalman {__version__} -- {_invocation(argv)}",)


def _load_data(args):
    buckets = None
    if getattr(args, "species_buckets", None):
        buckets = load_species_buckets(args.species_buckets)
    return ingest(args.data, species_buckets=buckets)


def _spec_from_flags(args) -> ModelSpec:
    preset = args.model
    series = args.series
    bivariate = preset in ("biv", "biv-full")
    if bivariate:
        if series not in (None, "both"):
            raise UsageError(f"--model {preset} estimates both series; drop --series")
        arity = "bivariate"
    else:
        if series == "both":
            raise UsageError(
                f"--model {preset} is univariate; use --series d18O or d13C, "
                "or a bivariate preset"
            )
        series = series or "d18O"
        arity = "univariate-series1" if series == "d18O" else "univariate-series2"

    order = args.order
    if order is None:
        order = 2 if preset == "irw" else 1

    meas = "pooled"
    trans = "pooled"
    corr = "pooled" if bivariate else None
    if preset == "rwn-source":
        meas = "by-source"
    elif preset == "rwn-species":
        meas = "by-species"
    elif preset == "rwn-climate":
        trans = "by-climate-state"
    elif preset == "biv-full":
        meas = "by-source"
        trans = "by-climate-state"
        corr = "by-climate-state"

    if args.meas_source:
        meas = "by-source"
    if args.meas_species:
        meas = "by-species"
    if args.meas_source and args.meas_species:
        raise UsageError("--meas-source and --meas-species are mutually exclusive")
    if args.trans_climate:
        trans = "by-climate-state"
    if getattr(args, "corr_climate", False):
        if not bivariate:
            raise UsageError("--corr-climate requires a bivariate model")
        corr = "by-climate-state"

    return ModelSpec(
        arity=arity,
        order_m=order,
        meas_grouping=meas,
        trans_grouping=trans,
        corr_grouping=corr,
    )


def _print_fit_summary(result: FitResult) -> None:
    widest = max((len(n) for n in result.param_names), default=4)
    gwidest = max((len(g) for g in result.param_groups), default=5)
    print(f"{'parameter':<{widest}}  {'group':<{gwidest}}  estimate      (se)")
    for name, group, est, se in zip(
        result.param_names,
        result.param_groups,
        result.params_hat,
        result.std_errors,
    ):
        se_text = "n/a" if not np.isfinite(se) else f"{se:.6g}"
        print(f"{name:<{widest}}  {group:<{gwidest}}  {est:<12.6g}  ({se_text})")
    print(
        f"loglik {result.loglik:.4f}  BIC {result.bic:.4f}  "
        f"n_obs {result.n_obs}  n_params {result.n_params}  "
        f"converged {str(result.converged).lower()}  iterations {result.iterations}"
    )


def _load_fit(path) -> tuple:
    """(result, payload) for a fit JSON; a file that is not one, by its
    syntax or its keys, raises ValueError naming it (exit 65)."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
            return FitResult.from_json_dict(payload), payload
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"malformed fit file {path}: {type(exc).__name__}: {exc}"
            ) from None


def _load_fit_and_data(args) -> tuple:
    """(result, data, layout) for --fit and --data; raises _FitMismatch if
    the fit's layout is not the one its model gives on this data: by the
    file's layout_hash (it also covers the "model" block), else _fit_matches."""
    result, payload = _load_fit(args.fit)
    data, _diag = _load_data(args)
    layout = build_layout(result.spec, data)
    stored_hash = payload.get("layout_hash")
    if stored_hash is not None:
        matches = stored_hash == layout.hash()
    else:
        matches = _fit_matches(result, layout)
    if not matches:
        raise _FitMismatch("fit file does not match this data/model (layout differs)")
    return result, data, layout


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args, argv) -> int:
    spec = _spec_from_flags(args)
    data, diag = _load_data(args)
    options = FitOptions(
        n_starts=args.starts,
        seed=args.seed,
        eval_budget=args.eval_budget,
    )
    result = run_fit(spec, data, options)

    payload = result.to_json_dict()
    payload["layout_hash"] = result.layout.hash()
    payload["meta"] = {
        "tool": "paleokalman",
        "version": __version__,
        "invocation": _invocation(argv),
        "data_rows": data.n_rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    _print_fit_summary(result)
    for note in result.notes:
        print(f"note: {note}")
    print(f"wrote {args.out}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_smooth(args, argv) -> int:
    result, data, layout = _load_fit_and_data(args)
    spec = result.spec
    run = kalman.filter(spec, layout, result.params_hat, data)
    paths = kalman.smooth(run)
    kalman.write_state_paths_csv(paths, spec, args.out, _header_lines(argv))
    print(f"smoothed {data.n_rows} rows; loglik {run.loglik:.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_impute(args, argv) -> int:
    span_end = args.span_end if args.span_end is not None else 0.0
    if args.span_start is not None and args.span_start <= span_end:
        raise UsageError(f"--span-start {args.span_start} must be older than --span-end {span_end}")
    result, data, _layout = _load_fit_and_data(args)

    if args.span_start is not None:
        span_start = args.span_start
    else:
        span_start = float(math.floor(-data.view.stamps[0]))
    grid = make_grid(span_start, span_end, args.mesh_years)
    print(f"N_g = {len(grid)}")
    table = impute(result, result.spec, data, grid)
    write_impute_csv(table, args.out, _header_lines(argv))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gain(args, argv) -> int:
    if args.q is not None:
        q = args.q
        m = args.order or 1
    elif args.fit is not None:
        result, _payload = _load_fit(args.fit)
        m = args.order or result.spec.order_m
        etas = [
            est
            for name, est in zip(result.param_names, result.params_hat)
            if name.startswith("sigma_eta2")
        ]
        epss = [
            est
            for name, est in zip(result.param_names, result.params_hat)
            if name.startswith("sigma_eps2")
        ]
        if result.spec.n_series != 1:
            raise UsageError("the fit has two series; pass --q or refit one series")
        if len(etas) != 1 or len(epss) != 1:
            raise UsageError(
                "the fit has grouped variances; pass --q or refit a pooled model"
            )
        if args.mean_dt is not None:
            mean_dt = args.mean_dt
        elif args.data is not None:
            data, _diag = _load_data(args)
            mean_dt = mean_increment(data.view.stamps)
        else:
            raise UsageError("--fit needs --mean-dt (or --data to derive it)")
        q = signal_to_noise(etas[0], epss[0], mean_dt)
    else:
        if args.sigma_eta2 is None or args.sigma_eps2 is None or args.mean_dt is None:
            raise UsageError(
                "pass --fit, or --q, or all of --sigma-eta2 --sigma-eps2 --mean-dt"
            )
        q = signal_to_noise(args.sigma_eta2, args.sigma_eps2, args.mean_dt)
        m = args.order or 1

    print(f"q = {q:.6g}")
    if q > 4.0:
        print("no finite cutoff")
        return EXIT_NO_CUTOFF
    lam_h = cutoff_frequency(q)
    print(f"lambda_h = {lam_h:.6g}")
    print(f"lambda_h/2 = {0.5 * lam_h:.6g}")
    if q <= 2 ** (2 * m):
        print(f"half-gain lambda (order {m}) = {half_gain_frequency(q, m):.6g}")
    if args.out:
        curve = gain_curve(q, m, n_samples=args.samples)
        write_gain_csv(curve, args.out, _header_lines(argv))
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="paleokalman", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit")
    p_fit.add_argument("--data", required=True, help="ingest CSV path")
    p_fit.add_argument("--model", choices=PRESETS, default="rwn")
    p_fit.add_argument("--order", type=_ORDER, default=None, help="trend order m")
    p_fit.add_argument("--series", choices=("d18O", "d13C", "both"), default=None)
    p_fit.add_argument("--out", default="fit.json")
    p_fit.add_argument("--starts", type=_AT_LEAST_ONE, default=1, help="jittered multi-starts")
    p_fit.add_argument("--seed", type=_bounded(int, lambda n: n >= 0, "at least 0"), default=0)
    p_fit.add_argument("--eval-budget", type=_AT_LEAST_ONE, default=None, dest="eval_budget")
    p_fit.add_argument("--meas-source", action="store_true", dest="meas_source")
    p_fit.add_argument("--meas-species", action="store_true", dest="meas_species")
    p_fit.add_argument("--trans-climate", action="store_true", dest="trans_climate")
    p_fit.add_argument("--corr-climate", action="store_true", dest="corr_climate")
    p_fit.add_argument("--species-buckets", default=None, dest="species_buckets")

    p_smooth = sub.add_parser("smooth", help="smoothed states and residuals CSV")
    p_smooth.add_argument("--data", required=True)
    p_smooth.add_argument("--fit", required=True)
    p_smooth.add_argument("--out", default="states.csv")
    p_smooth.add_argument("--species-buckets", default=None, dest="species_buckets")

    p_impute = sub.add_parser("impute", help="equidistant-grid imputation CSV")
    p_impute.add_argument("--data", required=True)
    p_impute.add_argument("--fit", required=True)
    p_impute.add_argument(
        "--mesh-years", type=_bounded(float, lambda x: 0.0 < x < math.inf, "a positive number"),
        required=True, dest="mesh_years",
    )
    p_impute.add_argument("--span-start", type=_AGE_MYA, default=None, dest="span_start")
    p_impute.add_argument("--span-end", type=_AGE_MYA, default=None, dest="span_end")
    p_impute.add_argument("--out", default="grid.csv")
    p_impute.add_argument("--species-buckets", default=None, dest="species_buckets")

    p_gain = sub.add_parser("gain", help="gain curve and cutoff frequencies")
    p_gain.add_argument("--fit", default=None)
    p_gain.add_argument(
        "--q", type=_bounded(float, lambda q: q > 0, "a positive number"), default=None
    )
    p_gain.add_argument("--sigma-eta2", type=_POSITIVE_FINITE, default=None, dest="sigma_eta2")
    p_gain.add_argument("--sigma-eps2", type=_POSITIVE_FINITE, default=None, dest="sigma_eps2")
    p_gain.add_argument("--mean-dt", type=_POSITIVE_FINITE, default=None, dest="mean_dt")
    p_gain.add_argument("--data", default=None, help="derive mean dt from this CSV")
    p_gain.add_argument("--order", type=_ORDER, default=None)
    p_gain.add_argument("--out", default=None)
    p_gain.add_argument(
        "--samples", type=_bounded(int, lambda n: n >= 2, "at least 2"), default=1024
    )
    p_gain.add_argument("--species-buckets", default=None, dest="species_buckets")

    return parser


_COMMANDS = {
    "fit": cmd_fit,
    "smooth": cmd_smooth,
    "impute": cmd_impute,
    "gain": cmd_gain,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, argv)
    except (UsageError, GridTooLargeError) as exc:  # a --mesh-years too fine for the span
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, SchemaError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        # a missing, unreadable or directory path, in or out
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (InitializationError, ValueError, kalman.ConditioningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _FitMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
