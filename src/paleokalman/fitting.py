"""Maximum-likelihood estimation: transforms, optimizer driver, SEs, BIC.

Variances are optimized as log-variances and correlations through atanh, so
the optimizer works on an unconstrained vector theta. The objective is the
per-slot average exact-diffuse negative loglik (_kernels.loglik_from_compiled);
averaging keeps the tolerances meaningful across sample sizes. Its gradient
is exact: kalman.score's numbers (Fisher's identity over one forward pass
in paths mode and the smoother's backward pass), mapped to theta by the
chain rule. A BFGS evaluation takes the value and the score from one
kernel call, so it runs one forward pass and the backward pass; a
value-only evaluation (a curvature probe or a Hessian point) runs the
forward pass without paths. Parameter points where the filter degenerates
get a large finite penalty.

fit runs BFGS on that gradient once from each start. Each BFGS run
starts from a diagonal inverse Hessian, the inverse of the objective's
central second differences along each coordinate at its start point (2d
value-only probes with the standard-error Hessian's step), not the
identity: the per-slot average objective curves far less than 1 per
log-variance unit, so identity steps would be much too short (Nocedal &
Wright, Numerical Optimization, 2nd ed., sec. 6.1). A coordinate whose
second difference is not finite and positive, or whose probe scores the
penalty, keeps 1. A start is converged when the run ends below the
penalty and the gradient infinity-norm at its end is below 1e-4: a run
that stops on the penalty has a zero gradient, not a small one. A start
that does not converge ends at the best point scored so far; a correlation
on the boundary |rho| = 1, where the likelihood has no interior optimum,
is such a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .core import MAX_SLOTS, PanelDataset
from .kalman import CompiledModel, compile_model
from .modelspec import ModelSpec, ParameterLayout, build_layout

__all__ = [
    "InitializationError",
    "ParamTransform",
    "FitOptions",
    "FitResult",
    "fit",
    "bic",
    "numerical_hessian",
    "covariance_from_hessian",
    "default_start",
]

_PENALTY = 1e12
_HESS_STEP = 1e-4
_GRAD_TOL = 1e-4
_BFGS_GTOL = 1e-7  # BFGS's own stop, tighter than _GRAD_TOL
_RHO_EDGE = 1.0 - 1e-6  # a fitted |rho| at or above this is on the boundary


class InitializationError(RuntimeError):
    """The objective is not finite at the starting point."""


class _BudgetExhausted(Exception):
    pass


# ---------------------------------------------------------------------------
# parameter transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamTransform:
    """Bijection between unconstrained theta and natural-scale params.

    Variances map through exp/log, correlations through tanh/atanh.
    is_corr marks the correlations; it is derived from roles once.
    """

    roles: tuple
    is_corr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        is_corr = np.array([r == "rho" for r in self.roles], dtype=bool)
        object.__setattr__(self, "is_corr", is_corr)

    @classmethod
    def for_layout(cls, layout: ParameterLayout) -> "ParamTransform":
        return cls(roles=tuple(p.role for p in layout.params))

    def to_natural(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        out = np.empty_like(theta)
        corr = self.is_corr
        with np.errstate(over="ignore"):
            out[~corr] = np.exp(theta[~corr])
        out[corr] = np.tanh(theta[corr])
        return out

    def to_unconstrained(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        out = np.empty_like(params)
        corr = self.is_corr
        out[~corr] = np.log(params[~corr])
        out[corr] = np.arctanh(params[corr])
        return out

    def natural_jacobian_diag(self, theta) -> np.ndarray:
        """d(natural)/d(theta), used by the delta method."""
        theta = np.asarray(theta, dtype=float)
        out = np.empty_like(theta)
        corr = self.is_corr
        out[~corr] = np.exp(theta[~corr])
        out[corr] = 1.0 - np.tanh(theta[corr]) ** 2
        return out


# ---------------------------------------------------------------------------
# objective plumbing
# ---------------------------------------------------------------------------


class _Objective:
    """Negative loglik over theta with eval counting and best tracking.

    With scale < 1 the objective is the per-slot average negative loglik,
    which keeps the optimizer tolerances meaningful across sample sizes.
    The penalty for inadmissible points is returned unscaled. Each counted
    evaluation is one kernel call (_kernels.loglik_from_compiled), one
    forward pass; asked for the score too, the same call adds the
    smoother's backward pass. The value, the natural parameters and the
    score (None if not asked for) of the last call are kept: value and
    value_and_grad map each theta to the natural scale once, and at the
    theta of the last call (BFGS starting where fit or _polish scored its
    start point with its score) neither runs nor counts a second pass.
    """

    def __init__(
        self, cm: CompiledModel, transform: ParamTransform, budget=None, scale=1.0
    ):
        self.cm = cm
        self.transform = transform
        self.budget = budget
        self.scale = float(scale)
        self.n_evals = 0
        self.best_f = np.inf
        self.best_x = None
        # (theta's bytes, value, natural params, score or None) of the last call
        self._last = None

    def __call__(self, theta, with_score=False) -> float:
        """The value at theta, from one counted kernel call; with_score
        has that call keep d loglik / d params for value_and_grad."""
        if self.budget is not None and self.n_evals >= self.budget:
            raise _BudgetExhausted()
        self.n_evals += 1
        theta = np.array(theta, dtype=float)
        params = self.transform.to_natural(theta)
        if not np.all(np.isfinite(params)):
            self._last = theta.tobytes(), _PENALTY, params, None
            return _PENALTY
        # a variance at or near zero makes the filter raise ConditioningError,
        # which the kernel returns as NaN: the penalty
        score = np.empty(params.size) if with_score else None
        ll = _kernels.loglik_from_compiled(self.cm, params, score)
        f = -ll * self.scale if np.isfinite(ll) else _PENALTY
        self._last = theta.tobytes(), f, params, score
        if f < self.best_f:
            self.best_f = f
            self.best_x = theta
        return f

    def value(self, theta, with_score=False) -> float:
        """The value at theta, taken from the last call when it was at theta,
        else scored (with its score if with_score)."""
        theta = np.asarray(theta, dtype=float)
        if self._last is None or self._last[0] != theta.tobytes():
            return self(theta, with_score)
        return self._last[1]

    def diagonal_curvature(self, theta) -> np.ndarray:
        """The objective's central second difference along each coordinate
        at theta, from the value there (scored with its score only if it is
        not the last call's) and 2d value-only probes; 1 where that is not
        finite and positive or a probe scores the penalty. The value and
        score at theta stay the cached ones, so BFGS starting there does
        not score it again."""
        theta = np.asarray(theta, dtype=float)
        f0 = self.value(theta, with_score=True)
        start = self._last
        c, worst = _second_differences(self, theta, f0)
        self._last = start
        usable = np.isfinite(c) & (c > 0.0) & (worst < _PENALTY)
        return np.where(usable, c, 1.0)

    def value_and_grad(self, theta) -> tuple:
        """(value, gradient) at theta from one counted kernel call, or none
        at the last call's theta: the value as a call returns it, the
        gradient -score * d(natural)/d(theta) * scale. A point that is
        inadmissible, or where the score is not finite, gives the penalty
        and a zero gradient."""
        theta = np.asarray(theta, dtype=float)
        self.value(theta, with_score=True)
        _, f, params, score = self._last
        if f < _PENALTY:
            if score is None:
                # the last call scored theta without its score, as only a
                # direct caller does: a kernel call that n_evals does not count
                score = np.empty(params.size)
                _kernels.loglik_from_compiled(self.cm, params, score)
            with np.errstate(over="ignore", invalid="ignore"):
                g = -score * self.transform.natural_jacobian_diag(theta) * self.scale
            if np.all(np.isfinite(g)):
                return f, g
        return _PENALTY, np.zeros(len(theta))


def _second_differences(f, x, f0) -> tuple:
    """(c, worst): c[i] is f's central second difference along coordinate i
    at x, where f0 = f(x), with step 1e-4*(1+|x_i|), and worst[i] the larger
    of its two probes. The probes run in coordinate order, + before -."""
    h = _HESS_STEP * (1.0 + np.abs(x))
    c = np.empty(x.size)
    worst = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        fp = f(xp)
        fm = f(xm)
        c[i] = (fp - 2.0 * f0 + fm) / (h[i] * h[i])
        worst[i] = max(fp, fm)
    return c, worst


def numerical_hessian(f, x) -> np.ndarray:
    """Central-difference Hessian with per-coordinate step 1e-4*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    d = x.size
    h = _HESS_STEP * (1.0 + np.abs(x))
    H = np.empty((d, d))
    f0 = f(x)
    np.fill_diagonal(H, _second_differences(f, x, f0)[0])
    for i in range(d):
        for j in range(i + 1, d):
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[i] += h[i]
            xpp[j] += h[j]
            xpm[i] += h[i]
            xpm[j] -= h[j]
            xmp[i] -= h[i]
            xmp[j] += h[j]
            xmm[i] -= h[i]
            xmm[j] -= h[j]
            H[i, j] = H[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (
                4.0 * h[i] * h[j]
            )
    return H


def covariance_from_hessian(H) -> tuple:
    """Invert an observed-information matrix, isolating flat directions.

    Returns (cov, ok) where ok marks coordinates whose variance is usable.
    Eigendirections with non-positive (or numerically zero) eigenvalues are
    dropped; coordinates loading on them are marked not-ok, so a duplicated
    parameter poisons only itself rather than the whole vector.
    """
    H = 0.5 * (np.asarray(H, dtype=float) + np.asarray(H, dtype=float).T)
    d = H.shape[0]
    try:
        vals, vecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError:
        return np.full((d, d), np.nan), np.zeros(d, dtype=bool)
    scale = np.max(np.abs(vals)) if np.max(np.abs(vals)) > 0 else 1.0
    good = vals > scale * 1e-10
    cov = (vecs[:, good] / vals[good]) @ vecs[:, good].T
    flat = ~good
    ok = np.ones(d, dtype=bool)
    if np.any(flat):
        loading = np.max(np.abs(vecs[:, flat]), axis=1)
        ok &= loading < 1e-8
    ok &= np.diag(cov) > 0
    return cov, ok


# ---------------------------------------------------------------------------
# starting values
# ---------------------------------------------------------------------------


def default_start(layout: ParameterLayout, cm: CompiledModel) -> np.ndarray:
    """Scale-aware starting values on the natural scale.

    Measurement variance: half the sample variance of within-row slot
    differences of the series (two slots of one row differ only through
    measurement noise); falls back to half the total sample variance.
    Trend variance: total sample variance divided by the observed time
    span. Correlations start at zero.
    """
    spec = cm.spec
    eps_start = {}
    eta_start = {}
    y = np.array(cm.y)
    for j, sr in enumerate(spec.series):
        on = cm.obs_col // MAX_SLOTS == j
        vals, rows = y[on], cm.obs_row[on]
        total_var = float(np.var(vals, ddof=1)) if vals.size >= 2 else 1.0
        diffs = _within_row_differences(vals, rows)
        if diffs.size >= 2:
            eps = 0.5 * float(np.var(diffs, ddof=1))
        else:
            eps = 0.5 * total_var
        if rows.size:
            span = float(cm.stamps[rows[-1]] - cm.stamps[rows[0]])
        else:
            span = 1.0
        eta = total_var / span if span > 0 else total_var
        eps_start[sr] = eps if math.isfinite(eps) and eps > 0 else 1e-4
        eta_start[sr] = eta if math.isfinite(eta) and eta > 0 else 1e-4

    start = np.empty(layout.n_params)
    for i, info in enumerate(layout.params):
        if info.role == "sigma_eps2":
            start[i] = eps_start[info.series]
        elif info.role == "sigma_eta2":
            start[i] = eta_start[info.series]
        else:
            start[i] = 0.0
    return start


def _within_row_differences(vals: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # a - b for every pair (a, b) of two slots of one row, in
    # itertools.combinations order per row, rows in order: slot o pairs with
    # each later slot of its row, o ascending
    o = np.arange(rows.size)
    last = np.r_[np.flatnonzero(np.diff(rows)), rows.size - 1]  # each row's last slot
    later = last[np.searchsorted(last, o)] - o  # later slots of o's row
    first = np.repeat(o, later)
    starts = np.cumsum(later) - later
    second = first + 1 + np.arange(first.size) - np.repeat(starts, later)
    return vals[first] - vals[second]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """Estimates on the natural scale plus fit diagnostics.

    iterations counts the BFGS iterations over every start. n_evals counts
    the objective's evaluations outside the standard-error Hessian: the
    start point, the 2d curvature probes before each BFGS run, and every
    point BFGS scored, each one kernel call and one forward pass unless
    the point maps to a non-finite parameter. A BFGS run's start point is
    scored once, with its score, before its probes, or not at all when it
    is the point scored just before (the first start, which fit scores to
    check it); BFGS takes that value and score and does not count them
    again. A BFGS evaluation's call also runs the smoother's backward pass
    for the score, from the same forward pass; n_evals counts the call
    once, so the score adds no count.
    """

    spec: ModelSpec
    param_names: tuple
    param_groups: tuple
    params_hat: np.ndarray
    std_errors: np.ndarray
    loglik: float
    bic: float
    n_obs: int
    n_params: int
    converged: bool
    iterations: int
    theta_hat: np.ndarray | None = None
    layout: ParameterLayout | None = None
    n_evals: int = 0
    notes: tuple = ()

    def to_json_dict(self) -> dict:
        params = []
        for name, group, est, se in zip(
            self.param_names, self.param_groups, self.params_hat, self.std_errors
        ):
            params.append(
                {
                    "name": name,
                    "group": group,
                    "estimate": float(est),
                    "se": None if not np.isfinite(se) else float(se),
                }
            )
        return {
            "model": self.spec.to_json(),
            "params": params,
            "loglik": float(self.loglik),
            "bic": float(self.bic),
            "n_obs": int(self.n_obs),
            "n_params": int(self.n_params),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FitResult":
        spec = ModelSpec.from_json(d["model"])
        names = tuple(p["name"] for p in d["params"])
        groups = tuple(p["group"] for p in d["params"])
        est = np.array([p["estimate"] for p in d["params"]], dtype=float)
        se = np.array(
            [np.nan if p.get("se") is None else p["se"] for p in d["params"]],
            dtype=float,
        )
        return cls(
            spec=spec,
            param_names=names,
            param_groups=groups,
            params_hat=est,
            std_errors=se,
            loglik=float(d["loglik"]),
            bic=float(d["bic"]),
            n_obs=int(d["n_obs"]),
            n_params=int(d["n_params"]),
            converged=bool(d["converged"]),
            iterations=int(d["iterations"]),
        )


def _fit_matches(fit: FitResult, layout: ParameterLayout) -> bool:
    """Whether fit's estimates belong to layout: the same spec, and the same
    parameter names and groups in vector order. Names alone carry no group,
    so a by-source fit on sources A/B would pass on data with sources C/D."""
    params = tuple(layout.names()), tuple(p.group for p in layout.params)
    return fit.spec == layout.spec and (tuple(fit.param_names), tuple(fit.param_groups)) == params


@dataclass
class FitOptions:
    """Knobs for fit(): n_starts (at least 1) starts in all, the first at
    start (or default_start) and the rest jittered from it by seed;
    eval_budget caps n_evals. A fit runs the Hessian for the standard
    errors unless the budget ran out."""

    n_starts: int = 1
    seed: int = 0
    start: object = None  # natural-scale start vector, or None for defaults
    eval_budget: int | None = None


def bic(loglik: float, n_params: int, n_obs: int) -> float:
    """Bayes information criterion, -2*loglik + n_params*ln(n_obs)."""
    if n_obs < 1:
        raise ValueError(f"n_obs must be >= 1, got {n_obs}")
    return -2.0 * float(loglik) + n_params * math.log(n_obs)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def _polish(obj, theta) -> tuple:
    """One BFGS run on the exact gradient from theta, its inverse Hessian
    starting at the inverse of obj's diagonal curvature there; returns
    (theta, f, converged, iterations), converged when the run ends below
    the penalty with the gradient's infinity-norm below _GRAD_TOL."""
    from scipy import optimize  # most of the package's import time; only a fit needs it

    hess_inv0 = np.diag(1.0 / obj.diagonal_curvature(theta))
    res = optimize.minimize(
        obj.value_and_grad,
        theta,
        jac=True,
        method="BFGS",
        options={
            "gtol": _BFGS_GTOL,
            "maxiter": 100 * max(1, len(theta)),
            "hess_inv0": hess_inv0,
        },
    )
    # a run that stopped on the penalty has a zero gradient, not a small one
    converged = res.fun < _PENALTY and float(np.max(np.abs(res.jac))) < _GRAD_TOL
    return np.asarray(res.x, dtype=float), float(res.fun), converged, int(res.nit)


def fit(
    spec: ModelSpec,
    data: PanelDataset,
    options: FitOptions | None = None,
) -> FitResult:
    """Maximize the exact-diffuse loglik over the layout's parameters.

    Deterministic given (data, spec, options.seed, options.start). On an
    optimizer stall the best point found is returned with converged False;
    a non-finite loglik at the starting point raises InitializationError,
    and a start where the loglik is finite but its score is not gets a note,
    since BFGS takes no step from it. Each correlation that ends within
    1e-6 of +-1 gets a note and no SE. n_starts below 1 is a ValueError.
    """
    options = options or FitOptions()
    if not options.n_starts >= 1:
        raise ValueError(f"n_starts must be at least 1, got {options.n_starts}")
    layout = build_layout(spec, data)
    if layout.n_params == 0:
        raise InitializationError("the layout has no parameters to estimate")
    cm = compile_model(spec, layout, data)
    transform = ParamTransform.for_layout(layout)

    if options.start is not None:
        start_nat = layout.validate_params(options.start)
    else:
        start_nat = default_start(layout, cm)
    theta0 = transform.to_unconstrained(start_nat)

    n_scale = max(1, cm.n_obs_slots)
    obj = _Objective(cm, transform, budget=options.eval_budget, scale=1.0 / n_scale)
    dim = layout.n_params
    try:
        f0 = obj(theta0, with_score=True)  # BFGS's first evaluation takes both
    except _BudgetExhausted:
        raise InitializationError("evaluation budget exhausted before the first point")
    if f0 >= _PENALTY:
        raise InitializationError(
            "loglik is not finite at the starting point; check the data and spec"
        )

    rng = np.random.default_rng(options.seed)
    starts = [theta0]
    for _ in range(options.n_starts - 1):
        starts.append(theta0 + rng.normal(0.0, 0.5, size=dim))

    best_x = theta0
    best_f = f0
    best_converged = False
    iterations = 0
    budget_hit = False
    notes = []
    for i, th in enumerate(starts):
        try:
            x, f, conv, nit = _polish(obj, th)
            iterations += nit
            # a run that took no step and ends on the penalty scored only
            # th, whose value is then the last call's: no pass
            if nit == 0 and f >= _PENALTY > obj.value(th):
                notes.append(
                    f"the score is not finite at start {i + 1}, so BFGS took no step from it"
                )
            if not conv and obj.best_f < f:
                # a run that stalls, or stops on the penalty, can end above
                # points it scored before
                x, f = obj.best_x, obj.best_f
        except _BudgetExhausted:
            budget_hit = True
            x, f, conv = obj.best_x, obj.best_f, False  # fit scored theta0 first
        if f < best_f:
            best_f = f
            best_x = x
            best_converged = conv
        elif f == best_f and not best_converged:
            best_converged = conv
        if budget_hit:
            break

    theta_hat = np.asarray(best_x, dtype=float)
    params_hat = transform.to_natural(theta_hat)
    loglik = -best_f * n_scale

    if budget_hit:
        notes.append("evaluation budget exhausted; returning best point seen")
        best_converged = False

    se_nat = np.full(dim, np.nan)
    if not budget_hit:
        se_nat, ok = _delta_method_errors(cm, transform, theta_hat)
        if not ok.all():
            notes.append("singular Hessian: some standard errors are missing")
    for i in np.flatnonzero(transform.is_corr & (np.abs(params_hat) >= _RHO_EDGE)):
        se_nat[i] = np.nan  # a delta-method SE means nothing on the boundary
        info = layout.params[i]
        notes.append(
            f"{info.name} (group {info.group}) = {float(params_hat[i])!r}: the "
            "correlation is at the boundary |rho| = 1, so no optimum lies inside (-1, 1)"
        )

    n_obs = cm.n_obs_slots
    return FitResult(
        spec=spec,
        param_names=tuple(layout.names()),
        param_groups=tuple(p.group for p in layout.params),
        params_hat=params_hat,
        std_errors=se_nat,
        loglik=float(loglik),
        bic=bic(loglik, dim, n_obs),
        n_obs=n_obs,
        n_params=dim,
        converged=bool(best_converged),
        iterations=int(iterations),
        theta_hat=theta_hat,
        layout=layout,
        n_evals=obj.n_evals,
        notes=tuple(notes),
    )


def _delta_method_errors(cm: CompiledModel, transform: ParamTransform, theta_hat):
    """(natural-scale SEs, ok) at theta_hat: the central-difference Hessian
    of -loglik, inverted by covariance_from_hessian, then delta-method
    mapped, SE(sigma^2) = sigma^2 * SE(theta) and SE(rho) = (1 - rho^2) *
    SE(theta). SEs are NaN where ok is False."""
    H = numerical_hessian(_Objective(cm, transform, budget=None), theta_hat)
    cov, ok = covariance_from_hessian(H)
    se_theta = np.full(theta_hat.size, np.nan)
    se_theta[ok] = np.sqrt(np.diag(cov)[ok])
    return np.abs(transform.natural_jacobian_diag(theta_hat) * se_theta), ok
