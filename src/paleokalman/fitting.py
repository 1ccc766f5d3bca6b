"""Maximum-likelihood estimation: transforms, optimizer driver, SEs, BIC.

Variances are optimized as log-variances and correlations through atanh, so
the optimizer works on an unconstrained vector theta. Every model's loglik
is homogeneous in its variances: scaling each of them by c, with the
correlations fixed, gives ll(c h) = ll(h) - N* log(c) / 2 - S (1/c - 1) / 2,
where S is the sum of v^2 / F over the N* slots past the diffuse phase.
The best common scale is c* = S / N* in closed form (Harvey 1989, Forecasting,
Structural Time Series Models and the Kalman Filter, sec. 3.4; Durbin &
Koopman 2012, sec. 2.10.2). So fit holds the first measurement variance's
coordinate at its start value and searches the other d - 1, with c*
profiled out at every evaluation; the optimum of that profile, times c*, is
the full optimum.

The objective is the per-slot average of the profile negative loglik
(_Objective); averaging keeps the tolerances meaningful across sample
sizes. Each evaluation is one kernel call (_kernels.loglik_from_compiled),
which returns the loglik at h and fills an array with S and N* from the
same forward pass. The gradient is exact: kalman.score's two parts at h
(Fisher's identity over one forward pass in paths mode and the smoother's
backward pass), which give the score at c* h, mapped to theta by the chain
rule. A BFGS evaluation takes the value and the score's parts from one
kernel call, so it runs one forward pass and the backward pass; a curvature
probe or a Hessian point runs the forward pass without paths. The
objective keeps one record per point it scored, so no kernel call is made
twice. Parameter points where the filter degenerates, or whose c* is not
finite and positive, get a large finite penalty.

fit runs BFGS on that gradient once from each start. Each BFGS run
starts from a diagonal inverse Hessian, the inverse of the objective's
central second differences along each free coordinate at its start point
(2(d - 1) value-only probes with the standard-error Hessian's step), not
the identity: the per-slot average objective curves far less than 1 per
log-variance unit, so identity steps would be much too short (Nocedal &
Wright, Numerical Optimization, 2nd ed., sec. 6.1). A coordinate whose
second difference is not finite and positive, or whose probe scores the
penalty, keeps 1. A start is converged when the run ends below the
penalty and the infinity-norm of the gradient in all d coordinates at its
end (the held one's too) is below 1e-4: a run
that stops on the penalty has a zero gradient, not a small one. A start
that does not converge ends at the best point scored so far. A fit whose
correlation ends within 1e-6 of the boundary |rho| = 1, where the
likelihood has no interior optimum, is not converged whatever its
gradient. The standard errors come from the central-difference
Hessian of the full d-dimensional loglik at the optimum.
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
    is_corr marks the correlations, and has_corr says whether there are
    any; both are derived from roles once.
    """

    roles: tuple
    is_corr: np.ndarray = field(init=False, repr=False, compare=False)
    has_corr: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        is_corr = np.array([r == "rho" for r in self.roles], dtype=bool)
        object.__setattr__(self, "is_corr", is_corr)
        object.__setattr__(self, "has_corr", bool(is_corr.any()))

    @classmethod
    def for_layout(cls, layout: ParameterLayout) -> "ParamTransform":
        return cls(roles=tuple(p.role for p in layout.params))

    @np.errstate(over="ignore")  # a large theta's exp is inf; the objective scores it
    def to_natural(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if not self.has_corr:
            return np.exp(theta)
        return np.where(self.is_corr, np.tanh(theta), np.exp(theta))

    def to_unconstrained(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        out = np.empty_like(params)
        corr = self.is_corr
        out[~corr] = np.log(params[~corr])
        out[corr] = np.arctanh(params[corr])
        return out

    def natural_jacobian_diag(self, theta) -> np.ndarray:
        """d(natural)/d(theta), used by the chain rule and the delta method.
        A correlation's exp, discarded, overflows past theta = 709.78 only
        in the objective, which calls this in its own np.errstate scope."""
        theta = np.asarray(theta, dtype=float)
        if not self.has_corr:
            return np.exp(theta)
        return np.where(self.is_corr, 1.0 - np.tanh(theta) ** 2, np.exp(theta))


# ---------------------------------------------------------------------------
# objective plumbing
# ---------------------------------------------------------------------------


class _Objective:
    """The profile negative loglik over phi, the free coordinates of theta,
    with eval counting and best tracking.

    theta is theta_ref, the start's coordinate of the first measurement
    variance, then phi; h is its natural parameters. Scaling every variance
    by c, with the correlations fixed, gives ll(c h) = ll(h) - N* log(c) / 2
    - S (1/c - 1) / 2, where S and N* are the sum of v^2 / F and the number
    of slots past the diffuse phase at h. So the best scale is c* = S / N*
    (1 where N* = 0), and the profile is ll(c* h) = ll(h) - N* log(c*) / 2
    - (N* - S) / 2. With scale < 1 the objective is its per-slot average,
    which keeps the optimizer tolerances meaningful across sample sizes. A
    point where the kernel gives NaN, or whose c* is not finite and
    positive, scores the penalty, unscaled.

    Each counted evaluation is one kernel call (_kernels.loglik_from_compiled)
    with an array for (S, N*), one forward pass; asked for the score too,
    the same call adds the smoother's backward pass and the score's two
    parts at h. By the envelope theorem the gradient is the loglik's at c* h
    in all of theta: -(quad / c* + rest) * d(natural)/d(theta) * scale,
    whose entries past the first are phi's. A point where any of its d
    entries is not finite gives the penalty to BFGS.

    points keeps one record per point scored, by phi's bytes: (value,
    d-entry gradient or None, c* h or None). The gradient is None where it
    was not asked for at a point below the penalty, and zero at a penalty
    point; c* h is None at a penalty point. A call at a point already
    scored, with its gradient if asked for, reads its record and is neither
    counted nor charged to the budget, so BFGS starting where fit or
    diagonal_curvature scored its start point with its score runs no
    second pass. _polish's convergence test reads the gradient's theta_ref
    entry from the record, and fit its params_hat, c* h.
    """

    def __init__(
        self, cm: CompiledModel, transform: ParamTransform, theta_ref, budget=None, scale=1.0
    ):
        self.cm = cm
        self.transform = transform
        self.theta_ref = float(theta_ref)
        self.budget = budget
        self.scale = float(scale)
        self.n_evals = 0
        self.best_f = np.inf
        self.best_x = None
        self.points = {}  # phi's bytes -> (value, gradient or None, c* h or None)

    def __call__(self, phi, with_score=False) -> float:
        """The value at phi, from its record or else one counted kernel
        call; with_score has the call keep the gradient for value_and_grad."""
        return self._scored(phi, with_score)[0]

    def _scored(self, phi, with_score: bool) -> tuple:
        # phi's record, scored unless it is there already
        theta = np.array((self.theta_ref, *phi))
        phi = theta[1:]
        key = phi.tobytes()
        seen = self.points.get(key)
        if seen is not None and (seen[1] is not None or not with_score):
            return seen
        if self.budget is not None and self.n_evals >= self.budget:
            raise _BudgetExhausted()
        self.n_evals += 1
        h = self.transform.to_natural(theta)
        f, g, scaled = _PENALTY, None, None
        # a variance at or near zero makes the filter raise ConditioningError,
        # which the kernel returns as NaN: the penalty
        if np.isfinite(h).all():
            out = np.empty(2 + 2 * h.size if with_score else 2)
            ll = _kernels.loglik_from_compiled(self.cm, h, out)
            S, N = float(out[0]), float(out[1])
            c = S / N if N else 1.0
            if math.isfinite(ll) and 0.0 < c < math.inf:
                f = -(ll - 0.5 * N * math.log(c) - 0.5 * (N - S)) * self.scale
                scaled = c * h
                if self.transform.has_corr:
                    scaled = np.where(self.transform.is_corr, h, scaled)
                if with_score:
                    with np.errstate(over="ignore", invalid="ignore"):
                        jac = self.transform.natural_jacobian_diag(theta)
                        g = -(out[2 : 2 + h.size] / c + out[2 + h.size :]) * jac * self.scale
        if scaled is None:
            g = np.zeros(h.size)
        record = self.points[key] = f, g, scaled
        if f < self.best_f:
            self.best_f = f
            self.best_x = phi
        return record

    def diagonal_curvature(self, phi) -> np.ndarray:
        """The objective's central second difference along each coordinate
        at phi, from the value there, scored with its score unless its
        record has one, and 2(d - 1) value-only probes; 1 where that is not
        finite and positive or a probe scores the penalty. BFGS starting at
        phi then reads its value and gradient from the record."""
        phi = np.asarray(phi, dtype=float)
        c, worst = _second_differences(self, phi, self(phi, with_score=True))
        usable = np.isfinite(c) & (c > 0.0) & (worst < _PENALTY)
        return np.where(usable, c, 1.0)

    def value_and_grad(self, phi) -> tuple:
        """(value, gradient along phi) at phi from one counted kernel call, or
        from its record if that kept the gradient. A point that scores the
        penalty, or where any entry of the gradient in theta (theta_ref's
        too) is not finite, gives the penalty and a zero gradient."""
        f, g, _ = self._scored(phi, True)
        if np.isfinite(g).all():
            return f, g[1:]
        return _PENALTY, np.zeros(g.size - 1)


def _negative_loglik(cm: CompiledModel, transform: ParamTransform):
    """-loglik over the full theta, one value-only kernel call a point, the
    penalty where the kernel gives NaN: what the standard-error Hessian
    differences."""

    def f(theta) -> float:
        ll = _kernels.loglik_from_compiled(cm, transform.to_natural(theta))
        return -ll if math.isfinite(ll) else _PENALTY

    return f


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
    y = cm.y_array
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

    params_hat is c* h at the point the fit ended at, and theta_hat its
    unconstrained image, log(params_hat) for the variances and
    atanh(params_hat) for the correlations, where the standard-error
    Hessian is taken over all d coordinates. iterations counts the BFGS
    iterations over every start, each over the d - 1 free coordinates.
    n_evals counts the objective's evaluations outside the standard-error
    Hessian: the start point, the 2(d - 1) curvature probes before each
    BFGS run, and every point BFGS scored, each one kernel call and one
    forward pass unless the point maps to a non-finite parameter. A point
    is counted once: a second call there reads the value, and the gradient
    if it was kept, from the objective's record of the point. So a BFGS
    run's start point is scored once, with its score, before its probes
    (fit scores the first start itself, to check it), and BFGS's first
    evaluation there adds no count. A point scored without its score
    counts again if BFGS asks for the gradient there. A BFGS evaluation's
    call also runs the smoother's backward pass for the score, from the
    same forward pass; n_evals counts the call once, so the score adds no
    count.
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


def _polish(obj, phi) -> tuple:
    """One BFGS run on the profile's exact gradient from phi, its inverse
    Hessian starting at the inverse of obj's diagonal curvature there;
    returns (phi, f, converged, iterations), converged when the run ends
    below the penalty with the infinity-norm of the gradient in all of
    theta below _GRAD_TOL: phi's entries and theta_ref's, which the last
    evaluation there computed. At c* the variances' entries sum to zero,
    so theta_ref's is minus the sum of the others and can exceed each."""
    from scipy import optimize  # most of the package's import time; only a fit needs it

    hess_inv0 = np.diag(1.0 / obj.diagonal_curvature(phi))
    res = optimize.minimize(
        obj.value_and_grad,
        phi,
        jac=True,
        method="BFGS",
        options={
            "gtol": _BFGS_GTOL,
            "maxiter": 100 * max(1, len(phi)),
            "hess_inv0": hess_inv0,
        },
    )
    # a run that stopped on the penalty has a zero gradient, not a small one
    x = np.asarray(res.x, dtype=float)
    g = obj.points[x.tobytes()][1]  # BFGS scored x with its gradient
    converged = res.fun < _PENALTY and np.max(np.abs(g)) < _GRAD_TOL
    return x, float(res.fun), converged, int(res.nit)


def fit(
    spec: ModelSpec,
    data: PanelDataset,
    options: FitOptions | None = None,
) -> FitResult:
    """Maximize the exact-diffuse loglik over the layout's parameters.

    BFGS searches the d - 1 coordinates other than the first measurement
    variance, which stays at its start value, with the common scale of the
    variances profiled out (see the module docstring); params_hat is the
    point it ends at, times its best scale c*. Multi-start jitter moves the
    d - 1 free coordinates.

    Deterministic given (data, spec, options.seed, options.start). On an
    optimizer stall the best point found is returned with converged False;
    a starting point where the loglik is not finite, or has no best scale
    (c* = 0 when every innovation past the diffuse phase is 0), raises
    InitializationError, and a start where the loglik is finite but its
    score is not gets a note, since BFGS takes no step from it. Each
    correlation that ends within 1e-6 of +-1 gets a note and no SE, and
    the fit is then not converged. n_starts below 1 is a ValueError.
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
    obj = _Objective(cm, transform, theta0[0], budget=options.eval_budget, scale=1.0 / n_scale)
    dim = layout.n_params
    phi0 = theta0[1:]
    try:
        f0 = obj(phi0, with_score=True)  # BFGS's first evaluation takes both
    except _BudgetExhausted:
        raise InitializationError("evaluation budget exhausted before the first point")
    if f0 >= _PENALTY:
        raise InitializationError(
            "loglik is not finite, or has no maximum over a common scale of the "
            "variances, at the starting point; check the data and spec"
        )

    rng = np.random.default_rng(options.seed)
    starts = [phi0]
    for _ in range(options.n_starts - 1):
        starts.append(phi0 + rng.normal(0.0, 0.5, size=dim - 1))

    best_x = phi0
    best_f = f0
    best_converged = False
    iterations = 0
    budget_hit = False
    notes = []
    for i, ph in enumerate(starts):
        try:
            x, f, conv, nit = _polish(obj, ph)
            iterations += nit
            # a run that took no step and ends on the penalty scored only
            # ph, whose value its record holds: no pass
            if nit == 0 and f >= _PENALTY > obj(ph):
                notes.append(
                    f"the score is not finite at start {i + 1}, so BFGS took no step from it"
                )
            if not conv and obj.best_f < f:
                # a run that stalls, or stops on the penalty, can end above
                # points it scored before
                x, f = obj.best_x, obj.best_f
        except _BudgetExhausted:
            budget_hit = True
            x, f, conv = obj.best_x, obj.best_f, False  # fit scored phi0 first
        if f < best_f:
            best_f = f
            best_x = x
            best_converged = conv
        elif f == best_f and not best_converged:
            best_converged = conv
        if budget_hit:
            break

    # every point a run ends at was scored below the penalty
    params_hat = obj.points[np.asarray(best_x, dtype=float).tobytes()][2]
    theta_hat = transform.to_unconstrained(params_hat)
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
        # nor is the point an optimum, though d rho / d atanh(rho) = 1 - rho^2
        # can make the gradient there as small as BFGS's tolerance
        best_converged = False
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
    of -loglik over all d coordinates (2d^2 + 1 value-only kernel calls),
    inverted by covariance_from_hessian, then delta-method
    mapped, SE(sigma^2) = sigma^2 * SE(theta) and SE(rho) = (1 - rho^2) *
    SE(theta). SEs are NaN where ok is False."""
    H = numerical_hessian(_negative_loglik(cm, transform), theta_hat)
    cov, ok = covariance_from_hessian(H)
    se_theta = np.full(theta_hat.size, np.nan)
    se_theta[ok] = np.sqrt(np.diag(cov)[ok])
    return np.abs(transform.natural_jacobian_diag(theta_hat) * se_theta), ok
