"""Simulation and brute-force small-instance answers for testing.

simulate() draws datasets from any model variant by exact discretization:
trend increments are N(0, Q(window)) with the min-overlap cross-covariance,
measurement noise is per-slot N(0, H). The two oracles share one
construction, with no Kalman recursion involved: the joint Gaussian of the
stacked states of all rows and the observed values, built row by row from
the chain's transition matrices. exact_gaussian() conditions it three ways
under a proper prior (on the values of rows < nu, <= nu and all rows, for
the predicted, filtered and smoothed moments) and takes the log-likelihood
as the joint density of the values. diffuse_exact_gaussian() takes it to
the diffuse-prior limit by generalized least squares on the initial-state
loadings.

These routines are the measuring stick for the filter/smoother; they favor
clarity over speed and refuse instances with more than 64 observed values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import MISSING, PanelDataset, _collate
from .modelspec import (
    ModelSpec,
    ParameterLayout,
    POOLED_KEY,
    booking_schedule,
    build_layout,
    trend_transition_matrix,
)

__all__ = [
    "simulate",
    "exact_gaussian",
    "diffuse_exact_gaussian",
    "ExactGaussianResult",
    "DiffuseExactResult",
]

_SIZE_CAP = 64


# ---------------------------------------------------------------------------
# shared plumbing: the linear-Gaussian chain implied by (spec, params, data)
# ---------------------------------------------------------------------------


def _chain_matrices(spec, layout, params, data):
    """Per-row transition matrices A_nu and disturbance covariances W_nu
    (both s x s) under the freeze-and-book missing-row semantics. Row 0 has
    A = I, W = 0 (the initial state covers it)."""
    m = spec.order_m
    k = spec.n_series
    s = spec.state_dim
    n = data.n_rows
    T_m = trend_transition_matrix(m)

    v = data.view
    observed = np.zeros((n, k), dtype=bool)
    for j, sr in enumerate(spec.series):
        observed[v.row[v.series == sr], j] = True
    apply_, window = booking_schedule(v.stamps, observed)

    A = np.zeros((n, s, s))
    W = np.zeros((n, s, s))
    for nu, regime in enumerate(v.climate_states.tolist()):
        tkey = regime if spec.trans_grouping == "by-climate-state" else POOLED_KEY
        sig2 = np.zeros(k)
        for j, sr in enumerate(spec.series):
            block = slice(j * m, (j + 1) * m)
            A[nu][block, block] = T_m if apply_[nu, j] else np.eye(m)
            if apply_[nu, j]:
                sig2[j] = params[layout.trans_index[(sr, tkey)]]
                W[nu, j * m + m - 1, j * m + m - 1] = sig2[j] * window[nu, j]
        if k == 2 and apply_[nu, 0] and apply_[nu, 1]:
            ckey = regime if spec.corr_grouping == "by-climate-state" else POOLED_KEY
            idx = layout.corr_index.get(ckey)
            if idx is not None:
                cross = (
                    params[idx]
                    * np.sqrt(sig2[0] * sig2[1])
                    * min(window[nu, 0], window[nu, 1])
                )
                W[nu, m - 1, 2 * m - 1] = cross
                W[nu, 2 * m - 1, m - 1] = cross
    return A, W


def _observation_stack(spec, layout, params, data):
    """The observed slots of the model's series, in row-major (row, series,
    slot) order: each one's row, the state column its value loads on
    within its row's state, its value, and its measurement variance."""
    v = data.view
    slot = np.isin(v.series, spec.series)
    series = v.series[slot]
    # a series' level is the first column of its block
    cols = np.searchsorted(spec.series, series) * spec.order_m
    keys = {"by-source": v.source, "by-species": v.species}.get(spec.meas_grouping)
    keys = np.full(series.size, POOLED_KEY) if keys is None else keys[slot]
    # a variance's index by (series, key), looked up once per pair
    pairs, pair = np.unique(np.stack([series, keys]), axis=1, return_inverse=True)
    index = np.array([layout.meas_index[sr, key] for sr, key in pairs.T.tolist()], dtype=int)
    h = np.asarray(params, dtype=float)[index[pair.reshape(-1)]]
    return v.row[slot], cols, v.value[slot], h


def _psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix, tolerant of zero/degenerate
    eigenvalues (used for drawing correlated increments, including the
    |rho| = 1 boundary)."""
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals) @ vecs.T


def _logpdf(y, mean, cov):
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise np.linalg.LinAlgError("observation covariance not positive definite")
    resid = y - mean
    return -0.5 * (len(y) * np.log(2 * np.pi) + logdet + resid @ np.linalg.solve(cov, resid))


def _joint(name, spec, params, data, layout, init_mean, init_cov):
    """The joint Gaussian of the stacked states x (all rows) and the
    observed values y = Z x + eps, with Z the values' unit selectors and
    row 0's state drawn from N(init_mean, init_cov); zeros for both give
    the disturbance part x~ of the diffuse limit.

    Returns y, each value's row, the mean of x, the loadings D of the
    initial state on every row (D_nu = A_nu ... A_1), Cov(x) = C, Z,
    Cov(x, y) = C Z' and Cov(y) = Z C Z' + H."""
    layout = layout or build_layout(spec, data)
    params = layout.validate_params(params)
    s = spec.state_dim
    n = data.n_rows

    A, W = _chain_matrices(spec, layout, params, data)
    rows_of, cols, y, h = _observation_stack(spec, layout, params, data)
    if len(y) > _SIZE_CAP:
        raise ValueError(f"{name} is capped at {_SIZE_CAP} observed values, got {len(y)}")
    Z = np.zeros((len(y), n * s))
    Z[np.arange(len(y)), rows_of * s + cols] = 1.0

    mean = np.zeros(n * s)
    D = np.zeros((n * s, s))
    C = np.zeros((n * s, n * s))
    mean[0:s] = np.asarray(init_mean, dtype=float).reshape(s)
    C[0:s, 0:s] = np.asarray(init_cov, dtype=float).reshape(s, s)
    D[0:s] = np.eye(s)
    for nu in range(1, n):
        cur = slice(nu * s, (nu + 1) * s)
        prev = slice((nu - 1) * s, nu * s)
        mean[cur] = A[nu] @ mean[prev]
        D[cur] = A[nu] @ D[prev]
        # the covariance with every earlier row, then with itself
        C[cur, : nu * s] = A[nu] @ C[prev, : nu * s]
        C[: nu * s, cur] = C[cur, : nu * s].T
        C[cur, cur] = C[cur, prev] @ A[nu].T + W[nu]
    S = C @ Z.T
    return y, rows_of, mean, D, C, Z, S, Z @ S + np.diag(h)


@dataclass
class ExactGaussianResult:
    loglik: float
    predicted_means: np.ndarray  # (n, s)
    predicted_covs: np.ndarray  # (n, s, s)
    filtered_means: np.ndarray
    filtered_covs: np.ndarray
    smoothed_means: np.ndarray
    smoothed_covs: np.ndarray


def exact_gaussian(
    spec: ModelSpec,
    params,
    data: PanelDataset,
    init_mean,
    init_cov,
    layout: ParameterLayout | None = None,
) -> ExactGaussianResult:
    """Exact proper-prior answers by joint-Gaussian conditioning.

    The stacked state vector (all rows) is jointly Gaussian; observations
    load on it through unit selectors. The log-likelihood is the joint
    density of the observed values, and predicted/filtered/smoothed moments
    at row nu come from conditioning the row-nu state block on the values of
    rows < nu, <= nu, and all rows respectively.
    """
    y, rows_of, mean_x, _, cov_x, Z, cov_xy, cov_y = _joint(
        "exact_gaussian", spec, params, data, layout, init_mean, init_cov
    )
    s = spec.state_dim
    n = data.n_rows
    mean_y = Z @ mean_x
    loglik = _logpdf(y, mean_y, cov_y)

    def condition(state_slice, obs_mask):
        mu_x = mean_x[state_slice]
        if not np.any(obs_mask):
            return mu_x, cov_x[state_slice, state_slice]
        Syy = cov_y[np.ix_(obs_mask, obs_mask)]
        Sxy = cov_xy[state_slice, obs_mask]
        gain = np.linalg.solve(Syy, Sxy.T).T
        mean = mu_x + gain @ (y[obs_mask] - mean_y[obs_mask])
        cov = cov_x[state_slice, state_slice] - gain @ Sxy.T
        return mean, 0.5 * (cov + cov.T)

    # predicted, filtered and smoothed: on the values of rows < nu, <= nu, all
    rows = np.arange(n)[:, None]
    moments = []
    for masks in (rows_of < rows, rows_of <= rows, np.ones((n, len(y)), dtype=bool)):
        means, covs = zip(
            *(condition(slice(nu * s, (nu + 1) * s), mask) for nu, mask in enumerate(masks))
        )
        moments += [np.array(means), np.array(covs)]
    return ExactGaussianResult(float(loglik), *moments)


@dataclass
class DiffuseExactResult:
    loglik: float
    smoothed_means: np.ndarray
    smoothed_covs: np.ndarray


def diffuse_exact_gaussian(
    spec: ModelSpec,
    params,
    data: PanelDataset,
    layout: ParameterLayout | None = None,
) -> DiffuseExactResult:
    """Exact diffuse-prior answers via the GLS limit.

    Write the stacked states as x = D delta + x~ where delta is the initial
    state (diffuse) and x~ the zero-mean disturbance part; observations are
    y = X delta + u with X = Z D and u ~ N(0, Omega). As the prior variance
    kappa -> infinity,

      loglik + (s/2) log kappa  ->
        -0.5 [ n_y log 2pi + log|Omega| + log|X' Omega^-1 X| + RSS_gls ]

    which is the value returned (the same limit the exact-initial filter
    computes, slot for slot). Requires X of full column rank: the data must
    identify every initial-state coordinate.
    """
    s = spec.state_dim
    y, _, _, D, cov_x, Z, S, Omega = _joint(
        "diffuse_exact_gaussian", spec, params, data, layout, np.zeros(s), np.zeros((s, s))
    )
    n = data.n_rows
    n_y = len(y)
    if n_y < s:
        raise ValueError("not enough observed values to resolve the diffuse prior")
    X = Z @ D

    Oi_X = np.linalg.solve(Omega, X)
    G = X.T @ Oi_X  # information about delta
    sign, logdet_G = np.linalg.slogdet(G)
    if sign <= 0:
        raise np.linalg.LinAlgError(
            "initial state not identified by the observations (X rank deficient)"
        )
    Oi_y = np.linalg.solve(Omega, y)
    delta_hat = np.linalg.solve(G, X.T @ Oi_y)
    resid = y - X @ delta_hat
    rss = resid @ np.linalg.solve(Omega, resid)
    sign_O, logdet_O = np.linalg.slogdet(Omega)
    if sign_O <= 0:
        raise np.linalg.LinAlgError("observation covariance not positive definite")
    loglik = -0.5 * (n_y * np.log(2 * np.pi) + logdet_O + logdet_G + rss)

    # smoothed moments in the same limit
    V_delta = np.linalg.inv(G)
    SOi = np.linalg.solve(Omega, S.T).T  # S Omega^-1
    x_hat = D @ delta_hat + SOi @ resid
    J = D - SOi @ X
    cov_full = cov_x - SOi @ S.T + J @ V_delta @ J.T
    # the diagonal s x s blocks, one per row
    blocks = cov_full.reshape(n, s, n, s)[np.arange(n), :, np.arange(n)]
    return DiffuseExactResult(
        float(loglik), x_hat.reshape(n, s), 0.5 * (blocks + blocks.transpose(0, 2, 1))
    )


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def simulate(
    spec: ModelSpec,
    params,
    stamps,
    slots_per_row: int = 1,
    seed: int = 0,
    n_sources: int = 1,
    n_species: int = 1,
    observed=None,
    init_mean=None,
    init_cov=None,
) -> PanelDataset:
    """Draw a dataset from the generative model.

    Parameters
    ----------
    spec, params : model variant and natural-scale parameters, in the layout
        order of the dataset being generated (group labels are "src0",
        "src1", ... and "sp0", ... assigned to slots round-robin).
    stamps : strictly increasing time stamps (My, negative-age convention).
    slots_per_row : values per active series at each observed row (<= 4).
    observed : optional (n,) or (n, n_series) bool mask; False rows for a
        series get no values there (the trend still diffuses across the gap,
        booked at the next observed row). Default: all observed.
    init_mean, init_cov : proper prior for the initial state. Without
        init_cov the state starts exactly at init_mean (default zeros),
        which stands in for the diffuse case in a simulation.
    seed : feeds numpy's default 64-bit generator (PCG64).
    """
    stamps = np.array([float(t) for t in stamps])
    n = stamps.size
    if not (np.all(np.isfinite(stamps)) and np.all(np.diff(stamps) > 0.0)):
        raise ValueError("stamps must be finite, strictly increasing and unique")
    if not 1 <= slots_per_row <= 4:
        raise ValueError("slots_per_row must be in 1..4")

    k = spec.n_series
    observed = np.ones(n, dtype=bool) if observed is None else np.asarray(observed, dtype=bool)
    if observed.ndim == 1:
        observed = np.repeat(observed[:, None], k, axis=1)
    observed = observed[:, :k]  # columns past the model's series are not read
    if observed.shape != (n, k):
        raise ValueError(f"observed must be a mask of shape ({n},) or ({n}, {k})")

    # the panel with placeholder values fixes the registries and the layout:
    # each observed (row, series) gets slots_per_row slots, numbered g = 0,
    # 1, ... in row-major order, and slot g the labels src{g % n_sources}
    # and sp{g % n_species}; a row with no value only registers its stamp,
    # with -1 for the series and ids, which collate does not read
    cell = np.repeat(np.flatnonzero(observed), slots_per_row)
    g = np.arange(cell.size)
    empty = np.flatnonzero(~observed.any(axis=1))
    none = np.full(empty.size, -1)
    skeleton = _collate(
        np.concatenate([stamps[cell // k], stamps[empty]]),
        np.concatenate([np.asarray(spec.series)[cell % k], none]),
        np.concatenate([np.zeros(g.size), np.full(empty.size, MISSING)]),
        np.concatenate([g % n_sources, none]),
        np.concatenate([g % n_species, none]),
        {i: f"src{i}" for i in range(min(n_sources, g.size))},
        {i: f"sp{i}" for i in range(min(n_species, g.size))},
    )
    layout = build_layout(spec, skeleton)
    # simulation tolerates the degenerate boundary |rho| = 1 that estimation
    # rejects, so validate by hand
    params = np.asarray(params, dtype=float)
    if params.shape != (layout.n_params,):
        raise ValueError(f"expected {layout.n_params} parameters")
    for info, value in zip(layout.params, params):
        if info.role == "rho":
            if not abs(value) <= 1.0:
                raise ValueError(f"{info.name}: |rho| must be <= 1")
        elif not value >= 0.0:
            raise ValueError(f"{info.name}: variance must be nonnegative")

    s = spec.state_dim
    A, W = _chain_matrices(spec, layout, params, skeleton)
    rows_of, cols, _, h = _observation_stack(spec, layout, params, skeleton)

    rng = np.random.default_rng(seed)
    if init_mean is None:
        x = np.zeros(s)
    else:
        x = np.asarray(init_mean, dtype=float).reshape(s).copy()
    if init_cov is not None:
        x = x + _psd_sqrt(
            np.asarray(init_cov, dtype=float).reshape(s, s)
        ) @ rng.standard_normal(s)

    # the draws, row by row: s for the transition where its disturbance is
    # not zero (never at row 0), then one per slot in slot order
    moves = W.reshape(n, s * s).any(axis=1)
    per_row = s * moves + np.bincount(rows_of, minlength=n)
    z = rng.standard_normal(int(per_row.sum()))
    transition = np.zeros(z.size, dtype=bool)
    first = np.cumsum(per_row) - per_row
    transition[(first[moves][:, None] + np.arange(s)).reshape(-1)] = True
    shocks = iter(z[transition].reshape(-1, s))
    states = np.empty((n, s))
    for nu in range(n):
        if nu > 0:
            x = A[nu] @ x
            if moves[nu]:
                x = x + _psd_sqrt(W[nu]) @ next(shocks)
        states[nu] = x
    values = states[rows_of, cols] + np.sqrt(h) * z[~transition]
    view = replace(skeleton.view, value=values)
    return PanelDataset(view, skeleton.sources, skeleton.species)
