"""The engine at high trend order and on a bivariate multi-slot panel,
against a 60-digit reference, on every state component.

The reference is the textbook Kalman filter, one slot at a time, and the
Rauch-Tung-Striebel smoother in mpmath, on the row transitions, booked
disturbance covariances and observation stack of oracle._chain_matrices
and oracle._observation_stack (float64 entries convert to mpf exactly). It
approximates the diffuse initial state by a proper prior of variance
kappa = 1e30 and takes log kappa off the log innovation variance of each
slot whose innovation variance is O(kappa), as the exact-diffuse loglik
does in the limit; the approximation error is O(1/kappa). Its P - K P'
steps cancel about 2 log10 kappa digits while a block is still diffuse, so
it works at 2 log10 kappa + 60 significant digits (120 here), which leaves
60. At 60 digits the slope and higher derivative variances came out
negative on the rows near the start. At order 6 the state covariances span
many decades (the trend variance is ~1e-11 of the measurement variance),
which is where a double-precision filter and smoother could lose their
accuracy.
"""

import math
import os

import mpmath
import numpy as np
import pytest

import paleokalman as pk
from paleokalman import ModelSpec, build_layout, collate_rows
from paleokalman.core import CLIMATE_STATE_NAMES, SERIES_NAMES
from paleokalman.kalman import filter as kfilter, smooth
from paleokalman.oracle import _chain_matrices, _observation_stack

mp = mpmath.mp

KAPPA = 1e30


@mp.workdps(2 * round(math.log10(KAPPA)) + 60)
def _reference(spec, layout, params, data):
    # (loglik, the summed size of its per-slot terms, the number of diffuse
    # slots, smoothed state means, smoothed state covariances)
    A, W = _chain_matrices(spec, layout, params, data)
    rows_of, cols, y, h = _observation_stack(spec, layout, params, data)
    n, s = A.shape[:2]
    kappa = mp.mpf(KAPPA)
    a = mp.matrix(s, 1)
    P = kappa * mp.eye(s)
    terms, n_diffuse, pred, filt = [], 0, [], []
    o = 0
    for t in range(n):
        At = mp.matrix(A[t].tolist())
        if t > 0:
            a = At * a
            P = At * P * At.T + mp.matrix(W[t].tolist())
        pred.append((a, P))
        while o < rows_of.size and rows_of[o] == t:
            c = int(cols[o])
            v = mp.mpf(y[o]) - a[c]
            F = P[c, c] + mp.mpf(h[o])
            K = P[:, c] / F
            a = a + K * v
            P = P - K * P[c, :]
            diffuse = F > mp.sqrt(kappa)  # F is O(kappa)
            n_diffuse += diffuse
            log_F = mp.log(F / kappa if diffuse else F)
            terms.append(-(mp.log(2 * mp.pi) + log_F + v * v / F) / 2)
            o += 1
        filt.append((a, P))

    x, V = filt[-1]
    means, covs = [x], [V]
    for t in range(n - 2, -1, -1):
        af, Pf = filt[t]
        ap, Pp = pred[t + 1]
        J = Pf * mp.matrix(A[t + 1].tolist()).T * mp.inverse(Pp)
        x = af + J * (x - ap)
        V = Pf + J * (V - Pp) * J.T
        means.append(x)
        covs.append(V)
    means = np.array([[float(x[i]) for i in range(s)] for x in means[::-1]])
    covs = np.array([[[float(V[i, j]) for j in range(s)] for i in range(s)] for V in covs[::-1]])
    ll, size = float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))
    return ll, size, n_diffuse, means, covs


def _assert_every_component(paths, means, covs, mean_bound, cov_bound):
    # each component's smoothed mean within mean_bound of its reference sd,
    # and each covariance entry, variances and cross terms, within
    # cov_bound of the product of the two reference sds
    sd = np.sqrt(np.diagonal(covs, axis1=1, axis2=2))
    assert np.all(np.abs(paths.smoothed_means - means) <= mean_bound * sd)
    scale = sd[:, :, None] * sd[:, None, :]
    assert np.all(np.abs(paths.smoothed_covs - covs) <= cov_bound * scale)


def _check_order_6(n, q):
    # drawn as in test_kalman's high-order PSD test: one slot per row at the
    # paper's mean spacing (My), random-walk-plus-noise on the d18O scale
    m, eps2 = 6, 0.0205
    rng = np.random.default_rng(0)
    stamps = -np.cumsum(rng.exponential(0.00283, n))[::-1] - 0.001
    data = pk.simulate(ModelSpec(), [eps2, 1.8364], stamps, seed=1)
    eta2 = q * eps2 / float(np.mean(np.diff(stamps)))  # q = eta2 * mean dt / eps2
    spec = ModelSpec(order_m=m)
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, [eps2, eta2], data)
    paths = smooth(run)
    assert run.n_diffuse_slots == m

    ll, size, n_diffuse, means, covs = _reference(spec, layout, [eps2, eta2], data)
    assert n_diffuse == m

    # the loglik sums terms of both signs and nearly cancels here (|ll| ~ 2
    # against a summed size of ~210), so its error is measured against the
    # size of what it sums: |ll| would make the bound depend on the draw
    assert abs(run.loglik - ll) <= 1e-9 * size
    _assert_every_component(paths, means, covs, 1e-7, 1e-7)


def test_order_6_at_paper_q_matches_60_digit_reference():
    # measured: at most 1.9e-10 of a component's sd on the means and 2.7e-9
    # of the covariances' scale
    _check_order_6(300, 3.1e-12)


def test_order_6_at_q_1e_15_matches_60_digit_reference():
    # the smallest q of the paper's range; measured: at most 9.1e-9 of a
    # component's sd on the means and 1.5e-8 of the covariances' scale
    _check_order_6(300, 1e-15)


# the paper record's length: 23,722 rows over ~67 My
FULL_LENGTH = 23_722
full_length = pytest.mark.skipif(
    os.environ.get("PALEOKALMAN_FULL_LENGTH") != "1",
    reason="a full-length 60-digit reference takes minutes; set PALEOKALMAN_FULL_LENGTH=1",
)


@full_length
@pytest.mark.parametrize("q", [3.1e-12, 1e-15], ids=["paper-q", "q-1e-15"])
def test_order_6_at_full_length_matches_60_digit_reference(q):
    # measured: at most 1.3e-8 (paper q) and 3.1e-8 (q = 1e-15) of a
    # component's sd on the means, and 2.3e-8 and 1.6e-8 of the
    # covariances' scale
    _check_order_6(FULL_LENGTH, q)


def _check_bivariate_order_2(n, start, spacing, rhos, bounds):
    # n rows from start (My) on, exponential(spacing) apart; each series
    # observed at about three rows in four with 1-3 slots there, and rho by
    # climate state, one per regime that the rows cross. bounds: the
    # loglik's error as a share of the summed size of its terms, and those
    # of _assert_every_component, on the levels, the slopes and all their
    # cross terms
    m = 2
    spec = ModelSpec(arity="bivariate", order_m=m, corr_grouping="by-climate-state")
    params = [0.02, 0.03, 0.05, 0.03, *rhos]
    rng = np.random.default_rng(4)
    stamps = start + np.cumsum(rng.exponential(spacing, n))
    observed = rng.random((n, 2)) < 0.75
    observed[~observed.any(axis=1), 0] = True
    v = pk.simulate(spec, params, stamps, slots_per_row=3, seed=5, observed=observed).view
    n_slots = rng.integers(1, 4, size=(n, 2))
    slots = zip(v.row.tolist(), v.series.tolist(), (v.at % 4).tolist(), v.value.tolist())
    data = collate_rows(
        (stamps[r], SERIES_NAMES[j], x, "src0", "sp0")
        for r, j, i, x in slots
        if i < n_slots[r, j]
    )
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, params, data)
    paths = smooth(run)
    assert run.n_diffuse_slots == 2 * m

    ll, size, n_diffuse, means, covs = _reference(spec, layout, params, data)
    assert n_diffuse == 2 * m

    ll_bound, mean_bound, cov_bound = bounds
    assert abs(run.loglik - ll) <= ll_bound * size
    _assert_every_component(paths, means, covs, mean_bound, cov_bound)
    return [p.group for p in layout.params[4:]]


def test_bivariate_order_2_multi_slot_matches_60_digit_reference():
    # 80 rows across the Coolhouse 2 / Icehouse boundary at 3.3 My; measured:
    # 3e-16 of the summed size, 6.2e-14 of a component's sd and 4.6e-15 of
    # the covariances' scale
    groups = _check_bivariate_order_2(80, -4.2, 0.02, [0.6, -0.4], (1e-12, 1e-10, 1e-12))
    assert groups == ["Coolhouse 2", "Icehouse"]


@full_length
def test_bivariate_order_2_at_full_length_matches_60_digit_reference():
    # the record's length at the paper's mean spacing, across all six
    # regimes, with the order-6 full-length bounds. Measured: 3.9e-14 of
    # the summed size, 4.2e-10 of a component's sd and 3.6e-15 of the
    # covariances' scale. The levels wander to ~22,700 with an sd of
    # ~0.035, so one ulp of a mean is ~1e-10 of its sd there, and the worst
    # error is 4 ulps; the 80-row case's 1e-10 of the sd is below what a
    # double can resolve.
    rhos = [0.5, -0.3, 0.2, 0.6, 0.6, -0.4]
    groups = _check_bivariate_order_2(FULL_LENGTH, -67.0, 0.0028, rhos, (1e-9, 1e-7, 1e-7))
    assert groups == list(CLIMATE_STATE_NAMES)
