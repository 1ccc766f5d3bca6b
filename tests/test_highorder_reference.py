"""The engine at trend order 6 and the paper's signal-to-noise ratio, against
a 60-digit reference.

The reference is the textbook Kalman filter and Rauch-Tung-Striebel
smoother in mpmath at 60 significant digits. It approximates the diffuse
initial state by a proper prior of variance kappa = 1e30 and takes log
kappa off the log innovation variance of each of the s diffuse slots, as
the exact-diffuse loglik does in the limit; the approximation error is
O(1/kappa). At order 6 the state covariances span many decades (the trend
variance is ~1e-11 of the measurement variance), which is where a
double-precision filter and smoother could lose their accuracy.
"""

import mpmath
import numpy as np
import pytest

import paleokalman as pk
from paleokalman import ModelSpec, build_layout
from paleokalman.kalman import filter as kfilter, smooth

mp = mpmath.mp


def _reference(stamps, y, m, eps2, eta2, kappa):
    # (per-slot loglik terms, smoothed level means, smoothed level
    # variances), one slot per row; the trend transition is T = I +
    # superdiagonal, and the disturbance variance eta2 * (stamp difference)
    # enters the last component
    eps2, eta2, kappa = mp.mpf(eps2), mp.mpf(eta2), mp.mpf(kappa)
    rm = range(m)

    def T_mat(P):  # T P T'
        TP = [[P[i][j] + (P[i + 1][j] if i + 1 < m else 0) for j in rm] for i in rm]
        return [[TP[i][j] + (TP[i][j + 1] if j + 1 < m else 0) for j in rm] for i in rm]

    a = [mp.mpf(0)] * m
    P = [[kappa if i == j else mp.mpf(0) for j in rm] for i in rm]
    terms, pred, filt = [], [], []
    for t, (stamp, obs) in enumerate(zip(stamps, y)):
        if t > 0:
            a = [a[i] + (a[i + 1] if i + 1 < m else 0) for i in rm]
            P = T_mat(P)
            P[m - 1][m - 1] += eta2 * (mp.mpf(stamp) - mp.mpf(stamps[t - 1]))
        pred.append((a, P))
        v = mp.mpf(obs) - a[0]
        F = P[0][0] + eps2
        K = [P[i][0] / F for i in rm]
        a = [a[i] + K[i] * v for i in rm]
        P = [[P[i][j] - K[i] * P[0][j] for j in rm] for i in rm]
        # the first m slots are the diffuse ones: log kappa comes off log F
        terms.append(-(mp.log(2 * mp.pi) + mp.log(F / kappa if t < m else F) + v * v / F) / 2)
        filt.append((a, P))

    x, V = (mp.matrix(z) for z in filt[-1])
    means, variances = [x[0]], [V[0, 0]]
    T = mp.matrix([[1 if j in (i, i + 1) else 0 for j in rm] for i in rm])
    for t in range(len(y) - 2, -1, -1):
        af, Pf = (mp.matrix(z) for z in filt[t])
        ap, Pp = (mp.matrix(z) for z in pred[t + 1])
        J = Pf * T.T * mp.inverse(Pp)
        x = af + J * (x - ap)
        V = Pf + J * (V - Pp) * J.T
        means.append(x[0])
        variances.append(V[0, 0])
    return terms, means[::-1], variances[::-1]


def test_order_6_at_paper_q_matches_60_digit_reference():
    # drawn as in test_kalman's high-order PSD test: one slot per row at the
    # paper's mean spacing (My), random-walk-plus-noise on the d18O scale
    n, m, q, eps2 = 300, 6, 3.1e-12, 0.0205
    rng = np.random.default_rng(0)
    stamps = -np.cumsum(rng.exponential(0.00283, n))[::-1] - 0.001
    data = pk.simulate(ModelSpec(), [eps2, 1.8364], stamps, seed=1)
    eta2 = q * eps2 / float(np.mean(np.diff(stamps)))  # q = eta2 * mean dt / eps2
    spec = ModelSpec(order_m=m)
    run = kfilter(spec, build_layout(spec, data), [eps2, eta2], data)
    paths = smooth(run)
    assert run.n_diffuse_slots == m

    y = [row.slots_series1[0].value for row in data.rows]
    with mp.workdps(60):
        terms, means, variances = _reference(stamps.tolist(), y, m, eps2, eta2, 1e30)
        ll, size = float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))
    means, variances = np.array(means, dtype=float), np.array(variances, dtype=float)

    # the loglik sums terms of both signs and nearly cancels here (|ll| ~ 2
    # against a summed size of ~210), so its error is measured against the
    # size of what it sums: |ll| would make the bound depend on the draw
    assert abs(run.loglik - ll) <= 1e-9 * size
    level_sd = np.sqrt(variances)
    assert np.all(np.abs(paths.smoothed_means[:, 0] - means) <= 1e-7 * level_sd)
    assert np.allclose(paths.smoothed_covs[:, 0, 0], variances, rtol=1e-7, atol=0.0)
