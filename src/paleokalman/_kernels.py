"""Compiled log-likelihood kernel used by the fitting loop.

This duplicates the reference filter in kalman.py as one flat-array loop so
numba can compile it; the equivalence of the two routes is pinned by tests.
The kernel follows the reference operation-for-operation (same update
forms, same symmetrization, same diffuse bookkeeping) so the two logliks
agree to rounding error. It returns NaN instead of raising when an
innovation variance fails to be positive; callers treat that as an
inadmissible parameter point.

numba is optional at runtime: without it the same function runs as plain
Python (slow but identical).
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def deco(f):
            return f

        return deco


_LOG2PI = float(np.log(2.0 * np.pi))
_DIFFUSE_TOL = 1e-10


@njit(cache=True)
def diffuse_loglik(values, hidx, lvl, apply_, window, tvar_idx, corr_idx, params, m, k):
    """Exact-diffuse loglik of one parameter point; NaN if inadmissible.

    Arrays are the CompiledModel fields; m is the trend order, k the number
    of series. State dimension is s = k*m. All slots are processed one at
    a time (diagonal measurement covariance).
    """
    n, p = values.shape
    s = k * m
    a = np.zeros(s)
    Ps = np.zeros((s, s))
    Pi = np.eye(s)
    K = np.zeros(s)
    Mi = np.zeros(s)
    Ms = np.zeros(s)
    diffuse = True
    ll = 0.0

    for nu in range(n):
        if nu > 0:
            any_block = False
            for j in range(k):
                if apply_[nu, j]:
                    any_block = True
                    top = j * m
                    for i in range(top, top + m - 1):
                        a[i] += a[i + 1]
            if any_block:
                for j in range(k):
                    if apply_[nu, j]:
                        top = j * m
                        for i in range(top, top + m - 1):
                            for c in range(s):
                                Ps[i, c] += Ps[i + 1, c]
                for j in range(k):
                    if apply_[nu, j]:
                        top = j * m
                        for i in range(top, top + m - 1):
                            for r in range(s):
                                Ps[r, i] += Ps[r, i + 1]
                if diffuse:
                    for j in range(k):
                        if apply_[nu, j]:
                            top = j * m
                            for i in range(top, top + m - 1):
                                for c in range(s):
                                    Pi[i, c] += Pi[i + 1, c]
                    for j in range(k):
                        if apply_[nu, j]:
                            top = j * m
                            for i in range(top, top + m - 1):
                                for r in range(s):
                                    Pi[r, i] += Pi[r, i + 1]
                for j in range(k):
                    if apply_[nu, j]:
                        last = j * m + m - 1
                        Ps[last, last] += params[tvar_idx[nu, j]] * window[nu, j]
                if k == 2 and apply_[nu, 0] and apply_[nu, 1]:
                    ci = corr_idx[nu]
                    if ci >= 0 and params[ci] != 0.0:
                        w01 = window[nu, 0]
                        if window[nu, 1] < w01:
                            w01 = window[nu, 1]
                        cross = (
                            params[ci]
                            * np.sqrt(params[tvar_idx[nu, 0]] * params[tvar_idx[nu, 1]])
                            * w01
                        )
                        Ps[m - 1, 2 * m - 1] += cross
                        Ps[2 * m - 1, m - 1] += cross

        for col in range(p):
            hix = hidx[nu, col]
            if hix < 0:
                continue
            e = lvl[col]
            v = values[nu, col] - a[e]
            for r in range(s):
                Ms[r] = Ps[r, e]
            Fs = Ms[e] + params[hix]
            if diffuse and Pi[e, e] > _DIFFUSE_TOL:
                for r in range(s):
                    Mi[r] = Pi[r, e]
                Fi = Mi[e]
                for r in range(s):
                    K[r] = Mi[r] / Fi
                for r in range(s):
                    a[r] = a[r] + K[r] * v
                for r in range(s):
                    for c in range(s):
                        Ps[r, c] = (
                            Ps[r, c] + K[r] * K[c] * Fs - K[r] * Ms[c]
                        ) - Ms[r] * K[c]
                for r in range(s):
                    for c in range(s):
                        Pi[r, c] = Pi[r, c] - K[r] * Mi[c]
                ll += -0.5 * (_LOG2PI + np.log(Fi))
            else:
                if not (np.isfinite(Fs) and Fs > 0.0):
                    return np.nan
                for r in range(s):
                    K[r] = Ms[r] / Fs
                for r in range(s):
                    a[r] = a[r] + K[r] * v
                for r in range(s):
                    for c in range(s):
                        Ps[r, c] = Ps[r, c] - K[r] * Ms[c]
                ll += -0.5 * (_LOG2PI + np.log(Fs) + v * v / Fs)

        for r in range(s):
            for c in range(r + 1, s):
                t = 0.5 * (Ps[r, c] + Ps[c, r])
                Ps[r, c] = t
                Ps[c, r] = t
        if diffuse:
            for r in range(s):
                for c in range(r + 1, s):
                    t = 0.5 * (Pi[r, c] + Pi[c, r])
                    Pi[r, c] = t
                    Pi[c, r] = t
            mx = 0.0
            for r in range(s):
                for c in range(s):
                    av = abs(Pi[r, c])
                    if av > mx:
                        mx = av
            if mx < _DIFFUSE_TOL:
                for r in range(s):
                    for c in range(s):
                        Pi[r, c] = 0.0
                diffuse = False

    return ll


def loglik_from_compiled(cm, params) -> float:
    """Convenience wrapper taking a kalman.CompiledModel."""
    return float(
        diffuse_loglik(
            cm.values,
            cm.hidx,
            cm.lvl_of_col,
            cm.apply,
            cm.window,
            cm.tvar_idx,
            cm.corr_idx,
            np.asarray(params, dtype=float),
            cm.m,
            cm.n_series,
        )
    )
