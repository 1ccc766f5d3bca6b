"""The log-likelihood entry point that the fitting loop evaluates.

The loglik is kalman.loglik: the filter's own forward recursion run without
its paths, so the two logliks are equal bit for bit. At state dimension 1
that is the one float forward recursion (kalman._forward_dim1), whose paths
mode feeds the backward sweep over the moving rows (kalman._smoothed_dim1)
that smooth and the score share. Here an inadmissible parameter
point (an innovation variance that is not a finite normal positive float,
a loglik sum that is not finite, or trend variances with no real increment
covariance) gives NaN rather than ConditioningError, so the optimizer can
score it.

Given an array, the same call also fills it from the same forward pass,
which is what a fit that profiles the common scale of the variances out
reads: S, the sum of v^2 / F over the slots past the diffuse phase, and
N*, their number. A longer array asks for the score too: the forward pass
then runs in paths mode, whose loglik is the path-free pass's bit for bit,
and kalman.score's step from the buffers (the smoother's backward pass and
Fisher's identity) gives the score's two parts, so a BFGS evaluation runs
one forward pass, not two.
"""

from __future__ import annotations

import math

import numpy as np

from .kalman import ConditioningError, _pass_at, _score_from_buffers, loglik

# The package has no compiled path: every recursion runs as plain Python.
HAVE_NUMBA = False


def loglik_from_compiled(cm, params, out=None) -> float:
    """Exact-diffuse loglik of a kalman.CompiledModel at params; NaN if the
    point is inadmissible.

    Given an array out of 2 entries, the same call fills it with (S, N*)
    and returns the same float. Given 2 + 2d entries, for d parameters,
    out[2:] also gets the score's two parts (kalman.score's quad, then its
    rest, d entries each), whose sum is d loglik / d params. Every entry is
    NaN where the loglik is, and the score's parts are NaN where the
    backward pass fails: LinAlgError at a singular trend disturbance
    covariance (|rho| = 1), ZeroDivisionError at a zero predicted variance
    at state dimension 1. Floating-point warnings are off for such a call,
    since a variance at or near zero can divide by zero or overflow in the
    score.
    """
    if out is None:
        try:
            return loglik(cm, params)
        except ConditioningError:
            return math.nan
    h = np.asarray(params, dtype=float)
    out[:] = math.nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            if out.size == 2:
                return loglik(cm, h, out)
            ll, buffers = _pass_at(cm, h, out[:2])
        except ConditioningError:
            return math.nan
        try:
            out[2:] = _score_from_buffers(cm, h, buffers).ravel()
        except (np.linalg.LinAlgError, ZeroDivisionError):
            pass  # the score's parts stay NaN
    return ll
