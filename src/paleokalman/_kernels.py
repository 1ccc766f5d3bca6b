"""The log-likelihood entry point that the fitting loop evaluates.

The loglik is kalman.loglik's: one run of the filter's own forward
recursion (kalman._forward_pass), without its paths, so the two logliks are
equal bit for bit. At state dimension 1 that is the one float forward
recursion (kalman._forward_dim1), whose paths, its per-slot record, feed
the backward sweep over the moving rows (kalman._smoothed_dim1) that
smooth and the score share; a score builds no buffer over every row. A
call costs those two loops and a fixed few numpy calls, with one
np.errstate scope for the forward pass and one for the score. Here an
inadmissible parameter point (an innovation variance that is not a finite
normal positive float, a loglik sum that is not finite, or trend
variances with no real increment covariance) gives NaN rather than
ConditioningError, so the optimizer can score it.

Given an array, the same call also fills it with the (S, N*) that every
forward pass returns, which is what a fit that profiles the common scale of
the variances out reads: S, the sum of v^2 / F over the slots past the
diffuse phase, and N*, their number. A longer array asks for the score too:
the forward pass then runs in paths mode, whose loglik is the path-free
pass's bit for bit, and kalman.score's step from the buffers (the
smoother's backward pass and Fisher's identity) gives the score's two
parts, so a BFGS evaluation runs one forward pass, not two.
"""

from __future__ import annotations

import math

import numpy as np

from . import kalman

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
    at state dimension 1. Floating-point warnings are off for the score,
    since a variance at or near zero can divide by zero or overflow there.
    """
    if out is None:
        try:
            return kalman._forward_pass(cm, params)[0]
        except kalman.ConditioningError:
            return math.nan
    h = np.asarray(params, dtype=float)
    try:
        ll, (out[0], out[1]), buffers, _ = kalman._forward_pass(cm, h, out.size > 2)
    except kalman.ConditioningError:
        out[:] = math.nan
        return math.nan
    if buffers is not None:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                out[2:] = kalman._score_from_buffers(cm, h, buffers).ravel()
            except (np.linalg.LinAlgError, ZeroDivisionError):
                out[2:] = math.nan
    return ll
