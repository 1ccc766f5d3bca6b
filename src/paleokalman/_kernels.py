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

Given a score array, one call gives a BFGS evaluation its value and its
gradient: the forward pass runs in paths mode, whose loglik is the
path-free pass's bit for bit, and kalman.score's step from the buffers
(the smoother's backward pass and Fisher's identity) fills the array with
kalman.score's numbers, so the evaluation runs one forward pass, not two.
"""

from __future__ import annotations

import math

import numpy as np

from .kalman import ConditioningError, _paths_pass, _score_from_buffers, loglik

# The package has no compiled path: every recursion runs as plain Python.
HAVE_NUMBA = False


def loglik_from_compiled(cm, params, score=None) -> float:
    """Exact-diffuse loglik of a kalman.CompiledModel at params; NaN if the
    point is inadmissible.

    Given an array score, the same call fills it with d loglik / d params
    and returns the same float. The score is NaN where the loglik is, and
    where the backward pass fails: LinAlgError at a singular trend
    disturbance covariance (|rho| = 1), ZeroDivisionError at a zero
    predicted variance at state dimension 1. Floating-point warnings are
    off for such a call, since a variance at or near zero can divide by
    zero or overflow in the score.
    """
    if score is None:
        try:
            return loglik(cm, params)
        except ConditioningError:
            return math.nan
    h = np.asarray(params, dtype=float)
    score[:] = math.nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            ll, buffers = _paths_pass(cm, h)
        except ConditioningError:
            return math.nan
        try:
            score[:] = _score_from_buffers(cm, h, buffers)
        except (np.linalg.LinAlgError, ZeroDivisionError):
            pass  # the score stays NaN
    return ll
