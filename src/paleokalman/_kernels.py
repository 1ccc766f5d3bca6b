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
"""

from __future__ import annotations

import math

from .kalman import ConditioningError, loglik

# The package has no compiled path: every recursion runs as plain Python.
HAVE_NUMBA = False


def loglik_from_compiled(cm, params) -> float:
    """Exact-diffuse loglik of a kalman.CompiledModel at params; NaN if the
    point is inadmissible."""
    try:
        return loglik(cm, params)
    except ConditioningError:
        return math.nan
