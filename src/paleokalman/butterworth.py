"""Frequency-domain diagnostics for fitted trend models.

The smoother implied by a fitted signal-to-noise ratio q and trend order m
acts like a low-pass Butterworth filter with gain

    G(lambda) = 1 / (1 + q^-1 * 2^(2m) * sin^(2m)(lambda/2)).

Two frequency summaries are emitted, labeled explicitly because they
differ for m >= 2:

* cutoff_frequency: the tabulated convention, 2*asin(sqrt(q)/2). This is
  the order-1 half-gain expression evaluated at the fitted q of any order;
  it is what reproduces the published per-order cutoff values.
* half_gain_frequency: 2*asin(q^(1/(2m))/2), the frequency where the gain
  of the order-m filter is exactly one half.

For m = 1 the two coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _float_text, _write_csv

__all__ = [
    "gain",
    "cutoff_frequency",
    "half_gain_frequency",
    "signal_to_noise",
    "mean_increment",
    "GainCurve",
    "gain_curve",
    "write_gain_csv",
]


def _check_order(m) -> int:
    if int(m) != m or m < 1:
        raise ValueError(f"order m must be an integer >= 1, got {m!r}")
    return int(m)


def _check_q(q) -> float:
    # q as a plain float, so that a numpy q gives plain float results
    if not q > 0:
        raise ValueError(f"signal-to-noise ratio q must be positive, got {q}")
    return float(q)


def gain(lam: float, q: float, m: int) -> float:
    """Low-pass gain at angular frequency lam in [0, pi]."""
    m = _check_order(m)
    q = _check_q(q)
    if not 0.0 <= lam <= math.pi + 1e-12:
        raise ValueError(f"lambda must lie in [0, pi], got {lam}")
    return 1.0 / (1.0 + (2.0 ** (2 * m)) * math.sin(0.5 * lam) ** (2 * m) / q)


def cutoff_frequency(q: float) -> float:
    """Tabulated cutoff lambda_h = 2*asin(sqrt(q)/2).

    The trend order does not enter the expression; it selects which fitted
    q is plugged in. Defined for 0 < q <= 4; beyond that the argument of
    asin exceeds 1 and no finite cutoff exists.
    """
    _check_q(q)
    arg = 0.5 * math.sqrt(q)
    if arg > 1.0:
        raise ValueError(f"no finite cutoff: q = {q} exceeds 4")
    return 2.0 * math.asin(arg)


def half_gain_frequency(q: float, m: int) -> float:
    """Frequency where the order-m gain is exactly 0.5.

    lambda = 2*asin(q^(1/(2m))/2); defined for 0 < q <= 2^(2m).
    """
    m = _check_order(m)
    _check_q(q)
    arg = 0.5 * q ** (1.0 / (2.0 * m))
    if arg > 1.0:
        raise ValueError(f"no finite half-gain frequency: q = {q} exceeds {2 ** (2 * m)}")
    return 2.0 * math.asin(arg)


def signal_to_noise(sigma_eta2: float, sigma_eps2: float, mean_dt: float) -> float:
    """q = sigma_eta2 * mean_dt / sigma_eps2.

    All three inputs must be positive and finite, and so must q: a zero or
    infinite q has no cutoff frequency.
    """
    for name, x in (("sigma_eta2", sigma_eta2), ("sigma_eps2", sigma_eps2), ("mean_dt", mean_dt)):
        if not 0.0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {x}")
    q = sigma_eta2 * mean_dt / sigma_eps2
    if not 0.0 < q < math.inf:
        raise ValueError(f"signal-to-noise ratio q = {q} is not positive and finite")
    return q


def mean_increment(stamps) -> float:
    """(last - first) / (N - 1) over unique stamps."""
    uniq = sorted(set(float(s) for s in stamps))
    if len(uniq) < 2:
        raise ValueError("need at least two distinct stamps")
    return (uniq[-1] - uniq[0]) / (len(uniq) - 1)


@dataclass(frozen=True)
class GainCurve:
    """A sampled gain function; gain(0) = 1 and samples are nonincreasing."""

    m: int
    q: float
    samples: tuple  # of (lambda, gain)


def gain_curve(q: float, m: int, n_samples: int = 1024) -> GainCurve:
    """Sample the gain on a uniform lambda grid over [0, pi]."""
    m = _check_order(m)
    if n_samples < 2:
        raise ValueError("need at least two samples")
    q = _check_q(q)
    lams = np.linspace(0.0, math.pi, n_samples).tolist()
    return GainCurve(m=m, q=q, samples=tuple((lam, gain(lam, q, m)) for lam in lams))


def write_gain_csv(curve: GainCurve, path, header_lines=()) -> None:
    """Emit lambda,gain rows for external plotting."""
    columns = np.array(curve.samples, dtype=float).reshape(-1, 2)
    _write_csv(path, header_lines, ["lambda", "gain"], text=_float_text(columns))
