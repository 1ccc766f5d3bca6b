"""Reference booking schedule: the row-by-row loop the vectorized one replaced.

For each series and each pair of consecutive observed rows, a running sum of
the row increments in between, left to right. The parity test compares
modelspec.booking_schedule against it bit for bit, so it stays in this plain
form.
"""

from __future__ import annotations

import numpy as np


def booking_schedule(dts, observed) -> tuple:
    """(apply, window) as modelspec.booking_schedule documents them."""
    steps = np.asarray(dts, dtype=float).tolist()
    observed = np.asarray(observed, dtype=bool)
    if observed.ndim == 1:
        observed = observed[:, None]
    n, k = observed.shape
    apply_ = np.zeros((n, k), dtype=bool)
    window = np.zeros((n, k))
    for j in range(k):
        rows = np.flatnonzero(observed[:, j]).tolist()
        booked = []
        for prev, nu in zip(rows, rows[1:]):
            acc = 0.0
            for dt in steps[prev + 1 : nu + 1]:
                acc += dt
            booked.append(acc)
        apply_[rows[1:], j] = True
        window[rows[1:], j] = booked
    return apply_, window
