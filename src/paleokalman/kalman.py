"""Kalman filter and fixed-interval smoother with exact diffuse initialization.

The filter runs over time-varying system matrices produced from a ModelSpec,
processing the (at most eight) measurement slots of a row one at a time,
which is valid because the measurement covariance is diagonal. The initial
state is diffuse by default: its covariance is carried as P = P_star +
kappa * P_inf with the kappa -> infinity limit taken analytically, so no
large-kappa numerics enter. The diffuse phase ends once enough observations
have annihilated P_inf (max entry below 1e-10), after which the recursion
is the ordinary Kalman filter.

Missing-row semantics: a series' state block stays frozen across rows where
the series has no value, and the trend transition is applied once at its
next observed row with the disturbance variance scaled by the window since
its previous observed row, the difference of the two stamps. Inserting
all-missing rows therefore changes nothing at the original rows, bit for
bit.

Both recursions run on plain Python floats: a state vector is a list of s
floats and an s x s matrix a flat list of s*s floats, entry (r, c) at
r*s + c. Their parameter-independent inputs are the flat columns of a
CompiledModel, which compile_model builds once from the panel's group keys,
so the many loglik passes of a fit share them. The per-slot columns that
the float loop at state dimension 1 reads are tuples, kept again as
read-only arrays for numpy; the per-row and per-(row, series) columns are
read-only arrays, of which _forward, _backward and _score take one
.tolist() per pass. At the state dimensions measured (s = 1 to 6) this
beats numpy, whose per-call overhead dominates on such small arrays.

One forward recursion, run by one entry (_forward_pass) for loglik,
filter, score, impute and the fit's kernel, has two modes. Paths mode
keeps eight flat float64 buffers (pred_a, pred_P, pred_Pi, filt_a, filt_P,
v, F, booked): per row the predicted and filtered moments and the
disturbance covariance booked, pred_Pi, the diffuse part of the
prediction, over the diffuse rows only, and per observed slot the
innovation and its variance; at state dimension 1 they are derived on
demand (see below). loglik, which a fit's value-only evaluations call,
keeps only what the slots give the log terms, so the logliks of the two
modes are equal bit for bit. Every pass also returns S, the sum of v^2 / F
over the slots past the diffuse phase, and N*, their number, with which
fitting profiles the common scale of the variances out.

The buffers are the only hand-off between the passes: smooth, score and
imputation.impute read them through one backward entry, _smoothed, the RTS
smoother in disturbance form. It needs only the predicted moments, the
disturbance covariance each row booked and the predicted precision, taken
in its kappa -> infinity limit at the diffuse rows, so one code path
covers both regimes. Only filter wraps the buffers in a StatePaths.

At state dimension 1 each pass has a float twin that does the list
recursion's operations in its order, so their numbers are equal bit for
bit; the tests keep the list recursions there as the references.
_forward_dim1 walks the observed slots, not the rows: a moving row books
its transition variance just before its first slot, a row without slots
changes nothing, and the diffuse phase ends at its one diffuse slot, slot
0, which runs before the loop. The loop is the same in both modes: it
keeps each slot's innovation v and predicted variance P, and nothing else.
numpy then does, with the same bits and in one np.errstate scope, what
needs no running state: F = P + h[hidx], its range check and the log
terms, copying F only where a buffer keeps it, and in paths mode
each slot's filtered (a, P), the mean as a running sum in slot order. The
paths are a _SlotPaths: v and F per slot and, per row, the filtered
moments its first slot starts from. _smoothed_dim1 reads only those, a
moving row predicted as its first slot starts plus the variance it books,
so score and impute build no buffer over every row; _rows_dim1 derives the
eight buffers, with _forward's bytes, only when filter unpacks them.
_smoothed_dim1 gets each moving row's b and c from numpy first, and its
float loop only updates the mean and the variance. Above state dimension
1, _smoothed_lists keeps only what is sequential, a rank-k update and a
block back-substitution per row, and takes the precisions it needs from
batched solves.

Both backward passes step only through the rows that move some block, last
first, and _filled fills every other row, or just the listed ones, by one
index, so an all-missing row costs no step.

score, the exact gradient of the loglik that fitting climbs, reads the two
passes' smoothed moments by Fisher's identity, its terms summed by
np.bincount in two parts, quad (the terms in the squared residuals) and
rest, which a common scale of the variances moves by different powers:
_score_dim1 reads the float sweep's b and c, and each slot's smoothed
moments through one index (CompiledModel.slot_fill), and the numpy path
_score, its reference at state dimension 1, the same passes. One step,
_score_from_buffers, gives the two parts from a paths-mode pass's buffers.
score, which sums them, and the fit's kernel (_kernels.loglik_from_compiled
with an array of 2 + 2d entries) both run it after _forward_pass, and the
kernel keeps that pass's loglik and (S, N*) too, so a value and its score
cost one forward pass. score and impute build no FilterRun, StatePaths or
smoothed array over every row; filter and smooth remain the whole-panel
passes that keep every path.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from operator import add, mul, sub

import numpy as np

from .core import MAX_SLOTS, SERIES_NAMES, PanelDataset, _float_text, _write_csv
from .modelspec import (
    ModelSpec,
    ParameterLayout,
    booking_schedule,
    group_keys,
)

__all__ = [
    "ConditioningError",
    "CompiledModel",
    "StatePaths",
    "FilterRun",
    "compile_model",
    "filter",
    "loglik",
    "score",
    "smooth",
    "state_component_names",
    "write_state_paths_csv",
    "DIFFUSE_TOL",
]

DIFFUSE_TOL = 1e-10
_LOG2PI = float(np.log(2.0 * np.pi))


class ConditioningError(RuntimeError):
    """The filter failed at some row: an innovation variance or loglik sum
    out of range, or trend variances with no real increment covariance."""

    def __init__(self, row_index: int, message: str):
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


# ---------------------------------------------------------------------------
# compilation: dataset + spec -> the flat inputs the recursions read
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledModel:
    """The parameter-independent inputs of the recursions, in the flat form
    they read.

    The observed slots are listed in row-major order, at (obs_row, obs_col)
    of the (n, p) slot grid: row nu owns the next count[nu] of them, and
    slot o reads the value y[o], the measurement-variance index hidx[o] and
    the state index level[o] of its series level. Per row, moved[nu] says
    whether some series applies the trend transition and corr[nu] is the
    correlation index (-1 absent). moving lists the rows where moved is set
    (never row 0), the only rows the backward passes step through; they
    give row n - 1's moments, then row u - 1's for each moving row u, last
    first, and row nu takes entry fill[nu], the count of moving rows above
    it, as slot o does slot_fill[o], its row's. Per (row, series), at [nu,
    j], apply_ and window give the booking schedule
    (modelspec.booking_schedule): the window is the row's stamp minus that
    of the series' previous observed row. tvar is the
    transition-variance index (-1 absent).

    Only the per-slot y and hidx, and book_tvar and book_window below, are
    tuples of floats and ints, because the float loop at state dimension 1
    reads nothing else. The other columns are read-only arrays: level,
    count, moved, corr, apply_, window and tvar are read by _forward,
    _backward and _score, which take one .tolist() of each they loop over
    per pass, and by numpy indexing. y_array and hidx_array hold y and hidx
    again as arrays, for the numpy steps: _forward_dim1's innovation
    variances after its loop, the score's measurement terms and
    fitting.default_start.

    At state dimension 1 (None otherwise) two more tuples are per slot, for
    _forward_dim1's slot loop: book_tvar[o] is the transition-variance
    index booked just before slot o, set only at the first slot of a moving
    row and -1 elsewhere, and book_window[o] is the window of slot o's row.
    paths_index holds the read-only arrays (at, tvar, window) that the
    per-row paths are derived with: at[nu] is the number of slots before
    row nu (at[n] of all), and tvar and window are what each moving row
    books.

    compile_model builds it once from the panel's columnar view
    (PanelDataset.view) and the group keys modelspec.group_keys resolves
    there, with one layout lookup per distinct key; a key the layout lacks
    raises KeyError, as does a transition regime the layout lacks at a row
    where the series moves. The model is frozen and holds only tuples and
    read-only arrays, so every pass reads the same inputs.
    """

    spec: ModelSpec
    n: int
    n_series: int
    m: int
    s: int
    p: int
    stamps: np.ndarray  # (n,)
    obs_row: np.ndarray
    obs_col: np.ndarray
    level: np.ndarray
    y: tuple
    hidx: tuple
    y_array: np.ndarray
    hidx_array: np.ndarray
    count: np.ndarray  # (n,)
    moved: np.ndarray  # (n,)
    corr: np.ndarray  # (n,)
    apply_: np.ndarray  # (n, k)
    window: np.ndarray  # (n, k)
    tvar: np.ndarray  # (n, k)
    moving: np.ndarray
    fill: np.ndarray
    slot_fill: np.ndarray
    book_tvar: tuple | None
    book_window: tuple | None
    paths_index: tuple | None

    @property
    def n_obs_slots(self) -> int:
        return len(self.y)


def compile_model(
    spec: ModelSpec, layout: ParameterLayout, data: PanelDataset
) -> CompiledModel:
    n = data.n_rows
    k = spec.n_series
    m = spec.order_m
    view = data.view
    keys = group_keys(spec, view)

    hidx = np.empty(keys.slot.size, dtype=np.int64)
    tvar = np.empty((n, k), dtype=np.int64)
    corr = np.full(n, -1, dtype=np.int64)
    for j, sr in enumerate(spec.series):
        on = keys.local == j
        hidx[on] = _lookup(keys.meas[on], lambda key: layout.meas_index[(sr, key)])
        tvar[:, j] = _lookup(keys.trans, lambda key: layout.trans_index.get((sr, key), -1))
    if k == 2:
        corr[:] = _lookup(keys.corr, lambda key: layout.corr_index.get(key, -1))
    apply_, window = booking_schedule(view.stamps, keys.observed)
    unbooked = np.argwhere(apply_ & (tvar < 0))
    if unbooked.size:  # a row moves a series under a regime the layout lacks
        nu, j = unbooked[0].tolist()
        raise KeyError((spec.series[j], keys.trans[nu : nu + 1].tolist()[0]))
    count = np.bincount(keys.row, minlength=n)
    level = keys.local * m
    moved = apply_.any(axis=1)
    moving = np.flatnonzero(moved)
    fill = moving.size - np.searchsorted(moving, np.arange(n), side="right")
    book_tvar = book_window = paths_index = None
    if k * m == 1:
        at = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(count, out=at[1:])
        book = np.full(keys.row.size, -1, dtype=np.int64)
        book[at[moving]] = tvar[moving, 0]  # at each moving row's first slot
        book_tvar = tuple(book.tolist())
        book_window = tuple(window[keys.row, 0].tolist())
        paths_index = at, tvar[moving, 0], window[moving, 0]
    y = view.value[keys.slot]
    frozen = (keys.row, keys.col, level, y, hidx, count, moved, corr, apply_, window, tvar)
    slot_fill = fill[keys.row]
    for a in (*frozen, moving, fill, slot_fill, *(paths_index or ())):
        a.setflags(write=False)

    return CompiledModel(
        spec=spec,
        n=n,
        n_series=k,
        m=m,
        s=k * m,
        p=MAX_SLOTS * k,
        stamps=view.stamps,
        obs_row=keys.row,
        obs_col=keys.col,
        level=level,
        y=tuple(y.tolist()),
        hidx=tuple(hidx.tolist()),
        y_array=y,
        hidx_array=hidx,
        count=count,
        moved=moved,
        corr=corr,
        apply_=apply_,
        window=window,
        tvar=tvar,
        moving=moving,
        fill=fill,
        slot_fill=slot_fill,
        book_tvar=book_tvar,
        book_window=book_window,
        paths_index=paths_index,
    )


def _lookup(keys: np.ndarray, index) -> np.ndarray:
    # index(key) for every entry of keys, one call per distinct key
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array([index(key) for key in distinct.tolist()], dtype=np.int64)[inverse]


# flat-list helpers -----------------------------------------------------------
# A state vector is a list of s floats; an s x s matrix is a list of s*s
# floats with entry (r, c) at r*s + c, so column c is the slice [c::s].


def _transposer(s: int) -> list:
    # P[j] for j in _transposer(s) lists P' in flat order
    return [c * s + r for r in range(s) for c in range(s)]


def _symmetrized(P: list, transposer: list) -> list:
    # 0.5 (P + P'); the diagonal is unchanged bit for bit
    return [0.5 * (x + P[j]) for x, j in zip(P, transposer)]


# the unit upper-bidiagonal trend transition T on the listed blocks (tops),
# identity elsewhere; the matrix forms do all row steps before any column step


def _T_mat(P: list, tops, m: int, s: int) -> None:
    # P <- A P A': row i += row i+1 then column i += column i+1, ascending
    for top in tops:
        for i in range(top * s, (top + m - 1) * s, s):
            P[i : i + s] = map(add, P[i : i + s], P[i + s : i + 2 * s])
    for top in tops:
        for i in range(top, top + m - 1):
            for j in range(i, s * s, s):
                P[j] += P[j + 1]


def _T_inv_mat(V: list, tops, m: int, s: int) -> None:
    # V <- A^-1 V A^-T: row i -= row i+1 then column i -= column i+1, descending
    for top in tops:
        for i in range((top + m - 2) * s, top * s - 1, -s):
            V[i : i + s] = map(sub, V[i : i + s], V[i + s : i + 2 * s])
    for top in tops:
        for i in range(top + m - 2, top - 1, -1):
            for j in range(i, s * s, s):
                V[j] -= V[j + 1]


def _paths_array(buf, *shape: int) -> np.ndarray:
    # the rows held in buf, each of the given shape, as one array
    return np.frombuffer(buf).reshape(-1, *shape)


def _slot_columns(buf: array, rows, cols, shape: tuple) -> np.ndarray:
    # one value per observed slot at its (row, column), NaN elsewhere
    out = np.full(shape, np.nan)
    out[rows, cols] = np.frombuffer(buf)
    return out


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------


@dataclass
class StatePaths:
    """Per-row state estimates in predicted, filtered, and smoothed form.

    filter builds it over the forward pass's buffers, whose per-row means
    and covariances it views without a copy. Covariance arrays hold the
    proper parts. Innovations and their variances are per slot, NaN where
    the slot is missing. diffuse_rows flags rows processed while
    initialization was still diffuse; they are always a leading run of
    rows. smooth fills the smoothed fields.
    """

    stamps: np.ndarray
    predicted_means: np.ndarray
    predicted_covs: np.ndarray
    filtered_means: np.ndarray
    filtered_covs: np.ndarray
    innovations: np.ndarray
    innovation_variances: np.ndarray
    diffuse_rows: np.ndarray
    smoothed_means: np.ndarray | None = None
    smoothed_covs: np.ndarray | None = None

    def standardized_residuals(self) -> np.ndarray:
        """Per-slot innovations divided by their standard deviation.

        Shape (n_rows, n_slot_columns); NaN at missing slots and over every
        row still inside the diffuse phase, where no proper innovation
        variance exists.
        """
        with np.errstate(invalid="ignore"):
            out = self.innovations / np.sqrt(self.innovation_variances)
        out[self.diffuse_rows, :] = np.nan
        return out


@dataclass
class FilterRun:
    """Filter output plus the forward pass's buffers, which smooth reads
    (see the module docstring); booked holds the k x k covariance of the
    trend-tail disturbances that each row booked, zero where no block
    moves. At state dimension 1 the buffers are the pass's _SlotPaths."""

    compiled: CompiledModel
    loglik: float
    paths: StatePaths
    n_diffuse_slots: int
    buffers: tuple | _SlotPaths = field(repr=False)


def filter(
    spec: ModelSpec,
    layout: ParameterLayout,
    params,
    data: PanelDataset,
    init=None,
    compiled: CompiledModel | None = None,
) -> FilterRun:
    """One forward pass: loglik and the predicted/filtered paths.

    init is None, the diffuse start, or a proper prior (a1, P1). Missing
    slots are skipped; rows where every slot of a series is missing leave
    that series' state block frozen per the booking semantics.
    """
    cm = compiled if compiled is not None else compile_model(spec, layout, data)
    params = layout.validate_params(params)
    s = cm.s
    start = None
    if init is not None:
        a1, P1 = init
        a = np.asarray(a1, dtype=float).reshape(s).tolist()
        Ps = np.asarray(P1, dtype=float).reshape(s * s).tolist()
        start = a, Ps, [0.0] * (s * s), False

    ll, _, buffers, n_diffuse = _forward_pass(cm, params, True, start)
    pred_a, pred_P, pred_Pi, filt_a, filt_P, v, F, _ = buffers
    n = cm.n
    paths = StatePaths(
        stamps=cm.stamps,
        predicted_means=_paths_array(pred_a, s),
        predicted_covs=_paths_array(pred_P, s, s),
        filtered_means=_paths_array(filt_a, s),
        filtered_covs=_paths_array(filt_P, s, s),
        innovations=_slot_columns(v, cm.obs_row, cm.obs_col, (n, cm.p)),
        innovation_variances=_slot_columns(F, cm.obs_row, cm.obs_col, (n, cm.p)),
        diffuse_rows=np.arange(n) < len(pred_Pi) // (s * s),
    )
    return FilterRun(
        compiled=cm,
        loglik=ll,
        paths=paths,
        n_diffuse_slots=n_diffuse,
        buffers=buffers,
    )


def loglik(compiled: CompiledModel, params) -> float:
    """Exact-diffuse loglik at params: filter's forward pass without paths.

    The pass is filter's (_forward_pass), so the two logliks are equal bit
    for bit. The parameters are used as given, not validated. A point where
    some innovation variance is not a finite normal positive float (a
    subnormal one would overflow 1 / F), where some slot's loglik term
    makes the sum non-finite, or where the trend variances give no real
    increment covariance, raises ConditioningError naming the row.
    """
    return _forward_pass(compiled, params)[0]


def score(compiled: CompiledModel, params) -> np.ndarray:
    """d loglik / d params at params, on the natural scale.

    Fisher's identity (Segal & Weinstein 1989): the score is the expected
    complete-data score given the data, so one forward pass in paths mode
    and smooth's backward pass over its buffers give it exactly; no
    FilterRun or StatePaths is built. With x and V the smoothed moments, a
    slot with measurement variance r adds -1/(2r) + ((y - x_level)^2 +
    V_level)/(2r^2) to r's coordinate. A row u that books the trend-tail
    disturbance covariance Q adds tr((Q^-1 S Q^-1 - Q^-1) dQ)/2 over the
    series it moves, where S = E[eta eta' | data] = eta eta' + C + B V_u B'
    with eta = B (x_u - a_{u|u-1}) and B, C as in smooth. dQ covers the
    cross-covariance rho sqrt(s1 s2) min(w1, w2) of a bivariate row.

    The score is the sum of two parts, which _kernels.loglik_from_compiled
    hands the fit separately: quad, the terms in the squared residuals
    (y - x_level)^2 and eta eta', and rest, the others. Scaling every
    variance by c leaves x, B and eta unchanged and scales V, C and Q by c,
    so the score at c * params is quad / c^2 + rest / c in a variance's
    coordinate and quad / c + rest in a correlation's.

    At state dimension 1 the parts sum the float sweep's terms
    (_score_dim1), equal bit for bit to the numpy path (_score) that runs
    every larger state and reads the same passes. A measurement or trend
    variance of 0.0 gives the same inf or NaN coordinates on both; a zero
    predicted variance at a moving row raises ZeroDivisionError there, as
    in smooth.

    The parameters are used as given, as in loglik, which raises the same
    ConditioningError at an inadmissible point.
    """
    h = np.asarray(params, dtype=float)
    quad, rest = _score_from_buffers(compiled, h, _forward_pass(compiled, h, True)[2])
    return quad + rest


def _passes(cm: CompiledModel, h: np.ndarray) -> tuple:
    # the two passes at h: the forward pass in paths mode and smooth's
    # backward pass over its buffers, _smoothed's (X, XV, A, (succ, Q, B, C))
    return _smoothed(cm, _forward_pass(cm, h, True)[2])


def _score_from_buffers(cm: CompiledModel, h: np.ndarray, buffers: tuple) -> np.ndarray:
    # the score's parts (quad, rest) at h, as a (2, d) array, from a
    # paths-mode forward pass's buffers there: smooth's backward pass over
    # them, summed by _score_dim1 at s = 1, else _score
    return (_score_dim1 if cm.s == 1 else _score)(cm, h, _smoothed(cm, buffers))


def _score(cm: CompiledModel, h: np.ndarray, passes: tuple) -> np.ndarray:
    # score's numpy path over the two passes (_passes' result), as its parts
    # (quad, rest): every state dimension, and the reference at s = 1
    X, XV, A, (succ, Q, B, C) = passes
    X, V = _filled(cm, X, XV)

    d = h.size
    rows, level, hidx = cm.obs_row, cm.level, cm.hidx_array
    e = cm.y_array - X[rows, level]
    var = h[hidx]
    quad = np.bincount(hidx, e * e / var / (2.0 * var), minlength=d)
    rest = np.bincount(hidx, (V[rows, level, level] / var - 1.0) / (2.0 * var), minlength=d)

    k = cm.n_series
    apply_, window, tvar = cm.apply_[succ], cm.window[succ], cm.tvar[succ]
    eta = B @ (X[succ] - A)[:, :, None]
    S_quad = eta * eta.transpose(0, 2, 1)
    S_rest = C + B @ V[succ] @ B.transpose(0, 2, 1)
    both = apply_.all(axis=1) if k == 2 else np.zeros(succ.size, dtype=bool)
    for j in range(k):  # rows where series j moves alone
        one = apply_[:, j] & ~both
        q, w, t = Q[one, j, j], window[one, j], tvar[one, j]
        quad += np.bincount(t, S_quad[one, j, j] / q / q * w / 2.0, minlength=d)
        rest += np.bincount(t, (S_rest[one, j, j] / q - 1.0) / q * w / 2.0, minlength=d)
    if both.any():  # rows where both move: batched 2 x 2 inverses
        Q2, w = Q[both], window[both]
        Qi = np.linalg.inv(Q2)
        sig = h[tvar[both]]  # (rows, 2) the two trend variances
        ci = cm.corr[succ[both]]
        on = ci >= 0
        for part, M in (
            (quad, Qi @ S_quad[both] @ Qi),
            (rest, Qi @ S_rest[both] @ Qi - Qi),
        ):
            m12 = 0.5 * (M[:, 0, 1] + M[:, 1, 0])
            for j in range(2):
                dj = (M[:, j, j] * w[:, j] + m12 * Q2[:, 0, 1] / sig[:, j]) / 2.0
                part += np.bincount(tvar[both, j], dj, minlength=d)
            dr = m12 * np.sqrt(sig[:, 0] * sig[:, 1]) * w.min(axis=1)
            part += np.bincount(ci[on], dr[on], minlength=d)
    return np.array((quad, rest))


def _score_dim1(cm: CompiledModel, h: np.ndarray, passes: tuple) -> np.ndarray:
    # _score at s = 1, bit for bit: the passes' float moments and the q, b
    # and c of their moving rows, and _score's np.bincount sums, the
    # measurement terms in slot order and the transition terms over the
    # moving rows in row order. The slots read their rows' smoothed moments
    # through cm.slot_fill, and the moving rows take the entries before the
    # last in reverse: a moving row u's, fill[u], counts the ones above it
    X, XV, A, (succ, q, b, c) = passes
    A, q, b, c = (x.reshape(-1) for x in (A, q, b, c))
    X, XV = np.frombuffer(X), np.frombuffer(XV)
    XV = (XV + XV) * 0.5  # _filled's symmetrization
    Xu, XVu = X[-2::-1], XV[-2::-1]
    X, XV = X[cm.slot_fill], XV[cm.slot_fill]

    d = h.size
    hidx = cm.hidx_array
    e = cm.y_array - X
    var = h[hidx]
    quad = np.bincount(hidx, e * e / var / (2.0 * var), minlength=d)
    rest = np.bincount(hidx, (XV / var - 1.0) / (2.0 * var), minlength=d)

    _, tvar, window = cm.paths_index
    eta = b * (Xu - A)
    quad += np.bincount(tvar, eta * eta / q / q * window / 2.0, minlength=d)
    rest += np.bincount(tvar, ((c + b * XVu * b) / q - 1.0) / q * window / 2.0, minlength=d)
    return np.array((quad, rest))


def _diffuse_start(s: int) -> tuple:
    # (a, P_star, P_inf, diffuse) with P_inf the identity
    P_inf = [float(i % (s + 1) == 0) for i in range(s * s)]
    return [0.0] * s, [0.0] * (s * s), P_inf, True


def _forward_pass(cm: CompiledModel, params, keep_paths: bool = False, start=None) -> tuple:
    # the forward recursion at params, as _forward returns it, from start =
    # (a, P_star, P_inf, diffuse), the diffuse start if None: _forward_dim1
    # at state dimension 1, _forward above it
    h = np.asarray(params, dtype=float).tolist()
    start = _diffuse_start(cm.s) if start is None else start
    return (_forward_dim1 if cm.s == 1 else _forward)(cm, h, *start, keep_paths)


def _forward(
    cm: CompiledModel,
    h: list,
    a: list,
    Ps: list,
    Pi: list,
    diffuse: bool,
    keep_paths: bool,
) -> tuple:
    """The exact-diffuse forward recursion, Durbin & Koopman (2012)
    sections 5.2-5.3, from the state (a, Ps, Pi) before row 0.

    Returns (loglik, (S, N*), buffers, number of diffuse slots), with S and
    N* as _log_sum gives them, and the buffers flat float64 arrays (pred_a,
    pred_P, pred_Pi, filt_a, filt_P, v, F, booked): per row, pred_Pi over
    the diffuse rows only; v and F per observed slot; booked the k x k
    trend-tail disturbance covariance of each row. Here all eight are
    array('d')s appended row by row. _forward_dim1 appends v and the
    predicted variance P per slot, and returns a _SlotPaths, which gives
    the eight as numpy arrays with the same bytes. Without keep_paths only
    v and F are kept, for the log terms, and buffers is None.
    """
    n, s = cm.n, cm.s
    m, k = cm.m, cm.n_series
    ss = s * s
    y, hidx = cm.y, cm.hidx
    count, level, moved, corr = (x.tolist() for x in (cm.count, cm.level, cm.moved, cm.corr))
    apply_, window, tvar = (x.ravel().tolist() for x in (cm.apply_, cm.window, cm.tvar))
    tail = [(j * m + m - 1) * (s + 1) for j in range(k)]  # flat index of (last, last)
    cross_at = ((m - 1) * s + 2 * m - 1, (2 * m - 1) * s + m - 1)
    rs = range(s)
    transposer = _transposer(s)

    rec_v, rec_F = array("d"), array("d")
    keep_v, keep_F = rec_v.append, rec_F.append
    rec_diffuse = {}
    tiny, inf = sys.float_info.min, math.inf  # F below tiny is subnormal
    if keep_paths:
        pred_a, pred_P, pred_Pi = array("d"), array("d"), array("d")
        filt_a, filt_P = array("d"), array("d")
        booked = array("d", bytes(8 * n * k * k))  # row nu's k x k block at nu*k*k
    first = 0  # the row's first slot

    for nu in range(n):
        if nu > 0 and moved[nu]:
            at = nu * k
            if m > 1:
                tops = [j * m for j in range(k) if apply_[at + j]]
                for top in tops:
                    for i in range(top, top + m - 1):
                        a[i] += a[i + 1]
                _T_mat(Ps, tops, m, s)
                if diffuse:
                    _T_mat(Pi, tops, m, s)
            for j in range(k):
                if apply_[at + j]:
                    q = h[tvar[at + j]] * window[at + j]
                    Ps[tail[j]] += q
                    if keep_paths:
                        booked[at * k + j * (k + 1)] = q
            if k == 2 and apply_[at] and apply_[at + 1]:
                ci = corr[nu]
                if ci >= 0 and h[ci] != 0.0:
                    var2 = h[tvar[at]] * h[tvar[at + 1]]
                    if not var2 >= 0.0:
                        raise ConditioningError(
                            nu, f"trend variance product {var2} has no real square root"
                        )
                    cross = h[ci] * math.sqrt(var2) * min(window[at], window[at + 1])
                    Ps[cross_at[0]] += cross
                    Ps[cross_at[1]] += cross
                    if keep_paths:
                        booked[4 * nu + 1] = booked[4 * nu + 2] = cross

        if keep_paths:
            pred_a.fromlist(a)
            pred_P.fromlist(Ps)
            if diffuse:
                pred_Pi.fromlist(Pi)  # the diffuse rows are a leading run

        last = first + count[nu]
        for o in range(first, last):
            e = level[o]
            v = y[o] - a[e]
            Ms = Ps[e::s]
            Fs = Ms[e] + h[hidx[o]]
            if diffuse and Pi[e * (s + 1)] > DIFFUSE_TOL:
                Mi = Pi[e::s]
                Fi = Mi[e]
                K = [x / Fi for x in Mi]
                a = [x + kr * v for x, kr in zip(a, K)]
                KK = [kr for kr in K for _ in rs]  # K[r] at r*s + c
                MK = [mr for mr in Ms for _ in rs]
                Ps = [
                    ((x + kr * kc * Fs) - kr * mc) - mr * kc
                    for x, kr, kc, mr, mc in zip(Ps, KK, K * s, MK, Ms * s)
                ]
                Pi = list(map(sub, Pi, [kr * mc for kr in K for mc in Mi]))
                rec_diffuse[o] = Fi
            else:
                if not tiny <= Fs < inf:
                    raise ConditioningError(
                        nu, f"innovation variance {Fs} at slot column {cm.obs_col[o]}"
                    )
                K = [x / Fs for x in Ms]
                a = [x + kr * v for x, kr in zip(a, K)]
                Ps = list(map(sub, Ps, [kr * mc for kr in K for mc in Ms]))
            keep_v(v)
            keep_F(Fs)
        first = last

        if s > 1:
            Ps = _symmetrized(Ps, transposer)
        if diffuse:
            if s > 1:
                Pi = _symmetrized(Pi, transposer)
            if max(map(abs, Pi)) < DIFFUSE_TOL:
                Pi = [0.0] * ss
                diffuse = False

        if keep_paths:
            filt_a.fromlist(a)
            filt_P.fromlist(Ps)

    F = np.array(rec_F) if keep_paths else np.frombuffer(rec_F)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ll, S, N = _log_sum(cm, np.frombuffer(rec_v), F, rec_diffuse)
    buffers = None
    if keep_paths:
        buffers = pred_a, pred_P, pred_Pi, filt_a, filt_P, rec_v, rec_F, booked
    return ll, (S, N), buffers, len(rec_diffuse)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # for the numpy tail
def _forward_dim1(
    cm: CompiledModel,
    h: list,
    a: list,
    Ps: list,
    Pi: list,
    diffuse: bool,
    keep_paths: bool,
) -> tuple:
    # _forward at s = 1, with the same arguments and results, from the
    # diffuse start (P_inf = 1) or a proper prior: a, P and P_inf are floats
    # instead of one-element lists, and every operation is _forward's, in
    # its order. The loop walks the observed slots, not the rows: a moving
    # row books its transition variance just before its first slot, and a
    # row without slots changes nothing. The diffuse phase ends at its one
    # diffuse slot, slot 0 from the diffuse start, where K = 1 annihilates
    # P_inf; that slot runs before the loop. The loop is the same in both
    # modes: per slot it keeps the innovation v and the predicted variance
    # P, and updates a and P. numpy does the rest afterwards, with the same
    # bits, in the one np.errstate scope of the decorator: F = P + h[hidx],
    # the loop's own sum, then its range check and the log terms
    # (_log_sum), and in paths mode each slot's filtered (a, P), which give
    # the paths (_SlotPaths). An F of +-0.0 stops the loop at its division;
    # the range check then names that slot, or an earlier one.
    rec_v, rec_P = array("d"), array("d")
    keep_v, keep_P = rec_v.append, rec_P.append
    (a,), (P,), (Pi,) = a, Ps, Pi
    Pi_start = Pi if diffuse else 0.0
    head = [(a, P)]  # the start's (a, P), then the diffuse slot's filtered ones
    F_inf = {}
    slots = zip(cm.y, cm.hidx, cm.book_tvar, cm.book_window)
    if diffuse and Pi > DIFFUSE_TOL and cm.y:
        yo, i, _, _ = next(slots)  # a series' first slot books nothing
        v = yo - a
        F = P + h[i]
        K = Pi / Pi  # M_inf / F_inf, both P_inf at s = 1
        a += K * v
        keep_v(v)
        keep_P(P)
        P = ((P + K * K * F) - K * P) - P * K
        F_inf[0] = Pi  # F_inf at s = 1
        Pi -= K * Pi
        head.append((a, P))

    try:
        for yo, i, t, w in slots:
            if t >= 0:
                P += h[t] * w
            v = yo - a
            keep_v(v)
            keep_P(P)
            K = P / (P + h[i])
            a += K * v
            P -= K * P
    except ZeroDivisionError:
        pass  # F is +-0.0, out of range

    h = np.array(h)
    v, P = np.frombuffer(rec_v), np.frombuffer(rec_P)
    F = P + h[cm.hidx_array[: P.size]]
    ll, S, N = _log_sum(cm, v, F.copy() if keep_paths else F, F_inf)
    paths = None
    if keep_paths:
        # each slot's filtered (a, P), as the loop filtered it after the
        # head: K = P / F, P - K * P, and a + K * v, added up in slot order
        # by np.cumsum from the mean the loop started at. With the start at
        # 0 and slot o's at o + 1, row nu starts from entry at[nu]
        d = len(head)
        slot_a, slot_P = np.empty(P.size + 1), np.empty(P.size + 1)
        slot_a[:d], slot_P[:d] = zip(*head)
        filt_a, filt_P = slot_a[d:], slot_P[d:]
        P, Fs, vs = P[d - 1 :], F[d - 1 :], v[d - 1 :]
        np.divide(P, Fs, out=filt_P)  # K, in the loop's order
        np.multiply(filt_P, vs, out=filt_a)
        np.multiply(filt_P, P, out=filt_P)
        np.subtract(P, filt_P, out=filt_P)
        if filt_a.size:
            filt_a[0] += slot_a[d - 1]
            np.cumsum(filt_a, out=filt_a)
        at = cm.paths_index[0]
        # the diffuse rows, from a start with P_inf = Pi (0 if proper), run
        # to the diffuse slot's row, or to the end if no slot ends the phase
        n_diffuse_rows = 0
        if Pi_start:
            n_diffuse_rows = int(cm.obs_row[0]) + 1 if d > 1 else cm.n
        pred_Pi = np.full(n_diffuse_rows, Pi_start)
        paths = _SlotPaths(cm, h, v, F, slot_a[at], slot_P[at], pred_Pi)
    return ll, (S, N), paths, len(F_inf)


@dataclass(eq=False)
class _SlotPaths:
    """_forward_dim1's paths: v and F per slot, per row nu the filtered
    moments A[nu], P[nu] that its first slot starts from (A[n], P[n] the
    last row's), and _forward's pred_Pi. Indexed or unpacked it is
    _forward's eight buffers, which _rows_dim1 derives on the first read,
    for filter."""

    cm: CompiledModel
    h: np.ndarray
    v: np.ndarray
    F: np.ndarray
    A: np.ndarray
    P: np.ndarray
    pred_Pi: np.ndarray
    rows: tuple | None = None

    def __len__(self) -> int:
        return 8

    def __getitem__(self, i):
        if self.rows is None:
            self.rows = _rows_dim1(self)
        return self.rows[i]


def _rows_dim1(paths: _SlotPaths) -> tuple:
    # _forward's eight buffers at s = 1 from _forward_dim1's paths: row nu
    # is filtered as row nu + 1 starts, and predicted as it starts, plus the
    # variance it books if it moves; the diffuse rows are a leading run
    cm, A, P = paths.cm, paths.A, paths.P
    _, tvar, window = cm.paths_index
    q = paths.h[tvar] * window
    booked = np.zeros(cm.n)
    booked[cm.moving] = q
    pred_P = P[:-1].copy()
    pred_P[cm.moving] += q
    return A[:-1].copy(), pred_P, paths.pred_Pi, A[1:], P[1:], paths.v, paths.F, booked


def _log_sum(cm: CompiledModel, v: np.ndarray, F: np.ndarray, F_inf: dict) -> tuple:
    # (loglik, S, N*) from the slots' v and F, under the caller's
    # np.errstate(divide, over, invalid = "ignore"): slot o adds -(log 2pi +
    # log F + v^2 / F) / 2 to the loglik, with F_inf for F (set in F, in
    # place) and no v^2 term at a diffuse slot. The terms are vectorized;
    # the sum runs in slot order (np.cumsum: np.sum adds pairwise, which
    # moves the last bits). S is the sum of v^2 / F and N* the number of
    # slots past the diffuse phase, the two numbers the loglik's dependence
    # on a common scale of the variances reads. The first F that is not a
    # finite normal positive float raises _forward's ConditioningError (its
    # loop raises it first; at s = 1 it is raised here), and a sum that is
    # not finite raises at the slot where it stops being finite. An F_inf
    # exceeds DIFFUSE_TOL, and an infinite F makes the sum infinite or NaN,
    # so np.min tells a pass in range
    if not len(F):
        return 0.0, 0.0, 0
    # F_star is unchecked at a diffuse slot, but F_inf > 0: every divisor
    # is positive, and the v^2 term is +0.0
    for o, Fi in F_inf.items():
        F[o] = Fi
    q = v * v / F
    for o in F_inf:
        q[o] = 0.0
    total = np.log(F)
    total += _LOG2PI
    total += q
    total *= -0.5
    np.cumsum(total, out=total)
    ll = float(total[-1])
    tiny = sys.float_info.min
    if not (math.isfinite(ll) and F.min() >= tiny):
        ok = (F >= tiny) & (F < math.inf)
        if not ok.all():
            o = int(ok.argmin())
            raise ConditioningError(
                int(cm.obs_row[o]), f"innovation variance {float(F[o])} at slot column {cm.obs_col[o]}"
            )
        o = int(np.argmax(~np.isfinite(total)))
        raise ConditioningError(
            int(cm.obs_row[o]),
            f"loglik not finite from slot column {cm.obs_col[o]} on "
            f"(innovation {float(v[o])!r}, variance {float(F[o])!r})",
        )
    return ll, float(q.sum()), q.size - len(F_inf)


# ---------------------------------------------------------------------------
# smoother
# ---------------------------------------------------------------------------


def smooth(run: FilterRun) -> StatePaths:
    """Fixed-interval smoother; fills the smoothed fields of the paths.

    One backward recursion over the forward pass's buffers, the RTS
    smoother of Durbin & Koopman (2012) section 4.4 in disturbance form,
    for diffuse and post-diffuse rows alike. The last row starts from its
    filtered moments, and a row whose successor moves no block takes the
    successor's smoothed moments. Otherwise, with T the successor's
    transition, Q the disturbance covariance it booked, G its predicted
    precision P_{t+1|t}^-1 and L = I - Q G:

        mean_t = T^-1 (mean_{t+1} - Q G (mean_{t+1} - a_{t+1|t}))
        cov_t  = T^-1 (Q - Q G Q + L cov_{t+1} L') T^-T

    Inside the diffuse phase G is the kappa -> infinity limit
    U (U' P_star U)^-1 U', U spanning the null space of the diffuse part
    P_inf of P_{t+1|t}. Q is nonzero only at the trend tails, so only G's
    tail rows enter; they come from batched solves, and the sequential
    part is a rank-k update and a block back-substitution per row. The
    pass is the one score and imputation.impute run (_smoothed): at state
    dimension 1 one float sweep over the moving rows, with the same
    numbers bit for bit, where a zero predicted variance at a moving row
    raises ZeroDivisionError, naming the row.
    """
    cm, paths = run.compiled, run.paths
    X, XV, _, _ = _smoothed(cm, run.buffers)
    paths.smoothed_means, paths.smoothed_covs = _filled(cm, X, XV)
    return paths


def _smoothed(cm: CompiledModel, buffers: tuple) -> tuple:
    # the backward pass over a forward pass's buffers: (X, XV, A, (succ, Q,
    # B, C)), X and XV the moments as _filled reads them, succ the moving
    # rows, A = a_{u|u-1} and Q the covariance booked there, B the tail rows
    # of Q G and C = Q - Q G Q at the tails
    return (_smoothed_dim1 if cm.s == 1 else _smoothed_lists)(cm, buffers)


def _smoothed_dim1(cm: CompiledModel, paths: _SlotPaths) -> tuple:
    # _smoothed_lists at s = 1, bit for bit, over _forward_dim1's paths,
    # with A as (u, 1) and (succ, q, b, c) as (u, 1, 1) views and b = q *
    # (1.0 / P_{u|u-1}) as the batched 1 x 1 solve gives it; a moving row u
    # is predicted as paths.A[u] and paths.P[u] plus the q it books. A
    # series moves only after its first observed row, whose slot ends the
    # diffuse phase at s = 1, so G needs no diffuse limit.
    succ = cm.moving
    if succ.size and succ[0] < paths.pred_Pi.size:
        raise AssertionError(f"row {succ[0]} moves inside the diffuse phase")
    _, tvar, window = cm.paths_index
    q = paths.h[tvar] * window
    P = paths.P[succ] + q
    if not P.all():
        nu = succ[P == 0.0][-1]
        raise ZeroDivisionError(f"row {nu}: predicted variance 0.0 at a moving row")
    b = q * (1.0 / P)
    c = q - b * q
    A = paths.A[succ]
    x, V = float(paths.A[-1]), float(paths.P[-1])
    X, XV = [x], [V]
    for bu, cu, au in zip(b[::-1].tolist(), c[::-1].tolist(), A[::-1].tolist()):
        x -= bu * (x - au)
        V -= bu * V
        V = (V - bu * V) + cu
        X.append(x)
        XV.append(V)
    q, b, c = (y.reshape(-1, 1, 1) for y in (q, b, c))
    return array("d", X), array("d", XV), A.reshape(-1, 1), (succ, q, b, c)


def _filled(cm: CompiledModel, X: array, XV: array, fill: np.ndarray | None = None) -> tuple:
    # the rows' smoothed moments from X and XV, which hold row n - 1, then
    # row u - 1 for each moving row u, last first: row nu takes entry
    # cm.fill[nu], and with fill, row i of the result takes entry fill[i].
    # The covariances are symmetrized, in place.
    s = cm.s
    fill = cm.fill if fill is None else fill
    V = _paths_array(XV, s, s)[fill]
    np.add(V, V.transpose(0, 2, 1), out=V)
    V *= 0.5
    return _paths_array(X, s)[fill], V


def _smoothed_lists(cm: CompiledModel, buffers: tuple) -> tuple:
    # _smoothed on lists, at any state dimension: the reference for
    # _smoothed_dim1 at s = 1
    pred_a, pred_P, pred_Pi, filt_a, filt_P, _, _, booked = buffers
    s, m, k = cm.s, cm.m, cm.n_series
    tails = [j * m + m - 1 for j in range(k)]
    succ = cm.moving
    Q = _paths_array(booked, k, k)[succ]
    B = Q @ _tail_precision(_paths_array(pred_P, s, s), _paths_array(pred_Pi, s, s), succ, tails)
    C = Q - B[:, :, tails] @ Q
    A = _paths_array(pred_a, s)[succ]
    back = slice(None, None, -1)
    last = (_paths_array(filt_a, s)[-1], _paths_array(filt_P, s, s)[-1])
    X, XV = _backward(*last, B[back], C[back], A[back], cm.apply_[succ[back]], tails, m)
    return X, XV, A, (succ, Q, B, C)


def _backward(x, V, B, C, A, moves, tails: list, m: int) -> tuple:
    # smooth's recursion from row n - 1's moments (x, V): for each step, the
    # moments of row u - 1 from those of row u, with B the tail rows of Q G,
    # C = Q - Q G Q at the tails, A = a_{u|u-1} and moves the (k,) booking
    # schedule of row u
    s, k = x.size, len(tails)
    x, V = x.tolist(), V.ravel().tolist()
    X, XV = array("d", x), array("d", V)
    tail_pairs = [e * s + f for e in tails for f in tails]
    steps = B.tolist(), C.reshape(-1, k * k).tolist(), A.tolist(), moves.tolist()
    for b, c, a, moved in zip(*steps):
        # Q G is zero outside the tail rows: x <- x - Q G (x - a), and
        # V <- (L V) L' + Q - Q G Q, updating the tail rows, then the tail
        # columns from the updated rows. (Expanding L V L' into separate
        # terms cancels catastrophically at high orders.)
        d = list(map(sub, x, a))
        W = [[sum(map(mul, bj, V[col::s])) for col in range(s)] for bj in b]
        for e, bj, wj in zip(tails, b, W):
            x[e] -= sum(map(mul, bj, d))
            V[e * s : e * s + s] = map(sub, V[e * s : e * s + s], wj)
        W = [[sum(map(mul, bj, V[r : r + s])) for r in range(0, s * s, s)] for bj in b]
        for e, wj in zip(tails, W):
            V[e::s] = list(map(sub, V[e::s], wj))
        for i, cij in zip(tail_pairs, c):
            V[i] += cij
        if m > 1:
            tops = [j * m for j in range(k) if moved[j]]
            for top in tops:
                for i in range(top + m - 2, top - 1, -1):
                    x[i] -= x[i + 1]
            _T_inv_mat(V, tops, m, s)
        X.fromlist(x)
        XV.fromlist(V)
    return X, XV


def _tail_precision(pred_P, pred_Pi, rows: np.ndarray, tails: list) -> np.ndarray:
    # (len(rows), k, s): the tail rows of G = P_pred^-1 at each listed row,
    # the kappa -> infinity limit of (P_star + kappa P_inf)^-1 at the
    # diffuse rows, the leading run that pred_Pi holds
    P = pred_P[rows]
    G = np.empty((rows.size, len(tails), P.shape[1]))
    diffuse = rows < len(pred_Pi)
    proper = ~diffuse
    E = np.eye(P.shape[1])[:, tails]
    G[proper] = np.linalg.solve(
        P[proper], np.broadcast_to(E, (int(proper.sum()), *E.shape))
    ).transpose(0, 2, 1)
    for i in np.flatnonzero(diffuse).tolist():
        w, vecs = np.linalg.eigh(pred_Pi[rows[i]])
        U = vecs[:, w < DIFFUSE_TOL * w[-1]]
        G[i] = U[tails] @ np.linalg.solve(U.T @ P[i] @ U, U.T)
    return G


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def state_component_names(spec: ModelSpec) -> list:
    """Column labels for the state vector, level first per series block."""
    names = []
    for sr in spec.series:
        base = SERIES_NAMES[sr]
        names.append(f"{base}.level")
        for d in range(spec.order_m - 1, 0, -1):
            names.append(f"{base}.d{d}")
    return names


def write_state_paths_csv(paths: StatePaths, spec: ModelSpec, path, header_lines=()):
    """Write smoothed states and residual columns to CSV.

    Columns: stamp, per-component smoothed mean and variance, then per-slot
    standardized residuals. Missing entries are written as empty fields.
    Extra header lines (comments) go in first, verbatim.

    Raises ValueError, naming the stamp and the component, where a smoothed
    variance is negative or NaN: the smoother has lost precision there, or
    the filter overflowed. Nothing is written then.
    """
    if paths.smoothed_means is None:
        raise ValueError("smoothed paths required; run smooth() first")
    comp = state_component_names(spec)
    var = paths.smoothed_covs.diagonal(axis1=1, axis2=2)
    _check_smoothed_variances(var, comp, paths.stamps)
    resid = paths.standardized_residuals()
    slot_names = [
        f"resid.{SERIES_NAMES[sr]}.{i}" for sr in spec.series for i in range(MAX_SLOTS)
    ]
    header = ["stamp"] + [f"mean.{c}" for c in comp] + [f"var.{c}" for c in comp] + slot_names
    columns = np.column_stack([paths.stamps, paths.smoothed_means, var, resid])
    _write_csv(path, header_lines, header, text=_float_text(columns, blank_nan=True))


def _check_smoothed_variances(var: np.ndarray, labels, stamps, stamp: str = "stamp") -> None:
    """Raise ValueError, naming labels[j] and stamps[i] (called a stamp), at
    the first smoothed variance var[i, j] that is negative or NaN."""
    bad = np.argwhere(~(var >= 0.0))
    if bad.size:
        i, j = bad[0].tolist()
        x = float(var[i, j])
        raise ValueError(
            f"{'negative' if x < 0.0 else 'NaN'} smoothed variance {x!r} of "
            f"{labels[j]} at {stamp} {float(stamps[i])!r}"
        )
