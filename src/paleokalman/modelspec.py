"""Declarative model variants and the parameter layouts they resolve to.

A ModelSpec names one member of the model family: which series it covers,
the integration order m of the trend, and how measurement variances,
transition variances, and (bivariate only) trend-disturbance correlations
are grouped. group_keys() maps a spec and a dataset's columnar view to the
group key of every observed slot and row; build_layout() turns the keys
present into a concrete parameter vector layout, and kalman.compile_model()
looks each key up in that layout.

Transition semantics for rows where a series has no observation: that
series' state block is frozen (T block = identity, no disturbance). At the
series' next observed row the trend transition applies once, with the
disturbance variance scaled by the window since its previous observed row:
the difference of the two rows' stamps (booking_schedule). The two windows
of a bivariate disturbance both end at the current stamp, so their overlap
is min(w1, w2), which scales the cross-covariance term.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .core import (
    SERIES_NAMES,
    CLIMATE_STATE_NAMES,
    MAX_SLOTS,
    PanelDataset,
    PanelView,
)

__all__ = [
    "ARITIES",
    "MEAS_GROUPINGS",
    "TRANS_GROUPINGS",
    "ModelSpec",
    "ParamInfo",
    "ParameterLayout",
    "GroupKeys",
    "build_layout",
    "group_keys",
    "trend_transition_matrix",
]

ARITIES = ("univariate-series1", "univariate-series2", "bivariate")
MEAS_GROUPINGS = ("pooled", "by-source", "by-species")
TRANS_GROUPINGS = ("pooled", "by-climate-state")
CORR_GROUPINGS = ("pooled", "by-climate-state")

POOLED_KEY = 0  # group key used when a grouping is pooled
MAX_ORDER = 8  # the highest trend order m a spec may have


@dataclass(frozen=True)
class ModelSpec:
    """One model variant, serializable to/from a flat JSON object."""

    arity: str = "univariate-series1"
    order_m: int = 1
    meas_grouping: str = "pooled"
    trans_grouping: str = "pooled"
    corr_grouping: str | None = None

    def __post_init__(self):
        if self.arity not in ARITIES:
            raise ValueError(f"arity must be one of {ARITIES}, got {self.arity!r}")
        if not (1 <= int(self.order_m) <= MAX_ORDER):
            raise ValueError(f"order_m must be in [1, {MAX_ORDER}], got {self.order_m}")
        if self.meas_grouping not in MEAS_GROUPINGS:
            raise ValueError(f"unknown meas_grouping {self.meas_grouping!r}")
        if self.trans_grouping not in TRANS_GROUPINGS:
            raise ValueError(f"unknown trans_grouping {self.trans_grouping!r}")
        if self.arity == "bivariate":
            if self.corr_grouping not in CORR_GROUPINGS:
                raise ValueError(
                    "bivariate models need corr_grouping in "
                    f"{CORR_GROUPINGS}, got {self.corr_grouping!r}"
                )
        elif self.corr_grouping is not None:
            raise ValueError("corr_grouping only applies to bivariate models")

    @property
    def series(self) -> tuple:
        """Active series indices, in state-block order."""
        if self.arity == "univariate-series1":
            return (0,)
        if self.arity == "univariate-series2":
            return (1,)
        return (0, 1)

    @property
    def n_series(self) -> int:
        return len(self.series)

    @property
    def state_dim(self) -> int:
        return self.n_series * self.order_m

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "order_m": self.order_m,
            "meas_grouping": self.meas_grouping,
            "trans_grouping": self.trans_grouping,
            "corr_grouping": self.corr_grouping,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModelSpec":
        return cls(
            arity=obj["arity"],
            order_m=int(obj["order_m"]),
            meas_grouping=obj["meas_grouping"],
            trans_grouping=obj["trans_grouping"],
            corr_grouping=obj.get("corr_grouping"),
        )


@dataclass(frozen=True)
class ParamInfo:
    """One coordinate of the natural-scale parameter vector."""

    role: str  # "sigma_eps2" | "sigma_eta2" | "rho"
    series: int | None  # None for rho
    name: str
    group: str


@dataclass(frozen=True)
class ParameterLayout:
    """Resolved parameter vector: only groups actually present in the data
    get a coordinate (a group with zero observations for its series is
    dropped rather than left unidentified)."""

    spec: ModelSpec
    params: tuple  # of ParamInfo, in vector order
    meas_index: dict  # (series, group_key) -> flat index
    trans_index: dict  # (series, regime_key) -> flat index
    corr_index: dict  # regime_key -> flat index

    @property
    def n_params(self) -> int:
        return len(self.params)

    def names(self) -> list:
        return [p.name for p in self.params]

    def validate_params(self, params) -> np.ndarray:
        """Check admissibility: variances positive, correlations in (-1, 1)."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} parameters, got shape {params.shape}"
            )
        for info, value in zip(self.params, params):
            if info.role == "rho":
                if not abs(value) < 1.0:
                    raise ValueError(f"{info.name}: correlation must be in (-1, 1)")
            elif not value > 0.0:
                raise ValueError(f"{info.name}: variance must be positive")
        return params

    def hash(self) -> str:
        """Stable fingerprint of spec + parameter identities, used to detect
        fit-file/data mismatches."""
        payload = json.dumps(
            {
                "spec": self.spec.to_json(),
                "params": [(p.role, p.series, p.group) for p in self.params],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class GroupKeys:
    """Group keys of a panel's observed slots and rows under one spec.

    Per observed slot of the spec's series, in view order: slot (its
    position in the view), row, col (j * MAX_SLOTS + i, with j the series'
    place in spec.series and i the slot), local (j) and meas (measurement
    group key). Per row: observed (n, k) says where each series has a
    value; trans and corr are the transition and correlation regime keys
    (corr is None unless the spec is bivariate).
    """

    slot: np.ndarray
    row: np.ndarray
    col: np.ndarray
    local: np.ndarray
    meas: np.ndarray
    observed: np.ndarray
    trans: np.ndarray
    corr: np.ndarray | None


# grouping -> label of a group key, as a parameter's group
_GROUP_LABELS = {
    "pooled": lambda data, key: "pooled",
    "by-source": lambda data, key: data.sources.get(key, f"source#{key}"),
    "by-species": lambda data, key: data.species.get(key, f"species#{key}"),
    "by-climate-state": lambda data, key: CLIMATE_STATE_NAMES[key - 1],
}


def _regime_keys(grouping: str, view: PanelView) -> np.ndarray:
    if grouping == "by-climate-state":
        return view.climate_states
    return np.full(view.stamps.size, POOLED_KEY, dtype=np.int32)


def group_keys(spec: ModelSpec, view: PanelView) -> GroupKeys:
    """Resolve the spec's groupings against a panel's columnar view."""
    series = view.series
    on = series == spec.series[0]
    for sr in spec.series[1:]:
        on |= series == sr
    slot = np.flatnonzero(on)
    at = view.at[slot]
    row = at // (2 * MAX_SLOTS)
    local = at // MAX_SLOTS % 2 - spec.series[0]
    meas = {"by-source": view.source, "by-species": view.species}.get(spec.meas_grouping)
    observed = np.zeros((view.stamps.size, spec.n_series), dtype=bool)
    observed[row, local] = True
    return GroupKeys(
        slot=slot,
        row=row,
        col=local * MAX_SLOTS + at % MAX_SLOTS,
        local=local,
        meas=np.full(slot.size, POOLED_KEY, dtype=np.int32) if meas is None else meas[slot],
        observed=observed,
        trans=_regime_keys(spec.trans_grouping, view),
        corr=_regime_keys(spec.corr_grouping, view) if spec.n_series == 2 else None,
    )


def build_layout(spec: ModelSpec, data: PanelDataset) -> ParameterLayout:
    """Resolve a ModelSpec against a dataset.

    One loop over (role, grouping, series, keys present) cells, in vector
    order: a measurement variance per group key on each series' observed
    slots, a transition variance per regime key on each series' observed
    rows, and for bivariate specs a correlation per regime key on the rows
    where both series are observed (a pooled grouping has one key). Each
    key gets a coordinate, indexed by (series, key), or by key for rho, and
    labelled by its grouping's entry in _GROUP_LABELS.
    """
    if data.n_rows == 0:
        raise ValueError("cannot build a parameter layout on an empty dataset")

    keys = group_keys(spec, data.view)
    series = list(enumerate(spec.series))
    cells = [("sigma_eps2", spec.meas_grouping, s, keys.meas[keys.local == j]) for j, s in series]
    trans = spec.trans_grouping
    cells += [("sigma_eta2", trans, s, keys.trans[keys.observed[:, j]]) for j, s in series]
    if keys.corr is not None:
        cells.append(("rho", spec.corr_grouping, None, keys.corr[keys.observed.all(axis=1)]))

    params: list = []
    index: dict = {"sigma_eps2": {}, "sigma_eta2": {}, "rho": {}}
    for role, grouping, s, present in cells:
        name = role if s is None else f"{role}.{SERIES_NAMES[s]}"
        for key in np.unique(present).tolist():
            index[role][key if s is None else (s, key)] = len(params)
            params.append(ParamInfo(role, s, name, _GROUP_LABELS[grouping](data, key)))

    return ParameterLayout(spec, tuple(params), *index.values())  # meas, trans, corr index


def trend_transition_matrix(m: int) -> np.ndarray:
    """Unit upper bidiagonal m x m transition: ones on the diagonal and the
    superdiagonal. The state block is (level, d^(m-1), ..., d^(1)) and the
    disturbance enters the last component only."""
    T = np.eye(m)
    for i in range(m - 1):
        T[i, i + 1] = 1.0
    return T


def booking_schedule(stamps, observed) -> tuple:
    """Where each series applies the trend transition, and the time booked.

    A series' clock starts at its first observed row (nothing is booked
    there; the initial state covers it). At each later observed row the
    transition applies once, with the stamp difference to the series'
    previous observed row as its window. Rows where the series has no value
    book nothing, so inserting them leaves every window bitwise unchanged.

    Parameters
    ----------
    stamps : (n,) array of strictly increasing row stamps.
    observed : (n, k) bool array, True where the series has a value.

    Returns
    -------
    apply : (n, k) bool, True where the trend transition applies.
    window : (n, k) float, time booked at applied rows (0 else).
    """
    stamps = np.asarray(stamps, dtype=float)
    observed = np.asarray(observed, dtype=bool)
    if observed.ndim == 1:
        observed = observed[:, None]
    apply_ = np.zeros(observed.shape, dtype=bool)
    window = np.zeros(observed.shape)
    # consecutive observed rows (prev, row) of each series
    series, rows = np.nonzero(observed.T)
    later = series[1:] == series[:-1]
    prev, rows, series = rows[:-1][later], rows[1:][later], series[1:][later]
    apply_[rows, series] = True
    window[rows, series] = stamps[rows] - stamps[prev]
    return apply_, window
