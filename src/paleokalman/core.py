"""Core data model for irregularly stamped, multi-source panel time series.

Rows are indexed by a strictly increasing time stamp (millions of years,
negative-age convention: -67.1 is old, -0.000564 is nearly present). Each row
carries up to four tagged measurement slots per series plus a climate-state
regime index. Group registries (sources, species) are dense int -> label maps
shared by every model variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

__all__ = [
    "MISSING",
    "is_missing",
    "SERIES_NAMES",
    "CLIMATE_STATE_AGES",
    "CLIMATE_STATE_NAMES",
    "MeasurementSlot",
    "ObservationRow",
    "PanelDataset",
    "PanelView",
    "compute_increments",
    "assign_climate_state",
    "clamped_climate_state",
    "collate_rows",
    "flatten_records",
]

# Missing measurements are carried as NaN so numpy masks fall out naturally.
MISSING = float("nan")

MAX_SLOTS = 4

SERIES_NAMES = ("d18O", "d13C")

# Regime boundaries in MYA, oldest first. Regime j covers (age[j], age[j-1]],
# the oldest regime also includes its old endpoint and the youngest regime
# also includes its young endpoint (both endpoints carry data).
CLIMATE_STATE_AGES = (67.10113, 56.0, 47.0, 34.0, 13.9, 3.3, 0.000564)
CLIMATE_STATE_NAMES = (
    "Warmhouse 2",
    "Hothouse",
    "Warmhouse 1",
    "Coolhouse 1",
    "Coolhouse 2",
    "Icehouse",
)


def is_missing(x: float) -> bool:
    """True if the value is the missing marker (NaN)."""
    return x != x


def _normalize_series(tag) -> int:
    """Map a series tag (0/1, 1/2, or name) to internal index 0 or 1."""
    if tag in (0, 1) and isinstance(tag, int):
        return tag
    if tag == 2:
        return 1
    try:
        return SERIES_NAMES.index(tag)
    except ValueError:
        raise ValueError(f"unknown series tag: {tag!r}") from None


@dataclass(frozen=True)
class MeasurementSlot:
    """One tagged measurement: value (NaN when missing) plus group ids.

    source_id/species_id index into the dataset registries; they are
    meaningless (-1) when the value is missing.
    """

    value: float = MISSING
    source_id: int = -1
    species_id: int = -1

    @property
    def missing(self) -> bool:
        return is_missing(self.value)


_EMPTY_SLOTS = tuple(MeasurementSlot() for _ in range(MAX_SLOTS))


@dataclass(frozen=True)
class ObservationRow:
    """All measurements sharing one time stamp.

    dt is the increment from the previous row in million years (NaN for the
    first row). climate_state is the Table-style regime index j in 1..6.
    """

    stamp: float
    dt: float
    slots_series1: tuple = _EMPTY_SLOTS
    slots_series2: tuple = _EMPTY_SLOTS
    climate_state: int = 6

    def slots(self, series: int) -> tuple:
        return self.slots_series1 if series == 0 else self.slots_series2

    def series_observed(self, series: int) -> bool:
        """True if at least one slot of the series holds a value."""
        return any(not s.missing for s in self.slots(series))

    @property
    def all_missing(self) -> bool:
        return not (self.series_observed(0) or self.series_observed(1))


@dataclass(frozen=True)
class PanelView:
    """Columnar, read-only copy of a panel, for the set-up stages.

    Per row: stamps, dts (NaN first) and climate_states. Per observed slot
    only, in row-major (row, series, slot) order: at[o], the flat index
    (row * 2 + series) * MAX_SLOTS + slot, then value[o] and the source and
    species ids. Missing slots are not stored, so the view stays small next
    to the rows it copies.
    """

    stamps: np.ndarray  # (n,) float64
    dts: np.ndarray  # (n,) float64
    climate_states: np.ndarray  # (n,) int32
    at: np.ndarray  # (n_obs,) int64
    value: np.ndarray  # (n_obs,) float64
    source: np.ndarray  # (n_obs,) int32
    species: np.ndarray  # (n_obs,) int32

    @property
    def row(self) -> np.ndarray:
        return self.at // (2 * MAX_SLOTS)

    @property
    def series(self) -> np.ndarray:
        return self.at // MAX_SLOTS % 2


def _panel_view(rows) -> PanelView:
    at, observed = [], []
    base = 0
    for row in rows:
        i = base
        for slot in row.slots_series1:
            if slot.value == slot.value:
                at.append(i)
                observed.append(slot)
            i += 1
        end = base + MAX_SLOTS
        if i > end:
            _raise_capacity(row, 0)
        i = end
        for slot in row.slots_series2:
            if slot.value == slot.value:
                at.append(i)
                observed.append(slot)
            i += 1
        base += 2 * MAX_SLOTS
        if i > base:
            _raise_capacity(row, 1)
    arrays = (
        np.array([r.stamp for r in rows], dtype=float),
        np.array([r.dt for r in rows], dtype=float),
        np.array([r.climate_state for r in rows], dtype=np.int32),
        np.array(at, dtype=np.int64),
        np.array([slot.value for slot in observed], dtype=float),
        np.array([slot.source_id for slot in observed], dtype=np.int32),
        np.array([slot.species_id for slot in observed], dtype=np.int32),
    )
    return _read_only(PanelView(*arrays))


def _read_only(view: PanelView) -> PanelView:
    for f in fields(view):
        getattr(view, f.name).setflags(write=False)
    return view


def _raise_capacity(row: ObservationRow, series: int):
    # a fifth slot would land in the next series' columns
    raise ValueError(
        f"more than {MAX_SLOTS} slots for series {SERIES_NAMES[series]} "
        f"at stamp {row.stamp}"
    )


@dataclass(frozen=True)
class PanelDataset:
    """Immutable ordered panel: rows plus the group registries they index.

    rows are sorted ascending by stamp with unique stamps; construction goes
    through collate_rows (or ingest/simulation, which call it).

    view is a columnar copy of the rows (PanelView), built by one walk of
    the rows on first use and cached on the dataset, so that the ingest
    diagnostics, build_layout and compile_model of one set-up share that
    walk instead of each walking the slot objects. The rows must not change
    after it is built; a dataset derived by replacing its rows gets its own
    view, built by a new walk or derived from the old view and handed over
    by with_view (as imputation.merge_grid does).
    """

    rows: tuple
    sources: dict = field(default_factory=dict)
    species: dict = field(default_factory=dict)
    climate_boundaries: tuple = CLIMATE_STATE_AGES

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def stamps(self) -> list:
        return [r.stamp for r in self.rows]

    @cached_property
    def view(self) -> PanelView:
        return _panel_view(self.rows)

    def n_observed_slots(self, series=None) -> int:
        """Count non-missing slots, over one series or both."""
        if series is None:
            return self.view.at.size
        return int(np.count_nonzero(self.view.series == _normalize_series(series)))


def with_view(data: PanelDataset, view: PanelView) -> PanelDataset:
    """Cache view as data.view, in place of the walk of data's rows that
    would build it; view must equal what that walk gives. Its arrays are
    made read-only. Returns data."""
    vars(data)["view"] = _read_only(view)
    return data


def compute_increments(stamps) -> list:
    """Increments between consecutive stamps; first entry is NaN.

    Parameters
    ----------
    stamps : sequence of float
        Strictly increasing time stamps in million years.

    Returns
    -------
    list of float, same length as stamps.

    Raises
    ------
    ValueError if the stamps are not strictly increasing, naming the first
    offending index.
    """
    if not len(stamps):
        return []
    out = [MISSING]
    for i in range(1, len(stamps)):
        d = stamps[i] - stamps[i - 1]
        if not d > 0.0:
            raise ValueError(
                f"stamps must be strictly increasing: index {i} "
                f"({stamps[i]!r} after {stamps[i - 1]!r})"
            )
        out.append(d)
    return out


def assign_climate_state(age_mya: float) -> int:
    """Regime index j in 1..6 for a positive age in MYA.

    An interval "a to b" (a > b) covers ages in (b, a]; the oldest interval
    also includes 67.10113 and the youngest also includes 0.000564 (the first
    and last observations sit exactly on those endpoints).
    """
    ages = CLIMATE_STATE_AGES
    if not (ages[-1] <= age_mya <= ages[0]):
        raise ValueError(
            f"age {age_mya} MYA outside the covered range "
            f"[{ages[-1]}, {ages[0]}]"
        )
    for j in range(1, 7):
        if age_mya > ages[j]:
            return j
    return 6  # age == youngest endpoint


def clamped_climate_state(age_mya: float) -> int:
    """Total variant of assign_climate_state: out-of-range ages clamp to the
    nearest regime (older than the record -> 1, younger -> 6). Used when
    building rows for simulated data and imputation grids, whose stamps may
    fall outside the observed record."""
    if age_mya >= CLIMATE_STATE_AGES[0]:
        return 1
    if age_mya <= CLIMATE_STATE_AGES[-1]:
        return 6
    return assign_climate_state(age_mya)


def collate_rows(records) -> PanelDataset:
    """Merge flat records into a PanelDataset.

    Parameters
    ----------
    records : iterable of (stamp, series, value, source, species)
        stamp: time stamp in My (negative-age convention). series: 0/1,
        1/2 or "d18O"/"d13C". value: float, or None to register the stamp
        without filling a slot (an all-missing row). source/species: labels;
        registries are built in first-appearance order.

    Notes
    -----
    Records sharing a stamp (exact equality) merge into one row; slot order
    is input order. More than four values for one series at one stamp is a
    capacity error. NaN passed as a value is rejected; missing is expressed
    by None.
    """
    sources: dict = {}
    species: dict = {}
    source_ids: dict = {}
    species_ids: dict = {}
    by_stamp: dict = {}
    # a tag's index by (type, tag): 1 and 1.0 compare equal but only the
    # int is a valid tag
    series_of: dict = {}

    for stamp, series, value, source, species_label in records:
        stamp = float(stamp)
        if stamp != stamp:
            raise ValueError("NaN time stamp in records")
        slots = by_stamp.get(stamp)
        if slots is None:
            slots = by_stamp[stamp] = ([], [])
        if value is None:
            continue
        value = float(value)
        if value != value:
            raise ValueError(f"NaN value at stamp {stamp}; use None for missing")
        try:
            s = series_of[type(series), series]
        except KeyError:
            s = series_of[type(series), series] = _normalize_series(series)
        except TypeError:  # unhashable: _normalize_series rejects it
            s = _normalize_series(series)
        slots = slots[s]
        if len(slots) >= MAX_SLOTS:
            raise ValueError(
                f"more than {MAX_SLOTS} simultaneous values for series "
                f"{SERIES_NAMES[s]} at stamp {stamp}"
            )
        source_id = source_ids.get(source)
        if source_id is None:
            source_id = source_ids[source] = len(source_ids)
            sources[source_id] = source
        species_id = species_ids.get(species_label)
        if species_id is None:
            species_id = species_ids[species_label] = len(species_ids)
            species[species_id] = species_label
        slots.append(MeasurementSlot(value, source_id, species_id))

    stamps = sorted(by_stamp)
    dts = compute_increments(stamps)
    rows = []
    for stamp, dt in zip(stamps, dts):
        s1, s2 = by_stamp[stamp]
        rows.append(
            ObservationRow(
                stamp,
                dt,
                tuple(s1) + _EMPTY_SLOTS[len(s1):],
                tuple(s2) + _EMPTY_SLOTS[len(s2):],
                clamped_climate_state(abs(stamp)),
            )
        )
    return PanelDataset(tuple(rows), sources, species)


def flatten_records(ds: PanelDataset) -> list:
    """Inverse of collate_rows for round-trip checks: the multiset of
    (stamp, series name, value, source label, species label)."""
    v = ds.view
    return list(
        zip(
            v.stamps[v.row].tolist(),
            [SERIES_NAMES[s] for s in v.series.tolist()],
            v.value.tolist(),
            [ds.sources[i] for i in v.source.tolist()],
            [ds.species[i] for i in v.species.tolist()],
        )
    )
