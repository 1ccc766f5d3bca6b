"""Core data model for irregularly stamped, multi-source panel time series.

Rows are indexed by a strictly increasing time stamp (millions of years,
negative-age convention: -67.1 is old, -0.000564 is nearly present). Each row
carries up to four tagged measurement slots per series plus a climate-state
regime index, which climate_states gives for every panel (the scalar map
assign_climate_state wraps it). Group registries (sources, species) are
dense int -> label maps shared by every model variant.

A panel is stored only as a PanelView, one array per column, and is read
only from it: every panel is collated (collate_rows, ingest, merge_grid)
or is a window data.rows[a:b] of one, a slice of the view.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from itertools import count

import numpy as np

__all__ = [
    "MISSING",
    "SERIES_NAMES",
    "CLIMATE_STATE_AGES",
    "CLIMATE_STATE_NAMES",
    "PanelDataset",
    "PanelView",
    "assign_climate_state",
    "climate_states",
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


def _normalize_series(tag) -> int:
    """Map a series tag (the int 0 or 1, or a name) to index 0 or 1."""
    if tag in (0, 1) and isinstance(tag, int):
        return tag
    try:
        return SERIES_NAMES.index(tag)
    except ValueError:
        raise ValueError(f"unknown series tag: {tag!r}") from None


@dataclass(frozen=True)
class PanelView:
    """Columnar, read-only form of a panel; set-up, fitting and smoothing
    read nothing else.

    Per row: stamps and climate_states. Per observed slot only, in
    row-major (row, series, slot) order: at[o], the flat index
    (row * 2 + series) * MAX_SLOTS + slot, then value[o] and the source and
    species ids. Missing slots are not stored.

    len is the number of rows, and view[a:b] is the view of rows a..b-1.
    Indexing by anything but a slice with step 1, and iterating, raise
    TypeError.
    """

    stamps: np.ndarray  # (n,) float64
    climate_states: np.ndarray  # (n,) int32
    at: np.ndarray  # (n_obs,) int64
    value: np.ndarray  # (n_obs,) float64
    source: np.ndarray  # (n_obs,) int32
    species: np.ndarray  # (n_obs,) int32

    __iter__ = None  # not iterable: read the columns

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    @property
    def row(self) -> np.ndarray:
        return self.at // (2 * MAX_SLOTS)

    @property
    def series(self) -> np.ndarray:
        return self.at // MAX_SLOTS % 2

    def __len__(self) -> int:
        return self.stamps.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            rows = range(len(self))[index]
            if rows.step == 1:
                return self._window(rows.start, rows.stop)
        raise TypeError(
            f"a panel view takes only a slice with step 1, not {index!r}; "
            "read the rows from its columns"
        )

    def _window(self, start: int, stop: int) -> PanelView:
        # rows start..stop-1; their slots, by flat index, are the view's
        # from row start's first index up to row stop's, renumbered from
        # row start
        width = 2 * MAX_SLOTS
        lo, hi = np.searchsorted(self.at, [start * width, stop * width]).tolist()
        return PanelView(
            self.stamps[start:stop],
            self.climate_states[start:stop],
            self.at[lo:hi] - start * width,
            self.value[lo:hi],
            self.source[lo:hi],
            self.species[lo:hi],
        )


@dataclass(frozen=True)
class PanelDataset:
    """Immutable ordered panel: its view plus the group registries that the
    view's ids index.

    The rows are sorted ascending by stamp with unique stamps, each with
    its regime from climate_states. rows is always a PanelView, also read
    as view. Panels are made by collate_rows (or ingest,
    imputation.merge_grid), and a window of one by
    dataclasses.replace(data, rows=data.rows[a:b]).
    """

    rows: PanelView
    sources: dict = field(default_factory=dict)
    species: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.rows, PanelView):
            raise TypeError(
                f"PanelDataset rows must be a PanelView, not "
                f"{type(self.rows).__name__}; build the panel with collate_rows"
            )

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def view(self) -> PanelView:
        return self.rows

    def n_observed_slots(self) -> int:
        """Count the observed (non-missing) slots of both series."""
        return self.view.at.size


def assign_climate_state(age_mya: float) -> int:
    """Regime index j in 1..6 for a positive age in MYA: climate_states'
    rule for one age, which must lie in the record.

    An interval "a to b" (a > b) covers ages in (b, a]; the oldest interval
    also includes 67.10113 and the youngest also includes 0.000564 (the first
    and last observations sit exactly on those endpoints). An age outside
    them, or NaN, raises ValueError.
    """
    ages = CLIMATE_STATE_AGES
    if not (ages[-1] <= age_mya <= ages[0]):
        raise ValueError(
            f"age {age_mya} MYA outside the covered range "
            f"[{ages[-1]}, {ages[0]}]"
        )
    return int(climate_states(age_mya))


# the inner regime boundaries, ascending: an age's regime is 6 minus the
# number of them below it
_INNER_BOUNDARIES = np.array(CLIMATE_STATE_AGES[-2:0:-1])


def climate_states(stamps) -> np.ndarray:
    """Regime index j in 1..6 of each stamp, as an int32 array; the one
    regime rule, which assign_climate_state wraps. Every panel's regimes
    come from it, those of simulated data and imputation grids too.

    A stamp's age is its absolute value. Ages older than the record get
    regime 1 and younger ones regime 6, so a stamp outside the record
    takes the regime of its nearer endpoint. A NaN stamp has no regime:
    the first one raises ValueError.
    """
    ages = np.abs(stamps)
    nan = np.flatnonzero(np.isnan(ages))
    if nan.size:
        raise ValueError(f"stamps[{int(nan[0])}] is NaN, which has no climate state")
    below = np.searchsorted(_INNER_BOUNDARIES, ages, side="left")
    return (6 - below).astype(np.int32)


def collate_rows(records) -> PanelDataset:
    """Merge flat records into a PanelDataset.

    Parameters
    ----------
    records : iterable of (stamp, series, value, source, species)
        stamp: time stamp in My (negative-age convention). series: 0/1
        or "d18O"/"d13C"; any other tag raises ValueError. value: float, or
        None to register the stamp without filling a slot (an all-missing
        row). source/species: labels; registries are built in
        first-appearance order.

    Notes
    -----
    Records sharing a stamp (exact equality) merge into one row; slot order
    is input order. More than four values for one series at one stamp is a
    capacity error. A NaN or infinite stamp or value raises ValueError;
    missing is expressed by None. Of several errors, the first record's
    in input order is raised.
    """
    stamps, series, values, sources, species = [], [], [], [], []
    for stamp, tag, value, source, species_label in records:
        try:
            stamp, tag, value = _checked_record(stamp, tag, value)
        except ValueError:
            # an earlier record's fifth value of one series at one stamp
            # comes first
            ids = np.zeros(len(stamps), dtype=np.int32)
            _collate(
                np.array(stamps, dtype=float),
                np.array(series, dtype=np.int64),
                np.array(values, dtype=float),
                ids,
                ids,
                {},
                {},
            )
            raise
        stamps.append(stamp)
        series.append(tag)
        values.append(value)
        kept = value == value
        sources.append(source if kept else None)
        species.append(species_label if kept else None)
    observed = [v == v for v in values]
    source_ids, source_index = _intern(sources, observed)
    species_ids, species_index = _intern(species, observed)
    return _collate(
        np.array(stamps, dtype=float),
        np.array(series, dtype=np.int64),
        np.array(values, dtype=float),
        source_ids,
        species_ids,
        dict(enumerate(source_index)),
        dict(enumerate(species_index)),
    )


def _checked_record(stamp, tag, value) -> tuple:
    # collate_rows' (stamp, series index, value) of one record, MISSING and
    # series 0 for a None value; ValueError for a NaN or infinite stamp or
    # value, or an unknown series tag
    stamp = float(stamp)
    if stamp != stamp:
        raise ValueError("NaN time stamp in records")
    if stamp in (math.inf, -math.inf):
        raise ValueError(f"infinite time stamp {stamp} in records")
    if value is None:
        return stamp, 0, MISSING
    value = float(value)
    if value != value:
        raise ValueError(f"NaN value at stamp {stamp}; use None for missing")
    if value in (math.inf, -math.inf):
        raise ValueError(f"infinite value {value} at stamp {stamp}")
    return stamp, _normalize_series(tag), value


def _intern(labels, keep, order=None) -> tuple:
    """(ids, index) of labels taken in order (their own when order is None):
    index numbers the labels where keep is true by first appearance, and
    ids holds each label's number as an int32 array, -1 where keep is
    false.

    Each label is looked up once, for the position of its first copy in
    labels; those codes are reordered and numbered with numpy.
    """
    first = {}
    codes = np.fromiter(map(first.setdefault, labels, count()), np.intp, len(labels))
    if order is not None:
        codes = codes[order]
    keep = np.asarray(keep, dtype=bool)
    kept = codes[keep]
    found, at = np.unique(kept, return_index=True)
    ranked = found[np.argsort(at)]
    number = np.full(len(labels), -1, dtype=np.int32)
    number[ranked] = np.arange(ranked.size, dtype=np.int32)
    ids = np.full(keep.size, -1, dtype=np.int32)
    ids[keep] = number[kept]
    return ids, {labels[c]: i for i, c in enumerate(ranked.tolist())}


def _collate(stamps, series, values, source, species, sources, species_labels):
    """The one collate: entries (stamp, series, value, source id, species
    id), given as arrays, to a PanelDataset that holds only its view.

    The entries are sorted by stamp (stable), and a row starts at each
    change of stamp. An entry with a NaN value only registers its stamp.
    An observed entry's slot is its rank within its (row, series) group in
    that order, so slot order is input order. The ids are stored as given,
    with sources and species_labels as the registries. Stamps must not be
    NaN.

    Raises ValueError for a fifth slot of a (row, series), naming the
    series and stamp of the first entry, in input order, that overflows.
    """
    order = np.argsort(stamps, kind="stable")
    sorted_stamps = stamps[order]
    starts = np.ones(sorted_stamps.size, dtype=bool)
    np.not_equal(sorted_stamps[1:], sorted_stamps[:-1], out=starts[1:])
    row = np.cumsum(starts) - 1
    row_stamps = sorted_stamps[starts]

    observed = ~np.isnan(values[order])
    entry = order[observed]
    # row-major (row, series) groups; a stable sort keeps input order inside
    group = row[observed] * 2 + series[entry]
    by_group = np.argsort(group, kind="stable")
    group, entry = group[by_group], entry[by_group]
    first = np.ones(group.size, dtype=bool)
    np.not_equal(group[1:], group[:-1], out=first[1:])
    position = np.arange(group.size)
    rank = position - np.maximum.accumulate(np.where(first, position, 0))
    overflow = rank >= MAX_SLOTS
    if overflow.any():
        i = int(entry[overflow].min())
        raise ValueError(
            f"more than {MAX_SLOTS} simultaneous values for series "
            f"{SERIES_NAMES[series[i]]} at stamp {float(stamps[i])}"
        )
    view = PanelView(
        stamps=row_stamps,
        climate_states=climate_states(row_stamps),
        at=group * MAX_SLOTS + rank,
        value=values[entry],
        source=source[entry].astype(np.int32),
        species=species[entry].astype(np.int32),
    )
    return PanelDataset(view, sources, species_labels)


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


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

_CSV_BLOCK_ROWS = 4096  # rows per .tolist() in _float_text


def _write_csv(path, header_lines, header, rows=(), text=()) -> None:
    """The one CSV writer: each of header_lines (comments) on a line of its
    own, then the header row and rows, an iterable of row lists, then the
    strings of text as they are. csv writes a float as its repr and None as
    an empty field."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line.rstrip("\n") + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(text)


def _float_text(columns: np.ndarray, blank_nan: bool = False):
    """The rows of a 2-D float array as the CSV text csv.writer makes of
    them: each float's repr, joined by commas, and a "\r\n" line end. With
    blank_nan a NaN is an empty field, as csv.writer writes None; no other
    float's repr holds "nan". One string per block of _CSV_BLOCK_ROWS rows,
    made by one .tolist()."""
    for lo in range(0, columns.shape[0], _CSV_BLOCK_ROWS):
        rows = columns[lo : lo + _CSV_BLOCK_ROWS].tolist()
        block = "".join([",".join(map(repr, row)) + "\r\n" for row in rows])
        yield block.replace("nan", "") if blank_nan else block
