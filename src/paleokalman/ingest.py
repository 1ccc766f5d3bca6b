"""CSV ingestion: flat isotope records to a collated PanelDataset.

Input schema (header row required): age_tuned, d18O, d13C, source, species.
Ages are in MYA, newest near zero; internally ages are negated so stamps
ascend toward the present. Records sharing an age collate into one row
with up to four slots per series. Source labels pass through a small alias
map first (merging known misspellings); species labels can be bucketed
through a JSON sidecar for the by-species models. Sources and species are
numbered once, in the dataset's age order (build_dataset), and the ingest
diagnostics' source registry is read off that numbering.

The records are read into columns (parse_csv) and collated with numpy
straight into the dataset's PanelView (core's one collate); no object per
record, slot or row is made on the way.
"""

from __future__ import annotations

import csv
import json
from math import inf

import numpy as np

from .core import (
    MAX_SLOTS,
    MISSING,
    PanelDataset,
    SERIES_NAMES,
    _collate,
    _intern,
    _write_csv,
)

__all__ = [
    "ParseError",
    "SchemaError",
    "REQUIRED_COLUMNS",
    "DEFAULT_SOURCE_ALIASES",
    "DEFAULT_SPECIES_BUCKETS",
    "parse_csv",
    "canonicalize_sources",
    "load_species_buckets",
    "apply_species_buckets",
    "build_dataset",
    "ingest",
    "write_ingest_csv",
]


class ParseError(ValueError):
    """A cell failed to parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SchemaError(ValueError):
    """The header row is missing required columns."""


REQUIRED_COLUMNS = ("age_tuned", "d18O", "d13C", "source", "species")

# The two label merges named alongside the published per-source tables,
# plus the self-reference used by the source file.
DEFAULT_SOURCE_ALIASES = {
    "McCarren et al. 2008 et al. 2008": "McCarren et al. 2008",
    "Bickert et al.1997": "Bickert et al. 1997",
    "this study": "Westerhold et al. 2020",
}

DEFAULT_SPECIES_BUCKETS = {
    "CSPP, >250": "CSPP >250",
    "CSPP, specimen >250 μm": "CSPP >250",
    "CSPP, whole specimen": "CSPP other",
    "CSPP, 150-250": "CSPP other",
    "CSPP, >250, Reruns": "CSPP other",
}


def _parse_cell(text: str, line_number: int, column: str) -> float:
    text = text.strip()
    if text == "":
        return MISSING
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            line_number, f"malformed numeric {text!r} in column {column}"
        ) from None
    if not -inf < value < inf:
        raise ParseError(line_number, f"non-finite value {text!r} in column {column}")
    return value


def parse_csv(path) -> tuple:
    """Read the raw records in file order; returns (records, diagnostics).

    records holds five columns keyed by REQUIRED_COLUMNS, one entry per
    record: age_tuned, d18O and d13C as float arrays, with MISSING (NaN)
    for an empty isotope cell, and source and species as lists of stripped
    labels. Both-empty records are kept (they mark a stamp) and counted in
    the diagnostics. A malformed or non-finite number (nan, inf) raises
    ParseError with its file line and column.
    """
    ages, d18o_cells, d13c_cells, sources, species = [], [], [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: no header row") from None
        header = [h.strip() for h in header]
        missing_cols = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing_cols:
            raise SchemaError(f"missing header columns: {', '.join(missing_cols)}")
        i_age, i_d18o, i_d13c, i_source, i_species = (
            header.index(name) for name in REQUIRED_COLUMNS
        )
        width = len(header)
        # errors give reader.line_num, the file line a record ends on: a
        # quoted cell can span lines
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                row = row + [""] * (width - len(row))
            # one float() per numeric cell, which skips surrounding
            # whitespace; a cell it rejects (blank or malformed), and an
            # isotope cell it reads as nan or inf, go to _parse_cell, for
            # MISSING or the error
            cell = row[i_age]
            try:
                age = float(cell)
            except ValueError:
                if cell.strip() == "":
                    if all(c.strip() == "" for c in row):
                        continue  # a blank line
                    raise ParseError(reader.line_num, "empty age_tuned cell") from None
                age = _parse_cell(cell, reader.line_num, "age_tuned")
            if not 0.0 < age < 70.0:
                raise ParseError(
                    reader.line_num, f"age_tuned {age} outside the supported (0, 70) MYA"
                )
            cell = row[i_d18o]
            try:
                d18o = float(cell) if cell else MISSING
                if cell and not -inf < d18o < inf:
                    raise ValueError
            except ValueError:
                d18o = _parse_cell(cell, reader.line_num, "d18O")
            cell = row[i_d13c]
            try:
                d13c = float(cell) if cell else MISSING
                if cell and not -inf < d13c < inf:
                    raise ValueError
            except ValueError:
                d13c = _parse_cell(cell, reader.line_num, "d13C")
            ages.append(age)
            d18o_cells.append(d18o)
            d13c_cells.append(d13c)
            sources.append(row[i_source].strip())
            species.append(row[i_species].strip())
    records = {
        "age_tuned": np.array(ages, dtype=float),
        "d18O": np.array(d18o_cells, dtype=float),
        "d13C": np.array(d13c_cells, dtype=float),
        "source": sources,
        "species": species,
    }
    no_d18o, no_d13c = np.isnan(records["d18O"]), np.isnan(records["d13C"])
    diagnostics = {
        "n_records": len(ages),
        "n_missing_cells": int(no_d18o.sum() + no_d13c.sum()),
        "n_both_empty": int((no_d18o & no_d13c).sum()),
    }
    return records, diagnostics


def canonicalize_sources(records) -> dict:
    """Apply DEFAULT_SOURCE_ALIASES to the source column; returns the
    records. Unknown labels pass through unchanged. Sources are numbered
    later, by build_dataset.
    """
    source = [DEFAULT_SOURCE_ALIASES.get(label, label) for label in records["source"]]
    return {**records, "source": source}


def load_species_buckets(path) -> dict:
    """Bucket map for by-species models: the JSON sidecar at path overlays
    DEFAULT_SPECIES_BUCKETS."""
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise SchemaError("species bucket sidecar must be a JSON object")
    return {**DEFAULT_SPECIES_BUCKETS, **{str(k): str(v) for k, v in loaded.items()}}


def apply_species_buckets(records, buckets=None) -> dict:
    """Replace species labels by their buckets; unknown labels unchanged."""
    if buckets is None:
        buckets = DEFAULT_SPECIES_BUCKETS
    species = [buckets.get(label, label) for label in records["species"]]
    return {**records, "species": species}


def build_dataset(records) -> tuple:
    """Collate the record columns into a PanelDataset; returns (dataset,
    diagnostics).

    Records are sorted by age descending (stable) and ages negated to
    stamps. Each record gives an entry per isotope value, d18O first, and
    a both-empty record one entry that marks its stamp (an all-missing row
    unless other records share it). Sources and species are numbered by
    first appearance over the entries in that order.
    """
    age, d18o, d13c = (
        np.asarray(records[c], dtype=float) for c in ("age_tuned", "d18O", "d13C")
    )
    order = np.argsort(-age, kind="stable")
    cells = np.stack([d18o[order], d13c[order]], axis=1)
    keep = ~np.isnan(cells)
    observed = keep.any(axis=1)
    keep[:, 0] |= ~observed
    record, column = np.nonzero(keep)
    order_list = order.tolist()
    source_ids, source_index = _intern(
        list(map(records["source"].__getitem__, order_list)), observed
    )
    species_ids, species_index = _intern(
        list(map(records["species"].__getitem__, order_list)), observed
    )
    data = _collate(
        -age[order][record],
        column,
        cells[record, column],
        source_ids[record],
        species_ids[record],
        dict(enumerate(source_index)),
        dict(enumerate(species_index)),
    )

    view = data.view
    dts = np.diff(view.stamps)
    series = view.series
    per_source = {
        label: {SERIES_NAMES[0]: 0, SERIES_NAMES[1]: 0}
        for label in data.sources.values()
    }
    for s, name in enumerate(SERIES_NAMES):
        ids, counts = np.unique(view.source[series == s], return_counts=True)
        for sid, count in zip(ids.tolist(), counts.tolist()):
            per_source[data.sources[sid]][name] += count
    # observed slots per (row, series)
    max_slots = int(np.bincount(view.at // MAX_SLOTS).max()) if view.at.size else 0
    diagnostics = {
        "n_records": age.size,
        "n_rows": data.n_rows,
        "n_values": data.n_observed_slots(),
        "max_slots_used": max_slots,
        "min_dt": float(dts.min()) if dts.size else MISSING,
        "max_dt": float(dts.max()) if dts.size else MISSING,
        "per_source_counts": per_source,
        "warnings": [] if age.size else ["empty input: no records"],
    }
    return data, diagnostics


def ingest(path, species_buckets=None) -> tuple:
    """parse -> canonicalize -> bucket -> collate; returns (data, diag).
    diag["source_registry"] maps each source label to its id in
    data.sources."""
    records, parse_diag = parse_csv(path)
    records = canonicalize_sources(records)
    records = apply_species_buckets(records, buckets=species_buckets)
    data, diag = build_dataset(records)
    diag.update(parse_diag)
    diag["source_registry"] = {label: sid for sid, label in data.sources.items()}
    return data, diag


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _lines(view):
    """Yield (row, o) per line of an export, in file order: o indexes each
    observed slot in row-major order, and is None for an all-missing row."""
    counts = np.bincount(view.row, minlength=view.stamps.size)
    o = 0
    for r, count in enumerate(counts.tolist()):
        if count == 0:
            yield r, None
        for k in range(o, o + count):
            yield r, k
        o += count


def write_ingest_csv(data: PanelDataset, path, header_lines=()) -> None:
    """Emit the raw ingest schema from a dataset (e.g. a simulated one).

    One line per filled slot (the parser collates them back); all-missing
    rows become both-empty lines.
    """
    v = data.view
    ages = [repr(age) for age in (-v.stamps).tolist()]
    series = v.series.tolist()
    values = [repr(value) for value in v.value.tolist()]
    sources = [data.sources[i] for i in v.source.tolist()]
    species = [data.species[i] for i in v.species.tolist()]

    def line(r, o):
        if o is None:
            return [ages[r], "", "", "", ""]
        cells = [values[o], ""] if series[o] == 0 else ["", values[o]]
        return [ages[r], *cells, sources[o], species[o]]

    _write_csv(path, header_lines, list(REQUIRED_COLUMNS), (line(r, o) for r, o in _lines(v)))
