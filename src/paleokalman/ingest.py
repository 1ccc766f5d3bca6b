"""CSV ingestion: flat isotope records to a collated PanelDataset.

Input schema (header row required): age_tuned, d18O, d13C, source, species.
Ages are in MYA, newest near zero; internally ages are negated so stamps
ascend toward the present. Records sharing an age collate into one row
with up to four slots per series. Source labels pass through a small alias
map first (merging known misspellings); species labels can be bucketed
through a JSON sidecar for the by-species models.

A canonical CSV (one line per slot, ids instead of labels) plus a JSON
registry round-trip the collated dataset exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    MAX_SLOTS,
    MISSING,
    MeasurementSlot,
    ObservationRow,
    PanelDataset,
    SERIES_NAMES,
    collate_rows,
    compute_increments,
    clamped_climate_state,
    is_missing,
)

__all__ = [
    "ParseError",
    "SchemaError",
    "RawRecord",
    "REQUIRED_COLUMNS",
    "DEFAULT_SOURCE_ALIASES",
    "DEFAULT_SPECIES_BUCKETS",
    "parse_csv",
    "canonicalize_sources",
    "load_species_buckets",
    "apply_species_buckets",
    "build_dataset",
    "ingest",
    "write_canonical_csv",
    "write_registry_json",
    "read_canonical_csv",
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


@dataclass(frozen=True)
class RawRecord:
    """One input line; missing isotope cells are NaN."""

    age_tuned: float
    d18O: float
    d13C: float
    source: str
    species: str

    @property
    def both_empty(self) -> bool:
        return is_missing(self.d18O) and is_missing(self.d13C)


def _parse_cell(text: str, line_number: int, column: str) -> float:
    text = text.strip()
    if text == "":
        return MISSING
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            line_number, f"malformed numeric {text!r} in column {column}"
        ) from None


def parse_csv(path) -> tuple:
    """Read raw records in file order; returns (records, diagnostics).

    Empty isotope cells become MISSING. Both-empty records are kept (they
    mark a stamp) and counted in the diagnostics.
    """
    records = []
    n_missing_cells = 0
    n_both_empty = 0
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
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < width:
                row = row + [""] * (width - len(row))
            age_text = row[i_age].strip()
            if age_text == "":
                if all(c.strip() == "" for c in row):
                    continue  # a blank line
                raise ParseError(line_number, "empty age_tuned cell")
            try:
                age = float(age_text)
            except ValueError:  # a malformed cell: _parse_cell raises its error
                age = _parse_cell(age_text, line_number, "age_tuned")
            if not 0.0 < age < 70.0:
                raise ParseError(
                    line_number, f"age_tuned {age} outside the supported (0, 70) MYA"
                )
            # one float() per isotope cell, which skips surrounding
            # whitespace; a cell it rejects (blank or malformed) goes to
            # _parse_cell, for MISSING or the error
            cell = row[i_d18o]
            try:
                d18o = float(cell) if cell else MISSING
            except ValueError:
                d18o = _parse_cell(cell, line_number, "d18O")
            cell = row[i_d13c]
            try:
                d13c = float(cell) if cell else MISSING
            except ValueError:
                d13c = _parse_cell(cell, line_number, "d13C")
            no_d18o = d18o != d18o
            no_d13c = d13c != d13c
            n_missing_cells += no_d18o + no_d13c
            n_both_empty += no_d18o and no_d13c
            records.append(
                RawRecord(age, d18o, d13c, row[i_source].strip(), row[i_species].strip())
            )
    diagnostics = {
        "n_records": len(records),
        "n_missing_cells": n_missing_cells,
        "n_both_empty": n_both_empty,
    }
    return records, diagnostics


def canonicalize_sources(records, aliases=None) -> tuple:
    """Apply the alias map; returns (records, registry label -> id).

    Ids are dense in first-appearance order over the canonical labels.
    Unknown labels pass through unchanged.
    """
    if aliases is None:
        aliases = DEFAULT_SOURCE_ALIASES
    out = []
    registry: dict = {}
    for rec in records:
        label = aliases.get(rec.source, rec.source)
        if label != rec.source:
            rec = replace(rec, source=label)
        if not rec.both_empty and label not in registry:
            registry[label] = len(registry)
        out.append(rec)
    return out, registry


def load_species_buckets(path=None) -> dict:
    """Bucket map for by-species models; JSON sidecar overlays defaults."""
    buckets = dict(DEFAULT_SPECIES_BUCKETS)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise SchemaError("species bucket sidecar must be a JSON object")
        buckets.update({str(k): str(v) for k, v in loaded.items()})
    return buckets


def apply_species_buckets(records, buckets=None) -> list:
    """Replace species labels by their buckets; unknown labels unchanged."""
    if buckets is None:
        buckets = DEFAULT_SPECIES_BUCKETS
    out = []
    for rec in records:
        bucket = buckets.get(rec.species, rec.species)
        out.append(replace(rec, species=bucket) if bucket != rec.species else rec)
    return out


def build_dataset(records) -> tuple:
    """Collate records into a PanelDataset; returns (dataset, diagnostics).

    Records are sorted by age descending (stable), ages negated to stamps,
    and collated; both-empty records become all-missing stamp markers.
    """
    ordered = sorted(records, key=lambda r: -r.age_tuned)
    flat = []
    for rec in ordered:
        stamp = -rec.age_tuned
        d18o, d13c = rec.d18O, rec.d13C
        if d18o == d18o:
            flat.append((stamp, 0, d18o, rec.source, rec.species))
        if d13c == d13c:
            flat.append((stamp, 1, d13c, rec.source, rec.species))
        elif d18o != d18o:  # both empty: the stamp alone
            flat.append((stamp, 0, None, rec.source, rec.species))
    data = collate_rows(flat)

    view = data.view
    dts = view.dts[1:]
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
        "n_records": len(records),
        "n_rows": data.n_rows,
        "n_values": data.n_observed_slots(),
        "max_slots_used": max_slots,
        "min_dt": float(dts.min()) if dts.size else MISSING,
        "max_dt": float(dts.max()) if dts.size else MISSING,
        "per_source_counts": per_source,
        "warnings": [] if records else ["empty input: no records"],
    }
    return data, diagnostics


def ingest(path, source_aliases=None, species_buckets=None) -> tuple:
    """parse -> canonicalize -> bucket -> collate; returns (data, diag)."""
    records, parse_diag = parse_csv(path)
    records, registry = canonicalize_sources(records, aliases=source_aliases)
    records = apply_species_buckets(records, buckets=species_buckets)
    data, diag = build_dataset(records)
    diag.update(parse_diag)
    diag["source_registry"] = registry
    return data, diag


# ---------------------------------------------------------------------------
# canonical CSV + registry round trip
# ---------------------------------------------------------------------------


def write_canonical_csv(data: PanelDataset, path, header_lines=()) -> None:
    """One line per filled slot: stamp, series, value, ids, climate state.

    All-missing rows are preserved as lines with empty series/value/ids.
    """
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line.rstrip("\n") + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["stamp", "series", "value", "source_id", "species_id", "climate_state"]
        )
        for row in data.rows:
            if row.all_missing:
                writer.writerow([repr(row.stamp), "", "", "", "", row.climate_state])
                continue
            for s in (0, 1):
                for slot in row.slots(s):
                    if slot.missing:
                        continue
                    writer.writerow(
                        [
                            repr(row.stamp),
                            SERIES_NAMES[s],
                            repr(slot.value),
                            slot.source_id,
                            slot.species_id,
                            row.climate_state,
                        ]
                    )


def write_registry_json(data: PanelDataset, path) -> None:
    """Id -> label maps for sources and species, as JSON."""
    payload = {
        "sources": {str(k): v for k, v in sorted(data.sources.items())},
        "species": {str(k): v for k, v in sorted(data.species.items())},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def read_canonical_csv(path, registry_path=None) -> PanelDataset:
    """Rebuild the exact PanelDataset written by write_canonical_csv."""
    sources: dict = {}
    species: dict = {}
    if registry_path is not None:
        with open(registry_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        sources = {int(k): v for k, v in payload.get("sources", {}).items()}
        species = {int(k): v for k, v in payload.get("species", {}).items()}

    by_stamp: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header = rows[0]
    expected = ["stamp", "series", "value", "source_id", "species_id", "climate_state"]
    if header != expected:
        raise SchemaError(f"canonical CSV header mismatch: {header}")
    for line_number, row in enumerate(rows[1:], start=2):
        stamp = float(row[0])
        if stamp not in by_stamp:
            by_stamp[stamp] = ([], [])
        if row[1] == "":
            continue
        s = SERIES_NAMES.index(row[1])
        by_stamp[stamp][s].append(
            MeasurementSlot(
                value=float(row[2]),
                source_id=int(row[3]),
                species_id=int(row[4]),
            )
        )

    stamps = sorted(by_stamp)
    dts = compute_increments(stamps)
    pad = tuple(MeasurementSlot() for _ in range(MAX_SLOTS))
    out_rows = []
    for stamp, dt in zip(stamps, dts):
        s1, s2 = by_stamp[stamp]
        out_rows.append(
            ObservationRow(
                stamp=stamp,
                dt=dt,
                slots_series1=tuple(s1) + pad[len(s1):],
                slots_series2=tuple(s2) + pad[len(s2):],
                climate_state=clamped_climate_state(abs(stamp)),
            )
        )
    data = PanelDataset(rows=tuple(out_rows), sources=sources, species=species)
    for sid in np.unique(data.view.source).tolist():
        sources.setdefault(sid, f"source_{sid}")
    for sid in np.unique(data.view.species).tolist():
        species.setdefault(sid, f"species_{sid}")
    return data


def write_ingest_csv(data: PanelDataset, path, header_lines=()) -> None:
    """Emit the raw ingest schema from a dataset (e.g. a simulated one).

    One line per filled slot (the parser collates them back); all-missing
    rows become both-empty lines.
    """
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line.rstrip("\n") + "\n")
        writer = csv.writer(fh)
        writer.writerow(list(REQUIRED_COLUMNS))
        for row in data.rows:
            age = repr(-row.stamp)
            if row.all_missing:
                writer.writerow([age, "", "", "", ""])
                continue
            for s in (0, 1):
                for slot in row.slots(s):
                    if slot.missing:
                        continue
                    d18o = repr(slot.value) if s == 0 else ""
                    d13c = repr(slot.value) if s == 1 else ""
                    writer.writerow(
                        [
                            age,
                            d18o,
                            d13c,
                            data.sources[slot.source_id],
                            data.species[slot.species_id],
                        ]
                    )
