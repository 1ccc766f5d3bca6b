"""Reference ingest: the object pipeline the columnar one replaced.

One frozen RawRecord per CSV line, aliases and buckets applied with
dataclasses.replace, and the record-by-record collate that builds every
Slot and Row, its own row record. Its panels are (rows, sources, species)
tuples, with no PanelDataset, so that it shares no code with the package's
collate; view_columns reads a PanelView's columns off its rows. The parity
tests compare the package's ingest and collate_rows against it, so it
stays in this plain form.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

from paleokalman.core import (
    CLIMATE_STATE_AGES,
    MAX_SLOTS,
    MISSING,
    SERIES_NAMES,
    _normalize_series,
)
from paleokalman.ingest import (
    DEFAULT_SOURCE_ALIASES,
    DEFAULT_SPECIES_BUCKETS,
    REQUIRED_COLUMNS,
    ParseError,
    SchemaError,
)


def is_missing(x: float) -> bool:
    return math.isnan(x)


@dataclass(frozen=True)
class Slot:
    """One tagged measurement: value (NaN when missing) plus group ids,
    -1 when missing."""

    value: float = MISSING
    source_id: int = -1
    species_id: int = -1

    @property
    def missing(self) -> bool:
        return is_missing(self.value)


@dataclass(frozen=True)
class Row:
    """All measurements sharing one stamp, each series padded to MAX_SLOTS
    slots; climate_state is the regime index j in 1..6."""

    stamp: float
    slots_series1: tuple
    slots_series2: tuple
    climate_state: int

    def slots(self, series: int) -> tuple:
        return self.slots_series1 if series == 0 else self.slots_series2


def view_columns(rows) -> dict:
    """The columns of the PanelView of rows, as lists, read off the rows
    and their slots one by one."""
    columns = {name: [] for name in ("stamps", "climate_states", "at", "value", "source", "species")}
    for nu, row in enumerate(rows):
        columns["stamps"].append(row.stamp)
        columns["climate_states"].append(row.climate_state)
        for s in (0, 1):
            for i, slot in enumerate(row.slots(s)):
                if not slot.missing:
                    columns["at"].append((nu * 2 + s) * MAX_SLOTS + i)
                    columns["value"].append(slot.value)
                    columns["source"].append(slot.source_id)
                    columns["species"].append(slot.species_id)
    return columns


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
    records = []
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
                    continue
                raise ParseError(line_number, "empty age_tuned cell")
            age = _parse_cell(age_text, line_number, "age_tuned")
            if not 0.0 < age < 70.0:
                raise ParseError(
                    line_number, f"age_tuned {age} outside the supported (0, 70) MYA"
                )
            records.append(
                RawRecord(
                    age,
                    _parse_cell(row[i_d18o], line_number, "d18O"),
                    _parse_cell(row[i_d13c], line_number, "d13C"),
                    row[i_source].strip(),
                    row[i_species].strip(),
                )
            )
    diagnostics = {
        "n_records": len(records),
        "n_missing_cells": sum(
            is_missing(r.d18O) + is_missing(r.d13C) for r in records
        ),
        "n_both_empty": sum(r.both_empty for r in records),
    }
    return records, diagnostics


def canonicalize_sources(records) -> list:
    aliases = DEFAULT_SOURCE_ALIASES
    out = []
    for rec in records:
        label = aliases.get(rec.source, rec.source)
        out.append(replace(rec, source=label) if label != rec.source else rec)
    return out


def apply_species_buckets(records, buckets=None) -> list:
    if buckets is None:
        buckets = DEFAULT_SPECIES_BUCKETS
    out = []
    for rec in records:
        bucket = buckets.get(rec.species, rec.species)
        out.append(replace(rec, species=bucket) if bucket != rec.species else rec)
    return out


def climate_state(age: float) -> int:
    """Regime j in 1..6 of an age: regime j covers (ages[j], ages[j-1]],
    the youngest endpoint included, and an age beyond the record takes the
    regime of its nearer endpoint."""
    ages = CLIMATE_STATE_AGES
    age = min(max(age, ages[-1]), ages[0])
    return next((j for j in range(1, 7) if ages[j] < age <= ages[j - 1]), 6)


def collate_rows(records) -> tuple:
    """Record-by-record collate: (rows, sources, species), rows a tuple of
    Rows and the registries id -> label dicts."""
    sources: dict = {}
    species: dict = {}
    source_ids: dict = {}
    species_ids: dict = {}
    by_stamp: dict = {}
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
        s = _normalize_series(series)
        slots = slots[s]
        if len(slots) >= MAX_SLOTS:
            raise ValueError(
                f"more than {MAX_SLOTS} simultaneous values for series "
                f"{SERIES_NAMES[s]} at stamp {stamp}"
            )
        if source not in source_ids:
            source_ids[source] = len(source_ids)
            sources[source_ids[source]] = source
        if species_label not in species_ids:
            species_ids[species_label] = len(species_ids)
            species[species_ids[species_label]] = species_label
        slots.append(Slot(value, source_ids[source], species_ids[species_label]))

    stamps = sorted(by_stamp)
    pad = tuple(Slot() for _ in range(MAX_SLOTS))
    rows = []
    for stamp in stamps:
        s1, s2 = by_stamp[stamp]
        rows.append(
            Row(
                stamp,
                tuple(s1) + pad[len(s1):],
                tuple(s2) + pad[len(s2):],
                climate_state(abs(stamp)),
            )
        )
    return tuple(rows), sources, species


def build_dataset(records) -> tuple:
    ordered = sorted(records, key=lambda r: -r.age_tuned)
    flat = []
    for rec in ordered:
        stamp = -rec.age_tuned
        if not is_missing(rec.d18O):
            flat.append((stamp, 0, rec.d18O, rec.source, rec.species))
        if not is_missing(rec.d13C):
            flat.append((stamp, 1, rec.d13C, rec.source, rec.species))
        elif is_missing(rec.d18O):
            flat.append((stamp, 0, None, rec.source, rec.species))
    panel = collate_rows(flat)
    rows, sources, _species = panel

    per_source = {label: {name: 0 for name in SERIES_NAMES} for label in sources.values()}
    max_slots = 0
    n_values = 0
    for row in rows:
        for s, name in enumerate(SERIES_NAMES):
            observed = [slot for slot in row.slots(s) if not slot.missing]
            max_slots = max(max_slots, len(observed))
            n_values += len(observed)
            for slot in observed:
                per_source[sources[slot.source_id]][name] += 1
    dts = [b.stamp - a.stamp for a, b in zip(rows, rows[1:])]
    diagnostics = {
        "n_records": len(records),
        "n_rows": len(rows),
        "n_values": n_values,
        "max_slots_used": max_slots,
        "min_dt": min(dts) if dts else MISSING,
        "max_dt": max(dts) if dts else MISSING,
        "per_source_counts": per_source,
        "warnings": [] if records else ["empty input: no records"],
    }
    return panel, diagnostics


def ingest(path, species_buckets=None) -> tuple:
    records, parse_diag = parse_csv(path)
    records = canonicalize_sources(records)
    records = apply_species_buckets(records, buckets=species_buckets)
    panel, diag = build_dataset(records)
    diag.update(parse_diag)
    # label -> id, as the panel's source registry numbers them
    diag["source_registry"] = {label: sid for sid, label in panel[1].items()}
    return panel, diag
