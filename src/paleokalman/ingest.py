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

parse_csv reads the file (UTF-8, a byte-order mark skipped) once, in
blocks of about 64 KiB ended at a line end, and converts each block column
by column: a float() per age and per filled isotope cell, NaN for an empty
one, a strip() per label, and the range and finiteness checks on whole
arrays. A bad record is found from those arrays and then named by the same
checks run on its cells alone. A block's cells come from one of two
tokenizers, which give the same cells:

- one str.split on commas and line ends, once the block's separators show
  that every line has the header's width and no cell is longer than
  csv.field_size_limit(). A block with quotes is split too when each quote
  that opens a cell follows a separator and no line end falls inside a
  cell: the quotes are taken out and the commas outside them made NULs to
  split on;
- csv.reader for any other block (a short, long or blank line, a quoted
  cell that spans lines or holds a quote, a NUL), read on past the block's
  end while a quoted cell runs on. The file line of a row is then found, on
  error only, by reading the block's text again.

Labels are mapped (canonicalize_sources, apply_species_buckets) and
numbered (core._intern) once per distinct label, and build_dataset puts the
records in age order by reordering integer codes.
"""

from __future__ import annotations

import csv
import io
import json
from functools import partial
from itertools import chain, compress, islice, zip_longest
from math import inf
from operator import add

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


# characters per block, read on to the end of a line: about 1,300 lines of
# the benchmark's CSV
_BLOCK_CHARS = 1 << 16
# for each cell separator that _split takes, every byte but it and the line
# end, neither of which UTF-8 uses inside a multi-byte character
_NOT_SEPARATORS = {
    separator: bytes(sorted(set(range(256)) - {ord(separator), ord("\n")}))
    for separator in ",\0"
}


def _blocks(fh, width):
    """The blocks of a CSV file after its header row, read from fh (opened
    with newline=""), as (columns, line_of): the block's cells column by
    column, at least width columns with short rows padded with empty cells,
    and a function from a row of the block to the file line it ends on. A
    csv.Error raises ParseError with its line, once the rows read before it
    have been yielded.

    A block is split on commas and line ends (_split), its quotes taken out
    first (_unquote), wherever that gives the cells csv.reader gives; any
    other block, and one with a NUL, goes through csv.reader (_read_rows).
    """
    line = 2  # the file line the block starts on
    while text := fh.read(_BLOCK_CHARS):
        text += fh.readline()
        if "\0" in text:
            # csv.reader rejects a NUL before Python 3.11, and _unquote
            # marks the commas it splits on with one
            columns = None
        elif '"' not in text:
            columns = _split(text, width, ",")
        else:
            plain = _unquote(text)
            columns = None if plain is None else _split(plain, width, "\0")
        if columns is not None:
            yield columns, partial(add, line)
            line += len(columns[0])
            continue
        rows, text, n, error = _read_rows(text, fh)
        if rows:
            yield _columns(rows, width), partial(_line_of_row, text, line)
        if error is not None:
            raise ParseError(line - 1 + n, str(error))
        line += n


def _unquote(text):
    """text with its quotes taken out and each comma outside them made a
    NUL, or None unless each quote that opens a cell (the first, the third,
    ...) follows a separator and no line end falls inside a cell. Then
    csv.reader reads text as _split reads the result on NULs and line ends:
    it keeps what follows a closing quote in the cell, up to the next
    separator."""
    # a line end on either side stands for the block's start and end
    byte = np.frombuffer(("\n" + text + "\n").encode(), np.uint8)
    at = np.flatnonzero(byte == ord('"'))
    comma = byte == ord(",")
    separator = comma | (byte == ord("\n")) | (byte == ord("\r"))
    if not separator[at[0::2] - 1].all():
        return None
    # a separator is inside a cell when an odd number of quotes come before
    # it; a line end must not be
    separators = np.flatnonzero(separator)
    inside = np.searchsorted(at, separators) % 2 == 1
    comma = comma[separators]
    if (inside & ~comma).any():
        return None
    byte = byte.copy()
    byte[separators[comma & ~inside]] = 0
    return byte[1:-1].tobytes().replace(b'"', b"").decode()


def _split(text, width, separator):
    """The cells of a block with no quote, column by column, if each of its
    lines has width cells and none is longer than csv.field_size_limit();
    else None. separator (a comma, or the NUL that _unquote puts for one)
    and line ends separate cells. With no quote no cell spans lines, so the
    split gives the cells csv.reader gives."""
    # a CR can only end a line
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            text = text.replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"
    n = text.count("\n")
    line_marks = (separator * (width - 1) + "\n").encode()
    if text.encode().translate(None, _NOT_SEPARATORS[separator]) != line_marks * n:
        return None
    # a line end is one more separator, and the last one leaves an empty
    # cell after the block's n * width
    cells = text.replace("\n", separator).split(separator)
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, cells)) > limit:
        return None
    return [cells[j : n * width : width] for j in range(width)]


def _read_rows(text, fh) -> tuple:
    """csv.reader's rows of a block, text, that ends at a line end: as many
    rows as text has lines, read on from fh line by line while a quoted
    cell runs on. Returns (rows, text, n, error): the rows read before any
    csv.Error, the text they were read from, its number of lines, and the
    error or None."""
    lines = text.count("\n")
    if "\r" in text:
        lines += text.count("\r") - text.count("\r\n")
    lines += not text.endswith(("\n", "\r"))
    more = []

    def read_on():
        for extra in iter(fh.readline, ""):
            more.append(extra)
            yield extra

    reader = csv.reader(chain(io.StringIO(text, newline=""), read_on()))
    rows, error = [], None
    try:
        rows.extend(islice(reader, lines))
    except csv.Error as exc:
        error = exc
    return rows, text + "".join(more), reader.line_num, error


def _columns(rows, width) -> list:
    """Rows as columns, at least width of them, short rows padded with
    empty cells."""
    columns = list(zip_longest(*rows, fillvalue=""))
    columns += [("",) * len(rows)] * (width - len(columns))
    return columns


def _line_of_row(text, line, row) -> int:
    """The file line that row of a block ends on: the block is text, read
    from file line line on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(islice(reader, row, None))
    return line - 1 + reader.line_num


def _number(text: str) -> float:
    """A numeric cell's float: NaN for a blank cell, inf for a malformed or
    non-finite one. float() skips whitespace; strip() also removes the ASCII
    separators 0x1c-0x1f, so a cell reads as its stripped text."""
    try:
        value = float(text)
    except ValueError:
        text = text.strip()
        if not text:
            return MISSING
        try:
            value = float(text)
        except ValueError:
            return inf
    return value if -inf < value < inf else inf


def _floats(column) -> np.ndarray:
    """A numeric column as floats: NaN (MISSING) for an empty or blank cell,
    inf for a malformed or non-finite one. A column with an empty cell has
    only its filled cells read."""
    n = len(column)
    try:
        values = np.fromiter(map(float, column), float, n)
        filled = True
    except ValueError:
        filled = np.fromiter(map(bool, column), bool, n)
        values = np.full(n, MISSING)
        try:
            values[filled] = np.fromiter(map(float, compress(column, column)), float)
        except ValueError:
            return np.fromiter(map(_number, column), float, n)
    values[filled & ~np.isfinite(values)] = inf
    return values


def _record_error(cells, index, line_number) -> ParseError:
    """The error of a record that the block checks found bad: the first
    check, in the order age_tuned, its range, d18O, d13C, that fails."""
    i_age, i_d18o, i_d13c = index[:3]
    cell = cells[i_age]
    try:
        age = float(cell)
    except ValueError:
        text = cell.strip()
        if not text:
            return ParseError(line_number, "empty age_tuned cell")
        age = _number(text)
        if age == inf:
            return _cell_error(text, line_number, "age_tuned")
    if not 0.0 < age < 70.0:
        return ParseError(
            line_number, f"age_tuned {age} outside the supported (0, 70) MYA"
        )
    if _number(cells[i_d18o]) == inf:
        return _cell_error(cells[i_d18o], line_number, "d18O")
    return _cell_error(cells[i_d13c], line_number, "d13C")


def _cell_error(text, line_number, column) -> ParseError:
    text = text.strip()
    try:
        float(text)
    except ValueError:
        return ParseError(line_number, f"malformed numeric {text!r} in column {column}")
    return ParseError(line_number, f"non-finite value {text!r} in column {column}")


def parse_csv(path) -> tuple:
    """Read the raw records in file order; returns (records, diagnostics).

    records holds five columns keyed by REQUIRED_COLUMNS, one entry per
    record: age_tuned, d18O and d13C as float arrays, with MISSING (NaN)
    for an empty isotope cell, and source and species as lists of stripped
    labels. Blank lines are skipped and short rows padded with empty cells.
    Both-empty records are kept (they mark a stamp) and counted in the
    diagnostics. A malformed or non-finite number (nan, inf), an age
    outside (0, 70) and a line that csv.reader rejects raise ParseError
    with the file line (and column); a missing header column raises
    SchemaError.

    The file is read once, and converted block by block; see the module
    docstring for the two tokenizers.
    """
    ages, d18o_cells, d13c_cells, sources, species = [], [], [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: no header row") from None
        except csv.Error as exc:
            raise ParseError(reader.line_num, str(exc)) from None
        header = [h.strip() for h in header]
        missing_cols = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing_cols:
            raise SchemaError(f"missing header columns: {', '.join(missing_cols)}")
        index = [header.index(name) for name in REQUIRED_COLUMNS]
        i_source, i_species = index[3:]
        for columns, line_of in _blocks(fh, len(header)):
            age, d18o, d13c = (_floats(columns[i]) for i in index[:3])
            keep = (0.0 < age) & (age < 70.0) & ~np.isinf(d18o) & ~np.isinf(d13c)
            for i in np.flatnonzero(~keep).tolist():
                cells = [column[i] for column in columns]
                if any(map(str.strip, cells)):
                    raise _record_error(cells, index, line_of(i))
                # a blank line
            ages.append(age[keep])
            d18o_cells.append(d18o[keep])
            d13c_cells.append(d13c[keep])
            kept = keep.tolist()
            sources.extend(compress(map(str.strip, columns[i_source]), kept))
            species.extend(compress(map(str.strip, columns[i_species]), kept))
    records = {
        "age_tuned": np.concatenate([[], *ages]),
        "d18O": np.concatenate([[], *d18o_cells]),
        "d13C": np.concatenate([[], *d13c_cells]),
        "source": sources,
        "species": species,
    }
    no_d18o, no_d13c = np.isnan(records["d18O"]), np.isnan(records["d13C"])
    diagnostics = {
        "n_records": len(sources),
        "n_missing_cells": int(no_d18o.sum() + no_d13c.sum()),
        "n_both_empty": int((no_d18o & no_d13c).sum()),
    }
    return records, diagnostics


def canonicalize_sources(records) -> dict:
    """Apply DEFAULT_SOURCE_ALIASES to the source column; returns the
    records. Unknown labels pass through unchanged. Sources are numbered
    later, by build_dataset.
    """
    return {**records, "source": _relabel(records["source"], DEFAULT_SOURCE_ALIASES)}


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
    return {**records, "species": _relabel(records["species"], buckets)}


def _relabel(labels, mapping) -> list:
    """labels with each one that mapping holds replaced by its value; each
    distinct label is looked up once."""
    new = {label: mapping.get(label, label) for label in dict.fromkeys(labels)}
    return list(map(new.__getitem__, labels))


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
    source_ids, source_index = _intern(records["source"], observed, order)
    species_ids, species_index = _intern(records["species"], observed, order)
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
