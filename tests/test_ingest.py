"""Raw CSV parsing, label canonicalization, and the export round trip."""

import csv
import importlib
import json
import math
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from paleokalman import ModelSpec, simulate
from paleokalman.ingest import (
    DEFAULT_SOURCE_ALIASES,
    DEFAULT_SPECIES_BUCKETS,
    ParseError,
    SchemaError,
    apply_species_buckets,
    build_dataset,
    canonicalize_sources,
    ingest,
    load_species_buckets,
    parse_csv,
    write_ingest_csv,
)

# the module, whose name the package's ingest function shadows
ingest_module = importlib.import_module("paleokalman.ingest")

RAW = """age_tuned,d18O,d13C,source,species
3.5,2.10,0.55,Site A,CSPP
2.0,1.95,,Site B,"CSPP, >250"
2.0,1.90,0.60,Site A,CSPP
1.0,,,Site A,CSPP
0.5,1.80,0.40,this study,CSPP
"""


def _write(tmp_path, text, name="raw.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_happy_path(tmp_path):
    records, diag = parse_csv(_write(tmp_path, RAW))
    assert diag["n_records"] == 5
    assert diag["n_both_empty"] == 1
    assert diag["n_missing_cells"] == 3  # one lone d13C gap + the empty pair
    assert set(records) == {"age_tuned", "d18O", "d13C", "source", "species"}
    assert records["age_tuned"].tolist() == [3.5, 2.0, 2.0, 1.0, 0.5]
    assert records["d18O"][1] == 1.95
    assert math.isnan(records["d13C"][1])
    assert math.isnan(records["d18O"][3]) and math.isnan(records["d13C"][3])
    assert records["source"] == ["Site A", "Site B", "Site A", "Site A", "this study"]
    assert records["species"][1] == "CSPP, >250"


def test_parse_header_order_does_not_matter(tmp_path):
    text = "species,source,d13C,d18O,age_tuned\nCSPP,Site A,0.5,2.1,3.5\n"
    records, _ = parse_csv(_write(tmp_path, text))
    assert records["age_tuned"][0] == 3.5
    assert records["d18O"][0] == 2.1
    assert records["d13C"][0] == 0.5
    assert records["source"][0] == "Site A"
    assert records["species"][0] == "CSPP"


def test_parse_skips_blank_lines_and_pads_short_rows(tmp_path):
    text = "age_tuned,d18O,d13C,source,species\n3.5,2.1,0.5,Site A,CSPP\n\n2.0,1.9\n"
    records, _ = parse_csv(_write(tmp_path, text))
    assert len(records["age_tuned"]) == 2
    assert math.isnan(records["d13C"][1])
    assert records["source"][1] == ""


def test_parse_missing_column_is_schema_error(tmp_path):
    text = "age_tuned,d18O,source,species\n3.5,2.1,Site A,CSPP\n"
    with pytest.raises(SchemaError, match="d13C"):
        parse_csv(_write(tmp_path, text))


def test_parse_empty_file_is_schema_error(tmp_path):
    with pytest.raises(SchemaError):
        parse_csv(_write(tmp_path, ""))


def test_parse_malformed_number_reports_line(tmp_path):
    text = "age_tuned,d18O,d13C,source,species\n3.5,2.1,0.5,A,S\n2.0,oops,0.1,A,S\n"
    with pytest.raises(ParseError) as err:
        parse_csv(_write(tmp_path, text))
    assert err.value.line_number == 3
    assert "oops" in str(err.value)


def test_parse_error_gives_the_file_line_after_a_multiline_record(tmp_path):
    # the first record's quoted source label spans lines 2 and 3
    text = 'age_tuned,d18O,d13C,source,species\n3.5,2.1,0.5,"Site\nA",S\n2.0,oops,0.1,A,S\n'
    with pytest.raises(ParseError) as err:
        parse_csv(_write(tmp_path, text))
    assert str(err.value) == "line 4: malformed numeric 'oops' in column d18O"


def test_parse_cells_read_as_their_stripped_text(tmp_path):
    # whitespace float() skips, and the ASCII separators \x1c-\x1f, which
    # only strip() removes, both give the stripped cell's value
    text = (
        "age_tuned,d18O,d13C,source,species\n"
        " 3.5 , 2.1 ,\t0.5\t,A,S\n"
        "2.0,\x1c1.5\x1f,  ,A,S\n"
    )
    records, diag = parse_csv(_write(tmp_path, text))
    assert records["age_tuned"].tolist() == [3.5, 2.0]
    assert records["d18O"].tolist() == [2.1, 1.5]
    assert records["d13C"][0] == 0.5 and math.isnan(records["d13C"][1])
    assert diag["n_missing_cells"] == 1


@pytest.mark.parametrize(
    "line, column, text",
    [
        (" 3.5a ,2.1,0.5,A,S", "age_tuned", "3.5a"),
        ("3.5, 2.1x ,0.5,A,S", "d18O", "2.1x"),
        ("3.5,2.1,\x1c0.5 5\x1c,A,S", "d13C", "0.5 5"),
    ],
)
def test_parse_malformed_cell_names_its_stripped_text(tmp_path, line, column, text):
    raw = f"age_tuned,d18O,d13C,source,species\n3.0,1.0,0.1,A,S\n{line}\n"
    with pytest.raises(ParseError) as err:
        parse_csv(_write(tmp_path, raw))
    assert str(err.value) == f"line 3: malformed numeric {text!r} in column {column}"


@pytest.mark.parametrize(
    "line, column, text",
    [
        ("3.5,nan,0.5,A,S", "d18O", "nan"),
        ("3.5,2.1, NaN ,A,S", "d13C", "NaN"),
        ("3.5,inf,0.5,A,S", "d18O", "inf"),
        ("3.5,,-Infinity,A,S", "d13C", "-Infinity"),
    ],
)
def test_parse_rejects_non_finite_isotope_cells(tmp_path, line, column, text):
    # a nan cell is not a missing value, and an infinite one no observation
    raw = f"age_tuned,d18O,d13C,source,species\n3.0,1.0,,A,S\n{line}\n"
    with pytest.raises(ParseError) as err:
        parse_csv(_write(tmp_path, raw))
    assert str(err.value) == f"line 3: non-finite value {text!r} in column {column}"


@pytest.mark.parametrize("age", ["0", "-1.5", "70", "71.2"])
def test_parse_age_domain_enforced(tmp_path, age):
    text = f"age_tuned,d18O,d13C,source,species\n{age},2.1,0.5,A,S\n"
    with pytest.raises(ParseError) as err:
        parse_csv(_write(tmp_path, text))
    assert err.value.line_number == 2


def test_parse_empty_age_is_error(tmp_path):
    text = "age_tuned,d18O,d13C,source,species\n,2.1,0.5,A,S\n"
    with pytest.raises(ParseError, match="age_tuned"):
        parse_csv(_write(tmp_path, text))


def test_parse_whitespace_lines_and_padded_rows(tmp_path):
    text = (
        "age_tuned,d18O,d13C,source,species\n"
        "   \n"
        "3.5,2.1,0.5,Site A,CSPP\n"
        " , ,\t, , \n"
        "2.0\n"
        "1.0,1.9\n"
    )
    records, diag = parse_csv(_write(tmp_path, text))
    assert records["age_tuned"].tolist() == [3.5, 2.0, 1.0]
    assert math.isnan(records["d18O"][1]) and math.isnan(records["d13C"][1])
    assert records["d18O"][2] == 1.9 and math.isnan(records["d13C"][2])
    assert (records["source"][2], records["species"][2]) == ("", "")
    assert diag == {"n_records": 3, "n_missing_cells": 3, "n_both_empty": 1}


def test_parse_empty_age_in_short_row_reports_line(tmp_path):
    text = "d18O,age_tuned,d13C,source,species\n2.1,3.5,0.5,A,S\n \n2.0\n"
    with pytest.raises(ParseError, match="line 4: empty age_tuned cell"):
        parse_csv(_write(tmp_path, text))


HEADER = "age_tuned,d18O,d13C,source,species\n"


@pytest.mark.parametrize("quote", ["", '"'])
def test_parse_field_over_the_csv_limit_is_parse_error(tmp_path, quote):
    # csv.reader rejects a cell longer than csv.field_size_limit(); both
    # tokenizers give that as a ParseError on the cell's line
    label = quote + "x" * 200_000 + quote
    text = HEADER + "3.0,1.0,,A,S\n" + f"2.0,1.0,,{label},S\n" + "1.0,1.0,,A,S\n"
    with pytest.raises(ParseError) as err:
        parse_csv(_write(tmp_path, text))
    assert err.value.line_number == 3
    assert str(err.value) == f"line 3: field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize("quote", ["", '"'])
def test_parse_nul_byte_is_read_as_csv_reader_reads_it(tmp_path, quote):
    # csv.reader rejects a NUL on Python 3.10 and keeps it from 3.11 on;
    # parse_csv does the same in both tokenizers
    text = HEADER + "3.0,1.0,,A,S\n" + f"2.0,1.0,,{quote}A\0B{quote},S\n"
    path = _write(tmp_path, text)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            list(csv.reader(fh))
    except csv.Error as exc:
        with pytest.raises(ParseError) as err:
            parse_csv(path)
        assert str(err.value) == f"line 3: {exc}"
    else:
        records, _ = parse_csv(path)
        assert records["source"] == ["A", "A\0B"]


def test_parse_skips_a_byte_order_mark(tmp_path):
    # a file saved as "CSV UTF-8" starts with a BOM, which is not part of
    # the first header name
    plain = _write(tmp_path, RAW, "plain.csv")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    (data, diag), (twin, twin_diag) = ingest(marked), ingest(plain)
    for name in ("stamps", "climate_states", "at", "value", "source", "species"):
        assert getattr(data.view, name).tobytes() == getattr(twin.view, name).tobytes()
    assert (data.sources, data.species) == (twin.sources, twin.species)
    assert diag.keys() == twin_diag.keys()
    assert json.dumps(diag) == json.dumps(twin_diag)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final", [True, False])
@pytest.mark.parametrize("label", ['"CSPP, >250"', "CSPP >250"])
def test_parse_line_ends(tmp_path, end, final, label):
    text = RAW.replace('"CSPP, >250"', label).replace("\n", end)
    if not final:
        text = text[: -len(end)]
    path = tmp_path / "raw.csv"
    path.write_bytes(text.encode())
    records, diag = parse_csv(path)
    assert records["age_tuned"].tolist() == [3.5, 2.0, 2.0, 1.0, 0.5]
    assert records["species"] == ["CSPP", label.strip('"'), "CSPP", "CSPP", "CSPP"]
    assert diag == {"n_records": 5, "n_missing_cells": 3, "n_both_empty": 1}


@pytest.mark.parametrize("text", [HEADER, HEADER[:-1], HEADER + "\n \n"])
def test_parse_header_only_file(tmp_path, text):
    records, diag = parse_csv(_write(tmp_path, text))
    assert records["age_tuned"].dtype == np.float64
    assert [len(column) for column in records.values()] == [0] * 5
    assert diag == {"n_records": 0, "n_missing_cells": 0, "n_both_empty": 0}


@pytest.mark.parametrize("quote", ["", '"'])
def test_parse_error_in_a_later_block_gives_its_file_line(tmp_path, quote):
    # 6,000 lines: past the first block of either tokenizer
    lines = [f"{1.0 + i * 1e-3!r},{i * 1e-4!r},,{quote}src{i % 3}{quote},sp\n" for i in range(6000)]
    lines[5000] = "2.0,oops,,A,S\n"
    path = _write(tmp_path, HEADER + "".join(lines))
    with pytest.raises(ParseError) as err:
        parse_csv(path)
    assert str(err.value) == "line 5002: malformed numeric 'oops' in column d18O"
    del lines[5000]
    records, diag = parse_csv(_write(tmp_path, HEADER + "".join(lines)))
    assert diag["n_records"] == 5999
    assert records["age_tuned"][5000] == 1.0 + 5001 * 1e-3
    assert records["source"][-1] == "src2"


@pytest.mark.parametrize("block_chars", [1, 1 << 16])
@pytest.mark.parametrize("bad_at", [1000, 2500])
def test_parse_quoted_cell_that_spans_lines_past_a_block(tmp_path, block_chars, bad_at):
    # record 1000's quoted label spans file lines 1002-1003; one-character
    # blocks end each block at a line end, here inside that label, so
    # csv.reader reads on into the file for the rest of it
    lines = [f'{1.0 + i * 1e-3!r},{i * 1e-4!r},,"src, {i % 3}",sp\n' for i in range(3000)]
    lines[1000] = '2.0,1.0,,"two\nlines",sp\n'
    lines[bad_at] = lines[bad_at].replace(",", ",oops", 1)
    path = _write(tmp_path, HEADER + "".join(lines))
    with mock.patch.object(ingest_module, "_BLOCK_CHARS", block_chars):
        with pytest.raises(ParseError) as err:
            parse_csv(path)
        assert err.value.line_number == bad_at + 3
        lines[bad_at] = lines[bad_at].replace("oops", "")
        records, diag = parse_csv(_write(tmp_path, HEADER + "".join(lines)))
    assert diag["n_records"] == 3000
    assert records["source"][999:1002] == ["src, 0", "two\nlines", "src, 2"]
    assert records["age_tuned"][2999] == 1.0 + 2999 * 1e-3


@pytest.mark.skipif(sys.platform != "linux", reason="opens a pipe by its /dev/fd path")
@pytest.mark.parametrize("block_chars", [1, 1 << 16])
def test_parse_csv_reads_a_pipe(tmp_path, block_chars):
    # the file is opened and read once, so a pipe (a FIFO, or /dev/stdin fed
    # by one) reads like the file it carries
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, RAW.encode())  # a few lines: the pipe holds them
        os.close(write_end)
        with mock.patch.object(ingest_module, "_BLOCK_CHARS", block_chars):
            records, diag = parse_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    want, want_diag = parse_csv(_write(tmp_path, RAW))
    assert diag == want_diag
    for name in ("age_tuned", "d18O", "d13C"):
        assert records[name].tobytes() == want[name].tobytes()
    assert (records["source"], records["species"]) == (want["source"], want["species"])


@pytest.mark.parametrize("quote", ["", '"'])
def test_parse_csv_peak_memory_stays_below_a_whole_file_read(tmp_path, quote):
    # block by block: a paper-size file (23,722 rows, ~47,000 lines) never
    # sits in memory whole, so what parse_csv holds at its peak beyond the
    # records it returns is less than the file's text alone
    rng = np.random.default_rng(7)
    stamps = np.cumsum(rng.exponential(67.1 / 23722, size=23722))
    data = simulate(
        ModelSpec(arity="bivariate", corr_grouping="pooled"),
        [0.01, 0.02, 0.001, 0.002, 0.5],
        stamps - stamps[-1] - 0.001,
        seed=7,
        n_sources=4,
        n_species=3,
    )
    path = tmp_path / "paper.csv"
    write_ingest_csv(data, path)
    if quote:
        header, *lines = path.read_text().splitlines()
        rows = (line.split(",") for line in lines)
        quoted = [",".join(row[:3] + [f'"{cell}"' for cell in row[3:]]) for row in rows]
        path.write_text("\n".join([header, *quoted, ""]))
    tracemalloc.start()
    try:
        records, _ = parse_csv(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records["age_tuned"].size == 2 * 23722
    assert peak - retained < path.stat().st_size, (peak, retained)


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def test_source_aliases_applied():
    records = canonicalize_sources(
        _columns(
            _rec(3.0, source="this study"),
            _rec(2.0, source="McCarren et al. 2008 et al. 2008"),
            _rec(1.0, source="Bickert et al.1997"),
        )
    )
    assert records["source"] == [
        "Westerhold et al. 2020",
        "McCarren et al. 2008",
        "Bickert et al. 1997",
    ]


def test_registry_first_appearance_skips_markers():
    records = _columns(
        _rec(3.0, source="B"),
        _rec(2.5, source="marker", d18O=float("nan"), d13C=float("nan")),
        _rec(2.0, source="A"),
        _rec(1.0, source="B"),
    )
    data, _ = build_dataset(canonicalize_sources(records))
    assert data.sources == {0: "B", 1: "A"}


def test_source_registry_numbers_sources_as_the_dataset_does(tmp_path):
    # file order (young first) differs from age order (old first): the
    # registry takes the dataset's ids, which follow age order
    text = (
        "age_tuned,d18O,d13C,source,species\n"
        "1.0,1.5,,Young Site,CSPP\n"
        "5.0,1.7,,Old Site,CSPP\n"
    )
    data, diag = ingest(_write(tmp_path, text))
    assert data.sources == {0: "Old Site", 1: "Young Site"}
    assert diag["source_registry"] == {"Old Site": 0, "Young Site": 1}
    assert data.view.source.tolist() == [0, 1]


def test_species_buckets_defaults():
    records = apply_species_buckets(
        _columns(
            _rec(3.0, species="CSPP, >250"),
            _rec(2.0, species="CSPP, whole specimen"),
            _rec(1.0, species="Unlisted sp."),
        )
    )
    assert records["species"] == ["CSPP >250", "CSPP other", "Unlisted sp."]


def test_species_bucket_sidecar_overlay(tmp_path):
    sidecar = tmp_path / "buckets.json"
    sidecar.write_text(json.dumps({"Unlisted sp.": "CSPP other"}))
    buckets = load_species_buckets(sidecar)
    assert buckets["Unlisted sp."] == "CSPP other"
    # defaults survive the overlay
    for k, v in DEFAULT_SPECIES_BUCKETS.items():
        assert buckets[k] == v


def test_species_bucket_sidecar_must_be_object(tmp_path):
    sidecar = tmp_path / "buckets.json"
    sidecar.write_text(json.dumps(["not", "a", "map"]))
    with pytest.raises(SchemaError):
        load_species_buckets(sidecar)


def _rec(age, d18O=1.0, d13C=0.5, source="src", species="sp"):
    return (age, d18O, d13C, source, species)


def _columns(*recs):
    # parse_csv's record columns, from (age, d18O, d13C, source, species)
    ages, d18o, d13c, sources, species = zip(*recs)
    return {
        "age_tuned": np.array(ages),
        "d18O": np.array(d18o),
        "d13C": np.array(d13c),
        "source": list(sources),
        "species": list(species),
    }


# ---------------------------------------------------------------------------
# dataset construction
# ---------------------------------------------------------------------------


def test_build_dataset_diagnostics(tmp_path):
    data, diag = ingest(_write(tmp_path, RAW))
    assert data.n_rows == 4  # ages 3.5, 2.0 (merged), 1.0 (marker), 0.5
    assert diag["n_rows"] == 4
    assert diag["n_values"] == 7
    assert diag["max_slots_used"] == 2  # two d18O values at age 2.0
    assert diag["min_dt"] == pytest.approx(0.5)
    assert diag["max_dt"] == pytest.approx(1.5)
    assert diag["source_registry"] == {
        "Site A": 0,
        "Site B": 1,
        "Westerhold et al. 2020": 2,
    }
    counts = diag["per_source_counts"]
    assert counts["Site A"] == {"d18O": 2, "d13C": 2}
    assert counts["Site B"] == {"d18O": 1, "d13C": 0}


def test_build_dataset_stamps_negated_and_sorted(tmp_path):
    data, _ = ingest(_write(tmp_path, RAW))
    stamps = data.view.stamps.tolist()
    assert stamps == [-3.5, -2.0, -1.0, -0.5]
    assert 2 not in data.view.row  # the both-empty marker holds no slot


def test_build_dataset_empty_records():
    data, diag = build_dataset(
        {c: np.array([]) for c in ("age_tuned", "d18O", "d13C")} | {"source": [], "species": []}
    )
    assert diag["warnings"]
    assert data.n_rows == 0


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_exports_are_byte_exact(tmp_path):
    # the all-missing row at age 1.0 stays a line
    data, _ = ingest(_write(tmp_path, RAW))
    write_ingest_csv(data, tmp_path / "export.csv")
    assert (tmp_path / "export.csv").read_text() == (
        "age_tuned,d18O,d13C,source,species\n"
        "3.5,2.1,,Site A,CSPP\n3.5,,0.55,Site A,CSPP\n"
        "2.0,1.95,,Site B,CSPP >250\n2.0,1.9,,Site A,CSPP\n2.0,,0.6,Site A,CSPP\n"
        "1.0,,,,\n"
        "0.5,1.8,,Westerhold et al. 2020,CSPP\n0.5,,0.4,Westerhold et al. 2020,CSPP\n"
    )


def test_ingest_csv_round_trip(tmp_path):
    data, diag = ingest(_write(tmp_path, RAW))
    out = tmp_path / "export.csv"
    write_ingest_csv(data, out)
    data2, diag2 = ingest(out)
    assert data2.n_rows == data.n_rows
    assert diag2["n_values"] == diag["n_values"]
    assert np.allclose(data2.view.stamps, data.view.stamps, rtol=0.0, atol=1e-12)
    # per (row, series), the same values
    got, want = (
        sorted(zip(d.view.row.tolist(), d.view.series.tolist(), d.view.value.tolist()))
        for d in (data2, data)
    )
    assert [g[:2] for g in got] == [w[:2] for w in want]
    assert np.allclose([g[2] for g in got], [w[2] for w in want])


def test_ingest_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest(tmp_path / "nope.csv")
