"""The columnar ingest and collate against the object pipeline they replaced.

reference_ingest holds that pipeline. Both read the same inputs, and the
panels must agree: every column of the view with the reference's rows
read slot by slot, registries with their order, diagnostics, and every
error with its text.
"""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paleokalman.core import PanelView, collate_rows
from paleokalman.ingest import ParseError, ingest, write_ingest_csv

import reference_ingest as reference
from conftest import MIXED_RECORDS, mixed_panels

VIEW_DTYPES = {
    "stamps": np.float64,
    "climate_states": np.int32,
    "at": np.int64,
    "value": np.float64,
    "source": np.int32,
    "species": np.int32,
}


def view_lists(view) -> dict:
    return {name: getattr(view, name).tolist() for name in VIEW_DTYPES}


def assert_same_panel(new, old):
    # old is the reference's (rows, sources, species): the panels agree
    # row by row, field by field, and registries with their order
    old_rows, old_sources, old_species = old
    assert isinstance(new.rows, PanelView)
    assert view_lists(new.view) == reference.view_columns(old_rows)
    assert list(new.sources.items()) == list(old_sources.items())
    assert list(new.species.items()) == list(old_species.items())
    for name, dtype in VIEW_DTYPES.items():
        column = getattr(new.view, name)
        assert column.dtype == dtype, name
        assert not column.flags.writeable, name


def assert_same_diagnostics(new, old):
    assert new.keys() == old.keys()
    for key in ("min_dt", "max_dt"):
        assert new[key] == old[key] or (math.isnan(new[key]) and math.isnan(old[key]))
    for key in ("source_registry", "per_source_counts"):
        assert list(new[key].items()) == list(old[key].items())
    rest = set(new) - {"min_dt", "max_dt", "source_registry", "per_source_counts"}
    assert {k: new[k] for k in rest} == {k: old[k] for k in rest}


def assert_same_outcome(new_call, old_call, compare):
    """Both calls succeed and compare equal, or both raise the same error."""
    try:
        old = old_call()
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            new_call()
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
        if isinstance(exc, ParseError):
            assert err.value.line_number == exc.line_number
        return
    compare(new_call(), old)


def assert_same_ingest(path):
    def compare(new, old):
        assert_same_panel(new[0], old[0])
        assert_same_diagnostics(new[1], old[1])

    assert_same_outcome(lambda: ingest(path), lambda: reference.ingest(path), compare)


@pytest.mark.parametrize("build", ["collated", "merged", "merged_edges"])
def test_mixed_panels_as_ingest_csv(tmp_path, build):
    path = tmp_path / "panel.csv"
    write_ingest_csv(mixed_panels()[build], path)
    assert_same_ingest(path)


# Few distinct ages, so that records share stamps (two spellings of 2.0)
# and a series now and then gets a fifth slot at one stamp.
_AGES = ["0.5", "2.0", " 2.00", "3.3", "13.9", "34.0", "56.0", "67.10113"]
_VALUES = st.one_of(
    st.sampled_from(["", " ", "\t", " 1.5 ", "\x1c-0.25\x1f", "1e-2"]),
    st.floats(-5.0, 5.0, allow_nan=False).map(repr),
)
_SOURCES = [
    "A",
    " A ",
    "B",
    "",
    "this study",
    "Westerhold et al. 2020",
    "Bickert et al.1997",
    "McCarren et al. 2008 et al. 2008",
]
_SPECIES = ["CSPP", "CSPP, >250", "CSPP, specimen >250 μm", "CSPP, whole specimen", "X"]
_LINE = st.tuples(
    st.sampled_from(_AGES),
    _VALUES,
    _VALUES,
    st.sampled_from(_SOURCES),
    st.sampled_from(_SPECIES),
)
# a line each of the parse checks rejects
_BAD_LINE = st.sampled_from(
    [
        ("2.0", "oops", "", "A", "X"),
        ("2.0", "1.0", "1.2.3", "A", "X"),
        ("71", "1.0", "", "A", "X"),
        (" ", "1.0", "", "A", "X"),
        ("2.0x", "", "", "A", "X"),
    ]
)


@settings(max_examples=80, deadline=None)
@given(
    lines=st.lists(_LINE, max_size=24),
    blank_at=st.none() | st.integers(0, 24),
    bad=st.none() | st.tuples(st.integers(0, 24), _BAD_LINE),
)
def test_generated_ingest_csvs(lines, blank_at, bad):
    lines = list(lines)
    if blank_at is not None:
        lines.insert(blank_at, ())
    if bad is not None:
        lines.insert(*bad)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["age_tuned", "d18O", "d13C", "source", "species"])
            writer.writerows(lines)
        assert_same_ingest(path)


_RECORD = st.tuples(
    st.sampled_from([-3.0, -2.0, -1.5, -0.25]),
    st.sampled_from([0, 1, 2, "d18O", "d13C"]),
    st.none() | st.floats(-5.0, 5.0, allow_nan=False),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["s", "t"]),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_RECORD, max_size=20))
def test_generated_records_collate(records):
    # unsorted records: registries keep input order of first appearance
    def compare(new, old):
        assert_same_panel(new, old)

    assert_same_outcome(
        lambda: collate_rows(records), lambda: reference.collate_rows(records), compare
    )


def test_mixed_records_collate():
    assert_same_panel(collate_rows(MIXED_RECORDS), reference.collate_rows(MIXED_RECORDS))


@pytest.mark.parametrize("ages", [(3.0, 2.0), (2.0, 3.0)])
def test_fifth_slot_names_first_offending_record(tmp_path, ages):
    # d13C overflows at the file's first age and d18O at its second: ingest
    # collates in age order, collate_rows in input order
    first, second = ages
    entries = [(first, 1, v) for v in (0.1, 0.2, 0.3, 0.4, 0.5)]
    entries += [(second, 0, v) for v in (1.0, 1.1, 1.2, 1.3, 1.4)]
    path = tmp_path / "raw.csv"
    cells = {0: "{},", 1: ",{}"}
    path.write_text(
        "age_tuned,d18O,d13C,source,species\n"
        + "".join(f"{a},{cells[s].format(v)},A,X\n" for a, s, v in entries)
    )
    records = [(-a, s, v, "A", "X") for a, s, v in entries]
    for new, old in [
        (lambda: ingest(path), lambda: reference.ingest(path)),
        (lambda: collate_rows(records), lambda: reference.collate_rows(records)),
    ]:
        with pytest.raises(ValueError, match="more than 4 simultaneous values"):
            old()
        assert_same_outcome(new, old, None)
