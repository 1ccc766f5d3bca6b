"""Panel model, climate-state assignment, and record collation."""

import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paleokalman import ModelSpec, build_layout, compile_model
from paleokalman.core import (
    _CSV_BLOCK_ROWS,
    CLIMATE_STATE_AGES,
    CLIMATE_STATE_NAMES,
    MAX_SLOTS,
    MISSING,
    PanelDataset,
    PanelView,
    assign_climate_state,
    climate_states,
    collate_rows,
    flatten_records,
    _float_text,
    _write_csv,
)
from paleokalman.kalman import loglik

import reference_ingest as reference
from conftest import MIXED_RECORDS, mixed_panels, recollate


def test_missing_sentinel():
    assert math.isnan(MISSING)


# ---------------------------------------------------------------------------
# climate states
# ---------------------------------------------------------------------------


def test_climate_state_table():
    # six states, boundaries in descending age order (oldest bound as printed)
    assert len(CLIMATE_STATE_NAMES) == 6
    assert CLIMATE_STATE_AGES[0] == 67.10113
    assert CLIMATE_STATE_AGES[-1] == 0.000564
    assert list(CLIMATE_STATE_AGES) == sorted(CLIMATE_STATE_AGES, reverse=True)


@pytest.mark.parametrize(
    "age, state",
    [
        (67.10113, 1),  # oldest endpoint closed
        (60.0, 1),
        (56.0, 2),  # an interval "a to b" (a > b) covers (b, a]
        (50.0, 2),
        (47.0, 3),
        (40.0, 3),
        (34.0, 4),
        (20.0, 4),
        (13.9, 5),
        (5.0, 5),
        (3.3, 6),
        (1.0, 6),
        (0.000564, 6),  # youngest endpoint closed
    ],
)
def test_assign_climate_state_boundaries(age, state):
    assert assign_climate_state(age) == state


def _clamped_state(age) -> int:
    # climate_states' rule for one age: the strict map of the age clamped
    # into the record
    ages = CLIMATE_STATE_AGES
    return assign_climate_state(min(max(age, ages[-1]), ages[0]))


@pytest.mark.parametrize(
    "age", [0.0, 0.0005, 67.2, -1.0, 70.0, 1e-300, 80.0, math.inf, -math.inf]
)
def test_assign_climate_state_out_of_domain(age):
    with pytest.raises(ValueError, match="outside the covered range"):
        assign_climate_state(age)
    # climate_states takes the nearest endpoint's regime instead; a stamp's
    # age is its absolute value
    assert climate_states(age) == (1 if abs(age) > CLIMATE_STATE_AGES[0] else 6)


def test_clamped_state_extends_endpoints():
    assert climate_states(0.0) == 6
    assert climate_states(0.0001) == 6
    assert climate_states(69.0) == 1
    # a stamp's sign is the age convention: -69.0 is as old as 69.0
    assert climate_states(-69.0) == 1
    # interior agrees with the strict map
    for age in (0.01, 3.3, 13.9, 34.0, 47.0, 56.0, 66.0):
        assert climate_states(age) == climate_states(-age) == assign_climate_state(age)


@given(st.floats(min_value=0.000564, max_value=67.10113, allow_nan=False))
def test_climate_state_strict_and_clamped_agree_in_domain(age):
    assert assign_climate_state(age) == climate_states(-age)


@given(st.floats(min_value=0.0, max_value=70.0, allow_nan=False))
def test_clamped_state_total_and_ordered(age):
    j = climate_states(age)
    assert 1 <= j <= 6
    # older ages never get a larger state index
    j2 = climate_states(min(age + 1.0, 70.0))
    assert j2 <= j


@pytest.mark.parametrize("i", range(len(CLIMATE_STATE_AGES)))
def test_climate_state_at_each_boundary_and_its_float_neighbours(i):
    # boundary i closes the old end of regime i + 1; the youngest boundary
    # closes the young end of regime 6
    edge = CLIMATE_STATE_AGES[i]
    older = float(np.nextafter(edge, math.inf))
    younger = float(np.nextafter(edge, 0.0))
    at = min(i + 1, 6)
    assert assign_climate_state(edge) == climate_states(edge) == at
    assert climate_states(older) == max(i, 1)
    assert climate_states(younger) == at
    if i == 0:
        with pytest.raises(ValueError, match="outside the covered range"):
            assign_climate_state(older)
    else:
        assert assign_climate_state(older) == i
    if i == len(CLIMATE_STATE_AGES) - 1:
        with pytest.raises(ValueError, match="outside the covered range"):
            assign_climate_state(younger)
    else:
        assert assign_climate_state(younger) == at


def test_assign_climate_state_of_nan_age_raises():
    with pytest.raises(ValueError, match="outside the covered range"):
        assign_climate_state(math.nan)


@pytest.mark.parametrize(
    "stamps, first", [([math.nan, -1.0], 0), ([-1.0, -2.0, math.nan, math.nan], 2), (math.nan, 0)]
)
def test_climate_states_of_a_nan_stamp_raises(stamps, first):
    # a NaN has no age, so no regime
    with pytest.raises(ValueError, match=re.escape(f"stamps[{first}] is NaN")):
        climate_states(stamps)


@given(st.floats(min_value=-80.0, max_value=80.0, allow_nan=False))
def test_clamped_state_follows_the_interval_table(age):
    # regime j covers (ages[j], ages[j-1]], the youngest endpoint included;
    # an age beyond the record takes its nearest endpoint's regime
    ages = CLIMATE_STATE_AGES
    clamped = min(max(abs(age), ages[-1]), ages[0])
    expected = [j for j in range(1, 7) if ages[j] < clamped <= ages[j - 1]] or [6]
    assert climate_states(age) == _clamped_state(abs(age)) == expected[0]


@given(st.lists(st.floats(min_value=-80.0, max_value=80.0, allow_nan=False)))
def test_climate_states_is_clamped_climate_state_per_stamp(stamps):
    edges = np.array(CLIMATE_STATE_AGES)
    stamps = np.concatenate(
        [stamps, edges, -edges, np.nextafter(edges, 0.0), np.nextafter(edges, 99.0)]
    )
    states = climate_states(stamps)
    assert states.dtype == np.int32
    assert states.tolist() == [_clamped_state(abs(t)) for t in stamps.tolist()]


# ---------------------------------------------------------------------------
# collation
# ---------------------------------------------------------------------------


def test_collate_merges_same_stamp():
    records = [
        (-2.0, 0, 3.1, "src A", "sp"),
        (-2.0, 0, 3.3, "src B", "sp"),
        (-1.0, 0, 2.9, "src A", "sp"),
        (-2.0, 1, 1.1, "src A", "sp"),
    ]
    v = collate_rows(records).view
    assert v.stamps.tolist() == [-2.0, -1.0]
    # row 0: d18O slots 0 and 1, then d13C slot 0; row 1: d18O slot 0
    assert v.at.tolist() == [0, 1, MAX_SLOTS, 2 * MAX_SLOTS]
    assert v.value.tolist() == [3.1, 3.3, 1.1, 2.9]


def test_collate_sorts_ascending():
    records = [
        (-1.0, 0, 2.9, "a", "s"),
        (-3.0, 0, 3.1, "a", "s"),
        (-2.0, 0, 3.0, "a", "s"),
    ]
    data = collate_rows(records)
    assert data.view.stamps.tolist() == [-3.0, -2.0, -1.0]


def test_collate_interns_sources_first_appearance():
    records = [
        (-3.0, 0, 1.0, "beta", "x"),
        (-2.0, 0, 1.1, "alpha", "x"),
        (-1.0, 0, 1.2, "beta", "y"),
    ]
    data = collate_rows(records)
    assert data.sources == {0: "beta", 1: "alpha"}
    assert data.species == {0: "x", 1: "y"}
    assert data.view.source.tolist() == [0, 1, 0]
    assert data.view.species.tolist() == [0, 0, 1]


def test_collate_stamp_marker_makes_all_missing_row():
    records = [
        (-3.0, 0, 1.0, "a", "s"),
        (-2.0, 0, None, "phantom", "phantom"),  # marker: stamp only
        (-1.0, 0, 1.2, "a", "s"),
    ]
    data = collate_rows(records)
    assert data.n_rows == 3
    assert data.view.row.tolist() == [0, 2]  # row 1 holds no slot
    # the marker must not intern its labels
    assert "phantom" not in data.sources.values()
    assert "phantom" not in data.species.values()


def test_collate_assigns_climate_state():
    records = [(-60.0, 0, 1.0, "a", "s"), (-10.0, 0, 1.0, "a", "s")]
    data = collate_rows(records)
    assert data.view.climate_states.tolist() == [1, 5]


def test_row_accessors():
    # the view's row and series of each slot, from its flat index
    records = [(-2.0, 1, 1.1, "a", "s"), (-2.0, 0, 3.1, "a", "s"), (-1.0, 1, 0.9, "a", "s")]
    v = collate_rows(records).view
    assert v.row.tolist() == [0, 0, 1]
    assert v.series.tolist() == [0, 1, 1]
    assert v.value.tolist() == [3.1, 1.1, 0.9]


def test_dataset_counters():
    records = [
        (-3.0, 0, 1.0, "a", "s"),
        (-3.0, 0, 1.1, "b", "s"),
        (-2.0, 1, 0.5, "a", "s"),
        (-1.0, 0, None, "x", "x"),
    ]
    data = collate_rows(records)
    assert data.n_rows == 3
    assert data.n_observed_slots() == 3
    assert data.view.stamps.tolist() == [-3.0, -2.0, -1.0]


def test_panel_is_stored_only_as_its_view():
    data = collate_rows(MIXED_RECORDS)
    for rows in (list(range(data.n_rows)), (), None):
        with pytest.raises(TypeError, match="collate_rows"):
            PanelDataset(rows, data.sources, data.species)
    assert PanelDataset(data.view).rows is data.view


def test_flatten_records_round_trip():
    records = [
        (-3.0, 0, 1.0, "a", "s"),
        (-3.0, 1, 0.4, "b", "s"),
        (-2.0, 0, 1.1, "a", "t"),
    ]
    data = collate_rows(records)
    flat = flatten_records(data)
    again = collate_rows(flat)
    assert again.n_rows == data.n_rows
    assert again.sources == data.sources
    for f in dataclasses.fields(data.view):
        assert np.array_equal(getattr(again.view, f.name), getattr(data.view, f.name)), f.name


def test_max_slots_enforced():
    records = [(-2.0, 0, float(i), f"src{i}", "s") for i in range(5)]
    with pytest.raises(ValueError):
        collate_rows(records)


@pytest.mark.parametrize(
    "record, message",
    [
        ((float("nan"), 0, 1.0, "a", "s"), "NaN time stamp in records"),
        ((-2.0, 0, float("nan"), "a", "s"), "NaN value at stamp -2.0; use None for missing"),
        ((-2.0, 1.0, 1.0, "a", "s"), "unknown series tag: 1.0"),
        ((-2.0, "d15N", 1.0, "a", "s"), "unknown series tag: 'd15N'"),
        ((-math.inf, 0, 1.0, "a", "s"), "infinite time stamp -inf in records"),
        ((-2.0, 0, math.inf, "a", "s"), "infinite value inf at stamp -2.0"),
        ((-2.0, "d13C", "-inf", "a", "s"), "infinite value -inf at stamp -2.0"),
        ((-2.0, 2, 1.0, "a", "s"), "unknown series tag: 2"),
    ],
)
def test_collate_rejects_bad_records(record, message):
    # the valid int tag 1 comes first, so that a tag equal to it (1.0)
    # must still be rejected
    with pytest.raises(ValueError, match=re.escape(message)):
        collate_rows([(-3.0, 1, 1.0, "a", "s"), record])


def test_collate_fifth_slot_message():
    records = [(-2.0, "d13C", float(i), f"src{i}", "s") for i in range(5)]
    with pytest.raises(
        ValueError, match="more than 4 simultaneous values for series d13C at stamp -2.0"
    ):
        collate_rows(records)


def test_collate_series_tags():
    records = [
        (-2.0, "d13C", 2.0, "a", "s"),
        (-2.0, 1, 3.0, "a", "s"),
        (-2.0, "d18O", 4.0, "a", "s"),
        (-2.0, 0, 5.0, "a", "s"),
    ]
    v = collate_rows(records).view
    assert v.series.tolist() == [0, 0, 1, 1]
    assert v.value.tolist() == [4.0, 5.0, 2.0, 3.0]
    stamp_only = collate_rows([(-2.0, None, None, "a", "s")])
    assert stamp_only.n_rows == 1 and stamp_only.view.at.size == 0


def _reference_rows(build):
    # each of mixed_panels' panels as the reference collate's rows, a grid
    # row merged in as a stamp-only record
    grids = {"merged": [-61.0, -59.0, -20.0, -0.5], "merged_edges": [-69.0, -64.0, -45.0, -0.2]}
    records = MIXED_RECORDS + [(t, 0, None, "", "") for t in grids.get(build, [])]
    rows = reference.collate_rows(records)[0]
    return rows[1:7] if build == "sliced" else rows


@pytest.mark.parametrize("build", ["collated", "merged", "merged_edges", "sliced"])
def test_panel_view_equals_slot_walk(build):
    data = mixed_panels()[build]
    view = data.view
    assert isinstance(view, PanelView) and view is data.rows
    want = reference.view_columns(_reference_rows(build))
    for name, column in want.items():
        assert getattr(view, name).tolist() == column, name
    at = want["at"]
    assert view.row.tolist() == [a // (2 * MAX_SLOTS) for a in at]
    assert view.series.tolist() == [a // MAX_SLOTS % 2 for a in at]
    assert (view.at.dtype, view.source.dtype, view.species.dtype) == (np.int64, np.int32, np.int32)
    for name in ("stamps", "climate_states", "at", "value", "source", "species"):
        assert not getattr(view, name).flags.writeable
    # the sliced panel drops the last row, which holds one d18O value
    n_d18o = 7 if build == "sliced" else 8
    assert data.n_observed_slots() == len(at) == n_d18o + 4
    assert np.count_nonzero(view.series == 0) == n_d18o


# ---------------------------------------------------------------------------
# rows: windows of the view, and nothing else
# ---------------------------------------------------------------------------


def test_rows_take_only_a_step_1_slice():
    data = collate_rows(MIXED_RECORDS)
    rows = data.rows
    assert rows is data.view
    assert len(rows) == data.n_rows == 8
    # a slice with step 1 is a window of the view, empty ones too
    for s, stamps in [
        (slice(2, 5), [-58.0, -40.0, -30.0]),
        (slice(-3, None), [-10.0, -2.0, -1.0]),
        (slice(5, 2), []),
        (slice(3, 4, 1), [-40.0]),
    ]:
        window = rows[s]
        assert isinstance(window, PanelView) and window.stamps.tolist() == stamps
        assert not window.stamps.flags.writeable
    # a row is read from the view: no index but such a slice, and no iteration
    for index in (0, -1, len(rows), slice(None, None, 2), slice(6, 1, -2), [0, 1], np.int64(0)):
        with pytest.raises(TypeError, match="slice with step 1"):
            rows[index]
    with pytest.raises(TypeError, match="not iterable"):
        iter(rows)
    with pytest.raises(TypeError):
        tuple(rows)


_BY_SOURCE_BIV = ModelSpec(arity="bivariate", meas_grouping="by-source", corr_grouping="pooled")


def _same_items(x, y) -> bool:
    # equal, arrays with their dtypes, through nested tuples
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same_items, x, y))
    return x == y


def _assert_same_panel_and_model(window, fresh, specs):
    # the same view, column for column with its dtype, and for each spec
    # the same compiled model and loglik (or the same layout error)
    for f in dataclasses.fields(fresh.view):
        x, y = getattr(window.view, f.name), getattr(fresh.view, f.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        assert not x.flags.writeable, f.name
    for spec in specs:
        try:
            layout = build_layout(spec, fresh)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                build_layout(spec, window)
            continue
        cm_window = compile_model(spec, build_layout(spec, window), window)
        cm_fresh = compile_model(spec, layout, fresh)
        for f in dataclasses.fields(cm_fresh):
            x, y = getattr(cm_window, f.name), getattr(cm_fresh, f.name)
            if f.name == "merge" and x is not None:  # its fields, as a tuple
                x, y = tuple(vars(x).values()), tuple(vars(y).values())
            assert _same_items(x, y), f.name
        params = [0.3 + 0.1 * i for i in range(layout.n_params)]
        params = [-0.5 if p.role == "rho" else x for p, x in zip(layout.params, params)]
        assert loglik(cm_window, params) == loglik(cm_fresh, params)


@pytest.mark.parametrize("spec", [ModelSpec(), _BY_SOURCE_BIV])
@pytest.mark.parametrize("window", [(2, 6), (3, 8), (0, 8)])
def test_window_of_a_view_born_panel(spec, window):
    # perfbench slices fit windows this way; the window slices the view
    data = collate_rows(MIXED_RECORDS)
    a, b = window
    sub = dataclasses.replace(data, rows=data.rows[a:b])
    assert isinstance(sub.rows, PanelView) and sub.n_rows == b - a
    _assert_same_panel_and_model(sub, recollate(data, slice(a, b)), [spec])


def _windows(data):
    # from the last leading all-missing row, from the middle, the last
    # three rows, and an empty window
    n = data.n_rows
    first = int(data.view.row[0])
    return {
        "leading": slice(first - 1, first + 3),
        "middle": slice(n // 2, n - 1),
        "last3": slice(-3, None),
        "empty": slice(n // 2, n // 2),
    }


@pytest.mark.parametrize("window", ["leading", "middle", "last3", "empty"])
@pytest.mark.parametrize("build", ["collated", "merged", "merged_edges", "sliced"])
def test_view_slice_windows(build, window):
    data = mixed_panels()[build]
    index = _windows(data)[window]
    a, b, _ = index.indices(data.n_rows)
    if window == "leading":
        assert a not in data.view.row
    sub = dataclasses.replace(data, rows=data.rows[index])
    assert isinstance(sub.rows, PanelView) and sub.n_rows == max(b - a, 0)
    assert sub.view.stamps.tolist() == data.view.stamps.tolist()[index]
    assert (sub.sources, sub.species) == (data.sources, data.species)
    _assert_same_panel_and_model(sub, recollate(data, index), [ModelSpec(), _BY_SOURCE_BIV])


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

# NaN, both zeros, the smallest subnormal and normal, the largest floats,
# infinities and values that need all 17 significant digits
_CSV_FLOATS = [
    math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
    1.7976931348623157e308, math.inf, -math.inf, 0.1, -0.30000000000000004,
    1.2345678901234567e-7, 9.007199254740993e15, -67.00000000000001, 1.0,
]


def _csv_writer_bytes(path, header_lines, header, rows):
    # the writer the float text replaces: csv.writer on every row
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


@pytest.mark.parametrize("blank_nan", [False, True], ids=["nan", "blank"])
@pytest.mark.parametrize("n_rows", [0, 1, 7, _CSV_BLOCK_ROWS + 3])
def test_float_text_writes_csv_writers_bytes(tmp_path, n_rows, blank_nan):
    # every float of _CSV_FLOATS in every column, over rows that span a block
    # boundary; csv.writer writes NaN as "nan", and None as an empty field
    rng = np.random.default_rng(n_rows)
    columns = rng.choice(np.array(_CSV_FLOATS), size=(n_rows, 5))
    columns[: min(n_rows, 3)] = np.reshape(_CSV_FLOATS[:15], (3, 5))[: min(n_rows, 3)]
    header = ["stamp", "a", "b", "c", "d"]
    got = tmp_path / "got.csv"
    _write_csv(got, ["# a comment"], header, text=_float_text(columns, blank_nan=blank_nan))
    rows = [[None if blank_nan and x != x else x for x in row] for row in columns.tolist()]
    want = _csv_writer_bytes(tmp_path / "want.csv", ["# a comment"], header, rows)
    assert got.read_bytes() == want
    # row 0 holds a NaN
    assert (b"nan" in want) == (not blank_nan and n_rows > 0)
