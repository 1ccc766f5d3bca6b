"""Regular-grid construction and smoothed-value imputation."""

import csv
import dataclasses
import math

import numpy as np
import pytest

import paleokalman as pk
from paleokalman import ModelSpec, build_layout, kalman
from paleokalman.core import MAX_SLOTS, PanelView
from paleokalman import imputation
from paleokalman.imputation import (
    COINCIDENCE_TOL,
    MAX_GRID_POINTS,
    GridTooLargeError,
    ImputationTable,
    _grid_rows,
    impute,
    make_grid,
    merge_grid,
    write_impute_csv,
)
from paleokalman.kalman import filter as kfilter, smooth

from conftest import MIXED_GRIDS, mixed_panels, recollate, rows_from_values


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mesh, expected",
    [(100_000, 670), (10_000, 6_700), (1_000, 67_000)],
)
def test_grid_counts_over_full_span(mesh, expected):
    grid = make_grid(67.0, 0.0, mesh)
    assert len(grid) == expected
    assert grid[0] == pytest.approx(-67.0)
    assert grid[1] - grid[0] == pytest.approx(mesh / 1e6)
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_grid_partial_interval_dropped():
    # 2.5 My at 1 My mesh: floor -> 2 points, the trailing half is dropped
    grid = make_grid(2.5, 0.0, 1_000_000)
    assert grid == pytest.approx([-2.5, -1.5])


def test_grid_nonzero_end():
    grid = make_grid(3.0, 1.0, 500_000)
    assert len(grid) == 4
    assert grid[0] == pytest.approx(-3.0)
    assert grid[-1] == pytest.approx(-1.5)


def test_grid_empty_warns():
    with pytest.warns(UserWarning):
        grid = make_grid(0.05, 0.0, 100_000)
    assert grid == []
    # an infinite mesh exceeds every span
    with pytest.warns(UserWarning, match="empty grid"):
        assert make_grid(5.0, 0.0, math.inf) == []


def test_grid_domain_errors():
    with pytest.raises(ValueError):
        make_grid(1.0, 2.0, 1000)
    with pytest.raises(ValueError):
        make_grid(2.0, -1.0, 1000)
    with pytest.raises(ValueError):
        make_grid(2.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="need finite span_start > span_end >= 0"):
        make_grid(math.inf, 1.0, 1000)
    with pytest.raises(ValueError, match=r"^mesh_years must be positive, got nan$"):
        make_grid(5.0, 0.0, math.nan)


def test_grid_over_the_point_limit_raises_before_building():
    # a 1e-3-year mesh over 67 My asks for 6.7e10 stamps; a mesh too fine
    # for the ratio to be finite asks for inf of them. Either raises at once
    assert MAX_GRID_POINTS == 10**7
    too_many = r" gives 67000000000 grid points, more than 10000000$"
    with pytest.raises(GridTooLargeError, match=too_many):
        make_grid(67.0, 0.0, 1e-3)
    with pytest.raises(ValueError, match=r" gives inf grid points, more than 10000000$"):
        make_grid(67.0, 0.0, 5e-324)


def test_grid_point_limit_is_inclusive(monkeypatch):
    # with the limit lowered to 10: a grid of 10 stamps is built, 11 raise
    monkeypatch.setattr(imputation, "MAX_GRID_POINTS", 10)
    assert len(make_grid(1.0, 0.0, 100_000)) == 10
    assert len(make_grid(1.0999, 0.0, 100_000)) == 10
    with pytest.raises(GridTooLargeError) as error:
        make_grid(1.1, 0.0, 100_000)
    assert str(error.value) == (
        "a mesh of 100000 years over the 1100000.0-year span gives 11 grid points, more than 10"
    )


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------


def test_merge_inserts_missing_rows():
    data = rows_from_values([-3.0, -1.0], [[1.0], [2.0]])
    merged, idx = merge_grid(data, [-2.0])
    assert merged.view.stamps.tolist() == [-3.0, -2.0, -1.0]
    assert merged.view.row.tolist() == [0, 2]  # row 1 holds no slot
    assert idx == [1]
    # a stamp at the present, younger than every row
    merged, idx = merge_grid(data, [0.0])
    assert merged.view.stamps.tolist() == [-3.0, -1.0, 0.0]
    assert idx == [2]


def test_merge_coincident_stamp_reuses_row():
    data = rows_from_values([-3.0, -1.0], [[1.0], [2.0]])
    merged, idx = merge_grid(data, [-3.0, -1.0 + 1e-14])
    assert merged.n_rows == 2
    assert idx == [0, 1]

    # the first data row, a new row between the two, and stamps just below
    # and just above the last data row, inside COINCIDENCE_TOL
    below, above = -1.0 - 0.5 * COINCIDENCE_TOL, -1.0 + 0.5 * COINCIDENCE_TOL
    merged, idx = merge_grid(data, [-3.0, -2.0, below, above])
    assert idx == [0, 1, 2, 2]
    # every column of the merged view: the data's slots, the second one
    # moved to row 2, and a new row 1 with none
    assert isinstance(merged.rows, PanelView)
    v = merged.view
    assert v.stamps.tolist() == [-3.0, -2.0, -1.0]
    assert v.climate_states.tolist() == [6, 6, 6]
    assert v.at.tolist() == [0, 2 * 2 * MAX_SLOTS]
    for name in ("value", "source", "species"):
        assert np.array_equal(getattr(v, name), getattr(data.view, name)), name


def test_merge_rejects_a_repeated_grid_stamp():
    data = rows_from_values([-3.0, -1.0], [[1.0], [2.0]])
    # a repeated data stamp reuses the data row; a repeated new stamp is an
    # error that names both grid entries
    assert merge_grid(data, [-3.0, -3.0])[1] == [0, 0]
    with pytest.raises(ValueError, match=r"^grid entry 2 repeats the stamp -2\.5 of grid entry 0$"):
        merge_grid(data, [-2.5, -1.5, -2.5])


def test_merge_indexes_grid_stamps_closer_than_the_tolerance():
    data = rows_from_values([-3.0, -1.0], [[1.0], [2.0]])
    # two new stamps within COINCIDENCE_TOL of each other: each its own row
    merged, idx = merge_grid(data, [-2.0, -2.0 + 0.5 * COINCIDENCE_TOL])
    assert merged.n_rows == 4
    assert idx == [1, 2]
    # a new stamp just outside the tolerance of the last data row, then one
    # inside it: the second is held by the data row, not by the new row
    merged, idx = merge_grid(data, [-1.0 - 1.5 * COINCIDENCE_TOL, -1.0 - 0.8 * COINCIDENCE_TOL])
    assert merged.view.stamps.tolist() == [-3.0, -1.0 - 1.5 * COINCIDENCE_TOL, -1.0]
    assert idx == [1, 2]
    # a stamp within COINCIDENCE_TOL of two data rows: the older holds it
    close = rows_from_values([-1.0, -1.0 + 1.5 * COINCIDENCE_TOL], [[1.0], [2.0]])
    merged, idx = merge_grid(close, [-1.0 + 0.75 * COINCIDENCE_TOL])
    assert merged.n_rows == 2
    assert idx == [0]


def test_merge_on_an_empty_panel_inserts_every_stamp():
    data = rows_from_values([-3.0, -1.0], [[1.0], [2.0]])
    empty = dataclasses.replace(data, rows=data.rows[:0])
    merged, idx = merge_grid(empty, [-2.5, -2.0, -0.5])
    assert merged.view.stamps.tolist() == [-2.5, -2.0, -0.5]
    assert merged.view.row.size == 0  # no row holds a slot
    assert idx == [0, 1, 2]


@pytest.mark.parametrize("grid", MIXED_GRIDS, ids=["grid", "edges"])
@pytest.mark.parametrize("window", [slice(None), slice(1, 7), slice(3, 3)], ids=["all", "sliced", "empty"])
def test_merge_is_the_collate_of_the_data_and_the_inserted_stamps(window, grid):
    # the merged panel is the one core._collate makes from the data's
    # entries with an all-missing row at each inserted stamp: every column
    # and dtype, and the registries
    collated = mixed_panels()["collated"]
    data = dataclasses.replace(collated, rows=collated.rows[window])
    merged, idx = merge_grid(data, grid)
    stamps = data.view.stamps
    near = [np.any(np.abs(stamps - g) <= COINCIDENCE_TOL) for g in grid]
    inserted = [g for g, coincident in zip(grid, near) if not coincident]
    want = recollate(data, empty_stamps=inserted)
    for f in dataclasses.fields(PanelView):
        got, expected = getattr(merged.view, f.name), getattr(want.view, f.name)
        assert got.dtype == expected.dtype, f.name
        assert got.tobytes() == expected.tobytes(), f.name
    assert merged.sources is data.sources and merged.species is data.species
    # an inserted stamp is held by its own row, a coincident one by its
    # data row
    held = merged.view.stamps[idx]
    assert np.all(np.abs(held - grid) <= COINCIDENCE_TOL)
    assert all(h == g for h, g, c in zip(held.tolist(), grid, near) if not c)
    assert np.isin(held[near], stamps).all()


def test_merge_grid_is_not_public():
    # the tests' reference, kept under its name, but not exported
    from paleokalman import imputation

    assert "merge_grid" not in imputation.__all__
    assert imputation.merge_grid is merge_grid


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_merge_rejects_a_grid_stamp_that_is_not_finite(bad):
    data = rows_from_values([-3.0, -1.0], [[1.0], [2.0]])
    with pytest.raises(ValueError, match=rf"^grid entry 1 is {bad!r}, not a finite stamp$"):
        merge_grid(data, [-2.0, bad])


# ---------------------------------------------------------------------------
# imputation semantics
# ---------------------------------------------------------------------------


def _fitted_small():
    spec = ModelSpec()
    data = rows_from_values(
        [-3.0, -2.4, -1.5, -0.8], [[1.0], [1.6], [2.4], [2.0]]
    )
    params = [0.05, 0.9]
    return spec, params, data


def test_coincident_grid_values_equal_smoothed_rows():
    spec, params, data = _fitted_small()
    layout = build_layout(spec, data)
    paths = smooth(kfilter(spec, layout, params, data))
    table = impute(params, spec, data, [-3.0, -1.5])
    assert table.means[0, 0] == paths.smoothed_means[0, 0]  # exact, same row
    assert table.means[1, 0] == paths.smoothed_means[2, 0]
    assert table.sds[0, 0] == math.sqrt(paths.smoothed_covs[0, 0, 0])
    # a stamp just inside the tolerance of row 2, after one just outside it
    grid = [-1.5 - 1.5 * COINCIDENCE_TOL, -1.5 - 0.8 * COINCIDENCE_TOL]
    table = impute(params, spec, data, grid)
    assert table.means[:, 0].tolist() == paths.smoothed_means[[1, 2], 0].tolist()


def test_grid_between_stamps_holds_previous_smoothed_value():
    # an unobserved grid row's block is frozen, so its smoothed state is the
    # state as of the latest observed stamp at or before it
    spec, params, data = _fitted_small()
    layout = build_layout(spec, data)
    paths = smooth(kfilter(spec, layout, params, data))
    table = impute(params, spec, data, [-2.0, -1.0])
    assert table.means[0, 0] == pytest.approx(paths.smoothed_means[1, 0], rel=1e-12)
    assert table.means[1, 0] == pytest.approx(paths.smoothed_means[2, 0], rel=1e-12)
    assert table.sds[0, 0] == pytest.approx(
        math.sqrt(paths.smoothed_covs[1, 0, 0]), rel=1e-12
    )


def test_grid_value_is_bracketed_for_monotone_neighbors():
    spec, params, data = _fitted_small()
    table = impute(params, spec, data, [-2.0])
    layout = build_layout(spec, data)
    paths = smooth(kfilter(spec, layout, params, data))
    lo, hi = sorted([paths.smoothed_means[1, 0], paths.smoothed_means[2, 0]])
    assert lo <= table.means[0, 0] <= hi


def test_refining_the_grid_does_not_move_values():
    spec, params, data = _fitted_small()
    coarse = impute(params, spec, data, [-2.0, -1.0])
    fine = impute(params, spec, data, [-2.2, -2.0, -1.6, -1.0, -0.9])
    assert fine.means[1, 0] == pytest.approx(coarse.means[0, 0], rel=1e-12)
    assert fine.means[3, 0] == pytest.approx(coarse.means[1, 0], rel=1e-12)
    assert fine.sds[1, 0] == pytest.approx(coarse.sds[0, 0], rel=1e-12)


def test_grid_before_first_observation_is_diffuse_hold():
    # grid stamps older than every observation sit in the frozen pre-sample
    # region; their smoothed values equal the first observed row's
    spec, params, data = _fitted_small()
    layout = build_layout(spec, data)
    paths = smooth(kfilter(spec, layout, params, data))
    table = impute(params, spec, data, [-3.7])
    assert table.means[0, 0] == pytest.approx(paths.smoothed_means[0, 0], rel=1e-12)


def test_impute_accepts_fit_result():
    spec, params, data = _fitted_small()
    res = pk.fit(spec, data)
    t1 = impute(res, spec, data, [-2.0])
    t2 = impute(list(res.params_hat), spec, data, [-2.0])
    assert t1.means[0, 0] == t2.means[0, 0]


def test_impute_rejects_mismatched_fit():
    spec, params, data = _fitted_small()
    other_spec = ModelSpec(meas_grouping="by-source")
    biv = rows_from_values(
        [-3.0, -2.0], [[1.0], [1.1]], sources=[[0], [1]]
    )
    res = pk.fit(other_spec, biv)
    with pytest.raises(ValueError):
        impute(res, spec, data, [-2.0])


def test_impute_rejects_a_fit_on_other_groups():
    # a by-source fit on sources source_0/source_1, imputed on the same
    # panel with its sources relabelled: the parameter names agree, the
    # groups do not
    spec = ModelSpec(meas_grouping="by-source")
    data = rows_from_values(
        [-3.0, -2.4, -1.5, -0.8], [[1.0], [1.6], [2.4], [2.0]], sources=[[0], [1], [0], [1]]
    )
    res = pk.fit(spec, data)
    assert impute(res, spec, data, [-2.0]).n_rows == 1
    relabelled = dataclasses.replace(data, sources={0: "Site C", 1: "Site D"})
    with pytest.raises(ValueError, match="parameter layouts differ"):
        impute(res, spec, relabelled, [-2.0])


def test_impute_rejects_a_fit_of_another_order():
    # a random-walk fit read as an order-2 trend: the same parameter names
    # and groups, in the same order, under another spec
    spec, _, data = _fitted_small()
    res = pk.fit(spec, data)
    other = ModelSpec(order_m=2)
    assert build_layout(other, data).names() == list(res.param_names)
    with pytest.raises(ValueError, match="parameter layouts differ"):
        impute(res, other, data, [-2.0])


def test_impute_bivariate_columns():
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    data = rows_from_values(
        [-3.0, -2.0, -1.0],
        [[1.0], [1.5], [2.0]],
        [[0.4], [0.5], [0.9]],
    )
    params = [0.05, 0.04, 0.9, 0.7, 0.3]
    table = impute(params, spec, data, [-2.5, -1.5])
    assert table.series == ("d18O", "d13C")
    assert table.means.shape == (2, 2)
    assert np.isfinite(table.means).all()
    assert (table.sds > 0).all()


def test_impute_on_higher_order_reads_level():
    spec = ModelSpec(order_m=2)
    data = rows_from_values(
        [-3.0, -2.2, -1.5, -0.8], [[1.0], [1.8], [2.1], [2.6]]
    )
    params = [0.05, 0.9]
    layout = build_layout(spec, data)
    paths = smooth(kfilter(spec, layout, params, data))
    table = impute(params, spec, data, [-2.2])
    assert table.means[0, 0] == paths.smoothed_means[1, 0]  # level component


def _passes_with_row_2_variance(value):
    # kalman._passes with row 2's smoothed variance set to value: at s = 1
    # its backward-pass entry is cm.fill[2], which no other row of
    # _fitted_small's panel takes
    passes = kalman._passes

    def patched(cm, h):
        X, XV, A, steps = passes(cm, h)
        assert np.count_nonzero(cm.fill == cm.fill[2]) == 1
        XV[int(cm.fill[2])] = value
        return X, XV, A, steps

    return patched


def test_impute_rejects_negative_smoothed_variance(monkeypatch):
    spec, params, data = _fitted_small()
    grid = [-2.0, -1.2]  # -1.2 takes the moments of row 2, at -1.5
    monkeypatch.setattr(kalman, "_passes", _passes_with_row_2_variance(-2.5e-07))
    with pytest.raises(ValueError, match=r"-2\.5e-07 of d18O at grid stamp -1\.2"):
        impute(params, spec, data, grid)


def test_impute_rejects_nan_smoothed_variance(monkeypatch):
    spec, params, data = _fitted_small()
    monkeypatch.setattr(kalman, "_passes", _passes_with_row_2_variance(math.nan))
    with pytest.raises(ValueError, match=r"^NaN smoothed variance nan of d18O at grid stamp -1\.2$"):
        impute(params, spec, data, [-2.0, -1.2])


def test_impute_conditioning_error_names_the_data_row():
    # the grid stamps before and between the data rows add no row, so the
    # error names the row the filter names on the data alone
    data = rows_from_values([-3.0, -2.0, -1.0, -0.5], [[1.0], [1.5], [2.0], [2.2]])
    spec = ModelSpec()
    params = [1e308, 1e308]
    with pytest.raises(kalman.ConditioningError) as on_data:
        kfilter(spec, build_layout(spec, data), params, data)
    with pytest.raises(kalman.ConditioningError) as on_grid:
        impute(params, spec, data, [-2.9, -2.5, -2.4, -1.5])
    assert on_data.value.row_index == on_grid.value.row_index == 1
    assert str(on_grid.value) == str(on_data.value)


def test_impute_repeats_a_repeated_grid_stamp():
    spec, params, data = _fitted_small()
    table = impute(params, spec, data, [-2.0, -1.0, -2.0])
    assert table.stamps == (-2.0, -1.0, -2.0)
    assert table.means[2, 0] == table.means[0, 0]
    assert table.sds[2, 0] == table.sds[0, 0]


def _impute_through_merged_panel(params, spec, data, grid):
    # the reference: the grid stamps merged into the panel as all-missing
    # rows, one filter and smoother pass over the merged panel, and the
    # rows holding the grid stamps read off
    merged, indices = merge_grid(data, grid)
    paths = smooth(kfilter(spec, build_layout(spec, data), params, merged))
    rows = np.array(indices)[:, None]
    levels = [j * spec.order_m for j in range(spec.n_series)]
    var = paths.smoothed_covs[rows, levels, levels]
    return paths.smoothed_means[rows, levels], np.sqrt(var)


_REFERENCE_SPECS = {
    "rwn": ModelSpec(),
    "m2": ModelSpec(order_m=2),
    "biv-rho-climate": ModelSpec(arity="bivariate", corr_grouping="by-climate-state"),
}


@pytest.mark.parametrize("grid", MIXED_GRIDS, ids=["grid", "edges"])
@pytest.mark.parametrize("build", ["collated", "sliced"])
@pytest.mark.parametrize("name", list(_REFERENCE_SPECS))
def test_impute_equals_the_merged_panel_reference(name, build, grid):
    spec = _REFERENCE_SPECS[name]
    data = mixed_panels()[build]
    layout = build_layout(spec, data)
    params = [
        -0.5 + 0.3 * (i % 3) if p.role == "rho" else 0.1 * (i + 1)
        for i, p in enumerate(layout.params)
    ]
    table = impute(params, spec, data, grid)
    means, sds = _impute_through_merged_panel(params, spec, data, grid)
    assert table.means.shape == means.shape == (len(grid), spec.n_series)
    assert table.means.tobytes() == means.tobytes()
    assert table.sds.tobytes() == sds.tobytes()


_DIRECT_SPECS = {
    "rwn": ModelSpec(),
    "irw": ModelSpec(order_m=2),
    "by-source": ModelSpec(meas_grouping="by-source"),
    "biv-by-climate": ModelSpec(
        arity="bivariate", trans_grouping="by-climate-state", corr_grouping="by-climate-state"
    ),
}


@pytest.mark.parametrize("build", ["collated", "sliced", "head"])
@pytest.mark.parametrize("name", list(_DIRECT_SPECS))
def test_impute_equals_smooth_of_filter_at_its_grid_rows(name, build):
    # impute runs score's passes and spreads only the grid rows' moments;
    # the reference is the whole-panel filter and smoother, read at the
    # rows the grid stamps take: every row's stamp, the midpoints between
    # rows, stamps older than row 0 and younger than the last row
    spec = _DIRECT_SPECS[name]
    data = mixed_panels()[build]
    layout = build_layout(spec, data)
    params = [
        -0.5 + 0.3 * (i % 3) if p.role == "rho" else 0.1 * (i + 1)
        for i, p in enumerate(layout.params)
    ]
    stamps = data.view.stamps
    grid = [*MIXED_GRIDS[1], *stamps.tolist(), *(0.5 * (stamps[1:] + stamps[:-1])).tolist(),
            float(stamps[0]) - 3.0, float(stamps[-1]) + 0.5]
    table = impute(params, spec, data, grid)
    paths = smooth(kfilter(spec, layout, params, data))
    _, rows, _ = _grid_rows(stamps, grid)
    assert rows.min() == 0 and rows.max() == data.n_rows - 1
    levels = [j * spec.order_m for j in range(spec.n_series)]
    means = paths.smoothed_means[rows[:, None], levels]
    sds = np.sqrt(paths.smoothed_covs[rows[:, None], levels, levels])
    assert table.means.shape == (len(grid), spec.n_series)
    if kalman.compile_model(spec, layout, data).merge is None:
        assert table.means.tobytes() == means.tobytes()
        assert table.sds.tobytes() == sds.tobytes()
    else:  # impute's pass merges row -58.0's four d18O values, filter's does not
        np.testing.assert_allclose(table.means, means, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(table.sds, sds, rtol=1e-11, atol=0.0)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_write_impute_csv(tmp_path):
    spec, params, data = _fitted_small()
    table = impute(params, spec, data, [-2.0, -1.0])
    out = tmp_path / "imp.csv"
    write_impute_csv(table, out, header_lines=["# imputed"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# imputed"
    assert lines[1] == "stamp_mya,mean_d18O,sd_d18O"
    rows = list(csv.reader(lines[2:]))
    assert len(rows) == 2
    assert float(rows[0][0]) == -2.0
    assert float(rows[0][1]) == pytest.approx(table.means[0, 0], rel=1e-15)
    # every field, one at a time: a float's repr
    assert rows == [
        [repr(float(x)) for x in (stamp, mean, sd)]
        for stamp, mean, sd in zip(table.stamps, table.means[:, 0], table.sds[:, 0])
    ]
