"""Shared builders for small synthetic datasets used across the test modules."""

import dataclasses

import numpy as np
import pytest

from paleokalman import ModelSpec, simulate
from paleokalman.core import MISSING, _collate, collate_rows
from paleokalman.imputation import COINCIDENCE_TOL, merge_grid


def rows_from_values(stamps, values_series1, values_series2=None, sources=None):
    """Build a PanelDataset from per-row value lists.

    values_series1/2: list (len == len(stamps)) of lists of floats, one entry
    per filled slot of that row; None entries mean the series is unobserved.
    sources: optional per-slot source ids of series 1 (parallel structure),
    default 0; they are kept as given, with registry labels source_<id>.
    """
    # one missing entry per stamp registers the row, then each value
    entries = [(stamp, 0, MISSING, -1) for stamp in stamps]
    for s, per_row in enumerate((values_series1, values_series2)):
        for nu, values in enumerate(per_row or []):
            for i, v in enumerate(values or []):
                source = sources[nu][i] if sources and s == 0 else 0
                entries.append((stamps[nu], s, v, source))
    stamp, series, value, source = map(np.array, zip(*entries))
    n_src = 1 + source.max()
    return _collate(
        stamp.astype(float),
        series,
        value.astype(float),
        source,
        np.zeros(source.size, dtype=np.int32),
        {i: f"source_{i}" for i in range(n_src)},
        {0: "species_0"},
    )


def recollate(data, window=slice(None), empty_stamps=()):
    """The rows of data in window, collated afresh by core._collate from
    their entries, with an all-missing row added at each of empty_stamps;
    ids and registries are kept."""
    v = data.view
    a, b, _ = window.indices(data.n_rows)
    keep = (v.row >= a) & (v.row < b)
    # one missing entry per stamp registers the row, then each value
    stamps = np.concatenate([v.stamps[a:b], empty_stamps])
    n = stamps.size
    return _collate(
        np.concatenate([stamps, v.stamps[v.row[keep]]]),
        np.concatenate([np.zeros(n, dtype=np.int64), v.series[keep]]),
        np.concatenate([np.full(n, MISSING), v.value[keep]]),
        np.concatenate([np.full(n, -1, dtype=np.int32), v.source[keep]]),
        np.concatenate([np.full(n, -1, dtype=np.int32), v.species[keep]]),
        data.sources,
        data.species,
    )


@pytest.fixture
def rwn_spec():
    return ModelSpec(
        arity="univariate-series1",
        order_m=1,
        meas_grouping="pooled",
        trans_grouping="pooled",
    )


@pytest.fixture
def biv_spec():
    return ModelSpec(
        arity="bivariate",
        order_m=1,
        meas_grouping="pooled",
        trans_grouping="pooled",
        corr_grouping="pooled",
    )


def random_stamps(rng, n, mean_dt=0.05, start=-3.0):
    gaps = rng.exponential(mean_dt, n - 1)
    stamps = start + np.concatenate([[0.0], np.cumsum(gaps)])
    if stamps[-1] >= 0.0:  # keep every stamp a negative age
        stamps -= stamps[-1] + 0.001
    return list(stamps)


def small_simulated(spec, params, n_rows=6, slots=2, seed=0, n_sources=1, observed=None):
    rng = np.random.default_rng(seed + 1000)
    stamps = random_stamps(rng, n_rows)
    return simulate(
        spec,
        params,
        stamps,
        slots_per_row=slots,
        seed=seed,
        n_sources=n_sources,
        observed=observed,
    )


# Records spanning four climate states: two leading all-missing rows, a row
# with four d18O slots (three sources), a d13C-only row and rows where both
# series are observed.
MIXED_RECORDS = [
    (-60.5, 0, None, "x", "x"),
    (-60.2, 0, None, "x", "x"),
    (-58.0, "d18O", 1.0, "a", "s"),
    (-58.0, "d18O", 1.1, "b", "t"),
    (-58.0, "d18O", 1.2, "c", "s"),
    (-58.0, "d18O", 1.3, "a", "t"),
    (-58.0, "d13C", 0.4, "b", "s"),
    (-40.0, "d13C", 0.5, "c", "u"),
    (-30.0, "d18O", 1.4, "b", "s"),
    (-30.0, "d13C", 0.6, "a", "t"),
    (-10.0, "d18O", 1.5, "c", "u"),
    (-2.0, "d18O", 1.6, "a", "s"),
    (-2.0, "d13C", 0.7, "a", "s"),
    (-1.0, "d18O", 1.7, "b", "t"),
]


# Two grids for the MIXED_RECORDS panel: the second has several stamps
# before the first row and stamps within COINCIDENCE_TOL of data rows, on
# both sides.
_NEAR = 0.5 * COINCIDENCE_TOL
MIXED_GRIDS = (
    [-61.0, -59.0, -40.0, -20.0, -0.5],
    [-69.0, -64.0, -60.5 + _NEAR, -58.0 - _NEAR, -45.0, -30.0 + _NEAR, -1.0 - _NEAR, -0.2],
)


def mixed_panels():
    """The MIXED_RECORDS panel built five ways: by collate_rows, with the
    rows of each of MIXED_GRIDS merged in, and sliced, twice. The sliced
    panel is the window rows[1:7] of the collated one (so one leading
    all-missing row), as a fit window on a sub-panel is. The head panel is
    its window rows[:3]: the two leading all-missing rows, then one row
    with both series, so that no series moves."""
    collated = collate_rows(MIXED_RECORDS)
    merged, _ = merge_grid(collated, MIXED_GRIDS[0])
    merged_edges, _ = merge_grid(collated, MIXED_GRIDS[1])
    return {
        "collated": collated,
        "merged": merged,
        "merged_edges": merged_edges,
        "sliced": dataclasses.replace(collated, rows=collated.rows[1:7]),
        "head": dataclasses.replace(collated, rows=collated.rows[:3]),
    }


__all__ = [
    "rows_from_values",
    "recollate",
    "random_stamps",
    "small_simulated",
    "mixed_panels",
    "MIXED_RECORDS",
    "MIXED_GRIDS",
    "MISSING",
]
