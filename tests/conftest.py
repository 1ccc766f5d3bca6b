"""Shared builders for small synthetic datasets used across the test modules."""

import dataclasses

import numpy as np
import pytest

from paleokalman import ModelSpec, simulate
from paleokalman.core import (
    MAX_SLOTS,
    MISSING,
    MeasurementSlot,
    ObservationRow,
    PanelDataset,
    clamped_climate_state,
    collate_rows,
    compute_increments,
)
from paleokalman.imputation import COINCIDENCE_TOL, merge_grid
from paleokalman.ingest import read_canonical_csv, write_canonical_csv, write_registry_json


def rows_from_values(stamps, values_series1, values_series2=None, sources=None):
    """Build a PanelDataset from per-row value lists.

    values_series1/2: list (len == len(stamps)) of lists of floats, one entry
    per filled slot of that row; None entries mean the series is unobserved.
    sources: optional per-slot source ids (parallel structure), default 0.
    """
    def pad(slots):
        return tuple(slots) + tuple(
            MeasurementSlot() for _ in range(MAX_SLOTS - len(slots))
        )

    dts = compute_increments(stamps)
    rows = []
    for nu, stamp in enumerate(stamps):
        s1 = values_series1[nu] if values_series1 is not None else None
        s2 = values_series2[nu] if values_series2 is not None else None
        slots1 = pad(
            [
                MeasurementSlot(
                    value=v,
                    source_id=(sources[nu][i] if sources else 0),
                    species_id=0,
                )
                for i, v in enumerate(s1 or [])
            ]
        )
        slots2 = pad(
            [MeasurementSlot(value=v, source_id=0, species_id=0) for v in (s2 or [])]
        )
        rows.append(
            ObservationRow(
                stamp=stamp,
                dt=dts[nu],
                slots_series1=slots1,
                slots_series2=slots2,
                climate_state=clamped_climate_state(abs(stamp)),
            )
        )
    n_src = 1 + max(
        (sl.source_id for r in rows for sl in r.slots_series1 + r.slots_series2),
        default=0,
    )
    return PanelDataset(
        rows=tuple(rows),
        sources={i: f"source_{i}" for i in range(n_src)},
        species={0: "species_0"},
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


def mixed_panels(tmp_path):
    """The MIXED_RECORDS panel built five ways: by collate_rows, read back
    from its canonical CSV (whose padding slots are fresh objects), with
    grid rows merged in, twice, and sliced. The second grid has several
    stamps before the first row and stamps within COINCIDENCE_TOL of data
    rows, on both sides. The sliced panel is given a tuple of rows (rows 1
    to 6, so one leading all-missing row and a first dt that is not NaN),
    as a fit window on a sub-panel is."""
    collated = collate_rows(MIXED_RECORDS)
    write_canonical_csv(collated, tmp_path / "panel.csv")
    write_registry_json(collated, tmp_path / "registry.json")
    read_back = read_canonical_csv(tmp_path / "panel.csv", tmp_path / "registry.json")
    merged, _ = merge_grid(collated, [-61.0, -59.0, -40.0, -20.0, -0.5])
    near = 0.5 * COINCIDENCE_TOL
    merged_edges, _ = merge_grid(
        collated,
        [-69.0, -64.0, -60.5 + near, -58.0 - near, -45.0, -30.0 + near, -1.0 - near, -0.2],
    )
    return {
        "collated": collated,
        "canonical": read_back,
        "merged": merged,
        "merged_edges": merged_edges,
        "sliced": dataclasses.replace(collated, rows=collated.rows[1:7]),
    }


__all__ = [
    "rows_from_values",
    "random_stamps",
    "small_simulated",
    "mixed_panels",
    "MIXED_RECORDS",
    "MISSING",
]
