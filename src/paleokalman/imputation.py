"""Smoothed values on an equidistant time grid.

Grid stamps are merged into the dataset as all-missing rows (stamps within
1e-12 My of an existing row are not duplicated; the data row itself serves
as the grid row), one smoother pass runs at the fitted parameters, and the
grid rows are read off. Because transitions are booked at observed rows
only, inserting grid rows changes nothing at the original stamps; a grid
row carries the state of the nearest observed row on its old side.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kalman
from .core import (
    MAX_SLOTS,
    MeasurementSlot,
    ObservationRow,
    PanelDataset,
    PanelView,
    SERIES_NAMES,
    clamped_climate_state,
    compute_increments,
    with_view,
)
from .modelspec import ModelSpec, ParameterLayout, build_layout

__all__ = [
    "COINCIDENCE_TOL",
    "make_grid",
    "merge_grid",
    "ImputationTable",
    "impute",
    "write_impute_csv",
]

COINCIDENCE_TOL = 1e-12

_EMPTY_SLOTS = tuple(MeasurementSlot() for _ in range(MAX_SLOTS))


def make_grid(span_start_mya: float, span_end_mya: float, mesh_years: float) -> list:
    """Equidistant stamps over [span_start, span_end] MYA, oldest first.

    The grid has floor(span_years / mesh_years) points spaced mesh_years
    apart starting at the old end; the final partial interval is dropped.
    Returns stamps (negative-age convention), ascending.
    """
    if not span_start_mya > span_end_mya >= 0.0:
        raise ValueError(
            f"need span_start > span_end >= 0, got ({span_start_mya}, {span_end_mya})"
        )
    if mesh_years <= 0:
        raise ValueError(f"mesh_years must be positive, got {mesh_years}")
    span_years = (span_start_mya - span_end_mya) * 1e6
    n_g = int(math.floor(span_years / mesh_years))
    if n_g == 0:
        warnings.warn(
            f"mesh of {mesh_years} years exceeds the {span_years}-year span; "
            "empty grid",
            stacklevel=2,
        )
        return []
    return [-(span_start_mya - (i * mesh_years) / 1e6) for i in range(n_g)]


def merge_grid(data: PanelDataset, grid, tol: float = COINCIDENCE_TOL) -> tuple:
    """Insert grid stamps as all-missing rows; returns (merged, indices).

    indices[i] is the merged-row index holding grid stamp grid[i]. Stamps
    within tol of an existing row are not inserted; the existing row is
    referenced instead. The merged panel's view comes from the data's view,
    with the rows renumbered, not from a walk of the merged rows.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    view = data.view
    stamps = view.stamps
    extra = grid[~_near(stamps, grid, tol, (-1, 0))[1].any(axis=0)].tolist()
    extra_states = [clamped_climate_state(abs(g)) for g in extra]

    # a stable sort by stamp of the data rows followed by the extra rows;
    # each merged row is built once, with its final dt, and a data row is
    # reused as it is unless an inserted row changes its dt
    n = data.n_rows
    unsorted = list(data.rows) + [None] * len(extra)
    all_stamps = stamps.tolist() + extra
    order = np.argsort(np.array(all_stamps), kind="stable")
    old_index = order.tolist()
    merged_stamps = [all_stamps[i] for i in old_index]
    dts = compute_increments(merged_stamps)
    rows = []
    for i, dt in zip(old_index, dts):
        r = unsorted[i]
        if r is None:
            r = ObservationRow(
                stamp=all_stamps[i],
                dt=dt,
                slots_series1=_EMPTY_SLOTS,
                slots_series2=_EMPTY_SLOTS,
                climate_state=extra_states[i - n],
            )
        elif not (r.dt is dt or r.dt == dt):
            r = ObservationRow(
                r.stamp, dt, r.slots_series1, r.slots_series2, r.climate_state
            )
        rows.append(r)

    # the data rows keep their order, so a data slot's flat index moves by
    # its row's shift and the slot columns stay in row-major order
    new_row = np.empty(order.size, dtype=np.int64)
    new_row[order] = np.arange(order.size)
    shift = (new_row[:n] - np.arange(n)) * (2 * MAX_SLOTS)
    merged_view = PanelView(
        stamps=np.array(merged_stamps, dtype=float),
        dts=np.array(dts, dtype=float),
        climate_states=np.concatenate(
            [view.climate_states, np.array(extra_states, dtype=np.int32)]
        )[order],
        at=view.at + shift[view.row],
        value=view.value,
        source=view.source,
        species=view.species,
    )
    merged = with_view(
        PanelDataset(rows=tuple(rows), sources=data.sources, species=data.species),
        merged_view,
    )

    # each stamp's row: the first of the rows just below, at and above its
    # insertion point that lies within tol
    at, near = _near(merged_view.stamps, grid, tol, (-1, 0, 1))
    lost = ~near.any(axis=0)
    if lost.any():
        raise AssertionError(f"grid stamp {grid[lost][0]} lost in the merge")
    indices = (at - 1 + near.argmax(axis=0)).tolist()
    return merged, indices


def _near(stamps: np.ndarray, grid: np.ndarray, tol: float, offsets: tuple) -> tuple:
    # (at, near): at[g] is grid[g]'s insertion point in stamps, and near[i, g]
    # says that the row at at[g] + offsets[i] exists and lies within tol
    at = np.searchsorted(stamps, grid)
    near = np.zeros((len(offsets), grid.size), dtype=bool)
    for i, off in enumerate(offsets):
        j = at + off
        ok = (j >= 0) & (j < stamps.size)
        near[i, ok] = np.abs(stamps[j[ok]] - grid[ok]) <= tol
    return at, near


@dataclass(frozen=True)
class ImputationTable:
    """Grid stamps with smoothed mean and SD per series."""

    stamps: tuple
    series: tuple  # series names in column order
    means: np.ndarray  # (n_grid, n_series)
    sds: np.ndarray  # (n_grid, n_series)

    @property
    def n_rows(self) -> int:
        return len(self.stamps)


def impute(fit, spec: ModelSpec, data: PanelDataset, grid) -> ImputationTable:
    """Smoothed state values at the grid stamps under fitted parameters.

    fit is a FitResult (params and their layout order are read off it) or
    a bare natural-scale parameter vector. Coincident grid stamps reuse
    the data row, so their values equal the data-row smoothed values.

    Raises ValueError, naming the grid stamp, where a smoothed level
    variance is negative: the smoother has lost precision there, and no
    SD is reported for it.
    """
    layout = build_layout(spec, data)
    params = getattr(fit, "params_hat", fit)
    names = getattr(fit, "param_names", None)
    if names is not None and tuple(names) != tuple(layout.names()):
        raise ValueError(
            "fit result does not match this (spec, data): parameter layouts differ"
        )

    merged, indices = merge_grid(data, grid)
    run = kalman.filter(spec, layout, params, merged)
    del merged  # its rows and cached view are not needed while smoothing
    paths = kalman.smooth(run)

    rows = np.array(indices, dtype=np.intp)[:, None]
    levels = [j * spec.order_m for j in range(spec.n_series)]
    means = paths.smoothed_means[rows, levels]
    var = paths.smoothed_covs[rows, levels, levels]
    negative = np.argwhere(var < 0.0)
    if negative.size:
        i, j = negative[0].tolist()
        raise ValueError(
            f"negative smoothed variance {float(var[i, j])!r} of "
            f"{SERIES_NAMES[spec.series[j]]} at grid stamp {float(grid[i])!r}"
        )
    sds = np.sqrt(var)
    return ImputationTable(
        stamps=tuple(float(g) for g in grid),
        series=tuple(SERIES_NAMES[s] for s in spec.series),
        means=means,
        sds=sds,
    )


def write_impute_csv(table: ImputationTable, path, header_lines=()) -> None:
    """CSV with stamp_mya then mean/sd column pair per series."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line.rstrip("\n") + "\n")
        writer = csv.writer(fh)
        header = ["stamp_mya"]
        for name in table.series:
            header += [f"mean_{name}", f"sd_{name}"]
        writer.writerow(header)
        for i, stamp in enumerate(table.stamps):
            row = [repr(stamp)]
            for j in range(len(table.series)):
                row += [repr(float(table.means[i, j])), repr(float(table.sds[i, j]))]
            writer.writerow(row)
