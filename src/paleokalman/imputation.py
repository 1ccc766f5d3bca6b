"""Smoothed values on an equidistant time grid.

One forward and one backward pass run over the data at the fitted
parameters, the two that kalman.score runs (kalman._passes): the backward
pass reads the forward pass's buffers. No FilterRun or StatePaths is
built, and only the grid stamps' rows of the backward pass's moments are
spread out, so the numbers are those of
kalman.smooth(kalman.filter(...)) at those rows: bit for bit where no row
repeats a series, or above state dimension 1, and to rounding where the
forward pass merges a row's values (see kalman's module docstring). Each grid
stamp reads the smoothed moments of its row by index: the row within
COINCIDENCE_TOL (1e-12 My) of it, else the last older row, else row 0.
Transitions are booked at observed rows only, so an all-missing row at the
stamp would hold just those moments. merge_grid, which collates such rows
into the panel, is kept as the tests' reference for that.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kalman
from .core import MISSING, PanelDataset, SERIES_NAMES, _collate, _float_text, _write_csv
from .fitting import FitResult, _fit_matches
from .modelspec import ModelSpec, build_layout

__all__ = [
    "COINCIDENCE_TOL",
    "MAX_GRID_POINTS",
    "GridTooLargeError",
    "make_grid",
    "ImputationTable",
    "impute",
    "write_impute_csv",
]

COINCIDENCE_TOL = 1e-12
MAX_GRID_POINTS = 10**7


class GridTooLargeError(ValueError):
    """The mesh would give a grid of more than MAX_GRID_POINTS stamps."""


def make_grid(span_start_mya: float, span_end_mya: float, mesh_years: float) -> list:
    """Equidistant stamps over [span_start, span_end] MYA, oldest first.

    The grid has floor(span_years / mesh_years) points spaced mesh_years
    apart starting at the old end; the final partial interval is dropped.
    Returns stamps (negative-age convention), ascending. A grid of more
    than MAX_GRID_POINTS stamps raises GridTooLargeError, naming the
    point count, before any stamp is built.
    """
    if not (math.isfinite(span_start_mya) and span_start_mya > span_end_mya >= 0.0):
        raise ValueError(
            f"need finite span_start > span_end >= 0, got ({span_start_mya}, {span_end_mya})"
        )
    if not mesh_years > 0:
        raise ValueError(f"mesh_years must be positive, got {mesh_years}")
    span_years = (span_start_mya - span_end_mya) * 1e6
    n_g = span_years / mesh_years  # inf where the mesh is tiny enough
    if n_g >= MAX_GRID_POINTS + 1:
        count = math.floor(n_g) if n_g < math.inf else n_g
        raise GridTooLargeError(
            f"a mesh of {mesh_years} years over the {span_years}-year span gives "
            f"{count} grid points, more than {MAX_GRID_POINTS}"
        )
    n_g = math.floor(n_g)
    if n_g == 0:
        warnings.warn(
            f"mesh of {mesh_years} years exceeds the {span_years}-year span; "
            "empty grid",
            stacklevel=2,
        )
        return []
    return [-(span_start_mya - (i * mesh_years) / 1e6) for i in range(n_g)]


def merge_grid(data: PanelDataset, grid) -> tuple:
    """Insert grid stamps as all-missing rows; returns (merged, indices).

    indices[i] is the merged-row index holding grid stamp grid[i]. Stamps
    within COINCIDENCE_TOL of an existing row are not inserted; the
    existing row is referenced instead. The merged panel is collated from
    the data's slots and an all-missing entry per data row and per
    inserted stamp, so it keeps the data's slots and registries.
    """
    view = data.view
    grid, rows, near = _grid_rows(view.stamps, grid)
    new = np.flatnonzero(~near)
    extra = grid[new]
    # the collate would merge two equal inserted stamps into one row
    order = np.argsort(extra, kind="stable")
    repeat = np.flatnonzero(np.diff(extra[order]) == 0.0)
    if repeat.size:
        first, again = new[order[repeat[0] : repeat[0] + 2]].tolist()
        raise ValueError(
            f"grid entry {again} repeats the stamp {float(grid[again])!r} "
            f"of grid entry {first}"
        )

    stamps = np.concatenate([view.stamps, extra])
    n = stamps.size
    merged = _collate(
        np.concatenate([stamps, view.stamps[view.row]]),
        np.concatenate([np.zeros(n, dtype=np.int64), view.series]),
        np.concatenate([np.full(n, MISSING), view.value]),
        np.concatenate([np.full(n, -1, dtype=np.int32), view.source]),
        np.concatenate([np.full(n, -1, dtype=np.int32), view.species]),
        data.sources,
        data.species,
    )
    # a coincident stamp is held by its data row, an inserted one by its own
    held = grid.copy()
    held[near] = view.stamps[rows[near]]
    return merged, np.searchsorted(merged.view.stamps, held).tolist()


def _grid_rows(stamps: np.ndarray, grid) -> tuple:
    # (grid, rows, near): rows[i] is the row of the increasing stamps whose
    # smoothed moments grid[i] takes, the row within COINCIDENCE_TOL of it
    # (the older neighbour first), else the last older row, else row 0, and
    # near[i] says that row lies within COINCIDENCE_TOL
    grid = np.asarray(grid, dtype=float).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(grid))
    if bad.size:
        g = int(bad[0])
        raise ValueError(f"grid entry {g} is {float(grid[g])!r}, not a finite stamp")
    at = np.searchsorted(stamps, grid)
    # row j's stamp at j + 1, with an infinite stamp on either side
    padded = np.concatenate([[-np.inf], stamps, [np.inf]])
    near_older = np.abs(padded[at] - grid) <= COINCIDENCE_TOL
    near_younger = np.abs(padded[at + 1] - grid) <= COINCIDENCE_TOL
    rows = np.where(near_younger & ~near_older, at, np.maximum(at - 1, 0))
    return grid, rows, near_older | near_younger


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
    """Smoothed level values at the grid stamps under fitted parameters.

    fit is a FitResult, whose spec and parameter names and groups must be
    those of spec on data, or a bare natural-scale parameter vector. One
    forward and one backward pass run over data, and each grid stamp takes
    its row's moments (see the module docstring); a repeated stamp takes
    them again.

    Raises ValueError, naming the grid entry, for a grid stamp that is not
    finite, and, naming the grid stamp, where a smoothed level variance is
    negative or NaN: the smoother has lost precision there, or the filter
    overflowed, and no SD is reported for it. A ConditioningError names
    the data row, as kalman.filter does.
    """
    layout = build_layout(spec, data)
    params = getattr(fit, "params_hat", fit)
    if isinstance(fit, FitResult) and not _fit_matches(fit, layout):
        raise ValueError(
            "fit result does not match this (spec, data): parameter layouts differ"
        )

    grid, rows, _ = _grid_rows(data.view.stamps, grid)
    cm = kalman.compile_model(spec, layout, data)
    X, XV, _, _ = kalman._passes(cm, layout.validate_params(params))
    means, covs = kalman._filled(cm, X, XV, cm.fill[rows])

    levels = [j * spec.order_m for j in range(spec.n_series)]
    means, var = means[:, levels], covs[:, levels, levels]
    series = tuple(SERIES_NAMES[s] for s in spec.series)
    kalman._check_smoothed_variances(var, series, grid, "grid stamp")
    sds = np.sqrt(var)
    return ImputationTable(
        stamps=tuple(grid.tolist()),
        series=series,
        means=means,
        sds=sds,
    )


def write_impute_csv(table: ImputationTable, path, header_lines=()) -> None:
    """CSV with stamp_mya then mean/sd column pair per series."""
    n, k = table.means.shape
    pairs = np.stack([table.means, table.sds], axis=2).reshape(n, 2 * k)
    columns = np.column_stack([np.asarray(table.stamps, dtype=float).reshape(n), pairs])
    header = ["stamp_mya"]
    for name in table.series:
        header += [f"mean_{name}", f"sd_{name}"]
    _write_csv(path, header_lines, header, text=_float_text(columns))
