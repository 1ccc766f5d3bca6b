"""Model variants, parameter layouts, the booking schedule, and the
per-row arrays compile_model resolves from them."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from paleokalman import kalman
from paleokalman.core import collate_rows
from paleokalman.modelspec import (
    ModelSpec,
    booking_schedule,
    build_layout,
    trend_transition_matrix,
)

from conftest import MIXED_RECORDS, rows_from_values


# ---------------------------------------------------------------------------
# spec validation and JSON
# ---------------------------------------------------------------------------


def test_spec_defaults():
    spec = ModelSpec()
    assert spec.arity == "univariate-series1"
    assert spec.order_m == 1
    assert spec.series == (0,)
    assert spec.state_dim == 1


def test_spec_bivariate_needs_corr():
    with pytest.raises(ValueError):
        ModelSpec(arity="bivariate")
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    assert spec.series == (0, 1)
    assert spec.state_dim == 2


def test_spec_corr_rejected_for_univariate():
    with pytest.raises(ValueError):
        ModelSpec(arity="univariate-series1", corr_grouping="pooled")


@pytest.mark.parametrize("m", [0, 9, -1])
def test_spec_order_bounds(m):
    with pytest.raises(ValueError):
        ModelSpec(order_m=m)


def test_spec_rejects_unknown_groupings():
    with pytest.raises(ValueError):
        ModelSpec(meas_grouping="by-color")
    with pytest.raises(ValueError):
        ModelSpec(trans_grouping="by-source")  # transitions group by regime only
    with pytest.raises(ValueError):
        ModelSpec(arity="sideways")


def test_spec_json_round_trip():
    spec = ModelSpec(
        arity="bivariate",
        order_m=3,
        meas_grouping="by-source",
        trans_grouping="by-climate-state",
        corr_grouping="by-climate-state",
    )
    assert ModelSpec.from_json(spec.to_json()) == spec


def test_state_dim_scales_with_order():
    spec = ModelSpec(arity="bivariate", order_m=4, corr_grouping="pooled")
    assert spec.state_dim == 8


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------


def test_layout_pooled_univariate():
    data = rows_from_values([-3.0, -2.0], [[1.0], [1.1]])
    layout = build_layout(ModelSpec(), data)
    assert layout.names() == ["sigma_eps2.d18O", "sigma_eta2.d18O"]
    assert layout.n_params == 2
    assert len(layout.meas_index) == 1
    assert len(layout.trans_index) == 1
    assert len(layout.corr_index) == 0


def test_layout_by_source_orders_by_registry():
    data = rows_from_values(
        [-3.0, -2.0, -1.0],
        [[1.0], [1.1, 0.9], [1.2]],
        sources=[[1], [0, 1], [0]],
    )
    spec = ModelSpec(meas_grouping="by-source")
    layout = build_layout(spec, data)
    eps = [p for p in layout.params if p.role == "sigma_eps2"]
    assert layout.meas_index == {(0, 0): 0, (0, 1): 1}
    assert [p.group for p in eps] == ["source_0", "source_1"]
    assert layout.n_params == 3


def test_layout_drops_empty_cells():
    # only sources 0 and 2 ever carry values; no coordinate for source 1
    data = rows_from_values(
        [-3.0, -2.0],
        [[1.0], [1.2]],
        sources=[[0], [2]],
    )
    data.sources[1] = "never used"
    layout = build_layout(ModelSpec(meas_grouping="by-source"), data)
    assert layout.meas_index == {(0, 0): 0, (0, 2): 1}


def test_layout_by_climate_state_trans():
    # rows in two regimes: 60 MYA (state 1) and 10 MYA (state 5)
    data = rows_from_values([-60.0, -59.0, -10.0], [[1.0], [1.1], [1.2]])
    spec = ModelSpec(trans_grouping="by-climate-state")
    layout = build_layout(spec, data)
    trans = [p for p in layout.params if p.role == "sigma_eta2"]
    assert layout.trans_index == {(0, 1): 1, (0, 5): 2}
    assert [p.group for p in trans] == ["Warmhouse 2", "Coolhouse 2"]


def test_layout_bivariate_order():
    data = rows_from_values(
        [-3.0, -2.0],
        [[1.0], [1.1]],
        [[0.5], [0.6]],
    )
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    layout = build_layout(spec, data)
    assert [p.role for p in layout.params] == [
        "sigma_eps2",
        "sigma_eps2",
        "sigma_eta2",
        "sigma_eta2",
        "rho",
    ]
    assert [p.series for p in layout.params] == [0, 1, 0, 1, None]
    assert layout.names()[-1] == "rho"


def test_layout_corr_needs_joint_rows():
    # series never observed at the same stamp: no correlation coordinate
    data = rows_from_values(
        [-3.0, -2.0],
        [[1.0], None],
        [None, [0.5]],
    )
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    layout = build_layout(spec, data)
    assert len(layout.corr_index) == 0


def test_layout_bivariate_by_species_and_climate_state():
    # regime 1 (60 MYA) sees both series; regime 5 (10 MYA) sees only d18O,
    # so it gets a d18O transition variance but no correlation
    data = collate_rows(
        [
            (-60.0, 0, 1.0, "a", "s"),
            (-60.0, 1, 0.5, "a", "t"),
            (-59.0, 0, 1.1, "a", "t"),
            (-59.0, 1, 0.6, "a", "t"),
            (-10.0, 0, 1.2, "a", "s"),
            (-9.0, 0, 1.3, "a", "u"),
        ]
    )
    spec = ModelSpec(
        arity="bivariate",
        meas_grouping="by-species",
        trans_grouping="by-climate-state",
        corr_grouping="by-climate-state",
    )
    layout = build_layout(spec, data)
    assert [(p.role, p.series, p.group) for p in layout.params] == [
        ("sigma_eps2", 0, "s"),
        ("sigma_eps2", 0, "t"),
        ("sigma_eps2", 0, "u"),
        ("sigma_eps2", 1, "t"),
        ("sigma_eta2", 0, "Warmhouse 2"),
        ("sigma_eta2", 0, "Coolhouse 2"),
        ("sigma_eta2", 1, "Warmhouse 2"),
        ("rho", None, "Warmhouse 2"),
    ]
    assert layout.meas_index == {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3}
    assert layout.trans_index == {(0, 1): 4, (0, 5): 5, (1, 1): 6}
    assert layout.corr_index == {1: 7}
    keys = [*layout.meas_index, *layout.trans_index]
    assert all(type(i) is int for key in keys for i in key)
    assert all(type(key) is int for key in layout.corr_index)


def test_validate_params_bounds():
    data = rows_from_values([-3.0, -2.0], [[1.0], [1.1]])
    layout = build_layout(ModelSpec(), data)
    layout.validate_params([0.1, 0.2])
    with pytest.raises(ValueError):
        layout.validate_params([0.0, 0.2])
    with pytest.raises(ValueError):
        layout.validate_params([0.1, -1.0])
    with pytest.raises(ValueError):
        layout.validate_params([0.1])


def test_validate_params_rho_open_interval():
    data = rows_from_values([-3.0, -2.0], [[1.0], [1.1]], [[0.5], [0.6]])
    layout = build_layout(ModelSpec(arity="bivariate", corr_grouping="pooled"), data)
    layout.validate_params([0.1, 0.1, 0.1, 0.1, 0.9999])
    with pytest.raises(ValueError):
        layout.validate_params([0.1, 0.1, 0.1, 0.1, 1.0])


def test_layout_hash_stability_and_sensitivity():
    data = rows_from_values([-3.0, -2.0], [[1.0], [1.1]])
    h1 = build_layout(ModelSpec(), data).hash()
    h2 = build_layout(ModelSpec(), data).hash()
    h3 = build_layout(ModelSpec(order_m=2), data).hash()
    assert h1 == h2
    assert h1 != h3


_E18, _E13, _T18, _T13 = "sigma_eps2.d18O", "sigma_eps2.d13C", "sigma_eta2.d18O", "sigma_eta2.d13C"
_CLIMATE = ["Warmhouse 2", "Coolhouse 1", "Coolhouse 2", "Icehouse"]

# (spec, registries kept, layout hash, names, groups) on the MIXED_RECORDS
# panel. The hashes are those fit files carry as layout_hash, so a change
# here makes every fit file written before it fail to load (exit 66).
_PINNED_LAYOUTS = [
    (ModelSpec(), True, "83a862e08f06e48d", [_E18, _T18], ["pooled"] * 2),
    (
        ModelSpec(meas_grouping="by-source"),
        True,
        "6366e2d209ec2170",
        [_E18] * 3 + [_T18],
        ["a", "b", "c", "pooled"],
    ),
    (
        ModelSpec(order_m=2, meas_grouping="by-species", trans_grouping="by-climate-state"),
        True,
        "54b1702e46e393b9",
        [_E18] * 3 + [_T18] * 4,
        ["s", "t", "u", *_CLIMATE],
    ),
    (
        ModelSpec(arity="univariate-series2", order_m=6, meas_grouping="by-source"),
        True,
        "133c83206a84c3ed",
        [_E13] * 3 + [_T13],
        ["a", "b", "c", "pooled"],
    ),
    (
        ModelSpec(arity="bivariate", corr_grouping="pooled"),
        True,
        "32ab22e53df917ef",
        [_E18, _E13, _T18, _T13, "rho"],
        ["pooled"] * 5,
    ),
    (
        ModelSpec(
            arity="bivariate",
            order_m=2,
            meas_grouping="by-source",
            trans_grouping="by-climate-state",
            corr_grouping="by-climate-state",
        ),
        True,
        "06f48ccfc1e1731d",
        [_E18] * 3 + [_E13] * 3 + [_T18] * 4 + [_T13] * 4 + ["rho"] * 3,
        ["a", "b", "c"] * 2
        + _CLIMATE
        + ["Warmhouse 2", "Warmhouse 1", "Coolhouse 1", "Icehouse"]
        + ["Warmhouse 2", "Coolhouse 1", "Icehouse"],
    ),
    # registries without some keys: the source#k and species#k labels
    (
        ModelSpec(meas_grouping="by-source"),
        False,
        "3bfa83c5bc6c5e60",
        [_E18] * 3 + [_T18],
        ["source#0", "b", "source#2", "pooled"],
    ),
    (
        ModelSpec(arity="univariate-series2", meas_grouping="by-species"),
        False,
        "dbe78a074b12cb85",
        [_E13] * 3 + [_T13],
        ["species#0", "species#1", "species#2", "pooled"],
    ),
]


@pytest.mark.parametrize("spec, registries, digest, names, groups", _PINNED_LAYOUTS)
def test_layout_hash_is_pinned(spec, registries, digest, names, groups):
    data = collate_rows(MIXED_RECORDS)
    if not registries:
        data = dataclasses.replace(data, sources={1: "b"}, species={})
    layout = build_layout(spec, data)
    assert layout.names() == names
    assert [p.group for p in layout.params] == groups
    assert layout.hash() == digest


# ---------------------------------------------------------------------------
# transition structure
# ---------------------------------------------------------------------------


def test_trend_transition_matrix_shape():
    assert np.array_equal(trend_transition_matrix(1), np.eye(1))
    T3 = trend_transition_matrix(3)
    expected = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(T3, expected)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_trend_transition_powers_differ(m):
    # T^2 != T for m >= 2: collapsing consecutive steps is not allowed
    T = trend_transition_matrix(m)
    assert not np.allclose(T @ T, T)


# ---------------------------------------------------------------------------
# gap booking
# ---------------------------------------------------------------------------


def test_booking_schedule_frozen_until_first_observed():
    stamps = [0.0, 0.5, 0.8, 1.0, 1.1, 1.5]
    observed = np.array([[False], [False], [True], [True], [False], [True]])
    apply_, window = booking_schedule(stamps, observed)
    # nothing is booked before or at the first observation; then the clock
    # runs from the first observed row
    assert apply_[:, 0].tolist() == [False, False, False, True, False, True]
    assert window[:, 0].tolist() == [0.0, 0.0, 0.0, 1.0 - 0.8, 0.0, 1.5 - 1.0]


def test_booking_schedule_windows_telescope():
    stamps = [0.0, 0.2, 0.5, 0.6, 1.0]
    observed = np.array([[True], [False], [True], [False], [True]])
    apply_, window = booking_schedule(stamps, observed)
    assert apply_[:, 0].tolist() == [False, False, True, False, True]
    assert window[2, 0] == 0.5
    assert window[4, 0] == 0.5
    # booked time sums to span between first and last observed stamps
    assert window.sum() == 1.0


def test_booking_schedule_independent_series():
    stamps = [0.0, 0.2, 0.5]
    observed = np.array([[True, False], [False, True], [True, True]])
    apply_, window = booking_schedule(stamps, observed)
    assert apply_.tolist() == [[False, False], [False, False], [True, True]]
    assert window[2, 0] == 0.5
    assert window[2, 1] == 0.5 - 0.2


@given(
    st.lists(st.booleans(), min_size=2, max_size=30),
    st.integers(min_value=0, max_value=10_000),
)
def test_booking_schedule_telescopes_any_pattern(pattern, seed):
    rng = np.random.default_rng(seed)
    n = len(pattern)
    stamps = np.cumsum(rng.uniform(0.01, 1.0, n))
    observed = np.array(pattern)[:, None]
    apply_, window = booking_schedule(stamps, observed)
    idx = np.flatnonzero(observed[:, 0])
    if idx.size >= 2:
        assert window.sum() == pytest.approx(stamps[idx[-1]] - stamps[idx[0]])
        assert not apply_[idx[0], 0]
        assert apply_[idx[1:], 0].all()
    else:
        assert window.sum() == 0.0
        assert not apply_.any()


@st.composite
def _booking_inputs(draw):
    # k = 1 or 2 series over n rows at distinct sorted stamps, each series
    # observed never, once, at the first and last rows only (one gap of the
    # full length), or on a random set of rows after a run of leading
    # missing rows
    n = draw(st.integers(min_value=1, max_value=80))
    k = draw(st.sampled_from([1, 2]))
    observed = np.zeros((n, k), dtype=bool)
    for j in range(k):
        kind = draw(st.sampled_from(["never", "once", "ends", "random"]))
        if kind == "once":
            observed[draw(st.integers(0, n - 1)), j] = True
        elif kind == "ends":
            observed[[0, n - 1], j] = True
        elif kind == "random":
            lead = draw(st.integers(0, n - 1))
            observed[lead:, j] = draw(st.lists(st.booleans(), min_size=n - lead, max_size=n - lead))
    stamp = st.floats(min_value=-100.0, max_value=100.0)
    stamps = sorted(draw(st.lists(stamp, min_size=n, max_size=n, unique=True)))
    return np.array(stamps), observed


def _assert_booked_at_stamp_differences(stamps, observed):
    apply_, window = booking_schedule(stamps, observed)
    assert apply_.shape == window.shape == (len(stamps), observed.shape[1])
    assert apply_.dtype == bool and window.dtype == np.float64
    want_apply = np.zeros(apply_.shape, dtype=bool)
    want_window = np.zeros(window.shape)
    for j in range(observed.shape[1]):
        rows = np.flatnonzero(observed[:, j])
        # every observed row after the series' first, and only those
        want_apply[rows[1:], j] = True
        want_window[rows[1:], j] = [
            stamps[b] - stamps[a] for a, b in zip(rows.tolist(), rows[1:].tolist())
        ]
    assert np.array_equal(apply_, want_apply)
    assert window.tobytes() == want_window.tobytes()


@given(_booking_inputs())
@example((np.array([0.0, 0.1, 0.2, 0.3]), np.array([[True, False]] * 4)))
@example((np.array([-0.5, 0.1, 0.2, 0.3]), np.array([[False], [True], [False], [True]])))
def test_booking_schedule_is_the_stamp_difference(inputs):
    stamps, observed = inputs
    _assert_booked_at_stamp_differences(stamps, observed)
    if observed.shape[1] == 1:  # a 1-d observed column is one series
        got = booking_schedule(stamps, observed[:, 0])
        want = booking_schedule(stamps, observed)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@given(_booking_inputs())
def test_booking_schedule_unobserved_rows_are_bitwise_neutral(inputs):
    # the panel with its all-unobserved rows is the one without them plus
    # inserted empty rows: every observed row books the same bits
    stamps, observed = inputs
    kept = observed.any(axis=1)
    apply_, window = booking_schedule(stamps, observed)
    apply_kept, window_kept = booking_schedule(stamps[kept], observed[kept])
    assert np.array_equal(apply_[kept], apply_kept)
    assert window[kept].tobytes() == window_kept.tobytes()
    assert not apply_[~kept].any() and not window[~kept].any()


# ---------------------------------------------------------------------------
# compiled per-slot and per-row inputs
# ---------------------------------------------------------------------------


def _zero_prior(s):
    # a known, exact initial state, so that predicted covariances show the
    # disturbance each row adds
    return np.zeros(s), np.zeros((s, s))


def test_compiled_first_row_frozen():
    spec = ModelSpec()
    data = rows_from_values([-3.0, -2.0], [[1.0], [1.1]])
    layout = build_layout(spec, data)
    cm = kalman.compile_model(spec, layout, data)
    assert np.array_equal(cm.apply_, [[False], [True]])
    assert np.array_equal(cm.window, [[0.0], [1.0]])
    assert cm.hidx == (0, 0)
    assert np.array_equal(cm.tvar, [[1], [1]])
    paths = kalman.filter(spec, layout, [0.3, 0.7], data, init=_zero_prior(1)).paths
    assert paths.predicted_covs[0, 0, 0] == 0.0
    assert paths.innovation_variances[0, 0] == pytest.approx(0.3)
    assert paths.predicted_covs[1, 0, 0] == pytest.approx(0.7 * 1.0)


def test_compiled_bivariate_cross_term_uses_min_window():
    data = rows_from_values(
        [-3.0, -2.5, -2.0],
        [[1.0], None, [1.1]],  # series 1 skips the middle row
        [[0.5], [0.6], [0.7]],
    )
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    layout = build_layout(spec, data)
    cm = kalman.compile_model(spec, layout, data)
    # only series 2 books at the middle row: no cross term there; the
    # per-(row, series) fields hold row nu's series j at [nu, j]
    assert np.array_equal(cm.apply_, [[False, False], [False, True], [True, True]])
    assert np.array_equal(cm.moved, [False, True, True])
    assert np.array_equal(cm.window[1], [0.0, 0.5])
    assert np.array_equal(cm.window[2], [1.0, 0.5])
    assert np.array_equal(cm.tvar, [[2, 3]] * 3)
    assert np.array_equal(cm.corr, [4, 4, 4])
    params = [0.1, 0.2, 0.4, 0.9, 0.5]
    paths = kalman.filter(spec, layout, params, data, init=_zero_prior(2)).paths
    P1, P2 = paths.predicted_covs[1], paths.predicted_covs[2]
    assert P1[0, 1] == 0.0
    assert P1[1, 1] == pytest.approx(0.9 * 0.5)
    # series 1 booked 1.0, series 2 booked 0.5; overlap is min = 0.5
    assert P2[0, 0] == pytest.approx(0.4 * 1.0)
    expected_cross = 0.5 * np.sqrt(0.4) * np.sqrt(0.9) * 0.5
    assert P2[0, 1] == pytest.approx(expected_cross)
    assert P2[1, 0] == P2[0, 1]


def test_compiled_slots_point_at_levels():
    spec = ModelSpec(arity="bivariate", order_m=2, corr_grouping="pooled")
    data = rows_from_values([-3.0, -2.0], [[1.0], [1.1]], [[0.5], [0.6]])
    layout = build_layout(spec, data)
    cm = kalman.compile_model(spec, layout, data)
    assert cm.p == 8 and cm.s == 4
    # one observed slot per series and row, listed row-major: series-1
    # slots (column 0) -> series-1 level (index 0), series-2 (column 4) ->
    # index m
    assert cm.obs_row.tolist() == [0, 0, 1, 1]
    assert cm.obs_col.tolist() == [0, 4, 0, 4]
    assert np.array_equal(cm.count, [2, 2])
    assert np.array_equal(cm.level, [0, 2, 0, 2])
    assert cm.hidx == (0, 1, 0, 1)
    assert cm.y == (1.0, 0.5, 1.1, 0.6)


def test_compiled_disturbance_enters_last_component():
    spec = ModelSpec(order_m=3)
    data = rows_from_values([-3.0, -2.0], [[1.0], [1.1]])
    layout = build_layout(spec, data)
    paths = kalman.filter(spec, layout, [0.1, 0.5], data, init=_zero_prior(3)).paths
    expected = np.zeros((3, 3))
    expected[2, 2] = 0.5
    assert np.array_equal(paths.predicted_covs[1], expected)
