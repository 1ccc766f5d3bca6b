"""Filter, smoother, residuals, and the filter's path-free loglik mode.

Frozen reference numbers were produced by the joint-Gaussian oracles in
paleokalman.oracle (diffuse_exact_gaussian / exact_gaussian); the m=2
instance was additionally cross-checked against an independent state-space
implementation. The oracles themselves are validated in test_oracle.py.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paleokalman as pk
from paleokalman import ModelSpec, build_layout
from paleokalman.core import MAX_SLOTS
from paleokalman.kalman import (
    ConditioningError,
    compile_model,
    filter as kfilter,
    loglik as kloglik,
    smooth,
    state_component_names,
    write_state_paths_csv,
)
from paleokalman import _kernels, kalman
from paleokalman.modelspec import booking_schedule

from conftest import (
    MIXED_RECORDS,
    mixed_panels,
    recollate,
    rows_from_values,
    small_simulated,
)


def _instance_a():
    spec = ModelSpec()
    data = pk.simulate(
        spec, [0.04, 1.5], [-3.0, -2.5, -1.7, -1.0, -0.4],
        slots_per_row=2, seed=3, n_sources=2,
    )
    return spec, [0.04, 1.5], data


def _instance_b():
    spec = ModelSpec(order_m=2)
    data = pk.simulate(
        spec, [0.2, 0.9], [-2.0, -1.6, -1.1, -0.5], slots_per_row=2, seed=4
    )
    return spec, [0.2, 0.9], data


def _instance_c():
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    params = [0.04, 0.09, 1.5, 0.8, 0.7]
    data = pk.simulate(
        spec, params, [-3.0, -2.5, -1.7, -1.0, -0.4],
        slots_per_row=2, seed=3, n_sources=2,
    )
    return spec, params, data


# ---------------------------------------------------------------------------
# frozen regression values (from diffuse_exact_gaussian / exact_gaussian)
# ---------------------------------------------------------------------------


def test_frozen_univariate_diffuse():
    spec, params, data = _instance_a()
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, params, data)
    paths = smooth(run)
    assert run.loglik == pytest.approx(-11.884805084795222, rel=1e-12)
    expected_means = [
        -0.043734114673350616,
        0.24653374730974828,
        -0.09955279895218491,
        -0.41656989190436955,
        -1.1733218277356927,
    ]
    expected_vars = [
        0.019493463991008975,
        0.01918700067305042,
        0.019321818201403655,
        0.019222703859047566,
        0.019574301844923783,
    ]
    assert np.allclose(paths.smoothed_means[:, 0], expected_means, rtol=1e-10)
    assert np.allclose(paths.smoothed_covs[:, 0, 0], expected_vars, rtol=1e-10)


def test_frozen_order2_diffuse():
    spec, params, data = _instance_b()
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, params, data)
    paths = smooth(run)
    assert run.loglik == pytest.approx(-7.5996285206731695, rel=1e-12)
    assert np.allclose(
        paths.smoothed_means[0],
        [-0.28913103020927194, 0.03959220618779691],
        rtol=1e-9,
    )
    assert np.allclose(
        paths.smoothed_means[-1],
        [0.9856640460053188, 0.8200654191544321],
        rtol=1e-9,
    )
    assert run.n_diffuse_slots == 2


def test_frozen_bivariate_diffuse():
    spec, params, data = _instance_c()
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, params, data)
    paths = smooth(run)
    assert run.loglik == pytest.approx(-20.496952434945758, rel=1e-12)
    assert np.allclose(
        paths.smoothed_means[0],
        [-0.07706168068022241, 0.027848568769044717],
        rtol=1e-9,
    )
    assert np.allclose(
        paths.smoothed_means[-1],
        [0.42939243747444383, -0.28955420951689825],
        rtol=1e-9,
    )


def test_frozen_proper_prior_paths():
    spec = ModelSpec()
    data = pk.simulate(spec, [0.3, 1.1], [-2.0, -1.5, -1.0, -0.6], seed=8)
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, [0.3, 1.1], data, init=([0.2], [[2.0]]))
    assert run.loglik == pytest.approx(-5.393875159505386, rel=1e-12)
    expected_pred = [0.2, -0.8018154064434839, -1.4842917305451497, -2.2284030259540017]
    expected_filt = [
        -0.8018154064434839,
        -1.4842917305451497,
        -2.2284030259540017,
        -2.00420360866952,
    ]
    expected_fv = [
        0.26086956521739113,
        0.2189823874755379,
        0.21580778032036596,
        0.20583880791404052,
    ]
    assert np.allclose(run.paths.predicted_means[:, 0], expected_pred, rtol=1e-12)
    assert np.allclose(run.paths.filtered_means[:, 0], expected_filt, rtol=1e-12)
    assert np.allclose(run.paths.filtered_covs[:, 0, 0], expected_fv, rtol=1e-12)


# ---------------------------------------------------------------------------
# oracle equivalence on fresh random instances
# ---------------------------------------------------------------------------


def _assert_matches_diffuse_oracle(spec, params, data, layout):
    run = kfilter(spec, layout, params, data)
    paths = smooth(run)
    orc = pk.diffuse_exact_gaussian(spec, params, data, layout)
    assert run.loglik == pytest.approx(orc.loglik, rel=1e-10)
    assert np.allclose(paths.smoothed_means, orc.smoothed_means, atol=1e-9)
    assert np.allclose(paths.smoothed_covs, np.array(orc.smoothed_covs), atol=1e-9)
    return paths


@pytest.mark.parametrize("m", [1, 2, 3])
def test_proper_prior_matches_oracle(m):
    spec = ModelSpec(order_m=m)
    params = [0.15, 1.2]
    data = small_simulated(spec, params, n_rows=6, slots=2, seed=m)
    layout = build_layout(spec, data)
    a1 = np.linspace(0.1, 0.3, m)
    P1 = np.eye(m) + 0.2
    run = kfilter(spec, layout, params, data, init=(a1, P1))
    paths = smooth(run)
    orc = pk.exact_gaussian(spec, params, data, a1, P1, layout)
    assert run.loglik == pytest.approx(orc.loglik, rel=1e-10)
    assert np.allclose(paths.predicted_means, orc.predicted_means, atol=1e-10)
    assert np.allclose(paths.predicted_covs, orc.predicted_covs, atol=1e-10)
    assert np.allclose(paths.filtered_means, orc.filtered_means, atol=1e-10)
    assert np.allclose(paths.filtered_covs, orc.filtered_covs, atol=1e-10)
    assert np.allclose(paths.smoothed_means, orc.smoothed_means, atol=1e-10)
    assert np.allclose(paths.smoothed_covs, orc.smoothed_covs, atol=1e-10)


_MIXED_BUILDS = ["collated", "canonical", "merged", "merged_edges"]
_MIXED_SPECS = {
    "by-source-m2": ModelSpec(order_m=2, meas_grouping="by-source"),
    "biv-m2-by-climate": ModelSpec(
        arity="bivariate",
        order_m=2,
        trans_grouping="by-climate-state",
        corr_grouping="by-climate-state",
    ),
}


@pytest.mark.parametrize(
    "spec, params, build",
    [
        pytest.param(
            ModelSpec(meas_grouping="by-source"), [0.1, 0.25, 1.3], None, id="spec0-params0"
        ),
        pytest.param(ModelSpec(trans_grouping="by-climate-state"), None, None, id="spec1-None"),
        pytest.param(
            ModelSpec(arity="bivariate", order_m=2, corr_grouping="pooled"),
            [0.1, 0.2, 1.3, 0.7, -0.5],
            None,
            id="spec2-params2",
        ),
        # the mixed panels: grid rows older than the data, a 4-slot row,
        # and one series' block frozen while the other moves in the diffuse phase
        *[
            pytest.param(spec, None, build, id=f"{name}-{build}")
            for name, spec in _MIXED_SPECS.items()
            for build in _MIXED_BUILDS
        ],
    ],
)
def test_diffuse_matches_gls_oracle(spec, params, build, tmp_path):
    if build is None:
        seed_params = params if params is not None else [0.1, 1.0]
        data = small_simulated(spec, seed_params, n_rows=7, slots=2, seed=17, n_sources=2)
    else:
        data = mixed_panels(tmp_path)[build]
    layout = build_layout(spec, data)
    if params is None:  # size the vector to the layout
        params = [0.1] + [1.0 + 0.1 * i for i in range(layout.n_params - 1)]
        params = [-0.5 if p.role == "rho" else x for p, x in zip(layout.params, params)]
    _assert_matches_diffuse_oracle(spec, params, data, layout)


def test_diffuse_with_missing_matches_oracle():
    spec = ModelSpec(meas_grouping="by-source", trans_grouping="by-climate-state")
    stamps = [-40.0, -35.2, -30.0, -12.0, -5.0, -1.2]
    obs = np.ones((6, 2), bool)
    obs[1, 0] = False
    obs[3, :] = False
    obs[4, 1] = False
    params = [0.05, 0.08, 1.5, 0.9, 2.0, 0.7]
    data = pk.simulate(
        spec, params, stamps, slots_per_row=2, seed=11, n_sources=2, observed=obs
    )
    layout = build_layout(spec, data)
    params = params[: layout.n_params]
    _assert_matches_diffuse_oracle(spec, params, data, layout)


def test_diffuse_leading_gap_bivariate_matches_oracle():
    # all-missing rows before the first observation, as impute's grid rows
    # older than the data; d13C starts late, so the m = 2 diffuse phase
    # spans rows 0-7 and the diffuse-row moments carry r1, N1 and N2
    spec = ModelSpec(arity="bivariate", order_m=2, corr_grouping="pooled")
    params = [0.1, 0.2, 1.3, 0.7, -0.5]
    obs = np.array(
        [
            [0, 0], [0, 0], [0, 0], [1, 0], [1, 0],
            [0, 0], [0, 1], [1, 1], [0, 1], [1, 1],
        ],
        dtype=bool,
    )
    stamps = [-3.0, -2.8, -2.55, -2.3, -2.1, -1.9, -1.6, -1.3, -1.0, -0.6]
    data = pk.simulate(spec, params, stamps, slots_per_row=2, seed=5, observed=obs)
    layout = build_layout(spec, data)
    paths = _assert_matches_diffuse_oracle(spec, params, data, layout)
    assert paths.diffuse_rows.tolist() == [True] * 8 + [False] * 2


# ---------------------------------------------------------------------------
# structural invariances
# ---------------------------------------------------------------------------


# six stamps spread over 65 My; the window from the second to the third
# spans four of the empty rows, whose increments do not add up to it exactly
_LONG_GAP_STAMPS = [
    -64.95457479087665, -54.14828599577981, -1.723786955100852,
    -1.328571691172042, -0.9330277925457364, -0.07106513362502544,
]
_LONG_GAP_EMPTY = [
    -56.18903940259409, -39.71998782221641, -22.750494057504888,
    -20.47420482037205, -20.285734699373755,
]


@pytest.mark.parametrize(
    "m, long_gap",
    [
        pytest.param(1, False, id="1"),
        pytest.param(2, False, id="2"),
        pytest.param(4, False, id="4"),
        pytest.param(1, True, id="long-gap-1"),
        pytest.param(2, True, id="long-gap-2"),
    ],
)
def test_empty_row_insertion_is_exactly_neutral(m, long_gap):
    spec = ModelSpec(order_m=m)
    if long_gap:
        params = [0.1, 1.2]
        data = pk.simulate(spec, params, _LONG_GAP_STAMPS, seed=1)
        empty = _LONG_GAP_EMPTY
    else:
        params = [0.1, 1.0]
        data = small_simulated(spec, params, n_rows=8, slots=1, seed=m + 40)
        empty = [-2.71, -1.93, -0.77]
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, params, data)
    paths = smooth(run)
    base = {r.stamp for r in data.rows}
    aug = recollate(data, empty_stamps=empty)
    run2 = kfilter(spec, layout, params, aug)
    paths2 = smooth(run2)
    keep = [i for i, r in enumerate(aug.rows) if r.stamp in base]
    assert run2.loglik == run.loglik  # bitwise: frozen blocks do nothing
    assert np.array_equal(paths.smoothed_means, paths2.smoothed_means[keep])
    assert np.array_equal(paths.smoothed_covs, paths2.smoothed_covs[keep])


def test_missing_row_equals_removed_row():
    # a row where the series is missing marginalizes out exactly
    spec = ModelSpec()
    params = [0.3, 0.8]
    with_gap = rows_from_values([-2.0, -1.7, -1.0], [[1.0], None, [2.5]])
    without = rows_from_values([-2.0, -1.0], [[1.0], [2.5]])
    layout = build_layout(spec, with_gap)
    r1 = kfilter(spec, layout, params, with_gap)
    r2 = kfilter(spec, build_layout(spec, without), params, without)
    assert r1.loglik == pytest.approx(r2.loglik, rel=1e-12)
    s1 = smooth(r1)
    s2 = smooth(r2)
    assert s1.smoothed_means[0, 0] == pytest.approx(s2.smoothed_means[0, 0], rel=1e-12)
    assert s1.smoothed_means[2, 0] == pytest.approx(s2.smoothed_means[1, 0], rel=1e-12)


def test_slot_order_within_row_is_irrelevant():
    spec = ModelSpec()
    params = [0.3, 0.8]
    d1 = rows_from_values([-2.0, -1.0], [[1.0, 2.0], [1.5]])
    d2 = rows_from_values([-2.0, -1.0], [[2.0, 1.0], [1.5]])
    r1 = kfilter(spec, build_layout(spec, d1), params, d1)
    r2 = kfilter(spec, build_layout(spec, d2), params, d2)
    assert r1.loglik == pytest.approx(r2.loglik, rel=1e-12)
    assert np.allclose(
        smooth(r1).smoothed_means, smooth(r2).smoothed_means, rtol=1e-12
    )


def test_vanishing_trend_variance_approaches_weighted_mean():
    # sigma_eta2 -> 0 pins the level; the smoothed level tends to the
    # precision-weighted mean of all observations
    spec = ModelSpec()
    data = rows_from_values([-3.0, -2.0, -1.0], [[1.0], [2.0], [4.5]])
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, [0.5, 1e-14], data)
    paths = smooth(run)
    wmean = np.mean([1.0, 2.0, 4.5])
    assert np.allclose(paths.smoothed_means[:, 0], wmean, atol=1e-5)


def test_filtered_never_wider_than_predicted():
    spec, params, data = _instance_a()
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, params, data)
    for nu in range(data.n_rows):
        if run.paths.diffuse_rows[nu]:
            continue
        gap = run.paths.predicted_covs[nu] - run.paths.filtered_covs[nu]
        vals = np.linalg.eigvalsh(0.5 * (gap + gap.T))
        assert vals.min() > -1e-12


def test_smoothed_covs_are_psd():
    for inst in (_instance_a, _instance_b, _instance_c):
        spec, params, data = inst()
        layout = build_layout(spec, data)
        paths = smooth(kfilter(spec, layout, params, data))
        for V in paths.smoothed_covs:
            assert np.linalg.eigvalsh(0.5 * (V + V.T)).min() > -1e-12


def _indefinite_rows(covs, tol=1e-10):
    # rows whose min eigenvalue < -tol * max |eigenvalue|
    eig = np.linalg.eigvalsh(covs)
    return int(np.sum(eig[:, 0] < -tol * np.abs(eig).max(axis=1)))


@pytest.mark.parametrize("m, q, n", [(4, 1e-8, 4000), (6, 3.1e-12, 4000), (6, 3.1e-12, 23_722)])
def test_high_order_smoothed_covs_stay_psd(m, q, n):
    # a long record smoothed at a high trend order and a small
    # signal-to-noise ratio: one slot per row at the paper's mean spacing
    # (My), up to its record length, drawn as random-walk-plus-noise on the
    # paper's d18O scale (the covariances depend on the stamps alone). The
    # trend variance is q * eps2, so the paper's q = eta2 * mean dt / eps2
    # is 0.00283 * q: 8.8e-15 at the m = 6 cases, not 3.1e-12
    eps2 = 0.0205
    rng = np.random.default_rng(0)
    stamps = -np.cumsum(rng.exponential(0.00283, n))[::-1] - 0.001
    data = pk.simulate(ModelSpec(), [eps2, 1.8364], stamps, seed=1)
    spec = ModelSpec(order_m=m)
    params = [eps2, q * eps2]
    paths = smooth(kfilter(spec, build_layout(spec, data), params, data))
    assert _indefinite_rows(paths.smoothed_covs) == 0
    # smoothing never widens the filtered covariance
    post = ~paths.diffuse_rows
    assert _indefinite_rows(paths.filtered_covs[post] - paths.smoothed_covs[post]) == 0


# ---------------------------------------------------------------------------
# the path-free loglik mode
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=1, max_value=4),
    biv=st.booleans(),
    n_rows=st.integers(min_value=2, max_value=12),
)
def test_kernel_matches_engine(seed, m, biv, n_rows):
    if biv:
        spec = ModelSpec(arity="bivariate", order_m=m, corr_grouping="pooled")
        params = [0.1, 0.2, 1.0, 0.7, 0.4]
    else:
        spec = ModelSpec(order_m=m)
        params = [0.1, 1.0]
    data = small_simulated(spec, params, n_rows=n_rows, slots=2, seed=seed)
    layout = build_layout(spec, data)
    if layout.n_params != len(params):  # no joint rows: rho dropped
        params = params[: layout.n_params]
    run = kfilter(spec, layout, params, data)
    cm = run.compiled
    kll = _kernels.loglik_from_compiled(cm, layout.validate_params(params))
    assert kll == run.loglik


@pytest.mark.parametrize(
    "spec, params",
    [
        (ModelSpec(), [0.1, 1.0]),
        (
            ModelSpec(arity="bivariate", order_m=2, corr_grouping="pooled"),
            [0.1, 0.2, 1.0, 0.7, 0.4],
        ),
    ],
)
def test_kernel_matches_engine_long_record(spec, params):
    # agreement far past the diffuse phase, across interior gap rows
    n_rows = 2000
    rng = np.random.default_rng(7)
    obs = rng.random((n_rows, spec.n_series)) < 0.8
    obs[rng.random(n_rows) < 0.05] = False  # rows with no value at all
    obs[0] = True
    data = small_simulated(spec, params, n_rows=n_rows, slots=2, seed=7, observed=obs)
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, params, data)
    assert run.paths.diffuse_rows.sum() < 10
    assert np.sum(~obs.any(axis=1)) > 50
    kll = _kernels.loglik_from_compiled(run.compiled, layout.validate_params(params))
    assert kll == run.loglik


@pytest.mark.parametrize(
    "instance, bad, reason",
    [
        # negative measurement variance: a proper innovation variance <= 0
        (_instance_a, [-0.5, 1.0], "innovation variance"),
        # negative trend variance with rho != 0: the increment covariance
        # rho * sqrt(eta1 * eta2) * w is not real
        (_instance_c, [0.04, 0.09, -1.5, 0.8, 0.7], "square root"),
    ],
    ids=["univariate-negative-eps", "bivariate-negative-eta-with-rho"],
)
def test_kernel_reports_nan_outside_admissible_region(instance, bad, reason):
    spec, params, data = instance()
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    with pytest.raises(ConditioningError, match=reason):
        kloglik(cm, bad)
    assert math.isnan(_kernels.loglik_from_compiled(cm, np.array(bad)))


# ---------------------------------------------------------------------------
# the dimension-1 forward recursion against the general one
# ---------------------------------------------------------------------------


def _dim1_panel(seed, n_rows=150):
    # two series over all six climate states: three leading all-missing rows,
    # then rows with 0-4 slots of each series (0: a gap row for it) over four
    # sources and three species
    rng = np.random.default_rng(seed)
    stamps = np.sort(rng.uniform(-66.0, -0.01, n_rows)).tolist()
    counts = rng.integers(0, MAX_SLOTS + 1, (n_rows, 2))
    counts[:3] = 0
    levels = np.cumsum(rng.normal(0.0, 0.3, (n_rows, 2)), axis=0)
    records = []
    for t, row_counts, row_levels in zip(stamps, counts.tolist(), levels.tolist()):
        records.append((t, "d18O", None, "", ""))  # the stamp alone
        for series, (c, level) in enumerate(zip(row_counts, row_levels)):
            for _ in range(c):
                value = level + float(rng.normal(0.0, 0.2))
                records.append(
                    (t, series, value, f"src{rng.integers(4)}", f"sp{rng.integers(3)}")
                )
    data = pk.collate_rows(records)
    assert all(data.rows[nu].all_missing for nu in range(3))
    return data


DIM1_SPECS = {
    "pooled": ModelSpec(),
    "by-source": ModelSpec(meas_grouping="by-source"),
    "by-species": ModelSpec(meas_grouping="by-species"),
    "by-climate-trans": ModelSpec(trans_grouping="by-climate-state"),
    "by-source-by-climate-trans": ModelSpec(
        meas_grouping="by-source", trans_grouping="by-climate-state"
    ),
    "d13C-by-species": ModelSpec(arity="univariate-series2", meas_grouping="by-species"),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(DIM1_SPECS))
def test_dim1_loglik_equals_filter_bitwise(name, seed):
    # and the score's float path equals its numpy path, called directly
    spec = DIM1_SPECS[name]
    data = _dim1_panel(seed)
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    assert cm.s == 1
    # interior gap rows, and rows with one to four observed slots
    assert 0 in cm.count[3:] and set(cm.count) >= {1, 2, 3, 4}
    rng = np.random.default_rng(100 + seed)
    for _ in range(10):
        # variances from 6e-6 to 20: signal-to-noise ratios over ~7 decades
        params = np.exp(rng.uniform(-12.0, 3.0, layout.n_params))
        ll = kloglik(cm, params)
        assert ll == kfilter(spec, layout, params, data, compiled=cm).loglik
        assert ll == _kernels.loglik_from_compiled(cm, params)
        assert ll == kalman._forward(cm, params.tolist(), *kalman._diffuse_start(1), False)[0]
        assert _same_bits(kalman.score(cm, params), kalman._score(cm, params))


def test_dim1_loglik_raises_as_the_general_recursion():
    # one source's variance negative: an innovation variance of its slots
    # turns negative once the diffuse phase is over. filter rejects the
    # point before its pass (ValueError), so the reference is that pass,
    # _forward, called directly.
    spec = DIM1_SPECS["by-source"]
    data = _dim1_panel(0)
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    params = np.full(layout.n_params, 0.5)
    src2 = {label: i for i, label in data.sources.items()}["src2"]
    params[layout.meas_index[(0, src2)]] = -3.0
    with pytest.raises(ValueError, match="variance must be positive"):
        kfilter(spec, layout, params, data, compiled=cm)
    with pytest.raises(ConditioningError) as fast:
        kloglik(cm, params)
    with pytest.raises(ConditioningError) as ref:
        kalman._forward(cm, params.tolist(), *kalman._diffuse_start(1), True)
    assert str(fast.value) == str(ref.value)
    assert fast.value.row_index == ref.value.row_index > 3
    assert "innovation variance" in str(fast.value)
    # the score's float path raises as its numpy path
    with pytest.raises(ConditioningError) as fast:
        kalman.score(cm, params)
    with pytest.raises(ConditioningError) as ref:
        kalman._score(cm, params)
    assert str(fast.value) == str(ref.value)
    assert fast.value.row_index == ref.value.row_index


def _assert_smooth_equals_smoothed(spec, layout, data, cm, h, prior=None):
    # smooth at s = 1 against the reference backward pass, _smoothed, over
    # _forward's paths, from the diffuse start or from the proper prior
    if prior is None:
        init, start = "diffuse", kalman._diffuse_start(1)
    else:
        init, start = ([prior[0]], [[prior[1]]]), ([prior[0]], [prior[1]], [0.0], False)
    paths = smooth(kfilter(spec, layout, h, data, init=init, compiled=cm))
    buffers = kalman._forward(cm, list(h), *start, True)[2]
    means, covs, _ = kalman._smoothed(cm, *kalman._paths_and_booked(cm, buffers))
    assert _same_bits(paths.smoothed_means, means)
    assert _same_bits(paths.smoothed_covs, covs)


def test_dim1_smoother_equals_general_recursion_bitwise():
    for seed in (0, 1, 2):
        data = _dim1_panel(seed)
        rng = np.random.default_rng(300 + seed)
        for spec in DIM1_SPECS.values():
            layout = build_layout(spec, data)
            cm = compile_model(spec, layout, data)
            assert cm.s == 1
            for prior in (None, (0.3, 0.5)):
                for _ in range(3):
                    h = np.exp(rng.uniform(-12.0, 3.0, layout.n_params)).tolist()
                    _assert_smooth_equals_smoothed(spec, layout, data, cm, h, prior)


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _assert_forward_dim1_equals_forward(cm, h, prior=None):
    # both modes of _forward_dim1 against _forward, called directly, from the
    # diffuse start or from the proper prior (a1, P1); _forward updates its
    # start in place, so each pass gets a fresh one
    def start():
        if prior is None:
            return kalman._diffuse_start(1)
        return [prior[0]], [prior[1]], [0.0], False

    for keep_paths in (False, True):
        ll, final, buffers, n_diffuse = kalman._forward_dim1(cm, h, *start(), keep_paths)
        ref = kalman._forward(cm, h, *start(), keep_paths)
        assert _same_bits(ll, ref[0])
        assert _same_bits(final, ref[1])
        assert n_diffuse == ref[3]
        if not keep_paths:
            assert buffers is ref[2] is None
            continue
        assert len(buffers) == len(ref[2]) == 8
        for x, y in zip(buffers, ref[2]):
            assert x.typecode == y.typecode == "d" and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("prior", [None, (0.3, 0.5)], ids=["diffuse", "proper"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_dim1_equals_forward_bitwise(seed, prior):
    data = _dim1_panel(seed)
    rng = np.random.default_rng(200 + seed)
    for spec in DIM1_SPECS.values():
        layout = build_layout(spec, data)
        cm = compile_model(spec, layout, data)
        for _ in range(3):
            h = np.exp(rng.uniform(-12.0, 3.0, layout.n_params)).tolist()
            _assert_forward_dim1_equals_forward(cm, h, prior)


@pytest.mark.parametrize("build", ["collated", "canonical", "merged", "merged_edges", "sliced"])
def test_forward_dim1_equals_forward_on_mixed_panels(tmp_path, build):
    # leading all-missing rows, grid rows, four slots in a row, and a window
    # that starts after the panel's first row
    data = mixed_panels(tmp_path)[build]
    rng = np.random.default_rng(5)
    for spec in (
        ModelSpec(meas_grouping="by-source", trans_grouping="by-climate-state"),
        ModelSpec(arity="univariate-series2", meas_grouping="by-species"),
    ):
        layout = build_layout(spec, data)
        cm = compile_model(spec, layout, data)
        assert cm.s == 1
        for prior in (None, (-0.2, 2.0)):
            h = np.exp(rng.uniform(-12.0, 3.0, layout.n_params)).tolist()
            _assert_forward_dim1_equals_forward(cm, h, prior)
            _assert_smooth_equals_smoothed(spec, layout, data, cm, h, prior)


def test_forward_dim1_raises_as_forward_with_paths():
    # variances near the largest float: once the first observed slot (row 3)
    # has ended the diffuse phase, the next innovation variance overflows to
    # inf, which filter's pass rejects
    spec = DIM1_SPECS["pooled"]
    data = _dim1_panel(2)
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    h = [1e308, 1e308]
    with pytest.raises(ConditioningError) as fast:
        kalman._forward_dim1(cm, h, *kalman._diffuse_start(1), True)
    with pytest.raises(ConditioningError) as ref:
        kalman._forward(cm, h, *kalman._diffuse_start(1), True)
    assert str(fast.value) == str(ref.value)
    assert fast.value.row_index == ref.value.row_index == 3
    assert "innovation variance inf" in str(fast.value)
    with pytest.raises(ConditioningError) as run:
        kfilter(spec, layout, h, data, compiled=cm)
    assert str(run.value) == str(ref.value)


def test_dim1_passes_never_reach_the_general_recursion(monkeypatch, tmp_path):
    # at s = 1 loglik, filter, smooth, score, impute and the CLI's fit and
    # smooth all run the float recursions, _forward_dim1 and
    # _smoothed_dim1; at s = 2 the passes are _forward and _smoothed
    from paleokalman.cli import EXIT_OK, main

    def refuse(name):
        def general(*args):
            raise AssertionError(f"{name} called")

        return general

    forward = kalman._forward
    for name in ("_forward", "_smoothed", "_backward", "_tail_precision"):
        monkeypatch.setattr(kalman, name, refuse(name))
    spec = ModelSpec()
    data = _dim1_panel(0)
    layout = build_layout(spec, data)
    params = [0.04, 0.9]
    cm = compile_model(spec, layout, data)
    assert math.isfinite(kloglik(cm, params))
    assert np.isfinite(kalman.score(cm, params)).all()
    paths = smooth(kfilter(spec, layout, params, data))
    assert np.isfinite(paths.smoothed_means).all()
    table = pk.impute(params, spec, data, [-60.0, -30.0, -1.0])
    assert np.isfinite(table.means).all()

    rng = np.random.default_rng(0)
    ages = np.sort(rng.uniform(0.1, 3.0, 40))[::-1]
    level = np.cumsum(rng.normal(0.0, 0.3, 40))
    lines = ["age_tuned,d18O,d13C,source,species"]
    for t, x in zip(ages, level):
        lines.append(f"{t:.6f},{x + rng.normal(0.0, 0.2):.6f},,Site A,Cibicidoides")
    raw = tmp_path / "data.csv"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fit_json = tmp_path / "fit.json"
    assert main(["fit", "--data", str(raw), "--out", str(fit_json)]) == EXIT_OK
    out = tmp_path / "states.csv"
    argv = ["smooth", "--data", str(raw), "--fit", str(fit_json), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert out.stat().st_size > 0

    biv = ModelSpec(arity="bivariate", corr_grouping="pooled")
    biv_layout = build_layout(biv, data)
    cm = compile_model(biv, biv_layout, data)
    assert cm.s == 2
    with pytest.raises(AssertionError, match="_forward called"):
        kloglik(cm, [0.04, 0.04, 0.9, 0.9, 0.3])
    with pytest.raises(AssertionError, match="_forward called"):
        kfilter(biv, biv_layout, [0.04, 0.04, 0.9, 0.9, 0.3], data, compiled=cm)
    monkeypatch.setattr(kalman, "_forward", forward)
    run = kfilter(biv, biv_layout, [0.04, 0.04, 0.9, 0.9, 0.3], data, compiled=cm)
    with pytest.raises(AssertionError, match="_smoothed called"):
        smooth(run)


def test_compiled_model_is_frozen_and_shared_by_passes():
    spec = ModelSpec(arity="bivariate", order_m=2, corr_grouping="pooled")
    A = [0.1, 0.2, 1.0, 0.7, 0.4]
    B = [0.3, 0.05, 0.2, 2.0, -0.6]
    obs = np.ones((40, 2), dtype=bool)
    obs[:2] = False  # leading all-missing rows, as impute's older grid rows
    obs[5:9, 1] = False
    data = small_simulated(spec, A, n_rows=40, slots=2, seed=11, observed=obs)
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cm.y = ()
    for f in dataclasses.fields(cm):
        x = getattr(cm, f.name)
        assert not isinstance(x, (list, dict)), f.name
        if isinstance(x, np.ndarray):
            assert not x.flags.writeable, f.name
    ll_a = kloglik(cm, A)
    assert kloglik(cm, B) != ll_a
    assert kloglik(cm, A) == ll_a
    smooth(kfilter(spec, layout, B, data, compiled=cm))

    run = kfilter(spec, layout, A, data, compiled=cm)
    fresh = kfilter(spec, layout, A, data)
    assert fresh.compiled is not cm
    assert run.loglik == fresh.loglik == ll_a
    for f in dataclasses.fields(run.paths):
        x, y = getattr(run.paths, f.name), getattr(fresh.paths, f.name)
        if x is None:
            assert y is None
        else:
            np.testing.assert_array_equal(x, y, err_msg=f.name)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_residuals_missing_and_diffuse_are_nan():
    spec = ModelSpec()
    data = rows_from_values([-2.0, -1.5, -1.0], [[1.0], None, [2.5, 2.0]])
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, [0.3, 0.8], data)
    resid = run.paths.standardized_residuals()
    assert resid.shape == (3, 4)
    assert np.isnan(resid[0]).all()  # diffuse row
    assert np.isnan(resid[1]).all()  # missing row
    assert np.isfinite(resid[2, :2]).all()
    assert np.isnan(resid[2, 2:]).all()


def test_residuals_are_standard_normal_in_distribution():
    spec = ModelSpec()
    params = [0.4, 1.1]
    n = 3000
    stamps = list(np.linspace(-8.0, -0.1, n))
    data = pk.simulate(spec, params, stamps, slots_per_row=1, seed=21)
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, params, data)
    resid = run.paths.standardized_residuals()
    flat = resid[np.isfinite(resid)]
    assert flat.size >= n - 2
    assert abs(flat.mean()) < 0.06
    assert np.var(flat) == pytest.approx(1.0, abs=0.06)
    # one-step innovations are serially uncorrelated
    assert abs(np.corrcoef(flat[:-1], flat[1:])[0, 1]) < 0.06


# ---------------------------------------------------------------------------
# interfaces
# ---------------------------------------------------------------------------


def test_filter_run_carries_loglik_and_paths():
    spec, params, data = _instance_a()
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, params, data)
    assert run.loglik == pytest.approx(-11.884805084795222, rel=1e-12)
    assert run.paths.predicted_means.shape == (5, 1)


def test_state_component_names():
    assert state_component_names(ModelSpec()) == ["d18O.level"]
    assert state_component_names(ModelSpec(order_m=3)) == [
        "d18O.level",
        "d18O.d2",
        "d18O.d1",
    ]
    biv = ModelSpec(arity="bivariate", order_m=2, corr_grouping="pooled")
    assert state_component_names(biv) == [
        "d18O.level",
        "d18O.d1",
        "d13C.level",
        "d13C.d1",
    ]


def test_write_state_paths_csv(tmp_path):
    spec, params, data = _instance_a()
    layout = build_layout(spec, data)
    run = kfilter(spec, layout, params, data)
    paths = smooth(run)
    out = tmp_path / "paths.csv"
    write_state_paths_csv(paths, spec, out, header_lines=["# test header"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# test header"
    header = lines[1].split(",")
    assert header[0] == "stamp"
    assert "mean.d18O.level" in header
    assert "var.d18O.level" in header
    assert len(lines) == 2 + data.n_rows
    first = lines[2].split(",")
    assert float(first[0]) == -3.0
    mean_idx = header.index("mean.d18O.level")
    assert float(first[mean_idx]) == pytest.approx(-0.043734114673350616, rel=1e-12)


# ---------------------------------------------------------------------------
# compile_model's group indices against a slot-by-slot reference
# ---------------------------------------------------------------------------


def _reference_indices(spec, layout, data):
    # the slot values, hidx, tvar_idx and corr_idx resolved row by row and
    # slot by slot, on the dense (n, 8k) slot grid (NaN and -1 where missing)
    n, k = data.n_rows, spec.n_series
    values = np.full((n, MAX_SLOTS * k), np.nan)
    hidx = np.full((n, MAX_SLOTS * k), -1, dtype=np.int64)
    tvar_idx = np.full((n, k), -1, dtype=np.int64)
    corr_idx = np.full(n, -1, dtype=np.int64)
    for nu, row in enumerate(data.rows):
        regime = row.climate_state
        tkey = regime if spec.trans_grouping == "by-climate-state" else 0
        for j, sr in enumerate(spec.series):
            tvar_idx[nu, j] = layout.trans_index.get((sr, tkey), -1)
            for i, slot in enumerate(row.slots(sr)):
                if slot.missing:
                    continue
                key = {"pooled": 0, "by-source": slot.source_id, "by-species": slot.species_id}[
                    spec.meas_grouping
                ]
                values[nu, j * MAX_SLOTS + i] = slot.value
                hidx[nu, j * MAX_SLOTS + i] = layout.meas_index[(sr, key)]
        if k == 2:
            ckey = regime if spec.corr_grouping == "by-climate-state" else 0
            corr_idx[nu] = layout.corr_index.get(ckey, -1)
    return values, hidx, tvar_idx, corr_idx


_GROUPED_SPECS = [
    ModelSpec(),
    ModelSpec(meas_grouping="by-source"),
    ModelSpec(meas_grouping="by-species", trans_grouping="by-climate-state"),
    ModelSpec(arity="bivariate", order_m=2, corr_grouping="pooled"),
    ModelSpec(
        arity="bivariate",
        meas_grouping="by-source",
        trans_grouping="by-climate-state",
        corr_grouping="by-climate-state",
    ),
    ModelSpec(arity="univariate-series2", order_m=3, meas_grouping="by-species"),
]


@pytest.mark.parametrize("build", ["collated", "canonical", "merged", "merged_edges", "sliced"])
def test_compiled_indices_match_slot_walk(tmp_path, build):
    data = mixed_panels(tmp_path)[build]
    for spec in _GROUPED_SPECS:
        layout = build_layout(spec, data)
        cm = compile_model(spec, layout, data)
        values, hidx, tvar_idx, corr_idx = _reference_indices(spec, layout, data)
        n, k = data.n_rows, spec.n_series
        # the observed slots, row-major, are where the reference has a value
        rows, cols = np.nonzero(hidx >= 0)
        assert np.array_equal(cm.obs_row, rows) and np.array_equal(cm.obs_col, cols), spec
        assert cm.n_obs_slots == rows.size
        assert cm.count == tuple(np.bincount(rows, minlength=n).tolist()), spec
        assert cm.level == tuple((cols // MAX_SLOTS * spec.order_m).tolist()), spec
        # scattered back to the grid, the slot fields equal the reference
        got_values = np.full(values.shape, np.nan)
        got_values[cm.obs_row, cm.obs_col] = cm.y
        got_hidx = np.full(hidx.shape, -1, dtype=np.int64)
        got_hidx[cm.obs_row, cm.obs_col] = cm.hidx
        assert np.array_equal(got_values, values, equal_nan=True), spec
        assert np.array_equal(got_hidx, hidx), spec
        assert np.array_equal(np.reshape(cm.tvar, (n, k)), tvar_idx), spec
        assert cm.corr == tuple(corr_idx.tolist()), spec
        observed = (hidx >= 0).reshape(n, k, MAX_SLOTS).any(axis=2)
        apply_, window = booking_schedule([r.stamp for r in data.rows], observed)
        assert cm.apply_ == tuple(apply_.ravel().tolist()), spec
        assert cm.window == tuple(window.ravel().tolist()), spec
        assert cm.moved == tuple(apply_.any(axis=1).tolist()), spec
        for name in ("level", "hidx", "count", "corr", "tvar"):
            assert all(type(x) is int for x in getattr(cm, name)), (spec, name)


def test_compile_rejects_layout_missing_a_source():
    data = pk.collate_rows(MIXED_RECORDS)
    without_c = pk.collate_rows([r for r in MIXED_RECORDS if r[3] != "c"])
    spec = ModelSpec(meas_grouping="by-source")
    layout = build_layout(spec, without_c)
    assert layout.meas_var_count == 2  # sources a and b
    with pytest.raises(KeyError):
        compile_model(spec, layout, data)


# ---------------------------------------------------------------------------
# the exact score
# ---------------------------------------------------------------------------


def _loglik_differences(cm, params) -> np.ndarray:
    # d loglik / d params by the five-point central stencil, step 1e-3 |p_i|:
    # its truncation error is O(h^4), and a smaller step lets the loglik's
    # rounding dominate
    params = np.asarray(params, dtype=float)
    out = np.empty(params.size)
    for i, x in enumerate(params):
        h = 1e-3 * abs(x)
        at = []
        for c in (-2, -1, 1, 2):
            moved = params.copy()
            moved[i] = x + c * h
            at.append(kloglik(cm, moved))
        out[i] = (at[0] - 8.0 * at[1] + 8.0 * at[2] - at[3]) / (12.0 * h)
    return out


def _assert_score_matches(cm, params):
    got = kalman.score(cm, params)
    want = _loglik_differences(cm, params)
    # 1e-6 relative, a coordinate measured against the largest one when its
    # own slope is near zero
    scale = np.maximum(np.abs(want), 1e-3 * np.abs(want).max())
    assert np.all(np.abs(got - want) <= 1e-6 * scale), (got, want)


@pytest.mark.parametrize("build", ["collated", "canonical", "merged", "merged_edges", "sliced"])
def test_score_matches_loglik_differences_on_mixed_panels(tmp_path, build):
    # leading empty rows, diffuse rows, 1-4 slots a row, and by-climate rho
    data = mixed_panels(tmp_path)[build]
    for spec in _GROUPED_SPECS:
        layout = build_layout(spec, data)
        params = [0.1 + 0.15 * i for i in range(layout.n_params)]
        params = [-0.5 if p.role == "rho" else x for p, x in zip(layout.params, params)]
        _assert_score_matches(compile_model(spec, layout, data), params)


@pytest.mark.parametrize("m", [1, 2])
def test_score_matches_loglik_differences_bivariate_with_gaps(m):
    spec = ModelSpec(
        arity="bivariate", order_m=m, meas_grouping="by-source", corr_grouping="pooled"
    )
    rng = np.random.default_rng(40 + m)
    n = 320
    observed = rng.random((n, 2)) < 0.7
    observed[:5, 1] = False  # d13C starts late
    stamps = -np.cumsum(rng.exponential(0.01, n))[::-1] - 0.001
    params = [0.2, 0.3, 0.25, 0.4, 1.0, 0.8, 0.5]
    data = pk.simulate(
        spec, params, stamps, slots_per_row=2, seed=m, n_sources=2, observed=observed
    )
    layout = build_layout(spec, data)
    assert layout.n_params == 7 and layout.params[-1].role == "rho"
    _assert_score_matches(compile_model(spec, layout, data), params)


def test_score_matches_loglik_differences_at_order_6():
    spec = ModelSpec(order_m=6)
    data = small_simulated(ModelSpec(), [0.05, 2.0], n_rows=40, slots=1, seed=8)
    layout = build_layout(spec, data)
    _assert_score_matches(compile_model(spec, layout, data), [0.05, 0.02])


def test_score_raises_loglik_conditioning_error():
    spec, params, data = _instance_c()
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    bad = [-0.5, *params[1:]]  # a negative measurement variance
    with pytest.raises(ConditioningError) as from_loglik:
        kloglik(cm, bad)
    with pytest.raises(ConditioningError) as from_score:
        kalman.score(cm, bad)
    assert str(from_score.value) == str(from_loglik.value)
    assert from_score.value.row_index == from_loglik.value.row_index


def test_score_calls_neither_filter_nor_smooth(monkeypatch):
    # the score runs the private recursions, so that timing the public
    # filter and smooth measures whole-panel passes only
    spec, params, data = _instance_b()
    cm = compile_model(spec, build_layout(spec, data), data)
    want = kalman.score(cm, params)

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(kalman, "filter", refuse)
    monkeypatch.setattr(kalman, "smooth", refuse)
    assert np.array_equal(kalman.score(cm, params), want)


@pytest.mark.parametrize("build", ["collated", "canonical", "merged", "merged_edges", "sliced"])
def test_dim1_score_equals_general_path_on_mixed_panels(tmp_path, build):
    # leading all-missing rows, grid rows that move nothing and one to four
    # slots in a row
    data = mixed_panels(tmp_path)[build]
    rng = np.random.default_rng(6)
    for spec in (
        ModelSpec(meas_grouping="by-source", trans_grouping="by-climate-state"),
        ModelSpec(arity="univariate-series2", meas_grouping="by-species"),
    ):
        layout = build_layout(spec, data)
        cm = compile_model(spec, layout, data)
        assert cm.s == 1
        for _ in range(10):
            params = np.exp(rng.uniform(-12.0, 3.0, layout.n_params))
            assert _same_bits(kalman.score(cm, params), kalman._score(cm, params))
