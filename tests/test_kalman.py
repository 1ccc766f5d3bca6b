"""Filter, smoother, residuals, and the filter's path-free loglik mode.

Frozen reference numbers were produced by the joint-Gaussian oracles in
paleokalman.oracle (diffuse_exact_gaussian / exact_gaussian); the m=2
instance was additionally cross-checked against an independent state-space
implementation. The oracles themselves are validated in test_oracle.py.
"""

import dataclasses
import functools
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paleokalman as pk
from paleokalman import ModelSpec, build_layout
from paleokalman.core import MAX_SLOTS, MISSING, _collate
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


@pytest.mark.parametrize(
    "m, a1, P1, name, shape",
    [
        (2, np.zeros(2), np.eye(2).ravel(), "P1", (2, 2)),
        (2, np.zeros((2, 1)), np.eye(2), "a1", (2,)),
        (2, np.zeros(2), np.eye(3), "P1", (2, 2)),
        (2, np.zeros(2), np.zeros(9), "P1", (2, 2)),
        (1, 0.2, [[2.0]], "a1", (1,)),
        (1, [0.2], 2.0, "P1", (1, 1)),
    ],
    ids=["flat-P1", "column-a1", "P1-3x3", "P1-of-9", "scalar-a1", "scalar-P1"],
)
def test_filter_rejects_a_prior_of_the_wrong_shape(m, a1, P1, name, shape):
    # a proper prior is a1 of shape (s,) and P1 of shape (s, s); any other
    # shape raises ValueError naming the expected and the given shapes
    spec = ModelSpec(order_m=m)
    params = [0.15, 1.2]
    data = small_simulated(spec, params, n_rows=6, slots=2, seed=m)
    layout = build_layout(spec, data)
    given = np.shape(a1 if name == "a1" else P1)
    message = f"init {name} must have shape {shape}, got shape {given}"
    with pytest.raises(ValueError, match=re.escape(message)):
        kfilter(spec, layout, params, data, init=(a1, P1))


_MIXED_BUILDS = ["collated", "merged", "merged_edges"]
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
def test_diffuse_matches_gls_oracle(spec, params, build):
    if build is None:
        seed_params = params if params is not None else [0.1, 1.0]
        data = small_simulated(spec, seed_params, n_rows=7, slots=2, seed=17, n_sources=2)
    else:
        data = mixed_panels()[build]
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
    aug = recollate(data, empty_stamps=empty)
    run2 = kfilter(spec, layout, params, aug)
    paths2 = smooth(run2)
    keep = np.isin(aug.view.stamps, data.view.stamps)
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
    _assert_merged_loglik(cm, kll, run.loglik)


def _assert_merged_loglik(cm, ll, ll_per_slot):
    # a merged pass's loglik against the per-slot pass's (filter's): equal
    # bit for bit where no row repeats a series, else close
    if cm.merge is None:
        assert ll == ll_per_slot
    else:
        assert ll == pytest.approx(ll_per_slot, rel=1e-11, abs=0.0)


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
    _assert_merged_loglik(run.compiled, kll, run.loglik)


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


_TINY_SPECS = {
    "dim1": (ModelSpec(), [0.1, 1.0]),
    "order-2": (ModelSpec(order_m=2), [0.1, 1.0]),
    "bivariate": (ModelSpec(arity="bivariate", corr_grouping="pooled"), [0.1, 0.2, 1.0, 0.7, 0.4]),
}


def _raised(call) -> str:
    with pytest.raises(ConditioningError) as err:
        call()
    return str(err.value)


def _conditioning_errors(spec, params, data) -> list:
    # the ConditioningError texts of filter, loglik and the list recursion
    # (_forward, also at state dimension 1) at params
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    h = np.array(params, dtype=float)
    assert math.isnan(_kernels.loglik_from_compiled(cm, h))
    return [
        _raised(lambda: kfilter(spec, layout, h, data, compiled=cm)),
        _raised(lambda: kloglik(cm, h)),
        _raised(lambda: kalman._forward(cm, h)),
    ]


@pytest.mark.parametrize("name", list(_TINY_SPECS))
def test_subnormal_innovation_variance_raises(name):
    # every parameter the smallest subnormal on a 60-row record: the first
    # innovation variance after the diffuse phase is subnormal, where 1 / F
    # would overflow. Each pass raises the same error, naming the row and
    # slot column, before any warning (pyproject makes one fail the test)
    spec, truth = _TINY_SPECS[name]
    data = small_simulated(spec, truth, n_rows=60, slots=1, seed=1)
    errors = _conditioning_errors(spec, [5e-324] * len(truth), data)
    assert len(set(errors)) == 1
    m = re.fullmatch(r"row (\d+): innovation variance (\S+) at slot column (\d+)", errors[0])
    assert m and 0.0 < float(m[2]) < sys.float_info.min


@pytest.mark.parametrize("name", ["dim1", "order-2"])
def test_loglik_sum_overflow_raises(name):
    # variances just above the smallest normal float on a 600-row record:
    # every F is normal, but the v^2 / F terms sum past the largest float,
    # which raises, naming where the sum stops being finite, with no warning
    spec, truth = _TINY_SPECS[name]
    data = small_simulated(spec, truth, n_rows=600, slots=1, seed=1)
    errors = _conditioning_errors(spec, [3e-308] * len(truth), data)
    assert len(set(errors)) == 1
    assert re.fullmatch(
        r"row \d+: loglik not finite from slot column 0 on \(innovation \S+, variance \S+\)",
        errors[0],
    )


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
    assert data.view.row.min() >= 3  # rows 0-2 hold no slot
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


def _numpy_score(cm, params):
    # the score's numpy path, the reference at s = 1, over the same passes:
    # the sum of its two parts
    quad, rest = _numpy_score_parts(cm, params)
    return quad + rest


def _numpy_score_parts(cm, params):
    h = np.asarray(params, dtype=float)
    return kalman._score(cm, h, kalman._passes(cm, h))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(DIM1_SPECS))
def test_dim1_loglik_equals_filter_bitwise(name, seed):
    # the merged pass's loglik equals the kernel's bit for bit, and filter's
    # and _forward's per-slot ones within 1e-11 (every panel repeats a
    # series in some row); and the score's float path equals its numpy
    # path, called directly
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
        _assert_merged_loglik(cm, ll, kfilter(spec, layout, params, data, compiled=cm).loglik)
        assert ll == _kernels.loglik_from_compiled(cm, params)
        _assert_merged_loglik(cm, ll, kalman._forward(cm, params)[0])
        assert _same_bits(kalman.score(cm, params), _numpy_score(cm, params))


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
        kalman._forward(cm, params, True)
    # the merged pass names the row, not the per-slot pass's slot and value
    assert fast.value.row_index == ref.value.row_index > 3
    assert str(fast.value).startswith(f"row {ref.value.row_index}: innovation variance ")
    # the score's float path raises as its numpy path
    with pytest.raises(ConditioningError) as fast:
        kalman.score(cm, params)
    with pytest.raises(ConditioningError) as ref:
        _numpy_score(cm, params)
    assert str(fast.value) == str(ref.value)
    assert fast.value.row_index == ref.value.row_index


def _assert_smooth_equals_smoothed(spec, layout, data, cm, h, prior=None):
    # smooth at s = 1 against the reference backward pass, _smoothed_lists,
    # over _forward's buffers, from the diffuse start or from the proper
    # prior; and the A and (succ, Q, B, C) of the dim-1 sweep, which the
    # score reads, against the reference's
    init = None if prior is None else ([prior[0]], [[prior[1]]])
    run = kfilter(spec, layout, h, data, init=init, compiled=cm)
    paths = smooth(run)
    buffers = kalman._forward(cm, np.array(h), True, _dim1_prior(prior))[2]
    X, XV, A, steps = kalman._smoothed_lists(cm, buffers)
    means, covs = kalman._filled(cm, X, XV)
    assert _same_bits(paths.smoothed_means, means)
    assert _same_bits(paths.smoothed_covs, covs)
    _, _, dim1_A, dim1_steps = kalman._smoothed_dim1(cm, run.buffers)
    assert _same_bits(dim1_A, A)
    assert len(dim1_steps) == len(steps) == 4
    for x, y in zip(dim1_steps, steps):
        assert _same_bits(x, y)


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


@mpmath.mp.workdps(50)
def _loglik_reference_dim1(cm, params):
    # the exact-diffuse loglik at state dimension 1 as a 50-digit mpf, one
    # slot at a time over cm's slots: the first slot is the diffuse one (it
    # sets the state to its value and variance and adds -log(2 pi) / 2),
    # each later one books its row's transition variance before its first
    # slot
    mp = mpmath.mp
    h = [mp.mpf(x) for x in np.asarray(params, dtype=float).tolist()]
    half_log_2pi = mp.log(2 * mp.pi) / 2
    terms, a, P = [], None, None
    for y, i, t, w in zip(cm.y, cm.hidx, cm.book_tvar, cm.book_window):
        if a is None:
            a, P = mp.mpf(y), h[i]
            terms.append(-half_log_2pi)
            continue
        if t >= 0:
            P += h[t] * mp.mpf(w)
        v = mp.mpf(y) - a
        F = P + h[i]
        K = P / F
        a += K * v
        P -= K * P
        terms.append(-half_log_2pi - (mp.log(F) + v * v / F) / 2)
    return mp.fsum(terms)


def test_merged_loglik_matches_a_50_digit_reference():
    # the merged pass (each row's values folded into one before the loop)
    # against a 50-digit sequential filter over the same slots, on the
    # 1-4-value panels with variances over ~7 decades: within 1e-12
    # relative at every draw (measured at most 1.9e-13), and at each (spec,
    # seed) never farther than the per-slot pass at its worst draw but for
    # the rounding of the sum, 16 ulps (the per-slot pass: at most 8.0e-12;
    # at single draws either pass can be the closer one by a few ulps).
    # Summed over every draw the merged pass is at least ten times closer
    # (measured 2.9e-13 against 2.3e-11)
    rounding = 16 * sys.float_info.epsilon
    total_merged = total_per_slot = 0.0
    for seed in (0, 1, 2):
        data = _dim1_panel(seed)
        for spec in DIM1_SPECS.values():
            layout = build_layout(spec, data)
            cm = compile_model(spec, layout, data)
            assert cm.merge is not None
            rng = np.random.default_rng(100 + seed)
            merged, per_slot = [], []
            for _ in range(10):
                params = np.exp(rng.uniform(-12.0, 3.0, layout.n_params))
                ref = _loglik_reference_dim1(cm, params)
                for errors, ll in (
                    (merged, kloglik(cm, params)),
                    (per_slot, kfilter(spec, layout, params, data, compiled=cm).loglik),
                ):
                    errors.append(float(abs((ll - ref) / ref)))
            assert max(merged) <= 1e-12
            assert max(merged) <= max(max(per_slot), rounding)
            total_merged += sum(merged)
            total_per_slot += sum(per_slot)
    assert 10.0 * total_merged <= total_per_slot


def _source_fit_panel(seed):
    # source-fit's shape: 480 rows of two d18O values each over four
    # sources, at the paper panel's mean spacing; and its by-source spec
    rng = np.random.default_rng(seed)
    stamps = -np.cumsum(rng.exponential(0.00283, 480))[::-1] - 0.001
    spec = ModelSpec(meas_grouping="by-source")
    eps = np.geomspace(0.01, 0.06, 4).tolist()
    data = pk.simulate(spec, [*eps, 1.8364], stamps, slots_per_row=2, seed=seed, n_sources=4)
    return spec, data, [*eps, 1.8364]


def _merged_panels():
    # (spec, data, params) at state dimension 1 where some row repeats a
    # series: the mixed panels (row -58.0 holds four d18O values), pooled
    # and by source, and source-fit-shaped panels, at their own parameters,
    # and all at variances drawn from 0.01 to 2, the paper's range
    rng = np.random.default_rng(5)
    for data in mixed_panels().values():
        for spec in (ModelSpec(), ModelSpec(meas_grouping="by-source")):
            n_params = build_layout(spec, data).n_params
            for _ in range(3):
                yield spec, data, np.exp(rng.uniform(math.log(0.01), math.log(2.0), n_params))
    for seed in (0, 1, 2):
        spec, data, params = _source_fit_panel(seed)
        yield spec, data, np.array(params)
        for _ in range(3):
            yield spec, data, np.exp(rng.uniform(math.log(0.01), math.log(2.0), len(params)))


def test_merged_score_and_smoothed_moments_match_the_per_slot_passes():
    # the merged pass's score (kalman.score) and smoothed moments (impute
    # at the data's stamps) against filter's per-slot pass and smooth, to
    # 1e-10 relative: each score coordinate to the size of its two parts,
    # each smoothed mean and sd to its own size (measured at most 3.1e-14,
    # 3.1e-14 and 1.8e-15). Over ~7 decades of
    # variances the per-slot pass's own rounding exceeds that (a smoothed
    # variance 1.5e-12 off the exact one where the merged pass's is 9e-17,
    # a score coordinate 4.3e-9 apart), which the 50-digit test above covers
    for spec, data, params in _merged_panels():
        layout = build_layout(spec, data)
        cm = compile_model(spec, layout, data)
        assert cm.s == 1 and cm.merge is not None
        run = kfilter(spec, layout, params, data, compiled=cm)
        assert run.loglik == pytest.approx(kloglik(cm, params), rel=1e-11, abs=0.0)
        parts = kalman._score_from_buffers(cm, params, run.buffers)
        gap = np.abs(kalman.score(cm, params) - parts.sum(axis=0))
        assert np.all(gap <= 1e-10 * np.abs(parts).sum(axis=0))
        paths = smooth(run)
        table = pk.impute(params, spec, data, data.view.stamps)
        np.testing.assert_allclose(
            table.means[:, 0], paths.smoothed_means[:, 0], rtol=1e-10, atol=0.0
        )
        np.testing.assert_allclose(
            table.sds[:, 0], np.sqrt(paths.smoothed_covs[:, 0, 0]), rtol=1e-10, atol=0.0
        )


def test_nothing_merged_where_no_row_repeats_a_series():
    # a paper-rwn-shaped panel (two series, at most one value of each a
    # row) under the d18O model: compile_model builds no merge data, and
    # loglik, the kernel's value and (S, N*), and filter's loglik are equal
    # bit for bit to the list recursion's. Above state dimension 1 nothing
    # is merged even where a row repeats a series
    rng = np.random.default_rng(3)
    n = 300
    stamps = -np.cumsum(rng.exponential(0.00283, n))[::-1] - 0.001
    biv = ModelSpec(arity="bivariate", corr_grouping="pooled")
    observed = rng.random((n, 2)) < 0.8
    truth = [0.0205, 0.034, 1.8364, 1.2135, 0.5]
    data = pk.simulate(biv, truth, stamps, seed=3, observed=observed)
    spec = ModelSpec()
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    assert cm.s == 1 and cm.count.max() == 1 and cm.merge is None
    for params in ([0.0205, 1.8364], *np.exp(rng.uniform(-12.0, 3.0, (3, 2)))):
        params = np.asarray(params)
        ref_ll, ref_stats, _, _ = kalman._forward(cm, params)
        out = np.zeros(2)
        assert _same_bits(kloglik(cm, params), ref_ll)
        assert _same_bits(_kernels.loglik_from_compiled(cm, params, out), ref_ll)
        assert _same_bits(out, np.array(ref_stats, dtype=float))
        assert _same_bits(kfilter(spec, layout, params, data, compiled=cm).loglik, ref_ll)
    for data in mixed_panels().values():
        for spec in (biv, ModelSpec(order_m=2)):
            assert compile_model(spec, build_layout(spec, data), data).merge is None


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _dim1_prior(prior):
    # the proper prior (a1, P1) at s = 1 as filter hands it to the forward
    # pass, arrays of shapes (1,) and (1, 1); None, the diffuse start
    if prior is None:
        return None
    return np.array([prior[0]], dtype=float), np.array([[prior[1]]], dtype=float)


def _assert_forward_dim1_equals_forward(cm, h, prior=None):
    # both modes of _forward_dim1 against _forward, called directly, from the
    # diffuse start or from the proper prior (a1, P1): the loglik, (S, N*)
    # and, in paths mode, the buffers (derived from _forward_dim1's record
    # by _rows_dim1), whose filtered moments end at the final state
    h, prior = np.array(h, dtype=float), _dim1_prior(prior)
    for keep_paths in (False, True):
        ll, stats, buffers, n_diffuse = kalman._forward_dim1(cm, h, keep_paths, prior)
        ref = kalman._forward(cm, h, keep_paths, prior)
        assert _same_bits(ll, ref[0])
        assert _same_bits(stats, ref[1])
        assert n_diffuse == ref[3]
        if not keep_paths:
            assert buffers is ref[2] is None
            continue
        # each of the eight buffers as float64 bytes: _forward's are
        # array('d')s, _forward_dim1's per-row ones numpy arrays
        rows = kalman._rows_dim1(cm, buffers)
        assert len(rows) == len(ref[2]) == 8
        for x, y in zip(rows, ref[2]):
            assert _same_bits(np.frombuffer(x), np.frombuffer(y))


def _diffuse_rows_dim1(cm, h, prior=None) -> list:
    # the rows whose P_inf the buffer pred_Pi holds, a leading run
    h = np.array(h, dtype=float)
    pred_Pi = kalman._forward_dim1(cm, h, True, _dim1_prior(prior))[2].pred_Pi
    return (np.arange(cm.n) < pred_Pi.size).tolist()


def test_forward_dim1_equals_forward_without_slots():
    # d18O modelled where only d13C has values: no slot, so the loglik is
    # 0.0, the state stays at its start and every row is diffuse
    data = rows_from_values([-3.0, -2.0, -1.5, -1.0], [None] * 4, [[0.1], [0.2, 0.3], None, [0.4]])
    spec = ModelSpec()
    cm = compile_model(spec, build_layout(spec, data), data)
    assert cm.s == 1 and cm.n_obs_slots == 0 and cm.book_tvar == cm.book_window == ()
    for prior in (None, (0.3, 0.5)):
        _assert_forward_dim1_equals_forward(cm, [], prior)
    assert kloglik(cm, []) == 0.0
    ll, stats, buffers, n_diffuse = kalman._forward_dim1(cm, np.zeros(0), True)
    assert (ll, stats, n_diffuse) == (0.0, (0.0, 0), 0)
    _, _, pred_Pi, filt_a, filt_P, _, _, _ = kalman._rows_dim1(cm, buffers)
    assert filt_a.tolist() == filt_P.tolist() == [0.0] * 4 and pred_Pi.tolist() == [1.0] * 4
    assert _diffuse_rows_dim1(cm, []) == [True] * 4
    assert _diffuse_rows_dim1(cm, [], (0.3, 0.5)) == [False] * 4


def _four_slot_panel():
    # an empty row, then a first observed row with four slots over four
    # sources, a gap row and two later rows, the last one's second slot the
    # only one of a fifth source
    stamps = [-4.0, -3.0, -2.5, -2.0, -1.0]
    values = [None, [0.1, 0.3, -0.2, 0.05], None, [0.4], [0.2, 0.6]]
    data = rows_from_values(stamps, values, sources=[None, [0, 1, 2, 3], None, [1], [2, 4]])
    spec = ModelSpec(meas_grouping="by-source")
    layout = build_layout(spec, data)
    return spec, layout, data, compile_model(spec, layout, data)


def test_forward_dim1_diffuse_slot_shares_its_row():
    # the first observed row's first slot ends the diffuse phase, and its
    # other three slots are regular updates in the same row
    spec, layout, data, cm = _four_slot_panel()
    assert cm.s == 1 and np.array_equal(cm.count, [0, 4, 0, 1, 2])
    t = int(cm.tvar[3, 0])  # pooled: one transition variance
    assert t >= 0 and cm.book_tvar == (-1, -1, -1, -1, t, t, -1)
    rng = np.random.default_rng(11)
    for prior in (None, (0.3, 0.5)):
        for _ in range(5):
            h = np.exp(rng.uniform(-12.0, 3.0, layout.n_params)).tolist()
            _assert_forward_dim1_equals_forward(cm, h, prior)
            _assert_smooth_equals_smoothed(spec, layout, data, cm, h, prior)
    assert kalman._forward_dim1(cm, np.array(h))[3] == 1
    assert _diffuse_rows_dim1(cm, h) == [True, True, False, False, False]
    assert _diffuse_rows_dim1(cm, h, (0.3, 0.5)) == [False] * 5


@pytest.mark.parametrize("at", [(1, 1), (4, 1)], ids=["diffuse-row", "later-row"])
@pytest.mark.parametrize("keep_paths", [False, True], ids=["loglik", "paths"])
def test_forward_dim1_raises_on_a_second_slot_as_forward(at, keep_paths):
    # the source of a row's second slot gets a variance that makes that
    # slot's innovation variance the first negative one: in the row whose
    # first slot ends the diffuse phase, or in a later two-slot row
    spec, layout, data, cm = _four_slot_panel()
    nu, col = at
    source = {(1, 1): 1, (4, 1): 4}[at]
    h = np.full(layout.n_params, 0.5)
    h[layout.meas_index[(0, source)]] = -50.0
    with pytest.raises(ConditioningError) as fast:
        kalman._forward_dim1(cm, h, keep_paths)
    with pytest.raises(ConditioningError) as ref:
        kalman._forward(cm, h, keep_paths)
    assert str(fast.value) == str(ref.value)
    assert type(fast.value.row_index) is int
    assert fast.value.row_index == ref.value.row_index == nu
    assert str(fast.value).startswith(f"row {nu}: innovation variance -")
    assert str(fast.value).endswith(f"at slot column {col}")


@pytest.mark.parametrize("case", ["zero", "nan"])
@pytest.mark.parametrize("prior", [None, (0.3, 0.5)], ids=["diffuse", "proper"])
@pytest.mark.parametrize("keep_paths", [False, True], ids=["loglik", "paths"])
def test_forward_dim1_range_check_after_the_loop_raises_as_forward(case, prior, keep_paths):
    # _forward_dim1 checks F only after its loop. With every variance 0.0
    # the first slot (the diffuse one, or the proper prior's, K = 1 either
    # way) leaves P = 0, so the row's second slot has F = 0.0, where the
    # loop stops at its division by zero. A NaN variance of the last row's
    # second slot gives a NaN F, which the loop runs past. Either way the
    # check raises _forward's ConditioningError at that slot, the kernel
    # scores the point NaN, and no RuntimeWarning is raised
    _, layout, _, cm = _four_slot_panel()
    if case == "zero":
        nu, col, F = 1, 1, 0.0
        h = np.zeros(layout.n_params)
    else:
        nu, col, F = 4, 1, math.nan
        h = np.full(layout.n_params, 0.5)
        h[layout.meas_index[(0, 4)]] = math.nan

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConditioningError) as fast:
            kalman._forward_dim1(cm, h, keep_paths, _dim1_prior(prior))
        with pytest.raises(ConditioningError) as ref:
            kalman._forward(cm, h, keep_paths, _dim1_prior(prior))
        with pytest.raises(ConditioningError) as run:  # the one forward entry
            kalman._forward_pass(cm, h, keep_paths, _dim1_prior(prior))
        nan_value = _kernels.loglik_from_compiled(cm, h)
        outs = [np.zeros(2), np.zeros(2 + 2 * layout.n_params)]
        nan_outs = [_kernels.loglik_from_compiled(cm, h, out) for out in outs]
    assert str(fast.value) == str(ref.value)
    assert fast.value.row_index == ref.value.row_index == run.value.row_index == nu
    # the one forward entry merges the row's two values: it names the row
    assert str(run.value).startswith(f"row {nu}: innovation variance ")
    assert type(fast.value.row_index) is int
    assert str(fast.value).startswith(f"row {nu}: innovation variance {F} ")
    assert str(fast.value).endswith(f"at slot column {col}")
    assert math.isnan(nan_value) and all(math.isnan(x) for x in nan_outs)
    assert all(np.isnan(out).all() for out in outs)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


@pytest.mark.parametrize("build", ["collated", "merged", "merged_edges", "sliced", "head"])
def test_forward_dim1_equals_forward_on_mixed_panels(build):
    # leading all-missing rows, grid rows, four slots in a row, and a window
    # that starts after the panel's first row
    data = mixed_panels()[build]
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
    h = np.array([1e308, 1e308])
    with pytest.raises(ConditioningError) as fast:
        kalman._forward_dim1(cm, h, True)
    with pytest.raises(ConditioningError) as ref:
        kalman._forward(cm, h, True)
    assert str(fast.value) == str(ref.value)
    assert fast.value.row_index == ref.value.row_index == 3
    assert "innovation variance inf" in str(fast.value)
    with pytest.raises(ConditioningError) as run:
        kfilter(spec, layout, h, data, compiled=cm)
    assert str(run.value) == str(ref.value)


def test_dim1_passes_never_reach_the_general_recursion(monkeypatch, tmp_path):
    # at s = 1 loglik, filter, smooth, score, impute and the CLI's fit and
    # smooth all run the float recursions, _forward_dim1 and
    # _smoothed_dim1; at s = 2 the passes are _forward and _smoothed_lists
    from paleokalman.cli import EXIT_OK, main

    def refuse(name):
        def general(*args):
            raise AssertionError(f"{name} called")

        return general

    forward = kalman._forward
    for name in ("_forward", "_smoothed_lists", "_backward", "_tail_precision"):
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
    with pytest.raises(AssertionError, match="_smoothed_lists called"):
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
    # every field, one at a time: a float's repr, empty where it is missing
    var = paths.smoothed_covs.diagonal(axis1=1, axis2=2)
    resid = paths.standardized_residuals()
    assert np.isnan(resid).any()
    want = [
        ",".join("" if np.isnan(x) else repr(float(x)) for x in [t, *mean, *v, *r])
        for t, mean, v, r in zip(paths.stamps, paths.smoothed_means, var, resid)
    ]
    assert lines[2:] == want


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
    v = data.view
    for nu, regime in enumerate(v.climate_states.tolist()):
        tkey = regime if spec.trans_grouping == "by-climate-state" else 0
        for j, sr in enumerate(spec.series):
            tvar_idx[nu, j] = layout.trans_index.get((sr, tkey), -1)
        if k == 2:
            ckey = regime if spec.corr_grouping == "by-climate-state" else 0
            corr_idx[nu] = layout.corr_index.get(ckey, -1)
    slots = zip(
        v.row.tolist(),
        v.series.tolist(),
        (v.at % MAX_SLOTS).tolist(),
        v.value.tolist(),
        v.source.tolist(),
        v.species.tolist(),
    )
    for nu, sr, i, value, source, species in slots:
        if sr not in spec.series:
            continue
        j = spec.series.index(sr)
        key = {"pooled": 0, "by-source": source, "by-species": species}[spec.meas_grouping]
        values[nu, j * MAX_SLOTS + i] = value
        hidx[nu, j * MAX_SLOTS + i] = layout.meas_index[(sr, key)]
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


@pytest.mark.parametrize("build", ["collated", "merged", "merged_edges", "sliced"])
def test_compiled_indices_match_slot_walk(build):
    data = mixed_panels()[build]
    for spec in _GROUPED_SPECS:
        layout = build_layout(spec, data)
        cm = compile_model(spec, layout, data)
        values, hidx, tvar_idx, corr_idx = _reference_indices(spec, layout, data)
        n, k = data.n_rows, spec.n_series
        # the observed slots, row-major, are where the reference has a value
        rows, cols = np.nonzero(hidx >= 0)
        assert np.array_equal(cm.obs_row, rows) and np.array_equal(cm.obs_col, cols), spec
        assert cm.n_obs_slots == rows.size
        assert np.array_equal(cm.count, np.bincount(rows, minlength=n)), spec
        assert np.array_equal(cm.level, cols // MAX_SLOTS * spec.order_m), spec
        # scattered back to the grid, the slot fields equal the reference
        got_values = np.full(values.shape, np.nan)
        got_values[cm.obs_row, cm.obs_col] = cm.y
        got_hidx = np.full(hidx.shape, -1, dtype=np.int64)
        got_hidx[cm.obs_row, cm.obs_col] = cm.hidx
        assert np.array_equal(got_values, values, equal_nan=True), spec
        assert np.array_equal(got_hidx, hidx), spec
        assert cm.tvar.shape == (n, k) and np.array_equal(cm.tvar, tvar_idx), spec
        assert np.array_equal(cm.corr, corr_idx), spec
        observed = (hidx >= 0).reshape(n, k, MAX_SLOTS).any(axis=2)
        apply_, window = booking_schedule(data.view.stamps, observed)
        assert np.array_equal(cm.apply_, apply_), spec
        assert np.array_equal(cm.window, window), spec
        assert np.array_equal(cm.moved, apply_.any(axis=1)), spec
        assert all(type(x) is int for x in cm.hidx), spec
        assert all(type(x) is float for x in cm.y), spec
        # the same per-slot columns as arrays, for numpy
        assert cm.y_array.tolist() == list(cm.y), spec
        assert cm.hidx_array.tolist() == list(cm.hidx), spec
        # those and the per-row and per-(row, series) columns are read-only
        # integer, bool and float arrays
        for name, kind in (("y_array", "f"), ("hidx_array", "i"), ("level", "i"), ("count", "i"),
                           ("corr", "i"), ("tvar", "i"), ("moved", "b"), ("apply_", "b"),
                           ("window", "f")):
            x = getattr(cm, name)
            assert x.dtype.kind == kind and not x.flags.writeable, (spec, name)
        # at every state dimension: the moving rows, of which row 0 is never
        # one, and for each row the count of moving rows above it, the
        # entry of the backward pass's moments it takes
        moving = [nu for nu in range(n) if cm.moved[nu]]
        assert cm.moving.tolist() == moving and not cm.moved[0], spec
        assert cm.fill.tolist() == [sum(u > nu for u in moving) for nu in range(n)], spec
        assert cm.slot_fill.tolist() == [cm.fill[nu] for nu in rows.tolist()], spec
        assert not any(a.flags.writeable for a in (cm.moving, cm.fill, cm.slot_fill)), spec
        if cm.s > 1:
            assert cm.book_tvar is cm.book_window is cm.paths_index is None, spec
            continue
        # at s = 1, per slot: the index booked at a moving row's first slot
        # (-1 at every other slot), and the window of the slot's row
        first = [o == 0 or rows[o - 1] != nu for o, nu in enumerate(rows.tolist())]
        assert cm.book_tvar == tuple(
            int(cm.tvar[nu, 0]) if at_first and cm.apply_[nu, 0] else -1
            for nu, at_first in zip(rows.tolist(), first)
        ), spec
        assert cm.book_window == tuple(cm.window[rows, 0].tolist()), spec
        assert all(type(x) is int for x in cm.book_tvar), spec
        assert all(type(x) is float for x in cm.book_window), spec
        # per row: the slots before it, and what each moving row books
        at, tvar, window = cm.paths_index
        assert at.tolist() == [0, *np.cumsum(cm.count).tolist()], spec
        assert moving == [nu for nu in range(n) if cm.apply_[nu, 0]], spec
        assert tvar.tolist() == [int(cm.tvar[nu, 0]) for nu in moving], spec
        assert window.tolist() == [float(cm.window[nu, 0]) for nu in moving], spec
        assert not any(a.flags.writeable for a in cm.paths_index), spec


def test_compile_rejects_layout_missing_a_source():
    data = pk.collate_rows(MIXED_RECORDS)
    without_c = pk.collate_rows([r for r in MIXED_RECORDS if r[3] != "c"])
    spec = ModelSpec(meas_grouping="by-source")
    layout = build_layout(spec, without_c)
    assert len(layout.meas_index) == 2  # sources a and b
    with pytest.raises(KeyError):
        compile_model(spec, layout, data)


def test_compile_rejects_layout_missing_a_moving_regime():
    # a layout laid out on the youngest rows lacks the older climate states,
    # where the whole panel's rows move the trend: compile names the first
    # (series, regime) it cannot book instead of booking another variance
    data = _dim1_panel(0)
    young = dataclasses.replace(data, rows=data.rows[-10:])
    for spec in (
        ModelSpec(trans_grouping="by-climate-state"),
        ModelSpec(arity="bivariate", trans_grouping="by-climate-state", corr_grouping="pooled"),
    ):
        layout = build_layout(spec, young)
        with pytest.raises(KeyError) as missing:
            compile_model(spec, layout, data)
        series, regime = missing.value.args[0]
        assert series == spec.series[0] and (series, regime) not in layout.trans_index


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


@pytest.mark.parametrize("build", ["collated", "merged", "merged_edges", "sliced"])
def test_score_matches_loglik_differences_on_mixed_panels(build):
    # leading empty rows, diffuse rows, 1-4 slots a row, and by-climate rho
    data = mixed_panels()[build]
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


_PAPER_EPS2 = 0.0205  # the d18O measurement variance of the paper's rwn fit


@functools.lru_cache(maxsize=None)
def _paper_length_panel(arity: str):
    # the paper record's length, 23,722 rows of one slot a series at its
    # mean spacing (My), drawn as random walk plus noise on its d18O scale;
    # the bivariate draw adds a d13C series and a correlation of 0.3
    rng = np.random.default_rng(0)
    stamps = -np.cumsum(rng.exponential(0.00283, 23_722))[::-1] - 0.001
    if arity == "bivariate":
        spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
        return pk.simulate(spec, [_PAPER_EPS2, 0.03, 1.8364, 1.2, 0.3], stamps, seed=1)
    return pk.simulate(ModelSpec(), [_PAPER_EPS2, 1.8364], stamps, seed=1)


def _paper_q_params(data) -> list:
    # order 6 at the paper's q = eta2 * mean dt / eps2 = 3.1e-12
    return [_PAPER_EPS2, 3.1e-12 * _PAPER_EPS2 / float(np.mean(np.diff(data.view.stamps)))]


@pytest.mark.parametrize("m", [2, 6])
def test_score_matches_loglik_differences_at_full_length(m):
    # order 2 at the default start and order 6 at the paper's q: both far
    # from the optimum, where the loglik's rounding would swamp the
    # differences
    data = _paper_length_panel("univariate")
    spec = ModelSpec(order_m=m)
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    if m == 2:
        params = pk.fitting.default_start(layout, cm)
    else:
        params = _paper_q_params(data)
    _assert_score_matches(cm, params)


def test_score_matches_loglik_differences_bivariate_at_length():
    # bivariate order 2 with rho = 0.3 at the default start, on the last
    # 6,000 rows of the paper-length bivariate panel: the rows where both
    # series move run _score's 2 x 2 branch. A slice keeps tier-1 short:
    # the 20 loglik differences cost four times as much on the whole panel
    data = _paper_length_panel("bivariate")
    data = dataclasses.replace(data, rows=data.rows[-6_000:])
    spec = ModelSpec(arity="bivariate", order_m=2, corr_grouping="pooled")
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    assert cm.n == 6_000 and layout.params[-1].role == "rho"
    params = pk.fitting.default_start(layout, cm)
    params[-1] = 0.3
    _assert_score_matches(cm, params)


@pytest.mark.parametrize("case", ["rwn", "m2", "m6", "bivariate-rho-by-climate"])
def test_loglik_scale_identity_at_full_length(case):
    # ll(c h) = ll(h) - N* log(c) / 2 - S (1/c - 1) / 2, with (S, N*) from
    # the kernel's pass at h, on the paper-length panels: rwn, orders 2 and
    # 6 at the paper's q, and bivariate order 1 with rho by climate state
    if case == "bivariate-rho-by-climate":
        data = _paper_length_panel("bivariate")
        spec = ModelSpec(arity="bivariate", corr_grouping="by-climate-state")
    else:
        data = _paper_length_panel("univariate")
        spec = ModelSpec(order_m={"rwn": 1, "m2": 2, "m6": 6}[case])
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    if case == "m6":
        params = np.array(_paper_q_params(data))
    else:
        params = pk.fitting.default_start(layout, cm)
        rho = np.array([p.role == "rho" for p in layout.params])
        params[rho] = np.linspace(-0.6, 0.6, rho.sum())  # one rho a climate state
    stats = np.zeros(2)
    ll = _kernels.loglik_from_compiled(cm, params, stats)
    S, N = stats
    assert N == cm.n_obs_slots - cm.s
    for c in (0.5, 3.0):
        want = ll - 0.5 * N * math.log(c) - 0.5 * S * (1.0 / c - 1.0)
        assert abs(kloglik(cm, _scaled(layout, params, c)) - want) <= 1e-8, c


@pytest.mark.parametrize("m", [1, 2])
def test_grid_rows_are_neutral_at_full_length(m):
    # criterion 2 at the paper record's length: the 10-ky grid, 6,700
    # stamps over 67 My, inserted as all-missing rows leaves the loglik,
    # (S, N*) and the smoothed moments at the data rows bitwise unchanged,
    # for rwn and order 2 at the default start
    data = _paper_length_panel("univariate")
    grid = pk.make_grid(67.0, 0.0, 10_000.0)
    aug = recollate(data, empty_stamps=grid)
    keep = np.flatnonzero(np.isin(aug.view.stamps, data.view.stamps))
    assert len(grid) == 6_700 and aug.n_rows == data.n_rows + 6_700
    assert keep.size == data.n_rows
    spec = ModelSpec(order_m=m)
    layout = build_layout(spec, data)
    params = pk.fitting.default_start(layout, compile_model(spec, layout, data))
    passes = []
    for panel in (data, aug):
        cm = compile_model(spec, layout, panel)
        stats = np.zeros(2)
        ll = _kernels.loglik_from_compiled(cm, params, stats)
        passes.append((ll, stats, smooth(kfilter(spec, layout, params, panel, compiled=cm))))
    (ll, stats, paths), (ll_aug, stats_aug, paths_aug) = passes
    assert math.isfinite(ll) and _same_bits(ll_aug, ll)
    assert _same_bits(stats_aug, stats)
    assert _same_bits(paths_aug.smoothed_means[keep], paths.smoothed_means)
    assert _same_bits(paths_aug.smoothed_covs[keep], paths.smoothed_covs)


def _with_slots_added(data, row: int, offsets) -> pk.PanelDataset:
    # data with more d18O slots in the given row, at its first value plus
    # each offset, from source 0
    v = data.view
    n, k = data.n_rows, len(offsets)
    value = float(v.value[v.row == row][0])
    return _collate(
        np.concatenate([v.stamps, v.stamps[v.row], np.full(k, v.stamps[row])]),
        np.concatenate([np.zeros(n, dtype=np.int64), v.series, np.zeros(k, dtype=np.int64)]),
        np.concatenate([np.full(n, MISSING), v.value, value + np.asarray(offsets)]),
        np.concatenate([np.full(n, -1), v.source, np.zeros(k)]).astype(np.int32),
        np.concatenate([np.full(n, -1), v.species, np.zeros(k)]).astype(np.int32),
        data.sources,
        data.species,
    )


def _data_difference_quotients(cm, params, slots, step=1.0) -> list:
    # the loglik's central first and second difference quotients in the
    # data at each listed slot o, or list of slots moved together: y[o]
    # moved by +-step in a dataclasses.replace of cm's y and y_array
    base = kloglik(cm, params)
    quotients = []
    for o in slots:
        moved = []
        for d in (step, -step):
            y = cm.y_array.copy()
            y[o] += d
            moved.append(kloglik(dataclasses.replace(cm, y=tuple(y.tolist()), y_array=y), params))
        up, down = moved
        quotients.append(((up - down) / (2.0 * step), (up - 2.0 * base + down) / (step * step)))
    return quotients


def test_smoothed_moments_are_the_loglik_derivatives_in_the_data_at_full_length():
    # neither F nor the diffuse terms depend on the data, so the
    # exact-diffuse loglik is a quadratic in y: with x and V the smoothed
    # level moments at slot o's row and h_o its measurement variance,
    # dl/dy_o = -(y_o - x) / h_o and d2l/dy_o^2 = -(h_o - V) / h_o^2
    # (Durbin & Koopman 2012, sec. 4.5.3), and central differences are
    # exact but for rounding at a step of 1. rwn on the paper-length panel,
    # with row 12,000 given three slots, at 11 slots: the diffuse slot (row
    # 0), the rows after it, the middle, the three slots of row 12,000 and
    # rows past 20,000. Each slot's smoothed moments come from one row of
    # the backward pass; the loglik's rounding, a few ulps of its ~3e4
    # nats, bounds the differences (measured at most 2.0e-12 and 2.0e-11)
    data = _with_slots_added(_paper_length_panel("univariate"), 12_000, (0.1, -0.2))
    spec = ModelSpec()
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    assert cm.n == 23_722 and cm.count[12_000] == 3
    params = [_PAPER_EPS2, 1.8364]
    paths = smooth(kfilter(spec, layout, params, data, compiled=cm))
    slots = [0, 1, 2, 5, 100, 5_000, 12_000, 12_001, 12_002, 20_500, cm.n_obs_slots - 1]
    assert cm.obs_row[20_500] > 20_000
    for o, (first, second) in zip(slots, _data_difference_quotients(cm, params, slots)):
        nu, h = int(cm.obs_row[o]), params[cm.hidx[o]]
        x, V = paths.smoothed_means[nu, 0], paths.smoothed_covs[nu, 0, 0]
        assert abs(first + (cm.y[o] - x) / h) <= 1e-11, (o, nu)
        assert abs(second + (h - V) / (h * h)) <= 1e-10, (o, nu)


# per case: the slots checked alone, the pairs of slots of one row, and the
# bounds on the (first, second, mixed) quotients' errors, the loglik's
# rounding over step^2 = 1. Measured at most (1.1e-11, 8.2e-11, 3.4e-11) at
# order 2 (|loglik| 5.5e4), (1.2e-12, 2.9e-12) at order 6 past its diffuse
# rows (341) and (1.9e-10, 1.4e-9, 9.6e-10) bivariate (7.5e4)
_DATA_DERIVATIVE_CASES = {
    "m2": ([0, 12_000, 12_001, 20_501], [(12_000, 12_001)], (2e-10, 3e-10, 2e-10)),
    "m6": ([0, 12_000, 20_500], [], (2e-11, 5e-11, None)),
    "bivariate-rho-by-climate": (
        [0, 1, 24_000, 41_000, 41_001],
        [(41_000, 41_001)],
        (1e-9, 5e-9, 5e-9),
    ),
}
# order 6's diffuse rows: the first six slots, rows 0-5, annihilate P_inf,
# and there the quotients and the moments part by up to 8.6e-8 (mean) and
# 2.4e-7 (variance), against <= 1e-11 from row 100 on. Both sides are off
# there: on the panel's first 300 rows, against the 60-digit reference of
# test_highorder_reference.py, the smoothed moments' terms are off by up to
# 1.2e-8 of their size and the loglik's quotients by up to 4.5e-9 (at row
# 0), where from row 100 on the two agree to 1e-12. So rows 0-5 get their
# own bounds
_M6_DIFFUSE_BOUNDS = (5e-7, 1e-6)


@pytest.mark.parametrize("case", list(_DATA_DERIVATIVE_CASES))
def test_smoothed_moments_are_the_loglik_derivatives_in_the_data_above_dim_1(case):
    # the identities of the rwn test above at state dimensions 2, 6 and 2,
    # with e the state index of slot o's series level: dl/dy_o = -(y_o -
    # x_e) / h_o, d2l/dy_o^2 = -(h_o - V_ee) / h_o^2, and, for slots o and p
    # of one row, d2l/dy_o dy_p = V_ef / (h_o h_p) with V_ef the smoothed
    # covariance of their levels: V_ee for two slots of one series, the
    # cross-covariance for the d18O and d13C slots of a bivariate row. The
    # mixed quotient is half of the second quotient with y_o and y_p moved
    # together, less the two single ones. Order 2 at the default start on
    # the panel with row 12,000 given a second slot, order 6 at the paper's
    # q, and bivariate order 1 with rho by climate state, at slots of the
    # diffuse rows, the middle and row 20,500
    singles, pairs, (tol_first, tol_second, tol_mixed) = _DATA_DERIVATIVE_CASES[case]
    if case == "bivariate-rho-by-climate":
        data = _paper_length_panel("bivariate")
        spec = ModelSpec(arity="bivariate", corr_grouping="by-climate-state")
    elif case == "m2":
        data = _with_slots_added(_paper_length_panel("univariate"), 12_000, (0.1,))
        spec = ModelSpec(order_m=2)
    else:
        data = _paper_length_panel("univariate")
        spec = ModelSpec(order_m=6)
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    if case == "m6":
        params = np.array(_paper_q_params(data))
    else:
        params = pk.fitting.default_start(layout, cm)
        rho = np.array([p.role == "rho" for p in layout.params])
        params[rho] = np.linspace(-0.6, 0.6, rho.sum())  # one rho a climate state
    assert cm.n == 23_722 and cm.obs_row[singles[-1]] == 20_500
    paths = smooth(kfilter(spec, layout, params, data, compiled=cm))
    quotients = _data_difference_quotients(cm, params, [*singles, *map(list, pairs)])
    h = params[cm.hidx_array]
    second_at = {}
    for o, (first, second) in zip(singles, quotients):
        nu, e = int(cm.obs_row[o]), int(cm.level[o])
        x, V = paths.smoothed_means[nu, e], paths.smoothed_covs[nu, e, e]
        bounds = _M6_DIFFUSE_BOUNDS if case == "m6" and nu < 6 else (tol_first, tol_second)
        assert abs(first + (cm.y[o] - x) / h[o]) <= bounds[0], (o, nu)
        assert abs(second + (h[o] - V) / (h[o] * h[o])) <= bounds[1], (o, nu)
        second_at[o] = second
    for (o, p), (_, second) in zip(pairs, quotients[len(singles) :]):
        nu = int(cm.obs_row[o])
        assert cm.obs_row[p] == nu
        V = paths.smoothed_covs[nu, cm.level[o], cm.level[p]]
        mixed = (second - second_at[o] - second_at[p]) / 2.0
        assert abs(mixed - V / (h[o] * h[p])) <= tol_mixed, (o, p, nu)


def test_bivariate_loglik_factorizes_at_full_length():
    # criterion 7 at the paper record's length: at rho = 0 the bivariate
    # loglik is the sum of the two univariate ones, to
    # test_criterion_07_bivariate_factorization's 1e-8 relative
    data = _paper_length_panel("bivariate")
    biv = ModelSpec(arity="bivariate", corr_grouping="pooled")
    layout = build_layout(biv, data)
    assert [p.role for p in layout.params] == ["sigma_eps2"] * 2 + ["sigma_eta2"] * 2 + ["rho"]
    eps, eta = (_PAPER_EPS2, 0.03), (1.8364, 1.2)
    ll = kloglik(compile_model(biv, layout, data), [*eps, *eta, 0.0])
    total = 0.0
    for j, arity in enumerate(("univariate-series1", "univariate-series2")):
        spec = ModelSpec(arity=arity)
        total += kloglik(compile_model(spec, build_layout(spec, data), data), [eps[j], eta[j]])
    assert math.isfinite(total)
    assert abs(ll - total) <= 1e-8 * abs(total)


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


@pytest.mark.parametrize("order_m", [1, 6], ids=["s2", "s12"])
def test_score_and_impute_build_no_state_paths(monkeypatch, order_m):
    # above state dimension 1 too, the score and impute read the forward
    # pass's buffers; only filter wraps them in a StatePaths
    spec = ModelSpec(arity="bivariate", order_m=order_m, corr_grouping="pooled")
    params = [0.02, 0.03, 0.05, 0.04, 0.5]
    data = small_simulated(
        ModelSpec(arity="bivariate", corr_grouping="pooled"), params, n_rows=300, slots=1, seed=5
    )
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    assert cm.s == 2 * order_m
    want = kalman.score(cm, params)
    stamps = data.view.stamps
    grid = np.linspace(stamps[0], stamps[-1], 7).tolist()
    table = pk.impute(params, spec, data, grid)

    def refuse(*args, **kwargs):
        raise AssertionError("StatePaths built")

    monkeypatch.setattr(kalman, "StatePaths", refuse)
    assert _same_bits(kalman.score(cm, params), want)
    again = pk.impute(params, spec, data, grid)
    assert _same_bits(again.means, table.means) and _same_bits(again.sds, table.sds)
    with pytest.raises(AssertionError, match="StatePaths built"):
        kfilter(spec, layout, params, data, compiled=cm)


@pytest.mark.parametrize("build", ["collated", "merged", "merged_edges", "sliced", "head"])
def test_dim1_score_equals_general_path_on_mixed_panels(build):
    # leading all-missing rows, grid rows that move nothing and one to four
    # slots in a row
    data = mixed_panels()[build]
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
            assert _same_bits(kalman.score(cm, params), _numpy_score(cm, params))


@pytest.mark.parametrize("role", ["sigma_eps2", "sigma_eta2"])
def test_dim1_score_at_a_zero_variance_equals_general_path(role):
    # one source's measurement variance, or the trend variance, at 0.0: the
    # loglik stays finite (one slot a row, and every later row moves), and
    # the float path's coordinates are the numpy path's, inf or NaN where
    # it divides by zero
    spec = ModelSpec(meas_grouping="by-source")
    data = small_simulated(spec, [0.1, 0.3, 1.0], n_rows=30, slots=1, seed=4, n_sources=2)
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    assert cm.s == 1 and layout.n_params == 3
    params = np.array([0.1, 0.3, 1.0])
    params[[p.role for p in layout.params].index(role)] = 0.0
    assert math.isfinite(kloglik(cm, params))
    with np.errstate(all="ignore"):
        got, want = kalman.score(cm, params), _numpy_score(cm, params)
    finite = np.isfinite(want)
    assert not finite.all()
    assert _same_bits(got[finite], want[finite])
    np.testing.assert_array_equal(got, want)  # inf and NaN in the same places


_KERNEL_SPECS = {
    "rwn": ModelSpec(),
    "by-source": ModelSpec(meas_grouping="by-source"),
    "irw": ModelSpec(order_m=2),
    "bivariate-rho-by-climate": ModelSpec(
        arity="bivariate", trans_grouping="by-climate-state", corr_grouping="by-climate-state"
    ),
}


def _kernel_params(layout, rng) -> np.ndarray:
    # variances from 2.5e-3 to 2.7, and correlations in (-0.9, 0.9)
    params = np.exp(rng.uniform(-6.0, 1.0, layout.n_params))
    for i, p in enumerate(layout.params):
        if p.role == "rho":
            params[i] = rng.uniform(-0.9, 0.9)
    return params


def _scaled(layout, params, c) -> np.ndarray:
    # every variance times c, the correlations as they are
    rho = np.array([p.role == "rho" for p in layout.params])
    return np.where(rho, params, c * np.asarray(params))


@pytest.mark.parametrize("build", ["collated", "merged", "merged_edges", "sliced", "head"])
@pytest.mark.parametrize("name", list(_KERNEL_SPECS))
def test_kernel_with_score_equals_loglik_and_score(name, build):
    # one kernel call with a 2 + 2d array returns loglik's float and fills
    # the array with (S, N*) and the score's two parts, bit for bit the
    # numpy path's, from one forward pass; a 2-array gets the same (S, N*)
    # from the path-free pass. N* is the slots past the diffuse phase, and
    # S and N* give the loglik along the ray c * params
    data = mixed_panels()[build]
    spec = _KERNEL_SPECS[name]
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    d = layout.n_params
    some = _kernel_params(layout, np.random.default_rng(0))
    n_diffuse = kfilter(spec, layout, some, data).n_diffuse_slots  # the same at every point
    rng = np.random.default_rng(12)
    for _ in range(5):
        params = _kernel_params(layout, rng)
        out = np.zeros(2 + 2 * d)
        ll = _kernels.loglik_from_compiled(cm, params, out)
        assert _same_bits(ll, kloglik(cm, params))
        assert _same_bits(ll, _kernels.loglik_from_compiled(cm, params))
        quad, rest = out[2:].reshape(2, d)
        assert _same_bits(quad + rest, kalman.score(cm, params))
        assert _same_bits(out[2:].reshape(2, d), _numpy_score_parts(cm, params))
        assert np.isfinite(out).all()
        stats = np.zeros(2)
        assert _same_bits(_kernels.loglik_from_compiled(cm, params, stats), ll)
        assert _same_bits(stats, out[:2])
        S, N = stats
        assert N == cm.n_obs_slots - n_diffuse and S >= 0.0
        for c in (0.5, 3.0):
            want = ll - 0.5 * N * math.log(c) - 0.5 * S * (1.0 / c - 1.0)
            got = kloglik(cm, _scaled(layout, params, c))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("build", ["collated", "merged", "merged_edges", "sliced", "head"])
@pytest.mark.parametrize("name", list(_KERNEL_SPECS))
def test_score_parts_give_the_score_along_the_scale(name, build):
    # at c * params the score is quad / c^2 + rest / c in a variance's
    # coordinate and quad / c + rest in a correlation's, with quad and rest
    # from the pass at params; by-climate rho includes rows where both
    # series move
    data = mixed_panels()[build]
    spec = _KERNEL_SPECS[name]
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    d = layout.n_params
    rho = np.array([p.role == "rho" for p in layout.params])
    rng = np.random.default_rng(13)
    for _ in range(5):
        params = _kernel_params(layout, rng)
        out = np.zeros(2 + 2 * d)
        _kernels.loglik_from_compiled(cm, params, out)
        quad, rest = out[2:].reshape(2, d)
        assert _same_bits(quad + rest, kalman.score(cm, params))
        for c in (0.5, 3.0):
            got = np.where(rho, quad / c + rest, quad / c**2 + rest / c)
            want = kalman.score(cm, _scaled(layout, params, c))
            # relative in the infinity-norm: a coordinate's terms can cancel
            # to far below their own size, here and in score alike
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), (c, got, want)


def test_kernel_with_score_at_an_inadmissible_point_gives_nan():
    # a negative measurement variance: loglik raises, and the kernel gives
    # NaN with every entry of its array NaN
    spec, params, data = _instance_c()
    cm = compile_model(spec, build_layout(spec, data), data)
    bad = np.array([-0.5, *params[1:]])
    with pytest.raises(ConditioningError):
        kloglik(cm, bad)
    for size in (2, 2 + 2 * bad.size):
        out = np.zeros(size)
        assert math.isnan(_kernels.loglik_from_compiled(cm, bad, out))
        assert np.isnan(out).all()


def test_kernel_with_score_where_the_score_breaks_down():
    # rho = 1 with equal trend variances makes Q singular, where score
    # raises LinAlgError: the kernel returns the finite loglik with its
    # (S, N*) and NaN score parts, and no warning
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    data = pk.simulate(spec, [0.1, 0.2, 1.0, 0.7, 0.4], [-3.0, -2.5, -2.0, -1.2], seed=1)
    cm = compile_model(spec, build_layout(spec, data), data)
    params = np.array([0.1, 0.2, 1.0, 1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        kalman.score(cm, params)
    out = np.zeros(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ll = _kernels.loglik_from_compiled(cm, params, out)
    assert _same_bits(ll, kloglik(cm, params)) and math.isfinite(ll)
    assert np.isfinite(out[:2]).all() and np.isnan(out[2:]).all()

    # a zero trend variance at state dimension 1: the loglik is finite and
    # the trend coordinate of the score is NaN, as in score
    spec = ModelSpec(meas_grouping="by-source")
    data = small_simulated(spec, [0.1, 0.3, 1.0], n_rows=30, slots=2, seed=0, n_sources=2)
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    assert cm.s == 1 and layout.params[2].role == "sigma_eta2"
    params = np.array([0.1, 0.3, 0.0])
    out = np.zeros(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ll = _kernels.loglik_from_compiled(cm, params, out)
    assert _same_bits(ll, kloglik(cm, params)) and math.isfinite(ll)
    quad, rest = out[2:].reshape(2, 3)
    assert math.isnan(quad[2] + rest[2])
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(quad + rest, kalman.score(cm, params))


def test_dim1_smooth_raises_on_a_zero_predicted_variance():
    # a proper prior with P1 = 0 and a trend variance whose booked windows
    # underflow to 0.0: every moving row's predicted variance is zero, and
    # the sweep names the last one
    spec = ModelSpec()
    data = small_simulated(spec, [0.1, 1.0], n_rows=12, slots=1, seed=3)
    layout = build_layout(spec, data)
    params = [0.1, 5e-324]
    run = kfilter(spec, layout, params, data, init=([0.0], [[0.0]]))
    assert run.compiled.s == 1
    assert not kalman._rows_dim1(run.compiled, run.buffers)[-1].any()  # nothing booked
    last = int(run.compiled.moving[-1])
    with pytest.raises(ZeroDivisionError, match=f"^row {last}: predicted variance 0.0 at a moving"):
        smooth(run)
