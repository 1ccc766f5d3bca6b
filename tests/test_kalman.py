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
        _raised(lambda: kalman._forward(cm, h.tolist(), *kalman._diffuse_start(cm.s), False)),
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
        kalman._forward(cm, params.tolist(), *kalman._diffuse_start(1), True)
    assert str(fast.value) == str(ref.value)
    assert fast.value.row_index == ref.value.row_index > 3
    assert "innovation variance" in str(fast.value)
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
    if prior is None:
        init, start = None, kalman._diffuse_start(1)
    else:
        init, start = ([prior[0]], [[prior[1]]]), ([prior[0]], [prior[1]], [0.0], False)
    run = kfilter(spec, layout, h, data, init=init, compiled=cm)
    paths = smooth(run)
    buffers = kalman._forward(cm, list(h), *start, True)[2]
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


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _assert_forward_dim1_equals_forward(cm, h, prior=None):
    # both modes of _forward_dim1 against _forward, called directly, from the
    # diffuse start or from the proper prior (a1, P1): the loglik, (S, N*)
    # and, in paths mode, the buffers, whose filtered moments end at the
    # final state; _forward updates its start in place, so each pass gets a
    # fresh one
    def start():
        if prior is None:
            return kalman._diffuse_start(1)
        return [prior[0]], [prior[1]], [0.0], False

    for keep_paths in (False, True):
        ll, stats, buffers, n_diffuse = kalman._forward_dim1(cm, h, *start(), keep_paths)
        ref = kalman._forward(cm, h, *start(), keep_paths)
        assert _same_bits(ll, ref[0])
        assert _same_bits(stats, ref[1])
        assert n_diffuse == ref[3]
        if not keep_paths:
            assert buffers is ref[2] is None
            continue
        # each of the eight buffers as float64 bytes: _forward's are
        # array('d')s, _forward_dim1's per-row ones numpy arrays
        assert len(buffers) == len(ref[2]) == 8
        for x, y in zip(buffers, ref[2]):
            assert _same_bits(np.frombuffer(x), np.frombuffer(y))


def _diffuse_rows_dim1(cm, h, prior=None) -> list:
    # the rows whose P_inf the buffer pred_Pi holds, a leading run
    start = kalman._diffuse_start(1) if prior is None else ([prior[0]], [prior[1]], [0.0], False)
    pred_Pi = kalman._forward_dim1(cm, h, *start, True)[2][2]
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
    ll, stats, buffers, n_diffuse = kalman._forward_dim1(cm, [], *kalman._diffuse_start(1), True)
    assert (ll, stats, n_diffuse) == (0.0, (0.0, 0), 0)
    _, _, pred_Pi, filt_a, filt_P, _, _, _ = buffers
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
    assert kalman._forward_dim1(cm, h, *kalman._diffuse_start(1), False)[3] == 1
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
    h = h.tolist()
    with pytest.raises(ConditioningError) as fast:
        kalman._forward_dim1(cm, h, *kalman._diffuse_start(1), keep_paths)
    with pytest.raises(ConditioningError) as ref:
        kalman._forward(cm, h, *kalman._diffuse_start(1), keep_paths)
    assert str(fast.value) == str(ref.value)
    assert type(fast.value.row_index) is int
    assert fast.value.row_index == ref.value.row_index == nu
    assert str(fast.value).startswith(f"row {nu}: innovation variance -")
    assert str(fast.value).endswith(f"at slot column {col}")


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
        # the per-row and per-(row, series) columns are read-only integer,
        # bool and float arrays
        for name, kind in (("level", "i"), ("count", "i"), ("corr", "i"), ("tvar", "i"),
                           ("moved", "b"), ("apply_", "b"), ("window", "f")):
            x = getattr(cm, name)
            assert x.dtype.kind == kind and not x.flags.writeable, (spec, name)
        # at every state dimension: the moving rows, of which row 0 is never
        # one, and for each row the count of moving rows above it, the
        # entry of the backward pass's moments it takes
        moving = [nu for nu in range(n) if cm.moved[nu]]
        assert cm.moving.tolist() == moving and not cm.moved[0], spec
        assert cm.fill.tolist() == [sum(u > nu for u in moving) for nu in range(n)], spec
        assert not cm.moving.flags.writeable and not cm.fill.flags.writeable, spec
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
    assert run.compiled.s == 1 and not run.buffers[-1].any()  # nothing booked
    last = int(run.compiled.moving[-1])
    with pytest.raises(ZeroDivisionError, match=f"^row {last}: predicted variance 0.0 at a moving"):
        smooth(run)
