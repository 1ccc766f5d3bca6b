"""Self-checks of the brute-force reference implementations.

The joint-Gaussian oracle and the simulator are the ground truth the engine
is tested against, so they get verified here against closed forms that can
be done by hand: one- and two-row conjugate updates, Monte Carlo moments of
simulated paths, and the large-kappa limit that connects the proper-prior
oracle to the diffuse one.
"""

import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from paleokalman import ModelSpec, build_layout, oracle
from paleokalman.oracle import diffuse_exact_gaussian, exact_gaussian, simulate

from conftest import recollate, rows_from_values


def _logpdf_1d(y, mean, var):
    return -0.5 * (math.log(2.0 * math.pi * var) + (y - mean) ** 2 / var)


# ---------------------------------------------------------------------------
# closed-form conjugate cases
# ---------------------------------------------------------------------------


def test_single_observation_conjugate():
    # prior N(a, P), one slot with noise var s2: textbook posterior
    data = rows_from_values([-1.0], [[2.0]])
    spec = ModelSpec()
    a, P, s2, eta = 0.5, 2.0, 0.4, 0.7
    res = exact_gaussian(spec, [s2, eta], data, [a], [[P]])
    y = 2.0
    F = P + s2
    assert res.loglik == pytest.approx(_logpdf_1d(y, a, F), rel=1e-12)
    assert res.predicted_means[0, 0] == pytest.approx(a)
    assert res.predicted_covs[0, 0, 0] == pytest.approx(P)
    post_mean = a + P / F * (y - a)
    post_var = P - P * P / F
    assert res.filtered_means[0, 0] == pytest.approx(post_mean, rel=1e-12)
    assert res.filtered_covs[0, 0, 0] == pytest.approx(post_var, rel=1e-12)
    # with one row, smoothing changes nothing
    assert res.smoothed_means[0, 0] == pytest.approx(post_mean, rel=1e-12)


def test_two_slots_same_row_average():
    # two equal-noise slots at one stamp act like one observation of their
    # mean with half the noise variance
    data = rows_from_values([-1.0], [[1.6, 2.4]])
    spec = ModelSpec()
    a, P, s2 = 0.0, 10.0, 0.5
    res = exact_gaussian(spec, [s2, 1.0], data, [a], [[P]])
    ybar, s2_eff = 2.0, 0.25
    F = P + s2_eff
    post_mean = a + P / F * (ybar - a)
    assert res.filtered_means[0, 0] == pytest.approx(post_mean, rel=1e-12)
    # loglik = joint density of both slots
    ll = (
        _logpdf_1d(1.6, a, P + s2)
        + _logpdf_1d(2.4, a + P / (P + s2) * 1.6, P - P * P / (P + s2) + s2)
    )
    assert res.loglik == pytest.approx(ll, rel=1e-12)


def test_two_row_random_walk_prediction():
    data = rows_from_values([-2.0, -1.5], [[1.0], [3.0]])
    spec = ModelSpec()
    s2, eta = 0.3, 0.8
    a, P = 0.0, 4.0
    res = exact_gaussian(spec, [s2, eta], data, [a], [[P]])
    # row 1 posterior
    F1 = P + s2
    m1 = a + P / F1 * 1.0
    v1 = P - P * P / F1
    # transition books dt = 0.5
    pred2 = m1
    pvar2 = v1 + eta * 0.5
    assert res.predicted_means[1, 0] == pytest.approx(pred2, rel=1e-12)
    assert res.predicted_covs[1, 0, 0] == pytest.approx(pvar2, rel=1e-12)
    F2 = pvar2 + s2
    assert res.loglik == pytest.approx(
        _logpdf_1d(1.0, a, F1) + _logpdf_1d(3.0, pred2, F2), rel=1e-12
    )
    # backward smoothing of row 1: gain v1 / pvar2
    J = v1 / pvar2
    m2 = pred2 + pvar2 / F2 * (3.0 - pred2)
    sm1 = m1 + J * (m2 - pred2)
    assert res.smoothed_means[0, 0] == pytest.approx(sm1, rel=1e-12)


def test_missing_slot_is_marginalized():
    # a dataset with a missing middle row gives the same loglik as the
    # dataset without that row (window accumulates across the gap)
    spec = ModelSpec()
    with_gap = rows_from_values([-2.0, -1.7, -1.0], [[1.0], None, [2.5]])
    without = rows_from_values([-2.0, -1.0], [[1.0], [2.5]])
    params = [0.3, 0.8]
    r1 = exact_gaussian(spec, params, with_gap, [0.0], [[4.0]])
    r2 = exact_gaussian(spec, params, without, [0.0], [[4.0]])
    assert r1.loglik == pytest.approx(r2.loglik, rel=1e-12)
    assert r1.smoothed_means[0, 0] == pytest.approx(r2.smoothed_means[0, 0], rel=1e-12)
    assert r1.smoothed_means[2, 0] == pytest.approx(r2.smoothed_means[1, 0], rel=1e-12)


def test_slot_permutation_invariance():
    spec = ModelSpec()
    d1 = rows_from_values([-2.0, -1.0], [[1.0, 2.0], [1.5]])
    d2 = rows_from_values([-2.0, -1.0], [[2.0, 1.0], [1.5]])
    params = [0.3, 0.8]
    r1 = exact_gaussian(spec, params, d1, [0.0], [[4.0]])
    r2 = exact_gaussian(spec, params, d2, [0.0], [[4.0]])
    assert r1.loglik == pytest.approx(r2.loglik, rel=1e-12)
    assert np.allclose(r1.smoothed_means, r2.smoothed_means, rtol=1e-12)


# ---------------------------------------------------------------------------
# diffuse oracle vs large-kappa proper prior
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2])
def test_diffuse_is_large_kappa_limit(m):
    # ll_kappa + (s/2) log kappa approaches the diffuse loglik with an
    # O(1/kappa) error; check the value at kappa=1e6 and the decay rate,
    # which pins the limit more sharply than a single loose tolerance
    spec = ModelSpec(order_m=m)
    stamps = [-2.0, -1.6, -1.1, -0.5]
    data = simulate(spec, [0.2, 0.9], stamps, slots_per_row=2, seed=4)
    layout = build_layout(spec, data)
    dres = diffuse_exact_gaussian(spec, [0.2, 0.9], data, layout)
    s = spec.state_dim

    def adjusted(kappa):
        pres = exact_gaussian(
            spec, [0.2, 0.9], data, np.zeros(m), kappa * np.eye(m), layout
        )
        return pres.loglik + 0.5 * s * math.log(kappa)

    d3 = adjusted(1e3) - dres.loglik
    d4 = adjusted(1e4) - dres.loglik
    assert abs(adjusted(1e6) - dres.loglik) < 1e-5
    if abs(d4) > 1e-9:  # decay visible above roundoff
        assert d3 / d4 == pytest.approx(10.0, rel=0.05)

    pres = exact_gaussian(
        spec, [0.2, 0.9], data, np.zeros(m), 1e6 * np.eye(m), layout
    )
    assert np.allclose(pres.smoothed_means, dres.smoothed_means, atol=1e-5)
    assert np.allclose(pres.smoothed_covs, dres.smoothed_covs, atol=1e-4)


def test_diffuse_bivariate_large_kappa():
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    params = [0.2, 0.3, 0.9, 0.5, 0.6]
    stamps = [-2.0, -1.4, -0.9]
    data = simulate(spec, params, stamps, slots_per_row=1, seed=9)
    dres = diffuse_exact_gaussian(spec, params, data)
    kappa = 1e6
    pres = exact_gaussian(spec, params, data, np.zeros(2), kappa * np.eye(2))
    assert pres.loglik + 0.5 * 2 * math.log(kappa) == pytest.approx(
        dres.loglik, abs=1e-5
    )
    assert np.allclose(pres.smoothed_means, dres.smoothed_means, atol=1e-5)


@pytest.mark.parametrize("func", [exact_gaussian, diffuse_exact_gaussian])
def test_oracles_are_capped_at_64_observed_values(func):
    spec = ModelSpec()
    data = simulate(spec, [0.2, 0.9], np.linspace(-6.5, -0.1, 65), seed=8)
    prior = ([0.0], [[4.0]]) if func is exact_gaussian else ()
    assert np.isfinite(func(spec, [0.2, 0.9], recollate(data, slice(64)), *prior).loglik)
    with pytest.raises(ValueError) as err:
        func(spec, [0.2, 0.9], data, *prior)
    assert str(err.value) == f"{func.__name__} is capped at 64 observed values, got 65"


def test_oracle_imports_nothing_of_the_engine():
    # the oracles check the filter and smoother, so they may share the
    # panel and the model's layout with them but none of their code
    package = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("paleokalman"):
            package.add(node.module.partition(".")[2] or "*")
        elif isinstance(node, ast.Import):
            package.update(
                a.name.partition(".")[2] or "*" for a in node.names if a.name.startswith("paleokalman")
            )
    assert package <= {"core", "modelspec"}


# ---------------------------------------------------------------------------
# simulator moments
# ---------------------------------------------------------------------------


def test_simulate_is_deterministic_per_seed():
    spec = ModelSpec()
    d1 = simulate(spec, [0.2, 0.9], [-2.0, -1.0], seed=5)
    d2 = simulate(spec, [0.2, 0.9], [-2.0, -1.0], seed=5)
    d3 = simulate(spec, [0.2, 0.9], [-2.0, -1.0], seed=6)
    assert d1.view.value.tolist() == d2.view.value.tolist()
    assert d1.view.value.tolist() != d3.view.value.tolist()


def test_simulate_increment_moments():
    # level increments over dt have variance sigma_eta2 * dt; with two slots
    # per row the within-row spread has variance 2 * sigma_eps2
    spec = ModelSpec()
    eta, eps = 0.9, 0.2
    n = 4000
    stamps = list(np.linspace(-5.0, -0.1, n))
    data = simulate(spec, [eps, eta], stamps, slots_per_row=2, seed=12)
    vals = data.view.value.reshape(n, 2)  # each row's two d18O slots
    within = vals[:, 0] - vals[:, 1]
    assert np.var(within) == pytest.approx(2.0 * eps, rel=0.1)
    dt = stamps[1] - stamps[0]
    means = vals.mean(axis=1)
    incr = np.diff(means)
    # Var(mean diff) = eta*dt + 2 * eps/2 (noise of two row means)
    assert np.var(incr) == pytest.approx(eta * dt + eps, rel=0.1)


def test_simulate_bivariate_correlation_sign():
    # observed increment correlation is the trend correlation diluted by
    # measurement noise: rho * eta*dt / (eta*dt + 2*eps)
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    n = 3000
    stamps = list(np.linspace(-5.0, -0.1, n))
    eps, eta, rho = 0.001, 1.0, 0.8
    params = [eps, eps, eta, eta, rho]
    data = simulate(spec, params, stamps, slots_per_row=1, seed=3)
    v1, v2 = data.view.value.reshape(n, 2).T  # each row's d18O and d13C slot
    corr = np.corrcoef(np.diff(v1), np.diff(v2))[0, 1]
    dt = stamps[1] - stamps[0]
    expected = rho * eta * dt / (eta * dt + 2.0 * eps)
    assert corr == pytest.approx(expected, abs=0.05)


def test_simulate_respects_observed_mask():
    spec = ModelSpec()
    obs = np.array([[True], [False], [True]])
    data = simulate(spec, [0.2, 0.9], [-2.0, -1.5, -1.0], observed=obs, seed=2)
    assert data.n_rows == 3
    assert data.view.row.tolist() == [0, 2]  # row 1 holds no slot


# twelve stamps across the Coolhouse 2 / Icehouse boundary at 3.3 My, and
# observed masks with all-missing rows
_STAMPS = np.linspace(-3.6, -3.0, 12)
_MASK = np.array([True, True, False, True, False, False, True, True, True, False, True, True])
_MASK2 = np.stack([_MASK, np.roll(~_MASK, 1) | _MASK[::-1]], axis=1)
# SHA-256 of each panel's view columns and registries, as simulate drew
# them when it read row objects; its draws, their order and its panels must
# not change, since the benchmark's inputs are drawn by it
_SIMULATE_PINS = {
    "observed-mask": (
        ModelSpec(),
        [0.02, 1.8],
        dict(observed=_MASK, seed=3),
        "af90ec7c0e9b94f1c8620ed8b90f5e362db4f561256ca93227b66d36df6e0be0",
    ),
    "two-slots-by-source": (
        ModelSpec(meas_grouping="by-source"),
        [0.01, 0.02, 0.04, 1.5],
        dict(slots_per_row=2, n_sources=3, seed=4),
        "114ad62e9d74d141f31946ba939ff085395530251864225c78af35d098cdd8ab",
    ),
    "by-species-by-climate": (
        ModelSpec(meas_grouping="by-species", trans_grouping="by-climate-state"),
        [0.01, 0.03, 1.5, 0.5],
        dict(slots_per_row=3, n_species=2, seed=5),
        "9f4eb970b1589db62e7f129a0e499094bef4e0d59124c500d313b1ef8d1cf124",
    ),
    "bivariate-rho-at-the-boundary": (
        ModelSpec(arity="bivariate", corr_grouping="by-climate-state"),
        [0.02, 0.03, 1.8, 1.2, 1.0, -1.0],
        dict(slots_per_row=2, observed=_MASK2, seed=6),
        "1bf7b59cc3cdf46aa1251050a5d6906b8029cea8e46be743b2a197f0ca9b83d4",
    ),
    "order-2-proper-prior": (
        ModelSpec(order_m=2),
        [0.02, 0.5],
        dict(init_mean=[1.0, -0.5], init_cov=[[0.3, 0.1], [0.1, 0.2]], seed=7),
        "20cdaf73e3aedd23a7f2b7e7f2c9ef1810a8133ad893148d05f171446b0bd5e1",
    ),
}


@pytest.mark.parametrize("case", list(_SIMULATE_PINS))
def test_simulate_draws_the_pinned_panel(case):
    spec, params, options, digest = _SIMULATE_PINS[case]
    data = simulate(spec, params, _STAMPS, **options)
    v = data.view
    sha = hashlib.sha256()
    for column in (v.stamps, v.climate_states, v.at, v.value, v.source, v.species):
        sha.update(column.tobytes())
    sha.update(repr((data.sources, data.species)).encode())
    assert sha.hexdigest() == digest
