"""Estimation driver, transforms, standard errors, and BIC."""

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st

import paleokalman as pk
from paleokalman import ModelSpec, build_layout, fitting
from paleokalman.fitting import (
    FitOptions,
    FitResult,
    InitializationError,
    ParamTransform,
    bic,
    covariance_from_hessian,
    default_start,
    fit,
    numerical_hessian,
)
from paleokalman.kalman import compile_model

from conftest import random_stamps, rows_from_values


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _layout_biv():
    data = rows_from_values([-3.0, -2.0], [[1.0], [1.1]], [[0.5], [0.6]])
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    return build_layout(spec, data)


@given(
    st.lists(
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        min_size=5,
        max_size=5,
    )
)
def test_transform_round_trip(theta):
    tr = ParamTransform.for_layout(_layout_biv())
    theta = np.asarray(theta)
    nat = tr.to_natural(theta)
    back = tr.to_unconstrained(nat)
    assert np.allclose(back, theta, atol=1e-12, rtol=1e-12)
    # natural-scale values are admissible by construction
    assert (nat[:4] > 0).all()
    assert abs(nat[4]) < 1.0


def test_transform_round_trip_near_saturation():
    # tanh saturates, so the correlation coordinate round-trips with reduced
    # precision at large theta; the variance coordinates stay exact
    tr = ParamTransform.for_layout(_layout_biv())
    theta = np.array([12.0, -12.0, 0.0, 5.0, 8.0])
    back = tr.to_unconstrained(tr.to_natural(theta))
    assert np.allclose(back[:4], theta[:4], rtol=1e-14)
    assert back[4] == pytest.approx(theta[4], rel=1e-7)


def test_transform_jacobian_matches_finite_difference():
    tr = ParamTransform.for_layout(_layout_biv())
    theta = np.array([0.3, -1.2, 0.8, 0.1, 0.4])
    jac = tr.natural_jacobian_diag(theta)
    h = 1e-7
    for i in range(5):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h
        tm[i] -= h
        fd = (tr.to_natural(tp)[i] - tr.to_natural(tm)[i]) / (2 * h)
        assert jac[i] == pytest.approx(fd, rel=1e-6)


def _masked_to_natural(tr, theta):
    # to_natural as masked assignments, the form np.where replaced
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    corr = tr.is_corr
    with np.errstate(over="ignore"):
        out[~corr] = np.exp(theta[~corr])
    out[corr] = np.tanh(theta[corr])
    return out


def _masked_jacobian(tr, theta):
    # natural_jacobian_diag as masked assignments, the form np.where replaced
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    corr = tr.is_corr
    out[~corr] = np.exp(theta[~corr])
    out[corr] = 1.0 - np.tanh(theta[corr]) ** 2
    return out


@pytest.mark.parametrize("model", ["rwn", "rwn-source", "biv"])
def test_transform_equals_its_masked_form_bitwise(model):
    # to_natural and natural_jacobian_diag take exp alone without
    # correlations, and select with np.where otherwise: every entry equals
    # the masked assignments', also where exp overflows (800) or
    # underflows (-800) and where tanh saturates (+-25); to_natural warns
    # at none of them
    spec, data = _recovery_data(seed=6, n=40) if model == "rwn" else _catalogue_data(model)
    tr = ParamTransform.for_layout(build_layout(spec, data))
    assert tr.has_corr == (model == "biv") == tr.is_corr.any()
    d = tr.is_corr.size
    rng = np.random.default_rng(3)
    thetas = [rng.normal(0.0, 2.0, d) for _ in range(5)]
    for var, rho in itertools.product((800.0, -800.0, 1.5), (25.0, -25.0, 0.3)):
        thetas.append(np.where(tr.is_corr, rho, var))
    for theta in thetas:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nat = tr.to_natural(theta)
        assert nat.tobytes() == _masked_to_natural(tr, theta).tobytes()
        with np.errstate(over="ignore"):  # both forms' exp overflows at 800
            assert tr.natural_jacobian_diag(theta).tobytes() == _masked_jacobian(tr, theta).tobytes()


def _objective_formulas(cm, tr, theta, scale, with_score) -> tuple:
    # _Objective's record at theta by its docstring's formulas: h in the
    # masked-form transform, the loglik at h from kalman.loglik, (S, N*)
    # from the kernel, and the score's two parts, which kalman.score sums;
    # the penalty, a zero gradient and no c* h where the loglik raises
    h = _masked_to_natural(tr, theta)
    try:
        ll = pk.kalman.loglik(cm, h)
    except pk.ConditioningError:
        return fitting._PENALTY, np.zeros(h.size), None
    stats = np.zeros(2)
    assert fitting._kernels.loglik_from_compiled(cm, h, stats) == ll
    S, N = stats.tolist()
    c = S / N if N else 1.0
    f = -(ll - 0.5 * N * math.log(c) - 0.5 * (N - S)) * scale
    g = None
    if with_score:
        quad, rest = pk.kalman._score_from_buffers(cm, h, pk.kalman._forward_pass(cm, h, True)[2])
        assert (quad + rest).tobytes() == pk.kalman.score(cm, h).tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            g = -(quad / c + rest) * _masked_jacobian(tr, theta) * scale
    return f, g, np.where(tr.is_corr, h, c * h)


@pytest.mark.parametrize("model", ["rwn", "rwn-source", "biv"])
def test_objective_record_is_its_formulas_bitwise(model):
    # at the start, three points around it and a point where every
    # variance is zero, which the kernel scores NaN: each point's record,
    # first value-only and then with the gradient, is the formulas' bit for
    # bit. Each call adds one count, but for the second at the penalty
    # point, whose record has the zero gradient already
    spec, data = _recovery_data(seed=6, n=240) if model == "rwn" else _catalogue_data(model)
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    tr = ParamTransform.for_layout(layout)
    theta0 = tr.to_unconstrained(default_start(layout, cm))
    scale = 1.0 / cm.n_obs_slots
    rng = np.random.default_rng(4)
    thetas = [theta0] + [theta0 + rng.normal(0.0, 0.5, theta0.size) * (np.arange(theta0.size) > 0)
                         for _ in range(3)]
    thetas.append(np.full(theta0.size, -800.0))
    for theta in thetas:
        obj, phi = _objective_at(cm, tr, theta, scale=scale)
        penalty = theta[0] == -800.0
        for with_score, evals in ((False, 1), (True, 1 if penalty else 2)):
            obj(phi, with_score=with_score)
            assert obj.n_evals == evals
            got = obj.points[phi.tobytes()]
            want = _objective_formulas(cm, tr, theta, scale, with_score)
            assert got[0] == want[0]
            for x, y in zip(got[1:], want[1:]):
                assert (x is None and y is None) or x.tobytes() == y.tobytes()
        assert (got[0] == fitting._PENALTY) == penalty


# ---------------------------------------------------------------------------
# hessian utilities
# ---------------------------------------------------------------------------


def test_numerical_hessian_exact_on_quadratic():
    A = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, -0.3], [0.0, -0.3, 3.0]])
    b = np.array([0.1, -0.2, 0.3])

    def f(x):
        return 0.5 * x @ A @ x + b @ x

    H = numerical_hessian(f, np.array([0.4, -1.0, 2.0]))
    assert np.allclose(H, A, atol=1e-6)


def test_covariance_from_hessian_isolates_flat_directions():
    H = np.diag([4.0, 0.0, 9.0])  # middle coordinate unidentified
    cov, ok = covariance_from_hessian(H)
    assert ok.tolist() == [True, False, True]
    assert cov[0, 0] == pytest.approx(0.25)
    assert cov[2, 2] == pytest.approx(1.0 / 9.0)


def test_covariance_from_hessian_regular_case():
    H = np.array([[2.0, 0.3], [0.3, 1.0]])
    cov, ok = covariance_from_hessian(H)
    assert ok.all()
    assert np.allclose(cov, np.linalg.inv(H), atol=1e-12)


# ---------------------------------------------------------------------------
# fit driver
# ---------------------------------------------------------------------------


def _recovery_data(seed=0, n=1500, true=(0.5, 1.2)):
    spec = ModelSpec()
    rng = np.random.default_rng(900 + seed)
    stamps = random_stamps(rng, n, mean_dt=0.004)
    data = pk.simulate(spec, list(true), stamps, slots_per_row=1, seed=seed)
    return spec, data


def _record_methods(monkeypatch) -> list:
    """The method of each scipy.optimize.minimize call, in call order."""
    minimize = scipy.optimize.minimize
    methods = []

    def record(*args, **kwargs):
        methods.append(kwargs.get("method"))
        return minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", record)
    return methods


def _profile(ll, S, N) -> float:
    """ll(c* h) from a kernel call's ll(h) and (S, N*), c* = S / N*."""
    if N == 0:
        return ll
    return ll - 0.5 * N * math.log(S / N) - 0.5 * (N - S)


def _record_logliks(monkeypatch) -> list:
    """For each loglik kernel call, in call order, the profile loglik at
    the optimal scale of its point, from the (S, N*) its array received;
    the loglik itself for a call without an array, as the Hessian's."""
    kernel = fitting._kernels.loglik_from_compiled
    logliks = []

    def counted(cm, params, out=None):
        ll = kernel(cm, params, out)
        logliks.append(ll if out is None else _profile(ll, *out[:2]))
        return ll

    monkeypatch.setattr(fitting._kernels, "loglik_from_compiled", counted)
    return logliks


_CATALOGUE = {
    "rwn-source": (ModelSpec(meas_grouping="by-source"), [0.05, 0.2, 1.0]),
    "rwn-climate": (ModelSpec(trans_grouping="by-climate-state"), [0.1, 1.0, 0.5]),
    "irw": (ModelSpec(order_m=2), [0.05, 1.0]),
    "biv": (ModelSpec(arity="bivariate", corr_grouping="pooled"), [0.1, 0.2, 1.0, 0.7, 0.4]),
}


def _catalogue_data(model):
    """120 rows of 2 slots from 2 sources, across the 3.3 Mya regime
    boundary, drawn under _CATALOGUE[model]."""
    spec, params = _CATALOGUE[model]
    stamps = random_stamps(np.random.default_rng(0), 120, mean_dt=0.01, start=-3.9)
    data = pk.simulate(spec, params, stamps, slots_per_row=2, seed=0, n_sources=2)
    assert build_layout(spec, data).n_params == len(params)
    return spec, data


def test_fit_recovers_truth_within_three_se():
    true = np.array([0.5, 1.2])
    spec, data = _recovery_data(true=tuple(true))
    res = fit(spec, data)
    assert res.converged
    assert np.all(np.abs(res.params_hat - true) <= 3.0 * res.std_errors)
    assert res.n_obs == 1500
    assert res.n_params == 2


def test_fit_is_deterministic():
    spec, data = _recovery_data(seed=3, n=300)
    r1 = fit(spec, data)
    r2 = fit(spec, data)
    assert np.array_equal(r1.params_hat, r2.params_hat)
    assert r1.loglik == r2.loglik
    assert r1.n_evals == r2.n_evals


def test_fit_honors_explicit_start():
    spec, data = _recovery_data(seed=5, n=300)
    res = fit(spec, data, FitOptions(start=[0.4, 1.0]))
    assert res.converged
    res2 = fit(spec, data)
    assert res.loglik == pytest.approx(res2.loglik, abs=1e-5)


def test_fit_multi_start_agrees_with_single():
    spec, data = _recovery_data(seed=6, n=240)
    r1 = fit(spec, data)
    r3 = fit(spec, data, FitOptions(n_starts=3, seed=11))
    assert r3.loglik >= r1.loglik - 1e-6


def test_fit_iid_data_matches_closed_form():
    # constant level, pure measurement noise: in the sigma_eta2 -> 0 limit
    # the diffuse ML variance is the unbiased sample variance and the loglik
    # has a closed form. The joint ML may sit slightly off that boundary on
    # a finite sample, so the fitted loglik must dominate the boundary value
    # and the variance must land close to it.
    rng = np.random.default_rng(14)
    n = 400
    y = 2.0 + 0.7 * rng.standard_normal(n)
    stamps = list(np.linspace(-4.0, -0.1, n))
    data = rows_from_values(stamps, [[v] for v in y])
    spec = ModelSpec()
    res = fit(spec, data)
    rss = float(np.sum((y - y.mean()) ** 2))
    s2_hat = rss / (n - 1)
    assert res.params_hat[0] == pytest.approx(s2_hat, rel=0.02)
    assert res.params_hat[1] < 0.02 * s2_hat  # trend variance collapses
    ll_closed = -0.5 * (
        n * math.log(2 * math.pi)
        + (n - 1) * (math.log(s2_hat) + 1.0)
        + math.log(n)
    )
    assert res.loglik >= ll_closed - 1e-6
    assert res.loglik == pytest.approx(ll_closed, abs=2.0)


def test_fit_zero_correlation_not_rejected():
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    true = [0.3, 0.4, 1.0, 0.8, 0.0]
    rng = np.random.default_rng(31)
    stamps = random_stamps(rng, 600, mean_dt=0.01)
    data = pk.simulate(spec, true, stamps, slots_per_row=1, seed=2)
    res = fit(spec, data)
    i_rho = res.param_names.index("rho")
    assert abs(res.params_hat[i_rho]) <= 3.0 * res.std_errors[i_rho]
    assert res.converged and res.notes == ()  # no boundary note


def test_fit_flags_unidentified_parameter():
    # a single row books no transition, so the trend variance is flat; the
    # two within-row slots still identify the measurement variance
    data = rows_from_values([-1.0], [[1.4, 2.2]])
    spec = ModelSpec()
    res = fit(spec, data)
    assert math.isnan(res.std_errors[1])
    assert np.isfinite(res.std_errors[0])
    assert any("standard errors" in n for n in res.notes)


def _same_field(x, y) -> bool:
    """Equal, arrays bit for bit."""
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and x.tobytes() == y.tobytes()
    return x == y


def test_fit_budget_exhaustion_returns_best_seen():
    # the fit converges in 6 evals; 5 runs out during the BFGS run, and 6
    # does not: reading a point's record uses none of the budget
    spec, data = _recovery_data(seed=7, n=200)
    want = fit(spec, data)
    assert want.n_evals == 6
    res = fit(spec, data, FitOptions(eval_budget=6))
    assert res.converged and not any("budget" in n for n in res.notes)
    for f in dataclasses.fields(FitResult):
        assert _same_field(getattr(res, f.name), getattr(want, f.name)), f.name
    res = fit(spec, data, FitOptions(eval_budget=5))
    assert not res.converged
    assert any("budget" in n for n in res.notes)
    assert np.isfinite(res.loglik)
    with pytest.raises(InitializationError):
        fit(spec, data, FitOptions(eval_budget=0))


@pytest.mark.parametrize("n_starts", [0, -2])
def test_fit_refuses_fewer_than_one_start(n_starts):
    # the CLI's --starts takes at least 1; the library ran one start anyway
    spec, data = _recovery_data(seed=7, n=200)
    with pytest.raises(ValueError, match=rf"^n_starts must be at least 1, got {n_starts}$"):
        fit(spec, data, FitOptions(n_starts=n_starts))


def test_fit_budget_exhausted_in_the_curvature_probes(monkeypatch):
    # d = 2, budget 2 < 2(d - 1) + 1: the start and one probe are scored,
    # and the second probe runs out before BFGS starts
    spec, data = _recovery_data(seed=7, n=200)
    logliks = _record_logliks(monkeypatch)
    methods = _record_methods(monkeypatch)
    res = fit(spec, data, FitOptions(eval_budget=2))
    assert methods == [] and len(logliks) == res.n_evals == 2
    assert not res.converged
    assert any("budget" in n for n in res.notes)
    assert res.loglik == pytest.approx(max(logliks), rel=1e-14)
    assert np.isnan(res.std_errors).all()


def test_fit_nesting_by_source_dominates_pooled():
    spec = ModelSpec(meas_grouping="by-source")
    rng = np.random.default_rng(77)
    stamps = random_stamps(rng, 300, mean_dt=0.01)
    data = pk.simulate(
        spec, [0.2, 0.6, 1.0], stamps, slots_per_row=2, seed=4, n_sources=2
    )
    pooled = fit(ModelSpec(), data)
    by_src = fit(spec, data)
    assert by_src.loglik >= pooled.loglik - 1e-6


def _assert_full_optimum(spec, data, res):
    """The fit's point is the full loglik's optimum: theta_hat maps
    params_hat, the d-dimensional score there, mapped to theta and per
    slot, has an infinity-norm below _GRAD_TOL, and the fit's loglik is
    the loglik at params_hat."""
    cm = compile_model(spec, res.layout, data)
    tr = ParamTransform.for_layout(res.layout)
    assert np.array_equal(res.theta_hat, tr.to_unconstrained(res.params_hat))
    g = pk.kalman.score(cm, res.params_hat) * tr.natural_jacobian_diag(res.theta_hat)
    assert np.max(np.abs(g)) / cm.n_obs_slots < fitting._GRAD_TOL
    assert res.loglik == pytest.approx(pk.kalman.loglik(cm, res.params_hat), rel=1e-10)


def test_converged_fit_has_small_exact_gradient():
    spec = ModelSpec(meas_grouping="by-source")
    rng = np.random.default_rng(78)
    stamps = random_stamps(rng, 200, mean_dt=0.01)
    data = pk.simulate(spec, [0.2, 0.6, 1.0], stamps, slots_per_row=2, seed=5, n_sources=2)
    res = fit(spec, data)
    assert res.converged
    _assert_full_optimum(spec, data, res)


@pytest.mark.parametrize("model", [pytest.param(None, id="rwn"), *_CATALOGUE])
def test_profile_optimum_is_the_full_optimum(model):
    # BFGS moves d - 1 coordinates with the common scale profiled out; the
    # point it ends at, scaled by c*, is the d-dimensional optimum
    if model is None:
        spec, data = _recovery_data(seed=6, n=240)
    else:
        spec, data = _catalogue_data(model)
    res = fit(spec, data)
    assert res.converged
    _assert_full_optimum(spec, data, res)


def _objective_at(cm, tr, theta, scale=1.0):
    """The profile objective whose reference coordinate is theta[0], and
    theta's other coordinates, its phi."""
    return fitting._Objective(cm, tr, theta[0], scale=scale), np.array(theta[1:])


def test_objective_gradient_where_the_score_breaks_down():
    # rho = tanh(25) = 1 with equal trend variances makes Q exactly
    # singular, and a trend variance that underflows to zero divides by
    # zero in the score, though the loglik is finite at both: the optimizer
    # gets the penalty and no gradient
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    data = pk.simulate(spec, [0.1, 0.2, 1.0, 0.7, 0.4], [-3.0, -2.5, -2.0, -1.2], seed=1)
    layout = build_layout(spec, data)
    tr = ParamTransform.for_layout(layout)
    theta = tr.to_unconstrained([0.1, 0.2, 1.0, 1.0, 0.4])
    obj, phi = _objective_at(compile_model(spec, layout, data), tr, theta)
    f, g = obj.value_and_grad(phi)
    assert f < fitting._PENALTY and np.all(g != 0.0)
    for i, x in [(4, 25.0), (3, -800.0)]:
        bad = phi.copy()
        bad[i - 1] = x
        assert np.isfinite(obj(bad))
        f, g = obj.value_and_grad(bad)
        assert f == fitting._PENALTY and not g.any()

    # each variance of a 30-row panel in turn at zero (-800), at the
    # smallest subnormal (-744) and near the smallest normal float (-700),
    # where the score's terms overflow: at state dimension 1 (by-source),
    # at s = 2 (irw) and bivariate, the first measurement variance as the
    # profile's reference coordinate and the others as its free ones. The
    # objective gives the penalty or a finite value and gradient, and
    # raises no warning; any zero variance, the reference one too, gives
    # the penalty
    stamps = random_stamps(np.random.default_rng(0), 30)
    for spec, params in [
        (ModelSpec(meas_grouping="by-source"), [0.1, 0.3, 1.0]),
        (ModelSpec(order_m=2), [0.1, 1.0]),
        (ModelSpec(arity="bivariate", corr_grouping="pooled"), [0.1, 0.2, 1.0, 0.7, 0.4]),
    ]:
        data = pk.simulate(spec, params, stamps, slots_per_row=2, seed=0, n_sources=2)
        layout = build_layout(spec, data)
        assert layout.n_params == len(params)
        tr = ParamTransform.for_layout(layout)
        cm = compile_model(spec, layout, data)
        theta = tr.to_unconstrained(params)
        for i in range(len(params)):
            for x in (-800.0, -744.0, -700.0):
                bad = theta.copy()
                bad[i] = x
                obj, phi = _objective_at(cm, tr, bad)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    value = obj(phi)
                    f, g = obj.value_and_grad(phi)
                if cm.s == 1 and x == -800.0:
                    assert value < fitting._PENALTY  # the score, not the loglik, breaks down
                assert f == value or f == fitting._PENALTY
                if f == fitting._PENALTY:
                    assert not g.any()
                else:
                    assert np.isfinite(f) and np.all(np.isfinite(g)), (spec, i, x)
                    assert x != -800.0 or layout.params[i].role == "rho", (spec, i)


def test_objective_scale_where_no_slot_is_past_the_diffuse_phase():
    # one slot: N* = 0, so c* = 1 and the profile is the loglik, bit for
    # bit; the score is zero, so the fit stops at its start, converged, with
    # no standard error
    data = rows_from_values([-1.0], [[1.4]])
    spec = ModelSpec()
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    tr = ParamTransform.for_layout(layout)
    start = default_start(layout, cm)
    obj, phi = _objective_at(cm, tr, tr.to_unconstrained(start))
    h = tr.to_natural(np.r_[obj.theta_ref, phi])
    assert obj(phi) == -pk.kalman.loglik(cm, h)
    assert np.array_equal(obj.points[phi.tobytes()][2], h)
    res = fit(spec, data)
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.params_hat, h)
    assert res.loglik == pk.kalman.loglik(cm, h)
    assert np.isnan(res.std_errors).all()


def test_objective_scale_zero_scores_the_penalty():
    # two equal values in one row: the second slot's innovation is 0, so
    # S = 0 with N* = 1, and the loglik grows without bound as the scale
    # falls to c* = 0. The point scores the penalty with no gradient, and
    # a fit from it has no starting point
    data = rows_from_values([-1.0], [[1.4, 1.4]])
    spec = ModelSpec()
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    tr = ParamTransform.for_layout(layout)
    start = default_start(layout, cm)
    out = np.zeros(2)
    assert np.isfinite(fitting._kernels.loglik_from_compiled(cm, start, out))
    assert out.tolist() == [0.0, 1.0]
    obj, phi = _objective_at(cm, tr, tr.to_unconstrained(start))
    assert obj(phi) == fitting._PENALTY
    f, g = obj.value_and_grad(phi)
    assert f == fitting._PENALTY and not g.any()
    assert all(scaled is None for _, _, scaled in obj.points.values())
    with pytest.raises(InitializationError, match="no maximum over a common scale"):
        fit(spec, data)


def test_a_stalled_start_leaves_the_next_start_to_converge(monkeypatch):
    spec, data = _recovery_data(seed=8, n=300)
    want = fit(spec, data)
    polish = fitting._polish
    calls = []

    def stall_once(obj, theta):
        calls.append(np.array(theta))
        if len(calls) == 1:  # the first start gets nowhere
            return np.asarray(theta, dtype=float), obj.best_f, False, 0
        return polish(obj, theta)

    monkeypatch.setattr(fitting, "_polish", stall_once)
    methods = _record_methods(monkeypatch)
    res = fit(spec, data, FitOptions(n_starts=2))
    assert len(calls) == 2 and not np.array_equal(calls[0], calls[1])
    assert methods == ["BFGS"]  # the second start's run; the first stalled
    assert res.converged
    assert res.loglik == pytest.approx(want.loglik, abs=1e-6)
    assert np.allclose(res.params_hat, want.params_hat, rtol=1e-3)


def test_bfgs_stopped_on_the_penalty_ends_unconverged(monkeypatch):
    # from a trend variance of 1e-320 the loglik is finite but the score is
    # not, so the BFGS run stops on the penalty with a zero gradient: that
    # is no convergence, the fit ends at the best point it scored, and a
    # note says why BFGS took no step. So it is from a first measurement
    # variance of 1e-320, the coordinate that the profile holds
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    stamps = -np.cumsum(np.random.default_rng(1).exponential(0.01, 40))[::-1] - 0.001
    data = pk.simulate(spec, [0.1, 0.2, 1.0, 0.7, 0.4], stamps, seed=1)
    optimum = fit(spec, data).params_hat
    cm = compile_model(spec, build_layout(spec, data), data)
    methods = _record_methods(monkeypatch)
    for i in (2, 0):  # sigma_eta2.d18O, then sigma_eps2.d18O
        start = optimum.copy()
        start[i] = 1e-320
        start_loglik = pk.kalman.loglik(cm, start)
        assert np.isfinite(start_loglik)
        methods.clear()
        res = fit(spec, data, FitOptions(start=start))
        assert methods == ["BFGS"]
        assert not res.converged
        assert res.loglik >= start_loglik
        assert res.iterations == 0
        assert "the score is not finite at start 1, so BFGS took no step from it" in res.notes


def test_unconverged_fit_returns_the_best_point_seen(monkeypatch):
    # the d13C trend is the d18O trend halved, so the optimum is at rho = 1:
    # the BFGS run stops within 1e-6 of the boundary with its gradient above
    # the tolerance, at a point that scores above one it scored before. The
    # fit returns that best point, unconverged, with a note and no SE for rho
    rng = np.random.default_rng(6)
    stamps = np.sort(-rng.uniform(0.2, 4.0, size=150))
    level = np.cumsum(rng.standard_normal(150) * 0.25)
    d18o = level + rng.standard_normal(150) * 0.15
    d13c = 0.5 * level + rng.standard_normal(150) * 0.2
    data = rows_from_values(stamps, [[v] for v in d18o], [[v] for v in d13c])
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    logliks = _record_logliks(monkeypatch)
    methods = _record_methods(monkeypatch)
    res = fit(spec, data)
    assert methods == ["BFGS"]
    assert not res.converged
    assert res.n_evals < 150
    seen = [ll for ll in logliks[: res.n_evals] if np.isfinite(ll)]
    assert res.loglik == pytest.approx(max(seen), rel=1e-12)
    assert res.loglik > logliks[0] + 100.0
    # and a note says why: rho ended on the boundary, where it has no SE
    i = res.param_names.index("rho")
    rho = res.params_hat[i]
    assert abs(rho) >= fitting._RHO_EDGE
    assert (
        f"rho (group pooled) = {float(rho)!r}: the correlation is at the boundary "
        "|rho| = 1, so no optimum lies inside (-1, 1)"
    ) in res.notes
    assert np.isnan(res.std_errors[i])
    assert np.all(np.isfinite(np.delete(res.std_errors, i)))


def test_a_run_cut_short_ends_at_the_best_point_it_scored(monkeypatch):
    # BFGS allowed no iteration ends at its start, unconverged, above the
    # better of the curvature probes either side of it along each free
    # coordinate: the fit returns that probe's point, at its best scale
    spec, data = _recovery_data(seed=4, n=200)
    minimize = scipy.optimize.minimize

    def no_iteration(*args, **kwargs):
        kwargs["options"] = {**kwargs["options"], "maxiter": 0}
        return minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", no_iteration)
    logliks = _record_logliks(monkeypatch)
    res = fit(spec, data)
    d = res.n_params
    assert not res.converged and res.iterations == 0
    assert res.n_evals == 1 + 2 * (d - 1)  # the start, then its probes
    start, probes = logliks[0], logliks[1 : res.n_evals]
    assert max(probes) > start
    assert res.loglik == pytest.approx(max(probes), rel=1e-12)
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    assert res.loglik == pytest.approx(pk.kalman.loglik(cm, res.params_hat), rel=1e-12)


def test_convergence_reads_the_held_coordinates_gradient(monkeypatch):
    # converged bounds the gradient in all d coordinates: the same run, with
    # the held coordinate's entry read as twice the tolerance at every
    # point, ends at the same point unconverged
    class Steep(dict):
        def __getitem__(self, key):
            f, g, scaled = super().__getitem__(key)
            if g is not None and np.all(np.isfinite(g)):
                g = np.r_[2.0 * fitting._GRAD_TOL, g[1:]]
            return f, g, scaled

    spec, data = _recovery_data(seed=4, n=200)
    want = fit(spec, data)
    polish = fitting._polish

    def steep(obj, phi):
        obj.points = Steep(obj.points)
        return polish(obj, phi)

    monkeypatch.setattr(fitting, "_polish", steep)
    res = fit(spec, data)
    assert want.converged and not res.converged
    assert np.array_equal(res.params_hat, want.params_hat)


@pytest.mark.parametrize(
    "n_starts, model",
    [pytest.param(1, None, id="1"), pytest.param(3, None, id="3")]
    + [pytest.param(1, model, id=model) for model in _CATALOGUE],
)
def test_converged_fit_runs_bfgs_once_per_start(monkeypatch, n_starts, model):
    if model is None:
        spec, data = _recovery_data(seed=6, n=240)
    else:
        spec, data = _catalogue_data(model)
    methods = _record_methods(monkeypatch)
    res = fit(spec, data, FitOptions(n_starts=n_starts, seed=11))
    assert res.converged
    assert methods == ["BFGS"] * n_starts  # one run per start, nothing else


def test_n_evals_counts_the_kernel_calls_outside_the_hessian(monkeypatch):
    spec, data = _recovery_data(seed=4, n=200)
    kernel = fitting._kernels.loglik_from_compiled
    calls = []

    def counted(cm, params, out=None):
        calls.append((np.array(params), None if out is None else out.size))
        return kernel(cm, params, out)

    monkeypatch.setattr(fitting._kernels, "loglik_from_compiled", counted)
    res = fit(spec, data)
    d = res.n_params
    assert res.converged
    assert len(calls) == res.n_evals + 2 * d * d + 1
    # fit scores the start with the score's parts (a 2 + 2d array), then
    # the curvature probes run with (S, N*) only (a 2-array) at +-h_i along
    # each free coordinate in turn, then every BFGS evaluation asks for the
    # score's parts; the Hessian's points ask for the loglik alone
    tr = ParamTransform.for_layout(res.layout)
    theta0 = tr.to_unconstrained(default_start(res.layout, compile_model(spec, res.layout, data)))
    h = fitting._HESS_STEP * (1.0 + np.abs(theta0))
    want = [theta0]
    for i in range(1, d):
        for sign in (1.0, -1.0):
            probe = theta0.copy()
            probe[i] += sign * h[i]
            want.append(probe)
    fit_calls = [params for params, _ in calls[: res.n_evals]]
    assert res.n_evals > len(want) == 2 * d - 1
    for got, theta in zip(fit_calls, want):
        assert np.array_equal(got, tr.to_natural(theta))
    probes = 2 * (d - 1)
    bfgs = res.n_evals - 1 - probes
    assert [size for _, size in calls] == (
        [2 + 2 * d] + [2] * probes + [2 + 2 * d] * bfgs + [None] * (2 * d * d + 1)
    )
    # every evaluation holds the first measurement variance at its start
    # value, and the Hessian is taken at theta_hat = log(params_hat)
    assert all(params[0] == fit_calls[0][0] for params in fit_calls)
    assert np.array_equal(calls[res.n_evals][0], tr.to_natural(res.theta_hat))
    # BFGS starts at the start point and takes its value: the start is
    # scored once, and no point twice in a row before the Hessian's evals
    assert sum(np.array_equal(c, fit_calls[0]) for c in fit_calls) == 1
    assert all(not np.array_equal(a, b) for a, b in zip(fit_calls, fit_calls[1:]))


@pytest.mark.parametrize(
    "n_starts, model",
    [pytest.param(1, None, id="rwn"), pytest.param(3, None, id="rwn-3-starts")]
    + [pytest.param(1, model, id=model) for model in ("rwn-source", "biv")],
)
def test_fit_runs_one_forward_pass_per_evaluation(monkeypatch, n_starts, model):
    # each counted evaluation runs one forward pass, a BFGS evaluation's
    # score included, and so does each of the Hessian's 2d^2 + 1 points;
    # BFGS's first evaluation at each start reuses the pass that scored it,
    # and before the Hessian no point reaches the kernel twice in one mode
    if model is None:
        spec, data = _recovery_data(seed=6, n=240)
    else:
        spec, data = _catalogue_data(model)
    forward = pk.kalman._forward_pass
    passes, points = [], []

    def counted(cm, params, keep_paths=False, start=None):
        passes.append(keep_paths)
        points.append((np.asarray(params, dtype=float).tobytes(), keep_paths))
        return forward(cm, params, keep_paths, start)

    def refuse(*args, **kwargs):
        raise AssertionError("kalman.score called")

    monkeypatch.setattr(pk.kalman, "_forward_pass", counted)
    monkeypatch.setattr(pk.kalman, "score", refuse)
    res = fit(spec, data, FitOptions(n_starts=n_starts, seed=11))
    d = res.n_params
    assert res.converged
    assert len(passes) == res.n_evals + 2 * d * d + 1
    # every counted evaluation but the 2(d - 1) curvature probes of each
    # start (each start and each BFGS evaluation) ran in paths mode for the
    # score, and none of the Hessian's points did
    assert sum(passes) == res.n_evals - 2 * (d - 1) * n_starts
    assert not any(passes[res.n_evals :])
    assert len(set(points[: res.n_evals])) == res.n_evals


def _inline_numerical_hessian(f, x):
    """numerical_hessian with its diagonal loop written out, as it was
    before the loop moved into _second_differences: the reference for
    evaluation order and bits."""
    x = np.asarray(x, dtype=float)
    d = x.size
    h = fitting._HESS_STEP * (1.0 + np.abs(x))
    H = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        H[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / (h[i] * h[i])
    for i in range(d):
        for j in range(i + 1, d):
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[i] += h[i]
            xpp[j] += h[j]
            xpm[i] += h[i]
            xpm[j] -= h[j]
            xmp[i] -= h[i]
            xmp[j] += h[j]
            xmm[i] -= h[i]
            xmm[j] -= h[j]
            H[i, j] = H[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (
                4.0 * h[i] * h[j]
            )
    return H


def test_numerical_hessian_is_bitwise_the_inline_loop():
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    stamps = random_stamps(np.random.default_rng(3), 60)
    data = pk.simulate(spec, [0.1, 0.2, 1.0, 0.7, 0.4], stamps, slots_per_row=2, seed=3)
    layout = build_layout(spec, data)
    tr = ParamTransform.for_layout(layout)
    obj = fitting._negative_loglik(compile_model(spec, layout, data), tr)
    theta = tr.to_unconstrained([0.12, 0.25, 0.9, 0.6, 0.3])
    points = {"new": [], "inline": []}

    def recorded(key):
        def f(x):
            points[key].append(np.array(x))
            return obj(x)

        return f

    H = numerical_hessian(recorded("new"), theta)
    want = _inline_numerical_hessian(recorded("inline"), theta)
    assert H.tobytes() == want.tobytes()
    assert len(points["new"]) == 2 * 5 * 5 + 1
    assert all(np.array_equal(a, b) for a, b in zip(points["new"], points["inline"], strict=True))


def test_curvature_probe_on_the_penalty_keeps_the_identity(monkeypatch):
    # by-source, d = 3: the + probe of the first free coordinate at the
    # start scores the penalty, so BFGS starts with 1 there and the measured
    # curvature at the other, and the fit still converges to the unhindered
    # optimum
    spec, data = _catalogue_data("rwn-source")
    want = fit(spec, data)
    layout = build_layout(spec, data)
    cm = compile_model(spec, layout, data)
    tr = ParamTransform.for_layout(layout)
    theta0 = tr.to_unconstrained(default_start(layout, cm))
    scaled, phi0 = _objective_at(cm, tr, theta0, scale=1.0 / cm.n_obs_slots)
    c, worst = fitting._second_differences(scaled, phi0, scaled(phi0))
    assert c.size == 2 and np.all(c > 0) and np.all(worst < fitting._PENALTY)
    bad = theta0.copy()
    bad[1] += fitting._HESS_STEP * (1.0 + abs(theta0[1]))
    bad_params = tr.to_natural(bad)
    kernel = fitting._kernels.loglik_from_compiled

    def failing(cm, params, out=None):
        if not np.array_equal(params, bad_params):
            return kernel(cm, params, out)
        if out is not None:
            out[:] = np.nan
        return np.nan

    monkeypatch.setattr(fitting._kernels, "loglik_from_compiled", failing)
    minimize = scipy.optimize.minimize
    hess_inv0 = []

    def record(*args, **kwargs):
        hess_inv0.append(kwargs["options"]["hess_inv0"])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", record)
    res = fit(spec, data)
    assert np.array_equal(hess_inv0[0], np.diag([1.0, 1.0 / c[1]]))
    assert res.converged
    assert res.loglik == pytest.approx(want.loglik, rel=1e-10)
    assert np.allclose(res.params_hat, want.params_hat, rtol=1e-4)


# ---------------------------------------------------------------------------
# standard errors and BIC
# ---------------------------------------------------------------------------


def test_bic_formula():
    assert bic(100.0, 3, 50) == pytest.approx(-200.0 + 3 * math.log(50))
    with pytest.raises(ValueError):
        bic(1.0, 1, 0)


def test_fit_result_bic_consistent():
    spec, data = _recovery_data(seed=10, n=250)
    res = fit(spec, data)
    assert res.bic == pytest.approx(bic(res.loglik, res.n_params, res.n_obs))


def test_default_start_is_admissible():
    spec = ModelSpec(arity="bivariate", corr_grouping="pooled")
    rng = np.random.default_rng(5)
    stamps = random_stamps(rng, 40, mean_dt=0.05)
    data = pk.simulate(spec, [0.3, 0.4, 1.0, 0.8, 0.2], stamps, slots_per_row=2, seed=5)
    layout = build_layout(spec, data)
    start = default_start(layout, compile_model(spec, layout, data))
    layout.validate_params(start)  # must not raise


def test_within_row_differences_are_the_combinations_of_each_row():
    # default_start's measurement-variance start reads these differences
    # through np.var, so their order matters to its last bits: rows of one to
    # eight slots, as combinations lists each row's pairs, rows in order
    rng = np.random.default_rng(8)
    for _ in range(50):
        rows = np.sort(rng.integers(0, 12, rng.integers(0, 40)))
        vals = rng.normal(size=rows.size) * 10.0 ** rng.uniform(-4, 4, rows.size)
        want = [
            a - b
            for row in np.split(vals, np.flatnonzero(np.diff(rows)) + 1)
            for a, b in itertools.combinations(row.tolist(), 2)
        ]
        got = fitting._within_row_differences(vals, rows)
        assert got.tobytes() == np.array(want, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# result serialization
# ---------------------------------------------------------------------------


def test_fit_result_json_round_trip():
    spec, data = _recovery_data(seed=12, n=200)
    res = fit(spec, data)
    payload = json.loads(json.dumps(res.to_json_dict()))
    assert set(payload.keys()) == {
        "model",
        "params",
        "loglik",
        "bic",
        "n_obs",
        "n_params",
        "converged",
        "iterations",
    }
    again = FitResult.from_json_dict(payload)
    assert again.spec == spec
    assert np.allclose(again.params_hat, res.params_hat)
    assert np.allclose(again.std_errors, res.std_errors, equal_nan=True)
    assert again.loglik == res.loglik
    assert again.converged == res.converged


def test_fit_result_json_nan_se_becomes_null():
    data = rows_from_values([-1.0], [[1.4, 2.2]])
    res = fit(ModelSpec(), data)
    payload = res.to_json_dict()
    assert payload["params"][1]["se"] is None
    assert payload["params"][0]["se"] is not None
