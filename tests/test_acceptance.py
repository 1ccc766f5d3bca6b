"""Release acceptance checks, one test per criterion.

Each criterion is a single test function so `pytest -v` prints one
pass/fail line per criterion. Tolerances and runtime budgets are asserted
inline. Criterion 9 needs the full published dataset, which is not
bundled; point PALEOKALMAN_DATA at a CSV in the ingest schema to run it.
"""

import math
import os
import time

import numpy as np
import pytest

from paleokalman import ModelSpec, build_layout
from paleokalman.butterworth import cutoff_frequency, signal_to_noise
from paleokalman.core import collate_rows, flatten_records
from paleokalman.fitting import FitOptions, bic, fit
from paleokalman.imputation import impute, make_grid
from paleokalman.ingest import ingest
from paleokalman.kalman import filter as kfilter
from paleokalman.kalman import smooth
from paleokalman.oracle import exact_gaussian, simulate

from conftest import recollate


def _random_stamps(rng, n, lo=0.02, hi=0.3):
    t = np.cumsum(rng.uniform(lo, hi, size=n))
    return list(t - t[-1] - 0.05)


def _series_subset(data, series_name):
    recs = [r for r in flatten_records(data) if r[1] == series_name]
    return collate_rows(recs)


# ---------------------------------------------------------------------------
# 1. small-instance oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence():
    """Filter/smoother match brute-force Gaussian conditioning, 1e-8 rel.

    Five model variants x 20 seeded instances (N <= 8, proper priors):
    loglik, filtered and smoothed means/covariances. Budget 10 s.
    """
    configs = [
        ("m1-pooled", ModelSpec(), 2, 1, 2),
        ("m1-by-source", ModelSpec(meas_grouping="by-source"), 4, 3, 3),
        ("m2", ModelSpec(order_m=2), 2, 1, 1),
        ("m3", ModelSpec(order_m=3), 2, 1, 1),
        ("biv-rho07", ModelSpec(arity="bivariate", corr_grouping="pooled"), 5, 1, 2),
    ]
    started = time.perf_counter()
    checked = 0
    for label, spec, n_params, n_sources, slots in configs:
        for seed in range(20):
            rng = np.random.default_rng(10_000 + 97 * seed + len(label))
            n = int(rng.integers(4, 9))
            stamps = _random_stamps(rng, n)
            params = np.empty(n_params)
            n_eps = n_sources if "source" in label else spec.n_series
            params[:n_eps] = rng.uniform(0.02, 0.5, size=n_eps)
            n_eta = spec.n_series
            params[n_eps : n_eps + n_eta] = rng.uniform(0.3, 2.0, size=n_eta)
            if spec.arity == "bivariate":
                params[-1] = 0.7

            s = spec.state_dim
            a1 = rng.standard_normal(s)
            root = rng.standard_normal((s, s))
            P1 = root @ root.T + 0.5 * np.eye(s)

            data = simulate(
                spec,
                params,
                stamps,
                slots_per_row=slots,
                seed=seed,
                n_sources=n_sources,
                init_mean=a1,
                init_cov=P1,
            )
            layout = build_layout(spec, data)
            assert layout.n_params == n_params

            run = kfilter(spec, layout, params, data, init=(a1, P1))
            paths = smooth(run)
            orc = exact_gaussian(spec, params, data, a1, P1, layout)

            assert math.isclose(run.loglik, orc.loglik, rel_tol=1e-8), label
            pairs = [
                (paths.filtered_means, orc.filtered_means),
                (paths.filtered_covs, orc.filtered_covs),
                (paths.smoothed_means, orc.smoothed_means),
                (paths.smoothed_covs, orc.smoothed_covs),
            ]
            for got, want in pairs:
                assert np.allclose(got, want, rtol=1e-8, atol=1e-10), label
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 100
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. NA-insertion invariance
# ---------------------------------------------------------------------------


def test_criterion_02_na_insertion_invariance():
    """100 all-missing rows leave loglik and smoothed values bitwise unchanged.

    Orders m in {1, 2, 4, 6} plus the bivariate model. Budget 30 s.
    """
    cases = [
        (ModelSpec(order_m=1), [0.1, 1.2]),
        (ModelSpec(order_m=2), [0.1, 1.2]),
        (ModelSpec(order_m=4), [0.1, 1.2]),
        (ModelSpec(order_m=6), [0.1, 1.2]),
        (
            ModelSpec(arity="bivariate", corr_grouping="pooled"),
            [0.04, 0.09, 1.5, 0.8, 0.5],
        ),
    ]
    started = time.perf_counter()
    for spec, params in cases:
        rng = np.random.default_rng(300 + spec.order_m + spec.n_series)
        stamps = _random_stamps(rng, 60, lo=0.01, hi=0.12)
        data = simulate(spec, params, stamps, slots_per_row=1, seed=5)
        layout = build_layout(spec, data)
        run = kfilter(spec, layout, params, data)
        paths = smooth(run)

        fillers = rng.uniform(min(stamps), max(stamps), size=100)
        aug = recollate(data, empty_stamps=fillers)
        run2 = kfilter(spec, layout, params, aug)
        paths2 = smooth(run2)

        keep = np.flatnonzero(np.isin(aug.view.stamps, stamps))
        assert len(keep) == data.n_rows
        assert run2.loglik == run.loglik
        assert np.array_equal(paths2.smoothed_means[keep], paths.smoothed_means)
        assert np.array_equal(paths2.smoothed_covs[keep], paths.smoothed_covs)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"NA-insertion check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. parameter recovery at scale
# ---------------------------------------------------------------------------


def test_criterion_03_parameter_recovery():
    """Pooled model, N=5000 irregular stamps: truth within 3 SEs, >= 18/20 seeds.

    True values sigma_eps2 = 0.02, sigma_eta2 = 1.8 (layout order), mean
    increment 0.00283 My drawn from an exponential. Budget 5 min.
    """
    spec = ModelSpec()
    true = np.array([0.02, 1.8])  # layout order: [sigma_eps2, sigma_eta2]
    started = time.perf_counter()
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(7_700 + seed)
        dts = rng.exponential(0.00283, size=5000)
        t = np.cumsum(dts)
        stamps = list(t - t[-1] - 0.001)
        data = simulate(spec, true, stamps, slots_per_row=1, seed=seed)
        res = fit(spec, data, FitOptions(seed=seed))
        assert res.converged
        ok = all(
            np.isfinite(se) and abs(hat - tv) <= 3.0 * se
            for hat, tv, se in zip(res.params_hat, true, res.std_errors)
        )
        hits += ok
    elapsed = time.perf_counter() - started
    assert hits >= 18, f"recovery hit {hits}/20 seeds"
    assert elapsed < 300.0, f"recovery took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. Butterworth cutoff anchors
# ---------------------------------------------------------------------------

# published (q, m) -> lambda_h anchor cells; tolerance is +-5e-4 absolute,
# or 5% relative where lambda_h < 0.01 and the absolute band is vacuous
_ANCHORS = [
    (0.2537, 1, 0.5092),
    (0.0095, 2, 0.0974),
    (2.8447e-7, 4, 5.3336e-4),
    (9.6940e-10, 5, 3.1135e-5),
    (3.0777e-12, 6, 1.7543e-6),
    (0.1009, 1, 0.3191),
    (0.0020, 2, 0.0445),
    (9.1488e-6, 3, 0.0030),
    (2.3601e-8, 4, 1.5363e-4),
    (9.4511e-12, 5, 3.0743e-6),
    (3.5973e-15, 6, 5.9978e-8),
]


def test_criterion_04_butterworth_anchors():
    """cutoff_frequency reproduces the published (q, m) anchor cells. Budget 1 s."""
    started = time.perf_counter()
    for q, m, lam in _ANCHORS:
        got = cutoff_frequency(q)
        if lam < 0.01:
            assert abs(got - lam) <= 0.05 * lam, (q, m)
        else:
            assert abs(got - lam) <= 5e-4, (q, m)
    assert time.perf_counter() - started < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="published q for this cell is rounded to one significant digit "
    "(0.0001); the unrounded value 1.4884e-4 implied by the printed "
    "lambda_h reproduces 0.0122 exactly",
)
def test_criterion_04_butterworth_anchor_m3_printed_q():
    got = cutoff_frequency(0.0001)
    assert abs(got - 0.0122) <= 5e-4


# ---------------------------------------------------------------------------
# 5. BIC arithmetic
# ---------------------------------------------------------------------------


def test_criterion_05_bic_arithmetic():
    """bic() matches the published table values within +-0.1. Budget 1 s."""
    started = time.perf_counter()
    got = bic(7218.57, 2, 24259)
    assert abs(got - (-14416.95)) <= 0.1
    assert abs(got - (-14416.99)) <= 0.1  # the published rounding
    got2 = bic(2992.10, 2, 23939)
    assert abs(got2 - (-5964.03)) <= 0.1
    assert abs(got2 - (-5964.05)) <= 0.1
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 6. signal-to-noise cross-check
# ---------------------------------------------------------------------------


def test_criterion_06_signal_to_noise_cross_check():
    """Published variance estimates reproduce the published m=1 q values.

    mean_dt is the full span over its 23721 increments; +-0.002. Budget 1 s.
    """
    started = time.perf_counter()
    mean_dt = (67.101133 - 0.000564) / 23721
    q1 = signal_to_noise(1.8364, 0.0205, mean_dt)
    q2 = signal_to_noise(1.2135, 0.0340, mean_dt)
    assert abs(q1 - 0.2537) <= 0.002
    assert abs(q2 - 0.1009) <= 0.002
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 7. bivariate factorization at rho = 0
# ---------------------------------------------------------------------------


def test_criterion_07_bivariate_factorization():
    """With rho = 0 the joint model factorizes into the two univariate ones.

    Joint loglik equals the sum to 1e-8 relative; smoothed levels coincide
    to 1e-8.
    """
    biv = ModelSpec(arity="bivariate", corr_grouping="pooled")
    rng = np.random.default_rng(42)
    stamps = _random_stamps(rng, 120, lo=0.01, hi=0.08)
    # generate under nonzero correlation; the identity is about the model
    data = simulate(biv, [0.04, 0.09, 1.5, 0.8, 0.5], stamps, seed=9)
    layout = build_layout(biv, data)

    params0 = [0.04, 0.09, 1.5, 0.8, 0.0]
    run = kfilter(biv, layout, params0, data)
    paths = smooth(run)

    uni_lls = []
    uni_levels = []
    for arity, series_name, eps, eta in [
        ("univariate-series1", "d18O", 0.04, 1.5),
        ("univariate-series2", "d13C", 0.09, 0.8),
    ]:
        uspec = ModelSpec(arity=arity)
        udata = _series_subset(data, series_name)
        assert udata.n_rows == data.n_rows
        ulayout = build_layout(uspec, udata)
        urun = kfilter(uspec, ulayout, [eps, eta], udata)
        uni_lls.append(urun.loglik)
        uni_levels.append(smooth(urun).smoothed_means[:, 0])

    total = sum(uni_lls)
    assert abs(run.loglik - total) <= 1e-8 * abs(total)
    assert np.allclose(paths.smoothed_means[:, 0], uni_levels[0], rtol=1e-8, atol=1e-10)
    assert np.allclose(paths.smoothed_means[:, 1], uni_levels[1], rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# 8. nesting monotonicity
# ---------------------------------------------------------------------------


def test_criterion_08_nesting_monotonicity():
    """Richer nested fits never lose log-likelihood.

    By-source >= pooled on three-source data; free-rho bivariate >= the sum
    of the univariate fits.
    """
    rng = np.random.default_rng(77)

    src_spec = ModelSpec(meas_grouping="by-source")
    stamps = _random_stamps(rng, 250, lo=0.005, hi=0.05)
    src_data = simulate(
        src_spec, [0.02, 0.05, 0.1, 1.0], stamps, slots_per_row=3, seed=21, n_sources=3
    )
    pooled = fit(ModelSpec(), src_data, FitOptions())
    by_source = fit(src_spec, src_data, FitOptions())
    assert by_source.loglik + 1e-6 >= pooled.loglik

    biv = ModelSpec(arity="bivariate", corr_grouping="pooled")
    stamps2 = _random_stamps(rng, 250, lo=0.005, hi=0.05)
    biv_data = simulate(biv, [0.04, 0.09, 1.2, 0.9, 0.6], stamps2, seed=22)
    joint = fit(biv, biv_data, FitOptions())
    uni_total = 0.0
    for arity, name in [("univariate-series1", "d18O"), ("univariate-series2", "d13C")]:
        uspec = ModelSpec(arity=arity)
        uni_total += fit(uspec, _series_subset(biv_data, name), FitOptions()).loglik
    assert joint.loglik + 1e-6 >= uni_total


# ---------------------------------------------------------------------------
# 9. full-data reproduction (conditional)
# ---------------------------------------------------------------------------


def test_criterion_09_full_data_reproduction():
    """Rerun of the published pooled fit on the full dataset, if supplied."""
    path = os.environ.get("PALEOKALMAN_DATA")
    if not path or not os.path.exists(path):
        pytest.skip(
            "full dataset not bundled; set PALEOKALMAN_DATA to the published "
            "record in the ingest CSV schema to run this check"
        )
    data, diag = ingest(path)
    assert diag["n_rows"] == 23722
    assert abs(diag["min_dt"] - 1e-6) <= 1e-9
    assert abs(diag["max_dt"] - 0.115366) <= 1e-6

    res = fit(ModelSpec(), data, FitOptions())
    eps_hat, eta_hat = res.params_hat
    assert abs(eta_hat - 1.8364) <= 0.02 * 1.8364
    assert abs(eps_hat - 0.0205) <= 0.02 * 0.0205
    assert abs(res.loglik - 7218.57) <= 5.0


# ---------------------------------------------------------------------------
# 10. imputation grid
# ---------------------------------------------------------------------------


def test_criterion_10_imputation_grid():
    """Grid sizes floor(span/mesh) over [67, 0]; coincident points are exact.

    670 / 6700 / 67000 points for 100000 / 10000 / 1000 year meshes; grid
    values at observed stamps equal the data-row smoothed values exactly.
    """
    for mesh, count in ((100000.0, 670), (10000.0, 6700), (1000.0, 67000)):
        grid = make_grid(67.0, 0.0, mesh)
        assert len(grid) == count
        assert grid[0] == -67.0

    spec = ModelSpec()
    params = [0.05, 1.0]
    grid = make_grid(3.0, 0.0, 100000.0)
    stamps = [grid[0], grid[5], grid[12], grid[20], grid[29]]
    data = simulate(spec, params, stamps, slots_per_row=2, seed=13)
    layout = build_layout(spec, data)
    paths = smooth(kfilter(spec, layout, params, data))
    table = impute(np.asarray(params), spec, data, grid)

    by_stamp = {t: i for i, t in enumerate(table.stamps)}
    for row_idx, stamp in enumerate(stamps):
        g = by_stamp[stamp]
        assert table.means[g, 0] == paths.smoothed_means[row_idx, 0]
        assert table.sds[g, 0] == math.sqrt(paths.smoothed_covs[row_idx, 0, 0])
