"""
Local level on an irregular clock
=================================

Simulate a random-walk-plus-noise series sampled at irregular time stamps,
estimate its two variances by maximum likelihood, and smooth the level.
"""

import numpy as np

import paleokalman as pk

rng = np.random.default_rng(0)

# Irregular stamps in million years, negative-age convention: the oldest
# observation is the most negative, the series runs toward zero.
dts = rng.exponential(0.01, size=800)
t = np.cumsum(dts)
stamps = list(t - t[-1] - 0.005)

spec = pk.ModelSpec()  # univariate d18O, order m=1, pooled variances
true = [0.02, 1.8]  # layout order: sigma_eps2 (noise), sigma_eta2 (trend)
data = pk.simulate(spec, true, stamps, slots_per_row=2, seed=0)
print(f"simulated {data.n_rows} rows, 2 measurements per row")

result = pk.fit(spec, data, pk.FitOptions(seed=0))
for name, hat, se, tv in zip(
    result.param_names, result.params_hat, result.std_errors, true
):
    print(f"  {name:<16} {hat:8.4f}  (se {se:.4f})   truth {tv}")
print(f"loglik {result.loglik:.2f}   BIC {result.bic:.2f}   converged {result.converged}")

# The smoother conditions each level on the full record, in both directions.
layout = pk.build_layout(spec, data)
run = pk.kalman_filter(spec, layout, result.params_hat, data)
paths = pk.smooth(run)

print("\nfirst five smoothed levels (mean +- sd):")
for i in range(5):
    mean = paths.smoothed_means[i, 0]
    sd = np.sqrt(paths.smoothed_covs[i, 0, 0])
    print(f"  t = {data.view.stamps[i]:9.4f}   {mean:7.3f} +- {sd:.3f}")

# Prediction residuals should look like white noise when the model fits.
resid = run.paths.standardized_residuals()
flat = resid[np.isfinite(resid)]
print(f"\nresiduals: mean {flat.mean():+.3f}, variance {flat.var():.3f}")
