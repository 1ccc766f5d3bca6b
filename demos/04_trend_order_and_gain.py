"""
Trend order and frequency response
==================================

An order-m trend integrates white noise m times; larger m gives smoother
trends. The implied low-pass filter is a Butterworth gain

    g(lambda) = 1 / (1 + q^-1 * 2^(2m) * sin(lambda/2)^(2m))

whose cutoff frequency follows from the fitted signal-to-noise ratio
q = sigma_eta2 * mean_dt / sigma_eps2.
"""

import numpy as np

import paleokalman as pk

rng = np.random.default_rng(8)
dts = rng.exponential(0.01, size=600)
t = np.cumsum(dts)
stamps = list(t - t[-1] - 0.005)

# one dataset, three trend orders
base = pk.simulate(pk.ModelSpec(order_m=2), [0.05, 2.0], stamps, seed=8)
mean_dt = pk.mean_increment(base.view.stamps)
print(f"mean increment {mean_dt:.5f} My over {base.n_rows} rows\n")

print(f"{'m':>2} {'sigma_eps2':>11} {'sigma_eta2':>11} {'loglik':>9} "
      f"{'q_m':>10} {'lambda_h':>9}")
for m in (1, 2, 3):
    spec = pk.ModelSpec(order_m=m)
    res = pk.fit(spec, base, pk.FitOptions(seed=0))
    eps, eta = res.params_hat
    q = pk.signal_to_noise(eta, eps, mean_dt)
    lam = pk.cutoff_frequency(q) if q <= 4.0 else float("nan")
    print(f"{m:>2} {eps:>11.4f} {eta:>11.4f} {res.loglik:>9.2f} "
          f"{q:>10.3g} {lam:>9.4f}")

# Gain curves: the same q filters more sharply at higher order. At
# lambda = pi/3 every order passes exactly q/(q+1) of the signal.
q = 0.25
pivot = 1.0 / (1.0 + 1.0 / q)
print(f"\ngain at the pivot pi/3 for q={q}: {pivot:.4f} at every order")
for lam in (0.05, np.pi / 3, 1.5):
    row = "  ".join(f"m={m}: {pk.gain(lam, q, m):.4f}" for m in (1, 2, 3))
    print(f"  lambda {lam:4.2f}   {row}")

curve = pk.gain_curve(q, 2, n_samples=512)
pk.write_gain_csv(curve, "gain_m2.csv", (f"# demo gain curve, q={q}, m=2",))
print("\nwrote gain_m2.csv (lambda,gain pairs, plot-ready)")

# No finite cutoff exists once q exceeds 4: the filter passes more than
# half the signal at every frequency.
try:
    pk.cutoff_frequency(5.0)
except ValueError as exc:
    print(f"q=5: {exc}")
