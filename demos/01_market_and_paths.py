"""Market setup and forward simulation.

Builds a regime-switching market with one defaultable asset, validates it,
simulates paths under a simple strategy, and checks the empirical default
fraction against the analytic survival probability.
"""
import math

import numpy as np

from defaultbsde import (MarketModel, RegimeCoefficients, TimeGrid,
                         simulate_paths, validate_model)

model = MarketModel(
    grid=TimeGrid(horizon=1.0, n_steps=100),
    coeffs=RegimeCoefficients.constant(mu=0.08, sigma=0.25, beta=-0.35, lam=0.3,
                                       mu_post=0.02, sigma_post=0.35),
    gamma=1.0,
    s0=1.0,
)

report = validate_model(model)
print("model ok:", report.ok)
print("market price of risk (pre-default):",
      [f"t={t:g}: {a:+.4f}" for t, a in report.alpha_pre])

ens = simulate_paths(model, lambda t, s, n: 0.5, n_paths=50_000, seed=42)
target = 1.0 - math.exp(-0.3 * 1.0)
print(f"default fraction: {ens.default_fraction():.4f} (analytic {target:.4f})")
print(f"stock range at T: [{ens.stock[:, -1].min():.4f}, {ens.stock[:, -1].max():.4f}]"
      " (always positive)")
print(f"mean wealth at T under pi=0.5: {ens.wealth[:, -1].mean():+.5f}")

jumped = ens.tau_step >= 0
print(f"mean terminal stock | default:    {ens.stock[jumped, -1].mean():.4f}")
print(f"mean terminal stock | no default: {ens.stock[~jumped, -1].mean():.4f}")

# the draws depend only on (seed, n_paths)
ens_a = simulate_paths(model, lambda t, s, n: 0.5, n_paths=1000, seed=42)
ens_b = simulate_paths(model, lambda t, s, n: 0.5, n_paths=1000, seed=42)
print("same seed, same paths:", np.array_equal(ens_a.stock, ens_b.stock))
