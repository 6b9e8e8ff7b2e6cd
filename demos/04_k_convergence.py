"""Truncated strategy sets and the k -> infinity limit.

The value function over strategies bounded by k is nonincreasing in k and
flattens once the constraint stops binding; geometric doubling with a
relative Cauchy rule finds the unconstrained value.
"""
from defaultbsde import (Claim, MarketModel, Quadrature, RegimeCoefficients,
                         SpaceGrid, TimeGrid, converge, k_sweep)

model = MarketModel(grid=TimeGrid(1.0, 100),
                    coeffs=RegimeCoefficients.constant(mu=0.12, sigma=0.3,
                                                       beta=0.4, lam=0.25),
                    gamma=1.0)
space = SpaceGrid.for_model(model, 80)
quad = Quadrature.gauss_hermite(7)
claim = Claim.constant(0.0)

res = k_sweep(model, claim, space, quad, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
print("k-sweep (J0 must be nonincreasing):")
for k, j0, hit in zip(res.ks, res.j0s, res.bound):
    print(f"  k={k:5.2f}  J0={j0:.10f}  {'binds' if hit else 'slack'}")
print("monotone violations beyond 1e-9 + noise:", res.monotone_violations)

j0, sweep = converge(model, claim, space, quad, k0=0.25, tol_rel=1e-8)
print(f"\nconverged unconstrained J0={j0:.10f} at k*={sweep.k_star:g} "
      f"after {len(sweep.ks)} solves")
