"""Backward BSDE solves against closed forms.

Two classic sanity cases: the no-default market with zero claim (value
exp(-(mu/sigma)^2 T / 2), constant optimal strategy mu/(gamma sigma^2)) and a
defaultable zero-recovery bond with zero risk premium (plain conditional
expectation, zero optimal strategy).
"""
import math

import numpy as np

from defaultbsde import (Claim, MarketModel, Quadrature,
                         RegimeCoefficients, SpaceGrid, StrategySet, TimeGrid,
                         extract_optimal_strategy, solve_bsde, surface_at_origin)

quad = Quadrature.gauss_hermite(7)

merton = MarketModel(grid=TimeGrid(1.0, 200),
                     coeffs=RegimeCoefficients.constant(mu=1.0, sigma=1.0,
                                                        beta=0.0, lam=0.0),
                     gamma=1.0)
surf = solve_bsde(merton, Claim.constant(0.0), StrategySet(-2, 2),
                  SpaceGrid.for_model(merton, 200), quad)
j0 = surface_at_origin(surf)
print(f"no-default market: J0={j0:.6f} closed form={math.exp(-0.5):.6f} "
      f"(err {abs(j0 - math.exp(-0.5)):.1e})")
pi = extract_optimal_strategy(surf)
print("optimal strategy at (t=0.5, s=1):", float(pi(0.5, np.array([1.0]), np.array([0]))[0]),
      "(closed form mu/(gamma sigma^2) = 1)")

bond = MarketModel(grid=TimeGrid(1.0, 100),
                   coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.2,
                                                      beta=0.0, lam=0.1),
                   gamma=1.0)
bsurf = solve_bsde(bond, Claim.default_indicator(1.0, 0.0), StrategySet(-2, 2),
                   SpaceGrid.for_model(bond, 100), quad)
closed = math.exp(-1.1) + 1 - math.exp(-0.1)
print(f"defaultable bond:  J0={surface_at_origin(bsurf):.12f} closed form={closed:.12f}")

print("value bounds hold:", bool((bsurf.Y > 0).all() and (bsurf.Y <= 1).all()))
bsurf.to_csv("/tmp/bond_surface.csv")
print("surface written to /tmp/bond_surface.csv (columns i,t,j,x,s,n,Y,Z,U,pi_hat)")
