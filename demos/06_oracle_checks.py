"""Independent verification of the BSDE solver.

Brute-force dynamic programming on a quantized tree (moment-matched Gaussian
increments x default branch, explicit strategy grid) reproduces the solver's
value; the process exp(-gamma X) Y(t, S, N) is a martingale along simulated
paths under the extracted optimal strategy and a strict submartingale under
a suboptimal one.
"""
from defaultbsde import (Claim, MarketModel, Quadrature, RegimeCoefficients,
                         SpaceGrid, StrategySet, TimeGrid, brute_force_dp,
                         extract_optimal_strategy, martingale_check, solve_bsde,
                         surface_at_origin)

model = MarketModel(grid=TimeGrid(1.0, 200),
                    coeffs=RegimeCoefficients.constant(mu=1.0, sigma=1.0,
                                                       beta=0.0, lam=0.0),
                    gamma=1.0)
claim = Claim.constant(0.0)
space = SpaceGrid.for_model(model, 100)
quad = Quadrature.gauss_hermite(7)

surf = solve_bsde(model, claim, StrategySet(-2, 2), space, quad)
j0 = surface_at_origin(surf)
dp = brute_force_dp(model, claim, k=2.0, n_small=8, q=7, g=81)
print(f"solver J0={j0:.8f}  tree DP={dp:.8f}  rel gap={abs(j0 - dp) / dp:.2e}")

optimal = extract_optimal_strategy(surf)
drift = martingale_check(model, claim, surf, optimal, n_paths=10_000, seed=1)
print(f"optimal strategy: drift={drift.aggregate_mean:+.2e} "
      f"se={drift.aggregate_se:.2e} -> martingale within 3 SE: {drift.within(3.0)}")

lazy = martingale_check(model, claim, surf, lambda t, s, n: 0.0,
                        n_paths=10_000, seed=1)
print(f"zero strategy:    drift={lazy.aggregate_mean:+.2e} "
      f"se={lazy.aggregate_se:.2e} -> strict submartingale: "
      f"{lazy.aggregate_mean > 3 * lazy.aggregate_se}")
