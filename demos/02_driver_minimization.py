"""The strategy-indexed driver and its constrained infimum.

Shows the linear driver f_pi, the closed-form (Lambert W) minimizer against
a brute-force scan, the Lipschitz bound of the infimum, and the quadratic
driver reached through the log change of variables.
"""
import math

import numpy as np

from defaultbsde import (CoeffSnapshot, StrategySet, f_pi, g_quadratic,
                         jump_comparison_bounds, lipschitz_bound, minimize_driver)

c = CoeffSnapshot(mu=0.05, sigma=1.0, lam=0.3, beta=-0.4, gamma=1.0)
strat = StrategySet(-3.0, 3.0)
y, z, u = 1.0, 0.2, -0.1

f_min, pi_star = minimize_driver(c, strat, y, z, u)
print(f"constrained infimum: f_min={f_min:.10f} at pi*={pi_star:.8f}")

pis = np.linspace(strat.lo, strat.hi, 1_000_001)
scan = f_pi(c, pis, y, z, u)
print(f"dense-scan check:    min={scan.min():.10f} at pi={pis[scan.argmin()]:.8f}")

print(f"Lipschitz bound of the infimum driver: {lipschitz_bound(c, strat):.4f}")
c1, c2 = jump_comparison_bounds(c, strat)
print(f"jump comparison coefficient in [{c1:.4f}, {c2:.4f}] (must stay > -1)")

# the quadratic driver after y = (1/gamma) log Y; the Ito terms link the two
zs = z / (c.gamma * y)
us = math.log1p(u / y) / c.gamma
g = g_quadratic(c, strat, zs, us)
recovered = c.gamma * y * g + c.gamma * c.lam * y * us - z * z / (2 * y) - c.lam * u
print(f"quadratic driver g={g:.10f}; f_min recovered from it: {recovered:.10f}")
print(f"identity gap: {abs(recovered - f_min):.2e}")
