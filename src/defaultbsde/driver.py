"""BSDE drivers and their pointwise minimization over a compact strategy set.

Per-strategy linear driver (the generator of the per-strategy value process):

    f_pi = (gamma^2/2) pi^2 sigma^2 y - gamma pi (mu y + sigma z)
           - lam (1 - exp(-gamma pi beta)) (y + u)

The value-function driver is the infimum of f_pi over pi in C = [lo, hi].
On the domain y > 0, y + u >= 0 the map pi -> f_pi is strictly convex
(d2f/dpi2 = gamma^2 sigma^2 y + lam gamma^2 beta^2 e^{-gamma pi beta}(y+u)),
so the argmin is unique: the clip to [lo, hi] of the root of df/dpi = 0.
That root is explicit.  With the vertex A = (mu + sigma z/y) / (gamma sigma^2)
the first-order condition reads pi - A = (lam beta (1 + u/y) / (gamma sigma^2))
e^{-gamma beta pi}, whose solution is

    pi* = A + W0(kappa) / (gamma beta),
    kappa = (lam beta^2 (1 + u/y) / sigma^2) e^{-gamma beta A} >= 0,

with W0 the principal branch of the Lambert W function (Corless et al.,
"On the Lambert W function", 1996).  kappa is handled through ln kappa, so
large gamma beta A cannot overflow.

After the change of variables y = (1/gamma) log Y, z = Z/(gamma Y),
u = (1/gamma) log(1 + U/Y), the same infimum becomes the quadratic driver

    g = inf_pi { (gamma/2) |pi sigma - (z + theta/gamma)|^2 + |u - pi beta|_g }
        - theta z - theta^2 / (2 gamma),
    theta = (mu + lam beta) / sigma,
    |v|_g = lam (exp(gamma v) - 1 - gamma v) / gamma,

and the two are linked by f_min(y, z, u) = gamma * y * g(z/(gamma y),
(1/gamma) log(1 + u/y)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoeffSnapshot",
    "StrategySet",
    "f_pi",
    "minimize_driver",
    "minimize_driver_grid",
    "g_quadratic",
    "lipschitz_bound",
    "jump_comparison_bounds",
]

# Newton steps in _lambert_w0_exp; four reach rounding level for every ln kappa
_W0_STEPS = 4


@dataclass(frozen=True)
class CoeffSnapshot:
    """Coefficient values frozen at one (time, regime) point."""

    mu: float
    sigma: float
    lam: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if not self.beta > -1:
            raise ValueError("beta must exceed -1")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class StrategySet:
    """Compact strategy interval C = [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("strategy bounds must be finite")
        if self.lo > self.hi:
            raise ValueError("lo must not exceed hi")

    @classmethod
    def symmetric(cls, k: float) -> "StrategySet":
        return cls(-abs(k), abs(k))

    @property
    def width(self) -> float:
        return self.hi - self.lo


def f_pi(c: CoeffSnapshot, pi, y, z, u):
    """Per-strategy linear driver; vectorizes over any argument."""
    g = c.gamma
    with np.errstate(over="ignore"):
        jump = c.lam * (1.0 - np.exp(-g * pi * c.beta)) * (y + u)
    return 0.5 * g * g * pi * pi * c.sigma ** 2 * y - g * pi * (c.mu * y + c.sigma * z) - jump


def _lambert_w0_exp(log_x):
    """Principal Lambert W of exp(log_x), elementwise, without forming exp(log_x).

    Newton steps on w + ln w = log_x, w <- w (1 + log_x - ln w) / (1 + w),
    from w = log_x - ln log_x (log_x > 1) or log1p(exp(log_x)); the iterates
    stay positive and reach rounding level within _W0_STEPS steps.  An
    argument whose exp underflows (log_x = -inf included) gives 0.
    """
    log_x = np.asarray(log_x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.where(log_x > 1.0, log_x - np.log(np.maximum(log_x, 1.0)),
                     np.log1p(np.exp(np.minimum(log_x, 1.0))))
        for _ in range(_W0_STEPS):
            w = w * (1.0 + log_x - np.log(w)) / (1.0 + w)
    return np.where(w > 0.0, w, 0.0)


def _argmin(c: CoeffSnapshot, strat: StrategySet, vertex, log_tail):
    """clip(vertex + W0(kappa) / (gamma beta), lo, hi) with
    ln kappa = ln(lam beta^2 / sigma^2) + log_tail; requires lam * beta != 0."""
    log_kappa = (math.log(c.lam) + 2.0 * math.log(abs(c.beta))
                 - 2.0 * math.log(c.sigma) + log_tail)
    pi = vertex + _lambert_w0_exp(log_kappa) / (c.gamma * c.beta)
    return np.clip(pi, strat.lo, strat.hi)


def minimize_driver_grid(c: CoeffSnapshot, strat: StrategySet, y, z, u):
    """Vectorized constrained infimum of f_pi; returns (f_min, pi_star) arrays.

    Inputs are normalized by y before minimizing, which makes positive
    homogeneity of degree one exact up to rounding:
    f_min(t y, t z, t u) = t f_min(y, z, u) with the same argmin.
    """
    y, z, u = np.broadcast_arrays(np.asarray(y, dtype=float),
                                  np.asarray(z, dtype=float),
                                  np.asarray(u, dtype=float))
    if np.any(y <= 0.0):
        raise ValueError("driver minimization requires y > 0")
    if np.any(y + u < 0.0):
        raise ValueError("driver minimization requires y + u >= 0")

    zn = z / y
    un = u / y
    vertex = (c.mu + c.sigma * zn) / (c.gamma * c.sigma * c.sigma)
    if c.lam * c.beta == 0.0:
        pi = np.clip(vertex, strat.lo, strat.hi)
    else:
        # y + u = 0 gives ln 0 = -inf, kappa = 0 and the vertex itself
        with np.errstate(divide="ignore"):
            pi = _argmin(c, strat, vertex, np.log1p(un) - c.gamma * c.beta * vertex)

    f_min = y * f_pi(c, pi, 1.0, zn, un)
    return f_min, pi


def minimize_driver(c: CoeffSnapshot, strat: StrategySet, y: float, z: float,
                    u: float) -> tuple[float, float]:
    """Constrained infimum of f_pi over pi in [lo, hi] and its argmin.

    Requires y > 0 and y + u >= 0 (the domain where the value function lives;
    a violation signals an out-of-domain solver iterate).  The argmin is the
    closed-form root of df/dpi clipped to [lo, hi], exact up to rounding;
    under strict convexity it is unique, and in the degenerate width-zero set
    it is the single point (ties toward the smallest |pi| never arise
    otherwise).
    """
    f, p = minimize_driver_grid(c, strat, np.atleast_1d(float(y)),
                                np.atleast_1d(float(z)), np.atleast_1d(float(u)))
    return float(f[0]), float(p[0])


def g_quadratic(c: CoeffSnapshot, strat: StrategySet, z: float, u: float) -> float:
    """Quadratic driver after the log change of variables.

    Minimizes (gamma/2)(pi sigma - a)^2 + |u - pi beta|_g over [lo, hi] with
    a = z + theta/gamma, theta = (mu + lam beta)/sigma, then subtracts
    theta z + theta^2/(2 gamma).
    """
    g, sig, lam, beta = c.gamma, c.sigma, c.lam, c.beta
    theta = (c.mu + lam * beta) / sig
    a = z + theta / g
    # first-order condition: pi - A = (lam beta / (gamma sigma^2)) e^{gamma (u - beta pi)}
    vertex = a / sig - lam * beta / (g * sig * sig)
    if lam * beta == 0.0:
        pi = min(max(vertex, strat.lo), strat.hi)
    else:
        pi = float(_argmin(c, strat, vertex, g * (u - beta * vertex)))

    v = u - pi * beta
    penalty = 0.5 * g * (pi * sig - a) ** 2 + lam * (math.exp(g * v) - 1.0 - g * v) / g
    return penalty - theta * z - theta * theta / (2.0 * g)


def _jump_size_bound(c: CoeffSnapshot, pi: float) -> float:
    return c.lam * abs(1.0 - math.exp(-c.gamma * pi * c.beta))


def lipschitz_bound(c: CoeffSnapshot, strat: StrategySet) -> float:
    """Lipschitz constant of the infimum driver in (y, z, u), l1 norm.

    The infimum of affine functions inherits the largest coefficient bound;
    each partial coefficient of f_pi is maximized at an endpoint of [lo, hi]
    since all three are V-shaped in pi with minimum at 0.
    """
    g = c.gamma
    best = 0.0
    for pi in (strat.lo, strat.hi):
        jump = _jump_size_bound(c, pi)
        coef_y = 0.5 * g * g * pi * pi * c.sigma ** 2 + g * abs(pi) * abs(c.mu) + jump
        coef_z = g * abs(pi) * c.sigma
        best = max(best, coef_y, coef_z, jump)
    return best


def jump_comparison_bounds(c: CoeffSnapshot, strat: StrategySet) -> tuple[float, float]:
    """(C1, C2) with C1 <= exp(-gamma pi beta) - 1 <= C2 on [lo, hi]; C1 > -1 always.

    This coefficient multiplies jump-size differences in the driver and must
    stay above -1 for solution comparison/monotonicity arguments to apply;
    pi -> it is monotone, so the extrema sit at the interval endpoints.
    """
    vals = [math.exp(-c.gamma * pi * c.beta) - 1.0 for pi in (strat.lo, strat.hi)]
    return min(vals), max(vals)
