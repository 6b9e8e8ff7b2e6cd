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

`minimize_driver_grid` checks nothing: its callers keep y > 0 and the shape
rule that y, z and u (unless u is the scalar 0.0) share one shape, and they
keep y + u >= 0 by construction: the solver's y + u is a post-jump value.
Its coefficients may be per-regime arrays, one regime per entry of the
second-to-last axis of y (see `CoeffSnapshot`); its strategy set None is C = R.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import InputError

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
    """Coefficient values frozen at one (time, regime) point, or at one time
    for R regimes: then mu, sigma, lam and beta are arrays whose
    second-to-last axis is the regime, constant along their other axes, of
    shape (R, 1) or the driver inputs' own (..., R, w); the driver reads
    entry n at index n of its inputs' second-to-last axis."""

    mu: float
    sigma: float
    lam: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not np.all(np.greater(self.sigma, 0)):
            raise InputError("sigma must be positive")
        if np.any(np.less(self.lam, 0)):
            raise InputError("lambda must be nonnegative")
        if not np.all(np.greater(self.beta, -1)):
            raise InputError("beta must exceed -1")
        if not self.gamma > 0:
            raise InputError("gamma must be positive")

    @functools.cached_property
    def driver_terms(self) -> tuple:
        """(gamma sigma sigma, sigma ** 2, lanes), once per snapshot, in sigma's
        shape.  lanes pairs the index of regime n (``...`` for floats) with the
        float snapshot of each regime with lam beta != 0.  sigma ** 2 squares
        floats: numpy's square of an array may differ from Python's in the last
        bit."""
        stacked = np.ndim(self.sigma) > 0
        rows = [self]
        if stacked:  # regime n's floats, read at index 0 of the other axes
            rows = [CoeffSnapshot(*r, gamma=self.gamma) for r in zip(*(
                np.reshape(v, (-1, *np.shape(v)[-2:]))[0, :, 0].tolist()
                for v in (self.mu, self.sigma, self.lam, self.beta)))]
        lanes = [(np.s_[..., n, :] if stacked else ..., r)
                 for n, r in enumerate(rows) if r.lam * r.beta != 0.0]
        sigma_sq = np.reshape([r.sigma ** 2 for r in rows], (-1, 1) if stacked else ())
        return (self.gamma * self.sigma * self.sigma,
                np.broadcast_to(sigma_sq, np.shape(self.sigma)).copy(), lanes)


@dataclass(frozen=True)
class StrategySet:
    """Compact strategy interval C = [lo, hi].

    lo and hi may also be arrays that broadcast against the driver inputs,
    one interval per batch row.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise InputError("strategy bounds must be finite")
        if np.any(np.asarray(self.lo) > self.hi):
            raise InputError("lo must not exceed hi")

    @classmethod
    def symmetric(cls, k: float) -> "StrategySet":
        """C = [-k, k]; k must be positive (an array gives one interval per row)."""
        if not np.all(np.asarray(k) > 0):
            raise InputError(f"k must be positive, got {k}")
        return cls(-k, k)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def f_pi(c: CoeffSnapshot, pi, y, z, u):
    """Per-strategy linear driver; vectorizes over any argument.

    The jump term is skipped when lam * beta = 0, where it is exactly zero
    (evaluating it there would turn an overflowing exp into 0 * inf = NaN).
    """
    g = c.gamma
    f = 0.5 * g * g * pi * pi * c.sigma ** 2 * y - g * pi * (c.mu * y + c.sigma * z)
    if c.lam * c.beta == 0.0:
        return f
    with np.errstate(over="ignore"):
        jump = c.lam * (1.0 - np.exp(-g * pi * c.beta)) * (y + u)
    return f - jump


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


def _root(c: CoeffSnapshot, vertex, log_tail):
    """vertex + W0(kappa) / (gamma beta), the unclipped argmin, with
    ln kappa = ln(lam beta^2 / sigma^2) + log_tail; requires lam * beta != 0."""
    log_kappa = (math.log(c.lam) + 2.0 * math.log(abs(c.beta))
                 - 2.0 * math.log(c.sigma) + log_tail)
    return vertex + _lambert_w0_exp(log_kappa) / (c.gamma * c.beta)


def minimize_driver_grid(c: CoeffSnapshot, strat: StrategySet | None, y, z, u):
    """Vectorized constrained infimum of f_pi; returns (f_min, pi_star) arrays.

    Callers keep the shape rule: y and z are float arrays of one shape with
    y > 0; u is an array of that shape with y + u >= 0, or the scalar 0.0.
    Per-regime coefficients index the second-to-last axis; the root and the
    jump term are evaluated only on the regimes with lam beta != 0.  With
    ``strat`` None the strategy is unbounded and the root is not clipped.

    Inputs are normalized by y before minimizing, which makes positive
    homogeneity of degree one exact up to rounding:
    f_min(t y, t z, t u) = t f_min(y, z, u) with the same argmin.
    """
    g, (curvature, sigma_sq, lanes) = c.gamma, c.driver_terms
    zn, un = z / y, (u / y if lanes else None)
    num = c.mu + c.sigma * zn
    pi = num / curvature  # the vertex, the root where lam beta = 0
    for at, cn in lanes:  # y + u = 0 gives ln 0 = -inf, kappa = 0 and the vertex itself
        with np.errstate(divide="ignore"):
            pi[at] = _root(cn, pi[at], np.log1p(un[at]) - g * cn.beta * pi[at])
    if strat is not None:
        pi = np.minimum(np.maximum(pi, strat.lo), strat.hi)
    # f_pi at y = 1, written from the vertex's numerator mu + sigma z / y
    f = 0.5 * g * g * pi * pi * sigma_sq - g * pi * num
    for at, cn in lanes:
        with np.errstate(over="ignore"):
            f[at] -= cn.lam * (1.0 - np.exp(-g * pi[at] * cn.beta)) * (1.0 + un[at])
    return y * f, pi


def minimize_driver(c: CoeffSnapshot, strat: StrategySet, y: float, z: float,
                    u: float) -> tuple[float, float]:
    """Constrained infimum of f_pi over pi in [lo, hi] and its argmin.

    Raises InputError unless y > 0 and y + u >= 0, the domain where the value
    function lives.  The argmin is the closed-form root of df/dpi clipped to
    [lo, hi], exact up to rounding; under strict convexity it is unique, and
    in the degenerate width-zero set it is the single point (ties toward the
    smallest |pi| never arise otherwise).
    """
    y, z, u = np.array([[y], [z], [u]], dtype=float)
    if y[0] <= 0.0:
        raise InputError("driver minimization requires y > 0")
    if y[0] + u[0] < 0.0:
        raise InputError("driver minimization requires y + u >= 0")
    f, p = minimize_driver_grid(c, strat, y, z, u)
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
    if lam * beta != 0.0:
        vertex = float(_root(c, vertex, g * (u - beta * vertex)))
    pi = min(max(vertex, strat.lo), strat.hi)

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
