"""Market primitives: regime-switching coefficients, claims, forward simulation.

The market has one risk-free asset (price 1) and one risky asset whose price
jumps by a relative amount beta at a single default time with intensity
lambda.  Coefficients are deterministic, piecewise constant in time, and
switch between a pre-default and a post-default regime, so the state
(S_t, N_t) is Markov and the value function admits a grid representation.

Forward dynamics (Euler, multiplicative; dW truncated at +-6*sqrt(dt)):

    S <- S * (1 + mu*dt + sigma*dW) * (1 + beta)^dN
    X <- X + pi * dS / S,   X_0 = 0

Default occurs in a step with probability 1 - exp(-lambda*dt) if it has not
occurred yet.  Randomness comes in bulk from one counter-based Philox stream
keyed by the seed, so results depend only on (seed, n_paths).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import open_output

__all__ = [
    "PiecewiseConstant",
    "TimeGrid",
    "RegimeCoefficients",
    "MarketModel",
    "Claim",
    "Constant",
    "DefaultIndicator",
    "StockPayoff",
    "ValidationReport",
    "PathEnsemble",
    "validate_model",
    "euler_factor_violation",
    "simulate_paths",
    "claim_payoff",
]

# truncation of Gaussian increments in the forward scheme, in units of sqrt(dt)
DW_CLIP = 6.0
# paths per draw when the Gaussian block is stored time-major
_DRAW_CHUNK = 512


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-open piecewise-constant function of time.

    ``breaks`` are interval start times (first must be 0.0, strictly
    increasing); ``values[i]`` applies on [breaks[i], breaks[i+1]).
    """

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breaks) != len(self.values) or not self.breaks:
            raise ValueError("breaks and values must be nonempty and of equal length")
        if any(b >= a for a, b in zip(self.breaks[1:], self.breaks[:-1])):
            raise ValueError("breaks must be strictly increasing")

    @classmethod
    def flat(cls, value: float) -> "PiecewiseConstant":
        return cls((0.0,), (float(value),))

    def __call__(self, t: float) -> float:
        i = np.searchsorted(self.breaks, t, side="right") - 1
        return self.values[max(int(i), 0)]

    def vmin(self) -> float:
        return min(self.values)

    def vmax(self) -> float:
        return max(self.values)


def _as_pc(v) -> PiecewiseConstant:
    if isinstance(v, PiecewiseConstant):
        return v
    return PiecewiseConstant.flat(float(v))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with N steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class RegimeCoefficients:
    """Piecewise-constant drift/volatility per regime, jump size and intensity.

    The post-default regime has no further jump: ``lam`` and ``beta`` belong
    to the pre-default regime only.
    """

    mu_pre: PiecewiseConstant
    sigma_pre: PiecewiseConstant
    mu_post: PiecewiseConstant
    sigma_post: PiecewiseConstant
    beta: PiecewiseConstant
    lam: PiecewiseConstant

    @classmethod
    def constant(cls, mu: float, sigma: float, beta: float, lam: float,
                 mu_post: float | None = None,
                 sigma_post: float | None = None) -> "RegimeCoefficients":
        """Constant coefficients; post-default regime defaults to pre-default values."""
        return cls(
            mu_pre=_as_pc(mu),
            sigma_pre=_as_pc(sigma),
            mu_post=_as_pc(mu if mu_post is None else mu_post),
            sigma_post=_as_pc(sigma if sigma_post is None else sigma_post),
            beta=_as_pc(beta),
            lam=_as_pc(lam),
        )

    def at(self, t: float, defaulted: bool) -> tuple[float, float, float, float]:
        """(mu, sigma, lam, beta) in force at time t for the given regime."""
        if defaulted:
            return self.mu_post(t), self.sigma_post(t), 0.0, 0.0
        return self.mu_pre(t), self.sigma_pre(t), self.lam(t), self.beta(t)


@dataclass(frozen=True)
class MarketModel:
    grid: TimeGrid
    coeffs: RegimeCoefficients
    gamma: float
    s0: float = 1.0


class Claim:
    """Terminal payoff xi as a function of (S_T, N_T), bounded below."""

    def payoff(self, s: np.ndarray | float, n: int) -> np.ndarray | float:
        raise NotImplementedError

    def bounds(self) -> tuple[float, float]:
        """(inf, sup) of the payoff over all terminal states."""
        raise NotImplementedError

    @property
    def lower_bound(self) -> float:
        return self.bounds()[0]

    @property
    def nonnegative(self) -> bool:
        return self.bounds()[0] >= 0.0

    def shifted(self, c: float) -> "Claim":
        """The claim xi + c."""
        raise NotImplementedError

    def negated(self) -> "Claim":
        """The claim -xi (used for the selling price)."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Claim):
    value: float

    def payoff(self, s, n):
        return np.full_like(np.asarray(s, dtype=float), self.value) if np.ndim(s) else self.value

    def bounds(self):
        return (self.value, self.value)

    def shifted(self, c):
        return Constant(self.value + c)

    def negated(self):
        return Constant(-self.value)

    def describe(self):
        return f"Constant({self.value:g})"


@dataclass(frozen=True)
class DefaultIndicator(Claim):
    """Pays ``pays_survival`` if no default by T, else ``pays_default``."""

    pays_survival: float
    pays_default: float

    def payoff(self, s, n):
        v = self.pays_default if n == 1 else self.pays_survival
        return np.full_like(np.asarray(s, dtype=float), v) if np.ndim(s) else v

    def bounds(self):
        lo = min(self.pays_survival, self.pays_default)
        hi = max(self.pays_survival, self.pays_default)
        return (lo, hi)

    def shifted(self, c):
        return DefaultIndicator(self.pays_survival + c, self.pays_default + c)

    def negated(self):
        return DefaultIndicator(-self.pays_survival, -self.pays_default)

    def describe(self):
        return f"DefaultIndicator({self.pays_survival:g},{self.pays_default:g})"


@dataclass(frozen=True)
class StockPayoff(Claim):
    """Tabulated payoff phi(s, n), linear in log s between nodes, clamped outside."""

    s_nodes: tuple[float, ...]
    survive_values: tuple[float, ...]
    default_values: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.s_nodes) == len(self.survive_values) == len(self.default_values)):
            raise ValueError("table columns must have equal length")
        if len(self.s_nodes) < 2:
            raise ValueError("need at least two table nodes")
        if any(s <= 0 for s in self.s_nodes):
            raise ValueError("s_nodes must be positive")
        if any(b >= a for a, b in zip(self.s_nodes[1:], self.s_nodes[:-1])):
            raise ValueError("s_nodes must be strictly increasing")

    def payoff(self, s, n):
        table = self.default_values if n == 1 else self.survive_values
        x = np.log(np.asarray(s, dtype=float))
        out = np.interp(x, np.log(self.s_nodes), table)
        return out if np.ndim(s) else float(out)

    def bounds(self):
        vals = self.survive_values + self.default_values
        return (min(vals), max(vals))

    def shifted(self, c):
        return StockPayoff(
            self.s_nodes,
            tuple(v + c for v in self.survive_values),
            tuple(v + c for v in self.default_values),
        )

    def negated(self):
        return StockPayoff(
            self.s_nodes,
            tuple(-v for v in self.survive_values),
            tuple(-v for v in self.default_values),
        )

    def describe(self):
        return f"StockPayoff({len(self.s_nodes)} nodes)"


def claim_payoff(claim: Claim, s_T: float, n_T: int) -> float:
    """Evaluate the terminal payoff xi at (s_T, n_T); requires s_T > 0."""
    if not s_T > 0.0:
        raise ValueError("claim_payoff requires a positive terminal price")
    return float(claim.payoff(s_T, n_T))


@dataclass
class ValidationReport:
    """Outcome of validate_model: violations plus market-price-of-risk diagnostics."""

    violations: list[str] = field(default_factory=list)
    alpha_pre: list[tuple[float, float]] = field(default_factory=list)
    alpha_post: list[tuple[float, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_model(model: MarketModel) -> ValidationReport:
    """Check model invariants; never raises, reports every violation.

    Also computes the market price of risk alpha = (mu + lam*beta) / sigma on
    every (regime, interval) and flags non-finite values.
    """
    rep = ValidationReport()
    g, c = model.grid, model.coeffs
    if not g.horizon > 0:
        rep.violations.append("horizon must be positive")
    if g.n_steps < 1:
        rep.violations.append("n_steps must be >= 1")
    if not model.gamma > 0:
        rep.violations.append("gamma must be positive")
    if not model.s0 > 0:
        rep.violations.append("s0 must be positive")

    for name, pc in (("mu_pre", c.mu_pre), ("sigma_pre", c.sigma_pre),
                     ("mu_post", c.mu_post), ("sigma_post", c.sigma_post),
                     ("beta", c.beta), ("lambda", c.lam)):
        if pc.breaks[0] != 0.0:
            rep.violations.append(f"{name}: breakpoints must start at 0")
        if pc.breaks[-1] > g.horizon:
            rep.violations.append(f"{name}: breakpoint beyond the horizon")

    for name, pc in (("sigma_pre", c.sigma_pre), ("sigma_post", c.sigma_post)):
        if pc.vmin() <= 0:
            rep.violations.append(f"{name}: sigma must be positive")
    if c.beta.vmin() <= -1.0:
        rep.violations.append("beta must exceed -1")
    if c.lam.vmin() < 0.0:
        rep.violations.append("lambda must be nonnegative")

    dt = g.dt
    if dt * c.lam.vmax() >= 1.0:
        rep.violations.append("dt * max(lambda) must be < 1 (refine the time grid)")

    # positivity of the truncated Euler factor of the forward simulation
    euler = euler_factor_violation(model, DW_CLIP)
    if euler is not None:
        rep.violations.append(euler)

    starts = sorted({b for pc in (c.mu_pre, c.sigma_pre, c.mu_post, c.sigma_post,
                                  c.beta, c.lam) for b in pc.breaks})
    for t in starts:
        mu0, s0_, lam0, beta0 = c.at(t, defaulted=False)
        mu1, s1_, _, _ = c.at(t, defaulted=True)
        a_pre = (mu0 + lam0 * beta0) / s0_ if s0_ != 0 else math.inf
        a_post = mu1 / s1_ if s1_ != 0 else math.inf
        rep.alpha_pre.append((t, a_pre))
        rep.alpha_post.append((t, a_post))
        if not math.isfinite(a_pre) or not math.isfinite(a_post):
            rep.violations.append(f"market price of risk non-finite at t={t:g}")
    return rep


def _on_times(pc: PiecewiseConstant, t: np.ndarray) -> np.ndarray:
    """pc evaluated elementwise at the times t."""
    idx = np.searchsorted(pc.breaks, t, side="right") - 1
    return np.asarray(pc.values)[np.maximum(idx, 0)]


def euler_factor_violation(model: MarketModel, shock: float) -> str | None:
    """Report a nonpositive no-jump Euler factor 1 + mu dt - shock sigma sqrt(dt).

    ``shock`` is the largest normalized Gaussian move a scheme uses: DW_CLIP
    for the forward simulation, the largest quadrature node for the backward
    solver.  Both regimes are checked at the step start times t_0..t_{N-1},
    where both schemes read their coefficients.  Returns a message naming the
    latest offending step (the first a backward sweep meets), or None.
    """
    g, c = model.grid, model.coeffs
    t = g.times()[:-1]
    worst = None
    for regime, mu, sig in (("post", c.mu_post, c.sigma_post),
                            ("pre", c.mu_pre, c.sigma_pre)):
        bad = np.flatnonzero(1.0 + _on_times(mu, t) * g.dt
                             - _on_times(sig, t) * math.sqrt(g.dt) * shock <= 0.0)
        if bad.size and (worst is None or bad[-1] > worst[1]):
            worst = (regime, int(bad[-1]))
    if worst is None:
        return None
    regime, i = worst
    return (f"{regime}-default Euler factor 1 + mu*dt - {shock:.4g}*sigma*sqrt(dt) "
            f"is nonpositive at step {i} (t={t[i]:g}): dt too coarse for this sigma")


@dataclass
class PathEnsemble:
    """Simulated (W, N, S, X) paths on the model's time grid.

    ``dW`` holds the (truncated) Brownian increments, shape (n_paths, N);
    ``n_path``, ``stock``, ``wealth`` are states at grid times, shape
    (n_paths, N+1).  simulate_paths stores all four time-major and hands out
    transposed views, so the column ``[:, i]`` of step i is contiguous and
    a row ``[p]`` is strided.  ``tau_step[p]`` is the step index in which
    path p defaulted, or -1.
    """

    times: np.ndarray
    dW: np.ndarray
    n_path: np.ndarray
    stock: np.ndarray
    wealth: np.ndarray
    tau_step: np.ndarray
    seed: int

    @property
    def n_paths(self) -> int:
        return self.stock.shape[0]

    def default_fraction(self) -> float:
        return float(np.mean(self.tau_step >= 0))

    def tau(self) -> np.ndarray:
        """Default times (NaN where no default occurred)."""
        out = np.full(self.n_paths, np.nan)
        hit = self.tau_step >= 0
        out[hit] = self.times[self.tau_step[hit] + 1]
        return out

    def to_csv(self, path) -> None:
        """Columns path,step,t,W,N,S,X with 12 significant digits; W is cumulative."""
        W = np.concatenate(
            [np.zeros((self.n_paths, 1)), np.cumsum(self.dW, axis=1)], axis=1)
        steps = range(self.times.size)
        times = self.times.tolist()
        fmt = "%d,%d,%.12g,%.12g,%d,%.12g,%.12g\n"
        with open_output(path) as fh:
            fh.write("path,step,t,W,N,S,X\n")
            for p in range(self.n_paths):
                rows = zip(itertools.repeat(p), steps, times, W[p].tolist(),
                           self.n_path[p].tolist(), self.stock[p].tolist(),
                           self.wealth[p].tolist())
                fh.write("".join(fmt % row for row in rows))


Strategy = Callable[[float, np.ndarray, np.ndarray], np.ndarray | float]


def simulate_paths(model: MarketModel, strategy: Strategy, n_paths: int,
                   seed: int, n_threads: int = 1) -> PathEnsemble:
    """Euler forward simulation of (S, X) under a bounded strategy pi(t, s, n).

    Per step, default occurs with probability 1 - exp(-lambda*dt) if it has
    not occurred yet; S and X are updated with the same dW and dN.  All draws
    come from one Philox stream keyed by ``seed``: first the (n_paths, N)
    Gaussian block, path by path, then the (n_paths, N) default uniforms.
    Output is bit-identical for identical (seed, n_paths).  ``n_threads``
    has no effect and is kept for compatibility.

    ``dW``, ``n_path``, ``stock`` and ``wealth`` are allocated time-major,
    (N, n_paths) or (N+1, n_paths), and returned as (n_paths, ...) views:
    every step reads and writes contiguous rows, and callers index paths as
    before.  The Gaussian block is drawn a chunk of paths at a time and
    stored transposed, which reads the same stream as one path-major draw.
    The coefficients of each step are looked up once, before the loop, and
    a step's arithmetic runs in place in preallocated rows.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    g = model.grid
    n, dt = g.n_steps, g.dt
    times = g.times()

    gen = np.random.Generator(np.random.Philox(key=seed))
    sq = math.sqrt(dt)
    # the path-major Gaussian block, stored time-major a chunk of paths at a
    # time, so no second full block is held
    dW = np.empty((n, n_paths))
    for a in range(0, n_paths, _DRAW_CHUNK):
        b = min(a + _DRAW_CHUNK, n_paths)
        dW[:, a:b] = gen.standard_normal((b - a, n)).T
    dW *= sq
    np.clip(dW, -DW_CLIP * sq, DW_CLIP * sq, out=dW)
    c = model.coeffs
    t = times[:-1]
    # default draws: step i defaults a live path when its uniform is below
    # 1 - exp(-lambda(t_i) dt); compared once into a time-major table, so the
    # uniform block is freed before the state arrays are allocated
    p_def = np.array([1.0 - math.exp(-lam * dt) for lam in _on_times(c.lam, t)])
    hits = np.empty((n, n_paths), dtype=bool)
    np.less(gen.random((n_paths, n)).T, p_def[:, None], out=hits)

    # per step: (pre-default, post-default) 1 + mu dt and sigma, read per
    # path through its default state, and the jump factor 1 + beta
    drift = np.stack([1.0 + _on_times(c.mu_pre, t) * dt,
                      1.0 + _on_times(c.mu_post, t) * dt], axis=1)
    vol = np.stack([_on_times(c.sigma_pre, t), _on_times(c.sigma_post, t)], axis=1)
    jump = 1.0 + _on_times(c.beta, t)

    n_path = np.zeros((n + 1, n_paths), dtype=np.int8)
    stock = np.empty((n + 1, n_paths))
    wealth = np.zeros((n + 1, n_paths))
    tau_step = np.full(n_paths, -1, dtype=np.int64)
    stock[0] = model.s0
    regime = np.empty(n_paths, dtype=np.intp)  # n_path[i] as take indices
    alive = np.empty(n_paths, dtype=bool)
    jumps = np.empty(n_paths, dtype=bool)
    ret = np.empty(n_paths)
    level = np.empty(n_paths)

    for i in range(n):
        np.copyto(regime, n_path[i])
        np.equal(regime, 0, out=alive)
        np.logical_and(alive, hits[i], out=jumps)
        tau_step[jumps] = i

        pi = strategy(float(times[i]), stock[i], n_path[i])  # per path, or one scalar
        # ret = (1 + mu dt + sigma dW)(1 + beta dN) - 1: the jump composed
        # multiplicatively keeps S > 0 for every beta > -1 and makes the
        # self-financing identity dX = pi * dS/S exact per step
        # indices are 0 or 1; mode="clip" skips the copy that "raise" makes of out
        np.take(vol[i], regime, out=ret, mode="clip")
        ret *= dW[i]
        ret += np.take(drift[i], regime, out=level, mode="clip")
        np.multiply(ret, jump[i], out=ret, where=jumps)
        ret -= 1.0
        np.add(ret, 1.0, out=stock[i + 1])
        stock[i + 1] *= stock[i]
        np.multiply(ret, pi, out=wealth[i + 1])
        wealth[i + 1] += wealth[i]
        np.logical_or(n_path[i], jumps, out=n_path[i + 1])

    return PathEnsemble(times=times, dW=dW.T, n_path=n_path.T, stock=stock.T,
                        wealth=wealth.T, tau_step=tau_step, seed=seed)
