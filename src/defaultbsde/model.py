"""Market primitives: regime-switching coefficients, claims, forward simulation.

The market has one risk-free asset (price 1) and one risky asset whose price
jumps by a relative amount beta at a single default time with intensity
lambda.  Coefficients are deterministic, piecewise constant in time, and
switch between a pre-default and a post-default regime, so the state
(S_t, N_t) is Markov and the value function admits a grid representation.
Every layer reads them one way: `RegimeCoefficients.table` gives, at each of
a set of times, the (mu, sigma, lam, beta) of regime n = N_t, with
lam = beta = 0 in the post-default regime n = 1.  The schemes read it at
the step times t_0..t_{N-1}, through `MarketModel.step_table`.

Forward dynamics (exact log-normal moves with the step's coefficients):

    S <- S * exp((mu - sigma^2/2)*dt + sigma*dW) * (1 + beta)^dN
    X <- X + pi * dS / S,   X_0 = 0

Default occurs in a step with probability 1 - exp(-lambda*dt) if it has not
occurred yet: each path draws one Exp(1) clock and defaults in the first
step whose cumulative hazard exceeds it.  Randomness comes from one
counter-based Philox stream keyed by the seed, the clocks first and then
one row of Gaussians per step, so results depend only on (seed, n_paths).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from ._util import open_output

__all__ = [
    "PiecewiseConstant",
    "TimeGrid",
    "RegimeCoefficients",
    "MarketModel",
    "Claim",
    "ValidationReport",
    "InputError",
    "PathEnsemble",
    "validate_model",
    "coefficient_violations",
    "simulate_paths",
    "claim_payoff",
]


class InputError(ValueError):
    """An input that a command or a pass rejects before any work."""


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
            raise InputError("breaks and values must be nonempty and of equal length")
        if not all(math.isfinite(b) for b in self.breaks):
            raise InputError("breaks must be finite")
        if any(b >= a for a, b in zip(self.breaks[1:], self.breaks[:-1])):
            raise InputError("breaks must be strictly increasing")

    @classmethod
    def flat(cls, value: float) -> "PiecewiseConstant":
        return cls((0.0,), (float(value),))

    def __call__(self, t):
        """The value in force at time t: a float, or an array for an array t."""
        i = np.searchsorted(self.breaks, t, side="right") - 1
        out = np.asarray(self.values)[np.maximum(i, 0)]
        return out if np.ndim(t) else float(out)


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
        if not 0.0 < self.horizon < math.inf:
            raise InputError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise InputError(f"n_steps must be >= 1 and an integer, got {self.n_steps!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class RegimeCoefficients:
    """Piecewise-constant drift/volatility per regime, jump size and intensity.

    The post-default regime has no further jump: ``lam`` and ``beta`` belong
    to the pre-default regime only.  Callers outside this module read the
    coefficients through `table`.
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

    def table(self, t) -> np.ndarray:
        """(len(t), 2, 4): at each time t, for regime n = N_t (0 pre-default,
        1 post-default), the values (mu, sigma, lam, beta) in force; lam and
        beta are 0 for n = 1."""
        t = np.asarray(t, dtype=float)
        out = np.zeros((t.size, 2, 4))
        for n, fields in enumerate(((self.mu_pre, self.sigma_pre, self.lam, self.beta),
                                    (self.mu_post, self.sigma_post))):
            for f, pc in enumerate(fields):
                out[:, n, f] = pc(t)
        return out


@dataclass(frozen=True)
class MarketModel:
    grid: TimeGrid
    coeffs: RegimeCoefficients
    gamma: float
    s0: float = 1.0

    @functools.cached_property
    def step_table(self) -> np.ndarray:
        """``coeffs.table`` at the step times t_0..t_{N-1}, where every scheme
        reads the coefficients; looked up once per model, read-only."""
        tab = self.coeffs.table(self.grid.times()[:-1])
        tab.flags.writeable = False
        return tab


@dataclass(frozen=True)
class Claim:
    """Terminal payoff xi(S_T, N_T): one table in log S per default state.

    Row ``values[n]`` holds the payoff at ``s_nodes`` when N_T = n.  The
    payoff is linear in log S between the nodes and flat beyond them, so a
    one-node table does not depend on S_T.
    """

    s_nodes: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.values) != 2:
            raise InputError("need two rows of values, one per default state")
        if not all(len(row) == len(self.s_nodes) for row in self.values):
            raise InputError("table columns must have equal length")
        if not self.s_nodes:
            raise InputError("need at least one table node")
        if not all(0.0 < s < math.inf for s in self.s_nodes):
            raise InputError("s_nodes must be positive and finite")
        if any(b >= a for a, b in zip(self.s_nodes[1:], self.s_nodes[:-1])):
            raise InputError("s_nodes must be strictly increasing")

    @classmethod
    def constant(cls, value: float) -> "Claim":
        """Pays ``value`` in every terminal state."""
        return cls((1.0,), ((value,), (value,)))

    @classmethod
    def default_indicator(cls, pays_survival: float, pays_default: float) -> "Claim":
        """Pays ``pays_survival`` if no default by T, else ``pays_default``."""
        return cls((1.0,), ((pays_survival,), (pays_default,)))

    @property
    def depends_on_s(self) -> bool:
        """Whether some row is not constant."""
        return any(min(row) != max(row) for row in self.values)

    def payoff(self, s: np.ndarray | float, n: int) -> np.ndarray | float:
        """xi at S_T = s and N_T = n: a float, or an array for an array s."""
        with np.errstate(divide="ignore"):  # a price of 0 takes the first node's value
            x = np.log(np.asarray(s, dtype=float))
        out = np.interp(x, np.log(self.s_nodes), self.values[n])
        return out if np.ndim(s) else float(out)

    def bounds(self) -> tuple[float, float]:
        """(inf, sup) of the payoff over all terminal states."""
        return min(map(min, self.values)), max(map(max, self.values))

    def shifted(self, c: float) -> "Claim":
        """The claim xi + c."""
        return Claim(self.s_nodes, tuple(tuple(v + c for v in row) for row in self.values))

    def negated(self) -> "Claim":
        """The claim -xi (used for the selling price)."""
        return Claim(self.s_nodes, tuple(tuple(-v for v in row) for row in self.values))


def claim_payoff(claim: Claim, s_T: float, n_T: int) -> float:
    """Evaluate the terminal payoff xi at (s_T, n_T); requires s_T > 0."""
    if not s_T > 0.0:
        raise InputError("claim_payoff requires a positive terminal price")
    return float(claim.payoff(s_T, n_T))


@dataclass
class ValidationReport:
    """Outcome of validate_model: the violations, plus the market price of risk
    alpha = (mu + lam*beta) / sigma at every breakpoint, a report worked out when read."""

    model: MarketModel
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def alpha_pre(self) -> list[tuple[float, float]]:
        return [(t, (mu + lam * beta) / s if s != 0 else math.inf)
                for t, (mu, s, lam, beta) in self._at_breakpoints(0)]

    @property
    def alpha_post(self) -> list[tuple[float, float]]:
        return [(t, mu / s if s != 0 else math.inf)
                for t, (mu, s, _, _) in self._at_breakpoints(1)]

    def _at_breakpoints(self, n: int):
        c = self.model.coeffs
        starts = sorted({b for f in fields(c) for b in getattr(c, f.name).breaks})
        return zip(starts, c.table(starts)[:, n].tolist())


def validate_model(model: MarketModel) -> ValidationReport:
    """Check model invariants; never raises, reports every violation.

    gamma and s0 must be positive, every coefficient's breakpoints must start
    at 0 and end by T, and the coefficients at the step times must pass
    `coefficient_violations`.
    """
    rep = ValidationReport(model)
    g, c = model.grid, model.coeffs
    if not model.gamma > 0:
        rep.violations.append("gamma must be positive")
    if not 0.0 < model.s0 < math.inf:
        rep.violations.append("s0 must be positive and finite")

    named = (("mu_pre", c.mu_pre), ("sigma_pre", c.sigma_pre), ("mu_post", c.mu_post),
             ("sigma_post", c.sigma_post), ("beta", c.beta), ("lambda", c.lam))
    for name, pc in named:
        if pc.breaks[0] != 0.0:
            rep.violations.append(f"{name}: breakpoints must start at 0")
        if pc.breaks[-1] > g.horizon:
            rep.violations.append(f"{name}: breakpoint beyond the horizon")
    rep.violations += coefficient_violations(model, g)
    return rep


def coefficient_violations(model: MarketModel, grid: TimeGrid) -> list[str]:
    """The bounded-coefficient rule at the times t_0..t_{n-1} of ``grid``, where
    a scheme of step grid.dt reads the coefficients: every value finite,
    sigma > 0, beta > -1, lambda >= 0 and lambda dt < 1.  A NaN fails every
    test.  One message per failed test names its latest step (the first a
    backward sweep meets) and that step's t.
    """
    tab = model.step_table if grid == model.grid else model.coeffs.table(grid.times()[:-1])
    dt = grid.dt
    checks = [("coefficients must be finite", ~np.isfinite(tab).all(axis=(1, 2))),
              ("beta must exceed -1", ~(tab[:, 0, 3] > -1.0)),
              ("lambda must be nonnegative", ~(tab[:, 0, 2] >= 0.0)),
              ("dt * max(lambda) must be < 1 (refine the time grid)", ~(tab[:, 0, 2] * dt < 1.0))]
    for n, regime in enumerate(("pre", "post")):
        checks.append((f"sigma_{regime}: sigma must be positive", ~(tab[:, n, 1] > 0.0)))
    return [f"{what} at step {i} (t={grid.times()[i]:g})" for what, bad in checks
            for i in np.flatnonzero(bad)[-1:].tolist()]


@dataclass
class PathEnsemble:
    """Simulated (W, N, S, X) paths on the model's time grid.

    ``dW`` holds the Brownian increments, shape (n_paths, N);
    ``n_path``, ``stock``, ``wealth`` are states at grid times, shape
    (n_paths, N+1).  simulate_paths stores all four time-major and hands out
    transposed views, so the column ``[:, i]`` of step i is contiguous and
    a row ``[p]`` is strided.  ``tau_step[p]`` is the step index in which
    path p defaulted, or -1, read from the path's default clock.  25 bytes
    per path-step (dW 8, n_path 1, stock 8, wealth 8); a caller that reads
    each step once passes simulate_paths a visitor instead.
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
                   seed: int, visit: Callable[..., None] | None = None) -> PathEnsemble | None:
    """Exact log-normal forward steps of (S, X) under a bounded strategy pi(t, s, n).

    All draws come from one Philox stream keyed by ``seed``: first one Exp(1)
    default clock per path, then, step by step, that step's n_paths
    Gaussians.  A path defaults in the first step i whose cumulative hazard
    sum_{j<=i} lambda(t_j) dt exceeds its clock, which is default with
    probability 1 - exp(-lambda(t_i) dt) in step i if it has not occurred
    yet, and never in a step with lambda = 0.  S and X are updated with the
    same dW and dN.  Output is bit-identical for identical (seed, n_paths).

    Without ``visit``, ``dW``, ``n_path``, ``stock`` and ``wealth`` are
    allocated time-major, (N, n_paths) or (N+1, n_paths), and returned as
    (n_paths, ...) views: every step reads and writes contiguous rows, and
    callers index paths as before.  With ``visit``, it is called as
    ``visit(i, n_row, s_row, w_row)`` for i = 0..N as each state row is
    produced, before step i reads the strategy at that row; the states live
    in a two-row ring (row i at ``i % 2``), dW in one row, so nothing is
    held per path-step, and None is returned.  The coefficients of each
    step are read from one table, before the loop, and a step's arithmetic
    runs in place in preallocated rows.
    """
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise InputError(f"n_paths must be a positive integer, got {n_paths!r}")
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**128):  # Philox's key range
        raise InputError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    g = model.grid
    n, dt = g.n_steps, g.dt
    times = g.times()
    tab = model.step_table

    gen = np.random.Generator(np.random.Philox(key=seed))
    # the step in which each path defaults, N if it survives: the first step
    # whose cumulative hazard exceeds the path's clock; a dtype that holds N
    hazard = np.cumsum(tab[:, 0, 2] * dt)
    tau = np.searchsorted(hazard, gen.standard_exponential(n_paths),
                          side="right").astype(np.min_scalar_type(n))

    sq = math.sqrt(dt)
    # per step and regime n: the log drift (mu - sigma^2/2) dt and sigma, read
    # per path through its default state, and the jump factor 1 + beta
    vol = tab[:, :, 1]
    drift = (tab[:, :, 0] - 0.5 * vol * vol) * dt
    jump = 1.0 + tab[:, 0, 3]

    rows = n + 1 if visit is None else 2  # state row of step i: i % rows
    dW = np.empty((n if visit is None else 1, n_paths))
    n_path = np.zeros((rows, n_paths), dtype=np.int8)
    stock = np.empty((rows, n_paths))
    wealth = np.zeros((rows, n_paths))
    stock[0] = model.s0
    jumps = np.empty(n_paths, dtype=bool)
    ret = np.empty(n_paths)

    for i in range(n):
        r, r1 = i % rows, (i + 1) % rows
        if visit is not None:
            visit(i, n_path[r], stock[r], wealth[r])
        dw = dW[i % len(dW)]  # the row of step i, or the one row with visit
        gen.standard_normal(out=dw)
        dw *= sq
        regime = n_path[r]  # 0 or 1, as take indices
        np.equal(tau, i, out=jumps)

        # ret = S_{i+1}/S_i = exp((mu - sigma^2/2) dt + sigma dW)(1 + beta dN) > 0
        # for every beta > -1, then less 1, so dX = pi * dS/S exactly per step
        # indices are 0 or 1; mode="clip" skips the copy that "raise" makes of out
        np.take(vol[i], regime, out=ret, mode="clip")
        ret *= dw
        ret += np.take(drift[i], regime, mode="clip")
        np.exp(ret, out=ret)
        np.multiply(ret, jump[i], out=ret, where=jumps)
        np.multiply(stock[r], ret, out=stock[r1])
        ret -= 1.0
        # pi per path, or one scalar; read inline so no pi row outlives the step
        np.multiply(ret, strategy(float(times[i]), stock[r], n_path[r]), out=wealth[r1])
        wealth[r1] += wealth[r]
        np.less_equal(tau, i, out=n_path[r1])

    if visit is not None:
        r = n % rows
        visit(n, n_path[r], stock[r], wealth[r])
        return None
    tau_step = tau.astype(np.int64)
    tau_step[tau_step == n] = -1
    return PathEnsemble(times=times, dW=dW.T, n_path=n_path.T, stock=stock.T,
                        wealth=wealth.T, tau_step=tau_step, seed=seed)
