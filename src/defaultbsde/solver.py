"""Backward grid-quadrature solver for the constrained BSDE on (t, log S, N).

Time marches backward from the terminal condition Y_T = exp(-gamma xi).  The
post-default slice is a pure-diffusion BSDE (no jump term) and is advanced
first; the pre-default slice then couples to it through the jump branch.

Per step i and node x_j (pre-default):

    p  = 1 - exp(-lambda dt)
    NJ = sum_m w_m Y[i+1](x_j + log(1 + mu dt + sigma sqrt(dt) zeta_m), 0)
    VJ = Y[i+1](x_j + log(1 + beta), 1)
    E  = (1-p) NJ + p VJ
    Z  = (1-p) sum_m w_m Y[i+1](...) zeta_m / sqrt(dt)
    U  = VJ - NJ
    Y[i] = E + dt * f_min(coeffs(t_i), C, E, Z, U)

with linear interpolation in x and flat extrapolation beyond [-L, L].  The
diffusion move is the no-jump branch of the forward Euler step, so the solver
and the path simulator discretize the same dynamics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import open_output
from .driver import CoeffSnapshot, StrategySet, minimize_driver_grid
from .model import Claim, MarketModel, euler_factor_violation

__all__ = [
    "SpaceGrid",
    "Quadrature",
    "ValueSurface",
    "SolverError",
    "solve_bsde",
    "extract_optimal_strategy",
    "surface_at_origin",
]


class SolverError(RuntimeError):
    """An iterate left the domain of the value function (grid too coarse or L too small)."""


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform grid in x = log(S/s0), symmetric about 0."""

    nodes: np.ndarray

    def __post_init__(self):
        x = self.nodes
        if x.ndim != 1 or x.size < 3:
            raise ValueError("need at least M+1 >= 3 nodes")
        if np.any(np.diff(x) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.allclose(x, -x[::-1], atol=1e-12 * max(1.0, abs(float(x[-1])))):
            raise ValueError("nodes must be symmetric about 0")

    @property
    def m_intervals(self) -> int:
        return self.nodes.size - 1

    @property
    def half_width(self) -> float:
        return float(self.nodes[-1])

    @classmethod
    def regular(cls, m: int, half_width: float) -> "SpaceGrid":
        if m < 2:
            raise ValueError("m must be >= 2")
        return cls(np.linspace(-half_width, half_width, m + 1))

    @classmethod
    def for_model(cls, model: MarketModel, m: int, l_mult: float = 6.0) -> "SpaceGrid":
        """Half-width l_mult * sigma_max * sqrt(T)."""
        c = model.coeffs
        sig_max = max(c.sigma_pre.vmax(), c.sigma_post.vmax())
        return cls.regular(m, l_mult * sig_max * math.sqrt(model.grid.horizon))


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Hermite nodes/weights for a standard normal, symmetrized, weights sum 1."""

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_hermite(cls, m: int = 7) -> "Quadrature":
        if m < 1:
            raise ValueError("need at least one quadrature node")
        x, w = np.polynomial.hermite.hermgauss(m)
        z = math.sqrt(2.0) * x
        w = w / w.sum()
        # enforce exact symmetry so odd moments cancel pairwise
        z = 0.5 * (z - z[::-1])
        w = 0.5 * (w + w[::-1])
        return cls(z, w)

    @property
    def max_abs_node(self) -> float:
        """Largest normalized Gaussian move; bounds the Euler factors the solver uses."""
        return float(np.max(np.abs(self.nodes)))


@dataclass
class ValueSurface:
    """Discrete BSDE solution (Y, Z, U, pi_hat) over (time, log-price, default state).

    Shapes: Y, Z, pi_hat are (N+1, M+1, 2); U is (N+1, M+1) and belongs to
    the pre-default slice.  Z, U, pi_hat are NaN on the terminal row (no
    decision at T).  Y > 0 everywhere, Y[N] = exp(-gamma xi) exactly.
    """

    model: MarketModel
    claim: Claim
    strategy_set: StrategySet
    space: SpaceGrid
    quad: Quadrature
    Y: np.ndarray
    Z: np.ndarray
    U: np.ndarray
    pi_hat: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.Y.shape[0] - 1

    def y_at(self, i: int, s, n) -> np.ndarray:
        """Interpolate Y[i] at stock levels s for per-element default states n."""
        x = np.log(np.asarray(s, dtype=float) / self.model.s0)
        y0 = np.interp(x, self.space.nodes, self.Y[i, :, 0])
        y1 = np.interp(x, self.space.nodes, self.Y[i, :, 1])
        return np.where(np.asarray(n) == 1, y1, y0)

    def to_csv(self, path) -> None:
        """Columns i,t,j,x,s,n,Y,Z,U,pi_hat; U empty for n=1, decisions empty at i=N."""
        times = self.model.grid.times()
        x = self.space.nodes
        s = self.model.s0 * np.exp(x)

        def cell(v: float) -> str:
            return "" if math.isnan(v) else f"{v:.12g}"

        with open_output(path) as fh:
            fh.write("i,t,j,x,s,n,Y,Z,U,pi_hat\n")
            for i in range(self.n_steps + 1):
                for j in range(x.size):
                    for n in (0, 1):
                        u = self.U[i, j] if n == 0 else math.nan
                        fh.write(f"{i},{times[i]:.12g},{j},{x[j]:.12g},{s[j]:.12g},{n},"
                                 f"{self.Y[i, j, n]:.12g},{cell(self.Z[i, j, n])},"
                                 f"{cell(u)},{cell(self.pi_hat[i, j, n])}\n")


def _step(c: CoeffSnapshot, strat: StrategySet, x: np.ndarray, quad: Quadrature,
          dt: float, y_next: np.ndarray, y_jump: np.ndarray | None, step: int,
          refine: bool):
    """One backward step of one regime; returns (Y, Z, U, pi_hat) at the nodes x.

    ``y_jump`` is the post-default row that the pre-default regime jumps to;
    the post-default regime passes None and c.lam = 0, and its U is None.
    """
    regime = "post-default" if y_jump is None else "pre-default"
    sqdt = math.sqrt(dt)
    moves = np.log(1.0 + c.mu * dt + c.sigma * sqdt * quad.nodes)
    vals = np.interp((x[:, None] + moves[None, :]).ravel(), x,
                     y_next).reshape(x.size, quad.nodes.size)
    nojump = vals @ quad.weights
    p = 1.0 - math.exp(-c.lam * dt)
    Z = (1.0 - p) * (vals @ (quad.weights * quad.nodes)) / sqdt
    u_eff = np.zeros(x.size)  # the driver's jump argument; zero without jumps
    if y_jump is None:
        E, U = nojump, None
    else:
        vjump = np.interp(x + math.log1p(c.beta), x, y_jump)
        E = (1.0 - p) * nojump + p * vjump
        U = vjump - nojump
        _check_positive(E, step, f"E ({regime})")
        if c.lam > 0.0:
            if np.any(E + U < 0.0):
                j = int(np.argmin(E + U))
                raise SolverError(
                    f"solver: Y + U >= 0 violated at step {step}, node {j} "
                    "(grid too coarse or L too small)")
            u_eff = U
    f, pi = minimize_driver_grid(c, strat, E, Z, u_eff)
    y = E + dt * f
    if refine:
        _check_positive(y, step, f"Y ({regime}, pre-refine)")
        f, pi = minimize_driver_grid(c, strat, y, Z, u_eff)
        y = E + dt * f
    _check_positive(y, step, f"Y ({regime})")
    return y, Z, U, pi


def solve_bsde(model: MarketModel, claim: Claim, strat: StrategySet,
               space: SpaceGrid, quad: Quadrature, refine: bool = False) -> ValueSurface:
    """Backward induction for the constrained BSDE; see the module docstring.

    ``refine`` adds one fixed-point pass, re-evaluating the driver at the
    first-pass Y instead of the conditional mean E.

    Raises SolverError when a diffusion move has a nonpositive Euler factor
    at some quadrature node, or when an iterate violates Y > 0 or
    Y + U >= 0, reporting the offending step and node.
    """
    g = model.grid
    n_steps, dt = g.n_steps, g.dt
    if dt * model.coeffs.lam.vmax() >= 1.0:
        raise SolverError("solver: dt * max(lambda) must be < 1")
    euler = euler_factor_violation(model, quad.max_abs_node)
    if euler is not None:
        raise SolverError(f"solver: {euler}")
    times = g.times()
    x = space.nodes
    m1 = x.size

    Y = np.empty((n_steps + 1, m1, 2))
    Z = np.full((n_steps + 1, m1, 2), np.nan)
    U = np.full((n_steps + 1, m1), np.nan)
    pi_hat = np.full((n_steps + 1, m1, 2), np.nan)

    s_nodes = model.s0 * np.exp(x)
    for n in (0, 1):
        Y[n_steps, :, n] = np.exp(-model.gamma * np.asarray(claim.payoff(s_nodes, n), dtype=float))

    for i in range(n_steps - 1, -1, -1):
        t = float(times[i])
        post = CoeffSnapshot(*model.coeffs.at(t, defaulted=True), gamma=model.gamma)
        pre = CoeffSnapshot(*model.coeffs.at(t, defaulted=False), gamma=model.gamma)
        Y[i, :, 1], Z[i, :, 1], _, pi_hat[i, :, 1] = _step(
            post, strat, x, quad, dt, Y[i + 1, :, 1], None, i, refine)
        Y[i, :, 0], Z[i, :, 0], U[i, :], pi_hat[i, :, 0] = _step(
            pre, strat, x, quad, dt, Y[i + 1, :, 0], Y[i + 1, :, 1], i, refine)

    return ValueSurface(model=model, claim=claim, strategy_set=strat, space=space,
                        quad=quad, Y=Y, Z=Z, U=U, pi_hat=pi_hat)


def _check_positive(arr: np.ndarray, step: int, what: str) -> None:
    if np.any(~(arr > 0.0)):
        j = int(np.argmin(arr))
        raise SolverError(
            f"solver: {what} positivity violated at step {step}, node {j} "
            "(grid too coarse or L too small)")


def extract_optimal_strategy(surface: ValueSurface):
    """Optimal strategy pi_hat(t, s, n): piecewise in time, interpolated in log s.

    Returned values always lie inside [lo, hi].
    """
    model = surface.model
    strat = surface.strategy_set
    n_steps, dt = model.grid.n_steps, model.grid.dt
    x = surface.space.nodes
    pi = surface.pi_hat

    def strategy(t: float, s, n):
        # small epsilon so grid times t_i map to step i despite rounding
        i = min(max(int(math.floor(t / dt + 1e-9)), 0), n_steps - 1)
        xq = np.log(np.asarray(s, dtype=float) / model.s0)
        v0 = np.interp(xq, x, pi[i, :, 0])
        v1 = np.interp(xq, x, pi[i, :, 1])
        out = np.where(np.asarray(n) == 1, v1, v0)
        return np.clip(out, strat.lo, strat.hi)

    return strategy


def surface_at_origin(surface: ValueSurface) -> float:
    """Y at t=0, x=0 (S = s0), pre-default."""
    return float(np.interp(0.0, surface.space.nodes, surface.Y[0, :, 0]))
