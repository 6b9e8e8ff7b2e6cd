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

On the uniform grid every move is a fixed stencil of taps, built once per
coefficient interval together with its coefficient snapshot.  The backward
pass carries a leading batch axis: each row of Y is one column (claim, k)
with its own terminal condition and its own C = [-k, k].  `solve_bsde` is
the one-column case that keeps the whole surface; `solve_j0_batch` keeps
only the current rows and returns J0 per column.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._util import open_output
from .driver import CoeffSnapshot, StrategySet, minimize_driver_grid
from .model import Claim, MarketModel, _on_times, euler_factor_violation

__all__ = [
    "SpaceGrid",
    "Quadrature",
    "ValueSurface",
    "SolverError",
    "solve_bsde",
    "solve_j0_batch",
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
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("nodes must be strictly increasing")
        h = (x[-1] - x[0]) / dx.size
        # _interp_regimes locates cells arithmetically, which needs equal spacing
        if np.any(np.abs(dx - h) > 1e-9 * h):
            raise ValueError("nodes must be uniformly spaced")
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
        half_width = l_mult * sig_max * math.sqrt(model.grid.horizon)
        if not half_width > 0:
            raise ValueError(f"grid half-width L_mult * sigma_max * sqrt(T) = {half_width:g} "
                             "must be positive")
        return cls.regular(m, half_width)


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
        return _interp_regimes(self.space.nodes, self.Y[i], self.model.s0, s, n)

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


def _interp_regimes(x: np.ndarray, table: np.ndarray, s0: float, s, n) -> np.ndarray:
    """Read table[:, n] at log(s/s0), linear between the nodes x, flat beyond them.

    The cell comes from arithmetic on the uniform grid x, not a search, and
    each query reads only its own regime's column of the (M+1, 2) table.
    ``n`` is a scalar or has the shape of ``s``; a scalar ``s`` gives a scalar.
    The arithmetic runs in place on a copy of s and on its cell index.
    """
    m = x.size - 1
    u = np.array(s, dtype=float)
    u /= s0
    np.log(u, out=u)
    u -= x[0]
    u *= m / (x[m] - x[0])
    np.clip(u, 0.0, m, out=u)
    j = u.astype(np.intp)  # the floor, as u >= 0
    np.minimum(j, m - 1, out=j)
    u -= j
    flat = table.ravel()
    k = j  # reused in place as the flat index 2 j + n of the lower node
    k *= 2
    k += n
    lo = np.take(flat, k)
    k += 2
    out = np.take(flat, k)
    out -= lo
    out *= u
    out += lo
    return out[()]


def _stencil(x: np.ndarray, moves: np.ndarray, weights: np.ndarray):
    """(idx, taps) with taps @ rows[..., idx] = sum_m weights[:, m] rows(x + moves[m]).

    On the uniform grid a move is o + a cells, 0 <= a < 1, read as
    (1 - a) y[j + o] + a y[j + o + 1]; indices clipped to the grid give the
    flat extrapolation of np.interp.  The product is one fixed-shape matmul
    per row, so a row's result does not depend on the batch width.
    """
    m = x.size - 1
    cells = moves * (m / (x[m] - x[0]))
    o = np.floor(cells)
    a = cells - o
    idx = np.concatenate([o, o + 1.0]).astype(np.intp)[:, None] + np.arange(m + 1)
    return np.clip(idx, 0, m), np.concatenate([weights * (1.0 - a), weights * a], axis=1)


def _regimes(model: MarketModel, space: SpaceGrid, quad: Quadrature) -> list:
    """Per step i < N, the (post-default, pre-default) (snapshot, p, diffusion, jump).

    One snapshot and one pair of stencils per distinct coefficient tuple.
    """
    g, c, x = model.grid, model.coeffs, space.nodes
    weights = np.stack([quad.weights, quad.weights * quad.nodes])

    @functools.cache
    def regime(mu, sigma, lam, beta):
        moves = np.log(1.0 + mu * g.dt + sigma * math.sqrt(g.dt) * quad.nodes)
        return (CoeffSnapshot(mu, sigma, lam, beta, gamma=model.gamma),
                1.0 - math.exp(-lam * g.dt), _stencil(x, moves, weights),
                _stencil(x, np.array([math.log1p(beta)]), np.ones((1, 1))))

    t = g.times()[:-1]
    cols = [_on_times(pc, t).tolist() for pc in (c.mu_post, c.sigma_post, c.mu_pre,
                                                 c.sigma_pre, c.lam, c.beta)]
    return [(regime(mu1, sig1, 0.0, 0.0), regime(mu0, sig0, lam, beta))
            for mu1, sig1, mu0, sig0, lam, beta in zip(*cols)]


def _step(regime: tuple, strat: StrategySet, dt: float, y_next: np.ndarray,
          y_jump: np.ndarray | None, step: int, refine: bool):
    """One backward step of one regime; returns (Y, Z, U, pi_hat), (B, M+1) each.

    Row b is batch column b, with its own bounds in ``strat``.  ``y_jump``
    holds the post-default rows that the pre-default regime jumps to; the
    post-default regime passes None and c.lam = 0, and its U is None.
    """
    c, p, (idx, taps), (jump_idx, jump_taps) = regime
    name = "post-default" if y_jump is None else "pre-default"
    moved = taps @ np.take(y_next, idx, axis=-1)
    nojump = moved[:, 0]
    Z = (1.0 - p) * moved[:, 1] / math.sqrt(dt)
    u_eff = 0.0  # the driver's jump argument; zero without jumps
    if y_jump is None:
        E, U = nojump, None
    else:
        vjump = (jump_taps @ np.take(y_jump, jump_idx, axis=-1))[:, 0]
        E = (1.0 - p) * nojump + p * vjump
        U = vjump - nojump
        _check_positive(E, step, f"E ({name})")
        if c.lam > 0.0:
            if np.any(E + U < 0.0):
                j = int(np.argmin(E + U)) % E.shape[-1]
                raise SolverError(
                    f"solver: Y + U >= 0 violated at step {step}, node {j} "
                    "(grid too coarse or L too small)")
            u_eff = U
    f, pi = minimize_driver_grid(c, strat, E, Z, u_eff)
    y = E + dt * f
    if refine:
        _check_positive(y, step, f"Y ({name}, pre-refine)")
        f, pi = minimize_driver_grid(c, strat, y, Z, u_eff)
        y = E + dt * f
    _check_positive(y, step, f"Y ({name})")
    return y, Z, U, pi


def _backward(model: MarketModel, claims, strat: StrategySet, space: SpaceGrid,
              quad: Quadrature, refine: bool):
    """Yield the terminal (post, pre) rows, then (i, post, pre) _step results
    for i = N-1 down to 0; row b belongs to claims[b]."""
    g = model.grid
    if g.dt * model.coeffs.lam.vmax() >= 1.0:
        raise SolverError("solver: dt * max(lambda) must be < 1")
    euler = euler_factor_violation(model, quad.max_abs_node)
    if euler is not None:
        raise SolverError(f"solver: {euler}")
    s_nodes = model.s0 * np.exp(space.nodes)
    y_post, y_pre = (np.exp(-model.gamma * np.array(
        [np.asarray(claim.payoff(s_nodes, n), dtype=float) for claim in claims]))
        for n in (1, 0))
    yield y_post, y_pre
    for i, (post, pre) in reversed(list(enumerate(_regimes(model, space, quad)))):
        post_out = _step(post, strat, g.dt, y_post, None, i, refine)
        pre_out = _step(pre, strat, g.dt, y_pre, y_post, i, refine)
        y_post, y_pre = post_out[0], pre_out[0]
        yield i, post_out, pre_out


def solve_bsde(model: MarketModel, claim: Claim, strat: StrategySet,
               space: SpaceGrid, quad: Quadrature, refine: bool = False) -> ValueSurface:
    """Backward induction for the constrained BSDE; see the module docstring.

    The one-column case of the backward pass that keeps every step.
    ``refine`` adds one fixed-point pass, re-evaluating the driver at the
    first-pass Y instead of the conditional mean E.

    Raises SolverError when a diffusion move has a nonpositive Euler factor
    at some quadrature node, or when an iterate violates Y > 0 or
    Y + U >= 0, reporting the offending step and node.
    """
    n_steps, m1 = model.grid.n_steps, space.nodes.size
    Y = np.empty((n_steps + 1, m1, 2))
    Z = np.full((n_steps + 1, m1, 2), np.nan)
    U = np.full((n_steps + 1, m1), np.nan)
    pi_hat = np.full((n_steps + 1, m1, 2), np.nan)

    steps = _backward(model, (claim,), strat, space, quad, refine)
    Y[n_steps, :, 1], Y[n_steps, :, 0] = (rows[0] for rows in next(steps))
    for i, (y1, z1, _, p1), (y0, z0, u0, p0) in steps:
        Y[i, :, 1], Z[i, :, 1], pi_hat[i, :, 1] = y1[0], z1[0], p1[0]
        Y[i, :, 0], Z[i, :, 0], U[i], pi_hat[i, :, 0] = y0[0], z0[0], u0[0], p0[0]

    return ValueSurface(model=model, claim=claim, strategy_set=strat, space=space,
                        quad=quad, Y=Y, Z=Z, U=U, pi_hat=pi_hat)


def solve_j0_batch(model: MarketModel, claims, ks, space: SpaceGrid, quad: Quadrature,
                   refine: bool = False) -> np.ndarray:
    """J0 of each column (claims[b], C = [-ks[b], ks[b]]) from one backward pass.

    Holds rows, no surface.  Each J0 equals solve_bsde's bit for bit, and
    errors are solve_bsde's, with the node counted within its column.
    """
    steps = _backward(model, claims, StrategySet.symmetric(np.asarray(ks, dtype=float)[:, None]),
                      space, quad, refine)
    next(steps)  # the terminal rows
    for _, _, (y_pre, *_) in steps:
        pass
    return np.array([np.interp(0.0, space.nodes, row) for row in y_pre])


def _check_positive(arr: np.ndarray, step: int, what: str) -> None:
    if np.any(~(arr > 0.0)):
        j = int(np.argmin(arr)) % arr.shape[-1]
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
        return np.clip(_interp_regimes(x, pi[i], model.s0, s, n), strat.lo, strat.hi)

    return strategy


def surface_at_origin(surface: ValueSurface) -> float:
    """Y at t=0, x=0 (S = s0), pre-default."""
    return float(np.interp(0.0, surface.space.nodes, surface.Y[0, :, 0]))
