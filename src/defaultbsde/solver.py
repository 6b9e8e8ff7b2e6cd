"""Backward grid-quadrature solver for the constrained BSDE on (t, log S, N).

Time marches backward from the terminal condition Y_T = exp(-gamma xi).  One
step advances every default state at once: the pre-default slice couples to
the post-default slice through its jump branch, and the post-default slice,
the last regime, jumps nowhere (p = 0): it is a pure-diffusion BSDE.

Per step i and node x_j (pre-default), with l = ln Y[i+1], Yn = Y[i+1](x_j, n):

    p   = 1 - exp(-lambda dt)
    d_m = l(x_j + (mu - sigma^2/2) dt + sigma sqrt(dt) zeta_m, 0) - l(x_j, 0)
    d_J = l(x_j + log(1 + beta), 1) - l(x_j, 1)
    NJ  = Y0 + Y0 sum_m w_m expm1(d_m),  VJ = Y1 + Y1 expm1(d_J)
    E   = (1-p) NJ + p VJ
    Z   = (1-p) Y0 sum_m w_m zeta_m expm1(d_m) / sqrt(dt)
    U   = VJ - E
    Y[i] = E exp(dt f_min(coeffs(t_i), C, E, Z, U) / E)

with cubic Lagrange interpolation of ln Y in x through the four nodes around
each point and flat extrapolation beyond [-L, L].  The driver is called once
per step for both regimes, at the conditional mean E: the scheme is explicit
and first order in dt.  Its interpolation error is O(h^4 / dt) (Falcone and
Ferretti, 2014), where linear taps gave O(h^2 / dt), which grew as N grew at
fixed M.  The diffusion move is the exact log-normal move over the step at
the coefficients of t_i, as in the path simulator, and exists for every sigma.

The step is positive by construction, so it keeps the domain Y > 0,
Y + U >= 0 (E + U = VJ): two of the four cubic taps are negative, but they
act on ln Y; and the exponential step (Hochbruck and Ostermann, 2010) is
exact for Y' = Y phi with phi frozen, as f is homogeneous of degree 1.  As
f_min <= 0 (0 is in C), Y only shrinks backward: what the step checks is
underflow, E and Y >= TINY.  The surface's reads (`ValueSurface.y_at`,
`OptimalStrategy`, `surface_at_origin`) stay linear in Y.

The backward pass carries its rows as one array indexed (b, n, j): the
batch row b, then the default state n = N_t (0 pre-default, 1 post-default),
as in the coefficient table (`RegimeCoefficients.table`), then the node j.
Each row b has its own terminal condition and its own C = [-k, k], or none.
On the uniform grid every move is a fixed stencil of taps, built once per
distinct coefficient row together with its coefficient snapshot, and stacked
over the regimes, so two takes (moves, output nodes) gather a step.  Each
pass broadcasts the snapshot, p and 1 - p to its rows' full shape once, and
again when a split changes the number of rows.

`solve_j0_batch` holds the one loop over the steps.  It keeps only the
current rows and returns J0 and the reach, the largest |pi|, per column:
unbounded, one row per claim, or on a k schedule, where the ks of one claim
share a row until they bind.  The reach decides binding, splits and k-bar.
Its visitor sees each step's rows once: `solve_bsde` is the one-column pass
whose visitor keeps the whole surface, and the loop's only visitor.
Before any work the pass checks its inputs once, in `pass_inputs`, and
raises one InputError listing every rule they break.

Each move reads ln Y as a difference from l at its output node, and Y0 or
Y1 is added back after the taps.  The taps of a move sum to 1, so this
changes nothing in exact arithmetic, while a row constant in x has d = 0
and maps to itself bit for bit, at any width and batch.

The coefficients depend on t only, so a claim paid on the default alone
(a bond, a constant, the zero leg of a price) has a value function of
(t, N_t) only: its rows are flat in x.  When every terminal row of a pass is
flat, the pass runs on rows one node wide and takes no stencil: NJ = Y,
VJ = the next regime's Y and Z = 0, which is what the full-width step gives
a constant row, bit for bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._util import open_output
from .driver import CoeffSnapshot, StrategySet, minimize_driver_grid
from .model import Claim, InputError, MarketModel, ValidationReport, validate_model

__all__ = [
    "SpaceGrid",
    "Quadrature",
    "ValueSurface",
    "SolverError",
    "SURFACE_NODE_BUDGET",
    "MAX_QUAD_NODES",
    "solve_bsde",
    "solve_j0_batch",
    "pass_inputs",
    "extract_optimal_strategy",
    "OptimalStrategy",
    "surface_at_origin",
]


# the smallest normal double: below it Y keeps fewer than 53 significant bits
TINY = float(np.finfo(float).tiny)
# the regimes' names in error texts, indexed by n = N_t
_NAMES = ("pre-default", "post-default")
# the regime that regime n jumps to: n + 1, and the last regime to itself
_JUMP_TO = np.minimum(np.arange(1, len(_NAMES) + 1), len(_NAMES) - 1)
# solve_bsde keeps Y, Z, pi_hat (both regimes) and U, 56 bytes per
# node-step of the (N+1) x (M+1) surface; tracemalloc puts its peak at 56-61
# (N = 100..400, M = 400..2000), so this cap holds it near 1.1 GB
SURFACE_NODE_BUDGET = 19_000_000
# the largest Gauss-Hermite rule built: hermgauss's m x m companion matrix is
# 8 MB at m = 1000 (about 1 s), while rules from 372 nodes on are not finite
MAX_QUAD_NODES = 1000


class SolverError(RuntimeError):
    """E or Y of a backward step underflowed below TINY, the smallest normal double."""


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform grid in x = log(S/s0): M intervals on [-L, L].

    The two numbers define it; `nodes` is derived from them.  Grids compare
    and hash by (M, L)."""

    m_intervals: int
    half_width: float

    def __post_init__(self):
        if not (isinstance(self.m_intervals, (int, np.integer)) and self.m_intervals >= 2):
            raise InputError(f"m must be >= 2 and an integer, got {self.m_intervals!r}")
        if not 0 < self.half_width < math.inf:
            raise InputError(f"grid half-width L = L_mult * sigma_max * sqrt(T) = "
                             f"{self.half_width:g} must be positive and finite")

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """np.linspace(-L, L, M + 1): x[0] is -L and x[M] is L exactly; built
        once per grid, read-only."""
        x = np.linspace(-self.half_width, self.half_width, self.m_intervals + 1)
        x.flags.writeable = False
        return x

    @classmethod
    def for_model(cls, model: MarketModel, m: int, l_mult: float = 6.0) -> "SpaceGrid":
        """Half-width l_mult * sigma_max * sqrt(T), sigma_max over both regimes
        at the step times t_0..t_{N-1}, where the schemes read sigma."""
        sig_max = float(model.step_table[:, :, 1].max())
        return cls(m, l_mult * sig_max * math.sqrt(model.grid.horizon))


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Hermite nodes/weights for a standard normal, symmetrized, weights sum 1."""

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    @functools.cache
    def gauss_hermite(cls, m: int = 7) -> "Quadrature":
        """The m-node rule, built once per m; its arrays are read-only."""
        if not isinstance(m, (int, np.integer)):
            raise InputError(f"the number of quadrature nodes must be an integer, got {m!r}")
        if m < 1:
            raise InputError("need at least one quadrature node")
        if m > MAX_QUAD_NODES:  # hermgauss would first build a dense m x m matrix
            raise InputError(f"{m} quadrature nodes exceed the cap of {MAX_QUAD_NODES}")
        # a rule too large for double precision comes back with NaN weights
        with np.errstate(all="ignore"):
            x, w = np.polynomial.hermite.hermgauss(m)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
            raise InputError(f"the {m}-node Gauss-Hermite rule is not finite in double precision")
        z = math.sqrt(2.0) * x
        w = w / w.sum()
        # enforce exact symmetry so odd moments cancel pairwise
        z = 0.5 * (z - z[::-1])
        w = 0.5 * (w + w[::-1])
        z.flags.writeable = w.flags.writeable = False
        return cls(z, w)


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
        return self.y_in(i, self.cell(s, n))

    def cell(self, s, n) -> tuple[np.ndarray, np.ndarray]:
        """Where the queries (s, n) sit on the space grid, for `y_in` and
        `OptimalStrategy.in_cell` to read; one location serves every read."""
        return _cell(self.space, self.model.s0, s, n)

    def y_in(self, i: int, cell: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Y[i] at a located cell: the same bits as `y_at` at its queries."""
        return _read(self.Y[i], cell)

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


def _cell(space: SpaceGrid, s0: float, s, n) -> tuple[np.ndarray, np.ndarray]:
    """Locate log(s/s0) on the grid: (k, u), the flat index 2 j + n of the
    lower node of each query's cell in an (M+1, 2) table and the weight u in
    [0, 1] of the upper node; clipped at the grid's ends.

    The cell comes from arithmetic on M and L, not a search, and each query
    is placed in its own regime's column.  ``n`` is a scalar or has the shape
    of ``s``.  The arithmetic runs in place on a copy of s and on its cell
    index.
    """
    m, half = space.m_intervals, space.half_width
    u = np.array(s, dtype=float)
    u /= s0
    np.log(u, out=u)
    u += half
    u *= m / (half + half)
    np.clip(u, 0.0, m, out=u)
    k = u.astype(np.intp)  # the floor j, as u >= 0
    np.minimum(k, m - 1, out=k)
    u -= k
    k *= 2  # in place, the flat index 2 j + n
    k += n
    return k, u


def _read(table: np.ndarray, cell: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Read an (M+1, 2) table at a located cell: linear between the cell's
    nodes, flat beyond the grid.  A scalar query gives a scalar."""
    k, u = cell
    flat = table.ravel()
    lo = np.take(flat, k)
    out = np.take(flat[2:], k)  # the upper node, 2 j + 2 + n
    out -= lo
    out *= u
    out += lo
    return out[()]


def _stencil(space: SpaceGrid, moves: np.ndarray):
    """(idx, taps) with sum_o taps[o] * rows[idx[o]] = rows(x + moves[m]) at [m, j].

    On the uniform grid a move is o + a cells, 0 <= a < 1, read by the cubic
    Lagrange polynomial through the nodes j + o - 1 .. j + o + 2:

        -a(a-1)(a-2)/6, (a+1)(a-1)(a-2)/2, -(a+1)a(a-2)/2, (a+1)a(a-1)/6

    idx is (4, moves, M + 1) and taps (4, moves, 1), offset by offset
    (o - 1, o, o + 1, o + 2).  Indices are clipped to the grid, so values
    beyond it stay flat.  At a = 0 the taps are (0, 1, 0, 0): the beta = 0
    jump is the identity.  `_step` applies the taps to ln Y, so the negative
    ones cannot take a move's value below 0.
    """
    m = space.m_intervals
    cells = moves * (m / (space.half_width + space.half_width))
    o = np.floor(cells)
    a = cells - o
    lagrange = np.stack([-a * (a - 1.0) * (a - 2.0) / 6.0,
                         (a + 1.0) * (a - 1.0) * (a - 2.0) / 2.0,
                         -(a + 1.0) * a * (a - 2.0) / 2.0,
                         (a + 1.0) * a * (a - 1.0) / 6.0])
    idx = (o + np.arange(-1.0, 3.0)[:, None]).astype(np.intp)[..., None] + np.arange(m + 1)
    return np.clip(idx, 0, m), lagrange[..., None]


def _regimes(model: MarketModel, space: SpaceGrid, quad: Quadrature, flat: bool) -> list:
    """Per step i < N, (snapshot, p, 1 - p, offsets, homes, taps, weights) of
    the regimes at t_i, stacked on a regime axis n from the coefficient table.

    offsets[n] (4, q + 1, M + 1) reads the rows of one batch row laid end to
    end: regime n's q moves, then its jump into regime n + 1, at the four tap
    offsets, with the cubic taps[n] (4, q + 1, 1); homes[n] reads each move's
    output node.  weights are the (2, q) quadrature weights w and w zeta.  The
    last regime jumps nowhere: its jump reads its own rows through the
    identity stencil of beta = 0, with p = 0.  Built once per distinct
    coefficient row; ``flat`` builds only (snapshot, p, 1 - p), for rows one
    node wide that need no stencil.
    """
    g = model.grid
    weights = np.stack([quad.weights, quad.weights * quad.nodes])

    @functools.cache
    def regime(mu, sigma, lam, beta):
        moves = (mu - 0.5 * sigma * sigma) * g.dt + sigma * math.sqrt(g.dt) * quad.nodes
        return _stencil(space, np.append(moves, math.log1p(beta)))

    @functools.cache
    def step(coeffs):
        p = np.array([1.0 - math.exp(-lam * g.dt) for _, _, lam, _ in coeffs])[:, None]
        head = (CoeffSnapshot(*np.array(coeffs).T[..., None], gamma=model.gamma), p, 1.0 - p)
        if flat:
            return head
        idx, taps = zip(*(regime(*c) for c in coeffs))
        # the start of the rows each move reads: regime n's, and n + 1's for its jump
        starts = space.nodes.size * np.array([[[n]] * quad.nodes.size + [[_JUMP_TO[n]]]
                                              for n in range(len(coeffs))])
        return (*head, np.stack(idx) + starts[:, None], starts + np.arange(space.nodes.size),
                np.stack(taps), weights)

    tab = model.step_table
    changed = np.r_[True, (tab[1:] != tab[:-1]).any(axis=(1, 2))]
    built = [step(tuple(map(tuple, coeffs))) for coeffs in tab[changed].tolist()]
    return [built[r] for r in (np.cumsum(changed) - 1).tolist()]


def _spread(regime: tuple, shape: tuple) -> tuple:
    """The regime with its snapshot, p and 1 - p broadcast to the rows' full
    shape (B, R, w): the same bits, while every product with them takes
    numpy's same-shape loop instead of its broadcasting one."""
    c, p, stay, *stencils = regime

    def full(v):
        return np.broadcast_to(v, shape).copy()

    return (CoeffSnapshot(*map(full, (c.mu, c.sigma, c.lam, c.beta)), gamma=c.gamma),
            full(p), full(stay), *stencils)


def _step(regime: tuple, strat: StrategySet | None, dt: float, ys: np.ndarray, step: int):
    """One backward step of every regime from the step-(i+1) rows ``ys``
    (B, R, width); returns (Y, Z, U, pi), (B, R, width) each.

    Row b is batch row b, with its own bounds in ``strat`` (None: unbounded).
    Regime n < R-1 jumps to the rows of regime n+1; the last regime jumps
    to its own rows with p = 0, so its E is its no-jump mean and no driver
    lane reads its U.  ``pi`` is the driver's argmin, the strategy.  Each
    move reads ln Y as a difference from the output node's (see the module
    docstring); a regime without stencils steps flat rows one node wide.

    The taps are summed elementwise, offset by offset, and the one product
    is the (2, q) quadrature weighting, of inner dimension q.  With numpy
    2.4.6 and its OpenBLAS, a product whose inner dimension is 16 or more
    sums a row differently at different row and batch widths; below that a
    row's sums are fixed, so a column's bits do not depend on the batch
    (`tests/test_solver.py` checks this for the 7-node rule).
    """
    c, p, stay, *stencils = regime
    b, r, w = ys.shape  # one take reads every regime's moves in ys[b] laid end to end
    target = ys.take(_JUMP_TO, axis=1)  # the rows each regime jumps to
    if stencils:
        offsets, homes, taps, weights = stencils
        logs = np.log(ys).reshape(b, r * w)
        rows = logs.take(offsets, axis=-1)  # (b, r, 4, q + 1, w)
        rows -= logs.take(homes, axis=-1)[:, :, None]
        rows *= taps
        d = rows[:, :, 0] + rows[:, :, 1] + rows[:, :, 2] + rows[:, :, 3]
        np.expm1(d, out=d)  # per move, Y(x_j + move) / Y_j - 1
        moved = weights @ d[:, :, :-1]
        nojump = ys * moved[:, :, 0] + ys
        vjump = target * d[:, :, -1] + target
        Z = stay * ys * moved[:, :, 1] / math.sqrt(dt)
    else:  # flat rows one node wide: every move reads the node itself
        nojump, vjump, Z = ys, target, np.zeros(ys.shape)
    E = stay * nojump + p * vjump
    U = vjump - E  # E + U is the post-jump value VJ >= 0
    # E and Y are positive by construction, so the checks are for underflow;
    # they reduce by the ufunc: ndarray.min adds a Python layer per call
    least = np.minimum.reduce
    if not least(E, axis=None) >= TINY:
        for n in reversed(range(r)):
            _check_normal(E[:, n], step, f"E ({_NAMES[n]})")
    f, pi = minimize_driver_grid(c, strat, E, Z, U)
    y = E * np.exp(dt * f / E)  # the exponential step, exact for Y' = Y f / Y frozen
    if not least(y, axis=None) >= TINY:
        for n in reversed(range(r)):
            _check_normal(y[:, n], step, f"Y ({_NAMES[n]})")
    return y, Z, U, pi


def _gamma_xi(model: MarketModel, claims, space: SpaceGrid) -> np.ndarray:
    """gamma * xi on the grid, [b, n, j] for claims[b], N_T = n and node j."""
    s_nodes = model.s0 * np.exp(space.nodes)
    return model.gamma * np.array([[claim.payoff(s_nodes, n) for n in (0, 1)]
                                   for claim in claims], dtype=float)


def pass_inputs(model: MarketModel, claims,
                space: SpaceGrid) -> tuple[np.ndarray | None, ValidationReport]:
    """The terminal rows exp(-gamma xi) of a pass, row [b, n] for claims[b]
    and N_T = n, and the report of every rule the pass checks before any
    work: `validate_model`'s, then that each row is a finite normal double
    (gamma*xi between -709.78 and 708.39, no NaN), as below the smallest one
    the scheme silently loses relative precision; the first that is not is
    named by its leg b, gamma*xi, the node and N_T.  An s0 that
    `validate_model` rejects gives no prices to pay on: no rows, no row rule."""
    rep = validate_model(model)
    if not 0.0 < model.s0 < math.inf:
        return None, rep
    gxi = _gamma_xi(model, claims, space)
    with np.errstate(over="ignore"):
        rows = np.exp(-gxi)
    # post-default rows first, as the backward pass checks them first
    by_state = rows.transpose(1, 0, 2)[::-1]
    bad = np.argwhere(~(by_state >= TINY) | np.isinf(by_state))
    if bad.size:
        m, b, j = bad[0].tolist()
        rep.violations.append(f"solver: leg {b} ({claims[b]!r}): exp(-gamma*xi) is no finite "
                              f"normal double at gamma*xi = {gxi[b, 1 - m, j]:g}, node {j}, "
                              f"N_T = {1 - m}")
    return rows, rep


def solve_bsde(model: MarketModel, claim: Claim, strat: StrategySet,
               space: SpaceGrid, quad: Quadrature) -> ValueSurface:
    """Backward induction for the constrained BSDE; see the module docstring.

    The one-column pass of `solve_j0_batch`, at k = strat.hi, with a visitor
    that keeps every step's rows: one driver call per step, for both regimes,
    at the conditional mean E.  A flat claim's one-node rows are spread over
    the grid as they are kept.

    Raises InputError, before any work, when the strategy set is not
    [-k, k], when the surface exceeds SURFACE_NODE_BUDGET, or on what
    `pass_inputs` reports; SolverError when E or Y underflows below TINY
    (the smallest normal double), reporting the offending step and node.
    """
    if strat.lo != -strat.hi:
        raise InputError(f"solver: the strategy set must be symmetric, [-k, k]; "
                         f"got [{strat.lo:g}, {strat.hi:g}]")
    n_steps, m1 = model.grid.n_steps, space.nodes.size
    if (n_steps + 1) * m1 > SURFACE_NODE_BUDGET:
        raise InputError(f"solver: {n_steps + 1} steps x {m1} nodes = {(n_steps + 1) * m1} "
                         f"node-steps exceeds the surface budget {SURFACE_NODE_BUDGET}; "
                         "reduce N or M")
    # the pass writes every row but the last, so no page is touched before its checks
    Y, Z, pi_hat = (np.empty((n_steps + 1, m1, 2)) for _ in range(3))
    U = np.empty((n_steps + 1, m1))

    def keep(i, y, z, u, pi):
        Y[i], Z[i], U[i], pi_hat[i] = y[0].T, z[0].T, u[0, 0], pi[0].T  # a flat row broadcasts

    solve_j0_batch(model, (claim,), [strat.hi], space, quad, keep)
    Y[n_steps] = np.exp(-_gamma_xi(model, (claim,), space)[0]).T  # checked by the pass
    Z[n_steps] = U[n_steps] = pi_hat[n_steps] = np.nan
    return ValueSurface(model=model, claim=claim, strategy_set=strat, space=space,
                        quad=quad, Y=Y, Z=Z, U=U, pi_hat=pi_hat)


def solve_j0_batch(model: MarketModel, claims, ks, space: SpaceGrid,
                   quad: Quadrature, visit=None) -> tuple[np.ndarray, np.ndarray]:
    """J0 of each column (claims[b], C = [-ks[b], ks[b]]) from one backward
    pass, and the column's reach: the largest |pi| at any node and step.

    The columns of one claim object share a row, solved at their smallest k,
    until its strategy reaches +-k at some node of either regime: then the
    smallest k keeps the row and the wider ks get a new row, re-solved for
    that step from the rows of step i+1 (again if it binds too).  A row that
    never reaches its bound is the row of every wider bound, and no row
    depends on the batch width, so each J0 and reach is a one-column pass's
    bit for bit.  The clip gives +-k exactly, so a column binds iff its
    reach >= k.  Only a row that holds a wider column is tested for a split.
    With ks None, C = R: each claim is one row, never clipped, and its J0 is
    that of every k >= its reach, bit for bit.  ``visit(i, y, z, u, pi)`` is
    called once per step, i = N-1 down to 0, with the step's (B, 2, width)
    rows, new rows last; it writes none of them.  Holds rows, no surface.
    Raises InputError("model: ...") before any work, listing what
    `pass_inputs` reports; SolverError as solve_bsde.
    """
    dt = model.grid.dt
    cols, strat = [[b] for b in range(len(claims))], None  # per row, its columns
    if ks is not None:
        ks, groups = np.asarray(ks, dtype=float), {}
        StrategySet.symmetric(ks)  # every k, not only the first of each row
        for b in np.argsort(ks, kind="stable").tolist():
            groups.setdefault(id(claims[b]), []).append(b)
        cols = list(groups.values())  # by increasing k

        def bounds(rows):
            return StrategySet.symmetric(ks[[cols[r][0] for r in rows]][:, None, None])

        strat = bounds(range(len(cols)))
    ys, rep = pass_inputs(model, [claims[g[0]] for g in cols], space)
    if not rep.ok:
        raise InputError("model: " + "; ".join(rep.violations))
    flat = bool(np.all(ys == ys[..., :1]))  # every row equals its node 0
    ys = ys[..., :1] if flat else ys
    reach = np.zeros(ys.shape)  # per row and node, the largest |pi| of the steps so far
    wide = [r for r, g in enumerate(cols) if len(g) > 1]  # the rows a split test reads
    regimes, regime = _regimes(model, space, quad, flat), None
    for i in reversed(range(len(regimes))):
        if regimes[i] is not regime or ys.shape != spread[1].shape:  # a new row or a new B
            regime = regimes[i]
            spread = _spread(regime, ys.shape)
        out = _step(spread, strat, dt, ys, i)
        last, reach = reach, np.maximum(reach, np.abs(out[3]))
        while hit := [r for r in wide if reach[r].max() >= ks[cols[r][0]]]:
            for r in hit:
                cols.append(cols[r][1:])
                del cols[r][1:]
            wide = [r for r, g in enumerate(cols) if len(g) > 1]
            rows = ys[hit]  # the new rows re-solve step i from their source rows of step i+1
            more = _step(_spread(regime, rows.shape), bounds(range(len(ys), len(cols))), dt,
                         rows, i)
            ys, last = np.concatenate([ys, rows]), np.concatenate([last, last[hit]])
            out = tuple(map(np.concatenate, zip(out, more)))
            reach = np.concatenate([reach, np.maximum(last[hit], np.abs(more[3]))])
            strat = bounds(range(len(cols)))
        ys = out[0]
        if visit is not None:
            visit(i, *out)
    j0, top = np.empty(len(claims)), np.empty(len(claims))
    for g, row, r in zip(cols, ys[:, 0], reach.max(axis=(1, 2)).tolist()):
        j0[g] = row[0] if flat else np.interp(0.0, space.nodes, row)
        top[g] = r
    return j0, top


def _check_normal(y: np.ndarray, step: int, what: str) -> None:
    """Raise SolverError naming the step and node unless y >= TINY, a
    positive normal double.  A NaN fails the test."""
    least = y.min()
    if least >= TINY:
        return
    rule, cause = ((f"{what} >= {TINY:g}", "subnormal") if least > 0.0
                   else (f"{what} positivity", "underflow"))  # an exp gave 0, or a NaN
    j = int(np.argmin(y)) % y.shape[-1]
    raise SolverError(f"solver: {rule} violated at step {step}, node {j} "
                      f"({cause}: gamma*xi too large)")


@dataclass(frozen=True, eq=False)
class OptimalStrategy:
    """The strategy pi_hat(t, s, n) of a surface: piecewise in time,
    interpolated in log s, clipped to the surface's [lo, hi]."""

    surface: ValueSurface

    def __call__(self, t: float, s, n):
        g = self.surface.model.grid
        # small epsilon so grid times t_i map to step i despite rounding
        i = min(max(int(math.floor(t / g.dt + 1e-9)), 0), g.n_steps - 1)
        return self.in_cell(i, self.surface.cell(s, n))

    def in_cell(self, i: int, cell: tuple[np.ndarray, np.ndarray]):
        """pi_hat of step i at a cell located by `ValueSurface.cell`: the
        same bits as a call at t_i on its queries."""
        strat = self.surface.strategy_set
        return np.clip(_read(self.surface.pi_hat[i], cell), strat.lo, strat.hi)


def extract_optimal_strategy(surface: ValueSurface) -> OptimalStrategy:
    """Optimal strategy pi_hat(t, s, n): piecewise in time, interpolated in log s.

    Returned values always lie inside [lo, hi].
    """
    return OptimalStrategy(surface)


def surface_at_origin(surface: ValueSurface) -> float:
    """Y at t=0, x=0 (S = s0), pre-default."""
    return float(np.interp(0.0, surface.space.nodes, surface.Y[0, :, 0]))
