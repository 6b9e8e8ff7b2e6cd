"""Independent verification: brute-force DP on a quantized tree, drift checks.

The DP oracle discretizes the noise itself (moment-matched Gaussian
quantization x {jump, no-jump}) and minimizes over an explicit strategy grid,
so it shares nothing with the BSDE solver except the model: its tree is its
own Euler discretization of the same SDE, where the solver takes exact
log-normal moves.  Exponential utility factors wealth out multiplicatively, so
for claims whose payoff does not depend on S_T the recursion collapses exactly
to the two default states; stock-dependent claims are enumerated on the full
non-recombining tree under a node budget.

The martingale checker simulates exp(-gamma X_t) Y(t, S_t, N_t) along forward
paths: under any bounded strategy its drift must be >= 0 (dynamic programming
principle), and = 0 under the optimal strategy extracted from the surface.
It uses the solver's surface as Y, so it tests the solver's consistency with
the dynamic programming principle, not ground truth independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import open_output
from .model import (Claim, InputError, MarketModel, PathEnsemble, TimeGrid,
                    coefficient_violations, simulate_paths)
from .solver import TINY, OptimalStrategy, Quadrature, ValueSurface

__all__ = ["DPTree", "DriftReport", "brute_force_dp", "dp_violations", "martingale_check",
           "monte_carlo_violation"]

MAX_N_SMALL = 10
MAX_Q = 9
MAX_G = 101
NODE_BUDGET = 2_000_000
MIN_PATHS = 1000
# martingale_check streams the paths and holds nothing per path-step
# (n_paths * N): its peak is about 117 bytes per path at any N.  With
# keep_paths (the CLI's paths_csv) dW and the three state arrays take 25 bytes
# per path-step (25.8 in all at N = 100), and that case sets this cap near
# 1 GB; the cap also bounds the run time
PATH_STEP_BUDGET = 40_000_000


@dataclass(frozen=True)
class DPTree:
    """Quantization and strategy-grid parameters for the DP oracle."""

    n_small: int
    q: int
    g: int
    k: float

    def __post_init__(self):
        for name, v, cap in (("n_small", self.n_small, MAX_N_SMALL), ("q", self.q, MAX_Q),
                             ("strategy grid count", self.g, MAX_G)):
            if not (isinstance(v, (int, np.integer)) and 1 <= v <= cap):
                raise InputError(f"{name} must be in [1, {cap}] and an integer, got {v!r}")
        if not 0 < self.k < math.inf:
            raise InputError(f"k must be positive and finite, got {self.k!r}")

    def strategy_grid(self) -> np.ndarray:
        if self.g == 1:
            return np.array([0.0])
        return np.linspace(-self.k, self.k, self.g)

    def increments(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Quantized Gaussian increments (zeta*sqrt(dt)) and probabilities.

        Moment-matched: mean 0 and variance dt to 1e-12.
        """
        quad = Quadrature.gauss_hermite(self.q)
        dw = quad.nodes * math.sqrt(dt)
        w = quad.weights
        if abs(float(w @ dw)) > 1e-12 or abs(float(w @ dw**2) - dt) > 1e-12 * max(dt, 1.0):
            raise AssertionError("quantization moments off")  # pragma: no cover
        return dw, w


def dp_violations(model: MarketModel, claim: Claim, tree: DPTree) -> list[str]:
    """`coefficient_violations` at the DP's times i T / n_small; the claim's
    table values, where exp(-gamma xi) must be a finite normal double, as in
    `solver.pass_inputs` (every payoff lies between them); for a claim that depends
    on S, whose full tree alone takes a log of S, its Euler factor at the
    largest q-node move z, 1 + mu dt - z sigma sqrt(dt) > 0 at its latest
    step in each regime, and the (2q)^n_small leaves against NODE_BUDGET."""
    stock, grid = claim.depends_on_s, TimeGrid(model.grid.horizon, tree.n_small)
    bad = [f"DP {v}" for v in coefficient_violations(model, grid)]
    if stock:
        z, dt = Quadrature.gauss_hermite(tree.q).nodes.max(), grid.dt
        tab = model.coeffs.table(grid.times()[:-1])
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN, which fails
            factor = 1.0 + tab[:, :, 0] * dt - tab[:, :, 1] * math.sqrt(dt) * z
        bad += [f"DP {regime}-default Euler factor 1 + mu*dt - {z:.4g}*sigma*sqrt(dt) is "
                f"nonpositive (dt too coarse for this sigma) at step {i} (t={grid.times()[i]:g})"
                for n, regime in enumerate(("pre", "post"))
                for i in np.flatnonzero(~(factor[:, n] > 0.0))[-1:].tolist()]
    gxi = model.gamma * np.array(claim.values, dtype=float)
    with np.errstate(over="ignore"):
        rows = np.exp(-gxi)
    abnormal = np.argwhere(~(rows >= TINY) | np.isinf(rows))
    if abnormal.size:
        n, j = abnormal[0].tolist()
        bad.append(f"DP exp(-gamma*xi) is no finite normal double at gamma*xi = "
                   f"{gxi[n, j]:g}, node {j}, N_T = {n}")
    leaves = (2 * tree.q) ** tree.n_small
    if stock and leaves > NODE_BUDGET:
        bad.append(f"tree of {leaves} leaves exceeds the node budget {NODE_BUDGET}; "
                   "reduce n_small or q")
    return bad


def brute_force_dp(model: MarketModel, claim: Claim, k: float, n_small: int,
                   q: int, g: int) -> float:
    """Exact backward recursion on the quantized tree; returns the root value.

    At each node the expected next-step value is minimized over the g
    equispaced strategies in [-k, k] (g = 1 means the zero strategy only,
    i.e. a plain expectation), with wealth updated by
    pi * (mu dt + sigma dW + beta dN).  Stock-dependent claims enumerate the
    full tree; there every node of a level is valued against the whole
    strategy grid at once, as one (nodes, q) @ (q, g) product per branch, and
    then minimized over the grid.  Raises InputError on what `dp_violations` reports.
    """
    tree = DPTree(n_small=n_small, q=q, g=g, k=k)
    bad = dp_violations(model, claim, tree)
    if bad:
        raise InputError("oracle: " + "; ".join(bad))
    dt = model.grid.horizon / n_small
    dw, w = tree.increments(dt)
    pis = tree.strategy_grid()
    gamma = model.gamma
    # per step i and regime n, (mu, sigma, lam, beta) at the tree's own times i * dt
    tab = model.coeffs.table(TimeGrid(model.grid.horizon, n_small).times()[:-1]).tolist()

    if claim.depends_on_s:
        return _dp_stock_tree(model, claim, tree, tab, dt, dw, w, pis)

    # payoff independent of S_T: state collapses to the default flag
    v0 = math.exp(-gamma * float(claim.payoff(model.s0, 0)))
    v1 = math.exp(-gamma * float(claim.payoff(model.s0, 1)))
    for i in range(n_small - 1, -1, -1):
        (mu0, s0c, lam, beta), (mu1, s1, _, _) = tab[i]
        ret1 = mu1 * dt + s1 * dw                      # (q,)
        growth1 = np.exp(-gamma * pis[:, None] * ret1[None, :]) @ w
        v1_new = float(np.min(growth1)) * v1

        p = 1.0 - math.exp(-lam * dt)
        ret_nj = mu0 * dt + s0c * dw
        ret_j = (1.0 + ret_nj) * (1.0 + beta) - 1.0   # jump composed as in the simulator
        e_nj = np.exp(-gamma * pis[:, None] * ret_nj[None, :]) @ w
        e_j = np.exp(-gamma * pis[:, None] * ret_j[None, :]) @ w
        v0 = float(np.min((1.0 - p) * e_nj * v0 + p * e_j * v1))
        v1 = v1_new
    return v0


def _dp_stock_tree(model: MarketModel, claim: Claim, tree: DPTree, tab: list, dt: float,
                   dw: np.ndarray, w: np.ndarray, pis: np.ndarray) -> float:
    """Full-tree recursion for stock-dependent payoffs (small trees only);
    ``tab[i][n]`` is (mu, sigma, lam, beta) of regime n at step i.

    A node's expected next-step factor under strategy pi_g is
    sum_m child[m] w[m] exp(-gamma pi_g ret[m]): the child values times a
    (q, g) weight matrix, so each level is one matmul per branch.
    """
    gamma, s0 = model.gamma, model.s0
    n_small = tree.n_small

    def log_moves(mu: float, sig: float, jump: float) -> tuple[np.ndarray, np.ndarray]:
        # positive: brute_force_dp checked the factors at the q nodes
        factors = (1.0 + mu * dt + sig * dw) * (1.0 + jump)
        return np.log(factors), factors - 1.0

    def weights(ret: np.ndarray) -> np.ndarray:
        # (q, G): column g weighs the q children by w * exp(-gamma pi_g ret)
        return w[:, None] * np.exp(np.outer(ret, -gamma * pis))

    def value(i: int, x: np.ndarray, n: int) -> np.ndarray:
        if i == n_small:
            return np.exp(-gamma * np.asarray(claim.payoff(s0 * np.exp(x), n), dtype=float))
        mu, sig, lam, beta = tab[i][n]
        if n == 1:
            mv, ret = log_moves(mu, sig, 0.0)
            child = value(i + 1, (x[:, None] + mv[None, :]).ravel(), 1).reshape(x.size, -1)
            return (child @ weights(ret)).min(axis=1)
        p = 1.0 - math.exp(-lam * dt)
        mv_nj, ret_nj = log_moves(mu, sig, 0.0)
        mv_j, ret_j = log_moves(mu, sig, beta)
        child_nj = value(i + 1, (x[:, None] + mv_nj[None, :]).ravel(), 0).reshape(x.size, -1)
        child_j = value(i + 1, (x[:, None] + mv_j[None, :]).ravel(), 1).reshape(x.size, -1)
        return ((1.0 - p) * (child_nj @ weights(ret_nj))
                + p * (child_j @ weights(ret_j))).min(axis=1)

    return float(value(0, np.zeros(1), 0)[0])


@dataclass
class DriftReport:
    """Per-step and aggregate drift of exp(-gamma X_t) Y(t, S_t, N_t).

    ``ensemble`` holds the paths if martingale_check kept them, else None.
    """

    times: np.ndarray          # left endpoints of the step intervals
    step_mean: np.ndarray
    step_se: np.ndarray
    aggregate_mean: float
    aggregate_se: float
    n_paths: int
    ensemble: PathEnsemble | None

    def within(self, n_se: float = 3.0) -> bool:
        return abs(self.aggregate_mean) <= n_se * self.aggregate_se

    def to_csv(self, path) -> None:
        with open_output(path) as fh:
            fh.write("step,t,mean_increment,stderr\n")
            for i, (t, m, se) in enumerate(zip(self.times, self.step_mean, self.step_se)):
                fh.write(f"{i},{t:.12g},{m:.12g},{se:.12g}\n")


def monte_carlo_violation(model: MarketModel, n_paths: int, seed: int) -> str | None:
    """Say why martingale_check cannot use these Monte Carlo inputs, or None."""
    if n_paths < MIN_PATHS:
        return f"need n_paths >= {MIN_PATHS} for a meaningful standard error"
    steps = n_paths * model.grid.n_steps
    if steps > PATH_STEP_BUDGET:
        return (f"{n_paths} paths x {model.grid.n_steps} steps = {steps} path-steps "
                f"exceeds the budget {PATH_STEP_BUDGET}; reduce n_paths or N")
    if not 0 <= seed < 2**128:
        return "seed must be in [0, 2**128)"
    return None


def martingale_check(model: MarketModel, claim: Claim, surface: ValueSurface,
                     strategy, n_paths: int, seed: int,
                     keep_paths: bool = False) -> DriftReport:
    """Monte Carlo drift of V_t = exp(-gamma X_t) Y(t, S_t, N_t) along paths.

    V must be a submartingale under any bounded strategy and a martingale
    under the optimal one; the aggregate drift is the per-path total
    V_T - V_0 averaged over paths, with its standard error.

    One visitor takes the steps in time order, holding only V_0 and V at
    the previous step, and takes each step's moments from its increment.
    By default it consumes the simulation row by row and no path is stored;
    with ``keep_paths`` it runs over the columns of one stored simulation,
    returned in the report.  Both give the same bits.  Streamed under the
    surface's own optimal strategy, the visitor locates each row on the grid
    once and reads both Y and that step's strategy from the one cell.
    """
    bad = monte_carlo_violation(model, n_paths, seed)
    if bad is not None:
        raise InputError(f"oracle: {bad}")
    if surface.model != model or surface.claim != claim:
        raise InputError("oracle: surface was solved on a different model or claim")
    n = model.grid.n_steps
    sq = math.sqrt(n_paths)
    step_mean, step_se = np.empty(n), np.empty(n)
    v = [None, None]  # V_0, V at the last visited step
    # the surface's own strategy, streamed: read at the visitor's cell, which
    # simulate_paths visits before step i reads the strategy
    shared = (not keep_paths and isinstance(strategy, OptimalStrategy)
              and strategy.surface is surface)
    pi_row = [None]
    discount = np.empty(n_paths)  # exp(-gamma X) of the visited step

    def visit(i: int, n_row: np.ndarray, s_row: np.ndarray, w_row: np.ndarray) -> None:
        cell = surface.cell(s_row, n_row)
        if shared and i < n:
            pi_row[0] = strategy.in_cell(i, cell)
        v_i = surface.y_in(i, cell)
        np.multiply(w_row, -model.gamma, out=discount)
        v_i *= np.exp(discount, out=discount)
        if i == 0:
            v[0] = v_i
        else:
            # numpy's mean and std(ddof=1) bit for bit, in one pass fewer
            inc = v_i - v[1]
            step_mean[i - 1] = mean = inc.sum() / n_paths
            inc -= mean
            inc *= inc
            step_se[i - 1] = math.sqrt(inc.sum() / (n_paths - 1)) / sq
        v[1] = v_i

    if keep_paths:
        ens = simulate_paths(model, strategy, n_paths, seed)
        for i in range(n + 1):
            visit(i, ens.n_path[:, i], ens.stock[:, i], ens.wealth[:, i])
    else:
        step_strategy = (lambda t, s, n_: pi_row[0]) if shared else strategy
        ens = simulate_paths(model, step_strategy, n_paths, seed, visit=visit)  # None
    totals = v[1] - v[0]
    return DriftReport(
        times=model.grid.times()[:-1],
        step_mean=step_mean,
        step_se=step_se,
        aggregate_mean=float(totals.mean()),
        aggregate_se=float(totals.std(ddof=1) / sq),
        n_paths=n_paths,
        ensemble=ens,
    )
