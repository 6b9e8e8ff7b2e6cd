"""Independent verification: brute-force DP on a quantized tree, drift checks.

The DP oracle discretizes the noise itself (moment-matched Gaussian
quantization x {jump, no-jump}) and minimizes over an explicit strategy grid,
so it shares nothing with the BSDE solver except the model.  Exponential
utility factors wealth out multiplicatively, so for claims whose payoff does
not depend on S_T the recursion collapses exactly to the two default states;
stock-dependent claims are enumerated on the full non-recombining tree under
a node budget.

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
from .model import Claim, MarketModel, PathEnsemble, StockPayoff, simulate_paths
from .solver import Quadrature, ValueSurface

__all__ = ["DPTree", "DriftReport", "brute_force_dp", "martingale_check", "monte_carlo_violation"]

MAX_N_SMALL = 10
MAX_Q = 9
MAX_G = 101
DEFAULT_NODE_BUDGET = 2_000_000
MIN_PATHS = 1000
# martingale_check peaks near 27 bytes per path-step (n_paths * N): 26 for
# dW, the default table and the three state arrays, and the rest for per-path
# work rows (measured 26.9 at N = 100, 27.8 at N = 50); so this caps the path
# arrays near 1.1 GB
PATH_STEP_BUDGET = 40_000_000


@dataclass(frozen=True)
class DPTree:
    """Quantization and strategy-grid parameters for the DP oracle."""

    n_small: int
    q: int
    g: int
    k: float
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if not 1 <= self.n_small <= MAX_N_SMALL:
            raise ValueError(f"n_small must be in [1, {MAX_N_SMALL}]")
        if not 1 <= self.q <= MAX_Q:
            raise ValueError(f"q must be in [1, {MAX_Q}]")
        if not 1 <= self.g <= MAX_G:
            raise ValueError(f"strategy grid count must be in [1, {MAX_G}]")
        if not self.k > 0:
            raise ValueError("k must be positive")

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


def brute_force_dp(model: MarketModel, claim: Claim, k: float, n_small: int,
                   q: int, g: int, node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """Exact backward recursion on the quantized tree; returns the root value.

    At each node the expected next-step value is minimized over the g
    equispaced strategies in [-k, k] (g = 1 means the zero strategy only,
    i.e. a plain expectation), with wealth updated by
    pi * (mu dt + sigma dW + beta dN).  Stock-dependent claims enumerate the
    full tree and are rejected when (2q)^n_small exceeds the node budget;
    there every node of a level is valued against the whole strategy grid
    at once, as one (nodes, q) @ (q, g) product per branch, and then
    minimized over the grid.
    """
    tree = DPTree(n_small=n_small, q=q, g=g, k=k, node_budget=node_budget)
    dt = model.grid.horizon / n_small
    dw, w = tree.increments(dt)
    pis = tree.strategy_grid()
    gamma = model.gamma

    if isinstance(claim, StockPayoff):
        leaves = (2 * q) ** n_small
        if leaves > tree.node_budget:
            raise ValueError(
                f"oracle: tree of {leaves} leaves exceeds the node budget "
                f"{tree.node_budget}; reduce n_small or q")
        return _dp_stock_tree(model, claim, tree, dt, dw, w, pis)

    # payoff independent of S_T: state collapses to the default flag
    v0 = math.exp(-gamma * float(claim.payoff(model.s0, 0)))
    v1 = math.exp(-gamma * float(claim.payoff(model.s0, 1)))
    for i in range(n_small - 1, -1, -1):
        t = i * dt
        mu1, s1, _, _ = model.coeffs.at(t, defaulted=True)
        ret1 = mu1 * dt + s1 * dw                      # (q,)
        growth1 = np.exp(-gamma * pis[:, None] * ret1[None, :]) @ w
        v1_new = float(np.min(growth1)) * v1

        mu0, s0c, lam, beta = model.coeffs.at(t, defaulted=False)
        p = 1.0 - math.exp(-lam * dt)
        ret_nj = mu0 * dt + s0c * dw
        ret_j = (1.0 + ret_nj) * (1.0 + beta) - 1.0   # jump composed as in the simulator
        e_nj = np.exp(-gamma * pis[:, None] * ret_nj[None, :]) @ w
        e_j = np.exp(-gamma * pis[:, None] * ret_j[None, :]) @ w
        v0 = float(np.min((1.0 - p) * e_nj * v0 + p * e_j * v1))
        v1 = v1_new
    return v0


def _dp_stock_tree(model: MarketModel, claim: Claim, tree: DPTree, dt: float,
                   dw: np.ndarray, w: np.ndarray, pis: np.ndarray) -> float:
    """Full-tree recursion for stock-dependent payoffs (small trees only).

    A node's expected next-step factor under strategy pi_g is
    sum_m child[m] w[m] exp(-gamma pi_g ret[m]): the child values times a
    (q, g) weight matrix, so each level is one matmul per branch.
    """
    gamma, s0 = model.gamma, model.s0
    n_small = tree.n_small

    def log_moves(mu: float, sig: float, jump: float) -> tuple[np.ndarray, np.ndarray]:
        factors = (1.0 + mu * dt + sig * dw) * (1.0 + jump)
        if np.any(factors <= 0.0):
            raise ValueError("oracle: tree increment drives S nonpositive; refine dt")
        return np.log(factors), factors - 1.0

    def weights(ret: np.ndarray) -> np.ndarray:
        # (q, G): column g weighs the q children by w * exp(-gamma pi_g ret)
        return w[:, None] * np.exp(np.outer(ret, -gamma * pis))

    def value(i: int, x: np.ndarray, n: int) -> np.ndarray:
        if i == n_small:
            return np.exp(-gamma * np.asarray(claim.payoff(s0 * np.exp(x), n), dtype=float))
        t = i * dt
        if n == 1:
            mu1, s1, _, _ = model.coeffs.at(t, defaulted=True)
            mv, ret = log_moves(mu1, s1, 0.0)
            child = value(i + 1, (x[:, None] + mv[None, :]).ravel(), 1).reshape(x.size, -1)
            return (child @ weights(ret)).min(axis=1)
        mu0, s0c, lam, beta = model.coeffs.at(t, defaulted=False)
        p = 1.0 - math.exp(-lam * dt)
        mv_nj, ret_nj = log_moves(mu0, s0c, 0.0)
        mv_j, ret_j = log_moves(mu0, s0c, beta)
        child_nj = value(i + 1, (x[:, None] + mv_nj[None, :]).ravel(), 0).reshape(x.size, -1)
        child_j = value(i + 1, (x[:, None] + mv_j[None, :]).ravel(), 1).reshape(x.size, -1)
        return ((1.0 - p) * (child_nj @ weights(ret_nj))
                + p * (child_j @ weights(ret_j))).min(axis=1)

    return float(value(0, np.zeros(1), 0)[0])


@dataclass
class DriftReport:
    """Per-step and aggregate drift of exp(-gamma X_t) Y(t, S_t, N_t)."""

    times: np.ndarray          # left endpoints of the step intervals
    step_mean: np.ndarray
    step_se: np.ndarray
    aggregate_mean: float
    aggregate_se: float
    n_paths: int
    ensemble: PathEnsemble     # the paths the drift was computed from

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
                     n_threads: int = 1) -> DriftReport:
    """Monte Carlo drift of V_t = exp(-gamma X_t) Y(t, S_t, N_t) along paths.

    V must be a submartingale under any bounded strategy and a martingale
    under the optimal one; the aggregate drift is the per-path total
    V_T - V_0 averaged over paths, with its standard error.  ``n_threads``
    has no effect and is kept for compatibility.

    Steps are streamed in time order: only V at the previous step and V_0
    are held, and each step's mean and standard error are taken from its
    increment, so no (n_paths, N+1) value matrix is built.
    """
    bad = monte_carlo_violation(model, n_paths, seed)
    if bad is not None:
        raise ValueError(f"oracle: {bad}")
    if surface.model != model or surface.claim != claim:
        raise ValueError("oracle: surface was solved on a different model or claim")
    ens = simulate_paths(model, strategy, n_paths, seed)

    def value(i: int) -> np.ndarray:
        y = surface.y_at(i, ens.stock[:, i], ens.n_path[:, i])
        return np.exp(-model.gamma * ens.wealth[:, i]) * y

    n = model.grid.n_steps
    sq = math.sqrt(n_paths)
    step_mean, step_se = np.empty(n), np.empty(n)
    v0 = v = value(0)
    for i in range(n):
        v_next = value(i + 1)
        inc = v_next - v
        step_mean[i] = inc.mean()
        step_se[i] = inc.std(ddof=1) / sq
        v = v_next
    totals = v - v0
    return DriftReport(
        times=ens.times[:-1],
        step_mean=step_mean,
        step_se=step_se,
        aggregate_mean=float(totals.mean()),
        aggregate_se=float(totals.std(ddof=1) / sq),
        n_paths=n_paths,
        ensemble=ens,
    )
