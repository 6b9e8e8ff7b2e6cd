"""k-truncation of the strategy set: sweeps over C = [-k, k] and the k -> inf limit.

The value function with unconstrained strategies is the nonincreasing limit
of the value functions over strategies bounded by k.  Each k gives a
Lipschitz BSDE solved by the grid scheme; the unconstrained value is reached
by geometric doubling of k with a relative Cauchy stopping rule (once the
constraint stops binding, J0(k) flattens exponentially fast).

`converge_legs` is the one doubling loop: it solves each claim (leg) once per
k on a shared schedule; `converge` runs one leg, `pricing` the legs of a price.
It solves blocks of three doublings, every leg at once, in one batched
backward pass, then applies the stopping rule k by k, so the schedule, k*
and the errors are those of a serial run.  `k_sweep` solves its whole
schedule in one pass.  A k's runtime_ms is its share of its pass.

Exact monotonicity in k holds in continuous time; the discrete scheme can
break it by rounding-level noise, so violations beyond 1e-9 plus a reported
noise bound are recorded on the result rather than asserted away.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._util import open_output
from .model import Claim, MarketModel
from .solver import Quadrature, SolverError, SpaceGrid, solve_j0_batch
# imported only so that benchmark/tracing.py can wrap it by this name
from .solver import solve_bsde  # noqa: F401

__all__ = ["KSweepResult", "NonConvergenceError", "k_sweep", "converge", "converge_legs", "solve_j0"]

MONOTONE_TOL = 1e-9
MAX_DOUBLINGS = 20
# doublings solved together: one backward pass takes k0 2^i, ..., k0 2^(i+2) of every leg
_BLOCK = 3


class NonConvergenceError(RuntimeError):
    """k-doubling hit the cap without meeting the Cauchy criterion."""

    def __init__(self, message: str, ks: list[float], j0s: list[float]):
        super().__init__(message)
        self.ks = ks
        self.j0s = j0s


@dataclass
class KSweepResult:
    """J0 values along an increasing k-schedule plus convergence diagnostics."""

    ks: list[float]
    j0s: list[float]
    runtimes_ms: list[float]
    converged: bool = False
    k_star: float | None = None
    monotone_violations: list[tuple[float, float, float]] = field(default_factory=list)
    noise_bound: float = 0.0

    def to_csv(self, path) -> None:
        """Columns k,J0,runtime_ms (runtime is a wall-clock diagnostic)."""
        with open_output(path) as fh:
            fh.write("k,J0,runtime_ms\n")
            for k, j0, ms in zip(self.ks, self.j0s, self.runtimes_ms):
                fh.write(f"{k:.12g},{j0:.12g},{ms:.3f}\n")


def check_doubling(k0: float, tol_rel: float) -> None:
    """Raise ValueError unless the doubling start k0 and tolerance are positive."""
    if not k0 > 0:
        raise ValueError("k0 must be positive")
    if not tol_rel > 0:
        raise ValueError("tol_rel must be positive")


def check_schedule(ks: list[float]) -> None:
    """Raise ValueError unless ks is nonempty, positive and strictly increasing."""
    if not ks:
        raise ValueError("ks must be nonempty")
    if any(not k > 0 for k in ks) or any(not b > a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly increasing and positive")


def _solve_block(model: MarketModel, claims, space: SpaceGrid, quad: Quadrature,
                 ks: list[float], refine: bool):
    """Yield (k, J0 per leg, runtime_ms) in k order from one pass over every (leg, k).

    runtime_ms is the k's share of the pass's wall time.  A failed pass is
    solved again one k at a time, so an error carries the ``k=...:`` tag of
    a serial run, and a k past the caller's stopping point never raises.
    """
    t0 = time.perf_counter()
    try:
        j0 = solve_j0_batch(model, [claim for _ in ks for claim in claims],
                            np.repeat(ks, len(claims)), space, quad, refine=refine)
    except (SolverError, ValueError) as exc:
        if len(ks) == 1:
            raise type(exc)(f"k={ks[0]:g}: {exc}") from exc
        for k in ks:
            yield from _solve_block(model, claims, space, quad, [k], refine)
        return
    ms = 1e3 * (time.perf_counter() - t0) / len(ks)
    for k, row in zip(ks, j0.reshape(len(ks), len(claims)).tolist()):
        yield k, row, ms


def solve_j0(model: MarketModel, claim: Claim, space: SpaceGrid, quad: Quadrature,
             k: float, refine: bool = False) -> tuple[float, float]:
    """One solve on C = [-k, k]; returns (J0, runtime_ms); failures are tagged with k."""
    _, (j0,), ms = next(_solve_block(model, (claim,), space, quad, [k], refine))
    return j0, ms


def _finalize(res: KSweepResult) -> KSweepResult:
    res.noise_bound = 32.0 * np.finfo(float).eps * max(abs(v) for v in res.j0s)
    for (k1, j1), (k2, j2) in zip(zip(res.ks, res.j0s), zip(res.ks[1:], res.j0s[1:])):
        excess = j2 - j1 - MONOTONE_TOL - res.noise_bound
        if excess > 0.0:
            res.monotone_violations.append((k1, k2, excess))
    return res


def k_sweep(model: MarketModel, claim: Claim, space: SpaceGrid, quad: Quadrature,
            ks: list[float], refine: bool = False) -> KSweepResult:
    """Solve every k of an increasing positive schedule in one pass; record J0 and runtime.

    Monotone nonincrease of J0 is checked within 1e-9 plus the reported noise
    bound; violations are recorded on the result, not silently tolerated.
    Solver failures propagate tagged with the offending k.
    """
    check_schedule(ks)
    res = KSweepResult(ks=list(ks), j0s=[], runtimes_ms=[])
    for _, (j0,), ms in _solve_block(model, (claim,), space, quad, res.ks, refine):
        res.j0s.append(j0)
        res.runtimes_ms.append(ms)
    return _finalize(res)


def _cauchy(res: KSweepResult, tol_rel: float) -> bool:
    j = res.j0s
    return len(j) >= 2 and abs(j[-1] - j[-2]) <= tol_rel * abs(j[-2])


def converge_legs(model: MarketModel, claims: tuple[Claim, ...], names: tuple[str, ...],
                  space: SpaceGrid, quad: Quadrature, k0: float, tol_rel: float,
                  refine: bool = False,
                  max_doublings: int | None = None) -> list[KSweepResult]:
    """Double k from k0, solving every leg once per k, until all legs are Cauchy.

    Stops at the first k where each leg has |J0(2k) - J0(k)| <= tol_rel * J0(k);
    returns one sweep per leg on that schedule.  Each pass solves a block of
    up to _BLOCK doublings; the columns past the stopping k are dropped.  After ``max_doublings``
    (default MAX_DOUBLINGS, read at call time) raises NonConvergenceError that
    names the failed legs and carries the sequence of the first.
    """
    check_doubling(k0, tol_rel)
    cap = MAX_DOUBLINGS if max_doublings is None else max_doublings
    legs = [KSweepResult(ks=[], j0s=[], runtimes_ms=[]) for _ in claims]
    ks = [k0 * 2.0 ** i for i in range(cap + 1)]
    for start in range(0, cap + 1, _BLOCK):
        for k, j0s, ms in _solve_block(model, claims, space, quad,
                                       ks[start:start + _BLOCK], refine):
            for res, j0 in zip(legs, j0s):
                res.ks.append(k)
                res.j0s.append(j0)
                res.runtimes_ms.append(ms)
            if all(_cauchy(res, tol_rel) for res in legs):
                for res in legs:
                    res.converged = True
                    res.k_star = k
                return [_finalize(res) for res in legs]
    bad = [i for i, res in enumerate(legs) if not _cauchy(res, tol_rel)]
    first = legs[bad[0]]
    raise NonConvergenceError(
        f"approx: no k-convergence after {cap} doublings from k0={k0:g} for leg(s) "
        f"{', '.join(names[i] for i in bad)} (J0 sequence of {names[bad[0]]}: {first.j0s})",
        first.ks, first.j0s)


def converge(model: MarketModel, claim: Claim, space: SpaceGrid, quad: Quadrature,
             k0: float, tol_rel: float, refine: bool = False,
             max_doublings: int = MAX_DOUBLINGS) -> tuple[float, KSweepResult]:
    """Double k from k0 until |J0(2k) - J0(k)| <= tol_rel * J0(k).

    The one-leg case of `converge_legs`.  Returns the last value as the
    unconstrained J(0) together with the sweep.  Raises NonConvergenceError
    (with the full sequence) after ``max_doublings`` doublings (default 20).
    """
    (res,) = converge_legs(model, (claim,), ("claim",), space, quad, k0, tol_rel,
                           refine=refine, max_doublings=max_doublings)
    return res.j0s[-1], res
