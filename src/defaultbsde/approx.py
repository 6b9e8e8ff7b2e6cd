"""k-truncation of the strategy set: sweeps over C = [-k, k] and the k -> inf limit.

The value function with unconstrained strategies is the nonincreasing limit
of the value functions over strategies bounded by k.  Each k gives a
Lipschitz BSDE, solved by the one explicit scheme of `solver`; the
unconstrained value is reached by geometric doubling of k with a relative
Cauchy stopping rule (once the constraint stops binding, J0(k) flattens
exponentially fast).

`converge` runs the doubling loop for one claim.  It solves every doubling up
to the cap in one backward pass, where the ks share a row until their
constraint binds, then applies the stopping rule k by k, so the schedule, k*
and the errors are those of a serial run.  `k_sweep` solves its schedule in
one pass too, and both record their sweep in the one loop of `_sweep`.
`bound` records whether a k binds: the clip gives +-k exactly, so whether
the claim's reach, its largest |pi|, is >= k.  `pricing` solves C = R
directly, in one pass.

Exact monotonicity in k holds in continuous time; the discrete scheme can
break it by rounding-level noise, so violations beyond 1e-9 plus a reported
noise bound are recorded on the result rather than asserted away.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import open_output
from .model import Claim, InputError, MarketModel
from .solver import Quadrature, SolverError, SpaceGrid, solve_j0_batch
# imported only so that benchmark/tracing.py can wrap it by this name
from .solver import solve_bsde  # noqa: F401

__all__ = ["KSweepResult", "NonConvergenceError", "k_sweep", "converge", "solve_j0"]

MONOTONE_TOL = 1e-9
MAX_DOUBLINGS = 20


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
    k_star: float | None = None
    monotone_violations: list[tuple[float, float, float]] = field(default_factory=list)
    noise_bound: float = 0.0
    bound: list[bool] = field(default_factory=list)  # per k: did pi reach +-k somewhere

    def to_csv(self, path) -> None:
        """Columns k,J0."""
        with open_output(path) as fh:
            fh.write("k,J0\n")
            for k, j0 in zip(self.ks, self.j0s):
                fh.write(f"{k:.12g},{j0:.12g}\n")


def check_doubling(k0: float, tol_rel: float) -> None:
    """Raise InputError unless the doubling start k0 and tolerance are positive and finite."""
    if not 0 < k0 < math.inf:
        raise InputError("k0 must be positive and finite")
    if not 0 < tol_rel < math.inf:
        raise InputError("tol_rel must be positive and finite")


def check_schedule(ks: list[float]) -> None:
    """Raise InputError unless ks is nonempty, positive, finite and strictly increasing."""
    if not ks:
        raise InputError("ks must be nonempty")
    if any(not 0 < k < math.inf for k in ks) or any(not b > a for a, b in zip(ks, ks[1:])):
        raise InputError("ks must be strictly increasing, positive and finite")


def _solve_pass(model: MarketModel, claim: Claim, space: SpaceGrid, quad: Quadrature,
                ks: list[float]):
    """Yield (k, J0, bound) in k order from one pass over every k.

    The claim binds at k when its reach, its largest |pi|, is >= k.  A pass
    that fails during its steps is solved again one k at a time, so a
    SolverError carries the ``k=...:`` tag of a serial run, and a k past the
    caller's stopping point never raises.  An InputError, found before any
    work, passes as it is.
    """
    try:
        j0, reach = solve_j0_batch(model, [claim] * len(ks), ks, space, quad)
    except SolverError as exc:
        if len(ks) == 1:
            raise SolverError(f"k={ks[0]:g}: {exc}") from exc
        for k in ks:
            yield from _solve_pass(model, claim, space, quad, [k])
        return
    # the clip gives +-k exactly
    yield from zip(ks, j0.tolist(), (reach >= ks).tolist())


def solve_j0(model: MarketModel, claim: Claim, space: SpaceGrid, quad: Quadrature,
             k: float) -> float:
    """One solve on C = [-k, k]; returns J0; failures are tagged with k."""
    _, j0, _ = next(_solve_pass(model, claim, space, quad, [k]))
    return j0


def _sweep(model: MarketModel, claim: Claim, space: SpaceGrid, quad: Quadrature,
           ks: list[float], tol_rel: float | None = None) -> KSweepResult:
    """The sweep along ks from one pass, monotonicity checked as `k_sweep` says.

    With tol_rel, stop at the first k where |J0(k) - J0(k/2)| <= tol_rel *
    J0(k/2), the columns past it dropped, and set k_star to that k.
    """
    res = KSweepResult(ks=[], j0s=[])
    for k, j0, hit in _solve_pass(model, claim, space, quad, ks):
        res.ks.append(k)
        res.j0s.append(j0)
        res.bound.append(hit)
        j = res.j0s
        if tol_rel is not None and len(j) >= 2 and abs(j[-1] - j[-2]) <= tol_rel * abs(j[-2]):
            res.k_star = k
            break
    res.noise_bound = 32.0 * np.finfo(float).eps * max(abs(v) for v in res.j0s)
    for (k1, j1), (k2, j2) in zip(zip(res.ks, res.j0s), zip(res.ks[1:], res.j0s[1:])):
        excess = j2 - j1 - MONOTONE_TOL - res.noise_bound
        if excess > 0.0:
            res.monotone_violations.append((k1, k2, excess))
    return res


def k_sweep(model: MarketModel, claim: Claim, space: SpaceGrid, quad: Quadrature,
            ks: list[float]) -> KSweepResult:
    """Solve every k of an increasing positive schedule in one pass; record J0 and bound.

    Monotone nonincrease of J0 is checked within 1e-9 plus the reported noise
    bound; violations are recorded on the result, not silently tolerated.
    Solver failures propagate tagged with the offending k.
    """
    check_schedule(ks)
    return _sweep(model, claim, space, quad, ks)


def converge(model: MarketModel, claim: Claim, space: SpaceGrid, quad: Quadrature,
             k0: float, tol_rel: float) -> tuple[float, KSweepResult]:
    """Double k from k0 until |J0(2k) - J0(k)| <= tol_rel * J0(k).

    One pass solves every doubling up to the cap; the columns past the
    stopping k are dropped.  Returns the last value as the unconstrained
    J(0) together with the sweep.  Raises NonConvergenceError (with the full
    sequence) after MAX_DOUBLINGS doublings, read at call time.
    """
    check_doubling(k0, tol_rel)
    res = _sweep(model, claim, space, quad, [k0 * 2.0 ** i for i in range(MAX_DOUBLINGS + 1)],
                 tol_rel)
    if res.k_star is None:
        raise NonConvergenceError(
            f"approx: no k-convergence after {MAX_DOUBLINGS} doublings from k0={k0:g} "
            f"(J0 sequence: {res.j0s})", res.ks, res.j0s)
    return res.j0s[-1], res
