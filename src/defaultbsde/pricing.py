"""Hodges indifference prices from value functions on one k schedule.

Buying price: p = (1/gamma) ln(J(0,0) / J(0,xi)); selling price: p* = -p(-xi).
`indifference_price` reports both, the selling price when it is wanted.
The legs of a price -- the zero claim, the claim and, for the selling
price, the negated claim -- run through one k-doubling loop
(`approx.converge_legs`).  They share the grid, the quadrature, the k
schedule and the stopping rule, so the discretization bias largely cancels
in the ratio; the loop stops only when every leg meets the relative Cauchy
criterion, and the zero leg is solved once per k for both prices.  Each
(leg, k) pair is one column of one backward pass over the whole k schedule
(`diagnostics["bound_per_k"]` records, per leg and k, whether the constraint
bound).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

# solve_j0 is imported only so that benchmark/tracing.py can wrap it by this name
from .approx import converge_legs, solve_j0  # noqa: F401
from .model import Claim, MarketModel
from .solver import Quadrature, SpaceGrid

__all__ = ["PriceReport", "indifference_price", "price_legs", "wealth_scaling"]


@dataclass
class PriceReport:
    """Buy/sell indifference prices with per-k approximations and diagnostics."""

    gamma: float
    J0_zero: float
    J0_claim: float
    buy_price: float
    sell_price: float | None
    per_k: list[tuple[float, float]]
    settings: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Exactly the wire fields, in fixed order."""
        return {
            "gamma": self.gamma,
            "J0_zero": self.J0_zero,
            "J0_claim": self.J0_claim,
            "buy_price": self.buy_price,
            "sell_price": self.sell_price,
            "per_k": [{"k": k, "p": p} for k, p in self.per_k],
            "settings": self.settings,
        }


def wealth_scaling(x: float, v0: float, gamma: float) -> float:
    """V(x, xi) = exp(-gamma x) V(0, xi); applied to both legs it cancels in the price."""
    return math.exp(-gamma * x) * v0


def price_legs(claim: Claim, with_selling: bool = True) -> tuple[tuple, tuple]:
    """(claims, names) of the legs that `indifference_price` solves, in pass order:
    the zero claim, the claim and, when the selling price is wanted, the
    negated claim."""
    claims, names = (Claim.constant(0.0), claim), ("zero", "claim")
    if with_selling:
        claims, names = claims + (claim.negated(),), names + ("negated claim",)
    return claims, names


def indifference_price(model: MarketModel, claim: Claim, space: SpaceGrid,
                       quad: Quadrature, k0: float, tol_rel: float,
                       with_selling: bool = True) -> PriceReport:
    """Hodges buying price of a claim, with per-k approximations.

    Runs xi = 0, xi = claim and, when the selling price is wanted,
    xi = -claim through one k-doubling loop with identical numerical
    settings; p^k = (1/gamma) ln(J^{k,0} / J^{k,xi}) converges to the
    price.  Both prices come from the loop's final k.
    """
    gamma = model.gamma
    claims, names = price_legs(claim, with_selling)
    legs = converge_legs(model, claims, names, space, quad, k0, tol_rel)
    zero, held, *sold = legs
    per_k = [(k, math.log(a / b) / gamma) for k, a, b in zip(zero.ks, zero.j0s, held.j0s)]
    diagnostics = {"ks": zero.ks, "J0_zero_per_k": zero.j0s,
                   "J0_claim_per_k": held.j0s, "k_star": zero.k_star, "k0": k0,
                   "bound_per_k": [res.bound for res in legs]}
    if sold:
        diagnostics["J0_negated_per_k"] = sold[0].j0s

    return PriceReport(
        gamma=gamma,
        J0_zero=zero.j0s[-1],
        J0_claim=held.j0s[-1],
        buy_price=math.log(zero.j0s[-1] / held.j0s[-1]) / gamma,
        sell_price=-math.log(zero.j0s[-1] / sold[0].j0s[-1]) / gamma if sold else None,
        per_k=per_k,
        settings={"N": model.grid.n_steps, "M": space.m_intervals,
                  "quad_nodes": int(quad.nodes.size), "tol_rel": tol_rel},
        diagnostics=diagnostics,
    )
