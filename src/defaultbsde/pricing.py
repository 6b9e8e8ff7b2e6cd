"""Hodges indifference prices from value functions with unbounded strategies.

Buying price: p = (1/gamma) ln(J(0,0) / J(0,xi)); selling price: p* = -p(-xi).
`indifference_price` reports both.  The legs of a price -- the zero claim,
the claim and the negated claim -- are the rows of one backward pass with C = R
(`solver.solve_j0_batch` with no ks).  They share the grid and the
quadrature, so the discretization bias largely cancels in the ratio, and the
zero leg serves both prices.

The paper reaches the unconstrained value as the limit of the values on
C = [-k, k].  The scheme reaches it exactly: the driver's argmin is closed
form, and a pass whose strategy stays within [-k, k] is, bit for bit, the
pass with that bound.  So the one pass gives J0 at every k >= k-bar, the
largest |pi| it reaches, which the pass returns as its legs' reach; the k
sequence itself is `approx.converge`'s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

# solve_j0 is imported only so that benchmark/tracing.py can wrap it by this name
from .approx import solve_j0  # noqa: F401
from .model import Claim, MarketModel
from .solver import Quadrature, SpaceGrid, solve_j0_batch

__all__ = ["PriceReport", "indifference_price", "price_legs", "wealth_scaling"]


@dataclass
class PriceReport:
    """Buy/sell indifference prices with their settings and diagnostics."""

    gamma: float
    J0_zero: float
    J0_claim: float
    buy_price: float
    sell_price: float
    settings: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Exactly the wire fields, in fixed order: every field but diagnostics."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "diagnostics"}


def wealth_scaling(x: float, v0: float, gamma: float) -> float:
    """V(x, xi) = exp(-gamma x) V(0, xi); applied to both legs it cancels in the price."""
    return math.exp(-gamma * x) * v0


def price_legs(claim: Claim) -> tuple:
    """The legs that `indifference_price` solves, in pass order: the zero
    claim, the claim and the negated claim."""
    return Claim.constant(0.0), claim, claim.negated()


def indifference_price(model: MarketModel, claim: Claim, space: SpaceGrid,
                       quad: Quadrature) -> PriceReport:
    """Hodges buying and selling prices of a claim.

    Solves xi = 0, xi = claim and xi = -claim in one unbounded pass with
    identical numerical settings.
    diagnostics: k_bar, the largest |pi| of any leg, the largest reach the
    pass returns; ks = [k_bar] and k_star = k_bar, the bound whose J0 the
    pass equals; monotonicity, gamma k_bar sigma_max sqrt(dt) with sigma_max
    over both regimes.
    """
    gamma, dt = model.gamma, model.grid.dt
    (zero, held, sold), reach = solve_j0_batch(model, price_legs(claim), None, space, quad)
    k_bar = float(reach.max())
    sigma_max = float(model.step_table[:, :, 1].max())
    return PriceReport(
        gamma=gamma,
        J0_zero=float(zero),
        J0_claim=float(held),
        buy_price=math.log(zero / held) / gamma,
        sell_price=-math.log(zero / sold) / gamma,
        settings={"N": model.grid.n_steps, "M": space.m_intervals,
                  "quad_nodes": int(quad.nodes.size)},
        diagnostics={"k_bar": k_bar, "ks": [k_bar], "k_star": k_bar,
                     "monotonicity": gamma * k_bar * sigma_max * math.sqrt(dt)},
    )
