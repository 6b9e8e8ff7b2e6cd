import math

import numpy as np
import pytest

from defaultbsde import (Claim, MarketModel, PiecewiseConstant,
                         Quadrature, RegimeCoefficients, SpaceGrid, TimeGrid)

# closed forms used across the suite
MERTON_J0 = math.exp(-0.5)                                  # exp(-(mu/sigma)^2 T / 2)
BOND_J0 = math.exp(-1.1) + 1.0 - math.exp(-0.1)             # e^{-gamma}e^{-lam T} + 1 - e^{-lam T}
BOND_BUY = -math.log(BOND_J0)
BOND_SELL = math.log(math.exp(0.9) + 1.0 - math.exp(-0.1))  # ln E[e^{gamma xi}]


def merton_model(n_steps: int = 200) -> MarketModel:
    return MarketModel(grid=TimeGrid(1.0, n_steps),
                       coeffs=RegimeCoefficients.constant(mu=1.0, sigma=1.0,
                                                          beta=0.0, lam=0.0),
                       gamma=1.0)


def bond_model(n_steps: int = 100) -> MarketModel:
    return MarketModel(grid=TimeGrid(1.0, n_steps),
                       coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.2,
                                                          beta=0.0, lam=0.1),
                       gamma=1.0)


def piecewise_model(n_steps: int = 60) -> MarketModel:
    """Every coefficient switches inside [0, T]; post-default mu/sigma of their own."""
    coeffs = RegimeCoefficients(
        mu_pre=PiecewiseConstant((0.0, 0.3, 0.7), (0.1, -0.05, 0.2)),
        sigma_pre=PiecewiseConstant((0.0, 0.5), (0.2, 0.35)),
        mu_post=PiecewiseConstant((0.0, 0.6), (-0.1, 0.03)),
        sigma_post=PiecewiseConstant((0.0, 0.4), (0.4, 0.15)),
        beta=PiecewiseConstant((0.0, 0.5), (-0.4, 0.6)),
        lam=PiecewiseConstant((0.0, 0.2), (1.0, 2.5)))
    return MarketModel(grid=TimeGrid(1.0, n_steps), coeffs=coeffs, gamma=1.3)


def coeffs_in_force(model: MarketModel, t: float, n: int) -> tuple:
    """(mu, sigma, lam, beta) of regime n = N_t at time t, read by scalar
    PiecewiseConstant calls, so references do not share the model's table."""
    c = model.coeffs
    if n == 1:
        return c.mu_post(t), c.sigma_post(t), 0.0, 0.0
    return c.mu_pre(t), c.sigma_pre(t), c.lam(t), c.beta(t)


BOND_CLAIM = Claim.default_indicator(1.0, 0.0)
ZERO_CLAIM = Claim.constant(0.0)
S_NODES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
# the strike-1 put on S_NODES, paid the same whether or not default came
PUT_1 = Claim(S_NODES, (tuple(max(1.0 - s, 0.0) for s in S_NODES),) * 2)


def complete_model(n_steps: int = 100) -> MarketModel:
    """beta = 0 and one (mu, sigma) before and after default: for a claim
    paid the same in both default states, such as PUT_1, default touches
    neither the stock nor the claim, and the market is complete."""
    return MarketModel(grid=TimeGrid(1.0, n_steps),
                       coeffs=RegimeCoefficients.constant(mu=0.05, sigma=0.25,
                                                          beta=0.0, lam=0.0),
                       gamma=1.0)


@pytest.fixture
def quad7() -> Quadrature:
    return Quadrature.gauss_hermite(7)


def random_mild_model(rng: np.random.Generator, n_steps: int = 100) -> MarketModel:
    """Random bounded-coefficient model tame enough for a monotone step.

    gamma * k_max * sigma * sqrt(dt) stays below ~0.3 for k up to 8, which
    keeps the driver's part of the one-step operator monotone in the rows.
    The cubic taps in x have negative weights, so the step as a whole is
    monotone only on rows flat in x, such as those of `random_claim`'s
    constants and default indicators.
    """
    from defaultbsde import PiecewiseConstant

    if rng.random() < 0.5:
        mu_pre = PiecewiseConstant((0.0, 0.5), tuple(rng.uniform(-0.15, 0.15, 2)))
    else:
        mu_pre = PiecewiseConstant.flat(float(rng.uniform(-0.15, 0.15)))
    coeffs = RegimeCoefficients(
        mu_pre=mu_pre,
        sigma_pre=PiecewiseConstant.flat(float(rng.uniform(0.1, 0.25))),
        mu_post=PiecewiseConstant.flat(float(rng.uniform(-0.15, 0.15))),
        sigma_post=PiecewiseConstant.flat(float(rng.uniform(0.1, 0.25))),
        beta=PiecewiseConstant.flat(float(rng.uniform(-0.4, 0.8))),
        lam=PiecewiseConstant.flat(float(rng.uniform(0.0, 0.5))),
    )
    return MarketModel(grid=TimeGrid(1.0, n_steps), coeffs=coeffs,
                       gamma=float(rng.uniform(0.5, 1.2)))


def random_claim(rng: np.random.Generator):
    if rng.random() < 0.5:
        return Claim.constant(float(rng.uniform(-0.5, 1.5)))
    return Claim.default_indicator(float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 1.5)))


def solve_setup(model: MarketModel, m_space: int = 80, quad_nodes: int = 7):
    return SpaceGrid.for_model(model, m_space), Quadrature.gauss_hermite(quad_nodes)
