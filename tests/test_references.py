"""Prices against references that need nothing from outside the repo: closed
forms and a two-state ODE.  The bond and the ramp sit at risk aversions and
grids where exp(-gamma xi) falls by orders of magnitude across a few cells
or one step, which a step that is not positive by construction cannot
price.  Each run also keeps inf xi <= buy <= sell <= sup xi.
"""
import itertools
import math

import numpy as np

from defaultbsde import (Claim, CoeffSnapshot, MarketModel, RegimeCoefficients, StrategySet,
                         TimeGrid, indifference_price, minimize_driver)

from conftest import solve_setup
from test_acceptance import replication

ZERO_RECOVERY_BOND = Claim.default_indicator(1.0, 0.0)
# 0 below S = 1 and 1 above S = 1.2, linear in log S between: at gamma = 10
# exp(-gamma xi) falls by e^-10 over a few cells of the grid
RAMP = Claim((1.0, 1.2), ((0.0, 1.0),) * 2)
# pays 1 on survival and 0.2 on default, in a constant market with jumps
FLAT_CLAIM = Claim.default_indicator(1.0, 0.2)
JUMP_MARKET = dict(mu=0.05, sigma=0.25, beta=-0.3, lam=0.3)
# (buy, sell) of FLAT_CLAIM in JUMP_MARKET at T = 1 from `ode_j0`: the same
# 12 digits at 500, 1000 and 4000 RK4 steps
ODE_PRICES = {1.0: (0.773461333706, 0.854675421204),
              5.0: (0.611296543144, 0.939687206884)}


def market(n_steps: int, gamma: float, **coeffs) -> MarketModel:
    return MarketModel(grid=TimeGrid(1.0, n_steps),
                       coeffs=RegimeCoefficients.constant(**coeffs), gamma=gamma)


def prices(model: MarketModel, claim: Claim, m_space: int) -> tuple[float, float]:
    """(buy, sell), checked against the claim's bounds and each other."""
    rep = indifference_price(model, claim, *solve_setup(model, m_space=m_space))
    lo, hi = claim.bounds()
    assert lo <= rep.buy_price <= rep.sell_price <= hi, (rep.buy_price, rep.sell_price)
    return rep.buy_price, rep.sell_price


def ode_j0(gamma: float, survival: float, default: float, steps: int) -> float:
    """Y at t = 0 before default of a claim paying ``survival`` or ``default``
    at T = 1 in JUMP_MARKET: RK4 in tau = T - t on

        dY1/dtau = min_pi f_pi(Y1, 0, 0)
        dY0/dtau = lam (Y1 - Y0) + min_pi f_pi(Y0, 0, Y1 - Y0),

    over a strategy set too wide to bind."""
    pre = CoeffSnapshot(**JUMP_MARKET, gamma=gamma)
    post = CoeffSnapshot(JUMP_MARKET["mu"], JUMP_MARKET["sigma"], 0.0, 0.0, gamma)
    strat, lam = StrategySet.symmetric(1e3), JUMP_MARKET["lam"]

    def rate(y):
        y0, y1 = y
        return np.array([lam * (y1 - y0) + minimize_driver(pre, strat, y0, 0.0, y1 - y0)[0],
                         minimize_driver(post, strat, y1, 0.0, 0.0)[0]])

    y, h = np.exp([-gamma * survival, -gamma * default]), 1.0 / steps
    for _ in range(steps):
        k1 = rate(y)
        k2 = rate(y + 0.5 * h * k1)
        k3 = rate(y + 0.5 * h * k2)
        k4 = rate(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(y[0])


def test_zero_recovery_bond_meets_its_closed_form():
    # beta = 0 makes default independent of S: with q = exp(-lam T),
    # buy = -ln(q e^-gamma + 1 - q) / gamma and sell = ln(q e^gamma + 1 - q) / gamma
    for gamma, lam, n_steps in itertools.product((1.0, 5.0, 8.0, 10.0, 20.0), (0.1, 1.0),
                                                 (100, 400, 1600)):
        q = math.exp(-lam)
        want = (-math.log(q * math.exp(-gamma) + 1.0 - q) / gamma,
                math.log(q * math.exp(gamma) + 1.0 - q) / gamma)
        got = prices(market(n_steps, gamma, mu=0.0, sigma=0.2, beta=0.0, lam=lam),
                     ZERO_RECOVERY_BOND, 100)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12,
                                   err_msg=f"gamma={gamma}, lam={lam}, N={n_steps}")


def test_complete_market_ramp_errors_shrink_at_gamma_10():
    # beta = lam = 0 and a claim paid alike in both states: buy = sell = E_Q[xi]
    want = replication(RAMP, 0.25, 1.0)[0]
    assert abs(want - 0.3159636) < 5e-8
    errors = [np.subtract(prices(market(n, 10.0, mu=0.05, sigma=0.25, beta=0.0, lam=0.0),
                                 RAMP, n), want) for n in (100, 200, 400, 800)]
    assert np.all(np.diff(np.abs(errors), axis=0) < 0.0), errors


def test_ode_gives_the_pinned_prices():
    for gamma, want in ODE_PRICES.items():
        j0 = ode_j0(gamma, 0.0, 0.0, 500)
        got = (-math.log(ode_j0(gamma, 1.0, 0.2, 500) / j0) / gamma,
               math.log(ode_j0(gamma, -1.0, -0.2, 500) / j0) / gamma)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=f"gamma={gamma}")


def test_flat_jump_market_claim_first_order():
    # the scheme is first order in dt: each halving of dt halves the error,
    # up to a ratio of 1.5 on the coarsest grids at gamma = 5
    for gamma, want in ODE_PRICES.items():
        errors = [np.subtract(prices(market(n, gamma, **JUMP_MARKET), FLAT_CLAIM, 20), want)
                  for n in (25, 50, 100, 200, 400)]
        ratios = np.divide(errors[:-1], errors[1:])
        assert np.all((1.5 <= ratios) & (ratios <= 2.1)), (gamma, ratios)
