import json
import math

import numpy as np
import pytest

from defaultbsde import (Claim, MarketModel, NonConvergenceError, PiecewiseConstant,
                         RegimeCoefficients, SolverError, TimeGrid,
                         approx, converge, indifference_price, pricing, solver,
                         wealth_scaling)
from defaultbsde.cli import emit_report

from conftest import (BOND_BUY, BOND_CLAIM, BOND_SELL, bond_model, merton_model,
                      random_claim, random_mild_model, solve_setup)


def price(model, claim, m_space=60):
    space, quad = solve_setup(model, m_space=m_space)
    return indifference_price(model, claim, space, quad)


def drifted_bond_model(n_steps=50):
    """mu / (gamma sigma^2) = 2.5: the strategy leaves every k < 2.5."""
    return MarketModel(grid=TimeGrid(1.0, n_steps),
                       coeffs=RegimeCoefficients.constant(mu=0.1, sigma=0.2,
                                                          beta=0.0, lam=0.1),
                       gamma=1.0)


def late_drift_model(n_steps=50):
    """mu = 0 before t = 0.5 and 0.2 from then on: the strategy is 0 at the
    first steps and reaches mu / (gamma sigma^2) = 5 only after t = 0.5."""
    mu, flat = PiecewiseConstant((0.0, 0.5), (0.0, 0.2)), PiecewiseConstant.flat
    coeffs = RegimeCoefficients(mu_pre=mu, sigma_pre=flat(0.2), mu_post=mu,
                                sigma_post=flat(0.2), beta=flat(0.0), lam=flat(0.1))
    return MarketModel(grid=TimeGrid(1.0, n_steps), coeffs=coeffs, gamma=1.0)


class TestBuyPrice:
    def test_zero_claim_prices_to_zero(self):
        rep = price(merton_model(50), Claim.constant(0.0))
        assert rep.buy_price == 0.0
        assert rep.J0_zero == rep.J0_claim

    def test_constant_claim_cash_translation(self):
        rep = price(merton_model(50), Claim.constant(0.8))
        assert abs(rep.buy_price - 0.8) < 1e-10
        assert rep.sell_price == pytest.approx(0.8, abs=1e-10)

    def test_defaultable_bond(self):
        rep = price(bond_model(100), BOND_CLAIM, m_space=80)
        assert abs(rep.buy_price - BOND_BUY) < 5e-3
        assert rep.sell_price == pytest.approx(BOND_SELL, abs=5e-3)
        assert rep.sell_price >= rep.buy_price

    def test_report_invariant_and_k_bar(self):
        model = drifted_bond_model()
        rep = price(model, BOND_CLAIM)
        # p recomputes exactly from the stored legs
        assert rep.buy_price == math.log(rep.J0_zero / rep.J0_claim) / rep.gamma
        diag = rep.diagnostics
        # the pass reaches the vertex 2.5; it stands for every k >= k_bar
        assert diag["k_bar"] == pytest.approx(2.5, rel=1e-12)
        assert diag["ks"] == [diag["k_bar"]] and diag["k_star"] == diag["k_bar"]
        assert diag["monotonicity"] == model.gamma * diag["k_bar"] * 0.2 * math.sqrt(1 / 50)

    def test_k_bar_does_not_depend_on_the_default_claim(self):
        # every leg of a default-indicator price is constant in x, so its Z is
        # exactly 0 and its strategy is the vertex mu / (gamma sigma^2) itself,
        # whatever the claim pays
        model = drifted_bond_model()
        space, quad = solve_setup(model, m_space=60)
        k_bars = {indifference_price(model, Claim.default_indicator(s_pay, d_pay), space,
                                     quad).diagnostics["k_bar"]
                  for s_pay, d_pay in [(1.0, 0.0), (0.5, 0.0), (1.5, 0.5), (0.8, 0.3),
                                       (1.2, 0.1), (0.6, 0.4), (1.0, 0.25), (2.0, 1.0)]}
        assert k_bars == {0.1 / (1.0 * 0.2 * 0.2)}

    def test_translation_by_constant(self):
        model = bond_model(50)
        base = price(model, BOND_CLAIM)
        for c in (-1.0, 0.5):
            shifted = price(model, BOND_CLAIM.shifted(c))
            assert abs((shifted.buy_price - base.buy_price) - c) < 1e-10

    def test_monotone_in_claim(self):
        model = bond_model(50)
        rep_lo = price(model, Claim.default_indicator(0.5, 0.1))
        rep_hi = price(model, Claim.default_indicator(0.9, 0.3))
        assert rep_lo.buy_price <= rep_hi.buy_price + 1e-9

    def test_nonnegative_claim_nonnegative_price(self):
        rng = np.random.default_rng(43)
        model = random_mild_model(rng, n_steps=50)
        claim = random_claim(rng)
        if claim.bounds()[0] < 0:
            claim = claim.shifted(-claim.bounds()[0])
        rep = price(model, claim, m_space=40)
        assert rep.buy_price >= -1e-9


class TestSellPrice:
    def test_selling_is_negated_buying(self):
        model = bond_model(50)
        space, quad = solve_setup(model, m_space=60)
        sell = indifference_price(model, BOND_CLAIM, space, quad).sell_price
        buy_of_neg = indifference_price(model, BOND_CLAIM.negated(), space, quad).buy_price
        assert sell == pytest.approx(-buy_of_neg, abs=1e-12)


class TestOnePass:
    """Every leg of a price is one row of one unbounded backward pass."""

    def test_three_rows_one_driver_call_per_step(self, monkeypatch):
        real, calls, rows = pricing.solve_j0_batch, [], []
        real_driver = solver.minimize_driver_grid

        def counting(model, claims, ks, *args, **kwargs):
            calls.append((list(claims), ks))
            return real(model, claims, ks, *args, **kwargs)

        def driver(c, strat, y, z, u):
            rows.append((strat, y.shape[0]))  # y is (row, regime, node)
            return real_driver(c, strat, y, z, u)

        monkeypatch.setattr(pricing, "solve_j0_batch", counting)
        monkeypatch.setattr(solver, "minimize_driver_grid", driver)
        model = drifted_bond_model()
        price(model, BOND_CLAIM)
        # one pass with no bound: one row each for zero, claim and negated
        # claim, stepped once per step; the zero leg serves both prices
        assert calls == [([Claim.constant(0.0), BOND_CLAIM, BOND_CLAIM.negated()], None)]
        assert rows == [(None, 3)] * model.grid.n_steps

    @pytest.mark.parametrize("market, vertex", [(drifted_bond_model, 2.5),
                                                (late_drift_model, 5.0)])
    def test_legs_equal_bounded_solves_from_k_bar(self, market, vertex):
        # markets whose strategy leaves every k below k_bar, the largest |pi|
        # over every step, not only the last one solved
        model = market()
        space, quad = solve_setup(model, m_space=40)
        rep = indifference_price(model, BOND_CLAIM, space, quad)
        k_bar, legs = rep.diagnostics["k_bar"], pricing.price_legs(BOND_CLAIM)
        assert k_bar == pytest.approx(vertex, rel=1e-12)
        for k in (k_bar, 2.0 * k_bar, 1e6):
            j0, reach = solver.solve_j0_batch(model, legs, [k] * 3, space, quad)
            assert (j0[0], j0[1], reach.max()) == (rep.J0_zero, rep.J0_claim, k_bar)
            assert -math.log(j0[0] / j0[2]) / model.gamma == rep.sell_price
            assert any(reach >= k) == (k == k_bar)  # some leg reaches k_bar
        _, reach = solver.solve_j0_batch(model, legs, [0.99 * k_bar] * 3, space, quad)
        assert all(reach >= 0.99 * k_bar)

    def test_no_k_schedule(self, monkeypatch):
        # the case of test_approx's test_nonconvergence_reports_sequence: a one-
        # doubling cap stops the k loop, but price has no loop to stop
        monkeypatch.setattr(approx, "MAX_DOUBLINGS", 1)
        model = merton_model(50)
        space, quad = solve_setup(model, m_space=30)
        with pytest.raises(NonConvergenceError):
            converge(model, Claim.constant(0.3), space, quad, 0.125, 1e-9)
        rep = indifference_price(model, Claim.constant(0.3), space, quad)
        assert rep.buy_price == pytest.approx(0.3, abs=1e-10)
        # Merton's strategy mu / (gamma sigma^2) = 1
        assert rep.diagnostics["k_bar"] == pytest.approx(1.0, rel=1e-9)

    def test_solver_failure_names_the_step(self):
        # the market of test_cli's test_numerical_failure_exits_3
        model = MarketModel(grid=TimeGrid(1.0, 2),
                            coeffs=RegimeCoefficients.constant(mu=0.2, sigma=0.2,
                                                               beta=0.5, lam=0.5),
                            gamma=1.0)
        space, quad = solve_setup(model, m_space=40)
        with pytest.raises(SolverError, match=r"^solver: Y \(post-default\) >= 2.22507e-308 "
                                              r"violated at step 1, node 0 "):
            indifference_price(model, Claim.default_indicator(0.0, 708.3), space, quad)


class TestWealthScaling:
    def test_identity_at_zero(self):
        assert wealth_scaling(0.0, -0.5, 2.0) == -0.5

    def test_substitution(self):
        assert wealth_scaling(math.log(2.0), -0.5, 1.0) == pytest.approx(-0.25, abs=1e-15)

    def test_price_ratio_invariance(self):
        # scaling both legs by exp(-gamma c) cancels in the log-ratio
        j_zero, j_claim, gamma, c = 0.9, 0.4, 1.3, 0.7
        p0 = math.log(j_zero / j_claim) / gamma
        p1 = math.log(wealth_scaling(c, j_zero, gamma)
                      / wealth_scaling(c, j_claim, gamma)) / gamma
        assert p1 == pytest.approx(p0, abs=1e-12)


class TestReportJson:
    def test_exact_wire_fields(self, tmp_path):
        rep = price(bond_model(40), BOND_CLAIM, m_space=40)
        out = tmp_path / "price.json"
        emit_report(rep, out)
        payload = json.loads(out.read_text())
        assert list(payload) == ["gamma", "J0_zero", "J0_claim", "buy_price",
                                 "sell_price", "settings"]
        assert list(payload["settings"]) == ["N", "M", "quad_nodes"]
        assert payload["settings"]["N"] == 40
        assert payload["settings"]["M"] == 40
