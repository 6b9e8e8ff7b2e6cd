import json
import math

import numpy as np
import pytest

from defaultbsde import (Claim, MarketModel,
                         NonConvergenceError, RegimeCoefficients, SolverError, TimeGrid,
                         approx, converge, indifference_price, solver,
                         wealth_scaling)
from defaultbsde.cli import emit_report

from conftest import (BOND_BUY, BOND_CLAIM, BOND_SELL, bond_model, merton_model,
                      random_claim, random_mild_model, solve_setup)


def price(model, claim, m_space=60, k0=0.25, tol_rel=1e-6, **kw):
    space, quad = solve_setup(model, m_space=m_space)
    return indifference_price(model, claim, space, quad, k0, tol_rel, **kw)


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

    def test_report_invariant_and_per_k(self):
        rep = price(bond_model(50), BOND_CLAIM)
        # p recomputes exactly from the stored legs
        assert rep.buy_price == math.log(rep.J0_zero / rep.J0_claim) / rep.gamma
        ks = [k for k, _ in rep.per_k]
        assert ks == sorted(ks)
        assert rep.per_k[-1][1] == pytest.approx(rep.buy_price, abs=1e-15)
        # per-k prices settle (Cauchy) toward the reported price
        tail = abs(rep.per_k[-1][1] - rep.per_k[-2][1])
        assert tail <= 1e-6 * max(1.0, abs(rep.buy_price)) + 1e-12

    def test_translation_by_constant(self):
        model = bond_model(50)
        base = price(model, BOND_CLAIM, with_selling=False)
        for c in (-1.0, 0.5):
            shifted = price(model, BOND_CLAIM.shifted(c), with_selling=False)
            assert abs((shifted.buy_price - base.buy_price) - c) < 1e-10

    def test_monotone_in_claim(self):
        model = bond_model(50)
        rep_lo = price(model, Claim.default_indicator(0.5, 0.1), with_selling=False)
        rep_hi = price(model, Claim.default_indicator(0.9, 0.3), with_selling=False)
        assert rep_lo.buy_price <= rep_hi.buy_price + 1e-9

    def test_nonnegative_claim_nonnegative_price(self):
        rng = np.random.default_rng(43)
        model = random_mild_model(rng, n_steps=50)
        claim = random_claim(rng)
        if claim.bounds()[0] < 0:
            claim = claim.shifted(-claim.bounds()[0])
        rep = price(model, claim, m_space=40, with_selling=False)
        assert rep.buy_price >= -1e-9


class TestSellPrice:
    def test_selling_is_negated_buying(self):
        model = bond_model(50)
        space, quad = solve_setup(model, m_space=60)
        sell = indifference_price(model, BOND_CLAIM, space, quad, 0.25, 1e-6).sell_price
        buy_of_neg = indifference_price(model, BOND_CLAIM.negated(), space, quad,
                                        0.25, 1e-6, with_selling=False).buy_price
        assert sell == pytest.approx(-buy_of_neg, abs=1e-12)


class TestOneLoop:
    """Every leg of a price runs through one k-doubling loop, each solved once per k."""

    def test_three_solves_per_k_with_selling(self, monkeypatch):
        real, columns, calls, rows = approx.solve_j0_batch, [], [], []
        real_driver = solver.minimize_driver_grid

        def counting(model, claims, ks, *args, **kwargs):
            calls.append(len(ks))
            columns.extend(zip(ks, claims))
            return real(model, claims, ks, *args, **kwargs)

        def driver(c, strat, y, z, u):
            rows.append(y.shape[-2])  # y is (regime, row, node)
            return real_driver(c, strat, y, z, u)

        monkeypatch.setattr(approx, "solve_j0_batch", counting)
        monkeypatch.setattr(solver, "minimize_driver_grid", driver)
        rep = price(bond_model(50), BOND_CLAIM)
        assert rep.sell_price is not None
        # one pass over the whole schedule; a leg's ks share a row until they
        # bind, so a driver call holds one row per binding k of a leg, plus
        # one per leg for the ks that never bound
        ks, solved = rep.diagnostics["ks"], sorted({k for k, _ in columns})
        assert solved[:len(ks)] == ks and len(calls) == 1
        binding = sum(map(any, zip(*rep.diagnostics["bound_per_k"])))
        assert max(rows) <= 3 * (binding + 1)
        # one column per k each for zero, claim and negated claim: the zero leg
        # serves both prices
        for k in solved:
            assert ([c for kc, c in columns if kc == k]
                    == [Claim.constant(0.0), BOND_CLAIM, BOND_CLAIM.negated()])

    def test_legs_match_one_leg_converge(self):
        # a drifted bond market, so the schedule runs several doublings
        model = MarketModel(grid=TimeGrid(1.0, 50),
                            coeffs=RegimeCoefficients.constant(mu=0.1, sigma=0.2,
                                                               beta=0.0, lam=0.1),
                            gamma=1.0)
        space, quad = solve_setup(model, m_space=40)
        diag = indifference_price(model, BOND_CLAIM, space, quad, 0.25, 1e-6).diagnostics
        assert len(diag["ks"]) > 2
        for key, leg in (("J0_zero_per_k", Claim.constant(0.0)),
                         ("J0_claim_per_k", BOND_CLAIM),
                         ("J0_negated_per_k", BOND_CLAIM.negated())):
            _, res = converge(model, leg, space, quad, 0.25, 1e-6)
            assert res.ks == diag["ks"]
            assert res.j0s == diag[key]

    def test_nonconvergence_names_the_leg(self, monkeypatch):
        # the case of test_approx's test_nonconvergence_reports_sequence; the cap
        # is read when the loop runs
        monkeypatch.setattr(approx, "MAX_DOUBLINGS", 1)
        model = merton_model(50)
        space, quad = solve_setup(model, m_space=30)
        with pytest.raises(NonConvergenceError,
                           match=r"leg\(s\) zero, claim, negated claim \(") as exc:
            indifference_price(model, Claim.constant(0.3), space, quad, 0.125, 1e-9)
        assert len(exc.value.ks) == 2
        assert exc.value.j0s[1] < exc.value.j0s[0]

    def test_solver_failure_tagged_with_k(self):
        # the market of test_cli's test_numerical_failure_exits_3
        model = MarketModel(grid=TimeGrid(1.0, 2),
                            coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.2,
                                                               beta=0.5, lam=0.5),
                            gamma=1.0)
        space, quad = solve_setup(model, m_space=40)
        with pytest.raises(SolverError, match="k=0.25: solver"):
            indifference_price(model, Claim.default_indicator(0.0, 20.0), space, quad, 0.25, 1e-6)


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
                                 "sell_price", "per_k", "settings"]
        assert list(payload["settings"]) == ["N", "M", "quad_nodes", "tol_rel"]
        assert all(list(e) == ["k", "p"] for e in payload["per_k"])
        assert payload["settings"]["N"] == 40
        assert payload["settings"]["M"] == 40
