import math

import numpy as np
import pytest

from defaultbsde import (Constant, DefaultIndicator, MarketModel, Quadrature,
                         RegimeCoefficients, SolverError, SpaceGrid, StrategySet,
                         TimeGrid, extract_optimal_strategy, solve_bsde,
                         surface_at_origin)

from conftest import BOND_CLAIM, BOND_J0, MERTON_J0, bond_model, merton_model


def solve(model, claim, k=2.0, m_space=100, quad_nodes=7, refine=False):
    space = SpaceGrid.for_model(model, m_space)
    quad = Quadrature.gauss_hermite(quad_nodes)
    return solve_bsde(model, claim, StrategySet.symmetric(k), space, quad, refine=refine)


class TestClosedForms:
    def test_flat_market_flat_claim(self):
        # mu = lam = 0 and xi = 0: Y = 1, Z = U = 0, pi_hat = 0 everywhere
        model = MarketModel(grid=TimeGrid(1.0, 50),
                            coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.3,
                                                               beta=0.0, lam=0.0),
                            gamma=1.0)
        surf = solve(model, Constant(0.0), m_space=40)
        assert np.allclose(surf.Y, 1.0, atol=1e-12)
        assert np.allclose(surf.Z[:-1], 0.0, atol=1e-12)
        assert np.allclose(surf.U[:-1], 0.0, atol=1e-12)
        assert np.allclose(surf.pi_hat[:-1], 0.0, atol=1e-12)

    def test_merton(self):
        surf = solve(merton_model(200), Constant(0.0), m_space=200)
        assert abs(surface_at_origin(surf) - MERTON_J0) < 1e-3
        assert np.all(np.abs(surf.pi_hat[:-1, 1:-1, :] - 1.0) < 1e-3)

    def test_defaultable_bond(self):
        surf = solve(bond_model(100), BOND_CLAIM, m_space=100)
        assert abs(surface_at_origin(surf) - BOND_J0) < 5e-3
        assert np.all(np.abs(surf.pi_hat[:-1]) < 1e-6)

    def test_merton_grid_convergence(self):
        errs = []
        for n, m in ((50, 50), (100, 100), (200, 200)):
            surf = solve(merton_model(n), Constant(0.0), m_space=m)
            errs.append(abs(surface_at_origin(surf) - MERTON_J0))
        assert errs[0] > errs[1] > errs[2]

    def test_refine_flag_tightens_merton(self):
        # one fixed-point pass flips the scheme from (1 - dt/2) to 1/(1 + dt/2) growth
        j_plain = surface_at_origin(solve(merton_model(100), Constant(0.0), m_space=50))
        j_ref = surface_at_origin(solve(merton_model(100), Constant(0.0), m_space=50,
                                        refine=True))
        assert abs(j_plain - MERTON_J0) < 1e-3
        assert abs(j_ref - MERTON_J0) < 1e-3
        assert j_ref != j_plain


class TestInvariants:
    def test_terminal_exactness(self):
        model = bond_model(20)
        surf = solve(model, BOND_CLAIM, m_space=30)
        s = model.s0 * np.exp(surf.space.nodes)
        for n in (0, 1):
            expected = np.exp(-model.gamma * np.asarray(BOND_CLAIM.payoff(s, n), dtype=float))
            assert np.array_equal(surf.Y[-1, :, n], expected)

    def test_bounds_nonnegative_claim(self):
        for model, claim in ((merton_model(100), Constant(0.0)),
                             (bond_model(50), BOND_CLAIM)):
            surf = solve(model, claim, m_space=60)
            assert np.all(surf.Y > 0.0)
            assert np.all(surf.Y <= 1.0 + 1e-12)

    def test_bound_for_claim_bounded_below(self):
        model = bond_model(50)
        claim = DefaultIndicator(-0.5, 1.0)  # bounded below by -K = -0.5
        surf = solve(model, claim, m_space=60)
        assert np.all(surf.Y <= math.exp(model.gamma * 0.5) + 1e-12)

    def test_cash_translation(self):
        model = MarketModel(grid=TimeGrid(1.0, 60),
                            coeffs=RegimeCoefficients.constant(mu=0.05, sigma=0.2,
                                                               beta=0.4, lam=0.3),
                            gamma=0.8)
        claim = DefaultIndicator(0.7, 0.1)
        c = 1.3
        s1 = solve(model, claim, m_space=60)
        s2 = solve(model, claim.shifted(c), m_space=60)
        factor = math.exp(-model.gamma * c)
        assert np.allclose(s2.Y, factor * s1.Y, rtol=1e-12, atol=0.0)
        assert np.allclose(s2.pi_hat[:-1], s1.pi_hat[:-1], atol=1e-9)

    def test_comparison(self):
        model = MarketModel(grid=TimeGrid(1.0, 100),
                            coeffs=RegimeCoefficients.constant(mu=0.05, sigma=0.2,
                                                               beta=0.4, lam=0.3),
                            gamma=1.0)
        lo_claim = DefaultIndicator(0.5, 0.2)
        hi_claim = DefaultIndicator(0.8, 0.4)
        s_lo = solve(model, lo_claim, m_space=60)
        s_hi = solve(model, hi_claim, m_space=60)
        assert np.all(s_lo.Y >= s_hi.Y - 1e-12)

    def test_domain_violation_reported(self):
        # huge default-state payoff with coarse dt: E + U < 0 at some node
        model = MarketModel(grid=TimeGrid(1.0, 2),
                            coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.2,
                                                               beta=0.5, lam=0.5),
                            gamma=1.0)
        with pytest.raises(SolverError, match=r"step \d+"):
            solve(model, DefaultIndicator(0.0, 20.0), m_space=20)

    def test_euler_factor_checked_at_quadrature_width(self):
        # sigma sqrt(dt) = 0.15: 7 nodes (largest 3.75) are fine, 20 (7.62) are not
        model = MarketModel(grid=TimeGrid(1.0, 4),
                            coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.3,
                                                               beta=0.0, lam=0.1),
                            gamma=1.0)
        solve(model, Constant(0.0), m_space=20, quad_nodes=7)
        with pytest.raises(SolverError, match=r"Euler factor .* step 3"):
            solve(model, Constant(0.0), m_space=20, quad_nodes=20)


class TestStrategyExtraction:
    def test_merton_constant_one(self):
        surf = solve(merton_model(100), Constant(0.0), m_space=60)
        pi = extract_optimal_strategy(surf)
        for t in (0.0, 0.37, 0.99):
            vals = pi(t, np.array([0.5, 1.0, 2.0]), np.array([0, 0, 1]))
            assert np.allclose(vals, 1.0, atol=1e-3)

    def test_clipped_at_set_boundary(self):
        surf = solve(merton_model(100), Constant(0.0), k=0.5, m_space=60)
        pi = extract_optimal_strategy(surf)
        assert np.allclose(pi(0.5, np.array([1.0]), np.array([0])), 0.5, atol=1e-12)

    def test_zero_risk_premium_zero_strategy(self):
        # mu + lam*beta = 0 in both regimes and constant claim: minimizer sits at 0
        model = MarketModel(grid=TimeGrid(1.0, 50),
                            coeffs=RegimeCoefficients.constant(mu=-0.1, sigma=0.25,
                                                               beta=0.5, lam=0.2,
                                                               mu_post=0.0),
                            gamma=1.0)
        surf = solve(model, Constant(0.3), m_space=60)
        pi = extract_optimal_strategy(surf)
        assert np.allclose(pi(0.2, np.array([1.0]), np.array([0])), 0.0, atol=1e-9)

    def test_surface_at_origin_is_midpoint_value(self):
        surf = solve(bond_model(20), BOND_CLAIM, m_space=40)
        j = surf.space.nodes.size // 2
        assert surface_at_origin(surf) == pytest.approx(surf.Y[0, j, 0], abs=1e-15)


class TestExport:
    def test_csv_shape_and_empties(self, tmp_path):
        model = bond_model(4)
        surf = solve(model, BOND_CLAIM, m_space=4)
        out = tmp_path / "surface.csv"
        surf.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "i,t,j,x,s,n,Y,Z,U,pi_hat"
        assert len(lines) == 1 + 5 * 5 * 2
        # n = 1 rows carry no U; terminal rows carry no decisions
        row_n1 = lines[2].split(",")
        assert row_n1[5] == "1" and row_n1[8] == ""
        last = lines[-1].split(",")
        assert last[0] == "4" and last[7] == "" and last[9] == ""

    def test_quadrature_normalized_and_symmetric(self):
        q = Quadrature.gauss_hermite(9)
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(q.nodes, -q.nodes[::-1])
        assert abs(float(q.weights @ q.nodes)) < 1e-16
        assert float(q.weights @ q.nodes**2) == pytest.approx(1.0, abs=1e-13)

    def test_space_grid_symmetric(self):
        g = SpaceGrid.regular(10, 1.5)
        assert g.nodes[0] == -1.5 and g.nodes[-1] == 1.5
        assert abs(g.nodes[5]) == 0.0
