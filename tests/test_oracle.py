import math
import tracemalloc

import numpy as np
import pytest

from defaultbsde import (Constant, DPTree, MarketModel, RegimeCoefficients, StockPayoff,
                         StrategySet, TimeGrid, brute_force_dp, extract_optimal_strategy,
                         martingale_check, simulate_paths, solve_bsde,
                         surface_at_origin)

from conftest import (BOND_CLAIM, BOND_J0, MERTON_J0, ZERO_CLAIM, bond_model,
                      merton_model, piecewise_model, solve_setup)


class TestBruteForceDP:
    def test_zero_strategy_grid_is_plain_expectation(self):
        # G = 1 means the {0} grid: the tree value is E[exp(-gamma xi)], which
        # for the bond claim is exact (default branch probabilities are exact)
        v = brute_force_dp(bond_model(), BOND_CLAIM, k=2.0, n_small=8, q=7, g=1)
        assert v == pytest.approx(BOND_J0, abs=1e-12)

    def test_merton_near_closed_form(self):
        v = brute_force_dp(merton_model(), ZERO_CLAIM, k=2.0, n_small=8, q=7, g=81)
        assert abs(v - MERTON_J0) < 2e-2

    def test_agreement_with_solver(self):
        cases = ((merton_model(200), ZERO_CLAIM, 200),
                 (bond_model(100), BOND_CLAIM, 100))
        for model, claim, m_space in cases:
            space, quad = solve_setup(model, m_space=m_space)
            j = surface_at_origin(solve_bsde(model, claim, StrategySet(-2, 2),
                                             space, quad))
            dp = brute_force_dp(model, claim, k=2.0, n_small=8, q=7, g=81)
            assert abs(j - dp) / abs(dp) < 2e-2

    def test_gap_shrinks_on_refinement(self):
        model_c = merton_model(200)
        space_c, quad = solve_setup(model_c, m_space=200)
        j_c = surface_at_origin(solve_bsde(model_c, ZERO_CLAIM, StrategySet(-2, 2),
                                           space_c, quad))
        dp_c = brute_force_dp(model_c, ZERO_CLAIM, k=2.0, n_small=8, q=7, g=81)
        model_f = merton_model(400)
        space_f, _ = solve_setup(model_f, m_space=400)
        j_f = surface_at_origin(solve_bsde(model_f, ZERO_CLAIM, StrategySet(-2, 2),
                                           space_f, quad))
        dp_f = brute_force_dp(model_f, ZERO_CLAIM, k=2.0, n_small=10, q=9, g=101)
        gap_c = abs(j_c - dp_c) / abs(dp_c)
        gap_f = abs(j_f - dp_f) / abs(dp_f)
        assert gap_f < gap_c

    def test_nonincreasing_in_nested_strategy_grids(self):
        # (G-1) doubling keeps the grids nested, so the minimum only improves
        model = merton_model()
        vals = [brute_force_dp(model, ZERO_CLAIM, k=2.0, n_small=6, q=7, g=g)
                for g in (11, 21, 41, 81)]
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_parameter_caps(self):
        model = merton_model()
        with pytest.raises(ValueError):
            brute_force_dp(model, ZERO_CLAIM, k=2.0, n_small=11, q=7, g=81)
        with pytest.raises(ValueError):
            brute_force_dp(model, ZERO_CLAIM, k=2.0, n_small=8, q=10, g=81)
        with pytest.raises(ValueError):
            brute_force_dp(model, ZERO_CLAIM, k=2.0, n_small=8, q=7, g=102)
        with pytest.raises(ValueError):
            brute_force_dp(model, ZERO_CLAIM, k=0.0, n_small=8, q=7, g=81)

    def test_quantization_moments(self):
        from defaultbsde import DPTree
        tree = DPTree(n_small=8, q=7, g=81, k=2.0)
        dw, w = tree.increments(0.125)
        assert abs(float(w @ dw)) < 1e-12
        assert abs(float(w @ dw**2) - 0.125) < 1e-12


def stock_claim():
    s_nodes = tuple(np.exp(np.linspace(-1.5, 1.5, 61)))
    payoff = tuple(max(s - 1.0, 0.0) for s in s_nodes)
    return StockPayoff(s_nodes, payoff, payoff)


def reference_stock_dp(model, claim, k, n_small, q, g):
    """The full-tree recursion with one pass per strategy at every node,
    as brute_force_dp ran it before the strategy grid became one matmul."""
    tree = DPTree(n_small=n_small, q=q, g=g, k=k)
    dt = model.grid.horizon / n_small
    dw, w = tree.increments(dt)
    pis = tree.strategy_grid()
    gamma, s0 = model.gamma, model.s0

    def log_moves(mu, sig, jump):
        factors = (1.0 + mu * dt + sig * dw) * (1.0 + jump)
        return np.log(factors), factors - 1.0

    def value(i, x, n):
        if i == n_small:
            return np.exp(-gamma * np.asarray(claim.payoff(s0 * np.exp(x), n), dtype=float))
        t = i * dt
        if n == 1:
            mu1, s1, _, _ = model.coeffs.at(t, defaulted=True)
            mv, ret = log_moves(mu1, s1, 0.0)
            child = value(i + 1, (x[:, None] + mv[None, :]).ravel(), 1).reshape(x.size, -1)
            best = None
            for pi in pis:
                cand = (child * np.exp(-gamma * pi * ret)[None, :]) @ w
                best = cand if best is None else np.minimum(best, cand)
            return best
        mu0, s0c, lam, beta = model.coeffs.at(t, defaulted=False)
        p = 1.0 - math.exp(-lam * dt)
        mv_nj, ret_nj = log_moves(mu0, s0c, 0.0)
        mv_j, ret_j = log_moves(mu0, s0c, beta)
        child_nj = value(i + 1, (x[:, None] + mv_nj[None, :]).ravel(), 0).reshape(x.size, -1)
        child_j = value(i + 1, (x[:, None] + mv_j[None, :]).ravel(), 1).reshape(x.size, -1)
        best = None
        for pi in pis:
            cand = ((1.0 - p) * (child_nj * np.exp(-gamma * pi * ret_nj)[None, :])
                    + p * (child_j * np.exp(-gamma * pi * ret_j)[None, :])) @ w
            best = cand if best is None else np.minimum(best, cand)
        return best

    return float(value(0, np.zeros(1), 0)[0])


class TestStockTree:
    @pytest.mark.parametrize("g", [1, 21])
    @pytest.mark.parametrize("market", ["jump", "piecewise"])
    def test_matches_per_strategy_loop(self, market, g):
        if market == "jump":
            model = MarketModel(grid=TimeGrid(1.0, 5),
                                coeffs=RegimeCoefficients.constant(
                                    mu=0.05, sigma=0.25, beta=-0.3, lam=0.3,
                                    mu_post=-0.02, sigma_post=0.4),
                                gamma=1.0)
        else:
            model = piecewise_model(5)
        args = (model, stock_claim(), 1.5, 5, 3, g)
        want = reference_stock_dp(*args)
        assert brute_force_dp(*args) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_budget_rejection(self):
        model = bond_model()
        with pytest.raises(ValueError, match="node budget"):
            brute_force_dp(model, stock_claim(), k=1.0, n_small=8, q=7, g=11)

    def test_small_tree_agrees_with_solver(self):
        coeffs = RegimeCoefficients.constant(mu=0.15, sigma=0.25, beta=-0.3, lam=0.4)
        model = MarketModel(grid=TimeGrid(0.5, 24), coeffs=coeffs, gamma=1.0)
        space, quad = solve_setup(model, m_space=120)
        j = surface_at_origin(solve_bsde(model, stock_claim(), StrategySet(-1, 1),
                                         space, quad))
        dp_model = MarketModel(grid=TimeGrid(0.5, 6), coeffs=coeffs, gamma=1.0)
        dp = brute_force_dp(dp_model, stock_claim(), k=1.0, n_small=6, q=3, g=21)
        assert abs(j - dp) / abs(dp) < 2e-2


class TestMartingaleCheck:
    def test_optimal_strategy_is_martingale(self):
        model = merton_model(200)
        space, quad = solve_setup(model, m_space=100)
        surf = solve_bsde(model, ZERO_CLAIM, StrategySet(-2, 2), space, quad)
        drift = martingale_check(model, ZERO_CLAIM, surf,
                                 extract_optimal_strategy(surf), 10_000, seed=1)
        assert drift.within(3.0)

    def test_zero_strategy_is_strict_submartingale(self):
        model = merton_model(200)
        space, quad = solve_setup(model, m_space=100)
        surf = solve_bsde(model, ZERO_CLAIM, StrategySet(-2, 2), space, quad)
        drift = martingale_check(model, ZERO_CLAIM, surf, lambda t, s, n: 0.0,
                                 2_000, seed=1)
        assert drift.aggregate_mean > 3.0 * drift.aggregate_se
        assert drift.aggregate_mean > 0.0

    def test_degenerate_market_zero_drift_pathwise(self):
        # mu = lam = 0 with a constant claim: V is constant along every path
        model = MarketModel(grid=TimeGrid(1.0, 50),
                            coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.3,
                                                               beta=0.0, lam=0.0),
                            gamma=1.0)
        space, quad = solve_setup(model, m_space=40)
        surf = solve_bsde(model, Constant(0.7), StrategySet(-1, 1), space, quad)
        drift = martingale_check(model, Constant(0.7), surf, lambda t, s, n: 0.0,
                                 1_000, seed=3)
        assert np.all(np.abs(drift.step_mean) < 1e-12)
        assert abs(drift.aggregate_mean) < 1e-12

    def test_submartingale_for_random_bounded_strategies(self):
        model = bond_model(100)
        space, quad = solve_setup(model, m_space=60)
        surf = solve_bsde(model, BOND_CLAIM, StrategySet(-2, 2), space, quad)
        rng = np.random.default_rng(47)
        for trial in range(10):
            const = float(rng.uniform(-2.0, 2.0))
            drift = martingale_check(model, BOND_CLAIM, surf,
                                     lambda t, s, n, c=const: c, 2_000,
                                     seed=100 + trial)
            assert drift.aggregate_mean >= -3.0 * drift.aggregate_se

    def test_rejects_small_samples_and_mismatches(self):
        model = merton_model(50)
        space, quad = solve_setup(model, m_space=30)
        surf = solve_bsde(model, ZERO_CLAIM, StrategySet(-1, 1), space, quad)
        with pytest.raises(ValueError, match="n_paths"):
            martingale_check(model, ZERO_CLAIM, surf, lambda t, s, n: 0.0, 999, seed=1)
        other = bond_model(50)
        with pytest.raises(ValueError, match="different model"):
            martingale_check(other, ZERO_CLAIM, surf, lambda t, s, n: 0.0, 1_000, seed=1)

    @staticmethod
    def jump_market_setup():
        coeffs = RegimeCoefficients.constant(mu=0.05, sigma=0.25, beta=-0.3, lam=0.3)
        model = MarketModel(grid=TimeGrid(1.0, 50), coeffs=coeffs, gamma=1.0)
        claim = stock_claim()
        space, quad = solve_setup(model, m_space=60)
        surf = solve_bsde(model, claim, StrategySet(-2, 2), space, quad)
        return model, claim, surf, extract_optimal_strategy(surf)

    def test_streamed_moments_match_value_matrix(self):
        # reference: the (n_paths, N+1) value matrix and its column moments
        model, claim, surf, strategy = self.jump_market_setup()
        drift = martingale_check(model, claim, surf, strategy, 5_000, seed=4)
        ens = drift.ensemble
        v = np.empty(ens.stock.shape)
        for i in range(v.shape[1]):
            v[:, i] = (np.exp(-model.gamma * ens.wealth[:, i])
                       * surf.y_at(i, ens.stock[:, i], ens.n_path[:, i]))
        inc = np.diff(v, axis=1)
        totals = v[:, -1] - v[:, 0]
        sq = math.sqrt(ens.n_paths)
        assert np.any(ens.tau_step >= 0)
        np.testing.assert_allclose(drift.step_mean, inc.mean(axis=0), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(drift.step_se, inc.std(axis=0, ddof=1) / sq,
                                   rtol=1e-12, atol=0.0)
        assert drift.aggregate_mean == pytest.approx(totals.mean(), rel=1e-12, abs=0.0)
        assert drift.aggregate_se == pytest.approx(totals.std(ddof=1) / sq,
                                                   rel=1e-12, abs=0.0)

    def test_holds_no_path_by_step_matrix(self):
        # the check's peak is the simulation's own: a value or increment
        # matrix of n_paths x N floats would add about half of it again
        model, claim, surf, strategy = self.jump_market_setup()
        tracemalloc.start()
        try:
            simulate_paths(model, strategy, 5_000, seed=4)
            sim_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            martingale_check(model, claim, surf, strategy, 5_000, seed=4)
            check_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check_peak <= 1.15 * sim_peak

    def test_drift_csv(self, tmp_path):
        model = merton_model(32)
        space, quad = solve_setup(model, m_space=20)
        surf = solve_bsde(model, ZERO_CLAIM, StrategySet(-1, 1), space, quad)
        drift = martingale_check(model, ZERO_CLAIM, surf, lambda t, s, n: 0.0,
                                 1_000, seed=2)
        out = tmp_path / "drift.csv"
        drift.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "step,t,mean_increment,stderr"
        assert len(lines) == 33
