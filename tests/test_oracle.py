import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from defaultbsde import (Claim, DPTree, MarketModel, PiecewiseConstant, RegimeCoefficients,
                         StrategySet, TimeGrid, brute_force_dp,
                         extract_optimal_strategy, martingale_check, simulate_paths,
                         solve_bsde, surface_at_origin, validate_model)
from defaultbsde.oracle import dp_violations

from conftest import (BOND_CLAIM, BOND_J0, MERTON_J0, PUT_1, ZERO_CLAIM, bond_model,
                      coeffs_in_force, merton_model, piecewise_model, solve_setup)


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

    @pytest.mark.parametrize("claim, k, message", [
        (Claim.constant(math.nan), 1.0, r"gamma\*xi = nan, node 0, N_T = 0"),
        (Claim.constant(800.0), 1.0, r"gamma\*xi = 800, node 0, N_T = 0"),  # exp underflows to 0
        (Claim.constant(-800.0), 1.0, r"gamma\*xi = -800, node 0, N_T = 0"),  # exp overflows
        (Claim.default_indicator(0.0, -800.0), 1.0, r"gamma\*xi = -800, node 0, N_T = 1"),
        (Claim.constant(0.0), math.inf, "k must be positive and finite"),
    ], ids=["nan", "underflow", "overflow", "default-leg", "k-inf"])
    def test_unvaluable_input_raises(self, claim, k, message):
        # the terminal rule of the solver: exp(-gamma xi) a finite normal double
        with pytest.raises(ValueError, match=message):
            brute_force_dp(bond_model(), claim, k, 4, 3, 5)

    @pytest.mark.parametrize("n_small, q, g, message", [
        (2.5, 3, 5, "n_small must be in .* and an integer, got 2.5"),
        (2, 3.0, 5, "q must be in .* and an integer, got 3.0"),
        (2, 3, 5.0, "strategy grid count must be in .* and an integer, got 5.0"),
    ])
    def test_tree_sizes_are_integers(self, n_small, q, g, message):
        with pytest.raises(ValueError, match=message):
            DPTree(n_small, q, g, 1.0)
        DPTree(np.int64(2), 3, 5, 1.0)

    def test_quantization_moments(self):
        from defaultbsde import DPTree
        tree = DPTree(n_small=8, q=7, g=81, k=2.0)
        dw, w = tree.increments(0.125)
        assert abs(float(w @ dw)) < 1e-12
        assert abs(float(w @ dw**2) - 0.125) < 1e-12


def stock_claim():
    s_nodes = tuple(np.exp(np.linspace(-1.5, 1.5, 61)))
    payoff = tuple(max(s - 1.0, 0.0) for s in s_nodes)
    return Claim(s_nodes, (payoff, payoff))


def jump_market():
    return MarketModel(grid=TimeGrid(1.0, 5),
                       coeffs=RegimeCoefficients.constant(mu=0.05, sigma=0.25, beta=-0.3,
                                                          lam=0.3, mu_post=-0.02,
                                                          sigma_post=0.4),
                       gamma=1.0)


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
            mu1, s1, _, _ = coeffs_in_force(model, t, 1)
            mv, ret = log_moves(mu1, s1, 0.0)
            child = value(i + 1, (x[:, None] + mv[None, :]).ravel(), 1).reshape(x.size, -1)
            best = None
            for pi in pis:
                cand = (child * np.exp(-gamma * pi * ret)[None, :]) @ w
                best = cand if best is None else np.minimum(best, cand)
            return best
        mu0, s0c, lam, beta = coeffs_in_force(model, t, 0)
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
        model = jump_market() if market == "jump" else piecewise_model(5)
        args = (model, stock_claim(), 1.5, 5, 3, g)
        want = reference_stock_dp(*args)
        assert brute_force_dp(*args) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("market", [jump_market, bond_model], ids=["jump", "bond"])
    def test_flat_table_takes_the_two_state_collapse(self, market):
        # a table whose rows are constant does not depend on S: it takes the
        # collapse, which the full tree matches to rounding
        model = market()
        flat = Claim((0.5, 1.0, 2.0), ((0.8,) * 3, (0.3,) * 3))
        assert not flat.depends_on_s
        got = brute_force_dp(model, flat, 1.5, 5, 3, 21)
        assert got == brute_force_dp(model, Claim.default_indicator(0.8, 0.3), 1.5, 5, 3, 21)
        want = reference_stock_dp(model, flat, 1.5, 5, 3, 21)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        # no tree is built, so neither its budget nor its Euler factor applies
        assert dp_violations(model, flat, DPTree(n_small=10, q=9, g=21, k=1.5)) == []

    def test_budget_rejection(self):
        model = bond_model()
        with pytest.raises(ValueError, match="node budget"):
            brute_force_dp(model, stock_claim(), k=1.0, n_small=8, q=7, g=11)

    def test_coefficients_checked_at_the_tree_times(self):
        # sigma = 5 on [0.165, 0.168) is read by no step of N = 100, but by the
        # tree's step 1 at t = 1/6, where 5 nodes make its Euler factor negative
        flat = RegimeCoefficients.constant(mu=0.0, sigma=0.25, beta=0.0, lam=0.1)
        sigma = PiecewiseConstant((0.0, 0.165, 0.168), (0.25, 5.0, 0.25))
        model = MarketModel(grid=TimeGrid(1.0, 100), gamma=1.0, coeffs=dataclasses.replace(
            flat, sigma_pre=sigma, sigma_post=sigma))
        assert validate_model(model).ok
        with pytest.raises(ValueError, match=r"DP pre-default Euler factor .* step 1 "
                                             r"\(t=0.166667\)"):
            brute_force_dp(model, stock_claim(), k=2.0, n_small=6, q=5, g=41)
        # the two-state collapse takes no log of S: its factor is not checked
        brute_force_dp(model, Claim.constant(0.0), k=2.0, n_small=6, q=5, g=41)

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

    def test_drift_gate_on_a_put_at_twice_the_steps(self):
        # the benchmark's oracle-mc market and its strike-1 put, at N = 2M;
        # the drift of a linear stencil grew with N at fixed M (z = 3.7 .. 7.5
        # on these seeds), as its O(h^2/dt) error does
        model = MarketModel(grid=TimeGrid(1.0, 200),
                            coeffs=RegimeCoefficients.constant(mu=0.05, sigma=0.25,
                                                               beta=-0.3, lam=0.3),
                            gamma=1.0)
        space, quad = solve_setup(model, m_space=100)
        surf = solve_bsde(model, PUT_1, StrategySet.symmetric(2.0), space, quad)
        drifts = [martingale_check(model, PUT_1, surf, extract_optimal_strategy(surf),
                                   20_000, seed=seed) for seed in (1, 2, 3, 4)]
        assert all(d.within(3.0) for d in drifts), [
            d.aggregate_mean / d.aggregate_se for d in drifts]

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
        surf = solve_bsde(model, Claim.constant(0.7), StrategySet(-1, 1), space, quad)
        drift = martingale_check(model, Claim.constant(0.7), surf, lambda t, s, n: 0.0,
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
        # reference: the (n_paths, N+1) value matrix of the same paths, stored
        # by simulate_paths, and its column moments, each summed over one
        # contiguous row as the visitor sums it
        model, claim, surf, strategy = self.jump_market_setup()
        drift = martingale_check(model, claim, surf, strategy, 5_000, seed=4)
        ens = simulate_paths(model, strategy, 5_000, seed=4)
        v = np.empty(ens.stock.shape)
        for i in range(v.shape[1]):
            v[:, i] = (np.exp(-model.gamma * ens.wealth[:, i])
                       * surf.y_at(i, ens.stock[:, i], ens.n_path[:, i]))
        inc = np.ascontiguousarray(np.diff(v, axis=1).T)
        totals = v[:, -1] - v[:, 0]
        sq = math.sqrt(ens.n_paths)
        assert np.any(ens.tau_step >= 0)
        np.testing.assert_allclose(drift.step_mean, inc.mean(axis=1), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(drift.step_se, inc.std(axis=1, ddof=1) / sq,
                                   rtol=1e-12, atol=0.0)
        assert drift.aggregate_mean == pytest.approx(totals.mean(), rel=1e-12, abs=0.0)
        assert drift.aggregate_se == pytest.approx(totals.std(ddof=1) / sq,
                                                   rel=1e-12, abs=0.0)

    @staticmethod
    def piecewise_market_setup():
        model = piecewise_model(40)
        claim = stock_claim()
        space, quad = solve_setup(model, m_space=60)
        surf = solve_bsde(model, claim, StrategySet(-2, 2), space, quad)
        return model, claim, surf, extract_optimal_strategy(surf)

    @pytest.mark.parametrize("setup", ["jump_market_setup", "piecewise_market_setup"])
    def test_streamed_equals_stored(self, setup):
        # the visitor over simulated rows and over kept columns: same bits
        model, claim, surf, strategy = getattr(self, setup)()
        streamed = martingale_check(model, claim, surf, strategy, 3_000, seed=6)
        stored = martingale_check(model, claim, surf, strategy, 3_000, seed=6,
                                  keep_paths=True)
        assert streamed.ensemble is None
        ens = stored.ensemble
        assert ens.n_paths == 3_000 and np.any(ens.tau_step >= 0)
        for name in ("times", "step_mean", "step_se"):
            assert np.array_equal(getattr(streamed, name), getattr(stored, name)), name
        assert streamed.aggregate_mean == stored.aggregate_mean
        assert streamed.aggregate_se == stored.aggregate_se

    def test_one_cell_per_step(self, monkeypatch):
        # streamed under the surface's own strategy, each row is located once
        # and Y and the strategy are read from that cell, with the bits of a
        # strategy that locates its rows itself
        from defaultbsde import solver
        model, claim, surf, strategy = self.piecewise_market_setup()
        own = martingale_check(model, claim, surf, lambda t, s, n: strategy(t, s, n),
                               3_000, seed=6)
        real, calls = solver._cell, []

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(solver, "_cell", counting)
        shared = martingale_check(model, claim, surf, strategy, 3_000, seed=6)
        assert len(calls) == model.grid.n_steps + 1
        for name in ("step_mean", "step_se", "aggregate_mean", "aggregate_se"):
            assert np.array_equal(getattr(shared, name), getattr(own, name)), name

    @pytest.mark.parametrize("n_steps", [50, 200])
    def test_streamed_memory_per_path(self, n_steps):
        # nothing is held per path-step: the clock, dW, the state rows and
        # the visitor's per-path rows stay under 150 bytes per path at any N
        coeffs = RegimeCoefficients.constant(mu=0.05, sigma=0.25, beta=-0.3, lam=0.3)
        model = MarketModel(grid=TimeGrid(1.0, n_steps), coeffs=coeffs, gamma=1.0)
        claim = stock_claim()
        space, quad = solve_setup(model, m_space=60)
        surf = solve_bsde(model, claim, StrategySet(-2, 2), space, quad)
        strategy = extract_optimal_strategy(surf)
        n_paths = 20_000
        martingale_check(model, claim, surf, strategy, 1_000, seed=4)  # one-time set-up
        tracemalloc.start()
        try:
            martingale_check(model, claim, surf, strategy, n_paths, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150 * n_paths

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
