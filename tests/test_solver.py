import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from defaultbsde import (Claim, InputError, MarketModel, PiecewiseConstant,
                         Quadrature, RegimeCoefficients, SolverError, SpaceGrid,
                         StrategySet, TimeGrid, extract_optimal_strategy, solve_bsde,
                         surface_at_origin)

from defaultbsde import solver
from defaultbsde.solver import _regimes, _step

from conftest import BOND_CLAIM, BOND_J0, MERTON_J0, S_NODES, bond_model, merton_model


def solve(model, claim, k=2.0, m_space=100, quad_nodes=7):
    space = SpaceGrid.for_model(model, m_space)
    quad = Quadrature.gauss_hermite(quad_nodes)
    return solve_bsde(model, claim, StrategySet.symmetric(k), space, quad)


class TestClosedForms:
    def test_flat_market_flat_claim(self):
        # mu = lam = 0 and xi = 0: Y = 1, Z = U = 0, pi_hat = 0 everywhere
        model = MarketModel(grid=TimeGrid(1.0, 50),
                            coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.3,
                                                               beta=0.0, lam=0.0),
                            gamma=1.0)
        surf = solve(model, Claim.constant(0.0), m_space=40)
        assert np.allclose(surf.Y, 1.0, atol=1e-12)
        assert np.allclose(surf.Z[:-1], 0.0, atol=1e-12)
        assert np.allclose(surf.U[:-1], 0.0, atol=1e-12)
        assert np.allclose(surf.pi_hat[:-1], 0.0, atol=1e-12)

    def test_merton(self):
        surf = solve(merton_model(200), Claim.constant(0.0), m_space=200)
        assert abs(surface_at_origin(surf) - MERTON_J0) < 1e-3
        assert np.all(np.abs(surf.pi_hat[:-1, 1:-1, :] - 1.0) < 1e-3)

    def test_defaultable_bond(self):
        surf = solve(bond_model(100), BOND_CLAIM, m_space=100)
        assert abs(surface_at_origin(surf) - BOND_J0) < 5e-3
        assert np.all(np.abs(surf.pi_hat[:-1]) < 1e-6)

    def test_merton_grid_convergence(self):
        # exact on every grid: the zero claim's rows are flat (see below)
        for n, m in ((50, 50), (100, 100), (200, 200)):
            surf = solve(merton_model(n), Claim.constant(0.0), m_space=m)
            assert abs(surface_at_origin(surf) - MERTON_J0) <= 1e-13, (n, m)

    def test_merton_first_order_in_dt(self):
        # the exponential step grows Y by exp(-theta^2 dt / 2), the exact
        # factor of a step: J0 is MERTON_J0 to rounding at every dt
        for n in (50, 100, 200):
            j0 = surface_at_origin(solve(merton_model(n), Claim.constant(0.0), m_space=n))
            assert abs(j0 - MERTON_J0) <= 1e-13, n


class TestInvariants:
    def test_terminal_exactness(self):
        model = bond_model(20)
        surf = solve(model, BOND_CLAIM, m_space=30)
        s = model.s0 * np.exp(surf.space.nodes)
        for n in (0, 1):
            expected = np.exp(-model.gamma * np.asarray(BOND_CLAIM.payoff(s, n), dtype=float))
            assert np.array_equal(surf.Y[-1, :, n], expected)

    def test_bounds_nonnegative_claim(self):
        for model, claim in ((merton_model(100), Claim.constant(0.0)),
                             (bond_model(50), BOND_CLAIM)):
            surf = solve(model, claim, m_space=60)
            assert np.all(surf.Y > 0.0)
            assert np.all(surf.Y <= 1.0 + 1e-12)

    def test_bound_for_claim_bounded_below(self):
        model = bond_model(50)
        claim = Claim.default_indicator(-0.5, 1.0)  # bounded below by -K = -0.5
        surf = solve(model, claim, m_space=60)
        assert np.all(surf.Y <= math.exp(model.gamma * 0.5) + 1e-12)

    @pytest.mark.parametrize("sigma", [0.2, 0.25, 0.3])
    def test_constant_post_default_row_carried_exactly(self, sigma):
        # mu_post = 0: the post-default strategy is 0, so a constant post-default
        # row solves its BSDE exactly, in a full-width pass (the put's
        # pre-default row depends on S) and in a flat one
        post = 0.3
        put = Claim(S_NODES, (tuple(max(1.0 - s, 0.0) for s in S_NODES), (post,) * len(S_NODES)))
        for n_steps, m_space in itertools.product((50, 100, 200), (40, 80, 100)):
            model = MarketModel(grid=TimeGrid(1.0, n_steps),
                                coeffs=RegimeCoefficients.constant(mu=0.05, sigma=sigma,
                                                                   beta=-0.3, lam=0.3,
                                                                   mu_post=0.0),
                                gamma=1.0)
            for claim in (put, Claim.default_indicator(0.8, post)):
                surf = solve(model, claim, m_space=m_space)
                assert np.all(surf.Y[:, :, 1] == math.exp(-post)), (n_steps, m_space, claim)

    def test_cash_translation(self):
        model = MarketModel(grid=TimeGrid(1.0, 60),
                            coeffs=RegimeCoefficients.constant(mu=0.05, sigma=0.2,
                                                               beta=0.4, lam=0.3),
                            gamma=0.8)
        claim = Claim.default_indicator(0.7, 0.1)
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
        lo_claim = Claim.default_indicator(0.5, 0.2)
        hi_claim = Claim.default_indicator(0.8, 0.4)
        s_lo = solve(model, lo_claim, m_space=60)
        s_hi = solve(model, hi_claim, m_space=60)
        assert np.all(s_lo.Y >= s_hi.Y - 1e-12)

    def test_domain_violation_reported(self):
        # a default-state payoff near the largest gamma*xi a row takes: the
        # post-default Y shrinks by exp(-theta^2 dt / 2) below the smallest
        # normal double
        model = MarketModel(grid=TimeGrid(1.0, 2),
                            coeffs=RegimeCoefficients.constant(mu=0.2, sigma=0.2,
                                                               beta=0.5, lam=0.5),
                            gamma=1.0)
        with pytest.raises(SolverError, match=r"step \d+"):
            solve(model, Claim.default_indicator(0.0, 708.3), m_space=20)

    def test_post_default_mean_positivity_located(self):
        model = bond_model(4)
        space = SpaceGrid.for_model(model, 20)
        regime = _regimes(model, space, Quadrature.gauss_hermite(7), False)[3]
        # [b, n]: pre, post; a subnormal flat post-default row has a subnormal E
        rows = np.stack([np.ones((1, 21)), np.full((1, 21), 1e-310)], axis=1)
        with pytest.raises(SolverError,
                           match=r"E \(post-default\) >= 2.22507e-308 violated at step 3, node 0"):
            _step(regime, StrategySet.symmetric(1.0), model.grid.dt, rows, 3)

    def test_means_of_both_regimes_checked_before_the_driver(self, monkeypatch):
        # one step checks E of both regimes, post-default first, calls the
        # driver once and then checks Y: a bad pre-default E is named before a
        # bad post-default Y of the same step
        # lam = 0, so subnormal flat pre-default rows give the same E
        model = MarketModel(grid=TimeGrid(1.0, 4), gamma=1.0,
                            coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.2,
                                                               beta=0.0, lam=0.0))
        space = SpaceGrid.for_model(model, 20)
        regime = _regimes(model, space, Quadrature.gauss_hermite(7), False)[3]
        monkeypatch.setattr(solver, "minimize_driver_grid",
                            lambda c, strat, y, z, u: (np.full(y.shape, -1e9), 0.0 * y))

        def step(pre):
            rows = np.stack([np.full((1, 21), pre), np.ones((1, 21))], axis=1)
            _step(regime, StrategySet.symmetric(1.0), model.grid.dt, rows, 3)

        with pytest.raises(SolverError, match=r"Y \(post-default\) positivity violated at step 3"):
            step(1.0)
        with pytest.raises(SolverError, match=r"E \(pre-default\) >= 2.22507e-308 violated "
                                              r"at step 3"):
            step(1e-310)

    def test_subnormal_y_located(self):
        # exp(-708) is a normal double, but Y decays by exp(-theta^2 (T - t) / 2)
        # below the smallest one before t = 0
        with pytest.raises(SolverError, match=r"Y \(post-default\) >= 2.22507e-308 violated "
                                              r"at step 20, node 0 \(subnormal"):
            solve(merton_model(100), Claim.constant(708.0))

    def test_normal_terminal_row_exact(self):
        # the largest gamma*xi a terminal row takes is 708.39; at 708 the
        # solve is exp(-708) J0(0) to rounding
        model = MarketModel(grid=TimeGrid(1.0, 20),
                            coeffs=RegimeCoefficients.constant(mu=0.1, sigma=0.2,
                                                               beta=-0.3, lam=0.3),
                            gamma=1.0)
        j0 = surface_at_origin(solve(model, Claim.constant(0.0), m_space=20))
        got = surface_at_origin(solve(model, Claim.constant(708.0), m_space=20))
        assert got == pytest.approx(math.exp(-708.0) * j0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("claim, where", [
        (Claim.constant(800.0), "800, node 0, N_T = 1"),
        (Claim.constant(-800.0), "-800, node 0, N_T = 1"),
        # the survival row underflows to 0 while the default row is fine
        (Claim.default_indicator(800.0, 0.0), "800, node 0, N_T = 0"),
        # exp(-740) is subnormal: the scheme would lose 2% with no error
        (Claim.constant(740.0), "740, node 0, N_T = 1"),
    ])
    def test_terminal_row_out_of_range(self, claim, where):
        # exp(-800) underflows to 0 and exp(800) overflows; either is caught
        # where the row is built, with no RuntimeWarning (tier-1 makes it an error)
        with pytest.raises(InputError, match=rf"leg 0 \({re.escape(repr(claim))}\): "
                                             rf".* gamma\*xi = {where}$"):
            solve(bond_model(4), claim, m_space=20)

    def test_surface_budget_checked_before_any_work(self):
        # (20000 + 1) x (2000 + 1) node-steps would hold about 2.3 GB of surface
        model = MarketModel(grid=TimeGrid(1.0, 20000), coeffs=bond_model().coeffs, gamma=1.0)
        with pytest.raises(ValueError, match="40022001 node-steps exceeds the surface budget"):
            solve(model, Claim.constant(0.0), m_space=2000)

    def test_asymmetric_strategy_set_rejected_before_any_work(self, monkeypatch):
        # the pass solves C = [-k, k]: an asymmetric set would be solved as [-hi, hi]
        def no_work(*args):
            raise AssertionError("the pass started")

        monkeypatch.setattr(solver, "solve_j0_batch", no_work)
        for lo, hi in ((-1.0, 2.0), (0.7, 0.7), (-2.0, -1.0)):
            with pytest.raises(ValueError, match=rf"must be symmetric, \[-k, k\]; "
                                                 rf"got \[{lo:g}, {hi:g}\]"):
                solve_bsde(bond_model(4), BOND_CLAIM, StrategySet(lo, hi),
                           SpaceGrid(20, 1.0), Quadrature.gauss_hermite(7))


class TestStencil:
    """The cubic taps of `solver._stencil` and the products `_step` takes with them."""

    def setup_method(self):
        self.model = MarketModel(grid=TimeGrid(1.0, 50),
                                 coeffs=RegimeCoefficients.constant(mu=0.05, sigma=0.25,
                                                                    beta=-0.3, lam=0.3),
                                 gamma=1.0)
        self.space = SpaceGrid.for_model(self.model, 100)
        self.quad = Quadrature.gauss_hermite(7)

    def test_cubics_read_exactly_inside_the_grid(self):
        x = self.space.nodes
        moves = np.array([-0.13, -0.02, 0.0, 0.071])
        idx, taps = solver._stencil(self.space, moves)
        inside = slice(20, 81)  # every tap of these nodes lies on the grid
        assert np.all((idx[..., inside] > 0) & (idx[..., inside] < 100))
        for poly in ([1.0], [0.3, -1.2], [0.5, 0.1, 2.0], [-1.0, 0.4, 0.7, 3.0]):
            got = (taps * np.polynomial.polynomial.polyval(x, poly)[idx]).sum(axis=0)
            want = np.polynomial.polynomial.polyval(x[None, :] + moves[:, None], poly)
            np.testing.assert_allclose(got[:, inside], want[:, inside], rtol=0, atol=1e-13)

    def test_beta_zero_jump_is_the_identity(self):
        idx, taps = solver._stencil(self.space, np.array([0.0]))
        assert taps.ravel().tolist() == [0.0, 1.0, 0.0, 0.0]
        y = np.random.default_rng(1).uniform(0.1, 2.0, 101)
        assert (taps * y[idx]).sum(axis=0).tobytes() == y.tobytes()

    def test_products_do_not_depend_on_the_batch_or_row_width(self):
        # TestSharedRows rests on this: a column's bits equal its one-column
        # pass's only if a row's sums do not depend on how many rows the
        # product takes
        regime, = _regimes(self.model, self.space, self.quad, False)[:1]
        _, _, _, offsets, homes, taps, weights = regime
        assert offsets.shape == (2, 4, 8, 101) and homes.shape == (2, 8, 101)
        assert taps.shape == (2, 4, 8, 1)
        assert weights.shape == (2, 7)  # the one product: inner dimension q = 7
        rows = np.random.default_rng(2).uniform(0.1, 2.0, (5, 2, 101))
        dt = self.model.grid.dt
        for g, w in zip(_step(regime, None, dt, rows, 0), _step(regime, None, dt, rows[:1], 0)):
            assert g[:1].tobytes() == w.tobytes(), (
                "B = 5 against B = 1: this numpy/BLAS build sums a matmul row differently "
                "at different batch widths, so batched columns no longer equal their "
                "one-column passes bit for bit")


class TestStrategyExtraction:
    def test_merton_constant_one(self):
        surf = solve(merton_model(100), Claim.constant(0.0), m_space=60)
        pi = extract_optimal_strategy(surf)
        for t in (0.0, 0.37, 0.99):
            vals = pi(t, np.array([0.5, 1.0, 2.0]), np.array([0, 0, 1]))
            assert np.allclose(vals, 1.0, atol=1e-3)

    def test_clipped_at_set_boundary(self):
        surf = solve(merton_model(100), Claim.constant(0.0), k=0.5, m_space=60)
        pi = extract_optimal_strategy(surf)
        assert np.allclose(pi(0.5, np.array([1.0]), np.array([0])), 0.5, atol=1e-12)

    def test_zero_risk_premium_zero_strategy(self):
        # mu + lam*beta = 0 in both regimes and constant claim: minimizer sits at 0
        model = MarketModel(grid=TimeGrid(1.0, 50),
                            coeffs=RegimeCoefficients.constant(mu=-0.1, sigma=0.25,
                                                               beta=0.5, lam=0.2,
                                                               mu_post=0.0),
                            gamma=1.0)
        surf = solve(model, Claim.constant(0.3), m_space=60)
        pi = extract_optimal_strategy(surf)
        assert np.allclose(pi(0.2, np.array([1.0]), np.array([0])), 0.0, atol=1e-9)

    def test_surface_at_origin_is_midpoint_value(self):
        surf = solve(bond_model(20), BOND_CLAIM, m_space=40)
        j = surf.space.nodes.size // 2
        assert surface_at_origin(surf) == pytest.approx(surf.Y[0, j, 0], abs=1e-15)


def interp_reference(x, table, s0, s, n):
    """Per-regime np.interp: the regime read before cells were located arithmetically."""
    xq = np.log(np.asarray(s, dtype=float) / s0)
    return np.where(np.asarray(n) == 1, np.interp(xq, x, table[:, 1]),
                    np.interp(xq, x, table[:, 0]))


class TestRegimeRead:
    def setup_method(self):
        s_nodes = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
        put = tuple(max(1.0 - s, 0.0) for s in s_nodes)
        self.model = MarketModel(
            grid=TimeGrid(1.0, 40),
            coeffs=RegimeCoefficients.constant(mu=0.05, sigma=0.25, beta=-0.3,
                                               lam=0.3, mu_post=0.1),
            gamma=1.0, s0=1.3)
        self.surf = solve(self.model, Claim(s_nodes, (put, put)), m_space=60)
        x = self.surf.space.nodes
        rng = np.random.default_rng(11)
        # random points, node points (up to exp/log rounding), and points
        # beyond +-L where the read extrapolates flat
        xq = np.concatenate([rng.uniform(x[0], x[-1], 400), x,
                             [x[0] - 1e-9, x[-1] + 1e-9, 1.5 * x[0], 3.0 * x[-1]]])
        self.s = self.model.s0 * np.exp(xq)
        self.n = rng.integers(0, 2, self.s.size).astype(np.int8)

    def test_y_at_matches_per_regime_interp(self):
        x = self.surf.space.nodes
        # the regimes differ here, so a read of the wrong column would show
        assert np.max(np.abs(self.surf.Y[0, :, 0] - self.surf.Y[0, :, 1])) > 1e-3
        for i in (0, 17, 39, 40):
            table = self.surf.Y[i]
            want = interp_reference(x, table, self.model.s0, self.s, self.n)
            got = self.surf.y_at(i, self.s, self.n)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(table))
            for j in (0, 5, self.s.size - 1):
                one = self.surf.y_at(i, float(self.s[j]), int(self.n[j]))
                assert np.ndim(one) == 0
                assert abs(one - want[j]) <= 1e-13 * np.max(np.abs(table))

    def test_strategy_matches_per_regime_interp(self):
        x = self.surf.space.nodes
        pi = extract_optimal_strategy(self.surf)
        lo, hi = self.surf.strategy_set.lo, self.surf.strategy_set.hi
        times = self.model.grid.times()
        for i in (0, 17, 39):
            table = self.surf.pi_hat[i]
            want = np.clip(interp_reference(x, table, self.model.s0, self.s, self.n), lo, hi)
            got = pi(float(times[i]), self.s, self.n)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(table))
            one = pi(float(times[i]), float(self.s[3]), int(self.n[3]))
            assert np.ndim(one) == 0
            assert abs(one - want[3]) <= 1e-13 * np.max(np.abs(table))
        # the regimes differ here, so a read of the wrong column would show
        assert np.max(np.abs(self.surf.pi_hat[0, :, 0] - self.surf.pi_hat[0, :, 1])) > 1e-3


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

    def test_quadrature_node_cap_checked_before_any_work(self):
        # hermgauss(10**6) would build an 8 TB companion matrix before its NaNs showed
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="1000000 quadrature nodes exceed the cap"):
                Quadrature.gauss_hermite(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        with pytest.raises(ValueError, match="1001 quadrature nodes exceed"):
            Quadrature.gauss_hermite(solver.MAX_QUAD_NODES + 1)
        # up to the cap, a rule too large for double precision says so
        with pytest.raises(ValueError, match="1000-node Gauss-Hermite rule is not finite"):
            Quadrature.gauss_hermite(solver.MAX_QUAD_NODES)

    def test_space_grid_symmetric(self):
        g = SpaceGrid(10, 1.5)
        assert g.nodes[0] == -1.5 and g.nodes[-1] == 1.5
        assert abs(g.nodes[5]) == 0.0

    def test_space_grid_sigma_max_at_the_step_times(self):
        # sigma = 5 from t = T on is read by no step: the grid is the sigma = 0.2 one
        def model(sigma):
            return MarketModel(grid=TimeGrid(1.0, 100), gamma=1.0,
                               coeffs=RegimeCoefficients.constant(mu=0.0, sigma=sigma,
                                                                  beta=0.0, lam=0.1))

        late = SpaceGrid.for_model(model(PiecewiseConstant((0.0, 1.0), (0.2, 5.0))), 40)
        flat = SpaceGrid.for_model(model(0.2), 40)
        assert late.half_width == pytest.approx(1.2, rel=1e-15)
        assert np.array_equal(late.nodes, flat.nodes)

    def test_space_grid_is_its_two_numbers(self):
        g = SpaceGrid(40, 1.2)
        assert dataclasses.astuple(g) == (40, 1.2)
        want = np.linspace(-1.2, 1.2, 41)
        assert g.nodes.tobytes() == want.tobytes()
        assert g.nodes is g.nodes  # built once
        with pytest.raises(ValueError, match="read-only"):
            g.nodes[0] = 0.0
        assert g == SpaceGrid(40, 1.2) and hash(g) == hash(SpaceGrid(40, 1.2))
        assert g != SpaceGrid(41, 1.2) and g != SpaceGrid(40, 1.3)
        for m in (1, 0, -3, 10.5, 10.0):
            with pytest.raises(ValueError, match="m must be >= 2"):
                SpaceGrid(m, 1.2)
        assert SpaceGrid(np.int64(40), 1.2).nodes.tobytes() == want.tobytes()
        for half in (0.0, -1.2, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="half-width .* must be positive and finite"):
                SpaceGrid(40, half)
