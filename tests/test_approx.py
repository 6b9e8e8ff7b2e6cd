import math
import tracemalloc

import numpy as np
import pytest

from defaultbsde import (CoeffSnapshot, Constant, DefaultIndicator, MarketModel,
                         NonConvergenceError, PiecewiseConstant, RegimeCoefficients,
                         SolverError, StockPayoff, StrategySet, TimeGrid, converge,
                         indifference_price, k_sweep, solve_bsde, solver,
                         surface_at_origin)
from defaultbsde.approx import converge_legs
from defaultbsde.driver import minimize_driver_grid
from defaultbsde.solver import solve_j0_batch

from conftest import (BOND_CLAIM, BOND_J0, MERTON_J0, ZERO_CLAIM, bond_model,
                      merton_model, random_claim, random_mild_model, solve_setup)


class TestKSweep:
    def test_merton_constant_beyond_interior_optimum(self):
        model = merton_model(100)
        space, quad = solve_setup(model, m_space=50)
        res = k_sweep(model, ZERO_CLAIM, space, quad, [0.5, 1.0, 2.0, 4.0])
        assert res.monotone_violations == []
        assert all(b <= a + 1e-12 for a, b in zip(res.j0s, res.j0s[1:]))
        # constraint inactive from k = 1 on (vertex pi* = 1)
        assert abs(res.j0s[1] - res.j0s[2]) < 1e-12
        assert abs(res.j0s[2] - res.j0s[3]) < 1e-12
        assert res.j0s[0] > res.j0s[1] + 1e-3

    def test_constant_claim_scales_out(self):
        model = merton_model(50)
        space, quad = solve_setup(model, m_space=40)
        ks = [0.5, 1.0, 2.0]
        base = k_sweep(model, ZERO_CLAIM, space, quad, ks)
        shifted = k_sweep(model, Constant(0.7), space, quad, ks)
        factor = math.exp(-model.gamma * 0.7)
        assert np.allclose(shifted.j0s, [factor * v for v in base.j0s], rtol=1e-12)

    def test_bond_flat_in_k(self):
        model = bond_model(50)
        space, quad = solve_setup(model, m_space=50)
        res = k_sweep(model, BOND_CLAIM, space, quad, [0.25, 1.0, 4.0])
        assert max(res.j0s) - min(res.j0s) < 1e-10

    def test_rejects_bad_schedules(self):
        model = merton_model(10)
        space, quad = solve_setup(model, m_space=20)
        with pytest.raises(ValueError):
            k_sweep(model, ZERO_CLAIM, space, quad, [])
        with pytest.raises(ValueError):
            k_sweep(model, ZERO_CLAIM, space, quad, [1.0, 0.5])
        with pytest.raises(ValueError):
            k_sweep(model, ZERO_CLAIM, space, quad, [-1.0, 1.0])

    def test_monotone_in_k_random_models(self):
        rng = np.random.default_rng(31)
        ks = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        for _ in range(5):
            model = random_mild_model(rng)
            claim = random_claim(rng)
            space, quad = solve_setup(model, m_space=60)
            res = k_sweep(model, claim, space, quad, ks)
            assert res.monotone_violations == []

    def test_solver_failure_tagged_with_k(self):
        from defaultbsde import (DefaultIndicator, MarketModel, RegimeCoefficients,
                                 SolverError, TimeGrid)
        model = MarketModel(grid=TimeGrid(1.0, 2),
                            coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.2,
                                                               beta=0.5, lam=0.5),
                            gamma=1.0)
        space, quad = solve_setup(model, m_space=20)
        with pytest.raises(SolverError, match="k=0.5"):
            k_sweep(model, DefaultIndicator(0.0, 20.0), space, quad, [0.5])

    def test_sweep_csv(self, tmp_path):
        model = merton_model(20)
        space, quad = solve_setup(model, m_space=20)
        res = k_sweep(model, ZERO_CLAIM, space, quad, [0.5, 1.0])
        out = tmp_path / "sweep.csv"
        res.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "k,J0,runtime_ms"
        assert len(lines) == 3
        assert lines[1].startswith("0.5,")


class TestConverge:
    def test_merton(self):
        model = merton_model(200)
        space, quad = solve_setup(model, m_space=50)
        j0, res = converge(model, ZERO_CLAIM, space, quad, k0=0.25, tol_rel=1e-6)
        assert abs(j0 - MERTON_J0) < 1e-3
        assert res.converged
        assert res.k_star <= 2.0

    def test_flat_market_converges_immediately(self):
        from defaultbsde import MarketModel, RegimeCoefficients, TimeGrid
        model = MarketModel(grid=TimeGrid(1.0, 20),
                            coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.3,
                                                               beta=0.0, lam=0.0),
                            gamma=1.0)
        space, quad = solve_setup(model, m_space=20)
        j0, res = converge(model, Constant(0.4), space, quad, k0=0.25, tol_rel=1e-6)
        assert len(res.ks) == 2  # first doubling already Cauchy
        assert j0 == pytest.approx(math.exp(-0.4), abs=1e-10)

    def test_bond(self):
        model = bond_model(100)
        space, quad = solve_setup(model, m_space=60)
        j0, res = converge(model, BOND_CLAIM, space, quad, k0=0.25, tol_rel=1e-6)
        assert abs(j0 - BOND_J0) < 5e-3

    def test_rejects_bad_inputs(self):
        model = merton_model(10)
        space, quad = solve_setup(model, m_space=20)
        with pytest.raises(ValueError):
            converge(model, ZERO_CLAIM, space, quad, k0=0.0, tol_rel=1e-6)
        with pytest.raises(ValueError):
            converge(model, ZERO_CLAIM, space, quad, k0=1.0, tol_rel=0.0)

    def test_nonconvergence_reports_sequence(self):
        # Merton J0(k) still changes materially between k = 0.125 and 0.5, so a
        # one-doubling cap cannot meet a 1e-9 Cauchy tolerance
        model = merton_model(50)
        space, quad = solve_setup(model, m_space=30)
        with pytest.raises(NonConvergenceError) as exc:
            converge(model, ZERO_CLAIM, space, quad, k0=0.125, tol_rel=1e-9,
                     max_doublings=1)
        assert len(exc.value.ks) == 2
        assert len(exc.value.j0s) == 2
        assert exc.value.j0s[1] < exc.value.j0s[0]

    def test_stability_in_k0(self):
        model = bond_model(50)
        space, quad = solve_setup(model, m_space=40)
        tol = 1e-6
        j_a, _ = converge(model, BOND_CLAIM, space, quad, k0=0.5, tol_rel=tol)
        j_b, _ = converge(model, BOND_CLAIM, space, quad, k0=0.25, tol_rel=tol)
        assert abs(j_a - j_b) <= 2 * tol * abs(j_a)

    def test_value_bounds(self):
        # J0(k, xi) >= exp(-gamma sup xi) * J0(k, 0) and J0 <= 1 for xi >= 0
        rng = np.random.default_rng(41)
        for _ in range(3):
            model = random_mild_model(rng, n_steps=50)
            claim = random_claim(rng)
            if claim.bounds()[0] < 0:
                claim = claim.shifted(-claim.bounds()[0])
            space, quad = solve_setup(model, m_space=40)
            for k in (0.5, 2.0):
                from defaultbsde.approx import solve_j0
                j_claim, _ = solve_j0(model, claim, space, quad, k)
                j_zero, _ = solve_j0(model, ZERO_CLAIM, space, quad, k)
                assert 0.0 < j_claim <= 1.0 + 1e-12
                lower = math.exp(-model.gamma * claim.bounds()[1]) * j_zero
                assert j_claim >= lower - 1e-9


def reference_step(c, strat, x, quad, dt, y_next, y_jump, refine):
    """One regime of one column by np.interp at every move: the step before stencils."""
    sqdt = math.sqrt(dt)
    moves = np.log(1.0 + c.mu * dt + c.sigma * sqdt * quad.nodes)
    vals = np.interp((x[:, None] + moves[None, :]).ravel(), x,
                     y_next).reshape(x.size, quad.nodes.size)
    nojump = vals @ quad.weights
    p = 1.0 - math.exp(-c.lam * dt)
    Z = (1.0 - p) * (vals @ (quad.weights * quad.nodes)) / sqdt
    u_eff = np.zeros(x.size)
    if y_jump is None:
        E = nojump
    else:
        vjump = np.interp(x + math.log1p(c.beta), x, y_jump)
        E = (1.0 - p) * nojump + p * vjump
        if c.lam > 0.0:
            u_eff = vjump - nojump
    f, _ = minimize_driver_grid(c, strat, E, Z, u_eff)
    y = E + dt * f
    if refine:
        f, _ = minimize_driver_grid(c, strat, y, Z, u_eff)
        y = E + dt * f
    return y


def reference_j0(model, claim, k, space, quad, refine):
    """Serial J0 on C = [-k, k], coefficients looked up at every step."""
    x, strat, dt = space.nodes, StrategySet.symmetric(k), model.grid.dt
    s = model.s0 * np.exp(x)
    pre, post = (np.exp(-model.gamma * np.asarray(claim.payoff(s, n), dtype=float))
                 for n in (0, 1))
    for t in model.grid.times()[-2::-1]:
        c_post = CoeffSnapshot(*model.coeffs.at(t, defaulted=True), gamma=model.gamma)
        c_pre = CoeffSnapshot(*model.coeffs.at(t, defaulted=False), gamma=model.gamma)
        post, pre = (reference_step(c_post, strat, x, quad, dt, post, None, refine),
                     reference_step(c_pre, strat, x, quad, dt, pre, post, refine))
    return float(np.interp(0.0, x, pre))


S_NODES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
PUT = StockPayoff(S_NODES, tuple(max(1.0 - s, 0.0) for s in S_NODES),
                  tuple(max(0.9 - s, 0.0) for s in S_NODES))


def drifted_bond_market():
    model = MarketModel(grid=TimeGrid(1.0, 50),
                        coeffs=RegimeCoefficients.constant(mu=0.1, sigma=0.2,
                                                           beta=0.0, lam=0.1),
                        gamma=1.0)
    return model, BOND_CLAIM


def jump_market():
    model = MarketModel(grid=TimeGrid(1.0, 50),
                        coeffs=RegimeCoefficients.constant(mu=0.05, sigma=0.25,
                                                           beta=-0.3, lam=0.3),
                        gamma=1.0)
    return model, PUT


def piecewise_market():
    coeffs = RegimeCoefficients(
        mu_pre=PiecewiseConstant((0.0, 0.3, 0.7), (0.1, -0.05, 0.08)),
        sigma_pre=PiecewiseConstant((0.0, 0.5), (0.2, 0.3)),
        mu_post=PiecewiseConstant.flat(0.02),
        sigma_post=PiecewiseConstant((0.0, 0.6), (0.25, 0.15)),
        beta=PiecewiseConstant((0.0, 0.5), (0.4, -0.2)),
        lam=PiecewiseConstant((0.0, 0.4), (0.2, 0.5)),
    )
    return MarketModel(grid=TimeGrid(1.0, 50), coeffs=coeffs, gamma=0.8), PUT


class TestBatchedPass:
    """Price legs and doublings share one backward pass, column by column."""

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("market", [drifted_bond_market, jump_market, piecewise_market])
    def test_per_k_j0_matches_interp_reference(self, market, refine):
        model, claim = market()
        space, quad = solve_setup(model, m_space=40)
        diag = indifference_price(model, claim, space, quad, 0.25, 1e-6,
                                  refine=refine).diagnostics
        assert len(diag["ks"]) > 2
        for key, leg in (("J0_zero_per_k", ZERO_CLAIM), ("J0_claim_per_k", claim),
                         ("J0_negated_per_k", claim.negated())):
            want = [reference_j0(model, leg, k, space, quad, refine) for k in diag["ks"]]
            np.testing.assert_allclose(diag[key], want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("refine", [False, True])
    def test_column_bit_identical_across_batch_widths(self, refine):
        model, claim = piecewise_market()
        space, quad = solve_setup(model, m_space=40)
        legs = [ZERO_CLAIM, claim, claim.negated()]
        ks = [0.5, 1.0, 2.0]
        nine = solve_j0_batch(model, [c for _ in ks for c in legs], np.repeat(ks, 3),
                              space, quad, refine=refine)
        three = solve_j0_batch(model, legs, [1.0] * 3, space, quad, refine=refine)
        one = solve_j0_batch(model, [claim], [1.0], space, quad, refine=refine)
        surface = solve_bsde(model, claim, StrategySet.symmetric(1.0), space, quad,
                             refine=refine)
        assert one[0] == three[1] == nine[4] == surface_at_origin(surface)

    def test_price_holds_no_surface(self):
        # N = M = 100 with 3 legs x 3 doublings per pass: one regime's Y surface
        # over the batch would be (N+1)(M+1)B floats; the pass keeps rows only
        model = MarketModel(grid=TimeGrid(1.0, 100),
                            coeffs=RegimeCoefficients.constant(mu=0.1, sigma=0.2,
                                                               beta=0.0, lam=0.1),
                            gamma=1.0)
        space, quad = solve_setup(model, m_space=100)
        indifference_price(model, BOND_CLAIM, space, quad, 0.25, 1e-6)  # warm caches
        tracemalloc.start()
        try:
            indifference_price(model, BOND_CLAIM, space, quad, 0.25, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 101 * 101 * 9 * 8


def fail_columns_above(monkeypatch, k_fail, node=17):
    """Make the driver push Y below 0 at one node of every column with k > k_fail."""
    real = solver.minimize_driver_grid

    def driver(c, strat, y, z, u):
        f, pi = real(c, strat, y, z, u)
        bad = (np.asarray(strat.hi) > k_fail) & (np.arange(f.shape[-1]) == node)
        return np.where(bad, -1e9, f), pi

    monkeypatch.setattr(solver, "minimize_driver_grid", driver)


class TestBlockFailures:
    """A failing pass is solved again one k at a time, as a serial run would meet it."""

    def setup_method(self):
        # k0 = 0.5 stops at k* = 8: the second pass holds 4, 8 and 16
        self.model, self.claim = drifted_bond_market()
        self.space, self.quad = solve_setup(self.model, m_space=40)

    def legs(self):
        return converge_legs(self.model, (ZERO_CLAIM, self.claim), ("zero", "claim"),
                             self.space, self.quad, 0.5, 1e-6)

    def test_failure_past_k_star_is_never_raised(self, monkeypatch):
        want = self.legs()
        assert want[0].ks == [0.5, 1.0, 2.0, 4.0, 8.0]
        fail_columns_above(monkeypatch, 10.0)
        got = self.legs()
        for a, b in zip(got, want):
            assert (a.ks, a.j0s, a.k_star) == (b.ks, b.j0s, b.k_star)

    def test_failure_at_or_below_k_star_tagged_with_k(self, monkeypatch):
        fail_columns_above(monkeypatch, 3.0)
        with pytest.raises(SolverError, match=r"^k=4: solver: Y \(post-default\) "
                                              r"positivity violated at step 49, node 17 "):
            self.legs()

    def test_node_counted_within_the_failing_column(self, monkeypatch):
        fail_columns_above(monkeypatch, 3.0)
        with pytest.raises(SolverError, match=r"step 49, node 17 "):
            solve_j0_batch(self.model, [self.claim] * 3, [1.0, 2.0, 4.0],
                           self.space, self.quad)
