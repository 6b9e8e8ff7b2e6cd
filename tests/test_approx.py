import math
import tracemalloc

import numpy as np
import pytest

from defaultbsde import (Claim, CoeffSnapshot, MarketModel,
                         NonConvergenceError, PiecewiseConstant, RegimeCoefficients,
                         SolverError, StrategySet, TimeGrid, converge,
                         approx, indifference_price, k_sweep, solve_bsde, solver,
                         surface_at_origin)
from defaultbsde.driver import minimize_driver_grid
from defaultbsde.solver import solve_j0_batch

from conftest import (BOND_CLAIM, BOND_J0, MERTON_J0, PUT_1, S_NODES, ZERO_CLAIM, bond_model,
                      coeffs_in_force, complete_model, merton_model, random_claim,
                      random_mild_model, solve_setup)


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
        shifted = k_sweep(model, Claim.constant(0.7), space, quad, ks)
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

    def test_rise_beyond_tolerance_recorded(self, monkeypatch):
        from defaultbsde import approx
        # a rise of 1e-6 is recorded; one of 1e-12 is within MONOTONE_TOL
        j0 = {0.5: 0.5, 1.0: 0.5 + 1e-6, 2.0: 0.5 + 1e-6 + 1e-12}

        def rising(model, claims, ks, space, quad):
            return np.array([j0[k] for k in ks]), np.zeros(len(ks), dtype=bool)

        monkeypatch.setattr(approx, "solve_j0_batch", rising)
        model = bond_model(10)
        space, quad = solve_setup(model, m_space=20)
        res = k_sweep(model, BOND_CLAIM, space, quad, [0.5, 1.0, 2.0])
        ((k1, k2, excess),) = res.monotone_violations
        assert (k1, k2) == (0.5, 1.0)
        assert excess == pytest.approx(1e-6 - approx.MONOTONE_TOL - res.noise_bound,
                                       rel=1e-9)

    def test_solver_failure_tagged_with_k(self):
        from defaultbsde import (Claim, MarketModel, RegimeCoefficients,
                                 SolverError, TimeGrid)
        # the post-default Y of a default payoff near the largest gamma*xi a
        # row takes shrinks below the smallest normal double
        model = MarketModel(grid=TimeGrid(1.0, 2),
                            coeffs=RegimeCoefficients.constant(mu=1.0, sigma=0.2,
                                                               beta=0.5, lam=0.5),
                            gamma=1.0)
        space, quad = solve_setup(model, m_space=20)
        with pytest.raises(SolverError, match="k=0.5"):
            k_sweep(model, Claim.default_indicator(0.0, 708.3), space, quad, [0.5])

    def test_sweep_csv(self, tmp_path):
        model = merton_model(20)
        space, quad = solve_setup(model, m_space=20)
        res = k_sweep(model, ZERO_CLAIM, space, quad, [0.5, 1.0])
        out = tmp_path / "sweep.csv"
        res.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "k,J0"
        assert len(lines) == 3
        assert lines[1].startswith("0.5,")


class TestConverge:
    def test_merton(self):
        model = merton_model(200)
        space, quad = solve_setup(model, m_space=50)
        j0, res = converge(model, ZERO_CLAIM, space, quad, k0=0.25, tol_rel=1e-6)
        assert abs(j0 - MERTON_J0) < 1e-3
        assert res.k_star <= 2.0

    def test_flat_market_converges_immediately(self):
        from defaultbsde import MarketModel, RegimeCoefficients, TimeGrid
        model = MarketModel(grid=TimeGrid(1.0, 20),
                            coeffs=RegimeCoefficients.constant(mu=0.0, sigma=0.3,
                                                               beta=0.0, lam=0.0),
                            gamma=1.0)
        space, quad = solve_setup(model, m_space=20)
        j0, res = converge(model, Claim.constant(0.4), space, quad, k0=0.25, tol_rel=1e-6)
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

    def test_nonconvergence_reports_sequence(self, monkeypatch):
        # Merton J0(k) still changes materially between k = 0.125 and 0.5, so a
        # one-doubling cap cannot meet a 1e-9 Cauchy tolerance
        monkeypatch.setattr(approx, "MAX_DOUBLINGS", 1)
        model = merton_model(50)
        space, quad = solve_setup(model, m_space=30)
        with pytest.raises(NonConvergenceError) as exc:
            converge(model, ZERO_CLAIM, space, quad, k0=0.125, tol_rel=1e-9)
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
                j_claim = solve_j0(model, claim, space, quad, k)
                j_zero = solve_j0(model, ZERO_CLAIM, space, quad, k)
                assert 0.0 < j_claim <= 1.0 + 1e-12
                lower = math.exp(-model.gamma * claim.bounds()[1]) * j_zero
                assert j_claim >= lower - 1e-9


# The scheme once had an optional refinement pass, and these cases ran with
# and without it; the one-valued parametrization keeps their "[False]" ids
# (the unrefined case each still checks), so their history stays under one name.
ONE_SCHEME = pytest.mark.parametrize("refined", [False])


def cubic_read(x, y, at):
    """y at the points ``at`` by the cubic Lagrange polynomial through the
    nodes j - 1 .. j + 2 around each point's cell [x_j, x_j+1), with those
    indices clipped to the grid, so that values beyond it stay flat."""
    h = (x[-1] - x[0]) / (x.size - 1)
    pos = (at - x[0]) / h
    j = np.floor(pos)
    a = pos - j
    out = np.zeros_like(a)
    for k in (-1, 0, 1, 2):
        weight = np.prod([(a - m) / (k - m) for m in (-1, 0, 1, 2) if m != k], axis=0)
        out += weight * y[np.clip(j + k, 0, x.size - 1).astype(int)]
    return out


def reference_step(c, strat, x, quad, dt, y_next, y_jump):
    """One regime of one column, ln Y read by `cubic_read` at every move: the
    step without stencils."""
    sqdt = math.sqrt(dt)
    moves = (c.mu - 0.5 * c.sigma * c.sigma) * dt + c.sigma * sqdt * quad.nodes
    ratios = np.exp(cubic_read(x, np.log(y_next), x[:, None] + moves[None, :])) / y_next[:, None]
    nojump = y_next * (ratios @ quad.weights)
    p = 1.0 - math.exp(-c.lam * dt)
    Z = (1.0 - p) * y_next * (ratios @ (quad.weights * quad.nodes)) / sqdt
    u_eff = np.zeros(x.size)
    if y_jump is None:
        E = nojump
    else:
        vjump = np.exp(cubic_read(x, np.log(y_jump), x + math.log1p(c.beta)))
        E = (1.0 - p) * nojump + p * vjump
        u_eff = vjump - E
    f, _ = minimize_driver_grid(c, strat, E, Z, u_eff)
    return E * np.exp(dt * f / E)


def reference_j0(model, claim, k, space, quad):
    """Serial J0 on C = [-k, k], coefficients looked up at every step."""
    x, strat, dt = space.nodes, StrategySet.symmetric(k), model.grid.dt
    s = model.s0 * np.exp(x)
    pre, post = (np.exp(-model.gamma * np.asarray(claim.payoff(s, n), dtype=float))
                 for n in (0, 1))
    for t in model.grid.times()[-2::-1]:
        c_post = CoeffSnapshot(*coeffs_in_force(model, t, 1), gamma=model.gamma)
        c_pre = CoeffSnapshot(*coeffs_in_force(model, t, 0), gamma=model.gamma)
        post, pre = (reference_step(c_post, strat, x, quad, dt, post, None),
                     reference_step(c_pre, strat, x, quad, dt, pre, post))
    return float(np.interp(0.0, x, pre))


PUT = Claim(S_NODES, (tuple(max(1.0 - s, 0.0) for s in S_NODES),
                      tuple(max(0.9 - s, 0.0) for s in S_NODES)))


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

    @ONE_SCHEME
    @pytest.mark.parametrize("market", [drifted_bond_market, jump_market, piecewise_market])
    def test_per_k_j0_matches_interp_reference(self, market, refined):
        model, claim = market()
        space, quad = solve_setup(model, m_space=40)
        for leg in (ZERO_CLAIM, claim, claim.negated()):
            _, res = converge(model, leg, space, quad, 0.25, 1e-6)
            assert len(res.ks) > 2
            want = [reference_j0(model, leg, k, space, quad) for k in res.ks]
            np.testing.assert_allclose(res.j0s, want, rtol=1e-13, atol=0.0)

    @ONE_SCHEME
    def test_column_bit_identical_across_batch_widths(self, refined):
        model, claim = piecewise_market()
        space, quad = solve_setup(model, m_space=40)
        legs = [ZERO_CLAIM, claim, claim.negated()]
        ks = [0.5, 1.0, 2.0]
        nine, _ = solve_j0_batch(model, [c for _ in ks for c in legs], np.repeat(ks, 3),
                                 space, quad)
        three, _ = solve_j0_batch(model, legs, [1.0] * 3, space, quad)
        one, _ = solve_j0_batch(model, [claim], [1.0], space, quad)
        surface = solve_bsde(model, claim, StrategySet.symmetric(1.0), space, quad)
        assert one[0] == three[1] == nine[4] == surface_at_origin(surface)

    def test_stock_pass_memory_does_not_grow_with_n(self):
        # a put keeps the pass M+1 nodes wide, and its peak is set by the rows
        # of one step, not by N: N = 100 and N = 200 agree within 10%
        peaks = []
        for n_steps in (100, 200):
            model = MarketModel(grid=TimeGrid(1.0, n_steps), coeffs=jump_market()[0].coeffs,
                                gamma=1.0)
            space, quad = solve_setup(model, m_space=100)
            indifference_price(model, PUT, space, quad)  # warm caches
            tracemalloc.start()
            try:
                indifference_price(model, PUT, space, quad)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.1 * min(peaks)

    def test_price_holds_no_surface(self):
        # N = M = 100 with 3 legs per pass: one regime's Y surface over the
        # batch would be (N+1)(M+1)B floats; the pass keeps rows only
        model = MarketModel(grid=TimeGrid(1.0, 100),
                            coeffs=RegimeCoefficients.constant(mu=0.1, sigma=0.2,
                                                               beta=0.0, lam=0.1),
                            gamma=1.0)
        space, quad = solve_setup(model, m_space=100)
        indifference_price(model, BOND_CLAIM, space, quad)  # warm caches
        tracemalloc.start()
        try:
            indifference_price(model, BOND_CLAIM, space, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 101 * 101 * 9 * 8


# a claim linear in log S over the whole grid: it keeps a pass M+1 nodes wide
LOG_CLAIM = Claim((0.1, 10.0), ((0.5 * math.log(0.1), 0.5 * math.log(10.0)),
                               (0.5 * math.log(0.1), 0.5 * math.log(10.0))))


def recorded_pass(monkeypatch, model, claims, ks):
    """solve_j0_batch over the columns (claims[b], ks[b]), each J0 and reach
    checked bit for bit against a one-column pass.  Returns, per _step call,
    (step, k per row, (post, pre) reach per row = max |pi|, width of the rows),
    and per column whether it binds, reach >= k."""
    space, quad = solve_setup(model, m_space=40)
    calls, real = [], solver._step

    def step(regime, strat, dt, ys, i):
        out = real(regime, strat, dt, ys, i)  # rows [b, n], n: pre, post
        calls.append((i, strat.hi[:, 0, 0], list(np.abs(out[3]).max(axis=-1).T[::-1]),
                      ys.shape[-1]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_step", step)
        j0, reach = solve_j0_batch(model, claims, ks, space, quad)
    for b, (claim, k) in enumerate(zip(claims, ks)):
        one_j0, one_reach = solve_j0_batch(model, [claim], [k], space, quad)
        assert (j0[b], reach[b]) == (one_j0[0], one_reach[0])
    return calls, reach >= ks


def split_steps(calls):
    """Steps at which rows were re-solved, once per re-solve call."""
    return [step for (step, *_), (prev, *_) in zip(calls[1:], calls) if step == prev]


class TestSharedRows:
    """A claim's ks share one row until their constraint binds; each column stays exact."""

    @ONE_SCHEME
    @pytest.mark.parametrize("market", [drifted_bond_market, jump_market, piecewise_market])
    def test_price_legs_equal_one_column_solves(self, market, refined):
        model, claim = market()
        space, quad = solve_setup(model, m_space=40)
        for leg in (ZERO_CLAIM, claim, claim.negated()):
            _, res = converge(model, leg, space, quad, 0.25, 1e-6)
            # the serial run: one column per solve, the stopping rule k by k
            ks, want = [], []
            while len(ks) < 2 or abs(want[-1][0] - want[-2][0]) > 1e-6 * abs(want[-2][0]):
                ks.append(0.25 * 2.0 ** len(ks))
                j0, reach = solve_j0_batch(model, [leg], [ks[-1]], space, quad)
                want.append((j0[0], reach[0] >= ks[-1]))
            assert (res.ks, res.k_star) == (ks, ks[-1])
            assert list(zip(res.j0s, res.bound)) == want

    @pytest.mark.parametrize("market", [drifted_bond_market, jump_market, piecewise_market])
    def test_converge_sweep_is_k_sweep_over_its_ks(self, market):
        # converge's pass holds every doubling up to the cap, k_sweep's only
        # the ks converge kept: no row depends on the batch
        model, claim = market()
        space, quad = solve_setup(model, m_space=40)
        for leg in (ZERO_CLAIM, claim, claim.negated()):
            _, res = converge(model, leg, space, quad, 0.25, 1e-6)
            swept = k_sweep(model, leg, space, quad, res.ks)
            assert (swept.ks, swept.j0s, swept.bound) == (res.ks, res.j0s, res.bound)

    @ONE_SCHEME
    def test_nested_split_within_one_step(self, monkeypatch, refined):
        # the drifted bond's strategy 2.5 binds k = 0.25, 0.5, 1 and 2 at the first step
        model, claim = drifted_bond_market()
        calls, bound = recorded_pass(monkeypatch, model, [claim] * 5,
                                     [0.25, 0.5, 1.0, 2.0, 4.0])
        assert split_steps(calls) == [49] * 4
        assert bound.tolist() == [True] * 4 + [False]

    @ONE_SCHEME
    def test_split_at_a_coefficient_break(self, monkeypatch, refined):
        # piecewise market, zero claim: the pre-default strategy passes 1.5 only
        # once mu_pre switches at t = 0.7, i.e. from step 34 on
        model, _ = piecewise_market()
        calls, bound = recorded_pass(monkeypatch, model, [ZERO_CLAIM] * 2, [1.5, 3.0])
        assert split_steps(calls)[0] == 34
        assert model.grid.times()[34] < 0.7 < model.grid.times()[35]
        assert bound[0]

    @ONE_SCHEME
    def test_split_only_the_post_default_regime_triggers(self, monkeypatch, refined):
        # jump market, zero claim: post-default strategy mu / (gamma sigma^2) = 0.8,
        # pre-default one below 0.46
        model, _ = jump_market()
        calls, _ = recorded_pass(monkeypatch, model, [ZERO_CLAIM] * 2, [0.6, 1.0])
        assert split_steps(calls) == [49]
        _, k, (post, pre), _ = calls[0]
        assert all(r >= k for r in post) and not any(r >= k for r in pre)

    @ONE_SCHEME
    def test_one_column_per_claim_never_splits(self, monkeypatch, refined):
        model, claim = piecewise_market()
        calls, _ = recorded_pass(monkeypatch, model, [ZERO_CLAIM, claim, claim.negated()],
                                 [0.5, 1.0, 2.0])
        assert [step for step, *_ in calls] == list(range(49, -1, -1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_every_k_checked_not_only_a_rows_first(self, bad):
        # zero drift: k = 1 never binds, so the row would never reach the bad k
        model = bond_model(20)
        space, quad = solve_setup(model, m_space=20)
        with pytest.raises(ValueError, match="k must be positive|must be finite"):
            solve_j0_batch(model, [BOND_CLAIM] * 2, [1.0, bad], space, quad)

    def test_bound_per_k_reported_not_emitted(self):
        model, claim = drifted_bond_market()
        space, quad = solve_setup(model, m_space=40)
        legs = [converge(model, leg, space, quad, 0.25, 1e-6)[1]
                for leg in (ZERO_CLAIM, claim, claim.negated())]
        # vertex mu / (gamma sigma^2) = 2.5: k <= 2 binds, k = 4 and k* = 8 do not
        assert [res.ks for res in legs] == [[0.25, 0.5, 1.0, 2.0, 4.0, 8.0]] * 3
        assert [res.bound for res in legs] == [[True] * 4 + [False] * 2] * 3
        # the one pass reaches the vertex, between the last binding k and the first free one
        rep = indifference_price(model, claim, space, quad)
        assert rep.diagnostics["k_bar"] == pytest.approx(2.5, rel=1e-12)
        assert "bound" not in str(rep.to_json_dict()) and "k_bar" not in str(rep.to_json_dict())


class TestVisitors:
    """solve_bsde's surface is the one visitor of the loop, and the pass's
    reach, which gives the price's k-bar, is its strategy's peak."""

    @pytest.mark.parametrize("k", [0.5, 4.0])  # binds, free
    def test_reach_is_the_surface_strategy_peak(self, k):
        model, claim = jump_market()
        space, quad = solve_setup(model, m_space=40)
        _, reach = solve_j0_batch(model, [claim], [k], space, quad)
        surf = solve_bsde(model, claim, StrategySet.symmetric(k), space, quad)
        assert reach[0] == np.nanmax(np.abs(surf.pi_hat))
        assert (reach[0] >= k) == (k == 0.5)

    def test_price_k_bar_is_the_surface_strategy_peak(self):
        # the drifted bond's legs all sit at the vertex 2.5; a bound of 2 k-bar never binds
        model, claim = drifted_bond_market()
        space, quad = solve_setup(model, m_space=40)
        k_bar = indifference_price(model, claim, space, quad).diagnostics["k_bar"]
        surf = solve_bsde(model, claim, StrategySet.symmetric(2 * k_bar), space, quad)
        assert k_bar == np.nanmax(np.abs(surf.pi_hat))

    @pytest.mark.parametrize("ks", [None, [0.5, 1.0, 2.0]])
    def test_pass_without_splits_visits_each_step_once_in_order(self, ks):
        model, claim = piecewise_market()
        space, quad = solve_setup(model, m_space=40)
        legs = [ZERO_CLAIM, claim, claim.negated()]
        seen = []
        solve_j0_batch(model, legs, ks, space, quad,
                       lambda i, *rows: seen.append((i, *(a.shape for a in rows))))
        assert [i for i, *_ in seen] == list(range(49, -1, -1))
        assert {tuple(shapes) for _, *shapes in seen} == {((3, 2, 41),) * 4}

    def test_split_rows_are_visited_with_their_step(self):
        # k = 0.25..2 bind at step 49 and split there: the step's visit holds every row
        model, claim = drifted_bond_market()
        space, quad = solve_setup(model, m_space=40)
        seen = []

        def visit(i, y, z, u, pi):
            seen.append((i, len(y), np.abs(pi).max(axis=(1, 2))))

        solve_j0_batch(model, [claim] * 5, [0.25, 0.5, 1.0, 2.0, 4.0], space, quad, visit)
        assert [i for i, *_ in seen] == list(range(49, -1, -1))
        assert {rows for _, rows, _ in seen} == {5}
        assert seen[0][2].tolist() == pytest.approx([0.25, 0.5, 1.0, 2.0, 2.5], rel=1e-12)


def loop_price(model, claim, space, quad):
    """(buy, sell) from the k loop's value of each leg at its own k*, and
    whether each leg binds there."""
    legs = [converge(model, leg, space, quad, 0.25, 1e-6)[1]
            for leg in (ZERO_CLAIM, claim, claim.negated())]
    zero, held, sold = (res.j0s[-1] for res in legs)
    return (math.log(zero / held) / model.gamma, -math.log(zero / sold) / model.gamma,
            [res.bound[-1] for res in legs])


def priced_markets():
    """(model, claim, M) of the prices in the suite: the acceptance criteria's,
    the complete market's, TestSharedRows' markets, and the random_mild_model
    markets of tests/."""
    yield bond_model(100), BOND_CLAIM, 100  # criterion 2
    yield bond_model(100), BOND_CLAIM, 60  # criterion 9
    for n in (50, 100, 200, 400):  # the complete market, next to criterion 2
        yield complete_model(n), PUT_1, n
    rng = np.random.default_rng(101)  # criterion 3
    for _ in range(5):
        model, claim = random_mild_model(rng, n_steps=50), random_claim(rng)
        for c in (0.0, -1.0, 0.5, 3.0):
            yield model, claim.shifted(c), 40
    for market in (drifted_bond_market, jump_market, piecewise_market):
        yield (*market(), 40)
    for seed, n_steps, m, count in ((43, 50, 40, 1), (31, 100, 60, 5), (41, 50, 40, 3),
                                    (103, 100, 60, 10)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield random_mild_model(rng, n_steps), random_claim(rng), m


class TestLoopGate:
    """price's one unbounded pass gives the k loop's prices bit for bit: on
    every market the suite prices, the loop stops after its last binding k."""

    def test_one_pass_price_is_the_loop_price(self):
        for i, (model, claim, m) in enumerate(priced_markets()):
            space, quad = solve_setup(model, m_space=m)
            buy, sell, bound = loop_price(model, claim, space, quad)
            rep = indifference_price(model, claim, space, quad)
            assert not any(bound), i
            assert (rep.buy_price, rep.sell_price) == (buy, sell), i


def test_buy_not_above_sell():
    # buy <= sell holds for the exact prices; a constant claim's two prices
    # are c up to rounding.  The scheme keeps the order only up to its
    # first-order error, so a true spread as small as a random_mild_model
    # bond's (about 1.5e-4) could flip; none here does
    flipped = []
    for model, claim, m in priced_markets():
        rep = indifference_price(model, claim, *solve_setup(model, m_space=m))
        if rep.buy_price > rep.sell_price + 1e-12:
            flipped.append((model, claim, rep.buy_price - rep.sell_price))
    assert flipped == []


class TestDriverContract:
    """The driver checks nothing: every call the solver makes keeps its shape
    rule and its domain, because the solver checks them first."""

    @ONE_SCHEME
    @pytest.mark.parametrize("market", [drifted_bond_market, jump_market, piecewise_market])
    def test_every_call_keeps_the_contract(self, monkeypatch, market, refined):
        real, calls = solver.minimize_driver_grid, []

        def driver(c, strat, y, z, u):
            assert isinstance(y, np.ndarray) and isinstance(z, np.ndarray)
            assert y.dtype == z.dtype == np.float64 and y.shape == z.shape
            if isinstance(u, np.ndarray):
                assert u.dtype == np.float64 and u.shape == y.shape
            else:
                assert type(u) is float and u == 0.0
            assert np.all(y > 0.0) and np.all(y + u >= 0.0)
            # one call steps both regimes: the middle axis of the rows [b, n, j]
            # and of every coefficient is the default state n; the coefficients
            # come at the rows' own shape, each constant but along that axis
            assert y.ndim == 3 and y.shape[1] == 2
            for v in (c.mu, c.sigma, c.lam, c.beta):
                assert np.shape(v) == y.shape and np.all(v == v[:1, :, :1])
            calls.append(y.shape)
            return real(c, strat, y, z, u)

        monkeypatch.setattr(solver, "minimize_driver_grid", driver)
        model, claim = market()
        space, quad = solve_setup(model, m_space=40)
        indifference_price(model, claim, space, quad)
        solve_bsde(model, claim, StrategySet.symmetric(2.0), space, quad)
        assert len(calls) >= 2 * model.grid.n_steps


def per_regime_calls(c, rows, strat, y, z, u):
    """The driver called once per regime n on float coefficients rows[n], with
    u only where lam > 0, as the solver called it before the regime axis."""
    strat = StrategySet(strat.lo[:, 0], strat.hi[:, 0])  # per row b, no regime axis
    outs = [minimize_driver_grid(CoeffSnapshot(*row, gamma=c.gamma), strat, y[:, n], z[:, n],
                                 u[:, n] if row[2] > 0.0 else 0.0)
            for n, row in enumerate(rows)]
    return np.stack([f for f, _ in outs], axis=1), np.stack([pi for _, pi in outs], axis=1)


class TestStackedDriver:
    """One driver call on per-regime coefficient columns equals the per-regime
    float calls bit for bit, f and pi alike."""

    def states(self, rng, shape, zn=(-2.0, 2.0)):
        y = rng.uniform(0.05, 3.0, shape)
        return y, rng.uniform(*zn, shape) * y, rng.uniform(-0.999, 3.0, shape) * y

    @pytest.mark.parametrize("market", [drifted_bond_market, jump_market, piecewise_market])
    def test_step_table_rows(self, market):
        model, _ = market()
        space, quad = solve_setup(model, m_space=40)
        rng = np.random.default_rng(20)
        strat = StrategySet.symmetric(np.array([[[0.25]], [[2.0]], [[8.0]]]))
        regimes = solver._regimes(model, space, quad, False)
        for rows, regime in zip(model.step_table.tolist(), regimes):
            y, z, u = self.states(rng, (3, 2, 41))
            f, pi = minimize_driver_grid(regime[0], strat, y, z, u)
            want_f, want_pi = per_regime_calls(regime[0], rows, strat, y, z, u)
            assert f.tobytes() == want_f.tobytes() and pi.tobytes() == want_pi.tobytes()

    def test_sigma_squared_as_a_float(self):
        # Python's 0.1176 ** 2 calls pow, which (with glibc) differs in the last
        # bit from the product 0.1176 * 0.1176 that numpy's array square takes
        rows = [[0.05, 0.1176, 0.0, 0.0], [0.02, 0.1176, 0.0, 0.0]]
        c = CoeffSnapshot(*np.array(rows).T[..., None], gamma=1.0)
        y, z, u = self.states(np.random.default_rng(5), (4, 2, 9))
        strat = StrategySet.symmetric(np.full((4, 1, 1), 8.0))
        f, pi = minimize_driver_grid(c, strat, y, z, u)
        want_f, want_pi = per_regime_calls(c, rows, strat, y, z, u)
        assert f.tobytes() == want_f.tobytes() and pi.tobytes() == want_pi.tobytes()

    def test_jump_term_skipped_where_lam_is_zero(self):
        # lam = 0 with beta != 0 next to a jumping regime: at k = 2^20 the first
        # regime's strategy reaches ~4e4, where exp(-gamma pi beta) overflows;
        # lam beta = 0 skips the term there, as the float call does
        rows = [[0.05, 0.25, 0.0, -0.5], [0.05, 0.25, 0.3, -0.3]]
        c = CoeffSnapshot(*np.array(rows).T[..., None], gamma=1.0)
        assert [n for n, _ in c.driver_terms[2]] == [np.s_[..., 1, :]]  # lam beta != 0
        y, z, u = self.states(np.random.default_rng(3), (2, 2, 5), zn=(1e4, 1e4))
        strat = StrategySet.symmetric(np.array([[[2.0 ** 20]], [[2.0]]]))
        f, pi = minimize_driver_grid(c, strat, y, z, u)
        assert np.all(np.isfinite(f)) and pi[0, 0].min() > 3e4
        want_f, want_pi = per_regime_calls(c, rows, strat, y, z, u)
        assert f.tobytes() == want_f.tobytes() and pi.tobytes() == want_pi.tobytes()


def fail_columns_above(monkeypatch, k_fail, node=17):
    """Make the driver push Y below 0 at one node (every node if None) of
    every column with k > k_fail."""
    real = solver.minimize_driver_grid

    def driver(c, strat, y, z, u):
        f, pi = real(c, strat, y, z, u)
        bad = np.asarray(strat.hi) > k_fail
        if node is not None:
            bad = bad & (np.arange(f.shape[-1]) == node)
        return np.where(bad, -1e9, f), pi

    monkeypatch.setattr(solver, "minimize_driver_grid", driver)


class TestBlockFailures:
    """A failing pass is solved again one k at a time, as a serial run would meet it."""

    def setup_method(self):
        # a claim that depends on S keeps the pass M+1 nodes wide, so node 17
        # exists; k0 = 0.5 stops at k* = 4, and k <= 2 binds at step 49
        self.model, _ = drifted_bond_market()
        self.space, self.quad = solve_setup(self.model, m_space=40)

    def sweep(self, claim=LOG_CLAIM):
        return converge(self.model, claim, self.space, self.quad, 0.5, 1e-6)[1]

    def test_failure_past_k_star_is_never_raised(self, monkeypatch):
        want = self.sweep()
        assert want.ks == [0.5, 1.0, 2.0, 4.0]
        fail_columns_above(monkeypatch, 5.0)  # from k = 8, the first k past k*
        got = self.sweep()
        assert (got.ks, got.j0s, got.k_star) == (want.ks, want.j0s, want.k_star)

    def test_failure_at_or_below_k_star_tagged_with_k(self, monkeypatch):
        fail_columns_above(monkeypatch, 3.0)
        with pytest.raises(SolverError, match=r"^k=4: solver: Y \(post-default\) "
                                              r"positivity violated at step 49, node 17 "):
            self.sweep()

    def test_node_counted_within_the_failing_column(self, monkeypatch):
        fail_columns_above(monkeypatch, 3.0)
        with pytest.raises(SolverError, match=r"step 49, node 17 "):
            solve_j0_batch(self.model, [LOG_CLAIM] * 3, [1.0, 2.0, 4.0],
                           self.space, self.quad)

    def test_flat_pass_names_node_0(self, monkeypatch):
        # the bond's pass runs one node wide; a full-width flat row names
        # node 0 as well, since argmin over equal values returns the first
        assert self.sweep(BOND_CLAIM).ks == [0.5, 1.0, 2.0, 4.0, 8.0]
        fail_columns_above(monkeypatch, 3.0, node=None)
        with pytest.raises(SolverError, match=r"^k=4: solver: Y \(post-default\) "
                                              r"positivity violated at step 49, node 0 "):
            self.sweep(BOND_CLAIM)


FLAT_LEGS = (ZERO_CLAIM, BOND_CLAIM, BOND_CLAIM.negated())


class TestFlatRows:
    """A pass whose terminal rows are all flat in x runs one node wide, and
    gives the full-width pass's numbers bit for bit."""

    @ONE_SCHEME
    @pytest.mark.parametrize("market", [drifted_bond_market, jump_market, piecewise_market])
    def test_rows_two_wide_until_one_leg_depends_on_s(self, monkeypatch, market, refined):
        model, claim = market()
        calls, _ = recorded_pass(monkeypatch, model, list(FLAT_LEGS), [0.5, 1.0, 2.0])
        assert {width for *_, width in calls} == {1}
        calls, _ = recorded_pass(monkeypatch, model, [*FLAT_LEGS, PUT], [0.5, 1.0, 2.0, 1.0])
        assert {width for *_, width in calls} == {41}

    @ONE_SCHEME
    @pytest.mark.parametrize("market", [drifted_bond_market, jump_market, piecewise_market])
    def test_flat_columns_equal_full_width_columns(self, market, refined):
        model, _ = market()
        space, quad = solve_setup(model, m_space=40)
        ks = np.repeat([0.25, 0.5, 1.0, 2.0, 4.0, 8.0], len(FLAT_LEGS))
        flat = [leg for _ in range(6) for leg in FLAT_LEGS]
        narrow = solve_j0_batch(model, flat, ks, space, quad)
        # the PUT columns keep this pass M+1 nodes wide
        wide = solve_j0_batch(model, flat + [PUT] * 6, np.concatenate([ks, ks[::3]]),
                              space, quad)
        for a, b in zip(narrow, wide):
            assert a.tobytes() == b[:ks.size].tobytes()

    @ONE_SCHEME
    def test_surface_spread_over_the_grid(self, refined):
        model, _ = jump_market()
        space, quad = solve_setup(model, m_space=40)
        surface = solve_bsde(model, BOND_CLAIM, StrategySet.symmetric(1.0), space, quad)
        n1 = model.grid.n_steps + 1
        assert surface.Y.shape == surface.Z.shape == surface.pi_hat.shape == (n1, 41, 2)
        assert surface.U.shape == (n1, 41)
        for a in (surface.Y, surface.Z, surface.U, surface.pi_hat):
            np.testing.assert_array_equal(a, np.broadcast_to(a[:, :1], a.shape))
        j0, _ = solve_j0_batch(model, [BOND_CLAIM], [1.0], space, quad)
        assert surface_at_origin(surface) == j0[0]

    def test_constant_stock_payoff_collapses_like_default_indicator(self, monkeypatch):
        model, _ = piecewise_market()
        table = Claim(S_NODES, ((0.8,) * len(S_NODES), (0.3,) * len(S_NODES)))
        calls, _ = recorded_pass(monkeypatch, model, [table], [1.0])
        assert {width for *_, width in calls} == {1}
        space, quad = solve_setup(model, m_space=40)
        want, _ = solve_j0_batch(model, [Claim.default_indicator(0.8, 0.3)], [1.0], space, quad)
        got, _ = solve_j0_batch(model, [table], [1.0], space, quad)
        assert got[0] == want[0]
