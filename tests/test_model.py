import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from defaultbsde import (Claim, MarketModel, PathEnsemble,
                         PiecewiseConstant, RegimeCoefficients, TimeGrid,
                         claim_payoff, simulate_paths, validate_model)
from defaultbsde.model import coefficient_violations

from conftest import coeffs_in_force, merton_model, piecewise_model


def flat_model(mu=0.1, sigma=0.2, beta=-0.3, lam=0.5, gamma=1.0, T=1.0, N=100):
    return MarketModel(grid=TimeGrid(T, N),
                       coeffs=RegimeCoefficients.constant(mu=mu, sigma=sigma,
                                                          beta=beta, lam=lam),
                       gamma=gamma)


def reference_simulate(model, strategy, n_paths, seed):
    """A per-step loop over the stream in its order: one Exp(1) default clock
    per path, then one row of Gaussians per step; a live path defaults in
    the step whose cumulative hazard first exceeds its clock.  Scalar
    coefficient lookups and fresh temporaries per step."""
    g = model.grid
    n, dt = g.n_steps, g.dt
    times = g.times()
    gen = np.random.Generator(np.random.Philox(key=seed))
    sq = math.sqrt(dt)
    clock = gen.standard_exponential(n_paths)
    dW = np.empty((n_paths, n))
    n_path = np.zeros((n + 1, n_paths), dtype=np.int8)
    stock = np.empty((n + 1, n_paths))
    wealth = np.zeros((n + 1, n_paths))
    tau_step = np.full(n_paths, -1, dtype=np.int64)
    stock[0] = model.s0
    hazard = 0.0
    for i in range(n):
        t = float(times[i])
        dW[:, i] = gen.standard_normal(n_paths) * sq
        alive = n_path[i] == 0
        mu0, s0_, lam, beta0 = coeffs_in_force(model, t, 0)
        mu1, s1_, _, _ = coeffs_in_force(model, t, 1)
        hazard += lam * dt
        mu = np.where(alive, mu0, mu1)
        sig = np.where(alive, s0_, s1_)
        jumps = alive & (clock < hazard)
        tau_step[jumps] = i
        dN = jumps.astype(float)
        pi = strategy(t, stock[i], n_path[i])
        factor = np.exp(sig * dW[:, i] + (mu - 0.5 * sig * sig) * dt) * (1.0 + beta0 * dN)
        stock[i + 1] = stock[i] * factor
        wealth[i + 1] = wealth[i] + pi * (factor - 1.0)
        n_path[i + 1] = np.where(jumps, 1, n_path[i])
    return PathEnsemble(times=times, dW=dW, n_path=n_path.T, stock=stock.T,
                        wealth=wealth.T, tau_step=tau_step, seed=seed)


class TestValidate:
    def test_alpha_market_price_of_risk(self):
        rep = validate_model(flat_model())
        assert rep.ok
        # alpha = (mu + lam*beta) / sigma = (0.1 + 0.5*(-0.3)) / 0.2
        assert rep.alpha_pre[0][1] == pytest.approx(-0.25, abs=1e-15)

    def test_sigma_zero_reported_not_raised(self):
        rep = validate_model(flat_model(sigma=0.0))
        assert not rep.ok
        assert any("sigma must be positive" in v for v in rep.violations)

    def test_beta_at_minus_one(self):
        rep = validate_model(flat_model(beta=-1.0))
        assert any("beta must exceed -1" in v for v in rep.violations)

    def test_lambda_dt_bound(self):
        rep = validate_model(flat_model(lam=50.0, N=10))
        assert any("dt * max(lambda)" in v for v in rep.violations)

    def test_nan_fails_every_test_of_the_rule(self):
        model = flat_model(mu=math.nan, sigma=math.nan, beta=math.nan, lam=math.nan, N=10)
        got = coefficient_violations(model, model.grid)
        assert len(got) == 6 and all(v.endswith("at step 9 (t=0.9)") for v in got)

    def test_rule_names_the_latest_step_read(self):
        # sigma_pre = 0 on [0.3, 0.55): steps 3, 4, 5 of 10 read it, and t = 0.5 of a DP
        # on 4 steps; a single step at t = 0 does not
        model = flat_model(N=10)
        model = dataclasses.replace(model, coeffs=dataclasses.replace(
            model.coeffs, sigma_pre=PiecewiseConstant((0.0, 0.3, 0.55), (0.2, 0.0, 0.2))))
        assert coefficient_violations(model, model.grid) == [
            "sigma_pre: sigma must be positive at step 5 (t=0.5)"]
        assert coefficient_violations(model, TimeGrid(1.0, 4)) == [
            "sigma_pre: sigma must be positive at step 2 (t=0.5)"]
        assert coefficient_violations(model, TimeGrid(1.0, 1)) == []

    def test_value_read_at_no_step_time_is_no_violation(self):
        # sigma = 0 from t = T on: alpha there is reported as infinite, not flagged
        model = flat_model()
        model = dataclasses.replace(model, coeffs=dataclasses.replace(
            model.coeffs, sigma_pre=PiecewiseConstant((0.0, 1.0), (0.2, 0.0))))
        rep = validate_model(model)
        assert rep.ok and rep.alpha_pre[-1] == (1.0, math.inf)

    def test_gamma_and_s0(self):
        m = flat_model()
        rep = validate_model(MarketModel(grid=m.grid, coeffs=m.coeffs, gamma=-1.0, s0=0.0))
        assert any("gamma" in v for v in rep.violations)
        assert any("s0" in v for v in rep.violations)


class TestPiecewise:
    def test_lookup_is_right_open(self):
        pc = PiecewiseConstant((0.0, 0.5), (1.0, 2.0))
        assert pc(0.0) == 1.0
        assert pc(0.499999) == 1.0
        assert pc(0.5) == 2.0
        assert pc(0.9) == 2.0
        got = pc(np.array([0.0, 0.499999, 0.5, 0.9]))
        assert isinstance(got, np.ndarray) and got.tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_table_by_default_state(self):
        model = piecewise_model(7)
        c = model.coeffs
        fields = {(0, 0): c.mu_pre, (0, 1): c.sigma_pre, (0, 2): c.lam, (0, 3): c.beta,
                  (1, 0): c.mu_post, (1, 1): c.sigma_post}
        for (n, f), pc in fields.items():
            # right-open: a break takes the new value, the double below it the old
            breaks = np.array(pc.breaks[1:])
            assert c.table(breaks)[:, n, f].tolist() == list(pc.values[1:])
            below = np.nextafter(breaks, 0.0)
            assert c.table(below)[:, n, f].tolist() == list(pc.values[:-1])
        # mu_post switches at 0.6, between the grid times t_4 = 4/7 and t_5 = 5/7
        t4, t5 = model.grid.times()[4:6]
        assert c.table([t4, t5])[:, 1, 0].tolist() == [-0.1, 0.03]
        # past the last break, and at T and beyond, the last values hold
        tab = c.table([0.75, 1.0, 2.5])
        assert np.all(tab == tab[:1]) and tab[0].tolist() == [[0.2, 0.35, 2.5, 0.6],
                                                              [0.03, 0.15, 0.0, 0.0]]
        # the post-default regime has no further jump
        tab = c.table(model.grid.times())
        assert tab.shape == (8, 2, 4) and np.all(tab[:, 1, 2:] == 0.0)
        # the schemes' copy: the rows of t_0..t_{N-1}, looked up once, read-only
        assert np.array_equal(model.step_table, tab[:-1])
        assert model.step_table is model.step_table and not model.step_table.flags.writeable

    def test_unsorted_breaks_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseConstant((0.0, 0.5, 0.4), (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_break_rejected(self, t):
        with pytest.raises(ValueError, match="breaks must be finite"):
            PiecewiseConstant((0.0, t), (0.2, 0.3))


class TestTimeGrid:
    @pytest.mark.parametrize("horizon, n_steps, message", [
        (1.0, 10.5, "n_steps must be >= 1 and an integer, got 10.5"),
        (1.0, 0, "n_steps must be >= 1"),
        (math.inf, 10, "horizon must be positive and finite, got inf"),
        (math.nan, 10, "horizon must be positive and finite"),
        (0.0, 10, "horizon must be positive"),
    ])
    def test_rejected_before_any_time_is_built(self, horizon, n_steps, message):
        with pytest.raises(ValueError, match=message):
            TimeGrid(horizon, n_steps)

    def test_numpy_integer_steps(self):
        assert TimeGrid(1.0, np.int64(4)).times().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestSimulate:
    def test_zero_strategy_zero_wealth(self):
        ens = simulate_paths(flat_model(), lambda t, s, n: 0.0, 64, seed=1)
        assert np.all(ens.wealth == 0.0)

    def test_deterministic_drift_only(self):
        # sigma = 0, lam = 0: each step returns e^{mu dt} - 1, so X_T = N (e^{mu dt} - 1)
        # for pi = 1
        m = flat_model(mu=0.1, sigma=0.0, beta=0.0, lam=0.0, T=1.0, N=128)
        ens = simulate_paths(m, lambda t, s, n: 1.0, 8, seed=3)
        assert np.allclose(ens.wealth[:, -1], 128 * math.expm1(0.1 / 128), rtol=0.0, atol=1e-12)

    def test_default_fraction_matches_survival(self):
        lam, T = 0.2, 1.0
        m = flat_model(mu=0.05, sigma=0.2, beta=-0.4, lam=lam, T=T, N=50)
        n_paths = 100_000
        ens = simulate_paths(m, lambda t, s, n: 0.0, n_paths, seed=11)
        target = 1.0 - math.exp(-lam * T)
        se = math.sqrt(target * (1 - target) / n_paths)
        assert abs(ens.default_fraction() - target) <= 3 * se

    def test_no_defaults_without_intensity(self):
        ens = simulate_paths(flat_model(lam=0.0), lambda t, s, n: 0.0, 2000, seed=5)
        assert ens.default_fraction() == 0.0
        assert np.all(ens.tau_step == -1)

    def test_high_intensity_defaults(self):
        m = flat_model(lam=10.0, T=1.0, N=100)
        ens = simulate_paths(m, lambda t, s, n: 0.0, 10_000, seed=5)
        assert ens.default_fraction() > 0.99

    def test_stock_stays_positive(self):
        m = flat_model(mu=-0.3, sigma=0.8, beta=-0.95, lam=1.0, N=50)
        ens = simulate_paths(m, lambda t, s, n: 1.0, 5000, seed=9)
        assert np.all(ens.stock > 0.0)

    def test_single_nondecreasing_jump(self):
        ens = simulate_paths(flat_model(lam=2.0), lambda t, s, n: 0.0, 4000, seed=13)
        diffs = np.diff(ens.n_path.astype(int), axis=1)
        assert np.all(diffs >= 0)
        assert np.all(diffs.sum(axis=1) <= 1)

    def test_increments_mean_zero_variance_dt(self):
        m = flat_model(N=100)
        ens = simulate_paths(m, lambda t, s, n: 0.0, 20_000, seed=17)
        dt, size = m.grid.dt, ens.dW.size
        # Gaussian sample: SE of the mean is sqrt(dt/size), of the variance
        # sqrt(2/size)*dt
        assert abs(ens.dW.mean()) <= 3 * math.sqrt(dt / size)
        assert abs(ens.dW.var() - dt) <= 3 * math.sqrt(2.0 / size) * dt

    def test_different_seed_different_increments(self):
        m = flat_model(N=20)
        a = simulate_paths(m, lambda t, s, n: 0.0, 100, seed=21)
        b = simulate_paths(m, lambda t, s, n: 0.0, 100, seed=22)
        assert not np.any(a.dW == b.dW)

    def test_step_matches_log_normal_formula(self):
        # S_{i+1}/S_i = exp((mu - sigma^2/2) dt + sigma dW)(1 + beta dN), with
        # the post-default coefficients after the jump, and dX = pi dS/S
        m = MarketModel(grid=TimeGrid(1.0, 40),
                        coeffs=RegimeCoefficients.constant(mu=0.1, sigma=0.2, beta=-0.3,
                                                           lam=2.0, mu_post=-0.05,
                                                           sigma_post=0.4),
                        gamma=1.0)
        ens = simulate_paths(m, lambda t, s, n: 0.5, 300, seed=8)
        dt = m.grid.dt
        step = np.arange(40)
        tau = ens.tau_step[:, None]
        post = (tau >= 0) & (step > tau)
        dN = (step == tau).astype(float)
        mu, sig = np.where(post, -0.05, 0.1), np.where(post, 0.4, 0.2)
        ret = np.exp((mu - 0.5 * sig ** 2) * dt + sig * ens.dW) * (1.0 - 0.3 * dN) - 1.0
        assert np.any(ens.tau_step >= 0) and np.any(ens.tau_step < 0)
        assert np.allclose(ens.stock[:, 1:] / ens.stock[:, :-1] - 1.0, ret,
                           rtol=0.0, atol=1e-13)
        assert np.allclose(np.diff(ens.wealth, axis=1), 0.5 * ret, rtol=0.0, atol=1e-13)
        assert np.array_equal(ens.n_path[:, 1:], (post | (dN == 1.0)).astype(np.int8))

    def test_states_are_time_major(self):
        ens = simulate_paths(flat_model(N=10), lambda t, s, n: 0.0, 50, seed=3)
        assert ens.dW.shape == (50, 10) and ens.dW[:, 4].flags.c_contiguous
        for arr in (ens.n_path, ens.stock, ens.wealth):
            assert arr.shape == (50, 11)
            assert arr[:, 4].flags.c_contiguous

    @pytest.mark.parametrize("n_paths", [1061, 1])
    def test_equals_reference_loop(self, n_paths):
        # the clock-first draws and the in-place step reproduce the per-step
        # loop bit for bit, defaults and regime switches included
        model = piecewise_model()

        def strategy(t, s, n):
            return 0.7 * math.sin(5.0 * t) + 0.1 * np.log(s) - 0.3 * n

        got = simulate_paths(model, strategy, n_paths, seed=9)
        want = reference_simulate(model, strategy, n_paths, seed=9)
        if n_paths > 1:
            assert np.any(want.tau_step >= 0) and np.any(want.tau_step < 0)
        for name in ("dW", "n_path", "stock", "wealth", "tau_step"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name

    def test_default_clock_per_step_law(self):
        # lambda 1.0, then 0 on [0.2, 0.5), then 2.5: the defaults of step i
        # are binomial with the survival-weighted 1 - exp(-lambda_i dt), and
        # a step with lambda = 0 defaults no path at all
        model = piecewise_model(20)
        model = dataclasses.replace(model, coeffs=dataclasses.replace(
            model.coeffs, lam=PiecewiseConstant((0.0, 0.2, 0.5), (1.0, 0.0, 2.5))))
        n_paths = 50_000
        ens = simulate_paths(model, lambda t, s, n: 0.0, n_paths, seed=1)
        counts = np.bincount(ens.tau_step[ens.tau_step >= 0], minlength=20)
        lam = np.array([model.coeffs.lam(t) for t in model.grid.times()[:-1]])
        p = 1.0 - np.exp(-lam * model.grid.dt)
        q = np.concatenate([[1.0], np.cumprod(1.0 - p)[:-1]]) * p
        assert np.all(counts[lam == 0.0] == 0) and np.count_nonzero(lam == 0.0) == 6
        se = np.sqrt(n_paths * q * (1.0 - q))
        live = lam > 0.0
        assert np.all(np.abs(counts[live] - n_paths * q[live]) <= 3.0 * se[live])

    def test_default_after_step_32767(self):
        # the default step is held in a dtype sized to N: an int16 would wrap
        lam = PiecewiseConstant((0.0, 0.9), (0.0, 50.0))
        model = flat_model(N=40_000)
        model = dataclasses.replace(model, coeffs=dataclasses.replace(model.coeffs, lam=lam))
        ens = simulate_paths(model, lambda t, s, n: 0.0, 4, seed=3)
        hit = np.flatnonzero(ens.tau_step >= 0)
        assert hit.size and np.all(ens.tau_step[hit] > 36_000)
        for p in hit:
            tau = ens.tau_step[p]
            assert ens.n_path[p, tau] == 0 and ens.n_path[p, tau + 1] == 1
            assert ens.n_path[p].sum() == 40_000 - tau

    def test_memory_per_path_step(self):
        # dW and the three state arrays take 25 bytes per path-step, counted
        # over the N + 1 state rows; the clock, the default step and the
        # step's rows add under 32 bytes per path, and nothing else is held
        model = flat_model(N=50)
        n_paths = 20_000
        simulate_paths(model, lambda t, s, n: 0.5, 10, seed=1)  # one-time set-up, uncounted
        tracemalloc.start()
        try:
            simulate_paths(model, lambda t, s, n: 0.5, n_paths, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25 * n_paths * 51 + 32 * n_paths

    def test_rejects_zero_paths(self):
        with pytest.raises(ValueError):
            simulate_paths(flat_model(), lambda t, s, n: 0.0, 0, seed=1)

    def test_csv_columns(self, tmp_path):
        ens = simulate_paths(flat_model(N=4), lambda t, s, n: 0.0, 2, seed=2)
        out = tmp_path / "paths.csv"
        ens.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "path,step,t,W,N,S,X"
        assert len(lines) == 1 + 2 * 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[3]) == 0.0  # cumulative W starts at zero

    def test_csv_bytes_match_per_cell_format(self, tmp_path):
        # reference: one f-string per path-step, as the writer was first built
        ens = simulate_paths(flat_model(lam=3.0, N=8), lambda t, s, n: 0.5, 6, seed=4)
        assert np.any(ens.tau_step >= 0)
        W = np.concatenate([np.zeros((ens.n_paths, 1)), np.cumsum(ens.dW, axis=1)], axis=1)
        want = ["path,step,t,W,N,S,X\n"]
        for p in range(ens.n_paths):
            for i, t in enumerate(ens.times):
                want.append(f"{p},{i},{t:.12g},{W[p, i]:.12g},"
                            f"{int(ens.n_path[p, i])},{ens.stock[p, i]:.12g},"
                            f"{ens.wealth[p, i]:.12g}\n")
        out = tmp_path / "paths.csv"
        ens.to_csv(out)
        assert out.read_bytes() == "".join(want).encode()


class TestClaims:
    def test_constant(self):
        assert claim_payoff(Claim.constant(2.5), 1.7, 0) == 2.5
        assert claim_payoff(Claim.constant(2.5), 0.2, 1) == 2.5

    def test_default_indicator(self):
        c = Claim.default_indicator(1.0, 0.0)
        assert claim_payoff(c, 1.0, 0) == 1.0
        assert claim_payoff(c, 1.0, 1) == 0.0

    def test_stock_payoff_node_hit(self):
        s_nodes = tuple(np.exp(np.linspace(-1.0, 1.0, 41)))
        call = tuple(max(s - 1.0, 0.0) for s in s_nodes)
        c = Claim(s_nodes, (call, call))
        s_query = s_nodes[25]  # an exact table node
        assert claim_payoff(c, s_query, 0) == pytest.approx(s_query - 1.0, abs=1e-15)

    def test_stock_payoff_log_interpolation_and_clamp(self):
        c = Claim((1.0, math.e), ((0.0, 1.0), (5.0, 5.0)))
        assert claim_payoff(c, math.exp(0.5), 0) == pytest.approx(0.5, abs=1e-12)
        assert claim_payoff(c, 10.0, 0) == 1.0   # clamped above
        assert claim_payoff(c, 0.1, 0) == 0.0    # clamped below
        assert claim_payoff(c, 2.0, 1) == 5.0

    def test_bounds_and_flags(self):
        assert Claim.constant(-2.0).bounds() == (-2.0, -2.0)
        assert Claim.constant(-2.0).bounds()[0] < 0.0
        assert Claim.default_indicator(1.0, 0.0).bounds()[0] >= 0.0
        neg = Claim.default_indicator(1.0, 0.0).negated()
        assert neg.bounds() == (-1.0, 0.0)
        shifted = Claim.constant(1.0).shifted(0.5)
        assert shifted.values == ((1.5,), (1.5,))

    def test_merton_fixture_is_valid(self):
        assert validate_model(merton_model()).ok
