import math
import tracemalloc

import numpy as np
import pytest

from defaultbsde import (Constant, DefaultIndicator, MarketModel, PathEnsemble,
                         PiecewiseConstant, RegimeCoefficients, StockPayoff, TimeGrid,
                         claim_payoff, simulate_paths, validate_model)
from defaultbsde.model import DW_CLIP, _DRAW_CHUNK, _on_times

from conftest import merton_model, piecewise_model


def flat_model(mu=0.1, sigma=0.2, beta=-0.3, lam=0.5, gamma=1.0, T=1.0, N=100):
    return MarketModel(grid=TimeGrid(T, N),
                       coeffs=RegimeCoefficients.constant(mu=mu, sigma=sigma,
                                                          beta=beta, lam=lam),
                       gamma=gamma)


def reference_simulate(model, strategy, n_paths, seed):
    """The path-major step loop that simulate_paths replaced: one path-major
    draw, two coefficient lookups and fresh temporaries per step."""
    g = model.grid
    n, dt = g.n_steps, g.dt
    times = g.times()
    gen = np.random.Generator(np.random.Philox(key=seed))
    sq = math.sqrt(dt)
    dW = gen.standard_normal((n_paths, n))
    dW *= sq
    np.clip(dW, -DW_CLIP * sq, DW_CLIP * sq, out=dW)
    c = model.coeffs
    p_def = np.array([1.0 - math.exp(-lam * dt) for lam in _on_times(c.lam, times[:-1])])
    hits = gen.random((n_paths, n)).T < p_def[:, None]
    n_path = np.zeros((n + 1, n_paths), dtype=np.int8)
    stock = np.empty((n + 1, n_paths))
    wealth = np.zeros((n + 1, n_paths))
    tau_step = np.full(n_paths, -1, dtype=np.int64)
    stock[0] = model.s0
    for i in range(n):
        t = float(times[i])
        alive = n_path[i] == 0
        mu0, s0_, _, beta0 = c.at(t, defaulted=False)
        mu1, s1_, _, _ = c.at(t, defaulted=True)
        mu = np.where(alive, mu0, mu1)
        sig = np.where(alive, s0_, s1_)
        jumps = alive & hits[i]
        tau_step[jumps] = i
        dN = jumps.astype(float)
        pi = strategy(t, stock[i], n_path[i])
        ret = (1.0 + mu * dt + sig * dW[:, i]) * (1.0 + beta0 * dN) - 1.0
        stock[i + 1] = stock[i] * (1.0 + ret)
        wealth[i + 1] = wealth[i] + pi * ret
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

    def test_unsorted_breaks_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseConstant((0.0, 0.5, 0.4), (1.0, 2.0, 3.0))


class TestSimulate:
    def test_zero_strategy_zero_wealth(self):
        ens = simulate_paths(flat_model(), lambda t, s, n: 0.0, 64, seed=1)
        assert np.all(ens.wealth == 0.0)

    def test_deterministic_drift_only(self):
        # sigma -> 0, lam = 0: X_T = mu * T for pi = 1
        m = flat_model(mu=0.1, sigma=0.0, beta=0.0, lam=0.0, T=1.0, N=128)
        ens = simulate_paths(m, lambda t, s, n: 1.0, 8, seed=3)
        assert np.allclose(ens.wealth[:, -1], 0.1, atol=1e-12)

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

    def test_thread_count_invariance(self):
        m = flat_model()
        a = simulate_paths(m, lambda t, s, n: 0.5, 500, seed=21, n_threads=1)
        b = simulate_paths(m, lambda t, s, n: 0.5, 500, seed=21, n_threads=4)
        for x, y in ((a.dW, b.dW), (a.stock, b.stock), (a.wealth, b.wealth),
                     (a.n_path, b.n_path), (a.tau_step, b.tau_step)):
            assert np.array_equal(x, y)

    def test_increments_mean_zero_variance_dt(self):
        m = flat_model(N=100)
        ens = simulate_paths(m, lambda t, s, n: 0.0, 20_000, seed=17)
        dt, size = m.grid.dt, ens.dW.size
        # Gaussian sample: SE of the mean is sqrt(dt/size), of the variance
        # sqrt(2/size)*dt; truncation at 6 sqrt(dt) shifts neither visibly
        assert abs(ens.dW.mean()) <= 3 * math.sqrt(dt / size)
        assert abs(ens.dW.var() - dt) <= 3 * math.sqrt(2.0 / size) * dt

    def test_different_seed_different_increments(self):
        m = flat_model(N=20)
        a = simulate_paths(m, lambda t, s, n: 0.0, 100, seed=21)
        b = simulate_paths(m, lambda t, s, n: 0.0, 100, seed=22)
        assert not np.any(a.dW == b.dW)

    def test_step_matches_euler_formula(self):
        # S_{i+1}/S_i = (1 + mu dt + sigma dW)(1 + beta dN), with the
        # post-default coefficients after the jump, and dX = pi dS/S
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
        ret = (1.0 + mu * dt + sig * ens.dW) * (1.0 - 0.3 * dN) - 1.0
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

    @pytest.mark.parametrize("n_paths", [2 * _DRAW_CHUNK + 37, 1])
    def test_equals_reference_loop(self, n_paths):
        # chunked time-major draws and the in-place step reproduce the
        # path-major loop bit for bit, defaults and regime switches included
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

    def test_memory_per_path_step(self):
        # states, dW and the default table take 26 bytes per path-step; a
        # transposed copy of the whole Gaussian block would add 8 more
        model = flat_model(N=50)
        n_paths = 20_000
        simulate_paths(model, lambda t, s, n: 0.5, 10, seed=1)  # one-time set-up, uncounted
        tracemalloc.start()
        try:
            simulate_paths(model, lambda t, s, n: 0.5, n_paths, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * n_paths * 50

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
        assert claim_payoff(Constant(2.5), 1.7, 0) == 2.5
        assert claim_payoff(Constant(2.5), 0.2, 1) == 2.5

    def test_default_indicator(self):
        c = DefaultIndicator(1.0, 0.0)
        assert claim_payoff(c, 1.0, 0) == 1.0
        assert claim_payoff(c, 1.0, 1) == 0.0

    def test_stock_payoff_node_hit(self):
        s_nodes = tuple(np.exp(np.linspace(-1.0, 1.0, 41)))
        call = tuple(max(s - 1.0, 0.0) for s in s_nodes)
        c = StockPayoff(s_nodes, call, call)
        s_query = s_nodes[25]  # an exact table node
        assert claim_payoff(c, s_query, 0) == pytest.approx(s_query - 1.0, abs=1e-15)

    def test_stock_payoff_log_interpolation_and_clamp(self):
        c = StockPayoff((1.0, math.e), (0.0, 1.0), (5.0, 5.0))
        assert claim_payoff(c, math.exp(0.5), 0) == pytest.approx(0.5, abs=1e-12)
        assert claim_payoff(c, 10.0, 0) == 1.0   # clamped above
        assert claim_payoff(c, 0.1, 0) == 0.0    # clamped below
        assert claim_payoff(c, 2.0, 1) == 5.0

    def test_bounds_and_flags(self):
        assert Constant(-2.0).bounds() == (-2.0, -2.0)
        assert not Constant(-2.0).nonnegative
        assert DefaultIndicator(1.0, 0.0).nonnegative
        neg = DefaultIndicator(1.0, 0.0).negated()
        assert neg.bounds() == (-1.0, 0.0)
        shifted = Constant(1.0).shifted(0.5)
        assert shifted.value == 1.5

    def test_merton_fixture_is_valid(self):
        assert validate_model(merton_model()).ok
