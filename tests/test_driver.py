import math

import numpy as np
import pytest

from defaultbsde import (CoeffSnapshot, StrategySet, f_pi, g_quadratic,
                         jump_comparison_bounds, lipschitz_bound, minimize_driver)


def snap(mu=0.0, sigma=1.0, lam=0.0, beta=0.0, gamma=1.0):
    return CoeffSnapshot(mu=mu, sigma=sigma, lam=lam, beta=beta, gamma=gamma)


def random_snapshot(rng):
    return CoeffSnapshot(mu=float(rng.uniform(-0.5, 0.5)),
                         sigma=float(rng.uniform(0.1, 2.0)),
                         lam=float(rng.uniform(0.0, 2.0)),
                         beta=float(rng.uniform(-0.9, 2.0)),
                         gamma=float(rng.uniform(0.2, 3.0)))


def random_state(rng):
    y = float(rng.uniform(0.05, 3.0))
    z = float(rng.uniform(-2.0, 2.0))
    u = float(rng.uniform(-0.999 * y, 3.0))
    return y, z, u


def df_dpi_terms(c, pi, y, z, u):
    """The three terms of d f_pi / d pi; they sum to zero at an interior argmin."""
    g = c.gamma
    return (g * g * c.sigma ** 2 * pi * y, -g * (c.mu * y + c.sigma * z),
            -g * c.lam * c.beta * math.exp(-g * c.beta * pi) * (y + u))


# (snapshot, k, y, z, u) for a scan over [-k, k]: one moderate case, then
# extreme ones with sigma = 0.1, gamma = 3, |z|/y = 40, where ln kappa lies far
# outside exp's range, beta is tiny, or y + u = 0 exactly (kappa = 0)
DENSE_SCAN_CASES = [(snap(mu=0.05, lam=0.3, beta=-0.4), 3.0, 1.0, 0.2, -0.1)] + [
    (snap(mu=0.05, sigma=0.1, lam=0.5, beta=beta, gamma=3.0), k, 1.0, z, u)
    for beta, k in ((-0.9, 3.0), (2.0, 3.0), (1e-8, 3.0), (-1e-8, 3.0),
                    (1e-8, 200.0), (-1e-8, 200.0))
    for z in (40.0, -40.0)
    for u in (0.5, -1.0)
]


class TestFPi:
    def test_zero_strategy_vanishes(self):
        c = snap(mu=0.3, sigma=0.7, lam=1.2, beta=0.5, gamma=2.0)
        assert f_pi(c, 0.0, 1.7, -0.3, 0.4) == 0.0

    def test_pure_quadratic_case(self):
        assert f_pi(snap(), 1.0, 2.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_jump_term(self):
        c = snap(lam=1.0, beta=1.0)
        expected = 0.5 - (1.0 - math.exp(-1.0))
        assert f_pi(c, 1.0, 1.0, 0.0, 0.0) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("lam, beta", [(0.0, 5.0), (0.7, 0.0), (0.0, 0.0), (0.7, -0.4)])
    def test_matches_full_formula_where_finite(self, lam, beta):
        # reference: the jump term evaluated always, zero or not
        c = snap(mu=0.1, sigma=0.2, lam=lam, beta=beta, gamma=1.3)
        rng = np.random.default_rng(5)
        pi, z = rng.uniform(-3.0, 3.0, (2, 200))
        y = rng.uniform(0.05, 3.0, 200)
        u = rng.uniform(-0.999 * y, 3.0)
        g = c.gamma
        want = (0.5 * g * g * pi * pi * c.sigma ** 2 * y - g * pi * (c.mu * y + c.sigma * z)
                - c.lam * (1.0 - np.exp(-g * pi * c.beta)) * (y + u))
        assert np.array_equal(f_pi(c, pi, y, z, u), want)

    def test_no_jump_term_without_jump_risk(self):
        # exp(-gamma pi beta) = exp(1000) overflows; lam = 0 makes the term 0,
        # not 0 * inf = NaN
        c = CoeffSnapshot(mu=0.1, sigma=0.2, lam=0.0, beta=5.0, gamma=1.0)
        assert f_pi(c, -200.0, 1.0, 0.0, 0.0) == pytest.approx(820.0, rel=1e-15)
        f, p = minimize_driver(c, StrategySet(-300.0, -200.0), 1.0, 0.0, 0.0)
        assert p == -200.0 and f == pytest.approx(820.0, rel=1e-15)


class TestMinimize:
    def test_interior_vertex(self):
        f, p = minimize_driver(snap(), StrategySet(-2, 2), 1.0, 1.0, 0.0)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert f == pytest.approx(-0.5, abs=1e-12)

    def test_boundary_clip(self):
        f, p = minimize_driver(snap(), StrategySet(-2, 0.5), 1.0, 1.0, 0.0)
        assert p == 0.5
        assert f == pytest.approx(-0.375, abs=1e-15)

    def test_dense_scan_oracle(self):
        # exhaustive grid scan of f over 1e6 + 1 equispaced strategies
        for c, k, y, z, u in DENSE_SCAN_CASES:
            pis = np.linspace(-k, k, 1_000_001)
            scan_min = float(np.min(f_pi(c, pis, y, z, u)))
            f, p = minimize_driver(c, StrategySet(-k, k), y, z, u)
            assert abs(f - scan_min) <= 1e-6, (c, k, z, u)
            assert -k <= p <= k, (c, k, z, u)

    def test_rejects_nonpositive_y(self):
        with pytest.raises(ValueError):
            minimize_driver(snap(), StrategySet(-1, 1), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            minimize_driver(snap(), StrategySet(-1, 1), -1.0, 0.0, 0.0)

    def test_rejects_negative_post_jump_value(self):
        with pytest.raises(ValueError):
            minimize_driver(snap(lam=0.5, beta=0.5), StrategySet(-1, 1), 1.0, 0.0, -1.5)

    def test_degenerate_single_point_set(self):
        c = snap(mu=0.2, lam=0.4, beta=0.3)
        f, p = minimize_driver(c, StrategySet(0.7, 0.7), 1.0, 0.1, 0.2)
        assert p == 0.7
        assert f == pytest.approx(float(f_pi(c, 0.7, 1.0, 0.1, 0.2)), rel=1e-14)

    def test_grid_mixed_active_nodes(self):
        # a node with y + u = 0 has kappa = 0 and lands on the vertex, the
        # others on a Lambert W shift of it; both must match the scalar op
        from defaultbsde.driver import minimize_driver_grid
        c = snap(mu=0.1, sigma=0.5, lam=1.0, beta=0.6)
        strat = StrategySet(-2.0, 2.0)
        y = np.array([1.0, 1.0, 2.0])
        z = np.array([0.3, -0.2, 0.1])
        u = np.array([-1.0, 0.5, -0.7])  # first node: y + u == 0 exactly
        f_vec, p_vec = minimize_driver_grid(c, strat, y, z, u)
        for i in range(3):
            f_s, p_s = minimize_driver(c, strat, float(y[i]), float(z[i]), float(u[i]))
            assert f_vec[i] == pytest.approx(f_s, rel=1e-12, abs=1e-14)
            assert p_vec[i] == pytest.approx(p_s, abs=1e-9)

    def test_dominance_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            c = random_snapshot(rng)
            lo, hi = sorted(rng.uniform(-4, 4, 2))
            strat = StrategySet(float(lo), float(hi))
            y, z, u = random_state(rng)
            fmin, p = minimize_driver(c, strat, y, z, u)
            pis = rng.uniform(lo, hi, 16)
            assert np.all(fmin <= f_pi(c, pis, y, z, u) + 1e-11 * (1 + abs(fmin)))
            if lo < p < hi:
                # the closed-form root zeroes the derivative up to rounding
                terms = df_dpi_terms(c, p, y, z, u)
                assert abs(sum(terms)) <= 1e-13 * sum(abs(t) for t in terms)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            c = random_snapshot(rng)
            lo, hi = sorted(rng.uniform(-4, 4, 2))
            strat = StrategySet(float(lo), float(hi))
            y, z, u = random_state(rng)
            t = float(rng.uniform(0.01, 100.0))
            f1, p1 = minimize_driver(c, strat, y, z, u)
            f2, p2 = minimize_driver(c, strat, t * y, t * z, t * u)
            scale = max(abs(t * f1), t * lipschitz_bound(c, strat) * (abs(y) + abs(z) + abs(u)))
            assert abs(f2 - t * f1) <= 1e-12 * max(scale, 1e-300)
            assert abs(p2 - p1) <= 1e-9 * (1.0 + strat.width)

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            c = random_snapshot(rng)
            lo, hi = sorted(rng.uniform(-4, 4, 2))
            strat = StrategySet(float(lo), float(hi))
            L = lipschitz_bound(c, strat)
            y1, z1, u1 = random_state(rng)
            y2, z2, u2 = random_state(rng)
            f1, _ = minimize_driver(c, strat, y1, z1, u1)
            f2, _ = minimize_driver(c, strat, y2, z2, u2)
            gap = abs(y1 - y2) + abs(z1 - z2) + abs(u1 - u2)
            assert abs(f1 - f2) <= L * gap + 1e-10 * (1 + abs(f1) + abs(f2))

    def test_jump_comparison_coefficient(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            c = random_snapshot(rng)
            lo, hi = sorted(rng.uniform(-4, 4, 2))
            c1, c2 = jump_comparison_bounds(c, StrategySet(float(lo), float(hi)))
            assert c1 > -1.0
            assert c2 >= c1


class TestGQuadratic:
    def test_zero_risk_premium(self):
        # mu + lam*beta = 0: both penalty terms vanish at pi = 0
        c = snap(mu=-0.5, sigma=1.3, lam=1.0, beta=0.5)
        assert g_quadratic(c, StrategySet(-2, 2), 0.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_complete_square_no_jump(self):
        c = snap(mu=1.0, sigma=1.0, lam=0.0, beta=0.0)
        assert g_quadratic(c, StrategySet(-2, 2), 0.0, 0.0) == pytest.approx(-0.5, abs=1e-12)

    def test_change_of_variables_identity(self):
        # Ito's formula for y = (1/gamma) log Y links the two drivers:
        #   f_min(y,z,u) = gamma*y*g(zs,us) + gamma*lam*y*us - z^2/(2y) - lam*u
        # with zs = z/(gamma y), us = (1/gamma) log(1+u/y).
        rng = np.random.default_rng(23)
        for _ in range(1000):
            c = random_snapshot(rng)
            lo, hi = sorted(rng.uniform(-4, 4, 2))
            strat = StrategySet(float(lo), float(hi))
            y, z, u = random_state(rng)
            fmin, _ = minimize_driver(c, strat, y, z, u)
            zs = z / (c.gamma * y)
            us = math.log1p(u / y) / c.gamma
            g = g_quadratic(c, strat, zs, us)
            rhs = c.gamma * y * g + c.gamma * c.lam * y * us - z * z / (2 * y) - c.lam * u
            scale = max(abs(fmin), abs(c.gamma * y * g), z * z / (2 * y) + abs(c.lam * u), 1.0)
            assert abs(fmin - rhs) <= 1e-8 * scale

    def test_matches_dense_scan(self):
        rng = np.random.default_rng(29)
        pis = np.linspace(-3.0, 3.0, 200_001)
        for _ in range(20):
            c = random_snapshot(rng)
            z, u = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
            theta = (c.mu + c.lam * c.beta) / c.sigma
            a = z + theta / c.gamma
            v = u - pis * c.beta
            pen = (0.5 * c.gamma * (pis * c.sigma - a) ** 2
                   + c.lam * (np.exp(c.gamma * v) - 1 - c.gamma * v) / c.gamma)
            scan = float(np.min(pen)) - theta * z - theta * theta / (2 * c.gamma)
            assert g_quadratic(c, StrategySet(-3, 3), z, u) == pytest.approx(scan, abs=1e-7)


class TestTypes:
    def test_snapshot_invariants(self):
        with pytest.raises(ValueError):
            CoeffSnapshot(mu=0.0, sigma=0.0, lam=0.0, beta=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            CoeffSnapshot(mu=0.0, sigma=1.0, lam=-0.1, beta=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            CoeffSnapshot(mu=0.0, sigma=1.0, lam=0.0, beta=-1.0, gamma=1.0)
        with pytest.raises(ValueError):
            CoeffSnapshot(mu=0.0, sigma=1.0, lam=0.0, beta=0.0, gamma=0.0)

    def test_strategy_set(self):
        with pytest.raises(ValueError):
            StrategySet(math.inf, 0.0)
        with pytest.raises(ValueError):
            StrategySet(1.0, -1.0)
        assert StrategySet.symmetric(2.0) == StrategySet(-2.0, 2.0)
        for k in (0.0, -2.0, math.nan, np.array([[1.0], [-1.0]])):
            with pytest.raises(ValueError, match="k must be positive"):
                StrategySet.symmetric(k)
        rows = StrategySet.symmetric(np.array([[0.5], [2.0]]))
        assert np.array_equal(rows.lo, [[-0.5], [-2.0]])
        with pytest.raises(ValueError):
            StrategySet(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
