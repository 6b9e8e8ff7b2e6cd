import math

import numpy as np
import pytest

from defaultbsde import (Constant, NonConvergenceError, converge, k_sweep,
                         surface_at_origin)

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
