"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, not calibrated elsewhere.
"""
import json
import math

import numpy as np
import pytest

from defaultbsde import (CoeffSnapshot, StrategySet, brute_force_dp,
                         extract_optimal_strategy, f_pi, g_quadratic,
                         indifference_price, lipschitz_bound, martingale_check,
                         minimize_driver, solve_bsde, surface_at_origin)
from defaultbsde.cli import main

from conftest import (BOND_BUY, BOND_CLAIM, BOND_J0, MERTON_J0, PUT_1, ZERO_CLAIM,
                      bond_model, complete_model, merton_model, random_claim,
                      random_mild_model, solve_setup)


def check(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num}: {label}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {label} {suffix}"


def test_criterion_1_merton_closed_form():
    model = merton_model(200)
    space, quad = solve_setup(model, m_space=200)
    surf = solve_bsde(model, ZERO_CLAIM, StrategySet(-2, 2), space, quad)
    j0 = surface_at_origin(surf)
    err_j = abs(j0 - MERTON_J0)
    err_pi = float(np.max(np.abs(surf.pi_hat[:-1, 1:-1, :] - 1.0)))
    check(1, "Merton closed form", err_j < 1e-3 and err_pi < 1e-3,
          f"|J0-e^-1/2|={err_j:.2e}, max|pi-1|={err_pi:.2e}")


def test_criterion_2_defaultable_bond():
    model = bond_model(100)
    space, quad = solve_setup(model, m_space=100)
    surf = solve_bsde(model, BOND_CLAIM, StrategySet(-2, 2), space, quad)
    j0 = surface_at_origin(surf)
    rep = indifference_price(model, BOND_CLAIM, space, quad)
    err_j = abs(j0 - BOND_J0)
    err_p = abs(rep.buy_price - BOND_BUY)
    check(2, "defaultable bond value and price", err_j < 5e-3 and err_p < 5e-3,
          f"|J0-{BOND_J0:.6f}|={err_j:.2e}, |p-{BOND_BUY:.6f}|={err_p:.2e}")


def replication(claim, sigma: float, horizon: float, x: float = 0.0) -> tuple[float, float]:
    """(C, S dC/dS) at log S = x (s0 = 1) for a claim paid the same in both
    default states: C = E_Q[xi(S_T)], with log S_T ~ N(x - sigma^2 T/2,
    sigma^2 T) under Q (r = 0).  xi is linear in log S between its nodes and
    flat beyond them, so C and its log-price derivative are closed sums of
    Phi and phi terms, one per segment."""
    def cdf(d):
        return 0.5 * math.erfc(-d / math.sqrt(2.0))

    def pdf(d):
        return math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)

    xs, vs = [math.log(s) for s in claim.s_nodes], claim.values[0]
    mean, sd = x - 0.5 * sigma * sigma * horizon, sigma * math.sqrt(horizon)
    d = [(xk - mean) / sd for xk in xs]
    value, delta = vs[0] * cdf(d[0]) + vs[-1] * (1.0 - cdf(d[-1])), 0.0
    for k in range(len(xs) - 1):
        slope = (vs[k + 1] - vs[k]) / (xs[k + 1] - xs[k])
        mass = cdf(d[k + 1]) - cdf(d[k])
        value += (vs[k] + slope * (mean - xs[k])) * mass + slope * sd * (pdf(d[k]) - pdf(d[k + 1]))
        delta += slope * mass
    return value, delta


# The complete market: beta = 0, one (mu, sigma) before and after default, and
# a claim paid the same in both states.  Default then touches neither the stock
# nor the claim, so buy = sell = E_Q[xi] = 0.0957271 for the strike-1 put, and
# the buyer holds Merton's amount less the claim's delta,
# pi* = mu/(gamma sigma^2) - S dC/dS.  The claim is not flat in x, so these
# measure the interpolation in x, which criteria 1 and 2 do not.
COMPLETE_PRICE = replication(PUT_1, 0.25, 1.0)[0]


def complete_price_errors(n: int) -> tuple[float, float]:
    """(buy, sell) minus E_Q[xi] for the strike-1 put at N = M = n."""
    model = complete_model(n)
    space, quad = solve_setup(model, m_space=n)
    rep = indifference_price(model, PUT_1, space, quad)
    return rep.buy_price - COMPLETE_PRICE, rep.sell_price - COMPLETE_PRICE


def test_complete_market_price():
    assert abs(COMPLETE_PRICE - 0.0957271) < 5e-8
    buy, sell = complete_price_errors(100)
    assert abs(buy) <= 2e-4 and abs(sell) <= 2e-4, (buy, sell)


def test_complete_market_error_does_not_grow_with_the_grid():
    errors = np.abs([complete_price_errors(n) for n in (50, 100, 200, 400)])
    assert np.all(np.diff(errors, axis=0) <= 0.0), errors
    assert errors[-1, 1] <= 2e-6, errors  # the sell error at N = M = 400


def test_complete_market_strategy():
    model = complete_model(100)
    space, quad = solve_setup(model, m_space=100)
    surf = solve_bsde(model, PUT_1, StrategySet.symmetric(4.0), space, quad)
    strategy, merton = extract_optimal_strategy(surf), 0.05 / 0.25 ** 2
    err = max(abs(float(strategy(0.0, s, 0))
                  - (merton - replication(PUT_1, 0.25, 1.0, math.log(s))[1]))
              for s in (0.8, 0.9, 1.0, 1.1, 1.25))
    assert err <= 1e-3, err


def test_criterion_3_cash_translation():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(5):
        model = random_mild_model(rng, n_steps=50)
        claim = random_claim(rng)
        space, quad = solve_setup(model, m_space=40)
        base = indifference_price(model, claim, space, quad).buy_price
        for c in (-1.0, 0.5, 3.0):
            shifted = indifference_price(model, claim.shifted(c), space, quad).buy_price
            worst = max(worst, abs((shifted - base) - c))
    check(3, "cash translation p(xi+c)-p(xi)=c", worst < 1e-10, f"worst={worst:.2e}")


def test_criterion_4_monotone_k_approximation():
    from defaultbsde import k_sweep
    rng = np.random.default_rng(103)
    ks = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    violations = []
    for _ in range(10):
        model = random_mild_model(rng, n_steps=100)
        claim = random_claim(rng)
        space, quad = solve_setup(model, m_space=60)
        res = k_sweep(model, claim, space, quad, ks)
        violations.extend(res.monotone_violations)
    check(4, "monotone k-approximation on 10 random models", not violations,
          f"violations={violations!r}" if violations else "none beyond 1e-9+noise")


def test_criterion_5_bounds_and_terminal_exactness():
    rng = np.random.default_rng(107)
    cases = [(merton_model(200), ZERO_CLAIM, 200), (bond_model(100), BOND_CLAIM, 80)]
    for _ in range(3):
        claim = random_claim(rng)
        if claim.bounds()[0] < 0:
            claim = claim.shifted(-claim.bounds()[0])
        cases.append((random_mild_model(rng, n_steps=60), claim, 50))
    ok = True
    detail = []
    for model, claim, m_space in cases:
        space, quad = solve_setup(model, m_space=m_space)
        surf = solve_bsde(model, claim, StrategySet(-2, 2), space, quad)
        s_nodes = model.s0 * np.exp(space.nodes)
        terminal_exact = all(
            np.array_equal(surf.Y[-1, :, n],
                           np.exp(-model.gamma * np.asarray(claim.payoff(s_nodes, n),
                                                            dtype=float)))
            for n in (0, 1))
        in_bounds = bool(np.all(surf.Y > 0.0) and np.all(surf.Y <= 1.0 + 4e-16))
        ok = ok and terminal_exact and in_bounds
        detail.append(f"{claim!r}: bounds={in_bounds} terminal={terminal_exact}")
    check(5, "0 < Y <= 1 for xi >= 0, exact terminal slice", ok, "; ".join(detail))


def test_criterion_6_oracle_equivalence():
    quad7 = solve_setup(merton_model(1), m_space=4)[1]
    results = []
    for model_fn, claim in ((merton_model, ZERO_CLAIM), (bond_model, BOND_CLAIM)):
        gaps = []
        for n_time, m_space, (ns, q, g) in (((200), 200, (8, 7, 81)),
                                            ((400), 400, (10, 9, 101))):
            model = model_fn(n_time)
            space, _ = solve_setup(model, m_space=m_space)
            j = surface_at_origin(solve_bsde(model, claim, StrategySet(-2, 2),
                                             space, quad7))
            dp = brute_force_dp(model, claim, k=2.0, n_small=ns, q=q, g=g)
            gaps.append(abs(j - dp) / abs(dp))
        coarse, fine = gaps
        shrinks = fine < coarse or coarse < 1e-6  # both at rounding level: no signal
        results.append((coarse, fine, shrinks))
    ok = all(c < 2e-2 and s for c, _, s in results)
    check(6, "solver vs brute-force DP within 2e-2, gap shrinks", ok,
          ", ".join(f"coarse={c:.2e} fine={f:.2e}" for c, f, _ in results))


def test_criterion_7_driver_properties():
    rng = np.random.default_rng(109)
    n_snaps = 10_000
    dominance_ok = homogeneity_ok = lipschitz_ok = identity_ok = True
    for _ in range(n_snaps):
        c = CoeffSnapshot(mu=float(rng.uniform(-0.5, 0.5)),
                          sigma=float(rng.uniform(0.1, 2.0)),
                          lam=float(rng.uniform(0.0, 2.0)),
                          beta=float(rng.uniform(-0.9, 2.0)),
                          gamma=float(rng.uniform(0.2, 3.0)))
        lo, hi = sorted(rng.uniform(-4.0, 4.0, 2))
        strat = StrategySet(float(lo), float(hi))
        y = float(rng.uniform(0.05, 3.0))
        z = float(rng.uniform(-2.0, 2.0))
        u = float(rng.uniform(-0.999 * y, 3.0))
        fmin, _ = minimize_driver(c, strat, y, z, u)

        pi = float(rng.uniform(lo, hi))
        if fmin > float(f_pi(c, pi, y, z, u)) + 1e-11 * (1 + abs(fmin)):
            dominance_ok = False

        t = float(rng.uniform(0.01, 100.0))
        f_t, _ = minimize_driver(c, strat, t * y, t * z, t * u)
        scale_h = max(abs(t * fmin),
                      t * lipschitz_bound(c, strat) * (abs(y) + abs(z) + abs(u)))
        if abs(f_t - t * fmin) > 1e-12 * max(scale_h, 1e-300):
            homogeneity_ok = False

        y2 = float(rng.uniform(0.05, 3.0))
        z2 = float(rng.uniform(-2.0, 2.0))
        u2 = float(rng.uniform(-0.999 * y2, 3.0))
        f2, _ = minimize_driver(c, strat, y2, z2, u2)
        L = lipschitz_bound(c, strat)
        gap = abs(y - y2) + abs(z - z2) + abs(u - u2)
        if abs(fmin - f2) > L * gap + 1e-10 * (1 + abs(fmin) + abs(f2)):
            lipschitz_ok = False

        # Ito change of variables (see test_driver for the derivation):
        # f_min = gamma*y*g(zs,us) + gamma*lam*y*us - z^2/(2y) - lam*u
        zs = z / (c.gamma * y)
        us = math.log1p(u / y) / c.gamma
        g = g_quadratic(c, strat, zs, us)
        rhs = c.gamma * y * g + c.gamma * c.lam * y * us - z * z / (2 * y) - c.lam * u
        scale_i = max(abs(fmin), abs(c.gamma * y * g),
                      z * z / (2 * y) + abs(c.lam * u), 1.0)
        if abs(fmin - rhs) > 1e-8 * scale_i:
            identity_ok = False

    ok = dominance_ok and homogeneity_ok and lipschitz_ok and identity_ok
    check(7, f"driver properties on {n_snaps} random snapshots", ok,
          f"dominance={dominance_ok} homogeneity={homogeneity_ok} "
          f"lipschitz={lipschitz_ok} identity={identity_ok}")


def test_criterion_8_optimality_drift():
    results = []
    for model, claim, m_space in ((merton_model(200), ZERO_CLAIM, 100),
                                  (bond_model(100), BOND_CLAIM, 80)):
        space, quad = solve_setup(model, m_space=m_space)
        surf = solve_bsde(model, claim, StrategySet(-2, 2), space, quad)
        drift = martingale_check(model, claim, surf, extract_optimal_strategy(surf),
                                 10_000, seed=1)
        results.append(drift)
    merton_surf_model = merton_model(200)
    space, quad = solve_setup(merton_surf_model, m_space=100)
    surf = solve_bsde(merton_surf_model, ZERO_CLAIM, StrategySet(-2, 2), space, quad)
    zero_drift = martingale_check(merton_surf_model, ZERO_CLAIM, surf,
                                  lambda t, s, n: 0.0, 10_000, seed=1)
    optimal_ok = all(d.within(3.0) for d in results)
    zero_ok = zero_drift.aggregate_mean > 3.0 * zero_drift.aggregate_se
    check(8, "optimal strategy drift within 3 SE, zero strategy submartingale",
          optimal_ok and zero_ok,
          f"optimal ratios={[abs(d.aggregate_mean)/d.aggregate_se for d in results]}, "
          f"zero drift={zero_drift.aggregate_mean:.3e}")


def test_criterion_9_determinism(tmp_path):
    def run(tag: str, threads: int) -> bytes:
        out = tmp_path / f"price_{tag}.json"
        cfg = tmp_path / f"cfg_{tag}.json"
        cfg.write_text(json.dumps({
            "model": {"T": 1.0, "N": 100, "gamma": 1.0, "s0": 1.0,
                      "pre_default": {"mu": 0.0, "sigma": 0.2, "lambda": 0.1,
                                      "beta": 0.0}},
            "claim": {"variant": "default_indicator", "pays_survival": 1.0,
                      "pays_default": 0.0},
            "numerics": {"M": 60, "quad_nodes": 7, "k0": 0.25, "tol_rel": 1e-6},
            "oracle": {"seed": 7},
            "output": {"price_json": str(out)},
        }))
        assert main(["price", str(cfg), "--threads", str(threads)]) == 0
        return out.read_bytes()

    runs = [run("t1a", 1), run("t8", 8), run("t1b", 1)]
    ok = runs[0] == runs[1] == runs[2]
    check(9, "price byte-identical across runs and thread counts", ok)
