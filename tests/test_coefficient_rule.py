"""One coefficient rule for every command: a property test over generated configs.

Each config puts a piece [b1, b2) into one or two coefficients.  Its ends
fall on step times, between step times and on the DP's times i T / N_small,
and its value is a good one or one that breaks the rule: sigma <= 0,
beta <= -1, lambda < 0, lambda dt >= 1, a sigma or mu that makes the DP
tree's Euler factor nonpositive, NaN or infinity.  The verdict comes from
`rejects`, a loop over the times that reads each PiecewiseConstant by a scalar call
(`conftest.coeffs_in_force`), not through `RegimeCoefficients.table`.
"""
import json
import math
import re

import numpy as np
import pytest

from defaultbsde import (MarketModel, PiecewiseConstant, Quadrature, RegimeCoefficients,
                         TimeGrid, cli, oracle, solver)
from defaultbsde.cli import main

from conftest import coeffs_in_force

T, N, N_SMALL, Q, QUAD_NODES = 1.0, 10, 3, 3, 7
STEPS, DP = TimeGrid(T, N), TimeGrid(T, N_SMALL)
# break candidates: on step times, half-way between them, on the DP's times
BREAKS = sorted({*STEPS.times()[1:-1].tolist(),
                 *(0.5 * (STEPS.times()[1:] + STEPS.times()[:-1])).tolist(),
                 *DP.times()[1:-1].tolist()})
GOOD = {"mu": (-0.2, 0.2), "sigma": (0.1, 0.4), "beta": (-0.5, 0.5), "lambda": (0.0, 2.0)}
# sigma 0.8 is valid at the step times, where the moves are exact, and for the
# DP; 1.5 and mu = -5 break the DP tree's Euler factor; lambda = 5 breaks
# lambda dt < 1 at the DP's dt only
BAD = {"mu": (math.nan, math.inf, -5.0, -20.0),
       "sigma": (0.0, -0.2, 0.8, 1.5, math.nan, math.inf),
       "beta": (-1.0, -1.5, math.nan),
       "lambda": (-0.5, 5.0, 15.0, math.nan)}
SLOTS = [("pre_default", "mu"), ("pre_default", "sigma"), ("pre_default", "beta"),
         ("pre_default", "lambda"), ("post_default", "mu"), ("post_default", "sigma")]
PUT = {"variant": "stock_payoff", "s_nodes": [0.5, 1.0, 2.0],
       "survive_values": [0.5, 0.0, 0.0], "default_values": [0.4, 0.0, 0.0]}
CLAIMS = [{"variant": "constant", "value": 0.3},
          {"variant": "default_indicator", "pays_survival": 1.0, "pays_default": 0.2}, PUT]
COEFFICIENT_MESSAGE = re.compile(r"must be finite|sigma must be positive|beta must exceed"
                                 r"|lambda must be nonnegative|dt \* max\(lambda\)|Euler factor")


def generate(rng: np.random.Generator) -> dict:
    """A config whose coefficients are flat and good but for one or two pieces."""
    model = {"T": T, "N": N, "gamma": 1.0, "pre_default": {}, "post_default": {}}
    for block, key in SLOTS:
        model[block][key] = float(rng.uniform(*GOOD[key]))
    for s in rng.choice(len(SLOTS), size=rng.integers(1, 3), replace=False):
        block, key = SLOTS[s]
        if rng.random() < 0.3:  # a piece that only the DP's time at its start reads
            i = int(rng.integers(len(DP.times()) - 2)) + 1
            b1 = float(DP.times()[i])
            b2 = BREAKS[BREAKS.index(b1) + 1]
        else:
            b1, b2 = sorted(rng.choice(BREAKS + [T], size=2, replace=False).tolist())
        value = (float(rng.choice(BAD[key])) if rng.random() < 0.7
                 else float(rng.uniform(*GOOD[key])))
        model[block][key] = [[0.0, model[block][key]], [b1, value], [b2, model[block][key]]]
    return {"model": model, "claim": CLAIMS[int(rng.integers(len(CLAIMS)))],
            "numerics": {"M": 20, "quad_nodes": QUAD_NODES},
            "oracle": {"N_small": N_SMALL, "q": Q, "G": 5, "n_paths": 1000}}


_RNG = np.random.default_rng(20260)
CONFIGS = [generate(_RNG) for _ in range(240)]


def model_of(raw: dict) -> MarketModel:
    """The config's model, built without the CLI loader."""
    m = raw["model"]

    def pc(v):
        return (PiecewiseConstant(tuple(b for b, _ in v), tuple(x for _, x in v))
                if isinstance(v, list) else PiecewiseConstant.flat(v))

    pre, post = m["pre_default"], m["post_default"]
    coeffs = RegimeCoefficients(mu_pre=pc(pre["mu"]), sigma_pre=pc(pre["sigma"]),
                                mu_post=pc(post["mu"]), sigma_post=pc(post["sigma"]),
                                beta=pc(pre["beta"]), lam=pc(pre["lambda"]))
    return MarketModel(TimeGrid(m["T"], m["N"]), coeffs, m["gamma"])


def rejects(model: MarketModel, grid: TimeGrid, shock: float | None) -> bool:
    """Whether a coefficient read at a time t_0..t_{n-1} of ``grid`` breaks the
    rule: finite values, sigma > 0, beta > -1, lambda >= 0, lambda dt < 1 and,
    given ``shock``, the DP stock tree's largest move, a positive Euler factor,
    in both regimes."""
    dt = grid.dt
    for t in grid.times()[:-1].tolist():
        for n in (0, 1):
            mu, sigma, lam, beta = coeffs_in_force(model, t, n)
            ok = (all(math.isfinite(v) for v in (mu, sigma, lam, beta))
                  and sigma > 0 and beta > -1 and lam >= 0 and lam * dt < 1
                  and (shock is None or 1.0 + mu * dt - sigma * math.sqrt(dt) * shock > 0))
            if not ok:
                return True
    return False


def dp_shock(raw: dict) -> float | None:
    """The largest q-node move of the DP's stock tree, which only a claim that
    depends on S builds."""
    return float(Quadrature.gauss_hermite(Q).nodes.max()) if raw["claim"] is PUT else None


def run_config(tmp_path, raw, subcommand):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return main([subcommand, str(path)])


def test_generated_configs_cover_every_case():
    verdicts = [(rejects(model_of(raw), STEPS, None),
                 rejects(model_of(raw), DP, dp_shock(raw))) for raw in CONFIGS]
    assert sum(s for s, _ in verdicts) >= 40          # rejected at the step times
    assert sum(not s for s, _ in verdicts) >= 40      # read as valid there
    assert sum(d and not s for s, d in verdicts) >= 10  # rejected at the DP's times only
    pieces = [v for raw in CONFIGS for block in ("pre_default", "post_default")
              for v in raw["model"][block].values() if isinstance(v, list)]
    starts = {p[1][0] for p in pieces}
    assert starts & set(STEPS.times().tolist()) and starts & set(DP.times().tolist())
    assert starts - set(STEPS.times().tolist()) - set(DP.times().tolist())
    values = [p[1][1] for p in pieces]
    for bad in (0.0, -0.2, -1.0, -0.5, 15.0, 0.8, 1.5, -5.0):
        assert bad in values
    assert any(math.isnan(v) for v in values) and math.inf in values


def test_validate_rejects_what_the_step_times_break(tmp_path, capsys):
    wrong = []
    for c, raw in enumerate(CONFIGS):
        code = run_config(tmp_path, raw, "validate")
        out = capsys.readouterr().out
        if out:  # the loader's rejections write no report
            json.loads(out, parse_constant=pytest.fail)  # strict JSON
        if (code == 2) != rejects(model_of(raw), STEPS, None):
            wrong.append((c, code))
    assert wrong == []


def test_solve_never_fails_on_a_coefficient_after_validate(tmp_path, capsys):
    wrong = []
    for c, raw in enumerate(CONFIGS):
        valid = run_config(tmp_path, raw, "validate") == 0
        capsys.readouterr()
        if not valid:
            continue
        code = run_config(tmp_path, raw, "solve")
        err = capsys.readouterr().err
        if code != 0 and (code != 3 or COEFFICIENT_MESSAGE.search(err)):
            wrong.append((c, code, err))
    assert wrong == []


class WorkStarted(Exception):
    pass


def test_oracle_rejects_before_work_what_any_of_its_times_break(tmp_path, capsys,
                                                                monkeypatch):
    real_dp, real_solve, dp_runs = oracle.brute_force_dp, cli.solve_bsde, []

    def dp_then_stop(*args, **kwargs):
        dp_runs.append(real_dp(*args, **kwargs))  # raises on the DP's own check
        raise WorkStarted

    def no_work(*args, **kwargs):
        raise WorkStarted

    def checks_then_skip(*args, **kwargs):
        # the solve runs first and checks its own inputs; its first step is work
        try:
            real_solve(*args, **kwargs)
        except WorkStarted:
            return None
        raise AssertionError("the solve took no step")

    monkeypatch.setattr(cli, "brute_force_dp", dp_then_stop)
    monkeypatch.setattr(cli, "solve_bsde", checks_then_skip)
    monkeypatch.setattr(solver, "_step", no_work)
    monkeypatch.setattr(oracle, "simulate_paths", no_work)
    wrong = []
    for c, raw in enumerate(CONFIGS):
        model = model_of(raw)
        bad = rejects(model, STEPS, None) or rejects(model, DP, dp_shock(raw))
        try:
            code = run_config(tmp_path, raw, "oracle")
        except WorkStarted:
            code = None
        err = capsys.readouterr().err
        if (code == 2) != bad or (code is None) == bad:
            wrong.append((c, code, err))
    assert wrong == []
    assert len(dp_runs) == sum(not (rejects(model_of(raw), STEPS, None)
                                    or rejects(model_of(raw), DP, dp_shock(raw)))
                               for raw in CONFIGS)
