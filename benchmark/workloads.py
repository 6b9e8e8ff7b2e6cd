"""The benchmark workloads: per-op configs and output checks.

Every op gets its own claim, so no two ops of a run share inputs.  The claim
parameters of op i are the point (u_i, v_i) of a two-dimensional Kronecker
sequence whose start comes from the run's seed: every run covers the claim
range evenly, so a median over its ops does not depend on the seed's luck.
The market and the numerics stay fixed within a workload, so every op does
the same amount of work.  The tolerances are the acceptance suite's
(criteria 2, 6 and 8); none is looser.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

PRICE_TOL = 5e-3      # acceptance criterion 2: buy/sell against the closed forms
DP_GAP_TOL = 2e-2     # acceptance criterion 6: solver vs brute-force DP
DRIFT_N_SE = 3.0      # acceptance criterion 8: drift within 3 standard errors
MC_SEED = 1           # acceptance criterion 8 pins the simulation seed as well

S_NODES = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
BOND_MARKET = {"mu": 0.1, "sigma": 0.2, "lambda": 0.1, "beta": 0.0}
JUMP_MARKET = {"mu": 0.05, "sigma": 0.25, "lambda": 0.3, "beta": -0.3}
GAMMA = 1.0
HORIZON = 1.0


# R2 sequence steps: 1/g and 1/g^2 for the plastic number g
_R2_STEPS = (0.7548776662466927, 0.5698402909980532)


def claim_point(seed: int, op: int) -> tuple[float, float]:
    """Point (u, v) in [0, 1)^2 that sets the claim of op ``op`` of a run."""
    start = random.Random(seed)
    return tuple((start.random() + op * step) % 1.0 for step in _R2_STEPS)


@dataclass
class OpResult:
    """Outcome of one op's output check."""

    ok: bool
    value_rel_err: float
    detail: str


def _model(market: dict, n_steps: int) -> dict:
    return {"T": HORIZON, "N": n_steps, "gamma": GAMMA, "s0": 1.0,
            "pre_default": dict(market),
            "post_default": {"mu": market["mu"], "sigma": market["sigma"]}}


def _put_claim(strike: float) -> dict:
    put = [max(strike - s, 0.0) for s in S_NODES]
    return {"variant": "stock_payoff", "s_nodes": S_NODES,
            "survive_values": put, "default_values": put}


def _read_price(outputs: dict) -> dict:
    with open(outputs["price_json"]) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- price-bond

def bond_config(u: float, v: float, outputs: dict) -> dict:
    return {
        "model": _model(BOND_MARKET, 100),
        "claim": {"variant": "default_indicator",
                  "pays_survival": 0.5 + u,
                  "pays_default": 0.5 * v},
        "numerics": {"M": 100, "quad_nodes": 7, "k0": 0.25, "tol_rel": 1e-6},
        "output": outputs,
    }


def bond_prices(cfg: dict) -> tuple[float, float]:
    """Closed-form buy and sell prices: beta = 0 makes default independent of S."""
    lam = cfg["model"]["pre_default"]["lambda"]
    a = cfg["claim"]["pays_survival"]
    b = cfg["claim"]["pays_default"]
    q = math.exp(-lam * HORIZON)
    buy = -math.log(q * math.exp(-GAMMA * a) + (1 - q) * math.exp(-GAMMA * b)) / GAMMA
    sell = math.log(q * math.exp(GAMMA * a) + (1 - q) * math.exp(GAMMA * b)) / GAMMA
    return buy, sell


def merton_j0(market: dict) -> float:
    theta = market["mu"] / market["sigma"]
    return math.exp(-0.5 * theta * theta * HORIZON)


def check_bond(cfg: dict, outputs: dict, stderr: str) -> OpResult:
    rep = _read_price(outputs)
    buy, sell = bond_prices(cfg)
    err_buy = abs(rep["buy_price"] - buy)
    err_sell = abs(rep["sell_price"] - sell)
    j0 = merton_j0(cfg["model"]["pre_default"])
    rel = abs(rep["J0_zero"] - j0) / j0
    return OpResult(err_buy < PRICE_TOL and err_sell < PRICE_TOL, rel,
                    f"|buy-closed|={err_buy:.3g} |sell-closed|={err_sell:.3g}")


# ----------------------------------------------------------------- oracle-mc

def oracle_config(u: float, v: float, outputs: dict) -> dict:
    return {
        "model": _model(JUMP_MARKET, 100),
        "claim": _put_claim(0.9 + 0.2 * u),
        "numerics": {"M": 100, "quad_nodes": 7, "k": 2.0},
        "oracle": {"N_small": 6, "q": 5, "G": 41, "n_paths": 20_000, "seed": MC_SEED},
        "output": outputs,
    }


_DP_LINE = re.compile(r"oracle: dp=(\S+) solver=(\S+)")
_DRIFT_LINE = re.compile(r"oracle: drift mean=(\S+) se=(\S+)")


def check_oracle(cfg: dict, outputs: dict, stderr: str) -> OpResult:
    """Reads the DP value, the solver value and the aggregate drift from stderr."""
    dp_m = _DP_LINE.search(stderr)
    drift_m = _DRIFT_LINE.search(stderr)
    if dp_m is None or drift_m is None:
        return OpResult(False, math.nan, "oracle diagnostics missing from stderr")
    dp, j0 = float(dp_m.group(1)), float(dp_m.group(2))
    mean, se = float(drift_m.group(1)), float(drift_m.group(2))
    gap = abs(dp - j0) / abs(dp)
    with open(outputs["drift_csv"]) as fh:
        rows = sum(1 for _ in fh) - 1
    ok = gap < DP_GAP_TOL and abs(mean) <= DRIFT_N_SE * se and rows == cfg["model"]["N"]
    return OpResult(ok, gap, f"dp_gap={gap:.3g} drift={mean:.3g} se={se:.3g} rows={rows}")


# ------------------------------------------------------------------ registry

@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    outputs: tuple[str, ...]
    make_config: Callable[[float, float, dict], dict]
    check: Callable[[dict, dict, str], OpResult]


WORKLOADS = {
    w.name: w for w in (
        Workload("price-bond", "price", ("price_json",), bond_config, check_bond),
        Workload("oracle-mc", "oracle", ("drift_csv",), oracle_config, check_oracle),
    )
}
