"""Batch front-end: JSON config in, CSV/JSON reports out.

Subcommands:
    validate   model checks only (JSON report)
    solve      one BSDE solve at numerics.k (surface CSV)
    converge   k-doubling sweep (CSV: k,J0)
    price      indifference price report (JSON)
    oracle     brute-force DP + martingale drift check (drift CSV)

Exit codes: 0 success, 2 an InputError (found before any work), 3 numerical
failure, 4 I/O error.  Diagnostics go to stderr; machine output goes only to
the declared output files or stdout.  The work rejects its own inputs:
`oracle` checks only its DP and Monte Carlo inputs up front, then solves,
and the solver checks its own before any work.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from .approx import (NonConvergenceError, check_doubling, check_schedule, converge,
                     k_sweep)
from .driver import StrategySet
from .model import (Claim, InputError, MarketModel, PiecewiseConstant, RegimeCoefficients,
                    TimeGrid, validate_model)
from .oracle import (DPTree, brute_force_dp, dp_violations, martingale_check,
                     monte_carlo_violation)
from .pricing import PriceReport, indifference_price
from .solver import (Quadrature, SolverError, SpaceGrid, extract_optimal_strategy,
                     pass_inputs, solve_bsde, surface_at_origin)

__all__ = ["RunConfig", "run", "emit_report", "main"]


@dataclass
class RunConfig:
    """Resolved run configuration (model, claim, numerics, oracle, outputs)."""

    model: MarketModel
    claim: Claim
    space: SpaceGrid
    quad: Quadrature
    k: float
    k0: float
    tol_rel: float
    ks: list[float]
    n_small: int
    q: int
    g: int
    n_paths: int
    seed: int
    output: dict = field(default_factory=dict)


def _block(block, where: str, required, optional=()) -> dict:
    """``block``, once it is an object with every key of ``required`` and no key
    outside ``required`` and ``optional``: a key that the loader does not read
    is rejected, never silently ignored."""
    if not isinstance(block, dict):
        raise InputError(f"config: {where} must be a JSON object")
    extra = sorted(set(block) - set(required) - set(optional))
    if extra:
        raise InputError(f"config: {where}: unknown keys {extra}")
    for key in required:
        if key not in block:
            raise InputError(f"config: missing '{key}' in {where}")
    return block


def _number(kind, raw, key: str, where: str):
    """``raw`` converted by int or float; a value that is no number, or an int
    key's value with a fractional part (20.7, where 20.0 passes), names its key."""
    if kind is int and isinstance(raw, int):
        return int(raw)
    try:
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"config: '{key}' in {where} must be a number, got {raw!r}") from exc
    if kind is int and not value.is_integer():
        raise InputError(f"config: '{key}' in {where} must be an integer, got {raw!r}")
    return kind(value)


def _coefficient(raw, name: str) -> PiecewiseConstant:
    if isinstance(raw, (int, float)):
        return PiecewiseConstant.flat(float(raw))
    if isinstance(raw, list) and all(isinstance(p, list) and len(p) == 2 for p in raw):
        try:
            return PiecewiseConstant(tuple(float(p[0]) for p in raw),
                                     tuple(float(p[1]) for p in raw))
        except (TypeError, ValueError) as exc:
            raise InputError(f"config: coefficient '{name}': {exc}") from exc
    raise InputError(f"config: coefficient '{name}' must be a number or [[t, value], ...]")


def _floats(raw) -> tuple:
    return tuple(float(v) for v in raw)


# per claim variant: the builder, the conversion of each field, the fields in argument order
CLAIMS = {
    "constant": (Claim.constant, float, ("value",)),
    "default_indicator": (Claim.default_indicator, float, ("pays_survival", "pays_default")),
    "stock_payoff": (lambda s_nodes, *rows: Claim(s_nodes, rows), _floats,
                     ("s_nodes", "survive_values", "default_values")),
}


def _build_claim(block) -> Claim:
    variant = block.get("variant") if isinstance(block, dict) else None
    if not isinstance(variant, str) or variant not in CLAIMS:
        raise InputError(f"config: claim 'variant' must be one of {list(CLAIMS)}, "
                         f"got {variant!r}")
    kind, convert, fields = CLAIMS[variant]
    _block(block, f"claim ({variant})", fields, ("variant",))
    try:
        return kind(*(convert(block[key]) for key in fields))
    except (TypeError, ValueError) as exc:
        raise InputError(f"config: claim: {exc}") from exc


def load_config(raw: dict) -> RunConfig:
    """Validate the configuration dict and build the run objects."""
    _block(raw, "top level", ("model", "claim"), ("numerics", "oracle", "output"))
    mb = _block(raw["model"], "model", ("T", "N", "gamma", "pre_default"), ("s0", "post_default"))
    pre = _block(mb["pre_default"], "model.pre_default", ("mu", "sigma"), ("beta", "lambda"))
    post = _block(mb.get("post_default", {}), "model.post_default", (), ("mu", "sigma"))
    horizon = _number(float, mb["T"], "T", "model")
    n_steps = _number(int, mb["N"], "N", "model")
    try:
        grid = TimeGrid(horizon, n_steps)
    except ValueError as exc:
        raise InputError(f"config: model: {exc}") from exc
    coeffs = RegimeCoefficients(
        mu_pre=_coefficient(pre["mu"], "pre mu"),
        sigma_pre=_coefficient(pre["sigma"], "pre sigma"),
        mu_post=_coefficient(post.get("mu", pre["mu"]), "post mu"),
        sigma_post=_coefficient(post.get("sigma", pre["sigma"]), "post sigma"),
        beta=_coefficient(pre.get("beta", 0.0), "beta"),
        lam=_coefficient(pre.get("lambda", 0.0), "lambda"),
    )
    model = MarketModel(grid=grid, coeffs=coeffs,
                        gamma=_number(float, mb["gamma"], "gamma", "model"),
                        s0=_number(float, mb.get("s0", 1.0), "s0", "model"))

    claim = _build_claim(raw["claim"])

    nm = _block(raw.get("numerics", {}), "numerics", (),
                ("M", "L_mult", "quad_nodes", "k0", "tol_rel", "k", "ks"))
    ks = nm.get("ks", [])
    if not isinstance(ks, list):
        raise InputError(f"config: 'ks' in numerics must be a list of numbers, got {ks!r}")
    ks = [_number(float, v, "ks", "numerics") for v in ks]
    m_space = _number(int, nm.get("M", 100), "M", "numerics")
    l_mult = _number(float, nm.get("L_mult", 6.0), "L_mult", "numerics")
    quad_nodes = _number(int, nm.get("quad_nodes", 7), "quad_nodes", "numerics")
    k0 = _number(float, nm.get("k0", 0.25), "k0", "numerics")
    tol_rel = _number(float, nm.get("tol_rel", 1e-6), "tol_rel", "numerics")
    k = _number(float, nm.get("k", 2.0), "k", "numerics")
    try:
        space = SpaceGrid.for_model(model, m_space, l_mult)
    except ValueError as exc:
        # a coefficient that breaks the rule at a step time can leave no grid: name the rules too
        raise InputError(f"config: numerics: {exc}" + "".join(
            f"; model: {v}" for v in validate_model(model).violations)) from exc
    # the solver's and the k loop's own checks, so validate rejects what they reject
    try:
        quad = Quadrature.gauss_hermite(quad_nodes)
        StrategySet.symmetric(k)
        check_doubling(k0, tol_rel)
        if ks:
            check_schedule(ks)
    except ValueError as exc:
        raise InputError(f"config: numerics: {exc}") from exc
    ob = _block(raw.get("oracle", {}), "oracle", (), ("N_small", "q", "G", "n_paths", "seed"))
    out = _block(raw.get("output", {}), "output", (), ("validation_json", "surface_csv",
                                                       "sweep_csv", "price_json", "drift_csv",
                                                       "paths_csv"))

    return RunConfig(
        model=model, claim=claim, space=space, quad=quad,
        k=k, k0=k0, tol_rel=tol_rel, ks=ks,
        n_small=_number(int, ob.get("N_small", 8), "N_small", "oracle"),
        q=_number(int, ob.get("q", 7), "q", "oracle"),
        g=_number(int, ob.get("G", 81), "G", "oracle"),
        n_paths=_number(int, ob.get("n_paths", 10_000), "n_paths", "oracle"),
        seed=_number(int, ob.get("seed", 0), "seed", "oracle"),
        output=out,
    )


def _json_bytes(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def emit_report(report, path) -> None:
    """Write a report byte-stably; ``path`` None means stdout.

    PriceReport and plain dicts are emitted as JSON (fixed field order,
    shortest round-trip floats); objects with a ``to_csv`` method as CSV with
    12-significant-digit decimals.
    """
    if isinstance(report, PriceReport):
        text = _json_bytes(report.to_json_dict())
    elif isinstance(report, dict):
        text = _json_bytes(report)
    elif hasattr(report, "to_csv"):
        report.to_csv(sys.stdout if path is None else path)
        return
    else:
        raise TypeError(f"emit_report: unsupported report type {type(report)!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_validate(cfg: RunConfig) -> int:
    # the rules of a pass over the claim alone, which `solve`, `converge` and `oracle` solve
    _, rep = pass_inputs(cfg.model, (cfg.claim,), cfg.space)
    payload = {
        "ok": rep.ok,
        "violations": rep.violations,
        # strict JSON: a non-finite alpha is written as null
        **{key: [{"t": t, "alpha": a if math.isfinite(a) else None} for t, a in rows]
           for key, rows in (("alpha_pre", rep.alpha_pre), ("alpha_post", rep.alpha_post))},
    }
    emit_report(payload, cfg.output.get("validation_json"))
    if not rep.ok:
        for v in rep.violations:
            _diag(f"model: {v}")
        return 2
    return 0


def _cmd_solve(cfg: RunConfig) -> int:
    surface = solve_bsde(cfg.model, cfg.claim, StrategySet.symmetric(cfg.k),
                         cfg.space, cfg.quad)
    _diag(f"solve: k={cfg.k:g} J0={surface_at_origin(surface):.12g}")
    emit_report(surface, cfg.output.get("surface_csv"))
    return 0


def _cmd_converge(cfg: RunConfig) -> int:
    if cfg.ks:
        res = k_sweep(cfg.model, cfg.claim, cfg.space, cfg.quad, cfg.ks)
    else:
        _, res = converge(cfg.model, cfg.claim, cfg.space, cfg.quad,
                          cfg.k0, cfg.tol_rel)
    for k1, k2, excess in res.monotone_violations:
        _diag(f"converge: J0 increased from k={k1:g} to k={k2:g} "
              f"by {excess:.3g} beyond tolerance")
    _diag(f"converge: final J0={res.j0s[-1]:.12g} at k={res.ks[-1]:g}")
    emit_report(res, cfg.output.get("sweep_csv"))
    return 0


def _cmd_price(cfg: RunConfig) -> int:
    report = indifference_price(cfg.model, cfg.claim, cfg.space, cfg.quad)
    _diag(f"price: buy={report.buy_price:.12g} sell={report.sell_price:.12g}")
    emit_report(report, cfg.output.get("price_json"))
    return 0


def _cmd_oracle(cfg: RunConfig) -> int:
    # the DP and the drift check run after the solve, so their checks run here,
    # before it, and again where the work runs; solve_bsde checks its own
    bad = monte_carlo_violation(cfg.model, cfg.n_paths, cfg.seed)
    if bad is not None:
        raise InputError(f"oracle: {bad}")
    try:
        tree = DPTree(cfg.n_small, cfg.q, cfg.g, cfg.k)  # the DP oracle's own range checks
    except ValueError as exc:
        raise InputError(f"oracle: {exc}") from exc
    bad = dp_violations(cfg.model, cfg.claim, tree)
    if bad:
        raise InputError("oracle: " + "; ".join(bad))
    surface = solve_bsde(cfg.model, cfg.claim, StrategySet.symmetric(cfg.k),
                         cfg.space, cfg.quad)
    dp = brute_force_dp(cfg.model, cfg.claim, cfg.k, cfg.n_small, cfg.q, cfg.g)
    j0 = surface_at_origin(surface)
    strategy = extract_optimal_strategy(surface)
    paths_csv = cfg.output.get("paths_csv")
    drift = martingale_check(cfg.model, cfg.claim, surface, strategy,
                             cfg.n_paths, cfg.seed, keep_paths=bool(paths_csv))
    _diag(f"oracle: dp={dp:.12g} solver={j0:.12g} "
          f"rel_gap={abs(dp - j0) / abs(dp):.3g}")
    _diag(f"oracle: drift mean={drift.aggregate_mean:.6g} "
          f"se={drift.aggregate_se:.6g} within_3se={drift.within(3.0)}")
    if paths_csv:
        emit_report(drift.ensemble, paths_csv)
    emit_report(drift, cfg.output.get("drift_csv"))
    return 0


COMMANDS = {"validate": _cmd_validate, "solve": _cmd_solve, "converge": _cmd_converge,
            "price": _cmd_price, "oracle": _cmd_oracle}


def run(subcommand: str, config_path: str, seed: int | None = None,
        threads: int = 1) -> int:
    """Dispatch one subcommand; returns the process exit code (``threads`` is unused)."""
    if subcommand not in COMMANDS:
        _diag(f"cli: unknown subcommand '{subcommand}'")
        return 2
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        _diag(f"cli: cannot read config: {exc}")
        return 4
    except json.JSONDecodeError as exc:
        _diag(f"cli: config is not valid JSON: {exc}")
        return 2

    try:
        cfg = load_config(raw)
        if seed is not None:
            cfg.seed = seed
        return COMMANDS[subcommand](cfg)
    except InputError as exc:
        _diag(str(exc))
        return 2
    except (SolverError, NonConvergenceError, ValueError) as exc:
        _diag(str(exc))
        return 3
    except OSError as exc:
        _diag(f"cli: I/O error: {exc}")
        return 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="defaultbsde",
        description="Exponential-utility indifference pricing with default risk")
    parser.add_argument("subcommand", choices=list(COMMANDS))
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's simulation seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="has no effect; kept for compatibility")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, seed=args.seed, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
