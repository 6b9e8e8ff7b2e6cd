"""Batch front-end: JSON config in, CSV/JSON reports out.

Subcommands:
    validate   model checks only (JSON report)
    solve      one BSDE solve at numerics.k (surface CSV)
    converge   k-doubling sweep (CSV: k,J0,runtime_ms)
    price      indifference price report (JSON)
    oracle     brute-force DP + martingale drift check (drift CSV)

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 I/O error.  Diagnostics go to stderr; machine output goes only to the
declared output files or stdout.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .approx import NonConvergenceError, converge, k_sweep
from .driver import StrategySet
from .model import (Claim, Constant, DefaultIndicator, MarketModel,
                    PiecewiseConstant, RegimeCoefficients, StockPayoff,
                    TimeGrid, ValidationReport, euler_factor_violation,
                    simulate_paths, validate_model)
from .oracle import brute_force_dp, martingale_check
from .pricing import PriceReport, indifference_price
from .solver import (Quadrature, SolverError, SpaceGrid, extract_optimal_strategy,
                     solve_bsde, surface_at_origin)

__all__ = ["RunConfig", "run", "emit_report", "main"]


class ConfigError(ValueError):
    """Configuration file fails schema validation."""


@dataclass
class RunConfig:
    """Resolved run configuration (model, claim, numerics, oracle, outputs)."""

    model: MarketModel
    claim: Claim
    m_space: int
    l_mult: float
    quad_nodes: int
    k: float
    k0: float
    tol_rel: float
    ks: list[float]
    refine: bool
    n_small: int
    q: int
    g: int
    n_paths: int
    seed: int
    output: dict = field(default_factory=dict)

    def space(self) -> SpaceGrid:
        return SpaceGrid.for_model(self.model, self.m_space, self.l_mult)

    def quad(self) -> Quadrature:
        return Quadrature.gauss_hermite(self.quad_nodes)


def _need(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"config: missing '{key}' in {where}")
    return block[key]


def _coefficient(raw, name: str) -> PiecewiseConstant:
    if isinstance(raw, (int, float)):
        return PiecewiseConstant.flat(float(raw))
    if isinstance(raw, list) and all(isinstance(p, list) and len(p) == 2 for p in raw):
        breaks = tuple(float(p[0]) for p in raw)
        values = tuple(float(p[1]) for p in raw)
        try:
            return PiecewiseConstant(breaks, values)
        except ValueError as exc:
            raise ConfigError(f"config: coefficient '{name}': {exc}") from exc
    raise ConfigError(f"config: coefficient '{name}' must be a number or [[t, value], ...]")


def _build_claim(block: dict) -> Claim:
    variant = _need(block, "variant", "claim")
    try:
        if variant == "constant":
            return Constant(float(_need(block, "value", "claim")))
        if variant == "default_indicator":
            return DefaultIndicator(float(_need(block, "pays_survival", "claim")),
                                    float(_need(block, "pays_default", "claim")))
        if variant == "stock_payoff":
            return StockPayoff(tuple(float(v) for v in _need(block, "s_nodes", "claim")),
                               tuple(float(v) for v in _need(block, "survive_values", "claim")),
                               tuple(float(v) for v in _need(block, "default_values", "claim")))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: claim: {exc}") from exc
    raise ConfigError(f"config: unknown claim variant '{variant}'")


def load_config(raw: dict) -> RunConfig:
    """Validate the configuration dict and build the run objects."""
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    known = {"model", "claim", "numerics", "oracle", "output"}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"config: unknown top-level keys {sorted(extra)}")

    mb = _need(raw, "model", "config")
    pre = _need(mb, "pre_default", "model")
    post = mb.get("post_default", {})
    try:
        grid = TimeGrid(float(_need(mb, "T", "model")), int(_need(mb, "N", "model")))
    except ValueError as exc:
        raise ConfigError(f"config: model: {exc}") from exc
    coeffs = RegimeCoefficients(
        mu_pre=_coefficient(_need(pre, "mu", "model.pre_default"), "pre mu"),
        sigma_pre=_coefficient(_need(pre, "sigma", "model.pre_default"), "pre sigma"),
        mu_post=_coefficient(post.get("mu", pre["mu"]), "post mu"),
        sigma_post=_coefficient(post.get("sigma", pre["sigma"]), "post sigma"),
        beta=_coefficient(pre.get("beta", 0.0), "beta"),
        lam=_coefficient(pre.get("lambda", 0.0), "lambda"),
    )
    model = MarketModel(grid=grid, coeffs=coeffs,
                        gamma=float(_need(mb, "gamma", "model")),
                        s0=float(mb.get("s0", 1.0)))

    claim = _build_claim(_need(raw, "claim", "config"))

    nm = raw.get("numerics", {})
    ks = [float(v) for v in nm.get("ks", [])]
    ob = raw.get("oracle", {})
    out = raw.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("config: output must be an object of path strings")

    return RunConfig(
        model=model, claim=claim,
        m_space=int(nm.get("M", 100)),
        l_mult=float(nm.get("L_mult", 6.0)),
        quad_nodes=int(nm.get("quad_nodes", 7)),
        k=float(nm.get("k", 2.0)),
        k0=float(nm.get("k0", 0.25)),
        tol_rel=float(nm.get("tol_rel", 1e-6)),
        ks=ks,
        refine=bool(nm.get("refine", False)),
        n_small=int(ob.get("N_small", 8)),
        q=int(ob.get("q", 7)),
        g=int(ob.get("G", 81)),
        n_paths=int(ob.get("n_paths", 10_000)),
        seed=int(ob.get("seed", 0)),
        output=out,
    )


def _json_bytes(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


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


def _validate(cfg: RunConfig) -> ValidationReport:
    """validate_model plus the solver's Euler-factor check at this quadrature."""
    rep = validate_model(cfg.model)
    euler = euler_factor_violation(cfg.model, cfg.quad().max_abs_node)
    if euler is not None:
        rep.violations.append(f"solver: {euler}")
    return rep


def _cmd_validate(cfg: RunConfig) -> int:
    rep = _validate(cfg)
    payload = {
        "ok": rep.ok,
        "violations": rep.violations,
        "alpha_pre": [{"t": t, "alpha": a} for t, a in rep.alpha_pre],
        "alpha_post": [{"t": t, "alpha": a} for t, a in rep.alpha_post],
    }
    emit_report(payload, cfg.output.get("validation_json"))
    if not rep.ok:
        for v in rep.violations:
            _diag(f"model: {v}")
        return 2
    return 0


def _require_valid(cfg: RunConfig) -> None:
    rep = _validate(cfg)
    if not rep.ok:
        raise ConfigError("model: " + "; ".join(rep.violations))


def _cmd_solve(cfg: RunConfig) -> int:
    _require_valid(cfg)
    surface = solve_bsde(cfg.model, cfg.claim, StrategySet.symmetric(cfg.k),
                         cfg.space(), cfg.quad(), refine=cfg.refine)
    _diag(f"solve: k={cfg.k:g} J0={surface_at_origin(surface):.12g}")
    emit_report(surface, cfg.output.get("surface_csv"))
    return 0


def _cmd_converge(cfg: RunConfig) -> int:
    _require_valid(cfg)
    if cfg.ks:
        res = k_sweep(cfg.model, cfg.claim, cfg.space(), cfg.quad(), cfg.ks,
                      refine=cfg.refine)
    else:
        _, res = converge(cfg.model, cfg.claim, cfg.space(), cfg.quad(),
                          cfg.k0, cfg.tol_rel, refine=cfg.refine)
    for k1, k2, excess in res.monotone_violations:
        _diag(f"converge: J0 increased from k={k1:g} to k={k2:g} "
              f"by {excess:.3g} beyond tolerance")
    _diag(f"converge: final J0={res.j0s[-1]:.12g} at k={res.ks[-1]:g}")
    emit_report(res, cfg.output.get("sweep_csv"))
    return 0


def _cmd_price(cfg: RunConfig) -> int:
    _require_valid(cfg)
    report = indifference_price(cfg.model, cfg.claim, cfg.space(), cfg.quad(),
                                cfg.k0, cfg.tol_rel, refine=cfg.refine)
    _diag(f"price: buy={report.buy_price:.12g} sell="
          f"{'-' if report.sell_price is None else format(report.sell_price, '.12g')}")
    emit_report(report, cfg.output.get("price_json"))
    return 0


def _cmd_oracle(cfg: RunConfig, n_threads: int) -> int:
    _require_valid(cfg)
    dp = brute_force_dp(cfg.model, cfg.claim, cfg.k, cfg.n_small, cfg.q, cfg.g)
    surface = solve_bsde(cfg.model, cfg.claim, StrategySet.symmetric(cfg.k),
                         cfg.space(), cfg.quad(), refine=cfg.refine)
    j0 = surface_at_origin(surface)
    strategy = extract_optimal_strategy(surface)
    drift = martingale_check(cfg.model, cfg.claim, surface, strategy,
                             cfg.n_paths, cfg.seed, n_threads=n_threads)
    _diag(f"oracle: dp={dp:.12g} solver={j0:.12g} "
          f"rel_gap={abs(dp - j0) / abs(dp):.3g}")
    _diag(f"oracle: drift mean={drift.aggregate_mean:.6g} "
          f"se={drift.aggregate_se:.6g} within_3se={drift.within(3.0)}")
    if cfg.output.get("paths_csv"):
        ens = simulate_paths(cfg.model, strategy, cfg.n_paths, cfg.seed,
                             n_threads=n_threads)
        emit_report(ens, cfg.output.get("paths_csv"))
    emit_report(drift, cfg.output.get("drift_csv"))
    return 0


def run(subcommand: str, config_path: str, seed: int | None = None,
        threads: int = 1) -> int:
    """Dispatch one subcommand; returns the process exit code."""
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
        if subcommand == "validate":
            return _cmd_validate(cfg)
        if subcommand == "solve":
            return _cmd_solve(cfg)
        if subcommand == "converge":
            return _cmd_converge(cfg)
        if subcommand == "price":
            return _cmd_price(cfg)
        if subcommand == "oracle":
            return _cmd_oracle(cfg, threads)
        _diag(f"cli: unknown subcommand '{subcommand}'")
        return 2
    except ConfigError as exc:
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
    parser.add_argument("subcommand",
                        choices=["validate", "solve", "converge", "price", "oracle"])
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's simulation seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="cap on worker threads for path simulation")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, seed=args.seed, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
