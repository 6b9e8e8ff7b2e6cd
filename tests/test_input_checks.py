"""Each input check has one home and runs once per command.

The pass owns its input rule: `solver.pass_inputs` returns the terminal rows
with the report of every rule a pass checks before any work, and
`solve_j0_batch` raises one `InputError` on it.  `validate` reports the same
rule for the claim, so the library pass rejects exactly what `validate`
rejects, with the message that `validate` prints.  `solve`, `converge` and
`price` make no check of their own, `oracle` checks only its DP and Monte
Carlo inputs before the solve, and an AST guard keeps each rule's callers to
the few listed here.
"""
import ast
import collections
import json
import math
import warnings
from pathlib import Path

import pytest

from defaultbsde import (CoeffSnapshot, InputError, NonConvergenceError, Quadrature, SolverError,
                         SpaceGrid, StrategySet, TimeGrid, approx, cli, converge, driver, model,
                         oracle, solver)
from defaultbsde.solver import solve_j0_batch

from test_coefficient_rule import CONFIGS, PUT, model_of, run_config

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "defaultbsde"

VALID = {"model": {"T": 1.0, "N": 10, "gamma": 1.0,
                   "pre_default": {"mu": 0.05, "sigma": 0.2, "beta": -0.3, "lambda": 0.5},
                   "post_default": {"mu": 0.05, "sigma": 0.2}},
         "claim": PUT, "numerics": {"M": 20, "quad_nodes": 7}}


def edited(*keys, value) -> dict:
    """VALID with one value of its model block replaced."""
    raw = json.loads(json.dumps(VALID))
    block = raw["model"]
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    return raw


EDGES = [edited("gamma", value=0.0), edited("gamma", value=-1.0),
         edited("s0", value=0.0), edited("s0", value=-1.0),
         edited("pre_default", "sigma", value=[[0.0, 0.2], [1.5, 0.3]]),  # beyond T
         edited("pre_default", "sigma", value=[[0.1, 0.2]])]  # not starting at 0


def inputs(raw: dict):
    """(model, claim, space, quad) as `validate` builds them or, where the
    loader finds no grid (a sigma that is not finite at a step time), the
    model on a fixed grid."""
    try:
        cfg = cli.load_config(raw)
    except InputError:
        return (model_of(raw), cli._build_claim(raw["claim"]), SpaceGrid(20, 1.0),
                Quadrature.gauss_hermite(7))
    return cfg.model, cfg.claim, cfg.space, cfg.quad


def rejection(solve) -> str | None:
    """The InputError message of ``solve()``, or None when it passes its input
    checks (a failure during the steps is no input rejection)."""
    try:
        solve()
    except InputError as exc:
        return str(exc)
    except (SolverError, NonConvergenceError):
        pass
    return None


def test_library_pass_rejects_what_validate_rejects(tmp_path, capsys):
    wrong, codes = [], []
    for c, raw in enumerate(CONFIGS + EDGES):
        code = run_config(tmp_path, raw, "validate")
        codes.append(code)
        captured = capsys.readouterr()
        if captured.out:
            want = "model: " + "; ".join(json.loads(captured.out)["violations"])
        else:  # the loader found no grid and named the model's rules
            want = "model: " + "; ".join(captured.err.strip().split("; model: ")[1:])
        m, claim, space, quad = inputs(raw)
        got = [rejection(lambda: solve_j0_batch(m, (claim,), [2.0], space, quad)),
               rejection(lambda: converge(m, claim, space, quad, 0.25, 1e-6))]
        if got != [want if code == 2 else None] * 2:
            wrong.append((c, code, want, got))
    assert wrong == []
    assert codes[len(CONFIGS):] == [2] * len(EDGES) and set(codes[:len(CONFIGS)]) == {0, 2}


@pytest.mark.parametrize("subcommand", ["validate", "price", "solve", "converge"])
def test_rejected_s0_is_its_one_violation(tmp_path, capsys, subcommand):
    # a negative s0 gives negative prices, whose payoff rows are not built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_config(tmp_path, edited("s0", value=-1.0), subcommand) == 2
    assert capsys.readouterr().err == "model: s0 must be positive and finite\n"


def test_loader_without_a_grid_names_every_model_rule(tmp_path, capsys):
    raw = edited("pre_default", "sigma", value=[[0.0, 0.2], [0.5, math.nan]])
    raw["model"]["gamma"] = 0.0
    assert run_config(tmp_path, raw, "validate") == 2
    err = capsys.readouterr().err
    assert err.startswith("config: numerics: ") and "; model: gamma must be positive" in err


def test_value_objects_raise_input_errors():
    m, claim, space, quad = inputs(VALID)
    for build in (lambda: oracle.brute_force_dp(m, claim, -1.0, 3, 3, 5),
                  lambda: approx.solve_j0(m, claim, space, quad, -1.0),
                  lambda: TimeGrid(1.0, 0), lambda: SpaceGrid(1, 1.0),
                  lambda: Quadrature.gauss_hermite(0), lambda: Quadrature.gauss_hermite(2.5)):
        with pytest.raises(InputError):
            build()


def test_library_rejections_raise_input_errors():
    # the coefficient, claim, path-count and seed checks a library caller meets
    # first raise the one rejection class as well
    m, claim, _, _ = inputs(VALID)
    snap = CoeffSnapshot(0.05, 0.2, 0.1, -0.3, 1.0)

    def no_trade(t, s, n):
        return 0.0 * s

    for build in (lambda: model.PiecewiseConstant((0.0, 0.5), (1.0,)),
                  lambda: model.PiecewiseConstant((0.0, math.inf), (1.0, 2.0)),
                  lambda: model.PiecewiseConstant((0.5, 0.0), (1.0, 2.0)),
                  lambda: model.Claim((1.0,), ((0.0,),)),
                  lambda: model.Claim((1.0, 2.0), ((0.0,), (0.0,))),
                  lambda: model.Claim((), ((), ())),
                  lambda: model.Claim((-1.0,), ((0.0,), (0.0,))),
                  lambda: model.Claim((2.0, 1.0), ((0.0, 0.0), (0.0, 0.0))),
                  lambda: model.claim_payoff(claim, 0.0, 0),
                  lambda: model.simulate_paths(m, no_trade, 0, 1),
                  lambda: model.simulate_paths(m, no_trade, 10, -1),
                  lambda: model.simulate_paths(m, no_trade, 10, 2**128),
                  lambda: model.simulate_paths(m, no_trade, 10, math.nan),
                  lambda: model.simulate_paths(m, no_trade, 2.5, 1),
                  lambda: CoeffSnapshot(0.05, 0.0, 0.1, 0.0, 1.0),
                  lambda: CoeffSnapshot(0.05, 0.2, -0.1, 0.0, 1.0),
                  lambda: CoeffSnapshot(0.05, 0.2, 0.1, -1.0, 1.0),
                  lambda: CoeffSnapshot(0.05, 0.2, 0.1, 0.0, 0.0),
                  lambda: driver.minimize_driver(snap, StrategySet.symmetric(1.0), 0.0, 0.1, 0.0),
                  lambda: driver.minimize_driver(snap, StrategySet.symmetric(1.0), 1.0, 0.1, -2.0)):
        with pytest.raises(InputError):
            build()


@pytest.fixture
def calls(monkeypatch):
    """Counts the calls of each check, and of the pass, by the names their
    callers look them up by."""
    counts = collections.Counter()
    for module, name in ((solver, "pass_inputs"), (solver, "validate_model"),
                         (model, "coefficient_violations"), (approx, "solve_j0_batch")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("subcommand", ["price", "solve", "converge", "oracle"])
@pytest.mark.parametrize("gamma, code", [(1.0, 0), (0.0, 2)])
def test_each_check_runs_once_per_command(tmp_path, capsys, calls, subcommand, gamma, code):
    raw = edited("gamma", value=gamma)
    # a DP inside the node budget: (2 q)^N_small = 216 leaves
    raw["oracle"] = {"N_small": 3, "q": 3, "G": 5, "n_paths": 1000}
    assert run_config(tmp_path, raw, subcommand) == code
    if code:
        assert capsys.readouterr().err == "model: gamma must be positive\n"
    checks = {"pass_inputs": 1, "validate_model": 1, "coefficient_violations": 1}
    assert calls == checks | ({"solve_j0_batch": 1} if subcommand == "converge" else {})


def test_converge_raises_a_rejection_once_and_untagged(calls):
    m, claim, space, quad = inputs(edited("gamma", value=0.0))
    with pytest.raises(InputError, match=r"^model: gamma must be positive$"):
        converge(m, claim, space, quad, 0.25, 1e-6)
    assert calls["solve_j0_batch"] == 1


# per checked name, the (module, top-level definition) of each call allowed in the package
CALLERS = {
    # the coefficient rule: at the step times for the model's report, and at the
    # DP's own times
    "coefficient_violations": {("model", "validate_model"), ("oracle", "dp_violations")},
    # the model's rules, which a pass reads through its one check, and which
    # the loader names when a coefficient leaves no grid
    "validate_model": {("solver", "pass_inputs"), ("cli", "load_config")},
    # the pass's check: by the pass and by `validate`
    "pass_inputs": {("solver", "solve_j0_batch"), ("cli", "_cmd_validate")},
}


def check_calls(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(name, top-level definition, line) of every call of a name of CALLERS
    in ``tree``, by name or as an attribute."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(node, ast.Call) and name in CALLERS:
                found.append((name, getattr(top, "name", "<module>"), node.lineno))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_checks_called_only_from_their_homes(path):
    calls = check_calls(ast.parse(path.read_text()))
    assert [(name, owner, line) for name, owner, line in calls
            if (path.stem, owner) not in CALLERS[name]] == []


def test_every_home_calls_its_check():
    homes = {(name, module, owner) for module in {m for s in CALLERS.values() for m, _ in s}
             for name, owner, _ in check_calls(ast.parse((PACKAGE / f"{module}.py").read_text()))}
    assert homes == {(name, module, owner) for name, allowed in CALLERS.items()
                     for module, owner in allowed}


def test_guard_sees_each_kind_of_call():
    src = ("def f():\n    pass_inputs(m)\n"
           "def g():\n    x = solver.validate_model(m)\n"
           "coefficient_violations(m, g)\n")
    assert check_calls(ast.parse(src)) == [("pass_inputs", "f", 2), ("validate_model", "g", 4),
                                           ("coefficient_violations", "<module>", 5)]
