"""The benchmark wraps package functions by name; a refactor must keep those names."""
import importlib.util
import json
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrap_point_exists():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("keep_paths", [False, True])
def test_oracle_op_traces_one_simulation(tmp_path, keep_paths):
    # a wrap point that still exists but is no longer called blinds its layer:
    # the oracle op must reach model.simulate_paths once, for every path-step
    from defaultbsde import cli

    n_steps, n_paths = 10, 1000
    output = {"drift_csv": str(tmp_path / "drift.csv")}
    if keep_paths:
        output["paths_csv"] = str(tmp_path / "paths.csv")
    cfg = {
        "model": {"T": 1.0, "N": n_steps, "gamma": 1.0, "s0": 1.0,
                  "pre_default": {"mu": 0.05, "sigma": 0.2, "lambda": 0.5, "beta": -0.3}},
        "claim": {"variant": "default_indicator", "pays_survival": 1.0, "pays_default": 0.0},
        "numerics": {"M": 30, "quad_nodes": 7, "k": 2.0},
        "oracle": {"N_small": 4, "q": 3, "G": 11, "n_paths": n_paths, "seed": 3},
        "output": output,
    }
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(cfg))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.run("oracle", str(path)) == 0
    finally:
        tracer.uninstall()
    sims = [s for s in tracer.spans if s[0] == "model.simulate_paths"]
    assert len(sims) == 1
    assert sims[0][5] == {"path_steps": n_paths * n_steps}


def test_price_op_traces_one_driver_call_per_step(tmp_path, monkeypatch):
    # one driver call steps every leg and both regimes: one span per backward
    # step, whose nodes sum to the rows x regimes x width that were stepped
    from defaultbsde import cli, solver

    real, stepped = solver._step, []

    def step(regime, strat, dt, ys, i):
        stepped.append(ys.size)
        return real(regime, strat, dt, ys, i)

    monkeypatch.setattr(solver, "_step", step)
    n_steps = 20
    cfg = {
        "model": {"T": 1.0, "N": n_steps, "gamma": 1.0,
                  "pre_default": {"mu": 0.1, "sigma": 0.2, "lambda": 0.1, "beta": 0.0}},
        "claim": {"variant": "default_indicator", "pays_survival": 1.0, "pays_default": 0.2},
        "numerics": {"M": 20, "quad_nodes": 7, "k0": 0.25, "tol_rel": 1e-6},
        "output": {"price_json": str(tmp_path / "price.json")},
    }
    path = tmp_path / "price.json.cfg"
    path.write_text(json.dumps(cfg))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.run("price", str(path)) == 0
    finally:
        tracer.uninstall()
    drivers = [s for s in tracer.spans if s[0] == "driver.minimize_driver_grid"]
    # the drift makes small ks bind, but the one unbounded pass re-solves nothing
    assert len(stepped) == len(drivers) == n_steps
    assert sum(s[5]["nodes"] for s in drivers) == sum(stepped)
