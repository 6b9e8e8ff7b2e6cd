import json
import math
import subprocess
import sys

import pytest

from defaultbsde.cli import main

from conftest import MERTON_J0


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "model": {
            "T": 1.0, "N": 100, "gamma": 1.0, "s0": 1.0,
            "pre_default": {"mu": 0.0, "sigma": 0.2, "lambda": 0.1, "beta": 0.0},
        },
        "claim": {"variant": "default_indicator", "pays_survival": 1.0,
                  "pays_default": 0.0},
        "numerics": {"M": 40, "quad_nodes": 7, "k": 2.0, "k0": 0.25,
                     "tol_rel": 1e-6},
        "oracle": {"N_small": 8, "q": 7, "G": 81, "n_paths": 1000, "seed": 7},
        "output": {},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestValidate:
    def test_valid_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["alpha_pre"][0]["alpha"] == 0.0

    def test_sigma_zero_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"pre_default": {"mu": 0.0, "sigma": 0.0,
                                                            "lambda": 0.1, "beta": 0.0}})
        assert main(["validate", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "sigma" in captured.err

    def test_solver_euler_factor_exits_2(self, tmp_path, capsys):
        # 20 quadrature nodes reach 7.62 > DW_CLIP: 1 - 7.62 * 0.3 * sqrt(0.25) < 0
        cfg = write_config(tmp_path,
                           model={"N": 4, "pre_default": {"mu": 0.0, "sigma": 0.3,
                                                          "lambda": 0.1, "beta": 0.0}},
                           numerics={"quad_nodes": 20})
        assert main(["validate", str(cfg)]) == 2
        assert "Euler factor" in capsys.readouterr().err
        assert main(["solve", str(cfg)]) == 2
        assert "Euler factor" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, block, key, value", [
        ("oracle", "oracle", "n_paths", "many"),
        ("validate", "numerics", "M", "x"),
        ("converge", "numerics", "ks", 5),
    ])
    def test_non_numeric_value_exits_2(self, tmp_path, capsys, subcommand, block,
                                       key, value):
        cfg = write_config(tmp_path, **{block: {key: value}})
        assert main([subcommand, str(cfg)]) == 2
        assert f"'{key}' in {block} must be a" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, block, key, value, message", [
        ("solve", "numerics", "M", 1, "m must be >= 2"),
        ("validate", "numerics", "quad_nodes", 0, "at least one quadrature node"),
        ("price", "numerics", "k0", 0, "k0 must be positive"),
        ("price", "numerics", "tol_rel", -1, "tol_rel must be positive"),
        ("price", "numerics", "L_mult", 0, "half-width"),
        ("converge", "numerics", "ks", [0.5, 0.25], "strictly increasing"),
        ("oracle", "oracle", "N_small", 0, "n_small must be in"),
        ("oracle", "oracle", "q", 10, "q must be in"),
        ("oracle", "oracle", "G", 102, "strategy grid count must be in"),
        ("solve", "numerics", "k", -2, "k must be positive"),
    ])
    def test_out_of_range_value_exits_2_before_work(self, tmp_path, capsys, monkeypatch,
                                                     subcommand, block, key, value,
                                                     message):
        from defaultbsde import approx, cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the inputs were checked")

        monkeypatch.setattr(approx, "solve_bsde", no_work)
        monkeypatch.setattr(approx, "solve_j0_batch", no_work)
        monkeypatch.setattr(cli, "solve_bsde", no_work)
        monkeypatch.setattr(cli, "brute_force_dp", no_work)
        cfg = write_config(tmp_path, **{block: {key: value}})
        assert main([subcommand, str(cfg)]) == 2
        assert message in capsys.readouterr().err
        if block == "numerics":  # the oracle block is checked by oracle only
            assert main(["validate", str(cfg)]) == 2
            assert message in capsys.readouterr().err

    def test_missing_config_exits_4(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 4

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"model": {}, "claim": {}, "bogus": 1}))
        assert main(["validate", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err


class TestPrice:
    def test_constant_claim_json(self, tmp_path):
        out = tmp_path / "price.json"
        cfg = write_config(tmp_path,
                           claim={"variant": "constant", "value": 0.6},
                           output={"price_json": str(out)})
        assert main(["price", str(cfg)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["buy_price"] - 0.6) < 1e-10
        assert list(payload) == ["gamma", "J0_zero", "J0_claim", "buy_price",
                                 "sell_price", "per_k", "settings"]

    def test_byte_identical_across_threads(self, tmp_path):
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        cfg1 = write_config(tmp_path, "c1.json", output={"price_json": str(out1)})
        cfg2 = write_config(tmp_path, "c2.json", output={"price_json": str(out2)})
        assert main(["price", str(cfg1), "--threads", "1"]) == 0
        assert main(["price", str(cfg2), "--threads", "8"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={"N": 2,
                   "pre_default": {"mu": 0.0, "sigma": 0.2, "lambda": 0.5,
                                   "beta": 0.5}},
            claim={"variant": "default_indicator", "pays_survival": 0.0,
                   "pays_default": 20.0})
        assert main(["price", str(cfg)]) == 3
        assert "solver" in capsys.readouterr().err

    def test_unwritable_output_exits_4(self, tmp_path):
        cfg = write_config(tmp_path,
                           claim={"variant": "constant", "value": 0.0},
                           output={"price_json": str(tmp_path / "no_dir" / "x.json")})
        assert main(["price", str(cfg)]) == 4


class TestConverge:
    def test_merton_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_config(
            tmp_path,
            model={"N": 200, "pre_default": {"mu": 1.0, "sigma": 1.0,
                                             "lambda": 0.0, "beta": 0.0}},
            claim={"variant": "constant", "value": 0.0},
            numerics={"M": 20, "k0": 0.25, "tol_rel": 1e-6},
            output={"sweep_csv": str(out)})
        assert main(["converge", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,J0,runtime_ms"
        last_j0 = float(lines[-1].split(",")[1])
        assert abs(last_j0 - MERTON_J0) < 1e-3

    def test_explicit_ks_schedule(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, numerics={"M": 20, "ks": [0.5, 1.0, 2.0]},
                           output={"sweep_csv": str(out)})
        assert main(["converge", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["0.5", "1", "2"]


class TestSolveAndOracle:
    def test_solve_surface_csv(self, tmp_path):
        out = tmp_path / "surface.csv"
        cfg = write_config(tmp_path, numerics={"M": 10, "k": 2.0},
                           output={"surface_csv": str(out)})
        assert main(["solve", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "i,t,j,x,s,n,Y,Z,U,pi_hat"
        assert len(lines) == 1 + 101 * 11 * 2

    def test_oracle_drift_csv(self, tmp_path, capsys):
        out = tmp_path / "drift.csv"
        cfg = write_config(tmp_path, numerics={"M": 30, "k": 2.0},
                           output={"drift_csv": str(out)})
        assert main(["oracle", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert "rel_gap" in err
        lines = out.read_text().splitlines()
        assert lines[0] == "step,t,mean_increment,stderr"
        assert len(lines) == 101

    def test_seed_override_changes_drift(self, tmp_path):
        out1, out2, out3 = (tmp_path / f"d{i}.csv" for i in (1, 2, 3))
        for out, seed in ((out1, None), (out2, 99), (out3, None)):
            cfg = write_config(tmp_path, f"cfg_{out.name}.json",
                               numerics={"M": 30, "k": 2.0},
                               output={"drift_csv": str(out)})
            argv = ["oracle", str(cfg)] + ([] if seed is None else ["--seed", str(seed)])
            assert main(argv) == 0
        assert out1.read_bytes() == out3.read_bytes()  # same seed, same bytes
        assert out1.read_bytes() != out2.read_bytes()  # overridden seed differs


class TestOracleInputs:
    def test_paths_csv_simulates_once(self, tmp_path, monkeypatch):
        from defaultbsde import cli, oracle
        real, calls = oracle.simulate_paths, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # every module-level name the oracle command could reach it by
        monkeypatch.setattr(oracle, "simulate_paths", counting)
        monkeypatch.setattr(cli, "simulate_paths", counting, raising=False)
        paths = tmp_path / "paths.csv"
        cfg = write_config(tmp_path, model={"N": 10}, numerics={"M": 30},
                           output={"drift_csv": str(tmp_path / "drift.csv"),
                                   "paths_csv": str(paths)})
        assert main(["oracle", str(cfg)]) == 0
        assert len(calls) == 1
        assert len(paths.read_text().splitlines()) == 1 + 1000 * 11

    @pytest.mark.parametrize("oracle_block, message", [
        ({"n_paths": 999}, "n_paths >= 1000"),
        ({"seed": -1}, "seed must be in"),
        ({"n_paths": 400_001}, "exceeds the budget"),
    ])
    def test_bad_monte_carlo_inputs_exit_2_before_work(self, tmp_path, capsys,
                                                        monkeypatch, oracle_block,
                                                        message):
        from defaultbsde import cli

        def no_work(*args, **kwargs):
            raise AssertionError("oracle did work before rejecting its inputs")

        monkeypatch.setattr(cli, "brute_force_dp", no_work)
        monkeypatch.setattr(cli, "solve_bsde", no_work)
        cfg = write_config(tmp_path, oracle=oracle_block)  # N = 100 steps
        assert main(["oracle", str(cfg)]) == 2
        assert message in capsys.readouterr().err


class TestRepeatability:
    def test_price_runs_are_byte_stable(self, tmp_path):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"price{i}.json"
            cfg = write_config(tmp_path, f"cfg{i}.json",
                               output={"price_json": str(out)})
            assert main(["price", str(cfg)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_console_script_entry(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run([sys.executable, "-m", "defaultbsde.cli",
                               "validate", str(cfg)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    def test_single_k_run_has_empty_per_k_tail(self, tmp_path):
        # a claim with pi-independent value converges at the first doubling:
        # per_k then has exactly two entries, matching the k schedule
        out = tmp_path / "p.json"
        cfg = write_config(tmp_path, claim={"variant": "constant", "value": 0.3},
                           output={"price_json": str(out)})
        assert main(["price", str(cfg)]) == 0
        payload = json.loads(out.read_text())
        ks = [e["k"] for e in payload["per_k"]]
        assert ks == sorted(ks)
        assert ks[0] == 0.25
