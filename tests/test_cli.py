import json
import math
import pathlib
import re
import subprocess
import sys

import numpy as np
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
        # a claim override names its variant, so it replaces the whole claim
        if isinstance(val, dict) and key in cfg and key != "claim":
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

    def test_largest_finite_quadrature_accepted(self, tmp_path, capsys):
        # 350 nodes still have finite weights in double precision; 400 do not
        cfg = write_config(tmp_path, numerics={"quad_nodes": 350})
        assert main(["validate", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_sigma_zero_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"pre_default": {"mu": 0.0, "sigma": 0.0,
                                                            "lambda": 0.1, "beta": 0.0}})
        assert main(["validate", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "sigma" in captured.err

    def test_sigma_read_at_no_step_time_validates_and_prices(self, tmp_path, capsys):
        # sigma = 0 from t = T on is read by no step of N = 100; alpha there is
        # infinite and written as null, so a strict parser reads the report
        cfg = write_config(tmp_path, model={"pre_default": {
            "mu": 0.0, "sigma": [[0, 0.2], [1.0, 0.0]], "lambda": 0.1, "beta": 0.0}})
        assert main(["validate", str(cfg)]) == 0

        def not_json(name):
            raise AssertionError(f"{name} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=not_json)
        assert payload["ok"] is True
        assert payload["alpha_pre"][-1] == payload["alpha_post"][-1] == {"t": 1.0, "alpha": None}
        assert main(["price", str(cfg)]) == 0

    @pytest.mark.parametrize("value", [800.0, -800.0, 740.0])
    def test_terminal_row_out_of_range_exits_2(self, tmp_path, capsys, value):
        # exp(-gamma xi) leaves the normal doubles: validate rejects what solve rejects
        cfg = write_config(tmp_path, claim={"variant": "constant", "value": value})
        for subcommand in ("validate", "solve"):
            assert main([subcommand, str(cfg)]) == 2
            assert f"gamma*xi = {value:g}" in capsys.readouterr().err

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
        ("validate", "numerics", "quad_nodes", 400, "Gauss-Hermite rule is not finite"),
        # a constant claim: its negated leg's row exp(-709) is subnormal
        ("price", "claim", "value", -709.0,
         "leg 2 (Claim(s_nodes=(1.0,), values=((709.0,), (709.0,))))"),
        # a key that no block reads, a misspelt one included, is never ignored
        ("validate", "model", "pre_default", {"mu": 0.0, "sigma": 0.2, "lamda": 0.5},
         "model.pre_default: unknown keys ['lamda']"),
        ("validate", "model", "post_default", {"mu": 0.0, "sigmaa": 0.2},
         "model.post_default: unknown keys ['sigmaa']"),
        ("validate", "model", "gama", 1.0, "model: unknown keys ['gama']"),
        # a breakpoint that is no finite time would be written into the report
        ("validate", "model", "pre_default", {"mu": 0.0, "sigma": [[0, 0.2], [math.nan, 0.3]]},
         "coefficient 'pre sigma': breaks must be finite"),
        # an infinite sigma at a step time leaves no grid to build
        ("validate", "model", "pre_default", {"mu": 0.0, "sigma": [[0, 0.2], [0.5, math.inf]]},
         "sigma_max * sqrt(T) = inf must be positive and finite"),
        # nor does a NaN one, and the message names the coefficient rule
        ("validate", "model", "pre_default", {"mu": 0.0, "sigma": [[0, 0.2], [0.5, math.nan]]},
         "coefficients must be finite at step 99 (t=0.99)"),
        # written as Infinity, which a JSON reader parses as it parses 1e400
        ("price", "numerics", "k0", math.inf, "k0 must be positive and finite"),
        ("price", "numerics", "tol_rel", math.inf, "tol_rel must be positive and finite"),
        ("converge", "numerics", "ks", [1.0, math.inf], "positive and finite"),
        ("validate", "model", "pre_default", {"mu": 0.0, "sigma": [[0.1, 0.2]]},
         "sigma_pre: breakpoints must start at 0"),
        ("validate", "model", "pre_default", {"mu": 0.0, "sigma": [[0, 0.2], [2.0, 0.3]]},
         "sigma_pre: breakpoint beyond the horizon"),
        ("validate", "model", "T", 0, "horizon must be positive"),
        # a horizon that is no finite time, named before any grid is built
        ("price", "model", "T", 1e400, "horizon must be positive and finite"),
        ("validate", "claim", "variant", {"variant": "stock_payoff", "s_nodes": [0.5, 1.0],
                                          "survive_values": [0.5, 0.0, 0.0],
                                          "default_values": [0.5, 0.0]},
         "table columns must have equal length"),
        # a table node that is no finite price, and a price that is none
        ("price", "claim", "variant", {"variant": "stock_payoff", "s_nodes": [0.5, 1.0, math.inf],
                                       "survive_values": [0.5, 0.0, 0.0],
                                       "default_values": [0.5, 0.0, 0.0]},
         "s_nodes must be positive and finite"),
        ("oracle", "claim", "variant", {"variant": "stock_payoff", "s_nodes": [0.5, math.nan, 2.0],
                                        "survive_values": [0.5, 0.0, 0.0],
                                        "default_values": [0.5, 0.0, 0.0]},
         "s_nodes must be positive and finite"),
        ("price", "model", "s0", 1e400, "s0 must be positive and finite"),
        ("price", "numerics", "tol_rell", 1e-9, "numerics: unknown keys ['tol_rell']"),
        ("price", "numerics", "refine", True, "numerics: unknown keys ['refine']"),
        ("oracle", "oracle", "n_path", 5000, "oracle: unknown keys ['n_path']"),
        ("price", "output", "price_jsn", "p.json", "output: unknown keys ['price_jsn']"),
        ("price", "claim", "pays_survival", 1.0,
         "claim (constant): unknown keys ['pays_survival']"),
        # an integer key is never truncated
        ("validate", "model", "N", 20.7, "'N' in model must be an integer, got 20.7"),
        ("validate", "numerics", "M", 20.9, "'M' in numerics must be an integer"),
        ("validate", "numerics", "quad_nodes", 7.5, "'quad_nodes' in numerics must be an integer"),
        ("oracle", "oracle", "N_small", 6.5, "'N_small' in oracle must be an integer"),
        ("oracle", "oracle", "q", 5.5, "'q' in oracle must be an integer"),
        ("oracle", "oracle", "G", 41.5, "'G' in oracle must be an integer"),
        ("oracle", "oracle", "n_paths", 1000.5, "'n_paths' in oracle must be an integer"),
        ("oracle", "oracle", "seed", 1.5, "'seed' in oracle must be an integer"),
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
        fields = {key: value}
        if block == "claim":  # a constant claim's field, or a whole claim
            fields = value if isinstance(value, dict) else {key: value, "variant": "constant"}
        cfg = write_config(tmp_path, **{block: fields})
        assert main([subcommand, str(cfg)]) == 2
        assert message in capsys.readouterr().err
        if block == "numerics":  # the oracle block is checked by oracle only
            assert main(["validate", str(cfg)]) == 2
            assert message in capsys.readouterr().err
        if (block, key) == ("claim", "value"):
            # validate checks what solve solves: the claim alone
            assert main(["validate", str(cfg)]) == 0

    def test_integral_float_runs_as_its_integer(self, tmp_path):
        outs = [tmp_path / "int.json", tmp_path / "float.json"]
        for out, n in zip(outs, (20, 20.0)):
            cfg = write_config(tmp_path, f"cfg_{out.name}", model={"N": n},
                               numerics={"M": n}, output={"price_json": str(out)})
            assert main(["price", str(cfg)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_readme_example_config_validates(self, tmp_path, capsys):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        raw = json.loads(re.search(r"Configuration example:\s*```json\n(.*?)```", readme,
                                   re.S).group(1))
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_unknown_subcommand_exits_2(self, tmp_path):
        from defaultbsde.cli import COMMANDS, run
        assert sorted(COMMANDS) == ["converge", "oracle", "price", "solve", "validate"]
        assert run("bogus", str(write_config(tmp_path))) == 2
        with pytest.raises(SystemExit) as exc:
            main(["bogus", str(write_config(tmp_path))])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("claim", [5, {"variant": ["constant"], "value": 1.0}])
    def test_claim_without_a_known_variant_exits_2(self, tmp_path, capsys, claim):
        cfg = write_config(tmp_path, claim=claim)
        assert main(["validate", str(cfg)]) == 2
        assert "claim 'variant' must be one of" in capsys.readouterr().err


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
                                 "sell_price", "settings"]

    def test_byte_identical_across_threads(self, tmp_path):
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        cfg1 = write_config(tmp_path, "c1.json", output={"price_json": str(out1)})
        cfg2 = write_config(tmp_path, "c2.json", output={"price_json": str(out2)})
        assert main(["price", str(cfg1), "--threads", "1"]) == 0
        assert main(["price", str(cfg2), "--threads", "8"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("late", [1.0, 0.995])
    def test_intensity_past_the_last_step_time_is_ignored(self, tmp_path, capsys, late):
        # N = 100: lambda = 200 from t = 0.995 or T on is read at no step time,
        # so dt * max(lambda) over the steps is 1e-3 and the price is lambda = 0.1's
        outs = []
        for name, lam in (("flat", 0.1), ("late", [[0.0, 0.1], [late, 200.0]])):
            out = tmp_path / f"{name}.json"
            cfg = write_config(tmp_path, f"{name}.cfg.json",
                               model={"pre_default": {"mu": 0.0, "sigma": 0.2,
                                                      "lambda": lam, "beta": 0.0}},
                               output={"price_json": str(out)})
            assert main(["validate", str(cfg)]) == 0
            assert main(["price", str(cfg)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={"N": 2,
                   "pre_default": {"mu": 0.2, "sigma": 0.2, "lambda": 0.5,
                                   "beta": 0.5}},
            claim={"variant": "default_indicator", "pays_survival": 0.0,
                   "pays_default": 708.3})
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
        assert lines[0] == "k,J0"
        last_j0 = float(lines[-1].split(",")[1])
        assert abs(last_j0 - MERTON_J0) < 1e-3

    def test_monotone_violation_reported(self, tmp_path, capsys, monkeypatch):
        from defaultbsde import approx
        j0 = {0.5: 0.5, 1.0: 0.5 + 1e-6, 2.0: 0.5 + 1e-6 + 1e-12}

        def rising(model, claims, ks, space, quad):
            return np.array([j0[k] for k in ks]), np.zeros(len(ks), dtype=bool)

        monkeypatch.setattr(approx, "solve_j0_batch", rising)
        cfg = write_config(tmp_path, numerics={"M": 20, "ks": [0.5, 1.0, 2.0]},
                           output={"sweep_csv": str(tmp_path / "sweep.csv")})
        assert main(["converge", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert err.count("beyond tolerance") == 1
        assert "converge: J0 increased from k=0.5 to k=1 by 9.99e-07 beyond tolerance" in err

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

    def test_wide_sigma_at_coarse_steps_runs_every_command(self, tmp_path, capsys):
        # sigma = 0.8 at N = 10: an Euler factor 1 + mu dt - 6 sigma sqrt(dt) would be
        # negative, but the exact log-normal moves hold for every sigma; the DP's own
        # tree (N_small = 4, q = 3) keeps a positive factor
        put = {"variant": "stock_payoff", "s_nodes": [0.5, 1.0, 2.0],
               "survive_values": [0.5, 0.0, 0.0], "default_values": [0.5, 0.0, 0.0]}
        cfg = write_config(tmp_path,
                           model={"N": 10, "pre_default": {"mu": 0.05, "sigma": 0.8,
                                                           "lambda": 0.3, "beta": -0.3}},
                           claim=put, numerics={"M": 100, "k": 2.0},
                           oracle={"N_small": 4, "q": 3, "G": 41, "n_paths": 20_000,
                                   "seed": 1})
        for subcommand in ("validate", "price", "oracle"):
            assert main([subcommand, str(cfg)]) == 0, subcommand
            err = capsys.readouterr().err
            assert "Euler factor" not in err
        dp, solver = map(float, re.search(r"dp=(\S+) solver=(\S+)", err).groups())
        mean, se = map(float, re.search(r"drift mean=(\S+) se=(\S+)", err).groups())
        assert abs(dp - solver) / abs(dp) < 2e-2, (dp, solver)
        assert abs(mean) <= 3.0 * se, (mean, se)

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

    def test_drift_csv_same_bytes_with_paths_csv(self, tmp_path):
        # paths_csv keeps the paths; the drift is the streamed one's, bit for bit
        drifts = []
        for name, extra in (("plain", {}), ("kept", {"paths_csv": str(tmp_path / "p.csv")})):
            drift = tmp_path / f"{name}.csv"
            cfg = write_config(tmp_path, f"{name}.json",
                               model={"N": 10, "pre_default": {"mu": 0.05, "sigma": 0.2,
                                                               "lambda": 2.0, "beta": -0.3}},
                               numerics={"M": 30}, output={"drift_csv": str(drift), **extra})
            assert main(["oracle", str(cfg)]) == 0
            drifts.append(drift.read_bytes())
        assert drifts[0] == drifts[1]

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


class TestBeforeWork:
    """Rejections that must come before any solve, DP or simulation."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        from defaultbsde import cli, oracle, solver

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the inputs were checked")

        monkeypatch.setattr(cli, "brute_force_dp", no_work)
        monkeypatch.setattr(solver, "solve_j0_batch", no_work)
        monkeypatch.setattr(oracle, "simulate_paths", no_work)

    def test_value_read_by_the_dp_alone_exits_2(self, tmp_path, capsys, no_work):
        # sigma = 5 on [0.165, 0.168) is read by no step of N = 100, but by the
        # DP's step 1 at t = 1/6, where 5 nodes make the put's tree factor negative
        cfg = write_config(tmp_path,
                           model={"pre_default": {"mu": 0.0, "lambda": 0.1, "beta": 0.0,
                                                  "sigma": [[0, 0.25], [0.165, 5.0],
                                                            [0.168, 0.25]]}},
                           claim={"variant": "stock_payoff", "s_nodes": [0.5, 1.0, 2.0],
                                  "survive_values": [0.5, 0.0, 0.0],
                                  "default_values": [0.5, 0.0, 0.0]},
                           oracle={"N_small": 6, "q": 5, "G": 41})
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["oracle", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "oracle: DP pre-default Euler factor" in err and "step 1 (t=0.166667)" in err

    def test_dp_tree_budget_exits_2(self, tmp_path, capsys, no_work):
        # a put's full tree at N_small = 10, q = 3 has 6^10 leaves
        cfg = write_config(tmp_path,
                           claim={"variant": "stock_payoff", "s_nodes": [0.5, 1.0, 2.0],
                                  "survive_values": [0.5, 0.0, 0.0],
                                  "default_values": [0.5, 0.0, 0.0]},
                           oracle={"N_small": 10, "q": 3})
        assert main(["oracle", str(cfg)]) == 2
        assert ("oracle: tree of 60466176 leaves exceeds the node budget 2000000"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("subcommand", ["solve", "oracle"])
    def test_surface_budget_exits_2(self, tmp_path, capsys, no_work, subcommand):
        cfg = write_config(tmp_path, model={"N": 20000}, numerics={"M": 2000})
        assert main(["validate", str(cfg)]) == 0  # validate keeps no surface
        capsys.readouterr()
        assert main([subcommand, str(cfg)]) == 2
        assert "node-steps exceeds the surface budget" in capsys.readouterr().err


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

    def test_price_json_has_no_k_schedule(self, tmp_path):
        # price solves one unbounded pass: its JSON carries neither a per-k
        # sequence nor the k loop's tolerance, though the config may set k0 and tol_rel
        out = tmp_path / "p.json"
        cfg = write_config(tmp_path, claim={"variant": "constant", "value": 0.3},
                           output={"price_json": str(out)})
        assert main(["price", str(cfg)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["buy_price"] - 0.3) < 1e-10
        assert "per_k" not in payload and payload["settings"] == {"N": 100, "M": 40,
                                                                  "quad_nodes": 7}
