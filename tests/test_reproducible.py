"""Every command's output is a function of its config and seed.

Each command runs twice on one small config, into two output directories,
and must give the same exit code, the same stderr and byte-identical output
files.  So no output may carry a wall-clock reading, and an AST guard keeps
the clock out of every module below `cli`.
"""
import ast
import json
from pathlib import Path

import pytest

from defaultbsde.cli import main

from test_input_checks import VALID

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "defaultbsde"
CLOCKS = {"time", "datetime"}

# subcommand, numerics added to VALID's, and the output keys it writes
RUNS = {"validate": ("validate", {}, ("validation_json",)),
        "solve": ("solve", {}, ("surface_csv",)),
        "converge-doubling": ("converge", {}, ("sweep_csv",)),
        "converge-ks": ("converge", {"ks": [0.25, 0.5, 1.0, 2.0]}, ("sweep_csv",)),
        "price": ("price", {}, ("price_json",)),
        "oracle": ("oracle", {}, ("drift_csv", "paths_csv"))}


def run_into(out_dir: Path, subcommand: str, numerics: dict, keys, capsys):
    """(exit code, stderr, {key: output bytes}) of one run writing into out_dir."""
    out_dir.mkdir()
    raw = json.loads(json.dumps(VALID))
    raw["numerics"].update(numerics)
    # a DP inside the node budget: (2 q)^N_small = 216 leaves
    raw["oracle"] = {"N_small": 3, "q": 3, "G": 5, "n_paths": 1000}
    raw["output"] = {key: str(out_dir / key) for key in keys}
    config = out_dir / "config.json"
    config.write_text(json.dumps(raw))
    code = main([subcommand, str(config)])
    err = capsys.readouterr().err
    return code, err, {key: (out_dir / key).read_bytes() for key in keys}


@pytest.mark.parametrize("name", RUNS)
def test_two_runs_are_identical(tmp_path, capsys, name):
    subcommand, numerics, keys = RUNS[name]
    first = run_into(tmp_path / "a", subcommand, numerics, keys, capsys)
    second = run_into(tmp_path / "b", subcommand, numerics, keys, capsys)
    assert first[0] == 0
    assert all(first[2].values())
    assert first == second


def clock_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) of every import of a clock module in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] in CLOCKS]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_no_clock_below_cli(path):
    assert clock_imports(ast.parse(path.read_text())) == []


def test_guard_sees_each_kind_of_import():
    src = ("import time\nimport os, datetime as dt\nfrom time import perf_counter\n"
           "from datetime import datetime\nimport timeit\nfrom . import time_grid\n")
    assert clock_imports(ast.parse(src)) == [(1, "time"), (2, "datetime"), (3, "time"),
                                             (4, "datetime")]
