"""Tests of the benchmark itself: ``python3 -m pytest benchmark``.

The count test runs every workload twice in trace mode, so it takes about
a minute.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from run import tail  # noqa: E402
from tracing import DETERMINISTIC_COUNTS, Tracer, self_times, summarize  # noqa: E402


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=cwd)


@pytest.mark.parametrize("workload", ["price-bond", "oracle-mc"])
def test_deterministic_counts_repeat_across_traced_runs(workload):
    counts = []
    for _ in range(2):
        proc = run_bench(workload, seed=5, trace=1)
        assert proc.returncode == 0, proc.stderr
        *_, detail_line, result_line = proc.stdout.splitlines()
        result = json.loads(result_line)
        assert result["correct"] and result["failed"] == 0
        detail = json.loads(detail_line)
        assert detail["missing_wrap_points"] == []
        counts.append(detail["deterministic_counts"])
    assert counts[0] == counts[1]
    assert set(counts[0]) == set(DETERMINISTIC_COUNTS)
    assert None not in counts[0].values()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("price-bond", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond():
    xs = [float(i) for i in range(40)]
    value, pct, n = tail(xs)
    assert (value, pct, n) == (29.0, 75.0, 40)
    assert sum(x > value for x in xs) == 10
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_direct_children():
    spans = [["cli.run", 0.0, 10.0, -1, 1, None],
             ["solver.solve_bsde", 1.0, 7.0, 0, 1, None],
             ["driver.minimize_driver_grid", 2.0, 5.0, 1, 1, None]]
    assert self_times(spans) == [4.0, 3.0, 3.0]


def test_wrappers_are_removed_and_missing_targets_are_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from defaultbsde import cli
    original = cli.run
    monkeypatch.setattr(tracing, "WRAP_POINTS", (
        ("cli", "run", "cli.run"),
        ("no_such_module", "f", "model.f"),
        ("cli", "no_such_function", "oracle.g"),
    ))
    tracer = Tracer()
    tracer.install()
    assert cli.run is not original and cli.run.__wrapped__ is original
    tracer.op = 1
    assert cli.run("no-such-subcommand", str(ROOT / "BENCHMARK.json")) == 2
    tracer.uninstall()
    assert cli.run is original
    assert tracer.missing == ["no_such_module.f", "cli.no_such_function"]
    assert {"model", "oracle"} <= tracer.absent_layers()
    values = summarize(tracer, [1])
    assert values["model.path_steps"] is None
    assert values["oracle.dp_s"] is None
    assert values["cli.self_s"] > 0.0
