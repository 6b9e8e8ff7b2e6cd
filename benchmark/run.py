"""Benchmark of the defaultbsde CLI: one workload per process, closed loop, one caller.

    python3 benchmark/run.py --workload price-bond --seed 1 --seconds 55 --trace 0

It drives the program only through ``defaultbsde.cli.run(subcommand,
config_path, threads=1)``, in process, with one op after another.  Each op
gets a config generated from the seed and the op index; its outputs go to
files under ``.bench_out/`` and are checked against the acceptance suite's
tolerances.  The first op is a warm-up and is left out of the timings.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the layer
entry points (see tracing.py) on every other op and prints the per-layer
metrics, with the tracing overhead as traced minus untraced median op time.
The last line of stdout is the JSON result; the line before it, and
``.bench_out/<workload>.trace<0|1>.json``, hold the details and the machine
state.  Metric names and units are read from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 8      # setup runs: this process, then fresh ones spread over the run
MIN_TIMED_OPS = 11     # the tail percentile needs ten samples beyond it
MIN_TRACED_OPS = 3     # of each kind, traced and untraced, in a trace run
MAX_RUN_S = 140.0      # stop starting ops after this, whatever the minimums

sys.path.insert(0, str(BENCH_DIR))
from tracing import DETERMINISTIC_COUNTS, Tracer, dump_spans, summarize  # noqa: E402
from workloads import WORKLOADS, claim_point  # noqa: E402


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads() -> None:
    """Cap the BLAS/OpenMP thread variables at nproc, in this process and its children."""
    n = nproc()
    for var in THREAD_VARS:
        try:
            want = min(int(os.environ[var]), n)
        except (KeyError, ValueError):
            want = n
        os.environ[var] = str(max(want, 1))


def measure_setup(config_path: str) -> float:
    """Seconds to import the package and run `validate` (config load + model checks)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from defaultbsde import cli
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.run("validate", config_path)
    elapsed = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"defaultbsde imported from {cli.__file__}, not from {SRC}")
    if rc != 0:
        raise RuntimeError(f"validate exited {rc}: {err.getvalue().strip()}")
    return elapsed


def setup_in_child(config_path: str) -> float:
    proc = subprocess.run([sys.executable, __file__, "--setup-only", config_path],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, n).

    With fewer than eleven samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def run_ops(wl, seed: int, seconds: float, trace: bool, work: Path, run_start: float,
            setups: list[float], setup_cfg: str | None) -> tuple[list[dict], Tracer | None]:
    """Closed loop of ops; in a trace run the odd-numbered ops are traced.

    With ``setup_cfg`` set, fresh setup processes run between ops, spread
    over the run, until ``setups`` holds SETUP_SAMPLES samples; the setup
    time then sees the same machine load as the ops.
    """
    from defaultbsde import cli
    outputs = {key: str(work / key) for key in wl.outputs}
    config_path = work / "config.json"
    tracer = Tracer() if trace else None
    min_ops = 2 * MIN_TRACED_OPS if trace else MIN_TIMED_OPS
    ops: list[dict] = []
    timed_start = None
    i = 0
    while True:
        cfg = wl.make_config(*claim_point(seed, i), outputs)
        config_path.write_text(json.dumps(cfg))
        for path in outputs.values():
            Path(path).unlink(missing_ok=True)
        traced = trace and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        err = io.StringIO()
        crash = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.run(wl.subcommand, str(config_path), threads=1)
        except Exception:  # a crash is a failed op, recorded and counted
            rc, crash = None, traceback.format_exc()
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()

        op = {"op": i, "seconds": t1 - t0, "traced": traced, "exit": rc}
        if rc != 0:
            op.update(ok=False, value_rel_err=None,
                      detail=crash or f"exit {rc}: {err.getvalue().strip()}")
        else:
            try:
                res = wl.check(cfg, outputs, err.getvalue())
                op.update(ok=res.ok, value_rel_err=res.value_rel_err, detail=res.detail)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                op.update(ok=False, value_rel_err=None, detail=f"output check: {exc!r}")
        ops.append(op)

        if i == 0:
            timed_start = time.perf_counter()
        i += 1
        n_timed = i - 1
        now = time.perf_counter()
        if setup_cfg and len(setups) < SETUP_SAMPLES * min(1.0, (now - timed_start) / seconds):
            setups.append(setup_in_child(setup_cfg))
        if now - run_start > MAX_RUN_S:
            break
        if n_timed >= min_ops and now - timed_start >= seconds:
            break
    while setup_cfg and len(setups) < SETUP_SAMPLES:
        setups.append(setup_in_child(setup_cfg))
    return ops, tracer


def machine_stamp(args, loadavg: list[float]) -> dict:
    import numpy
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "loadavg_at_start": loadavg,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def metric_table(spec_names: list[dict], values: dict) -> dict:
    out = {}
    for spec in spec_names:
        v = values[spec["name"]]
        if v is None:
            out[spec["name"]] = {"value": 0.0, "unit": spec["unit"], "absent": True}
        else:
            out[spec["name"]] = {"value": v, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="CONFIG", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cap_threads()
    if args.setup_only:
        print(json.dumps({"setup_s": measure_setup(args.setup_only)}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    run_start = time.perf_counter()
    loadavg = list(os.getloadavg())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        setup_cfg = work / "setup.json"
        setup_cfg.write_text(json.dumps(wl.make_config(
            *claim_point(args.seed, 0), {"validation_json": str(work / "validation.json")})))
        setups = [measure_setup(str(setup_cfg))]
        ops, tracer = run_ops(wl, args.seed, args.seconds, bool(args.trace), work,
                              run_start, setups, None if args.trace else str(setup_cfg))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not op["ok"] for op in ops)
    timed = ops[1:]
    errs = [op["value_rel_err"] for op in ops if op["ok"]]
    detail = {"machine": machine_stamp(args, loadavg), "attempted": len(ops), "failed": failed,
              "fail_frac": failed / len(ops), "setup_samples_s": setups,
              "failures": [op for op in ops if not op["ok"]][:5]}

    if args.trace:
        traced = [op["seconds"] for op in timed if op["traced"]]
        plain = [op["seconds"] for op in timed if not op["traced"]]
        values = summarize(tracer, [op["op"] for op in timed if op["traced"]])
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        detail.update(traced_ops=len(traced), untraced_ops=len(plain),
                      missing_wrap_points=tracer.missing,
                      deterministic_counts={k: values[k] for k in DETERMINISTIC_COUNTS})
        metrics = metric_table(spec["per_layer"], values)
        (OUT_DIR / f"{wl.name}.spans.json").write_text(json.dumps(dump_spans(tracer)))
    else:
        times = [op["seconds"] for op in timed]
        tail_v, tail_pct, n = tail(times)
        values = {
            "op_s.tail": tail_v,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "value_rel_err": statistics.median(errs) if errs else None,
        }
        detail.update(timed_ops=n, op_s_tail_percentile=tail_pct,
                      op_s_tail_samples_beyond=10 if n >= 11 else 0,
                      op_s_p50=statistics.median(times), ops_per_s=n / sum(times))
        metrics = metric_table(spec["end_to_end"], values)

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    (OUT_DIR / f"{wl.name}.trace{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail, "ops": ops}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
