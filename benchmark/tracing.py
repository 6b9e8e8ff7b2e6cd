"""Spans and counts around the package's layer entry points, kept in memory.

The wrappers replace module attributes at the names the callers look them up
by (``defaultbsde.pricing.solve_j0`` and so on), so no file of the package
changes.  A wrap point whose module or attribute no longer exists is recorded
as missing; a layer none of whose wrap points exists reports ``absent``.
"""
from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "pricing", "approx", "solver", "driver", "model", "oracle")

# (module, attribute, span name); the span's layer is the name's first part
WRAP_POINTS = (
    ("cli", "run", "cli.run"),
    ("cli", "indifference_price", "pricing.indifference_price"),
    ("pricing", "solve_j0", "approx.solve_j0"),
    ("approx", "solve_bsde", "solver.solve_bsde"),
    ("cli", "solve_bsde", "solver.solve_bsde"),
    ("solver", "minimize_driver_grid", "driver.minimize_driver_grid"),
    ("cli", "brute_force_dp", "oracle.brute_force_dp"),
    ("cli", "martingale_check", "oracle.martingale_check"),
    ("oracle", "simulate_paths", "model.simulate_paths"),
)

# counts that must repeat exactly between two traced runs of the same code
DETERMINISTIC_COUNTS = ("pricing.solves", "approx.doublings", "approx.k_star",
                        "driver.nodes", "model.path_steps", "oracle.dp_leaves")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Per-span facts read from arguments or return values.  A lookup that fails
# (a refactor changed the signature) records None, never an exception.
def _solver_info(args, kwargs, result):
    model, claim = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "claim")
    strat, space = _arg(args, kwargs, 2, "strat"), _arg(args, kwargs, 3, "space")
    return {"node_steps": model.grid.n_steps * space.nodes.size,
            "key": (repr(claim), strat.lo, strat.hi)}


def _driver_info(args, kwargs, result):
    return {"nodes": int(_arg(args, kwargs, 2, "y").size)}


def _pricing_info(args, kwargs, result):
    diag = result.diagnostics
    return {"doublings": len(diag["ks"]) - 1, "k_star": diag["k_star"]}


def _simulate_info(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    return {"path_steps": _arg(args, kwargs, 2, "n_paths") * model.grid.n_steps}


def _dp_info(args, kwargs, result):
    claim = _arg(args, kwargs, 1, "claim")
    n_small, q = _arg(args, kwargs, 3, "n_small"), _arg(args, kwargs, 4, "q")
    stock = type(claim).__name__ == "StockPayoff"
    return {"leaves": (2 * q) ** n_small if stock else 0}


INFO = {
    "solver.solve_bsde": _solver_info,
    "driver.minimize_driver_grid": _driver_info,
    "pricing.indifference_price": _pricing_info,
    "model.simulate_paths": _simulate_info,
    "oracle.brute_force_dp": _dp_info,
}


class Tracer:
    """Records spans [name, start, end, parent, op, info] while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info_fn = INFO.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                stack.pop()
            if info_fn is not None:
                try:
                    span[5] = info_fn(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span[5] = None
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every wrap point that exists; remember the missing ones."""
        self.missing = []
        for mod_name, attr, name in WRAP_POINTS:
            try:
                mod = importlib.import_module(f"defaultbsde.{mod_name}")
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed = []

    def absent_layers(self) -> set[str]:
        present = {name.split(".")[0] for mod, attr, name in WRAP_POINTS
                   if f"{mod}.{attr}" not in self.missing}
        return set(LAYERS) - present


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _ancestor_layers(spans: list[list], i: int) -> set[str]:
    layers = set()
    p = spans[i][3]
    while p >= 0:
        layers.add(spans[p][0].split(".")[0])
        p = spans[p][3]
    return layers


def _total(values) -> float | None:
    values = list(values)
    return None if None in values else float(sum(values))


def _per(num: float | None, den: float | None, scale: float = 1.0) -> float | None:
    if num is None or den is None:
        return None
    return scale * num / den if den else 0.0


def op_metrics(spans: list[list], selfs: list[float], idx: list[int]) -> dict:
    """Per-layer metrics of one op, from the spans at indices ``idx``.

    None marks a value whose facts could not be read; it is reported absent.
    """
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in idx:
        by_name[spans[i][0]].append(i)

    def self_s(*names: str) -> float:
        return float(sum(selfs[i] for n in names for i in by_name[n]))

    def facts(name: str, key: str) -> list:
        return [None if spans[i][5] is None else spans[i][5][key] for i in by_name[name]]

    priced = [i for i in by_name["solver.solve_bsde"]
              if "pricing" in _ancestor_layers(spans, i)]
    keys = [None if spans[i][5] is None else spans[i][5]["key"] for i in priced]
    solver_s = self_s("solver.solve_bsde")
    driver_s = self_s("driver.minimize_driver_grid")
    sim_s = self_s("model.simulate_paths")
    driver_nodes = _total(facts("driver.minimize_driver_grid", "nodes"))
    node_steps = _total(facts("solver.solve_bsde", "node_steps"))
    path_steps = _total(facts("model.simulate_paths", "path_steps"))
    return {
        "cli.self_s": self_s("cli.run"),
        "pricing.solves": float(len(priced)),
        "pricing.unique_solve_ratio": (None if None in keys
                                       else _per(float(len(set(keys))), float(len(keys)))),
        "pricing.self_s": self_s("pricing.indifference_price"),
        "approx.doublings": _total(facts("pricing.indifference_price", "doublings")),
        "approx.k_star": _total(facts("pricing.indifference_price", "k_star")),
        "approx.self_s": self_s("approx.solve_j0"),
        "solver.calls": float(len(by_name["solver.solve_bsde"])),
        "solver.self_s": solver_s,
        "solver.ns_per_node_step": _per(solver_s, node_steps, 1e9),
        "driver.calls": float(len(by_name["driver.minimize_driver_grid"])),
        "driver.nodes": driver_nodes,
        "driver.self_s": driver_s,
        "driver.ns_per_node": _per(driver_s, driver_nodes, 1e9),
        "model.simulate_calls": float(len(by_name["model.simulate_paths"])),
        "model.path_steps": path_steps,
        "model.ns_per_path_step": _per(sim_s, path_steps, 1e9),
        "oracle.dp_s": self_s("oracle.brute_force_dp"),
        "oracle.dp_leaves": _total(facts("oracle.brute_force_dp", "leaves")),
        "oracle.martingale_self_s": self_s("oracle.martingale_check"),
    }


def summarize(tracer: Tracer, ops: list[int]) -> dict[str, float | None]:
    """Median of each per-op metric over the given ops; None where absent."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_op: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_op[s[4]].append(i)
    per_op = [op_metrics(spans, selfs, by_op[op]) for op in ops]
    absent = tracer.absent_layers()
    out: dict[str, float | None] = {}
    for name in per_op[0]:
        vals = [m[name] for m in per_op]
        missing = None in vals or name.split(".")[0] in absent
        out[name] = None if missing else statistics.median(vals)
    return out


def dump_spans(tracer: Tracer) -> dict:
    """Columnar span dump; times in seconds from the first span."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    names = sorted({s[0] for s in tracer.spans})
    index = {n: k for k, n in enumerate(names)}
    return {
        "names": names,
        "columns": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [[index[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3], s[4]]
                  for s in tracer.spans],
        "missing_wrap_points": tracer.missing,
    }
