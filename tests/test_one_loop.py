"""The backward pass has one loop over the steps: `solve_j0_batch`'s.

`solver._step` is called only inside `solve_j0_batch`, from any module of the
package, and every call there sits in one `for` loop.  `solve_bsde`'s surface
is that loop's one visitor, and the price reads k-bar from the pass's reach,
so a second backward loop, or a second visitor, fails here.

Likewise the k loop has one recording loop: every loop over
`approx._solve_pass(...)` sits in `approx._sweep`, which records the sweep of
both `k_sweep` and `converge`.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "defaultbsde"
LOOP_OWNER = "solve_j0_batch"
SWEEP_OWNER = "_sweep"


def step_calls(tree: ast.Module) -> list[tuple[int, str, ast.AST | None]]:
    """(line, top-level definition, outermost enclosing for loop) of every
    call of `_step` in ``tree``, by name or as an attribute."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        parents = {child: node for node in ast.walk(top) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "_step" in (getattr(func, "id", None),
                                                         getattr(func, "attr", None)):
                loop, up = None, node
                while up in parents:
                    up = parents[up]
                    if isinstance(up, ast.For):
                        loop = up
                found.append((node.lineno, owner, loop))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_step_called_only_by_the_one_loop(path):
    calls = step_calls(ast.parse(path.read_text()))
    assert [(line, owner) for line, owner, _ in calls if owner != LOOP_OWNER] == []


def test_one_loop_over_the_steps():
    calls = step_calls(ast.parse((PACKAGE / "solver.py").read_text()))
    loops = {loop for _, _, loop in calls}
    assert len(calls) >= 1 and len(loops) == 1 and None not in loops


def test_guard_sees_each_kind_of_call():
    src = ("def solve_j0_batch():\n"
           "    for i in steps:\n"
           "        _step(i)\n"
           "        while hit:\n"
           "            solver._step(i)\n"
           "def solve_bsde():\n"
           "    for i in steps:\n"
           "        _step(i)\n"
           "_step(0)\n")
    calls = step_calls(ast.parse(src))
    assert [(line, owner) for line, owner, _ in calls] == [
        (3, "solve_j0_batch"), (5, "solve_j0_batch"), (8, "solve_bsde"), (9, "<module>")]
    assert calls[0][2] is calls[1][2] is not calls[2][2]
    assert calls[3][2] is None


def visitor_passes(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level definition) of every call of `solve_j0_batch` in
    ``tree`` that passes a visitor: a sixth argument or ``visit=``."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and LOOP_OWNER in (getattr(func, "id", None),
                                                              getattr(func, "attr", None))
                    and (len(node.args) > 5 or any(kw.arg == "visit" for kw in node.keywords))):
                found.append((node.lineno, getattr(top, "name", "<module>")))
    return found


def test_only_solve_bsde_passes_a_visitor():
    found = [(path.name, owner) for path in sorted(PACKAGE.glob("*.py"))
             for _, owner in visitor_passes(ast.parse(path.read_text()))]
    assert found == [("solver.py", "solve_bsde")]


def test_visitor_guard_sees_each_kind_of_call():
    src = ("def f():\n    solve_j0_batch(m, c, ks, s, q, keep)\n"
           "def g():\n    solver.solve_j0_batch(m, c, ks, s, q, visit=keep)\n"
           "def h():\n    solve_j0_batch(m, c, ks, s, q)\n")
    assert visitor_passes(ast.parse(src)) == [(2, "f"), (4, "g")]


def pass_loops(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level definition) of every for loop or comprehension in
    ``tree`` whose iterable is a call of `_solve_pass`, by name or as an attribute."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            it = getattr(node, "iter", None)
            func = getattr(it, "func", None)
            if (isinstance(node, (ast.For, ast.comprehension)) and isinstance(it, ast.Call)
                    and "_solve_pass" in (getattr(func, "id", None), getattr(func, "attr", None))):
                found.append((it.lineno, getattr(top, "name", "<module>")))
    return found


def test_one_loop_records_the_sweeps():
    found = [(path.name, owner) for path in sorted(PACKAGE.glob("*.py"))
             for _, owner in pass_loops(ast.parse(path.read_text()))]
    assert found == [("approx.py", SWEEP_OWNER)]


def test_pass_loop_guard_sees_each_kind_of_loop():
    src = ("def f():\n    for k, j0, hit, ms in _solve_pass(m, c, s, q, ks):\n        pass\n"
           "def g():\n    return [j0 for _, j0, _, _ in approx._solve_pass(m, c, s, q, ks)]\n"
           "def h():\n    for k in ks:\n        yield from _solve_pass(m, c, s, q, [k])\n"
           "    next(_solve_pass(m, c, s, q, ks))\n")
    assert pass_loops(ast.parse(src)) == [(2, "f"), (5, "g")]
