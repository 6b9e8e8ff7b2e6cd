"""The market's coefficients have one reader outside `model`: the table.

Every module of the package other than `model.py` reads the coefficients
through `RegimeCoefficients.table`, so the rule of which (mu, sigma, lam,
beta) apply in regime n at a time is written once.  An attribute read of a
`RegimeCoefficients` field off something named `coeffs`, or of a
regime-specific field anywhere, fails here.  `CoeffSnapshot.lam` and the
like are reads of a snapshot, not of the model, and stay allowed.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "defaultbsde"
FIELDS = {"mu_pre", "sigma_pre", "mu_post", "sigma_post", "beta", "lam"}
REGIME_FIELDS = {"mu_pre", "sigma_pre", "mu_post", "sigma_post"}


def field_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, dotted name) of every forbidden coefficient read in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        owner_name = (owner.attr if isinstance(owner, ast.Attribute)
                      else owner.id if isinstance(owner, ast.Name) else None)
        if node.attr in REGIME_FIELDS or (node.attr in FIELDS and owner_name == "coeffs"):
            found.append((node.lineno, f"{owner_name}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "model.py"),
                         ids=lambda p: p.name)
def test_no_coefficient_field_read_outside_model(path):
    assert field_reads(ast.parse(path.read_text())) == []


def test_guard_sees_each_kind_of_read():
    src = ("model.coeffs.lam(t)\ncoeffs.beta\nc.sigma_post(t)\nc.lam\n"
           "snapshot.mu\nmodel.coeffs.table(t)\n")
    assert field_reads(ast.parse(src)) == [(1, "coeffs.lam"), (2, "coeffs.beta"),
                                           (3, "c.sigma_post")]
