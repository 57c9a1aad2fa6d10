"""The public surface: parameter records reject non-finite fields, and every
public function has a consumer."""

import ast
import math
import pathlib
from dataclasses import fields

import pytest

from pinchfl.errors import ParameterError
from pinchfl.participation import (DETERMINISTIC, SHIFTED_EXPONENTIAL,
                                   DeadlineModel)
from pinchfl.phy import PhyParams
from pinchfl.spatial import GAUSSIAN_MIXTURE, UNIFORM, DistributionSpec

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pinchfl"

# one valid record per branch of each constructor's checks
_RECORDS = {
    "uniform": (DistributionSpec, dict(kind=UNIFORM, D=10.0)),
    "mixture": (DistributionSpec, dict(kind=GAUSSIAN_MIXTURE, D=10.0, mu=3.0,
                                       sigma=0.5)),
    "phy": (PhyParams, dict(P=0.01, sigma_n2=1e-12, f_c=28e9, d=3.0, D=10.0,
                            W=1e6, B_t=1e5)),
    "deterministic": (DeadlineModel, dict(T_d=0.012, fc_kind=DETERMINISTIC)),
    "exponential": (DeadlineModel, dict(T_d=0.012, fc_kind=SHIFTED_EXPONENTIAL,
                                        rate=200.0)),
}


@pytest.mark.parametrize("record, name, bad", [
    (record, f.name, bad)
    for record, (cls, _) in _RECORDS.items()
    for f in fields(cls) if f.type == "float"
    for bad in (math.nan, math.inf, -math.inf)
])
def test_records_reject_non_finite_fields(record, name, bad):
    cls, kwargs = _RECORDS[record]
    cls(**kwargs)
    with pytest.raises(ParameterError):
        cls(**{**kwargs, name: bad})


# public functions that no command reaches yet, each with its reason
_WAITING = {
    "xi_safe": "the AFL step-size bound; ROADMAP item 8(a) gives it a consumer",
    "draw_gates": "the validating entry of the gate, which the reference loop "
                  "of the tests calls; run_afl calls its kernel, _gate_kernel, "
                  "and ROADMAP item 8(a)'s gate ledger reads the same arrays",
}


def _names_used(tree, skip=None):
    """Every bare name, attribute and imported name in ``tree``, leaving out
    the body of the top-level function called ``skip``."""
    used = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                used.update(alias.name for alias in sub.names)
    return used


def test_every_public_function_has_a_consumer():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    acceptance = _names_used(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text()))
    public = [(module, node.name) for module, tree in trees.items()
              for node in tree.body if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")]
    orphans = [
        f"{module}.{name}" for module, name in public
        if name not in _WAITING and name not in acceptance
        and not any(name in _names_used(tree, name if other == module else None)
                    for other, tree in trees.items())
    ]
    # neither the package nor tests/test_acceptance.py reaches these: give
    # each a consumer or delete it
    assert orphans == []
