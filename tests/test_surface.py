"""The public surface: parameter records reject non-finite fields on every
construction path, and every public function, method, property and record
field has a consumer."""

import ast
import importlib
import math
import pathlib
import typing
from collections import Counter

import pytest

from pinchfl import cli
from pinchfl.errors import ParameterError
from pinchfl.flcore import QuantizerSpec, SyntheticProblem
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
    "quantizer": (QuantizerSpec, dict(b=6, c_q=1.0)),
    "problem": (SyntheticProblem, dict(centers=[[0.0, 1.0], [1.0, 0.0]],
                                       noise_sigma=0.1)),
}


# the ways to build a record from a valid one with some fields changed;
# ``_replace`` builds through ``_make``, and each must run the check
_PATHS = {
    "constructor": lambda valid, changes: type(valid)(
        **{**valid._asdict(), **changes}),
    "_make": lambda valid, changes: valid._make(
        {**valid._asdict(), **changes}.values()),
    "_replace": lambda valid, changes: valid._replace(**changes),
}


@pytest.mark.parametrize("record, name, bad, path", [
    pytest.param(record, name, bad, path, id="-".join(
        [record, name, str(bad)] + [path] * (path != "constructor")))
    for record, (cls, _) in _RECORDS.items()
    for name, kind in typing.get_type_hints(cls).items() if kind is float
    for bad in (math.nan, math.inf, -math.inf)
    for path in _PATHS
])
def test_records_reject_non_finite_fields(record, name, bad, path):
    cls, kwargs = _RECORDS[record]
    valid = cls(**kwargs)
    with pytest.raises(AttributeError):
        setattr(valid, name, bad)
    with pytest.raises(ParameterError):
        _PATHS[path](valid, {name: bad})


# public functions and members that no command reads yet, each with its
# reason.  The scan matches attribute names, not types, so a member that
# shares its name with a read one passes unseen.  Those were resolved by
# hand: SyntheticProblem.delta2 (as RunConfig.delta2) and CcdfSeries.trials
# and .seed (as RunConfig's) had no reader but tests, and were deleted
_WAITING = {
    "flcore.xi_safe": "the AFL step-size bound; ROADMAP item 8(a) gives it a "
                      "consumer",
    "flcore.draw_gates": "the validating entry of the gate, which the "
                         "reference loop of the tests calls; run_afl calls "
                         "its kernel, _gate_kernel, and ROADMAP item 8(a)'s "
                         "gate ledger reads the same arrays",
    **{f"flcore.ConvergenceReport.{name}": "ROADMAP item 8(a) writes it to "
                                           "train.json for every AFL run"
       for name in ("xi_safe", "eta_max", "variance_floor", "ef_floor")},
}

# one small run of each command
_RUNS = ["ccdf --trials 200", "participation --trials 200 --grid-points 5",
         "highsnr", "train --rounds 2", "verify --trials 200"]


def _reads(node) -> Counter:
    """How often ``node`` reads each name: ``name`` counts a bare or an
    imported name, ``.name`` a loaded attribute."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.ImportFrom):
            reads.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads["." + sub.attr] += 1
    return reads


def _classes(trees):
    """``(module, class node, class)`` of every public class."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield module, node, getattr(
                    importlib.import_module(f"pinchfl.{module}"), node.name)


def _public(trees):
    """``{qualified name: (the nodes that do not count as its readers,
    whether it is a record field)}`` of every public top-level function and
    every public method, property and field of a public class: its own
    definition and, for a field, its class's check hook ``_check``, which
    only checks it.  A record's fields are its ``_fields``, which its
    private NamedTuple base may define, and the names its body annotates."""
    public = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                public[f"{module}.{node.name}"] = ([node], False)
    for module, node, cls in _classes(trees):
        check = [m for m in node.body
                 if isinstance(m, ast.FunctionDef) and m.name == "_check"]
        annotated = [m.target.id for m in node.body
                     if isinstance(m, ast.AnnAssign)
                     and isinstance(m.target, ast.Name)]
        for name in dict.fromkeys([*getattr(cls, "_fields", ()), *annotated]):
            public[f"{module}.{node.name}.{name}"] = (check, True)
        for member in node.body:
            if isinstance(member, ast.FunctionDef):
                public[f"{module}.{node.name}.{member.name}"] = ([member],
                                                                 False)
    return {name: entry for name, entry in public.items()
            if not any(part.startswith("_") for part in name.split(".")[1:])}


def _serialized(out, records) -> set:
    """Class names of the records, of the classes ``records``, that the
    commands read whole as they write them into their artifacts: through
    ``_asdict``, or written as a row, over one small run of each command
    into ``out``."""
    seen = set()
    write = cli._write_artifacts

    def spy(read):
        def reading(record, *args, **kwargs):
            seen.add(type(record).__name__)
            return read(record, *args, **kwargs)
        return reading

    def writing(command, cfg, rows, metrics):
        seen.update(type(row).__name__ for row in rows
                    if hasattr(row, "_fields"))
        return write(command, cfg, rows, metrics)

    with pytest.MonkeyPatch.context() as patch:
        for cls in records:
            patch.setattr(cls, "_asdict", spy(cls._asdict))
        patch.setattr(cli, "_write_artifacts", writing)
        for run in _RUNS:
            argv = run.split()
            assert cli.main([*argv, "--out", str(out / argv[0])]) == 0
    return seen


@pytest.fixture(scope="module")
def surface(tmp_path_factory):
    """``(public, unread)``: every public function and member, and those of
    them that nothing reads, before the allow-list.

    A function is read where the package names it outside its own body, a
    member where the package loads it as an attribute outside its own
    definition, and both where ``tests/test_acceptance.py`` does.  A field
    is read, too, where a command reads its record whole."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    package = sum(map(_reads, trees.values()), Counter())
    acceptance = _reads(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text()))
    serialized = _serialized(
        tmp_path_factory.mktemp("artifacts"),
        [cls for _, _, cls in _classes(trees) if hasattr(cls, "_asdict")])
    public = _public(trees)
    unread = set()
    for qualified, (own_nodes, field) in public.items():
        _, *owner, name = qualified.split(".")
        keys = ["." + name] if owner else [name, "." + name]
        own = sum(map(_reads, own_nodes), Counter())
        if not (any(package[key] > own[key] or acceptance[key] for key in keys)
                or field and owner[0] in serialized):
            unread.add(qualified)
    return public, unread


def test_every_public_function_has_a_consumer(surface):
    _, unread = surface
    # neither the package, nor tests/test_acceptance.py, nor an artifact
    # reads these: give each a consumer or delete it
    assert sorted(unread - _WAITING.keys()) == []


def test_waiting_list_names_only_unread_members(surface):
    public, unread = surface
    # an entry that names nothing, or that now has a reader, goes
    assert sorted(_WAITING.keys() - public.keys()) == []
    assert sorted(_WAITING.keys() - unread) == []
