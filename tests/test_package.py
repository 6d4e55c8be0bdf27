"""The package surface: value records, lazily loaded public names, and
which modules each kind of call imports."""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import vertexlie
from vertexlie import (
    EVEN,
    ODD,
    BasisVector,
    BilinearAlgebra,
    ConformalReport,
    Defect,
    LawViolation,
    LieData,
    LieElement,
    LieGenerator,
    NovikovReport,
    SpotcheckReport,
    Verdict,
    Violation,
    act_word,
    basis_element,
    dual_numbers,
    generator,
    heisenberg,
    lambda_algebra,
    preset,
    sl2,
    virasoro,
)

# ---------------------------------------------------------------------------
# value records against frozen-dataclass twins
# ---------------------------------------------------------------------------

# field names in order, as the records were declared when they were frozen
# dataclasses
FIELDS = {
    Defect: ("kind", "indices", "value"),
    Verdict: ("status", "witnesses", "notes"),
    ConformalReport: ("self_product", "central", "action", "weight_zero_space", "failures"),
    BasisVector: ("index", "label", "parity", "weight"),
    Violation: ("kind", "entry", "message"),
    LawViolation: ("law", "generators", "discrepancy"),
    LieData: ("labels", "bracket", "form"),
    BilinearAlgebra: ("labels", "product", "form"),
    NovikovReport: ("identity_failures", "defects_in_central_ideal"),
    SpotcheckReport: ("creation", "vacuum_field", "half_skew", "locality", "translation",
                      "commutator_formula", "failures", "vacuous"),
}


def _samples(cls) -> list:
    """Two unequal records of cls, then one equal to the first but built apart."""
    if cls is LieData:
        return [sl2(), heisenberg(), sl2()]
    if cls is BilinearAlgebra:
        return [dual_numbers(), lambda_algebra(), dual_numbers()]
    spec = virasoro()
    omega = LieElement([(generator(spec, "omega", 2), 3)])
    values = {
        Defect: [("skew", ("omega", 1, "omega"), basis_element(0, 1, F(1, 2))),
                 ("commutator", ("omega", 0, "omega", 1, "omega"), basis_element(1))],
        Verdict: [("undetermined", (), "no decision"), ("injective_zero_ideal", (), "")],
        ConformalReport: [(True, True, False, True, ("action fails",)),
                          (True, True, True, True, ())],
        BasisVector: [(0, "omega", EVEN, F(2)), (1, "tau", ODD, F(3, 2))],
        Violation: [("parity", ("a", 0, "b"), "odd product"), ("weight", (), "weight")],
        LawViolation: [("skew", (generator(spec, "omega", 1),), omega),
                       ("jacobi", (), LieElement())],
        NovikovReport: [(("left symmetry",), False), ((), True)],
        SpotcheckReport: [(True, True, False, True, True, True, ("locality",), ()),
                          (True,) * 6 + ((), ("half_skew",))],
    }[cls]
    return [cls(*values[0]), cls(*values[1]), cls(*[copy.copy(v) for v in values[0]])]


def _twin(cls):
    """A frozen dataclass with the record's name, fields and defaults."""
    fields = [(name, object) for name in FIELDS[cls]]
    if cls is BasisVector:
        fields[2:] = [("parity", int, dataclasses.field(default=EVEN)),
                      ("weight", object, dataclasses.field(default=None))]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


RECORDS = list(FIELDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_eq_hash_repr_match_a_frozen_dataclass(cls) -> None:
    twin = _twin(cls)
    records = _samples(cls)
    twins = [twin(*_values(r)) for r in records]
    assert repr(twins[0]).startswith(f"{cls.__name__}(")
    for r, t in zip(records, twins):
        assert repr(r) == repr(t)
        assert hash(r) == hash(t)
    for a, ta in zip(records, twins):
        for b, tb in zip(records, twins):
            assert (a == b) == (ta == tb)
            assert (a != b) == (ta != tb)
    assert records[0] == records[2] and records[0] != records[1]
    # the class is part of equality: not equal to its twin or to a tuple
    assert records[0] != twins[0] and not records[0] == twins[0]
    assert records[0] != _values(records[0])
    assert len({records[0], records[1], records[2]}) == 2
    with pytest.raises(TypeError):
        records[0] < records[1]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_refuses_assignment_and_deletion(cls) -> None:
    first = FIELDS[cls][0]
    sample = _samples(cls)[0]
    for record in (sample, _twin(cls)(*_values(sample))):
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, first, None)
        with pytest.raises(AttributeError):
            delattr(record, first)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert repr(record) == before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_copy_and_pickle_round_trip(cls) -> None:
    record = _samples(cls)[0]
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls
        assert other == record and hash(other) == hash(record)
        assert repr(other) == repr(record)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_keywords_defaults_and_bad_calls(cls) -> None:
    twin = _twin(cls)
    values = _values(_samples(cls)[0])
    names = FIELDS[cls]
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    assert by_keyword == mixed == cls(*values)
    assert repr(by_keyword) == repr(twin(**dict(zip(names, values))))
    for build in (cls, twin):
        with pytest.raises(TypeError):
            build(*values[:1])  # a required field missing
        with pytest.raises(TypeError):
            build(*values, None)  # one field too many
        with pytest.raises(TypeError):
            build(*values, not_a_field=1)
        with pytest.raises(TypeError):
            build(*values, **{names[0]: values[0]})  # a field given twice


def _vectors() -> list:
    """A nonzero and a zero value of each sparse vector type (a record that
    holds one is covered by test_record_copy_and_pickle_round_trip)."""
    spec = preset("neveu-schwarz")
    pbw = act_word(spec, [LieGenerator(1, -2), LieGenerator(0, -3)])
    return [basis_element(0, 1, F(1, 2)), basis_element(0, 1, 0),
            LieElement({LieGenerator(1, -1): 3, LieGenerator(0, 2): F(-2, 5)}), LieElement(),
            pbw, pbw - pbw]


@pytest.mark.parametrize("value", _vectors(), ids=repr)
def test_vector_copy_and_pickle_round_trip(value) -> None:
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)
        assert repr(other) == repr(value)
    # a pickle carries no hash: string hashes differ from process to process
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol))._hash is None


def test_basis_vector_defaults() -> None:
    twin = _twin(BasisVector)
    for args, kwargs in [((0, "a"), {}), ((0, "a", ODD), {}), ((0, "a"), {"weight": F(1, 2)}),
                         ((), {"label": "a", "index": 3, "parity": ODD})]:
        record, other = BasisVector(*args, **kwargs), twin(*args, **kwargs)
        assert repr(record) == repr(other) and hash(record) == hash(other)
    assert BasisVector(0, "a") == BasisVector(0, "a", EVEN, None)
    with pytest.raises(TypeError):
        BasisVector(0)
    with pytest.raises(TypeError):
        BasisVector(index=0, parity=ODD)


def test_every_record_class_is_covered() -> None:
    from vertexlie.formula import _Record

    found = set()
    for module in pkgutil.iter_modules(vertexlie.__path__):
        namespace = vars(importlib.import_module(f"vertexlie.{module.name}"))
        found |= {value for value in namespace.values()
                  if isinstance(value, type) and issubclass(value, _Record)}
    assert found - {_Record} == set(FIELDS)


def test_replace_and_make_run_the_constructor_checks() -> None:
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError, match="^form is not invariant$"):
        sl2()._replace(form=identity)
    with pytest.raises(ValueError, match="^product table has wrong shape$"):
        BilinearAlgebra._make((("a",), [[[1, 0]]], [[1]]))


# ---------------------------------------------------------------------------
# public names, loaded on first use
# ---------------------------------------------------------------------------

# every public name, by the submodule that defines it
EXPORTED = {
    "defects": (
        "ConformalReport", "Defect", "Verdict", "central_check", "central_reduction",
        "commutator_defect", "conformal_validate", "default_bound", "defect_sweep",
        "injectivity_verdict", "jacobi_component_defect", "membership_central",
        "skew_defect",
    ),
    "formula": (
        "EVEN", "ODD", "BasisVector", "BoundInsufficientError", "CutoffExceededError",
        "Element", "FormulaError", "FormulaSpec", "UngradedError", "Violation", "basis_element",
        "extend_product", "format_element", "gen_binomial", "rat", "validate_spec",
    ),
    "local_algebra": (
        "LawViolation", "LieElement", "LieGenerator", "bracket", "generator",
        "jacobi_window_verify", "lie_D", "reduce_generator", "single",
    ),
    "presets": (
        "PRESETS", "BilinearAlgebra", "LieData", "NovikovReport", "abelian", "affine",
        "comm_assoc", "dual_numbers", "heisenberg", "lambda_algebra", "neveu_schwarz",
        "novikov", "novikov_check", "preset", "sl2", "virasoro",
    ),
    "verma": (
        "NotInjectiveError", "PbwMonomial", "PbwVector", "SpotcheckReport", "act",
        "act_lie", "act_word", "apply_D_module", "axiom_spotcheck", "field_coefficient",
        "graded_dimension", "kappa", "kappa_basis", "monomial_basis", "specialize_level",
        "vacuum",
    ),
}


def test_every_exported_name_is_its_submodule_object() -> None:
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"vertexlie.{module}")
        assert getattr(vertexlie, module) is home
        for name in names:
            assert getattr(vertexlie, name) is getattr(home, name), name


def test_star_import_and_dir_list_every_exported_name() -> None:
    names = [name for group in EXPORTED.values() for name in group]
    assert sorted(vertexlie.__all__) == sorted(names)
    namespace: dict = {}
    exec("from vertexlie import *", namespace)
    for module, group in EXPORTED.items():
        home = importlib.import_module(f"vertexlie.{module}")
        for name in group:
            assert namespace[name] is getattr(home, name), name
    assert set(names) <= set(dir(vertexlie))
    assert "__version__" in dir(vertexlie)


def _reads(tree: ast.AST) -> set:
    """Names a module loads, reads as attributes or spells as strings (the
    benchmark trace wraps functions by name), less those read only inside
    their own definition."""
    out: set = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def test_every_public_name_has_a_reader() -> None:
    # a public name stays only while the package, a README example, the
    # acceptance criteria or the benchmark reads it (the name list in
    # __init__ does not count)
    root = Path(__file__).resolve().parent.parent
    package = Path(vertexlie.__file__).resolve().parent
    sources = [p.read_text() for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources.append((root / "tests" / "test_acceptance.py").read_text())
    sources += [p.read_text() for p in sorted((root / "bench").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    read = set().union(*(_reads(ast.parse(text)) for text in sources))
    assert [name for name in vertexlie.__all__ if name not in read] == []


def test_unknown_name_raises_attribute_error() -> None:
    with pytest.raises(AttributeError, match="^module 'vertexlie' has no attribute 'nope'$"):
        vertexlie.nope
    with pytest.raises(ImportError):
        exec("from vertexlie import nope", {})


# ---------------------------------------------------------------------------
# start-up footprint: which modules a call imports
# ---------------------------------------------------------------------------

_PRELUDE = """\
import sys
before = set(sys.modules)
import io
sys.stdout = io.StringIO()
import vertexlie
"""
_CALLS = {
    "check": """\
from vertexlie import cli
cli.main(["check", "--preset", "virasoro", "--json"])
""",
    "modes": """\
spec = vertexlie.preset("virasoro")
vertexlie.jacobi_window_verify(spec, 2)
vertexlie.bracket(spec, vertexlie.single(spec, "omega", 3), vertexlie.single(spec, "omega", -1))
""",
    "everything": """\
from vertexlie import *
from vertexlie import cli, formula_io, linalg
cli.main(["verma", "--preset", "virasoro", "--cutoff", "4", "--dims"])
""",
}
# modules that must stay unloaded, beyond dataclasses and inspect
_ABSENT = {
    "check": {"vertexlie.verma", "vertexlie.local_algebra", "argparse", "gettext"},
    "modes": {"vertexlie.verma", "vertexlie.cli", "vertexlie.formula_io"},
    "everything": set(),
}
_PRESENT = {
    "check": {"vertexlie.cli", "vertexlie.defects", "vertexlie.formula_io"},
    "modes": {"vertexlie.local_algebra", "vertexlie.presets"},
    "everything": {"vertexlie.verma", "vertexlie.linalg", "vertexlie.cli"},
}


def _loaded_by(call: str) -> set:
    """Modules a fresh interpreter imports between its start and the end of call."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = _PRELUDE + _CALLS[call] + "sys.__stdout__.write(' '.join(set(sys.modules) - before))\n"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    return set(out.split())


@pytest.mark.parametrize("call", sorted(_CALLS))
def test_startup_footprint(call: str) -> None:
    loaded = _loaded_by(call)
    assert _PRESENT[call] <= loaded
    assert not (_ABSENT[call] | {"dataclasses", "inspect"}) & loaded
