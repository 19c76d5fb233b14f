"""The package's value classes keep the behaviour of frozen dataclasses, and the
package imports without ``dataclasses``, ``inspect`` or ``typing``."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import toda_spectrum
from toda_spectrum.exact_poly import RationalMatrix, RationalPolynomial
from toda_spectrum.masses import AdjacencyEigenvalues, MassMethod, NormalizationInfo, Spectrum
from toda_spectrum.record import asdict
from toda_spectrum.report import CheckReport, CheckResult, ExactCheckResult
from toda_spectrum.root_systems import (
    AlgebraId,
    CartanMatrix,
    InvalidAlgebraError,
    RootSystem,
    generate_roots,
)
from toda_spectrum.spectral import EigenDecomposition, PerronVector

F = Fraction
E8 = AlgebraId("E", 8)
NORM = NormalizationInfo("absolute", "fixed", 1.0)
CHECK = CheckResult("c", 0.5, 1.0, True)
A1_CARTAN = CartanMatrix(((2,),))

# per class: its fields by keyword (normalised values, in declaration order),
# the same fields with one value changed, and the repr of the first instance
CASES = [
    (
        RationalPolynomial,
        {"coefficients": (F(1), F(-1, 2))},
        {"coefficients": (F(1),)},
        "RationalPolynomial(coefficients=(Fraction(1, 1), Fraction(-1, 2)))",
    ),
    (
        RationalMatrix,
        {"rows": ((4, 8), (12, 1)), "denominator": 4},
        {"rows": ((1,),), "denominator": 1},
        "RationalMatrix(rows=((4, 8), (12, 1)), denominator=4)",
    ),
    (
        NormalizationInfo,
        {"kind": "max", "fixed": "heaviest mass = 1", "scale": 0.5},
        {"kind": "max", "fixed": "heaviest mass = 1", "scale": 0.25},
        "NormalizationInfo(kind='max', fixed='heaviest mass = 1', scale=0.5)",
    ),
    (
        Spectrum,
        {
            "algebra": AlgebraId("A", 1),
            "masses": (2.0,),
            "mass_squares": (4.0,),
            "method": MassMethod.MASS_MATRIX,
            "normalization": NORM,
        },
        {
            "algebra": AlgebraId("A", 1),
            "masses": (2.0,),
            "mass_squares": (4.0,),
            "method": MassMethod.PERRON_FROBENIUS,
            "normalization": NORM,
        },
        "Spectrum(algebra=AlgebraId(family='A', rank=1), masses=(2.0,), mass_squares=(4.0,), "
        "method=<MassMethod.MASS_MATRIX: 'massmatrix'>, normalization=NormalizationInfo("
        "kind='absolute', fixed='fixed', scale=1.0))",
    ),
    (
        AdjacencyEigenvalues,
        {"eigenvalues": (1.0, -1.0)},
        {"eigenvalues": (1.0, 0.0, -1.0)},
        "AdjacencyEigenvalues(eigenvalues=(1.0, -1.0))",
    ),
    (
        CheckResult,
        {"name": "c", "residual": 0.5, "tolerance": 1.0, "passed": True, "detail": ""},
        {"name": "c", "residual": 0.5, "tolerance": 1.0, "passed": True, "detail": "d"},
        "CheckResult(name='c', residual=0.5, tolerance=1.0, passed=True, detail='')",
    ),
    (
        CheckReport,
        {"checks": (CHECK,)},
        {"checks": ()},
        "CheckReport(checks=(CheckResult(name='c', residual=0.5, tolerance=1.0, passed=True, "
        "detail=''),))",
    ),
    (
        AlgebraId,
        {"family": "E", "rank": 8},
        {"family": "E", "rank": 7},
        "AlgebraId(family='E', rank=8)",
    ),
    (
        CartanMatrix,
        {"entries": ((2, -1), (-1, 2))},
        {"entries": ((2, -2), (-1, 2))},
        "CartanMatrix(entries=((2, -1), (-1, 2)))",
    ),
    (
        RootSystem,
        {"cartan": A1_CARTAN},
        {"cartan": CartanMatrix(((2, -1), (-1, 2)))},
        "RootSystem(cartan=CartanMatrix(entries=((2,),)))",
    ),
    (
        EigenDecomposition,
        {"eigenvalues": (1.0,), "eigenvectors": ((1.0,),)},
        {"eigenvalues": (2.0,), "eigenvectors": ((1.0,),)},
        "EigenDecomposition(eigenvalues=(1.0,), eigenvectors=((1.0,),))",
    ),
    (
        PerronVector,
        {"components": (1.0, 1.0), "eigenvalue": 1.0},
        {"components": (1.0, 2.0), "eigenvalue": 1.0},
        "PerronVector(components=(1.0, 1.0), eigenvalue=1.0)",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_construction_repr_eq_and_hash_are_the_dataclass_ones(cls, fields, changed, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert repr(by_position) == repr(by_keyword) == text
    assert by_position == by_keyword and not by_position != by_keyword
    # the dataclass hash: the hash of the tuple of field values
    assert hash(by_position) == hash(by_keyword) == hash(tuple(fields.values()))
    assert tuple(getattr(by_position, f) for f in fields) == tuple(fields.values())
    assert asdict(by_position) == fields
    other = cls(**changed)
    assert other != by_position and not other == by_position
    # equality holds only within one class, never with a plain tuple of the values
    assert by_position != tuple(fields.values())
    assert by_position.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, fields, changed, text):
    obj = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert repr(obj) == text


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_missing_unexpected_or_repeated_arguments_raise_type_error(cls, fields, changed, text):
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, not_a_field=None)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    rest = dict(fields)
    del rest[first]
    with pytest.raises(TypeError):
        cls(**rest)


def test_default_field_value():
    result = CheckResult("c", 0.5, 1.0, True)
    assert result.detail == ""
    assert result == CheckResult(name="c", residual=0.5, tolerance=1.0, passed=True, detail="")
    assert CheckResult("c", 0.5, 1.0, True, "d").detail == "d"


def test_exact_check_result_is_its_own_class():
    exact = ExactCheckResult("c", 0.0, 0.0, True)
    plain = CheckResult("c", 0.0, 0.0, True)
    assert exact != plain and plain != exact
    assert exact == ExactCheckResult("c", 0.0, 0.0, True)
    assert hash(exact) == hash(plain)
    assert repr(exact) == (
        "ExactCheckResult(name='c', residual=0.0, tolerance=0.0, passed=True, detail='')"
    )
    with pytest.raises(AttributeError):
        exact.passed = False


def test_algebra_ids_sort_by_family_then_rank():
    ids = [AlgebraId("E", 8), AlgebraId("A", 12), AlgebraId("D", 4), AlgebraId("A", 3), E8]
    assert sorted(ids) == [
        AlgebraId("A", 3),
        AlgebraId("A", 12),
        AlgebraId("D", 4),
        AlgebraId("E", 8),
        AlgebraId("E", 8),
    ]
    assert AlgebraId("A", 3) < AlgebraId("A", 12) <= AlgebraId("A", 12)
    assert AlgebraId("B", 2) > AlgebraId("A", 9) >= AlgebraId("A", 9)
    with pytest.raises(TypeError):
        AlgebraId("A", 3) < ("A", 4)
    with pytest.raises(TypeError):
        CheckResult("a", 0.0, 0.0, True) < CheckResult("b", 0.0, 0.0, True)


def test_post_init_normalises_and_validates():
    assert RationalPolynomial((1, 2, 0, 0)).coefficients == (F(1), F(2))
    assert RationalPolynomial((0, 0)) == RationalPolynomial(())
    assert RationalMatrix(((1, 2), (3, 4))).entries == ((F(1), F(2)), (F(3), F(4)))
    with pytest.raises(InvalidAlgebraError):
        AlgebraId("A", 0)
    with pytest.raises(InvalidAlgebraError):
        AlgebraId(family="Q", rank=3)
    with pytest.raises(ValueError):
        RationalMatrix(((1, 2),))


def test_cached_properties_are_computed_once_and_kept():
    cartan = CartanMatrix(((2, -1, 0), (-1, 2, -1), (0, -1, 2)))
    assert cartan.bonds is cartan.bonds
    assert cartan.tree_order is cartan.tree_order
    assert cartan.tree_order == ((0, -1), (1, 0), (2, 1))
    rs = generate_roots(cartan)
    derived = ("symmetrizers", "gram", "marks", "positive_roots")
    assert not set(derived) & set(vars(rs))
    for name in derived:
        value = getattr(rs, name)
        assert vars(rs)[name] is value and getattr(rs, name) is value
    assert len(rs.positive_roots) == 6
    assert rs.coxeter_number == 4 and "coxeter_number" not in vars(rs)
    # the cached values sit outside the one field: equality, hash and asdict do not see them
    fresh = RootSystem(rs.cartan)
    assert fresh == rs and hash(fresh) == hash(rs) and repr(fresh) == repr(rs)
    assert asdict(fresh) == asdict(rs) == {"cartan": cartan}
    # nothing derived can be given, so no root system disagrees with its matrix
    with pytest.raises(TypeError):
        RootSystem(cartan, rs.symmetrizers, rs.gram, (1, 1, 1), 99)
    with pytest.raises(TypeError):
        RootSystem(cartan=cartan, marks=(1, 1, 1))


def test_import_loads_no_class_synthesis_and_no_typing():
    # -S keeps the site step, which may import typing, out of the baseline
    src = str(Path(toda_spectrum.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys; before = set(sys.modules); import toda_spectrum; "
        "print(*sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    added = set(out.split())
    assert not {"dataclasses", "inspect", "typing"} & added
    # perfbench/tracer.py reads these from sys.modules right after the import
    layers = {"root_systems", "exact_poly", "masses", "spectral", "radicals"}
    assert {f"toda_spectrum.{m}" for m in layers} <= added
