"""Acceptance suite: one test per criterion, one printed line each.

Every check is exact (Fraction equality, no tolerances).  Run with
`pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines as they
happen; without -s pytest still shows them for failing criteria.

Criterion 3b is expected to fail and documents a genuine inconsistency:
see its docstring.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction as F

from vertexlie import (
    BilinearAlgebra,
    Element,
    LieElement,
    LieGenerator,
    abelian,
    act_lie,
    act_word,
    affine,
    axiom_spotcheck,
    bracket,
    commutator_defect,
    default_bound,
    defect_sweep,
    dual_numbers,
    extend_product,
    gen_binomial,
    graded_dimension,
    heisenberg,
    injectivity_verdict,
    jacobi_component_defect,
    jacobi_window_verify,
    lambda_algebra,
    membership_central,
    monomial_basis,
    neveu_schwarz,
    novikov,
    novikov_check,
    skew_defect,
    sl2,
    virasoro,
)
from vertexlie.defects import COMMUTATOR, JACOBI
from vertexlie.linalg import RowSpace
from vertexlie.local_algebra import single

VIR = virasoro()
SL2 = affine(sl2())
HEIS = affine(heisenberg())
NS = neveu_schwarz()
ALL_PRESETS = {
    "virasoro": VIR,
    "affine-sl2": SL2,
    "heisenberg": HEIS,
    "loop-abelian": affine(abelian()),
    "neveu-schwarz": NS,
    "novikov-lambda": novikov(lambda_algebra()),
    "comm-assoc-dual": __import__("vertexlie").comm_assoc(dual_numbers(),
                                                          identity="omega"),
}


def criterion(tag: str, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {tag}: {description}")
                raise
            print(f"[PASS] criterion {tag}: {description}")
        return wrapper
    return decorate


def dc(spec, power=1, coeff=1):
    return Element({(power, spec.bid("c")): coeff})


@criterion("1", "conformal Jacobi defect at indices (0,3) is -(1/2)Dc")
def test_criterion_01() -> None:
    assert commutator_defect(VIR, "omega", 0, "omega", 3, "omega") \
        == dc(VIR, 1, F(-1, 2))


@criterion("2", "conformal bracket table matches the closed form on |n|,|m| <= 10")
def test_criterion_02() -> None:
    omega = VIR.bid("omega")
    c = VIR.bid("c")
    for n in range(-10, 11):
        for m in range(-10, 11):
            got = bracket(VIR, single(VIR, "omega", n + 1),
                          single(VIR, "omega", m + 1))
            want: dict = {}
            if n != m:
                want[LieGenerator(omega, n + m + 1)] = F(n - m)
            if n + m == 0:
                central = F(1, 2) * gen_binomial(n + 1, 3)
                if central:
                    want[LieGenerator(c, -1)] = central
            assert got == LieElement(want), (n, m)


@criterion("3a", "affine sweeps carry no commutator/Jacobi defects (zero Jacobi ideal)")
def test_criterion_03a() -> None:
    for spec in (SL2, HEIS):
        sweep = defect_sweep(spec)
        assert all(d.kind not in (COMMUTATOR, JACOBI) for d in sweep)
        B = default_bound(spec)
        for u, v, w in itertools.product(spec.labels, repeat=3):
            for k, m, n in itertools.product(range(B + 1), repeat=3):
                assert jacobi_component_defect(spec, u, k, v, m, w, n).is_zero


@criterion("3b", "affine defect sweeps are literally empty (known impossible)")
def test_criterion_03b() -> None:
    """Documents a genuine inconsistency; this check fails by necessity.

    The skew defect of a pair (x, 0, y) is
    x_0 y + sum_k (-1)^k (D^k/k!) y_k x = [x,y] + [y,x] - <y,x> Dc,
    with the same k = 1 correction term that produces the required
    -(1/12) D^3 c witness for the conformal preset (criterion 1's
    sibling value).  For any affine input with a nonzero invariant form
    the correction -<x,y> Dc is nonzero, so the sweep cannot be empty:
    its skew rows land in the positive D-span of the central vector,
    which criterion 3a and the verdict of 3c account for.  No
    implementation can make this list empty while reproducing the
    conformal defect values, so the literal emptiness assertion below is
    kept faithful and left red.
    """
    for spec in (SL2, HEIS):
        assert defect_sweep(spec) == []


@criterion("3c", "affine verdicts are injective_zero_ideal")
def test_criterion_03c() -> None:
    for spec in (SL2, HEIS):
        verdict = injectivity_verdict(spec)
        assert verdict.status == "injective_zero_ideal"
        assert verdict.injective


@criterion("4", "weight-2 formula is central-clean exactly for admissible products")
def test_criterion_04() -> None:
    passing = [
        lambda_algebra((1, 0)),
        lambda_algebra((1, F(1, 2), 0), labels=("omega", "a", "b")),
        dual_numbers(),
        BilinearAlgebra(("u",), [[[0]]], [[0]]),
    ]
    failing = [
        lambda_algebra((1, 0), flipped=True),
        lambda_algebra((1, 2, 3), flipped=True),
    ]
    assert len(passing) >= 3 and len(failing) >= 2
    for algebra in passing + failing:
        report = novikov_check(algebra)
        spec = novikov(algebra)
        in_ideal = all(membership_central(spec, d.value, "c")
                       for d in defect_sweep(spec))
        assert report.ok == in_ideal == report.defects_in_central_ideal
        assert (algebra in passing) == report.ok


@criterion("5", "weight-2 bracket closed forms hold on |n|,|m| <= 6")
def test_criterion_05() -> None:
    # left-symmetric family: [u(n), v(m)] =
    #   (n+1)(v.u)(n+m) - (m+1)(u.v)(n+m) + (1/2)(n+1 over 3) d_{n+m,0} <u,v> c
    algebra = lambda_algebra((1, 0))
    spec = novikov(algebra)
    cid = spec.central
    for n in range(-6, 7):
        for m in range(-6, 7):
            for i, li in enumerate(algebra.labels):
                for j, lj in enumerate(algebra.labels):
                    got = bracket(spec, single(spec, li, n + 1),
                                  single(spec, lj, m + 1))
                    want: dict = {}
                    vu = algebra.mul_vec(algebra.unit(j), algebra.unit(i))
                    uv = algebra.mul_vec(algebra.unit(i), algebra.unit(j))
                    for t, coeff in enumerate(vu):
                        key = LieGenerator(spec.bid(algebra.labels[t]), n + m + 1)
                        want[key] = want.get(key, 0) + (n + 1) * coeff
                    for t, coeff in enumerate(uv):
                        key = LieGenerator(spec.bid(algebra.labels[t]), n + m + 1)
                        want[key] = want.get(key, 0) - (m + 1) * coeff
                    if n + m == 0:
                        central = F(1, 2) * gen_binomial(n + 1, 3) * algebra.form[i][j]
                        if central:
                            key = LieGenerator(cid, -1)
                            want[key] = want.get(key, 0) + central
                    assert got == LieElement(want), (n, m, li, lj)

    # commutative family: [u(n), v(m)] = (n-m)(u.v)(n+m) + central term
    algebra4 = dual_numbers()
    spec4 = __import__("vertexlie").comm_assoc(algebra4, identity="omega")
    cid4 = spec4.central
    for n in range(-6, 7):
        for m in range(-6, 7):
            for i, li in enumerate(algebra4.labels):
                for j, lj in enumerate(algebra4.labels):
                    got = bracket(spec4, single(spec4, li, n + 1),
                                  single(spec4, lj, m + 1))
                    want = {}
                    uv = algebra4.mul_vec(algebra4.unit(i), algebra4.unit(j))
                    if n != m:
                        for t, coeff in enumerate(uv):
                            if coeff:
                                key = LieGenerator(
                                    spec4.bid(algebra4.labels[t]), n + m + 1)
                                want[key] = (n - m) * coeff
                    if n + m == 0:
                        central = F(1, 2) * gen_binomial(n + 1, 3) \
                            * algebra4.form[i][j]
                        if central:
                            key = LieGenerator(cid4, -1)
                            want[key] = want.get(key, 0) + central
                    assert got == LieElement(want), (n, m, li, lj)


def enumerate_partitions(total: int, minimum: int):
    """Brute-force enumerator of partitions with all parts >= minimum."""
    if total == 0:
        yield ()
        return
    for part in range(minimum, total + 1):
        for rest in enumerate_partitions(total - part, part):
            yield (part,) + rest


@criterion("6", "graded dimensions match independent partition enumerators")
def test_criterion_06() -> None:
    dims_v = graded_dimension(VIR, 9)
    expected_v = [len(list(enumerate_partitions(n, 2))) for n in range(10)]
    assert expected_v == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8]
    assert [dims_v[F(n)] for n in range(10)] == expected_v

    dims_h = graded_dimension(HEIS, 7)
    expected_h = [len(list(enumerate_partitions(n, 1))) for n in range(8)]
    assert expected_h == [1, 1, 2, 3, 5, 7, 11, 15]
    assert [dims_h[F(n)] for n in range(8)] == expected_h


@criterion("7", "mode-algebra laws hold on window 6 (even) and window 4 (super)")
def test_criterion_07() -> None:
    assert jacobi_window_verify(VIR, 6) == []
    assert jacobi_window_verify(SL2, 6) == []
    assert jacobi_window_verify(HEIS, 6) == []
    assert jacobi_window_verify(NS, 4) == []


@criterion("8", "sl2 triple acts correctly on every graded piece up to weight 6")
def test_criterion_08() -> None:
    omega = VIR.bid("omega")
    e = LieElement({LieGenerator(omega, 2): -1})
    h = LieElement({LieGenerator(omega, 1): -2})
    f = LieElement({LieGenerator(omega, 0): 1})

    def commutator(x, y, v):
        return act_lie(VIR, x, act_lie(VIR, y, v)) \
            - act_lie(VIR, y, act_lie(VIR, x, v))

    basis = monomial_basis(VIR, 6)
    checked = 0
    for monos in basis.values():
        for mono in monos:
            v = act_word(VIR, mono.factors)
            assert commutator(h, e, v) == 2 * act_lie(VIR, e, v)
            assert commutator(h, f, v) == -2 * act_lie(VIR, f, v)
            assert commutator(e, f, v) == act_lie(VIR, h, v)
            checked += 1
    assert checked == sum(len(m) for m in basis.values())


@criterion("9", "field axioms verified on graded pieces up to weight 6")
def test_criterion_09() -> None:
    for spec in (VIR, HEIS):
        report = axiom_spotcheck(spec, 6)
        assert report.creation, report.failures
        assert report.vacuum_field, report.failures
        assert report.half_skew, report.failures
        assert report.locality, report.failures
        assert report.translation, report.failures
        assert report.commutator_formula, report.failures
        assert report.ok


@criterion("10", "Jacobi components lie in the Q-span of commutator defects")
def test_criterion_10() -> None:
    for name, spec in ALL_PRESETS.items():
        bound = default_bound(spec)
        rows = RowSpace(dict(d.value.items())
                        for d in defect_sweep(spec) if d.kind == COMMUTATOR)
        for u, v, w in itertools.product(spec.labels, repeat=3):
            for k, m, n in itertools.product(range(bound + 1), repeat=3):
                value = jacobi_component_defect(spec, u, k, v, m, w, n)
                if k == 0:
                    assert value == commutator_defect(spec, u, m, v, n, w)
                if value:
                    assert rows.contains(dict(value.items())), \
                        (name, u, k, v, m, w, n)


@criterion("11", "every defect and product at the default bound is zero")
def test_criterion_11() -> None:
    for name, spec in ALL_PRESETS.items():
        bound = default_bound(spec)
        for u, v in itertools.product(spec.labels, repeat=2):
            assert skew_defect(spec, u, bound, v).is_zero, name
            assert extend_product(
                spec, Element({(0, spec.bid(u)): 1}), bound,
                Element({(0, spec.bid(v)): 1})).is_zero, name
        for u, v, w in itertools.product(spec.labels, repeat=3):
            for other in range(bound + 1):
                assert commutator_defect(spec, u, bound, v, other, w).is_zero, name
                assert commutator_defect(spec, u, other, v, bound, w).is_zero, name
        # the sweep's internal guard re-checks the same rows
        defect_sweep(spec, bound)
