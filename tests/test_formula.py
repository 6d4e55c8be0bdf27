from __future__ import annotations

import ast
import random
import re
import sys
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest

import vertexlie
from vertexlie import (
    EVEN,
    PRESETS,
    Element,
    FormulaSpec,
    LieData,
    LieElement,
    LieGenerator,
    UngradedError,
    act_word,
    basis_element,
    bracket,
    commutator_defect,
    defect_sweep,
    extend_product,
    field_coefficient,
    format_element,
    gen_binomial,
    generator,
    graded_dimension,
    injectivity_verdict,
    jacobi_component_defect,
    jacobi_window_verify,
    kappa,
    kappa_basis,
    lie_D,
    monomial_basis,
    preset,
    rat,
    reduce_generator,
    skew_defect,
    specialize_level,
    validate_spec,
    virasoro,
)
from vertexlie.formula import Violation, _rat, falling

# typo'd presets and seeded random tables, shared with the sweep tests
from test_defects import (TYPO_TABLES, _assert_stored_nonzero_fractions, _graded_random_tables,
                          _random_tables, _typo, apply_D)

VIR = virasoro()
OM = basis_element(VIR.bid("omega"))
C = basis_element(VIR.bid("c"))


def brute_binomial(n: int, i: int) -> F:
    out = F(1)
    for j in range(i):
        out *= F(n - j, j + 1)
    return out


def test_gen_binomial_values() -> None:
    assert gen_binomial(3, 3) == 1
    assert gen_binomial(-1, 2) == 1  # (-1)(-2)/2
    assert gen_binomial(2, 5) == 0  # falling factorial hits zero
    assert gen_binomial(-2, 3) == -4
    assert gen_binomial(7, 0) == 1


def test_gen_binomial_against_product_oracle() -> None:
    for n in range(-8, 9):
        for i in range(0, 8):
            assert gen_binomial(n, i) == brute_binomial(n, i)
    for n in range(-12, 13):
        for i in range(0, 9):
            value = gen_binomial(n, i)
            assert type(value) is int and value == brute_binomial(n, i)


def test_gen_binomial_rejects_negative_lower_index() -> None:
    with pytest.raises(ValueError):
        gen_binomial(3, -1)


def test_falling_and_gen_binomial_match_the_product_loop() -> None:
    # the closed forms through math.perm and math.comb, against the defining
    # product n(n-1)...(n-i+1) and (n choose i) = that product / i!
    for n in range(-60, 61):
        for i in range(25):
            product = 1
            for j in range(i):
                product *= n - j
            assert type(falling(n, i)) is int and falling(n, i) == product, (n, i)
            assert type(gen_binomial(n, i)) is int, (n, i)
            assert gen_binomial(n, i) * factorial(i) == product, (n, i)
    for n in (-3, 0, 3):
        with pytest.raises(ValueError):
            falling(n, -1)


def test_falling_zeroes_out_in_range() -> None:
    assert falling(3, 5) == 0
    assert falling(-1, 3) == -6
    assert falling(4, 2) == 12


def test_rat_coercions() -> None:
    assert rat("3/4") == F(3, 4)
    assert rat(5) == F(5)
    assert rat(F(1, 2)) == F(1, 2)
    assert rat(" -6/4 ") == F(-3, 2)
    with pytest.raises(TypeError):
        rat(0.5)
    # integers and p/q only, as in the text format
    for text in ("1.5", "1e3", "1/0", "3/-4", "1_000", ""):
        with pytest.raises(ValueError, match="bad rational"):
            rat(text)


def test_element_arithmetic_and_canonical_form() -> None:
    a = Element({(0, 0): 1, (2, 1): F(1, 2)})
    b = Element({(0, 0): -1, (1, 0): 3})
    s = a + b
    assert s.coeff((0, 0)) == 0
    assert s.coeff((1, 0)) == 3
    assert (a - a).is_zero
    assert not Element()
    assert a.scale(0).is_zero
    assert (2 * a).coeff((2, 1)) == 1
    assert a == Element([((2, 1), F(1, 2)), ((0, 0), F(1, 2)), ((0, 0), F(1, 2))])
    assert hash(a) == hash(Element({(2, 1): F(1, 2), (0, 0): 1}))
    # vectors of different types do not mix: each operator defers, then refuses
    x = LieElement({LieGenerator(0, 0): 1})
    for op in (a.__add__, a.__sub__, a.__eq__):
        assert op(x) is NotImplemented
    with pytest.raises(TypeError):
        a + x
    with pytest.raises(TypeError):
        a - x
    assert a != x and a != {(0, 0): 1}


def _equal_vectors_built_apart() -> list:
    """Groups of equal vectors of each type, built in different ways: terms
    in another insertion order, the public constructor or _of, 2 or
    Fraction(2), and sums in another order."""
    g, h = LieGenerator(0, 2), LieGenerator(1, -1)
    lie = [LieElement({g: 2, h: F(1, 3)}), LieElement({h: F(1, 3), g: F(2)}),
           LieElement([(h, F(2, 6)), (g, 1), (g, F(1, 1))]), LieElement._of({h: F(1, 3), g: 2})]
    elements = [Element({(0, 0): 2, (1, 1): F(-1, 2)}), Element({(1, 1): F(-1, 2), (0, 0): F(2)}),
                Element._of({(1, 1): F(-1, 2), (0, 0): 2}),
                Element({(1, 1): F(-1, 2)}) + Element({(0, 0): 2})]
    a = act_word(VIR, [generator(VIR, "omega", -2)])
    b = act_word(VIR, [generator(VIR, "omega", -1), generator(VIR, "omega", -1)]).scale(F(1, 2))
    pbw = [a + b, b + a, (a + b).scale(2).scale(F(1, 2)),
           type(a)._of(dict(reversed(list((a + b)._terms.items()))))]
    return [lie, elements, pbw]


def test_equal_vectors_hash_equal_however_built() -> None:
    for group in _equal_vectors_built_apart():
        assert all(v == group[0] and v is not group[0] for v in group[1:])
        assert len({hash(v) for v in group}) == 1
        assert len(set(group)) == 1


def test_hashing_a_vector_calls_no_fraction_hash(monkeypatch) -> None:
    calls = []
    real = F.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(F, "__hash__", counted)
    assert hash(F(1, 3)) == real(F(1, 3)) and calls  # the count sees a Fraction hash
    calls.clear()
    groups = _equal_vectors_built_apart()
    assert all(any(type(c) is F for v in group for c in v._terms.values()) for group in groups)
    for group in groups:
        assert len({hash(v) for v in group}) == 1
    x = LieElement({generator(VIR, "omega", 3): F(1, 2), generator(VIR, "c", 0): F(-2, 3)})
    y = LieElement({generator(VIR, "omega", -1): F(5, 7)})
    assert bracket(VIR, x, y) is bracket(VIR, LieElement(x.items()), y)  # a first ask, a repeat
    assert calls == []


def test_element_rejects_negative_d_power() -> None:
    with pytest.raises(ValueError, match="^D-power must be nonnegative$"):
        Element({(-1, 0): 1})
    with pytest.raises(ValueError, match="^D-power must be nonnegative$"):
        basis_element(0, k=-1)
    # True and 1.0 hash like the D-power 1, but neither is one
    for k in (True, False, 1.0):
        message = re.escape(f"D-power must be an integer, got {k!r}")
        with pytest.raises(TypeError, match=message):
            Element({(k, 0): 1})
        with pytest.raises(TypeError, match=message):
            basis_element(0, k=k)


def test_spec_lookup_and_errors() -> None:
    assert VIR.bid("omega") == 0
    assert VIR.bid(1) == 1
    with pytest.raises(KeyError):
        VIR.bid("nope")
    assert VIR.n_max == 4 and VIR.k_max == 1
    assert VIR.graded
    assert repr(VIR) == "<FormulaSpec 'virasoro' dim=2 n_max=4 k_max=1>"
    assert repr(FormulaSpec([], {})) == "<FormulaSpec dim=0 n_max=0 k_max=0>"
    assert VIR.__eq__("virasoro") is NotImplemented and VIR != "virasoro"


def test_spec_lookup_refuses_bad_references() -> None:
    with pytest.raises(KeyError, match="^'no basis vector number 99'$"):
        VIR.bid(99)
    with pytest.raises(TypeError, match=r"^cannot use 1\.5 as a basis reference$"):
        VIR.bid(1.5)
    with pytest.raises(UngradedError, match="^formula carries no weights$"):
        FormulaSpec([("a", EVEN)], {}).weight("a")
    assert VIR.weight("omega") == 2


def test_spec_rejects_bad_data() -> None:
    with pytest.raises(ValueError):
        FormulaSpec([("a", EVEN), ("a", EVEN)], {})
    with pytest.raises(ValueError):
        FormulaSpec([("a", 2)], {})
    with pytest.raises(ValueError):
        FormulaSpec([("a", EVEN, -1)], {})
    with pytest.raises(ValueError):
        FormulaSpec([("a", EVEN, 1), ("b", EVEN)], {})
    with pytest.raises(ValueError, match="^product index must be nonnegative$"):
        FormulaSpec([("a", EVEN)], {("a", -1, "a"): {(0, "a"): 1}})
    # a bool or float index or D-power would export as a file that does not parse
    for n in (True, 1.0):
        with pytest.raises(TypeError,
                           match=re.escape(f"product index must be an integer, got {n!r}")):
            FormulaSpec([("a", EVEN)], {("a", n, "a"): {(0, "a"): 1}})
        with pytest.raises(TypeError, match=re.escape(f"D-power must be an integer, got {n!r}")):
            FormulaSpec([("a", EVEN)], {("a", 0, "a"): {(n, "a"): 1}})
    # factorial() overflows above sys.maxsize, and a D-power loops once per unit
    big = sys.maxsize + 1
    for n, k in ((big, 0), (0, big), (big, big)):
        with pytest.raises(ValueError,
                           match="^product index and D-power must be at most sys.maxsize$"):
            FormulaSpec([("a", EVEN)], {("a", n, "a"): {(k, "a"): 1}})
    at_max = FormulaSpec([("a", EVEN)], {("a", sys.maxsize, "a"): {(sys.maxsize, "a"): 1}})
    assert (at_max.n_max, at_max.k_max) == (sys.maxsize + 1, sys.maxsize)
    # two different central vectors; the same one named twice is fine
    with pytest.raises(ValueError):
        FormulaSpec([("a", EVEN), ("c", EVEN)], {}, central="a", conformal=("a", "c"))
    assert FormulaSpec([("a", EVEN), ("c", EVEN)], {}, central=1,
                       conformal=("a", "c")).central == 1


def test_constant_checks_the_product_index() -> None:
    assert VIR.constant("omega", 1, "omega") == Element({(0, 0): 2})
    # 1.0, True and Fraction(1) hash like the key 1, but none is an index
    for n in (1.0, True, F(1), "1"):
        with pytest.raises(TypeError,
                           match=re.escape(f"product index must be an integer, got {n!r}")):
            VIR.constant("omega", n, "omega")
    with pytest.raises(ValueError, match="^product index must be nonnegative$"):
        VIR.constant("omega", -1, "omega")


# every entry point that takes an index: (call on the index, the message for a
# negative one, or None where a negative index is valid)
INDEX_CALLS = {
    "basis_element": (lambda k: basis_element(0, k=k), "D-power must be nonnegative"),
    "FormulaSpec": (lambda k: FormulaSpec([("a", EVEN)], {("a", k, "a"): {(0, "a"): 1}}),
                    "product index must be nonnegative"),
    "extend_product": (lambda k: extend_product(VIR, OM, k, OM),
                       "product index must be nonnegative"),
    "skew_defect": (lambda k: skew_defect(VIR, "omega", k, "omega"), "index must be nonnegative"),
    "commutator_defect m": (lambda k: commutator_defect(VIR, "omega", k, "omega", 0, "omega"),
                            "indices must be nonnegative"),
    "commutator_defect n": (lambda k: commutator_defect(VIR, "omega", 0, "omega", k, "omega"),
                            "indices must be nonnegative"),
    "jacobi_component_defect k": (
        lambda k: jacobi_component_defect(VIR, "omega", k, "omega", 0, "omega", 0),
        "indices must be nonnegative"),
    "jacobi_component_defect m": (
        lambda k: jacobi_component_defect(VIR, "omega", 0, "omega", k, "omega", 0),
        "indices must be nonnegative"),
    "jacobi_component_defect n": (
        lambda k: jacobi_component_defect(VIR, "omega", 0, "omega", 0, "omega", k),
        "indices must be nonnegative"),
    # loop-abelian has no products, so every bound is sufficient
    "defect_sweep": (lambda k: defect_sweep(preset("loop-abelian"), k),
                     "bound must be nonnegative"),
    "jacobi_window_verify": (lambda k: jacobi_window_verify(VIR, k),
                             "window must be nonnegative"),
    "reduce_generator": (lambda k: reduce_generator(VIR, OM, k), None),
}


@pytest.mark.parametrize("name", sorted(INDEX_CALLS))
def test_index_arguments_must_be_ints(name: str) -> None:
    # basis_element(0, k=1.0) would key an Element by the float 1.0, which
    # then exports as a D-power that parse_formula refuses
    call, negative = INDEX_CALLS[name]
    for bad in (1.0, 1.5, True, False, F(1), "1"):
        with pytest.raises(TypeError, match=r" must be an integer, got " + re.escape(repr(bad))):
            call(bad)
    call(1)
    if negative is None:
        call(-1)
    else:
        with pytest.raises(ValueError, match=f"^{negative}$"):
            call(-1)


def test_parity_must_be_the_int_0_or_1() -> None:
    # True == 1 and 1.0 == 1, but a parity is stored as given: no bool, no float
    for bad in (True, False, 1.0, 0.0, 2):
        with pytest.raises(ValueError, match="^parity of 'a' must be 0 or 1$"):
            FormulaSpec([("a", bad)], {})
    for good in (0, 1):
        parity = FormulaSpec([("a", good)], {}).parity("a")
        assert type(parity) is int and parity == good


def test_a_bool_is_not_a_basis_index() -> None:
    # True == 1 and hashes like it, but names no basis vector
    for bad in (True, False):
        message = re.escape(f"cannot use {bad!r} as a basis reference")
        for call in (lambda: VIR.bid(bad), lambda: generator(VIR, bad, 0),
                     lambda: skew_defect(VIR, bad, 0, "omega"),
                     lambda: FormulaSpec([("a", EVEN), ("c", EVEN)], {}, central=bad)):
            with pytest.raises(TypeError, match=f"^{message}$"):
                call()
    assert (VIR.bid(0), VIR.bid(1), VIR.bid("c")) == (0, 1, 1)
    assert generator(VIR, 1, 0) == generator(VIR, "c", 0) == LieGenerator(1, 0)
    assert skew_defect(VIR, 0, 0, 0) == skew_defect(VIR, "omega", 0, "omega")
    assert FormulaSpec([("a", EVEN), ("c", EVEN)], {}, central=1).central == 1


def test_a_bool_is_not_a_rational_number() -> None:
    # True == 1, but a coefficient, weight or scale factor is a number, not a flag
    vec = Element({(0, 0): 1})
    for bad in (True, False):
        for call in (lambda: rat(bad), lambda: _rat(bad), lambda: Element({(0, 0): bad}),
                     lambda: LieElement({LieGenerator(0, 0): bad}),
                     lambda: FormulaSpec([("a", EVEN, bad)], {}),
                     lambda: LieData(["x"], [[[bad]]], [[1]]),
                     lambda: LieData(["x"], [[[0]]], [[bad]]), lambda: vec.scale(bad)):
            with pytest.raises(TypeError, match=f"^cannot read {bad!r} as a rational number$"):
                call()
    assert FormulaSpec([("a", EVEN, 1)], {}).weight("a") == 1
    assert vec.scale(1) is vec and rat(1) == _rat(1) == 1


def test_basis_entries_have_two_or_three_fields() -> None:
    message = r"^basis entry 1 must be \(label, parity\) or \(label, parity, weight\)$"
    for bad in (("b", EVEN, 1, 2), ("b",), ()):
        with pytest.raises(ValueError, match=message):
            FormulaSpec([("a", EVEN, 1), bad], {})
    assert FormulaSpec([("a", EVEN), ("b", EVEN, None)], {}).labels == ("a", "b")


def test_validate_spec_clean_presets() -> None:
    assert validate_spec(VIR) == []
    assert validate_spec(FormulaSpec([], {})) == []


def test_validate_spec_weight_violation() -> None:
    # same constants as the conformal preset but the generator claimed at weight 3
    broken = FormulaSpec(
        [("omega", EVEN, 3), ("c", EVEN, 0)],
        {
            ("omega", 0, "omega"): {(1, "omega"): 1},
            ("omega", 1, "omega"): {(0, "omega"): 2},
            ("omega", 3, "omega"): {(0, "c"): F(1, 2)},
        },
    )
    violations = validate_spec(broken)
    assert violations
    assert any(v.kind == "weight" and v.entry[:3] == ("omega", 1, "omega")
               for v in violations)


def test_validate_spec_parity_violation() -> None:
    from vertexlie import ODD

    broken = FormulaSpec([("a", EVEN), ("t", ODD)],
                         {("a", 0, "a"): {(0, "t"): 1}})
    violations = validate_spec(broken)
    assert [v.kind for v in violations] == ["parity"]


def _validate_by_accessors(spec: FormulaSpec) -> list:
    """validate_spec as written through spec.parity() and spec.weight(), in Fractions."""
    out = []
    labels = spec.labels
    for (uid, n, vid), elt in spec.constant_entries():
        lu, lv = labels[uid], labels[vid]
        want_parity = (spec.parity(uid) + spec.parity(vid)) % 2
        for (k, tid), _c in elt.items():
            lt = labels[tid]
            if spec.parity(tid) != want_parity:
                out.append(Violation(
                    "parity", (lu, n, lv, k, lt),
                    f"({lu},{n},{lv}) at D-power {k}: {lt} has parity "
                    f"{spec.parity(tid)}, expected {want_parity}"))
            if spec.graded:
                want = spec.weight(uid) + spec.weight(vid) - n - 1 - k
                if spec.weight(tid) != want:
                    out.append(Violation(
                        "weight", (lu, n, lv, k, lt),
                        f"({lu},{n},{lv}) at D-power {k}: {lt} has weight "
                        f"{spec.weight(tid)}, expected {want}"))
    return out


def test_validate_spec_matches_the_accessor_reading() -> None:
    specs = [preset(name) for name in sorted(PRESETS)]
    specs += [TYPO_TABLES[name]() for name in sorted(TYPO_TABLES)]
    specs += _random_tables(random.Random(11), 20)
    specs += _graded_random_tables(random.Random(13), 40)
    # parity and weight violations on neveu-schwarz (weights 3/2, 2, 0); the
    # first product's terms come out of order, but violations follow term order
    specs += [_typo("neveu-schwarz", {("tau", 0, "tau"): {(1, "c"): 2, (0, "tau"): 1}}),
              _typo("neveu-schwarz", {("omega", 1, "tau"): {(1, "c"): F(2, 3)},
                                      ("tau", 2, "omega"): {(0, "tau"): 1}})]
    kinds = set()
    for spec in specs:
        got = validate_spec(spec)
        assert got == _validate_by_accessors(spec), list(spec.constant_entries())
        kinds.update((v.kind, "/" in v.message) for v in got)
    # both kinds, with fractional weights on either side of a message
    assert kinds == {("parity", False), ("weight", False), ("weight", True)}


def test_product_on_basis_matches_table() -> None:
    assert extend_product(VIR, OM, 0, OM) == Element({(1, 0): 1})
    assert extend_product(VIR, OM, 1, OM) == Element({(0, 0): 2})
    assert extend_product(VIR, OM, 2, OM).is_zero
    assert extend_product(VIR, OM, 3, OM) == Element({(0, 1): F(1, 2)})
    for n in range(7):
        assert extend_product(VIR, C, n, OM).is_zero
        assert extend_product(VIR, OM, n, C).is_zero


def test_product_examples_with_derivatives() -> None:
    dom = apply_D(OM)
    assert extend_product(VIR, dom, 1, OM) == -Element({(1, 0): 1})
    assert extend_product(VIR, OM, 1, dom) == Element({(1, 0): 3})


def _support_bound(spec, A, B) -> int:
    """A_n B vanishes for every n >= this bound."""
    return spec.n_max + A.d_degree + B.d_degree


def _principal_series(spec, A, B):
    """{n: A_n B} over n below _support_bound, nonzero terms only."""
    series = {n: extend_product(spec, A, n, B) for n in range(_support_bound(spec, A, B))}
    return {n: v for n, v in series.items() if v}


def test_y_principal_virasoro() -> None:
    # the singular part of Y(omega, z) omega
    assert _principal_series(VIR, OM, OM) == {0: apply_D(OM), 1: 2 * OM, 3: F(1, 2) * C}
    assert extend_product(VIR, OM, 4, OM).is_zero
    assert _principal_series(VIR, C, OM) == {}


def test_y_principal_derivative_series() -> None:
    # (D omega)_n omega = -n omega_{n-1} omega over its whole support
    assert _principal_series(VIR, apply_D(OM), OM) == {
        1: -apply_D(OM),
        2: -4 * OM,
        4: -2 * C,
    }
    for n in (0, 3, 5):
        assert extend_product(VIR, apply_D(OM), n, OM).is_zero


def _random_element(rng: random.Random, spec: FormulaSpec, parity: int,
                    max_k: int = 2) -> Element:
    terms = {}
    for vec in spec.vectors:
        if vec.parity != parity:
            continue
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(0, max_k)
            coeff = F(rng.randint(-4, 4), rng.randint(1, 3))
            if coeff:
                terms[(k, vec.index)] = terms.get((k, vec.index), 0) + coeff
    return Element(terms)


def test_derivation_laws_on_random_elements() -> None:
    rng = random.Random(20240811)
    for _ in range(40):
        a = _random_element(rng, VIR, EVEN)
        b = _random_element(rng, VIR, EVEN)
        for n in range(VIR.n_max + VIR.k_max + 1):
            lhs = extend_product(VIR, apply_D(a), n, b)
            rhs = -n * extend_product(VIR, a, n - 1, b) if n else Element()
            assert lhs == rhs
            left = apply_D(extend_product(VIR, a, n, b))
            right = extend_product(VIR, apply_D(a), n, b) \
                + extend_product(VIR, a, n, apply_D(b))
            assert left == right


def test_truncation_boundary_sweep() -> None:
    rng = random.Random(7)
    for _ in range(20):
        a = _random_element(rng, VIR, EVEN)
        b = _random_element(rng, VIR, EVEN)
        bound = _support_bound(VIR, a, b)
        assert extend_product(VIR, a, bound, b).is_zero
        assert extend_product(VIR, a, bound + 1, b).is_zero


def test_format_element() -> None:
    assert format_element(VIR, Element()) == "0"
    # equal weights sort by D-power, so D.omega precedes D^3.c
    assert format_element(VIR, apply_D(OM) - F(1, 2) * apply_D(C, 3)) \
        == "D.omega - 1/2*D^3.c"


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_internal_results_store_only_nonzero_fractions(name: str) -> None:
    # results built inside the package skip the constructor's coercion,
    # so every layer must hand over nonzero stored-form rationals on its own
    spec = preset(name)
    table = {key: dict(elt._terms) for key, elt in spec.constant_entries()}
    check = _assert_stored_nonzero_fractions
    elements = [basis_element(i, k) for i in range(spec.dim) for k in (0, 1)]
    for i in range(spec.dim):
        for coeff in (1, -2, "3/4", F(-5, 6)):
            unit = basis_element(i, 2, coeff)
            check(unit)
            assert unit == Element({(2, i): coeff})
        assert basis_element(i, 1, 0).is_zero and basis_element(i, 0, "0/3").is_zero
        with pytest.raises(ValueError):
            basis_element(i, -1)
    for a in elements:
        for b in elements:
            for n in range(_support_bound(spec, a, b) + 1):
                check(extend_product(spec, a, n, b))
    for d in defect_sweep(spec):
        check(d.value)
    gens = [LieElement({LieGenerator(i, n): 1}) for i in range(spec.dim) for n in (-2, 0, 1, 3)]
    for x in gens:
        check(lie_D(spec, x))
        for y in gens:
            check(bracket(spec, x, y))
    if spec.graded and injectivity_verdict(spec).injective:
        for u in range(spec.dim):
            check(kappa(spec, basis_element(u, 2, F(-3, 7))))
            for v in range(spec.dim):
                word = [LieGenerator(u, 1), LieGenerator(v, -2), LieGenerator(u, -1)]
                check(act_word(spec, word))
                if spec.central is not None:
                    check(specialize_level(spec, act_word(spec, word), F(5, 2)))
                    check(specialize_level(spec, act_word(spec, word), 0))
                for n in range(3):
                    check(field_coefficient(spec, kappa_basis(spec, u), n,
                                            kappa_basis(spec, v), 10))
    # no result may share storage with the constants table it was read from
    assert {key: dict(elt._terms) for key, elt in spec.constant_entries()} == table


def _assert_public_fractions(vec) -> None:
    pairs = list(vec.items())
    assert all(type(c) is F for _key, c in pairs), pairs
    assert all(type(vec.coeff(key)) is F for key, _c in pairs)
    assert type(vec.coeff(object())) is F


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_public_results_are_fractions(name: str) -> None:
    # internally integral values are ints; every public answer is a Fraction
    spec = preset(name)
    for value in (3, -2, "4", "-6/3", F(5), F(1, 2)):
        assert type(rat(value)) is F
    for _key, elt in spec.constant_entries():
        _assert_public_fractions(elt)
    units = [basis_element(i) for i in range(spec.dim)]
    for a in units:
        for b in units:
            for n in range(_support_bound(spec, a, b)):
                _assert_public_fractions(extend_product(spec, a, n, b))
    gens = [LieElement({LieGenerator(i, n): 1}) for i in range(spec.dim) for n in (-2, 0, 1, 3)]
    for x in gens:
        for y in gens:
            _assert_public_fractions(bracket(spec, x, y))
    if not spec.graded:
        return
    for i in range(spec.dim):
        assert type(spec.weight(i)) is F and type(spec.vectors[i].weight) is F
    if not injectivity_verdict(spec).injective:
        return
    dims = graded_dimension(spec, 3)
    assert dims and all(type(w) is F for w in dims)
    basis = monomial_basis(spec, 2)
    assert all(type(w) is F for w in basis)
    for u in range(spec.dim):
        for v in range(spec.dim):
            word = [LieGenerator(u, 1), LieGenerator(v, -2), LieGenerator(u, -1)]
            out = act_word(spec, word)
            _assert_public_fractions(out)
            for n in range(3):
                _assert_public_fractions(field_coefficient(spec, kappa_basis(spec, u), n,
                                                           kappa_basis(spec, v), 10))


def test_package_source_has_no_true_division() -> None:
    # with ints where Fractions were, int / int would quietly give a float
    sources = sorted(Path(vertexlie.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
        assert not found, f"{path.name}: true division at lines {found}"


def test_only_formula_reads_the_constants_table() -> None:
    # the spec keeps its table in one store, _rows; other modules reach the
    # products through FormulaSpec._row and constant_entries.  linalg.RowSpace
    # has a _rows of its own, which it reads through self.
    for path in sorted(Path(vertexlie.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {name for node in ast.walk(tree)
                 for name in (getattr(node, "attr", None), getattr(node, "id", None),
                              getattr(node, "name", None))}
        assert "constant_by_id" not in names, f"{path.name}: constant_by_id is back"
        assert "_constants" not in names, f"{path.name}: a second table store is back"
        if path.name != "formula.py":
            reads = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "_rows"
                     and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
            assert not reads, f"{path.name}: reads a spec's ._rows at lines {reads}"


def _self_get_updates(tree: ast.AST) -> list:
    """Lines of `d[key] = ... d.get(key, 0) ...`: a dict entry updated from its own
    value, also through an alias of the getter (`get = d.get` ... `d[key] = get(key)`)."""
    aliases = {target.id: ast.dump(node.value.value)  # name -> the dict whose .get it holds
               for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute) and node.value.attr == "get"
               for target in node.targets if isinstance(target, ast.Name)}

    def getter(func: ast.AST):  # dump of the dict that func reads with get, or None
        if isinstance(func, ast.Attribute) and func.attr == "get":
            return ast.dump(func.value)
        return aliases.get(func.id) if isinstance(func, ast.Name) else None

    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Subscript):
                continue
            own = (ast.dump(target.value), ast.dump(target.slice))
            if any(isinstance(call, ast.Call) and call.args
                   and (getter(call.func), ast.dump(call.args[0])) == own
                   for call in ast.walk(node.value)):
                lines.append(node.lineno)
    return lines


def test_only_formula_accumulates_by_hand() -> None:
    # one accumulate helper: formula._accumulate (and _add_scaled over it)
    # keeps a dict of coefficients in stored form and drops zeros
    assert _self_get_updates(ast.parse("acc[g] = acc.get(g, 0) + eps * c")) == [1]
    assert _self_get_updates(ast.parse("out[k] = row.get(k, 0) * p")) == []
    assert _self_get_updates(ast.parse("get = acc.get\nfor g in gs:\n    acc[g] = get(g, 0) + 1")) == [3]
    assert _self_get_updates(ast.parse("get = row.get\nacc[g] = get(g, 0) + c")) == []
    found = {path.name: lines for path in sorted(Path(vertexlie.__file__).parent.glob("*.py"))
             if path.name != "formula.py"
             and (lines := _self_get_updates(ast.parse(path.read_text(), filename=str(path))))}
    assert not found, f"accumulated by hand (module: lines): {found}"


def _functools_caches(tree: ast.AST) -> list:
    """Each use of functools' lru_cache or cache: the name of the function it
    decorates, or its line when it is not a decorator."""
    decorated = {id(dec.func if isinstance(dec, ast.Call) else dec): node.name
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for dec in node.decorator_list}
    return [decorated.get(id(node), node.lineno) for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in ("lru_cache", "cache"))
            or (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                and isinstance(node.value, ast.Name) and node.value.id == "functools")]


def test_no_module_global_cache() -> None:
    # derived per-spec data lives in spec._memo (formula._per_spec) and is
    # freed with the spec; a module-global cache keeps every entry for the life
    # of the process.
    sample = "@lru_cache(maxsize=None)\ndef f(): pass\n@functools.cache\ndef g(): pass\n" \
             "h = lru_cache(None)(len)\n"
    assert sorted(map(str, _functools_caches(ast.parse(sample)))) == ["5", "f", "g"]
    found = {(path.name, use) for path in sorted(Path(vertexlie.__file__).parent.glob("*.py"))
             for use in _functools_caches(ast.parse(path.read_text(), filename=str(path)))}
    assert found == set()


def _sites(tree: ast.AST, hit) -> list:
    """For each node where hit(node) holds, the name of the innermost function
    around it, or its line when it is at module level."""
    out = []

    def visit(node: ast.AST, inside) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        if hit(node):
            out.append(inside or node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, None)
    return out


def _named(node: ast.AST, name: str) -> bool:
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def _calls(tree: ast.AST, name: str) -> list:
    """For each call of name, bare or as an attribute, where it is (see _sites)."""
    return _sites(tree, lambda node: isinstance(node, ast.Call) and _named(node.func, name))


def _bound_raises(tree: ast.AST) -> list:
    """For each raise of BoundInsufficientError, where it is (see _sites)."""
    def hit(node: ast.AST) -> bool:
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return _named(exc, "BoundInsufficientError")

    return _sites(tree, hit)


def test_only_the_sweep_raises_bound_insufficient() -> None:
    # the verdict reads every defect, so a bound is only the window that
    # check and defect print and guard: defect_sweep alone refuses one
    sample = "def f():\n    raise BoundInsufficientError('x')\n" \
             "raise formula.BoundInsufficientError\nraise ValueError('BoundInsufficientError')\n"
    assert _bound_raises(ast.parse(sample)) == ["f", 3]
    found = {(path.stem, site) for path in sorted(Path(vertexlie.__file__).parent.glob("*.py"))
             for site in _bound_raises(ast.parse(path.read_text(), filename=str(path)))}
    assert found == {("defects", "defect_sweep")}


def test_module_vectors_come_only_from_the_vacuum_module() -> None:
    # PbwVector has no public constructor and the package wraps its own dicts
    # with PbwVector._of, so every stored monomial is normal-ordered and holds
    # no mode the central quotient kills.  Normal ordering (verma._mul_gen)
    # trusts that: a mode is tested against the quotient where it enters,
    # in _act_into (act, act_lie, act_word and the module's internal actions)
    # or as _fc's shifted factor mode.
    sample = "def f():\n    return PbwVector({})\nv = verma.PbwVector()\nw = PbwVector._of({})\n"
    assert _calls(ast.parse(sample), "PbwVector") == ["f", 3]
    package = Path(vertexlie.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    assert {(name, site) for name, tree in trees.items()
            for site in _calls(tree, "PbwVector")} == set()
    kills = {(name, site) for name, tree in trees.items()
             for site in _calls(tree, "_quotient_kills")}
    assert kills == {("verma", "_act_into"), ("verma", "_fc"),
                     ("verma", "_counting_generators")}


def _uses(tree: ast.AST, name: str) -> list:
    """Lines that name `name`: a read, an attribute or an import."""
    return [node.lineno for node in ast.walk(tree)
            if name in (getattr(node, "id", None), getattr(node, "attr", None))
            or isinstance(node, ast.alias) and name in (node.name, node.asname)]


def test_one_mode_rule_and_no_per_spec_wrapper_in_the_mode_algebra() -> None:
    # the mode rule (D^k u)_n -> (-1)^k (n)_k u_{n-k} has one loop,
    # local_algebra._reduce_into, and the product rule formula.extend_product
    # is the only other reader of falling.  The integer table _scaled_rows
    # serves only the kernels that the benchmark workloads run, so a public
    # function they never call does not grow an integer kernel.  The mode algebra
    # and the module keep their one pair table, the generator brackets, in
    # spec._memo[_pair_terms], read with no _per_spec wrapper frame.
    sample = "def f():\n    def g():\n        return falling(3, 1)\n    return m.falling(2, 2)\n" \
             "x = falling(1, 1)\n"
    assert _calls(ast.parse(sample), "falling") == ["g", "f", 5]
    sample = "from .formula import _per_spec\n@_per_spec\ndef f(): pass\ng = formula._per_spec(f)\n"
    assert _uses(ast.parse(sample), "_per_spec") == [1, 2, 4]
    package = Path(vertexlie.__file__).parent
    callers = {(path.stem, caller) for path in sorted(package.glob("*.py"))
               for caller in _calls(ast.parse(path.read_text(), filename=str(path)), "falling")}
    assert callers <= {("formula", "extend_product"), ("local_algebra", "_reduce_into")}, callers
    callers = {(path.stem, caller) for path in sorted(package.glob("*.py"))
               for caller in _calls(ast.parse(path.read_text(), filename=str(path)), "_scaled_rows")}
    assert callers == {("defects", "_defect_tables"), ("local_algebra", "_pair_terms"),
                       ("local_algebra", "bracket"), ("verma", "_unit")}, callers
    for name in ("local_algebra.py", "verma.py"):
        assert not _uses(ast.parse((package / name).read_text()), "_per_spec"), name
    # the defect tables are read as stored: a second copy or regrouping needs a reason
    callers = {(path.stem, caller) for path in sorted(package.glob("*.py"))
               for caller in _calls(ast.parse(path.read_text(), filename=str(path)),
                                    "_defect_tables")}
    assert callers == {("defects", "_defects"), ("defects", "skew_defect"),
                       ("defects", "commutator_defect"), ("defects", "jacobi_component_defect"),
                       ("local_algebra", "jacobi_window_verify")}, callers


def test_operand_reuse_leaves_operands_unchanged() -> None:
    x = OM.scale(F(2, 3)) + apply_D(C)
    snapshot = dict(x._terms)
    assert x + x == x.scale(2)
    assert x.scale(1) is x
    assert x.scale(1) + OM == OM + x
    assert (x - x).is_zero and (x.scale(1) - x).is_zero
    assert -x + x == Element()
    assert x._terms == snapshot
    y = LieElement({LieGenerator(0, 2): F(1, 3), LieGenerator(0, -1): 1})
    y_snapshot = dict(y._terms)
    assert bracket(VIR, y, y) + bracket(VIR, y, y.scale(1)) == bracket(VIR, y, y).scale(2)
    assert y._terms == y_snapshot
