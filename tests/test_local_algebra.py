from __future__ import annotations

import gc
import random
from fractions import Fraction as F

import pytest

from math import factorial

from vertexlie import (
    EVEN,
    PRESETS,
    BoundInsufficientError,
    Element,
    FormulaSpec,
    LieElement,
    LieGenerator,
    affine,
    basis_element,
    bracket,
    central_check,
    central_reduction,
    defect_sweep,
    extend_product,
    gen_binomial,
    heisenberg,
    injectivity_verdict,
    jacobi_window_verify,
    lambda_algebra,
    lie_D,
    neveu_schwarz,
    novikov,
    preset,
    reduce_generator,
    sl2,
    virasoro,
)
from vertexlie.formula_io import export_formula, parse_formula
from vertexlie.defects import UNDETERMINED
from vertexlie.formula import falling
from vertexlie.local_algebra import LawViolation, _quotient_kills, generator, single

# typo'd presets and seeded one-sided random tables, shared with the sweep tests
from test_defects import (TYPO_TABLES, _basis, _graded_random_tables, _random_tables, _typo,
                          apply_D)

VIR = virasoro()
HEIS = affine(heisenberg())
NS = neveu_schwarz()
SL2 = affine(sl2())
CLEAN = sorted(set(PRESETS) - {"novikov-flipped"})  # the presets with an injective verdict


def gen(spec, label, n):
    return LieGenerator(spec.bid(label), n)


def elem(spec, *pairs):
    return LieElement({gen(spec, lbl, n): F(c) for lbl, n, c in pairs})


# ---------------------------------------------------------------------------
# reduce_generator
# ---------------------------------------------------------------------------

def test_reduce_generator_examples() -> None:
    om = basis_element(VIR.bid("omega"))
    assert reduce_generator(VIR, apply_D(om), 0).is_zero
    assert reduce_generator(VIR, apply_D(om), 5) == elem(VIR, ("omega", 4, -5))
    assert reduce_generator(VIR, apply_D(om, 2), -1) == elem(VIR, ("omega", -3, 2))


def test_reduce_generator_defining_relation() -> None:
    rng = random.Random(99)
    for _ in range(25):
        terms = {(rng.randint(0, 3), rng.choice([0, 1])): F(rng.randint(-3, 3))
                 for _ in range(3)}
        A = basis_element(0).scale(0) + type(basis_element(0))(terms)
        for n in range(-8, 9):
            lhs = reduce_generator(VIR, apply_D(A), n)
            rhs = reduce_generator(VIR, A, n - 1).scale(-n)
            assert lhs == rhs


def test_reduce_generator_kills_central_modes() -> None:
    c = basis_element(VIR.bid("c"))
    assert reduce_generator(VIR, c, -1) == elem(VIR, ("c", -1, 1))
    assert reduce_generator(VIR, c, 0).is_zero
    assert reduce_generator(VIR, c, -2).is_zero
    assert reduce_generator(VIR, apply_D(c), -1).is_zero


def _raising_virasoro() -> FormulaSpec:
    """Virasoro with omega_3 omega = c/2 - omega: its sweep at the default
    bound 6 raises BoundInsufficientError (a commutator defect at index 6),
    while its verdict, read from every defect, is undetermined."""
    return _typo("virasoro", {("omega", 3, "omega"): {(0, "c"): F(1, 2), (0, "omega"): -1}})


def _reduce_term_by_term(spec, A, n):
    """reduce_generator with _quotient_kills asked at every term whose
    falling factorial is nonzero."""
    acc = LieElement()
    for (k, bid), c in A.items():
        g = LieGenerator(bid, n - k)
        if falling(n, k) and not _quotient_kills(spec, g):
            acc = acc + LieElement({g: c * falling(n, k) * (-1) ** k})
    return acc


def _reduce_inputs(spec) -> list:
    """Every table product, and u + D^2 c and D^3 u - 2 D^4 c for each basis
    vector u and c: odd and even D-powers up to 4."""
    units = [basis_element(bid) for bid in range(spec.dim)]
    return [A for _key, A in spec.constant_entries()] + \
        [u + apply_D(c, 2) for u in units for c in units] + \
        [apply_D(u, 3) - apply_D(c, 4).scale(2) for u in units for c in units]


@pytest.mark.parametrize("name", sorted(PRESETS) + sorted(TYPO_TABLES) + ["raising-virasoro"])
def test_reduce_generator_matches_the_term_by_term_rule(name: str) -> None:
    spec = _raising_virasoro() if name == "raising-virasoro" else \
        TYPO_TABLES[name]() if name in TYPO_TABLES else preset(name)
    for A in _reduce_inputs(spec) + [Element()]:
        for n in range(-6, 7):  # 0 <= n < k and the sign at odd k >= 3 included
            got = reduce_generator(spec, A, n)
            assert got == _reduce_term_by_term(spec, A, n), (A, n)
            assert all(type(c) is int or c.denominator != 1 for c in got._terms.values())


def test_reduce_generator_keeps_central_modes_without_quotient() -> None:
    from vertexlie import abelian

    loop = affine(abelian())
    c = basis_element(loop.bid("c"))
    assert reduce_generator(loop, c, -2) == elem(loop, ("c", -2, 1))
    assert reduce_generator(loop, apply_D(c), -1) == elem(loop, ("c", -2, 1))


def test_no_quotient_without_a_central_vector_even_if_the_sweep_fails() -> None:
    from vertexlie import act_word

    # c_2 omega != 0, so the designated c is not central and there is no
    # quotient, although the sweep at the default bound is insufficient
    spec = parse_formula(export_formula(VIR) + "c 2 omega : 1 omega 3/2\n")
    with pytest.raises(BoundInsufficientError):
        defect_sweep(spec)
    assert central_reduction(spec) is None
    c = basis_element(spec.bid("c"))
    assert reduce_generator(spec, c, -2) == elem(spec, ("c", -2, 1))
    got = bracket(spec, single(spec, "omega", 2), single(spec, "omega", -2))
    assert got == elem(spec, ("omega", -1, 4))
    word = act_word(spec, [gen(spec, "omega", 1), gen(spec, "omega", -2)])
    assert word == act_word(spec, [gen(spec, "omega", -2)]).scale(3)
    assert jacobi_window_verify(spec, 1)


# ---------------------------------------------------------------------------
# bracket values
# ---------------------------------------------------------------------------

def test_bracket_virasoro_example() -> None:
    got = bracket(VIR, single(VIR, "omega", 3), single(VIR, "omega", -1))
    assert got == elem(VIR, ("omega", 1, 4), ("c", -1, F(1, 2)))


def test_modes_must_be_integers() -> None:
    assert generator(VIR, "omega", 2) == LieGenerator(0, 2)
    for bad in (2.7, "3", F(3), True, False):
        with pytest.raises(TypeError):
            generator(VIR, "omega", bad)
        with pytest.raises(TypeError):
            single(VIR, "omega", bad)


def test_bracket_heisenberg_example() -> None:
    got = bracket(HEIS, single(HEIS, "x", 1), single(HEIS, "x", -1))
    assert got == elem(HEIS, ("c", -1, 1))
    assert bracket(HEIS, single(HEIS, "x", -1), single(HEIS, "x", -1)).is_zero
    # [u_{-1}, v_{-1}] = [u, v]_{-2}: the level term sits on c_{-3}, which the quotient kills
    assert bracket(SL2, single(SL2, "e", -1), single(SL2, "f", -1)) == elem(SL2, ("h", -2, 1))
    assert bracket(SL2, single(SL2, "h", -1), single(SL2, "e", -1)) == elem(SL2, ("e", -2, 2))
    assert bracket(SL2, single(SL2, "c", -1), single(SL2, "e", -1)).is_zero


def test_bracket_central_modes_vanish() -> None:
    for n in range(-5, 6):
        assert bracket(VIR, single(VIR, "c", -1), single(VIR, "omega", n)).is_zero
        assert bracket(VIR, single(VIR, "omega", n), single(VIR, "c", -1)).is_zero


def test_bracket_virasoro_closed_form() -> None:
    for n in range(-10, 11):
        for m in range(-10, 11):
            got = bracket(VIR, single(VIR, "omega", n + 1), single(VIR, "omega", m + 1))
            want: dict = {}
            if n != m:
                want[gen(VIR, "omega", n + m + 1)] = F(n - m)
            if n + m == 0:
                cc = F(1, 2) * gen_binomial(n + 1, 3)
                if cc:
                    want[gen(VIR, "c", -1)] = cc
            assert got == LieElement(want)


def test_bracket_bilinear() -> None:
    x = elem(VIR, ("omega", 2, 2), ("omega", -1, 1))
    y = elem(VIR, ("omega", 0, F(1, 3)))
    direct = bracket(VIR, x, y)
    split = bracket(VIR, elem(VIR, ("omega", 2, 2)), y) \
        + bracket(VIR, elem(VIR, ("omega", -1, 1)), y)
    assert direct == split


def _fraction_bracket(spec, x, y) -> dict:
    """sum cx cy [gx, gy] in Fraction arithmetic, zero sums kept; each [gx, gy]
    is a bracket of two unit modes, which clears no denominator."""
    acc: dict = {}
    for gx, cx in x.items():
        for gy, cy in y.items():
            for g, c in bracket(spec, LieElement({gx: 1}), LieElement({gy: 1})).items():
                acc[g] = acc.get(g, F(0)) + cx * cy * c
    return acc


@pytest.mark.parametrize("spec,max_den", [(VIR, 12), (NS, 12), (SL2, 12), (VIR, 1), (SL2, 1)],
                         ids=["virasoro", "neveu-schwarz", "affine-sl2",
                              "virasoro-integers", "affine-sl2-integers"])
def test_bracket_matches_a_fraction_sum(spec, max_den: int) -> None:
    # [X/dx, Y/dy] = [X, Y]/(dx dy): the integer sum divided once must give the
    # Fraction sum term by term, in stored form.  y carries a multiple of x, so
    # the sum cancels terms of [x, x] on the way; small modes make terms collide.
    rng = random.Random(2400 + max_den)

    def element():
        return LieElement([(LieGenerator(rng.randrange(spec.dim), rng.randint(-4, 4)),
                            F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, max_den)))
                           for _ in range(8)])

    cancelled = integral = fractional = 0
    for _ in range(60):
        x = element()
        y = element() + x.scale(F(rng.randint(-6, 6), rng.randint(1, max_den)))
        got = bracket(spec, x, y)
        want = _fraction_bracket(spec, x, y)
        assert got == LieElement(want)
        for c in got._terms.values():
            assert c != 0 and type(c) is (int if c.denominator == 1 else F)
        cancelled += sum(not c for c in want.values())
        integral += sum(c.denominator == 1 for c in want.values() if c)
        fractional += sum(c.denominator != 1 for c in want.values())
    assert cancelled and integral
    assert fractional if max_den > 1 or spec is VIR else not fractional


def _reference_pair(spec, x, y) -> LieElement:
    """[u_m, v_n] = sum_i (m over i) reduce((u_i v)_{m+n-i}), in Fractions, with
    reduce the test's own term-by-term rule: bracket and reduce_generator share
    local_algebra._reduce_into, so a slip there would show on both sides."""
    acc = LieElement()
    for i in range(spec.n_max):  # u_i v = 0 from n_max on
        if c := gen_binomial(x.n, i):
            A = spec.constant(x.bid, i, y.bid)
            acc = acc + _reduce_term_by_term(spec, A, x.n + y.n - i).scale(c)
    return acc


def _reference_bracket(spec, x, y) -> LieElement:
    acc = LieElement()
    for gx, cx in x.items():
        for gy, cy in y.items():
            acc = acc + _reference_pair(spec, gx, gy).scale(cx * cy)
    return acc


def _bracket_specs() -> list:
    """The presets, the typo'd tables, seeded random tables and two tables
    with a 40-digit denominator."""
    from test_defects import _BIG

    specs = [preset(name) for name in sorted(PRESETS)]
    specs += [TYPO_TABLES[name]() for name in sorted(TYPO_TABLES)]
    specs += _random_tables(random.Random(31), 20)
    specs.append(_typo("virasoro", {("omega", 3, "omega"): {(0, "c"): F(7, _BIG)}}))
    specs.append(FormulaSpec([("a", 0), ("b", 1)], {
        ("a", 0, "b"): {(1, "b"): F(1, _BIG), (0, "b"): F(3, 11)},
        ("b", 1, "b"): {(0, "a"): F(-2, _BIG + 2)}, ("b", 0, "a"): {(0, "b"): F(5, 7)}}))
    return specs


def _assert_stored(vec) -> None:
    assert all(c != 0 and type(c) is (int if c.denominator == 1 else F)
               for c in vec._terms.values()), vec


def test_bracket_matches_the_reduce_generator_reference() -> None:
    # the int pair kernel over the scaled rows against sum_i (m over i)
    # reduce(u_i v) in Fractions, reduce the term-by-term rule and not
    # reduce_generator, on single generators and on seeded elements with
    # fractional coefficients
    rng = random.Random(2900)
    for spec in _bracket_specs():
        gens = [LieGenerator(bid, n) for bid in range(spec.dim) for n in range(-4, 5)]
        for gx in gens:
            for gy in gens:
                got = bracket(spec, LieElement({gx: 1}), LieElement({gy: 1}))
                assert got == _reference_pair(spec, gx, gy), (spec, gx, gy)
                _assert_stored(got)
        for _ in range(10):
            x, y = (LieElement([(rng.choice(gens), F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))))
                                for _ in range(rng.randint(1, 4))]) for _ in "xy")
            got = bracket(spec, x, y)
            assert got == _reference_bracket(spec, x, y), (spec, x, y)
            _assert_stored(got)


def _bracket_outcome(fn, spec, x, y):
    try:
        return fn(spec, x, y)
    except BoundInsufficientError as err:
        return str(err)


def test_bracket_raises_where_the_reference_raises() -> None:
    # the sweep at the default bound raises on this table, but the verdict
    # reads every defect, so the quotient kills no mode: bracket and the
    # reference agree on every pair, and neither raises
    spec = _raising_virasoro()
    ones = [LieElement({LieGenerator(bid, n): 1}) for bid in range(spec.dim) for n in range(-4, 5)]
    outcomes = [tuple(_bracket_outcome(fn, spec, x, y) for fn in (bracket, _reference_bracket))
                for x in ones for y in ones]
    assert all(got == want for got, want in outcomes)
    assert not any(isinstance(got, str) for got, _want in outcomes)


def test_bracket_reduces_no_mode_and_keeps_no_pair_table(monkeypatch) -> None:
    # a machine-independent work count: a first-asked bracket walks the int
    # row (u, v) once for each x term u_m and each basis vector v of y, and
    # adds every y term on v straight through the mode rule, one _reduce_into
    # call per (x term, y term with a row, row index i with (m over i) != 0);
    # it computes no pair terms, reads central_reduction once per first ask
    # that meets a row, and keeps only its answer
    from vertexlie import local_algebra

    rng = random.Random(2901)
    for name in ("virasoro", "affine-sl2"):
        spec = preset(name)
        calls = _count_calls(monkeypatch, local_algebra, "reduce_generator", "_pair_terms",
                             "_reduce_into", "central_reduction")
        want, with_rows = 0, 0
        for _ in range(30):
            x, y = (LieElement({LieGenerator(rng.randrange(spec.dim), rng.randint(-6, 6)): F(1, 3)
                                for _ in range(3)}) for _ in "xy")
            bracket(spec, x, y)
            counts = [sum(1 for i in spec._row(gx.bid, gy.bid) if gen_binomial(gx.n, i))
                      for gx in x._terms for gy in y._terms if spec._row(gx.bid, gy.bid)]
            want, with_rows = want + sum(counts), with_rows + bool(counts)
        assert calls == {"reduce_generator": 0, "_pair_terms": 0, "_reduce_into": want,
                         "central_reduction": with_rows}, name
        assert want and with_rows < 30  # some query met no row
        assert len(spec._memo[bracket]) == 30
        names = {fn.__name__ for fn in spec._memo}
        assert "_pair_terms" not in names and "_pair_bracket" not in names
        monkeypatch.undo()
    # a table with no rows computes no verdict for a bracket
    spec = preset("loop-abelian")
    x = LieElement({LieGenerator(0, 2): 1, LieGenerator(1, -1): F(1, 2)})
    assert bracket(spec, x, x).is_zero
    assert {fn.__name__ for fn in spec._memo} == {"bracket"}


def test_bracket_and_lie_D_refuse_what_is_not_a_lie_element() -> None:
    x = elem(VIR, ("omega", 1, 1))
    others = [(LieGenerator(0, 1), "LieGenerator"), (Element({(0, 0): 1}), "Element"),
              ({gen(VIR, "omega", 1): 1}, "dict"), ((0, 1), "tuple"), (None, "NoneType")]
    for other, name in others:
        message = f"^expected a LieElement, got {name}$"
        for call in (lambda: bracket(VIR, other, x), lambda: bracket(VIR, x, other),
                     lambda: lie_D(VIR, other)):
            with pytest.raises(TypeError, match=message):
                call()


# a mode that generator() would not make, with the refusal act gives it; the
# tuple is unequal to omega_1, which a LieElement key equal to it would merge into
BAD_MODES = [(LieGenerator(9, -1), KeyError, "^'no basis vector number 9'$"),
             (LieGenerator(-1, 1), KeyError, "^'no basis vector number -1'$"),
             (LieGenerator(True, 1), TypeError, "^basis index must be an integer, got True$"),
             (LieGenerator("omega", 1), TypeError, "^basis index must be an integer"),
             (LieGenerator(0, 1.5), TypeError, "^mode must be an integer, got 1.5$"),
             (LieGenerator(0, -0.5), TypeError, "^mode must be an integer, got -0.5$"),
             ((0, 3), TypeError, "^expected a LieGenerator, got tuple$")]


@pytest.mark.parametrize("g,error,message", BAD_MODES, ids=[repr(b[0]) for b in BAD_MODES])
def test_bracket_and_lie_D_refuse_a_mode_the_spec_does_not_have(g, error, message) -> None:
    from vertexlie import act, vacuum

    spec = virasoro()
    good = elem(spec, ("omega", 2, 1), ("c", -1, F(1, 3)))

    def bad() -> LieElement:
        # a key that is not a mode (a TypeError here) is refused by LieElement
        # itself, with the same message, so each call below builds its own
        return LieElement({gen(spec, "omega", 1): 1, g: F(2, 3)})

    with pytest.raises(error, match=message):  # the refusal the module action gives
        act(spec, g, vacuum())
    for call in (lambda: bracket(spec, bad(), good), lambda: bracket(spec, good, bad()),
                 lambda: bracket(spec, bad(), bad()), lambda: lie_D(spec, bad()),
                 lambda: lie_D(spec, LieElement({g: 1}))):
        with pytest.raises(error, match=message):
            call()
    # a refused query stores nothing; the same query without the bad mode is answered
    assert not spec._memo.get(bracket)
    assert bracket(spec, LieElement({gen(spec, "omega", 1): 1}), good)
    assert len(spec._memo[bracket]) == 1


def test_a_lie_element_refuses_a_key_that_is_not_a_mode() -> None:
    # LieGenerator(0, 2.0) and LieGenerator(True, 2) equal and hash as omega_2
    # and c_2, so a LieElement that kept them would read a stored answer
    spec = virasoro()
    om2, c1 = gen(spec, "omega", 2), LieElement({gen(spec, "c", 1): 1})
    bracket(spec, LieElement({om2: 1}), c1)
    bracket(spec, LieElement({gen(spec, "c", 2): 1}), c1)
    refused = [(LieGenerator(0, 2.0), "^mode must be an integer, got 2.0$"),
               (LieGenerator(True, 2), "^basis index must be an integer, got True$"),
               (LieGenerator(0, True), "^mode must be an integer, got True$"),
               (LieGenerator("omega", 2), "^basis index must be an integer"),
               ((0, 2), "^expected a LieGenerator, got tuple$")]
    for g, message in refused:
        # refused before anything is summed: beside an equal key, and at coefficient 0
        for terms in ({g: 1}, [(g, F(1, 2))], [(om2, 1), (g, -1)], {g: 0}):
            with pytest.raises(TypeError, match=message):
                LieElement(terms)
    assert len(spec._memo[bracket]) == 2


def test_a_repeated_bracket_is_answered_from_the_table(monkeypatch) -> None:
    # an equal query built another way (terms in another order, 2 against
    # Fraction(2, 1)) returns the stored answer and computes nothing
    from vertexlie import local_algebra

    spec = preset("virasoro")
    om, c = gen(spec, "omega", 3), gen(spec, "c", -1)
    x = LieElement({om: 2, c: F(1, 3), gen(spec, "omega", -2): F(-5, 4)})
    y = LieElement({gen(spec, "omega", 1): 1, gen(spec, "omega", -4): F(7, 2)})
    first = bracket(spec, x, y)
    calls = _count_calls(monkeypatch, local_algebra, "_pair_terms", "_reduce_into")
    x2 = LieElement([(gen(spec, "omega", -2), F(-5, 4)), (c, F(1, 3)), (om, F(2, 1))])
    y2 = LieElement({gen(spec, "omega", -4): F(7, 2), gen(spec, "omega", 1): F(1)})
    assert (x2, y2) == (x, y) and x2 is not x and y2 is not y
    assert bracket(spec, x2, y2) is first
    assert bracket(spec, x, y) is first
    assert calls == {"_pair_terms": 0, "_reduce_into": 0}
    assert len(spec._memo[bracket]) == 1
    # an unequal query computes, and is stored beside the first
    assert bracket(spec, y, x) == -first
    assert calls["_reduce_into"] and len(spec._memo[bracket]) == 2


def test_the_answer_table_is_one_memo_entry_freed_with_its_spec() -> None:
    def live() -> tuple:
        gc.collect()
        objects = gc.get_objects()
        return (sum(isinstance(obj, FormulaSpec) for obj in objects),
                sum(isinstance(obj, LieElement) for obj in objects))

    before = live()
    rng = random.Random(5101)
    specs = [virasoro() for _ in range(5)]
    for spec in specs:
        one = elem(spec, ("omega", 1, 1))
        bracket(spec, one, one)
        entries = set(spec._memo)
        queries = {(one, one)}
        for _ in range(12):
            x, y = (LieElement({LieGenerator(rng.randrange(spec.dim), rng.randint(-6, 6)):
                                F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(3)})
                    for _ in "xy")
            bracket(spec, x, y)
            queries.add((x, y))
        assert set(spec._memo) == entries  # every answer is in the one table
        assert len(spec._memo[bracket]) == len(queries)
    del specs, spec, one, x, y, queries
    assert live() == before


@pytest.mark.parametrize("name", CLEAN)
def test_repeated_brackets_equal_a_fresh_spec(name: str) -> None:
    # seeded queries, each asked three times from freshly built equal
    # elements, terms shuffled and coefficients an int or a Fraction: every
    # answer equals the bracket on a fresh spec, and a repeat returns the
    # first answer itself
    rng = random.Random(5200 + CLEAN.index(name))
    spec = preset(name)
    labels = spec.labels

    def terms() -> list:
        return [(labels[k % len(labels)], rng.randint(-8, 8), F(rng.randint(-6, 6), rng.randint(1, 3)))
                for k in range(6)]

    def build(ts: list) -> LieElement:
        ts = rng.sample(ts, len(ts))
        return LieElement([(generator(spec, label, n), c if c.denominator != 1 or rng.random() < 0.5
                            else c.numerator) for label, n, c in ts])

    pool = [(terms(), terms()) for _ in range(6)]
    asks = pool * 3
    rng.shuffle(asks)
    answers: dict = {}
    for xt, yt in asks:
        x, y = build(xt), build(yt)
        got = bracket(spec, x, y)
        key = (x, y)
        if key in answers:
            assert got is answers[key]
        else:
            fresh = preset(name)
            assert got == bracket(fresh, LieElement(x.items()), LieElement(y.items()))
            answers[key] = got
    assert len(answers) == len(spec._memo[bracket]) == len(pool)
    if name == "neveu-schwarz":  # odd modes are among the queries
        assert any(spec.vectors[g.bid].parity for x, _ in answers for g in x._terms)


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------

def test_lie_D_examples() -> None:
    assert lie_D(VIR, single(VIR, "omega", 0)).is_zero
    assert lie_D(VIR, single(VIR, "omega", 3)) == elem(VIR, ("omega", 2, -3))
    # reindexed: D omega_{-1} = omega_{-2}
    assert lie_D(VIR, single(VIR, "omega", -1)) == elem(VIR, ("omega", -2, 1))
    assert lie_D(VIR, single(VIR, "c", -1)).is_zero


def _D_by_its_own_rule(spec, x):
    """-n u_{n-1} for each term u_n of x, dropped at n = 0 and where the
    quotient kills u_{n-1}: the terms as (generator, coefficient, stored
    type) in order."""
    out = []
    for g, c in x._terms.items():
        dg = LieGenerator(g.bid, g.n - 1)
        if g.n and not _quotient_kills(spec, dg):
            d = F(-g.n * c)
            d = d.numerator if d.denominator == 1 else d
            out.append((dg, d, type(d)))
    return out


def _D_outcome(spec, x):
    try:
        return [(g, c, type(c)) for g, c in lie_D(spec, x)._terms.items()]
    except BoundInsufficientError as err:
        return type(err)


def _D_inputs(spec, rng) -> list:
    """Every one-term mode u_n, |n| <= 4, and seeded sums with fractional coefficients."""
    gens = [LieGenerator(bid, n) for bid in range(spec.dim) for n in range(-4, 5)]
    return [LieElement({g: 1}) for g in gens] + [
        LieElement([(rng.choice(gens), F(rng.randint(-9, 9), rng.choice((1, 2, 3))))
                    for _ in range(rng.randint(1, 5))]) for _ in range(10)]


def test_lie_D_matches_its_own_rule() -> None:
    # lie_D is the k = 1 case of the mode rule of reduce_generator; it must
    # give the derivation's values, stored types and term order
    rng = random.Random(3000)
    specs = [preset(name) for name in sorted(PRESETS)]
    specs += [TYPO_TABLES[name]() for name in sorted(TYPO_TABLES)]
    specs += _random_tables(random.Random(3001), 20)
    for spec in specs:
        for x in _D_inputs(spec, rng):
            assert _D_outcome(spec, x) == _D_by_its_own_rule(spec, x), (spec, x)


def test_lie_D_raises_where_its_own_rule_raises() -> None:
    # the sweep at the default bound raises on this table, but the verdict
    # reads every defect, so the quotient kills no mode: lie_D follows its
    # rule on every input, the empty element too, and neither raises
    spec = _raising_virasoro()
    inputs = _D_inputs(spec, random.Random(3002)) + [LieElement()]
    outcomes = [(_D_outcome(spec, x), _D_by_its_own_rule(spec, x)) for x in inputs]
    assert all(got == want for got, want in outcomes)
    assert BoundInsufficientError not in [got for got, _want in outcomes]


# ---------------------------------------------------------------------------
# window verification
# ---------------------------------------------------------------------------

def test_window_verify_clean_presets() -> None:
    assert jacobi_window_verify(VIR, 4) == []
    assert jacobi_window_verify(HEIS, 4) == []
    assert jacobi_window_verify(NS, 3) == []


def test_window_verify_catches_broken_structure() -> None:
    broken = novikov(lambda_algebra(flipped=True))
    violations = jacobi_window_verify(broken, 2)
    assert violations
    laws = {v.law for v in violations}
    assert "jacobi" in laws or "skew" in laws


def test_window_verify_neveu_schwarz_anticommutator() -> None:
    # odd generators: [x, y] = +[y, x]
    a = bracket(NS, single(NS, "tau", 2), single(NS, "tau", -1))
    b = bracket(NS, single(NS, "tau", -1), single(NS, "tau", 2))
    assert a == b
    assert a == elem(NS, ("omega", 1, 2), ("c", -1, F(2, 3)))


def _reference_window(spec, window):
    """Every law violation on the window, each law built from bracket and
    lie_D on one-term elements and their sums, term by term.

    The bracket of each ordered pair of one-term window elements is
    computed once, into a dict local to this call.  The derivation clause
    stays although jacobi_window_verify proves that law instead of summing
    it: a derivation violation here fails every comparison with the library."""
    violations = []
    modes = range(-window, window + 1)
    gens = [LieGenerator(bid, n) for bid in range(spec.dim) for n in modes]
    one = {g: LieElement({g: 1}) for g in gens}
    pair = {(gx, gy): bracket(spec, one[gx], one[gy]) for gx in gens for gy in gens}
    for gx in gens:
        x = one[gx]
        dx = lie_D(spec, x)
        for gy in gens:
            y = one[gy]
            xy = pair[gx, gy]
            eps = spec.epsilon(gx.bid, gy.bid)
            skew = xy + pair[gy, gx].scale(eps)
            if skew:
                violations.append(LawViolation("skew", (gx, gy), skew))
            leib = lie_D(spec, xy) - bracket(spec, dx, y) - bracket(spec, x, lie_D(spec, y))
            if leib:
                violations.append(LawViolation("derivation", (gx, gy), leib))
    inert = {bid for bid in range(spec.dim)
             if not any(bid in (uid, vid) for (uid, _n, vid), _ in spec.constant_entries())}
    triple_gens = [g for g in gens if g.bid not in inert]
    for gx in triple_gens:
        x = one[gx]
        for gy in triple_gens:
            y = one[gy]
            eps = spec.epsilon(gx.bid, gy.bid)
            xy = pair[gx, gy]
            for gz in triple_gens:
                jac = bracket(spec, x, pair[gy, gz]) \
                    - bracket(spec, xy, one[gz]) \
                    - bracket(spec, y, pair[gx, gz]).scale(eps)
                if jac:
                    violations.append(LawViolation("jacobi", (gx, gy, gz), jac))
    return violations


def _mirrored_jacobi_pairs(spec, violations) -> dict:
    """Check the two mirror identities on a list of window violations.

    S(y, x) = eps S(x, y) for every pair, and J(y, x, z) = -eps J(x, y, z)
    wherever [y, x] = -eps [x, y], that is where the skew law of (x, y)
    holds.  Returns {eps: the number of nonzero J(x, y, z) with x < y and
    a skew-clean pair (x, y)}."""
    zero = LieElement()
    skew = {v.generators: v.discrepancy for v in violations if v.law == "skew"}
    jac = {v.generators: v.discrepancy for v in violations if v.law == "jacobi"}
    for (gx, gy), s in skew.items():
        assert skew.get((gy, gx), zero) == s.scale(spec.epsilon(gx.bid, gy.bid))
    counts = {1: 0, -1: 0}
    for (gx, gy, gz), j in jac.items():
        if (gx, gy) not in skew:
            eps = spec.epsilon(gx.bid, gy.bid)
            assert jac.get((gy, gx, gz), zero) == j.scale(-eps)
            counts[eps] += gx < gy
    return counts


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_window_verify_matches_reference_on_presets(name: str) -> None:
    spec = preset(name)
    for window in range(3):
        assert jacobi_window_verify(spec, window) == _reference_window(spec, window), window


def test_window_verify_matches_reference_on_typo_and_random_tables() -> None:
    specs = [TYPO_TABLES[name]() for name in sorted(TYPO_TABLES)] + [_raising_virasoro()]
    specs += _random_tables(random.Random(7), 40)
    # D^2 products: the reference's derivation clause sees (D^2 u)_n reduced
    d2 = FormulaSpec([("a", EVEN), ("b", 1)],
                     {("a", 0, "a"): {(2, "a"): 1}, ("a", 1, "b"): {(2, "b"): F(1, 2)},
                      ("b", 0, "b"): {(1, "a"): 1}})
    assert d2.k_max == 2
    specs.append(d2)
    caught = 0
    mirrored = {1: 0, -1: 0}
    for spec in specs:
        want = _reference_window(spec, 2)
        got = jacobi_window_verify(spec, 2)
        assert got == want, list(spec.constant_entries())
        caught += bool(want)
        for eps, count in _mirrored_jacobi_pairs(spec, want).items():
            mirrored[eps] += count
        # LieElement equality reads Fraction(2, 1) == 2: pin the stored form
        for v in got:
            for c in v.discrepancy._terms.values():
                assert type(c) is int or (type(c) is F and c.denominator != 1), (v, c)
    assert caught >= len(specs) // 2
    # the corpus exercises the Jacobi mirror for even and for odd pairs
    assert mirrored[1] and mirrored[-1], mirrored


def test_window_verify_matches_reference_on_graded_random_tables() -> None:
    # weights in {0, 1/2, 1, 3/2, 2} and products up to u_2 v: every table
    # breaks a law somewhere on window 1
    for spec in _graded_random_tables(random.Random(7), 20):
        want = _reference_window(spec, 1)
        got = jacobi_window_verify(spec, 1)
        assert want and got == want, list(spec.constant_entries())
        assert all(type(c) is int or c.denominator != 1
                   for v in got for c in v.discrepancy._terms.values())


@pytest.mark.parametrize("name", ["affine-sl2:e_0f", "affine-sl2:h_1e",
                                  "neveu-schwarz:tau_0tau", "novikov-lambda:u1_0u1"])
def test_window_verify_drops_only_what_a_forced_quotient_kills(name: str, monkeypatch) -> None:
    # the typo leaves c central but the verdict unsettled, so there is no
    # quotient; the window check reads the verdict, not central_reduction,
    # so a quotient forced on the bracket (the modes of a central c span an
    # ideal) does not reach it: it still gives the unforced reference
    from vertexlie import local_algebra

    spec = TYPO_TABLES[name]()
    assert central_reduction(spec) is None and central_check(spec, spec.central)
    want = _reference_window(spec, 2)
    monkeypatch.setattr(local_algebra, "central_reduction", lambda spec: spec.central)
    assert want and jacobi_window_verify(spec, 2) == want


def _count_calls(monkeypatch, module, *names) -> dict:
    """Count the calls of each named module function through its global name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_window_verify_reads_no_mode_bracket(monkeypatch) -> None:
    # a machine-independent work count: the laws are read off the defect
    # tables, so no generator bracket is formed, on a clean preset or a typo
    from vertexlie import local_algebra

    calls = _count_calls(monkeypatch, local_algebra, "_pair_terms", "reduce_generator",
                         "_reduce_into")
    assert jacobi_window_verify(preset("virasoro"), 4) == []
    assert calls == {"_pair_terms": 0, "reduce_generator": 0, "_reduce_into": 0}
    # on a typo the laws sum their table entries straight through the mode rule
    assert jacobi_window_verify(TYPO_TABLES["affine-sl2:h_1e"](), 2)
    assert calls["_pair_terms"] == calls["reduce_generator"] == 0 and calls["_reduce_into"] > 0


@pytest.mark.parametrize("name", CLEAN)
def test_window_verify_reduces_nothing_on_a_clean_preset(name: str, monkeypatch) -> None:
    # a clean preset's verdict is injective, so the laws hold at every mode
    # and none is summed: no mode is reduced, no generator made and no
    # binomial taken
    from vertexlie import local_algebra

    spec = preset(name)
    calls = _count_calls(monkeypatch, local_algebra, "reduce_generator", "_reduce_into",
                         "LieGenerator", "gen_binomial")
    assert jacobi_window_verify(spec, 1000) == []
    assert calls == {"reduce_generator": 0, "_reduce_into": 0, "LieGenerator": 0,
                     "gen_binomial": 0}


@pytest.mark.parametrize("name", CLEAN)
def test_window_verify_on_a_clean_preset_builds_no_mode_range(name: str) -> None:
    # the verdict settles the laws before any mode is looked at, so a window
    # of 10^5 allocates no list or tuple of its 200 001 modes
    import tracemalloc

    spec, verify = preset(name), jacobi_window_verify
    tracemalloc.start()
    try:
        got = verify(spec, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [] and peak < 2**20, peak


def test_check_window_of_a_billion_modes_on_a_clean_preset(capsys) -> None:
    from vertexlie.cli import main

    assert main(["check", "--preset", "virasoro", "--window", "1000000000"]) == 0
    assert "mode-algebra laws on window 1000000000: pass\n" in capsys.readouterr().out


def _rescaled(spec, rng):
    """spec in the basis u -> l_u u, l_u seeded nonzero rationals: the constant c
    of u_n v -> D^k t becomes c l_u l_v / l_t.  The central vector stays central;
    the conformal designation is dropped, as omega_0 omega = D omega pins l_omega."""
    scale = [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
             for _ in range(spec.dim)]
    constants = {(u, n, v): {(k, t): c * scale[u] * scale[v] / scale[t]
                             for (k, t), c in value.items()}
                 for (u, n, v), value in spec.constant_entries()}
    return FormulaSpec(_basis(spec), constants, central=spec.central)


@pytest.mark.parametrize("name", CLEAN)
def test_window_verify_on_rescaled_injective_tables(name: str) -> None:
    # no table of the seeded corpus is injective, so the early return is
    # checked against brackets on tables that are not presets: a rescaled
    # basis keeps the verdict and its witnesses, and every law holds
    rng = random.Random(4600 + sorted(PRESETS).index(name))
    want, before = injectivity_verdict(preset(name)), list(preset(name).constant_entries())
    for _ in range(2):
        spec = _rescaled(preset(name), rng)
        assert list(spec.constant_entries()) != before or not before  # loop-abelian has none
        verdict = injectivity_verdict(spec)
        assert (verdict.status, len(verdict.witnesses)) == (want.status, len(want.witnesses))
        assert jacobi_window_verify(spec, 2) == _reference_window(spec, 2) == []


def test_check_window_ends_in_the_sweep_error_on_an_undetermined_table(
        tmp_path, capsys) -> None:
    # the verdict reads every defect, past the default bound 6 too, so it
    # settles nothing and the quotient kills no mode; every window's laws
    # are evaluated, window 0 included
    spec = _raising_virasoro()
    assert injectivity_verdict(spec).status == UNDETERMINED
    assert central_reduction(spec) is None
    for window in range(3):
        assert jacobi_window_verify(spec, window) == _reference_window(spec, window), window
    # check runs the sweep at the default bound first, so its answer is the error
    from vertexlie.cli import main

    path = tmp_path / "raising.vla"
    path.write_text(export_formula(spec))
    assert main(["check", str(path), "--window", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: commutator defect nonzero at boundary index 6: (omega,6,omega,0,omega)\n")


def test_window_verify_matches_reference_on_heisenberg_window_3() -> None:
    # [x_m, x_{-m}] = m c_{-1} != 0 puts every z in play; every other pair
    # brackets to zero and limits z to the window partners of x and y
    assert jacobi_window_verify(HEIS, 3) == _reference_window(HEIS, 3) == []


def test_window_verify_finds_jacobi_failures_where_x_and_y_commute() -> None:
    # x_1 x = Dx instead of c: [x_m, x_n] = -m(m+n-1) x_{m+n-2} vanishes on
    # m = 0 and m + n = 1, while x or y still brackets with z
    spec = _typo("heisenberg", {("x", 1, "x"): {(1, "x"): 1}})
    got = jacobi_window_verify(spec, 2)
    assert got == _reference_window(spec, 2)
    commuting = [v for v in got if v.law == "jacobi" and not bracket(
        spec, LieElement({v.generators[0]: 1}), LieElement({v.generators[1]: 1}))]
    assert len(commuting) == 8
    assert commuting[0].generators == (gen(spec, "x", -1), gen(spec, "x", 2), gen(spec, "x", -2))
    assert commuting[0].discrepancy == elem(spec, ("x", -5, 24))


def test_window_verify_with_an_inert_vector_beside_a_broken_product() -> None:
    # z is in no product and is not the designated central vector; b is a
    # right operand only, so [b_n, a_m] = 0 while [a_m, b_n] = a_{m+n}
    spec = FormulaSpec([("a", EVEN), ("b", EVEN), ("z", EVEN)],
                       {("a", 0, "b"): {(0, "a"): 1}, ("a", 1, "a"): {(0, "b"): 1}})
    assert spec.central is None
    got = jacobi_window_verify(spec, 2)
    assert got == _reference_window(spec, 2)
    assert {v.law for v in got} == {"skew", "jacobi"}
    z = spec.bid("z")
    assert not any(g.bid == z for v in got for g in v.generators)
    assert any(v.law == "skew" and v.generators == (gen(spec, "b", 0), gen(spec, "a", 0))
               for v in got)


def test_window_verify_rejects_a_negative_window() -> None:
    with pytest.raises(ValueError, match="nonnegative"):
        jacobi_window_verify(HEIS, -1)


# ---------------------------------------------------------------------------
# transported bracket
# ---------------------------------------------------------------------------

def _bracket_on_U(spec, u, v):
    """[u, v] = sum_{n >= 0} ((-1)^n / (n+1)!) D^{n+1} (u_n v) on Q[D] (x) S."""
    acc = Element()
    for n in range(spec.n_max + u.d_degree + v.d_degree):  # u_n v = 0 from here on
        acc = acc + F((-1) ** n, factorial(n + 1)) * apply_D(extend_product(spec, u, n, v), n + 1)
    return acc


def test_bracket_on_U_consistent_with_mode_bracket() -> None:
    # reduce([u, v]_U at mode -1) = negative part of [u_{-1}, v_{-1}]
    for spec in (VIR, HEIS, SL2):
        for u in spec.labels:
            for v in spec.labels:
                transported = reduce_generator(
                    spec, _bracket_on_U(spec, basis_element(spec.bid(u)),
                                        basis_element(spec.bid(v))), -1)
                modes = bracket(spec, single(spec, u, -1), single(spec, v, -1))
                neg = LieElement({g: c for g, c in modes.items() if g.n < 0})
                assert transported == neg
