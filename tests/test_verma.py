from __future__ import annotations

import gc
import hashlib
import itertools
import random
import re
import sys
import threading
from fractions import Fraction as F
from functools import lru_cache
from math import factorial, floor

import pytest

from vertexlie import (
    EVEN,
    ODD,
    PRESETS,
    BoundInsufficientError,
    CutoffExceededError,
    Element,
    FormulaError,
    FormulaSpec,
    LieElement,
    LieGenerator,
    NotInjectiveError,
    PbwMonomial,
    PbwVector,
    UngradedError,
    act,
    act_lie,
    act_word,
    affine,
    apply_D_module,
    axiom_spotcheck,
    basis_element,
    bracket,
    central_reduction,
    conformal_validate,
    defect_sweep,
    field_coefficient,
    graded_dimension,
    heisenberg,
    injectivity_verdict,
    jacobi_window_verify,
    kappa,
    kappa_basis,
    lambda_algebra,
    monomial_basis,
    neveu_schwarz,
    novikov,
    preset,
    specialize_level,
    vacuum,
    virasoro,
)
import vertexlie.verma as verma_module
from vertexlie.verma import _heads
from vertexlie.formula_io import parse_formula
from vertexlie.linalg import RowSpace

from test_defects import apply_D

VIR = virasoro()
HEIS = affine(heisenberg())
NS = neveu_schwarz()


def gen(spec, label, n):
    return LieGenerator(spec.bid(label), n)


def monomial(spec, *factors):
    return PbwMonomial(tuple(gen(spec, lbl, n) for lbl, n in factors))


def basis_vector(spec, m: PbwMonomial, coeff=1) -> PbwVector:
    """coeff times the module vector of the normal-ordered monomial m, built
    from the vacuum: act_word on its factors gives {m: 1} exactly."""
    v = act_word(spec, m.factors)
    assert dict(v.items()) == {m: 1}, m
    return v.scale(coeff)


def vec(spec, *factors):
    return basis_vector(spec, monomial(spec, *factors))


def monomial_weight(spec, mono) -> F:
    """The sum of wt(u_n) = wt(u) - n - 1 over the factors."""
    return sum((spec.weight(g.bid) - g.n - 1 for g in mono.factors), F(0))


def vector_weight(spec, v) -> F:
    """The common weight of the monomials of a nonzero homogeneous vector."""
    weights = {monomial_weight(spec, m) for m in v._terms}
    assert len(weights) == 1, weights
    return weights.pop()


# ---------------------------------------------------------------------------
# vacuum and action
# ---------------------------------------------------------------------------

def test_vacuum_basics() -> None:
    vac = vacuum()
    assert dict(vac.items()) == {PbwMonomial(): 1}
    assert apply_D_module(VIR, vac).is_zero
    assert monomial_weight(VIR, PbwMonomial()) == 0
    for n in range(0, 4):
        assert act(VIR, gen(VIR, "omega", n), vac).is_zero


def test_pbw_vector_rejects_nonnegative_modes() -> None:
    # module vectors come only from the vacuum module, so the constructor
    # refuses every argument: none, an empty map, a normal-ordered monomial
    # and a mode >= 0 (omega_1 1 = 0, so omega_1 is no factor of a monomial)
    message = re.escape("no public constructor: use vacuum() and act_word()")
    for args in ((), ({},), ({PbwMonomial((gen(VIR, "omega", -2),)): 1},),
                 ({PbwMonomial((LieGenerator(0, 1),)): 1},),
                 ({PbwMonomial((LieGenerator(0, 0),)): 0},)):
        with pytest.raises(TypeError, match=message):
            PbwVector(*args)
    # the same words through act_word: a mode >= 0 acts, it is not stored
    assert act_word(VIR, [gen(VIR, "omega", 1)]).is_zero
    assert act_word(VIR, [gen(VIR, "omega", -2)]) == vec(VIR, ("omega", -2))


def test_act_examples() -> None:
    w = act(VIR, gen(VIR, "omega", -1), vacuum())
    assert act(VIR, gen(VIR, "omega", 1), w) == 2 * w
    assert dict(act(VIR, gen(VIR, "omega", 3), w).items()) == {monomial(VIR, ("c", -1)): F(1, 2)}
    assert act(VIR, gen(VIR, "omega", 5), w).is_zero


def test_act_normal_orders_creation_modes() -> None:
    sorted_mono = monomial(VIR, ("omega", -3), ("omega", -1))
    a = act_word(VIR, [gen(VIR, "omega", -3), gen(VIR, "omega", -1)])
    assert dict(a.items()) == {sorted_mono: 1}
    # the reversed word needs a sorting swap, which emits the bracket
    # correction [omega_{-1}, omega_{-3}] = 2 omega_{-5}
    b = act_word(VIR, [gen(VIR, "omega", -1), gen(VIR, "omega", -3)])
    assert dict(b.items()) == {sorted_mono: 1, monomial(VIR, ("omega", -5)): 2}


def test_act_kills_reduced_central_modes() -> None:
    w = act(VIR, gen(VIR, "c", -2), vacuum())
    assert w.is_zero
    assert act(VIR, gen(VIR, "c", 0), vec(VIR, ("omega", -1))).is_zero
    # act_lie drops a killed mode of a combination and acts with the rest
    x = LieElement({gen(VIR, "c", -2): 3, gen(VIR, "omega", -2): 1})
    assert dict(act_lie(VIR, x, vacuum()).items()) == {monomial(VIR, ("omega", -2)): 1}
    loop = affine(__import__("vertexlie").abelian())
    assert not act(loop, gen(loop, "c", -2), vacuum()).is_zero


def test_odd_square_rewrites() -> None:
    t = gen(NS, "tau", -1)
    square = act(NS, t, act(NS, t, vacuum()))
    assert dict(square.items()) == {monomial(NS, ("omega", -2)): 1}


def test_representation_property_random() -> None:
    rng = random.Random(314159)
    from vertexlie.local_algebra import bracket

    for spec in (VIR, HEIS, NS):
        labels = [v.label for v in spec.vectors]
        basis = monomial_basis(spec, 5)
        monos = [m for monos in basis.values() for m in monos]
        for _ in range(30):
            gx = gen(spec, rng.choice(labels), rng.randint(-3, 3))
            gy = gen(spec, rng.choice(labels), rng.randint(-3, 3))
            v = basis_vector(spec, rng.choice(monos))
            eps = -1 if spec.parity(gx.bid) and spec.parity(gy.bid) else 1
            lhs = act(spec, gx, act(spec, gy, v)) \
                - act(spec, gy, act(spec, gx, v)).scale(eps)
            rhs = act_lie(spec, bracket(spec, LieElement({gx: 1}),
                                        LieElement({gy: 1})), v)
            assert lhs == rhs


# A memo-free copy of the normal-ordering rewrite, kept as an oracle:
# g head rest = eps head (g rest) + [g, head] rest, an odd square
# g g rest = (1/2)[g, g] rest, modes n >= 0 kill the vacuum, and the
# central quotient kills c_n for n != -1.  Vectors are dicts
# {PbwMonomial: Fraction}.

def _oracle_key(spec, g) -> tuple:
    w = spec.vectors[g.bid].weight  # a Fraction, or None when ungraded
    return (0 if w is None else g.n + 1 - w, g.bid, g.n)


def _oracle_add(acc: dict, terms: dict, factor) -> None:
    for mono, c in terms.items():
        acc[mono] = acc.get(mono, 0) + factor * c
        if not acc[mono]:
            del acc[mono]


def _oracle_lie(spec, x: LieElement, factors: tuple) -> dict:
    out: dict = {}
    for g, c in x.items():
        _oracle_add(out, _oracle_mul(spec, g, factors), c)
    return out


def _oracle_mul(spec, g, factors: tuple) -> dict:
    if g.bid == central_reduction(spec) and g.n != -1:
        return {}
    if not factors:
        return {} if g.n >= 0 else {PbwMonomial((g,)): F(1)}
    head, rest = factors[0], factors[1:]
    if g.n < 0:
        kg, kh = _oracle_key(spec, g), _oracle_key(spec, head)
        if kg < kh or (kg == kh and not spec.parity(g.bid)):
            return {PbwMonomial((g,) + factors): F(1)}
        if kg == kh:
            square = bracket(spec, LieElement({g: 1}), LieElement({g: 1}))
            return {m: c / 2 for m, c in _oracle_lie(spec, square, rest).items()}
    eps = -1 if spec.parity(g.bid) and spec.parity(head.bid) else 1
    out: dict = {}
    for mono, c in _oracle_mul(spec, g, rest).items():
        _oracle_add(out, _oracle_mul(spec, head, mono.factors), eps * c)
    _oracle_add(out, _oracle_lie(spec, bracket(spec, LieElement({g: 1}),
                                               LieElement({head: 1})), rest), 1)
    return out


def _oracle_act(spec, g, v: dict) -> dict:
    out: dict = {}
    for mono, c in v.items():
        _oracle_add(out, _oracle_mul(spec, g, mono.factors), c)
    return out


def _oracle_word(spec, word, v: dict) -> dict:
    for g in reversed(word):
        v = _oracle_act(spec, g, v)
    return v


def _seeded_words(spec, rng, count: int) -> list:
    """count words of 1-6 letters over every basis vector, modes -3..3;
    the last one to three letters create (mode < 0), so most words act
    on a nonzero state."""
    labels = [v.label for v in spec.vectors]
    words = []
    for _ in range(count):
        k = rng.randint(1, 6)
        tail = rng.randint(1, min(3, k))
        words.append([gen(spec, rng.choice(labels), rng.randint(-3, 3 if i < k - tail else -1))
                      for i in range(k)])
    return words


CLEAN_PRESETS = sorted(set(PRESETS) - {"novikov-flipped"})


def _ungraded_ns() -> FormulaSpec:
    """neveu-schwarz without its weights: the PBW order is (bid, n) alone."""
    ns = neveu_schwarz()
    return FormulaSpec([(v.label, v.parity) for v in ns.vectors], dict(ns.constant_entries()),
                       central="c", name="ungraded-ns")


def _thirds_and_quarters() -> FormulaSpec:
    """Weights with denominators 3 and 4: [x_m, x_n] = ((m - n)/2) t_{m+n-1},
    t inert, and an inert odd y, so y squares to zero."""
    return FormulaSpec([("x", 0, F(4, 3)), ("t", 0, F(2, 3)), ("y", 1, F(3, 4))],
                       {("x", 1, "x"): {(0, "t"): 1}, ("x", 0, "x"): {(1, "t"): F(1, 2)}},
                       name="thirds-and-quarters")


HAND_BUILT = {"ungraded-ns": _ungraded_ns, "thirds-and-quarters": _thirds_and_quarters}


def _assert_stored_form(v: PbwVector) -> None:
    for c in v._terms.values():
        assert type(c) is (int if c.denominator == 1 else F), c


@pytest.mark.parametrize("name", CLEAN_PRESETS + sorted(HAND_BUILT))
def test_normal_ordering_matches_memo_free_oracle(name: str) -> None:
    spec = HAND_BUILT[name]() if name in HAND_BUILT else preset(name)
    rng = random.Random(f"oracle-{name}")
    words = _seeded_words(spec, rng, 40)
    labels = [v.label for v in spec.vectors]
    if spec.central is not None:  # central modes the quotient kills, and c_{-1}
        words += [[gen(spec, "c", n), gen(spec, labels[0], -1)] for n in (-3, -2, -1, 0, 2)]
        words += [[gen(spec, labels[0], 1), gen(spec, "c", -2), gen(spec, labels[0], -2)]]
    for word in words:
        got = act_word(spec, word)
        assert dict(got.items()) == _oracle_word(spec, word, {PbwMonomial(): F(1)}), word
        _assert_stored_form(got)
    # one-term inputs whose coefficient is not 1, on the word results
    for word, coeff in zip(words, itertools.cycle((F(-1), F(3), F(-5, 2), F(2, 3)))):
        g = word[0]
        for mono, c in act_word(spec, word[1:]).items():
            want = _oracle_act(spec, g, {mono: coeff * c})
            got = act(spec, g, basis_vector(spec, mono, coeff * c))
            assert dict(got.items()) == want, (g, mono)
            _assert_stored_form(got)
    # inputs that mix monomials of different factor counts, the vacuum among
    # them, with fractional coefficients: each enters normal ordering scaled to
    # its longest monomial's level and leaves divided back, term by term
    for first, second, coeff in zip(words[:20:2], words[1:20:2],
                                    itertools.cycle((F(-5, 2), F(2, 3), F(7, 4)))):
        v = act_word(spec, first[1:]) + act_word(spec, second).scale(coeff) \
            + vacuum().scale(F(1, 3))
        terms = dict(v.items())
        g, h = first[0], second[-1]
        got = act(spec, g, v)
        assert dict(got.items()) == _oracle_act(spec, g, terms), (g, v)
        _assert_stored_form(got)
        want: dict = {}
        _oracle_add(want, _oracle_act(spec, g, terms), F(3, 2))
        _oracle_add(want, _oracle_act(spec, h, terms), -2)
        got = act_lie(spec, LieElement({g: F(3, 2)}) + LieElement({h: -2}), v)
        assert dict(got.items()) == want, (g, h, v)
        _assert_stored_form(got)
        got = act_word(spec, second[:2], v)
        assert dict(got.items()) == _oracle_word(spec, second[:2], terms), (second, v)
        _assert_stored_form(got)


@pytest.mark.parametrize("name", sorted(PRESETS) + sorted(HAND_BUILT) + ["empty"])
def test_integer_order_key_matches_the_rational_key(name: str) -> None:
    # L (n + 1 - w) for L the lcm of the weight denominators orders and ties
    # exactly as n + 1 - w does
    spec = (FormulaSpec([], {}) if name == "empty" else
            HAND_BUILT[name]() if name in HAND_BUILT else preset(name))
    gens = [LieGenerator(v.index, n) for v in spec.vectors for n in range(-6, 7)]
    assert [g for g in gens if type(verma_module._order_key(spec, g)[0]) is not int] == []
    assert (sorted(gens, key=lambda g: verma_module._order_key(spec, g))
            == sorted(gens, key=lambda g: _oracle_key(spec, g)))
    for g, h in itertools.product(gens, repeat=2):
        kg, kh = verma_module._order_key(spec, g)[0], verma_module._order_key(spec, h)[0]
        qg, qh = _oracle_key(spec, g)[0], _oracle_key(spec, h)[0]
        assert (kg < kh, kg == kh) == (qg < qh, qg == qh), (g, h)


def test_normal_ordering_oracle_covers_odd_squares_and_killed_modes() -> None:
    t = [gen(NS, "tau", n) for n in (-1, -2, -3)]
    for g in t:  # odd squares g g 1 and g g g' 1, g' a different odd mode
        for word in ([g, g], [g, g, t[0] if g != t[0] else t[1]], [g, gen(NS, "omega", -2), g]):
            want = {PbwMonomial(): F(1)}
            for x in reversed(word):
                want = _oracle_act(NS, x, want)
            assert dict(act_word(NS, word).items()) == want, word
    for spec in (virasoro(), preset("affine-sl2")):
        c = spec.bid("c")
        other = next(v.label for v in spec.vectors if v.index != c)
        # modes the central quotient kills, and c_{-1}, entering a word first,
        # in the middle and last; the first letter acts on a scaled vector
        x3, x1 = gen(spec, other, -3), gen(spec, other, -1)
        for g in (gen(spec, other, -2), gen(spec, other, 1), gen(spec, other, 3),
                  LieGenerator(c, -2), LieGenerator(c, 1), LieGenerator(c, -1)):
            for word in ([g, x3, x1], [x3, g, x1], [x3, x1, g]):
                rest = {PbwMonomial(): F(1)}
                for x in reversed(word[1:]):
                    rest = _oracle_act(spec, x, rest)
                for coeff in (F(1), F(-3, 2)):
                    want = _oracle_act(spec, word[0], {m: coeff * r for m, r in rest.items()})
                    got = act(spec, word[0], act_word(spec, word[1:]).scale(coeff))
                    assert dict(got.items()) == want, word
        assert act(spec, LieGenerator(c, -2), vacuum()).is_zero


def test_act_result_is_safe_to_share() -> None:
    spec = virasoro()
    v = vec(spec, ("omega", -2), ("omega", -1))
    for g in (gen(spec, "omega", n) for n in (-3, 1, 2, 3)):
        first = act(spec, g, v)
        want = dict(first.items())
        # every operation on the shared product builds a new vector
        for derived in (first + first, first - first, -first, first.scale(F(-7, 3)),
                        specialize_level(spec, first, F(5, 2)), apply_D_module(spec, first)):
            assert derived is not first
        act_word(spec, [g, gen(spec, "omega", -1)], first)
        hash(first)
        assert dict(first.items()) == want
        assert dict(act(spec, g, v).items()) == want
        assert dict(act(virasoro(), g, v).items()) == want
        assert dict(act(spec, g, v.scale(3)).items()) == {m: 3 * c for m, c in want.items()}


# The normal-ordering rewrites memoized on a fresh spec after the seeded
# act_word list of _after_seeded_words, recorded once the memo kept only
# rewrites, and the nodes of the spec's monomial trie after that list: one
# per monomial normal ordering built, as a product or a rewrite's term.
# Both sit in the one product table spec._memo[_mul_gen], told apart by
# their values: a rewrite is a tuple, a trie node a _Node.
MEMO_SIZE = {"virasoro": 34, "neveu-schwarz": 122, "affine-sl2": 65}
NODE_COUNT = {"virasoro": 30, "neveu-schwarz": 110, "affine-sl2": 71}


def _after_seeded_words(name: str):
    """A fresh preset spec, or the N=2 table of _n2, after normal-ordering 60 seeded words."""
    spec = _n2() if name == "n2" else preset(name)
    for word in _seeded_words(spec, random.Random(f"memo-{name}"), 60):
        act_word(spec, word)
    return spec


@pytest.mark.parametrize("name", sorted(MEMO_SIZE))
def test_normal_ordering_memo_does_not_grow(name: str) -> None:
    assert len(_normal_ordering_entries(_after_seeded_words(name))) <= MEMO_SIZE[name]


def _product_table(spec) -> dict:
    """spec._memo[_mul_gen], {g: {node: g node}}: a rewrite tuple or a trie node."""
    return spec._memo.get(verma_module._mul_gen, {})


def _normal_ordering_entries(spec) -> list:
    """The (g, node) keys of the product table's rewrites: the memoized normal-ordering products."""
    return [(g, node) for g, table in _product_table(spec).items()
            for node, out in table.items() if type(out) is tuple]


def _trie(spec) -> list:
    """The nodes of the spec's monomial trie: the product table's _Node values."""
    return [out for table in _product_table(spec).values()
            for out in table.values() if type(out) is verma_module._Node]


def _memo_sizes(spec) -> tuple:
    """The numbers of derived tables, normal-ordering entries and trie nodes."""
    return len(spec._memo), len(_normal_ordering_entries(spec)), len(_trie(spec))


def _assert_one_node_per_monomial(spec) -> None:
    # every node that the trie, a node's rest or a rewrite holds is the product
    # table's node for its (head, rest), so no two such nodes share (head, rest)
    table = _product_table(spec)
    held = []
    for by_node in table.values():
        for node, out in by_node.items():
            held += [node, *out[::2]] if type(out) is tuple else [node, out]
    seen = set()
    while held:
        node = held.pop()
        if node is verma_module._ROOT or node in seen:
            continue
        seen.add(node)
        assert table[node.head][node.rest] is node, _heads(node)
        held.append(node.rest)


@pytest.mark.parametrize("name", sorted(MEMO_SIZE))
def test_normal_ordering_memoizes_only_rewrites(name: str) -> None:
    # a rewrite moves g past the first factor, or is an odd square; a product
    # the quotient or the vacuum kills, or that puts g in front, is not stored
    spec = _after_seeded_words(name)
    entries = _normal_ordering_entries(spec)
    assert entries
    for g, node in entries:
        assert node is not verma_module._ROOT, g
        assert not verma_module._quotient_kills(spec, g), (g, _heads(node))
        head = node.head
        key, head_key = verma_module._order_key(spec, g), verma_module._order_key(spec, head)
        assert g.n >= 0 or key > head_key or g == head and spec.parity(g.bid), (g, _heads(node))


@pytest.mark.parametrize("name", sorted(MEMO_SIZE))
def test_normal_ordering_memo_holds_each_monomial_once(name: str) -> None:
    # each entry under a generator is a trie node or a rewrite, a flat tuple
    # (n1, c1, n2, c2, ...), and every monomial it keeps, key or term, is a
    # node of the spec's trie
    spec = _after_seeded_words(name)
    for g, table in _product_table(spec).items():
        for node, out in table.items():
            if type(out) is verma_module._Node:
                assert out.head == g and out.rest is node
                continue
            assert type(out) is tuple and len(out) % 2 == 0 and all(out[1::2])
            assert all(type(x) is verma_module._Node for x in (node, *out[::2]))
    _assert_one_node_per_monomial(spec)
    assert len(_trie(spec)) == NODE_COUNT[name]


@pytest.mark.parametrize("name", ["neveu-schwarz", "virasoro", "n2"])
def test_normal_ordering_keeps_every_product_in_ints(name: str) -> None:
    # rewrites are kept at their level, so a swap's bracket terms enter as
    # c D/L and an odd square's as c, never divided: every coefficient of the
    # product table is an int, on tables with L > 1 and odd squares
    spec = _after_seeded_words(name)
    assert spec._scale > 1
    coeffs = [c for table in _product_table(spec).values() for out in table.values()
              if type(out) is tuple for c in out[1::2]]
    assert coeffs and {type(c) for c in coeffs} == {int}


def _pair_tables(spec) -> dict:
    """The derived tables of spec._memo keyed by generator pairs, by name."""
    return {key.__name__: table for key, table in spec._memo.items() if callable(key)
            and isinstance(table, dict) and table  # _per_spec values include an int
            and all(isinstance(k, tuple) and len(k) == 2
                    and all(type(g) is LieGenerator for g in k) for k in table)}


def test_normal_ordering_keeps_one_pair_table_that_bracket_leaves_alone() -> None:
    # normal ordering makes each generator bracket [g, h] it needs once per
    # spec and keeps it in its one pair table; bracket computes its own pair
    # terms, agrees with the kept ones, and neither reads nor adds an entry
    spec = virasoro()
    act_word(spec, [gen(spec, "omega", 2), gen(spec, "omega", -1), gen(spec, "omega", -3)])
    tables = _pair_tables(spec)
    assert list(tables) == ["_pair_terms"]
    table = tables["_pair_terms"]
    made = dict(table)
    assert any(made.values())
    for (gx, gy), terms in made.items():
        want = LieElement({g: F(c, spec._scale) for g, c in terms})
        assert bracket(spec, LieElement({gx: 1}), LieElement({gy: 1})) == want
    fresh = (gen(spec, "omega", 5), gen(spec, "omega", -4))
    bracket(spec, LieElement({fresh[0]: 1}), LieElement({fresh[1]: 1}))
    assert list(table) == list(made) and all(table[k] is terms for k, terms in made.items())
    assert list(_pair_tables(spec)) == ["_pair_terms"]
    # normal ordering stores a generator pair only when its basis pair has a
    # row: e_1 e_-1 swaps with no bracket, e_1 f_-2 brings in [e_1, f_-2]
    spec = preset("affine-sl2")
    act_word(spec, [gen(spec, "e", 1), gen(spec, "e", -1), gen(spec, "f", -2)])
    bracket(spec, LieElement({gen(spec, "h", 2): 1}), LieElement({gen(spec, "h", -3): 1,
                                                                  gen(spec, "c", -1): 1}))
    table = _pair_tables(spec)["_pair_terms"]
    assert (gen(spec, "e", 1), gen(spec, "f", -2)) in table
    assert (gen(spec, "e", 1), gen(spec, "e", -1)) not in table
    assert (gen(spec, "h", 2), gen(spec, "h", -3)) not in table
    assert all(spec._row(gx.bid, gy.bid) for gx, gy in table)


def test_the_module_actions_refuse_a_mode_the_spec_does_not_have() -> None:
    # act, act_lie and act_word take only what generator() makes: a
    # LieGenerator with an int basis index inside the basis and an int mode
    spec = virasoro()
    v = act_word(spec, [gen(spec, "omega", -2)])
    before = {g: dict(by_node) for g, by_node in _product_table(spec).items()}
    refused = [(LieGenerator(0, -1.5), TypeError, "^mode must be an integer, got -1.5$"),
               (LieGenerator(0, 1.5), TypeError, "^mode must be an integer, got 1.5$"),
               (LieGenerator(True, -1), TypeError, "^basis index must be an integer, got True$"),
               (LieGenerator("omega", -1), TypeError, "^basis index must be an integer"),
               ((0, -1), TypeError, "^expected a LieGenerator, got tuple$"),
               (LieGenerator(5, -1), KeyError, "^'no basis vector number 5'$"),
               (LieGenerator(-1, -1), KeyError, "^'no basis vector number -1'$")]
    for g, error, message in refused:
        calls = [lambda: act(spec, g, vacuum()), lambda: act(spec, g, v),
                 lambda: act_word(spec, [g]), lambda: act_word(spec, [gen(spec, "omega", -1), g]),
                 lambda: act_word(spec, [g, gen(spec, "omega", -2)], v),
                 lambda: act_lie(spec, LieElement({g: 1, gen(spec, "c", -1): 2}), vacuum())]
        for call in calls:
            with pytest.raises(error, match=message):
                call()
    with pytest.raises(TypeError, match="^expected a LieElement, got dict$"):
        act_lie(spec, {gen(spec, "omega", -1): 1}, vacuum())
    # each refusal comes before any normal ordering: the product table is unchanged
    assert {g: dict(by_node) for g, by_node in _product_table(spec).items()} == before


def test_normal_ordering_confluence() -> None:
    # a fixed word applied with different associations agrees
    rng = random.Random(2718)
    for _ in range(20):
        word = [gen(VIR, "omega", rng.randint(-3, 2)) for _ in range(4)]
        direct = act_word(VIR, word)
        left = act(VIR, word[0], act_word(VIR, word[1:]))
        right = act_word(VIR, word[:3], act(VIR, word[3], vacuum()))
        assert direct == left == right


# ---------------------------------------------------------------------------
# derivation on the module
# ---------------------------------------------------------------------------

def test_apply_D_module_examples() -> None:
    assert dict(apply_D_module(VIR, vec(VIR, ("omega", -1))).items()) == \
        {monomial(VIR, ("omega", -2)): 1}
    assert apply_D_module(VIR, vec(VIR, ("c", -1))).is_zero
    two = vec(VIR, ("omega", -2), ("omega", -1))
    got = apply_D_module(VIR, two)
    assert dict(got.items()) == {monomial(VIR, ("omega", -3), ("omega", -1)): 2,
                                 monomial(VIR, ("omega", -2), ("omega", -2)): 1}


def _apply_D_by_its_own_rule(spec, v):
    """sum over the factors u_n of each monomial of -n (... u_{n-1} ...), the
    factor dropped at n = 0 and where the quotient kills u_{n-1}: the terms as
    (monomial, coefficient, stored type) in order."""
    from vertexlie.formula import _add_scaled
    from vertexlie.local_algebra import _quotient_kills

    acc: dict = {}
    for mono, coeff in v._terms.items():
        factors = mono.factors
        for i, g in enumerate(factors):
            dg = LieGenerator(g.bid, g.n - 1)
            if g.n and not _quotient_kills(spec, dg):
                piece = act_word(spec, factors[:i] + (dg,),
                                 basis_vector(spec, PbwMonomial(factors[i + 1:])))
                _add_scaled(acc, piece, -g.n * coeff)
    return [(m, c, type(c)) for m, c in acc.items()]


def _apply_D_outcome(spec, v):
    try:
        return [(m, c, type(c)) for m, c in apply_D_module(spec, v)._terms.items()]
    except BoundInsufficientError as err:
        return type(err)


def _module_words(spec, rng) -> list:
    """Seeded sums of words of one to three negative modes, fractional coefficients."""
    gens = [LieGenerator(bid, n) for bid in range(spec.dim) for n in range(-3, 0)]
    out = []
    for _ in range(6):
        acc = vacuum().scale(0)
        for _ in range(rng.randint(1, 3)):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 3))]
            acc = acc + act_word(spec, word).scale(F(rng.randint(1, 9), rng.choice((1, 2, 3))))
        out.append(acc)
    return out


def test_apply_D_module_matches_its_own_rule() -> None:
    # apply_D_module takes each factor's image from lie_D; it must give the
    # derivation's values, stored types and term order
    from test_defects import TYPO_TABLES, _random_tables

    rng = random.Random(3003)
    specs = [preset(name) for name in sorted(PRESETS)]
    specs += [TYPO_TABLES[name]() for name in sorted(TYPO_TABLES)]
    specs += _random_tables(random.Random(3004), 20)
    for spec in specs:
        for v in _module_words(spec, rng):
            assert _apply_D_outcome(spec, v) == _apply_D_by_its_own_rule(spec, v), (spec, v)


def test_apply_D_module_raises_where_its_own_rule_raises() -> None:
    # the sweep at the default bound raises on this table, but the verdict
    # reads every defect, so the quotient kills no mode: apply_D_module
    # follows its rule on every word, and neither raises
    from test_local_algebra import _raising_virasoro

    spec = _raising_virasoro()
    om, c = spec.bid("omega"), spec.bid("c")
    monos = [PbwMonomial(tuple(LieGenerator(bid, n) for bid, n in factors))
             for factors in ([], [(om, -2)], [(c, -1)], [(om, -3), (om, -1)])]
    inputs = [vacuum().scale(0), vacuum()] + [basis_vector(spec, m, F(3, 2)) for m in monos]
    outcomes = [(_apply_D_outcome(spec, v), _apply_D_by_its_own_rule(spec, v)) for v in inputs]
    assert all(got == want for got, want in outcomes)
    assert BoundInsufficientError not in [got for got, _want in outcomes]


def test_D_commutation_with_modes() -> None:
    from vertexlie.local_algebra import lie_D

    rng = random.Random(55)
    basis = monomial_basis(VIR, 5)
    monos = [m for monos in basis.values() for m in monos]
    for _ in range(25):
        g = gen(VIR, "omega", rng.randint(-3, 3))
        v = basis_vector(VIR, rng.choice(monos))
        lhs = apply_D_module(VIR, act(VIR, g, v))
        rhs = act_lie(VIR, lie_D(VIR, LieElement({g: 1})), v) \
            + act(VIR, g, apply_D_module(VIR, v))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# weights and diagonal action
# ---------------------------------------------------------------------------

def test_weight_additivity() -> None:
    rng = random.Random(808)
    basis = monomial_basis(VIR, 6)
    monos = [m for monos in basis.values() for m in monos]
    for _ in range(30):
        g = gen(VIR, "omega", rng.randint(-3, 3))
        m = rng.choice(monos)
        out = act(VIR, g, basis_vector(VIR, m))
        if out:
            assert vector_weight(VIR, out) == monomial_weight(VIR, m) + 2 - g.n - 1


def test_omega_modes_act_as_grading_and_derivation() -> None:
    basis = monomial_basis(VIR, 6)
    for w, monos in basis.items():
        for m in monos:
            v = basis_vector(VIR, m)
            assert dict(act(VIR, gen(VIR, "omega", 1), v).items()) == ({m: w} if w else {})
            assert act(VIR, gen(VIR, "omega", 0), v) == apply_D_module(VIR, v)


# ---------------------------------------------------------------------------
# graded dimensions
# ---------------------------------------------------------------------------

def partitions_with_parts_at_least(n: int, minimum: int) -> int:
    """Partition counter by recursion on the smallest part, independent
    of the module code."""
    @lru_cache(maxsize=None)
    def count(remaining: int, smallest: int) -> int:
        if remaining == 0:
            return 1
        return sum(count(remaining - part, part)
                   for part in range(smallest, remaining + 1))
    return count(n, minimum)


def test_virasoro_dims_match_partition_oracle() -> None:
    dims = graded_dimension(VIR, 9)
    for n in range(10):
        assert dims[F(n)] == partitions_with_parts_at_least(n, 2)


def test_virasoro_dims_match_partition_oracle_at_large_cutoff() -> None:
    dims = graded_dimension(VIR, 60)
    assert list(dims) == [F(n) for n in range(61)]
    for n in range(61):
        assert dims[F(n)] == partitions_with_parts_at_least(n, 2)
    assert dims[F(60)] == 134647  # p(60) - p(59)


def test_heisenberg_dims_match_partition_oracle() -> None:
    dims = graded_dimension(HEIS, 7)
    for n in range(8):
        assert dims[F(n)] == partitions_with_parts_at_least(n, 1)


def test_empty_formula_dims() -> None:
    from vertexlie import EVEN, FormulaSpec

    empty = FormulaSpec([("a", EVEN, 1)], {})
    dims = graded_dimension(empty, 3)
    assert dims == {F(0): 1, F(1): 1, F(2): 2, F(3): 3}
    truly_empty = FormulaSpec([], {})
    assert graded_dimension(truly_empty, 2) == {F(0): 1, F(1): 0, F(2): 0}


def test_empty_formula_spotcheck() -> None:
    # the same empty formula that graded_dimension accepts: only the vacuum
    report = axiom_spotcheck(FormulaSpec([], {}), 2)
    assert report.ok and report.locality and report.creation


def _poly_mul(a: dict, b: dict, cutoff: F) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            if w <= cutoff:
                out[w] = out.get(w, 0) + ca * cb
    return out


def character_oracle(generator_weights, odd_weights, cutoff: F) -> dict:
    """Graded character via a truncated product of geometric factors."""
    out = {F(0): 1}
    for w in generator_weights:
        factor = {}
        k = 0
        while k * w <= cutoff:
            factor[k * w] = 1
            k += 1
        out = _poly_mul(out, factor, cutoff)
    for w in odd_weights:
        out = _poly_mul(out, {F(0): 1, w: 1}, cutoff)
    return out


def test_neveu_schwarz_dims_match_character_oracle() -> None:
    cutoff = F(11, 2)
    even = [F(w) for w in range(2, 6)]          # omega modes: weights 2,3,4,5
    odd = [F(3, 2) + k for k in range(0, 5)]    # tau modes: 3/2, 5/2, ...
    odd = [w for w in odd if w <= cutoff]
    want = character_oracle(even, odd, cutoff)
    dims = graded_dimension(NS, cutoff)
    for w, d in want.items():
        if d:
            assert dims.get(w, 0) == d
    assert dims[F(7, 2)] == 2
    assert dims[F(4)] == 3


# The lower of the two graded_dimension cutoffs the benchmark runs per preset.
DIMS_LOW_CUTOFF = {"virasoro": 25, "neveu-schwarz": 15, "affine-sl2": 7, "heisenberg": 20,
                   "loop-abelian": 12, "novikov-lambda": 14, "comm-assoc-dual": 14}


def _monomial_counts(spec: FormulaSpec, cutoff) -> dict:
    counts = {w: len(monos) for w, monos in monomial_basis(spec, cutoff).items()}
    for k in range(int(F(cutoff)) + 1):
        counts.setdefault(F(k), 0)
    return dict(sorted(counts.items()))


@pytest.mark.parametrize("name", sorted(DIMS_LOW_CUTOFF))
def test_graded_dimension_matches_monomial_count(name: str) -> None:
    spec = preset(name)
    for cutoff in (0, "1/2", "5/2", DIMS_LOW_CUTOFF[name]):
        dims = graded_dimension(spec, cutoff)
        want = _monomial_counts(spec, cutoff)
        assert list(dims.items()) == list(want.items()), (name, cutoff)


def test_graded_dimension_counts_unreduced_central_modes() -> None:
    # c is designated but no defect puts it in the quotient, so its modes
    # c_{-2}, c_{-3}, ... are generators and only c_{-1} is left out
    spec = FormulaSpec([("a", 0, F(1, 2)), ("b", 1, F(3, 2)), ("c", 0, 0)], {}, central="c")
    for cutoff in (0, "1/2", "7/2", 6):
        dims = graded_dimension(spec, cutoff)
        assert list(dims.items()) == list(_monomial_counts(spec, cutoff).items())
    # weight 3/2: a_{-1}^3, a_{-2}, b_{-1}, a_{-1} c_{-2}
    assert graded_dimension(spec, 2) == {F(0): 1, F(1, 2): 1, F(1): 2, F(3, 2): 4, F(2): 6}


def test_dims_match_act_closure_rank() -> None:
    # independent construction: close the vacuum under creation modes and
    # measure the rank of each graded piece
    for spec, cutoff in ((VIR, F(6)), (HEIS, F(5))):
        creations = []
        for v in spec.vectors:
            if v.index == spec.central:
                continue
            n = -1
            while v.weight - n - 1 <= cutoff:
                creations.append(LieGenerator(v.index, n))
                n -= 1
        frontier = [vacuum()]
        seen = {}
        while frontier:
            vecs, frontier = frontier, []
            for w in vecs:
                weight = vector_weight(spec, w)
                seen.setdefault(weight, []).append(w)
                for g in creations:
                    new_weight = weight + spec.weight(g.bid) - g.n - 1
                    if new_weight <= cutoff:
                        out = act(spec, g, w)
                        if out:
                            frontier.append(out)
        dims = graded_dimension(spec, cutoff)
        for weight, vectors in seen.items():
            space = RowSpace(dict(v.items()) for v in vectors)
            assert space.rank == dims[weight]


def test_dims_need_grading_and_verdict() -> None:
    from vertexlie import EVEN, FormulaSpec

    with pytest.raises(UngradedError):
        graded_dimension(FormulaSpec([("a", EVEN)], {}), 3)
    with pytest.raises(NotInjectiveError):
        graded_dimension(novikov(lambda_algebra(flipped=True)), 3)


def test_dims_refuse_a_noncentral_vector_of_weight_zero() -> None:
    from vertexlie import EVEN, injectivity_verdict

    # every power of a_{-1} has weight 0; the central c of weight 0 is allowed
    spec = FormulaSpec([("a", EVEN, 0), ("b", EVEN, 1)], {})
    assert injectivity_verdict(spec).injective
    with pytest.raises(FormulaError, match="^basis vector 'a' of weight 0 makes graded "
                                           "pieces infinite-dimensional$"):
        graded_dimension(spec, 2)
    assert VIR.weight("c") == 0 and graded_dimension(VIR, 2)[F(2)] == 1


def test_monomial_basis_is_sorted_and_normal_ordered() -> None:
    basis = monomial_basis(VIR, 8)
    for monos in basis.values():
        for m in monos:
            keys = [(-monomial_weight(VIR, PbwMonomial((g,))), g.bid, g.n)
                    for g in m.factors]
            assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# level specialization
# ---------------------------------------------------------------------------

def test_specialize_level() -> None:
    half_c = F(1, 2) * vec(VIR, ("c", -1))
    assert specialize_level(VIR, half_c, 26) == 13 * vacuum()
    assert specialize_level(VIR, vacuum(), F(7, 3)) == vacuum()
    mixed = vec(VIR, ("omega", -1), ("c", -1))
    assert specialize_level(VIR, mixed, 0).is_zero
    twice = specialize_level(VIR, specialize_level(VIR, half_c, 26), 26)
    assert twice == 13 * vacuum()


def test_specialize_needs_central() -> None:
    from vertexlie import EVEN, FormulaSpec

    with pytest.raises(FormulaError):
        specialize_level(FormulaSpec([("a", EVEN, 1)], {}), vacuum(), 1)


# ---------------------------------------------------------------------------
# kappa and field coefficients
# ---------------------------------------------------------------------------

def test_kappa_embedding() -> None:
    om = basis_element(VIR.bid("omega"))
    assert kappa(VIR, om) == kappa_basis(VIR, "omega")
    assert dict(kappa(VIR, apply_D(om)).items()) == {monomial(VIR, ("omega", -2)): 1}
    assert dict(kappa(VIR, apply_D(om, 2)).items()) == {monomial(VIR, ("omega", -3)): 2}
    # positive D-powers of the central vector die in the quotient
    assert kappa(VIR, apply_D(basis_element(VIR.bid("c")))).is_zero


def _kappa_reference(spec, A: Element) -> dict:
    """D^k u -> k! u_{-k-1} 1, less the modes the central quotient kills, as
    {monomial: Fraction}."""
    acc: dict = {}
    for (k, bid), coeff in A.items():
        g = LieGenerator(bid, -k - 1)
        if not (g.bid == central_reduction(spec) and g.n != -1):
            acc[PbwMonomial((g,))] = coeff * factorial(k)
    return acc


@pytest.mark.parametrize("name", CLEAN_PRESETS)
def test_kappa_matches_closed_form(name: str) -> None:
    spec = preset(name)
    rng = random.Random(5)

    def coeff() -> F:
        return F(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))

    samples = [basis_element(u, k, coeff()) for u in range(spec.dim) for k in range(4)]
    samples += [Element({(rng.randint(0, 3), rng.randrange(spec.dim)): coeff()
                         for _ in range(rng.randint(1, 4))}) for _ in range(40)]
    for A in samples:
        assert dict(kappa(spec, A).items()) == _kappa_reference(spec, A), A
    if name in ("virasoro", "affine-sl2"):
        # the quotient kills D^k c for k >= 1; only c itself survives
        c = spec.central
        assert central_reduction(spec) == c
        assert kappa(spec, basis_element(c, 0, F(2, 3))) == kappa_basis(spec, c).scale(F(2, 3))
        for k in range(1, 4):
            assert kappa(spec, basis_element(c, k, F(2, 3))).is_zero
            mixed = basis_element(c, k, F(-1, 2)) + basis_element(0, k, 3)
            assert kappa(spec, mixed) == kappa(spec, basis_element(0, k, 3))


def test_field_coefficient_creation() -> None:
    kom = kappa_basis(VIR, "omega")
    for n in range(0, 5):
        assert field_coefficient(VIR, kom, n, vacuum(), 10).is_zero
    assert field_coefficient(VIR, kom, -1, vacuum(), 10) == kom
    composite = act_word(VIR, [gen(VIR, "omega", -2), gen(VIR, "omega", -1)])
    assert field_coefficient(VIR, composite, -1, vacuum(), 10) == composite
    assert field_coefficient(VIR, composite, 0, vacuum(), 10).is_zero


def test_field_coefficient_vacuum_identity() -> None:
    b = act_word(VIR, [gen(VIR, "omega", -2), gen(VIR, "omega", -1)])
    for n in range(-3, 3):
        want = dict(b.items()) if n == -1 else {}
        assert dict(field_coefficient(VIR, vacuum(), n, b, 10).items()) == want


def test_field_coefficient_matches_mode_action_on_basis() -> None:
    kom = kappa_basis(VIR, "omega")
    b = act_word(VIR, [gen(VIR, "omega", -2), gen(VIR, "omega", -1)])
    for n in range(-4, 5):
        assert field_coefficient(VIR, kom, n, b, 12) == act(VIR, gen(VIR, "omega", n), b)


def test_field_coefficient_translation_identity() -> None:
    samples = [kappa_basis(VIR, "omega"),
               act_word(VIR, [gen(VIR, "omega", -1), gen(VIR, "omega", -1)])]
    targets = [vacuum(), kappa_basis(VIR, "omega")]
    for a in samples:
        da = apply_D_module(VIR, a)
        for b in targets:
            for n in range(-4, 5):
                lhs = field_coefficient(VIR, da, n, b, 14)
                rhs = field_coefficient(VIR, a, n - 1, b, 14).scale(-n)
                assert lhs == rhs


def test_field_coefficient_cutoff_guard() -> None:
    kom = kappa_basis(VIR, "omega")
    with pytest.raises(CutoffExceededError):
        field_coefficient(VIR, kom, -5, kom, 4)
    # the only nonzero term of the second sum sits at i = 1, but the
    # intermediate omega_0 (omega_-1 1) of weight 3 at i = 0 passes the cutoff
    with pytest.raises(CutoffExceededError,
                       match="^intermediate of weight 3 exceeds cutoff 2$"):
        field_coefficient(VIR, kom, 1, kom, 2)
    # a negative cutoff is refused before any sum is formed (it used to
    # return 0 here: c_-1 1 has weight 0, so no intermediate was ever guarded)
    with pytest.raises(ValueError, match="^cutoff must be nonnegative$"):
        field_coefficient(VIR, kappa_basis(VIR, "c"), 5, vacuum(), -3)


@pytest.mark.parametrize("name", CLEAN_PRESETS)
def test_field_of_a_basis_vector_is_its_mode_action(name: str) -> None:
    # Y(u_{-1} 1, z) = u(z): the coefficient (u_{-1} 1)_n b is u_n b
    spec = preset(name)
    for monos in monomial_basis(spec, 3).values():
        for mono in monos:
            b = basis_vector(spec, mono)
            for u in spec.vectors:
                ku = kappa_basis(spec, u.index)
                for n in range(-4, 5):
                    assert field_coefficient(spec, ku, n, b, 10) == \
                        act(spec, LieGenerator(u.index, n), b), (u.label, n, mono)


@pytest.mark.parametrize("name", ["virasoro", "neveu-schwarz", "affine-sl2"])
def test_field_coefficient_is_linear_in_a_vector_of_several_terms(name: str) -> None:
    # a_n b for a and b of several monomials, homogeneous or not, with different
    # factor counts and fractional coefficients, is the sum of the one-term
    # parts' a'_n b'; each part enters at its own level, a sum at its longest
    # monomial's
    spec = preset(name)
    active = [v.label for v in spec.vectors if v.index != spec.central]
    first, last = active[0], active[-1]
    # out of PBW order: the swap adds the bracket, of the same weight
    unordered = act_word(spec, [gen(spec, last, -1), gen(spec, first, -3)])
    assert len(unordered) > 1 and len({monomial_weight(spec, m) for m in unordered._terms}) == 1
    mixed = unordered + act_word(spec, [gen(spec, first, -1)]).scale(F(2, 3))
    assert len({monomial_weight(spec, m) for m in mixed._terms}) == 2
    sources = [kappa_basis(spec, u) for u in active]
    sources.append(act_word(spec, [gen(spec, first, -2), gen(spec, last, -1)]))
    sources.append(mixed.scale(F(-3, 4)) + kappa_basis(spec, last))
    for b in (unordered, mixed):
        parts = [basis_vector(spec, m, c) for m, c in b.items()]
        for a in sources:
            a_parts = [basis_vector(spec, m, c) for m, c in a.items()]
            for n in range(-3, 4):
                want = vacuum().scale(0)
                for a_part, part in itertools.product(a_parts, parts):
                    want = want + field_coefficient(spec, a_part, n, part, 20)
                assert field_coefficient(spec, a, n, b, 20) == want, (a, n, b)
    # a part past the cutoff raises, though the lighter part alone does not
    a = kappa_basis(spec, first)
    light = act_word(spec, [gen(spec, first, -1)])
    heavy = act_word(spec, [gen(spec, first, -4)])
    cutoff = 2 * spec.weight(first)
    assert field_coefficient(spec, a, -1, light, cutoff)
    for b in (heavy, light + heavy):
        with pytest.raises(CutoffExceededError):
            field_coefficient(spec, a, -1, b, cutoff)


def test_field_coefficient_guards() -> None:
    with pytest.raises(NotInjectiveError):
        field_coefficient(novikov(lambda_algebra(flipped=True)),
                          vacuum(), -1, vacuum(), 4)
    kom = kappa_basis(VIR, "omega")
    for mode in (F(3, 2), 1.5, "1", True, False):
        with pytest.raises(TypeError, match=re.escape(f"mode must be an integer, got {mode!r}")):
            field_coefficient(VIR, kom, mode, kom, 8)


def test_field_coefficient_rejects_a_negative_cutoff() -> None:
    kc = kappa_basis(VIR, "c")
    for cutoff in (-3, F(-1, 2), "-1"):
        with pytest.raises(ValueError, match="^cutoff must be nonnegative$"):
            field_coefficient(VIR, kc, 5, vacuum(), cutoff)
    assert field_coefficient(VIR, kc, 5, vacuum(), 0).is_zero
    # the graded and injective guards come first, as in monomial_basis
    for spec, error in ((FormulaSpec([("a", 0)], {}), UngradedError),
                        (novikov(lambda_algebra(flipped=True)), NotInjectiveError),
                        (VIR, ValueError)):
        for call in (lambda: field_coefficient(spec, vacuum(), -1, vacuum(), -1),
                     lambda: monomial_basis(spec, -1)):
            with pytest.raises(error):
                call()


# ---------------------------------------------------------------------------
# spot checks
# ---------------------------------------------------------------------------

def test_axiom_spotcheck_small_neveu_schwarz() -> None:
    report = axiom_spotcheck(NS, 3)
    assert report.ok, report.failures[:5]


def test_axiom_spotcheck_neveu_schwarz_at_cutoff_4_sees_the_super_sign() -> None:
    # the first cutoff whose translation window meets the odd sign of _fc's
    # second sum: with that sign dropped (eps = 1) 45 translation checks fail
    report = axiom_spotcheck(preset("neveu-schwarz"), 4)
    assert report.ok and report.vacuous == (), report.failures[:5]


def _n2() -> FormulaSpec:
    """The N=2 superconformal table: L (2), J (1), G+ and G- (odd, 3/2), c (0).

    a_n b is n! times the lambda^n coefficient of the lambda-brackets
        [L_l L] = (D + 2l) L + (c/12) l^3,  [L_l J] = (D + l) J,
        [L_l G] = (D + 3/2 l) G,  [J_l J] = (c/3) l,  [J_l G+-] = +-G+-,
        [G+-_l G-+] = L +- (1/2 D J + l J) + (c/6) l^2,
    and of their skew partners [J_l L] = l J, [G_l L] = (1/2 D + 3/2 l) G
    and [G+-_l J] = -+G+-, for G either of G+ and G-.
    """
    half = F(1, 2)
    constants = {
        ("L", 0, "L"): {(1, "L"): 1}, ("L", 1, "L"): {(0, "L"): 2},
        ("L", 3, "L"): {(0, "c"): half},
        ("L", 0, "J"): {(1, "J"): 1}, ("L", 1, "J"): {(0, "J"): 1},
        ("J", 1, "L"): {(0, "J"): 1}, ("J", 1, "J"): {(0, "c"): F(1, 3)},
    }
    for g, other, sign in (("G+", "G-", 1), ("G-", "G+", -1)):
        constants.update({
            ("L", 0, g): {(1, g): 1}, ("L", 1, g): {(0, g): F(3, 2)},
            (g, 0, "L"): {(1, g): half}, (g, 1, "L"): {(0, g): F(3, 2)},
            ("J", 0, g): {(0, g): sign}, (g, 0, "J"): {(0, g): -sign},
            (g, 0, other): {(0, "L"): 1, (1, "J"): sign * half},
            (g, 1, other): {(0, "J"): sign}, (g, 2, other): {(0, "c"): F(1, 3)},
        })
    basis = [("L", EVEN, 2), ("J", EVEN, 1), ("G+", ODD, F(3, 2)), ("G-", ODD, F(3, 2)),
             ("c", EVEN, 0)]
    return FormulaSpec(basis, constants, conformal=("L", "c"), name="n2")


def test_n2_table_embeds_and_counts_its_character() -> None:
    spec = _n2()
    assert injectivity_verdict(spec).status == "injective_central_ideal"
    assert conformal_validate(spec).ok
    # prod_{n>=1} (1 + q^(n+1/2))^2 / ((1 - q^n)(1 - q^(n+1))): J, L and G+- modes
    cutoff = F(5)
    odd = [F(2 * n + 1, 2) for n in range(1, 5)] * 2
    want = character_oracle([F(n) for n in range(1, 6)] + [F(n) for n in range(2, 6)], odd,
                            cutoff)
    dims = graded_dimension(spec, cutoff)
    assert {w: d for w, d in dims.items() if d} == {w: d for w, d in want.items() if d}
    assert [d for d in dims.values() if d] == [1, 1, 2, 3, 4, 6, 10, 15, 20, 28]


# (table, [(mode word applied to the vacuum, its parity)]): on N=2, vectors with odd
# factors of two different generators; on Neveu-Schwarz, an even vector of two odd
# factors and the odd and even vectors of one
SUPER_SIGN_SAMPLES = {
    "n2": (_n2, [([("G+", -1), ("G-", -1)], 0), ([("G+", -1)], 1), ([("G-", -1)], 1),
                 ([("J", -1)], 0)]),
    "neveu-schwarz": (lambda: preset("neveu-schwarz"),
                      [([("tau", -2), ("tau", -1)], 0), ([("tau", -1)], 1),
                       ([("omega", -1)], 0)]),
}


@pytest.mark.parametrize("table", sorted(SUPER_SIGN_SAMPLES))
def test_n2_table_skew_symmetry_sees_the_super_sign(table: str) -> None:
    # a_n b = -eps sum_k (-1)^(n+k) D^k/k! b_{n+k} a; with the parity sign of
    # _fc's second sum dropped (eps = 1) 15 of these comparisons fail on each
    # table, while axiom_spotcheck(_n2(), 2) still passes
    make, words = SUPER_SIGN_SAMPLES[table]
    spec = make()
    samples = [(act_word(spec, [gen(spec, label, n) for label, n in word]), parity)
               for word, parity in words]
    failures = []
    for a, pa in samples:
        for b, pb in samples:
            eps = -1 if pa and pb else 1
            top = floor(vector_weight(spec, a) + vector_weight(spec, b))
            for n in range(3):
                rhs = vacuum().scale(0)
                for k in range(top - n):
                    term = field_coefficient(spec, b, n + k, a, 12)
                    for _ in range(k):
                        term = apply_D_module(spec, term)
                    rhs = rhs + term.scale(F(-eps * (-1) ** (n + k), factorial(k)))
                if field_coefficient(spec, a, n, b, 12) != rhs:
                    failures.append((a, n, b))
    assert not failures, f"{len(failures)} comparisons fail: {failures[:3]}"


# _act_into and _field_coefficient calls of axiom_spotcheck(affine-sl2, 1) on
# a fresh spec, once each u_a w is shared by every pair that reads it, each
# commutator-formula field by every (m, n) that reads it and each half-skew
# field v_j u by every n + k = j; before that sharing they were 730 and
# 1 154 (638 field calls with the half-skew fields alone unshared).
SPOTCHECK_CALLS = {"_act_into": 193, "_field_coefficient": 629}


def test_axiom_spotcheck_computes_each_mode_action_and_field_once(monkeypatch) -> None:
    calls = dict.fromkeys(SPOTCHECK_CALLS, 0)

    def counted(name):
        real = getattr(verma_module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in SPOTCHECK_CALLS:
        monkeypatch.setattr(verma_module, name, counted(name))
    assert axiom_spotcheck(preset("affine-sl2"), 1).ok
    assert calls == SPOTCHECK_CALLS


# _mul_gen calls, recursive ones included, of axiom_spotcheck on a fresh spec,
# once locality keeps one pair grid per unordered basis pair {u, v} (the duo
# (v, u) and the diagonal read it at swapped modes) and a normal-ordering
# miss walks the stored product g rest instead of a fresh copy of it; before
# both they were 5 964 and 1 715.
MUL_GEN_CALLS = {("affine-sl2", 1): 3994, ("virasoro", 3): 1253}


@pytest.mark.parametrize("name,cutoff", sorted(MUL_GEN_CALLS))
def test_axiom_spotcheck_computes_each_pair_cell_once(name, cutoff, monkeypatch) -> None:
    calls = [0]
    real = verma_module._mul_gen

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(verma_module, "_mul_gen", counted)
    assert axiom_spotcheck(preset(name), cutoff).ok
    assert calls[0] == MUL_GEN_CALLS[name, cutoff]


def test_axiom_spotcheck_abelian() -> None:
    from vertexlie import EVEN, FormulaSpec

    flat = FormulaSpec([("a", EVEN, 1)], {})
    report = axiom_spotcheck(flat, 4)
    assert report.ok, report.failures[:5]


def test_axiom_spotcheck_names_the_clauses_that_compared_nothing() -> None:
    # every basis vector of loop-abelian is central: u and v run over nothing
    report = axiom_spotcheck(preset("loop-abelian"), 2)
    assert report.ok and report.half_skew and report.locality and report.commutator_formula
    assert report.vacuous == ("half_skew", "locality", "commutator_formula")
    assert axiom_spotcheck(virasoro(), 2).vacuous == ()


def _doubled(real):
    return lambda *args: real(*args).scale(2)


def _doubled_terms(real):
    # every generator bracket [g, h] comes out doubled
    return lambda *args: tuple((x, 2 * c) for x, c in real(*args))


def _doubled_base_case(real):
    # 1_{-1} b = 2 b at the bottom of the field recursion
    def fc(spec, node, *args):
        out = real(spec, node, *args)
        return out if node is not verma_module._ROOT else {x: 2 * c for x, c in out.items()}
    return fc


def _negated_annihilators(real):
    # u_n w comes out negated for n >= 0 and w != 1
    def mul_gen(spec, acc, g, node, factor):
        real(spec, acc, g, node, -factor if g.n >= 0 and node is not verma_module._ROOT
             else factor)
    return mul_gen


# (patched verma name, fault, the six flags of the report in field order,
# number of failures, SHA-256 of the failures joined by newlines) for
# axiom_spotcheck(virasoro(), 2), recorded before the report was built
# from one ledger; they pin every failure message and its order.
SPOTCHECK_FAULTS = [
    ("_pair_terms", _doubled_terms, (True, True, True, True, True, False), 30,
     "22011ff76bfde89068934182262bd0c69aed7cb2992b6a12cc99ca77fd062799"),
    ("_fc", _doubled_base_case, (False, False, True, True, True, False), 34,
     "b600166fb2b0aa300b756094ac7589823436069ee2743d41cb1f469d6d8dd3b3"),
    ("apply_D_module", _doubled, (True, True, False, True, False, True), 12,
     "92f31aab8ba36b8bc83da98d545f0cf39d1b53bcb5ae0233b414146e83cbea67"),
    ("_mul_gen", _negated_annihilators, (True, True, True, False, True, False), 60,
     "20da81467617142e3e03edb410b71eeb17a03c7864276b16504b201d5e0c25cc"),
]
# The _mul_gen row was 94 failures (digest e006ecbc...) while a normal-ordering
# miss summed g rest through a fresh _mul_gen call, which the fault negated; the
# miss now walks the stored g rest, so the fault sees fewer calls.  Its flags
# are unchanged.


def test_spotcheck_faults_trip_every_clause() -> None:
    assert all(not all(clause) for clause in zip(*(f[2] for f in SPOTCHECK_FAULTS)))


@pytest.mark.parametrize("name,fault,flags,count,digest", SPOTCHECK_FAULTS,
                         ids=[f[0] for f in SPOTCHECK_FAULTS])
def test_axiom_spotcheck_reports_injected_faults(name, fault, flags, count, digest,
                                                 monkeypatch) -> None:
    monkeypatch.setattr(verma_module, name, fault(getattr(verma_module, name)))
    report = axiom_spotcheck(virasoro(), 2)  # a fresh spec: its memo holds the fault
    _assert_report(report, flags, count, digest)


def _assert_report(report, flags, count, digest) -> None:
    assert (report.creation, report.vacuum_field, report.half_skew, report.locality,
            report.translation, report.commutator_formula) == flags
    assert len(report.failures) == count and not report.ok
    assert hashlib.sha256("\n".join(report.failures).encode()).hexdigest() == digest


# The same faults on presets with more than one active vector, so that the
# locality and commutator-formula clauses see pairs with u != v and, on
# neveu-schwarz, odd pairs with eps = -1: (preset, patched verma name,
# flags, number of failures, digest) for axiom_spotcheck(preset, 1),
# recorded before that loop read each product u_a' w and v_b' w once.
SPOTCHECK_FAULTS_WIDE = [
    ("affine-sl2", "_pair_terms", (True, True, True, True, True, False), 356,
     "5b021d85016dfc754be5db0e38c15be21012c93ab7d300b3c49c18046c8b087d"),
    ("affine-sl2", "_fc", (False, False, True, True, True, False), 364,
     "3e1391c285df45c3485e7ea68562d5a8331768b1777bda425038465ff8f1dca2"),
    ("affine-sl2", "apply_D_module", (True, True, True, True, False, True), 57,
     "8b6ebc8132d499324cfabe26ebddb2ef4010ab8e0edf531ba0cd98167cf48a17"),
    ("affine-sl2", "_mul_gen", (True, True, True, False, True, False), 521,  # was 753, as above
     "4e5bbd6a075f7c4ef2bb69faf23cf71c759517bc4bb46f06334034000c2394b6"),
    ("neveu-schwarz", "_pair_terms", (True, True, True, True, True, False), 50,
     "03a0bb13c862a2c3e9136e2e4c4521655b2e6a993c9e69f033ea63ab53d02cf5"),
    ("neveu-schwarz", "_fc", (False, False, True, True, True, False), 54,
     "36b6e8343d735ec752dd87174fd22ac251eb5995099e37b0f714689fa18b04e5"),
    ("neveu-schwarz", "apply_D_module", (True, True, False, True, False, True), 11,
     "074d7eba1be3f83504ed5a51c68cbf1d4f6c0dd22ae09b0fcc9db83a1edaeff0"),
    ("neveu-schwarz", "_mul_gen", (True, True, True, False, True, False), 82,
     "89ffa6b03c403397fd0d33c0b4fca489e9e020a8f440675bab38ce540680c277"),
]


@pytest.mark.parametrize("preset_name,name,flags,count,digest", SPOTCHECK_FAULTS_WIDE,
                         ids=[f"{f[0]}:{f[1]}" for f in SPOTCHECK_FAULTS_WIDE])
def test_axiom_spotcheck_reports_injected_faults_on_wider_presets(
        preset_name, name, flags, count, digest, monkeypatch) -> None:
    fault = {f[0]: f[1] for f in SPOTCHECK_FAULTS}[name]
    monkeypatch.setattr(verma_module, name, fault(getattr(verma_module, name)))
    _assert_report(axiom_spotcheck(preset(preset_name), 1), flags, count, digest)


def test_axiom_spotcheck_shares_pair_grids_on_a_wider_table(monkeypatch) -> None:
    # affine(gl_2): four active vectors, twelve duos (u, v) with u != v, each
    # unordered pair's grid read by both of its duos
    from test_presets import _gl_n

    assert axiom_spotcheck(affine(_gl_n(2)), 1).ok
    monkeypatch.setattr(verma_module, "_mul_gen",
                        _negated_annihilators(verma_module._mul_gen))
    report = axiom_spotcheck(affine(_gl_n(2)), 1)
    assert not report.locality and not report.commutator_formula


# ---------------------------------------------------------------------------
# derived data on the spec
# ---------------------------------------------------------------------------

def test_deep_word_normal_orders_without_recursion_error() -> None:
    for k in (300, 600):
        spec = affine(heisenberg())
        word = act_word(spec, [gen(spec, "x", -2)] * k)
        # x_{-2} goes in front of every power of itself: no rewrite is memoized,
        # and the trie holds the k powers x_{-2}^j 1, each a node on the last
        assert _memo_sizes(spec)[1:] == (0, k)
        out = act(spec, gen(spec, "x", 2), word)
        # one rewrite per suffix: x_2 past x_{-2}^j (j <= k) and c_{-1} past
        # x_{-2}^j (j <= k - 1); the trie adds the k nodes x_{-2}^j c_{-1} 1
        # (j < k), so both counts grow linearly in k: 599 and 600 at k = 300,
        # 1 199 and 1 200 at k = 600
        assert _memo_sizes(spec)[1:] == (2 * k - 1, 2 * k)
        # x_2 x_{-2}^k 1 = 2k c_{-1} x_{-2}^(k-1) 1
        assert len(out) == 1
        assert out.coeff(PbwMonomial((gen(spec, "x", -2),) * (k - 1)
                                     + (gen(spec, "c", -1),))) == 2 * k


def test_derived_data_is_freed_with_its_spec() -> None:
    def live_specs() -> int:
        gc.collect()
        return sum(isinstance(obj, FormulaSpec) for obj in gc.get_objects())

    before = live_specs()
    specs = [parse_formula("[basis]\nx even 1\nc even 0\n[central]\nc\n"
                           f"[constants]\nx 1 x : 0 c {level}\n") for level in range(1, 21)]
    for level, spec in enumerate(specs, start=1):
        assert len(defect_sweep(spec)) == 1
        assert jacobi_window_verify(spec, 2) == []
        v = act_word(spec, [gen(spec, "x", -1)])
        got = field_coefficient(spec, v, 1, v, 4)
        assert dict(got.items()) == {monomial(spec, ("c", -1)): level}
    del specs, spec, v, got
    assert live_specs() == before


def test_field_coefficient_memo_is_not_kept_on_the_spec() -> None:
    spec = virasoro()
    a = act_word(spec, [gen(spec, "omega", -2), gen(spec, "omega", -1)])
    first = field_coefficient(spec, a, 1, a, 16)
    sizes = _memo_sizes(spec)
    assert field_coefficient(spec, a, 1, a, 16) == first
    assert _memo_sizes(spec) == sizes
    assert axiom_spotcheck(spec, 2).ok
    sizes = _memo_sizes(spec)
    assert axiom_spotcheck(spec, 2).ok
    assert _memo_sizes(spec) == sizes


def test_shared_spec_is_safe_across_threads() -> None:
    def work(spec: FormulaSpec) -> list:
        om = [LieElement({gen(spec, "omega", n): 1}) for n in range(-3, 4)]
        out = [bracket(spec, x, y) for x in om for y in om]
        word = act_word(spec, [gen(spec, "omega", n) for n in (-2, -1, -1)])
        out.append(act_word(spec, [gen(spec, "omega", 2), gen(spec, "omega", 1)], word))
        out.append(field_coefficient(spec, word, 1, word, 12))
        return out

    serial = work(virasoro())
    shared = virasoro()
    barrier = threading.Barrier(4)
    results: list = [None] * 4

    def run(i: int) -> None:
        barrier.wait(timeout=60)
        results[i] = work(shared)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' memo misses
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # the threads made each monomial's node once: no two nodes share (head, rest)
    _assert_one_node_per_monomial(shared)
    assert results == [serial] * 4
    # one stored answer per distinct bracket query, and every thread got it
    assert len(shared._memo[bracket]) == 49
    assert all(got is want for out in results for got, want in zip(out[:49], results[0]))
