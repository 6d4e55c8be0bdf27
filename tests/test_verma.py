from __future__ import annotations

import gc
import hashlib
import itertools
import random
import sys
import threading
from fractions import Fraction as F
from functools import lru_cache

import pytest

from vertexlie import (
    PRESETS,
    CutoffExceededError,
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
    apply_D,
    apply_D_module,
    axiom_spotcheck,
    basis_element,
    bracket,
    central_reduction,
    defect_sweep,
    field_coefficient,
    graded_dimension,
    heisenberg,
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
from vertexlie.formula_io import parse_formula
from vertexlie.linalg import RowSpace
from vertexlie.verma import monomial_weight, weight_of_vector

VIR = virasoro()
HEIS = affine(heisenberg())
NS = neveu_schwarz()


def gen(spec, label, n):
    return LieGenerator(spec.bid(label), n)


def vec(spec, *factors):
    return PbwVector({PbwMonomial(tuple(gen(spec, lbl, n) for lbl, n in factors)): 1})


# ---------------------------------------------------------------------------
# vacuum and action
# ---------------------------------------------------------------------------

def test_vacuum_basics() -> None:
    vac = vacuum()
    assert vac == PbwVector({PbwMonomial(): 1})
    assert apply_D_module(VIR, vac).is_zero
    assert monomial_weight(VIR, PbwMonomial()) == 0
    for n in range(0, 4):
        assert act(VIR, gen(VIR, "omega", n), vac).is_zero


def test_act_examples() -> None:
    w = act(VIR, gen(VIR, "omega", -1), vacuum())
    assert act(VIR, gen(VIR, "omega", 1), w) == 2 * w
    assert act(VIR, gen(VIR, "omega", 3), w) == F(1, 2) * vec(VIR, ("c", -1))
    assert act(VIR, gen(VIR, "omega", 5), w).is_zero


def test_act_normal_orders_creation_modes() -> None:
    sorted_mono = vec(VIR, ("omega", -3), ("omega", -1))
    a = act_word(VIR, [gen(VIR, "omega", -3), gen(VIR, "omega", -1)])
    assert a == sorted_mono
    # the reversed word needs a sorting swap, which emits the bracket
    # correction [omega_{-1}, omega_{-3}] = 2 omega_{-5}
    b = act_word(VIR, [gen(VIR, "omega", -1), gen(VIR, "omega", -3)])
    assert b == sorted_mono + 2 * vec(VIR, ("omega", -5))


def test_act_kills_reduced_central_modes() -> None:
    w = act(VIR, gen(VIR, "c", -2), vacuum())
    assert w.is_zero
    assert act(VIR, gen(VIR, "c", 0), vec(VIR, ("omega", -1))).is_zero
    loop = affine(__import__("vertexlie").abelian())
    assert not act(loop, gen(loop, "c", -2), vacuum()).is_zero


def test_odd_square_rewrites() -> None:
    t = gen(NS, "tau", -1)
    square = act(NS, t, act(NS, t, vacuum()))
    assert square == vec(NS, ("omega", -2))


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
            v = PbwVector({rng.choice(monos): 1})
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
    w = spec.weight(g.bid)
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


@pytest.mark.parametrize("name", CLEAN_PRESETS)
def test_normal_ordering_matches_memo_free_oracle(name: str) -> None:
    spec = preset(name)
    rng = random.Random(f"oracle-{name}")
    words = _seeded_words(spec, rng, 40)
    labels = [v.label for v in spec.vectors]
    if spec.central is not None:  # central modes the quotient kills, and c_{-1}
        words += [[gen(spec, "c", n), gen(spec, labels[0], -1)] for n in (-3, -2, -1, 0, 2)]
        words += [[gen(spec, labels[0], 1), gen(spec, "c", -2), gen(spec, labels[0], -2)]]
    for word in words:
        want = {PbwMonomial(): F(1)}
        for g in reversed(word):
            want = _oracle_act(spec, g, want)
        assert dict(act_word(spec, word).items()) == want, word
    # one-term inputs whose coefficient is not 1, on the word results
    for word, coeff in zip(words, itertools.cycle((F(-1), F(3), F(-5, 2), F(2, 3)))):
        g = word[0]
        for mono, c in act_word(spec, word[1:]).items():
            want = _oracle_act(spec, g, {mono: coeff * c})
            assert dict(act(spec, g, PbwVector({mono: coeff * c})).items()) == want, (g, mono)


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
        # a hand-built monomial holding a mode the central quotient kills
        held = PbwMonomial((gen(spec, other, -3), LieGenerator(c, -2), gen(spec, other, -1)))
        for g in (gen(spec, other, -2), gen(spec, other, 1), gen(spec, other, 3),
                  LieGenerator(c, -2), LieGenerator(c, 1), LieGenerator(c, -1)):
            for coeff in (F(1), F(-3, 2)):
                got = act(spec, g, PbwVector({held: coeff}))
                assert dict(got.items()) == _oracle_act(spec, g, {held: coeff}), g
        assert act(spec, LieGenerator(c, -2), vacuum()).is_zero


def test_act_result_is_safe_to_share() -> None:
    spec = virasoro()
    v = vec(spec, ("omega", -2), ("omega", -1))
    for g in (gen(spec, "omega", n) for n in (-3, 1, 2, 3)):
        first = act(spec, g, v)
        # a one-term input with coefficient 1 gets the memoized vector itself
        assert act(spec, g, v) is act(spec, g, v)
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


# len(spec._memo) on a fresh spec after the seeded act_word list of
# test_normal_ordering_memo_does_not_grow, recorded before act began
# returning memoized products unchanged.
MEMO_SIZE = {"virasoro": 101, "neveu-schwarz": 272, "affine-sl2": 174}


@pytest.mark.parametrize("name", sorted(MEMO_SIZE))
def test_normal_ordering_memo_does_not_grow(name: str) -> None:
    spec = preset(name)
    for word in _seeded_words(spec, random.Random(f"memo-{name}"), 60):
        act_word(spec, word)
    assert len(spec._memo) <= MEMO_SIZE[name]


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
    assert apply_D_module(VIR, vec(VIR, ("omega", -1))) == vec(VIR, ("omega", -2))
    assert apply_D_module(VIR, vec(VIR, ("c", -1))).is_zero
    two = vec(VIR, ("omega", -2), ("omega", -1))
    got = apply_D_module(VIR, two)
    assert got == 2 * vec(VIR, ("omega", -3), ("omega", -1)) \
        + vec(VIR, ("omega", -2), ("omega", -2))


def test_D_commutation_with_modes() -> None:
    from vertexlie.local_algebra import lie_D

    rng = random.Random(55)
    basis = monomial_basis(VIR, 5)
    monos = [m for monos in basis.values() for m in monos]
    for _ in range(25):
        g = gen(VIR, "omega", rng.randint(-3, 3))
        v = PbwVector({rng.choice(monos): 1})
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
        out = act(VIR, g, PbwVector({m: 1}))
        if out:
            assert weight_of_vector(VIR, out) \
                == monomial_weight(VIR, m) + 2 - g.n - 1


def test_omega_modes_act_as_grading_and_derivation() -> None:
    basis = monomial_basis(VIR, 6)
    for w, monos in basis.items():
        for m in monos:
            v = PbwVector({m: 1})
            assert act(VIR, gen(VIR, "omega", 1), v) == v.scale(w)
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
                weight = weight_of_vector(spec, w)
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
    assert kappa(VIR, apply_D(om)) == vec(VIR, ("omega", -2))
    assert kappa(VIR, apply_D(om, 2)) == 2 * vec(VIR, ("omega", -3))
    # positive D-powers of the central vector die in the quotient
    assert kappa(VIR, apply_D(basis_element(VIR.bid("c")))).is_zero


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
        want = b if n == -1 else PbwVector()
        assert field_coefficient(VIR, vacuum(), n, b, 10) == want


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


def test_field_coefficient_guards() -> None:
    with pytest.raises(NotInjectiveError):
        field_coefficient(novikov(lambda_algebra(flipped=True)),
                          vacuum(), -1, vacuum(), 4)


# ---------------------------------------------------------------------------
# spot checks
# ---------------------------------------------------------------------------

def test_axiom_spotcheck_small_neveu_schwarz() -> None:
    report = axiom_spotcheck(NS, 3)
    assert report.ok, report.failures[:5]


def test_axiom_spotcheck_abelian() -> None:
    from vertexlie import EVEN, FormulaSpec

    flat = FormulaSpec([("a", EVEN, 1)], {})
    report = axiom_spotcheck(flat, 4)
    assert report.ok, report.failures[:5]


def _doubled(real):
    return lambda *args: real(*args).scale(2)


def _doubled_base_case(real):
    # 1_{-1} b = 2 b at the bottom of the field recursion
    def fc(spec, mono, *args):
        out = real(spec, mono, *args)
        return out if mono.factors else out.scale(2)
    return fc


def _negated_annihilators(real):
    # u_n w comes out negated for n >= 0 and w != 1
    def mul_gen(spec, g, mono):
        out = real(spec, g, mono)
        return -out if g.n >= 0 and mono.factors else out
    return mul_gen


# (patched verma name, fault, the six flags of the report in field order,
# number of failures, SHA-256 of the failures joined by newlines) for
# axiom_spotcheck(virasoro(), 2), recorded before the report was built
# from one ledger; they pin every failure message and its order.
SPOTCHECK_FAULTS = [
    ("_pair_bracket", _doubled, (True, True, True, True, True, False), 30,
     "22011ff76bfde89068934182262bd0c69aed7cb2992b6a12cc99ca77fd062799"),
    ("_fc", _doubled_base_case, (False, False, True, True, True, False), 34,
     "b600166fb2b0aa300b756094ac7589823436069ee2743d41cb1f469d6d8dd3b3"),
    ("apply_D_module", _doubled, (True, True, False, True, False, True), 12,
     "92f31aab8ba36b8bc83da98d545f0cf39d1b53bcb5ae0233b414146e83cbea67"),
    ("_mul_gen", _negated_annihilators, (True, True, True, False, True, False), 94,
     "e006ecbc30ab25f23bcabff318498a6755050598f12beb4ac6031f36d179eb18"),
]


def test_spotcheck_faults_trip_every_clause() -> None:
    assert all(not all(clause) for clause in zip(*(f[2] for f in SPOTCHECK_FAULTS)))


@pytest.mark.parametrize("name,fault,flags,count,digest", SPOTCHECK_FAULTS,
                         ids=[f[0] for f in SPOTCHECK_FAULTS])
def test_axiom_spotcheck_reports_injected_faults(name, fault, flags, count, digest,
                                                 monkeypatch) -> None:
    monkeypatch.setattr(verma_module, name, fault(getattr(verma_module, name)))
    report = axiom_spotcheck(virasoro(), 2)  # a fresh spec: its memo holds the fault
    assert (report.creation, report.vacuum_field, report.half_skew, report.locality,
            report.translation, report.commutator_formula) == flags
    assert len(report.failures) == count and not report.ok
    assert hashlib.sha256("\n".join(report.failures).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# derived data on the spec
# ---------------------------------------------------------------------------

def test_deep_word_normal_orders_without_recursion_error() -> None:
    spec = affine(heisenberg())
    word = act_word(spec, [gen(spec, "x", -2)] * 600)
    out = act(spec, gen(spec, "x", 2), word)
    # x_2 x_{-2}^600 1 = 1200 c_{-1} x_{-2}^599 1
    assert len(out) == 1
    assert out.coeff(PbwMonomial((gen(spec, "x", -2),) * 599 + (gen(spec, "c", -1),))) == 1200


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
        assert field_coefficient(spec, v, 1, v, 4) == vec(spec, ("c", -1)).scale(level)
    del specs, spec, v
    assert live_specs() == before


def test_field_coefficient_memo_is_not_kept_on_the_spec() -> None:
    spec = virasoro()
    a = act_word(spec, [gen(spec, "omega", -2), gen(spec, "omega", -1)])
    first = field_coefficient(spec, a, 1, a, 16)
    size = len(spec._memo)
    assert field_coefficient(spec, a, 1, a, 16) == first
    assert len(spec._memo) == size
    assert axiom_spotcheck(spec, 2).ok
    size = len(spec._memo)
    assert axiom_spotcheck(spec, 2).ok
    assert len(spec._memo) == size


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
    assert results == [serial] * 4
