"""The vacuum module of a formula: PBW vectors, gradings, fields.

Vectors, built only from vacuum() by act and act_word, are rational
combinations of normal-ordered monomials u^(1)_{n_1} ... u^(k)_{n_k} . 1,
every mode n_i < 0 and kept by the central quotient, factors sorted by
(generator weight descending, basis index, mode).  Modes n >= 0 kill the
vacuum; left multiplication rewrites to normal form through the bracket
of the local algebra, x y = eps y x + [x, y], so the module structure is
exactly left multiplication in the enveloping algebra of the negative half.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, floor, lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .defects import central_check, injectivity_verdict
from .formula import (
    CutoffExceededError,
    Element,
    FormulaError,
    FormulaSpec,
    RatLike,
    SparseVector,
    UngradedError,
    _Record,
    _accumulate,
    _add_scaled,
    _check_index,
    _over,
    _rat,
    _scaled_rows,
    _signed_sum,
    basis_element,
    gen_binomial,
)
from .local_algebra import (LieElement, LieGenerator, _pair_terms, _quotient_kills, lie_D,
                            reduce_generator)


class NotInjectiveError(FormulaError):
    """The vacuum module is only built over an injective verdict."""


class PbwMonomial(NamedTuple):
    """Normal-ordered word of negative modes (empty word = vacuum)."""

    factors: Tuple[LieGenerator, ...] = ()

    def display(self, spec: FormulaSpec) -> str:
        if not self.factors:
            return "1"
        body = " ".join(f"{spec.vectors[g.bid].label}_{g.n}" for g in self.factors)
        return f"{body} 1"


VACUUM_MONOMIAL = PbwMonomial()


class PbwVector(SparseVector):
    """Combination of normal-ordered monomials; only act, act_word, vacuum build one."""

    def __init__(self, *args, **kwargs):
        raise TypeError("PbwVector has no public constructor: use vacuum() and act_word()")

    def display(self, spec: FormulaSpec) -> str:
        return _signed_sum(((c, m.display(spec)) for m, c in self.items()), " * ")


def vacuum() -> PbwVector:
    """The vacuum vector: empty monomial with coefficient one."""
    return PbwVector._of({VACUUM_MONOMIAL: 1})


def _monomial_weight(spec: FormulaSpec, factors: tuple) -> Union[int, Fraction]:
    """The weight of a monomial's factors in stored form: the sum of wt(u_n) = wt(u) - n - 1."""
    weights = spec._weights
    return sum(weights[g.bid] - g.n - 1 for g in factors)


def _order_key(spec: FormulaSpec, g: LieGenerator) -> tuple:
    """The PBW sort key of a negative mode: factors of a monomial ascend in it.

    It is (n + 1 - w, bid, n), whose first component is minus the weight
    of u_n, with that component scaled by L, the lcm of the weight
    denominators: L (n + 1 - w) = L n + (L - L w) is an int, and scaling
    one component by L > 0 keeps every comparison and every tie, so the
    order is that of the rational key.  Ungraded specs have L = 0 and
    order by (bid, n) alone.
    """
    return (spec._order_scale * g.n + spec._order_base[g.bid], g.bid, g.n)


class _Node:
    """A normal-ordered monomial head rest . 1 of one spec, as a node of its trie.

    The trie lives in the product table: spec._memo[_mul_gen][g][rest] is the
    node of g rest wherever g goes in front of rest, made by setdefault (_node,
    _mul_gen), so even concurrent callers make one node per monomial, and a node
    hashes by identity.  A PbwMonomial is built only for a public PbwVector (_vector).
    """

    __slots__ = ("head", "rest")

    def __init__(self, head: Optional[LieGenerator], rest: Optional[_Node]):
        self.head, self.rest = head, rest


_ROOT = _Node(None, None)  # the vacuum, shared by every spec's trie


def _heads(node: _Node) -> tuple:
    """The factors of a node's monomial, first factor first."""
    out = []
    while node is not _ROOT:
        out.append(node.head)
        node = node.rest
    return tuple(out)


def _node(spec: FormulaSpec, factors: tuple) -> _Node:
    """The trie's node of a normal-ordered monomial's factors: each goes in front of the rest."""
    table, node = spec._memo.setdefault(_mul_gen, {}), _ROOT
    for g in reversed(factors):
        by_node = table.get(g) or table.setdefault(g, {})
        node = by_node.get(node) or by_node.setdefault(node, _Node(g, node))
    return node


def _unit(spec: FormulaSpec) -> tuple:
    """(D, D/L): the level unit of node-keyed sums (see _mul_gen) and its ratio to
    the L of _scaled_rows, 2 when some basis vector is odd, for the odd square's 1/(2L)."""
    try:
        return spec._memo[_unit]
    except KeyError:
        lift = 2 if any(v.parity for v in spec.vectors) else 1
        return spec._memo.setdefault(_unit, (_scaled_rows(spec)[0] * lift, lift))


def _level(v: PbwVector) -> int:
    """The most factors of a monomial of v: the level at which v enters normal ordering."""
    level = 0
    for mono in v._terms:
        if len(mono.factors) > level:
            level = len(mono.factors)
    return level


def _nodes(spec: FormulaSpec, v: PbwVector, level: int) -> dict:
    """The terms of v at the level (see _mul_gen), keyed by the nodes of their monomials:
    the coefficient of a monomial of k factors times D^(level - k)."""
    out: dict = {}
    d = _unit(spec)[0]
    for mono, coeff in v._terms.items():
        _accumulate(out, _node(spec, mono.factors), coeff * d ** (level - len(mono.factors)))
    return out


def _vector(spec: FormulaSpec, terms: dict, level: int) -> PbwVector:
    """The public vector of node-keyed terms at the level: the coefficient of a
    monomial of k factors divided once, by D^(level - k)."""
    out = {}
    d = _unit(spec)[0]
    for x, c in terms.items():
        heads = _heads(x)
        if d != 1 and len(heads) < level:
            c = _over(c.numerator, c.denominator * d ** (level - len(heads)))
        out[tuple.__new__(PbwMonomial, (heads,))] = c
    return PbwVector._of(out)


def _mul_gen(spec: FormulaSpec, acc: dict, g: LieGenerator, node: _Node,
             factor: Union[int, Fraction]) -> None:
    """Add factor (g node), normal-ordered, into the node-keyed accumulator acc, one level up.

    Node-keyed sums are kept in integers by levels: a sum at level K holds a
    monomial of k factors with its coefficient times D^(K - k), where D is the
    L of _scaled_rows, or 2 L when some basis vector is odd (_unit).  A mode
    raises the level by one: with factor the level-K coefficient of node, this
    adds g node at level K + 1.  A term that puts g in front has one factor
    more than node, so its coefficient is factor itself.  Every other term
    comes from a rewrite of g node, node of k factors at level k with
    coefficient 1, which is kept at level k + 1 and holds only ints:

        g head rest = eps head (g rest) + [g, head] rest,   g g rest = (1/2)[g, g] rest.

    eps head (g rest) applies two modes to rest, at level k - 1, so it is at
    level k + 1 with int coefficients.  [g, head] is one mode, with L [g, head]
    the int terms c x of local_algebra._pair_terms, so x rest is at level k
    only: a bracket term is one level up, and enters as x rest times the int
    c (D/L), or c for the odd square, where D = 2 L.  The public boundary,
    _nodes and _vector, alone converts, one division per returned term.

    The central quotient keeps g (it is tested where a mode enters: _act_into,
    _fc).  spec._memo[_mul_gen][g][node] is the one product table: the trie's
    node of g node where g goes in front (before head by _order_key, on the
    vacuum at n < 0, or an even square), else the rewrite as a flat tuple
    (x1, c1, x2, c2, ...) of nodes and coefficients, built on a miss through
    calls back into this function, one frame per factor.  g on the vacuum at
    n >= 0 adds nothing and is not kept.  [g, head] is made and kept, as
    bracket keeps it, only when the basis pair has a table row.  g goes before
    head when its _order_key is smaller, compared inline: the ints
    L (n + 1 - w), which order as n + 1 - w since L > 0, then (bid, n), which
    is g < head.
    """
    memo = spec._memo
    try:
        by_node = memo[_mul_gen][g]
    except KeyError:
        by_node = memo.setdefault(_mul_gen, {}).setdefault(g, {})
    out = by_node.get(node)
    if out is None:
        head = node.head
        square = False
        if head is None:
            if g.n >= 0:
                return
            out = by_node.setdefault(node, _Node(g, node))
        elif g.n < 0:
            scale, base = spec._order_scale, spec._order_base
            kg, kh = scale * g.n + base[g.bid], scale * head.n + base[head.bid]
            square = g == head  # g g rest is in order when g is even
            if kg < kh or kg == kh and g < head or square and not spec.vectors[g.bid].parity:
                out = by_node.setdefault(node, _Node(g, node))
        if out is None:
            store: dict = {}
            rest = node.rest
            if not square:
                vectors = spec.vectors
                eps = -1 if vectors[g.bid].parity and vectors[head.bid].parity else 1
                inner: dict = {}
                _mul_gen(spec, inner, g, rest, 1)
                for x, c in inner.items():
                    _mul_gen(spec, store, head, x, eps * c)
            pairs = memo.setdefault(_pair_terms, {})
            bracket = pairs.get((g, head))
            if bracket is None and spec._row(g.bid, head.bid):  # only a pair with a row is kept
                bracket = pairs[g, head] = _pair_terms(spec, g, head)
            if bracket:
                lift = 1 if square else _unit(spec)[1]
                for x, c in bracket:
                    _mul_gen(spec, store, x, rest, c * lift)
            flat: list = []
            for x, c in store.items():
                flat += x, c
            out = by_node[node] = tuple(flat)
    if type(out) is tuple:
        it = iter(out)
        for x, c in zip(it, it):
            _accumulate(acc, x, factor * c)
    else:
        _accumulate(acc, out, factor)


def _act_into(spec: FormulaSpec, acc: dict, g: LieGenerator, terms: dict, factor=1) -> dict:
    """Add factor (g v), v node-keyed, into acc unless the central quotient kills g."""
    if not _quotient_kills(spec, g):
        for node, coeff in terms.items():
            _mul_gen(spec, acc, g, node, factor * coeff)
    return acc


def _act_word(spec: FormulaSpec, word, terms: dict) -> dict:
    """Apply a word of modes, rightmost first, to node-keyed terms, one level up per mode."""
    for g in reversed(word):
        terms = _act_into(spec, {}, g, terms)
    return terms


def act(spec: FormulaSpec, g: LieGenerator, v: PbwVector) -> PbwVector:
    """Action of the mode g on a module vector: a fresh, normal-ordered vector."""
    level = _level(v)
    return _vector(spec, _act_into(spec, {}, g, _nodes(spec, v, level)), level + 1)


def act_lie(spec: FormulaSpec, x: LieElement, v: PbwVector) -> PbwVector:
    """Linear extension of act over a combination of modes."""
    level = _level(v)
    acc, terms = {}, _nodes(spec, v, level)
    for g, coeff in x._terms.items():
        _act_into(spec, acc, g, terms, coeff)
    return _vector(spec, acc, level + 1)


def act_word(spec: FormulaSpec, word: Iterable[LieGenerator],
             v: Optional[PbwVector] = None) -> PbwVector:
    """Apply a word of modes to v (default vacuum), rightmost first."""
    word, level = list(word), 0 if v is None else _level(v)
    terms = {_ROOT: 1} if v is None else _nodes(spec, v, level)
    return _vector(spec, _act_word(spec, word, terms), level + len(word))


def apply_D_module(spec: FormulaSpec, v: PbwVector) -> PbwVector:
    """Derivation with [D, u_n] = lie_D(u_n) = -n u_{n-1} and D(vacuum) = 0.

    It keeps the level of its input: D u_n is one mode, so the term of factor i
    of a monomial of k factors applies i + 1 modes to the suffix after that
    factor, k - i - 1 factors at their own level, and lands at level k, the
    monomial's own; its level-K coefficient then carries it to level K.
    """
    acc: dict = {}
    level = _level(v)
    for node, coeff in _nodes(spec, v, level).items():
        factors = _heads(node)
        for i, g in enumerate(factors):
            node = node.rest  # the suffix after factor i
            for dg, c in lie_D(spec, LieElement._of({g: 1}))._terms.items():
                _add_scaled(acc, _act_word(spec, factors[:i] + (dg,), {node: 1}), coeff * c)
    return _vector(spec, acc, level)


def specialize_level(spec: FormulaSpec, v: PbwVector, level: RatLike) -> PbwVector:
    """Substitute the central mode c_{-1} by the rational level; idempotent."""
    if spec.central is None:
        raise FormulaError("no central vector designated")
    central = LieGenerator(spec.central, -1)
    ell = _rat(level)
    powers: dict = {}  # ell ** k, each computed once
    acc: dict = {}
    for mono, coeff in v._terms.items():
        power = mono.factors.count(central)
        if power:  # a monomial without c_{-1} is kept as it is
            if power not in powers:
                powers[power] = ell ** power
            coeff *= powers[power]
            mono = PbwMonomial(tuple(g for g in mono.factors if g != central))
        _accumulate(acc, mono, coeff)
    return PbwVector._of(acc)


# ---------------------------------------------------------------------------
# Graded structure
# ---------------------------------------------------------------------------

def _checked_cutoff(spec: FormulaSpec, cutoff: RatLike) -> Union[int, Fraction]:
    """The cutoff in stored form, once the spec is graded, its verdict is
    injective and the cutoff is nonnegative, checked in that order."""
    if not spec.graded:
        raise UngradedError("this operation needs a graded formula")
    verdict = injectivity_verdict(spec)
    if not verdict.injective:
        raise NotInjectiveError(
            f"verdict is {verdict.status}; run the defect check first")
    bound = _rat(cutoff)
    if bound < 0:
        raise ValueError("cutoff must be nonnegative")
    return bound


def _counting_generators(spec: FormulaSpec, cutoff: RatLike) -> tuple:
    """The cutoff, and every (generator, weight, odd) with weight <= cutoff, PBW-ordered.

    The cutoff and the weights are in stored form (see SparseVector).
    The central mode c_{-1} is excluded: graded pieces are counted as
    ranks over the polynomial algebra it generates, which equals the
    dimension after level specialization.
    """
    bound = _checked_cutoff(spec, cutoff)
    cid = spec.central
    gens = []
    for vec in spec.vectors:
        if vec.weight <= 0 and vec.index != cid:
            raise FormulaError(
                f"basis vector {vec.label!r} of weight {vec.weight} makes "
                "graded pieces infinite-dimensional")
        n = -1
        w = spec._weights[vec.index]  # wt(u_n) = w - n - 1, in stored form
        while w - n - 1 <= bound:
            g = LieGenerator(vec.index, n)
            # the quotient's modes, less c_{-1}, the excluded polynomial generator
            if not _quotient_kills(spec, g) and (vec.index != cid or n != -1):
                gens.append((g, w - n - 1, bool(spec.parity(vec.index))))
            n -= 1
    gens.sort(key=lambda item: _order_key(spec, item[0]))
    return bound, gens


def monomial_basis(spec: FormulaSpec, cutoff: RatLike) -> Dict[Fraction, List[PbwMonomial]]:
    """All normal-ordered monomials of weight <= cutoff, keyed by weight.

    Central polynomial factors are excluded (see _counting_generators);
    odd generators appear at most once per monomial.
    """
    bound, gens = _counting_generators(spec, cutoff)
    out: dict = {}

    def rec(start: int, factors: list, weight) -> None:
        out.setdefault(weight, []).append(PbwMonomial(tuple(factors)))
        for i in range(start, len(gens)):
            g, w, odd = gens[i]
            if weight + w > bound:
                continue
            factors.append(g)
            rec(i + 1 if odd else i, factors, weight + w)
            factors.pop()

    rec(0, [], 0)
    for monos in out.values():
        monos.sort()
    return {Fraction(w): monos for w, monos in sorted(out.items())}


def graded_dimension(spec: FormulaSpec, cutoff: RatLike) -> Dict[Fraction, int]:
    """Dimensions of the graded pieces up to the cutoff.

    Counted, not enumerated: they are the coefficients of the PBW
    character, prod over even generators of 1/(1 - q^w) times prod over
    odd ones of (1 + q^w), with the generators of monomial_basis.
    Integer weights up to the cutoff are always present (zero-filled);
    fractional weights appear when they occur.
    """
    bound, gens = _counting_generators(spec, cutoff)
    # every weight is a positive multiple of 1/L: slot i holds weight i/L
    L = lcm(*(w.denominator for _g, w, _odd in gens))
    top = floor(bound * L)
    counts = [1] + [0] * top
    for _g, w, odd in gens:
        step = int(w * L)
        if odd:  # at most one factor: each slot reads the old value below it
            for i in range(top, step - 1, -1):
                counts[i] += counts[i - step]
        else:
            for i in range(step, top + 1):
                counts[i] += counts[i - step]
    dims = {Fraction(i, L): d for i, d in enumerate(counts) if d}
    for k in range(floor(bound) + 1):
        dims.setdefault(Fraction(k), 0)
    return dict(sorted(dims.items()))


def kappa(spec: FormulaSpec, A: Element) -> PbwVector:
    """Embedding of Q[D] (x) S into the module: A -> A_{-1} 1, so D^k u -> k! u_{-k-1} 1."""
    return act_lie(spec, reduce_generator(spec, A, -1), vacuum())


def kappa_basis(spec: FormulaSpec, ref) -> PbwVector:
    """kappa of a single basis vector: u_{-1} 1."""
    return kappa(spec, basis_element(spec.bid(ref)))


# ---------------------------------------------------------------------------
# Field coefficients
# ---------------------------------------------------------------------------

def field_coefficient(spec: FormulaSpec, a: PbwVector, n: int, b: PbwVector,
                      cutoff: RatLike) -> PbwVector:
    """The coefficient a_n b of the field generated by a.

    Defined recursively from the normal-order product: the vacuum gives
    the identity field, and for a = u_m a' the modes are

        (a)_n = sum_i (-1)^i (m over i)
                ( u_{m-i} a'_{n+i}  -  eps (-1)^m a'_{m+n-i} u_i ).

    All sums truncate because module weights are bounded below by zero;
    any intermediate whose weight passes the cutoff raises
    CutoffExceededError instead of being dropped.
    """
    _check_index(n, "mode")
    bound = _checked_cutoff(spec, cutoff)
    ka, kb = _level(a), _level(b)
    terms = _field_coefficient(spec, _nodes(spec, a, ka), n, _nodes(spec, b, kb), bound, {})
    return _vector(spec, terms, ka + kb)


def _field_coefficient(spec: FormulaSpec, a: dict, n: int, b: dict, cutoff, memo: dict) -> dict:
    """field_coefficient without its guards, on node-keyed terms a and b, into a fresh
    node-keyed dict that drops zeros, so results compare with ==.  b's pieces are sorted
    by weight once a call; memo holds _fc results, shared by the calls of a spot-check.

    Field levels add (see _mul_gen for levels): with a at level Ka and b at level
    Kb the result is at level Ka + Kb.  _fc(node, n, b) for node's k factors is at
    level k + Kb: the vacuum field returns b; the first sum of the recursion puts
    one mode on rest_{n+i} b, at level k - 1 + Kb, and the second takes rest's
    field of u_i b, at level Kb + 1.  a's coefficients at level Ka carry k to Ka.
    The computation reads no level, so _fc's memo serves b at any level."""
    by_weight: dict = {}  # the homogeneous pieces of b, by stored-form weight
    for node, coeff in b.items():
        by_weight.setdefault(_monomial_weight(spec, _heads(node)), {})[node] = coeff
    pieces = sorted(by_weight.items())
    acc: dict = {}
    for node, coeff in a.items():
        for bw, piece in pieces:
            _add_scaled(acc, _fc(spec, node, n, piece, bw, cutoff, memo), coeff)
    return acc


def _live(base: bool, only: int, imax: int):
    """The indices 0..imax of one sum of _fc; at the base case only `only` can be live."""
    if base:
        return (only,) if 0 <= only <= imax else ()
    return range(imax + 1)


def _fc(spec: FormulaSpec, node: _Node, n: int, b: dict, bw, cutoff, memo: dict) -> dict:
    """node_n b for b nonzero and homogeneous of weight bw, memoized in one cutoff's memo.

    b and the result are node-keyed; bw and cutoff, like every weight here, are in
    stored form.  Every factor has a mode m < 0, so no (m over i) below is zero.

    The vacuum field is the identity, 1_k x = delta_{k,-1} x.  So when
    rest (the monomial without its first factor u_m) is the vacuum, each sum of
    the recursion has one live index, i = -1 - n in the first and
    i = m + n + 1 in the second, and only that index is computed (_live).
    The second sum's intermediates u_i b weigh less as i grows, so its
    cutoff guard reads the heaviest, u_0 b, once, whenever the sum has i = 0.
    """
    if node is _ROOT:
        return b if n == -1 else {}
    key = (node, n, frozenset(b.items()))
    out = memo.get(key)
    if out is not None:
        return out
    g, rest = node.head, node.rest
    m = g.n
    vectors = spec.vectors
    lam = spec._weights[g.bid]
    heads = _heads(rest)
    wr = _monomial_weight(spec, heads)
    eps = -1 if vectors[g.bid].parity and sum(vectors[h.bid].parity for h in heads) % 2 else 1

    total = lam + wr + bw - m - n - 2
    if total > cutoff:
        raise CutoffExceededError(
            f"field coefficient of weight {total} exceeds cutoff {cutoff}")

    acc: dict = {}
    base = rest is _ROOT
    for i in _live(base, -1 - n, floor(wr + bw - n - 1)):
        gi = LieGenerator(g.bid, m - i)  # a c_{-1} factor gives c_{-1-i}
        if _quotient_kills(spec, gi):
            continue
        coeff = (-1) ** i * gen_binomial(m, i)
        for x, c in _fc(spec, rest, n + i, b, bw, cutoff, memo).items():
            _mul_gen(spec, acc, gi, x, coeff * c)

    sign = eps * (1 if m % 2 == 0 else -1)
    heaviest = bw + lam - 1  # the weight of u_0 b
    if heaviest > cutoff:
        raise CutoffExceededError(f"intermediate of weight {heaviest} exceeds cutoff {cutoff}")
    for i in _live(base, m + n + 1, floor(heaviest)):
        coeff = (-1) ** i * gen_binomial(m, i)
        ub = _act_into(spec, {}, LieGenerator(g.bid, i), b)
        if ub:
            _add_scaled(acc, _fc(spec, rest, m + n - i, ub, bw + lam - i - 1, cutoff, memo),
                        -sign * coeff)
    memo[key] = acc
    return acc


# ---------------------------------------------------------------------------
# Axiom spot-checks
# ---------------------------------------------------------------------------

class SpotcheckReport(_Record, namedtuple("SpotcheckReport", (
        "creation", "vacuum_field", "half_skew", "locality", "translation",
        "commutator_formula", "failures", "vacuous"))):
    """Truncated module-level checks of the field axioms."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def axiom_spotcheck(spec: FormulaSpec, cutoff: RatLike) -> SpotcheckReport:
    """Exact truncated checks of the field axioms on finite windows.

    "vectors" are the normal-ordered monomials of weight <= cutoff, in
    weight order; u and v run over the basis vectors that are not
    central.  A True covers exactly these windows and nothing more:

    - creation: (u_{-1} 1)_n 1 for every basis vector u, at n in
      [0, n_max + 1] and n = -1;
    - vacuum field: 1_n b at n in [-3, 2], for every vector b.  This
      exercises only the base case of the field recursion and the split
      of b by weight, and holds by construction unless those break;
    - half skew symmetry: (u_{-1} 1)_n (v_{-1} 1) at n in
      [0, floor(wt u + wt v)];
    - locality at order n_max: every (u, v, w), w a vector, at modes
      (a, b) in [-floor(cutoff) - 2, floor(cutoff) + 2]^2;
    - translation: (D a)_n b at n in [-4, 4], for a = u_{-1} 1 and the
      first three two-factor vectors, b among the first 6 vectors only;
    - commutator formula: [u_m, v_n] w at m, n in [-2, 2], on the
      first 8 vectors only.

    Each failing comparison files its message under its clause; a clause
    is True exactly when it filed none, and failures lists the messages
    clause by clause in the order of the report's fields.  vacuous names,
    in that order, the clauses that compared nothing on this spec (on
    loop-abelian every basis vector is central, so u and v run over
    nothing).  Field coefficients are computed with an internal cutoff
    margin wide enough that no intermediate overflows on these windows.
    The windows are fixed; within them each u_a w is computed once per
    (u, w), for every pair it enters, and each field once for all the
    terms that read it: the half-skew v_j u for every n + k = j and the
    commutator formula's (u_i v)_k w for every m + n - i = k.
    """
    bound = _checked_cutoff(spec, cutoff)
    lam_max = max(spec._weights, default=0)
    # wide enough that no deliberate window below trips the overflow guard
    margin = 2 * bound + 2 * lam_max + 6
    memo: dict = {}  # _fc results, shared by every clause of this call

    def field(a: dict, n: int, b: dict) -> dict:
        return _field_coefficient(spec, a, n, b, margin, memo)

    # node-keyed sums are at a level (see _mul_gen): kappa of a basis vector at 1,
    # a window monomial at its factor count and kappa(u_i v) at 2, so that fields
    # and mode actions compare at one level
    def D(terms: dict, level: int, k: int = 1) -> dict:  # D^k, through apply_D_module
        vec = _vector(spec, terms, level)
        for _ in range(k):
            vec = apply_D_module(spec, vec)
        return _nodes(spec, vec, level)

    ledger = {name: [] for name in SpotcheckReport._fields[:6]}
    monos = [m for monos in monomial_basis(spec, bound).values() for m in monos]
    vectors = [{_node(spec, m.factors): 1} for m in monos]
    active = [v for v in spec.vectors if not central_check(spec, v.index)]
    kap = {v.index: _nodes(spec, kappa_basis(spec, v.index), 1) for v in spec.vectors}

    for v in spec.vectors:
        kv = kap[v.index]
        for n in [*range(spec.n_max + 2), -1]:
            if field(kv, n, {_ROOT: 1}) != (kv if n == -1 else {}):
                ledger["creation"].append(f"creation fails for {v.label!r} at mode {n}")

    for b in vectors:
        for n in range(-3, 3):
            if field({_ROOT: 1}, n, b) != (b if n == -1 else {}):
                ledger["vacuum_field"].append(f"vacuum field acts wrongly at mode {n}")

    duos = []  # (u, v, eps, [(i, kappa(u_i v))], locality and commutator messages in w order)
    for u in active:
        for v in active:
            ku, kv = kap[u.index], kap[v.index]
            eps = spec.epsilon(u.index, v.index)
            top = floor(u.weight + v.weight)
            swapped = [field(kv, j, ku) for j in range(top)]  # v_j u, read for every n + k = j
            for n in range(top + 1):
                # u_n v = -eps sum_k (-1)^(n+k) (D^k/k!) v_{n+k} u
                rhs: dict = {}
                for k in range(top - n):
                    term = swapped[n + k]
                    _add_scaled(rhs, D(term, 2, k) if k else term,
                                -eps * _over((-1) ** (n + k), factorial(k)))
                if field(ku, n, kv) != rhs:
                    ledger["half_skew"].append(
                        f"half skew symmetry fails for ({u.label},{n},{v.label})")
            products = [(i, _nodes(spec, kappa(spec, prod), 2))
                        for i, prod in spec._row(u.index, v.index).items()]
            duos.append((u, v, eps, products, [], []))

    # [u_m, v_n] w for m, n in [-2, 2] and w in vectors[:8] is read from the
    # locality pairs, whose window always contains [-2, 2]^2.
    N = spec.n_max
    row = [((-1) ** j * gen_binomial(N, j), j) for j in range(N + 1)]
    mode_lo, mode_hi = -floor(bound) - 2, floor(bound) + 2
    # the modes u_a' and v_b' that the pairs below read, a' >= mode_lo - N, b' <= mode_hi + N
    gens = {u.index: {a: LieGenerator(u.index, a) for a in range(mode_lo - N, mode_hi + N + 1)}
            for u in active}
    for iw, w in enumerate(vectors):
        # u_a' w, once per (u, w) for every pair it enters, as u or as v
        acted = {x: {a: _act_into(spec, {}, g, w) for a, g in gx.items()}
                 for x, gx in gens.items()}
        for u, v, eps, products, local, commutes in duos:
            gu, gv, uw, vw = gens[u.index], gens[v.index], acted[u.index], acted[v.index]
            # (a', b') -> u_a' v_b' w - eps v_b' u_a' w; each (a, b) below
            # reads N + 1 of these pairs, and neighbouring (a, b) share them
            pairs: dict = {}
            for a in range(mode_lo, mode_hi + 1):
                for b in range(mode_lo, mode_hi + 1):
                    total: dict = {}
                    for coeff, j in row:
                        pair = pairs.get((a - j, b + j))
                        if pair is None:
                            acc: dict = {}
                            for x, c in vw[b + j].items():
                                _mul_gen(spec, acc, gu[a - j], x, c)
                            for x, c in uw[a - j].items():
                                _mul_gen(spec, acc, gv[b + j], x, -eps * c)
                            pair = pairs[(a - j, b + j)] = acc
                        if pair:
                            _add_scaled(total, pair, coeff)
                    if total:
                        local.append(f"locality fails for ({u.label},{v.label}) "
                                     f"at modes ({a},{b})")
            if iw >= 8:
                continue
            fields: dict = {}  # (i, k) -> field(kappa(u_i v), k, w), read for every m + n - i = k
            for m in range(-2, 3):
                for n in range(-2, 3):
                    rhs = {}
                    for i, kp in products:
                        if coeff := gen_binomial(m, i):
                            k = m + n - i
                            if (i, k) not in fields:
                                fields[i, k] = field(kp, k, w)
                            _add_scaled(rhs, fields[i, k], coeff)
                    if pairs[(m, n)] != rhs:
                        commutes.append(f"commutator formula fails for "
                                        f"({u.label},{m},{v.label},{n})")
    ledger["locality"] = [msg for duo in duos for msg in duo[4]]
    ledger["commutator_formula"] = [msg for duo in duos for msg in duo[5]]

    samples = [(kap[v.index], 1) for v in active]
    samples += [({_node(spec, m.factors): 1}, 2) for m in monos if len(m.factors) == 2][:3]
    for a, level in samples:
        da = D(a, level)
        for b in vectors[:6]:
            for n in range(-4, 5):
                rhs = {}
                _add_scaled(rhs, field(a, n - 1, b), -n)
                if field(da, n, b) != rhs:
                    ledger["translation"].append(f"translation rule fails at mode {n}")

    # each clause compares something once the list it runs over is nonempty:
    # vectors holds the vacuum, and half skew starts at n = 0 (weights are >= 0)
    runs_over = {"creation": spec.vectors, "vacuum_field": vectors, "half_skew": active,
                 "locality": active, "translation": samples, "commutator_formula": active}
    return SpotcheckReport(**{clause: not msgs for clause, msgs in ledger.items()},
                           failures=tuple(msg for msgs in ledger.values() for msg in msgs),
                           vacuous=tuple(clause for clause in ledger if not runs_over[clause]))
