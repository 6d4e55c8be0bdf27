"""The Lie (super)algebra spanned by the integer modes of a formula.

Generators are symbols u_n, u a basis vector and n any integer, subject
to the mode relation (Du)_n = -n u_{n-1}; the bracket is

    [u_n, v_p] = sum_{i >= 0} (n over i) (u_i v)_{n+p-i},

a finite sum because the products truncate.  When the defect analysis
shows the formula's quotient kills the positive D-span of a central
vector c, the relation Dc = 0 is enforced by dropping every mode c_n
with n != -1 (see _quotient_kills); the bracket then descends to the
quotient algebra, where the Lie axioms hold on the nose.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from math import comb, lcm, perm, prod
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .defects import JACOBI, SKEW, _defect_tables, central_reduction, injectivity_verdict
from .formula import (
    BasisRef,
    Element,
    FormulaSpec,
    SparseVector,
    _Record,
    _accumulate,
    _check_index,
    _divided,
    _signed_sum,
    gen_binomial,
)


class LieGenerator(NamedTuple):
    """The mode u_n: basis index and integer mode number."""

    bid: int
    n: int


def _quotient_kills(spec: FormulaSpec, g: LieGenerator) -> bool:
    """True when the central quotient sends the mode g to zero.

    Dc = 0 gives c_n = 0 for every n != -1, so c_{-1} is the only central
    mode that survives.  A mode (D^k c)_n with k >= 1 is a multiple of
    c_{n-k} that vanishes at n - k = -1, so this one rule covers it.
    """
    return g.n != -1 and g.bid == spec.central and central_reduction(spec) is not None


class LieElement(SparseVector):
    """Finite rational combination of mode generators.

    The constructor refuses a key that is not a mode (_check_mode) before it
    sums anything: LieGenerator(0, 2.0) and LieGenerator(True, 2) equal and hash
    as LieGenerator(0, 2) and LieGenerator(1, 2), so they would pass as those."""

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        terms = list(terms.items() if isinstance(terms, Mapping) else terms)
        for g, _coeff in terms:
            _check_mode(g)
        super().__init__(terms)

    def display(self, spec: FormulaSpec) -> str:
        return _signed_sum((c, f"{spec.vectors[g.bid].label}_{g.n}") for g, c in self.items())


def generator(spec: FormulaSpec, ref: BasisRef, n: int) -> LieGenerator:
    """The mode ref_n of the basis vector ref (a label or an index)."""
    _check_index(n, "mode")
    return LieGenerator(spec.bid(ref), n)


def _check_mode(g) -> None:
    """Refuse, with TypeError, what is not a LieGenerator or has a field that is not
    an int (a bool included): the refusals of generator() that need no spec."""
    if type(g) is not LieGenerator:
        raise TypeError(f"expected a LieGenerator, got {type(g).__name__}")
    _check_index(g.bid, "basis index")  # generator() also takes a label
    _check_index(g.n, "mode")


def _check_generators(spec: FormulaSpec, gens) -> None:
    """Refuse any mode in gens that generator() would not make: what _check_mode
    refuses, and KeyError for an index outside the basis."""
    dim = len(spec.vectors)
    for g in gens:
        if type(g) is not LieGenerator:
            _check_mode(g)
        bid, n = g
        if type(bid) is not int or type(n) is not int or not 0 <= bid < dim:
            _check_mode(g)
            generator(spec, bid, n)  # raises: no such vector


def single(spec: FormulaSpec, ref: BasisRef, n: int) -> LieElement:
    """The mode ref_n as a one-term element."""
    return LieElement({generator(spec, ref, n): 1})


def _reduce_into(acc: dict, terms, n: int, factor, cid: Optional[int]) -> None:
    """Add factor times the image of the ((k, bid), coeff) terms at mode n into acc: the
    one loop of the mode rule (D^k u)_n -> (-1)^k (n)_k u_{n-k}, less what the quotient
    kills (_quotient_kills; cid is central_reduction(spec)); (-1)^k (n)_k = (k-n-1)_k."""
    for (k, bid), coeff in terms:  # one perm, signed at n >= k; no NamedTuple __new__ frame
        f = perm(k - n - 1, k) if n < k else -perm(n, k) if k & 1 else perm(n, k)
        if f and (bid != cid or n - k == -1):
            _accumulate(acc, tuple.__new__(LieGenerator, (bid, n - k)), factor * f * coeff)


def reduce_generator(spec: FormulaSpec, A: Element, n: int) -> LieElement:
    """Canonical image of the mode A_n: (D^k u)_n -> (-1)^k n...(n-k+1) u_{n-k}.

    Images the central quotient kills are dropped (_quotient_kills).
    """
    _check_index(n, "mode")
    acc: dict = {}
    _reduce_into(acc, A._terms.items(), n, 1, central_reduction(spec))
    return LieElement._of(acc)


def _row_into(acc: dict, row: dict, m: int, cx: int, modes, cid: Optional[int]) -> None:
    """Add cx cy L [u_m, v_n] into acc for each (n, cy) in modes, read off the int row
    L (u_i v) of the basis pair (u, v) in one walk: (m over i) is one comb per index i,
    signed at m < 0, skipped where it is zero and times cx, and every term goes once
    through the mode rule _reduce_into at m + n - i (cid is central_reduction(spec))."""
    for i, terms in row.items():
        if b := comb(m, i) if m >= 0 else -comb(i - m - 1, i) if i & 1 else comb(i - m - 1, i):
            b *= cx
            for n, cy in modes:
                _reduce_into(acc, terms, m + n - i, b * cy, cid)


def _pair_terms(spec: FormulaSpec, x: LieGenerator, y: LieGenerator) -> tuple:
    """L [x, y] as ((LieGenerator, int), ...), L = spec._scale, for x = u_m and y = v_n
    whose basis pair (u, v) has an int row, which its callers check: the one-mode case
    of _row_into.  Normal ordering keeps these terms in its pair table
    (verma._mul_gen); bracket walks the rows itself and never calls this."""
    acc: dict = {}
    _row_into(acc, spec._int_rows[x.bid, y.bid], x.n, 1, ((y.n, 1),), central_reduction(spec))
    return tuple(acc.items())


def _check_lie(*args) -> None:
    """Refuse an argument that is not a LieElement with a TypeError naming its type."""
    for x in args:
        if type(x) is not LieElement:
            raise TypeError(f"expected a LieElement, got {type(x).__name__}")


def bracket(spec: FormulaSpec, x: LieElement, y: LieElement) -> LieElement:
    """[x, y], bilinear over [u_n, v_p] = sum_i (n over i)(u_i v)_{n+p-i}.

    The spec keeps each distinct answer in one table, spec._memo[bracket],
    until the spec is freed: equal queries return the same immutable
    LieElement, and the table grows with the number of distinct queries.  A
    query is keyed by the int triples (generator, numerator, denominator) of x
    and y (SparseVector._ratios), which the sum below reads anyway, so a first
    ask hashes no Fraction and reads no coefficient twice.  A first ask refuses
    a mode that generator() would not make (_check_generators) and stores nothing.

    With dx, dy the lcm of the coefficient denominators of x and y, x = X/dx
    and y = Y/dy for X, Y with int coefficients, read from those triples; then
    [x, y] = [X, Y]/(dx dy).  Y's terms are grouped by basis vector v, and for
    each term cx u_m of X and each v with a table row (u, v), _row_into walks
    that int row once: (m over i) once per row index, and every term straight
    into one int sum through the mode rule, for all of Y's modes on v.  The sum
    of cx cy L [u_m, v_n] is then divided by L dx dy in one _divided pass.
    central_reduction(spec) is read once, at the first row, so a query that
    meets no row computes no verdict.
    """
    if type(x) is not LieElement or type(y) is not LieElement:
        _check_lie(x, y)
    key = xs, ys = x._ratios(), y._ratios()
    answers = spec._memo.setdefault(bracket, {})
    if (known := answers.get(key)) is not None:
        return known
    _check_generators(spec, x._terms)
    _check_generators(spec, y._terms)
    dx, dy = lcm(*[d for _, _, d in xs]), lcm(*[d for _, _, d in ys])
    by_vector: dict = {}  # y's modes and numerators over dy, by basis vector
    for gy, cy, d in ys:
        by_vector.setdefault(gy.bid, []).append((gy.n, cy * (dy // d)))
    rows, acc, cid = spec._int_rows, {}, ...  # ...: central_reduction(spec) not read yet
    for gx, cx, d in xs:
        cx *= dx // d
        for v, modes in by_vector.items():
            if (row := rows.get((gx.bid, v))) is not None:
                if cid is ...:
                    cid = central_reduction(spec)
                _row_into(acc, row, gx.n, cx, modes, cid)
    return answers.setdefault(key, LieElement._of(_divided(acc, spec._scale * dx * dy)))


def lie_D(spec: FormulaSpec, x: LieElement) -> LieElement:
    """The derivation u_n -> -n u_{n-1}: the mode (D u)_n, the k = 1 case of
    _reduce_into, zero at n = 0 and where the quotient kills u_{n-1}.  A mode
    that generator() would not make is refused (_check_generators)."""
    _check_lie(x)
    _check_generators(spec, x._terms)
    acc: dict = {}
    cid = central_reduction(spec)
    for g, c in x._terms.items():  # distinct modes have distinct images
        _reduce_into(acc, (((1, g.bid), c),), g.n, 1, cid)
    return LieElement._of(acc)


class LawViolation(_Record, namedtuple("LawViolation", "law generators discrepancy")):
    """One failed Lie-algebra law found during window verification."""

    __slots__ = ()  # law: "skew" | "jacobi"

    def __str__(self) -> str:
        return f"{self.law} fails at {self.generators}"


def jacobi_window_verify(spec: FormulaSpec, window: int) -> list:
    """Exact Lie-superalgebra laws over all modes |n| <= window.

    Checks eps-skew-symmetry S(x, y) = [x, y] + eps [y, x] = 0 on all generator
    pairs and the super Jacobi identity J(x, y, z) = [x, [y, z]] - [[x, y], z]
    - eps [y, [x, z]] = 0 on all triples, eps = eps(x, y); returns every
    violation (empty list = pass), pairs first, then triples, in generator order.

    Both laws are the image of the complete defect tables: for basis
    vectors u, v, w, all integers m, n, p and reduce = reduce_generator,

        S(u_m, v_n)      = sum_i     (m over i)            reduce(s_i)_{m+n-i},
        J(u_m, v_n, w_p) = sum_{i,j} (m over i)(n over j)  reduce(d_ij)_{m+n+p-i-j},

    s_i = skew_defect(u, i, v), d_ij = commutator_defect(u, i, v, j, w).
    Expanding the brackets gives every term but two.  In S, s_i holds
    eps (-1)^j D^(j-i)/(j-i)! v_j u for each j >= i, and reduce turns the
    sum over i into (n over j) eps reduce(v_j u)_{m+n-j}: sum_i (-1)^i
    (m over i)(m+n-i over j-i) is the x^j coefficient of sum_i (m over i)
    (-x)^i (1+x)^(m+n-i) = (1+x)^n.  In J, [[u_m, v_n], w_p] holds
    (m over l)(m+n-l over s) reduce((u_l v)_s w)_{m+n+p-l-s}, and (m over i)
    (i over l) = (m over l)(m-l over i-l) with Vandermonde's identity gives
    sum_{i+j=l+s} (m over i)(n over j)(i over l) = (m over l)(m+n-l over s),
    the factor that the third term of d_ij collects.

    An injective verdict settles both laws at every mode, so none is summed:
    there are no defects, or all lie in D.Q[D].c with central_reduction(spec)
    == c, and (D^k c)_q, k >= 1, a multiple of c_{q-k}, is alive only at
    q = k - 1, where (k-1)_k = 0.  Under any other verdict central_reduction
    is None, so the quotient kills no mode and every table entry is summed
    through _reduce_into with none killed.

    The derivation law D[x, y] = [Dx, y] + [x, Dy] holds for every table,
    a broken one included, so it is proved here rather than summed.  For
    A = D^k u and the falling factorial (m)_k, (m - k)(m)_k = m (m-1)_k
    gives D(reduce(A_m)) = -m reduce(A_{m-1}); when u is the central
    vector the quotient kills, both sides are zero, because D c_{-1} =
    c_{-2} is killed and (D^k c)_{m-1} survives only at m = k, where
    (k-1)_k = 0.  With n (n-1 over i) = (n - i)(n over i), the terms of
    [Du_n, v_p] + [u_n, Dv_p] at each i add up to
    -(n + p - i)(n over i) reduce((u_i v)_{n+p-i-1}), the term of D[u_n, v_p].
    """
    _check_index(window, "window", "window must be nonnegative")
    if injectivity_verdict(spec).injective:
        return []
    violations, modes = [], range(-window, window + 1)
    for law, tables in zip((SKEW, JACOBI), _defect_tables(spec)):
        found = []  # a skew index n is the one-index case (n,) of a commutator (i, j)
        for basis, table in tables.items():
            table = [((i,) if type(i) is int else i, A._terms.items()) for i, A in table.items()]
            for outer in product(modes, repeat=len(basis) - 1):  # u_m (and v_n)
                terms = [(c, A, sum(outer) - sum(index)) for index, A in table
                         if (c := prod(map(gen_binomial, outer, index)))]
                if not terms:
                    continue
                gens = tuple(map(LieGenerator, basis, outer))
                for p in modes:  # the last mode, v_n or w_p
                    acc: dict = {}
                    for c, A, shift in terms:
                        _reduce_into(acc, A, shift + p, c, None)
                    if acc:
                        found.append(LawViolation(
                            law, (*gens, LieGenerator(basis[-1], p)), LieElement._of(acc)))
        violations += sorted(found, key=lambda v: v.generators)  # u_m, then v_n, then w_p
    return violations
