"""The vacuum module of a formula: PBW vectors, gradings, fields.

Vectors are rational combinations of normal-ordered monomials
u^(1)_{n_1} ... u^(k)_{n_k} . 1 with every mode n_i < 0, factors sorted
by (generator weight descending, basis index, mode).  Modes n >= 0 kill
the vacuum; left multiplication rewrites to normal form through
x y = eps y x + [x, y] with the bracket of the local algebra, so the
module structure is exactly left multiplication in the enveloping
algebra of the negative half.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import factorial, floor, lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .defects import central_check, central_reduction, injectivity_verdict
from .formula import (
    CutoffExceededError,
    Element,
    FormulaError,
    FormulaSpec,
    RatLike,
    SparseVector,
    UngradedError,
    _accumulate,
    _add_scaled,
    _over,
    _rat,
    _signed_sum,
    gen_binomial,
)
from .local_algebra import LieElement, LieGenerator, _D_generator, _pair_bracket, _quotient_kills


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
    """Finite rational combination of normal-ordered monomials."""

    def display(self, spec: FormulaSpec) -> str:
        return _signed_sum(((c, m.display(spec)) for m, c in self.items()), " * ")


def vacuum() -> PbwVector:
    """The vacuum vector: empty monomial with coefficient one."""
    return PbwVector._of({VACUUM_MONOMIAL: 1})


_ZERO = PbwVector()
_HALF = Fraction(1, 2)


def monomial_weight(spec: FormulaSpec, mono: PbwMonomial) -> Fraction:
    return Fraction(_monomial_weight(spec, mono))


def _monomial_weight(spec: FormulaSpec, mono: PbwMonomial) -> Union[int, Fraction]:
    """monomial_weight in stored form: the sum of wt(u_n) = wt(u) - n - 1."""
    weights = spec._weights
    return sum(weights[g.bid] - g.n - 1 for g in mono.factors)


def _order_key(spec: FormulaSpec, g: LieGenerator) -> tuple:
    w = spec._weights[g.bid]  # weights are all-or-nothing: None means ungraded
    return (0 if w is None else g.n + 1 - w, g.bid, g.n)


def _mul_gen(spec: FormulaSpec, g: LieGenerator, mono: PbwMonomial) -> PbwVector:
    """Left-multiply one generator onto a normal-ordered monomial.

    Memoized in spec._memo[(g, mono)] by act and by this function itself,
    with no wrapper frame: one frame per factor.  The stored vectors are
    immutable and shared: act hands them out as they are.  A swap
    g head rest = eps head (g rest) + [g, head] rest reads every term of
    the right side from the memo and adds it, scaled, into one
    accumulator; so does an odd square.
    """
    if _quotient_kills(spec, g):
        return _ZERO
    factors = mono.factors
    if not factors:
        if g.n >= 0:
            return _ZERO
        return PbwVector._of({PbwMonomial((g,)): 1})
    memo = spec._memo
    head, rest = factors[0], PbwMonomial(factors[1:])
    square = False
    if g.n < 0:
        kg, kh = _order_key(spec, g), _order_key(spec, head)
        square = kg == kh  # identical generator: keys determine (bid, n)
        if kg < kh or (square and not spec.parity(g.bid)):
            return PbwVector._of({PbwMonomial((g,) + factors): 1})
    if square:  # odd square: g g rest = (1/2)[g, g] rest
        terms = [((x, rest), c * _HALF) for x, c in _pair_bracket(spec, g, g)._terms.items()]
    else:
        eps = spec.epsilon(g.bid, head.bid)
        inner = memo.get((g, rest))
        if inner is None:
            inner = memo[(g, rest)] = _mul_gen(spec, g, rest)
        terms = [((head, m), eps * c) for m, c in inner._terms.items()]
        terms += [((x, rest), c) for x, c in _pair_bracket(spec, g, head)._terms.items()]
    acc: dict = {}
    for key, c in terms:
        prod = memo.get(key)
        if prod is None:
            prod = memo[key] = _mul_gen(spec, *key)
        _add_scaled(acc, prod, c)
    return PbwVector._of(acc)


def act(spec: FormulaSpec, g: LieGenerator, v: PbwVector) -> PbwVector:
    """Action of the mode g on a module vector (normal-ordered result).

    For a one-term v with coefficient 1 the result is the memoized
    product itself, shared with the memo; like every vector it is
    immutable, and the linear operations all build new vectors.
    """
    memo = spec._memo
    terms = v._terms
    acc: dict = {}
    for mono, coeff in terms.items():
        prod = memo.get((g, mono))
        if prod is None:
            prod = memo[(g, mono)] = _mul_gen(spec, g, mono)
        if len(terms) == 1 and coeff == 1:
            return prod
        _add_scaled(acc, prod, coeff)
    return PbwVector._of(acc)


def act_lie(spec: FormulaSpec, x: LieElement, v: PbwVector) -> PbwVector:
    """Linear extension of act over a combination of modes."""
    acc: dict = {}
    for g, coeff in x._terms.items():
        _add_scaled(acc, act(spec, g, v), coeff)
    return PbwVector._of(acc)


def act_word(spec: FormulaSpec, word: Iterable[LieGenerator],
             v: Optional[PbwVector] = None) -> PbwVector:
    """Apply a word of modes to v (default vacuum), rightmost first."""
    out = vacuum() if v is None else v
    for g in reversed(list(word)):
        out = act(spec, g, out)
    return out


def apply_D_module(spec: FormulaSpec, v: PbwVector) -> PbwVector:
    """Derivation with [D, u_n] = -n u_{n-1} and D(vacuum) = 0."""
    acc: dict = {}
    for mono, coeff in v._terms.items():
        factors = mono.factors
        for i, g in enumerate(factors):
            if d := _D_generator(spec, g):
                piece = act_word(spec, factors[:i] + (d[0],),
                                 PbwVector._of({PbwMonomial(factors[i + 1:]): 1}))
                _add_scaled(acc, piece, coeff * d[1])
    return PbwVector._of(acc)


def specialize_level(spec: FormulaSpec, v: PbwVector, level: RatLike) -> PbwVector:
    """Substitute the central mode c_{-1} by the rational level; idempotent."""
    if spec.central is None:
        raise FormulaError("no central vector designated")
    cid = spec.central
    ell = _rat(level)
    acc: dict = {}
    for mono, coeff in v._terms.items():
        kept = []
        power = 0
        for g in mono.factors:
            if g.bid == cid and g.n == -1:
                power += 1
            else:
                kept.append(g)
        _accumulate(acc, PbwMonomial(tuple(kept)), coeff * ell ** power)
    return PbwVector._of(acc)


# ---------------------------------------------------------------------------
# Graded structure
# ---------------------------------------------------------------------------

def _require_graded(spec: FormulaSpec) -> None:
    if not spec.graded:
        raise UngradedError("this operation needs a graded formula")


def _require_injective(spec: FormulaSpec) -> None:
    verdict = injectivity_verdict(spec)
    if not verdict.injective:
        raise NotInjectiveError(
            f"verdict is {verdict.status}; run the defect check first")


def _counting_generators(spec: FormulaSpec, cutoff: RatLike) -> tuple:
    """The cutoff, and every (generator, weight, odd) with weight <= cutoff, PBW-ordered.

    The cutoff and the weights are in stored form (see SparseVector).
    The central mode c_{-1} is excluded: graded pieces are counted as
    ranks over the polynomial algebra it generates, which equals the
    dimension after level specialization.
    """
    _require_graded(spec)
    _require_injective(spec)
    bound = _rat(cutoff)
    if bound < 0:
        raise ValueError("cutoff must be nonnegative")
    cid = spec.central
    reduced = central_reduction(spec)
    gens = []
    for vec in spec.vectors:
        start = -1
        if vec.index == cid:
            if reduced is not None:
                continue
            start = -2  # c_{-1} is the excluded polynomial generator
        if vec.weight <= 0 and vec.index != cid:
            raise FormulaError(
                f"basis vector {vec.label!r} of weight {vec.weight} makes "
                "graded pieces infinite-dimensional")
        n = start
        w = spec._weights[vec.index]  # wt(u_n) = w - n - 1, in stored form
        while w - n - 1 <= bound:
            gens.append((LieGenerator(vec.index, n), w - n - 1, bool(spec.parity(vec.index))))
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


def _by_weight(spec: FormulaSpec, v: PbwVector) -> dict:
    """The homogeneous pieces of v, keyed by their stored-form weight."""
    pieces: dict = {}
    for mono, coeff in v._terms.items():
        pieces.setdefault(_monomial_weight(spec, mono), {})[mono] = coeff
    return {w: PbwVector._of(d) for w, d in sorted(pieces.items())}


def weight_of_vector(spec: FormulaSpec, v: PbwVector) -> Optional[Fraction]:
    """Common weight of a homogeneous vector (None for zero)."""
    pieces = _by_weight(spec, v)
    if len(pieces) > 1:
        raise FormulaError(f"vector mixes weights {sorted(pieces)}")
    return next((Fraction(w) for w in pieces), None)


def kappa(spec: FormulaSpec, A: Element) -> PbwVector:
    """Embedding of Q[D] (x) S into the module: D^k u -> k! u_{-k-1} 1."""
    acc: dict = {}
    for (k, bid), coeff in A._terms.items():
        g = LieGenerator(bid, -k - 1)
        if not _quotient_kills(spec, g):
            _accumulate(acc, PbwMonomial((g,)), coeff * factorial(k))
    return PbwVector._of(acc)


def kappa_basis(spec: FormulaSpec, ref) -> PbwVector:
    """kappa of a single basis vector: u_{-1} 1."""
    return PbwVector._of({PbwMonomial((LieGenerator(spec.bid(ref), -1),)): 1})


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
    _require_graded(spec)
    _require_injective(spec)
    return _field_coefficient(spec, a, n, b, _rat(cutoff), {})


def _field_coefficient(spec: FormulaSpec, a: PbwVector, n: int, b: PbwVector,
                       cutoff, memo: dict) -> PbwVector:
    """field_coefficient without its guards; memo holds _fc results of one call."""
    pieces = _by_weight(spec, b)
    acc: dict = {}
    for mono, coeff in a._terms.items():
        for bw, piece in pieces.items():
            _add_scaled(acc, _fc(spec, mono, n, piece, bw, cutoff, memo), coeff)
    return PbwVector._of(acc)


def _fc(spec: FormulaSpec, mono: PbwMonomial, n: int, b: PbwVector,
        bw, cutoff, memo: dict) -> PbwVector:
    """mono_n b for b nonzero and homogeneous of weight bw, memoized in memo.

    bw and cutoff, like every weight here, are in stored form (see SparseVector).
    Every factor of mono has a mode m < 0, so no (m over i) below is zero.
    """
    if not mono.factors:
        return b if n == -1 else _ZERO
    key = (mono, n, b, cutoff)
    out = memo.get(key)
    if out is not None:
        return out
    g = mono.factors[0]
    rest = PbwMonomial(mono.factors[1:])
    m = g.n
    lam = spec._weights[g.bid]
    wr = _monomial_weight(spec, rest)
    eps = -1 if spec.parity(g.bid) and sum(spec.parity(h.bid) for h in rest.factors) % 2 else 1

    total = lam + wr + bw - m - n - 2
    if total > cutoff:
        raise CutoffExceededError(
            f"field coefficient of weight {total} exceeds cutoff {cutoff}")

    acc: dict = {}
    imax = floor(wr + bw - n - 1)
    for i in range(0, imax + 1):
        coeff = (-1) ** i * gen_binomial(m, i)
        inner = _fc(spec, rest, n + i, b, bw, cutoff, memo)
        if inner:
            _add_scaled(acc, act(spec, LieGenerator(g.bid, m - i), inner), coeff)

    sign = eps * (1 if m % 2 == 0 else -1)
    imax = floor(bw + lam - 1)
    for i in range(0, imax + 1):
        coeff = (-1) ** i * gen_binomial(m, i)
        if bw + lam - i - 1 > cutoff:
            raise CutoffExceededError(
                f"intermediate of weight {bw + lam - i - 1} exceeds cutoff {cutoff}")
        ub = act(spec, LieGenerator(g.bid, i), b)
        if ub:
            _add_scaled(acc, _fc(spec, rest, m + n - i, ub, bw + lam - i - 1, cutoff, memo),
                        -sign * coeff)
    out = memo[key] = PbwVector._of(acc)
    return out


# ---------------------------------------------------------------------------
# Axiom spot-checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpotcheckReport:
    """Truncated module-level checks of the field axioms."""

    creation: bool
    vacuum_field: bool
    half_skew: bool
    locality: bool
    translation: bool
    commutator_formula: bool
    failures: Tuple[str, ...]

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
    clause by clause in the order of the report's fields.  Field
    coefficients are computed with an internal cutoff margin wide enough
    that no intermediate overflows on these windows.
    """
    _require_graded(spec)
    _require_injective(spec)
    bound = _rat(cutoff)
    lam_max = max(spec._weights, default=0)
    # wide enough that no deliberate window below trips the overflow guard
    margin = 2 * bound + 2 * lam_max + 6
    memo: dict = {}  # _fc results, shared by every clause of this call

    def field(a: PbwVector, n: int, b: PbwVector) -> PbwVector:
        return _field_coefficient(spec, a, n, b, margin, memo)

    ledger = {f.name: [] for f in fields(SpotcheckReport) if f.name != "failures"}
    basis = monomial_basis(spec, bound)
    vectors = [PbwVector._of({m: 1}) for monos in basis.values() for m in monos]
    active = [v for v in spec.vectors if not central_check(spec, v.index)]

    for v in spec.vectors:
        kv = kappa_basis(spec, v.index)
        for n in [*range(spec.n_max + 2), -1]:
            if field(kv, n, vacuum()) != (kv if n == -1 else _ZERO):
                ledger["creation"].append(f"creation fails for {v.label!r} at mode {n}")

    for b in vectors:
        for n in range(-3, 3):
            if field(vacuum(), n, b) != (b if n == -1 else _ZERO):
                ledger["vacuum_field"].append(f"vacuum field acts wrongly at mode {n}")

    for u in active:
        for v in active:
            ku, kv = kappa_basis(spec, u.index), kappa_basis(spec, v.index)
            eps = spec.epsilon(u.index, v.index)
            nmax = floor(u.weight + v.weight)
            for n in range(0, nmax + 1):
                # u_n v = -eps sum_k (-1)^(n+k) (D^k/k!) v_{n+k} u
                lhs = field(ku, n, kv)
                rhs: dict = {}
                k = 0
                while u.weight + v.weight - n - k - 1 >= 0:
                    term = field(kv, n + k, ku)
                    for _ in range(k):
                        term = apply_D_module(spec, term)
                    _add_scaled(rhs, term, -eps * _over((-1) ** (n + k), factorial(k)))
                    k += 1
                if lhs != PbwVector._of(rhs):
                    ledger["half_skew"].append(
                        f"half skew symmetry fails for ({u.label},{n},{v.label})")

    # [u_m, v_n] w for m, n in [-2, 2] and w in vectors[:8] is read from the
    # locality pairs, whose window always contains [-2, 2]^2.
    N = spec.n_max
    row = [((-1) ** j * gen_binomial(N, j), j) for j in range(N + 1)]
    mode_lo, mode_hi = -floor(bound) - 2, floor(bound) + 2
    for u in active:
        for v in active:
            eps = spec.epsilon(u.index, v.index)
            # kappa(u_i v) for every i < n_max with a nonzero table product
            products = [(i, kappa(spec, prod)) for i in range(N)
                        if (prod := spec.constant_by_id(u.index, i, v.index))]
            for iw, w in enumerate(vectors):
                # (a', b') -> u_a' v_b' w - eps v_b' u_a' w; each (a, b) below
                # reads N + 1 of these pairs, and neighbouring (a, b) share them
                pairs: dict = {}
                for a in range(mode_lo, mode_hi + 1):
                    for b in range(mode_lo, mode_hi + 1):
                        total: dict = {}
                        for coeff, j in row:
                            pair = pairs.get((a - j, b + j))
                            if pair is None:
                                gu = LieGenerator(u.index, a - j)
                                gv = LieGenerator(v.index, b + j)
                                pair = pairs[(a - j, b + j)] = \
                                    act(spec, gu, act(spec, gv, w)) \
                                    - act(spec, gv, act(spec, gu, w)).scale(eps)
                            if pair:
                                _add_scaled(total, pair, coeff)
                        if total:
                            ledger["locality"].append(
                                f"locality fails for ({u.label},{v.label}) "
                                f"at modes ({a},{b})")
                if iw >= 8:
                    continue
                for m in range(-2, 3):
                    for n in range(-2, 3):
                        rhs: dict = {}
                        for i, kp in products:
                            if coeff := gen_binomial(m, i):
                                _add_scaled(rhs, field(kp, m + n - i, w), coeff)
                        if pairs[(m, n)] != PbwVector._of(rhs):
                            ledger["commutator_formula"].append(
                                f"commutator formula fails for "
                                f"({u.label},{m},{v.label},{n})")

    samples = [kappa_basis(spec, v.index) for v in active]
    samples += [vec for vec in vectors if len(next(iter(vec._terms)).factors) == 2][:3]
    for a in samples:
        da = apply_D_module(spec, a)
        for b in vectors[:6]:
            for n in range(-4, 5):
                lhs = field(da, n, b)
                rhs = field(a, n - 1, b).scale(-n)
                if lhs != rhs:
                    ledger["translation"].append(f"translation rule fails at mode {n}")

    return SpotcheckReport(**{clause: not msgs for clause, msgs in ledger.items()},
                           failures=tuple(msg for msgs in ledger.values() for msg in msgs))
