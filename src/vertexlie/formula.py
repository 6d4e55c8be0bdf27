"""Finite singular-product formulas over exact rationals.

A formula is a finite ordered basis S with parities (and optionally
weights) together with structure constants for the singular products

    u_n v = sum_k D^k F_n^k(u, v),   n >= 0,

taking values in the free module Q[D] (x) S.  The products extend
uniquely to all of Q[D] (x) S through the derivation rules

    (D A)_n B = -n A_{n-1} B,
    D(A_n B)  = (D A)_n B + A_n (D B),

and everything here is computed exactly over the rationals: no floating
point enters at any stage.  Integral values are held as plain ints
internally and every public result is a fractions.Fraction; the
SparseVector docstring states the rule.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import wraps
from math import comb, lcm, perm
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

EVEN = 0
ODD = 1

RatLike = Union[int, str, Fraction]

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


class FormulaError(Exception):
    """Base class for errors raised by this package."""


class UngradedError(FormulaError):
    """An operation required weights but the formula carries none."""


class BoundInsufficientError(FormulaError):
    """A sweep bound was too small: its boundary row is not zero."""


class CutoffExceededError(FormulaError):
    """An intermediate value passed the caller's weight cutoff."""


class _BasisEntryError(ValueError):
    """A basis entry FormulaSpec rejects; `index` is its place in the basis."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _rational_parts(text: str) -> tuple:
    """The numerator and the positive denominator of an "n" / "p/q" string, as ints."""
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"bad rational {text!r} (expected an integer or p/q)")
    num, den = match.groups()
    return int(num), 1 if den is None else int(den)


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction or "n" / "p/q" string to an exact rational.

    Any other string ("1.5", "1e3", "1/0") raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:  # a bool is not a number
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*_rational_parts(value))
    raise TypeError(f"cannot read {value!r} as a rational number")


def _rat(value: RatLike) -> Union[int, Fraction]:
    """rat() in the stored form (see SparseVector): the int when integral."""
    if type(value) is int:
        return value
    if type(value) is str:
        return _over(*_rational_parts(value))
    q = rat(value)
    return q.numerator if q.denominator == 1 else q


def _over(num: int, den: int) -> Union[int, Fraction]:
    """The exact quotient num/den in the stored form: an int when den divides num."""
    return num // den if num % den == 0 else Fraction(num, den)


def falling(n: int, i: int) -> int:
    """Falling factorial n(n-1)...(n-i+1) for any integer n and i >= 0; zero whenever 0 <= n < i.

    For n < 0 the factors are -(-n), ..., -(i-n-1), so the product is
    (-1)^i (i-n-1)!/(-n-1)!.  A negative i raises ValueError (math.perm).
    """
    return perm(n, i) if n >= 0 else (-1) ** i * perm(i - n - 1, i)


def gen_binomial(n: int, i: int) -> int:
    """Binomial coefficient (n choose i) for any integer n and i >= 0, as an exact int.

    For n < 0 it is (-1)^i (i-n-1 choose i), the upper-negation identity.
    """
    if i < 0:
        raise ValueError("lower binomial index must be nonnegative")
    return comb(n, i) if n >= 0 else (-1) ** i * comb(i - n - 1, i)


def _divided(sums: dict, den: int) -> dict:
    """sums / den for a fresh dict of nonzero int sums and an int den > 0, in
    stored form: an int where den divides the sum, else one Fraction; sums itself
    when den is 1.  The one division pass over many sums (_over divides one),
    read by local_algebra.bracket and the commutator cells of defects._defect_tables."""
    if den == 1:
        return sums
    return {key: c // den if not c % den else Fraction(c, den) for key, c in sums.items()}


def _accumulate(acc: dict, key, coeff: Union[int, Fraction]) -> None:
    """Add a stored-form coefficient into acc[key], keeping acc in stored form."""
    old = acc.get(key)
    if old is not None:
        coeff += old
        if not coeff:
            del acc[key]
            return
    elif not coeff:
        return
    if type(coeff) is not int and coeff.denominator == 1:
        coeff = coeff.numerator
    acc[key] = coeff


def _add_scaled(acc: dict, vec, factor: Union[int, Fraction] = 1) -> None:
    """Add factor * vec, a vector or a dict of its terms, into the dict acc, dropping zeros."""
    terms = vec if type(vec) is dict else vec._terms
    if factor == 1:
        for key, coeff in terms.items():
            _accumulate(acc, key, coeff)
    else:
        for key, coeff in terms.items():
            _accumulate(acc, key, factor * coeff)


class SparseVector:
    """Immutable finitely supported map key -> exact rational with linear ops.

    Keys must be hashable and mutually orderable; subclasses fix the key
    type.  Invariant of the stored dict, the package's one rule for exact
    numbers: every coefficient is nonzero and in stored form, a plain int
    when it is integral and a fractions.Fraction otherwise, never a bool
    or a float.  Integer arithmetic is several times cheaper than
    Fraction arithmetic and almost every constant is integral.  Weights
    held for internal use (FormulaSpec._weights) follow the same rule.
    The public boundary always answers with Fraction: items(), coeff(),
    rat(), FormulaSpec.weight() and the weights of public results.

    The public constructor enforces the invariant on outside input
    (_rat() coercion, zero-dropping); results built inside the package go
    through _of, which trusts the caller and must only wrap a fresh dict
    of nonzero stored-form coefficients that nothing mutates afterwards,
    never another vector's terms.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        data: dict = {}
        items = terms.items() if type(terms) is dict or isinstance(terms, Mapping) else terms
        for key, coeff in items:
            _accumulate(data, key, _rat(coeff))
        self._terms = data
        self._hash: Optional[int] = None

    @classmethod
    def _of(cls, terms: dict):
        """Wrap a package-built dict of nonzero stored-form coefficients unchecked."""
        out = cls.__new__(cls)
        out._terms = terms
        out._hash = None
        return out

    def items(self) -> Iterator:
        """(key, Fraction) pairs in key order."""
        return iter(sorted((k, Fraction(c)) for k, c in self._terms.items()))

    def coeff(self, key) -> Fraction:
        return Fraction(self._terms.get(key, 0))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._terms)
        _add_scaled(out, other)
        return self._of(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._terms)
        _add_scaled(out, other, -1)
        return self._of(out)

    def __neg__(self):
        return self._of({k: -c for k, c in self._terms.items()})

    def scale(self, factor: RatLike):
        f = _rat(factor)
        if f == 1:
            return self
        if not f:
            return self._of({})
        return self._of({k: _rat(f * c) for k, c in self._terms.items()})

    __mul__ = scale

    def __rmul__(self, factor):
        return self.scale(factor)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def _ratios(self) -> frozenset:
        """The terms as (key, numerator, denominator) int triples.  Stored form
        is canonical, so equal vectors give equal sets, and hashing one runs no
        Fraction.__hash__ (Python code)."""
        return frozenset([(k, c.numerator, c.denominator) for k, c in self._terms.items()])

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__, self._ratios()))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {c}" for k, c in self.items())
        return f"{type(self).__name__}({{{body}}})"

    # the state is a 1-tuple: protocols 0 and 1 skip a false state such as the
    # zero vector's {}; the hash is recomputed, as string hashes vary by process
    def __getstate__(self):
        return (self._terms,)

    def __setstate__(self, state):
        (self._terms,) = state
        self._hash = None


def _check_index(value, what: str, negative: Optional[str] = None) -> None:
    """Refuse an index that is not an int (a bool included) with TypeError,
    and, when a `negative` message is given, a negative one with ValueError."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if negative is not None and value < 0:
        raise ValueError(negative)


class Element(SparseVector):
    """Vector in Q[D] (x) S, keyed by (D-power, basis index)."""

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        super().__init__(terms)
        for k, _bid in self._terms:
            _check_index(k, "D-power", "D-power must be nonnegative")

    @property
    def d_degree(self) -> int:
        """Largest D-power present (zero element has degree 0)."""
        return max((k for k, _ in self._terms), default=0)


def basis_element(bid: int, k: int = 0, coeff: RatLike = 1) -> Element:
    """The single term coeff * D^k applied to basis vector number bid."""
    _check_index(k, "D-power", "D-power must be nonnegative")
    c = _rat(coeff)
    return Element._of({(k, bid): c} if c else {})


class _Record:
    """Mixin of a value record, class Name(_Record, namedtuple("Name", "...")) with
    __slots__ = ().  The named tuple gives fields, keywords, defaults, repr, copy and
    pickle, and refuses assignment.  A record equals only a record of its own class
    (never a plain tuple), hashes as its field tuple, is never ordered, and is built
    only by its class: _make, and so _replace, call cls(*values), which runs any
    validation in __new__.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__ above, not tuple's
    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError(f"{self.__class__.__name__} records are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class BasisVector(_Record, namedtuple("BasisVector", "index label parity weight",
                                      defaults=(EVEN, None))):
    """One basis vector of S: position, display label, parity, weight."""

    __slots__ = ()


class Violation(_Record, namedtuple("Violation", "kind entry message")):
    """One invariant failure reported by validate_spec (data, not an error)."""

    __slots__ = ()  # kind: "parity" | "weight"

    def __str__(self) -> str:
        return self.message


BasisRef = Union[int, str]


class FormulaSpec:
    """Finite basis with singular-product structure constants.

    Parameters
    ----------
    basis:
        sequence of (label, parity) or (label, parity, weight) tuples.
        Weights are all-or-nothing and must be nonnegative rationals.
    constants:
        mapping (u, n, v) -> {(k, target): coeff} giving the nonzero
        products u_n v; u, v, target are labels or indices, n and k are
        nonnegative integers, coefficients are rationals.  One pass over it
        gives the rows, n_max (1 + the largest n) and k_max (the largest k).
    central:
        optional label of a designated central basis vector c (one that
        annihilates and is annihilated by everything).
    conformal:
        optional (omega, c) pair of labels designating a conformal vector
        and its central element; c must be `central` when both are given.
    """

    __slots__ = ("name", "vectors", "_weights", "_order_scale", "_order_base", "_by_label",
                 "_rows", "n_max", "k_max", "central", "conformal", "_hash", "_memo")

    def __init__(self, basis: Sequence, constants: Mapping, central: Optional[BasisRef] = None,
                 conformal: Optional[tuple] = None, name: Optional[str] = None):
        weights: list = []  # in stored form (see SparseVector), read by the hot loops
        by_label: dict = {}
        for i, entry in enumerate(basis):
            if len(entry) not in (2, 3):
                raise _BasisEntryError(
                    i, f"basis entry {i} must be (label, parity) or (label, parity, weight)")
            label, parity, weight = (*entry, None)[:3]
            label, weight = str(label), None if weight is None else _rat(weight)
            if type(parity) is not int or parity not in (EVEN, ODD):  # no bool, no float
                raise _BasisEntryError(i, f"parity of {label!r} must be 0 or 1")
            if weight is not None and weight < 0:
                raise _BasisEntryError(i, f"weight of {label!r} must be nonnegative")
            if label in by_label:
                raise _BasisEntryError(i, f"basis label {label!r} given twice")
            if weights and (weight is None) != (weights[0] is None):
                raise _BasisEntryError(i, "weights must be given for all basis vectors or none")
            by_label[label] = BasisVector(i, label, parity, None if weight is None else rat(weight))
            weights.append(weight)
        self.vectors: tuple = tuple(by_label.values())  # labels are distinct
        self._weights: tuple = tuple(weights)
        # int PBW order keys (verma._order_key): L the lcm of the weight denominators
        # and L - L w per vector, both 0 when ungraded
        scale = 0 if None in weights else lcm(*(w.denominator for w in weights))
        self._order_scale: int = scale
        self._order_base: tuple = tuple(
            0 if w is None else scale - w.numerator * (scale // w.denominator) for w in weights)
        self._by_label = by_label

        table: dict = {}  # one pass over the constants: (uid, n, vid) -> (u_n v, D-degree)
        for (u, n, v), value in constants.items():
            _check_index(n, "product index", "product index must be nonnegative")
            uid, vid = self._resolve(u).index, self._resolve(v).index
            elt = value if isinstance(value, Element) else \
                Element({(k, self._resolve(t).index): c for (k, t), c in value.items()})
            degree = elt.d_degree
            if n > sys.maxsize or degree > sys.maxsize:
                raise ValueError("product index and D-power must be at most sys.maxsize")
            if elt:
                table[uid, n, vid] = elt, degree
        # the one store of the table: (uid, vid) -> {n: u_n v}, n increasing
        rows, n_max, k_max = {}, 0, 0
        for uid, n, vid in sorted(table):
            elt, degree = table[uid, n, vid]
            rows.setdefault((uid, vid), {})[n] = elt
            n_max, k_max = max(n_max, n + 1), max(k_max, degree)
        self._rows, self.n_max, self.k_max = rows, n_max, k_max

        self.central: Optional[int] = self._resolve(central).index if central is not None else None
        if conformal is not None:
            omega, c = conformal
            conformal = (self._resolve(omega).index, self._resolve(c).index)
            if self.central is None:
                self.central = conformal[1]
            elif self.central != conformal[1]:
                raise ValueError(
                    f"central vector {self.vectors[self.central].label!r} differs from "
                    f"the conformal central vector {self.vectors[conformal[1]].label!r}")
        self.conformal: Optional[tuple] = conformal
        self.name = name
        self._hash: Optional[int] = None
        self._memo: dict = {}  # derived data: _per_spec values, pair terms, product table

    # -- basis access ------------------------------------------------

    def _resolve(self, ref: BasisRef) -> BasisVector:
        if type(ref) is int:  # a bool is not an index
            if not 0 <= ref < len(self.vectors):
                raise KeyError(f"no basis vector number {ref}")
            return self.vectors[ref]
        if isinstance(ref, str):
            try:
                return self._by_label[ref]
            except KeyError:
                raise KeyError(f"unknown basis name {ref!r}") from None
        raise TypeError(f"cannot use {ref!r} as a basis reference")

    def bid(self, ref: BasisRef) -> int:
        return self._resolve(ref).index

    @property
    def labels(self) -> tuple:
        return tuple(self._by_label)  # in basis order

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def parity(self, ref: BasisRef) -> int:
        return self._resolve(ref).parity

    def weight(self, ref: BasisRef) -> Fraction:
        w = self._resolve(ref).weight
        if w is None:
            raise UngradedError("formula carries no weights")
        return w

    @property
    def graded(self) -> bool:
        # vacuously graded when the basis is empty
        return all(v.weight is not None for v in self.vectors)

    # -- structure constants ------------------------------------------

    def constant(self, u: BasisRef, n: int, v: BasisRef) -> Element:
        """The table product u_n v (zero when absent)."""
        _check_index(n, "product index", "product index must be nonnegative")
        return self._row(self.bid(u), self.bid(v)).get(n, _ZERO_ELEMENT)

    def _row(self, uid: int, vid: int) -> dict:
        """Every nonzero table product u_n v of a basis pair, keyed by n in
        increasing order; shared with the spec, so callers only read it."""
        return self._rows.get((uid, vid), _EMPTY_ROW)

    def constant_entries(self) -> Iterator:
        """Deterministic iteration over nonzero (uid, n, vid) -> Element."""
        return iter(sorted(((uid, n, vid), elt) for (uid, vid), row in self._rows.items()
                           for n, elt in row.items()))

    def epsilon(self, u: BasisRef, v: BasisRef) -> int:
        """Koszul sign (-1)^{|u||v|} of a basis pair."""
        return -1 if self.parity(u) and self.parity(v) else 1

    # -- value semantics ----------------------------------------------

    def _signature(self) -> tuple:
        return (self.vectors, tuple(self.constant_entries()), self.central, self.conformal)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormulaSpec):
            return NotImplemented
        return self._signature() == other._signature()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._signature())
        return self._hash

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (f"<FormulaSpec{tag} dim={self.dim} n_max={self.n_max} "
                f"k_max={self.k_max}>")


_ZERO_ELEMENT = Element()
_EMPTY_ROW: dict = {}


def _per_spec(fn):
    """Memoize fn(spec) as spec._memo[fn], so the value is freed with the spec."""
    @wraps(fn)
    def memoized(spec):
        try:
            return spec._memo[memoized]
        except KeyError:
            pass
        return spec._memo.setdefault(memoized, fn(spec))
    return memoized


def validate_spec(spec: FormulaSpec) -> list:
    """Check the FormulaSpec invariants; violations are data, not errors.

    Returns an empty list iff parity consistency and weight bookkeeping
    (when graded) both hold.
    """
    out = []
    labels = spec.labels
    parities = [v.parity for v in spec.vectors]
    weights = spec._weights  # stored form: an int prints as its Fraction does
    # over the int order keys base = L - L w (all 0, and L = 0, when ungraded),
    # w_t = w_u + w_v - n - 1 - k is base_t = base_u + base_v + L (n + k): ints
    # only, and the weights are read for a violation's message alone
    scale, base = spec._order_scale, spec._order_base
    for (uid, n, vid), elt in spec.constant_entries():
        lu, lv = labels[uid], labels[vid]
        want_parity = (parities[uid] + parities[vid]) % 2
        for k, tid in sorted(elt._terms):
            lt = labels[tid]
            if parities[tid] != want_parity:
                out.append(Violation(
                    "parity", (lu, n, lv, k, lt),
                    f"({lu},{n},{lv}) at D-power {k}: {lt} has parity "
                    f"{parities[tid]}, expected {want_parity}"))
            if base[tid] != base[uid] + base[vid] + scale * (n + k):
                want = weights[uid] + weights[vid] - n - 1 - k
                out.append(Violation(
                    "weight", (lu, n, lv, k, lt),
                    f"({lu},{n},{lv}) at D-power {k}: {lt} has weight "
                    f"{weights[tid]}, expected {want}"))
    return out


@_per_spec
def _scaled_rows(spec: FormulaSpec) -> tuple:
    """(L, rows): L the lcm of every table coefficient's denominator and rows
    (uid, vid) -> {n: [((k, tid), L c), ...]}, the table rows times L in ints."""
    scale = lcm(*(c.denominator for row in spec._rows.values()
                  for elt in row.values() for c in elt._terms.values()))
    return scale, {pair: {n: [(key, c.numerator * (scale // c.denominator))
                              for key, c in elt._terms.items()] for n, elt in row.items()}
                   for pair, row in spec._rows.items()}


def extend_product(spec: FormulaSpec, A: Element, n: int, B: Element) -> Element:
    """The product A_n B on all of Q[D] (x) S, n >= 0.

    Characterized by (DA)_n B = -n A_{n-1} B and the Leibniz rule for D;
    agrees with the constants table on basis pairs.  The table product x_j y
    enters (D^a x)_n (D^b y) at n = a + i + j, 0 <= i <= b, with factor
    (-1)^a (b over i) (n)_(a+i) and D-shift b - i; the falling factorial is
    never zero there.
    """
    _check_index(n, "product index", "product index must be nonnegative")
    acc: dict = {}
    for (a, x), ca in A._terms.items():
        for (b, y), cb in B._terms.items():
            scale = -ca * cb if a & 1 else ca * cb
            for j, elt in spec._row(x, y).items():
                if 0 <= (i := n - a - j) <= b:
                    factor = scale * comb(b, i) * falling(n, a + i)
                    for (k, tid), c in elt._terms.items():
                        _accumulate(acc, (k + b - i, tid), factor * c)
    return Element._of(acc)


def _signed_sum(terms: Iterable, times: str = "*") -> str:
    """Render (coeff, body) pairs as 'a - b + 2*c' (coefficients +-1 as bare signs)."""
    parts = []
    for c, body in terms:
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}{times}{body}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def format_element(spec: FormulaSpec, A: Element) -> str:
    """Human-readable rendering, ordered by (weight, D-power, basis)."""
    def key(item):
        (k, bid), _c = item
        w = spec.weight(bid) + k if spec.graded else Fraction(0)
        return (w, k, bid)

    def body(k: int, bid: int) -> str:
        dpart = "" if k == 0 else ("D." if k == 1 else f"D^{k}.")
        return f"{dpart}{spec.vectors[bid].label}"

    return _signed_sum((c, body(k, bid)) for (k, bid), c in sorted(A._terms.items(), key=key))
