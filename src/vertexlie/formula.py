"""Finite singular-product formulas over exact rationals.

A formula is a finite ordered basis S with parities (and optionally
weights) together with structure constants for the singular products

    u_n v = sum_k D^k F_n^k(u, v),   n >= 0,

taking values in the free module Q[D] (x) S.  The products extend
uniquely to all of Q[D] (x) S through the derivation rules

    (D A)_n B = -n A_{n-1} B,
    D(A_n B)  = (D A)_n B + A_n (D B),

and everything here is computed with fractions.Fraction: no floating
point enters at any stage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from math import comb, factorial
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

EVEN = 0
ODD = 1

RatLike = Union[int, str, Fraction]

_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


class FormulaError(Exception):
    """Base class for errors raised by this package."""


class InhomogeneousError(FormulaError):
    """An operation required a parity- or weight-homogeneous input."""


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


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction or "n" / "p/q" string to an exact rational.

    Any other string ("1.5", "1e3", "1/0") raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL.fullmatch(text):
            raise ValueError(f"bad rational {value!r} (expected an integer or p/q)")
        return Fraction(text)
    raise TypeError(f"cannot read {value!r} as a rational number")


def falling(n: int, i: int) -> int:
    """Falling factorial n(n-1)...(n-i+1); zero whenever 0 <= n < i."""
    out = 1
    for j in range(i):
        out *= n - j
    return out


@lru_cache(maxsize=None)
def gen_binomial(n: int, i: int) -> Fraction:
    """Binomial coefficient (n choose i) for any integer n and i >= 0."""
    if i < 0:
        raise ValueError("lower binomial index must be nonnegative")
    return Fraction(falling(n, i), factorial(i))


def _accumulate(acc: dict, key, coeff: Fraction) -> None:
    old = acc.get(key)
    if old is None:
        if coeff:  # a new key stores coeff itself: no 0 + coeff allocation
            acc[key] = coeff
        return
    new = old + coeff
    if new:
        acc[key] = new
    else:
        del acc[key]


def _add_scaled(acc: dict, vec: "SparseVector", factor: Union[int, Fraction] = 1) -> None:
    """Add factor * vec into the accumulator dict acc, dropping zeros."""
    if factor == 1:
        for key, coeff in vec._terms.items():
            _accumulate(acc, key, coeff)
    else:
        for key, coeff in vec._terms.items():
            _accumulate(acc, key, factor * coeff)


class SparseVector:
    """Immutable finitely supported map key -> Fraction with linear ops.

    Keys must be hashable and mutually orderable; subclasses fix the key
    type.  Invariant of the stored dict: every coefficient is a
    fractions.Fraction and none is zero.  The public constructor
    enforces it on outside input (rat() coercion, zero-dropping);
    results built inside the package go through _of, which trusts the
    caller and must only wrap a fresh dict of nonzero Fractions that
    nothing mutates afterwards, never another vector's terms.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        data: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            _accumulate(data, key, rat(coeff))
        self._terms = data
        self._hash: Optional[int] = None

    @classmethod
    def _of(cls, terms: dict):
        """Wrap a package-built dict of nonzero Fractions without re-checking."""
        out = cls.__new__(cls)
        out._terms = terms
        out._hash = None
        return out

    def items(self) -> Iterator:
        return iter(sorted(self._terms.items()))

    def coeff(self, key) -> Fraction:
        return self._terms.get(key, Fraction(0))

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
        f = rat(factor)
        if f == 1:
            return self
        if not f:
            return self._of({})
        return self._of({k: f * c for k, c in self._terms.items()})

    __mul__ = scale

    def __rmul__(self, factor):
        return self.scale(factor)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__,) + tuple(sorted(self._terms.items())))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {c}" for k, c in self.items())
        return f"{type(self).__name__}({{{body}}})"


class Element(SparseVector):
    """Vector in Q[D] (x) S, keyed by (D-power, basis index)."""

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        super().__init__(terms)
        for k, _bid in self._terms:
            if k < 0:
                raise ValueError("D-power must be nonnegative")

    @property
    def d_degree(self) -> int:
        """Largest D-power present (zero element has degree 0)."""
        return max((k for k, _ in self._terms), default=0)


def basis_element(bid: int, k: int = 0, coeff: RatLike = 1) -> Element:
    """The single term coeff * D^k applied to basis vector number bid."""
    if k < 0:
        raise ValueError("D-power must be nonnegative")
    c = rat(coeff)
    return Element._of({(k, bid): c} if c else {})


def apply_D(A: Element, power: int = 1) -> Element:
    """Raise every D-power of A by `power`."""
    if power < 0:
        raise ValueError("cannot shift by a negative D-power")
    return Element._of({(k + power, bid): c for (k, bid), c in A._terms.items()})


@dataclass(frozen=True)
class BasisVector:
    """One basis vector of S: position, display label, parity, weight."""

    index: int
    label: str
    parity: int = EVEN
    weight: Optional[Fraction] = None


@dataclass(frozen=True)
class Violation:
    """One invariant failure reported by validate_spec (data, not an error)."""

    kind: str  # "parity" | "weight"
    entry: tuple
    message: str

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
        nonnegative integers, coefficients are rationals.
    central:
        optional label of a designated central basis vector c (one that
        annihilates and is annihilated by everything).
    conformal:
        optional (omega, c) pair of labels designating a conformal vector
        and its central element; c must be `central` when both are given.
    """

    __slots__ = ("name", "vectors", "_by_label", "_constants", "n_max",
                 "k_max", "central", "conformal", "_hash", "_memo")

    def __init__(self, basis: Sequence, constants: Mapping, central: Optional[BasisRef] = None,
                 conformal: Optional[tuple] = None, name: Optional[str] = None):
        vectors: list = []
        by_label: dict = {}
        for i, entry in enumerate(basis):
            label, parity = str(entry[0]), entry[1]
            weight = entry[2] if len(entry) > 2 else None
            if parity not in (EVEN, ODD):
                raise _BasisEntryError(i, f"parity of {label!r} must be 0 or 1")
            if weight is not None:
                weight = rat(weight)
                if weight < 0:
                    raise _BasisEntryError(i, f"weight of {label!r} must be nonnegative")
            if label in by_label:
                raise _BasisEntryError(i, f"basis label {label!r} given twice")
            if vectors and (weight is None) != (vectors[0].weight is None):
                raise _BasisEntryError(i, "weights must be given for all basis vectors or none")
            vectors.append(BasisVector(i, label, parity, weight))
            by_label[label] = vectors[-1]
        self.vectors: tuple = tuple(vectors)
        self._by_label = by_label

        table: dict = {}
        for (u, n, v), value in constants.items():
            if not isinstance(n, int) or n < 0:
                raise ValueError(f"product index must be a nonnegative integer, got {n!r}")
            uid = self._resolve(u).index
            vid = self._resolve(v).index
            if isinstance(value, Element):
                elt = value
            else:
                elt = Element({(k, self._resolve(t).index): c for (k, t), c in value.items()})
            if elt:
                table[(uid, n, vid)] = elt
        self._constants = table
        self.n_max: int = 1 + max((n for (_, n, _) in table), default=-1)
        self.k_max: int = max((e.d_degree for e in table.values()), default=0)

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
        self._memo: dict = {}  # derived data: _per_spec tables, normal-ordering entries

    # -- basis access ------------------------------------------------

    def _resolve(self, ref: BasisRef) -> BasisVector:
        if isinstance(ref, int):
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
        return tuple(v.label for v in self.vectors)

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
        return self._constants.get((self.bid(u), n, self.bid(v)), _ZERO_ELEMENT)

    def constant_by_id(self, uid: int, n: int, vid: int) -> Element:
        return self._constants.get((uid, n, vid), _ZERO_ELEMENT)

    def constant_entries(self) -> Iterator:
        """Deterministic iteration over nonzero (uid, n, vid) -> Element."""
        return iter(sorted(self._constants.items()))

    def epsilon(self, u: BasisRef, v: BasisRef) -> int:
        """Koszul sign (-1)^{|u||v|} of a basis pair."""
        return -1 if self.parity(u) and self.parity(v) else 1

    # -- value semantics ----------------------------------------------

    def _signature(self) -> tuple:
        return (self.vectors, tuple(sorted(self._constants.items())),
                self.central, self.conformal)

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


def _per_spec(fn):
    """Memoize fn(spec, *args) in spec._memo, so the table is freed with the spec."""
    @wraps(fn)
    def memoized(spec, *args):
        try:
            return spec._memo[memoized][args]
        except KeyError:
            pass
        return spec._memo.setdefault(memoized, {}).setdefault(args, fn(spec, *args))
    return memoized


def validate_spec(spec: FormulaSpec) -> list:
    """Check the FormulaSpec invariants; violations are data, not errors.

    Returns an empty list iff parity consistency and weight bookkeeping
    (when graded) both hold.
    """
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


@_per_spec
def _products(spec: FormulaSpec, A: Element, B: Element) -> dict:
    """Every nonzero A_n B, keyed by n in increasing order.

    The table product u_j v enters (D^a u)_n (D^b v) at n = a + i + j,
    0 <= i <= b, with factor (-1)^a (b over i) (n)_(a+i) and D-shift
    b - i; the falling factorial is never zero there.
    """
    rows: dict = {}
    for (a, uid), ca in A._terms.items():
        for (b, vid), cb in B._terms.items():
            scale = (-1) ** a * ca * cb
            for j in range(spec.n_max):
                base = spec.constant_by_id(uid, j, vid)
                if not base:
                    continue
                for i in range(b + 1):
                    n, shift = a + i + j, b - i
                    factor = scale * comb(b, i) * falling(n, a + i)
                    acc = rows.setdefault(n, {})
                    for (k, tid), ct in base._terms.items():
                        _accumulate(acc, (k + shift, tid), factor * ct)
    return {n: Element._of(rows[n]) for n in sorted(rows) if rows[n]}


def extend_product(spec: FormulaSpec, A: Element, n: int, B: Element) -> Element:
    """The product A_n B on all of Q[D] (x) S, n >= 0.

    Characterized by (DA)_n B = -n A_{n-1} B and the Leibniz rule for D;
    agrees with the constants table on basis pairs.
    """
    if n < 0:
        raise ValueError("product index must be nonnegative")
    return _products(spec, A, B).get(n, _ZERO_ELEMENT)


def support_bound(spec: FormulaSpec, A: Element, B: Element) -> int:
    """A_n B vanishes for every n >= this bound."""
    return spec.n_max + A.d_degree + B.d_degree


def parity_of(spec: FormulaSpec, A: Element) -> int:
    """Common parity of all terms of A (EVEN for the zero element)."""
    seen = {spec.parity(bid) for (_k, bid) in A._terms}
    if len(seen) > 1:
        raise InhomogeneousError("element mixes even and odd terms")
    return seen.pop() if seen else EVEN


def weight_of(spec: FormulaSpec, A: Element) -> Optional[Fraction]:
    """Common weight of all terms of A; None for the zero element."""
    if not spec.graded:
        raise UngradedError("formula carries no weights")
    seen = {spec.weight(bid) + k for (k, bid) in A._terms}
    if len(seen) > 1:
        raise InhomogeneousError(f"element mixes weights {sorted(seen)}")
    return seen.pop() if seen else None


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
