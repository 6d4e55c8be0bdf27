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

from dataclasses import dataclass
from typing import NamedTuple

from .defects import central_reduction
from .formula import (
    BasisRef,
    Element,
    FormulaSpec,
    SparseVector,
    _accumulate,
    _add_scaled,
    _per_spec,
    _signed_sum,
    falling,
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
    return g.bid == central_reduction(spec) and g.n != -1


class LieElement(SparseVector):
    """Finite rational combination of mode generators."""

    def display(self, spec: FormulaSpec) -> str:
        return _signed_sum((c, f"{spec.vectors[g.bid].label}_{g.n}") for g, c in self.items())


def generator(spec: FormulaSpec, ref: BasisRef, n: int) -> LieGenerator:
    """The mode ref_n of the basis vector ref (a label or an index)."""
    if not isinstance(n, int):
        raise TypeError(f"mode must be an integer, got {n!r}")
    return LieGenerator(spec.bid(ref), n)


def single(spec: FormulaSpec, ref: BasisRef, n: int) -> LieElement:
    """The mode ref_n as a one-term element."""
    return LieElement({generator(spec, ref, n): 1})


def reduce_generator(spec: FormulaSpec, A: Element, n: int) -> LieElement:
    """Canonical image of the mode A_n: (D^k u)_n -> (-1)^k n...(n-k+1) u_{n-k}.

    Images the central quotient kills are dropped.
    """
    acc: dict = {}
    for (k, bid), coeff in A._terms.items():
        f = falling(n, k)
        g = LieGenerator(bid, n - k)
        if f and not _quotient_kills(spec, g):
            _accumulate(acc, g, coeff * f * (-1) ** k)
    return LieElement._of(acc)


@_per_spec
def _pair_bracket(spec: FormulaSpec, ubid: int, n: int, vbid: int, p: int) -> LieElement:
    acc: dict = {}
    for i in range(spec.n_max):
        coeff = gen_binomial(n, i)
        if not coeff:
            continue
        prod = spec.constant_by_id(ubid, i, vbid)
        if not prod:
            continue
        _add_scaled(acc, reduce_generator(spec, prod, n + p - i), coeff)
    return LieElement._of(acc)


def bracket(spec: FormulaSpec, x: LieElement, y: LieElement) -> LieElement:
    """[x, y], bilinear over [u_n, v_p] = sum_i (n over i)(u_i v)_{n+p-i}."""
    acc: dict = {}
    for gx, cx in x._terms.items():
        for gy, cy in y._terms.items():
            pb = _pair_bracket(spec, gx.bid, gx.n, gy.bid, gy.n)
            if pb:
                _add_scaled(acc, pb, cx * cy)
    return LieElement._of(acc)


def lie_D(spec: FormulaSpec, x: LieElement) -> LieElement:
    """The derivation u_n -> -n u_{n-1} (descending to the quotient)."""
    acc: dict = {}
    for g, c in x._terms.items():
        dg = LieGenerator(g.bid, g.n - 1)
        if g.n and not _quotient_kills(spec, dg):
            _accumulate(acc, dg, -g.n * c)
    return LieElement._of(acc)


@dataclass(frozen=True)
class LawViolation:
    """One failed Lie-algebra law found during window verification."""

    law: str  # "skew" | "jacobi" | "derivation"
    generators: tuple
    discrepancy: LieElement

    def __str__(self) -> str:
        return f"{self.law} fails at {self.generators}"


def jacobi_window_verify(spec: FormulaSpec, window: int) -> list:
    """Exact Lie-superalgebra laws over all modes |n| <= window.

    Checks eps-skew-symmetry and the derivation law on all generator
    pairs and the super Jacobi identity on all triples; returns every
    violation (empty list = pass).
    """
    if window < 0:
        raise ValueError("window must be nonnegative")
    violations = []
    modes = range(-window, window + 1)
    gens = [LieGenerator(bid, n) for bid in range(spec.dim) for n in modes]

    for gx in gens:
        x = LieElement({gx: 1})
        dx = lie_D(spec, x)
        for gy in gens:
            y = LieElement({gy: 1})
            xy = bracket(spec, x, y)
            eps = -1 if spec.parity(gx.bid) and spec.parity(gy.bid) else 1
            skew = xy + bracket(spec, y, x).scale(eps)
            if skew:
                violations.append(LawViolation("skew", (gx, gy), skew))
            leib = lie_D(spec, xy) - bracket(spec, dx, y) - bracket(spec, x, lie_D(spec, y))
            if leib:
                violations.append(LawViolation("derivation", (gx, gy), leib))

    # A basis vector that never occurs as an argument of the constants
    # table brackets to zero with every mode, so any Jacobi triple
    # containing it reads 0 = 0 - 0; skip those outright.
    inert = {bid for bid in range(spec.dim)
             if not any(bid in (uid, vid) for (uid, _n, vid) in spec._constants)}
    triple_gens = [g for g in gens if g.bid not in inert]
    for gx in triple_gens:
        x = LieElement({gx: 1})
        for gy in triple_gens:
            y = LieElement({gy: 1})
            eps = -1 if spec.parity(gx.bid) and spec.parity(gy.bid) else 1
            xy = bracket(spec, x, y)
            for gz in triple_gens:
                z = LieElement({gz: 1})
                jac = bracket(spec, x, bracket(spec, y, z)) \
                    - bracket(spec, xy, z) \
                    - bracket(spec, y, bracket(spec, x, z)).scale(eps)
                if jac:
                    violations.append(LawViolation("jacobi", (gx, gy, gz), jac))
    return violations
