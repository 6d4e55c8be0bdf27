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

from math import lcm
from typing import NamedTuple, Optional, Tuple

from .defects import central_check, central_reduction
from .formula import (
    BasisRef,
    Element,
    FormulaSpec,
    SparseVector,
    _Record,
    _accumulate,
    _add_scaled,
    _check_index,
    _over,
    _per_spec,
    _rat,
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
    _check_index(n, "mode")
    return LieGenerator(spec.bid(ref), n)


def single(spec: FormulaSpec, ref: BasisRef, n: int) -> LieElement:
    """The mode ref_n as a one-term element."""
    return LieElement({generator(spec, ref, n): 1})


def reduce_generator(spec: FormulaSpec, A: Element, n: int) -> LieElement:
    """Canonical image of the mode A_n: (D^k u)_n -> (-1)^k n...(n-k+1) u_{n-k}.

    Images the central quotient kills are dropped.
    """
    _check_index(n, "mode")
    acc: dict = {}
    for (k, bid), coeff in A._terms.items():
        f = falling(n, k)
        g = LieGenerator(bid, n - k)
        if f and not _quotient_kills(spec, g):
            _accumulate(acc, g, coeff * f * (-1) ** k)
    return LieElement._of(acc)


@_per_spec
def _pair_bracket(spec: FormulaSpec, x: LieGenerator, y: LieGenerator) -> LieElement:
    acc: dict = {}
    for i, prod in spec._row(x.bid, y.bid).items():
        if coeff := gen_binomial(x.n, i):
            _add_scaled(acc, reduce_generator(spec, prod, x.n + y.n - i), coeff)
    return LieElement._of(acc)


def bracket(spec: FormulaSpec, x: LieElement, y: LieElement) -> LieElement:
    """[x, y], bilinear over [u_n, v_p] = sum_i (n over i)(u_i v)_{n+p-i}.

    With dx, dy the lcm of the coefficient denominators of x and y, write
    x = X/dx and y = Y/dy for elements X, Y with integer coefficients;
    then [x, y] = [X, Y]/(dx dy).  The numerators of X and Y and the
    factors cx cy of the sum are int products; the generator brackets
    are added as they are stored (a fractional table constant stays a
    Fraction), and each result coefficient is divided by dx dy once.
    """
    dx = lcm(*(c.denominator for c in x._terms.values()))
    dy = lcm(*(c.denominator for c in y._terms.values()))
    ys = [(gy, c.numerator * (dy // c.denominator)) for gy, c in y._terms.items()]
    acc: dict = {}
    for gx, cx in x._terms.items():
        cx = cx.numerator * (dx // cx.denominator)
        for gy, cy in ys:
            pb = _pair_bracket(spec, gx, gy)
            if pb:
                _add_scaled(acc, pb, cx * cy)
    d = dx * dy
    if d != 1:
        acc = {g: _over(c, d) if type(c) is int else _over(c.numerator, c.denominator * d)
               for g, c in acc.items()}
    return LieElement._of(acc)


def _D_generator(spec: FormulaSpec, g: LieGenerator) -> Optional[Tuple[LieGenerator, int]]:
    """D u_n = -n u_{n-1} as the pair (u_{n-1}, -n), or None where it is zero."""
    dg = LieGenerator(g.bid, g.n - 1)
    return (dg, -g.n) if g.n and not _quotient_kills(spec, dg) else None


def lie_D(spec: FormulaSpec, x: LieElement) -> LieElement:
    """The derivation u_n -> -n u_{n-1} (descending to the quotient)."""
    # distinct modes have distinct images, so no two terms collide
    return LieElement._of({d[0]: _rat(d[1] * c) for g, c in x._terms.items()
                           if (d := _D_generator(spec, g))})


class LawViolation(_Record):
    """One failed Lie-algebra law found during window verification."""

    __slots__ = ("law", "generators", "discrepancy")  # law: "skew" | "jacobi"

    def __str__(self) -> str:
        return f"{self.law} fails at {self.generators}"


def jacobi_window_verify(spec: FormulaSpec, window: int) -> list:
    """Exact Lie-superalgebra laws over all modes |n| <= window.

    Checks eps-skew-symmetry S(x, y) = [x, y] + eps [y, x] = 0 on all
    generator pairs and the super Jacobi identity J(x, y, z) = [x, [y, z]]
    - [[x, y], z] - eps [y, [x, z]] = 0 on all triples, eps = eps(x, y),
    each law summed in one pass over the memoized generator brackets
    [u_n, v_p] (_pair_bracket); returns every violation (empty list =
    pass), pairs first, then triples, in generator order.

    The derivation law D[x, y] = [Dx, y] + [x, Dy] holds for every table,
    a broken one included, so it is proved here rather than summed.  For
    A = D^k u and the falling factorial (m)_k, (m - k)(m)_k = m (m-1)_k
    gives D(reduce(A_m)) = -m reduce(A_{m-1}); when u is the central
    vector the quotient kills, both sides are zero, because D c_{-1} =
    c_{-2} is killed and (D^k c)_{m-1} survives only at m = k, where
    (k-1)_k = 0.  With n (n-1 over i) = (n - i)(n over i), the terms of
    [Du_n, v_p] + [u_n, Dv_p] at each i add up to
    -(n + p - i)(n over i) reduce((u_i v)_{n+p-i-1}), the term of D[u_n, v_p].

    The window's own brackets give the mirrored law of a pair exactly, so
    it is read off the sum for the other order.  With eps^2 = 1,
    - S(y, x) = [y, x] + eps [x, y]
              = eps (eps [y, x] + [x, y])
              = eps S(x, y) for every pair;
    - when S(x, y) = 0, [y, x] = -eps [x, y] as computed, so for every z
      J(y, x, z) = [y, [x, z]] - [[y, x], z] - eps [x, [y, z]]
                 = [y, [x, z]] + eps [[x, y], z] - eps [x, [y, z]]
                 = -eps J(x, y, z), with z over the same range (below).
    A pair whose skew law fails, and x = y, are summed as they are; the
    violations, their order and each coefficient's stored form are unchanged.

    Two skip rules leave out only laws that read 0 = 0:
    - An inert basis vector (central_check: it is an argument of no
      table product) brackets to zero with every mode, so each skew and
      Jacobi law with an inert generator has only zero brackets.
    - When [x, y] = 0, J(x, y, z) is zero unless [y, z] != 0 or
      [x, z] != 0, so z runs only over the window partners of x and y,
      in generator order; when [x, y] != 0 it runs over every z.
    """
    _check_index(window, "window", "window must be nonnegative")
    violations = []
    gens = [LieGenerator(bid, n) for bid in range(spec.dim) if not central_check(spec, bid)
            for n in range(-window, window + 1)]

    # rows[i][j] = [gens[i], gens[j]]
    rows = [[_pair_bracket(spec, gx, gy) for gy in gens] for gx in gens]
    skews: dict = {}  # (i, j) -> S(gens[i], gens[j])
    for ix, gx in enumerate(gens):
        for iy, gy in enumerate(gens):
            eps = spec.epsilon(gx.bid, gy.bid)
            skew = skews[ix, iy] = (skews[iy, ix].scale(eps) if iy < ix
                                    else rows[ix][iy] + rows[iy][ix].scale(eps))
            if skew:
                violations.append(LawViolation("skew", (gx, gy), skew))

    # partners[i]: the indices j with [gens[i], gens[j]] != 0
    partners = [{iy for iy, xy in enumerate(row) if xy} for row in rows]
    mirrors: dict = {}  # (j, i) -> the Jacobi violations of a skew-clean pair i < j
    for ix, gx in enumerate(gens):
        for iy, gy in enumerate(gens):
            xy, meps = rows[ix][iy], -spec.epsilon(gx.bid, gy.bid)
            if (ix, iy) in mirrors:
                violations += [LawViolation("jacobi", (gx, gy, v.generators[2]),
                                            v.discrepancy.scale(meps))
                               for v in mirrors.pop((ix, iy))]
                continue
            start = len(violations)
            for iz in range(len(gens)) if xy else sorted(partners[ix] | partners[iy]):
                gz = gens[iz]
                jac: dict = {}  # [x, [y, z]] - [[x, y], z] - eps [y, [x, z]]
                for g, c in rows[iy][iz]._terms.items():
                    _add_scaled(jac, _pair_bracket(spec, gx, g), c)
                for g, c in xy._terms.items():
                    _add_scaled(jac, _pair_bracket(spec, g, gz), -c)
                for g, c in rows[ix][iz]._terms.items():
                    _add_scaled(jac, _pair_bracket(spec, gy, g), meps * c)
                if jac:
                    violations.append(LawViolation("jacobi", (gx, gy, gz), LieElement._of(jac)))
            if ix < iy and not skews[ix, iy]:
                mirrors[iy, ix] = violations[start:]
    return violations
