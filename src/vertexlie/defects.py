"""Defect elements of a formula and the decision reports built on them.

A defect is an explicit element of Q[D] (x) S measuring the failure of
the half skew symmetry, of the half commutator formula, or of one
component of the half Jacobi identity.  Where the defects land decides
whether the basis embeds into the quotient algebra the formula
generates:

* every defect zero                      -> the free module is already
                                            the target algebra;
* defects inside D.Q[D] (x) c, c central -> the quotient kills exactly
                                            the positive D-span of c;
* a skew defect with a constant part
  outside the span of c                  -> the embedding cannot exist;
* anything else                          -> undetermined (no general
                                            decision procedure).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional

from .formula import (
    BasisRef,
    BoundInsufficientError,
    Element,
    FormulaError,
    FormulaSpec,
    UngradedError,
    _add_scaled,
    _per_spec,
    apply_D,
    basis_element,
    extend_product,
    gen_binomial,
)

SKEW = "skew"
COMMUTATOR = "commutator"
JACOBI = "jacobi"

INJECTIVE_ZERO_IDEAL = "injective_zero_ideal"
INJECTIVE_CENTRAL_IDEAL = "injective_central_ideal"
NOT_INJECTIVE_CANDIDATE = "not_injective_candidate"
UNDETERMINED = "undetermined"

INJECTIVE_STATUSES = frozenset({INJECTIVE_ZERO_IDEAL, INJECTIVE_CENTRAL_IDEAL})


@dataclass(frozen=True)
class Defect:
    """One nonzero defect: its kind, index tuple and exact value."""

    kind: str
    indices: tuple
    value: Element


@dataclass(frozen=True)
class Verdict:
    """Structured outcome of the injectivity analysis."""

    status: str
    witnesses: tuple
    notes: str

    @property
    def injective(self) -> bool:
        return self.status in INJECTIVE_STATUSES

    def __str__(self) -> str:
        return f"{self.status}: {self.notes}"


@_per_spec
def _units(spec: FormulaSpec) -> tuple:
    """The unit element of every basis vector, by basis index."""
    return tuple(basis_element(bid) for bid in range(spec.dim))


def _eps(spec: FormulaSpec, uid: int, vid: int) -> int:
    """Koszul sign of a basis pair given by indices."""
    vectors = spec.vectors
    return -1 if vectors[uid].parity and vectors[vid].parity else 1


def skew_defect(spec: FormulaSpec, u: BasisRef, n: int, v: BasisRef) -> Element:
    """u_n v + eps * sum_k (-1)^(n+k) (D^k/k!) v_{n+k} u."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _skew(spec, spec.bid(u), n, spec.bid(v))


def _skew(spec: FormulaSpec, uid: int, n: int, vid: int) -> Element:
    """skew_defect on basis indices, with no argument checks."""
    eps = _eps(spec, uid, vid)
    acc = dict(spec.constant_by_id(uid, n, vid)._terms)
    for k in range(max(0, spec.n_max - n)):
        base = spec.constant_by_id(vid, n + k, uid)
        if base:
            _add_scaled(acc, apply_D(base, k), eps * Fraction((-1) ** (n + k), factorial(k)))
    return Element._of(acc)


def commutator_defect(spec: FormulaSpec, u: BasisRef, m: int, v: BasisRef,
                      n: int, w: BasisRef) -> Element:
    """u_m(v_n w) - eps v_n(u_m w) - sum_i (m over i) (u_i v)_{m+n-i} w."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return _commutator(spec, spec.bid(u), m, spec.bid(v), n, spec.bid(w))


def _commutator(spec: FormulaSpec, uid: int, m: int, vid: int, n: int, wid: int) -> Element:
    """commutator_defect on basis indices, with no argument checks."""
    eps = _eps(spec, uid, vid)
    unit, table = _units(spec), spec._constants
    acc: dict = {}
    vw, uw = table.get((vid, n, wid)), table.get((uid, m, wid))
    if vw:
        _add_scaled(acc, extend_product(spec, unit[uid], m, vw))
    if uw:
        _add_scaled(acc, extend_product(spec, unit[vid], n, uw), -eps)
    for i in range(min(spec.n_max, m + 1)):
        uv = table.get((uid, i, vid))
        if uv:
            _add_scaled(acc, extend_product(spec, uv, m + n - i, unit[wid]), -gen_binomial(m, i))
    return Element._of(acc)


def jacobi_component_defect(spec: FormulaSpec, u: BasisRef, k: int, v: BasisRef,
                            m: int, w: BasisRef, n: int) -> Element:
    """One component of the half Jacobi identity, as an element defect.

    sum_i (-1)^i (k over i) ( u_{m+k-i}(v_{n+i} w)
                              - eps (-1)^k v_{n+k-i}(u_{m+i} w) )
    - sum_i (m over i) (u_{k+i} v)_{m+n-i} w

    The case k = 0 collapses to commutator_defect(u, m, v, n, w).
    """
    if k < 0 or m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    uid, vid, wid = spec.bid(u), spec.bid(v), spec.bid(w)
    eps = _eps(spec, uid, vid)
    unit, table = _units(spec), spec._constants
    acc: dict = {}
    for i in range(k + 1):
        coeff = (-1) ** i * gen_binomial(k, i)
        vw, uw = table.get((vid, n + i, wid)), table.get((uid, m + i, wid))
        if vw:
            _add_scaled(acc, extend_product(spec, unit[uid], m + k - i, vw), coeff)
        if uw:
            _add_scaled(acc, extend_product(spec, unit[vid], n + k - i, uw),
                        -coeff * eps * (-1) ** k)
    for i in range(min(spec.n_max - k, m + 1)):
        uv = table.get((uid, k + i, vid))
        if uv:
            _add_scaled(acc, extend_product(spec, uv, m + n - i, unit[wid]), -gen_binomial(m, i))
    return Element._of(acc)


def default_bound(spec: FormulaSpec) -> int:
    """Sweep bound: every defect vanishes at and beyond this index."""
    return spec.n_max + spec.k_max + 1


@_per_spec
def _sweep(spec: FormulaSpec, bound: int) -> tuple:
    defects = []
    ids = range(spec.dim)
    labels = spec.labels
    for uid in ids:
        for vid in ids:
            for n in range(bound + 1):
                value = _skew(spec, uid, n, vid)
                if not value:
                    continue
                if n == bound:
                    raise BoundInsufficientError(
                        f"skew defect nonzero at boundary index {bound}: "
                        f"({labels[uid]},{n},{labels[vid]})")
                defects.append(Defect(SKEW, (labels[uid], n, labels[vid]), value))
    # u_m(v_n w), v_n(u_m w) and (u_i v)_{m+n-i} w vanish unless their table
    # operand (v_n w, u_m w, u_i v with i <= m) has a target with a product
    # against u, v, w respectively; pairs (m, n) where all three vanish are skipped.
    table, modes = spec._constants, range(bound + 1)
    right = [{b for (a, _j, b) in table if a == x} for x in ids]  # every b with some x_j b
    left = [{a for (a, _j, b) in table if b == x} for x in ids]   # every a with some a_j x

    def reaches(key: tuple, partners: set) -> bool:
        return key in table and any(t in partners for (_k, t) in table[key]._terms)

    for uid in ids:
        for vid in ids:
            for wid in ids:
                i_min = min((i for i in range(spec.n_max) if reaches((uid, i, vid), left[wid])),
                            default=bound + 1)
                vw_modes = [n for n in modes if reaches((vid, n, wid), right[uid])]
                for m in modes:
                    row = modes if m >= i_min or reaches((uid, m, wid), right[vid]) else vw_modes
                    for n in row:
                        value = _commutator(spec, uid, m, vid, n, wid)
                        if not value:
                            continue
                        if m == bound or n == bound:
                            raise BoundInsufficientError(
                                f"commutator defect nonzero at boundary index {bound}: "
                                f"({labels[uid]},{m},{labels[vid]},{n},{labels[wid]})")
                        defects.append(Defect(
                            COMMUTATOR,
                            (labels[uid], m, labels[vid], n, labels[wid]), value))
    return tuple(defects)


def defect_sweep(spec: FormulaSpec, bound: Optional[int] = None) -> list:
    """All nonzero skew and commutator defects over the index window.

    The boundary row (any index equal to the bound) is evaluated and must
    be identically zero; otherwise the bound is reported insufficient.
    Only index pairs the constants table can make nonzero are evaluated.
    """
    if bound is None:
        bound = default_bound(spec)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return list(_sweep(spec, bound))


def membership_central(spec: FormulaSpec, A: Element, c: BasisRef) -> bool:
    """True iff every term of A is the central vector at D-power >= 1."""
    cid = spec.bid(c)
    return all(bid == cid and k >= 1 for (k, bid) in A._terms)


def central_check(spec: FormulaSpec, c: BasisRef) -> bool:
    """True iff c annihilates and is annihilated by every basis vector."""
    cid = spec.bid(c)
    return not any(uid == cid or vid == cid for (uid, _n, vid) in spec._constants)


@_per_spec
def central_reduction(spec: FormulaSpec) -> Optional[int]:
    """Basis index of the central vector killed by the quotient, if any.

    The quotient relation Dc = 0 (hence c_n = 0 for n != -1 in the local
    algebra) is justified exactly when the verdict settles the defect
    ideal as the full positive D-span of the designated central vector:
    status injective_zero_ideal or injective_central_ideal with defects
    present.  Returns None otherwise, in particular when there are no
    defects at all (free case, no quotient).
    """
    cid = spec.central
    if cid is None or not central_check(spec, cid):
        return None
    verdict = injectivity_verdict(spec)
    if verdict.witnesses and verdict.status in (INJECTIVE_ZERO_IDEAL, INJECTIVE_CENTRAL_IDEAL):
        return spec.central
    return None


@_per_spec
def injectivity_verdict(spec: FormulaSpec) -> Verdict:
    """Decide whether the basis embeds into the generated quotient algebra.

    The status names the commutator/Jacobi ideal: injective_zero_ideal
    when all commutator defects vanish (skew defects, if any, must be
    absorbed by the central quotient), injective_central_ideal when the
    commutator defects generate exactly the positive D-span of the
    spec's designated central vector.  Everything the two settled routes
    do not cover is reported undetermined rather than guessed; computed
    once per spec.
    """
    cid = spec.central
    defects = _sweep(spec, default_bound(spec))
    if not defects:
        return Verdict(INJECTIVE_ZERO_IDEAL, (),
                       "all skew and commutator defects vanish; the free module "
                       "itself carries the algebra")

    def constant_part_outside_center(d: Defect) -> bool:
        return any(k == 0 and (cid is None or bid != cid)
                   for (k, bid) in d.value._terms)

    bad_skew = tuple(d for d in defects if d.kind == SKEW and constant_part_outside_center(d))
    if bad_skew:
        return Verdict(NOT_INJECTIVE_CANDIDATE, bad_skew,
                       "skew defects have constant parts outside the center: the "
                       "basis cannot embed into any quotient algebra")

    if cid is not None and central_check(spec, cid) and \
            all(membership_central(spec, d.value, cid) for d in defects):
        c_label = spec.vectors[cid].label
        commutator_defects = tuple(d for d in defects if d.kind == COMMUTATOR)
        if min(k for d in defects for (k, _bid) in d.value._terms) != 1:
            return Verdict(UNDETERMINED, defects,
                           f"defects sit in higher D-powers of {c_label}; the "
                           "defect ideal is strictly smaller than its full "
                           "positive D-span and the quotient is not computed")
        if not commutator_defects:
            return Verdict(INJECTIVE_ZERO_IDEAL, defects,
                           "commutator defects all vanish; skew defects lie in "
                           f"D.Q[D].{c_label} and are killed by the central quotient")
        return Verdict(INJECTIVE_CENTRAL_IDEAL, defects,
                       f"defect ideal equals D.Q[D].{c_label} "
                       f"(central element {c_label})")

    return Verdict(UNDETERMINED, defects,
                   "defects fit neither settled pattern (zero ideal or the "
                   "positive D-span of a central vector); no decision procedure")


@dataclass(frozen=True)
class ConformalReport:
    """Clause-by-clause outcome of the conformal-vector validation."""

    self_product: bool        # (a) omega_n omega matches the required series
    central: bool             # (b) c annihilates and is annihilated
    action: bool              # (c) omega_0 = D, omega_1 = weight, omega_2 = 0 on S
    weight_zero_space: bool   # (d) weight-0 subspace is exactly the span of c
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.self_product and self.central and self.action and self.weight_zero_space


def conformal_validate(spec: FormulaSpec) -> ConformalReport:
    """Validate the spec's designated conformal vector omega and central element c.

    The nonnegative weights a conformal vector also needs are enforced
    by FormulaSpec itself.
    """
    if not spec.graded:
        raise UngradedError("conformal validation needs weights")
    if spec.conformal is None:
        raise FormulaError("no conformal pair designated")
    oid, cid = spec.conformal
    failures = []

    want = {0: basis_element(oid, k=1), 1: basis_element(oid).scale(2),
            3: basis_element(cid).scale(Fraction(1, 2))}
    got = {n: spec.constant_by_id(oid, n, oid) for n in range(spec.n_max)}
    got = {n: e for n, e in got.items() if e}
    self_product = got == want
    if not self_product:
        failures.append("self-product of the conformal vector is not "
                        "D.omega/z + 2 omega/z^2 + (1/2)c/z^4")

    central = central_check(spec, cid)
    if not central:
        failures.append("designated central vector is not central")

    action = True
    for v in spec.vectors:
        if v.index == cid:
            # the central column is identically zero, so omega_0 c = 0;
            # Dc only matches that in the quotient where Dc = 0.
            checks = (spec.constant_by_id(oid, 1, cid).is_zero
                      and spec.constant_by_id(oid, 2, cid).is_zero)
        else:
            checks = (spec.constant_by_id(oid, 0, v.index) == basis_element(v.index, k=1)
                      and spec.constant_by_id(oid, 1, v.index)
                      == basis_element(v.index).scale(v.weight)
                      and spec.constant_by_id(oid, 2, v.index).is_zero)
        if not checks:
            action = False
            failures.append(f"field of the conformal vector acts wrongly on {v.label!r}")

    zero_space = [v.label for v in spec.vectors if v.weight == 0]
    weight_zero_space = zero_space == [spec.vectors[cid].label]
    if not weight_zero_space:
        failures.append(f"weight-0 subspace is spanned by {zero_space}, "
                        "expected exactly the central vector")

    return ConformalReport(self_product, central, action, weight_zero_space, tuple(failures))
