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

from collections import defaultdict, namedtuple
from fractions import Fraction
from math import comb, perm
from typing import Optional

from .formula import (
    BasisRef,
    BoundInsufficientError,
    Element,
    FormulaError,
    FormulaSpec,
    UngradedError,
    _Record,
    _ZERO_ELEMENT,
    _accumulate,
    _add_scaled,
    _check_index,
    _divided,
    _over,
    _per_spec,
    _scaled_rows,
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


class Defect(_Record, namedtuple("Defect", "kind indices value")):
    """One nonzero defect: its kind, index tuple and exact value."""

    __slots__ = ()


class Verdict(_Record, namedtuple("Verdict", "status witnesses notes")):
    """Structured outcome of the injectivity analysis."""

    __slots__ = ()

    @property
    def injective(self) -> bool:
        return self.status in INJECTIVE_STATUSES

    def __str__(self) -> str:
        return f"{self.status}: {self.notes}"


def skew_defect(spec: FormulaSpec, u: BasisRef, n: int, v: BasisRef) -> Element:
    """u_n v + eps * sum_k (-1)^(n+k) (D^k/k!) v_{n+k} u."""
    _check_index(n, "index", "index must be nonnegative")
    return _defect_tables(spec)[0].get((spec.bid(u), spec.bid(v)), {}).get(n, _ZERO_ELEMENT)


@_per_spec
def _defect_tables(spec: FormulaSpec) -> tuple:
    """(skews, commutators): every nonempty skew-defect table, keyed by basis
    pair (u, v), and every nonempty commutator-defect table, keyed by basis
    triple (u, v, w), each in index order; a table maps each sorted index,
    n or (m, n), to its nonzero defect.

    One pass over the table rows adds each term straight into the defect cells
    it enters.  A row entry v_n w enters skew (v, w) at n, and as eps (-1)^n
    D^(n-i)/(n-i)! v_n w skew (w, v) at every i <= n.  The commutator cells sum
    two product shapes, each added in place over _scaled_rows (the table times L,
    in ints) with no product built first:
    - u_m(v_n w): a term D^b y of v_n w and an entry u_j y give (b over i) (m)_i
      D^(b-i) u_j y at m = i + j, the first term of (u, v, w) at (m, n) and, times
      -eps, the term eps v_n(u_m w) of (v, u, w) at (n, m).
    - (u_i v)_total w: a term D^a x of u_i v and an entry x_j w give (-1)^a
      (total)_a x_j w at total = a + j (w is not differentiated: one Leibniz term),
      which enters (u, v, w) at (m, total + i - m) times -(m over i),
      i <= m <= total + i, the binomial stepped along m.
    Both indices of each falling factorial are >= 0, so math.perm computes it.
    A commutator coefficient, bilinear in the constants, is exactly L^2 times its
    value and is divided once, at the end.  Each skew part is divided over its
    own L (n - i)! as it is added, so one large index makes no common
    denominator that every skew coefficient must be reduced over; the parts at
    i = n, the entry and its signed copy, are the spec's stored constants.
    """
    scale, rows = _scaled_rows(spec)
    if not rows:
        return {}, {}
    parity = [vec.parity for vec in spec.vectors]
    skews: dict = defaultdict(dict)        # (u, v, n) -> {(k, tid): stored-form rational}
    commutators: dict = defaultdict(dict)  # (u, v, w, m, n) -> {(k, tid): int}
    lefts, rights = sorted({u for u, _ in rows}), sorted({w for _, w in rows})  # others: zero
    for (v, w), row in rows.items():
        stored = spec._row(v, w)
        for n, vw in row.items():
            own = stored[n]._terms.items()  # j = n: the constant itself
            into = skews[v, w, n]
            for term, c in own:
                _accumulate(into, term, c)
            sign, den = (-1) ** n * (-1 if parity[v] and parity[w] else 1), scale
            into = skews[w, v, n]
            for term, c in own:
                _accumulate(into, term, c if sign > 0 else -c)
            for j in range(n - 1, -1, -1):
                den *= n - j  # L (n-j)!
                into = skews[w, v, j]
                for (k, t), c in vw:
                    _accumulate(into, (k + n - j, t), _over(sign * c, den))
            for u in lefts:  # u_m(v_n w)
                flip = 1 if parity[u] and parity[v] else -1  # -eps
                for (b, y), cb in vw:
                    if (uy := rows.get((u, y))) is None:
                        continue
                    for j, base in uy.items():
                        for i in range(b + 1):
                            m, factor = i + j, cb * comb(b, i) * perm(i + j, i) if i else cb
                            first, second = commutators[u, v, w, m, n], commutators[v, u, w, n, m]
                            for (k, t), ct in base:
                                term, c = (k + b - i, t), factor * ct
                                _accumulate(first, term, c)
                                _accumulate(second, term, flip * c)
    for (u, v), row in rows.items():
        for i, uv in row.items():
            for (a, x), ca in uv:  # (u_i v)_total w
                for w in rights:
                    if (xw := rows.get((x, w))) is None:
                        continue
                    for j, base in xw.items():
                        total = a + j
                        factor = (-ca if a & 1 else ca) * perm(total, a) if a else ca
                        targets, b = [], -1  # -(m over i), stepped along m
                        for m in range(i, total + i + 1):
                            targets.append((commutators[u, v, w, m, total + i - m], b))
                            b = b * (m + 1) // (m + 1 - i)
                        for term, ct in base:
                            c = factor * ct
                            for acc, f in targets:
                                _accumulate(acc, term, f * c)

    skew_tables: dict = {}  # basis tuples in index order, each by index
    for (u, v, n), terms in sorted([item for item in skews.items() if item[1]]):
        skew_tables.setdefault((u, v), {})[n] = Element._of(terms)  # keys differ: no terms compared
    commutator_tables: dict = {}
    den = scale * scale
    for (u, v, w, m, n), terms in sorted([item for item in commutators.items() if item[1]]):
        commutator_tables.setdefault((u, v, w), {})[m, n] = Element._of(_divided(terms, den))
    return skew_tables, commutator_tables


def commutator_defect(spec: FormulaSpec, u: BasisRef, m: int, v: BasisRef,
                      n: int, w: BasisRef) -> Element:
    """u_m(v_n w) - eps v_n(u_m w) - sum_i (m over i) (u_i v)_{m+n-i} w."""
    for i in (m, n):
        _check_index(i, "index", "indices must be nonnegative")
    table = _defect_tables(spec)[1].get((spec.bid(u), spec.bid(v), spec.bid(w)), {})
    return table.get((m, n), _ZERO_ELEMENT)


def jacobi_component_defect(spec: FormulaSpec, u: BasisRef, k: int, v: BasisRef,
                            m: int, w: BasisRef, n: int) -> Element:
    """One component of the half Jacobi identity, as an element defect.

    sum_i (-1)^i (k over i) ( u_{m+k-i}(v_{n+i} w)
                              - eps (-1)^k v_{n+k-i}(u_{m+i} w) )
    - sum_i (m over i) (u_{k+i} v)_{m+n-i} w

    equals sum_j (-1)^j (k over j) commutator_defect(u, m+k-j, v, n+j, w)
    by sum_j (-1)^j (k over j) (m+k-j over i) = (m over i-k); the case
    k = 0 is commutator_defect(u, m, v, n, w) itself.  The sum reads the triple's
    table: entry (m', n') is the term j = n' - n if 0 <= j <= k, m' = m + k - j.
    """
    for i in (k, m, n):
        _check_index(i, "index", "indices must be nonnegative")
    table = _defect_tables(spec)[1].get((spec.bid(u), spec.bid(v), spec.bid(w)), {})
    acc: dict = {}
    for (mj, nj), value in table.items():
        if 0 <= (j := nj - n) <= k and mj == m + k - j:
            _add_scaled(acc, value, (-1) ** j * gen_binomial(k, j))
    return Element._of(acc)


def default_bound(spec: FormulaSpec) -> int:
    """The window that check and defect print when no bound is given:
    n_max + k_max + 1.

    Every skew defect lies below it; a commutator defect need not (Virasoro
    with c_2 omega = (3/2) D omega has one at 6), and then defect_sweep
    raises.  The verdict reads every defect and does not depend on it.
    """
    return spec.n_max + spec.k_max + 1


@_per_spec
def _defects(spec: FormulaSpec) -> tuple:
    """Every nonzero defect row: skew pairs, then commutator triples, each
    table in index order."""
    labels = spec.labels
    skews, commutators = _defect_tables(spec)
    return (*(Defect(SKEW, (labels[u], n, labels[v]), value)
              for (u, v), table in skews.items() for n, value in table.items()),
            *(Defect(COMMUTATOR, (labels[u], m, labels[v], n, labels[w]), value)
              for (u, v, w), table in commutators.items() for (m, n), value in table.items()))


def defect_sweep(spec: FormulaSpec, bound: Optional[int] = None) -> list:
    """The nonzero skew and commutator defects whose indices lie below the bound
    (default_bound when none is given), in the order of _defects.

    The bound is a window on the complete defect list, which the verdict
    reads whole.  The boundary row (any index equal to the bound) must be
    identically zero; the first nonzero one raises BoundInsufficientError.
    """
    if bound is None:
        bound = default_bound(spec)
    _check_index(bound, "bound", "bound must be nonnegative")
    defects = []
    for d in _defects(spec):
        top = max(d.indices[1::2])
        if top == bound:
            raise BoundInsufficientError(
                f"{d.kind} defect nonzero at boundary index {bound}: "
                f"({','.join(map(str, d.indices))})")
        if top < bound:
            defects.append(d)
    return defects


def membership_central(spec: FormulaSpec, A: Element, c: BasisRef) -> bool:
    """True iff every term of A is the central vector at D-power >= 1."""
    cid = spec.bid(c)
    return all(bid == cid and k >= 1 for (k, bid) in A._terms)


def central_check(spec: FormulaSpec, c: BasisRef) -> bool:
    """True iff c annihilates and is annihilated by every basis vector."""
    cid = spec.bid(c)
    return not any(spec._row(cid, bid) or spec._row(bid, cid) for bid in range(spec.dim))


@_per_spec
def central_reduction(spec: FormulaSpec) -> Optional[int]:
    """Basis index of the central vector killed by the quotient, if any.

    The quotient relation Dc = 0 (hence c_n = 0 for n != -1 in the local
    algebra) is justified exactly when the verdict settles the defect
    ideal as the full positive D-span of the designated central vector:
    status injective_zero_ideal or injective_central_ideal with defects
    present.  Returns None otherwise: first, with no verdict computed, when
    no central vector is designated, and also when there are no defects at
    all (free case, no quotient).  The verdict is injective with witnesses
    only on its central route, which already checks the central vector.
    """
    if spec.central is None:
        return None
    verdict = injectivity_verdict(spec)
    return spec.central if verdict.injective and verdict.witnesses else None


@_per_spec
def injectivity_verdict(spec: FormulaSpec) -> Verdict:
    """Decide whether the basis embeds into the generated quotient algebra.

    The status names the commutator/Jacobi ideal: injective_zero_ideal
    when all commutator defects vanish (skew defects, if any, must be
    absorbed by the central quotient), injective_central_ideal when the
    commutator defects generate exactly the positive D-span of the
    spec's designated central vector.  Everything the two settled routes
    do not cover is reported undetermined rather than guessed.  It reads
    the complete defect list (_defects), not a window of it, so no bound
    enters and it raises nothing; computed once per spec.
    """
    cid = spec.central
    defects = _defects(spec)
    if not defects:
        return Verdict(INJECTIVE_ZERO_IDEAL, (),
                       "all skew and commutator defects vanish; the free module "
                       "itself carries the algebra" if spec.dim else
                       "the basis is empty; nothing was checked")

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


class ConformalReport(_Record, namedtuple("ConformalReport", (
        "self_product",       # (a) omega_n omega matches the required series
        "central",            # (b) c annihilates and is annihilated
        "action",             # (c) omega_0 = D, omega_1 = weight, omega_2 = 0 on S
        "weight_zero_space",  # (d) weight-0 subspace is exactly the span of c
        "failures"))):
    """Clause-by-clause outcome of the conformal-vector validation."""

    __slots__ = ()

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
    rows = [{n: value._terms for n, value in spec._row(oid, vid).items()}  # omega_n v, stored
            for vid in range(spec.dim)]
    self_product = rows[oid] == {0: {(1, oid): 1}, 1: {(0, oid): 2}, 3: {(0, cid): Fraction(1, 2)}}
    if not self_product:
        failures.append("self-product of the conformal vector is not "
                        "D.omega/z + 2 omega/z^2 + (1/2)c/z^4")

    central = central_check(spec, cid)
    if not central:
        failures.append("designated central vector is not central")

    action = True
    for v, weight in zip(spec.vectors, spec._weights):
        terms = rows[v.index]
        if v.index == cid:
            # the central column is identically zero, so omega_0 c = 0;
            # Dc only matches that in the quotient where Dc = 0.
            checks = 1 not in terms and 2 not in terms
        else:
            checks = (terms.get(0) == {(1, v.index): 1} and 2 not in terms
                      and terms.get(1) == ({(0, v.index): weight} if weight else None))
        if not checks:
            action = False
            failures.append(f"field of the conformal vector acts wrongly on {v.label!r}")

    zero_space = [v.label for v in spec.vectors if v.weight == 0]
    weight_zero_space = zero_space == [spec.vectors[cid].label]
    if not weight_zero_space:
        failures.append(f"weight-0 subspace is spanned by {zero_space}, "
                        "expected exactly the central vector")

    return ConformalReport(self_product, central, action, weight_zero_space, tuple(failures))
