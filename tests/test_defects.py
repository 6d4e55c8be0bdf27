from __future__ import annotations

import itertools
import random
from fractions import Fraction as F
from math import comb, factorial, perm
from types import MappingProxyType

import pytest

from vertexlie import (
    EVEN,
    BoundInsufficientError,
    Element,
    FormulaError,
    FormulaSpec,
    UngradedError,
    affine,
    basis_element,
    central_check,
    central_reduction,
    commutator_defect,
    conformal_validate,
    default_bound,
    defect_sweep,
    dual_numbers,
    extend_product,
    gen_binomial,
    heisenberg,
    injectivity_verdict,
    jacobi_component_defect,
    jacobi_window_verify,
    lambda_algebra,
    membership_central,
    neveu_schwarz,
    novikov,
    skew_defect,
    sl2,
    preset,
    virasoro,
)
from vertexlie.defects import COMMUTATOR, SKEW, _defect_tables, _defects
from vertexlie.formula_io import export_formula, parse_formula
from vertexlie.presets import PRESETS
from vertexlie.linalg import RowSpace
from test_presets import _gl_n

VIR = virasoro()
SL2 = affine(sl2())
HEIS = affine(heisenberg())
NS = neveu_schwarz()


def dc(spec, power=1, coeff=1):
    return Element({(power, spec.bid("c")): coeff})


def apply_D(A: Element, power: int = 1) -> Element:
    """Raise every D-power of A by `power` (the package reads its D-shifts off
    the integer rows and has no public shift of its own)."""
    return Element({(k + power, bid): c for (k, bid), c in A.items()})


# ---------------------------------------------------------------------------
# skew defects
# ---------------------------------------------------------------------------

def test_skew_defect_virasoro_values() -> None:
    assert skew_defect(VIR, "omega", 0, "omega") == dc(VIR, 3, F(-1, 12))
    assert skew_defect(VIR, "omega", 1, "omega") == dc(VIR, 2, F(-1, 4))
    assert skew_defect(VIR, "omega", 2, "omega") == dc(VIR, 1, F(-1, 2))
    assert skew_defect(VIR, "omega", 3, "omega").is_zero


def test_skew_defect_affine_values() -> None:
    # [x,y] + [y,x] cancels; the D-correction of the form term survives
    assert skew_defect(SL2, "e", 0, "f") == dc(SL2, 1, -1)
    assert skew_defect(SL2, "h", 0, "h") == dc(SL2, 1, -2)
    assert skew_defect(SL2, "e", 0, "e").is_zero
    assert skew_defect(SL2, "e", 1, "f").is_zero  # symmetric form
    assert skew_defect(HEIS, "x", 0, "x") == dc(HEIS, 1, -1)
    for n in range(1, 4):
        assert skew_defect(HEIS, "x", n, "x").is_zero


def test_skew_defect_neveu_schwarz_values() -> None:
    assert skew_defect(NS, "omega", 0, "tau").is_zero
    assert skew_defect(NS, "tau", 0, "omega").is_zero
    # odd-odd pairs carry eps = -1 in front of the whole correction sum
    assert skew_defect(NS, "tau", 0, "tau") == dc(NS, 2, F(-1, 3))
    assert skew_defect(NS, "tau", 1, "tau") == dc(NS, 1, F(-2, 3))
    assert skew_defect(NS, "tau", 2, "tau").is_zero


def test_skew_defect_constant_part_is_the_antisymmetry_obstruction() -> None:
    # D-power-0 part of the skew defect = F_n^0(u,v) + eps (-1)^n F_n^0(v,u)
    for spec in (VIR, SL2, HEIS, NS):
        for u, v in itertools.product(spec.labels, repeat=2):
            eps = spec.epsilon(u, v)
            for n in range(default_bound(spec)):
                got = {bid: c for (k, bid), c in skew_defect(spec, u, n, v).items()
                       if k == 0}
                want: dict = {}
                for (k, bid), c in spec.constant(u, n, v).items():
                    if k == 0:
                        want[bid] = want.get(bid, 0) + c
                for (k, bid), c in spec.constant(v, n, u).items():
                    if k == 0:
                        want[bid] = want.get(bid, 0) + eps * (-1) ** n * c
                want = {bid: c for bid, c in want.items() if c}
                assert got == want


# ---------------------------------------------------------------------------
# commutator / jacobi defects
# ---------------------------------------------------------------------------

# The references below evaluate every product term by term through the
# derivation rules, independently of the library's per-pair product rows
# and per-triple defect tables.

def _reference_product(spec, A, n, B) -> Element:
    """A_n B from (D^a u)_n (D^b v) = (-1)^a (n)_a sum_j (b over j) (n-a)_j D^(b-j) u_(n-a-j) v."""
    acc: dict = {}
    for (a, uid), ca in A.items():
        m = n - a
        if m < 0:
            continue
        for (b, vid), cb in B.items():
            for j in range(min(b, m) + 1):
                factor = (-1) ** a * perm(n, a) * comb(b, j) * perm(m, j) * ca * cb
                for (k, tid), ct in spec.constant(uid, m - j, vid).items():
                    acc[(k + b - j, tid)] = acc.get((k + b - j, tid), 0) + factor * ct
    return Element(acc)


def _reference_skew(spec, u, n, v) -> Element:
    """u_n v + eps * sum_k (-1)^(n+k) (D^k/k!) v_{n+k} u, one index at a time."""
    out = spec.constant(u, n, v)
    for k in range(max(0, spec.n_max - n)):  # v_j u = 0 from n_max on
        out = out + apply_D(spec.constant(v, n + k, u), k) \
            .scale(spec.epsilon(u, v) * F((-1) ** (n + k), factorial(k)))
    return out


def _reference_commutator(spec, u, m, v, n, w) -> Element:
    """u_m(v_n w) - eps v_n(u_m w) - sum_i (m over i) (u_i v)_{m+n-i} w."""
    unit = {x: basis_element(spec.bid(x)) for x in (u, v, w)}
    out = _reference_product(spec, unit[u], m, spec.constant(v, n, w)) \
        - _reference_product(spec, unit[v], n, spec.constant(u, m, w)).scale(spec.epsilon(u, v))
    for i in range(min(m + 1, spec.n_max)):  # u_i v = 0 from n_max on
        out = out - _reference_product(spec, spec.constant(u, i, v), m + n - i, unit[w]) \
            .scale(gen_binomial(m, i))
    return out


def _reference_jacobi(spec, u, k, v, m, w, n) -> Element:
    """The half Jacobi component (k, m, n), term by term."""
    unit = {x: basis_element(spec.bid(x)) for x in (u, v, w)}
    eps = spec.epsilon(u, v)
    out = Element()
    for i in range(k + 1):
        coeff = (-1) ** i * gen_binomial(k, i)
        out = out + _reference_product(
            spec, unit[u], m + k - i, spec.constant(v, n + i, w)).scale(coeff)
        out = out - _reference_product(
            spec, unit[v], n + k - i, spec.constant(u, m + i, w)).scale(coeff * eps * (-1) ** k)
    for i in range(m + 1):
        out = out - _reference_product(spec, spec.constant(u, k + i, v), m + n - i, unit[w]) \
            .scale(gen_binomial(m, i))
    return out


def test_commutator_defect_virasoro() -> None:
    assert commutator_defect(VIR, "omega", 0, "omega", 3, "omega") == dc(VIR, 1, F(-1, 2))
    assert commutator_defect(VIR, "omega", 3, "omega", 0, "omega") == dc(VIR, 1, F(1, 2))


def test_commutator_defect_affine_vanishes() -> None:
    for u, v, w in itertools.product(SL2.labels, repeat=3):
        for m in range(4):
            for n in range(4):
                assert commutator_defect(SL2, u, m, v, n, w).is_zero


def test_commutator_defect_zero_formula() -> None:
    zero = FormulaSpec([("a", EVEN)], {})
    assert commutator_defect(zero, "a", 2, "a", 1, "a").is_zero
    assert defect_sweep(zero) == []


def test_jacobi_component_collapses_at_k0() -> None:
    for spec in (VIR, NS):
        for u, v, w in itertools.product(spec.labels, repeat=3):
            for m in range(3):
                for n in range(3):
                    assert jacobi_component_defect(spec, u, 0, v, m, w, n) \
                        == _reference_commutator(spec, u, m, v, n, w)


def test_jacobi_component_examples() -> None:
    assert jacobi_component_defect(VIR, "omega", 0, "omega", 0, "omega", 3) \
        == dc(VIR, 1, F(-1, 2))
    assert jacobi_component_defect(SL2, "e", 1, "f", 1, "h", 0).is_zero


def test_jacobi_component_is_alternating_sum_of_commutator_defects() -> None:
    # component (k, m, n) = sum_j (-1)^j (k over j) commutator(m+k-j, n+j)
    for spec in (VIR, SL2, NS):
        labels = spec.labels
        for u, v, w in itertools.product(labels, repeat=3):
            for k, m, n in itertools.product(range(3), repeat=3):
                want = Element()
                for j in range(k + 1):
                    coeff = (-1) ** j * gen_binomial(k, j)
                    want = want + _reference_commutator(
                        spec, u, m + k - j, v, n + j, w).scale(coeff)
                assert _reference_jacobi(spec, u, k, v, m, w, n) == want
                assert jacobi_component_defect(spec, u, k, v, m, w, n) == want


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_virasoro_contents() -> None:
    sweep = defect_sweep(VIR)
    values = {(d.kind, d.indices): d.value for d in sweep}
    assert values[(SKEW, ("omega", 0, "omega"))] == dc(VIR, 3, F(-1, 12))
    assert values[(COMMUTATOR, ("omega", 0, "omega", 3, "omega"))] == dc(VIR, 1, F(-1, 2))
    assert all(membership_central(VIR, d.value, "c") for d in sweep)


def test_sweep_affine_is_skew_only_central() -> None:
    for spec in (SL2, HEIS):
        sweep = defect_sweep(spec)
        assert sweep, "the form terms leave D-corrections"
        assert all(d.kind == SKEW for d in sweep)
        assert all(membership_central(spec, d.value, "c") for d in sweep)


def test_sweep_bound_guard() -> None:
    # artificial formula whose defects survive at the derived bound:
    # a_2 a = D a pushes a commutator defect out to index n_max + k_max + 1
    bad = FormulaSpec([("a", EVEN)], {("a", 2, "a"): {(1, "a"): 1}})
    with pytest.raises(BoundInsufficientError):
        defect_sweep(bad)


def test_sweep_explicit_bound_still_guards() -> None:
    with pytest.raises(BoundInsufficientError):
        defect_sweep(VIR, bound=2)  # nonzero skew defect sits at index 2


def _dense_sweep(spec, bound) -> list:
    """The sweep with every index pair evaluated term by term: the reference for defect_sweep.

    Raises BoundInsufficientError naming the first nonzero boundary defect.
    """
    labels, ids, modes = spec.labels, range(spec.dim), range(bound + 1)
    rows = [(SKEW, (u, n, v), _reference_skew(spec, u, n, v))
            for u, v in itertools.product(ids, repeat=2) for n in modes]
    rows += [(COMMUTATOR, (u, m, v, n, w), _reference_commutator(spec, u, m, v, n, w))
             for u, v, w in itertools.product(ids, repeat=3)
             for m, n in itertools.product(modes, repeat=2)]
    out = []
    for kind, idx, value in rows:
        if value:
            named = tuple(labels[x] if i % 2 == 0 else x for i, x in enumerate(idx))
            if bound in idx[1::2]:
                raise BoundInsufficientError("(" + ",".join(map(str, named)) + ")")
            out.append((kind, named, value))
    return out


def _sweep_outcome(sweep, spec, bound):
    """(kind, indices, value) rows, or the indices a boundary error names."""
    try:
        rows = sweep(spec, bound)
    except BoundInsufficientError as err:
        return str(err)[str(err).rindex("("):]
    return [r if type(r) is tuple else (r.kind, r.indices, r.value) for r in rows]


def _basis(spec: FormulaSpec) -> list:
    """The basis of `spec` as (label, parity, weight) entries."""
    return [(v.label, v.parity, v.weight) for v in spec.vectors]


def _typo(name: str, extra: dict) -> FormulaSpec:
    """The preset `name` with the products in `extra` replaced or added."""
    spec = preset(name)
    constants = dict(spec.constant_entries())
    constants.update({(spec.bid(u), n, spec.bid(v)): value for (u, n, v), value in extra.items()})
    return FormulaSpec(_basis(spec), constants, central=spec.central, conformal=spec.conformal)


TYPO_TABLES = {
    "virasoro:c_2omega": lambda: _typo("virasoro", {("c", 2, "omega"): {(1, "omega"): F(3, 2)}}),
    "affine-sl2:e_0f": lambda: _typo("affine-sl2", {("e", 0, "f"): {(0, "h"): 2}}),
    "affine-sl2:h_1e": lambda: _typo("affine-sl2", {("h", 1, "e"): {(0, "e"): 1}}),
    "neveu-schwarz:tau_0tau":
        lambda: _typo("neveu-schwarz", {("tau", 0, "tau"): {(0, "omega"): 3}}),
    "novikov-lambda:u1_0u1": lambda: _typo("novikov-lambda", {("u1", 0, "u1"): {(1, "u1"): 1}}),
    "ungraded:a_2a": lambda: FormulaSpec([("a", EVEN)], {("a", 2, "a"): {(1, "a"): 1}}),
    "ungraded:odd": lambda: FormulaSpec(
        [("a", EVEN), ("b", 1)],
        {("a", 0, "b"): {(1, "b"): 1}, ("b", 1, "b"): {(0, "a"): F(2, 3)},
         ("b", 0, "a"): {(0, "b"): -1}}),
}


def _random_tables(rng: random.Random, count: int = 40) -> list:
    """Small one-sided tables on a, b, c: unlike the presets, u_j v rarely
    comes with v_j u, so the left and right partners of a basis vector differ."""
    tables = []
    for _ in range(count):
        constants = {
            (rng.choice("abc"), rng.randint(0, 1), rng.choice("abc")):
                {(rng.randint(0, 1), rng.choice("abc")): rng.choice((1, -1, 2, F(1, 2)))}
            for _ in range(rng.randint(2, 4))}
        tables.append(FormulaSpec([(x, rng.randint(0, 1)) for x in "abc"], constants))
    return tables


def _graded_random_tables(rng: random.Random, count: int = 20) -> list:
    """Like _random_tables, with weights in {0, 1/2, 1, 3/2, 2}: most break the
    parity or weight rule somewhere, often with a fractional expected weight."""
    weights = (0, F(1, 2), 1, F(3, 2), 2)
    tables = []
    for _ in range(count):
        constants = {
            (rng.choice("abc"), rng.randint(0, 2), rng.choice("abc")):
                {(rng.randint(0, 1), rng.choice("abc")): rng.choice((1, -1, F(2, 3)))}
            for _ in range(rng.randint(2, 4))}
        tables.append(FormulaSpec([(x, rng.randint(0, 1), rng.choice(weights)) for x in "abc"],
                                  constants))
    return tables


def _deep_random_tables(rng: random.Random, count: int = 12) -> list:
    """Like _random_tables, with product indices and D-powers in {0, 1, 2} and up
    to two terms a product: the D^2 terms of a left product u_m(D^2 y) and the
    falling factorial (q)_2 of a right product (D^2 x)_q w come only from these."""
    tables = []
    for _ in range(count):
        constants = {
            (rng.choice("abc"), rng.randint(0, 2), rng.choice("abc")):
                {(rng.randint(0, 2), rng.choice("abc")): rng.choice((1, -1, 2, F(1, 2)))
                 for _ in range(rng.randint(1, 2))}
            for _ in range(rng.randint(2, 4))}
        tables.append(FormulaSpec([(x, rng.randint(0, 1)) for x in "abc"], constants))
    return tables


def _random_element(rng: random.Random, spec: FormulaSpec) -> Element:
    """Up to three terms at D-powers 0-2 with small rational coefficients."""
    return Element({(rng.randint(0, 2), rng.randrange(spec.dim)): rng.choice((1, -2, F(1, 3)))
                    for _ in range(rng.randint(1, 3))})


def test_product_rows_match_the_table() -> None:
    specs = [preset(name) for name in sorted(PRESETS)]
    specs += [TYPO_TABLES[name]() for name in sorted(TYPO_TABLES)]
    specs += _random_tables(random.Random(7), 40)
    empty = 0
    for spec in specs:
        for u, v in itertools.product(range(spec.dim), repeat=2):
            want = {n: spec.constant(u, n, v) for n in range(spec.n_max + 2)
                    if spec.constant(u, n, v)}
            row = spec._row(u, v)
            assert row == want and list(row) == sorted(row), (spec, u, v)
            empty += not want  # a pair with no product has an empty row
    assert empty


def test_extend_product_matches_reference() -> None:
    rng = random.Random(9)
    specs = [preset(name) for name in sorted(PRESETS)]
    specs += [TYPO_TABLES[name]() for name in sorted(TYPO_TABLES)]
    specs += _random_tables(random.Random(7))
    for spec in specs:
        for _ in range(3):
            A, B = _random_element(rng, spec), _random_element(rng, spec)
            # A_n B vanishes from n_max + A.d_degree + B.d_degree on
            for n in range(spec.n_max + A.d_degree + B.d_degree + 2):
                assert extend_product(spec, A, n, B) == _reference_product(spec, A, n, B), \
                    (list(spec.constant_entries()), A, n, B)


@pytest.mark.parametrize("name", sorted(PRESETS) + sorted(TYPO_TABLES))
def test_sparse_sweep_matches_dense_reference(name: str) -> None:
    spec = preset(name) if name in PRESETS else TYPO_TABLES[name]()
    bound = default_bound(spec)
    assert _sweep_outcome(defect_sweep, spec, bound) == _sweep_outcome(_dense_sweep, spec, bound)


def test_sparse_sweep_matches_dense_reference_on_random_tables() -> None:
    for spec in _random_tables(random.Random(5)) + _deep_random_tables(random.Random(47)):
        bound = default_bound(spec)
        assert _sweep_outcome(defect_sweep, spec, bound) \
            == _sweep_outcome(_dense_sweep, spec, bound), list(spec.constant_entries())


def test_skew_defect_matches_reference() -> None:
    specs = [preset(name) for name in sorted(PRESETS)]
    specs += [TYPO_TABLES[name]() for name in sorted(TYPO_TABLES)]
    specs += _random_tables(random.Random(5))
    for spec in specs:
        for u, v in itertools.product(range(spec.dim), repeat=2):
            for n in range(default_bound(spec) + 3):
                assert skew_defect(spec, u, n, v) == _reference_skew(spec, u, n, v), \
                    (list(spec.constant_entries()), u, n, v)


@pytest.mark.parametrize("parities", [(0, 0), (0, 1), (1, 1)])
def test_skew_defect_matches_reference_at_a_large_index(parities) -> None:
    # each skew part carries its own 1/(n - i)!: a_40 b puts D^40 a / 40! into
    # skew (b, a) at 0, and at i <= 3 the parts of a_5 b, a_7 b and b_3 a meet
    # on D^(7 - i) a, D^4 a at i = 3, so a cell sums Fractions over different (n - i)!
    spec = FormulaSpec([("a", parities[0]), ("b", parities[1])], {
        ("a", 40, "b"): {(0, "a"): 1}, ("a", 5, "b"): {(2, "a"): 1},
        ("a", 7, "b"): {(0, "a"): F(3, 2)}, ("b", 3, "a"): {(4, "a"): F(-1, 2), (0, "b"): 1}})
    for u, v in itertools.product(range(spec.dim), repeat=2):
        for n in range(spec.n_max + 2):
            got = skew_defect(spec, u, n, v)
            assert got == _reference_skew(spec, u, n, v), (u, n, v)
            _assert_stored_nonzero_fractions(got)
    a, b = spec.bid("a"), spec.bid("b")
    eps = spec.epsilon(a, b)
    assert skew_defect(spec, b, 0, a).coeff((40, a)) == eps * F(1, factorial(40))
    # -1/2 from b_3 a, -eps/2! from a_5 b and -eps (3/2)/4! from a_7 b
    assert skew_defect(spec, b, 3, a).coeff((4, a)) == F(-1, 2) - eps * (F(1, 2) + F(1, 16))


def test_commutator_tables_match_the_reference_at_a_large_index() -> None:
    # (a_40 b)_total b = a_40 b enters (a, b, b) at every m in 40..80 times
    # -(m over 40), up to (80 over 40) ~ 1.1e23, which the table pass steps
    # along m; the reference computes each binomial with gen_binomial
    spec = FormulaSpec([("a", 0), ("b", 0)], {
        ("a", 40, "b"): {(0, "a"): 1}, ("b", 3, "a"): {(0, "b"): 1},
        ("a", 1, "a"): {(1, "b"): F(1, 2)}})
    tables = _defect_tables(spec)[1]
    for (u, v, w), table in tables.items():
        for (m, n), value in table.items():
            assert value == _reference_commutator(spec, u, m, v, n, w), (u, m, v, n, w)
    a, b = spec.bid("a"), spec.bid("b")
    big = tables[a, b, b]
    assert len(big) == 42 and max(big) == (80, 0)
    assert max(abs(c) for value in big.values() for c in value._terms.values()) \
        == gen_binomial(80, 40)
    for m in range(38, 83):  # the complete table: zero wherever it has no entry
        for n in range(5):
            assert big.get((m, n), Element()) == _reference_commutator(spec, a, m, b, n, b)


# The first BoundInsufficientError of defect_sweep at explicit bounds,
# recorded when skew defects were still evaluated one index at a time;
# every other preset bound from 0 to n_max sweeps without error.
_BOUNDARY_ERRORS = {
    ("affine-sl2", 0): "skew defect nonzero at boundary index 0: (e,0,f)",
    ("heisenberg", 0): "skew defect nonzero at boundary index 0: (x,0,x)",
    **{(name, n): f"skew defect nonzero at boundary index {n}: (omega,{n},omega)"
       for name in ("comm-assoc-dual", "neveu-schwarz", "novikov-flipped",
                    "novikov-lambda", "virasoro") for n in range(3)},
    **{(name, 3): "commutator defect nonzero at boundary index 3: (omega,0,omega,3,omega)"
       for name in ("comm-assoc-dual", "neveu-schwarz", "novikov-flipped",
                    "novikov-lambda", "virasoro")},
    ("virasoro:c_2omega", 6):
        "commutator defect nonzero at boundary index 6: (c,6,omega,0,omega)",
}


def test_sweep_boundary_error_texts() -> None:
    cases = [(name, preset(name), n) for name in sorted(PRESETS)
             for n in range(preset(name).n_max + 1)]
    cases.append(("virasoro:c_2omega", TYPO_TABLES["virasoro:c_2omega"](), 6))
    for name, spec, bound in cases:
        want = _BOUNDARY_ERRORS.get((name, bound))
        if want is None:
            defect_sweep(spec, bound)
            continue
        with pytest.raises(BoundInsufficientError) as err:
            defect_sweep(spec, bound)
        assert str(err.value) == want, (name, bound)


def test_sparse_sweep_matches_dense_reference_past_the_default_bound() -> None:
    # default_bound is not a true bound for this table: both sweeps stop
    # at the same boundary defect, and agree once the bound is raised
    spec = TYPO_TABLES["virasoro:c_2omega"]()
    assert default_bound(spec) == 6
    for sweep in (defect_sweep, _dense_sweep):
        assert _sweep_outcome(sweep, spec, 6) == "(c,6,omega,0,omega)"
    rows = _sweep_outcome(defect_sweep, spec, 7)
    assert len(rows) == 27
    assert rows == _sweep_outcome(_dense_sweep, spec, 7)


def test_jacobi_component_defect_sums_only_the_table() -> None:
    # the sum runs over the finite table, not over j <= k: a huge k is as
    # cheap as k = 0 and finds no entry (a loop over j <= k would not return)
    for spec in (VIR, SL2, NS, TYPO_TABLES["virasoro:c_2omega"]()):
        for u, v, w in itertools.product(range(spec.dim), repeat=3):
            assert jacobi_component_defect(spec, u, 2**64, v, 0, w, 1) == Element({})
            assert jacobi_component_defect(spec, u, 2**64, v, 2**64, w, 0) == Element({})


@pytest.mark.parametrize("name", sorted(PRESETS) + sorted(TYPO_TABLES))
def test_jacobi_component_defect_matches_the_term_by_term_sum(name: str) -> None:
    spec = preset(name) if name in PRESETS else TYPO_TABLES[name]()
    window = range(default_bound(spec) + 1)
    for u, v, w in itertools.product(range(spec.dim), repeat=3):
        for k, m, n in itertools.product(range(5), window, window):
            acc: dict = {}
            for j in range(k + 1):
                for key, c in commutator_defect(spec, u, m + k - j, v, n + j, w).items():
                    acc[key] = acc.get(key, 0) + (-1) ** j * comb(k, j) * c
            got = jacobi_component_defect(spec, u, k, v, m, w, n)
            assert got == Element(acc), (u, k, v, m, w, n)
            _assert_stored_nonzero_fractions(got)


def _assert_stored_nonzero_fractions(vec) -> None:
    # the stored form (SparseVector docstring): a nonzero int when the value
    # is integral, else a Fraction; never a bool, a float or an integral Fraction
    for key, coeff in vec._terms.items():
        assert coeff != 0, (vec, key, coeff)
        assert type(coeff) is int or (type(coeff) is F and coeff.denominator != 1), \
            (vec, key, coeff)


def _coprime_tables(rng: random.Random, count: int = 12) -> list:
    """Like _random_tables, with constants whose denominators mix 2, 3, 5, 7
    and 11, so the lcm L of a table's denominators has several prime factors."""
    dens = (1, 2, 3, 5, 7, 11)
    tables = []
    for _ in range(count):
        constants = {
            (rng.choice("abc"), rng.randint(0, 1), rng.choice("abc")):
                {(rng.randint(0, 1), rng.choice("abc")):
                 F(rng.choice((1, -1, 2, -3)), rng.choice(dens)) for _ in range(rng.randint(1, 2))}
            for _ in range(rng.randint(2, 4))}
        tables.append(FormulaSpec([(x, rng.randint(0, 1)) for x in "abc"], constants))
    return tables


_BIG = 10**39 + 3  # a 40-digit denominator


def _sweep_message(spec, bound) -> str:
    """defect_sweep's boundary error, or '' when it sweeps."""
    try:
        defect_sweep(spec, bound)
    except BoundInsufficientError as err:
        return str(err)
    return ""


def test_scaled_tables_match_the_references() -> None:
    # the defect tables and extend_product run on integer numerators (the
    # table times L, the lcm of its denominators) and divide once at the end
    specs = _coprime_tables(random.Random(11))
    specs.append(_typo("virasoro", {("omega", 3, "omega"): {(0, "c"): F(7, _BIG)}}))
    specs.append(FormulaSpec([("a", 0), ("b", 1)], {
        ("a", 0, "b"): {(1, "b"): F(1, _BIG), (0, "b"): F(3, 11)},
        ("b", 1, "b"): {(0, "a"): F(-2, _BIG + 2)}, ("b", 0, "a"): {(0, "b"): F(5, 7)}}))
    # a skew row u_j v with j >= 2 enters skew (v, u) times 1/(j - n)!, so the
    # skew tables are scaled by (n_max - 1)! != 1 on the Virasoro typo
    assert max(spec.n_max for spec in specs) >= 3
    rng = random.Random(13)
    raised = 0
    for spec in specs:
        for bound in (1, default_bound(spec)):
            dense = _sweep_outcome(_dense_sweep, spec, bound)
            assert _sweep_outcome(defect_sweep, spec, bound) == dense
            if isinstance(dense, str):  # the full message names the kind
                kind = SKEW if dense.count(",") == 2 else COMMUTATOR
                assert _sweep_message(spec, bound) \
                    == f"{kind} defect nonzero at boundary index {bound}: {dense}"
                raised += 1
            else:
                for d in defect_sweep(spec, bound):
                    _assert_stored_nonzero_fractions(d.value)
        window = range(default_bound(spec) + 2)
        for u, v, w in itertools.product(range(spec.dim), repeat=3):
            for m, n in itertools.product(window, repeat=2):
                got = commutator_defect(spec, u, m, v, n, w)
                assert got == _reference_commutator(spec, u, m, v, n, w), (spec, u, m, v, n, w)
                _assert_stored_nonzero_fractions(got)
        for _ in range(3):
            A, B = (Element({(rng.randint(0, 2), rng.randrange(spec.dim)):
                             F(rng.choice((1, -4, 5)), rng.choice((1, 3, 7, _BIG)))
                             for _ in range(rng.randint(1, 3))}) for _ in "AB")
            for n in range(spec.n_max + A.d_degree + B.d_degree + 2):
                got = extend_product(spec, A, n, B)
                assert got == _reference_product(spec, A, n, B), (spec, A, n, B)
                _assert_stored_nonzero_fractions(got)
    assert raised  # the corpus reaches the boundary rule


# _accumulate calls of one _defect_tables pass on a fresh preset: every left
# product u_m(v_n w) and every (u_i v)_total w is added term by term straight into
# the defect cells it enters.  Building each product as a cell first and copying
# it into its cells took 61, 261 and 126 calls.
DEFECT_TABLE_ACCUMULATES = {"virasoro": 48, "neveu-schwarz": 194, "affine-sl2": 90}


def test_defect_tables_add_each_product_term_into_its_cells(monkeypatch) -> None:
    import vertexlie.defects as defects_module
    import vertexlie.formula as formula_module

    calls = []
    real = formula_module._accumulate

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (formula_module, defects_module):
        monkeypatch.setattr(module, "_accumulate", counted)
    for name, count in DEFECT_TABLE_ACCUMULATES.items():
        calls.clear()
        _defect_tables(preset(name))
        assert len(calls) == count, name


def test_exported_tables_read_back_with_their_rows_and_bounds() -> None:
    # FormulaSpec builds its rows, n_max and k_max in one pass over the constants
    specs = [preset(name) for name in sorted(PRESETS)]
    specs += [TYPO_TABLES[name]() for name in sorted(TYPO_TABLES)]
    specs += _random_tables(random.Random(21)) + _graded_random_tables(random.Random(22))
    specs.append(affine(_gl_n(3)))
    for spec in specs:
        back = parse_formula(export_formula(spec))
        assert back == spec
        entries = list(back.constant_entries())
        assert entries == list(spec.constant_entries())
        for (uid, n, vid), value in entries:
            _assert_stored_nonzero_fractions(value)
            assert back._row(uid, vid)[n] is value
        assert back.n_max == spec.n_max == 1 + max((n for (_, n, _), _ in entries), default=-1)
        assert back.k_max == spec.k_max == max((v.d_degree for _, v in entries), default=0)


def test_constructors_take_any_mapping_or_pairs() -> None:
    terms = {(1, 0): F(2, 4), (0, 1): 3, (2, 1): F(4, 2), (3, 0): 0}
    want = Element(terms)
    assert want._terms == {(1, 0): F(1, 2), (0, 1): 3, (2, 1): 2}
    _assert_stored_nonzero_fractions(want)
    for other in (MappingProxyType(terms), list(terms.items()), iter(terms.items())):
        assert Element(other) == want
    constants = {("a", 0, "b"): {(1, "b"): F(1, 2)}, ("b", 2, "a"): {(0, "a"): "3/3"}}
    spec = FormulaSpec([("a", 0), ("b", 0)], constants)
    proxied = MappingProxyType({key: MappingProxyType(value) for key, value in constants.items()})
    assert FormulaSpec([("a", 0), ("b", 0)], proxied) == spec
    assert (spec.n_max, spec.k_max) == (3, 1)


def test_verdict_memo_holds_one_table_per_derivation() -> None:
    # derived data on gl3 (dim 10) after the verdict: one store of every
    # nonempty skew and commutator-defect table, the defect rows and the
    # verdict (the spec builds its int rows itself); no memoized products and
    # no per-pair or per-triple tables
    spec = affine(_gl_n(3))
    verdict = injectivity_verdict(spec)
    assert {fn.__name__ for fn in spec._memo} == {"_defect_tables", "_defects",
                                                  "injectivity_verdict"}
    assert spec._memo[injectivity_verdict] is verdict is injectivity_verdict(spec)
    assert spec._memo[_defect_tables] is _defect_tables(spec)
    # every commutator defect of an affine table vanishes, so no triple is kept;
    # the skew defects -<u, v> Dc are kept for the pairs the form pairs
    skews, commutators = _defect_tables(spec)
    assert commutators == {}
    assert len(skews) == sum(1 for u in range(spec.dim) for v in range(spec.dim)
                             if skew_defect(spec, u, 0, v))
    for store in _defect_tables(VIR):
        assert store and all(table and all(table.values()) for table in store.values())
        assert list(store) == sorted(store)
        assert all(list(table) == sorted(table) for table in store.values())


@pytest.mark.parametrize("name", ["gl3", "virasoro"])
def test_every_defect_query_reads_the_one_store(name: str) -> None:
    # skew_defect on every pair, two sweeps and the window laws add no
    # per-pair, per-triple or per-bound entry: one entry per derivation, and
    # the window laws read the verdict and keep no table of their own
    spec = affine(_gl_n(3)) if name == "gl3" else virasoro()
    for u, v in itertools.product(range(spec.dim), repeat=2):
        for n in range(spec.n_max + 1):
            skew_defect(spec, u, n, v)
    bound = default_bound(spec)
    defect_sweep(spec, bound)
    defect_sweep(spec, bound + 1)
    jacobi_window_verify(spec, 1)
    assert {fn.__name__ for fn in spec._memo} == {"_defect_tables", "_defects",
                                                  "injectivity_verdict"}


# ---------------------------------------------------------------------------
# membership / centrality
# ---------------------------------------------------------------------------

def test_membership_central() -> None:
    assert membership_central(VIR, dc(VIR, 1, F(-1, 2)), "c")
    assert membership_central(VIR, Element(), "c")
    assert not membership_central(VIR, apply_D(basis_element(VIR.bid("omega"))), "c")
    assert not membership_central(VIR, basis_element(VIR.bid("c")), "c")


def test_central_check() -> None:
    assert central_check(VIR, "c")
    assert not central_check(VIR, "omega")
    assert central_check(SL2, "c")
    assert central_check(NS, "c")


def test_central_reduction_activation() -> None:
    assert central_reduction(VIR) == VIR.bid("c")
    assert central_reduction(SL2) == SL2.bid("c")
    assert central_reduction(HEIS) == HEIS.bid("c")
    # zero form: no defects, free module, no quotient
    from vertexlie import abelian

    loop = affine(abelian())
    assert defect_sweep(loop) == []
    assert central_reduction(loop) is None


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_verdict_virasoro_central_ideal() -> None:
    verdict = injectivity_verdict(VIR)
    assert verdict.status == "injective_central_ideal"
    assert verdict.injective
    assert "D.Q[D].c" in verdict.notes
    assert verdict.witnesses
    assert str(verdict) == \
        "injective_central_ideal: defect ideal equals D.Q[D].c (central element c)"


def test_verdict_affine_zero_ideal() -> None:
    for spec in (SL2, HEIS):
        verdict = injectivity_verdict(spec)
        assert verdict.status == "injective_zero_ideal"
        assert verdict.injective


def test_verdict_no_defects_at_all() -> None:
    from vertexlie import abelian

    verdict = injectivity_verdict(affine(abelian()))
    assert verdict.status == "injective_zero_ideal"
    assert verdict.witnesses == ()


def test_verdict_neveu_schwarz_and_novikov() -> None:
    assert injectivity_verdict(NS).status == "injective_central_ideal"
    assert injectivity_verdict(novikov(lambda_algebra())).status \
        == "injective_central_ideal"


def test_verdict_flipped_novikov_not_central() -> None:
    verdict = injectivity_verdict(novikov(lambda_algebra(flipped=True)))
    assert verdict.status == "undetermined"
    assert any(not membership_central(novikov(lambda_algebra(flipped=True)),
                                      d.value, "c")
               for d in verdict.witnesses)


def test_verdict_not_injective_candidate() -> None:
    # symmetric (instead of antisymmetric) index-0 product on the basis
    bad = FormulaSpec([("a", EVEN), ("c", EVEN)],
                      {("a", 0, "a"): {(0, "a"): 1}},
                      central="c")
    verdict = injectivity_verdict(bad)
    assert verdict.status == "not_injective_candidate"
    assert all(d.kind == SKEW for d in verdict.witnesses)


def test_verdict_undetermined_higher_central_power() -> None:
    # one defect sits at D^2 c only: containment without equality
    spec = FormulaSpec(
        [("a", EVEN), ("c", EVEN)],
        {("a", 0, "a"): {(2, "c"): 1}},
        central="c",
    )
    sweep = defect_sweep(spec)
    assert sweep and all(membership_central(spec, d.value, "c") for d in sweep)
    verdict = injectivity_verdict(spec)
    assert verdict.status == "undetermined"
    assert central_reduction(spec) is None


def test_verdict_undetermined_without_central() -> None:
    spec = FormulaSpec(
        [("a", EVEN), ("z", EVEN)],
        {("a", 0, "a"): {(2, "z"): 1}},
    )
    # with no central vector there is nothing to quotient: no verdict is computed
    assert central_reduction(spec) is None
    assert injectivity_verdict not in spec._memo
    assert injectivity_verdict(spec).status == "undetermined"


def _reference_verdict(spec) -> tuple:
    """(status, witnesses, central reduction), decided term by term on the
    sweep at T: 1 plus the largest index of any _defect_tables key, at least
    n_max, so that the sweep is complete and no defect reaches its bound."""
    skews, commutators = _defect_tables(spec)
    indices = [n for table in skews.values() for n in table]
    indices += [i for table in commutators.values() for key in table for i in key]
    rows = tuple(defect_sweep(spec, max([spec.n_max] + [1 + i for i in indices])))
    c = spec.central
    if not rows:
        return "injective_zero_ideal", (), None
    bad = tuple(d for d in rows if d.kind == SKEW
                and any(k == 0 and bid != c for (k, bid), _coeff in d.value.items()))
    if bad:
        return "not_injective_candidate", bad, None
    terms = [key for d in rows for key, _coeff in d.value.items()]
    if c is None or not central_check(spec, c) or any(bid != c or k < 1 for k, bid in terms):
        return "undetermined", rows, None
    if min(k for k, _bid in terms) > 1:
        return "undetermined", rows, None
    if any(d.kind == COMMUTATOR for d in rows):
        return "injective_central_ideal", rows, c
    return "injective_zero_ideal", rows, c


def test_verdict_matches_the_reference_on_the_complete_sweep() -> None:
    # the verdict reads every defect, those past the default bound included,
    # and neither it nor the central reduction raises
    from test_local_algebra import _raising_virasoro

    specs = [preset(name) for name in sorted(PRESETS)]
    specs += [TYPO_TABLES[name]() for name in sorted(TYPO_TABLES)] + [_raising_virasoro()]
    specs += _random_tables(random.Random(3200), 40)
    specs += _graded_random_tables(random.Random(3201), 20)
    statuses, past_the_default = set(), 0
    for spec in specs:
        status, witnesses, cid = _reference_verdict(spec)
        verdict = injectivity_verdict(spec)
        assert (verdict.status, verdict.witnesses) == (status, witnesses), \
            list(spec.constant_entries())
        assert central_reduction(spec) == cid
        statuses.add(status)
        try:
            defect_sweep(spec)
        except BoundInsufficientError:
            past_the_default += 1
    assert statuses == {"injective_zero_ideal", "injective_central_ideal",
                        "not_injective_candidate", "undetermined"}
    assert past_the_default >= 2  # virasoro:c_2omega and the raising Virasoro table


def test_sweeps_at_every_bound_keep_one_list_of_defect_rows() -> None:
    # each bound filters the one per-spec list of rows; no bound adds an entry
    for spec in (affine(_gl_n(3)), TYPO_TABLES["virasoro:c_2omega"]()):
        raised, rows = 0, []
        for bound in range(50):
            try:
                defect_sweep(spec, bound)
            except BoundInsufficientError:
                raised += 1
            rows.append(spec._memo[_defects])
        assert raised and all(row is rows[0] for row in rows)
        assert {fn.__name__ for fn in spec._memo} == {"_defect_tables", "_defects"}


def test_verdict_accepts_explicit_central_argument() -> None:
    # the verdict reads the spec's central designation, given by label or by index
    basis = [("omega", EVEN, 2), ("c", EVEN, 0)]
    constants = {
        ("omega", 0, "omega"): {(1, "omega"): 1},
        ("omega", 1, "omega"): {(0, "omega"): 2},
        ("omega", 3, "omega"): {(0, "c"): F(1, 2)},
    }
    bare = FormulaSpec(basis, constants)  # no designation
    by_label = FormulaSpec(basis, constants, central="c")
    by_index = FormulaSpec(basis, constants, central=1)
    assert injectivity_verdict(bare).status == "undetermined"
    assert injectivity_verdict(by_label).status == "injective_central_ideal"
    assert injectivity_verdict(by_index) == injectivity_verdict(by_label)
    # one verdict per spec
    for spec in (bare, by_label, by_index):
        assert injectivity_verdict(spec) is injectivity_verdict(spec)


def test_defect_values_are_weight_and_parity_homogeneous() -> None:
    for spec in (VIR, SL2, HEIS, NS):
        for d in defect_sweep(spec):
            terms = d.value._terms
            assert len({spec.weight(bid) + k for k, bid in terms}) == 1, d
            assert len({spec.parity(bid) for _k, bid in terms}) == 1, d


# ---------------------------------------------------------------------------
# pure Lie tables: index-0 products only, no D-powers
# ---------------------------------------------------------------------------

def _index_zero_sl2(extra=None) -> FormulaSpec:
    """sl2's Lie bracket as the index-0 product on S, plus optional products."""
    g = sl2()
    constants = {}
    for i, li in enumerate(g.labels):
        for j, lj in enumerate(g.labels):
            terms = {(0, g.labels[t]): c for t, c in enumerate(g.bracket[i][j]) if c}
            if terms:
                constants[(li, 0, lj)] = terms
    constants.update(extra or {})
    return FormulaSpec([(lbl, EVEN) for lbl in g.labels], constants)


def test_pure_lie_clean() -> None:
    # an index-0 Lie bracket on S is already the target algebra
    verdict = injectivity_verdict(_index_zero_sl2())
    assert verdict.status == "injective_zero_ideal"
    assert verdict.witnesses == ()


def test_pure_lie_extra_index_one_product() -> None:
    # a product above index 0 on an index-0 Lie bracket breaks skew symmetry
    verdict = injectivity_verdict(_index_zero_sl2({("e", 1, "h"): {(0, "e"): 1}}))
    assert verdict.status == "not_injective_candidate"
    assert [d.indices for d in verdict.witnesses] == [("e", 1, "h"), ("h", 1, "e")]
    assert all(d.kind == SKEW for d in verdict.witnesses)


def test_pure_lie_abelian() -> None:
    zero = FormulaSpec([("a", EVEN), ("b", EVEN)], {})
    verdict = injectivity_verdict(zero)
    assert verdict.status == "injective_zero_ideal"
    assert verdict.witnesses == ()


def test_pure_lie_broken_jacobi() -> None:
    # [a,b] = d, [a,d] = a, [b,d] = b is antisymmetric but not Lie
    spec = FormulaSpec(
        [("a", EVEN), ("b", EVEN), ("d", EVEN)],
        {
            ("a", 0, "b"): {(0, "d"): 1},
            ("b", 0, "a"): {(0, "d"): -1},
            ("a", 0, "d"): {(0, "a"): 1},
            ("d", 0, "a"): {(0, "a"): -1},
            ("b", 0, "d"): {(0, "b"): 1},
            ("d", 0, "b"): {(0, "b"): -1},
        },
    )
    verdict = injectivity_verdict(spec)
    assert verdict.status == "undetermined"
    assert verdict.witnesses
    assert all(d.kind == COMMUTATOR and d.indices[1::2] == (0, 0) for d in verdict.witnesses)


# ---------------------------------------------------------------------------
# conformal validation
# ---------------------------------------------------------------------------

def test_conformal_virasoro_passes() -> None:
    report = conformal_validate(VIR)
    assert report.ok and report.failures == ()


def test_conformal_example_four_passes() -> None:
    from vertexlie import comm_assoc

    report = conformal_validate(comm_assoc(dual_numbers(), identity="omega"))
    assert report.ok


def test_conformal_neveu_schwarz_passes() -> None:
    assert conformal_validate(NS).ok


def test_conformal_affine_fails_no_conformal_vector() -> None:
    spec = FormulaSpec(_basis(SL2), dict(SL2.constant_entries()), conformal=("e", "c"))
    report = conformal_validate(spec)
    assert not report.ok
    assert not report.self_product


def test_conformal_fails_when_c_is_not_central() -> None:
    # omega_0 c = Dc has the right weight, but c no longer commutes
    spec = _typo("virasoro", {("omega", 0, "c"): basis_element(VIR.bid("c"), k=1)})
    report = conformal_validate(spec)
    assert (report.self_product, report.central, report.action,
            report.weight_zero_space) == (True, False, True, True)
    assert report.failures == ("designated central vector is not central",)


def test_conformal_fails_on_a_second_weight_zero_vector() -> None:
    # z of weight 0 with omega_0 z = Dz and omega_1 z = 0 * z
    spec = FormulaSpec(_basis(VIR) + [("z", EVEN, 0)],
                       {**dict(VIR.constant_entries()), ("omega", 0, "z"): {(1, "z"): 1}},
                       conformal=("omega", "c"))
    report = conformal_validate(spec)
    assert (report.self_product, report.central, report.action,
            report.weight_zero_space) == (True, True, True, False)
    assert report.failures == ("weight-0 subspace is spanned by ['c', 'z'], "
                               "expected exactly the central vector",)


def test_conformal_needs_weights() -> None:
    with pytest.raises(UngradedError):
        conformal_validate(FormulaSpec([("a", EVEN)], {}, conformal=("a", "a")))


def test_conformal_needs_designation() -> None:
    with pytest.raises(FormulaError):
        conformal_validate(affine(heisenberg()))


# ---------------------------------------------------------------------------
# span machinery
# ---------------------------------------------------------------------------

def test_rowspace_membership() -> None:
    rows = [{0: F(1), 1: F(2)}, {1: F(1, 3), 2: F(1)}]
    space = RowSpace(rows)
    assert space.rank == 2
    assert space.contains({0: F(2), 1: F(4)})
    assert space.contains({0: F(1), 1: F(5), 2: F(9)})
    assert not space.contains({0: F(1), 1: F(2), 3: F(1)})
    assert space.contains({})
    assert not RowSpace().contains({0: F(1)})


def test_rowspace_add_reports_growth() -> None:
    space = RowSpace()
    assert space.add({0: F(1)})
    assert not space.add({0: F(7)})
    assert space.add({1: F(1, 2)})
    assert space.rank == 2
