from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest

from vertexlie import (
    PRESETS,
    BilinearAlgebra,
    Element,
    FormulaSpec,
    LieData,
    abelian,
    affine,
    comm_assoc,
    defect_sweep,
    dual_numbers,
    heisenberg,
    injectivity_verdict,
    lambda_algebra,
    membership_central,
    neveu_schwarz,
    novikov,
    novikov_check,
    preset,
    sl2,
    validate_spec,
    virasoro,
)
from vertexlie.cli import main
from vertexlie.formula_io import save_formula


def test_every_preset_validates_clean() -> None:
    for name in sorted(PRESETS):
        spec = preset(name)
        assert validate_spec(spec) == [], name


def test_preset_unknown_name() -> None:
    with pytest.raises(KeyError):
        preset("nope")


def test_virasoro_constants() -> None:
    spec = virasoro()
    assert spec.constant("omega", 0, "omega") == Element({(1, 0): 1})
    assert spec.constant("omega", 1, "omega") == Element({(0, 0): 2})
    assert spec.constant("omega", 3, "omega") == Element({(0, 1): F(1, 2)})
    assert spec.n_max == 4 and spec.k_max == 1
    assert spec.conformal == (0, 1)


def test_affine_weights_and_central() -> None:
    spec = affine(sl2())
    assert [v.weight for v in spec.vectors] == [1, 1, 1, 0]
    assert spec.central == spec.bid("c")
    assert spec.constant("e", 0, "f") == Element({(0, spec.bid("h")): 1})
    assert spec.constant("e", 1, "f") == Element({(0, spec.bid("c")): 1})
    assert spec.constant("h", 1, "h") == Element({(0, spec.bid("c")): 2})


def test_affine_label_collision() -> None:
    bad = LieData(("c",), [[[0]]], [[1]])
    with pytest.raises(ValueError):
        affine(bad)


@pytest.mark.parametrize("build", [
    lambda: affine(LieData(("c",), [[[0]]], [[1]])),
    lambda: novikov(BilinearAlgebra(("c",), [[[1]]], [[1]])),
    lambda: comm_assoc(BilinearAlgebra(("c",), [[[1]]], [[1]]), identity="c"),
], ids=["affine", "novikov", "comm_assoc"])
def test_builders_reject_central_label(build) -> None:
    # each input is valid except that its only label is the central label c
    with pytest.raises(ValueError, match="collides"):
        build()


def test_lie_data_validation() -> None:
    with pytest.raises(ValueError, match="^bracket is not antisymmetric$"):
        LieData(("a", "b"), [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="^form is not symmetric$"):
        LieData(("a", "b"), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                [[0, 1], [0, 0]])
    # <[a,b],b> != <a,[b,b]>
    with pytest.raises(ValueError, match="^form is not invariant$"):
        LieData(("a", "b"), [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]],
                [[0, 1], [1, 0]])
    # a missing row, a short row and a short vector
    for bracket in ([[[0, 0], [0, 0]]], [[[0, 0]], [[0, 0], [0, 0]]],
                    [[[0, 0], [0]], [[0, 0], [0, 0]]]):
        with pytest.raises(ValueError, match="^bracket table has wrong shape$"):
            LieData(("a", "b"), bracket, [[0, 0], [0, 0]])
    for form in ([[0, 0]], [[0, 0], [0]]):
        with pytest.raises(ValueError, match="^form table has wrong shape$"):
            LieData(("a", "b"), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], form)


ZERO_PRODUCT = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize("product,form,table", [
    ([[[0, 0], [0, 0]]], [[0, 0], [0, 0]], "product"),               # a missing row
    ([[[0, 0]], [[0, 0], [0, 0]]], [[0, 0], [0, 0]], "product"),     # a short row
    ([[[0, 0], [0]], [[0, 0], [0, 0]]], [[0, 0], [0, 0]], "product"),  # a short vector
    (ZERO_PRODUCT, [[0, 0]], "form"),
    (ZERO_PRODUCT, [[0, 0], [0]], "form"),
])
def test_bilinear_algebra_refuses_a_table_of_the_wrong_shape(product, form, table) -> None:
    with pytest.raises(ValueError, match=f"^{table} table has wrong shape$"):
        BilinearAlgebra(("a", "b"), product, form)
    assert BilinearAlgebra(("a", "b"), ZERO_PRODUCT, [[0, 0], [0, 0]]).dim == 2


def test_lambda_algebra_needs_one_label_per_weight() -> None:
    # refused before any table is built, so the message names what the caller gave
    for weights, labels, counts in [((1, 0), ("a",), "2 weights, 1 labels"),
                                    ((1,), ("a", "b"), "1 weights, 2 labels"),
                                    ((), None, "0 weights, 1 labels")]:
        with pytest.raises(ValueError, match=f"^each weight needs one label: {counts}$"):
            lambda_algebra(weights, labels=labels)
    assert lambda_algebra((1,), labels=("a",)).labels == ("a",)


def _gl_n(n: int) -> LieData:
    """gl_n on the matrix units E_ij with the trace form."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    index = {p: k for k, p in enumerate(pairs)}
    d = len(pairs)
    bracket = [[[0] * d for _ in range(d)] for _ in range(d)]
    form = [[0] * d for _ in range(d)]
    for (i, j), a in index.items():
        for (k, l), b in index.items():
            # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj, <E_ij, E_kl> = delta_jk delta_li
            if j == k:
                bracket[a][b][index[(i, l)]] += 1
            if l == i:
                bracket[a][b][index[(k, j)]] -= 1
            if j == k and l == i:
                form[a][b] = 1
    return LieData([f"E{i}{j}" for i, j in pairs], bracket, form)


def _dense_lie_check(bracket, form):
    """The O(d^4) check LieData made before it read nonzero entries only:
    its first message, or None."""
    d = len(form)
    for i in range(d):
        for j in range(d):
            if form[i][j] != form[j][i]:
                return "form is not symmetric"
            for k in range(d):
                if bracket[i][j][k] != -bracket[j][i][k]:
                    return "bracket is not antisymmetric"
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = sum(bracket[i][j][t] * form[t][k] for t in range(d))
                right = sum(bracket[j][k][t] * form[i][t] for t in range(d))
                if left != right:
                    return "form is not invariant"
    return None


def _sheared(data: LieData, shears) -> LieData:
    """The same algebra on a new basis: for each (a, b), e_a becomes e_a + e_b.

    The tables stay invariant but grow dense: a form row or a bracket
    vector holds several nonzeros, which the plain sl2 and gl_n tables never do.
    """
    d = data.dim
    for a, b in shears:
        def old(p):  # e_p of the new basis on the old one
            return {p: 1, b: 1} if p == a else {p: 1}

        def new(vec):  # old coordinates to new ones: e_a = e_a' - e_b
            out = list(vec)
            out[b] -= vec[a]
            return out

        bracket = [[new([sum(x * y * data.bracket[s][t][r] for s, x in old(p).items()
                             for t, y in old(q).items()) for r in range(d)])
                    for q in range(d)] for p in range(d)]
        form = [[sum(x * y * data.form[s][t] for s, x in old(p).items()
                     for t, y in old(q).items()) for q in range(d)] for p in range(d)]
        data = LieData(data.labels, bracket, form)
    return data


def test_lie_data_checks_agree_with_the_dense_check() -> None:
    rng = random.Random(19)
    gl2 = _gl_n(2)
    bases = ([sl2()] * 50 + [_sheared(sl2(), [(0, 1), (1, 2), (2, 0)])] * 30
             + [heisenberg()] * 20 + [gl2] * 50
             + [_sheared(gl2, [(0, 1), (1, 2), (2, 3), (3, 0)])] * 35 + [_gl_n(3)] * 15)
    seen = set()
    for base in bases:
        d = base.dim
        bracket = [[list(v) for v in row] for row in base.bracket]
        form = [list(row) for row in base.form]
        for _ in range(rng.choice((1, 2))):
            i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
            value = rng.choice((-2, -1, 0, 1, 2, F(1, 2)))
            keep = rng.random() < 0.5  # keep antisymmetry or symmetry
            if rng.random() < 0.5:
                bracket[i][j][k] = value
                if keep:
                    bracket[j][i][k] = -value
            else:
                form[i][j] = value
                if keep:
                    form[j][i] = value
        want = _dense_lie_check(bracket, form)
        try:
            LieData(base.labels, bracket, form)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, (base.labels, bracket, form)
        seen.add(want)
    assert seen == {None, "form is not symmetric", "bracket is not antisymmetric",
                    "form is not invariant"}


@pytest.mark.parametrize("n", [3, 4])
def test_affine_gl_n_is_injective(n: int) -> None:
    assert injectivity_verdict(affine(_gl_n(n))).status == "injective_zero_ideal"


def test_cli_check_json_on_gl3(tmp_path, capsys) -> None:
    path = tmp_path / "gl3.vla"
    save_formula(affine(_gl_n(3)), path)
    assert main(["check", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"]["status"] == "injective_zero_ideal"


def test_broken_jacobi_produces_defects() -> None:
    # [a,b] = d, [a,d] = a, [b,d] = 0 is antisymmetric but
    # J(a,b,d) = [d,d] + 0 + [-a,b] = -d; the zero form keeps
    # invariance vacuous
    broken = LieData(
        ("a", "b", "d"),
        [
            [[0, 0, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
            [[-1, 0, 0], [0, 0, 0], [0, 0, 0]],
        ],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    )
    sweep = defect_sweep(affine(broken))
    assert any(d.kind == "commutator" for d in sweep)


def test_clean_affine_has_no_commutator_defects() -> None:
    for data in (sl2(), heisenberg(), abelian()):
        sweep = defect_sweep(affine(data))
        assert all(d.kind != "commutator" for d in sweep)


def test_neveu_schwarz_shape() -> None:
    spec = neveu_schwarz()
    assert spec.weight("tau") == F(3, 2)
    assert spec.parity("tau") == 1
    assert spec.constant("tau", 0, "omega") == Element({(1, spec.bid("tau")): F(1, 2)})
    assert spec.constant("tau", 2, "tau") == Element({(0, spec.bid("c")): F(2, 3)})
    # index-0 square of the odd vector is even
    square = spec.constant("tau", 0, "tau")
    assert square and all(spec.parity(bid) == 0 for _k, bid in square._terms)


def test_comm_assoc_trivial_reproduces_conformal_preset() -> None:
    trivial = BilinearAlgebra(("omega",), [[[1]]], [[1]])
    assert comm_assoc(trivial, identity="omega") == virasoro()


def test_comm_assoc_rejects_bad_tables() -> None:
    with pytest.raises(ValueError):  # <identity, identity> != 1
        comm_assoc(BilinearAlgebra(("omega",), [[[1]]], [[2]]), identity="omega")
    noncomm = BilinearAlgebra(("omega", "x"),
                              [[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
                              [[1, 0], [0, 0]])
    with pytest.raises(ValueError):  # omega.x = x but x.omega = 0
        comm_assoc(noncomm, identity="omega")


def _form(algebra: BilinearAlgebra, x: tuple, y: tuple):
    """<x, y> of two coordinate vectors, summed over their nonzero coordinates."""
    return sum(a * b * algebra.form[i][j]
               for i, a in enumerate(x) if a for j, b in enumerate(y) if b)


def _dense_comm_assoc_check(algebra: BilinearAlgebra, identity: str):
    """comm_assoc's first complaint by the dense check over every basis
    triple that it used to run, or None when it accepts the tables."""
    if not algebra.form_symmetric:
        return "invalid tables: form is not symmetric"
    d = algebra.dim
    one = algebra.unit(algebra.labels.index(identity))
    mul, frm = algebra.mul_vec, lambda x, y: _form(algebra, x, y)
    for i in range(d):
        ei = algebra.unit(i)
        if mul(one, ei) != ei or mul(ei, one) != ei:
            return f"invalid tables: {identity!r} is not an identity"
        for j in range(d):
            ej = algebra.unit(j)
            if mul(ei, ej) != mul(ej, ei):
                return "invalid tables: product is not commutative"
            for k in range(d):
                ek = algebra.unit(k)
                if mul(mul(ei, ej), ek) != mul(ei, mul(ej, ek)):
                    return "invalid tables: product is not associative"
                if frm(mul(ei, ej), ek) != frm(ei, mul(ej, ek)):
                    return "invalid tables: form is not associative"
    if frm(one, one) != 1:
        return "invalid tables: <identity, identity> must be 1"
    return None


def _truncated_polynomials(n: int) -> BilinearAlgebra:
    """Q[x]/(x^n) with identity "one" and <x^a, x^b> = phi(x^(a+b)), where
    phi reads the coefficients of 1 and x^(n-1)."""
    labels = ["one"] + [f"x{a}" for a in range(1, n)]
    product = [[[int(a + b == t) for t in range(n)] for b in range(n)] for a in range(n)]
    form = [[int(a + b in (0, n - 1)) for b in range(n)] for a in range(n)]
    return BilinearAlgebra(labels, product, form)


def test_comm_assoc_checks_agree_with_the_dense_check() -> None:
    rng = random.Random(20)
    bases = ([(dual_numbers(), "omega")] * 80
             + [(_truncated_polynomials(n), "one") for n in (2, 3, 4, 5)
                for _ in range({2: 60, 3: 50, 4: 30, 5: 20}[n])])
    seen = set()
    for base, identity in bases:
        d = base.dim
        product = [[list(v) for v in row] for row in base.product]
        form = [list(row) for row in base.form]
        for _ in range(rng.choice((1, 2))):
            i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
            value = rng.choice((-1, 0, 1, 2, F(1, 2)))
            keep = rng.random() < 0.5  # keep commutativity or symmetry
            if rng.random() < 0.6:
                product[i][j][k] = value
                if keep:
                    product[j][i][k] = value
            else:
                form[i][j] = value
                if keep:
                    form[j][i] = value
        algebra = BilinearAlgebra(base.labels, product, form)
        want = _dense_comm_assoc_check(algebra, identity)
        try:
            comm_assoc(algebra, identity)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, (base.labels, product, form)
        seen.add(want)
    assert seen == {None, "invalid tables: form is not symmetric",
                    "invalid tables: 'one' is not an identity",
                    "invalid tables: 'omega' is not an identity",
                    "invalid tables: product is not commutative",
                    "invalid tables: product is not associative",
                    "invalid tables: form is not associative",
                    "invalid tables: <identity, identity> must be 1"}


def _dense_novikov_failures(algebra: BilinearAlgebra) -> tuple:
    """novikov_check's identity failures by the dense check over every basis
    triple that it used to run: full coordinate products of unit vectors."""
    labels, d = algebra.labels, algebra.dim
    # the same products, each computed once
    mul, frm = lru_cache(None)(algebra.mul_vec), lambda x, y: _form(algebra, x, y)
    failures = []
    for i, j, k in itertools.product(range(d), repeat=3):
        u, v, w = algebra.unit(i), algebra.unit(j), algebra.unit(k)
        name = f"({labels[i]},{labels[j]},{labels[k]})"
        if mul(u, mul(v, w)) != mul(v, mul(u, w)):
            failures.append(f"left-commutativity fails on {name}")
        lhs = tuple(a + b for a, b in zip(mul(mul(v, w), u), mul(v, mul(u, w))))
        rhs = tuple(a + b for a, b in zip(mul(v, mul(w, u)), mul(mul(v, u), w)))
        if lhs != rhs:
            failures.append(f"right-symmetry fails on {name}")
        if len({frm(mul(u, v), w), frm(mul(v, u), w), frm(v, mul(u, w)),
                frm(v, mul(w, u))}) > 1:
            failures.append(f"form compatibility fails on {name}")
    return tuple(failures)


def test_novikov_check_agrees_with_the_dense_check() -> None:
    rng = random.Random(21)
    bases = ([lambda_algebra()] * 30 + [lambda_algebra(flipped=True)] * 30
             + [_truncated_polynomials(n) for n in (2, 3, 4, 5)
                for _ in range({2: 16, 3: 10, 4: 6, 5: 4}[n])])
    families, valid = set(), 0
    for base in bases:
        d = base.dim
        product = [[list(v) for v in row] for row in base.product]
        form = [list(row) for row in base.form]
        for _ in range(rng.choice((1, 2))):
            i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
            value = rng.choice((-1, 0, 1, 2, F(1, 2)))
            if rng.random() < 0.7:
                product[i][j][k] = value
            else:  # novikov_check refuses a form that is not symmetric
                form[i][j] = form[j][i] = value
        algebra = BilinearAlgebra(base.labels, product, form)
        report = novikov_check(algebra)
        assert report.identity_failures == _dense_novikov_failures(algebra), \
            (base.labels, product, form)
        families |= {msg.split(" fails")[0] for msg in report.identity_failures}
        valid += report.ok
    assert families == {"left-commutativity", "right-symmetry", "form compatibility"}
    assert valid


def test_novikov_form_must_be_symmetric() -> None:
    asym = BilinearAlgebra(("a", "b"),
                           [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                           [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        novikov(asym)
    with pytest.raises(ValueError):
        novikov_check(asym)


def test_novikov_check_positive_cases() -> None:
    cases = [
        lambda_algebra((1, 0)),
        lambda_algebra((1, F(1, 2), 0), labels=("omega", "a", "b")),
        dual_numbers(),
        BilinearAlgebra(("u",), [[[0]]], [[0]]),
    ]
    for algebra in cases:
        report = novikov_check(algebra)
        assert report.ok
        assert report.defects_in_central_ideal
        assert report.consistent


def test_novikov_check_negative_cases() -> None:
    for algebra in (lambda_algebra((1, 0), flipped=True),
                    lambda_algebra((1, 2, 3), flipped=True)):
        report = novikov_check(algebra)
        assert not report.ok
        assert not report.defects_in_central_ideal
        assert report.consistent


def test_novikov_lambda_identity_element() -> None:
    # the functional takes value 1 on the first generator, so its square
    # reproduces it
    algebra = lambda_algebra((1, 0))
    omega = algebra.unit(0)
    assert algebra.mul_vec(omega, omega) == omega


def test_spec_equality_ignores_name() -> None:
    a = virasoro()
    b = FormulaSpec(
        [("omega", 0, 2), ("c", 0, 0)],
        {
            ("omega", 0, "omega"): {(1, "omega"): 1},
            ("omega", 1, "omega"): {(0, "omega"): 2},
            ("omega", 3, "omega"): {(0, "c"): F(1, 2)},
        },
        conformal=("omega", "c"),
        name="something-else",
    )
    assert a == b
    assert hash(a) == hash(b)
