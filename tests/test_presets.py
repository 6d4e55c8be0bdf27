from __future__ import annotations

from fractions import Fraction as F

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
    with pytest.raises(ValueError):  # not antisymmetric
        LieData(("a", "b"), [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                [[0, 0], [0, 0]])
    with pytest.raises(ValueError):  # form not symmetric
        LieData(("a", "b"), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                [[0, 1], [0, 0]])
    with pytest.raises(ValueError):  # form not invariant: <[a,b],b> != <a,[b,b]>
        LieData(("a", "b"), [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]],
                [[0, 1], [1, 0]])


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
    from vertexlie import parity_of

    assert parity_of(spec, spec.constant("tau", 0, "tau")) == 0


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
