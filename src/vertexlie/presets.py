"""Ready-made formulas: affine, Virasoro, Neveu-Schwarz, Novikov-type.

Each constructor returns a FormulaSpec whose constants are exact
rationals; central elements carry the level symbolically (a basis vector
c), to be specialized to a number only inside the vacuum module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence

from . import defects
from .formula import EVEN, ODD, FormulaSpec, _Record, rat


def _table(rows) -> tuple:
    return tuple(tuple(rat(x) for x in row) for row in rows)


def _cube(data) -> tuple:
    return tuple(tuple(tuple(rat(x) for x in vec) for vec in row) for row in data)


def _check_shapes(d: int, cube: tuple, name: str, form: tuple) -> None:
    """Refuse a table `name` that is not d x d x d, then a form that is not d x d."""
    if len(cube) != d or any(len(r) != d or any(len(v) != d for v in r) for r in cube):
        raise ValueError(f"{name} table has wrong shape")
    if len(form) != d or any(len(r) != d for r in form):
        raise ValueError("form table has wrong shape")


class LieData(_Record, namedtuple("LieData", "labels bracket form")):
    """Finite-dimensional Lie algebra data with an invariant form.

    bracket[i][j] is the coordinate vector of [e_i, e_j]; form[i][j] is
    <e_i, e_j>.  The shapes, antisymmetry, symmetry of the form and
    invariance <[x,y],z> = <x,[y,z]> on basis vectors are enforced, the
    last from the nonzero entries only: O(d^2 s + d^3) in all for
    dimension d, where s is the number of nonzeros per row.  The Jacobi
    identity is not, so that broken inputs can be fed to the defect
    analysis on purpose.
    """

    __slots__ = ()

    def __new__(cls, labels: Sequence[str], bracket, form):
        self = super().__new__(cls, tuple(labels), _cube(bracket), _table(form))
        self._validate()
        return self

    @property
    def dim(self) -> int:
        return len(self.labels)

    def _validate(self) -> None:
        d, b, f = self.dim, self.bracket, self.form
        _check_shapes(d, b, "bracket", f)
        # both failure sets are closed under (i, j) -> (j, i), so the first
        # failing pair in (i, j) order lies in the upper triangle
        for i in range(d):
            for j in range(i, d):
                if f[i][j] != f[j][i]:
                    raise ValueError("form is not symmetric")
                if b[i][j] != tuple(-x for x in b[j][i]):
                    raise ValueError("bracket is not antisymmetric")
        # g[p][q] = F b_pq; F is symmetric, so <[e_i,e_j],e_k> = g[i][j][k]
        # and <e_i,[e_j,e_k]> = g[j][k][i]
        f_rows = [[(k, x) for k, x in enumerate(row) if x] for row in f]
        g = [[[0] * d for _ in range(d)] for _ in range(d)]
        for p in range(d):
            for q in range(d):
                out = g[p][q]
                for t, c in enumerate(b[p][q]):
                    if c:
                        for k, x in f_rows[t]:
                            out[k] += c * x
        if any(g[i][j][k] != g[j][k][i] for i in range(d) for j in range(d) for k in range(d)):
            raise ValueError("form is not invariant")


class BilinearAlgebra(_Record, namedtuple("BilinearAlgebra", "labels product form")):
    """A plain bilinear product and a bilinear form on a finite basis."""

    __slots__ = ()  # product[i][j] = coordinates of e_i . e_j

    def __new__(cls, labels: Sequence[str], product, form):
        self = super().__new__(cls, tuple(labels), _cube(product), _table(form))
        _check_shapes(self.dim, self.product, "product", self.form)
        return self

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def form_symmetric(self) -> bool:
        return all(self.form[i][j] == self.form[j][i]
                   for i in range(self.dim) for j in range(self.dim))

    def mul_vec(self, x: tuple, y: tuple) -> tuple:
        """Product of two coordinate vectors."""
        d = self.dim
        out = [Fraction(0)] * d
        for i in range(d):
            if not x[i]:
                continue
            for j in range(d):
                if not y[j]:
                    continue
                c = x[i] * y[j]
                for k in range(d):
                    out[k] += c * self.product[i][j][k]
        return tuple(out)

    def unit(self, i: int) -> tuple:
        return tuple(Fraction(int(j == i)) for j in range(self.dim))


def _vector_terms(labels: Sequence[str], vec, k: int = 0) -> dict:
    return {(k, labels[t]): c for t, c in enumerate(vec) if c}


def _with_central(labels: Sequence[str], weight: int) -> list:
    """Basis entries: every label at `weight`, then the central vector c at weight 0."""
    if "c" in labels:
        raise ValueError("central label 'c' collides with the basis")
    return [(lbl, EVEN, weight) for lbl in labels] + [("c", EVEN, 0)]


def affine(g: LieData) -> FormulaSpec:
    """Formula of an affinization: x_0 y = [x,y], x_1 y = <x,y> c.

    Basis vectors of g get weight 1, the central vector c weight 0.
    """
    basis = _with_central(g.labels, 1)
    constants: dict = {}
    for i, li in enumerate(g.labels):
        for j, lj in enumerate(g.labels):
            terms = _vector_terms(g.labels, g.bracket[i][j])
            if terms:
                constants[(li, 0, lj)] = terms
            if g.form[i][j]:
                constants[(li, 1, lj)] = {(0, "c"): g.form[i][j]}
    return FormulaSpec(basis, constants, central="c", name="affine")


def virasoro() -> FormulaSpec:
    """Two-dimensional formula with the conformal self-product."""
    basis = [("omega", EVEN, 2), ("c", EVEN, 0)]
    constants = {
        ("omega", 0, "omega"): {(1, "omega"): 1},
        ("omega", 1, "omega"): {(0, "omega"): 2},
        ("omega", 3, "omega"): {(0, "c"): Fraction(1, 2)},
    }
    return FormulaSpec(basis, constants, conformal=("omega", "c"), name="virasoro")


def neveu_schwarz() -> FormulaSpec:
    """Even conformal vector plus an odd weight-3/2 partner."""
    basis = [("omega", EVEN, 2), ("tau", ODD, Fraction(3, 2)), ("c", EVEN, 0)]
    constants = {
        ("omega", 0, "omega"): {(1, "omega"): 1},
        ("omega", 1, "omega"): {(0, "omega"): 2},
        ("omega", 3, "omega"): {(0, "c"): Fraction(1, 2)},
        ("tau", 0, "tau"): {(0, "omega"): 2},
        ("tau", 2, "tau"): {(0, "c"): Fraction(2, 3)},
        ("omega", 0, "tau"): {(1, "tau"): 1},
        ("omega", 1, "tau"): {(0, "tau"): Fraction(3, 2)},
        ("tau", 0, "omega"): {(1, "tau"): Fraction(1, 2)},
        ("tau", 1, "omega"): {(0, "tau"): Fraction(3, 2)},
    }
    return FormulaSpec(basis, constants, conformal=("omega", "c"), name="neveu-schwarz")


def _weight_two(algebra: BilinearAlgebra) -> tuple:
    """Basis and constants of u_0 v = D(u.v), u_1 v = u.v + v.u, u_3 v = (1/2)<u,v> c."""
    labels = algebra.labels
    basis = _with_central(labels, 2)
    constants: dict = {}
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            uv = algebra.product[i][j]
            vu = algebra.product[j][i]
            terms = _vector_terms(labels, uv, k=1)
            if terms:
                constants[(li, 0, lj)] = terms
            sym = tuple(a + b for a, b in zip(uv, vu))
            terms = _vector_terms(labels, sym)
            if terms:
                constants[(li, 1, lj)] = terms
            if algebra.form[i][j]:
                constants[(li, 3, lj)] = {(0, "c"): Fraction(1, 2) * algebra.form[i][j]}
    return basis, constants


def novikov(algebra: BilinearAlgebra) -> FormulaSpec:
    """Weight-2 formula of a bilinear algebra with a symmetric form:

    u_0 v = D(u.v),  u_1 v = u.v + v.u,  u_3 v = (1/2)<u,v> c.
    """
    if not algebra.form_symmetric:
        raise ValueError("form is not symmetric")
    return FormulaSpec(*_weight_two(algebra), central="c", name="novikov")


def _sparse(product, d: int) -> tuple:
    """nonzero[i][j]: the (t, c) with c != 0 in e_i e_j; columns[k][t] = e_t e_k."""
    nonzero = [[[(t, c) for t, c in enumerate(vec) if c] for vec in row] for row in product]
    columns = [[product[t][k] for t in range(d)] for k in range(d)]
    return nonzero, columns


def _combination(terms: list, vectors: list, d: int) -> list:
    """sum of c * vectors[t] over the (t, c) in terms, as a length-d list."""
    out = [0] * d
    for t, c in terms:
        for k, x in enumerate(vectors[t]):
            if x:
                out[k] += c * x
    return out


def comm_assoc(algebra: BilinearAlgebra, identity: str) -> FormulaSpec:
    """Weight-2 formula of a commutative associative algebra with identity:

    u_0 v = D(u.v),  u_1 v = 2 u.v,  u_3 v = (1/2)<u,v> c,

    with the identity element serving as the conformal vector.  Requires
    commutativity, associativity, an associative symmetric form and
    <identity, identity> = 1.
    """
    if not algebra.form_symmetric:
        raise ValueError("invalid tables: form is not symmetric")
    d, p, f = algebra.dim, algebra.product, algebra.form
    iid = algebra.labels.index(identity)
    # e_i e_j is p[i][j]; each product below sums over its nonzero entries
    nonzero, columns = _sparse(p, d)
    for i in range(d):
        ei = algebra.unit(i)
        if p[iid][i] != ei or p[i][iid] != ei:
            raise ValueError(f"invalid tables: {identity!r} is not an identity")
        for j in range(d):
            if p[i][j] != p[j][i]:
                raise ValueError("invalid tables: product is not commutative")
            ij = nonzero[i][j]
            for k in range(d):
                jk = nonzero[j][k]
                # (e_i e_j) e_k against e_i (e_j e_k)
                if _combination(ij, columns[k], d) != _combination(jk, p[i], d):
                    raise ValueError("invalid tables: product is not associative")
                # <e_i e_j, e_k> against <e_i, e_j e_k>; the form is symmetric
                if sum(c * f[k][t] for t, c in ij) != sum(c * f[i][t] for t, c in jk):
                    raise ValueError("invalid tables: form is not associative")
    if f[iid][iid] != 1:
        raise ValueError("invalid tables: <identity, identity> must be 1")
    # the product commutes, so the weight-two table's u.v + v.u is 2 u.v
    return FormulaSpec(*_weight_two(algebra), conformal=(identity, "c"), name="comm-assoc")


# ---------------------------------------------------------------------------
# Novikov identity report
# ---------------------------------------------------------------------------

class NovikovReport(_Record, namedtuple("NovikovReport",
                                         "identity_failures defects_in_central_ideal")):
    """Identity check of a bilinear algebra, cross-validated defect-side."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.identity_failures

    @property
    def consistent(self) -> bool:
        """The identity check and the defect location must agree."""
        return self.ok == self.defects_in_central_ideal


def novikov_check(algebra: BilinearAlgebra) -> NovikovReport:
    """Check the three identity families that make the weight-2 formula work.

    (1) u.(v.w) = v.(u.w)
    (2) (v.w).u + v.(u.w) = v.(w.u) + (v.u).w
    (3) <u.v, w> = <v.u, w> = <v, u.w> = <v, w.u>

    Independently builds the weight-2 formula and reports whether its
    defect sweep lands inside the positive D-span of the central vector;
    the two answers agree exactly (desk-scale cross-validation).
    """
    if not algebra.form_symmetric:
        raise ValueError("form is not symmetric")
    labels, d, p, f = algebra.labels, algebra.dim, algebra.product, algebra.form
    # u, v, w = e_i, e_j, e_k; each product below sums over its nonzero entries
    nonzero, columns = _sparse(p, d)
    failures = []
    for i in range(d):
        for j in range(d):
            uv, vu = nonzero[i][j], nonzero[j][i]
            for k in range(d):
                uw, vw, wu = nonzero[i][k], nonzero[j][k], nonzero[k][i]
                name = f"({labels[i]},{labels[j]},{labels[k]})"
                v_uw = _combination(uw, p[j], d)
                if _combination(vw, p[i], d) != v_uw:
                    failures.append(f"left-commutativity fails on {name}")
                lhs = zip(_combination(vw, columns[i], d), v_uw)
                rhs = zip(_combination(wu, p[j], d), _combination(vu, columns[k], d))
                if [a + b for a, b in lhs] != [a + b for a, b in rhs]:
                    failures.append(f"right-symmetry fails on {name}")
                vals = {sum(c * f[t][k] for t, c in uv), sum(c * f[t][k] for t, c in vu),
                        sum(c * f[j][t] for t, c in uw), sum(c * f[j][t] for t, c in wu)}
                if len(vals) > 1:
                    failures.append(f"form compatibility fails on {name}")

    spec = novikov(algebra)
    cid = spec.central
    in_ideal = all(defects.membership_central(spec, dft.value, cid)
                   for dft in defects.defect_sweep(spec))
    return NovikovReport(tuple(failures), in_ideal)


# ---------------------------------------------------------------------------
# Named instances
# ---------------------------------------------------------------------------

def sl2() -> LieData:
    """Standard e, h, f with the form normalized by <h,h> = 2."""
    e, h, f = range(3)
    bracket = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]

    def put(i, j, vec):
        bracket[i][j] = list(vec)
        bracket[j][i] = [-x for x in vec]

    put(e, f, (0, 1, 0))      # [e,f] = h
    put(h, e, (2, 0, 0))      # [h,e] = 2e
    put(h, f, (0, 0, -2))     # [h,f] = -2f
    form = [[0, 0, 1], [0, 2, 0], [1, 0, 0]]
    return LieData(("e", "h", "f"), bracket, form)


def heisenberg() -> LieData:
    """One abelian generator with <x,x> = 1."""
    return LieData(("x",), [[[0]]], [[1]])


def abelian() -> LieData:
    """One abelian generator with zero form (loop-algebra input)."""
    return LieData(("x",), [[[0]]], [[0]])


def lambda_algebra(weights: Sequence = (1, 0), labels: Optional[Sequence[str]] = None,
                   flipped: bool = False) -> BilinearAlgebra:
    """u.v = lambda(u) v (or lambda(v) u when flipped), <u,v> = lambda(u)lambda(v)."""
    lam = [rat(x) for x in weights]
    d = len(lam)
    if labels is None:
        labels = ("omega",) + tuple(f"u{i}" for i in range(1, d))
    if len(labels) != d:
        raise ValueError(f"each weight needs one label: {d} weights, {len(labels)} labels")
    product = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if flipped:
                product[i][j][i] = lam[j]
            else:
                product[i][j][j] = lam[i]
    form = [[lam[i] * lam[j] for j in range(d)] for i in range(d)]
    return BilinearAlgebra(tuple(labels), product, form)


def dual_numbers() -> BilinearAlgebra:
    """Q[x]/(x^2) with identity omega and the form dual to the socle."""
    # omega.omega = omega, omega.x = x, x.x = 0; <omega,omega> = 1,
    # <omega,x> = <x,x> = 0 (the only associative symmetric choice with
    # <x,x> = 0 forced by x.x = 0).
    product = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    form = [[1, 0], [0, 0]]
    return BilinearAlgebra(("omega", "x"), product, form)


PRESETS: Dict[str, Callable[[], FormulaSpec]] = {
    "virasoro": virasoro,
    "neveu-schwarz": neveu_schwarz,
    "affine-sl2": lambda: affine(sl2()),
    "heisenberg": lambda: affine(heisenberg()),
    "loop-abelian": lambda: affine(abelian()),
    "novikov-lambda": lambda: novikov(lambda_algebra()),
    "novikov-flipped": lambda: novikov(lambda_algebra(flipped=True)),
    "comm-assoc-dual": lambda: comm_assoc(dual_numbers(), identity="omega"),
}


def preset(name: str) -> FormulaSpec:
    try:
        builder = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r} (known: {known})") from None
    return builder()
