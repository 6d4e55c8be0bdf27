"""Exact rational computer algebra for singular operator-product formulas.

The package verifies whether a finite table of structure constants
generates a consistent algebra of mutually local fields, constructs the
associated Lie (super)algebra of integer modes, and builds its vacuum
module with graded dimensions and truncated field coefficients.  All
arithmetic is exact over the rationals.
"""

from .defects import (
    ConformalReport,
    Defect,
    Verdict,
    central_check,
    central_reduction,
    commutator_defect,
    conformal_validate,
    default_bound,
    defect_sweep,
    injectivity_verdict,
    jacobi_component_defect,
    membership_central,
    skew_defect,
)
from .formula import (
    EVEN,
    ODD,
    BasisVector,
    BoundInsufficientError,
    CutoffExceededError,
    Element,
    FormulaError,
    FormulaSpec,
    InhomogeneousError,
    UngradedError,
    Violation,
    apply_D,
    basis_element,
    extend_product,
    format_element,
    gen_binomial,
    parity_of,
    rat,
    support_bound,
    validate_spec,
    weight_of,
)
from .local_algebra import (
    LawViolation,
    LieElement,
    LieGenerator,
    bracket,
    generator,
    jacobi_window_verify,
    lie_D,
    reduce_generator,
    single,
)
from .presets import (
    PRESETS,
    BilinearAlgebra,
    LieData,
    NovikovReport,
    abelian,
    affine,
    comm_assoc,
    dual_numbers,
    heisenberg,
    lambda_algebra,
    neveu_schwarz,
    novikov,
    novikov_check,
    preset,
    sl2,
    virasoro,
)
from .verma import (
    NotInjectiveError,
    PbwMonomial,
    PbwVector,
    SpotcheckReport,
    act,
    act_lie,
    act_word,
    apply_D_module,
    axiom_spotcheck,
    field_coefficient,
    graded_dimension,
    kappa,
    kappa_basis,
    monomial_basis,
    specialize_level,
    vacuum,
)

__version__ = "0.1.0"
