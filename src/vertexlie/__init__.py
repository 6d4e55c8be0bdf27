"""Exact rational computer algebra for singular operator-product formulas.

The package verifies whether a finite table of structure constants
generates a consistent algebra of mutually local fields, constructs the
associated Lie (super)algebra of integer modes, and builds its vacuum
module with graded dimensions and truncated field coefficients.  All
arithmetic is exact over the rationals.

Each public name below lives in one submodule, which is imported the
first time the name (or the submodule) is read from the package.
"""

import importlib

_PUBLIC = {
    "defects": (
        "ConformalReport", "Defect", "Verdict", "central_check", "central_reduction",
        "commutator_defect", "conformal_validate", "default_bound", "defect_sweep",
        "injectivity_verdict", "jacobi_component_defect", "membership_central",
        "skew_defect",
    ),
    "formula": (
        "EVEN", "ODD", "BasisVector", "BoundInsufficientError", "CutoffExceededError",
        "Element", "FormulaError", "FormulaSpec", "UngradedError", "Violation", "basis_element",
        "extend_product", "format_element", "gen_binomial", "rat", "validate_spec",
    ),
    "local_algebra": (
        "LawViolation", "LieElement", "LieGenerator", "bracket", "generator",
        "jacobi_window_verify", "lie_D", "reduce_generator", "single",
    ),
    "presets": (
        "PRESETS", "BilinearAlgebra", "LieData", "NovikovReport", "abelian", "affine",
        "comm_assoc", "dual_numbers", "heisenberg", "lambda_algebra", "neveu_schwarz",
        "novikov", "novikov_check", "preset", "sl2", "virasoro",
    ),
    "verma": (
        "NotInjectiveError", "PbwMonomial", "PbwVector", "SpotcheckReport", "act",
        "act_lie", "act_word", "apply_D_module", "axiom_spotcheck", "field_coefficient",
        "graded_dimension", "kappa", "kappa_basis", "monomial_basis", "specialize_level",
        "vacuum",
    ),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _PUBLIC:  # a submodule that holds public names
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
