"""Closed-form expected outputs, computed without importing vertexlie.

Each function returns the canonical output (see workloads.py) that the
library must produce, derived from textbook formulas for the preset
algebras:

* Virasoro: [L_m, L_n] = (m-n) L_{m+n} + (m^3-m)/12 delta_{m+n,0} C with
  L_n = omega_{n+1} and C = c_{-1};
* affinizations (sl2, Heisenberg, the abelian loop algebra):
  [x_m, y_n] = [x,y]_{m+n} + m delta_{m+n,0} <x,y> c_{-1};
* graded dimensions of the vacuum module: the PBW partition generating
  function prod_fields prod_{k>=0} (1 -/+ q^{w+k})^{-/+1};
* the verdict statuses of the presets, and the empty window and
  spot-check failure lists of the clean presets.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import floor

VERDICTS = {
    "virasoro": "injective_central_ideal",
    "neveu-schwarz": "injective_central_ideal",
    "affine-sl2": "injective_zero_ideal",
    "heisenberg": "injective_zero_ideal",
    "loop-abelian": "injective_zero_ideal",
    "novikov-lambda": "injective_central_ideal",
    "novikov-flipped": "undetermined",
    "comm-assoc-dual": "injective_central_ideal",
    "gl3": "injective_zero_ideal",
}

# Lie algebra data of the affinized presets: [x, y] as {label: coeff}
# and the invariant form <x, y>.  Missing entries are zero.
_SL2_BRACKET = {("e", "f"): {"h": 1}, ("f", "e"): {"h": -1},
                ("h", "e"): {"e": 2}, ("e", "h"): {"e": -2},
                ("h", "f"): {"f": -2}, ("f", "h"): {"f": 2}}
_SL2_FORM = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}
AFFINE = {
    "affine-sl2": (_SL2_BRACKET, _SL2_FORM),
    "heisenberg": ({}, {("x", "x"): 1}),
    "loop-abelian": ({}, {}),
}

# Fields generating the vacuum module freely, as (weight, odd).  A
# central vector the quotient kills contributes nothing; the unreduced
# weight-0 central vector of loop-abelian contributes its modes c_{-2},
# c_{-3}, ... of weights 1, 2, ... (c_{-1} is the polynomial variable
# graded pieces are counted over).
PBW_FIELDS = {
    "virasoro": [(Fraction(2), False)],
    "neveu-schwarz": [(Fraction(2), False), (Fraction(3, 2), True)],
    "affine-sl2": [(Fraction(1), False)] * 3,
    "heisenberg": [(Fraction(1), False)],
    "loop-abelian": [(Fraction(1), False)] * 2,
    "novikov-lambda": [(Fraction(2), False)] * 2,
    "comm-assoc-dual": [(Fraction(2), False)] * 2,
}


def _lie(terms: dict) -> list:
    """Canonical LieElement output from {(label, n): coeff}."""
    return [[label, n, str(c)] for (label, n), c in sorted(terms.items()) if c]


def _add(acc: dict, key, coeff) -> None:
    acc[key] = acc.get(key, 0) + coeff


def _bilinear(pair_bracket, x: list, y: list) -> dict:
    out: dict = {}
    for lx, m, cx in x:
        for ly, n, cy in y:
            for key, c in pair_bracket(lx, m, ly, n).items():
                _add(out, key, Fraction(cx) * Fraction(cy) * c)
    return out


def _virasoro_pair(lx, a, ly, b) -> dict:
    if lx != "omega" or ly != "omega":
        return {}
    m, n = a - 1, b - 1  # omega_a = L_{a-1}
    out = {("omega", m + n + 1): Fraction(m - n)}
    if m + n == 0:
        out[("c", -1)] = Fraction(m ** 3 - m, 12)
    return out


def _affine_pair(preset: str):
    bracket, form = AFFINE[preset]

    def pair(lx, m, ly, n) -> dict:
        out = {(label, m + n): Fraction(c) for label, c in bracket.get((lx, ly), {}).items()}
        if m + n == 0 and form.get((lx, ly)):
            out[("c", -1)] = Fraction(m * form[(lx, ly)])
        return out
    return pair


def bracket(preset: str, x: list, y: list):
    """Expected canonical [x, y], or None when no closed form is coded.

    x and y are lists of [label, mode, "p/q"] terms.
    """
    if preset == "virasoro":
        return _lie(_bilinear(_virasoro_pair, x, y))
    if preset in AFFINE:
        return _lie(_bilinear(_affine_pair(preset), x, y))
    return None


def graded_dimension(preset: str, cutoff) -> list:
    """Expected canonical graded_dimension(preset, cutoff)."""
    bound = Fraction(cutoff)
    series = {Fraction(0): 1}
    for weight, odd in PBW_FIELDS[preset]:
        w = weight
        while w <= bound:
            # times (1 + q^w) for an odd mode, 1 + q^w + q^2w + ... for an even one
            new: dict = {}
            for e, c in series.items():
                top = min(bound, e + w) if odd else bound
                power = e
                while power <= top:
                    _add(new, power, c)
                    power += w
            series = new
            w += 1
    for k in range(floor(bound) + 1):
        series.setdefault(Fraction(k), 0)
    return [[str(w), d] for w, d in sorted(series.items())]


def check_verdict(preset: str, canonical: dict) -> bool:
    """The clean preset's `check --json` reports its known verdict."""
    if canonical.get("stdout") is None:
        return False
    payload = json.loads(canonical["stdout"])
    want = VERDICTS[preset]
    return payload["verdict"]["status"] == want and \
        canonical["rc"] == (0 if want.startswith(("injective", "pure")) else 1)
