"""Read and write formulas as sectioned plain-text files.

The format is line oriented; '#' starts a comment, blank lines are
ignored.  Sections:

    [meta]                  optional key = value pairs (name, ...)
    [basis]                 one line per vector: LABEL PARITY [WEIGHT]
    [central]               one line naming the central vector
    [conformal]             'omega = LABEL' and 'c = LABEL' (weighted basis only)
    [constants]             one line per product:
                            U N V : K TARGET COEFF [, K TARGET COEFF]...

Parities are 'even'/'odd'; every number is an integer or 'p/q' — no
floating point anywhere.  Export is canonical: fixed section order,
basis order, products sorted by (u, n, v), terms by (k, target), so
export(parse(export(spec))) is byte-identical to export(spec); a label or name
that would not read back is refused before anything is written.
"""

from __future__ import annotations

import codecs
import re
import sys
from fractions import Fraction
from typing import List, Optional, Union

from .formula import EVEN, ODD, FormulaError, FormulaSpec, _BasisEntryError, _accumulate, _rat

_PARITY_NAMES = {"even": EVEN, "odd": ODD}
_INDEX = re.compile(r"[+-]?[0-9]+")  # int() would also read "1_0" and non-ASCII digits
_SECTIONS = ("meta", "basis", "central", "conformal", "constants")


class FormulaFileError(FormulaError):
    """Parse failure with the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _rat_or_fail(token: str, line: int) -> Union[int, Fraction]:
    """The number token in stored form (see SparseVector), or the line's parse error."""
    try:
        return _rat(token)
    except ValueError as exc:
        raise FormulaFileError(line, str(exc)) from None


def _index_or_fail(token: str, what: str, line: int) -> int:
    """The index token (ASCII digits, optional sign) as an int in 0..sys.maxsize, or an error."""
    if not _INDEX.fullmatch(token):
        raise FormulaFileError(line, f"bad {what} {token!r}")
    value = int(token)
    if not 0 <= value <= sys.maxsize:
        bound = "nonnegative" if value < 0 else "at most sys.maxsize"
        raise FormulaFileError(line, f"{what} must be {bound}")
    return value


def parse_formula(text: str) -> FormulaSpec:
    """Parse the sectioned text format into a FormulaSpec."""
    basis: List[tuple] = []
    basis_lines: List[int] = []
    constants: dict = {}
    meta: dict = {}
    central: Optional[str] = None
    central_line = 0  # line naming the central vector
    conformal_parts: dict = {}
    conformal_line = 0  # line of the [conformal] header
    section: Optional[str] = None
    references: dict = {}  # every basis name used -> the first line using it

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise FormulaFileError(lineno, f"unknown section {section!r}")
            if section == "conformal":
                conformal_line = lineno
            continue
        if section is None:
            raise FormulaFileError(lineno, "content before any [section] header")
        if section == "meta":
            if "=" not in line:
                raise FormulaFileError(lineno, "meta lines look like 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in meta:
                raise FormulaFileError(lineno, f"meta key {key!r} given twice")
            meta[key] = value
        elif section == "basis":
            parts = line.split()
            if len(parts) not in (2, 3):
                raise FormulaFileError(lineno, "basis lines look like 'LABEL PARITY [WEIGHT]'")
            label, parity_name = parts[0], parts[1].lower()
            if parity_name not in _PARITY_NAMES:
                raise FormulaFileError(lineno, f"parity must be even or odd, got {parts[1]!r}")
            weight = _rat_or_fail(parts[2], lineno) if len(parts) == 3 else None
            basis.append((label, _PARITY_NAMES[parity_name], weight))
            basis_lines.append(lineno)
        elif section == "central":
            if central is not None:
                raise FormulaFileError(lineno, "central vector named twice")
            if len(line.split()) != 1:
                raise FormulaFileError(lineno, "the central line names one basis vector")
            central, central_line = line, lineno
            references.setdefault(central, lineno)
        elif section == "conformal":
            if "=" not in line:
                raise FormulaFileError(lineno, "conformal lines look like 'omega = LABEL'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in ("omega", "c"):
                raise FormulaFileError(lineno, f"conformal keys are omega and c, got {key!r}")
            if key in conformal_parts:
                raise FormulaFileError(lineno, f"conformal key {key!r} given twice")
            conformal_parts[key] = value
            references.setdefault(value, lineno)
        else:  # constants
            head, colon, tail = line.partition(":")
            if not colon:
                raise FormulaFileError(lineno, "product lines look like 'U N V : K TARGET COEFF, ...'")
            head_parts = head.split()
            if len(head_parts) != 3:
                raise FormulaFileError(lineno, "product head must be 'U N V'")
            u, n_token, v = head_parts
            references.setdefault(u, lineno)
            references.setdefault(v, lineno)
            n = _index_or_fail(n_token, "product index", lineno)
            terms: dict = {}
            for chunk in tail.split(","):
                parts = chunk.split()
                if len(parts) != 3:
                    raise FormulaFileError(lineno, "each term is 'K TARGET COEFF'")
                k_token, target, c_token = parts
                references.setdefault(target, lineno)
                _accumulate(terms, (_index_or_fail(k_token, "D-power", lineno), target),
                            _rat_or_fail(c_token, lineno))
            if (u, n, v) in constants:
                raise FormulaFileError(lineno, f"product ({u},{n},{v}) given twice")
            constants[(u, n, v)] = terms

    labels = {label for (label, _p, _w) in basis}
    for label, lineno in references.items():  # in order of first use
        if label not in labels:
            raise FormulaFileError(lineno, f"unknown basis name {label!r}")
    conformal = None
    if conformal_parts:
        if set(conformal_parts) != {"omega", "c"}:
            raise FormulaFileError(conformal_line, "conformal section needs both omega and c")
        conformal = (conformal_parts["omega"], conformal_parts["c"])
    try:
        spec = FormulaSpec(basis, constants, central=central, conformal=conformal,
                           name=meta.get("name"))
    except _BasisEntryError as exc:
        raise FormulaFileError(basis_lines[exc.index], str(exc)) from None
    except (KeyError, ValueError) as exc:
        # names and numbers were all checked above: what is left is a
        # [central] vector that differs from the conformal c
        raise FormulaFileError(central_line, str(exc)) from None
    if conformal is not None and not spec.graded:  # conformal_validate would refuse it
        raise FormulaFileError(conformal_line, "a conformal pair needs basis weights")
    return spec


def load_formula(path) -> FormulaSpec:
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(codecs.BOM_UTF8)  # a UTF-8 byte-order mark is no text
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; count lines as parse_formula does
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise FormulaFileError(line, f"not UTF-8 text (byte 0x{data[exc.start]:02x})") from None
    return parse_formula(text)


def _check_exportable(spec: FormulaSpec) -> None:
    """Refuse the first label that is not one word free of '#', ':' and ',' (a central
    one: nor '[...]'), or a name that is not one line free of '#' and edge spaces."""
    for i, label in enumerate(spec.labels):
        if label.split() != [label] or any(ch in label for ch in "#:,") or (
                i == spec.central and label.startswith("[") and label.endswith("]")):
            raise FormulaError(f"basis label {label!r} cannot be written to a formula file")
    if spec.name and ("#" in spec.name or spec.name.splitlines() != [spec.name.strip()]):
        raise FormulaError(f"name {spec.name!r} cannot be written to a formula file")


def export_formula(spec: FormulaSpec) -> str:
    """Canonical text rendering (deterministic, re-parses identically)."""
    _check_exportable(spec)
    lines: List[str] = []
    if spec.name:
        lines += ["[meta]", f"name = {spec.name}", ""]
    lines.append("[basis]")
    for vec in spec.vectors:
        parity = "odd" if vec.parity == ODD else "even"
        if vec.weight is None:
            lines.append(f"{vec.label} {parity}")
        else:
            lines.append(f"{vec.label} {parity} {vec.weight}")
    lines.append("")
    if spec.central is not None:
        lines += ["[central]", spec.vectors[spec.central].label, ""]
    if spec.conformal is not None:
        oid, cid = spec.conformal
        lines += ["[conformal]",
                  f"omega = {spec.vectors[oid].label}",
                  f"c = {spec.vectors[cid].label}", ""]
    lines.append("[constants]")
    labels = spec.labels
    for (uid, n, vid), elt in spec.constant_entries():
        terms = ", ".join(f"{k} {labels[tid]} {coeff}"
                          for (k, tid), coeff in elt.items())
        lines.append(f"{labels[uid]} {n} {labels[vid]} : {terms}")
    lines.append("")
    return "\n".join(lines)


def save_formula(spec: FormulaSpec, path) -> None:
    text = export_formula(spec)  # a refused spec leaves the file untouched
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
