"""Command-line front end.

Subcommands: check, defect, bracket, verma, export-preset.  Exit codes
compose in pipelines: 0 success (check: injective verdict), 1 failed
verdict, refused computation or closed stdout, 2 bad input.  With --json
the output is a single object with the stable keys {spec, verdict,
defects, dims, result}; every rational is rendered as a "num/den" (or
integer) string.  The package writes the JSON itself, each defect row from
one template, as json.dumps(payload, indent=2, sort_keys=True) would, byte for byte.
Either form is built whole from values already computed, then written at
once; so a ValueError while building it is the interpreter's limit on the
digits of an int written as text, and refuses the command (exit 1) with
nothing written.

Each subcommand imports only the modules it needs: the mode algebra
(local_algebra) is loaded by bracket, verma and check --window, and the
vacuum module (verma) by verma alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterable, Iterator, List, Optional

from . import defects as defects_mod
from .defects import conformal_validate, defect_sweep, injectivity_verdict
from .formula import FormulaError, FormulaSpec, format_element, rat, validate_spec
from .formula_io import FormulaFileError, export_formula, load_formula, save_formula
from .presets import PRESETS, preset

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def _load_spec(args) -> FormulaSpec:
    if args.preset and args.path:
        raise CliError("give either --preset or a file path, not both")
    if args.preset:
        return preset(args.preset)
    if not args.path:
        raise CliError("no input: give --preset NAME or a formula file path")
    try:
        return load_formula(args.path)
    except OSError as exc:
        raise CliError(f"cannot read {args.path}: {exc}") from None
    except FormulaFileError as exc:
        raise CliError(f"{args.path}: {exc}") from None


def _require_nonnegative(flag: str, value) -> None:
    if value is not None and value < 0:
        raise CliError(f"{flag} must be nonnegative, got {value}")


def _spec_json(spec: FormulaSpec) -> dict:
    return {
        "name": spec.name,
        "basis": [{"name": v.label,
                   "parity": "odd" if v.parity else "even",
                   "weight": None if v.weight is None else str(v.weight)}
                  for v in spec.vectors],
        "n_max": spec.n_max,
        "k_max": spec.k_max,
        "central": None if spec.central is None else spec.vectors[spec.central].label,
        "conformal": None if spec.conformal is None else
                     [spec.vectors[i].label for i in spec.conformal],
    }


class _Rendered(str):
    """JSON text already written for its place in the payload; _json copies it as is."""


class _Escaped(dict):  # label -> its JSON string; an index, never a key, -> its digits
    __missing__ = staticmethod(int.__repr__)


def _defect_rows(spec: FormulaSpec, sweep: list) -> _Rendered:
    """The payload's "defects", as json.dumps(indent=2, sort_keys=True) writes them:
    one template a defect and one a term of its value (sorted by (d_power, basis
    index), coefficients in stored form), each label escaped once."""
    row = ('{\n      "indices": [\n        %s\n      ],\n      "kind": "%s",'
           '\n      "value": [\n        %s\n      ]\n    }')  # a defect's value is nonzero
    term = '{\n          "coeff": "%s",\n          "d_power": %d,\n          "target": %s\n        }'
    labels = spec.labels
    targets = [_json_str(label) for label in labels]
    escaped = _Escaped(zip(labels, targets)).__getitem__
    rows = [row % (",\n        ".join(map(escaped, d.indices)), d.kind,  # kinds need no escape
                   ",\n        ".join([term % (c, k, targets[bid])
                                       for (k, bid), c in sorted(d.value._terms.items())]))
            for d in sweep]
    return _Rendered("[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]")


_LEAVES = {str: _json_str, _Rendered: lambda text: text, int: int.__repr__,
           bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def _json(value, indent: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it.

    indent is a newline and the indentation of the line value starts on.
    Only str, int, bool, None, list and str-keyed dict are written (exact
    types), and _Rendered text is copied; anything else raises TypeError.
    Leaves are written by their _LEAVES entry; only a list or dict recurses.
    """
    kind = type(value)
    if (leaf := _LEAVES.get(kind)) is not None:
        return leaf(value)
    inner = indent + "  "
    if kind is list:
        items = [leaf(item) if (leaf := _LEAVES.get(type(item))) else _json(item, inner)
                 for item in value]
    elif kind is dict and set(map(type, value)) <= {str}:
        items = [_json_str(key) + ": " + (leaf(item) if (leaf := _LEAVES.get(type(item)))
                                          else _json(item, inner))
                 for key in sorted(value) for item in [value[key]]]
    else:
        raise TypeError(f"cannot write {value!r} as JSON")
    opening, closing = "[]" if kind is list else "{}"
    if not items:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + indent + closing


def _emit(args, payload: Callable[[], dict], text_lines: Callable[[], Iterable[str]]) -> None:
    """Write payload() as one JSON object under --json, else the lines of text_lines().

    Only the chosen form is built, and all of it before anything is written.
    Building it only renders values already computed, so the one ValueError
    it can raise is the interpreter's limit on the digits of an int written
    as text (sys.set_int_max_str_digits, a guard against quadratic-time
    conversion); that refuses the command, and nothing is written.
    """
    try:
        if args.json:
            base = {"spec": None, "verdict": None, "defects": None,
                    "dims": None, "result": None}
            base.update(payload())
            out = _json(base) + "\n"
        else:
            out = "".join(line + "\n" for line in text_lines())
    except ValueError:
        raise CliError(f"a coefficient of the result has more than {sys.get_int_max_str_digits()} "
                       "digits, the limit for writing an integer as text "
                       "(the PYTHONINTMAXSTRDIGITS variable sets it)", EXIT_FAIL) from None
    sys.stdout.write(out)


def _parse_generator(spec: FormulaSpec, token: str):
    from .local_algebra import LieGenerator

    label, _, mode = token.rpartition("_")
    if not label:
        raise CliError(f"bad generator token {token!r} (expected LABEL_MODE)")
    try:
        n = int(mode)
    except ValueError:
        raise CliError(f"bad mode {mode!r} in {token!r}") from None
    try:
        return LieGenerator(spec.bid(label), n)
    except KeyError as exc:
        raise CliError(exc.args[0]) from None


def _parse_word(spec: FormulaSpec, word: str) -> list:
    word = word.strip()
    if word in ("", "1"):
        return []
    return [_parse_generator(spec, tok) for tok in word.split()]


def _defect_lines(spec: FormulaSpec, sweep: list, show_all: bool,
                  indent: str = "") -> Iterator[str]:
    """One line a defect, the first ten unless show_all, then a count of the rest."""
    shown = sweep if show_all else sweep[:10]
    for d in shown:
        yield f"{indent}{d.kind} {d.indices}: {format_element(spec, d.value)}"
    if len(sweep) > len(shown):
        yield f"{indent}... {len(sweep) - len(shown)} more (use --all)"


def cmd_check(args) -> int:
    _require_nonnegative("--bound", args.bound)
    _require_nonnegative("--window", args.window)
    spec = _load_spec(args)
    violations = validate_spec(spec)
    sweep = defect_sweep(spec, args.bound)
    verdict = injectivity_verdict(spec)
    report = conformal_validate(spec) if spec.conformal is not None else None
    bad = None
    if args.window is not None:
        from .local_algebra import jacobi_window_verify
        bad = jacobi_window_verify(spec, args.window)

    def text() -> Iterator[str]:
        yield (f"formula: {spec.name or '(unnamed)'}  basis={spec.dim} "
               f"n_max={spec.n_max} k_max={spec.k_max}")
        if violations:
            yield f"invariant violations: {len(violations)}"
            yield from (f"  {v}" for v in violations)
        else:
            yield "invariant violations: none"
        bound = args.bound if args.bound is not None else defects_mod.default_bound(spec)
        yield f"defects: {len(sweep)} nonzero (bound {bound})"
        yield from _defect_lines(spec, sweep, args.all, "  ")
        yield f"verdict: {verdict.status}"
        yield f"  {verdict.notes}"
        if report is not None:
            yield f"conformal data: {'pass' if report.ok else 'FAIL'}"
            yield from (f"  {f}" for f in report.failures)
        if bad is not None:
            if bad:
                outcome = f"{len(bad)} violations"
            elif all(defects_mod.central_check(spec, bid) for bid in range(spec.dim)):
                outcome = "vacuous (every basis vector is inert; no law evaluated)"
            else:
                outcome = "pass"
            yield f"mode-algebra laws on window {args.window}: {outcome}"

    def payload() -> dict:
        return {
            "spec": _spec_json(spec),
            "verdict": {"status": verdict.status, "notes": verdict.notes,
                        "injective": verdict.injective},
            "defects": _defect_rows(spec, sweep),
            "result": {"violations": [str(v) for v in violations],
                       "conformal": None if report is None else
                       {"ok": report.ok, "failures": list(report.failures)},
                       "window": None if bad is None else
                       {"window": args.window, "violations": [str(b) for b in bad]}},
        }

    _emit(args, payload, text)
    ok = verdict.injective and not violations
    return EXIT_OK if ok else EXIT_FAIL


def cmd_defect(args) -> int:
    _require_nonnegative("--bound", args.bound)
    spec = _load_spec(args)
    sweep = defect_sweep(spec, args.bound)

    def text() -> Iterator[str]:
        if not sweep:
            yield "no nonzero defects"
        yield from _defect_lines(spec, sweep, args.all)

    _emit(args, lambda: {"spec": _spec_json(spec), "defects": _defect_rows(spec, sweep)}, text)
    return EXIT_OK


def cmd_bracket(args) -> int:
    from .local_algebra import bracket, single

    spec = _load_spec(args)
    try:
        x = single(spec, args.u, args.n)
        y = single(spec, args.v, args.p)
    except KeyError as exc:
        raise CliError(exc.args[0]) from None
    value = bracket(spec, x, y)
    _emit(args, lambda: {"spec": _spec_json(spec),
                         "result": [{"generator": f"{spec.vectors[g.bid].label}_{g.n}",
                                     "coeff": str(c)} for g, c in value.items()]},
          lambda: [value.display(spec)])
    return EXIT_OK


def cmd_verma(args) -> int:
    from .verma import (NotInjectiveError, act_word, field_coefficient, graded_dimension,
                        specialize_level)

    spec = _load_spec(args)
    try:
        cutoff = rat(args.cutoff)
    except ValueError:
        raise CliError(f"bad cutoff {args.cutoff!r}") from None
    _require_nonnegative("--cutoff", cutoff)
    level = None
    if args.level is not None:
        try:
            level = rat(args.level)
        except ValueError:
            raise CliError(f"bad level {args.level!r}") from None

    try:
        if args.dims:
            dims = graded_dimension(spec, cutoff)
            _emit(args, lambda: {"spec": _spec_json(spec),
                                 "dims": {str(w): d for w, d in dims.items()}},
                  lambda: [f"{w}\t{d}" for w, d in dims.items()])
            return EXIT_OK
        if args.act is not None:
            out = act_word(spec, _parse_word(spec, args.act))
        else:  # --field; argparse requires one of --dims, --act, --field
            a_word, n_token, b_word = args.field
            try:
                n = int(n_token)
            except ValueError:
                raise CliError(f"bad mode {n_token!r}") from None
            a = act_word(spec, _parse_word(spec, a_word))
            b = act_word(spec, _parse_word(spec, b_word))
            out = field_coefficient(spec, a, n, b, cutoff)
        if level is not None:
            out = specialize_level(spec, out, level)
    except NotInjectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: run `vertexlie check` on this input first", file=sys.stderr)
        return EXIT_FAIL
    _emit(args, lambda: {"spec": _spec_json(spec),
                         "result": [{"monomial": m.display(spec), "coeff": str(c)}
                                    for m, c in out.items()]},
          lambda: [out.display(spec)])
    return EXIT_OK


def cmd_export_preset(args) -> int:
    spec = preset(args.name)
    if args.output:
        try:
            save_formula(spec, args.output)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.write(export_formula(spec))
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("path", nargs="?", help="formula file")
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="use a built-in formula instead of a file")
    sub.add_argument("--json", action="store_true",
                     help="machine-readable output")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="vertexlie",
        description="Exact verification of singular operator-product formulas "
                    "and the algebras they generate.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="validate, sweep defects, print the verdict")
    _add_common(p)
    p.add_argument("--bound", type=int, help="defect sweep bound (default derived)")
    p.add_argument("--window", type=int,
                   help="also verify the mode-algebra laws on this window")
    p.add_argument("--all", action="store_true", help="print every defect")
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("defect", help="print the nonzero defects")
    _add_common(p)
    p.add_argument("--bound", type=int)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_defect)

    p = subs.add_parser("bracket", help="bracket of two modes, e.g. omega 3 omega -1")
    _add_common(p)
    p.add_argument("u"), p.add_argument("n", type=int)
    p.add_argument("v"), p.add_argument("p", type=int)
    p.set_defaults(func=cmd_bracket)

    p = subs.add_parser("verma", help="vacuum-module computations")
    _add_common(p)
    p.add_argument("--cutoff", required=True, help="weight cutoff (rational)")
    p.add_argument("--level", help="specialize the central mode to this rational")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dims", action="store_true", help="graded dimensions")
    group.add_argument("--act", metavar="WORD",
                       help="apply modes (rightmost first) to the vacuum, "
                            "e.g. 'omega_3 omega_-1'")
    group.add_argument("--field", nargs=3, metavar=("A", "N", "B"),
                       help="field coefficient A_N B; A and B are mode words "
                            "applied to the vacuum ('1' = vacuum)")
    p.set_defaults(func=cmd_verma)

    p = subs.add_parser("export-preset", help="write a preset as a formula file")
    p.add_argument("name", choices=sorted(PRESETS))
    p.add_argument("--output", "-o", help="output file (default stdout)")
    p.set_defaults(func=cmd_export_preset)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FormulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # the reader is gone: end quietly, with nothing left for the exit flush
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
