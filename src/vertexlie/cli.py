"""Command-line front end.

Subcommands: check, defect, bracket, verma, export-preset.  Exit codes
compose in pipelines: 0 success (check: injective verdict), 1 failed
verdict or refused computation, 2 bad input.  With --json the output is
a single object with the stable keys {spec, verdict, defects, dims,
result}; every rational is rendered as a "num/den" (or integer) string.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import List, Optional

from . import defects as defects_mod
from . import verma as verma_mod
from .defects import conformal_validate, defect_sweep, injectivity_verdict
from .formula import FormulaError, FormulaSpec, format_element, rat, validate_spec
from .formula_io import FormulaFileError, export_formula, load_formula
from .local_algebra import LieGenerator, bracket, jacobi_window_verify, single
from .presets import PRESETS, preset
from .verma import NotInjectiveError, act_word, graded_dimension, specialize_level

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
        try:
            return preset(args.preset)
        except KeyError as exc:
            raise CliError(str(exc)) from None
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


def _element_json(spec: FormulaSpec, elt) -> list:
    return [{"d_power": k, "target": spec.vectors[bid].label, "coeff": str(c)}
            for (k, bid), c in elt.items()]


def _defect_json(spec: FormulaSpec, dft) -> dict:
    return {"kind": dft.kind, "indices": list(dft.indices),
            "value": _element_json(spec, dft.value)}


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.json:
        base = {"spec": None, "verdict": None, "defects": None,
                "dims": None, "result": None}
        base.update(payload)
        json.dump(base, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _parse_generator(spec: FormulaSpec, token: str) -> LieGenerator:
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
        raise CliError(str(exc)) from None


def _parse_word(spec: FormulaSpec, word: str) -> list:
    word = word.strip()
    if word in ("", "1"):
        return []
    return [_parse_generator(spec, tok) for tok in word.split()]


def cmd_check(args) -> int:
    _require_nonnegative("--bound", args.bound)
    _require_nonnegative("--window", args.window)
    spec = _load_spec(args)
    violations = validate_spec(spec)
    sweep = defect_sweep(spec, args.bound)
    verdict = injectivity_verdict(spec)
    lines = [f"formula: {spec.name or '(unnamed)'}  basis={spec.dim} "
             f"n_max={spec.n_max} k_max={spec.k_max}"]
    if violations:
        lines.append(f"invariant violations: {len(violations)}")
        lines += [f"  {v}" for v in violations]
    else:
        lines.append("invariant violations: none")
    lines.append(f"defects: {len(sweep)} nonzero "
                 f"(bound {args.bound if args.bound is not None else defects_mod.default_bound(spec)})")
    shown = sweep if args.all else sweep[:10]
    for d in shown:
        lines.append(f"  {d.kind} {d.indices}: {format_element(spec, d.value)}")
    if len(sweep) > len(shown):
        lines.append(f"  ... {len(sweep) - len(shown)} more (use --all)")
    lines.append(f"verdict: {verdict.status}")
    lines.append(f"  {verdict.notes}")
    conformal = None
    if spec.conformal is not None:
        report = conformal_validate(spec)
        conformal = {"ok": report.ok, "failures": list(report.failures)}
        lines.append(f"conformal data: {'pass' if report.ok else 'FAIL'}")
        lines += [f"  {f}" for f in report.failures]
    window = None
    if args.window is not None:
        bad = jacobi_window_verify(spec, args.window)
        window = {"window": args.window, "violations": [str(b) for b in bad]}
        lines.append(f"mode-algebra laws on window {args.window}: "
                     f"{'pass' if not bad else f'{len(bad)} violations'}")
    payload = {
        "spec": _spec_json(spec),
        "verdict": {"status": verdict.status, "notes": verdict.notes,
                    "injective": verdict.injective},
        "defects": [_defect_json(spec, d) for d in sweep],
        "result": {"violations": [str(v) for v in violations],
                   "conformal": conformal, "window": window},
    }
    _emit(args, payload, lines)
    ok = verdict.injective and not violations
    return EXIT_OK if ok else EXIT_FAIL


def cmd_defect(args) -> int:
    _require_nonnegative("--bound", args.bound)
    spec = _load_spec(args)
    sweep = defect_sweep(spec, args.bound)
    shown = sweep if args.all else sweep[:10]
    lines = [f"{d.kind} {d.indices}: {format_element(spec, d.value)}" for d in shown]
    if len(sweep) > len(shown):
        lines.append(f"... {len(sweep) - len(shown)} more (use --all)")
    if not sweep:
        lines = ["no nonzero defects"]
    payload = {"spec": _spec_json(spec),
               "defects": [_defect_json(spec, d) for d in sweep]}
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_bracket(args) -> int:
    spec = _load_spec(args)
    try:
        x = single(spec, args.u, args.n)
        y = single(spec, args.v, args.p)
    except KeyError as exc:
        raise CliError(str(exc)) from None
    value = bracket(spec, x, y)
    payload = {
        "spec": _spec_json(spec),
        "result": [{"generator": f"{spec.vectors[g.bid].label}_{g.n}",
                    "coeff": str(c)} for g, c in value.items()],
    }
    _emit(args, payload, [value.display(spec)])
    return EXIT_OK


def cmd_verma(args) -> int:
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
            payload = {"spec": _spec_json(spec),
                       "dims": {str(w): d for w, d in dims.items()}}
            lines = [f"{w}\t{d}" for w, d in dims.items()]
            _emit(args, payload, lines)
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
            out = verma_mod.field_coefficient(spec, a, n, b, cutoff)
        if level is not None:
            out = specialize_level(spec, out, level)
    except NotInjectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: run `vertexlie check` on this input first", file=sys.stderr)
        return EXIT_FAIL
    payload = {"spec": _spec_json(spec),
               "result": [{"monomial": m.display(spec), "coeff": str(c)}
                          for m, c in out.items()]}
    _emit(args, payload, [out.display(spec)])
    return EXIT_OK


def cmd_export_preset(args) -> int:
    try:
        spec = preset(args.name)
    except KeyError as exc:
        raise CliError(str(exc)) from None
    text = export_formula(spec)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.write(text)
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
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FormulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
