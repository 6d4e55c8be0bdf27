"""Command-line front end.

Subcommands: check, defect, bracket, verma, export-preset.  Exit codes
compose in pipelines: 0 success (check: injective verdict), 1 failed
verdict, refused computation or closed stdout, 2 bad input.  With --json
the output is a single object with the stable keys {spec, verdict,
defects, dims, result}; every rational is rendered as a "num/den" (or
integer) string.  It reads as json.dumps(document, indent=2,
sort_keys=True) would, byte for byte, from two writers: fixed templates
write the document and the sections check and defect give (the spec,
check's verdict and result, each defect row), each label and string
escaped once, and json.dumps writes the rest (bracket's and verma's
results, dims).  Either form is built whole from values already computed,
then written at once; so a ValueError while building it is the
interpreter's limit on the digits of an int written as text, and refuses
the command (exit 1) with nothing written.

Parsing is table-driven: _parse reads argv in one walk against _COMMANDS
and _ARGS.  Each subcommand imports only the modules it needs: the mode
algebra (local_algebra) is loaded by bracket, verma and check --window, and
the vacuum module (verma) by verma alone.
"""

from __future__ import annotations

import json
import os
import re
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from . import defects as defects_mod
from .defects import conformal_validate, defect_sweep, injectivity_verdict
from .formula import FormulaError, FormulaSpec, format_element, rat, validate_spec
from .formula_io import _INDEX, FormulaFileError, export_formula, load_formula, save_formula
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


class _Escaped(dict):  # label -> its JSON string; an index, never a key, -> its digits
    __missing__ = staticmethod(int.__repr__)


def _strings(items: Sequence[str], indent: str) -> str:
    """A list of strings as json.dumps(indent=2) writes it on a line indented by indent."""
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(map(_json_str, items)) + "\n" + indent + "]" \
        if items else "[]"


def _spec_json(spec: FormulaSpec) -> str:
    """The document's "spec", as json.dumps(indent=2, sort_keys=True) writes it, filled
    from fixed templates, each label escaped once."""
    vector = '{\n        "name": %s,\n        "parity": "%s",\n        "weight": %s\n      }'
    labels = [_json_str(label) for label in spec.labels]
    basis = ",\n      ".join([vector % (labels[v.index], "odd" if v.parity else "even",
                                          "null" if v.weight is None else f'"{v.weight}"')
                               for v in spec.vectors])
    return (
        '{\n    "basis": %s,\n    "central": %s,\n    "conformal": %s,\n    "k_max": %d,'
        '\n    "n_max": %d,\n    "name": %s\n  }' % (
            "[\n      " + basis + "\n    ]" if basis else "[]",
            "null" if spec.central is None else labels[spec.central],
            "null" if spec.conformal is None else
            "[\n      %s,\n      %s\n    ]" % tuple(labels[i] for i in spec.conformal),
            spec.k_max, spec.n_max, "null" if spec.name is None else _json_str(spec.name)))


def _defect_rows(spec: FormulaSpec, sweep: list) -> str:
    """The document's "defects", as json.dumps(indent=2, sort_keys=True) writes them:
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
    return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"


def _dumps(value) -> str:
    """value as json.dumps(indent=2, sort_keys=True) writes it, for its place in the
    document: json.dumps escapes every newline and control character inside a string,
    so each newline it writes is a line break and takes the section's indent."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


# the --json document, its keys in sorted order; a section a command does not give is null
_DOCUMENT = ('{\n  "defects": %(defects)s,\n  "dims": %(dims)s,\n  "result": %(result)s,'
             '\n  "spec": %(spec)s,\n  "verdict": %(verdict)s\n}\n')
_NO_SECTIONS = dict.fromkeys(["defects", "dims", "result", "spec", "verdict"], "null")


def _emit(args, sections: Callable[[], dict], text_lines: Callable[[], Iterable[str]]) -> None:
    """Write _DOCUMENT filled with sections(), the JSON text of each section a command
    gives, under --json, else the lines of text_lines().

    Only the chosen form is built, and all of it before anything is written.
    Building it only renders values already computed, so the one ValueError
    it can raise is the interpreter's limit on the digits of an int written
    as text (sys.set_int_max_str_digits, a guard against quadratic-time
    conversion); that refuses the command, and nothing is written.
    """
    try:
        if args.json:
            out = _DOCUMENT % {**_NO_SECTIONS, **sections()}
        else:
            out = "".join(line + "\n" for line in text_lines())
    except ValueError:
        raise CliError(f"a coefficient of the result has more than {sys.get_int_max_str_digits()} "
                       "digits, the limit for writing an integer as text "
                       "(the PYTHONINTMAXSTRDIGITS variable sets it)", EXIT_FAIL) from None
    sys.stdout.write(out)


def _mode(token: str, where: str = "") -> int:
    """A mode token by the formula reader's index rule: ASCII digits, optional sign."""
    if not _INDEX.fullmatch(token):
        raise CliError(f"bad mode {token!r}{where}")
    return int(token)


def _parse_generator(spec: FormulaSpec, token: str):
    from .local_algebra import LieGenerator

    label, _, mode = token.rpartition("_")
    if not label:
        raise CliError(f"bad generator token {token!r} (expected LABEL_MODE)")
    n = _mode(mode, f" in {token!r}")
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

    def sections() -> dict:
        # the verdict and result as json.dumps(indent=2, sort_keys=True) writes them; a
        # status needs no escape
        flag = ("false", "true")
        conformal = "null" if report is None else (
            '{\n      "failures": %s,\n      "ok": %s\n    }'
            % (_strings(report.failures, "      "), flag[report.ok]))
        window = "null" if bad is None else (
            '{\n      "violations": %s,\n      "window": %d\n    }'
            % (_strings([str(b) for b in bad], "      "), args.window))
        return {
            "spec": _spec_json(spec),
            "verdict": '{\n    "injective": %s,\n    "notes": %s,\n    "status": "%s"\n  }'
                       % (flag[verdict.injective], _json_str(verdict.notes), verdict.status),
            "defects": _defect_rows(spec, sweep),
            "result": '{\n    "conformal": %s,\n    "violations": %s,\n    "window": %s\n  }'
                      % (conformal, _strings([str(v) for v in violations], "    "), window),
        }

    _emit(args, sections, text)
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
                         "result": _dumps([{"generator": f"{spec.vectors[g.bid].label}_{g.n}",
                                            "coeff": str(c)} for g, c in value.items()])},
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
                                 "dims": _dumps({str(w): d for w, d in dims.items()})},
                  lambda: [f"{w}\t{d}" for w, d in dims.items()])
            return EXIT_OK
        if args.act is not None:
            out = act_word(spec, _parse_word(spec, args.act))
        else:  # --field; _parse requires one of --dims, --act, --field
            a_word, n_token, b_word = args.field
            n = _mode(n_token)
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
                         "result": _dumps([{"monomial": m.display(spec), "coeff": str(c)}
                                           for m, c in out.items()])},
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


# Every argument: name -> (how its value is read, metavar, help line).  None reads no
# value (a switch, True when given), str takes the token as it stands, int ASCII digits
# with an optional sign (formula_io's index rule), a tuple one of its names, and a list
# one token for each of its entries.
_ARGS = {
    "path": (str, "", "formula file"), "name": (tuple(sorted(PRESETS)), "", "the preset"),
    "u": (str, "", ""), "n": (int, "", ""), "v": (str, "", ""), "p": (int, "", ""),
    "--help": (None, "", "show this help message and exit (also -h)"),
    "--preset": (tuple(sorted(PRESETS)), "NAME", "use a built-in formula instead of a file"),
    "--json": (None, "", "machine-readable output"),
    "--bound": (int, "BOUND", "defect sweep bound (default derived)"),
    "--window": (int, "WINDOW", "also verify the mode-algebra laws on this window"),
    "--all": (None, "", "print every defect"),
    "--cutoff": (str, "CUTOFF", "weight cutoff (rational)"),
    "--level": (str, "LEVEL", "specialize the central mode to this rational"),
    "--dims": (None, "", "graded dimensions"),
    "--act": (str, "WORD", "apply modes (rightmost first) to the vacuum, e.g. 'omega_3 omega_-1'"),
    "--field": ([str] * 3, "A N B", "field coefficient A_N B; A and B are mode words "
                                    "applied to the vacuum ('1' = vacuum)"),
    "--output": (str, "OUTPUT", "output file (default stdout; also -o)"),
}
_SHORT = {"-h": "--help", "-o": "--output"}
# subcommand -> (handler, help line, its arguments in usage notation): [path] may be
# left out, and each bare flag or --a|--b group must be given exactly once
_COMMANDS = {
    "check": (cmd_check, "validate, sweep defects, print the verdict",
              "[path] [--preset] [--json] [--bound] [--window] [--all]"),
    "defect": (cmd_defect, "print the nonzero defects",
               "[path] [--preset] [--json] [--bound] [--all]"),
    "bracket": (cmd_bracket, "bracket of two modes, e.g. omega 3 omega -1",
                "[path] u n v p [--preset] [--json]"),
    "verma": (cmd_verma, "vacuum-module computations",
              "[path] [--preset] [--json] --cutoff [--level] --dims|--act|--field"),
    "export-preset": (cmd_export_preset, "write a preset as a formula file", "name [--output]"),
}
# subcommand -> (its argument names in usage order, their values when not given)
_GRAMMAR = {command: (names, {name.lstrip("-"): False if _ARGS[name][0] is None else None
                              for name in names})
            for command, (_, _, usage) in _COMMANDS.items()
            for names in [re.findall(r"[\w-]+", usage)]}


def _exit(command: str, error: Optional[str] = None):
    """Print the help of vertexlie (command "") or of command and exit 0; given an
    error, write the usage line and the error to stderr instead and exit 2."""
    prog, usage = f"vertexlie {command}".strip(), "{%s} ..." % ",".join(_COMMANDS)
    rows = [(name, entry[1]) for name, entry in _COMMANDS.items()]
    if command:
        usage = _COMMANDS[command][2]
        rows = [(f"{name} {meta}".rstrip(),
                 text + (f" (one of: {', '.join(how)})" if type(how) is tuple else ""))
                for name in ["--help"] + _GRAMMAR[command][0]
                for how, meta, text in [_ARGS[name]]]
        usage = re.sub(r"--[\w-]+", lambda flag: f"{flag[0]} {_ARGS[flag[0]][1]}".rstrip(), usage)
    usage = f"usage: {prog} [-h] {usage}"
    if error is not None:
        sys.stderr.write(f"{usage}\n{prog}: error: {error}\n")
        raise SystemExit(EXIT_BAD_INPUT)
    width = max(len(name) for name, _ in rows) + 2
    print("\n".join([usage, ""] + [f"  {name:<{width}}{text}".rstrip() for name, text in rows]))
    raise SystemExit(EXIT_OK)


def _parse(argv: List[str]) -> SimpleNamespace:
    """The handler and values argv gives, read in one walk against _COMMANDS and _ARGS.

    As in argparse, -h prints help, a usage error exits 2, a unique prefix of a long
    flag names it, --flag=value works, a repeated flag keeps its last value, and "-"
    and negative numbers are positional; but a flag's value is the next token as it
    stands, so --level -5/2 reads -5/2.
    """
    command = argv[0] if argv else ""
    if command not in _COMMANDS:
        asked = _SHORT.get(command, command)
        _exit("", None if asked[2:] and "--help".startswith(asked) else
              f"invalid command {command!r}" if command else
              "the following arguments are required: command")
    handler, _, usage = _COMMANDS[command]
    names, defaults = _GRAMMAR[command]
    args = dict(defaults)

    def read(name: str, how, token: str):
        if how is str or how is int and _INDEX.fullmatch(token) or how is not int and token in how:
            return int(token) if how is int else token
        _exit(command, f"argument {name}: invalid {'int value' if how is int else 'choice'}: "
                       f"{token!r}")

    positionals, tokens = [], iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or token[1:2] in "0123456789.":  # "-" and negative numbers too
            positionals.append(token)
            continue
        name, eq, value = token.partition("=")
        name = _SHORT.get(name, name)
        hits = [flag for flag in ["--help"] + names if flag.startswith(name)]
        if len(hits) != 1 or hits == ["--help"] or eq and _ARGS[hits[0]][0] is None:
            _exit(command, None if hits == ["--help"] else f"unrecognized arguments: {token}")
        flag, how = hits[0], _ARGS[hits[0]][0]
        each = [] if how is None else how if type(how) is list else [how]
        taken = [value] * bool(eq) + list(islice(tokens, len(each) - bool(eq)))
        if len(taken) < len(each):
            _exit(command, f"argument {flag}: expected {len(each)} argument(s)")
        values = [read(flag, one, item) for one, item in zip(each, taken)]
        args[flag[2:]] = True if how is None else values if type(how) is list else values[0]
    slots = [name for name in names if name[0] != "-"]
    if slots[0] == "path" and len(positionals) < len(slots):
        del slots[0]
    if len(positionals) != len(slots):
        _exit(command, f"unrecognized arguments: {' '.join(positionals[len(slots):])}"
              if len(positionals) > len(slots) else
              f"the following arguments are required: {', '.join(slots[len(positionals):])}")
    args.update((slot, read(slot, _ARGS[slot][0], item)) for slot, item in zip(slots, positionals))
    for group in [word.split("|") for word in usage.split() if word[0] == "-"]:
        hits = [flag for flag in group if args[flag[2:]] not in (None, False)]
        if len(hits) != 1:
            _exit(command, f"argument {hits[1]}: not allowed with argument {hits[0]}" if hits
                  else f"argument {' | '.join(group)} is required")
    return SimpleNamespace(func=handler, **args)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
    except (MemoryError, RecursionError) as exc:  # the interpreter's limits: a message too
        limit = "memory" if isinstance(exc, MemoryError) else "recursion limit"
        print(f"error: the computation ran out of the interpreter's {limit}", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # the reader is gone: end quietly, with nothing left for the exit flush
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
