from __future__ import annotations

import argparse
import codecs
import hashlib
import importlib.util
import io
import json
import os
import random
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

import vertexlie
from vertexlie import PRESETS, Element, FormulaSpec, preset, rat, virasoro
from vertexlie import cli
from vertexlie.cli import main
from vertexlie.defects import conformal_validate, defect_sweep, injectivity_verdict
from vertexlie.formula import FormulaError, _rat, validate_spec
from vertexlie.formula_io import (
    FormulaFileError,
    export_formula,
    load_formula,
    parse_formula,
    save_formula,
)
from vertexlie.local_algebra import jacobi_window_verify

# typo'd presets and seeded random tables, shared with the sweep tests
from test_defects import TYPO_TABLES, _graded_random_tables, _random_tables

# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_round_trip_every_preset() -> None:
    for name in sorted(PRESETS):
        spec = preset(name)
        text = export_formula(spec)
        again = parse_formula(text)
        assert again == spec, name
        assert export_formula(again) == text, name


def test_round_trip_random_tables() -> None:
    # the presets' round trip is test_round_trip_every_preset
    for spec in _random_tables(random.Random(21), 40) + _graded_random_tables(random.Random(22), 40):
        text = export_formula(spec)
        again = parse_formula(text)
        assert again == spec, text
        assert export_formula(again) == text, text


@pytest.mark.parametrize("labels,central,name,refused", [
    (("a b",), None, None, "a b"),
    (("a#b",), None, None, "a#b"),
    (("",), None, None, ""),
    (("a:b",), None, None, "a:b"),
    (("a,b",), None, None, "a,b"),
    (("a\nb",), None, None, "a\nb"),
    (("a\u2028b",), None, None, "a\u2028b"),
    (("x", "[meta]"), "[meta]", None, "[meta]"),
    (("x",), None, "x # y", "x # y"),
    (("x",), None, " padded ", " padded "),
    (("x",), None, "two\nlines", "two\nlines"),
])
def test_export_refuses_what_would_not_read_back(tmp_path, labels, central, name,
                                                  refused) -> None:
    spec = FormulaSpec([(label, 0) for label in labels], {}, central=central, name=name)
    with pytest.raises(FormulaError) as err:
        export_formula(spec)
    assert repr(refused) in str(err.value)  # the message names the label or name
    path = tmp_path / "formula.vla"
    path.write_text("kept")
    with pytest.raises(FormulaError):
        save_formula(spec, path)
    assert path.read_text() == "kept"  # refused before the file was opened


def test_export_keeps_labels_and_names_that_read_back() -> None:
    # a bracketed label that is not central, '=' and inner spaces in a name
    spec = FormulaSpec([("[x]", 0), ("c", 0), ('"q"\\', 1)], {("[x]", 0, "[x]"): {(0, "c"): 1}},
                       central="c", name="ω = a b")
    again = parse_formula(export_formula(spec))
    assert again == spec and again.name == "ω = a b"


def test_round_trip_via_files(tmp_path) -> None:
    path = tmp_path / "formula.vla"
    save_formula(virasoro(), path)
    assert load_formula(path) == virasoro()


def test_parse_minimal_ungraded() -> None:
    spec = parse_formula("""
[basis]
a even
b odd

[constants]
a 0 b : 0 b 1, 1 b -2/3
""")
    assert spec.labels == ("a", "b")
    assert not spec.graded
    assert spec.constant("a", 0, "b").coeff((1, spec.bid("b"))) == F(-2, 3)


def test_parse_comments_and_blank_lines() -> None:
    spec = parse_formula("""
# leading comment
[basis]
a even 1   # trailing comment

[constants]
a 0 a : 0 a 1
""")
    assert spec.weight("a") == 1


@pytest.mark.parametrize("text,fragment", [
    ("a even", "before any"),
    ("[what]\n", "unknown section"),
    ("[basis]\na maybe\n", "parity"),
    ("[basis]\na even x\n", "bad rational"),
    ("[basis]\na even 1.5\n", "bad rational"),
    ("[basis]\na even 1e3\n", "bad rational"),
    ("[basis]\na even\n[constants]\na 0 a : 0 a 1/0\n", "bad rational"),
    ("[basis]\na even 1\nb even\n", "all basis vectors or none"),
    ("[basis]\na even\n[constants]\na 0 a 0 a 1\n", "product lines"),
    ("[basis]\na even\n[constants]\na zero a : 0 a 1\n", "bad product index"),
    ("[basis]\na even\n[constants]\na -1 a : 0 a 1\n", "nonnegative"),
    ("[basis]\na even\n[constants]\na 0 a : 0 a\n", "each term"),
    ("[basis]\na even\n[constants]\na 0 a : 0 b 1\n", "unknown basis name"),
    ("[basis]\na even\n[constants]\na 0 a : 0 a 1\na 0 a : 0 a 1\n", "twice"),
    ("[basis]\na even\n[conformal]\nomega = a\n", "needs both"),
    ("[basis]\na even\n[central]\na\n[central]\na\n", "named twice"),
])
def test_parse_diagnostics(text: str, fragment: str) -> None:
    with pytest.raises(FormulaFileError) as err:
        parse_formula(text)
    assert fragment in str(err.value)


def test_parse_reports_line_numbers() -> None:
    cases = [
        ("[basis]\na even\nb oddish\n", 3),
        # unknown basis names in constants, central and conformal lines
        ("[basis]\na even\n\n[constants]\na 0 a : 0 a 1\na 1 b : 0 a 1\n", 6),
        ("[basis]\na even\n\n[constants]\na 0 a : 0 a 1, 1 b 2\n", 5),
        ("[central]\nc\n[basis]\na even\n", 2),
        ("[basis]\na even\n[conformal]\nomega = a\nc = nope\n", 5),
        # basis errors at their own line
        ("[basis]\na even\na even\n", 3),
        ("[basis]\na even 1\n\nb even -1\n", 4),
        ("[basis]\na even 1\nb even 2\nc even\nd even 1\n", 4),
        ("[basis]\na even\nb even 2\n", 3),
        # an incomplete conformal section at its header
        ("[basis]\na even\n[conformal]\nomega = a\n", 3),
        # input that would otherwise be dropped, at its own line
        ("[basis]\na even\nb even\n[central]\na b\n", 5),
        ("[basis]\na even\n[conformal]\nomega = a\nomega = a\nc = a\n", 5),
        ("[meta]\nname = a\nname = b\n[basis]\na even\n", 3),
        # a central vector that is not the conformal c, at the [central] line
        ("[basis]\na even\nc even\n[central]\na\n[conformal]\nomega = a\nc = c\n", 5),
        # a conformal pair on a basis without weights, at its header
        ("[basis]\nomega even\nc even\n\n[conformal]\nomega = omega\nc = c\n", 5),
    ]
    for text, line in cases:
        with pytest.raises(FormulaFileError) as err:
            parse_formula(text)
        assert err.value.line == line, text
        assert str(err.value).startswith(f"line {line}:")


@pytest.mark.parametrize("text", ["+3", "-0", "007", "3/06", "-4/2", " 5 "])
def test_rational_tokens_read_as_fraction_does(text: str) -> None:
    want = F(text)
    assert rat(text) == want and type(rat(text)) is F
    stored = _rat(text)
    assert stored == want and type(stored) is (int if want.denominator == 1 else F)
    token = text.strip()  # a whitespace-split token
    spec = parse_formula(f"[basis]\na even\n[constants]\na 0 a : 0 a {token}\n")
    assert spec.constant("a", 0, "a") == Element({(0, 0): want})
    if want >= 0:
        assert parse_formula(f"[basis]\na even {token}\n").weight("a") == want


@pytest.mark.parametrize("text", ["1.5", "1e3", "1/0", "1_000", "\u0661", "+", "2/-3", ""])
def test_rational_tokens_rejected(text: str) -> None:
    message = f"bad rational {text!r} (expected an integer or p/q)"
    for read in (rat, _rat):
        with pytest.raises(ValueError) as err:
            read(text)
        assert str(err.value) == message
    if not text:
        return  # whitespace-split never yields an empty token
    for source, line in ((f"[basis]\na even\nb even {text}\n", 3),
                         (f"[basis]\na even\n\n[constants]\na 0 a : 0 a 1, 1 a {text}\n", 5)):
        with pytest.raises(FormulaFileError) as err:
            parse_formula(source)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_repeated_terms_sum_in_stored_form() -> None:
    spec = parse_formula("[basis]\na even\n[constants]\na 0 a : 0 a 1/2, 0 a 1/2, 1 a 1/3, 1 a -1/3\n")
    assert spec.constant("a", 0, "a")._terms == {(0, 0): 1}
    assert type(spec.constant("a", 0, "a")._terms[(0, 0)]) is int


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_check_virasoro(capsys) -> None:
    code = main(["check", "--preset", "virasoro"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: injective_central_ideal" in out
    assert "conformal data: pass" in out


# SHA-256 of `vertexlie check --preset NAME --json` stdout and the exit
# code.  Optimisations must leave this output byte-identical; change an
# entry only together with a deliberate change of the check output.
CHECK_JSON_SHA256 = {
    "virasoro": ("6239df70e95c23439149384fac1414b99bc4afd69ccc4960fe3974c29a344d02", 0),
    "neveu-schwarz": ("fd3db27d3e891ead37fb4936953ecb43a0a3f804c5c6848bd57c9dfbbe2deeca", 0),
    "affine-sl2": ("af5245d287b4cd47efc87907ed1c9443f3ff251dfd5a82cf0597f394068061a0", 0),
    "heisenberg": ("a9266cf26473b894c39d0fdd6824584c1418155837487b415ab9bd116b1aa937", 0),
    "loop-abelian": ("0085625bd5155880347c366c5ed8b9193f86d871243eb4180314e1668348ff89", 0),
    "novikov-lambda": ("af5fd692d73cfc0fb4a9148e516bb16d01cc35fadd07e79e0e11c5abdbb29e12", 0),
    "novikov-flipped": ("1240a0d22a247a59af92692f5d5fb7a5298047c6ebdf920c0d3ef0523bf162fc", 1),
    "comm-assoc-dual": ("b93f29f6253f88e83e3cfd9a6a3db8d23590e40232344fff32f9eb7806d061c6", 0),
}


def test_check_json_digests_cover_every_preset() -> None:
    assert set(CHECK_JSON_SHA256) == set(PRESETS)


@pytest.mark.parametrize("name", sorted(CHECK_JSON_SHA256))
def test_cli_check_json_is_byte_identical(name: str, capsys) -> None:
    code = main(["check", "--preset", name, "--json"])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == CHECK_JSON_SHA256[name]


# SHA-256 of the stdout and the exit code of each command: the full
# text check and defect listings of every preset, the --json mode-law
# violations of the one preset that has them, brackets, mode words and
# field coefficients whose results carry the coefficients 1, -1, other
# negatives and fractions, and bracket and verma results and dims under
# --json.  Renderer and kernel changes must leave this output byte-identical.
TEXT_SHA256 = {
    ("check", "--preset", "novikov-flipped", "--window", "2", "--json"):
        ("d8860dbb9838e72735e89cf81ea6bf7f7b81ee6c079c0f930bf83581f60f944f", 1),
    ("check", "--preset", "affine-sl2", "--all"):
        ("d1ef42a5b1ad868b7c3514dbd7f2d089092fde0e7ce6d2c6fbc5abb5368df81f", 0),
    ("defect", "--preset", "affine-sl2", "--all"):
        ("45e538e6a8c2b5ea41e800abf01f0ef596161adb6ff5287cdae69f0865088b07", 0),
    ("check", "--preset", "comm-assoc-dual", "--all"):
        ("607428ff887471ba07cfa31fed783674ab317dd9f94bb3509a3e379d8a09fde7", 0),
    ("defect", "--preset", "comm-assoc-dual", "--all"):
        ("f8565c691bd9b6901f74eea284fb3ff45b730d216f84f0195f5c99257c95041b", 0),
    ("check", "--preset", "heisenberg", "--all"):
        ("2f18f574b98731f4f2b5f34bec203e2a5a8b542206c05ee83c261f40de4a0a21", 0),
    ("defect", "--preset", "heisenberg", "--all"):
        ("af4f3e1338c0b751908b475370d2e25f41da0dd398c27b639545bc0f2b0bb379", 0),
    ("check", "--preset", "loop-abelian", "--all"):
        ("fb37a1ae51474e3d266b6b9ac2f454f645e8e8e69a09cdb2c35c8f43a6c100fc", 0),
    ("defect", "--preset", "loop-abelian", "--all"):
        ("abb01530aba06724e3378dc8708cf0bb9496010506ea9f9d47e82e1120beb202", 0),
    ("check", "--preset", "neveu-schwarz", "--all"):
        ("2fe300a345a76550cdd702b21571b95ab146c6a4e572990d7986877140347d8b", 0),
    ("defect", "--preset", "neveu-schwarz", "--all"):
        ("b65e948b439088e79bfe703c36d2c08370efadb5ee5596c9d1efb1743131d0cf", 0),
    ("check", "--preset", "novikov-flipped", "--all"):
        ("49c133652cf294caa90af9c1174bf9c01bf31ad163476edac9681d08ad3a38d9", 1),
    ("defect", "--preset", "novikov-flipped", "--all"):
        ("b634b28249994d495dd3aca17f6b81c8a4379fc51a689465fc6d2a6f2446f8ec", 0),
    ("check", "--preset", "novikov-lambda", "--all"):
        ("ceb33de6e45b72d67a78d9b11ad27a0daf5f4b2f13b2ddb5e7d0db749096ef1a", 0),
    ("defect", "--preset", "novikov-lambda", "--all"):
        ("f8565c691bd9b6901f74eea284fb3ff45b730d216f84f0195f5c99257c95041b", 0),
    ("check", "--preset", "virasoro", "--all"):
        ("a49e857d3a9e8d8a90d4a3cc51332dd93963d1a0ad5439f4ff33beb294e33985", 0),
    ("defect", "--preset", "virasoro", "--all"):
        ("f8565c691bd9b6901f74eea284fb3ff45b730d216f84f0195f5c99257c95041b", 0),
    ("bracket", "--preset", "virasoro", "omega", "3", "omega", "-1"):
        ("b37bccaaefcf26daf7894739b294fad41740ad74d091a83b991aea0b0e2f60aa", 0),
    ("bracket", "--preset", "virasoro", "omega", "-1", "omega", "3"):
        ("ac4f0f5b1e900f0f26c31f08af22fa23c43f8c3d77eec4eb3d7b5b7fcf584094", 0),
    ("bracket", "--preset", "affine-sl2", "f", "0", "e", "0"):
        ("7079542e630a4ab673ca8913e7080295a9ba295ad95f12a0fab85d7e2975f459", 0),
    ("bracket", "--preset", "affine-sl2", "e", "1", "f", "-1"):
        ("63475c9043e7d6e5a6e35fb9fc1044d9d835843866c55f545f9de504c90a0ea3", 0),
    ("bracket", "--preset", "neveu-schwarz", "omega", "-1", "tau", "1"):
        ("c681f6b0f5bf8cf090a66f201169907753375082bf0e9afb8628accb265db351", 0),
    ("bracket", "--preset", "neveu-schwarz", "tau", "2", "tau", "-1"):
        ("0df1d5ade65be4a7921bf7282ca088de5cb83e315490888f776c9c91526f55e0", 0),
    ("verma", "--preset", "affine-sl2", "--cutoff", "3", "--act", "f_0 e_-1"):
        ("ab573c13cf08b9c312d680a0ddf94a77c11b8f0fa7013a918c7351dec9f4e259", 0),
    ("verma", "--preset", "affine-sl2", "--cutoff", "3", "--act", "f_0 e_-1 h_-1"):
        ("8edc43dff1dc0df7da279970ea2e666bc6c904ad78208dfd6ba2a4ed88ccbbee", 0),
    ("verma", "--preset", "affine-sl2", "--cutoff", "3", "--act", "f_1 e_-1 f_-1"):
        ("763a5c4063dee24b7052def55f5a5bd99e2cb6f056d6c5412342acbfc012b18f", 0),
    ("verma", "--preset", "affine-sl2", "--cutoff", "3", "--level=-3/2", "--act", "e_1 f_-1 h_-1"):
        ("4c4291e1e818d4413443822f356a45718cbfc36cecf50283eb16984558f81e2e", 0),
    ("verma", "--preset", "neveu-schwarz", "--cutoff", "6", "--act", "tau_0 tau_-1 tau_-2"):
        ("7ab9a0c9bec603d616653a96c13d2482bdde27540b08019af41c0d975ab390be", 0),
    ("verma", "--preset", "affine-sl2", "--cutoff", "3", "--act", "h_0 f_-1 e_-2"):
        ("9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa", 0),
    ("verma", "--preset", "virasoro", "--cutoff", "8", "--field", "omega_-1", "1", "omega_-2"):
        ("7227542e17abcdbf6461fa768517d4107c5223be1e54f41e9a146adb94ec60d7", 0),
    ("verma", "--preset", "affine-sl2", "--cutoff", "6", "--field", "f_-1", "0", "e_-1 h_-1"):
        ("8edc43dff1dc0df7da279970ea2e666bc6c904ad78208dfd6ba2a4ed88ccbbee", 0),
    ("verma", "--preset", "neveu-schwarz", "--cutoff", "8", "--field", "omega_-2", "1", "tau_-1"):
        ("fefc067d01e298f7f8aa52aadfa583fbae2d08b3985615566c24744828740952", 0),
    ("verma", "--preset", "neveu-schwarz", "--cutoff", "8", "--field", "tau_-1", "1", "omega_-1"):
        ("509e65e62dd42c9910eab34695bbc2a7cea6fc33e90fad3d8edfec7b5a676da4", 0),
    ("verma", "--preset", "virasoro", "--cutoff", "8", "--level=-5/2", "--field", "omega_-1", "3", "omega_-1"):
        ("6d5f41efea51e4f3b1b1589c45a5c0e57cd661d13ea52115a1d3fcc45e79b973", 0),
    ("verma", "--preset", "virasoro", "--cutoff", "8", "--field", "omega_-2", "0", "omega_-2"):
        ("9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa", 0),
    ("bracket", "--preset", "virasoro", "omega", "3", "omega", "-3", "--json"):
        ("c4435b936ed50595588d1fdd22ca407c3ad86a9fe35a01a0e3244f3e7c93d288", 0),
    ("bracket", "--preset", "affine-sl2", "e", "1", "f", "-1", "--json"):
        ("df253110d0494627c85b5ec1836ba747c12fa5f2e1ecfcacc353eec0796379c9", 0),
    ("bracket", "--preset", "loop-abelian", "x", "1", "x", "2", "--json"):
        ("0eca0308387914453baa2baf2d68d3f104c3bfe9acf5a47cae3371af78ec492e", 0),
    ("verma", "--preset", "neveu-schwarz", "--cutoff", "7/2", "--dims", "--json"):
        ("144fe7219980022250a4ac73a6883e1105902b04f5707be680cb38c93bcf00cc", 0),
    ("verma", "--preset", "virasoro", "--cutoff", "6", "--act", "omega_1 omega_-3", "--json"):
        ("f4eb5d8b9d04a98d4d7e9391ba8d938399fe8537209df875c9bee3008235ec56", 0),
    ("verma", "--preset", "virasoro", "--cutoff", "6", "--level", "1/2",
     "--act", "omega_2 omega_-2", "--json"):
        ("0c8583d57e97d7c0b2d880a14d0890c0bf650a784867bfd1881c571c5aa10fd7", 0),
    ("verma", "--preset", "affine-sl2", "--cutoff", "3", "--field", "e_-1", "-1", "f_-1",
     "--json"):
        ("aeb237d454a6b4f3009b30875ecf80ff884758061bd6fb62cb24dec8390d46c8", 0),
    ("verma", "--preset", "virasoro", "--cutoff", "4", "--field", "1", "-1", "omega_-2",
     "--json"):
        ("f2c787d0b2a99e7bc39774ba56d8b4fb670f97c8a5b776c7211b522608d9a38a", 0),
}


def test_text_digests_cover_every_preset() -> None:
    for command in ("check", "defect"):
        assert {argv[2] for argv in TEXT_SHA256 if argv[0] == command} == set(PRESETS)


@pytest.mark.parametrize("argv", list(TEXT_SHA256), ids=" ".join)
def test_cli_text_is_byte_identical(argv: tuple, capsys) -> None:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == TEXT_SHA256[argv]


# Virasoro with the conformal weight of omega typo'd from 2 to 3: the
# window check lists skew and Jacobi violations.
TYPO_VIRASORO = """\
[basis]
omega even 2
c even 0

[central]
c

[constants]
omega 0 omega : 1 omega 1
omega 1 omega : 0 omega 3
omega 3 omega : 0 c 1/2
"""


def test_cli_window_on_a_typo_table_is_byte_identical(tmp_path, capsys) -> None:
    path = tmp_path / "typo-virasoro.vla"
    path.write_text(TYPO_VIRASORO)
    code = main(["check", str(path), "--window", "2", "--json"])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) \
        == ("c812bb90eab7ebe5e0f09d334ebe637628ab6872500abf86bb2519e60542d408", 1)


def test_cli_window_text_counts_the_violations(tmp_path, capsys) -> None:
    path = tmp_path / "typo-virasoro.vla"
    path.write_text(TYPO_VIRASORO)
    assert main(["check", str(path), "--window", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "mode-algebra laws on window 2: 131 violations"


def test_cli_check_affine_exit_codes(capsys) -> None:
    assert main(["check", "--preset", "affine-sl2"]) == 0
    out = capsys.readouterr().out
    assert "verdict: injective_zero_ideal" in out
    assert main(["check", "--preset", "heisenberg"]) == 0
    capsys.readouterr()
    assert main(["check", "--preset", "novikov-flipped"]) == 1
    out = capsys.readouterr().out
    assert "undetermined" in out


def test_cli_check_window_flag(capsys) -> None:
    assert main(["check", "--preset", "heisenberg", "--window", "3"]) == 0
    out = capsys.readouterr().out
    assert "window 3: pass" in out


def test_cli_check_window_says_when_no_law_is_evaluated(capsys) -> None:
    # every loop-abelian vector is inert, so the window holds no law to check
    assert main(["check", "--preset", "loop-abelian", "--window", "9"]) == 0
    out = capsys.readouterr().out
    assert "window 9: vacuous (every basis vector is inert; no law evaluated)\n" in out
    assert main(["check", "--preset", "loop-abelian", "--window", "9", "--json"]) == 0
    window = json.loads(capsys.readouterr().out)["result"]["window"]
    assert window == {"window": 9, "violations": []}


def test_cli_check_file_and_parse_error(tmp_path, capsys) -> None:
    good = tmp_path / "formula.vla"
    save_formula(virasoro(), good)
    assert main(["check", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "broken.toml"
    bad.write_text("[basis]\na maybe\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_cli_check_refuses_a_conformal_pair_without_weights(tmp_path, capsys) -> None:
    # bad input, not a refused computation: exit 2 and the line, no verdict
    path = tmp_path / "unweighted.vla"
    path.write_text("[basis]\nomega even\nc even\n\n[conformal]\nomega = omega\nc = c\n")
    for argv in (["check", str(path)], ["check", str(path), "--json"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (f"error: {path}: line 5: a conformal pair needs basis "
                                "weights\n")


@pytest.mark.parametrize("text", ["", "[basis]\n"], ids=["zero-bytes", "basis-header"])
def test_cli_check_says_an_empty_basis_checked_nothing(tmp_path, text, capsys) -> None:
    # still injective, with no witnesses and exit 0, but the note does not claim
    # that defects were found to vanish
    path = tmp_path / "empty.vla"
    path.write_text(text, encoding="utf-8")
    note = "the basis is empty; nothing was checked"
    assert tuple(injectivity_verdict(load_formula(path))) == ("injective_zero_ideal", (), note)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["verdict: injective_zero_ideal",
                                                         f"  {note}"]
    assert main(["check", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == {
        "injective": True, "notes": note, "status": "injective_zero_ideal"}


def test_cli_check_file_with_inadmissible_product(tmp_path, capsys) -> None:
    # a parseable file whose product fails the identities: exit 1 and a
    # witness defect outside the central span is printed
    path = tmp_path / "broken.toml"
    save_formula(preset("novikov-flipped"), path)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "undetermined" in out
    assert "commutator" in out
    # a product of the wrong weight is an invariant violation, in text and JSON
    path.write_text(TYPO_VIRASORO.replace("omega 0 omega : 1 omega 1",
                                          "omega 0 omega : 0 omega 1"))
    message = "(omega,0,omega) at D-power 0: omega has weight 2, expected 3"
    assert main(["check", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["invariant violations: 1", f"  {message}"]
    assert main(["check", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["violations"] == [message]


# ---------------------------------------------------------------------------
# the JSON writer, against json.dumps(indent=2, sort_keys=True)
# ---------------------------------------------------------------------------

def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _defect_json(spec: FormulaSpec, dft) -> dict:
    """A defect as a dict of the JSON payload: the reference for the CLI's rows."""
    return {"kind": dft.kind, "indices": list(dft.indices),
            "value": [{"d_power": k, "target": spec.vectors[bid].label, "coeff": str(c)}
                      for (k, bid), c in sorted(dft.value._terms.items())]}


def _spec_dict(spec: FormulaSpec) -> dict:
    """The spec as a dict of the JSON payload: the reference for the CLI's template."""
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


def _check_dicts(spec: FormulaSpec, window) -> tuple:
    """check's verdict and result as dicts of the JSON payload, read from the library
    at --window window (None when not given): the reference for the CLI's templates."""
    verdict = injectivity_verdict(spec)
    report = conformal_validate(spec) if spec.conformal is not None else None
    bad = None if window is None else jacobi_window_verify(spec, window)
    return ({"status": verdict.status, "notes": verdict.notes, "injective": verdict.injective},
            {"violations": [str(v) for v in validate_spec(spec)],
             "conformal": None if report is None else
             {"ok": report.ok, "failures": list(report.failures)},
             "window": None if bad is None else
             {"window": window, "violations": [str(b) for b in bad]}})


def _run_against_dumps(argv, capsys, spec: FormulaSpec, bound=None) -> str:
    """Run main(argv) on spec: its stdout must be json.dumps of the document, or empty
    when it refused; returns stderr.  The reference is the document read back, with
    the sections templates write replaced by their dicts built from the library: the
    spec by _spec_dict, the defects by _defect_json for defect_sweep(spec, bound), and
    check's verdict and result by _check_dicts at the --window of argv."""
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out:
        reference = json.loads(captured.out)
        reference["spec"] = _spec_dict(spec)
        if argv[0] in ("check", "defect"):
            reference["defects"] = [_defect_json(spec, d) for d in defect_sweep(spec, bound)]
        if argv[0] == "check":
            window = int(argv[argv.index("--window") + 1]) if "--window" in argv else None
            reference["verdict"], reference["result"] = _check_dicts(spec, window)
        assert captured.out == _dumps(reference) + "\n", argv
    else:
        assert code == 1 and captured.err.startswith("error: "), (argv, captured.err)
    return captured.err


OMEGA_FILE = """[meta]
name = ω-algebra "2"

[basis]
ω even 2
c even 0

[constants]
ω 0 ω : 1 ω 1
ω 1 ω : 0 ω 2
ω 3 ω : 0 c 1/2
"""


def test_json_writer_matches_json_dumps_on_check_and_defect(tmp_path, capsys) -> None:
    paths = []
    specs = [preset(name) for name in sorted(PRESETS)]
    specs += [TYPO_TABLES[name]() for name in sorted(TYPO_TABLES)]
    specs += _random_tables(random.Random(3), 15) + _graded_random_tables(random.Random(4), 15)
    for k, spec in enumerate(specs):
        paths.append(tmp_path / f"table-{k}.vla")
        save_formula(spec, paths[-1])
    # a conformal clause that fails on an injective table, and an empty basis
    broken_omega = export_formula(virasoro()).replace("omega 3 omega : 0 c 1/2",
                                                     "omega 3 omega : 0 c 1")
    for name, text in (("omega", OMEGA_FILE), ("broken-omega", broken_omega),
                       ("empty", "[basis]\n")):
        paths.append(tmp_path / f"{name}.vla")
        paths[-1].write_text(text, encoding="utf-8")
    refused = 0
    for path in paths:
        spec = load_formula(path)
        for extra, bound in (((), None), (("--window", "1"), None), (("--bound", "0"), 0)):
            err = _run_against_dumps(("check", str(path), "--json") + extra, capsys, spec, bound)
            refused += "boundary index" in err
        _run_against_dumps(("defect", str(path), "--json"), capsys, spec)
    # BoundInsufficientError ends the command before anything is written
    assert refused


# labels the writer must escape: a quote, a backslash, a control character
# and non-ASCII text (each is one word, so the file format holds it)
ESCAPED_LABELS_FILE = """[basis]
"q" even
back\\slash odd
ctl\x01 even
ωé\U0001d524 even

[constants]
"q" 0 back\\slash : 0 ctl\x01 1, 1 ωé\U0001d524 -2/3
ctl\x01 1 "q" : 0 "q" 1/2, 2 back\\slash 3
ωé\U0001d524 0 ωé\U0001d524 : 1 "q" 7
"""


def test_json_writer_escapes_labels_in_defect_rows(tmp_path, capsys) -> None:
    path = tmp_path / "escaped.vla"
    path.write_text(ESCAPED_LABELS_FILE, encoding="utf-8")
    spec = load_formula(path)
    assert spec.labels == ('"q"', "back\\slash", "ctl\x01", "ωé\U0001d524")
    assert defect_sweep(spec)
    for argv in (("check", "--all"), ("check", "--window", "1"), ("defect",)):
        assert not _run_against_dumps(argv + (str(path), "--json"), capsys, spec)


@pytest.mark.parametrize("argv", [
    ("bracket", "--preset", "virasoro", "omega", "3", "omega", "-3"),
    ("bracket", "--preset", "affine-sl2", "e", "1", "f", "-1"),
    ("bracket", "--preset", "loop-abelian", "x", "1", "x", "2"),
    ("verma", "--preset", "neveu-schwarz", "--cutoff", "7/2", "--dims"),
    ("verma", "--preset", "virasoro", "--cutoff", "6", "--act", "omega_1 omega_-3"),
    ("verma", "--preset", "virasoro", "--cutoff", "6", "--level", "1/2",
     "--act", "omega_2 omega_-2"),
    ("verma", "--preset", "affine-sl2", "--cutoff", "3", "--field", "e_-1", "-1", "f_-1"),
    ("verma", "--preset", "virasoro", "--cutoff", "4", "--field", "1", "-1", "omega_-2"),
])
def test_json_writer_matches_json_dumps_on_bracket_and_verma(argv, capsys) -> None:
    assert not _run_against_dumps(argv + ("--json",), capsys, preset(argv[2]))


def test_cli_check_json_schema(capsys) -> None:
    assert main(["check", "--preset", "heisenberg", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"spec", "verdict", "defects", "dims", "result"}
    assert payload["dims"] is None
    assert payload["verdict"]["status"] == "injective_zero_ideal"
    assert payload["defects"][0]["value"][0]["coeff"] == "-1"


def test_cli_defect_listing(capsys) -> None:
    assert main(["defect", "--preset", "virasoro"]) == 0
    out = capsys.readouterr().out
    assert "-1/2*D.c" in out
    # eleven defects: ten are shown without --all
    assert main(["defect", "--preset", "neveu-schwarz"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11 and lines[-1] == "... 1 more (use --all)"
    assert main(["defect", "--preset", "neveu-schwarz", "--all"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 11
    assert main(["defect", "--preset", "loop-abelian"]) == 0
    assert "no nonzero defects" in capsys.readouterr().out


def test_cli_bracket(capsys) -> None:
    assert main(["bracket", "--preset", "virasoro", "omega", "3", "omega", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "4*omega_1 + 1/2*c_-1"
    assert main(["bracket", "--preset", "heisenberg", "x", "1", "x", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "c_-1"
    assert main(["bracket", "--preset", "virasoro", "omega", "2", "c", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_bracket_unknown_name(capsys) -> None:
    assert main(["bracket", "--preset", "virasoro", "nope", "0", "omega", "0"]) == 2
    assert "unknown basis name" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("bracket", "--preset", "virasoro", "zz", "1", "omega", "2"),
    ("verma", "--preset", "virasoro", "--cutoff", "3", "--act", "zz_1"),
    ("verma", "--preset", "virasoro", "--cutoff", "3", "--act", "zz_-1"),
])
def test_cli_unknown_name_message(argv: tuple, capsys) -> None:
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == "error: unknown basis name 'zz'\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_closed_stdout_exits_quietly(unbuffered: bool) -> None:
    # buffered, the write fails in the flush at exit; unbuffered, in the write
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-m", "vertexlie.cli", "check", "--preset", "virasoro"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()  # before the child gets to write anything
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert err == b""


def test_cli_verma_dims(capsys) -> None:
    assert main(["verma", "--preset", "virasoro", "--cutoff", "9", "--dims"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    dims = {row[0]: int(row[1]) for row in rows}
    assert [dims[str(k)] for k in range(10)] == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8]
    assert main(["verma", "--preset", "heisenberg", "--cutoff", "7", "--dims",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [payload["dims"][str(k)] for k in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_cli_verma_act_with_level(capsys) -> None:
    assert main(["verma", "--preset", "virasoro", "--cutoff", "6", "--level", "26",
                 "--act", "omega_3 omega_-1"]) == 0
    assert capsys.readouterr().out.strip() == "13 * 1"


def test_cli_verma_field(capsys) -> None:
    assert main(["verma", "--preset", "virasoro", "--cutoff", "8",
                 "--field", "omega_-1", "-1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "omega_-1 1"


def test_cli_verma_refuses_undetermined(capsys) -> None:
    assert main(["verma", "--preset", "novikov-flipped", "--cutoff", "4",
                 "--dims"]) == 1
    err = capsys.readouterr().err
    assert "undetermined" in err and "check" in err


def test_cli_export_preset_round_trip(tmp_path, capsys) -> None:
    out_path = tmp_path / "exported.vla"
    assert main(["export-preset", "neveu-schwarz", "-o", str(out_path)]) == 0
    assert load_formula(out_path) == preset("neveu-schwarz")
    assert main(["export-preset", "virasoro"]) == 0
    text = capsys.readouterr().out
    assert parse_formula(text) == virasoro()


def test_cli_export_preset_has_no_json_flag(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["export-preset", "virasoro", "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_cli_export_preset_unwritable_output(tmp_path, capsys) -> None:
    target = tmp_path / "missing" / "x.vla"
    assert main(["export-preset", "virasoro", "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize("module,name,error,limit,argv", [
    ("local_algebra", "jacobi_window_verify", MemoryError, "memory",
     ["check", "--preset", "novikov-flipped", "--window", "100000000"]),
    ("verma", "act_word", RecursionError, "recursion limit",
     ["verma", "--preset", "heisenberg", "--cutoff", "1", "--act", "x_2 x_-2"]),
])
def test_cli_reports_the_interpreters_limits_in_one_line(module, name, error, limit, argv,
                                                         monkeypatch, capsys) -> None:
    # a huge window's product of index tuples, or a long word's normal ordering
    def fail(*args):
        raise error()

    monkeypatch.setattr(importlib.import_module(f"vertexlie.{module}"), name, fail)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: the computation ran out of the interpreter's {limit}"]


def test_cli_check_file_not_utf8(tmp_path, capsys) -> None:
    # a UTF-16 byte-order mark, and a bad byte on the third line, also after a UTF-8
    # byte-order mark (dropped before decoding, so the line and byte stay the same)
    for data, message in [(b"\xff\xfe[\x00b\x00", "line 1: not UTF-8 text (byte 0xff)"),
                          (b"[basis]\na even\n\xe9 even\n", "line 3: not UTF-8 text (byte 0xe9)"),
                          (codecs.BOM_UTF8 + b"[basis]\na even\n\xe9 even\n",
                           "line 3: not UTF-8 text (byte 0xe9)")]:
        path = tmp_path / "formula.vla"
        path.write_bytes(data)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {path}: {message}"]


def test_load_formula_skips_a_utf8_byte_order_mark(tmp_path) -> None:
    path = tmp_path / "formula.vla"
    text = export_formula(preset("virasoro"))
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert load_formula(path) == parse_formula(text)


@pytest.mark.parametrize("text,message", [
    ("[meta]\nname virasoro\n", "line 2: meta lines look like 'key = value'"),
    ("[basis]\n\na\n", "line 3: basis lines look like 'LABEL PARITY [WEIGHT]'"),
    ("[basis]\na even 1 2\n", "line 2: basis lines look like 'LABEL PARITY [WEIGHT]'"),
    ("[basis]\na even\n[conformal]\nomega a\n", "line 4: conformal lines look like 'omega = LABEL'"),
    ("[basis]\na even\n[conformal]\nL = a\n", "line 4: conformal keys are omega and c, got 'L'"),
    ("[basis]\na even\n[constants]\na 0 : 0 a 1\n", "line 4: product head must be 'U N V'"),
    ("[basis]\na even\n[constants]\na 0 a : 0 a 1, D a 1\n", "line 4: bad D-power 'D'"),
    ("[basis]\na even\n# D^-1\n[constants]\na 0 a : -1 a 1\n",
     "line 5: D-power must be nonnegative"),
    # factorial() overflowed on such an index; such a D-power looped once per unit
    ("[basis]\na even\n[constants]\na 99999999999999999999 a : 0 a 1\n",
     "line 4: product index must be at most sys.maxsize"),
    ("[basis]\na even\n[constants]\na 0 a : 99999999999999999999 a 1\n",
     "line 4: D-power must be at most sys.maxsize"),
    # an index is ASCII digits with an optional sign, as a coefficient is
    ("[basis]\na even\n[constants]\na 1_0 a : 0 a 1\n", "line 4: bad product index '1_0'"),
    ("[basis]\na even\n[constants]\na 0 a : \u0663 a 1\n", "line 4: bad D-power '\u0663'"),
    ("[basis]\na even\n[constants]\na \uff10 a : 0 a 1\n", "line 4: bad product index '\uff10'"),
])
def test_cli_check_file_line_diagnostics(text: str, message: str, tmp_path, capsys) -> None:
    path = tmp_path / "formula.vla"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: {message}"]


def test_cli_refuses_coefficients_past_the_digit_limit(tmp_path, capsys) -> None:
    # D^1600 a gives defects whose integer coefficients pass the interpreter's
    # limit on digits written as text; the limit itself stays where it is
    path = tmp_path / "formula.vla"
    path.write_text("[basis]\na even\n[constants]\na 0 a : 1600 a 1\n")
    limit = sys.get_int_max_str_digits()
    for argv in (["check", "--json"], ["defect", "--json"], ["check", "--all"]):
        assert main(argv + [str(path)]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.splitlines() == [
            f"error: a coefficient of the result has more than {limit} digits, the limit "
            "for writing an integer as text (the PYTHONINTMAXSTRDIGITS variable sets it)"], argv
    assert sys.get_int_max_str_digits() == limit
    # the text form shows ten defects, and builds no JSON it does not write
    assert main(["defect", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == "... 4789 more (use --all)"


def test_cli_refuses_long_bracket_and_verma_coefficients(capsys) -> None:
    # [omega_N, omega_{2-N}] on virasoro holds C(N, 3)/2 c_-1, about 750 digits
    # at N = 10**250: past a 640-digit limit in every form bracket and verma write
    n = 10 ** 250
    act = ["verma", "--preset", "virasoro", "--cutoff", "1", "--act", f"omega_{n} omega_{2 - n}"]
    bracket = ["bracket", "--preset", "virasoro", "omega", str(n), "omega", str(2 - n)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for argv in (bracket, bracket + ["--json"], act, act + ["--json"], act + ["--level", "3"]):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.splitlines() == [
                "error: a coefficient of the result has more than 640 digits, the limit "
                "for writing an integer as text (the PYTHONINTMAXSTRDIGITS variable sets it)"]
        # the same commands at a small N are written under the same limit
        assert main(["bracket", "--preset", "virasoro", "omega", "5", "omega", "-3"]) == 0
        assert capsys.readouterr().out == "8*omega_1 + 5*c_-1\n"
        assert main(act[:-1] + ["omega_5 omega_-3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == [
            {"coeff": "5", "monomial": "c_-1 1"}]
    finally:
        sys.set_int_max_str_digits(limit)


def _readme_command_lines() -> list:
    """The lines of the README's command-line example block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


def test_readme_command_line_examples_print_their_documented_output(capsys) -> None:
    # every `vertexlie ...` line of the README's command-line block that is
    # followed by a `# -> ...` line prints that text
    lines = _readme_command_lines()
    examples = [(line, expected[len("# -> "):]) for line, expected in zip(lines, lines[1:])
                if line.startswith("vertexlie ") and expected.startswith("# -> ")]
    assert len(examples) == 3
    for line, expected in examples:
        assert main(shlex.split(line)[1:]) == 0, line
        captured = capsys.readouterr()
        assert (captured.out.strip(), captured.err) == (expected, ""), line


def test_cli_check_directory_cannot_be_read(tmp_path, capsys) -> None:
    assert main(["check", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: cannot read {tmp_path}: ")


def test_cli_rejects_conflicting_inputs(capsys) -> None:
    assert main(["check", "--preset", "virasoro", "somefile"]) == 2
    assert "either" in capsys.readouterr().err
    assert main(["check"]) == 2
    assert "no input" in capsys.readouterr().err


def test_cli_check_bound_flag(capsys) -> None:
    # a wider bound still has a zero boundary row
    assert main(["check", "--preset", "virasoro", "--bound", "8"]) == 0
    capsys.readouterr()
    # a too-small user bound is reported, not silently accepted
    assert main(["check", "--preset", "virasoro", "--bound", "2"]) == 1
    assert "bound" in capsys.readouterr().err


def test_cli_check_bound_past_the_default_on_a_typo_table(tmp_path, capsys) -> None:
    # c_2 omega = (3/2) D omega puts a commutator defect at index 6, the default
    # bound: the default sweep refuses, while --bound 7 holds every defect and
    # the verdict, read from all of them, is undetermined
    path = tmp_path / "typo.vla"
    path.write_text(export_formula(virasoro()) + "c 2 omega : 1 omega 3/2\n")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: commutator defect nonzero at boundary index 6: (c,6,omega,0,omega)\n")
    assert main(["check", str(path), "--bound", "7"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == "" and "defects: 27 nonzero (bound 7)" in lines
    assert "verdict: undetermined" in lines
    assert main(["check", str(path), "--bound", "7", "--json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert captured.err == "" and payload["verdict"]["status"] == "undetermined"
    assert [(d["kind"], tuple(d["indices"])) for d in payload["defects"]] \
        == [(d.kind, d.indices) for d in defect_sweep(load_formula(path), 7)]
    assert len(payload["defects"]) == 27
    # the vacuum module refuses the undetermined verdict with its hint
    assert main(["verma", str(path), "--cutoff", "2", "--dims"]) == 1
    assert capsys.readouterr() == ("", "error: verdict is undetermined; run the defect check "
                                   "first\nhint: run `vertexlie check` on this input first\n")


@pytest.mark.parametrize("argv,message", [
    (["check", "--preset", "virasoro", "--bound", "-1"], "--bound must be nonnegative, got -1"),
    (["check", "--preset", "virasoro", "--window", "-2"], "--window must be nonnegative, got -2"),
    (["defect", "--preset", "virasoro", "--bound", "-3"], "--bound must be nonnegative, got -3"),
    (["verma", "--preset", "virasoro", "--cutoff", "-1", "--dims"],
     "--cutoff must be nonnegative, got -1"),
    (["verma", "--preset", "virasoro", "--cutoff=-1/2", "--act", "omega_-1"],
     "--cutoff must be nonnegative, got -1/2"),
    # rationals are integers or p/q, as in formula files
    (["verma", "--preset", "virasoro", "--cutoff", "6", "--level", "1.5",
      "--act", "omega_3 omega_-1"], "bad level '1.5'"),
    (["verma", "--preset", "virasoro", "--cutoff", "1e3", "--dims"], "bad cutoff '1e3'"),
    # mode words are LABEL_MODE tokens with an integer mode
    (["verma", "--preset", "virasoro", "--cutoff", "3", "--act", "omega"],
     "bad generator token 'omega' (expected LABEL_MODE)"),
    (["verma", "--preset", "virasoro", "--cutoff", "3", "--act", "omega_x"],
     "bad mode 'x' in 'omega_x'"),
    (["verma", "--preset", "virasoro", "--cutoff", "3", "--act", "omega_2.5"],
     "bad mode '2.5' in 'omega_2.5'"),
    (["verma", "--preset", "virasoro", "--cutoff", "3", "--field", "omega_-1", "x", "1"],
     "bad mode 'x'"),
])
def test_cli_rejects_negative_flags(argv, message, capsys) -> None:
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_cli_verma_fractional_cutoff(capsys) -> None:
    assert main(["verma", "--preset", "neveu-schwarz", "--cutoff", "7/2",
                 "--dims"]) == 0
    rows = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert rows["3/2"] == "1"
    assert rows["7/2"] == "2"


# ---------------------------------------------------------------------------
# command-line parser
# ---------------------------------------------------------------------------

def _argparse_reference() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before its table-driven one: the reference
    cli._parse is compared against."""
    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("path", nargs="?", help="formula file")
        sub.add_argument("--preset", choices=sorted(PRESETS),
                         help="use a built-in formula instead of a file")
        sub.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(prog="vertexlie")
    subs = parser.add_subparsers(dest="command", required=True)
    p = subs.add_parser("check")
    add_common(p)
    p.add_argument("--bound", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cli.cmd_check)
    p = subs.add_parser("defect")
    add_common(p)
    p.add_argument("--bound", type=int)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cli.cmd_defect)
    p = subs.add_parser("bracket")
    add_common(p)
    p.add_argument("u"), p.add_argument("n", type=int)
    p.add_argument("v"), p.add_argument("p", type=int)
    p.set_defaults(func=cli.cmd_bracket)
    p = subs.add_parser("verma")
    add_common(p)
    p.add_argument("--cutoff", required=True)
    p.add_argument("--level")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dims", action="store_true")
    group.add_argument("--act", metavar="WORD")
    group.add_argument("--field", nargs=3, metavar=("A", "N", "B"))
    p.set_defaults(func=cli.cmd_verma)
    p = subs.add_parser("export-preset")
    p.add_argument("name", choices=sorted(PRESETS))
    p.add_argument("--output", "-o")
    p.set_defaults(func=cli.cmd_export_preset)
    return parser


def _parsed(parse, argv: list):
    """The values parse(argv) gives (argparse's subcommand name left out), or the
    exit code and the stdout and stderr it wrote when it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            values = vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    return {key: value for key, value in values.items() if key != "command"}


_SAME_VALUES = [
    "check f.vla", "check", "check --preset virasoro f.vla", "check --preset virasoro --json",
    "defect f.vla --json", "defect --preset heisenberg",
    "bracket f.vla omega 3 omega -1", "bracket --preset virasoro omega 3 omega -1 --json",
    "bracket omega 3 --preset virasoro omega -1", "bracket --preset affine-sl2 e +1 f -1",
    "verma f.vla --cutoff 4 --dims", "verma --preset virasoro --cutoff 4 --dims --json",
    "export-preset virasoro", "export-preset virasoro --output x.vla",
    # --flag=value, unique prefixes, repeated flags, negative values
    "check --preset=virasoro --bound=8", "check --js --preset virasoro",
    "check --preset virasoro --win 2", "check --pre virasoro --b 7 --a",
    "check --bound 3 --bound 8 --preset virasoro", "check --bound -1 --preset virasoro",
    "check --window=-2 --preset virasoro", "export-preset virasoro --out=x.vla",
    "export-preset virasoro -o=x.vla", "verma --preset virasoro --cut 3 --fi a -1 b",
    "verma --preset virasoro --cutoff 4 --act omega_-2 --act 'omega_-1 omega_-1'",
    "verma --dims --dims --preset virasoro --cutoff=-1/2",
]
_USAGE_ERRORS = [
    "", "frobnicate", "--json check", "export-preset virasoro --json", "check --bogus",
    "check -x", "check a b", "bracket omega 3 omega", "bracket --preset virasoro omega 3 omega",
    "export-preset", "check --bound", "verma --preset virasoro --cutoff",
    "verma --preset virasoro --cutoff 3 --field a 1", "check --preset nope", "export-preset nope",
    "verma --preset virasoro --dims", "verma --preset virasoro --cutoff 3",
    "verma --preset virasoro --cutoff 3 --dims --act omega_-1", "check --bound x",
    "bracket --preset virasoro omega x omega -1", "check --json=1",
]


_README_ARGVS = [shlex.split(line.split("#")[0])[1:] for line in _readme_command_lines()
                 if line.startswith("vertexlie ")]


@pytest.mark.parametrize("argv", _README_ARGVS + [shlex.split(line) for line in _SAME_VALUES],
                         ids=" ".join)
def test_parser_reads_what_argparse_read(argv: list) -> None:
    expected = _parsed(_argparse_reference().parse_args, argv)
    assert type(expected) is dict
    assert _parsed(cli._parse, argv) == expected


@pytest.mark.parametrize("line", _USAGE_ERRORS)
def test_parser_usage_errors_exit_2_as_under_argparse(line: str) -> None:
    argv = shlex.split(line)
    assert _parsed(_argparse_reference().parse_args, argv)[0] == 2
    code, out, err = _parsed(cli._parse, argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    prog = f"vertexlie {argv[0]}" if argv and argv[0] in cli._COMMANDS else "vertexlie"
    assert usage.startswith(f"usage: {prog} [-h]")
    assert error.startswith(f"{prog}: error: ")


@pytest.mark.parametrize("line", ["-h", "--help", "--he", "check -h", "verma --help",
                                  "export-preset virasoro --he", "check --bound 3 -h --bogus"])
def test_parser_help_exits_0_on_stdout(line: str) -> None:
    argv = shlex.split(line)
    code, out, err = _parsed(cli._parse, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: vertexlie") and len(out.splitlines()) > 3
    if argv[0] in cli._COMMANDS:
        assert out.startswith(f"usage: vertexlie {argv[0]} [-h]")


def test_parser_differs_from_argparse_where_documented() -> None:
    reference = _argparse_reference().parse_args
    # a flag's value is the next token as it stands, even when it starts with "-"
    argv = ["verma", "--preset", "virasoro", "--cutoff", "8", "--level", "-5/2", "--dims"]
    assert _parsed(reference, argv)[0] == 2
    assert _parsed(cli._parse, argv)["level"] == "-5/2"
    # an integer is ASCII digits with an optional sign, as in formula files
    for argv, token in ((["check", "--preset", "virasoro", "--bound", "３"], "３"),
                        (["check", "--preset", "virasoro", "--bound", "1_0"], "1_0"),
                        (["bracket", "--preset", "virasoro", "u", "３", "u", "-1"], "３")):
        assert type(_parsed(reference, argv)) is dict
        code, out, err = _parsed(cli._parse, argv)
        assert (code, out) == (2, "") and f"invalid int value: {token!r}" in err


@pytest.mark.parametrize("argv,token", [
    (["check", "--preset", "virasoro", "--bound", "1_0"], "1_0"),
    (["check", "--preset", "virasoro", "--window", "٢"], "٢"),
    (["defect", "--preset", "virasoro", "--bound", "８"], "８"),
    (["bracket", "--preset", "virasoro", "omega", "３", "omega", "-1"], "３"),
    (["bracket", "--preset", "virasoro", "omega", "3", "omega", "-١"], "-١"),
    (["verma", "--preset", "virasoro", "--cutoff", "6", "--act", "omega_-١"], "-١"),
    (["verma", "--preset", "virasoro", "--cutoff", "6", "--act", "omega_３ omega_-1"], "３"),
    (["verma", "--preset", "virasoro", "--cutoff", "8", "--field", "omega_-1", "３", "1"],
     "３"),
])
def test_cli_integers_are_ascii_digits(argv: list, token: str, capsys) -> None:
    # int() would read "1_0" as 10 and every Unicode decimal digit as its value
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert token in captured.err


@pytest.mark.parametrize("argv,code,stream", [
    (["-h"], 0, "stdout"), (["check", "-h"], 0, "stdout"),
    (["frobnicate"], 2, "stderr"), (["check", "--bound", "x"], 2, "stderr"),
])
def test_cli_entry_point_usage(argv: list, code: int, stream: str) -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-m", "vertexlie.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == code
    if code == 0:
        assert child.stdout.startswith("usage:") and child.stderr == ""
    else:
        assert child.stdout == ""
        assert child.stderr.startswith("usage:") and "error:" in child.stderr


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _load_bench(name: str):
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    loader = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def test_benchmark_job_lists_build(tmp_path, monkeypatch) -> None:
    # building a round's jobs calls the public API (generator, affine,
    # LieElement, ...) as `bench/worker.py` does; no job is run here
    monkeypatch.setitem(sys.modules, "reference", _load_bench("reference"))
    workloads = _load_bench("workloads")
    for name, build in workloads.JOB_LISTS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        jobs = build(vertexlie, workloads.round_rng(workloads.DEFAULT_SEED, 0), str(workdir))
        assert jobs, name


def test_benchmark_traced_names_resolve() -> None:
    # `bench/run.py --trace 1` wraps each of these functions by name
    tracing = _load_bench("tracing")
    assert tracing.NAMES
    for name in tracing.NAMES:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"vertexlie.{module}"), function, None)), name
