from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import vertexlie
from vertexlie import PRESETS, FormulaSpec, preset, virasoro
from vertexlie.cli import main
from vertexlie.formula_io import (
    FormulaFileError,
    export_formula,
    load_formula,
    parse_formula,
    save_formula,
)

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
    ]
    for text, line in cases:
        with pytest.raises(FormulaFileError) as err:
            parse_formula(text)
        assert err.value.line == line, text
        assert str(err.value).startswith(f"line {line}:")


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
# violations of the one preset that has them, and brackets, mode words
# and field coefficients whose results carry the coefficients 1, -1,
# other negatives and fractions.  Renderer and kernel changes must leave
# this output byte-identical.
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
# window check lists skew, derivation and Jacobi violations.
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
    # buffered, the write fails in the flush at exit; unbuffered, in print
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


def test_cli_check_file_not_utf8(tmp_path, capsys) -> None:
    # a UTF-16 byte-order mark, and a bad byte on the third line
    for data, message in [(b"\xff\xfe[\x00b\x00", "line 1: not UTF-8 text (byte 0xff)"),
                          (b"[basis]\na even\n\xe9 even\n", "line 3: not UTF-8 text (byte 0xe9)")]:
        path = tmp_path / "formula.vla"
        path.write_bytes(data)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {path}: {message}"]


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
