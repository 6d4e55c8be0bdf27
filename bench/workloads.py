"""Seeded job lists of the three workloads.

Each workload function takes the imported package, a seeded
`random.Random` and a scratch directory, and returns the round's jobs.
All inputs are made here; the library only receives the finished
inputs, through public names.  Every round of a run draws its inputs
from its own generator, `round_rng(seed, round)`, so a run samples
several rounds' worth of inputs and the same seed gives the same inputs.
The cost structure of a round (which presets, how many jobs of each
kind, windows and cutoffs) is fixed, so that the seed changes the
inputs but not the amount of work: its run-to-run spread stays small.

A job's output is turned into a canonical JSON value; its SHA-256
digest is compared with `digests.json` (recorded on the seed commit
with the default seed) and with the same job in other rounds, and
closed-form jobs are also compared with `reference.py`.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import reference

DEFAULT_SEED = 0
WORKLOADS = ("check", "modes", "vacuum")

CLEAN = ("virasoro", "neveu-schwarz", "affine-sl2", "heisenberg", "loop-abelian",
         "novikov-lambda", "comm-assoc-dual")
PRESETS = CLEAN + ("novikov-flipped",)


def round_rng(seed: int, index: int) -> random.Random:
    """The generator of round `index` of a run with `seed`."""
    return random.Random(f"{seed}/{index}")


class Job:
    """One top-level public call, with its canonical output and reference.

    `call` runs the job and is the only part that is timed; `canon`
    maps its result to a JSON value; `expect`, when given, decides from
    that value whether a closed form holds.
    """

    __slots__ = ("key", "kind", "call", "canon", "expect")

    def __init__(self, key, kind, call, canon, expect=None):
        self.key, self.kind, self.call, self.canon, self.expect = key, kind, call, canon, expect


def _rational(rng) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 1, 2, 3, 4)))


# ---------------------------------------------------------------------------
# check: `vertexlie check FILE --json` on exported and typo'd tables
# ---------------------------------------------------------------------------

# Typo'd variants per base table and round.  Virasoro typos are the
# median job and the dim-3 tables the 90th percentile, each well inside
# its block of similar costs; gl3 (dim 10) puts the sweep cost in the tail.
TYPOS = {"loop-abelian": 16, "heisenberg": 16, "virasoro": 40, "affine-sl2": 4,
         "neveu-schwarz": 4, "novikov-lambda": 4, "novikov-flipped": 4,
         "comm-assoc-dual": 4, "gl3": 1}


def gl_n(vl, n: int):
    """gl_n with the trace form, through the public LieData API."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    index = {p: k for k, p in enumerate(pairs)}
    d = len(pairs)
    bracket = [[[0] * d for _ in range(d)] for _ in range(d)]
    form = [[0] * d for _ in range(d)]
    for (i, j), a in index.items():
        for (k, l), b in index.items():
            # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj, <E_ij, E_kl> = delta_jk delta_li
            if j == k:
                bracket[a][b][index[(i, l)]] += 1
            if l == i:
                bracket[a][b][index[(k, j)]] -= 1
            if j == k and l == i:
                form[a][b] = 1
    return vl.LieData([f"E{i}{j}" for i, j in pairs], bracket, form)


def typo(rng, text: str, op: str) -> str:
    """The table with one constant changed, dropped or added (`op`)."""
    lines = text.split("\n")
    b0 = lines.index("[basis]") + 1
    labels = [line.split()[0] for line in lines[b0:lines.index("", b0)]]
    c0 = lines.index("[constants]") + 1
    rows = [i for i in range(c0, len(lines)) if lines[i]]
    heads = {lines[i].split(":")[0].strip(): i for i in rows}
    n_top = max([int(lines[i].split()[1]) for i in rows], default=1)
    k_top = max([int(t.split()[0]) for i in rows for t in lines[i].split(":")[1].split(",")],
                default=0)
    if op == "add" or not rows:
        head = f"{rng.choice(labels)} {rng.randint(0, n_top)} {rng.choice(labels)}"
        term = f"{rng.randint(0, k_top)} {rng.choice(labels)} {_rational(rng)}"
        if head in heads:
            lines[heads[head]] += f", {term}"
        else:
            lines.insert(c0 + len(rows), f"{head} : {term}")
        return "\n".join(lines)
    i = rng.choice(rows)
    head, tail = lines[i].split(":")
    terms = [t.split() for t in tail.split(",")]
    j = rng.randrange(len(terms))
    if op == "drop":
        del terms[j]
        if not terms:
            del lines[i]
            return "\n".join(lines)
    else:
        old = Fraction(terms[j][2])
        new = _rational(rng)
        while new == old:
            new = _rational(rng)
        terms[j][2] = str(new)
    lines[i] = f"{head.strip()} : " + ", ".join(" ".join(t) for t in terms)
    return "\n".join(lines)


def _check_call(cli, path: str):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(["check", path, "--json"])
        return rc, out.getvalue(), err.getvalue().replace(path, "<file>")
    return call


def _check_canon(result) -> dict:
    rc, out, err = result
    return {"rc": rc, "stdout": out, "stderr": err}


def build_check(vl, rng, workdir: str) -> list:
    from vertexlie import cli, formula_io

    bases = {name: formula_io.export_formula(vl.preset(name)) for name in PRESETS}
    bases["gl3"] = formula_io.export_formula(vl.affine(gl_n(vl, 3)))
    tables = [(name, text, True) for name, text in bases.items()]
    seen = set(bases.values())
    for name, count in TYPOS.items():
        for k in range(count):
            # the ops take turns so every seed has the same mix; a table
            # with nothing left to drop or change gets a constant added
            op = ("change", "drop", "add")[k % 3]
            text, tries = typo(rng, bases[name], op), 1
            while text in seen:
                text, tries = typo(rng, bases[name], op if tries < 8 else "add"), tries + 1
            seen.add(text)
            tables.append((name, text, False))
    rng.shuffle(tables)
    jobs = []
    for k, (name, text, clean) in enumerate(tables):
        path = os.path.join(workdir, f"table-{k}.vla")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        key = json.dumps(["check", text])
        expect = (lambda canon, name=name: reference.check_verdict(name, canon)) if clean else None
        jobs.append(Job(key, "check", _check_call(cli, path), _check_canon, expect))
    return jobs


# ---------------------------------------------------------------------------
# modes: window laws and repeated bracket queries in the mode algebra
# ---------------------------------------------------------------------------

# Two windows per preset, sized so each costs about the same: the 14
# window jobs are the slowest seventh of a round's 98, and p90 falls
# among the novikov-lambda and comm-assoc-dual windows, whose costs are
# close together, so it does not jump when two windows swap places.
WINDOWS = {"virasoro": (4, 5), "neveu-schwarz": (1, 2), "affine-sl2": (1, 2),
           "heisenberg": (5, 6), "loop-abelian": (8, 9), "novikov-lambda": (1, 2),
           "comm-assoc-dual": (1, 2)}
# bracket queries per round and preset; each distinct query is asked
# ASKED times, as a user exploring the algebra would, so the median job is a
# repeated query and not the boundary between first and repeated ones
BRACKETS = {"virasoro": 20, "affine-sl2": 20, "heisenberg": 8, "loop-abelian": 4,
            "neveu-schwarz": 12, "novikov-lambda": 8, "comm-assoc-dual": 12}
ASKED = 4
MODE_RANGE = 30
# terms per element: a bracket job sums TERMS**2 generator brackets, so
# its cost varies little with the seed's choice of modes
TERMS = 8


def _lie_canon(spec):
    return lambda x: sorted([spec.labels[g.bid], g.n, str(c)] for g, c in x.items())


def _lie_terms(rng, spec) -> list:
    """TERMS terms whose labels cycle through the basis (so every element
    has the same mix of central and non-central ones) in seeded order,
    with seeded modes and coefficients."""
    labels = [spec.labels[k % len(spec.labels)] for k in range(TERMS)]
    rng.shuffle(labels)
    return [[label, rng.randint(-MODE_RANGE, MODE_RANGE), str(_rational(rng))]
            for label in labels]


def _lie_element(vl, spec, terms):
    return vl.LieElement([(vl.generator(spec, label, n), Fraction(c)) for label, n, c in terms])


def build_modes(vl, rng, workdir: str) -> list:
    """Window checks first (so each spec's verdict is always paid by a
    window job), then the bracket queries in seeded order."""
    specs = {name: vl.preset(name) for name in CLEAN}
    windows, brackets = [], []
    for name in CLEAN:
        spec = specs[name]
        for window in WINDOWS[name]:
            windows.append(Job(json.dumps(["window", name, window]), "window",
                               lambda spec=spec, window=window: vl.jacobi_window_verify(spec, window),
                               lambda bad: [str(v) for v in bad],
                               lambda canon: canon == []))
    for name, count in BRACKETS.items():
        spec = specs[name]
        pool = [(_lie_terms(rng, spec), _lie_terms(rng, spec)) for _ in range(count // ASKED)]
        for xt, yt in pool * ASKED:
            x, y = _lie_element(vl, spec, xt), _lie_element(vl, spec, yt)
            want = reference.bracket(name, xt, yt)
            brackets.append(Job(json.dumps(["bracket", name, xt, yt]), "bracket",
                                lambda spec=spec, x=x, y=y: vl.bracket(spec, x, y),
                                _lie_canon(spec),
                                None if want is None else (lambda canon, want=want: canon == want)))
    rng.shuffle(brackets)
    return windows + brackets


# ---------------------------------------------------------------------------
# vacuum: graded dimensions, mode words, field coefficients, spot-checks
# ---------------------------------------------------------------------------

# Cutoffs sized so that each graded_dimension call (the second one pays
# only the weights past the first cutoff) costs about 45-115 ms, more
# than all but a few seeded jobs: with the spot-checks they are the
# slowest eighth of a round (21 of 175 jobs), so p90 falls among them
# whatever the seed.
DIMS_CUTOFFS = {"virasoro": (25, 28), "neveu-schwarz": (15, 18), "affine-sl2": (7, 9),
                "heisenberg": (20, 22), "loop-abelian": (12, 13),
                "novikov-lambda": (14, 17), "comm-assoc-dual": (14, 17)}
SPOT_CUTOFFS = {"virasoro": 3, "neveu-schwarz": 1, "affine-sl2": 1, "heisenberg": 2,
                "loop-abelian": 2, "novikov-lambda": 1, "comm-assoc-dual": 1}
WORDS = 16   # act_word jobs per preset and round; the median job is one
FIELDS = 6   # field_coefficient jobs per preset and round


def _pbw_canon(spec):
    def canon(v):
        return [[[[spec.labels[g.bid], g.n] for g in m.factors], str(c)] for m, c in v.items()]
    return canon


def _word_terms(rng, spec, length: int, lo: int, hi: int, start: int) -> list:
    """Modes of non-central basis vectors (central modes only scale or vanish).
    The modes cycle through lo..hi from `start`, and the labels through the
    basis from a seeded start; both in seeded order.  The job slot fixes
    `start`, so every seed has the same mix of word weights and costs."""
    labels = [v.label for v in spec.vectors if v.index != spec.central]
    a = rng.randrange(len(labels))
    names = [labels[(a + k) % len(labels)] for k in range(length)]
    modes = [lo + (start + k) % (hi - lo + 1) for k in range(length)]
    rng.shuffle(names)
    rng.shuffle(modes)
    return [list(t) for t in zip(names, modes)]


def _word(vl, spec, terms):
    return [vl.generator(spec, label, n) for label, n in terms]


def _act_call(vl, spec, word, level):
    def call():
        out = vl.act_word(spec, word)
        return out if level is None else vl.specialize_level(spec, out, level)
    return call


def _field_call(vl, spec, a_word, n, b_word, cutoff, level):
    def call():
        a, b = vl.act_word(spec, a_word), vl.act_word(spec, b_word)
        out = vl.field_coefficient(spec, a, n, b, cutoff)
        return out if level is None else vl.specialize_level(spec, out, level)
    return call


def build_vacuum(vl, rng, workdir: str) -> list:
    """Graded dimensions first (each spec's verdict is always paid by one),
    then mode words and field coefficients in seeded order, then the
    spot-checks, so every seed spreads the memo's work the same way."""
    dims, words, fields, spots = [], [], [], []
    for name in CLEAN:
        spec = vl.preset(name)
        for cutoff in DIMS_CUTOFFS[name]:
            want = reference.graded_dimension(name, cutoff)
            dims.append(Job(json.dumps(["dims", name, cutoff]), "dims",
                            lambda spec=spec, cutoff=cutoff: vl.graded_dimension(spec, cutoff),
                            lambda dims: [[str(w), d] for w, d in dims.items()],
                            lambda canon, want=want: canon == want))
        cutoff = SPOT_CUTOFFS[name]
        spots.append(Job(json.dumps(["spot", name, cutoff]), "spot",
                         lambda spec=spec, cutoff=cutoff: vl.axiom_spotcheck(spec, cutoff),
                         lambda r: {"ok": r.ok, "failures": list(r.failures)},
                         lambda canon: canon == {"ok": True, "failures": []}))
        canon = _pbw_canon(spec)
        for i in range(WORDS):
            # modes of either sign acting on a state made by negative modes
            terms = (_word_terms(rng, spec, 1 + i % 2, -1, 2, i // 4)
                     + _word_terms(rng, spec, 4 + i // 2 % 2, -3, -1, i // 4))
            level = str(_rational(rng)) if i % 2 else None
            words.append(Job(json.dumps(["act", name, terms, level]), "act",
                             _act_call(vl, spec, _word(vl, spec, terms), level), canon))
        for i in range(FIELDS):
            a_terms = _word_terms(rng, spec, 1 + i % 2, -2, -1, i // 2)
            b_terms = _word_terms(rng, spec, 1 + i % 3, -2, -1, i // 3)
            n = rng.randint(-2, 3)
            cutoff = 8 + 2 * (i % 2)
            level = str(_rational(rng)) if i // 2 % 2 else None
            fields.append(Job(json.dumps(["field", name, a_terms, n, b_terms, cutoff, level]),
                              "field",
                              _field_call(vl, spec, _word(vl, spec, a_terms), n,
                                          _word(vl, spec, b_terms), cutoff, level),
                              canon))
    rng.shuffle(words)
    rng.shuffle(fields)
    return dims + words + fields + spots


JOB_LISTS = {"check": build_check, "modes": build_modes, "vacuum": build_vacuum}
