"""vertexlie benchmark: three workloads, end-to-end and per-module metrics.

Run from the root of a checkout (stdlib only, nothing to install):

    python3 bench/run.py --workload check --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload vacuum --seed 3 --seconds 25 --trace 1
    python3 bench/run.py --record     # rewrite digests.json (default seed, --seconds)

Load is one closed-loop client with one single-threaded worker process
at a time.  A run is a fixed number of rounds, enough to fill
`--seconds` on the baseline host (at least three); every round is a
fresh `worker.py` process, so every round starts cold without touching
the library's private caches.  Each round draws its own inputs from
the seed and its index (workloads.round_rng), so a run samples several
rounds' worth of seeded inputs, and the same seed and `--seconds` give
the same inputs.

Every time reported is normalised by the host's speed (speed.py): a
fixed standard-library calibration loop is timed before each job and
after the last, and each measured time is scaled to the speed at which
that loop takes `speed.REFERENCE_S`.  A job's latency is scaled by the
median of the six samples around it; set-up time by samples taken just
before the spawn and the worker's first ones; traced times by the
round's median sample.  The raw times are printed alongside.

With `--trace 0` the run reports the end-to-end metrics: set-up time,
peak RSS and wall time (the sum of the round's job latencies) are
medians over rounds; p50 and p90 are taken over the latencies of all
the run's jobs (every round has at least 100, so at least ten lie
beyond p90 in each, and every round has the same mix of job kinds).  With `--trace 1` every round repeats the first round's inputs;
the run alternates untraced and traced rounds and reports per-module
calls, self and total time (medians over traced rounds), outcome
ratios, and the tracing overhead (traced minus untraced `wall_s`);
calls and outcome counts must repeat exactly between traced rounds.

Every job is checked: closed forms from reference.py where they exist,
SHA-256 digests of the canonical output recorded on the seed commit
with the default seed (matched by input, so jobs that recur on every
seed are checked on every seed), and equal digests wherever a job
recurs within the run.  Expected library errors are part of a job's
output.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
# Seconds one round takes, set-up included, on the baseline host: a run
# of `--seconds` makes about seconds / ROUND_S rounds.
ROUND_S = {"check": 5.0, "modes": 2.2, "vacuum": 4.0}
RUN_LIMIT_S = 170.0   # a run must exit within 180 s
SETUP_LIMIT_S = 60.0
SETUP_SAMPLES = 3     # speed samples before a spawn, and taken from the worker
JOB_WINDOW = 2        # a job's speed: samples from JOB_WINDOW jobs before to after it

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
              "peak_rss_mb": "MB"}

PER_LAYER = {f"{name}.{field}": unit for name in tracing.NAMES
             for field, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))}
PER_LAYER.update({
    "defects.skew_defect.nonzero_ratio": "1",
    "defects.commutator_defect.nonzero_ratio": "1",
    "local_algebra.bracket.zero_ratio": "1",
    "verma.act.zero_ratio": "1",
    "verma.act.terms_out": "count",
    "verma.monomial_basis.monomials": "count",
    "trace.overhead_s": "s",
})
# per-layer metric -> (traced name, counter, base counter or None)
OUTCOME_METRICS = {
    "defects.skew_defect.nonzero_ratio": ("defects.skew_defect", "nonzero", "calls"),
    "defects.commutator_defect.nonzero_ratio": ("defects.commutator_defect", "nonzero", "calls"),
    "local_algebra.bracket.zero_ratio": ("local_algebra.bracket", "zero", "calls"),
    "verma.act.zero_ratio": ("verma.act", "zero", "calls"),
    "verma.act.terms_out": ("verma.act", "terms_out", None),
    "verma.monomial_basis.monomials": ("verma.monomial_basis", "monomials", None),
}


class BenchError(Exception):
    """A round could not run; the run prints no result."""


def _key(job_key: str) -> str:
    return hashlib.sha256(job_key.encode()).hexdigest()[:32]


def run_round(workload: str, seed: int, index: int, trace: bool, deadline: float) -> dict:
    """Spawn the worker of round `index`; set-up time runs from spawn to
    its `ready` line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = [speed.sample() for _ in range(SETUP_SAMPLES)]
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), str(index), "1" if trace else "0",
         OUTDIR],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_LIMIT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = perf_counter() - t0
        if line.strip() != "ready":
            proc.kill()
            _, err = proc.communicate()
            raise BenchError(f"worker set-up failed:\n{err.strip()}")
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("round did not finish within the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    data = json.loads(out.strip().splitlines()[-1])
    data["raw_setup_s"] = setup_s
    data["setup_s"] = setup_s * speed.factor(before + data["speed_s"][:SETUP_SAMPLES])
    data["traced"] = trace
    normalise(data)
    return data


def normalise(rnd: dict) -> None:
    """Scale the round's job latencies and traced times to the reference
    speed; `wall_s` becomes the sum of the scaled latencies."""
    samples = rnd["speed_s"]   # samples[i] before job i, samples[-1] after the last
    for i, job in enumerate(rnd["jobs"]):
        around = samples[max(0, i - JOB_WINDOW): i + JOB_WINDOW + 2]
        job["latency_s"] *= speed.factor(around)
    rnd["raw_wall_s"] = rnd["wall_s"]
    rnd["wall_s"] = sum(job["latency_s"] for job in rnd["jobs"])
    rnd["factor"] = speed.factor(samples)
    for row in rnd.get("layers", {}).values():
        row["self_s"] *= rnd["factor"]
        row["total_s"] *= rnd["factor"]


def round_count(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Closed loop: the next round starts only when the previous one ended.
    Traced runs alternate untraced and traced rounds on round 0's inputs."""
    deadline = perf_counter() + RUN_LIMIT_S
    count = round_count(workload, seconds)
    if trace:
        plan = [(0, k % 2 == 1) for k in range(max(count, 2 * MIN_ROUNDS))]
    else:
        plan = [(k, False) for k in range(count)]
    return [run_round(workload, seed, index, traced, deadline) for index, traced in plan]


def check_outputs(rounds: list, reference: dict, seed: int) -> tuple:
    """Count failed jobs; returns (attempted, failed, notes)."""
    attempted = failed = by_closed = by_digest = 0
    seen = {}
    for rnd in rounds:
        for job in rnd["jobs"]:
            attempted += 1
            want = reference.get(_key(job["key"]))
            first = seen.setdefault(job["key"], job["digest"])
            bad = (job["unexpected"] is not None or job["closed_form"] is False
                   or job["digest"] != first
                   or (want is not None and job["digest"] != want))
            failed += bad
            by_closed += job["closed_form"] is not None
            by_digest += want is not None
    notes = [f"{by_closed} of {attempted} jobs checked against closed forms, "
             f"{by_digest} against seed-commit digests, {attempted - len(seen)} against "
             "the same job earlier in the run"]
    if seed != DEFAULT_SEED:
        notes.append(f"seed {seed} is not the default seed {DEFAULT_SEED}: only the closed "
                     "forms, the digests of jobs that recur on every seed, and determinism "
                     "across rounds apply")
    return attempted, failed, notes


def end_to_end(rounds: list) -> dict:
    """Medians over rounds, and p50 and p90 over all the run's jobs
    (times normalised)."""
    latencies = [j["latency_s"] for r in rounds for j in r["jobs"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(rounds: list) -> tuple:
    """Per-layer metrics and whether counts repeated across traced rounds."""
    traced = [r["layers"] for r in rounds if r["traced"]]
    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    counts = [{name: {k: v for k, v in row.items() if not k.endswith("_s")}
               for name, row in layers.items()} for layers in traced]
    repeat = all(c == counts[0] for c in counts)
    first = traced[0]
    out = {}
    for name in tracing.NAMES:
        out[f"{name}.calls"] = first[name]["calls"]
        for field in ("self_s", "total_s"):
            out[f"{name}.{field}"] = statistics.median(t[name][field] for t in traced)
    for metric, (name, counter, base) in OUTCOME_METRICS.items():
        value = first[name][counter]
        if base is not None:
            value = value / first[name][base] if first[name][base] else 0.0
        out[metric] = value
    traced_wall = statistics.median(r["wall_s"] for r in rounds if r["traced"])
    out["trace.overhead_s"] = traced_wall - statistics.median(plain)
    return out, repeat


def record(seconds: float) -> int:
    """Rewrite digests.json from the rounds of a run at the default seed."""
    table = {}
    for workload in WORKLOADS:
        jobs = [j for index in range(round_count(workload, seconds))
                for j in run_round(workload, DEFAULT_SEED, index, False,
                                   perf_counter() + RUN_LIMIT_S)["jobs"]]
        bad = [j["key"][:80] for j in jobs
               if j["unexpected"] is not None or j["closed_form"] is False]
        if bad:
            print(f"{workload}: not recording, {len(bad)} jobs failed: {bad[:3]}",
                  file=sys.stderr)
            return 1
        table[workload] = {_key(j["key"]): j["digest"] for j in jobs}
        print(f"{workload}: {len(table[workload])} digests")
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json from a run at the default seed and --seconds, then exit")
    args = parser.parse_args(argv)
    os.makedirs(OUTDIR, exist_ok=True)
    if args.record:
        return record(args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    with open(DIGESTS, encoding="utf-8") as handle:
        reference = json.load(handle)[args.workload]
    if args.trace:
        for old in glob.glob(os.path.join(OUTDIR, f"spans-{args.workload}-*.bin")):
            os.remove(old)

    rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, notes = check_outputs(rounds, reference, args.seed)
    plain = [r for r in rounds if not r["traced"]]
    e2e = end_to_end(plain)
    correct = failed == 0
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds "
          f"({len(plain)} untraced) of {len(rounds[0]['jobs'])} jobs, {attempted} jobs in all")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:12.4f} {END_TO_END[name]}")
    print(f"  {'fail_ratio':<12} {failed / attempted:12.4f} 1")
    print(f"  raw (unnormalised) medians: setup_s "
          f"{statistics.median(r['raw_setup_s'] for r in plain):.4f} s, wall_s "
          f"{statistics.median(r['raw_wall_s'] for r in plain):.4f} s; host speed "
          f"factor {min(r['factor'] for r in plain):.3f} to "
          f"{max(r['factor'] for r in plain):.3f}")
    for note in notes:
        print(f"  {note}")
    if args.trace:
        layers, repeat = per_layer(rounds)
        correct = correct and repeat
        print(f"  traced rounds: calls and outcome counts "
              f"{'repeat exactly' if repeat else 'DIFFER'}")
        idle = {name for name in tracing.NAMES if not layers[f"{name}.calls"]}
        for name, value in layers.items():
            if name.rsplit(".", 1)[0] not in idle:
                print(f"  {name:<44} {value:14.6f} {PER_LAYER[name]}")
        print(f"  not called: {', '.join(sorted(idle)) or 'none'}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
