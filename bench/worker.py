"""One benchmark round in a fresh process: set up, print `ready`, run jobs.

Usage (started by run.py, from the root of a checkout):

    python3 bench/worker.py WORKLOAD SEED ROUND TRACE OUTDIR

Set-up imports vertexlie from the checkout's `src/` (never an installed
copy), optionally installs the tracing wrappers, and builds the
workload's inputs for round ROUND of the run with seed SEED.  The jobs then run one after another; each job's
latency covers only the library call.  A host-speed sample (`speed.py`)
is timed before every job and after the last, so that run.py can
normalise each latency by the host's speed around it.  The last line on
stdout is one JSON object with the per-job records, the speed samples,
the round's wall time and the process's peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
from time import perf_counter


def _load_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import vertexlie

    where = os.path.dirname(os.path.abspath(vertexlie.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise ImportError(f"vertexlie was imported from {where}, not from {src}")
    return vertexlie


def main(argv) -> int:
    workload, seed, index = argv[0], int(argv[1]), int(argv[2])
    trace, outdir = argv[3] == "1", argv[4]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    vl = _load_package(root)
    import speed
    import workloads

    tracer = None
    if trace:
        import tracing
        tracer = tracing.install()
    workdir = os.path.join(outdir, f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs = workloads.JOB_LISTS[workload](vl, workloads.round_rng(seed, index), workdir)
        print("ready", flush=True)
        records = []
        samples = [speed.sample()]
        wall = 0.0
        for job in jobs:
            unexpected = None
            t0 = perf_counter()
            try:
                result = job.call()
            except vl.FormulaError as exc:  # part of the output
                t1 = perf_counter()
                canon = {"error": type(exc).__name__, "message": str(exc)}
            except Exception as exc:  # the job failed
                t1 = perf_counter()
                canon, unexpected = None, f"{type(exc).__name__}: {exc}"
            else:
                t1 = perf_counter()
                canon = job.canon(result)
            wall += t1 - t0
            samples.append(speed.sample())
            digest = None if canon is None else hashlib.sha256(
                json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
            closed = None
            if job.expect is not None and unexpected is None:
                closed = bool(job.expect(canon))
            records.append({"key": job.key, "kind": job.kind, "latency_s": t1 - t0,
                            "digest": digest, "closed_form": closed, "unexpected": unexpected})
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out = {"wall_s": wall, "peak_rss_mb": rss_kb / 1024, "speed_s": samples,
               "jobs": records}
        if tracer is not None:
            out["layers"] = tracer.summary()
            tracer.write(os.path.join(outdir, f"spans-{workload}-{os.getpid()}.bin"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
