#!/usr/bin/env python3
"""Benchmark of the ConQuer-92 engine.

    python3 bench/run.py --workload join_scan --seed 1 --seconds 15 --trace 0

Runs one workload in this process, one closed-loop client, through the
engine's public entry points (`cli.run_query` on a `cli.Session`,
`cli.cmd_derive`, `cli.cmd_constraints`, `population.load_population`,
`cli.load_full_schema`), checks every answer with `check.py`, and prints one
JSON object as the last line of standard output.  With `--trace 0` it holds
the end-to-end metrics; with `--trace 1` the per-layer metrics of a traced
run (see spans.py), whose spans are written to bench/out/.

The work of a run is fixed by its arguments: the seed gives the inputs, and
`--seconds` sets the number of timed operations through a nominal rate per
workload, so that a run takes about that long at the seed commit.  Nothing
in the loop looks at the clock to decide what to do next.

The engine is imported from src/ of the checkout this file sits in; without
it the benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_engine() -> None:
    """Put the checkout's src/ first on the path and check that the engine
    comes from there, not from an installed copy."""
    if not (SRC / "conquer" / "__init__.py").is_file():
        sys.exit(f"bench: no engine source at {SRC / 'conquer'}")
    sys.path.insert(0, str(SRC))
    import conquer

    if Path(conquer.__file__).resolve().parent != (SRC / "conquer").resolve():
        sys.exit(f"bench: conquer imported from {conquer.__file__}, not from {SRC}")


def setup_child() -> None:
    """Time the engine's set-up in a fresh process: import, compile the
    schema, load the population.  The inputs arrive on stdin and are decoded
    before the clock starts."""
    inputs = json.loads(sys.stdin.read())
    start = time.perf_counter()
    import_engine()
    from conquer.cli import load_full_schema
    from conquer.population import load_population

    schema = load_full_schema(inputs["schema"])
    for doc in inputs["pops"]:
        load_population(schema, doc)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__" and sys.argv[1:] == ["--setup-child"]:
    setup_child()
    sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402
import gen  # noqa: E402

# Nominal operations per second of each workload at the seed commit; with
# --seconds they fix the number of timed operations of a run.
NOMINAL_RATE = {"join_scan": 2.8, "correlated": 3.0, "long_query": 3.5, "derive_check": 2.8}
WARMUP_OPS = 2
SETUP_SAMPLES = 21  # set-up timings per run, spread over the run


def engine_setup(wl: gen.Workload):
    """A session on the workload's schema, and its set-up populations."""
    from conquer.cli import Session, load_full_schema
    from conquer.population import load_population

    schema = load_full_schema(wl.schema_doc)
    pops = [load_population(schema, doc) for doc in wl.pop_docs]
    return Session(schema=schema, base_pop=pops[0], ambiguity=wl.ambiguity), pops


def time_setup(wl: gen.Workload) -> float:
    """One set-up timing, made by a fresh interpreter."""
    payload = json.dumps({"schema": wl.schema_doc, "pops": wl.pop_docs})
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child"],
        input=payload, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def prepare(session, pops, workload: str, op: gen.Op):
    """The benchmark's own work before an operation: for a query, put the
    session on the operation's population; for a derive operation, make the
    population document it will load."""
    if workload == "derive_check":
        return op.world.population_doc()
    if session.base_pop is not pops[op.pop]:
        session.base_pop, session.derived_pop = pops[op.pop], None
    return None


def execute(session, workload: str, op: gen.Op, prepared) -> str:
    from conquer.cli import cmd_constraints, cmd_derive, run_query
    from conquer.population import load_population

    if workload != "derive_check":
        return run_query(session, op.text)
    session.base_pop = load_population(session.schema, prepared)
    session.derived_pop = None
    return cmd_derive(session) + "\n\n" + cmd_constraints(session)


def timed(session, pops, workload: str, op: gen.Op) -> tuple[float, str | None, bool]:
    """Run one operation after a full garbage collection; returns its wall time,
    its output (None when it raised) and whether the output is wrong."""
    prepared = prepare(session, pops, workload, op)
    gc.collect()
    start = time.perf_counter()
    try:
        out = execute(session, workload, op, prepared)
    except Exception as e:  # a raised error is a failed operation, reported below
        elapsed = time.perf_counter() - start
        print(f"bench: {op.kind} raised {type(e).__name__}: {e} -- {op.text[:100]}", file=sys.stderr)
        return elapsed, None, False
    elapsed = time.perf_counter() - start
    reason = check.check(workload, op, out)
    if reason:
        print(f"bench: wrong answer to {op.kind}: {reason} -- {op.text[:100]}", file=sys.stderr)
    return elapsed, out, reason is not None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    import_engine()
    n_ops = max(10, round(args.seconds * NOMINAL_RATE[args.workload]))
    wl = gen.make_workload(args.workload, ROOT, args.seed, WARMUP_OPS + n_ops)
    session, pops = engine_setup(wl)

    attempted = failed = wrong = 0
    times: list[float] = []
    setup: list[float] = []
    per_op: list[dict[str, float]] = []
    traced_times: list[float] = []
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    setup_at = {WARMUP_OPS + (i * n_ops) // SETUP_SAMPLES for i in range(SETUP_SAMPLES)}

    for i, op in enumerate(wl.ops):
        if tracer is None and i in setup_at:
            setup.append(time_setup(wl))
        # with tracing, the same operation runs untraced and then traced
        for traced in (False, True) if tracer else (False,):
            with tracer if traced else contextlib.nullcontext():
                elapsed, out, bad = timed(session, pops, args.workload, op)
            attempted += 1
            failed += out is None or bad
            wrong += bad
            layer = tracer.finish_op() if traced else None
            if i >= WARMUP_OPS:
                (traced_times if traced else times).append(elapsed)
                if traced:
                    per_op.append(layer)

    if tracer is None:
        metrics = {
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_ms": (statistics.median(times) * 1000, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from spans import METRICS

        tracer.write(ROOT / "bench" / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = {}
        for name, unit in METRICS:
            if name == "trace.untraced_ops_per_s":
                metrics[name] = (len(times) / sum(times), unit)
            elif name == "trace.traced_ops_per_s":
                metrics[name] = (len(traced_times) / sum(traced_times), unit)
            else:  # over the operations that used the layer; 0 if none did
                values = [m[name] for m in per_op if name in m]
                metrics[name] = (statistics.median(values) if values else 0.0, unit)
        print(f"bench: tracing overhead {sum(traced_times) / sum(times):.3f}x on {args.workload}", file=sys.stderr)

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
