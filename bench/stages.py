#!/usr/bin/env python3
"""Trace one operation and print its per-layer metrics.

    python3 bench/stages.py --chain 8                  # the AND ALSO chain at k=8, demo population
    python3 bench/stages.py --persons 120 --query "Person who works for a Company c AND ALSO earns a Salary x"
    python3 bench/stages.py --persons 30 --companies 4 --query "Person who earns a Salary x AND ALSO \\
        works for a Company c WHERE x > THE AVERAGE Salary of a Person who works for c"
    python3 bench/stages.py --persons 200 --derive     # derive and constraints on the benchmark schema

Uses the benchmark's generator and tracer, so its figures are those of one
operation of a workload at the given size.  Without --persons the demo
population is used.  The operation runs once untraced first, as warm-up.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402
import run  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--query", help="query text")
    what.add_argument("--chain", type=int, metavar="K",
                      help='"Person who works for a Company c" + K x " AND ALSO earns a Salary x"')
    what.add_argument("--derive", action="store_true", help="derive and check constraints")
    ap.add_argument("--persons", type=int, default=0, help="generated persons (0: the demo population)")
    ap.add_argument("--companies", type=int, default=5)
    args = ap.parse_args()

    run.import_engine()
    from spans import METRICS, Tracer

    demo_schema, demo_pop = gen.load_demo(run.ROOT)
    if args.persons:
        world = gen.random_world(random.Random(1), args.persons, args.companies, balanced=True)
    else:
        world = gen.demo_world(demo_pop)
    text = args.query or "Person who works for a Company c" + " AND ALSO earns a Salary x" * (args.chain or 0)
    workload = "derive_check" if args.derive else "join_scan"
    schema_doc = gen.bench_schema(demo_schema) if args.derive else demo_schema
    op = gen.Op("derive", "", world=world) if args.derive else gen.Op("query", text)
    session, pops = run.engine_setup(gen.Workload(workload, schema_doc, [world.population_doc()], [op]))

    run.execute(session, workload, op, run.prepare(session, pops, workload, op))
    tracer = Tracer()
    with tracer:
        out = run.execute(session, workload, op, run.prepare(session, pops, workload, op))
    metrics = tracer.finish_op()
    print(out.split("\n")[-1])
    for name, unit in METRICS:
        if name in metrics:
            print(f"{name:28s} {metrics[name]:12.3f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
