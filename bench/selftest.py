#!/usr/bin/env python3
"""Quick self-test of the benchmark's answer checks.

    python3 bench/selftest.py

At a small size, every operation kind of every workload must pass its
check; then each check must reject a wrong answer: a dropped or doubled
row, rows out of order, an average over the wrong count, a wrong derived
size or constraint verdict, a lost reading.  Exits 1 if any of that fails.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def drop_row(table: str, index: int = 0) -> str:
    lines = table.split("\n")
    del lines[2 + index]
    n = len(lines) - 3
    lines[-1] = f"({n} row{'s' if n != 1 else ''})"
    return "\n".join(lines)


def double_row(table: str) -> str:
    lines = table.split("\n")
    lines.insert(2, lines[2])
    n = len(lines) - 3
    lines[-1] = f"({n} rows)"
    return "\n".join(lines)


def main() -> int:
    run.import_engine()
    # a small size: few persons, short chains
    gen.JOIN_SCAN_PERSONS, gen.CORRELATED_PERSONS, gen.DERIVE_PERSONS = [20, 24], [14, 16], [26, 30]
    gen.BIG_COMPANY_MIN, gen.CHAIN_K = 7, 3
    outputs: dict[str, list[tuple[gen.Op, str]]] = {}
    for name in gen.WORKLOADS:
        wl = gen.make_workload(name, run.ROOT, seed=0, n_ops=12)
        session, pops = run.engine_setup(wl)
        outputs[name] = []
        for op in wl.ops:
            out = run.execute(session, name, op, run.prepare(session, pops, name, op))
            reason = check.check(name, op, out)
            expect(reason is None, f"{name}/{op.kind} passes: {reason or op.text[:60]}")
            outputs[name].append((op, out))

    def first(name, kind):
        return next((op, out) for op, out in outputs[name] if op.kind == kind)

    # dropped and doubled rows
    for name, kind in [("join_scan", "join"), ("correlated", "avg"), ("long_query", "same")]:
        op, out = first(name, kind)
        expect(check.check(name, op, drop_row(out)) is not None, f"{name}/{kind}: a dropped row is rejected")
        expect(check.check(name, op, double_row(out)) is not None, f"{name}/{kind}: a doubled row is rejected")

    # an ORDERED result out of order, and one that is not a permutation
    op, out = first("join_scan", "ordered")
    lines = out.split("\n")
    lines[2], lines[-2] = lines[-2], lines[2]
    expect(check.check("join_scan", op, "\n".join(lines)) is not None, "join_scan/ordered: rows out of order are rejected")
    expect(check.check("join_scan", op, drop_row(out, 3)) is not None, "join_scan/ordered: a lost row is rejected")

    # a wrong average: the engine divides by one value too many
    import conquer.relalg as ra

    def avg_off_by_one(bag):
        total = ra.bag_sum(bag)
        return total if total is ra.NULL else total / (len([e for e in bag.elements() if e is not ra.NULL]) + 1)

    wl = gen.make_workload("correlated", run.ROOT, seed=0, n_ops=60)
    session, pops = run.engine_setup(wl)
    avg_ops = [op for op in wl.ops if op.kind == "avg"]
    saved, ra.bag_avg = ra.bag_avg, avg_off_by_one
    try:
        rejected = sum(
            check.check("correlated", op, run.execute(session, "correlated", op, run.prepare(session, pops, "correlated", op)))
            is not None for op in avg_ops
        )
    finally:
        ra.bag_avg = saved
    expect(rejected > 0, f"correlated/avg: an average over the wrong count is rejected ({rejected}/{len(avg_ops)})")

    # a wrong group count and a wrong projection value
    op, out = first("join_scan", "group")
    lines = out.split("\n")
    lines[2] = lines[2].replace(" ", "1 ", 1)  # the first count, times ten plus one
    expect(check.check("join_scan", op, "\n".join(lines)) is not None, "join_scan/group: a wrong count is rejected")
    op, out = first("join_scan", "projection")
    wrong = copy.copy(op)
    wrong.params = dict(op.params, divisor=op.params["divisor"] * 10)
    expect(check.check("join_scan", wrong, out) is not None, "join_scan/projection: a wrong quotient is rejected")

    # derive_check: a wrong size and a flipped verdict
    op, out = first("derive_check", "derive")
    expect(check.check("derive_check", op, out.replace(" instances", "1 instances", 1)) is not None,
           "derive_check: a wrong derived size is rejected")
    flipped = out.replace("pass: SOME a Person\n", "FAIL: SOME a Person\n", 1)
    expect(flipped != out and check.check("derive_check", op, flipped) is not None,
           "derive_check: a flipped constraint verdict is rejected")

    # long_query: a homonym query that lost one of its readings
    op, out = first("long_query", "homonym")
    expect(check.check("long_query", op, "\n".join(out.split("\n")[:2])) is not None,
           "long_query/homonym: a lost reading is rejected")
    one = out.replace(".Contract", ".Employment")
    expect(check.check("long_query", op, one) is not None, "long_query/homonym: a repeated reading is rejected")

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
