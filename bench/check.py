"""Answer checks computed apart from the engine.

Every expected answer is computed from the generator's records (`World`)
with plain Python and `Fraction`, following SQL-92 for NULL: comparisons
with NULL are unknown and drop the row, SUM/MIN/MAX/AVG skip NULLs and give
NULL over no values, COUNT counts every tuple.  `check(op, output)` returns
None when the engine's output is right, else a short reason.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from fractions import Fraction

import gen

NULL = None


def parse_table(text: str) -> tuple[list[str], list[tuple]]:
    """Split the CLI's table rendering into a header and typed rows."""
    lines = text.split("\n")
    footer = re.fullmatch(r"\((\d+) rows?\)", lines[-1])
    if footer is None or len(lines) < 3:
        raise ValueError(f"not a table: {text[:80]!r}")
    header = [h.strip() for h in lines[0].split(" | ")]
    rows = [tuple(_cell(c) for c in line.split(" | ")) for line in lines[2:-1]]
    if len(rows) != int(footer.group(1)) or any(len(r) != len(header) for r in rows):
        raise ValueError("row count or width does not match the table")
    return header, rows


def _cell(text: str):
    text = text.strip()
    if text == "NULL":
        return NULL
    if re.fullmatch(r"-?\d+(\.\d+)?", text):
        return Fraction(text)
    return text


COMPARATORS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
               "=": operator.eq, "<>": operator.ne}


def compare(a, op: str, b) -> bool:
    """Two-valued outcome of a filter: unknown (NULL) drops the row."""
    return a is not NULL and b is not NULL and COMPARATORS[op](a, b)


def _bag_diff(got: list[tuple], want: list[tuple]) -> str | None:
    g, w = Counter(got), Counter(want)
    if g == w:
        return None
    missing, extra = list((w - g).elements()), list((g - w).elements())
    return f"{len(missing)} rows missing (e.g. {missing[:2]}), {len(extra)} extra (e.g. {extra[:2]})"


def _expect_table(output: str, header: list[str], rows: list[tuple]) -> str | None:
    got_header, got_rows = parse_table(output)
    if got_header != header:
        return f"header {got_header} != {header}"
    return _bag_diff(got_rows, rows)


def _var_order(text: str) -> list[str]:
    """Named variables in order of first appearance (c and x here)."""
    found = [(m.start(), m.group(1)) for m in re.finditer(r"\b(?:Company|Salary) (c|x)\b", text)]
    order = []
    for _, v in sorted(found):
        if v not in order:
            order.append(v)
    return order


# ---------------------------------------------------------------------------
# join_scan


def join_rows(w: gen.World) -> list[tuple]:
    """(person, company, salary) for every person in both G and F."""
    return [(p, w.employer[p], w.salary[p]) for p in w.persons if p in w.employer and p in w.salary]


def _num(v):
    return NULL if v is NULL else Fraction(v)


def check_join_scan(op: gen.Op, output: str) -> str | None:
    rows = join_rows(op.world)
    kind, prm = op.kind, op.params
    if kind == "lookup":
        return _expect_table(output, ["HEAD", "x", "TAIL"],
                             [(p, _num(x), p) for p, c, x in rows if c == prm["company"]])
    full = [(p, c, _num(x), p) for p, c, x in rows]
    if kind == "join":
        return _expect_table(output, ["HEAD", "c", "x", "TAIL"], full)
    if kind == "filter":
        return _expect_table(output, ["HEAD", "c", "x", "TAIL"],
                             [r for r in full if compare(r[2], prm["op"], prm["bound"])])
    if kind == "group":
        counts = Counter(c for _, c, _ in rows)
        return _expect_table(output, ["HEAD", "TAIL"], [(Fraction(n), Fraction(n)) for n in counts.values()])
    if kind == "ordered":
        return check_ordered(output, ["HEAD", "c", "x", "TAIL"], full, prm["keys"])
    if kind == "projection":
        d = prm["divisor"]
        return _expect_table(output, ["c", f"x / {d}"],
                             [(c, NULL if x is NULL else Fraction(x, d)) for _, c, x in rows])
    raise ValueError(kind)


def check_ordered(output: str, header: list[str], rows: list[tuple], keys: list) -> str | None:
    """An ORDERED result is a permutation of the unordered result, sorted
    by its keys; NULL ranks above every value."""
    got_header, got_rows = parse_table(output)
    if got_header != header:
        return f"header {got_header} != {header}"
    diff = _bag_diff(got_rows, rows)
    if diff:
        return "not a permutation of the unordered result: " + diff

    def rank(row):
        return [(1,) if row[header.index(var)] is NULL else (0, row[header.index(var)]) for var, _ in keys]

    for a, b in zip(got_rows, got_rows[1:]):
        for (ka, kb), (_, direction) in zip(zip(rank(a), rank(b)), keys):
            if ka == kb:
                continue
            if (ka < kb) != (direction == "ASCENDING"):
                return f"rows {a} and {b} out of order"
            break
    return None


# ---------------------------------------------------------------------------
# correlated


def peers(w: gen.World, company: str) -> list[str]:
    return [q for q in w.persons if w.employer.get(q) == company]


def aggregate(kind: str, values: list):
    xs = [Fraction(v) for v in values if v is not NULL]
    if not xs:
        return NULL
    if kind == "avg":
        return sum(xs) / len(xs)
    return {"max": max, "min": min, "sum": sum}[kind](xs)


def correlated_holds(op: gen.Op, w: gen.World, person: str, company: str) -> bool:
    kind, prm = op.kind, op.params
    x = w.salary[person]
    salaries = [w.salary[q] for q in peers(w, company) if q in w.salary]
    if kind in ("avg", "max", "min"):
        return compare(x, prm["op"], aggregate(kind, salaries))
    if kind == "sum":
        return compare(aggregate("sum", salaries), prm["op"], prm["bound"])
    if kind == "count":  # COUNT counts NULL salaries too
        return compare(len(salaries), prm["op"], prm["bound"])
    if kind == "some":
        return (prm["value"] in salaries) != prm["negate"]
    raise ValueError(kind)


def check_correlated(op: gen.Op, output: str) -> str | None:
    w = op.world
    want = [(p, _num(x), c, p) for p, c, x in join_rows(w) if correlated_holds(op, w, p, c)]
    return _expect_table(output, ["HEAD", "x", "c", "TAIL"], want)


# ---------------------------------------------------------------------------
# long_query


def check_long_query(op: gen.Op, output: str) -> str | None:
    w = op.world
    if op.kind == "homonym":
        return check_homonym(op.text, output)
    # an AND ALSO chain holds for a person when every distinct term holds;
    # a k-fold chain of one fact therefore equals the single fact's result
    want = []
    for p in w.persons:
        env, ok = {}, True
        for term in op.params["terms"]:
            if term.startswith("earns"):
                ok &= p in w.salary
                m = re.fullmatch(r"earns a Salary: (\d+)", term)
                if m:
                    ok &= w.salary.get(p) == int(m.group(1))
                else:
                    env["x"] = _num(w.salary.get(p))
            else:
                ok &= p in w.employer
                m = re.fullmatch(r"works for a Company: '(\w+)'", term)
                if m:
                    ok &= w.employer.get(p) == m.group(1)
                else:
                    env["c"] = w.employer.get(p)
        if ok:
            want.append((p,) + tuple(env[v] for v in _var_order(op.text)) + (p,))
    return _expect_table(output, ["HEAD"] + _var_order(op.text) + ["TAIL"], want)


QUALIFIERS = ("Employment", "Contract")  # the fact types read "employs"


def _words(text: str) -> list[str]:
    return re.sub(r"[()]", "", text).split()


def check_homonym(text: str, output: str) -> str | None:
    """The query keeps exactly one reading per fact type read "employs",
    and the readings differ only in that qualifier."""
    lines = output.split("\n")
    if lines[0] != "ambiguous query; interpretations:":
        return f"expected two readings, got {lines[0]!r}"
    readings = [re.sub(r"^\s+\d+\. ", "", line) for line in lines[1:]]
    quals = [re.findall(r"employs\.(\w+)", r) for r in readings]
    if sorted(q for qs in quals for q in qs) != sorted(QUALIFIERS) or any(len(q) != 1 for q in quals):
        return f"readings {readings} do not name each of {QUALIFIERS} once"
    bare = {re.sub(r"employs\.\w+", "employs", r) for r in readings}
    if len(bare) != 1:
        return f"readings differ beyond the qualifier: {readings}"
    if _words(bare.pop()) != ["a"] + _words(text):
        return f"reading does not restate the query: {readings[0]!r}"
    return None


# ---------------------------------------------------------------------------
# derive_check


def derived_sizes(w: gen.World) -> dict[str, int]:
    high = {p for p, s in w.salary.items() if s is not NULL and s >= gen.HIGH_EARNER_MIN}
    big = {c for c in w.companies if len(peers(w, c)) >= gen.BIG_COMPANY_MIN}
    staff = {(c, p) for p, c, s in join_rows(w) if s is not NULL and s >= gen.STAFF_MIN}
    return {"HighEarner": len(high), "BigCompany": len(big), "Staff": len(staff)}


def constraint_verdicts(w: gen.World) -> list[bool]:
    sizes = derived_sizes(w)
    high_staff = any(
        s is not NULL and s >= max(gen.HIGH_EARNER_MIN, gen.STAFF_MIN) for _, _, s in join_rows(w)
    )
    return [
        bool(w.persons),
        sizes["HighEarner"] > 0,
        sizes["BigCompany"] > 0,
        not any(w.employer.get(p) == "co0" and s == gen.SALARIES[-1] for p, s in w.salary.items()),
        high_staff,
    ]


def check_derive(op: gen.Op, output: str) -> str | None:
    derive_out, constraints_out = output.split("\n\n")
    want = "\n".join(f"derived {t}: {n} instances" for t, n in derived_sizes(op.world).items())
    if derive_out != want:
        return f"derive reported {derive_out!r}, expected {want!r}"
    verdicts = constraint_verdicts(op.world)
    want_lines = [f"{'pass' if ok else 'FAIL'}: {t}" for t, ok in zip(gen.CONSTRAINTS, verdicts)]
    want_lines.append(f"{len(verdicts)} constraints checked, {verdicts.count(False)} failed")
    if constraints_out != "\n".join(want_lines):
        return f"constraints reported {constraints_out!r}, expected {want_lines!r}"
    return None


CHECKS = {
    "join_scan": check_join_scan,
    "correlated": check_correlated,
    "long_query": check_long_query,
    "derive_check": check_derive,
}


def check(workload: str, op: gen.Op, output: str) -> str | None:
    try:
        return CHECKS[workload](op, output)
    except (ValueError, KeyError, IndexError) as e:
        return f"unreadable output ({e}): {output[:120]!r}"
