"""Per-layer tracing from outside the engine.

`Tracer` wraps public functions of the engine's modules by replacing every
module-level name (and the `Bag.union` method) that refers to them; nothing
under src/ is edited.  Spans (name, start, end, parent) and counts are kept
in memory, one operation at a time, and `write` saves the spans at the end.
`op_metrics` turns one operation's spans and counts into the per-layer
metrics; run.py reports the median of each over the run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (metric prefix, module, attribute): functions that get a span.  Where an
# engine module imported the function under its own name, that name is
# replaced too.
SPANNED = [
    ("tokenize", "conquer.frontend.lexer", "tokenize"),
    ("parse_records", "conquer.frontend.parser", "parse_list_records"),
    ("parse_list", "conquer.frontend.lower", "parse_list"),
    ("disambiguate", "conquer.frontend.lower", "disambiguate"),
    ("verbalise", "conquer.verbalise", "verbalise_interpretation"),
    ("normalise", "conquer.paths", "normalise"),
    ("typing", "conquer.paths", "infer_typing"),
    ("translate", "conquer.paths", "translate"),
    ("order", "conquer.paths", "order_result"),
    ("derive", "conquer.paths", "apply_derivations"),
    ("constraint", "conquer.paths", "check_constraint"),
    ("evaluate", "conquer.relalg", "evaluate"),
    ("load", "conquer.population", "load_population"),
    ("run_query", "conquer.cli", "run_query"),
    ("cmd", "conquer.cli", "cmd_derive"),
    ("cmd", "conquer.cli", "cmd_constraints"),
]
# functions called once per row: counted, without a span
COUNTED = [
    ("scalar_calls", "conquer.relalg", "eval_scalar"),
    ("cond_calls", "conquer.relalg", "eval_cond"),
]

# every per-layer metric, in the order they are printed: (name, unit)
METRICS = [
    ("lexer.tokenize_ms", "ms"), ("lexer.tokens", "count"),
    ("parser.parse_ms", "ms"), ("parser.record_trees", "count"),
    ("lower.lower_ms", "ms"), ("lower.interpretations_kept", "count"), ("lower.kept_per_tree", "ratio"),
    ("disambiguate.ms", "ms"), ("disambiguate.readings_in", "count"), ("disambiguate.readings_out", "count"),
    ("verbalise.ms", "ms"), ("verbalise.calls", "count"),
    ("paths.normalise_ms", "ms"), ("paths.typing_ms", "ms"), ("paths.translate_ms", "ms"),
    ("paths.plan_tree_nodes", "count"), ("paths.plan_distinct_nodes", "count"),
    ("relalg.evaluate_ms", "ms"), ("relalg.evaluate_calls", "count"),
    ("relalg.scalar_calls", "count"), ("relalg.cond_calls", "count"), ("relalg.rows_out", "count"),
    ("bag.union_calls", "count"), ("bag.entries_copied", "count"),
    ("paths.order_ms", "ms"), ("cli.render_ms", "ms"),
    ("population.load_ms", "ms"), ("population.instances", "count"),
    ("paths.derive_ms", "ms"), ("paths.constraint_ms", "ms"),
    ("trace.untraced_ops_per_s", "1/s"), ("trace.traced_ops_per_s", "1/s"),
]

# outermost-span time of each spanned function, by metric name
TIMED = {
    "lexer.tokenize_ms": "tokenize", "parser.parse_ms": "parse_records", "disambiguate.ms": "disambiguate",
    "verbalise.ms": "verbalise", "paths.normalise_ms": "normalise", "paths.typing_ms": "typing",
    "paths.translate_ms": "translate", "relalg.evaluate_ms": "evaluate", "paths.order_ms": "order",
    "population.load_ms": "load", "paths.derive_ms": "derive", "paths.constraint_ms": "constraint",
}


@dataclasses.dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index into the operation's span list
    nested: bool  # inside another span of the same name


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.results: list[tuple[str, object]] = []  # sized after the operation, off the clock
        self.done: list[list[dict]] = []  # spans of finished operations, for `write`
        self.open_names: Counter = Counter()  # spans now open, by name
        self.patches = self._plan()

    # -- installing ------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        from conquer.bag import Bag

        engine = [m for name, m in sys.modules.items() if name == "conquer" or name.startswith("conquer.")]
        patches = []
        for prefix, mod_name, attr in SPANNED + COUNTED:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._span(prefix, orig) if (prefix, mod_name, attr) in SPANNED else self._count(prefix, orig)
            for mod in engine:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, name, orig, wrapper))
        orig_union = Bag.union
        counts = self.counts

        def union(bag, other):
            counts["union_calls"] += 1
            counts["entries_copied"] += len(bag._freq)
            return orig_union(bag, other)

        patches.append((Bag, "union", orig_union, union))
        return patches

    def install(self) -> None:
        for owner, name, _, wrapper in self.patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig, _ in self.patches:
            setattr(owner, name, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _span(self, prefix: str, fn):
        spans, stack, results, open_names = self.spans, self.stack, self.results, self.open_names
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(prefix, clock(), 0, stack[-1] if stack else None, open_names[prefix] > 0)
            spans.append(span)
            stack.append(index)
            open_names[prefix] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                open_names[prefix] -= 1
                stack.pop()
                span.end = clock()
            if prefix == "disambiguate":
                results.append(("readings_in", args[1]))
            results.append((prefix, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- one operation ---------------------------------------------------

    def finish_op(self) -> dict[str, float]:
        """The per-layer metrics of the operation just traced; resets the
        in-memory state for the next one."""
        metrics = op_metrics(self.spans, self.counts, self.results)
        self.done.append([dataclasses.asdict(s) for s in self.spans])
        self.spans.clear()
        self.counts.clear()
        self.results.clear()
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for i, spans in enumerate(self.done):
                for s in spans:
                    f.write(json.dumps({"op": i, **s}) + "\n")


def plan_nodes(plan) -> tuple[int, int]:
    """Relational-expression nodes of a plan, walked as a tree and as
    distinct objects; sub-plans inside scalars and conditions included."""
    from conquer import relalg as ra

    rel_types = ra.RelExpr.__args__
    tree, seen, stack = 0, set(), [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, rel_types):
            tree += 1
            seen.add(id(node))
        if dataclasses.is_dataclass(node) and type(node).__module__ == ra.__name__:
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
        elif isinstance(node, (tuple, list, frozenset)):
            stack.extend(node)
    return tree, len(seen)


def op_metrics(spans: list[Span], counts: Counter, results: list) -> dict[str, float]:
    """One operation's per-layer metrics.  Only the layers that ran in the
    operation have an entry, so a median over operations is taken over the
    operations that used the layer."""
    ms: Counter = Counter()  # outermost-span time by span name, in ns
    child_ns: Counter = Counter()  # by span index: time covered by its direct children
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end - s.start
    lower = render = 0
    for i, s in enumerate(spans):
        if s.nested:
            continue
        ms[s.name] += s.end - s.start
        if s.name == "parse_list":
            inner = sum(c.end - c.start for c in spans if c.parent == i and c.name in ("tokenize", "parse_records"))
            lower += s.end - s.start - inner
        elif s.name == "run_query":
            render += s.end - s.start - child_ns[i]
    out = {name: ms[key] / 1e6 for name, key in TIMED.items() if key in ms}
    if "parse_list" in ms:
        out["lower.lower_ms"] = lower / 1e6
    if "run_query" in ms:
        out["cli.render_ms"] = render / 1e6
    sized: Counter = Counter()
    for kind, value in results:
        if kind == "tokenize":
            sized["lexer.tokens"] += len(value)
        elif kind == "parse_records":
            sized["parser.record_trees"] += len(value)
        elif kind == "parse_list":
            sized["lower.interpretations_kept"] += len(value.interpretations)
        elif kind == "readings_in":
            sized["disambiguate.readings_in"] += len(value.interpretations)
        elif kind == "disambiguate":
            sized["disambiguate.readings_out"] += len(value.interpretations)
        elif kind == "verbalise":
            sized["verbalise.calls"] += 1
        elif kind == "translate":
            tree, distinct = plan_nodes(value)
            sized["paths.plan_tree_nodes"] += tree
            sized["paths.plan_distinct_nodes"] += distinct
        elif kind == "evaluate":
            sized["relalg.evaluate_calls"] += 1
            sized["relalg.rows_out"] += value.body.cardinality()
        elif kind == "load":
            sized["population.instances"] += sum(value.instances(t).cardinality() for t in value.types())
    out.update(sized)
    if sized["parser.record_trees"]:
        out["lower.kept_per_tree"] = sized["lower.interpretations_kept"] / sized["parser.record_trees"]
    if "evaluate" in ms:
        out["relalg.scalar_calls"] = counts["scalar_calls"]
        out["relalg.cond_calls"] = counts["cond_calls"]
    out["bag.union_calls"] = counts["union_calls"]
    out["bag.entries_copied"] = counts["entries_copied"]
    return out
