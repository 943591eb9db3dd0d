"""In-memory spans around calls into uftree's layers, installed from outside.

The tracer replaces public functions at the places the layers look them up
(module globals such as ``uftree.recognize.canonical_form``, and the
``RankedTree.descendants`` / ``child_table`` methods) with wrappers that
record a span: name, start, end, parent span and instance id.  Nothing under
``src/`` changes, and :meth:`Tracer.uninstall` restores every original.
Spans stay in compact arrays until the run ends; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

import workloads
from workloads import cli, forest, recognize, reduction, tree

REASONS = (
    recognize.REASON_UNION_TREE,
    recognize.REASON_CERTIFICATE,
    recognize.REASON_COUNT_FILTER,
    recognize.REASON_RANK_RANGE,
    recognize.REASON_MISSING_RANK,
    recognize.REASON_BUDGET,
)
EXIT_CODES = (cli.EXIT_ACCEPTED, cli.EXIT_REJECTED, cli.EXIT_USAGE, cli.EXIT_CAP)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.instance_names: list[str] = []  # indexed by a span's instance number
        self.current_instance = -1
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._canonical_seen: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans_name, spans_start, spans_end = self.name, self.start, self.end
        spans_parent, spans_instance, stack = self.parent, self.instance, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = len(spans_start)
            spans_name.append(nid)
            spans_parent.append(stack[-1] if stack else -1)
            spans_instance.append(self.current_instance)
            spans_end.append(0.0)
            stack.append(i)
            spans_start.append(clock())
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                spans_end[i] = clock()
                stack.pop()
                if after is not None:
                    after(args, result)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        count = self.counters
        seen = self._canonical_seen

        def canonical(args, result):
            count["tree.canonical_form.nodes"] += args[0].node_count
            if result is not None:
                seen.add(result[0])

        def verdict(args, result):
            count["recognize.memo.distinct"] += len(seen)
            seen.clear()
            if result is not None:
                count[f"recognize.reason.{result.reason}"] += 1
                if result.certificate is not None:
                    count["recognize.cert_steps"] += len(result.certificate)

        def exit_code(args, result):
            count["cli.exit.raised" if result is None else f"cli.exit.{result}"] += 1

        def add(key, measure):
            def after(args, result):
                if result is not None:
                    count[key] += measure(args, result)
            return after

        original_check = workloads.run_check

        def run_check(inst):
            # spans of one check and of the harness's replay share an id
            self.current_instance = len(self.instance_names)
            self.instance_names.append(inst.id)
            try:
                return original_check(inst)
            finally:
                self.current_instance = -1

        workloads.run_check = run_check
        self._patches.append((workloads, "run_check", original_check))

        wrap = self._wrap
        wrap(cli, "main", "cli.main", exit_code)
        wrap(cli, "parse_tree", "tree.parse_tree",
             add("tree.parse_tree.nodes", lambda a, r: r.node_count))
        wrap(tree, "validate", "tree.validate")
        wrap(recognize, "validate", "tree.validate")
        wrap(tree.RankedTree, "descendants", "tree.descendants")
        wrap(tree.RankedTree, "child_table", "tree.child_table")
        wrap(recognize, "canonical_form", "tree.canonical_form", canonical)
        wrap(recognize, "canonical_key", "tree.canonical_key")
        wrap(recognize, "subtree", "tree.subtree")
        wrap(recognize, "push", "tree.push")
        wrap(recognize, "is_union_find_tree", "recognize.is_union_find_tree", verdict)
        wrap(recognize, "is_union_tree", "recognize.is_union_tree")
        wrap(recognize, "count_filter", "recognize.count_filter")
        wrap(recognize, "parse_certificate", "recognize.parse_certificate")
        wrap(recognize, "check_certificate", "recognize.check_certificate")
        wrap(forest, "parse_oplog", "forest.parse_oplog")
        wrap(forest, "replay", "forest.replay", add("forest.replay.ops", lambda a, r: len(a[0])))
        wrap(forest, "export_trees", "forest.export_trees",
             add("forest.trees", lambda a, r: len(r)))
        wrap(reduction, "make_flat_tree", "reduction.make_flat_tree")
        wrap(reduction, "solve_partition", "reduction.solve_partition")
        wrap(reduction, "extract_solution", "reduction.extract_solution")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """A point to aggregate from: span count and counter snapshot."""
        return len(self.start), Counter(self.counters)

    def totals(self, since: tuple[int, Counter], until: tuple[int, Counter]) -> dict[str, float]:
        """Calls, inclusive seconds and self seconds per span name, plus the
        counters, over the spans recorded between two marks."""
        lo, hi = since[0], until[0]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out: Counter = Counter()
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += duration
            out[f"{name}.self_s"] += duration - child[i - lo]
        out.update(until[1])
        out.subtract(since[1])
        return dict(out)

    def write(self, path) -> None:
        """One JSON object per span, in start order; ``instance`` is the
        instance id, or null for spans outside any check (set-up, forest)."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                handle.write(json.dumps({
                    "name": self.names[self.name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "instance": self.instance_names[self.instance[i]] if self.instance[i] >= 0 else None,
                }) + "\n")


# Per-layer metrics read straight from the totals of one set-up plus one
# corpus pass, with their units; the derived ones follow in per_layer().
DIRECT = {
    "tree.descendants.calls": "count",
    "tree.descendants.self_s": "s",
    "tree.child_table.calls": "count",
    "tree.child_table.self_s": "s",
    "tree.canonical_form.calls": "count",
    "tree.canonical_form.self_s": "s",
    "tree.canonical_form.nodes": "count",
    "tree.subtree.calls": "count",
    "tree.subtree.self_s": "s",
    "recognize.is_union_find_tree.self_s": "s",
    "recognize.is_union_tree.calls": "count",
    "recognize.is_union_tree.self_s": "s",
    "recognize.count_filter.calls": "count",
    **{f"recognize.reason.{reason}": "count" for reason in REASONS},
    "recognize.check_certificate.self_s": "s",
    "tree.push.calls": "count",
    "recognize.cert_steps": "count",
    "tree.parse_tree.self_s": "s",
    "tree.validate.self_s": "s",
    "forest.parse_oplog.s": "s",
    "forest.replay.s": "s",
    "forest.export_trees.s": "s",
    "forest.trees": "count",
    "reduction.make_flat_tree.s": "s",
    "reduction.solve_partition.s": "s",
    "reduction.extract_solution.s": "s",
    **{f"cli.exit.{code}": "count" for code in EXIT_CODES},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(totals: dict[str, float], overhead: float) -> dict[str, dict]:
    """Every per-layer metric, as ``{name: {"value": v, "unit": u}}``."""
    values = {name: (totals.get(name, 0), unit) for name, unit in DIRECT.items()}
    canonical_calls = totals.get("tree.canonical_form.calls", 0)
    values["recognize.memo.hit_ratio"] = (
        1.0 - _ratio(totals.get("recognize.memo.distinct", 0), canonical_calls)
        if canonical_calls else 0.0,
        "ratio",
    )
    values["tree.parse_tree.nodes_per_s"] = (
        _ratio(totals.get("tree.parse_tree.nodes", 0), totals.get("tree.parse_tree.s", 0.0)),
        "1/s",
    )
    values["forest.replay.ops_per_s"] = (
        _ratio(totals.get("forest.replay.ops", 0), totals.get("forest.replay.s", 0.0)), "1/s"
    )
    values["trace.overhead_frac"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
