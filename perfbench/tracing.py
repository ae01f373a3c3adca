"""Per-layer timing from outside the engine, by wrapping its public functions.

Each traced function is replaced, in every ``dpo`` module namespace that
holds it, by a wrapper that records a span ``(id, parent, name, op, start,
end)``.  Callers inside the engine look the names up in their own module's
globals at call time, so patching e.g. ``dpo.rewriting.deletion`` and
``dpo.io.save_json`` (which ``dpo.cli`` reaches as ``io.save_json``) covers
every call.  Spans stay in memory and are written out once, at the end.
A function's self time is its total time minus the time of the traced calls
it made.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from types import ModuleType

# module -> public functions traced, as listed per layer in README.md
TRACED: dict[str, tuple[str, ...]] = {
    "rewriting": ("apply", "validate_rule", "dangling_condition", "find_matches"),
    "constructions": ("deletion", "gluing", "dangling_edges", "pullback_construct"),
    "diagrams": ("is_pushout_injective", "is_pullback", "pushout_mediator"),
    "morphism": ("enumerate_morphisms", "validate_morphism", "is_injective", "compose"),
    "graph": ("is_isomorphic", "validate_graph"),
    "independence": ("parallel_independent", "residual_match", "commute", "verify_commutation_squares"),
    "io": (
        "load_json",
        "load_graph",
        "load_rule",
        "load_morphism",
        "load_square",
        "save_json",
        "graph_to_json",
        "morphism_to_json",
        "rule_to_json",
        "check_report_to_json",
        "iso_witness_to_json",
        "derivation_trace_json",
    ),
    "cli": ("main",),
}

# counters kept next to the spans, as (owner, counter); the wrapper of the
# owning function updates them from each call's result, exception or file
COUNTERS = (
    ("rewriting.find_matches", "results"),
    ("rewriting.apply", "rejected"),
    ("constructions.pullback_construct", "pairs"),
    ("morphism.enumerate_morphisms", "results"),
    ("graph.is_isomorphic", "failed"),
    ("io", "bytes_read"),
    ("io", "bytes_written"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for module, functions in TRACED.items():
        for f in functions:
            names += [(f"{module}.{f}.calls", "count"), (f"{module}.{f}.total_s", "s"), (f"{module}.{f}.self_s", "s")]
    for owner, counter in COUNTERS:
        names.append((f"{owner}.{counter}", "B" if counter.startswith("bytes") else "count"))
    return names


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, object]] = []

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items() if name == "dpo" or name.startswith("dpo.")]
        for module, functions in TRACED.items():
            home = sys.modules[f"dpo.{module}"]
            for f in functions:
                original = getattr(home, f)
                wrapper = self._wrap(f"{module}.{f}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, original):
        index = len(self.names)
        self.names.append(name)
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans) + len(stack)
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, parent, index, self.op, start, end))
                if name == "rewriting.apply" and type(exc).__name__ == "DanglingConditionError":
                    counts["rewriting.apply.rejected"] += 1
                if name == "graph.is_isomorphic":
                    counts["graph.is_isomorphic.failed"] += 1
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, index, self.op, start, end))
            if name in ("rewriting.find_matches", "morphism.enumerate_morphisms"):
                counts[name + ".results"] += len(result)
            elif name == "constructions.pullback_construct":
                counts[name + ".pairs"] += len(result.node_pairs) + len(result.edge_pairs)
            elif name == "io.load_json":
                counts["io.bytes_read"] += _file_size(args[0] if args else kwargs.get("path"))
            elif name == "io.save_json":
                counts["io.bytes_written"] += _file_size(args[1] if len(args) > 1 else kwargs.get("path"))
            return result

        return functools.wraps(original)(wrapper)

    def metrics(self, factors: list[float]) -> dict[str, float]:
        """calls / total_s / self_s per traced function, plus the counters.

        A span's time is scaled by ``factors[op]`` of the op it ran in.
        """
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for sid, _, index, op, start, end in self.spans:
            name = self.names[index]
            calls[name] += 1
            total[name] += (end - start) * factors[op]
            own[name] += (end - start - child.get(sid, 0.0)) * factors[op]
        out: dict[str, float] = {}
        for metric, _unit in metric_names():
            owner, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(owner, 0)
            elif kind == "total_s":
                out[metric] = total.get(owner, 0.0)
            elif kind == "self_s":
                out[metric] = own.get(owner, 0.0)
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "op", "start_s", "end_s"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
