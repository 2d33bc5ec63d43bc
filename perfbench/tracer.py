"""In-memory span tracer that wraps `icm` functions from outside the library.

Every wrapped call records a span (name, start, end, parent, op id). Size
statistics are computed after the span closes; the time they take is
charged to the tracer, not to the caller's self time, because a parent's
self time subtracts each child's interval including its statistics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from workloads import laps


# Statistics per wrapped function: (args, result) -> {stat: number}.
def _compose_stats(args, result):
    f, g = args[0], args[1]
    return {"in_breakpoints": len(f.points) + len(g.points),
            "out_breakpoints": len(result.points),
            "in_laps": laps(g.points), "out_laps": laps(result.points)}


def _graphs_equal_stats(args, result):
    return {"in_segments": len(args[0]) + len(args[1]), "true": int(result)}


def _pullback_stats(args, result):
    f, g = args[0], args[1]
    return {"cells": (len(f.points) - 1) * (len(g.points) - 1),
            "out_segments": len(result)}


def _forward_stats(args, result):
    return {"out_segments": len(result)}


def _entropy_lap_stats(args, result):
    return {"final_laps": result.laps[-1][1]}


def _markov_stats(args, result):
    if result is None:
        return {"success": 0}
    return {"success": 1, "cells": len(result.partition) - 1}


# (module, attribute path, statistics). `cli.main` is the root of every op.
TARGETS = [
    ("icm.cli", "main", None),
    ("icm.core", "compose", _compose_stats),
    ("icm.setvalued", "commute", None),
    ("icm.setvalued", "strongly_commute", "pair"),
    ("icm.setvalued", "forward_graph", _forward_stats),
    ("icm.setvalued", "pullback_graph", _pullback_stats),
    ("icm.setvalued", "graphs_equal", _graphs_equal_stats),
    ("icm.setvalued", "SegmentSet.covers_segment", None),
    ("icm.setvalued", "verify_strong_consequences", None),
    ("icm.setvalued", "profile", None),
    ("icm.setvalued", "hats", None),
    ("icm.setvalued", "endpoints", None),
    ("icm.setvalued", "parametrization_coincidences", None),
    ("icm.decompose", "decompose", None),
    ("icm.decompose", "split_common_fixed", None),
    ("icm.decompose", "orientation", None),
    ("icm.decompose", "primary_critical_values", None),
    ("icm.decompose", "common_fixed_point", None),
    ("icm.entropy", "entropy_lap", _entropy_lap_stats),
    ("icm.entropy", "markov_partition", _markov_stats),
    ("icm.entropy", "entropy_setvalued", None),
    ("icm.pwl", "read_map", None),
    ("icm.pwl", "dump_map_text", None),
]


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('icm.')}.{attr}"


class Tracer:
    """Installs wrappers on the `icm` modules and collects spans in memory."""

    def __init__(self):
        # span: [name, start, end, end_with_stats, parent index, op id, stats]
        self.spans: list[list] = []
        self.pairs: list[tuple] = []  # (f, g) keys of strongly_commute calls
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, stats):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1,
                    self.op_id, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = span[3] = clock()
                stack.pop()
            if stats == "pair":
                self.pairs.append((args[0].points, args[1].points))
            elif stats is not None:
                span[6] = stats(args, result)
            span[3] = clock()
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target in every loaded `icm` module,
        so that calls through `from ... import` names are traced too."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "icm" or n.startswith("icm."))]
        for module_name, attr, stats in TARGETS:
            # `icm.decompose` as an attribute is the re-exported function.
            module = importlib.import_module(module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, stats))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, stats)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Span duration minus the intervals of its direct children
        (each child's interval includes its statistics time)."""
        selfs = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                selfs[s[4]] -= s[3] - s[1]
        return selfs

    def summary(self, traced_ops: int) -> dict[str, float]:
        """Per-name totals: calls and self seconds per traced op, size
        statistics as means per call, `true`/`success` as ratios."""
        out: dict[str, float] = {}
        sums: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            acc = sums.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            acc["calls"] += 1
            acc["self_s"] += self_s
            for key, value in (span[6] or {}).items():
                acc[key] = acc.get(key, 0) + value
        for module_name, attr, _ in TARGETS:
            name = span_name(module_name, attr)
            acc = sums.get(name, {"calls": 0, "self_s": 0.0})
            calls = acc["calls"]
            out[f"{name}.calls"] = calls / traced_ops
            out[f"{name}.self_s"] = acc["self_s"] / traced_ops
            for key, value in acc.items():
                if key in ("calls", "self_s"):
                    continue
                if key == "true":
                    out[f"{name}.true_ratio"] = value / calls
                elif key == "success":
                    out[f"{name}.success_ratio"] = value / calls
                elif key == "cells" and name == "entropy.markov_partition":
                    successes = acc["success"]
                    out[f"{name}.cells"] = value / successes if successes else 0
                else:
                    out[f"{name}.{key}"] = value / calls
        pairs = len(self.pairs)
        out["setvalued.strongly_commute.distinct_ratio"] = (
            len(set(self.pairs)) / pairs if pairs else 0)
        return out

    def self_total(self) -> float:
        return sum(self.self_times())

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span, self_s in zip(self.spans, self.self_times()):
                name, start, end, _, parent, op_id, stats = span
                record = {"name": name, "start": start, "end": end,
                          "self": self_s, "parent": parent, "op": op_id}
                if stats:
                    record["stats"] = stats
                handle.write(json.dumps(record) + "\n")
