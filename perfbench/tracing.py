"""Spans around the calls into each swizzlesim layer, recorded from outside.

The package itself is not instrumented: ``install`` replaces the entry
point of each layer (a module global or a class attribute) with a wrapper
that records a span ``[name, start, end, parent]`` in memory and counts
the work that crossed the boundary. ``uninstall`` puts the originals back.

An entry point that no longer exists is skipped, and every metric derived
from its layer is then reported as absent (value ``None``) instead of
failing the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from statistics import median

from swizzlesim import cachesim, loop, patterns, traces

# (owner, attribute, span name or None for a count-only wrapper, counter)
# The same function is reachable under several names (``loop.simulate`` is
# ``cachesim.simulate``); each call site looks up exactly one of them.
ENTRY_POINTS = (
    (traces.AccessTrace, "stream", "kernels.stream", "stream_calls"),
    (cachesim, "_expand_lines", "cachesim.expand", "lines_expanded"),
    (cachesim, "_interleave", "cachesim.schedule", None),
    (cachesim.SetAssocLru, "access_many", "cachesim.lru", "lru_touches"),
    (cachesim, "simulate", "cachesim.simulate", "simulate_calls"),
    (loop, "simulate", "cachesim.simulate", "simulate_calls"),
    (cachesim, "validated_remap_table", "patterns.validate", None),
    (loop, "check_bijectivity", "patterns.validate", None),
    (patterns, "remap_table", None, "remap_evals"),
    (loop, "locality_summary", "traces.locality", None),
    (loop.SearchProposer, "propose", "loop.propose", None),
)


class Tracer:
    """In-memory span list; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.present: set[str] = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        for owner, attr, span, counter in ENTRY_POINTS:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, counter))
            self.present.add(span or counter)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span, counter):
        counts = self.counts
        if span == "cachesim.schedule":
            return self._wrap_generator(fn, span)

        def wrapper(*args, **kwargs):
            idx = self.open(span) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self.close(idx)
            if counter == "lines_expanded":
                counts[counter] += len(result)
            elif counter == "lru_touches":
                counts[counter] += len(args[1])
            elif counter is not None:
                counts[counter] += 1
            if counter == "simulate_calls":
                counts["l2_accesses"] += result.accesses
                counts["l2_hits"] += result.hits
                counts["l2_misses"] += result.misses
            return result

        return wrapper

    def _wrap_generator(self, fn, span):
        # Each resumption of the schedule generator is one span, so the
        # stream and expansion work done while refilling slots nests in it.
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item

        return wrapper

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time covered by child spans."""
        own = Counter()
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


# Per-layer metric: (name, unit, the span or counter it derives from; the
# metric is absent when that entry point is gone). The README maps each to
# the end-to-end metric and workload it should move.
PER_LAYER = (
    ("kernels.stream_s", "s", "kernels.stream"),
    ("kernels.stream_calls_per_workgroup", "calls/wg", "kernels.stream"),
    ("cachesim.expand_s", "s", "cachesim.expand"),
    ("cachesim.lines_expanded", "count", "cachesim.expand"),
    ("cachesim.schedule_s", "s", "cachesim.schedule"),
    ("cachesim.lru_s", "s", "cachesim.lru"),
    ("cachesim.lru_mtouches_per_s", "M/s", "cachesim.lru"),
    ("cachesim.aggregate_s", "s", "cachesim.simulate"),
    ("cachesim.simulate_calls", "count", "cachesim.simulate"),
    ("cachesim.l2_accesses", "count", "cachesim.simulate"),
    ("cachesim.l2_hits", "count", "cachesim.simulate"),
    ("cachesim.l2_misses", "count", "cachesim.simulate"),
    ("traces.locality_s", "s", "traces.locality"),
    ("patterns.validate_s", "s", "patterns.validate"),
    ("patterns.remap_evals_per_candidate", "evals/cand", "remap_evals"),
    ("loop.propose_s", "s", "loop.propose"),
    ("loop.candidates", "count", None),
    ("loop.invalid_candidates", "count", None),
    ("loop.duplicates", "count", None),
    ("loop.s_per_candidate", "s", None),
    ("trace.overhead_s", "s", None),
    ("trace.unattributed_s", "s", None),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer,
    traced_walls: list[float],
    untraced_walls: list[float],
    workgroups: int,
    history: dict,
) -> dict:
    """Per-round layer figures from the spans of the traced rounds.

    ``traced_walls`` and ``untraced_walls`` are the round times with and
    without the wrappers; ``workgroups`` is the (wave, pid) count of the
    traces one round uses; ``history`` holds the loop's per-round candidate
    counts (all zero outside the search workload).
    """
    rounds = len(traced_walls)
    untraced_wall_s = median(untraced_walls)
    own = tracer.self_times()
    counts = tracer.counts
    per = {k: v / rounds for k, v in counts.items()}
    own_per = {k: v / rounds for k, v in own.items()}
    sim_calls = per.get("simulate_calls", 0.0)
    candidates = history["candidates"]
    invalid = history["invalid"]
    values = {
        "kernels.stream_s": own_per.get("kernels.stream", 0.0),
        "kernels.stream_calls_per_workgroup": _ratio(per.get("stream_calls", 0.0), workgroups),
        "cachesim.expand_s": own_per.get("cachesim.expand", 0.0),
        "cachesim.lines_expanded": per.get("lines_expanded", 0.0),
        "cachesim.schedule_s": own_per.get("cachesim.schedule", 0.0),
        "cachesim.lru_s": own_per.get("cachesim.lru", 0.0),
        "cachesim.lru_mtouches_per_s": _ratio(
            per.get("lru_touches", 0.0), own_per.get("cachesim.lru", 0.0) * 1e6
        ),
        "cachesim.aggregate_s": own_per.get("cachesim.simulate", 0.0),
        "cachesim.simulate_calls": sim_calls,
        "cachesim.l2_accesses": per.get("l2_accesses", 0.0),
        "cachesim.l2_hits": per.get("l2_hits", 0.0),
        "cachesim.l2_misses": per.get("l2_misses", 0.0),
        "traces.locality_s": own_per.get("traces.locality", 0.0),
        "patterns.validate_s": own_per.get("patterns.validate", 0.0),
        # A rejected candidate needs exactly one evaluation; the remaining
        # evaluations are spread over the simulated patterns.
        "patterns.remap_evals_per_candidate": _ratio(
            per.get("remap_evals", 0.0) - invalid, sim_calls
        ),
        "loop.propose_s": own_per.get("loop.propose", 0.0),
        "loop.candidates": candidates,
        "loop.invalid_candidates": invalid,
        "loop.duplicates": history["duplicates"],
        "loop.s_per_candidate": _ratio(untraced_wall_s, candidates),
        "trace.overhead_s": median(traced_walls) - untraced_wall_s,
        "trace.unattributed_s": sum(traced_walls) / rounds - sum(own_per.values()),
    }
    return {
        name: {"value": None if source and source not in tracer.present else values[name],
               "unit": unit}
        for name, unit, source in PER_LAYER
    }
