"""The three timed workloads, driven through swizzlesim's public API.

Each makes the calls ``swizzlesim simulate``, ``optimize`` or ``sweep``
make. ``prepare`` builds one round's inputs; ``run`` is the timed part and
returns what the checks need. No RNG anywhere: the kernel generators are
pure functions of their specs, so every round and every seed times the
same work.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field

import swizzlesim as sz
from swizzlesim.loop import SearchProposer

ARCH = sz.MI300X_LIKE
SOFTMAX_ROWS = 1024
SOFTMAX_ITERS = 10
# Footprints (in + out) from 2 MiB to 128 MiB against 8 x 4 MiB of L2, and
# row strides that are (512, 1024, 2048, 4096) and are not (1000, 3000) a
# power of two.
STENCIL_SIZES = (512, 1000, 1024, 2048, 3000, 4096)


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    # (trace label, baseline, swizzled) of every simulate_pair call
    pairs: list = field(default_factory=list)
    # (OptimizationResult, history entries) of the search, if any
    search: tuple | None = None

    def reports(self):
        """(trace label, report) of every simulation in the round."""
        for label, baseline, swizzled in self.pairs:
            yield label, baseline
            yield label, swizzled
        if self.search is not None:
            for entry in self.search[1]:
                if entry.report is not None:
                    yield "softmax", entry.report


def _failed(what: str) -> None:
    print(f"{what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class ListSink:
    """History sink that keeps the loop's entries in a list."""

    def __init__(self, entries: list):
        self.append = entries.append

    def close(self) -> None:
        pass


class TransposePair:
    """One simulate_pair on the default transpose: the LRU-bound case."""

    name = "transpose_pair"

    def specs(self):
        return {"transpose": sz.default_spec("transpose")}

    def prepare(self):
        trace = sz.generate_trace(sz.default_spec("transpose"))
        return trace, sz.builtin_pattern("transpose_band", trace.grid, ARCH)

    def run(self, inputs) -> RoundResult:
        trace, pattern = inputs
        out = RoundResult(attempted=2)
        try:
            baseline, swizzled = sz.simulate_pair(trace, ARCH, sz.ExecParams(), pattern)
        except Exception:
            _failed("transpose simulate_pair")
            out.failed = 2
            return out
        out.pairs.append(("transpose", baseline, swizzled))
        return out


class SoftmaxSearch:
    """optimize with the search proposer: one trace, many candidates."""

    name = "softmax_search"

    def specs(self):
        return {"softmax": sz.spec_with_size("softmax", SOFTMAX_ROWS)}

    def prepare(self):
        return sz.spec_with_size("softmax", SOFTMAX_ROWS), SearchProposer()

    def run(self, inputs) -> RoundResult:
        spec, proposer = inputs
        entries: list = []
        try:
            result = sz.optimize(spec, ARCH, proposer, max_iters=SOFTMAX_ITERS,
                                 history_sink=ListSink(entries))
        except Exception:
            _failed("softmax optimize")
            return RoundResult(attempted=SOFTMAX_ITERS + 1, failed=SOFTMAX_ITERS + 1)
        # one operation per history entry, the identity baseline included
        return RoundResult(attempted=len(entries), search=(result, entries))


class StencilSweep:
    """simulate_pair with stencil_group over sizes, a fresh trace per size."""

    name = "stencil_sweep"

    def specs(self):
        return {f"stencil2d-{n}": sz.spec_with_size("stencil2d", n) for n in STENCIL_SIZES}

    def prepare(self):
        return list(self.specs().items())

    def run(self, inputs) -> RoundResult:
        out = RoundResult()
        for label, spec in inputs:
            out.attempted += 1
            try:
                trace = sz.generate_trace(spec)
                pattern = sz.builtin_pattern("stencil_group", trace.grid, ARCH)
                baseline, swizzled = sz.simulate_pair(trace, ARCH, sz.ExecParams(), pattern)
            except Exception:
                _failed(f"{label} simulate_pair")
                out.failed += 1
                continue
            out.pairs.append((label, baseline, swizzled))
        return out


WORKLOADS = {w.name: w for w in (TransposePair(), SoftmaxSearch(), StencilSweep())}
