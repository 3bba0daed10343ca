"""Exact reference for the per-XCD L2 model, written from its stated rules.

It shares no code with ``swizzlesim.cachesim``; it follows the model the
cachesim module docstring states:

* launch pid ``i`` runs logical workgroup ``remap(i)`` on XCD
  ``i % num_xcds``; within a wave an XCD takes its launch pids in
  ascending order;
* each XCD keeps up to ``cus_per_xcd * wg_slots_per_cu`` workgroups
  resident and services them round-robin, one line touch per turn; a
  workgroup that finishes frees its slot, and the next one joins after the
  surviving slots; a workgroup with nothing to touch takes no slot;
* a wave drains every XCD before the next starts, and caches persist;
* a record spanning k lines is k ordered touches; every XCD has its own
  cache of ``l2_bytes_per_xcd`` with strict LRU per set, set index
  ``line % num_sets``, and writes allocate like reads.

Caches start empty. The remap table comes from the scalar expression
evaluator, not the vectorised one the simulator uses. Plain lists keep it
obviously correct and slow: use it on reduced instances only.
"""

from __future__ import annotations

from collections import deque

from swizzlesim import remap


def reference_table(pattern, grid, arch) -> list[int]:
    """Logical pid of every launch pid, one scalar evaluation each."""
    return [remap(pattern, pid, grid, arch) for pid in range(grid.total_blocks)]


def _lines(trace, logical: int, wave: int, line_bytes: int) -> list[int]:
    base = {buf.buffer_id: buf.base_offset for buf in trace.buffers}
    out: list[int] = []
    for rec in trace.records_for(logical, wave):
        start = base[rec.buffer_id] + rec.byte_offset
        first = start // line_bytes
        last = (start + rec.length_bytes - 1) // line_bytes
        out.extend(range(first, last + 1))
    return out


def reference_per_xcd(trace, table: list[int], arch) -> list[tuple[int, int]]:
    """(hits, misses) of every XCD for the trace run under ``table``."""
    line_bytes = arch.l2_line_bytes
    ways = arch.l2_associativity
    num_sets = arch.l2_bytes_per_xcd // (line_bytes * ways)
    slots = arch.cus_per_xcd * arch.wg_slots_per_cu
    total = trace.grid.total_blocks
    result = []
    for xcd in range(arch.num_xcds):
        sets: list[list[int]] = [[] for _ in range(num_sets)]
        hits = misses = 0
        for wave, members in enumerate(trace.wave_pids):
            in_wave = {int(p) for p in members}
            queue = deque(
                pid for pid in range(xcd, total, arch.num_xcds) if table[pid] in in_wave
            )
            active: list[list] = []  # [lines, next position]
            while True:
                while len(active) < slots and queue:
                    lines = _lines(trace, table[queue.popleft()], wave, line_bytes)
                    if lines:
                        active.append([lines, 0])
                if not active:
                    break
                for slot in active:
                    line = slot[0][slot[1]]
                    slot[1] += 1
                    lru = sets[line % num_sets]
                    if line in lru:
                        lru.remove(line)
                        lru.append(line)
                        hits += 1
                    else:
                        lru.append(line)
                        misses += 1
                        if len(lru) > ways:
                            del lru[0]
                active = [slot for slot in active if slot[1] < len(slot[0])]
        result.append((hits, misses))
    return result
