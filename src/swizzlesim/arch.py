"""Chiplet-GPU architecture description and the default dispatch policy.

A disaggregated GPU is modeled as ``num_xcds`` accelerator complex dies
(XCDs), each with its own CUs and a private set-associative L2 cache.
Workgroups are dispatched round-robin across XCDs: launch pid ``i`` runs on
XCD ``i % num_xcds``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .records import from_dict, key_mismatch


class ArchSpecError(ValueError):
    """Raised for malformed or inconsistent architecture descriptions."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ArchSpec:
    """Immutable description of a chiplet GPU.

    Safe to share read-only across parallel simulation runs.
    """

    name: str
    num_xcds: int
    cus_per_xcd: int
    l2_bytes_per_xcd: int
    l2_line_bytes: int
    l2_associativity: int
    wg_slots_per_cu: int = 1

    def __post_init__(self):
        _check_positive(self, "num_xcds")
        _check_positive(self, "cus_per_xcd")
        _check_positive(self, "l2_bytes_per_xcd")
        _check_positive(self, "l2_line_bytes")
        _check_positive(self, "l2_associativity")
        _check_positive(self, "wg_slots_per_cu")
        if self.l2_line_bytes & (self.l2_line_bytes - 1) != 0:
            raise ArchSpecError(
                f"l2_line_bytes must be a power of two, got {self.l2_line_bytes}",
                field="l2_line_bytes",
            )
        if self.l2_bytes_per_xcd % self.l2_line_bytes != 0:
            raise ArchSpecError(
                "l2_line_bytes must divide l2_bytes_per_xcd",
                field="l2_bytes_per_xcd",
            )
        lines = self.l2_bytes_per_xcd // self.l2_line_bytes
        if lines % self.l2_associativity != 0:
            raise ArchSpecError(
                "line count per XCD must be divisible by l2_associativity",
                field="l2_associativity",
            )

    @property
    def num_sets(self) -> int:
        return self.l2_bytes_per_xcd // (self.l2_line_bytes * self.l2_associativity)


def _check_positive(spec: ArchSpec, name: str) -> None:
    value = getattr(spec, name)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ArchSpecError(f"{name} must be a positive integer, got {value!r}", field=name)


def concurrent_slots_per_xcd(arch: ArchSpec) -> int:
    """Max workgroups resident on one XCD at a time."""
    return arch.cus_per_xcd * arch.wg_slots_per_cu


# Only num_xcds=8 is attested by vendor kernels for this class of part; the
# remaining values are plausible CDNA3-class defaults and fully configurable.
MI300X_LIKE = ArchSpec(
    name="mi300x-like",
    num_xcds=8,
    cus_per_xcd=38,
    l2_bytes_per_xcd=4 * 1024 * 1024,
    l2_line_bytes=128,
    l2_associativity=16,
    wg_slots_per_cu=1,
)

PRESETS: dict[str, ArchSpec] = {"mi300x-like": MI300X_LIKE}


def load_arch_spec(document: str) -> ArchSpec:
    """Parse a flat JSON object with exactly the ArchSpec field names.

    Unknown keys are rejected; invariant violations report the offending
    field.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ArchSpecError(f"malformed arch spec document: {exc}") from exc
    if not isinstance(raw, dict):
        raise ArchSpecError("arch spec document must be a JSON object")
    missing, unknown = key_mismatch(ArchSpec, raw)
    if unknown:
        raise ArchSpecError(f"unknown arch spec keys: {unknown}", field=unknown[0])
    if missing:
        raise ArchSpecError(f"missing arch spec keys: {missing}", field=missing[0])
    return from_dict(ArchSpec, raw)


def resolve_arch(name_or_path: str) -> ArchSpec:
    """Look up a preset by name, else load a JSON file from disk."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]
    with open(name_or_path, "r", encoding="utf-8") as fh:
        return load_arch_spec(fh.read())
