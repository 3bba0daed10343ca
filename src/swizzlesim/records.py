"""One JSON form for the lab's frozen dataclasses, driven by their fields.

Bottleneck reports, history entries and arch specs are written and read
through these three functions, so each field list lives only in its
dataclass. ``to_dict`` gives a JSON-ready dict in field order (tuples as
lists); ``from_dict`` rebuilds the object from the field type hints and
rejects any key that does not match a field.
"""

from __future__ import annotations

import dataclasses
import types
import typing


def to_dict(obj):
    """A dataclass as nested dicts, its tuples as lists; other values unchanged."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [to_dict(value) for value in obj]
    return obj


def key_mismatch(cls, data) -> tuple[list[str], list[str]]:
    """(missing, unknown) keys of ``data`` for ``cls``: missing in field order,
    unknown sorted. A field with a default may be absent."""
    fields = dataclasses.fields(cls)
    missing = [
        f.name for f in fields
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    unknown = sorted(set(data) - {f.name for f in fields})
    return missing, unknown


def from_dict(cls, data):
    """Inverse of ``to_dict``; raises ``KeyError`` on a missing or unknown key."""
    missing, unknown = key_mismatch(cls, data)
    if missing or unknown:
        raise KeyError(f"{cls.__name__}: missing keys {missing}, unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: _build(hints[name], value) for name, value in data.items()})


def _build(hint, value):
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union or origin is types.UnionType:  # X | None
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _build(inner, value)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_build(args[0], v) for v in value)
        return tuple(_build(a, v) for a, v in zip(args, value, strict=True))
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value)
    return value
