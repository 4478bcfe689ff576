"""Small validation helpers shared by parameter schemas and public APIs.

All helpers raise :class:`repro.errors.ValidationError` carrying the field
name, so error messages point at the offending key of a test-parameter
document rather than at an implementation detail.
"""

from __future__ import annotations

from typing import Any, Iterable, Sized

from repro.errors import ValidationError


def require_type(value: Any, types, field: str) -> Any:
    """Ensure ``value`` is an instance of ``types``; return it unchanged.

    ``bool`` is rejected where an ``int`` is required — JSON booleans leaking
    into counts is a classic spec-file mistake.
    """
    if isinstance(types, type):
        types = (types,)
    if int in types and bool not in types and isinstance(value, bool):
        raise ValidationError(
            f"{field!r} must be an integer, got boolean {value!r}", field=field
        )
    if not isinstance(value, tuple(types)):
        names = "/".join(t.__name__ for t in types)
        raise ValidationError(
            f"{field!r} must be of type {names}, got {type(value).__name__}",
            field=field,
        )
    return value


def require_non_empty(value: Sized, field: str) -> Any:
    """Ensure a sized value (string, list, dict) is non-empty."""
    if len(value) == 0:
        raise ValidationError(f"{field!r} must not be empty", field=field)
    return value


def require_positive(value, field: str, allow_zero: bool = False):
    """Ensure a number is > 0 (or >= 0 with ``allow_zero``)."""
    require_type(value, (int, float), field)
    if allow_zero:
        if value < 0:
            raise ValidationError(f"{field!r} must be >= 0, got {value}", field=field)
    elif value <= 0:
        raise ValidationError(f"{field!r} must be > 0, got {value}", field=field)
    return value


def require_keys(mapping: dict, keys: Iterable[str], field: str) -> dict:
    """Ensure a mapping contains every key in ``keys``."""
    require_type(mapping, dict, field)
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise ValidationError(
            f"{field!r} is missing required keys: {', '.join(missing)}", field=field
        )
    return mapping
