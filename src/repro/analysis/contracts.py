"""Runtime-contract helpers backing the config ``validate()`` methods.

The static side of the config contract (``CFG001``-``CFG003``) demands a
``validate()`` on every ``*Config``/``*Params`` dataclass; this module is
the runtime side — small predicates that raise ``ValueError`` with
field-specific messages so a nonsensical configuration (0-row array,
negative SRAM banks, non-power-of-two bitstream length) fails loudly at
construction instead of silently corrupting a sweep.

Kept free of imports from the rest of ``repro`` so config modules at any
layer can depend on it without cycles.
"""

from __future__ import annotations

import math

__all__ = [
    "is_power_of_two",
    "require",
    "require_finite",
    "require_positive",
    "require_non_negative",
    "require_power_of_two",
    "require_in_range",
    "require_at_most",
]


def is_power_of_two(value: int) -> bool:
    """True for 1, 2, 4, 8, ...; False for zero, negatives and non-ints."""
    return isinstance(value, int) and value > 0 and (value & (value - 1)) == 0


def require(condition: bool, owner: str, field: str, message: str) -> None:
    """Raise ``ValueError`` naming ``owner.field`` unless ``condition``."""
    if not condition:
        raise ValueError(f"{owner}.{field}: {message}")


def require_finite(owner: str, **fields: float) -> None:
    """Every named field must be a finite number: not NaN, not ±inf.

    Comparison guards such as ``value > 0`` admit ``inf`` and, written
    as ``if value <= 0: raise``, admit NaN too; either can then drive an
    arrival loop that never ends.
    """
    for name, value in fields.items():
        require(math.isfinite(value), owner, name, f"must be finite, got {value!r}")


def require_positive(owner: str, **fields: float) -> None:
    """Every named field must be strictly positive."""
    for name, value in fields.items():
        require(value > 0, owner, name, f"must be positive, got {value!r}")


def require_non_negative(owner: str, **fields: float) -> None:
    """Every named field must be zero or positive."""
    for name, value in fields.items():
        require(value >= 0, owner, name, f"must be >= 0, got {value!r}")


def require_power_of_two(owner: str, **fields: int) -> None:
    """Every named field must be a power of two."""
    for name, value in fields.items():
        require(
            is_power_of_two(value),
            owner,
            name,
            f"must be a power of two, got {value!r}",
        )


def require_in_range(
    owner: str, field: str, value: float, lo: float, hi: float
) -> None:
    """``lo <= value <= hi`` or ``ValueError``."""
    require(
        lo <= value <= hi,
        owner,
        field,
        f"must be in [{lo}, {hi}], got {value!r}",
    )


def require_at_most(
    owner: str, field: str, value: float, bound: float, bound_name: str
) -> None:
    """``value <= bound`` or ``ValueError`` naming both quantities."""
    require(
        value <= bound,
        owner,
        field,
        f"must be <= {bound_name} ({bound!r}), got {value!r}",
    )
