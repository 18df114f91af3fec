"""Runtime limits: materialization cap and enumeration bounds.

The cap exists because palindromization images grow exponentially in the
directive length; every operation that builds a word checks the projected
length first and raises MaterializationLimitError instead of exhausting
memory.  The enumeration bounds keep the exhaustive verifiers from walking
2^n trees by accident; callers can raise them explicitly.
"""
from __future__ import annotations

import os

from .errors import MaterializationLimitError

DEFAULT_MAX_WORD_LEN = 1 << 24

# Default ceilings for the exhaustive verifiers (per enumeration order n),
# and for the image length the central-word census walks to.
MATERIALIZED_ORDER_BOUND = 14
ARITHMETIC_ORDER_BOUND = 22
CENSUS_LENGTH_BOUND = 16

_override: int | None = None


def set_max_word_len(limit: int) -> None:
    """Process-wide override of the materialization cap."""
    global _override
    if type(limit) is not int:
        raise ValueError(f"materialization cap must be an integer, got {limit!r}")
    if limit <= 0:
        raise ValueError("materialization cap must be positive")
    _override = limit


def max_word_len() -> int:
    """Active cap: override if set, else STURMIAN_MAX_WORD_LEN, else the default."""
    if _override is not None:
        return _override
    raw = os.environ.get("STURMIAN_MAX_WORD_LEN")
    if raw is None:
        return DEFAULT_MAX_WORD_LEN
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(f"STURMIAN_MAX_WORD_LEN must be an integer, got {raw!r}") from None
    if limit <= 0:
        raise ValueError("STURMIAN_MAX_WORD_LEN must be positive")
    return limit


def ensure_materializable(length: int) -> None:
    """Reject a projected word length beyond the active cap."""
    limit = max_word_len()
    if length > limit:
        raise MaterializationLimitError(
            f"word of length {length} exceeds the materialization cap {limit}"
        )
