"""Bitmask helpers for subset enumeration over small feature universes."""

from __future__ import annotations

from typing import Iterable


def mask_of(indices: Iterable[int]) -> int:
    """Pack feature indices into a bitmask."""
    mask = 0
    for i in indices:
        if i < 0:
            raise ValueError(f"negative feature index {i}")
        mask |= 1 << i
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into sorted feature indices."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)
