"""Bitmask helpers for subset enumeration over small feature universes."""

from __future__ import annotations

from itertools import chain, combinations, islice
from typing import Iterator

import numpy as np


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


def mask_sizes(masks: np.ndarray, m: int) -> np.ndarray:
    """Number of members of each mask over features 0..m-1."""
    return sum((masks >> b) & 1 for b in range(m))


def block_masks(idx: np.ndarray) -> np.ndarray:
    """Bitmask of every row of a (k, s) block of distinct feature indices."""
    return (1 << idx).sum(axis=1)


def combination_blocks(m: int, size: int, rows: int) -> Iterator[np.ndarray]:
    """Yield the size-subsets of range(m), in combinations order, as index
    blocks of at most ``rows`` rows."""
    combos = combinations(range(m), size)
    while True:
        flat = np.fromiter(chain.from_iterable(islice(combos, rows)), np.intp)
        if not flat.size:
            return
        yield flat.reshape(-1, size)
