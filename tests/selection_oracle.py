"""Reference exhaustive searches: every combination streamed through fit_block.

This is how best_subset searched before the sweep screen: each size's
combinations, FIT_CHUNK at a time, through the fit kernel, keeping the largest
fit and, among equal fits, the smallest mask. The screened search must agree
with it bit for bit.
"""

from __future__ import annotations

from r2audit import regress
from r2audit.bitsets import block_masks, combination_blocks, indices_of
from r2audit.regress import fit_block


def best_of_size(design, size):
    """(mask, fit) of the best subset of one size; ties go to the smallest mask."""
    best_mask = -1
    best_r2 = -1.0
    for idx in combination_blocks(design.m, size, regress.FIT_CHUNK):
        masks = block_masks(idx)
        values = fit_block(design, idx)[0]
        value = float(values.max())
        mask = int(masks[values == value].min())
        if value > best_r2 or (value == best_r2 and mask < best_mask):
            best_r2 = value
            best_mask = mask
    return best_mask, best_r2


def best_subset(design, k):
    """(subset, fit) of the best subset of at most k features."""
    best_mask = 0
    best_r2 = 0.0
    for size in range(1, k + 1):
        mask, value = best_of_size(design, size)
        if value > best_r2 or (value == best_r2 and mask < best_mask):
            best_r2 = value
            best_mask = mask
    return indices_of(best_mask), best_r2

