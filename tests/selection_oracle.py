"""Reference exhaustive searches: every combination streamed through fit_block.

This is how best_subset and l0_path searched before the sweep screen: each
size's combinations, FIT_CHUNK at a time, through the fit kernel, keeping the
largest fit and, among equal fits, the smallest mask. The screened searches
must agree with it bit for bit.
"""

from __future__ import annotations

import math

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


def l0_path(design, lambdas):
    """[(lam, subset, objective)] minimizing 1 - fit + lam |S|, ties to the
    smallest mask; the empty subset carries no penalty."""
    per_size = [(0, 0.0)] + [best_of_size(design, size) for size in range(1, design.m + 1)]
    path = []
    for lam in lambdas:
        chosen_mask = 0
        chosen_obj = math.inf
        for size, (mask, r2v) in enumerate(per_size):
            objective = (1.0 - r2v) + (lam * size if size else 0.0)
            if objective < chosen_obj or (objective == chosen_obj and mask < chosen_mask):
                chosen_obj = objective
                chosen_mask = mask
        path.append((lam, indices_of(chosen_mask), chosen_obj))
    return path
