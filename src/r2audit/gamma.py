"""Submodularity ratio: the exhaustive general form. The two-feature closed
forms live in geometry2d."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import regress
from .bitsets import combination_blocks
from .errors import EmptyCandidateSet
from .regress import DEFAULT_MAX_FEATURES, StandardizedDesign, _as_indices, _check_cap, fit_block, r_squared
from .setfun import SKIP_DENOM_TOL

MODE_AT_MOST_K = "at_most_k"
MODE_EXACTLY_K = "exactly_k"


class RatioQuery:
    """One submodularity-ratio request: base set, candidate cardinality, mode.

    ``at_most_k`` ranges candidate sets over sizes 1..k (singletons pin the
    minimum at 1 whenever they are admissible); ``exactly_k`` fixes the size.
    The base is kept sorted and without repeats; attributes are read-only.
    """

    __slots__ = ("base", "k", "mode")

    def __init__(self, base: tuple[int, ...], k: int, mode: str = MODE_AT_MOST_K):
        if k < 1:
            raise ValueError("k must be at least 1")
        if mode not in (MODE_AT_MOST_K, MODE_EXACTLY_K):
            raise ValueError(f"unknown mode {mode!r}")
        object.__setattr__(self, "base", tuple(sorted(set(base))))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.k, self.mode) == (other.base, other.k, other.mode)

    def __hash__(self) -> int:
        return hash((self.base, self.k, self.mode))

    def __repr__(self) -> str:
        return f"RatioQuery(base={self.base!r}, k={self.k!r}, mode={self.mode!r})"


class RatioResult(NamedTuple):
    gamma_sr: float
    argmin: tuple[int, ...]
    skipped: int


def submodularity_ratio(
    design: StandardizedDesign,
    query: RatioQuery,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> RatioResult:
    """Worst-case ratio of summed single-feature gains to the joint gain.

    For each admissible candidate set T disjoint from the base S, compares
    sum_i gain_S(t_i), summed in index order, against gain_S(T). Each gain is
    a difference of two fits, a block of candidate sets per fit_block call. The
    argmin is the first strict minimum in combinations order. Candidates
    whose joint gain is negligible are skipped and counted; if everything is
    skipped there is no ratio to report and EmptyCandidateSet is raised.
    """
    m = design.m
    _check_cap(m, max_features)
    base = np.array(_as_indices(query.base, m), dtype=np.intp)
    if base.size + query.k > m:
        raise ValueError("base set plus k exceeds the number of features")

    candidates = np.delete(np.arange(m), base)
    fs = r_squared(design, base)

    def gains(teams):
        # gain_S(T) of each row T of a block of candidate sets; np.nonzero
        # lists each row's members of S + T in ascending order
        member = np.zeros((len(teams), m), dtype=bool)
        member[:, base] = True
        member[np.arange(len(teams))[:, None], teams] = True
        return fit_block(design, np.nonzero(member)[1].reshape(len(teams), -1))[0] - fs

    singles = gains(candidates[:, None])

    sizes = [query.k] if query.mode == MODE_EXACTLY_K else list(range(1, query.k + 1))
    best = math.inf
    argmin: tuple[int, ...] = ()
    skipped = 0
    for size in sizes:
        for block in combination_blocks(candidates.size, size, regress.FIT_CHUNK):
            joint = gains(candidates[block])
            total = np.zeros(len(block))
            for column in block.T:
                total += singles[column]
            negligible = joint < SKIP_DENOM_TOL
            skipped += int(negligible.sum())
            ratio = np.where(negligible, math.inf, np.maximum(total, 0.0) / np.where(negligible, 1.0, joint))
            at = int(ratio.argmin())
            if ratio[at] < best:
                best = float(ratio[at])
                argmin = tuple(candidates[block[at]].tolist())
    if not math.isfinite(best):
        raise EmptyCandidateSet("every candidate set had negligible joint gain")
    return RatioResult(gamma_sr=best, argmin=argmin, skipped=skipped)
