"""Scalar reference implementations of the exhaustive set-function walks.

These are the original one-comparison-at-a-time loops over a FitCache. The
package computes the same quantities with dense-table numpy kernels; the
differential tests require the two to agree with ``==``: values, witnesses,
skip counts and certificate order, bit for bit. Both read the same values: the
oracle fills the kernel's fit table on its cache first and takes every gain
from the kernel's gain table, so what it checks is the walks, the witnesses,
the tie-breaks and the order, not the arithmetic of the fits.
``replay_certificate`` recomputes one certificate's two sides from its sets.
"""

from __future__ import annotations

import math

from r2audit.bitsets import indices_of, mask_of
from r2audit.regress import DEFAULT_MAX_FEATURES, FitCache, _as_indices
from r2audit.setfun import (
    MODES,
    SKIP_DENOM_TOL,
    VIOLATION_TOL,
    GammaS2Result,
    GammaSResult,
    ViolationCertificate,
    _fits,
    _gains_at,
    _table,
)


def _filled(design, cache, max_features):
    """The cache, new if None, with the kernel's fit and gain tables filled."""
    cache = cache if cache is not None else FitCache()
    _table(design, cache, max_features or DEFAULT_MAX_FEATURES)
    return cache


def _r2(cache, mask):
    """R^2 of mask as the kernel reads it from its table."""
    return float(cache.table[mask])


def _gain(cache, mask, i):
    """gain_mask(i) as the kernel reads it from its tables."""
    return float(_gains_at(cache, i, mask))


def iter_submasks(mask: int):
    """Yield every submask of ``mask`` in ascending order (includes 0 and mask)."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _sets(**kwargs):
    return tuple(kwargs.items())


def check_submodular(design, mode="second_order", tolerance=VIOLATION_TOL, cache=None, max_features=None):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    m = design.m
    cache = _filled(design, cache, max_features)
    full = (1 << m) - 1
    found = []

    if mode == "definition":
        for a_mask in range(full + 1):
            fa = _r2(cache, a_mask)
            for b_mask in range(a_mask, full + 1):
                lhs = fa + _r2(cache, b_mask)
                rhs = _r2(cache, a_mask | b_mask) + _r2(cache, a_mask & b_mask)
                if rhs - lhs > tolerance:
                    found.append(
                        ViolationCertificate(
                            "definition",
                            _sets(A=indices_of(a_mask), B=indices_of(b_mask)),
                            lhs,
                            rhs,
                            rhs - lhs,
                        )
                    )
    elif mode == "first_order":
        for a_mask in range(full + 1):
            rest = full & ~a_mask
            for extra in iter_submasks(rest):
                if extra == 0:
                    continue
                b_mask = a_mask | extra
                for i in indices_of(full & ~b_mask):
                    lhs = _gain(cache, a_mask, i)
                    rhs = _gain(cache, b_mask, i)
                    if rhs - lhs > tolerance:
                        found.append(
                            ViolationCertificate(
                                "first_order",
                                _sets(A=indices_of(a_mask), B=indices_of(b_mask), i=(i,)),
                                lhs,
                                rhs,
                                rhs - lhs,
                            )
                        )
    else:
        for a_mask in range(full + 1):
            outside = indices_of(full & ~a_mask)
            for i in outside:
                gain_a = _gain(cache, a_mask, i)
                for j in outside:
                    if j == i:
                        continue
                    rhs = _gain(cache, a_mask | (1 << j), i)
                    # (A, i, j) and (A, j, i) share the deficit of (A, lo, hi),
                    # and are kept or dropped together by it
                    lo, hi = min(i, j), max(i, j)
                    deficit = _gain(cache, a_mask | (1 << hi), lo) - _gain(cache, a_mask, lo)
                    if deficit > tolerance:
                        found.append(
                            ViolationCertificate(
                                "second_order",
                                _sets(A=indices_of(a_mask), i=(i,), j=(j,)),
                                gain_a,
                                rhs,
                                deficit,
                            )
                        )
        found.sort(key=_mirror_key)
        return found

    found.sort(key=lambda c: (-c.deficit, c.sets))
    return found


def _mirror_key(cert):
    """Second-order order: deficit, A, the unordered pair {i, j}, then i."""
    sets = cert.set_dict()
    i, j = sets["i"][0], sets["j"][0]
    return (-cert.deficit, sets["A"], min(i, j), max(i, j), i)


def find_suppressors(design, tolerance=VIOLATION_TOL, cache=None, max_features=None):
    m = design.m
    cache = _filled(design, cache, max_features)
    full = (1 << m) - 1
    found = []
    for s_mask in range(full + 1):
        outside = indices_of(full & ~s_mask)
        for i in outside:
            base_gain = _gain(cache, s_mask, i)
            base_corr = math.sqrt(max(base_gain, 0.0))
            for j in outside:
                if j == i:
                    continue
                gain = _gain(cache, s_mask | (1 << j), i)
                cond_corr = math.sqrt(max(gain, 0.0))
                # the second-order row selection, rendered as correlations
                lo, hi = min(i, j), max(i, j)
                if _gain(cache, s_mask | (1 << hi), lo) - _gain(cache, s_mask, lo) > tolerance:
                    found.append(
                        ViolationCertificate(
                            "suppression",
                            _sets(S=indices_of(s_mask), i=(i,), j=(j,)),
                            base_corr,
                            cond_corr,
                            cond_corr - base_corr,
                        )
                    )
    found.sort(key=lambda c: (-c.deficit, c.sets))
    return found


def empirical_gamma_s2(design, cache=None, max_features=None):
    m = design.m
    cache = _filled(design, cache, max_features)
    full = (1 << m) - 1
    best = math.inf
    witness = None
    skipped = 0
    for a_mask in range(full + 1):
        outside = indices_of(full & ~a_mask)
        for i in outside:
            num = _gain(cache, a_mask, i)
            for j in outside:
                if j == i:
                    continue
                den = _gain(cache, a_mask | (1 << j), i)
                if den < SKIP_DENOM_TOL:
                    skipped += 1
                    continue
                ratio = max(num, 0.0) / den
                if ratio < best:
                    best = ratio
                    witness = (indices_of(a_mask), i, j)
    return GammaS2Result(gamma_s2=best, witness_s2=witness, skipped_s2=skipped)


def empirical_gamma_s(design, cache=None, max_features=None):
    m = design.m
    cache = _filled(design, cache, max_features)
    full = (1 << m) - 1
    best = math.inf
    witness = None
    skipped = 0
    for a_mask in range(full + 1):
        rest = full & ~a_mask
        for extra in iter_submasks(rest):
            if extra == 0:
                continue
            b_mask = a_mask | extra
            for i in indices_of(full & ~b_mask):
                den = _gain(cache, b_mask, i)
                if den < SKIP_DENOM_TOL:
                    skipped += 1
                    continue
                num = _gain(cache, a_mask, i)
                ratio = max(num, 0.0) / den
                if ratio < best:
                    best = ratio
                    witness = (indices_of(a_mask), indices_of(b_mask), i)
    return GammaSResult(gamma_s=best, witness_s=witness, skipped_s=skipped)


def replay_certificate(design, cert, cache=None):
    """Recompute (lhs, rhs) of a certificate's inequality from its sets.

    Gains come from the cache's gain table when it is filled, so a filled
    cache reproduces the certificate; otherwise they are differences of two
    fits, an independent check. Every set must lie in range(m).
    """
    filled = cache is not None and cache.table is not None
    sets = {role: _as_indices(members, design.m) for role, members in cert.sets}

    def fit(mask):
        return float(_fits(design, cache, [indices_of(mask)])[0])

    def gain(mask, i):
        return float(_gains_at(cache, i, mask)) if filled else fit(mask | (1 << i)) - fit(mask)

    if cert.form == "definition":
        a = mask_of(sets["A"])
        b = mask_of(sets["B"])
        return fit(a) + fit(b), fit(a | b) + fit(a & b)
    if cert.form == "first_order":
        i = sets["i"][0]
        return gain(mask_of(sets["A"]), i), gain(mask_of(sets["B"]), i)
    if cert.form in ("second_order", "suppression"):
        a = mask_of(sets["A"] if cert.form == "second_order" else sets["S"])
        i = sets["i"][0]
        base = gain(a, i)
        cond = gain(a | (1 << sets["j"][0]), i)
        if cert.form == "suppression":
            return math.sqrt(max(base, 0.0)), math.sqrt(max(cond, 0.0))
        return base, cond
    raise ValueError(f"unknown certificate form {cert.form!r}")
