"""Scalar reference implementations of the exhaustive set-function walks.

These are the original one-comparison-at-a-time loops over a FitTable. The
package computes the same quantities with dense-table numpy kernels; the
differential tests require the two to agree with ``==``: values, witnesses,
skip counts and certificate order, bit for bit. Both read the same values: the
oracle builds the kernel's fit table first, when it is given none, and reads
every gain from the kernel's gain table, or takes the table difference where
there is none, itself rather than through FitTable.gain, so what it checks is
the walks, the witnesses, the tie-breaks and the order, not the arithmetic of
the fits.
The oracle's lists hold ViolationCertificate rows; ``rows`` reads a
setfun.Certificates, whose columns the package keeps, as the same rows, so
whole lists and heads compare row for row with ``==``.
``replay_certificate`` recomputes one certificate's two sides from its sets.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from r2audit.bitsets import indices_of
from r2audit.regress import DEFAULT_MAX_FEATURES, _as_indices, fit_table, r_squared
from r2audit.setfun import SKIP_DENOM_TOL, VIOLATION_TOL, GammaS2Result, GammaSResult

# The three equivalent diminishing-returns inequalities. The package checks
# only the second-order one; the definition (O(4^m) pairs of sets) and
# first-order (O(m 4^m) nested pairs) checks live here, as references for
# their equivalence.
MODES = ("definition", "first_order", "second_order")


class ViolationCertificate(NamedTuple):
    """One witnessed failure of a diminishing-returns inequality.

    ``sets`` holds the witnessing index sets keyed by role (A, B, S, i, j
    depending on ``form``); lhs/rhs are the two sides of the inequality that
    should have satisfied lhs >= rhs, and deficit = rhs - lhs > 0.
    """

    form: str
    sets: tuple[tuple[str, tuple[int, ...]], ...]
    lhs: float
    rhs: float
    deficit: float

    def set_dict(self) -> dict[str, tuple[int, ...]]:
        return dict(self.sets)


def rows(certs) -> list[ViolationCertificate]:
    """A Certificates' rows in list order: each role's mask as its index
    tuple, each feature index as a 1-tuple, each float as a Python float."""
    parts = []
    for role, values in zip(certs.roles, certs.columns):
        values = values.tolist()
        as_set = (lambda v: (v,)) if role in ("i", "j") else indices_of
        lookup = {v: (role, as_set(v)) for v in set(values)}
        parts.append(map(lookup.__getitem__, values))
    floats = (values.tolist() for values in (certs.lhs, certs.rhs, certs.deficit))
    return [ViolationCertificate(certs.form, sets, *row) for sets, *row in zip(zip(*parts), *floats)]


def _filled(design, table, max_features):
    """The table, or the kernel's fit and gain tables when it is None."""
    return fit_table(design, max_features or DEFAULT_MAX_FEATURES) if table is None else table


def _r2(table, mask):
    """R^2 of mask as the kernel reads it from its table."""
    return float(table.r2[mask])


def _gain(table, mask, i):
    """gain_mask(i) as the kernel reads it from its tables: the gain table's
    entry, or the table difference when there is no gain table."""
    if table.gains is None:
        return float(table.r2[mask | 1 << i] - table.r2[mask])
    return float(table.gains[i, mask])


def mask_of(indices) -> int:
    """Pack feature indices into a bitmask."""
    mask = 0
    for i in indices:
        if i < 0:
            raise ValueError(f"negative feature index {i}")
        mask |= 1 << i
    return mask


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


def check_submodular(design, mode="second_order", tolerance=VIOLATION_TOL, table=None, max_features=None):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    m = design.m
    table = _filled(design, table, max_features)
    full = (1 << m) - 1
    found = []

    if mode == "definition":
        for a_mask in range(full + 1):
            fa = _r2(table, a_mask)
            for b_mask in range(a_mask, full + 1):
                lhs = fa + _r2(table, b_mask)
                rhs = _r2(table, a_mask | b_mask) + _r2(table, a_mask & b_mask)
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
                    lhs = _gain(table, a_mask, i)
                    rhs = _gain(table, b_mask, i)
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
                gain_a = _gain(table, a_mask, i)
                for j in outside:
                    if j == i:
                        continue
                    rhs = _gain(table, a_mask | (1 << j), i)
                    # (A, i, j) and (A, j, i) share the deficit of (A, lo, hi),
                    # and are kept or dropped together by it
                    lo, hi = min(i, j), max(i, j)
                    deficit = _gain(table, a_mask | (1 << hi), lo) - _gain(table, a_mask, lo)
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


def find_suppressors(design, tolerance=VIOLATION_TOL, table=None, max_features=None):
    m = design.m
    table = _filled(design, table, max_features)
    full = (1 << m) - 1
    found = []
    for s_mask in range(full + 1):
        outside = indices_of(full & ~s_mask)
        for i in outside:
            base_gain = _gain(table, s_mask, i)
            base_corr = math.sqrt(max(base_gain, 0.0))
            for j in outside:
                if j == i:
                    continue
                gain = _gain(table, s_mask | (1 << j), i)
                cond_corr = math.sqrt(max(gain, 0.0))
                # the second-order row selection, rendered as correlations
                lo, hi = min(i, j), max(i, j)
                if _gain(table, s_mask | (1 << hi), lo) - _gain(table, s_mask, lo) > tolerance:
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


def empirical_gamma_s2(table):
    m = table.m
    full = (1 << m) - 1
    best = math.inf
    witness = None
    skipped = 0
    for a_mask in range(full + 1):
        outside = indices_of(full & ~a_mask)
        for i in outside:
            num = _gain(table, a_mask, i)
            for j in outside:
                if j == i:
                    continue
                den = _gain(table, a_mask | (1 << j), i)
                if den < SKIP_DENOM_TOL:
                    skipped += 1
                    continue
                ratio = max(num, 0.0) / den
                if ratio < best:
                    best = ratio
                    witness = (indices_of(a_mask), i, j)
    return GammaS2Result(gamma_s2=best, witness_s2=witness, skipped_s2=skipped)


def empirical_gamma_s(table):
    m = table.m
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
                den = _gain(table, b_mask, i)
                if den < SKIP_DENOM_TOL:
                    skipped += 1
                    continue
                num = _gain(table, a_mask, i)
                ratio = max(num, 0.0) / den
                if ratio < best:
                    best = ratio
                    witness = (indices_of(a_mask), indices_of(b_mask), i)
    return GammaSResult(gamma_s=best, witness_s=witness, skipped_s=skipped)


def replay_certificate(design, cert, table=None):
    """Recompute (lhs, rhs) of a certificate's inequality from its sets.

    Gains come from the table's gain table when a table is given, so the
    kernel's table reproduces the certificate; otherwise they are differences
    of two fits, an independent check. Every set must lie in range(m).
    """
    sets = {role: _as_indices(members, design.m) for role, members in cert.sets}

    def fit(mask):
        return float(table.r2[mask]) if table is not None else r_squared(design, indices_of(mask))

    def gain(mask, i):
        return _gain(table, mask, i) if table is not None else fit(mask | (1 << i)) - fit(mask)

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
