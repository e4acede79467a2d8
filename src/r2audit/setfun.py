"""The fit function viewed as a set function: gains, violation certificates
and empirical approximate-submodularity constants.

Every exhaustive diagnostic reads one regress.FitTable: a dense table
r2[mask] of all 2^m subset fits and a gain table gain[i, A], filled together
by one sweep walk (regress.fit_table, O(m 2^m) memory). Where the walk trusts
A and A + i, the gain is C_A[i, y]^2 / C_A[i, i] from A's swept matrix, so a
small gain on top of a large fit keeps its relative accuracy; elsewhere it is
the table difference r2[A|i] - r2[A]. Above 20 features
(regress.GAIN_TABLE_BYTES) no gain table is kept and FitTable.gain takes each
feature's gain row as that difference, a whole row at a time. Each kernel
takes the table alone, so its cap was checked where the table was filled.
The second-order family (gamma_s2, second-order and suppression certificates)
reads one kernel giving, per unordered pair lo < hi, the masks A holding
neither with gain_A(lo), gain_{A+hi}(lo), gain_A(hi) and gain_{A+lo}(hi), as
strided views of the masks and of the two features' gain rows, with no index
array: O(m^2 2^m) time, O(2^m) memory. One walk over it gives gamma_s2, the
counts of both violation lists and their heads (the rows that can be among
the first TOP_CERTIFICATES, in one row store per list), and can hand every
violating row to a sink as it goes, one pair and orientation at a time; no
whole list is ever held.
gamma_s divides each gain_A(i) by the largest usable gain_B(i) over strict
supersets B, found by a zeta transform over the 2^(m-1) masks without i in
O(m^2 2^m) rather than a walk over all O(m 3^m) nested pairs; fl(a / d) is
monotone in a and d, so this is exact.
Argmin ties break toward the first comparison in ascending mask order; a
head is ordered by deficit, largest first, then by its index sets as tuples,
and kept as columns (Certificates) from the kernel to the renderer. A
Certificates is the read-only columns, form, roles and length the renderer
reads, and no more: no function here builds a row.
Second-order certificates (A, i, j) and (A, j, i) come from the same step
of that walk and carry its one deficit, that of (A, min(i, j), max(i, j)), so
they are selected together, and sort next to each other. Suppression
certificates are the second-order rows, rendered as square roots of the two
gains (_roots).
"""
from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .bitsets import indices_of, mask_sizes
from .regress import FitTable

VIOLATION_TOL = 1e-9
SKIP_DENOM_TOL = 1e-12


def _pair_gains(table: FitTable) -> Iterator[tuple]:
    """Yield (A, lo, hi, gain_A(lo), gain_{A+hi}(lo), gain_A(hi), gain_{A+lo}(hi))
    for every pair lo < hi, where A holds, ascending, every mask containing
    neither lo nor hi. Each array is a strided view, split on bits hi and lo
    and raveled, of the masks, in a set column's dtype (_role_dtype), or of
    one of the two gain rows held."""
    m = table.m
    masks = np.arange(1 << m, dtype=_role_dtype("A", m))
    for lo in range(m):
        gain_lo = table.gain(lo)
        for hi in range(lo + 1, m):
            # axis 1 is bit hi of a mask, axis 3 bit lo
            split = (-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
            a, row_lo, row_hi = (row.reshape(split) for row in (masks, gain_lo, table.gain(hi)))
            at = ((row_lo, 0, 0), (row_lo, 1, 0), (row_hi, 0, 0), (row_hi, 0, 1))
            yield a[:, 0, :, 0].ravel(), lo, hi, *[row[:, h, :, l].ravel() for row, h, l in at]


class Certificates:
    """A list of certificates of one form, stored by column in list order,
    read-only.

    ``columns`` holds one array per role in ``roles``: masks for the set roles
    A, B and S, feature indices for i and j; ``lhs``, ``rhs`` and ``deficit``
    are float64 arrays: each row, the two sides of a diminishing-returns
    inequality lhs >= rhs that failed, and its positive deficit.
    """

    def __init__(self, form: str, roles, columns, lhs, rhs, deficit):
        self.form = form
        self.roles = tuple(roles)
        self.columns = tuple(columns)
        self.lhs, self.rhs, self.deficit = lhs, rhs, deficit
        for values in (*self.columns, lhs, rhs, deficit):
            values.setflags(write=False)

    def __len__(self) -> int:
        return self.deficit.size


def _lex_rank(masks: np.ndarray, m: int) -> np.ndarray:
    """Position of each mask's index tuple in lexicographic tuple order: its
    size plus 2^(m-1-b) for each absent b below its largest member, the count
    of tuples that continue with b."""
    masks = masks.astype(np.intp)
    rank = np.zeros_like(masks)
    for b in range(m):
        has = (masks >> b) & 1
        rank += has + ((has == 0) & ((masks >> (b + 1)) != 0)) * (1 << (m - 1 - b))
    return rank


def _role_dtype(role: str, m: int) -> np.dtype:
    """Storage dtype of a certificate column: int8 for a feature index, the
    smallest unsigned dtype holding a mask of m features for a set."""
    return np.dtype(np.int8) if role in ("i", "j") else np.min_scalar_type((1 << m) - 1)


TOP_CERTIFICATES = 10


class _Rows:
    """The head of one (set, i, j) certificate list, offered a chunk at a time.

    An offer gives a mask of the chunk's rows to keep, then one array or
    scalar per role (masks for the set role A or S, feature indices for i
    and j), then lhs, rhs and deficit arrays. ``columns`` holds the rows
    kept: every row not below the TOP_CERTIFICATES-th largest deficit offered
    so far, ties at that cut too, role columns in their ``_role_dtype``.
    """

    def __init__(self, form: str, roles, m: int):
        self.form, self.roles, self.m = form, tuple(roles), m
        self.columns = [np.zeros(0, _role_dtype(role, m)) for role in roles] + [np.zeros(0)] * 3
        self.cut = -math.inf

    def offer(self, hit, *columns) -> None:
        at = np.flatnonzero(hit & ~(columns[-1] < self.cut))
        if at.size == 0:
            return
        kept = []
        for old, values in zip(self.columns, columns):
            scalar = np.ndim(values) == 0
            new = np.full(at.size, values, old.dtype) if scalar else values[at].astype(old.dtype, copy=False)
            kept.append(np.concatenate([old, new]))
        deficit = kept[-1]
        if deficit.size > TOP_CERTIFICATES:
            self.cut = -np.partition(-deficit, TOP_CERTIFICATES - 1)[TOP_CERTIFICATES - 1]
            keep = ~(deficit < self.cut)
            kept = [values[keep] for values in kept]
        self.columns = kept

    def head(self) -> Certificates:
        """The first TOP_CERTIFICATES rows kept, ordered by deficit, largest
        first, then by their index sets as tuples; second-order rows by A,
        then the unordered pair, then i, so mirror rows sit together."""
        s, i, j, *_, deficit = self.columns
        ties = [_lex_rank(s, self.m), i, j]
        if self.form == "second_order":
            ties[1:] = [np.minimum(i, j), np.maximum(i, j), i]
        order = np.lexsort([*ties[::-1], -deficit])[:TOP_CERTIFICATES]
        *sets, lhs, rhs, deficit = (values[order] for values in self.columns)
        return Certificates(self.form, self.roles, sets, lhs, rhs, deficit)


class GammaS2Result(NamedTuple):
    """Worst-case gain ratio over the second-order comparisons (A, i, j).

    gamma_s2 is the minimum of gain_A(i) / gain_{A+j}(i); a ratio whose
    denominator is negligible carries no information and is skipped (counted
    in skipped_s2). A minimum over no ratios is +inf, with witness None.
    """

    gamma_s2: float
    witness_s2: tuple[tuple[int, ...], int, int] | None
    skipped_s2: int


class GammaSResult(NamedTuple):
    """Worst-case gain ratio over the first-order comparisons (A, B, i).

    gamma_s is the minimum of gain_A(i) / gain_B(i) over nested A < B;
    skipping and the empty minimum are as in GammaS2Result.
    """

    gamma_s: float
    witness_s: tuple[tuple[int, ...], tuple[int, ...], int] | None
    skipped_s: int


def _roots(gain: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lhs, rhs and deficit of the suppression rows with these gains: the
    square roots of the two gains, clipped at 0, and their difference."""
    lhs, rhs = np.sqrt(np.maximum(gain, 0.0)), np.sqrt(np.maximum(cond, 0.0))
    return lhs, rhs, rhs - lhs


class SecondOrderSummary(NamedTuple):
    """gamma_s2; at one tolerance, the second-order rows' (= suppression
    rows') count, by_size[|A|] and by_pair[i, j]; and the heads of both
    lists: the second-order list (A, i, j), and the suppression list (S, i, j)
    of the same rows through _roots, each cut to its first TOP_CERTIFICATES
    certificates."""

    gamma: GammaS2Result
    count: int
    by_size: np.ndarray
    by_pair: np.ndarray
    second_order: Certificates
    suppression: Certificates


def _second_order_summary(
    table: FitTable, tolerance: float, sink: Callable[[Certificates, Certificates], None] | None = None
) -> SecondOrderSummary:
    """The summary from one walk over the table's _pair_gains, walked again
    on each call.

    Given a ``sink``, the walk also hands it every row that violates, as it
    goes: for each pair and orientation with such rows, one call with its
    second-order rows and the same rows as suppression certificates. The
    calls come in walk order: pairs (lo, hi) ascending; for each pair its
    (A, lo, hi) rows, then its (A, hi, lo) rows; within each, masks
    ascending. No whole list is held.
    """
    m = table.m
    # the k-th mask holding neither i nor j is k with two zero bits inserted
    sizes = mask_sizes(np.arange((1 << m) >> 2), m)
    by_size, by_pair = np.zeros(max(m - 1, 0), dtype=np.intp), np.zeros((m, m), dtype=np.intp)
    per_pair, skipped = [], 0
    second = _Rows("second_order", ("A", "i", "j"), m)
    # the suppression head ranks the same rows by the difference of their
    # roots, so it has its own store
    suppression = _Rows("suppression", ("S", "i", "j"), m)
    for a, lo, hi, gain_lo, cond_lo, gain_hi, cond_hi in _pair_gains(table):
        # both orientations take the deficit of (A, lo, hi), so they hit the same rows
        deficit = cond_lo - gain_lo
        hit = deficit > tolerance
        by_size += 2 * np.bincount(sizes[hit], minlength=by_size.size)
        by_pair[lo, hi] = by_pair[hi, lo] = np.count_nonzero(hit)
        at = np.flatnonzero(hit) if sink is not None else None
        for i, j, num, den in ((lo, hi, gain_lo, cond_lo), (hi, lo, gain_hi, cond_hi)):
            keep = ~(den < SKIP_DENOM_TOL)
            skipped += a.size - int(keep.sum())
            if keep.any():  # the first smallest ratio of the kept ones: +inf elsewhere
                ratio = np.divide(np.maximum(num, 0.0), den, out=np.full(a.size, np.inf), where=keep)
                first = int(ratio.argmin())
                per_pair.append((float(ratio[first]), int(a[first]), i, j))
            roots = _roots(num, den)
            second.offer(hit, a, i, j, num, den, deficit)
            suppression.offer(hit, a, i, j, *roots)
            if at is not None and at.size:
                sets = (a[at], np.full(at.size, i, np.int8), np.full(at.size, j, np.int8))
                sink(
                    Certificates("second_order", second.roles, sets, num[at], den[at], deficit[at]),
                    Certificates("suppression", suppression.roles, sets, *(values[at] for values in roots)),
                )
    value, a_mask, i, j = min(per_pair, default=(math.inf, None, 0, 0))
    gamma = GammaS2Result(value, None if a_mask is None else (indices_of(a_mask), i, j), skipped)
    return SecondOrderSummary(gamma, int(by_size.sum()), by_size, by_pair, second.head(), suppression.head())


def empirical_gamma_s2(table: FitTable) -> GammaS2Result:
    """Minimum of gain_A(i) / gain_{A+j}(i) over all eligible (A, i, j): the
    gamma of one walk over the feature pairs, walked again on every call."""
    return _second_order_summary(table, VIOLATION_TOL).gamma


def _without(values: np.ndarray, i: int) -> np.ndarray:
    """The entries of a row over every mask at the masks without feature i,
    in ascending mask order: the lower half of each block of 2^(i+1)."""
    return values.reshape(-1, 2, 1 << i)[:, 0].ravel()


def _strict_superset_max(values: np.ndarray, m: int) -> np.ndarray:
    """out[S] = max of values[T] over masks T strictly containing S (-inf if none)."""
    upper = values.copy()  # max over supersets, S included, seen so far
    out = np.full(values.size, -np.inf)
    for b in range(m):
        u, o = upper.reshape(-1, 2, 1 << b), out.reshape(-1, 2, 1 << b)
        np.maximum(o[:, 0], u[:, 1], out=o[:, 0])
        np.maximum(u[:, 0], u[:, 1], out=u[:, 0])
    return out


def empirical_gamma_s(table: FitTable) -> GammaSResult:
    """Minimum of gain_A(i) / gain_B(i) over nested pairs A < B with i outside B.

    For fixed A and i the smallest ratio uses the largest usable denominator
    over B, so one strict-superset max per feature replaces the walk over
    nested pairs. A denominator below SKIP_DENOM_TOL is skipped once for each
    of its 2^|B| - 1 proper subsets A.
    """
    m = table.m
    masks = np.arange(1 << m)
    sizes = mask_sizes(masks, m)
    per_feature = []
    skipped = 0
    for i in range(m):
        # every array is over the masks without i, ascending
        gain, b, size = (_without(values, i) for values in (table.gain(i), masks, sizes))
        small = gain < SKIP_DENOM_TOL
        skipped += int(((1 << size[small]) - 1).sum())
        den = _strict_superset_max(np.where(small, -np.inf, gain), m - 1)
        usable = den > -np.inf
        ratio = np.full(gain.size, np.inf)
        ratio[usable] = np.maximum(gain[usable], 0.0) / den[usable]
        at = int(ratio.argmin())
        if usable[at]:
            per_feature.append((float(ratio[at]), int(b[at]), i))
    if not per_feature:
        return GammaSResult(math.inf, None, skipped)
    # The witness is the first (A, B, i) in mask order whose ratio is the
    # minimum: the smallest A, then for it the smallest usable B.
    value, a_mask, _ = min(per_feature)
    candidates = []
    for ratio_i, at, i in per_feature:
        if (ratio_i, at) != (value, a_mask):
            continue
        row = table.gain(i)
        gain, b = _without(row, i), _without(masks, i)
        usable = ((b & a_mask) == a_mask) & (b != a_mask) & ~(gain < SKIP_DENOM_TOL)
        hit = np.maximum(row[a_mask], 0.0) / gain[usable] == value
        candidates.append((int(b[usable][hit.argmax()]), i))
    b_mask, i = min(candidates)
    return GammaSResult(value, (indices_of(a_mask), indices_of(b_mask), i), skipped)
