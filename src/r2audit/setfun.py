"""The fit function viewed as a set function: gains, violation certificates,
empirical approximate-submodularity constants, and the chain lower bound.

Every exhaustive diagnostic reads one dense table r2[mask] of all 2^m subset
fits and one gain table gain[i, A], filled together by one sweep walk
(regress.fit_table) and published on the FitCache (O(m 2^m) memory). Where the
walk trusts A and A + i, the gain is C_A[i, y]^2 / C_A[i, i] from A's swept
matrix, so a small gain on top of a large fit keeps its relative accuracy;
elsewhere it is the table difference r2[A|i] - r2[A]. Above 20 features
(regress.GAIN_TABLE_BYTES) no gain table is kept and every gain is that
difference, taken where it is read. Stepwise, the submodularity ratio
and delta read fits through one reader, _fits: that table once it is
filled, otherwise one regress.fit_block call per block of subsets, kept
nowhere.
The second-order family (gamma_s2, second-order and suppressor certificates)
reads one kernel giving, per unordered pair lo < hi, the masks A holding
neither with gain_A(lo), gain_{A+hi}(lo), gain_A(hi) and gain_{A+lo}(hi):
O(m^2 2^m) time, O(2^m) memory per pair. One walk over it gives gamma_s2, the
counts of both violation lists, and either their heads (the rows that can be
among the first TOP_CERTIFICATES, in one row store per list) or, for
check_submodular, find_suppressors and the certificate stream, both whole
lists: the second-order rows in one row store, and the suppression rows
computed from them. The definition and first-order checks keep their rows in
the same store.
gamma_s divides each gain_A(i) by the largest usable gain_B(i) over strict
supersets B, found by a zeta transform in O(m^2 2^m) rather than a walk over
all O(m 3^m) nested pairs; fl(a / d) is monotone in a and d, so this is exact.
The definition and first-order checks compare blocks of table rows with the
whole table: O(4^m) and O(m 4^m) time. Argmin ties break toward the first
comparison in ascending mask order; certificates are ordered by deficit,
largest first, then by their index sets as tuples, and kept as columns
(Certificates) from the kernel to the certificate stream's renderer.
Second-order certificates (A, i, j) and (A, j, i) come from the same step
of that walk and carry its one deficit, that of (A, min(i, j), max(i, j)), so
they are selected together, and sort next to each other. Suppression
certificates are the second-order rows, rendered as square roots of the two
gains.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bitsets import block_masks, indices_of, mask_sizes
from .errors import OutOfDomain
from .regress import (
    DEFAULT_MAX_FEATURES,
    FitCache,
    StandardizedDesign,
    _as_indices,
    _check_cap,
    fit_block,
    fit_table,
)

VIOLATION_TOL = 1e-9
SKIP_DENOM_TOL = 1e-12

MODES = ("definition", "first_order", "second_order")

# Comparisons held at once by the definition and first-order checks.
_BLOCK = 1 << 18


def _fits(design: StandardizedDesign, cache: FitCache | None, idx) -> np.ndarray:
    """R^2 of every row of idx, a (k, s) block of sorted feature indices: read
    from the cache's table once it is filled, else fitted by one
    regress.fit_block call (zeros when s = 0), whose value for a row does not
    depend on the rest of the block."""
    idx = np.asarray(idx, dtype=np.intp)
    if cache is not None and cache.table is not None:
        return cache.table[block_masks(idx)]
    if idx.shape[1] == 0:
        return np.zeros(idx.shape[0])
    return fit_block(design, idx)[0]


def _table(design: StandardizedDesign, cache: FitCache | None, max_features: int) -> np.ndarray:
    """Cap-checked, dense, read-only r2[mask] of all 2^m masks, memoized on the
    cache with its gain table (``cache.gains``, None above 20 features) by
    one :func:`fit_table` call."""
    _check_cap(design.m, max_features)
    cache = cache if cache is not None else FitCache()
    table = cache.table
    if table is None:
        table, ranks, gains = fit_table(design)
        for values in (table, ranks, gains):
            if values is not None:
                values.setflags(write=False)
        cache.publish(table, ranks, gains)
    return table


def _gains_at(cache: FitCache, i, masks):
    """gain_A(i) for features i and masks A (scalars or arrays) of a filled
    cache: from its gain table, or the table difference where it kept none."""
    if cache.gains is not None:
        # one feature's row, then a 1-D gather: about twice as fast as [i, masks]
        return cache.gains[i][masks] if np.ndim(i) == 0 else cache.gains[i, masks]
    return cache.table[masks | (1 << i)] - cache.table[masks]


def _gain_row(cache: FitCache, i: int) -> np.ndarray:
    """gain_A(i) of a filled cache for every mask A (zero where A holds i)."""
    if cache.gains is not None:
        return cache.gains[i]
    return _gains_at(cache, i, np.arange(cache.table.size))


def _pair_gains(cache: FitCache, m: int) -> Iterator[tuple]:
    """Yield (A, lo, hi, gain_A(lo), gain_{A+hi}(lo), gain_A(hi), gain_{A+lo}(hi))
    for every pair lo < hi, where A holds, ascending, every mask containing
    neither lo nor hi."""
    rest = np.arange((1 << m) >> 2)  # every mask of m - 2 features
    for lo in range(m):
        bit_lo = 1 << lo
        # x + (x & -bit) inserts a zero at bit into each mask x, keeping their order
        without_lo = rest + (rest & -bit_lo)
        for hi in range(lo + 1, m):
            bit_hi = 1 << hi
            a = without_lo + (without_lo & -bit_hi)
            at = ((lo, a), (lo, a | bit_hi), (hi, a), (hi, a | bit_lo))
            yield a, lo, hi, *[_gains_at(cache, i, b) for i, b in at]


def delta(
    design: StandardizedDesign,
    added: Iterable[int],
    base: Iterable[int],
    cache: FitCache | None = None,
) -> float:
    """Gain in fit from adding a feature set to a base model.

    Overlap between the two sets is allowed and contributes nothing. Both
    sets must lie in range(m), whether or not the cache's table is filled.
    """
    base = _as_indices(base, design.m)
    joint = _as_indices((*added, *base), design.m)
    return float(_fits(design, cache, [joint])[0] - _fits(design, cache, [base])[0])


@dataclass(frozen=True)
class ViolationCertificate:
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


class Certificates(Sequence):
    """A list of certificates of one form, stored by column, read-only.

    ``columns`` holds one array per role in ``roles``: masks for the set roles
    A, B and S, feature indices for i and j; ``lhs``, ``rhs`` and ``deficit``
    are float64 arrays, all in storage order. Without ``ties`` that is the
    list's order; with it, the list is ordered by deficit, largest first, then
    by the per-row keys ``ties()`` gives, most significant first, found by one
    sort of the whole list on its first read (not by its length or truth
    value). An int index and iteration yield ViolationCertificate; a slice is
    again a Certificates, in order. It equals any sequence holding the same
    certificates in the same order.
    """

    def __init__(self, form: str, roles, columns, lhs, rhs, deficit, ties=None):
        self.form = form
        self.roles = tuple(roles)
        self.columns = tuple(columns)
        self.lhs, self.rhs, self.deficit = lhs, rhs, deficit
        for values in (*self.columns, lhs, rhs, deficit):
            values.setflags(write=False)
        self._ties = ties
        self._order: np.ndarray | None = None

    def __len__(self) -> int:
        return self.deficit.size

    def __getitem__(self, index):
        if not isinstance(index, slice):
            row = range(len(self))[index]
            return next(iter(self[row : row + 1]))
        if self._ties is not None:
            if self._order is None:  # sorted once, on the first read
                self._order = np.lexsort(self._ties()[::-1] + [-self.deficit])
            index = self._order[index]
        return Certificates(
            self.form,
            self.roles,
            [values[index] for values in self.columns],
            self.lhs[index],
            self.rhs[index],
            self.deficit[index],
        )

    def __iter__(self) -> Iterator[ViolationCertificate]:
        certs = self if self._ties is None else self[:]
        parts = []
        for role, values in zip(certs.roles, certs.columns):
            values = values.tolist()
            as_set = (lambda v: (v,)) if role in ("i", "j") else indices_of
            lookup = {v: (role, as_set(v)) for v in set(values)}
            parts.append(map(lookup.__getitem__, values))
        for sets, lhs, rhs, deficit in zip(
            zip(*parts), certs.lhs.tolist(), certs.rhs.tolist(), certs.deficit.tolist()
        ):
            yield ViolationCertificate(self.form, sets, lhs, rhs, deficit)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Certificates({self.form!r}, {len(self)} certificates)"


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


class _Rows:
    """The rows of one certificate list, offered a chunk at a time.

    An offer gives a mask of the chunk's rows to keep, then one array or
    scalar per role (masks for the set roles A, B and S, feature indices for
    i and j), then lhs, rhs and deficit arrays. Role columns are stored in
    their ``_role_dtype``. With ``top`` only the rows that can be among the
    list's first ``top`` are kept: every row not below the top-th largest
    deficit kept so far, ties at that cut too.
    """

    def __init__(self, roles, m, top=None):
        self.dtypes = [_role_dtype(role, m) for role in roles] + [np.dtype(float)] * 3
        self.parts = [[] for _ in self.dtypes]
        self.top, self.cut = top, -math.inf

    def offer(self, hit, *columns) -> None:
        at = np.flatnonzero(hit & ~(columns[-1] < self.cut))
        if at.size == 0:
            return
        for part, values, dtype in zip(self.parts, columns, self.dtypes):
            scalar = np.ndim(values) == 0
            part.append(np.full(at.size, values, dtype) if scalar else values[at].astype(dtype, copy=False))
        if self.top is not None:
            columns = self.columns()
            if columns[-1].size > self.top:
                self.cut = -np.partition(-columns[-1], self.top - 1)[self.top - 1]
                keep = ~(columns[-1] < self.cut)
                columns = [values[keep] for values in columns]
            self.parts = [[values] for values in columns]

    def columns(self) -> list[np.ndarray]:
        """Every kept row, one array per column. Each column's parts are
        dropped once joined, so the joined columns and the parts are not all
        held at once."""
        columns = []
        for part, dtype in zip(self.parts, self.dtypes):
            columns.append(np.concatenate(part) if part else np.zeros(0, dtype))
            part.clear()
        return columns


def _by_sets(form, roles, hits, m) -> Certificates:
    """Certificates of the hits, ordered by deficit, largest first, then by
    their index sets as tuples."""
    *columns, lhs, rhs, deficit = hits

    def ties():
        return [values if role in ("i", "j") else _lex_rank(values, m) for role, values in zip(roles, columns)]

    return Certificates(form, roles, columns, lhs, rhs, deficit, ties)


def _mask_pairs(m: int, keep) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the mask pairs (A, B) with keep(A, B), a block of rows A at a time."""
    masks = np.arange(1 << m)
    step = max(1, _BLOCK >> m)
    for lo in range(0, masks.size, step):
        rows, b = np.nonzero(keep(masks[lo : lo + step, None], masks))
        yield rows + lo, b


def _definition_pairs(table: np.ndarray, m: int):
    for a, b in _mask_pairs(m, np.less_equal):
        lhs, rhs = table[a] + table[b], table[a | b] + table[a & b]
        yield a, b, lhs, rhs, rhs - lhs


def _first_order_pairs(cache: FitCache, m: int):
    for a, b in _mask_pairs(m, lambda a, b: ((a | b) == b) & (a < b)):
        for i in range(m):
            gain = _gain_row(cache, i)
            outside = (b >> i) & 1 == 0
            lhs, rhs = gain[a[outside]], gain[b[outside]]
            yield a[outside], b[outside], i, lhs, rhs, rhs - lhs


def check_submodular(
    design: StandardizedDesign,
    mode: str = "second_order",
    tolerance: float = VIOLATION_TOL,
    cache: FitCache | None = None,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> Certificates:
    """Exhaustively certify one of the three diminishing-returns inequalities.

    mode "definition" checks F(A) + F(B) >= F(A|B) + F(A&B) over all pairs,
    "first_order" checks gains against nested base sets, and "second_order"
    checks gains against a single extra conditioning feature. Returns no
    certificates iff the inequality holds everywhere up to ``tolerance``;
    otherwise certificates ordered by deficit, largest first. Neither the
    length nor the truth value of the result sorts it.

    The second-order rows (A, i, j) and (A, j, i) are mirror images with
    mathematically equal deficits. Both take the deficit of
    (A, min(i, j), max(i, j)), are kept when it exceeds ``tolerance`` and
    dropped otherwise, and sort next to each other: the result holds every
    row's mirror, and its length is even.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    m = design.m
    cache = cache if cache is not None else FitCache()
    table = _table(design, cache, max_features)
    if mode == "second_order":
        return _second_order_summary(cache, m, tolerance, top=None).second_order
    if mode == "definition":
        roles, chunks = ("A", "B"), _definition_pairs(table, m)
    else:
        roles, chunks = ("A", "B", "i"), _first_order_pairs(cache, m)
    rows = _Rows(roles, m)
    for chunk in chunks:
        rows.offer(chunk[-1] > tolerance, *chunk)
    return _by_sets(mode, roles, rows.columns(), m)


def _second_order_certificates(a, i, j, gain, cond, deficit, m) -> Certificates:
    """Second-order certificates ordered by deficit, largest first, then by A,
    the unordered pair, then i, so mirror rows sit together."""
    def ties():
        return [_lex_rank(a, m), np.minimum(i, j), np.maximum(i, j), i]

    return Certificates("second_order", ("A", "i", "j"), (a, i, j), gain, cond, deficit, ties)


def find_suppressors(
    design: StandardizedDesign,
    tolerance: float = VIOLATION_TOL,
    cache: FitCache | None = None,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> Certificates:
    """Certify every (S, i, j) where conditioning on j amplifies feature i.

    A suppressor raises the absolute adjusted correlation between the
    response and i when j joins the conditioning set S: it is a second-order
    violation (S, i, j) viewed through square roots. The rows are exactly
    the second-order rows at the same tolerance, selected by the same
    shared deficit; certificates store the two absolute correlations
    sqrt(max(gain, 0)), and are ordered by their difference, largest first.
    """
    cache = cache if cache is not None else FitCache()
    _table(design, cache, max_features)
    return _second_order_summary(cache, design.m, tolerance, top=None).suppression


@dataclass(frozen=True)
class GammaS2Result:
    """Worst-case gain ratio over the second-order comparisons (A, i, j).

    gamma_s2 is the minimum of gain_A(i) / gain_{A+j}(i); a ratio whose
    denominator is negligible carries no information and is skipped (counted
    in skipped_s2). A minimum over no ratios is +inf, with witness None.
    """

    gamma_s2: float
    witness_s2: tuple[tuple[int, ...], int, int] | None
    skipped_s2: int


@dataclass(frozen=True)
class GammaSResult:
    """Worst-case gain ratio over the first-order comparisons (A, B, i).

    gamma_s is the minimum of gain_A(i) / gain_B(i) over nested A < B;
    skipping and the empty minimum are as in GammaS2Result.
    """

    gamma_s: float
    witness_s: tuple[tuple[int, ...], tuple[int, ...], int] | None
    skipped_s: int


TOP_CERTIFICATES = 10


def _roots(gain: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lhs, rhs and deficit of the suppression rows with these gains: the
    square roots of the two gains, clipped at 0, and their difference."""
    lhs, rhs = np.sqrt(np.maximum(gain, 0.0)), np.sqrt(np.maximum(cond, 0.0))
    return lhs, rhs, rhs - lhs


@dataclass(frozen=True)
class SecondOrderSummary:
    """gamma_s2; at one tolerance, the second-order rows' (= suppression rows') count, by_size[|A|] and
    by_pair[i, j]; and the lists of check_submodular and find_suppressors, whole or cut to their first
    certificates (see _second_order_summary)."""

    gamma: GammaS2Result
    count: int
    by_size: np.ndarray
    by_pair: np.ndarray
    second_order: Certificates
    suppression: Certificates


def _second_order_summary(
    cache: FitCache, m: int, tolerance: float, top: int | None = TOP_CERTIFICATES
) -> SecondOrderSummary:
    """The summary from one walk over _pair_gains, with the first ``top``
    certificates of each list, or the whole lists when ``top`` is None; found
    once per filled cache, tolerance and ``top``. A summary with the whole
    lists also answers every later call at its tolerance."""
    for held in (None, top):
        if ("summary", tolerance, held) in cache.derived:
            return cache.derived["summary", tolerance, held]
    # the k-th mask holding neither i nor j is k with two zero bits inserted
    sizes = mask_sizes(np.arange((1 << m) >> 2), m)
    by_size, by_pair = np.zeros(max(m - 1, 0), dtype=np.intp), np.zeros((m, m), dtype=np.intp)
    per_pair, skipped = [], 0
    second = _Rows(("A", "i", "j"), m, top)
    # The whole suppression list is the second-order rows through square
    # roots; only its head, ranked by their difference, needs its own rows.
    suppression = _Rows(("S", "i", "j"), m, top) if top is not None else None
    for a, lo, hi, gain_lo, cond_lo, gain_hi, cond_hi in _pair_gains(cache, m):
        # both orientations take the deficit of (A, lo, hi), so they hit the same rows
        deficit = cond_lo - gain_lo
        hit = deficit > tolerance
        by_size += 2 * np.bincount(sizes[hit], minlength=by_size.size)
        by_pair[lo, hi] = by_pair[hi, lo] = np.count_nonzero(hit)
        for i, j, num, den in ((lo, hi, gain_lo, cond_lo), (hi, lo, gain_hi, cond_hi)):
            keep = ~(den < SKIP_DENOM_TOL)
            skipped += a.size - int(keep.sum())
            if keep.any():  # the first smallest ratio of the kept ones: +inf elsewhere
                ratio = np.divide(np.maximum(num, 0.0), den, out=np.full(a.size, np.inf), where=keep)
                at = int(ratio.argmin())
                per_pair.append((float(ratio[at]), int(a[at]), i, j))
            second.offer(hit, a, i, j, num, den, deficit)
            if suppression is not None:
                suppression.offer(hit, a, i, j, *_roots(num, den))
    value, a_mask, i, j = min(per_pair, default=(math.inf, None, 0, 0))
    gamma = GammaS2Result(value, None if a_mask is None else (indices_of(a_mask), i, j), skipped)
    a, i, j, gain, cond, deficit = second.columns()
    second = _second_order_certificates(a, i, j, gain, cond, deficit, m)
    rows = [a, i, j, *_roots(gain, cond)] if suppression is None else suppression.columns()
    suppression = _by_sets("suppression", ("S", "i", "j"), rows, m)
    if top is not None:
        second, suppression = second[:top], suppression[:top]
    summary = SecondOrderSummary(gamma, int(by_size.sum()), by_size, by_pair, second, suppression)
    return cache.derived.setdefault(("summary", tolerance, top), summary)


def empirical_gamma_s2(
    design: StandardizedDesign,
    cache: FitCache | None = None,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> GammaS2Result:
    """Minimum of gain_A(i) / gain_{A+j}(i) over all eligible (A, i, j)."""
    cache = cache if cache is not None else FitCache()
    _table(design, cache, max_features)
    return _second_order_summary(cache, design.m, VIOLATION_TOL).gamma


def _strict_superset_max(values: np.ndarray, m: int) -> np.ndarray:
    """out[S] = max of values[T] over masks T strictly containing S (-inf if none)."""
    upper = values.copy()  # max over supersets, S included, seen so far
    out = np.full(values.size, -np.inf)
    for b in range(m):
        u, o = upper.reshape(-1, 2, 1 << b), out.reshape(-1, 2, 1 << b)
        np.maximum(o[:, 0], u[:, 1], out=o[:, 0])
        np.maximum(u[:, 0], u[:, 1], out=u[:, 0])
    return out


def empirical_gamma_s(
    design: StandardizedDesign,
    cache: FitCache | None = None,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> GammaSResult:
    """Minimum of gain_A(i) / gain_B(i) over nested pairs A < B with i outside B.

    For fixed A and i the smallest ratio uses the largest usable denominator
    over B, so one strict-superset max per feature replaces the walk over
    nested pairs. A denominator below SKIP_DENOM_TOL is skipped once for each
    of its 2^|B| - 1 proper subsets A.
    """
    m = design.m
    cache = cache if cache is not None else FitCache()
    _table(design, cache, max_features)
    masks = np.arange(1 << m)
    sizes = mask_sizes(masks, m)
    per_feature = []
    skipped = 0
    for i in range(m):
        gain = _gain_row(cache, i)
        outside = (masks >> i) & 1 == 0
        small = outside & (gain < SKIP_DENOM_TOL)
        skipped += int(((1 << sizes[small]) - 1).sum())
        den = _strict_superset_max(np.where(outside & ~small, gain, -np.inf), m)
        usable = den > -np.inf
        ratio = np.full(masks.size, np.inf)
        ratio[usable] = np.maximum(gain[usable], 0.0) / den[usable]
        at = int(ratio.argmin())
        if usable[at]:
            per_feature.append((float(ratio[at]), at, i))
    if not per_feature:
        return GammaSResult(math.inf, None, skipped)
    # The witness is the first (A, B, i) in mask order whose ratio is the
    # minimum: the smallest A, then for it the smallest usable B.
    value, a_mask, _ = min(per_feature)
    candidates = []
    for ratio_i, at, i in per_feature:
        if (ratio_i, at) != (value, a_mask):
            continue
        gain = _gain_row(cache, i)
        b = masks[((masks & a_mask) == a_mask) & (masks != a_mask) & ((masks >> i) & 1 == 0)]
        b = b[~(gain[b] < SKIP_DENOM_TOL)]
        hit = np.maximum(gain[a_mask], 0.0) / gain[b] == value
        candidates.append((int(b[hit.argmax()]), i))
    b_mask, i = min(candidates)
    return GammaSResult(value, (indices_of(a_mask), indices_of(b_mask), i), skipped)


def chain_lower_bound(gamma_s2: float, k: int) -> float:
    """Worst-case first-order constant implied by k second-order steps.

    Telescoping a chain of k single-feature conditioning steps, each at the
    worst ratio, multiplies the gain by gamma_s2 at every step, so the
    implied constant is gamma_s2 ** k. Exactly submodular input (gamma_s2 = 1)
    propagates unchanged.
    """
    if k < 1 or int(k) != k:
        raise OutOfDomain(f"chain length must be a positive integer, got {k}")
    if gamma_s2 == 1.0:
        return 1.0
    if not 0.0 < gamma_s2 < 1.0:
        raise OutOfDomain(f"gamma_s2 must lie in (0, 1), got {gamma_s2}")
    return gamma_s2 ** int(k)
