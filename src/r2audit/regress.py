"""Standardized regression designs and projection-based fit evaluation.

Every downstream diagnostic treats the coefficient of determination as a set
function over feature subsets. This module owns the representation that makes
those evaluations cheap and exact: columns are centered and scaled to unit
length, so inner products are sample correlations and the fit of a subset is
the squared norm of the response projected onto the subset's span.

Each design is QR-reduced once to the triangle R of [X | y]
(at most (m+1) x (m+1)), following the all-subsets regression of Furnival &
Wilson (1974). Since [X | y] = QR with orthonormal Q, the fit of a subset S is
||U^T R[:, m]||^2 for the left singular vectors U of R[:, S] above the rank
cutoff, independent of n. :func:`fit_block` evaluates stacks of equal-size
subsets that way, so a subset's value does not depend on how it was batched.
Every fit made outside a table is one such call and is not kept: single fits
(:func:`r_squared`), the candidates of a stepwise or ratio step, and the
best-subset judge.

:func:`sweep_walk` walks the same Furnival-Wilson subset tree over the Gram
matrix G = R^T R and reads each child's fit off its parent's Schur
complement, one sweep per added feature (Goodnight 1979). Best subset uses
its values as screens and re-fits the finalists with :func:`fit_block`.
:func:`fit_table` walks the whole tree once and keeps the values: every
subset's fit and every single-feature gain C_A[i, y]^2 / C_A[i, i], read off
the swept matrices rather than as a difference of two fits, up to 20
features (GAIN_TABLE_BYTES). Subsets the walk does not trust are fitted by
:func:`fit_block`. That table, published on a :class:`FitCache`, is the
exhaustive audit's value of record, and the fit function's one stored form.

Rank decisions use a relative singular-value cutoff, so collinear subsets are
evaluated on the column space they actually span instead of failing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bitsets import block_masks, combination_blocks, mask_sizes
from .errors import (
    Collinear,
    ConstantColumn,
    DataFormatError,
    DegenerateResidual,
    InsufficientDof,
    NotPSD,
    RankDeficient,
    TooFewRows,
    TooManyFeatures,
)

# Shared numeric tolerances. Enumeration caps live here because subsets are
# 64-bit masks; HARD_MAX_FEATURES is the absolute ceiling for them.
CENTER_TOL = 1e-10
UNIT_NORM_TOL = 1e-10
RANK_RTOL = 1e-10
DEGENERATE_TOL = 1e-10
ZERO_RSS_TOL = 1e-12
PSD_TOL = 1e-10
DEFAULT_MAX_FEATURES = 24
HARD_MAX_FEATURES = 63

# Subsets per stacked LAPACK call and per streamed block: fit_block's SVDs,
# the table fill, sparse_min_eigenvalue's eigvalsh and best-subset
# finalists; divided by SWEEP_CHUNK_DIVISOR, sweep_walk's nodes per block.
# When best subset fitted every subset, 4096-subset stacks ran no faster on
# an n = 2000, m = 24, k = 4 search and raised its peak RSS from 35.0 to
# 41.6 MiB.
FIT_CHUNK = 256

# sweep_walk trusts a subset S when every member a keeps a pivot of at least
# this fraction of G[a, a] against the rest of S: 1 / [G_S^{-1}]_aa, the
# squared residual norm a leaves when swept last. Then the smallest
# eigenvalue of G_S is at least SWEEP_PIVOT_RTOL / |S|, so fit_block never
# calls a trusted subset rank-deficient, and a screened value is off by at
# most about 3 eps trace(G_S^{-1}) <= 3 eps |S| / SWEEP_PIVOT_RTOL (3 is the
# largest ratio measured on 120 designs built from near-collinear and nested
# near-null columns). At 1e-6 that is 1.6e-8 for 24 features, under half of
# selection.SCREEN_BAND, and only a member that the others explain to an R^2
# above 1 - 1e-6 sends a subset to fit_block. Checking just the pivot each
# feature meets on its own tree path is not enough: a nested design passed
# that check with pivots of 1.4e-6 and screened values off by 1.6e-6.
SWEEP_PIVOT_RTOL = 1e-6

# fit_table's floor, from the same bound: at DEFAULT_MAX_FEATURES a trusted
# table value is off by at most 3 eps * 24 / TABLE_PIVOT_RTOL = 1e-10, a tenth
# of setfun.VIOLATION_TOL (1e-9), so no certificate turns on the sweep's
# rounding: 1.6e-4. The bound is loose: on the fit kernel's seven test
# designs the largest error against a direct fit is 3.7e-15 at this floor,
# and 2.6e-13 (the Miller table) at SWEEP_PIVOT_RTOL.
TABLE_PIVOT_RTOL = 3 * np.finfo(float).eps * DEFAULT_MAX_FEATURES / 1e-10

# fit_table keeps its (m, 2^m) float gain table only while it fits in this
# many bytes, that is up to m = 20 (160 MiB; m = 21 would take 336 MiB and
# m = 24 3 GiB). Above it the table holds r2 alone, and setfun reads each
# gain as the difference of two table values, in O(2^m) memory per feature.
GAIN_TABLE_BYTES = 256 << 20

# sweep_walk expands FIT_CHUNK // SWEEP_CHUNK_DIVISOR nodes per block. Such a
# node holds a full (m+1)^2 swept matrix and the scores of up to m children.
# On an n = 2000, m = 24, k = 4 best subset, blocks of FIT_CHUNK raised the
# process's peak RSS from 35.7 MiB (blocks of 32) to 38.5-38.7 MiB; blocks
# of 4 peaked no lower and took 11 ms against 8 ms. fit_table's walk, whose
# output holds every subset anyway, expands FIT_CHUNK nodes per block:
# at m = 18 that filled the table in 1.07 s instead of 1.84 s, and raised the
# peak RSS from 87 to 100 MiB.
SWEEP_CHUNK_DIVISOR = 8

SubsetLike = Iterable[int]


def _check_cap(m: int, max_features: int) -> None:
    """Refuse an exhaustive enumeration over more than the allowed features."""
    cap = min(max_features, HARD_MAX_FEATURES)
    if m > cap:
        raise TooManyFeatures(m, cap)


@dataclass(frozen=True, eq=False)
class StandardizedDesign:
    """Feature matrix and response with mean-zero, unit-norm columns.

    Inner products between columns equal sample correlations, which makes the
    geometric formulas used elsewhere literal. Arrays are frozen after
    construction; use :func:`standardize` or :func:`gram_factory` to build one.
    """

    features: np.ndarray
    response: np.ndarray
    names: tuple[str, ...]
    triangle: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.response, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("features must be (n, m) with a length-n response")
        n, m = X.shape
        if n < 2:
            raise ValueError("need at least two observations")
        if m < 1:
            raise ValueError("need at least one feature")
        if len(self.names) != m:
            raise ValueError("names must match the number of feature columns")
        sums = np.abs(X.sum(axis=0))
        norms = np.abs(np.linalg.norm(X, axis=0) - 1.0)
        if sums.max() > CENTER_TOL or norms.max() > UNIT_NORM_TOL:
            raise ValueError("feature columns are not centered to unit norm")
        if abs(y.sum()) > CENTER_TOL or abs(np.linalg.norm(y) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("response is not centered to unit norm")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "response", y)
        X.setflags(write=False)
        y.setflags(write=False)
        R = np.linalg.qr(np.column_stack([X, y]), mode="r")
        R.setflags(write=False)
        object.__setattr__(self, "triangle", R)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def marginal_correlations(self) -> np.ndarray:
        """Correlation of each feature with the response."""
        return self.features.T @ self.response

    def correlation_matrix(self) -> np.ndarray:
        """Feature-by-feature sample correlation matrix."""
        return self.features.T @ self.features


class FitCache:
    """The dense tables a set-function kernel fills once per design.

    ``table`` holds r_squared by subset mask once :func:`fit_table` has
    filled it, ``ranks`` the matching ranks, and ``gains`` the (m, 2^m) gain
    table, or None when fit_table kept none (see GAIN_TABLE_BYTES). All three
    are published by :meth:`publish`, table last, so readers see None or a
    full table. ``derived`` holds what kernels compute from the table and
    share, keyed by the kernel and its parameters. Without a table, fits are
    made by :func:`fit_block` and not kept.
    """

    def __init__(self):
        self.ranks: np.ndarray | None = None
        self.gains: np.ndarray | None = None
        self.table: np.ndarray | None = None
        self.derived: dict = {}

    def publish(self, table: np.ndarray, ranks: np.ndarray, gains: np.ndarray | None) -> None:
        self.ranks = ranks
        self.gains = gains
        self.table = table


def _as_indices(subset: SubsetLike, m: int) -> tuple[int, ...]:
    idx = tuple(sorted(set(int(i) for i in subset)))
    if idx and (idx[0] < 0 or idx[-1] >= m):
        raise ValueError(f"subset {list(idx)} out of range for m={m}")
    return idx


def default_names(m: int) -> tuple[str, ...]:
    return tuple(f"X{i + 1}" for i in range(m))


def standardize(
    raw: np.ndarray,
    response: np.ndarray,
    names: Sequence[str] | None = None,
) -> StandardizedDesign:
    """Center and scale columns (and the response) to unit length.

    Raises ConstantColumn for any zero-variance column; the response is
    reported with index -1. Already-standardized input is a fixed point.
    """
    X = np.asarray(raw, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("raw must be (n, m) with a length-n response")
    if X.shape[0] < 2:
        raise ValueError("need at least two observations")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataFormatError("input contains NaN or Inf")

    Xc = X - X.mean(axis=0)
    scale = np.maximum(1.0, np.linalg.norm(X, axis=0))
    norms = np.linalg.norm(Xc, axis=0)
    for j in range(X.shape[1]):
        if norms[j] <= 1e-12 * scale[j]:
            raise ConstantColumn(j)
    yc = y - y.mean()
    ynorm = np.linalg.norm(yc)
    if ynorm <= 1e-12 * max(1.0, np.linalg.norm(y)):
        raise ConstantColumn(-1)

    cols = tuple(names) if names is not None else default_names(X.shape[1])
    return StandardizedDesign(Xc / norms, yc / ynorm, cols)


def load_csv(path, response_name: str):
    """Read a headered CSV into (raw features, response, feature names).

    Cells must parse as finite decimal floats and column names must be
    distinct; the response column is picked out by header name and removed
    from the feature block. A leading byte-order mark is not part of the
    first name.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty CSV") from None
        header = [h.strip() for h in header]
        if len(set(header)) < len(header):
            twice = next(h for i, h in enumerate(header) if h in header[:i])
            raise DataFormatError(f"column {twice!r} appears more than once in header {header}")
        if response_name not in header:
            raise DataFormatError(f"response column {response_name!r} not in header {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(f"row {lineno} has {len(row)} cells, expected {len(header)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise DataFormatError(f"row {lineno} contains a non-numeric cell") from None
    if len(rows) < 2:
        raise DataFormatError("need at least two data rows")
    data = np.asarray(rows, dtype=float)
    if not np.isfinite(data).all():
        raise DataFormatError("CSV contains NaN or Inf")
    ycol = header.index(response_name)
    y = data[:, ycol]
    X = np.delete(data, ycol, axis=1)
    names = tuple(h for i, h in enumerate(header) if i != ycol)
    return X, y, names


# ---------------------------------------------------------------------------
# Projection machinery
# ---------------------------------------------------------------------------


def fit_block(design: StandardizedDesign, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r_squared, rank) of every row of idx, a (k, s) block of feature indices.

    Each row is one subset of s >= 1 distinct features. The rows are fitted
    on the design's triangle by stacked SVDs of at most FIT_CHUNK subsets,
    with the same relative rank cutoff and clip at 1 as a direct n x s fit.
    Projections are summed term by term in a fixed order, so a row's value
    does not depend on the block or chunk it came in.
    """
    idx = np.asarray(idx, dtype=np.intp)
    R = design.triangle
    b = R[:, design.m]
    r2 = np.empty(idx.shape[0])
    rank = np.empty(idx.shape[0], dtype=np.intp)
    for lo in range(0, idx.shape[0], FIT_CHUNK):
        rows = slice(lo, lo + FIT_CHUNK)
        U, s, _ = np.linalg.svd(R[:, idx[rows]].transpose(1, 0, 2), full_matrices=False)
        keep = s > RANK_RTOL * s[:, :1]
        proj = U[:, 0, :] * b[0]
        for i in range(1, b.size):
            proj += U[:, i, :] * b[i]
        terms = np.where(keep, proj * proj, 0.0)
        total = terms[:, 0].copy()
        for j in range(1, terms.shape[1]):
            total += terms[:, j]
        r2[rows] = np.minimum(total, 1.0)
        rank[rows] = keep.sum(axis=1)
    return r2, rank


def sweep_walk(design: StandardizedDesign, depth: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Screened R^2 of every subset of 1..depth features, one sweep per edge.

    Yields blocks (idx, r2, trusted): idx is a (k, s) block of feature
    indices as :func:`fit_block` takes it, one subset per row. Together the
    blocks hold every nonempty subset of at most ``depth`` features once.

    The walk follows the Furnival-Wilson tree, in which a child adds one
    feature above its parent's largest, over the Gram matrix G = R^T R of the
    design's triangle, so its cost does not depend on n. Each node A carries
    SWEEP(G, A) (Goodnight 1979): the Schur complement C_A outside A and
    -G_A^{-1} inside, as a full (m+1)^2 matrix. A child A + i scores
    r2[A] + C_A[i, y]^2 / C_A[i, i]. Nodes are expanded depth first, in
    blocks of at most FIT_CHUNK // SWEEP_CHUNK_DIVISOR, so memory does not
    grow with the number of subsets.

    A subset S is trusted when each member's pivot against the rest of S,
    1 / [G_S^{-1}]_aa, is at least SWEEP_PIVOT_RTOL * G[a, a], and its parent
    is trusted. An untrusted subset is not swept further: it and its whole
    subtree come back with trusted False and r2 NaN, for the caller to fit
    with :func:`fit_block`. Trusted values agree with fit_block's to
    rounding, not bit for bit (see SWEEP_PIVOT_RTOL).
    """
    for idx, r2, trusted, _ in _sweep_blocks(design, depth, SWEEP_PIVOT_RTOL, False):
        yield idx, r2, trusted


def fit_table(design: StandardizedDesign) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(r2, rank, gain) of every subset mask, from one full-depth sweep walk.

    r2 and rank are indexed by mask; gain is (m, 2^m) with gain[i, A] the fit
    gained by adding feature i to A (0 when A holds i), or None when it would
    take more than GAIN_TABLE_BYTES. A subset the walk trusts at
    TABLE_PIVOT_RTOL takes its swept value, clipped at 1 like fit_block's,
    and rank |S|; fit_block fits every other subset. Where A and A + i are
    both trusted, gain[i, A] is C_A[i, y]^2 / C_A[i, i] from A's swept
    matrix, not a difference of two nearly equal fits; elsewhere it is the
    difference r2[A + i] - r2[A].
    """
    m = design.m
    keep_gains = 8 * m << m <= GAIN_TABLE_BYTES
    r2 = np.zeros(1 << m)
    rank = mask_sizes(np.arange(1 << m), m).astype(np.uint8)
    trusted = np.ones(1 << m, dtype=bool)
    gain = np.full((m, 1 << m), np.nan) if keep_gains else None
    for idx, values, ok, rows in _sweep_blocks(design, m, TABLE_PIVOT_RTOL, keep_gains):
        at = block_masks(idx)
        r2[at] = values
        trusted[at] = ok
        if keep_gains:
            gain[:, at] = rows.T
        if not ok.all():
            r2[at[~ok]], rank[at[~ok]] = fit_block(design, idx[~ok])
    np.minimum(r2, 1.0, out=r2)
    if keep_gains:
        masks = np.arange(1 << m)
        for i in range(m):
            with_i = masks | (1 << i)
            row = gain[i]
            fallback = np.flatnonzero(np.isnan(row) | ~trusted[with_i])
            row[fallback] = r2[with_i[fallback]] - r2[fallback]
    return r2, rank, gain


def _sweep_blocks(design: StandardizedDesign, depth: int, floor: float, gains: bool):
    """sweep_walk's blocks, each with a fourth entry: None, or with ``gains``
    a (k, m) array whose row holds C_S[j, y]^2 / C_S[j, j] of the block's
    subset S for every feature j, NaN where S is untrusted or C_S[j, j] is
    below j's floor (every member of S among them)."""
    m = design.m
    if not 0 <= depth <= m:
        raise ValueError(f"depth must lie in 0..{m}")
    if depth == 0:
        return
    G = design.triangle.T @ design.triangle
    floor = floor * np.diagonal(G)[:m]
    features = np.arange(m)
    block_size = FIT_CHUNK if gains else FIT_CHUNK // SWEEP_CHUNK_DIVISOR

    def below(members, r2, C):
        # The subtrees of a block of trusted nodes of one size. ``members``
        # holds each node's features as a row, C their swept matrices.
        count, size = members.shape
        node = np.arange(count)[:, None]
        diag = np.diagonal(C, axis1=1, axis2=2)[:, :m]
        cross = C[:, :m, m]
        rows = C[node, members, :m]
        last = members[:, -1] if size else np.full(count, -1)
        p, i = np.nonzero(features > last[:, None])
        pivot = diag[p, i]
        ok = pivot >= floor[i]
        pivot = np.where(ok, pivot, 1.0)
        # [G_S^{-1}]_aa of each member a of the child S, against a's floor
        inverse = np.square(rows[p, :, i]) / pivot[:, None] - diag[node, members][p]
        trusted = ok & (inverse * floor[members][p] <= 1.0).all(axis=1)
        r2 = np.where(trusted, r2[p] + np.square(cross[p, i]) / pivot, np.nan)
        idx = np.concatenate([members[p], i[:, None]], axis=1)
        child_gains = None
        if gains:
            # The children's diagonals and response columns, as the sweeps
            # below compute them
            col = C[p, :m, i]
            child_diag = diag[p] - col * (col / pivot[:, None])
            child_cross = cross[p] - col * (cross[p, i] / pivot)[:, None]
            usable = trusted[:, None] & (child_diag >= floor)
            child_gains = np.where(usable, np.square(child_cross) / np.where(usable, child_diag, 1.0), np.nan)
        yield idx, r2, trusted, child_gains
        if size + 1 == depth:
            return
        parents = i < m - 1
        for c in np.flatnonzero(parents & ~trusted):
            yield from untrusted_below(idx[c])
        for block in _blocks(np.flatnonzero(parents & trusted), block_size):
            pp, k, d = p[block], i[block], pivot[block]
            col = C[pp, :, k]
            scale = col / d[:, None]
            swept = C[pp]
            swept -= col[:, :, None] * scale[:, None, :]
            b = np.arange(block.size)
            swept[b, k, :] = scale
            swept[b, :, k] = scale
            swept[b, k, k] = -1.0 / d
            yield from below(idx[block], r2[block], swept)

    def untrusted_below(node):
        # Every descendant of one untrusted node, unswept.
        last = int(node[-1])
        free = m - last - 1
        for extra in range(1, min(depth - node.size, free) + 1):
            for tail in combination_blocks(free, extra, FIT_CHUNK):
                head = np.broadcast_to(node, (len(tail), node.size))
                idx = np.concatenate([head, tail + (last + 1)], axis=1)
                unknown = np.full((len(idx), m), np.nan) if gains else None
                yield idx, np.full(len(idx), np.nan), np.zeros(len(idx), bool), unknown

    yield from below(np.zeros((1, 0), np.intp), np.zeros(1), G[None])


def _blocks(rows: np.ndarray, size: int) -> Iterator[np.ndarray]:
    """Split an index array into blocks of at most ``size`` consecutive nodes."""
    size = max(1, size)
    for lo in range(0, rows.size, size):
        yield rows[lo : lo + size]


def r_squared(design: StandardizedDesign, subset: SubsetLike) -> float:
    """Squared norm of the response's projection onto the subset's span, by
    one :func:`fit_block` call.

    The empty subset evaluates to 0 by convention. Rank-deficient subsets are
    projected onto the space actually spanned.
    """
    idx = _as_indices(subset, design.m)
    if not idx:
        return 0.0
    return float(fit_block(design, np.array([idx]))[0][0])


def span_basis(design: StandardizedDesign, subset: SubsetLike) -> np.ndarray:
    """Orthonormal basis (n x rank) for the span of a feature subset."""
    idx = _as_indices(subset, design.m)
    if not idx:
        return np.zeros((design.n, 0))
    X = design.features[:, idx]
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return U[:, :rank]


def residualize(
    design: StandardizedDesign,
    targets: SubsetLike,
    conditioners: SubsetLike,
) -> np.ndarray:
    """Columns of the target features with the conditioners projected out.

    Residuals are NOT renormalized; a residual column orthogonalized against a
    set it (numerically) lies in comes back near zero.
    """
    A = _as_indices(targets, design.m)
    S = _as_indices(conditioners, design.m)
    if set(A) & set(S):
        raise ValueError("targets and conditioners overlap")
    block = design.features[:, A].copy()
    if not S:
        return block
    Q = span_basis(design, S)
    return block - Q @ (Q.T @ block)


def partial_correlation(design: StandardizedDesign, i: int, subset: SubsetLike) -> float:
    """Correlation between the response and feature i adjusted for a subset.

    The squared value equals the fit improvement from adding i to the subset.
    Raises DegenerateResidual when i lies in the subset's span; callers that
    want a gain treat that case as zero.
    """
    S = _as_indices(subset, design.m)
    resid = residualize(design, (i,), S)[:, 0]
    norm = float(np.linalg.norm(resid))
    if norm <= DEGENERATE_TOL:
        raise DegenerateResidual(i, S)
    value = float(design.response @ resid) / norm
    return float(np.clip(value, -1.0, 1.0))


@dataclass(frozen=True)
class LeastSquaresFit:
    """Coefficients with standard errors and t statistics for one subset.

    A fit whose residual is numerically zero reports every t statistic as the
    +inf sentinel instead of failing; interpolating fits do occur on exact
    constructions.
    """

    subset: tuple[int, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_statistics: np.ndarray
    rss: float
    dof: int


def ls_fit(design: StandardizedDesign, subset: SubsetLike) -> LeastSquaresFit:
    """Least-squares fit of the response on a feature subset.

    The intercept is absorbed by standardization, so the residual variance
    uses n - |S| - 1 degrees of freedom.
    """
    idx = _as_indices(subset, design.m)
    if not idx:
        raise ValueError("ls_fit needs a nonempty subset")
    k = len(idx)
    if k > design.n - 2:
        raise InsufficientDof(idx)
    X = design.features[:, idx]
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankDeficient(idx)
    proj = U.T @ design.response
    coef = Vt.T @ (proj / s)
    rss = max(1.0 - float(proj @ proj), 0.0)
    dof = design.n - k - 1
    if rss <= ZERO_RSS_TOL:
        se = np.zeros(k)
        t = np.full(k, np.inf)
    else:
        sigma2 = rss / dof
        gram_inv_diag = np.sum((Vt / s[:, None]) ** 2, axis=0)
        se = np.sqrt(sigma2 * gram_inv_diag)
        t = coef / se
    return LeastSquaresFit(idx, coef, se, t, rss, dof)


@dataclass(frozen=True)
class CoefficientDecomposition:
    marginal: float
    direct: float
    indirect: float


def coef_decomposition(design: StandardizedDesign, i: int, j: int) -> CoefficientDecomposition:
    """Split the simple-regression slope of i into direct and indirect parts.

    marginal = direct + indirect, where direct is i's coefficient in the
    two-feature model with j, and indirect routes through regressing i on j.
    """
    if i == j:
        raise ValueError("need two distinct features")
    _as_indices((i, j), design.m)  # a ValueError outside range(m)
    xi = design.features[:, i]
    xj = design.features[:, j]
    y = design.response
    r_ij = float(xi @ xj)
    det = 1.0 - r_ij * r_ij
    if det <= 1e-12:
        raise Collinear(i, j)
    r_yi = float(y @ xi)
    r_yj = float(y @ xj)
    direct = (r_yi - r_ij * r_yj) / det
    beta_j = (r_yj - r_ij * r_yi) / det
    return CoefficientDecomposition(marginal=r_yi, direct=direct, indirect=r_ij * beta_j)


# ---------------------------------------------------------------------------
# Exact-Gram synthesis
# ---------------------------------------------------------------------------


def _centered_orthonormal_basis(n: int) -> np.ndarray:
    """Helmert-style orthonormal basis (n x (n-1)) of the mean-zero subspace."""
    Q = np.zeros((n, n - 1))
    for j in range(1, n):
        scale = 1.0 / np.sqrt(j * (j + 1))
        Q[:j, j - 1] = scale
        Q[j, j - 1] = -j * scale
    return Q


def gram_factory(
    gram: np.ndarray,
    n: int,
    names: Sequence[str] | None = None,
) -> StandardizedDesign:
    """Realize a target correlation matrix as an exact finite sample.

    ``gram`` is (k+1) x (k+1) with the response first. The eigenfactor of the
    gram is embedded into an orthonormal basis of the subspace orthogonal to
    the constant vector, so the sample correlations of the returned design
    equal the target entrywise up to floating-point error. Requires
    n >= k + 2 rows.
    """
    G = np.asarray(gram, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] < 2:
        raise ValueError("gram must be square with at least two variables")
    if np.abs(G - G.T).max() > 1e-10:
        raise ValueError("gram must be symmetric")
    if np.abs(np.diag(G) - 1.0).max() > 1e-10:
        raise ValueError("gram must have a unit diagonal")
    k = G.shape[0] - 1
    if n < k + 2:
        raise TooFewRows(f"need n >= {k + 2} rows to embed {k + 1} variables")
    w, V = np.linalg.eigh(G)
    if w[0] < -PSD_TOL:
        raise NotPSD(f"gram has eigenvalue {w[0]:.3e}")
    factor = V * np.sqrt(np.clip(w, 0.0, None))
    Q = _centered_orthonormal_basis(n)
    columns = Q[:, : k + 1] @ factor.T
    cols = tuple(names) if names is not None else default_names(k)
    return StandardizedDesign(columns[:, 1:], columns[:, 0], cols)
