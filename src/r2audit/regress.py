"""Standardized regression designs and projection-based fit evaluation.

Every downstream diagnostic treats the coefficient of determination as a set
function over feature subsets. This module owns the representation that makes
those evaluations cheap and exact: columns are centered and scaled to unit
length, so inner products are sample correlations and the fit of a subset is
the squared norm of the response projected onto the subset's span.

Each design is QR-reduced once, by :func:`standardize`, to the triangle R of
its standardized [X | y] (at most (m+1) x (m+1)), following the all-subsets
regression of Furnival & Wilson (1974), and keeps R instead of its rows. R
is folded in from row blocks of [1 | X | y] (see :func:`_fold_rows`), so no
column is centered and no n-row copy is made. R's columns have the inner
products of the standardized columns, and the fit of a subset S is
||U^T R[:, m]||^2 for the left singular vectors U of R[:, S] above the rank
cutoff; the correlations, partial correlations and least-squares fits are
computed on R too, so no cost depends on n.
:func:`fit_block` evaluates stacks of equal-size subsets that way, so a
subset's value does not depend on how it was batched. Every fit made outside
a table is one such call and is not kept: single fits (:func:`r_squared`),
each stepwise model, the candidate sets of the submodularity ratio, and the
best-subset judge.

:func:`sweep_walk` walks the same Furnival-Wilson subset tree over the Gram
matrix G = R^T R and reads each child's fit off its parent's Schur
complement, one sweep per added feature (Goodnight 1979). Best subset uses
its values as screens and re-fits the finalists with :func:`fit_block`.
:func:`fit_table` walks the whole tree once and keeps the values: every
subset's fit and every single-feature gain C_A[i, y]^2 / C_A[i, i], read off
the swept matrices rather than as a difference of two fits, up to 20
features (GAIN_TABLE_BYTES). Subsets the walk does not trust are fitted by
:func:`fit_block`. That read-only :class:`FitTable`, built once per audit, is
the value of record of the kernels that read every mask: gamma_s2, gamma_s
and the violation certificates. :meth:`FitTable.gain` reads it. Both walks
and greedy stepwise sweep with one update (:func:`_sweep`) and trust a swept
subset by one test (:func:`_pivots`).

Rank decisions use a relative singular-value cutoff, so collinear subsets are
evaluated on the column space they actually span instead of failing.
"""

from __future__ import annotations

import csv
import warnings
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .bitsets import block_masks
from .errors import (
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
RANK_RTOL = 1e-10
DEGENERATE_TOL = 1e-10
ZERO_RSS_TOL = 1e-12
PSD_TOL = 1e-10
DEFAULT_MAX_FEATURES = 24
HARD_MAX_FEATURES = 63

# Subsets per stacked LAPACK call and per streamed block: fit_block's SVDs,
# the table fill and sparse_min_eigenvalue's eigvalsh; divided by
# SWEEP_CHUNK_DIVISOR, sweep_walk's nodes per block.
# When best subset fitted every subset, 4096-subset stacks ran no faster on
# an n = 2000, m = 24, k = 4 search and raised its peak RSS from 35.0 to
# 41.6 MiB.
FIT_CHUNK = 256

# The one trust floor of every sweep (fit_table's walk, sweep_walk's screen
# and stepwise): a subset S is trusted when every member a keeps a pivot of
# at least this fraction of G[a, a] against the rest of S, 1 / [G_S^{-1}]_aa,
# the squared residual norm a leaves when swept last. Then the smallest
# eigenvalue of G_S is at least TABLE_PIVOT_RTOL / |S|, so fit_block never
# calls a trusted subset rank-deficient, and a swept value is off by at most
# about 3 eps trace(G_S^{-1}) <= 3 eps |S| / TABLE_PIVOT_RTOL (3 is the
# largest ratio measured on 120 designs built from near-collinear and nested
# near-null columns). At DEFAULT_MAX_FEATURES that is 1e-10, a tenth of
# setfun.VIOLATION_TOL (1e-9), so no certificate turns on the sweep's
# rounding, and a thousandth of selection.SCREEN_BAND; the floor is 1.6e-4.
# Checking just the pivot each feature meets on its own tree path is not
# enough: a nested design passes that check with path pivots of 3.7e-4 and
# is rank-deficient. The bound is loose: on the fit kernel's seven test
# designs the largest error against a direct fit is 3.7e-15.
TABLE_PIVOT_RTOL = 3 * np.finfo(float).eps * DEFAULT_MAX_FEATURES / 1e-10

# fit_table keeps its (m, 2^m) float gain table only while it fits in this
# many bytes, that is up to m = 20 (160 MiB; m = 21 would take 336 MiB and
# m = 24 3 GiB). Above it the table holds r2 alone, and FitTable.gain reads
# each gain as the difference of two table values, in O(2^m) memory per
# feature.
GAIN_TABLE_BYTES = 256 << 20

# sweep_walk expands FIT_CHUNK // SWEEP_CHUNK_DIVISOR nodes per block. Such a
# node holds a full (m+1)^2 swept matrix and the scores of up to m children.
# On an n = 2000, m = 24, k = 4 best subset, blocks of FIT_CHUNK raised the
# process's peak RSS from 35.7 MiB (blocks of 32) to 38.5-38.7 MiB; blocks
# of 4 peaked no lower and took 11 ms against 8 ms. fit_table's walk, whose
# output holds every subset anyway, expands FIT_CHUNK nodes per block, with
# or without a gain table: at m = 18 that filled the table in 1.07 s instead
# of 1.84 s, and raised the peak RSS from 87 to 100 MiB; at m = 21, with no
# gain table, in 2.7 s instead of 5.4 s, and the fill's peak went from 51 to
# 65 MiB.
SWEEP_CHUNK_DIVISOR = 8

# Rows of [1 | X | y] per QR call of _fold_rows. Each call factors the running
# triangle, at most m + 2 rows, stacked on one block, so building a design
# allocates nothing of n rows.
TRIANGLE_BLOCK = 256

SubsetLike = Iterable[int]


def _check_cap(m: int, max_features: int) -> None:
    """Refuse an exhaustive enumeration over more than the allowed features."""
    cap = min(max_features, HARD_MAX_FEATURES)
    if m > cap:
        raise TooManyFeatures(m, cap)


class StandardizedDesign:
    """The QR triangle R, min(n-1, m+1) x (m+1), of a standardized [X | y]:
    its columns are centered to unit norm, so their inner products are
    correlations.

    A value holding what it is given, as :class:`FitTable` is: R, kept
    read-only, n and the names; the attributes are frozen too. Use
    :func:`standardize` or :func:`gram_factory` to build one from rows. Two
    designs are equal only if they are the same object.
    """

    __slots__ = ("triangle", "n", "names")

    def __init__(self, triangle: np.ndarray, n: int, names: tuple[str, ...]):
        triangle.setflags(write=False)
        object.__setattr__(self, "triangle", triangle)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"StandardizedDesign(triangle={self.triangle!r}, n={self.n!r}, names={self.names!r})"

    @property
    def m(self) -> int:
        return self.triangle.shape[1] - 1

    def gram(self) -> np.ndarray:
        """R^T R: the (m+1) x (m+1) correlation matrix of [X | y]."""
        return self.triangle.T @ self.triangle

    def marginal_correlations(self) -> np.ndarray:
        """Correlation of each feature with the response."""
        return self.gram()[: self.m, -1]

    def correlation_matrix(self) -> np.ndarray:
        """Feature-by-feature sample correlation matrix."""
        return self.gram()[: self.m, : self.m]


class FitTable(NamedTuple):
    """The fit function of one design as a value: r2[mask] of every subset
    mask, and the (m, 2^m) gain table gains[i, A], or None when
    :func:`fit_table` kept none (see GAIN_TABLE_BYTES). Both arrays are
    read-only, so one table serves any number of kernels and threads.
    """

    r2: np.ndarray
    gains: np.ndarray | None

    @property
    def m(self) -> int:
        return self.r2.size.bit_length() - 1

    def gain(self, i: int) -> np.ndarray:
        """gain_A(i) of feature i at every mask A, 0 where A holds i: the gain
        table's row, a read-only view, or without one :func:`_difference_row`."""
        return _difference_row(self.r2, i) if self.gains is None else self.gains[i]


def _difference_row(r2: np.ndarray, i: int) -> np.ndarray:
    """r2[A + i] - r2[A] at every mask A, 0 where A holds i: the upper half of
    each block of r2.reshape(-1, 2, 1 << i) less its lower half."""
    halves = r2.reshape(-1, 2, 1 << i)
    row = np.zeros(r2.size)
    np.subtract(halves[:, 1], halves[:, 0], out=row.reshape(halves.shape)[:, 0])
    return row


def _as_indices(subset: SubsetLike, m: int) -> tuple[int, ...]:
    idx = tuple(sorted(set(int(i) for i in subset)))
    if idx and (idx[0] < 0 or idx[-1] >= m):
        raise ValueError(f"subset {list(idx)} out of range for m={m}")
    return idx


def default_names(m: int) -> tuple[str, ...]:
    return tuple(f"X{i + 1}" for i in range(m))


def standardize(raw: np.ndarray, response: np.ndarray, names: Sequence[str] | None = None) -> StandardizedDesign:
    """The design of raw rows: each column centered and scaled to unit length.

    The rows must be (n, m) with n >= 2, m >= 1 and a length-n response, and
    the names, default X1..Xm, must number m. Raises ConstantColumn for any
    column whose centered norm is below 1e-12 of its raw norm (or of 1); the
    response is reported with index -1.
    """
    X = np.asarray(raw, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(response, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("raw must be (n, m) with a length-n response")
    n, m = X.shape
    if n < 2:
        raise ValueError("need at least two observations")
    if m < 1:
        raise ValueError("need at least one feature")
    names = tuple(names) if names is not None else default_names(m)
    if len(names) != m:
        raise ValueError("names must match the number of feature columns")
    R, shift = _fold_rows(X, y)
    norms = np.linalg.norm(R[1:, 1:], axis=0)
    constant = np.flatnonzero(norms <= 1e-12 * np.maximum(1.0, _column_norms(R, shift, n)))
    if constant.size:
        raise ConstantColumn(-1 if constant[0] == m else int(constant[0]))
    return StandardizedDesign(R[1:, 1:] / norms, n, names)


def _fold_rows(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, shift): the QR triangle R, min(n, m+2) x (m+2), of
    [1 | X - shift[:m] | y - shift[m]]. The shift is the column means of the
    first TRIANGLE_BLOCK rows.

    R is folded in from blocks of TRIANGLE_BLOCK rows, each stacked under
    the R of the rows before it and QR-reduced (TSQR; Demmel et al. 2012), so
    no array has more than TRIANGLE_BLOCK + m + 2 rows. Column 0 spans the
    constant, so R[1:, 1:] is the triangle of the centered columns, and no
    column is centered as a whole. The shift keeps the rounding at the scale
    of each column's spread, not of its offset: on the Miller table plus 1e6
    the unshifted fold's R^2 were off by up to 1.6e-10. A design of at most
    TRIANGLE_BLOCK rows is shifted by its exact column means, and a column
    constant in the first block folds to an exact zero.

    Raises DataFormatError on a block with a NaN or Inf cell.
    """
    n, m = X.shape
    R = np.empty((0, m + 2))
    for lo in range(0, n, TRIANGLE_BLOCK):
        rows = slice(lo, lo + TRIANGLE_BLOCK)
        top = R.shape[0]
        stack = np.empty((top + y[rows].size, m + 2))
        stack[:top] = R
        stack[top:, 0] = 1.0
        stack[top:, 1:-1] = X[rows]
        stack[top:, -1] = y[rows]
        if not np.isfinite(stack[top:]).all():
            raise DataFormatError("input contains NaN or Inf")
        if lo == 0:
            shift = np.append(X[rows].mean(axis=0), y[rows].mean())
        stack[top:, 1:] -= shift
        R = np.linalg.qr(stack, mode="r")
    return R, shift


def _column_norms(R: np.ndarray, shift: np.ndarray, n: int) -> np.ndarray:
    """The norms of the columns of [X | y], read off the :func:`_fold_rows`
    triangle: column 0 of R is its only constant column, so a shifted column
    sums to R[0, 0] R[0, j]."""
    sums = R[0, 0] * R[0, 1:] + n * shift
    squares = np.einsum("ij,ij->j", R[:, 1:], R[:, 1:]) + shift * (2.0 * sums - n * shift)
    return np.sqrt(np.maximum(squares, 0.0))


def load_csv(path, response_name: str):
    """Read a headered CSV into (raw features, response, feature names).

    Cells must parse as finite decimal floats and column names must be
    distinct; the response column is picked out by header name and removed
    from the feature block. A leading byte-order mark is not part of the
    first name.

    numpy's C reader takes the rows. A file it cannot read, or reads to a
    width other than the header's, is read again from the start by the csv
    module and ``float`` of each stripped cell, which accept quoted cells,
    ``1_0`` and non-ASCII digits, and name the row of a cell or record they
    reject. The two accept the same files but for the csv module's
    131,072-character field limit: a longer number only the C reader takes.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header = _header(_records(fh), response_name)
        try:
            with warnings.catch_warnings():
                # a file with no data rows; the row count check names it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:  # also UnicodeDecodeError
            data = None
    if data is None or data.shape[1] != len(header):
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            records = _records(fh)
            next(records)  # the header, checked above
            data = _python_rows(records, len(header))
    if data.shape[0] < 2:
        raise DataFormatError("need at least two data rows")
    if not np.isfinite(data).all():
        raise DataFormatError("CSV contains NaN or Inf")
    ycol = header.index(response_name)
    y = data[:, ycol].copy()
    # The features are a view of the parsed block: the columns after the
    # response move left one place, a row block at a time, so the rows are
    # held once; a copy would double the peak of a large load
    for lo in range(0, data.shape[0], TRIANGLE_BLOCK):
        block = data[lo : lo + TRIANGLE_BLOCK]
        block[:, ycol:-1] = block[:, ycol + 1 :].copy()
    X = data[:, :-1]
    names = tuple(h for i, h in enumerate(header) if i != ycol)
    return X, y, names


def _records(fh) -> Iterator[tuple[int, list[str]]]:
    """(row number, cells) of each CSV record in fh; the header is row 1.

    A record the csv module cannot read, such as one with a cell over its
    field size limit, raises DataFormatError naming the row.
    """
    lineno = 0
    try:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            yield lineno, row
    except csv.Error as exc:
        raise DataFormatError(f"row {lineno + 1} cannot be read: {exc}") from None


def _header(records: Iterator[tuple[int, list[str]]], response_name: str) -> list[str]:
    """The first record's stripped names, checked to be distinct and to
    include the response."""
    try:
        _, header = next(records)
    except StopIteration:
        raise DataFormatError("empty CSV") from None
    header = [h.strip() for h in header]
    if len(set(header)) < len(header):
        twice = next(h for i, h in enumerate(header) if h in header[:i])
        raise DataFormatError(f"column {twice!r} appears more than once in header {header}")
    if response_name not in header:
        raise DataFormatError(f"response column {response_name!r} not in header {header}")
    return header


def _python_rows(records: Iterator[tuple[int, list[str]]], width: int) -> np.ndarray:
    """The data records as floats, one Python float per cell; empty records
    are skipped."""
    rows = []
    for lineno, row in records:
        if not row:
            continue
        if len(row) != width:
            raise DataFormatError(f"row {lineno} has {len(row)} cells, expected {width}")
        try:
            rows.append([float(c.strip()) for c in row])
        except ValueError:
            raise DataFormatError(f"row {lineno} contains a non-numeric cell") from None
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# Fits on the triangle
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
    1 / [G_S^{-1}]_aa, is at least TABLE_PIVOT_RTOL * G[a, a], and its parent
    is trusted. An untrusted subset's swept matrix is NaN, which fails every
    pivot test, so it and its whole subtree come back with trusted False and
    r2 NaN, for the caller to fit with :func:`fit_block`. Trusted values
    agree with fit_block's to rounding, not bit for bit (see TABLE_PIVOT_RTOL).
    """
    for idx, r2, trusted, _ in _sweep_blocks(design, depth, FIT_CHUNK // SWEEP_CHUNK_DIVISOR, False):
        yield idx, r2, trusted


def fit_table(design: StandardizedDesign, max_features: int = DEFAULT_MAX_FEATURES) -> FitTable:
    """The cap-checked :class:`FitTable` of every subset mask, from one
    full-depth sweep walk.

    gains[i, A] is the fit gained by adding feature i to A (0 when A holds
    i); the gain table is None when it would take more than
    GAIN_TABLE_BYTES. A subset the walk trusts at TABLE_PIVOT_RTOL takes its
    swept value, clipped at 1 like fit_block's; fit_block fits every other
    subset. Where A and A + i are both trusted, gains[i, A] is
    C_A[i, y]^2 / C_A[i, i] from A's swept matrix, not a difference of two
    nearly equal fits; elsewhere it is the difference r2[A + i] - r2[A].
    """
    _check_cap(design.m, max_features)
    m = design.m
    keep_gains = 8 * m << m <= GAIN_TABLE_BYTES
    r2 = np.zeros(1 << m)
    trusted = np.ones(1 << m, dtype=bool)
    gain = np.full((m, 1 << m), np.nan) if keep_gains else None
    for idx, values, ok, rows in _sweep_blocks(design, m, FIT_CHUNK, keep_gains):
        at = block_masks(idx)
        r2[at] = values
        trusted[at] = ok
        if keep_gains:
            gain[:, at] = rows.T
        if not ok.all():
            r2[at[~ok]] = fit_block(design, idx[~ok])[0]
    np.minimum(r2, 1.0, out=r2)
    r2.setflags(write=False)
    if keep_gains:
        for i in range(m):
            # trusted[A + i] of every A, with or without i, is the upper half
            fallback = np.isnan(gain[i]).reshape(-1, 2, 1 << i) | ~trusted.reshape(-1, 2, 1 << i)[:, 1:]
            np.copyto(gain[i], _difference_row(r2, i), where=fallback.ravel())
        gain.setflags(write=False)
    return FitTable(r2, gain)


def _sweep_blocks(design: StandardizedDesign, depth: int, block_size: int, gains: bool):
    """sweep_walk's blocks, expanding ``block_size`` nodes at a time, each
    with a fourth entry: None, or with ``gains`` a (k, m) array whose row
    holds C_S[j, y]^2 / C_S[j, j] of the block's subset S for every feature
    j, NaN where S is untrusted or C_S[j, j] is below j's floor (every member
    of S among them). An untrusted node's swept matrix is NaN, so one path
    expands every node, and its whole subtree comes back untrusted."""
    m = design.m
    if not 0 <= depth <= m:
        raise ValueError(f"depth must lie in 0..{m}")
    if depth == 0:
        return
    G = design.gram()
    floor = TABLE_PIVOT_RTOL * np.diagonal(G)[:m]
    features = np.arange(m)
    block_size = max(1, block_size)

    def below(members, r2, C):
        # The subtrees of a block of nodes of one size. ``members`` holds each
        # node's features as a row, C their swept matrices.
        count, size = members.shape
        cross = C[:, :m, m]
        last = members[:, -1] if size else np.full(count, -1)
        p, i = np.nonzero(features > last[:, None])
        pivot, trusted = _pivots(C, members, p, i, floor)
        # NaN for an untrusted child, so its r2, gains and subtree are NaN too
        pivot[~trusted] = np.nan
        r2 = r2[p] + np.square(cross[p, i]) / pivot
        idx = np.concatenate([members[p], i[:, None]], axis=1)
        child_gains = None
        if gains:
            # The children's diagonals and response columns, as the sweeps
            # below compute them
            diag = np.diagonal(C, axis1=1, axis2=2)[:, :m]
            col = C[p, :m, i]
            child_diag = diag[p] - col * (col / pivot[:, None])
            child_cross = cross[p] - col * (cross[p, i] / pivot)[:, None]
            usable = child_diag >= floor
            child_gains = np.where(usable, np.square(child_cross) / np.where(usable, child_diag, 1.0), np.nan)
        yield idx, r2, trusted, child_gains
        if size + 1 == depth:
            return
        parents = np.flatnonzero(i < m - 1)
        for lo in range(0, parents.size, block_size):
            block = parents[lo : lo + block_size]
            yield from below(idx[block], r2[block], _sweep(C[p[block]], i[block], pivot[block]))

    yield from below(np.zeros((1, 0), np.intp), np.zeros(1), G[None])


def _pivots(C: np.ndarray, members: np.ndarray, p: np.ndarray, i: np.ndarray, floor: np.ndarray):
    """(pivot, trusted) of each child S + i[c] of node p[c], with features
    members[p[c]] and swept matrix C[p[c]]: pivot is C_S[i, i], or 1 below
    i's floor, and the child is trusted when every member a of S + i keeps a
    pivot against the rest, 1 / [G_{S+i}^{-1}]_aa, of at least a's floor."""
    m = floor.size
    diag = np.diagonal(C, axis1=1, axis2=2)[:, :m]
    pivot = diag[p, i]
    ok = pivot >= floor[i]
    pivot = np.where(ok, pivot, 1.0)
    # [G_{S+i}^{-1}]_aa of each member a, against a's floor
    held = members[p]
    inverse = np.square(C[p[:, None], held, i[:, None]]) / pivot[:, None] - diag[p[:, None], held]
    trusted = ok & (inverse * floor[held] <= 1.0).all(axis=1)
    return pivot, trusted


def _sweep(C: np.ndarray, k: np.ndarray, d: np.ndarray) -> np.ndarray:
    """SWEEP (Goodnight 1979) each matrix C[b] of a stack, in place, on its
    feature k[b], whose pivot C[b, k[b], k[b]] is d[b]; returns C."""
    b = np.arange(k.size)
    col = C[b, :, k]
    scale = col / d[:, None]
    C -= col[:, :, None] * scale[:, None, :]
    C[b, k, :] = scale
    C[b, :, k] = scale
    C[b, k, k] = -1.0 / d
    return C


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


def partial_correlation(design: StandardizedDesign, i: int, subset: SubsetLike) -> float:
    """Correlation between the response and feature i adjusted for a subset.

    Column i of R has the span of the subset's columns projected out. The
    squared value equals the fit improvement from adding i to the subset.
    Raises DegenerateResidual when i lies in the subset's span; callers that
    want a gain treat that case as zero.
    """
    (i,) = _as_indices((i,), design.m)
    S = _as_indices(subset, design.m)
    if i in S:
        raise ValueError("targets and conditioners overlap")
    R = design.triangle
    resid = R[:, i]
    if S:
        U, s, _ = np.linalg.svd(R[:, S], full_matrices=False)
        Q = U[:, : int(np.sum(s > RANK_RTOL * s[0]))]
        resid = resid - Q @ (Q.T @ resid)
    norm = float(np.linalg.norm(resid))
    if norm <= DEGENERATE_TOL:
        raise DegenerateResidual(i, S)
    value = float(R[:, design.m] @ resid) / norm
    return float(np.clip(value, -1.0, 1.0))


class LeastSquaresFit(NamedTuple):
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

    The fit is an SVD of the subset's columns of R. The intercept is absorbed
    by standardization, so the residual variance uses n - |S| - 1 degrees of
    freedom.
    """
    idx = _as_indices(subset, design.m)
    if not idx:
        raise ValueError("ls_fit needs a nonempty subset")
    k = len(idx)
    if k > design.n - 2:
        raise InsufficientDof(idx)
    R = design.triangle
    U, s, Vt = np.linalg.svd(R[:, idx], full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankDeficient(idx)
    proj = U.T @ R[:, design.m]
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


# ---------------------------------------------------------------------------
# Exact-Gram synthesis
# ---------------------------------------------------------------------------


def _centered_orthonormal_basis(n: int, columns: int) -> np.ndarray:
    """The first ``columns`` vectors (n x columns) of a Helmert-style
    orthonormal basis of the mean-zero subspace."""
    Q = np.zeros((n, columns))
    for j in range(1, columns + 1):
        scale = 1.0 / np.sqrt(j * (j + 1))
        Q[:j, j - 1] = scale
        Q[j, j - 1] = -j * scale
    return Q


def gram_factory(gram: np.ndarray, n: int, names: Sequence[str] | None = None) -> StandardizedDesign:
    """The design of :func:`gram_rows`."""
    return standardize(*gram_rows(gram, n, names))


def gram_rows(gram: np.ndarray, n: int, names: Sequence[str] | None = None):
    """Realize a target correlation matrix as an exact finite sample:
    (features, response, names).

    ``gram`` is (k+1) x (k+1) with the response first. The eigenfactor of the
    gram is embedded into an orthonormal basis of the subspace orthogonal to
    the constant vector, so the sample correlations of the returned rows
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
    columns = _centered_orthonormal_basis(n, k + 1) @ factor.T
    cols = tuple(names) if names is not None else default_names(k)
    return columns[:, 1:], columns[:, 0], cols
