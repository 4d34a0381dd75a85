"""Exact linear algebra over a prime field F_p.

Matrices are dense numpy int64 arrays of residues in [0, p), kept
read-only after construction.  Subspaces are stored by their reduced row
echelon basis, so two subspaces are equal exactly when their basis arrays
are entry-identical.

One elimination kernel, ``rref``, serves every caller and always returns
int64.  Inputs with no rows, no columns or one row are answered directly.
Inputs of at most 64 rows are reduced pivot by pivot, each step touching
the columns from the pivot on in the rows that are nonzero in the pivot
column (in all rows, as one plain slice, when more than half are); the
updated rows are reduced mod p once at the end.  When
a column has no pivot left, the search moves on 32 columns at a time; a
skipped column stays zero in every remaining row, so the search reads
each entry at most once.  Taller inputs are reduced in blocks of 64 rows
against the reduced echelon basis found so far (at most ``cols`` rows):
each block costs two matrix products mod p, one reducing the block by the
basis and one clearing the block's new pivot columns from the basis.  The
elimination stops as soon as the rank reaches ``cols``; every later row
is then in the span.  The reduced echelon form is unique, so the blocked
and the per-pivot path return identical arrays.

Widths.  The elimination runs in the narrowest integer dtype that holds
every intermediate entry exactly (cf. Dumas, Giorgi and Pernet,
FFLAS-FFPACK, ACM TOMS 35(3), 2008).  Entries start in [0, p) and each
pivot subtracts less than (p - 1)^2 from an entry, with at most ``cols``
pivots, so every entry lies above -cols * (p - 1)^2 and below p.  So the
storage is

* int16 while cols * (p - 1)^2 + p < 2^15,
* int32 while cols * (p - 1)^2 + p < 2^31,
* int64 otherwise; if min(rows, cols) * (p - 1)^2 + p >= 2^63, updated
  rows are then reduced mod p after every pivot instead of at the end.

A block product with ``inner`` terms sums to at most inner * (p - 1)^2,
and float sums of integers are exact below the mantissa limit.  So it
runs in float32 while inner * (p - 1)^2 < 2^24, in float64 while
inner * (p - 1)^2 < 2^53, and otherwise in int64, in slices of the inner
dimension short enough that no partial sum reaches 2^63.  Since inner is
at most ``cols``, a product's result always fits the storage dtype.

Inputs of 512 entries or more that already lie in [0, p) are not reduced
again: a min and a max cost about a tenth of a reduction pass.

Sparse kernels.  ``kernel_of_entries`` takes a matrix as its nonzero
entries and peels it by structured Gaussian elimination before ``rref``
sees the rest: a column with one entry pivots its row, and a row with one
entry forces its column to zero.  The basis is the residue's null rows,
extended by back-substitution over the peeled rows, and it is returned as
entries, a ``KernelEntries``, whether or not anything peeled.  The dense
residue is refused with ResidueTooLarge above RESIDUE_CELL_LIMIT cells
before it is allocated, and the basis entries, and each gather of the
back-substitution, before they are allocated once they and the entries
held exceed RESIDUE_CELL_LIMIT.

Every sum of products of residues must stay below 2^63.  ``rref`` refuses
a modulus with (p - 1)^2 + p >= 2^63, and ``Subspace`` one with
ambient * (p - 1)^2 + p >= 2^63, which bounds the sums in
``reduce_vector``; both raise ModulusTooLarge before any arithmetic.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import AmbientMismatch, ModulusTooLarge, NotOddPrime, ResidueTooLarge

__all__ = [
    "KernelEntries",
    "Subspace",
    "all_vectors",
    "check_cells",
    "check_int64",
    "check_odd_prime",
    "echelon_bases",
    "is_odd_prime",
    "kernel_basis",
    "kernel_of_entries",
    "rref",
    "solve_matrix",
]


def is_odd_prime(p) -> bool:
    """True exactly for odd prime integers."""
    try:
        q = int(p)
    except (TypeError, ValueError):
        return False
    if q != p or q < 3 or q % 2 == 0:
        return False
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


def check_odd_prime(p) -> int:
    """p as an int.  Refused with ModulusTooLarge when (p - 1)^2 + p >= 2^63,
    the bound of ``rref``, before the trial division, which takes up to
    sqrt(p) / 2 steps; with NotOddPrime unless an odd prime."""
    if isinstance(p, (int, np.integer)) and p > 2:
        check_int64((int(p) - 1) ** 2 + int(p), int(p), "arithmetic")
    if not is_odd_prime(p):
        raise NotOddPrime(f"modulus must be an odd prime, got {p!r}")
    return int(p)


def check_int64(bound: int, p: int, what: str) -> None:
    """Refuse an operation mod p whose int64 sums can reach ``bound`` >= 2^63."""
    if bound >= 2**63:
        raise ModulusTooLarge(f"{what} mod {p}: int64 sums can reach {bound}, not below 2^63")


# Below this many entries numpy's fixed cost per call dominates, and one
# remainder call beats both a range check and the floor-division form.
_SMALL = 512


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p; a itself when every entry already lies in [0, p), which a
    min and a max establish ten times faster than one reduction pass."""
    if a.size >= _SMALL and a.min() >= 0 and a.max() < p:
        return a
    return np.mod(a, p)


def _as_array(data, p: int, width=None) -> np.ndarray:
    """Coerce row data to a 2-d int64 residue array."""
    if isinstance(data, np.ndarray) and data.ndim == 2:
        a = data.astype(np.int64, copy=False)
    else:
        rows = [tuple(int(x) for x in row) for row in data]
        if len({len(r) for r in rows}) > 1:
            raise AmbientMismatch("rows have unequal lengths")
        a = np.array(rows, dtype=np.int64) if rows else np.zeros((0, 0), dtype=np.int64)
    if a.shape[0] == 0:
        return np.zeros((0, 0 if width is None else width), dtype=np.int64)
    if width is not None and a.shape[1] != width:
        raise AmbientMismatch(f"expected rows of length {width}, got {a.shape[1]}")
    return _residues(a, p)


# Rows per block of the blocked elimination; shorter inputs skip blocking.
_BLOCK = 64
# Columns per step of the forward scan for the next pivot column.
_SCAN = 32


def _storage_dtype(cols: int, p: int):
    """The narrowest integer dtype that holds every entry of an elimination
    with ``cols`` columns mod p: each lies above -cols * (p - 1)^2 and
    below p (see the module docstring)."""
    bound = cols * (p - 1) ** 2 + p
    return np.int16 if bound < 2**15 else np.int32 if bound < 2**31 else np.int64


def _product_dtype(inner: int, p: int):
    """The narrowest float dtype in which a product of residue matrices
    with ``inner`` columns and rows is exact, or None for none."""
    largest = inner * (p - 1) ** 2
    return np.float32 if largest < 2**24 else np.float64 if largest < 2**53 else None


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for a fresh integer array, reusing its storage.  On larger
    arrays floor division by a scalar is several times cheaper than numpy's
    remainder."""
    if x.size < _SMALL:
        return np.remainder(x, p, out=x)
    q = x // p
    q *= p
    x -= q
    return x


def _sub_product(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(c - a @ b) mod p, exactly, for residue matrices of c's dtype."""
    inner = a.shape[1]
    exact = _product_dtype(inner, p)
    if exact is not None:
        prod = a.astype(exact) @ b.astype(exact)
        return _mod(c - prod.astype(c.dtype), p)
    step = max(1, (2**63 - p) // (p - 1) ** 2)
    for k in range(0, inner, step):
        c = _mod(c - a[:, k : k + step] @ b[k : k + step], p)
    return c


def _live_column(r: np.ndarray, row: int, col: int, p: int):
    """The first column from ``col`` on that is nonzero mod p in rows
    ``row`` onwards, or None.  Scans ``_SCAN`` columns at a time: a skipped
    column stays zero in every remaining row, so one elimination scans each
    entry at most once."""
    cols = r.shape[1]
    while col < cols:
        live = (r[row:, col : col + _SCAN] % p).any(axis=0).nonzero()[0]
        if live.size:
            return col + int(live[0])
        col += _SCAN
    return None


def _eliminate(r: np.ndarray, p: int) -> list:
    """Reduce the residue matrix r to reduced row echelon form in place,
    pivot by pivot; returns the pivot columns."""
    rows, cols = r.shape
    # Updated rows are reduced only at the end while no entry can reach
    # 2^63: each takes one update below (p - 1)^2 per pivot.  A narrower
    # storage dtype is only ever chosen with room for every entry.
    eager = r.dtype == np.int64 and min(rows, cols) * (p - 1) ** 2 + p >= 2**63
    pivots = []
    row = col = 0
    while row < rows and col < cols:
        column = r[:, col] % p
        hits = column[row:].nonzero()[0]
        if hits.size == 0:
            col = _live_column(r, row, col + 1, p)
            if col is None:
                break
            column = r[:, col] % p
            hits = column[row:].nonzero()[0]
        lead = row + int(hits[0])
        if lead != row:
            r[row], r[lead] = r[lead].copy(), r[row].copy()
            column[row], column[lead] = column[lead], column[row]
        inv = pow(int(column[row]), -1, p)
        r[row, col:] = r[row, col:] % p * inv % p
        column[row] = 0
        others = column.nonzero()[0]
        if others.size:
            # A plain slice costs about as much as gathering half the rows.
            if 2 * others.size > rows:
                others = slice(None)
            r[others, col:] -= column[others, None] * r[row, col:]
            if eager:
                r[others, col:] %= p
        pivots.append(col)
        row += 1
        col += 1
    if pivots:
        _mod(r, p)
    return pivots


def rref(a: np.ndarray, p: int):
    """Reduced row echelon form of an integer matrix mod p.

    Returns (r, pivots), r a fresh int64 array.  Pivot entries are 1 with
    zeros above and below; the row space is preserved.
    """
    p = int(p)
    check_int64((p - 1) ** 2 + p, p, "elimination")
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise AmbientMismatch("matrix data must be two-dimensional")
    rows, cols = a.shape
    # Kept: on one row the general path takes 14-26 us, not 4-9; 163/464/92 calls per pass.
    if rows <= 1 or cols == 0:
        r = np.mod(a, p)
        nonzero = r.nonzero()[1]
        if len(nonzero) == 0:
            return r, []
        lead = int(nonzero[0])
        r[0] = r[0] * pow(int(r[0, lead]), -1, p) % p
        return r, [lead]
    # A C-ordered copy: rows are eliminated and swapped whole.
    r = _residues(a, p).astype(_storage_dtype(cols, p), order="C")
    if rows <= _BLOCK:
        pivots = _eliminate(r, p)
        return r.astype(np.int64, copy=False), pivots
    basis = r[:0].copy()
    pivots = []
    for start in range(0, rows, _BLOCK):
        block = r[start : start + _BLOCK]
        if pivots:
            block = _sub_product(block, block[:, pivots], basis, p)
            if not block.any():  # the block lies in the span found so far
                continue
        new = _eliminate(block, p)
        if not new:
            continue
        fresh = block[: len(new)]
        if pivots:
            basis = _sub_product(basis, basis[:, new], fresh, p)
        pivots += new
        order = np.argsort(pivots)
        basis = np.concatenate([basis, fresh])[order]
        pivots = [pivots[i] for i in order]
        if len(pivots) == cols:
            break
    out = np.zeros((rows, cols), dtype=np.int64)
    out[: len(pivots)] = basis
    return out, pivots


def _null_rows(r: np.ndarray, pivots, cols: int, p: int) -> np.ndarray:
    """Rows e_f - sum_i r[i, f] e_{pivots[i]}, one per non-pivot column f:
    a basis of the right null space of the echelon rows r."""
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    out = np.zeros((len(free), cols), dtype=np.int64)
    if free:  # kept: the empty assignments cost 8 us on 55/32/16 calls per pass
        out[np.arange(len(free)), free] = 1
        out[:, list(pivots)] = np.mod(-r[: len(pivots)][:, free].T, p)
    return out


def kernel_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Reduced echelon basis (rows) of the right null space of a mod p."""
    r, pivots = rref(a, p)
    cols = r.shape[1]
    # Kept: the general path adds 12-18 us to 121/215/18 full-rank calls per pass.
    if len(pivots) == cols:
        return np.zeros((0, cols), dtype=np.int64)
    return rref(_null_rows(r, pivots, cols, p), p)[0]


# Cells of a dense array sized from the input, such as the residue that
# kernel_of_entries hands to rref.  At int64 that is 128 MB, and rref holds
# a working copy and an output beside it.
RESIDUE_CELL_LIMIT = 1 << 24


def check_cells(shape, what: str) -> None:
    """Refuse a dense array of this shape above RESIDUE_CELL_LIMIT cells."""
    cells, limit = math.prod(shape), RESIDUE_CELL_LIMIT
    if cells > limit:
        dims = " x ".join(map(str, shape))
        raise ResidueTooLarge(f"{what} of {dims} = {cells} cells exceeds RESIDUE_CELL_LIMIT = {limit}")


# Up to this many cells a matrix is eliminated whole: its elimination costs
# less than the fixed cost of the peeling rounds.
_PEEL_MIN_CELLS = 1 << 10


class KernelEntries(NamedTuple):
    """A kernel basis of ``dim`` vectors held as its nonzero entries: vector
    ``vector[k]`` is ``value[k]``, in [1, p), at ``column[k]``.  The
    entries are sorted by column, and no (vector, column) repeats."""

    vector: np.ndarray
    column: np.ndarray
    value: np.ndarray
    dim: int


def kernel_of_entries(rows, cols, vals, shape, p: int):
    """A basis of the right null space mod p of the matrix of the given
    shape whose only nonzero entries are the residues vals, in [1, p), at
    the distinct positions (rows[k], cols[k]); the three are int64 arrays
    of one length.

    Structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO '90;
    Bouillaguet and Delaplace, CASC 2016) in front of ``rref``.  Each round
    counts the nonzeros of every column and of every row over the live
    entries, then applies two rules.  A row with one entry, in column c,
    forces x_c = 0: the row and every entry of column c are dropped.  Every
    other row that owns a column with exactly one entry is taken, pivoting
    on one such column.  A pivot column meets no other row live in its
    round or later, so the rows taken in one round do not interact, and a
    forced column is zero in every kernel vector, so a taken row may still
    hold one.  The live rows, over the columns that still meet them, form
    the dense residue, which ``rref`` eliminates once; a residue above
    RESIDUE_CELL_LIMIT cells is refused before it is allocated.  Rows
    without entries are never live, and columns without entries are free.
    A matrix of at most _PEEL_MIN_CELLS cells, or one where no round
    applies a rule, goes to ``rref`` whole, less those rows and columns.

    The basis is a ``KernelEntries``, and no dense (dim, ncols) array is
    built.  It holds one vector per free column f, in increasing order: a
    column that is no peeled, forced or residue pivot.  The vector is 1 at
    f, the residue's null row of f on the residue's columns (zero unless f
    is one of them), and at each peeled pivot the value its row forces,
    found in reverse round order: for each other entry (v, c) of the row,
    every basis entry in column c, found by ``searchsorted`` on the sorted
    columns, adds -v / (pivot value) times its value at the pivot, and the
    sums of a vector's terms are reduced mod p.  The first entries, and
    each gather with the entries held so far, are refused before they are
    allocated above RESIDUE_CELL_LIMIT.  The first entries number at most
    dim * ncols, the cells of the dense basis.
    """
    p = int(p)
    nrows, ncols = shape
    check_int64(ncols * (p - 1) ** 2 + p, p, "kernel")
    forced = np.zeros(ncols, dtype=bool)  # columns a row of one entry sets to zero
    rounds = []
    counts = np.bincount(cols, minlength=ncols)
    while nrows * ncols > _PEEL_MIN_CELLS:  # small matrices are not peeled
        lone = np.bincount(rows, minlength=nrows)[rows] == 1
        single = (counts[cols] == 1) & ~lone
        if not (lone.any() or single.any()):
            break
        forced[cols[lone]] = True
        taken, first = np.unique(rows[single], return_index=True)
        at = np.flatnonzero(single)[first]
        gone = np.zeros(nrows, dtype=bool)
        gone[taken] = True
        gone, zero = gone[rows], forced[cols]
        rest = gone & ~zero  # the taken rows' entries in unforced columns,
        rest[at] = False  # less their pivots
        rounds.append((taken, cols[at], vals[at], rows[rest], cols[rest], vals[rest]))
        keep = ~(gone | zero)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        counts = np.bincount(cols, minlength=ncols)
    live = np.zeros(nrows, dtype=bool)  # rows without entries constrain nothing
    live[rows] = True
    res_cols = np.flatnonzero(counts)
    dims = (np.count_nonzero(live), res_cols.size)
    check_cells(dims, "dense residue")
    # At their positions within the residue; the position arrays are
    # freed before the elimination.
    residue = np.zeros(dims, dtype=np.int64)
    residue[np.cumsum(live)[rows] - 1, np.cumsum(counts > 0)[cols] - 1] = vals
    r, pivots = rref(residue, p)
    del residue  # rref returned a fresh array; the basis is built beside it
    fixed = forced
    fixed[res_cols[pivots]] = True
    for taken, pcols, *_ in rounds:
        fixed[pcols] = True
    free = np.flatnonzero(~fixed)
    dim = free.size
    # The residue's null rows, -r[i, f] at its pivot i for each of its free
    # columns f (no residue column is forced or peeled), beside 1 at every
    # free column.
    res_free = np.flatnonzero(~fixed[res_cols])
    null = r[: len(pivots), res_free]
    del r
    i, j = np.nonzero(null)
    check_cells((dim + i.size,), "kernel basis entries")
    # The basis entries as the rows (column, vector, value), sorted by column.
    entries = np.empty((3, dim + i.size), dtype=np.int64)
    entries[:, :dim] = free, np.arange(dim), np.ones(dim, dtype=np.int64)
    entries[:, dim:] = res_cols[pivots][i], np.searchsorted(free, res_cols[res_free])[j], p - null[i, j]
    del null, i, j
    entries = entries[:, np.argsort(entries[0], kind="stable")]
    for taken, pcols, pvals, erows, ecols, evals in reversed(rounds):
        # x[pivot] = -sum(v * x[c]) / (pivot value), over the row's other
        # entries (v, c).  Forced columns hold no basis entries, and no
        # other row of this round reads a pivot column, which holds none yet.
        column, vector, value = entries
        lo = np.searchsorted(column, ecols)
        hits = np.searchsorted(column, ecols, side="right") - lo
        total = int(hits.sum())
        if not total:
            continue
        check_cells((column.size + total,), "kernel basis entries")
        values, back = np.unique(pvals, return_inverse=True)
        inverse = np.array([pow(int(v), -1, p) for v in values], dtype=np.int64)[back]
        slot = np.searchsorted(taken, erows)
        coeff = np.mod(-evals * inverse[slot], p)
        # The k-th other entry pulls in basis entries lo[k] .. lo[k] + hits[k] - 1.
        owner = np.repeat(np.arange(hits.size), hits)
        src = np.arange(total) + np.repeat(lo - np.cumsum(hits) + hits, hits)
        key = pcols[slot][owner] * dim + vector[src]
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        sums = np.mod(np.add.reduceat((value[src] * coeff[owner])[order], starts), p)
        nonzero = sums != 0
        new_col, new_vec = np.divmod(key[starts][nonzero], dim)
        new = np.array([new_col, new_vec, sums[nonzero]])
        entries = np.insert(entries, np.searchsorted(column, new_col), new, axis=1)
    column, vector, value = entries
    return KernelEntries(vector, column, value, dim)


def solve_matrix(a: np.ndarray, b: np.ndarray, p: int):
    """One exact solution x of a @ x = b mod p, or None if inconsistent.

    b may carry several right-hand sides as columns; free variables are
    set to zero, so the solution is deterministic.
    """
    a = np.mod(np.asarray(a, dtype=np.int64), p)
    b = np.mod(np.asarray(b, dtype=np.int64), p)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.shape[0] != b.shape[0]:
        raise AmbientMismatch(
            f"system has {a.shape[0]} equations but {b.shape[0]} targets"
        )
    ncols = a.shape[1]
    aug = np.concatenate([a, b], axis=1)
    r, pivots = rref(aug, p)
    if any(pc >= ncols for pc in pivots):
        return None
    x = np.zeros((ncols, b.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, ncols:]
    return x


class Subspace:
    """Subspace of F_p^ambient held as a reduced row echelon basis.

    The canonical basis makes equality syntactic: two subspaces are equal
    iff their basis arrays are entry-identical.
    """

    __slots__ = ("p", "ambient", "basis", "pivots")

    def __init__(self, p, ambient, vectors=()):
        self.p = check_odd_prime(p)
        self.ambient = int(ambient)
        if self.ambient < 0:
            raise AmbientMismatch("ambient dimension must be nonnegative")
        check_int64(self.ambient * (self.p - 1) ** 2 + self.p, self.p, "subspace arithmetic")
        a = _as_array(vectors, self.p, self.ambient)
        r, pivots = rref(a, self.p)
        basis = r[: len(pivots)].copy()
        basis.flags.writeable = False
        self.basis = basis
        self.pivots = tuple(pivots)

    @classmethod
    def zero(cls, p, ambient):
        return cls(p, ambient, ())

    @classmethod
    def full(cls, p, ambient):
        return cls(p, ambient, np.eye(ambient, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _check_compatible(self, other: "Subspace"):
        if self.p != other.p or self.ambient != other.ambient:
            raise AmbientMismatch(
                f"subspaces live in F_{self.p}^{self.ambient} and "
                f"F_{other.p}^{other.ambient}"
            )

    def reduce_vector(self, v) -> np.ndarray:
        """Residue of v after eliminating this subspace's pivot coordinates."""
        x = np.mod(np.array([int(e) for e in v], dtype=np.int64), self.p)
        if x.shape[0] != self.ambient:
            raise AmbientMismatch(
                f"vector has {x.shape[0]} entries, ambient is {self.ambient}"
            )
        return np.mod(x - x[list(self.pivots)] @ self.basis, self.p)

    def contains_vector(self, v) -> bool:
        return not np.any(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains_vector(row) for row in other.basis)

    def complement_projection(self) -> np.ndarray:
        """Matrix of the projection onto the non-pivot coordinates.

        The returned q has shape (ambient - dim, ambient), is surjective,
        and its kernel is exactly this subspace.  The complement is fixed
        as the set of non-pivot coordinates of the echelon basis, which
        makes the projection deterministic.
        """
        return _null_rows(self.basis, self.pivots, self.ambient, self.p)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        qa = self.complement_projection()
        qb = other.complement_projection()
        stacked = np.concatenate([qa, qb], axis=0)
        return Subspace(self.p, self.ambient, kernel_basis(stacked, self.p))

    def basis_tuples(self):
        return tuple(tuple(int(x) for x in row) for row in self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.p, self.ambient, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(p={self.p}, ambient={self.ambient}, basis={self.basis_tuples()})"


def echelon_bases(p: int, ambient: int):
    """Yield (pivots, bases) once per echelon pattern of F_p^ambient.

    bases has shape (count, len(pivots), ambient) and holds the reduced
    echelon basis of every subspace with those pivot columns.  Patterns
    come by dimension, then pivot columns in ``itertools.combinations``
    order; within a pattern the free entries, taken row by row, count up
    in base p with the first one most significant.  A pattern of
    dimension k holds up to p^(k(ambient - k)) bases, so keep the
    ambient dimension small.
    """
    p = check_odd_prime(p)
    for k in range(ambient + 1):
        for pivots in itertools.combinations(range(ambient), k):
            pivot_set = set(pivots)
            slots = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, ambient)
                if c not in pivot_set
            ]
            count = p ** len(slots)
            bases = np.zeros((count, k, ambient), dtype=np.int64)
            bases[:, range(k), pivots] = 1
            if slots:
                rows, cols = zip(*slots)
                bases[:, rows, cols] = all_vectors(p, len(slots))
            yield pivots, bases


def all_vectors(p: int, k: int) -> np.ndarray:
    """Every vector of F_p^k as the rows of a (p^k, k) array, in
    ``itertools.product`` order: row r holds the base-p digits of r."""
    return np.arange(p**k, dtype=np.int64)[:, None] // p ** np.arange(k - 1, -1, -1, dtype=np.int64) % p
