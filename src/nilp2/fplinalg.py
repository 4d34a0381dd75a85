"""Exact linear algebra over a prime field F_p.

Matrices are dense numpy int64 arrays of residues in [0, p), kept
read-only after construction.  Subspaces are stored by their reduced row
echelon basis, so two subspaces are equal exactly when their basis arrays
are entry-identical.

One elimination kernel, ``rref``, serves every caller.  Inputs of at most
64 rows are reduced pivot by pivot, each step touching only the rows that
are nonzero in the pivot column and the columns from the pivot on; the
updated rows are reduced mod p once at the end, as long as no entry can
reach 2^63 on the way.  Taller inputs are reduced in blocks of 64 rows
against the reduced echelon basis found so far (at most ``cols`` rows):
each block costs two matrix products mod p, one reducing the block by the
basis and one clearing the block's new pivot columns from the basis.  The
elimination stops as soon as the rank reaches ``cols``; every later row
is then in the span.

The products run in float64 BLAS only while every dot product is an
integer below 2^53, i.e. while inner * (p - 1)^2 < 2^53, so they stay
exact (Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 35(3), 2008).
Otherwise they run in int64, in slices of the inner dimension short
enough that no partial sum reaches 2^63.  The reduced echelon form is
unique, so the blocked and the per-pivot path return identical arrays.

Every sum of products of residues must stay below 2^63.  ``rref`` refuses
a modulus with (p - 1)^2 + p >= 2^63, and ``Subspace`` one with
ambient * (p - 1)^2 + p >= 2^63, which bounds the sums in
``reduce_vector`` and ``preimage``; both raise ModulusTooLarge before
any arithmetic.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import AmbientMismatch, ModulusTooLarge, NotOddPrime

__all__ = [
    "Subspace",
    "all_subspaces",
    "check_int64",
    "check_odd_prime",
    "is_odd_prime",
    "kernel_basis",
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
    if not is_odd_prime(p):
        raise NotOddPrime(f"modulus must be an odd prime, got {p!r}")
    return int(p)


def check_int64(bound: int, p: int, what: str) -> None:
    """Refuse an operation mod p whose int64 sums can reach ``bound`` >= 2^63."""
    if bound >= 2**63:
        raise ModulusTooLarge(f"{what} mod {p}: int64 sums can reach {bound}, not below 2^63")


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
    return np.mod(a, p)


# Rows per block of the blocked elimination; shorter inputs skip blocking.
_BLOCK = 64


def _sub_product(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(c - a @ b) mod p, exactly, for residue matrices."""
    inner = a.shape[1]
    if inner * (p - 1) ** 2 < 2**53:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return np.mod(c - prod.astype(np.int64), p)
    step = max(1, (2**63 - p) // (p - 1) ** 2)
    for k in range(0, inner, step):
        c = np.mod(c - a[:, k : k + step] @ b[k : k + step], p)
    return c


def _eliminate(r: np.ndarray, p: int) -> list:
    """Reduce the residue matrix r to reduced row echelon form in place,
    pivot by pivot; returns the pivot columns."""
    rows, cols = r.shape
    pivots = []
    row = col = 0
    while row < rows and col < cols:
        column = r[:, col] % p
        hits = column[row:].nonzero()[0]
        if hits.size == 0:
            live = (r[row:, col:] % p).any(axis=0).nonzero()[0]
            if live.size == 0:
                break
            col += int(live[0])
            column = r[:, col] % p
            hits = column[row:].nonzero()[0]
        lead = row + int(hits[0])
        if lead != row:
            r[[row, lead]] = r[[lead, row]]
            column[[row, lead]] = column[[lead, row]]
        inv = pow(int(column[row]), -1, p)
        r[row, col:] = r[row, col:] % p * inv % p
        column[row] = 0
        others = column.nonzero()[0]
        if others.size:
            # A plain slice is cheaper than gathering every other row.
            if others.size == rows - 1:
                others = slice(None)
            r[others, col:] -= column[others, None] * r[row, col:]
            # Updated rows are reduced only at the end while no entry can
            # reach 2^63: each takes one update below (p - 1)^2 per pivot.
            if min(rows, cols) * (p - 1) ** 2 + p >= 2**63:
                r[others, col:] %= p
        pivots.append(col)
        row += 1
        col += 1
    if pivots:
        np.mod(r, p, out=r)
    return pivots


def rref(a: np.ndarray, p: int):
    """Reduced row echelon form of an integer matrix mod p.

    Returns (r, pivots).  Pivot entries are 1 with zeros above and below;
    the row space is preserved.
    """
    p = int(p)
    check_int64((p - 1) ** 2 + p, p, "elimination")
    r = np.mod(np.asarray(a, dtype=np.int64), p)
    if r.ndim != 2:
        raise AmbientMismatch("matrix data must be two-dimensional")
    rows, cols = r.shape
    if rows <= _BLOCK:
        return r, _eliminate(r, p)
    basis = r[:0].copy()
    pivots = []
    for start in range(0, rows, _BLOCK):
        block = r[start : start + _BLOCK]
        if pivots:
            block = _sub_product(block, block[:, pivots], basis, p)
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
    r[: len(pivots)] = basis
    r[len(pivots) :] = 0
    return r, pivots


def _null_rows(r: np.ndarray, pivots, cols: int, p: int) -> np.ndarray:
    """Rows e_f - sum_i r[i, f] e_{pivots[i]}, one per non-pivot column f:
    a basis of the right null space of the echelon rows r."""
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    out = np.zeros((len(free), cols), dtype=np.int64)
    if free:
        out[np.arange(len(free)), free] = 1
        out[:, list(pivots)] = np.mod(-r[: len(pivots)][:, free].T, p)
    return out


def kernel_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Reduced echelon basis (rows) of the right null space of a mod p."""
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise AmbientMismatch("matrix data must be two-dimensional")
    cols = a.shape[1]
    r, pivots = rref(a, p)
    if len(pivots) == cols:
        return np.zeros((0, cols), dtype=np.int64)
    out, _ = rref(_null_rows(r, pivots, cols, p), p)
    return out


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
        if self.dim:
            coeffs = x[list(self.pivots)]
            x = np.mod(x - coeffs @ self.basis, self.p)
        return x

    def contains_vector(self, v) -> bool:
        return not np.any(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains_vector(row) for row in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        stacked = np.concatenate([self.basis, other.basis], axis=0)
        return Subspace(self.p, self.ambient, stacked)

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

    def preimage(self, t: np.ndarray) -> "Subspace":
        """Subspace {x : t @ x lies in this subspace}."""
        t = np.mod(np.asarray(t, dtype=np.int64), self.p)
        if t.shape[0] != self.ambient:
            raise AmbientMismatch(
                f"map lands in dimension {t.shape[0]}, ambient is {self.ambient}"
            )
        q = self.complement_projection()
        return Subspace(self.p, t.shape[1], kernel_basis(np.mod(q @ t, self.p), self.p))

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


def all_subspaces(p: int, ambient: int):
    """Yield every subspace of F_p^ambient, one per echelon pattern.

    Enumeration order is deterministic: by dimension, then pivot columns,
    then free entries.  Counts grow like Gaussian binomials, so keep the
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
            for values in itertools.product(range(p), repeat=len(slots)):
                basis = np.zeros((k, ambient), dtype=np.int64)
                for r, pc in enumerate(pivots):
                    basis[r, pc] = 1
                for (r, c), val in zip(slots, values):
                    basis[r, c] = val
                yield Subspace(p, ambient, basis)
