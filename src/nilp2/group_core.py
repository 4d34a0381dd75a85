"""Finite groups of nilpotency class at most 2 and odd prime exponent p.

A presentation is the data (p, n, m, c): generators x_1..x_n spanning the
group modulo its derived subgroup, the derived subgroup identified with
F_p^m, and c(j, i) in F_p^m the coordinates of [x_j, x_i] for
1 <= i < j <= n, held as one read-only int64 array ``pairs`` of shape
(C(n, 2), m) in the row order of ``np.tril_indices(n, -1)``.  It and its
two tables are views of read-only arrays, which numpy will not make
writeable again.  Tables of more than RESIDUE_CELL_LIMIT cells,
(n, n, m) or ``center``'s n x n, are refused with ResidueTooLarge before
allocation.  The rows must span F_p^m: their rank is m less the dimension
of their null space, which ``kernel_basis`` finds, so the span check, like
``center`` and ``is_monomorphism``, settles rows of one entry by the row
rule, as on the constructions' outputs, where most rows are units.  Every
element has a unique normal form

    x_1^{v_1} ... x_n^{v_n} * z^w,    v in F_p^n, w in F_p^m,

and multiplication collects the left factor's high-index generators past
the right factor's low-index generators:

    (v, w) (v', w') = (v + v', w + w' + delta(v, v')),
    delta(v, v') = sum over j > i of v_j * v'_i * c(j, i).

The commutator pairing kappa extends c antisymmetrically: kappa(j, i) is
c(j, i) for j > i, -c(i, j) for j < i, and zero on the diagonal.

Arithmetic runs in int64.  The largest sums, in ``_delta``, ``_kappa``,
``hom_from_images`` and the element tables, add up to n(n - 1) products of
three residues, so a presentation with n(n - 1)(p - 1)^3 >= 2^63 is
refused with ModulusTooLarge before any arithmetic.  Each such sum is two
unreduced products (``_pair_sum``, or ``_paired`` for matched pairs of
vectors, as in the subgroup enumeration): the left vectors against the table
flattened to n x nm, then the right vectors against that.  The tables
vanish on the diagonal, so an entry of the first product has at most
n - 1 terms, and neither product leaves the bound.

The element tables and the subgroup enumeration serve only the desk-scale
oracles.  The tables take O(order^2 * m) memory, so both refuse a group of
order above the fixed ORDER_CAP with OrderExceedsCap before they allocate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import itertools

import numpy as np

from .errors import (
    AmbientMismatch,
    BadIndex,
    EntryOutOfRange,
    InconsistentMap,
    Nilp2Error,
    OrderExceedsCap,
    PresentationMismatch,
    SpanDeficit,
)
from .fplinalg import (
    Subspace,
    all_vectors,
    check_cells,
    check_int64,
    check_odd_prime,
    echelon_bases,
    kernel_basis,
    rref,  # unused here; perfbench's tracer test wraps it in this module
    solve_matrix,
)

__all__ = [
    "ORDER_CAP",
    "CenterInfo",
    "GeneratorMap",
    "GroupElement",
    "GroupPresentation",
    "MonoResult",
    "Subgroup",
    "center",
    "checked_sizes",
    "commutator",
    "elementary_abelian",
    "enumerate_subgroups",
    "from_kappa",
    "hom_from_images",
    "inverse",
    "is_monomorphism",
    "multiply",
    "power",
    "quotient_by_central",
]

# The element tables and the subgroup enumeration refuse groups above this
# order.  It is read at call time.
ORDER_CAP = 243


def checked_sizes(p, n, m) -> tuple:
    """(p, n, m) as ints, after the checks a presentation runs before it
    allocates its pairing rows: p an odd prime within the int64 bounds,
    counts nonnegative, and tables within RESIDUE_CELL_LIMIT."""
    p = check_odd_prime(p)
    n, m = int(n), int(m)
    if n < 0 or m < 0:
        raise Nilp2Error("generator and commutator counts must be nonnegative")
    check_int64(n * (n - 1) * (p - 1) ** 3, p, f"collection with {n} generators")
    check_cells((n, n, m), "pairing table")
    return p, n, m


class GroupPresentation:
    """Validated presentation (p, n, m, c) of a class-<=2 exponent-p group.

    Immutable.  c is a mapping {(j, i): vector}, checked pair by pair, or
    the pairing rows as an int64 array, checked in one pass and taken over.
    Equality and hashing use (p, n, m, pairs), not the label.  No slot can
    be assigned or deleted: ``__init__`` and the caches derived from
    ``pairs`` set theirs through ``object.__setattr__``.
    """

    __slots__ = ("p", "n", "m", "pairs", "label", "_c_items", "_kappa", "_delta", "_center", "_hash")

    def __init__(self, p, n, m, c=None, label=""):
        p, n, m = checked_sizes(p, n, m)
        shape = (n * (n - 1) // 2, m)
        if isinstance(c, np.ndarray):
            pairs = np.asarray(c, dtype=np.int64)
            if pairs.shape != shape:
                raise AmbientMismatch(f"pairing rows have shape {pairs.shape}, expected {shape}")
            if pairs.size and (pairs.min() < 0 or pairs.max() >= p):
                row, t = np.argwhere((pairs < 0) | (pairs >= p))[0]
                j, i = (int(x[row]) + 1 for x in np.tril_indices(n, -1))
                raise EntryOutOfRange(f"entry {pairs[row, t]} for commutator ({j}, {i}) is outside [0, {p})")
        else:
            pairs = np.zeros(shape, dtype=np.int64)
            seen = set()
            for key, vec in dict(c or {}).items():
                j, i = (int(key[0]), int(key[1]))
                if not (1 <= i < j <= n):
                    raise BadIndex(f"commutator index ({j}, {i}) must satisfy 1 <= i < j <= {n}")
                if (j, i) in seen:
                    raise BadIndex(f"commutator index ({j}, {i}) is given twice")
                seen.add((j, i))
                entries = tuple(map(int, vec))
                if len(entries) != m:
                    raise AmbientMismatch(
                        f"commutator vector for ({j}, {i}) has {len(entries)} entries, expected {m}"
                    )
                if entries and (min(entries) < 0 or max(entries) >= p):
                    e = next(e for e in entries if not (0 <= e < p))
                    raise EntryOutOfRange(f"entry {e} for commutator ({j}, {i}) is outside [0, {p})")
                pairs[(j - 1) * (j - 2) // 2 + i - 1] = entries
        if m > 0:
            # The rank is m less the dimension of the rows' null space.
            rank = m - len(kernel_basis(pairs[pairs.any(axis=1)], p))
            if rank != m:
                raise SpanDeficit(rank, m)
        pairs.flags.writeable = False
        # The slots in order; the caches, from _c_items on, start empty.
        for name, value in itertools.zip_longest(self.__slots__, (p, n, m, pairs.view(), str(label))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"GroupPresentation is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"GroupPresentation is immutable: cannot delete {name}")

    # -- basic structure -------------------------------------------------

    @property
    def c_items(self) -> tuple:
        """The nonzero rows as ((j, i), vector) pairs, sorted by (j, i)."""
        if self._c_items is None and self.m:  # with m = 0 there are none
            rows = np.flatnonzero(self.pairs.any(axis=1))
            j, i = (x[rows] + 1 for x in np.tril_indices(self.n, -1))
            items = tuple(zip(zip(j.tolist(), i.tolist()), map(tuple, self.pairs[rows].tolist())))
            object.__setattr__(self, "_c_items", items)
        return self._c_items or ()

    @property
    def c(self) -> dict:
        """Nonzero commutator coordinates as {(j, i): vector}."""
        return dict(self.c_items)

    @property
    def order_exp(self) -> int:
        return self.n + self.m

    @property
    def order(self) -> int:
        return self.p ** (self.n + self.m)

    @property
    def is_abelian(self) -> bool:
        # The c-vectors span F_p^m, so m = 0 iff every commutator vanishes.
        return self.m == 0

    def kappa_table(self) -> np.ndarray:
        """Full antisymmetric pairing, shape (n, n, m)."""
        if self._kappa is None:
            k = np.zeros((self.n, self.n, self.m), dtype=np.int64)
            if self.m:  # at m = 0 nothing is placed, and the C(n, 2) indices could be huge
                j, i = np.tril_indices(self.n, -1)
                k[j, i] = self.pairs
                k[i, j] = np.mod(-self.pairs, self.p)
            k.flags.writeable = False
            object.__setattr__(self, "_kappa", k.view())
        return self._kappa

    def delta_table(self) -> np.ndarray:
        """Collection table: c(j, i) at slot (j-1, i-1) for j > i, else zero."""
        if self._delta is None:
            d = np.zeros((self.n, self.n, self.m), dtype=np.int64)
            if self.m:
                d[np.tril_indices(self.n, -1)] = self.pairs
            d.flags.writeable = False
            object.__setattr__(self, "_delta", d.view())
        return self._delta

    # -- elements ---------------------------------------------------------

    def element(self, v=(), w=()) -> "GroupElement":
        vv = tuple(int(x) % self.p for x in v)
        ww = tuple(int(x) % self.p for x in w)
        if len(vv) != self.n or len(ww) != self.m:
            raise AmbientMismatch(
                f"element coordinates must have shape ({self.n}, {self.m})"
            )
        return GroupElement(self, vv, ww)

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.n, (0,) * self.m)

    def generator(self, index: int) -> "GroupElement":
        """The generator x_index, 1-based."""
        if not (1 <= index <= self.n):
            raise BadIndex(f"generator index {index} out of range 1..{self.n}")
        v = [0] * self.n
        v[index - 1] = 1
        return GroupElement(self, tuple(v), (0,) * self.m)

    def generators(self):
        return tuple(self.generator(i) for i in range(1, self.n + 1))

    def elements(self):
        """All elements in lexicographic normal-form order (use at desk scale)."""
        for v in itertools.product(range(self.p), repeat=self.n):
            for w in itertools.product(range(self.p), repeat=self.m):
                yield GroupElement(self, v, w)

    def random_element(self, rng) -> "GroupElement":
        v = tuple(rng.randrange(self.p) for _ in range(self.n))
        w = tuple(rng.randrange(self.p) for _ in range(self.m))
        return GroupElement(self, v, w)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GroupPresentation):
            return NotImplemented
        same_shape = (self.p, self.n, self.m) == (other.p, other.n, other.m)
        return same_shape and np.array_equal(self.pairs, other.pairs)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.p, self.n, self.m, self.pairs.tobytes())))
        return self._hash

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<GroupPresentation{tag} p={self.p} n={self.n} m={self.m} order=p^{self.order_exp}>"


def elementary_abelian(p, n, label=None) -> GroupPresentation:
    return GroupPresentation(p, n, 0, {}, label=label if label is not None else f"C{p}^{n}")


def cyclic(p) -> GroupPresentation:
    return elementary_abelian(p, 1, label=f"C{p}")


def _same_group(a: "GroupElement", b: "GroupElement"):
    if a.group is not b.group and a.group != b.group:
        raise PresentationMismatch("elements belong to different presentations")


def _pair_sum(table: np.ndarray, p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over j, i of a_j * b_i * table[j, i], mod p, as two products.

    a and b are vectors, giving shape (m,), or stacks of vectors, giving
    shape (len(a), len(b), m) with the a index first.
    """
    n, _, m = table.shape
    left = (a @ table.reshape(n, n * m)).reshape(a.shape[:-1] + (n, m))
    out = b @ left
    return np.mod(out, p, out=out)


def _paired(table: np.ndarray, p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over j, i of a_j * b_i * table[j, i], mod p, for stacks a and b
    of the same shape (..., n), pair by pair: shape (..., m)."""
    n, _, m = table.shape
    left = (a @ table.reshape(n, n * m)).reshape(a.shape[:-1] + (n, m))
    out = (b[..., None, :] @ left)[..., 0, :]
    return np.mod(out, p, out=out)


def _delta(group: GroupPresentation, va, vb) -> np.ndarray:
    return _pair_sum(group.delta_table(), group.p, va, vb)


def _kappa(group: GroupPresentation, va, vb) -> np.ndarray:
    return _pair_sum(group.kappa_table(), group.p, va, vb)


class GroupElement:
    """Normal form (v, w); immutable value tied to its presentation."""

    __slots__ = ("group", "v", "w")

    def __init__(self, group: GroupPresentation, v: tuple, w: tuple):
        self.group = group
        self.v = v
        self.w = w

    @property
    def is_identity(self) -> bool:
        return not any(self.v) and not any(self.w)

    def v_array(self) -> np.ndarray:
        return np.array(self.v, dtype=np.int64)

    def w_array(self) -> np.ndarray:
        return np.array(self.w, dtype=np.int64)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.v == other.v and self.w == other.w and self.group == other.group

    def __hash__(self):
        return hash((self.v, self.w))

    def __repr__(self):
        return f"GroupElement(v={self.v}, w={self.w})"


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Normal form of a*b via the collection rule."""
    _same_group(a, b)
    g = a.group
    p = g.p
    v = tuple((x + y) % p for x, y in zip(a.v, b.v))
    if g.m == 0:  # kept: without it a product on C3^5 takes 12.4 us, not 2.3
        return GroupElement(g, v, ())
    d = _delta(g, a.v_array(), b.v_array()).tolist()
    return GroupElement(g, v, tuple((x + y + z) % p for x, y, z in zip(a.w, b.w, d)))


def inverse(a: GroupElement) -> GroupElement:
    return power(a, -1)


def power(a: GroupElement, k: int) -> GroupElement:
    """a^k by the closed form with the binomial coefficient C(k, 2)."""
    g = a.group
    p = g.p
    k = int(k)
    kv = k % p
    v = tuple((kv * x) % p for x in a.v)
    if g.m == 0:  # kept: without it a power on C3^5 takes 6.0 us, not 1.1
        return GroupElement(g, v, ())
    binom = (k * (k - 1) // 2) % p
    va = a.v_array()
    d = _delta(g, va, va).tolist()
    return GroupElement(g, v, tuple((kv * x + binom * z) % p for x, z in zip(a.w, d)))


def commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    """[a, b] = a b a^-1 b^-1; central, so only the v-parts matter."""
    _same_group(a, b)
    g = a.group
    w = _kappa(g, a.v_array(), b.v_array())
    return GroupElement(g, (0,) * g.n, tuple(w.tolist()))


# -- structural subgroups --------------------------------------------------


@dataclass(frozen=True)
class CenterInfo:
    """The center as seen in abelianized coordinates."""

    radical: Subspace
    center_equals_derived: bool


def center(group: GroupPresentation) -> CenterInfo:
    """Radical of the commutator pairing; the center is its preimage times z-space.

    The returned subspace R <= F_p^n is the image of the center in the
    abelianized coordinates; |Z(G)| = p^(dim R + m), and Z(G) = [G, G]
    exactly when R = 0.  Computed once per presentation.
    """
    if group._center is None:
        n, m = group.n, group.m
        check_cells((n, n), "center basis")
        kap = group.kappa_table()
        # v is central iff kappa(v, e_i) = 0 for every i.
        mat = kap.transpose(1, 2, 0).reshape(n * m, n)
        radical = Subspace(group.p, n, kernel_basis(mat, group.p))
        object.__setattr__(group, "_center", CenterInfo(radical, radical.dim == 0))
    return group._center


def _bracket_span(group: GroupPresentation, vectors: np.ndarray) -> Subspace:
    """kappa(U, U) for the span U of the rows of vectors, shape (k, n)."""
    rows = _kappa(group, vectors, vectors)[np.triu_indices(len(vectors), 1)]
    return Subspace(group.p, group.m, rows)


def from_kappa(p, kap, label="") -> GroupPresentation:
    """The presentation with c(j, i) = kap[j-1, i-1] mod p for j > i: the
    (n, n, m) pairing array is read only below its diagonal."""
    n, _, m = kap.shape
    return GroupPresentation(p, n, m, np.mod(kap[np.tri(n, k=-1, dtype=bool)], p), label=label)


def quotient_by_central(group: GroupPresentation, sub: Subspace):
    """Quotient by a subspace of the derived coordinates.

    The surviving derived coordinates are the non-pivot coordinates of
    sub's echelon basis, so the construction is reproducible bit for bit.
    The canonical projection x_i -> x_i onto the returned quotient q is
    hom_from_images(group, q, q.generators()).
    """
    if sub.p != group.p or sub.ambient != group.m:
        raise AmbientMismatch(
            f"subspace lives in F_{sub.p}^{sub.ambient}, derived space is F_{group.p}^{group.m}"
        )
    q = sub.complement_projection()
    label = f"{group.label}/N" if group.label else ""
    return GroupPresentation(group.p, group.n, len(q), np.mod(group.pairs @ q.T, group.p), label)


# -- homomorphisms -----------------------------------------------------------


class GeneratorMap:
    """Generator images plus the induced linear map on derived coordinates.

    When no linear map is compatible with the images, the map is recorded
    as inconsistent (commutator_matrix is None); this is a value, not an
    error, so callers can report it.
    """

    __slots__ = ("domain", "codomain", "images", "commutator_matrix", "abelianized_matrix")

    def __init__(self, domain, codomain, images, commutator_matrix, abelianized_matrix):
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)
        self.commutator_matrix = commutator_matrix
        self.abelianized_matrix = abelianized_matrix

    @property
    def consistent(self) -> bool:
        return self.commutator_matrix is not None

    def apply(self, element: GroupElement) -> GroupElement:
        if element.group is not self.domain and element.group != self.domain:
            raise PresentationMismatch("element does not belong to the map's domain")
        if not self.consistent:
            raise InconsistentMap("cannot apply an inconsistent generator map")
        acc = self.codomain.identity()
        for img, exponent in zip(self.images, element.v):
            if exponent:
                acc = multiply(acc, power(img, exponent))
        if self.domain.m:  # kept: without it desk_decide's mono checks take 4-9 % longer
            w = np.mod(self.commutator_matrix @ element.w_array(), self.codomain.p)
            acc = multiply(acc, self.codomain.element((0,) * self.codomain.n, w))
        return acc

    def push_derived(self, vectors) -> Subspace:
        """Image under the induced derived-coordinate map of the span of vectors."""
        if not self.consistent:
            raise InconsistentMap("inconsistent generator map has no derived image")
        rows = [
            np.mod(self.commutator_matrix @ np.array([int(x) for x in vec], dtype=np.int64), self.codomain.p)
            for vec in vectors
        ]
        return Subspace(self.codomain.p, self.codomain.m, rows)

    def __eq__(self, other):
        if not isinstance(other, GeneratorMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.images))

    def __repr__(self):
        state = "consistent" if self.consistent else "inconsistent"
        return f"<GeneratorMap {self.domain!r} -> {self.codomain!r} ({state})>"


def hom_from_images(dom: GroupPresentation, cod: GroupPresentation, images) -> GeneratorMap:
    """Solve for the homomorphism sending x_i to images[i].

    The induced linear map L on derived coordinates must satisfy
    L(c_dom(j, i)) = coords([img_j, img_i]) for every pair j > i; since the
    c-vectors span, L is unique when the system is consistent.
    """
    if dom.p != cod.p:
        raise PresentationMismatch("presentations have different moduli")
    images = tuple(images)
    if len(images) != dom.n:
        raise AmbientMismatch(f"expected {dom.n} generator images, got {len(images)}")
    for img in images:
        if img.group is not cod and img.group != cod:
            raise PresentationMismatch("generator image lies in the wrong presentation")

    # Row k of vs is the image of x_{k+1}; the mask selects the pairs j > i
    # in the order of dom.pairs.
    vs = np.array([img.v for img in images], dtype=np.int64).reshape(dom.n, cod.n)
    img_rows = _kappa(cod, vs, vs)[np.tri(dom.n, k=-1, dtype=bool)]

    solution = solve_matrix(dom.pairs, img_rows, dom.p)
    if solution is None:
        matrix = None
    else:
        matrix = np.mod(solution.T, dom.p)
        matrix.flags.writeable = False

    abelianized = vs.T.copy()
    abelianized.flags.writeable = False
    return GeneratorMap(dom, cod, images, matrix, abelianized)


@dataclass(frozen=True)
class MonoResult:
    """Outcome of an injectivity check: mono, or not_mono with a nontrivial
    kernel element as witness."""

    status: str
    witness: GroupElement | None = None


def is_monomorphism(f: GeneratorMap) -> MonoResult:
    """Exact injectivity test for a consistent generator map.

    Every kernel element lies in K = {(k, w) : A k = 0}, for the
    abelianized map A, and f maps K into the abelian derived subgroup of
    the codomain.  So f is injective iff K is abelian, i.e. kappa vanishes
    on ker A, and f is injective on K, a linear map on its basis: the
    elements (k, 0) for k in a basis of ker A, then z_1..z_m.  The witness
    of a failure is a commutator of two basis elements, or the element a
    linear dependency among the images names.
    """
    if not f.consistent:
        raise InconsistentMap("injectivity is undefined for inconsistent maps")
    dom = f.domain
    p = dom.p
    ker = kernel_basis(f.abelianized_matrix, p)
    lifts = [dom.element(k, (0,) * dom.m) for k in ker]
    clash = np.argwhere(_kappa(dom, ker, ker).any(axis=2))
    if clash.size:
        a, b = clash[0]
        return MonoResult("not_mono", commutator(lifts[a], lifts[b]))
    images = np.array([f.apply(x).w for x in lifts], dtype=np.int64).reshape(len(lifts), f.codomain.m)
    relations = kernel_basis(np.concatenate([images.T, f.commutator_matrix], axis=1), p)
    if not len(relations):
        return MonoResult("mono")
    coeffs = relations[0].tolist()
    witness = dom.element((0,) * dom.n, coeffs[len(lifts) :])
    for x, c in zip(lifts, coeffs):
        witness = multiply(witness, power(x, c))
    return MonoResult("not_mono", witness)


# -- small-order element tables and subgroup enumeration ---------------------


def _weights(group: GroupPresentation) -> np.ndarray:
    """Place values of the digits (v_1..v_n, w_1..w_m) of an element index."""
    return group.p ** np.arange(group.order_exp - 1, -1, -1, dtype=np.int64)


def _check_order(group: GroupPresentation):
    if group.order > ORDER_CAP:
        raise OrderExceedsCap(f"group order {group.order} exceeds the cap {ORDER_CAP}")


class _ElementTables:
    """Dense index tables for one small presentation.

    Elements are numbered by the mixed-radix value of their digits
    (v_1..v_n, w_1..w_m), so index 0 is the identity.  mul[a, b] is the
    index of the product, comm[a, b] the index of the commutator.  They
    take O(order^2 * m) memory, so groups above ORDER_CAP are refused
    before anything is allocated.
    """

    __slots__ = ("size", "identity", "vecs", "mul", "comm")

    def __init__(self, group: GroupPresentation):
        _check_order(group)
        p, n = group.p, group.n
        size = group.order
        vecs = all_vectors(p, group.order_exp)
        v = vecs[:, :n]
        w = vecs[:, n:]
        weights = _weights(group)
        # In place, to hold few size x size x m temporaries at once.
        ww = _delta(group, v, v)
        ww += w[:, None, :]
        ww += w[None, :, :]
        np.mod(ww, p, out=ww)
        vv = v[:, None, :] + v[None, :, :]
        np.mod(vv, p, out=vv)
        mul = vv @ weights[:n]
        mul += ww @ weights[n:]
        self.size = size
        self.identity = 0
        self.vecs = vecs
        self.mul = mul.astype(np.int32)
        self.comm = (_kappa(group, v, v) @ weights[n:]).astype(np.int32)


@lru_cache(maxsize=16)
def _tables(group: GroupPresentation) -> _ElementTables:
    return _ElementTables(group)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a small presentation, as element indices (numbered as in
    the element tables) plus generators."""

    group: GroupPresentation
    element_indices: frozenset
    generator_indices: tuple

    @property
    def order(self) -> int:
        return len(self.element_indices)


def _subgroup_table(group: GroupPresentation) -> list:
    """Every subgroup of a small group: per order p^d, d = 0 .. n + m, its
    sorted element indices, shape (count, p^d), and generator indices,
    shape (count, d), the rows sorted by their elements.

    Every subgroup H is exactly one triple (U, W, phi): U <= F_p^n is its
    image modulo the derived subgroup, W = H inter G' contains
    kappa(U, U), and phi: U -> F_p^m is linear with values in the
    non-pivot coordinates of W's echelon basis.  Then

        H = {(u, delta(u, u)/2 + phi(u) + w) : u in U, w in W},

    because u -> (u, delta(u, u)/2) is a homomorphism modulo kappa(U, U)
    (p is odd), and the non-pivot coordinates give one phi per class of
    maps modulo W.  One batch of array work per pair of echelon patterns,
    one for U and one for W, builds the element indices of every such H
    (numbered as in the element tables).  H is generated by the lifts of
    U's basis followed by W's basis.  Like every p-group, G has subgroups
    of every order dividing its own.  Groups above ORDER_CAP are refused.
    """
    _check_order(group)
    p, n, m = group.p, group.n, group.m
    weights = _weights(group)
    v_weights, w_weights = weights[:n], weights[n:]
    half = (p + 1) // 2
    derived = [
        (pivots, bases, np.mod(all_vectors(p, len(pivots)) @ bases, p))
        for pivots, bases in echelon_bases(p, m)
    ]
    # Per log_p of the order, the (elements, generators) arrays of each batch.
    found = [[] for _ in range(n + m + 1)]
    for _, u_bases in echelon_bases(p, n):
        k = u_bases.shape[1]
        coeffs = all_vectors(p, k)
        u = np.mod(coeffs @ u_bases, p)
        v_index = u @ v_weights
        # The derived part of the lift (u, delta(u, u)/2), at phi = 0.
        lift = _paired(group.delta_table(), p, u, u) * half % p
        # Row p^(k-1-i) of coeffs is the i-th unit vector.
        units = p ** np.arange(k - 1, -1, -1)
        left, right = np.array(list(itertools.combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2).T
        brackets = _paired(group.kappa_table(), p, u_bases[:, left], u_bases[:, right])
        for w_pivots, w_bases, w_elements in derived:
            free = [c for c in range(m) if c not in w_pivots]
            # kappa(U, U) <= W iff no bracket leaves a residue on W's free coordinates.
            residue = brackets[:, None, :, free] - brackets[:, None, :, w_pivots] @ w_bases[None, :, :, free]
            ui, wi = np.nonzero(~np.mod(residue, p).any(axis=(2, 3)))
            if not ui.size:
                continue
            count = p ** (k * len(free))
            phis = np.zeros((count, k, m), dtype=np.int64)
            phis[:, :, free] = all_vectors(p, k * len(free)).reshape(count, k, len(free))
            # Axes: the (U, W) pair, phi, u in U, then w in W.
            section = lift[ui][:, None] + (coeffs @ phis)[None]
            w = section[:, :, :, None, :] + w_elements[wi][:, None, None]
            elements = v_index[ui][:, None, :, None] + np.mod(w, p) @ w_weights
            elements = elements.reshape(-1, p ** (k + len(w_pivots)))
            elements.sort(axis=1)
            lifts = v_index[ui][:, None, units] + np.mod(section[:, :, units], p) @ w_weights
            spans = np.broadcast_to((w_bases[wi] @ w_weights)[:, None], lifts.shape[:2] + (len(w_pivots),))
            gens = np.concatenate([lifts, spans], axis=2).reshape(len(elements), -1)
            found[k + len(w_pivots)].append((elements, gens))
    table = []
    for batches in found:
        elements, gens = (np.concatenate(arrays) for arrays in zip(*batches))
        ordering = np.lexsort(elements.T[::-1])
        table.append((elements[ordering], gens[ordering]))
    return table


def enumerate_subgroups(group: GroupPresentation):
    """The rows of ``_subgroup_table`` as Subgroups, sorted by order, then elements."""
    return tuple(
        Subgroup(group, frozenset(elems), tuple(gen))
        for elements, gens in _subgroup_table(group)
        for elems, gen in zip(elements.tolist(), gens.tolist())
    )
