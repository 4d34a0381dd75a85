"""Capability verdicts, the epicentre of nonabelian groups, central
decompositions, the restricted-class membership test, and the brute-force
decomposition search, a desk-scale oracle that the subgroup enumeration
refuses above ORDER_CAP.  The quotient cross-check is in ``oracles``.

The epicentre computation works in the tensor space F_p^m (x) F_p^n,
flattened with the derived index major and the abelianized index minor:
the tensor w (x) e_i occupies slots t*n + i.  The generating vectors of
the relation subspace are

    J(i, j, k) = kappa(i, j) (x) e_k + kappa(j, k) (x) e_i
               + kappa(k, i) (x) e_j,

and an element g of the derived space is in the epicentre exactly when
g (x) e_i lies in that subspace for every generator index i, that is,
when g (x) e_i is orthogonal to ker J for the C(n, 3) x nm matrix J of
the J(i, j, k).  J is built once, as ``_jacobi_entries`` from the pairing
rows' nonzeros; ``jacobi_subspace`` is the row space of those entries.  ker J
comes from ``fplinalg.kernel_of_entries``, which peels singleton columns
and rows with one entry and hands only the dense residue to ``rref``, and
the epicentre is the common kernel of the column slices (beta[t*n + i])_t
of a basis of ker J.  Construction outputs have at most 3 nonzeros per row
of J and peel entirely.  Then ker J comes back as entries, the stacked
slices are built from them, one row (i, beta) per generator and basis
vector that meet, and the same kernel solves them: on construction outputs
nearly every stacked row has one entry, and the row rule empties the
system.  So no dense basis of ker J, d x nm with d = nm - rank J, is
built: for the noncapable output over the free class-2 group of rank 24
it would be 7,340 x 11,400 int64 cells, 669 MB.  On dense kappa nothing
peels: J's rows with entries are eliminated whole, as they are when J is
small, and the stacked slices of the dense null rows go to
``kernel_basis``.

Whether J peels depends on the derived coordinates, not on the group.  J
is linear in them: with the rows pairs Q for an invertible Q, J's row space
is the old one mapped by Q (x) 1, and the epicentre is the old one times Q.
The rows B = pairs[pivots], for the pivots of rref(pairs^T), are the first
m independent commutators in tril order; in the coordinates where they are
the unit vectors the rows are pairs B^-1 = rref(pairs^T)^T, with m unit
rows and at most m entries in every other nonzero row.  So when pairs
holds more than m (live - m + 1) nonzeros, for ``live`` nonzero rows, the
epicentre is computed there, where its rows cannot be denser, and its basis
is mapped back by B; ``Subspace`` keeps the reduced echelon basis, so the
result is the same array.  At m = C(n, 2) those are the free class-2
group's standard rows on any generators, and J peels entirely: on a random
basis of rank 24 at p = 3 the dense null rows alone would be
4,600 x 6,624 cells and are refused, while the epicentre takes 0.02 s.  On
the benchmark ladder's dense kappa the top rungs (m = C(n, 2) - 1) take
0.19-0.68x as long and the whole ladder 0.85x; the middle rungs, which pay
the extra elimination and peel little or nothing, take 1.0-1.24x
(2-core machine, Python 3.11).  Construction outputs, already near unit
rows, and the extraspecial groups, at m = 1, never pass the test.

When Z(G) > G', G = H x C_p^r, where r is the dimension of the radical R
of kappa and H is generated by the generators at the non-pivot columns of
R's echelon basis; then Z(H) = [H, H] = [G, G] in the same derived
coordinates.  H is a selection of rows: the commutators of two such
generators keep their pairing rows, in G's order, and H is never built as
a presentation.  The exterior square of a direct product splits (Brown,
Johnson and Robertson, J. Algebra 111, 1987) and the exterior centre is
the epicentre (Ellis, J. London Math. Soc. 51, 1995), so
Z*(G) = Z*(H) x 1, and the criterion applied to H decides G.  Applied to
G it gives the same answer, as J(u, v, w) is trilinear and alternating:
its span does not depend on the generators, and in a basis adapted to
V = V_H + R it is H's plus G' (x) R.  The split saves C(n, 3) - C(n - r, 3)
rows of J and the peel, which a radical not aligned with the generators
defeats: for the free class-2 group of rank 12 times C_3^12 on random
generators, J is a dense 2,024 x 1,584 elimination of 0.22 s, against
0.02 s for the split epicentre (2-core machine, Python 3.11).

A group with Z(G) = G' is a nontrivial central product iff the algebra
Sym(kappa) = {F in End V : kappa(Fx, y) = kappa(x, Fy)} holds an idempotent
other than 0 and 1 (J. B. Wilson, Finding central decompositions of
p-groups, J. Group Theory 12, 2009; Decomposing p-groups via Jordan
algebras, J. Algebra 322, 2009): e gives V = eV + (1 - e)V with the two
summands orthogonal under kappa, and their preimages commute and cover G.
Every other group decomposes unless it is cyclic or trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import itertools
import math
import random

import numpy as np

from .errors import PreconditionCenterNotDerived
from .fplinalg import (
    Subspace,
    all_vectors,
    check_cells,
    kernel_basis,
    kernel_of_entries,
    rref,
    solve_matrix,
)
from .group_core import (
    GroupPresentation,
    Subgroup,
    _bracket_span,
    _kappa,
    _subgroup_table,
    center,
)

__all__ = [
    "CapabilityVerdict",
    "CentralDecomposition",
    "DecompositionSearch",
    "DecompositionVerdict",
    "RpVerdict",
    "capability_verdict",
    "central_decomposition",
    "central_decomposition_search",
    "epicentre_in_derived",
    "jacobi_subspace",
    "rp_membership",
]

CAPABLE = "capable"
NOT_CAPABLE = "not_capable"

# Sym(kappa) is enumerated only while its p^dim elements, as n x n
# matrices, hold at most this many entries in all.
SYM_ENUMERATION_LIMIT = 1 << 18
# Seed of the test vectors x_1, x_2 of the Sym certificate.
SYM_SEED = 0


@functools.lru_cache(maxsize=None)
def _triple_slots(n: int):
    """For each pair j > i in ``np.tril_indices(n, -1)`` order, which is
    the order of the pairing rows, and each third index c in increasing
    order: the row of the sorted triple among
    ``itertools.combinations(range(n), 3)``, c, and whether i < c < j.
    Read-only arrays of shape (C(n, 2), n - 2)."""
    x, y, z = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3).T
    # The terms of J(x, y, z) on the pairs (y, x), (z, y) and (z, x), with
    # the thirds z, x and y.
    j, i, c = np.concatenate([y, z, z]), np.concatenate([x, y, x]), np.concatenate([z, x, y])
    order = np.lexsort((c, i, j))
    shape = (n * (n - 1) // 2, max(n - 2, 0))
    rows = np.tile(np.arange(len(x)), 3)
    out = tuple(v[order].reshape(shape) for v in (rows, c, (i < c) & (c < j)))
    for arr in out:
        arr.flags.writeable = False
    return out


def _jacobi_entries(n: int, p: int, pairs: np.ndarray):
    """The nonzero entries (row, column, value) of the C(n, 3) x nm matrix
    whose rows are the J(i, j, k), i < j < k, in combinations order, for
    the pairing rows ``pairs`` of n generators.

    Each nonzero c(j, i)_t and each third index c give the entry c(j, i)_t
    at slot t*n + c of the row of the sorted triple when i < c < j, whose
    term is kappa(j, i) (x) e_c, and its negative otherwise, where the
    term is kappa(i, j) (x) e_c.
    """
    rows, c, inside = _triple_slots(n)
    pair, t = np.nonzero(pairs)
    v = pairs[pair, t][:, None]
    vals = np.where(inside[pair], v, p - v)
    return rows[pair].ravel(), (t[:, None] * n + c[pair]).ravel(), vals.ravel()


def jacobi_subspace(group: GroupPresentation) -> Subspace:
    """The relation subspace, spanned by J(i, j, k) for i < j < k: the row
    space of the matrix with the entries of ``_jacobi_entries``."""
    rows, cols, vals = _jacobi_entries(group.n, group.p, group.pairs)
    out = np.zeros((math.comb(group.n, 3), group.m * group.n), dtype=np.int64)
    out[rows, cols] = vals
    return Subspace(group.p, out.shape[1], out)


def epicentre_in_derived(group: GroupPresentation) -> Subspace:
    """The epicentre, as a subspace of the derived coordinates.

    Computed on the factor H with Z(H) = [H, H] (H = G when the radical is
    zero), where it is exactly {g : g (x) e_i lies in the relation subspace
    for every i}.  H's pairing rows are G's rows whose two generators both
    lie off the radical's pivots, in G's order and derived coordinates.
    Where those rows hold more than m (live - m + 1) nonzeros, J is built in
    the coordinates where the first m independent rows are unit vectors,
    and the basis is mapped back (see the module docstring).  Nontrivial
    abelian groups have no such factor and are refused.
    """
    info = center(group)
    n, m, p, pairs = group.n, group.m, group.p, group.pairs
    if not info.center_equals_derived:
        if group.is_abelian:
            raise PreconditionCenterNotDerived(
                "epicentre computation requires a nonabelian group"
            )
        free = np.isin(np.arange(n), info.radical.pivots, invert=True)
        j, i = np.tril_indices(n, -1)
        n, pairs = int(np.count_nonzero(free)), pairs[free[j] & free[i]]
    if n < 3:  # no triples, so nothing qualifies; kept: the general path is 1.6-2x slower
        return Subspace.zero(p, m)
    # The rows B = pairs[pivots] become unit vectors, the other rows
    # pairs B^-1, only where that cannot add entries: m unit rows and at
    # most m entries in each other nonzero row.
    back = None
    if np.count_nonzero(pairs) > m * (np.count_nonzero(pairs.any(axis=1)) - m + 1):
        r, pivots = rref(pairs.T, p)
        back, pairs = pairs[pivots], r.T
    kernel = kernel_of_entries(*_jacobi_entries(n, p, pairs), (math.comb(n, 3), m * n), p)
    if isinstance(kernel, np.ndarray):
        if kernel.shape[0] == 0:
            # J spans everything, so every g qualifies; kept: 55 of 88 ladder verdicts, 3-5 ms.
            return Subspace.full(p, m)
        # slices[i, r] = kernel[r, i::n], the slots t*n + i of generator i.
        # Zero rows constrain nothing.  The kernel is column-major, so its
        # transpose reshapes without a copy, and the mask gathers the
        # stacked rows in one allocation, no larger than the kernel.
        slices = kernel.T.reshape(m, n, -1).transpose(1, 2, 0)
        basis = kernel_basis(slices[slices.any(axis=2)], p)
    elif kernel.dim == 0:
        return Subspace.full(p, m)
    else:
        # Row (i, r) of the stacked system holds kernel vector r's slots
        # t*n + i in column t; only rows with entries are numbered.  On
        # construction outputs nearly every row has one entry, and the row
        # rule empties it.
        t, i = np.divmod(kernel.column, n)
        keys, rows = np.unique(i * kernel.dim + kernel.vector, return_inverse=True)
        common = kernel_of_entries(rows, t, kernel.value, (keys.size, m), p)
        if isinstance(common, np.ndarray):
            basis = common
        else:
            check_cells((common.dim, m), "epicentre basis")
            basis = np.zeros((common.dim, m), dtype=np.int64)
            basis[common.vector, common.column] = common.value
    if back is not None:
        basis = np.mod(basis @ back, p)
    return Subspace(p, m, basis)


@dataclass(frozen=True)
class CentralDecomposition:
    left: Subgroup
    right: Subgroup
    derived_overlap_dim: int


@dataclass(frozen=True)
class DecompositionSearch:
    status: str  # "witness" | "none"
    witness: CentralDecomposition | None
    subgroup_count: int


def central_decomposition_search(group: GroupPresentation) -> DecompositionSearch:
    """Exhaustive search for a nontrivial central decomposition G = CD.

    A witness satisfies [C, D] = e, |C||D| = |G||C inter D|, and neither
    factor contains the other.  The first witness (largest orders first)
    is reported.

    The search reads the rows of ``_subgroup_table`` straight into arrays,
    largest order first, and builds Subgroups only for the witness.  Pairs
    are tested one left factor at a time, over the S subgroups in search
    order.  ``members`` marks each subgroup's elements; ``cent``
    marks, for each possible left factor, its centralizer modulo the
    derived subgroup: the v in F_p^n with kappa(v, g) = 0 for all of its
    generators g.  The right factors large enough to cover G with the left
    one form a contiguous slice.  A right factor commutes with the left
    one iff its generators lie in that centralizer, and only the commuting
    ones have their meet counted.  Beyond the enumeration the search costs
    O(S * order) boolean work per left factor and holds at most
    S * (order + p^n) bytes of masks: 1.3 MB for the 2664 subgroups of
    C3^5.  Groups above ORDER_CAP are refused by the enumeration.
    """
    table = _subgroup_table(group)[::-1]
    total = group.order
    rows = [len(e) for e, _ in table]
    orders = np.repeat([e.shape[1] for e, _ in table], rows)
    members = np.zeros((len(orders), total), dtype=bool)
    members[np.repeat(np.arange(len(orders)), orders), np.concatenate([e.ravel() for e, _ in table])] = True
    # Generator lists are padded with the identity, index 0, whose v = 0
    # commutes with everything; ``counts`` keeps each list's length.
    counts = np.repeat([g.shape[1] for _, g in table], rows)
    width = counts[0]
    indices = np.zeros((len(orders), width), dtype=np.int64)
    indices[np.arange(width) < counts[:, None]] = np.concatenate([g.ravel() for _, g in table])
    # The v-part of each generator, as the index of v in all_vectors order.
    gens = indices // group.p**group.m
    vs = all_vectors(group.p, group.n)
    commutes = ~_kappa(group, vs, vs).any(axis=2)
    # Only subgroups with |L|^2 >= |G| are left factors.
    lefts = int(np.count_nonzero(orders * orders >= total))
    cent = np.ones((lefts, len(vs)), dtype=bool)
    for k in range(width):
        cent &= commutes[gens[:lefts, k]]

    def side(k):
        """Subgroup k and the span of its generators' brackets."""
        elems, own = frozenset(np.flatnonzero(members[k]).tolist()), slice(counts[k])
        return Subgroup(group, elems, tuple(indices[k, own].tolist())), _bracket_span(group, vs[gens[k, own]])

    # orders is nonincreasing, so -orders is sorted for searchsorted.
    descending = -orders
    for ci in range(lefts):
        stop = int(np.searchsorted(descending, -(total // orders[ci]), side="right"))
        commuting = ci + 1 + np.flatnonzero(cent[ci][gens[ci + 1 : stop]].all(axis=1))
        meet = np.count_nonzero(members[commuting] & members[ci], axis=1)
        sizes = orders[commuting]
        hits = commuting[(orders[ci] * sizes == total * meet) & (meet != orders[ci]) & (meet != sizes)]
        if hits.size:
            (left, u), (right, w) = side(ci), side(int(hits[0]))
            witness = CentralDecomposition(left, right, u.intersect(w).dim)
            return DecompositionSearch("witness", witness, len(orders))
    return DecompositionSearch("none", None, len(orders))


@dataclass(frozen=True)
class DecompositionVerdict:
    """Whether G is a nontrivial central product, with a witness.

    The witness subspaces U = ``left`` and W = ``right`` of F_p^n satisfy
    kappa(U, W) = 0 and U + W = F_p^n, and neither contains the other.  The
    witness subgroups are their preimages in G, of orders ``left_order``
    and ``right_order``; ``derived_overlap_dim`` is
    dim(kappa(U, U) inter kappa(W, W)).  ``sym_dim`` is dim Sym(kappa)
    when Z(G) = G', and ``limit`` names the limit that left the answer
    undetermined.
    """

    status: str  # "found" | "none" | "undetermined"
    left: Subspace | None = None
    right: Subspace | None = None
    left_order: int | None = None
    right_order: int | None = None
    derived_overlap_dim: int | None = None
    sym_dim: int | None = None
    limit: str | None = None


def _found(group, u: Subspace, w: Subspace, overlap: int, sym_dim=None) -> DecompositionVerdict:
    p, m = group.p, group.m
    return DecompositionVerdict(
        "found", u, w, p ** (u.dim + m), p ** (w.dim + m), overlap, sym_dim
    )


def _pairings(kap: np.ndarray, xs: np.ndarray, p: int) -> np.ndarray:
    """kappa(e_a, x)_t at [k, a, t] for the k-th vector x of xs."""
    return np.mod(np.einsum("abt,kb->kat", kap, xs), p)


def _sym_basis(group: GroupPresentation) -> np.ndarray:
    """A basis of Sym(kappa), shape (dim, n, n), for a group with Z(G) = G'.

    Let L: u -> (kappa(u, x_i))_i for test vectors x_i.  When L is
    injective, F in Sym is determined by w_i = F x_i, because
    L(Fy) = (kappa(y, w_i))_i.  Every F in Sym satisfies the consistency
    equations kappa(w_j, x_i) = kappa(x_j, w_i), and the identity solves
    them with w = x.  So if their solutions form a line, dim Sym = 1; L is
    then injective too, since (u, 0, ...) and (0, u, ...) solve them for
    every u in ker L.  Otherwise standard basis vectors join the x_i until
    L is injective, each solution w gives F(w) = L_R^-1 (kappa(., w_i))_R
    on a set R of independent rows of L, and F(w)^T K_t = K_t F(w) for
    every derived coordinate t cuts the solutions down to Sym itself.
    """
    p, n, m = group.p, group.n, group.m
    kap = group.kappa_table()
    rng = random.Random(SYM_SEED)
    xs = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(2)], dtype=np.int64)
    while True:
        k = len(xs)
        pair = _pairings(kap, xs, p)
        # L transposed: row a, column (i, t) holds kappa(e_a, x_i)_t.
        lt = pair.transpose(1, 0, 2).reshape(n, k * m)
        # Below n rows L is not injective, so the solutions are no line.
        if k * m >= n:
            # Rows: the unknowns w_j[a]; columns: the equations
            # kappa(w_j, x_i) + kappa(w_i, x_j) = 0 for i <= j, one per t.
            pairs = [(i, j) for i in range(k) for j in range(i, k)]
            system = np.zeros((k, n, len(pairs), m), dtype=np.int64)
            for q, (i, j) in enumerate(pairs):
                system[j, :, q] += pair[i]
                system[i, :, q] += pair[j]
            system = system.reshape(k * n, -1)
            if len(rref(system, p)[1]) == k * n - 1:
                return np.eye(n, dtype=np.int64)[None]
            _, rows = rref(lt, p)
            if len(rows) == n:
                break
        # The standard basis makes L injective, as the radical is zero.
        xs = np.vstack([xs, np.eye(1, n, k - 2, dtype=np.int64)])
    solutions = kernel_basis(system.T, p)
    inverse = solve_matrix(lt[:, rows].T, np.eye(n, dtype=np.int64), p)
    # images[s, r, b] = kappa(e_b, w_i)_t for the solution w_s and the row
    # r = (i, t) of R, so that F(w_s) = L_R^-1 images[s].
    brackets = _pairings(kap, solutions.reshape(-1, n), p).reshape(-1, k, n, m)
    images = brackets.transpose(0, 1, 3, 2).reshape(-1, k * m, n)[:, rows]
    fs = np.mod(inverse @ images, p)
    # F^T K_t - K_t F at [s, a, b, t]: Sym is where a combination vanishes.
    adjoint = np.einsum("sca,cbt->sabt", fs, kap) - np.einsum("act,scb->sabt", kap, fs)
    coeffs = kernel_basis(np.mod(adjoint.reshape(len(fs), -1).T, p), p)
    return np.mod(coeffs @ fs.reshape(len(fs), n * n), p).reshape(-1, n, n)


def _largest_idempotent(basis: np.ndarray, p: int):
    """The first idempotent of largest rank other than 0 and 1 among the
    elements of the algebra spanned by basis, or None."""
    dim, n, _ = basis.shape
    elements = np.mod(all_vectors(p, dim) @ basis.reshape(dim, n * n), p).reshape(-1, n, n)
    idempotent = (np.mod(elements @ elements, p) == elements).all(axis=(1, 2))
    best, best_rank = None, 0
    for e in elements[idempotent]:
        rank = len(rref(e, p)[1])
        if best_rank < rank < n:
            best, best_rank = e, rank
    return best


def central_decomposition(group: GroupPresentation) -> DecompositionVerdict:
    """Decide whether G is a nontrivial central product G = CD.

    When Z(G) > G' no linear algebra beyond the radical R of kappa is
    needed.  An abelian group decomposes iff n >= 2, into two coordinate
    hyperplanes.  A nonabelian one decomposes into R and the coordinate
    hyperplane at R's first pivot, which does not contain R.

    When Z(G) = G' the answer is read from Sym(kappa): dimension 1 means
    no decomposition.  A larger Sym is enumerated, if its elements fit
    SYM_ENUMERATION_LIMIT, and the first idempotent e of largest rank
    other than 0 and 1 gives U = eV and W = (1 - e)V; with no such
    idempotent there is no decomposition.  Past the limit the answer is
    undetermined and names the limit ``sym_enumeration``.
    """
    p, n = group.p, group.n
    if group.is_abelian:
        if n < 2:
            return DecompositionVerdict("none")
        check_cells((n, n), "hyperplane basis")
        eye = np.eye(n, dtype=np.int64)
        return _found(group, Subspace(p, n, eye[:-1]), Subspace(p, n, eye[1:]), 0)
    radical = center(group).radical
    if radical.dim:
        hyperplane = Subspace(p, n, np.delete(np.eye(n, dtype=np.int64), radical.pivots[0], axis=0))
        return _found(group, hyperplane, radical, 0)
    basis = _sym_basis(group)
    dim = len(basis)
    if dim == 1:
        return DecompositionVerdict("none", sym_dim=1)
    if p**dim * n * n > SYM_ENUMERATION_LIMIT:
        return DecompositionVerdict("undetermined", sym_dim=dim, limit="sym_enumeration")
    e = _largest_idempotent(basis, p)
    if e is None:
        return DecompositionVerdict("none", sym_dim=dim)
    u, w = Subspace(p, n, e.T), Subspace(p, n, (np.eye(n, dtype=np.int64) - e).T)
    overlap = _bracket_span(group, u.basis).intersect(_bracket_span(group, w.basis)).dim
    return _found(group, u, w, overlap, dim)


@dataclass(frozen=True)
class CapabilityVerdict:
    status: str
    method: str
    evidence: dict = field(default_factory=dict)


def capability_verdict(group: GroupPresentation) -> CapabilityVerdict:
    """Decide capability with a named method.

    Abelian groups follow Baer's rule: capable unless cyclic of order p,
    so the trivial group is capable.  Every other group is capable iff its
    epicentre is trivial.
    """
    if group.is_abelian:
        status = CAPABLE if group.n != 1 else NOT_CAPABLE
        return CapabilityVerdict(status, "baer_abelian", {"abelian_rank": group.n})
    epi = epicentre_in_derived(group)
    evidence = {"epicentre_dim": epi.dim, "epicentre_basis": epi.basis_tuples()}
    if epi.dim == 0:
        return CapabilityVerdict(CAPABLE, "epicentre_trivial", evidence)
    return CapabilityVerdict(NOT_CAPABLE, "epicentre_nontrivial", evidence)


@dataclass(frozen=True)
class RpVerdict:
    status: str  # "member" | "non_member" | "undetermined"
    reasons: tuple


def rp_membership(group: GroupPresentation) -> RpVerdict:
    """Membership in the restricted class: center equals derived subgroup,
    a forced relation among the generator commutators, and central
    indecomposability.

    The C(n, 2) commutators [x_j, x_i] span the derived subgroup, so a
    relation among them exists exactly when m < C(n, 2), whichever
    generators are chosen.  Indecomposability is decided by
    central_decomposition; the status is undetermined only when that
    names a limit.
    """
    reasons = ["exponent_p_class_at_most_2"]
    info = center(group)
    if info.center_equals_derived:
        reasons.append("center_equals_derived")
    else:
        reasons.append("center_exceeds_derived")
    pairs = group.n * (group.n - 1) // 2
    relation = group.m < pairs
    if relation:
        reasons.append(f"commutator_relation_exists({pairs}>{group.m})")
    else:
        reasons.append("commutators_linearly_independent")
    if not info.center_equals_derived or not relation:
        return RpVerdict("non_member", tuple(reasons))
    decomposition = central_decomposition(group)
    if decomposition.status == "undetermined":
        reasons.append(f"indecomposability_not_verified({decomposition.limit})")
        return RpVerdict("undetermined", tuple(reasons))
    if decomposition.status == "none":
        reasons.append("no_central_decomposition_found")
        return RpVerdict("member", tuple(reasons))
    reasons.append(
        f"central_decomposition_found({decomposition.left_order},{decomposition.right_order})"
    )
    return RpVerdict("non_member", tuple(reasons))
