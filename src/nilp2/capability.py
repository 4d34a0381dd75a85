"""Capability verdicts, the epicentre of nonabelian groups, the
restricted-class membership test, and the brute-force search oracles.

The epicentre computation works in the tensor space F_p^m (x) F_p^n,
flattened with the derived index major and the abelianized index minor:
the tensor w (x) e_i occupies slots t*n + i.  The generating vectors of
the relation subspace are

    J(i, j, k) = kappa(i, j) (x) e_k + kappa(j, k) (x) e_i
               + kappa(k, i) (x) e_j,

and an element g of the derived space is in the epicentre exactly when
g (x) e_i lies in that subspace for every generator index i.  The
criterion holds when the center coincides with the derived subgroup.

Every other nonabelian group is G = H x C_p^r, where r is the dimension of
the radical R of kappa and H is generated by the generators at the
non-pivot columns of R's echelon basis; then Z(H) = [H, H] = [G, G] in
the same derived coordinates.  The exterior square of a direct product
splits (Brown, Johnson and Robertson, J. Algebra 111, 1987) and the
exterior centre is the epicentre (Ellis, J. London Math. Soc. 51, 1995),
so Z*(G) = Z*(H) x 1, and the criterion applied to H decides G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools

import numpy as np

from .errors import OrderExceedsCap, PreconditionCenterNotDerived
from .fplinalg import Subspace, all_subspaces, all_vectors, kernel_basis
from .group_core import (
    DEFAULT_ORDER_CAP,
    GroupPresentation,
    Subgroup,
    _kappa,
    center,
    enumerate_subgroups,
    quotient_by_central,
)
from .products import AMALGAM_PROVENANCE

__all__ = [
    "CapabilityVerdict",
    "CentralDecomposition",
    "DecompositionSearch",
    "EpicentreCrossCheck",
    "JacobiSubspace",
    "RpVerdict",
    "capability_verdict",
    "central_decomposition_search",
    "epicentre_cross_check",
    "epicentre_in_derived",
    "jacobi_subspace",
    "jacobi_vector",
    "rp_membership",
]

CAPABLE = "capable"
NOT_CAPABLE = "not_capable"


def jacobi_vector(group: GroupPresentation, x: int, y: int, z: int) -> np.ndarray:
    """Relation vector for generator indices (1-based); repeats are allowed
    and make the vector vanish."""
    kap = group.kappa_table()
    n, m = group.n, group.m
    out = np.zeros(m * n, dtype=np.int64)
    if m == 0:
        return out
    slots = np.arange(m) * n
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        out[slots + (c - 1)] += kap[a - 1, b - 1]
    return np.mod(out, group.p)


@dataclass(frozen=True)
class JacobiSubspace:
    """Relation subspace of the flattened tensor space plus its generators.

    ``vectors`` holds one generating vector per triple, in the order of
    ``triples``.
    """

    space: Subspace
    triples: tuple
    vectors: np.ndarray

    @property
    def generators(self) -> tuple:
        """(triple, vector) pairs with the vectors as tuples of ints."""
        return tuple(
            (triple, tuple(int(x) for x in vec)) for triple, vec in zip(self.triples, self.vectors)
        )


def jacobi_subspace(group: GroupPresentation) -> JacobiSubspace:
    n, m = group.n, group.m
    triples = tuple(itertools.combinations(range(1, n + 1), 3))
    kap = group.kappa_table()
    out = np.zeros((len(triples), m, n), dtype=np.int64)
    if triples:
        rows = np.arange(len(triples))
        x, y, z = (np.array(t) - 1 for t in zip(*triples))
        # The same three terms as jacobi_vector; within one row the three
        # target columns differ, so no scatter index repeats.
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            out[rows, :, c] += kap[a, b]
    vectors = np.mod(out.reshape(len(triples), m * n), group.p)
    vectors.flags.writeable = False
    return JacobiSubspace(Subspace(group.p, m * n, vectors), triples, vectors)


def _radical_complement(group: GroupPresentation, radical: Subspace) -> GroupPresentation:
    """The factor H of G = H x C_p^r: generated by the generators at the
    radical's non-pivot columns f_1 < f_2 < ..., with
    c'(b, a) = kappa(e_{f_b}, e_{f_a}) and G's derived coordinates."""
    pivots = set(radical.pivots)
    free = [f for f in range(group.n) if f not in pivots]
    kap = group.kappa_table()
    c = {(b + 1, a + 1): kap[fb, fa] for b, fb in enumerate(free) for a, fa in enumerate(free[:b])}
    return GroupPresentation(group.p, len(free), group.m, c)


def epicentre_in_derived(group: GroupPresentation) -> Subspace:
    """The epicentre, as a subspace of the derived coordinates.

    Computed on the factor H with Z(H) = [H, H] (H = G when the radical is
    zero), where it is exactly {g : g (x) e_i lies in the relation subspace
    for every i}.  Nontrivial abelian groups have no such factor and are
    refused.
    """
    info = center(group)
    if not info.center_equals_derived:
        if group.is_abelian:
            raise PreconditionCenterNotDerived(
                "epicentre computation requires a nonabelian group"
            )
        group = _radical_complement(group, info.radical)
    n, m = group.n, group.m
    if m == 0:
        return Subspace.zero(group.p, 0)
    s = jacobi_subspace(group).space
    q = s.complement_projection()
    if q.shape[0] == 0:
        # The relation subspace is everything, so every g qualifies.
        return Subspace.full(group.p, m)
    q3 = q.reshape(-1, m, n)
    stacked = np.concatenate([q3[:, :, i] for i in range(n)], axis=0)
    return Subspace(group.p, m, kernel_basis(stacked, group.p))


@dataclass(frozen=True)
class CentralDecomposition:
    left: Subgroup
    right: Subgroup
    derived_overlap_dim: int


@dataclass(frozen=True)
class DecompositionSearch:
    status: str  # "witness" | "none" | "exceeds_cap"
    witness: CentralDecomposition | None = None
    subgroup_count: int | None = None


def central_decomposition_search(
    group: GroupPresentation, cap: int = DEFAULT_ORDER_CAP
) -> DecompositionSearch:
    """Exhaustive search for a nontrivial central decomposition G = CD.

    A witness satisfies [C, D] = e, |C||D| = |G||C inter D|, and neither
    factor contains the other.  The first witness (largest orders first)
    is reported.

    Pairs are tested one left factor at a time, over the S subgroups in
    search order.  ``members`` marks each subgroup's elements; ``cent``
    marks, for each possible left factor, its centralizer modulo the
    derived subgroup: the v in F_p^n with kappa(v, g) = 0 for all of its
    generators g.  The right factors large enough to cover G with the left
    one form a contiguous slice.  A right factor commutes with the left
    one iff its generators lie in that centralizer, and only the commuting
    ones have their meet counted.  Beyond the enumeration the search costs
    O(S * order) boolean work per left factor and holds at most
    S * (order + p^n) bytes of masks: 1.3 MB for the 2664 subgroups of
    C3^5.
    """
    if group.order > cap:
        return DecompositionSearch("exceeds_cap")
    subs = enumerate_subgroups(group, cap)
    total = group.order
    # enumerate_subgroups sorts by (order, elements); a stable sort by
    # descending order keeps the elements ascending within each order.
    ordering = sorted(subs, key=lambda s: -s.order)
    orders = np.array([s.order for s in ordering], dtype=np.int64)
    members = np.zeros((len(ordering), total), dtype=bool)
    members[
        np.repeat(np.arange(len(ordering)), orders),
        np.fromiter(itertools.chain.from_iterable(s.element_indices for s in ordering), dtype=np.int64),
    ] = True
    # The v-part of each generator, as the index of v in all_vectors order;
    # lists are padded with v = 0, which commutes with everything.
    width = max(len(s.generator_indices) for s in ordering)
    gens = np.zeros((len(ordering), width), dtype=np.int64)
    for k, s in enumerate(ordering):
        gens[k, : len(s.generator_indices)] = s.generator_indices
    gens //= group.p**group.m
    vs = all_vectors(group.p, group.n)
    commutes = ~_kappa(group, vs, vs).any(axis=2)
    # Only subgroups with |L|^2 >= |G| are left factors.
    lefts = int(np.count_nonzero(orders * orders >= total))
    cent = np.ones((lefts, len(vs)), dtype=bool)
    for k in range(width):
        cent &= commutes[gens[:lefts, k]]
    # orders is nonincreasing, so -orders is sorted for searchsorted.
    descending = -orders
    for ci in range(lefts):
        stop = int(np.searchsorted(descending, -(total // orders[ci]), side="right"))
        commuting = ci + 1 + np.flatnonzero(cent[ci][gens[ci + 1 : stop]].all(axis=1))
        meet = np.count_nonzero(members[commuting] & members[ci], axis=1)
        sizes = orders[commuting]
        hits = commuting[(orders[ci] * sizes == total * meet) & (meet != orders[ci]) & (meet != sizes)]
        if hits.size:
            left, right = ordering[ci], ordering[int(hits[0])]
            overlap = left.derived_subspace().intersect(right.derived_subspace()).dim
            return DecompositionSearch("witness", CentralDecomposition(left, right, overlap), len(subs))
    return DecompositionSearch("none", None, len(subs))


@dataclass(frozen=True)
class CapabilityVerdict:
    status: str
    method: str
    evidence: dict = field(default_factory=dict)


def capability_verdict(group: GroupPresentation) -> CapabilityVerdict:
    """Decide capability with a named method.

    Abelian groups follow Baer's rule: capable iff more than one
    generator.  Every other group is capable iff its epicentre is trivial.
    """
    if group.is_abelian:
        status = CAPABLE if group.n > 1 else NOT_CAPABLE
        return CapabilityVerdict(status, "baer_abelian", {"abelian_rank": group.n})
    epi = epicentre_in_derived(group)
    evidence = {"epicentre_dim": epi.dim, "epicentre_basis": epi.basis_tuples()}
    if epi.dim == 0:
        return CapabilityVerdict(CAPABLE, "epicentre_trivial", evidence)
    return CapabilityVerdict(NOT_CAPABLE, "epicentre_nontrivial", evidence)


@dataclass(frozen=True)
class RpVerdict:
    status: str  # "member" | "non_member" | "member_by_construction" | "undetermined"
    reasons: tuple


def rp_membership(group: GroupPresentation, cap: int = DEFAULT_ORDER_CAP) -> RpVerdict:
    """Membership in the restricted class: center equals derived subgroup,
    a forced relation among the nonzero generator commutators, and central
    indecomposability.

    The relation check uses the standard generator transversal: the
    nonzero commutator vectors span, so a relation exists exactly when
    there are more of them than the derived dimension.  Indecomposability
    is certified either by provenance (outputs of the amalgamated
    coproduct of nontrivial factors) or by the exhaustive search when the
    order is within cap; otherwise the status is undetermined.
    """
    reasons = ["exponent_p_class_at_most_2"]
    info = center(group)
    if info.center_equals_derived:
        reasons.append("center_equals_derived")
    else:
        reasons.append("center_exceeds_derived")
    relation = len(group.c_items) > group.m
    if relation:
        reasons.append(
            f"commutator_relation_exists({len(group.c_items)}>{group.m})"
        )
    else:
        reasons.append("commutators_linearly_independent")
    if not info.center_equals_derived or not relation:
        return RpVerdict("non_member", tuple(reasons))
    if group.provenance == AMALGAM_PROVENANCE:
        reasons.append("indecomposable_by_construction")
        return RpVerdict("member_by_construction", tuple(reasons))
    search = central_decomposition_search(group, cap)
    if search.status == "exceeds_cap":
        reasons.append("indecomposability_not_verified")
        return RpVerdict("undetermined", tuple(reasons))
    if search.witness is None:
        reasons.append("no_central_decomposition_found")
        return RpVerdict("member", tuple(reasons))
    reasons.append(
        f"central_decomposition_found({search.witness.left.order},{search.witness.right.order})"
    )
    return RpVerdict("non_member", tuple(reasons))


@dataclass(frozen=True)
class EpicentreCrossCheck:
    passed: bool
    epicentre_dim: int
    quotients_checked: int
    failures: tuple


def epicentre_cross_check(group: GroupPresentation, max_derived_dim: int = 4) -> EpicentreCrossCheck:
    """Consistency oracle for the computed epicentre.

    Enumerates every subspace N of the derived coordinates and checks
    (i) whenever G/N is capable, N contains the computed epicentre, and
    (ii) the quotient by the computed epicentre itself is capable.
    Nontrivial abelian groups are refused, as by epicentre_in_derived.
    """
    if group.m > max_derived_dim:
        raise OrderExceedsCap(
            f"derived dimension {group.m} exceeds the enumeration limit {max_derived_dim}"
        )
    zstar = epicentre_in_derived(group)
    failures = []
    checked = 0
    for sub in all_subspaces(group.p, group.m):
        quotient = quotient_by_central(group, sub)
        checked += 1
        if capability_verdict(quotient).status == CAPABLE and not sub.contains(zstar):
            failures.append(
                f"capable quotient by {sub.basis_tuples()} does not contain the epicentre"
            )
    by_epi = quotient_by_central(group, zstar)
    checked += 1
    if capability_verdict(by_epi).status != CAPABLE:
        failures.append("quotient by the computed epicentre is not capable")
    return EpicentreCrossCheck(
        passed=not failures,
        epicentre_dim=zstar.dim,
        quotients_checked=checked,
        failures=tuple(failures),
    )
