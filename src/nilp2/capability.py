"""Capability verdicts, the epicentre of groups with Z(G) = [G, G], the
restricted-class membership test, and the brute-force search oracles.

The epicentre computation works in the tensor space F_p^m (x) F_p^n,
flattened with the derived index major and the abelianized index minor:
the tensor w (x) e_i occupies slots t*n + i.  The generating vectors of
the relation subspace are

    J(i, j, k) = kappa(i, j) (x) e_k + kappa(j, k) (x) e_i
               + kappa(k, i) (x) e_j,

and an element g of the derived space is in the epicentre exactly when
g (x) e_i lies in that subspace for every generator index i.  The
criterion applies only when the center coincides with the derived
subgroup; other nonabelian inputs are decided by the sufficient
independent-commutators check or by a central-decomposition search, and
are otherwise reported as undetermined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools

import numpy as np

from .errors import OrderExceedsCap, PreconditionCenterNotDerived
from .fplinalg import Subspace, all_subspaces, kernel_basis
from .group_core import (
    DEFAULT_ORDER_CAP,
    GroupPresentation,
    Subgroup,
    _tables,
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
    "ellis_basis_criterion",
    "epicentre_cross_check",
    "epicentre_in_derived",
    "jacobi_subspace",
    "jacobi_vector",
    "rp_membership",
]

CAPABLE = "capable"
NOT_CAPABLE = "not_capable"
UNDETERMINED = "undetermined"


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


def epicentre_in_derived(group: GroupPresentation) -> Subspace:
    """The epicentre, as a subspace of the derived coordinates.

    Requires Z(G) = [G, G]; in that regime the epicentre is exactly
    {g : g (x) e_i lies in the relation subspace for every i}.
    """
    info = center(group)
    if not info.center_equals_derived:
        raise PreconditionCenterNotDerived(
            "epicentre computation requires the center to equal the derived subgroup"
        )
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


def ellis_basis_criterion(group: GroupPresentation) -> str:
    """Sufficient check: nonzero generator commutators forming a basis.

    The stored commutator vectors always span the derived space, so they
    form a basis exactly when their count equals its dimension.  Returns
    "capable" or "inconclusive"; abelian input is always inconclusive
    here and owned by the abelian rule instead.
    """
    if group.m == 0:
        return "inconclusive"
    if len(group.c_items) == group.m:
        return CAPABLE
    return "inconclusive"


@dataclass(frozen=True)
class CentralDecomposition:
    left: Subgroup
    right: Subgroup
    derived_overlap_dim: int


@dataclass(frozen=True)
class DecompositionSearch:
    status: str  # "witness" | "none" | "exceeds_cap"
    witness: CentralDecomposition | None = None
    trigger_witness: CentralDecomposition | None = None
    subgroup_count: int | None = None


def central_decomposition_search(
    group: GroupPresentation, cap: int = DEFAULT_ORDER_CAP
) -> DecompositionSearch:
    """Exhaustive search for a nontrivial central decomposition G = CD.

    A witness satisfies [C, D] = e, |C||D| = |G||C inter D|, and neither
    factor contains the other.  The first witness (largest orders first)
    is reported, and separately the first witness whose factors' derived
    subspaces overlap nontrivially, since only that kind certifies
    non-capability.
    """
    if group.order > cap:
        return DecompositionSearch("exceeds_cap")
    subs = enumerate_subgroups(group, cap)
    t = _tables(group)
    identity = t.identity
    total = group.order
    ordering = sorted(subs, key=lambda s: (-s.order,) + s.sort_key()[1:])
    derived_cache: dict = {}

    def derived(sub: Subgroup) -> Subspace:
        key = sub.element_indices
        if key not in derived_cache:
            derived_cache[key] = sub.derived_subspace()
        return derived_cache[key]

    witness = None
    trigger = None
    for ci, left in enumerate(ordering):
        if left.order * left.order < total:
            # Every remaining pair is too small to cover the group.
            break
        for right in ordering[ci + 1 :]:
            if left.order * right.order < total:
                break
            if any(
                int(t.comm[g, h]) != identity
                for g in left.generator_indices
                for h in right.generator_indices
            ):
                continue
            meet = len(left.element_indices & right.element_indices)
            if left.order * right.order != total * meet:
                continue
            if left.contains(right) or right.contains(left):
                continue
            overlap = derived(left).intersect(derived(right)).dim
            found = CentralDecomposition(left, right, overlap)
            if witness is None:
                witness = found
            if overlap > 0 and trigger is None:
                trigger = found
            if witness is not None and trigger is not None:
                return DecompositionSearch("witness", witness, trigger, len(subs))
    if witness is not None:
        return DecompositionSearch("witness", witness, trigger, len(subs))
    return DecompositionSearch("none", None, None, len(subs))


@dataclass(frozen=True)
class CapabilityVerdict:
    status: str
    method: str
    evidence: dict = field(default_factory=dict)


def capability_verdict(
    group: GroupPresentation, cap: int = DEFAULT_ORDER_CAP
) -> CapabilityVerdict:
    """Decide capability with a named method.

    Decision order: the abelian rule (capable iff more than one
    generator); the epicentre for groups whose center is the derived
    subgroup; then for the remaining nonabelian groups the sufficient
    independent-commutators check, a central-decomposition search within
    the order cap, and finally undetermined.
    """
    if group.is_abelian:
        status = CAPABLE if group.n > 1 else NOT_CAPABLE
        return CapabilityVerdict(status, "baer_abelian", {"abelian_rank": group.n})
    info = center(group)
    if info.center_equals_derived:
        epi = epicentre_in_derived(group)
        evidence = {"epicentre_dim": epi.dim, "epicentre_basis": epi.basis_tuples()}
        if epi.dim == 0:
            return CapabilityVerdict(CAPABLE, "epicentre_trivial", evidence)
        return CapabilityVerdict(NOT_CAPABLE, "epicentre_nontrivial", evidence)
    if ellis_basis_criterion(group) == CAPABLE:
        return CapabilityVerdict(
            CAPABLE,
            "ellis_basis",
            {"nonzero_commutators": len(group.c_items), "derived_dim": group.m},
        )
    search = central_decomposition_search(group, cap)
    if search.trigger_witness is not None:
        w = search.trigger_witness
        return CapabilityVerdict(
            NOT_CAPABLE,
            "central_product",
            {
                "left_order": w.left.order,
                "right_order": w.right.order,
                "derived_overlap_dim": w.derived_overlap_dim,
            },
        )
    return CapabilityVerdict(UNDETERMINED, "out_of_scope", {})


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
    quotients_skipped: int
    failures: tuple


def epicentre_cross_check(
    group: GroupPresentation,
    max_derived_dim: int = 4,
    cap: int = DEFAULT_ORDER_CAP,
) -> EpicentreCrossCheck:
    """Consistency oracle for the computed epicentre.

    Enumerates every central subspace N of the derived coordinates and
    checks (i) whenever G/N gets a definite capable verdict, N contains
    the computed epicentre, and (ii) the quotient by the computed
    epicentre itself gets a capable verdict when decidable.  Quotients
    with an undetermined verdict are skipped and counted.
    """
    info = center(group)
    if not info.center_equals_derived:
        raise PreconditionCenterNotDerived(
            "cross-check requires the center to equal the derived subgroup"
        )
    if group.m > max_derived_dim:
        raise OrderExceedsCap(
            f"derived dimension {group.m} exceeds the enumeration limit {max_derived_dim}"
        )
    zstar = epicentre_in_derived(group)
    failures = []
    checked = 0
    skipped = 0
    for sub in all_subspaces(group.p, group.m):
        quotient, _ = quotient_by_central(group, sub)
        verdict = capability_verdict(quotient, cap)
        if verdict.status == UNDETERMINED:
            skipped += 1
            continue
        checked += 1
        if verdict.status == CAPABLE and not sub.contains(zstar):
            failures.append(
                f"capable quotient by {sub.basis_tuples()} does not contain the epicentre"
            )
    by_epi, _ = quotient_by_central(group, zstar)
    verdict = capability_verdict(by_epi, cap)
    if verdict.status == UNDETERMINED:
        skipped += 1
    elif verdict.status != CAPABLE:
        failures.append("quotient by the computed epicentre is not capable")
    else:
        checked += 1
    return EpicentreCrossCheck(
        passed=not failures,
        epicentre_dim=zstar.dim,
        quotients_checked=checked,
        quotients_skipped=skipped,
        failures=tuple(failures),
    )
