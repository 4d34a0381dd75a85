"""Desk-scale oracles that only ``selfcheck`` and the tests call: every
subspace of F_p^k, and the quotient cross-check of the epicentre."""

from __future__ import annotations

from dataclasses import dataclass

from .capability import CAPABLE, capability_verdict, epicentre_in_derived
from .errors import OrderExceedsCap
from .fplinalg import Subspace, echelon_bases
from .group_core import GroupPresentation, quotient_by_central

__all__ = [
    "CROSS_CHECK_MAX_DERIVED_DIM",
    "EpicentreCrossCheck",
    "all_subspaces",
    "epicentre_cross_check",
]

# epicentre_cross_check enumerates the subspaces of F_p^m only up to this m.
CROSS_CHECK_MAX_DERIVED_DIM = 4


def all_subspaces(p: int, ambient: int):
    """Yield every subspace of F_p^ambient, in ``echelon_bases`` order.

    Counts grow like Gaussian binomials, so keep the ambient dimension
    small.
    """
    for _, bases in echelon_bases(p, ambient):
        for basis in bases:
            yield Subspace(p, ambient, basis)


@dataclass(frozen=True)
class EpicentreCrossCheck:
    passed: bool
    epicentre_dim: int
    quotients_checked: int
    failures: tuple


def epicentre_cross_check(group: GroupPresentation) -> EpicentreCrossCheck:
    """Consistency oracle for the computed epicentre.

    Enumerates every subspace N of the derived coordinates and checks
    (i) whenever G/N is capable, N contains the computed epicentre, and
    (ii) the quotient by the computed epicentre itself is capable.
    Nontrivial abelian groups are refused, as by epicentre_in_derived, and
    so are groups with m > CROSS_CHECK_MAX_DERIVED_DIM.
    """
    if group.m > CROSS_CHECK_MAX_DERIVED_DIM:
        raise OrderExceedsCap(
            f"derived dimension {group.m} exceeds the enumeration limit {CROSS_CHECK_MAX_DERIVED_DIM}"
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
