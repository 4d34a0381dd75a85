"""Named builders and the two embedding constructions with verification.

build_capable_extension embeds its input in a capable group of the
restricted class; build_noncapable_extension embeds it in a non-capable
one.  Both return a self-contained report carrying the presentations, the
embedding, the recomputable verdicts, and the rank bounds
(+2/+3 respectively +6/+7 on the abelianized rank, by branch).

Every product lists its left factor's generators first, so the input sits
in each product as the inclusion x_i -> x_i, and [x_j, x_i] has the same
pairing row in the factor and the product: the inclusion's image of the
factor's row r is the product's row r.  So the glued commutator is named by
its row r0, the base's first nonzero row, and the line glued at each step,
like the report's identified vector, is row r0 of that step's presentation
scaled to a leading 1.  No intermediate inclusion is solved.

Each output is an amalgamated coproduct of nontrivial factors.
rp_membership decides its membership in the restricted class from the
presentation alone, so a report and the same output re-read from its file
get the same answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capability import (
    CAPABLE,
    NOT_CAPABLE,
    CapabilityVerdict,
    RpVerdict,
    capability_verdict,
    epicentre_in_derived,
    rp_membership,
)
from .errors import Nilp2Error, TrivialInput
from .fplinalg import Subspace
from .group_core import GeneratorMap, GroupPresentation, cyclic, hom_from_images, is_monomorphism
from .products import Identification, amalgamated_coproduct, central_product_identified, nilpotent2_product

__all__ = [
    "ExtensionReport",
    "VerificationOutcome",
    "build_capable_extension",
    "build_noncapable_extension",
    "extraspecial_p5",
    "heisenberg",
    "verify_extension",
]

BOUND_BY_BRANCH = {
    ("capable", "nonabelian_capable"): 2,
    ("capable", "augmented"): 3,
    ("noncapable", "nonabelian"): 6,
    ("noncapable", "abelian"): 7,
}


def heisenberg(p: int) -> GroupPresentation:
    """The relatively free rank-2 group of the variety: order p^3, one
    defining commutator."""
    return GroupPresentation(p, 2, 1, {(2, 1): (1,)}, label=f"heisenberg({p})")


def extraspecial_p5(p: int) -> GroupPresentation:
    """Extraspecial group of order p^5 and exponent p: two hyperbolic
    generator pairs sharing a single central commutator coordinate."""
    return GroupPresentation(
        p, 4, 1, {(2, 1): (1,), (4, 3): (1,)}, label=f"extraspecial_p5({p})"
    )


def _glued_row(group: GroupPresentation) -> int:
    """The row r0 of the glued commutator: the first nonzero pairing row."""
    nonzero = np.flatnonzero(group.pairs.any(axis=1))
    if not nonzero.size:
        raise Nilp2Error("presentation has no nonzero commutators")
    return int(nonzero[0])


def _row_line(group: GroupPresentation, row: int) -> tuple:
    """Pairing row ``row`` of group, scaled to a leading 1."""
    return Subspace(group.p, group.m, group.pairs[row : row + 1]).basis_tuples()[0]


@dataclass(frozen=True)
class ExtensionReport:
    """Self-contained certificate for one embedding construction."""

    mode: str  # "capable" | "noncapable"
    branch: str
    input_group: GroupPresentation
    output_group: GroupPresentation
    embedding: GeneratorMap
    capability: CapabilityVerdict
    rp: RpVerdict
    rank_bound_claimed: int
    rank_bound_actual: int
    bound_ok: bool
    embedding_mono: bool
    identified_vector: tuple


def _finish_report(mode, branch, source, target, identified):
    embedding = hom_from_images(source, target, target.generators()[: source.n])
    mono = is_monomorphism(embedding)
    verdict = capability_verdict(target)
    rp = rp_membership(target)
    claimed = BOUND_BY_BRANCH[(mode, branch)]
    actual = target.n - source.n
    return ExtensionReport(
        mode=mode,
        branch=branch,
        input_group=source,
        output_group=target,
        embedding=embedding,
        capability=verdict,
        rp=rp,
        rank_bound_claimed=claimed,
        rank_bound_actual=actual,
        bound_ok=target.n <= source.n + claimed,
        embedding_mono=mono.status == "mono",
        identified_vector=identified,
    )


def build_capable_extension(group: GroupPresentation) -> ExtensionReport:
    """Embed the input in a capable group of the restricted class.

    If the input is nonabelian and capable it is used directly (+2 rank
    bound); otherwise it is first coproduct-extended by one cyclic factor
    (+3).  Either way, the rank-2 free group is then glued along a derived
    line, which forces the commutator relation while keeping the
    epicentre trivial.
    """
    if group.order == 1:
        raise TrivialInput("the construction requires a nontrivial input")
    if not group.is_abelian and capability_verdict(group).status == CAPABLE:
        base = group
        branch = "nonabelian_capable"
    else:
        base = nilpotent2_product(group, cyclic(group.p)).group
        branch = "augmented"
    r0 = _glued_row(base)
    free2 = heisenberg(group.p)
    ident = Identification(base, free2, (_row_line(base, r0),), ((1,),))
    am = amalgamated_coproduct(base, free2, ident).group
    return _finish_report("capable", branch, group, am, _row_line(am, r0))


def build_noncapable_extension(group: GroupPresentation) -> ExtensionReport:
    """Embed the input in a non-capable group of the restricted class.

    A chosen derived element is first glued centrally to the rank-2 free
    group, which places it in the epicentre; the result is then
    amalgamated with the extraspecial p^5 group along that element, so the
    glued line survives into the epicentre of the output.  Abelian inputs
    are first coproduct-extended by one cyclic factor to create a derived
    element (+7 rank bound instead of +6).
    """
    if group.order == 1:
        raise TrivialInput("the construction requires a nontrivial input")
    if group.is_abelian:
        base = nilpotent2_product(group, cyclic(group.p)).group
        branch = "abelian"
    else:
        base = group
        branch = "nonabelian"
    r0 = _glued_row(base)
    free2 = heisenberg(group.p)
    ident = Identification(base, free2, (_row_line(base, r0),), ((1,),))
    cp = central_product_identified(base, free2, ident).group
    wide = extraspecial_p5(group.p)
    am = amalgamated_coproduct(cp, wide, Identification(cp, wide, (_row_line(cp, r0),), ((1,),))).group
    return _finish_report("noncapable", branch, group, am, _row_line(am, r0))


@dataclass(frozen=True)
class VerificationOutcome:
    passed: bool
    checks: tuple  # of (name, ok, detail)


def verify_extension(report: ExtensionReport) -> VerificationOutcome:
    """Recompute every claim of a report from its stored presentations.

    Each check is named so tampering is pinpointed; any exception inside a
    check marks it failed rather than aborting the run.
    """
    checks = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - verification must not abort
            ok, detail = False, f"error: {exc}"
        checks.append((name, bool(ok), detail))

    def check_valid(group):
        return GroupPresentation(group.p, group.n, group.m, group.pairs) == group, ""

    def check_endpoints():
        ok = (
            report.embedding.domain == report.input_group
            and report.embedding.codomain == report.output_group
        )
        return ok, ""

    def check_embedding():
        fresh = hom_from_images(
            report.input_group, report.output_group, report.embedding.images
        )
        if not fresh.consistent:
            return False, "generator images admit no homomorphism"
        mono = is_monomorphism(fresh)
        if mono.status != "mono":
            return False, f"injectivity status {mono.status}"
        return report.embedding_mono, ""

    # The output's epicentre, once computed by check_capability.
    evidence = {}

    def check_capability():
        fresh = capability_verdict(report.output_group)
        evidence.update(fresh.evidence)
        expected = CAPABLE if report.mode == "capable" else NOT_CAPABLE
        ok = (
            fresh.status == report.capability.status == expected
            and fresh.method == report.capability.method
        )
        return ok, f"recomputed {fresh.status}/{fresh.method}"

    def check_rp():
        fresh = rp_membership(report.output_group)
        ok = fresh.status == report.rp.status == "member"
        return ok, f"recomputed {fresh.status}"

    def check_identified():
        if report.mode != "noncapable":
            return True, "not applicable"
        if "epicentre_basis" in evidence:
            epi = Subspace(report.output_group.p, report.output_group.m, evidence["epicentre_basis"])
        else:
            epi = epicentre_in_derived(report.output_group)
        return epi.contains_vector(report.identified_vector), ""

    def check_bounds():
        claimed = BOUND_BY_BRANCH.get((report.mode, report.branch))
        if claimed is None or report.rank_bound_claimed != claimed:
            return False, f"claimed bound {report.rank_bound_claimed} is not the branch bound"
        actual = report.output_group.n - report.input_group.n
        if report.rank_bound_actual != actual:
            return False, f"stored actual {report.rank_bound_actual}, recomputed {actual}"
        ok = report.bound_ok == (report.output_group.n <= report.input_group.n + claimed)
        return ok and report.bound_ok, ""

    run("input_valid", lambda: check_valid(report.input_group))
    run("output_valid", lambda: check_valid(report.output_group))
    run("embedding_endpoints", check_endpoints)
    run("embedding_mono", check_embedding)
    run("capability_matches", check_capability)
    run("rp_matches", check_rp)
    run("identified_in_epicentre", check_identified)
    run("bounds", check_bounds)
    return VerificationOutcome(all(ok for _, ok, _ in checks), tuple(checks))
