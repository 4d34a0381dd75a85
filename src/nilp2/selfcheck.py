"""Deterministic acceptance battery.

Each criterion of the acceptance checklist is one function returning a
CriterionResult; the CLI selftest command runs them all and prints one
line per criterion, and the pytest acceptance module asserts them
individually.  Everything is seeded, so two runs produce byte-identical
output.
"""

from __future__ import annotations

from dataclasses import dataclass
import random

import numpy as np

from . import fileformats
from .capability import (
    CAPABLE,
    NOT_CAPABLE,
    capability_verdict,
    central_decomposition,
    central_decomposition_search,
    epicentre_cross_check,
    epicentre_in_derived,
)
from .constructions import build_capable_extension, build_noncapable_extension, extraspecial_p5, heisenberg
from .errors import InvalidIdentification, SpanDeficit
from .fplinalg import Subspace, kernel_basis
from .group_core import (
    ORDER_CAP,
    GroupPresentation,
    _tables,
    _weights,
    center,
    cyclic,
    elementary_abelian,
    hom_from_images,
    inverse,
    is_monomorphism,
    multiply,
    power,
)
from .products import (
    Identification,
    amalgamated_coproduct,
    central_product_identified,
    direct_product,
    nilpotent2_product,
)

__all__ = [
    "CriterionResult",
    "expected_amalgam_epicentre",
    "random_identification",
    "random_presentation",
    "rebase",
    "run_all",
]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if (self.detail and not self.passed) else ""
        return f"criterion {self.number:02d} {self.name}: {status}{suffix}"


# -- shared construction helpers ---------------------------------------------


def random_presentation(rng: random.Random, p: int, max_n: int = 3) -> GroupPresentation:
    """Random valid presentation with 1..max_n generators (seeded, hence
    deterministic)."""
    n = rng.randint(1, max_n)
    pair_count = n * (n - 1) // 2
    m = rng.randint(0, pair_count)
    pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
    while True:
        c = {}
        for pair in pairs:
            c[pair] = tuple(rng.randrange(p) for _ in range(m))
        try:
            return GroupPresentation(p, n, m, c)
        except SpanDeficit:
            continue


def random_identification(rng: random.Random, a: GroupPresentation, b: GroupPresentation) -> Identification:
    size = rng.randint(0, min(a.m, b.m))
    while True:
        src = tuple(tuple(rng.randrange(a.p) for _ in range(a.m)) for _ in range(size))
        tgt = tuple(tuple(rng.randrange(b.p) for _ in range(b.m)) for _ in range(size))
        try:
            return Identification(a, b, src, tgt)
        except InvalidIdentification:
            continue


def rebase(group: GroupPresentation, a) -> GroupPresentation:
    """The same group on the generators y_k = sum_i a[i, k] x_i, for an
    invertible a: c'(j, i) = kappa(a e_j, a e_i)."""
    a = np.asarray(a, dtype=np.int64)
    c = np.einsum("aj,bi,abt->jit", a, a, group.kappa_table()) % group.p
    pairs = [(j, i) for j in range(2, group.n + 1) for i in range(1, j)]
    return GroupPresentation(group.p, group.n, group.m, {(j, i): c[j - 1, i - 1] for j, i in pairs})


def center_line_identification(a: GroupPresentation, b: GroupPresentation) -> Identification:
    """Glue the first derived coordinate of a to the first of b."""
    one_a = tuple(1 if t == 0 else 0 for t in range(a.m))
    one_b = tuple(1 if t == 0 else 0 for t in range(b.m))
    return Identification(a, b, (one_a,), (one_b,))


def expected_amalgam_epicentre(a, b, ident, embed_left, product) -> Subspace:
    """Independent oracle for the amalgam epicentre.

    Computes {h in the glued subspace : h in Z*(a), phi(h) in Z*(b)} from
    the factor epicentres alone and pushes it through the left embedding;
    this never looks at the amalgam's own relation subspace.
    """
    if ident.size == 0:
        return Subspace.zero(product.p, product.m)
    p = product.p
    za = epicentre_in_derived(a)
    zb = epicentre_in_derived(b)
    h = np.array(ident.source_basis, dtype=np.int64).T
    k = np.array(ident.target_basis, dtype=np.int64).T
    qa = za.complement_projection()
    qb = zb.complement_projection()
    stacked = np.concatenate([np.mod(qa @ h, p), np.mod(qb @ k, p)], axis=0)
    coeffs = kernel_basis(stacked, p)
    vectors = [np.mod(h @ t, p) for t in coeffs]
    return embed_left.push_derived(vectors)


def _battery_p3():
    heis = heisenberg(3)
    heis_c3 = nilpotent2_product(heis, cyclic(3)).group
    return [
        cyclic(3),
        elementary_abelian(3, 2),
        elementary_abelian(3, 3),
        heis,
        extraspecial_p5(3),
        GroupPresentation(3, heis_c3.n, heis_c3.m, heis_c3.c, label="heis3*C3"),
    ]


def _closure_size(group: GroupPresentation) -> int:
    """Order of the subgroup generated by the generators, via index tables."""
    t = _tables(group)
    gen_indices = _weights(group)[: group.n].tolist()
    seen = {t.identity}
    frontier = [t.identity]
    while frontier:
        fresh = []
        arr = np.array(frontier, dtype=np.int64)
        for g in gen_indices:
            for idx in t.mul[arr, g].tolist():
                if idx not in seen:
                    seen.add(idx)
                    fresh.append(idx)
        frontier = fresh
    return len(seen)


# -- criteria ------------------------------------------------------------------


def check_group_axioms() -> CriterionResult:
    """Criterion 1: axioms on the five-group battery; order by exhaustive closure."""
    rng = random.Random(101)
    groups = [
        cyclic(3),
        elementary_abelian(3, 2),
        heisenberg(3),
        extraspecial_p5(3),
        heisenberg(5),
    ]
    problems = []
    for g in groups:
        for _ in range(1000):
            a, b, c = (g.random_element(rng) for _ in range(3))
            if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
                problems.append(f"{g.label}: associativity")
                break
        for _ in range(1000):
            a = g.random_element(rng)
            if not multiply(a, inverse(a)).is_identity:
                problems.append(f"{g.label}: inverse")
                break
            if not power(a, g.p).is_identity:
                problems.append(f"{g.label}: exponent")
                break
        if _closure_size(g) != g.order:
            problems.append(f"{g.label}: order")
    return CriterionResult(1, "group_axioms", not problems, "; ".join(problems))


def check_tensor_dimension_law() -> CriterionResult:
    """Criterion 2: derived growth of the coproduct is exactly n_a*n_b, and
    both canonical embeddings are injective."""
    rng = random.Random(202)
    problems = []
    for trial in range(20):
        p = 3 if trial % 2 == 0 else 5
        a = random_presentation(rng, p)
        b = random_presentation(rng, p)
        res = nilpotent2_product(a, b)
        if res.group.m != a.m + b.m + a.n * b.n:
            problems.append(f"trial {trial}: m={res.group.m}")
        if is_monomorphism(res.embed_left).status != "mono":
            problems.append(f"trial {trial}: left embedding")
        if is_monomorphism(res.embed_right).status != "mono":
            problems.append(f"trial {trial}: right embedding")
    return CriterionResult(2, "tensor_dimension_law", not problems, "; ".join(problems))


def check_capability_ground_truths() -> CriterionResult:
    """Criterion 3: frozen verdicts for the five reference groups."""
    problems = []
    for p in (3, 5):
        h = heisenberg(p)
        v = capability_verdict(h)
        if not (v.status == CAPABLE and v.method == "epicentre_trivial"):
            problems.append(f"heisenberg({p}): {v.status}/{v.method}")
        if epicentre_in_derived(h).dim != 0:
            problems.append(f"heisenberg({p}): epicentre dim")
        if len(h.c_items) != h.m:
            problems.append(f"heisenberg({p}): commutators are not a basis")
    e5 = extraspecial_p5(3)
    v = capability_verdict(e5)
    epi = epicentre_in_derived(e5)
    if not (v.status == NOT_CAPABLE and v.method == "epicentre_nontrivial"):
        problems.append(f"extraspecial: {v.status}/{v.method}")
    if epi != Subspace.full(3, 1):
        problems.append("extraspecial: epicentre is not the full derived space")
    search = central_decomposition_search(e5)
    if search.witness is None or search.witness.derived_overlap_dim < 1:
        problems.append("extraspecial: no central-product witness")
    for group, expected in ((cyclic(3), NOT_CAPABLE), (elementary_abelian(3, 2), CAPABLE)):
        v = capability_verdict(group)
        if not (v.status == expected and v.method == "baer_abelian"):
            problems.append(f"{group.label}: {v.status}/{v.method}")
    return CriterionResult(3, "capability_ground_truths", not problems, "; ".join(problems))


def _amalgam_battery():
    heis = heisenberg(3)
    e5 = extraspecial_p5(3)
    c3 = cyclic(3)
    c32 = elementary_abelian(3, 2)
    c33 = elementary_abelian(3, 3)

    def empty(a, b):
        return Identification(a, b, (), ())

    return [
        (c3, c3, empty(c3, c3)),
        (c32, c3, empty(c32, c3)),
        (c3, c32, empty(c3, c32)),
        (heis, c3, empty(heis, c3)),
        (c33, heis, empty(c33, heis)),
        (heis, heis, empty(heis, heis)),
        (heis, heis, center_line_identification(heis, heis)),
        (heis, e5, center_line_identification(heis, e5)),
        (e5, heis, center_line_identification(e5, heis)),
        (e5, e5, center_line_identification(e5, e5)),
    ]


def check_amalgam_laws() -> CriterionResult:
    """Criterion 4: center = derived subgroup, epicentre matches the oracle,
    and no nontrivial central decomposition, which the exhaustive search
    confirms at searchable orders."""
    problems = []
    for idx, (a, b, ident) in enumerate(_amalgam_battery()):
        res = amalgamated_coproduct(a, b, ident)
        g = res.group
        if not center(g).center_equals_derived:
            problems.append(f"case {idx}: center")
            continue
        expected = expected_amalgam_epicentre(a, b, ident, res.embed_left, g)
        if epicentre_in_derived(g) != expected:
            problems.append(f"case {idx}: epicentre")
        decomposition = central_decomposition(g)
        if decomposition.status != "none":
            problems.append(f"case {idx}: decomposition {decomposition.status}")
        if g.order <= ORDER_CAP and central_decomposition_search(g).status != "none":
            problems.append(f"case {idx}: search found a decomposition")
    return CriterionResult(4, "amalgam_laws", not problems, "; ".join(problems))


def check_capable_embedding() -> CriterionResult:
    """Criterion 5: capable extensions over the p=3 battery, with the exact
    rank values for the two pinned inputs."""
    problems = []
    for g in _battery_p3():
        rep = build_capable_extension(g)
        if rep.capability.status != CAPABLE or rep.capability.method != "epicentre_trivial":
            problems.append(f"{g.label}: verdict {rep.capability.status}")
        if rep.rp.status != "member":
            problems.append(f"{g.label}: rp {rep.rp.status}")
        if not rep.embedding_mono:
            problems.append(f"{g.label}: embedding")
        if not rep.bound_ok:
            problems.append(f"{g.label}: bound")
        expected_claim = 2 if rep.branch == "nonabelian_capable" else 3
        if rep.rank_bound_claimed != expected_claim:
            problems.append(f"{g.label}: claim {rep.rank_bound_claimed}")
    for g in (cyclic(3), heisenberg(3)):
        rep = build_capable_extension(g)
        if rep.output_group.n != 4:
            problems.append(f"{g.label}: n={rep.output_group.n} not 4")
        if rep.output_group.n != g.n + rep.rank_bound_claimed:
            problems.append(f"{g.label}: bound not tight")
    return CriterionResult(5, "capable_embedding", not problems, "; ".join(problems))


def check_noncapable_embedding() -> CriterionResult:
    """Criterion 6: non-capable extensions over the p=3 battery; the glued
    element stays in the epicentre; exact shape for the rank-2 free input."""
    problems = []
    for g in _battery_p3():
        rep = build_noncapable_extension(g)
        if rep.capability.status != NOT_CAPABLE or rep.capability.method != "epicentre_nontrivial":
            problems.append(f"{g.label}: verdict {rep.capability.status}")
        if rep.rp.status != "member":
            problems.append(f"{g.label}: rp {rep.rp.status}")
        if not rep.embedding_mono:
            problems.append(f"{g.label}: embedding")
        if not rep.bound_ok:
            problems.append(f"{g.label}: bound")
        expected_claim = 7 if g.is_abelian else 6
        if rep.rank_bound_claimed != expected_claim:
            problems.append(f"{g.label}: claim {rep.rank_bound_claimed}")
        if not epicentre_in_derived(rep.output_group).contains_vector(rep.identified_vector):
            problems.append(f"{g.label}: glued element not in epicentre")
    rep = build_noncapable_extension(heisenberg(3))
    if (rep.output_group.n, rep.output_group.m) != (8, 17):
        problems.append(f"heisenberg(3): shape ({rep.output_group.n}, {rep.output_group.m})")
    return CriterionResult(6, "noncapable_embedding", not problems, "; ".join(problems))


def check_identified_in_epicentre() -> CriterionResult:
    """Criterion 7: in central products with nonempty gluing, the glued
    subspace sits inside the epicentre."""
    heis3 = heisenberg(3)
    e5 = extraspecial_p5(3)
    heis5 = heisenberg(5)
    cases = [
        (heis3, heis3),
        (heis3, e5),
        (e5, heis3),
        (e5, e5),
        (heis5, heis5),
    ]
    problems = []
    for idx, (a, b) in enumerate(cases):
        ident = center_line_identification(a, b)
        res = central_product_identified(a, b, ident)
        if not center(res.group).center_equals_derived:
            problems.append(f"case {idx}: center")
            continue
        glued = res.embed_left.push_derived(ident.source_basis)
        if not epicentre_in_derived(res.group).contains(glued):
            problems.append(f"case {idx}: glued subspace escapes the epicentre")
    return CriterionResult(7, "identified_in_epicentre", not problems, "; ".join(problems))


def check_epicentre_cross_check() -> CriterionResult:
    """Criterion 8: quotient-enumeration consistency for six reference
    groups, two of them with Z(G) > G' on generators whose commutators are
    not a basis."""
    c3 = cyclic(3)
    c32 = elementary_abelian(3, 2)
    targets = [
        heisenberg(3),
        extraspecial_p5(3),
        amalgamated_coproduct(c3, c3, Identification(c3, c3, (), ())).group,
        amalgamated_coproduct(c32, c3, Identification(c32, c3, (), ())).group,
    ]
    for factor in (heisenberg(3), extraspecial_p5(3)):
        g = direct_product(factor, c3).group
        # y_k = x_1 + ... + x_k
        targets.append(rebase(g, np.triu(np.ones((g.n, g.n), dtype=np.int64))))
    problems = []
    for g in targets:
        outcome = epicentre_cross_check(g)
        if not outcome.passed:
            problems.append(f"{g.label or g!r}: {'; '.join(outcome.failures)}")
    return CriterionResult(8, "epicentre_cross_check", not problems, "; ".join(problems))


def check_cross_module_identity() -> CriterionResult:
    """Criterion 9: gluing two rank-2 free groups along their derived lines
    is entry-identical to the extraspecial builder."""
    heis = heisenberg(3)
    ident = center_line_identification(heis, heis)
    product = central_product_identified(heis, heis, ident).group
    expected = extraspecial_p5(3)
    ok = (
        product == expected
        and (product.p, product.n, product.m) == (expected.p, expected.n, expected.m)
        and product.c_items == expected.c_items
    )
    return CriterionResult(9, "cross_module_identity", ok, "presentations differ" if not ok else "")


def check_roundtrip() -> CriterionResult:
    """Criterion 10 (file half): parse(write(x)) = x for 100 random objects
    of each kind."""
    rng = random.Random(1010)
    problems = []
    for trial in range(100):
        p = 3 if trial % 2 == 0 else 5
        g = random_presentation(rng, p)
        if fileformats.parse_group_text(fileformats.format_group(g)) != g:
            problems.append(f"group trial {trial}")
            break
    for trial in range(100):
        p = 3 if trial % 2 == 0 else 5
        a = random_presentation(rng, p)
        b = random_presentation(rng, p)
        ident = random_identification(rng, a, b)
        back = fileformats.parse_identification_text(
            fileformats.format_identification(ident), a, b
        )
        if back != ident:
            problems.append(f"identification trial {trial}")
            break
    for trial in range(100):
        p = 3 if trial % 2 == 0 else 5
        dom = random_presentation(rng, p)
        cod = random_presentation(rng, p)
        images = [cod.random_element(rng) for _ in range(dom.n)]
        gmap = hom_from_images(dom, cod, images)
        back = fileformats.parse_generator_map_text(
            fileformats.format_generator_map(gmap), dom, cod
        )
        if back != gmap:
            problems.append(f"map trial {trial}")
            break
    return CriterionResult(10, "file_roundtrip", not problems, "; ".join(problems))


def run_all():
    return [
        check_group_axioms(),
        check_tensor_dimension_law(),
        check_capability_ground_truths(),
        check_amalgam_laws(),
        check_capable_embedding(),
        check_noncapable_embedding(),
        check_identified_in_epicentre(),
        check_epicentre_cross_check(),
        check_cross_module_identity(),
        check_roundtrip(),
    ]
