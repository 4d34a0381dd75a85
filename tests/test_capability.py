import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nilp2.capability import (
    _jacobi_entries,
    _triple_slots,
    capability_verdict,
    central_decomposition,
    central_decomposition_search,
    epicentre_in_derived,
    jacobi_subspace,
    rp_membership,
)
from nilp2.constructions import (
    build_capable_extension,
    build_noncapable_extension,
    extraspecial_p5,
    heisenberg,
)
from nilp2 import capability, fplinalg
from nilp2.errors import OrderExceedsCap, PreconditionCenterNotDerived, ResidueTooLarge, SpanDeficit
from nilp2.fileformats import format_group, parse_group_text
from nilp2.fplinalg import KernelEntries, Subspace, kernel_of_entries, rref
from nilp2.group_core import GroupPresentation, center, cyclic, elementary_abelian, from_kappa
from nilp2.oracles import epicentre_cross_check
from nilp2.products import Identification, amalgamated_coproduct, central_product_identified, direct_product
from nilp2.selfcheck import (
    _amalgam_battery,
    center_line_identification,
    expected_amalgam_epicentre,
    random_presentation,
    rebase,
)
from oracles import dense_epicentre, densify, jacobi_criterion, jacobi_matrix, jacobi_vector, radical_factor


# -- relation subspace ------------------------------------------------------------


def test_jacobi_no_triples():
    assert jacobi_subspace(heisenberg(3)).dim == 0


def test_jacobi_abelian():
    assert jacobi_subspace(elementary_abelian(3, 3)).dim == 0


def test_jacobi_extraspecial_is_full():
    e = extraspecial_p5(3)
    assert jacobi_subspace(e) == Subspace.full(3, 4)
    # the four expected generators, written in the (derived major) flattening
    expected = {
        (1, 2, 3): (0, 0, 2, 0),
        (1, 2, 4): (0, 0, 0, 2),
        (1, 3, 4): (2, 0, 0, 0),
        (2, 3, 4): (0, 2, 0, 0),
    }
    for triple, vec in expected.items():
        assert tuple(int(x) for x in jacobi_vector(e, *triple)) == vec


def test_jacobi_rows_are_the_relation_vectors():
    g = random_presentation(random.Random(5), 5, max_n=6)
    triples = itertools.combinations(range(1, g.n + 1), 3)
    vectors = [jacobi_vector(g, *triple) for triple in triples]
    assert jacobi_subspace(g) == Subspace(g.p, g.m * g.n, np.array(vectors).reshape(-1, g.m * g.n))


def _random_kappa(rng, p, n):
    """A presentation from a random (n, n, m) pairing array, m <= C(n, 2)."""
    m = int(rng.integers(0, n * (n - 1) // 2 + 1))
    while True:
        try:
            return from_kappa(p, rng.integers(0, p, (n, n, m)))
        except SpanDeficit:
            continue


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", range(10))
def test_one_jacobi_builder_at_every_small_rank(n, p):
    # Every (pair, third index) once, pairs j > i in the tril order of the
    # pairing rows and thirds increasing, each in the combinations row of
    # its triple; n < 3 has pairs but no triples.
    triple_row, c, inside = _triple_slots(n)
    assert triple_row.shape == c.shape == inside.shape == (n * (n - 1) // 2, max(n - 2, 0))
    j, i = np.tril_indices(n, -1)
    named = [(int(j[q]), int(i[q]), int(k)) for q in range(len(j)) for k in c[q]]
    assert named == [(b, a, k) for b in range(n) for a in range(b) for k in range(n) if k not in (a, b)]
    triples = list(itertools.combinations(range(n), 3))
    assert [triples[r] for r in triple_row.ravel()] == [tuple(sorted(t)) for t in named]
    assert inside.ravel().tolist() == [a < k < b for b, a, k in named]
    # The dense scatter of the entries is the oracle's J, and its row space
    # is jacobi_subspace.
    g = _random_kappa(np.random.default_rng(100 * n + p), p, n)
    jac = jacobi_matrix(g)
    rows, cols, vals = _jacobi_entries(n, p, g.pairs)
    built = np.zeros_like(jac)
    built[rows, cols] = vals
    assert np.array_equal(built, jac)
    assert jacobi_subspace(g) == Subspace(p, n * g.m, jac)


def test_jacobi_vanishes_on_repeats():
    for g in (extraspecial_p5(3), heisenberg(5)):
        for i, k in itertools.permutations(range(1, g.n + 1), 2):
            assert not np.any(jacobi_vector(g, i, i, k))
            assert not np.any(jacobi_vector(g, i, k, i))
            assert not np.any(jacobi_vector(g, k, i, i))


def test_jacobi_alternating():
    g = extraspecial_p5(3)
    for i, j, k in itertools.combinations(range(1, 5), 3):
        base = jacobi_vector(g, i, j, k)
        assert np.array_equal(jacobi_vector(g, j, k, i), base)
        assert np.array_equal(jacobi_vector(g, j, i, k), np.mod(-base, 3))


# -- epicentre ----------------------------------------------------------------------


def test_epicentre_heisenberg_trivial():
    assert epicentre_in_derived(heisenberg(3)).dim == 0
    assert epicentre_in_derived(heisenberg(5)).dim == 0


def test_epicentre_extraspecial_full():
    assert epicentre_in_derived(extraspecial_p5(3)) == Subspace.full(3, 1)


def test_epicentre_amalgam_of_free_groups():
    h = heisenberg(3)
    res = amalgamated_coproduct(h, h, center_line_identification(h, h))
    assert epicentre_in_derived(res.group).dim == 0


def test_epicentre_precondition():
    with pytest.raises(PreconditionCenterNotDerived):
        epicentre_in_derived(elementary_abelian(3, 2))


def test_amalgam_epicentre_matches_oracle():
    h, e = heisenberg(3), extraspecial_p5(3)
    cases = [
        (h, h, center_line_identification(h, h)),
        (h, e, center_line_identification(h, e)),
        (e, h, center_line_identification(e, h)),
        (e, e, center_line_identification(e, e)),
    ]
    for a, b, ident in cases:
        res = amalgamated_coproduct(a, b, ident)
        expected = expected_amalgam_epicentre(a, b, ident, res.embed_left, res.group)
        assert epicentre_in_derived(res.group) == expected


def test_amalgam_of_extraspecials_not_capable():
    e = extraspecial_p5(3)
    res = amalgamated_coproduct(e, e, center_line_identification(e, e))
    epi = epicentre_in_derived(res.group)
    assert epi.dim == 1
    assert epi == res.embed_left.push_derived([(1,)])


# -- sparse front end of the epicentre ------------------------------------------------


def _free_class2(p, n):
    """The relatively free group of rank n: one derived coordinate per pair."""
    below = np.tri(n, k=-1, dtype=bool)
    kap = np.zeros((n, n, n * (n - 1) // 2), dtype=np.int64)
    kap[below, np.arange(kap.shape[2])] = 1
    return from_kappa(p, kap)


def _extraspecial(p, half):
    """Extraspecial of order p^(2 half + 1): [x_2i, x_2i-1] = z."""
    kap = np.zeros((2 * half, 2 * half, 1), dtype=np.int64)
    kap[np.arange(1, 2 * half, 2), np.arange(0, 2 * half, 2), 0] = 1
    return from_kappa(p, kap)


def _dense(seed, p, n, m):
    g = _random_center_equals_derived(random.Random(seed), p, n, m)
    assert g is not None
    return g


def _check_front_end(g):
    """ker J from the pairing rows' nonzeros is a kernel of the oracle's Jacobi matrix
    of full dimension, and the epicentre is the dense procedure's."""
    h = radical_factor(g)
    p, width = h.p, h.n * h.m
    jac = jacobi_matrix(h)
    rows, cols, vals = _jacobi_entries(h.n, p, h.pairs)
    built = np.zeros_like(jac)
    built[rows, cols] = vals
    assert np.array_equal(built, jac)
    assert vals.min(initial=1) >= 1 and vals.max(initial=1) < p
    kernel = densify(kernel_of_entries(rows, cols, vals, jac.shape, p), width)
    # Exact in float64: every sum has at most nm terms below p^2.
    assert not np.mod(jac.astype(np.float64) @ kernel.T.astype(np.float64), p).any()
    assert len(rref(kernel, p)[1]) == kernel.shape[0] == width - len(rref(jac, p)[1])
    assert epicentre_in_derived(g) == dense_epicentre(g)


SPARSE_INPUTS = [
    build(base).output_group
    for build in (build_capable_extension, build_noncapable_extension)
    for base in (heisenberg(3), extraspecial_p5(5), elementary_abelian(7, 2), _free_class2(3, 4))
] + [_extraspecial(p, half) for p, half in ((3, 2), (3, 4), (5, 3), (7, 5))]


@pytest.mark.parametrize("index", range(len(SPARSE_INPUTS)))
def test_front_end_on_sparse_kappa(index):
    _check_front_end(SPARSE_INPUTS[index])


def test_row_rule_empties_the_jacobi_system_of_an_extraspecial_group(monkeypatch):
    # Extraspecial 3^13: no Jacobi column is a singleton, and only the 60
    # triples that hold one of the six pairs (x_2i-1, x_2i) have entries,
    # one each.  Each such row forces its column to zero, every column is
    # forced, and no residue is left: ker J is zero, and with it the whole
    # derived subgroup is the epicentre.
    g = _extraspecial(3, 6)
    rows, cols, vals = _jacobi_entries(g.n, g.p, g.pairs)
    assert rows.size == np.unique(rows).size == 60 and (np.bincount(cols) >= 2).all()
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", 0)
    kernel = kernel_of_entries(rows, cols, vals, (220, 12), 3)
    assert isinstance(kernel, KernelEntries) and kernel.dim == 0 and kernel.column.size == 0
    monkeypatch.undo()
    assert epicentre_in_derived(g) == dense_epicentre(g) == Subspace.full(3, 1)


@pytest.mark.parametrize("seed,p,n,m", [(0, 3, 6, 6), (1, 5, 7, 12), (2, 7, 8, 8), (3, 3, 9, 20), (4, 3, 5, 9)])
def test_front_end_on_dense_kappa(seed, p, n, m):
    g = _dense(seed, p, n, m)
    _check_front_end(g)
    # Nothing is peeled: the kernel is the null rows of J's reduced form,
    # vector for vector, as before the front end.
    rows, cols, vals = _jacobi_entries(g.n, g.p, g.pairs)
    jac = jacobi_matrix(g)
    kernel = densify(kernel_of_entries(rows, cols, vals, jac.shape, p), n * m)
    assert np.array_equal(kernel, Subspace(p, n * m, jac).complement_projection())


def test_dense_kappa_that_does_not_peel_fits_the_budget_of_its_dense_null_rows(monkeypatch):
    # Dense kappa, n = 7 and m = 12 at p = 5: J is 35 x 84, no column or row
    # of it has one entry, and it is eliminated whole.  As dense null rows
    # its kernel is 49 x 84 = 4,116 cells, and the whole J 2,940.  With the
    # limit at exactly those 4,116 cells the kernel's entries, the stacked
    # system of at most 7 * 49 rows over 12 columns and the epicentre's
    # basis all fit: the group is answered, and the answer is the unpatched
    # one.
    g = _dense(1, 5, 7, 12)
    jac = jacobi_matrix(g)
    dim = jac.shape[1] - len(rref(jac, 5)[1])
    assert jac.shape == (35, 84) and dim == 49
    epicentre = epicentre_in_derived(g)
    shapes = []
    original = fplinalg.rref
    monkeypatch.setattr(fplinalg, "rref", lambda a, p: shapes.append(np.shape(a)) or original(a, p))
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", dim * jac.shape[1])
    assert epicentre_in_derived(g) == epicentre
    assert (35, 84) in shapes  # J's residue: nothing peeled


@pytest.mark.parametrize("seed,p,n,m", [(5, 3, 6, 6), (6, 5, 5, 4)])
def test_front_end_on_mixed_kappa(seed, p, n, m):
    dense = _dense(seed, p, n, m)
    for sparse in (build_noncapable_extension(heisenberg(p)).output_group, build_capable_extension(extraspecial_p5(p)).output_group):
        _check_front_end(direct_product(dense, sparse).group)
        _check_front_end(central_product_identified(dense, sparse, center_line_identification(dense, sparse)).group)


@pytest.mark.parametrize("build", [build_capable_extension, build_noncapable_extension])
def test_front_end_on_the_constructions_over_a_rank_12_free_group(build):
    report = build(_free_class2(3, 12))
    g = report.output_group
    assert (g.n, g.m) == {"capable": (14, 90), "noncapable": (18, 122)}[report.mode]
    _check_front_end(g)


@pytest.mark.parametrize("build", [build_capable_extension, build_noncapable_extension])
def test_epicentre_of_a_construction_fits_twice_the_nonzeros_of_j(monkeypatch, build):
    # ker J is 896 x 1,260 (capable) or 1,380 x 2,196 (noncapable) as a dense
    # array.  It comes back as entries, and with the limit at twice J's 1,092
    # or 2,000 nonzeros the residues, the gathers and the stacked system's
    # basis all pass their checks.
    g = build(_free_class2(3, 12)).output_group
    epicentre = epicentre_in_derived(g)
    nonzeros = _jacobi_entries(g.n, g.p, g.pairs)[0].size
    kernel = kernel_of_entries(*_jacobi_entries(g.n, g.p, g.pairs), (math.comb(g.n, 3), g.n * g.m), 3)
    assert isinstance(kernel, KernelEntries) and kernel.dim * g.n * g.m > 400 * nonzeros
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", 2 * nonzeros)
    assert epicentre_in_derived(g) == epicentre


def test_derived_coordinates_change_only_where_the_rows_cannot_get_denser(monkeypatch):
    # The change of derived coordinates is epicentre_in_derived's only
    # elimination of its own: one rref of the m x C(n, 2) rows transposed.
    # It runs on a rebased free group, on a top ladder rung and on a
    # noncapable output moved by a dense change of derived coordinates,
    # whose rows are dense, and not on rows that are already unit vectors or
    # nearly so.  The moved output's epicentre is a line, so it is mapped
    # back.
    free = _free_class2(3, 8)
    rebased = rebase(free, _random_invertible(random.Random(0), 3, 8))
    rung = _dense(7, 3, 8, 27)
    outputs = [build(free).output_group for build in (build_capable_extension, build_noncapable_extension)]
    q = _random_invertible(random.Random(1), 3, outputs[1].m)
    moved = GroupPresentation(3, outputs[1].n, outputs[1].m, np.mod(outputs[1].pairs @ q, 3))
    line = epicentre_in_derived(outputs[1])
    assert line.dim == 1
    calls = []

    def counting(a, p):
        calls.append(a.shape)
        return rref(a, p)

    monkeypatch.setattr(capability, "rref", counting)
    for g, fires in [(rebased, True), (rung, True), (moved, True), (free, False)] + [(out, False) for out in outputs]:
        calls.clear()
        epicentre = epicentre_in_derived(g)
        assert calls == ([(g.m, math.comb(g.n, 2))] if fires else [])
        assert epicentre == dense_epicentre(g)
    assert epicentre_in_derived(rebased) == epicentre_in_derived(free) == Subspace.zero(3, 28)
    assert epicentre_in_derived(moved) == Subspace(3, moved.m, np.mod(line.basis @ q, 3))


# -- invariance under a change of generators --------------------------------------


def _random_center_equals_derived(rng, p, n, m):
    """A random presentation with Z(G) = G', or None after 50 draws."""
    pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
    for _ in range(50):
        c = {pair: tuple(rng.randrange(p) for _ in range(m)) for pair in pairs}
        try:
            g = GroupPresentation(p, n, m, c)
        except SpanDeficit:
            continue
        if center(g).center_equals_derived:
            return g
    return None


def _random_invertible(rng, p, n):
    while True:
        a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if len(rref(a, p)[1]) == n:
            return a


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8), p=st.sampled_from([3, 5]), data=st.data())
def test_epicentre_and_verdict_invariant_under_change_of_generators(seed, n, p, data):
    # Derived dimensions up to 2n give a mix of capable and non-capable groups.
    m = data.draw(st.integers(1, min(n * (n - 1) // 2, 2 * n)), label="m")
    rng = random.Random(seed)
    g = _random_center_equals_derived(rng, p, n, m)
    assume(g is not None)
    h = rebase(g, _random_invertible(rng, p, n))
    assert center(h).center_equals_derived
    assert epicentre_in_derived(h).dim == epicentre_in_derived(g).dim
    assert capability_verdict(h).status == capability_verdict(g).status
    # J is linear in the derived coordinates: with the rows pairs Q, the
    # epicentre is the original's times Q.
    q = _random_invertible(rng, p, m)
    k = GroupPresentation(p, n, m, np.mod(g.pairs @ q, p))
    assert epicentre_in_derived(k) == Subspace(p, m, np.mod(epicentre_in_derived(g).basis @ q, p))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 6),
    r=st.integers(1, 2),
    p=st.sampled_from([3, 5]),
    data=st.data(),
)
def test_direct_factor_cp_r_keeps_status_and_epicentre(seed, n, r, p, data):
    # G = H x C_p^r on random generators has the derived coordinates of H,
    # so its epicentre must be H's, basis for basis.
    m = data.draw(st.integers(1, min(n * (n - 1) // 2, 2 * n)), label="m")
    rng = random.Random(seed)
    h = _random_center_equals_derived(rng, p, n, m)
    assume(h is not None)
    g = rebase(direct_product(h, elementary_abelian(p, r)).group, _random_invertible(rng, p, n + r))
    assert center(g).radical.dim == r
    assert epicentre_in_derived(g) == epicentre_in_derived(h)
    vg, vh = capability_verdict(g), capability_verdict(h)
    assert (vg.status, vg.method, vg.evidence) == (vh.status, vh.method, vh.evidence)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 3), p=st.sampled_from([3, 5]))
def test_jacobi_criterion_on_the_unsplit_group_is_the_epicentre(seed, r, p):
    # The span of J does not depend on the generators, and in a basis
    # adapted to V = V_H + R it is H's plus G' (x) R: the radical split
    # saves work and changes no answer.
    rng = random.Random(seed)
    h = random_presentation(rng, p, max_n=5)
    assume(not h.is_abelian)
    g = rebase(direct_product(h, elementary_abelian(p, r)).group, _random_invertible(rng, p, h.n + r))
    assert center(g).radical.dim >= r
    assert jacobi_criterion(g) == epicentre_in_derived(g)


def test_radical_factor_is_read_from_the_pairing_rows(monkeypatch):
    # H is a selection of G's pairing rows: with the centre computed, the
    # epicentre of G = E x C_3^2 on a non-basis builds no presentation, and
    # equals the epicentre of H built as a presentation of its own.
    g = direct_product(extraspecial_p5(3), elementary_abelian(3, 2)).group
    g = rebase(g, np.triu(np.ones((6, 6), dtype=np.int64)))
    assert center(g).radical.dim == 2
    built = []
    init = GroupPresentation.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupPresentation, "__init__", counting)
    epicentre = epicentre_in_derived(g)
    monkeypatch.undo()
    assert built == []
    assert epicentre == epicentre_in_derived(radical_factor(g)) == Subspace.full(3, 1)


# -- named criteria -------------------------------------------------------------------


def test_verdict_abelian_rule():
    v = capability_verdict(cyclic(3))
    assert (v.status, v.method) == ("not_capable", "baer_abelian")
    v = capability_verdict(elementary_abelian(3, 2))
    assert (v.status, v.method) == ("capable", "baer_abelian")
    v = capability_verdict(elementary_abelian(5, 3))
    assert v.status == "capable"


def test_trivial_group_is_capable_and_agrees_with_the_epicentre():
    # Baer: an elementary abelian group is capable unless cyclic of order p.
    g = elementary_abelian(3, 0)
    v = capability_verdict(g)
    assert (v.status, v.method) == ("capable", "baer_abelian")
    assert epicentre_in_derived(g).dim == 0


def test_verdict_extraspecial_two_methods_agree():
    e = extraspecial_p5(3)
    v = capability_verdict(e)
    assert (v.status, v.method) == ("not_capable", "epicentre_nontrivial")
    search = central_decomposition_search(e)
    assert search.witness is not None
    assert search.witness.derived_overlap_dim >= 1


def test_verdict_for_direct_product_with_cyclic():
    # center exceeds the derived subgroup; the epicentre is H3's, trivial
    g = direct_product(heisenberg(3), cyclic(3)).group
    assert not center(g).center_equals_derived
    v = capability_verdict(g)
    assert (v.status, v.method) == ("capable", "epicentre_trivial")
    assert v.evidence == {"epicentre_dim": 0, "epicentre_basis": ()}


def test_verdict_for_extraspecial_times_cyclic_on_a_non_basis():
    # order 3^6, above every enumeration cap, and its stored commutators
    # are not a basis of the derived space
    g = direct_product(extraspecial_p5(3), cyclic(3)).group
    g = rebase(g, np.triu(np.ones((5, 5), dtype=np.int64)))
    assert len(g.c_items) > g.m
    assert epicentre_in_derived(g) == Subspace.full(3, 1)
    v = capability_verdict(g)
    assert (v.status, v.method) == ("not_capable", "epicentre_nontrivial")
    assert epicentre_cross_check(g).passed


def test_basis_criterion_agrees_with_verdict():
    rng = random.Random(41)
    for _ in range(40):
        g = random_presentation(rng, 3)
        # The stored commutators always span, so they form a basis exactly
        # when there are m of them; then G is capable.
        if g.m and len(g.c_items) == g.m:
            assert capability_verdict(g).status == "capable"


def test_epicentre_zero_iff_capable():
    h, e = heisenberg(3), extraspecial_p5(3)
    groups = [
        h,
        e,
        heisenberg(5),
        amalgamated_coproduct(h, h, center_line_identification(h, h)).group,
        amalgamated_coproduct(e, e, center_line_identification(e, e)).group,
    ]
    for g in groups:
        assert center(g).center_equals_derived
        v = capability_verdict(g)
        assert (epicentre_in_derived(g).dim == 0) == (v.status == "capable")


# -- restricted-class membership -------------------------------------------------------


def test_rp_heisenberg_fails_relation():
    v = rp_membership(heisenberg(3))
    assert v.status == "non_member"
    assert "commutators_linearly_independent" in v.reasons


def test_rp_extraspecial_decomposes():
    v = rp_membership(extraspecial_p5(3))
    assert v.status == "non_member"
    assert any(r.startswith("central_decomposition_found") for r in v.reasons)


def test_rp_constructed_extension():
    rep = build_capable_extension(cyclic(3))
    v = rp_membership(rep.output_group)
    assert v.status == "member"
    assert "center_equals_derived" in v.reasons
    assert any(r.startswith("commutator_relation_exists(6>5)") for r in v.reasons)
    assert v.reasons[-1] == "no_central_decomposition_found"


def test_rp_small_member_verified_by_search():
    # The empty amalgam C3^2 * C3 has n = 3 and m = 2 < C(3, 2): its one
    # zero commutator [x2, x1] is the forced relation.  Every nonzero
    # element of the exterior square of F_3^3 is decomposable, so all
    # presentations with n = 3 and m = 2 are this one group.
    a, b = elementary_abelian(3, 2), cyclic(3)
    g = amalgamated_coproduct(a, b, Identification(a, b, (), ())).group
    assert rp_membership(g).status == "member"
    # The same group on other generators, with Z(G) = G' and Sym(kappa) of
    # dimension 1: a member, which the exhaustive search confirms.
    g = GroupPresentation(3, 3, 2, {(2, 1): (1, 0), (3, 1): (0, 1), (3, 2): (1, 1)})
    assert rp_membership(g).status == "member"
    assert central_decomposition_search(g).status == "none"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([3, 5]))
def test_rp_and_decomposition_invariant_under_change_of_generators(seed, p):
    rng = random.Random(seed)
    g = random_presentation(rng, p, max_n=5)
    h = rebase(g, _random_invertible(rng, p, g.n))
    vg, vh = rp_membership(g), rp_membership(h)
    assert (vh.status, vh.reasons) == (vg.status, vg.reasons)
    dg, dh = central_decomposition(g), central_decomposition(h)
    assert (dh.status, dh.left_order, dh.right_order, dh.sym_dim) == (
        dg.status, dg.left_order, dg.right_order, dg.sym_dim
    )


def test_rp_member_decided_by_sym_on_an_amalgam_of_order_3_25():
    # Order 3^25, far above the search's cap: Sym(kappa) decides it, and the
    # same presentation re-read from its file gets the same answer.
    e = extraspecial_p5(3)
    g = amalgamated_coproduct(e, e, center_line_identification(e, e)).group
    v = rp_membership(g)
    assert v.status == "member"
    assert v.reasons[-1] == "no_central_decomposition_found"
    assert rp_membership(parse_group_text(format_group(g))) == v


def test_criterion_4_amalgams_have_one_dimensional_sym():
    for a, b, ident in _amalgam_battery():
        g = amalgamated_coproduct(a, b, ident).group
        assert central_decomposition(g).sym_dim == 1


# -- decomposition search ----------------------------------------------------------------


def test_search_elementary_abelian():
    search = central_decomposition_search(elementary_abelian(3, 2))
    assert search.status == "witness"
    assert search.witness.left.order == 3
    assert search.witness.right.order == 3
    assert search.witness.derived_overlap_dim == 0


def test_search_heisenberg_none():
    search = central_decomposition_search(heisenberg(3))
    assert search.status == "none"
    assert search.subgroup_count == 19


def test_search_extraspecial_witness():
    search = central_decomposition_search(extraspecial_p5(3))
    assert search.status == "witness"
    w = search.witness
    assert (w.left.order, w.right.order) == (27, 27)
    assert w.derived_overlap_dim == 1
    # witness factors really commute and cover the group
    meet = w.left.element_indices & w.right.element_indices
    assert w.left.order * w.right.order == extraspecial_p5(3).order * len(meet)


def test_search_exceeds_cap():
    e = extraspecial_p5(3)
    res = amalgamated_coproduct(e, e, center_line_identification(e, e))
    with pytest.raises(OrderExceedsCap):
        central_decomposition_search(res.group)


def test_search_none_for_small_amalgams():
    c3 = cyclic(3)
    c32 = elementary_abelian(3, 2)
    for a, b in [(c3, c3), (c32, c3)]:
        g = amalgamated_coproduct(a, b, Identification(a, b, (), ())).group
        assert central_decomposition_search(g).status == "none"


# -- glued central products --------------------------------------------------------------


def test_identified_subspace_inside_epicentre():
    h, e = heisenberg(3), extraspecial_p5(3)
    for a, b in [(h, h), (h, e), (e, e)]:
        ident = center_line_identification(a, b)
        res = central_product_identified(a, b, ident)
        glued = res.embed_left.push_derived(ident.source_basis)
        assert epicentre_in_derived(res.group).contains(glued)


# -- cross-check oracle ------------------------------------------------------------------


def test_cross_check_heisenberg():
    outcome = epicentre_cross_check(heisenberg(3))
    assert outcome.passed
    assert outcome.epicentre_dim == 0


def test_cross_check_extraspecial():
    outcome = epicentre_cross_check(extraspecial_p5(3))
    assert outcome.passed
    assert outcome.epicentre_dim == 1


def test_cross_check_amalgam():
    c32, c3 = elementary_abelian(3, 2), cyclic(3)
    g = amalgamated_coproduct(c32, c3, Identification(c32, c3, (), ())).group
    outcome = epicentre_cross_check(g)
    assert outcome.passed
    assert outcome.quotients_checked >= 2


def test_cross_check_precondition():
    with pytest.raises(PreconditionCenterNotDerived):
        epicentre_cross_check(elementary_abelian(3, 2))
