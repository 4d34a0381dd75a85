"""Desk-scale brute force against plain references: the subgroup
enumeration against coset growth, the decomposition search against the
pair-by-pair loop, central decompositions from Sym(kappa) against the
search, Sym(kappa)'s basis against its direct linear system, and the
element tables against the element arithmetic."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nilp2.capability import _sym_basis, central_decomposition, central_decomposition_search
from nilp2.constructions import extraspecial_p5, heisenberg
from nilp2.errors import SpanDeficit
from nilp2.fplinalg import Subspace, kernel_basis
from nilp2.group_core import (
    GroupPresentation,
    _kappa,
    _tables,
    center,
    commutator,
    cyclic,
    elementary_abelian,
    enumerate_subgroups,
    multiply,
)
from nilp2.products import Identification, amalgamated_coproduct, central_product_identified, direct_product
from nilp2.selfcheck import rebase
from oracles import decode, reference_subgroups
from test_capability import _random_invertible


def _name(group):
    return group.label or f"p{group.p}n{group.n}m{group.m}"


def _amalgam():
    a, b = elementary_abelian(3, 2), cyclic(3)
    return amalgamated_coproduct(a, b, Identification(a, b, (), ())).group


H3 = heisenberg(3)
H3_C3 = direct_product(H3, cyclic(3)).group
H3_C3_2 = direct_product(H3, elementary_abelian(3, 2)).group
E5 = extraspecial_p5(3)
AMALGAM = _amalgam()

SEARCH_GROUPS = (
    [elementary_abelian(3, k) for k in range(1, 5)]
    + [elementary_abelian(5, k) for k in range(1, 4)]
    + [H3, heisenberg(5), E5, H3_C3, H3_C3_2, AMALGAM]
)


# -- subgroup enumeration -----------------------------------------------------


def _assert_same_subgroups(group):
    got = enumerate_subgroups(group)
    assert [s.element_indices for s in got] == [s.element_indices for s in reference_subgroups(group)]
    return got


@pytest.mark.parametrize("group", SEARCH_GROUPS, ids=_name)
def test_enumeration_matches_coset_growth(group):
    _assert_same_subgroups(group)


@settings(max_examples=20, deadline=None)
@given(group=st.sampled_from(SEARCH_GROUPS), seed=st.integers(0, 2**32 - 1))
def test_enumeration_matches_coset_growth_on_rebased_presentations(group, seed):
    rng = random.Random(seed)
    _assert_same_subgroups(rebase(group, _random_invertible(rng, group.p, group.n)))


@st.composite
def desk_presentations(draw):
    """Presentations of order at most 243 with p in {3, 5}; with
    ``central``, a direct factor C_p makes Z(G) exceed G'."""
    p = draw(st.sampled_from([3, 5]))
    top = 5 if p == 3 else 3
    central = draw(st.booleans())
    n = draw(st.integers(1, top - central))
    m = draw(st.integers(0, min(n * (n - 1) // 2, top - central - n)))
    pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
    c = {pair: draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)) for pair in pairs}
    try:
        group = GroupPresentation(p, n, m, c)
    except SpanDeficit:
        assume(False)
    return direct_product(group, cyclic(p)).group if central else group


@settings(max_examples=40, deadline=None)
@given(group=desk_presentations())
def test_enumeration_matches_coset_growth_on_random_presentations(group):
    assert group.order <= 243
    _assert_same_subgroups(group)


def _closure(t, gens):
    seen = np.zeros(t.size, dtype=bool)
    seen[t.identity] = True
    frontier = np.array([t.identity])
    while frontier.size:
        reached = t.mul[frontier][:, list(gens)].ravel()
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    return frozenset(np.flatnonzero(seen).tolist())


@pytest.mark.parametrize("group", SEARCH_GROUPS, ids=_name)
def test_generators_close_to_the_element_set(group):
    t = _tables(group)
    for sub in enumerate_subgroups(group):
        assert _closure(t, sub.generator_indices) == sub.element_indices


def _gaussian_sum(p, k):
    """Number of subspaces of F_p^k."""
    total = 0
    for d in range(k + 1):
        num = den = 1
        for i in range(d):
            num *= p ** (k - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


@pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 1), (5, 2), (5, 3)])
def test_subgroup_count_of_elementary_abelian(p, k):
    assert len(enumerate_subgroups(elementary_abelian(p, k))) == _gaussian_sum(p, k)


@pytest.mark.parametrize("p", [3, 5])
def test_subgroup_count_of_heisenberg(p):
    rng = random.Random(p)
    for g in (heisenberg(p), rebase(heisenberg(p), _random_invertible(rng, p, 2))):
        assert len(enumerate_subgroups(g)) == p * p + 2 * p + 4


# -- decomposition search -------------------------------------------------------


def _derived_span(group, sub):
    """The span of the commutators of a subgroup's generators."""
    gens = decode(group, sub.generator_indices)
    return Subspace(group.p, group.m, [commutator(g, h).w for g in gens for h in gens])


def reference_search(group):
    """The decomposition search as a loop over pairs of subgroups: generator
    commutators, then the order equation, then containment.  Returns
    (status, subgroup count, left, right, overlap dimension)."""
    subs = enumerate_subgroups(group)
    t = _tables(group)
    total = group.order
    ordering = sorted(subs, key=lambda s: (-s.order, tuple(sorted(s.element_indices))))
    for ci, left in enumerate(ordering):
        if left.order * left.order < total:
            break
        for right in ordering[ci + 1 :]:
            if left.order * right.order < total:
                break
            if any(
                int(t.comm[g, h]) != t.identity
                for g in left.generator_indices
                for h in right.generator_indices
            ):
                continue
            meet = len(left.element_indices & right.element_indices)
            if left.order * right.order != total * meet:
                continue
            if right.element_indices <= left.element_indices or left.element_indices <= right.element_indices:
                continue
            overlap = _derived_span(group, left).intersect(_derived_span(group, right)).dim
            return ("witness", len(subs), left, right, overlap)
    return ("none", len(subs), None, None, None)


def _assert_same_search(group):
    status, count, left, right, overlap = reference_search(group)
    got = central_decomposition_search(group)
    assert got.status == status
    assert got.subgroup_count == count
    if status == "none":
        assert got.witness is None
        return
    w = got.witness
    assert w.derived_overlap_dim == overlap
    for mine, theirs in ((w.left, left), (w.right, right)):
        assert mine.element_indices == theirs.element_indices
        assert mine.generator_indices == theirs.generator_indices


@pytest.mark.parametrize("group", SEARCH_GROUPS, ids=_name)
def test_search_matches_pair_loop(group):
    _assert_same_search(group)


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(SEARCH_GROUPS), seed=st.integers(0, 2**32 - 1))
def test_search_matches_pair_loop_on_rebased_presentations(group, seed):
    rng = random.Random(seed)
    _assert_same_search(rebase(group, _random_invertible(rng, group.p, group.n)))


@settings(max_examples=40, deadline=None)
@given(group=desk_presentations())
def test_search_matches_pair_loop_on_random_presentations(group):
    assert group.order <= 243
    _assert_same_search(group)


# -- central decompositions from Sym(kappa) ---------------------------------------


def _assert_witness(group, got):
    """kappa(U, W) = 0, U + W = V, neither contains the other, and the
    orders are those of the preimages."""
    u, w = got.left, got.right
    assert not _kappa(group, u.basis, w.basis).any()
    assert Subspace(group.p, group.n, np.concatenate([u.basis, w.basis])) == Subspace.full(group.p, group.n)
    assert not u.contains(w) and not w.contains(u)
    assert (got.left_order, got.right_order) == (group.p ** (u.dim + group.m), group.p ** (w.dim + group.m))


def _assert_matches_search(group):
    got = central_decomposition(group)
    search = central_decomposition_search(group)
    assert got.status == {"witness": "found", "none": "none"}[search.status]
    assert got.limit is None
    if search.witness is not None:
        w = search.witness
        assert (got.left_order, got.right_order) == (w.left.order, w.right.order)
        assert got.derived_overlap_dim == w.derived_overlap_dim
        _assert_witness(group, got)
    return got


@pytest.mark.parametrize("group", SEARCH_GROUPS, ids=_name)
def test_sym_decomposition_matches_search(group):
    _assert_matches_search(group)


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(SEARCH_GROUPS), seed=st.integers(0, 2**32 - 1))
def test_sym_decomposition_matches_search_on_rebased_presentations(group, seed):
    rng = random.Random(seed)
    got = _assert_matches_search(rebase(group, _random_invertible(rng, group.p, group.n)))
    assert got.sym_dim == central_decomposition(group).sym_dim


@settings(max_examples=40, deadline=None)
@given(group=desk_presentations(), seed=st.integers(0, 2**32 - 1))
def test_sym_decomposition_matches_search_on_random_presentations(group, seed):
    got = _assert_matches_search(group)
    rng = random.Random(seed)
    again = _assert_matches_search(rebase(group, _random_invertible(rng, group.p, group.n)))
    assert again.sym_dim == got.sym_dim


def _direct_sym(group):
    """Sym(kappa) from the n^2-unknown system F^T K_t - K_t F = 0, as a
    subspace of the flattened n x n matrices."""
    p, n, kap = group.p, group.n, group.kappa_table()
    eye = np.eye(n, dtype=np.int64)
    # system[c, d, a, b, t]: the (a, b, t) entry for the unknown F[c, d].
    system = np.einsum("da,cbt->cdabt", eye, kap) - np.einsum("act,db->cdabt", kap, eye)
    return Subspace(p, n * n, kernel_basis(np.mod(system.reshape(n * n, -1).T, p), p))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([3, 5, 7]))
def test_sym_basis_spans_the_direct_system(seed, p):
    # Few derived coordinates leave room for dim Sym well above 1.
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, 6)
        m = rng.randint(1, min(3, n * (n - 1) // 2))
        pairs = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(n * (n - 1) // 2)])
        try:
            group = GroupPresentation(p, n, m, pairs)
        except SpanDeficit:
            continue
        if center(group).center_equals_derived:
            break
    for g in (group, rebase(group, _random_invertible(rng, p, n))):
        basis = _sym_basis(g)
        assert Subspace(p, n * n, basis.reshape(len(basis), n * n)) == _direct_sym(g)


def _free_rank3(p):
    return GroupPresentation(p, 3, 3, {(2, 1): (1, 0, 0), (3, 1): (0, 1, 0), (3, 2): (0, 0, 1)})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([3, 5]))
def test_sym_dimension_is_invariant_under_rebase_beyond_the_cap(seed, p):
    # Central products of two or three random factors with Z(G) = G', glued
    # along a derived line: orders far above the search's cap.
    rng = random.Random(seed)
    factors = [heisenberg(p), extraspecial_p5(p), _free_rank3(p)]
    group = rng.choice(factors)
    for _ in range(rng.randint(1, 2)):
        other = rng.choice(factors)
        ident = Identification(group, other, ((1,) + (0,) * (group.m - 1),), ((1,) + (0,) * (other.m - 1),))
        group = central_product_identified(group, other, ident).group
    rebased = rebase(group, _random_invertible(rng, p, group.n))
    got, again = central_decomposition(group), central_decomposition(rebased)
    assert again.sym_dim == got.sym_dim > 1
    assert again.status == got.status
    if got.status == "found":
        assert (again.left_order, again.right_order) == (got.left_order, got.right_order)
        _assert_witness(group, got)
        _assert_witness(rebased, again)


def test_sym_witness_is_the_idempotent_of_largest_rank():
    # H3 glued to the free rank-3 group along a derived line: Sym(kappa) has
    # idempotents of ranks 2 and 3, and the witness takes rank 3.
    h, f = heisenberg(3), _free_rank3(3)
    group = central_product_identified(h, f, Identification(h, f, ((1,),), ((1, 0, 0),))).group
    got = central_decomposition(group)
    assert (got.status, got.left.dim, got.right.dim) == ("found", 3, 2)
    assert (got.left_order, got.right_order, got.derived_overlap_dim) == (3**6, 3**5, 1)
    _assert_witness(group, got)


def test_sym_enumeration_limit_is_named():
    # The extraspecial group of order 3^7: dim Sym(kappa) = 15, so its
    # 3^15 elements are not enumerated.
    group = GroupPresentation(3, 6, 1, {(2 * k + 2, 2 * k + 1): (1,) for k in range(3)})
    got = central_decomposition(group)
    assert (got.status, got.sym_dim, got.limit) == ("undetermined", 15, "sym_enumeration")


# -- element tables ----------------------------------------------------------


def _assert_tables_match(group, pairs):
    t = _tables(group)
    elements = decode(group, range(group.order))
    for a, b in pairs:
        x, y = elements[a], elements[b]
        assert elements[t.mul[a, b]] == multiply(x, y)
        assert elements[t.comm[a, b]] == commutator(x, y)


SMALL = [
    cyclic(3),
    elementary_abelian(3, 2),
    elementary_abelian(3, 3),
    elementary_abelian(3, 4),
    elementary_abelian(5, 2),
    H3,
    H3_C3,
    rebase(H3_C3, np.array([[1, 1, 0], [0, 1, 2], [1, 0, 2]])),
]


@pytest.mark.parametrize("group", SMALL, ids=_name)
def test_tables_match_arithmetic_on_every_pair(group):
    assert group.order <= 81
    size = group.order
    _assert_tables_match(group, ((a, b) for a in range(size) for b in range(size)))


@pytest.mark.parametrize("group", [AMALGAM, E5, H3_C3_2], ids=_name)
def test_tables_match_arithmetic_on_rebased_order_243(group):
    rng = random.Random(group.n * 1000 + group.m)
    g = rebase(group, _random_invertible(rng, group.p, group.n))
    assert g.order == 243
    _assert_tables_match(g, [(rng.randrange(243), rng.randrange(243)) for _ in range(2000)])
