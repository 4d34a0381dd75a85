"""Desk-scale brute force against plain references: the decomposition
search against the pair-by-pair loop, and the element tables against the
element arithmetic."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilp2.capability import central_decomposition_search
from nilp2.constructions import extraspecial_p5, heisenberg
from nilp2.group_core import (
    _tables,
    commutator,
    cyclic,
    elementary_abelian,
    enumerate_subgroups,
    multiply,
)
from nilp2.products import Identification, amalgamated_coproduct, direct_product
from nilp2.selfcheck import rebase
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


def reference_search(group):
    """The decomposition search as a loop over pairs of subgroups: generator
    commutators, then the order equation, then containment.  Returns
    (status, subgroup count, left, right, overlap dimension)."""
    subs = enumerate_subgroups(group)
    t = _tables(group)
    total = group.order
    ordering = sorted(subs, key=lambda s: (-s.order,) + s.sort_key()[1:])
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
            if left.contains(right) or right.contains(left):
                continue
            overlap = left.derived_subspace().intersect(right.derived_subspace()).dim
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


# -- element tables ----------------------------------------------------------


def _assert_tables_match(group, pairs):
    t = _tables(group)
    for a, b in pairs:
        x, y = t.decode(a), t.decode(b)
        assert t.decode(int(t.mul[a, b])) == multiply(x, y)
        assert t.decode(int(t.comm[a, b])) == commutator(x, y)


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
