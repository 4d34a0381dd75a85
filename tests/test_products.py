import random

import numpy as np
import pytest

from nilp2.constructions import extraspecial_p5, heisenberg
from nilp2.errors import InvalidIdentification, PresentationMismatch, TrivialFactor
from nilp2.group_core import (
    GroupPresentation,
    center,
    cyclic,
    elementary_abelian,
    hom_from_images,
    is_monomorphism,
)
from nilp2.products import (
    Identification,
    amalgamated_coproduct,
    central_product_identified,
    direct_product,
    nilpotent2_product,
)
from nilp2.selfcheck import random_identification, random_presentation
from oracles import assert_same_map, compose, reference_product


def centers(a, b):
    return Identification(a, b, ((1,) + (0,) * (a.m - 1),), ((1,) + (0,) * (b.m - 1),))


def empty(a, b):
    return Identification(a, b, (), ())


def _derived_image(f):
    return f.push_derived(np.eye(f.domain.m, dtype=np.int64))


# -- direct product -------------------------------------------------------------


def test_direct_product_abelian():
    res = direct_product(cyclic(3), cyclic(3))
    assert (res.group.n, res.group.m) == (2, 0)


def test_direct_product_with_cyclic():
    res = direct_product(heisenberg(3), cyclic(3))
    assert (res.group.n, res.group.m) == (3, 1)
    assert res.group.c == {(2, 1): (1,)}


def test_direct_product_blocks():
    res = direct_product(heisenberg(3), heisenberg(3))
    assert (res.group.n, res.group.m) == (4, 2)
    assert res.group.c == {(2, 1): (1, 0), (4, 3): (0, 1)}


def test_direct_product_prime_mismatch():
    with pytest.raises(PresentationMismatch):
        direct_product(cyclic(3), cyclic(5))


def test_identification_refuses_mixed_moduli():
    # The target rows (1, 3) and (2, 1) are dependent mod 5 (det = -5), and
    # were once tested mod the source's prime 3 only.
    c = {(2, 1): (1, 0), (3, 1): (0, 1)}
    a, b = GroupPresentation(3, 3, 2, c), GroupPresentation(5, 3, 2, c)
    with pytest.raises(PresentationMismatch):
        Identification(a, b, ((1, 0), (0, 1)), ((1, 3), (2, 1)))
    with pytest.raises(PresentationMismatch):
        Identification(a, b, (), ())


# -- 2-nilpotent product ---------------------------------------------------------


def test_nilpotent2_of_cyclics_is_rank2_free():
    res = nilpotent2_product(cyclic(3), cyclic(3))
    assert res.group == heisenberg(3)


def test_nilpotent2_dimensions():
    res = nilpotent2_product(elementary_abelian(3, 2), cyclic(3))
    assert (res.group.n, res.group.m) == (3, 2)
    assert res.group.order == 3**5

    res = nilpotent2_product(heisenberg(3), cyclic(3))
    assert (res.group.n, res.group.m) == (3, 3)
    assert res.group.order == 3**6


def test_nilpotent2_dimension_law_random():
    rng = random.Random(31)
    for _ in range(20):
        p = rng.choice([3, 5])
        a = random_presentation(rng, p)
        b = random_presentation(rng, p)
        res = nilpotent2_product(a, b)
        assert res.group.m - a.m - b.m == a.n * b.n
        assert is_monomorphism(res.embed_left).status == "mono"
        assert is_monomorphism(res.embed_right).status == "mono"


def test_nilpotent2_swap_is_isomorphic():
    a, b = heisenberg(3), elementary_abelian(3, 2)
    ab = nilpotent2_product(a, b).group
    ba = nilpotent2_product(b, a).group
    assert (ab.n, ab.m) == (ba.n, ba.m)
    # the generator swap extends to an isomorphism
    images = [ba.generator(b.n + i) for i in range(1, a.n + 1)] + [
        ba.generator(i) for i in range(1, b.n + 1)
    ]
    f = hom_from_images(ab, ba, images)
    assert f.consistent
    assert is_monomorphism(f).status == "mono"


# -- central product --------------------------------------------------------------


def test_central_product_of_free_groups_is_extraspecial():
    res = central_product_identified(heisenberg(3), heisenberg(3), centers(heisenberg(3), heisenberg(3)))
    assert res.group == extraspecial_p5(3)
    assert res.group.c_items == extraspecial_p5(3).c_items


def test_central_product_empty_identification_is_direct():
    a, b = heisenberg(3), heisenberg(3)
    assert central_product_identified(a, b, empty(a, b)).group == direct_product(a, b).group


def test_central_product_identification_needs_derived_vectors():
    a, b = heisenberg(3), elementary_abelian(3, 2)
    with pytest.raises(InvalidIdentification):
        Identification(a, b, ((1,),), ((0, 0),))  # dependent (zero) target


def test_identification_validation():
    a = heisenberg(3)
    with pytest.raises(InvalidIdentification):
        Identification(a, a, ((1,),), ())  # length mismatch
    e = extraspecial_p5(3)
    with pytest.raises(InvalidIdentification):
        Identification(e, e, ((1,), (2,)), ((1,), (1,)))  # dependent source
    with pytest.raises(InvalidIdentification):
        Identification(a, a, ((1, 0),), ((1,),))  # wrong width


def test_central_product_wrong_factors():
    a, b = heisenberg(3), heisenberg(3)
    ident = centers(a, b)
    with pytest.raises(InvalidIdentification):
        central_product_identified(a, extraspecial_p5(3), ident)


def test_central_product_glued_overlap():
    a, b = heisenberg(3), extraspecial_p5(3)
    ident = centers(a, b)
    res = central_product_identified(a, b, ident)
    assert res.group.m == a.m + b.m - 1
    left = _derived_image(res.embed_left)
    right = _derived_image(res.embed_right)
    meet = left.intersect(right)
    assert meet == res.embed_left.push_derived(ident.source_basis)
    assert meet.dim == 1


# -- amalgamated coproduct ---------------------------------------------------------


def test_amalgam_dimensions():
    h = heisenberg(3)
    res = amalgamated_coproduct(h, h, centers(h, h))
    assert (res.group.n, res.group.m) == (4, 5)
    assert res.group.order == 3**9


def test_amalgam_empty_equals_nilpotent2():
    a, b = heisenberg(3), cyclic(3)
    assert amalgamated_coproduct(a, b, empty(a, b)).group == nilpotent2_product(a, b).group


def test_amalgam_with_extraspecial_dimensions():
    h = nilpotent2_product(cyclic(3), cyclic(3)).group
    e = extraspecial_p5(3)
    res = amalgamated_coproduct(h, e, centers(h, e))
    assert (res.group.n, res.group.m) == (6, 9)


def test_amalgam_rejects_trivial_factor():
    c3 = cyclic(3)
    trivial = elementary_abelian(3, 0)
    with pytest.raises(TrivialFactor):
        amalgamated_coproduct(c3, trivial, empty(c3, trivial))


def test_amalgam_center_equals_derived():
    h, e, c3 = heisenberg(3), extraspecial_p5(3), cyclic(3)
    cases = [
        (c3, c3, empty(c3, c3)),
        (elementary_abelian(3, 2), c3, empty(elementary_abelian(3, 2), c3)),
        (h, h, centers(h, h)),
        (h, e, centers(h, e)),
        (e, e, centers(e, e)),
    ]
    for a, b, ident in cases:
        res = amalgamated_coproduct(a, b, ident)
        assert center(res.group).center_equals_derived


def test_amalgam_embeddings_mono_and_overlap():
    h, e = heisenberg(3), extraspecial_p5(3)
    for a, b, ident in [(h, h, centers(h, h)), (h, e, centers(h, e)), (h, h, empty(h, h))]:
        res = amalgamated_coproduct(a, b, ident)
        assert is_monomorphism(res.embed_left).status == "mono"
        assert is_monomorphism(res.embed_right).status == "mono"
        meet = _derived_image(res.embed_left).intersect(_derived_image(res.embed_right))
        assert meet.dim == ident.size
        assert meet == res.embed_left.push_derived(ident.source_basis)


def test_amalgam_embeddings_are_the_composite_through_the_stage():
    # Each embedding of the amalgam is the 2-nilpotent product's embedding
    # followed by the canonical projection onto the quotient.
    rng = random.Random(909)
    pairs = 0
    while pairs < 120:
        p = rng.choice((3, 5))
        a = random_presentation(rng, p, max_n=4)
        b = random_presentation(rng, p, max_n=4)
        ident = random_identification(rng, a, b)
        if a.order == 1 or b.order == 1:
            continue
        res = amalgamated_coproduct(a, b, ident)
        stage = nilpotent2_product(a, b)
        q = res.group
        projection = hom_from_images(stage.group, q, q.generators())
        assert_same_map(res.embed_left, compose(stage.embed_left, projection))
        assert_same_map(res.embed_right, compose(stage.embed_right, projection))
        pairs += 1


def test_embeddings_are_the_canonical_inclusions():
    rng = random.Random(910)
    for _ in range(40):
        p = rng.choice((3, 5))
        a = random_presentation(rng, p, max_n=4)
        b = random_presentation(rng, p, max_n=4)
        ident = random_identification(rng, a, b)
        results = [direct_product(a, b), nilpotent2_product(a, b), central_product_identified(a, b, ident)]
        if a.order > 1 and b.order > 1:
            results.append(amalgamated_coproduct(a, b, ident))
        for res in results:
            gens = res.group.generators()
            assert (res.embed_left.domain, res.embed_right.domain) == (a, b)
            assert res.embed_left.images == gens[: a.n]
            assert res.embed_right.images == gens[a.n :]


def test_products_match_the_stage_and_quotient_reference():
    rng = random.Random(911)
    trials = 0
    while trials < 200:
        p = rng.choice((3, 5))
        a = random_presentation(rng, p, max_n=4)
        b = random_presentation(rng, p, max_n=4)
        if trials % 2:
            a = GroupPresentation(a.p, a.n, a.m, a.c, label="A")
            b = GroupPresentation(b.p, b.n, b.m, b.c, label="B")
        ident = random_identification(rng, a, b)
        built = {
            "direct": direct_product(a, b),
            "nilpotent2": nilpotent2_product(a, b),
            "central": central_product_identified(a, b, ident),
        }
        if a.order > 1 and b.order > 1:
            built["amalgam"] = amalgamated_coproduct(a, b, ident)
        for kind, res in built.items():
            expected = reference_product(kind, a, b, ident)
            got = res.group
            assert (got.m, got.c_items, got.label) == (expected.m, expected.c_items, expected.label), kind
        trials += 1
