import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nilp2.constructions import extraspecial_p5, heisenberg
from nilp2.errors import (
    AmbientMismatch,
    BadIndex,
    EntryOutOfRange,
    InconsistentMap,
    ModulusTooLarge,
    NotOddPrime,
    OrderExceedsCap,
    PresentationMismatch,
    ResidueTooLarge,
    SpanDeficit,
)
from nilp2 import fplinalg
from nilp2.fplinalg import Subspace, solve_matrix
from nilp2.group_core import (
    GroupPresentation,
    MonoResult,
    center,
    commutator,
    cyclic,
    elementary_abelian,
    enumerate_subgroups,
    from_kappa,
    hom_from_images,
    inverse,
    is_monomorphism,
    multiply,
    power,
    quotient_by_central,
)
from nilp2 import group_core
from nilp2.products import direct_product
from nilp2.selfcheck import random_presentation, rebase
from oracles import brute_force_mono, compose, decode, reference_tables
from test_capability import _random_invertible

BATTERY = [
    cyclic(3),
    elementary_abelian(3, 2),
    heisenberg(3),
    extraspecial_p5(3),
    heisenberg(5),
]


# -- validation ----------------------------------------------------------------


def test_validate_heisenberg():
    g = GroupPresentation(3, 2, 1, {(2, 1): (1,)})
    assert (g.p, g.n, g.m) == (3, 2, 1)
    assert g.order == 27


def test_validate_span_deficit():
    with pytest.raises(SpanDeficit) as exc:
        GroupPresentation(3, 2, 2, {(2, 1): (1, 0)})
    assert exc.value.actual_rank == 1
    assert exc.value.expected_dim == 2


def test_validate_rejects_even_prime():
    with pytest.raises(NotOddPrime):
        GroupPresentation(2, 2, 1, {(2, 1): (1,)})


def test_validate_bad_index():
    with pytest.raises(BadIndex):
        GroupPresentation(3, 2, 1, {(1, 2): (1,)})
    with pytest.raises(BadIndex):
        GroupPresentation(3, 2, 1, {(3, 1): (1,)})


def test_validate_entry_out_of_range():
    with pytest.raises(EntryOutOfRange):
        GroupPresentation(3, 2, 1, {(2, 1): (3,)})
    with pytest.raises(EntryOutOfRange):
        GroupPresentation(3, 2, 1, {(2, 1): (-1,)})


def test_validate_refuses_a_modulus_whose_sums_overflow():
    # At p = 2^31 - 1 the collection sums overflow int64: with
    # c(2, 1) = (p - 1,), multiply((p-1, p-2 | 0), (p-3, p-5 | 0)) would give
    # w = (1,) instead of 2147483641.
    p = 2**31 - 1
    with pytest.raises(ModulusTooLarge):
        GroupPresentation(p, 2, 1, {(2, 1): (p - 1,)})
    # n(n - 1)(p - 1)^3 is the bound; one generator has no commutators.
    assert GroupPresentation(p, 1, 0).order == p
    g = GroupPresentation(101, 3, 1, {(2, 1): (100,), (3, 2): (99,)})
    (a1, a2, a3), (b1, b2, b3) = (100, 99, 98), (98, 96, 95)
    a, b = g.element((a1, a2, a3), (97,)), g.element((b1, b2, b3), (0,))
    assert multiply(a, b).w == ((97 + a2 * b1 * 100 + a3 * b2 * 99) % 101,)
    assert commutator(a, b).w == (((a2 * b1 - a1 * b2) * 100 + (a3 * b2 - a2 * b3) * 99) % 101,)


def test_presentation_equality_ignores_label():
    a = GroupPresentation(3, 2, 1, {(2, 1): (1,)})
    assert a == heisenberg(3)
    assert hash(a) == hash(heisenberg(3))


def test_validate_repeated_commutator():
    # (2, 1) and ('2', '1') are distinct keys of one commutator.
    with pytest.raises(BadIndex, match=r"\(2, 1\) is given twice"):
        GroupPresentation(3, 3, 1, {(2, 1): (1,), ("2", "1"): (2,)})


def test_pairing_rows_are_the_tril_order():
    g = GroupPresentation(5, 4, 3, {(2, 1): (1, 0, 0), (4, 2): (0, 1, 0), (4, 3): (0, 2, 1)})
    j, i = np.tril_indices(4, -1)
    assert [(int(a) + 1, int(b) + 1) for a, b in zip(j, i)] == [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    assert g.pairs.tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 2, 1]]
    assert not g.pairs.flags.writeable
    assert g.c_items == (((2, 1), (1, 0, 0)), ((4, 2), (0, 1, 0)), ((4, 3), (0, 2, 1)))


@pytest.mark.parametrize("built_from", ["mapping", "array"])
def test_rows_and_tables_cannot_be_made_writeable(built_from):
    c = {(2, 1): (1, 0), (3, 2): (0, 2)}
    g = GroupPresentation(5, 3, 2, c if built_from == "mapping" else np.array([[1, 0], [0, 0], [0, 2]]))
    for arr in (g.pairs, g.kappa_table(), g.delta_table()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flags.writeable = True
        with pytest.raises(ValueError):
            arr[...] = 0
    assert g == GroupPresentation(5, 3, 2, c)


@pytest.mark.parametrize("name", ["pairs", "_kappa", "_center", "label", "_hash"])
def test_slots_cannot_be_reassigned_or_deleted(name):
    # The caches derived from the rows fill in past __setattr__; no slot can
    # be assigned or deleted, before or after they are filled.
    g = GroupPresentation(5, 3, 2, {(2, 1): (1, 0), (3, 2): (0, 2)})
    other = GroupPresentation(5, 3, 2, {(2, 1): (0, 1), (3, 1): (1, 0)})
    for filled in (False, True):
        if filled:
            g.c_items, g.kappa_table(), g.delta_table(), center(g), hash(g)
        before = getattr(g, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(g, name, getattr(other, name))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(g, name)
        assert getattr(g, name) is before
    assert g._kappa is g.kappa_table() and g._center is center(g) and g._hash == hash(g)
    assert np.array_equal(g.kappa_table(), GroupPresentation(5, 3, 2, g.pairs).kappa_table())


def test_validate_array_input():
    rows = np.array([[1], [0], [2]], dtype=np.int64)
    assert GroupPresentation(3, 3, 1, rows) == GroupPresentation(3, 3, 1, {(2, 1): (1,), (3, 2): (2,)})
    with pytest.raises(AmbientMismatch, match=r"shape \(3, 2\), expected \(3, 1\)"):
        GroupPresentation(3, 3, 1, np.zeros((3, 2), dtype=np.int64))
    # The first bad entry in row order is named, by its commutator.
    bad = np.array([[1, 0], [0, 1], [3, -1]], dtype=np.int64)
    with pytest.raises(EntryOutOfRange, match=r"entry 3 for commutator \(3, 2\)"):
        GroupPresentation(3, 3, 2, bad)
    with pytest.raises(SpanDeficit):
        GroupPresentation(3, 3, 2, np.array([[1, 0], [2, 0], [0, 0]], dtype=np.int64))


def test_tables_and_center_are_refused_above_the_cell_budget(monkeypatch):
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", 4 * 4 * 2)
    GroupPresentation(3, 4, 2, {(2, 1): (1, 0), (4, 3): (0, 1)})
    with pytest.raises(ResidueTooLarge, match="pairing table of 4 x 4 x 3 = 48 cells"):
        GroupPresentation(3, 4, 3, {(2, 1): (1, 0, 0), (4, 3): (0, 1, 0), (3, 1): (0, 0, 1)})
    assert center(elementary_abelian(3, 5)).radical.dim == 5
    with pytest.raises(ResidueTooLarge, match="center basis of 6 x 6 = 36 cells"):
        center(elementary_abelian(3, 6))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([3, 5, 7]), rebased=st.booleans())
def test_array_and_mapping_forms_agree(seed, p, rebased):
    rng = random.Random(seed)
    g = random_presentation(rng, p, max_n=6)
    if rebased:
        g = rebase(g, _random_invertible(rng, p, g.n))
    kap, delta = reference_tables(g)
    for h in (from_kappa(p, g.kappa_table()), GroupPresentation(p, g.n, g.m, g.c)):
        assert h == g and hash(h) == hash(g) and h.c_items == g.c_items
        assert np.array_equal(h.kappa_table(), kap) and np.array_equal(h.delta_table(), delta)
    assert np.array_equal(g.kappa_table(), kap) and np.array_equal(g.delta_table(), delta)
    # c_items holds exactly the nonzero rows, in row order.
    rows = [(j, i) for j in range(2, g.n + 1) for i in range(1, j)]
    assert g.c_items == tuple((key, tuple(row)) for key, row in zip(rows, g.pairs.tolist()) if any(row))


# -- element arithmetic ---------------------------------------------------------


def test_identity_is_neutral():
    rng = random.Random(1)
    for g in BATTERY:
        e = g.identity()
        for _ in range(20):
            a = g.random_element(rng)
            assert multiply(e, a) == a
            assert multiply(a, e) == a


def test_heisenberg_collection():
    g = heisenberg(3)
    x1, x2 = g.generator(1), g.generator(2)
    assert multiply(x1, x2) == g.element((1, 1), (0,))
    assert multiply(x2, x1) == g.element((1, 1), (1,))
    # moving x2 past x1^2 emits the commutator twice
    assert multiply(x2, power(x1, 2)) == g.element((2, 1), (2,))


def test_heisenberg_inverse():
    g = heisenberg(3)
    a = g.element((1, 1), (0,))
    assert inverse(a) == g.element((2, 2), (1,))
    assert multiply(a, inverse(a)) == g.identity()


def test_commutator_defining_relation():
    g = heisenberg(3)
    assert commutator(g.generator(2), g.generator(1)) == g.element((0, 0), (1,))
    # agrees with the word a b a^-1 b^-1
    a, b = g.generator(2), g.generator(1)
    word = multiply(multiply(a, b), multiply(inverse(a), inverse(b)))
    assert word == commutator(a, b)


def test_exponent_p():
    rng = random.Random(2)
    for g in BATTERY:
        for _ in range(50):
            a = g.random_element(rng)
            assert power(a, g.p).is_identity


def test_power_matches_repeated_multiplication():
    rng = random.Random(3)
    g = extraspecial_p5(3)
    for _ in range(30):
        a = g.random_element(rng)
        acc = g.identity()
        for k in range(7):
            assert power(a, k) == acc
            acc = multiply(acc, a)
        assert power(a, -1) == inverse(a)


def test_associativity_random():
    rng = random.Random(4)
    for g in BATTERY:
        for _ in range(200):
            a, b, c = (g.random_element(rng) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_presentation_mismatch():
    with pytest.raises(PresentationMismatch):
        multiply(heisenberg(3).generator(1), cyclic(3).generator(1))


# -- center and quotients -------------------------------------------------------


def test_center_heisenberg():
    info = center(heisenberg(3))
    assert info.center_equals_derived
    assert info.radical.dim == 0


def test_center_abelian():
    g = elementary_abelian(3, 2)
    info = center(g)
    assert not info.center_equals_derived
    assert info.radical == Subspace.full(3, 2)


def test_center_extraspecial():
    info = center(extraspecial_p5(3))
    assert info.center_equals_derived
    assert info.radical.dim == 0


def test_center_partner_property():
    # trivial radical forces every generator to pair nontrivially with some other
    for g in (heisenberg(3), extraspecial_p5(3), heisenberg(5)):
        assert center(g).center_equals_derived
        kap = g.kappa_table()
        for i in range(g.n):
            assert any(np.any(kap[i, j]) for j in range(g.n))


def test_quotient_by_zero_is_identity():
    g = heisenberg(3)
    q = quotient_by_central(g, Subspace.zero(3, 1))
    proj = hom_from_images(g, q, q.generators())
    assert q == g
    assert proj.consistent


def test_quotient_by_full_derived_abelianizes():
    g = heisenberg(3)
    q = quotient_by_central(g, Subspace.full(3, 1))
    assert (q.n, q.m) == (2, 0)
    e = extraspecial_p5(3)
    q2 = quotient_by_central(e, Subspace.full(3, 1))
    assert (q2.n, q2.m) == (4, 0)


def test_quotient_projection_consistent_and_surjective():
    rng = random.Random(5)
    for g in (heisenberg(3), extraspecial_p5(3)):
        for _ in range(5):
            vecs = [[rng.randrange(3) for _ in range(g.m)] for _ in range(rng.randint(0, g.m))]
            sub = Subspace(3, g.m, vecs)
            q = quotient_by_central(g, sub)
            proj = hom_from_images(g, q, q.generators())
            assert proj.consistent
            from nilp2.fplinalg import rref

            _, piv_v = rref(proj.abelianized_matrix, 3)
            _, piv_l = rref(proj.commutator_matrix, 3)
            assert len(piv_v) == q.n
            assert len(piv_l) == q.m


# -- homomorphisms --------------------------------------------------------------


def test_identity_map_consistent():
    g = heisenberg(3)
    f = hom_from_images(g, g, g.generators())
    assert f.consistent
    assert is_monomorphism(f).status == "mono"


def test_hom_factoring_through_abelianization():
    g = heisenberg(3)
    f = hom_from_images(g, g, [g.generator(1), g.generator(1)])
    assert f.consistent
    assert np.all(f.commutator_matrix == 0)
    mono = is_monomorphism(f)
    assert mono.status == "not_mono"
    assert mono.witness is not None
    assert f.apply(mono.witness).is_identity
    assert not mono.witness.is_identity


def test_hom_inconsistent_system():
    e = extraspecial_p5(3)
    h = heisenberg(3)
    images = [h.generator(1), h.generator(2), h.identity(), h.identity()]
    f = hom_from_images(e, h, images)
    assert not f.consistent
    with pytest.raises(InconsistentMap):
        is_monomorphism(f)


def test_hom_apply_respects_multiplication():
    rng = random.Random(6)
    g = heisenberg(3)
    e = extraspecial_p5(3)
    f = hom_from_images(g, e, [e.generator(1), e.generator(2)])
    assert f.consistent
    for _ in range(50):
        a, b = g.random_element(rng), g.random_element(rng)
        assert f.apply(multiply(a, b)) == multiply(f.apply(a), f.apply(b))
    assert is_monomorphism(f).status == "mono"


def test_injective_hom_without_injective_abelianized_part():
    # x2 maps into the derived subgroup: the abelianized matrix is singular
    # but the map embeds C_3^2 anyway; the kernel test must see that.
    g = elementary_abelian(3, 2)
    h = heisenberg(3)
    f = hom_from_images(g, h, [h.generator(1), h.element((0, 0), (1,))])
    assert f.consistent
    assert is_monomorphism(f).status == "mono"


def test_injective_hom_of_order_729():
    # C_3^6 -> H_3 x C_3^5: x1 to the central z, x_i to the C_3^5 factor.
    dom = elementary_abelian(3, 6)
    cod = direct_product(heisenberg(3), elementary_abelian(3, 5)).group
    images = [cod.element((0,) * 7, (1,))] + [cod.generator(i) for i in range(3, 8)]
    f = hom_from_images(dom, cod, images)
    assert is_monomorphism(f) == MonoResult("mono")


def test_noncommuting_kernel_gives_a_commutator_witness():
    h = heisenberg(3)
    z = h.element((0, 0), (1,))
    f = hom_from_images(h, h, [z, z])
    mono = is_monomorphism(f)
    assert mono.status == "not_mono"
    assert mono.witness.v == (0, 0) and any(mono.witness.w)
    assert f.apply(mono.witness).is_identity


@st.composite
def consistent_maps(draw):
    """Consistent maps from a group of order at most 243, p in {3, 5}.

    The images come first, as products of powers of a few random elements
    and a derived element.  The domain's c(j, i) is then the coordinate
    vector of [img_j, img_i] in the span of all these commutators, padded
    with random entries, so the induced derived map exists."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([3, 5]))
    top = 5 if p == 3 else 3
    cod = random_presentation(rng, p, max_n=4)
    while True:
        n = rng.randint(1, top)
        pool = [cod.random_element(rng) for _ in range(rng.randint(1, 3))]
        images = []
        for _ in range(n):
            img = cod.element((0,) * cod.n, [rng.randrange(p) for _ in range(cod.m)])
            for x in pool:
                img = multiply(img, power(x, rng.randrange(p)))
            images.append(img)
        pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
        brackets = {(j, i): commutator(images[j - 1], images[i - 1]).w for j, i in pairs}
        span = Subspace(p, cod.m, list(brackets.values()))
        if n + span.dim > top:
            continue
        m = span.dim + rng.randint(0, top - n - span.dim)
        c = {
            pair: [vec[k] for k in span.pivots] + [rng.randrange(p) for _ in range(m - span.dim)]
            for pair, vec in brackets.items()
        }
        try:
            dom = GroupPresentation(p, n, m, c)
        except SpanDeficit:
            continue
        f = hom_from_images(dom, cod, images)
        assert f.consistent
        return f


@settings(max_examples=150, deadline=None)
@given(f=consistent_maps())
def test_monomorphism_matches_kernel_scan(f):
    mono = is_monomorphism(f)
    assert mono.status == brute_force_mono(f)
    if mono.status == "not_mono":
        assert not mono.witness.is_identity
        assert f.apply(mono.witness).is_identity
    else:
        assert mono.witness is None


def _change_of_generators(f, a, b):
    """(alpha, beta) for the rebased domain and codomain: alpha sends
    y_k to prod_i x_i^(a[i, k]); beta has abelianization b^-1 and induces
    the identity on the derived subgroup, so both are isomorphisms."""
    dom, cod = f.domain, f.codomain
    new_dom, new_cod = rebase(dom, a), rebase(cod, b)
    images = []
    for k in range(dom.n):
        img = dom.identity()
        for i, x in enumerate(dom.generators()):
            img = multiply(img, power(x, int(a[i, k])))
        images.append(img)
    alpha = hom_from_images(new_dom, dom, images)
    b_inv = solve_matrix(b, np.eye(cod.n, dtype=np.int64), cod.p)
    beta = hom_from_images(cod, new_cod, [new_cod.element(col, (0,) * cod.m) for col in b_inv.T])
    return alpha, beta


@settings(max_examples=100, deadline=None)
@given(f=consistent_maps(), seed=st.integers(0, 2**32 - 1))
def test_monomorphism_invariant_under_change_of_generators(f, seed):
    rng = random.Random(seed)
    p = f.domain.p
    alpha, beta = _change_of_generators(
        f, _random_invertible(rng, p, f.domain.n), _random_invertible(rng, p, f.codomain.n)
    )
    assert alpha.consistent and beta.consistent
    assert is_monomorphism(alpha).status == is_monomorphism(beta).status == "mono"
    g = compose(compose(alpha, f), beta)
    mono = is_monomorphism(g)
    assert mono.status == is_monomorphism(f).status
    if mono.status == "not_mono":
        assert not mono.witness.is_identity
        assert g.apply(mono.witness).is_identity


# -- subgroup enumeration --------------------------------------------------------


def test_enumerate_cyclic():
    assert len(enumerate_subgroups(cyclic(3))) == 2


def test_enumerate_elementary_abelian():
    subs = enumerate_subgroups(elementary_abelian(3, 2))
    assert len(subs) == 6
    assert sorted(s.order for s in subs) == [1, 3, 3, 3, 3, 9]


def test_enumerate_heisenberg():
    subs = enumerate_subgroups(heisenberg(3))
    assert len(subs) == 19
    by_order = {}
    for s in subs:
        by_order[s.order] = by_order.get(s.order, 0) + 1
    assert by_order == {1: 1, 3: 13, 9: 4, 27: 1}


def test_enumerate_subgroups_are_closed():
    for g in (elementary_abelian(3, 2), heisenberg(3)):
        for sub in enumerate_subgroups(g):
            elems = set(decode(g, sorted(sub.element_indices)))
            for a in elems:
                assert inverse(a) in elems
                for b in elems:
                    assert multiply(a, b) in elems


def test_enumerate_cap(monkeypatch):
    with pytest.raises(OrderExceedsCap):
        enumerate_subgroups(elementary_abelian(3, 6))
    # The cap is read at call time.
    monkeypatch.setattr(group_core, "ORDER_CAP", 81)
    with pytest.raises(OrderExceedsCap):
        enumerate_subgroups(extraspecial_p5(3))


def test_element_tables_refuse_above_the_cap():
    group_core._tables.cache_clear()
    with pytest.raises(OrderExceedsCap):
        group_core._tables(elementary_abelian(3, 6))


def test_order_by_exhaustive_closure():
    from nilp2.selfcheck import _closure_size

    for g in BATTERY:
        assert _closure_size(g) == g.order


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([3, 5]), n=st.integers(1, 4), k=st.integers(0, 3))
def test_bracket_span_is_the_span_of_all_commutators(seed, p, n, k):
    rng = random.Random(seed)
    rows = n * (n - 1) // 2
    m = rng.randint(0, rows)
    try:
        g = GroupPresentation(p, n, m, np.array([rng.randrange(p) for _ in range(rows * m)]).reshape(rows, m))
    except SpanDeficit:
        assume(False)
    vectors = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(k)], dtype=np.int64).reshape(k, n)
    span = [g.element(v, (0,) * m) for v in fplinalg.all_vectors(p, k) @ vectors % p]
    brackets = [commutator(a, b).w for a in span for b in span]
    assert group_core._bracket_span(g, vectors) == Subspace(p, m, brackets)
