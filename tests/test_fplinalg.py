import random

import numpy as np
import pytest

from nilp2.errors import AmbientMismatch, ModulusTooLarge, NotOddPrime
from nilp2.fplinalg import (
    Subspace,
    all_subspaces,
    check_odd_prime,
    is_odd_prime,
    kernel_basis,
    rref,
    solve_matrix,
)


def test_odd_prime_detection():
    assert [p for p in range(20) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19]
    assert not is_odd_prime(2)
    assert not is_odd_prime(9)
    assert is_odd_prime(65521)


def test_matrix_rejects_bad_modulus():
    for p in (2, 15):
        with pytest.raises(NotOddPrime):
            check_odd_prime(p)
        with pytest.raises(NotOddPrime):
            Subspace(p, 2, [(1, 0)])


def test_echelonize_identity():
    eye = np.eye(3, dtype=np.int64)
    r, pivots = rref(eye, 3)
    assert np.array_equal(r, eye)
    assert pivots == [0, 1, 2]


def test_echelonize_zero():
    r, pivots = rref(np.zeros((2, 4), dtype=np.int64), 5)
    assert np.array_equal(r, np.zeros((2, 4), dtype=np.int64))
    assert pivots == []


def test_echelonize_rank_one():
    # row2 - 2*row1 vanishes mod 3
    r, pivots = rref(np.array([[1, 2], [2, 1]]), 3)
    assert r.tolist() == [[1, 2], [0, 0]]
    assert len(pivots) == 1


def test_echelonize_idempotent_random():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        r, pivots = rref(a, p)
        again, pivots2 = rref(r, p)
        assert np.array_equal(again, r)
        assert pivots2 == pivots


def test_solve_identity():
    x = solve_matrix(np.eye(3, dtype=np.int64), np.array([2, 0, 1]), 3)
    assert x[:, 0].tolist() == [2, 0, 1]


def test_solve_inconsistent():
    assert solve_matrix(np.zeros((2, 2), dtype=np.int64), np.array([1, 0]), 3) is None


def test_solve_kernel_direction():
    a = np.array([[1, 2], [2, 1]])
    x = solve_matrix(a, np.array([0, 0]), 3)
    assert x is not None
    assert x[0, 0] == x[1, 0]
    assert not np.any(np.mod(a @ x, 3))


def test_solve_dimension_mismatch():
    with pytest.raises(AmbientMismatch):
        solve_matrix(np.eye(2, dtype=np.int64), np.array([1, 0, 0]), 3)


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice([3, 5])
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        _, pivots = rref(a, p)
        assert len(pivots) + kernel_basis(a, p).shape[0] == cols


def test_subspace_idempotent_ops():
    u = Subspace(3, 3, [(1, 1, 0)])
    assert u.sum(u) == u
    assert u.intersect(u) == u


def test_subspace_complementary_lines():
    u = Subspace(3, 2, [(1, 0)])
    v = Subspace(3, 2, [(0, 1)])
    assert u.sum(v) == Subspace.full(3, 2)
    assert u.intersect(v) == Subspace.zero(3, 2)


def test_subspace_containment():
    u = Subspace(3, 3, [(1, 1, 0)])
    v = Subspace(3, 3, [(1, 1, 0), (0, 0, 1)])
    assert v.contains(u)
    assert not u.contains(v)
    assert u.intersect(v) == u


def test_subspace_membership():
    u = Subspace(5, 3, [(1, 2, 0), (0, 0, 1)])
    assert u.contains_vector((2, 4, 3))
    assert not u.contains_vector((0, 1, 0))


def test_subspace_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Subspace(3, 2, [(1, 0)]).sum(Subspace(3, 3, [(1, 0, 0)]))


def test_dimension_formula_random():
    rng = random.Random(13)
    for _ in range(40):
        p = rng.choice([3, 5])
        dim = rng.randint(1, 4)
        u = Subspace(p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(rng.randint(0, 3))])
        v = Subspace(p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(rng.randint(0, 3))])
        assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim


def test_quotient_map_zero_subspace():
    q = Subspace.zero(3, 3).complement_projection()
    assert np.array_equal(q, np.eye(3, dtype=np.int64))


def test_quotient_map_full_subspace():
    q = Subspace.full(3, 2).complement_projection()
    assert q.shape == (0, 2)


def test_quotient_map_line():
    q = Subspace(3, 2, [(1, 2)]).complement_projection()
    assert q.shape[0] == 1
    assert np.all(np.mod(q @ np.array([1, 2]), 3) == 0)
    assert np.any(np.mod(q @ np.array([0, 1]), 3))


def test_quotient_map_properties_random():
    rng = random.Random(17)
    for _ in range(40):
        p = rng.choice([3, 5])
        dim = rng.randint(1, 5)
        n = Subspace(p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(rng.randint(0, dim))])
        q = n.complement_projection()
        assert q.shape == (dim - n.dim, dim)
        # surjective, and the kernel is exactly n
        _, pivots = rref(q, p)
        assert len(pivots) == q.shape[0]
        assert Subspace(p, dim, kernel_basis(q, p)) == n


def test_all_subspaces_counts():
    assert sum(1 for _ in all_subspaces(3, 2)) == 6
    assert sum(1 for _ in all_subspaces(3, 4)) == 212
    dims = [s.dim for s in all_subspaces(3, 2)]
    assert dims.count(1) == 4


# -- rref and kernel_basis against a plain reference elimination -------------

BIG_PRIME = 2**31 - 1  # products of two residues overflow float64 exactness


def reference_rref(a, p):
    """Textbook Gauss-Jordan on Python ints: (rows, pivots)."""
    m = [[int(x) % p for x in row] for row in a]
    cols = len(m[0]) if m else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        lead = next((i for i in range(r, len(m)) if m[i][c]), None)
        if lead is None:
            continue
        m[r], m[lead] = m[lead], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def reference_kernel(a, p, cols):
    m, pivots = reference_rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    vectors = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][f] % p
        vectors.append(v)
    return reference_rref(vectors, p)[0]


def _random_matrix(rng, p, rows, cols, rank=None, density=1.0):
    """Random residue matrix; with rank set, every row is a combination of
    that many random rows."""
    if rank is None:
        a = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    else:
        gens = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
        a = []
        for _ in range(rows):
            coeffs = [rng.randrange(p) for _ in range(rank)]
            a.append([sum(c * g[k] for c, g in zip(coeffs, gens)) % p for k in range(cols)])
    return np.array(a, dtype=np.int64).reshape(rows, cols)


def _late_pivots(rng, p, cols, rank):
    """150 rows of the given rank, then fresh rows: the middle blocks
    reduce to zero and the last block still brings new pivots."""
    early = _random_matrix(rng, p, 150, cols, rank=rank)
    fresh = _random_matrix(rng, p, 20, cols)
    return np.concatenate([early, fresh])


SHAPES = [
    ("empty", lambda rng, p: _random_matrix(rng, p, 0, 6)),
    ("one_row", lambda rng, p: _random_matrix(rng, p, 1, 9)),
    ("one_row_leading_zeros", lambda rng, p: np.array([[0, 0, 0, 2, 1, 0, 1]], dtype=np.int64)),
    ("rows_63", lambda rng, p: _random_matrix(rng, p, 63, 40)),
    ("rows_64", lambda rng, p: _random_matrix(rng, p, 64, 80)),
    ("rows_65", lambda rng, p: _random_matrix(rng, p, 65, 40)),
    ("rows_65_sparse", lambda rng, p: _random_matrix(rng, p, 65, 70, density=0.08)),
    ("tall_low_rank", lambda rng, p: _random_matrix(rng, p, 210, 30, rank=7)),
    ("tall_full_rank_early", lambda rng, p: _random_matrix(rng, p, 230, 12)),
    ("wide_full_row_rank", lambda rng, p: _random_matrix(rng, p, 100, 110)),
    ("zero_blocks_then_pivots", lambda rng, p: _late_pivots(rng, p, 25, rank=1)),
    ("last_pivot_late", lambda rng, p: _late_pivots(rng, p, 25, rank=24)),
]


def _is_zero_mod(product, p):
    return all(int(x) % p == 0 for x in np.asarray(product).ravel())


@pytest.mark.parametrize("p", [3, 5, 7, 101, BIG_PRIME])
@pytest.mark.parametrize("shape", [name for name, _ in SHAPES])
def test_rref_and_kernel_match_reference(p, shape):
    rng = random.Random(f"{shape}-{p}")
    a = dict(SHAPES)[shape](rng, p)
    rows, cols = a.shape
    r, pivots = rref(a, p)
    ref, ref_pivots = reference_rref(a.tolist(), p)
    assert pivots == ref_pivots
    assert r.shape == (rows, cols)
    assert r.tolist() == ref
    # a shifted copy reduces to the same form
    r2, _ = rref(a + 5 * p, p)
    assert np.array_equal(r2, r)

    k = kernel_basis(a, p)
    assert k.shape == (cols - len(pivots), cols)
    assert k.tolist() == reference_kernel(a.tolist(), p, cols)
    product = np.array(a, dtype=object) @ np.array(k, dtype=object).T
    assert _is_zero_mod(product, p)
    assert len(pivots) + k.shape[0] == cols


def test_rref_leaves_input_untouched():
    rng = random.Random(3)
    for rows in (5, 150):
        a = _random_matrix(rng, 7, rows, 20)
        before = a.copy()
        rref(a, 7)
        assert np.array_equal(a, before)


# -- moduli whose int64 sums overflow -------------------------------------------

HUGE_PRIME = 4294967311  # (p - 1)^2 >= 2^63


def test_rref_refuses_a_modulus_whose_products_overflow():
    p = HUGE_PRIME
    with pytest.raises(ModulusTooLarge):
        rref(np.array([[p - 2, p - 3], [p - 5, p - 7]]), p)


def test_subspace_refuses_a_modulus_whose_sums_overflow():
    p = HUGE_PRIME
    with pytest.raises(ModulusTooLarge):
        Subspace(p, 2, [(p - 2, p - 3)])
    # ambient * (p - 1)^2 + p is the bound: at 2^31 - 1 it allows two
    # coordinates and refuses three.
    u = Subspace(BIG_PRIME, 2, [(BIG_PRIME - 2, BIG_PRIME - 3)])
    assert u.contains_vector((BIG_PRIME - 2, BIG_PRIME - 3))
    assert u.contains_vector((2 * (BIG_PRIME - 2) % BIG_PRIME, 2 * (BIG_PRIME - 3) % BIG_PRIME))
    with pytest.raises(ModulusTooLarge):
        Subspace(BIG_PRIME, 3)
    u = Subspace(101, 3, [(100, 99, 1)])
    assert u.contains_vector((1, 2, 100))
    assert not u.contains_vector((0, 1, 0))
