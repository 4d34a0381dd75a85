import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilp2 import fplinalg
from nilp2.errors import AmbientMismatch, ModulusTooLarge, NotOddPrime, ResidueTooLarge
from nilp2.fplinalg import (
    KernelEntries,
    Subspace,
    all_vectors,
    check_odd_prime,
    echelon_bases,
    is_odd_prime,
    kernel_basis,
    kernel_of_entries,
    rref,
    solve_matrix,
)
from nilp2.oracles import all_subspaces
from oracles import densify


def test_odd_prime_detection():
    assert [p for p in range(20) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19]
    assert not is_odd_prime(2)
    assert not is_odd_prime(9)
    assert is_odd_prime(65521)


def _trial_division(n):
    return n >= 3 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def test_odd_prime_detection_agrees_with_trial_division():
    assert [n for n in range(-3, 10**5) if is_odd_prime(n) != _trial_division(n)] == []


def test_odd_prime_detection_rejects_strong_pseudoprimes():
    # Strong pseudoprimes to the bases 2..7, 2..17 and 2..37, all composite;
    # the last needs the thirteenth base, 41.
    for n in (3_215_031_751, 341_550_071_728_321, 318_665_857_834_031_151_167_461):
        assert not is_odd_prime(n)
    assert 3_215_031_751 == 151 * 751 * 28351
    assert is_odd_prime(2**31 - 1) and is_odd_prime(3_037_000_493)
    assert is_odd_prime(2**61 - 1) and not is_odd_prime((2**31 - 1) * 1_000_000_007)
    # Above the Miller-Rabin bound trial division answers: at once for a
    # factor up to 41, and from 43 on by division (2^89 - 1 is prime).
    assert not is_odd_prime(2**89) and not is_odd_prime(3 * (2**89 - 1))
    assert not is_odd_prime(43 * (2**89 - 1)) and not is_odd_prime(47 * (2**89 - 1))


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


def _sum(u, v):
    return Subspace(u.p, u.ambient, np.concatenate([u.basis, v.basis]))


@pytest.mark.parametrize("p, dims", [(3, range(6)), (7, range(6)), (2**31 - 1, range(3))])
def test_full_subspace_is_the_reduced_identity(p, dims):
    for k in dims:
        full = Subspace.full(p, k)
        assert full == Subspace(p, k, np.eye(k, dtype=np.int64))
        assert full.pivots == tuple(range(k)) and full.basis.dtype == np.int64
        assert not full.basis.flags.writeable
        with pytest.raises(ValueError):
            full.basis[...] = 0
    with pytest.raises(NotOddPrime):
        Subspace.full(9, 2)
    with pytest.raises(AmbientMismatch):
        Subspace.full(3, -1)
    # At 2^31 - 1 the sums of three products reach 2^63.
    with pytest.raises(ModulusTooLarge):
        Subspace.full(2**31 - 1, 3)


def test_subspace_idempotent_ops():
    u = Subspace(3, 3, [(1, 1, 0)])
    assert _sum(u, u) == u
    assert u.intersect(u) == u


def test_subspace_complementary_lines():
    u = Subspace(3, 2, [(1, 0)])
    v = Subspace(3, 2, [(0, 1)])
    assert _sum(u, v) == Subspace.full(3, 2)
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
        Subspace(3, 2, [(1, 0)]).intersect(Subspace(3, 3, [(1, 0, 0)]))


def test_dimension_formula_random():
    rng = random.Random(13)
    for _ in range(40):
        p = rng.choice([3, 5])
        dim = rng.randint(1, 4)
        u = Subspace(p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(rng.randint(0, 3))])
        v = Subspace(p, dim, [[rng.randrange(p) for _ in range(dim)] for _ in range(rng.randint(0, 3))])
        assert _sum(u, v).dim + u.intersect(v).dim == u.dim + v.dim


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


# The yield order of all_subspaces before it ran on echelon_bases.
SUBSPACES_3_3 = [
    (),
    ((1, 0, 0),), ((1, 0, 1),), ((1, 0, 2),), ((1, 1, 0),), ((1, 1, 1),), ((1, 1, 2),),
    ((1, 2, 0),), ((1, 2, 1),), ((1, 2, 2),), ((0, 1, 0),), ((0, 1, 1),), ((0, 1, 2),),
    ((0, 0, 1),),
    ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 1)), ((1, 0, 0), (0, 1, 2)),
    ((1, 0, 1), (0, 1, 0)), ((1, 0, 1), (0, 1, 1)), ((1, 0, 1), (0, 1, 2)),
    ((1, 0, 2), (0, 1, 0)), ((1, 0, 2), (0, 1, 1)), ((1, 0, 2), (0, 1, 2)),
    ((1, 0, 0), (0, 0, 1)), ((1, 1, 0), (0, 0, 1)), ((1, 2, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
]
SUBSPACES_5_2 = [
    (),
    ((1, 0),), ((1, 1),), ((1, 2),), ((1, 3),), ((1, 4),), ((0, 1),),
    ((1, 0), (0, 1)),
]


@pytest.mark.parametrize("p, ambient, expected", [(3, 3, SUBSPACES_3_3), (5, 2, SUBSPACES_5_2)])
def test_all_subspaces_order(p, ambient, expected):
    assert [s.basis_tuples() for s in all_subspaces(p, ambient)] == expected


@pytest.mark.parametrize("p, ambient", [(3, 0), (3, 4), (5, 3), (7, 2)])
def test_echelon_bases_are_reduced_and_complete(p, ambient):
    seen = set()
    for pivots, bases in echelon_bases(p, ambient):
        assert bases.shape[1:] == (len(pivots), ambient)
        for basis in bases:
            space = Subspace(p, ambient, basis)
            assert space.pivots == pivots
            assert np.array_equal(space.basis, basis)
            seen.add(space)
    gaussian = sum(
        np.prod([(p ** (ambient - i) - 1) / (p ** (i + 1) - 1) for i in range(k)]) for k in range(ambient + 1)
    )
    assert len(seen) == round(gaussian)


def test_all_vectors_counts_in_base_p():
    assert all_vectors(3, 0).shape == (1, 0)
    assert all_vectors(3, 2).tolist() == [[a, b] for a in range(3) for b in range(3)]


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


def reference_rref_numpy(a, p):
    """The same textbook Gauss-Jordan on int64 rows, reducing mod p after
    every row operation; exact for p < 2^31.  Returns (rows, pivots)."""
    m = np.mod(np.array(a, dtype=np.int64), p)
    pivots = []
    for c in range(m.shape[1]):
        r = len(pivots)
        hits = m[r:, c].nonzero()[0]
        if hits.size == 0:
            continue
        lead = r + int(hits[0])
        m[[r, lead]] = m[[lead, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        f = m[:, c].copy()
        f[r] = 0
        m = (m - f[:, None] * m[r]) % p
        pivots.append(c)
    return m.tolist(), pivots


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


def _zero_run(rng, p, run, leading=False):
    """Rows whose columns 1..run vanish mod p once row 0 is eliminated,
    holding nonzero multiples of p until the final reduction; the other
    pivots lie in the last two columns.  With ``leading``, ``run`` more
    columns of zeros come first."""
    head = [1] + [rng.randrange(1, p) for _ in range(run)]
    a = [head + [rng.randrange(p), rng.randrange(p)]]
    for _ in range(5):
        c = rng.randrange(1, p)
        a.append([c * x % p for x in head] + [rng.randrange(p), rng.randrange(p)])
    a = np.array(a, dtype=np.int64)
    return np.concatenate([np.zeros((len(a), run), dtype=np.int64), a], axis=1) if leading else a


def _tall_with_zero_runs(rng, p, rows, run):
    """Tall rows of rank 3 whose pivots sit ``run`` columns apart, plus a
    pivot in the last column from the final block."""
    cols = 3 * run + 2
    gens = np.zeros((3, cols), dtype=np.int64)
    for k in range(3):
        gens[k, k * run] = 1
        gens[k, k * run + 1 : cols - 1] = [rng.randrange(p) for _ in range(cols - 2 - k * run)]
    coeffs = np.array([[rng.randrange(p) for _ in range(3)] for _ in range(rows - 1)], dtype=np.int64)
    last = np.zeros((1, cols), dtype=np.int64)
    last[0, -1] = 1
    return np.concatenate([coeffs @ gens % p, last])


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
    ("zero_run_31", lambda rng, p: _zero_run(rng, p, 31)),
    ("zero_run_32", lambda rng, p: _zero_run(rng, p, 32)),
    ("zero_run_33", lambda rng, p: _zero_run(rng, p, 33)),
    ("zero_run_64", lambda rng, p: _zero_run(rng, p, 64)),
    ("leading_zero_run_32", lambda rng, p: _zero_run(rng, p, 32, leading=True)),
    ("leading_zero_run_33", lambda rng, p: _zero_run(rng, p, 33, leading=True)),
    ("tall_zero_runs_32", lambda rng, p: _tall_with_zero_runs(rng, p, 150, 32)),
    ("tall_zero_runs_33", lambda rng, p: _tall_with_zero_runs(rng, p, 150, 33)),
    ("tall_rank_deficient_wide", lambda rng, p: _random_matrix(rng, p, 300, 90, rank=40)),
    ("tall_rank_deficient_sparse", lambda rng, p: _random_matrix(rng, p, 260, 50, density=0.02)),
]


def _is_zero_mod(product, p):
    return all(int(x) % p == 0 for x in np.asarray(product).ravel())


@pytest.mark.parametrize("p", [3, 5, 7, 101, 46337, BIG_PRIME])
@pytest.mark.parametrize("shape", [name for name, _ in SHAPES])
def test_rref_and_kernel_match_reference(p, shape):
    rng = random.Random(f"{shape}-{p}")
    a = dict(SHAPES)[shape](rng, p)
    rows, cols = a.shape
    r, pivots = rref(a, p)
    ref, ref_pivots = reference_rref(a.tolist(), p)
    assert pivots == ref_pivots
    assert r.dtype == np.int64
    assert r.shape == (rows, cols)
    assert r.tolist() == ref
    # copies shifted by multiples of p, some entries negative or exactly p,
    # reduce to the same form
    shift = np.array([[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    for moved in (a + 5 * p, a - 3 * p, a + p * shift.reshape(rows, cols), np.where(a == 0, p, a)):
        r2, pivots2 = rref(moved, p)
        assert r2.dtype == np.int64
        assert pivots2 == pivots
        assert np.array_equal(r2, r)

    k = kernel_basis(a, p)
    assert k.shape == (cols - len(pivots), cols)
    assert k.tolist() == reference_kernel(a.tolist(), p, cols)
    product = np.array(a, dtype=object) @ np.array(k, dtype=object).T
    assert _is_zero_mod(product, p)
    assert len(pivots) + k.shape[0] == cols


@st.composite
def unit_row_matrices(draw):
    """(a, p): a random residue matrix with rows of one entry planted among
    its rows, then the rows shuffled.  The plants: a forcing chain, whose
    forced column leaves the next row with one entry; several rows of one
    entry in one column; zero rows; and at times a row of one entry in
    every column."""
    p = draw(st.sampled_from([3, 101, 2**31 - 1]))
    rows, cols = draw(st.integers(0, 50)), draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def nonzero(size=None):
        return rng.integers(1, p, size)

    a = np.where(rng.random((rows, cols)) < density, nonzero((rows, cols)), 0)
    order = rng.permutation(cols)
    planted = []
    for k in range(draw(st.integers(0, cols))):
        row = np.zeros(cols, dtype=np.int64)
        row[order[max(k - 1, 0)]], row[order[k]] = nonzero(), nonzero()
        planted.append(row)
    for _ in range(draw(st.integers(0, 4))):
        row = np.zeros(cols, dtype=np.int64)
        row[order[-1]] = nonzero()
        planted.append(row)
    planted += [np.zeros(cols, dtype=np.int64)] * draw(st.integers(0, 5))
    if draw(st.integers(0, 4)) == 0:
        planted += list(np.diag(nonzero(cols)))
    a = np.concatenate([a, np.array(planted, dtype=np.int64).reshape(-1, cols)])
    return a[rng.permutation(len(a))], p


@settings(max_examples=150, deadline=None)
@given(case=unit_row_matrices())
def test_kernel_basis_with_unit_rows_matches_reference(case):
    a, p = case
    ref = reference_kernel(a.tolist(), p, a.shape[1])
    k = kernel_basis(a, p)
    assert k.dtype == np.int64 and k.flags.c_contiguous
    assert k.shape == (len(ref), a.shape[1]) and k.tolist() == ref


def test_kernel_basis_eliminates_only_the_rows_left_by_the_row_rule(monkeypatch):
    # As for kernel_of_entries: the forcing chain forces x_0 .. x_40 one
    # round per link, and rref sees the block's 8 rows over the 5 columns
    # beside x_40, once; kernel_basis does not call itself.
    p = 7
    a = np.mod(_forcing_chain(random.Random(9), p, 40), p)
    calls = _spy(monkeypatch, "rref")
    outer = _spy(monkeypatch, "kernel_basis")
    k = fplinalg.kernel_basis(a, p)
    assert [np.shape(args[0]) for args in calls] == [(8, 5)]
    assert len(outer) == 1
    assert k.tolist() == reference_kernel(a.tolist(), p, a.shape[1])


@pytest.mark.parametrize("shape", ["rows_63", "rows_65_sparse", "tall_low_rank", "wide_full_row_rank"])
def test_rref_reads_fortran_and_c_order_alike(monkeypatch, shape):
    a = dict(SHAPES)[shape](random.Random(shape), 7)
    r, pivots = rref(a, 7)
    calls = _spy(monkeypatch, "_eliminate")
    r_f, pivots_f = rref(np.asfortranarray(a), 7)
    assert pivots_f == pivots and np.array_equal(r_f, r)
    # The working copy is row-major whatever the input's order.
    assert calls and all(args[0].flags.c_contiguous for args in calls)


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


# -- the width rules of the elimination -------------------------------------


def test_numpy_reference_matches_the_textbook_one():
    rng = random.Random(19)
    for p in (3, 257, 46337):
        a = _random_matrix(rng, p, 30, 20, rank=12)
        assert reference_rref_numpy(a, p) == reference_rref(a.tolist(), p)


def test_storage_width_thresholds():
    # cols * (p - 1)^2 + p must stay below 2^15 for int16 and 2^31 for
    # int32; p = 2 hits every bound exactly.
    assert fplinalg._storage_dtype(2**15 - 3, 2) is np.int16
    assert fplinalg._storage_dtype(2**15 - 2, 2) is np.int32
    assert fplinalg._storage_dtype(2**31 - 3, 2) is np.int32
    assert fplinalg._storage_dtype(2**31 - 2, 2) is np.int64
    # The odd primes closest to each bound: 181 and 46337 hold one column.
    assert fplinalg._storage_dtype(1, 181) is np.int16  # 32581
    assert fplinalg._storage_dtype(2, 181) is np.int32  # 64981
    assert fplinalg._storage_dtype(1, 191) is np.int32  # 36291
    assert fplinalg._storage_dtype(1, 46337) is np.int32  # 2^31 - 412415
    assert fplinalg._storage_dtype(2, 46337) is np.int64
    assert fplinalg._storage_dtype(1, 46349) is np.int64
    # The widest int16 elimination mod 5, and one column more.
    assert fplinalg._storage_dtype(2047, 5) is np.int16  # 32757
    assert fplinalg._storage_dtype(2048, 5) is np.int32  # 32773


def test_product_width_thresholds():
    # inner * (p - 1)^2 must stay below 2^24 for float32, 2^53 for float64.
    assert fplinalg._product_dtype(2**24 - 1, 2) is np.float32
    assert fplinalg._product_dtype(2**24, 2) is np.float64
    assert fplinalg._product_dtype(2**53 - 1, 2) is np.float64
    assert fplinalg._product_dtype(2**53, 2) is None
    assert fplinalg._product_dtype(255, 257) is np.float32  # 2^24 - 2^16
    assert fplinalg._product_dtype(256, 257) is np.float64  # exactly 2^24
    assert fplinalg._product_dtype(1, 4093) is np.float32
    assert fplinalg._product_dtype(1, 4099) is np.float64
    assert fplinalg._product_dtype(1, 46337) is np.float64
    assert fplinalg._product_dtype(1, BIG_PRIME) is None  # int64 slices


def _spy(monkeypatch, name):
    """Record the arguments of every call to the fplinalg helper ``name``."""
    calls = []
    original = getattr(fplinalg, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fplinalg, name, spy)
    return calls


def _worst_case(rng, p, rows, cols):
    """Mostly p - 1 entries: the updates subtract as much as they can."""
    return np.array(
        [[p - 1 if rng.random() < 0.8 else rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )


@pytest.mark.parametrize(
    "p, cols, dtype",
    [
        (181, 1, np.int16),
        (181, 2, np.int32),
        (5, 2047, np.int16),
        (5, 2048, np.int32),
        (46337, 1, np.int32),
        (46337, 2, np.int64),
        (BIG_PRIME, 3, np.int64),
    ],
)
@pytest.mark.parametrize("rows", [40, 150])
def test_rref_eliminates_in_the_narrowest_width(monkeypatch, p, cols, dtype, rows):
    rng = random.Random(f"{p}-{cols}-{rows}")
    a = _worst_case(rng, p, rows, cols)
    calls = _spy(monkeypatch, "_eliminate")
    r, pivots = rref(a, p)
    assert calls and all(block.dtype == dtype for block, _ in calls)
    ref, ref_pivots = (reference_rref_numpy if p < 2**31 else reference_rref)(a, p)
    assert r.dtype == np.int64
    assert pivots == ref_pivots
    assert r.tolist() == ref


@pytest.mark.parametrize("rank, largest", [(255, 255 * 256**2), (260, 256 * 256**2)])
def test_block_products_switch_to_float64_at_2_to_the_24(monkeypatch, rank, largest):
    # Mod 257 a block product over 256 pivots sums up to exactly 2^24.
    p = 257
    rng = random.Random(rank)
    gens = _worst_case(rng, p, rank, 260)
    coeffs = np.array([[rng.randrange(p) for _ in range(rank)] for _ in range(270)], dtype=np.int64)
    a = coeffs @ gens % p
    calls = _spy(monkeypatch, "_product_dtype")
    r, pivots = rref(a, p)
    assert max(inner * (q - 1) ** 2 for inner, q in calls) == largest
    ref, ref_pivots = reference_rref_numpy(a, p)
    assert pivots == ref_pivots
    assert r.tolist() == ref


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (1, 0), (1, 7)])
def test_degenerate_inputs_skip_the_width_choice(monkeypatch, shape):
    calls = _spy(monkeypatch, "_storage_dtype")
    a = np.arange(shape[0] * shape[1], dtype=np.int64).reshape(shape) - 3
    r, pivots = rref(a, 7)
    assert calls == []
    assert r.dtype == np.int64 and r.shape == shape
    ref, ref_pivots = reference_rref(a.tolist(), 7)
    assert pivots == ref_pivots
    if shape[0] and shape[1]:
        assert r.tolist() == ref


@pytest.mark.parametrize("rows, cols", [(5, 30), (40, 40), (150, 20)])
def test_inputs_in_range_are_not_reduced_again(rows, cols):
    rng = random.Random(rows)
    a = _random_matrix(rng, 7, rows, cols)
    if a.size >= fplinalg._SMALL:
        assert fplinalg._residues(a, 7) is a
    moved = a - 7
    assert np.array_equal(fplinalg._residues(moved, 7), a)
    assert np.array_equal(fplinalg._residues(np.where(a == 0, 7, a), 7), a)
    u = Subspace(7, cols, a)
    assert u == Subspace(7, cols, a + 14) == Subspace(7, cols, moved)


def test_tall_rref_enters_rref_once(monkeypatch):
    # perfbench's fplinalg.rref.calls and .cells count entries into the
    # module-level rref: the blocked path must not come back through it.
    calls = _spy(monkeypatch, "rref")
    a = _random_matrix(random.Random(5), 7, 300, 40, rank=30)
    fplinalg.rref(a, 7)
    assert [np.shape(args[0]) for args in calls] == [(300, 40)]


# -- kernel_of_entries: the sparse front end of rref ---------------------------


def _entries(a):
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


def _chain(rng, p, n):
    """Rows (i, i + 1) under random row and column permutations: the peel
    takes the two ends of every path, one row per end and round."""
    a = np.zeros((n, n + 1), dtype=np.int64)
    a[np.arange(n), np.arange(n)] = [rng.randrange(1, p) for _ in range(n)]
    a[np.arange(n), np.arange(1, n + 1)] = [rng.randrange(1, p) for _ in range(n)]
    return a[rng.sample(range(n), n)][:, rng.sample(range(n + 1), n + 1)]


def _sparse(rng, p, rows, cols, per_row=3):
    """At most per_row entries per row; some rows and columns stay empty."""
    a = np.zeros((rows, cols), dtype=np.int64)
    for r in range(rows):
        for c in rng.sample(range(cols), rng.randrange(per_row + 1)):
            a[r, c] = rng.randrange(1, p)
    return a


def _mixed(rng, p):
    """A sparse block beside a dense one, with rows across both."""
    a = _sparse(rng, p, 60, 90, per_row=2)
    a[40:, 70:] = _random_matrix(rng, p, 20, 20, rank=12)
    a[:5, 75:] = _random_matrix(rng, p, 5, 15)
    return a


def _lone_entry(rng, p):
    """Sparse rows plus one row whose only entry lies in a column that
    other rows meet too: the row rule, not the column rule, removes it."""
    a = _sparse(rng, p, 60, 50, per_row=3)
    a[:, 7] = 0
    a[[3, 20, 41], 7] = [rng.randrange(1, p) for _ in range(3)]
    a[20] = 0
    a[20, 7] = rng.randrange(1, p)
    return a


def _forcing_chain(rng, p, n):
    """A row with one entry, then rows (x_i-1, x_i), then a random 8 x 6
    block on x_n and five more columns, under random row and column
    permutations.  Forcing x_i - 1 to zero leaves the row (x_i - 1, x_i)
    with one entry: one round per link."""
    a = np.zeros((n + 9, n + 6), dtype=np.int64)
    a[0, 0] = rng.randrange(1, p)
    a[np.arange(1, n + 1), np.arange(n)] = [rng.randrange(1, p) for _ in range(n)]
    a[np.arange(1, n + 1), np.arange(1, n + 1)] = [rng.randrange(1, p) for _ in range(n)]
    a[n + 1 :, n:] = _random_matrix(rng, p, 8, 6)
    return a[rng.sample(range(n + 9), n + 9)][:, rng.sample(range(n + 6), n + 6)]


def _block_diagonal(a, b):
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.int64)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


SPARSE_SHAPES = [
    ("chain", lambda rng, p: _chain(rng, p, 40)),
    ("sparse_rows_3", lambda rng, p: _sparse(rng, p, 80, 100)),
    ("sparse_tall", lambda rng, p: _sparse(rng, p, 150, 60, per_row=2)),
    ("sparse_and_dense", _mixed),
    ("no_entries", lambda rng, p: np.zeros((7, 5), dtype=np.int64)),
    ("lone_entry", _lone_entry),
    ("forcing_chain", lambda rng, p: _forcing_chain(rng, p, 40)),
    ("forcing_chains_apart", lambda rng, p: _block_diagonal(_forcing_chain(rng, p, 30), _forcing_chain(rng, p, 12))),
]


def _peels(a):
    """Whether a round of kernel_of_entries applies a rule to a: a column
    or a row with exactly one entry, in a matrix above _PEEL_MIN_CELLS."""
    if a.size <= fplinalg._PEEL_MIN_CELLS:
        return False
    return (np.count_nonzero(a, axis=0) == 1).any() or (np.count_nonzero(a, axis=1) == 1).any()


@pytest.mark.parametrize("p", [3, 5, 7, 101, 46337])
@pytest.mark.parametrize("shape", [name for name, _ in SHAPES + SPARSE_SHAPES])
def test_kernel_of_entries_spans_the_reference_kernel(p, shape):
    rng = random.Random(f"{shape}-{p}")
    a = np.mod(dict(SHAPES + SPARSE_SHAPES)[shape](rng, p), p)
    cols = a.shape[1]
    raw = kernel_of_entries(*_entries(a), a.shape, p)
    k = densify(raw, cols)
    ref = reference_kernel(a.tolist(), p, cols)
    assert k.dtype == np.int64 and k.shape == (len(ref), cols)
    assert _is_zero_mod(np.array(a, dtype=object) @ np.array(k, dtype=object).T, p)
    # Independent rows that span the reference kernel.
    r, pivots = rref(k, p)
    assert len(pivots) == len(ref) and r.tolist() == ref
    # Entries sorted by column, each a residue in [1, p), no position twice.
    assert isinstance(raw, KernelEntries) and raw.dim == len(ref)
    assert (np.diff(raw.column) >= 0).all()
    assert raw.value.dtype == np.int64 and ((raw.value >= 1) & (raw.value < p)).all()
    assert np.unique(raw.column * max(raw.dim, 1) + raw.vector).size == raw.column.size
    if not _peels(a):
        # Nothing is peeled: the null rows of the reduced form, row for row.
        assert np.array_equal(k, Subspace(p, cols, a).complement_projection())


def test_kernel_of_entries_refuses_a_modulus_whose_sums_overflow():
    # ncols * (p - 1)^2 + p is the bound, as for Subspace: at 2^31 - 1 it
    # allows two columns and refuses three.
    one = (np.array([0]), np.array([0]), np.array([1]))
    assert densify(kernel_of_entries(*one, (1, 2), BIG_PRIME), 2).tolist() == [[0, 1]]
    with pytest.raises(ModulusTooLarge):
        kernel_of_entries(*one, (1, 3), BIG_PRIME)


def test_residue_budget_is_checked_before_the_residue_is_built(monkeypatch):
    p = 5
    a = np.mod(_mixed(random.Random(11), p), p)
    entries = _entries(a)
    calls = _spy(monkeypatch, "rref")
    kernel_of_entries(*entries, a.shape, p)
    (residue,) = [args[0] for args in calls]
    cells = residue.size
    assert 0 < cells < a.size
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", cells)
    kernel_of_entries(*entries, a.shape, p)
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", cells - 1)
    with pytest.raises(ResidueTooLarge, match=f"RESIDUE_CELL_LIMIT = {cells - 1}"):
        kernel_of_entries(*entries, a.shape, p)
    assert len(calls) == 2


def test_rows_without_entries_stay_out_of_the_residue(monkeypatch):
    # 60 dense rows among 220, over 12 columns: nothing peels, and the
    # residue is those 60 rows, not the matrix's 220 x 12.
    p = 3
    a = np.zeros((220, 12), dtype=np.int64)
    a[random.Random(3).sample(range(220), 60)] = _random_matrix(random.Random(4), p, 60, 12, rank=9) % p
    a[a.any(axis=1)] = np.where(a[a.any(axis=1)] == 0, 1, a[a.any(axis=1)])
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", 60 * 12)
    assert isinstance(kernel_of_entries(*_entries(a), a.shape, p), KernelEntries)
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", 60 * 12 - 1)
    with pytest.raises(ResidueTooLarge, match="dense residue of 60 x 12 = 720 cells"):
        kernel_of_entries(*_entries(a), a.shape, p)


def test_unpeeled_kernel_basis_is_checked_before_it_is_built(monkeypatch):
    # A wide dense matrix peels nothing.  Its residue is 10 x 200 = 2,000
    # cells; its basis is 190 vectors, one unit entry each plus the null
    # rows' nonzeros on the 10 pivot columns: 2,058 entries at p = 101, far
    # fewer than the 190 x 200 cells of the dense null rows.  The entries
    # are refused after the residue's elimination and before they are
    # gathered.
    p = 101
    a = _random_matrix(random.Random(5), p, 10, 200)
    a[a == 0] = 1
    calls = _spy(monkeypatch, "rref")
    k = kernel_of_entries(*_entries(a), a.shape, p)
    (residue,) = [args[0] for args in calls]
    entries = k.column.size
    assert residue.shape == (10, 200) and k.dim == 190 and 2000 < entries <= 190 * 11
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", entries)
    assert np.array_equal(densify(kernel_of_entries(*_entries(a), a.shape, p), 200), densify(k, 200))
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", entries - 1)
    with pytest.raises(ResidueTooLarge, match=f"kernel basis entries of {entries} = {entries} cells"):
        kernel_of_entries(*_entries(a), a.shape, p)
    assert len(calls) == 3


def test_entry_budget_is_checked_before_each_gather(monkeypatch):
    # The largest gather of a chain's back-substitution sets the limit: at
    # it the kernel is built, one entry below it is refused.
    p = 5
    a = _chain(random.Random(11), p, 40)
    entries = _entries(a)
    checks = []
    original = fplinalg.check_cells

    def spy(shape, what):
        checks.append((shape, what))
        return original(shape, what)

    monkeypatch.setattr(fplinalg, "check_cells", spy)
    k = kernel_of_entries(*entries, a.shape, p)
    gathers = [shape[0] for shape, what in checks if what == "kernel basis entries"]
    assert gathers and max(gathers) >= k.column.size
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", max(gathers))
    kernel_of_entries(*entries, a.shape, p)
    monkeypatch.setattr(fplinalg, "RESIDUE_CELL_LIMIT", max(gathers) - 1)
    with pytest.raises(ResidueTooLarge, match=f"kernel basis entries of {max(gathers)} = "):
        kernel_of_entries(*entries, a.shape, p)


def test_row_rule_forces_a_chain_column_by_column(monkeypatch):
    # Every x_i of the forcing chain, x_0 .. x_40, is forced to zero, one
    # round per link, and the rows the row rule removes never reach the
    # residue: it is the block's 8 rows over the 5 columns beside x_40.  At
    # this seed no column is a singleton, and the block has full column
    # rank, so the kernel is zero.
    p = 7
    a = np.mod(_forcing_chain(random.Random(9), p, 40), p)
    assert (np.count_nonzero(a, axis=0) >= 2).all()
    calls = _spy(monkeypatch, "rref")
    k = kernel_of_entries(*_entries(a), a.shape, p)
    (residue,) = [args[0] for args in calls]
    assert residue.shape == (8, 5)
    assert isinstance(k, KernelEntries) and k.dim == 0
