"""Reference implementations for differential tests: subgroup enumeration
by coset growth, injectivity by a kernel scan, map composition by applying
one map to the other's generator images, the Jacobi relation vector of one
triple, the Jacobi criterion by one elimination of the dense Jacobi
matrix, on the group as given or after the radical split, whose factor H
is built as a presentation of its own, the elements
behind element-table indices, the four products built
commutator by commutator through a stage presentation, and a
presentation's two tables scattered from its (j, i) tuples."""

import itertools
import math

import numpy as np

from nilp2.errors import PreconditionCenterNotDerived, PresentationMismatch
from nilp2.fplinalg import Subspace, kernel_basis
from nilp2.group_core import GroupPresentation, Subgroup, _tables, _weights, center, from_kappa, hom_from_images


def jacobi_vector(group: GroupPresentation, x: int, y: int, z: int) -> np.ndarray:
    """Relation vector for generator indices (1-based); repeats are allowed
    and make the vector vanish."""
    kap = group.kappa_table()
    n, m = group.n, group.m
    out = np.zeros(m * n, dtype=np.int64)
    if m == 0:
        return out
    slots = np.arange(m) * n
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        out[slots + (c - 1)] += kap[a - 1, b - 1]
    return np.mod(out, group.p)


def jacobi_matrix(group: GroupPresentation) -> np.ndarray:
    """The C(n, 3) x nm matrix whose rows are the relation vectors of the
    triples i < j < k, in combinations order."""
    rows = [jacobi_vector(group, *(t + 1 for t in triple)) for triple in itertools.combinations(range(group.n), 3)]
    return np.array(rows, dtype=np.int64).reshape(math.comb(group.n, 3), group.m * group.n)


def jacobi_criterion(group: GroupPresentation) -> Subspace:
    """{g : g (x) e_i lies in the span of the rows of jacobi_matrix for
    every i}, on the group as given: one elimination of the whole dense
    matrix, whose row space's complement projection spans ker J."""
    n, m = group.n, group.m
    if m == 0:
        return Subspace.zero(group.p, 0)
    q = Subspace(group.p, m * n, jacobi_matrix(group)).complement_projection()
    if q.shape[0] == 0:
        # The relation subspace is everything, so every g qualifies.
        return Subspace.full(group.p, m)
    q3 = q.reshape(-1, m, n)
    stacked = np.concatenate([q3[:, :, i] for i in range(n)], axis=0)
    return Subspace(group.p, m, kernel_basis(stacked, group.p))


def radical_factor(group: GroupPresentation) -> GroupPresentation:
    """The factor H of G = H x C_p^r as a presentation of its own: kappa
    restricted to the generators off the pivots of the radical's echelon
    basis, in G's derived coordinates; G itself when the radical is zero."""
    radical = center(group).radical
    free = [f for f in range(group.n) if f not in radical.pivots]
    return from_kappa(group.p, group.kappa_table()[free][:, free]) if radical.dim else group


def dense_epicentre(group: GroupPresentation) -> Subspace:
    """The epicentre as capability.epicentre_in_derived computed it before
    its sparse front end: the radical split, then jacobi_criterion on the
    factor H."""
    if group.is_abelian and not center(group).center_equals_derived:
        raise PreconditionCenterNotDerived(
            "epicentre computation requires a nonabelian group"
        )
    return jacobi_criterion(radical_factor(group))


def decode(group: GroupPresentation, indices) -> tuple:
    """The elements with the given indices, numbered as in the element
    tables: the mixed-radix value of the digits (v_1..v_n, w_1..w_m)."""
    digits = np.asarray(indices, dtype=np.int64).reshape(-1, 1) // _weights(group) % group.p
    return tuple(group.element(row[: group.n], row[group.n :]) for row in digits.tolist())


def _sort_key(sub: Subgroup):
    return (sub.order, tuple(sorted(sub.element_indices)))


def reference_subgroups(group: GroupPresentation):
    """Complete, canonically sorted list of subgroups of a small group.

    Grows subgroups layer by layer: a subgroup of order p^(k+1) is always
    generated by one of its (normal, index-p) subgroups of order p^k plus
    one extra element that normalizes it, which in class 2 reduces to the
    commutator test [h, g] in H on generators.  The element tables refuse
    groups above ORDER_CAP.
    """
    t = _tables(group)
    size = t.size
    trivial = Subgroup(group, frozenset((t.identity,)), ())
    found = {trivial.element_indices: trivial}
    layer = [trivial]
    while layer:
        fresh = {}
        for sub in sorted(layer, key=_sort_key):
            fs = sub.element_indices
            members = np.zeros(size, dtype=bool)
            members[list(fs)] = True
            candidates = ~members
            for h in sub.generator_indices:
                candidates &= members[t.comm[h]]
            base = np.array(sorted(fs), dtype=np.int64)
            covered = set()
            for g in np.nonzero(candidates)[0].tolist():
                if g in covered:
                    continue
                col = t.mul[:, g]
                elems = set(fs)
                cur = base
                for _ in range(group.p - 1):
                    cur = col[cur]
                    elems.update(cur.tolist())
                key = frozenset(elems)
                covered.update(elems)
                if key not in found and key not in fresh:
                    fresh[key] = Subgroup(group, key, sub.generator_indices + (g,))
        found.update(fresh)
        layer = list(fresh.values())
    return tuple(sorted(found.values(), key=_sort_key))


def brute_force_mono(f) -> str:
    """"mono" or "not_mono" for a consistent map, by applying it to every
    element of the domain."""
    for x in f.domain.elements():
        if not x.is_identity and f.apply(x).is_identity:
            return "not_mono"
    return "mono"


def compose(f, g):
    """Composite map: first f, then g."""
    if g.domain != f.codomain:
        raise PresentationMismatch("composition endpoints do not match")
    return hom_from_images(f.domain, g.codomain, [g.apply(im) for im in f.images])


def assert_same_map(f, g):
    """Equal images and equal induced matrices; GeneratorMap equality
    compares the images only."""
    assert f == g
    assert np.array_equal(f.commutator_matrix, g.commutator_matrix)
    assert np.array_equal(f.abelianized_matrix, g.abelianized_matrix)


# -- products as a stage presentation and a central quotient ------------------


def _pair_label(op: str, a: GroupPresentation, b: GroupPresentation) -> str:
    if a.label and b.label:
        return f"{op}({a.label},{b.label})"
    return ""


def _block_c(a: GroupPresentation, b: GroupPresentation, m_total: int, b_offset: int):
    """Block-diagonal commutator map of the two factors inside F_p^m_total."""
    c = {}
    for (j, i), vec in a.c_items:
        out = [0] * m_total
        out[: a.m] = list(vec)
        c[(j, i)] = tuple(out)
    for (j, i), vec in b.c_items:
        out = [0] * m_total
        out[b_offset : b_offset + b.m] = list(vec)
        c[(j + a.n, i + a.n)] = tuple(out)
    return c


def _coproduct_c(a: GroupPresentation, b: GroupPresentation):
    """Derived dimension and commutator map of the 2-nilpotent product."""
    m = a.m + b.m + a.n * b.n
    c = _block_c(a, b, m, a.m)
    for j in range(1, b.n + 1):
        for i in range(1, a.n + 1):
            vec = [0] * m
            vec[a.m + b.m + (j - 1) * a.n + (i - 1)] = 1
            c[(j + a.n, i)] = tuple(vec)
    return m, c


def _glue(a, b, ident, m: int) -> Subspace:
    """span{h - phi(h)} in F_p^m, whose first a.m coordinates are a's
    derived block and the next b.m are b's."""
    rows = []
    for h, k in zip(ident.source_basis, ident.target_basis):
        row = [0] * m
        row[: a.m] = list(h)
        row[a.m : a.m + b.m] = [(-int(x)) % b.p for x in k]
        rows.append(row)
    return Subspace(a.p, m, rows)


def _quotient(group: GroupPresentation, sub: Subspace, label: str) -> GroupPresentation:
    """Quotient by a subspace of the derived coordinates, commutator by
    commutator."""
    q = sub.complement_projection()
    new_c = {}
    for (j, i), vec in group.c_items:
        new_c[(j, i)] = tuple(int(x) for x in np.mod(q @ np.array(vec, dtype=np.int64), group.p))
    return GroupPresentation(group.p, group.n, group.m - sub.dim, new_c, label=label)


def reference_product(kind: str, a: GroupPresentation, b: GroupPresentation, ident=None) -> GroupPresentation:
    """The product of the given kind ("direct", "nilpotent2", "central" or
    "amalgam"): a stage presentation with block-diagonal commutators, plus
    the tensor block for the last two kinds, then for the glued kinds the
    quotient by span{h - phi(h)}.  Factors are assumed valid for the kind."""
    if kind == "direct":
        m = a.m + b.m
        return GroupPresentation(a.p, a.n + b.n, m, _block_c(a, b, m, a.m), label=_pair_label("dir", a, b))
    if kind == "nilpotent2":
        m, c = _coproduct_c(a, b)
        return GroupPresentation(a.p, a.n + b.n, m, c, label=_pair_label("nil2", a, b))
    if kind == "central":
        m = a.m + b.m
        stage = GroupPresentation(a.p, a.n + b.n, m, _block_c(a, b, m, a.m))
        return _quotient(stage, _glue(a, b, ident, m), _pair_label(f"cp{ident.size}", a, b))
    m, c = _coproduct_c(a, b)
    stage = GroupPresentation(a.p, a.n + b.n, m, c)
    return _quotient(stage, _glue(a, b, ident, m), _pair_label(f"amalg{ident.size}", a, b))


def reference_tables(group: GroupPresentation):
    """(kappa_table, delta_table) built from the tuples of ``c_items``, as
    presentations built them before they held their pairing rows."""
    n, m, p = group.n, group.m, group.p
    kap = np.zeros((n, n, m), dtype=np.int64)
    keys = np.array([key for key, _ in group.c_items], dtype=np.intp).reshape(-1, 2) - 1
    vectors = np.array([vec for _, vec in group.c_items], dtype=np.int64).reshape(len(keys), m)
    kap[keys[:, 0], keys[:, 1]] = vectors
    kap[keys[:, 1], keys[:, 0]] = np.mod(-vectors, p)
    return kap, np.where(np.tri(n, k=-1, dtype=bool)[:, :, None], kap, 0)


def densify(kernel, cols: int) -> np.ndarray:
    """A basis from ``kernel_of_entries`` as a dense (dim, cols) array: the
    entries of its ``KernelEntries`` scattered."""
    out = np.zeros((kernel.dim, cols), dtype=np.int64)
    out[kernel.vector, kernel.column] = kernel.value
    return out
