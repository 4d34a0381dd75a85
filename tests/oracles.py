"""Reference implementations for differential tests: subgroup enumeration
by coset growth, injectivity by a kernel scan, map composition by applying
one map to the other's generator images, the Jacobi relation vector of one
triple, and the elements behind element-table indices."""

import numpy as np

from nilp2.errors import PresentationMismatch
from nilp2.group_core import GroupPresentation, Subgroup, _tables, _weights, hom_from_images


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
