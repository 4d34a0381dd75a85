"""Product constructors: direct, 2-nilpotent, central with identification,
and the amalgamated coproduct.

Every constructor returns the product presentation together with its two
factors.  Generator order is fixed: the left factor's generators always
come first, so each canonical embedding is the inclusion x_i -> x_i of the
factor's generators, solved on the final product when first read.
In the 2-nilpotent product the derived space splits as (left block) +
(right block) + (tensor block), the tensor block holding one coordinate
per generator pair (j in right factor, i in left factor), ordered
lexicographically by (j, i); the coordinate of [x_j, x_i] is the
corresponding tensor basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidIdentification, PresentationMismatch, TrivialFactor
from .fplinalg import Subspace, rref
from .group_core import GeneratorMap, GroupPresentation, hom_from_images, quotient_by_central

__all__ = [
    "Identification",
    "ProductResult",
    "amalgamated_coproduct",
    "central_product_identified",
    "direct_product",
    "nilpotent2_product",
]

@dataclass(frozen=True)
class Identification:
    """Pairing of derived subspaces: source_basis[r] is glued to target_basis[r].

    Both lists must be linearly independent and of equal length, so the
    gluing map is an isomorphism between the spanned subspaces.  An empty
    identification is allowed and degenerates the constructors to the
    plain products.
    """

    source: GroupPresentation
    target: GroupPresentation
    source_basis: tuple
    target_basis: tuple

    def __post_init__(self):
        if self.source.p != self.target.p:
            raise PresentationMismatch(
                f"identification between moduli {self.source.p} and {self.target.p}"
            )
        src = tuple(tuple(int(x) % self.source.p for x in vec) for vec in self.source_basis)
        tgt = tuple(tuple(int(x) % self.target.p for x in vec) for vec in self.target_basis)
        object.__setattr__(self, "source_basis", src)
        object.__setattr__(self, "target_basis", tgt)
        if len(src) != len(tgt):
            raise InvalidIdentification(
                f"{len(src)} source vectors paired with {len(tgt)} target vectors"
            )
        for vec in src:
            if len(vec) != self.source.m:
                raise InvalidIdentification(
                    f"source vector has {len(vec)} entries, derived dimension is {self.source.m}"
                )
        for vec in tgt:
            if len(vec) != self.target.m:
                raise InvalidIdentification(
                    f"target vector has {len(vec)} entries, derived dimension is {self.target.m}"
                )
        for side, vectors, m in (("source", src, self.source.m), ("target", tgt, self.target.m)):
            if vectors:
                arr = np.array(vectors, dtype=np.int64).reshape(len(vectors), m)
                _, pivots = rref(arr, self.source.p)
                if len(pivots) != len(vectors):
                    raise InvalidIdentification(f"{side} vectors are linearly dependent")

    @property
    def size(self) -> int:
        return len(self.source_basis)


@dataclass(frozen=True)
class ProductResult:
    group: GroupPresentation
    left: GroupPresentation
    right: GroupPresentation

    @cached_property
    def embed_left(self) -> GeneratorMap:
        return hom_from_images(self.left, self.group, self.group.generators()[: self.left.n])

    @cached_property
    def embed_right(self) -> GeneratorMap:
        return hom_from_images(self.right, self.group, self.group.generators()[self.left.n :])


def _check_same_p(a: GroupPresentation, b: GroupPresentation):
    if a.p != b.p:
        raise PresentationMismatch(f"factors have different moduli {a.p} and {b.p}")


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


def direct_product(a: GroupPresentation, b: GroupPresentation) -> ProductResult:
    """Direct product: block-diagonal commutators, all cross pairs trivial."""
    _check_same_p(a, b)
    m = a.m + b.m
    product = GroupPresentation(
        a.p, a.n + b.n, m, _block_c(a, b, m, a.m), label=_pair_label("dir", a, b)
    )
    return ProductResult(product, a, b)


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


def nilpotent2_product(a: GroupPresentation, b: GroupPresentation) -> ProductResult:
    """Coproduct in the variety of class-<=2 exponent-p groups.

    The derived space gains one fresh coordinate per (right generator,
    left generator) pair, so m = m_a + m_b + n_a*n_b.
    """
    _check_same_p(a, b)
    m, c = _coproduct_c(a, b)
    product = GroupPresentation(a.p, a.n + b.n, m, c, label=_pair_label("nil2", a, b))
    return ProductResult(product, a, b)


def _check_identification(a, b, ident: Identification):
    if ident.source != a or ident.target != b:
        raise InvalidIdentification("identification was built for different factors")


def _glue(a, b, ident: Identification, m: int) -> Subspace:
    """span{h - phi(h)} in F_p^m, whose first a.m coordinates are a's
    derived block and the next b.m are b's."""
    rows = []
    for h, k in zip(ident.source_basis, ident.target_basis):
        row = [0] * m
        row[: a.m] = list(h)
        row[a.m : a.m + b.m] = [(-int(x)) % b.p for x in k]
        rows.append(row)
    return Subspace(a.p, m, rows)


def central_product_identified(
    a: GroupPresentation, b: GroupPresentation, ident: Identification
) -> ProductResult:
    """Central product gluing a derived subspace of a to one of b.

    Built as the direct product followed by the quotient identifying each
    source vector with its paired target vector.  With an empty
    identification this is exactly the direct product.
    """
    _check_same_p(a, b)
    _check_identification(a, b, ident)
    m = a.m + b.m
    c = _block_c(a, b, m, a.m)
    stage = GroupPresentation(a.p, a.n + b.n, m, c)
    product = quotient_by_central(
        stage, _glue(a, b, ident, m), label=_pair_label(f"cp{ident.size}", a, b)
    )
    return ProductResult(product, a, b)


def amalgamated_coproduct(
    a: GroupPresentation, b: GroupPresentation, ident: Identification
) -> ProductResult:
    """2-nilpotent product of nontrivial factors glued along derived subspaces.

    The quotient kills span{h - phi(h)} inside the derived space of the
    2-nilpotent product; the embedded copies of the factors then intersect
    exactly in the identified subspace.
    """
    _check_same_p(a, b)
    _check_identification(a, b, ident)
    if a.order == 1 or b.order == 1:
        raise TrivialFactor("amalgamated coproduct requires nontrivial factors")
    m, c = _coproduct_c(a, b)
    stage = GroupPresentation(a.p, a.n + b.n, m, c)
    product = quotient_by_central(
        stage, _glue(a, b, ident, m), label=_pair_label(f"amalg{ident.size}", a, b)
    )
    return ProductResult(product, a, b)
