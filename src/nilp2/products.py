"""Product constructors: direct, 2-nilpotent, central with identification,
and the amalgamated coproduct.

All four are one builder, ``_product``, which fills the product's pairing
rows once and builds the product presentation from them.  Generator order
is fixed: the left factor's generators always come first, so each canonical
embedding is the inclusion x_i -> x_i of the factor's generators, solved
on the final product when first read.

Before any quotient the derived coordinates are (left block) + (right
block), followed in the 2-nilpotent product and the amalgam by the tensor
block: one coordinate per generator pair (j in right factor, i in left
factor), ordered lexicographically by (j, i), the coordinate of [x_j, x_i]
being the corresponding tensor basis vector.  The central product and the
amalgam then divide out span{h - phi(h)} for the identification's pairs
(h, phi(h)), keeping the non-pivot coordinates of its echelon basis; an
empty identification divides out nothing, so no quotient is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidIdentification, PresentationMismatch, TrivialFactor
from .fplinalg import Subspace, _product_dtype, check_cells, rref
from .group_core import GeneratorMap, GroupPresentation, hom_from_images

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
        sides = (("source", src, self.source.m), ("target", tgt, self.target.m))
        for side, vectors, m in sides:
            for vec in vectors:
                if len(vec) != m:
                    raise InvalidIdentification(
                        f"{side} vector has {len(vec)} entries, derived dimension is {m}"
                    )
        for side, vectors, m in sides:
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


def _product(a, b, ident, tensor: bool, op: str) -> ProductResult:
    """The product of a and b, with the tensor block when tensor is set,
    glued along ident when it is given; op names it in the label.

    The pair (j, i), 0-based with j > i, is row j(j-1)/2 + i of the rows,
    so a's rows come first and b's are scattered once.  The glue is one
    product of the rows with the complement projection.
    """
    if a.p != b.p:
        raise PresentationMismatch(f"factors have different moduli {a.p} and {b.p}")
    if ident is not None and (ident.source != a or ident.target != b):
        raise InvalidIdentification("identification was built for different factors")
    # Only the amalgam is both glued and tensored.
    if ident is not None and tensor and (a.order == 1 or b.order == 1):
        raise TrivialFactor("amalgamated coproduct requires nontrivial factors")
    p, n = a.p, a.n + b.n
    m = a.m + b.m + (a.n * b.n if tensor else 0)
    check_cells((n, n, m), "pairing table")
    rows = np.zeros((n * (n - 1) // 2, m), dtype=np.int64)
    rows[: len(a.pairs), : a.m] = a.pairs
    if b.m:  # at m = 0 nothing is placed, and the C(n, 2) indices could be huge
        j, i = (x + a.n for x in np.tril_indices(b.n, -1))
        rows[j * (j - 1) // 2 + i, a.m : a.m + b.m] = b.pairs
    if tensor:
        j, i = np.indices((b.n, a.n)).reshape(2, -1)
        rows[(a.n + j) * (a.n + j - 1) // 2 + i, a.m + b.m + j * a.n + i] = 1
    if ident is not None and ident.size:
        glue = np.zeros((ident.size, m), dtype=np.int64)
        glue[:, : a.m] = ident.source_basis
        glue[:, a.m : a.m + b.m] = np.negative(ident.target_basis)
        q = Subspace(p, m, glue).complement_projection()
        # Exact in float whenever _product_dtype allows, and then run by
        # BLAS; int64 otherwise, which Subspace's modulus check keeps exact.
        exact = _product_dtype(m, p) or np.int64
        rows = np.mod((rows.astype(exact) @ q.T.astype(exact)).astype(np.int64), p)
    label = f"{op}({a.label},{b.label})" if a.label and b.label else ""
    return ProductResult(GroupPresentation(p, n, rows.shape[1], rows, label), a, b)


def direct_product(a: GroupPresentation, b: GroupPresentation) -> ProductResult:
    """Direct product: block-diagonal commutators, all cross pairs trivial."""
    return _product(a, b, None, False, "dir")


def nilpotent2_product(a: GroupPresentation, b: GroupPresentation) -> ProductResult:
    """Coproduct in the variety of class-<=2 exponent-p groups.

    The derived space gains one fresh coordinate per (right generator,
    left generator) pair, so m = m_a + m_b + n_a*n_b.
    """
    return _product(a, b, None, True, "nil2")


def central_product_identified(
    a: GroupPresentation, b: GroupPresentation, ident: Identification
) -> ProductResult:
    """Central product gluing a derived subspace of a to one of b.

    The direct product's derived space modulo the subspace identifying
    each source vector with its paired target vector.  With an empty
    identification this is exactly the direct product.
    """
    return _product(a, b, ident, False, f"cp{ident.size}")


def amalgamated_coproduct(
    a: GroupPresentation, b: GroupPresentation, ident: Identification
) -> ProductResult:
    """2-nilpotent product of nontrivial factors glued along derived subspaces.

    The quotient kills span{h - phi(h)} inside the derived space of the
    2-nilpotent product; the embedded copies of the factors then intersect
    exactly in the identified subspace.
    """
    return _product(a, b, ident, True, f"amalg{ident.size}")
