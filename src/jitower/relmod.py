"""Relation modules realized as boundary-map kernels inside F_p[G]^d.

For a finite group G generated by t_1, ..., t_d and a prime p coprime to
|G|, the boundary map sends the ambient basis vector (i, h) to
h*t_i - h in F_p[G].  Its kernel is the relation module of the
presentation x_i -> t_i; its dimension is (d-1)|G| + 1 and, by Gaschuetz's
classical decomposition, the fixed space of any subgroup H has dimension
(d-1)|G:H| + 1.

Elements of the free group embed multiplicatively into pairs
(fox vector, image): the vector of evaluated Fox derivatives satisfies the
derivation identity  boundary(vector) = image - 1, and pairs multiply by
(a, g)(b, h) = (a + g.b, gh).

Level modules are quotients R/S by a G-stable S, and their fixed spaces
need no rank computation of size dim R.  Since p does not divide |G|,
taking K-fixed points is exact, so  dim (R/S)^K = dim R^K - dim S^K.  The
first term is Gaschuetz's (d-1)|G:K| + 1, the Euler characteristic of the
coset graph Kh -> Kh t_i (connected, since the t_i generate); only the
small action on S needs a rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmodule import GModule
from .groups import GroupHandle, closure_indices
from .linalg import PrimeField, Subspace, kernel_basis, rref
from .words import Word, fox_vector

__all__ = [
    "RelationModule",
    "relation_module",
    "boundary_matrix",
    "magnus_pair",
    "relator_power_image",
]


@dataclass
class RelationModule:
    """The kernel of the boundary map, presented as the live part of a GModule."""

    module: GModule
    boundary: np.ndarray
    group: GroupHandle
    gens: tuple
    field: PrimeField

    @property
    def d(self) -> int:
        return len(self.gens)

    @property
    def kernel_dim(self) -> int:
        return self.module.live_dim

    def derivation(self, vec) -> np.ndarray:
        """boundary @ vec, an element of F_p[G] in coordinate form."""
        return self.boundary @ (np.asarray(vec, dtype=np.int64) % self.field.p) \
            % self.field.p

    def element_delta(self, g) -> np.ndarray:
        """The coordinate vector of g - 1 in F_p[G]."""
        out = np.zeros(self.group.order, dtype=np.int64)
        out[self.group.index_of(g)] += 1
        out[0] -= 1
        return out % self.field.p

    def quotient_fixed_dim(self, killed: Subspace, elements) -> int:
        """dim (R/S)^K for S = ``killed`` and K the subgroup generated by
        ``elements``, as dim R^K - dim S^K (see the module docstring).

        ``killed`` must be a G-stable subspace of the boundary kernel, as
        the killed space of every level module is.
        """
        idxs = sorted({self.module._g_index(g) for g in elements} - {0})
        index = self.group.order // closure_indices(
            self.group.mult_table(), idxs).size
        # S^K is the left kernel of the stacked (g - 1) on S's reduced basis
        s = killed.dim
        blocks = [self.module.act_raw(g, killed.basis)[:, killed.pivots]
                  - np.eye(s, dtype=np.int64) for g in idxs]
        rank = rref(np.hstack(blocks), self.field.p)[2] if s and blocks else 0
        return (self.d - 1) * index + 1 - (s - rank)


def boundary_matrix(group: GroupHandle, gen_idxs, p: int) -> np.ndarray:
    """The |G| x d|G| boundary matrix sending column (i, h) to h*t_i - h."""
    n = group.order
    table = group.mult_table()
    d = len(gen_idxs)
    b = np.zeros((n, d * n), dtype=np.int64)
    rows = np.arange(n)
    for i, t in enumerate(gen_idxs):
        cols = i * n + rows
        b[table[:, t], cols] = (b[table[:, t], cols] + 1) % p
        b[rows, cols] = (b[rows, cols] - 1) % p
    return b


def relation_module(group: GroupHandle, gens, field: PrimeField) -> RelationModule:
    """Build the relation module for the given generating tuple.

    Requires p coprime to |G| and that the tuple generates; both are
    checked.  The returned module has nothing killed yet, and its live
    subspace is exactly the boundary kernel.
    """
    if isinstance(field, int):
        field = PrimeField(field)
    if group.order % field.p == 0:
        raise ValueError(f"prime {field.p} divides the group order {group.order}")
    gens = tuple(gens)
    gen_idxs = [group.index_of(g) for g in gens]
    reach = closure_indices(group.mult_table(), gen_idxs)
    if reach.size != group.order:
        raise ValueError("the tuple does not generate the group")
    b = boundary_matrix(group, gen_idxs, field.p)
    kernel = kernel_basis(b, field)
    module = GModule(field, group, len(gens), live=kernel)
    expected = (len(gens) - 1) * group.order + 1
    if module.live_dim != expected:
        raise RuntimeError(
            f"kernel dimension {module.live_dim} != expected {expected}")
    return RelationModule(module, b, group, gens, field)


def magnus_pair(word: Word, rel: RelationModule):
    """The multiplicative pair (fox vector, image) of a free word.

    Satisfies rel.derivation(vec) == image - 1, and the pair of u*v is
    (vec_u + u.vec_v, image_u * image_v).
    """
    vec, image = fox_vector(word, rel.group, [rel.group.index_of(g) for g in rel.gens],
                            rel.field.p)
    return vec, rel.group.elements()[image]


def relator_power_image(word: Word, rel: RelationModule) -> np.ndarray:
    """The fox vector of word**k where k = ord(image of word).

    The result always lies in the boundary kernel.  Computed as the orbit
    sum (1 + g + ... + g^(k-1)) applied to the fox vector of the word,
    which is the same element with k group operations instead of k word
    expansions.
    """
    vec, g = magnus_pair(word, rel)
    return rel.module.orbit_sum(g, vec, rel.group.element_order(g))
