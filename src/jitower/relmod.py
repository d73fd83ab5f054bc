"""Relation modules realized as boundary-map kernels inside F_p[G]^d.

For a finite group G generated by t_1, ..., t_d and a prime p coprime to
|G|, the boundary map sends the ambient basis vector (i, h) to
h*t_i - h in F_p[G].  Its kernel is the relation module of the
presentation x_i -> t_i; its dimension is (d-1)|G| + 1 and, by Gaschuetz's
classical decomposition, the fixed space of any subgroup H has dimension
(d-1)|G:H| + 1.

The boundary is the incidence map of the Cayley graph h -> h*t_i, so its
kernel is the cycle space (Gruenberg, Relation Modules of Finite Groups,
1976).  One spanning tree gives both the kernel, spanned by fundamental
cycles, and the tree paths P[h] that solve boundary(a) = h - 1.

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
from .linalg import PrimeField, Subspace, rref
from .words import Word, fox_vector

__all__ = [
    "RelationModule",
    "relation_module",
    "spanning_tree",
    "magnus_pair",
    "relator_power_image",
]


@dataclass
class RelationModule:
    """The kernel of the boundary map, presented as the live part of a GModule."""

    module: GModule
    potentials: np.ndarray         # row h: the tree path P[h], boundary(P[h]) = h - 1
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
        """boundary(vec) in F_p[G], as a gather: coordinate g gets the
        columns (i, g t_i^-1) and loses the columns (i, g)."""
        idxs = [self.group.index_of(t) for t in self.gens]
        pull = self.group.mult_table()[:, self.group.inverse_table()[idxs]]
        v = np.asarray(vec, dtype=np.int64).reshape(self.d, -1)
        return (v[np.arange(self.d), pull].sum(axis=1) - v.sum(axis=0)) % self.field.p

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


def spanning_tree(group: GroupHandle, gen_idxs, p: int) -> tuple:
    """``(tree, potentials)``: Kruskal's spanning forest of the Cayley graph
    over the columns (i, h) in column order, and the |G| x d|G| array of
    tree paths P[h] from 1 to h, which solve boundary(a) = h - 1 (zero
    where the forest does not reach h).  The boundary's column matroid is
    graphic and rref picks its lex-first basis, so the forest is exactly
    the pivot set of the boundary's rref."""
    n = group.order
    heads = group.mult_table()[:, list(gen_idxs)].T.reshape(-1)   # (i, h) ends at h*t_i
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    tree, adjacent = [], [[] for _ in range(n)]
    for c, head in enumerate(heads.tolist()):
        a, b = find(c % n), find(head)
        if a != b:
            root[a] = b
            tree.append(c)
            adjacent[c % n].append((head, c, 1))
            adjacent[head].append((c % n, c, -1))
    # breadth first from the identity: P[v] = P[u] +- e_c across tree edge c
    potentials = np.zeros((n, heads.size), dtype=np.int64)
    queue, seen = [0], {0}
    for u in queue:
        for v, c, sign in adjacent[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
                potentials[v] = potentials[u]
                potentials[v, c] += sign
    return tuple(tree), potentials % p


def relation_module(group: GroupHandle, gens, field: PrimeField) -> RelationModule:
    """Build the relation module for the given generating tuple.

    Requires p coprime to |G| and that the tuple generates; both are
    checked.  The fundamental cycles e_f + P[h] - P[h*t_i], one per column
    f = (i, h) off the tree, span the kernel, the live subspace of the
    returned module; nothing is killed yet.
    """
    if isinstance(field, int):
        field = PrimeField(field)
    n = group.order
    if n % field.p == 0:
        raise ValueError(f"prime {field.p} divides the group order {n}")
    gens = tuple(gens)
    gen_idxs = np.array([group.index_of(g) for g in gens], dtype=np.int64)
    tree, potentials = spanning_tree(group, gen_idxs, field.p)
    if len(tree) != n - 1:
        raise ValueError("the tuple does not generate the group")
    free = np.delete(np.arange(len(gens) * n), tree)
    tails = free % n
    cycles = potentials[tails] - potentials[group.mult_table()[tails, gen_idxs[free // n]]]
    cycles[np.arange(free.size), free] += 1
    kernel = Subspace.span(field, len(gens) * n, cycles % field.p)
    return RelationModule(GModule(field, group, len(gens), live=kernel),
                          potentials, group, gens, field)


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
