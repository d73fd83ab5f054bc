"""Modules over group algebras, presented as subquotients of F_p[G]^m.

A ``GModule`` fixes an ambient free module F_p[G]^m (coordinates indexed by
(copy, group-element index), flattened copy-major), a killed G-stable
subspace S, and a live subspace: the module itself is the span of ``live``
inside the quotient by S.  All vectors handled by a module are canonical
representatives mod S, so equality of module elements is plain array
equality.

Group elements act by permuting the group-element coordinate within each
copy; only these permutations are ever materialized, never dense matrices
for the full ambient.
"""

from __future__ import annotations

import itertools

import numpy as np

from .groups import CapExceeded
from .linalg import PrimeField, Subspace, kernel_basis, rref

__all__ = ["GModule", "gaussian_binomial", "subspace_count"]


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    assert num % den == 0
    return num // den


def subspace_count(n: int, p: int) -> int:
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


class GModule:
    """An F_p[G]-module carried on ambient coordinates F_p[G]^m mod a killed subspace."""

    def __init__(self, field: PrimeField, group, copies: int,
                 killed: Subspace | None = None, live: Subspace | None = None,
                 check: bool = True):
        self.field = field
        self.group = group
        self.copies = int(copies)
        self.ambient_dim = self.copies * group.order
        if killed is None:
            killed = Subspace.zero(field, self.ambient_dim)
        if killed.field != field or killed.ambient_dim != self.ambient_dim:
            raise ValueError("killed subspace does not match the ambient")
        self.killed = killed
        if live is None:
            rows = np.eye(self.ambient_dim, dtype=np.int64)
            keep = [i for i in range(self.ambient_dim) if i not in set(killed.pivots)]
            live = Subspace(field, self.ambient_dim, rows[keep], keep)
        else:
            live = Subspace.span(field, self.ambient_dim,
                                 killed.reduce(live.basis) if live.dim else
                                 np.zeros((0, self.ambient_dim), dtype=np.int64))
        self.live = live
        self._gather = {}
        self._action = {}
        if check:
            if not self._stable_raw(self.killed):
                raise ValueError("killed subspace is not stable under the group action")
            if not self.stable(self.live):
                raise ValueError("live subspace is not stable mod the killed subspace")

    @property
    def live_dim(self) -> int:
        return self.live.dim

    @classmethod
    def trivial(cls, field: PrimeField, group, rank: int) -> "GModule":
        """F_p^rank with trivial group action: each copy of F_p[G] collapses
        to the line where all group coordinates agree."""
        n = group.order
        ambient = rank * n
        rows = []
        for j in range(rank):
            for h in range(1, n):
                v = np.zeros(ambient, dtype=np.int64)
                v[j * n + h] = 1
                v[j * n] = -1
                rows.append(v)
        killed = Subspace.span(field, ambient,
                               np.asarray(rows, dtype=np.int64) if rows
                               else np.zeros((0, ambient), dtype=np.int64))
        return cls(field, group, rank, killed=killed)

    # ambient coordinate helpers

    def norm_vector(self, copy: int = 0) -> np.ndarray:
        """The sum of all group coordinates in one copy; always G-fixed."""
        n = self.group.order
        v = np.zeros(self.ambient_dim, dtype=np.int64)
        v[copy * n:(copy + 1) * n] = 1
        return v

    # the group action

    def _gather_index(self, g_idx: int) -> np.ndarray:
        """Flat gather such that act(g, v) = v[gather]; row (j, e) pulls (j, g^-1 e)."""
        cached = self._gather.get(g_idx)
        if cached is None:
            table = self.group.mult_table()
            inv = int(self.group.inverse_table()[g_idx])
            row = table[inv]
            n = self.group.order
            offs = np.arange(self.copies, dtype=np.int64).reshape(-1, 1) * n
            cached = (offs + row).reshape(-1)
            self._gather[g_idx] = cached
        return cached

    def _g_index(self, g) -> int:
        return g if isinstance(g, int) else self.group.index_of(g)

    def act_raw(self, g, v) -> np.ndarray:
        """Permutation action on raw ambient rows, without reducing mod killed."""
        return np.asarray(v, dtype=np.int64)[..., self._gather_index(self._g_index(g))]

    def act(self, g, v) -> np.ndarray:
        """Module action: permute coordinates, then reduce mod the killed subspace."""
        return self.killed.reduce(self.act_raw(g, v))

    def orbit_sum(self, g, v, k: int) -> np.ndarray:
        """(1 + g + ... + g^(k-1)).v on raw ambient rows, mod p but not mod
        killed; with k = ord(g) this is the norm element N_g applied to v."""
        gather = self._gather_index(self._g_index(g))
        acc = cur = np.asarray(v, dtype=np.int64)
        for _ in range(k - 1):
            cur = cur[..., gather]
            acc = acc + cur
        return acc % self.field.p

    def action_matrix(self, g) -> np.ndarray:
        """Action of g on live coordinates: row i holds the coefficients of
        act(g, live_basis[i]) with respect to the live basis."""
        g_idx = self._g_index(g)
        cached = self._action.get(g_idx)
        if cached is None:
            acted = self.act(g_idx, self.live.basis)
            cached = acted[:, self.live.pivots]
            cached.setflags(write=False)
            self._action[g_idx] = cached
        return cached

    def _stable_raw(self, space: Subspace) -> bool:
        if space.dim == 0:
            return True
        for g in self.group.generators:
            if not space.contains(self.act_raw(g, space.basis)):
                return False
        return True

    def stable(self, space: Subspace) -> bool:
        """Whether a space of reduced vectors is generator-stable mod killed."""
        if space.dim == 0:
            return True
        for g in self.group.generators:
            if not space.contains(self.act(g, space.basis)):
                return False
        return True

    # module-level operations

    def g_span(self, vectors) -> Subspace:
        """Smallest generator-stable subspace containing the given vectors (mod killed)."""
        rows = np.asarray(vectors, dtype=np.int64)
        if rows.size == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        rows = self.killed.reduce(rows.reshape(-1, self.ambient_dim))
        span = Subspace.span(self.field, self.ambient_dim, rows)
        while True:
            acted = [self.act(g, span.basis) for g in self.group.generators]
            grown = Subspace.span(self.field, self.ambient_dim,
                                  np.vstack([span.basis, *acted]) if acted else span.basis)
            if grown.dim == span.dim:
                return span
            span = grown

    def _fixed_blocks(self, subgroup_elements):
        idxs = sorted({self._g_index(g) for g in subgroup_elements})
        idxs = [i for i in idxs if i != 0]
        if not idxs:
            return None
        eye = np.eye(self.live_dim, dtype=np.int64)
        return np.vstack([(self.action_matrix(i) - eye).T % self.field.p
                          for i in idxs])

    def invariants(self, subgroup_elements) -> Subspace:
        """Joint fixed space of the given elements, inside the live span.

        The fixed space of a generating set equals the fixed space of the
        subgroup it generates, so callers may pass generators only.
        """
        if self.live_dim == 0:
            return self.live
        blocks = self._fixed_blocks(subgroup_elements)
        if blocks is None:
            return self.live
        coeff = kernel_basis(blocks, self.field)
        if coeff.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        rows = coeff.basis @ self.live.basis % self.field.p
        return Subspace.span(self.field, self.ambient_dim, rows)

    def fixed_dim(self, subgroup_elements) -> int:
        """dim of the joint fixed space, as live_dim minus the rank of the
        stacked (g - 1) blocks of the live action (a full rref).

        The direct computation for any module; level modules use
        ``RelationModule.quotient_fixed_dim``, which this cross-checks.
        """
        if self.live_dim == 0:
            return 0
        blocks = self._fixed_blocks(subgroup_elements)
        if blocks is None:
            return self.live_dim
        return self.live_dim - rref(blocks, self.field.p)[2]

    def quotient(self, extra: Subspace) -> "GModule":
        """Kill ``extra`` (a stable subspace of the live span) as well;
        raises ValueError unless it is one."""
        if extra.field != self.field or extra.ambient_dim != self.ambient_dim:
            raise ValueError("subspace does not match the ambient")
        reduced = Subspace.span(self.field, self.ambient_dim,
                                self.killed.reduce(extra.basis))
        if not self.live.contains_space(reduced):
            raise ValueError("quotient space must lie in the live span")
        if not self.stable(reduced):
            raise ValueError("quotient space is not stable under the group action")
        killed = self.killed.sum(extra)
        live = Subspace.span(self.field, self.ambient_dim,
                             killed.reduce(self.live.basis))
        out = GModule(self.field, self.group, self.copies, killed=killed,
                      live=live, check=False)
        assert out.live_dim == self.live_dim - (killed.dim - self.killed.dim)
        return out

    def submodule_from_coeffs(self, coeff_rows) -> Subspace:
        rows = np.asarray(coeff_rows, dtype=np.int64) % self.field.p
        if rows.size == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        return Subspace.span(self.field, self.ambient_dim,
                             rows @ self.live.basis % self.field.p)

    def enumerate_submodules(self, guard: int = 100_000) -> list:
        """Every generator-stable subspace of the live module, canonically ordered.

        Subspaces of the live coefficient space are enumerated dimension by
        dimension through their reduced echelon forms and filtered for
        stability.  ``guard`` bounds the number of candidate subspaces.
        """
        r = self.live_dim
        p = self.field.p
        total = subspace_count(r, p)
        if total > guard:
            raise CapExceeded(
                f"{total} candidate subspaces exceed the guard {guard}")
        out = [Subspace.zero(self.field, self.ambient_dim)]
        for k in range(1, r + 1):
            for piv in itertools.combinations(range(r), k):
                pivset = set(piv)
                free = [(i, c) for i in range(k) for c in range(piv[i] + 1, r)
                        if c not in pivset]
                base = np.zeros((k, r), dtype=np.int64)
                for i, c in enumerate(piv):
                    base[i, c] = 1
                for values in itertools.product(range(p), repeat=len(free)):
                    mat = base.copy()
                    for (pos, val) in zip(free, values):
                        mat[pos] = val
                    space = self.submodule_from_coeffs(mat)
                    if space.dim == k and self.stable(space):
                        out.append(space)
        return out
