"""Split extensions V ⋊ G carried on explicit module data.

An element is a pair (vec, lower): ``vec`` is a canonical ambient module
vector of the top level and ``lower`` an element of the base group, with
multiplication (u, g)(w, h) = (u + g.w, gh).  The identity has all-zero
coordinates and the inverse of (u, g) is (-g^-1.u, g^-1).

Orders need no powering.  For x = (v, g) with k = ord(g) in the base,
x^k = (N_g v, 1) with the norm element N_g = 1 + g + ... + g^(k-1), and a
nonzero module element has order p.  So ord x is k when N_g v lies in the
killed space and k*p otherwise; ord g comes from the base group the same
way, down to the table group at the bottom.

A group may carry a section vector A; the section
``sigma(g) = ((1 - g).A / |G|, g)`` is then a group homomorphism from the
base into the extension, and ``vpart`` converts an element into split
coordinates (its offset from the section).  Towers use this to translate
between the multiplicative coordinates their generators live in and the
module coordinates the analysis layer wants.  With no section vector the
zero section is used, which is the natural choice for plain semidirect
products.
"""

from __future__ import annotations

import numpy as np

from .groups import CapExceeded, DEFAULT_ENUM_CAP, TABLE_CAP, GroupHandle
from .gmodule import GModule

__all__ = ["ExtElement", "ExtensionGroup"]


class ExtElement:
    __slots__ = ("group", "vec", "lower", "_hash")

    def __init__(self, group: "ExtensionGroup", vec: np.ndarray, lower):
        self.group = group
        vec = np.asarray(vec, dtype=np.int64)
        vec.setflags(write=False)
        self.vec = vec
        self.lower = lower
        self._hash = None

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        g = self.group
        if not isinstance(other, ExtElement) or other.group is not g:
            raise ValueError("elements belong to different groups")
        return g._mul(self, other)

    def inverse(self) -> "ExtElement":
        return self.group._inverse(self)

    def __eq__(self, other):
        return (isinstance(other, ExtElement) and other.group is self.group
                and np.array_equal(other.vec, self.vec) and other.lower == self.lower)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vec.tobytes(), self.lower))
        return self._hash

    def __repr__(self):
        return f"({self.vec.tolist()}, {self.lower!r})"


class ExtensionGroup(GroupHandle):
    """The split extension of ``module.group`` by the live part of ``module``."""

    kind = "extension"

    def __init__(self, module: GModule, gen_vecs=None, gen_lowers=None,
                 section_vec=None, name: str = "", check: bool = True):
        self.module = module
        self.lower = module.group
        self.field = module.field
        self.name = name or f"V:{self.lower.name}"
        p = self.field.p
        n_low = self.lower.order
        self.order = n_low * p ** module.live_dim

        if section_vec is None:
            sections = np.zeros((n_low, module.ambient_dim), dtype=np.int64)
        else:
            a = module.killed.reduce(np.asarray(section_vec, dtype=np.int64))
            inv_order = pow(n_low % p, -1, p)
            rows = [((a - module.act(g, a)) * inv_order) % p for g in range(n_low)]
            sections = module.killed.reduce(np.asarray(rows, dtype=np.int64))
        sections.setflags(write=False)
        self._sections = sections
        self.section_vec = (None if section_vec is None
                            else np.asarray(section_vec, dtype=np.int64) % p)

        if gen_lowers is None:
            gen_lowers = tuple(self.lower.generators)
        if gen_vecs is None:
            gens = [self.section(g) for g in gen_lowers]
            gens += [ExtElement(self, row, self.lower.identity)
                     for row in module.live.basis]
        else:
            gen_vecs = module.killed.reduce(
                np.asarray(gen_vecs, dtype=np.int64).reshape(len(gen_lowers), -1))
            gens = [ExtElement(self, v, g) for v, g in zip(gen_vecs, gen_lowers)]
        self.generators = tuple(gens)
        self._check_generation = check
        self._elements = None
        self._index = None
        self._table = None
        self._inv_table = None

    # structure

    @property
    def identity(self) -> ExtElement:
        return ExtElement(self, np.zeros(self.module.ambient_dim, dtype=np.int64),
                          self.lower.identity)

    def exponent(self) -> int:
        p = self.field.p
        return self.lower.exponent() * (p if self.module.live_dim else 1)

    def _order(self, a: ExtElement) -> int:
        """k = ord(a.lower), times p unless the norm element N_g v is killed
        (see the module docstring)."""
        k = self.lower.element_order(a.lower)
        norm = self.module.orbit_sum(a.lower, a.vec, k)
        return k if self.module.killed.contains(norm) else k * self.field.p

    def section(self, g_lower) -> ExtElement:
        """The homomorphic section of the base group into this extension."""
        return ExtElement(self, self._sections[self.lower.index_of(g_lower)], g_lower)

    def vpart(self, e: ExtElement) -> np.ndarray:
        """Split module coordinates: the offset of ``e`` from the section."""
        s = self._sections[self.lower.index_of(e.lower)]
        return (e.vec - s) % self.field.p

    def from_vpart(self, lower, v) -> ExtElement:
        vec = self.module.killed.reduce(
            self._sections[self.lower.index_of(lower)] + np.asarray(v, dtype=np.int64))
        return ExtElement(self, vec, lower)

    def from_coeffs(self, lower, coeffs) -> ExtElement:
        v = np.asarray(coeffs, dtype=np.int64) @ self.module.live.basis % self.field.p
        return self.from_vpart(lower, v)

    # arithmetic

    def _mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        mod = self.module
        g = self.lower.index_of(a.lower)
        vec = mod.killed.reduce(a.vec + mod.act_raw(g, b.vec))
        return ExtElement(self, vec, a.lower * b.lower)

    def _inverse(self, a: ExtElement) -> ExtElement:
        mod = self.module
        low = a.lower.inverse()
        vec = mod.killed.reduce(-mod.act_raw(self.lower.index_of(low), a.vec))
        return ExtElement(self, vec, low)

    # enumeration

    def _coeff_digits(self) -> np.ndarray:
        r = self.module.live_dim
        p = self.field.p
        nvec = p ** r
        digits = np.zeros((nvec, r), dtype=np.int64)
        idx = np.arange(nvec)
        for k in range(r - 1, -1, -1):
            digits[:, k] = idx % p
            idx = idx // p
        return digits

    def elements(self, cap: int = DEFAULT_ENUM_CAP) -> list:
        """All elements, lower-major then coefficient-lexicographic."""
        if self.order > cap:
            raise CapExceeded(f"order {self.order} exceeds enumeration cap {cap}")
        if self._elements is None:
            digits = self._coeff_digits()
            vecs = digits @ self.module.live.basis % self.field.p
            out = []
            for li, g in enumerate(self.lower.elements(cap)):
                base = self._sections[li]
                for v in vecs:
                    out.append(ExtElement(self, (base + v) % self.field.p, g))
            self._elements = out
            self._index = {e: i for i, e in enumerate(out)}
            if self._check_generation and self.generators:
                from .groups import closure_indices
                reach = closure_indices(self.mult_table(),
                                        [self._index[g] for g in self.generators])
                if reach.size != self.order:
                    raise ValueError("designated generators do not generate")
                self._check_generation = False
        return self._elements

    def index_of(self, e: ExtElement) -> int:
        if self._index is None:
            self.elements()
        i = self._index.get(e)
        if i is None:
            raise ValueError("element is not part of this group")
        return i

    def mult_table(self) -> np.ndarray:
        if self._table is None:
            p = self.field.p
            r = self.module.live_dim
            nvec = p ** r
            n_low = self.lower.order
            if self.order > TABLE_CAP:
                raise CapExceeded(f"multiplication table of order {self.order} "
                                  f"exceeds the table cap {TABLE_CAP}")
            lt = self.lower.mult_table()
            digits = self._coeff_digits()
            radix = p ** np.arange(r - 1, -1, -1, dtype=np.int64)
            add = ((digits[:, None, :] + digits[None, :, :]) % p) @ radix \
                if r else np.zeros((1, 1), dtype=np.int64)
            table = np.empty((self.order, self.order), dtype=np.int64)
            for g in range(n_low):
                act_g = (digits @ self.module.action_matrix(g) % p) @ radix \
                    if r else np.zeros(1, dtype=np.int64)
                add_g = add[:, act_g]
                for h in range(n_low):
                    block = lt[g, h] * nvec + add_g
                    table[g * nvec:(g + 1) * nvec, h * nvec:(h + 1) * nvec] = block
            self._table = table
        return self._table

    def inverse_table(self) -> np.ndarray:
        if self._inv_table is None:
            t = self.mult_table()
            idx = np.argwhere(t == 0)
            inv = np.empty(self.order, dtype=np.int64)
            inv[idx[:, 0]] = idx[:, 1]
            self._inv_table = inv
        return self._inv_table
