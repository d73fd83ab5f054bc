"""Finite groups: multiplication-table groups, seed files, subgroup closures.

Every enumerable group exposes a deterministic element order, an index map,
and a full multiplication table (numpy, ``table[i, j] = index of e_i * e_j``).
Element orders come from the group's structure, never from powering: a
table group walks each element's cycle once, and a split extension reads
the order off the lower level and one norm element (see ``extension``).
The index-based helpers at the bottom implement subgroup closure, normal
closure, normalizers and full subgroup lattices directly on such tables.
"""

from __future__ import annotations

import math

import numpy as np

from .words import Word

__all__ = [
    "CapExceeded",
    "TABLE_CAP",
    "GroupHandle",
    "TableElement",
    "TableGroup",
    "word_image",
    "word_images",
    "closure_indices",
    "normal_closure_indices",
    "product_set_indices",
    "is_normal_indices",
    "normalizer_indices",
    "all_subgroups_indices",
]

DEFAULT_ENUM_CAP = 10 ** 6
# the largest split extension whose multiplication table is built: 8192^2
# int64 entries are 512 MiB
TABLE_CAP = 8192


class CapExceeded(RuntimeError):
    """An enumeration or lattice guard was hit."""


class GroupHandle:
    """Common interface for finite groups with a designated generating tuple.

    Subclasses set ``order``, ``generators`` and ``identity`` and define
    ``exponent()``, ``elements()``, ``index_of()``, ``mult_table()``,
    ``inverse_table()`` and ``_order(a)``, the structural order of one
    element.
    """

    kind = "abstract"
    name = ""

    def element_order(self, a) -> int:
        """Order of ``a``, from the group kind's ``_order``."""
        return self._order(a)

    def is_enumerable(self, cap: int = DEFAULT_ENUM_CAP) -> bool:
        return self.order <= cap

    # index-based convenience wrappers

    def subgroup_closure(self, elements) -> tuple:
        idxs = [self.index_of(e) for e in elements]
        return tuple(closure_indices(self.mult_table(), idxs).tolist())

    def normal_closure(self, seeds) -> tuple:
        """Smallest normal subgroup containing ``seeds``, as sorted indices."""
        idxs = [self.index_of(e) for e in seeds]
        return tuple(normal_closure_indices(
            self.mult_table(), self.inverse_table(), idxs).tolist())

    def normalizer(self, sub_indices) -> tuple:
        return tuple(normalizer_indices(
            self.mult_table(), self.inverse_table(),
            np.asarray(sorted(sub_indices), dtype=np.int64)).tolist())

    def all_subgroups(self, limit: int | None = None) -> list:
        return all_subgroups_indices(
            self.mult_table(), self.inverse_table(), limit=limit)

    def __repr__(self):
        label = self.name or self.kind
        return f"<{type(self).__name__} {label} order={self.order}>"


class TableElement:
    __slots__ = ("group", "idx")

    def __init__(self, group: "TableGroup", idx: int):
        self.group = group
        self.idx = int(idx)

    def __mul__(self, other: "TableElement") -> "TableElement":
        if other.group is not self.group:
            raise ValueError("elements belong to different groups")
        return TableElement(self.group, self.group.table[self.idx, other.idx])

    def inverse(self) -> "TableElement":
        return TableElement(self.group, self.group._inv[self.idx])

    def __eq__(self, other):
        return (isinstance(other, TableElement)
                and other.group is self.group and other.idx == self.idx)

    def __hash__(self):
        return hash((id(self.group), self.idx))

    def __repr__(self):
        return f"g{self.idx}"


class TableGroup(GroupHandle):
    """A finite group given by an explicit multiplication table.

    Index 0 must be the identity.  ``gens`` designates the generating tuple
    used by towers (for a seed group this is the list from the seed file).
    """

    kind = "table"

    def __init__(self, table, gens=(), name="table", check=True):
        t = np.asarray(table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("multiplication table must be square")
        n = t.shape[0]
        if check:
            self._validate(t, n)
        self.table = t
        self.name = name
        self.order = n
        idx = np.argwhere(t == 0)
        inv = np.empty(n, dtype=np.int64)
        inv[idx[:, 0]] = idx[:, 1]
        self._inv = inv
        gens = tuple(int(g) for g in gens)
        for g in gens:
            if not 0 <= g < n:
                raise ValueError(f"generator index {g} out of range")
        if check and gens:
            reach = closure_indices(t, gens)
            if reach.size != n:
                raise ValueError("designated generators do not generate")
        self._gen_idx = gens
        self.generators = tuple(TableElement(self, g) for g in gens)
        self._elements = None
        self._orders = None

    @staticmethod
    def _validate(t, n):
        if np.any(t < 0) or np.any(t >= n):
            raise ValueError("table entries out of range")
        if not np.array_equal(t[0], np.arange(n)) or not np.array_equal(t[:, 0], np.arange(n)):
            raise ValueError("index 0 must be the identity")
        ar = np.arange(n)
        if not np.array_equal(np.sort(t, axis=1), np.tile(ar, (n, 1))):
            raise ValueError("table rows are not permutations")
        if not np.array_equal(np.sort(t, axis=0), np.tile(ar.reshape(-1, 1), (1, n))):
            raise ValueError("table columns are not permutations")
        if not np.any(t == 0, axis=1).all():
            raise ValueError("some element has no inverse")
        # spot-check associativity on a deterministic sample
        rng = np.random.default_rng(0)
        m = min(n, 12)
        sample = rng.integers(0, n, size=(max(200, m ** 3 if n <= 12 else 0), 3))
        if n <= 12:
            sample = np.array([(a, b, c) for a in range(n) for b in range(n)
                               for c in range(n)])
        a, b, c = sample[:, 0], sample[:, 1], sample[:, 2]
        if not np.array_equal(t[t[a, b], c], t[a, t[b, c]]):
            raise ValueError("table is not associative")

    @property
    def identity(self) -> TableElement:
        return TableElement(self, 0)

    def element(self, idx: int) -> TableElement:
        if not 0 <= idx < self.order:
            raise ValueError("element index out of range")
        return TableElement(self, idx)

    def elements(self, cap: int = DEFAULT_ENUM_CAP) -> list:
        if self.order > cap:
            raise CapExceeded(f"order {self.order} exceeds enumeration cap {cap}")
        if self._elements is None:
            self._elements = [TableElement(self, i) for i in range(self.order)]
        return self._elements

    def index_of(self, e: TableElement) -> int:
        if e.group is not self:
            raise ValueError("element belongs to a different group")
        return e.idx

    def mult_table(self) -> np.ndarray:
        return self.table

    def inverse_table(self) -> np.ndarray:
        return self._inv

    def _element_orders(self) -> np.ndarray:
        """Order of every element by index, from one cycle walk over the
        table: all elements are powered together until each reaches 1."""
        if self._orders is None:
            power = np.arange(self.order)
            orders = np.ones(self.order, dtype=np.int64)
            running = np.flatnonzero(power)
            while running.size:
                power[running] = self.table[power[running], running]
                orders[running] += 1
                running = running[power[running] != 0]
            orders.setflags(write=False)
            self._orders = orders
        return self._orders

    def _order(self, a: TableElement) -> int:
        return int(self._element_orders()[self.index_of(a)])

    def exponent(self) -> int:
        return math.lcm(*self._element_orders().tolist())

    # constructors

    @classmethod
    def trivial(cls, n_gens: int = 0) -> "TableGroup":
        return cls(np.zeros((1, 1), dtype=np.int64), gens=(0,) * n_gens,
                   name="trivial")

    @classmethod
    def cyclic(cls, n: int, gens=(1,)) -> "TableGroup":
        i = np.arange(n)
        table = (i.reshape(-1, 1) + i) % n
        return cls(table, gens=gens if n > 1 else (0,) * len(gens), name=f"C{n}")

    @classmethod
    def from_permutations(cls, perms, gens=(), name="perm") -> "TableGroup":
        """Group of the given permutation tuples (identity must come first)."""
        perms = [tuple(p) for p in perms]
        index = {p: i for i, p in enumerate(perms)}
        n = len(perms)
        table = np.zeros((n, n), dtype=np.int64)
        for i, a in enumerate(perms):
            for j, b in enumerate(perms):
                table[i, j] = index[tuple(a[b[k]] for k in range(len(a)))]
        return cls(table, gens=gens, name=name)

    @classmethod
    def symmetric(cls, n: int) -> "TableGroup":
        """The symmetric group on n points, elements in lexicographic order."""
        import itertools
        perms = sorted(itertools.permutations(range(n)))
        group = cls.from_permutations(perms, name=f"S{n}")
        if n >= 2:
            swap = (1, 0) + tuple(range(2, n))
            cycle = tuple(range(1, n)) + (0,)
            lookup = {tuple(p): i for i, p in enumerate(perms)}
            group = cls(group.table, gens=(lookup[swap], lookup[cycle]),
                        name=f"S{n}")
        return group

    @classmethod
    def direct_product(cls, a: "TableGroup", b: "TableGroup", name=None) -> "TableGroup":
        na, nb = a.order, b.order
        ia = np.repeat(np.arange(na), nb)
        ib = np.tile(np.arange(nb), na)
        table = a.table[ia][:, ia] * nb + b.table[ib][:, ib]
        gens = tuple(g * nb for g in a._gen_idx) + tuple(b._gen_idx)
        return cls(table, gens=gens, name=name or f"{a.name}x{b.name}")

    @classmethod
    def from_file(cls, path) -> "TableGroup":
        """Seed file: first line n, then n table rows, then the generator line."""
        lines = []
        with open(path) as fh:
            for raw in fh:
                s = raw.strip()
                if s and not s.startswith("#"):
                    lines.append(s)
        if not lines:
            raise ValueError("empty seed file")
        n = int(lines[0])
        if len(lines) != n + 2:
            raise ValueError(f"seed file needs {n} table rows plus a generator line")
        rows = [[int(x) for x in line.split()] for line in lines[1:n + 1]]
        for row in rows:
            if len(row) != n:
                raise ValueError("seed table row has wrong length")
        gens = tuple(int(x) for x in lines[n + 1].split())
        return cls(np.array(rows, dtype=np.int64), gens=gens, name="seed")

    def to_file(self, path):
        with open(path, "w") as fh:
            fh.write(f"{self.order}\n")
            for row in self.table:
                fh.write(" ".join(str(int(x)) for x in row) + "\n")
            fh.write(" ".join(str(g) for g in self._gen_idx) + "\n")


def word_image(word, generators, identity):
    """Image of a free word under the homomorphism sending letters to generators."""
    out = identity
    for x in word.letters:
        g = generators[abs(x) - 1]
        out = out * (g if x > 0 else g.inverse())
    return out


def word_images(generators, identity, max_len):
    """(word, image) for every reduced word of length <= max_len, depth first
    over the word trie in the alphabet order of ``words``: a child's image is
    its parent's times one letter, and only the current path is alive."""
    steps = [(s * i, g if s > 0 else g.inverse())
             for i, g in enumerate(generators, 1) for s in (1, -1)]

    def walk(letters, image):
        yield Word(letters), image
        if len(letters) < max_len:
            for x, g in steps:
                if not letters or letters[-1] != -x:
                    yield from walk(letters + (x,), image * g)
    return walk((), identity)


# index-based subgroup machinery


def closure_indices(table: np.ndarray, gens) -> np.ndarray:
    """Sorted indices of the subgroup generated by ``gens`` (identity included)."""
    n = table.shape[0]
    gens = sorted({int(g) for g in gens})
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        x = stack.pop()
        for g in gens:
            y = table[x, g]
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return np.flatnonzero(seen)


def normal_closure_indices(table: np.ndarray, inv: np.ndarray, seeds) -> np.ndarray:
    """Sorted indices of the smallest normal subgroup containing ``seeds``."""
    n = table.shape[0]
    allx = np.arange(n)
    gens = {int(s) for s in seeds}
    while True:
        sub = closure_indices(table, gens)
        members = np.zeros(n, dtype=bool)
        members[sub] = True
        new = set()
        for h in sub.tolist():
            conj = table[table[allx, h], inv[allx]]
            for y in np.unique(conj[~members[conj]]).tolist():
                new.add(int(y))
        if not new:
            return sub
        gens |= new


def product_set_indices(table: np.ndarray, a, b) -> np.ndarray:
    a = np.asarray(list(a), dtype=np.int64)
    b = np.asarray(list(b), dtype=np.int64)
    return np.unique(table[np.ix_(a, b)])


def is_normal_indices(table: np.ndarray, inv: np.ndarray, sub) -> bool:
    s = np.asarray(sorted(sub), dtype=np.int64)
    n = table.shape[0]
    members = np.zeros(n, dtype=bool)
    members[s] = True
    allx = np.arange(n)
    for h in s.tolist():
        conj = table[table[allx, h], inv[allx]]
        if not members[conj].all():
            return False
    return True


def normalizer_indices(table: np.ndarray, inv: np.ndarray, sub: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    members = np.zeros(n, dtype=bool)
    members[sub] = True
    out = []
    for x in range(n):
        conj = table[table[x, sub], inv[x]]
        if members[conj].all():
            out.append(x)
    return np.asarray(out, dtype=np.int64)


def all_subgroups_indices(table: np.ndarray, inv: np.ndarray,
                          limit: int | None = None) -> list:
    """Every subgroup as a sorted index tuple, found by closure BFS.

    Intended for small groups (full lattices of the seed-sized test groups);
    ``limit`` caps the number of subgroups discovered.
    """
    n = table.shape[0]
    if n > 512:
        raise CapExceeded(f"subgroup lattice search capped at order 512, got {n}")
    trivial = (0,)
    found = {trivial}
    frontier = [trivial]
    while frontier:
        sub = frontier.pop()
        inside = set(sub)
        for g in range(1, n):
            if g in inside:
                continue
            new = tuple(closure_indices(table, set(sub) | {g}).tolist())
            if new not in found:
                found.add(new)
                frontier.append(new)
                if limit is not None and len(found) > limit:
                    raise CapExceeded("subgroup lattice larger than limit")
    return sorted(found, key=lambda s: (len(s), s))
