"""Exact dense linear algebra over prime fields.

Matrices are numpy ``int64`` arrays with entries in ``[0, p)``.  Row
reduction always takes the first nonzero entry in column order, so every
reduced form (and every basis derived from one) is unique and reproducible
bit for bit.  That determinism is what makes serialized towers and
certificates diffable.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PrimeField",
    "Subspace",
    "matrix",
    "rref",
    "kernel_basis",
    "solve_batch",
]

# p*p*dim must stay inside int64 for the dot products used below.
MAX_MODULUS = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The prime field F_p; primality is checked by trial division."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p >= MAX_MODULUS:
            raise ValueError(f"modulus {p} exceeds supported bound {MAX_MODULUS}")
        self.p = p

    def inv(self, a: int) -> int:
        return pow(int(a) % self.p, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def matrix(rows, p: int) -> np.ndarray:
    """Normalize a nested sequence into an int64 matrix with entries mod p."""
    a = np.array(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("matrix() expects a two-dimensional array of entries")
    return a % p


def rref(mat: np.ndarray, p: int):
    """Reduced row echelon form of ``mat`` over F_p.

    Returns ``(r, pivots, rank)``.  ``r`` has the same shape as the input
    (zero rows collect at the bottom) and ``pivots`` lists the pivot columns
    in increasing order.  Pivot choice is deterministic: the first nonzero
    entry in column order.
    """
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("rref() expects a matrix")
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivots.append(c)
        r += 1
    return a, tuple(pivots), r


class Subspace:
    """A subspace of F_p^n held as a reduced-row-echelon basis.

    Instances are immutable value objects: two subspaces are equal exactly
    when their canonical bases coincide.  ``reduce`` maps a vector to the
    canonical representative of its coset, the unique member of the coset
    with zeros in every pivot coordinate.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: PrimeField, ambient_dim: int, basis, pivots):
        self.field = field
        self.ambient_dim = int(ambient_dim)
        b = np.asarray(basis, dtype=np.int64)
        if b.ndim != 2 or b.shape[1] != self.ambient_dim:
            raise ValueError("basis shape does not match ambient dimension")
        b.setflags(write=False)
        self.basis = b
        self.pivots = tuple(int(c) for c in pivots)

    @classmethod
    def span(cls, field: PrimeField, ambient_dim: int, rows) -> "Subspace":
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            rows = rows.reshape(0, ambient_dim)
        rows = rows.reshape(-1, ambient_dim) % field.p
        r, piv, rank = rref(rows, field.p)
        return cls(field, ambient_dim, r[:rank].copy(), piv)

    @classmethod
    def zero(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64), ())

    @classmethod
    def full(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, np.eye(ambient_dim, dtype=np.int64),
                   range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _check(self, v: np.ndarray):
        if v.shape[-1] != self.ambient_dim:
            raise ValueError(
                f"vector length {v.shape[-1]} != ambient dimension {self.ambient_dim}")

    def reduce(self, v) -> np.ndarray:
        """Canonical coset representative of ``v`` modulo this subspace.

        Accepts a single vector or a matrix of row vectors.  Linear, so it
        is also the projection onto the pivot-free coordinate space.
        """
        p = self.field.p
        v = np.asarray(v, dtype=np.int64) % p
        self._check(v)
        if self.dim == 0:
            return v
        return (v - v[..., self.pivots] @ self.basis) % p

    def contains(self, v) -> bool:
        return not np.any(self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        if other.dim == 0:
            return True
        return not np.any(self.reduce(other.basis))

    def sum(self, other: "Subspace") -> "Subspace":
        if other.field != self.field or other.ambient_dim != self.ambient_dim:
            raise ValueError("subspaces live over different ambients")
        rows = np.vstack([self.basis, other.basis])
        return Subspace.span(self.field, self.ambient_dim, rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and other.field == self.field
                and other.ambient_dim == self.ambient_dim
                and other.basis.shape == self.basis.shape
                and np.array_equal(other.basis, self.basis))

    def __hash__(self):
        return hash((self.field.p, self.ambient_dim, self.basis.tobytes()))

    def __repr__(self):
        return (f"Subspace(p={self.field.p}, ambient={self.ambient_dim}, "
                f"dim={self.dim})")


def kernel_basis(mat, field: PrimeField) -> Subspace:
    """The solution space ``{v : mat @ v = 0}`` as a canonical Subspace."""
    a = np.asarray(mat, dtype=np.int64) % field.p
    rows, cols = a.shape
    r, piv, rank = rref(a, field.p)
    pivset = set(piv)
    free = [c for c in range(cols) if c not in pivset]
    # one vector per free column f: 1 at f, -r[i, f] at the i-th pivot
    vecs = np.zeros((len(free), cols), dtype=np.int64)
    vecs[np.arange(len(free)), free] = 1
    vecs[:, list(piv)] = -r[:rank, free].T % field.p
    return Subspace.span(field, cols, vecs)


def solve_batch(mat, targets, p: int) -> np.ndarray:
    """Particular solutions X (free coordinates zero) with ``mat @ X = targets``.

    ``targets`` holds one right-hand side per column.  Raises ValueError if
    any column lies outside the column span of ``mat``.
    """
    a = np.asarray(mat, dtype=np.int64) % p
    b = np.asarray(targets, dtype=np.int64) % p
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.shape[0] != a.shape[0]:
        raise ValueError("target rows do not match matrix rows")
    n = a.shape[1]
    r, piv, rank = rref(np.hstack([a, b]), p)
    bad = [c - n for c in piv if c >= n]
    if bad:
        raise ValueError(f"inconsistent system for target columns {bad}")
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for i, c in enumerate(piv):
        x[c] = r[i, n:]
    return x
