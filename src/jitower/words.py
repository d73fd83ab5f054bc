"""Free-group words, the order budget, and Fox vectors.

Letters are nonzero integers: ``+i`` is the i-th basis letter, ``-i`` its
inverse (1-based).  Words are always stored freely reduced.  The
enumeration order used everywhere is (length, lexicographic) with the
alphabet ordered ``x1 < x1^-1 < x2 < x2^-1 < ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Word",
    "OrderBudget",
    "enumerate_words",
    "word_count",
    "ball_size",
    "fox_vector",
]


def _free_reduce(seq) -> tuple:
    out = []
    for x in seq:
        x = int(x)
        if x == 0:
            raise ValueError("letter 0 is not a generator index")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty word is the identity."""

    letters: tuple = ()

    @staticmethod
    def make(seq, rank: int | None = None) -> "Word":
        letters = _free_reduce(seq)
        if rank is not None:
            for x in letters:
                if abs(x) > rank:
                    raise ValueError(f"letter {x} out of range [1, {rank}]")
        return Word(letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(_free_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        out = Word()
        for _ in range(n):
            out = out * self
        return out

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        if not self.letters:
            return "Word(1)"
        parts = [f"x{x}" if x > 0 else f"x{-x}^-1" for x in self.letters]
        return "Word(" + "*".join(parts) + ")"


def word_count(rank: int, length: int) -> int:
    """Number of freely reduced words of exactly the given length."""
    if length == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (length - 1)


def ball_size(rank: int, max_len: int) -> int:
    """Number of freely reduced words of length <= max_len."""
    return sum(word_count(rank, n) for n in range(max_len + 1))


def enumerate_words(rank: int, max_len: int) -> list:
    """All freely reduced words of length <= max_len in (length, lex) order."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]  # x1 < x1^-1 < ...
    out = [Word()]
    layer = [()]
    for _ in range(max_len):
        nxt = []
        for w in layer:
            for x in alphabet:
                if w and w[-1] == -x:
                    continue
                nxt.append(w + (x,))
        layer = nxt
        out.extend(Word(t) for t in layer)
    return out


@dataclass(frozen=True)
class OrderBudget:
    """The geometric budget o(w) = scale * base**len(w).

    The tail sum over all nonidentity reduced words of rank d is the
    geometric series (2d / (scale*base)) * sum_{n>=0} ((2d-1)/base)^n, which
    converges exactly when base > 2d-1 and then equals
    2d / (scale * (base - 2d + 1)).
    """

    scale: int
    base: int

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("budget scale must be a positive integer")
        if self.base < 2:
            raise ValueError("budget base must be at least 2")

    def of(self, w: Word) -> int:
        return self.scale * self.base ** len(w)

    def of_length(self, n: int) -> int:
        return self.scale * self.base ** n

    def tail_sum(self, rank: int) -> Fraction:
        if self.base <= 2 * rank - 1:
            raise ValueError(
                f"budget base {self.base} <= 2d-1 = {2 * rank - 1}: series diverges")
        return Fraction(2 * rank, self.scale * (self.base - (2 * rank - 1)))

    def admissible(self, rank: int, epsilon: Fraction) -> bool:
        """Whether the tail sum stays within epsilon/2.

        The comparison is non-strict: the stock scale=16, base=8, d=2 budget
        sits exactly at the boundary for epsilon = 1/10 and is accepted.
        """
        epsilon = Fraction(epsilon)
        if not Fraction(0) < epsilon < Fraction(1, 4):
            raise ValueError("epsilon must lie in (0, 1/4)")
        return self.tail_sum(rank) <= epsilon / 2


def fox_vector(word: Word, group, gen_idxs, p: int):
    """All Fox derivatives of ``word`` pushed into F_p[G], as one walk.

    ``gen_idxs[i]`` is the index in ``group`` of the image of the (i+1)-st
    basis letter under a homomorphism from the free group (any assignment
    extends to one).  Returns ``(vec, image)``: ``vec`` is the flat
    ``d*|G|`` coordinate vector mod p whose copy i holds the evaluated
    derivative with respect to the (i+1)-st letter, and ``image`` is the
    index of the whole word's image.

    The defining rules: the derivative of x_j with respect to x_i is
    delta_ij, of x_j^-1 it is -delta_ij * images[j]^-1, and products follow
    d(uv) = d(u) + u * d(v).  So a letter x_j adds +1 at the prefix image
    before it and x_j^-1 adds -1 at the prefix image after it, both in copy
    j; the prefix moves through the group's multiplication and inverse
    tables.
    """
    table, inv = group.mult_table(), group.inverse_table()
    n, d = group.order, len(gen_idxs)
    vec = np.zeros(d * n, dtype=np.int64)
    prefix = 0
    for x in word.letters:
        j = abs(x) - 1
        if j >= d:
            raise ValueError(f"letter {x} out of range [1, {d}]")
        if x > 0:
            vec[j * n + prefix] += 1
            prefix = table[prefix, gen_idxs[j]]
        else:
            prefix = table[prefix, inv[gen_idxs[j]]]
            vec[j * n + prefix] -= 1
    return vec % p, int(prefix)
