"""Free-group words, the order budget, and Fox derivatives.

Letters are nonzero integers: ``+i`` is the i-th basis letter, ``-i`` its
inverse (1-based).  Words are always stored freely reduced.  The
enumeration order used everywhere is (length, lexicographic) with the
alphabet ordered ``x1 < x1^-1 < x2 < x2^-1 < ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Word",
    "OrderBudget",
    "FormalSum",
    "enumerate_words",
    "word_count",
    "ball_size",
    "fox_vector",
    "fox_eval",
    "fox_identity_defect",
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


class FormalSum:
    """An element of the group algebra F_p[G] with explicitly listed terms.

    Terms map group elements to nonzero residues mod p; zero coefficients
    are dropped on construction.  Group elements must be hashable and
    support ``*`` within their group.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for g, c in items:
            c = (data.get(g, 0) + int(c)) % p
            if c:
                data[g] = c
            else:
                data.pop(g, None)
        self.p = p
        self.terms = data

    @classmethod
    def one(cls, p: int, identity) -> "FormalSum":
        return cls(p, {identity: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = dict(self.terms)
        for g, c in other.terms.items():
            c = (out.get(g, 0) + c) % self.p
            if c:
                out[g] = c
            else:
                out.pop(g, None)
        return FormalSum(self.p, out)

    def __neg__(self) -> "FormalSum":
        return FormalSum(self.p, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def scaled(self, c: int) -> "FormalSum":
        return FormalSum(self.p, {g: v * c for g, v in self.terms.items()})

    def translated(self, g) -> "FormalSum":
        """Left multiplication by a group element."""
        return FormalSum(self.p, {g * h: c for h, c in self.terms.items()})

    def __mul__(self, other: "FormalSum") -> "FormalSum":
        out = {}
        for g, a in self.terms.items():
            for h, b in other.terms.items():
                k = g * h
                out[k] = (out.get(k, 0) + a * b) % self.p
        return FormalSum(self.p, out)

    def __eq__(self, other):
        return (isinstance(other, FormalSum) and other.p == self.p
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "FormalSum(0)"
        body = " + ".join(f"{c}*{g!r}" for g, c in self.terms.items())
        return f"FormalSum({body})"


def _bump(d: dict, g, c: int, p: int):
    c = (d.get(g, 0) + c) % p
    if c:
        d[g] = c
    else:
        d.pop(g, None)


def fox_vector(word: Word, images, identity, p: int):
    """All Fox derivatives of ``word`` pushed into F_p[G].

    ``images[i]`` is the target of the (i+1)-st basis letter under a
    homomorphism from the free group (any assignment extends to one).
    Returns ``(sums, value)`` where ``sums[i]`` is the evaluated derivative
    with respect to the (i+1)-st letter and ``value`` is the image of the
    whole word.

    The defining rules: the derivative of x_j with respect to x_i is
    delta_ij, of x_j^-1 it is -delta_ij * images[j]^-1, and products follow
    d(uv) = d(u) + u * d(v).
    """
    d = len(images)
    sums = [dict() for _ in range(d)]
    prefix = identity
    for x in word.letters:
        j = abs(x) - 1
        if j >= d:
            raise ValueError(f"letter {x} out of range [1, {d}]")
        if x > 0:
            _bump(sums[j], prefix, 1, p)
            prefix = prefix * images[j]
        else:
            prefix = prefix * images[j].inverse()
            _bump(sums[j], prefix, -1, p)
    return [FormalSum(p, s) for s in sums], prefix


def fox_eval(word: Word, i: int, images, identity, p: int) -> FormalSum:
    """The evaluated Fox derivative of ``word`` with respect to letter i (1-based)."""
    sums, _ = fox_vector(word, images, identity, p)
    return sums[i - 1]


def fox_identity_defect(word: Word, images, identity, p: int) -> FormalSum:
    """sum_i (dw/dx_i)(x_i - 1) - (w - 1) in F_p[G]; zero for every word."""
    sums, value = fox_vector(word, images, identity, p)
    total = FormalSum(p)
    for s, g in zip(sums, images):
        # pair lists, not dict literals: g may equal the identity
        total = total + s * FormalSum(p, [(g, 1), (identity, -1)])
    return total - FormalSum(p, [(value, 1), (identity, -1)])
