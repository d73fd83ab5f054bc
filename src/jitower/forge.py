"""Build level modules from relation modules and verify their advertised properties.

Given a finite group G with d generators, a coprime prime p, a list of
free words and a list of subgroups, this layer computes the exact margin

    delta = 1 - sum_i 1/(ord(w_i)(d-1)) - sum_j |G| / (|H_j| |N_G(H_j)|),

kills the span of every relator power image, the span of every H_j-fixed
space, and the canonical trivial line (the norm vector of copy 0), and
returns the quotient of the relation module.  The surviving module V has
dim V >= (d-1)|G|*delta, carries lifted generators (e_i, t_i), and admits
the order-preservation and fixed-space-vanishing checks that
``verify_conclusions`` re-derives numerically.  Building and loading a
level both derive its module, generators and section through
``derive_level``.

The trivial line is killed in every branch, not only when both lists are
empty: the fixed-space bound needs the killed space to contain a G-fixed
vector, and with words whose exponent sums all vanish mod p the relator
spans alone may miss one.  The dimension bound is unaffected because the
relation module has (d-1)|G| + 1 dimensions to start with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .certificate import CheckResult, FAIL, PASS
from .extension import ExtensionGroup
from .gmodule import GModule
from .groups import GroupHandle, word_image
from .linalg import PrimeField, Subspace
from .relmod import RelationModule, relation_module, relator_power_image

__all__ = [
    "BuildError",
    "ForgeInput",
    "ForgeResult",
    "SubgroupData",
    "compute_delta",
    "build_module",
    "derive_level",
    "splitting_vector",
    "verify_conclusions",
    "section_is_homomorphism",
    "cyclic_subgroup_reps",
    "cyclic_fixed_dims",
]


class BuildError(RuntimeError):
    """The margin delta was not positive and relaxed mode was off."""


@dataclass
class SubgroupData:
    """A subgroup of the base group with the sizes the margin formula needs."""

    generators: tuple
    size: int
    normalizer_size: int

    @classmethod
    def from_elements(cls, group: GroupHandle, elements):
        idxs = group.subgroup_closure(elements)
        return cls(tuple(elements), len(idxs), len(group.normalizer(idxs)))


@dataclass
class ForgeInput:
    group: GroupHandle
    gens: tuple
    field: PrimeField
    words: tuple = ()
    word_orders: tuple = ()        # the order of each word in ``group``
    subgroups: tuple = ()          # SubgroupData entries
    relaxed: bool = False

    @property
    def d(self) -> int:
        return len(self.gens)


@dataclass
class ForgeResult:
    input: ForgeInput
    rel: RelationModule
    module: GModule                # the surviving quotient module V
    delta: Fraction
    gen_vecs: np.ndarray           # d ambient vectors, reduced mod killed
    section_vec: np.ndarray        # A with section(g) = ((1-g)A/|G|, g)
    _extension: ExtensionGroup | None = None

    @property
    def dim(self) -> int:
        return self.module.live_dim

    def extension(self) -> ExtensionGroup:
        """The group V ⋊ G with the lifted generators (e_i, t_i)."""
        if self._extension is None:
            self._extension = ExtensionGroup(
                self.module, gen_vecs=self.gen_vecs, gen_lowers=self.input.gens,
                section_vec=self.section_vec, check=False)
        return self._extension

    @cached_property
    def lifted_orders(self) -> tuple:
        """The order of each listed word in V ⋊ G, evaluated once."""
        ext = self.extension()
        return tuple(ext.element_order(word_image(w, ext.generators, ext.identity))
                     for w in self.input.words)


def compute_delta(group: GroupHandle, d: int, word_orders, subgroups) -> Fraction:
    """The exact rational margin; empty lists give 1."""
    delta = Fraction(1)
    for o in word_orders:
        delta -= Fraction(1, o * (d - 1))
    for h in subgroups:
        delta -= Fraction(group.order, h.size * h.normalizer_size)
    return delta


def splitting_vector(rel: RelationModule) -> np.ndarray:
    """A = sum over h of the tree path P[h], which solves  boundary(a) = h - 1.

    Then (1-g)A/|G| solves the same equation for g, and the induced section
    g -> ((1-g)A/|G|, g) is a homomorphism on the nose.
    """
    return rel.potentials.sum(axis=0) % rel.field.p


def derive_level(rel: RelationModule, killed: Subspace) -> tuple:
    """(V = R/S, the lifted generators e_i reduced mod S, the splitting
    vector) for R = ``rel`` and S = ``killed``; raises ValueError unless S
    is a G-stable subspace of the boundary kernel."""
    module = rel.module.quotient(killed)
    n = rel.group.order
    gen_vecs = module.killed.reduce(np.eye(rel.d * n, dtype=np.int64)[::n])
    return module, gen_vecs, splitting_vector(rel)


def build_module(inp: ForgeInput) -> ForgeResult:
    """Run one forging step; raises BuildError when delta <= 0 in strict use."""
    if len(inp.word_orders) != len(inp.words):
        raise ValueError("ForgeInput needs one base order per word")
    rel = relation_module(inp.group, inp.gens, inp.field)
    module = rel.module
    delta = compute_delta(inp.group, inp.d, inp.word_orders, inp.subgroups)
    if delta <= 0 and not inp.relaxed:
        raise BuildError(f"margin delta = {delta} is not positive")

    killed_rows = [module.norm_vector(0)]
    for w in inp.words:
        u = relator_power_image(w, rel)
        span = module.g_span(u.reshape(1, -1))
        killed_rows.append(span.basis)
    for h in inp.subgroups:
        fixed = module.invariants(h.generators)
        span = module.g_span(fixed.basis)
        killed_rows.append(span.basis)
    killed = Subspace.span(inp.field, module.ambient_dim, np.vstack(
        [np.atleast_2d(r) for r in killed_rows]))
    quotient, gen_vecs, section_vec = derive_level(rel, killed)
    return ForgeResult(inp, rel, quotient, delta, gen_vecs, section_vec)


def cyclic_subgroup_reps(group: GroupHandle) -> list:
    """One generator per distinct cyclic subgroup, identity subgroup included."""
    seen = set()
    reps = []
    elements = group.elements()
    for e in elements:
        idxs = frozenset(group.subgroup_closure([e]))
        if idxs not in seen:
            seen.add(idxs)
            reps.append((e, len(idxs)))
    return reps


def cyclic_fixed_dims(rel: RelationModule, killed: Subspace) -> list:
    """(|K|, dim (R/S)^K) for every cyclic subgroup K of the base group,
    with R = ``rel`` and S = ``killed``; both fixed-space bounds read these."""
    return [(size, rel.quotient_fixed_dim(killed, [e]))
            for e, size in cyclic_subgroup_reps(rel.group)]


def verify_conclusions(result: ForgeResult, prefix: str = "forge") -> list:
    """Re-derive every advertised conclusion numerically.

    Orders of the listed words are recomputed in the extension, and the
    fixed space of every listed subgroup is recomputed on V.  The section
    is a homomorphism on all |G|^2 pairs, checked exhaustively by induction
    on word length: ``section_is_homomorphism`` tests
    sec(g) + g.sec(t) = sec(gt) for every g and each generator t, and the
    identity at (g, h) and (g, t) for all g gives it at (g, ht).  The
    fixed-space bounds over cyclic subgroups are ``tower.fixed_space_checks``.
    """
    inp, rel = result.input, result.rel
    # any representative of the reduced coset has the same boundary image
    ok = all(np.array_equal(rel.derivation(vec), rel.element_delta(g))
             for vec, g in zip(result.gen_vecs, inp.gens))
    checks = [CheckResult(f"{prefix}.generator-derivation", PASS if ok else FAIL,
                          "boundary(e_i) = t_i - 1 for every lifted generator")]

    if inp.words:
        pairs = list(zip(inp.word_orders, result.lifted_orders))
        checks.append(CheckResult(
            f"{prefix}.orders-preserved",
            PASS if all(o == lo for o, lo in pairs) else FAIL,
            f"word orders in V:G vs G: {', '.join(f'{o}->{lo}' for o, lo in pairs)}"))

    if inp.subgroups:
        dims = [result.module.invariants(h.generators).dim for h in inp.subgroups]
        checks.append(CheckResult(f"{prefix}.fixed-vanish",
                                  FAIL if any(dims) else PASS,
                                  f"fixed-space dims on V: {dims}"))

    checks.append(CheckResult(
        f"{prefix}.section-homomorphism",
        PASS if section_is_homomorphism(result.extension(), inp.gens) else FAIL,
        f"section multiplicativity over {inp.group.order ** 2} pairs (exhaustive)"))
    return checks


def section_is_homomorphism(ext: ExtensionGroup, gens) -> bool:
    """Whether sec(gh) = sec(g) + g.sec(h) mod S for all g, h in the base.

    Tested for every g at once at h = each generator t, one batched reduce
    per t; at g = 1 this reads sec(1) = 0.  That covers every pair, S being
    G-stable: sec(g.ht) = sec(gh) + gh.sec(t) = sec(g) + g.(sec(h) + h.sec(t))
    = sec(g) + g.sec(ht), and positive words in the generators reach every
    element, so induction on word length from h = 1 gives all h.
    """
    low, sec = ext.lower, ext._sections
    n = low.order
    lt = low.mult_table()
    pull = lt[low.inverse_table()]     # g.v takes coordinate (j, e) from (j, g^-1 e)
    for t in map(low.index_of, gens):
        acted = sec[t].reshape(-1, n)[:, pull].transpose(1, 0, 2).reshape(n, -1)
        if not np.array_equal(ext.module.killed.reduce(sec + acted), sec[lt[:, t]]):
            return False
    return True
