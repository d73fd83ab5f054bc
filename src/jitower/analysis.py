"""Normal-subgroup classification, growth counting, graded chains.

Normal subgroups of a split extension V ⋊ G with p coprime to |G| are
exactly the pairs W ⋊ N with N normal in G, W a submodule of V, and N
acting trivially on V/W (equivalently, (N-1)V contained in W).  Applying
the statement level by level classifies every normal subgroup of a tower
group as a chain of module subspaces over a normal subgroup of the seed;
its index is the product of p^codim over the levels times the seed index.

Everything here is cross-checkable: ``brute_force_normals`` enumerates
normal subgroups of any small enumerable group directly from its
multiplication table (normal closures of conjugacy classes, closed under
joins), and the reports compare the classified and brute-forced lattices
as element sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import CheckResult, FAIL, NOT_GUARANTEED, PASS
from .extension import ExtensionGroup
from .groups import (CapExceeded, closure_indices, product_set_indices)
from .linalg import Subspace
from .tower import TowerState

__all__ = [
    "NormalDesc",
    "tower_chain",
    "normal_subgroups",
    "brute_force_normals",
    "desc_generators",
    "desc_members",
    "classification_report",
    "size_bound_report",
    "GrowthTable",
    "growth_table",
    "growth_report",
    "d_p_closure",
    "graded_chain_report",
    "rigidity_report",
]


@dataclass(frozen=True)
class NormalDesc:
    """A normal subgroup of a chain group, described level by level."""

    level: int
    space: Subspace | None          # W at this level; None at the seed
    seed_set: frozenset | None      # element indices when level == 0
    lower: "NormalDesc | None"
    order: int
    index: int

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def label(self) -> str:
        if self.level == 0:
            return f"seed[{self.order}]"
        return f"{self.lower.label()}:W{self.space.dim}"


def tower_chain(state: TowerState) -> list:
    return [state.seed] + [lv.group for lv in state.levels]


def product_chain(ext: ExtensionGroup) -> list:
    """The two-term chain of a standalone split extension over a table group."""
    return [ext.lower, ext]


def brute_force_normals(group, cap: int = 2000) -> list:
    """All normal subgroups as frozen index sets, straight from the table.

    Atoms are normal closures of conjugacy classes; every normal subgroup
    is a join of atoms, and joins of normal subgroups are plain product
    sets, so a fixpoint over products enumerates the whole lattice.
    """
    n = group.order
    if n > cap:
        raise CapExceeded(f"brute force capped at order {cap}, got {n}")
    mt = group.mult_table()
    inv = group.inverse_table()
    allx = np.arange(n)
    seen = np.zeros(n, dtype=bool)
    atoms = {}
    for g in range(1, n):
        if seen[g]:
            continue
        cls = np.unique(mt[mt[allx, g], inv[allx]])
        seen[cls] = True
        sub = closure_indices(mt, cls.tolist())
        atoms.setdefault(frozenset(sub.tolist()), sub)
    trivial = np.array([0], dtype=np.int64)
    normals = {frozenset([0]): trivial}
    queue = [trivial]
    while queue:
        cur = queue.pop()
        for atom in atoms.values():
            prod = product_set_indices(mt, cur, atom)
            key = frozenset(prod.tolist())
            if key not in normals:
                normals[key] = prod
                queue.append(prod)
    return sorted(normals, key=lambda s: (len(s), sorted(s)))


def seed_normals(seed) -> list:
    out = []
    for s in brute_force_normals(seed, cap=2048):
        out.append(NormalDesc(0, None, frozenset(s), None,
                              order=len(s), index=seed.order // len(s)))
    return out


def normal_subgroups(chain, guard: int = 100_000) -> list:
    """Every normal subgroup of the top chain group, as descriptions."""
    descs = seed_normals(chain[0])
    for lv in range(1, len(chain)):
        ext = chain[lv]
        module = ext.module
        p = ext.field.p
        submods = module.enumerate_submodules(guard)
        nxt = []
        for nd in descs:
            gens = desc_generators(nd, chain)
            rows = []
            basis = module.live.basis
            for g in gens:
                gi = ext.lower.index_of(g)
                if gi == 0:
                    continue
                rows.append((module.act(gi, basis) - basis) % p)
            if rows:
                floor = module.g_span(np.vstack(rows))
            else:
                floor = Subspace.zero(ext.field, module.ambient_dim)
            for w in submods:
                if not w.contains_space(floor):
                    continue
                codim = module.live_dim - w.dim
                nxt.append(NormalDesc(lv, w, None, nd,
                                      order=nd.order * p ** w.dim,
                                      index=nd.index * p ** codim))
                if len(nxt) > guard:
                    raise CapExceeded("normal subgroup descriptions exceed guard")
        descs = nxt
    return descs


def desc_generators(desc: NormalDesc, chain) -> list:
    """Generators of the described subgroup as elements of its chain group."""
    group = chain[desc.level]
    if desc.level == 0:
        return [group.element(i) for i in sorted(desc.seed_set) if i != 0]
    ext = group
    out = [ext.from_vpart(ext.lower.identity, row) for row in desc.space.basis]
    out += [ext.section(g) for g in desc_generators(desc.lower, chain)]
    return out


def desc_members(desc: NormalDesc, chain) -> frozenset:
    """Element indices of the described subgroup (chain group enumerable)."""
    group = chain[desc.level]
    if desc.level == 0:
        return frozenset(desc.seed_set)
    ext = group
    lower_members = desc_members(desc.lower, chain)
    lower_elements = ext.lower.elements()
    p = ext.field.p
    w = desc.space
    import itertools
    combos = np.array(list(itertools.product(range(p), repeat=w.dim)),
                      dtype=np.int64)
    vecs = combos @ w.basis % p if w.dim else np.zeros((1, ext.module.ambient_dim),
                                                       dtype=np.int64)
    out = set()
    for li in lower_members:
        base = lower_elements[li]
        for v in vecs:
            out.add(ext.index_of(ext.from_vpart(base, v)))
    return frozenset(out)


def classification_report(chain, guard: int = 100_000, cap: int = 2000,
                          prefix: str = "normals") -> tuple:
    """Classified lattice vs brute force, compared as element sets."""
    descs = normal_subgroups(chain, guard)
    top = chain[-1]
    classified = sorted(
        (sorted(desc_members(d, chain)) for d in descs),
        key=lambda s: (len(s), s))
    brute = [sorted(s) for s in brute_force_normals(top, cap)]
    ok = classified == brute
    check = CheckResult(
        f"{prefix}.classification-oracle", PASS if ok else FAIL,
        f"{len(descs)} classified normal subgroups match brute force "
        f"({len(brute)} found) as element sets",
        witness=None if ok else {"classified": len(classified), "brute": len(brute)})
    return descs, check


def size_bound_report(chain, descs, prefix: str = "normals") -> CheckResult:
    """dim W >= dim V - dim V^N for every described pair, at every level."""
    ok = True
    worst = None
    pairs = 0
    for d in descs:
        cur = d
        while cur.level >= 1:
            ext = chain[cur.level]
            gens = desc_generators(cur.lower, chain)
            fixed = ext.module.fixed_dim(gens)
            pairs += 1
            if cur.space.dim < ext.module.live_dim - fixed:
                ok = False
                worst = {"level": cur.level, "dim_w": cur.space.dim,
                         "dim_v": ext.module.live_dim, "fixed": fixed}
            cur = cur.lower
    return CheckResult(
        f"{prefix}.size-bound", PASS if ok else FAIL,
        f"dim W >= dim V - dim V^N over {pairs} (W, N) pairs",
        witness=worst)


@dataclass
class GrowthTable:
    rows: list      # (index, count, cumulative) ascending
    total: int

    def lines(self) -> list:
        out = ["index count cumulative"]
        for k, a, s in self.rows:
            out.append(f"{k} {a} {s}")
        return out


def growth_table(descs, max_index: int | None = None) -> GrowthTable:
    counts = {}
    for d in descs:
        if max_index is None or d.index <= max_index:
            counts[d.index] = counts.get(d.index, 0) + 1
    rows = []
    cum = 0
    for k in sorted(counts):
        cum += counts[k]
        rows.append((k, counts[k], cum))
    return GrowthTable(rows, len(descs))


def growth_report(chain, max_index: int | None = None, guard: int = 100_000,
                  cap: int = 2000, brute: bool = True, prefix: str = "growth"):
    """Exact growth table from the classification, optionally brute-checked."""
    descs = normal_subgroups(chain, guard)
    table = growth_table(descs, max_index)
    checks = []
    mono = all(table.rows[i][2] < table.rows[i + 1][2]
               for i in range(len(table.rows) - 1))
    checks.append(CheckResult(
        f"{prefix}.monotone", PASS if mono else FAIL,
        f"cumulative counts ascend over {len(table.rows)} indices"))
    if brute:
        top = chain[-1]
        sizes = sorted(len(s) for s in brute_force_normals(top, cap))
        order = top.order
        brute_counts = {}
        for s in sizes:
            k = order // s
            brute_counts[k] = brute_counts.get(k, 0) + 1
        mine = {k: a for k, a, _ in growth_table(descs).rows}
        ok = brute_counts == mine
        checks.append(CheckResult(
            f"{prefix}.oracle", PASS if ok else FAIL,
            f"index counts match brute force at every index "
            f"(total {table.total})",
            witness=None if ok else {"classified": mine, "brute": brute_counts}))
    return table, checks


def d_p_closure(group, subset, p: int) -> frozenset:
    """The subgroup generated by all commutators and p-th powers of a subgroup.

    ``subset`` is an index set forming a subgroup of ``group``.  Iterates
    generation and closure to a fixed point (the first pass already reaches
    it, since commutators range over all pairs of the subgroup).
    """
    mt = group.mult_table()
    inv = group.inverse_table()
    cur = np.asarray(sorted(subset), dtype=np.int64)
    while True:
        ab = mt[np.ix_(cur, cur)]
        inv_ab = mt[inv[cur][:, None], inv[cur][None, :]]
        comm = mt[ab, inv_ab]
        powers = cur.copy()
        for _ in range(p - 1):
            powers = mt[powers, cur]
        gens = np.unique(np.concatenate([comm.ravel(), powers]))
        new = closure_indices(mt, gens.tolist())
        if new.size == cur.size and np.array_equal(new, cur):
            return frozenset(int(x) for x in cur)
        cur = new


def graded_chain_report(state: TowerState, level: int,
                        prefix: str = "grading") -> list:
    """Brute-force descending chain of commutator-and-power subgroups.

    Starting from the whole level group, repeatedly form the subgroup
    generated by commutators and p_n-th powers.  Over the trivial seed the
    n-th term must be the kernel of the projection onto level n and the
    chain strictly descends to the trivial subgroup; over a nontrivial
    (coprime-order) seed each term keeps a copy of the seed, so the chain
    descends to the canonical section of the seed instead.
    """
    group = state.group(level)
    group.elements()
    checks = []
    cur = frozenset(range(group.order))
    strictly_down = True
    floor = len(seed_copy(state, level))
    for n in range(1, level + 1):
        p = state.config.primes[n - 1]
        nxt = d_p_closure(group, cur, p)
        expected = projection_kernel(state, level, n)
        ok = nxt == expected
        checks.append(CheckResult(
            f"{prefix}.term{n}", PASS if ok else FAIL,
            f"commutator/power subgroup at p={p} has order {len(nxt)}, "
            f"expected kernel order {len(expected)}",
            witness=None if ok else {"term": n, "got": len(nxt),
                                     "kernel": len(expected)}))
        if len(nxt) >= len(cur) and len(cur) > floor:
            strictly_down = False
        cur = nxt
    checks.append(CheckResult(
        f"{prefix}.descends",
        PASS if (strictly_down and len(cur) == floor) else FAIL,
        f"chain strictly descends to the seed copy "
        f"(final order {len(cur)}, seed order {floor})"))
    return checks


def seed_copy(state: TowerState, level: int) -> list:
    """The canonical section of the seed inside the level group."""
    copy = list(state.seed.elements())
    for n in range(1, level + 1):
        sec = state.group(n).section
        copy = [sec(x) for x in copy]
    return copy


def projection_kernel(state: TowerState, level: int, n: int) -> frozenset:
    """Element indices of the level group whose level-n image lies in the
    seed copy (for a trivial seed: the plain projection kernel)."""
    group = state.group(level)
    targets = set(seed_copy(state, n))
    out = set()
    for i, e in enumerate(group.elements()):
        x = e
        for _ in range(level - n):
            x = x.lower
        if x in targets:
            out.add(i)
    return frozenset(out)


def rigidity_report(state: TowerState, i: int, guard: int = 100_000,
                    prefix: str = "rigidity") -> CheckResult:
    """Normal subgroups above level i+1 must carry the whole module.

    Every normal subgroup of G_{i+1} whose image in G_{i-1} is nontrivial
    decomposes as W ⋊ N with N its image in G_i; since dim (N-1)V equals
    dim V - dim V^N, the statement "W is forced to be all of V_{i+1}" holds
    exactly when V_{i+1}^N vanishes for every qualifying N.  That dimension
    is checked here directly, so only level i needs to be enumerable, not
    level i+1.

    When the level was built without the closure list (the prime gate
    failed), the statement is reported as not guaranteed, with any
    violating pairs as witnesses.
    """
    if not 1 <= i <= state.depth - 1:
        raise ValueError(f"rigidity check needs 1 <= i <= {state.depth - 1}")
    chain = tower_chain(state)[:i + 1]
    level = state.levels[i]                   # V_{i+1} = R/S
    guaranteed = level.hlist_used
    descs = normal_subgroups(chain, guard)
    qualifying = []
    for d in descs:
        low = d.lower
        if low is None:
            continue
        if not low.is_trivial:
            qualifying.append(d)
    if not qualifying:
        return CheckResult(
            f"{prefix}.level{i + 1}", PASS,
            f"vacuous: no normal subgroup of G_{i} has nontrivial image in "
            f"G_{i - 1}")
    bad = []
    for d in qualifying:
        gens = desc_generators(d, chain)
        fixed = level.rel.quotient_fixed_dim(level.module.killed, gens)
        if fixed != 0:
            bad.append({"desc": d.label(), "fixed_dim": fixed})
    if not bad:
        return CheckResult(
            f"{prefix}.level{i + 1}", PASS if guaranteed else NOT_GUARANTEED,
            f"all {len(qualifying)} qualifying normal subgroups force the "
            f"full module" + ("" if guaranteed else
                              " (holds here, but the prime gate failed and no "
                              "closure list was used)"))
    return CheckResult(
        f"{prefix}.level{i + 1}", FAIL if guaranteed else NOT_GUARANTEED,
        f"{len(bad)} of {len(qualifying)} qualifying normal subgroups admit "
        f"a proper module part" + ("" if guaranteed else
                                   " (prime gate failed, statement not claimed)"),
        witness={"violations": bad})
