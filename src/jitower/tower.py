"""The induction driver: grow towers G_{k+1} = V_{k+1} ⋊ G_k level by level.

Each step scans free words against the order budget (only words whose
budget value is below the current exponent can possibly exceed it, which
turns the scan into a finite one), freezes offending orders into a ledger,
optionally lists normal closures of lower-level elements when the prime is
large enough (or when forced), and forges the next module over the next
prime.  Every structural claim about the step is recorded as a certificate
check: the margin, the dimension lower bound, order stability, the
fixed-space bounds, projection compatibility and the torsion shadow.

Tower files are a versioned line-oriented text format; vectors are written
as contiguous digit strings in base p (alphabet 0-9a-z, so p <= 36).
Loading re-derives each level's module, lifted generators and section
vector through the same function the build uses, and requires the stored
rows to equal them, so a corrupted file fails loudly instead of producing
a silently wrong tower.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .certificate import Certificate, CheckResult, FAIL, NOT_GUARANTEED, PASS, SAMPLED
from .extension import ExtensionGroup
from .forge import (BuildError, ForgeInput, SubgroupData, build_module,
                    compute_delta, cyclic_fixed_dims, derive_level,
                    verify_conclusions)
from .gmodule import GModule
from .groups import TABLE_CAP, TableGroup, word_image, word_images
from .linalg import PrimeField, Subspace
from .relmod import RelationModule, relation_module
from .words import OrderBudget, Word, ball_size

__all__ = [
    "TowerConfig",
    "Level",
    "TowerState",
    "FeasibilityStop",
    "LoadError",
    "init_tower",
    "step",
    "grow",
    "build",
    "gate_checks",
    "normal_closure_in_extension",
    "save_tower",
    "load_tower",
    "hlist_gate",
]

MAGIC = "JITOWER"
FORMAT_VERSION = 1
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


class FeasibilityStop(RuntimeError):
    """The top level is too large to enumerate, so no further step can run."""


class LoadError(ValueError):
    """A tower file failed to parse or failed an invariant on load."""


def _flag(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _flag_str(b: bool) -> str:
    return str(int(b))


def _fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ints(s: str) -> tuple:
    return tuple(int(x) for x in s.replace(",", " ").split())


def _budget(s: str) -> OrderBudget:
    scale, base = _ints(s)
    return OrderBudget(scale, base)


# One entry per TowerConfig field except the seed, in tower-header order:
# (key, parse, canonical rendering).  The key is the attribute name, the
# config-file key and the header key, except that config files spell the
# budget as budget_scale and budget_base.  Parsers raise ValueError.
CONFIG_FIELDS = (
    ("d", int, str),
    ("epsilon", _fraction, _fraction_str),
    ("primes", _ints, lambda primes: " ".join(map(str, primes))),
    ("budget", _budget, lambda b: f"{b.scale} {b.base}"),
    ("mode", str, str),
    ("force_hlist", _flag, _flag_str),
    ("test_budget", _flag, _flag_str),
    ("enum_cap", int, str),
    ("submodule_guard", int, str),
    ("scan_cap", int, str),
    ("torsion_scan_len", int, str),
    ("depth", int, str),
)


@dataclass
class TowerConfig:
    d: int = 2
    primes: tuple = (2, 3, 5)
    epsilon: Fraction = Fraction(1, 10)
    budget: OrderBudget = OrderBudget(16, 8)
    depth: int = 3
    seed_path: str | None = None
    mode: str = "strict"
    force_hlist: bool = False
    test_budget: bool = False
    enum_cap: int = 10 ** 6
    submodule_guard: int = 100_000
    scan_cap: int = 200_000
    torsion_scan_len: int = 6

    @property
    def relaxed(self) -> bool:
        return self.mode == "relaxed"

    def closure_list(self, k: int) -> bool:
        """Whether level k is built with the closure list of level k-1."""
        return k > 1 and (self.force_hlist
                          or hlist_gate(self.primes[k - 2], self.epsilon))

    def load_seed(self) -> TableGroup:
        if self.seed_path is None:
            return TableGroup.trivial(self.d)
        return TableGroup.from_file(self.seed_path)

    def validate(self, seed: TableGroup):
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if self.mode not in ("strict", "relaxed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not Fraction(0) < self.epsilon < Fraction(1, 4):
            raise ValueError("epsilon must lie in (0, 1/4)")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be pairwise distinct")
        for p in self.primes:
            PrimeField(p)
            if p > len(DIGITS):
                raise ValueError(f"prime {p} exceeds {len(DIGITS)}, the largest "
                                 "base the tower file format can write")
            if seed.order % p == 0:
                raise ValueError(f"prime {p} divides the seed order {seed.order}")
        if not 1 <= self.depth <= len(self.primes):
            raise ValueError("depth must be between 1 and the number of primes")
        if len(seed.generators) != self.d:
            raise ValueError(
                f"seed designates {len(seed.generators)} generators, need d = {self.d}")
        for key in ("enum_cap", "submodule_guard", "scan_cap"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        if self.torsion_scan_len < 0:
            raise ValueError("torsion_scan_len must be nonnegative")
        scan = ball_size(self.d, self.torsion_scan_len)
        if scan > self.scan_cap:
            raise ValueError(f"torsion scan of {scan} words exceeds scan_cap "
                             f"{self.scan_cap}")
        if self.test_budget:
            self.budget.tail_sum(self.d)  # still must converge
        elif not self.budget.admissible(self.d, self.epsilon):
            raise ValueError(
                f"order budget tail sum {self.budget.tail_sum(self.d)} exceeds "
                f"epsilon/2 = {self.epsilon / 2}")


@dataclass
class Level:
    index: int
    field: PrimeField
    rel: RelationModule | None     # None for a synthetic level over a nontrivial seed
    module: GModule                # the level module V_k (live part)
    gen_vecs: np.ndarray
    section_vec: np.ndarray
    group: ExtensionGroup
    delta: Fraction
    r: int
    s: int
    hlist_used: bool
    relaxed_used: bool

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def dim(self) -> int:
        return self.module.live_dim


@dataclass
class TowerState:
    config: TowerConfig
    seed: TableGroup
    levels: list = dataclass_field(default_factory=list)
    ledger: dict = dataclass_field(default_factory=dict)   # Word -> (order, level)
    checks: list = dataclass_field(default_factory=list)
    truncated: bool = False

    @property
    def depth(self) -> int:
        return len(self.levels)

    def group(self, k: int):
        return self.seed if k == 0 else self.levels[k - 1].group

    @property
    def top(self):
        return self.group(self.depth)

    def pi(self, w: Word, k: int):
        g = self.group(k)
        return word_image(w, g.generators, g.identity)

    def conforming(self) -> bool:
        return not self.config.test_budget and not any(
            lv.relaxed_used for lv in self.levels)


def hlist_gate(p: int, epsilon: Fraction) -> bool:
    """Whether the prime is large enough to demand the closure list."""
    e = float(epsilon)
    return math.log(p) > max(1.0 / e, math.log(e) / (2 * e - 0.5))


def _first_level(config: TowerConfig, seed: TableGroup) -> Level:
    """Level 1: the relation module of a trivial seed, or else the trivial
    module F_p^d with the zero section."""
    field = PrimeField(config.primes[0])
    d = config.d
    if seed.order == 1:
        rel = relation_module(seed, seed.generators, field)
        module, gen_vecs, section_vec = derive_level(rel, Subspace.zero(field, d))
    else:
        rel = None
        module = GModule.trivial(field, seed, d)
        # e_j is the unit vector at the identity of copy j
        gen_vecs = module.killed.reduce(np.eye(d * seed.order, dtype=np.int64)[::seed.order])
        section_vec = np.zeros(module.ambient_dim, dtype=np.int64)
    group = ExtensionGroup(module, gen_vecs=gen_vecs,
                           gen_lowers=seed.generators,
                           section_vec=section_vec, name="level1")
    return Level(1, field, rel, module, gen_vecs, section_vec, group,
                 Fraction(1), 0, 0, False, False)


def init_tower(config: TowerConfig) -> TowerState:
    seed = config.load_seed()
    config.validate(seed)
    state = TowerState(config, seed)
    state.levels.append(_first_level(config, seed))
    state.checks.append(CheckResult(
        "tower.budget", PASS,
        f"tail sum {config.budget.tail_sum(config.d)} vs epsilon/2 = "
        f"{config.epsilon / 2}"
        + (" (test budget, certificate non-conforming)" if config.test_budget else "")))
    lvl = state.levels[0]
    state.checks.append(CheckResult(
        "level1.split-structure", PASS,
        f"|G_1| = {lvl.group.order} = {lvl.p}^{lvl.dim} * {seed.order}"))
    return state


def _scan_words(state: TowerState) -> list:
    """Words whose budget value is below the current exponent and whose top
    order exceeds it, as (word, order) pairs in (length, lex) order."""
    config = state.config
    top = state.top
    exp = top.exponent()
    budget = config.budget
    max_len = 0
    while budget.of_length(max_len + 1) < exp:
        max_len += 1
    size = ball_size(config.d, max_len)
    if size > config.scan_cap:
        raise FeasibilityStop(
            f"word scan of {size} words exceeds scan_cap {config.scan_cap}")
    out = []
    for w, image in word_images(top.generators, top.identity, max_len):
        order = top.element_order(image)
        if order > budget.of(w):
            out.append((w, order))
    return sorted(out, key=lambda pair: len(pair[0]))


def sorted_ledger(state: TowerState) -> list:
    """The ledger's (word, (order, level)) items, shortest word first."""
    return sorted(state.ledger.items(), key=lambda kv: (len(kv[0]), kv[0].letters))


def ledger_at_top(state: TowerState) -> list:
    """(word, frozen order, level, order at the top) per ledger word."""
    return [(w, order, lvl, state.top.element_order(state.pi(w, state.depth)))
            for w, (order, lvl) in sorted_ledger(state)]


def normal_closure_in_extension(ext: ExtensionGroup, g_lower):
    """Smallest normal subgroup of a split extension containing section(g).

    Returned as the pair (W, M): M is the normal closure of g in the base
    group (index tuple) and W the span of (m - 1) applied to the module, so
    the subgroup is exactly {(w, m) : w in W, m in M} in split coordinates.
    """
    lower = ext.lower
    m_idxs = lower.normal_closure([g_lower])
    module = ext.module
    basis = module.live.basis
    p = ext.field.p
    rows = []
    for m in m_idxs:
        if m == 0:
            continue
        rows.append((module.act(int(m), basis) - basis) % p)
    if rows:
        w_space = module.g_span(np.vstack(rows))
    else:
        w_space = Subspace.zero(ext.field, module.ambient_dim)
    return w_space, m_idxs


def _hlist(state: TowerState) -> list:
    """Deduplicated normal closures of nontrivial next-to-top elements,
    embedded in the top group via the section."""
    k = state.depth
    top, below = state.top, state.group(k - 1)
    seen = {}
    for g in below.elements()[1:]:
        w_space, m_idxs = normal_closure_in_extension(top, g)
        key = (w_space, frozenset(int(i) for i in m_idxs))
        if key in seen:
            continue
        gens = [top.from_vpart(below.identity, row) for row in w_space.basis]
        gens += [top.section(below.elements()[int(i)]) for i in m_idxs if i != 0]
        seen[key] = SubgroupData.from_elements(top, gens)
    return list(seen.values())


def fixed_space_checks(state: TowerState, lv: Level) -> list:
    """One pass over the cyclic subgroups K of the base of level ``lv``,
    emitting both the margin-based and the epsilon-based bounds on dim V^K.

    The margin bound is guaranteed by the construction whenever delta > 0,
    so violating it is a genuine failure; the epsilon bound is only claimed
    by strict-mode towers and degrades to not-guaranteed otherwise.  Build
    and verify both emit these checks through this function.
    """
    eps = state.config.epsilon
    dims = cyclic_fixed_dims(lv.rel, lv.module.killed)
    margin_ok, eps_ok, witness = True, True, None
    for size, dim in dims:
        over_margin = lv.delta > 0 and Fraction(dim) > Fraction(lv.dim) / (lv.delta * size)
        over_eps = Fraction(dim) * (1 - eps) * size > lv.dim
        if over_margin or over_eps:
            witness = {"subgroup_size": size, "fixed_dim": dim}
        margin_ok, eps_ok = margin_ok and not over_margin, eps_ok and not over_eps
    eps_bad = NOT_GUARANTEED if lv.relaxed_used else FAIL
    prefix = f"level{lv.index}"
    return [CheckResult(f"{prefix}.fixed-bound-margin",
                        SAMPLED if margin_ok else FAIL,
                        f"dim V^K <= dim V/(delta|K|) over {len(dims)} cyclic subgroups",
                        witness=None if margin_ok else witness),
            CheckResult(f"{prefix}.fixed-bound-eps",
                        SAMPLED if eps_ok else eps_bad,
                        f"dim V^K <= dim V/((1-eps)|K|) over {len(dims)} cyclic subgroups",
                        witness=None if eps_ok else witness)]


def gate_checks(state: TowerState, lv: Level) -> list:
    """The margin and dimension-bound gates of a level above the first:
    delta > 1 - eps and dim V >= (d-1)|G|(1-eps), with G the base group.

    A violated gate is not-guaranteed in relaxed mode, where the build
    bypasses it, and a failure in strict mode.  Build and verify both emit
    the two checks through this function.
    """
    config = state.config
    eps = config.epsilon
    bound = Fraction(config.d - 1) * state.group(lv.index - 1).order * (1 - eps)
    bad = NOT_GUARANTEED if config.relaxed else FAIL
    gates = (("margin", lv.delta > 1 - eps,
              f"delta = {lv.delta} vs 1 - eps = {1 - eps} (r={lv.r}, s={lv.s})"),
             ("dim-lower-bound", Fraction(lv.dim) >= bound,
              f"dim V = {lv.dim} >= (d-1)|G|(1-eps) = {bound}"))
    return [CheckResult(f"level{lv.index}.{name}", PASS if ok else bad,
                        detail + ("" if ok or bad == FAIL
                                  else "; gate bypassed in relaxed mode"))
            for name, ok, detail in gates]


def step(state: TowerState) -> Level:
    """Build one more level on top of the tower."""
    config = state.config
    k = state.depth
    if k + 1 > len(config.primes):
        raise FeasibilityStop("prime sequence exhausted")
    top = state.top
    for cap, name in ((config.enum_cap, "enumeration"), (TABLE_CAP, "multiplication-table")):
        if top.order > cap:
            raise FeasibilityStop(f"|G_{k}| = {top.order} exceeds the {name} cap {cap}")
    field = PrimeField(config.primes[k])
    prefix = f"level{k + 1}"

    # words that outrun their budget, plus everything already frozen; a
    # frozen order exceeds its budget, so the scan meets every ledger word
    scanned = dict(_scan_words(state))
    for w, (order, _) in state.ledger.items():
        now = scanned.get(w, "within budget")
        if now != order:
            raise RuntimeError(f"frozen order {order} of {w} disagrees with the scan: {now}")
    for w, order in scanned.items():
        state.ledger.setdefault(w, (order, k))
    frozen = sorted_ledger(state)

    hlist_used = config.closure_list(k + 1)
    subgroups = tuple(_hlist(state)) if hlist_used else ()

    inp = ForgeInput(top, tuple(top.generators), field, tuple(w for w, _ in frozen),
                     tuple(order for _, (order, _) in frozen), subgroups,
                     relaxed=config.relaxed)
    res = build_module(inp)
    level = Level(k + 1, field, res.rel, res.module, res.gen_vecs,
                  res.section_vec, res.extension(), res.delta, len(frozen),
                  len(subgroups), hlist_used, False)
    margin, dim_bound = gate_checks(state, level)
    level.relaxed_used = any(g.status != PASS for g in (margin, dim_bound))
    state.checks += [margin, CheckResult(
        f"{prefix}.kernel-dim", PASS,
        f"dim ker = {res.rel.kernel_dim} = (d-1)|G|+1 with |G| = {top.order}"),
        dim_bound]
    for gate in (margin, dim_bound):
        if gate.status == FAIL:
            raise BuildError(f"{gate.check} fails in strict mode: {gate.detail}")

    state.checks.extend(verify_conclusions(res, prefix=prefix))
    state.checks.extend(fixed_space_checks(state, level))
    state.levels.append(level)

    # canonical projection compatibility on deterministic random words
    rng = random.Random(1000 + k)
    ok = True
    for _ in range(40):
        letters = [rng.choice([1, -1]) * rng.randint(1, config.d)
                   for _ in range(rng.randint(0, 8))]
        w = Word.make(letters)
        if state.pi(w, k + 1).lower != state.pi(w, k):
            ok = False
    state.checks.append(CheckResult(
        f"{prefix}.projection-compat", PASS if ok else FAIL,
        "q(pi_top(w)) = pi_below(w) on 40 pseudorandom words"))

    # the whole ledger keeps its frozen orders at the new top
    rows = [(order, lvl, now) for (_, (order, lvl)), now in zip(frozen, res.lifted_orders)]
    detail = ", ".join(f"{order}@{lvl}->{now}" for order, lvl, now in rows)
    state.checks.append(CheckResult(
        f"{prefix}.order-stability",
        PASS if all(order == now for order, _, now in rows) else FAIL,
        f"{len(rows)} frozen words keep their orders"
        + (f" ({detail})" if detail else "")))

    size = (str(level.group.order) if level.group.order < 10 ** 12
            else f"{level.p}^{level.dim} * {top.order}")
    state.checks.append(CheckResult(
        f"{prefix}.split-structure", PASS,
        f"|G_{k + 1}| = {size} = {level.p}^{level.dim} * {top.order}"))
    return level


def torsion_shadow_check(state: TowerState) -> CheckResult:
    """Every short word has top-level order bounded by its budget or its
    frozen value, and dividing the tower exponent."""
    config = state.config
    top = state.top
    exp = top.exponent()
    worst = None
    for w, image in word_images(top.generators, top.identity, config.torsion_scan_len):
        order = top.element_order(image)
        bound = max(config.budget.of(w), state.ledger.get(w, (0, 0))[0])
        # preorder is lex within each length: keep the (length, lex)-last failure
        if (exp % order != 0 or order > bound) and (
                worst is None or len(w) >= len(worst["word"])):
            worst = {"word": list(w.letters), "order": order, "bound": bound}
    # an unfrozen word may legitimately outrun a test budget at the very top
    # level (the next step would freeze it); only conforming towers assert
    bad = FAIL if state.conforming() else NOT_GUARANTEED
    return CheckResult(
        "tower.torsion-shadow", PASS if worst is None else bad,
        f"{ball_size(config.d, config.torsion_scan_len)} words of length <= "
        f"{config.torsion_scan_len}: order divides {exp} and stays within "
        "budget/frozen bounds", witness=worst)


def betti_ratio(state: TowerState, lv: Level) -> tuple:
    """dim V_k / |G_{k-1}| for level k, and the threshold (d-1)(1-eps)."""
    config = state.config
    return (Fraction(lv.dim, state.group(lv.index - 1).order),
            Fraction(config.d - 1) * (1 - config.epsilon))


def betti_checks(state: TowerState) -> list:
    """The mod-p homology ratio dim V_{k+1} / |G_k| against (d-1)(1-eps).

    The same ratio lower-bounds the rank gradient along the tower, since
    the kernel of the projection onto G_k surjects onto V_{k+1}.
    """
    out = []
    for lv in state.levels[1:]:
        ratio, threshold = betti_ratio(state, lv)
        bad = NOT_GUARANTEED if lv.relaxed_used else FAIL
        out.append(CheckResult(
            f"tower.betti-ratio.level{lv.index}",
            PASS if ratio >= threshold else bad,
            f"dim V_{lv.index}/|G_{lv.index - 1}| = {ratio} >= (d-1)(1-eps) = "
            f"{threshold}; rank-gradient lower bound d(N)/[G:N] >= {ratio}"))
    return out


def grow(state: TowerState):
    """Step until the configured depth or a FeasibilityStop, then add the
    tower-wide torsion-shadow and Betti checks.  Build and extend both
    drive their towers through this function."""
    while state.depth < state.config.depth:
        try:
            step(state)
        except FeasibilityStop as stop:
            state.truncated = True
            state.checks.append(CheckResult(
                "tower.truncated", PASS, f"stopped early: {stop}"))
            break
    if state.depth >= 2:
        state.checks.append(torsion_shadow_check(state))
    state.checks.extend(betti_checks(state))


def build(config: TowerConfig) -> tuple:
    """Drive a tower to the configured depth or the feasibility boundary."""
    state = init_tower(config)
    grow(state)
    cert = Certificate(meta={
        "tool": "jitower",
        "format": FORMAT_VERSION,
        "d": config.d,
        "primes": list(config.primes[:state.depth]),
        "epsilon": str(config.epsilon),
        "mode": config.mode,
        "conforming": state.conforming(),
        "depth": state.depth,
        "truncated": state.truncated,
        "orders": [state.group(k).order if state.group(k).order < 10 ** 18 else
                   f"{state.group(k).lower.order}*{state.levels[k-1].p}^{state.levels[k-1].dim}"
                   for k in range(state.depth + 1)],
    }, checks=list(state.checks))
    return state, cert


# serialization


def _vec_str(vec: np.ndarray) -> str:
    return "".join(DIGITS[int(x)] for x in vec)


def _vec_parse(s: str, p: int, n: int) -> np.ndarray:
    out = np.array([DIGITS.index(c) for c in s], dtype=np.int64)
    if len(out) != n or np.any(out >= p):
        raise ValueError(f"not a vector of length {n} in base {p}")
    return out


def save_tower(state: TowerState, path):
    lines = serialize_tower(state)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _frozen_str(entry: tuple) -> str:
    w, order, lvl = entry
    return f"{order} {lvl} " + (" ".join(map(str, w.letters)) or "-")


def _frozen_parse(text: str, d: int) -> tuple:
    order, lvl, *letters = text.split()
    w = Word.make([int(x) for x in letters if x != "-"], rank=d)
    return w, int(order), int(lvl)


def serialize_tower(state: TowerState) -> list:
    config = state.config
    lines = [f"{MAGIC} {FORMAT_VERSION}"]
    lines += [f"{key} {render(getattr(config, key))}"
              for key, _, render in CONFIG_FIELDS]
    lines.append(f"truncated {int(state.truncated)}")
    if state.seed.order == 1:
        lines.append("seed trivial")
    else:
        lines.append(f"seed table {state.seed.order}")
        for row in state.seed.table:
            lines.append("row " + " ".join(str(int(x)) for x in row))
        lines.append("seedgens " + " ".join(str(g) for g in state.seed._gen_idx))
    lines.append(f"ledger {len(state.ledger)}")
    for w, (order, lvl) in sorted_ledger(state):
        lines.append("frozen " + _frozen_str((w, order, lvl)))
    lines.append(f"levels {state.depth}")
    for lv in state.levels:
        lines.append(f"level {lv.index}")
        lines.append(f"prime {lv.p}")
        lines.append(f"ambient {lv.module.ambient_dim}")
        lines.append(f"sdim {lv.module.killed.dim}")
        lines.append(f"vdim {lv.dim}")
        lines.append(f"r {lv.r}")
        lines.append(f"s {lv.s}")
        lines.append(f"delta {_fraction_str(lv.delta)}")
        lines.append(f"hlist {int(lv.hlist_used)}")
        lines.append(f"relaxed {int(lv.relaxed_used)}")
        for row in lv.module.killed.basis:
            lines.append("srow " + _vec_str(row))
        for row in lv.gen_vecs:
            lines.append("gen " + _vec_str(row))
        lines.append("section " + _vec_str(lv.section_vec))
    lines.append("end")
    return lines


class _Reader:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next(self, key: str) -> list:
        if self.pos >= len(self.lines):
            raise LoadError("unexpected end of file")
        parts = self.lines[self.pos].split()
        self.pos += 1
        if parts[0] != key:
            raise LoadError(f"expected {key!r} at line {self.pos}")
        return parts

    def field(self, key: str, parse=int, render=str):
        """The value of a ``key value`` line, whose text must be the
        canonical rendering of the parsed value."""
        text = " ".join(self.next(key)[1:])
        try:
            value = parse(text)
        except ValueError as exc:
            raise LoadError(f"line {self.pos}: bad {key} {text!r}: {exc}") from None
        if render(value) != text:
            raise LoadError(f"line {self.pos}: {key} {text!r} is not canonical")
        return value


def _load_seed(rd: _Reader, d: int) -> TableGroup:
    seed_line = rd.next("seed")
    if seed_line[1:] == ["trivial"]:
        return TableGroup.trivial(d)
    try:
        if seed_line[1] != "table":
            raise ValueError(f"unknown seed kind {seed_line[1]!r}")
        rows = [[int(x) for x in rd.next("row")[1:]] for _ in range(int(seed_line[2]))]
        gens = tuple(int(x) for x in rd.next("seedgens")[1:])
        return TableGroup(np.array(rows, dtype=np.int64), gens=gens, name="seed")
    except (ValueError, IndexError) as exc:
        raise LoadError(f"bad seed table: {exc}") from None


def load_tower(path) -> TowerState:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    rd = _Reader(lines)
    head = rd.next(MAGIC)
    if len(head) != 2 or head[1] != str(FORMAT_VERSION):
        raise LoadError(f"unsupported format version in header {head}")
    config = TowerConfig(**{key: rd.field(key, parse, render)
                            for key, parse, render in CONFIG_FIELDS})
    truncated = rd.field("truncated", _flag, _flag_str)
    seed = _load_seed(rd, config.d)
    try:
        config.validate(seed)
    except ValueError as exc:
        raise LoadError(f"invalid configuration: {exc}") from None
    state = TowerState(config, seed, truncated=truncated)

    n_frozen = rd.field("ledger")
    frozen = [rd.field("frozen", lambda t: _frozen_parse(t, config.d), _frozen_str)
              for _ in range(n_frozen)]
    state.ledger = {w: (order, lvl) for w, order, lvl in frozen}
    if len(state.ledger) != n_frozen:
        raise LoadError(f"ledger of {n_frozen} words lists {len(state.ledger)} distinct ones")
    n_levels = rd.field("levels")
    if not 1 <= n_levels <= config.depth:
        raise LoadError(f"level count {n_levels} outside 1..depth {config.depth}")
    for li in range(1, n_levels + 1):
        state.levels.append(_load_level(rd, state, li))
    if rd.next("end") != ["end"] or rd.pos != len(lines):
        raise LoadError("content after the end marker")

    # a word frozen at level k outran its budget in G_k and keeps its order
    for w, order, lvl, now in ledger_at_top(state):
        if now != order or not 1 <= lvl < state.depth or order <= config.budget.of(w):
            raise LoadError(f"ledger violation: {w} has order {now} at the top, "
                            f"frozen as {order} at level {lvl}")
    return state


def _load_level(rd: _Reader, state: TowerState, li: int) -> Level:
    """Read level ``li``.  Its module, generators and section are re-derived
    (level 1 from the seed, above it from the stored killed basis) and must
    equal the stored rows; r, s, delta, hlist and relaxed are re-derived
    from the ledger and the config, except that delta is only bounded
    above when s > 0 (the closure-list term is not recomputed)."""
    config = state.config
    if rd.field("level") != li:
        raise LoadError(f"levels out of order at {li}")
    p = rd.field("prime")
    if p != config.primes[li - 1]:
        raise LoadError(f"level {li} prime {p} != configured {config.primes[li - 1]}")
    field = PrimeField(p)
    ambient, sdim, vdim, r, s = (rd.field(key) for key in
                                 ("ambient", "sdim", "vdim", "r", "s"))
    delta = rd.field("delta", _fraction, _fraction_str)
    hlist_used = rd.field("hlist", _flag, _flag_str)
    relaxed_used = rd.field("relaxed", _flag, _flag_str)

    below = state.group(li - 1)
    if ambient != config.d * below.order:
        raise LoadError(f"level {li} ambient {ambient} != d*|G| = "
                        f"{config.d * below.order}")
    hlist = config.closure_list(li)
    orders = [order for order, lvl in state.ledger.values() if lvl < li]
    margin = compute_delta(below, config.d, orders, ())
    if (hlist_used, r) != (hlist, len(orders)) or s < 0 or (s > 0 and not hlist) \
            or not (delta == margin if s == 0 else delta < margin):
        raise LoadError(
            f"level {li}: stored hlist, r, s or delta disagree with the ones "
            f"derived (hlist {int(hlist)}, r {len(orders)}, "
            f"delta {'=' if s == 0 else '<'} {margin})")

    def vectors(key, count):
        return np.array([rd.field(key, lambda t: _vec_parse(t, p, ambient), _vec_str)
                         for _ in range(count)], dtype=np.int64).reshape(-1, ambient)

    srows = vectors("srow", sdim)
    gen_vecs = vectors("gen", config.d)
    section_vec = vectors("section", 1)[0]

    if li == 1:
        level = _first_level(config, state.seed)
        derived = (level.module, level.gen_vecs, level.section_vec)
    else:
        try:
            rel = relation_module(below, below.generators, field)
            # raises unless the rows span a submodule of the boundary kernel
            derived = derive_level(rel, Subspace.span(field, ambient, srows))
        except ValueError as exc:
            raise LoadError(f"level {li}: {exc}") from None
    module, *rows = derived
    if not all(map(np.array_equal, (module.killed.basis, *rows),
                   (srows, gen_vecs, section_vec))):
        raise LoadError(f"level {li}: the stored killed basis, generator rows or "
                        "section row differ from the ones derived")
    if li > 1:
        group = ExtensionGroup(module, gen_vecs=gen_vecs,
                               gen_lowers=below.generators,
                               section_vec=section_vec, name=f"level{li}")
        level = Level(li, field, rel, module, gen_vecs, section_vec, group,
                      delta, r, s, hlist_used, False)
        level.relaxed_used = any(g.status != PASS for g in gate_checks(state, level))
    if level.dim != vdim:
        raise LoadError(f"level {li}: stored vdim {vdim} != computed {level.dim}")
    if level.relaxed_used != relaxed_used:
        raise LoadError(f"level {li}: relaxed {int(relaxed_used)} disagrees "
                        "with its margin and dimension gates")
    return level
