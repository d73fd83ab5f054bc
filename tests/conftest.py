from fractions import Fraction

import numpy as np
import pytest

from jitower.certificate import FAIL, NOT_GUARANTEED, PASS, CheckResult
from jitower.extension import ExtensionGroup
from jitower.forge import ForgeInput, SubgroupData, build_module, cyclic_fixed_dims
from jitower.groups import TableElement, TableGroup, word_image
from jitower.linalg import PrimeField
from jitower.tower import TowerConfig, build
from jitower.words import OrderBudget, enumerate_words


def _prime_factors(n: int) -> tuple:
    """Distinct prime factors of n, ascending (trial division)."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _power(a, n: int, identity):
    out = identity
    while n:
        if n & 1:
            out = out * a
        n >>= 1
        if n:
            a = a * a
    return out


def refined_order(group, a) -> int:
    """Reference element order by exponent refinement: start from the group
    exponent and divide out each prime q while a^(o/q) is still 1, testing
    candidates by binary powering.  The oracle for ``element_order``."""
    o = group.exponent()
    for q in _prime_factors(o):
        while o % q == 0 and _power(a, o // q, group.identity) == group.identity:
            o //= q
    return o


def reference_torsion_check(state) -> CheckResult:
    """Reference torsion shadow: every word of the enumerated list evaluated
    from scratch, letter by letter.  The oracle for ``torsion_shadow_check``."""
    config = state.config
    top = state.top
    exp = top.exponent()
    ok = True
    worst = None
    words = enumerate_words(config.d, config.torsion_scan_len)
    for w in words:
        order = top.element_order(word_image(w, top.generators, top.identity))
        bound = max(config.budget.of(w), state.ledger.get(w, (0, 0))[0])
        if exp % order != 0 or order > bound:
            ok = False
            worst = {"word": list(w.letters), "order": order, "bound": bound}
    bad = FAIL if state.conforming() else NOT_GUARANTEED
    return CheckResult(
        "tower.torsion-shadow", PASS if ok else bad,
        f"{len(words)} words of length <= {config.torsion_scan_len}: order divides "
        f"{exp} and stays within budget/frozen bounds", witness=worst)


def reference_section_check(ext) -> bool:
    """Reference section check: sec(g) + g.sec(h) = sec(gh) mod S over all
    |G|^2 pairs, one |G|-row reduce per g.  The oracle for
    ``section_is_homomorphism``."""
    lt = ext.lower.mult_table()
    sec = ext._sections
    v = ext.module
    for g in range(ext.lower.order):
        lhs = v.killed.reduce(sec[g] + v.act_raw(g, sec))
        if not np.array_equal(lhs, sec[lt[g]]):
            return False
    return True


def reference_fox_vector(word, group, images, p):
    """Reference Fox walk over group elements: one dict per letter maps an
    element to its residue, and the prefix moves by element products.
    Returns ``(vec, image)`` in ``fox_vector``'s flat form, the oracle for
    it; ``images`` are elements, one per basis letter."""
    sums = [{} for _ in images]
    prefix = group.identity
    for x in word.letters:
        j = abs(x) - 1
        if x > 0:
            sums[j][prefix] = sums[j].get(prefix, 0) + 1
            prefix = prefix * images[j]
        else:
            prefix = prefix * images[j].inverse()
            sums[j][prefix] = sums[j].get(prefix, 0) - 1
    n = group.order
    vec = np.zeros(len(images) * n, dtype=np.int64)
    for j, terms in enumerate(sums):
        for g, c in terms.items():
            vec[j * n + group.index_of(g)] = c % p
    return vec, group.index_of(prefix)


def boundary_matrix(group, gen_idxs, p: int) -> np.ndarray:
    """The dense |G| x d|G| boundary matrix sending column (i, h) to
    h*t_i - h.  The oracle for the spanning-tree relation module: its rref
    pivots, kernel, batched solutions and products are the tree, the
    kernel, the splitting vector's summands and ``derivation``."""
    n = group.order
    table = group.mult_table()
    d = len(gen_idxs)
    b = np.zeros((n, d * n), dtype=np.int64)
    rows = np.arange(n)
    for i, t in enumerate(gen_idxs):
        cols = i * n + rows
        b[table[:, t], cols] = (b[table[:, t], cols] + 1) % p
        b[rows, cols] = (b[rows, cols] - 1) % p
    return b


def fixed_bound_holds(res) -> bool:
    """Whether a forging result with delta > 0 keeps dim V^K <=
    dim V/(delta |K|) on every cyclic subgroup K of its base group."""
    return res.delta > 0 and all(
        Fraction(dim) <= Fraction(res.dim) / (res.delta * size)
        for size, dim in cyclic_fixed_dims(res.rel, res.module.killed))


def random_element(group, rng):
    """A uniformly random element of a table group or a split extension,
    drawn from ``rng`` (a ``random.Random``)."""
    if isinstance(group, ExtensionGroup):
        coeffs = [rng.randrange(group.field.p) for _ in range(group.module.live_dim)]
        return group.from_coeffs(random_element(group.lower, rng), coeffs)
    return TableElement(group, rng.randrange(group.order))


def forge_build(group, p, words=(), subgroup_elt_lists=(), relaxed=False):
    """One forging step over ``group`` on its designated generators; the base
    order of each word is evaluated letter by letter."""
    subs = tuple(SubgroupData.from_elements(group, els)
                 for els in subgroup_elt_lists)
    orders = tuple(group.element_order(word_image(w, group.generators, group.identity))
                   for w in words)
    return build_module(ForgeInput(group, tuple(group.generators),
                                   PrimeField(p), tuple(words), orders, subs,
                                   relaxed=relaxed))


def c2():
    return TableGroup.cyclic(2, gens=(1, 1))


def c3():
    return TableGroup.cyclic(3, gens=(1, 1))


def c4():
    return TableGroup.cyclic(4, gens=(1, 1))


def c5():
    return TableGroup.cyclic(5, gens=(1, 1))


def c7():
    return TableGroup.cyclic(7, gens=(1, 1))


def c22():
    g = TableGroup.direct_product(TableGroup.cyclic(2), TableGroup.cyclic(2))
    return TableGroup(g.table, gens=(2, 1), name="C2xC2")


def c6():
    g = TableGroup.direct_product(TableGroup.cyclic(2), TableGroup.cyclic(3))
    # (1,1) has order 6 and sits at index 1*3+1 = 4
    return TableGroup(g.table, gens=(4, 4), name="C6")


def s3():
    return TableGroup.symmetric(3)


@pytest.fixture(scope="session")
def default_tower():
    """The stock tower: d=2, primes (2,3,5), eps=1/10, budget (16,8), depth 3."""
    return build(TowerConfig())


@pytest.fixture(scope="session")
def budget_tower():
    """Aggressive test budget o(w) = 4^len: exercises the freezing path."""
    cfg = TowerConfig(budget=OrderBudget(1, 4), test_budget=True, mode="relaxed")
    return build(cfg)


@pytest.fixture(scope="session")
def forced_hlist_tower():
    """Trivial seed with --force-hlist: the step onto the 324-element level
    feeds the three distinct closures of the nontrivial level-1 elements
    into the next module build (margin 5/6, so relaxed mode)."""
    cfg = TowerConfig(force_hlist=True, mode="relaxed")
    return build(cfg)


@pytest.fixture(scope="session")
def seeded_hlist_tower(tmp_path_factory):
    """Nontrivial seed C3 with a forced closure list; must run relaxed."""
    path = tmp_path_factory.mktemp("seed") / "c3.txt"
    TableGroup.cyclic(3, gens=(1, 1)).to_file(path)
    cfg = TowerConfig(primes=(2, 5), depth=2, seed_path=str(path),
                      force_hlist=True, mode="relaxed")
    return build(cfg)


@pytest.fixture(scope="session")
def rank_three_tower():
    """The d=3 variant: primes (2,3), depth 2, budget (40,8)."""
    return build(TowerConfig(d=3, primes=(2, 3), depth=2, budget=OrderBudget(40, 8)))
