import random
from fractions import Fraction

import numpy as np
import pytest

from jitower.certificate import FAIL
from jitower.extension import ExtensionGroup
from jitower.forge import (BuildError, ForgeInput, SubgroupData, build_module,
                           compute_delta, section_is_homomorphism,
                           verify_conclusions)
from jitower.groups import TableGroup
from jitower.linalg import PrimeField
from jitower.words import Word

from conftest import (c3, c5, c22, fixed_bound_holds, forge_build,
                      random_element, reference_section_check, s3)


def test_delta_empty_lists_is_one():
    g = c22()
    assert compute_delta(g, 2, [], []) == 1


def test_delta_single_word_of_order_two():
    g = c22()
    assert compute_delta(g, 2, [2], []) == Fraction(1, 2)


def test_delta_whole_group_listed():
    g = c22()
    sub = SubgroupData.from_elements(g, list(g.elements()))
    assert sub.size == 4 and sub.normalizer_size == 4
    assert compute_delta(g, 2, [], [sub]) == 1 - Fraction(1, 4)


def test_plain_build_on_klein_four():
    res = forge_build(c22(), 3)
    assert res.delta == 1
    assert res.dim == 4 == (2 - 1) * 4
    checks = verify_conclusions(res)
    assert all(c.status != FAIL for c in checks)


def test_build_kills_whole_group_invariants():
    g = c22()
    res = forge_build(g, 3, subgroup_elt_lists=[list(g.elements())])
    assert res.delta == Fraction(3, 4)
    assert res.module.fixed_dim(list(g.elements())) == 0
    checks = verify_conclusions(res)
    assert all(c.status != FAIL for c in checks)


def test_degenerate_trivial_group_build():
    g = TableGroup.trivial(2)
    res = forge_build(g, 5)
    assert res.dim == 1 == (2 - 1) * 1


def test_order_preserving_word_build():
    g = c22()
    res = forge_build(g, 3, words=[Word.make([1])])
    assert res.input.word_orders == (2,)
    assert res.delta == Fraction(1, 2)
    assert Fraction(res.dim) >= Fraction(2 - 1) * 4 * res.delta
    checks = {c.check: c for c in verify_conclusions(res)}
    assert checks["forge.orders-preserved"].status == "pass"
    # the lifted generator really has order 2, not 6
    ext = res.extension()
    assert ext.element_order(ext.generators[0]) == 2


def test_mixed_word_and_subgroup_build():
    g = c22()
    res = forge_build(g, 3, words=[Word.make([1])],
                 subgroup_elt_lists=[list(g.elements())])
    assert res.delta == Fraction(1, 4)
    checks = {c.check: c for c in verify_conclusions(res)}
    assert checks["forge.orders-preserved"].status == "pass"
    assert checks["forge.fixed-vanish"].status == "pass"
    assert fixed_bound_holds(res)


def test_nonpositive_margin_raises_unless_relaxed():
    g = c22()
    words = [Word.make([1]), Word.make([2])]   # two orders of 2: delta = 0
    with pytest.raises(BuildError):
        forge_build(g, 3, words=words)
    res = forge_build(g, 3, words=words, relaxed=True)
    assert res.delta == 0
    # order preservation still holds even though the margin is gone
    checks = {c.check: c for c in verify_conclusions(res)}
    assert checks["forge.orders-preserved"].status == "pass"


def test_three_cycle_word_on_s3():
    g = s3()
    res = forge_build(g, 5, words=[Word.make([2])])
    assert res.input.word_orders == (3,)
    assert res.delta == Fraction(2, 3)
    checks = {c.check: c for c in verify_conclusions(res)}
    assert checks["forge.orders-preserved"].status == "pass"


def test_subgroup_a3_on_s3():
    g = s3()
    rot = next(e for e in g.elements() if g.element_order(e) == 3)
    res = forge_build(g, 5, subgroup_elt_lists=[[rot]])
    # |H| = 3, normal in S3: delta = 1 - 6/(3*6) = 2/3
    assert res.delta == Fraction(2, 3)
    assert res.module.fixed_dim([rot]) == 0


def test_dim_bound_exact_on_all_builds():
    cases = [
        (c22(), 3, [], []),
        (c3(), 2, [], []),
        (s3(), 5, [Word.make([2])], []),
        (c5(), 3, [Word.make([1]), Word.make([1, 1])], []),
    ]
    for group, p, words, subs in cases:
        res = forge_build(group, p, words=words, subgroup_elt_lists=subs)
        bound = Fraction(len(res.input.gens) - 1) * group.order * res.delta
        assert Fraction(res.dim) >= bound


def test_section_solves_boundary_equation():
    g = c22()
    res = forge_build(g, 3)
    rel = res.rel
    ext = res.extension()
    for x in g.elements():
        s = ext.section(x)
        assert np.array_equal(rel.derivation(s.vec), rel.element_delta(x))


def test_extension_group_axioms_and_identity():
    rng = random.Random(17)
    res = forge_build(c22(), 3)
    ext = res.extension()
    for _ in range(40):
        a, b = random_element(ext, rng), random_element(ext, rng)
        assert a * ext.identity == a
        assert a * a.inverse() == ext.identity
        assert (a * b).lower == a.lower * b.lower


def test_lifted_generators_generate():
    res = forge_build(c22(), 3)
    ext = res.extension()
    assert len(ext.elements()) == ext.order == 324


def test_verify_catches_wrong_subgroup_claim():
    # a subgroup that was never killed keeps fixed vectors: feed it to the
    # verifier as if it had been listed and watch the check fail
    g = c22()
    res = forge_build(g, 3)
    res.input.subgroups = (SubgroupData.from_elements(g, [g.generators[0]]),)
    checks = {c.check: c for c in verify_conclusions(res)}
    assert checks["forge.fixed-vanish"].status == FAIL


def test_commutator_word_boundary_case():
    # all exponent sums of [x1, x2] vanish, so the relator-power span alone
    # carries no fixed vector; the build still bounds every fixed space
    # because the trivial line is always part of the killed subspace
    from jitower.relmod import relation_module, relator_power_image
    g = s3()
    w = Word.make([1, 2, -1, -2])
    rel = relation_module(g, g.generators, PrimeField(5))
    u = relator_power_image(w, rel)
    n = g.order
    assert all(int(u[i * n:(i + 1) * n].sum()) % 5 == 0 for i in range(2))
    span = rel.module.g_span(u.reshape(1, -1))
    assert span.dim == 1 and not span.contains(rel.module.norm_vector(0))

    res = forge_build(g, 5, words=[w])
    assert res.delta == Fraction(2, 3)
    assert res.dim == 5
    assert res.module.fixed_dim(list(g.elements())) == 1
    # bound at K = G: 1 <= 5 / ((2/3) * 6) = 5/4; without the killed trivial
    # line the fixed space would be 2-dimensional and the bound would fail
    assert Fraction(1) <= Fraction(res.dim) / (res.delta * 6)
    assert Fraction(2) > Fraction(res.dim + 1) / (res.delta * 6)
    assert fixed_bound_holds(res)
    checks = {c.check: c for c in verify_conclusions(res)}
    assert checks["forge.orders-preserved"].status == "pass"


def test_forge_input_needs_one_base_order_per_word():
    g = c22()
    inp = ForgeInput(g, tuple(g.generators), PrimeField(3), (Word.make([1]),))
    with pytest.raises(ValueError, match="one base order per word"):
        build_module(inp)


@pytest.mark.parametrize("tower", ["default_tower", "budget_tower",
                                   "forced_hlist_tower", "seeded_hlist_tower",
                                   "rank_three_tower"])
def test_section_check_matches_all_pairs_reference(tower, request):
    state, _ = request.getfixturevalue(tower)
    for lv in state.levels[1:]:
        ext = lv.group
        assert section_is_homomorphism(ext, ext.lower.generators)
        assert reference_section_check(ext)


def _break_section(ext, rows):
    """Shift the given rows of the section table by the sum of the live basis."""
    sec = ext._sections.copy()
    shift = ext.module.live.basis.sum(axis=0)
    sec[rows] = ext.module.killed.reduce(sec[rows] + shift)
    sec.setflags(write=False)
    ext._sections = sec


@pytest.mark.parametrize("rows", ["identity", "generator", "non-generator",
                                  "outside first generator"])
@pytest.mark.parametrize("group, p", [(c22(), 3), (s3(), 5)])
def test_broken_section_fails_check_and_reference(group, p, rows):
    res = forge_build(group, p)
    ext = res.extension()
    gen_idx = [group.index_of(t) for t in group.generators]
    first = group.subgroup_closure(group.generators[:1])
    broken = {"identity": [0], "generator": gen_idx[:1],
              "non-generator": [next(i for i in range(1, group.order)
                                     if i not in gen_idx)],
              "outside first generator": [i for i in range(group.order)
                                          if i not in first]}[rows]
    _break_section(ext, broken)
    if rows == "outside first generator":
        # constant on the cosets of <t_1>: the identity still holds at h = t_1
        assert section_is_homomorphism(ext, group.generators[:1])
    checks = {c.check: c for c in verify_conclusions(res)}
    assert checks["forge.section-homomorphism"].status == FAIL
    assert not reference_section_check(ext)


def test_broken_section_fails_on_tower_level(default_tower):
    # one non-generator row of the 324-element base of level 3
    state, _ = default_tower
    lv = state.levels[2]
    low = lv.group.lower
    ext = ExtensionGroup(lv.module, gen_vecs=lv.gen_vecs, gen_lowers=low.generators,
                         section_vec=lv.section_vec, check=False)
    assert section_is_homomorphism(ext, low.generators)
    gen_idx = [low.index_of(t) for t in low.generators]
    _break_section(ext, [next(i for i in range(1, low.order) if i not in gen_idx)])
    assert not section_is_homomorphism(ext, low.generators)
    assert not reference_section_check(ext)
