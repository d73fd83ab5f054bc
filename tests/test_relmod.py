import random

import numpy as np
import pytest

from jitower.forge import splitting_vector
from jitower.groups import TableGroup, word_image
from jitower.linalg import PrimeField, Subspace, kernel_basis, rref, solve_batch
from jitower.relmod import (magnus_pair, relation_module, relator_power_image,
                            spanning_tree)
from jitower.words import Word

from conftest import boundary_matrix, c2, c3, c4, c6, c22, s3


def test_trivial_group_relation_module_is_full_space():
    g = TableGroup.trivial(2)
    rel = relation_module(g, g.generators, PrimeField(5))
    assert rel.kernel_dim == 2
    # both columns are loops: no tree edge, and every vector is a cycle
    assert spanning_tree(g, [0, 0], 5)[0] == ()
    assert not rel.derivation(np.ones(2, dtype=np.int64)).any()


def test_klein_four_kernel_dimension():
    g = c22()
    rel = relation_module(g, g.generators, PrimeField(3))
    assert rel.kernel_dim == 5   # (d-1)|G| + 1


def test_repeated_generator_tuple():
    # C3 generated by (g, g): the boundary has rank |G| - 1 = 2, and the
    # tree takes both edges of the first copy
    g = c3()
    rel = relation_module(g, g.generators, PrimeField(2))
    _, _, rank = rref(boundary_matrix(g, [1, 1], 2), 2)
    assert rank == 2
    assert spanning_tree(g, [1, 1], 2)[0] == (0, 1)
    assert rel.kernel_dim == 6 - 2 == 4


def test_relation_module_preconditions():
    g = c22()
    with pytest.raises(ValueError):
        relation_module(g, g.generators, PrimeField(2))   # p divides |G|
    t = g.generators[0]
    with pytest.raises(ValueError):
        relation_module(g, (t, t), PrimeField(3))          # does not generate


def test_magnus_pair_base_cases():
    g = c22()
    rel = relation_module(g, g.generators, PrimeField(3))
    vec, value = magnus_pair(Word(), rel)
    assert not vec.any() and value == g.identity
    vec, value = magnus_pair(Word.make([1]), rel)
    e1 = np.zeros(8, dtype=np.int64)
    e1[0] = 1
    assert np.array_equal(vec, e1) and value == g.generators[0]


def test_magnus_derivation_identity_random():
    rng = random.Random(21)
    for group, p in ((c22(), 3), (s3(), 5)):
        rel = relation_module(group, group.generators, PrimeField(p))
        for _ in range(100):
            letters = [rng.choice([1, -1]) * rng.randint(1, 2)
                       for _ in range(rng.randint(0, 8))]
            w = Word.make(letters)
            vec, value = magnus_pair(w, rel)
            assert np.array_equal(rel.derivation(vec), rel.element_delta(value))


def test_magnus_multiplicativity_random():
    rng = random.Random(22)
    g = s3()
    rel = relation_module(g, g.generators, PrimeField(5))
    for _ in range(100):
        u = Word.make([rng.choice([1, -1]) * rng.randint(1, 2)
                       for _ in range(rng.randint(0, 6))])
        v = Word.make([rng.choice([1, -1]) * rng.randint(1, 2)
                       for _ in range(rng.randint(0, 6))])
        (vu, gu), (vv, gv) = magnus_pair(u, rel), magnus_pair(v, rel)
        vuv, guv = magnus_pair(u * v, rel)
        # (vu, gu)(vv, gv) = (vu + gu.vv, gu gv), the action a coordinate gather
        assert np.array_equal(vuv, (vu + rel.module.act_raw(gu, vv)) % 5)
        assert guv == gu * gv


def test_relator_lands_in_kernel():
    g = c22()
    rel = relation_module(g, g.generators, PrimeField(3))
    # x1^2 maps to the identity, so its fox vector is a kernel element
    vec, value = magnus_pair(Word.make([1, 1]), rel)
    assert value == g.identity
    assert not rel.derivation(vec).any()
    assert rel.module.live.contains(vec)


def test_relator_power_image_degenerate_rank_one():
    # C2 with a single generator: the image of x1^2 is the norm vector 1 + t
    g = c2()
    gens = (g.element(1),)
    rel = relation_module(g, gens, PrimeField(3))
    img = relator_power_image(Word.make([1]), rel)
    assert img.tolist() == [1, 1]
    assert not rel.derivation(img).any()


def test_relator_power_image_is_order_one_case():
    g = c22()
    rel = relation_module(g, g.generators, PrimeField(3))
    w = Word.make([1, 1])   # already a relator, so the power is 1
    assert np.array_equal(relator_power_image(w, rel), magnus_pair(w, rel)[0])


def test_kernel_is_stable_under_action():
    for group, p in ((c22(), 3), (c3(), 5), (s3(), 5)):
        rel = relation_module(group, group.generators, PrimeField(p))
        assert rel.module.g_span(rel.module.live.basis) == rel.module.live


def test_fixed_space_dimension_formula_with_lattice():
    # dim of the H-fixed space is (d-1)|G:H| + 1 for every subgroup H
    for group, p in ((c22(), 3), (s3(), 5)):
        rel = relation_module(group, group.generators, PrimeField(p))
        d = rel.d
        for sub in group.all_subgroups():
            elements = [group.element(i) for i in sub]
            dim = rel.module.fixed_dim(elements)
            assert dim == (d - 1) * (group.order // len(sub)) + 1


def test_quotient_fixed_dim_matches_direct_rank_small_groups():
    # killed spaces: zero, the norm line, and the G-span of a random
    # boundary-kernel vector; every subgroup of each group
    rng = random.Random(23)
    for make in (c4, c6, c22, s3):
        group = make()
        for d in (2, 3):
            gens = tuple(group.generators) + (group.elements()[-1],) * (d - 2)
            for p in (5, 7):
                rel = relation_module(group, gens, PrimeField(p))
                mod = rel.module
                coeffs = [rng.randrange(p) for _ in range(mod.live_dim)]
                random_vec = np.asarray(coeffs, dtype=np.int64) @ mod.live.basis % p
                for killed in (Subspace.zero(rel.field, mod.ambient_dim),
                               mod.g_span(mod.norm_vector(0)),
                               mod.g_span(random_vec)):
                    quotient = mod.quotient(killed)
                    for sub in group.all_subgroups():
                        elements = [group.element(i) for i in sub]
                        assert (rel.quotient_fixed_dim(quotient.killed, elements)
                                == quotient.fixed_dim(elements)), \
                            (group.name, d, p, killed.dim, sub)


@pytest.mark.parametrize("tower", ["default_tower", "budget_tower",
                                   "forced_hlist_tower", "seeded_hlist_tower"])
def test_quotient_fixed_dim_matches_direct_rank_on_fixture_towers(tower, request):
    # every cyclic subgroup rep and every normal subgroup the rigidity
    # report qualifies, at every level >= 2
    from jitower.analysis import desc_generators, normal_subgroups, tower_chain
    from jitower.forge import cyclic_subgroup_reps
    state, _ = request.getfixturevalue(tower)
    for lv in state.levels[1:]:
        chain = tower_chain(state)[:lv.index]
        subgroups = [[e] for e, _ in cyclic_subgroup_reps(chain[-1])]
        subgroups += [desc_generators(d, chain)
                      for d in normal_subgroups(chain, state.config.submodule_guard)
                      if d.lower is not None and not d.lower.is_trivial]
        for gens in subgroups:
            assert (lv.rel.quotient_fixed_dim(lv.module.killed, gens)
                    == lv.module.fixed_dim(gens)), (tower, lv.index, gens)


def test_word_image_matches_magnus_value():
    g = s3()
    rel = relation_module(g, g.generators, PrimeField(5))
    w = Word.make([1, 2, 1, -2])
    assert magnus_pair(w, rel)[1] == word_image(w, g.generators, g.identity)


def _assert_tree_matches_dense(rel):
    """The spanning tree is the boundary's rref pivot set, the kernel is
    kernel_basis's, each potential P[h] is solve_batch's free-zero solution
    of boundary(a) = h - 1 (so their sum is the splitting vector), and
    derivation is the boundary product."""
    group, p = rel.group, rel.field.p
    n = group.order
    gen_idxs = [group.index_of(t) for t in rel.gens]
    b = boundary_matrix(group, gen_idxs, p)
    assert spanning_tree(group, gen_idxs, p)[0] == rref(b, p)[1]
    assert rel.module.live == kernel_basis(b, rel.field)
    targets = np.eye(n, dtype=np.int64)
    targets[0] -= 1
    sols = solve_batch(b, targets % p, p)
    assert np.array_equal(rel.potentials, sols.T)
    assert np.array_equal(splitting_vector(rel), sols.sum(axis=1) % p)
    rng = np.random.default_rng(n * p)
    for v in rng.integers(0, p, size=(4, b.shape[1])):
        assert np.array_equal(rel.derivation(v), b @ v % p)


@pytest.mark.parametrize("tower", ["default_tower", "budget_tower",
                                   "forced_hlist_tower", "seeded_hlist_tower",
                                   "rank_three_tower"])
def test_tree_matches_dense_oracle_on_fixture_towers(tower, request):
    state, _ = request.getfixturevalue(tower)
    levels = [lv for lv in state.levels if lv.rel is not None]
    assert len(levels) == len(state.levels) - (state.seed.order > 1)
    for lv in levels:
        _assert_tree_matches_dense(lv.rel)
        b = boundary_matrix(lv.rel.group, [lv.rel.group.index_of(t)
                                           for t in lv.rel.gens], lv.p)
        for row in (*lv.gen_vecs, lv.section_vec):
            assert np.array_equal(lv.rel.derivation(row), b @ row % lv.p)


@pytest.mark.parametrize("make", [c4, c6, c22, s3, lambda: TableGroup.trivial(2)],
                         ids=["C4", "C6", "C2xC2", "S3", "trivial"])
@pytest.mark.parametrize("d", [2, 3])
def test_tree_matches_dense_oracle_on_small_groups(make, d):
    # the trivial group's columns are all loops; d = 3 repeats an element
    group = make()
    gens = tuple(group.generators) + (group.elements()[-1],) * (d - 2)
    for p in (5, 7):
        _assert_tree_matches_dense(relation_module(group, gens, PrimeField(p)))
