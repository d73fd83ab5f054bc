import random

import numpy as np
import pytest

from jitower.extension import ExtensionGroup
from jitower.gmodule import GModule
from jitower.groups import (CapExceeded, TableGroup, closure_indices,
                            is_normal_indices, normal_closure_indices,
                            word_image, word_images)
from jitower.linalg import PrimeField, Subspace
from jitower.words import Word, enumerate_words

from conftest import c2, c6, c22, random_element, refined_order, s3


def test_cyclic_group_basics():
    g = TableGroup.cyclic(6, gens=(1,))
    assert g.order == 6
    assert g.exponent() == 6
    assert g.element_order(g.element(1)) == 6
    assert g.element_order(g.element(2)) == 3
    assert g.element_order(g.identity) == 1


def test_group_axioms_random():
    rng = random.Random(3)
    for g in (s3(), c6(), c22()):
        for _ in range(60):
            a, b, c = (random_element(g, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * g.identity == a
            assert a * a.inverse() == g.identity


def test_element_order_divides_group_order():
    g = s3()
    for e in g.elements():
        assert g.order % g.element_order(e) == 0


def test_exponent_is_lcm_of_element_orders():
    for g in (s3(), c6(), c22(), TableGroup.symmetric(4), TableGroup.trivial()):
        orders = [g.element_order(e) for e in g.elements()]
        assert orders == [refined_order(g, e) for e in g.elements()]
        assert g.exponent() == np.lcm.reduce(orders)


def test_element_order_norm_rule_both_outcomes():
    # (v, g) has order k = ord(g) when N_g v is killed and k*p otherwise:
    # F_3[C2] with nothing killed, and F_5[S3] modulo its norm line
    rng = random.Random(5)
    for group, p, kill_norm in ((c2(), 3, False), (s3(), 5, True)):
        field = PrimeField(p)
        mod = GModule(field, group, 1)
        if kill_norm:
            mod = mod.quotient(Subspace.span(field, mod.ambient_dim,
                                             mod.norm_vector().reshape(1, -1)))
        ext = ExtensionGroup(mod, check=False)
        elements = [random_element(ext, rng) for _ in range(300)]
        seen = set()
        for e in elements:
            o, k = ext.element_order(e), group.element_order(e.lower)
            assert o == refined_order(ext, e), (group.name, e)
            seen.add(o == k)
        assert seen == {True, False}, group.name


@pytest.mark.parametrize("tower", ["default_tower", "budget_tower",
                                   "forced_hlist_tower", "seeded_hlist_tower"])
def test_element_order_matches_refinement_on_fixture_towers(tower, request):
    # the oracle runs once per distinct image, the fast path once per word;
    # each image of the trie walk must equal letter-by-letter evaluation
    state, _ = request.getfixturevalue(tower)
    words = enumerate_words(state.config.d, 6)
    for k in range(state.depth + 1):
        group = state.group(k)
        want = {}
        walked = []
        for w, a in word_images(group.generators, group.identity, 6):
            assert a == state.pi(w, k), (tower, k, w)
            walked.append(w)
            if a not in want:
                want[a] = refined_order(group, a)
            assert group.element_order(a) == want[a], (tower, k, w)
        # the same words, and lex order within each length
        assert sorted(walked, key=len) == words, (tower, k)


def test_table_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        TableGroup(np.array([[0, 1], [1, 1]]))        # not a latin square
    with pytest.raises(ValueError):
        TableGroup(np.array([[1, 0], [0, 1]]))        # identity not at 0
    with pytest.raises(ValueError):
        TableGroup.cyclic(4, gens=(2,))               # 2 does not generate C4


def test_normal_closure_of_three_cycle_in_s3():
    g = s3()
    # a 3-cycle: any element of order 3
    rot = next(e for e in g.elements() if g.element_order(e) == 3)
    closure = g.normal_closure([rot])
    assert len(closure) == 3
    # oracle: brute force over the whole subgroup lattice of S3
    mt, inv = g.mult_table(), g.inverse_table()
    normal_subs = [s for s in g.all_subgroups() if is_normal_indices(mt, inv, s)]
    assert sorted(len(s) for s in normal_subs) == [1, 3, 6]
    assert tuple(closure) in [tuple(s) for s in normal_subs]
    # conjugation stability
    members = set(closure)
    for n in closure:
        for x in range(g.order):
            assert int(mt[mt[x, n], inv[x]]) in members


def test_normal_closure_in_abelian_group_is_generated_subgroup():
    g = c6()
    e = g.element(2)
    assert g.normal_closure([e]) == g.subgroup_closure([e])
    assert g.normal_closure([g.identity]) == (0,)


def test_all_subgroups_of_s3():
    subs = s3().all_subgroups()
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]


def test_closure_indices_reaches_generated_subgroup():
    g = c22()
    mt = g.mult_table()
    assert closure_indices(mt, [1]).tolist() == [0, 1]
    assert closure_indices(mt, [1, 2]).tolist() == [0, 1, 2, 3]


def test_normalizer():
    g = s3()
    rot = next(e for e in g.elements() if g.element_order(e) == 3)
    a3 = g.subgroup_closure([rot])
    assert len(g.normalizer(a3)) == 6      # A3 is normal
    flip = next(e for e in g.elements() if g.element_order(e) == 2)
    c2sub = g.subgroup_closure([flip])
    assert len(g.normalizer(c2sub)) == 2   # self-normalizing


def test_direct_product_structure():
    g = c6()
    assert g.order == 6 and g.exponent() == 6
    orders = sorted(g.element_order(e) for e in g.elements())
    assert orders == [1, 2, 3, 3, 6, 6]


def test_seed_file_roundtrip(tmp_path):
    g = s3()
    path = tmp_path / "seed.txt"
    g.to_file(path)
    h = TableGroup.from_file(path)
    assert h.order == 6
    assert np.array_equal(h.table, g.table)
    assert h._gen_idx == g._gen_idx


def test_seed_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 1\n1 0\n")   # missing generator line
    with pytest.raises(ValueError):
        TableGroup.from_file(bad)
    bad.write_text("")
    with pytest.raises(ValueError):
        TableGroup.from_file(bad)


def test_enumeration_cap():
    g = c6()
    with pytest.raises(CapExceeded):
        g.elements(cap=3)


def test_word_image():
    g = s3()
    w = Word.make([1, 2, -1])
    t1, t2 = g.generators
    assert word_image(w, g.generators, g.identity) == t1 * t2 * t1.inverse()
    assert word_image(Word(), g.generators, g.identity) == g.identity


def test_cross_group_multiplication_rejected():
    a, b = c22(), c22()
    with pytest.raises(ValueError):
        a.identity * b.identity


def test_normal_closure_indices_matches_definition():
    g = s3()
    mt, inv = g.mult_table(), g.inverse_table()
    for seed in range(1, 6):
        sub = normal_closure_indices(mt, inv, [seed])
        assert is_normal_indices(mt, inv, sub)
        assert seed in sub.tolist()
