import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jitower.groups import TABLE_CAP, word_image
from jitower.words import OrderBudget, Word, enumerate_words, fox_vector, word_count

from conftest import boundary_matrix, c22, reference_fox_vector, s3


def test_reduce_cancels_adjacent_pairs():
    assert Word.make([1, -1]).letters == ()
    assert Word.make([1, 2, -2, 1]).letters == (1, 1)


def test_reduce_is_idempotent_on_reduced_words():
    w = Word.make([1, 2, -1, 2])
    assert Word.make(w.letters) == w


def test_letter_validation():
    with pytest.raises(ValueError):
        Word.make([0])
    with pytest.raises(ValueError):
        Word.make([3], rank=2)


def test_word_arithmetic():
    u = Word.make([1, 2])
    assert (u * u.inverse()).letters == ()
    assert (u ** 2).letters == (1, 2, 1, 2)
    assert (u ** -1) == u.inverse()
    assert (u ** 0) == Word()


def test_enumeration_counts():
    words = enumerate_words(2, 1)
    assert len(words) == 5
    assert words[0] == Word()
    exactly_two = [w for w in enumerate_words(2, 2) if len(w) == 2]
    assert len(exactly_two) == 12 == word_count(2, 2)
    assert enumerate_words(2, 0) == [Word()]


def test_enumeration_matches_closed_formula_and_is_sorted():
    for d in (2, 3):
        words = enumerate_words(d, 4)
        by_len = {}
        for w in words:
            by_len.setdefault(len(w), []).append(w)
        for n in range(1, 5):
            assert len(by_len[n]) == word_count(d, n)
        assert len(set(words)) == len(words)
    # (length, lex) order: lengths ascend, x1 before x1^-1 before x2
    words = enumerate_words(2, 2)
    assert [w.letters for w in words[:7]] == [
        (), (1,), (-1,), (2,), (-2,), (1, 1), (1, 2)]


def test_budget_values_depend_only_on_length():
    budget = OrderBudget(16, 8)
    for w in enumerate_words(2, 3):
        assert budget.of(w) == 16 * 8 ** len(w)
    # nondecreasing in the length
    values = [budget.of_length(n) for n in range(8)]
    assert values == sorted(values)


def test_budget_tail_sum_admissible():
    budget = OrderBudget(16, 8)
    assert budget.tail_sum(2) == Fraction(1, 20)
    # 0.05 < 0.1
    assert budget.admissible(2, Fraction(1, 5))
    # the stock budget sits exactly at the boundary for eps = 1/10
    assert budget.admissible(2, Fraction(1, 10))
    assert not OrderBudget(1, 8).admissible(2, Fraction(1, 5))
    with pytest.raises(ValueError):
        OrderBudget(16, 3).tail_sum(2)   # base = 2d-1 diverges
    with pytest.raises(ValueError):
        budget.admissible(2, Fraction(1, 3))


def test_budget_tail_sum_against_partial_summation():
    # oracle: exact partial sum to length 40 plus the exact geometric
    # remainder reproduces the closed form
    budget = OrderBudget(16, 8)
    d = 2
    partial = sum(Fraction(word_count(d, n), budget.of_length(n))
                  for n in range(1, 41))
    ratio = Fraction(2 * d - 1, budget.base)
    remainder = (Fraction(word_count(d, 41), budget.of_length(41))
                 / (1 - ratio))
    assert partial + remainder == budget.tail_sum(d)
    assert partial < budget.tail_sum(d)


def _random_word(rng, max_len):
    return Word.make([rng.choice([1, -1]) * rng.randint(1, 2)
                      for _ in range(rng.randint(0, max_len))])


def _unit(n, *terms):
    """The coordinate vector of sum c*g over (index, c) terms, unreduced."""
    out = np.zeros(n, dtype=np.int64)
    for g, c in terms:
        out[g] += c
    return out


def test_fox_base_cases():
    g = c22()
    p = 3
    t1, t2 = g._gen_idx
    inv = g.inverse_table()
    # d(x1 x2)/dx1 = 1 and d(x1 x2)/dx2 = x1
    vec, image = fox_vector(Word.make([1, 2]), g, (t1, t2), p)
    assert np.array_equal(vec, np.concatenate([_unit(4, (0, 1)), _unit(4, (t1, 1))]))
    assert image == g.table[t1, t2]
    # d(x1^-1)/dx1 = -x1^-1
    vec, image = fox_vector(Word.make([-1]), g, (t1, t2), p)
    assert np.array_equal(vec[:4], _unit(4, (inv[t1], p - 1))) and not vec[4:].any()
    assert image == inv[t1]
    assert not fox_vector(Word(), g, (t1, t2), p)[0].any()
    with pytest.raises(ValueError):
        fox_vector(Word.make([3]), g, (t1, t2), p)


def test_fox_conjugate_expansion():
    # d(x1 x2 x1^-1)/dx1 = 1 - x1 x2 x1^-1, by the product rule by hand
    g = s3()
    p = 5
    t1, t2 = g._gen_idx
    value = g.table[g.table[t1, t2], g.inverse_table()[t1]]
    vec, image = fox_vector(Word.make([1, 2, -1]), g, (t1, t2), p)
    assert image == value
    assert np.array_equal(vec[:6], _unit(6, (0, 1), (value, -1)) % p)


def test_fox_fundamental_identity_random():
    # boundary(vec) = image - 1 for the boundary of the image tuple
    rng = random.Random(11)
    for group in (c22(), s3()):
        n = group.order
        for _ in range(200):
            images = [rng.randrange(n) for _ in range(2)]
            vec, image = fox_vector(_random_word(rng, 10), group, images, 5)
            assert np.array_equal(boundary_matrix(group, images, 5) @ vec % 5,
                                  _unit(n, (image, 1), (0, -1)) % 5)


def test_fox_product_rule_random():
    # vec(uv) = vec(u) + u.vec(v), where u acts on each copy by the gather
    # (u.f)(h) = f(u^-1 h)
    rng = random.Random(12)
    group = s3()
    n, p = group.order, 7
    pull = group.table[group.inverse_table()]
    for _ in range(150):
        images = [rng.randrange(n) for _ in range(2)]
        u, v = _random_word(rng, 6), _random_word(rng, 6)
        vu, iu = fox_vector(u, group, images, p)
        vv, iv = fox_vector(v, group, images, p)
        vuv, iuv = fox_vector(u * v, group, images, p)
        acted = vv.reshape(2, n)[:, pull[iu]].reshape(-1)
        assert np.array_equal(vuv, (vu + acted) % p)
        assert iuv == group.table[iu, iv]


@pytest.mark.parametrize("tower", ["default_tower", "budget_tower", "forced_hlist_tower",
                                   "seeded_hlist_tower", "rank_three_tower"])
def test_fox_vector_matches_reference(tower, request):
    # every word of length <= 6 over each base group the tower forges over
    state, _ = request.getfixturevalue(tower)
    d = state.config.d
    words = enumerate_words(d, 6)
    for k in range(state.depth):
        group = state.group(k)
        if group.order > TABLE_CAP:
            continue
        gen_idxs = [group.index_of(t) for t in group.generators]
        p = state.levels[k].p
        for w in words:
            vec, image = fox_vector(w, group, gen_idxs, p)
            want_vec, want_image = reference_fox_vector(w, group, group.generators, p)
            assert image == want_image and np.array_equal(vec, want_vec), (tower, k, w)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
def test_word_image_respects_reduction(letters):
    g = c22()
    w = Word.make(letters)
    img = word_image(w, g.generators, g.identity)
    # evaluating the unreduced letters directly gives the same image
    direct = g.identity
    for x in letters:
        gen = g.generators[abs(x) - 1]
        direct = direct * (gen if x > 0 else gen.inverse())
    assert img == direct
