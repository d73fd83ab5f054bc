import itertools
import random

import numpy as np
import pytest

from jitower.gmodule import GModule, gaussian_binomial, subspace_count
from jitower.groups import CapExceeded, TableGroup
from jitower.linalg import PrimeField, Subspace

from conftest import c2, c3, c22, random_element


def regular(group, p, copies=1):
    return GModule(PrimeField(p), group, copies)


def test_gaussian_binomial():
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(4, 2, 3) == 130
    assert subspace_count(2, 3) == 6
    assert subspace_count(4, 3) == 212


def test_act_identity_and_basis_permutation():
    g = c2()
    m = regular(g, 5)
    v = np.array([1, 2], dtype=np.int64)
    assert m.act(g.identity, v).tolist() == [1, 2]
    # the nontrivial element swaps the two group coordinates
    e_id, e_t = np.eye(2, dtype=np.int64)
    assert m.act(g.element(1), e_id).tolist() == e_t.tolist()


def test_act_inverse_roundtrip_random():
    rng = random.Random(5)
    g = c22()
    m = regular(g, 7, copies=2)
    for _ in range(40):
        x = random_element(g, rng)
        v = np.array([rng.randrange(7) for _ in range(m.ambient_dim)])
        assert np.array_equal(m.act(x, m.act(x.inverse(), v)), v % 7)


def test_act_is_multiplicative_random():
    rng = random.Random(6)
    g = c22()
    m = regular(g, 3)
    for _ in range(40):
        x, y = random_element(g, rng), random_element(g, rng)
        v = np.array([rng.randrange(3) for _ in range(m.ambient_dim)])
        assert np.array_equal(m.act(x * y, v), m.act(x, m.act(y, v)))


def test_g_span_examples():
    g = c2()
    m = regular(g, 3)
    assert m.g_span(np.zeros((1, 2), dtype=np.int64)).dim == 0
    # the orbit of a basis vector spans the whole regular module
    assert m.g_span(np.eye(2, dtype=np.int64)[:1]).dim == 2
    # the norm vector is fixed, so its span is the trivial line
    span = m.g_span(m.norm_vector(0).reshape(1, -1))
    assert span.dim == 1
    assert span.contains(m.norm_vector(0))


def test_g_span_stable_and_idempotent():
    g = c22()
    m = regular(g, 3)
    span = m.g_span(np.eye(m.ambient_dim, dtype=np.int64)[1:2])
    assert m.stable(span)
    assert m.g_span(span.basis) == span


def test_invariants_trivial_subgroup_is_everything():
    g = c3()
    m = regular(g, 5)
    assert m.invariants([]) == m.live
    assert m.invariants([g.identity]) == m.live


def test_invariants_of_c3_on_regular_module_mod5():
    g = c3()
    m = regular(g, 5)
    inv = m.invariants(list(g.elements()))
    assert inv.dim == 1
    assert inv.contains(m.norm_vector(0))
    # oracle: enumerate all 125 vectors of F_5[C3] and count fixed ones
    fixed = 0
    rot = g.element(1)
    for v in itertools.product(range(5), repeat=3):
        arr = np.array(v, dtype=np.int64)
        if np.array_equal(m.act(rot, arr), arr):
            fixed += 1
    assert fixed == 5 ** inv.dim


def test_invariants_of_full_regular_module_have_dim_copies():
    g = c2()
    m = regular(g, 3, copies=2)
    inv = m.invariants(list(g.elements()))
    assert inv.dim == 2
    # oracle: brute force over all 81 vectors of F_3[C2]^2
    fixed = 0
    flip = g.element(1)
    for v in itertools.product(range(3), repeat=4):
        arr = np.array(v, dtype=np.int64)
        if np.array_equal(m.act(flip, arr), arr):
            fixed += 1
    assert fixed == 3 ** 2
    assert m.fixed_dim(list(g.elements())) == 2


def test_quotient_dimension_bookkeeping():
    g = c2()
    m = regular(g, 3)
    assert m.quotient(Subspace.zero(m.field, 2)).live_dim == 2
    norm = Subspace.span(m.field, 2, m.norm_vector(0).reshape(1, -1))
    q = m.quotient(norm)
    assert q.live_dim == 1
    assert q.quotient(q.live).live_dim == 0


def test_quotient_rejects_unstable_space():
    g = c2()
    m = regular(g, 3)
    line = Subspace.span(m.field, 2, [[1, 0]])   # not C2-stable
    with pytest.raises(ValueError):
        m.quotient(line)


def test_submodules_of_trivial_group_module():
    g = TableGroup.trivial()
    m = GModule(PrimeField(3), g, 2)
    subs = m.enumerate_submodules()
    assert len(subs) == 6   # 1 + 4 + 1 subspaces of F_3^2
    assert len({s for s in subs}) == 6


def test_submodules_of_zero_module():
    g = c2()
    m = regular(g, 3).quotient(Subspace.full(PrimeField(3), 2))
    assert m.live_dim == 0
    assert len(m.enumerate_submodules()) == 1


def test_submodules_of_c2_regular_mod3():
    g = c2()
    m = regular(g, 3)
    subs = m.enumerate_submodules()
    # oracle: test stability of all 6 subspaces of F_3^2 by hand
    expected = []
    f = PrimeField(3)
    candidates = [Subspace.zero(f, 2), Subspace.full(f, 2)]
    for line in ([1, 0], [0, 1], [1, 1], [1, 2]):
        candidates.append(Subspace.span(f, 2, [line]))
    flip = g.element(1)
    for s in candidates:
        if s.dim == 0 or s.contains(m.act(flip, s.basis)):
            expected.append(s)
    assert len(expected) == 4    # zero, norm line, sign line, everything
    assert sorted(s.basis.tobytes() for s in subs) == \
        sorted(s.basis.tobytes() for s in expected)
    for s in subs:
        assert m.stable(s)


def test_submodule_guard():
    g = c2()
    m = regular(g, 3, copies=4)
    with pytest.raises(CapExceeded):
        m.enumerate_submodules(guard=10)


def test_trivial_action_module():
    g = c3()
    m = GModule.trivial(PrimeField(5), g, 2)
    assert m.live_dim == 2
    for x in g.elements():
        assert np.array_equal(m.act(x, m.live.basis), m.live.basis)
