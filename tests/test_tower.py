import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from jitower.certificate import FAIL
from jitower.extension import ExtensionGroup
from jitower.gmodule import GModule
from jitower.groups import TABLE_CAP, TableGroup, word_image
from jitower.linalg import PrimeField, Subspace
from jitower.tower import (FeasibilityStop, LoadError, TowerConfig, _scan_words,
                           _vec_str, build, hlist_gate, init_tower, load_tower,
                           normal_closure_in_extension, save_tower,
                           serialize_tower, step, torsion_shadow_check)
from jitower.words import OrderBudget, Word, enumerate_words

from conftest import c2, random_element, reference_torsion_check


def test_init_trivial_seed():
    state = init_tower(TowerConfig(depth=1))
    g1 = state.top
    assert g1.order == 4
    assert state.levels[0].dim == 2
    # generators square to the identity: G_1 is elementary abelian of exponent 2
    t1, t2 = g1.generators
    assert t1 * t1 == g1.identity
    assert g1.element_order(t1) == 2
    assert g1.exponent() == 2


def test_init_larger_rank():
    state = init_tower(TowerConfig(d=3, primes=(5, 2), depth=1,
                                   budget=OrderBudget(40, 8)))
    assert state.top.order == 125


def test_config_rejections(tmp_path):
    with pytest.raises(ValueError):
        init_tower(TowerConfig(epsilon=Fraction(1, 3)))        # eps >= 1/4
    with pytest.raises(ValueError):
        init_tower(TowerConfig(d=1))
    with pytest.raises(ValueError):
        init_tower(TowerConfig(primes=(2, 2, 3)))              # repeated prime
    with pytest.raises(ValueError):
        init_tower(TowerConfig(primes=(2, 3), depth=3))        # not enough primes
    with pytest.raises(ValueError):
        init_tower(TowerConfig(budget=OrderBudget(1, 8)))      # tail sum too big
    seed = tmp_path / "c2.txt"
    TableGroup.cyclic(2, gens=(1, 1)).to_file(seed)
    with pytest.raises(ValueError):
        init_tower(TowerConfig(seed_path=str(seed)))           # 2 divides |G_0|
    state = init_tower(TowerConfig(seed_path=str(seed), primes=(3, 5), depth=1))
    assert state.top.order == 9 * 2


def test_budget_gate_bypass():
    cfg = TowerConfig(budget=OrderBudget(1, 8), test_budget=True, depth=1)
    state = init_tower(cfg)
    assert state.top.order == 4


def test_default_tower_shape(default_tower):
    state, cert = default_tower
    assert [state.group(k).order for k in range(3)] == [1, 4, 324]
    assert [lv.dim for lv in state.levels] == [2, 4, 324]
    assert [lv.delta for lv in state.levels] == [1, 1, 1]
    assert [lv.r for lv in state.levels] == [0, 0, 0]
    assert [lv.s for lv in state.levels] == [0, 0, 0]
    assert cert.overall() == "pass"
    assert not [c for c in cert.checks if c.status == FAIL]
    assert state.conforming()


def test_default_tower_exponents(default_tower):
    state, _ = default_tower
    assert state.group(2).exponent() == 6
    assert state.top.exponent() == 30
    # order of any element of G_2 divides 6
    rng = random.Random(4)
    g2 = state.group(2)
    for _ in range(20):
        assert 6 % g2.element_order(random_element(g2, rng)) == 0


def test_enumeration_of_level_two(default_tower):
    state, _ = default_tower
    els = state.group(2).elements()
    assert len(els) == 324
    assert len(set(els)) == 324


def test_projection_is_homomorphism(default_tower):
    state, _ = default_tower
    rng = random.Random(9)
    g3, g2 = state.top, state.group(2)
    for _ in range(30):
        a, b = random_element(g3, rng), random_element(g3, rng)
        assert (a * b).lower == a.lower * b.lower


def test_rank_three_tower(rank_three_tower):
    state, cert = rank_three_tower
    assert state.group(1).order == 8
    assert state.levels[1].dim == 16 == (3 - 1) * 8
    assert cert.overall() == "pass"


def test_hlist_gate_thresholds():
    eps = Fraction(1, 10)
    assert not hlist_gate(5, eps)
    assert not hlist_gate(59, eps)
    assert not hlist_gate(22000, eps)
    assert hlist_gate(22100, eps)   # log p > 1/eps = 10 at p > e^10


def test_feasibility_stop_on_prime_exhaustion(default_tower):
    state, _ = default_tower
    with pytest.raises(FeasibilityStop):
        step(state)


def test_feasibility_stop_on_enum_cap():
    cfg = TowerConfig(enum_cap=100)
    state, cert = build(cfg)
    assert state.depth == 2      # the step from the 324-element level is barred
    assert state.truncated
    assert cert.overall() == "pass"


def test_feasibility_stop_on_table_cap_leaves_the_ledger():
    # |G_2| = 7^4 * 4 = 9604 is enumerable but above the multiplication-table
    # cap; a test budget of 4^len would freeze words in G_2 if the scan ran
    state = init_tower(TowerConfig(primes=(2, 7, 3), budget=OrderBudget(1, 4),
                                   test_budget=True, mode="relaxed"))
    step(state)
    assert state.top.order == 9604 > TABLE_CAP
    ledger = dict(state.ledger)
    with pytest.raises(FeasibilityStop, match="multiplication-table cap 8192"):
        step(state)
    assert state.ledger == ledger and state.depth == 2


def test_frozen_ledger(budget_tower):
    state, cert = budget_tower
    assert len(state.ledger) == 4
    for w, (order, lvl) in state.ledger.items():
        assert len(w) == 1
        assert order == 6 and lvl == 2
    assert state.levels[2].r == 4
    assert not state.conforming()
    stability = [c for c in cert.checks if c.check == "level3.order-stability"]
    assert stability and stability[0].status == "pass"
    preserved = [c for c in cert.checks if c.check == "level3.orders-preserved"]
    assert preserved and preserved[0].status == "pass"
    # margin 1/3 was waved through in relaxed mode
    margins = [c for c in cert.checks if c.check == "level3.margin"]
    assert margins[0].status == "not-guaranteed"
    assert state.levels[2].delta == Fraction(1, 3)
    assert state.levels[2].dim >= Fraction(1, 3) * 324


@pytest.mark.parametrize("tower", ["default_tower", "budget_tower",
                                   "forced_hlist_tower", "seeded_hlist_tower",
                                   "rank_three_tower"])
def test_torsion_shadow_matches_per_word_reference(tower, request):
    # status, detail and witness (the last failing word in (length, lex)
    # order; the budget tower has one) equal the per-word scan's
    state, _ = request.getfixturevalue(tower)
    assert torsion_shadow_check(state) == reference_torsion_check(state)


def test_torsion_witness_is_last_failing_word_across_lengths(budget_tower):
    # under the budget 2^len words of lengths 2 to 4 outrun their bounds;
    # frozen at the exponent, the length-4 words outside the x1 branch pass,
    # so the walk meets the shorter failures of later branches after the
    # witness, the last failing length-4 word under x1
    state, _ = budget_tower
    ledger = dict(state.ledger)
    for w in enumerate_words(2, 4):
        if len(w) == 4 and w.letters[0] != 1:
            ledger[w] = (state.top.exponent(), 3)
    state = dataclasses.replace(state, ledger=ledger, config=dataclasses.replace(
        state.config, budget=OrderBudget(1, 2)))
    want = reference_torsion_check(state)
    assert want.witness["word"][0] == 1 and len(want.witness["word"]) == 4
    assert torsion_shadow_check(state) == want


def test_scan_words_matches_per_word_reference(budget_tower):
    # at the top of the budget tower (exponent 30, budget 4^len) the scan
    # covers lengths 1 and 2, so the pairs must come back sorted by length
    state, _ = budget_tower
    top, budget = state.top, state.config.budget
    max_len = max(n for n in range(8) if budget.of_length(n) < top.exponent())
    want = []
    for w in enumerate_words(state.config.d, max_len)[1:]:
        order = top.element_order(word_image(w, top.generators, top.identity))
        if order > budget.of(w):
            want.append((w, order))
    assert max_len == 2 and {len(w) for w, _ in want} == {1, 2}
    assert _scan_words(state) == want


def test_strict_mode_rejects_margin_violation():
    cfg = TowerConfig(budget=OrderBudget(1, 4), test_budget=True, mode="strict")
    from jitower.forge import BuildError
    with pytest.raises(BuildError):
        build(cfg)


def test_normal_closure_in_sign_extension():
    # F_3 with C2 acting by inversion: the closure of the involution is the
    # whole six-element group, because the sign action has no fixed vectors
    g = c2()
    f = PrimeField(3)
    module = GModule(f, g, 1).quotient(
        Subspace.span(f, 2, np.ones((1, 2), dtype=np.int64)))
    ext = ExtensionGroup(module, name="sign-toy")
    assert ext.order == 6
    w_space, m_idxs = normal_closure_in_extension(ext, g.element(1))
    assert tuple(m_idxs) == (0, 1)
    assert w_space.dim == 1 == module.live_dim
    # oracle: the described subgroup is everything, matching brute force
    from jitower.analysis import brute_force_normals
    assert max(len(s) for s in brute_force_normals(ext)) == 6


def test_normal_closure_in_abelian_extension(default_tower):
    state, _ = default_tower
    g2 = state.group(2)
    g1 = state.group(1)
    t1 = g1.generators[0]
    w_space, m_idxs = normal_closure_in_extension(g2, t1)
    assert len(m_idxs) == 2                 # abelian base: closure = <t1>
    assert w_space.dim == 2                 # (t1 - 1) has rank 2 on F_3[G_1]


def test_serialization_roundtrip(default_tower, tmp_path):
    state, _ = default_tower
    p1 = tmp_path / "a.twr"
    p2 = tmp_path / "b.twr"
    save_tower(state, p1)
    reloaded = load_tower(p1)
    save_tower(reloaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert reloaded.depth == state.depth
    assert [lv.dim for lv in reloaded.levels] == [lv.dim for lv in state.levels]
    assert reloaded.ledger == state.ledger


def test_serialization_detects_tampering(default_tower, tmp_path):
    state, _ = default_tower
    path = tmp_path / "t.twr"
    save_tower(state, path)
    text = path.read_text()

    def flip(line_test, pos):
        lines = text.split("\n")
        for i, ln in enumerate(lines):
            if line_test(ln):
                head, body = ln.split(" ", 1)
                old = body[pos]
                new = "1" if old != "1" else "2"
                lines[i] = f"{head} {body[:pos]}{new}{body[pos + 1:]}"
                return "\n".join(lines)
        raise AssertionError("no line matched")

    for test_fn in (
        lambda ln: ln.startswith("srow") and len(ln) > 100,
        lambda ln: ln.startswith("gen") and len(ln) > 100,
        lambda ln: ln.startswith("section") and len(ln) > 100,
    ):
        bad = tmp_path / "bad.twr"
        bad.write_text(flip(test_fn, 7))
        with pytest.raises(LoadError):
            load_tower(bad)


def test_load_rejects_truncation_and_bad_magic(default_tower, tmp_path):
    state, _ = default_tower
    path = tmp_path / "t.twr"
    save_tower(state, path)
    lines = path.read_text().strip().split("\n")
    bad = tmp_path / "bad.twr"
    bad.write_text("\n".join(lines[:len(lines) // 2]) + "\n")
    with pytest.raises(LoadError):
        load_tower(bad)
    bad.write_text("NOTATOWER 1\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(LoadError):
        load_tower(bad)


def test_seeded_tower_levels(seeded_hlist_tower):
    state, cert = seeded_hlist_tower
    assert state.seed.order == 3
    assert state.group(1).order == 12
    lv2 = state.levels[1]
    assert lv2.s == 1 and lv2.hlist_used
    assert lv2.delta == Fraction(2, 3)
    assert lv2.dim == 8 == (2 - 1) * 12 * Fraction(2, 3)
    assert not [c for c in cert.checks if c.status == FAIL]


def test_seeded_tower_serialization(seeded_hlist_tower, tmp_path):
    state, _ = seeded_hlist_tower
    path = tmp_path / "seeded.twr"
    save_tower(state, path)
    reloaded = load_tower(path)
    assert reloaded.seed.order == 3
    assert serialize_tower(reloaded) == serialize_tower(state)


def test_ledger_tamper_detected(budget_tower, tmp_path):
    state, _ = budget_tower
    path = tmp_path / "b.twr"
    save_tower(state, path)
    lines = path.read_text().strip().split("\n")
    for i, ln in enumerate(lines):
        if ln.startswith("frozen 6"):
            lines[i] = ln.replace("frozen 6", "frozen 3", 1)
            break
    bad = tmp_path / "bad.twr"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError):
        load_tower(bad)


def test_ledger_letter_zero_is_load_error(budget_tower, tmp_path):
    state, _ = budget_tower
    path = tmp_path / "b.twr"
    save_tower(state, path)
    text = path.read_text()
    assert "\nfrozen 6 2 1\n" in text
    bad = tmp_path / "bad.twr"
    bad.write_text(text.replace("\nfrozen 6 2 1\n", "\nfrozen 6 2 0\n", 1))
    with pytest.raises(LoadError, match="bad frozen"):
        load_tower(bad)


@pytest.mark.parametrize("letters, frozen, now", [
    ([1], 3, "6"),                   # in the scan with another order
    ([1, 2], 6, "within budget"),    # order 6 <= 4^2: never frozen
])
def test_step_rejects_ledger_the_scan_contradicts(letters, frozen, now):
    # the step takes the base orders of frozen words from its budget scan
    # (words of length 1 at the exponent-6 top G_2 under the budget 4^len)
    state = init_tower(TowerConfig(budget=OrderBudget(1, 4), test_budget=True,
                                   mode="relaxed"))
    step(state)
    state.ledger = {Word.make(letters): (frozen, 1)}
    with pytest.raises(RuntimeError, match=f"frozen order {frozen} .* scan: {now}$"):
        step(state)


def test_forced_closure_list_on_trivial_seed(forced_hlist_tower):
    state, cert = forced_hlist_tower
    lv3 = state.levels[2]
    # three nontrivial level-1 elements give three distinct closures
    assert lv3.s == 3 and lv3.hlist_used
    assert lv3.delta == Fraction(5, 6)
    assert lv3.relaxed_used          # 5/6 < 9/10
    by_name = {c.check: c for c in cert.checks}
    assert by_name["level3.fixed-vanish"].status == "pass"
    assert by_name["level3.margin"].status == "not-guaranteed"
    assert Fraction(lv3.dim) >= Fraction(1) * 324 * Fraction(5, 6)
    assert not [c for c in cert.checks if c.status == FAIL]


@pytest.mark.parametrize("tower", ["default_tower", "budget_tower",
                                   "forced_hlist_tower", "seeded_hlist_tower"])
def test_load_rederives_stored_level_fields(tower, request, tmp_path):
    # the loader recomputes r, s, delta, hlist and relaxed and raises on any
    # disagreement, so a clean load shows the derivations match the build
    state, _ = request.getfixturevalue(tower)
    path = tmp_path / "t.twr"
    save_tower(state, path)
    reloaded = load_tower(path)
    assert serialize_tower(reloaded) == serialize_tower(state)
    assert [(lv.r, lv.s, lv.delta, lv.hlist_used, lv.relaxed_used)
            for lv in reloaded.levels] == \
        [(lv.r, lv.s, lv.delta, lv.hlist_used, lv.relaxed_used)
         for lv in state.levels]


def _replace_last(text: str, old: str, new: str) -> str:
    head, sep, tail = text.rpartition(old + "\n")
    assert sep, f"no line {old!r}"
    return head + new + "\n" + tail


@pytest.mark.parametrize("old,new", [
    ("hlist 0", "hlist 1"),          # would turn rigidity.level3 into a fail
    ("delta 1/1", "delta 1/2"),      # would verify as overall: pass
    ("relaxed 0", "relaxed 1"),
    ("r 0", "r 7"),
])
def test_load_rejects_tampered_level3_field(default_tower, tmp_path, capsys,
                                            old, new):
    from jitower.cli import main
    state, _ = default_tower
    path = tmp_path / "t.twr"
    save_tower(state, path)
    path.write_text(_replace_last(path.read_text(), old, new))
    with pytest.raises(LoadError):
        load_tower(path)
    assert main(["verify", "--tower", str(path)]) == 2
    assert "load error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["gen", "section"])
def test_load_rejects_row_shifted_by_kernel_vector(default_tower, tmp_path, capsys,
                                                   key):
    # a live kernel vector keeps the row's boundary image, and the shifted
    # generator row stays reduced, but the file now describes a different
    # generating tuple or section from the one the build derives
    from jitower.cli import main
    state, _ = default_tower
    lv = state.levels[2]
    row = lv.gen_vecs[0] if key == "gen" else lv.section_vec
    shifted = (row + lv.module.live.basis[0]) % lv.p
    assert np.array_equal(lv.rel.derivation(shifted), lv.rel.derivation(row))
    assert key == "section" or np.array_equal(lv.module.killed.reduce(shifted), shifted)
    path = tmp_path / "t.twr"
    save_tower(state, path)
    path.write_text(_replace_last(path.read_text(), f"{key} {_vec_str(row)}",
                                  f"{key} {_vec_str(shifted)}"))
    with pytest.raises(LoadError, match="level 3: the stored killed basis"):
        load_tower(path)
    assert main(["verify", "--tower", str(path)]) == 2
    assert "load error" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [
    ("force_hlist 0", "force_hlist -1"),
    ("force_hlist 0", "force_hlist false"),
    ("primes 2 3 5", "primes 2,3,5"),
    ("epsilon 1/10", "epsilon 2/20"),
    ("depth 3", "depth 2"),          # fewer than the 3 stored levels
    ("end", "end\nlevel 4"),         # content after the end marker
])
def test_load_rejects_noncanonical_header_and_trailing_content(
        default_tower, tmp_path, old, new):
    state, _ = default_tower
    path = tmp_path / "t.twr"
    save_tower(state, path)
    path.write_text(_replace_last(path.read_text(), old, new))
    with pytest.raises(LoadError):
        load_tower(path)


@pytest.mark.parametrize("old,new", [
    ("torsion_scan_len 6", "torsion_scan_len 99"),   # about 2*3^99 words
    ("scan_cap 200000", "scan_cap -1"),
    ("enum_cap 1000000", "enum_cap 0"),
    ("submodule_guard 100000", "submodule_guard -1"),
])
def test_load_rejects_tampered_cap(default_tower, tmp_path, old, new):
    state, _ = default_tower
    path = tmp_path / "t.twr"
    save_tower(state, path)
    path.write_text(_replace_last(path.read_text(), old, new))
    with pytest.raises(LoadError):
        load_tower(path)


def test_load_mutation_sweep_raises_only_load_error(tmp_path):
    # every line of a depth-2 tower file deleted, cut to its key, or with
    # its last token replaced: each mutant loads cleanly or raises LoadError
    state, _ = build(TowerConfig(depth=2))
    path = tmp_path / "t.twr"
    save_tower(state, path)
    lines = path.read_text().split("\n")[:-1]
    mutants = []
    for i, line in enumerate(lines):
        tokens = line.split()
        edits = [[]] + [[" ".join(tokens[:-1] + [v])]
                        for v in ("x", "-1", "1/0", "0", "99")] + [[tokens[0]]]
        mutants += [lines[:i] + edit + lines[i + 1:] for edit in edits]
    assert len(mutants) == 7 * len(lines)
    bad = tmp_path / "bad.twr"
    rejected = 0
    for mutant in mutants:
        bad.write_text("\n".join(mutant) + "\n")
        try:
            load_tower(bad)
        except LoadError:
            rejected += 1
    assert rejected > len(mutants) // 2
