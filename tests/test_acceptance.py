"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
timing lines.  Every expected value below is either recomputed by an
independent oracle inside the test (brute-force enumeration, exhaustive
summation, full lattices) or asserted as an exact integer identity.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from jitower.analysis import (classification_report, graded_chain_report,
                              growth_report, product_chain, size_bound_report,
                              tower_chain)
from jitower.certificate import FAIL
from jitower.extension import ExtensionGroup
from jitower.forge import verify_conclusions
from jitower.gmodule import GModule
from jitower.groups import TableGroup
from jitower.linalg import PrimeField, Subspace
from jitower.relmod import magnus_pair, relation_module
from jitower.tower import TowerConfig, build, load_tower, save_tower
from jitower.cli import verify_certificate
from jitower.words import OrderBudget, Word, enumerate_words, fox_vector

from conftest import (boundary_matrix, c2, c3, c4, c5, c6, c7, c22,
                      fixed_bound_holds, forge_build, s3)


class Timer:
    def __init__(self, budget: float):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def report(self, n, label, detail=""):
        line = f"ACCEPTANCE {n} {label}: PASS in {self.elapsed:.1f}s"
        if detail:
            line += f" -- {detail}"
        print(line)
        assert self.elapsed < self.budget, \
            f"criterion {n} exceeded its {self.budget}s budget"


GENS_BY_D = {
    "C2": {2: (1, 1), 3: (1, 1, 1)},
    "C3": {2: (1, 1), 3: (1, 2, 1)},
    "C2xC2": {2: (2, 1), 3: (2, 1, 3)},
    "C5": {2: (1, 2), 3: (1, 2, 3)},
    "S3": {2: None, 3: None},   # filled from the permutation generators
    "C7": {2: (1, 3), 3: (1, 2, 4)},
}


def test_criterion_1_fixed_space_dimension_suite():
    groups = {
        "C2": (TableGroup.cyclic(2), (3, 5)),
        "C3": (TableGroup.cyclic(3), (2, 5)),
        "C2xC2": (TableGroup.direct_product(TableGroup.cyclic(2),
                                            TableGroup.cyclic(2)), (3, 5)),
        "C5": (TableGroup.cyclic(5), (2, 3)),
        "S3": (TableGroup.symmetric(3), (5, 7)),
        "C7": (TableGroup.cyclic(7), (2, 3)),
    }
    with Timer(10.0) as timer:
        cases = 0
        for name, (group, primes) in groups.items():
            lattice = group.all_subgroups()
            for d in (2, 3):
                if name == "S3":
                    s, c = group._gen_idx
                    gen_idx = (s, c) if d == 2 else (s, c, group.table[s, c])
                else:
                    gen_idx = GENS_BY_D[name][d]
                gens = tuple(group.element(i) for i in gen_idx)
                for p in primes:
                    rel = relation_module(group, gens, PrimeField(p))
                    assert rel.kernel_dim == (d - 1) * group.order + 1
                    for sub in lattice:
                        elements = [group.element(i) for i in sub]
                        dim = rel.module.fixed_dim(elements)
                        assert dim == (d - 1) * (group.order // len(sub)) + 1
                        cases += 1
    timer.report(1, "fixed-space dimension suite",
                 f"{cases} (group, d, p, subgroup) cases, all exact")


def test_criterion_2_fox_identity_bulk():
    rng = random.Random(2024)
    groups = [c22(), s3(), c5(), c6(), c7()]
    with Timer(30.0) as timer:
        total = 0
        for group in groups:
            n = group.order
            p = 5 if n % 5 else 7
            for _ in range(2000):
                images = [rng.randrange(n) for _ in range(2)]
                w = Word.make([rng.choice([1, -1]) * rng.randint(1, 2)
                               for _ in range(rng.randint(0, 12))])
                # the fundamental identity: boundary(vec) = image - 1
                vec, image = fox_vector(w, group, images, p)
                want = np.zeros(n, dtype=np.int64)
                want[image] += 1
                want[0] -= 1
                assert np.array_equal(boundary_matrix(group, images, p) @ vec % p,
                                      want % p)
                total += 1
        assert total == 10_000
        pairs = 0
        for group, p in ((c22(), 3), (s3(), 5)):
            rel = relation_module(group, group.generators, PrimeField(p))
            for _ in range(500):
                u = Word.make([rng.choice([1, -1]) * rng.randint(1, 2)
                               for _ in range(rng.randint(0, 12))])
                v = Word.make([rng.choice([1, -1]) * rng.randint(1, 2)
                               for _ in range(rng.randint(0, 12))])
                (vu, gu), (vv, gv) = magnus_pair(u, rel), magnus_pair(v, rel)
                vuv, guv = magnus_pair(u * v, rel)
                # vec(uv) = vec(u) + u.vec(v), the action a coordinate gather
                assert np.array_equal(vuv, (vu + rel.module.act_raw(gu, vv)) % p)
                assert guv == gu * gv
                pairs += 1
    timer.report(2, "fox identity bulk",
                 f"10000 words over 5 groups, {pairs} multiplicativity pairs, "
                 "zero failures")


def _sign_module_s3(p=5):
    group = TableGroup.symmetric(3)
    f = PrimeField(p)
    perms = sorted(itertools.permutations(range(3)))

    def parity(perm):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                  if perm[i] > perm[j])
        return (-1) ** inv

    rows = []
    for i in range(1, 6):
        v = np.zeros(6, dtype=np.int64)
        v[i] = 1
        v[0] = -parity(perms[i])
        rows.append(v)
    killed = Subspace.span(f, 6, np.asarray(rows))
    return group, GModule(f, group, 1, killed=killed)


def _semidirect_catalogue():
    f3, f5, f7, f2 = (PrimeField(p) for p in (3, 5, 7, 2))
    out = []

    def reg(group, field, copies=1):
        return GModule(field, group, copies)

    def reg_mod_norm(group, field):
        m = reg(group, field)
        return m.quotient(Subspace.span(field, m.ambient_dim,
                                        m.norm_vector(0).reshape(1, -1)))

    out.append(("C2 regular F3", c2(), reg(c2(), f3)))
    out.append(("C2 sign F3", c2(), reg_mod_norm(c2(), f3)))
    out.append(("C2 regular F5", c2(), reg(c2(), f5)))
    out.append(("C2 regular^2 F5", c2(), reg(c2(), f5, copies=2)))
    out.append(("C2 regular F7", c2(), reg(c2(), f7)))
    out.append(("C3 regular F2", c3(), reg(c3(), f2)))
    out.append(("C3 regular F5", c3(), reg(c3(), f5)))
    out.append(("C3 reduced F7", c3(), reg_mod_norm(c3(), f7)))
    out.append(("C2xC2 regular F3", c22(), reg(c22(), f3)))
    out.append(("C2xC2 trivial F3", c22(), GModule.trivial(f3, c22(), 1)))
    out.append(("C2xC2 reduced F5", c22(), reg_mod_norm(c22(), f5)))
    out.append(("C2xC2 trivial F7", c22(), GModule.trivial(f7, c22(), 1)))
    out.append(("C4 regular F3", c4(), reg(c4(), f3)))
    out.append(("C5 regular F2", c5(), reg(c5(), f2)))
    out.append(("C5 trivial F3", c5(), GModule.trivial(f3, c5(), 1)))
    out.append(("C6 trivial F5 rank2", c6(), GModule.trivial(f5, c6(), 2)))
    out.append(("C6 trivial F7", c6(), GModule.trivial(f7, c6(), 1)))
    out.append(("S3 trivial F5", s3(), GModule.trivial(f5, s3(), 1)))
    sgn_group, sgn_module = _sign_module_s3()
    out.append(("S3 sign F5", sgn_group, sgn_module))
    # the doubled two-dimensional piece of F_5[S3], then one copy of it
    g = s3()
    m = reg(g, f5)
    fixed = m.invariants([e for e in g.elements() if g.element_order(e) == 3])
    std2 = m.quotient(m.g_span(fixed.basis))
    assert std2.live_dim == 4
    half = next(s for s in std2.enumerate_submodules() if s.dim == 2)
    out.append(("S3 std F5", g, std2.quotient(half)))
    out.append(("C7 regular F2", c7(), reg(c7(), f2)))
    out.append(("trivial free F3^2", TableGroup.trivial(),
                GModule(f3, TableGroup.trivial(), 2)))
    return out


def test_criterion_3_classification_oracle_equivalence():
    with Timer(120.0) as timer:
        catalogue = _semidirect_catalogue()
        assert len(catalogue) >= 20
        sizes = []
        for label, group, module in catalogue:
            ext = ExtensionGroup(module, name=label)
            assert ext.order <= 2000, (label, ext.order)
            sizes.append(ext.order)
            chain = product_chain(ext)
            descs, check = classification_report(chain)
            assert check.status == "pass", (label, check.detail)
            assert size_bound_report(chain, descs).status == "pass", label
    timer.report(3, "classification oracle equivalence",
                 f"{len(sizes)} split extensions, orders "
                 f"{min(sizes)}..{max(sizes)}, lattices match exactly")


def test_criterion_4_module_conclusions(budget_tower, seeded_hlist_tower):
    with Timer(60.0) as timer:
        s3g, klein, cyc3, cyc5, cyc7 = s3(), c22(), c3(), c5(), c7()
        rot = next(e for e in s3g.elements() if s3g.element_order(e) == 3)
        builds = [
            (klein, 3, [], []),
            (cyc3, 2, [], []),
            (cyc3, 5, [], []),
            (s3g, 5, [], []),
            (cyc5, 3, [], []),
            (cyc7, 2, [], []),
            (TableGroup.trivial(2), 5, [], []),
            (klein, 3, [Word.make([1])], []),
            (cyc3, 5, [Word.make([1])], []),
            (cyc5, 2, [Word.make([1]), Word.make([1, 1])], []),
            (s3g, 5, [Word.make([2])], []),
            (klein, 3, [], ["all"]),
            (klein, 3, [], [[0]]),          # one of the C2 subgroups
            (s3g, 5, [], [[rot]]),
            (klein, 3, [Word.make([1])], ["all"]),
        ]
        n_r, n_s = 0, 0
        for group, p, words, subs in builds:
            sub_lists = []
            for spec in subs:
                if spec == "all":
                    sub_lists.append(list(group.elements()))
                elif isinstance(spec[0], int):
                    sub_lists.append([group.generators[i] for i in spec])
                else:
                    sub_lists.append(spec)
            res = forge_build(group, p, words=words, subgroup_elt_lists=sub_lists)
            n_r += bool(words)
            n_s += bool(sub_lists)
            bound = Fraction(len(res.input.gens) - 1) * group.order * res.delta
            assert Fraction(res.dim) >= bound
            checks = {c.check: c for c in verify_conclusions(res)}
            if words:
                assert checks["forge.orders-preserved"].status == "pass"
            if sub_lists:
                assert checks["forge.fixed-vanish"].status == "pass"
            assert fixed_bound_holds(res)
            assert not [c for c in checks.values() if c.status == FAIL]
        assert len(builds) >= 10 and n_r >= 3 and n_s >= 3

        # the same conclusions as exercised by the actual tower modes:
        # frozen words via the test budget, closure lists via force-hlist
        b_state, b_cert = budget_tower
        ok = {c.check: c.status for c in b_cert.checks}
        assert ok["level3.orders-preserved"] == "pass"
        assert ok["level3.order-stability"] == "pass"
        s_state, s_cert = seeded_hlist_tower
        ok = {c.check: c.status for c in s_cert.checks}
        assert ok["level2.fixed-vanish"] == "pass"
        assert s_state.levels[1].s == 1
    timer.report(4, "module build conclusions",
                 f"{len(builds)} direct builds ({n_r} with words, {n_s} with "
                 "subgroup lists) plus both tower modes")


def test_criterion_5_default_tower(default_tower):
    with Timer(120.0) as timer:
        state, cert = default_tower
        assert state.group(1).order == 4
        assert state.levels[1].dim == 4
        assert state.group(2).order == 324
        assert state.levels[2].dim == 324
        by_name = {}
        for c in cert.checks:
            by_name.setdefault(c.check, c)
        # the per-step conditions: split structure, projections, order
        # stability, dimension bound, fixed-space bound
        for lvl in (2, 3):
            assert by_name[f"level{lvl}.split-structure"].status == "pass"
            assert by_name[f"level{lvl}.projection-compat"].status == "pass"
            assert by_name[f"level{lvl}.order-stability"].status == "pass"
            assert by_name[f"level{lvl}.margin"].status == "pass"
            assert by_name[f"level{lvl}.dim-lower-bound"].status == "pass"
            assert by_name[f"level{lvl}.fixed-bound-eps"].status == "sampled"
            assert by_name[f"level{lvl}.generator-derivation"].status == "pass"
        assert by_name["tower.betti-ratio.level2"].status == "pass"
        assert by_name["tower.betti-ratio.level3"].status == "pass"
        for lvl in (2, 3):
            below = state.group(lvl - 1)
            ratio = Fraction(state.levels[lvl - 1].dim, below.order)
            assert ratio == 1 and ratio >= Fraction(9, 10)
        # torsion shadow, recomputed here: orders divide 30 and stay within
        # the untouched budget
        top = state.top
        budget = state.config.budget
        for w in enumerate_words(2, 6):
            order = top.element_order(state.pi(w, 3))
            assert 30 % order == 0
            assert order <= budget.of(w)
        assert by_name["tower.torsion-shadow"].status == "pass"
        assert cert.overall() == "pass"
    timer.report(5, "default tower",
                 "|G1|=4, dim V2=4, |G2|=324, dim V3=324, ratios 1 >= 9/10, "
                 "1457 word orders divide 30")


def test_criterion_6_graded_chain(default_tower):
    with Timer(60.0) as timer:
        state, _ = default_tower
        checks = {c.check: c for c in graded_chain_report(state, 2)}
        assert checks["grading.term1"].status == "pass"
        assert "order 81" in checks["grading.term1"].detail
        assert checks["grading.term2"].status == "pass"
        assert "order 1" in checks["grading.term2"].detail
        assert checks["grading.descends"].status == "pass"
    timer.report(6, "graded chain",
                 "commutator/power terms of the 324-element level: 81 then 1, "
                 "matching the projection kernels")


def test_criterion_7_growth_table(default_tower):
    with Timer(120.0) as timer:
        state, _ = default_tower
        chain = tower_chain(state)[:3]
        table, checks = growth_report(chain)
        status = {c.check: c.status for c in checks}
        assert status["growth.oracle"] == "pass"
        assert status["growth.monotone"] == "pass"
        assert table.total == 30
        cums = [s for _, _, s in table.rows]
        assert cums == sorted(cums) and cums[-1] == 30
    timer.report(7, "growth table",
                 f"level-2 table over {table.total} normal subgroups matches "
                 "brute force at every index")


def test_criterion_8_rank_three_variant():
    with Timer(60.0) as timer:
        cfg = TowerConfig(d=3, primes=(2, 3), depth=2, budget=OrderBudget(40, 8))
        state, cert = build(cfg)
        assert state.group(1).order == 8
        assert state.levels[1].dim == 16 == (3 - 1) * 8
        ratio = Fraction(state.levels[1].dim, state.group(1).order)
        assert ratio == 2 >= Fraction(2) * Fraction(9, 10)
        assert cert.overall() == "pass"
    timer.report(8, "rank-three variant",
                 "dim V2 = 16 = (d-1)|G1|, ratio 2 >= 2(1-eps)")


def test_criterion_9_serialization(default_tower, tmp_path):
    with Timer(10.0) as timer:
        state, _ = default_tower
        p1, p2 = tmp_path / "a.twr", tmp_path / "b.twr"
        save_tower(state, p1)
        first = load_tower(p1)
        save_tower(first, p2)
        assert p1.read_bytes() == p2.read_bytes()
        second = load_tower(p2)
        rep1 = verify_certificate(first).to_json()
        rep2 = verify_certificate(second).to_json()
        assert rep1 == rep2
        # single-digit tamper in a stored basis row is caught on load
        text = p1.read_text().split("\n")
        for i, ln in enumerate(text):
            if ln.startswith("srow") and len(ln) > 100:
                body = ln.split(" ", 1)[1]
                text[i] = "srow " + body[:3] + ("1" if body[3] != "1" else "2") \
                    + body[4:]
                break
        bad = tmp_path / "bad.twr"
        bad.write_text("\n".join(text))
        from jitower.tower import LoadError
        with pytest.raises(LoadError):
            load_tower(bad)
    timer.report(9, "serialization",
                 "byte-identical round trip, identical verify reports, "
                 "tampered digit rejected")
