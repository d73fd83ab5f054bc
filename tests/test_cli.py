import json

import pytest

from jitower.cli import main


def write_config(path, **overrides):
    base = {
        "d": 2,
        "primes": "2,3,5",
        "epsilon": "1/10",
        "budget_scale": 16,
        "budget_base": 8,
        "depth": 2,
        "mode": "strict",
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


def test_build_verify_report_flow(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg")
    tower = str(tmp_path / "t.twr")
    report = str(tmp_path / "t.json")
    assert main(["build", "--config", cfg, "--out", tower,
                 "--report", report]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    doc = json.loads(open(report).read())
    assert doc["overall"] == "pass"
    assert any(c["check"] == "level2.kernel-dim" for c in doc["checks"])

    assert main(["verify", "--tower", tower]) == 0
    out = capsys.readouterr().out
    assert "load.invariants" in out and "overall: pass" in out

    assert main(["report", "--tower", tower]) == 0
    out = capsys.readouterr().out
    assert "G_2: order 324" in out


def test_invalid_epsilon_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", epsilon="1/3")
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "x.twr")]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_prime_above_digit_alphabet_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", primes="37", depth=1)
    out = tmp_path / "x.twr"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 2
    assert "prime 37" in capsys.readouterr().err
    assert not out.exists()


def test_missing_tower_exits_two(tmp_path, capsys):
    assert main(["verify", "--tower", str(tmp_path / "nope.twr")]) == 2
    capsys.readouterr()


def test_unknown_check_group_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg")
    tower = str(tmp_path / "t.twr")
    main(["build", "--config", cfg, "--out", tower])
    capsys.readouterr()
    assert main(["verify", "--tower", tower, "--checks", "bogus"]) == 2
    capsys.readouterr()


def test_normals_table_output(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg")
    tower = str(tmp_path / "t.twr")
    main(["build", "--config", cfg, "--out", tower])
    capsys.readouterr()
    assert main(["normals", "--tower", tower, "--level", "2"]) == 0
    out = capsys.readouterr().out
    assert "index count cumulative" in out
    assert "6 6 12" in out
    assert "total normal subgroups: 30" in out

    assert main(["normals", "--tower", tower, "--level", "2",
                 "--max-index", "6"]) == 0
    out = capsys.readouterr().out
    assert "6 6 12" in out and "324" not in out.split("total")[0]


def test_checks_selection_single_section(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg")
    tower = str(tmp_path / "t.twr")
    main(["build", "--config", cfg, "--out", tower])
    capsys.readouterr()
    assert main(["verify", "--tower", tower, "--checks", "betti"]) == 0
    out = capsys.readouterr().out
    assert "betti-ratio" in out
    assert "torsion" not in out


def test_reports_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg")
    towers = [str(tmp_path / f"t{i}.twr") for i in (1, 2)]
    reports = [str(tmp_path / f"r{i}.json") for i in (1, 2)]
    for t, r in zip(towers, reports):
        assert main(["build", "--config", cfg, "--out", t, "--report", r]) == 0
    capsys.readouterr()
    assert open(towers[0], "rb").read() == open(towers[1], "rb").read()
    assert open(reports[0], "rb").read() == open(reports[1], "rb").read()


def test_extend_adds_levels(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg", depth=2, primes="2,3,5")
    tower = str(tmp_path / "t.twr")
    main(["build", "--config", cfg, "--out", tower])
    capsys.readouterr()
    assert main(["extend", "--tower", tower, "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "depth 3" in out
    assert main(["report", "--tower", tower]) == 0
    out = capsys.readouterr().out
    assert "G_3" in out and "dim V=324" in out


def test_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg", depth=3)
    tower = str(tmp_path / "t.twr")
    assert main(["build", "--config", cfg, "--out", tower, "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "depth 1" in out


def test_normals_at_seed_level(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg", depth=1)
    tower = str(tmp_path / "t.twr")
    main(["build", "--config", cfg, "--out", tower])
    capsys.readouterr()
    assert main(["normals", "--tower", tower, "--level", "0"]) == 0
    out = capsys.readouterr().out
    assert "1 1 1" in out and "total normal subgroups: 1" in out


def test_build_truncates_at_enum_cap(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg", depth=3, enum_cap=100)
    tower = str(tmp_path / "t.twr")
    assert main(["build", "--config", cfg, "--out", tower]) == 0
    out = capsys.readouterr().out
    assert "truncated" in out
    assert "depth 2" in out


def test_build_truncates_at_table_cap(tmp_path, capsys):
    # |G_2| = 9604 is enumerable, but its multiplication table is over the cap
    cfg = write_config(tmp_path / "t.cfg", primes="2,7,3", depth=3)
    tower = str(tmp_path / "t.twr")
    assert main(["build", "--config", cfg, "--out", tower]) == 0
    out = capsys.readouterr().out
    assert "depth 2, truncated" in out
    assert "exceeds the multiplication-table cap 8192" in out
    assert main(["verify", "--tower", tower]) == 0
    capsys.readouterr()


def test_grading_skipped_above_table_cap(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg", primes="2,7", depth=2)
    tower = str(tmp_path / "t.twr")
    report = str(tmp_path / "v.json")
    assert main(["build", "--config", cfg, "--out", tower]) == 0
    capsys.readouterr()
    assert main(["verify", "--tower", tower, "--checks", "grading",
                 "--report", report]) == 0
    capsys.readouterr()
    checks = json.loads(open(report).read())["checks"]
    grading = [c for c in checks if c["check"].startswith("grading.")]
    assert [(c["check"], c["status"]) for c in grading] == [("grading.descends", "skipped")]
    assert "order 9604, above the multiplication-table cap 8192" in grading[0]["detail"]


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", depht=1)
    out = tmp_path / "x.twr"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 2
    assert "depht" in capsys.readouterr().err
    assert not out.exists()


def test_out_in_missing_directory_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg", depth=3)
    out = tmp_path / "missing" / "x.twr"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 2
    assert "missing" in capsys.readouterr().err
    # an invalid config is still reported as such, and writes nothing
    cfg = write_config(tmp_path / "bad.cfg", primes="37", depth=1)
    assert main(["build", "--config", cfg, "--out", str(out)]) == 2
    assert "prime 37" in capsys.readouterr().err


def test_extend_below_current_depth_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg", depth=2)
    tower = tmp_path / "t.twr"
    main(["build", "--config", cfg, "--out", str(tower)])
    before = tower.read_bytes()
    capsys.readouterr()
    assert main(["extend", "--tower", str(tower), "--depth", "1"]) == 2
    assert "below" in capsys.readouterr().err
    assert tower.read_bytes() == before
    assert main(["extend", "--tower", str(tower),
                 "--out", str(tmp_path / "missing" / "x.twr")]) == 2
    capsys.readouterr()


def test_strict_gate_failure_is_a_build_error(tmp_path, capsys):
    # the test budget 4^len freezes four words by level 3, and their margin
    # fails the strict gate: exit 1, a one-line message, no tower file
    cfg = write_config(tmp_path / "t.cfg", depth=3, budget_scale=1,
                       budget_base=4, test_budget=1)
    out = tmp_path / "x.twr"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("build error: level3.margin fails in strict mode: "
                   "delta = 1/3 vs 1 - eps = 9/10 (r=4, s=0)\n")
    assert not out.exists()
    # extend stops at the same gate and leaves its input as it was
    assert main(["build", "--config", cfg, "--out", str(out), "--depth", "2"]) == 0
    before = out.read_bytes()
    capsys.readouterr()
    assert main(["extend", "--tower", str(out), "--depth", "3"]) == 1
    assert capsys.readouterr().err.startswith("build error: level3.margin")
    assert out.read_bytes() == before


@pytest.mark.parametrize("key,value", [
    ("enum_cap", 0), ("submodule_guard", -1), ("scan_cap", -1),
    ("torsion_scan_len", -1), ("torsion_scan_len", 99)])
def test_bad_cap_exits_two_before_any_level(tmp_path, capsys, monkeypatch,
                                            key, value):
    import jitower.cli

    def no_build(cfg):
        raise AssertionError("a level was built")
    monkeypatch.setattr(jitower.cli, "build", no_build)
    cfg = write_config(tmp_path / "bad.cfg", **{key: value})
    out = tmp_path / "x.twr"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 2
    assert key.split("_")[0] in capsys.readouterr().err
    assert not out.exists()


def test_normals_negative_level_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg", depth=1)
    tower = str(tmp_path / "t.twr")
    main(["build", "--config", cfg, "--out", tower])
    capsys.readouterr()
    assert main(["normals", "--tower", tower, "--level", "-1"]) == 2
    assert "level -1" in capsys.readouterr().err


def test_scan_cap_overflow_truncates_the_build(tmp_path, capsys):
    # the budget scan of step 3 needs the 5 words of length <= 1, which the
    # cap forbids: the build stops at depth 2 and writes its tower
    cfg = write_config(tmp_path / "t.cfg", depth=3, budget_scale=1,
                       budget_base=4, scan_cap=1, torsion_scan_len=0)
    out = tmp_path / "x.twr"
    assert main(["build", "--config", cfg, "--out", str(out),
                 "--test-budget", "--relaxed"]) == 0
    assert "tower.truncated: stopped early: word scan of 5 words exceeds " \
        "scan_cap 1" in capsys.readouterr().out
    assert out.exists()
    assert main(["report", "--tower", str(out)]) == 0
    assert "G_2: order 324" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_normals_max_index_below_one_exits_two(tmp_path, capsys, value):
    cfg = write_config(tmp_path / "t.cfg", depth=1)
    tower = str(tmp_path / "t.twr")
    main(["build", "--config", cfg, "--out", tower])
    capsys.readouterr()
    assert main(["normals", "--tower", tower, "--max-index", value]) == 2
    assert f"--max-index {value}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def guard_100_tower(tmp_path_factory):
    """The stock depth-3 tower built with submodule_guard = 100: V_2 = F_3^4
    has 212 subspaces, more than the guard allows."""
    tmp = tmp_path_factory.mktemp("guard")
    cfg = write_config(tmp / "g.cfg", depth=3, submodule_guard=100)
    tower = str(tmp / "g.twr")
    assert main(["build", "--config", cfg, "--out", tower]) == 0
    return tower


@pytest.mark.parametrize("group, check", [("rigidity", "rigidity.level3"),
                                          ("normals", "normals.classification-oracle")])
def test_verify_group_over_submodule_guard_is_skipped(guard_100_tower, tmp_path,
                                                      capsys, group, check):
    report = tmp_path / "r.json"
    assert main(["verify", "--tower", guard_100_tower, "--checks", group,
                 "--report", str(report)]) == 0
    capsys.readouterr()
    checks = {c["check"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks[check]["status"] == "skipped"
    assert checks[check]["detail"] == "212 candidate subspaces exceed the guard 100"
