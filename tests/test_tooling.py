"""Tooling contracts: every function the benchmark traces still exists,
every exported name resolves, the one word count matches the walk, and the
fixture towers reproduce the benchmark's pinned output bytes."""

import ast
import hashlib
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

from jitower.cli import verify_certificate
from jitower.groups import TableGroup, word_images
from jitower.tower import load_tower, save_tower
from jitower.words import ball_size

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def _targets() -> list:
    """(span name, module, attribute) of each TARGETS entry, read without
    importing the tracer."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "TARGETS":
            return [tuple(ast.literal_eval(e) for e in entry.elts[:3])
                    for entry in node.value.elts]
    raise AssertionError(f"no TARGETS in {SPANS}")


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t[0])
def test_span_target_resolves(target):
    # the tracer wraps a method through its class __dict__, so a method must
    # be defined on the named class itself
    _, module, attr = target
    obj = importlib.import_module(f"jitower.{module}")
    *owners, name = attr.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    assert not owners or name in vars(obj)
    assert callable(getattr(obj, name))


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(
    importlib.import_module("jitower").__path__)])
def test_all_exports_resolve(module):
    # a deleted function must not leave a stale __all__ entry behind
    mod = importlib.import_module(f"jitower.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("d", [2, 3])
def test_ball_size_counts_the_walk(d):
    # validate, the budget scan's cap and the torsion detail all count words
    # with ball_size
    group = TableGroup.trivial(d)
    for n in range(6):
        walk = word_images(group.generators, group.identity, n)
        assert ball_size(d, n) == sum(1 for _ in walk), (d, n)


@pytest.mark.parametrize("workload, tower", [("build-default", "default_tower"),
                                             ("build-d3", "rank_three_tower"),
                                             ("build-frozen", "budget_tower")])
def test_fixture_builds_match_benchmark_pins(workload, tower, request, tmp_path):
    # the workload's config is the fixture's, so the tower file and the
    # certificate are byte-identical to what the benchmark pins
    pin = json.loads((BENCH / "pins.json").read_text())[workload]
    state, cert = request.getfixturevalue(tower)
    save_tower(state, tmp_path / "t.twr")
    assert hashlib.sha256((tmp_path / "t.twr").read_bytes()).hexdigest() \
        == pin["tower_sha256"]
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == pin["report_sha256"]


def test_verify_all_matches_benchmark_pin():
    pin = json.loads((BENCH / "pins.json").read_text())["verify-default"]
    cert = verify_certificate(load_tower(BENCH / "default.twr"), ("all",))
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == pin["report_sha256"]
