"""Tooling contracts: every function the benchmark traces still exists,
every exported name resolves, and the one word count matches the walk."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

from jitower.groups import TableGroup, word_images
from jitower.words import ball_size

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
