"""Per-layer spans recorded from outside the jitower package.

``Tracer`` replaces each target function or method with a wrapper that
records one span per call: name, start, end, parent span, operation id and
an optional exact work count.  Module-level functions are replaced under
every name that binds them in any ``jitower`` module, because
``from .linalg import rref`` gives ``gmodule.rref`` its own binding.
Leaving the ``with`` block puts every original object back and checks that
it is back.  Spans stay in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

MODULES = ("linalg", "words", "groups", "gmodule", "extension", "relmod",
           "forge", "certificate", "tower", "analysis", "cli")


# exact work counts, computed from a call's arguments and result


def _rref_cells(args, result):
    rows, cols = np.shape(args[0])
    return rows * cols * result[2]


def _reduce_work(args, result):
    space, shape = args[0], np.shape(args[1])
    rows = shape[0] if len(shape) == 2 else 1
    return rows * space.dim * space.ambient_dim


def _result_len(args, result):
    return len(result)


def _file_bytes(args, result):
    return os.path.getsize(args[1])


# (span name, module, attribute, work count); a dotted attribute is a method
TARGETS = (
    ("linalg.rref", "linalg", "rref", _rref_cells),
    ("linalg.kernel_basis", "linalg", "kernel_basis", None),
    ("linalg.solve_batch", "linalg", "solve_batch", None),
    ("linalg.Subspace.reduce", "linalg", "Subspace.reduce", _reduce_work),
    ("linalg.Subspace.span", "linalg", "Subspace.span", None),
    ("gmodule.fixed_dim", "gmodule", "GModule.fixed_dim", None),
    ("gmodule.invariants", "gmodule", "GModule.invariants", None),
    ("gmodule.g_span", "gmodule", "GModule.g_span", None),
    ("gmodule.action_matrix", "gmodule", "GModule.action_matrix", None),
    ("gmodule.quotient", "gmodule", "GModule.quotient", None),
    ("extension.mul", "extension", "ExtensionGroup._mul", None),
    ("extension.inverse", "extension", "ExtensionGroup._inverse", None),
    ("extension.elements", "extension", "ExtensionGroup.elements", None),
    ("extension.mult_table", "extension", "ExtensionGroup.mult_table", None),
    ("groups.element_order", "groups", "GroupHandle.element_order", None),
    ("groups.word_image", "groups", "word_image", None),
    ("groups.normal_closure", "groups", "GroupHandle.normal_closure", None),
    ("groups.all_subgroups", "groups", "GroupHandle.all_subgroups", None),
    ("words.enumerate_words", "words", "enumerate_words", _result_len),
    ("words.fox_vector", "words", "fox_vector", None),
    ("relmod.relation_module", "relmod", "relation_module", None),
    ("relmod.relator_power_image", "relmod", "relator_power_image", None),
    ("relmod.magnus_pair", "relmod", "magnus_pair", None),
    ("forge.build_module", "forge", "build_module", None),
    ("forge.splitting_vector", "forge", "splitting_vector", None),
    ("forge.verify_conclusions", "forge", "verify_conclusions", None),
    ("forge.cyclic_subgroup_reps", "forge", "cyclic_subgroup_reps", None),
    ("tower.step", "tower", "step", None),
    ("tower.torsion_shadow_check", "tower", "torsion_shadow_check", None),
    ("tower.betti_checks", "tower", "betti_checks", None),
    ("tower.save_tower", "tower", "save_tower", _file_bytes),
    ("tower.load_tower", "tower", "load_tower", None),
    ("analysis.rigidity_report", "analysis", "rigidity_report", None),
    ("analysis.classification_report", "analysis", "classification_report", None),
    ("analysis.size_bound_report", "analysis", "size_bound_report", None),
    ("analysis.growth_report", "analysis", "growth_report", None),
    ("analysis.graded_chain_report", "analysis", "graded_chain_report", None),
    ("analysis.normal_subgroups", "analysis", "normal_subgroups", None),
    ("analysis.brute_force_normals", "analysis", "brute_force_normals", None),
    ("cli.verify_certificate", "cli", "verify_certificate", None),
    ("cli._verify_core", "cli", "_verify_core", None),
    ("cli._verify_fixed", "cli", "_verify_fixed", None),
)

# the spans that verify_certificate calls directly for each check group
VERIFY_GROUPS = {
    "core": ("cli._verify_core",),
    "betti": ("tower.betti_checks",),
    "torsion": ("tower.torsion_shadow_check",),
    "grading": ("analysis.graded_chain_report",),
    "fixed": ("cli._verify_fixed",),
    "normals": ("analysis.classification_report", "analysis.size_bound_report",
                "analysis.growth_report"),
    "rigidity": ("analysis.rigidity_report",),
}

# per-layer metrics read off the spans: (metric, unit, span, statistic).
# "calls" counts spans, "s" sums outermost inclusive time, "self_s" sums
# time minus child spans, "work" sums the computed count of each call.
SPAN_METRICS = (
    ("linalg.rref.calls", "count", "linalg.rref", "calls"),
    ("linalg.rref.self_s", "s", "linalg.rref", "self_s"),
    ("linalg.rref.cells", "cells", "linalg.rref", "work"),
    ("linalg.kernel_basis.calls", "count", "linalg.kernel_basis", "calls"),
    ("linalg.kernel_basis.s", "s", "linalg.kernel_basis", "s"),
    ("linalg.solve_batch.calls", "count", "linalg.solve_batch", "calls"),
    ("linalg.solve_batch.s", "s", "linalg.solve_batch", "s"),
    ("linalg.Subspace.reduce.calls", "count", "linalg.Subspace.reduce", "calls"),
    ("linalg.Subspace.reduce.self_s", "s", "linalg.Subspace.reduce", "self_s"),
    ("linalg.Subspace.reduce.work", "madds", "linalg.Subspace.reduce", "work"),
    ("linalg.Subspace.span.calls", "count", "linalg.Subspace.span", "calls"),
    ("linalg.Subspace.span.s", "s", "linalg.Subspace.span", "s"),
    ("gmodule.fixed_dim.calls", "count", "gmodule.fixed_dim", "calls"),
    ("gmodule.fixed_dim.s", "s", "gmodule.fixed_dim", "s"),
    ("gmodule.invariants.s", "s", "gmodule.invariants", "s"),
    ("gmodule.g_span.calls", "count", "gmodule.g_span", "calls"),
    ("gmodule.g_span.s", "s", "gmodule.g_span", "s"),
    ("gmodule.action_matrix.calls", "count", "gmodule.action_matrix", "calls"),
    ("gmodule.action_matrix.self_s", "s", "gmodule.action_matrix", "self_s"),
    ("gmodule.quotient.s", "s", "gmodule.quotient", "s"),
    ("extension.mul.calls", "count", "extension.mul", "calls"),
    ("extension.mul.self_s", "s", "extension.mul", "self_s"),
    ("extension.inverse.calls", "count", "extension.inverse", "calls"),
    ("extension.inverse.self_s", "s", "extension.inverse", "self_s"),
    ("extension.elements.s", "s", "extension.elements", "s"),
    ("extension.mult_table.s", "s", "extension.mult_table", "s"),
    ("groups.element_order.calls", "count", "groups.element_order", "calls"),
    ("groups.element_order.s", "s", "groups.element_order", "s"),
    ("groups.word_image.calls", "count", "groups.word_image", "calls"),
    ("groups.word_image.s", "s", "groups.word_image", "s"),
    ("groups.normal_closure.s", "s", "groups.normal_closure", "s"),
    ("groups.all_subgroups.s", "s", "groups.all_subgroups", "s"),
    ("words.enumerate_words.s", "s", "words.enumerate_words", "s"),
    ("words.enumerate_words.words", "words", "words.enumerate_words", "work"),
    ("words.fox_vector.calls", "count", "words.fox_vector", "calls"),
    ("words.fox_vector.s", "s", "words.fox_vector", "s"),
    ("relmod.relation_module.calls", "count", "relmod.relation_module", "calls"),
    ("relmod.relation_module.s", "s", "relmod.relation_module", "s"),
    ("relmod.relator_power_image.calls", "count", "relmod.relator_power_image", "calls"),
    ("relmod.relator_power_image.s", "s", "relmod.relator_power_image", "s"),
    ("relmod.magnus_pair.calls", "count", "relmod.magnus_pair", "calls"),
    ("forge.build_module.s", "s", "forge.build_module", "s"),
    ("forge.splitting_vector.s", "s", "forge.splitting_vector", "s"),
    ("forge.verify_conclusions.s", "s", "forge.verify_conclusions", "s"),
    ("forge.cyclic_subgroup_reps.s", "s", "forge.cyclic_subgroup_reps", "s"),
    ("tower.step.calls", "count", "tower.step", "calls"),
    ("tower.step.s", "s", "tower.step", "s"),
    ("tower.step.self_s", "s", "tower.step", "self_s"),
    ("tower.torsion_shadow_check.s", "s", "tower.torsion_shadow_check", "s"),
    ("tower.save_tower.s", "s", "tower.save_tower", "s"),
    ("tower.save_tower.bytes", "B", "tower.save_tower", "work"),
    ("tower.load_tower.s", "s", "tower.load_tower", "s"),
    ("analysis.rigidity_report.s", "s", "analysis.rigidity_report", "s"),
    ("analysis.classification_report.s", "s", "analysis.classification_report", "s"),
    ("analysis.growth_report.s", "s", "analysis.growth_report", "s"),
    ("analysis.graded_chain_report.s", "s", "analysis.graded_chain_report", "s"),
    ("analysis.normal_subgroups.s", "s", "analysis.normal_subgroups", "s"),
    ("analysis.brute_force_normals.s", "s", "analysis.brute_force_normals", "s"),
)

# counts computed from arguments and results rather than counted calls
COMPUTED = {"linalg.rref.cells", "linalg.Subspace.reduce.work",
            "words.enumerate_words.words", "tower.save_tower.bytes",
            "tower.torsion_shadow_check.words"}


def metric_units() -> dict:
    """Every per-layer metric this module produces, with its unit."""
    units = {name: unit for name, unit, _, _ in SPAN_METRICS}
    units["tower.torsion_shadow_check.words"] = "words"
    for group in VERIFY_GROUPS:
        units[f"cli.verify.{group}.s"] = "s"
    return units


class Tracer:
    """Context manager that installs span wrappers on the jitower package."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.work = array("d")
        self.nested = array("b")
        self.op_id = 0
        self._stack = [-1]
        self._active = []
        self._undo = []

    def _wrap(self, name, fn, work):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        stack, active = self._stack, self._active
        start, end, work_arr = self.start, self.end, self.work
        add_name = self.name_id.append
        add_parent = self.parent.append
        add_op = self.op.append
        add_nested = self.nested.append
        add_start, add_end, add_work = start.append, end.append, work_arr.append
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            add_name(nid)
            add_parent(stack[-1])
            add_op(tracer.op_id)
            add_nested(active[nid] > 0)
            add_start(0.0)
            add_end(0.0)
            add_work(0.0)
            active[nid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[nid] -= 1
                start[idx] = t0
                end[idx] = t1
            if work is not None:
                work_arr[idx] = work(args, result)
            return result

        return span

    def __enter__(self):
        mods = [importlib.import_module(f"jitower.{m}") for m in MODULES]
        mods.append(sys.modules["jitower"])
        try:
            for name, mod_name, attr, work in TARGETS:
                mod = sys.modules[f"jitower.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, work))
                    else:
                        new = self._wrap(name, raw, work)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(mod, attr)
                new = self._wrap(name, orig, work)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._undo.append((m, key, orig))
                            setattr(m, key, new)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        """Put every replaced binding back and check that it is back."""
        undo, self._undo = self._undo, []
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)
        for obj, key, orig in undo:
            if vars(obj)[key] is not orig:
                raise RuntimeError(f"span wrapper left on {obj!r}.{key}")

    # analysis

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())

    def metrics(self, op_id=None) -> dict:
        """Per-layer values over the spans of one operation (or all)."""
        a = self.arrays()
        keep = np.ones(len(a["start"]), dtype=bool) if op_id is None \
            else a["op"] == op_id
        nid = a["name_id"]
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        outer = a["nested"] == 0
        ids = {name: i for i, name in enumerate(self.names)}
        parent_name = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

        def sel(span):
            return keep & (nid == ids[span])

        stats = {
            "calls": lambda m: int(m.sum()),
            "s": lambda m: float(dur[m & outer].sum()),
            "self_s": lambda m: float(own[m].sum()),
            "work": lambda m: int(a["work"][m].sum()),
        }
        out = {name: stats[stat](sel(span))
               for name, _, span, stat in SPAN_METRICS}
        words = sel("words.enumerate_words") & (
            parent_name == ids["tower.torsion_shadow_check"])
        out["tower.torsion_shadow_check.words"] = int(a["work"][words].sum())
        under_verify = parent_name == ids["cli.verify_certificate"]
        for group, spans in VERIFY_GROUPS.items():
            m = np.zeros_like(keep)
            for span in spans:
                m |= sel(span)
            out[f"cli.verify.{group}.s"] = float(dur[m & under_verify].sum())
        return out
