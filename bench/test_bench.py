"""Tests of the benchmark itself: output checking, failure accounting and
the span wrappers.  They use a small tower (d=2, primes 2,3, depth 2) so
they run in seconds; run them with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import spans
import workloads
from workloads import Workload, import_jitower, prepare

cli = import_jitower()

TINY = Workload("tiny", "build", config=(("d", "2"), ("primes", "2, 3"),
                                         ("depth", "2")))
REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tiny(tmp_path_factory, request):
    """Inputs of the small build, with its outputs pinned from a first run."""
    inputs = prepare(TINY, 7, tmp_path_factory.mktemp("tiny"))
    assert cli.main(inputs.argv(0)) == 0
    tower, report = inputs.outputs(0)
    pin = {"exit_code": 0, "tower_sha256": workloads.sha256(tower),
           "report_sha256": workloads.sha256(report),
           "checks": [f"{c['check']} {c['status']}"
                      for c in json.loads(report.read_text())["checks"]]}
    all_pins = workloads.pins()
    all_pins["tiny"] = pin
    request.addfinalizer(lambda: all_pins.pop("tiny"))
    return inputs


def tampering(edit):
    """A CLI whose main runs the real one, then edits operation i's outputs."""
    def main(argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        edit(out, out.with_suffix(".json"))
        return code
    return SimpleNamespace(main=main)


def test_pins_cover_every_workload():
    for name, wl in workloads.WORKLOADS.items():
        pin = wl.pin
        assert pin["exit_code"] == 0 and pin["checks"], name
        assert ("tower_sha256" in pin) == (wl.command == "build"), name
    verify = workloads.WORKLOADS["verify-default"]
    assert workloads.sha256(workloads.HERE / verify.tower) == verify.pin["input_sha256"]


def test_seeds_change_the_inputs_not_the_outputs(tiny, tmp_path):
    other = prepare(TINY, 8, tmp_path)
    assert other.argv(0) != tiny.argv(0)
    elapsed, problems = run.run_op(cli, other, 0)
    assert elapsed > 0 and problems == []


@pytest.mark.parametrize("edit", [
    lambda tower, report: tower.write_bytes(tower.read_bytes() + b"\n"),
    lambda tower, report: report.write_text(
        report.read_text().replace('"pass"', '"sampled"', 1)),
    lambda tower, report: report.unlink(),
], ids=["tower-byte", "check-status", "missing-report"])
def test_tampered_output_is_a_failed_operation(tiny, edit):
    samples, problems, windows = run.closed_loop(tampering(edit), tiny, seconds=0)
    assert len(samples) == 1 and len(problems) == 1 and len(windows) == 2


def test_changed_status_shows_in_the_check_list(tiny):
    edit = lambda tower, report: report.write_text(  # noqa: E731
        report.read_text().replace('"pass"', '"fail"', 1))
    _, problem = run.run_op(tampering(edit), tiny, 3)
    assert any("check list differs" in p for p in problem)


def test_exit_code_and_exceptions_count_as_failures(tiny):
    def raising(argv):
        raise ValueError("boom")
    for fake in (SimpleNamespace(main=lambda argv: 1 + cli.main(argv)),
                 SimpleNamespace(main=raising)):
        _, problem = run.run_op(fake, tiny, 4)
        assert problem


def bindings():
    """Every jitower binding of every traced target, by identity."""
    out = {}
    for mod in [m for k, m in sys.modules.items()
                if k == "jitower" or k.startswith("jitower.")]:
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
    for _, mod_name, attr, _ in spans.TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"jitower.{mod_name}"], cls_name)
            out[(cls_name, meth)] = vars(cls)[meth]
    return out


def test_traced_outputs_counts_and_restore(tiny):
    before = bindings()
    counts = []
    for i in (5, 6):
        with spans.Tracer() as tracer:
            tracer.op_id = i
            _, problem = run.run_op(cli, tiny, i)
            assert cli.step is not before[("jitower.cli", "step")]
            assert sys.modules["jitower.gmodule"].rref is not \
                before[("jitower.gmodule", "rref")]
        assert problem == []  # traced outputs equal the untraced pin
        assert bindings() == before
        layer = tracer.metrics(op_id=i)
        assert set(layer) == set(spans.metric_units())
        counts.append({k: v for k, v in layer.items()
                       if not k.endswith("_s") and not k.endswith(".s")})
    assert counts[0] == counts[1]
    assert counts[0]["tower.step.calls"] == 1
    assert counts[0]["linalg.rref.calls"] > 0 and counts[0]["linalg.rref.cells"] > 0


def test_self_time_excludes_child_spans(tiny):
    with spans.Tracer() as tracer:
        run.run_op(cli, tiny, 9)
    layer = tracer.metrics()
    assert 0 < layer["tower.step.self_s"] < layer["tower.step.s"]


def test_tracer_restores_after_an_error():
    before = bindings()
    with pytest.raises(KeyError):
        with spans.Tracer():
            raise KeyError("inside")
    assert bindings() == before


def test_metric_names_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_scaled_times_use_the_windows_around_each_operation():
    ref = run.CALIB_REF_S
    assert run.scaled([1.0, 2.0], [ref, ref, 2 * ref]) == pytest.approx([1.0, 2.0 / 1.5])


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile_line([1.0] * 10).startswith("none")
    assert run.percentile_line([float(i) for i in range(20)]) == "p50 = 9.0000 s"


def test_checkout_without_sources_fails_without_result(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build-d3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
