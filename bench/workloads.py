"""The benchmark's workloads, their seeded inputs and their pinned outputs.

Every workload is a fixed computation, so its outputs are pinned in
``pins.json``: exit code, sha256 of the tower file and the JSON report,
and the ordered list of check ids with their statuses.  The seed changes
only how the inputs are written (config key order, spacing, comments,
argument order, file names), never what they mean, so every seed must
reproduce the pinned bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "build" or "verify"
    config: tuple = ()           # (key, value) pairs written to a config file
    flags: tuple = ()            # extra CLI flags, each a tuple of tokens
    tower: str | None = None     # pinned input tower file, for verify

    @property
    def pin(self) -> dict:
        return pins()[self.name]


# Stock settings written out explicitly: d=2, primes 2,3,5, depth 3.
_STOCK = (("d", "2"), ("primes", "2, 3, 5"), ("depth", "3"),
          ("epsilon", "1/10"), ("budget_scale", "16"), ("budget_base", "8"))

WORKLOADS = {w.name: w for w in (
    Workload("build-default", "build", config=_STOCK),
    Workload("build-d3", "build",
             config=(("d", "3"), ("primes", "2, 3"), ("depth", "2"),
                     ("budget_scale", "40"), ("budget_base", "8"))),
    Workload("build-frozen", "build",
             config=(("budget_scale", "1"), ("budget_base", "4")),
             flags=(("--test-budget",), ("--relaxed",))),
    Workload("verify-default", "verify", tower="default.twr",
             flags=(("--checks", "all"),)),
)}


@functools.cache
def pins() -> dict:
    """Pinned outputs by workload name (see the module docstring)."""
    return json.loads((HERE / "pins.json").read_text())


def import_jitower():
    """Import jitower from this checkout's ``src`` and return its CLI module."""
    if not (SRC / "jitower" / "__init__.py").is_file():
        raise ImportError(f"no jitower sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jitower.analysis  # imported lazily by verify; load it up front
    import jitower.cli
    if Path(jitower.__file__).resolve().parent != SRC / "jitower":
        raise ImportError(f"jitower was imported from {jitower.__file__}, not {SRC}")
    return jitower.cli


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class Inputs:
    """Prepared inputs of one run: argv for operation ``i`` and its outputs."""

    workload: Workload
    directory: Path
    stem: str
    args: tuple

    def outputs(self, i: int) -> tuple:
        tower = self.directory / f"{self.stem}-{i}.twr"
        report = self.directory / f"{self.stem}-{i}.json"
        return tower, report

    def argv(self, i: int) -> list:
        tower, report = self.outputs(i)
        if self.workload.command == "build":
            out = [("--out", str(tower)), ("--report", str(report))]
        else:
            out = [("--report", str(report))]
        parts = [tuple(a) for a in self.args] + out
        random.Random(f"{self.stem}-{i}").shuffle(parts)
        return [self.workload.command] + [tok for part in parts for tok in part]


def prepare(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the seeded inputs of ``workload`` into ``directory``."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-s{seed}"
    args = list(workload.flags)
    if workload.config:
        lines = [f"{k}{rng.choice(('=', ' = ', ' =  '))}{v}"
                 for k, v in rng.sample(workload.config, len(workload.config))]
        if rng.random() < 0.5:
            lines.insert(rng.randrange(len(lines) + 1), f"# seed {seed}")
        cfg = directory / f"{stem}.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        args.append(("--config", str(cfg)))
    if workload.tower:
        tower = directory / f"{stem}-input.twr"
        shutil.copyfile(HERE / workload.tower, tower)
        if sha256(tower) != workload.pin["input_sha256"]:
            raise RuntimeError(f"input tower {workload.tower} does not match its pin")
        args.append(("--tower", str(tower)))
    rng.shuffle(args)
    return Inputs(workload, directory, stem, tuple(args))


def check_outputs(inputs: Inputs, i: int, exit_code) -> list:
    """Differences between operation ``i``'s outputs and the pins; [] if none."""
    pin = inputs.workload.pin
    tower, report = inputs.outputs(i)
    problems = []
    if exit_code != pin["exit_code"]:
        problems.append(f"exit code {exit_code} != {pin['exit_code']}")
    if "tower_sha256" in pin and (not tower.is_file()
                                  or sha256(tower) != pin["tower_sha256"]):
        problems.append("tower file differs from its pin")
    if not report.is_file():
        return problems + ["no report written"]
    if sha256(report) != pin["report_sha256"]:
        problems.append("report differs from its pin")
    try:
        checks = [f"{c['check']} {c['status']}"
                  for c in json.loads(report.read_text())["checks"]]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"report unreadable: {exc!r}"]
    if checks != pin["checks"]:
        changed = [c for c in checks if c not in pin["checks"]]
        problems.append(f"check list differs from its pin: {changed[:3]}")
    return problems
