"""Structured pass/fail certificates with deterministic JSON rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SAMPLED = "sampled"
NOT_GUARANTEED = "not-guaranteed"
SKIPPED = "skipped"

STATUSES = (PASS, FAIL, SAMPLED, NOT_GUARANTEED, SKIPPED)

__all__ = ["CheckResult", "Certificate",
           "PASS", "FAIL", "SAMPLED", "NOT_GUARANTEED", "SKIPPED"]


@dataclass
class CheckResult:
    """One verified statement: a stable id, a status, and exact evidence."""

    check: str
    status: str
    detail: str = ""
    witness: dict | None = None

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    def as_dict(self) -> dict:
        out = {"check": self.check, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Certificate:
    meta: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if c.status == FAIL]

    def overall(self) -> str:
        return FAIL if self.failures else PASS

    def as_dict(self) -> dict:
        return {
            "meta": self.meta,
            "overall": self.overall(),
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        # sort_keys pins the byte layout; nothing in the body may be
        # time- or machine-dependent.
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def summary_lines(self) -> list:
        out = []
        for c in self.checks:
            line = f"[{c.status:>14}] {c.check}"
            if c.detail:
                line += f": {c.detail}"
            out.append(line)
        return out
