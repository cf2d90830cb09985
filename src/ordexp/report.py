"""Structured verification reports.

A report is a list of case rows, each naming the law it checked, the
backend it ran on, the parameters of the sample, and the worst defect
observed.  One rule decides the pass flag: on an exact backend the
defect must be exactly zero, on a float backend at most the tolerance.
An exact row refuses a float defect outright (TypeError): a float there
means a float leaked into the exact path, and 0.0 must not read as
exact-zero.

Rendered output is deterministic for a given seed and flag set, so
wall-clock timing never enters the document; callers print timing to
standard error instead.
"""

from __future__ import annotations

import json
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"


def render_defect(defect, exact: bool) -> str:
    if exact:
        return "exact-zero" if defect == 0 else str(defect)
    return format(float(defect), ".6g")


def _json_value(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return str(v)


class CaseResult:
    """One verified law: identifier, law text, sample parameters, defect."""

    __slots__ = ("case_id", "law", "backend", "params", "defect", "passed")

    def __init__(self, case_id, law, backend, params, defect, passed):
        self.case_id = case_id
        self.law = law
        self.backend = backend
        self.params = dict(params)
        self.defect = defect
        self.passed = bool(passed)

    def defect_text(self) -> str:
        return render_defect(self.defect, self.backend == EXACT)


class VerificationReport:
    """Ordered case rows plus the header flags that produced them."""

    __slots__ = ("suite", "seed", "backend", "tolerance", "order", "cases")

    def __init__(self, suite, seed, backend, tolerance, order):
        self.suite = suite
        self.seed = seed
        self.backend = backend
        self.tolerance = tolerance
        self.order = order
        self.cases = []

    def add(self, case_id: str, law: str, defect, backend: str | None = None,
            gate: bool | None = None, **params) -> bool:
        """Append one case; `gate` overrides the defect-derived pass flag
        for rows whose defect is diagnostic rather than a failure.

        A float defect on an exact row is a program fault, a float leak
        into the exact path, and raises TypeError.
        """
        backend = self.backend if backend is None else backend
        if backend == EXACT and isinstance(defect, float):
            raise TypeError(f"{case_id}: exact row got the float defect {defect!r}")
        if gate is None:
            if backend == EXACT:
                passed = defect == 0
            else:
                passed = abs(float(defect)) <= self.tolerance
        else:
            passed = gate
        self.cases.append(CaseResult(case_id, law, backend, params, defect, passed))
        return passed

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def failed_count(self) -> int:
        return len(self.cases) - self.passed_count

    def all_passed(self) -> bool:
        return self.failed_count == 0

    def to_text(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"seed: {self.seed}",
            f"backend: {self.backend}",
            f"tolerance: {self.tolerance!r}",
            f"order: {self.order}",
            "",
        ]
        for c in self.cases:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.case_id}")
            lines.append(f"    law: {c.law}")
            if c.backend != self.backend:
                lines.append(f"    backend: {c.backend}")
            if c.params:
                body = ", ".join(f"{k}={v}" for k, v in c.params.items())
                lines.append(f"    params: {body}")
            lines.append(f"    defect: {c.defect_text()}")
        lines.append("")
        lines.append(f"summary: {self.passed_count}/{len(self.cases)} cases passed")
        lines.append(f"result: {'PASS' if self.all_passed() else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "seed": self.seed,
            "backend": self.backend,
            "tolerance": self.tolerance,
            "order": self.order,
            "cases": [
                {
                    "id": c.case_id,
                    "law": c.law,
                    "backend": c.backend,
                    "params": {k: _json_value(v) for k, v in c.params.items()},
                    "defect": c.defect_text(),
                    "pass": c.passed,
                }
                for c in self.cases
            ],
            "summary": {
                "passed": self.passed_count,
                "failed": self.failed_count,
                "total": len(self.cases),
                "result": "PASS" if self.all_passed() else "FAIL",
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2)
