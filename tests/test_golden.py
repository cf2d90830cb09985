"""Byte identity: seed-1 reports match the digests committed with the benchmark.

`perfbench/golden/seed1.json` holds the SHA-256 of each suite's
`to_text() + "\\n" + to_json()` at seed 1 and default sizes.  The float
suites and the five light exact suites are rechecked here; brace, yangian
and tridendriform on the exact backend take too long for this tier, and the
benchmark's own golden check covers them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ordexp import SuiteConfig, run_suite

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "seed1.json").read_text())
LIGHT_EXACT = ("rota-baxter", "prelie", "dyson", "magnus", "boundary")
CASES = [("exact", row) for row in GOLDEN["verify-exact"] if row["label"] in LIGHT_EXACT]
CASES += [("float", row) for row in GOLDEN["verify-float"]]


@pytest.mark.parametrize("backend,row", CASES, ids=[f"{b}-{r['label']}" for b, r in CASES])
def test_seed1_report_matches_golden_digest(backend, row):
    report = run_suite(row["label"], SuiteConfig(seed=1, backend=backend))
    text = report.to_text() + "\n" + report.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == row["sha256"]
