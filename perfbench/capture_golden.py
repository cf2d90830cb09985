"""Write perfbench/golden/seed1.json: output digests of every request at seed 1.

    python3 perfbench/capture_golden.py

`run.py --seed 1` compares each request's output with these digests, so
the reports and the expand/limit output stay byte-identical to the commit
that captured them.  Recapture only when a change of output is intended,
and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, GOLDEN_SEED, SRC

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main() -> int:
    doc = {}
    for workload in workloads.WORKLOADS:
        rows = []
        for req in workloads.make_requests(workload, GOLDEN_SEED):
            out = workloads.run_request(req)
            problems = workloads.check_outcome(req, out)[1]
            if problems:
                print(f"{workload} {req.label}: {problems}", file=sys.stderr)
                return 1
            rows.append({"label": req.label, "argv": list(req.argv or ()), "sha256": out.digest})
        doc[workload] = rows
        print(f"{workload}: {len(rows)} requests")
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
