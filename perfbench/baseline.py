"""Record the benchmark's baseline: every workload at ten seeds, twice.

    python3 perfbench/baseline.py

Runs `run.py --trace 0` on each workload at seeds 1..10, one after the
other, then the same set of runs a second time, then one `run.py --trace 1`
per workload at seed 1, and writes perfbench/baseline.json: for every
end-to-end metric of each set the median, the quartiles and their spread
(distance between the quartiles over the median) with the number of runs
and of samples per run, and the change of the second set's median from the
first's; every per-layer metric of the traced run; the Python, numpy and
scipy versions and `nproc`; and each workload's reason.  It prints the
spreads and the changes, which must stay within each metric's bound in
BENCHMARK.json (the spread of setup_s excepted).  README.md maps each
per-layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys

from run import HERE, ROOT

RUNS = 10
SETS = 2
LINE = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)(?:\s+\((.*)\))?$")

def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["notes"] = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match and match.group(4):
            result["notes"][match.group(1)] = match.group(4)
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "runs": len(values),
            "per_run": runs[0]["notes"].get(name, ""),
            "values": values,
        }
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    import numpy
    import scipy

    doc = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "sets": SETS,
        "workloads": {},
    }
    sets = {w["name"]: [] for w in bench["workloads"]}
    for _ in range(SETS):
        for name, done in sets.items():
            runs = [run_once(name, seed, bench["run_seconds"], 0) for seed in doc["seeds"]]
            if not all(r["correct"] for r in runs):
                raise SystemExit(f"{name}: a run failed its checks")
            done.append(summarize(runs))
    for workload in bench["workloads"]:
        name = workload["name"]
        first, *later = sets[name]
        traced = run_once(name, 1, bench["run_seconds"], 1)
        for metric, row in first.items():
            row["later_sets"] = [{k: s[metric][k] for k in ("median", "q1", "q3", "spread", "values")}
                                 for s in later]
            row["median_change"] = [s[metric]["median"] / row["median"] - 1 for s in later]
        doc["workloads"][name] = {
            "why": workload["why"],
            "attempted_checks": traced["attempted"],
            "end_to_end": first,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed": 1,
        }
        for metric, row in first.items():
            bound = bounds[metric]
            spreads = [row["spread"]] + [s["spread"] for s in row["later_sets"]]
            wide = metric != "setup_s" and max(spreads) > bound / 3
            moved = max(row["median_change"]) > bound
            flag = ("  <-- spread above a third of the bound" if wide else "") + (
                "  <-- median moved beyond the bound" if moved else "")
            print(f"{name:13s} {metric:12s} median {row['median']:12.5g} {row['unit']:3s} "
                  f"spread {' '.join(f'{x:.4f}' for x in spreads)} "
                  f"change {' '.join(f'{x:+.4f}' for x in row['median_change'])} "
                  f"bound {bound}{flag}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
