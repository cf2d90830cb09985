"""Benchmark of the ordexp engine: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 15 --trace 0

Workloads are `verify-exact`, `verify-float` and `expand` (see
perfbench/README.md).  The run is one process, one client and a closed
loop: each request starts when the previous one has finished.

With `--trace 0` the run starts passes over the workload's requests
while less than `--seconds` have gone by (so it ends up to one pass
later) and reports the end-to-end metrics, timed at the reference pace
of pace.py (raw wall times are printed beside).  With
`--trace 1` it makes one untraced pass and one traced pass (every layer's
public entry points wrapped in spans) and reports the per-layer metrics;
the spans are written to perfbench/out/.  Either way it checks every
output and prints, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
ordexp sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden" / "seed1.json"
OUT = HERE / "out"
GOLDEN_SEED = 1
SETUP_PROBES = 7

# Set-up is timed against a fixed reference, not at the pace of pace.py: a
# fresh interpreter that imports numpy and scipy.linalg, packages of the
# environment that no change to ordexp alters.  Imports read files and map
# shared libraries, and a busy machine slows them down unlike the arithmetic
# kernel of pace.py; the reference import slows down with them.  setup_s is
# in seconds of a machine on which the reference takes REFERENCE_IMPORT_S;
# any fixed value would do, this one keeps setup_s close to wall time on the
# 2-vCPU x86-64 virtual machine the baseline was recorded on.
REFERENCE_IMPORT = "numpy, scipy.linalg"
REFERENCE_IMPORT_S = 0.3

# Timed in a fresh interpreter: `import ordexp` plus the workload's inputs.
_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
t0 = time.perf_counter()
import ordexp
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.make_requests({workload!r}, {seed!r})
t3 = time.perf_counter()
print(t1 - t0, t3 - t2, t3 - t0)
"""

_REFERENCE = f"""
import time
t0 = time.perf_counter()
import {REFERENCE_IMPORT}
print(time.perf_counter() - t0)
"""


def _fresh(code: str, importtime: bool = False):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)


def probe_setup(workload: str, seed: int, importtime: bool) -> dict:
    """Set up once in a fresh interpreter, then run the reference import in another.

    With `importtime`, the set-up's import is broken down by module.
    """
    done = _fresh(_PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed),
                  importtime)
    import_s, inputs_s, raw_setup_s = (float(x) for x in done.stdout.split())
    reference_s = float(_fresh(_REFERENCE).stdout)
    out = {"import_s": import_s, "inputs_s": inputs_s, "raw_setup_s": raw_setup_s,
           "reference_s": reference_s,
           "setup_s": raw_setup_s * REFERENCE_IMPORT_S / reference_s}
    if importtime:
        cumulative = {}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if parts[1].isdigit():
                cumulative.setdefault(parts[2], int(parts[1]) / 1e6)
        out["import.ordexp_s"] = cumulative["ordexp"]
        out["import.numpy_s"] = cumulative.get("numpy", 0.0)
        out["import.scipy_s"] = cumulative.get("scipy.linalg", 0.0)
    return out


def median_setup(workload: str, seed: int, importtime: bool) -> dict:
    probes = [probe_setup(workload, seed, importtime) for _ in range(SETUP_PROBES)]
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


class Pass:
    """One pass over the requests: outcomes and per-request times, raw and scaled."""

    def __init__(self, outcomes, raw, scaled):
        self.outcomes = outcomes
        self.scaled = scaled
        self.raw_s = sum(raw)
        self.scaled_s = sum(scaled)


def run_pass(requests, run_request, tracer=None) -> Pass:
    """One pass in a closed loop, each request timed at reference pace."""
    outcomes, raw, scaled = [], [], []
    for index, req in enumerate(requests):
        if tracer is None:
            out, elapsed, at_pace = pace.timed(run_request, req)
        else:
            out, elapsed, at_pace = pace.timed(tracer.request_span, index, run_request, req)
        outcomes.append(out)
        raw.append(elapsed)
        scaled.append(at_pace)
    return Pass(outcomes, raw, scaled)


class Checks:
    """Tally of correctness checks; feeds `attempted`, `failed` and fail_frac."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, attempted: int, problems: list[str]):
        self.attempted += attempted
        self.problems.extend(problems)

    def compare(self, what: str, expected: list, got: list, labels: list[str]):
        self.attempted += len(expected)
        if len(expected) != len(got):
            self.problems.append(f"{what}: {len(expected)} expected, {len(got)} made")
        for label, a, b in zip(labels, expected, got):
            if a != b:
                self.problems.append(f"{label}: {what}")


def check_run(workloads, workload, seed, requests, first, others):
    """Checks the outputs of `first` and that every other pass repeats them."""
    checks = Checks()
    for req, out in zip(requests, first):
        checks.add(*workloads.check_outcome(req, out))
    labels = [r.label for r in requests]
    digests = [o.digest for o in first]
    for what, outcomes in others:
        checks.compare(what, digests, [o.digest for o in outcomes], labels)
    if seed == GOLDEN_SEED:
        golden = json.loads(GOLDEN.read_text())[workload]
        checks.compare("request or output differs from the golden digests",
                       [(g["label"], g["argv"], g["sha256"]) for g in golden],
                       [(r.label, list(r.argv or ()), d) for r, d in zip(requests, digests)],
                       labels)
    return checks


def percentile_ms(samples: list[float], q: int) -> float:
    # Inclusive: a percentile stays within the samples however few there are.
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1000.0


def suite_times(workloads, requests, times) -> dict:
    out = {f"verify.{name}_s": 0.0 for name in workloads.HEAVY_SUITES}
    out["verify.light_s"] = 0.0
    for req, t in zip(requests, times):
        if req.kind == "verify":
            key = f"verify.{req.suite}_s"
            out[key if key in out else "verify.light_s"] += t
    return out


def end_to_end(workloads, workload, seed, seconds):
    setup = median_setup(workload, seed, importtime=False)
    requests = workloads.make_requests(workload, seed)
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(run_pass(requests, workloads.run_request))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # A request's latency is its median over the passes, so that one slow
    # moment of the machine moves no percentile.
    samples = [statistics.median(ts) for ts in zip(*(p.scaled for p in passes))]
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "pass_s": (statistics.median(p.scaled_s for p in passes), "s"),
        "req_ms.p50": (percentile_ms(samples, 50), "ms"),
        "req_ms.p90": (percentile_ms(samples, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters, each over a reference "
                   f"import; raw {setup['raw_setup_s']:.4f} s, reference {setup['reference_s']:.4f} s",
        "pass_s": f"median of {len(passes)} passes of {len(requests)} requests; "
                  f"raw {statistics.median(p.raw_s for p in passes):.4f} s",
        "req_ms.p50": f"{len(samples)} samples, each the median of {len(passes)} passes",
        "req_ms.p90": f"{len(samples)} samples, each the median of {len(passes)} passes",
    }
    if workload != workloads.EXPAND:
        per_suite = [suite_times(workloads, requests, p.scaled) for p in passes]
        for key in per_suite[0]:
            metrics[key] = (statistics.median(p[key] for p in per_suite), "s")
            notes[key] = f"median of {len(passes)} passes"
    others = [(f"pass {i + 1} output differs from pass 1", p.outcomes)
              for i, p in enumerate(passes[1:], start=1)]
    checks = check_run(workloads, workload, seed, requests, passes[0].outcomes, others)
    return metrics, notes, checks, []


def traced_run(workloads, tracing, workload, seed):
    setup = median_setup(workload, seed, importtime=True)
    requests = workloads.make_requests(workload, seed)
    plain = run_pass(requests, workloads.run_request)
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        traced = run_pass(requests, workloads.run_request, tracer)
    finally:
        restore()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload}.npz")

    metrics = layer_metrics(tracer)
    for key, value in suite_times(workloads, requests, plain.scaled).items():
        metrics[key] = (value, "s")
    metrics.update({
        "setup.import_s": (setup["import.ordexp_s"], "s"),
        "setup.import.scipy_s": (setup["import.scipy_s"], "s"),
        "setup.import.numpy_s": (setup["import.numpy_s"], "s"),
        "setup.inputs_s": (setup["inputs_s"], "s"),
        "trace.overhead_frac": (traced.scaled_s / plain.scaled_s, "ratio"),
        "trace.spans": (len(tracer.start), "count"),
    })
    notes = {"trace.overhead_frac": f"traced pass {traced.raw_s:.3f} s over untraced "
                                    f"{plain.raw_s:.3f} s, raw"}
    others = [("traced output differs from the untraced pass", traced.outcomes)]
    checks = check_run(workloads, workload, seed, requests, plain.outcomes, others)
    table = sorted(zip(tracer.names, tracer.calls, tracer.self_s), key=lambda r: -r[2])
    detail = ["spans by self time (raw seconds):"] + [
        f"  {n:34s} {c:10d} calls {s:10.4f} s self" for n, c, s in table]
    return metrics, notes, checks, detail


def layer_metrics(tr) -> dict:
    mul = ("matrix.mul", "matrix.mul_large")
    stats = tr.stats
    dense = stats["matrix.mul.dense_ops"] + stats["matrix.mul_large.dense_ops"]
    useful = stats["matrix.mul.useful_ops"] + stats["matrix.mul_large.useful_ops"]
    large_dense = stats["matrix.mul_large.dense_ops"]
    accepted = tr.call_count("sampling.invertible")
    rejected = tr.failure_count("matrix.inverse", "sampling.invertible")

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "matrix.mul.calls": (tr.call_count(*mul), "count"),
        "matrix.mul.self_s": (tr.self_time(*mul), "s"),
        "matrix.mul.dense_ops": (dense, "count"),
        "matrix.mul.useful_frac": (ratio(useful, dense), "ratio"),
        "matrix.mul_large.useful_frac": (ratio(stats["matrix.mul_large.useful_ops"], large_dense), "ratio"),
        "matrix.entry_bits.max": (stats["matrix.entry_bits.max"], "bits"),
        "sampling.invertible.accept_frac": (ratio(accepted, accepted + rejected), "ratio"),
        "sampling.self_s": (tr.self_time("sampling", "sampling.invertible"), "s"),
        "freealg.terms.max": (stats["freealg.terms.max"], "count"),
    }
    for name in ("matrix.mul_large", "matrix.inverse", "series.mul", "freealg.mul", "poly.mul",
                 "rotabaxter.prelie", "rotabaxter.trid", "brace.omega_map", "brace.w_map",
                 "brace.prod", "yangian.relations_residual"):
        m[f"{name}.calls"] = (tr.call_count(name), "count")
    for name in ("matrix.mul_large", "matrix.addsub", "matrix.scale", "matrix.kron_embed",
                 "matrix.inverse", "series.mul", "series.log", "series.exp", "series.inverse",
                 "expansion.monodromy", "expansion.dyson_direct", "expansion.dyson_trid",
                 "expansion.closed_form", "freealg.mul", "freealg.addsub",
                 "rotabaxter.prelie", "rotabaxter.trid", "rotabaxter.rb_residual",
                 "brace.omega_map", "brace.w_map", "brace.bch",
                 "yangian.q_generators", "yangian.relations_residual",
                 "yangian.monodromy_coproduct", "yangian.hopf", "yangian.rtt",
                 "boundary.gauge", "boundary.double_row", "boundary.reflection",
                 "continuum.study", "continuum.magnus_continuous", "poly.mul",
                 "report.render", "cli", "suites", "request"):
        m[f"{name}.self_s"] = (tr.self_time(name), "s")
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark one ordexp workload.")
    parser.add_argument("--workload", required=True,
                        choices=("verify-exact", "verify-float", "expand"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ordexp" / "__init__.py").is_file():
        print(f"error: no ordexp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ordexp

    if Path(ordexp.__file__).resolve().parent != SRC / "ordexp":
        print(f"error: imported ordexp from {ordexp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.trace:
        metrics, notes, checks, detail = traced_run(workloads, tracing, args.workload, args.seed)
    else:
        metrics, notes, checks, detail = end_to_end(workloads, args.workload, args.seed, args.seconds)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:36s} {value:14.6g} {unit}{note}")
    fail_frac = len(checks.problems) / checks.attempted if checks.attempted else 1.0
    print(f"{'fail_frac':36s} {fail_frac:14.6g} ratio  "
          f"({len(checks.problems)} of {checks.attempted} checks failed)")
    for line in detail:
        print(line)
    for problem in checks.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    correct = not checks.problems and checks.attempted > 0
    # BENCHMARK.json names the metrics each kind of run reports.
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]]
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": len(checks.problems),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
