"""Byte identity: seed-1 outputs match the digests committed with the benchmark.

`perfbench/golden/seed1.json` holds the SHA-256 of each suite's
`to_text() + "\\n" + to_json()` at seed 1 and default sizes, on both
backends, and of the standard output of each `ordexp expand` / `ordexp
limit` command line of the benchmark's expand workload at seed 1.  Every
one of them is rechecked here.  The reports come from the session cache
of `conftest.py`, which `test_acceptance.py` reads too.

`golden_seeds_2_3.json`, beside this file, holds the same report digests
at seeds 2 and 3 (the 8 exact suites and the 7 float ones), so a change
that keeps seed 1 but moves another seed's bits shows here too.  They were
captured with `run_suite` at default sizes, like the seed-1 digests.

`golden_brace_sizes.json` holds the brace report's digest at seed 1 on both
backends at sizes other than the defaults (`--sites 1 --dim 1`, `--dim 3`,
`--sites 5`, `--order 6 --samples 3`), so the shapes of the brace suite's
site stacks (one site, 3x3 blocks, five sites, degrees up to 6) are
checked too.  They were captured before the brace elements became stacks.

`golden_expand_seeds_2_3.json` holds the argv and the standard-output digest
of each of the 104 expand/limit command lines that
`perfbench/workloads.expand_requests(seed)` makes at seeds 2 and 3.
`golden_yangian.json` holds the yangian report's digest on the float
backend at seeds 1-3, which no benchmark workload runs, and on the exact
backend at seed 1 at `--sites 1`, `2` and `3` and at `--dim 2` and `3`,
the flags its charge-exchange row reads.  Both were captured before the
exchange relation became one tensor-leg identity.  Its two `--dim 4`
digests at seed 1, one per backend, where the q-generator families act on
4^5 rows, were captured before those families became one too.

`golden_dim8.json` holds the seed-1 digests of `verify brace --dim 8
--sites 2` and `verify prelie --dim 8` on both backends: 8x8 blocks, at
the size rule, so the fused pre-Lie product walks each block's nonzero
rows, on a stack of two sites in brace.  They were captured before that
walk moved out of the generic product into `fused_prelie_site`.

The free algebra interns each letter to an id as it first meets it; one
check runs a fresh interpreter that interns every letter the outputs use in
the reverse of their spelling order first, and compares three seed-1
digests, so no output depends on the order of the ids.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ordexp import SuiteConfig, run_suite
from ordexp.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "seed1.json").read_text())
CASES = [("exact", row) for row in GOLDEN["verify-exact"]]
CASES += [("float", row) for row in GOLDEN["verify-float"]]
COMMANDS = list(enumerate(GOLDEN["expand"]))
OTHER_SEEDS = json.loads((Path(__file__).resolve().parent / "golden_seeds_2_3.json").read_text())
SEED_CASES = [(int(seed), workload.removeprefix("verify-"), row)
              for seed, workloads in OTHER_SEEDS.items()
              for workload, rows in workloads.items() for row in rows]
BRACE_SIZES = json.loads((Path(__file__).resolve().parent / "golden_brace_sizes.json").read_text())
OTHER_COMMANDS = [(int(seed), index, row) for seed, rows in json.loads(
    (Path(__file__).resolve().parent / "golden_expand_seeds_2_3.json").read_text()).items()
    for index, row in enumerate(rows)]
YANGIAN = json.loads((Path(__file__).resolve().parent / "golden_yangian.json").read_text())
LARGE_BLOCKS = json.loads((Path(__file__).resolve().parent / "golden_dim8.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("backend,row", CASES, ids=[f"{b}-{r['label']}" for b, r in CASES])
def test_seed1_report_matches_golden_digest(seed1_report, backend, row):
    report = seed1_report(row["label"], backend)
    assert sha256(report.to_text() + "\n" + report.to_json()) == row["sha256"]


@pytest.mark.parametrize("seed,backend,row", SEED_CASES,
                         ids=[f"seed{s}-{b}-{r['label']}" for s, b, r in SEED_CASES])
def test_seed_2_3_report_matches_golden_digest(seed, backend, row):
    report = run_suite(row["label"], SuiteConfig(seed=seed, backend=backend))
    assert sha256(report.to_text() + "\n" + report.to_json()) == row["sha256"]


@pytest.mark.parametrize("row", BRACE_SIZES, ids=[
    f"{r['backend']}-" + "-".join(f"{k}{v}" for k, v in r["sizes"].items()) for r in BRACE_SIZES])
def test_brace_report_at_other_sizes_matches_golden_digest(row):
    report = run_suite("brace", SuiteConfig(seed=1, backend=row["backend"], **row["sizes"]))
    assert sha256(report.to_text() + "\n" + report.to_json()) == row["sha256"]


@pytest.mark.parametrize("index,row", COMMANDS, ids=[f"{i:03d}-{r['label']}" for i, r in COMMANDS])
def test_seed1_command_output_matches_golden_digest(index, row):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(row["argv"]))
    assert sha256(out.getvalue()) == row["sha256"]


@pytest.mark.parametrize("seed,index,row", OTHER_COMMANDS,
                         ids=[f"seed{s}-{i:03d}-{r['label']}" for s, i, r in OTHER_COMMANDS])
def test_seed_2_3_command_output_matches_golden_digest(seed, index, row):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(row["argv"]))
    assert sha256(out.getvalue()) == row["sha256"]


@pytest.mark.parametrize("row", YANGIAN, ids=[
    f"{r['backend']}-seed{r['seed']}" + "".join(f"-{k}{v}" for k, v in r["sizes"].items())
    for r in YANGIAN])
def test_yangian_report_matches_golden_digest(row):
    report = run_suite("yangian", SuiteConfig(seed=row["seed"], backend=row["backend"], **row["sizes"]))
    assert sha256(report.to_text() + "\n" + report.to_json()) == row["sha256"]


@pytest.mark.parametrize("row", LARGE_BLOCKS, ids=[
    f"{r['suite']}-{r['backend']}" + "".join(f"-{k}{v}" for k, v in r["sizes"].items())
    for r in LARGE_BLOCKS])
def test_large_block_report_matches_golden_digest(row):
    report = run_suite(row["suite"], SuiteConfig(seed=1, backend=row["backend"], **row["sizes"]))
    assert sha256(report.to_text() + "\n" + report.to_json()) == row["sha256"]


def test_outputs_do_not_depend_on_the_order_letters_were_interned():
    brace, trid = ({r["label"]: r["sha256"] for r in GOLDEN["verify-float"]}[s] for s in ("brace", "tridendriform"))
    (free,) = [r for r in GOLDEN["expand"] if r["argv"][:4] == ["expand", "free:N=4;degrees=1,2", "--form", "magnus-prelie"]]
    script = """
import contextlib, hashlib, io, json, sys
from ordexp.freealg import FreeElement
# every letter the outputs spell, interned before them in the reverse of
# the (name, degree, site) order `str` sorts by
FreeElement.gen("z")
for name in ("y", "x", "c2", "c1", "b2", "b1", "a2", "a1", "P3", "P2", "P"):
    for degree in (3, 2, 1):
        for site in range(6, -1, -1):
            FreeElement.gen(name, site=site, degree=degree)
from ordexp import SuiteConfig, run_suite
from ordexp.cli import main
digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
out = {}
for suite in ("brace", "tridendriform"):
    report = run_suite(suite, SuiteConfig(seed=1, backend="float"))
    out[suite] = digest(report.to_text() + "\\n" + report.to_json())
text = io.StringIO()
with contextlib.redirect_stdout(text):
    main(json.loads(sys.argv[1]))
out["free"] = digest(text.getvalue())
print(json.dumps(out))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(free["argv"])], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert json.loads(done.stdout) == {"brace": brace, "tridendriform": trid, "free": free["sha256"]}
