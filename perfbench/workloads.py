"""Inputs, requests and correctness checks of the benchmark workloads.

A workload is a list of requests made from the seed alone.  A request is
either a verification suite (`run_suite` plus both report renderings) or
an `ordexp expand` / `ordexp limit` command line run in-process through
`ordexp.cli.main`.  Running a request yields its output text; the checks
below judge those texts without trusting the code path that made them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from fractions import Fraction

from ordexp import cli, expansion, series, suites
from ordexp.matrix import Matrix

VERIFY_EXACT = "verify-exact"
VERIFY_FLOAT = "verify-float"
EXPAND = "expand"
WORKLOADS = (VERIFY_EXACT, VERIFY_FLOAT, EXPAND)

# Suites timed on their own; the other five are summed into verify.light_s.
HEAVY_SUITES = ("brace", "yangian", "tridendriform")


class Request:
    """One unit of work: a suite run or a CLI command line."""

    __slots__ = ("kind", "label", "suite", "backend", "seed", "argv", "check")

    def __init__(self, kind, label, suite=None, backend=None, seed=None, argv=None, check=None):
        self.kind = kind
        self.label = label
        self.suite = suite
        self.backend = backend
        self.seed = seed
        self.argv = argv
        self.check = check  # (checker name, parameters) for CLI requests


class Outcome:
    """What a request produced: its output text and its own verdict rows."""

    __slots__ = ("text", "rows", "failed_rows", "status")

    def __init__(self, text, rows=0, failed_rows=0, status=0):
        self.text = text
        self.rows = rows
        self.failed_rows = failed_rows
        self.status = status

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def run_request(req: Request) -> Outcome:
    if req.kind == "verify":
        cfg = suites.SuiteConfig(seed=req.seed, backend=req.backend)
        rep = suites.run_suite(req.suite, cfg)
        text = rep.to_text() + "\n" + rep.to_json()
        return Outcome(text, len(rep.cases), rep.failed_count)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(req.argv))
    return Outcome(buf.getvalue(), status=status)


# -- request generation ---------------------------------------------------------


def make_requests(workload: str, seed: int) -> list[Request]:
    if workload == EXPAND:
        return expand_requests(seed)
    backend = "exact" if workload == VERIFY_EXACT else "float"
    names = [n for n in suites.SUITES if backend == "exact" or n != "yangian"]
    return [Request("verify", n, suite=n, backend=backend, seed=seed) for n in names]


def _rational(rng: random.Random, bound: int) -> Fraction:
    while True:
        value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if value:
            return value


def expand_requests(seed: int) -> list[Request]:
    """The expand mix: 104 command lines whose sizes follow a fixed schedule.

    The schedule fixes each request's shape (sites, dimension, order,
    degrees, field monomials), so a pass costs about the same for every
    seed; the seed draws the operators, the direction, the scalar, the
    field coefficients and the order in which the requests run.
    """
    rng = random.Random(f"perfbench:{EXPAND}:{seed}")
    reqs = []

    def add(label, argv, check):
        reqs.append(Request("cli", label, argv=tuple(argv), check=check))

    # Long random matrix chains, logarithm via the series oracle.  The
    # number of degrees runs through a Latin square over (N, dim, order).
    for i, n in enumerate((16, 32, 64, 128)):
        for j, dim in enumerate((2, 3, 4)):
            for k, order in enumerate((4, 5, 6)):
                degrees = ",".join(str(d) for d in range(1, 2 + (i + j + k) % 3))
                spec = (f"matrix:rand({dim}x{dim},int<=3);N={n};"
                        f"degrees={degrees};seed={rng.randrange(2**32)}")
                direction = rng.choice((expansion.FORWARD, expansion.BACKWARD))
                add(f"chain N={n} dim={dim} order={order}",
                    ["expand", spec, "--form", "magnus-oracle", "--order", str(order),
                     "--direction", direction],
                    ("log", {"spec": spec, "order": order, "direction": direction}))

    # Dyson coefficients through the direct enumerator, O(N^order).
    for n in range(4, 13):
        for dim in (2, 3):
            spec = f"matrix:rand({dim}x{dim},int<=3);N={n};degrees=1,2;seed={rng.randrange(2**32)}"
            direction = rng.choice((expansion.FORWARD, expansion.BACKWARD))
            add(f"dyson N={n} dim={dim}",
                ["expand", spec, "--form", "dyson", "--order", "4", "--direction", direction],
                ("dyson", {"spec": spec, "order": 4, "direction": direction}))

    # Free letters, every form.
    for n in (3, 4, 5):
        for form in ("dyson", "magnus-oracle", "magnus-explicit", "magnus-prelie"):
            for degrees in ("1", "1,2"):
                spec = f"free:N={n};degrees={degrees}"
                direction = rng.choice((expansion.FORWARD, expansion.BACKWARD))
                check = "dyson" if form == "dyson" else "log"
                add(f"free N={n} {form}",
                    ["expand", spec, "--form", form, "--order", "3", "--direction", direction],
                    (check, {"spec": spec, "order": 3, "direction": direction}))

    # Scalar chains: the logarithm has a closed form to check against.
    for n in (8, 16, 32, 64, 128, 256):
        for _ in range(3):
            p = _rational(rng, 5)
            spec = f"scalar:p={p};N={n}"
            add(f"scalar N={n}",
                ["expand", spec, "--form", "magnus-oracle", "--order", "8"],
                ("scalar", {"n": n, "p": p, "order": 8}))

    # Convergence tables of a random polynomial field, down to delta = 1/128.
    for start in (4, 8, 16, 32):
        for _ in range(2):
            a, b, c = (_rational(rng, 3) for _ in range(3))
            spec = f"field:poly({a}*X+{b}*x*Y+{c}*x^2*I;dim=2)"
            deltas = []
            d = start
            while d <= 128:
                deltas.append(f"1/{d}")
                d *= 2
            add(f"limit from 1/{start}",
                ["limit", spec, "--deltas", ",".join(deltas)],
                ("limit", {"deltas": len(deltas)}))

    rng.shuffle(reqs)
    return reqs


# -- checks ----------------------------------------------------------------------


def _family(params: dict):
    """The family the CLI builds for a spec and --direction, rebuilt here."""
    family = cli.parse_family_spec(params["spec"], 1)
    direction = params.get("direction")
    if direction and direction != family.direction:
        family = expansion.SiteOperatorFamily(
            family.n_sites, family.entries, direction=direction, like=family.like)
    return family


def _lines(text: str, prefix: str) -> list[str]:
    return [line.split(" = ", 1)[1] for line in text.splitlines() if line.startswith(prefix)]


def _parse_matrix(text: str):
    rows = text.strip()[2:-2].split("], [")
    return Matrix([[Fraction(x) for x in row.split(", ")] for row in rows])


def _check_log(params: dict, text: str) -> str | None:
    """Printed Q^(m) satisfy exp(sum_m alpha^m Q^(m)) = monodromy."""
    family = _family(params)
    order = params["order"]
    printed = _lines(text, "Q^(")
    if len(printed) != order:
        return f"expected {order} Q lines, got {len(printed)}"
    if isinstance(family.like, Matrix):
        qs = [_parse_matrix(q) for q in printed]
    else:
        # Free letters: the printed text must be the series logarithm's, and
        # that logarithm must exponentiate back to the ordered product.
        qs = expansion.magnus_oracle(family, order)
        if [str(q) for q in qs] != printed:
            return "printed Q^(m) differ from the series logarithm"
    zero = series.zero_like(family.like)
    if series.AlphaSeries([zero] + qs).exp() != expansion.monodromy(family, order):
        return "exp(Q) differs from the ordered product"
    return None


def _check_dyson(params: dict, text: str) -> str | None:
    """Printed T^(m) equal the tridendriform fold and the monodromy coefficients."""
    family = _family(params)
    order = params["order"]
    folded = expansion.dyson_terms(family, order, method="tridendriform")
    if [str(t) for t in folded] != _lines(text, "T^("):
        return "printed T^(m) differ from the tridendriform fold"
    if list(expansion.monodromy(family, order).coeffs) != folded:
        return "tridendriform fold differs from the ordered product"
    return None


def _check_scalar(params: dict, text: str) -> str | None:
    """For p at N sites, log (1 + p alpha)^N has Q^(m) = N (-1)^(m+1) p^m / m."""
    n, p = params["n"], params["p"]
    expected = [str(Fraction(n * (-1) ** (m + 1), m) * p ** m) for m in range(1, params["order"] + 1)]
    if _lines(text, "Q^(") != expected:
        return "Q^(m) differ from N (-1)^(m+1) p^m / m"
    return None


def _check_limit(params: dict, text: str) -> str | None:
    rows = text.splitlines()
    if rows[0] != "delta,err_q1,err_q2,err_q3,rate_q1,rate_q2,rate_q3":
        return "bad header"
    if len(rows) != params["deltas"] + 1:
        return f"expected {params['deltas']} rows, got {len(rows) - 1}"
    for row in rows[1:]:
        cells = row.split(",")
        if len(cells) != 7:
            return f"row {row!r} has {len(cells)} cells"
        errors = [float(c) for c in cells[1:4]]
        if not all(math.isfinite(e) for e in errors):
            return f"row {row!r} has a non-finite error"
    return None


CHECKS = {
    "log": _check_log,
    "dyson": _check_dyson,
    "scalar": _check_scalar,
    "limit": _check_limit,
}


def check_outcome(req: Request, out: Outcome) -> tuple[int, list[str]]:
    """Independent checks of one request's output: (checks made, failures).

    A suite report counts each of its rows as a check; a command line is
    one check.
    """
    if req.kind == "verify":
        problems = [f"row failed in {req.label}"] * out.failed_rows
        if not out.text.split("\n{", 1)[0].endswith("result: PASS"):
            problems.append(f"{req.label} report does not say PASS")
        return out.rows, problems
    if out.status != 0:
        return 1, [f"{req.label}: exit status {out.status}"]
    name, params = req.check
    try:
        problem = CHECKS[name](params, out.text)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        problem = f"unreadable output: {exc}"
    return 1, [] if problem is None else [f"{req.label}: {problem}"]
