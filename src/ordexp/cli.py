"""Command-line front end: verification suites, expansions, convergence tables.

Three subcommands:

  verify SUITE   run one verification suite and print its report
  expand SPEC    print Dyson or logarithm coefficients for a family
  limit SPEC     print a discrete-to-continuous convergence table as CSV

Family and field specs use a small textual grammar:

  scalar:p=1;N=4                     every site carries the rational p
  matrix:rand(2x2,int<=3);N=4;seed=7 seeded random integer matrices
  free:N=3;degrees=1,2               formal letters P_n (degree d prints Pd_n)
  field:poly(X+x*Y;dim=2)            matrix polynomial in x on [0, 1]

A key the spec's kind does not read, a repeated key, and a repeated degree
are errors.  Only `verify` takes --seed; a matrix spec is seeded by its
own seed= key, and draws with seed 1 without it.  Either seed must lie in
0..2**64-1.  The rand bound is
written exactly int<=K or int≤K.  Field expressions combine rational
coefficients, powers of x, and the 2x2 symbols X (upper step), Y (lower
step), and I (identity) with * and +.  Reports are deterministic for a
given seed and flag set; wall-clock timing goes to standard error only.
Exit status: 0 all checks passed, 1 a check failed, 2 usage or spec error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from fractions import Fraction

from .continuum import MatrixField, convergence_study
from .errors import AlgebraError
from .expansion import (
    BACKWARD,
    FORWARD,
    SiteOperatorFamily,
    magnus_closed_form,
    magnus_oracle,
    monodromy,
)
from .freealg import FreeElement
from .matrix import Matrix
from .poly import Poly
from .sampling import SampleSource
from .suites import SUITES, SuiteConfig, run_suite

F = Fraction


class SpecError(ValueError):
    """A family or field spec that does not parse."""


def _fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"{what}: cannot read {text!r} as a rational") from exc


def _int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise SpecError(f"{what}: cannot read {text!r} as an integer") from exc


def _key_values(parts, kind: str, keys: tuple) -> dict:
    """The `key=value` parts as a dict; a key the `kind` spec does not read,
    or a key given twice, is an error."""
    out = {}
    for part in parts:
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or not key:
            raise SpecError(f"expected key=value, got {part!r}")
        if key not in keys:
            raise SpecError(f"a {kind} spec does not read {key!r}; it reads {', '.join(keys)}")
        if key in out:
            raise SpecError(f"a {kind} spec gives {key!r} twice")
        out[key] = value.strip()
    return out


def _sites(fields: dict, spec: str) -> int:
    if "N" not in fields:
        raise SpecError(f"spec {spec!r} needs N=<sites>")
    n = _int(fields["N"], "N")
    if n < 0:
        raise SpecError("N must be nonnegative")
    return n


def _degrees(fields: dict) -> tuple:
    raw = fields.get("degrees", "1")
    try:
        degrees = tuple(int(d) for d in raw.split(","))
    except ValueError as exc:
        raise SpecError(f"bad degrees list {raw!r}") from exc
    if not degrees or any(d < 1 for d in degrees) or len(set(degrees)) < len(degrees):
        raise SpecError(f"bad degrees list {raw!r}: need distinct degrees >= 1")
    return degrees


def parse_family_spec(spec: str, default_seed: int = 1, direction: str = FORWARD) -> SiteOperatorFamily:
    """The family a spec names, built once in `direction`."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise SpecError(f"spec {spec!r} needs a kind prefix like scalar: or matrix:")
    parts = [p for p in rest.split(";") if p]

    if kind == "scalar":
        fields = _key_values(parts, kind, ("p", "N"))
        n = _sites(fields, spec)
        p = _fraction(fields.get("p", "1"), "p")
        entries = {(s, 1): p for s in range(1, n + 1)}
        return SiteOperatorFamily(n, entries, direction=direction, like=F(1))

    if kind == "matrix":
        if not parts or not parts[0].startswith("rand(") or not parts[0].endswith(")"):
            raise SpecError(f"matrix spec needs rand(AxA,int<=K), got {spec!r}")
        inner = parts[0][len("rand("):-1]
        pieces = [p.strip() for p in inner.split(",")]
        if len(pieces) != 2:
            raise SpecError(f"rand needs a shape and a bound, got {parts[0]!r}")
        shape = re.fullmatch(r"(\d+)x\1", pieces[0].lower())
        if shape is None:
            raise SpecError(f"rand shape must be AxA, got {pieces[0]!r}")
        bound = re.fullmatch(r"int(?:<=|≤)(\d+)", pieces[1])
        if bound is None:
            raise SpecError(f"rand bound must be int<=K, got {pieces[1]!r}")
        fields = _key_values(parts[1:], kind, ("N", "degrees", "seed"))
        n = _sites(fields, spec)
        degrees = _degrees(fields)
        seed = _int(fields["seed"], "seed") if "seed" in fields else default_seed
        src = SampleSource(seed).split("expand:matrix")
        return src.matrix_family(n, degrees, size=int(shape[1]), bound=int(bound[1]), direction=direction)

    if kind == "free":
        fields = _key_values(parts, kind, ("N", "degrees"))
        n = _sites(fields, spec)
        degrees = _degrees(fields)
        entries = {
            (s, d): FreeElement.gen("P" if d == 1 else f"P{d}", site=s, degree=d)
            for s in range(1, n + 1)
            for d in degrees
        }
        return SiteOperatorFamily(n, entries, direction=direction, like=FreeElement.one())

    raise SpecError(f"unknown family kind {kind!r}")


_FIELD_SYMBOLS = {
    "X": Matrix([[0, 1], [0, 0]]),
    "Y": Matrix([[0, 0], [1, 0]]),
    "I": Matrix.identity(2),
}


def _parse_field_term(term: str) -> Poly:
    coeff = F(1)
    power = 0
    symbol = None
    for factor in term.split("*"):
        factor = factor.strip()
        if not factor:
            raise SpecError(f"empty factor in term {term!r}")
        if factor in _FIELD_SYMBOLS:
            if symbol is not None:
                raise SpecError(f"term {term!r} has two matrix symbols")
            symbol = factor
        elif factor == "x":
            power += 1
        elif factor.startswith("x^"):
            power += _int(factor[2:], f"term {term!r}")
        else:
            coeff = coeff * _fraction(factor, f"term {term!r}")
    if symbol is None:
        raise SpecError(f"term {term!r} needs one of the symbols X, Y, I")
    return Poly({(power,): _FIELD_SYMBOLS[symbol] * coeff})


def parse_field_spec(spec: str) -> MatrixField:
    kind, sep, rest = spec.partition(":")
    if not sep or kind != "field":
        raise SpecError(f"field spec must start with field:, got {spec!r}")
    if not rest.startswith("poly(") or not rest.endswith(")"):
        raise SpecError(f"field spec needs poly(...), got {spec!r}")
    inner = rest[len("poly("):-1]
    pieces = inner.split(";")
    expr = pieces[0]
    options = _key_values(pieces[1:], "field", ("dim",))
    dim = _int(options.get("dim", "2"), "dim")
    if dim != 2:
        raise SpecError("only dim=2 field symbols are defined")
    poly = Poly()
    for term in expr.split("+"):
        poly = poly + _parse_field_term(term)
    return MatrixField(poly)


def cmd_verify(args) -> int:
    cfg = SuiteConfig(
        seed=args.seed,
        backend=args.backend,
        tolerance=args.tolerance,
        order=args.order,
        sites=args.sites,
        dim=args.dim,
        samples=args.samples,
    )
    started = time.perf_counter()
    report = run_suite(args.suite, cfg)
    print(report.to_json() if args.json else report.to_text())
    elapsed = time.perf_counter() - started
    print(f"[{args.suite}] wall time {elapsed:.2f}s", file=sys.stderr)
    return 0 if report.all_passed() else 1


def cmd_expand(args) -> int:
    family = parse_family_spec(args.spec, direction=args.direction or FORWARD)
    order = 3 if args.order is None else args.order
    if order < 0:
        raise SpecError("order must be nonnegative")

    lines = [
        f"family: {args.spec}",
        f"form: {args.form}",
        f"direction: {family.direction}",
        f"order: {order}",
        "",
    ]
    if args.form == "dyson":
        # The ordered product's coefficients are the Dyson terms, at O(N order^2)
        # cost (one series product per site); `dyson_terms`' direct
        # enumerator costs O(N^order).
        for m, t in enumerate(monodromy(family, order).coeffs):
            lines.append(f"T^({m}) = {t}")
    else:
        if args.form == "magnus-oracle":
            q_list = magnus_oracle(family, order)
        else:
            style = args.form.split("-", 1)[1]
            q_list = magnus_closed_form(family, order=order, style=style)
        for m, q in enumerate(q_list, start=1):
            lines.append(f"Q^({m}) = {q}")
    print("\n".join(lines))
    return 0


def cmd_limit(args) -> int:
    field = parse_field_spec(args.spec)
    parts = [p for p in args.deltas.split(",") if p.strip()]
    if len(parts) < 3:
        raise SpecError("need at least 3 delta values")
    deltas = [_fraction(p, "delta") for p in parts]
    table = convergence_study(field, deltas)
    for row in table.csv_rows():
        print(row)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one: parsing fills a fresh namespace and leaves the parser as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", type=int, default=None,
                        help="truncation order (default 3 for expand, suite-specific for verify)")

    parser = argparse.ArgumentParser(
        prog="ordexp",
        description="Exact ordered-product expansions and their algebraic laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--seed", type=int, default=1,
                          help="64-bit sampling seed (default 1)")
    p_verify.add_argument("--backend", choices=["exact", "float"], default="exact",
                          help="arithmetic backend (default exact)")
    p_verify.add_argument("--tolerance", type=float, default=None,
                          help="pass threshold, float backend only (default 1e-10)")
    p_verify.add_argument("--json", action="store_true",
                          help="emit the verification report as JSON")
    p_verify.add_argument("--sites", type=int, default=None,
                          help="chain length (suite-specific default)")
    p_verify.add_argument("--dim", type=int, default=None,
                          help="local matrix dimension (suite-specific default)")
    p_verify.add_argument("--samples", type=int, default=None,
                          help="sampled cases per law (suite-specific default)")

    p_expand = sub.add_parser("expand", parents=[common],
                              help="print expansion coefficients for a family")
    p_expand.add_argument("spec", help="family spec, e.g. scalar:p=1;N=2")
    p_expand.add_argument("--form", default="dyson",
                          choices=["dyson", "magnus-oracle", "magnus-explicit",
                                   "magnus-prelie"])
    p_expand.add_argument("--direction", choices=[FORWARD, BACKWARD], default=None)

    p_limit = sub.add_parser("limit", help="print a convergence table as CSV")
    p_limit.add_argument("spec", help="field spec, e.g. field:poly(X+x*Y;dim=2)")
    p_limit.add_argument("--deltas", required=True,
                         help="comma-separated steps, e.g. 1/4,1/8,1/16,1/32")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, not stored in the shared parser, so that a later
    # rebinding of a `cmd_*` name takes effect.
    command = {"verify": cmd_verify, "expand": cmd_expand, "limit": cmd_limit}[args.command]
    try:
        return command(args)
    except (SpecError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
