"""Span tracer for the benchmark's traced run.

`instrument(tracer)` wraps the public entry points of every ordexp layer
from outside the package: class methods are replaced on the class, and
module functions are replaced in every ordexp module that bound them,
including the `from ... import` sites (for example `suites.monodromy`
and `cli.dyson_terms`), so no call slips past its span.

Each span records its name, start, end, parent span and request id in
flat arrays kept in memory; `Tracer.save` writes them out once the run
ends.  A span's self time is its duration minus the time covered by its
child spans and is summed per span name as the spans close.

Counters (`observe` hooks) run after a span has closed, on a paused
clock: their cost is left out of every span, including the enclosing
ones, but it is part of the traced pass's wall time and therefore of
`trace.overhead_frac`.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from time import perf_counter

class Tracer:
    """In-memory span store with per-name self time, call and failure counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.failures: dict[tuple[int, int], int] = {}
        self.stack: list[list] = []  # [span index, seconds covered by children]
        self.paused = 0.0
        self.request = -1
        self.stats = {
            "matrix.mul.dense_ops": 0,
            "matrix.mul.useful_ops": 0,
            "matrix.mul_large.dense_ops": 0,
            "matrix.mul_large.useful_ops": 0,
            "matrix.entry_bits.max": 0,
            "freealg.terms.max": 0,
        }

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self.stack
        self.start.append(perf_counter() - self.paused)
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.req.append(self.request)
        stack.append([idx, 0.0])
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter() - self.paused
        stack = self.stack
        covered = stack.pop()[1]
        self.end[idx] = end
        duration = end - self.start[idx]
        nid = self.name[idx]
        self.self_s[nid] += duration - covered
        self.calls[nid] += 1
        if stack:
            stack[-1][1] += duration

    def fail(self, idx: int) -> None:
        """Count a span that ended by raising, keyed by its parent's name."""
        parent = self.parent[idx]
        key = (self.name[idx], self.name[parent] if parent >= 0 else -1)
        self.failures[key] = self.failures.get(key, 0) + 1

    def observe(self, hook, args, result) -> None:
        mark = perf_counter()
        hook(self, args, result)
        self.paused += perf_counter() - mark

    def request_span(self, index: int, fn, *args):
        """Run `fn(*args)` as request `index`, under a root span."""
        self.request = index
        idx = self.open(self.name_id("request"))
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.request = -1

    # -- read-out -------------------------------------------------------

    def self_time(self, *names: str) -> float:
        return sum(self.self_s[self._ids[n]] for n in names if n in self._ids)

    def call_count(self, *names: str) -> int:
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def failure_count(self, name: str, parent: str) -> int:
        if name not in self._ids or parent not in self._ids:
            return 0
        return self.failures.get((self._ids[name], self._ids[parent]), 0)

    def save(self, path) -> None:
        """Write every span as columns of an uncompressed .npz archive."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.req, dtype=np.int32),
        )


# -- wrappers ----------------------------------------------------------------


def _wrap(tracer: Tracer, fn, name, observe=None, classify=None):
    """Return `fn` wrapped in a span named `name` (or `classify(args, kwargs)`)."""
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        idx = tracer.open(nid if classify is None else classify(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.fail(idx)
            tracer.close(idx)
            raise
        tracer.close(idx)
        if observe is not None:
            tracer.observe(observe, args, result)
        return result

    return traced


def _patch_method(tracer, undo, cls, attr, name, observe=None, classify=None):
    original = cls.__dict__[attr]
    undo.append((cls, attr, original))
    setattr(cls, attr, _wrap(tracer, original, name, observe, classify))


def _patch_function(tracer, undo, modules, home, attr, name, observe=None, classify=None):
    """Replace `home.attr` and every other binding of the same object."""
    original = getattr(home, attr)
    wrapped = _wrap(tracer, original, name, observe, classify)
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, original))
                setattr(module, key, wrapped)


# -- counters ----------------------------------------------------------------


def _entry_bits(matrix) -> int:
    best = 0
    for row in matrix.data:
        for x in row:
            if type(x) is Fraction:
                bits = max(x.numerator.bit_length(), x.denominator.bit_length())
            elif type(x) is int:
                bits = x.bit_length()
            else:
                continue
            if bits > best:
                best = bits
    return best


def _track_bits(tracer, args, result):
    if hasattr(result, "data"):
        bits = _entry_bits(result)
        if bits > tracer.stats["matrix.entry_bits.max"]:
            tracer.stats["matrix.entry_bits.max"] = bits


def _is_large(a, b) -> bool:
    return max(a.rows, a.cols, b.cols) >= 8


def _track_product(tracer, args, result):
    a, b = args
    if not hasattr(b, "data"):
        _track_bits(tracer, args, result)
        return
    # A product skips every zero entry, so the multiplications it performs
    # are the pairs of nonzero a[i][k], b[k][j]: nnz(column k) * nnz(row k).
    col_nnz = [0] * a.cols
    for row in a.data:
        for k, x in enumerate(row):
            if x:
                col_nnz[k] += 1
    useful = sum(c * sum(1 for x in row if x) for c, row in zip(col_nnz, b.data))
    key = "matrix.mul_large" if _is_large(a, b) else "matrix.mul"
    stats = tracer.stats
    stats[key + ".dense_ops"] += a.rows * a.cols * b.cols
    stats[key + ".useful_ops"] += useful
    _track_bits(tracer, args, result)


def _track_terms(tracer, args, result):
    terms = getattr(result, "terms", None)
    if terms is not None and len(terms) > tracer.stats["freealg.terms.max"]:
        tracer.stats["freealg.terms.max"] = len(terms)


# -- the instrumentation table -------------------------------------------------

_MODULE_FUNCTIONS = {
    "matrix": {
        "kron_embed": "matrix.kron_embed",
        "permutation_op": "matrix.tensor",
        "partial_trace_first": "matrix.tensor",
        "aux_block": "matrix.tensor",
    },
    "expansion": {
        "ordered_product": "expansion.monodromy",
        "monodromy": "expansion.monodromy",
        "prefix_monodromy": "expansion.monodromy",
        "magnus_oracle": "expansion.magnus_oracle",
        "magnus_closed_form": "expansion.closed_form",
        "closed_form_defects": "expansion.closed_form",
        "pi_table": "expansion.magnus_from_dyson",
        "magnus_from_dyson": "expansion.magnus_from_dyson",
        "factorized_expansion": "expansion.factorized",
        "factorized_direct": "expansion.factorized",
        "factorized_generators": "expansion.factorized",
    },
    "rotabaxter": {
        "prelie_left": "rotabaxter.prelie",
        "prelie_right": "rotabaxter.prelie",
        "check_prelie_left": "rotabaxter.prelie",
        "check_prelie_right": "rotabaxter.prelie",
        "trid_prec": "rotabaxter.trid",
        "trid_succ": "rotabaxter.trid",
        "trid_dot": "rotabaxter.trid",
        "trid_star": "rotabaxter.trid",
        "trid_apply": "rotabaxter.trid",
        "check_tridendriform": "rotabaxter.trid",
        "rb_residual": "rotabaxter.rb_residual",
        "partial_sum": "rotabaxter.partial_sum",
    },
    "brace": {
        "omega_map": "brace.omega_map",
        "w_map": "brace.w_map",
        "bch": "brace.bch",
        "exp_flow": "brace.exp_flow",
        "brace_mul": "brace.residual",
        "left_brace_residual": "brace.residual",
        "circle_assoc_residual": "brace.residual",
        "flow_composition_residual": "brace.residual",
    },
    "yangian": {
        "q_generators_and_relations": "yangian.q_generators",
        "yangian_relations_residual": "yangian.relations_residual",
        "monodromy_coproduct": "yangian.monodromy_coproduct",
        "hopf_checks": "yangian.hopf",
        "rtt_residual": "yangian.rtt",
        "rtt_matching_order_residual": "yangian.rtt",
        "ybe_residual": "yangian.ybe",
        "classical_ybe_residual": "yangian.ybe",
        "transfer_commute_residual": "yangian.transfer",
        "coproduct_tridendriform_residual": "yangian.coproduct_trid",
    },
    "boundary": {
        "gauge_solve": "boundary.gauge",
        "double_row_monodromy": "boundary.double_row",
        "reflection_hat": "boundary.reflection",
    },
    "continuum": {
        "convergence_study": "continuum.study",
        "magnus_continuous": "continuum.magnus_continuous",
        "discretize": "continuum.discretize",
    },
    "cli": {
        "main": "cli",
        "cmd_expand": "cli",
        "cmd_limit": "cli",
        "parse_family_spec": "cli",
        "parse_field_spec": "cli",
    },
    "suites": {
        "run_suite": "suites",
    },
}


def instrument(tracer: Tracer):
    """Wrap every traced entry point of the imported ordexp package.

    Returns a function that puts every original back.
    """
    import ordexp
    from ordexp import brace, freealg, matrix, poly, report, rotabaxter, sampling, series, yangian

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "ordexp" or n.startswith("ordexp."))]
    undo = []
    for mod_name, table in _MODULE_FUNCTIONS.items():
        home = getattr(ordexp, mod_name)
        for attr, name in table.items():
            _patch_function(tracer, undo, modules, home, attr, name)

    # dyson_terms is split by method, so the direct enumerator and the
    # tridendriform fold get their own spans.
    dyson_ids = {m: tracer.name_id(f"expansion.dyson_{m}") for m in ("direct", "trid")}

    def dyson_span(args, kwargs):
        method = kwargs.get("method", args[2] if len(args) > 2 else "direct")
        return dyson_ids["trid" if method == "tridendriform" else "direct"]

    _patch_function(tracer, undo, modules, ordexp.expansion, "dyson_terms",
                    "expansion.dyson_direct", classify=dyson_span)

    Matrix = matrix.Matrix
    product_ids = {n: tracer.name_id(n) for n in ("matrix.mul", "matrix.mul_large", "matrix.scale")}

    def product_span(args, kwargs):
        a, b = args
        if not isinstance(b, Matrix):
            return product_ids["matrix.scale"]
        return product_ids["matrix.mul_large" if _is_large(a, b) else "matrix.mul"]

    _patch_method(tracer, undo, Matrix, "__mul__", "matrix.mul", _track_product, product_span)
    _patch_method(tracer, undo, Matrix, "__rmul__", "matrix.scale", _track_bits)
    for attr in ("__add__", "__sub__", "__neg__"):
        _patch_method(tracer, undo, Matrix, attr, "matrix.addsub", _track_bits)
    _patch_method(tracer, undo, Matrix, "inverse", "matrix.inverse", _track_bits)
    _patch_method(tracer, undo, Matrix, "kron", "matrix.kron", _track_bits)

    AlphaSeries = series.AlphaSeries
    for attr, name in (("__mul__", "series.mul"), ("__rmul__", "series.mul"),
                       ("__add__", "series.addsub"), ("__sub__", "series.addsub"),
                       ("__neg__", "series.addsub"), ("scale", "series.scale"),
                       ("log", "series.log"), ("exp", "series.exp"),
                       ("inverse", "series.inverse")):
        _patch_method(tracer, undo, AlphaSeries, attr, name)

    FreeElement = freealg.FreeElement
    for attr in ("__mul__", "__rmul__"):
        _patch_method(tracer, undo, FreeElement, attr, "freealg.mul", _track_terms)
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        _patch_method(tracer, undo, FreeElement, attr, "freealg.addsub", _track_terms)

    for attr, name in (("__mul__", "poly.mul"), ("__rmul__", "poly.mul"),
                       ("__add__", "poly.addsub"), ("__sub__", "poly.addsub"),
                       ("__neg__", "poly.addsub")):
        _patch_method(tracer, undo, poly.Poly, attr, name)

    _patch_method(tracer, undo, brace.GradedPreLieElement, "prod", "brace.prod")
    _patch_method(tracer, undo, yangian.MatrixPoly, "__mul__", "yangian.matrixpoly_mul")
    _patch_method(tracer, undo, rotabaxter.PartialSumOp, "__call__", "rotabaxter.partial_sum")
    _patch_method(tracer, undo, rotabaxter.IntegralOp, "__call__", "rotabaxter.partial_sum")

    Report = report.VerificationReport
    _patch_method(tracer, undo, Report, "to_text", "report.render")
    _patch_method(tracer, undo, Report, "to_json", "report.render")
    _patch_method(tracer, undo, Report, "add", "report.add")

    Source = sampling.SampleSource
    for attr in ("split", "integer", "fraction", "nonzero_fraction", "matrix", "sequence",
                 "free_sequence", "matrix_family", "poly", "subset"):
        _patch_method(tracer, undo, Source, attr, "sampling")
    _patch_method(tracer, undo, Source, "invertible_matrix", "sampling.invertible")

    def restore():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return restore
