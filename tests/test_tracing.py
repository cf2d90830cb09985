"""The benchmark's span tracer still finds every name it wraps.

`perfbench/tracing.py` rebinds package functions and methods by name, so a
rename in the package would break `perfbench/run.py --trace 1` without any
other test noticing.  This runs one small suite under the tracer.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import ordexp
import ordexp.cli  # noqa: F401  (the tracer rebinds the names cli imported too)
from ordexp import SuiteConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every name bound in an ordexp module or on one of its classes."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "ordexp" or name.startswith("ordexp.")):
            continue
        out[name] = dict(vars(mod))
        for attr, value in vars(mod).items():
            if inspect.isclass(value) and value.__module__.startswith("ordexp"):
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_traced_yangian_matches_untraced_and_restores():
    tracing = load_tracing()
    cfg = SuiteConfig(dim=2, sites=1)
    before = bindings()
    plain = ordexp.run_suite("yangian", cfg)

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        traced = ordexp.run_suite("yangian", cfg)
    finally:
        restore()

    assert traced.to_text() == plain.to_text()
    assert traced.to_json() == plain.to_json()
    assert tracer.calls[tracer.name_id("yangian.matrixpoly_mul")] > 0
    assert tracer.calls[tracer.name_id("yangian.rtt")] > 0
    assert bindings() == before
