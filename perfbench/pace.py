"""Machine pace: rescale measured times to a reference speed.

On a machine whose cores are shared with other work, the time the same
computation takes drifts (by up to 1.7x over tens of seconds on a shared
2-vCPU x86-64 virtual machine), and that drift would swamp the differences
the benchmark exists to show.  So every timed interval is bracketed by
`tick()`, a short fixed kernel of exact arithmetic in plain Python
(`Fraction`, no ordexp code), and is reported as

    scaled = raw * REFERENCE_S / (mean kernel time around the interval)

that is, in seconds of a machine on which the kernel takes REFERENCE_S.
While a request runs, a wall-clock timer (SIGALRM, no threads) runs the
kernel every SAMPLE_S as well, so the pace of a long request is averaged
over its whole length; the time spent in those samples is taken out of
the request's own time.  A change to ordexp moves `raw` and leaves the
kernel alone; a machine that slows down slows both.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# Kernel time, best of three, on one idle core of a 2-vCPU x86-64 virtual
# machine under CPython 3.11; any fixed value would do, this one keeps the
# scaled figures close to wall time there.
REFERENCE_S = 0.0004
SAMPLE_S = 0.1


def _kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
    return acc


def tick() -> float:
    """Seconds the kernel takes now: the best of three tries."""
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        _kernel()
        best = min(best, perf_counter() - started)
    return best


def timed(fn, *args):
    """Run `fn(*args)`; return (result, raw seconds, seconds at reference pace)."""
    samples = [tick()]
    spent = 0.0

    def on_alarm(signum, frame):
        nonlocal spent
        started = perf_counter()
        samples.append(tick())
        spent += perf_counter() - started

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    started = perf_counter()
    try:
        result = fn(*args)
    finally:
        elapsed = perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(tick())
    raw = elapsed - spent
    return result, raw, raw * REFERENCE_S * len(samples) / sum(samples)
