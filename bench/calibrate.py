"""A fixed unit of pure-Python work that measures how fast the host runs now.

A shared host does not run at one speed: on the 2-vCPU VM of the README
baseline, a fixed loop ran 1.3-1.7x slower for stretches of a second to a
minute while other tenants were busy, and runs of the same code spread by
0.1-0.3 (IQR / median) over ten seeds. While a worker runs, a
:class:`Sampler` times one unit every ``EVERY_S`` seconds of CPU time, from
a SIGPROF handler, so also in the middle of a long request. `run.py` scales
each request's wall time by ``REF_UNIT_S`` / (the unit's time around and
during that request), which removes the host's speed from the end-to-end
times; the worker subtracts the time spent in the handler from each request.

The unit mixes the two kinds of work the workbench does: an integer loop
and arithmetic on nested tuples (the reference ordinals of `refmodel`,
built from a fixed seed). It never touches `copyposet`, so a change to the
program moves the scaled times exactly as it moves the raw ones.
"""
from __future__ import annotations

import gc
import random
import signal
from time import perf_counter

import refmodel as ref

EVERY_S = 0.2  # seconds of CPU time between two samples
REF_UNIT_S = 0.004  # the unit's time on the baseline host when it runs at full speed

_RNG = random.Random(12345)
_TERMS = [ref.random_term(_RNG, [ref.MU, ref.NU], 3) for _ in range(60)]


def _tuples() -> int:
    acc, seen = 0, {}
    for a in _TERMS:
        for b in _TERMS[:10]:
            s = ref.add(a, b)
            acc += ref.compare(s, a)
            seen[(len(s[0]), s[1])] = s
    return acc + len(seen)


def _integers() -> int:
    acc = 0
    for i in range(30_000):
        acc += i * i
    return acc


def unit() -> float:
    """Seconds one unit of work takes now.

    The cyclic garbage collector is off meanwhile, so that the unit's time
    does not depend on how many objects the program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _tuples()
        _integers()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times a unit on entry, every EVERY_S seconds of CPU time, and on exit.

    ``samples`` holds (seconds since ``start``, unit seconds); ``spent`` is
    the wall time spent taking samples so far, to be subtracted from any
    interval that contains them.
    """

    def __init__(self) -> None:
        self.start = perf_counter()
        self.samples: list = []
        self.spent = 0.0

    def take(self, _signum=None, _frame=None) -> None:
        t0 = perf_counter()
        self.samples.append((t0 - self.start, unit()))
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.take()
        signal.signal(signal.SIGPROF, self.take)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.take()
