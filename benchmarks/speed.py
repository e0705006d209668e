"""Host speed, sampled while the program runs.

On a shared host the same call can take twice as long from one minute
to the next, so a call's seconds say as much about the host as about
the program.  ``Sampler`` interrupts the calls it watches every
``INTERVAL_S`` seconds (SIGALRM, handled in the main thread between
bytecodes) and times one run of a fixed reference kernel.  A call's own
time divided by the mean kernel time sampled during calls of the same
kind is its cost in kernel runs, which moves with the program and much
less with the host's load.  The kernel is the benchmark's code, so no
change to the program changes it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

INTERVAL_S = 0.15

# The kernel mixes the program's kinds of work, so that a host slowdown
# that hits one of them harder (allocation, cache, big integers) moves
# the kernel too: a product of two sparse polynomials whose terms are
# (x exponents, N exponents, trace subsets) tuples, as in ``QPoly``;
# XOR elimination of wide integer rows against a pivot dict, as in the
# GF(2) layer; updates spread over a larger table.
_rng = random.Random(0)


def _terms(count: int) -> list[tuple]:
    out = []
    for _ in range(count):
        traces = [(_rng.randrange(2),) * 6 for _ in range(_rng.randrange(3))]
        out.append((tuple(_rng.randrange(3) for _ in range(6)),
                    tuple(_rng.randrange(2) for _ in range(6)),
                    tuple(sorted(traces, reverse=True))))
    return out


_LEFT, _RIGHT = _terms(40), _terms(30)
_ROWS = [_rng.getrandbits(6000) for _ in range(1000)]
_KEYS = [tuple(_rng.randrange(9) for _ in range(4)) for _ in range(20000)]
_TABLE = dict.fromkeys(_KEYS, 0)


def kernel() -> frozenset:
    acc: dict = {}
    for s in _LEFT:
        for t in _RIGHT:
            key = (tuple(u + v for u, v in zip(s[0], t[0])),
                   tuple(u + v for u, v in zip(s[1], t[1])),
                   tuple(sorted(s[2] + t[2], reverse=True)))
            acc[key] = acc.get(key, 0) ^ 1
    pivots: dict = {}
    for j in range(100):
        row = _ROWS[(j * 7919) % len(_ROWS)]
        for _ in range(3):
            low = (row & -row).bit_length()
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    for j in range(1000):
        _TABLE[_KEYS[(j * 7919) % len(_KEYS)]] ^= 1
    return frozenset(key for key, odd in acc.items() if odd)


def _timed_kernel() -> float:
    collecting = gc.isenabled()
    gc.disable()   # a collection of the program's heap is not kernel time
    start = time.perf_counter()
    kernel()
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


class Sampler:
    """Set ``kind`` while a watched call runs and read ``spent`` after it:
    the kernel time taken inside the call, to be subtracted from it."""

    def __init__(self):
        self.kind: str | None = None
        self.spent = 0.0
        self.samples: dict[str, list[float]] = {}

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self.kind is None:
            return
        elapsed = _timed_kernel()
        self.samples.setdefault(self.kind, []).append(elapsed)
        self.spent += elapsed

    def kernel_s(self, kind: str) -> float:
        """Mean kernel time during calls of ``kind``; calls too short to
        be sampled use the mean over every call of the round, and a
        round too short for any sample times the kernel now."""
        samples = self.samples.get(kind)
        if not samples:
            samples = [s for values in self.samples.values() for s in values]
        if not samples:
            samples = [_timed_kernel() for _ in range(5)]
        return statistics.fmean(samples)
