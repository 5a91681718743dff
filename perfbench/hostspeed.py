"""Sample how fast the host runs Python while a timed pass runs.

On a shared host, other work slowed one 5000-image convert pass from 3.1 s
to as much as 5.9 s, in spells of tens of seconds; process CPU time slowed
just as much, so neither wall time nor CPU time repeats between runs.
:class:`SpeedProbe` measures the slowdown where it happens: every 5 ms a
timer signal interrupts the pass and times a fixed piece of Python
(``_ProbeWork``) that does not call the library, so the library's code
cannot change how long it takes.  A pass's duration, less the probe's own
time, rescaled by how much slower than ``REFERENCE_S`` the probe ran, gives
the pass's duration at reference host speed.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.005
#: duration of one ``_ProbeWork`` call on an uncontended 2-vCPU x86-64 host
#: running CPython 3.11; it only scales the results
REFERENCE_S = 0.00005
#: share of the slowest samples left out of the probe's mean: a sample the
#: scheduler interrupted says more about the scheduler than the host's speed
TRIM = 0.1


class _Cursor:
    __slots__ = ("text", "pos", "line")

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1

    def advance(self):
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
        return ch


class _ProbeWork:
    """A fixed piece of Python: string building and dict lookups, then one
    small method call per character, the two kinds of work the convert and
    reload passes do most.

    It allocates no object the garbage collector tracks, so a collection
    the pass has made due cannot start inside a sample and be counted as
    host slowness.
    """

    def __init__(self):
        self.counts = {}
        self.cursor = _Cursor('<http://example.org/a> <http://example.org/p> "x" .\n' * 3)

    def __call__(self):
        counts = self.counts
        counts.clear()
        for i in range(60):
            key = f"http://example.org/r/{i % 97}"
            counts[key] = counts.get(key, 0) + key.count("/")
        cursor = self.cursor
        cursor.pos = 0
        while cursor.pos < len(cursor.text):
            cursor.advance()


class SpeedProbe:
    """Context manager that samples host speed for the duration of a block."""

    def __init__(self):
        self.samples: list = []
        self._work = _ProbeWork()
        self._sampling = False

    def _sample(self, _signum, _frame):
        if self._sampling:  # the timer fired again inside a sample
            return
        self._sampling = True
        start = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - start)
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_seconds(self, elapsed: float) -> float:
        """``elapsed`` wall seconds of the block, at reference host speed."""
        if not self.samples:
            raise RuntimeError("the block ended before the first speed sample")
        kept = sorted(self.samples)[:max(1, round(len(self.samples) * (1 - TRIM)))]
        return (elapsed - sum(self.samples)) * REFERENCE_S / (sum(kept) / len(kept))
