"""Host speed sampling: scales measured times to a machine of fixed speed.

On a shared machine the same deterministic solve takes anywhere from 1x to
2x its quiet time.  The host switches between fast and slow states many
times a second, and the share of slow time drifts over minutes to hours.
The slowdown is not descheduling (process CPU time grows with wall time),
and no hardware counters are visible from inside, so the benchmark measures
the host's speed with a fixed piece of work of its own.

While a ``HostClock`` is active, a timer signal every TICK_INTERVAL_S runs a
tick: about a millisecond of what the solver's kernels do in the interpreter
(schoolbook products of big-integer and word-size coefficient lists,
reductions modulo a large odd number and a 61-bit prime), without using the
program.  ``now()`` excludes the ticks' own time, so spans and solve times
measured with it are the program's alone.  A time from ``start`` to ``end``
is scaled by the host's mean speed over that interval, taken from the ticks
in it (at least the last MIN_TICKS ticks; MIN_TICKS run on entry, so there
always are).  The ticks sample time evenly, and work done is time times
speed, so the mean speed is the mean of 1 / tick duration: the harmonic
mean of the durations, not their mean, which overweights slow spells by an
amount that depends on how often the host is slow.

    reference seconds = seconds * TICK_REFERENCE_S / harmonic mean tick duration

A faster program lowers the scaled time; a slower host slows the ticks with
it.
"""

import random
import signal
import statistics
import time

# Duration of one tick in quiet spells of the 2-vCPU Xeon virtual machine
# the benchmark was sized on (Python 3.11); it only fixes the unit.
TICK_REFERENCE_S = 0.00125
TICK_INTERVAL_S = 0.05
MIN_TICKS = 10

_rng = random.Random(20010101)
_BIG_A = [_rng.getrandbits(400) for _ in range(48)]
_BIG_B = [_rng.getrandbits(400) for _ in range(48)]
_BIG_M = _rng.getrandbits(900) | 1
_WORDS = [_rng.getrandbits(30) for _ in range(48)]
_WORD_P = 2**61 - 1


def _tick_work():
    size = len(_BIG_A) + len(_BIG_B) - 1
    big = [0] * size
    for i, a in enumerate(_BIG_A):
        for j, b in enumerate(_BIG_B):
            big[i + j] += a * b
    check = sum(c % _BIG_M for c in big)
    small = [0] * size
    for i, a in enumerate(_WORDS):
        for j, b in enumerate(_WORDS):
            small[i + j] = (small[i + j] + a * b) % _WORD_P
    return check ^ sum(small)


class HostClock:
    """A clock that leaves out its own ticks, and the host speed they saw."""

    def __init__(self):
        self.busy = 0.0  # seconds spent in ticks so far
        self.ticks = []  # (now() when the tick ran, tick seconds)
        self._previous = None

    def __enter__(self):
        for _ in range(MIN_TICKS):
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def now(self):
        return time.perf_counter() - self.busy

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _tick_work()
        seconds = time.perf_counter() - start
        self.ticks.append((start - self.busy, seconds))
        self.busy += seconds

    def scale(self, start, end):
        """Reference seconds per second over ``start``..``end`` (``now()``)."""
        inside = [s for t, s in self.ticks if start <= t <= end]
        if len(inside) < MIN_TICKS:
            inside = [s for t, s in self.ticks if t <= end][-MIN_TICKS:]
        return TICK_REFERENCE_S / statistics.harmonic_mean(inside)
