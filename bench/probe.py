"""Machine-speed probe for scaling times to the reference machine.

The host the benchmark runs on is shared: over minutes its speed swings
by up to 2x (one solve job took 0.134-0.226 s within 150 s), while the
ratio of that job's time to this probe's stayed within about 10%.  The
probe mixes the operations lindisc spends its time in, without calling
lindisc: numpy gathers and modular arithmetic on a (161, 32, 1) int64
array like the dense engine's, small-object churn like the series and
field layers', and Fraction arithmetic like the valuation code.  It
runs with the garbage collector off, after a full collection: the worker
has lindisc loaded, and a collection inside the probe would walk
lindisc's live objects, so the probe's time (and every time scaled by
it) would move with the size of lindisc's heap.  Without collections it
depends on the host alone.

A time t measured next to a probe run of p seconds is reported as
t * PROBE_REF_S / p: seconds at the reference machine's speed.
"""

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

# the probe's time on the reference machine (2-core Intel Xeon, Python
# 3.11, numpy 2.4) while it runs fast
PROBE_REF_S = 0.0135
REPEATS = 3

_rng = np.random.default_rng(0)
_DATA = _rng.integers(0, 3, size=(161, 32, 1))
_INDEX = _rng.integers(0, 32, size=(161, 32, 1))


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _once():
    t0 = perf_counter()
    a = _DATA
    for _ in range(40):
        g = np.take_along_axis(a, _INDEX, axis=1)
        g = np.where(_INDEX > 3, g, 0)
        a = (a + g * 2) % 3
    cells = []
    for i in range(6000):
        c = _Cell(i, (i * 7) % 11)
        cells.append(_Cell(c.a + c.b, tuple(x % 5 for x in (c.a, c.b, i))))
    f = Fraction(1, 3)
    for i in range(1500):
        f = (f + Fraction(i, 7)) % 5
    return perf_counter() - t0


def probe():
    """Fastest of REPEATS probe runs, in seconds, with no garbage
    collection inside them."""
    gc.collect()
    gc.disable()
    try:
        return min(_once() for _ in range(REPEATS))
    finally:
        gc.enable()
