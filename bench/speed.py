"""The machine's speed, measured next to every timed item.

The host this benchmark was built on gives its vCPUs to other tenants too,
and a pure-Python loop runs at one of two speeds about 1.5x apart, switching
every second or so and staying slow for minutes at a time.  A run's wall
times follow that: four back-to-back 15-s tori runs gave 72.8, 76.8, 59.5
and 63.8 items/s.

So the benchmark brackets every timed item with ``reference()``, a
fixed 0.5-ms pure-Python computation (exact fractions and a dict, like the
program), and scales its wall time by ``REFERENCE_S`` over the mean of the
two reference times around it.  A time is then the wall time the item
would have taken at the speed at which the reference takes ``REFERENCE_S``:
about this host at full speed.  Over ten seeds this cut the spread of
tori's items_per_s from 11% to 2.4%.  A change to the program moves the
item and not the reference, so it shows in full.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# wall seconds of one _kernel() call at full speed on the reference host
# (2-vCPU Xeon VM, Python 3.11.7); only a unit, the same for every commit
REFERENCE_S = 0.0005


def _kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 200):
        acc += Fraction(i, i + 3)
        table[(i, i % 7)] = acc.numerator % 97
    return acc


def reference():
    """Wall seconds of one fixed computation, now.

    One untimed call first, so that the timed ones find the interpreter's
    caches warm whatever the program left in them, then the faster of two
    timed calls; no collection runs inside.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def scaled(seconds, ref_before, ref_after):
    """Wall seconds at reference speed, given the references around them."""
    return seconds * REFERENCE_S * 2 / (ref_before + ref_after)
