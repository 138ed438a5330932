"""The reference block that scales every reported time to one machine speed.

The shared host this benchmark runs on changes speed by up to 1.7x between
runs a few seconds apart, and by tens of percent for minutes at a time,
because other machines' load shares its cores and caches.  No choice of
fastest or median time removes a slow stretch that covers a whole run.  So
run.py times this fixed block, which does not call pathcalc, right after
every unit and in every set-up probe, and reports

    time x REF_S / (time of the reference block next to it)

in seconds: the time the work would take on a machine that runs the block
in REF_S.  The block mixes what the workloads do (interpreted loops, small
objects, many small numpy calls and one pass over a 256 KiB array), so a
slow stretch slows it by about the same share as it slows them.  A change
to pathcalc changes the scaled times; the block itself does not change.
"""

from time import perf_counter

import numpy as np

# nominal time of one block: on a 2-CPU shared host (Intel Xeon, CPython
# 3.11) it took 0.79 ms at the fastest and 1.36 ms in a slow stretch
REF_S = 1e-3

_SMALL = np.linspace(0.0, 1.0, 64)
_LARGE = np.linspace(0.0, 1.0, 1 << 15)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _block():
    acc = 0
    for i in range(3000):
        acc += i * i
    table = {}
    for i in range(600):
        table[i] = _Pair(i, (i, i + 1)).b
    for _ in range(60):
        x = _SMALL * 2.0 + 1.0
        np.searchsorted(np.cumsum(x), 3.0)
        np.concatenate([_SMALL[:5], x[5:]])
    return acc + len(table) + float(np.cumsum(_LARGE * _LARGE)[-1])


def reference_s():
    """Seconds one reference block takes now."""
    t0 = perf_counter()
    _block()
    return perf_counter() - t0
