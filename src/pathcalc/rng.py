"""Deterministic random streams for Monte Carlo work.

Built on numpy's Philox counter-based generator: a master seed keys the
family, and substream ``i`` starts at counter offset ``i * 2**128``.  Streams
are therefore reproducible and order-independent: drawing from substream 5
before substream 3 yields the same numbers as the reverse order.

Normal variates come from the inverse CDF applied to 53-bit uniforms shifted
by 2**-54, so a normal stream is a deterministic function of (seed,
substream, position) alone.  Below 0.5 the shift lands on the lattice
midpoint; above it the sum is a tie that rounds to even, and the top point,
which would round to 1.0, is clamped to 1 - 2**-53.  ``normal_block`` draws
many consecutive substreams into one array with one generator per call: for
each row it writes the substream's counter into one state of plain ints and
sets it, so row ``r`` equals substream ``first + r`` bit for bit, and
simulating paths in blocks changes no draw.  scipy, which supplies the
inverse CDF, is imported on the first normal draw, so importing pathcalc
does not load it.

Seeds, indices, counts and shape entries are whole numbers: one that is
negative, fractional or not finite is a ConfigError naming it, and so is a
draw of more than 2**24 normals, raised before anything is drawn or
allocated.
"""

import math

import numpy as np
from numpy.random import Generator, Philox

from .errors import MAX_LOG2, ConfigError, require_count

# half of the 53-bit uniform lattice spacing, and the largest double below 1
_HALF_ULP = 2.0 ** -54
_TOP = 1.0 - 2.0 ** -53
_WORD = 2 ** 64
_STREAMS = 2 ** 128


def require_stream(name, value):
    """value as an int, or ConfigError naming it unless a whole number in
    [0, 2**128): a seed, the key of a stream family, or the index of one
    substream."""
    value = require_count(name, value)
    if value >= _STREAMS:
        raise ConfigError(f"{name} must be in [0, 2**128), got {value}")
    return value


def _streams(first, count):
    """Substreams first .. first+count-1, checked to lie in [0, 2**128)."""
    first = require_count("substream index", first)
    count = require_count("count", count)
    if first + count > _STREAMS:
        raise ConfigError("substream indices must lie in [0, 2**128)")
    return first, count


def _shift(u):
    """Lattice uniforms in [0, 1) moved into (0, 1), in place."""
    u += _HALF_ULP
    return np.minimum(u, _TOP, out=u)


def substream(seed, index):
    """Generator for substream ``index`` of the family keyed by ``seed``."""
    index, _ = _streams(index, 1)
    return Generator(Philox(key=require_stream("seed", seed),
                             counter=index << 128))


def normal_block(seed, first, count, shape):
    """Standard normals of substreams first .. first+count-1, one per row.

    Returns a (count, *shape) array whose row r equals
    ``normals(seed, first + r, shape)`` bit for bit.  One generator draws
    every row.  Before each, the row's counter goes into one state dict of
    plain ints, which numpy's state setter reads faster than arrays, and
    the generator is set to it: the state a fresh
    ``Philox(key=seed, counter=(first + r) << 128)`` starts in.
    """
    from scipy.special import ndtri
    key = require_stream("seed", seed)
    first, count = _streams(first, count)
    shape = tuple(require_count("shape", s) for s in np.atleast_1d(shape))
    if count * math.prod(shape) > 2 ** MAX_LOG2:
        raise ConfigError(f"count {count} times shape {shape} is more than "
                          f"2**{MAX_LOG2} normals")
    bitgen = Philox(key=key)
    gen = Generator(bitgen)
    counter = [0, 0, 0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": [key % _WORD, key // _WORD]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    u = np.empty((count, math.prod(shape)))
    for i, row in enumerate(u, first):
        counter[2], counter[3] = i % _WORD, i // _WORD
        bitgen.state = state
        gen.random(out=row)
    return ndtri(_shift(u), out=u).reshape((count,) + shape)


def normals(seed, index, shape):
    """Standard normal draws of the given shape via the inverse CDF."""
    return normal_block(seed, index, 1, shape)[0]
