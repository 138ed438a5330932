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
many consecutive substreams into one array by resetting a single generator's
counter per row; row ``r`` equals substream ``first + r`` bit for bit, so
simulating paths in blocks changes no draw.  scipy, which supplies the
inverse CDF, is imported on the first normal draw, so importing pathcalc
does not load it.
"""

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError

# half of the 53-bit uniform lattice spacing, and the largest double below 1
_HALF_ULP = 2.0 ** -54
_TOP = 1.0 - 2.0 ** -53
_WORD = 2 ** 64


def _key(seed):
    seed = int(seed)
    if not 0 <= seed < 2 ** 128:
        raise ConfigError(f"seed must be in [0, 2**128), got {seed}")
    return seed


def _shift(u):
    """Lattice uniforms in [0, 1) moved into (0, 1), in place."""
    u += _HALF_ULP
    return np.minimum(u, _TOP, out=u)


def substream(seed, index):
    """Generator for substream ``index`` of the family keyed by ``seed``."""
    if index < 0:
        raise ConfigError("substream index must be nonnegative")
    return Generator(Philox(key=_key(seed), counter=int(index) << 128))


def uniforms(seed, index, n):
    """n uniforms in (0,1) from the given substream, shifted off 0."""
    return _shift(substream(seed, index).random(int(n)))


def normal_block(seed, first, count, shape):
    """Standard normals of substreams first .. first+count-1, one per row.

    Returns a (count, *shape) array whose row r equals
    ``normals(seed, first + r, shape)`` bit for bit.
    """
    from scipy.special import ndtri
    shape = tuple(np.atleast_1d(shape).astype(int)) if not np.isscalar(shape) else (int(shape),)
    first, count = int(first), int(count)
    if first < 0 or first + count > 2 ** 128:
        raise ConfigError("substream indices must lie in [0, 2**128)")
    bitgen = Philox(key=_key(seed))
    gen = Generator(bitgen)
    state = bitgen.state
    u = np.empty((count, int(np.prod(shape))))
    for r, row in enumerate(u):
        # the state a fresh Philox(key=seed, counter=i << 128) starts in
        i = first + r
        state["state"]["counter"] = np.array([0, 0, i % _WORD, i // _WORD],
                                             dtype=np.uint64)
        state["buffer_pos"] = 4
        bitgen.state = state
        gen.random(out=row)
    return ndtri(_shift(u)).reshape((count,) + shape)


def normals(seed, index, shape):
    """Standard normal draws of the given shape via the inverse CDF."""
    return normal_block(seed, index, 1, shape)[0]
