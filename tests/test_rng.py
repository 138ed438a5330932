"""Substream independence and reproducibility of the counter-based generator."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import Generator, Philox
from scipy.special import ndtri

import pathcalc.rng as rng_module
from pathcalc import ConfigError, brownian_path
from pathcalc.rng import normal_block, normals, substream


def test_substream_reproducible():
    a = substream(7, 3).standard_normal(16)
    b = substream(7, 3).standard_normal(16)
    assert np.array_equal(a, b)


def test_substream_order_independent():
    # drawing stream 5 after touching streams 0..4 changes nothing
    direct = normals(11, 5, (64,))
    for i in range(5):
        normals(11, i, (8,))
    again = normals(11, 5, (64,))
    assert np.array_equal(direct, again)


def test_distinct_indices_distinct_draws():
    a = normals(3, 0, (32,))
    b = normals(3, 1, (32,))
    assert not np.array_equal(a, b)


def test_distinct_seeds_distinct_draws():
    a = normals(3, 0, (32,))
    b = normals(4, 0, (32,))
    assert not np.array_equal(a, b)


def _drawing(u):
    """A Generator class that draws only the lattice uniform u."""

    class Lattice(Generator):
        def random(self, size=None, dtype=np.float64, out=None):
            if out is None:
                return np.full(size, u)
            out[...] = u
            return out

    return Lattice


def test_top_lattice_point_stays_below_one(monkeypatch):
    # the top point, 1 - 2**-53, plus half a spacing is a tie that rounds to
    # 1.0, where ndtri is inf; the bottom point, 0.0, would give -inf
    for u, shifted in ((1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53),
                       (0.0, 2.0 ** -54)):
        monkeypatch.setattr(rng_module, "Generator", _drawing(u))
        z = normal_block(5, 0, 2, (3,))
        assert np.all(np.isfinite(z))
        assert np.all(z == ndtri(shifted))
        assert np.array_equal(normals(5, 1, (3,)), z[0])


def test_normals_shape_and_moments():
    z = normals(123, 0, (200, 50))
    assert z.shape == (200, 50)
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# block draws: one row per substream, bit for bit


@pytest.mark.parametrize("index", [0, 5, 2 ** 32 + 1, 2 ** 64 - 1, 2 ** 64 + 5])
def test_normal_block_rows_equal_substreams(index):
    # the block straddles index, so 2**64 - 1 also crosses a counter word
    first = max(index - 1, 0)
    block = normal_block(9, first, 3, (7, 2))
    assert block.shape == (3, 7, 2)
    for r in range(3):
        u = substream(9, first + r).random(14) + 2.0 ** -54
        assert np.array_equal(block[r], ndtri(u).reshape(7, 2))
    assert np.array_equal(normals(9, index, (7, 2)), block[index - first])


@pytest.mark.parametrize("draw", [
    lambda: substream(-1, 0),
    lambda: normals(-1, 0, (4,)),
    lambda: normal_block(-1, 0, 2, (4,)),
    lambda: normal_block(2 ** 128, 0, 2, (4,)),
    lambda: substream(1, -1),
    lambda: normal_block(1, -1, 2, (4,)),
    lambda: normal_block(1, 2 ** 128 - 1, 2, (4,)),
])
def test_out_of_range_seed_or_index_is_a_config_error(draw):
    with pytest.raises(ConfigError):
        draw()


# seeds with both 64-bit key words set, blocks that straddle index 2**64 or
# end at 2**128 - 1, and rows that are not a whole number of Philox outputs
@settings(max_examples=40, deadline=None)
@given(seed=st.sampled_from([2 ** 64 + 3, 2 ** 128 - 1])
       | st.integers(0, 2 ** 128 - 1),
       edge=st.sampled_from([0, 2 ** 64, 2 ** 128]),
       back=st.integers(0, 4), count=st.integers(1, 4),
       n=st.sampled_from([1, 7, 13]))
@example(seed=2 ** 64 + 3, edge=2 ** 64, back=2, count=4, n=7)
@example(seed=2 ** 128 - 1, edge=2 ** 128, back=0, count=3, n=13)
@example(seed=2 ** 128 - 1, edge=2 ** 64, back=1, count=2, n=1)
def test_block_rows_equal_fresh_philox_streams(seed, edge, back, count, n):
    first = min(max(edge - back, 0), 2 ** 128 - count)
    block = normal_block(seed, first, count, (n,))
    assert block.shape == (count, n)
    for r in range(count):
        fresh = Generator(Philox(key=seed, counter=(first + r) << 128))
        u = np.minimum(fresh.random(n) + 2.0 ** -54, 1.0 - 2.0 ** -53)
        assert block[r].tobytes() == ndtri(u).tobytes()


@pytest.mark.parametrize("draw, name", [
    (lambda: normals(1, 0, (-3,)), "shape"),
    (lambda: normal_block(1, 0, -2, (3,)), "count"),
    (lambda: substream(1, 2 ** 128), "substream ind"),
    (lambda: normals(1, 0, 2.5), "shape"),
    (lambda: brownian_path(1, 0, n_exp=2.5), "n_exp"),
    (lambda: normals(1, 0, (2 ** 70,)), "count 1 times shape"),
    (lambda: normal_block(1, 0, 2, (2 ** 23 + 1,)), "count 2 times shape"),
], ids=["negative_shape", "negative_count", "index_past_2_128",
        "fractional_shape", "fractional_n_exp", "draw_past_2_70",
        "block_past_2_24"])
def test_bad_draw_sizes_are_config_errors_naming_them(draw, name):
    with pytest.raises(ConfigError, match=f"^{name}"):
        draw()


def test_whole_float_sizes_draw_as_ints():
    assert np.array_equal(normals(1, 0, 4.0), normals(1, 0, 4))
    assert np.array_equal(normal_block(1, 0, 2.0, (3,)),
                          normal_block(1, 0, 2, (3,)))
