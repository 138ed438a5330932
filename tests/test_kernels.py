"""The numpy prefix kernels must equal plain sequential loops bit for bit."""

import numpy as np
import pytest

from pathcalc import _kernels

# ---------------------------------------------------------------------------
# sequential oracles: one addition at a time, in time order


def _trapezoid_prefix_loop(t, v):
    n, d = v.shape
    out = np.zeros((n, d))
    for j in range(1, n):
        dt = t[j] - t[j - 1]
        for k in range(d):
            out[j, k] = out[j - 1, k] + 0.5 * (v[j - 1, k] + v[j, k]) * dt
    return out


def _left_prefix_loop(t, v):
    n, d = v.shape
    out = np.zeros((n, d))
    for j in range(1, n):
        dt = t[j] - t[j - 1]
        for k in range(d):
            out[j, k] = out[j - 1, k] + v[j - 1, k] * dt
    return out


def _outer_increment_prefix_loop(dx):
    n, d = dx.shape
    out = np.zeros((n + 1, d, d))
    for i in range(n):
        for a in range(d):
            for b in range(d):
                out[i + 1, a, b] = out[i, a, b] + dx[i, a] * dx[i, b]
    return out


def _dot_increment_prefix_loop(g, dx):
    n, d = g.shape
    out = np.zeros(n + 1)
    for i in range(n):
        s = g[i, 0] * dx[i, 0]
        for k in range(1, d):
            s = s + g[i, k] * dx[i, k]
        out[i + 1] = out[i] + s
    return out


def _quad_form_prefix_loop(h, dx):
    n, d = dx.shape
    out = np.zeros(n + 1)
    for i in range(n):
        s = 0.0
        for a in range(d):
            for b in range(d):
                s = s + h[i, a, b] * dx[i, a] * dx[i, b]
        out[i + 1] = out[i] + s
    return out


ORACLES = {
    "trapezoid_prefix": _trapezoid_prefix_loop,
    "left_prefix": _left_prefix_loop,
    "outer_increment_prefix": _outer_increment_prefix_loop,
    "dot_increment_prefix": _dot_increment_prefix_loop,
    "quad_form_prefix": _quad_form_prefix_loop,
}


def _sample_inputs(name, rng, n=403, d=3):
    t = np.sort(rng.uniform(0.0, 2.0, n))
    t[:1] = 0.0
    v = rng.normal(size=(n, d))
    if name in ("trapezoid_prefix", "left_prefix"):
        return (t, v)
    dx = rng.normal(size=(n, d))
    if name == "outer_increment_prefix":
        return (dx,)
    if name == "dot_increment_prefix":
        return (rng.normal(size=(n, d)), dx)
    if name == "quad_form_prefix":
        h = rng.normal(size=(n, d, d))
        return (h + np.swapaxes(h, 1, 2), dx)
    raise AssertionError(name)


def _assert_matches_oracle(name, args):
    a = getattr(_kernels, name)(*args)
    b = ORACLES[name](*args)
    assert a.shape == b.shape
    # same accumulation order, so equality is exact, not approximate
    assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_numba_matches_numpy_bitwise(name, rng):
    # the numpy kernel against its sequential loop on random inputs
    for _ in range(5):
        _assert_matches_oracle(name, _sample_inputs(name, rng))


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_kernels_empty_and_single(name, rng):
    for n in (0, 1, 2):
        for d in (1, 3):
            _assert_matches_oracle(name, _sample_inputs(name, rng, n, d))


def test_trapezoid_prefix_known_value():
    t = np.array([0.0, 0.5, 1.0])
    v = np.array([[0.0], [0.5], [1.0]])
    out = _kernels.trapezoid_prefix(t, v)
    assert out[0, 0] == 0.0
    assert out[1, 0] == 0.125
    assert out[2, 0] == 0.5
