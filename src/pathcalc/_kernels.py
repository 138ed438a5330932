"""Prefix-sum kernels over time grids.

Every kernel accumulates sequentially along time (numpy's cumsum adds in
order), so a prefix row depends only on the rows before it and each result
is reproducible bit for bit.  numpy sums over a trailing axis are pairwise,
not sequential, so the kernels that reduce over the d components add them
one at a time instead.
"""

import numpy as np


def _steps(t, v):
    """Time steps of t, shaped to scale v's trailing axes."""
    return np.diff(t).reshape((-1,) + (1,) * (v.ndim - 1))


def trapezoid_prefix(t, v):
    """Cumulative trapezoid integral of samples v over times t.

    t: (n,), v: (n, ...).  Returns v's shape with row j = integral over
    [t0, tj].
    """
    out = np.zeros_like(v)
    if len(t) > 1:
        seg = 0.5 * (v[:-1] + v[1:]) * _steps(t, v)
        np.cumsum(seg, axis=0, out=out[1:])
    return out


def left_prefix(t, v):
    """Cumulative left-rectangle integral; exact for cadlag step paths.

    t: (n,), v: (n, ...); the result has v's shape.
    """
    out = np.zeros_like(v)
    if len(t) > 1:
        seg = v[:-1] * _steps(t, v)
        np.cumsum(seg, axis=0, out=out[1:])
    return out


def outer_increment_prefix(dx):
    """Running sums of increment outer products.

    dx: (n, d) increments.  Returns (n+1, d, d); row i is sum over the first
    i increments of dx_j dx_j^T.
    """
    n, d = dx.shape
    out = np.zeros((n + 1, d, d))
    if n:
        prods = dx[:, :, None] * dx[:, None, :]
        np.cumsum(prods, axis=0, out=out[1:])
    return out


def dot_increment_prefix(g, dx):
    """Running sums of <g_i, dx_i>.

    g, dx: (n, d).  Returns (n+1,); row i sums the first i terms.
    """
    n, d = g.shape
    out = np.zeros(n + 1)
    if n:
        terms = g[:, 0] * dx[:, 0]
        for k in range(1, d):
            terms = terms + g[:, k] * dx[:, k]
        np.cumsum(terms, out=out[1:])
    return out


def quad_form_prefix(h, dx):
    """Running sums of dx_i^T h_i dx_i for per-step matrices h.

    h: (n, d, d), dx: (n, d).  Returns (n+1,).
    """
    n, d = dx.shape
    out = np.zeros(n + 1)
    if n:
        terms = np.zeros(n)
        for a in range(d):
            for b in range(d):
                terms = terms + h[:, a, b] * dx[:, a] * dx[:, b]
        np.cumsum(terms, out=out[1:])
    return out
