"""Discrete change-of-variable sums along partition sequences.

Everything is a finite sum over a partition snapped to the path's own grid:
quadratic covariation as running outer products of increments, left-point
partition integrals, the second-order functional update whose defect
`ito_residual` measures, and the midpoint-form integral `stratonovich`
derived from the left-point one by adding half the discrete covariation
(so value - ito == 0.5 * covariation holds bit for bit).

Partitions never interpolate: each requested time moves to the nearest path
knot, and a partition too fine for the path (two times landing on one knot,
or a snap displacement beyond half a cell) raises GridMismatchError.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from ._kernels import dot_increment_prefix, outer_increment_prefix, \
    quad_form_prefix
from .errors import ConfigError, DomainError, GridMismatchError
from .functionals import require_derivatives
from .paths import GridPath, LINEAR, grid_view

__all__ = [
    "PartitionSequence", "snap_partition", "QVMatrixPath",
    "quadratic_covariation", "partition_integral", "ItoDecomposition",
    "ito_residual", "StratonovichResult", "stratonovich_integral",
    "midpoint_sum", "polygonal", "brownian_path", "dyadic_subsample",
]

N_EXP_MAX = 24          # brownian_path holds at most 2**24 values
_TINY = np.finfo(float).tiny    # the smallest normal float


class PartitionSequence:
    """Family of refining partitions of [0, horizon], indexed by level.

    kind 'dyadic': level n has 2^n equal cells.  kind 'uniform': level n has
    n cells (n >= 1).  kind 'custom': pass `grids`, a list of arrays in
    refining order; meshes must decrease strictly.
    """

    def __init__(self, horizon=1.0, kind="dyadic", grids=None):
        self.horizon = float(horizon)
        self.kind = kind
        if self.horizon <= 0:
            raise DomainError("horizon must be positive")
        if kind == "custom":
            if not grids:
                raise DomainError("custom partitions need grids")
            self._grids = []
            meshes = []
            for g in grids:
                g = np.asarray(g, dtype=float)
                if g.ndim != 1 or len(g) < 2 or not np.all(np.diff(g) > 0):
                    raise DomainError("each grid must be strictly increasing")
                if g[0] != 0.0 or g[-1] != self.horizon:
                    raise DomainError("each grid must run 0 to horizon")
                self._grids.append(g)
                meshes.append(np.diff(g).max())
            if not all(a > b for a, b in zip(meshes, meshes[1:])):
                raise DomainError("meshes must decrease strictly")
        elif kind in ("dyadic", "uniform"):
            self._grids = None
        else:
            raise DomainError(f"unknown partition kind {kind!r}")

    def grid(self, level):
        level = int(level)
        if self.kind == "dyadic":
            if level < 0:
                raise DomainError("dyadic level must be >= 0")
            return np.linspace(0.0, self.horizon, 2 ** level + 1)
        if self.kind == "uniform":
            if level < 1:
                raise DomainError("uniform level must be >= 1")
            return np.linspace(0.0, self.horizon, level + 1)
        if not 0 <= level < len(self._grids):
            raise DomainError(f"custom sequence has {len(self._grids)} grids")
        return self._grids[level]

    def mesh(self, level):
        return float(np.diff(self.grid(level)).max())


def snap_partition(times, path):
    """Snap partition times to the path's knots; (times, values).

    Values come from evaluating the path at its own knots, so they are the
    stored node data in either interpolation mode.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2 or not np.all(np.diff(times) > 0):
        raise DomainError("partition must be strictly increasing, >= 2 times")
    if times[0] < 0.0 or times[-1] > path.horizon * (1 + 1e-12):
        raise DomainError("partition leaves [0, horizon]")
    knots = np.asarray(path.knots())
    # a grid path's knots are its segment's nodes, which locate many times
    # without a search
    if isinstance(path, GridPath):
        lo = path.seg.locate(times)
    else:
        lo = knots.searchsorted(times, side="right") - 1
    # the knots lo at or before each time and pos after it; a time on a knot
    # is its own nearest from either side, so pos may pass it
    pos = np.clip(lo + 1, 1, len(knots) - 1)
    left = knots[pos - 1]
    right = knots[pos]
    idx = np.where(times - left <= right - times, pos - 1, pos)
    snapped = knots[idx]
    disp = np.abs(snapped - times)
    cell = right - left
    bad = disp > 0.5 * cell
    if np.any(bad):
        k = int(np.argmax(bad))
        raise GridMismatchError(
            f"time {times[k]!r} snaps {disp[k]:g} away, beyond half the "
            f"local cell {cell[k]:g}")
    if np.any(np.diff(idx) <= 0):
        k = int(np.argmax(np.diff(idx) <= 0))
        raise GridMismatchError(
            f"times {times[k]!r} and {times[k + 1]!r} snap to one knot "
            f"{snapped[k]!r}; partition finer than the path grid")
    return snapped, path.eval(snapped)


class QVMatrixPath:
    """Running quadratic covariation matrices along a partition.

    times: (m,), matrices: (m, d, d); matrices[k] sums the outer products
    of the first k increments, so matrices[0] is zero and the increments
    property recovers exact additivity over subintervals.
    """

    def __init__(self, times, matrices):
        self.times = times
        self.matrices = matrices

    @property
    def dim(self):
        return self.matrices.shape[1]

    def final(self):
        return self.matrices[-1]

    def component(self, i=0, j=0):
        return self.matrices[:, i, j]

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.matrices).min())

    def __len__(self):
        return len(self.times)


def quadratic_covariation(x, times):
    """QV matrix path of x along the snapped partition."""
    tau, v = snap_partition(times, x)
    dx = np.diff(v, axis=0)
    return QVMatrixPath(tau, outer_increment_prefix(dx))


def partition_integral(G, x, times):
    """Left-point sum of <G(t_j, x), x(t_{j+1}) - x(t_j)>."""
    tau, v = snap_partition(times, x)
    dx = np.diff(v, axis=0)
    g = G.eval_many(tau[:-1], x)
    if g.shape != dx.shape:
        raise DomainError(f"integrand is {g.shape[1]}-dimensional, "
                          f"path is {dx.shape[1]}")
    return float(dot_increment_prefix(g, dx)[-1])


@dataclass
class ItoDecomposition:
    """Second-order discrete update of F along one partition.

    residual = F(T) - F(0) - time_term - space_term - quad_term; for F
    quadratic in the path values it vanishes up to roundoff on any
    partition, and for smooth F on diffusion-like paths it shrinks with
    the mesh.
    """

    times: np.ndarray
    delta: float
    time_term: float
    space_term: float
    quad_term: float

    @property
    def residual(self):
        return self.delta - self.time_term - self.space_term - self.quad_term

    @property
    def scale(self):
        return max(1.0, abs(self.delta), abs(self.time_term),
                   abs(self.space_term), abs(self.quad_term))


def ito_residual(F, x, times):
    """Evaluate the discrete functional update of F along a partition.

    F must carry partial_t, grad and hess; the time term uses left-point
    rectangles, the space and quadratic terms left-point coefficients, all
    summed in fixed order.
    """
    require_derivatives(F)
    tau, v = snap_partition(times, x)
    dx = np.diff(v, axis=0)
    dtau = np.diff(tau)
    delta = F.eval(tau[-1], x) - F.eval(tau[0], x)
    pt = F.partial_t.eval_many(tau[:-1], x)
    time_term = float(dot_increment_prefix(pt[:, None], dtau[:, None])[-1])
    grads = F.grad.eval_many(tau[:-1], x)
    space_term = float(dot_increment_prefix(grads, dx)[-1])
    hess = F.hess.eval_many(tau[:-1], x)
    quad_term = 0.5 * float(quad_form_prefix(hess, dx)[-1])
    return ItoDecomposition(tau, float(delta), time_term, space_term,
                            quad_term)


@dataclass
class StratonovichResult:
    """Midpoint-form integral split into its left-point and bracket parts.

    value = ito + 0.5 * covariation exactly as floats: the midpoint form is
    defined through this identity rather than summed separately.
    """

    value: float
    ito: float
    covariation: float


def stratonovich_integral(G, x, times):
    """Midpoint-form partition integral of G against dx."""
    tau, v = snap_partition(times, x)
    dx = np.diff(v, axis=0)
    g = G.eval_many(tau, x)
    if g.shape[1] != dx.shape[1]:
        raise DomainError(f"integrand is {g.shape[1]}-dimensional, "
                          f"path is {dx.shape[1]}")
    ito = float(dot_increment_prefix(g[:-1], dx)[-1])
    cov = float(dot_increment_prefix(np.diff(g, axis=0), dx)[-1])
    return StratonovichResult(ito + 0.5 * cov, ito, cov)


def midpoint_sum(G, x, times):
    """Direct averaged-endpoint sum; agrees with stratonovich_integral up
    to roundoff and serves as its independent cross-check."""
    tau, v = snap_partition(times, x)
    dx = np.diff(v, axis=0)
    g = G.eval_many(tau, x)
    gm = 0.5 * (g[:-1] + g[1:])
    return float(dot_increment_prefix(gm, dx)[-1])


def polygonal(x, times):
    """Piecewise-linear interpolant of x through the snapped partition."""
    tau, v = snap_partition(times, x)
    if tau[0] != 0.0:
        raise DomainError("polygonal approximant must start at 0")
    return GridPath(tau, v, LINEAR)


def brownian_path(seed, index, n_exp=16, horizon=1.0, dim=1):
    """Standard Brownian motion sampled on 2**n_exp uniform steps.

    Increments come from the (seed, index) substream, so path `index` is
    the same no matter which other paths were drawn before it.  Dyadic
    sub-levels of the returned grid are exact subsets of its times.
    """
    n_exp, dim = int(n_exp), int(dim)   # checked before allocating
    if not (0 <= n_exp <= N_EXP_MAX and 1 <= dim <= 2 ** (N_EXP_MAX - n_exp)):
        raise ConfigError(f"need n_exp >= 0, dim >= 1 and dim * 2**n_exp <= "
                          f"2**{N_EXP_MAX}; got n_exp={n_exp}, dim={dim}")
    horizon = float(horizon)
    n = 2 ** n_exp
    dt = horizon / n
    # i * dt rises strictly from 0 to the horizon when dt is a normal float;
    # a subnormal step can round two times together, so it is checked
    t = np.linspace(0.0, horizon, n + 1) if 0.0 < horizon < np.inf else None
    if t is None or not (dt >= _TINY or np.all(np.diff(t) > 0)):
        raise ConfigError(f"horizon={horizon!r} with n_exp={n_exp} gives "
                          f"no strictly rising grid of 2**n_exp steps")
    # the values are finite for every finite horizon, so the grid is valid
    # by construction and needs no check or copy
    v = np.zeros((n + 1, dim))
    z = rng.normals(seed, index, (n, dim)) * np.sqrt(dt)
    np.cumsum(z, axis=0, out=v[1:])
    return grid_view(t, v, LINEAR)


def dyadic_subsample(path, level, n_exp=None):
    """Times of the level-`level` dyadic partition as an exact subset of a
    dyadically sampled path's knots."""
    knots = np.asarray(path.knots())
    if n_exp is None:
        n_exp = int(round(np.log2(len(knots) - 1)))
    if 2 ** n_exp + 1 != len(knots):
        raise GridMismatchError(f"path has {len(knots)} knots, "
                                f"not 2**{n_exp} + 1")
    level = int(level)
    if not 0 <= level <= n_exp:
        raise DomainError(f"level must lie in [0, {n_exp}]")
    return knots[:: 2 ** (n_exp - level)]
