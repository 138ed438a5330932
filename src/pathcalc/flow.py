"""Path-dependent flows: y' (t) = gamma(t, y restricted to [0, t]).

`solve_flow` extends a path from s by windowed Picard iteration: the window
length is capped at 1/(2K) for the field's declared Lipschitz constant K, so
each sweep contracts by at least 1/2 in the sup norm.  Sweep integrals use
trapezoid quadrature on the solver grid (the fixed point is the implicit
trapezoid scheme, second order).  `euler_flow` is the deliberately simple
first-order oracle: one explicit left-point pass, no iteration, kept
independent so the two routes can check each other.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ConfigError, DomainError, FlowIterationError
from .functionals import DirectionField
from .paths import CADLAG, LINEAR, PathBase, SplicedPath, splice_view, stop

_DIVERGENCE_CAP = 1e12


@dataclass
class FlowSolution:
    """Solved flow: the extended path plus solver provenance."""

    path: PathBase
    start: float
    until: float
    direction: DirectionField
    substep: float
    picard_tol: float
    grid: np.ndarray
    values: np.ndarray
    iterations: list = field(default_factory=list)
    quadrature: str = "trapezoid"

    def residual(self, ts=None):
        """|Y(t) - Y(s) - integral of gamma along Y| at the given times
        (solver grid by default), using the solver's own quadrature."""
        at_grid = ts is None
        ts = self.grid if at_grid else np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < self.start or ts.max() > self.until):
            raise DomainError("residual times must lie in [start, until]")
        g = self.direction.eval_many(self.grid, self.path)
        # the field on the solver grid as a segment from start: its node
        # prefix is the quadrature's, and left rectangles are its integral
        mode = LINEAR if self.quadrature == "trapezoid" else CADLAG
        quad = splice_view(self.path, self.start, self.grid, g, mode).seg
        if mode == CADLAG:
            part = quad.integral(ts)
        else:
            idx = quad.locate(ts)
            g_ts = g if at_grid else self.direction.eval_many(ts, self.path)
            part = quad.node_prefix()[idx] + (ts - self.grid[idx])[:, None] \
                * 0.5 * (g[idx] + g_ts)
        gap = self.path.eval(ts) - (self.values[0] + part)
        return np.abs(gap).max(axis=1)

    @property
    def tol_residual(self):
        # iteration bound plus float accumulation over the grid
        scale = float(np.abs(self.values).max()) + 1.0
        fp = 4e-16 * scale * max(len(self.grid), 1)
        return max(10.0 * self.picard_tol, fp)


def _make_grid(s, until, substep, grid):
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 2:
            raise DomainError("explicit grid must be a 1-d array of at least "
                              f"2 times, not of shape {grid.shape}")
        if grid[0] != s or grid[-1] != until:
            raise DomainError("explicit grid must run from s to until")
        if not np.all(np.diff(grid) > 0):
            raise DomainError("grid times must be strictly increasing")
        return grid, float(np.diff(grid).max())
    span = until - s
    if substep is None:
        substep = span / 1024.0
    if not (substep > 0 and span / substep <= 2 ** 24):  # NaN fails too
        raise ConfigError("substep must be positive and give at most 2**24 "
                          f"steps, not {substep}")
    n = max(1, int(np.ceil(span / substep - 1e-12)))
    if not np.isfinite(span * n):
        raise ConfigError(f"span {span:g} times {n} steps overflows; the "
                          "grid needs span * steps below the largest float")
    grid = s + span * np.arange(n + 1) / n
    grid[0] = s
    grid[-1] = until
    return grid, span / n


def _window_runs(grid, cap):
    """Split the grid into index runs of span <= cap (with fp slack)."""
    runs = []
    i0 = 0
    last = len(grid) - 1
    slack = cap * (1 + 1e-9) if np.isfinite(cap) else np.inf
    while i0 < last:
        j = int(np.searchsorted(grid, grid[i0] + slack, side="right")) - 1
        j = min(max(j, i0), last)
        if j == i0:
            raise ConfigError(
                f"substep {grid[i0 + 1] - grid[i0]:g} is not below the "
                f"contraction window {cap:g}; refine the grid")
        runs.append((i0, j))
        i0 = j
    return runs


def _flow_path(w, s, grid, values):
    # a field that vanished along the whole extension gives the stopped
    # path itself, so downstream identities are exact
    if np.all(values == values[0]):
        return stop(w, s)
    return SplicedPath(w, s, grid, values, seg_mode=LINEAR)


def solve_flow(w, s, gamma, until=None, substep=None, window=None,
               picard_tol=1e-10, max_iters=100, grid=None):
    """Extend w past s by Picard iteration along the direction field.

    Returns a FlowSolution whose path equals w on [0, s] exactly, follows
    the solved extension on [s, until] (linear interpolation between solver
    grid points) and stays frozen at Y(until) afterwards.  A direction that
    evaluates to zero along the whole extension returns the stopped path
    itself, so the zero-field flow is exact.
    """
    s = float(s)
    until = w.horizon if until is None else float(until)
    if not 0.0 <= s <= w.horizon:
        raise DomainError(f"start {s} outside [0, {w.horizon}]")
    if not s <= until <= w.horizon:
        raise DomainError(f"until must lie in [{s}, {w.horizon}]")
    if gamma.dim_out != w.dim:
        raise DomainError("direction dimension does not match the path")
    if not picard_tol > 0:  # negated so that NaN is rejected too
        raise ConfigError("picard_tol must be positive")
    if max_iters < 1:
        raise ConfigError("max_iters must be at least 1")
    if s == until:
        g0 = np.array([s])
        v0 = w.eval(s)[None, :]
        return FlowSolution(stop(w, s), s, until, gamma, 0.0, picard_tol,
                            g0, v0, [])

    grid, mesh = _make_grid(s, until, substep, grid)
    K = gamma.lipschitz_K
    cap = 0.5 / K if K > 0 else np.inf
    if window is not None:
        if not window > 0:
            raise ConfigError("window must be positive")
        cap = min(cap, float(window))
    runs = _window_runs(grid, cap)

    n = len(grid)
    values = np.empty((n, w.dim))
    values[0] = w.eval(s)
    live = splice_view(w, s, grid, values, LINEAR)
    iterations = []

    for i0, i1 in runs:
        ts = grid[i0:i1 + 1]
        v0 = values[i0].copy()
        values[i0 + 1:i1 + 1] = v0
        live.seg.fill(i1 + 1)
        done = False
        for it in range(1, max_iters + 1):
            g = gamma.eval_many(ts, live)
            new = v0 + _kernels.trapezoid_prefix(ts, g)
            delta = float(np.abs(new - values[i0:i1 + 1]).max())
            values[i0:i1 + 1] = new
            if delta <= picard_tol:
                iterations.append(it)
                done = True
                break
            if not np.isfinite(delta) or delta > _DIVERGENCE_CAP:
                break
        if not done:
            partial = SplicedPath(w, s, grid[:i1 + 1], values[:i1 + 1],
                                  seg_mode=LINEAR)
            raise FlowIterationError(
                f"Picard did not contract to {picard_tol:g} within "
                f"{max_iters} sweeps on window [{ts[0]:g}, {ts[-1]:g}] "
                f"(last change {delta:g}); is the declared Lipschitz "
                f"constant {K:g} honest?",
                last_iterate=partial, sup_change=delta)

    return FlowSolution(_flow_path(w, s, grid, values), s, until, gamma,
                        mesh, picard_tol, grid, values, iterations)


def euler_flow(w, s, gamma, until=None, substep=None, grid=None):
    """First-order oracle: explicit left-point steps, no iteration.

    Independent of solve_flow on purpose; used to cross-check it.  Exact
    for constant fields.
    """
    s = float(s)
    until = w.horizon if until is None else float(until)
    if not 0.0 <= s <= until <= w.horizon:
        raise DomainError("need 0 <= s <= until <= horizon")
    if gamma.dim_out != w.dim:
        raise DomainError("direction dimension does not match the path")
    if s == until:
        return FlowSolution(stop(w, s), s, until, gamma, 0.0, 0.0,
                            np.array([s]), w.eval(s)[None, :], [])
    grid, mesh = _make_grid(s, until, substep, grid)
    n = len(grid)
    values = np.empty((n, w.dim))
    values[0] = w.eval(s)
    live = splice_view(w, s, grid, values, LINEAR)
    for j in range(n - 1):
        live.seg.fill(j + 1)
        gj = gamma.eval(grid[j], live)
        values[j + 1] = values[j] + (grid[j + 1] - grid[j]) * gj
    return FlowSolution(_flow_path(w, s, grid, values), s, until, gamma,
                        mesh, 0.0, grid, values, [1], quadrature="left")
