"""Path-dependent flows: y' (t) = gamma(t, y restricted to [0, t]).

`solve_flow` extends a path from s by windowed Picard iteration: the window
length is capped at 1/(2K) for the field's declared Lipschitz constant K, so
each sweep contracts by at least 1/2 in the sup norm.  Sweep integrals use
trapezoid quadrature on the solver grid (the fixed point is the implicit
trapezoid scheme, second order).  `euler_flow` is the deliberately simple
first-order oracle: one pass of `euler_steps`, the recursion that fk's
simulation runs too, kept independent so the two routes check each other.
Both check their arguments once, in `_setup`, then run a core that trusts
them, `picard_flow` or `euler_steps`; inside the library only the cores
are called.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import MAX_LOG2, ConfigError, DomainError, \
    FlowIterationError, require_count, require_finite, require_finite_steps, \
    require_grid, require_shape, require_time, require_times
from .functionals import DirectionField, require_field
from .paths import LINEAR, PathBase, SplicedPath, require_path, \
    splice_copy, splice_view, stop

_DIVERGENCE_CAP = 1e12


@dataclass
class FlowSolution:
    """Solved flow: the extended path plus solver provenance.  Both solvers
    set it up alike; a flow from s to s runs their general route on the
    one-node grid [s], with iterations [] and w stopped at s as its path."""

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
        (solver grid by default), using the solver's own quadrature: one
        value per time of a 1-d ts, a float for one time."""
        at_grid = ts is None
        ts = self.grid if at_grid else require_times("ts", ts)
        if ts.ndim > 1:
            raise DomainError(f"ts must be one time or a 1-d array of "
                              f"times, not of shape {ts.shape}")
        t = np.atleast_1d(ts)
        out = ~((t >= self.start) & (t <= self.until))   # NaN is out
        if out.any():
            raise DomainError(f"ts must lie in [{self.start}, "
                              f"{self.until}], not {t[out][0]}")
        g = self.direction.eval_many(self.grid, self.path)
        # the quadrature's prefix at the last grid node at or before each
        # time, plus its rule over the rest of the step
        idx = self.grid.searchsorted(t, side="right") - 1
        rem = (t - self.grid[idx])[:, None]
        if self.quadrature == "trapezoid":
            # g is the direction at the grid; read again, it raised the
            # peak_rss_mb of partitions, whose checks call this, 95.49 ->
            # 97.29 MB, higher in 10 of 10 pairs (2 shared CPUs)
            g_ts = g if at_grid else self.direction.eval_many(t, self.path)
            part = _kernels.trapezoid_prefix(self.grid, g)[idx] \
                + rem * 0.5 * (g[idx] + g_ts)
        else:
            part = _kernels.left_prefix(self.grid, g)[idx] + rem * g[idx]
        gap = np.abs(self.path.eval(t) - (self.values[0] + part)).max(axis=1)
        return gap if ts.ndim else float(gap[0])

    @property
    def tol_residual(self):
        # iteration bound plus float accumulation over the grid
        scale = float(np.abs(self.values).max()) + 1.0
        fp = 4e-16 * scale * max(len(self.grid), 1)
        return max(10.0 * self.picard_tol, fp)


def _make_grid(s, until, substep, grid):
    if grid is not None:
        grid = require_grid("grid", grid, start=s, end=until)
        return grid, float(np.diff(grid).max())
    span = until - s
    if substep is None:
        substep = span / 1024.0 if span else 1.0   # s to s: any step
    elif not isinstance(substep, numbers.Real):
        substep = require_finite("substep", substep)   # text, None, a list
    # NaN fails too; inf would give one step of the whole span
    if not (0 < substep < np.inf and span / substep <= 2 ** MAX_LOG2):
        raise ConfigError("substep must be positive, finite and give at most "
                          f"2**{MAX_LOG2} steps, not {substep}")
    if not span:
        return np.array([s]), 0.0
    n = max(1, int(np.ceil(span / substep - 1e-12)))
    if not np.isfinite(span * n):
        raise ConfigError(f"span {span:g} times {n} steps overflows; the "
                          "grid needs span * steps below the largest float")
    grid = s + span * np.arange(n + 1) / n
    grid[0] = s
    grid[-1] = until
    return grid, span / n


def _setup(w, s, gamma, until, substep, grid):
    """Both solvers' (s, until, grid, mesh): w, gamma, s and until checked
    and the grid built by _make_grid."""
    require_path(w=w)
    require_shape("gamma", gamma, (w.dim,))
    s = require_time("s", s, w.horizon)
    until = w.horizon if until is None \
        else require_time("until", until, w.horizon)
    if until < s:
        raise DomainError(f"until must be at least s={s}, not {until}")
    return (s, until) + _make_grid(s, until, substep, grid)


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
    # a span too short for its steps repeats a node, which the checking
    # constructor refuses
    if not (grid[1:] > grid[:-1]).all():
        return SplicedPath(w, s, grid, values, seg_mode=LINEAR)
    return splice_copy(w, s, grid, values, LINEAR)


def solve_flow(w, s, gamma, until=None, substep=None, window=None,
               picard_tol=1e-10, max_iters=100, grid=None):
    """Extend w past s by Picard iteration along the direction field.

    Returns a FlowSolution whose path equals w on [0, s] exactly, follows
    the solved extension on [s, until] (linear interpolation between solver
    grid points) and stays frozen at Y(until) afterwards.  A direction that
    evaluates to zero along the whole extension returns the stopped path
    itself, so the zero-field flow is exact.
    """
    s, until, grid, mesh = _setup(
        w, s, require_field("gamma", gamma), until, substep, grid)
    require_finite("picard_tol", picard_tol)
    max_iters = require_count("max_iters", max_iters, 1)
    if window is not None:
        if not isinstance(window, numbers.Real):
            window = require_finite("window", window)
        if not window > 0:
            raise ConfigError("window must be positive")
    path, values, iterations = picard_flow(w, s, gamma, grid, window,
                                           picard_tol, max_iters)
    return FlowSolution(path, s, until, gamma, mesh, picard_tol, grid, values,
                        iterations)


def picard_flow(w, s, gamma, grid, window=None, picard_tol=1e-10,
                max_iters=100):
    """solve_flow's (path, values, sweeps per window), checking nothing: w
    one path, gamma a (w.dim,) DirectionField, grid rising from s."""
    K = gamma.lipschitz_K
    cap = 0.5 / K if K > 0 else np.inf
    if window is not None:
        cap = min(cap, float(window))
    runs = _window_runs(grid, cap)
    values = np.empty((len(grid), w.dim))
    values[0] = w.eval(s)
    live = splice_view(w, s, grid, values, LINEAR)
    iterations = []

    for i0, i1 in runs:
        ts = grid[i0:i1 + 1]
        v0 = values[i0].copy()
        values[i0 + 1:i1 + 1] = v0
        live.seg.fill(i1 + 1)
        for it in range(1, max_iters + 1):
            g = gamma.eval_many(ts, live)
            new = v0 + _kernels.trapezoid_prefix(ts, g)
            delta = float(np.abs(new - values[i0:i1 + 1]).max())
            values[i0:i1 + 1] = new
            # a NaN change fails both tests: diverged, never converged
            if delta <= picard_tol or not delta <= _DIVERGENCE_CAP:
                break
        if not delta <= picard_tol:
            # the live view holds the i1 + 1 nodes swept so far, which
            # the SplicedPath constructor would refuse once they overflow
            raise FlowIterationError(
                f"Picard did not contract to {picard_tol:g} within "
                f"{max_iters} sweeps on window [{ts[0]:g}, {ts[-1]:g}] "
                f"(last change {delta:g}); is the declared Lipschitz "
                f"constant {K:g} honest?",
                last_iterate=live, sup_change=delta)
        iterations.append(it)

    return _flow_path(w, s, grid, values), values, iterations


def euler_flow(w, s, gamma, until=None, substep=None, grid=None):
    """First-order oracle: explicit left-point steps, no iteration.

    Independent of solve_flow on purpose; used to cross-check it.  Exact
    for constant fields.  A flow that is not finite at some grid time
    raises NumericalError.
    """
    s, until, grid, mesh = _setup(w, s, gamma, until, substep, grid)
    values = np.empty((len(grid), w.dim))
    values[0] = w.eval(s)
    euler_steps(w, grid, values, gamma)
    require_finite_steps("the Euler flow", grid, values)
    # one pass, over no step on the one-node grid of a flow from s to s
    return FlowSolution(_flow_path(w, s, grid, values), s, until, gamma,
                        mesh, 0.0, grid, values, [1] if len(grid) > 1 else [],
                        quadrature="left")


def euler_steps(x, grid, values, drift, sigma=None, dw=None):
    """Explicit left-point steps along grid from values[0], in place:
    values[j + 1] = values[j] + (dt[j] * a + sigma @ dw[:, j]), with a and
    sigma read through eval at grid[j] on x spliced at grid[0] with the
    filled values, a constant sigma by its value.  values is (n, d), or
    (n, k, d) for a family of k with dw (k, n - 1, m); without dw no noise
    term is added, not even 0."""
    live = splice_view(x, grid[0], grid, values, LINEAR)
    dt = np.diff(grid)
    # a constant sigma's value, the bits of its eval: read through eval,
    # monte_carlo's 12 path_drift units read unit_ms.p90 12.70 against 12.38
    # [12.27, 12.44] ms, higher in 10 of 10 pairs (2 shared CPUs)
    sig = getattr(sigma, "constant_value", None)
    for j, s in enumerate(grid[:-1]):
        live.seg.fill(j + 1)
        step = dt[j] * drift.eval(s, live)
        if dw is not None:
            sj = sigma.eval(s, live) if sig is None else sig
            step = step + (sj @ dw[:, j, :, None])[..., 0]
        values[j + 1] = values[j] + step
