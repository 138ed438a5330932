"""Grid-backed paths on [0, T] and the stopped/bumped/spliced algebra.

A path is a right-continuous function of time known exactly on its grid.  Two
interpolation modes exist: 'cadlag_hold' (piecewise constant, jumps at grid
times) and 'linear' (continuous, piecewise linear).  Every surgery is one
view type, a splice: keep a path before a cut, then follow a grid segment.
Concatenation and flow solutions follow a segment of many nodes; a stop
holds x(t) and a vertical bump x(t) + h, each a segment of one node.  The
view delegates to the path it keeps, so values before the surgery point are
bit-identical to the original and quantities such as prefix integrals stay
exact under the declared mode.  That exactness is a contract, not an
optimization: several downstream checks assert identities to machine
precision.  All grid data, whether a whole path or the part after a splice,
is read through one segment type.

GridPath checks and copies every grid it is given.  ``grid_view`` builds the
same path over arrays without either, and is safe only for a grid valid by
construction: times rising strictly from 0 to a finite positive horizon and
finite (n, d) values, as the randomized probes generate them.  A grid read
from a file, an option or any caller goes through GridPath.

A segment finds the last node at or before each query time.  For fewer than
a few hundred times it binary-searches its grid.  For more it guesses
floor((t - t0) * scale), with scale = (n - 1) / span, and corrects the guess
by one node each way.  The map is monotone in t, so if it sends every node
i into (i - 1, i + 1), the guess at a time in cell i lies within one node
of i and the corrected index is exact.  The segment checks that once over
its whole grid, on its first large query; a grid that fails keeps the
binary search.  A live segment fills a prefix of the grid it checked, so it
stays exact after every fill.

A family is k paths that agree before a cut: a splice whose segment values
are (n, k, d), such as a simulated block of paths that share the history
before the splice.  A bump family, such as the rungs of a bump study, is
the case n = 1: a StoppedPath whose held value is (k, d).  ``rows`` is k
for a family and None for a single path.  ``family.row_views()`` builds
the k rows, each of the family's type and mode, and ``family.row(r)`` is
row r of them.  A family adds a leading row axis to every query: (k, d) at
one time, (k, m, d) at m times, row r equal bit for bit to the same query
on row r.  The rows of one read share one node prefix and running maximum
of the segment, taken from the nodes filled at the call, and one integral
and sup of the path before the cut.  Prefix sums and running maxima run
along time separately in each row, so slice r of the family's is row r's.
"""

import contextlib
import numbers
import re
import reprlib
import sys

import numpy as np

from . import _kernels
from .errors import DomainError, require_count, require_finite, \
    require_grid, require_reals, require_time, require_times

CADLAG = "cadlag_hold"
LINEAR = "linear"
_MODES = (CADLAG, LINEAR)


def _piecewise(ts, cut, inclusive, head, tail, shape):
    """head(ts) before cut (and at it when inclusive), tail(ts) after, as
    one (m,) + shape array: shape is (d,) for a path, (k, d) for a family.

    head returns a fresh (m, d) array, which a family's rows share; tail
    returns a fresh (m,) + shape array.  A query wholly after the cut, or
    a path's query wholly before it, makes one call and builds no mask.
    """
    before = ts <= cut if inclusive else ts < cut
    if before.all() and len(shape) == 1:
        return head(ts)
    if not before.any():
        return tail(ts)
    out = np.empty((len(ts),) + shape)
    shared = head(ts[before])
    out[before] = shared if len(shape) == 1 else shared[:, None]
    after = ~before
    if after.any():
        out[after] = tail(ts[after])
    return out


# Below this many query times a segment locates by binary search, from it on
# by arithmetic where its grid allows (module docstring).  Measured on a
# 2**16-step grid, one core of a shared 2-CPU machine: 5 us against 13 us at
# 65 times, even at about 320, 150 us against 50 us at 4097.
_LOCATE_SEARCH_BELOW = 320
# nodes per block of the one-time uniformity check: blocks this small reuse
# heap memory, where one pass over a 2**16-node grid would map fresh pages
_CHECK_BLOCK = 8192


class PathBase:
    """Interface shared by all path types.

    Subclasses provide ``dim``, ``horizon``, ``interp_mode`` and the
    vectorized primitives ``_eval``, ``_eval_left``, ``_integral_prefix``
    and ``_running_max_prefix``, one per public query, over validated,
    in-domain time arrays, time first.  ``rows`` is None for a path and k
    for a family of k paths, whose queries put a row axis first (module
    docstring).
    """

    dim = None
    horizon = None
    interp_mode = None
    rows = None

    def _check(self, ts):
        if ts.size == 1:
            lo = hi = ts.item()
        elif ts.size:
            lo, hi = ts.min(), ts.max()
        else:
            return ts
        # negated so that NaN, which fails every comparison, is rejected too
        if not (lo >= 0.0 and hi <= self.horizon):
            raise DomainError(
                f"time outside [0, {self.horizon}]: range [{lo}, {hi}]")
        return ts

    def _query(self, primitive, ts):
        """primitive at the times ts, checked: its (d,) value for a scalar,
        (m, d) for an array, a family's rows first."""
        try:
            arr = np.asarray(ts, dtype=float)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is not ts and not isinstance(ts, (float, numbers.Real)):
            arr = require_times("ts", ts)   # text too is no time
        if arr.ndim == 0:
            return primitive(self._check(arr.reshape(1)))[0]
        out = primitive(self._check(arr))
        return out if self.rows is None else out.swapaxes(0, 1)

    def eval(self, ts):
        """Value(s) at time(s) ts; (d,) for a scalar, (m, d) for an array."""
        return self._query(self._eval, ts)

    def eval_left(self, ts):
        """Left limit(s) at ts (equals eval for continuous paths)."""
        return self._query(self._eval_left, ts)

    def integral_prefix(self, ts):
        """Componentwise integral over [0, u] for each u in ts.

        Exact for the declared interpolation mode (trapezoid on linear
        segments, left rectangles on held segments).
        """
        return self._query(self._integral_prefix, ts)

    def running_max_prefix(self, ts):
        """Componentwise running maximum over [0, u] for each u in ts."""
        return self._query(self._running_max_prefix, ts)

    def knots(self):
        """Times where the path's description changes, including 0 and T."""
        raise NotImplementedError


class _Segment:
    """Grid data in one interpolation mode: the one place where grid values
    are looked up, interpolated, integrated and maximised.

    times (n,) increase strictly and values are (n, d), or (n, k, d) for
    the k rows of a family.  Every query takes times at or after times[0];
    after times[-1] the segment holds its last value.  The node prefix
    integral and running maximum are built on first use and cached, unless
    given, as a family's row views are.
    """

    def __init__(self, times, values, mode, prefix=None, runmax=None):
        self.times = times
        self.values = values
        self.mode = mode
        # indexes an (m,) per-time factor to scale the values' trailing axes
        self.by_time = (slice(None),) + (None,) * (values.ndim - 1)
        self._prefix = prefix
        self._runmax = runmax
        # the whole grid, which a live segment fills a prefix of, and the
        # scale of its arithmetic locate: None until checked, 0.0 if none
        self._grid = times
        self._scale = None

    def locate(self, ts):
        """Index of the last node at or before each time (module docstring:
        many times on a uniform grid locate by arithmetic)."""
        n = len(self.times)
        if len(ts) < _LOCATE_SEARCH_BELOW or n < 2 or not self._uniform():
            return self.times.searchsorted(ts, side="right") - 1
        ts = np.minimum(ts, self.times[-1])
        idx = ((ts - self.times[0]) * self._scale).astype(np.intp)
        np.minimum(idx, n - 2, out=idx)
        idx += self.times[1:][idx] <= ts
        idx -= self.times[idx] > ts
        return idx

    def _uniform(self):
        """Whether (t - t0) * scale puts every node of the grid within half
        a cell of its own index; checked once, on the first large query."""
        if self._scale is None:
            grid = self._grid
            n = len(grid)
            scale = (n - 1) / float(grid[-1] - grid[0])
            self._scale = 0.0
            if scale < np.inf:
                ramp = np.arange(_CHECK_BLOCK, dtype=float)
                for a in range(0, n, _CHECK_BLOCK):
                    # off[j] is the map at node a + j, less j, rounded; as
                    # a - 1 and a + 1 round to themselves, off[j] within 0.5
                    # of a puts that node strictly within one of a + j
                    off = grid[a:a + _CHECK_BLOCK] - grid[0]
                    off *= scale
                    off -= ramp[:len(off)]
                    if not (off.min() >= a - 0.5 and off.max() <= a + 0.5):
                        return False
                self._scale = scale
        return self._scale > 0.0

    def eval(self, ts):
        if self.mode == CADLAG:
            return self.values[self.locate(ts)]
        ts = np.minimum(ts, self.times[-1])
        return self._interp(ts, self.locate(ts))

    def _interp(self, ts, idx):
        """Linear values at times no later than times[-1], located at idx."""
        out = self.values[idx]
        between = self.times[idx] != ts
        if between.any():
            j = idx[between]
            t0 = self.times[j]
            t1 = self.times[j + 1]
            frac = ((ts[between] - t0) / (t1 - t0))[self.by_time]
            out[between] = self.values[j] + frac * (self.values[j + 1] -
                                                    self.values[j])
        return out

    def eval_left(self, ts):
        """Left limits; at times[0] the left limit is the value there."""
        if self.mode == LINEAR:
            return self.eval(ts)
        idx = self.times.searchsorted(ts, side="left") - 1
        return self.values[np.maximum(idx, 0)]

    def integral(self, ts):
        """Integral from times[0] to each time, for times up to times[-1]."""
        idx = self.locate(ts)
        out = self.node_prefix()[idx]
        rem = (ts - self.times[idx])[self.by_time]
        if self.mode == LINEAR:
            # trapezoid over the partial segment [t_idx, u]
            out += rem * 0.5 * (self.values[idx] + self._interp(ts, idx))
        else:
            out += rem * self.values[idx]
        return out

    def running_max(self, ts):
        """Componentwise maximum over [times[0], u] for each u in ts."""
        if self.mode == CADLAG:
            return self.node_runmax()[self.locate(ts)]
        ts = np.minimum(ts, self.times[-1])
        idx = self.locate(ts)
        return np.maximum(self.node_runmax()[idx], self._interp(ts, idx))

    def node_prefix(self):
        """Integral from times[0] to each node under the segment's mode."""
        if self._prefix is None:
            self._prefix = self._build_prefix()
            self._prefix.setflags(write=False)
        return self._prefix

    def node_runmax(self):
        """Running maximum of the node values."""
        if self._runmax is None:
            self._runmax = self._build_runmax()
            self._runmax.setflags(write=False)
        return self._runmax

    def _build_prefix(self):
        if self.mode == LINEAR:
            return _kernels.trapezoid_prefix(self.times, self.values)
        return _kernels.left_prefix(self.times, self.values)

    def _build_runmax(self):
        return np.maximum.accumulate(self.values, axis=0)


class _LiveSegment(_Segment):
    """Segment over the filled leading nodes of arrays that their owner
    keeps writing.  Nothing is cached: a Picard sweep rewrites values while
    the filled count stays the same.  The row views of one family read
    share one node prefix and running max built from the nodes at the
    read, and are dropped with it."""

    def __init__(self, times, values, mode):
        super().__init__(times, values, mode)
        self._all_values = values

    def fill(self, n):
        """Make the first n nodes the defined ones."""
        self.times = self._grid[:n]
        self.values = self._all_values[:n]

    node_prefix = _Segment._build_prefix
    node_runmax = _Segment._build_runmax


def _require_mode(mode):
    """mode, or DomainError unless it is one of the interpolation modes."""
    if mode not in _MODES:
        raise DomainError(f"unknown interp_mode {mode!r}")
    return mode


def _node_values(name, values, n, dim=None, rows=False, what=None):
    """values by require_reals, shaped as n path nodes: (n, d), (n,) read
    as (n, 1), or (n, k, d) for a family when rows is set; n None is one
    node without its axis, (d,) or (k, d).  d is dim if given, else >= 1.
    A bad entry or shape raises DomainError naming what, or else name."""
    v = require_reals(name, values, what=what)
    lead = () if n is None else (n,)
    if lead and v.ndim == 1:
        v = v[:, None]
    axes = v.ndim - len(lead)
    width = v.shape[-1] if v.ndim else 0
    if v.shape[:len(lead)] != lead or not (axes == 1 or rows and axes == 2) \
            or not width or dim not in (None, width):
        head = f"{n}, " if lead else ""
        d = "d" if dim is None else dim
        want = (f"({head}{d})" if lead else f"({d},)") \
            + (f" or ({head}k, {d})" if rows else "") \
            + (", d >= 1" if dim is None else "")
        raise DomainError(f"{what or name} must be {want}, not {v.shape}")
    return v


class GridPath(PathBase):
    """Concrete path: strictly increasing times from 0 to T and values.

    values has shape (n, d); eval at grid times returns stored values exactly
    in both modes.
    """

    def __init__(self, times, values, interp_mode=LINEAR):
        times = require_grid("times", times, start=0.0)
        values = _node_values("values", values, len(times))
        self._setup(times.copy(), values.copy(), _require_mode(interp_mode))

    def _setup(self, times, values, interp_mode):
        times.setflags(write=False)
        values.setflags(write=False)
        self.times = times
        self.values = values
        self.interp_mode = interp_mode
        self.dim = values.shape[1]
        self.horizon = float(times[-1])
        # a grid path is a single segment: its primitives are the segment's
        seg = self.seg = _Segment(times, values, interp_mode)
        self._eval = seg.eval
        self._eval_left = seg.eval_left
        self._integral_prefix = seg.integral
        self._running_max_prefix = seg.running_max
        return self

    def knots(self):
        return self.times


class SplicedPath(PathBase):
    """``left`` on [0, s), then an explicit grid segment from s onward.

    The segment runs from s to its last time e in its own interpolation
    mode, which is the path's ``interp_mode`` (a StoppedPath keeps its
    base's), and is held constant on (e, T].  A jump at s is permitted.  This is the return type of
    concatenation and of flow solutions (history + extension).  Segment
    values of shape (n, k, d) make the view a family of k paths that share
    ``left`` before s, row r following values[:, r] after it.
    """

    def __init__(self, left, switch, seg_times, seg_values, seg_mode=LINEAR):
        require_path(left=left)
        seg_times = require_times("seg_times", seg_times)
        switch = require_time("switch", switch, left.horizon)
        # one node at the switch, as concat builds at the horizon, holds it
        if not (seg_times.shape == (1,) and seg_times[0] == switch):
            seg_times = require_grid("seg_times", seg_times)
        if seg_times[0] != switch:
            raise DomainError("segment must start at the switch time")
        require_time("seg_times[-1]", float(seg_times[-1]), left.horizon)
        seg_values = _node_values("seg_values", seg_values, len(seg_times),
                                  left.dim, rows=True)
        self._join(left, switch, _frozen(seg_times, seg_values,
                                         _require_mode(seg_mode)))

    def _join(self, left, switch, seg, mode=None, at_switch=None, sup=None):
        self.left = left
        self.switch = switch
        self.seg = seg
        self._at_switch = at_switch
        self._sup = sup
        self._shape = seg.values.shape[1:]
        if len(self._shape) == 2:
            self.rows = self._shape[0]
        self.interp_mode = mode or seg.mode
        self.dim = left.dim
        self.horizon = left.horizon
        return self

    def row(self, r):
        """Path r of a family: left before the switch, segment row r after."""
        return self.row_views()[r]

    def row_views(self):
        """The k paths of a family, built here and nowhere else: row r is
        left before the switch and segment row r after, of the family's type
        and mode.  Built once for one read of every row, they share the node
        prefix and running max of the nodes filled now, slices [:, r] of
        the family's, which run along time separately in each row, and the
        integral and sup of left before the switch; build them again after
        a fill or a rewrite."""
        if self.rows is None:
            raise DomainError("a single path has no rows")
        seg = self.seg
        prefix, runmax = seg.node_prefix(), seg.node_runmax()
        prefix.setflags(write=False)
        runmax.setflags(write=False)
        head, sup = self._head_integral(), self._head_sup()
        return [type(self).__new__(type(self))._join(
            self.left, self.switch, _Segment(seg.times, seg.values[:, r],
                                             seg.mode, prefix[:, r],
                                             runmax[:, r]),
            self.interp_mode, head, sup) for r in range(self.rows)]

    def knots(self):
        t = self.left.knots()
        parts = [t[t < self.switch], self.seg.times]
        if self.seg.times[-1] < self.horizon:
            parts.append([self.horizon])
        return np.concatenate(parts)

    def _head_sup(self):
        # sup of the left path over [0, switch): it is monotone from its last
        # knot before the switch, and max does not round, so this is exact;
        # cached as _head_integral is, for the rows to share
        if self._sup is None:
            if self.switch == 0:
                self._sup = np.full(self.dim, -np.inf)
            else:
                knots = np.asarray(self.left.knots())
                last = knots[knots.searchsorted(self.switch, side="left") - 1]
                self._sup = np.maximum(self.left.running_max_prefix(last),
                                       self.left.eval_left(self.switch))
        return self._sup

    def _eval(self, ts):
        return _piecewise(ts, self.switch, False, self.left._eval,
                          self.seg.eval, self._shape)

    def _eval_left(self, ts):
        return _piecewise(ts, self.switch, True, self.left._eval_left,
                          self.seg.eval_left, self._shape)

    def _head_integral(self):
        # integral of the left path over [0, switch]; only the segment of a
        # splice_view is ever rewritten, so this holds for the view's life,
        # and its rows share it
        if self._at_switch is None:
            self._at_switch = self.left._integral_prefix(
                np.array([self.switch]))[0]
        return self._at_switch

    def _integral_prefix(self, ts):
        def after(u):
            head = self._head_integral()
            end = self.seg.times[-1]
            held = np.maximum(u - end, 0.0)[self.seg.by_time] \
                * self.seg.values[-1]
            return head + self.seg.integral(np.minimum(u, end)) + held
        return _piecewise(ts, self.switch, True, self.left._integral_prefix,
                          after, self._shape)

    def _running_max_prefix(self, ts):
        def after(u):
            return np.maximum(self._head_sup(), self.seg.running_max(u))
        return _piecewise(ts, self.switch, False,
                          self.left._running_max_prefix, after, self._shape)


def _frozen(times, values, mode):
    """A segment over read-only copies of times and values."""
    times, values = times.copy(), values.copy()
    times.setflags(write=False)
    values.setflags(write=False)
    return _Segment(times, values, mode)


def grid_view(times, values, mode):
    """GridPath over the caller's arrays, validating and copying nothing;
    the module docstring says when that is safe.

    times must be a 1-d float array rising strictly from 0 to a finite
    T > 0 and values a finite (n, d) float array.  Both are marked
    read-only, as the constructor marks its copies.
    """
    return GridPath.__new__(GridPath)._setup(times, values, mode)


def splice_view(left, switch, times, values, mode):
    """SplicedPath view over arrays that the caller owns and keeps writing.

    Unlike the SplicedPath constructor this validates and copies nothing.
    All nodes are defined at first; after ``view.seg.fill(n)`` only the
    first n are, and the view equals the SplicedPath built from those n
    nodes, holding the last one afterwards.  Nothing read from the segment
    is cached, so values already filled may be rewritten between queries;
    the left path must stay unchanged.  The rows of one family read share
    node values that ``row_views`` builds at the read, and nothing of them
    outlives it.
    """
    view = SplicedPath.__new__(SplicedPath)
    return view._join(left, float(switch), _LiveSegment(times, values, mode))


def splice_copy(left, switch, times, values, mode):
    """The SplicedPath over read-only copies of arrays valid by construction,
    as the constructor builds it after its checks; this checks nothing."""
    view = SplicedPath.__new__(SplicedPath)
    return view._join(left, switch, _frozen(times, values, mode))


class StoppedPath(SplicedPath):
    """View of ``base`` frozen at ``stop_time``: a splice whose segment is
    the one node (stop_time, value_at_stop), held to the horizon.

    eval(s) = base(s) for s < stop_time and ``value_at_stop`` afterwards:
    base(stop_time) for a stop, base(stop_time) + h for a vertical bump.
    Values strictly before the stop time are bit-identical to the base, and
    so is the prefix integral up to it (a bump carries no measure there).
    The base must not change under the view: the held value and the base's
    integral up to the stop time are taken from it once.  A (k, d) held
    value makes the view a family of k paths, row r holding row r.  The
    base is one path, never a family.  The view keeps the base's
    ``interp_mode``.  Its attributes are its splice's: ``base``,
    ``stop_time`` and ``value_at_stop`` read ``left``, ``switch`` and the
    segment's one node, a read-only copy as a splice's segment values are.
    """

    base = property(lambda self: self.left)
    stop_time = property(lambda self: self.switch)
    value_at_stop = property(lambda self: self.seg.values[0])

    def __init__(self, base, stop_time, value_at_stop=None):
        require_path(base=base)
        stop_time = require_time("stop_time", stop_time, base.horizon)
        if value_at_stop is not None:
            value_at_stop = _node_values("value_at_stop", value_at_stop, None,
                                         base.dim, rows=True,
                                         what="held value").copy()
        self._hold(base, stop_time, value_at_stop)

    def _hold(self, base, stop_time, value_at_stop=None):
        if base.rows is not None:   # a family is no base: this raises
            require_path(base=base)
        if value_at_stop is None:
            value_at_stop = base.eval(stop_time)
        value_at_stop.setflags(write=False)
        # one node has nothing to interpolate, so the segment holds it
        return self._join(base, stop_time, _Segment(
            np.array([stop_time]), value_at_stop[None], CADLAG),
            base.interp_mode)


def _held(base, t, value=None):
    """StoppedPath(base, t, value) on a checked t and value, held as is."""
    return StoppedPath.__new__(StoppedPath)._hold(base, t, value)


def require_path(family=False, **paths):
    """Raise DomainError naming the parameter if any of paths, given by
    name, is no path, or is a family where an operation reads one path
    (unless family is set)."""
    for name, x in paths.items():
        if not isinstance(x, PathBase):
            raise DomainError(f"{name} must be a path, not {x!r}")
        if x.rows is not None and not family:
            raise DomainError(f"{type(x).__name__} family of {x.rows} rows: "
                              "one path is required; read one with .row(r)")


def stop(x, t):
    """Path frozen at t: x on [0, t), constant x(t) afterwards.

    Stopping is idempotent: re-stopping a stopped or bumped path at or after
    its stop time returns the same object, and stop(x, T) is x itself.
    A held family stopped at or after its stop time is returned as it is,
    and stopped before it is one path; any other stop of a family, and a
    bump of one after its stop time, raises DomainError.
    """
    require_path(x=x, family=True)
    t = require_time("t", t, x.horizon)
    if t == x.horizon or isinstance(x, StoppedPath) and t >= x.stop_time:
        return x
    return _held(x.base if isinstance(x, StoppedPath) else x, t)


def bump(x, t, h):
    """Vertical bump: x on [0, t), then x(t) + h from t onward.

    x may already be stopped at t, as in a derivative study that stops once
    and bumps on every rung; the bump then reuses the stopped value.
    """
    xt = stop_exactly(x, t)
    h = require_reals("h", h, what="held value").reshape(-1)
    if h.shape != (x.dim,):
        raise DomainError(f"bump must have shape ({x.dim},)")
    # the sum of finite values may overflow
    return _held(xt.base, xt.stop_time,
                 require_reals("held value", xt.value_at_stop + h))


def stop_exactly(x, t):
    """x stopped at t as the StoppedPath every bump at t shares; stop()
    may hand back x itself at the horizon, or a path frozen before t."""
    xt = stop(x, t)
    if isinstance(xt, StoppedPath) and xt.stop_time == float(t):
        return xt
    return _held(xt, float(t))


def concat(a, s, b):
    """Path following a before s and b (time-shifted to start at s) after.

    b must cover [0, T - s]; any longer tail is discarded.  A jump at s is
    permitted; values are exact at every representable time in either mode.
    """
    require_path(a=a, b=b)
    s = require_time("s", s, a.horizon)
    if a.dim != b.dim:
        raise DomainError("dimension mismatch between the two paths")
    span = a.horizon - s
    if b.horizon < span - 1e-15 * max(1.0, a.horizon):
        raise DomainError("second path too short to cover [0, T - s]")
    span = min(span, b.horizon)
    bk = np.asarray(b.knots())
    inner = bk[(bk > 0) & (bk < span)]
    seg_rel = np.concatenate([[0.0], inner, [span]])
    seg_times = s + seg_rel
    seg_times[0] = s
    seg_times[-1] = a.horizon
    # guard against duplicate floats introduced by the shift
    keep = np.concatenate([[True], np.diff(seg_times) > 0])
    seg_times = seg_times[keep]
    seg_values = b.eval(seg_rel[keep])
    return SplicedPath(a, s, seg_times, seg_values, seg_mode=b.interp_mode)


def dist_stopped(x, t, y, s):
    """|t - s| plus the sup distance between the two stopped paths.

    The sup runs over the union of the stopped paths' knots, where both
    values and left limits are compared; this is exact for piecewise
    constant and piecewise linear paths.
    """
    require_path(x=x, y=y)
    if x.horizon != y.horizon:
        raise DomainError("paths must share a horizon")
    if x.dim != y.dim:
        raise DomainError("paths must share a dimension")
    xs = stop(x, require_time("t", t, x.horizon))
    ys = stop(y, require_time("s", s, y.horizon))
    grid = np.unique(np.concatenate([xs.knots(), ys.knots()]))
    gap = np.abs(xs.eval(grid) - ys.eval(grid)).max()
    gap_left = np.abs(xs.eval_left(grid) - ys.eval_left(grid)).max()
    return abs(float(t) - float(s)) + max(gap, gap_left)


def constant_path(value, horizon=1.0, dim=None):
    """Constant path on [0, horizon]; with dim given, value holds one entry
    per coordinate or one for all dim."""
    horizon = require_finite("horizon", horizon, error=DomainError)
    v = np.atleast_1d(require_reals("value", value))
    if dim is not None:
        dim = require_count("dim", dim, 1)
        if v.size not in (1, dim):
            raise DomainError(f"value must hold 1 or {dim} entries, not "
                              f"{v.size}")
        if v.size == 1:
            v = np.full(dim, v[0])
    return GridPath([0.0, horizon], np.vstack([v, v]))


def ramp_path(slope=1.0, horizon=1.0, n=1025, interp_mode=LINEAR,
              offset=0.0):
    """x(s) = offset + slope * s sampled on a uniform grid (n nodes)."""
    n = require_count("n", n, low=None)
    horizon = require_finite("horizon", horizon, error=DomainError)
    t = np.linspace(0.0, horizon, max(n, 0))  # GridPath: n >= 2
    v = np.atleast_1d(require_reals("slope", slope))[None, :] * t[:, None] \
        + np.atleast_1d(require_reals("offset", offset))[None, :]
    return GridPath(t, v, interp_mode)


def _fmt(v):
    """A value as artifact text: a bool as true or false, a float by repr,
    a list as its items joined by ';'."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, list):
        return ";".join(_fmt(x) for x in v)
    return str(v)


@contextlib.contextmanager
def _opened(name, f, mode):
    """f as a UTF-8 text file: a file name is opened in mode and closed
    after use, and a file object the caller owns, one that can read or
    write as mode asks, is used as it is; anything else raises DomainError
    naming the parameter."""
    if isinstance(f, (str, bytes)) or hasattr(f, "__fspath__"):
        with open(f, mode, newline="", encoding="utf-8") as fh:
            yield fh
    elif hasattr(f, "read" if mode == "r" else "write"):
        yield f
    else:
        raise DomainError(f"{name} must be a file name or a text file, not "
                          f"{reprlib.repr(f)}")


def write_csv(out, comments, tables, name="out"):
    """Write one artifact to out, a file name, a text file, or None or '-'
    for stdout: a ``# key = value`` line per (key, value) comment whose
    value is set, then each (columns, rows) table.  Values are written by
    _fmt, floats with repr, so a rewrite is byte for byte the same.  Any
    other out raises DomainError naming it as name."""
    lines = [f"# {k} = {_fmt(v)}" for k, v in comments if v is not None]
    for columns, rows in tables:
        lines.append(",".join(columns))
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    out = sys.stdout if out is None or out == "-" else out
    with _opened(name, out, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def path_to_csv(path, dest):
    """Write a path by write_csv: the comment ``interp_mode``, then the
    table t,v1,...,vd with one row per knot.

    One row per knot cannot carry a jump of a linear path, so such a path
    is rejected.
    """
    require_path(path=path)
    grid = np.asarray(path.knots())
    vals = path.eval(grid)
    if path.interp_mode == LINEAR \
            and not np.array_equal(path.eval_left(grid), vals):
        raise DomainError("a linear path with a jump cannot be written "
                          "one row per knot")
    cols = ["t"] + [f"v{i + 1}" for i in range(path.dim)]
    write_csv(dest, [("interp_mode", path.interp_mode)],
              [(cols, np.column_stack([grid, vals]))], name="dest")


def path_from_csv(src, interp_mode=None):
    """Read a path written by path_to_csv; returns a GridPath.

    interp_mode, when given, wins over the file's ``# interp_mode = ...``
    comment; other comments are ignored.  A mode comment that is not
    ``key = value``, and a file that is not UTF-8 text, raise DomainError.
    """
    try:
        with _opened("src", src, "r") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise DomainError(f"path CSV {src}: not UTF-8 text ({e})") from None
    mode = interp_mode
    rows = []
    header_seen = False
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if re.match(r"#+\s*interp_mode\b", line):
                key, eq, value = line.lstrip("#").partition("=")
                if not eq or key.strip() != "interp_mode":
                    raise DomainError(f"path CSV line {number}: expected "
                                      f"'# interp_mode = <mode>', not "
                                      f"{line!r}")
                if mode is None:
                    mode = value.strip()
            continue
        if not header_seen:
            header_seen = True  # column names; structure is positional
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            raise DomainError(f"path CSV line {number}: not a number in "
                              f"{line!r}") from None
        if len(rows[-1]) != len(rows[0]):
            raise DomainError(f"path CSV line {number}: {len(rows[-1])} "
                              f"columns, not {len(rows[0])}")
    if not rows:
        raise DomainError("no data rows in path CSV")
    arr = np.asarray(rows, dtype=float)
    return GridPath(arr[:, 0], arr[:, 1:], LINEAR if mode is None else mode)
