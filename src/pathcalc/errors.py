"""Shared exception types, and the checks of a count, a real, an array of
finite reals, a time, a functional's shape, a grid and the values computed
along one.

Validation problems raise subclasses of ValueError so plain callers can catch
broadly; the CLI maps the categories to distinct exit codes.
"""

import math
import numbers
import operator
import reprlib

import numpy as np

MAX_LOG2 = 24   # a draw of normals or a grid holds at most 2**MAX_LOG2


class DomainError(ValueError):
    """A time, dimension or mode argument lies outside the valid domain."""


class ConfigError(ValueError):
    """Inconsistent or unknown configuration (solver windows, CLI keys, ...)."""


class GridMismatchError(ValueError):
    """Partition times cannot be snapped onto a path grid."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its contract."""


class FlowIterationError(NumericalError):
    """Picard iteration did not contract to tolerance.

    Carries the last iterate so callers can inspect how far the solve got.
    """

    def __init__(self, message, last_iterate=None, sup_change=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.sup_change = sup_change


class NonDifferentiableError(NumericalError):
    """A difference-quotient ladder did not converge.

    ``which`` names the offending derivative ('d_gamma', 'd_horizontal' or
    'd_space[i]'), ``report`` is the full ladder report.
    """

    def __init__(self, which, report=None):
        super().__init__(f"derivative ladder did not converge: {which} "
                         f"(verdict={getattr(report, 'verdict', 'unknown')})")
        self.which = which
        self.report = report


class IllConditionedError(NumericalError):
    """A direction system is numerically singular."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


def require_count(name, value, low=0):
    """value as an int of at least low, or ConfigError naming the parameter.

    An integral float such as 64.0 is that int; 2.5, NaN or inf is refused,
    never truncated.  low=None leaves the range to the caller.
    """
    try:
        n = operator.index(value)
    except TypeError:
        n = int(value) if isinstance(value, numbers.Real) \
            and float(value).is_integer() else None
    if n is None:
        raise ConfigError(f"{name} must be a whole number, not {value!r}")
    if low is not None and n < low:
        raise ConfigError(f"{name} must be at least {low}, not {n}")
    return n


def _real(value):
    """value as a float, or None for text (numeric text and bytes too),
    None, a list, an array of one or more axes and an int past the float
    range."""
    if isinstance(value, (str, bytes)):
        return None
    try:
        return None if getattr(value, "ndim", 0) else float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def require_finite(name, value, zero=False, error=ConfigError):
    """value as a finite float above 0, or at least 0 when zero is set, or
    error naming the parameter.  NaN and inf are refused, and so is what
    is no real, as in require_time: text, None, a list or an array with an
    axis."""
    v = _real(value)
    if v is None or not (0.0 <= v if zero else 0.0 < v) or v == math.inf:
        kind = "nonnegative" if zero else "positive"
        shown = reprlib.repr(value) if v is None else v
        raise error(f"{name} must be {kind} and finite, not {shown}")
    return v


def require_reals(name, value, scalar=False, what=None, finite=True,
                  error=DomainError):
    """value as a float array of reals, or as a float when scalar is set,
    or error: naming the parameter for what numpy cannot read as reals
    (None, text that is no number, a ragged list) and, when scalar is set,
    for an array with an axis; naming what, the parameter unless given,
    for an entry that is NaN or infinite, unless finite is unset."""
    try:
        arr = None if value is None else np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or scalar and arr.ndim:
        kind = "a real" if scalar else "reals"
        raise error(f"{name} must be {kind}, not {reprlib.repr(value)}")
    bad = arr[~np.isfinite(arr)] if finite else arr[:0]
    if bad.size:
        raise error(f"{what or name} must be finite, not {bad[0]}")
    return float(arr) if scalar else arr


def require_time(name, t, horizon):
    """t as a float in [0, horizon], or DomainError naming the parameter:
    text, None, a list, an array of one or more axes and NaN are refused."""
    v = _real(t)
    if v is None or not 0.0 <= v <= horizon:
        raise DomainError(f"{name} must be a time in [0, {horizon}], not "
                          f"{reprlib.repr(t)}")
    return v


def require_shape(name, f, shape):
    """f, or DomainError naming the parameter unless the functional f's
    values have shape; a None entry matches any size, and shape None any
    shape.  What has no shape, such as None, is refused by its repr."""
    got = getattr(f, "shape", None)
    if got is None or shape is not None and (len(got) != len(shape) or any(
            w is not None and n != w for n, w in zip(got, shape))):
        want = "" if shape is None \
            else " of shape " + str(tuple(shape)).replace("None", "*")
        raise DomainError(f"{name} must be a functional{want}, not "
                          f"{reprlib.repr(f) if got is None else got}")
    return f


def require_times(name, times, error=DomainError):
    """times as a float array of any shape, or error naming the parameter
    when numpy cannot read them as reals (ragged, or another object) or
    reads them as text: numeric text and bytes are no times either."""
    try:
        if np.asarray(times).dtype.kind not in "US":
            return np.asarray(times, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{name} must be an array of real times, not "
                f"{reprlib.repr(times)}")


def require_grid(name, times, start=None, end=None, error=DomainError):
    """times as a 1-d float array, or error naming the parameter: real
    times, at least 2, all finite, from start and to end where given, the
    last after the first and each after the one before, in that order."""
    t = require_times(name, times, error)
    if t.ndim != 1 or len(t) < 2:
        raise error(f"{name} must be a 1-d array of at least 2 times, its "
                    f"endpoints, not of shape {t.shape}")
    if not np.isfinite(t).all():
        raise error(f"{name} must be finite, not {t[~np.isfinite(t)][0]}")
    if start is not None and t[0] != start:
        raise error(f"{name} must start at {start}, not {t[0]}")
    if end is not None and t[-1] != end:
        raise error(f"{name} must end at {end}, not {t[-1]}")
    if not t[-1] > t[0]:
        raise error(f"{name}: horizon must be positive, not {t[-1] - t[0]}")
    if not (np.diff(t) > 0.0).all():
        k = np.flatnonzero(np.diff(t) <= 0.0)[0]
        raise error(f"{name} must be strictly increasing, not {t[k]} then "
                    f"{t[k + 1]}")
    return t


def require_finite_steps(name, times, values):
    """NumericalError naming name and the first of times whose entry of
    values, one per time along their first axis, is not finite: a computed
    path that overflowed is no result."""
    ok = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
    if not ok.all():
        raise NumericalError(f"{name} is not finite, first at grid time "
                             f"{float(times[ok.argmin()])!r}")
