"""Non-anticipative functionals of (t, path) and randomized probes.

A functional maps (t, x) to a value and may only read the path on [0, t];
that property is not enforceable statically, so `probe_non_anticipative`
checks it by randomizing the future.  There is one type, `Functional`, and
its values differ only in shape: a real, a (k,) vector (flow directions,
SDE drifts, gradients) or a (d, m) matrix (SDE diffusions, Hessians).  The
catalog at the bottom provides the standard examples with coded coinvariant
derivatives where they exist: a real time derivative, a (d,) gradient and a
(d, d) Hessian, each one functional read in one call.
"""

import math

import numpy as np

from . import rng
from .errors import ConfigError, DomainError, require_count, \
    require_finite, require_reals, require_shape, require_times
from .paths import CADLAG, LINEAR, grid_view, stop


class Functional:
    """Non-anticipative map (t, path) -> value of the declared ``shape``:
    () for a real, (k,) for a vector, (d, m) for a matrix.

    fn(t, path) gives the value at one time.  fn_many, when given,
    evaluates a whole sorted time array against one path in a single call;
    without it eval_many loops over fn.  A body that broadcasts serves both
    routes: write it as fn(ts, x) with ``x.eval(ts)[..., a]``, so that it
    returns one value for a float t and one per time for an array, and pass
    it as both fn and fn_many.  eval and eval_many then run the same
    arithmetic and agree bit for bit, as every built-in does.

    A family (see ``paths``) adds a leading row axis to every read: eval
    gives (k,) + shape and eval_many (k, m) + shape.  A body passed as both
    fn and fn_many is called once on the whole family; any other is read
    row by row, over the rows that ``family.row_views()`` builds, sharing
    the family's node values for that one read.  Either way row r equals
    the same read on family.row(r), one of them, bit for bit.
    constant_value is None except on the functionals that
    constant_functional, constant_direction and constant_matrix_field
    build, where it is their one value; fk's exact fast routes read it.

    Each value is read in the declared shape, after the leading axes of the
    rows and the times: a real or vector with as many entries is reshaped
    to it, a matrix must match exactly, and a value that leaves out leading
    axes, such as a constant's, is spread over them.  Anything else raises
    DomainError, and so does a body that indexes past the path it reads,
    such as a catalog functional of another dimension.
    """

    shape = ()
    constant_value = None

    def __init__(self, fn, label="", fn_many=None):
        self._fn = fn
        self._fn_many = fn_many
        self.label = label

    def _read(self, value, lead=()):
        out = np.asarray(value, dtype=float)
        want = lead + self.shape
        if out.shape == want:
            return out
        # spread over the leading axes that the value leaves out
        if out.shape == want[len(want) - max(out.ndim, len(self.shape)):]:
            return np.broadcast_to(out, want).copy()
        if len(self.shape) < 2 and out.size == math.prod(want):
            return out.reshape(want)
        raise DomainError(f"{self.label or 'anonymous'}: expected a value "
                          f"of shape {want}, got {out.shape}")

    def _misread(self, x, err):
        """The DomainError for a body that indexed past what x holds: a
        catalog functional read on a path of another dimension."""
        return DomainError(f"{self.label or 'anonymous'} cannot be read on "
                           f"a path of dimension {getattr(x, 'dim', None)}: "
                           f"{err}")

    def eval(self, t, x):
        """The value at t: a float, or an array of the declared shape."""
        if not isinstance(t, float):   # text, numeric text too, is no time
            t = require_reals("t", t, scalar=True, finite=False)
        rows = getattr(x, "rows", None)
        if rows is not None and self._fn is not self._fn_many:
            return np.array([self.eval(t, row) for row in x.row_views()])
        try:
            value = self._fn(t, x)
        except IndexError as err:
            raise self._misread(x, err) from None
        if rows is not None:
            return self._read(value, (rows,))
        out = self._read(value)
        return out if self.shape else float(out)

    def eval_many(self, ts, x):
        """One value per time of a sorted array: (m,) + shape."""
        ts = np.asarray(ts, dtype=float) if isinstance(ts, np.ndarray) \
            and ts.dtype.kind == "f" else require_times("ts", ts)
        rows = getattr(x, "rows", None)
        if rows is not None and self._fn is not self._fn_many:
            return np.array([self.eval_many(ts, row)
                             for row in x.row_views()])
        if self._fn_many is not None:
            lead = ts.shape if rows is None else (rows,) + ts.shape
            try:
                value = self._fn_many(ts, x)
            except IndexError as err:
                raise self._misread(x, err) from None
            return self._read(value, lead)
        vals = [self.eval(t, x) for t in ts]
        return np.array(vals, dtype=float).reshape(ts.shape + self.shape)

    def __repr__(self):
        return f"<{type(self).__name__} {self.label or 'anonymous'}>"


class VectorFunctional(Functional):
    """R^k-valued non-anticipative map (t, path) -> (k,)."""

    def __init__(self, fn, dim_out, label="", fn_many=None):
        self.dim_out = require_count("dim_out", dim_out, 1)
        self.shape = (self.dim_out,)
        super().__init__(fn, label=label, fn_many=fn_many)


class DirectionField(VectorFunctional):
    """Direction for path-dependent flows: d-valued with a declared
    Lipschitz constant in the sup norm of stopped paths."""

    def __init__(self, fn, dim_out, lipschitz_K, label="", fn_many=None):
        super().__init__(fn, dim_out, label=label, fn_many=fn_many)
        self.lipschitz_K = require_finite("lipschitz_K", lipschitz_K,
                                          zero=True, error=DomainError)


class MatrixFunctional(Functional):
    """(d, m)-matrix-valued non-anticipative map: SDE diffusions and
    second derivatives."""

    def __init__(self, fn, shape, label="", fn_many=None):
        self.shape = tuple(require_count(f"shape[{i}]", shape[i], 1)
                           for i in (0, 1))
        super().__init__(fn, label=label, fn_many=fn_many)


class FunctionalWithDerivatives(Functional):
    """Functional bundled with coded coinvariant derivatives.

    partial_t is the horizontal time derivative (a real), grad the vertical
    gradient (a (d,) VectorFunctional) and hess the second vertical
    derivative (a (d, d) MatrixFunctional); each is None when absent.  A
    missing grad/hess means the derivative genuinely does not exist (e.g. a
    running maximum), not that it was omitted.
    """

    def __init__(self, fn, label="", fn_many=None, partial_t=None, grad=None,
                 hess=None):
        super().__init__(fn, label=label, fn_many=fn_many)
        self.partial_t = partial_t
        self.grad = grad
        self.hess = hess


def _constant(cls, value, label, *args):
    """cls(body, *args) whose one body gives value at each time, with
    constant_value set to value: a float for a real, the array otherwise.
    The only writer of constant_value; its callers read value through
    require_reals."""
    value = np.asarray(value)

    def body(ts, x):
        return np.full(np.shape(ts) + value.shape, value)

    f = cls(body, *args, label=label, fn_many=body)
    f.constant_value = value if value.ndim else float(value)
    return f


def constant_functional(c, label=None):
    c = require_reals("c", c, scalar=True, what="a constant")
    return _constant(Functional, c, label or f"const({c})")


def _zero(label="0"):
    return constant_functional(0.0, label)


def _at_entry(body, index, d, label):
    """The (d,) or (d, d) functional, by the length of index, that reads
    body at that entry and exactly +0.0 at every other."""
    shape = (d,) * len(index)

    def value(ts, x):
        v = body(ts, x)
        out = np.zeros(np.shape(v) + shape)
        out[(..., *index)] = v
        return out

    if len(shape) == 1:
        return VectorFunctional(value, d, label=label, fn_many=value)
    return MatrixFunctional(value, shape, label=label, fn_many=value)


def running_mean(ts, x):
    """Mean of x over [0, t] per time, x(0) at t = 0: (d,) for a float t,
    (m, d) for an array.  The one running-mean body, read by the running_avg
    functional and direction and by pathology's path_mean."""
    ts = np.asarray(ts, dtype=float)
    pos = ts > 0.0
    if pos.all():
        return x.integral_prefix(ts) / ts[..., None]
    out = x.integral_prefix(ts) / np.where(pos, ts, 1.0)[..., None]
    return np.where(pos[..., None], out, x.eval(np.zeros_like(ts)))


# ---------------------------------------------------------------------------
# catalog: one body fn(ts, x) per functional, behind eval and eval_many


def _axis_dim(axis, dim):
    """(axis, dim) of a catalog functional as ints, the axis in [0, dim)."""
    a, d = require_count("axis", axis, None), require_count("dim", dim, None)
    if not 0 <= a < d:
        raise DomainError(f"axis {a} outside dimension {d}")
    return a, d


def eval_functional(axis=0, dim=1):
    """F(t, x) = x_axis(t)."""
    a, d = _axis_dim(axis, dim)

    def value(ts, x):
        return x.eval(ts)[..., a]

    return FunctionalWithDerivatives(
        value, label=f"eval[{a}]", fn_many=value, partial_t=_zero(),
        grad=constant_direction(np.eye(d)[a]),
        hess=constant_matrix_field(np.zeros((d, d))))


def _of_value(f, df, d2f, name, axis, dim):
    """F(t, x) = f(x_axis(t)) for an elementwise f with derivatives df and
    d2f: no time derivative, df and d2f at the axis entry of the (d,)
    gradient and the (d, d) Hessian."""
    a, d = _axis_dim(axis, dim)

    def of(g):
        return lambda ts, x: g(x.eval(ts)[..., a])

    value = of(f)
    return FunctionalWithDerivatives(
        value, label=f"{name}[{a}]", fn_many=value, partial_t=_zero(),
        grad=_at_entry(of(df), (a,), d, f"grad {name}[{a}]"),
        hess=_at_entry(of(d2f), (a, a), d, f"hess {name}[{a}]"))


def square_functional(axis=0, dim=1):
    """F(t, x) = x_axis(t)^2, squared as v * v in both routes."""
    return _of_value(lambda v: v * v, lambda v: 2.0 * v,
                     lambda v: np.full_like(v, 2.0), "square", axis, dim)


def integral_functional(axis=0, dim=1):
    """F(t, x) = integral of x_axis over [0, t].

    The stopped extension grows linearly at rate x_axis(t), so the
    horizontal time derivative is the current value; a vertical bump at t
    has measure zero, so the spatial derivative vanishes.
    """
    a, d = _axis_dim(axis, dim)

    def integral(ts, x):
        return x.integral_prefix(ts)[..., a]

    return FunctionalWithDerivatives(
        integral, label=f"integral[{a}]", fn_many=integral,
        partial_t=eval_functional(a, d), grad=zero_direction(d),
        hess=constant_matrix_field(np.zeros((d, d))))


def running_avg_functional(axis=0, dim=1):
    """F(t, x) = (1/t) * integral of x_axis over [0, t]; x_axis(0) at t=0."""
    a, d = _axis_dim(axis, dim)

    def avg(ts, x):
        return running_mean(ts, x)[..., a]

    def dt(ts, x):
        # stopped extension: d/dh [(t*avg + h*x(t)) / (t+h)] at h=0.  At
        # t = 0 the average is x(0), so the gap is exactly 0, as is gap / 1.
        ts = np.asarray(ts, dtype=float)
        gap = x.eval(ts)[..., a] - avg(ts, x)
        return gap / np.where(ts > 0.0, ts, 1.0)

    return FunctionalWithDerivatives(
        avg, label=f"running_avg[{a}]", fn_many=avg,
        partial_t=Functional(dt, label=f"d_t running_avg[{a}]", fn_many=dt),
        grad=zero_direction(d), hess=constant_matrix_field(np.zeros((d, d))))


def running_max_functional(axis=0, dim=1):
    """F(t, x) = max of x_axis over [0, t]; no spatial derivative exists."""
    a = _axis_dim(axis, dim)[0]

    def running_max(ts, x):
        return x.running_max_prefix(ts)[..., a]

    return FunctionalWithDerivatives(
        running_max, label=f"running_max[{a}]", fn_many=running_max,
        partial_t=_zero(), grad=None, hess=None)


def exp_eval_functional(axis=0, dim=1):
    """F(t, x) = exp(x_axis(t))."""
    return _of_value(np.exp, np.exp, np.exp, "exp_eval", axis, dim)


def require_field(name, f):
    """f, or DomainError naming the parameter unless f is a DirectionField,
    whose declared Lipschitz constant the caller reads."""
    if not isinstance(f, DirectionField):
        raise DomainError(f"{name} must be a DirectionField, not {f!r}")
    return f


def require_derivatives(name, f, dim):
    """f, or DomainError naming the parameter unless f is a scalar
    functional carrying partial_t, grad and hess, of shapes (), (dim,)
    and (dim, dim) on dim-dimensional paths."""
    for part in ("partial_t", "grad", "hess"):
        if getattr(f, part, None) is None:
            raise DomainError(f"{getattr(f, 'label', f)!r} lacks {part}; "
                              "a full derivative set is required")
    require_shape(name, f, ())
    require_shape(f"{name}.partial_t", f.partial_t, ())
    require_shape(f"{name}.grad", f.grad, (dim,))
    require_shape(f"{name}.hess", f.hess, (dim, dim))
    return f


def product_functional():
    """F(t, x) = x_1(t) * x_2(t) on two-dimensional paths."""
    def product(ts, x):
        v = x.eval(ts)
        return v[..., 0] * v[..., 1]

    def swapped(ts, x):
        return x.eval(ts)[..., ::-1]

    return FunctionalWithDerivatives(
        product, label="product", fn_many=product, partial_t=_zero(),
        grad=VectorFunctional(swapped, 2, label="(x_2, x_1)",
                              fn_many=swapped),
        hess=constant_matrix_field([[0.0, 1.0], [1.0, 0.0]]))


CATALOG = {
    "eval": eval_functional,
    "square": square_functional,
    "integral": integral_functional,
    "running_avg": running_avg_functional,
    "running_max": running_max_functional,
    "exp_eval": exp_eval_functional,
}


def builtin(name, axis=0, dim=None):
    """Catalog lookup by name; dim defaults to 1, and to 2 for 'product',
    the one dimension it is defined in."""
    axis = require_count("axis", axis, low=None)
    if name == "product":
        if dim not in (None, 2) or axis != 0:
            raise DomainError("product needs dimension 2 and no axis, not "
                              f"dim={dim}, axis={axis}")
        return product_functional()
    if name not in CATALOG:
        raise DomainError(f"unknown functional {name!r}; "
                          f"choices: {sorted(CATALOG) + ['product']}")
    return CATALOG[name](axis=axis, dim=1 if dim is None else dim)


# ---------------------------------------------------------------------------
# direction fields


def zero_direction(dim=1):
    return constant_direction(np.zeros(require_count("dim", dim, 1)),
                              label="zero")


def constant_direction(vec, label=None):
    v = np.atleast_1d(require_reals("vec", vec, what="a constant"))
    label = label or f"const({','.join(repr(float(c)) for c in v)})"
    return _constant(DirectionField, v, label, len(v), 0.0)


def eval_direction(dim=1):
    """gamma(t, x) = x(t); Lipschitz constant 1 in the sup norm."""
    dim = require_count("dim", dim, 1)

    def value(ts, x):
        return x.eval(ts)

    return DirectionField(value, dim, 1.0, label="eval", fn_many=value)


def running_avg_direction(dim=1):
    """gamma(t, x) = running average of x over [0, t]; Lipschitz 1."""
    dim = require_count("dim", dim, 1)
    return DirectionField(running_mean, dim, 1.0, label="running_avg",
                          fn_many=running_mean)


def constant_matrix_field(mat):
    m = np.atleast_2d(require_reals("mat", mat, what="a constant"))
    return _constant(MatrixFunctional, m, "const_matrix", m.shape)


# ---------------------------------------------------------------------------
# probes


class ProbeReport:
    """Outcome of a randomized probe."""

    def __init__(self, label, passed, metric, samples, failures=None):
        self.label = label
        self.passed = bool(passed)
        self.metric = float(metric)
        self.samples = int(samples)
        self.failures = failures or []

    def __repr__(self):
        word = "pass" if self.passed else "FAIL"
        return (f"<ProbeReport {self.label}: {word} metric={self.metric:g} "
                f"samples={self.samples}>")


def _worse(worst, value):
    """The larger of a probe's worst metric and a new value, where a NaN
    value is inf: a probe that meets NaN fails."""
    if value <= worst:
        return worst
    return np.inf if np.isnan(value) else value


def _samples(seed, stream, samples, dim, horizon, **shape):
    """(k, gen, path) for each of a probe's samples, from stream ``stream``
    of the seed: the path's mode is drawn, then the path, then whatever the
    probe draws from gen itself.  The arguments are checked at the call,
    before any draw."""
    # a probe over no samples, or over paths with no coordinate, would
    # report a pass it never tested; a finite positive horizon is what
    # makes every grid the probes generate valid by construction
    samples = require_count("samples", samples, 1)
    dim = require_count("dim", dim, 1)
    horizon = require_finite("horizon", horizon)
    gen = rng.substream(seed, stream)
    modes = (LINEAR if gen.random() < 0.5 else CADLAG for _ in range(samples))
    return ((k, gen, _random_path(gen, dim, horizon, mode, **shape))
            for k, mode in enumerate(modes))


def _random_path(gen, dim, horizon, mode, n_lo=6, n_hi=40, box=None):
    inner = np.sort(gen.random(gen.integers(n_lo, n_hi))) * horizon
    # scaling keeps the draws sorted: keep each time once, rising
    times = np.concatenate(([0.0], inner, [horizon]))
    times = times[np.concatenate(([True], times[1:] > times[:-1]))]
    if box is None:
        values = gen.normal(size=(len(times), dim))
    else:
        values = gen.uniform(-box, box, size=(len(times), dim))
    return grid_view(times, values, mode)


def _with_pinned_future(path, t, gen):
    """(pinned, randomized) pair: identical on [0, t], the second with fresh
    values at every grid node strictly after t."""
    times, values = path.times, path.values
    k = int(times.searchsorted(t))
    if times[k] != t:
        # t lies strictly inside the grid, so inserting it keeps the grid
        # rising strictly and the two views need no checks
        times = np.concatenate([times[:k], [t], times[k:]])
        values = np.concatenate([values[:k], path.eval(t)[None], values[k:]])
    pinned = grid_view(times, values, path.interp_mode)
    rand_values = values.copy()
    rand_values[k + 1:] = gen.normal(size=(len(times) - k - 1, path.dim))
    return pinned, grid_view(times, rand_values, path.interp_mode)


def probe_non_anticipative(F, dim=1, samples=200, seed=0, horizon=1.0):
    """Randomize the strict future of sampled paths and compare F values.

    Passes only if every discrepancy, the largest absolute entry of the
    difference, is exactly zero: the pinned and the randomized path share
    all data on [0, t], so a non-anticipative F of any shape agrees bitwise.
    """
    require_shape("F", F, None)
    worst = 0.0
    failures = []
    for k, gen, path in _samples(seed, 0, samples, dim, horizon):
        t = float(gen.uniform(0.0, horizon * 0.999))
        pinned, randomized = _with_pinned_future(path, t, gen)
        d = float(np.abs(F.eval(t, pinned) - F.eval(t, randomized)).max())
        worst = _worse(worst, d)
        if d != 0 and len(failures) < 10:   # NaN included
            failures.append((k, t, d))
    return ProbeReport(f"non_anticipative[{F.label}]", worst == 0.0, worst,
                       samples, failures)


def probe_boundedness(F, box_radius, dim=1, samples=200, seed=0, horizon=1.0):
    """Necessary-condition check that F maps box-bounded paths to bounded
    values: reports the max of |F(s, x)| over random paths confined to
    [-box_radius, box_radius]^d, with s running over grid times up to and
    including the horizon.  A non-finite value fails the probe."""
    require_shape("F", F, None)
    box_radius = require_finite("box_radius", box_radius)
    draws = _samples(seed, 1, samples, dim, horizon, n_lo=64, n_hi=65,
                     box=box_radius)
    if not 2.0 * box_radius < np.inf:
        raise ConfigError("box_radius must be positive, 2 * box_radius finite")
    worst = 0.0
    where = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, _, path in draws:
            vals = np.abs(F.eval_many(path.times, path))
            top = _worse(worst, vals.max())
            if top > worst:
                worst = float(top)
                # numpy's argmax, like its max, takes a NaN as the largest
                j = np.unravel_index(np.argmax(vals), vals.shape)[0]
                where = (k, float(path.times[j]))
    return ProbeReport(f"boundedness[{F.label}]", np.isfinite(worst), worst,
                       samples, [where] if where else [])


def probe_lipschitz(field, samples=200, seed=0, horizon=1.0):
    """Empirical Lipschitz ratio of a DirectionField against its declared K.

    Samples stopped-path pairs of the field's dimension sharing a grid and
    compares the field gap to the sup gap of the stopped paths."""
    require_field("field", field)
    worst = 0.0
    for _, gen, x in _samples(seed, 2, samples, field.dim_out, horizon):
        values = x.values + gen.normal(scale=0.5, size=x.values.shape)
        t = float(gen.uniform(horizon * 0.05, horizon))
        xs, ys = stop(x, t), stop(grid_view(x.times, values, x.interp_mode), t)
        # the two share their times, so the stops' sup gap is at a node
        # before t or in the values held from t, each stop's last node
        k = x.times.searchsorted(t)
        gap = max(np.abs(x.values[:k] - values[:k]).max(initial=0.0),
                  np.abs(xs.seg.values[-1] - ys.seg.values[-1]).max())
        if gap == 0.0:
            continue
        diff = np.abs(field.eval(t, xs) - field.eval(t, ys)).max()
        worst = _worse(worst, diff / gap)
    ok = worst <= field.lipschitz_K * (1 + 1e-9)
    return ProbeReport(f"lipschitz[{field.label}]", ok, worst, samples)
