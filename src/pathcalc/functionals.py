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
from .errors import ConfigError, DomainError
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

    Passing the same object as fn and fn_many is also how a functional
    declares that it broadcasts over a family (see ``paths``): eval_family
    then calls the body once on the whole family, whose queries at one
    time return (k, d).  Any other functional is evaluated row by row.
    Either way row r equals eval(t, family.row(r)) bit for bit.
    constant_value marks functionals that ignore (t, x) entirely, which
    lets downstream code pick exact fast paths.

    Each value is read in the declared shape, after a leading axis of one
    entry per time or row for eval_many and eval_family: a real or vector
    with that many entries is reshaped to it, a matrix must match exactly,
    and a value of just the declared shape is spread over the times or
    rows.  Anything else raises DomainError.
    """

    shape = ()

    def __init__(self, fn, label="", fn_many=None, constant_value=None):
        self._fn = fn
        self._fn_many = fn_many
        self.label = label
        if constant_value is not None and self.shape:
            constant_value = np.asarray(constant_value, dtype=float)
        self.constant_value = constant_value

    def _read(self, value, lead=()):
        out = np.asarray(value, dtype=float)
        want = lead + self.shape
        if out.shape == want:
            return out
        if lead and out.shape == self.shape:
            return np.broadcast_to(out, want).copy()
        if len(self.shape) < 2 and out.size == math.prod(want):
            return out.reshape(want)
        raise DomainError(f"{self.label or 'anonymous'}: expected a value "
                          f"of shape {want}, got {out.shape}")

    def eval(self, t, x):
        """The value at t: a float, or an array of the declared shape."""
        out = self._read(self._fn(float(t), x))
        return out if self.shape else float(out)

    def eval_many(self, ts, x):
        """One value per time of a sorted array: (m,) + shape."""
        ts = np.asarray(ts, dtype=float)
        if self._fn_many is not None:
            return self._read(self._fn_many(ts, x), ts.shape)
        vals = [self.eval(t, x) for t in ts]
        return np.array(vals, dtype=float).reshape(ts.shape + self.shape)

    def eval_family(self, t, fam):
        """The value at one time t on each row of a family: (rows,) + shape."""
        t = float(t)
        if self._fn is self._fn_many:
            return self._read(self._fn(t, fam), (fam.rows,))
        return np.array([self.eval(t, fam.row(r)) for r in range(fam.rows)])

    def __repr__(self):
        return f"<{type(self).__name__} {self.label or 'anonymous'}>"


class VectorFunctional(Functional):
    """R^k-valued non-anticipative map (t, path) -> (k,)."""

    def __init__(self, fn, dim_out, label="", fn_many=None, constant_value=None):
        self.dim_out = int(dim_out)
        self.shape = (self.dim_out,)
        super().__init__(fn, label=label, fn_many=fn_many,
                         constant_value=constant_value)


class DirectionField(VectorFunctional):
    """Direction for path-dependent flows: d-valued with a declared
    Lipschitz constant in the sup norm of stopped paths."""

    def __init__(self, fn, dim_out, lipschitz_K, label="", fn_many=None,
                 constant_value=None):
        super().__init__(fn, dim_out, label=label, fn_many=fn_many,
                         constant_value=constant_value)
        if lipschitz_K < 0:
            raise DomainError("lipschitz_K must be nonnegative")
        self.lipschitz_K = float(lipschitz_K)


class MatrixFunctional(Functional):
    """(d, m)-matrix-valued non-anticipative map: SDE diffusions and
    second derivatives."""

    def __init__(self, fn, shape, label="", fn_many=None, constant_value=None):
        self.shape = (int(shape[0]), int(shape[1]))
        super().__init__(fn, label=label, fn_many=fn_many,
                         constant_value=constant_value)


class FunctionalWithDerivatives(Functional):
    """Functional bundled with coded coinvariant derivatives.

    partial_t is the horizontal time derivative (a real), grad the vertical
    gradient (a (d,) VectorFunctional) and hess the second vertical
    derivative (a (d, d) MatrixFunctional); each is None when absent.  A
    missing grad/hess means the derivative genuinely does not exist (e.g. a
    running maximum), not that it was omitted.
    """

    def __init__(self, fn, label="", fn_many=None, partial_t=None, grad=None,
                 hess=None, constant_value=None):
        super().__init__(fn, label=label, fn_many=fn_many,
                         constant_value=constant_value)
        self.partial_t = partial_t
        self.grad = grad
        self.hess = hess


def _constant(value):
    """The one body of every constant functional: value at each time."""
    value = np.asarray(value, dtype=float)

    def body(ts, x):
        return np.full(np.shape(ts) + value.shape, value)

    return body


def constant_functional(c, label=None):
    c = float(c)
    value = _constant(c)
    return Functional(value, label=label or f"const({c})", fn_many=value,
                      constant_value=c)


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
    out[~pos] = x.eval(0.0)
    return out


# ---------------------------------------------------------------------------
# catalog: one body fn(ts, x) per functional, behind eval and eval_many


def eval_functional(axis=0, dim=1):
    """F(t, x) = x_axis(t)."""
    d = int(dim)
    a = int(axis)

    def value(ts, x):
        return x.eval(ts)[..., a]

    return FunctionalWithDerivatives(
        value, label=f"eval[{a}]", fn_many=value, partial_t=_zero(),
        grad=constant_direction(np.eye(d)[a]),
        hess=constant_matrix_field(np.zeros((d, d))))


def square_functional(axis=0, dim=1):
    """F(t, x) = x_axis(t)^2, squared as v * v in both routes."""
    d = int(dim)
    a = int(axis)

    def square(ts, x):
        v = x.eval(ts)[..., a]
        return v * v

    def twice(ts, x):
        return 2.0 * x.eval(ts)[..., a]

    return FunctionalWithDerivatives(
        square, label=f"square[{a}]", fn_many=square, partial_t=_zero(),
        grad=_at_entry(twice, (a,), d, f"2*eval[{a}]"),
        hess=constant_matrix_field(np.diag(2.0 * np.eye(d)[a])))


def integral_functional(axis=0, dim=1):
    """F(t, x) = integral of x_axis over [0, t].

    The stopped extension grows linearly at rate x_axis(t), so the
    horizontal time derivative is the current value; a vertical bump at t
    has measure zero, so the spatial derivative vanishes.
    """
    d = int(dim)
    a = int(axis)

    def integral(ts, x):
        return x.integral_prefix(ts)[..., a]

    return FunctionalWithDerivatives(
        integral, label=f"integral[{a}]", fn_many=integral,
        partial_t=eval_functional(a, d), grad=zero_direction(d),
        hess=constant_matrix_field(np.zeros((d, d))))


def running_avg_functional(axis=0, dim=1):
    """F(t, x) = (1/t) * integral of x_axis over [0, t]; x_axis(0) at t=0."""
    d = int(dim)
    a = int(axis)

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
    a = int(axis)

    def running_max(ts, x):
        return x.running_max_prefix(ts)[..., a]

    return FunctionalWithDerivatives(
        running_max, label=f"running_max[{a}]", fn_many=running_max,
        partial_t=_zero(), grad=None, hess=None)


def exp_eval_functional(axis=0, dim=1):
    """F(t, x) = exp(x_axis(t))."""
    d = int(dim)
    a = int(axis)

    def exp_eval(ts, x):
        return np.exp(x.eval(ts)[..., a])

    return FunctionalWithDerivatives(
        exp_eval, label=f"exp_eval[{a}]", fn_many=exp_eval,
        partial_t=_zero(),
        grad=_at_entry(exp_eval, (a,), d, f"grad exp_eval[{a}]"),
        hess=_at_entry(exp_eval, (a, a), d, f"hess exp_eval[{a}]"))


def require_derivatives(f):
    """Raise DomainError unless f carries partial_t, grad and hess."""
    for name in ("partial_t", "grad", "hess"):
        if getattr(f, name, None) is None:
            raise DomainError(f"{getattr(f, 'label', f)!r} lacks {name}; "
                              "a full derivative set is required")


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
    if name == "product":
        if dim not in (None, 2) or axis != 0:
            raise DomainError("product needs dimension 2 and no axis, not "
                              f"dim={dim}, axis={axis}")
        return product_functional()
    if name not in CATALOG:
        raise DomainError(f"unknown functional {name!r}; "
                          f"choices: {sorted(CATALOG) + ['product']}")
    dim = 1 if dim is None else dim
    if not 0 <= axis < dim:
        raise DomainError(f"axis {axis} outside dimension {dim}")
    return CATALOG[name](axis=axis, dim=dim)


# ---------------------------------------------------------------------------
# direction fields


def zero_direction(dim=1):
    return constant_direction(np.zeros(int(dim)), label="zero")


def constant_direction(vec, label=None):
    v = np.atleast_1d(np.asarray(vec, dtype=float))
    value = _constant(v)
    label = label or f"const({','.join(repr(float(c)) for c in v)})"
    return DirectionField(value, len(v), 0.0, label=label, fn_many=value,
                          constant_value=v)


def eval_direction(dim=1):
    """gamma(t, x) = x(t); Lipschitz constant 1 in the sup norm."""
    def value(ts, x):
        return x.eval(ts)

    return DirectionField(value, dim, 1.0, label="eval", fn_many=value)


def running_avg_direction(dim=1):
    """gamma(t, x) = running average of x over [0, t]; Lipschitz 1."""
    return DirectionField(running_mean, dim, 1.0, label="running_avg",
                          fn_many=running_mean)


def constant_matrix_field(mat):
    m = np.atleast_2d(np.asarray(mat, dtype=float))
    value = _constant(m)
    return MatrixFunctional(value, m.shape, label="const_matrix",
                            fn_many=value, constant_value=m)


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


def _check_probe(samples, dim, horizon):
    # a probe over no samples, or over paths with no coordinate, would
    # report a pass it never tested; a finite positive horizon is what
    # makes every grid the probes generate valid by construction
    if samples < 1:
        raise ConfigError("samples must be at least 1")
    if dim < 1:
        raise ConfigError("dim must be at least 1")
    horizon = float(horizon)
    if not np.isfinite(horizon):
        raise ConfigError(f"horizon must be finite, not {horizon}")
    if not horizon > 0:
        raise ConfigError(f"horizon must be positive, not {horizon}")


def _random_path(gen, dim, horizon, mode, n_lo=6, n_hi=40, box=None):
    n = int(gen.integers(n_lo, n_hi))
    inner = np.sort(gen.random(n)) * horizon
    inner = inner[(inner > 0) & (inner < horizon)]
    times = np.unique(np.concatenate([[0.0], inner, [horizon]]))
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
    future = times > t
    rand_values = values.copy()
    rand_values[future] = gen.normal(size=(future.sum(), path.dim))
    return pinned, grid_view(times, rand_values, path.interp_mode)


def probe_non_anticipative(F, dim=1, samples=200, seed=0, horizon=1.0):
    """Randomize the strict future of sampled paths and compare F values.

    Passes only if every discrepancy is exactly zero: the pinned control and
    the randomized path share all data on [0, t], so a genuinely
    non-anticipative functional computes bit-identical results.
    """
    _check_probe(samples, dim, horizon)
    gen = rng.substream(seed, 0)
    worst = 0.0
    failures = []
    for k in range(samples):
        mode = LINEAR if gen.random() < 0.5 else CADLAG
        path = _random_path(gen, dim, horizon, mode)
        t = float(gen.uniform(0.0, horizon * 0.999))
        pinned, randomized = _with_pinned_future(path, t, gen)
        d = abs(F.eval(t, pinned) - F.eval(t, randomized))
        if d > worst:
            worst = d
        if d > 0 and len(failures) < 10:
            failures.append((k, t, d))
    return ProbeReport(f"non_anticipative[{F.label}]", worst == 0.0, worst,
                       samples, failures)


def probe_boundedness(F, box_radius, dim=1, samples=200, seed=0, horizon=1.0):
    """Necessary-condition check that F maps box-bounded paths to bounded
    values: reports the max of |F(s, x)| over random paths confined to
    [-box_radius, box_radius]^d, with s running over grid times up to and
    including the horizon.  A non-finite value fails the probe."""
    _check_probe(samples, dim, horizon)
    if not 0.0 < 2.0 * box_radius < np.inf:
        raise ConfigError("box_radius must be positive, 2 * box_radius finite")
    gen = rng.substream(seed, 1)
    worst = 0.0
    where = None
    for k in range(samples):
        mode = LINEAR if gen.random() < 0.5 else CADLAG
        path = _random_path(gen, dim, horizon, mode, n_lo=64, n_hi=65,
                            box=box_radius)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.abs(F.eval_many(path.times, path))
        top = vals.max() if len(vals) else 0.0
        if np.isnan(top):
            top = np.inf
        if top > worst:
            worst = float(top)
            where = (k, float(path.times[int(np.nanargmax(vals))]))
    return ProbeReport(f"boundedness[{F.label}]", np.isfinite(worst), worst,
                       samples, [where] if where else [])


def probe_lipschitz(field, samples=200, seed=0, horizon=1.0, dim=None):
    """Empirical Lipschitz ratio of a DirectionField against its declared K.

    Samples stopped-path pairs sharing a grid and compares the field gap to
    the sup gap of the stopped paths."""
    d = field.dim_out if dim is None else dim
    _check_probe(samples, d, horizon)
    gen = rng.substream(seed, 2)
    worst = 0.0
    for _ in range(samples):
        mode = LINEAR if gen.random() < 0.5 else CADLAG
        x = _random_path(gen, d, horizon, mode)
        values = x.values + gen.normal(scale=0.5, size=x.values.shape)
        y = grid_view(x.times, values, mode)
        t = float(gen.uniform(horizon * 0.05, horizon))
        xs, ys = stop(x, t), stop(y, t)
        # x and y share their times, so either's knots are the union
        grid = xs.knots()
        gap = np.abs(xs.eval(grid) - ys.eval(grid)).max()
        if gap == 0.0:
            continue
        diff = np.abs(field.eval(t, xs) - field.eval(t, ys)).max()
        worst = max(worst, diff / gap)
    ok = worst <= field.lipschitz_K * (1 + 1e-9) or field.lipschitz_K == 0 \
        and worst == 0.0
    return ProbeReport(f"lipschitz[{field.label}]", ok, worst, samples)


def check_hessian_symmetry(F, samples=50, seed=0, dim=1, horizon=1.0,
                           tol=1e-12):
    """Verify coded second derivatives are symmetric at random points."""
    if F.hess is None:
        raise DomainError(f"{F.label}: second derivative absent")
    _check_probe(samples, dim, horizon)
    gen = rng.substream(seed, 3)
    worst = 0.0
    for _ in range(samples):
        mode = LINEAR if gen.random() < 0.5 else CADLAG
        x = _random_path(gen, dim, horizon, mode)
        t = float(gen.uniform(0.0, horizon))
        h = F.hess.eval(t, x)
        worst = max(worst, float(np.abs(h - h.T).max()))
    return ProbeReport(f"hessian_symmetry[{F.label}]", worst <= tol, worst,
                       samples)
