"""Non-anticipative functionals of (t, path) and randomized probes.

A Functional maps (t, x) to a real and may only read the path on [0, t];
that property is not enforceable statically, so `probe_non_anticipative`
checks it by randomizing the future.  Vector and matrix variants cover flow
directions and SDE coefficients.  The catalog at the bottom provides the
standard examples with coded coinvariant derivatives where they exist.
"""

import numpy as np

from . import rng
from .errors import ConfigError, DomainError
from .paths import CADLAG, LINEAR, GridPath, stop


class Functional:
    """Real-valued non-anticipative functional.

    fn(t, path) -> float.  fn_many, when given, evaluates a whole sorted
    time array against one path in a single call; the default falls back to
    a Python loop.  constant_value marks functionals that ignore (t, x)
    entirely, which lets downstream code pick exact fast paths.
    """

    def __init__(self, fn, label="", fn_many=None, constant_value=None):
        self._fn = fn
        self._fn_many = fn_many
        self.label = label
        self.constant_value = constant_value

    def eval(self, t, x):
        return float(self._fn(float(t), x))

    def eval_many(self, ts, x):
        ts = np.asarray(ts, dtype=float)
        if self._fn_many is not None:
            return np.asarray(self._fn_many(ts, x), dtype=float)
        return np.array([self._fn(float(t), x) for t in ts], dtype=float)

    def __repr__(self):
        return f"<Functional {self.label or 'anonymous'}>"


class VectorFunctional:
    """R^k-valued non-anticipative map (t, path) -> (k,)."""

    def __init__(self, fn, dim_out, label="", fn_many=None, constant_value=None):
        self._fn = fn
        self._fn_many = fn_many
        self.dim_out = int(dim_out)
        self.label = label
        self.constant_value = None if constant_value is None \
            else np.asarray(constant_value, dtype=float)

    def eval(self, t, x):
        out = np.asarray(self._fn(float(t), x), dtype=float).reshape(-1)
        if out.shape != (self.dim_out,):
            raise DomainError(f"{self.label}: expected ({self.dim_out},) value")
        return out

    def eval_many(self, ts, x):
        ts = np.asarray(ts, dtype=float)
        if self._fn_many is not None:
            out = np.asarray(self._fn_many(ts, x), dtype=float)
            return out.reshape(len(ts), self.dim_out)
        return np.stack([self.eval(t, x) for t in ts])

    def __repr__(self):
        return f"<VectorFunctional {self.label or 'anonymous'}>"


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


class MatrixFunctional:
    """(d, m)-matrix-valued non-anticipative map; SDE diffusion shape."""

    def __init__(self, fn, shape, label="", constant_value=None):
        self._fn = fn
        self.shape = (int(shape[0]), int(shape[1]))
        self.label = label
        self.constant_value = None if constant_value is None \
            else np.asarray(constant_value, dtype=float)

    def eval(self, t, x):
        out = np.asarray(self._fn(float(t), x), dtype=float)
        if out.shape != self.shape:
            raise DomainError(f"{self.label}: expected {self.shape} matrix")
        return out


class FunctionalWithDerivatives(Functional):
    """Functional bundled with coded coinvariant derivatives.

    partial_t is the horizontal time derivative, grad the list of d spatial
    derivatives, hess the d x d second derivatives (each a Functional, or
    None when absent).  A missing grad/hess means the derivative genuinely
    does not exist (e.g. a running maximum), not that it was omitted.
    """

    def __init__(self, fn, label="", fn_many=None, partial_t=None, grad=None,
                 hess=None, constant_value=None):
        super().__init__(fn, label=label, fn_many=fn_many,
                         constant_value=constant_value)
        self.partial_t = partial_t
        self.grad = grad
        self.hess = hess

    def grad_vector(self, t, x):
        if self.grad is None:
            raise DomainError(f"{self.label}: spatial derivative absent")
        return np.array([g.eval(t, x) for g in self.grad])

    def grad_many(self, ts, x):
        if self.grad is None:
            raise DomainError(f"{self.label}: spatial derivative absent")
        return np.stack([g.eval_many(ts, x) for g in self.grad], axis=1)

    def hess_matrix(self, t, x):
        if self.hess is None:
            raise DomainError(f"{self.label}: second derivative absent")
        return np.array([[h.eval(t, x) for h in row] for row in self.hess])

    def hess_many(self, ts, x):
        if self.hess is None:
            raise DomainError(f"{self.label}: second derivative absent")
        d = len(self.hess)
        cols = [[self.hess[i][j].eval_many(ts, x) for j in range(d)]
                for i in range(d)]
        return np.stack([np.stack(row, axis=1) for row in cols], axis=1)


def constant_functional(c, label=None):
    c = float(c)
    return Functional(lambda t, x: c, label=label or f"const({c})",
                      fn_many=lambda ts, x: np.full(len(ts), c),
                      constant_value=c)


def _zero(label="0"):
    return constant_functional(0.0, label)


def _zeros_hess(d):
    return [[_zero() for _ in range(d)] for _ in range(d)]


# ---------------------------------------------------------------------------
# catalog


def eval_functional(axis=0, dim=1):
    """F(t, x) = x_axis(t)."""
    d = int(dim)
    a = int(axis)
    grad = [constant_functional(1.0 if j == a else 0.0) for j in range(d)]
    return FunctionalWithDerivatives(
        lambda t, x: x.eval(t)[a],
        label=f"eval[{a}]",
        fn_many=lambda ts, x: x.eval(ts)[:, a],
        partial_t=_zero(),
        grad=grad,
        hess=_zeros_hess(d))


def square_functional(axis=0, dim=1):
    """F(t, x) = x_axis(t)^2."""
    d = int(dim)
    a = int(axis)
    grad = [Functional(lambda t, x: 2.0 * x.eval(t)[a],
                       fn_many=lambda ts, x: 2.0 * x.eval(ts)[:, a],
                       label=f"2*eval[{a}]") if j == a else _zero()
            for j in range(d)]
    hess = _zeros_hess(d)
    hess[a][a] = constant_functional(2.0)
    return FunctionalWithDerivatives(
        lambda t, x: x.eval(t)[a] ** 2,
        label=f"square[{a}]",
        fn_many=lambda ts, x: x.eval(ts)[:, a] ** 2,
        partial_t=_zero(),
        grad=grad,
        hess=hess)


def integral_functional(axis=0, dim=1):
    """F(t, x) = integral of x_axis over [0, t].

    The stopped extension grows linearly at rate x_axis(t), so the
    horizontal time derivative is the current value; a vertical bump at t
    has measure zero, so the spatial derivative vanishes.
    """
    d = int(dim)
    a = int(axis)
    return FunctionalWithDerivatives(
        lambda t, x: x.integral_prefix(t)[a],
        label=f"integral[{a}]",
        fn_many=lambda ts, x: x.integral_prefix(ts)[:, a],
        partial_t=Functional(lambda t, x: x.eval(t)[a],
                             fn_many=lambda ts, x: x.eval(ts)[:, a],
                             label=f"eval[{a}]"),
        grad=[_zero() for _ in range(d)],
        hess=_zeros_hess(d))


def _running_avg_value(ts, x, a):
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty(len(ts))
    pos = ts > 0.0
    if np.any(pos):
        out[pos] = x.integral_prefix(ts[pos])[:, a] / ts[pos]
    if np.any(~pos):
        out[~pos] = x.eval(0.0)[a]
    return out


def running_avg_functional(axis=0, dim=1):
    """F(t, x) = (1/t) * integral of x_axis over [0, t]; x_axis(0) at t=0."""
    d = int(dim)
    a = int(axis)

    def dt(t, x):
        # stopped extension: d/dh [(t*avg + h*x(t)) / (t+h)] at h=0
        if t <= 0.0:
            return 0.0
        return (x.eval(t)[a] - _running_avg_value(t, x, a)[0]) / t

    return FunctionalWithDerivatives(
        lambda t, x: _running_avg_value(t, x, a)[0],
        label=f"running_avg[{a}]",
        fn_many=lambda ts, x: _running_avg_value(ts, x, a),
        partial_t=Functional(dt, label=f"d_t running_avg[{a}]"),
        grad=[_zero() for _ in range(d)],
        hess=_zeros_hess(d))


def running_max_functional(axis=0, dim=1):
    """F(t, x) = max of x_axis over [0, t]; no spatial derivative exists."""
    a = int(axis)
    return FunctionalWithDerivatives(
        lambda t, x: x.running_max_prefix(t)[a],
        label=f"running_max[{a}]",
        fn_many=lambda ts, x: x.running_max_prefix(ts)[:, a],
        partial_t=_zero(),
        grad=None,
        hess=None)


def exp_eval_functional(axis=0, dim=1):
    """F(t, x) = exp(x_axis(t))."""
    d = int(dim)
    a = int(axis)

    def scaled(c):
        return Functional(lambda t, x: c * np.exp(x.eval(t)[a]),
                          fn_many=lambda ts, x: c * np.exp(x.eval(ts)[:, a]),
                          label=f"{c}*exp_eval[{a}]")

    grad = [scaled(1.0) if j == a else _zero() for j in range(d)]
    hess = _zeros_hess(d)
    hess[a][a] = scaled(1.0)
    return FunctionalWithDerivatives(
        lambda t, x: np.exp(x.eval(t)[a]),
        label=f"exp_eval[{a}]",
        fn_many=lambda ts, x: np.exp(x.eval(ts)[:, a]),
        partial_t=_zero(),
        grad=grad,
        hess=hess)


def product_functional():
    """F(t, x) = x_1(t) * x_2(t) on two-dimensional paths."""
    grad = [Functional(lambda t, x: x.eval(t)[1],
                       fn_many=lambda ts, x: x.eval(ts)[:, 1], label="eval[1]"),
            Functional(lambda t, x: x.eval(t)[0],
                       fn_many=lambda ts, x: x.eval(ts)[:, 0], label="eval[0]")]
    hess = [[_zero(), constant_functional(1.0)],
            [constant_functional(1.0), _zero()]]
    return FunctionalWithDerivatives(
        lambda t, x: x.eval(t)[0] * x.eval(t)[1],
        label="product",
        fn_many=lambda ts, x: x.eval(ts)[:, 0] * x.eval(ts)[:, 1],
        partial_t=_zero(),
        grad=grad,
        hess=hess)


CATALOG = {
    "eval": eval_functional,
    "square": square_functional,
    "integral": integral_functional,
    "running_avg": running_avg_functional,
    "running_max": running_max_functional,
    "exp_eval": exp_eval_functional,
}


def builtin(name, axis=0, dim=1):
    """Catalog lookup by name; 'product' is fixed at dim=2."""
    if name == "product":
        return product_functional()
    if name not in CATALOG:
        raise DomainError(f"unknown functional {name!r}; "
                          f"choices: {sorted(CATALOG) + ['product']}")
    if not 0 <= axis < dim:
        raise DomainError(f"axis {axis} outside dimension {dim}")
    return CATALOG[name](axis=axis, dim=dim)


# ---------------------------------------------------------------------------
# direction fields


def zero_direction(dim=1):
    z = np.zeros(int(dim))
    return DirectionField(lambda t, x: z, dim, 0.0, label="zero",
                          fn_many=lambda ts, x: np.zeros((len(ts), len(z))),
                          constant_value=z)


def constant_direction(vec):
    v = np.atleast_1d(np.asarray(vec, dtype=float))
    return DirectionField(lambda t, x: v, len(v), 0.0,
                          label=f"const({','.join(repr(c) for c in v)})",
                          fn_many=lambda ts, x: np.broadcast_to(
                              v, (len(ts), len(v))).copy(),
                          constant_value=v)


def eval_direction(dim=1):
    """gamma(t, x) = x(t); Lipschitz constant 1 in the sup norm."""
    return DirectionField(lambda t, x: x.eval(t), dim, 1.0, label="eval",
                          fn_many=lambda ts, x: x.eval(ts))


def running_avg_direction(dim=1):
    """gamma(t, x) = running average of x over [0, t]; Lipschitz 1."""
    d = int(dim)

    def avg_many(ts, x):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((len(ts), d))
        pos = ts > 0.0
        if np.any(pos):
            out[pos] = x.integral_prefix(ts[pos]) / ts[pos, None]
        if np.any(~pos):
            out[~pos] = x.eval(0.0)
        return out

    return DirectionField(lambda t, x: avg_many(np.array([t]), x)[0],
                          d, 1.0, label="running_avg", fn_many=avg_many)


def constant_matrix_field(mat):
    m = np.atleast_2d(np.asarray(mat, dtype=float))
    return MatrixFunctional(lambda t, x: m, m.shape, label="const_matrix",
                            constant_value=m)


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


def _check_probe(samples, dim):
    # a probe over no samples, or over paths with no coordinate, would
    # report a pass it never tested
    if samples < 1:
        raise ConfigError("samples must be at least 1")
    if dim < 1:
        raise ConfigError("dim must be at least 1")


def _random_path(gen, dim, horizon, mode, n_lo=6, n_hi=40, box=None):
    n = int(gen.integers(n_lo, n_hi))
    inner = np.sort(gen.random(n)) * horizon
    inner = inner[(inner > 0) & (inner < horizon)]
    times = np.unique(np.concatenate([[0.0], inner, [horizon]]))
    if box is None:
        values = gen.normal(size=(len(times), dim))
    else:
        values = gen.uniform(-box, box, size=(len(times), dim))
    return GridPath(times, values, mode)


def _with_pinned_future(path, t, gen, box=None):
    """(pinned, randomized) pair: identical on [0, t], the second with fresh
    values at every grid node strictly after t."""
    times = path.times
    if t in times:
        new_times = times.copy()
        new_values = path.values.copy()
    else:
        k = np.searchsorted(times, t)
        new_times = np.insert(times, k, t)
        new_values = np.insert(path.values, k, path.eval(t), axis=0)
    pinned = GridPath(new_times, new_values, path.interp_mode)
    future = new_times > t
    rand_values = new_values.copy()
    if box is None:
        rand_values[future] = gen.normal(size=(future.sum(), path.dim))
    else:
        rand_values[future] = gen.uniform(-box, box,
                                          size=(future.sum(), path.dim))
    return pinned, GridPath(new_times, rand_values, path.interp_mode)


def probe_non_anticipative(F, dim=1, samples=200, seed=0, horizon=1.0):
    """Randomize the strict future of sampled paths and compare F values.

    Passes only if every discrepancy is exactly zero: the pinned control and
    the randomized path share all data on [0, t], so a genuinely
    non-anticipative functional computes bit-identical results.
    """
    _check_probe(samples, dim)
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


def probe_boundedness(F, box_radius, dim=1, samples=200, seed=0, horizon=1.0,
                      grid_n=64):
    """Necessary-condition check that F maps box-bounded paths to bounded
    values: reports the max of |F(s, x)| over random paths confined to
    [-box_radius, box_radius]^d, with s running over grid times up to and
    including the horizon.  A non-finite value fails the probe."""
    _check_probe(samples, dim)
    if not 0.0 < box_radius < np.inf:
        raise ConfigError("box_radius must be positive and finite")
    gen = rng.substream(seed, 1)
    worst = 0.0
    where = None
    for k in range(samples):
        mode = LINEAR if gen.random() < 0.5 else CADLAG
        path = _random_path(gen, dim, horizon, mode, n_lo=grid_n,
                            n_hi=grid_n + 1, box=box_radius)
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
    _check_probe(samples, d)
    gen = rng.substream(seed, 2)
    worst = 0.0
    for _ in range(samples):
        mode = LINEAR if gen.random() < 0.5 else CADLAG
        x = _random_path(gen, d, horizon, mode)
        values = x.values + gen.normal(scale=0.5, size=x.values.shape)
        y = GridPath(x.times, values, mode)
        t = float(gen.uniform(horizon * 0.05, horizon))
        xs, ys = stop(x, t), stop(y, t)
        grid = np.unique(np.concatenate([xs.knots(), ys.knots()]))
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
    _check_probe(samples, dim)
    gen = rng.substream(seed, 3)
    worst = 0.0
    for _ in range(samples):
        mode = LINEAR if gen.random() < 0.5 else CADLAG
        x = _random_path(gen, dim, horizon, mode)
        t = float(gen.uniform(0.0, horizon))
        h = F.hess_matrix(t, x)
        worst = max(worst, float(np.abs(h - h.T).max()))
    return ProbeReport(f"hessian_symmetry[{F.label}]", worst <= tol, worst,
                       samples)
