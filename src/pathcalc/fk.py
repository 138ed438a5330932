"""Monte Carlo pricing of path payoffs and backward-equation checks.

An SDESpec bundles drift, diffusion, discount rate and terminal payoff.
`estimate_f` prices the payoff by Euler-Maruyama simulation from a given
(time, history) pair; `fk_residual` evaluates the backward-equation defect
of a candidate value functional; `martingale_check` tests the discounted
candidate along simulated paths, which catches wrong candidates without
knowing the true value.

Paths are simulated in blocks, each block one array of paths, and the
estimators read each block as a family (see ``paths``): the history before
the first grid time, shared by every row, then the block's rows.  The
payoff is one eval_family call per block, a rate or a candidate one call
per grid time.  Path i still draws only from its own counter-based
substream, so it depends only on (seed, i) and is identical, bit for bit,
whether it is simulated alone by `simulate_sde` or in a block, and so is
every value read from its row.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from ._kernels import left_prefix
from .errors import ConfigError, DomainError, NumericalError
from .functionals import Functional, FunctionalWithDerivatives, \
    MatrixFunctional, VectorFunctional, constant_direction, \
    constant_functional, constant_matrix_field, require_derivatives, \
    square_functional, zero_direction
from .paths import LINEAR, SplicedPath, constant_path, splice_view, stop


@dataclass
class SDESpec:
    """dX = drift dt + sigma dW, discount rate, terminal payoff at horizon."""

    drift: VectorFunctional
    sigma: MatrixFunctional
    rate: Functional
    payoff: Functional
    horizon: float = 1.0

    def __post_init__(self):
        self.horizon = float(self.horizon)
        if self.horizon <= 0:
            raise DomainError("horizon must be positive")
        if self.drift.dim_out != self.sigma.shape[0]:
            raise DomainError(
                f"drift is {self.drift.dim_out}-dimensional but sigma has "
                f"{self.sigma.shape[0]} rows")

    @property
    def dim(self):
        return self.drift.dim_out

    @property
    def noise_dim(self):
        return self.sigma.shape[1]

    @property
    def has_constant_coeffs(self):
        return (self.drift.constant_value is not None
                and self.sigma.constant_value is not None)


def _check_history(spec, t, x):
    if x.dim != spec.dim:
        raise DomainError(f"history is {x.dim}-dimensional, SDE is {spec.dim}")
    if x.horizon != spec.horizon:
        raise DomainError("history horizon must equal the SDE horizon")
    if not 0.0 <= t <= spec.horizon:
        raise DomainError(f"time {t} outside [0, {spec.horizon}]")


# grid nodes held by one simulated block, summed over its paths: 252 paths
# of 64 steps.  Enough paths to spread the per-block work, and a bound on
# the block's memory however long the grid is.
_BLOCK_NODES = 2 ** 14


def _simulate_block(spec, grid, x, seed, first, count):
    """Euler-Maruyama paths first .. first+count-1 on an explicit grid, as a
    read-only (count, n+1, d) array of the values at the grid times.

    Row r depends only on (seed, first + r), so it is the same bit for bit
    in whatever block it is simulated.  Constant coefficients take one
    cumulative sum along time, which adds in order; otherwise each row's
    coefficients see its live prefix step by step, a constant one by value.
    """
    n = len(grid) - 1
    dt = np.diff(grid)
    dw = rng.normal_block(seed, first, count, (n, spec.noise_dim)) \
        * np.sqrt(dt)[:, None]
    start = x.eval(grid[0])
    values = np.empty((count, n + 1, spec.dim))
    values[:, 0] = start
    drift, sigma = spec.drift.constant_value, spec.sigma.constant_value
    if spec.has_constant_coeffs:
        inc = dt[:, None] * drift[None, :] + dw @ sigma.T
        values[:, 1:] = start + np.cumsum(inc, axis=1)
    else:
        for row, row_dw in zip(values, dw):
            live = splice_view(x, grid[0], grid, row, LINEAR)
            for j, s in enumerate(grid[:-1]):
                live.seg.fill(j + 1)
                a = spec.drift.eval(s, live) if drift is None else drift
                sig = spec.sigma.eval(s, live) if sigma is None else sigma
                row[j + 1] = row[j] + (dt[j] * a + sig @ row_dw[j])
    values.setflags(write=False)
    return values


def _sample_blocks(spec, grid, x, seed, n_paths):
    """Paths 0 .. n_paths-1 in order, one family per simulated block: x
    before grid[0], the block's rows after it."""
    size = max(1, _BLOCK_NODES // len(grid))
    for first in range(0, n_paths, size):
        block = _simulate_block(spec, grid, x, seed, first,
                                min(size, n_paths - first))
        yield SplicedPath(x, grid[0], grid, block.transpose(1, 0, 2), LINEAR)


def _rate_integral(rate, grid, fam):
    """Integral of the rate up to each grid time on each row of fam, as an
    (n+1, k) array: left rectangles, each column summed in time order."""
    rv = np.stack([rate.eval_family(s, fam) for s in grid])
    return left_prefix(grid, rv)


def simulate_sde(spec, t, x, n_steps=64, seed=0, index=0, grid=None):
    """Simulate the SDE from (t, x) to the horizon.

    The returned path equals x on [0, t] exactly.  t == horizon returns x
    itself.  An explicit grid must run from t to the horizon.
    """
    t = float(t)
    _check_history(spec, t, x)
    if t == spec.horizon:
        return x
    if grid is None:
        if n_steps < 1:
            raise ConfigError("n_steps must be at least 1")
        grid = np.linspace(t, spec.horizon, int(n_steps) + 1)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 2:
            raise ConfigError("grid must be a 1-d array of at least 2 times, "
                              f"not of shape {grid.shape}")
        if grid[0] != t or grid[-1] != spec.horizon \
                or not np.all(np.diff(grid) > 0):
            raise ConfigError("grid must increase from t to the horizon")
    values = _simulate_block(spec, grid, x, seed, index, 1)[0]
    return SplicedPath(x, float(grid[0]), grid, values, LINEAR)


@dataclass
class MCEstimate:
    value: float
    stderr: float
    n_paths: int

    def within(self, reference, k=3.0):
        return abs(self.value - reference) <= k * self.stderr


def estimate_f(spec, t, x, n_paths=2000, n_steps=64, seed=0):
    """Monte Carlo value of the discounted payoff started from (t, x).

    At t == horizon no simulation happens and the payoff is returned with
    zero error.  One path gives a value but no error bar: its stderr is NaN,
    so ``within`` is False.  The rate is integrated with left rectangles on
    the simulation grid.  A value that is not finite, or a stderr of more
    than one path that is not, raises NumericalError: an overflow is no
    estimate.
    """
    t = float(t)
    _check_history(spec, t, x)
    if n_paths < 1:
        raise ConfigError("n_paths must be at least 1")
    if n_steps < 1:
        raise ConfigError("n_steps must be at least 1")
    if t == spec.horizon:
        return _finite(MCEstimate(spec.payoff.eval(t, x), 0.0, 0))
    grid = np.linspace(t, spec.horizon, int(n_steps) + 1)
    const_rate = spec.rate.constant_value
    if const_rate is not None:
        disc = float(np.exp(-const_rate * (spec.horizon - t)))
    ys = []
    for fam in _sample_blocks(spec, grid, x, seed, n_paths):
        if const_rate is None:
            disc = np.exp(-_rate_integral(spec.rate, grid, fam)[-1])
        ys.append(disc * spec.payoff.eval_family(spec.horizon, fam))
    ys = np.concatenate(ys)
    value = float(ys.mean())
    stderr = float(ys.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 \
        else np.nan
    return _finite(MCEstimate(value, stderr, n_paths))


def _finite(est):
    if not np.isfinite(est.value) \
            or est.n_paths > 1 and not np.isfinite(est.stderr):
        raise NumericalError(f"Monte Carlo estimate is not finite: value "
                             f"{est.value}, stderr {est.stderr}")
    return est


def fk_residual(f, spec, t, x):
    """Backward-equation defect of a candidate value functional at (t, x):

        d_t f + <drift, grad f> - rate * f + (1/2) tr(hess f sigma sigma^T)

    evaluated on the stopped history.  Zero along solutions.
    """
    require_derivatives(f)
    t = float(t)
    _check_history(spec, t, x)
    xt = stop(x, t)
    pt = f.partial_t.eval(t, xt)
    grad = f.grad.eval(t, xt)
    hess = f.hess.eval(t, xt)
    a = spec.drift.eval(t, xt)
    sig = spec.sigma.eval(t, xt)
    r = spec.rate.eval(t, xt)
    val = f.eval(t, xt)
    return float(pt + a @ grad - r * val
                 + 0.5 * np.trace(hess @ (sig @ sig.T)))


@dataclass
class MartingaleReport:
    """Per-step drift of the discounted candidate along simulated paths."""

    times: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    ok_steps: np.ndarray

    @property
    def passed(self):
        return bool(self.ok_steps.all())

    @property
    def worst_z(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(self.means) / self.stderrs
        z[self.stderrs == 0.0] = np.where(
            self.means[self.stderrs == 0.0] == 0.0, 0.0, np.inf)
        return float(z.max())


def martingale_check(spec, f, t_grid, x0, n_paths=2000, seed=0, k=3.0):
    """Check that exp(-int r) f(t, X) has no drift along simulated paths.

    x0 is the initial history (a path, or a value promoted to a constant
    path); simulation starts at t_grid[0].  Each step passes when the mean
    increment is within k standard errors of zero; a zero standard error
    demands an exactly zero mean.  A wrong candidate shows a systematic
    drift and fails.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or not np.all(np.diff(t_grid) > 0):
        raise DomainError("t_grid must be strictly increasing, >= 2 times")
    if not hasattr(x0, "eval"):
        x0 = constant_path(x0, horizon=spec.horizon, dim=spec.dim)
    _check_history(spec, float(t_grid[0]), x0)
    if t_grid[-1] > spec.horizon * (1 + 1e-12):
        raise DomainError("t_grid exceeds the horizon")
    if n_paths < 2:
        raise ConfigError("martingale check needs n_paths >= 2")
    H = np.empty((n_paths, len(t_grid)))
    first = 0
    for fam in _sample_blocks(spec, t_grid, x0, seed, n_paths):
        disc = np.exp(-_rate_integral(spec.rate, t_grid, fam))
        vals = np.stack([f.eval_family(s, fam) for s in t_grid])
        H[first:first + fam.rows] = (disc * vals).T
        first += fam.rows
    D = np.diff(H, axis=1)
    means = D.mean(axis=0)
    stderrs = D.std(axis=0, ddof=1) / np.sqrt(n_paths)
    ok = np.where(stderrs > 0.0, np.abs(means) <= k * stderrs, means == 0.0)
    return MartingaleReport(t_grid, means, stderrs, ok)


# ---------------------------------------------------------------------------
# closed-form benchmarks: (spec, value functional) pairs with residual 0


def benchmark(name, horizon=1.0):
    """Named SDE benchmarks whose value functionals are exact.

    gauss_square:   dX = dW, f(t, x) = x(t)^2 + (T - t), payoff X_T^2.
    drifted_linear: dX = mu dt + dW, f = x(t) + mu (T - t), payoff X_T.
    discount_const: dX = dW, rate rho, payoff 1, f = exp(-rho (T - t)).
    """
    T = float(horizon)

    def unit_noise(mu, rho, payoff):
        return SDESpec(constant_direction([mu]),
                       constant_matrix_field([[1.0]]),
                       constant_functional(rho), payoff, horizon=T)

    if name == "gauss_square":
        def value(ts, x):
            v = x.eval(ts)[..., 0]
            return v * v + (T - ts)

        def twice(ts, x):
            return 2.0 * x.eval(ts)[..., :1]

        f = FunctionalWithDerivatives(
            value, label="square_plus_remaining", fn_many=value,
            partial_t=constant_functional(-1.0),
            grad=VectorFunctional(twice, 1, label="2*eval", fn_many=twice),
            hess=constant_matrix_field([[2.0]]))
        return unit_noise(0.0, 0.0, square_functional()), f
    if name == "drifted_linear":
        mu = 0.5

        def coordinate(ts, x):
            return x.eval(ts)[..., 0]

        def value(ts, x):
            return coordinate(ts, x) + mu * (T - ts)

        payoff = Functional(coordinate, label="eval", fn_many=coordinate)
        f = FunctionalWithDerivatives(
            value, label="linear_plus_drift", fn_many=value,
            partial_t=constant_functional(-mu),
            grad=constant_direction([1.0]),
            hess=constant_matrix_field([[0.0]]))
        return unit_noise(mu, 0.0, payoff), f
    if name == "discount_const":
        rho = 0.25

        def value(ts, x):
            return np.exp(-rho * (T - ts))

        def rate(ts, x):
            return rho * value(ts, x)

        f = FunctionalWithDerivatives(
            value, label="pure_discount", fn_many=value,
            partial_t=Functional(rate, label="rho*discount", fn_many=rate),
            grad=zero_direction(1), hess=constant_matrix_field([[0.0]]))
        return unit_noise(0.0, rho, constant_functional(1.0)), f
    raise DomainError(f"unknown benchmark {name!r}; choices: gauss_square, "
                      "drifted_linear, discount_const")
