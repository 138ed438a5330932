"""Monte Carlo pricing of path payoffs and backward-equation checks.

An SDESpec bundles drift, diffusion, discount rate and terminal payoff.
`estimate_f` prices the payoff by Euler-Maruyama simulation from a given
(time, history) pair; `fk_residual` evaluates the backward-equation defect
of a candidate value functional; `martingale_check` tests the discounted
candidate along simulated paths, which catches wrong candidates without
knowing the true value.

Paths are simulated in blocks, each block one array of paths, and the
estimators read each block as a family (see ``paths``): the history before
the first grid time, shared by every row, then the block's rows, read once
per block for the payoff, the rate and a candidate.  Path i still draws
only from its own counter-based substream, so it depends only on (seed, i)
and is identical, bit for bit, whether it is simulated alone by
`simulate_sde` or in a block, and so is every value read from its row.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from ._kernels import left_prefix
from .errors import ConfigError, DomainError, NumericalError, \
    require_count, require_finite, require_finite_steps, require_grid, \
    require_reals, require_shape, require_time
from .flow import euler_steps
from .functionals import Functional, FunctionalWithDerivatives, \
    MatrixFunctional, VectorFunctional, constant_direction, \
    constant_functional, constant_matrix_field, eval_functional, \
    require_derivatives, square_functional, zero_direction
from .paths import LINEAR, SplicedPath, constant_path, require_path, stop


@dataclass
class SDESpec:
    """dX = drift dt + sigma dW, discount rate, terminal payoff at horizon.

    drift is a (d,) vector, sigma a (d, m) matrix, rate and payoff reals; a
    functional of another kind raises DomainError naming its field.
    """

    drift: VectorFunctional
    sigma: MatrixFunctional
    rate: Functional
    payoff: Functional
    horizon: float = 1.0

    def __post_init__(self):
        self.horizon = require_finite("horizon", self.horizon,
                                      error=DomainError)
        d = require_shape("drift", self.drift, (None,)).shape[0]
        require_shape("sigma", self.sigma, (d, None))
        require_shape("rate", self.rate, ())
        require_shape("payoff", self.payoff, ())

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


def _require_spec(spec):
    if not isinstance(spec, SDESpec):
        raise DomainError(f"spec must be an SDESpec, not {spec!r}")
    return spec


def _check_history(spec, t, x):
    """t as a float, checked with the history x against the SDE."""
    _require_spec(spec)
    require_path(x=x)
    if x.dim != spec.dim:
        raise DomainError(f"history is {x.dim}-dimensional, SDE is {spec.dim}")
    if x.horizon != spec.horizon:
        raise DomainError("history horizon must equal the SDE horizon")
    return require_time("t", t, spec.horizon)


# grid nodes held by one simulated block, summed over its paths: 252 paths
# of 64 steps.  Enough paths to spread the per-block work, and a bound on
# the block's memory however long the grid is.
_BLOCK_NODES = 2 ** 14


def _simulate_block(spec, grid, x, seed, first, count):
    """Euler-Maruyama paths first .. first+count-1 on an explicit grid, as a
    read-only (count, n+1, d) array of the values at the grid times.

    Row r depends only on (seed, first + r), so it is the same bit for bit
    in whatever block it is simulated.  Constant coefficients take one
    cumulative sum along time, which adds in order; otherwise the block
    steps as one live family through flow.euler_steps.  A block that is not
    finite at some grid time raises NumericalError.
    """
    n = len(grid) - 1
    dt = np.diff(grid)
    dw = rng.normal_block(seed, first, count, (n, spec.noise_dim))
    dw *= np.sqrt(dt)[:, None]
    start = x.eval(grid[0])
    values = np.empty((count, n + 1, spec.dim))
    values[:, 0] = start
    drift, sigma = spec.drift.constant_value, spec.sigma.constant_value
    if spec.has_constant_coeffs:
        inc = dt[:, None] * drift[None, :] + dw @ sigma.T
        values[:, 1:] = start + np.cumsum(inc, axis=1)
    else:
        euler_steps(x, grid, values.transpose(1, 0, 2), spec.drift,
                    spec.sigma, dw)
    require_finite_steps("a simulated path", grid, values.transpose(1, 0, 2))
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


def simulate_sde(spec, t, x, n_steps=64, seed=0, index=0, grid=None):
    """Simulate the SDE from (t, x) to the horizon.

    The returned path equals x on [0, t] exactly.  t == horizon returns x
    itself, after n_steps, seed and index are checked as at any other t.
    An explicit grid must run from t to the horizon.  A path that
    is not finite at some grid time raises NumericalError.
    """
    t = _check_history(spec, t, x)
    if grid is None:
        n_steps = require_count("n_steps", n_steps, 1)
        grid = np.linspace(t, spec.horizon, n_steps + 1)
    elif t < spec.horizon:   # no grid runs from the horizon to itself
        grid = require_grid("grid", grid, start=t, end=spec.horizon,
                            error=ConfigError)
    seed = rng.require_stream("seed", seed)
    index = rng.require_stream("index", index)
    if t == spec.horizon:
        return x
    values = _simulate_block(spec, grid, x, seed, index, 1)[0]
    return SplicedPath(x, float(grid[0]), grid, values, LINEAR)


@dataclass
class MCEstimate:
    value: float
    stderr: float
    n_paths: int

    def within(self, reference, k=3.0):
        require_finite("k", k)
        reference = require_reals("reference", reference, scalar=True)
        return abs(self.value - reference) <= k * self.stderr


def estimate_f(spec, t, x, n_paths=2000, n_steps=64, seed=0):
    """Monte Carlo value of the discounted payoff started from (t, x).

    At t == horizon no simulation happens and the payoff is returned with
    zero error, after every argument is checked as at any other t.  One
    path gives a value but no error bar: its stderr is NaN, so ``within``
    is False.  The rate is integrated with left rectangles on the
    simulation grid.  A value that is not finite, or a stderr of more
    than one path that is not, raises NumericalError: an overflow is no
    estimate.
    """
    t = _check_history(spec, t, x)
    n_paths = require_count("n_paths", n_paths, 1)
    n_steps = require_count("n_steps", n_steps, 1)
    seed = rng.require_stream("seed", seed)
    if t == spec.horizon:
        return _finite(MCEstimate(spec.payoff.eval(t, x), 0.0, 0))
    grid = np.linspace(t, spec.horizon, n_steps + 1)
    const_rate = spec.rate.constant_value
    if const_rate is not None:
        disc = float(np.exp(-const_rate * (spec.horizon - t)))
    ys = []
    for fam in _sample_blocks(spec, grid, x, seed, n_paths):
        if const_rate is None:
            disc = np.exp(-left_prefix(
                grid, spec.rate.eval_many(grid, fam).T)[-1])
        ys.append(disc * spec.payoff.eval(spec.horizon, fam))
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
    require_derivatives("f", f, _require_spec(spec).dim)
    t = _check_history(spec, t, x)
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
    drift and fails.  f must be a real functional.
    """
    _require_spec(spec)
    require_finite("k", k)
    require_shape("f", f, ())
    t_grid = require_grid("t_grid", t_grid)
    if not hasattr(x0, "eval"):
        x0 = constant_path(require_reals("x0", x0), horizon=spec.horizon,
                           dim=spec.dim)
    require_time("t_grid[0]", float(t_grid[0]), spec.horizon)
    require_path(x0=x0)     # where _check_history would name it x
    _check_history(spec, float(t_grid[0]), x0)
    require_time("t_grid[-1]", float(t_grid[-1]), spec.horizon)
    n_paths = require_count("n_paths", n_paths, 2)
    H = np.empty((n_paths, len(t_grid)))
    first = 0
    for fam in _sample_blocks(spec, t_grid, x0, seed, n_paths):
        disc = np.exp(-left_prefix(t_grid,
                                   spec.rate.eval_many(t_grid, fam).T))
        H[first:first + fam.rows] = disc.T * f.eval_many(t_grid, fam)
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
    T = require_finite("horizon", horizon, error=DomainError)

    def unit_noise(mu, rho, payoff):
        return SDESpec(constant_direction([mu]),
                       constant_matrix_field([[1.0]]),
                       constant_functional(rho), payoff, horizon=T)

    if name == "gauss_square":
        def value(ts, x):
            v = x.eval(ts)[..., 0]
            return v * v + (T - ts)

        payoff = square_functional()
        f = FunctionalWithDerivatives(
            value, label="square_plus_remaining", fn_many=value,
            partial_t=constant_functional(-1.0), grad=payoff.grad,
            hess=constant_matrix_field([[2.0]]))
        return unit_noise(0.0, 0.0, payoff), f
    if name == "drifted_linear":
        mu = 0.5

        def value(ts, x):
            return x.eval(ts)[..., 0] + mu * (T - ts)

        payoff = eval_functional()
        f = FunctionalWithDerivatives(
            value, label="linear_plus_drift", fn_many=value,
            partial_t=constant_functional(-mu), grad=payoff.grad,
            hess=payoff.hess)
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
