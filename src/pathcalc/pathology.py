"""A functional with directional derivatives but no vertical one.

Everything here is one-dimensional and built around

    F(t, x) = f(x(t) - 2 * mean(x, [0, t])),   f(y) = y * sin(log|y|).

f has no derivative at 0, but f(y)/y stays bounded, so F is Lipschitz in
the path yet fails to be vertically differentiable anywhere on the surface
x(t) = 2 * mean.  Extending the path moves the argument of f off zero at a
computable linear rate alpha; directions with alpha = 0 stay on the surface
to first order and differentiate cleanly, every other direction makes the
quotient ride sin(log) forever.

The slope-1 ramp is the workhorse example: it lies on the surface at every
t, and all the quantities below have closed forms on it.
"""

from dataclasses import dataclass

import numpy as np

from .deriv import QuotientLadder, d_gamma, d_horizontal, d_space, \
    study_path, time_study, OSCILLATING
from .errors import DomainError
from .functionals import DirectionField, Functional, constant_direction, \
    running_mean
from .paths import ramp_path, stop

GUARD = 1e-300        # |y| below this evaluates f as 0
PHI_TOL = 1e-10       # |surface value| below this counts as on-surface
ALPHA_TOL = 1e-6      # |alpha| below this counts as a regular direction
T_FLOOR = 1e-3        # smallest time the 1/t direction fields accept


def _away_from_zero(f, y):
    # f(y, log|y|) where |y| >= GUARD and 0 elsewhere; a float for a scalar
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    ok = np.abs(y) >= GUARD
    if np.any(ok):
        out[ok] = f(y[ok], np.log(np.abs(y[ok])))
    return out if out.ndim else float(out)


def sin_log(y):
    """f(y) = y * sin(log|y|), with f(0) = 0; bounded by |y|."""
    return _away_from_zero(lambda v, lv: v * np.sin(lv), y)


def sin_log_prime(y):
    """f'(y) = sin(log|y|) + cos(log|y|) away from 0; no limit at 0."""
    return _away_from_zero(lambda v, lv: np.sin(lv) + np.cos(lv), y)


def _require_1d(x):
    if x.dim != 1:
        raise DomainError("this construction is one-dimensional")


def _mean(ts, x):
    _require_1d(x)
    return running_mean(ts, x)[..., 0]


def path_mean(ts, x):
    """mean of x over [0, t] per time; x(0) at t = 0.  Returns (m,)."""
    return np.atleast_1d(_mean(ts, x))


def _gap(ts, x):
    return x.eval(ts)[..., 0] - 2.0 * _mean(ts, x)


def surface_value(ts, x):
    """Phi(t, x) = x(t) - 2 * mean; the surface is its zero set."""
    return np.atleast_1d(_gap(ts, x))


def mean_functional():
    return Functional(_mean, label="path_mean", fn_many=_mean)


def surface_functional():
    return Functional(_gap, label="surface_gap", fn_many=_gap)


def counterexample_functional():
    """F = sin_log of the surface gap; |F(t,x)| <= 3 sup|x|."""
    def value(ts, x):
        return sin_log(_gap(ts, x))

    return Functional(value, label="sinlog_gap", fn_many=value)


def _over_time(numerator, t_floor, lipschitz, name):
    """1-d direction field 2 * numerator(t, x) / t for t >= t_floor, with
    Lipschitz constant lipschitz / t_floor."""
    tf = float(t_floor)
    if not tf > 0:
        raise DomainError("t_floor must be positive")

    def value(ts, x):
        _require_1d(x)
        ts = np.asarray(ts, dtype=float)
        if (ts < tf).any():
            raise DomainError(f"direction needs t >= {tf}")
        return 2.0 * numerator(ts, x) / ts[..., None]

    return DirectionField(value, 1, lipschitz / tf,
                          label=f"{name}(t_floor={tf:g})", fn_many=value)


def constraint_direction(t_floor=T_FLOOR):
    """gamma(t, x) = 2 * mean / t: tangent to the surface.

    Defined for t >= t_floor only; Lipschitz constant 2 / t_floor.  Pick
    t_floor no larger than the smallest time a study will touch; a smaller
    floor inflates the declared constant and shrinks the flow solver's
    contraction window for no benefit.
    """
    return _over_time(running_mean, t_floor, 2.0, "surface_tangent")


def gamma_star(t_floor=T_FLOOR):
    """gamma*(t, x) = 2 (x(t) - mean) / t: regular on and off the surface.

    Along its flow the surface gap is constant to first order everywhere,
    so D_{gamma*} F exists (and is 0) at every point with t >= t_floor.
    Lipschitz constant 4 / t_floor.
    """
    return _over_time(lambda ts, x: x.eval(ts) - running_mean(ts, x),
                      t_floor, 4.0, "gamma_star")


def expansion_rate(gamma, t, x):
    """alpha: first-order rate of the surface gap along gamma's flow.

    d/d eta [Phi(t + eta)] at eta = 0 equals gamma(t,x) - 2(x(t) - mean)/t,
    covering the horizontal case with gamma = 0.
    """
    t = float(t)
    if t <= 0:
        raise DomainError("expansion rate needs t > 0")
    xt = stop(x, t)
    x0 = xt.eval(t)[0]
    m0 = path_mean(t, xt)[0]
    g0 = 0.0 if gamma is None else float(gamma.eval(t, xt)[0])
    return float(g0 - 2.0 * (x0 - m0) / t)


@dataclass
class ExpansionCheck:
    """Measured vs predicted first-order rate of the surface gap."""

    t0: float
    alpha: float            # predicted rate
    alpha_hat: float        # ladder estimate (nan unless converged)
    verdict: str
    report: object          # the full DerivativeReport on the rate ladder
    slope: float            # log-log order of |alpha_hat_k - alpha|; ~1

    @property
    def ok(self):
        return self.verdict == "converged" and \
            abs(self.alpha_hat - self.alpha) <= 1e-3


def expansion_check(t0, x, gamma=None):
    """Ladder study of (Phi(t0+eta) - Phi(t0)) / eta against the predicted
    rate.  gamma=None means the horizontal (frozen) extension."""
    _require_1d(x)
    t0 = float(t0)
    lad = QuotientLadder()
    alpha = expansion_rate(gamma, t0, x)
    path = study_path(x, t0, gamma, lad)
    rep = time_study(surface_functional(), t0, path, lad, f"gap_rate@{t0:g}")
    err = np.abs(rep.quotients - alpha)
    fit = err > 1e-13
    if fit.sum() >= 3:
        slope = float(np.polyfit(np.log(rep.etas[fit]), np.log(err[fit]),
                                 1)[0])
    else:
        slope = np.nan
    return ExpansionCheck(t0, alpha, rep.estimate, rep.verdict, rep, slope)


@dataclass
class DirectionCheck:
    """One directional-derivative study of F, judged against theory."""

    t0: float
    phi0: float
    alpha: float
    on_surface: bool
    expected: str           # converged | oscillating
    reference: float        # limit value when expected converged
    report: object
    ok: bool


def check_direction(gamma, t0, x):
    """Run d_gamma on F and compare verdict and value with the expansion
    theory: alpha = 0 differentiates (limit f'(phi0) * alpha, which is 0 on
    the surface), alpha != 0 on the surface oscillates."""
    F = counterexample_functional()
    t0 = float(t0)
    xt = stop(x, t0)
    phi0 = surface_value(t0, xt)[0]
    alpha = expansion_rate(gamma, t0, x)
    rep = d_gamma(F, gamma, t0, x)
    on_surface = abs(phi0) <= PHI_TOL
    if on_surface and abs(alpha) > ALPHA_TOL:
        expected, reference = OSCILLATING, np.nan
        ok = rep.verdict == OSCILLATING
    else:
        expected = "converged"
        reference = 0.0 if on_surface else sin_log_prime(phi0) * alpha
        tol = 1e-3 * max(1.0, abs(reference))
        ok = rep.converged and abs(rep.estimate - reference) <= tol
    return DirectionCheck(t0, phi0, alpha, on_surface, expected,
                          float(reference), rep, ok)


@dataclass
class RampBattery:
    """Full counterexample battery on the slope-1 ramp."""

    t0: float
    spatial: object            # forward vertical quotients, on the surface
    spatial_max_err: float     # max |quotient - sin(log h)| over the ladder
    horizontal: object         # frozen-extension study; oscillates
    constraint: DirectionCheck     # surface tangent; converges to 0
    star_on: DirectionCheck        # gamma* on the surface
    star_off: DirectionCheck       # gamma* off the surface
    rogue: DirectionCheck          # constant direction with alpha != 0
    expansion: ExpansionCheck      # horizontal rate; alpha = -1 on the ramp

    @property
    def passed(self):
        return (self.spatial_max_err <= 1e-12
                and self.horizontal.verdict == OSCILLATING
                and self.constraint.ok and self.star_on.ok
                and self.star_off.ok and self.rogue.ok and self.expansion.ok)


def ramp_battery(t0=0.5, horizon=1.0, n=1025, t_floor=None):
    """Run every counterexample check on the ramp x(s) = s.

    The ramp sits on the surface at every t (mean = t/2 exactly on a dyadic
    grid), so with dyadic t0 and dyadic bumps the vertical quotient equals
    sin(log h) to the last bit.  The off-surface point is the ramp shifted
    up by 1/4, whose surface gap is exactly -1/4.
    """
    t0 = float(t0)
    if not 0.0 < t0 < horizon:
        raise DomainError("need 0 < t0 < horizon")
    tf = t_floor if t_floor is not None else max(T_FLOOR, t0 / 2.0)
    F = counterexample_functional()
    ramp = ramp_path(1.0, horizon, n=n)
    shifted = ramp_path(1.0, horizon, n=n, offset=0.25)

    spatial = d_space(F, 0, t0, ramp, scheme="forward")
    oracle = np.sin(np.log(spatial.etas))
    spatial_max_err = float(np.abs(spatial.quotients - oracle).max())

    horizontal = d_horizontal(F, t0, ramp)
    constraint = check_direction(constraint_direction(tf), t0, ramp)
    star_on = check_direction(gamma_star(tf), t0, ramp)
    star_off = check_direction(gamma_star(tf), t0, shifted)
    rogue = check_direction(constant_direction([2.0]), t0, ramp)
    expansion = expansion_check(t0, ramp, gamma=None)
    return RampBattery(t0, spatial, spatial_max_err, horizontal, constraint,
                       star_on, star_off, rogue, expansion)
