"""Difference-quotient derivatives of path functionals.

Each derivative is a study over a geometric ladder of step sizes, judged
into one of three verdicts rather than trusted blindly:

* converged     - the last quotients agree to a scale-aware tolerance; the
                  estimate is a Richardson-extrapolated tail mean.
* oscillating   - the tail spread is large and the quotient differences
                  keep changing sign down the ladder (the signature of a
                  genuinely divergent limit, not of noise).
* inconclusive  - neither pattern is clean.

Every time ladder is one time_study, along the stopped path or one flow
solve whose grid holds every ladder point.  Every vertical ladder forms its
quotients from one bump_values read of F on the bumps at t.  Both reject a
ladder whose smallest step no longer moves t or the held value.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, IllConditionedError, \
    NonDifferentiableError
from .flow import solve_flow
from .functionals import Functional, FunctionalWithDerivatives, \
    MatrixFunctional, VectorFunctional
from .paths import StoppedPath, stop, stop_exactly

TAIL = 5                 # quotients entering the spread/estimate
CONV_REL = 1e-4          # spread tolerance, relative to max(1, |median|)
OSC_REL = 1e-2           # spread floor for the oscillating verdict
MIN_ALTERNATIONS = 3     # sign changes of successive quotient differences

CONVERGED = "converged"
OSCILLATING = "oscillating"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class QuotientLadder:
    """Geometric step ladder eta0 * ratio**k, k = 0..count-1."""

    eta0: float = 1e-2
    ratio: float = 0.5
    count: int = 20

    def __post_init__(self):
        if not 0.0 < self.eta0 < np.inf:
            raise ConfigError("eta0 must be positive and finite")
        if not 0.0 < self.ratio < 1.0:
            raise ConfigError("ratio must lie in (0, 1)")
        if self.count < TAIL + 1:
            raise ConfigError(f"count must be at least {TAIL + 1}")
        # a float, before steps() allocates count of them
        if not self.eta0 * self.ratio ** (self.count - 1) > 0:
            raise ConfigError("count too large: the last step underflows")

    def steps(self):
        return self.eta0 * self.ratio ** np.arange(self.count)


# dyadic steps: bumped values x(t) + h round exactly in binary fp, which the
# sharpest spatial-quotient identities rely on
SPACE_LADDER = QuotientLadder(eta0=2.0 ** -7)

HESS_LADDER = QuotientLadder(eta0=2.0 ** -3, count=10)
NODE_COUNT = 12          # quadrature nodes of horizontal_from_gamma


@dataclass
class DerivativeReport:
    """Outcome of one quotient-ladder study."""

    label: str
    etas: np.ndarray
    quotients: np.ndarray
    verdict: str
    estimate: float
    spread_tail: float
    conv_tol: float
    osc_floor: float
    alternations: int

    @property
    def converged(self):
        return self.verdict == CONVERGED


def judge(etas, quotients, ratio, label=""):
    """Classify a quotient ladder; see the module docstring."""
    etas = np.asarray(etas, dtype=float)
    quotients = np.asarray(quotients, dtype=float)
    tail = quotients[-TAIL:]
    med = float(np.median(tail))
    spread = float(tail.max() - tail.min())
    scale = max(1.0, abs(med))
    conv_tol = CONV_REL * scale
    osc_floor = OSC_REL * scale
    diffs = np.diff(quotients)
    alternations = int(np.sum(diffs[:-1] * diffs[1:] < 0))
    if not np.all(np.isfinite(quotients)):
        verdict, estimate = INCONCLUSIVE, np.nan
    elif spread <= conv_tol:
        verdict = CONVERGED
        # first-order Richardson: removes the O(eta) term of the quotients
        rich = (quotients[1:] - ratio * quotients[:-1]) / (1.0 - ratio)
        estimate = float(np.mean(rich[-TAIL:]))
    elif spread >= osc_floor and alternations >= MIN_ALTERNATIONS:
        verdict, estimate = OSCILLATING, np.nan
    else:
        verdict, estimate = INCONCLUSIVE, np.nan
    return DerivativeReport(label, etas, quotients, verdict, estimate,
                            spread, conv_tol, osc_floor, alternations)


def require_converged(report, which):
    if not report.converged:
        raise NonDifferentiableError(which, report)
    return report


def ladder_flow_grid(t, etas, refine=8):
    """Solver grid on [t, t + eta0] containing every ladder point exactly.

    The grid is graded: each gap between consecutive ladder points (and the
    initial gap down to t) is split into `refine` uniform pieces, so the
    solve is sharp near t where the small quotients live.
    """
    pts = np.sort(t + np.asarray(etas, dtype=float))
    lo = np.concatenate([[t], pts[:-1]])[:, None]
    # numpy's linspace(lo, p, refine + 1)[1:], all gaps at once
    k = np.arange(1, refine + 1, dtype=float)
    pieces = k * ((pts[:, None] - lo) / refine) + lo
    pieces[:, -1] = pts  # pin the ladder points bit-exactly
    grid = np.concatenate([[t], pieces.ravel()])
    if not np.all(np.diff(grid) > 0):
        raise ConfigError("ladder grid degenerate; eta steps too close")
    return grid


def time_study(F, t, x, gamma, ladder, label):
    """Judge (F(t + eta) - F(t)) / eta along one extension of x from t,
    dividing by the realized float gaps.

    The extension is stop(x, t) when gamma is None, otherwise gamma's flow,
    solved once on ladder_flow_grid so that every ladder point is a grid
    node.  Each ladder gap is split into at least 8 pieces, and into more
    where the largest piece would not fit the solver's contraction window
    1/(2K) with its 1e-9 slack.
    """
    etas = ladder.steps()
    if not (0.0 <= t < t + etas[-1]
            and t + etas[0] <= x.horizon * (1 + 1e-12)):
        raise DomainError("need 0 <= t < t + smallest step and t + eta0 <= "
                          f"horizon; t={t}")
    if gamma is None:
        path = stop(x, t)
    else:
        K = gamma.lipschitz_K
        gap = np.diff(etas[::-1], prepend=0.0).max()
        refine = max(8.0, np.ceil(2.0 * K * gap / (1 + 1e-9)))
        if ladder.count * refine > 2 ** 24:
            raise ConfigError(f"Lipschitz constant {K:g} needs more than "
                              "2**24 flow grid steps on this ladder")
        grid = ladder_flow_grid(t, etas, int(refine))
        grid[-1] = min(grid[-1], x.horizon)
        path = solve_flow(x, t, gamma, until=grid[-1], grid=grid).path
    base = F.eval(t, path)
    times = np.minimum(t + etas, path.horizon)   # descending in eta
    vals = F.eval_many(times[::-1], path)[::-1]
    return judge(etas, (vals - base) / (times - t), ladder.ratio, label)


def bump_values(F, t, x, hs, dirs):
    """F on x bumped at t by h * dirs[s], for every step h of hs and every
    row s of dirs, as a (len(hs), len(dirs)) array.  All bumps are rows of
    one family held at t, read in one eval_family call."""
    pin = stop_exactly(stop(x, t), t)
    # every step's held values at once, as bump() would add them
    held = pin.value_at_stop + hs[:, None, None] * dirs
    if np.any((held[-1] == pin.value_at_stop) & (dirs != 0)):
        raise DomainError(f"smallest bump {hs[-1]:g} does not move x({t:g})")
    bumps = StoppedPath(pin.base, pin.stop_time, held.reshape(-1, x.dim))
    return F.eval_family(t, bumps).reshape(len(hs), len(dirs))


def d_gamma(F, gamma, t, x, ladder=None):
    """Derivative of F at (t, x) along the flow driven by gamma, solved
    once per study.  A direction that vanishes along the extension gives
    exactly the stopped path, so the study then equals d_horizontal
    quotient by quotient."""
    return time_study(F, t, x, gamma, ladder or QuotientLadder(),
                      f"d_gamma[{F.label}|{gamma.label}]@{float(t):g}")


def d_horizontal(F, t, x, ladder=None):
    """Time derivative of F along the stopped extension of x at t."""
    return time_study(F, t, x, None, ladder or QuotientLadder(),
                      f"d_horizontal[{F.label}]@{float(t):g}")


def d_space(F, i, t, x, ladder=None, scheme="central"):
    """Spatial derivative of F in coordinate i via vertical bumps at t.

    scheme 'central' (default) or 'forward'.  The default ladder uses
    dyadic steps so bumped values are exact in floating point.  A central
    quotient converges at a kink too, to the mean of the one-sided
    derivatives, so the central study also reads F unbumped in its family:
    where (F(x+h) - 2 F(x) + F(x-h)) / h, which tends to F'+ - F'-,
    extrapolates beyond conv_tol, converged becomes inconclusive.
    """
    ladder = ladder or SPACE_LADDER
    if scheme not in ("central", "forward"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    i = int(i)
    if not 0 <= i < x.dim:
        raise DomainError(f"axis {i} outside dimension {x.dim}")
    e = np.zeros((3, x.dim))    # up, down, unbumped
    e[0, i], e[1, i] = 1.0, -1.0
    hs = ladder.steps()
    label = f"d_space[{F.label};{i};{scheme}]@{float(t):g}"
    if scheme == "forward":
        v = bump_values(F, t, x, hs, e[:1])
        return judge(hs, (v[:, 0] - F.eval(t, stop(x, t))) / hs,
                     ladder.ratio, label)
    v = bump_values(F, t, x, hs, e)
    rep = judge(hs, (v[:, 0] - v[:, 1]) / (2.0 * hs), ladder.ratio, label)
    gap = (v[:, 0] - 2.0 * v[:, 2] + v[:, 1]) / hs
    jump = (gap[-1] - ladder.ratio * gap[-2]) / (1.0 - ladder.ratio)
    if rep.converged and not abs(jump) <= rep.conv_tol:
        rep.verdict, rep.estimate = INCONCLUSIVE, np.nan
    return rep


def _space_gradient(F, t, x, where=""):
    reports = [require_converged(d_space(F, i, t, x),
                                 f"d_space[{i}]{where}")
               for i in range(x.dim)]
    return np.array([r.estimate for r in reports]), reports


@dataclass
class RelationReport:
    """d_gamma against its decomposition into time and space parts."""

    residual: float
    gamma_report: DerivativeReport
    horizontal_report: DerivativeReport
    space_reports: list
    gradient: np.ndarray
    direction_value: np.ndarray


def relation_residual(F, gamma, t, x, ladder=None):
    """D_gamma F - DF - <grad F, gamma(t, x)>; all three studies must
    converge, otherwise the failing derivative is named in the error."""
    rg = require_converged(d_gamma(F, gamma, t, x, ladder=ladder), "d_gamma")
    rh = require_converged(d_horizontal(F, t, x, ladder=ladder),
                           "d_horizontal")
    grad, spaces = _space_gradient(F, t, x)
    gvec = gamma.eval(t, stop(x, t))
    residual = rg.estimate - rh.estimate - float(grad @ gvec)
    return RelationReport(residual, rg, rh, spaces, grad, gvec)


@dataclass
class GradientRecovery:
    """Spatial gradient recovered from d directional studies."""

    gradient: np.ndarray
    matrix: np.ndarray
    cond: float
    gamma_reports: list
    horizontal_report: DerivativeReport


def recover_gradient(F, fields, t, x, ladder=None, cond_max=1e8):
    """Solve Gamma grad = (D_gamma_i F - DF) for the spatial gradient.

    fields must contain exactly dim direction fields whose values at
    (t, x) form a well-conditioned matrix.
    """
    d = x.dim
    if len(fields) != d:
        raise DomainError(f"need {d} direction fields, got {len(fields)}")
    xt = stop(x, t)
    mat = np.stack([f.eval(t, xt) for f in fields])
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > cond_max:
        raise IllConditionedError(
            f"direction system condition number {cond:g} exceeds "
            f"{cond_max:g}", cond=cond)
    rh = require_converged(d_horizontal(F, t, x, ladder=ladder),
                           "d_horizontal")
    reports = [require_converged(d_gamma(F, f, t, x, ladder=ladder),
                                 f"d_gamma[{f.label}]")
               for f in fields]
    rhs = np.array([rg.estimate - rh.estimate for rg in reports])
    grad = np.linalg.solve(mat, rhs)
    return GradientRecovery(grad, mat, cond, reports, rh)


@dataclass
class HorizontalAverage:
    """Averaged reconstruction of the horizontal increment over [t, t+h]."""

    value: float
    nodes: np.ndarray
    integrand: np.ndarray


def horizontal_from_gamma(F, gamma, t, x, h, ladder=None):
    """(1/h) * integral over [t, t+h] of D_gamma F - <grad F, gamma>,
    all evaluated on the path stopped at t.

    Quadrature nodes follow the ladder layout (geometric refinement toward
    t); each node needs its own converged d_gamma and d_space studies.
    """
    t, h = float(t), float(h)
    if h <= 0:
        raise DomainError("averaging width h must be positive")
    lad = ladder or QuotientLadder()
    if t + h + lad.eta0 > x.horizon * (1 + 1e-12):
        raise DomainError("need t + h + eta0 <= horizon for the node studies")
    offs = np.concatenate([[0.0], np.sort(h * lad.ratio **
                                          np.arange(NODE_COUNT - 1))])
    nodes = t + offs
    nodes[-1] = t + h
    xt = stop(x, t)
    integrand = np.empty(len(nodes))
    for k, s in enumerate(nodes):
        rg = require_converged(d_gamma(F, gamma, s, xt, ladder=ladder),
                               f"d_gamma@node {s:g}")
        grad, _ = _space_gradient(F, s, xt, f"@node {s:g}")
        gvec = gamma.eval(s, xt)
        integrand[k] = rg.estimate - float(grad @ gvec)
    value = float(np.trapezoid(integrand, nodes) / h)
    return HorizontalAverage(value, nodes, integrand)


def _hess_entry(F, i, j, t, x):
    """Converged HESS_LADDER estimate of the (i, j) second derivative."""
    ei, ej = np.eye(x.dim)[[i, j]]
    hs = HESS_LADDER.steps()
    if i == j:      # (f(+h) - 2 f + f(-h)) / h^2
        v = bump_values(F, t, x, hs, np.stack([ei, -ei]))
        qs = (v[:, 0] - 2.0 * F.eval(t, stop(x, t)) + v[:, 1]) / (hs * hs)
    else:           # the four corners (+-h, +-h)
        v = bump_values(F, t, x, hs, np.stack(
            [ei + ej, ei - ej, ej - ei, -ei - ej]))
        qs = (v[:, 0] - v[:, 1] - v[:, 2] + v[:, 3]) / (4.0 * hs * hs)
    label = f"d2_space[{i},{j}]"
    rep = judge(hs, qs, HESS_LADDER.ratio, label)
    return require_converged(rep, label).estimate


def numerical_derivatives(F, dim=1):
    """Wrap F with derivatives built from quotient ladders on demand.

    Every evaluation runs a full study and insists on convergence, so this
    is meant for spot checks against coded derivatives, not inner loops.
    Second derivatives use a shorter dyadic ladder, HESS_LADDER: dividing
    by h^2 pushes rounding noise up fast, so the tail must stop while h^2
    is still well above machine precision.
    """
    if isinstance(F, FunctionalWithDerivatives) and F.grad is None:
        raise DomainError(f"{F.label} is marked as having no spatial "
                          "derivative")
    if not isinstance(F, Functional):
        # F need only offer eval and eval_many; the bump studies then
        # evaluate it row by row
        F = Functional(F.eval, label=F.label, fn_many=F.eval_many)
    d = int(dim)

    def pt(t, x):
        return require_converged(d_horizontal(F, t, x),
                                 "d_horizontal").estimate

    def grad(t, x):
        return [require_converged(d_space(F, i, t, x), f"d_space[{i}]")
                .estimate for i in range(d)]

    def hess(t, x):
        return [[_hess_entry(F, i, j, t, x) for j in range(d)]
                for i in range(d)]

    return FunctionalWithDerivatives(
        F.eval, label=f"num_derivs[{F.label}]", fn_many=F.eval_many,
        partial_t=Functional(pt, label="num_partial_t"),
        grad=VectorFunctional(grad, d, label="num_grad"),
        hess=MatrixFunctional(hess, (d, d), label="num_hess"))
