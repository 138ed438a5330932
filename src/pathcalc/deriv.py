"""Difference-quotient derivatives of path functionals.

Each derivative is a study over a geometric ladder of step sizes, judged
into one of three verdicts rather than trusted blindly:

* converged     - the last quotients agree to a scale-aware tolerance; the
                  estimate is a Richardson-extrapolated tail mean.
* oscillating   - the tail spread is large and the quotient differences
                  keep changing sign down the ladder (the signature of a
                  genuinely divergent limit, not of noise).
* inconclusive  - neither pattern is clean.

Every ladder runs through one of two studies: time_study, along the
stopped path or one flow solve (study_path grades its grid so every ladder
point lies on it), and bump_study, over vertical bumps at t.  Both reject a
ladder whose smallest step no longer moves t or the held value.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, IllConditionedError, \
    NonDifferentiableError
from .flow import solve_flow
from .functionals import Functional, FunctionalWithDerivatives
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


def study_path(x, t, gamma, ladder, **flow_opts):
    """The extension of x from t that a time study runs along: stop(x, t)
    when gamma is None, otherwise gamma's flow on ladder_flow_grid."""
    etas = ladder.steps()
    if not (0.0 <= t < t + etas[-1]
            and t + etas[0] <= x.horizon * (1 + 1e-12)):
        raise DomainError("need 0 <= t < t + smallest step and t + eta0 <= "
                          f"horizon; t={t}")
    if gamma is None:
        return stop(x, t)
    grid = ladder_flow_grid(t, etas)
    grid[-1] = min(grid[-1], x.horizon)
    return solve_flow(x, t, gamma, until=grid[-1], grid=grid,
                      **flow_opts).path


def time_study(F, t, path, ladder, label):
    """Judge (F(t + eta) - F(t)) / eta along path, an extension from t,
    dividing by the realized float gaps; flow grid nodes carry them."""
    etas = ladder.steps()
    base = F.eval(t, path)
    times = np.minimum(t + etas, path.horizon)   # descending in eta
    vals = F.eval_many(times[::-1], path)[::-1]
    return judge(etas, (vals - base) / (times - t), ladder.ratio, label)


def bump_study(F, t, x, ladder, rung, label):
    """Judge the vertical quotients of F at t, one per ladder step h.

    rung = (dirs, quotient): step h evaluates F on x bumped at t by h *
    dirs[s] for each row s, all rows of one family held at t and read in
    one eval_family call; quotient(vals, hs, base) maps these (count,
    len(dirs)) values to quotients, base() being F on the stopped path.
    """
    xt = stop(x, t)
    pin = stop_exactly(xt, t)
    dirs, quotient = rung
    hs = ladder.steps()
    # every rung's held values at once, as bump() would add them
    held = pin.value_at_stop + hs[:, None, None] * dirs
    if np.any((held[-1] == pin.value_at_stop) & (dirs != 0)):
        raise DomainError(f"smallest bump {hs[-1]:g} does not move x({t:g})")
    bumps = StoppedPath(pin.base, pin.stop_time, held.reshape(-1, x.dim))
    vals = F.eval_family(t, bumps)
    quotients = quotient(vals.reshape(len(hs), -1), hs, lambda: F.eval(t, xt))
    return judge(hs, quotients, ladder.ratio, label)


def d_gamma(F, gamma, t, x, ladder=None, **flow_opts):
    """Derivative of F at (t, x) along the flow driven by gamma, solved
    once per study by study_path.  A direction that vanishes along the
    extension gives exactly the stopped path, so the study then equals
    d_horizontal quotient by quotient."""
    ladder = ladder or QuotientLadder()
    path = study_path(x, t, gamma, ladder, **flow_opts)
    label = f"d_gamma[{F.label}|{gamma.label}]@{float(t):g}"
    return time_study(F, t, path, ladder, label)


def d_horizontal(F, t, x, ladder=None):
    """Time derivative of F along the stopped extension of x at t."""
    ladder = ladder or QuotientLadder()
    path = study_path(x, t, None, ladder)
    return time_study(F, t, path, ladder,
                      f"d_horizontal[{F.label}]@{float(t):g}")


def d_space(F, i, t, x, ladder=None, scheme="central"):
    """Spatial derivative of F in coordinate i via vertical bumps at t.

    scheme 'central' (default) or 'forward'.  The default ladder uses
    dyadic steps so bumped values are exact in floating point.
    """
    ladder = ladder or SPACE_LADDER
    if scheme not in ("central", "forward"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    i = int(i)
    if not 0 <= i < x.dim:
        raise DomainError(f"axis {i} outside dimension {x.dim}")
    e = np.zeros((2, x.dim))    # up, down
    e[0, i], e[1, i] = 1.0, -1.0
    if scheme == "forward":
        rung = (e[:1], lambda v, hs, base: (v[:, 0] - base()) / hs)
    else:
        rung = (e, lambda v, hs, base: (v[:, 0] - v[:, 1]) / (2.0 * hs))
    label = f"d_space[{F.label};{i};{scheme}]@{float(t):g}"
    return bump_study(F, t, x, ladder, rung, label)


def _space_gradient(F, t, x, ladder, where=""):
    reports = [require_converged(d_space(F, i, t, x, ladder=ladder),
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


def relation_residual(F, gamma, t, x, ladder=None, space_ladder=None,
                      **flow_opts):
    """D_gamma F - DF - <grad F, gamma(t, x)>; all three studies must
    converge, otherwise the failing derivative is named in the error."""
    rg = require_converged(d_gamma(F, gamma, t, x, ladder=ladder,
                                   **flow_opts), "d_gamma")
    rh = require_converged(d_horizontal(F, t, x, ladder=ladder),
                           "d_horizontal")
    grad, spaces = _space_gradient(F, t, x, space_ladder)
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


def recover_gradient(F, fields, t, x, ladder=None, cond_max=1e8,
                     **flow_opts):
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
    reports = [require_converged(d_gamma(F, f, t, x, ladder=ladder,
                                         **flow_opts), f"d_gamma[{f.label}]")
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


def horizontal_from_gamma(F, gamma, t, x, h, ladder=None,
                          space_ladder=None, **flow_opts):
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
        rg = require_converged(d_gamma(F, gamma, s, xt, ladder=ladder,
                                       **flow_opts), f"d_gamma@node {s:g}")
        grad, _ = _space_gradient(F, s, xt, space_ladder, f"@node {s:g}")
        gvec = gamma.eval(s, xt)
        integrand[k] = rg.estimate - float(grad @ gvec)
    value = float(np.trapezoid(integrand, nodes) / h)
    return HorizontalAverage(value, nodes, integrand)


def numerical_derivatives(F, dim=1, space_ladder=None):
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

    def grad_fn(i):
        def g(t, x):
            return require_converged(
                d_space(F, i, t, x, ladder=space_ladder),
                f"d_space[{i}]").estimate
        return g

    def hess_fn(i, j):
        def hij(t, x):
            ei, ej = np.eye(x.dim)[[i, j]]
            if i == j:      # (f(+h) - 2 f + f(-h)) / h^2
                rung = (np.stack([ei, -ei]), lambda v, hs, base:
                        (v[:, 0] - 2.0 * base() + v[:, 1]) / (hs * hs))
            else:           # the four corners (+-h, +-h)
                rung = (np.stack([ei + ej, ei - ej, ej - ei, -ei - ej]),
                        lambda v, hs, base: (v[:, 0] - v[:, 1] - v[:, 2]
                                             + v[:, 3]) / (4.0 * hs * hs))
            label = f"d2_space[{i},{j}]"
            rep = bump_study(F, t, x, HESS_LADDER, rung, label)
            return require_converged(rep, label).estimate
        return hij

    grad = [Functional(grad_fn(i), label=f"num_grad[{i}]") for i in range(d)]
    hess = [[Functional(hess_fn(i, j), label=f"num_hess[{i},{j}]")
             for j in range(d)] for i in range(d)]
    return FunctionalWithDerivatives(
        F.eval, label=f"num_derivs[{F.label}]", fn_many=F.eval_many,
        partial_t=Functional(pt, label="num_partial_t"),
        grad=grad, hess=hess)
