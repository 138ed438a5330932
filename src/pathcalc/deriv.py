"""Difference-quotient derivatives of path functionals.

Each derivative is a study over a geometric ladder of step sizes, judged
into one of three verdicts rather than trusted blindly:

* converged     - the last quotients agree to a scale-aware tolerance; the
                  estimate is a Richardson-extrapolated tail mean.
* oscillating   - the tail spread is large and the quotient differences
                  keep changing sign down the ladder (the signature of a
                  genuinely divergent limit, not of noise).
* inconclusive  - neither pattern is clean.

d_gamma drives the path along a flow and needs one flow solve per study:
the solver grid is graded so every ladder point lies on it exactly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, IllConditionedError, \
    NonDifferentiableError
from .flow import solve_flow
from .functionals import Functional, FunctionalWithDerivatives
from .paths import bump, stop

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
        if not self.eta0 > 0:
            raise ConfigError("eta0 must be positive")
        if not 0.0 < self.ratio < 1.0:
            raise ConfigError("ratio must lie in (0, 1)")
        if self.count < TAIL + 1:
            raise ConfigError(f"count must be at least {TAIL + 1}")

    def steps(self):
        return self.eta0 * self.ratio ** np.arange(self.count)


# dyadic steps: bumped values x(t) + h round exactly in binary fp, which the
# sharpest spatial-quotient identities rely on
SPACE_LADDER = QuotientLadder(eta0=2.0 ** -7)

HESS_LADDER = QuotientLadder(eta0=2.0 ** -3, count=10)


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


def _quotient_study(F, t, path, etas, ratio, label):
    # shared tail of d_gamma / d_horizontal: evaluate F along the given
    # path at t + eta and divide by the realized float gap
    t = float(t)
    base = F.eval(t, path)
    times = np.minimum(t + etas, path.horizon)   # descending in eta
    asc = times[::-1]
    vals = F.eval_many(asc, path)[::-1]
    eta_eff = times - t         # realized gaps; grid nodes carry these floats
    quotients = (vals - base) / eta_eff
    return judge(etas, quotients, ratio, label)


def d_gamma(F, gamma, t, x, ladder=None, refine=8, picard_tol=1e-10,
            max_iters=100, window=None):
    """Derivative of F at (t, x) along the flow driven by gamma.

    One flow solve per study: the ladder points sit on the solver grid, and
    intermediate values are read off the same solution.  With a direction
    that vanishes along the extension the flow is exactly the stopped path,
    so the study coincides with d_horizontal quotient by quotient.
    """
    ladder = ladder or QuotientLadder()
    t = float(t)
    etas = ladder.steps()
    if not (0.0 <= t and t + etas[0] <= x.horizon * (1 + 1e-12)):
        raise DomainError(f"need 0 <= t and t + eta0 <= horizon; t={t}")
    grid = ladder_flow_grid(t, etas, refine=refine)
    grid[-1] = min(grid[-1], x.horizon)
    sol = solve_flow(x, t, gamma, until=grid[-1], grid=grid,
                     picard_tol=picard_tol, max_iters=max_iters,
                     window=window)
    label = f"d_gamma[{F.label}|{gamma.label}]@{t:g}"
    return _quotient_study(F, t, sol.path, etas, ladder.ratio, label)


def d_horizontal(F, t, x, ladder=None):
    """Time derivative of F along the stopped extension of x at t."""
    ladder = ladder or QuotientLadder()
    t = float(t)
    etas = ladder.steps()
    if not (0.0 <= t and t + etas[0] <= x.horizon * (1 + 1e-12)):
        raise DomainError(f"need 0 <= t and t + eta0 <= horizon; t={t}")
    label = f"d_horizontal[{F.label}]@{t:g}"
    return _quotient_study(F, t, stop(x, t), etas, ladder.ratio, label)


def d_space(F, i, t, x, ladder=None, scheme="central"):
    """Spatial derivative of F in coordinate i via vertical bumps at t.

    scheme 'central' (default) or 'forward'.  The default ladder uses
    dyadic steps so bumped values are exact in floating point.
    """
    ladder = ladder or SPACE_LADDER
    if scheme not in ("central", "forward"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    t = float(t)
    i = int(i)
    if not 0 <= i < x.dim:
        raise DomainError(f"axis {i} outside dimension {x.dim}")
    xt = stop(x, t)
    hs = ladder.steps()
    e = np.zeros(x.dim)
    quotients = np.empty(len(hs))
    base = F.eval(t, xt) if scheme == "forward" else None
    for k, h in enumerate(hs):
        e[i] = h
        up = F.eval(t, bump(xt, t, e))
        if scheme == "forward":
            quotients[k] = (up - base) / h
        else:
            e[i] = -h
            down = F.eval(t, bump(xt, t, e))
            quotients[k] = (up - down) / (2.0 * h)
        e[i] = 0.0
    label = f"d_space[{F.label};{i};{scheme}]@{t:g}"
    return judge(hs, quotients, ladder.ratio, label)


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
    rg = d_gamma(F, gamma, t, x, ladder=ladder, **flow_opts)
    require_converged(rg, "d_gamma")
    rh = d_horizontal(F, t, x, ladder=ladder)
    require_converged(rh, "d_horizontal")
    spaces = []
    grad = np.empty(x.dim)
    for i in range(x.dim):
        rs = d_space(F, i, t, x, ladder=space_ladder)
        require_converged(rs, f"d_space[{i}]")
        spaces.append(rs)
        grad[i] = rs.estimate
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
    rh = d_horizontal(F, t, x, ladder=ladder)
    require_converged(rh, "d_horizontal")
    reports = []
    rhs = np.empty(d)
    for i, f in enumerate(fields):
        rg = d_gamma(F, f, t, x, ladder=ladder, **flow_opts)
        require_converged(rg, f"d_gamma[{f.label}]")
        reports.append(rg)
        rhs[i] = rg.estimate - rh.estimate
    grad = np.linalg.solve(mat, rhs)
    return GradientRecovery(grad, mat, cond, reports, rh)


@dataclass
class HorizontalAverage:
    """Averaged reconstruction of the horizontal increment over [t, t+h]."""

    value: float
    nodes: np.ndarray
    integrand: np.ndarray


def horizontal_from_gamma(F, gamma, t, x, h, node_count=12, ladder=None,
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
                                          np.arange(node_count - 1))])
    nodes = t + offs
    nodes[-1] = t + h
    xt = stop(x, t)
    integrand = np.empty(len(nodes))
    for k, s in enumerate(nodes):
        rg = d_gamma(F, gamma, s, xt, ladder=ladder, **flow_opts)
        require_converged(rg, f"d_gamma@node {s:g}")
        grad = np.empty(x.dim)
        for i in range(x.dim):
            rs = d_space(F, i, s, xt, ladder=space_ladder)
            require_converged(rs, f"d_space[{i}]@node {s:g}")
            grad[i] = rs.estimate
        gvec = gamma.eval(s, xt)
        integrand[k] = rg.estimate - float(grad @ gvec)
    value = float(np.trapezoid(integrand, nodes) / h)
    return HorizontalAverage(value, nodes, integrand)


def numerical_derivatives(F, dim=1, time_ladder=None, space_ladder=None,
                          hess_ladder=None):
    """Wrap F with derivatives built from quotient ladders on demand.

    Every evaluation runs a full study and insists on convergence, so this
    is meant for spot checks against coded derivatives, not inner loops.
    Second derivatives use a shorter dyadic ladder: dividing by h^2 pushes
    rounding noise up fast, so the tail must stop while h^2 is still well
    above machine precision.
    """
    if isinstance(F, FunctionalWithDerivatives) and F.grad is None:
        raise DomainError(f"{F.label} is marked as having no spatial "
                          "derivative")
    d = int(dim)

    def pt(t, x):
        return require_converged(d_horizontal(F, t, x, ladder=time_ladder),
                                 "d_horizontal").estimate

    def grad_fn(i):
        def g(t, x):
            return require_converged(
                d_space(F, i, t, x, ladder=space_ladder),
                f"d_space[{i}]").estimate
        return g

    hl = hess_ladder or HESS_LADDER

    def hess_fn(i, j):
        def hij(t, x):
            xt = stop(x, t)
            f0 = F.eval(t, xt)
            hs = hl.steps()
            qs = np.empty(len(hs))
            for k, h in enumerate(hs):
                ei = np.zeros(x.dim)
                ej = np.zeros(x.dim)
                ei[i] = h
                ej[j] = h
                if i == j:
                    up = F.eval(t, bump(xt, t, ei))
                    dn = F.eval(t, bump(xt, t, -ei))
                    qs[k] = (up - 2.0 * f0 + dn) / (h * h)
                else:
                    pp = F.eval(t, bump(xt, t, ei + ej))
                    pm = F.eval(t, bump(xt, t, ei - ej))
                    mp = F.eval(t, bump(xt, t, ej - ei))
                    mm = F.eval(t, bump(xt, t, -ei - ej))
                    qs[k] = (pp - pm - mp + mm) / (4.0 * h * h)
            rep = judge(hs, qs, hl.ratio, f"d2_space[{i},{j}]")
            return require_converged(rep, f"d2_space[{i},{j}]").estimate
        return hij

    grad = [Functional(grad_fn(i), label=f"num_grad[{i}]") for i in range(d)]
    hess = [[Functional(hess_fn(i, j), label=f"num_hess[{i},{j}]")
             for j in range(d)] for i in range(d)]
    return FunctionalWithDerivatives(
        F.eval, label=f"num_derivs[{F.label}]", fn_many=F.eval_many,
        partial_t=Functional(pt, label="num_partial_t"),
        grad=grad, hess=hess)
