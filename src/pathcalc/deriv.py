"""Difference-quotient derivatives of path functionals.

Each derivative is a study over a geometric ladder of step sizes, judged
into one of three verdicts rather than trusted blindly:

* converged     - the last quotients agree to a scale-aware tolerance; the
                  estimate is a Richardson-extrapolated tail mean.
* oscillating   - the tail spread is large and the quotient differences
                  keep changing sign down the ladder (the signature of a
                  genuinely divergent limit, not of noise).
* inconclusive  - neither pattern is clean.

Every study starts from x_t, x stopped at t, which _study_point checks and
builds once.  Every time ladder is one time_study, along x_t or one
flow.picard_flow solve from it whose grid holds every ladder point.  Every
vertical ladder is one space_study, reading F once on x_t's bumps through
bump_values.  Both reject a ladder whose smallest step no longer moves t
or the held value.  A public study checks its arguments, then calls these
cores, which trust theirs, as _judge trusts the ladders that judge checks;
inside the library only the cores are called.
"""

import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import MAX_LOG2, ConfigError, DomainError, \
    IllConditionedError, NonDifferentiableError, require_count, \
    require_finite, require_reals, require_shape
from .flow import picard_flow
from .functionals import Functional, FunctionalWithDerivatives, \
    MatrixFunctional, VectorFunctional, require_field
from .paths import StoppedPath, require_path, stop_exactly

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
        object.__setattr__(self, "eta0", require_finite("eta0", self.eta0))
        object.__setattr__(self, "ratio", _require_ratio(self.ratio))
        object.__setattr__(self, "count",
                           require_count("count", self.count, TAIL + 1))
        # a float, before steps() allocates count of them
        if not self.eta0 * self.ratio ** (self.count - 1) > 0:
            raise ConfigError("count too large: the last step underflows")

    def steps(self):
        return self.eta0 * self.ratio ** np.arange(self.count)


def _require_ratio(ratio):
    """ratio as a float in (0, 1), or ConfigError naming it."""
    ratio = require_finite("ratio", ratio)
    if not ratio < 1.0:
        raise ConfigError(f"ratio must lie in (0, 1), not {ratio}")
    return ratio


def require_ladder(ladder, default):
    """ladder, or default when it is None; ConfigError unless it is a
    QuotientLadder, whose steps and ratio a study reads."""
    if ladder is None:
        return default
    if not isinstance(ladder, QuotientLadder):
        raise ConfigError("ladder must be a QuotientLadder, not "
                          f"{reprlib.repr(ladder)}")
    return ladder


TIME_LADDER = QuotientLadder()   # a time study's default
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
    etas = require_reals("etas", etas, finite=False, error=ConfigError)
    # a NaN or infinite quotient makes the ladder inconclusive
    quotients = require_reals("quotients", quotients, finite=False,
                              error=ConfigError)
    if etas.ndim != 1 or quotients.shape != etas.shape or len(etas) <= TAIL:
        raise ConfigError(f"judge needs one quotient per eta, at least "
                          f"{TAIL + 1}, not {etas.shape} etas and "
                          f"{quotients.shape} quotients")
    ok = (etas > 0.0) & (etas < np.inf)   # NaN fails both
    if not ok.all():
        raise ConfigError(f"etas must be positive and finite, not "
                          f"{etas[~ok][0]}")
    return _judge(etas, quotients, _require_ratio(ratio), label)


def _judge(etas, quotients, ratio, label):
    """judge on a ladder as judge checks it: the one verdict rule."""
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


def _study_point(F, t, x):
    """(t, x_t): t as a float in x's horizon and x stopped exactly at t,
    once F is a real functional and x one path.  Every study starts from
    this point, checked and stopped here only; x_t stopped at t again is
    x_t itself, so a composite study passes it down."""
    require_path(x=x)
    require_shape("F", F, ())
    xt = stop_exactly(x, t)     # whose rule of times checks t
    return float(t), xt


def time_study(F, t, xt, gamma, ladder, label=None):
    """Judge (F(t + eta) - F(t)) / eta along one extension of x_t from t,
    dividing by the realized float gaps; the arguments are checked, and the
    label is by default d_gamma's, or d_horizontal's without gamma.

    The extension is xt itself when gamma is None, otherwise gamma's flow
    from xt, solved once on ladder_flow_grid so that every ladder point is
    a grid node.  Each ladder gap is split into at least 8 pieces, and into
    more where the largest piece would not fit the solver's contraction
    window 1/(2K) with its 1e-9 slack.
    """
    if label is None:
        label = f"d_horizontal[{F.label}]@{t:g}" if gamma is None \
            else f"d_gamma[{F.label}|{gamma.label}]@{t:g}"
    etas = ladder.steps()
    if not (0.0 <= t < t + etas[-1]
            and t + etas[0] <= xt.horizon * (1 + 1e-12)):
        raise DomainError("need 0 <= t < t + smallest step and t + eta0 <= "
                          f"horizon; t={t}")
    if gamma is None:
        path = xt
    else:
        K = gamma.lipschitz_K
        gap = np.diff(etas[::-1], prepend=0.0).max()
        refine = max(8.0, np.ceil(2.0 * K * gap / (1 + 1e-9)))
        if ladder.count * refine > 2 ** MAX_LOG2:
            raise ConfigError(f"Lipschitz constant {K:g} needs more than "
                              f"2**{MAX_LOG2} flow grid steps on this ladder")
        grid = ladder_flow_grid(t, etas, int(refine))
        grid[-1] = min(grid[-1], xt.horizon)
        # the one check here: where the flow meets the path, as in _setup
        require_shape("gamma", gamma, (xt.dim,))
        if grid[-1] == t:                   # t is the horizon: no step
            grid = grid[:1]
        elif not grid[-1] > grid[-2]:       # clipped onto the node before it
            raise DomainError(f"grid must be strictly increasing, not "
                              f"{grid[-2]} then {grid[-1]}")
        path = picard_flow(xt, t, gamma, grid)[0]
    base = F.eval(t, path)
    times = np.minimum(t + etas, path.horizon)   # descending in eta
    vals = F.eval_many(times[::-1], path)[::-1]
    return _judge(etas, (vals - base) / (times - t), ladder.ratio, label)


def bump_values(F, t, xt, hs, dirs):
    """F on x_t bumped by h * dirs[s], for every step h of hs and every
    row s of dirs, as a (len(hs), len(dirs)) array.  All bumps are rows of
    one family held at t, read in one eval call."""
    # every step's held values at once, as bump() would add them
    held = xt.value_at_stop + hs[:, None, None] * dirs
    if np.any((held[-1] == xt.value_at_stop) & (dirs != 0)):
        raise DomainError(f"smallest bump {hs[-1]:g} does not move x({t:g})")
    bumps = StoppedPath(xt.base, t, held.reshape(-1, xt.dim))
    return F.eval(t, bumps).reshape(len(hs), len(dirs))


def d_gamma(F, gamma, t, x, ladder=None):
    """Derivative of F at (t, x) along the flow driven by gamma, solved
    once per study.  A direction that vanishes along the extension gives
    exactly the stopped path, so the study then equals d_horizontal
    quotient by quotient."""
    t, xt = _study_point(F, t, x)
    return time_study(F, t, xt, require_field("gamma", gamma),
                      require_ladder(ladder, TIME_LADDER))


def d_horizontal(F, t, x, ladder=None):
    """Time derivative of F along the stopped extension of x at t."""
    t, xt = _study_point(F, t, x)
    return time_study(F, t, xt, None, require_ladder(ladder, TIME_LADDER))


def d_space(F, i, t, x, ladder=None, scheme="central"):
    """Spatial derivative of F in coordinate i via vertical bumps at t.

    scheme 'central' (default) or 'forward'.  The default ladder uses
    dyadic steps so bumped values are exact in floating point.  A central
    quotient converges at a kink too, to the mean of the one-sided
    derivatives, so the central study also reads F unbumped in its family:
    where (F(x+h) - 2 F(x) + F(x-h)) / h, which tends to F'+ - F'-,
    extrapolates beyond conv_tol, converged becomes inconclusive.
    """
    ladder = require_ladder(ladder, SPACE_LADDER)
    if scheme not in ("central", "forward"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    t, xt = _study_point(F, t, x)
    i = require_count("axis", i, low=None)
    if not 0 <= i < x.dim:
        raise DomainError(f"axis {i} outside dimension {x.dim}")
    return space_study(F, i, t, xt, ladder, scheme)


def space_study(F, i, t, xt, ladder=SPACE_LADDER, scheme="central"):
    """d_space at the point (t, xt) of _study_point, the rest checked."""
    e = np.zeros((3, xt.dim))    # up, down, unbumped
    e[0, i], e[1, i] = 1.0, -1.0
    hs = ladder.steps()
    label = f"d_space[{F.label};{i};{scheme}]@{t:g}"
    if scheme == "forward":
        v = bump_values(F, t, xt, hs, e[:1])
        return _judge(hs, (v[:, 0] - F.eval(t, xt)) / hs, ladder.ratio, label)
    v = bump_values(F, t, xt, hs, e)
    rep = _judge(hs, (v[:, 0] - v[:, 1]) / (2.0 * hs), ladder.ratio, label)
    gap = (v[:, 0] - 2.0 * v[:, 2] + v[:, 1]) / hs
    jump = (gap[-1] - ladder.ratio * gap[-2]) / (1.0 - ladder.ratio)
    if rep.converged and not abs(jump) <= rep.conv_tol:
        rep.verdict, rep.estimate = INCONCLUSIVE, np.nan
    return rep


def _space_gradient(F, t, xt, where=""):
    reports = [require_converged(space_study(F, i, t, xt),
                                 f"d_space[{i}]{where}")
               for i in range(xt.dim)]
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
    t, xt = _study_point(F, t, x)
    gamma = require_field("gamma", gamma)
    ladder = require_ladder(ladder, TIME_LADDER)
    rg = require_converged(time_study(F, t, xt, gamma, ladder), "d_gamma")
    rh = require_converged(time_study(F, t, xt, None, ladder), "d_horizontal")
    grad, spaces = _space_gradient(F, t, xt)
    gvec = gamma.eval(t, xt)
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
    t, xt = _study_point(F, t, x)
    require_finite("cond_max", cond_max)
    d = x.dim
    if not hasattr(fields, "__len__") or len(fields) != d:
        raise DomainError(f"fields must be {d} direction fields, not "
                          f"{fields!r}")
    mat = np.stack([require_shape(f"fields[{i}]", f, (d,)).eval(t, xt)
                    for i, f in enumerate(fields)])
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > cond_max:
        raise IllConditionedError(
            f"direction system condition number {cond:g} exceeds "
            f"{cond_max:g}", cond=cond)
    ladder = require_ladder(ladder, TIME_LADDER)
    rh = require_converged(time_study(F, t, xt, None, ladder), "d_horizontal")
    reports = [require_converged(time_study(
        F, t, xt, require_field("gamma", f), ladder), f"d_gamma[{f.label}]")
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
    t, xt = _study_point(F, t, x)
    h = require_finite("h", h, error=DomainError)
    ladder = require_ladder(ladder, TIME_LADDER)
    if t + h + ladder.eta0 > x.horizon * (1 + 1e-12):
        raise DomainError("need t + h + eta0 <= horizon for the node studies")
    require_field("gamma", gamma)
    offs = np.concatenate([[0.0], np.sort(h * ladder.ratio **
                                          np.arange(NODE_COUNT - 1))])
    nodes = t + offs
    nodes[-1] = t + h
    integrand = np.empty(len(nodes))
    for k, s in enumerate(nodes):
        s, xs = float(s), stop_exactly(xt, s)   # t + h may round past T
        rg = require_converged(time_study(F, s, xs, gamma, ladder),
                               f"d_gamma@node {s:g}")
        grad, _ = _space_gradient(F, s, xs, f"@node {s:g}")
        gvec = gamma.eval(s, xs)
        integrand[k] = rg.estimate - float(grad @ gvec)
    value = float(np.trapezoid(integrand, nodes) / h)
    return HorizontalAverage(value, nodes, integrand)


def _hess_entry(F, i, j, t, x):
    """Converged HESS_LADDER estimate of the (i, j) second derivative."""
    t, xt = _study_point(F, t, x)
    ei, ej = np.eye(x.dim)[[i, j]]
    hs = HESS_LADDER.steps()
    if i == j:      # (f(+h) - 2 f + f(-h)) / h^2
        v = bump_values(F, t, xt, hs, np.stack([ei, -ei]))
        qs = (v[:, 0] - 2.0 * F.eval(t, xt) + v[:, 1]) / (hs * hs)
    else:           # the four corners (+-h, +-h)
        v = bump_values(F, t, xt, hs, np.stack(
            [ei + ej, ei - ej, ej - ei, -ei - ej]))
        qs = (v[:, 0] - v[:, 1] - v[:, 2] + v[:, 3]) / (4.0 * hs * hs)
    label = f"d2_space[{i},{j}]"
    rep = _judge(hs, qs, HESS_LADDER.ratio, label)
    return require_converged(rep, label).estimate


def numerical_derivatives(F, dim=1):
    """Wrap F with derivatives built from quotient ladders on demand.

    Every evaluation runs a full study and insists on convergence, so this
    is meant for spot checks against coded derivatives, not inner loops.
    Second derivatives use a shorter dyadic ladder, HESS_LADDER: dividing
    by h^2 pushes rounding noise up fast, so the tail must stop while h^2
    is still well above machine precision.
    """
    if not (callable(getattr(F, "eval", None))
            and callable(getattr(F, "eval_many", None))):
        raise DomainError(f"F must be a functional, or offer eval and "
                          f"eval_many, not {reprlib.repr(F)}")
    if isinstance(F, FunctionalWithDerivatives) and F.grad is None:
        raise DomainError(f"{F.label} is marked as having no spatial "
                          "derivative")
    if not isinstance(F, Functional):
        # F need only offer eval and eval_many; the bump studies then
        # evaluate it row by row
        F = Functional(F.eval, label=F.label, fn_many=F.eval_many)
    d = require_count("dim", dim, 1)

    def pt(t, x):
        return require_converged(d_horizontal(F, t, x),
                                 "d_horizontal").estimate

    def grad(t, x):
        return _space_gradient(F, *_study_point(F, t, x))[0]

    def hess(t, x):
        return [[_hess_entry(F, i, j, t, x) for j in range(d)]
                for i in range(d)]

    return FunctionalWithDerivatives(
        F.eval, label=f"num_derivs[{F.label}]", fn_many=F.eval_many,
        partial_t=Functional(pt, label="num_partial_t"),
        grad=VectorFunctional(grad, d, label="num_grad"),
        hess=MatrixFunctional(hess, (d, d), label="num_hess"))
