"""Command line front end.

One subcommand per computation; every option can also come from a flat
``key = value`` config file (CLI flags win, unknown keys are rejected).
Artifacts are CSV with the resolved configuration echoed in ``# key = value``
comment lines, floats written with repr, and no timestamps unless --stamp is
given, so rerunning a command reproduces the artifact byte for byte.

Exit codes: 0 success, 2 invalid configuration or domain, 3 numerical
failure, 4 I/O failure.
"""

import argparse
import sys
from datetime import datetime, timezone

import numpy as np

from . import fk, ito, pathology
from .deriv import QuotientLadder, d_gamma, d_horizontal, d_space, \
    recover_gradient, relation_residual
from .errors import ConfigError, DomainError, NumericalError
from .flow import euler_flow, solve_flow
from .functionals import builtin, constant_direction, eval_direction, \
    probe_boundedness, probe_lipschitz, probe_non_anticipative, \
    running_avg_direction, zero_direction
from .paths import constant_path, path_from_csv, ramp_path, stop

__all__ = ["main"]


# ---------------------------------------------------------------------------
# option table


class Opt:
    def __init__(self, name, type, default, help):
        self.name = name
        self.type = type
        self.default = default
        self.help = help


def _f(name, default, help):
    return Opt(name, float, default, help)


def _i(name, default, help):
    return Opt(name, int, default, help)


def _s(name, default, help):
    return Opt(name, str, default, help)


_PATH_HELP = ("path spec: const:c[,c2...], ramp:slope[,slope2...], "
              "brownian:index, csv:FILE")
_DIR_HELP = ("direction spec: zero, const:v[,v2...], eval, running_avg, "
             "constraint[:t_floor], gamma_star[:t_floor]")
_FUNC_HELP = ("functional spec: eval[:axis], square[:axis], integral[:axis], "
              "running_avg[:axis], running_max[:axis], exp_eval[:axis], "
              "product, counterexample")

_LADDER = [
    _f("eta0", 1e-2, "largest ladder step"),
    _f("ratio", 0.5, "geometric ladder ratio in (0, 1)"),
    _i("count", 20, "number of ladder steps"),
]

_CORPUS = [
    _i("level_min", 6, "coarsest dyadic level"),
    _i("level_max", 12, "finest dyadic level"),
    _i("n_exp", 16, "corpus paths use 2**n_exp steps"),
    _i("seed", 42, "corpus seed"),
    _f("horizon", 1.0, "corpus horizon"),
]

_PATHOPTS = [
    _s("path", "ramp:1.0", _PATH_HELP),
    _f("horizon", 1.0, "time horizon for generated paths"),
    _i("nodes", 1025, "grid nodes for generated ramp/const paths"),
    _i("n_exp", 16, "brownian paths use 2**n_exp steps"),
    _i("seed", 0, "master seed for any randomness"),
]

OPTS = {
    "flow": _PATHOPTS + [
        _s("direction", "zero", _DIR_HELP),
        _f("start", 0.0, "flow start time"),
        _f("until", None, "flow end time (default: horizon)"),
        _f("substep", None, "solver grid step (default: span/1024)"),
        _f("window", None, "Picard window cap (default: 1/(2K))"),
        _f("picard_tol", 1e-10, "sup-norm tolerance between sweeps"),
        _i("max_iters", 100, "Picard sweep limit per window"),
        _s("method", "picard", "picard or euler"),
    ],
    "deriv": _PATHOPTS + _LADDER + [
        _s("kind", "gamma", "gamma, horizontal or space"),
        _s("direction", "zero", _DIR_HELP + " (kind=gamma)"),
        _s("functional", "eval", _FUNC_HELP),
        _f("t", 0.5, "base time of the study"),
        _i("axis", 0, "coordinate for kind=space"),
        _s("scheme", "central", "central or forward (kind=space)"),
    ],
    "relation": _PATHOPTS + _LADDER + [
        _s("direction", "eval", _DIR_HELP),
        _s("functional", "square", _FUNC_HELP),
        _s("times", "0.5", "comma-separated base times"),
    ],
    "recover-grad": _PATHOPTS + _LADDER + [
        _s("functional", "square", _FUNC_HELP),
        _s("directions", "const:1.0", "semicolon-separated direction specs"),
        _f("t", 0.5, "base time"),
        _f("cond_max", 1e8, "condition-number cap for the direction matrix"),
    ],
    "counterexample": [
        _f("t0", 0.5, "base time on the ramp"),
        _f("horizon", 1.0, "ramp horizon"),
        _i("nodes", 1025, "ramp grid nodes"),
        _f("t_floor", None, "direction-field floor (default: t0/2)"),
        _s("ladders_out", None, "also write every ladder to this CSV"),
    ],
    "ito-check": [
        _s("functional", "exp_eval", _FUNC_HELP + " (needs derivatives)"),
        _i("paths", 1, "number of corpus paths; residual is their median"),
    ] + _CORPUS,
    "qv": [
        _i("index", 0, "corpus path index"),
    ] + _CORPUS + [
        _i("dim", 1, "path dimension"),
    ],
    "stratonovich": [
        _s("integrand", "eval", _DIR_HELP),
        _i("index", 0, "corpus path index"),
    ] + _CORPUS,
    "feynman-kac": [
        _s("benchmark", "gauss_square",
           "gauss_square, drifted_linear or discount_const"),
        _s("times", "0.5", "comma-separated evaluation times"),
        _s("x0", "const:1.0", "history path spec"),
        _f("horizon", 1.0, "SDE horizon"),
        _i("n_paths", 2000, "Monte Carlo sample size"),
        _i("n_steps", 64, "Euler steps per path"),
        _i("nodes", 1025, "grid nodes for generated history paths"),
        _i("n_exp", 16, "brownian history paths use 2**n_exp steps"),
        _i("seed", 0, "simulation seed"),
    ],
    "probe": [
        _s("functional", "eval", _FUNC_HELP),
        _s("probe", "all",
           "non-anticipative, boundedness, lipschitz or all"),
        _s("direction", "eval", _DIR_HELP + " (lipschitz probe)"),
        _i("dim", 1, "path dimension"),
        _i("samples", 200, "random paths per probe"),
        _f("box", 1.0, "value box radius for the boundedness probe"),
        _i("seed", 0, "probe seed"),
        _f("horizon", 1.0, "probe path horizon"),
    ],
}


class _Parser(argparse.ArgumentParser):
    # usage errors as one config-error line; subparsers share the class
    def error(self, message):
        self.exit(2, f"config-error: {message}\n")


def build_parser(names=tuple(OPTS)):
    """The pathcalc parser with a subparser for each command in names."""
    p = _Parser(
        prog="pathcalc",
        description="functional path calculus: flows, derivative ladders, "
                    "partition sums and Monte Carlo checks")
    sub = p.add_subparsers(dest="command", required=True)
    for name in names:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="flat key = value file; CLI flags win")
        sp.add_argument("--out", default=None,
                        help="output CSV path (default: stdout)")
        sp.add_argument("--stamp", action="store_true",
                        help="add a generation timestamp comment")
        for o in OPTS[name]:
            sp.add_argument("--" + o.name.replace("_", "-"), dest=o.name,
                            type=o.type, default=None, help=o.help)
    return p


def load_config(path):
    table = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value'")
                k, _, v = line.partition("=")
                table[k.strip()] = v.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    return table


def resolve(opts, args):
    conf = load_config(args.config) if args.config else {}
    known = {o.name for o in opts}
    unknown = sorted(set(conf) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    table = {}
    for o in opts:
        given = getattr(args, o.name)
        if given is not None:
            table[o.name] = given
        elif o.name in conf:
            try:
                table[o.name] = o.type(conf[o.name])
            except ValueError:
                raise ConfigError(
                    f"config key {o.name}: cannot parse {conf[o.name]!r}")
        else:
            table[o.name] = o.default
    # NaN would pass as a grid of NaN times, inf as a grid of infinite steps
    if not np.isfinite(table.get("horizon", 1.0)):
        raise ConfigError(f"horizon must be finite, not {table['horizon']}")
    return table


# ---------------------------------------------------------------------------
# spec parsing


def _floats(text):
    try:
        vals = [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ConfigError(f"cannot parse float list {text!r}")
    if not vals:
        raise ConfigError(f"empty float list {text!r}")
    return vals


def _number(kind, text, spec):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} in spec {spec!r}")


def parse_path(spec, cfg):
    kind, _, rest = spec.partition(":")
    horizon = cfg.get("horizon", 1.0)
    if kind == "const":
        vals = _floats(rest or "0.0")
        return constant_path(vals, horizon=horizon)
    if kind == "ramp":
        slopes = _floats(rest or "1.0")
        return ramp_path(slopes, horizon=horizon, n=cfg.get("nodes", 1025))
    if kind == "brownian":
        index = _number(int, rest, spec) if rest else 0
        return ito.brownian_path(cfg.get("seed", 0), index,
                                 n_exp=cfg.get("n_exp", 16), horizon=horizon)
    if kind == "csv":
        if not rest:
            raise ConfigError("csv path spec needs a file: csv:FILE")
        return path_from_csv(rest)
    raise ConfigError(f"unknown path spec {spec!r}")


def parse_direction(spec, dim):
    kind, _, rest = spec.partition(":")
    if kind == "zero":
        return zero_direction(dim)
    if kind == "const":
        return constant_direction(_floats(rest or "0.0"))
    if kind == "eval":
        return eval_direction(dim)
    if kind == "running_avg":
        return running_avg_direction(dim)
    if kind == "constraint":
        return pathology.constraint_direction(
            _number(float, rest, spec) if rest else pathology.T_FLOOR)
    if kind == "gamma_star":
        return pathology.gamma_star(
            _number(float, rest, spec) if rest else pathology.T_FLOOR)
    raise ConfigError(f"unknown direction spec {spec!r}")


def parse_functional(spec, dim):
    name, _, rest = spec.partition(":")
    if name == "counterexample":
        return pathology.counterexample_functional()
    axis = _number(int, rest, spec) if rest else 0
    return builtin(name, axis=axis, dim=dim)


# ---------------------------------------------------------------------------
# output


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(out, cfg, columns, rows, stamp=False, comments=(),
              trailer=()):
    lines = [f"# {k} = {_fmt(cfg[k])}" for k in sorted(cfg)
             if cfg[k] is not None]
    lines += [f"# {c}" for c in comments]
    if stamp:
        lines.append("# generated = "
                     + datetime.now(timezone.utc).isoformat())
    lines.append(",".join(columns))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    lines += list(trailer)
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _ladder(cfg):
    return QuotientLadder(cfg["eta0"], cfg["ratio"], cfg["count"])


def _report_rows(rep):
    return [(e, q) for e, q in zip(rep.etas, rep.quotients)]


def _report_trailer(rep):
    # ladder summary as a second small table in the same artifact
    return ["verdict,estimate,spread_tail",
            f"{rep.verdict},{repr(float(rep.estimate))},"
            f"{repr(float(rep.spread_tail))}"]


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (columns, rows, comments, trailer)


def run_flow(cfg):
    x = parse_path(cfg["path"], cfg)
    gamma = parse_direction(cfg["direction"], x.dim)
    if cfg["method"] not in ("picard", "euler"):
        raise ConfigError("method must be picard or euler")
    kw = dict(until=cfg["until"], substep=cfg["substep"])
    if cfg["method"] == "picard":
        sol = solve_flow(x, cfg["start"], gamma, window=cfg["window"],
                         picard_tol=cfg["picard_tol"],
                         max_iters=cfg["max_iters"], **kw)
    else:
        sol = euler_flow(x, cfg["start"], gamma, **kw)
    comments = [
        "interp_mode = linear",
        f"iterations = {';'.join(str(k) for k in sol.iterations)}",
        f"sup_residual = {repr(float(np.max(sol.residual())))}",
        f"tol_residual = {repr(float(sol.tol_residual))}",
    ]
    # the artifact doubles as a path CSV: t,v1,...,vd plus interp_mode
    cols = ["t"] + [f"v{k + 1}" for k in range(x.dim)]
    rows = [(t, *v) for t, v in zip(sol.grid, sol.values)]
    return cols, rows, comments, ()


def run_deriv(cfg):
    x = parse_path(cfg["path"], cfg)
    F = parse_functional(cfg["functional"], x.dim)
    lad = _ladder(cfg)
    if cfg["kind"] == "gamma":
        gamma = parse_direction(cfg["direction"], x.dim)
        rep = d_gamma(F, gamma, cfg["t"], x, ladder=lad)
    elif cfg["kind"] == "horizontal":
        rep = d_horizontal(F, cfg["t"], x, ladder=lad)
    elif cfg["kind"] == "space":
        rep = d_space(F, cfg["axis"], cfg["t"], x, ladder=lad,
                      scheme=cfg["scheme"])
    else:
        raise ConfigError("kind must be gamma, horizontal or space")
    comments = [f"alternations = {rep.alternations}"]
    return ["eta", "quotient"], _report_rows(rep), comments, \
        _report_trailer(rep)


def run_relation(cfg):
    x = parse_path(cfg["path"], cfg)
    F = parse_functional(cfg["functional"], x.dim)
    gamma = parse_direction(cfg["direction"], x.dim)
    lad = _ladder(cfg)
    cols = ["t", "residual", "d_gamma", "d_horizontal"]
    cols += [f"grad{k}" for k in range(x.dim)]
    cols += [f"gamma{k}" for k in range(x.dim)]
    rows = []
    for t in _floats(cfg["times"]):
        rel = relation_residual(F, gamma, t, x, ladder=lad)
        rows.append((t, rel.residual, rel.gamma_report.estimate,
                     rel.horizontal_report.estimate, *rel.gradient,
                     *rel.direction_value))
    return cols, rows, [], ()


def run_recover_grad(cfg):
    x = parse_path(cfg["path"], cfg)
    F = parse_functional(cfg["functional"], x.dim)
    fields = [parse_direction(s, x.dim)
              for s in cfg["directions"].split(";") if s]
    rec = recover_gradient(F, fields, cfg["t"], x, ladder=_ladder(cfg),
                           cond_max=cfg["cond_max"])
    comments = [f"cond = {repr(rec.cond)}",
                f"d_horizontal = {repr(rec.horizontal_report.estimate)}"]
    rows = [(k, g) for k, g in enumerate(rec.gradient)]
    return ["axis", "gradient"], rows, comments, ()


def run_counterexample(cfg):
    bat = pathology.ramp_battery(cfg["t0"], horizon=cfg["horizon"],
                                 n=cfg["nodes"], t_floor=cfg["t_floor"])
    t0 = cfg["t0"]
    # (path id, gamma id, report) per check; the quotient ladders follow as
    # a second table so oscillation figures can be drawn from one artifact
    table = [
        ("ramp", "vertical_forward", bat.spatial),
        ("ramp", "horizontal", bat.horizontal),
        ("ramp", "constraint", bat.constraint.report),
        ("ramp", "gamma_star", bat.star_on.report),
        ("ramp+0.25", "gamma_star", bat.star_off.report),
        ("ramp", "const:2.0", bat.rogue.report),
        ("ramp", "gap_rate", bat.expansion.report),
    ]
    cols = ["t0", "path_id", "gamma_id", "verdict", "estimate"]
    rows = [(t0, pid, gid, rep.verdict, rep.estimate)
            for pid, gid, rep in table]
    comments = [f"spatial_max_err = {_fmt(bat.spatial_max_err)}",
                f"alpha = {_fmt(bat.expansion.alpha)}",
                f"alpha_hat = {_fmt(bat.expansion.alpha_hat)}",
                f"rate_slope = {_fmt(bat.expansion.slope)}",
                f"passed = {_fmt(bat.passed)}"]
    trailer = ["path_id,gamma_id,eta,quotient"]
    trailer += [f"{pid},{gid},{repr(float(e))},{repr(float(q))}"
                for pid, gid, rep in table
                for e, q in zip(rep.etas, rep.quotients)]
    if cfg["ladders_out"]:
        lrows = [(pid, gid, e, q) for pid, gid, rep in table
                 for e, q in zip(rep.etas, rep.quotients)]
        write_csv(cfg["ladders_out"], cfg,
                  ["path_id", "gamma_id", "eta", "quotient"], lrows)
    return cols, rows, comments, trailer


def _corpus_levels(cfg):
    lo, hi = cfg["level_min"], cfg["level_max"]
    if not 0 <= lo <= hi <= cfg["n_exp"]:
        raise ConfigError("need 0 <= level_min <= level_max <= n_exp")
    return range(lo, hi + 1)


def run_ito_check(cfg):
    F = parse_functional(cfg["functional"], 1)
    if cfg["paths"] < 1:
        raise ConfigError("paths must be at least 1")
    paths = [ito.brownian_path(cfg["seed"], i, n_exp=cfg["n_exp"],
                               horizon=cfg["horizon"])
             for i in range(cfg["paths"])]
    rows = []
    for level in _corpus_levels(cfg):
        res = []
        mesh = None
        for p in paths:
            times = ito.dyadic_subsample(p, level, n_exp=cfg["n_exp"])
            dec = ito.ito_residual(F, p, times)
            mesh = float(np.diff(dec.times).max())
            res.append(abs(dec.residual))
        rows.append((level, mesh, float(np.median(res))))
    return ["level", "mesh", "residual"], rows, [], ()


def run_qv(cfg):
    p = ito.brownian_path(cfg["seed"], cfg["index"], n_exp=cfg["n_exp"],
                          horizon=cfg["horizon"], dim=cfg["dim"])
    d = cfg["dim"]
    cols = ["level"] + (["qv_T"] if d == 1 else
                        [f"qv_T_{i}{j}" for i in range(d) for j in range(d)])
    rows = []
    for level in _corpus_levels(cfg):
        times = ito.dyadic_subsample(p, level, n_exp=cfg["n_exp"])
        qv = ito.quadratic_covariation(p, times)
        rows.append((level, *qv.final().reshape(-1)))
    return cols, rows, [], ()


def run_stratonovich(cfg):
    p = ito.brownian_path(cfg["seed"], cfg["index"], n_exp=cfg["n_exp"],
                          horizon=cfg["horizon"])
    G = parse_direction(cfg["integrand"], 1)
    rows = []
    for level in _corpus_levels(cfg):
        times = ito.dyadic_subsample(p, level, n_exp=cfg["n_exp"])
        r = ito.stratonovich_integral(G, p, times)
        mesh = float(np.diff(times).max())
        rows.append((level, mesh, r.ito, r.covariation, r.value))
    return ["level", "mesh", "ito", "covariation", "value"], rows, [], ()


def run_feynman_kac(cfg):
    if cfg["n_paths"] < 2:
        raise ConfigError("n_paths must be at least 2 to give a stderr")
    spec, f = fk.benchmark(cfg["benchmark"], horizon=cfg["horizon"])
    x0 = parse_path(cfg["x0"], cfg)
    rows = []
    for t in _floats(cfg["times"]):
        est = fk.estimate_f(spec, t, x0, n_paths=cfg["n_paths"],
                            n_steps=cfg["n_steps"], seed=cfg["seed"])
        exact = f.eval(t, stop(x0, t))
        res = fk.fk_residual(f, spec, t, x0)
        rows.append((t, est.value, est.stderr, exact, res))
    return ["t", "f_mc", "stderr", "f_exact", "residual"], rows, [], ()


def run_probe(cfg):
    F = parse_functional(cfg["functional"], cfg["dim"])
    which = cfg["probe"]
    if which not in ("non-anticipative", "boundedness", "lipschitz", "all"):
        raise ConfigError("probe must be non-anticipative, boundedness, "
                          "lipschitz or all")
    reports = []
    if which in ("non-anticipative", "all"):
        reports.append(probe_non_anticipative(
            F, dim=cfg["dim"], samples=cfg["samples"], seed=cfg["seed"],
            horizon=cfg["horizon"]))
    if which in ("boundedness", "all"):
        reports.append(probe_boundedness(
            F, cfg["box"], dim=cfg["dim"], samples=cfg["samples"],
            seed=cfg["seed"], horizon=cfg["horizon"]))
    if which in ("lipschitz", "all"):
        field = parse_direction(cfg["direction"], cfg["dim"])
        reports.append(probe_lipschitz(
            field, samples=cfg["samples"], seed=cfg["seed"],
            horizon=cfg["horizon"]))
    rows = [(r.label, r.passed, r.metric, r.samples) for r in reports]
    return ["probe", "passed", "metric", "samples"], rows, [], ()


HANDLERS = {
    "flow": run_flow,
    "deriv": run_deriv,
    "relation": run_relation,
    "recover-grad": run_recover_grad,
    "counterexample": run_counterexample,
    "ito-check": run_ito_check,
    "qv": run_qv,
    "stratonovich": run_stratonovich,
    "feynman-kac": run_feynman_kac,
    "probe": run_probe,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command's own parser only; top-level help, an unknown command and
    # an empty argv need the full one
    names = argv[:1] if argv[:1] and argv[0] in OPTS else tuple(OPTS)
    args = build_parser(names).parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # no warning lines on stderr
            cfg = resolve(OPTS[args.command], args)
            columns, rows, comments, trailer = HANDLERS[args.command](cfg)
            write_csv(args.out, cfg, columns, rows, stamp=args.stamp,
                      comments=comments, trailer=trailer)
    except (ConfigError, DomainError) as e:
        print(f"config-error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical-error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io-error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
