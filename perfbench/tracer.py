"""Span tracer installed from outside pathcalc.

Wraps the public entry points of each layer (module functions, public
methods, view constructors) by name, in every ``pathcalc.*`` namespace that
holds the original object, so ``src/`` needs no hooks.  Each call records a
span (wrapper id, start, end, parent span) in flat in-memory lists plus the
counters its layer defines.  The per-layer table is derived from the spans
afterwards: a layer's self time is the duration of its spans minus the time
covered by their child spans.

A name that a later version of pathcalc removes is reported as missing; the
metrics that only it feeds are then reported absent instead of failing.
"""

import inspect
import json
import os
import sys
from time import perf_counter

import numpy as np

HARNESS = "harness"


def _arg(sig, args, kwargs, name):
    """Argument ``name`` of a call, whether passed by position or keyword."""
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments[name]


def _nth(args, kwargs, i, name):
    """Argument ``name`` of a hot call whose position ``i`` is known."""
    return args[i] if len(args) > i else kwargs[name]


def _n_times(ts):
    return int(np.size(ts))


# ---------------------------------------------------------------------------
# counters; each gets (sig, args, kwargs, result, outer) and returns a dict.
# ``outer`` is False when the caller is a span of the same layer, so a layer
# entry is counted once however the layer calls itself internally.


def _emits(*keys):
    """Declare the counter names a counter function can emit."""
    def mark(fn):
        fn.keys = keys
        return fn
    return mark


@_emits("calls")
def _calls(sig, a, k, r, outer):
    return {"calls": 1} if outer else {}


@_emits("calls", "points")
def _path_eval(sig, a, k, r, outer):
    if not outer:
        return {}
    return {"calls": 1, "points": _n_times(_nth(a, k, 1, "ts"))}


@_emits("views_built", "calls")
def _view_built(sig, a, k, r, outer):
    out = {"views_built": 1}
    if outer:
        out["calls"] = 1
    return out


@_emits("calls", "points")
def _functional_one(sig, a, k, r, outer):
    return {"calls": 1, "points": 1} if outer else {}


@_emits("calls", "points")
def _functional_many(sig, a, k, r, outer):
    if not outer:
        return {}
    return {"calls": 1, "points": _n_times(_nth(a, k, 1, "ts"))}


@_emits("solves", "windows", "sweeps", "grid_points")
def _flow_solve(sig, a, k, r, outer):
    return {"solves": 1, "windows": len(r.iterations),
            "sweeps": int(sum(r.iterations)), "grid_points": len(r.grid)}


@_emits("studies", "rungs", "converged")
def _judge(sig, a, k, r, outer):
    return {"studies": 1, "rungs": len(r.quotients),
            "converged": int(r.verdict == "converged")}


@_emits("partition_points", "calls")
def _snap(sig, a, k, r, outer):
    out = {"partition_points": _n_times(_nth(a, k, 0, "times"))}
    if outer:
        out["calls"] = 1
    return out


@_emits("calls", "paths_simulated", "steps_simulated")
def _fk_estimate(sig, a, k, r, outer):
    if not outer:
        return {}
    n = int(_arg(sig, a, k, "n_paths"))
    return {"calls": 1, "paths_simulated": n,
            "steps_simulated": n * int(_arg(sig, a, k, "n_steps"))}


@_emits("calls", "paths_simulated", "steps_simulated")
def _fk_martingale(sig, a, k, r, outer):
    if not outer:
        return {}
    n = int(_arg(sig, a, k, "n_paths"))
    steps = _n_times(_arg(sig, a, k, "t_grid")) - 1
    return {"calls": 1, "paths_simulated": n, "steps_simulated": n * steps}


@_emits("calls", "paths_simulated", "steps_simulated")
def _fk_simulate(sig, a, k, r, outer):
    if not outer:
        return {}
    grid = _arg(sig, a, k, "grid")
    steps = int(_arg(sig, a, k, "n_steps")) if grid is None \
        else _n_times(grid) - 1
    return {"calls": 1, "paths_simulated": 1, "steps_simulated": steps}


@_emits("streams")
def _rng_stream(sig, a, k, r, outer):
    return {"streams": 1}


@_emits("normals_drawn")
def _rng_normals(sig, a, k, r, outer):
    return {"normals_drawn": int(np.size(r))}


@_emits("calls", "rows", "bytes_computed")
def _kernel(sig, a, k, r, outer):
    return {"calls": 1, "rows": len(a[0]), "bytes_computed": int(r.nbytes)}


@_emits("commands")
def _cli_main(sig, a, k, r, outer):
    return {"commands": 1}


@_emits("bytes_written")
def _cli_write(sig, a, k, r, outer):
    out = _arg(sig, a, k, "out")
    if out is None or out == "-":
        return {}
    return {"bytes_written": os.path.getsize(out)}


# (layer, module, object, counter).  "Class.method" wraps a method in the
# class's own namespace; "Class.__init__" times construction.
WRAPS = [
    ("paths", "paths", "PathBase.eval", _path_eval),
    ("paths", "paths", "PathBase.eval_left", _path_eval),
    ("paths", "paths", "PathBase.integral_prefix", _path_eval),
    ("paths", "paths", "PathBase.running_max_prefix", _path_eval),
    ("paths", "paths", "GridPath.__init__", _calls),
    ("paths", "paths", "stop", _calls),
    ("paths", "paths", "bump", _calls),
    ("paths", "paths", "concat", _calls),
    ("paths", "paths", "dist_stopped", _calls),
    ("paths", "paths", "constant_path", _calls),
    ("paths", "paths", "ramp_path", _calls),
    ("paths", "paths", "path_to_csv", _calls),
    ("paths", "paths", "path_from_csv", _calls),
    # every other PathBase subclass of the paths module is a view; its
    # constructor is added by Tracer.install as ("paths", ..., _view_built)
    ("functionals", "functionals", "Functional.eval", _functional_one),
    ("functionals", "functionals", "Functional.eval_many", _functional_many),
    ("functionals", "functionals", "VectorFunctional.eval", _functional_one),
    ("functionals", "functionals", "VectorFunctional.eval_many",
     _functional_many),
    ("functionals", "functionals", "MatrixFunctional.eval", _functional_one),
    ("functionals", "functionals", "FunctionalWithDerivatives.grad_vector",
     _functional_one),
    ("functionals", "functionals", "FunctionalWithDerivatives.grad_many",
     _functional_many),
    ("functionals", "functionals", "FunctionalWithDerivatives.hess_matrix",
     _functional_one),
    ("functionals", "functionals", "FunctionalWithDerivatives.hess_many",
     _functional_many),
    ("functionals", "functionals", "probe_non_anticipative", None),
    ("functionals", "functionals", "probe_boundedness", None),
    ("functionals", "functionals", "probe_lipschitz", None),
    ("functionals", "functionals", "check_hessian_symmetry", None),
    ("flow", "flow", "solve_flow", _flow_solve),
    ("flow", "flow", "euler_flow", _flow_solve),
    ("flow", "flow", "FlowSolution.residual", None),
    ("deriv", "deriv", "judge", _judge),
    ("deriv", "deriv", "d_gamma", None),
    ("deriv", "deriv", "d_horizontal", None),
    ("deriv", "deriv", "d_space", None),
    ("deriv", "deriv", "relation_residual", None),
    ("deriv", "deriv", "recover_gradient", None),
    ("deriv", "deriv", "horizontal_from_gamma", None),
    ("pathology", "pathology", "ramp_battery", _calls),
    ("pathology", "pathology", "check_direction", _calls),
    ("pathology", "pathology", "expansion_check", _calls),
    ("pathology", "pathology", "expansion_rate", _calls),
    ("ito", "ito", "snap_partition", _snap),
    ("ito", "ito", "quadratic_covariation", _calls),
    ("ito", "ito", "partition_integral", _calls),
    ("ito", "ito", "ito_residual", _calls),
    ("ito", "ito", "stratonovich_integral", _calls),
    ("ito", "ito", "midpoint_sum", _calls),
    ("ito", "ito", "polygonal", _calls),
    ("ito", "ito", "brownian_path", _calls),
    ("ito", "ito", "dyadic_subsample", _calls),
    ("fk", "fk", "estimate_f", _fk_estimate),
    ("fk", "fk", "martingale_check", _fk_martingale),
    ("fk", "fk", "simulate_sde", _fk_simulate),
    ("fk", "fk", "fk_residual", _calls),
    ("fk", "fk", "benchmark", _calls),
    ("rng", "rng", "substream", _rng_stream),
    ("rng", "rng", "uniforms", None),
    ("rng", "rng", "normals", _rng_normals),
    ("kernels", "_kernels", "trapezoid_prefix", _kernel),
    ("kernels", "_kernels", "left_prefix", _kernel),
    ("kernels", "_kernels", "outer_increment_prefix", _kernel),
    ("kernels", "_kernels", "dot_increment_prefix", _kernel),
    ("kernels", "_kernels", "quad_form_prefix", _kernel),
    ("cli", "cli", "main", _cli_main),
    ("cli", "cli", "write_csv", _cli_write),
]

# per-layer metric -> the counter it reads ("self_s" is the derived self time)
METRICS = {
    "paths": ("calls", "points", "views_built", "self_s"),
    "functionals": ("calls", "points", "self_s"),
    "flow": ("solves", "windows", "sweeps", "grid_points", "self_s"),
    "deriv": ("studies", "rungs", "converged_frac", "self_s"),
    "pathology": ("calls", "self_s"),
    "ito": ("calls", "partition_points", "self_s"),
    "fk": ("calls", "paths_simulated", "steps_simulated", "self_s"),
    "rng": ("streams", "normals_drawn", "self_s"),
    "kernels": ("calls", "rows", "bytes_computed", "self_s"),
    "cli": ("commands", "bytes_written", "self_s"),
}


class Tracer:
    """Collects spans and counters of the calls made while installed."""

    def __init__(self):
        self._ids = {}          # wrapper label -> id
        self.labels = []        # id -> "layer:module.object"
        self.layer_of = []      # id -> layer
        self.installed = []     # (owner, attribute, original)
        self.missing = []       # labels of wraps whose target is gone
        self.counter_keys = {}  # layer -> counter names some wrap can feed
        self.reset()

    def reset(self):
        self.sp_id = []
        self.sp_parent = []
        self.sp_start = []
        self.sp_end = []
        self.counts = {}
        self._stack = [-1]

    def _register(self, layer, label):
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
            self.layer_of.append(layer)
        return self._ids[label]

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target in ``WRAPS`` that the loaded pathcalc has."""
        self.missing = []
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == "pathcalc"
                                      or name.startswith("pathcalc."))}
        paths_mod = mods["pathcalc.paths"]
        wraps = list(WRAPS)
        for name, obj in sorted(vars(paths_mod).items()):
            if isinstance(obj, type) and issubclass(obj, paths_mod.PathBase) \
                    and obj not in (paths_mod.PathBase, paths_mod.GridPath) \
                    and obj.__module__ == paths_mod.__name__:
                wraps.append(("paths", "paths", f"{name}.__init__",
                              _view_built))
        for layer, module, target, counter in wraps:
            label = f"{layer}:{module}.{target}"
            mod = mods.get(f"pathcalc.{module}")
            owner_name, _, attr = target.rpartition(".")
            owner = mod
            if owner_name and mod is not None:
                owner = getattr(mod, owner_name, None)
            if owner is None or (owner_name and attr not in vars(owner)) \
                    or not hasattr(owner, attr):
                self.missing.append(label)
                continue
            original = getattr(owner, attr)
            wid = self._register(layer, label)
            wrapper = self._wrap(original, wid, counter, layer,
                                 only_self=bool(owner_name)
                                 and attr == "__init__")
            if owner_name:
                self.installed.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                for m in mods.values():
                    if vars(m).get(attr) is original:
                        self.installed.append((m, attr, original))
                        setattr(m, attr, wrapper)
            if counter is not None:
                keys = self.counter_keys.setdefault(layer, set())
                keys.update(counter.keys)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    def _wrap(self, fn, wid, counter, layer, only_self=False):
        tracer = self
        sig = inspect.signature(fn)
        layer_of = self.layer_of
        cls_name = None
        if only_self:
            cls_name = fn.__qualname__.rpartition(".")[0]

        def wrapper(*args, **kwargs):
            # a subclass constructor reaching this one through super() is
            # one construction, recorded by the outermost constructor only
            if cls_name is not None and type(args[0]).__qualname__ != cls_name:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            idx = len(tracer.sp_id)
            tracer.sp_id.append(wid)
            tracer.sp_parent.append(parent)
            tracer.sp_start.append(0.0)
            tracer.sp_end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.sp_start[idx] = t0
                tracer.sp_end[idx] = t1
            if counter is not None:
                outer = parent < 0 or \
                    layer_of[tracer.sp_id[parent]] != layer
                counts = tracer.counts
                for key, n in counter(sig, args, kwargs, result,
                                      outer).items():
                    key = f"{layer}.{key}"
                    counts[key] = counts.get(key, 0) + n
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- harness spans ------------------------------------------------------

    def open(self, name):
        """Start a harness span (one workload unit); returns its index."""
        wid = self._register(HARNESS, f"{HARNESS}:{name}")
        idx = len(self.sp_id)
        self.sp_id.append(wid)
        self.sp_parent.append(self._stack[-1])
        self.sp_start.append(perf_counter())
        self.sp_end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.sp_end[idx] = perf_counter()
        self._stack.pop()

    # -- derived table ------------------------------------------------------

    def self_times(self):
        """Self time per span: duration minus time covered by children."""
        start = np.asarray(self.sp_start)
        dur = np.asarray(self.sp_end) - start
        parent = np.asarray(self.sp_parent, dtype=np.int64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has],
                            minlength=len(dur))
        return dur - child

    def table(self):
        """Per-wrapper rows: layer, number of spans and self time."""
        own = self.self_times()
        ids = np.asarray(self.sp_id, dtype=np.int64)
        per_id = np.bincount(ids, weights=own, minlength=len(self.labels))
        spans = np.bincount(ids, minlength=len(self.labels))
        return [{"wrap": label, "layer": self.layer_of[i],
                 "spans": int(spans[i]), "self_s": float(per_id[i])}
                for i, label in enumerate(self.labels)]

    def layer_metrics(self):
        """(metrics, absent): per-layer values named as in ``METRICS``."""
        rows = self.table()
        wrapped = {r["layer"] for r in rows}
        metrics, absent = {}, []
        for layer, names in METRICS.items():
            fed = self.counter_keys.get(layer, set())
            for name in names:
                key = f"{layer}.{name}"
                if name == "self_s":
                    if layer not in wrapped:
                        absent.append(key)
                        continue
                    metrics[key] = sum(r["self_s"] for r in rows
                                       if r["layer"] == layer)
                elif name == "converged_frac":
                    if "studies" not in fed:
                        absent.append(key)
                        continue
                    studies = self.counts.get("deriv.studies", 0)
                    metrics[key] = (self.counts.get("deriv.converged", 0)
                                    / studies) if studies else 0.0
                elif name in fed:
                    metrics[key] = self.counts.get(key, 0)
                else:
                    absent.append(key)
        return metrics, absent

    def dump(self, path, extra):
        """Write the spans (column arrays) and derived tables as JSON."""
        doc = dict(extra)
        doc["wraps"] = self.labels
        doc["missing_wraps"] = self.missing
        doc["spans"] = {"columns": ["wrap", "start_s", "end_s", "parent"],
                        "wrap": self.sp_id,
                        "start_s": self.sp_start,
                        "end_s": self.sp_end,
                        "parent": self.sp_parent}
        doc["per_wrap"] = self.table()
        doc["counters"] = self.counts
        with open(path, "w") as fh:
            json.dump(doc, fh)

