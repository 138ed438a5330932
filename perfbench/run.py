"""Whole-workload benchmark for pathcalc.

    python3 perfbench/run.py --workload ladders --seed 1 --seconds 15 --trace 0

Runs one workload (see workloads.py) against the pathcalc sources in
``src/`` of this checkout, as a closed loop from one process and one thread:
each unit starts when the previous one returns.  The unit list is run in
whole passes, rebuilt from the seed before each pass and run in a shuffled
order, until ``--seconds`` of passes have been measured; every unit result
is then checked.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer split: the tracer (tracer.py) wraps pathcalc's public entry
points from outside, keeps spans in memory and writes them to
``perfbench/out/trace-<workload>-seed<seed>.json`` when the run ends.

Set-up time is measured in fresh processes (setup_probe.py), several per
run and spread between the passes, and reported as their median.

Every reported time is scaled to one machine speed (reference.py): a fixed
reference block runs right after each unit and in each set-up probe, and a
time t is reported as t x REF_S / (the block's time next to it).  ``wall_s``
and the unit percentiles are taken over each unit's median scaled time
across the run's passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when one failed and 2 when the run could not start.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one thread throughout, in this process and in the set-up probes; set before
# numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

from reference import REF_S, reference_s  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60
WORKLOAD_NAMES = ("ladders", "monte_carlo", "partitions", "cli_defaults")


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest value with pct% at or below."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# set-up, in fresh processes


def setup_probe(workload, seed):
    """One set-up in a new interpreter process: (seconds, split).

    The seconds run from the spawn until the child reports its inputs are
    ready, so they include interpreter start-up.  Both are scaled by the
    reference block the child times after that.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            total = perf_counter() - t0
            ref_line = proc.stdout.readline()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or not ref_line:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    scale = REF_S / json.loads(ref_line)["ref_s"]
    return total * scale, {k: v * scale for k, v in json.loads(line).items()}


# ---------------------------------------------------------------------------
# passes


class Pass:
    """One pass over the workload's units, timed, then checked.

    The units run in an order shuffled by ``order_seed``, so that a slow
    stretch of the machine falls on different units in different passes;
    times and results are kept in unit order.  The reference block runs
    after each unit, outside its span; ``ref_s`` holds its times.
    """

    def __init__(self, build, seed, order_seed, tracer=None):
        units, finish = build(seed, OUT)
        order = list(range(len(units)))
        random.Random(order_seed).shuffle(order)
        results, self.unit_s = [None] * len(units), [0.0] * len(units)
        self.ref_s = [0.0] * len(units)
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            start = perf_counter()
            for i in order:
                unit = units[i]
                span = tracer.open(unit.kind) if tracer is not None else None
                t0 = perf_counter()
                try:
                    res = unit.run()
                except Exception as exc:  # a failed unit is counted, not fatal
                    res = exc
                self.unit_s[i] = perf_counter() - t0
                if span is not None:
                    tracer.close(span)
                self.ref_s[i] = reference_s()
                results[i] = res
            self.wall_s = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted = len(units)
        self.same_as = [unit.same_as for unit in units]
        self.failures = []
        done = []
        for unit, res in zip(units, results):
            if isinstance(res, Exception):
                ok, detail = False, f"raised {type(res).__name__}: {res}"
            else:
                ok, detail = unit.check(res)
                ok = bool(ok)
                done.append((unit, res))
            if not ok:
                self.failures.append(f"{unit.kind}: {detail}")
        self.checks = [(name, bool(ok), detail)
                       for name, ok, detail in finish(done)]


def measure(build, workload, seed, seconds, tracer=None):
    """Time whole passes until ``seconds`` of them are spent.

    With a tracer, untraced and traced passes alternate, and the layer
    metrics of each traced pass are kept.  The SETUP_RUNS set-up probes are
    spread between the passes in proportion to the time measured, so that
    they sample the same stretch of the machine's time as the passes do.
    Returns (untraced passes, traced passes, layer runs, set-up probes).
    """
    plain, traced, layer_runs = [], [], []
    probes = [setup_probe(workload, seed)]
    measured = 0.0
    while not plain or measured < seconds:
        plain.append(Pass(build, seed, len(plain)))
        measured += plain[-1].wall_s
        if tracer is not None:
            traced.append(Pass(build, seed, len(traced), tracer))
            layer_runs.append(tracer.layer_metrics())
            measured += traced[-1].wall_s
        due = min(SETUP_RUNS, round(SETUP_RUNS * measured / seconds))
        while len(probes) < due:
            probes.append(setup_probe(workload, seed))
    while len(probes) < SETUP_RUNS:
        probes.append(setup_probe(workload, seed))
    return plain, traced, layer_runs, probes


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    """HEAD of the checkout, or 'unknown' outside git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# report


def _metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_units(passes):
    """Each unit's median scaled time over the passes, in unit order.

    A unit's time in a pass is scaled by the reference block that ran right
    after it, so both saw the same speed of the shared machine.  Units
    marked as the same call on the same inputs pool their scaled times.
    """
    samples = [[REF_S * t / r for t, r in zip(p.unit_s, p.ref_s)]
               for p in passes]
    pooled = {}
    for label, times in zip(passes[0].same_as, zip(*samples)):
        if label is not None:
            pooled.setdefault(label, []).extend(times)
    return [statistics.median(pooled[label] if label is not None else times)
            for label, times in zip(passes[0].same_as, zip(*samples))]


def end_to_end(passes, setup_s):
    scaled = scaled_units(passes)
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(math.fsum(scaled), "s"),
        "unit_ms.p50": _metric(nearest_rank(scaled, 50) * 1e3, "ms"),
        "unit_ms.p90": _metric(nearest_rank(scaled, 90) * 1e3, "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


UNITS = {"self_s": "s", "converged_frac": "frac", "bytes_computed": "B",
         "bytes_written": "B"}


def per_layer(plain, traced, layer_runs, setup_split):
    """Counts of the last traced pass (every pass does the same work),
    self times as the median over traced passes, each scaled by the median
    reference block of its pass."""
    metrics = {}
    last, absent = layer_runs[-1]
    scales = [REF_S / statistics.median(p.ref_s) for p in traced]
    for key, value in last.items():
        name = key.rpartition(".")[2]
        if name == "self_s":
            value = statistics.median(run[0][key] * scale for run, scale
                                      in zip(layer_runs, scales))
        metrics[key] = _metric(value, UNITS.get(name, "count"))
    for key, value in setup_split.items():
        metrics[key] = _metric(value, "s")
    metrics["trace.overhead_frac"] = _metric(
        math.fsum(scaled_units(traced)) / math.fsum(scaled_units(plain))
        - 1.0, "frac")
    return metrics, absent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed, >= 0 (default 1)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measure whole passes until this much time is "
                         "spent (default 15)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer split from traced passes")
    opts = ap.parse_args(argv)
    if opts.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "pathcalc" / "__init__.py").is_file():
        print(f"perfbench: pathcalc sources not found under {SRC}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    import workloads
    build = workloads.WORKLOADS[opts.workload]

    tracer = None
    if opts.trace:
        from tracer import Tracer
        tracer = Tracer()
    plain, traced, layer_runs, probes = measure(
        build, opts.workload, opts.seed, opts.seconds, tracer)
    setup_runs = [total for total, _ in probes]
    if opts.trace:
        split = {f"setup.{k}": statistics.median(p[k] for _, p in probes)
                 for k in probes[0][1]}
        metrics, absent = per_layer(plain, traced, layer_runs, split)
    else:
        metrics, absent = end_to_end(plain, statistics.median(setup_runs)), []
    passes = plain + traced

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    checks = list(dict.fromkeys(c for p in passes for c in p.checks))
    correct = not failures and all(ok for _, ok, _ in checks)
    env = environment(opts.seed)

    print(f"pathcalc perfbench: workload={opts.workload} seed={opts.seed} "
          f"seconds={opts.seconds:g} trace={opts.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"closed loop, 1 process, 1 thread; {len(passes)} passes of "
          f"{passes[0].attempted} units; set-up in {SETUP_RUNS} fresh "
          f"processes")
    print("set-up runs (s, scaled): " + ", ".join(f"{t:.3f}" for t in setup_runs))
    print("pass wall (s): " + ", ".join(f"{p.wall_s:.3f}" for p in passes))
    if opts.trace:
        print("per-layer self time and counts from traced passes; no queues "
              "or other threads, so time waiting does not apply")
        tracer.dump(OUT / f"trace-{opts.workload}-seed{opts.seed}.json",
                    {"workload": opts.workload, "environment": env})
        print("wrappers of the last traced pass:")
        for row in tracer.table():
            if row["spans"]:
                print(f"  {row['wrap']:<56} spans={row['spans']:<8} "
                      f"self_s={row['self_s']:.4f}")
    else:
        n = passes[0].attempted
        ref_ms = statistics.median(r for p in passes for r in p.ref_s) * 1e3
        print(f"wall_s is the sum and unit_ms the nearest-rank percentiles "
              f"of the {n} units' median times over {len(passes)} passes "
              f"({n - math.ceil(0.9 * n)} units beyond p90), scaled to a "
              f"reference block of {REF_S * 1e3:g} ms; it took "
              f"{ref_ms:.3f} ms in this run")
    print(f"  failed_frac = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} units)")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for key in absent:
        print(f"  {key} = absent (its wrapped name is gone)")
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    for f in failures[:10]:
        print(f"unit FAIL: {f}")

    record = {"workload": opts.workload, "seed": opts.seed,
              "seconds": opts.seconds, "trace": opts.trace,
              "environment": env, "metrics": metrics, "absent": absent,
              "passes": [{"wall_s": p.wall_s, "units": p.attempted,
                          "failed": len(p.failures)} for p in passes],
              "setup_runs_s": setup_runs,
              "checks": checks,
              "failures": failures[:50]}
    (OUT / f"result-{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
