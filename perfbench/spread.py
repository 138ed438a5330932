"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --tag set1
    python3 perfbench/spread.py --seeds 11-20 --tag set2 --against set1

Runs ``run.py --trace 0`` once per workload and seed, and prints for each
metric the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--against`` it also prints each median over the median of an earlier set.
The JSON result line of every run, and the summary, go to
``perfbench/results/SPREAD_<tag>.json``.  The exit code is 0 only when
every run passed its checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs):
    """{metric: {"median", "iqr_frac"}} over the runs' JSON lines."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"median": med, "iqr_frac": (q3 - q1) / med}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="seed range, as in 1-10 (default)")
    ap.add_argument("--tag", required=True)
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                    help="repeat to pick workloads (default: all)")
    ap.add_argument("--against", default=None,
                    help="tag of an earlier set to compare medians with")
    opts = ap.parse_args()
    earlier = None
    if opts.against:
        earlier = json.loads(
            (RESULTS / f"SPREAD_{opts.against}.json").read_text())["summary"]
    record = {"tag": opts.tag, "seeds": opts.seeds, "runs": {},
              "summary": {}}
    worst = 0
    for workload in opts.workload or WORKLOAD_NAMES:
        runs = []
        for seed in opts.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            worst = max(worst, proc.returncode)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode in (0, 1) and lines:
                runs.append(json.loads(lines[-1]))
        record["runs"][workload] = runs
        if len(runs) < 2:
            print(f"{workload}: fewer than two runs finished")
            continue
        summary = record["summary"][workload] = summarise(runs)
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, "
              f"{'all' if correct else 'NOT all'} correct")
        for name, s in summary.items():
            line = (f"  {name:<12} median={s['median']:<10.5g} "
                    f"iqr/median={s['iqr_frac']:.3f}")
            if earlier and workload in earlier:
                line += (f"  median/{opts.against}="
                         f"{s['median'] / earlier[workload][name]['median']:.3f}")
            print(line, flush=True)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"SPREAD_{opts.tag}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
