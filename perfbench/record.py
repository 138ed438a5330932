"""Run every workload, untraced and traced, and collect one results file.

    python3 perfbench/record.py --seed 1 --tag baseline

Each run is a separate ``run.py`` process; its report is passed through.
With ``--tag`` the per-run records (environment, metrics, checks, passes)
are written together to ``perfbench/results/BENCH_<tag>.json``.  The exit
code is 0 only when every run passed its checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tag", default=None,
                    help="write perfbench/results/BENCH_<tag>.json")
    opts = ap.parse_args()
    runs, worst = [], 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"),
                   "--workload", workload, "--seed", str(opts.seed),
                   "--trace", str(trace)]
            code = subprocess.run(cmd).returncode
            worst = max(worst, code)
            if code in (0, 1):   # the run finished and wrote its record
                name = f"result-{workload}-seed{opts.seed}-trace{trace}.json"
                runs.append(json.loads((OUT / name).read_text()))
    if opts.tag:
        dest = HERE / "results" / f"BENCH_{opts.tag}.json"
        dest.parent.mkdir(exist_ok=True)
        dest.write_text(json.dumps({"tag": opts.tag, "seed": opts.seed,
                                    "runs": runs}, indent=1) + "\n")
        print(f"wrote {dest.relative_to(HERE.parent)}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
