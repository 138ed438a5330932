"""Time one fresh set-up: imports, then the workload's inputs.

Started by run.py as a new process.  It prints one JSON line with the
split as soon as the inputs are ready, then a second one with the median
time of the reference block (reference.py) run in the same process, which
run.py scales the set-up times by.

    python3 perfbench/setup_probe.py --workload ladders --seed 1
"""

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REF_WARMUP = 3
REF_RUNS = 15


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    opts = ap.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))

    t0 = perf_counter()
    import numpy  # noqa: F401
    t1 = perf_counter()
    import scipy.special  # noqa: F401
    t2 = perf_counter()
    import pathcalc  # noqa: F401
    import workloads
    t3 = perf_counter()
    workloads.WORKLOADS[opts.workload](opts.seed, HERE / "out")
    t4 = perf_counter()
    print(json.dumps({"import_numpy_s": t1 - t0, "import_scipy_s": t2 - t1,
                      "import_pathcalc_s": t3 - t2, "inputs_s": t4 - t3}),
          flush=True)
    from reference import reference_s
    ref = [reference_s() for _ in range(REF_RUNS + REF_WARMUP)][REF_WARMUP:]
    print(json.dumps({"ref_s": statistics.median(ref)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
