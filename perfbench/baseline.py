"""Record the benchmark baseline ledger: ``perfbench/baseline/ledger.json``.

For each workload, ``PAIRS`` pairs of an untraced and a traced run
(separate processes, as the benchmark is run; pair *i* uses seed
``--seed + i``); the ledger keeps the median of each metric over the
untraced and over the traced runs (the traced ones hold each layer's
share of the golden passes, ``golden.share.*``, and the split of a
``/session/step`` request, ``step.*_share``) and the tracing overhead
(traced / untraced - 1 on the medians of the end-to-end timings the
traced run also reports).  Run from the repository root::

    python3 perfbench/baseline.py --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = pathlib.Path(__file__).resolve().parent / "baseline" / "ledger.json"

#: end-to-end timings the traced run repeats (tracing overhead)
OVERHEAD = ("job_geomean_ms", "pass_s", "step_p50_ms", "sweep_s")
#: untraced/traced run pairs per workload: one pair's ratio is within
#: the host's run-to-run noise
PAIRS = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/baseline.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench.run import WORKLOADS
    workloads = {}
    for workload in WORKLOADS:
        runs = {0: [], 1: []}
        for pair in range(PAIRS):
            for trace in (0, 1):
                runs[trace].append(run_once(workload, args.seed + pair,
                                            args.seconds, trace))
        untraced, traced = ({name: statistics.median(r[name] for r in rs)
                             for name in rs[0]}
                            for rs in (runs[0], runs[1]))
        workloads[workload] = {
            "endToEnd": untraced,
            "perLayer": traced,
            "tracingOverhead": {
                name: traced[f"traced.{name}"] / untraced[name] - 1
                for name in OVERHEAD},
        }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({
        "host": {"machine": platform.machine(),
                 "processor": platform.processor() or "unknown",
                 "python": platform.python_version(),
                 "nproc": os.cpu_count()},
        "seed": args.seed, "pairs": PAIRS, "seconds": args.seconds,
        "workloads": workloads,
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
