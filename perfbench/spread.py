"""Run-to-run spread of the end-to-end metrics over several seeds.

From the repository root:

    python3 perfbench/spread.py --workloads clt-dyadic lil-dyadic --seeds 1 2 3 4 5

Each run is a fresh ``run.py`` process with ``--trace 0`` and the run length
from BENCHMARK.json.  For every workload and metric this prints the median,
the quartiles and the spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound, and flags any spread above a third of the bound.  Failed
checks are reported too.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        failed = 0
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.4g}" for name in bounds), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            steady = steady and not flag
            print(f"{workload:16s} {name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}{flag}")
        print(f"{workload:16s} failed checks: {failed}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
