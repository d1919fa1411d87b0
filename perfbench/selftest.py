"""Self-test of the benchmark at its smallest size (one pass per run).

From the repository root:

    python3 perfbench/selftest.py [--workloads clt-dyadic ...]

Checks, at the default seed:
  * every workload emits exactly the BENCHMARK.json end-to-end metrics with
    ``--trace 0`` and exactly its per-layer metrics with ``--trace 1``, each
    with its unit, and passes every check;
  * a deliberately wrong golden hash makes a run fail (``failed`` > 0 and
    ``fail_frac`` > 0);
  * in a directory holding only BENCHMARK.json and the benchmark's files the
    command exits non-zero without printing a result.
Exits 0 when all hold.  Scratch files go under ``.perfbench_out/``.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

OUT = Path(".perfbench_out")


def _run(command, workload, seed, trace, cwd=None):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def _copy_bench(bench, dest: Path) -> None:
    """BENCHMARK.json and the benchmark's files, alone, under ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", dest / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))


def _result(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    golden_path = Path(bench["paths"][0]) / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    seed = golden["default_seed"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)

    problems = []
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in args.workloads:
        for trace in (0, 1):
            done = _run(bench["command"], workload, seed, trace)
            where = f"{workload} --trace {trace}"
            before = len(problems)
            result = _result(done) if done.returncode == 0 else None
            if result is None:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-2000:]}")
                print(f"{where}: FAILED", flush=True)
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks failed: {done.stderr[-2000:]}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics/units differ: "
                                f"missing {sorted(set(expected[trace]) - set(units))}, "
                                f"extra {sorted(set(units) - set(expected[trace]))}, "
                                f"units {[(n, u) for n, u in units.items() if expected[trace].get(n) not in (None, u)]}")
            values = [m["value"] for m in result["metrics"].values()]
            if not all(isinstance(v, (int, float)) for v in values):
                problems.append(f"{where}: non-numeric metric value")
            if trace == 0 and not all(v > 0 for v in values):
                problems.append(f"{where}: an end-to-end metric is not positive: {result['metrics']}")
            print(f"{where}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)

    # a copy of the benchmark whose golden.json has one hash altered, run
    # from here so that it measures this checkout's library
    wrong_dir = OUT / "wrong"
    _copy_bench(bench, wrong_dir)
    wrong = json.loads(json.dumps(golden))
    section = wrong["clt-dyadic"]["default_seed"]
    key = sorted(section)[0]
    section[key] = ("0" if section[key][0] != "0" else "1") + section[key][1:]
    (wrong_dir / golden_path).write_text(json.dumps(wrong), encoding="utf-8")
    script = wrong_dir / bench["command"][1]
    done = _run([bench["command"][0], str(script)], "clt-dyadic", seed, 0)
    result = _result(done)
    report = next((json.loads(line)["report"] for line in done.stdout.splitlines()
                   if line.startswith('{"report"')), None)
    if (result is None or result["correct"] or result["failed"] < 1 or report is None
            or report["workload_metrics"]["fail_frac"]["value"] <= 0):
        problems.append(f"wrong golden hash did not fail the run: {done.stdout[-2000:]}")
    print(f"wrong golden hash: {'fails the run, ok' if result and result['failed'] else 'NOT detected'}")
    shutil.rmtree(wrong_dir)

    bare = OUT / "bare"
    _copy_bench(bench, bare)
    done = _run(bench["command"], "clt-dyadic", seed, 0, cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"bare directory run: exit {done.returncode}, stdout {done.stdout[-500:]!r}")
    print(f"bare directory: exit {done.returncode}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"SELFTEST PROBLEM: {problem}")
    print("selftest:", "PASS" if not problems else "FAIL")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
