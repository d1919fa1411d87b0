"""Run one lacunaria benchmark workload in this fresh process.

From the repository root:

    python3 perfbench/run.py --workload clt-dyadic --seed 1 --seconds 18 --trace 0

The run builds the workload's inputs from ``--seed``, then repeats identical
passes (closed loop, one caller, ``workers=1``, BLAS pinned to one thread)
until ``--seconds`` have passed; at least one pass always runs.  Every pass
checks its outputs (see ``workloads.py``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, writing every span to
``.perfbench_out/``.  Lines before it carry the machine block and a report
with every metric, including the workload-specific rates and ``fail_frac``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread: set before numpy is imported, inherited by probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
# set-up is timed in this process and in this many fresh ones; the median counts
SETUP_PROBES = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "rng.bits.calls": "count",
    "rng.bits.busy_s": "s",
    "mod1.tops.calls": "count",
    "mod1.tops.busy_s": "s",
    "mod1.tops.cells": "count",
    "mod1.tops.bytes_computed": "B",
    "simulate.evaluator_build.calls": "count",
    "simulate.evaluator_build.busy_s": "s",
    "simulate.sum.calls": "count",
    "simulate.sum.self_s": "s",
    "simulate.clt_experiment.busy_s": "s",
    "simulate.summary.busy_s": "s",
    "simulate.charfn_experiment.busy_s": "s",
    "simulate.lil_trajectory.busy_s": "s",
    "simulate.lil_trajectory.self_s": "s",
    "simulate.sample_points.busy_s": "s",
    "simulate.ks_distance.busy_s": "s",
    "simulate.mixture_cdf.busy_s": "s",
    "permute.build_pairing_counterexample.busy_s": "s",
    "permute.build_pairing_counterexample.self_s": "s",
    "permute.verify_certificate.calls": "count",
    "permute.verify_certificate.busy_s": "s",
    "permute.identity.busy_s": "s",
    "permute.random_perm.busy_s": "s",
    "spectra.mixture_profile.busy_s": "s",
    "spectra.mixture_profile.self_s": "s",
    "spectra.mixture_charfn.busy_s": "s",
    "spectra.exact_variance.calls": "count",
    "spectra.exact_variance.busy_s": "s",
    "spectra.expand_frequencies.entries": "count",
    "diophantine.d2_profile.busy_s": "s",
    "diophantine.d2star_profile.busy_s": "s",
    "diophantine.pair_evals": "count",
    "diophantine.histogram_entries": "count",
    "diophantine.count_multi_term.busy_s": "s",
    "diophantine.count_multi_term.entries_est": "count",
    "diophantine.profile_to_json.busy_s": "s",
    "diophantine.profile_json_bytes": "B",
    "seqgen.gen_power.busy_s": "s",
    "seqgen.gen_geometric.busy_s": "s",
    "seqgen.gen_smooth.busy_s": "s",
    "seqgen.gen_random_rstar.busy_s": "s",
    "trace.overhead_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print the set-up seconds and a reference "
                             "slice's seconds, exit")
    return parser.parse_args(argv)


def _cache_bytes(level: int):
    try:
        value = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
        if value > 0:
            return value
    except (ValueError, OSError):
        pass
    try:  # sysfs index<level> is the level-<level> cache on x86 and arm64
        text = Path(f"/sys/devices/system/cpu/cpu0/cache/index{level}/size").read_text()
    except OSError:
        return None
    return text.strip()


def machine_info() -> dict:
    import numpy
    import scipy

    model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "clt_workers": 1,
    }


def _probe_setup(args) -> tuple[float, float]:
    """(set-up seconds, reference-slice seconds) measured in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    setup, ref = done.stdout.strip().splitlines()[-1].split()
    return float(setup), float(ref)


def _timed_setup(spec, seed):
    """Build the inputs; return them and (seconds since process start,
    seconds of a reference slice run right after)."""
    inputs = spec.setup(seed)
    seconds = time.perf_counter() - _T0
    import reference  # after the clock stops: its arrays are not set-up work
    return inputs, (seconds, reference.reference_slice())


def _no_count(name, value):
    pass


def main(argv=None) -> int:
    args = _parse(argv)
    src = Path.cwd() / "src"
    if not (src / "lacunaria" / "__init__.py").is_file():
        print("perfbench: src/lacunaria not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from spans import Tracer

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, sample = _timed_setup(spec, args.seed)
        print(*map(repr, sample))
        return 0

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else None
    if tracer:
        tracer.install()
    inputs, sample = _timed_setup(spec, args.seed)
    setup_samples = [sample]
    if tracer:
        tracer.uninstall()
    else:
        setup_samples += [_probe_setup(args) for _ in range(SETUP_PROBES)]

    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    gate = workloads.Gate(golden.get(args.workload, {}), args.seed == golden["default_seed"])

    import reference
    clock = reference.NominalClock()
    passes = []  # (traced, measured seconds, nominal seconds, times)
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        number = len(passes)
        if traced:
            tracer.phase = f"pass{number}"
            tracer.install()
        record = workloads.Pass(number, gate, tracer.count if traced else _no_count, {},
                                clock.tick, traced)
        clock.begin()
        crashed = False
        try:
            spec.run(inputs, record)
        except Exception:  # a crashed pass is a failed check; report, then stop
            traceback.print_exc()
            gate.check(f"pass {number} completed", False)
            crashed = True
        finally:
            if traced:
                tracer.uninstall()
            work, scaled = clock.end()
        # a crashed pass has no complete times to take rates from
        passes.append((traced, work, scaled, None if crashed else record.times))
        if crashed:
            break
        if args.trace and len(passes) < 2:
            continue
        if time.perf_counter() - start >= args.seconds:
            break

    untraced = [(s, n, t) for traced, s, n, t in passes if not traced]
    wall = statistics.median(s for s, _, _ in untraced)
    e2e = {
        "wall_s": statistics.median(n for _, n, _ in untraced),
        "setup_s": statistics.median(reference.nominal(s, r) for s, r in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # reported, not gated: raw times, and figures that apply to some workloads only
    info = {"wall_raw_s": {"value": wall, "unit": "s"},
            "setup_raw_s": {"value": statistics.median(s for s, _ in setup_samples), "unit": "s"}}
    complete = [t for _, _, t in untraced if t is not None]
    for name, unit, work_key, time_key in spec.rates:
        if complete:
            per_pass = [t[work_key] / t[time_key] if work_key else t[time_key] for t in complete]
            info[name] = {"value": statistics.median(per_pass), "unit": unit}
    info["fail_frac"] = {"value": gate.failed / max(gate.attempted, 1), "unit": "1"}

    if args.trace:
        traced_phases = [f"pass{i}" for i, (tr, _, _, _) in enumerate(passes) if tr]
        layers = tracer.layer_values(traced_phases)
        traced_wall = statistics.median(s for tr, s, _, _ in passes if tr) if traced_phases else wall
        layers["trace.overhead_s"] = traced_wall - wall
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, metric in metrics.items():
            if metric["unit"] in ("count", "B"):
                metric["value"] = int(metric["value"])
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": sum(1 for tr, _, _, _ in passes if tr),
        "setup_samples_s": setup_samples,
        "pass_s": [s for _, s, _, _ in passes],
        "pass_nominal_s": [n for _, _, n, _ in passes],
        "reference_s": clock.slices,
        "end_to_end": {name: {"value": e2e[name], "unit": unit}
                       for name, unit in END_TO_END.items()},
        "workload_metrics": info,
        "observed": gate.observed,
        "failures": gate.failures,
    }
    print(json.dumps({"machine": machine_info()}))
    print(json.dumps({"report": report}))
    for failure in gate.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
