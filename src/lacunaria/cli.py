"""Command-line driver: reproducible experiments with run manifests.

Every command writes its artifacts plus ``run.json`` recording the resolved
parameters (input files as absolute paths), input/output hashes, seed and
wall time, and refuses an output directory whose ``run.json`` records a
different run.  ``lacunaria verify --manifest run.json`` re-executes the run into
a scratch directory, from any working directory, and compares artifacts byte
for byte (Monte Carlo included: sample values are pure functions of the seed).

All randomness flows from the single ``--seed`` through labeled sub-streams
("seq", "perm", "x"); an explicit ``random:seed=K`` permutation overrides
the derived stream.  Exit codes: 0 success, 1 verification mismatch,
2 usage, 3 domain error, 4 resource budget, 5 I/O.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import re
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import LacunariaError, WorkBudgetExceeded
from . import diophantine, permute, seqgen, simulate, spectra
from .rng import derive_seed

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 1
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4
EXIT_IO = 5


# ----------------------------------------------------------------------
# Spec resolution
# ----------------------------------------------------------------------

def resolve_sequence(spec: str, default_count: int | None, seed: int | None):
    """A path to a sequence file, or an inline spec.

    Inline forms: ``pow2[:N]``, ``pow2m1[:N]``, ``geometric:q:n1[:N]``,
    ``smooth:p1,p2[:N]``, ``rstar:alpha:a[:N[:seed]]``.  A missing N falls
    back to ``default_count`` (the experiment window).
    """
    path = Path(spec)
    if path.exists():
        return seqgen.read_sequence(path)
    fields = spec.split(":")
    kind = fields[0]

    def tail_count(position: int) -> int:
        if len(fields) > position:
            return int(fields[position])
        if default_count is None:
            raise ValueError(f"sequence spec {spec!r} needs an explicit length")
        return default_count

    if kind == "pow2":
        return seqgen.gen_power(2, 0, tail_count(1))
    if kind == "pow2m1":
        return seqgen.gen_power(2, -1, tail_count(1))
    if kind == "geometric":
        if len(fields) < 3:
            raise ValueError("geometric spec is geometric:q:n1[:N]")
        return seqgen.gen_geometric(Fraction(fields[1]), int(fields[2]), tail_count(3))
    if kind == "smooth":
        if len(fields) < 2:
            raise ValueError("smooth spec is smooth:p1,p2[:N]")
        primes = {int(p) for p in fields[1].split(",")}
        return seqgen.gen_smooth(primes, tail_count(2))
    if kind == "rstar":
        if len(fields) < 3:
            raise ValueError("rstar spec is rstar:alpha:a[:N[:seed]]")
        rseed = int(fields[4]) if len(fields) > 4 else (
            derive_seed(seed, "seq") if seed is not None else 0)
        params = seqgen.RStarParams(alpha=float(fields[1]), a=int(fields[2]),
                                    count=tail_count(3), seed=rseed)
        return seqgen.gen_random_rstar(params)
    raise ValueError(f"cannot resolve sequence spec {spec!r} (no such file, unknown kind)")


def _named_permutation(spec: str) -> re.Match | None:
    """The match when spec is ``identity``, ``random``, ``random:K`` or
    ``random:seed=K`` (group 1 is K); None when it names a file."""
    return re.fullmatch(r"identity|random(?::(?:seed=)?([+-]?\d+))?", spec)


def resolve_permutation(spec: str | None, window: int, seed: int | None):
    """``identity`` (default), ``random[:seed=K]``, or a permutation file."""
    if spec is None or spec == "identity":
        return permute.identity(window)
    named = _named_permutation(spec)
    if named:
        if named[1] is not None:
            pseed = int(named[1])
        elif seed is not None:
            pseed = derive_seed(seed, "perm")
        else:
            raise ValueError("random permutation needs a seed")
        return permute.random_perm(window, pseed)
    path = Path(spec)
    if path.exists():
        return permute.read_permutation(path)
    raise ValueError(f"cannot resolve permutation spec {spec!r}")


def _window_inputs(params: dict):
    """(seq, perm, count) of a ``var``, ``clt`` or ``lil`` run.  The window is
    ``--window``, else ``--count``; an inline sequence without a length and
    a named permutation both span it."""
    count = params["count"]
    window = params.get("window", count)
    seed = params.get("seed")
    return (resolve_sequence(params["seq"], window, seed),
            resolve_permutation(params.get("perm"), window, seed), count)


# ----------------------------------------------------------------------
# Manifest plumbing
# ----------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, payload) -> None:
    """Serialize first, so a non-finite number (no JSON) leaves no partial file."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _config_sha256(subcommand: str, params: dict) -> str:
    config_text = json.dumps({"subcommand": subcommand, "params": params},
                             sort_keys=True)
    return hashlib.sha256(config_text.encode()).hexdigest()


def write_manifest(out_dir: Path, subcommand: str, params: dict,
                   outputs: list[Path], inputs: list[Path],
                   wall_time: float) -> Path:
    manifest = {
        "tool": "lacunaria",
        "version": __version__,
        "subcommand": subcommand,
        "params": params,
        "config_sha256": _config_sha256(subcommand, params),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "wall_time_s": wall_time,
    }
    path = out_dir / "run.json"
    _write_json(path, manifest)
    return path


# ----------------------------------------------------------------------
# Command executors (shared by the CLI path and verify's replay)
# ----------------------------------------------------------------------

def run_seq(params: dict, out_dir: Path) -> list[Path]:
    spec = {key: value for key, value in params.items() if key != "count"}
    if spec["kind"] == "rstar":
        spec["kind"] = "random_rstar"
    out = out_dir / "sequence.txt"
    seqgen.write_sequence(seqgen.generate(spec, params["count"]), out)
    return [out]

def run_dio(params: dict, out_dir: Path) -> list[Path]:
    seq = resolve_sequence(params["seq"], params.get("count"), params.get("seed"))
    count = params["count"]
    mode = params["mode"]
    budget = params.get("budget", diophantine.DEFAULT_BUDGET)
    outputs = []
    if mode in ("profile", "star-profile"):
        if mode == "profile":
            reports = diophantine.d2_profile(seq, params["coeff_bound"], count, budget=budget)
        else:
            reports = diophantine.d2star_profile(
                seq, params["coeff_bound"], count,
                diagonal=params.get("diagonal", "sum_zero"), budget=budget)
        jpath = out_dir / "dio_profile.json"
        diophantine.write_profile_json(reports, jpath)
        cpath = out_dir / "dio_profile.csv"
        diophantine.write_profile_csv(reports, cpath)
        outputs += [jpath, cpath]
    elif mode == "two-term":
        a, b, c = params["a"], params["b"], params["c"]
        n, wits = diophantine.count_two_term(
            seq, diophantine.TwoTermQuery(
                a=a, b=b, c=c, count=count,
                require_distinct=params.get("require_distinct", False)))
        jpath = out_dir / "dio_two_term.json"
        _write_json(jpath, {"a": a, "b": b, "c": str(c), "count": n,
                            "witnesses": [[k, l] for k, l in wits[:1000]]})
        outputs.append(jpath)
    elif mode == "multi":
        n, wits = diophantine.count_multi_term(
            seq, diophantine.MultiTermQuery(
                p=params["p"], coeff_bound=params["coeff_bound"], count=count,
                budget=budget))
        jpath = out_dir / "dio_multi.json"
        _write_json(jpath, {
            "p": params["p"], "coeff_bound": params["coeff_bound"], "count": n,
            "witness_sample": [
                {"indices": list(idx), "coefficients": list(cs)}
                for idx, cs in wits],
        })
        outputs.append(jpath)
    elif mode == "signed":
        n, sols = diophantine.count_signed_nondegenerate(seq, params["p"], count, budget=budget)
        jpath = out_dir / "dio_signed.json"
        _write_json(jpath, {
            "p": params["p"], "count": n,
            "solutions": [
                {"indices": list(idx), "signs": list(signs)}
                for idx, signs in sols[:1000]],
        })
        outputs.append(jpath)
    elif mode == "ratio":
        ratios = diophantine.aibe_ratio(seq, params["a"], params["b"], count, budget=budget)
        jpath = out_dir / "dio_ratio.json"
        _write_json(jpath, {"a": params["a"], "b": params["b"],
                            "ratios": [[n, r] for n, r in ratios]})
        outputs.append(jpath)
    else:
        raise ValueError(f"unknown dio mode {mode!r}")
    return outputs

def run_perm(params: dict, out_dir: Path) -> list[Path]:
    mode = params["mode"]
    outputs = []
    if mode == "identity":
        perm = permute.identity(params["window"])
    elif mode == "random":
        perm = permute.random_perm(params["window"], params["perm_seed"])
    elif mode == "pairing":
        seq = resolve_sequence(params["seq"], None, params.get("seed"))
        kind, *numbers = params["blocks"].split(":")
        if kind == "paper" and len(numbers) == 1:
            schedule = permute.BlockSchedule.paper_doubly_exponential(int(numbers[0]))
        elif kind == "geometric" and 1 <= len(numbers) <= 3:
            schedule = permute.BlockSchedule.geometric_dominant(*map(int, numbers))
        else:
            raise ValueError("blocks spec is paper:M or geometric:M[:factor[:base]]")
        gap_ratio = Fraction(params["gap_ratio"]) if params.get("gap_ratio") else None
        perm, cert = permute.build_pairing_counterexample(
            seq, params["a"], params["b"], schedule, gap_ratio,
            allow_zero_c=params.get("allow_zero_c", False))
        cpath = out_dir / "certificate.json"
        permute.write_certificate(cert, cpath)
        outputs.append(cpath)
    else:
        raise ValueError(f"unknown perm mode {mode!r}")
    ppath = out_dir / "permutation.txt"
    permute.write_permutation(perm, ppath)
    return [ppath] + outputs

def run_var(params: dict, out_dir: Path) -> list[Path]:
    poly = spectra.TrigPolynomial.parse(params["f"])
    payload = {"f": poly.format(), "l2_norm_sq": str(spectra.l2_norm_sq(poly)),
               "kac_variance": str(spectra.kac_variance(poly))}
    if params.get("seq"):
        seq, perm, count = _window_inputs(params)
        value = spectra.exact_variance(poly, seq, perm, count)
        payload.update({"count": count, "exact_variance": str(value),
                        "exact_variance_float": float(value)})
    out = out_dir / "variance.json"
    _write_json(out, payload)
    return [out]

def run_mix(params: dict, out_dir: Path) -> list[Path]:
    poly = spectra.TrigPolynomial.parse(params["f"])
    seq = resolve_sequence(params["seq"], None, params.get("seed"))
    perm = permute.read_permutation(params["perm"])
    cert = permute.read_certificate(params["cert"])
    profile = spectra.mixture_profile(poly, seq, perm, cert,
                                      freq_cutoff=params.get("cutoff"))
    payload = {"profile": profile.to_json_dict()}
    if params.get("charfn"):
        tol = params.get("quad_tol", 1e-10)
        payload["charfn"] = {
            str(s): spectra.mixture_charfn(profile, float(s), tol)
            for s in params["charfn"]
        }
    out = out_dir / "mixture.json"
    _write_json(out, payload)
    return [out]

def _finite_float(spec: str, what: str) -> float:
    """float(Fraction(spec)); a value past the float range is a ValueError."""
    try:
        return float(Fraction(spec))
    except OverflowError:
        raise ValueError(f"{what} {spec} is too large for a float") from None


def _ks_target(spec: str):
    """The KS target of ``spec`` and its name in the artifact.

    A mixture file is named by the SHA-256 of its bytes, not by its path,
    so the artifact does not depend on where the file lies.
    """
    kind, _, arg = spec.partition(":")
    if kind == "gaussian":
        return simulate.GaussianTarget(_finite_float(arg, "ks variance")), spec
    if kind == "mixture":
        raw = Path(arg).read_bytes()
        data = json.loads(raw.decode("utf-8"))
        target = simulate.MixtureTarget(spectra.MixtureProfile.from_json_dict(data["profile"]))
        return target, f"mixture:sha256:{hashlib.sha256(raw).hexdigest()}"
    raise ValueError("ks spec is gaussian:VAR or mixture:FILE")


def run_clt(params: dict, out_dir: Path) -> list[Path]:
    if params.get("threads", 1) < 1:
        raise ValueError("--threads must be at least 1")
    poly = spectra.TrigPolynomial.parse(params["f"])
    target, target_name = _ks_target(params["ks"]) if params.get("ks") else (None, None)
    seq, perm, count = _window_inputs(params)
    seed = derive_seed(params["seed"], "x")
    emp = simulate.clt_experiment(poly, seq, perm, count, params["samples"], seed,
                                  workers=params.get("threads", 1))
    stats = emp.summary()
    coeff_mass = sum(abs(float(a)) + abs(float(b)) for _, a, b in poly.terms())
    per_term_bound = 2 * math.pi * (2.0**-64 + 2.0**-53) * coeff_mass
    payload = {
        "f": poly.format(), "count": count, "samples": params["samples"],
        "seed": params["seed"], "sampling_stream_seed": seed,
        "mantissa_bits": emp.meta["mantissa_bits"],
        "statistics": dataclasses.asdict(stats),
        "error_bounds": {
            "per_term_eval_abs": per_term_bound,
            "sum_eval_abs": per_term_bound * count / (count ** 0.5),
        },
    }
    if target is not None:
        ks = simulate.ks_distance(emp, target)
        payload["ks"] = {"target": target_name, "distance": ks.distance,
                         "cdf_tolerance": ks.cdf_tolerance}
    outputs = []
    if params.get("keep_samples"):
        spath = out_dir / "samples.csv"
        with open(spath, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "value"])
            for i, v in enumerate(emp.samples):
                writer.writerow([i, repr(float(v))])
        outputs.append(spath)
    out = out_dir / "clt_summary.json"
    _write_json(out, payload)
    return [out] + outputs

def run_lil(params: dict, out_dir: Path) -> list[Path]:
    poly = spectra.TrigPolynomial.parse(params["f"])
    # before anything of size N_max is built
    simulate.check_lil_window(params["count"])
    if params["points"] < 1:
        raise ValueError("--points must be at least 1")
    seq, perm, n_max = _window_inputs(params)
    variance = _finite_float(params["variance"], "variance")
    evaluator = simulate.PartialSumEvaluator(poly, seq, perm, n_max)
    xs = simulate.sample_points(evaluator.required, params["points"],
                                derive_seed(params["seed"], "x"))
    trajectories = [evaluator.lil_trajectory(x, variance) for x in xs]
    cpath = out_dir / "lil_trajectories.csv"
    with open(cpath, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point", "N", "running_max_ratio"])
        for i, traj in enumerate(trajectories):
            for n, ratio in traj.checkpoints:
                writer.writerow([i, n, repr(ratio)])
    jpath = out_dir / "lil_summary.json"
    _write_json(jpath, {
        "f": poly.format(), "n_max": n_max, "points": params["points"],
        "variance": params["variance"],
        "normalization": "|S_N| / sqrt(2 * variance * N * ln(ln(N)))",
        "final_ratios": {str(i): traj.final_ratio() for i, traj in enumerate(trajectories)},
    })
    return [cpath, jpath]


_EXECUTORS = {
    "seq": run_seq,
    "dio": run_dio,
    "perm": run_perm,
    "var": run_var,
    "mix": run_mix,
    "clt": run_clt,
    "lil": run_lil,
}


def _resolve_inputs(params: dict) -> tuple[dict, list[Path]]:
    """The params with each input file replaced by its absolute path, and those paths.

    The manifest records these params and ``verify`` replays them, so the
    replay finds its inputs from any working directory.
    """
    resolved = dict(params)
    inputs = []
    for key in ("seq", "perm", "cert"):
        value = params.get(key)
        if key == "perm" and value and _named_permutation(value):
            continue  # a permutation spec, not a file (see resolve_permutation)
        if value and Path(str(value)).exists():
            path = Path(str(value)).resolve()
            resolved[key] = str(path)
            inputs.append(path)
    kind, _, arg = params.get("ks", "").partition(":")
    if kind == "mixture" and Path(arg).exists():
        path = Path(arg).resolve()
        resolved["ks"] = f"mixture:{path}"
        inputs.append(path)
    return resolved, inputs


def _refuse_other_manifest(out_dir: Path, config_sha256: str) -> None:
    """Raise FileExistsError when out_dir/run.json records a different run."""
    path = out_dir / "run.json"
    if not path.exists():
        return
    with open(path, "r", encoding="utf-8") as fh:
        recorded = json.load(fh).get("config_sha256")
    if recorded != config_sha256:
        raise FileExistsError(f"{path} records another run; use another --out-dir")


def execute(subcommand: str, params: dict, out_dir: Path) -> Path:
    """Run a subcommand into out_dir, which may hold only this same run's manifest."""
    params, inputs = _resolve_inputs(params)
    _refuse_other_manifest(out_dir, _config_sha256(subcommand, params))
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    outputs = _EXECUTORS[subcommand](params, out_dir)
    wall = time.perf_counter() - started
    return write_manifest(out_dir, subcommand, params, outputs, inputs, wall)


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

def _first_json_divergence(a, b, path="$"):
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return f"{path}.{key}: missing in original"
            if key not in b:
                return f"{path}.{key}: missing in replay"
            sub = _first_json_divergence(a[key], b[key], f"{path}.{key}")
            if sub:
                return sub
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            sub = _first_json_divergence(x, y, f"{path}[{i}]")
            if sub:
                return sub
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def verify_manifest(manifest_path: Path) -> tuple[bool, str | None]:
    """Replay the manifest's run and compare artifacts byte for byte.

    A recorded input that no longer exists raises FileNotFoundError: it is
    an I/O condition, not a mismatch.
    """
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    run_dir = manifest_path.parent
    for recorded, digest in manifest["inputs"].items():
        p = Path(recorded)
        if not p.exists():
            raise FileNotFoundError(f"input missing: {recorded}")
        if _sha256(p) != digest:
            return False, f"input changed since the run: {recorded}"
    for name, digest in manifest["outputs"].items():
        p = run_dir / name
        if not p.exists():
            return False, f"output missing: {name}"
        if _sha256(p) != digest:
            return False, f"output edited since the run: {name}"
    with tempfile.TemporaryDirectory() as tmp:
        replay_dir = Path(tmp)
        _EXECUTORS[manifest["subcommand"]](manifest["params"], replay_dir)
        for name, digest in manifest["outputs"].items():
            replayed = replay_dir / name
            if not replayed.exists():
                return False, f"replay produced no {name}"
            if _sha256(replayed) != digest:
                problem = f"replay diverges in {name}"
                if name.endswith(".json"):
                    with open(run_dir / name) as fa, open(replayed) as fb:
                        diff = _first_json_divergence(json.load(fa), json.load(fb))
                    problem += f" at {diff}"
                if manifest.get("version") != __version__:
                    # a format changed on purpose reads like lost reproducibility
                    problem += (f" (the run was made by lacunaria {manifest.get('version')},"
                                f" the replay by {__version__})")
                return False, problem
    return True, None


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacunaria",
        description="Exact-arithmetic and Monte Carlo experiments on permuted "
                    "lacunary trigonometric sums.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("seq", help="generate a sequence file")
    p.add_argument("--kind", required=True,
                   choices=["geometric", "power", "smooth", "rstar"])
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--q", help="geometric ratio, e.g. 3/2")
    p.add_argument("--n1", type=int, default=1)
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--primes", help="comma separated, e.g. 2,3")
    p.add_argument("--exclude-one", action="store_true")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--scale", type=int, default=50, help="rstar scale a")
    p.add_argument("--interval-form", choices=["trailing", "current"],
                   default="trailing")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("dio", help="Diophantine solution counting")
    p.add_argument("--seq", required=True)
    p.add_argument("--count", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--profile", action="store_true")
    mode.add_argument("--star-profile", action="store_true")
    mode.add_argument("--two-term", nargs=3, type=int, metavar=("A", "B", "C"))
    mode.add_argument("--multi", type=int, metavar="P")
    mode.add_argument("--signed", type=int, metavar="P")
    mode.add_argument("--ratio", nargs=2, type=int, metavar=("A", "B"))
    p.add_argument("--coeff-bound", type=int, default=2)
    p.add_argument("--diagonal", choices=["sum_zero", "literal"],
                   help="star-profile only (default sum_zero)")
    p.add_argument("--require-distinct", action="store_true", help="two-term only")
    p.add_argument("--budget", type=int, default=diophantine.DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("perm", help="build a permutation window")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--identity", type=int, metavar="N")
    mode.add_argument("--random", nargs=2, type=int, metavar=("N", "SEED"))
    mode.add_argument("--pairing", nargs=2, type=int, metavar=("A", "B"))
    p.add_argument("--seq")
    p.add_argument("--blocks", default="geometric:2",
                   help="paper:M or geometric:M[:factor[:base]]")
    p.add_argument("--gap-ratio")
    p.add_argument("--allow-zero-c", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("var", help="exact variance computations")
    p.add_argument("--f", required=True, help='e.g. "cos:1=1,cos:2=1"')
    p.add_argument("--seq")
    p.add_argument("--perm")
    p.add_argument("--count", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("mix", help="limiting variance-mixture profile")
    p.add_argument("--f", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--charfn", help="comma separated s values")
    p.add_argument("--quad-tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("clt", help="Monte Carlo of S_N / sqrt(N)")
    p.add_argument("--f", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--perm")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--window", type=int)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--ks", help="gaussian:VAR or mixture:FILE")
    p.add_argument("--keep-samples", action="store_true")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("lil", help="iterated-logarithm trajectories")
    p.add_argument("--f", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--perm")
    p.add_argument("--count", type=int, required=True, help="N_max, a power of 2")
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--variance", required=True, help="limit variance, e.g. 1/2")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("verify", help="re-run a manifest and compare artifacts")
    p.add_argument("--manifest", required=True)
    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    sc = args.subcommand
    if sc == "seq":
        params = {"kind": args.kind, "count": args.count}
        if args.kind == "geometric":
            params.update({"q": args.q, "n1": args.n1})
        elif args.kind == "power":
            params.update({"base": args.base, "offset": args.offset})
        elif args.kind == "smooth":
            params.update({"primes": [int(p) for p in args.primes.split(",")],
                           "include_one": not args.exclude_one})
        elif args.kind == "rstar":
            params.update({"alpha": args.alpha, "a": args.scale,
                           "seed": args.seed, "interval_form": args.interval_form})
        return params
    if sc == "dio":
        params = {"seq": args.seq, "count": args.count, "seed": args.seed,
                  "coeff_bound": args.coeff_bound, "budget": args.budget}
        if args.profile:
            params["mode"] = "profile"
        elif args.star_profile:
            params.update({"mode": "star-profile", "diagonal": args.diagonal or "sum_zero"})
        elif args.two_term:
            a, b, c = args.two_term
            params.update({"mode": "two-term", "a": a, "b": b, "c": c,
                           "require_distinct": args.require_distinct})
        elif args.multi is not None:
            params.update({"mode": "multi", "p": args.multi})
        elif args.signed is not None:
            params.update({"mode": "signed", "p": args.signed})
        else:
            a, b = args.ratio
            params.update({"mode": "ratio", "a": a, "b": b})
        return params
    if sc == "perm":
        if args.identity is not None:
            return {"mode": "identity", "window": args.identity}
        if args.random is not None:
            return {"mode": "random", "window": args.random[0],
                    "perm_seed": args.random[1]}
        a, b = args.pairing
        return {"mode": "pairing", "a": a, "b": b, "seq": args.seq,
                "blocks": args.blocks, "gap_ratio": args.gap_ratio,
                "allow_zero_c": args.allow_zero_c, "seed": args.seed}
    if sc == "var":
        params = {"f": args.f, "seed": args.seed}
        if args.seq:
            params.update({"seq": args.seq, "count": args.count})
            if args.perm:
                params["perm"] = args.perm
            if args.window is not None:
                params["window"] = args.window
        return params
    if sc == "mix":
        params = {"f": args.f, "seq": args.seq, "perm": args.perm,
                  "cert": args.cert, "seed": args.seed,
                  "quad_tol": args.quad_tol}
        if not 0 < args.quad_tol < math.inf:
            raise ValueError("--quad-tol must be positive and finite")
        if args.cutoff is not None:
            params["cutoff"] = args.cutoff
        if args.charfn:
            params["charfn"] = [float(s) for s in args.charfn.split(",")]
        return params
    if sc == "clt":
        params = {"f": args.f, "seq": args.seq, "count": args.count,
                  "samples": args.samples, "seed": args.seed,
                  "threads": args.threads, "keep_samples": args.keep_samples}
        if args.perm:
            params["perm"] = args.perm
        if args.window is not None:
            params["window"] = args.window
        if args.ks:
            params["ks"] = args.ks
        return params
    if sc == "lil":
        params = {"f": args.f, "seq": args.seq, "count": args.count,
                  "points": args.points, "variance": args.variance,
                  "seed": args.seed}
        if args.perm:
            params["perm"] = args.perm
        return params
    raise ValueError(f"unknown subcommand {sc!r}")


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one line, ``warning: <message>``, on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    sc = args.subcommand
    if sc == "dio":  # a flag of another mode would have no effect
        if args.diagonal is not None and not args.star_profile:
            parser.error("--diagonal applies only to --star-profile")
        if args.require_distinct and args.two_term is None:
            parser.error("--require-distinct applies only to --two-term")
    if sc == "seq" and args.kind == "geometric" and not args.q:
        parser.error("geometric needs --q")
    if sc == "seq" and args.kind == "smooth" and not args.primes:
        parser.error("smooth needs --primes")
    if sc == "perm" and args.pairing is not None and not args.seq:
        parser.error("pairing needs --seq")
    if sc == "var" and args.seq and args.count is None:
        parser.error("var over a sequence needs --count")
    with warnings.catch_warnings():  # restores the warnings state on return
        warnings.showwarning = _print_warning
        try:
            if sc == "verify":
                ok, problem = verify_manifest(Path(args.manifest))
                if ok:
                    print("verify: OK")
                    return EXIT_OK
                print(f"verify: MISMATCH -- {problem}", file=sys.stderr)
                return EXIT_VERIFY_MISMATCH
            params = _params_from_args(args)
            manifest = execute(sc, params, Path(args.out_dir))
            print(f"wrote {manifest}")
            return EXIT_OK
        except WorkBudgetExceeded as err:
            print(f"resource limit: {err}", file=sys.stderr)
            return EXIT_RESOURCE
        except (LacunariaError, ValueError, KeyError, ZeroDivisionError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_DOMAIN
        except OSError as err:
            print(f"i/o error: {err}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
