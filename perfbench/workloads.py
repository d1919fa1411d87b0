"""The four benchmark workloads, shaped on the acceptance criteria.

Each workload has a ``setup(seed)`` that builds its inputs (sequences,
polynomials, permutation windows, grid points) and a ``run(...)`` that makes
one *pass*: every library call of the workload, from the built inputs to
checked outputs.  A run repeats identical passes, so each pass also checks
that it replays the first one byte for byte.

At the default seed the inputs are the acceptance suite's own
(``tests/test_acceptance.py`` uses the same seed offsets), and the golden
values in ``golden.json`` pin the sample bytes, profile artifacts and LIL
checkpoints.  Values that do not depend on the seed are pinned on every seed.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from lacunaria import diophantine, mod1, permute, seqgen, simulate, spectra
from lacunaria.rng import CounterRng

COS1 = spectra.TrigPolynomial(cos_coeffs={1: 1})
COS12 = spectra.TrigPolynomial(cos_coeffs={1: 1, 2: 1})

# Sizes per pass.  Shapes (N, sequences, bounds) follow the acceptance
# criteria; sample and point counts are sized so the Monte Carlo or LIL part
# of a pass takes about a second on one core, and a run repeats the pass.
CLT_N = 4096
CLT_RANDOM_PERMS = 3
CLT_SAMPLES = 256            # per permutation, per pass
PAIRING_COUNT = 11000
PAIRING_SAMPLES = 512        # per pass
DIO_N = 200
DIO_BOUND = 3
MULTI = dict(p=3, coeff_bound=3, count=60)
D2STAR_N = 512
D2STAR_BOUND = 2
VARIANCE_PERMS = 4
VARIANCE_N = 1000
LIL_N = 1 << 20
LIL_POINTS = 2               # per pass


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Gate:
    """Checked calls of one run; a check fails when false or when its call raised.

    ``golden(name, value)`` records an observed value, checks it against the
    recorded golden value where one applies (``any_seed`` always, the
    ``default_seed`` section only at the default seed, where a missing entry
    is itself a failure) and checks that later passes replay the first.
    """

    def __init__(self, golden: dict, default_seed: bool):
        self.any_seed = golden.get("any_seed", {})
        self.default_only = golden.get("default_seed", {}) if default_seed else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.observed: dict[str, str] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def golden(self, name: str, value) -> None:
        value = str(value)
        if name in self.observed:
            first = self.observed[name]
            self.check(f"replay {name}", value == first, f"{value} != first pass {first}")
            return
        self.observed[name] = value
        if name in self.any_seed:
            expected = self.any_seed[name]
        elif self.default_only is not None:
            expected = self.default_only.get(name)
            if expected is None:
                self.check(name, False, "no golden value recorded")
                return
        else:
            return
        self.check(name, value == expected, f"got {value}, golden {expected}")


@dataclass
class Pass:
    """Timings and work of one pass (seconds; counts of samples or points).

    ``tick()`` marks a step boundary where the run may time a reference
    slice; workloads call it between steps, never inside a timed call.
    ``traced`` is true while the tracer records the pass's calls.
    """

    number: int
    gate: Gate
    count: Callable[[str, int], None]
    times: dict
    tick: Callable[[], None] = lambda: None
    traced: bool = False

    def timed(self, key: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times[key] = self.times.get(key, 0.0) + time.perf_counter() - start

    def add(self, key: str, value: float) -> None:
        self.times[key] = self.times.get(key, 0.0) + value


def _replay(p: Pass, name: str, poly, seq, perm, count: int, emp, seed: int) -> None:
    """Sample i of clt_experiment must equal a fresh partial_sum at the same x.

    Skipped on traced passes, so the per-layer figures count only the
    workload's own calls; their samples are pinned by the pass-to-pass replay.
    """
    if p.traced:
        return
    index = p.number % 8
    bits = emp.meta["mantissa_bits"]
    x = simulate.FixedPointSample(CounterRng(seed, "x").bits(index, bits), bits)
    value = simulate.partial_sum(poly, seq, perm, x, count) * (1.0 / math.sqrt(count))
    want = float(emp.samples[index])
    p.gate.check(f"replay partial_sum {name}[{index}]", value == want, f"{value!r} != {want!r}")


# ----------------------------------------------------------------------
# clt-dyadic: criterion 3
# ----------------------------------------------------------------------

def clt_setup(seed: int) -> dict:
    seq = seqgen.gen_power(2, 0, CLT_N)
    perms = [("identity", permute.identity(CLT_N))]
    perms += [(f"random{s}", permute.random_perm(CLT_N, seed + s))
              for s in range(CLT_RANDOM_PERMS)]
    return {"seq": seq, "perms": perms, "seed": seed}


def clt_run(inp: dict, p: Pass) -> None:
    seq, seed = inp["seq"], inp["seed"]
    target = simulate.GaussianTarget(0.5)
    for name, perm in inp["perms"]:
        emp = p.timed("mc_s", simulate.clt_experiment, COS1, seq, perm, CLT_N,
                      CLT_SAMPLES, seed=seed, workers=1)
        p.add("mc_samples", CLT_SAMPLES)
        p.gate.golden(f"samples.{name}", sha256(emp.samples.tobytes()))
        stats = emp.summary()
        p.gate.check(f"variance {name}", abs(stats.variance - 0.5) <= 6 * stats.se_variance,
                     f"{stats.variance} vs 1/2 (se {stats.se_variance})")
        ks = simulate.ks_distance(emp, target)
        p.gate.check(f"ks {name}", ks.distance <= 2.5 / math.sqrt(CLT_SAMPLES), f"{ks.distance}")
        _replay(p, name, COS1, seq, perm, CLT_N, emp, seed)
        p.tick()


# ----------------------------------------------------------------------
# pairing-mixture: criterion 5
# ----------------------------------------------------------------------

BETA = Fraction(2731, 5460)


def pairing_setup(seed: int) -> dict:
    return {
        "seq": seqgen.gen_power(2, -1, PAIRING_COUNT),
        "schedule": permute.BlockSchedule.geometric_dominant(6, factor=4, base_len=4),
        "seed": seed + 5,
    }


def pairing_run(inp: dict, p: Pass) -> None:
    seq, seed = inp["seq"], inp["seed"]
    perm, cert = p.timed("exact_s", permute.build_pairing_counterexample, seq, 1, 2,
                         inp["schedule"], gap_ratio=8)
    p.tick()
    ok, problem = p.timed("exact_s", permute.verify_certificate, perm, seq, cert)
    profile = p.timed("exact_s", spectra.mixture_profile, COS12, seq, perm, cert)
    p.gate.check("certificate", ok, str(problem))
    p.gate.golden("permutation", sha256(struct.pack(f"<{len(perm)}q", *perm.images)))
    beta = profile.cosine_terms.get(1, Fraction(0))
    p.gate.check("beta exact", beta == BETA, f"{beta}")
    p.gate.check("constant exact", profile.constant == 1, f"{profile.constant}")
    p.tick()

    n = inp["schedule"].total_slots
    emp = p.timed("mc_s", simulate.clt_experiment, COS12, seq, perm, n,
                  PAIRING_SAMPLES, seed=seed, workers=1)
    p.add("mc_samples", PAIRING_SAMPLES)
    p.gate.golden("samples", sha256(emp.samples.tobytes()))
    stats = emp.summary()
    kurt = float(3 * (1 + beta * beta / 2))
    p.gate.check("kurtosis", abs(stats.kurtosis_ratio - kurt) <= 6 * stats.se_kurtosis,
                 f"{stats.kurtosis_ratio} vs {kurt} (se {stats.se_kurtosis})")
    tol = 6 / math.sqrt(PAIRING_SAMPLES)
    for point in simulate.charfn_experiment(emp, [1.0, 2.0, 3.0]):
        want = spectra.mixture_charfn(profile, point.s, quad_tol=1e-10)
        p.gate.check(f"charfn s={point.s}", abs(point.real_part - want) <= tol,
                     f"{point.real_part} vs {want}")
    ks = simulate.ks_distance(emp, simulate.MixtureTarget(profile))
    p.gate.check("ks mixture", ks.distance <= 2.5 / math.sqrt(PAIRING_SAMPLES)
                 and ks.cdf_tolerance <= 1e-6, f"{ks}")
    centered = simulate.EmpiricalDistribution(emp.samples - stats.mean)
    fit = simulate.ks_distance(centered, simulate.GaussianTarget(stats.variance))
    p.gate.check("ks best-fit gaussian", 0.0 < fit.distance < 1.0, f"{fit}")
    _replay(p, "pairing", COS12, seq, perm, n, emp, seed)


# ----------------------------------------------------------------------
# dio-exact: criteria 1, 4, 6 and 7
# ----------------------------------------------------------------------

def dio_setup(seed: int) -> dict:
    rstar = seqgen.gen_random_rstar(
        seqgen.RStarParams(alpha=1.0, a=50, count=D2STAR_N, seed=seed))
    return {
        "corpus": [
            ("pow2", seqgen.gen_power(2, 0, DIO_N)),
            ("pow2m1", seqgen.gen_power(2, -1, DIO_N)),
            ("geometric", seqgen.gen_geometric("3/2", 2, DIO_N)),
            ("smooth", seqgen.gen_smooth({2, 3}, DIO_N)),
            ("rstar", rstar),  # d2 and multi-term counts read its first DIO_N terms
        ],
        "rstar": rstar,
        "pow2": seqgen.gen_power(2, 0, VARIANCE_N),
        "perms_pow2": [permute.random_perm(VARIANCE_N, seed + s) for s in range(VARIANCE_PERMS)],
        "perms_rstar": [permute.random_perm(D2STAR_N, seed + s) for s in range(VARIANCE_PERMS)],
    }


def _write_profile(p: Pass, name: str, reports: dict) -> None:
    """Serialize as ``lacunaria dio --profile`` does, hash, and drop."""
    p.count("diophantine.histogram_entries", sum(len(r.histogram) for r in reports.values()))
    text = p.timed("json_s", diophantine.profile_to_json, reports)
    p.count("diophantine.profile_json_bytes", len(text))
    p.gate.golden(name, sha256(text.encode("utf-8")))


def dio_run(inp: dict, p: Pass) -> None:
    query = diophantine.MultiTermQuery(**MULTI)
    for name, seq in inp["corpus"]:
        reports = p.timed("exact_s", diophantine.d2_profile, seq, DIO_BOUND, DIO_N)
        p.tick()
        if name == "pow2m1":
            rep = reports[(1, -2)]
            p.gate.check("pow2m1 max_count at (1,-2)", rep.max_count == 199 and rep.argmax_c == 1,
                         f"{rep.max_count} at c={rep.argmax_c}")
        _write_profile(p, f"d2.{name}", reports)
        del reports
        total, _ = p.timed("exact_s", diophantine.count_multi_term, seq, query)
        p.gate.golden(f"multi.{name}", total)
        p.tick()

    reports = p.timed("exact_s", diophantine.d2star_profile, inp["rstar"], D2STAR_BOUND, D2STAR_N)
    p.tick()
    p.gate.golden("d2star.rstar.max_count", max(r.max_count for r in reports.values()))
    _write_profile(p, "d2star.rstar", reports)
    del reports
    p.tick()

    half_exact = Fraction(1, 2)
    for i, perm in enumerate(inp["perms_pow2"]):
        value = p.timed("exact_s", spectra.exact_variance, COS1, inp["pow2"], perm, VARIANCE_N)
        p.gate.check(f"variance pow2 perm{i} == 1/2", value == half_exact, f"{value}")
    values = [p.timed("exact_s", spectra.exact_variance, COS12, inp["rstar"], perm, D2STAR_N)
              for perm in inp["perms_rstar"]]
    # a full window's frequency multiset does not depend on the permutation,
    # and merging equal frequencies with positive coefficients only adds mass
    p.gate.check("variance rstar permutation-invariant", len(set(values)) == 1, f"{values}")
    p.gate.check("variance rstar >= ||f||^2", values[0] >= spectra.l2_norm_sq(COS12), f"{values[0]}")
    p.gate.golden("variance.rstar", values[0])


# ----------------------------------------------------------------------
# lil-dyadic: criterion 8
# ----------------------------------------------------------------------

def lil_setup(seed: int) -> dict:
    seq = seqgen.gen_power(2, 0, LIL_N)
    perm = permute.identity(LIL_N)
    bits = mod1.required_bits(seq.term(LIL_N), COS1.degree)
    return {"seq": seq, "perm": perm,
            "points": simulate.sample_points(bits, LIL_POINTS, seed + 10)}


def lil_run(inp: dict, p: Pass) -> None:
    for i, x in enumerate(inp["points"]):
        traj = p.timed("lil_s", simulate.lil_trajectory, COS1, inp["seq"], inp["perm"], x,
                       LIL_N, 0.5)
        p.add("lil_points", 1)
        ratios = traj.ratios()
        p.gate.check(f"lil point{i} checkpoints",
                     [n for n, _ in traj.checkpoints] == [1 << e for e in range(4, 21)])
        p.gate.check(f"lil point{i} running max monotone",
                     ratios == sorted(ratios) and all(math.isfinite(r) and r > 0 for r in ratios),
                     f"{ratios}")
        packed = b"".join(struct.pack("<qd", n, r) for n, r in traj.checkpoints)
        p.gate.golden(f"checkpoints.point{i}", sha256(packed))
        p.tick()


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict]
    run: Callable[[dict, Pass], None]
    # informational rates: (metric name, unit, work key, time key)
    rates: tuple = ()


WORKLOADS = {
    "clt-dyadic": Workload(clt_setup, clt_run,
                           (("mc_samples_per_s", "1/s", "mc_samples", "mc_s"),)),
    "pairing-mixture": Workload(pairing_setup, pairing_run,
                                (("mc_samples_per_s", "1/s", "mc_samples", "mc_s"),
                                 ("exact_s", "s", None, "exact_s"))),
    "dio-exact": Workload(dio_setup, dio_run, (("exact_s", "s", None, "exact_s"),)),
    "lil-dyadic": Workload(lil_setup, lil_run,
                           (("lil_points_per_s", "1/s", "lil_points", "lil_s"),)),
}
