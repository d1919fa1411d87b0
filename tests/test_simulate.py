import concurrent.futures
import hashlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import mpmath
import numpy as np
import pytest

from lacunaria import simulate
from lacunaria.errors import MantissaWidthError
from lacunaria.mod1 import FracTopEngine, required_bits
from lacunaria.permute import PermutationWindow, identity, random_perm
from lacunaria.rng import CounterRng
from lacunaria.seqgen import IntegerSequence, gen_geometric, gen_power
from lacunaria.simulate import (
    EmpiricalDistribution,
    FixedPointSample,
    GaussianTarget,
    MixtureTarget,
    PartialSumEvaluator,
    charfn_experiment,
    clt_experiment,
    ks_distance,
    lil_trajectory,
    partial_sum,
    sample_points,
)
from lacunaria.spectra import MixtureProfile, TrigPolynomial, exact_variance
from fractions import Fraction

from oracles import kolmogorov_threshold, lil_running_max_checkpoints, sorted_index_rows

COS1 = TrigPolynomial(cos_coeffs={1: 1})
COS12 = TrigPolynomial(cos_coeffs={1: 1, 2: 1})


# ---------------- sample points ----------------

def test_sample_points_deterministic():
    a = sample_points(64, 1, 42)[0]
    b = sample_points(64, 1, 42)[0]
    assert a.mantissa == b.mantissa


def test_sample_points_mean():
    pts = sample_points(64, 100_000, 7)
    mean = np.mean([p.mantissa / 2**p.bits for p in pts])
    assert abs(mean - 0.5) < 3 / math.sqrt(12 * 100_000)


def test_sample_points_refuse_fewer_than_64_bits():
    with pytest.raises(ValueError, match="need at least 64 bits"):
        sample_points(63, 1, 0)


def test_sample_points_distinct_seeds():
    a = {p.mantissa for p in sample_points(64, 10_000, 1)}
    b = {p.mantissa for p in sample_points(64, 10_000, 2)}
    assert not a & b


# ---------------- fractional parts ----------------

def test_frac_part_against_mpmath_oracle():
    # independent 300-bit floating oracle for the top 64 bits of {n x}; at
    # that precision n x = m / 2^92 and its scaling by 2^64 are exact
    bits = 192
    rng = CounterRng(9, "f")
    n = 2**100
    eng = FracTopEngine(IntegerSequence([n], {"kind": "external", "path": "2^100"}), [1], [1])
    assert eng.strategy == "generic"
    with mpmath.workprec(300):
        for i in range(10):
            m = rng.bits(i, bits)
            got = int(eng.tops(FixedPointSample(m, bits))[0, 0])
            x = mpmath.mpf(m) / mpmath.power(2, bits)
            expected = mpmath.frac(mpmath.mpf(n) * x)
            assert got == int(mpmath.floor(expected * mpmath.power(2, 64)))


# ---------------- partial sums ----------------

def test_partial_sum_trivial_values():
    seq = IntegerSequence([1], {"kind": "external", "path": "one"})
    x = FixedPointSample(0, 128)
    assert abs(partial_sum(COS1, seq, identity(1), x, 1) - 1.0) < 1e-15

    seq2 = IntegerSequence([1, 2], {"kind": "external", "path": "two"})
    x_quarter = FixedPointSample(1 << 126, 128)  # x = 1/4
    got = partial_sum(COS1, seq2, identity(2), x_quarter, 2)
    assert abs(got - (-1.0)) < 1e-12  # cos(pi/2) + cos(pi)


def test_partial_sum_matches_mpmath_oracle():
    seq = gen_power(2, 0, 64)
    perm = identity(64)
    ev = PartialSumEvaluator(COS1, seq, perm, 64)
    bits = ev.required
    rng = CounterRng(21, "x")
    with mpmath.workprec(300):
        for i in range(5):
            m = rng.bits(i, bits)
            got = ev.sum(FixedPointSample(m, bits))
            x = mpmath.mpf(m) / mpmath.power(2, bits)
            want = mpmath.fsum(
                mpmath.cos(2 * mpmath.pi * mpmath.frac(mpmath.mpf(2**k) * x))
                for k in range(1, 65)
            )
            assert abs(got - float(want)) < 1e-12


def test_partial_sum_mixed_poly_oracle():
    # degree-2 polynomial on two offset -1 power forms: 2^k - 1 runs the
    # window kernel with its carry, 3^k - 1 the row loop's chain; the second
    # polynomial takes slot_values' sines-only branch for several frequencies
    for poly, (seq, strategy) in product(
            (TrigPolynomial(cos_coeffs={1: Fraction(1, 2)}, sin_coeffs={2: 1}),
             TrigPolynomial(sin_coeffs={1: Fraction(-2, 3), 2: Fraction(1, 2)})),
            ((gen_power(2, -1, 40), "pow2-window"), (gen_power(3, -1, 25), "power-chain"))):
        n = len(seq)
        ev = PartialSumEvaluator(poly, seq, identity(n), n)
        assert ev.engine.strategy == strategy
        bits = ev.required
        rng = CounterRng(22, "x")
        with mpmath.workprec(300):
            for i in range(5):
                m = rng.bits(i, bits)
                got = ev.sum(FixedPointSample(m, bits))
                x = mpmath.mpf(m) / mpmath.power(2, bits)
                want = mpmath.mpf(0)
                for k in range(1, n + 1):
                    u = mpmath.frac(mpmath.mpf(seq.term(k)) * x)
                    for j, a, b in poly.terms():
                        angle = 2 * mpmath.pi * j * u
                        want += mpmath.cos(angle) * a.numerator / a.denominator
                        want += mpmath.sin(angle) * b.numerator / b.denominator
                assert abs(got - float(want)) < 1e-12


def test_evaluator_rows_on_random_subwindow():
    seq = gen_power(2, 0, 100)
    perm = random_perm(100, 5)
    count = 37
    ev = PartialSumEvaluator(COS1, seq, perm, count)
    assert ev.indices.tolist() == sorted(perm.images[:count].tolist())
    assert np.array_equal(np.asarray(ev.indices)[ev._rows], perm.images[:count])
    x = FixedPointSample(CounterRng(4, "x").bits(0, ev.required), ev.required)
    whole = PartialSumEvaluator(COS1, seq, identity(100), 100).slot_values(x)
    assert np.array_equal(ev.slot_values(x), whole[np.asarray(perm.images[:count]) - 1])


# identity windows, full random windows and [3, 1, 2, 5, 4] at 3 are
# bijections of {1..count}, built without the mark pass; the others are not.
# Only the identity windows keep no rows: slot k reads row k - 1.
@pytest.mark.parametrize("perm, count", [
    (identity(1), 1),
    (identity(300), 300),
    (identity(300), 17),
    (random_perm(300, 1), 300),
    (random_perm(1000, 2), 1000),
    (random_perm(300, 3), 120),
    (random_perm(1000, 4), 999),
    (random_perm(300, 5), 1),
    (PermutationWindow([3, 1, 2, 5, 4]), 3),
    (PermutationWindow([3, 1, 2, 5, 4]), 4),
])
def test_evaluator_rank_pass_matches_sort_oracle(perm, count):
    seq = gen_power(2, 0, len(perm))
    ev = PartialSumEvaluator(COS1, seq, perm, count)
    indices, rows = sorted_index_rows(perm.images[:count])
    assert ev.indices.dtype == np.int64 and ev.indices.tolist() == indices
    if np.array_equal(perm.images[:count], np.arange(1, count + 1)):
        assert ev._rows is None
    else:
        assert ev._rows.dtype == np.int64 and np.array_equal(ev._rows, rows)
    assert ev.required == required_bits(seq.term(indices[-1]), 1)


def _matmul_slot_values(ev, x):
    """slot_values by the one-column-per-frequency matmul for every F."""
    angles = ev.engine.tops(x).astype(np.float64) * (2.0 * math.pi * 2.0**-64)
    if not ev._has_cos:
        return (np.sin(angles) @ ev._asin)[ev._rows]
    per_index = np.cos(angles) @ ev._acos
    if ev._has_sin:
        per_index += np.sin(angles) @ ev._asin
    return per_index[ev._rows]


@pytest.mark.parametrize("seq", [gen_power(2, 0, 256), gen_power(2, -1, 256),
                                 gen_geometric(Fraction(3, 2), 2, 60)],
                         ids=["pow2", "pow2m1", "geometric"])
@pytest.mark.parametrize("kinds", [("cos",), ("sin",), ("cos", "sin")])
def test_single_frequency_kernel_equals_matmul(seq, kinds):
    rng = np.random.default_rng(20260810)
    for trial in range(4):
        j = int(rng.integers(1, 4))
        coeffs = {kind: {j: Fraction(int(rng.integers(-999, 1000)) or 1,
                                     int(rng.integers(2, 1000)))} for kind in kinds}
        poly = TrigPolynomial(cos_coeffs=coeffs.get("cos", {}),
                              sin_coeffs=coeffs.get("sin", {}))
        n = len(seq)
        ev = PartialSumEvaluator(poly, seq, random_perm(n, trial), n - trial)
        assert len(ev.freqs) == 1
        for x in sample_points(ev.required, 3, seed=trial):
            got = ev.slot_values(x)
            assert got.tobytes() == _matmul_slot_values(ev, x).tobytes()


def test_evaluator_window_errors():
    seq = gen_power(2, 0, 50)
    with pytest.raises(ValueError, match="exceeds sequence length"):
        PartialSumEvaluator(COS1, seq, random_perm(80, 2), 80)
    for count in (0, 81):
        with pytest.raises(ValueError, match="outside 1..80"):
            PartialSumEvaluator(COS1, seq, random_perm(80, 2), count)


def test_partial_sum_narrow_mantissa_rejected():
    seq = gen_power(2, 0, 64)
    x = FixedPointSample(123, 64)
    with pytest.raises(MantissaWidthError) as err:
        partial_sum(COS1, seq, identity(64), x, 64)
    assert err.value.need == required_bits(seq.term(64), 1)


# ---------------- clt experiment ----------------

def test_clt_variance_consistency_small():
    seq = gen_power(2, 0, 256)
    perm = identity(256)
    m = 4000
    emp = clt_experiment(COS1, seq, perm, 256, m, seed=5)
    stats = emp.summary()
    exact = float(exact_variance(COS1, seq, perm, 256))
    assert abs(stats.mean) < 4 * stats.se_mean
    assert abs(stats.variance - exact) < 4 * math.sqrt(2 / m) * exact + 4 * stats.se_variance


def test_clt_single_term_variance():
    seq = gen_power(2, 0, 8)
    emp = clt_experiment(COS12, seq, identity(8), 1, 4000, seed=6)
    stats = emp.summary()
    # N=1: distribution of f(n_1 x); variance ||f||^2 = 1
    assert abs(stats.variance - 1.0) < 5 * stats.se_variance + 0.05


def test_clt_determinism_and_worker_independence():
    seq = gen_power(2, 0, 64)
    a = clt_experiment(COS1, seq, identity(64), 64, 200, seed=9)
    b = clt_experiment(COS1, seq, identity(64), 64, 200, seed=9)
    assert np.array_equal(a.samples, b.samples)
    c = clt_experiment(COS1, seq, identity(64), 64, 200, seed=9, workers=2)
    assert np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("cores, pool_sizes", [(64, [8]), (3, [3]), (None, [])])
def test_clt_pool_size_capped_by_samples_and_cores(monkeypatch, cores, pool_sizes):
    # a recorder in place of the pool: it starts no process and maps in-line
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    seq = gen_power(2, 0, 64)
    serial = clt_experiment(COS1, seq, identity(64), 64, 8, seed=9)
    wide = clt_experiment(COS1, seq, identity(64), 64, 8, seed=9, workers=10**6)
    assert np.array_equal(serial.samples, wide.samples)
    assert sizes == pool_sizes


@pytest.mark.parametrize("workers", [0, -2])
def test_clt_workers_below_one_refused_before_the_build(monkeypatch, workers):
    # both once ran one worker without complaint
    def no_build(*args, **kwargs):
        raise AssertionError("evaluator built before workers was checked")

    monkeypatch.setattr(simulate, "PartialSumEvaluator", no_build)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        clt_experiment(COS1, gen_power(2, 0, 64), identity(64), 64, 8, seed=9,
                       workers=workers)


_POOL_PROBE = """
import sys
from lacunaria import permute, seqgen, simulate, spectra

poly = spectra.TrigPolynomial.parse("cos:1")
simulate.clt_experiment(poly, seqgen.gen_power(2, 0, 64), permute.identity(64), 64, 4,
                        seed=1, workers=1)
print(sorted({"multiprocessing", "concurrent.futures.process"} & set(sys.modules)))
"""


def test_one_worker_loads_no_process_pool():
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _POOL_PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


# SHA-256 of clt_experiment(...).samples.tobytes() for one case per
# FracTopEngine strategy (window 40 or 128, random_perm(N, 5), 48 samples,
# seed 13), recorded before the samplers shared one point stream.
CLT_PINNED = {
    "pow2-window": (gen_power(2, 0, 128), "cos:1",
                    "665dabc1cc2816d02b1ebf1f354b8bcac83b458a8e4fd45126671f3124c30416"),
    "power-chain": (gen_power(3, 0, 40), "cos:1,sin:3",
                    "2fd47689623e9dddd7cfe5645e970c86a2deae4cd4f7b3b5c7830b4fcc269495"),
    "generic": (gen_geometric("3/2", 2, 40), "cos:1,cos:2",
                "77ea564ef9078ada18b90adb5447b51db1d4912900a5e7a1ca6ac426c9de763c"),
}


@pytest.mark.parametrize("strategy", sorted(CLT_PINNED))
def test_clt_samples_pinned(strategy):
    seq, spec, digest = CLT_PINNED[strategy]
    poly = TrigPolynomial.parse(spec)
    n = len(seq)
    perm = random_perm(n, 5)
    ev = PartialSumEvaluator(poly, seq, perm, n)
    assert ev.engine.strategy == strategy
    for workers in (1, 2):
        emp = clt_experiment(poly, seq, perm, n, 48, seed=13, workers=workers)
        assert hashlib.sha256(emp.samples.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("strategy", sorted(CLT_PINNED))
def test_clt_samples_read_the_point_stream(strategy):
    seq, spec, _ = CLT_PINNED[strategy]
    poly = TrigPolynomial.parse(spec)
    n, m, seed = len(seq), 12, 21
    perm = random_perm(n, 6)
    ev = PartialSumEvaluator(poly, seq, perm, n)
    emp = clt_experiment(poly, seq, perm, n, m, seed=seed)
    assert emp.meta == {"mantissa_bits": ev.required}  # the one key anything reads
    points = sample_points(ev.required, m, seed)
    scale = 1.0 / math.sqrt(n)
    for i, x in enumerate(points):
        assert emp.samples[i] == partial_sum(poly, seq, perm, x, n) * scale


def test_summary_gaussian_null_kurtosis_se():
    # delta-method SE reduces to sqrt(24/M) under a Gaussian null
    rng = np.random.default_rng(1)
    m = 200_000
    emp = EmpiricalDistribution(rng.standard_normal(m))
    stats = emp.summary()
    assert abs(stats.kurtosis_ratio - 3.0) < 4 * math.sqrt(24 / m)
    assert abs(stats.se_kurtosis - math.sqrt(24 / m)) < 0.3 * math.sqrt(24 / m)



def test_summary_kurtosis_is_none_at_zero_variance():
    for samples in (np.zeros(1), np.full(7, 0.25)):
        stats = EmpiricalDistribution(samples).summary()
        assert stats.variance == 0.0
        assert stats.kurtosis_ratio is None and stats.se_kurtosis is None
        assert stats.se_mean == 0.0 and stats.se_variance == 0.0


# ---------------- KS distance ----------------

def test_ks_gaussian_self():
    rng = np.random.default_rng(3)
    m = 100_000
    emp = EmpiricalDistribution(rng.standard_normal(m) * math.sqrt(0.5))
    ks = ks_distance(emp, GaussianTarget(0.5))
    assert ks.distance < 1.36 / math.sqrt(m) * 1.5


def test_ks_constant_vs_gaussian():
    emp = EmpiricalDistribution(np.zeros(1000))
    ks = ks_distance(emp, GaussianTarget(1.0))
    assert ks.distance >= 0.5


def test_gaussian_target_rejects_negative_and_nan_variance():
    for variance in (-1.0, -1e-300, math.nan):
        with pytest.raises(ValueError, match="^variance must be nonnegative$"):
            GaussianTarget(variance)


def test_ks_degenerate_target():
    emp = EmpiricalDistribution(np.zeros(100))
    ks = ks_distance(emp, GaussianTarget(0.0))
    assert ks.distance <= 0.01 + 1e-12


def test_ks_mixture_target_self_and_gap():
    # sample from the mixture Z sqrt(v(U)) directly; compare both targets
    rng = np.random.default_rng(11)
    m = 100_000
    u = rng.random(m)
    v = 1.0 + 0.5 * np.cos(2 * np.pi * u)
    samples = rng.standard_normal(m) * np.sqrt(v)
    emp = EmpiricalDistribution(samples)
    prof = MixtureProfile(constant=Fraction(1), cosine_terms={1: Fraction(1, 2)})
    ks_mix = ks_distance(emp, MixtureTarget(prof))
    assert ks_mix.cdf_tolerance < 1e-6
    assert ks_mix.distance < 1.5 * 1.36 / math.sqrt(m)
    ks_gauss = ks_distance(emp, GaussianTarget(1.0))
    # strictly positive distributional gap: beyond the 99% threshold and
    # clearly above the self-distance
    assert ks_gauss.distance > kolmogorov_threshold(m, 0.01)
    assert ks_gauss.distance > 2 * ks_mix.distance


def test_kolmogorov_threshold_values():
    assert abs(kolmogorov_threshold(100_000, 0.01) - 1.628 / math.sqrt(100_000)) < 1e-12
    with pytest.raises(ValueError):
        kolmogorov_threshold(1000, 0.5)


# ---------------- characteristic function ----------------

def test_charfn_zero_samples():
    emp = EmpiricalDistribution(np.zeros(100))
    pts = charfn_experiment(emp, [0.5, 1.0, 2.0])
    assert all(abs(p.real_part - 1.0) < 1e-15 for p in pts)
    assert all(p.se == 0 for p in pts)


def test_charfn_gaussian_samples():
    rng = np.random.default_rng(5)
    m = 200_000
    emp = EmpiricalDistribution(rng.standard_normal(m) * math.sqrt(0.5))
    (pt,) = charfn_experiment(emp, [1.0])
    assert abs(pt.real_part - math.exp(-0.25)) < 4 * pt.se
    assert pt.se <= 1 / math.sqrt(m)


# ---------------- LIL trajectories ----------------

def test_lil_monotone_and_checkpoints():
    seq = gen_power(2, 0, 1 << 12)
    x = sample_points(required_bits(seq.term(1 << 12), 1), 1, seed=3)[0]
    traj = lil_trajectory(COS1, seq, identity(1 << 12), x, 1 << 12, 0.5)
    ns = [n for n, _ in traj.checkpoints]
    assert ns == [16 * 2**i for i in range(9)]
    ratios = traj.ratios()
    assert ratios == sorted(ratios)  # running max never decreases


def test_lil_doubling_never_decreases():
    seq = gen_power(2, 0, 1 << 11)
    bits = required_bits(seq.term(1 << 11), 1)
    x = sample_points(bits, 1, seed=8)[0]
    short = lil_trajectory(COS1, seq, identity(1 << 11), x, 1 << 10, 0.5)
    full = lil_trajectory(COS1, seq, identity(1 << 11), x, 1 << 11, 0.5)
    assert full.final_ratio() >= short.final_ratio()
    assert full.checkpoints[: len(short.checkpoints)] == short.checkpoints


# SHA-256 of the packed (N, ratio) checkpoints at n_max = 2^12, recorded
# before the evaluator's rank-pass build: (sequence, permutation, polynomial)
LIL_PINNED = {
    ("pow2", "identity", "cos1"):
        "bbfbc79dcadcab8a78511ac92ff85a6043eba8b32ad28ecd2996d195b73da818",
    ("pow2", "random", "cos1"):
        "6f6bb2ce376ffe6f6b5332168d116bc530bebf0594f70c5b99d7b49fd7231d5c",
    ("pow2m1", "random", "mix"):
        "a9d1b0082dfb1e7aabee5fa06d521de91b61b3dc58677692a2fb5d9e7423953d",
}


@pytest.mark.parametrize("key", sorted(LIL_PINNED))
def test_lil_checkpoints_pinned(key):
    seq_name, perm_name, poly_name = key
    n = 1 << 12
    seq = gen_power(2, 0 if seq_name == "pow2" else -1, n)
    perm = identity(n) if perm_name == "identity" else random_perm(n, 20260810)
    poly = COS1 if poly_name == "cos1" else TrigPolynomial(
        cos_coeffs={1: 1, 2: 1}, sin_coeffs={1: 1})
    x = sample_points(required_bits(seq.term(n), poly.degree), 1, seed=3)[0]
    traj = lil_trajectory(poly, seq, perm, x, n, 0.5)
    packed = b"".join(struct.pack("<qd", k, r) for k, r in traj.checkpoints)
    assert hashlib.sha256(packed).hexdigest() == LIL_PINNED[key]


# SHA-256 of the packed (N, ratio) checkpoints at n_max = 2^17, two blocks of
# the trajectory, with two frequencies; recorded while the LIL still formed
# the whole window's tops, angles and cosines at once:
# (offset, window, polynomial)
MULTI_LIL_POLYS = {
    "cos+cos": COS12,
    "cos+sin": TrigPolynomial(cos_coeffs={1: 1}, sin_coeffs={2: Fraction(1, 2)}),
}
MULTI_LIL_PINNED = {
    (0, "identity", "cos+cos"):
        "92a707017a48b576695658bcd84fc5df2f8c35ea93e0336f3e9afc79ac99b11c",
    (0, "identity", "cos+sin"):
        "0accb5b59723393ae2052fc7b373599a4d3998584ed3ed47079b050e63f63015",
    (0, "permuted", "cos+cos"):
        "cf75b695903e9f90b0abe13b60c7cf7e68d0b8e9d72aff5a31e35d9544c055b1",
    (0, "permuted", "cos+sin"):
        "afe0264b4fff052415d342ffecc70d16b8a06585acb70f292443464c3bad717c",
    (-1, "identity", "cos+cos"):
        "fb4e133894c283beb5c385a371f3c4d48058dbbcc8764f8fc9f08c7ae2da766f",
    (-1, "identity", "cos+sin"):
        "22f4c490d97775aa95e94a96a819d6d382adab1547bce95077fcfe8950b7d384",
    (-1, "permuted", "cos+cos"):
        "e70cc89e6b2898a932cd2c3ab4deae1b5b369238e965d09eb9b40e80bfccad32",
    (-1, "permuted", "cos+sin"):
        "82eda735720e908d4dd8985c7f6bfb4676032287a08bb53117b07e85e2fcfd34",
}


@pytest.mark.parametrize("key", sorted(MULTI_LIL_PINNED))
def test_multi_frequency_lil_checkpoints_pinned(key):
    offset, window, poly_name = key
    n = 1 << 17
    seq = gen_power(2, offset, n)
    perm = identity(n) if window == "identity" else PermutationWindow(
        np.random.default_rng(5).permutation(n) + 1)
    ev = PartialSumEvaluator(MULTI_LIL_POLYS[poly_name], seq, perm, n)
    x = sample_points(ev.required, 1, seed=3)[0]
    traj = ev.lil_trajectory(x, 0.5)
    packed = b"".join(struct.pack("<qd", k, r) for k, r in traj.checkpoints)
    assert hashlib.sha256(packed).hexdigest() == MULTI_LIL_PINNED[key]


# SHA-256 of the partial-sum path's bytes, recorded before that path worked
# in place: per (window, sequence, polynomial), and for N = 2^10 and 2^16,
# slot_values and their prefix sums at two points and the packed LIL checkpoints
PATH_POLYS = {
    "cos": TrigPolynomial(cos_coeffs={1: Fraction(3, 4)}),
    "sin": TrigPolynomial(sin_coeffs={1: Fraction(-2, 3)}),
    "cos+sin": TrigPolynomial(cos_coeffs={1: 1}, sin_coeffs={1: Fraction(1, 2)}),
    "two-freq": TrigPolynomial(cos_coeffs={1: 1, 2: Fraction(1, 2)}, sin_coeffs={2: 1}),
    "sin-multi": TrigPolynomial(sin_coeffs={1: Fraction(-2, 3), 2: Fraction(1, 2)}),
}
PATH_PINNED = {
    ('identity', 'pow2', 'cos'):
        "31f8712c54f8baf4b1970a29b9b473b78f4a8b16922754436ba4e7a724a33cc1",
    ('identity', 'pow2', 'cos+sin'):
        "f673d3533e859aa20859379af127f38a6c28b19c66adcac99e699ebfac782a8a",
    # the "sin-multi" rows were recorded later, on the code before the
    # power-form and KS-target cleanup
    ('identity', 'pow2', 'sin-multi'):
        "8d3c99fea0da76453a6898566a434954d70b897bbfc605582483bfe3cdddb2e0",
    ('identity', 'pow2m1', 'sin-multi'):
        "cab1fc9dff6273444b95f8ba9e787a9eab08a2e00cba025e1e2108469a9549f3",
    ('shuffled', 'pow2', 'sin-multi'):
        "a0fb9b491048d1e91218d155ec4ca32a5818033369c42ad8cbe53469a57f3ca2",
    ('shuffled', 'pow2m1', 'sin-multi'):
        "50fa9296f586380e71a95dcf280525141d83fa6aa733bd4ef6ed685fad382f0b",
    ('sub', 'pow2', 'sin-multi'):
        "550c6b48157d016ec1edf576ea80ffbf4a522f277cb9841e777854fbc3c00178",
    ('sub', 'pow2m1', 'sin-multi'):
        "770a923f1af2d7397ee174274fe66adf0176f9b5322bfd074c902a1e38e61d24",
    ('identity', 'pow2', 'sin'):
        "2c678e558182ea5a28bbe3aac43ae4db815913aa92371be30fdb0637dc33e4e4",
    ('identity', 'pow2', 'two-freq'):
        "833bd53a041bbaa7ebff45ee1a15e37e043d5a41b9b0970be20e4ae0c642dfff",
    ('identity', 'pow2m1', 'cos'):
        "0661850c098a013e4996fac9fd4de3d70b46b1d77ad2a0dbcaec43e6617e4a44",
    ('identity', 'pow2m1', 'cos+sin'):
        "0f1234deedff2020221fb27d810cbeb92d3ae6cae7bc9199d0100b25955c7407",
    ('identity', 'pow2m1', 'sin'):
        "30a793830623684060f7a4429a7949c9733fca45d862ae54c27a9a6e9b7c13ec",
    ('identity', 'pow2m1', 'two-freq'):
        "4bf7bceb9979fe8df34284313950e4b41b432ee777e54bf3423f5c5defa7be39",
    ('shuffled', 'pow2', 'cos'):
        "5f91738a2088d8dc39f4d6b22e223ff2631f3bd5787b87a18947a940af5cbbc5",
    ('shuffled', 'pow2', 'cos+sin'):
        "7276224d2812d3a856b7025c09e89c7d66f908333dbf04baa753c63f584e592a",
    ('shuffled', 'pow2', 'sin'):
        "5e1461c99f861daab46d712c234b6c3bf3a278011e81871900a18785f973ad9b",
    ('shuffled', 'pow2', 'two-freq'):
        "51d182c45598f04f814bf7e80bee55388eb5d7d9e7baa58c40f22acca9cb14f2",
    ('shuffled', 'pow2m1', 'cos'):
        "cc75e49ee4504a35d1d90d07e3146130ae7787b9a7fd432596873f06243bdc13",
    ('shuffled', 'pow2m1', 'cos+sin'):
        "340e75a98fd5bb64e70df6f69a239b8be3a1ffff7879cf070e7a7a2aa670f5b5",
    ('shuffled', 'pow2m1', 'sin'):
        "badcaef96c904c972708c9210a1b9d500b6ee63a346bd9732b32a488aa812da3",
    ('shuffled', 'pow2m1', 'two-freq'):
        "c88daeb0b64988acd5bbb91e13dcb80230fa874b2f173184b91709d3ded55769",
    ('sub', 'pow2', 'cos'):
        "5d8642ca1d7bec17039892f9d225efc4228a3e8302c5915ddede68ed44e6d341",
    ('sub', 'pow2', 'cos+sin'):
        "0b35516d3c9fc7102831fd70b8106d7d9857c5f562d6e7045fda8cd9099a987f",
    ('sub', 'pow2', 'sin'):
        "cf6132f1e74e8bdc2687a73cb1dd87d08a1a1df45450bbe9e83b36aa40f3914b",
    ('sub', 'pow2', 'two-freq'):
        "f0a938cd4d644c4662d8d0742898e521f75d3d81347eef0ea8d6691d72097e2e",
    ('sub', 'pow2m1', 'cos'):
        "1cd4b84e677920240146fce57f36acc04cf9ea5d05b953805a8a5f4a201ed524",
    ('sub', 'pow2m1', 'cos+sin'):
        "7b3086d9cd8a15932c9f9a92c4f238a59abc41d88397aa5797dae04b95f7349c",
    ('sub', 'pow2m1', 'sin'):
        "a1cc714fdbeb90be5fba4dd72540016a6faa0b9278f4e2f7144f808964a4fddd",
    ('sub', 'pow2m1', 'two-freq'):
        "fefedeb793fdf7aff61f641137419841ee3bb97b9d356bd1ff98e932f3bc775c",
}


def _path_digest(window, seq_name, poly_name):
    poly = PATH_POLYS[poly_name]
    h = hashlib.sha256()
    for n in (1 << 10, 1 << 16):
        seq = gen_power(2, 0 if seq_name == "pow2" else -1, 2 * n)
        perm = {"identity": identity(n), "shuffled": random_perm(n, 20260810),
                "sub": random_perm(2 * n, 20260810)}[window]
        ev = PartialSumEvaluator(poly, seq, perm, n)
        for x in sample_points(ev.required, 2, seed=n):
            h.update(ev.slot_values(x).tobytes())
            h.update(np.cumsum(ev.slot_values(x)).tobytes())
            traj = ev.lil_trajectory(x, 0.5)
            h.update(b"".join(struct.pack("<qd", k, r) for k, r in traj.checkpoints))
    return h.hexdigest()


@pytest.mark.parametrize("window", ["identity", "shuffled", "sub"])
@pytest.mark.parametrize("seq_name", ["pow2", "pow2m1"])
@pytest.mark.parametrize("poly_name", sorted(PATH_POLYS))
def test_partial_sum_path_bytes_pinned(window, seq_name, poly_name):
    got = _path_digest(window, seq_name, poly_name)
    assert got == PATH_PINNED[(window, seq_name, poly_name)]


# 2^k and 2^k - 1 run the pow2-window kernel, 3^k the row loop's power
# chain and geometric 3/2 its generic rows
BLOCK_SEQS = {
    "pow2": (lambda m: gen_power(2, 0, m), "pow2-window"),
    "pow2m1": (lambda m: gen_power(2, -1, m), "pow2-window"),
    "pow3": (lambda m: gen_power(3, 0, m), "power-chain"),
    "geometric": (lambda m: gen_geometric(Fraction(3, 2), 2, m), "generic"),
}


@pytest.mark.parametrize("seq_name", sorted(BLOCK_SEQS))
@pytest.mark.parametrize("window", ["identity", "shuffled", "sub"])
@pytest.mark.parametrize("poly_name", sorted(PATH_POLYS))
def test_slot_blocks_concatenate_to_slot_values(seq_name, window, poly_name):
    # slot_values is the one block of _slot_blocks; any other block size
    # yields consecutive blocks whose bytes are those of the one block
    n = 150
    build, strategy = BLOCK_SEQS[seq_name]
    perm = {"identity": identity(n), "shuffled": random_perm(n, 7),
            "sub": random_perm(2 * n, 7)}[window]
    ev = PartialSumEvaluator(PATH_POLYS[poly_name], build(2 * n), perm, n)
    assert ev.engine.strategy == strategy
    x = sample_points(ev.required, 1, seed=11)[0]
    want = ev.slot_values(x).tobytes()
    for block in (1, 7, 64, n - 1, n, 2 * n):
        blocks = list(ev._slot_blocks(x, block))
        assert [len(b) for b in blocks] == [min(block, n - lo) for lo in range(0, n, block)]
        assert np.concatenate(blocks).tobytes() == want, block


def test_lil_segment_maxima_match_running_max_oracle():
    n_top = 1 << 16
    seq = gen_power(2, -1, n_top)
    for poly, perm in ((COS1, identity(n_top)), (COS12, random_perm(n_top, 7))):
        n = 16
        while n <= n_top:
            ev = PartialSumEvaluator(poly, seq, perm, n)
            x = sample_points(ev.required, 1, seed=n)[0]
            want = lil_running_max_checkpoints(np.cumsum(ev.slot_values(x)), 0.5)
            assert ev.lil_trajectory(x, 0.5).checkpoints == want
            n *= 2


@pytest.mark.parametrize("block", [64, 48])
@pytest.mark.parametrize("window", ["identity", "shuffled", "sub"])
@pytest.mark.parametrize("seq_name", ["pow2", "pow2m1"])
def test_lil_blocks_straddling_segments_match_oracle(monkeypatch, block, window, seq_name):
    # blocks of 64 or 48 slots cut segments (and 48 cuts the powers of two)
    # anywhere; the checkpoints stay those of one cumsum over the window.
    # 128 slots are two blocks of 64, or two of 48 and part of a third.
    monkeypatch.setattr(simulate, "_LIL_BLOCK", block)
    for n in (16, 128, 1 << 12):
        seq = gen_power(2, 0 if seq_name == "pow2" else -1, 2 * n)
        perm = {"identity": identity(n), "shuffled": random_perm(n, 20260810),
                "sub": random_perm(2 * n, 20260810)}[window]
        for poly_name, poly in sorted(PATH_POLYS.items()):
            ev = PartialSumEvaluator(poly, seq, perm, n)
            for x in sample_points(ev.required, 2, seed=n):
                want = lil_running_max_checkpoints(np.cumsum(ev.slot_values(x)), 0.5)
                assert ev.lil_trajectory(x, 0.5).checkpoints == want, (n, poly_name)


def _peak_buffers(n, build):
    """Peak of numpy's traced allocations during build(), in buffers of 8n bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8 * n)


def test_lil_trajectory_peak_memory_in_buffers():
    # numpy's buffers are traced.  An identity window of 2^18 keeps no index
    # copy (the images are the indices) and the engine streams its window
    # offsets; one point adds a few arrays of one block of 2^16 slots, a
    # quarter of 8N each at this size: 1.54 buffers of 8N measured.  The
    # engine's three whole-window offset arrays made it 3.79, and holding the
    # index copy, prefix sums and denominators for every slot 7.0.
    n = 1 << 18
    seq = gen_power(2, 0, n)
    perm = identity(n)
    x = sample_points(required_bits(seq.term(n), 1), 1, seed=1)[0]
    peak = _peak_buffers(n, lambda: PartialSumEvaluator(COS1, seq, perm, n).lil_trajectory(x, 0.5))
    assert peak <= 1.6


def test_lil_trajectory_peak_memory_shuffled_window():
    # a permuted window adds sorted indices, slot rows and the per-index
    # values the blocks gather from: 3 buffers of 8N plus the block arrays,
    # 4.29 measured (4.79 while each block's angles were made apart from the
    # per-index array, 7.04 with the engine's whole-window offsets, 8.0 with
    # the whole trajectory held at once)
    n = 1 << 18
    seq = gen_power(2, 0, n)
    perm = PermutationWindow(np.random.default_rng(5).permutation(n) + 1)
    x = sample_points(required_bits(seq.term(n), 1), 1, seed=1)[0]
    peak = _peak_buffers(n, lambda: PartialSumEvaluator(COS1, seq, perm, n).lil_trajectory(x, 0.5))
    assert peak <= 4.35


@pytest.mark.parametrize("window, poly_name, bound", [
    # the (N, 2) table of angles, then cosines, and the matmul's per-index
    # values, plus the blocks: 4.29 measured (4.79 while a tops block was
    # still held as the next one was made, 9.03 while the whole window's
    # tops, angles and cosines existed at once, with the engine's offsets)
    ("identity", "cos+cos", 4.85),
    # the sines' matmul adds one array before it is summed in: 5.29
    ("identity", "cos+sin", 5.85),
    # sorted indices and slot rows on top: 6.29 and 7.29 (11.03 before)
    ("permuted", "cos+cos", 6.85),
    ("permuted", "cos+sin", 7.85),
])
def test_lil_trajectory_peak_memory_two_frequencies(window, poly_name, bound):
    n = 1 << 18
    seq = gen_power(2, 0, n)
    perm = identity(n) if window == "identity" else PermutationWindow(
        np.random.default_rng(5).permutation(n) + 1)
    poly = MULTI_LIL_POLYS[poly_name]
    x = sample_points(required_bits(seq.term(n), 2), 1, seed=1)[0]
    peak = _peak_buffers(n, lambda: PartialSumEvaluator(poly, seq, perm, n).lil_trajectory(x, 0.5))
    assert peak <= bound


def test_identity_window_peak_memory_in_buffers():
    # the arange alone, kept by the window: 1.00 measured (2.13 while the
    # window copied it and marked every slot)
    n = 1 << 18
    assert _peak_buffers(n, lambda: identity(n)) <= 1.05


def test_lil_one_evaluator_many_points():
    n = 1 << 10
    seq = gen_power(2, -1, n)
    perm = random_perm(n, 6)
    ev = PartialSumEvaluator(COS12, seq, perm, n)
    for x in sample_points(ev.required, 3, seed=9):
        got = ev.lil_trajectory(x, 1.0)
        want = lil_trajectory(COS12, seq, perm, x, n, 1.0)
        assert got.checkpoints == want.checkpoints


def test_lil_points_and_variances_interleaved():
    # one evaluator serves any sequence of (point, variance) calls: each
    # gives the checkpoints of a fresh one-shot call
    n = 1 << 10
    seq = gen_power(2, -1, n)
    perm = identity(n)
    ev = PartialSumEvaluator(COS12, seq, perm, n)
    x, y = sample_points(ev.required, 2, seed=9)
    for point, variance in ((x, 1.0), (y, 1.0), (x, 0.5), (y, 2.0), (x, 1.0), (y, 0.5)):
        want = lil_trajectory(COS12, seq, perm, point, n, variance).checkpoints
        assert ev.lil_trajectory(point, variance).checkpoints == want


def test_lil_rejects_bad_args():
    seq = gen_power(2, 0, 64)
    x = sample_points(required_bits(seq.term(64), 1), 1, seed=1)[0]
    with pytest.raises(ValueError):
        lil_trajectory(COS1, seq, identity(64), x, 48, 0.5)  # not a power of 2
    with pytest.raises(ValueError):
        lil_trajectory(COS1, seq, identity(64), x, 64, 0.0)
    with pytest.raises(ValueError, match="power of two"):
        PartialSumEvaluator(COS1, seq, identity(64), 48).lil_trajectory(x, 0.5)
    with pytest.raises(ValueError, match="variance must be positive"):
        PartialSumEvaluator(COS1, seq, identity(64), 64).lil_trajectory(x, -1.0)
    for variance in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="variance must be positive and finite"):
            PartialSumEvaluator(COS1, seq, identity(64), 64).lil_trajectory(x, variance)
        with pytest.raises(ValueError, match="variance must be positive and finite"):
            lil_trajectory(COS1, seq, identity(64), x, 64, variance)
