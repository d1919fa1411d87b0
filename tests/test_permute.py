import functools
import hashlib
import json
import math
import random
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lacunaria.errors import InsufficientWitnesses, SpacingUnsatisfiable
from lacunaria import permute, spectra
from lacunaria.permute import (
    BlockPairing,
    BlockSchedule,
    PairingCertificate,
    PermutationWindow,
    _power_sign,
    _span_bound,
    _witness_groups,
    build_pairing_counterexample,
    identity,
    random_perm,
    read_certificate,
    read_permutation,
    verify_certificate,
    write_certificate,
    write_permutation,
)
from lacunaria.seqgen import (
    IntegerSequence,
    RStarParams,
    gen_geometric,
    gen_power,
    gen_random_rstar,
    gen_smooth,
)

from oracles import cycle_count


# ---------------- basic windows ----------------

def test_identity():
    assert identity(3).images.tolist() == [1, 2, 3]
    assert identity(1).images.tolist() == [1]
    # built without the constructor's copy, it keeps the constructor's contract
    perm = identity(4)
    assert isinstance(perm, PermutationWindow) and len(perm) == 4
    images = perm.images
    assert images.dtype == np.int64 and images.ndim == 1
    assert images.flags.c_contiguous and not images.flags.writeable
    with pytest.raises(ValueError):
        images[0] = 2
    with pytest.raises(ValueError, match="positive"):
        identity(0)


def test_random_perm_deterministic():
    assert random_perm(52, 9).images.tolist() == random_perm(52, 9).images.tolist()
    assert random_perm(52, 9).images.tolist() != random_perm(52, 10).images.tolist()


def test_random_perm_bijective():
    perm = random_perm(52, 3)
    assert sorted(perm.images) == list(range(1, 53))


def test_bijection_rejected():
    # [1.5, 2, 3] truncated to int64 would be a bijection; 2**70 does not
    # fit in int64; bool, float, out-of-range uint64 and 2-D arrays are not
    # windows either
    for images in ([1, 2, 2], [0, 1, 2], [1, 2, 4], [1.5, 2, 3], [2**70], [3, 1, 2**70],
                   np.array([1.0, 2.0]), np.array([True]), np.array([False, True]),
                   np.array([2, 1, 2**63 + 1], dtype=np.uint64),
                   np.array([1, 2**64 - 1], dtype=np.uint64), np.array([[1, 2], [2, 1]])):
        with pytest.raises(ValueError, match=r"^images are not a bijection of \{1\.\.N\}$"):
            PermutationWindow(images)
    with pytest.raises(ValueError, match="^empty permutation$"):
        PermutationWindow([])
    assert PermutationWindow([3, 1, 2]).images.tolist() == [3, 1, 2]
    assert PermutationWindow(np.array([2, 1], dtype=np.uint64)).images.tolist() == [2, 1]


@pytest.mark.parametrize("source", [
    [3, 1, 2],
    np.array([3, 1, 2]),
    np.array([3, 1, 2], dtype=np.int32),
    np.array([3, 1, 2], dtype=np.uint64),
    np.array([0, 3, 1, 2, 0])[1:4],  # a contiguous view into a larger array
    np.array([3, 0, 1, 0, 2])[::2],  # a non-contiguous view
])
def test_window_images_are_private_readonly_int64(source):
    perm = PermutationWindow(source)
    images = perm.images
    assert images.dtype == np.int64 and images.ndim == 1
    assert images.flags.c_contiguous and not images.flags.writeable
    assert images.tolist() == [3, 1, 2]
    if isinstance(source, np.ndarray):
        assert not np.shares_memory(images, source)
        source[...] = 0  # the caller's array stays writable and apart
        assert images.tolist() == [3, 1, 2]
    with pytest.raises(ValueError):
        images[0] = 1
    assert len(perm) == 3


def test_producers_return_int64_windows():
    for perm in (identity(5), random_perm(5, 1), PermutationWindow([2, 1])):
        assert perm.images.dtype == np.int64 and not perm.images.flags.writeable
    assert identity(4).images.tolist() == [1, 2, 3, 4]
    assert sorted(random_perm(300, 4).images.tolist()) == list(range(1, 301))


def test_cycle_count_matches_harmonic_number():
    # mean number of cycles of a uniform permutation of N elements is H_N
    n = 52
    trials = 10000
    total = sum(cycle_count(random_perm(n, seed)) for seed in range(trials))
    mean = total / trials
    h_n = sum(1 / k for k in range(1, n + 1))
    # sd of cycle count ~ sqrt(H_n - H_n^(2)); 4 sigma band on the mean
    sd = math.sqrt(h_n - sum(1 / k**2 for k in range(1, n + 1)))
    assert abs(mean - h_n) < 4 * sd / math.sqrt(trials)


def test_permutation_file_roundtrip(tmp_path):
    perm = random_perm(31, 8)
    path = tmp_path / "perm.txt"
    write_permutation(perm, path)
    assert read_permutation(path).images.tolist() == perm.images.tolist()


# SHA-256 of permutation files, recorded with the per-line writer before
# images became an array
PINNED_PERMUTATION_FILES = [
    (lambda: random_perm(1000, 20260810),
     "473f91ef766756751e08bbc11e5ac02ccfc3ed74cb53b9e5520ed7e90199fa9f"),
    (lambda: build_pairing_counterexample(
        gen_power(2, -1, 2000), 1, 2,
        BlockSchedule.geometric_dominant(4, factor=4, base_len=4), gap_ratio=8)[0],
     "cc47962f288329c3ef4e20b7e517c67bdb6219a004524cff14cc8fbc818e72ed"),
]


@pytest.mark.parametrize("build,sha", PINNED_PERMUTATION_FILES, ids=["random", "pairing"])
def test_permutation_file_bytes_pinned(tmp_path, build, sha):
    perm = build()
    path = tmp_path / "perm.txt"
    write_permutation(perm, path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha
    expected = "# lacunaria-perm v1\n" + "".join(f"{i}\n" for i in perm.images.tolist())
    assert data == expected.encode()
    assert read_permutation(path).images.tolist() == perm.images.tolist()


def test_read_permutation_rejects_bad_files(tmp_path):
    path = tmp_path / "perm.txt"
    path.write_text("# lacunaria-perm v1\n\n2\n# note\n 1 \n")
    assert read_permutation(path).images.tolist() == [2, 1]
    for body, message in (("", "^empty permutation$"),
                          ("1.5\n2\n", "could not convert"),
                          ("1\n1180591620717411303424\n", "could not convert"),
                          ("1\n3\n", r"^images are not a bijection")):
        path.write_text("# lacunaria-perm v1\n" + body)
        with pytest.raises(ValueError, match=message):
            read_permutation(path)


# ---------------- block schedules ----------------

def test_paper_schedule():
    sched = BlockSchedule.paper_doubly_exponential(3)
    assert sched.lengths == [4, 16, 256]
    with pytest.raises(ValueError):
        BlockSchedule.paper_doubly_exponential(5)


def test_geometric_schedule_dominance():
    sched = BlockSchedule.geometric_dominant(5, factor=4, base_len=4)
    assert sched.lengths[-1] > sum(sched.lengths[:-1])
    with pytest.raises(ValueError):
        BlockSchedule([4, 4, 4])  # final block not dominant
    with pytest.raises(ValueError):
        BlockSchedule([3, 16])  # odd length


def test_every_schedule_checks_dominance():
    for lengths in ([2, 2], [4, 4, 4], [2, 4, 6], [4, 16, 20]):
        with pytest.raises(ValueError, match="^final block must dominate the sum of the others$"):
            BlockSchedule(lengths)
    assert BlockSchedule.paper_doubly_exponential(4).lengths == [4, 16, 256, 65536]
    assert BlockSchedule([2, 4]).lengths == [2, 4]
    assert BlockSchedule([6]).lengths == [6]


# ---------------- pairing builder ----------------

def test_erdos_fortet_two_block_build():
    seq = gen_power(2, -1, 64)
    sched = BlockSchedule.geometric_dominant(2, factor=4, base_len=4)  # pairs: 2 + 8
    # ratio 8 = 2 * max(|a|,|b|) * degree for the canonical degree-2 test
    # function; forces the stride-4 selection (1,2),(5,6),(9,10),...
    perm, cert = build_pairing_counterexample(seq, 1, 2, sched, gap_ratio=8)
    assert cert.constants() == [1, 1]
    ok, problem = verify_certificate(perm, seq, cert)
    assert ok, problem
    assert cert.all_pairs[:3] == [(1, 2), (5, 6), (9, 10)]
    for u, v in cert.all_pairs:
        assert seq.term(v) - 2 * seq.term(u) == 1


def test_erdos_fortet_default_spacing():
    # the default floor 2*max(|a|,|b|) = 4 admits the denser stride (1,2),(4,5),...
    seq = gen_power(2, -1, 64)
    perm, cert = build_pairing_counterexample(seq, 1, 2, BlockSchedule([8]))
    assert cert.all_pairs[:2] == [(1, 2), (4, 5)]
    ok, problem = verify_certificate(perm, seq, cert)
    assert ok, problem


def test_single_pair_block():
    seq = gen_power(2, -1, 8)
    sched = BlockSchedule([2])
    perm, cert = build_pairing_counterexample(seq, 1, 2, sched)
    assert cert.certified_slots == 2
    assert tuple(perm.images[:2].tolist()) == cert.all_pairs[0]
    ok, _ = verify_certificate(perm, seq, cert)
    assert ok


def test_pow2_has_no_nonzero_witnesses():
    seq = gen_power(2, 0, 40)
    sched = BlockSchedule([4])
    with pytest.raises(InsufficientWitnesses):
        build_pairing_counterexample(seq, 1, 2, sched)


def test_pow2_zero_c_allowed():
    seq = gen_power(2, 0, 64)
    sched = BlockSchedule([4])
    perm, cert = build_pairing_counterexample(seq, 1, 2, sched, allow_zero_c=True)
    assert cert.constants() == [0]
    ok, _ = verify_certificate(perm, seq, cert)
    assert ok


def test_deficit_is_named():
    seq = gen_power(2, -1, 16)
    sched = BlockSchedule.geometric_dominant(2, factor=4, base_len=8)  # needs 20 pairs
    with pytest.raises(InsufficientWitnesses) as err:
        build_pairing_counterexample(seq, 1, 2, sched)
    assert "supplies only" in str(err.value)


def test_gap_ratio_floor_enforced():
    seq = gen_power(2, -1, 64)
    with pytest.raises(ValueError):
        build_pairing_counterexample(seq, 1, 2, BlockSchedule([2]),
                                     gap_ratio=3)


def test_round_trip_verification_property():
    seq = gen_power(2, -1, 200)
    for nblocks in (1, 2, 3):
        sched = BlockSchedule.geometric_dominant(nblocks, factor=4, base_len=4)
        perm, cert = build_pairing_counterexample(seq, 1, 2, sched,
                                                  gap_ratio=Fraction(8))
        ok, problem = verify_certificate(perm, seq, cert)
        assert ok, problem
        # certified index pairs are disjoint
        flat = [i for uv in cert.all_pairs for i in uv]
        assert len(flat) == len(set(flat))


def test_certificate_file_roundtrip(tmp_path):
    seq = gen_power(2, -1, 64)
    _, cert = build_pairing_counterexample(
        seq, 1, 2, BlockSchedule.geometric_dominant(2, factor=4, base_len=4)
    )
    path = tmp_path / "cert.json"
    write_certificate(cert, path)
    back = read_certificate(path)
    assert back.a == cert.a and back.b == cert.b
    assert back.gap_ratio == cert.gap_ratio
    assert back.all_pairs == cert.all_pairs


# SHA-256 of the comma-joined images and of the sorted-key certificate JSON,
# recorded on the pow-based pairing code before the integer-keyed version replaced it.
PINNED_PAIRINGS = [
    ("pow2m1:2000, 4 blocks, gap 8",
     lambda: build_pairing_counterexample(
         gen_power(2, -1, 2000), 1, 2,
         BlockSchedule.geometric_dominant(4, factor=4, base_len=4), gap_ratio=8),
     678, [1, 1, 1, 1],
     "6116c825736ebd09a053358b74ac11b300a4b2754908fac735de8c95c88c5ff7",
     "893b47733dd31742d0a7e7f92fef5e4c47374648ae0abb2c6ebf617136e43b5f"),
    ("pow2:200, c = 0 allowed",
     lambda: build_pairing_counterexample(
         gen_power(2, 0, 200), 1, 2,
         BlockSchedule.geometric_dominant(2, factor=4, base_len=4), allow_zero_c=True),
     29, [0, 0],
     "d024aaa4e2dc1aad84541d797c86620922a9c832f64d7a0497be7a07f72e72ba",
     "803e46479c5e968635f464b0a1fb266870aace82b0fdc67c723f737ae95fd8dd"),
    ("3*2^k - 1 as a plain list (gap profile path)",
     lambda: build_pairing_counterexample(
         IntegerSequence([3 * 2**k - 1 for k in range(1, 121)],
                         {"kind": "external", "path": "3*2^k-1"}), 1, 2,
         BlockSchedule.geometric_dominant(2, factor=4, base_len=4), gap_ratio=8),
     38, [1, 1],
     "8866de75cfb67e56c6850578e439f5a01b06a527561f8b887a836c00fdc195ed",
     "866a1c92706f9d987a1ce89085b95172e417832e85cad6d8445e9c78874965bc"),
    ("smooth 2,3: c = 1 via (1, 3) wins over c = -1 via (2, 3)",
     lambda: build_pairing_counterexample(
         gen_smooth({2, 3}, 300), 1, 2, BlockSchedule([2])),
     3, [1],
     "71f1f3cb483cd6f5ca0ab792084ea71eba3416947c5a687cb3167d6b61af25c7",
     "4fa4919270bbdffc7a43f94d83cb2ec8dfce7f2697e0b232a2f5c050f5476ebe"),
]


@pytest.mark.parametrize("build,window,constants,images_sha,cert_sha",
                         [case[1:] for case in PINNED_PAIRINGS],
                         ids=[case[0] for case in PINNED_PAIRINGS])
def test_pairing_output_pinned(build, window, constants, images_sha, cert_sha):
    perm, cert = build()
    assert len(perm) == window
    assert cert.constants() == constants
    images = ",".join(map(str, perm.images)).encode()
    assert hashlib.sha256(images).hexdigest() == images_sha
    text = json.dumps(cert.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == cert_sha


def test_pairing_error_messages_pinned():
    with pytest.raises(InsufficientWitnesses) as err:
        build_pairing_counterexample(gen_smooth({2, 3}, 300), 1, 2,
                                     BlockSchedule([2, 8]))
    assert str(err.value) == ("block 2 needs 4 disjoint spaced pairs; "
                              "best candidate c=104 supplies only 2")
    with pytest.raises(InsufficientWitnesses) as err:
        build_pairing_counterexample(gen_power(2, 0, 40), 1, 2, BlockSchedule([4]))
    assert str(err.value) == ("block 1 needs 2 disjoint spaced pairs; "
                              "best candidate c=4 supplies only 1")
    with pytest.raises(InsufficientWitnesses) as err:
        build_pairing_counterexample(gen_power(2, 0, 1), 1, 2, BlockSchedule([2]))
    assert str(err.value) == "no witness pairs for a=1, b=2 (excluding c = 0)"
    with pytest.raises(SpacingUnsatisfiable) as err:
        build_pairing_counterexample(gen_power(2, -1, 8), 1, 2,
                                     BlockSchedule([2, 4]), gap_ratio=1000)
    assert str(err.value) == ("block 2: witnesses exist but none clears "
                              "the spacing ratio 1000")


# ---------------- pairing golden: spans, builds and error texts ----------------

def _fibonacci(count):
    terms = [1, 2]
    while len(terms) < count:
        terms.append(terms[-1] + terms[-2])
    return terms


GOLDEN_SEQUENCES = {
    "pow2": lambda: gen_power(2, 0, 64),
    "pow2m1": lambda: gen_power(2, -1, 64),
    "3^k-1": lambda: gen_power(3, -1, 64),
    "geometric 3/2": lambda: gen_geometric(Fraction(3, 2), 2, 64),
    "smooth 2,3": lambda: gen_smooth({2, 3}, 64),
    "rstar": lambda: gen_random_rstar(RStarParams(alpha=1.0, a=50, count=64, seed=5)),
    "3*2^k-1 list": lambda: IntegerSequence([3 * 2**k - 1 for k in range(1, 65)],
                                            {"kind": "external", "path": "3*2^k-1"}),
    "fibonacci list": lambda: IntegerSequence(_fibonacci(64),
                                              {"kind": "external", "path": "fibonacci"}),
}
GOLDEN_COEFFS = [(1, 2), (2, 1), (1, 3), (1, -4), (3, 4), (1, 6), (4, 9), (-1, 2),
                 (2, 3), (1, 1)]
GOLDEN_BUILDS = [([2], None), ([4], None), ([4, 16, 64], None), ([2, 4], 1000)]
GOLDEN_PATH = Path(__file__).with_name("pairing_golden.json")


@functools.cache
def _golden_runs():
    """(key, seq, span or build outcome) over the golden sets; a build outcome
    is (perm, cert) or the exception it raised."""
    runs = []
    for name, make in GOLDEN_SEQUENCES.items():
        seq = make()
        for a, b in GOLDEN_COEFFS:
            runs.append((f"span {name} {a},{b}", seq, _span_bound(seq, a, b)))
            for lengths, gap in GOLDEN_BUILDS:
                for zero in (False, True):
                    key = f"build {name} {a},{b} {lengths} gap={gap} zero={zero}"
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")  # a = b is experimental
                            outcome = build_pairing_counterexample(
                                seq, a, b, BlockSchedule(lengths), gap, allow_zero_c=zero)
                    except (InsufficientWitnesses, SpacingUnsatisfiable) as err:
                        outcome = err
                    runs.append((key, seq, outcome))
    return runs


def _golden_value(outcome):
    if isinstance(outcome, int):
        return outcome
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    perm, cert = outcome
    digest = hashlib.sha256(",".join(map(str, perm.images.tolist())).encode())
    digest.update(json.dumps(cert.to_json_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def test_pairing_golden_matches_entry_for_entry():
    # recorded before the used-index set, the reuse loop and the gap-profile
    # span were removed from the pairing layer
    want = json.loads(GOLDEN_PATH.read_text())
    got = {key: _golden_value(outcome) for key, _, outcome in _golden_runs()}
    assert len(got) == len(want) == 720
    assert [k for k in want if got[k] != want[k]] == []
    assert any(v.startswith("SpacingUnsatisfiable") for v in got.values() if isinstance(v, str))


def test_pairing_picks_increase_and_keep_spacing():
    # disjointness needs no bookkeeping: n_u >= gap * (previous n_v) with
    # gap >= 2 puts every pick past all earlier indices
    builds = [(seq, out) for _, seq, out in _golden_runs() if isinstance(out, tuple)]
    assert len(builds) > 100
    for seq, (perm, cert) in builds:
        images = perm.images[:cert.certified_slots].tolist()
        assert all(x < y for x, y in zip(images, images[1:]))
        pairs = cert.all_pairs
        for (_, prev_v), (u, _) in zip(pairs, pairs[1:]):
            assert seq.term(u) >= cert.gap_ratio * seq.term(prev_v)
        assert verify_certificate(perm, seq, cert) == (True, None)


def test_witness_groups_built_at_most_twice(monkeypatch):
    calls = []  # the min_pairs of each _witness_groups call
    real = permute._witness_groups

    def counted(*args, **kwargs):
        calls.append(kwargs.get("min_pairs", 1))
        return real(*args, **kwargs)

    monkeypatch.setattr(permute, "_witness_groups", counted)
    build_pairing_counterexample(gen_power(2, -1, 2000), 1, 2,
                                 BlockSchedule.geometric_dominant(4), gap_ratio=8)
    assert calls == [2]  # success: the pruned groups only
    calls.clear()
    with pytest.raises(InsufficientWitnesses, match="^block 1 needs 2 "):
        build_pairing_counterexample(gen_power(2, 0, 40), 1, 2, BlockSchedule([4]))
    assert calls == [2, 1]  # the unpruned groups once, for the failure report
    calls.clear()
    with pytest.raises(InsufficientWitnesses, match="^no witness pairs"):
        build_pairing_counterexample(gen_power(2, 0, 1), 1, 2, BlockSchedule([2]))
    assert calls == [1, 1]


# ---------------- witness groups: closed form on power forms ----------------

# (1, -4), (3, 4), (1, 6) on 2^k and (4, 9) on 3^k have two families
# d != d' with one m, so their groups hold pairs of two spans
WITNESS_COEFFS = [(1, 2), (2, 1), (1, 3), (1, -4), (3, 4), (1, 6), (4, 9), (-1, 2)]


@pytest.mark.parametrize("base,offset", [(2, 0), (2, -1), (3, -1)])
def test_power_witness_groups_match_scan(base, offset):
    seq = gen_power(base, offset, 120)
    # no power form: the scan
    plain = IntegerSequence(list(seq.terms), {"kind": "external", "path": "copy"})
    mixed = 0
    for a, b in WITNESS_COEFFS:
        for max_span in (None, 1, 3, 119):
            span = _span_bound(seq, a, b) if max_span is None else max_span
            for allow_zero_c in (False, True):
                for head in (40, 256):
                    scan = _witness_groups(plain, a, b, allow_zero_c=allow_zero_c,
                                           max_span=span, head=head)
                    for min_pairs in (1, 2, 3):
                        got = _witness_groups(seq, a, b, allow_zero_c=allow_zero_c,
                                              max_span=max_span, head=head,
                                              min_pairs=min_pairs)
                        want = [(k, p) for k, p in scan.items() if len(p) >= min_pairs]
                        assert list(got.items()) == want, (a, b, max_span, head, min_pairs)
                        mixed += any(len({v - u for u, v in p}) > 1 for p in got.values())
    assert mixed  # groups that merge two families were compared


def test_witness_work_on_the_pairing_input(monkeypatch):
    # the pairing-mixture input: pow2m1:11000, a = 1, b = 2, blocks of 4..4096
    # slots, so no group under 2 pairs can fill a block
    seq = gen_power(2, -1, 11000)
    schedule = BlockSchedule.geometric_dominant(6, factor=4, base_len=4)
    groups = _witness_groups(seq, 1, 2, allow_zero_c=False, max_span=None,
                             min_pairs=min(schedule.lengths) // 2)
    assert list(groups) == [(1, 1, False)]  # c = 1 alone: family v = u + 1
    assert groups[(1, 1, False)] == [(u, u + 1) for u in range(1, 11000)]

    def no_scan(*args):
        raise AssertionError("power form fell back to the per-pair scan")

    monkeypatch.setattr(permute, "_scan_groups", no_scan)
    perm, cert = build_pairing_counterexample(seq, 1, 2, schedule, gap_ratio=8)
    assert cert.constants() == [1] * 6
    assert verify_certificate(perm, seq, cert) == (True, None)


# ---------------- signs on exponents ----------------

class RecordingBase(int):
    """An int base that records every exponent it is raised to."""

    def __new__(cls, value, exponents):
        self = super().__new__(cls, value)
        self.exponents = exponents
        return self

    def __pow__(self, e):
        self.exponents.append(e)
        return int(self) ** e


def check_power_sign(q, A, x, B, y, R):
    exponents = []
    got = _power_sign(RecordingBase(q, exponents), A, x, B, y, R)
    value = A * q**x + B * q**y - R
    assert got == (value > 0) - (value < 0), (q, A, x, B, y, R)
    # q**e is formed only below bitlen(R) + bitlen(coefficient of the smaller exponent) + 3
    low = B if x >= y else A
    assert all(e < R.bit_length() + low.bit_length() + 3 for e in exponents), (q, A, x, B, y, R)


def test_power_sign_matches_big_ints():
    rng = random.Random(20260810)
    span = range(-9, 10)
    for q in (2, 3, 5, 10):
        for A in span:
            for B in span:
                for _ in range(10):
                    x, y = rng.randrange(41), rng.randrange(41)
                    for x, y in ((x, y), (y, x)):
                        value = A * q**x + B * q**y
                        for R in (value, value + 1, value - 1, -value, rng.randrange(-999, 1000)):
                            check_power_sign(q, A, x, B, y, R)


def test_power_sign_matches_big_ints_at_large_exponents():
    rng = random.Random(7)
    for _ in range(2000):
        q = rng.choice((2, 3, 5, 10))
        A, B = rng.randrange(-9, 10), rng.randrange(-9, 10)
        x, y = rng.randrange(3001), rng.randrange(3001)
        value = A * q**x + B * q**y
        for R in (value + rng.randrange(-2, 3), rng.randrange(-999, 1000),
                  rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 8000))):
            check_power_sign(q, A, x, B, y, R)


# ---------------- verification catches mutations ----------------

POW2M1 = gen_power(2, -1, 64)


def verdict(perm, cert, seq=POW2M1):
    """verify_certificate on a power form, on exponents and on its listed
    terms: both paths must give the same (ok, problem), message included."""
    got = verify_certificate(perm, seq, cert)
    # no power form
    listed = IntegerSequence(list(seq.terms), {"kind": "external", "path": "listed"})
    assert verify_certificate(perm, listed, cert) == got
    return got


def build_small():
    sched = BlockSchedule.geometric_dominant(2, factor=4, base_len=4)
    perm, cert = build_pairing_counterexample(POW2M1, 1, 2, sched)
    listed = IntegerSequence(list(POW2M1.terms), {"kind": "external", "path": "listed"})
    assert build_pairing_counterexample(listed, 1, 2, sched)[1] == cert
    return perm, cert


def test_verify_detects_swapped_image():
    perm, cert = build_small()
    images = perm.images.tolist()
    images[0], images[1] = images[1], images[0]
    mutated = PermutationWindow(images)
    assert verdict(mutated, cert) == (False, "slots (1, 2) do not carry pair (1, 2)")


def test_verify_detects_wrong_constant():
    perm, cert = build_small()
    bad = PairingCertificate(
        a=cert.a, b=cert.b, gap_ratio=cert.gap_ratio,
        blocks=[BlockPairing(c=blk.c + 1, pairs=list(blk.pairs)) for blk in cert.blocks],
    )
    assert verdict(perm, bad) == (False, "block 1: a*n_2 - b*n_1 != 2")


def test_verify_detects_reused_index():
    cert = PairingCertificate(
        a=1, b=2, gap_ratio=Fraction(4),
        blocks=[BlockPairing(c=1, pairs=[(1, 2), (1, 2)])],
    )
    perm = PermutationWindow([1, 2] + list(range(3, 65)))
    assert verdict(perm, cert) == (False, "slots (3, 4) do not carry pair (1, 2)")


def test_verify_reports_spacing_after_relation_errors():
    # n_3 = 7 < 4 * n_2 = 12
    close = PairingCertificate(a=1, b=2, gap_ratio=Fraction(4),
                               blocks=[BlockPairing(c=1, pairs=[(1, 2), (3, 4)])])
    assert verdict(identity(64), close) == (
        False, "spacing violated between pairs (1, 2) and (3, 4)")
    # the same spacing fault plus a later wrong relation: the relation is reported
    broken = PairingCertificate(a=1, b=2, gap_ratio=Fraction(4),
                                blocks=[BlockPairing(c=1, pairs=[(1, 2), (3, 4), (5, 7)])])
    perm = PermutationWindow([1, 2, 3, 4, 5, 7, 6] + list(range(8, 65)))
    assert verdict(perm, broken) == (False, "block 1: a*n_7 - b*n_5 != 1")


TIGHT_SPACINGS = [
    # n_5 = 31 = (31/3) * n_2: equality passes, 32/3 asks for 32
    (POW2M1, 1, [(1, 2), (5, 6)], Fraction(31, 3), (True, None)),
    (POW2M1, 1, [(1, 2), (5, 6)], Fraction(32, 3),
     (False, "spacing violated between pairs (1, 2) and (5, 6)")),
    # n_4 = 15 = 5 * n_2 is tight, yet n_7 = 127 < 5 * n_5 at the same exponent gap
    (POW2M1, 1, [(1, 2), (4, 5), (7, 8)], Fraction(5),
     (False, "spacing violated between pairs (4, 5) and (7, 8)")),
    # 2^k: n_4 = 4 * n_2 and n_7 = 4 * n_5, both tight
    (gen_power(2, 0, 64), 0, [(1, 2), (4, 5), (7, 8)], Fraction(4), (True, None)),
]


def test_verify_spacing_exactly_tight():
    for seq, c, pairs, ratio, want in TIGHT_SPACINGS:
        certified = [i for pair in pairs for i in pair]
        perm = PermutationWindow(certified + sorted(set(range(1, 65)) - set(certified)))
        cert = PairingCertificate(a=1, b=2, gap_ratio=ratio,
                                  blocks=[BlockPairing(c=c, pairs=pairs)])
        assert verdict(perm, cert, seq) == want


def test_verify_reports_a_decreasing_pair_whose_relation_holds():
    # n_1 - 2 * n_2 = 1 - 6 = -5 holds, but the pair runs backwards
    cert = PairingCertificate(a=1, b=2, gap_ratio=Fraction(4),
                              blocks=[BlockPairing(c=-5, pairs=[(2, 1)])])
    perm = PermutationWindow([2, 1] + list(range(3, 65)))
    assert verdict(perm, cert) == (False, "certified images not increasing at slot 2")


def test_verify_detects_a_short_window_and_a_pair_past_the_sequence():
    cert = PairingCertificate(a=1, b=2, gap_ratio=Fraction(4),
                              blocks=[BlockPairing(c=1, pairs=[(1, 2), (4, 5)])])
    assert verdict(PermutationWindow([1, 2, 3]), cert) == (
        False, "certificate exceeds window at slot 4")
    past = PairingCertificate(a=1, b=2, gap_ratio=Fraction(4),
                              blocks=[BlockPairing(c=1, pairs=[(1, 2), (64, 65)])])
    perm = PermutationWindow([1, 2, 64, 65] + list(range(3, 64)))
    assert verdict(perm, past) == (False, "pair (64, 65) outside the sequence")


def test_verify_reads_the_terms_not_the_provenance():
    # a certificate on 2^k - 1 against other terms: tagged as power 2, -1 they
    # once passed on exponents; now the tag is refused without its lazy terms
    perm, cert = build_pairing_counterexample(POW2M1, 1, 2, BlockSchedule([4, 8]), gap_ratio=8)
    terms = sorted({t + k % 3 for k, t in enumerate(POW2M1.prefix(64))})[:64]
    with pytest.raises(ValueError, match="lazy terms"):
        IntegerSequence(terms, {"kind": "power", "base": 2, "offset": -1})
    other = IntegerSequence(terms, {"kind": "external", "path": "other"})
    assert verify_certificate(perm, other, cert) == (False, "block 1: a*n_2 - b*n_1 != 1")


@pytest.mark.parametrize("a, b, ratio, message", [
    # n_2 - 2 n_1 = n_4 - 2 n_3 = n_6 - 2 n_5 = 1 holds, but adjacent pairs
    # are spaced by 7/3 and 31/15, below the floor 4 the proof needs
    (1, 2, Fraction(0), "gap_ratio 0 below the floor 2*max(|a|,|b|) = 4"),
    (1, 2, Fraction(7, 2), "gap_ratio 7/2 below the floor 2*max(|a|,|b|) = 4"),
    # 0 * n_v - 0 * n_u = 0 holds for every pair
    (0, 0, Fraction(0), "coefficients must be nonzero"),
    (1, 0, Fraction(4), "coefficients must be nonzero"),
])
def test_verify_refuses_what_the_build_refuses(a, b, ratio, message):
    pairs = [(1, 2), (3, 4), (5, 6)]
    c = 0 if a == 0 or b == 0 else a * POW2M1.term(2) - b * POW2M1.term(1)
    cert = PairingCertificate(a=a, b=b, gap_ratio=ratio,
                              blocks=[BlockPairing(c=c, pairs=pairs)])
    assert verdict(identity(64), cert) == (False, message)
    with pytest.raises(ValueError,
                       match=re.escape(f"certificate invalid for (seq, perm): {message}")):
        spectra.mixture_profile(spectra.TrigPolynomial(cos_coeffs={1: 1}), POW2M1,
                                identity(64), cert)
    if a and b:
        with pytest.raises(ValueError, match=re.escape(message)):
            build_pairing_counterexample(POW2M1, a, b, BlockSchedule([6]), gap_ratio=ratio)


def test_spacing_threshold_matches_big_ints():
    # past bitlen((num - den) o) the power-form test is one gap threshold;
    # below it, _power_sign; both against den n_u >= num n_w on the terms
    for q in (2, 3, 5, 10):
        for o in (0, -1):
            seq = gen_power(q, o, 70)
            for ratio in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2),
                          Fraction(4), Fraction(31, 3), Fraction(q**3), Fraction(2**40 + 1)):
                spaced = permute._spacing_test(seq, ratio)
                num, den = ratio.numerator, ratio.denominator
                got = [spaced(u, w) for u in range(1, 71) for w in range(1, 71)]
                want = [den * (q**u + o) >= num * (q**w + o)
                        for u in range(1, 71) for w in range(1, 71)]
                assert got == want, (q, o, ratio)


def test_a_equals_b_flagged_experimental():
    seq = IntegerSequence([3, 4, 7, 8, 30, 31, 90, 91], {"kind": "external", "path": "crafted"})
    # a = b = 1: n_v - n_u = 1 realized by (3,4), (7,8), (30,31), (90,91)
    with pytest.warns(UserWarning):
        perm, cert = build_pairing_counterexample(
            seq, 1, 1, BlockSchedule([4])
        )
    ok, problem = verify_certificate(perm, seq, cert)
    assert ok, problem
