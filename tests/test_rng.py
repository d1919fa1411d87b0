import hashlib
import math

import pytest

from lacunaria.rng import CounterRng, derive_seed


def test_same_index_same_value():
    rng = CounterRng(12345, "x")
    assert rng.bits(0, 64) == rng.bits(0, 64)
    assert rng.bits(7, 4096) == rng.bits(7, 4096)


def test_order_independence():
    rng = CounterRng(99, "s")
    forward = [rng.below(i, 1000) for i in range(50)]
    backward = [rng.below(i, 1000) for i in reversed(range(50))]
    assert forward == list(reversed(backward))


def test_distinct_seeds_distinct_streams():
    a = CounterRng(1, "x")
    b = CounterRng(2, "x")
    draws_a = {a.bits(i, 64) for i in range(10000)}
    draws_b = {b.bits(i, 64) for i in range(10000)}
    assert not draws_a & draws_b  # 64-bit collision would be ~1e-12 likely


def test_distinct_streams_same_seed():
    a = CounterRng(5, "x")
    b = CounterRng(5, "perm")
    assert a.bits(0, 256) != b.bits(0, 256)


def test_below_bounds_and_uniformity():
    rng = CounterRng(2024, "u")
    n = 20000
    draws = [rng.below(i, 6) for i in range(n)]
    assert all(0 <= d < 6 for d in draws)
    counts = [draws.count(v) for v in range(6)]
    # chi-square with 5 dof, 99.9% quantile ~ 20.5
    expected = n / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 25.0


def test_bits_mean_matches_uniform():
    rng = CounterRng(7, "m")
    n = 10000
    total = sum(rng.bits(i, 64) for i in range(n))
    mean = total / n / 2**64
    # sd of the mean is 1/sqrt(12 n)
    assert abs(mean - 0.5) < 4 / math.sqrt(12 * n)


def test_between_inclusive():
    rng = CounterRng(3, "b")
    draws = [rng.between(i, 10, 12) for i in range(300)]
    assert set(draws) == {10, 11, 12}


def test_bits_width():
    rng = CounterRng(11, "w")
    for nbits in (1, 63, 64, 65, 511, 512, 513, 4096):
        v = rng.bits(0, nbits)
        assert 0 <= v < (1 << nbits)


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(42, "seq") == derive_seed(42, "seq")
    assert derive_seed(42, "seq") != derive_seed(42, "perm")
    assert derive_seed(42, "seq") != derive_seed(43, "seq")


# Pinned outputs: every sequence, permutation and Monte Carlo point a run
# draws comes from these streams, so no bit of them may change.
PINNED_BITS = {
    64: "6e1288b18057d5e5b5d5afbc36558683136e36cd9dbe4ced56f5fa0d9ebcbe36",
    512: "14b126dd8a74a55795a87d87f8c61e274a7867455f1a36e358d4c43e020f84e4",
    513: "5888e8b1ec28b380c1d77db90ef85158a8804ebf19cc7865be9bda25743fbd49",
    4160: "3ad1b49b972ea416485c9f77886af03e18695754342a6f9ce07fe264e35ec815",
}

# Bounds just above a power of two reject about half the draws; 2^512 + 1 and
# 3 * 2^1000 + 7 need two blocks per attempt.
PINNED_BELOW = {
    3: "10f66537e41d459a72ded04a12088765d7be2df610382144bd56222a74adeb76",
    1000: "779b5cf772ed07592fbb0b52fcb5e3d78e78644310d85385413d7e3cf7900433",
    2**64 + 1: "11f6fae0617f5681a9b013de3a581289d97baa26d226f8f74bb0478b56f2e74d",
    2**512 + 1: "82feaeaa9b5449eed4777fc35654f647f74126cf6a1f82018b1df57f87f751a9",
    3 * 2**1000 + 7: "9c36383a01eba03bfdaec6affe1f7939665dc05aec54e295d250055aea201211",
}


@pytest.mark.parametrize("nbits", sorted(PINNED_BITS))
def test_bits_pinned(nbits):
    rng = CounterRng(20260810, "pin")
    h = hashlib.sha256()
    for i in range(256):
        h.update(rng.bits(i, nbits).to_bytes((nbits + 7) // 8, "big"))
    assert h.hexdigest() == PINNED_BITS[nbits]


@pytest.mark.parametrize("bound", sorted(PINNED_BELOW))
def test_below_pinned(bound):
    rng = CounterRng(20260810, "pin")
    h = hashlib.sha256()
    for i in range(256):
        h.update(b"%d\n" % rng.below(i, bound))
    assert h.hexdigest() == PINNED_BELOW[bound]


def test_derive_seed_pinned():
    assert [derive_seed(s, label) for s, label in
            ((0, ""), (42, "seq"), (20260810, "perm"), (2**64 + 5, "x"))] == [
        14100770264707963708, 4895481446661332344, 2408276371301641226, 7250972974252380649]
