"""Cross-checks of the fractional-part kernels against direct bigints."""

import numpy as np
import pytest

from lacunaria.mod1 import FixedPointSample, FracTopEngine, required_bits
from lacunaria.rng import CounterRng
from lacunaria.seqgen import IntegerSequence, gen_geometric, gen_power


def reference_tops(terms, indices, freqs, bits, mantissa):
    """Independent path: one full big-integer product per (index, frequency)."""
    mask = (1 << bits) - 1
    out = np.empty((len(indices), len(freqs)), dtype=np.uint64)
    for r, k in enumerate(indices):
        for c, j in enumerate(freqs):
            out[r, c] = ((j * terms[k - 1] * mantissa) & mask) >> (bits - 64)
    return out


def test_required_bits_guard():
    assert required_bits(2**100, 2) >= 102 + 64
    assert required_bits(2**100, 2) % 64 == 0


@pytest.mark.parametrize("offset", [0, -1])
def test_window_strategy_matches_reference(offset):
    seq = gen_power(2, offset, 100)
    indices = list(range(1, 101, 3)) + [100]
    indices = sorted(set(indices))
    freqs = [1, 2, 4]
    bits = required_bits(seq.term(100), 4)
    eng = FracTopEngine(seq, indices, freqs)
    assert eng.strategy == "pow2-window"
    rng = CounterRng(7, "x")
    for i in range(25):
        m = rng.bits(i, bits)
        got = eng.tops(FixedPointSample(m, bits))
        want = reference_tops(seq.terms, indices, freqs, bits, m)
        assert np.array_equal(got, want), f"offset={offset}, sample {i}"


@pytest.mark.parametrize("offset", [0, -1])
@pytest.mark.parametrize("freqs", [[1], [2], [1, 2], [1, 4, 8]])
def test_window_word_boundaries_and_largest_index(offset, freqs):
    # freqs [1] is the single-column path; k = 0 mod 64 gives a zero
    # in-word shift; the largest admissible index puts the carry-compare
    # window deepest into the zero padding
    bits = 320
    top = max(freqs)
    k_max = max(k for k in range(1, bits) if required_bits(2**k + offset, top) <= bits)
    seq = gen_power(2, offset, k_max)
    indices = sorted({1, 63, 64, 65, 127, 128, 129, 191, 192, 255} & set(range(1, k_max))
                     | {k_max})
    assert required_bits(seq.term(k_max), top) == bits
    eng = FracTopEngine(seq, indices, freqs)
    assert eng.strategy == "pow2-window"
    rng = CounterRng(9, "x")
    patterns = [0, 1, (1 << bits) - 1, int("10" * (bits // 2), 2)]
    for m in [rng.bits(i, bits) for i in range(20)] + patterns:
        assert np.array_equal(eng.tops(FixedPointSample(m, bits)),
                              reference_tops(seq.terms, indices, freqs, bits, m)), f"m={m:#x}"


@pytest.mark.parametrize("offset", [0, -1])
@pytest.mark.parametrize("freqs", [[1], [1, 4]])
@pytest.mark.parametrize("bits", [128, 129, 150, 191, 192, 203, 257, 330])
def test_window_any_admissible_width(bits, offset, freqs):
    # below 192 bits and off whole words the kernel reads m 2^s on wider
    # words; 129..191 with offset -1 runs the carry compare on the scaled
    # mantissa; k_max is the largest index admissible at this width
    top = max(freqs)
    k_max = max(k for k in range(1, bits) if (top * (2**k + offset)).bit_length() + 64 <= bits)
    seq = gen_power(2, offset, k_max)
    indices = sorted({1, 2, 63, 64, 65, 127, 128, 200} & set(range(1, k_max)) | {k_max})
    eng = FracTopEngine(seq, indices, freqs)
    assert eng.strategy == "pow2-window"
    rng = CounterRng(15, "x")
    patterns = [0, 1, (1 << bits) - 1, 1 << (bits - 1)]
    for m in [rng.bits(i, bits) for i in range(20)] + patterns:
        assert np.array_equal(eng.tops(FixedPointSample(m, bits)),
                              reference_tops(seq.terms, indices, freqs, bits, m)), f"m={m:#x}"


@pytest.mark.parametrize("mantissa, bits, message", [
    (0, 63, "need at least 64 bits"),
    (-1, 64, "mantissa outside"),
    (1 << 64, 64, "mantissa outside"),
])
def test_grid_point_refuses_narrow_widths_and_outside_mantissas(mantissa, bits, message):
    with pytest.raises(ValueError, match=message):
        FixedPointSample(mantissa, bits)


def test_engine_rejects_empty_indices():
    with pytest.raises(ValueError, match="at least one index"):
        FracTopEngine(gen_power(2, 0, 10), [], [1])


def test_window_long_index_set():
    # over 2^17 indices; one big-integer reference product per row is too
    # slow for all of them, so rows spread over the set (and around 2^17)
    # are checked
    n = (1 << 17) + 64
    seq = gen_power(2, -1, n)
    indices = list(range(1, n + 1))
    bits = required_bits(seq.term(n), 2)
    eng = FracTopEngine(seq, indices, [1, 2])
    assert eng.strategy == "pow2-window"
    rows = sorted(set(range(0, n, 8191)) | set(range((1 << 17) - 2, (1 << 17) + 2)) | {n - 1})
    rng = CounterRng(10, "x")
    for i in range(2):
        m = rng.bits(i, bits)
        got = eng.tops(FixedPointSample(m, bits))
        want = reference_tops(seq.terms, [indices[r] for r in rows], [1, 2], bits, m)
        assert np.array_equal(got[rows], want), f"sample {i}"


def _carry_tie_patterns(bits):
    return [
        0,
        (1 << bits) - 1,                      # all ones
        int("10" * (bits // 2), 2),           # alternating
        ((1 << 64) - 1) << (bits - 64),       # ones only at the top
        1,                                    # ones only at the bottom
        (1 << (bits - 1)) | 1,
    ]


def test_window_strategy_carry_ties():
    # craft mantissas whose compare-window ties force the exact fallback:
    # with offset -1 the threshold depends on m itself, so build m from a
    # repeating pattern making many 64-bit windows coincide
    seq = gen_power(2, -1, 150)
    indices = list(range(1, 151))
    freqs = [1, 2]
    bits = required_bits(seq.term(150), 2)
    eng = FracTopEngine(seq, indices, freqs)
    assert eng.strategy == "pow2-window"
    for m in _carry_tie_patterns(bits):
        got = eng.tops(FixedPointSample(m, bits))
        want = reference_tops(seq.terms, indices, freqs, bits, m)
        assert np.array_equal(got, want), f"pattern {m:#x}"


@pytest.mark.parametrize("strategy", ["pow2-window", "power-chain", "generic"])
def test_tops_same_from_list_and_int64_array(strategy):
    # the evaluator hands over its int64 index array; the engine keeps it
    # as is and gives the same tops as from a list, carry ties included
    seq = gen_power(2, -1, 150)
    indices = list(range(1, 151))
    freqs = [1, 2] if strategy == "pow2-window" else [1, 3]
    bits = required_bits(seq.term(150), max(freqs))
    if strategy == "generic":
        seq = IntegerSequence(list(seq.terms), {"kind": "external", "path": "2^k - 1"})
    arr = np.array(indices, dtype=np.int64)
    from_list = FracTopEngine(seq, indices, freqs)
    from_array = FracTopEngine(seq, arr, freqs)
    assert from_list.strategy == from_array.strategy == strategy
    assert from_array.indices is arr
    rng = CounterRng(14, "x")
    for m in [rng.bits(i, bits) for i in range(5)] + _carry_tie_patterns(bits):
        want = reference_tops(seq.terms, indices, freqs, bits, m)
        assert np.array_equal(from_list.tops(FixedPointSample(m, bits)), want), f"m={m:#x}"
        assert np.array_equal(from_array.tops(FixedPointSample(m, bits)), want), f"m={m:#x}"


@pytest.mark.parametrize("strategy", ["pow2-window", "power-chain", "generic"])
@pytest.mark.parametrize("block", [1, 7, 64, 150, 1000])
def test_tops_blocks_concatenate_to_tops(strategy, block):
    # rows in blocks, carry ties included: a tie's exact fallback reads the
    # index of its row in the whole set, not in its block.  At m = 2^63 the
    # rows past index 128 tie, their carry is 0, and it reaches the top
    # bits; an index read from the block's own row number would give 1.
    seq = gen_power(2, -1, 150)
    indices = list(range(1, 151))
    freqs = [1, 2] if strategy == "pow2-window" else [1, 3]
    bits = required_bits(seq.term(150), max(freqs))
    if strategy == "generic":
        seq = IntegerSequence(list(seq.terms), {"kind": "external", "path": "2^k - 1"})
    eng = FracTopEngine(seq, indices, freqs)
    assert eng.strategy == strategy
    rng = CounterRng(15, "x")
    for m in [rng.bits(i, bits) for i in range(3)] + _carry_tie_patterns(bits) + [1 << 63]:
        blocks = list(eng.tops_blocks(FixedPointSample(m, bits), block))
        assert [len(b) for b in blocks] == [min(block, 150 - lo) for lo in range(0, 150, block)]
        want = reference_tops(seq.terms, indices, freqs, bits, m)
        assert np.array_equal(eng.tops(FixedPointSample(m, bits)), want), f"m={m:#x}"
        assert np.array_equal(np.concatenate(blocks), want), f"m={m:#x}"


def _pow2_window_engine(offset, n=300):
    """(engine, bits, reference): frequencies 1 and 2 over indices 1..n, whose
    largest crosses several words, and the reference tops of a mantissa."""
    seq = gen_power(2, offset, n)
    indices = list(range(1, n + 1))
    bits = required_bits(seq.term(n), 2)
    eng = FracTopEngine(seq, indices, [1, 2])
    assert eng.strategy == "pow2-window"
    return eng, bits, lambda m: reference_tops(seq.terms, indices, [1, 2], bits, m)


@pytest.mark.parametrize("offset", [0, -1])
def test_tops_blocks_generators_interleave(offset):
    # each call streams through its own offset buffers: two calls on one
    # engine, advanced in turn with different block sizes, each give the
    # tops of their own point, and every yielded block stays as it was
    eng, bits, reference = _pow2_window_engine(offset)
    rng = CounterRng(16, "x")
    x, y = (FixedPointSample(rng.bits(i, bits), bits) for i in range(2))
    got_x, got_y = [], []
    for bx, by in zip(eng.tops_blocks(x, 70), eng.tops_blocks(y, 64), strict=True):
        got_x.append(bx)
        got_y.append(by)
    assert [len(b) for b in got_x] == [70, 70, 70, 70, 20]
    assert [len(b) for b in got_y] == [64, 64, 64, 64, 44]
    for point, got in ((x, got_x), (y, got_y)):
        want = reference(point.mantissa)
        assert np.array_equal(np.concatenate(got), want)
        assert np.array_equal(eng.tops(point), want)


@pytest.mark.parametrize("offset", [0, -1])
@pytest.mark.parametrize("tops_first", [True, False])
def test_tops_before_between_and_after_tops_blocks(offset, tops_first):
    # tops keeps the offsets of every row from its first call; streaming
    # neither reads nor disturbs them, whichever of the two runs first
    eng, bits, reference = _pow2_window_engine(offset)
    rng = CounterRng(17, "x")
    points = [FixedPointSample(rng.bits(i, bits), bits) for i in range(3)]
    if tops_first:
        assert np.array_equal(eng.tops(points[2]), reference(points[2].mantissa))
    for x in points:
        want = reference(x.mantissa)
        blocks = eng.tops_blocks(x, 100)
        first = next(blocks)
        assert np.array_equal(eng.tops(x), want)
        assert np.array_equal(np.concatenate([first, *blocks]), want)
        assert np.array_equal(eng.tops(x), want)


@pytest.mark.parametrize("offset", [0, -1])
@pytest.mark.parametrize("block", [37, 100])
def test_tops_blocks_off_word_multiples_with_carry_ties(offset, block):
    # blocks that are no multiple of 64 start mid-word in the window
    # offsets, over indices that span five words; the tie patterns and
    # m = 2^63 send offset -1 rows to the exact fallback
    eng, bits, reference = _pow2_window_engine(offset)
    for m in _carry_tie_patterns(bits) + [1 << 63]:
        blocks = list(eng.tops_blocks(FixedPointSample(m, bits), block))
        assert all(len(b) == block for b in blocks[:-1])
        assert np.array_equal(np.concatenate(blocks), reference(m)), f"m={m:#x}"


def test_chain_strategy_matches_reference():
    # frequency 3 is not a power of two, so even base 2 uses the chain
    for base, offset in ((2, -1), (3, 0), (10, -1)):
        seq = gen_power(base, offset, 60)
        indices = [1, 2, 5, 13, 14, 40, 60]
        freqs = [1, 2, 3]
        bits = required_bits(seq.term(60), 3)
        eng = FracTopEngine(seq, indices, freqs)
        assert eng.strategy == "power-chain"
        rng = CounterRng(3, "x")
        for i in range(10):
            m = rng.bits(i, bits)
            assert np.array_equal(eng.tops(FixedPointSample(m, bits)),
                                  reference_tops(seq.terms, indices, freqs, bits, m))
            m2 = rng.bits(100 + i, bits)
            assert np.array_equal(eng.tops(FixedPointSample(m2, bits)),
                                  reference_tops(seq.terms, indices, freqs, bits, m2))


def test_generic_strategy_matches_reference():
    seq = gen_geometric("3/2", 5, 50)
    indices = [1, 7, 30, 50]
    freqs = [1, 5]
    bits = required_bits(seq.term(50), 5)
    eng = FracTopEngine(seq, indices, freqs)
    assert eng.strategy == "generic"
    rng = CounterRng(11, "x")
    for i in range(10):
        m = rng.bits(i, bits)
        assert np.array_equal(eng.tops(FixedPointSample(m, bits)),
                              reference_tops(list(seq.terms), indices, freqs, bits, m))


def test_strategies_agree_pairwise():
    # same inputs through all three paths
    seq = gen_power(2, -1, 64)
    indices = list(range(1, 65, 2))
    freqs = [1, 2]
    bits = required_bits(seq.term(64), 2)
    window = FracTopEngine(seq, indices, freqs)
    chain = FracTopEngine(seq, indices, freqs)
    chain.strategy = "power-chain"
    chain._steps = [2 ** (k - p) for k, p in zip(indices, [0] + indices[:-1])]
    generic = FracTopEngine(
        IntegerSequence(list(seq.terms), {"kind": "external", "path": "2^k - 1"}),
        indices, freqs)
    assert window.strategy == "pow2-window" and generic.strategy == "generic"
    rng = CounterRng(13, "x")
    for i in range(15):
        x = FixedPointSample(rng.bits(i, bits), bits)
        a, b, c = window.tops(x), chain.tops(x), generic.tops(x)
        assert np.array_equal(a, b) and np.array_equal(b, c)


def test_non_pow2_frequency_falls_back():
    seq = gen_power(2, 0, 30)
    bits = required_bits(seq.term(30), 3)
    eng = FracTopEngine(seq, [1, 5, 30], [1, 3])
    assert eng.strategy == "power-chain"
    m = CounterRng(1, "x").bits(0, bits)
    assert np.array_equal(eng.tops(FixedPointSample(m, bits)),
                          reference_tops(seq.terms, [1, 5, 30], [1, 3], bits, m))
