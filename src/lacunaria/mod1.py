"""Exact fixed-point mod-1 arithmetic on a dyadic grid.

A grid point x is a :class:`FixedPointSample`, a B-bit mantissa m with
x = m / 2^B and B >= 64; the point checks that when it is made, and the
kernels take it as it is.  For sequence terms n_k and polynomial
frequencies j, the quantity {j * n_k * x} is exact on the grid: its
numerator is j * n_k * m mod 2^B.  Evaluation only ever consumes the top
64 bits of that numerator.  The sequence and the frequencies pick
one of two kernels, and either takes any width B per call:

* ``pow2-window`` -- terms 2^k + offset with offset in {0, -1} and power-of-
  two frequencies: the product m << k is a pure bit shift, so the top bits
  are 64-bit windows of the mantissa at bit offset k.  The mantissa, scaled
  to whole 64-bit words and at least 192 bits, is read once per sample as
  big-endian words; each window is two gathered words joined by shifts.
  Offset -1 adds a fixed addend whose carry into the window is decided by
  one vectorized comparison of the window at k + 128 (exact; rare ties fall
  back to big-integer comparison).
* a row loop -- y_k = n_k * m mod 2^B one index at a time: power forms
  base^k + offset (``power-chain``) march z_k = base^k * m over the needed
  indices by exact small multiplications; any other sequence (``generic``)
  takes one full multiplication per term.

All kernels produce bit-identical uint64 arrays; tests cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1


def required_bits(max_term: int, max_freq: int) -> int:
    """Smallest admissible mantissa width: bits(max_freq * max_term) + 64,
    rounded up to a multiple of 64.

    No kernel needs the rounding; it stays because it fixes the grid that
    every recorded sample was drawn from."""
    raw = (max_freq * max_term).bit_length() + 64
    return (raw + 63) // 64 * 64


def _window64(words: np.ndarray, w: np.ndarray, r: np.ndarray,
              rc: np.ndarray) -> np.ndarray:
    """64-bit windows of a big-endian word array at bit offsets t = 64 w + r.

    ``words[i]`` holds bits 64 i .. 64 i + 63 of the buffer, most significant
    first, so the window at t is ``words[w]`` shifted up by r joined with
    ``words[w + 1]`` shifted down by 64 - r.  The down shift is done as
    ``>> 1`` then ``>> rc`` with rc = 63 - r, so no shift count reaches 64
    at r = 0 (undefined in C, whatever numpy does with it).  Pass
    ``words[j:]`` to read the window at t + 64 j.

    The highest word read is (t >> 6) + 1.  The engine reads windows up to
    t = k_max + 128 (the carry compare), and zero-pads the mantissa's words
    through ((k_max + 128) >> 6) + 1, so every read stays in the buffer and
    bits past the mantissa read as zero.
    """
    out = words[w]
    out <<= r
    low = words[1:][w]
    low >>= np.uint64(1)
    low >>= rc
    out |= low
    return out


def _offset_buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialized w, r and rc buffers of n rows for :func:`_window_offsets`."""
    return np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.uint64)


def _window_offsets(ks: np.ndarray, w: np.ndarray, r: np.ndarray,
                    rc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`_window64` offsets of bit positions ks, written into the
    buffers of :func:`_offset_buffers`: w = ks >> 6, r = ks & 63 (returned
    as a uint64 view of its int64 buffer) and rc = 63 - r."""
    np.right_shift(ks, 6, out=w)
    np.bitwise_and(ks, 63, out=r)
    r = r.view(np.uint64)
    np.subtract(np.uint64(63), r, out=rc)
    return w, r, rc


@dataclass(frozen=True)
class FixedPointSample:
    """A grid point x = mantissa / 2^bits in [0, 1), with bits >= 64."""

    mantissa: int
    bits: int

    def __post_init__(self):
        if self.bits < 64:
            raise ValueError("need at least 64 bits")
        if not 0 <= self.mantissa < (1 << self.bits):
            raise ValueError("mantissa outside [0, 2^bits)")


class FracTopEngine:
    """Top-64-bit fractional parts {j * n_k * x} for a fixed index/frequency set.

    ``seq`` is the :class:`~lacunaria.seqgen.IntegerSequence`; its power form
    and ``freqs`` pick the kernel.  ``indices`` are the 1-based sequence
    indices actually needed, sorted, unique and not empty, as a list or an
    int64 array (kept without a copy); ``freqs`` the polynomial frequencies.
    ``tops(x)`` returns a (len(indices), len(freqs)) uint64 array for the
    :class:`FixedPointSample` x; ``tops_blocks`` yields the same rows in
    consecutive blocks.

    The pow2-window kernel reads each row at a bit offset.  ``tops`` keeps
    the offsets of every row from its first call on (three arrays of 8
    bytes per row); ``tops_blocks`` holds those of one block at a time, so
    an engine that only streams keeps no array per row but its indices.
    """

    def __init__(self, seq, indices, freqs: list[int]):
        ks = np.asarray(indices, dtype=np.int64)
        if not len(ks):
            raise ValueError("need at least one index")
        if np.any(ks[1:] <= ks[:-1]):
            raise ValueError("indices must be sorted and unique")
        if not freqs or any(j < 1 for j in freqs):
            raise ValueError("frequencies must be positive")
        self.seq = seq
        self.indices = ks
        self.freqs = list(freqs)
        self.power_form = seq.power_form()

        if (
            self.power_form in ((2, 0), (2, -1))
            and all(j & (j - 1) == 0 and j < (1 << 63) for j in freqs)
        ):
            self.strategy = "pow2-window"
            self._offsets = None  # the window offsets of every row, once tops builds them
            self._shifts = [j.bit_length() - 1 for j in self.freqs]
            # the last word _window64 reads; zero padding reaches it
            self._top_word = ((int(ks[-1]) + 128) >> 6) + 1
        elif self.power_form is not None:
            self.strategy = "power-chain"
            # base^(k - prev) <= n_k + 1, so the exact steps stay as small
            # as the terms and serve every mantissa width
            base, k_list = self.power_form[0], ks.tolist()
            self._steps = [base ** (k - prev) for k, prev in zip(k_list, [0] + k_list[:-1])]
        else:
            self.strategy = "generic"

    # -- kernels -------------------------------------------------------

    def tops(self, x: FixedPointSample) -> np.ndarray:
        if self.strategy == "pow2-window":
            # a Monte Carlo run calls this once per sample on the same rows,
            # so the first call builds their window offsets and keeps them
            if self._offsets is None:
                self._offsets = _window_offsets(self.indices, *_offset_buffers(len(self.indices)))
            return self._tops_window(*self._words(x.mantissa, x.bits), *self._offsets)
        return next(self._row_blocks(x.mantissa, x.bits, len(self.indices)))

    def tops_blocks(self, x: FixedPointSample, block: int):
        """Yield the rows of ``tops(x)`` in consecutive blocks of ``block``
        rows (the last may be shorter), each a fresh array equal to that
        slice of ``tops``; no array spans all the rows.

        The pow2-window kernel derives each block's window offsets from its
        indices into three buffers of one block, made once per call:
        fresh offset arrays per block cost more in allocation than they
        save.  Each call has its own buffers, so calls may interleave."""
        n = len(self.indices)
        if self.strategy == "pow2-window":
            words = self._words(x.mantissa, x.bits)
            buffers = _offset_buffers(min(block, n))
            for lo in range(0, n, block):
                ks = self.indices[lo:lo + block]
                offsets = _window_offsets(ks, *(buf[:len(ks)] for buf in buffers))
                yield self._tops_window(*words, *offsets, lo)
        else:
            yield from self._row_blocks(x.mantissa, x.bits, block)

    def _words(self, m: int, bits: int) -> tuple[np.ndarray, int, int]:
        """(words, B, m 2^(B - bits)): the mantissa scaled to B bits and
        zero-padded through the last word ``_window64`` reads."""
        # m 2^s on B = bits + s bits has the same tops, since
        # (n m 2^s mod 2^(bits + s)) >> (B - 64) = (n m mod 2^bits) >> (bits - 64);
        # B is whole words and leaves room for the carry compare at B - 192
        B = max(192, -(-bits // 64) * 64)
        m <<= B - bits
        raw = m.to_bytes(B // 8, "big") + bytes(max(0, 8 * (self._top_word + 1) - B // 8))
        return np.frombuffer(raw, dtype=">u8").astype(np.uint64), B, m

    def _tops_window(self, words: np.ndarray, B: int, m: int, w: np.ndarray,
                     r: np.ndarray, rc: np.ndarray, lo: int = 0) -> np.ndarray:
        """Tops of rows lo, lo + 1, ... from the words of m on B bits; w, r
        and rc are the window offsets of those rows (:func:`_window_offsets`)."""
        shifts = self._shifts
        offset = self.power_form[1]
        carry_in = offset != 0 and m != 0
        a_hi = _window64(words, w, r, rc)
        # the next 64 bits feed only shifted columns and the carry
        a_lo = _window64(words[1:], w, r, rc) if carry_in or any(shifts) else None

        if not carry_in:
            s_hi, s_lo = a_hi, a_lo
        else:
            c = (1 << B) - m  # addend for offset -1: (2^B - m) mod 2^B, m != 0
            c_hi = np.uint64((c >> (B - 64)) & MASK64)
            c_lo = np.uint64((c >> (B - 128)) & MASK64)
            lowc = c & ((1 << (B - 128)) - 1)
            if lowc == 0:
                carry = np.zeros(len(w), dtype=np.uint64)
            else:
                threshold = (1 << (B - 128)) - lowc
                t64 = np.uint64(threshold >> (B - 192))
                x64 = _window64(words[2:], w, r, rc)
                carry = (x64 > t64).astype(np.uint64)
                ties = np.nonzero(x64 == t64)[0]
                if len(ties):
                    low_mask = (1 << (B - 128)) - 1
                    for i in ties:
                        x_exact = (m << int(self.indices[lo + i])) & low_mask
                        carry[i] = np.uint64(1 if x_exact >= threshold else 0)
            t = a_lo + c_lo
            c1 = t < a_lo
            s_lo = t + carry
            c2 = s_lo < t
            s_hi = a_hi + c_hi + (c1 | c2).astype(np.uint64)

        if shifts == [0]:
            return s_hi[:, None]
        out = np.empty((len(w), len(shifts)), dtype=np.uint64)
        for col, sh in enumerate(shifts):
            if sh == 0:
                out[:, col] = s_hi
            else:
                out[:, col] = (s_hi << np.uint64(sh)) | (s_lo >> np.uint64(64 - sh))
        return out

    def _row_blocks(self, m: int, bits: int, block: int):
        """Tops in blocks of rows, one row at a time from y_k = n_k m mod 2^bits:
        a power form marches y_k along its chain, any other sequence
        multiplies each term."""
        mask = (1 << bits) - 1
        if self.strategy == "power-chain":
            addend = (self.power_form[1] * m) & mask
            ys = self._chain(m, mask, addend)
        else:
            terms = self.seq.terms
            ys = ((terms[k - 1] * m) & mask for k in self.indices.tolist())
        shift_top = bits - 64
        freqs = self.freqs
        pow2_shift = [j.bit_length() - 1 if j & (j - 1) == 0 else None for j in freqs]
        n = len(self.indices)
        for lo in range(0, n, block):
            out = np.empty((min(block, n - lo), len(freqs)), dtype=np.uint64)
            # range first: zip stops before it draws a y past the block
            for row, y in zip(range(len(out)), ys):
                for col, j in enumerate(freqs):
                    sh = pow2_shift[col]
                    if sh is not None and sh <= shift_top:
                        out[row, col] = (y >> (shift_top - sh)) & MASK64
                    else:
                        out[row, col] = ((j * y) & mask) >> shift_top
            yield out

    def _chain(self, m: int, mask: int, addend: int):
        z = m
        for step in self._steps:
            z = (z * step) & mask
            yield (z + addend) & mask
