"""Counter-mode deterministic random generator (blake2b-ctr).

Every draw is a pure function of (seed, stream label, element index), so
streams can be evaluated in any order, from any worker, with identical
results.  The generator is keyed blake2b over a 128-bit element index and a
64-bit block counter; each block yields 512 bits.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1


class CounterRng:
    """Deterministic stream of uniform values keyed by (seed, stream).

    Element ``index`` of the stream is independent of every other element;
    drawing order never matters.
    """

    def __init__(self, seed: int, stream: str = ""):
        self.seed = seed & _MASK64
        self._prefix = stream.encode("utf-8") + b"\x00"
        # Keyed set-up done once; each block hashes on a copy.  A hashlib
        # object does not pickle, so a CounterRng is not sent to workers.
        self._keyed = hashlib.blake2b(key=self.seed.to_bytes(8, "big"), digest_size=64)

    def block(self, index: int, counter: int) -> bytes:
        """64 raw bytes for (index, counter)."""
        h = self._keyed.copy()
        h.update(self._prefix + index.to_bytes(16, "big") + counter.to_bytes(8, "big"))
        return h.digest()

    def bits(self, index: int, nbits: int) -> int:
        """Uniform integer in [0, 2**nbits) for stream element ``index``."""
        if nbits < 1:
            raise ValueError("nbits must be positive")
        nblocks = (nbits + 511) // 512
        raw = b"".join(self.block(index, c) for c in range(nblocks))
        return int.from_bytes(raw, "big") >> (nblocks * 512 - nbits)

    def below(self, index: int, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on ``bound.bit_length()`` bits.

        The rejection loop walks the block counter, so the result is still a
        pure function of (seed, stream, index).
        """
        if bound < 1:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        nbits = bound.bit_length()
        group = (nbits + 511) // 512
        counter = 0
        while True:
            if group == 1:
                raw = self.block(index, counter)
            else:
                raw = b"".join(self.block(index, counter + c) for c in range(group))
            value = int.from_bytes(raw, "big") >> (group * 512 - nbits)
            if value < bound:
                return value
            counter += group

    def between(self, index: int, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.below(index, hi - lo + 1)


def derive_seed(seed: int, label: str) -> int:
    """Derive a 64-bit sub-stream seed from a top-level seed and a label."""
    digest = hashlib.blake2b(
        label.encode("utf-8"), key=(seed & _MASK64).to_bytes(8, "big"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")
