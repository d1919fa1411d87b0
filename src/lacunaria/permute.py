"""Permutations of index windows, including the CLT-breaking pairing builder.

A :class:`PermutationWindow` is a bijection of {1..N}.  The pairing builder
rearranges a window so that slots (2k-1, 2k) carry sequence indices (u, v)
satisfying a*n_v - b*n_u = c_m, block by block; the resulting
:class:`PairingCertificate` is verifiable in exact arithmetic and is what the
variance-mixture computations in :mod:`lacunaria.spectra` consume.
"""

from __future__ import annotations

import bisect
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InsufficientWitnesses, SpacingUnsatisfiable
from .rng import CounterRng
from .seqgen import IntegerSequence

PERM_FILE_HEADER = "# lacunaria-perm v1"


# ----------------------------------------------------------------------
# Permutation windows
# ----------------------------------------------------------------------

@dataclass(eq=False)
class PermutationWindow:
    """images[k-1] = sigma(k); a bijection of {1..N}, checked on construction.

    ``images`` is stored as a read-only int64 array that shares no memory
    with the caller's argument.
    """

    images: np.ndarray

    def __post_init__(self):
        n = len(self.images)
        if n < 1:
            raise ValueError("empty permutation")
        # no forced dtype: floats, and ints past int64 (object), must not
        # be truncated into range
        arr = np.array(self.images)
        if (arr.ndim != 1 or arr.dtype.kind not in "iu"
                or arr.min() < 1 or arr.max() > n):
            raise ValueError("images are not a bijection of {1..N}")
        arr = arr.astype(np.int64, copy=False)
        # n images in 1..n are a bijection when they mark every value, and
        # the marks take 1 byte a slot
        seen = np.zeros(n + 1, dtype=bool)
        seen[arr] = True
        if not seen[1:].all():
            raise ValueError("images are not a bijection of {1..N}")
        arr.flags.writeable = False
        self.images = arr

    def __len__(self) -> int:
        return len(self.images)


def identity(n: int) -> PermutationWindow:
    if n < 1:
        raise ValueError("window length must be positive")
    # 1..n is a bijection by construction: the window keeps this array as
    # it is, with no copy and no mark pass
    images = np.arange(1, n + 1, dtype=np.int64)
    images.flags.writeable = False
    window = object.__new__(PermutationWindow)
    window.images = images
    return window


def random_perm(n: int, seed: int) -> PermutationWindow:
    """Uniform shuffle of {1..N}, deterministic given seed (Fisher-Yates)."""
    if n < 1:
        raise ValueError("window length must be positive")
    rng = CounterRng(seed, "perm")
    images = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.below(i, i + 1)
        images[i], images[j] = images[j], images[i]
    return PermutationWindow(images)


def write_permutation(perm: PermutationWindow, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([PERM_FILE_HEADER, *map(str, perm.images.tolist())]) + "\n")


def read_permutation(path) -> PermutationWindow:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [s for s in map(str.strip, fh) if s and not s.startswith("#")]
    if not lines:
        raise ValueError("empty permutation")
    # a line that is not an int64 raises ValueError
    return PermutationWindow(np.loadtxt(lines, dtype=np.int64, ndmin=1))


# ----------------------------------------------------------------------
# Block schedules
# ----------------------------------------------------------------------

@dataclass
class BlockSchedule:
    """Block lengths |Delta_1| .. |Delta_M|; all even, final block dominant."""

    lengths: list[int]

    def __post_init__(self):
        if not self.lengths:
            raise ValueError("schedule needs at least one block")
        for L in self.lengths:
            if L < 2 or L % 2:
                raise ValueError(f"block length {L} must be even and >= 2")
        if len(self.lengths) > 1 and self.lengths[-1] <= sum(self.lengths[:-1]):
            raise ValueError("final block must dominate the sum of the others")

    @property
    def total_slots(self) -> int:
        return sum(self.lengths)

    @classmethod
    def paper_doubly_exponential(cls, num_blocks: int) -> "BlockSchedule":
        """Lengths 2^(2^m), m = 1..num_blocks; capped at 4 blocks (65536)."""
        if not 1 <= num_blocks <= 4:
            raise ValueError("doubly exponential blocks are capped at 4")
        return cls([2 ** (2**m) for m in range(1, num_blocks + 1)])

    @classmethod
    def geometric_dominant(cls, num_blocks: int, factor: int = 4,
                           base_len: int = 4) -> "BlockSchedule":
        """Even lengths base_len * factor^m; factor >= 4 keeps the last block
        longer than all previous combined, the property the construction needs."""
        if num_blocks < 1:
            raise ValueError("need at least one block")
        if factor < 4:
            raise ValueError("dominance requires factor >= 4")
        if base_len < 2 or base_len % 2:
            raise ValueError("base length must be even and >= 2")
        return cls([base_len * factor**m for m in range(num_blocks)])


# ----------------------------------------------------------------------
# Pairing certificates
# ----------------------------------------------------------------------

@dataclass
class BlockPairing:
    c: int
    pairs: list[tuple[int, int]]  # (odd-slot source u, even-slot source v)


@dataclass
class PairingCertificate:
    a: int
    b: int
    gap_ratio: Fraction
    blocks: list[BlockPairing]

    @property
    def all_pairs(self) -> list[tuple[int, int]]:
        return [p for blk in self.blocks for p in blk.pairs]

    @property
    def certified_slots(self) -> int:
        return 2 * len(self.all_pairs)

    def constants(self) -> list[int]:
        return [blk.c for blk in self.blocks]

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "gap_ratio": str(self.gap_ratio),
            "blocks": [
                {"c": str(blk.c), "pairs": [[u, v] for u, v in blk.pairs]}
                for blk in self.blocks
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PairingCertificate":
        return cls(
            a=int(data["a"]),
            b=int(data["b"]),
            gap_ratio=Fraction(data["gap_ratio"]),
            blocks=[
                BlockPairing(
                    c=int(blk["c"]),
                    pairs=[(int(u), int(v)) for u, v in blk["pairs"]],
                )
                for blk in data["blocks"]
            ],
        )


def write_certificate(cert: PairingCertificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert.to_json_dict(), fh, indent=2)


def read_certificate(path) -> PairingCertificate:
    with open(path, "r", encoding="utf-8") as fh:
        return PairingCertificate.from_json_dict(json.load(fh))


# ----------------------------------------------------------------------
# Pairing construction
# ----------------------------------------------------------------------

def _witness_groups(seq: IntegerSequence, a: int, b: int, *,
                    allow_zero_c: bool, max_span: int | None,
                    head: int = 256,
                    min_pairs: int = 1) -> dict[tuple[int, int, bool], list[tuple[int, int]]]:
    """Candidate pairs u < v with a*n_v - b*n_u = c, grouped by c.

    Families sharing one c have n_v/n_u -> b/a, so v - u is bounded by
    log_q(b/a) for lacunary sequences; the walk covers spans up to that bound
    (plus slack), and additionally all pairs among the first ``head`` indices
    to catch small exceptional witnesses.  Groups with fewer than
    ``min_pairs`` pairs are left out: no block of that many pairs can be
    filled from them.

    Groups are keyed by ``(c.bit_length(), |c|, c < 0)`` (see
    :func:`_constant`).  The bit length keeps the keys collision-free: an int
    hashes as its value mod 2**61 - 1, so on 2**k +- 1 the constants alone
    would hash with period 61 in k and every insert would walk a long probe
    chain.  The natural order of the keys is the selection order, smallest
    |c| first and c before -c.  Each u walks one contiguous v-range in
    increasing order, so no pair repeats, every group comes out sorted, and
    the groups come in the order of their first pair.
    """
    n = len(seq)
    if max_span is None:
        max_span = _span_bound(seq, a, b)
    power = seq.power_form()
    if power is None:
        groups = _scan_groups(seq, a, b, allow_zero_c, max_span, head)
        return {key: pairs for key, pairs in groups.items() if len(pairs) >= min_pairs}
    groups = {}
    terms = seq.terms
    last_u = None
    for pairs in _power_pair_groups(n, power[0], a, b, max_span, head, min_pairs):
        if len(pairs) < min_pairs:
            continue
        u, v = pairs[0]
        if u != last_u:  # groups come in the order of their first pair
            b_nu, last_u = b * terms[u - 1], u
        c = a * terms[v - 1] - b_nu
        if c == 0 and not allow_zero_c:
            continue
        groups[(c.bit_length(), abs(c), c < 0)] = pairs
    return groups


def _span_bound(seq: IntegerSequence, a: int, b: int) -> int:
    """The default largest v - u of :func:`_witness_groups` past its head."""
    n = len(seq)
    power = seq.power_form()
    if power is not None:
        log_q = math.log(power[0])  # base^k + offset has every ratio >= base
    elif n >= 2:
        terms = seq.terms
        q = min(Fraction(terms[i + 1], terms[i]) for i in range(n - 1))  # exact
        try:
            log_q = math.log(float(q))
        except OverflowError:  # q is past the float range; its log is not
            log_q = math.log(q.numerator) - math.log(q.denominator)
    else:
        log_q = math.log(2.0)
    if log_q <= 0.0:
        return n - 1
    return max(1, math.ceil(math.log(max(abs(b / a), 1.0)) / log_q)) + 2


def _last_partner(u: int, n: int, max_span: int, head: int) -> int:
    """The largest v the witness walk pairs with u."""
    return min(n, u + max_span if u > head else max(u + max_span, head))


def _scan_groups(seq: IntegerSequence, a: int, b: int, allow_zero_c: bool,
                 max_span: int, head: int) -> dict[tuple[int, int, bool], list[tuple[int, int]]]:
    """:func:`_witness_groups` on any sequence: one big-int c per pair."""
    n = len(seq)
    groups: dict[tuple[int, int, bool], list[tuple[int, int]]] = {}
    terms = seq.terms  # 0-based; every index below is in 1..n
    for u in range(1, n):
        b_nu = b * terms[u - 1]
        for v in range(u + 1, _last_partner(u, n, max_span, head) + 1):
            c = a * terms[v - 1] - b_nu
            if c == 0 and not allow_zero_c:
                continue
            groups.setdefault((c.bit_length(), abs(c), c < 0), []).append((u, v))
    return groups


def _power_pair_groups(n: int, q: int, a: int, b: int, max_span: int, head: int,
                       min_pairs: int) -> list[list[tuple[int, int]]]:
    """The pair lists of :func:`_scan_groups` on n_k = q**k + o, without any c.

    a*n_v - b*n_u = q**u * K_d + (a - b)*o with d = v - u and
    K_d = a*q**d - b, so pairs share c exactly when they share q**u * K_d.
    If K_d = 0 the family d is one group.  Otherwise K_d = q**e * m with
    q not dividing m, which fixes (m, e), and (u, u + d) lies in the group
    keyed (m, u + e).  Within one family every key differs, so when
    ``min_pairs`` > 1 a family whose m no other family has is skipped.
    Zero constants are not dropped here.
    """
    top = min(n - 1, max(max_span, head - 1))  # the largest v - u the walk reaches
    families = []  # (d, class of m or -1 when K_d = 0, e), by increasing d
    classes: dict[tuple[int, int], int] = {}
    q_d = 1
    for d in range(1, top + 1):
        q_d *= q
        m = a * q_d - b
        if m == 0:
            families.append((d, -1, 0))
            continue
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        families.append((d, classes.setdefault((m.bit_length(), m), len(classes)), e))
    if min_pairs > 1:
        shared = Counter(cls for _, cls, _ in families)
        families = [f for f in families if f[1] < 0 or shared[f[1]] > 1]
    zero = [d for d, cls, _ in families if cls < 0]  # at most one d has K_d = 0
    families = [f for f in families if f[1] >= 0]
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    if families:
        for u in range(1, n):
            reach = _last_partner(u, n, max_span, head) - u
            for d, cls, e in families:
                if d > reach:
                    break
                groups.setdefault((cls, u + e), []).append((u, u + d))
    found = list(groups.values())
    for d in zero:
        # the walk pairs u with u + d while u + d <= n and, past max_span, u + d <= head
        last = n - d if d <= max_span else min(n, head) - d
        if last >= 1:
            found.append([(u, u + d) for u in range(1, last + 1)])
            found.sort(key=lambda pairs: pairs[0])  # in the order of their first pair
    return found


def _constant(key: tuple[int, int, bool]) -> int:
    """The c of a :func:`_witness_groups` key."""
    return -key[1] if key[2] else key[1]


def _power_sign(q: int, A: int, x: int, B: int, y: int, R: int) -> int:
    """sign(A*q**x + B*q**y - R), exact, for ints A, B, R and exponents x, y >= 0.

    Take x >= y (swapping the terms if needed, so B is the coefficient of
    the smaller exponent) and write the value as q**y * D - R with
    D = A*q**(x - y) + B.  D is formed only when x - y <= bitlen(B) +
    bitlen(R) + 2: past that |A*q**(x-y)| >= 2**(x-y) >= 8 * 2**bitlen(B) *
    2**bitlen(R) > |B| + |R|, so sign(D) = sign(A) and |D| > |R|.  q**y is
    formed only when y < bitlen(R): past that q**y > |R|, so a nonzero D
    fixes the sign.  So q**e is formed only for e < bitlen(R) + bitlen(B) + 3:
    the cost depends on the size of B and R, never on the size of the terms.
    """
    if x < y:
        x, y, A, B = y, x, B, A
    r_bits = R.bit_length()
    if A and x - y > B.bit_length() + r_bits + 2:
        return 1 if A > 0 else -1
    D = A * q ** (x - y) + B if A else B
    if y < r_bits:
        value = D * q ** y - R
    elif D:
        return 1 if D > 0 else -1
    else:
        value = -R
    return (value > 0) - (value < 0)


def term_sign(seq: IntegerSequence):
    """The exact sign(A*n_x + B*n_y - R) on ``seq``, as a function of (A, x, B, y, R).

    x and y are 1-based indices in range.  On a power form n_k = q**k + o
    it is :func:`_power_sign` on the exponents with R - (A + B)*o as the
    constant, so no term is formed; any other sequence compares its terms.
    """
    power = seq.power_form()
    if power is None:
        terms = seq.terms

        def sign(A: int, x: int, B: int, y: int, R: int) -> int:
            value = A * terms[x - 1] + B * terms[y - 1] - R
            return (value > 0) - (value < 0)
        return sign
    q, o = power
    return lambda A, x, B, y, R: _power_sign(q, A, x, B, y, R - (A + B) * o)


def _spacing_test(seq: IntegerSequence, gap_ratio: Fraction):
    """spaced(u, w): n_u >= gap_ratio * n_w, exact; the one spacing test of
    :func:`build_pairing_counterexample` and :func:`verify_certificate`.

    On a power form n_k = q**k + o it is sign(den*q**u - num*q**w - r) >= 0
    with r = (num - den)*o, by :func:`_power_sign`.  Once min(u, w) >=
    bitlen(r) that sign reads g = u - w alone: the value is q**min(u, w) * E
    - r, where the integer E (den*q**g - num, or den - num*q**-g for g < 0)
    has the sign of D(g) = den*q**g - num and q**min(u, w) > |r|.  So a
    nonzero E decides, and E = 0 leaves sign(-r).  D increases with g, so
    the passing gaps are those from a least one on, found once by bisection;
    :func:`_power_sign` decides only the pairs below the bit bound.
    """
    num, den = gap_ratio.numerator, gap_ratio.denominator
    power = seq.power_form()
    if power is None:
        terms = seq.terms
        return lambda u, w: den * terms[u - 1] >= num * terms[w - 1]
    q, o = power
    r = (num - den) * o
    r_bits = r.bit_length()
    n = len(seq)
    # the least passing gap; n when none of the gaps 1 - n .. n - 1 passes
    least = 1 - n + bisect.bisect_left(range(1 - n, n), True, key=lambda g: _power_sign(
        q, den, r_bits + max(g, 0), -num, r_bits - min(g, 0), r) >= 0)

    def spaced(u: int, w: int) -> bool:
        if u < r_bits or w < r_bits:
            return _power_sign(q, den, u, -num, w, r) >= 0
        return u - w >= least
    return spaced


def _certificate_problem(a: int, b: int, gap_ratio: Fraction) -> str | None:
    """Why (a, b, ``gap_ratio``) falls outside the construction's proof, or None.

    The coefficients must be nonzero and ``gap_ratio`` at least
    2*max(|a|,|b|); the build raises on this message and the verifier
    returns it.
    """
    if a == 0 or b == 0:
        return "coefficients must be nonzero"
    floor = 2 * max(abs(a), abs(b))
    if gap_ratio < floor:
        return f"gap_ratio {gap_ratio} below the floor 2*max(|a|,|b|) = {floor}"
    return None


def _greedy_pick(pairs: list[tuple[int, int]], want: int, spaced,
                 last: int | None):
    """Left-to-right selection honoring value-ratio spacing.

    Returns everything it could pick (possibly fewer than ``want``) and the
    index of the largest placed value, ``last`` (None before any pick).
    ``spaced`` is :func:`_spacing_test`, so on a power form each test runs
    on exponents and is exact: den*n_u >= num*n_last reads as
    sign(den*q**u - num*q**last - (num - den)*o) >= 0.  Spacing alone keeps
    the picks disjoint: terms are positive and strictly increasing and
    ``gap_ratio`` >= 2, so a pick's n_u >= gap_ratio * (last placed n_v)
    puts u past every index placed before it, and v > u.
    """
    picked = []
    for u, v in pairs:  # pairs come from _witness_groups, so indices are in range
        if last is not None and not spaced(u, last):
            continue
        picked.append((u, v))
        last = v
        if len(picked) == want:
            break
    return picked, last


def build_pairing_counterexample(
    seq: IntegerSequence,
    a: int,
    b: int,
    schedule: BlockSchedule,
    gap_ratio=None,
    *,
    allow_zero_c: bool = False,
) -> tuple[PermutationWindow, PairingCertificate]:
    """Fill the schedule with disjoint witness pairs of a*n_v - b*n_u = c_m.

    Block by block, the smallest-|c| constant whose remaining greedy supply
    fills the block is chosen; its pairs occupy consecutive slots (2k-1, 2k).
    Selected values must be separated across distinct pairs by a factor
    ``gap_ratio`` (default 2*max(|a|,|b|)); unused indices are appended after
    the certified slots in increasing order.
    """
    if gap_ratio is None:
        gap_ratio = Fraction(2 * max(abs(a), abs(b)))
    gap_ratio = Fraction(gap_ratio)
    if (problem := _certificate_problem(a, b, gap_ratio)) is not None:
        raise ValueError(problem)
    if a == b:
        warnings.warn("a = b pairing is experimental", stacklevel=2)

    # a group smaller than the shortest block fills none; only a block that
    # cannot be filled reads every group
    groups = _witness_groups(seq, a, b, allow_zero_c=allow_zero_c, max_span=None,
                             min_pairs=min(schedule.lengths) // 2)
    order = sorted(groups)  # smallest |c| first, c before -c
    spaced = _spacing_test(seq, gap_ratio)
    last: int | None = None
    blocks: list[BlockPairing] = []
    for bi, length in enumerate(schedule.lengths, start=1):
        want = length // 2
        best = None
        for key in order:
            picked, end = _greedy_pick(groups[key], want, spaced, last)
            if len(picked) == want:
                best = (_constant(key), picked, end)
                break
        if best is None:
            # with no pruned group block 1 fails first, so this is the only
            # place that can find no witnesses at all
            every = _witness_groups(seq, a, b, allow_zero_c=allow_zero_c, max_span=None)
            if not every:
                raise InsufficientWitnesses(
                    f"no witness pairs for a={a}, b={b} "
                    f"({'including' if allow_zero_c else 'excluding'} c = 0)"
                )
            supplies = {
                _constant(key): len(_greedy_pick(pairs, want, spaced, last)[0])
                for key, pairs in every.items()
            }
            top_c, top = max(supplies.items(), key=lambda kv: (kv[1], -abs(kv[0])))
            if top == 0:
                raise SpacingUnsatisfiable(
                    f"block {bi}: witnesses exist but none clears the spacing "
                    f"ratio {gap_ratio}"
                )
            raise InsufficientWitnesses(
                f"block {bi} needs {want} disjoint spaced pairs; best candidate "
                f"c={top_c} supplies only {top}"
            )
        c, picked, last = best
        blocks.append(BlockPairing(c=c, pairs=picked))

    flat = np.array([i for blk in blocks for pair in blk.pairs for i in pair],
                    dtype=np.int64)
    mark = np.zeros(int(flat.max()) + 1, dtype=bool)
    mark[flat] = True
    unused = np.flatnonzero(~mark[1:]) + 1
    perm = PermutationWindow(np.concatenate([flat, unused]))
    cert = PairingCertificate(a=a, b=b, gap_ratio=gap_ratio, blocks=blocks)
    ok, problem = verify_certificate(perm, seq, cert)
    if not ok:
        raise AssertionError(f"internal: built certificate fails verification: {problem}")
    return perm, cert


def verify_certificate(
    perm: PermutationWindow,
    seq: IntegerSequence,
    cert: PairingCertificate,
) -> tuple[bool, str | None]:
    """Exact check of pair relations, slot placement, monotonicity, spacing.

    Returns (True, None) or (False, description of the first violation).
    Coefficients a, b must be nonzero and ``gap_ratio`` at least
    2*max(|a|,|b|), as the build requires: below that floor the spacing no
    longer carries the construction's proof.  Both comparisons go through
    :func:`term_sign`, so on a power form n_k = q**k + o they run on
    exponents and no term is formed:
    a*n_v - b*n_u = c reads as sign(a*q**v - b*q**u - (c - (a - b)*o)) = 0,
    and the spacing test is :func:`_spacing_test`, the one the build uses.
    Each is the same integer comparison with both sides moved to one, so
    the verdict and message are those of a comparison on the terms.
    """
    a, b = cert.a, cert.b
    if (problem := _certificate_problem(a, b, cert.gap_ratio)) is not None:
        return False, problem
    # plain ints for the exact comparisons; only the certified slots are read
    images = perm.images[:cert.certified_slots].tolist()
    n = len(seq)
    sign = term_sign(seq)
    spaced = _spacing_test(seq, cert.gap_ratio)
    # the first spacing violation, reported only after the checks below pass
    spacing_problem = None
    prev_pair = None
    slot = 0
    for m, blk in enumerate(cert.blocks, start=1):
        for u, v in blk.pairs:
            slot += 2
            if slot > len(images):
                return False, f"certificate exceeds window at slot {slot}"
            if images[slot - 2] != u or images[slot - 1] != v:
                return False, f"slots ({slot - 1}, {slot}) do not carry pair ({u}, {v})"
            if not (1 <= u <= n and 1 <= v <= n):
                return False, f"pair ({u}, {v}) outside the sequence"
            if sign(a, v, -b, u, blk.c) != 0:
                return False, (
                    f"block {m}: a*n_{v} - b*n_{u} != {blk.c}"
                )
            if spacing_problem is None and prev_pair is not None and not spaced(u, prev_pair[1]):
                spacing_problem = f"spacing violated between pairs {prev_pair} and {(u, v)}"
            prev_pair = (u, v)

    # strictly increasing images also rule out a reused index
    for i in range(1, slot):
        if images[i] <= images[i - 1]:
            return False, f"certified images not increasing at slot {i + 1}"

    if spacing_problem is not None:
        return False, spacing_problem
    return True, None
