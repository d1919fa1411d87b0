"""Generation and validation of the strictly increasing integer sequences.

All generators return an :class:`IntegerSequence` carrying its provenance,
the JSON object of the file header that :func:`generate` reads back.  Terms
are arbitrary-precision; indexing in the mathematical sense is 1-based
(``seq.term(k)`` = n_k), storage is an ordinary 0-based Python sequence.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Context, Decimal, Overflow, getcontext
from fractions import Fraction
from itertools import count as count_from
from pathlib import Path
from typing import Iterator, Sequence

from .errors import IntervalEmpty
from .rng import CounterRng

FILE_HEADER = "# lacunaria-seq v1"

# Endpoints of the random-construction intervals are transcendental; they are
# evaluated once at this fixed decimal precision so that generation is
# reproducible across platforms (no dependence on the host libm).
_ENDPOINT_PRECISION = 50


# ----------------------------------------------------------------------
# Core types
# ----------------------------------------------------------------------

class _PowerTerms(Sequence):
    """Lazy view of base**k + offset, k = 1..n.

    Materializing 2**k up to k ~ 10**6 would need tens of gigabytes; terms
    are computed on demand instead.  Monotonicity holds analytically for
    base >= 2, so no elementwise validation is run.  For a power-of-two base
    a term is one shift, (1 << k * log2(base)) + offset, instead of ``pow``.
    """

    __slots__ = ("_base", "_offset", "_n", "_shift")

    def __init__(self, base: int, offset: int, n: int):
        self._base = base
        self._offset = offset
        self._n = n
        # log2(base) for a power of two, else 0 (no shift path)
        self._shift = base.bit_length() - 1 if base & (base - 1) == 0 else 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._n))]
        i = operator.index(i)  # a numpy integer would overflow in the shift or pow
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(i)
        if self._shift:
            return (1 << self._shift * (i + 1)) + self._offset
        return self._base ** (i + 1) + self._offset

    def __repr__(self) -> str:
        return f"_PowerTerms(base={self._base}, offset={self._offset}, n={self._n})"


@dataclass
class IntegerSequence:
    """Strictly increasing positive integers with their provenance.

    The provenance is the header's JSON object: ``kind`` and the generator's
    arguments (:func:`generate` turns it back into the terms), or
    ``{"kind": "external", "path": ...}`` for terms that no generator made.
    """

    terms: Sequence
    provenance: dict

    def __post_init__(self):
        if not len(self.terms):
            raise ValueError("sequence must contain at least one term")
        if self.provenance["kind"] == "power" and (
                self.power_form() != (self.provenance["base"], self.provenance["offset"])):
            raise ValueError(f"{self.provenance} goes only with its own lazy terms (gen_power)")
        if not isinstance(self.terms, _PowerTerms):
            prev = 0
            for t in self.terms:
                if t < 1:
                    raise ValueError(f"term {t} < 1")
                if t <= prev:
                    raise ValueError(f"terms not strictly increasing at {t}")
                prev = t

    def __len__(self) -> int:
        return len(self.terms)

    def term(self, k: int) -> int:
        """n_k, 1-based."""
        k = operator.index(k)
        if not 1 <= k <= len(self.terms):
            raise IndexError(f"index {k} outside 1..{len(self.terms)}")
        return self.terms[k - 1]

    def prefix(self, n: int) -> list:
        if not 1 <= n <= len(self.terms):
            raise ValueError(f"prefix length {n} outside 1..{len(self.terms)}")
        return list(self.terms[:n])

    def power_form(self) -> tuple[int, int] | None:
        """(base, offset) exactly when the terms are the lazy base**k + offset
        view; every exponent shortcut keys on this, never on the provenance."""
        if isinstance(self.terms, _PowerTerms):
            return (self.terms._base, self.terms._offset)
        return None

    def __repr__(self) -> str:
        return f"IntegerSequence(len={len(self)}, provenance={self.provenance})"


@dataclass(frozen=True)
class RStarParams:
    alpha: float
    a: int
    count: int
    seed: int
    interval_form: str = "trailing"

    def __post_init__(self):
        if not (0 < self.alpha < math.inf):  # NaN fails both comparisons
            raise ValueError("alpha must be positive and finite")
        if self.a < 2:
            raise ValueError("scale a must be at least 2")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.interval_form not in ("trailing", "current"):
            raise ValueError("interval_form must be 'trailing' or 'current'")


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def gen_geometric(q, n1: int, count: int) -> IntegerSequence:
    """Hadamard sequence n_{k+1} = ceil(q * n_k); every ratio is >= q exactly.

    ``q`` must be an exact rational > 1 (int, Fraction or a "p/q" string);
    floats are rejected to keep the ceiling recursion exact.
    """
    if isinstance(q, float):
        raise ValueError("q must be an exact rational, not a float")
    q = Fraction(q)
    if q <= 1:
        raise ValueError(f"gap ratio q must exceed 1, got {q}")
    if n1 < 1 or count < 1:
        raise ValueError("n1 and count must be positive")
    terms = [n1]
    num, den = q.numerator, q.denominator
    for _ in range(count - 1):
        terms.append(-((-num * terms[-1]) // den))  # ceil(q * n_k)
    return IntegerSequence(terms, {"kind": "geometric", "q": str(q), "n1": n1})


def gen_power(base: int, offset: int, count: int) -> IntegerSequence:
    """terms[k] = base**k + offset for k = 1..count (lazy; never materialized)."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if offset not in (0, -1):
        raise ValueError("offset must be 0 or -1")
    if base + offset < 1:
        raise ValueError("first term would be < 1")
    if count < 1:
        raise ValueError("count must be positive")
    return IntegerSequence(_PowerTerms(base, offset, count),
                           {"kind": "power", "base": base, "offset": offset})


def gen_smooth(primes, count: int, include_one: bool = True) -> IntegerSequence:
    """The ``count`` smallest products p1**k1 * ... * pr**kr (all k_i >= 0).

    Generated by a min-heap merge; each product is pushed exactly once by
    only multiplying with generators of index >= the last one used.  The
    generators must be pairwise coprime (>= 2), which makes representations
    unique.  ``include_one=False`` drops the empty product.
    """
    ps = sorted(set(int(p) for p in primes))
    if not ps:
        raise ValueError("need at least one generator")
    for p in ps:
        if p < 2:
            raise ValueError(f"generator {p} < 2")
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if math.gcd(ps[i], ps[j]) != 1:
                raise ValueError(f"generators {ps[i]} and {ps[j]} are not coprime")
    if count < 1:
        raise ValueError("count must be positive")

    needed = count if include_one else count + 1
    heap: list[tuple[int, int]] = [(1, 0)]
    out: list[int] = []
    while len(out) < needed:
        value, first = heapq.heappop(heap)
        out.append(value)
        for j in range(first, len(ps)):
            heapq.heappush(heap, (value * ps[j], j))
    if not include_one:
        out = out[1:]
    return IntegerSequence(out, {"kind": "smooth", "primes": ps, "include_one": include_one})


def _rstar_right(k: int, alpha: Decimal, a: Decimal,
                 ctx: Context) -> tuple[Decimal, Decimal, Decimal]:
    """(ln k, omega_k, a * k**omega_k) in ``ctx``; omega_k = (ln k)**alpha, omega_1 = 0."""
    lk = ctx.ln(Decimal(k))
    try:
        w = ctx.exp(ctx.multiply(alpha, ctx.ln(lk))) if lk > 0 else Decimal(0)
        return lk, w, ctx.multiply(a, ctx.exp(ctx.multiply(w, lk)))
    except Overflow:
        raise ValueError(f"right endpoint of I_{k} exceeds the decimal range; "
                         f"lower alpha (alpha={alpha})") from None


def _rstar_intervals(params: RStarParams, first: int = 1) -> Iterator[tuple[int, int]]:
    """I_first, I_first+1, ... as inclusive integer ranges, without end.

    Each ln k and each right endpoint is evaluated once: the trailing form's
    left endpoint of I_k is the right endpoint of I_{k-1}, and the current
    form's reuses ln(k-1) from the step before.  Decimal ln, exp and
    multiply are correctly rounded in a fixed context, so every endpoint is
    the one a fresh evaluation of k alone gives.
    """
    if first == 1:
        yield (1, params.a)
        first = 2
    ctx = getcontext().copy()  # explicit, so nothing leaks to the caller between yields
    ctx.prec = _ENDPOINT_PRECISION
    alpha = Decimal(repr(params.alpha))
    a = Decimal(params.a)
    ln_prev, _, right_prev = _rstar_right(first - 1, alpha, a, ctx)
    for k in count_from(first):
        lk, w, right = _rstar_right(k, alpha, a, ctx)
        if params.interval_form == "trailing":
            left = right_prev
        else:
            left = ctx.multiply(a, ctx.exp(ctx.multiply(w, ln_prev)))
        # exact ceilings; int() of a Decimal with a huge exponent takes seconds
        (ln, ld), (rn, rd) = left.as_integer_ratio(), right.as_integer_ratio()
        yield -(-ln // ld), -(-rn // rd) - 1
        ln_prev, right_prev = lk, right


def rstar_interval(k: int, params: RStarParams) -> tuple[int, int]:
    """Integers admissible for n_k: inclusive range [lo, hi].

    k = 1 is the boundary case [1, a].  For k >= 2 the real interval is
    half-open [L, R) with R = a * k**omega_k and L = a * (k-1)**omega_{k-1}
    ("trailing" form) or a * (k-1)**omega_k ("current" form); admissible
    integers are ceil(L) .. ceil(R) - 1.  Endpoints are evaluated at fixed
    decimal precision, so the classification is deterministic.
    """
    return next(_rstar_intervals(params, k))


def gen_random_rstar(params: RStarParams) -> IntegerSequence:
    """Random slowly-growing sequence: n_k uniform on the integers of I_k.

    Draws come from a counter-mode generator keyed by (seed, k), so the
    sequence is reproducible bit-for-bit regardless of evaluation order.
    Strict increase is enforced by n_k = max(n_{k-1} + 1, draw); if that
    leaves no room below the right endpoint, generation aborts with advice
    to enlarge the scale ``a``.
    """
    rng = CounterRng(params.seed, "rstar")
    terms: list[int] = []
    for k, (lo, hi) in zip(range(1, params.count + 1), _rstar_intervals(params)):
        if hi < lo:
            raise IntervalEmpty(
                f"I_{k} = [{lo}, {hi}] contains no integer; increase a (a={params.a})"
            )
        draw = rng.between(k, lo, hi)
        value = draw if not terms else max(terms[-1] + 1, draw)
        if value > hi:
            raise IntervalEmpty(
                f"I_{k} exhausted after enforcing strict increase; "
                f"increase a (a={params.a})"
            )
        terms.append(value)
    return IntegerSequence(terms, {
        "kind": "random_rstar", "alpha": params.alpha, "a": params.a,
        "seed": params.seed, "interval_form": params.interval_form})


def generate(spec: dict, count: int) -> IntegerSequence:
    """The first ``count`` terms of the sequence a provenance names.

    ``spec`` is a ``kind`` and the generator's arguments, as a generator
    stores them (``q`` may be any exact form ``gen_geometric`` takes); the
    generator's own checks apply.  ``external`` names no generator.
    """
    kind = spec["kind"]
    try:
        if kind == "geometric":
            return gen_geometric(spec["q"], spec["n1"], count)
        if kind == "power":
            return gen_power(spec["base"], spec["offset"], count)
        if kind == "smooth":
            return gen_smooth(spec["primes"], count, spec.get("include_one", True))
        if kind == "random_rstar":
            return gen_random_rstar(RStarParams(
                spec["alpha"], spec["a"], count, spec["seed"],
                spec.get("interval_form", "trailing")))
    except KeyError as err:
        raise ValueError(f"{kind} provenance has no field {err}") from None
    except TypeError as err:
        raise ValueError(f"{kind} provenance has a field of the wrong type: {err}") from None
    raise ValueError(f"unknown provenance kind {kind!r}")


# ----------------------------------------------------------------------
# Sequence files
# ----------------------------------------------------------------------

@contextmanager
def _any_int_digits():
    """Lift Python's int <-> str digit limit (4300 since 3.10.7): 2^k passes
    it from k = 14,285 on, and rstar at alpha 20 at its fifth term."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def write_sequence(seq: IntegerSequence, path) -> None:
    """One decimal integer per line; header comments carry provenance.

    The file is written beside path and renamed onto it, so a write that
    fails leaves no partial file.
    """
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8") as fh, _any_int_digits():
            fh.write(FILE_HEADER + "\n")
            fh.write("# provenance: " + json.dumps(seq.provenance) + "\n")
            for t in seq.terms:
                fh.write(f"{t}\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def read_sequence(path) -> IntegerSequence:
    """Read a sequence file; the header is optional.

    A headerless file reads as ``external``, and keeps its terms as read, as
    an ``external`` header does.  A ``power`` header reads back as the lazy
    view, whose terms must equal the file's.  Any other header must be one
    its generator accepts (:func:`generate` at count 1).
    """
    provenance = {"kind": "external", "path": str(path)}
    terms: list[int] = []
    with open(path, "r", encoding="utf-8") as fh, _any_int_digits():
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("provenance:"):
                    provenance = json.loads(body[len("provenance:"):])
                    if not isinstance(provenance, dict) or "kind" not in provenance:
                        raise ValueError(f"provenance header of {path} is not a JSON "
                                         f"object with a kind")
                continue
            terms.append(int(line))
    if provenance["kind"] == "power" and terms:
        # the lazy view, so a read sequence takes the paths a generated one takes
        seq = generate(provenance, len(terms))
        if terms != list(seq.terms):
            raise ValueError(f"terms of {path} are not base**k + offset of their provenance")
        return seq
    if provenance["kind"] != "external":
        generate(provenance, 1)
    return IntegerSequence(terms, provenance)
