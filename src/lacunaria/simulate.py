"""Fixed-point Monte Carlo for permuted partial sums and their distributions.

Points x are uniform on a dyadic grid of 2^B points with B at least
64 guard bits beyond the largest frequency involved, so every fractional
part {j * n_k * x} is computed exactly (no float mod-1).  Only the final
cos/sin evaluation leaves exact arithmetic; the per-term absolute error is
bounded by 2*pi*(2^-64 + 2^-53) * sum_j(|a_j| + |b_j|) (64-bit truncation of
the exact fractional part plus float64 rounding), i.e. ~4e-16 per term.

All sample values are pure functions of (seed, sample index); reductions use
fixed numpy pipelines, so replays reproduce results bit-for-bit on one
platform regardless of worker count.

The mixture CDF is one midpoint rule over the profile's period
(:func:`lacunaria.spectra.midpoint_rule`) and reports a proven bound as its
tolerance.  scipy (``scipy.special.ndtr`` alone) is imported only where a
normal or mixture CDF is evaluated, so a run without a KS target never loads it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import repeat
from operator import methodcaller

import numpy as np

from .errors import MantissaWidthError
from .mod1 import FixedPointSample, FracTopEngine, required_bits
from .permute import PermutationWindow
from .rng import CounterRng
from .seqgen import IntegerSequence
from .spectra import EPS, MixtureProfile, TrigPolynomial, midpoint_rule

_TWO_PI = 2.0 * math.pi
_INV64 = 2.0 ** -64
# slots per block of a LIL trajectory: it holds no slot array longer than this
_LIL_BLOCK = 1 << 16
_AS_FLOAT = methodcaller("astype", np.float64)


# ----------------------------------------------------------------------
# Grid points
# ----------------------------------------------------------------------

def sample_points(bits: int, count: int, seed: int) -> list[FixedPointSample]:
    """count uniform B-bit mantissas; element i depends only on (seed, i).

    :class:`FixedPointSample` refuses bits below 64."""
    if count < 1:
        raise ValueError("count must be positive")
    return list(_points(bits, seed, 0, count))


def _points(bits: int, seed: int, start: int, stop: int):
    """x_start, ..., x_(stop-1): the only map from (seed, i) to the grid point x_i."""
    rng = CounterRng(seed, "x")
    for i in range(start, stop):
        yield FixedPointSample(rng.bits(i, bits), bits)


# ----------------------------------------------------------------------
# Partial sums
# ----------------------------------------------------------------------

class PartialSumEvaluator:
    """S_N(x) = sum_{slots k <= N} f(n_sigma(k) x) on the exact grid.

    It keeps the sorted indices the window reads and the engine.  A window
    that is 1..count in order reads its rows in slot order, so its indices
    are ``perm.images`` itself and it keeps nothing more; any other window
    also keeps the row of each slot, found by one rank pass over its images.
    The LIL streams the engine's tops by block, so the engine adds no array
    of 8N bytes; the first ``slot_values`` call leaves the pow2-window
    kernel three of them, the window offsets every later sample reads.
    """

    def __init__(self, poly: TrigPolynomial, seq: IntegerSequence,
                 perm: PermutationWindow, count: int):
        if not 1 <= count <= len(perm):
            raise ValueError(f"window {count} outside 1..{len(perm)}")
        images = perm.images[:count]
        top = int(images.max())
        if top > len(seq):
            raise ValueError("permutation window exceeds sequence length")
        self.count = count
        # a window of a bijection has distinct images, so count ascending
        # images up to count are 1..count: slot k reads row k - 1, no gather
        if top == count and np.all(images[1:] > images[:-1]):
            self.indices, self._rows = images, None
        else:
            # marking the images lists the sorted indices, and the running
            # count of marks up to an image is that slot's row
            mark = np.zeros(top + 1, dtype=bool)
            mark[images] = True
            self.indices = np.flatnonzero(mark)
            self._rows = (np.cumsum(mark) - 1)[images]

        terms = poly.terms()
        self.freqs = [j for j, _, _ in terms]
        self._acos = np.asarray([float(a) for _, a, _ in terms])
        self._asin = np.asarray([float(b) for _, _, b in terms])
        self._has_cos = bool(poly.cos_coeffs)
        self._has_sin = bool(poly.sin_coeffs)
        max_used = seq.term(top)
        self.required = required_bits(max_used, max(self.freqs))
        # The engine reads the indices in sorted order and slot_values gathers
        # its rows into slot order afterwards.  That is faster, not only
        # tidier: on a 2-core x86-64 box, np.cos over the 4096 angles of a
        # full random window of 2^k took 7-10 us less in k order than in
        # slot order (33-56 against 40-67 us), and the gather costs 4 us.
        self.engine = FracTopEngine(seq, self.indices, self.freqs)

    def _check_width(self, x: FixedPointSample) -> None:
        if x.bits < self.required:
            raise MantissaWidthError(have=x.bits, need=self.required)

    def slot_values(self, x: FixedPointSample) -> np.ndarray:
        """f(n_sigma(k) x) for slots k = 1..N, in slot order."""
        self._check_width(x)
        per_index = self._values(self.engine.tops(x).astype(np.float64))
        return per_index if self._rows is None else per_index[self._rows]

    def _values(self, angles: np.ndarray) -> np.ndarray:
        """f(n_k x) for rows whose tops are given as float64 angles, which it
        overwrites.  Callers convert in the call itself, so the uint64 tops
        are freed before the cos."""
        angles *= _TWO_PI * _INV64
        if len(self.freqs) > 1:
            per_index = self._matmul_sum(lambda trig: trig(angles))
        else:
            # a one-column product is one rounded multiply, so this equals
            # the matmul bit for bit, and every step can write into angles
            per_index = angles[:, 0]
            if self._has_cos:
                sines = np.sin(per_index) if self._has_sin else None
                np.cos(per_index, out=per_index)
                per_index *= self._acos
                if self._has_sin:
                    sines *= self._asin
                    per_index += sines
            else:
                np.sin(per_index, out=per_index)
                per_index *= self._asin
        return per_index

    def _matmul_sum(self, table) -> np.ndarray:
        """Per-row sum over several frequencies: ``table(np.cos) @ a``, plus
        ``table(np.sin) @ b``, where ``table(fn)`` gives the (rows, k) array of
        fn at the angles.  The matmul's BLAS sum may round differently from
        an explicit one or from the same product split into row blocks, so
        every path takes it whole; each table is used up before the next is
        asked for."""
        if not self._has_cos:
            return table(np.sin) @ self._asin
        per_index = table(np.cos) @ self._acos
        if self._has_sin:
            per_index += table(np.sin) @ self._asin
        return per_index

    def _stream_table(self, x: FixedPointSample, out: np.ndarray, trig) -> np.ndarray:
        """out = trig(angles) over all rows at x, written block by block from
        the engine's ``tops_blocks``, so no tops or angles span the rows."""
        tops = self.engine.tops_blocks(x, _LIL_BLOCK)
        for lo, angles in zip(range(0, len(out), _LIL_BLOCK), map(_AS_FLOAT, tops)):
            angles *= _TWO_PI * _INV64
            trig(angles, out=out[lo:lo + len(angles)])
        return out

    def sum(self, x: FixedPointSample) -> float:
        return float(self.slot_values(x).sum())

    def _slot_blocks(self, x: FixedPointSample):
        """Yield the slot values in consecutive blocks of _LIL_BLOCK slots,
        each writable and not read again by the evaluator.

        Every tops array it reads is one block of the engine's
        ``tops_blocks``.  An identity window with one frequency computes each
        block from its own tops.  Otherwise the per-index values come first,
        in one array, and a permuted window gathers each block from it.
        Several frequencies fill one (N, k) array with the cosines block by
        block, take ``slot_values``' one matmul over it, then refill it with
        the sines if f has any (a second pass over the tops).
        """
        self._check_width(x)
        n = self.count
        if len(self.freqs) > 1:
            table = np.empty((len(self.indices), len(self.freqs)))
            per_index = self._matmul_sum(lambda trig: self._stream_table(x, table, trig))
        else:
            tops = self.engine.tops_blocks(x, _LIL_BLOCK)
            blocks = map(self._values, map(_AS_FLOAT, tops))
            if self._rows is None:
                yield from blocks
                return
            per_index = np.empty(n)
            for lo, values in zip(range(0, n, _LIL_BLOCK), blocks):
                per_index[lo:lo + len(values)] = values
        for lo in range(0, n, _LIL_BLOCK):
            rows = slice(lo, lo + _LIL_BLOCK)
            yield per_index[rows] if self._rows is None else per_index[self._rows[rows]]

    def lil_trajectory(self, x: FixedPointSample, variance: float) -> LilTrajectory:
        """Running LIL ratio at x over the whole window (N_max = count).

        The window is walked in blocks of _LIL_BLOCK slots.  Each block's
        prefix sums continue the previous block's last one through a single
        cumsum recurrence, so every S_N is the float one cumsum over the
        window gives; the block's ratios fold into the maximum over each
        N' in [16], (16, 32], ..., (n_max / 2, n_max], and the running max
        over those is the running max at each 2^e.

        Beyond the evaluator's arrays it holds a few arrays of one block,
        and one array of 8N bytes only for a permuted window or several
        frequencies: the per-index values.  k frequencies add the (N, k)
        table of cosines or sines, and sines after cosines one more array
        of 8N, the sines' product before it is summed in.
        """
        if not (math.isfinite(variance) and variance > 0):
            raise ValueError("variance must be positive and finite")
        check_lil_window(self.count)
        ns = [16 << e for e in range(self.count.bit_length() - 4)]
        segment_max = np.full(len(ns), -np.inf)
        total, done = -0.0, 0  # S_done, done = the slots before this block
        for values in self._slot_blocks(x):
            # S_done + v_(done+1), then cumsum: the recurrence of one cumsum
            # (-0.0 + v is v for every float v)
            values[0] += total
            np.cumsum(values, out=values)
            total = values[-1]
            first, last = max(done + 1, 16), done + len(values)
            ratios = values[first - done - 1:]  # N' = first..last
            done = last
            if not len(ratios):
                continue
            np.abs(ratios, out=ratios)
            ratios /= _lil_denominators(first, last, variance)
            e0, e1 = _lil_segment(first), _lil_segment(last)
            starts = [0] + [ns[e] // 2 + 1 - first for e in range(e0 + 1, e1 + 1)]
            touched = segment_max[e0:e1 + 1]
            np.maximum(touched, np.maximum.reduceat(ratios, starts), out=touched)
        running = np.maximum.accumulate(segment_max)
        return LilTrajectory(checkpoints=[(n, float(r)) for n, r in zip(ns, running)])


def check_lil_window(n_max: int) -> None:
    """Raise ValueError unless a LIL trajectory can run to n_max."""
    if n_max < 16 or n_max & (n_max - 1):
        raise ValueError("n_max must be a power of two, at least 16")


def _lil_segment(n: int) -> int:
    """e such that N' = n lies in the segment ending at checkpoint 16 * 2^e."""
    return 0 if n <= 16 else (n - 1).bit_length() - 4


def _lil_denominators(first: int, last: int, variance: float) -> np.ndarray:
    """sqrt(((2 variance) N) ln ln N) for N = first..last, in that order, in two buffers."""
    denom = np.arange(first, last + 1, dtype=np.float64)
    lnln = np.log(denom)
    np.log(lnln, out=lnln)
    denom *= 2.0 * variance
    denom *= lnln
    np.sqrt(denom, out=denom)
    return denom


def partial_sum(poly: TrigPolynomial, seq: IntegerSequence,
                perm: PermutationWindow, x: FixedPointSample, count: int) -> float:
    """One-shot S_N(x); raises MantissaWidthError when x is too narrow."""
    return PartialSumEvaluator(poly, seq, perm, count).sum(x)


# ----------------------------------------------------------------------
# Empirical distributions
# ----------------------------------------------------------------------

@dataclass
class SummaryStats:
    """Central-moment summary (population style: moments about the mean).

    Standard errors: se_mean = sqrt(m2/M); se_variance = sqrt((m4 - m2^2)/M);
    se_kurtosis by the delta method on k = m4/m2^2,

        Var(k) ~ [ (m8 - m4^2)/m2^4 - 4 m4 (m6 - m2 m4)/m2^5
                   + 4 m4^2 (m4 - m2^2)/m2^6 ] / M,

    which reduces to the familiar 24/M under a Gaussian null.  Both are None
    (null in an artifact) when the sample variance is 0.
    """

    count: int
    mean: float
    variance: float
    fourth_moment: float
    kurtosis_ratio: float | None
    se_mean: float
    se_variance: float
    se_kurtosis: float | None


@dataclass
class EmpiricalDistribution:
    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)

    def summary(self) -> SummaryStats:
        x = self.samples
        m = len(x)
        mean = float(x.mean())
        d = x - mean
        m2 = float(np.mean(d**2))
        m4 = float(np.mean(d**4))
        m6 = float(np.mean(d**6))
        m8 = float(np.mean(d**8))
        kurt = se_kurt = None  # undefined at zero variance
        if m2 > 0:
            kurt = m4 / (m2 * m2)
            var_k = ((m8 - m4**2) / m2**4 - 4 * m4 * (m6 - m2 * m4) / m2**5
                     + 4 * m4**2 * (m4 - m2**2) / m2**6) / m
            se_kurt = math.sqrt(max(var_k, 0.0))
        return SummaryStats(
            count=m,
            mean=mean,
            variance=m2,
            fourth_moment=m4,
            kurtosis_ratio=kurt,
            se_mean=math.sqrt(m2 / m),
            se_variance=math.sqrt(max(m4 - m2 * m2, 0.0) / m),
            se_kurtosis=se_kurt,
        )


def _clt_values(evaluator: PartialSumEvaluator, seed: int,
                start: int, stop: int) -> np.ndarray:
    """Samples start..stop-1 of S_N(x) / sqrt(N)."""
    scale = 1.0 / math.sqrt(evaluator.count)
    points = _points(evaluator.required, seed, start, stop)
    return np.fromiter((evaluator.sum(x) * scale for x in points),
                       dtype=np.float64, count=stop - start)


def clt_experiment(
    poly: TrigPolynomial,
    seq: IntegerSequence,
    perm: PermutationWindow,
    count: int,
    samples: int,
    seed: int,
    workers: int = 1,
) -> EmpiricalDistribution:
    """samples draws of S_N(x) / sqrt(N) over fresh grid points.

    Sample i is a pure function of (seed, i); the worker split (at most one
    process per sample and per core) never changes values, only wall time.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    evaluator = PartialSumEvaluator(poly, seq, perm, count)

    workers = min(workers, samples, os.cpu_count() or 1)
    if workers <= 1:
        values = _clt_values(evaluator, seed, 0, samples)
    else:
        # imported here: it loads multiprocessing, which one worker never needs
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, samples, workers + 1, dtype=int).tolist()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_clt_values, repeat(evaluator), repeat(seed),
                                   bounds[:-1], bounds[1:]))
        values = np.concatenate(chunks)
    return EmpiricalDistribution(values, {"mantissa_bits": evaluator.required})


# ----------------------------------------------------------------------
# Distribution targets and distances
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianTarget:
    variance: float

    def __post_init__(self):
        if not self.variance >= 0:  # NaN fails too
            raise ValueError("variance must be nonnegative")

    def cdf_with_tolerance(self, xs: np.ndarray) -> tuple[np.ndarray, float]:
        """(Phi(x / sigma), 0.0); :func:`ks_distance` compares variance 0, an atom, itself."""
        from scipy.special import ndtr

        return ndtr(xs / math.sqrt(self.variance)), 0.0


@dataclass(frozen=True)
class MixtureTarget:
    """Variance mixture: Z * sqrt(v(U)), Z standard normal, U uniform.

    Its CDF at x is the integral over U of Phi(x / sqrt(v(U))).  Where
    Re v > 0, |Phi(w) - 1/2| <= 1 / (2 sqrt(cos(arg v))) <= sqrt(hi / lo) / 2
    (integrate e^(-u^2/2) along the ray to w), so :func:`midpoint_rule`
    bounds the truncation by 2^-53.  The tolerance adds the float evaluation,
    eval_err / (8 floor) + (M + 5) 2^-53: x / sqrt(v)'s relative error moves
    Phi by at most 1/4 of it (|w| phi(w) < 1/4), ndtr is taken within 4 ulps,
    and the mean of M values in [0, 1] within M ulps.
    """

    profile: MixtureProfile

    def cdf_with_tolerance(self, xs: np.ndarray) -> tuple[np.ndarray, float]:
        from scipy.special import ndtr

        v, floor, eval_err, truncation = midpoint_rule(
            self.profile, lambda lo, hi: np.log(hi / lo) / 2 - math.log(2), EPS)
        sig = np.sqrt(v)
        out = np.zeros(len(xs))
        step = max(1, (1 << 20) // len(sig))
        for i in range(0, len(xs), step):
            out[i:i + step] = ndtr(xs[i:i + step, None] / sig[None, :]).mean(axis=1)
        return out, truncation + eval_err / (8 * floor) + (len(sig) + 5) * EPS


@dataclass(frozen=True)
class KsResult:
    distance: float
    cdf_tolerance: float


def ks_distance(emp: EmpiricalDistribution, target) -> KsResult:
    """Sup distance between the empirical CDF and the target CDF.

    A degenerate Gaussian target (variance 0) is an atom at 0; the one-sided
    refinement of the usual formula would overstate the distance there, so
    the atom is compared directly.
    """
    xs = np.sort(emp.samples)
    m = len(xs)
    if isinstance(target, GaussianTarget) and target.variance == 0:
        below = float(np.mean(xs < 0))
        above = float(np.mean(xs > 0))
        return KsResult(distance=max(below, above), cdf_tolerance=0.0)
    cdf, tol = target.cdf_with_tolerance(xs)
    grid = np.arange(m, dtype=np.float64)
    d_plus = np.max((grid + 1) / m - cdf)
    d_minus = np.max(cdf - grid / m)
    return KsResult(distance=float(max(d_plus, d_minus)), cdf_tolerance=tol)


def kolmogorov_threshold(samples: int, level: float = 0.01) -> float:
    """Critical KS distance: K_alpha / sqrt(M) for the usual alpha levels."""
    table = {0.10: 1.224, 0.05: 1.358, 0.02: 1.517, 0.01: 1.628}
    if level not in table:
        raise ValueError(f"no tabulated threshold for level {level}")
    return table[level] / math.sqrt(samples)


@dataclass(frozen=True)
class CharfnPoint:
    s: float
    real_part: float
    se: float


def charfn_experiment(emp: EmpiricalDistribution, s_values) -> list[CharfnPoint]:
    """Real part of the empirical characteristic function on a grid of s."""
    out = []
    x = emp.samples
    m = len(x)
    for s in s_values:
        c = np.cos(s * x)
        out.append(CharfnPoint(s=float(s), real_part=float(c.mean()),
                               se=float(c.std() / math.sqrt(m))))
    return out


# ----------------------------------------------------------------------
# Law of the iterated logarithm trajectories
# ----------------------------------------------------------------------

@dataclass
class LilTrajectory:
    """Running max of |S_N'| / sqrt(2 * variance * N' * ln ln N') at checkpoints.

    The running max scans every N' from 16 up (natural log; ln ln N > 0
    there); checkpoints are the powers of two.
    """

    checkpoints: list[tuple[int, float]]

    def final_ratio(self) -> float:
        return self.checkpoints[-1][1]

    def ratios(self) -> list[float]:
        return [r for _, r in self.checkpoints]


def lil_trajectory(
    poly: TrigPolynomial,
    seq: IntegerSequence,
    perm: PermutationWindow,
    x: FixedPointSample,
    n_max: int,
    variance: float,
) -> LilTrajectory:
    """One-shot trajectory; a run over many points builds one
    :class:`PartialSumEvaluator` and calls its ``lil_trajectory``."""
    check_lil_window(n_max)
    return PartialSumEvaluator(poly, seq, perm, n_max).lil_trajectory(x, variance)
