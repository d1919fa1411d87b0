"""Exact L2 / variance computations via frequency-multiset expansion.

Frequencies are exact big integers, coefficients exact rationals.  Floating
point enters only in the integrals over one period of a mixture profile
(:func:`midpoint_rule`, read by :func:`mixture_charfn` and the mixture CDF),
each returned with a proven bound.  Nothing here loads scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .permute import PairingCertificate, PermutationWindow, term_sign, verify_certificate
from .seqgen import IntegerSequence


# ----------------------------------------------------------------------
# Trigonometric polynomials
# ----------------------------------------------------------------------

@dataclass
class TrigPolynomial:
    """Mean-zero f(x) = sum_j a_j cos(2 pi j x) + b_j sin(2 pi j x), exact coefficients.

    There is no constant term by construction, so the mean over a period
    vanishes.  ``cos_coeffs`` / ``sin_coeffs`` map j >= 1 to rationals.
    """

    cos_coeffs: dict[int, Fraction] = field(default_factory=dict)
    sin_coeffs: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.cos_coeffs = {int(j): Fraction(c) for j, c in self.cos_coeffs.items() if c}
        self.sin_coeffs = {int(j): Fraction(c) for j, c in self.sin_coeffs.items() if c}
        for j in list(self.cos_coeffs) + list(self.sin_coeffs):
            if j < 1:
                raise ValueError(f"frequency index {j} must be >= 1")
        if not self.cos_coeffs and not self.sin_coeffs:
            raise ValueError("polynomial needs at least one nonzero coefficient")

    @property
    def degree(self) -> int:
        return max(list(self.cos_coeffs) + list(self.sin_coeffs))

    def terms(self) -> list[tuple[int, Fraction, Fraction]]:
        """Sorted (j, cos coefficient, sin coefficient) with at least one nonzero."""
        js = sorted(set(self.cos_coeffs) | set(self.sin_coeffs))
        zero = Fraction(0)
        return [(j, self.cos_coeffs.get(j, zero), self.sin_coeffs.get(j, zero))
                for j in js]

    @classmethod
    def parse(cls, spec: str) -> "TrigPolynomial":
        """Mini-grammar: comma-separated ``cos:j[=p/q]`` / ``sin:j[=p/q]`` terms.

        ``cos:1`` means cos(2 pi x) with coefficient 1; ``sin:3=-2/5`` means
        -(2/5) sin(6 pi x).  Repeated terms accumulate.
        """
        cos: dict[int, Fraction] = {}
        sin: dict[int, Fraction] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            head, _, coeff = part.partition("=")
            kind, _, j_text = head.partition(":")
            kind = kind.strip().lower()
            if kind not in ("cos", "sin") or not j_text:
                raise ValueError(f"bad polynomial term {part!r}")
            j = int(j_text)
            value = Fraction(coeff.strip()) if coeff else Fraction(1)
            target = cos if kind == "cos" else sin
            target[j] = target.get(j, Fraction(0)) + value
        return cls(cos_coeffs=cos, sin_coeffs=sin)

    def format(self) -> str:
        parts = [f"cos:{j}={c}" for j, c in sorted(self.cos_coeffs.items())]
        parts += [f"sin:{j}={c}" for j, c in sorted(self.sin_coeffs.items())]
        return ",".join(parts)


# ----------------------------------------------------------------------
# Frequency expansion
# ----------------------------------------------------------------------

# Exact merges run on plain ints: coefficients are scaled by the lcm L of
# their denominators (by 2 L^2 for a squared expansion) and divided once at
# the end, which gives the same canonical Fractions.  Frequencies are keyed
# by (f.bit_length(), f): an int hashes as its value mod 2**61 - 1, so
# frequencies j * (2**k +- 1) alone would collide with period 61 in k.

def _scaled_terms(poly: TrigPolynomial) -> tuple[int, list[tuple[int, int, int]]]:
    """(L, [(j, L * cos coefficient, L * sin coefficient)]), L the lcm of the denominators."""
    terms = poly.terms()
    scale = math.lcm(*(x.denominator for _, a, b in terms for x in (a, b)))
    return scale, [(j, int(a * scale), int(b * scale)) for j, a, b in terms]


def _merge_add(acc: dict[tuple[int, int], list[int]], freq: int, c: int, s: int):
    key = (freq.bit_length(), freq)
    entry = acc.get(key)
    if entry is None:
        acc[key] = [c, s]
    else:
        entry[0] += c
        entry[1] += s


def _expand_scaled(
    poly: TrigPolynomial,
    seq: IntegerSequence,
    perm: PermutationWindow,
    count: int,
) -> tuple[int, dict[tuple[int, int], list[int]]]:
    """(L, merged L-scaled coefficients of the frequencies j * n_sigma(k), k <= count)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count > len(perm):
        raise ValueError(f"window {count} exceeds permutation length {len(perm)}")
    images = perm.images[:count].tolist()  # plain ints for the exact products
    if max(images, default=0) > len(seq):
        raise ValueError("permutation window exceeds sequence length")
    scale, terms = _scaled_terms(poly)
    acc: dict[tuple[int, int], list[int]] = {}
    for image in images:
        nu = seq.term(image)
        for j, a, b in terms:
            _merge_add(acc, j * nu, a, b)
    return scale, acc


def exact_variance(
    poly: TrigPolynomial,
    seq: IntegerSequence,
    perm: PermutationWindow,
    count: int,
) -> Fraction:
    """(1/N) * integral of (sum_{k<=N} f(n_sigma(k) x))^2 dx, exact rational.

    Orthogonality reduces the integral to the L2 mass of the merged
    expansion, summed on its scaled ints.
    """
    if count < 1:
        raise ValueError("count must be positive")
    scale, acc = _expand_scaled(poly, seq, perm, count)
    return Fraction(sum(c * c + s * s for c, s in acc.values()), 2 * scale * scale * count)


def l2_norm_sq(poly: TrigPolynomial) -> Fraction:
    """||f||^2 = sum_j (a_j^2 + b_j^2) / 2."""
    total = Fraction(0)
    for _, a, b in poly.terms():
        total += (a * a + b * b) / 2
    return total


def kac_variance(poly: TrigPolynomial) -> Fraction:
    """||f||^2 + 2 sum_{t>=1} <f(x), f(2^t x)>; the doubling-sequence limit.

    The inner products match frequencies j = 2^t * j', so the sum is finite:
    terms vanish once 2^t exceeds the degree.
    """
    total = l2_norm_sq(poly)
    d = poly.degree
    cos = poly.cos_coeffs
    sin = poly.sin_coeffs
    t = 1
    while (1 << t) <= d:
        shift = 1 << t
        inner = Fraction(0)
        for j in range(1, d // shift + 1):
            jc = shift * j
            inner += (cos.get(jc, Fraction(0)) * cos.get(j, Fraction(0))
                      + sin.get(jc, Fraction(0)) * sin.get(j, Fraction(0))) / 2
        total += 2 * inner
        t += 1
    return total


# ----------------------------------------------------------------------
# Mixture profiles (the non-Gaussian limit's conditional variance)
# ----------------------------------------------------------------------

@dataclass
class MixtureProfile:
    """v(x) = constant + sum_f coef * cos(2 pi f x) (+ sine part, empty for even f).

    The constant is the variance's flat part; retained low frequencies are
    those at or below the cutoff (the pairing constants c_m survive there).
    ``residual_mass`` is the L2 mass pushed above the cutoff -- it carries no
    constant term, so it washes out of the limit.
    """

    constant: Fraction
    cosine_terms: dict[int, Fraction] = field(default_factory=dict)
    sine_terms: dict[int, Fraction] = field(default_factory=dict)
    residual_mass: Fraction = Fraction(0)
    residual_count: int = 0
    freq_cutoff: int | None = None

    def __post_init__(self):
        if min((*self.cosine_terms, *self.sine_terms), default=1) < 1:
            raise ValueError("mixture profile frequencies must be >= 1")

    def values(self, xs: np.ndarray) -> np.ndarray:
        total = np.full_like(xs, float(self.constant), dtype=np.float64)
        for f, c in self.cosine_terms.items():
            total += float(c) * np.cos(2.0 * np.pi * f * xs)
        for f, s in self.sine_terms.items():
            total += float(s) * np.sin(2.0 * np.pi * f * xs)
        return total

    def to_json_dict(self) -> dict:
        return {
            "constant": str(self.constant),
            "cosine_terms": {str(f): str(c) for f, c in sorted(self.cosine_terms.items())},
            "sine_terms": {str(f): str(s) for f, s in sorted(self.sine_terms.items())},
            "residual_mass": str(self.residual_mass),
            "residual_count": self.residual_count,
            "freq_cutoff": self.freq_cutoff,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MixtureProfile":
        return cls(
            constant=Fraction(data["constant"]),
            cosine_terms={int(f): Fraction(c) for f, c in data["cosine_terms"].items()},
            sine_terms={int(f): Fraction(s) for f, s in data.get("sine_terms", {}).items()},
            residual_mass=Fraction(data.get("residual_mass", 0)),
            residual_count=int(data.get("residual_count", 0)),
            freq_cutoff=data.get("freq_cutoff"),
        )


def _square_expand(terms: list[tuple[int, int, int]],
                   constant: list[int],
                   acc: dict[tuple[int, int], list[int]]) -> None:
    """Accumulate 2 L^2 times the exact expansion of (sum_i c_i cos F_i + s_i sin F_i)^2.

    ``terms`` holds (F_i, L c_i, L s_i) as ints.  Product-to-sum identities;
    cos picks up the sign |F_i - F_j| freely, sin flips with it.  Zero
    frequencies fold into the constant.
    """
    n = len(terms)
    for i in range(n):
        fi, ci, si = terms[i]
        # squares: cos^2 = 1/2 + cos(2F)/2, sin^2 = 1/2 - cos(2F)/2,
        # 2 sin cos = sin(2F)
        constant[0] += ci * ci + si * si
        _merge_add(acc, 2 * fi, ci * ci - si * si, 2 * ci * si)
        for j in range(i + 1, n):
            fj, cj, sj = terms[j]
            fsum = fi + fj
            fdiff = fi - fj
            # 2 cos A cos B = cos(A-B) + cos(A+B)
            # 2 sin A sin B = cos(A-B) - cos(A+B)
            # 2 sin A cos B = sin(A+B) + sin(A-B)   (A = F_i, B = F_j)
            # 2 cos A sin B = sin(A+B) - sin(A-B)
            cc = 2 * ci * cj
            ss = 2 * si * sj
            sc = 2 * si * cj  # sin A cos B
            cs = 2 * ci * sj  # cos A sin B
            _merge_add(acc, fsum, cc - ss, sc + cs)
            diff_cos = cc + ss
            diff_sin = sc - cs
            if fdiff == 0:
                constant[0] += diff_cos
            elif fdiff > 0:
                _merge_add(acc, fdiff, diff_cos, diff_sin)
            else:
                _merge_add(acc, -fdiff, diff_cos, -diff_sin)


def _separated_start(degree: int, cert: PairingCertificate,
                     seq: IntegerSequence, freq_cutoff: int) -> int:
    """Index of the first pair of the longest tail of separated pairs.

    ``cert`` is verified on ``seq``.  Every frequency of a pair's squared
    expansion is alpha*n_u + beta*n_v with |alpha| + |beta| <= 2 * degree;
    with n_v = (c + b*n_u) / a it is ((a*alpha + b*beta) * n_u + beta*c) / a.
    It is low, beta*c/a, when a*alpha + b*beta = 0, and high otherwise, and
    then at least (n_u - 2 * degree * |c|) / |a|.  A pair with c != 0 is
    separated when
      n_u - 2 * degree * |c| > |a| * max(cutoff, 2 * degree * n_v of the
        previous pair): its high frequencies lie above the cutoff and above
        every frequency of an earlier pair;
      n_u - 2 * degree * |c| > 2 * degree * max_m |c_m|: they lie above
        every low frequency of any pair.  This also gives
        n_u > 4 * degree * |c|, so they differ from each other.
    So each high frequency of a separated pair is reached by that pair alone.
    Both conditions are checked as two comparisons of room =
    n_u - 2 * degree * |c|: with the larger of |a| * cutoff and
    2 * degree * max_m |c_m|, and with |a| * 2 * degree * n_v of the previous
    pair.  Each is a :func:`~lacunaria.permute.term_sign` call, the same
    integer inequality with every term moved to one side, so on a power
    form q**k + o it runs on exponents, exactly, and reads no term.
    """
    k = 2 * degree
    abs_a = abs(cert.a)
    floor = max(abs_a * freq_cutoff, k * max(abs(blk.c) for blk in cert.blocks))
    flat_c = [blk.c for blk in cert.blocks for _ in blk.pairs]
    pairs = cert.all_pairs
    sign = term_sign(seq)
    start = len(pairs)
    while start > 0:
        i = start - 1
        u = pairs[i][0]
        low = k * abs(flat_c[i])  # room = n_u - low
        if not (flat_c[i]
                and sign(1, u, 0, u, low + floor) > 0
                and (i == 0 or sign(1, u, -abs_a * k, pairs[i - 1][1], low) > 0)):
            break
        start = i
    return start


def mixture_profile(
    poly: TrigPolynomial,
    seq: IntegerSequence,
    perm: PermutationWindow,
    cert: PairingCertificate,
    freq_cutoff: int | None = None,
) -> MixtureProfile:
    """Exact expansion of (1/N) sum_pairs (f(n_u x) + f(n_v x))^2, N = certified slots.

    The constant term plus the merged terms at frequencies <= cutoff (default
    max |c_m|) form the limiting conditional variance; everything above the
    cutoff is reported as residual mass.

    Pairs before the separated tail (see :func:`_separated_start`) are
    expanded one by one.  A separated pair's high frequencies are its own and
    lie above the cutoff, and its low ones depend on c alone, so every
    separated pair of a block expands alike: the block's tail is expanded
    once, from its first pair, and counted for each of its pairs.  Only
    those pairs' terms are formed; the certificate check and the tail's
    start run on exponents when ``seq`` is a power form.
    """
    ok, problem = verify_certificate(perm, seq, cert)
    if not ok:
        raise ValueError(f"certificate invalid for (seq, perm): {problem}")
    pairs = cert.all_pairs
    if not pairs:
        raise ValueError("empty certificate")
    if freq_cutoff is None:
        freq_cutoff = max((abs(c) for c in cert.constants()), default=0)
    nonzero_cs = [abs(c) for c in cert.constants() if c]
    if nonzero_cs and freq_cutoff < min(nonzero_cs):
        warnings.warn(
            f"cutoff {freq_cutoff} below every pairing constant; "
            "the retained profile is constant",
            stacklevel=2,
        )

    scale, base_terms = _scaled_terms(poly)

    def pair_terms(u: int, v: int) -> list[tuple[int, int, int]]:
        return [(j * n, a, b) for n in (seq.term(u), seq.term(v)) for j, a, b in base_terms]

    start = _separated_start(poly.degree, cert, seq, freq_cutoff)
    constant = [0]
    acc: dict[tuple[int, int], list[int]] = {}
    residual = 0
    residual_count = 0
    i = 0
    for blk in cert.blocks:
        stop = i + len(blk.pairs)
        for u, v in pairs[i:min(stop, start)]:
            _square_expand(pair_terms(u, v), constant, acc)
        if stop > start:
            count = stop - max(i, start)
            own = [0]
            part: dict[tuple[int, int], list[int]] = {}
            _square_expand(pair_terms(*pairs[stop - count]), own, part)
            constant[0] += count * own[0]
            low = 2 * poly.degree * abs(blk.c)  # |a| * f <= low marks a low frequency
            for (_, f), (c, s) in part.items():
                if abs(cert.a) * f <= low:
                    _merge_add(acc, f, count * c, count * s)
                elif c or s:
                    residual += count * (c * c + s * s)
                    residual_count += count
        i = stop

    # every accumulated value is 2 L^2 times the true coefficient
    slots = 2 * len(pairs)
    denom = 2 * scale * scale * slots
    low_cos: dict[int, Fraction] = {}
    low_sin: dict[int, Fraction] = {}
    for (_, f), (c, s) in acc.items():
        if not c and not s:
            continue
        if f <= freq_cutoff:
            if c:
                low_cos[f] = Fraction(c, denom)
            if s:
                low_sin[f] = Fraction(s, denom)
        else:
            residual += c * c + s * s
            residual_count += 1
    return MixtureProfile(
        constant=Fraction(constant[0], denom),
        cosine_terms=low_cos,
        sine_terms=low_sin,
        # sum (c^2 + s^2) / 2 over the true coefficients, divided by slots^2
        residual_mass=Fraction(residual, 2 * denom * denom),
        residual_count=residual_count,
        freq_cutoff=freq_cutoff,
    )


# ----------------------------------------------------------------------
# Integrals over one period of a mixture profile
# ----------------------------------------------------------------------

EPS = 2.0 ** -53  # unit roundoff of float64
MAX_NODES = 1 << 16  # a profile whose integral needs more midpoints is refused


def midpoint_rule(profile: MixtureProfile, log_bound, target: float):
    """(v at the midpoints (j + 1/2) / M, floor, eval_err, truncation) for the fewest M.

    Where g(v(t)) is analytic on the strip |Im t| < a and at most K there,
    the M-node rule is off by at most truncation = 2K / (e^(2 pi M a) - 1)
    (Trefethen & Weideman, SIAM Review 56(3), 2014, Thm 3.2); M is the least
    that meets ``target`` over 64 strip widths.  For v = C + sum_f r_f
    cos(2 pi f t - phi_f) the strip has Re v >= lo = floor - sum_f r_f
    (cosh(2 pi f a) - 1) and |v| <= hi = |C| + sum_f r_f cosh(2 pi f a);
    ``log_bound(lo, hi)`` (on arrays) is ln K, or NaN / inf for no bound.
    floor <= v on the reals: the least v on G grid points, less
    pi sum_f f r_f / G (the most v moves between them) and eval_err.  Float
    v is within eval_err = 2^-53 sum_f (8 pi f + T + 2) |coefficient| over
    the T coefficients (f = 0 for the constant): the rounded angle 2 pi f t,
    then cos / sin (under 1 ulp), the products and the sum.
    """
    cos, sin = profile.cosine_terms, profile.sine_terms
    freqs = sorted(set(cos) | set(sin)) or [1]
    if freqs[-1] > MAX_NODES:
        raise ValueError(f"mixture profile frequency {freqs[-1]} needs over {MAX_NODES} midpoints")
    f = np.array(freqs, dtype=np.float64)
    r = np.array([math.hypot(cos.get(k, 0), sin.get(k, 0)) for k in freqs])
    coefs = [(0, profile.constant), *cos.items(), *sin.items()]
    eval_err = EPS * sum((8 * math.pi * k + len(coefs) + 2) * abs(float(c)) for k, c in coefs)
    grid = 4096
    floor = (float(profile.values(np.arange(grid) / grid).min())
             - math.pi * float(f @ r) / grid - eval_err)
    a = 2.0 ** (2 - np.arange(64) / 4) / (2 * math.pi * freqs[-1])  # 2 pi a f_max: 4 to 7e-5
    cosh = np.cosh(2 * math.pi * np.outer(a, f))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_k = log_bound(floor - (cosh - 1) @ r, abs(float(profile.constant)) + cosh @ r)
        need = np.logaddexp(0.0, math.log(2) - math.log(target) + log_k) / (2 * math.pi * a)
    nodes = np.where(np.isfinite(need), np.maximum(1.0, np.ceil(need)), np.inf)
    j = int(np.argmin(nodes))
    if not nodes[j] <= MAX_NODES:
        raise ValueError(f"no rule of at most {MAX_NODES} midpoints is bounded for this "
                         f"mixture profile (v >= {floor:.3e} is all that is proven)")
    m = int(nodes[j])
    x = 2 * math.pi * a[j] * m  # ln(e^x - 1) = x + ln(1 - e^-x)
    truncation = math.exp(math.log(2) + log_k[j] - x - math.log(-math.expm1(-x)))
    return profile.values((np.arange(m) + 0.5) / m), floor, eval_err, truncation


def mixture_charfn(profile: MixtureProfile, s: float, quad_tol: float = 1e-10) -> float:
    """phi(s) = integral_0^1 exp(-s^2 v(t) / 2) dt, within ``quad_tol``.

    The integrand is entire, at most exp(-s^2 lo / 2) on a strip, so its
    :func:`midpoint_rule` meets quad_tol / 2.  Float evaluation adds at most
    exp(-s^2 floor / 2) (s^2 eval_err + 4 * 2^-53) (the argument, exp's ulp,
    the exactly rounded sum, the division); a quad_tol below twice that is refused.
    """
    if not (math.isfinite(s) and 0 < quad_tol < math.inf):
        raise ValueError("s must be finite and quad_tol positive and finite")
    h = s * s / 2
    v, floor, eval_err, _ = midpoint_rule(profile, lambda lo, hi: -h * lo, quad_tol / 2)
    float_err = float(np.exp(-h * floor)) * (s * s * eval_err + 4 * EPS)
    if not float_err <= quad_tol / 2:
        raise ValueError(f"quad_tol {quad_tol:.3e} is below twice the float "
                         f"evaluation bound {float_err:.3e}")
    return math.fsum(np.exp(-h * v)) / len(v)
