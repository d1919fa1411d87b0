"""Brute-force oracles shared by the unit and acceptance suites.

These deliberately avoid the library's counting paths: two-term counts go
through a pair-by-pair sort-and-run-length, multi-term counts through
exhaustive tuple enumeration (and, for witness order, a table of the whole
left half), signed nondegenerate solutions with a subset-by-subset
degeneracy check, and profile reports through ``json.dumps`` of plain dicts.
The spectral oracles merge ``Fraction`` coefficients under plain frequency
keys, term by term, where the library merges scaled ints.  The tabulated
Kolmogorov thresholds are the tests' own acceptance levels for a KS distance.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np


def brute_two_term_histogram(terms, a, b, include_zero=False, drop_diagonal=False):
    """Per-c counts of a*n_k + b*n_l over ordered pairs, by sorting."""
    left = [a * t for t in terms]
    right = [b * t for t in terms]
    values = []
    n = len(terms)
    for k in range(n):
        lk = left[k]
        for l in range(n):
            c = lk + right[l]
            if c == 0:
                if not include_zero:
                    continue
                if drop_diagonal and k == l:
                    continue
            values.append(c)
    values.sort()
    hist = {}
    i = 0
    total = len(values)
    while i < total:
        j = i
        v = values[i]
        while j < total and values[j] == v:
            j += 1
        hist[v] = j - i
        i = j
    return hist


def brute_profile_report(terms, a, b, include_zero=False, drop_diagonal=False):
    """Every field of one profile report, enumerated pair by pair.

    The maximum count goes to the smallest |c|, then to c > 0; growth
    re-enumerates each prefix N/4, N/2, N; witnesses are the ordered
    1-based pairs (k, l) solving the equation at that c.
    """
    n = len(terms)
    hist = brute_two_term_histogram(terms, a, b, include_zero, drop_diagonal)
    argmax_c = max(hist, key=lambda c: (hist[c], -abs(c), c)) if hist else None
    growth = [
        (p, max(brute_two_term_histogram(terms[:p], a, b, include_zero, drop_diagonal).values(),
                default=0))
        for p in sorted({max(1, n // 4), max(1, n // 2), n})
    ]
    witnesses = [
        (k + 1, l + 1)
        for k in range(n) for l in range(n)
        if argmax_c is not None and a * terms[k] + b * terms[l] == argmax_c
        and not (drop_diagonal and argmax_c == 0 and k == l)
    ]
    return {"histogram": hist, "max_count": max(hist.values(), default=0),
            "argmax_c": argmax_c, "prefix_growth": growth, "witnesses": witnesses}


def brute_multi_term(terms, p, bound):
    """Exhaustive count of k_1 < ... < k_p with nonzero |a_i| <= bound."""
    coeffs = [v for v in range(-bound, bound + 1) if v != 0]
    vectors = list(product(coeffs, repeat=p))
    total = 0
    for idx in combinations(range(len(terms)), p):
        vals = tuple(terms[i] for i in idx)
        for cs in vectors:
            s = 0
            for c, v in zip(cs, vals):
                s += c * v
            if s == 0:
                total += 1
    return total


def table_multi_term(terms, p, bound, cap=100):
    """(count, first ``cap`` witnesses) of sum_i a_i n_{k_i} = 0, k_1 < ... < k_p.

    Meet in the middle the other way round: every left-half sum (h = ceil(p/2)
    indices) goes into a table keyed by sum and then last index, in order of
    first insertion, and each right-half tuple probes it with its negated sum.
    Witnesses come out in that probe order; the library must match it.
    """
    coeffs = [v for v in range(-bound, bound + 1) if v != 0]

    def half_sums(size):
        for idx in combinations(range(len(terms)), size):
            values = [terms[i] for i in idx]
            for cs in product(coeffs, repeat=size):
                yield sum(c * v for c, v in zip(values, cs)), idx, cs

    h = (p + 1) // 2
    table = {}  # sum -> last index -> [count, first witnesses]
    for s, idx, cs in half_sums(h):
        entry = table.setdefault(s, {}).setdefault(idx[-1], [0, []])
        entry[0] += 1
        if len(entry[1]) < cap:
            entry[1].append((idx, cs))
    total = 0
    witnesses = []
    for s, idx, cs in half_sums(p - h):
        for last, (cnt, wits) in table.get(-s, {}).items():
            if last < idx[0]:
                total += cnt
                for lidx, lcs in wits[:cap - len(witnesses)]:
                    witnesses.append((tuple(i + 1 for i in lidx + idx), lcs + cs))
    return total, witnesses


def report_json_dict(report):
    """One profile report as the plain dict whose ``json.dumps`` the writer reproduces."""
    return {
        "a": report.a,
        "b": report.b,
        "max_count": report.max_count,
        "argmax_c": None if report.argmax_c is None else str(report.argmax_c),
        "histogram": {str(c): n for c, n in sorted(report.histogram.items())},
        "witnesses": [[k, l] for k, l in report.witnesses],
        "prefix_growth": [[n, m] for n, m in report.prefix_growth],
    }


def brute_signed_nondegenerate(terms, p):
    """Ordered solutions ((k_1..k_p), signs) of +-n_{k_1} ... +-n_{k_p} = 0, s_1 = +1.

    A solution counts when no proper nonempty subset of its signed terms
    sums to 0; every subset is formed explicitly by its size.
    """
    out = []
    for idx in combinations(range(len(terms)), p):
        for tail in product((1, -1), repeat=p - 1):
            signs = (1,) + tail
            signed = [s * terms[i] for s, i in zip(signs, idx)]
            if sum(signed) != 0:
                continue
            if any(sum(sub) == 0 for r in range(1, p) for sub in combinations(signed, r)):
                continue
            out.append((tuple(i + 1 for i in idx), signs))
    return out


def sorted_index_rows(images):
    """Sorted distinct indices of a window's images and each slot's row in
    them, by sort and binary search (the evaluator builds them in one rank
    pass instead)."""
    images = np.asarray(images, dtype=np.int64)
    indices = np.sort(images)
    return indices.tolist(), np.searchsorted(indices, images)


def lil_running_max_checkpoints(prefix, variance):
    """LIL checkpoints from the running max over every N' = 16..len(prefix)
    of |S_N'| / sqrt(2 variance N' ln ln N'), read at each power of two (the
    evaluator takes segment maxima instead)."""
    n_max = len(prefix)
    ns = np.arange(16, n_max + 1, dtype=np.float64)
    ratios = np.abs(prefix[15:]) / np.sqrt(2.0 * variance * ns * np.log(np.log(ns)))
    running = np.maximum.accumulate(ratios)
    out = []
    n = 16
    while n <= n_max:
        out.append((n, float(running[n - 16])))
        n *= 2
    return out


def kolmogorov_threshold(samples: int, level: float = 0.01) -> float:
    """Critical KS distance: K_alpha / sqrt(M) for the usual alpha levels."""
    table = {0.10: 1.224, 0.05: 1.358, 0.02: 1.517, 0.01: 1.628}
    if level not in table:
        raise ValueError(f"no tabulated threshold for level {level}")
    return table[level] / math.sqrt(samples)


def cycle_count(perm):
    """Number of cycles of a PermutationWindow."""
    seen = [False] * len(perm.images)
    cycles = 0
    for start in range(len(perm.images)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm.images[j] - 1
    return cycles


def _merge_add(acc, freq, c, s):
    entry = acc.get(freq)
    if entry is None:
        acc[freq] = [c, s]
    else:
        entry[0] += c
        entry[1] += s


def brute_expand(poly, seq, perm, count):
    """Frequency -> (cos, sin) Fractions of sum_{k<=count} f(n_sigma(k) x), zeros dropped."""
    acc = {}
    for slot in range(1, count + 1):
        nu = seq.term(perm.images[slot - 1])
        for j, a, b in poly.terms():
            _merge_add(acc, j * nu, a, b)
    return {f: (c, s) for f, (c, s) in acc.items() if c or s}


def _square_expand(terms, constant, acc):
    """Accumulate the exact expansion of (sum_i c_i cos F_i + s_i sin F_i)^2."""
    n = len(terms)
    for i in range(n):
        fi, ci, si = terms[i]
        constant[0] += (ci * ci + si * si) / 2
        _merge_add(acc, 2 * fi, (ci * ci - si * si) / 2, ci * si)
        for j in range(i + 1, n):
            fj, cj, sj = terms[j]
            cc, ss, sc, cs = ci * cj, si * sj, si * cj, ci * sj
            _merge_add(acc, fi + fj, cc - ss, sc + cs)
            fdiff = fi - fj
            if fdiff == 0:
                constant[0] += cc + ss
            elif fdiff > 0:
                _merge_add(acc, fdiff, cc + ss, sc - cs)
            else:
                _merge_add(acc, -fdiff, cc + ss, cs - sc)


def brute_mixture_profile(poly, seq, cert, freq_cutoff=None):
    """Every exact field of ``mixture_profile``, expanded pair by pair in Fractions.

    The dicts keep the order in which each frequency was first reached.
    """
    if freq_cutoff is None:
        freq_cutoff = max(abs(c) for c in cert.constants())
    constant = [Fraction(0)]
    acc = {}
    for u, v in cert.all_pairs:
        terms = [(j * seq.term(w), a, b) for w in (u, v) for j, a, b in poly.terms()]
        _square_expand(terms, constant, acc)
    slots = 2 * len(cert.all_pairs)
    low_cos, low_sin, residual, residual_count = {}, {}, Fraction(0), 0
    for f, (c, s) in acc.items():
        if not c and not s:
            continue
        if f <= freq_cutoff:
            if c:
                low_cos[f] = c / slots
            if s:
                low_sin[f] = s / slots
        else:
            residual += (c * c + s * s) / 2
            residual_count += 1
    return {"constant": constant[0] / slots, "cosine_terms": low_cos,
            "sine_terms": low_sin, "residual_mass": residual / (slots * slots),
            "residual_count": residual_count}


def bessel_i0(z):
    """Modified Bessel I0 by its power series; converges for all real z."""
    term = 1.0
    total = 1.0
    m = 0
    zz = z * z / 4.0
    while True:
        m += 1
        term *= zz / (m * m)
        total += term
        if term < 1e-18 * total:
            return total


def mixture_charfn_closed_form(profile, s):
    """e^{-s^2 gamma^2 / 2} * I0(beta s^2 / 2) for v = gamma^2 + beta cos(2 pi c x).

    Only valid when the profile has exactly one cosine term and no sine part.
    """
    if len(profile.cosine_terms) != 1 or profile.sine_terms:
        raise ValueError("closed form needs a single-cosine profile")
    beta = float(next(iter(profile.cosine_terms.values())))
    gamma_sq = float(profile.constant)
    return math.exp(-s * s * gamma_sq / 2.0) * bessel_i0(abs(beta) * s * s / 2.0)
