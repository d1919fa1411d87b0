"""Brute-force oracles shared by the unit and acceptance suites.

These deliberately avoid the library's hash-based counting: two-term counts
go through sort-and-run-length, multi-term counts through exhaustive tuple
enumeration.
"""

from itertools import combinations, product


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
