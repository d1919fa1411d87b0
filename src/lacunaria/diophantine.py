"""Solution counting for linear Diophantine equations over sequence prefixes.

Two-term counts cover a*n_k + b*n_l = c over ordered pairs (k, l); profiles
sort every realized value and count its runs to expose where the count is
bounded uniformly in c (condition D2 / D2*) and where it grows with the prefix
length.  Multi-term counts (condition R / R* / R**) use meet-in-the-middle
enumeration with an explicit work budget: exceeding it is an error, never a
truncation.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from heapq import nsmallest
from itertools import chain, combinations, compress, count as count_from, islice, product
from math import comb, gcd
from operator import itemgetter, ne, sub

from .errors import WorkBudgetExceeded
from .seqgen import IntegerSequence

DEFAULT_BUDGET = 10**8
WITNESS_CAP = 100  # most witnesses count_multi_term returns


# ----------------------------------------------------------------------
# Queries and reports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TwoTermQuery:
    a: int
    b: int
    c: int
    count: int
    require_distinct: bool = False

    def __post_init__(self):
        if self.a == 0 or self.b == 0:
            raise ValueError("coefficients a, b must be nonzero")
        if self.count < 1:
            raise ValueError("prefix length must be at least 1")


@dataclass
class DioReport:
    """Per-(a, b) profile of ordered-pair solution counts over realized c.

    ``histogram`` is a sorted table c -> count that iterates in ascending
    c and is looked up by bisection rather than hashed.  In a profile, each
    primitive class (gcd(a, b) = 1) has one table, and every report reads
    c = f * key from it with f in {1, -1, g, -g}: (a, b) and (b, a) hold the
    same view, the mirrored pairs (-a, -b) / (-b, -a) one with f < 0, and
    the class g times it one with |f| = g.
    """

    a: int
    b: int
    max_count: int
    argmax_c: int | None
    histogram: _SortedHistogram
    witnesses: list[tuple[int, int]]
    prefix_growth: list[tuple[int, int]]  # (prefix length, max count)

    def __post_init__(self):
        if self.max_count != self.histogram.max_count:
            raise ValueError("max_count inconsistent with histogram")

    def csv_row(self) -> list:
        """a, b, max_count, argmax_c, then the growth at N/4, N/2 and N.

        Where two of those prefixes coincide (N <= 3) the value repeats.
        """
        growth = dict(self.prefix_growth)
        n = max(growth)
        return [
            self.a,
            self.b,
            self.max_count,
            "" if self.argmax_c is None else str(self.argmax_c),
            growth[max(1, n // 4)], growth[max(1, n // 2)], growth[n],
        ]


@dataclass(frozen=True)
class MultiTermQuery:
    p: int
    coeff_bound: int
    count: int
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("need at least 2 terms")
        if self.coeff_bound < 1:
            raise ValueError("coefficient bound must be at least 1")
        if self.count < 1:
            raise ValueError("prefix length must be at least 1")


# ----------------------------------------------------------------------
# Two-term counting
# ----------------------------------------------------------------------

def count_two_term(seq: IntegerSequence, query: TwoTermQuery) -> tuple[int, list[tuple[int, int]]]:
    """Exact count of ordered pairs (k, l) in [1, N]^2 with a*n_k + b*n_l = c.

    Terms are strictly increasing, so for each k there is at most one l,
    found by bisecting the prefix (no term is hashed).
    """
    n = query.count
    if n > len(seq):
        raise ValueError(f"prefix {n} exceeds sequence length {len(seq)}")
    terms = seq.prefix(n)
    witnesses = []
    for k, term in enumerate(terms, 1):
        rest = query.c - query.a * term
        if rest % query.b:
            continue
        target = rest // query.b
        l = bisect_left(terms, target)
        if l == n or terms[l] != target:
            continue
        l += 1
        if query.require_distinct and l == k:
            continue
        witnesses.append((k, l))
    return len(witnesses), witnesses


def _nonzero_coefficients(bound: int) -> list[int]:
    return [v for v in range(-bound, bound + 1) if v != 0]


def _coefficient_pairs(bound: int) -> list[tuple[int, int]]:
    rng = _nonzero_coefficients(bound)
    return [(a, b) for a in rng for b in rng]


def _growth_prefixes(count: int) -> list[int]:
    return sorted({max(1, count // 4), max(1, count // 2), count})


class _SortedHistogram(Mapping):
    """Read-only histogram: ascending c values and their counts, aligned.

    Lookups bisect and iteration is ascending; no c is ever hashed.  (On
    powers of 2 the int hash, the value mod 2^61 - 1, repeats with period 61
    in the exponent, so a dict keyed by c degenerates there.)  A view made by
    :meth:`times` reads the same two tuples with every c = factor * key, so
    a negated or scaled class copies nothing.  ``max_count``, the largest
    count, is found once per table and carried by every view of it.
    """

    __slots__ = ("_keys", "_counts", "_factor", "max_count")

    def __init__(self, keys: Iterable[int], counts: Iterable[int]):
        self._keys = tuple(keys)  # strictly ascending; a tuple is kept, not copied
        self._counts = tuple(counts)
        self._factor = 1
        self.max_count = max(self._counts, default=0)

    def times(self, f: int) -> _SortedHistogram:
        """This histogram with every c multiplied by ``f`` != 0, sharing its keys and counts."""
        view = object.__new__(_SortedHistogram)
        view._keys, view._counts, view._factor = self._keys, self._counts, self._factor * f
        view.max_count = self.max_count
        return view

    def __getitem__(self, c):
        key, rest = divmod(c, self._factor)
        i = bisect_left(self._keys, key)
        if rest or i == len(self._keys) or self._keys[i] != key:
            raise KeyError(c)
        return self._counts[i]

    def __len__(self):
        return len(self._keys)

    def __iter__(self):
        keys = self._keys if self._factor > 0 else reversed(self._keys)
        return map(self._factor.__mul__, keys)

    def values(self):
        return iter(self._counts) if self._factor > 0 else reversed(self._counts)

    def items(self):
        return zip(self, self.values())


def _pair_histogram(
    terms: list[int],
    a: int,
    b: int,
    prefixes: list[int],
    *,
    include_zero: bool,
    drop_diagonal: bool,
) -> tuple[_SortedHistogram, list[int]]:
    """Counts of a*n_k + b*n_l over ordered pairs, keyed by the value c.

    Also returns the largest count once each prefix length in ``prefixes``
    (ascending, the last one ``len(terms)``) is complete: the sums are
    collected in order of max(k, l), so each prefix is a head of one list,
    sorted (a copy, or the list itself for the last prefix) and counted by
    runs.  One mask marks where a run starts; the keys are the entries it
    marks, and the run lengths are measured only when some run is longer
    than 1 (pair sums are often all distinct).  c = 0 is left out unless
    ``include_zero``; ``drop_diagonal`` leaves the pairs k = l out of
    c = 0.  Terms are positive, so k = l gives c = 0 iff a + b = 0.
    """
    left = [a * t for t in terms]
    right = [b * t for t in terms]
    drop = drop_diagonal and a + b == 0
    sums: list[int] = []
    maxima = []
    done = 0
    for pfx in prefixes:
        for m in range(done, pfx):
            sums.extend(map(left[m].__add__, right[:m + 1]))  # (m, l), l <= m
            sums.extend(map(right[m].__add__, left[:m]))  # (k, m), k < m
        done = pfx
        if pfx < len(terms):
            ordered = sorted(sums)
        else:
            sums.sort()
            ordered = sums
        lo = bisect_left(ordered, 0)
        hi = bisect_right(ordered, 0, lo)
        del ordered[lo:hi]  # c = 0, counted apart
        at_zero = (hi - lo - (pfx if drop else 0)) if include_zero else 0
        starts = [True, *map(ne, islice(ordered, 1, None), ordered)]
        keys = list(compress(ordered, starts))
        if len(keys) == len(ordered):
            counts = [1] * len(keys)
        else:
            first = list(compress(count_from(), starts))
            counts = list(map(sub, chain(islice(first, 1, None), (len(ordered),)), first))
        maxima.append(max(max(counts, default=0), at_zero))
    if at_zero:
        at = bisect_left(keys, 0)
        keys.insert(at, 0)
        counts.insert(at, at_zero)
    return _SortedHistogram(keys, counts), maxima


def _argmax_c(hist: _SortedHistogram) -> int | None:
    """The c at the largest count; ties go to the smallest |c|, then to c > 0.

    Only the entries next to c = 0 are read: from the bisection point of 0,
    the first entry at the top count upwards, and the first one downwards
    that is no farther from 0.
    """
    top = hist.max_count
    if not top:
        return None
    keys, counts = hist._keys, hist._counts
    at = bisect_left(keys, 0)
    try:
        up = counts.index(top, at)
    except ValueError:
        up, lo = None, 0
    else:
        lo = bisect_left(keys, -keys[up], 0, at)  # a c < 0 farther from 0 cannot win
    down = range(at - 1, lo - 1, -1)
    down = next(compress(down, map(top.__eq__, map(counts.__getitem__, down))), None)
    nearest = (hist._factor * keys[i] for i in (up, down) if i is not None)
    return min(nearest, key=lambda c: (abs(c), c < 0))


def _profile(
    seq: IntegerSequence,
    coeff_bound: int,
    count: int,
    *,
    include_zero: bool,
    diagonal: str,
    budget: int,
) -> dict[tuple[int, int], DioReport]:
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    if count > len(seq):
        raise ValueError(f"prefix {count} exceeds sequence length {len(seq)}")
    if diagonal not in ("sum_zero", "literal"):
        raise ValueError("diagonal must be 'sum_zero' or 'literal'")
    pairs = _coefficient_pairs(coeff_bound)
    # hist(b, a) == hist(a, b) (swap k and l), and hist(-a, -b) is hist(a, b)
    # with every c negated; both diagonal rules are invariant under the two
    # maps, so one enumeration of the least pair serves the whole class
    representatives = [(a, b) for a, b in pairs if (a, b) <= min((b, a), (-a, -b), (-b, -a))]
    estimated = len(representatives) * count * count
    if estimated > budget:
        raise WorkBudgetExceeded(estimated, budget)
    terms = seq.prefix(count)
    prefixes = _growth_prefixes(count)
    reports: dict[tuple[int, int], DioReport] = {}
    # g*a*n_k + g*b*n_l = g*c iff a*n_k + b*n_l = c, and both diagonal rules
    # hold under scaling, so only primitive classes are enumerated; each is
    # done before the classes g times it, whose least pair is g times its own
    for a, b in sorted(representatives, key=lambda pair: gcd(*pair) > 1):
        g = gcd(a, b)
        drop_diag = a + b == 0 if diagonal == "sum_zero" else a == b
        if g == 1:
            hist, maxima = _pair_histogram(terms, a, b, prefixes, include_zero=include_zero,
                                           drop_diagonal=drop_diag)
            growth = list(zip(prefixes, maxima))
        else:
            primitive = reports[(a // g, b // g)]
            hist, growth = primitive.histogram.times(g), primitive.prefix_growth
        # (a, -a) is its own mirror: its swap (-a, a) already holds the negation
        orientations = [(hist, (a, b), (b, a))]
        if a + b:
            orientations.append((hist.times(-1), (-a, -b), (-b, -a)))
        for oriented, *members in orientations:
            arg = _argmax_c(oriented)
            for pa, pb in dict.fromkeys(members):
                witnesses = []
                if arg is not None:
                    q = TwoTermQuery(a=pa, b=pb, c=arg, count=count,
                                     require_distinct=include_zero and drop_diag and arg == 0)
                    _, witnesses = count_two_term(seq, q)
                reports[(pa, pb)] = DioReport(
                    a=pa, b=pb, max_count=hist.max_count, argmax_c=arg,
                    histogram=oriented, witnesses=witnesses, prefix_growth=list(growth),
                )
    return {pair: reports[pair] for pair in pairs}


def d2_profile(
    seq: IntegerSequence,
    coeff_bound: int,
    count: int,
    budget: int = DEFAULT_BUDGET,
) -> dict[tuple[int, int], DioReport]:
    """Solution-count histogram over realized nonzero c, for all 0 < |a|,|b| <= bound.

    The work (symmetry classes x count^2 pair evaluations) is checked
    against ``budget`` before any enumeration.
    """
    return _profile(seq, coeff_bound, count, include_zero=False, diagonal="sum_zero",
                    budget=budget)


def d2star_profile(
    seq: IntegerSequence,
    coeff_bound: int,
    count: int,
    diagonal: str = "sum_zero",
    budget: int = DEFAULT_BUDGET,
) -> dict[tuple[int, int], DioReport]:
    """As d2_profile but c = 0 included, minus the trivial diagonal solutions.

    ``diagonal="sum_zero"`` removes k = l pairs exactly when a + b = 0 (the
    coefficient pairs for which k = l solves the equation trivially);
    ``diagonal="literal"`` applies the proviso only at a = b, the literal
    reading, under which the a + b = 0 rows count all N diagonal pairs.
    """
    return _profile(seq, coeff_bound, count, include_zero=True, diagonal=diagonal,
                    budget=budget)


def aibe_ratio(seq: IntegerSequence, a: int, b: int, count: int,
               budget: int = DEFAULT_BUDGET) -> list[tuple[int, float]]:
    """(sup over c != 0 of the solution count) / N at N/4, N/2, N.

    A vanishing ratio is the two-term o(N) criterion for the unpermuted CLT;
    a non-decaying ratio pins the obstruction.  It is the ``prefix_growth``
    of the matching ``d2_profile`` report, divided by the prefix length.
    The count^2 pair sums are checked against ``budget`` before any term
    is read.
    """
    if a == 0 or b == 0:
        raise ValueError("coefficients must be nonzero")
    if count > len(seq):
        raise ValueError(f"prefix {count} exceeds sequence length {len(seq)}")
    if count * count > budget:
        raise WorkBudgetExceeded(count * count, budget)
    prefixes = _growth_prefixes(count)
    _, maxima = _pair_histogram(seq.prefix(count), a, b, prefixes,
                                include_zero=False, drop_diagonal=False)
    return [(pfx, m / pfx) for pfx, m in zip(prefixes, maxima)]


# ----------------------------------------------------------------------
# Multi-term counting (meet in the middle)
# ----------------------------------------------------------------------

def _estimate_entries(n: int, p: int, n_coeffs: int) -> int:
    h = (p + 1) // 2
    return comb(n, h) * n_coeffs**h + comb(n, p - h) * n_coeffs**(p - h)


_FIRST_INDEX = itemgetter(0)  # of a right-half entry (first index, indices, coefficients)


def count_multi_term(
    seq: IntegerSequence,
    query: MultiTermQuery,
) -> tuple[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Exact number of solutions of sum_i a_i n_{k_i} = 0, k_1 < ... < k_p <= N.

    Coefficients range over 0 < |a_i| <= coeff_bound.  The smaller half,
    the last p - h indices (h = ceil(p/2)), is stored keyed by its negated
    sum; the left half's sums stream past it one (h-1)-index prefix and
    coefficient vector at a time, and only the hits are visited.  A hit
    with last index k_h solves the equation with every right entry whose
    first index exceeds k_h.  Witnesses are (1-based indices, coefficients),
    at most ``WITNESS_CAP`` of them, ordered by the right tuple, then by the
    first left tuple with the hit's (sum, last index), then by the left
    tuple, each in enumeration order, which is the lexicographic order of
    (indices, coefficients); the count itself is always exact.
    Nondegenerate signed solutions are counted by
    :func:`count_signed_nondegenerate`.
    """
    n = query.count
    if n > len(seq):
        raise ValueError(f"prefix {n} exceeds sequence length {len(seq)}")
    if query.p > n:
        return 0, []
    coeffs = _nonzero_coefficients(query.coeff_bound)
    estimated = _estimate_entries(n, query.p, len(coeffs))
    if estimated > query.budget:
        raise WorkBudgetExceeded(estimated, query.budget)

    terms = seq.prefix(n)
    h = (query.p + 1) // 2
    # coeffs ascend, so (indices, coefficients) tuples come in lexicographic
    # order, which is their rank; -sum -> right entries, first index ascending
    right: dict[int, list] = {}
    for idx in combinations(range(n), query.p - h):  # p - h >= 1 since p >= 2
        values = [terms[i] for i in idx]
        for cs in product(coeffs, repeat=query.p - h):
            right.setdefault(-sum(map(int.__mul__, cs, values)), []).append((idx[0], idx, cs))

    scaled = [[c * t for t in terms] for c in coeffs]
    hits = []  # (left tuple, (sum, last index), right entries it solves with)
    first: dict[tuple[int, int], tuple] = {}  # (sum, last index) -> its least left tuple
    for prefix in combinations(range(n), h - 1):
        lo = prefix[-1] + 1 if prefix else 0
        values = [terms[i] for i in prefix]
        for cp in product(coeffs, repeat=h - 1):
            head = sum(map(int.__mul__, cp, values))
            for c, row in zip(coeffs, scaled):
                sums = map(head.__add__, islice(row, lo, None))
                for j in compress(range(lo, n), map(right.__contains__, sums)):
                    entries = right[head + row[j]]
                    matches = entries[bisect_right(entries, j, key=_FIRST_INDEX):]
                    if matches:
                        left, group = ((*prefix, j), (*cp, c)), (head + row[j], j)
                        first[group] = min(first.get(group, left), left)
                        hits.append((left, group, matches))

    total = sum(len(matches) for *_, matches in hits)
    best = nsmallest(WITNESS_CAP, (
        ((ridx, rcs), first[group], left)
        for left, group, matches in hits
        for _, ridx, rcs in matches))
    return total, [(tuple(i + 1 for i in lidx + ridx), lcs + rcs)
                   for (ridx, rcs), _, (lidx, lcs) in best]


def _proper_subsum_zero(values: list[int]) -> bool:
    """True if some proper nonempty subset of the signed terms sums to 0."""
    p = len(values)
    for mask in range(1, (1 << p) - 1):
        s = 0
        m, i = mask, 0
        while m:
            if m & 1:
                s += values[i]
            m >>= 1
            i += 1
        if s == 0:
            return True
    return False


def count_signed_nondegenerate(
    seq: IntegerSequence,
    p: int,
    count: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Nondegenerate solutions of +-n_{k_1} +- ... +- n_{k_p} = 0, k_1 < ... < k_p.

    A solution is degenerate when a proper nonempty subsum vanishes (checked
    over all 2^p subsets).  Sign patterns related by a global flip are
    counted once, via the canonical form s_1 = +1.
    """
    if count > len(seq):
        raise ValueError(f"prefix {count} exceeds sequence length {len(seq)}")
    if p < 2:
        raise ValueError("need at least 2 terms")
    if count < 1:
        raise ValueError("prefix length must be at least 1")
    if p > count:
        return 0, []
    estimated = comb(count, p) * 2 ** (p - 1)
    if estimated > budget:
        raise WorkBudgetExceeded(estimated, budget)
    terms = seq.prefix(count)
    solutions = []
    for idx in combinations(range(count), p):
        values = [terms[i] for i in idx]
        for signs in product((1, -1), repeat=p - 1):
            full = (1,) + signs
            contributions = [s * v for s, v in zip(full, values)]
            if sum(contributions) != 0:
                continue
            if _proper_subsum_zero(contributions):
                continue
            solutions.append((tuple(i + 1 for i in idx), full))
    return len(solutions), solutions


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def _json_pairs(pairs: list[tuple[int, int]]) -> str:
    """A list of int pairs at report depth, laid out as ``json.dumps(indent=2)``."""
    if not pairs:
        return "[]"
    rows = ",\n".join(f"      [\n        {x},\n        {y}\n      ]" for x, y in pairs)
    return f"[\n{rows}\n    ]"


_NEGATIVE_SEP = ',\n      "-'  # between two histogram rows at report depth, c < 0
_POSITIVE_SEP = ',\n      "'  # the same, c >= 0


def _histogram_rows(hist: _SortedHistogram) -> tuple[list[str], list[str], list[str]]:
    """Rows ``'<|c|>": <n>'`` of the table at c = |factor| * key, split by the key's sign.

    The groups are (key < 0, key = 0, key > 0).  This is the only place a c
    is turned into decimal; both signs of a factor are laid out from the
    same rows by :func:`_histogram_parts`.  Each row is one f-string: |c|
    in decimal, then the table's text for its count (a count is at most N,
    so those texts are made once per table).  At |factor| = 1 a key is
    written as it is, and only the keys below 0 are negated.
    """
    keys, counts = hist._keys, hist._counts
    lo = bisect_left(keys, 0)
    hi = bisect_right(keys, 0, lo)
    tail = [f'": {n}' for n in range(hist.max_count + 1)]
    g = abs(hist._factor)
    if g == 1:
        below = [f"{-k}{tail[n]}" for k, n in zip(keys[:lo], counts[:lo])]
        above = [f"{k}{tail[n]}" for k, n in zip(keys[hi:], counts[hi:])]
    else:
        below = [f"{-g * k}{tail[n]}" for k, n in zip(keys[:lo], counts[:lo])]
        above = [f"{g * k}{tail[n]}" for k, n in zip(keys[hi:], counts[hi:])]
    return below, [f"0{tail[n]}" for n in counts[lo:hi]], above


def _histogram_parts(rows: tuple[list[str], list[str], list[str]], mirrored: bool) -> list[str]:
    """One histogram at report depth, as ``json.dumps(indent=2)`` lays it out.

    ``mirrored`` lays out the histogram with every c negated: the rows run
    in reverse and the two signed groups trade places.
    """
    below, at_zero, above = rows
    if mirrored:
        below, above = above[::-1], below[::-1]
    if not (below or at_zero or above):
        return ["{}"]
    parts = ['{\n      "-', _NEGATIVE_SEP.join(below)] if below else []
    if at_zero or above:
        parts += [_POSITIVE_SEP if below else '{\n      "', _POSITIVE_SEP.join(at_zero + above)]
    parts.append("\n    }")
    return parts


def _profile_json_parts(reports: dict[tuple[int, int], DioReport]) -> Iterator[str]:
    """The text of :func:`profile_to_json` in pieces, in order.

    :func:`_histogram_rows` writes the rows of a table at scale |factor|
    once, for both signs, and :func:`_histogram_parts` lays them out once
    per (table, factor), for every report that reads that view (swapped
    pairs do).  A profile holds one table per primitive class, so its text
    costs one decimal conversion per entry and class scale.  Rows and
    layouts are keyed by ``id`` of the key tuple, which the reports keep
    alive.
    """
    if not reports:
        yield "[]"
        return
    rows: dict[tuple[int, int], tuple] = {}  # (id(keys), |factor|) -> rows
    laid_out: dict[tuple[int, int], list[str]] = {}  # (id(keys), factor) -> parts
    lead = "[\n"
    for key in sorted(reports):
        r = reports[key]
        hist = r.histogram
        view = (id(hist._keys), hist._factor)
        if view not in laid_out:
            scale = (view[0], abs(hist._factor))
            if scale not in rows:
                rows[scale] = _histogram_rows(hist)
            laid_out[view] = _histogram_parts(rows[scale], hist._factor < 0)
        argmax = "null" if r.argmax_c is None else f'"{r.argmax_c}"'
        yield (f'{lead}  {{\n    "a": {r.a},\n    "b": {r.b},\n    "max_count": {r.max_count},\n'
               f'    "argmax_c": {argmax},\n    "histogram": ')
        yield from laid_out[view]
        yield (f',\n    "witnesses": {_json_pairs(r.witnesses)},\n'
               f'    "prefix_growth": {_json_pairs(r.prefix_growth)}\n  }}')
        lead = ",\n"
    yield "\n]"


def profile_to_json(reports: dict[tuple[int, int], DioReport]) -> str:
    """The reports in key order as ``json.dumps(..., indent=2)`` lays them out, written directly.

    Each report is the object {a, b, max_count, argmax_c (decimal string or
    null), histogram (decimal c -> count, ascending c), witnesses,
    prefix_growth}.  The text is built from f-strings and joins (the ``indent`` path of the
    json module is pure Python and slow at 10^7 histogram entries), and the
    document is joined once.
    """
    return "".join(_profile_json_parts(reports))


def write_profile_json(reports: dict[tuple[int, int], DioReport], path) -> None:
    """The text of :func:`profile_to_json`, streamed to ``path`` piece by piece."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_profile_json_parts(reports))


def write_profile_csv(reports: dict[tuple[int, int], DioReport], path) -> None:
    """Summary rows: a,b,max_count,argmax_c,count_N4,count_N2,count_N."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "max_count", "argmax_c",
                         "count_N4", "count_N2", "count_N"])
        for key in sorted(reports):
            writer.writerow(reports[key].csv_row())
