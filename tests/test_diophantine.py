import dataclasses
import hashlib
import json
from itertools import combinations, product
from math import gcd

import pytest

from lacunaria import diophantine
from lacunaria.diophantine import (
    DioReport,
    MultiTermQuery,
    TwoTermQuery,
    aibe_ratio,
    count_multi_term,
    count_signed_nondegenerate,
    count_two_term,
    d2_profile,
    d2star_profile,
    profile_to_json,
    write_profile_csv,
)
from lacunaria.errors import WorkBudgetExceeded
from lacunaria.seqgen import (
    IntegerSequence,
    RStarParams,
    gen_geometric,
    gen_power,
    gen_random_rstar,
    gen_smooth,
)
from oracles import (
    brute_profile_report,
    brute_signed_nondegenerate,
    report_json_dict,
    table_multi_term,
)


# ---------------- independent oracles ----------------

def brute_two_term_histogram(terms, a, b, include_zero=False, drop_diagonal=False):
    """Sort-based per-c counts over ordered pairs; independent of the hash path."""
    values = []
    n = len(terms)
    for k in range(n):
        for l in range(n):
            c = a * terms[k] + b * terms[l]
            if c == 0:
                if not include_zero:
                    continue
                if drop_diagonal and k == l:
                    continue
            values.append(c)
    values.sort()
    hist = {}
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[j] == values[i]:
            j += 1
        hist[values[i]] = j - i
        i = j
    return hist


def brute_multi_term(terms, p, bound):
    """Exhaustive count of increasing index tuples with nonzero bounded coeffs."""
    coeffs = [v for v in range(-bound, bound + 1) if v != 0]
    total = 0
    for idx in combinations(range(len(terms)), p):
        vals = [terms[i] for i in idx]
        for cs in product(coeffs, repeat=p):
            if sum(c * v for c, v in zip(cs, vals)) == 0:
                total += 1
    return total


# ---------------- count_two_term ----------------

def test_erdos_fortet_identity():
    # n_{k+1} - 2 n_k = 1 for n_k = 2^k - 1
    seq = gen_power(2, -1, 20)
    count, wits = count_two_term(seq, TwoTermQuery(a=1, b=-2, c=1, count=20))
    assert count == 19
    assert all(k == l + 1 for k, l in wits)


def test_pow2_doubling_relation():
    seq = gen_power(2, 0, 20)
    count, wits = count_two_term(
        seq, TwoTermQuery(a=1, b=-2, c=0, count=20, require_distinct=True)
    )
    assert count == 19
    assert all(k == l + 1 for k, l in wits)


def test_pow2_no_representation_of_5():
    seq = gen_power(2, 0, 10)
    count, _ = count_two_term(seq, TwoTermQuery(a=1, b=1, c=5, count=10))
    assert count == 0


def test_two_term_prefix_bound():
    seq = gen_power(2, 0, 5)
    with pytest.raises(ValueError):
        count_two_term(seq, TwoTermQuery(a=1, b=1, c=4, count=6))


def test_two_term_monotone_in_prefix():
    seq = gen_power(2, -1, 50)
    counts = [
        count_two_term(seq, TwoTermQuery(a=1, b=-2, c=1, count=n))[0]
        for n in (10, 20, 30, 50)
    ]
    assert counts == sorted(counts)


def test_two_term_matches_brute_force():
    # every ordered pair (k, l) solving a n_k + b n_l = c, in order of k,
    # at realized c (c = 0 among them when a + b = 0) and at a few others
    n = 40
    for seq in corpus():
        terms = seq.prefix(n)
        for a, b in ((1, -1), (1, -2), (2, -1), (-3, 2), (1, 1), (2, 3)):
            realized = {a * terms[k] + b * terms[l]
                        for k in (0, 3, 17, n - 1) for l in (0, 5, n - 1)}
            for c in sorted(realized | {0, 1, -1, 7}):
                for distinct in (False, True):
                    want = [(k + 1, l + 1) for k in range(n) for l in range(n)
                            if a * terms[k] + b * terms[l] == c and not (distinct and k == l)]
                    got = count_two_term(seq, TwoTermQuery(a=a, b=b, c=c, count=n,
                                                           require_distinct=distinct))
                    assert got == (len(want), want), (seq.provenance, a, b, c, distinct)


# ---------------- profiles vs oracle ----------------

CORPUS = None


def corpus():
    global CORPUS
    if CORPUS is None:
        CORPUS = [
            gen_power(2, 0, 200),
            gen_power(2, -1, 200),
            gen_geometric("3/2", 2, 200),
            gen_smooth({2, 3}, 200),
            gen_random_rstar(RStarParams(alpha=1.0, a=50, count=200, seed=20260810)),
        ]
    return CORPUS


def test_d2_profile_matches_brute_force():
    for seq in corpus():
        terms = seq.prefix(60)
        reports = d2_profile(seq, 2, 60)
        for (a, b), rep in reports.items():
            oracle = brute_two_term_histogram(terms, a, b)
            assert rep.histogram == oracle, (seq.provenance, a, b)


def test_d2star_profile_matches_brute_force():
    for seq in corpus():
        terms = seq.prefix(50)
        reports = d2star_profile(seq, 2, 50)
        for (a, b), rep in reports.items():
            oracle = brute_two_term_histogram(
                terms, a, b, include_zero=True, drop_diagonal=(a + b == 0)
            )
            assert rep.histogram == oracle, (seq.provenance, a, b)


PAIR_HISTOGRAM_SEQS = {
    "pow3": gen_power(3, 0, 7),  # base-3 digits: a*n_k + 2*n_l never repeats
    "geometric": gen_geometric("3/2", 2, 7),
    "smooth": gen_smooth({2, 3}, 7),  # many collisions
    "pow2m1": gen_power(2, -1, 7),
}


@pytest.mark.parametrize("include_zero", [False, True])
@pytest.mark.parametrize("diagonal", ["sum_zero", "literal"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("name", sorted(PAIR_HISTOGRAM_SEQS))
def test_pair_histogram_matches_brute_force(name, n, diagonal, include_zero):
    # the table at N and the largest count at every growth prefix (N/4, N/2
    # and N coincide in part at these N) against pair-by-pair enumeration
    terms = PAIR_HISTOGRAM_SEQS[name].prefix(n)
    prefixes = diophantine._growth_prefixes(n)
    for a, b in diophantine._coefficient_pairs(3):
        drop = a + b == 0 if diagonal == "sum_zero" else a == b
        hist, maxima = diophantine._pair_histogram(terms, a, b, prefixes,
                                                   include_zero=include_zero, drop_diagonal=drop)
        want = brute_two_term_histogram(terms, a, b, include_zero, drop)
        assert list(hist.items()) == sorted(want.items()), (a, b)
        assert hist.max_count == max(want.values(), default=0)
        assert maxima == [max(brute_two_term_histogram(terms[:p], a, b, include_zero,
                                                       drop).values(), default=0)
                          for p in prefixes], (a, b)


def test_pair_histogram_reaches_its_edges():
    pow3, smooth = PAIR_HISTOGRAM_SEQS["pow3"], PAIR_HISTOGRAM_SEQS["smooth"]

    def counts(seq, n, a, b, include_zero=False):
        hist, _ = diophantine._pair_histogram(seq.prefix(n), a, b, diophantine._growth_prefixes(n),
                                              include_zero=include_zero, drop_diagonal=a + b == 0)
        return sorted(hist.values())

    # N = 1, a + b = 0: the only pair solves c = 0, so no entry is left
    assert counts(pow3, 1, 1, -1) == []
    assert counts(pow3, 1, 2, -2, include_zero=True) == []
    # every pair sum distinct, then (1, 1): each off-diagonal sum counts twice
    assert counts(pow3, 7, 1, 2) == [1] * 49
    assert counts(pow3, 7, 1, 1) == [1] * 7 + [2] * 21
    # runs longer than 2 (1 + 3 = 2 + 2 = 4)
    assert counts(smooth, 7, 1, 1)[-1] > 2
    assert counts(smooth, 7, 1, -1, include_zero=True)[-1] > 2


def _fields(rep):
    return {"histogram": rep.histogram, "max_count": rep.max_count,
            "argmax_c": rep.argmax_c, "prefix_growth": rep.prefix_growth,
            "witnesses": rep.witnesses}


def test_symmetry_classes_match_oracle_reports():
    # one enumeration per class {(a,b), (b,a), (-a,-b), (-b,-a)}; every
    # derived report must still equal its own brute-force report
    for seq in corpus():
        terms = seq.prefix(60)
        runs = [
            (d2_profile(seq, 3, 60), False, "sum_zero"),
            (d2star_profile(seq, 3, 60), True, "sum_zero"),
            (d2star_profile(seq, 3, 60, diagonal="literal"), True, "literal"),
        ]
        for reports, include_zero, diagonal in runs:
            assert len(reports) == 36
            for (a, b), rep in reports.items():
                drop = include_zero and (a + b == 0 if diagonal == "sum_zero" else a == b)
                want = brute_profile_report(terms, a, b, include_zero, drop)
                assert _fields(rep) == want, (seq.provenance, include_zero, diagonal, a, b)


SCALING_CORPUS = {
    "pow2": lambda n: gen_power(2, 0, n),
    "pow2m1": lambda n: gen_power(2, -1, n),
    "pow3": lambda n: gen_power(3, 0, n),
    "smooth": lambda n: gen_smooth({2, 3}, n),
    "rstar": lambda n: gen_random_rstar(RStarParams(alpha=1.0, a=50, count=n, seed=20260810)),
}


@pytest.mark.parametrize("name", sorted(SCALING_CORPUS))
def test_scaled_classes_match_oracle_reports(name):
    # at bound 4, (2, 4), (4, 4), (-2, 4), (2, 2), ... read the tables of
    # (1, 2), (1, 1), (-1, 2), (1, 1) scaled; every report still equals its
    # own brute-force report, and its witnesses those count_two_term finds
    for n in (1, 2, 7, 30):
        seq = SCALING_CORPUS[name](n)
        terms = seq.prefix(n)
        runs = [
            (d2_profile(seq, 4, n), False, "sum_zero"),
            (d2star_profile(seq, 4, n), True, "sum_zero"),
            (d2star_profile(seq, 4, n, diagonal="literal"), True, "literal"),
        ]
        for reports, include_zero, diagonal in runs:
            assert len(reports) == 64
            for (a, b), rep in reports.items():
                drop = include_zero and (a + b == 0 if diagonal == "sum_zero" else a == b)
                want = brute_profile_report(terms, a, b, include_zero, drop)
                assert _fields(rep) == want, (name, n, include_zero, diagonal, a, b)
                if rep.argmax_c is not None:
                    q = TwoTermQuery(a=a, b=b, c=rep.argmax_c, count=n,
                                     require_distinct=drop and rep.argmax_c == 0)
                    assert count_two_term(seq, q) == (rep.max_count, rep.witnesses)


def test_scaled_class_shares_its_primitive_counts():
    reports = d2star_profile(gen_smooth({2, 3}, 40), 4, 40)
    for (a, b), g in (((2, 4), 2), ((4, 4), 4), ((-2, 4), 2), ((3, -3), 3), ((-4, -2), 2)):
        hist, base = reports[(a, b)].histogram, reports[(a // g, b // g)].histogram
        assert hist._counts is base._counts and hist.max_count == base.max_count
        assert hist._keys is base._keys
        assert list(hist) == [g * c for c in base]
        assert reports[(a, b)].argmax_c == g * reports[(a // g, b // g)].argmax_c


@pytest.mark.parametrize("profile,bound,tables", [(d2_profile, 3, 8), (d2star_profile, 2, 4)])
def test_only_primitive_classes_are_enumerated(monkeypatch, profile, bound, tables):
    # 12 classes at bound 3, 6 at bound 2; those with gcd(a, b) > 1 are scaled
    calls = []
    enumerate_class = diophantine._pair_histogram
    monkeypatch.setattr(diophantine, "_pair_histogram",
                        lambda terms, a, b, *args, **kw:
                        calls.append((a, b)) or enumerate_class(terms, a, b, *args, **kw))
    profile(gen_power(2, -1, 40), bound, 40)
    assert len(calls) == tables
    assert all(gcd(a, b) == 1 for a, b in calls)


def test_report_checks_max_count_of_sorted_histogram():
    # a sorted table's largest count is found when it is built, and every
    # view of it carries that count; a report is still checked against it
    hist = diophantine._SortedHistogram([-4, 1, 9], [2, 5, 3])
    for view in (hist, hist.times(-1), hist.times(3), hist.times(3).times(-1)):
        assert view.max_count == 5 == max(view.values())
        fields = dict(a=1, b=-1, argmax_c=None, witnesses=[], prefix_growth=[(1, 0)])
        assert DioReport(max_count=5, histogram=view, **fields).max_count == 5
        with pytest.raises(ValueError, match="max_count inconsistent"):
            DioReport(max_count=3, histogram=view, **fields)
    assert diophantine._SortedHistogram([], []).max_count == 0


VIEW_TABLES = [
    ([-5, -2, 0, 1, 2, 7], [3, 4, 1, 1, 4, 2]),  # top count at key -2 and 2: c > 0 wins
    ([-6, -1, 3, 8], [5, 2, 1, 5]),  # top count at key -6 and 8: the nearer wins
    ([-4, 0, 9], [1, 6, 2]),  # top count at c = 0
    ([], []),
]


@pytest.mark.parametrize("keys, counts", VIEW_TABLES)
@pytest.mark.parametrize("factors", [(1,), (-1,), (2,), (-3,), (3, -1)])
def test_times_reads_every_c_as_factor_times_key(keys, counts, factors):
    table = diophantine._SortedHistogram(keys, counts)
    view, f = table, 1
    for step in factors:
        view, f = view.times(step), f * step
    want = dict(sorted({f * k: n for k, n in zip(keys, counts)}.items()))
    assert view._keys is table._keys and view._counts is table._counts
    assert list(view) == list(want) and len(view) == len(want)
    assert list(view.values()) == list(want.values())
    assert list(view.items()) == list(want.items()) and view == want
    span = max(map(abs, want), default=0) + 2
    for c in range(-span, span + 1):
        assert view.get(c) == want.get(c) and (c in view) == (c in want), c
        if c in want:
            assert view[c] == want[c]
        else:
            with pytest.raises(KeyError):
                view[c]
    top = max(want.values(), default=0)
    brute = min((c for c, n in want.items() if n == top), key=lambda c: (abs(c), c < 0),
                default=None)
    assert diophantine._argmax_c(view) == brute and view.max_count == top


def test_mirrored_class_keeps_tie_break():
    # n_k - 2 n_l = 1 and = -1 both have 3 solutions, the maximum; the
    # mirrored pairs must still pick c = +1, not the negated -1
    terms = [1, 2, 3, 5, 11]
    seq = IntegerSequence(terms, {"kind": "external", "path": "tie"})
    for reports, include_zero in ((d2_profile(seq, 2, 5), False), (d2star_profile(seq, 2, 5), True)):
        for a, b in ((1, -2), (-2, 1), (-1, 2), (2, -1)):
            rep = reports[(a, b)]
            assert rep.histogram[1] == rep.histogram[-1] == rep.max_count == 3
            assert rep.argmax_c == 1
            assert _fields(rep) == brute_profile_report(terms, a, b, include_zero), (a, b)


def test_swapped_pairs_share_one_histogram():
    # one histogram per orientation of a class: (b, a) holds the histogram of
    # (a, b), the mirror (-a, -b) a negated one of its own (unless it is the swap)
    seq = gen_power(2, -1, 60)
    for reports in (d2_profile(seq, 3, 60), d2star_profile(seq, 3, 60)):
        assert len(reports) == 36
        assert len({id(r.histogram) for r in reports.values()}) == 21
        for (a, b), rep in reports.items():
            assert rep.histogram is reports[(b, a)].histogram
            if (-a, -b) != (b, a):
                assert rep.histogram is not reports[(-a, -b)].histogram


def _negated(hist):
    return {-c: n for c, n in hist.items()}


def _mirrored(reports):
    """The reports that read their class's table with every c negated."""
    return {(a, b): r for (a, b), r in reports.items()
            if r.histogram is not reports[min((a, b), (b, a), (-a, -b), (-b, -a))].histogram}


def test_mirror_reads_through_its_base_histogram():
    # one sorted table per class; every mirrored orientation reads it with
    # every c negated, and behaves as the negated dict would, ascending
    for seq in corpus():
        for reports in (d2_profile(seq, 3, 60), d2star_profile(seq, 3, 60)):
            mirrors = _mirrored(reports)
            assert len(mirrors) == 15, seq.provenance  # (a, -a) is its own mirror: 21 direct
            for (a, b), rep in reports.items():
                want = _negated(reports[(-a, -b)].histogram)
                hist = rep.histogram
                assert hist == want and want == hist, (seq.provenance, a, b)
                assert list(hist) == sorted(want) and len(hist) == len(want)
                assert list(hist.values()) == [want[c] for c in sorted(want)]
                assert list(hist.items()) == sorted(want.items())
                for c in [*list(want)[:20], 0, 1, -1, 10**30]:
                    assert hist.get(c) == want.get(c) and (c in hist) == (c in want)
                assert rep.max_count == max(want.values(), default=0)
            for (a, b), rep in mirrors.items():  # nothing is copied
                base = reports[(-a, -b)].histogram
                assert rep.histogram._keys is base._keys and rep.histogram._counts is base._counts


def test_sorted_histogram_is_a_read_only_mapping():
    # n_k - 2 n_l on 2^k - 1 at N = 6: c < 0, c = 1 five times, big c > 0
    hist = d2_profile(gen_power(2, -1, 6), 2, 6)[(1, -2)].histogram
    want = brute_two_term_histogram(gen_power(2, -1, 6).prefix(6), 1, -2)
    assert isinstance(hist, diophantine._SortedHistogram)
    assert list(hist) == sorted(want) and list(hist.keys()) == sorted(want)
    assert list(hist.values()) == [want[c] for c in sorted(want)]
    assert list(hist.items()) == sorted(want.items())
    assert min(hist) < 0 < max(hist) and hist[1] == 5 and len(hist) == len(want)
    for c in [*want, 0, 2, -(10**30), 10**30]:
        assert (c in hist) == (c in want)
        assert hist.get(c) == want.get(c) and hist.get(c, -1) == want.get(c, -1)
        if c in want:
            assert hist[c] == want[c]
        else:
            with pytest.raises(KeyError):
                hist[c]
    assert hist == want and want == hist
    assert hist != {**want, 1: 4} and {**want, 1: 4} != hist
    with pytest.raises(TypeError):
        hist[1] = 4
    with pytest.raises(TypeError):
        del hist[1]
    assert hist[1] == 5
    # an empty histogram: N = 1 and a + b = 0, whose only pair solves c = 0
    empty = d2_profile(gen_power(2, 0, 1), 1, 1)[(1, -1)].histogram
    assert isinstance(empty, diophantine._SortedHistogram)
    assert len(empty) == 0 and not empty and list(empty) == [] and list(empty.values()) == []
    assert empty == {} and {} == empty and 0 not in empty and empty.get(0) is None
    with pytest.raises(KeyError):
        empty[0]


def test_mirror_view_is_read_only():
    reports = d2star_profile(gen_power(2, 0, 30), 2, 30)
    view = reports[(-1, 2)].histogram
    before = dict(view)
    c = next(iter(view))
    with pytest.raises(TypeError):
        view[c] = 5
    with pytest.raises(TypeError):
        del view[c]
    assert dict(view) == before and reports[(1, -2)].histogram == _negated(before)


def _brute_argmax(terms, reports, include_zero, diagonal="sum_zero"):
    for (a, b), rep in reports.items():
        drop = include_zero and (a + b == 0 if diagonal == "sum_zero" else a == b)
        want = brute_profile_report(terms, a, b, include_zero, drop)
        assert (rep.max_count, rep.argmax_c) == (want["max_count"], want["argmax_c"]), (a, b)


def test_mirror_argmax_keeps_tie_break_without_rescan():
    # at N = 2, n_k - 2 n_l on 2^k - 1 is +1 and -1 once each: the mirror
    # (-1, 2) ties at |c| = 1 and must pick c = +1; on 2^k, d2* peaks at c = 0
    tie = d2_profile(gen_power(2, -1, 2), 2, 2)
    mirror = tie[(-1, 2)]
    assert mirror.histogram[1] == mirror.histogram[-1] == mirror.max_count == 1
    assert mirror.argmax_c == 1 == tie[(1, -2)].argmax_c
    star = d2star_profile(gen_power(2, 0, 50), 2, 50)
    assert star[(-1, 2)].argmax_c == 0 and star[(-1, 2)].max_count == 49
    _brute_argmax(gen_power(2, -1, 2).prefix(2), tie, False)
    _brute_argmax(gen_power(2, 0, 50).prefix(50), star, True)
    for seq in corpus():
        terms = seq.prefix(60)
        _brute_argmax(terms, d2_profile(seq, 3, 60), False)
        _brute_argmax(terms, d2star_profile(seq, 3, 60, diagonal="literal"), True, "literal")


class _ReadCounts(tuple):
    """Counts that record which entries are read one by one."""

    def __getitem__(self, i):
        self.read.append(i)
        return tuple.__getitem__(self, i)


def test_argmax_reads_outward_from_zero():
    # c = -900 .. 900 once each, 4 times at c = -2, 5 and -800: both
    # orientations stop at the first top-count entry on each side of c = 0
    keys = range(-900, 901)
    counts = [4 if c in (-2, 5, -800) else 1 for c in keys]
    hist = diophantine._SortedHistogram(keys, counts)
    for oriented, want in ((hist, -2), (hist.times(-1), 2)):
        oriented._counts = _ReadCounts(counts)
        oriented._counts.read = []
        assert diophantine._argmax_c(oriented) == want
        assert len(oriented._counts.read) <= 3  # c = -1, -2 below 0
        assert oriented[want] == 4
    # ties at the same |c| go to c > 0 in either orientation
    tied = diophantine._SortedHistogram([-3, -1, 1, 3], [2, 1, 1, 2])
    assert diophantine._argmax_c(tied) == 3 == diophantine._argmax_c(tied.times(-1))
    assert diophantine._argmax_c(diophantine._SortedHistogram([], [])) is None


def test_d2_violation_on_erdos_fortet():
    reports = d2_profile(gen_power(2, -1, 100), 2, 100)
    rep = reports[(1, -2)]
    assert rep.max_count == 99
    assert rep.argmax_c == 1
    # growth is linear in the prefix length
    growth = dict(rep.prefix_growth)
    assert growth[25] == 24 and growth[50] == 49 and growth[100] == 99
    seq = gen_power(2, -1, 100)
    for k, l in rep.witnesses:
        assert seq.term(k) - 2 * seq.term(l) == 1


def test_d2_bounded_on_pow2():
    reports = d2_profile(gen_power(2, 0, 100), 1, 100)
    for rep in reports.values():
        assert rep.max_count <= 2


def test_d2star_pow2_fails_at_zero():
    reports = d2star_profile(gen_power(2, 0, 50), 2, 50)
    rep = reports[(1, -2)]
    assert rep.histogram.get(0, 0) == 49
    assert rep.max_count == 49 and rep.argmax_c == 0


def test_d2star_erdos_fortet_fails_via_nonzero_c():
    reports = d2star_profile(gen_power(2, -1, 50), 2, 50)
    rep = reports[(1, -2)]
    assert rep.histogram.get(0, 0) <= 1
    assert rep.histogram[1] == 49


def test_d2star_super_lacunary_all_small():
    # n_k = 2^(k^2): ratios diverge, so all counts collapse.  Under ordered
    # (k, l) counting a symmetric coefficient row (a, a) realizes each
    # off-diagonal c twice ((k, l) and (l, k)); every other row stays at 1.
    terms = [2 ** (k * k) for k in range(1, 21)]
    seq = IntegerSequence(terms, {"kind": "external", "path": "2^(k^2)"})
    reports = d2star_profile(seq, 2, 20)
    for (a, b), rep in reports.items():
        assert rep.max_count <= (2 if a == b else 1), (a, b)


def test_d2star_literal_diagonal_reading():
    seq = gen_power(2, 0, 30)
    literal = d2star_profile(seq, 1, 30, diagonal="literal")
    # under the literal reading, a = -b rows keep the N diagonal solutions
    assert literal[(1, -1)].histogram[0] == 30
    default = d2star_profile(seq, 1, 30)
    assert default[(1, -1)].histogram.get(0, 0) == 0


def test_rstar_profile_small_counts():
    seq = gen_random_rstar(RStarParams(alpha=1.0, a=50, count=30, seed=7))
    reports = d2_profile(seq, 3, 30)
    worst = max(rep.max_count for rep in reports.values())
    oracle_worst = 0
    terms = seq.prefix(30)
    for a, b in reports:
        hist = brute_two_term_histogram(terms, a, b)
        if hist:
            oracle_worst = max(oracle_worst, max(hist.values()))
    assert worst == oracle_worst
    assert worst <= 4


# ---------------- multi-term ----------------

def test_multi_term_pow2_matches_brute():
    seq = gen_power(2, 0, 10)
    count, wits = count_multi_term(seq, MultiTermQuery(p=2, coeff_bound=2, count=10))
    assert count == brute_multi_term(seq.prefix(10), 2, 2)
    # (2, -1) at consecutive indices is one of the families: 2*2^k - 2^{k+1} = 0
    consec = [(idx, cs) for idx, cs in wits if cs == (2, -1) and idx[1] == idx[0] + 1]
    assert len(consec) == 9


def test_multi_term_small_triple():
    seq = IntegerSequence([1, 2, 3], {"kind": "external", "path": "tiny"})
    count, wits = count_multi_term(seq, MultiTermQuery(p=3, coeff_bound=1, count=3))
    # 1 + 2 - 3 = 0 and its global negation
    assert count == 2
    assert sorted(cs for _, cs in wits) == [(-1, -1, 1), (1, 1, -1)]


def test_multi_term_matches_exhaustive_on_corpus():
    for seq in corpus():
        for p, bound, n in ((2, 3, 40), (3, 2, 25), (3, 3, 20)):
            got, _ = count_multi_term(seq, MultiTermQuery(p=p, coeff_bound=bound, count=n))
            want = brute_multi_term(seq.prefix(n), p, bound)
            assert got == want, (seq.provenance, p, bound, n)


MULTI_SEQS = {
    "pow2": lambda n: gen_power(2, 0, n),
    "pow2m1": lambda n: gen_power(2, -1, n),
    "smooth 2,3": lambda n: gen_smooth({2, 3}, n),
    "geometric 3/2": lambda n: gen_geometric("3/2", 2, n),
}
MULTI_PREFIX = {2: 40, 3: 24, 4: 18, 5: 13}  # per p; the oracle enumerates every left sum


@pytest.mark.parametrize("name", sorted(MULTI_SEQS))
def test_multi_term_matches_table_oracle(name):
    # count and witnesses, in order, against the whole-left-half table
    for p, n in MULTI_PREFIX.items():
        seq = MULTI_SEQS[name](n)
        for bound in (1, 2, 3):
            got = count_multi_term(seq, MultiTermQuery(p=p, coeff_bound=bound, count=n))
            assert got == table_multi_term(seq.prefix(n), p, bound), (name, p, bound)


def test_multi_term_witnesses_capped_in_table_order():
    seq = gen_smooth({2, 3}, 60)
    count, wits = count_multi_term(seq, MultiTermQuery(p=3, coeff_bound=3, count=60))
    assert count == 5600 and len(wits) == diophantine.WITNESS_CAP
    assert (count, wits) == table_multi_term(seq.prefix(60), 3, 3)
    terms = seq.prefix(60)
    for idx, cs in wits:
        assert sum(c * terms[k - 1] for k, c in zip(idx, cs)) == 0


def test_multi_term_rstar_near_zero():
    seq = gen_random_rstar(RStarParams(alpha=1.0, a=50, count=25, seed=7))
    count, _ = count_multi_term(seq, MultiTermQuery(p=3, coeff_bound=3, count=25))
    assert count == brute_multi_term(seq.prefix(25), 3, 3)
    # tiny early terms admit a handful of accidental relations; "near zero"
    # against ~500k candidate tuples
    assert count <= 8


def test_multi_term_agrees_with_two_term_at_zero():
    seq = gen_power(2, 0, 15)
    a, b = 1, -2
    ordered, _ = count_two_term(
        seq, TwoTermQuery(a=a, b=b, c=0, count=15, require_distinct=True)
    )
    # ordered (k, l) pairs with k != l split into k < l with (a, b) and
    # k < l with coefficients swapped
    per_vector = {}
    count_all, wits = count_multi_term(seq, MultiTermQuery(p=2, coeff_bound=2, count=15))
    for _, cs in wits:
        per_vector[cs] = per_vector.get(cs, 0) + 1
    assert ordered == per_vector.get((a, b), 0) + per_vector.get((b, a), 0)


def test_budget_error_is_explicit():
    seq = gen_power(2, 0, 60)
    with pytest.raises(WorkBudgetExceeded):
        count_multi_term(seq, MultiTermQuery(p=3, coeff_bound=3, count=60, budget=1000))
    # profiles: symmetry classes x N^2, refused before any enumeration
    with pytest.raises(WorkBudgetExceeded) as err:
        d2_profile(seq, 3, 60, budget=1000)
    assert err.value.estimated == 12 * 60 * 60
    with pytest.raises(WorkBudgetExceeded) as err:
        d2star_profile(seq, 2, 60, budget=6 * 60 * 60 - 1)
    assert err.value.estimated == 6 * 60 * 60
    assert len(d2star_profile(seq, 2, 60, budget=6 * 60 * 60)) == 16
    # ratio: N^2 pair sums, refused before any term is read
    with pytest.raises(WorkBudgetExceeded) as err:
        aibe_ratio(seq, 1, -2, 60, budget=60 * 60 - 1)
    assert err.value.estimated == 60 * 60
    assert len(aibe_ratio(seq, 1, -2, 60, budget=60 * 60)) == 3


# ---------------- signed nondegenerate ----------------

def test_signed_nondegenerate_tiny():
    seq = IntegerSequence([1, 2, 3], {"kind": "external", "path": "tiny"})
    count, sols = count_signed_nondegenerate(seq, 3, 3)
    assert count == 1
    assert sols[0] == ((1, 2, 3), (1, 1, -1))


def test_signed_nondegenerate_pow2_empty():
    seq = gen_power(2, 0, 10)
    count, _ = count_signed_nondegenerate(seq, 3, 10)
    assert count == 0


def test_signed_nondegenerate_degeneracy_filter():
    seq = IntegerSequence([1, 2, 3, 4], {"kind": "external", "path": "tiny"})
    count, sols = count_signed_nondegenerate(seq, 4, 4)
    # 1 - 2 - 3 + 4 = 0 is the only relation with s_1 = +1, and none of its
    # 14 proper nonempty subsums vanishes; the inline oracle checks each mask
    def brute():
        out = []
        for signs in product((1, -1), repeat=3):
            full = (1,) + signs
            contrib = [s * v for s, v in zip(full, [1, 2, 3, 4])]
            if sum(contrib) != 0:
                continue
            degen = False
            for mask in range(1, 14 + 1):
                if mask == 15:
                    continue
                s = sum(contrib[i] for i in range(4) if mask >> i & 1)
                if s == 0:
                    degen = True
                    break
            if not degen:
                out.append(full)
        return out
    expected = brute()
    assert count == len(expected)
    assert [s for _, s in sols] == expected


SIGNED_CASES = [
    ("1..5 p=3", IntegerSequence([1, 2, 3, 4, 5], {"kind": "external", "path": "tiny"}), 3, None),
    ("1..4 p=4", IntegerSequence([1, 2, 3, 4], {"kind": "external", "path": "tiny"}), 4, None),
    # p = 6 is the smallest length at which distinct positive terms admit a
    # degenerate relation: 22 zero-sum sign vectors, 20 of them split into two
    # vanishing triples such as (1 + 3 - 4) + (2 + 5 - 7)
    ("1..8 p=6", IntegerSequence(list(range(1, 9)), {"kind": "external", "path": "tiny"}), 6, 2),
    ("smooth 2,3 p=3", gen_smooth({2, 3}, 30), 3, 54),
    ("smooth 2,3 p=4", gen_smooth({2, 3}, 30), 4, 413),
    ("geometric 3/2 p=3", gen_geometric("3/2", 2, 30), 3, 2),
    ("geometric 3/2 p=4", gen_geometric("3/2", 2, 30), 4, 8),
]


@pytest.mark.parametrize("seq,p,expected", [case[1:] for case in SIGNED_CASES],
                         ids=[case[0] for case in SIGNED_CASES])
def test_signed_nondegenerate_matches_oracle(seq, p, expected):
    count, sols = count_signed_nondegenerate(seq, p, len(seq))
    want = brute_signed_nondegenerate(seq.prefix(len(seq)), p)
    assert count == len(sols) == len(want)
    assert sols == want
    if expected is not None:
        assert count == expected


PINNED_COUNTS = [
    ("multi p=3 bound 3 pow2m1:60",
     lambda: count_multi_term(gen_power(2, -1, 60), MultiTermQuery(p=3, coeff_bound=3, count=60)),
     234, "87139eb8e9d073c49d823afaa9aecaf392d7f8ba13d82781889fbd718b05de38"),
    ("multi p=3 bound 3 rstar:60",
     lambda: count_multi_term(
         gen_random_rstar(RStarParams(alpha=1.0, a=50, count=60, seed=20260810)),
         MultiTermQuery(p=3, coeff_bound=3, count=60)),
     0, "ecffdbbb3f1d7e1f2cbb798288f3eebf849eba4a4c4aa3c6dd57edeeda6e2e07"),
    ("signed p=4 smooth 2,3:30",
     lambda: count_signed_nondegenerate(gen_smooth({2, 3}, 30), 4, 30),
     413, "5655efcdcc88463b12ffe01c04d8ce8036fab308b5ac4123352fd7545159dd57"),
    ("signed p=3 geometric 3/2:40",
     lambda: count_signed_nondegenerate(gen_geometric("3/2", 2, 40), 3, 40),
     2, "567d9f9d6656ab4d8cbbecab1551c7ef5f683a41720db2968f10f45643841c35"),
]


@pytest.mark.parametrize("run,count,sha", [case[1:] for case in PINNED_COUNTS],
                         ids=[case[0] for case in PINNED_COUNTS])
def test_counting_outputs_pinned(run, count, sha):
    # SHA-256 of repr((count, witnesses)): a changed count, witness or
    # witness order shows
    result = run()
    assert result[0] == count
    assert hashlib.sha256(repr(result).encode()).hexdigest() == sha


@pytest.mark.parametrize("count", [0, -3])
def test_signed_nondegenerate_rejects_empty_prefix(count):
    with pytest.raises(ValueError, match="prefix length must be at least 1"):
        count_signed_nondegenerate(gen_power(2, 0, 10), 3, count)


def test_signed_budget():
    seq = gen_power(2, 0, 40)
    with pytest.raises(WorkBudgetExceeded):
        count_signed_nondegenerate(seq, 10, 40, budget=100)


# ---------------- o(N) ratio ----------------

def test_aibe_ratio_erdos_fortet_non_decaying():
    ratios = aibe_ratio(gen_power(2, -1, 200), 1, -2, 200)
    assert all(r > 0.9 for _, r in ratios)


def test_aibe_ratio_pow2_decays():
    ratios = aibe_ratio(gen_power(2, 0, 200), 1, 1, 200)
    by_prefix = dict(ratios)
    assert by_prefix[200] <= 2 / 200 + 1e-12
    assert by_prefix[50] > by_prefix[200]


def test_aibe_ratio_is_profile_growth_over_n():
    for seq in (gen_power(2, -1, 200), gen_power(2, 0, 200)):
        reports = d2_profile(seq, 2, 200)
        for a, b in ((1, -2), (1, 1), (2, -1), (1, -1)):
            growth = reports[(a, b)].prefix_growth
            assert aibe_ratio(seq, a, b, 200) == [(n, m / n) for n, m in growth], (a, b)


def test_aibe_ratio_single_term():
    ratios = aibe_ratio(gen_power(2, 0, 1), 1, 1, 1)
    assert [r for _, r in ratios] in ([0.0], [1.0])


# ---------------- serialization ----------------

def test_report_rejects_max_count_of_empty_histogram():
    fields = dict(a=1, b=-1, argmax_c=5, witnesses=[], prefix_growth=[(1, 0)])
    empty = diophantine._SortedHistogram([], [])
    with pytest.raises(ValueError, match="max_count inconsistent"):
        DioReport(max_count=7, histogram=empty, **fields)
    with pytest.raises(ValueError, match="max_count inconsistent"):
        DioReport(max_count=2, histogram=diophantine._SortedHistogram([5], [3]), **fields)
    assert DioReport(max_count=0, histogram=empty, **fields).max_count == 0


def test_profile_csv(tmp_path):
    reports = d2_profile(gen_power(2, -1, 40), 1, 40)
    path = tmp_path / "profile.csv"
    write_profile_csv(reports, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b,max_count,argmax_c,count_N4,count_N2,count_N"
    assert len(lines) == 1 + 4  # 4 coefficient pairs at bound 1


def test_report_json_uses_decimal_strings():
    reports = d2_profile(gen_power(2, 0, 80), 1, 80)
    payload = report_json_dict(reports[(1, 1)])
    assert all(isinstance(k, str) for k in payload["histogram"])
    big = max(int(k) for k in payload["histogram"])
    assert big > 2**63  # big-int c values survive as strings


def test_profile_json_is_json_dumps_text():
    star = gen_power(2, 0, 40)
    cases = {
        "empty": {},
        "count 1": d2_profile(gen_power(2, 0, 1), 1, 1),
        "negative and big c": d2_profile(gen_power(2, 0, 80), 2, 80),
        "d2star sum_zero": d2star_profile(star, 2, 40),
        "d2star literal": d2star_profile(star, 2, 40, diagonal="literal"),
        "bound 4": d2_profile(gen_smooth({2, 3}, 40), 4, 40),
        "d2star bound 4": d2star_profile(gen_smooth({2, 3}, 40), 4, 40),
    }
    for name, reports in cases.items():
        want = json.dumps([report_json_dict(reports[k]) for k in sorted(reports)], indent=2)
        assert profile_to_json(reports) == want, name
    # the cases reach the edges they are named for
    empty = cases["count 1"][(1, -1)]  # a + b = 0: the only pair solves c = 0
    assert empty.histogram == {} and empty.argmax_c is None and empty.witnesses == []
    values = [c for r in cases["negative and big c"].values() for c in r.histogram]
    assert min(values) < 0 and max(values) > 2**63
    for name in ("d2star sum_zero", "d2star literal", "d2star bound 4"):
        assert any(0 in r.histogram for r in cases[name].values()), name
    # bound 4 reads scaled tables at a negative factor: (4, -2) is the
    # mirror of (-4, 2) = 2 * (-2, 1), a mixed-sign class
    for name in ("bound 4", "d2star bound 4"):
        mirror = cases[name][(4, -2)].histogram
        assert mirror._factor == -2 and min(mirror) < 0 < max(mirror), name


def test_profile_json_renders_each_histogram_once(monkeypatch):
    # c is turned into decimal once per sorted table: the 12 classes of a
    # bound-3 profile, the mirrored orientations laid out from their class's rows
    reports = d2_profile(gen_power(2, 0, 60), 3, 60)
    calls = []
    render = diophantine._histogram_rows
    monkeypatch.setattr(diophantine, "_histogram_rows",
                        lambda hist: calls.append(id(hist)) or render(hist))
    shared = profile_to_json(reports)
    assert len(calls) == len(set(calls)) == 12
    # equal but distinct tables are rendered one by one, to the same text
    calls.clear()
    copied = {key: dataclasses.replace(r, histogram=diophantine._SortedHistogram(
                  list(r.histogram), list(r.histogram.values())))
              for key, r in reports.items()}
    assert profile_to_json(copied) == shared
    assert len(calls) == 36
    assert shared == json.dumps([report_json_dict(reports[k]) for k in sorted(reports)], indent=2)


def test_profile_json_mirrors_without_their_base():
    # a reports dict of mirrored orientations alone (their class's least pair left out)
    cases = [(d2_profile(gen_power(2, 0, 80), 2, 80), False),
             (d2star_profile(gen_power(2, 0, 40), 2, 40, diagonal="literal"), True),
             (d2star_profile(gen_smooth({2, 3}, 40), 3, 40), True)]
    for reports, with_zero in cases:
        mirrors = _mirrored(reports)
        assert mirrors and len(mirrors) < len(reports)
        assert any(0 in r.histogram for r in mirrors.values()) == with_zero
        want = json.dumps([report_json_dict(mirrors[k]) for k in sorted(mirrors)], indent=2)
        assert profile_to_json(mirrors) == want


# SHA-256 of profile_to_json text at bound 3, N = 60, recorded while each
# swapped pair still held a copy of its histogram
PROFILE_JSON_PINNED = {
    "d2 pow2m1": (lambda: d2_profile(gen_power(2, -1, 60), 3, 60),
                  "e8fa810d1e7b4953d0f103b5d0de08f150297aabf44fdc4314fbf49c94dcde87"),
    "d2star geometric": (lambda: d2star_profile(gen_geometric("3/2", 2, 60), 3, 60),
                         "1f297616f15bc0ba4c339eb7467ac87301b5e2dbf7f578d53160ebbc1160e412"),
    "d2star literal smooth": (
        lambda: d2star_profile(gen_smooth({2, 3}, 60), 3, 60, diagonal="literal"),
        "9400d52d36739f0a3fb9bf640ec1f03dbd76ad7537247aef977909407e53bfc5"),
    "d2star rstar": (
        lambda: d2star_profile(
            gen_random_rstar(RStarParams(alpha=1.0, a=50, count=60, seed=20260810)), 3, 60),
        "2b265fc7e07347f2cd9bad1221a35d111206b3aa1a196784054da16639e2d4e1"),
}


@pytest.mark.parametrize("name", sorted(PROFILE_JSON_PINNED))
def test_profile_json_pinned(name):
    run, sha = PROFILE_JSON_PINNED[name]
    assert hashlib.sha256(profile_to_json(run()).encode()).hexdigest() == sha


# The rest of the corpus at bound 3, N = 60, recorded while every mirrored
# orientation still held a negated dict of its own
PROFILE_SEQS = {
    "pow2": lambda: gen_power(2, 0, 60),
    "pow2m1": lambda: gen_power(2, -1, 60),
    "geometric": lambda: gen_geometric("3/2", 2, 60),
    "smooth": lambda: gen_smooth({2, 3}, 60),
    "rstar": lambda: gen_random_rstar(RStarParams(alpha=1.0, a=50, count=60, seed=20260810)),
}
PROFILE_RUNS = {
    "d2": lambda seq: d2_profile(seq, 3, 60),
    "d2star": lambda seq: d2star_profile(seq, 3, 60),
    "d2star literal": lambda seq: d2star_profile(seq, 3, 60, diagonal="literal"),
}
PROFILE_JSON_CORPUS_PINNED = {
    ("pow2", "d2"): "10d028bbbe72a52648995d5dce9aaa2d812036ca3aca599cbc24ee2a60a9178a",
    ("pow2", "d2star"): "20716c0c1e9ae964c7ca918a52f09cde067f0b8e06f6fea542ac7ed3a5896354",
    ("pow2", "d2star literal"): "65bf41f89d345e54fcc1a46f2f66a5f25afba1b6caa9d2ddfcfa294f1f2d4fcc",
    ("pow2m1", "d2star"): "a44654100e63bb0ce51bbd72315b8d07114275380094ffe1b06ff6066f16096e",
    ("pow2m1", "d2star literal"): "ada6c945af205112fd7c5997360cf23f7fcd0a2788ae9c9403ad5388c95556a2",
    ("geometric", "d2"): "e9d250bce5c71d9bd8ee3b9f068fe6a5fc7eacb63934517f6fbaec08a08ceab1",
    ("geometric", "d2star literal"): "063d2752efa2e3432e016ba68dfeacce36bea1bc36bc362530d824470189745e",
    ("smooth", "d2"): "b927775e9773483df6fb7198b284c5e3fc1b002cd6af3109175595941ce396fe",
    ("smooth", "d2star"): "30f53d7416c6ff20c42f94660342e70a74f8d68c58d89ac9d13bf10bb80d0094",
    ("rstar", "d2"): "a425daeed006f1ddad42cd2dc2639a004469e6f507489d7643847beacffd59db",
    ("rstar", "d2star literal"): "813cfff08f7a77aa58c482a171c1aaf3dde59a02b5959e6e37fefb9439e60445",
}


@pytest.mark.parametrize("seq_name,run_name", sorted(PROFILE_JSON_CORPUS_PINNED),
                         ids=[" ".join(key) for key in sorted(PROFILE_JSON_CORPUS_PINNED)])
def test_profile_json_corpus_pinned(seq_name, run_name):
    text = profile_to_json(PROFILE_RUNS[run_name](PROFILE_SEQS[seq_name]()))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PROFILE_JSON_CORPUS_PINNED[(seq_name, run_name)]


# SHA-256 of profile_to_json text at bound 4, N = 60, recorded while every
# symmetry class was enumerated; bound 4 is the least at which (2, 4),
# (4, 4) and (-2, 4) read the scaled tables of (1, 2), (1, 1) and (-1, 2)
PROFILE_JSON_BOUND4_PINNED = {
    ("pow2m1", "d2"): "f14eba5e45f6c83af6640e6a9451894bab857466bd1da837aeb123f012123cc4",
    ("pow2m1", "d2star"): "da05d6dc1845e1e1a193cc77f9b6e293e24c2bf756abeb2302fa43713364bd2a",
    ("pow2m1", "d2star literal"): "74dceefae1345cee09037b3cbeb38a722730819b33d78b298c96aa56d5e5c381",
    ("smooth", "d2"): "2feea3a0a3eeaa3fad1c2a4b0e0be80f17baa61a82207861d9877463ace9a4be",
    ("smooth", "d2star"): "6c9a290f97700f1498f3b880e1e984ca503f8f381b1613127316a5dae1d9f5cc",
    ("smooth", "d2star literal"): "667864cd3f88b05a49080950e4bd0e99aa3903c9c4861225e43dee22aab7f8c2",
    ("rstar", "d2"): "c8e0ba73f8f4203b778d1f26a962dfe8233f7653e3502090d791aa83d43404a8",
    ("rstar", "d2star"): "717d6dee0fefdbf385689eb5d16bfd0081c4e617af5bfc526f9e651bcfd9ca91",
    ("rstar", "d2star literal"): "34927ba526e6e5e36fdf72531269b9c4acc7c5e6917a3968e7eb80795f65ea58",
}
BOUND4_RUNS = {
    "d2": lambda seq: d2_profile(seq, 4, 60),
    "d2star": lambda seq: d2star_profile(seq, 4, 60),
    "d2star literal": lambda seq: d2star_profile(seq, 4, 60, diagonal="literal"),
}


@pytest.mark.parametrize("seq_name,run_name", sorted(PROFILE_JSON_BOUND4_PINNED),
                         ids=[" ".join(key) for key in sorted(PROFILE_JSON_BOUND4_PINNED)])
def test_profile_json_bound4_pinned(seq_name, run_name):
    text = profile_to_json(BOUND4_RUNS[run_name](PROFILE_SEQS[seq_name]()))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PROFILE_JSON_BOUND4_PINNED[(seq_name, run_name)]
