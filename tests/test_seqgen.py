import ast
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from lacunaria import seqgen
from lacunaria.errors import IntervalEmpty
from lacunaria.mod1 import FixedPointSample, FracTopEngine
from lacunaria.permute import BlockSchedule, build_pairing_counterexample
from lacunaria.rng import CounterRng
from lacunaria.seqgen import (
    IntegerSequence,
    RStarParams,
    gen_geometric,
    gen_power,
    gen_random_rstar,
    gen_smooth,
    read_sequence,
    rstar_interval,
    write_sequence,
    _PowerTerms,
    _rstar_intervals,
)
from lacunaria.spectra import TrigPolynomial, mixture_profile


# ---------------- gen_geometric ----------------

def test_geometric_doubling():
    assert gen_geometric(2, 1, 5).prefix(5) == [1, 2, 4, 8, 16]


def test_geometric_three_halves_hand_iteration():
    # ceil(3/2 * 2) = 3, ceil(4.5) = 5, ceil(7.5) = 8
    assert gen_geometric(Fraction(3, 2), 2, 4).prefix(4) == [2, 3, 5, 8]


def test_geometric_single_term():
    assert gen_geometric(2, 1, 1).prefix(1) == [1]


def test_geometric_ratio_invariant():
    for q in (Fraction(3, 2), Fraction(7, 5), 2, Fraction(21, 20)):
        seq = gen_geometric(q, 3, 40)
        for k in range(1, len(seq)):
            assert Fraction(seq.term(k + 1), seq.term(k)) >= q


def test_geometric_rejects_bad_q():
    with pytest.raises(ValueError):
        gen_geometric(1, 1, 3)
    with pytest.raises(ValueError):
        gen_geometric(Fraction(1, 2), 1, 3)
    with pytest.raises(ValueError):
        gen_geometric(1.5, 1, 3)  # floats are not exact rationals


# ---------------- gen_power ----------------

def test_power_examples():
    assert gen_power(2, 0, 4).prefix(4) == [2, 4, 8, 16]
    assert gen_power(2, -1, 4).prefix(4) == [1, 3, 7, 15]


def test_power_bit_length():
    seq = gen_power(2, 0, 256)
    assert seq.term(256).bit_length() == 257


def test_power_is_lazy_for_huge_counts():
    seq = gen_power(2, 0, 1 << 20)
    assert len(seq) == 1 << 20
    assert seq.term(20) == 1 << 20
    assert seq.term(len(seq)) == 1 << (1 << 20)


@pytest.mark.parametrize("base", [2, 3, 4, 8])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_power_terms_match_pow(base, offset):
    n = 70
    terms = _PowerTerms(base, offset, n)
    # powers of two take the shift path, every other base stays on pow
    assert (terms._shift != 0) == (base in (2, 4, 8))
    for k in (1, 63, 64, 65, n):
        assert terms[k - 1] == base**k + offset
    assert terms[-1] == base**n + offset
    assert terms[-n] == base + offset
    assert terms[60:67] == [base**k + offset for k in range(61, 68)]
    assert terms[-3:] == [base**k + offset for k in range(n - 2, n + 1)]
    assert terms[::-23] == [base**k + offset for k in range(n, 0, -23)]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            terms[bad]


@pytest.mark.parametrize("index_type", [np.int64, np.int32, np.uint64])
@pytest.mark.parametrize("base, offset", [(2, 0), (2, -1), (3, 0)])
def test_power_term_numpy_index_is_exact(index_type, base, offset):
    # 2**70 from a numpy shift wraps to 0, 3**50 from a numpy pow overflows
    seq = gen_power(base, offset, 100)
    for k in (1, 50, 63, 64, 70, 100):
        want = base**k + offset
        assert seq.term(index_type(k)) == want
        assert seq.terms[index_type(k - 1)] == want
        assert type(seq.term(index_type(k))) is int
    with pytest.raises(IndexError):
        seq.term(np.int64(101))
    with pytest.raises(TypeError):
        seq.term(2.0)


def test_power_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_power(1, 0, 3)
    with pytest.raises(ValueError):
        gen_power(2, -2, 3)


# ---------------- gen_smooth ----------------

def brute_smooth(primes, limit):
    """All products p1^k1*...*pr^kr <= limit, by exhaustive exponent search."""
    found = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for p in primes:
                w = v * p
                if w <= limit and w not in found:
                    found.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(found)


def test_smooth_powers_of_two():
    assert gen_smooth({2}, 5).prefix(5) == [1, 2, 4, 8, 16]


def test_smooth_2_3():
    assert gen_smooth({2, 3}, 7).prefix(7) == [1, 2, 3, 4, 6, 8, 9]


def test_smooth_2_3_5():
    assert gen_smooth({2, 3, 5}, 4).prefix(4) == [1, 2, 3, 4]


def test_smooth_against_brute_force():
    for primes in ({2, 3}, {2, 5}, {3, 5, 7}, {2, 3, 5}, {4, 9, 5}):
        seq = gen_smooth(primes, 60)
        expected = brute_smooth(sorted(primes), seq.term(60))
        assert seq.prefix(60) == expected[:60]


def test_smooth_exclude_one():
    seq = gen_smooth({2, 3}, 6, include_one=False)
    assert seq.prefix(6) == [2, 3, 4, 6, 8, 9]


def test_smooth_rejects_bad_input():
    with pytest.raises(ValueError):
        gen_smooth(set(), 5)
    with pytest.raises(ValueError):
        gen_smooth({2, 4}, 5)  # not coprime
    with pytest.raises(ValueError):
        gen_smooth({1, 3}, 5)


# ---------------- gen_random_rstar ----------------

def test_rstar_single_term_boundary():
    seq = gen_random_rstar(RStarParams(alpha=1.0, a=10, count=1, seed=99))
    assert 1 <= seq.term(1) <= 10


def test_rstar_invariants():
    params = RStarParams(alpha=1.0, a=50, count=30, seed=7)
    seq = gen_random_rstar(params)
    prev = 0
    for k in range(1, 31):
        nk = seq.term(k)
        assert nk > prev
        prev = nk
        if k >= 2:
            _, hi = rstar_interval(k, params)
            assert nk <= hi  # hi = ceil(a * k**omega_k) - 1 < a * k**omega_k



def test_rstar_endpoint_past_the_decimal_range_names_k():
    # (ln 8)^21 is about 5e6, and e to that is past the decimal exponent range
    params = RStarParams(alpha=20.0, a=50, count=30, seed=0)
    with pytest.raises(ValueError, match="^right endpoint of I_8 exceeds the decimal range"):
        gen_random_rstar(params)
    with pytest.raises(ValueError, match="I_8"):
        rstar_interval(8, params)
    assert rstar_interval(7, params)[1].bit_length() > 10**6  # the last endpoint that fits

def test_rstar_determinism():
    params = RStarParams(alpha=1.0, a=50, count=30, seed=11)
    assert gen_random_rstar(params).prefix(30) == gen_random_rstar(params).prefix(30)


def test_rstar_seed_sensitivity():
    p1 = RStarParams(alpha=1.0, a=50, count=30, seed=1)
    p2 = RStarParams(alpha=1.0, a=50, count=30, seed=2)
    assert gen_random_rstar(p1).prefix(30) != gen_random_rstar(p2).prefix(30)


def test_rstar_interval_forms_differ():
    # "current" puts the left endpoint at a*(k-1)**omega_k (larger for k >= 3)
    p_trailing = RStarParams(alpha=1.0, a=50, count=5, seed=3, interval_form="trailing")
    p_current = RStarParams(alpha=1.0, a=50, count=5, seed=3, interval_form="current")
    lo_t, hi_t = rstar_interval(4, p_trailing)
    lo_c, hi_c = rstar_interval(4, p_current)
    assert hi_t == hi_c
    assert lo_c > lo_t


def test_rstar_small_scale_fails():
    # alpha=3, a=2 leaves I_2 = {2}; seed 4 draws n_1 = 2, so the strict-
    # increase adjustment pushes n_2 past the right endpoint
    with pytest.raises(IntervalEmpty, match=r"^I_2 exhausted after enforcing strict "
                                            r"increase; increase a \(a=2\)$"):
        gen_random_rstar(RStarParams(alpha=3.0, a=2, count=50, seed=4))


@pytest.mark.parametrize("form", ["trailing", "current"])
@pytest.mark.parametrize("alpha, a", [(0.25, 2), (1.0, 50), (2.0, 3), (0.5, 7)])
def test_rstar_one_pass_walk_matches_fresh_intervals(form, alpha, a):
    # the walk carries ln(k-1) and the right endpoint of I_{k-1} forward;
    # rstar_interval evaluates both afresh for each k
    params = RStarParams(alpha=alpha, a=a, count=600, seed=0, interval_form=form)
    walked = list(islice(_rstar_intervals(params), 600))
    assert walked == [rstar_interval(k, params) for k in range(1, 601)]


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_rstar_rejects_alpha_not_positive_and_finite(alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        RStarParams(alpha=alpha, a=50, count=10, seed=1)


# ---------------- sequence files ----------------

def test_sequence_file_roundtrip(tmp_path):
    seq = gen_power(2, -1, 12)
    path = tmp_path / "seq.txt"
    write_sequence(seq, path)
    back = read_sequence(path)
    assert back.prefix(12) == seq.prefix(12)
    assert back.provenance == {"kind": "power", "base": 2, "offset": -1}


def test_sequence_file_power_provenance_checked(tmp_path):
    path = tmp_path / "seq.txt"
    write_sequence(gen_power(3, -1, 12), path)
    lines = path.read_text().splitlines()
    lines[5] = str(int(lines[5]) + 1)  # still strictly increasing
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="not base"):
        read_sequence(path)
    write_sequence(gen_power(3, -1, 12), path)
    path.write_text(path.read_text().replace('"base": 3', '"base": 1'))
    with pytest.raises(ValueError, match="base must be at least 2"):
        read_sequence(path)


def test_power_file_reads_back_the_lazy_view(tmp_path):
    # a read power form takes exactly the code paths of a generated one
    seq = gen_power(2, -1, 80)
    path = tmp_path / "seq.txt"
    write_sequence(seq, path)
    back = read_sequence(path)
    assert isinstance(back.terms, _PowerTerms) and back.power_form() == (2, -1)
    indices, m = list(range(1, 81)), CounterRng(3, "x").bits(0, 256)
    engines = [FracTopEngine(s, indices, [1, 2]) for s in (seq, back)]
    assert [e.strategy for e in engines] == ["pow2-window"] * 2
    x = FixedPointSample(m, 256)
    assert np.array_equal(engines[0].tops(x), engines[1].tops(x))
    schedule = BlockSchedule.geometric_dominant(2, factor=4, base_len=4)
    (perm, cert), (perm_back, cert_back) = (
        build_pairing_counterexample(s, 1, 2, schedule, gap_ratio=8) for s in (seq, back))
    assert cert_back == cert and np.array_equal(perm_back.images, perm.images)
    poly = TrigPolynomial(cos_coeffs={1: 1, 2: 1})
    assert mixture_profile(poly, back, perm, cert) == mixture_profile(poly, seq, perm, cert)


def test_sequence_file_roundtrip_past_int_str_digit_limit(tmp_path):
    # Python's int <-> str refuses more than 4300 digits by default
    terms = [3, 10**4300 + 7, 2**20000 - 1]
    path = tmp_path / "seq.txt"
    write_sequence(IntegerSequence(terms, {"kind": "external", "path": "big"}), path)
    assert read_sequence(path).terms == terms
    assert [len(line) for line in path.read_text().splitlines()[2:]] == [1, 4301, 6021]


def test_failed_sequence_write_leaves_no_file(tmp_path):
    class Broken:
        provenance = {"kind": "external", "path": "broken"}

        @property
        def terms(self):
            yield 1
            yield 2
            raise OSError("disk full")

    path = tmp_path / "seq.txt"
    with pytest.raises(OSError, match="disk full"):
        write_sequence(Broken(), path)
    assert list(tmp_path.iterdir()) == []


GENERATED = {
    "power 2^k": lambda n: gen_power(2, 0, n),
    "power 3^k - 1": lambda n: gen_power(3, -1, n),
    "geometric 3/2": lambda n: gen_geometric(Fraction(3, 2), 2, n),
    "smooth with 1": lambda n: gen_smooth({3, 2, 5}, n),
    "smooth without 1": lambda n: gen_smooth([5, 2], n, include_one=False),
    "rstar trailing": lambda n: gen_random_rstar(RStarParams(1.0, 50, n, 9)),
    "rstar current": lambda n: gen_random_rstar(RStarParams(0.5, 7, n, 4, "current")),
}


@pytest.mark.parametrize("make", GENERATED.values(), ids=GENERATED.keys())
def test_provenance_regenerates_and_round_trips(tmp_path, make):
    seq = make(30)
    again = seqgen.generate(seq.provenance, 30)
    assert list(again.terms) == list(seq.terms) and again.provenance == seq.provenance
    assert again.power_form() == seq.power_form()
    path = tmp_path / "seq.txt"
    write_sequence(seq, path)
    back = read_sequence(path)
    assert back.provenance == seq.provenance and list(back.terms) == list(seq.terms)


@pytest.mark.parametrize("header, message", [
    ('{"kind": "geometric", "q": "1", "n1": 1}', "gap ratio q must exceed 1"),
    ('{"kind": "geometric", "q": 1.5, "n1": 1}', "not a float"),
    ('{"kind": "smooth", "primes": [2, 6], "include_one": true}', "not coprime"),
    ('{"kind": "random_rstar", "alpha": 1.0, "a": 1, "seed": 0, "interval_form": "trailing"}',
     "scale a must be at least 2"),
    ('{"kind": "random_rstar", "alpha": 1.0, "seed": 0}', "random_rstar provenance has no field 'a'"),
    ('{"kind": "power", "base": "2", "offset": 0}', "wrong type"),
    ('{"kind": "gaussian"}', "unknown provenance kind 'gaussian'"),
    ('"power"', "not a JSON object"),
])
def test_header_no_generator_writes_is_refused(tmp_path, header, message):
    path = tmp_path / "seq.txt"
    path.write_text(f"# provenance: {header}\n2\n3\n5\n")
    with pytest.raises(ValueError, match=message):
        read_sequence(path)


def test_generate_names_no_external_generator():
    with pytest.raises(ValueError, match="unknown provenance kind 'external'"):
        seqgen.generate({"kind": "external", "path": "x"}, 3)


def test_sequence_file_headerless(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("3\n5\n9\n")
    back = read_sequence(path)
    assert back.prefix(3) == [3, 5, 9]
    assert back.provenance == {"kind": "external", "path": str(path)}


def test_power_provenance_goes_only_with_its_lazy_terms():
    # listed terms tagged 2^k would run the pow2 window kernel on themselves
    for terms in ([3, 5, 6, 9, 17, 33, 65, 129], [2, 4, 8, 16],
                  _PowerTerms(2, -1, 4), _PowerTerms(3, 0, 4)):
        with pytest.raises(ValueError, match="lazy terms"):
            IntegerSequence(terms, {"kind": "power", "base": 2, "offset": 0})
    pow2 = {"kind": "power", "base": 2, "offset": 0}
    assert IntegerSequence(_PowerTerms(2, 0, 4), pow2).power_form() == (2, 0)
    # the terms decide the power form, whatever the provenance
    external = {"kind": "external", "path": "x"}
    assert IntegerSequence(_PowerTerms(3, -1, 4), external).power_form() == (3, -1)
    assert IntegerSequence([2, 4, 8, 16], external).power_form() is None


def _reads_provenance(tree) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "provenance"
               for node in ast.walk(tree))


def test_only_seqgen_reads_provenance():
    """No fast path keys on the provenance tag; power_form() reads the terms.

    Parsed with ``ast``, so a read through any name counts."""
    package = Path(seqgen.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}
    assert [name for name, tree in sorted(trees.items()) if _reads_provenance(tree)] == [
        "seqgen.py"]
    power_form = [node for node in ast.walk(trees["seqgen.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "power_form"]
    assert len(power_form) == 1 and not _reads_provenance(power_form[0])


def test_sequence_validation():
    with pytest.raises(ValueError):
        IntegerSequence([3, 3, 5], {"kind": "external", "path": "x"})
    with pytest.raises(ValueError):
        IntegerSequence([0, 1], {"kind": "external", "path": "x"})
    with pytest.raises(ValueError):
        IntegerSequence([], {"kind": "external", "path": "x"})
