import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from lacunaria.permute import (
    BlockPairing,
    BlockSchedule,
    PairingCertificate,
    PermutationWindow,
    build_pairing_counterexample,
    identity,
    random_perm,
    verify_certificate,
)
from lacunaria.seqgen import (
    IntegerSequence,
    _PowerTerms,
    gen_geometric,
    gen_power,
    gen_smooth,
)
from lacunaria.simulate import MixtureTarget
from lacunaria.spectra import (
    MAX_NODES,
    MixtureProfile,
    TrigPolynomial,
    _expand_scaled,
    _separated_start,
    exact_variance,
    kac_variance,
    l2_norm_sq,
    midpoint_rule,
    mixture_charfn,
    mixture_profile,
)
from oracles import (
    bessel_i0,
    brute_expand,
    brute_mixture_profile,
    mixture_charfn_closed_form,
)

COS1 = TrigPolynomial(cos_coeffs={1: 1})
COS12 = TrigPolynomial(cos_coeffs={1: 1, 2: 1})


def midpoint_quadrature_of_square(poly, nus, grid=1 << 14):
    """Independent oracle: numerically integrate (sum_k f(nu_k x))^2 dx.

    The midpoint rule is exact for trigonometric polynomials whose
    frequencies stay below the grid size; float error ~1e-12.
    """
    xs = (np.arange(grid) + 0.5) / grid
    total = np.zeros(grid)
    for nu in nus:
        for j, a, b in poly.terms():
            total += float(a) * np.cos(2 * np.pi * j * nu * xs)
            total += float(b) * np.sin(2 * np.pi * j * nu * xs)
    return float(np.mean(total * total))


# ---------------- polynomials ----------------

def test_parse_and_format():
    p = TrigPolynomial.parse("cos:1,cos:2=3/2,sin:5=-1/3")
    assert p.cos_coeffs == {1: Fraction(1), 2: Fraction(3, 2)}
    assert p.sin_coeffs == {5: Fraction(-1, 3)}
    assert p.degree == 5
    assert TrigPolynomial.parse(p.format()).cos_coeffs == p.cos_coeffs


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        TrigPolynomial.parse("tan:1")
    with pytest.raises(ValueError):
        TrigPolynomial.parse("cos")
    with pytest.raises(ValueError):
        TrigPolynomial(cos_coeffs={0: 1})
    with pytest.raises(ValueError):
        TrigPolynomial(cos_coeffs={1: 0})


# ---------------- l2 norm ----------------

def test_l2_norms():
    assert l2_norm_sq(COS1) == Fraction(1, 2)
    assert l2_norm_sq(COS12) == 1
    assert l2_norm_sq(TrigPolynomial(sin_coeffs={3: 3})) == Fraction(9, 2)


# ---------------- frequency expansion ----------------

def expanded(poly, seq, perm, count):
    """The merged expansion as frequency -> (cos, sin) Fractions, zeros dropped."""
    scale, acc = _expand_scaled(poly, seq, perm, count)
    return {f: (Fraction(c, scale), Fraction(s, scale))
            for (_, f), (c, s) in acc.items() if c or s}


def assert_same_expansion(got, want):
    assert got == want
    assert list(got) == list(want)


def test_expand_simple():
    seq = gen_power(2, 0, 3)
    got = expanded(COS1, seq, identity(3), 3)
    assert got == {2: (1, 0), 4: (1, 0), 8: (1, 0)}
    assert_same_expansion(got, brute_expand(COS1, seq, identity(3), 3))


def test_expand_merges():
    seq = gen_power(2, 0, 3)
    got = expanded(COS12, seq, identity(3), 3)
    assert got == {2: (1, 0), 4: (2, 0), 8: (2, 0), 16: (1, 0)}
    assert_same_expansion(got, brute_expand(COS12, seq, identity(3), 3))


def test_expand_empty_window():
    seq = gen_power(2, 0, 3)
    assert expanded(COS1, seq, identity(3), 0) == {}
    assert brute_expand(COS1, seq, identity(3), 0) == {}


# ---------------- exact variance ----------------

def test_variance_dyadic_cosine_is_half():
    seq = gen_power(2, 0, 100)
    for n in (1, 5, 100):
        assert exact_variance(COS1, seq, identity(100), n) == Fraction(1, 2)
    for seed in range(5):
        assert exact_variance(COS1, seq, random_perm(100, seed), 100) == Fraction(1, 2)


def test_variance_two_frequency_formula():
    seq = gen_power(2, 0, 64)
    for n in (1, 2, 8, 64):
        assert exact_variance(COS12, seq, identity(64), n) == Fraction(2 * n - 1, n)


def test_variance_against_quadrature_oracle():
    seq = gen_power(2, 0, 8)
    nus = seq.prefix(8)
    exact = exact_variance(COS12, seq, identity(8), 8)
    numeric = midpoint_quadrature_of_square(COS12, nus) / 8
    assert abs(float(exact) - numeric) < 1e-10


def test_variance_small_window():
    seq = IntegerSequence([1, 2, 3], {"kind": "external", "path": "tiny"})
    assert exact_variance(COS1, seq, identity(3), 2) == Fraction(1, 2)


def test_variance_window_past_the_permutation():
    with pytest.raises(ValueError, match="window 4 exceeds permutation length 3"):
        exact_variance(COS1, gen_power(2, 0, 10), identity(3), 4)


def test_variance_permutation_invariance_full_window():
    # merged multiset over a full window does not depend on sigma
    seq = gen_power(2, -1, 40)
    base = exact_variance(COS12, seq, identity(40), 40)
    for seed in range(8):
        assert exact_variance(COS12, seq, random_perm(40, seed), 40) == base


def test_window_beyond_sequence_rejected():
    seq = gen_power(2, 0, 10)
    for call in (_expand_scaled, exact_variance):
        with pytest.raises(ValueError, match="permutation window exceeds sequence length"):
            call(COS1, seq, identity(20), 20)


def test_variance_crude_bound():
    seq = gen_power(2, -1, 30)
    poly = TrigPolynomial(cos_coeffs={1: 2, 3: -1}, sin_coeffs={2: Fraction(1, 2)})
    var = exact_variance(poly, seq, identity(30), 30)
    coeff_mass = sum(abs(a) + abs(b) for _, a, b in poly.terms())
    assert var <= coeff_mass**2 * 30  # max multiplicity <= window


# ---------------- scaled-integer merges against the Fraction oracle ----------------

RATIONAL = TrigPolynomial.parse("cos:1=2/3,sin:2=-5/7,cos:3=1/5")
ORACLE_SEQUENCES = [
    ("pow2m1", gen_power(2, -1, 120)),
    ("geometric 3/2", gen_geometric("3/2", 2, 120)),
    ("smooth 2,3", gen_smooth({2, 3}, 120)),
]


def spaced_certificate(seq, a=1, b=2, gap=4):
    """One block per adjacent pair (u, u + 1), each u the first index past
    the previous pair whose term clears gap * (previous n_v)."""
    blocks, u, last = [], 1, None
    while u < len(seq):
        if last is None or seq.term(u) >= gap * last:
            c = a * seq.term(u + 1) - b * seq.term(u)
            blocks.append(BlockPairing(c=c, pairs=[(u, u + 1)]))
            last = seq.term(u + 1)
            u += 2
        else:
            u += 1
    cert = PairingCertificate(a=a, b=b, gap_ratio=Fraction(gap), blocks=blocks)
    certified = [i for uv in cert.all_pairs for i in uv]
    placed = set(certified)
    rest = [i for i in range(1, len(seq) + 1) if i not in placed]
    perm = PermutationWindow(certified + rest)
    assert verify_certificate(perm, seq, cert) == (True, None)
    return perm, cert


@pytest.mark.parametrize("name,seq", ORACLE_SEQUENCES, ids=[n for n, _ in ORACLE_SEQUENCES])
def test_expand_and_variance_match_fraction_oracle(name, seq):
    for poly in (RATIONAL, COS12):
        for perm in (identity(len(seq)), random_perm(len(seq), 3)):
            for count in (0, 1, 37, len(seq)):
                want = brute_expand(poly, seq, perm, count)
                assert_same_expansion(expanded(poly, seq, perm, count), want)
                if count:
                    mass = sum((c * c + s * s) / 2 for c, s in want.values())
                    assert exact_variance(poly, seq, perm, count) == mass / count


ORACLE_CUTOFFS = (None, -3, 0, 7, 10**6, 10**9)


def assert_matches_oracle(poly, seq, perm, cert, cutoff):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cutoffs below every c warn
        got = mixture_profile(poly, seq, perm, cert, freq_cutoff=cutoff)
    want = brute_mixture_profile(poly, seq, cert, freq_cutoff=cutoff)
    assert got.constant == want["constant"]
    assert list(got.cosine_terms.items()) == list(want["cosine_terms"].items())
    assert list(got.sine_terms.items()) == list(want["sine_terms"].items())
    assert got.residual_mass == want["residual_mass"]
    assert got.residual_count == want["residual_count"]


@pytest.mark.parametrize("name,seq", ORACLE_SEQUENCES, ids=[n for n, _ in ORACLE_SEQUENCES])
def test_mixture_profile_matches_fraction_oracle(name, seq):
    perm, cert = spaced_certificate(seq)
    assert len(cert.blocks) >= 3
    for poly in (RATIONAL, COS12):
        for cutoff in ORACLE_CUTOFFS:
            assert_matches_oracle(poly, seq, perm, cert, cutoff)
    assert mixture_profile(RATIONAL, seq, perm, cert).sine_terms


def crafted_certificate(a, b, blocks, gap):
    """A sequence of pairs (n_u, n_v), a*n_v - b*n_u = c, with its certificate.

    ``blocks`` lists (c, number of pairs); each n_u is the first value at or
    above gap * (previous n_v) for which n_v is an integer.
    """
    terms, cert_blocks, last = [], [], 1
    for c, count in blocks:
        pairs = []
        for _ in range(count):
            nu = gap * last
            while (c + b * nu) % a:
                nu += 1
            last = (c + b * nu) // a
            terms += [nu, last]
            pairs.append((len(terms) - 1, len(terms)))
        cert_blocks.append(BlockPairing(c=c, pairs=pairs))
    seq = IntegerSequence(terms, {"kind": "external", "path": "crafted"})
    perm = identity(len(terms))
    cert = PairingCertificate(a=a, b=b, gap_ratio=Fraction(gap), blocks=cert_blocks)
    assert verify_certificate(perm, seq, cert) == (True, None)
    return seq, perm, cert


def pow2m1_certificate():
    seq = gen_power(2, -1, 200)
    return (seq, *build_pairing_counterexample(
        seq, 1, 2, BlockSchedule.geometric_dominant(2, factor=4, base_len=4), gap_ratio=8))


def low_on_high_certificate():
    seq, _, _ = crafted_certificate(1, 2, [(1, 2)], 8)
    return crafted_certificate(1, 2, [(1, 2), (seq.term(4) - seq.term(3), 2)], 8)


SUFFIX_BLOCKS = [(3, 2), (0, 1), (1, 3), (-2, 2), (5, 4)]
# (certificate, polynomial, first pair of the separated tail at the default cutoff)
SEPARATED_CASES = {
    # pair (1, 2) of 2^k - 1 collides at c = 1; the tail starts inside block 1
    "pow2m1 gap 8, tail mid-block": (pow2m1_certificate, COS12, 1),
    # the c = 0 pair (index 2) ends the prefix
    "c = 0 block, gap 8": (lambda: crafted_certificate(1, 2, SUFFIX_BLOCKS, 8), COS12, 3),
    "c = 0 block, degree 3 with sines, gap 16":
        (lambda: crafted_certificate(1, 2, SUFFIX_BLOCKS, 16), RATIONAL, 3),
    # every pair separated
    "a = 2, b = 5, gap 32": (lambda: crafted_certificate(2, 5, [(1, 3), (-3, 5)], 32),
                             TrigPolynomial.parse("sin:1,cos:2=-1/3,sin:2=1/2"), 0),
    # RATIONAL's 3 n_u - n_v = (109 - 9) / 2 = 50 is high, yet below 2 deg |c| = 54
    "a = 2, b = 5, a high frequency under 2 deg |c|":
        (lambda: crafted_certificate(2, 5, [(9, 3)], 109), RATIONAL, 0),
    # the later block's c lands on n_v - n_u of pair 1, which stays in the prefix
    "a later c on an earlier high frequency": (low_on_high_certificate, COS12, 2),
    # n_u = 4 n_v(previous) leaves no room: every pair is expanded one by one
    "gap 4, all prefix": (lambda: crafted_certificate(1, 2, SUFFIX_BLOCKS, 4), COS12, 12),
}


@pytest.mark.parametrize("case", list(SEPARATED_CASES))
def test_mixture_profile_separated_tail_matches_fraction_oracle(case):
    build, poly, start = SEPARATED_CASES[case]
    seq, perm, cert = build()
    cutoff = max(abs(c) for c in cert.constants())
    assert _separated_start(poly.degree, cert, seq, cutoff) == start
    for p in (poly, COS12, RATIONAL):
        for cutoff in ORACLE_CUTOFFS:
            assert_matches_oracle(p, seq, perm, cert, cutoff)


def test_mixture_profile_pairing_input_tail_starts_at_second_pair():
    # the pairing-mixture input: every pair but the colliding (1, 2) is
    # separated, so the 5460-slot profile expands 1 pair plus 6 blocks
    seq = gen_power(2, -1, 11000)
    perm, cert = build_pairing_counterexample(
        seq, 1, 2, BlockSchedule.geometric_dominant(6, factor=4, base_len=4), gap_ratio=8)
    assert len(cert.all_pairs) == 2730
    assert _separated_start(COS12.degree, cert, seq, 1) == 1
    profile = mixture_profile(COS12, seq, perm, cert)
    assert profile.cosine_terms == {1: Fraction(2731, 5460)} and profile.constant == 1


def test_pairing_reads_few_terms_on_a_power_form(monkeypatch):
    # 21844 certified slots of 2^k - 1 (terms up to 2^43700): the build, the
    # verifier and the profile decide every comparison on exponents, and
    # only the first pair and one pair per block are formed
    reads = []
    getitem = _PowerTerms.__getitem__

    def counted(terms, i):
        reads.append(i)
        return getitem(terms, i)
    monkeypatch.setattr(_PowerTerms, "__getitem__", counted)
    seq = gen_power(2, -1, 44000)
    perm, cert = build_pairing_counterexample(
        seq, 1, 2, BlockSchedule.geometric_dominant(7, 4, 4), gap_ratio=8)
    assert verify_certificate(perm, seq, cert) == (True, None)
    profile = mixture_profile(COS12, seq, perm, cert)
    assert cert.certified_slots == 21844
    assert profile.cosine_terms == {1: Fraction(10923, 21844)} and profile.constant == 1
    assert len(reads) < 64


# ---------------- Kac variance ----------------

def test_kac_examples():
    assert kac_variance(COS1) == Fraction(1, 2)
    assert kac_variance(COS12) == 2
    assert kac_variance(TrigPolynomial(sin_coeffs={1: 1, 2: 1})) == 2


def test_kac_is_limit_of_exact_variance():
    seq = gen_power(2, 0, 256)
    kac = kac_variance(COS12)
    for n in (64, 128, 256):
        gap = abs(kac - exact_variance(COS12, seq, identity(256), n))
        assert gap == Fraction(1, n)  # (2N-1)/N differs from 2 by exactly 1/N


def test_kac_mixed_parity_polynomial():
    # overlaps only match like trigonometric parts
    poly = TrigPolynomial(cos_coeffs={1: 1}, sin_coeffs={2: 1})
    # <f(x), f(2x)>: cos(2pi 2x) from f(2x) has coefficient... only sin2 matches cos2? no:
    # f(2x) = cos(4 pi x) + sin(8 pi x); overlap with f needs same kind and freq -> none
    assert kac_variance(poly) == l2_norm_sq(poly)


# ---------------- mixture profile ----------------

def erdos_fortet_cert(npairs=8, length=200):
    seq = gen_power(2, -1, length)
    sched = BlockSchedule([2 * npairs])
    perm, cert = build_pairing_counterexample(seq, 1, 2, sched, gap_ratio=8)
    return seq, perm, cert


def test_mixture_profile_single_far_pair():
    # pair (5, 6): nu = (31, 63), c = 63 - 2*31 = 1; no accidental collisions
    seq = gen_power(2, -1, 10)
    cert = PairingCertificate(
        a=1, b=2, gap_ratio=Fraction(8),
        blocks=[BlockPairing(c=1, pairs=[(5, 6)])],
    )
    images = [5, 6] + [i for i in range(1, 11) if i not in (5, 6)]
    from lacunaria.permute import PermutationWindow
    perm = PermutationWindow(images)
    prof = mixture_profile(COS12, seq, perm, cert)
    assert prof.constant == 1
    assert prof.cosine_terms == {1: Fraction(1, 2)}
    assert not prof.sine_terms


def test_mixture_beta_oracle_quadrature():
    # independent oracle: per-pair cosine coefficient at frequency c equals
    # 2 * integral of g(x)^2 cos(2 pi c x) dx with g = f(31 x) + f(63 x)
    grid = 1 << 12
    xs = (np.arange(grid) + 0.5) / grid
    g = (np.cos(2 * np.pi * 31 * xs) + np.cos(2 * np.pi * 62 * xs)
         + np.cos(2 * np.pi * 63 * xs) + np.cos(2 * np.pi * 126 * xs))
    coef = 2 * np.mean(g * g * np.cos(2 * np.pi * 1 * xs))
    # per pair: 1; per slot (2 slots): 1/2 -- adjudicates beta = 1/2
    assert abs(coef - 1.0) < 1e-10


def test_mixture_profile_erdos_fortet_block():
    # 3 pairs: (1,2), (5,6), (9,10) -> nu pairs (1,3), (31,63), (511,1023).
    # Pair (1,2) is special: besides the structural hit a*nu_2 - b*nu_1 = 1
    # it also lands (b-a)*nu_1 = 1 on the same frequency, so the exact
    # coefficient is (2 + 1 + 1) / (2 * 3) = 2/3, not 1/2.
    seq, perm, cert = erdos_fortet_cert(npairs=3, length=20)
    assert cert.all_pairs == [(1, 2), (5, 6), (9, 10)]
    prof = mixture_profile(COS12, seq, perm, cert)
    assert prof.constant == 1
    beta = prof.cosine_terms[1]
    assert beta == Fraction(2, 3)
    # oracle: midpoint quadrature of the full normalized square; all
    # frequencies (max 2 * 1023 doubled by squaring ~ 4092) sit below the grid
    grid = 1 << 13
    xs = (np.arange(grid) + 0.5) / grid
    assert prof.values(xs).min() >= -1e-9  # bona fide variance profile
    acc = np.zeros(grid)
    for u, v in cert.all_pairs:
        pair_sum = np.zeros(grid)
        for nu in (seq.term(u), seq.term(v)):
            pair_sum += np.cos(2 * np.pi * nu * xs) + np.cos(2 * np.pi * 2 * nu * xs)
        acc += pair_sum * pair_sum
    acc /= 2 * len(cert.all_pairs)
    coef_at_1 = 2 * float(np.mean(acc * np.cos(2 * np.pi * xs)))
    assert abs(coef_at_1 - float(beta)) < 1e-9
    const_numeric = float(np.mean(acc))
    assert abs(const_numeric - float(prof.constant)) < 1e-9


def test_mixture_profile_far_pairs_give_exactly_half():
    # skipping the tiny-index pair removes the accidental collision: beta = 1/2
    seq = gen_power(2, -1, 40)
    cert = PairingCertificate(
        a=1, b=2, gap_ratio=Fraction(8),
        blocks=[BlockPairing(c=1, pairs=[(5, 6), (9, 10), (13, 14), (17, 18)])],
    )
    from lacunaria.permute import PermutationWindow
    used = {5, 6, 9, 10, 13, 14, 17, 18}
    images = [5, 6, 9, 10, 13, 14, 17, 18] + [i for i in range(1, 41) if i not in used]
    perm = PermutationWindow(images)
    prof = mixture_profile(COS12, seq, perm, cert)
    assert prof.constant == 1
    assert prof.cosine_terms == {1: Fraction(1, 2)}


def test_mixture_profile_no_coincidence_reduces_to_variance():
    # far-apart dyadic pair with c = 0: no shared frequencies at all
    seq = gen_power(2, 0, 40)
    cert = PairingCertificate(
        a=1, b=2, gap_ratio=Fraction(8),
        blocks=[BlockPairing(c=0, pairs=[(3, 4)])],
    )
    from lacunaria.permute import PermutationWindow
    images = [3, 4] + [i for i in range(1, 41) if i not in (3, 4)]
    perm = PermutationWindow(images)
    prof = mixture_profile(COS1, seq, perm, cert)
    assert prof.constant == exact_variance(COS1, seq, perm, 2)
    assert not prof.cosine_terms


def test_mixture_profile_warns_on_low_cutoff():
    seq, perm, cert = erdos_fortet_cert(npairs=3, length=20)
    with pytest.warns(UserWarning):
        prof = mixture_profile(COS12, seq, perm, cert, freq_cutoff=0)
    assert not prof.cosine_terms  # everything pushed into the residual
    assert prof.residual_mass > 0


def test_mixture_profile_empty_certificate():
    seq = gen_power(2, -1, 10)
    cert = PairingCertificate(a=1, b=2, gap_ratio=Fraction(4), blocks=[])
    with pytest.raises(ValueError):
        mixture_profile(COS12, seq, identity(10), cert)


def test_mixture_residual_mass_shrinks_with_pairs():
    m_small = mixture_profile(COS12, *erdos_fortet_cert(npairs=4)).residual_mass
    m_large = mixture_profile(COS12, *erdos_fortet_cert(npairs=32)).residual_mass
    assert m_large < m_small


# ---------------- characteristic function ----------------

def test_bessel_vs_scipy():
    for z in (0.0, 0.125, 0.5, 1.0, 2.0, 6.0):
        assert abs(bessel_i0(z) - scipy.special.i0(z)) < 1e-12 * scipy.special.i0(z)


def test_charfn_constant_profile_is_gaussian():
    prof = MixtureProfile(constant=Fraction(1, 2))
    for s in (0.5, 1.0, 2.0):
        assert abs(mixture_charfn(prof, s) - math.exp(-s * s / 4)) < 1e-9


def test_charfn_examples_against_bessel_series():
    prof = MixtureProfile(constant=Fraction(1), cosine_terms={1: Fraction(1, 2)})
    got = mixture_charfn(prof, 2.0)
    want = math.exp(-2.0) * bessel_i0(1.0)
    assert abs(got - want) < 1e-9
    assert abs(want - 0.17135) < 5e-5

    prof2 = MixtureProfile(constant=Fraction(1), cosine_terms={1: Fraction(1, 4)})
    got2 = mixture_charfn(prof2, 1.0)
    want2 = math.exp(-0.5) * bessel_i0(0.125)
    assert abs(got2 - want2) < 1e-9
    assert abs(want2 - 0.6089) < 5e-5


def test_charfn_quadrature_matches_closed_form_property():
    quad_tol = 1e-10
    for beta_num in (1, 2):
        for c in (1, 3, 7):
            prof = MixtureProfile(constant=Fraction(1),
                                  cosine_terms={c: Fraction(beta_num, 4)})
            for s in (0.5, 1.5, 3.0):
                q = mixture_charfn(prof, s, quad_tol)
                closed = mixture_charfn_closed_form(prof, s)
                assert abs(q - closed) <= 10 * quad_tol + 1e-12


def test_charfn_bad_tolerance():
    prof = MixtureProfile(constant=Fraction(1), cosine_terms={1: Fraction(1, 2)})
    with pytest.raises(ValueError):
        mixture_charfn(prof, 1.0, quad_tol=0.0)


def test_charfn_rejects_non_finite_s_and_tolerance():
    prof = MixtureProfile(constant=Fraction(1), cosine_terms={1: Fraction(1, 2)})
    for s, quad_tol in ((math.nan, 1e-10), (math.inf, 1e-10), (1.0, math.nan),
                        (1.0, math.inf), (1.0, -1e-10)):
        with pytest.raises(ValueError, match="s must be finite and quad_tol positive"):
            mixture_charfn(prof, s, quad_tol)


def test_charfn_refuses_a_tolerance_below_the_float_floor():
    prof = MixtureProfile(constant=Fraction(1), cosine_terms={1: Fraction(1, 2)})
    with pytest.raises(ValueError, match="below twice the float evaluation bound"):
        mixture_charfn(prof, 1.0, 1e-17)


def test_mixture_profile_rejects_frequency_keys_below_one():
    for key in ("0", "-3"):
        with pytest.raises(ValueError, match="frequencies must be >= 1"):
            MixtureProfile.from_json_dict(
                {"constant": "1", "cosine_terms": {"1": "1/4"}, "sine_terms": {key: "1/5"}})


def test_midpoint_rule_refuses_what_it_cannot_bound():
    high = MixtureProfile(constant=Fraction(1), cosine_terms={MAX_NODES + 1: Fraction(1, 4)})
    with pytest.raises(ValueError, match="needs over"):
        mixture_charfn(high, 1.0)
    touching = MixtureProfile(constant=Fraction(1), cosine_terms={1: Fraction(1)})
    with pytest.raises(ValueError, match="is bounded for this mixture profile"):
        MixtureTarget(touching).cdf_with_tolerance(np.zeros(3))


# ---------------- the midpoint rule against a 30-digit oracle ----------------

ORACLE_PROFILES = {
    "criterion 5": MixtureProfile(constant=Fraction(1), cosine_terms={1: Fraction(2731, 5460)}),
    "sine terms": MixtureProfile(constant=Fraction(3, 2),
                                 cosine_terms={1: Fraction(1, 3), 2: Fraction(-1, 5)},
                                 sine_terms={1: Fraction(1, 4), 3: Fraction(1, 7)}),
    "min v 0.05": MixtureProfile(constant=Fraction(1), cosine_terms={1: Fraction(19, 20)}),
    "frequencies 4 and 5": MixtureProfile(constant=Fraction(1), cosine_terms={4: Fraction(3, 10)},
                                          sine_terms={5: Fraction(1, 5)}),
}


def _mp_profile(profile):
    """t -> v(t) in mpmath at the working precision."""
    def v(t):
        total = mpmath.mpf(profile.constant.numerator) / profile.constant.denominator
        for f, c in profile.cosine_terms.items():
            total += mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(2 * mpmath.pi * f * t)
        for f, c in profile.sine_terms.items():
            total += mpmath.mpf(c.numerator) / c.denominator * mpmath.sin(2 * mpmath.pi * f * t)
        return total
    return v


@pytest.mark.parametrize("name", sorted(ORACLE_PROFILES))
def test_midpoint_rule_within_its_bound_of_a_30_digit_oracle(name):
    profile = ORACLE_PROFILES[name]
    v = _mp_profile(profile)
    top = max((*profile.cosine_terms, *profile.sine_terms))
    with mpmath.workdps(30):
        # split the period where the integrands turn, for mpmath's quadrature
        breaks = [mpmath.mpf(k) / (4 * top) for k in range(4 * top + 1)]
        xs = np.array([-3.0, -1.0, -0.25, 0.0, 0.4, 1.3, 2.7])
        cdf, tol = MixtureTarget(profile).cdf_with_tolerance(xs)
        assert tol <= 1e-13
        for x, got in zip(xs, cdf):
            want = mpmath.quad(lambda t: mpmath.ncdf(float(x) / mpmath.sqrt(v(t))), breaks)
            assert abs(got - want) <= tol, (x, got, want)
        for quad_tol in (1e-10, 1e-12):
            for s in (0.5, 1.0, 2.0, 3.0):
                want = mpmath.quad(lambda t: mpmath.exp(-s * s * v(t) / 2), breaks)
                got = mixture_charfn(profile, s, quad_tol)
                assert abs(got - want) <= quad_tol, (s, quad_tol, got, want)


def test_midpoint_rule_node_counts():
    # criterion 5: the CDF meets 2^-53 and the charfn 1e-10 with few nodes
    profile = ORACLE_PROFILES["criterion 5"]
    cdf_nodes = midpoint_rule(profile, lambda lo, hi: np.log(hi / lo) / 2 - math.log(2),
                              2.0 ** -53)
    assert len(cdf_nodes[0]) <= 64 and cdf_nodes[3] <= 2.0 ** -53
    for s, most in ((1.0, 9), (2.0, 12), (3.0, 15)):
        v, _, _, truncation = midpoint_rule(profile, lambda lo, hi: -s * s / 2 * lo, 5e-11)
        assert len(v) <= most and truncation <= 5e-11
