import math
import random

import pytest

from ans import (
    GROWTH_CLASSES,
    Morphism,
    OrderedAlphabet,
    binomial_bits,
    binomial_word,
    factor_count,
    fixed_point,
    quadratic_witness_check,
    super_quadratic_check,
    take,
    upper_bound_check,
)
from conftest import witness_morphism


def naive_counts(prefix, n_max):
    """Distinct blocks per length by hashing every window — the slow oracle."""
    prefix = tuple(prefix)
    return tuple(
        len({prefix[i : i + n] for i in range(len(prefix) - n + 1)})
        for n in range(1, n_max + 1)
    )


def test_factor_count_matches_naive_on_random_prefixes():
    rng = random.Random(1234)
    for _ in range(50):
        size = rng.randint(2, 4)
        length = rng.randint(50, 800)
        prefix = [rng.randrange(size) for _ in range(length)]
        n_max = min(30, length)
        got = factor_count(prefix, length, n_max)
        assert got.values == naive_counts(prefix, n_max)


def test_factor_count_matches_naive_on_structured_prefixes(teaching, thue_morse):
    structured = [
        teaching.prefix(2_000),
        thue_morse.prefix(2_000),
        take(fixed_point(witness_morphism(), 0), 2_000),
        ("a",) * 500,
        tuple("ab" * 400),
        take(binomial_bits(), 2_000),
    ]
    for prefix in structured:
        got = factor_count(prefix, len(prefix), 30)
        assert got.values == naive_counts(prefix, 30)


def test_profile_accessors():
    profile = factor_count("abab", 4, 4)
    assert profile.p(1) == 2
    assert profile.p(4) == 1
    with pytest.raises(ValueError, match="outside the profiled range"):
        profile.p(5)
    d = profile.to_dict()
    assert d["n"] == [1, 2, 3, 4]
    assert d["p"] == [2, 2, 2, 1]
    assert d["prefix"] == 4 and "ratios" in d and "verdicts" in d


def test_exactness_horizon():
    # in "aaaa" windows repeat up to length 3; at 4 there is a single window
    assert factor_count("aaaa", 4, 4).exactness_horizon == 3
    # all four letters distinct: already the length-1 windows never repeat
    assert factor_count("abcd", 4, 4).exactness_horizon == 0


def test_factor_count_validation():
    with pytest.raises(ValueError, match="exceeds the prefix"):
        factor_count("ab", 2, 3)
    with pytest.raises(ValueError, match="at least 1"):
        factor_count("ab", 2, 0)


def test_factor_count_short_stream_pads_with_zeros():
    profile = factor_count(iter("ab"), 100, 5)
    assert profile.prefix_length == 2
    assert profile.values == (2, 1, 0, 0, 0)


def test_counts_monotone_and_bounded(teaching):
    profile = factor_count(teaching.stream(), 2_000, 25)
    vals = profile.values
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    width = len(teaching.output_alphabet)
    assert all(b <= a * width for a, b in zip(vals, vals[1:]))


# -- quadratic witness ---------------------------------------------------------


def test_witness_report_passes():
    report = quadratic_witness_check(50_000)
    assert report.passed
    assert report.embedding_ok and report.runs_ok and report.exponent_ok
    assert report.exponent >= 1.7
    assert report.run_letter == 2
    assert report.run_bound == int(math.log2(50_000))
    assert report.longest_run >= report.run_bound
    d = report.to_dict()
    assert d["verdicts"]["passed"] is True
    assert d["growth_classes"] == list(GROWTH_CLASSES)


def test_witness_counts_grow_quadratically():
    report = quadratic_witness_check(50_000)
    # p(n) for the witness is asymptotically quadratic: ratios stay level
    ratios = [report.fixed_point_counts[n - 1] / n**2 for n in (10, 20, 30)]
    assert ratios[0] == pytest.approx(ratios[-1], rel=0.5)


def test_linear_growth_morphism_flips_the_verdicts():
    zo = OrderedAlphabet((0, 1))
    tm = Morphism(zo, zo, {0: (0, 1), 1: (1, 0)})
    report = quadratic_witness_check(50_000, tm, 0)
    assert not report.exponent_ok
    assert report.exponent < 1.2
    assert not report.runs_ok  # no run of length 3 occurs at all
    assert not report.passed


def test_upper_bound_check_on_teaching(teaching):
    report = upper_bound_check(teaching, 40)
    assert report.passed
    assert report.doubling_violations == ()
    assert report.constant > 0
    assert report.values == naive_counts(teaching.prefix(10_000), 40)
    # the JSON report, key for key
    d = report.to_dict()
    assert list(d) == ["prefix", "n", "p", "ratios", "verdicts", "constant", "doubling_violations"]
    assert d["prefix"] == 10_000
    assert d["n"] == list(range(1, 41))
    assert d["p"] == list(report.values)
    assert d["ratios"] == [p / n**2 for n, p in zip(d["n"], d["p"])]
    assert d["verdicts"] == {"passed": True}
    assert d["constant"] == max(p / n**2 for n, p in zip(d["n"][1:], d["p"][1:]))
    assert d["doubling_violations"] == []


# -- the three-ones listing word ------------------------------------------------


def test_binomial_word_goldens():
    assert "".join(map(str, binomial_word(19).bits)) == "1110111101111011110"
    assert binomial_word(29).elements == (
        0, 1, 2, 4, 5, 6, 7, 9, 10, 11, 12, 14, 15, 16, 17, 21, 22, 23, 25, 27, 28,
    )


def test_binomial_blocks_list_every_three_ones_word():
    bits = take(binomial_bits(), 3 + 4 * 4 + 10 * 5)
    block4 = ["".join(map(str, bits[3 + 4 * i : 7 + 4 * i])) for i in range(4)]
    assert block4 == sorted(block4)
    assert {w.count("1") for w in block4} == {3}
    block5 = ["".join(map(str, bits[19 + 5 * i : 24 + 5 * i])) for i in range(10)]
    assert block5 == sorted(set(block5))
    assert len(block5) == math.comb(5, 3)


def test_super_quadratic_check_passes_on_listing_word():
    report = super_quadratic_check(200_000)
    assert report.verdict == "pass"
    assert report.growth_factor >= 2.0
    assert report.grid[0] == 4 and report.grid[-1] >= 128
    assert report.to_dict()["verdicts"]["verdict"] == "pass"


def test_super_quadratic_check_inconclusive_when_short():
    report = super_quadratic_check(500)
    assert report.verdict == "inconclusive"
    assert report.ratios == ()


def test_super_quadratic_check_fails_on_periodic_stream():
    report = super_quadratic_check(5_000, stream=tuple("01" * 2_500))
    assert report.verdict == "fail"
    assert report.growth_factor < 1.0
