import random
from itertools import count, product as iproduct
from math import isqrt

import pytest

from ans import (
    BOTTOM,
    AlphabetMismatchError,
    AnsError,
    AutomaticSequence,
    Dfa,
    KernelBoundError,
    NumerationSystem,
    OrderedAlphabet,
    PartitionError,
    dfao_from_fibers,
    dfao_from_kernel,
    equivalent,
    fiber,
    kernel,
    minimize,
    occurrence_gaps,
    reduce_dfao,
    sequence,
    subsequence,
    take,
)
from conftest import (
    AB,
    GOLDEN_50,
    ab_star_dfa,
    binary_like_dfa,
    fibonacci_dfa,
    popcount_parity,
    squares_dfa,
    teaching_dfao,
    teaching_output,
    thue_morse_dfao,
)

# -- the sequences themselves ----------------------------------------------


def test_golden_prefix(teaching):
    assert "".join(teaching.prefix(50)) == GOLDEN_50


def test_stream_matches_term(teaching, thue_morse, squares_sequence):
    for u in (teaching, thue_morse, squares_sequence):
        assert take(u.stream(), 2_000) == tuple(u.term(n) for n in range(2_000))


def test_teaching_term_against_letter_counts(teaching):
    for n in range(0, 3_000, 7):
        w = teaching.system.rep(n)
        i = sum(1 for c in w if c == "a") % 4
        j = sum(1 for c in w if c == "b") % 3
        assert teaching.term(n) == teaching_output(i, j)


def test_thue_morse_matches_popcount(thue_morse):
    got = take(thue_morse.stream(), 4_096)
    assert got == tuple(popcount_parity(n) for n in range(4_096))


def ab_star_word(n):
    """rep(n) over a*b*: the lengths below L hold L(L+1)/2 words, and a^(L-k) b^k is the k-th of length L."""
    length = (isqrt(8 * n + 1) - 1) // 2
    k = n - length * (length + 1) // 2
    return ("a",) * (length - k) + ("b",) * k


def zeckendorf_word(n):
    """n's greedy digits over the weights 1, 2, 3, 5, 8, ... up to n."""
    weights = [1, 2]
    while weights[-1] <= n:
        weights.append(weights[-1] + weights[-2])
    word = []
    for w in reversed([w for w in weights if w <= n]):
        word.append("1" if w <= n else "0")
        n -= w if w <= n else 0
    return tuple(word)


# the benchmark's query systems, each with its largest query rank and its words
# in closed form: a*b* with the teaching machine, Thue-Morse over base 2 and
# the same parity machine over Zeckendorf words
DEEP = {
    "ab-star-teaching": (ab_star_dfa, teaching_dfao, 10**7, ab_star_word),
    "base-2": (binary_like_dfa, thue_morse_dfao, 10**300, lambda n: tuple(bin(n)[2:]) if n else ()),
    "fibonacci": (fibonacci_dfa, thue_morse_dfao, 10**300, zeckendorf_word),
}


@pytest.mark.parametrize("name", DEEP)
def test_deep_terms_are_the_machine_run_on_rep(name):
    make_lang, make_machine, top, word = DEEP[name]
    u = AutomaticSequence(NumerationSystem(make_lang()), make_machine())
    rng = random.Random(name)
    trans, start, out = u.machine.trans, u.machine.start, u.machine.output
    for n in [top, top - 1, *(rng.randrange(top) for _ in range(100)), *range(50)]:
        w = word(n)
        q = start
        for a in w:
            q = trans[(q, a)]
        assert u.term(n) == out[q]  # the first, at the top rank, fills the tables
        assert u.system.rep(n) == w


def test_alphabet_mismatch_rejected(ab_system):
    with pytest.raises(AlphabetMismatchError):
        AutomaticSequence(ab_system, thue_morse_dfao())
    with pytest.raises(AlphabetMismatchError):
        take(sequence(ab_system, thue_morse_dfao()), 1)


def test_output_alphabet_exposed(teaching):
    assert teaching.output_alphabet == ("0", "1", "2", "3")


# -- fibers ------------------------------------------------------------------


def a_mod4_language() -> Dfa:
    """Words a^(4r) b^s: the representations the running example maps to 0."""
    states = ("c0", "c1", "c2", "c3", "bs")
    trans = {("c%d" % i, "a"): "c%d" % ((i + 1) % 4) for i in range(4)}
    trans[("c0", "b")] = "bs"
    trans[("bs", "b")] = "bs"
    return Dfa(AB, states, "c0", frozenset({"c0", "bs"}), trans)


def test_fiber_zero_language(teaching):
    assert equivalent(fiber(teaching, "0"), a_mod4_language())


def test_fiber_words_have_that_output(teaching):
    f = fiber(teaching, "2")
    for n in range(1_500):
        w = teaching.system.rep(n)
        assert f.accepts(w) == (teaching.term(n) == "2")


def test_fibers_partition_language(teaching):
    from ans import intersect, is_empty, union

    fs = {a: fiber(teaching, a) for a in teaching.output_alphabet}
    symbols = list(fs)
    for i, a in enumerate(symbols):
        for b in symbols[i + 1 :]:
            assert is_empty(intersect(fs[a], fs[b]))
    covered = fs[symbols[0]]
    for a in symbols[1:]:
        covered = union(covered, fs[a])
    assert equivalent(covered, teaching.system.language)


def test_fiber_rejects_unknown_symbol(teaching):
    with pytest.raises(AnsError, match="not in the output alphabet"):
        fiber(teaching, "9")


def test_rebuild_from_fibers(teaching):
    fs = {a: fiber(teaching, a) for a in teaching.output_alphabet}
    rebuilt = dfao_from_fibers(teaching.system, fs)
    v = AutomaticSequence(teaching.system, rebuilt)
    assert "".join(v.prefix(50)) == GOLDEN_50
    assert v.prefix(3_000) == teaching.prefix(3_000)
    for n in (10_000, 123_456):
        assert v.term(n) == teaching.term(n)


def test_rebuild_from_fibers_thue_morse(thue_morse):
    fs = {a: fiber(thue_morse, a) for a in ("0", "1")}
    rebuilt = dfao_from_fibers(thue_morse.system, fs)
    assert take(sequence(thue_morse.system, rebuilt), 2_048) == thue_morse.prefix(2_048)


def test_overlapping_fibers_rejected(teaching):
    lang = teaching.system.language
    with pytest.raises(PartitionError, match="overlap"):
        dfao_from_fibers(teaching.system, {"0": lang, "1": lang})


def test_non_covering_fibers_rejected(teaching):
    fs = {a: fiber(teaching, a) for a in ("0", "1", "2")}
    with pytest.raises(PartitionError, match="do not cover"):
        dfao_from_fibers(teaching.system, fs)


def test_fiber_alphabet_mismatch_rejected(teaching):
    with pytest.raises(AlphabetMismatchError):
        dfao_from_fibers(teaching.system, {"0": binary_like_dfa()})


# -- kernels -----------------------------------------------------------------


def brute_signature(u: AutomaticSequence, w: tuple, max_len: int) -> tuple:
    """(continuation, term) pairs over all continuations of w up to a length,
    by filtering the full cartesian power — independent of the kernel code."""
    lang = u.system.language
    sig = []
    for n in range(max_len + 1):
        for z in iproduct(lang.alphabet.symbols, repeat=n):
            if lang.accepts(w + z):
                sig.append((z, u.term(u.system.val(w + z))))
    return tuple(sig)


def test_teaching_kernel_classes(teaching):
    ks = kernel(teaching)
    assert len(ks) == 9
    assert [k.class_id for k in ks] == list(range(9))
    reps = [k.representative_prefix for k in ks]
    assert reps == [
        (),
        ("a",),
        ("b",),
        ("a", "a"),
        ("a", "b"),
        ("b", "a"),
        ("a", "a", "a"),
        ("a", "a", "b"),
        ("a", "b", "b"),
    ]
    assert [k.empty for k in ks] == [False] * 5 + [True] + [False] * 3


def test_kernel_size_bound(teaching, thue_morse, squares_sequence):
    for u in (teaching, thue_morse, squares_sequence):
        bound = len(minimize(u.system.language).completed().states) * len(
            reduce_dfao(u.machine).completed().states
        )
        assert len(kernel(u)) <= bound


def test_subsequences_match_brute_force(teaching):
    for k in kernel(teaching):
        oracle = tuple(t for _z, t in brute_signature(teaching, k.representative_prefix, 8))
        assert take(subsequence(teaching, k), len(oracle) or 5) == oracle


def test_full_class_subsequence_is_the_sequence(teaching):
    ks = kernel(teaching)
    assert ks[0].representative_prefix == ()
    assert take(subsequence(teaching, ks[0]), 50) == teaching.prefix(50)


def test_kernel_is_sound_and_complete(teaching):
    """Class signatures are pairwise distinct and every short prefix of the
    input alphabet lands on exactly one of them."""
    class_sigs = [brute_signature(teaching, k.representative_prefix, 8) for k in kernel(teaching)]
    assert len(set(class_sigs)) == len(class_sigs)
    for n in range(5):
        for w in iproduct(AB.symbols, repeat=n):
            assert brute_signature(teaching, w, 8) in class_sigs


def test_thue_morse_kernel(thue_morse):
    ks = kernel(thue_morse)
    assert len(ks) == 4
    streams = [take(subsequence(thue_morse, k), 64) for k in ks if not k.empty]
    assert len(set(streams)) == len(streams)
    assert sum(1 for k in ks if k.empty) == 1


# -- learning a machine from the term function --------------------------------


def test_learner_recovers_teaching(teaching):
    learned = dfao_from_kernel(teaching.term, teaching.system, 12)
    assert len(learned.states) == 9
    v = AutomaticSequence(teaching.system, learned)
    assert v.prefix(5_000) == teaching.prefix(5_000)


def test_learner_bound_too_small(teaching):
    with pytest.raises(KernelBoundError, match="not recognized within bound"):
        dfao_from_kernel(teaching.term, teaching.system, 8)


def test_learner_verification_catches_a_term_that_changes_between_calls(ab_system):
    # the signatures ask 10 distinct ranks (16 entries), all "0": one class; rank 0,
    # asked again by the verification pass, then reads "1"
    calls = count()
    with pytest.raises(KernelBoundError, match="disagrees with the term function at rank 0"):
        dfao_from_kernel(lambda n: "0" if next(calls) < 10 else "1", ab_system, 4)
    assert next(calls) == 11


def test_learner_constant_sequence(ab_system):
    learned = dfao_from_kernel(lambda n: "c", ab_system, 1)
    assert len(learned.states) == 1
    assert take(sequence(ab_system, learned), 20) == ("c",) * 20


def test_learner_square_indicator_on_matched_system():
    system = NumerationSystem(squares_dfa())
    term = lambda n: "1" if isqrt(n) ** 2 == n else "0"
    learned = dfao_from_kernel(term, system, 30)
    assert len(learned.states) == 3
    assert learned.output_alphabet[-1] == BOTTOM  # dead prefixes exist
    got = take(sequence(system, learned), 10_000)
    assert got == tuple(term(n) for n in range(10_000))
    u = AutomaticSequence(system, learned)
    a_star = Dfa(system.alphabet, ("z",), "z", frozenset({"z"}), {("z", "a"): "z"})
    assert equivalent(fiber(u, "1"), a_star)


def test_learner_rejects_square_indicator_on_plain_system(ab_system):
    term = lambda n: "1" if isqrt(n) ** 2 == n else "0"
    with pytest.raises(KernelBoundError, match="not recognized within bound"):
        dfao_from_kernel(term, ab_system, 40)


def test_learner_bound_validation(ab_system):
    with pytest.raises(ValueError):
        dfao_from_kernel(lambda n: "c", ab_system, 0)


# -- occurrence gaps ----------------------------------------------------------


def test_zero_zero_gaps_are_arithmetic(teaching):
    report = occurrence_gaps(teaching.stream(), ("0", "0"), 2_000)
    assert report.positions[0] == 9
    assert report.gaps == tuple(26 + 16 * r for r in range(len(report.gaps)))
    # cross-check against a plain string scan of the same prefix
    s = "".join(teaching.prefix(2_000))
    assert report.positions == tuple(i for i in range(len(s) - 1) if s[i : i + 2] == "00")


def test_gap_maxima_grow_with_horizon(teaching):
    maxima = [
        max(occurrence_gaps(teaching.stream(), ("0", "0"), h).gaps)
        for h in (1_000, 2_000, 4_000, 8_000, 16_000)
    ]
    assert all(a < b for a, b in zip(maxima, maxima[1:]))


def test_absent_factor(teaching):
    report = occurrence_gaps(teaching.stream(), ("0", "0", "0"), 2_000)
    assert report.positions == ()
    assert report.gaps == ()


def test_gap_argument_validation(teaching):
    with pytest.raises(ValueError, match="nonempty"):
        occurrence_gaps(teaching.stream(), (), 100)
    with pytest.raises(ValueError, match="shorter than the factor"):
        occurrence_gaps(teaching.stream(), ("0", "0"), 1)
