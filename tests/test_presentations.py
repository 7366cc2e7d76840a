"""Every presentation of a sequence agrees with brute force.

Random infinite languages (at most 5 states, 3 letters, trimmed by the
numeration system) and random partial output machines, with fixed
hypothesis seeds, plus fixed systems whose walks meet one-child chains in
every way they can: long runs of b's, a root with a single live child, a
tree that is one chain.  The oracle lists words without the count tables:
every word the automaton can read, one length at a time, each length in
lexicographic order, keeping the accepted ones.  A term is the machine's
output at the end of the word's run, or ``⊥`` where the run dies.
"""

from itertools import groupby, islice

import pytest
from hypothesis import given, seed, strategies as st

from ans import (
    AutomaticSequence,
    Dfa,
    Dfao,
    Morphism,
    NumerationSystem,
    OrderedAlphabet,
    Substitution,
    canonical_substitution,
    dfao_from_kernel,
    fixed_point,
    kernel,
    numeration,
    sequence,
    subsequence,
    take,
)

from conftest import (
    AB,
    ab_star_dfa,
    binary_like_dfa,
    squares_chi_dfao,
    squares_dfa,
    teaching_dfao,
    thue_morse_dfao,
)
from test_automaton_core import CORE, least_words, out, sequences

N = 40


def brute_words(lang, root, count):
    """The first `count` words accepted from `root`, in shortlex order."""
    words, level = [], [((), root)]
    while level and len(words) < count:
        words += [w for w, q in level if q in lang.finals]
        level = [(w + (a,), lang.trans[(q, a)]) for w, q in level for a in lang.alphabet if (q, a) in lang.trans]
    return words[:count]


# The streams read the walk in blocks of at most numeration.BLOCK words: they are
# checked at that size, at one word (every leaf its own block) and above every
# count met here (every tree one block, built from its children's blocks).
BLOCK_SIZES = (numeration.BLOCK, 1, 10**9)


def at_block_sizes(make, count, want):
    """The first `count` terms of the stream `make()` are `want` at every block size."""
    for block in BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeration, "BLOCK", block)
            assert take(make(), count) == want, f"block size {block}"


def check_terms(u, count):
    lang, mach = u.system.language, u.machine
    want = tuple(out(mach, mach.run(w)) for w in brute_words(lang, lang.start, count))
    at_block_sizes(u.stream, count, want)
    assert tuple(u.term(n) for n in range(count)) == want
    at_block_sizes(canonical_substitution(lang, mach).generate, count, want)


def check_enumerate(system, k, count):
    words = brute_words(system.language, system.language.start, count)
    assert take(system.enumerate(k), count - k) == tuple(words[k:])
    for n, w in enumerate(words):
        assert system.rep(n) == w
        assert system.val(system.rep(n)) == n


def check_words_from(system, count):
    for q in system.language.states:
        assert take(system.words_from(q), count) == tuple(brute_words(system.language, q, count))


@seed(41)
@CORE
@given(sequences())
def test_stream_term_and_substitution_agree_with_brute_force(u):
    check_terms(u, N)


@seed(42)
@CORE
@given(sequences(), st.integers(0, N - 1))
def test_enumerate_rep_and_val_agree_with_brute_force(u, k):
    check_enumerate(u.system, k, N)


@seed(43)
@CORE
@given(sequences())
def test_words_from_every_state_agree_with_brute_force(u):
    check_words_from(u.system, N)


@seed(44)
@CORE
@given(sequences())
def test_kernel_relearn_reproduces_the_stream_up_to_its_bound(u):
    # prefixes in one (language state, machine state) pair have one suffix
    # subsequence, so that many classes always suffice
    bound = len(least_words((u.system.language, u.machine)))
    learned = dfao_from_kernel(u.term, u.system, bound)
    assert take(sequence(u.system, learned), bound) == take(u.stream(), bound)


@seed(49)
@CORE
@given(sequences(), st.data())
def test_term_at_deep_ranks_is_the_run_on_rep(u, data):
    # ranks among the words of up to 300 letters: near 3^300 on the fastest-growing
    # languages, a few hundred on those with one word per length
    system, lang, mach = u.system, u.system.language, u.machine
    top = sum(map(NumerationSystem(lang).count_words, range(301)))
    for n in data.draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=8)):
        got = u.term(n)  # before rep, so that term fills the tables itself
        w = system.rep(n)
        assert lang.accepts(w) and system.val(w) == n
        assert got == out(mach, mach.run(w))


@seed(45)
@CORE
@given(sequences())
def test_every_kernel_subsequence_agrees_with_brute_force(u):
    check_kernel_subsequences(u)


def check_kernel_subsequences(u):
    lang, mach = u.system.language, u.machine
    for k in kernel(u):
        w = k.representative_prefix
        root = lang.run(w)
        words = [] if root is None else brute_words(lang, root, N)
        at_block_sizes(lambda: subsequence(u, k), N, tuple(out(mach, mach.run(w + z)) for z in words))


@st.composite
def substitutions(draw):
    """A random morphism prolongable on 0, where letters may not grow, and a weak coding that may erase."""
    letters = tuple(range(draw(st.integers(1, 4))))
    images = {x: draw(st.lists(st.sampled_from(letters), max_size=3)) for x in letters}
    images[0] = [0, *draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3))]
    coding = {x: draw(st.lists(st.sampled_from("xy"), max_size=1)) for x in letters}
    sigma = OrderedAlphabet(letters)
    return Morphism(sigma, sigma, images), Morphism(sigma, OrderedAlphabet(("x", "y")), coding)


def coded_word_is_infinite(phi, h):
    """Whether h(phi^omega(0)) is infinite.  phi^omega(0) = 0 t phi(t) phi^2(t) ...; the
    sets of letters in phi^k(t) repeat with a period, and the word is infinite exactly when
    a set in that period holds a letter that h keeps."""
    level, seen = frozenset(phi.images[0][1:]), []
    while level not in seen:
        seen.append(level)
        level = frozenset(y for x in level for y in phi.images[x])
    return any(h.images[x] for s in seen[seen.index(level) :] for x in s)


@seed(46)
@CORE
@given(substitutions())
def test_generate_agrees_with_the_coded_fixed_point(case):
    phi, h = case
    if not coded_word_is_infinite(phi, h):
        with pytest.raises(ValueError):
            Substitution(phi, h, 0)
        return
    want = tuple(y for x in islice(fixed_point(phi, 0), 3_000) for y in h.images[x])[:N]
    at_block_sizes(Substitution(phi, h, 0).generate, len(want), want)


# -- fixed systems with one-child chains ---------------------------------------------

UNARY = OrderedAlphabet(("a",))
A_STAR = Dfa(UNARY, ("p",), "p", frozenset({"p"}), {("p", "a"): "p"})
NO_B_AFTER_ODD_A = Dfao(  # partial: the run dies on b after an odd number of a's
    AB, ("x", "y"), "x", {("x", "a"): "y", ("y", "a"): "x", ("x", "b"): "x"}, {"x": "0", "y": "1"}, ("0", "1")
)
A_MOD = Dfao(
    UNARY, ("x", "y", "z"), "x", {("x", "a"): "y", ("y", "a"): "z", ("z", "a"): "y"},
    {"x": "0", "y": "1", "z": "2"}, ("0", "1", "2"),
)

CHAINS = {
    # a run of b's closes every word: chains of up to ~20 letters by rank 200
    "ab-star-teaching": (ab_star_dfa(), teaching_dfao()),
    "ab-star-partial": (ab_star_dfa(), NO_B_AFTER_ODD_A),
    # the root reads only 1, then every node branches
    "base-2": (binary_like_dfa(), thue_morse_dfao()),
    # one word per length: every tree is one chain from the root
    "one-letter": (A_STAR, A_MOD),
    # the a's after a marker are one chain
    "squares": (squares_dfa(), squares_chi_dfao()),
}


@pytest.mark.parametrize("name", CHAINS)
def test_fixed_systems_agree_with_brute_force(name):
    u = AutomaticSequence(NumerationSystem(CHAINS[name][0]), CHAINS[name][1])
    check_terms(u, 200)
    check_kernel_subsequences(u)
    # over a*b*, rep(0) is the empty word and rep(26) = abbbbb ends in a five-letter chain
    for k in (0, 1, 5, 26, 57):
        check_enumerate(u.system, k, 120)
    # from a*b*'s state q, every tree is one chain of b's
    check_words_from(u.system, 60)


def test_term_neither_builds_rep_nor_calls_transform(monkeypatch):
    # term runs the completed machine over the letters the descent picks, ⊥ where the run dies
    def refused(*args):
        raise AssertionError("term goes through rep or transform")

    cases = [AutomaticSequence(NumerationSystem(lang), mach) for lang, mach in CHAINS.values()]
    wants = [[out(mach, mach.run(w)) for w in brute_words(lang, lang.start, 200)] for lang, mach in CHAINS.values()]
    monkeypatch.setattr(NumerationSystem, "rep", refused)
    monkeypatch.setattr(Dfao, "transform", refused)
    for u, want in zip(cases, wants):
        assert [u.term(n) for n in range(200)] == want


@pytest.mark.parametrize("make", [ab_star_dfa, binary_like_dfa])
def test_deep_enumerate_and_words_from_agree_with_brute_force(make):
    # ranks 1,000 to 2,000 stack dozens of levels over a*b*; from a*b*'s
    # state q the words run to 1,000 letters
    system = NumerationSystem(make())
    lang = system.language
    assert take(system.enumerate(1_000), 1_000) == tuple(brute_words(lang, lang.start, 2_000)[1_000:])
    for q in lang.states:
        assert take(system.words_from(q), 1_000) == tuple(brute_words(lang, q, 1_000))


def test_kernel_and_its_subsequences_complete_the_machine_once(monkeypatch):
    completed, receivers = Dfao.completed, []

    def counted(self, *args):
        receivers.append(self)
        return completed(self, *args)

    monkeypatch.setattr(Dfao, "completed", counted)
    u = AutomaticSequence(NumerationSystem(ab_star_dfa()), NO_B_AFTER_ODD_A)
    classes = kernel(u)
    assert len(classes) > 2
    for k in classes:
        take(subsequence(u, k), 20)
    take(u.stream(), 20)
    # kernel completes machines of its own; the sequence's machine is completed once
    assert sum(m is u.machine for m in receivers) == 1


# -- the kernel learner's ranks and work -------------------------------------------

# a's, then b, then one more letter: after the b the continuations are a and b, after those only the empty word
A_STAR_B_ONE = Dfa(
    AB, ("p", "r", "f"), "p", frozenset({"f"}), {("p", "a"): "p", ("p", "b"): "r", ("r", "a"): "f", ("r", "b"): "f"}
)
LEARNED = {
    "ab-star-teaching": (ab_star_dfa(), teaching_dfao()),
    "base-2": (binary_like_dfa(), thue_morse_dfao()),
    "finite-continuations": (A_STAR_B_ONE, NO_B_AFTER_ODD_A),
}


def learner_bound(u):
    # prefixes in one (language state, machine state) pair have one suffix subsequence
    return len(least_words((u.system.language, u.machine)))


def live_explored(learned, lang):
    """The prefixes the learner reads that stay in the language: the empty word and
    each class's least prefix extended by one letter.  The classes are found breadth
    first, so their least prefixes are the learned machine's least access words."""
    words = [()] + [w + (a,) for w in least_words((learned,)).values() for a in lang.alphabet]
    return sorted((w for w in words if lang.run(w) is not None), key=lambda w: (len(w), w))


def check_learner_ranks(u, bound) -> bool:
    """The learner takes one offset per explored prefix and continuation length, and the offset
    plus a continuation's index among those of its length is val; True if some explored
    prefix has fewer than `bound` continuations."""
    system, lang, least_rank, taken = u.system, u.system.language, NumerationSystem._least_rank, []

    def recorded(self, word, extra):
        rank = least_rank(self, word, extra)
        taken.append((word, extra, rank[0]))
        return rank

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NumerationSystem, "_least_rank", recorded)
        learned = dfao_from_kernel(u.term, system, bound)
    live = live_explored(learned, lang)
    assert sorted({w for w, _, _ in taken}, key=lambda w: (len(w), w)) == live
    short = False
    for w in live:
        zs = brute_words(lang, lang.run(w), bound)
        short |= len(zs) < bound
        offsets = [(n, first) for v, n, first in taken if v == w]
        assert [n for n, _ in offsets] == sorted({len(z) for z in zs})
        for (_, first), (_, run) in zip(offsets, groupby(zs, len)):
            for j, z in enumerate(run):
                assert first + j == system.val(w + z)
    return short


def check_learner_work(u, bound):
    """No val call, one words_from listing per language state, and one term call per
    signature entry plus `bound` for the verification pass."""
    system, lang, words_from, listed, ranks = u.system, u.system.language, NumerationSystem.words_from, [], []

    def refused(self, word):
        raise AssertionError("the learner calls val")

    def counted(self, state):
        listed.append(state)
        return words_from(self, state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NumerationSystem, "val", refused)
        mp.setattr(NumerationSystem, "words_from", counted)
        learned = dfao_from_kernel(lambda n: ranks.append(n) or u.term(n), system, bound)
    assert len(listed) == len(set(listed)) <= len(lang.states)
    entries = sum(len(brute_words(lang, lang.run(w), bound)) for w in live_explored(learned, lang))
    assert len(ranks) == entries + bound


@seed(47)
@CORE
@given(sequences())
def test_learner_ranks_equal_val_on_random_machines(u):
    check_learner_ranks(u, learner_bound(u))


@seed(48)
@CORE
@given(sequences())
def test_learner_work_on_random_machines(u):
    check_learner_work(u, learner_bound(u))


@pytest.mark.parametrize("name", LEARNED)
def test_learner_ranks_and_work_on_fixed_systems(name):
    u = AutomaticSequence(NumerationSystem(LEARNED[name][0]), LEARNED[name][1])
    short = check_learner_ranks(u, learner_bound(u))
    assert short == (name == "finite-continuations")
    check_learner_work(u, learner_bound(u))
