import random
import tracemalloc
from itertools import chain, islice

import pytest
from hypothesis import given, settings, strategies as st

from ans import (
    AutomaticSequence,
    Dfa,
    Dfao,
    FiniteLanguageError,
    NotInLanguageError,
    NumerationSystem,
    OrderedAlphabet,
    dfao_from_kernel,
    numeration,
)
from conftest import (
    AB,
    ab_star_dfa,
    binary_like_dfa,
    brute_words,
    fibonacci_dfa,
    remark_morphism,
    squares_chi_dfao,
    squares_dfa,
    teaching_dfao,
    thue_morse_dfao,
)
from ans import system_from_morphism


def all_systems():
    systems = [
        NumerationSystem(ab_star_dfa()),
        NumerationSystem(binary_like_dfa()),
        NumerationSystem(fibonacci_dfa()),
        system_from_morphism(remark_morphism(), 0)[0],
        NumerationSystem(squares_dfa()),
    ]
    return systems


def test_first_ten_words(ab_system):
    words = [ab_system.rep(n) for n in range(10)]
    assert words == [
        (),
        ("a",),
        ("b",),
        ("a", "a"),
        ("a", "b"),
        ("b", "b"),
        ("a", "a", "a"),
        ("a", "a", "b"),
        ("a", "b", "b"),
        ("b", "b", "b"),
    ]


def test_count_words_linear(ab_system):
    for n in range(101):
        assert ab_system.count_words(n) == n + 1


def test_enumeration_matches_brute_force():
    for system in all_systems():
        brute = brute_words(system.language, 7)
        gen = [system.rep(n) for n in range(len(brute))]
        assert gen == brute


def test_rank_unrank_roundtrip():
    for system in all_systems():
        for n in range(2_000):
            assert system.val(system.rep(n)) == n


def test_unrank_rank_roundtrip_on_random_words():
    rng = random.Random(11)
    for system in all_systems():
        ranks = [rng.randrange(100_000) for _ in range(100)]
        for n in ranks:
            w = system.rep(n)
            assert system.language.accepts(w)
            assert system.val(w) == n


def test_binary_like_values():
    system = NumerationSystem(binary_like_dfa())
    assert system.rep(0) == ()
    assert system.val(("1", "0", "1")) == 5
    assert system.count_words(6) == 32
    # rep(n) is the usual binary expansion with rep(0) the empty word
    for n in range(1, 200):
        assert "".join(system.rep(n)) == bin(n)[2:]


def test_fibonacci_values():
    system = NumerationSystem(fibonacci_dfa())
    assert system.rep(4) == ("1", "0", "1")
    # counts by length follow the Fibonacci recurrence
    counts = [system.count_words(n) for n in range(1, 15)]
    for i in range(2, len(counts)):
        assert counts[i] == counts[i - 1] + counts[i - 2]


def test_squares_system_values():
    system = NumerationSystem(squares_dfa())
    for m in range(60):
        assert system.val(("a",) * m) == m * m
        assert system.rep(m * m) == ("a",) * m


def test_val_rejects_bad_words(ab_system):
    with pytest.raises(NotInLanguageError, match="position 2"):
        ab_system.val(("b", "a"))
    with pytest.raises(NotInLanguageError):
        ab_system.val(("a", "c"))


def test_val_rejects_prefix_only():
    system = NumerationSystem(
        Dfa(AB, ("p", "q"), "p", frozenset({"q"}), {("p", "a"): "p", ("p", "b"): "q"})
    )
    with pytest.raises(NotInLanguageError, match="non-final"):
        system.val(("a", "a"))


def test_system_keeps_a_trimmed_language_as_given():
    t = ab_star_dfa()
    assert t.trimmed() is t
    assert NumerationSystem(t).language is t


def test_finite_language_rejected():
    finite = Dfa(AB, ("p", "q"), "p", frozenset({"q"}), {("p", "a"): "q"})
    with pytest.raises(FiniteLanguageError):
        NumerationSystem(finite)


def test_enumerate_with_start_rank(ab_system):
    from itertools import islice

    words = list(islice(ab_system.enumerate(5), 4))
    assert words == [ab_system.rep(n) for n in range(5, 9)]


def test_words_from_inner_state(ab_system):
    from itertools import islice

    # continuations from the b-only state
    words = list(islice(ab_system.words_from("q"), 4))
    assert words == [(), ("b",), ("b", "b"), ("b", "b", "b")]


class CountingMap(dict):
    """A transition map that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_walk_carries_constant_work_per_word(ab_system):
    # over a*b* a word ends in a run of b's about half its length; the walk
    # crosses such one-child chains at once, memoizing the carried state
    lang = ab_system.language
    step = CountingMap(lang.trans)
    count = sum(1 for _ in islice(ab_system._walk(lang.start, step, lang.start), 8_000))
    assert count == 8_000
    assert step.lookups <= 4 * count


def test_walk_keeps_no_chains_that_later_trees_never_meet():
    # a* + b*: the root's two children are chains as long as the word; each
    # pair is met in one tree only, so keeping them would take memory
    # quadratic in the length
    d = Dfa(AB, ("s", "x", "y"), "s", frozenset({"s", "x", "y"}),
            {("s", "a"): "x", ("x", "a"): "x", ("s", "b"): "y", ("y", "b"): "y"})
    system = NumerationSystem(d)
    tracemalloc.start()
    try:
        assert sum(1 for _ in islice(system.enumerate(), 1_000)) == 1_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


FILLED = {
    "ab-star": (ab_star_dfa, teaching_dfao),
    "base-2": (binary_like_dfa, thue_morse_dfao),
    "fibonacci": (fibonacci_dfa, thue_morse_dfao),
    "squares": (squares_dfa, squares_chi_dfao),
}


@pytest.mark.parametrize("name", FILLED)
def test_tables_do_not_depend_on_the_order_they_are_filled_in(name):
    lang, machine = FILLED[name][0](), FILLED[name][1]()
    words = NumerationSystem(lang)  # a separate system, for the words handed to val
    rng = random.Random(name)
    for _ in range(5):
        system = NumerationSystem(lang)
        u = AutomaticSequence(system, machine)
        calls = [
            lambda: system.count_words(rng.randrange(80)),
            lambda: system.rep(rng.randrange(10 ** rng.randrange(1, 8))),
            lambda: system.val(words.rep(rng.randrange(10 ** rng.randrange(1, 8)))),
            lambda: dfao_from_kernel(u.term, system, len(lang.states) * len(machine.states)),
            lambda: u.prefix(rng.randrange(1, 3_000)),
        ]
        for call in rng.sample(calls * 2, 10):
            call()
        length = len(system._cum) - 2
        fresh = NumerationSystem(lang)
        fresh.count_words(length)
        assert system._counts == fresh._counts and system._cum == fresh._cum
        words_upto_10 = brute_words(lang, 10)
        brute = [sum(len(w) == m for w in words_upto_10) for m in range(11)]
        assert system._counts[lang.start][: len(brute)] == brute
        assert system._cum[: len(brute) + 1] == [sum(brute[:m]) for m in range(len(brute) + 1)]


@pytest.mark.parametrize("name", FILLED)
def test_rep_fills_no_length_past_its_word(name):
    # the first length whose cumulative count exceeds n is rep(n)'s; filling on would overshoot
    rng = random.Random(name)
    for n in [0, 1, 2, 10**7, *(rng.randrange(10 ** rng.randrange(1, 12)) for _ in range(20))]:
        system = NumerationSystem(FILLED[name][0]())
        word = system.rep(n)
        assert len(system._cum) - 2 == len(word)


def test_words_from_handles_finite_continuations():
    # from state y of the squares language only a* remains — still infinite;
    # build a language with a genuinely finite continuation set instead
    sig = OrderedAlphabet(("a", "b"))
    d = Dfa(
        sig,
        ("s", "t"),
        "s",
        frozenset({"s", "t"}),
        {("s", "a"): "s", ("s", "b"): "t"},
    )
    system = NumerationSystem(d)
    assert list(system.words_from("t")) == [()]


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**30))
def test_roundtrip_at_arbitrary_magnitude(n):
    system = NumerationSystem(binary_like_dfa())
    assert system.val(system.rep(n)) == n


def _peak(stream, n):
    tracemalloc.start()
    try:
        assert sum(1 for _ in islice(stream, n)) == n
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "make, word", [(ab_star_dfa, "a" * 800), (binary_like_dfa, "1" + "0" * 3_000)], ids=["ab-star", "base-2"]
)
def test_deep_start_builds_words_in_memory_linear_in_their_length(make, word):
    # from rep(k) = word the walk stacks a level per letter; a prefix tuple
    # per level would hold about m²/2 letters beyond what the walk holds
    # (2.6 MB over a*b*, 36 MB over base 2)
    system = NumerationSystem(make())
    lang, k = system.language, system.val(tuple(word))
    walk = system._walk(lang.start, lang.trans, lang.start, system.rep(k))
    assert _peak(system.enumerate(k), 3) - _peak(walk, 3) < 1_000_000


# -- block mode: outputs streamed in memoized blocks ------------------------------

UNARY = OrderedAlphabet(("a",))
A_STAR = Dfa(UNARY, ("p",), "p", frozenset({"p"}), {("p", "a"): "p"})
PARITY = Dfao(UNARY, ("e", "o"), "e", {("e", "a"): "o", ("o", "a"): "e"}, {"e": "0", "o": "1"}, ("0", "1"))
ABC = OrderedAlphabet(("a", "b", "c"))
# c, then a's or b's: each length has two words, under a node one letter deep
C_THEN_A_OR_B = Dfa(
    ABC, ("s", "t", "x", "y"), "s", frozenset({"t", "x", "y"}),
    {("s", "c"): "t", ("t", "a"): "x", ("x", "a"): "x", ("t", "b"): "y", ("y", "b"): "y"},
)
LETTERS_MOD_3 = Dfao(
    ABC, ("0", "1", "2"), "0", {(str(i), a): str((i + 1) % 3) for i in range(3) for a in "abc"},
    {"0": "x", "1": "y", "2": "y"}, ("x", "y"),
)


def block_stream(system, machine, step=None, out=None):
    """The system's outputs under a complete machine, from the walk's block mode."""
    lang = system.language
    step = machine.trans if step is None else step
    out = machine.output if out is None else out
    return chain.from_iterable(system._walk(lang.start, step, machine.start, out=out))


def leaf_stream(system, machine):
    lang = system.language
    return (machine.output[c] for _, _, c in system._walk(lang.start, machine.trans, machine.start))


@pytest.mark.parametrize("room", [0, numeration.MEMO_LETTERS], ids=["no-memo", "memo"])
@pytest.mark.parametrize("case", ["one-letter", "ab-star"])
def test_block_stream_is_linear_past_the_memo_budget(monkeypatch, case, room):
    # a block recursion that followed runs letter by letter would go as deep
    # as the word, and one that crossed each new run letter by letter would
    # cost its length: over a* each tree is one new run from the root
    monkeypatch.setattr(numeration, "MEMO_LETTERS", room)
    n = 100_000
    lang, machine = (A_STAR, PARITY) if case == "one-letter" else (ab_star_dfa(), teaching_dfao())
    system = NumerationSystem(lang)
    step, got = CountingMap(machine.trans), ()
    stream = block_stream(system, machine, step)
    for k in (1_000, n):  # a walk quadratic in the terms fails the first check, in well under a second
        got += tuple(islice(stream, k - len(got)))
        assert step.lookups <= (numeration.STRIDE + 4) * k
    if case == "one-letter":
        assert got == ("0", "1") * (n // 2)
    else:
        assert got == tuple(islice(leaf_stream(system, machine), n))


def test_thue_morse_blocks_are_reused_not_rebuilt():
    system, machine, n = NumerationSystem(binary_like_dfa()), thue_morse_dfao(), 100_000
    step, out = CountingMap(machine.trans), CountingMap(machine.output)
    got = tuple(islice(block_stream(system, machine, step, out), n))
    assert got == tuple(islice(leaf_stream(system, machine), n))
    # each output and transition is read while a block is first built
    assert step.lookups <= n // 8 and out.lookups <= n // 8


def memo_bound(letters):
    """Bytes a memo of `letters` outputs may hold: 8 per output, and 320 per entry
    for its 3-tuple key with the length's int, its tuple's header and a dict slot
    with its resize slack; every kept block holds at least two outputs."""
    return 8 * letters + 320 * letters // 2


def test_block_memo_memory_stays_within_its_letter_budget(monkeypatch):
    # over a*b* the memo holds the blocks of the 4 a-counts the machine
    # tells apart below length 64: far inside the budget
    system, machine, n = NumerationSystem(ab_star_dfa()), teaching_dfao(), 100_000
    extra = _peak(block_stream(system, machine), n) - _peak(leaf_stream(system, machine), n)
    assert extra < memo_bound(numeration.MEMO_LETTERS)
    # one letter deep, each tree's two words are a new block: the budget is what bounds the memo
    system, machine, n, budget = NumerationSystem(C_THEN_A_OR_B), LETTERS_MOD_3, 8_000, 1 << 10
    peaks = {}
    for room in (0, budget, n):
        monkeypatch.setattr(numeration, "MEMO_LETTERS", room)
        peaks[room] = _peak(block_stream(system, machine), n)
    assert peaks[budget] - peaks[0] < memo_bound(budget) < peaks[n] - peaks[0]
