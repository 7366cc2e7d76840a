import gc
import random
import tracemalloc
from functools import cache
from itertools import chain, islice

import pytest
from hypothesis import given, settings, strategies as st

from ans import (
    AnsError,
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
    took_levels,
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
    words = ab_system.enumerate(-1)  # the rank is checked when the stream is first read
    with pytest.raises(ValueError):
        next(words)


def test_words_from_inner_state(ab_system):
    from itertools import islice

    # continuations from the b-only state
    words = list(islice(ab_system.words_from("q"), 4))
    assert words == [(), ("b",), ("b", "b"), ("b", "b", "b")]


class CountingMap(dict):
    """A map that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_walk_carries_constant_work_per_word(ab_system):
    # over a*b* a word ends in a run of b's about half its length; the walk
    # crosses such one-child chains at once and keeps each branching node's
    # chains for the later trees that meet it, so a word costs about one read
    # of a state's successors
    ab_system._succ = CountingMap(ab_system._succ)
    count = sum(1 for _ in islice(ab_system.enumerate(), 8_000))
    assert count == 8_000
    assert ab_system._succ.lookups <= 2 * count
    # from a deep start the walk reads each node on the start word's path once and builds a
    # node's row only when it comes back to it, so five words cost about the word's length,
    # not a row per node with every chain in it (8.0·10^6 and 6.0·10^6 reads at m = 4,000)
    m = 4_000
    for word in [("a",) * m, ("a",) * (m // 2) + ("b",) * (m // 2)]:
        system = NumerationSystem(ab_star_dfa())
        n = system.val(word)
        system._succ = CountingMap(system._succ)
        words = list(islice(system.enumerate(n), 5))
        assert system._succ.lookups <= 4 * m
        assert words == [system.rep(k) for k in range(n, n + 5)]


# term over a*b* at rank 10^9 or near it, once a first call has placed the states its
# runs start from on the machine's cycles: rep(n) = a^i b^j is a run of a's, the b off
# the loop on a, and a run of b's, and only that b takes a transition
TERM_TRANSITIONS = 1


def test_term_crosses_each_run_at_once():
    # rank 10^9 over a*b* is a word of 44,720 letters, a^6280 b^38440; crossed one
    # letter at a time it takes 44,720 transitions and as many reads of a state's successors
    teaching = teaching_dfao()
    counted = Dfao(AB, teaching.states, teaching.start, CountingMap(teaching.trans),
                   teaching.output, teaching.output_alphabet)
    system = NumerationSystem(ab_star_dfa())
    u = AutomaticSequence(system, counted)
    assert len(system.rep(10**9)) == 44_720
    system._succ = CountingMap(system._succ)
    for n in (10**9, 10**9 + 12_345, system._cum[44_721] - 1):  # the last is b^44720
        want = teaching.transform(system.rep(n))
        u.term(n)
        counted.trans.lookups = system._succ.lookups = 0
        assert u.term(n) == want
        assert counted.trans.lookups == TERM_TRANSITIONS
        assert system._succ.lookups <= 2  # one read of p's successors and one of q's
    # each state has at most one place per letter
    assert sum(map(len, u._powers.values())) <= 2 * len(teaching.states)


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
    # the first length whose cumulative count exceeds n is rep(n)'s; filling on would overshoot.
    # The ranks stay below `top`, short of the words past MAX_LENGTH letters, which rep refuses
    rng, probe = random.Random(name), NumerationSystem(FILLED[name][0]())
    probe._ensure(0, 10**11)  # on to the first length that covers 10^11, or to MAX_LENGTH
    top = probe._cum[-1]
    for n in [0, 1, 2, 10**7, *(rng.randrange(min(10 ** rng.randrange(1, 12), top)) for _ in range(20))]:
        system = NumerationSystem(FILLED[name][0]())
        word = system.rep(n)
        assert len(system._cum) - 2 == len(word)


@pytest.mark.parametrize("call", ["rep", "val", "enumerate", "term"])
def test_words_past_max_length_are_refused_naming_the_limit_and_the_growth(call):
    # over a*b* the words of MAX_LENGTH letters end at b^MAX_LENGTH; rank 10^14 is a word of about
    # 1.4·10^7 letters, whose fill rep, enumerate and term stop at MAX_LENGTH, and val refuses a^(MAX_LENGTH + 1)
    system, most = NumerationSystem(ab_star_dfa()), numeration.MAX_LENGTH
    refused = {
        "rep": lambda: system.rep(10**14),
        "val": lambda: system.val(("a",) * (most + 1)),
        "enumerate": lambda: next(system.enumerate(10**14)),
        "term": lambda: AutomaticSequence(system, teaching_dfao()).term(10**14),
    }[call]
    with pytest.raises(AnsError, match=rf"exceeds the {most}-letter limit \(the language has O\(m\^1\) words"):
        refused()
    assert len(system._cum) <= most + 2  # no fill past MAX_LENGTH
    last = system.val(("b",) * most)  # the last word of MAX_LENGTH letters
    assert last == system._cum[-1] - 1 and system.rep(last) == ("b",) * most
    with pytest.raises(AnsError, match="the word of rank"):
        system.rep(last + 1)


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
    # from t: the empty word, ab and bbb, with empty lengths between them
    d = Dfa(
        AB, ("s", "t", "u", "x", "y", "f"), "s", frozenset({"t", "f"}),
        {("s", "a"): "s", ("s", "b"): "t", ("t", "a"): "u", ("u", "b"): "f",
         ("t", "b"): "x", ("x", "b"): "y", ("y", "b"): "f"},
    )
    assert list(NumerationSystem(d).words_from("t")) == [(), ("a", "b"), ("b", "b", "b")]


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**30))
def test_roundtrip_at_arbitrary_magnitude(n):
    system = NumerationSystem(binary_like_dfa())
    assert system.val(system.rep(n)) == n


def _peak(make, n):
    """Traced peak of taking n items from the stream `make()`, after one untraced run of the
    same stream, so that the tuples CPython parks on its free lists are not counted."""
    assert sum(1 for _ in islice(make(), n)) == n
    tracemalloc.start()
    try:
        assert sum(1 for _ in islice(make(), n)) == n
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make, m", [(ab_star_dfa, 4_000), (binary_like_dfa, 3_001)], ids=["ab-star", "base-2"])
def test_deep_start_builds_words_in_memory_linear_in_their_length(make, m):
    # from the least word of length m (a^m, 10^(m-1)) the walk stacks a level per node on the
    # word's path with a live child after the word's letter; a prefix tuple per level would
    # hold about m²/2 letters (36 MB over base 2), and so would the rows of a*b*'s path nodes,
    # whose chains b^r are as long as the node is high (64 MB at a^4000), were they built
    # before the walk comes back to them.  So twice the length takes twice the memory, not
    # four times, and five words from a^4000 stay within 4 MB.
    system = NumerationSystem(make())
    system.count_words(m)
    deep = system._cum[m]  # the rank of the least word of length m
    peak = _peak(lambda: system.enumerate(deep), 5)
    assert peak - 2 * _peak(lambda: system.enumerate(system._cum[m // 2]), 5) < 500_000
    assert peak < 4_000_000


# -- output streams: by levels, or in memoized blocks ------------------------------

UNARY = OrderedAlphabet(("a",))
A_STAR = Dfa(UNARY, ("p",), "p", frozenset({"p"}), {("p", "a"): "p"})
PARITY = Dfao(UNARY, ("e", "o"), "e", {("e", "a"): "o", ("o", "a"): "e"}, {"e": "0", "o": "1"}, ("0", "1"))
ABC = OrderedAlphabet(("a", "b", "c"))
# c, then a's or b's: each length has two words, under a node one letter deep
C_THEN_A_OR_B = Dfa(
    ABC, ("s", "t", "x", "y"), "s", frozenset({"t", "x", "y"}),
    {("s", "c"): "t", ("t", "a"): "x", ("x", "a"): "x", ("t", "b"): "y", ("y", "b"): "y"},
)
# (a+b)*c(a*+b*): under each word of (a+b)*c, a node with two words, each ending in a run as long as the node is deep
EXP_RUNS = Dfa(
    ABC, ("s", "t", "x", "y"), "s", frozenset({"t", "x", "y"}),
    {("s", "a"): "s", ("s", "b"): "s", ("s", "c"): "t", ("t", "a"): "x", ("x", "a"): "x", ("t", "b"): "y", ("y", "b"): "y"},
)
LETTERS_MOD_3 = Dfao(
    ABC, ("0", "1", "2"), "0", {(str(i), a): str((i + 1) % 3) for i in range(3) for a in "abc"},
    {"0": "x", "1": "y", "2": "y"}, ("x", "y"),
)
# a word's number in bijective base 3 (a, b, c the digits 1, 2, 3), mod 1024
WORDS_MOD_1024 = Dfao(
    ABC, tuple(range(1024)), 0, {(i, a): (3 * i + d) % 1024 for i in range(1024) for d, a in enumerate("abc", 1)},
    {i: "xy"[i % 2] for i in range(1024)}, ("x", "y"),
)


def block_stream(system, machine, step=None, out=None):
    """The system's outputs under a complete machine, as ``_blocks`` streams them."""
    step = machine.trans if step is None else step
    out = machine.output if out is None else out
    return chain.from_iterable(system._blocks(system.language.start, step, machine.start, out))


def brute_stream(system, machine):
    """The same outputs, the machine run on each word the walk lists."""
    return (machine.output[machine.run(w)] for w in system.enumerate())


STREAMS = {
    "one-letter": (A_STAR, PARITY),
    "ab-star": (ab_star_dfa(), teaching_dfao()),
    "c-then-a-or-b": (C_THEN_A_OR_B, LETTERS_MOD_3),
    "exponential": (EXP_RUNS, LETTERS_MOD_3),
}


@cache
def brute_outputs(case, n):
    lang, machine = STREAMS[case]
    return tuple(islice(brute_stream(NumerationSystem(lang), machine), n))


@pytest.mark.parametrize("room", [0, numeration.MEMO_LETTERS], ids=["no-memo", "memo"])
@pytest.mark.parametrize("case", STREAMS)
def test_block_stream_is_linear_past_the_memo_budget(monkeypatch, case, room):
    # a recursion that followed runs letter by letter would go as deep as the
    # word.  Over a* each tree is one new run from the root, over c(a*+b*)
    # two, and over a*b* most words end in one: the level path reads the
    # machine once per pair.
    # Under an exponential root the walk crosses each run letter by letter,
    # and the tree repays it.
    monkeypatch.setattr(numeration, "MEMO_LETTERS", room)
    n, (lang, machine) = 100_000, STREAMS[case]
    system = NumerationSystem(lang)
    assert took_levels(lambda: block_stream(system, machine)) == ([] if case == "exponential" else [lang.start])
    step, got = CountingMap(machine.trans), ()
    stream = block_stream(system, machine, step)
    for k in (1_000, n):  # a walk quadratic in the terms fails the first check, in well under a second
        got += tuple(islice(stream, k - len(got)))
        assert step.lookups <= 4 * k
    if case == "one-letter":
        assert got == ("0", "1") * (n // 2)
    elif case == "c-then-a-or-b":  # c, then ca^m and cb^m for m = 1, 2, ...: "x" at the lengths 3k
        assert got == ("y",) + tuple(chain.from_iterable(("xy"[bool(m % 3)],) * 2 for m in range(2, n // 2 + 2)))[: n - 1]
    else:
        assert got == brute_outputs(case, n)


def test_thue_morse_blocks_are_reused_not_rebuilt():
    system, machine, n = NumerationSystem(binary_like_dfa()), thue_morse_dfao(), 100_000
    step, out = CountingMap(machine.trans), CountingMap(machine.output)
    got = tuple(islice(block_stream(system, machine, step, out), n))
    assert got == tuple(islice(brute_stream(system, machine), n))
    # each output and transition is read while a block is first built
    assert step.lookups <= n // 8 and out.lookups <= n // 8


def memo_bound(letters):
    """Bytes a memo of `letters` outputs may hold: 8 per output, and 320 per entry
    for its 3-tuple key with the length's int, its tuple's header and a dict slot
    with its resize slack; every kept block holds at least two outputs."""
    return 8 * letters + 320 * letters // 2


def test_block_memo_memory_stays_within_its_letter_budget(monkeypatch):
    # over base 2 the memo holds the blocks of the few nodes below 64 words
    # that recur in every tree, and the children of the few above: far
    # inside the budget
    system, machine, n = NumerationSystem(binary_like_dfa()), thue_morse_dfao(), 100_000
    peak, bound = _peak(lambda: block_stream(system, machine), n), memo_bound(numeration.MEMO_LETTERS)
    monkeypatch.setattr(numeration, "MEMO_LETTERS", 0)
    assert peak - _peak(lambda: block_stream(system, machine), n) < bound
    # (a+b)*c(a*+b*) under a machine that tells the words of (a+b)*c apart:
    # each two-word node below them is a new block, and each node above a
    # new row of children, so the budget is what bounds the memo.  What a
    # stream keeps, its stack and memo, is weighed once it has streamed its
    # terms, the tables it filled and the tuples CPython parked on its free
    # lists let go.
    system, machine, n, budget = NumerationSystem(EXP_RUNS), WORDS_MOD_1024, 1_000_000, 1 << 9
    system.count_words(len(system.rep(n)) + 1)
    kept = {}
    for room in (budget, n):
        monkeypatch.setattr(numeration, "MEMO_LETTERS", room)
        tracemalloc.start()
        try:
            stream = block_stream(system, machine)
            assert sum(1 for _ in islice(stream, n)) == n
            gc.collect()
            kept[room] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert kept[budget] < memo_bound(budget) < kept[n]


def level_bound(system, machine, length):
    """Bytes the level path may hold while it builds the slices of `length` from those of
    `length` - 1: 8 per output of the words of those lengths over the pairs reached from
    the start, twice for `length`, whose partial joins of one pair are held too; 400 per
    pair for the slices' tuples and dict slots; 8 KiB for the generator and its dicts."""
    lang, trans = system.language, machine.trans
    pairs, todo = {(lang.start, machine.start)}, [(lang.start, machine.start)]
    for q, c in todo:
        for a in lang.alphabet:
            y = (lang.trans.get((q, a)), trans[c, a])
            if y[0] is not None and y not in pairs:
                pairs.add(y)
                todo.append(y)
    system.count_words(length)
    words = sum(system._counts[q][length - 1] + 2 * system._counts[q][length] for q, _c in pairs)
    return 8 * words + 400 * len(pairs) + 8192


@pytest.mark.parametrize("make", [ab_star_dfa, squares_dfa], ids=["ab-star", "squares"])
def test_level_path_holds_two_length_slices(make):
    # from the start of a*b* and of a*(b+c)a*, m + 1 and 2m + 1 words of length m;
    # 200,000 outputs kept would take 1.6 MB
    lang = make()
    machine, n = {ab_star_dfa: teaching_dfao, squares_dfa: squares_chi_dfao}[make]().completed(), 200_000
    system = NumerationSystem(lang)
    assert took_levels(lambda: block_stream(system, machine)) == [lang.start]
    length = len(system.rep(n - 1))
    assert _peak(lambda: block_stream(NumerationSystem(lang), machine), n) < level_bound(system, machine, length)
