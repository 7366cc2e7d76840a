"""Every presentation of a sequence agrees with brute force.

Random infinite languages (at most 5 states, 3 letters, trimmed by the
numeration system) and random partial output machines, with fixed
hypothesis seeds, plus fixed systems whose walks meet one-child chains in
every way they can: long runs of b's, a root with a single live child, a
tree that is one chain.  Random languages built of single states and
single cycles have polynomially many words per length, so their streams
take the level path; each root's path is checked against its growth class
by definition.  The oracle lists words without the count tables:
every word the automaton can read, one length at a time, each length in
lexicographic order, keeping the accepted ones.  A term is the machine's
output at the end of the word's run, or ``⊥`` where the run dies.
"""

import random
from itertools import groupby, islice
from math import inf, isqrt

import pytest
from hypothesis import assume, given, seed, strategies as st

from ans import (
    AutomaticSequence,
    Dfa,
    Dfao,
    FiniteLanguageError,
    Morphism,
    NumerationSystem,
    OrderedAlphabet,
    Substitution,
    canonical_substitution,
    dfao_from_kernel,
    fixed_point,
    format_substitution,
    kernel,
    numeration,
    sequence,
    subsequence,
    subsequences,
    take,
)
from ans.automata import _reachable_product

from conftest import (
    AB,
    ab_star_dfa,
    binary_like_dfa,
    brute_growth,
    squares_chi_dfao,
    squares_dfa,
    teaching_dfao,
    thue_morse_dfao,
    took_levels,
)
from test_automaton_core import CORE, alphabets, dfaos, least_words, out, sequences
from test_numeration import EXP_RUNS, LETTERS_MOD_3

N = 40


def brute_words(lang, root, count):
    """The first `count` words accepted from `root`, in shortlex order."""
    words, level = [], [((), root)]
    while level and len(words) < count:
        words += [w for w, q in level if q in lang.finals]
        level = [(w + (a,), lang.trans[(q, a)]) for w, q in level for a in lang.alphabet if (q, a) in lang.trans]
    return words[:count]


# Off the level path, ``_blocks`` streams nodes of at most numeration.BLOCK words
# as one block each and stacks larger ones: the streams are checked at that size,
# at one word (every leaf its own block, every branching node stacked) and above
# every count met here (every tree one block, built from its children's blocks).
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
    # deeper, against rep: from the first and the last word of a tree and from inside it,
    # so that the walk leaves the tree it entered along rep(n) for the next ones
    for m in (len(system.rep(k)) + 1, k // 2 + 8, 24):
        system.count_words(m + 1)
        first, last = system._cum[m], system._cum[m + 1] - 1
        for n in (first, first + (last - first) * (k + 1) // (count + 1), last):
            assert take(system.enumerate(n), 5) == tuple(map(system.rep, range(n, n + 5)))


def check_words_from(system, count):
    for q in system.language.states:
        assert take(system.words_from(q), count) == tuple(brute_words(system.language, q, count))


@seed(41)
@CORE
@given(sequences())
def test_stream_term_and_substitution_agree_with_brute_force(u):
    check_terms(u, N)


@seed(50)
@CORE
@given(sequences())
def test_a_machine_and_its_completion_write_one_substitution_file(u):
    # the reduction drops an explicit ⊥-forever block as it drops the completion's sink
    write = lambda mach: format_substitution(canonical_substitution(u.system.language, mach))
    assert write(u.machine.completed()) == write(u.machine)


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
    """Each class's stream, and every class's first 0, 1 and N terms from ``subsequences``, agree with brute force."""
    lang, mach, classes, want = u.system.language, u.machine, kernel(u), []
    for k in classes:
        w = k.representative_prefix
        root = lang.run(w)
        words = [] if root is None else brute_words(lang, root, N)
        want.append([out(mach, mach.run(w + z)) for z in words])
        at_block_sizes(lambda: subsequence(u, k), N, tuple(want[-1]))
    for n in (0, 1, N):
        assert subsequences(u, classes, n) == [terms[:n] for terms in want]


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


# -- polynomial languages: the level path ----------------------------------------------


@st.composite
def polynomial_sequences(draw):
    """A sequence over a random infinite language whose components are single states or
    single cycles, under a random partial machine.  Cycles read any letters and may be
    longer than one letter; final states on some of a cycle's states only give words at
    periodic lengths; a component may lead on to states with finitely many words.  Cycle
    letters are drawn from the greatest down, so that loops on later letters are common."""
    sigma = draw(alphabets())
    blocks, trans = [], {}
    for i in range(draw(st.integers(1, 5))):
        block = [f"c{i}s{j}" for j in range(draw(st.integers(1, 3)))]
        if draw(st.integers(0, 3)):  # a cycle through the block, three times in four
            for j, q in enumerate(block):
                trans[q, draw(st.sampled_from(sigma.symbols[::-1]))] = block[(j + 1) % len(block)]
        else:
            block = block[:1]
        blocks.append(block)
    states = [q for block in blocks for q in block]
    for i, block in enumerate(blocks):
        later = [q for b in blocks[i + 1 :] for q in b]
        for q in block:
            for a in sigma:
                if later and (q, a) not in trans and draw(st.booleans()):
                    trans[q, a] = draw(st.sampled_from(later))
    finals = frozenset(q for q in states if draw(st.booleans()))
    try:
        system = NumerationSystem(Dfa(sigma, states, states[0], finals, trans))
    except FiniteLanguageError:
        assume(False)
    return AutomaticSequence(system, draw(dfaos(sigma, ("0", "1", "2"))))


def levels_from(system, root) -> list:
    """[root] if the words read from `root` grow polynomially, by definition, else []."""
    return [root] if root is not None and 0 <= brute_growth(system.language)[root] < inf else []


@seed(53)
@CORE
@given(polynomial_sequences())
def test_polynomial_languages_stream_by_levels_and_agree_with_brute_force(u):
    lang = u.system.language
    assert 0 <= brute_growth(lang)[lang.start] < inf
    check_terms(u, N)
    check_kernel_subsequences(u)
    assert took_levels(u.stream) == [lang.start]
    sub = canonical_substitution(lang, u.machine)
    assert took_levels(sub.generate, N) == levels_from(sub._system, sub._system.language.start)
    for k in kernel(u):
        root = lang.run(k.representative_prefix)
        assert took_levels(lambda: subsequence(u, k)) == levels_from(u.system, root)


DEEP = 1_000  # words of at least this many letters: runs far longer than any machine's tail


def run_letter_by_letter(u, word):
    """The completed machine's output after reading `word` one transition at a time."""
    complete, c = u._complete, u._complete.start
    for a in word:
        c = complete.trans[c, a]
    return complete.output[c]


def check_deep_term(u, n):
    """rep(n) is an accepted word that val reads back as n, and term(n) is the machine's run on it."""
    got = u.term(n)  # before rep, so that term fills the tables itself
    w = u.system.rep(n)
    assert u.system.language.accepts(w) and u.system.val(w) == n
    assert got == run_letter_by_letter(u, w)
    return w


@seed(55)
@CORE
@given(polynomial_sequences(), st.data())
def test_term_and_rep_cross_long_runs_on_polynomial_languages(u, data):
    # words of 1,000 letters and more, from lengths at most #states apart: the descent
    # bisects loops on the least letter, steps through loops on later letters and
    # cycles of more than one letter, and the machine crosses each run through its
    # letter's ρ-shape, tail included where the machine is partial
    system, gap = NumerationSystem(u.system.language), len(u.system.language.states) + 1
    system.count_words(DEEP + gap)
    lo, hi = system._cum[DEEP], system._cum[DEEP + gap]
    assert lo < hi
    for n in data.draw(st.lists(st.integers(lo, hi - 1), min_size=1, max_size=6)):
        assert len(check_deep_term(u, n)) >= DEEP


# (a+b)*c a*b*: exponential states, then a polynomial tail that the descent crosses by runs
EXP_THEN_POLY = Dfa(
    OrderedAlphabet(("a", "b", "c")), ("s", "t", "u"), "s", frozenset({"t", "u"}),
    {("s", "a"): "s", ("s", "b"): "s", ("s", "c"): "t", ("t", "a"): "t", ("t", "b"): "u", ("u", "b"): "u"},
)


@seed(56)
@CORE
@given(st.data())
def test_term_and_rep_switch_to_runs_after_the_exponential_states(data):
    u = AutomaticSequence(NumerationSystem(EXP_THEN_POLY), data.draw(dfaos(EXP_THEN_POLY.alphabet)))
    head = data.draw(st.lists(st.sampled_from("ab"), max_size=12))
    i, j = data.draw(st.integers(0, 2 * DEEP)), data.draw(st.integers(0, 2 * DEEP))
    word = (*head, "c", *"a" * i, *"b" * j)
    assert check_deep_term(u, u.system.val(word)) == word


@seed(54)
@CORE
@given(sequences())
def test_every_root_takes_the_path_of_its_growth(u):
    lang = u.system.language
    assert took_levels(u.stream) == levels_from(u.system, lang.start)
    for k in kernel(u):
        root = lang.run(k.representative_prefix)
        assert took_levels(lambda: subsequence(u, k)) == levels_from(u.system, root)


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


def test_term_crosses_runs_through_the_tail_and_the_cycle():
    # over a*, rank n is the run a^n: read letter by letter below numeration.RUNS_FROM
    # letters, walked while shorter than the machine's forty states, and past that it
    # lands, beyond the tail of thirty states, on the cycle of ten
    states = tuple(range(40))
    machine = Dfao(UNARY, states, 0, {(i, "a"): i + 1 if i < 39 else 30 for i in states},
                   {i: str(i % 3) for i in states}, ("0", "1", "2"))
    u = AutomaticSequence(NumerationSystem(A_STAR), machine)
    assert numeration.RUNS_FROM < len(states)
    assert [u.term(n) for n in range(100)] == [run_letter_by_letter(u, ("a",) * n) for n in range(100)]


def counter_dfao(n: int, partial: bool) -> Dfao:
    """n states over 0 < 1: 0 counts up mod n and 1 resets to 0; if partial, state 3 reads no
    0, so four 0s in a row after a 1 lead to the completion's sink, which outputs ⊥."""
    states = tuple(range(n))
    trans = {(i, "1"): 0 for i in states} | {(i, "0"): (i + 1) % n for i in states if not (partial and i == 3)}
    return Dfao(OrderedAlphabet(("0", "1")), states, 0, trans, {i: str(i % 2) for i in states}, ("0", "1"))


@pytest.mark.parametrize("partial", [False, True])
def test_term_builds_pair_rows_on_first_visit(partial):
    # base 2 under a 2,000-state counter: term names (language state, machine state)
    # pairs as it meets them and builds a pair's row only when it descends through it
    def built(u):
        return sum(any(row is not None for row in rows) for rows in zip(*u._rows))

    system = NumerationSystem(binary_like_dfa())
    u = AutomaticSequence(system, counter_dfao(2_000, partial))
    assert built(u) == 0 and len(u._pairs) == 1
    word = system.rep(2**100)  # 1 and a hundred 0s
    assert u.term(2**100) == run_letter_by_letter(u, word)
    assert built(u) <= len(word) + 1 == 102
    rng = random.Random(7)
    ranks = list(range(300)) + [rng.randrange(2**100) for _ in range(700)]
    assert [u.term(n) for n in ranks] == [run_letter_by_letter(u, system.rep(n)) for n in ranks]
    assert ("⊥" in map(u.term, ranks)) == partial
    reachable = _reachable_product((system.language, u._complete))[0]
    assert all(len(rows) == len(u._pairs) for rows in u._rows)
    assert built(u) <= len(u._pairs) <= len(reachable)
    assert len(set(u._pairs)) == len(u._pairs) and set(u._pairs) <= set(reachable)


class Unread:
    """A mapping that fails the test when it is read."""

    def __getitem__(self, key):
        raise AssertionError("term reads the growth classes")


def test_term_leaves_the_stopping_rule_to_the_numeration_system():
    # the numeration system's tables say where the descent stops, so term never asks
    # for a state's growth class: words of 0-23 and ~4,500 letters over a*b*, 101 over base 2
    for lang, machine, ranks in [
        (ab_star_dfa(), teaching_dfao(), [*range(300), 10**7]),
        (binary_like_dfa(), thue_morse_dfao(), [2**100]),
    ]:
        system = NumerationSystem(lang)
        u = AutomaticSequence(system, machine)
        want = [run_letter_by_letter(u, system.rep(n)) for n in ranks]
        system._growth = Unread()
        assert [u.term(n) for n in ranks] == want


ABC = OrderedAlphabet(("a", "b", "c"))
# b*a*: the start state loops on its later letter b, so only the a's after it are a run
B_STAR_A_STAR = Dfa(AB, ("s", "t"), "s", frozenset({"s", "t"}), {("s", "b"): "s", ("s", "a"): "t", ("t", "a"): "t"})
# (ab)*c*: the start state lies on the two-letter cycle ab, so only the c's after it are a run
AB_STAR_C_STAR = Dfa(
    ABC, ("s", "m", "t"), "s", frozenset({"s", "t"}),
    {("s", "a"): "m", ("m", "b"): "s", ("s", "c"): "t", ("t", "c"): "t"},
)


def teaching_with_c() -> Dfao:
    """The teaching machine over a < b < c, c a self-loop on every state."""
    t = teaching_dfao()
    trans = {**t.trans, **{(q, "c"): q for q in t.states}}
    return Dfao(ABC, t.states, t.start, trans, t.output, t.output_alphabet)


def b_star_a_star_word(n):
    """Rank m(m + 1)/2 + i, 0 <= i <= m, is b^i a^(m - i)."""
    m = (isqrt(8 * n + 1) - 1) // 2
    i = n - m * (m + 1) // 2
    return ("b",) * i + ("a",) * (m - i)


def ab_star_c_star_word(n):
    """t(t + 1) words are shorter than 2t and (t + 1)^2 shorter than 2t + 1; each length L
    lists (ab)^k c^(L - 2k) from k = L // 2 down to 0."""
    def shorter(length):
        t = length // 2
        return t * (t + 1) if length % 2 == 0 else (t + 1) ** 2

    length = 2 * isqrt(n)
    while shorter(length) > n:
        length -= 1
    while shorter(length + 1) <= n:
        length += 1
    k = length // 2 - (n - shorter(length))
    return ("a", "b") * k + ("c",) * (length - 2 * k)


@pytest.mark.parametrize("lang, machine, closed", [
    (B_STAR_A_STAR, teaching_dfao(), b_star_a_star_word),
    (AB_STAR_C_STAR, teaching_with_c(), ab_star_c_star_word),
], ids=["b-star-a-star", "ab-star-c-star"])
def test_rep_and_term_read_later_letter_loops_and_cycles_letter_by_letter(lang, machine, closed):
    # on long words the descent stops only at the state whose least letter loops on it,
    # and reads the loop on b, or the cycle ab, one letter at a time: words of about
    # 1,400-4,500 and 44,700-63,200 letters
    system = NumerationSystem(lang)
    assert [q for q, row in system._tables[1].items() if not row] == ["t"]
    u = AutomaticSequence(system, machine)
    rng = random.Random(13)
    for n in [*(rng.randrange(10**6, 10**7) for _ in range(20)), 10**9]:
        assert check_deep_term(u, n) == closed(n)


@pytest.mark.parametrize("runs_from", [0, 10**9])
@pytest.mark.parametrize("lang, machine", [
    (ab_star_dfa(), teaching_dfao()),
    (binary_like_dfa(), thue_morse_dfao()),
    (EXP_RUNS, LETTERS_MOD_3),
    (B_STAR_A_STAR, teaching_dfao()),
], ids=["ab-star", "base-2", "exp-runs", "b-star-a-star"])
def test_rep_and_term_agree_with_brute_force_on_either_table(monkeypatch, runs_from, lang, machine):
    # RUNS_FROM 0 stops every descent where a run can start, 10^9 none: each table
    # is read at every word length up to rank 2,000
    monkeypatch.setattr(numeration, "RUNS_FROM", runs_from)
    u = AutomaticSequence(NumerationSystem(lang), machine)
    words = brute_words(u.system.language, u.system.language.start, 2_001)
    assert [u.system.rep(n) for n in range(2_001)] == words
    assert [u.term(n) for n in range(2_001)] == [out(machine, machine.run(w)) for w in words]


@pytest.mark.parametrize("make", [ab_star_dfa, binary_like_dfa])
def test_deep_enumerate_and_words_from_agree_with_brute_force(make):
    # ranks 1,000 to 2,000 stack dozens of levels over a*b*; from a*b*'s
    # state q the words run to 1,000 letters
    system = NumerationSystem(make())
    lang = system.language
    assert take(system.enumerate(1_000), 1_000) == tuple(brute_words(lang, lang.start, 2_000)[1_000:])
    for q in lang.states:
        assert take(system.words_from(q), 1_000) == tuple(brute_words(lang, q, 1_000))


def test_subsequences_reach_sparse_lengths():
    # (a^30)* under a counter mod 3: 30 classes whose words are 30 letters apart, so
    # 20 terms each take the level pass to 600 letters
    lang = Dfa(UNARY, tuple(f"s{i}" for i in range(30)), "s0", frozenset({"s0"}),
               {(f"s{i}", "a"): f"s{(i + 1) % 30}" for i in range(30)})
    mod3 = Dfao(UNARY, ("x", "y", "z"), "x", {("x", "a"): "y", ("y", "a"): "z", ("z", "a"): "x"},
                {"x": "0", "y": "1", "z": "2"}, ("0", "1", "2"))
    u = AutomaticSequence(NumerationSystem(lang), mod3)
    classes = kernel(u)
    assert len(classes) == 30
    assert [tuple(terms) for terms in subsequences(u, classes, 20)] == [take(subsequence(u, k), 20) for k in classes]


def test_subsequences_read_finite_continuations_to_their_end():
    # a*b, then aa or bbb: after the b the words are 2 and 3 letters long, and none is shorter
    lang = Dfa(AB, ("p", "r", "s", "t", "v", "f"), "p", frozenset({"f"}), {
        ("p", "a"): "p", ("p", "b"): "r", ("r", "a"): "s", ("s", "a"): "f",
        ("r", "b"): "t", ("t", "b"): "v", ("v", "b"): "f",
    })
    u = AutomaticSequence(NumerationSystem(lang), NO_B_AFTER_ODD_A)
    classes = kernel(u)
    got = [tuple(terms) for terms in subsequences(u, classes, N)]
    assert got == [take(subsequence(u, k), N) for k in classes]
    # after b and after ab: aa and bbb, where the run has died after ab
    assert [k.representative_prefix for k in classes[2:4]] == [("b",), ("a", "b")]
    assert got[2:4] == [("0", "0"), ("⊥", "⊥")]
    with pytest.raises(ValueError):
        subsequences(u, classes, -1)


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
    distinct signature rank plus `bound` for the verification pass."""
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
    asked = {system.val(w + z) for w in live_explored(learned, lang) for z in brute_words(lang, lang.run(w), bound)}
    assert len(ranks) == len(asked) + bound
    assert set(ranks[:-bound]) == asked


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


def test_a_subsequence_with_finitely_many_continuations_ends():
    # after a*b, one more letter: from there the root reads two words, and the
    # walk ends after #states + 1 empty lengths, where the level path would not
    u = AutomaticSequence(NumerationSystem(A_STAR_B_ONE), NO_B_AFTER_ODD_A)
    lang, mach, growth, lengths = u.system.language, u.machine, brute_growth(A_STAR_B_ONE), set()
    for k in kernel(u):
        w = k.representative_prefix
        root = lang.run(w)
        if root is None or growth[root] != -1:
            continue
        want = tuple(out(mach, mach.run(w + z)) for z in brute_words(lang, root, N))
        assert took_levels(lambda: subsequence(u, k)) == []
        assert take(subsequence(u, k), N) == want
        lengths.add(len(want))
    assert lengths == {1, 2}
