"""Every presentation of a sequence agrees with brute force.

Random infinite languages (at most 5 states, 3 letters, trimmed by the
numeration system) and random partial output machines, with fixed
hypothesis seeds.  The oracle lists words without the count tables: every
word the automaton can read, one length at a time, each length in
lexicographic order, keeping the accepted ones.  A term is the machine's
output at the end of the word's run, or ``⊥`` where the run dies.
"""

from hypothesis import given, seed, strategies as st

from ans import BOTTOM, canonical_substitution, take

from test_automaton_core import CORE, out, sequences

N = 40


def brute_words(lang, root, count):
    """The first `count` words accepted from `root`, in shortlex order."""
    words, level = [], [((), root)]
    while level and len(words) < count:
        words += [w for w, q in level if q in lang.finals]
        level = [(w + (a,), lang.trans[(q, a)]) for w, q in level for a in lang.alphabet if (q, a) in lang.trans]
    return words[:count]


def term_or_bottom(u, n):
    try:
        return u.term(n)
    except ValueError:
        return BOTTOM


@seed(41)
@CORE
@given(sequences())
def test_stream_term_and_substitution_agree_with_brute_force(u):
    lang, mach = u.system.language, u.machine
    want = tuple(out(mach, mach.run(w)) for w in brute_words(lang, lang.start, N))
    assert take(u.stream(), N) == want
    assert tuple(term_or_bottom(u, n) for n in range(N)) == want
    assert take(canonical_substitution(lang, mach).generate(), N) == want


@seed(42)
@CORE
@given(sequences(), st.integers(0, N - 1))
def test_enumerate_rep_and_val_agree_with_brute_force(u, k):
    system = u.system
    words = brute_words(system.language, system.language.start, N)
    assert take(system.enumerate(k), N - k) == tuple(words[k:])
    for n, w in enumerate(words):
        assert system.rep(n) == w
        assert system.val(system.rep(n)) == n


@seed(43)
@CORE
@given(sequences())
def test_words_from_every_state_agree_with_brute_force(u):
    system = u.system
    for q in system.language.states:
        assert take(system.words_from(q), N) == tuple(brute_words(system.language, q, N))
