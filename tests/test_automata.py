import random
import tracemalloc
from itertools import product as iproduct
from math import inf

import pytest
from hypothesis import given, seed, strategies as st

from ans import (
    BOTTOM,
    Dfa,
    Dfao,
    OrderedAlphabet,
    difference,
    distinguishing_word,
    equivalent,
    intersect,
    is_empty,
    is_infinite,
    minimize,
    product,
    reduce_dfao,
    union,
)
from ans.automata import _growth
from conftest import AB, ab_star_dfa, binary_like_dfa, brute_growth, brute_words, teaching_dfao
from test_automaton_core import CORE, dfas


def ab_bplus_dfa():
    """a's followed by at least one b."""
    return Dfa(
        AB,
        ("p", "q"),
        "p",
        frozenset({"q"}),
        {("p", "a"): "p", ("p", "b"): "q", ("q", "b"): "q"},
    )


def ab_evenb_dfa():
    """a's followed by an even number of b's."""
    return Dfa(
        AB,
        ("p", "e", "o"),
        "p",
        frozenset({"p", "e"}),
        {
            ("p", "a"): "p",
            ("p", "b"): "o",
            ("o", "b"): "e",
            ("e", "b"): "o",
        },
    )


def test_ordered_alphabet():
    assert AB.index("a") == 0 and AB.index("b") == 1
    assert "a" in AB and "c" not in AB
    assert AB.word_key(("b", "a")) == (2, (1, 0))
    assert AB.word_key(("b",)) < AB.word_key(("a", "a"))  # shortlex: length first
    with pytest.raises(ValueError):
        OrderedAlphabet(("a", "a"))


def test_accepts_and_run():
    d = ab_star_dfa()
    assert d.accepts(())
    assert d.accepts(("a", "b", "b"))
    assert not d.accepts(("b", "a"))
    assert d.run(("b", "a")) is None


def test_completed_adds_single_sink():
    d = ab_star_dfa().completed()
    assert d.is_complete()
    assert d.run(("b", "a")) is not None
    assert not d.accepts(("b", "a"))
    assert d.completed() is d


def test_trimmed_keeps_start():
    empty = Dfa(AB, ("p",), "p", frozenset(), {})
    t = empty.trimmed()
    assert t.start == "p" and t.states == ("p",)


def test_trimmed_is_the_machine_itself_when_it_keeps_every_state():
    d = ab_star_dfa()
    assert d.trimmed() is d
    # "u" is unreachable and "x" reaches no final state
    trans = {**d.trans, ("p", "a"): "x", ("x", "a"): "x", ("u", "a"): "p"}
    wide = Dfa(AB, ("p", "q", "x", "u"), "p", d.finals, trans)
    t = wide.trimmed()
    assert t is not wide and wide.states == ("p", "q", "x", "u")
    assert t.states == ("p", "q") and t.finals == d.finals
    assert t.trans == {("p", "b"): "q", ("q", "b"): "q"}
    assert t.trimmed() is t


def test_minimize_collapses_redundant_states():
    # five states recognizing a*b* with duplicated live states
    d = Dfa(
        AB,
        ("s", "a1", "a2", "b1", "b2"),
        "s",
        frozenset({"s", "a1", "a2", "b1", "b2"}),
        {
            ("s", "a"): "a1",
            ("s", "b"): "b1",
            ("a1", "a"): "a2",
            ("a2", "a"): "a1",
            ("a1", "b"): "b2",
            ("a2", "b"): "b1",
            ("b1", "b"): "b2",
            ("b2", "b"): "b1",
        },
    )
    m = minimize(d)
    assert len(m.states) == 2
    assert equivalent(m, ab_star_dfa())


def test_minimize_is_canonical():
    a = minimize(ab_star_dfa())
    b = minimize(ab_star_dfa().completed().renumbered("z"))
    assert a == b
    assert minimize(a) == a


@given(st.lists(st.sampled_from(["a", "b"]), max_size=12))
def test_minimize_preserves_acceptance(word):
    for d in (ab_star_dfa(), ab_bplus_dfa(), ab_evenb_dfa()):
        assert minimize(d).accepts(word) == d.accepts(word)


def test_boolean_operations_against_brute_force():
    x, y = ab_star_dfa(), ab_evenb_dfa()
    wx = set(brute_words(x, 8))
    wy = set(brute_words(y, 8))
    assert set(brute_words(intersect(x, y), 8)) == wx & wy
    assert set(brute_words(union(x, y), 8)) == wx | wy
    assert set(brute_words(difference(x, y), 8)) == wx - wy


def test_emptiness_and_infiniteness():
    assert is_empty(difference(ab_bplus_dfa(), ab_star_dfa()))
    assert not is_empty(ab_star_dfa())
    assert is_infinite(ab_star_dfa())
    single = Dfa(AB, ("p", "q"), "p", frozenset({"q"}), {("p", "a"): "q"})
    assert not is_infinite(single)


@seed(37)
@CORE
@given(dfas())
def test_is_infinite_agrees_with_brute_force(a):
    # with n states, L is infinite iff it holds a word of length n to 2n - 1 (pumping)
    n = len(a.states)
    lengths = range(n, 2 * n)
    assert is_infinite(a) == any(a.accepts(w) for k in lengths for w in iproduct(a.alphabet, repeat=k))


@seed(51)
@CORE
@given(dfas())
def test_growth_classes_agree_with_their_definition(a):
    t = a.trimmed()
    want = brute_growth(a)
    assert _growth(t) == {q: want[q] for q in t.states}


def test_growth_classes_of_sparse_random_machines():
    # mostly forward transitions and self-loops, so that cycles line up on
    # paths and polynomial degrees above 1 occur
    rng, seen = random.Random(52), set()
    for _ in range(400):
        n = rng.randint(1, 12)
        trans = {(q, a): rng.choice([q, rng.randrange(q, n), rng.randrange(n)]) for q in range(n) for a in "ab"}
        trans = {k: q2 for k, q2 in trans.items() if rng.random() < 0.6}
        a = Dfa(AB, range(n), 0, frozenset(q for q in range(n) if rng.random() < 0.3), trans)
        t = a.trimmed()
        got, want = _growth(t), brute_growth(a)
        assert got == {q: want[q] for q in t.states}
        seen |= set(got.values())
    assert {-1, 0, 1, 2, 3, inf} <= seen


@pytest.mark.parametrize("shape", ["cycle", "chain", "loops", "sink"])
def test_growth_classes_of_100_000_states_need_no_recursion(shape):
    # "loops": state i loops on a and goes on to i + 1 on b, so n - i loops lie on one path from
    # it and its degree is n - 1 - i, which it misses if it is classed before the states it
    # reaches; "sink": the chain runs into one state with loops on both letters
    n = 100_000
    trans = {(i, "b" if shape == "loops" else "a"): i + 1 for i in range(n - 1)}
    if shape == "cycle":
        trans[n - 1, "a"] = 0
    elif shape == "loops":
        trans.update({(i, "a"): i for i in range(n)})
    elif shape == "sink":
        trans[n - 1, "a"] = trans[n - 1, "b"] = n - 1
    a = Dfa(AB if shape in ("loops", "sink") else OrderedAlphabet(("a",)), range(n), 0, frozenset({n - 1}), trans)
    want = {"cycle": [0] * n, "chain": [-1] * n, "loops": range(n - 1, -1, -1), "sink": [inf] * n}[shape]
    assert _growth(a) == dict(zip(range(n), want))
    assert is_infinite(a) == (shape != "chain")


def test_equivalence_and_witnesses():
    assert equivalent(ab_star_dfa(), minimize(ab_star_dfa()))
    # the empty word separates a*b* from a*b+
    assert distinguishing_word(ab_star_dfa(), ab_bplus_dfa()) == ()
    # an odd number of b's separates a*b* from a*(bb)*
    assert distinguishing_word(ab_star_dfa(), ab_evenb_dfa()) == ("b",)
    assert distinguishing_word(ab_star_dfa(), ab_star_dfa()) is None


def test_dfao_transform_and_acceptor():
    m = teaching_dfao()
    assert m.transform(()) == "0"
    assert m.transform(("a",)) == "1"
    assert m.transform(("a", "b", "b")) == "2"
    acc = m.as_acceptor({"0"})
    assert acc.accepts(("a", "a", "a", "a"))
    assert not acc.accepts(("a",))


def test_dfao_completed_outputs_bottom():
    sig = OrderedAlphabet(("a",))
    m = Dfao(sig, ("x",), "x", {}, {"x": "1"}, ("1",))
    c = m.completed()
    assert c.is_complete()
    assert c.transform(("a", "a")) == BOTTOM


def test_reduce_dfao_collapses_equal_behavior():
    sig = OrderedAlphabet(("a",))
    m = Dfao(
        sig,
        ("x", "y", "z"),
        "x",
        {("x", "a"): "y", ("y", "a"): "z", ("z", "a"): "y"},
        {"x": "0", "y": "0", "z": "0"},
        ("0",),
    )
    r = reduce_dfao(m)
    assert len(r.states) == 1
    assert r.transform(("a",) * 5) == "0"


def test_reduce_dfao_preserves_all_outputs():
    m = teaching_dfao()
    r = reduce_dfao(m)
    assert len(r.states) == 12  # the 12 mod-classes are pairwise distinguishable
    for w in brute_words(ab_star_dfa(), 9):
        assert r.transform(w) == m.transform(w)


def test_reduce_dfao_is_canonical():
    m = teaching_dfao()
    assert reduce_dfao(reduce_dfao(m)) == reduce_dfao(m)


def test_product_pairs_and_runs():
    pm = product(ab_star_dfa(), teaching_dfao())
    assert len(pm.dfao.states) == 28  # not all 3*12 completed pairs are reachable
    rng = random.Random(7)
    lang = ab_star_dfa()
    mach = teaching_dfao().completed()
    for _ in range(300):
        w = tuple(rng.choice(("a", "b")) for _ in range(rng.randrange(12)))
        q = pm.dfao.run(w)
        assert (q in pm.finals) == lang.accepts(w)
        assert pm.dfao.output[q] == mach.transform(w)


def test_product_rejects_mismatched_alphabets():
    bad = Dfao(OrderedAlphabet(("x",)), ("q",), "q", {("q", "x"): "q"}, {"q": "0"}, ("0",))
    with pytest.raises(Exception):
        product(ab_star_dfa(), bad)


def test_product_is_complete():
    pm = product(binary_like_dfa(), Dfao(
        OrderedAlphabet(("0", "1")),
        ("e", "o"),
        "e",
        {("e", "0"): "e", ("e", "1"): "o", ("o", "0"): "o", ("o", "1"): "e"},
        {"e": "0", "o": "1"},
        ("0", "1"),
    ))
    assert pm.dfao.is_complete()


def test_counter_products_keep_parent_links_not_access_words():
    # two 8,000-state counters (a counts up mod n, b resets) pair up state by
    # state; their least access words, a^i, hold 32 million letters in all
    n = 8_000
    trans = {(i, "a"): (i + 1) % n for i in range(n)} | {(i, "b"): 0 for i in range(n)}
    a, b = Dfa(AB, range(n), 0, {n - 1}, trans), Dfa(AB, range(n), 0, {n - 2}, trans)
    assert distinguishing_word(a, b) == ("a",) * (n - 2)
    m = Dfao(AB, range(n), 0, trans, {i: i % 2 for i in range(n)}, (0, 1))
    tracemalloc.start()
    try:
        pm = product(a, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pm.dfao.states) == n
    assert peak <= 10 * 2**20


# Each bad machine and the exact ValueError its constructor raises: a Dfa
# (finals given) or a Dfao (outputs and output alphabet given), over a < b.
GOOD = {("p", "a"): "q", ("q", "b"): "p"}
OUT = {"p": "0", "q": "1"}
CONSTRUCTOR_MESSAGES = [
    (("p", "q", "q", "p"), "p", GOOD, {"p"}, "duplicate state 'q'"),
    (("p", "q"), "r", GOOD, {"p"}, "start state 'r' not among states"),
    (("p", "q"), "p", {**GOOD, ("q", "a"): "r"}, {"p"}, "transition ('q', 'a', 'r') uses an undeclared state"),
    (("p", "q"), "p", {("r", "a"): "p", **GOOD}, {"p"}, "transition ('r', 'a', 'p') uses an undeclared state"),
    (("p", "q"), "p", {**GOOD, ("p", "c"): "q"}, {"p"},
     "transition ('p', 'c', 'q') uses a symbol outside the alphabet"),
    # two bad transitions: the first in the table's order is named
    (("p", "q"), "p", {("p", "c"): "q", ("q", "a"): "r"}, {"p"},
     "transition ('p', 'c', 'q') uses a symbol outside the alphabet"),
    (("p", "q"), "p", {("q", "a"): "r", ("p", "c"): "q"}, {"p"}, "transition ('q', 'a', 'r') uses an undeclared state"),
    (("p", "q"), "p", GOOD, {"p", "r"}, "final states must be declared states"),
    (("p", "q", "q"), "p", GOOD, (OUT, ("0", "1")), "duplicate state 'q'"),
    (("p", "q"), "p", {**GOOD, ("p", "c"): "p"}, (OUT, ("0", "1")),
     "transition ('p', 'c', 'p') uses a symbol outside the alphabet"),
    (("p", "q"), "p", GOOD, (OUT, ("0", "1", "0")), "duplicate symbols in output alphabet"),
    (("p", "q"), "p", GOOD, ({"p": "0"}, ("0", "1")), "state 'q' has no output symbol"),
    (("p", "q"), "p", GOOD, ({"p": "2", "q": "1"}, ("0", "1")), "state 'p' outputs '2', outside the output alphabet"),
    # a missing output and one outside the output alphabet: the first state in order is named
    (("p", "q"), "p", GOOD, ({"p": "2"}, ("0", "1")), "state 'p' outputs '2', outside the output alphabet"),
    (("p", "q"), "p", GOOD, ({"q": "2"}, ("0", "1")), "state 'p' has no output symbol"),
]


@pytest.mark.parametrize("states, start, trans, rest, message", CONSTRUCTOR_MESSAGES)
def test_constructor_messages(states, start, trans, rest, message):
    with pytest.raises(ValueError) as err:
        if isinstance(rest, tuple):
            Dfao(AB, states, start, trans, *rest)
        else:
            Dfa(AB, states, start, rest, trans)
    assert str(err.value) == message


# Transition keys that are not (state, letter) tuples.  No lookup reads them
# and is_complete counts keys, so the constructor names them, even a 2-item
# key such as "pb" that would unpack as a pair.
KEY_MESSAGES = [
    (("p", "q"), "p", {**GOOD, "pb": "q"}, {"p"}, "transition key 'pb' is not a (state, letter) pair"),
    (("p", "q"), "p", {("p", "b", "a"): "q", **GOOD}, {"p"},
     "transition key ('p', 'b', 'a') is not a (state, letter) pair"),
    (("p", "q"), "p", {**GOOD, frozenset({1, 2}): "q"}, (OUT, ("0", "1")),
     "transition key frozenset({1, 2}) is not a (state, letter) pair"),
    (("p", "q"), "p", {("q", "a"): "r", "pb": "q"}, {"p"}, "transition ('q', 'a', 'r') uses an undeclared state"),
]


@pytest.mark.parametrize("states, start, trans, rest, message", KEY_MESSAGES)
def test_constructor_names_keys_that_are_not_pairs(states, start, trans, rest, message):
    test_constructor_messages(states, start, trans, rest, message)
