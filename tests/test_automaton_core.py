"""Property tests of the automaton core on small random partial machines.

Machines have at most 5 states over at most 3 letters.  Every answer is
checked against exhaustive searches written here, independent of the
package: ``least_word`` walks all words length by length (keeping, for each
tuple of states reached, the lexicographically least word of that length),
and ``distinguishable`` marks state pairs by table filling.  The partition
refinement is also checked against Moore's refinement on total machines of up
to 40 states, and its work is bounded on counters of thousands of states.
"""

import math
import sys
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings, strategies as st

from ans import (
    BOTTOM,
    AutomaticSequence,
    Dfa,
    Dfao,
    FiniteLanguageError,
    NumerationSystem,
    OrderedAlphabet,
    PartitionError,
    dfao_from_fibers,
    distinguishing_word,
    fiber,
    kernel,
    minimize,
    reduce_dfao,
)
from ans import automata as automata_module, sequences as sequences_module

from conftest import AB

CORE = settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


# -- random machines ----------------------------------------------------------


@st.composite
def alphabets(draw):
    return OrderedAlphabet(tuple("abc"[: draw(st.integers(1, 3))]))


def _graph(draw, sigma, prefix):
    """States, start and a partial transition table (about a third missing)."""
    n = draw(st.integers(1, 5))
    states = tuple(f"{prefix}{i}" for i in range(n))
    trans = {}
    for q in states:
        for a in sigma:
            t = draw(st.integers(-2, n - 1))
            if t >= 0:
                trans[(q, a)] = states[t]
    return states, states[draw(st.integers(0, n - 1))], trans


@st.composite
def dfas(draw, sigma=None, prefix="s"):
    sigma = sigma or draw(alphabets())
    states, start, trans = _graph(draw, sigma, prefix)
    finals = frozenset(q for q in states if draw(st.booleans()))
    return Dfa(sigma, states, start, finals, trans)


@st.composite
def dfaos(draw, sigma=None, outputs=("0", "1", "2", BOTTOM)):
    sigma = sigma or draw(alphabets())
    states, start, trans = _graph(draw, sigma, "m")
    out = {q: draw(st.sampled_from(outputs)) for q in states}
    return Dfao(sigma, states, start, trans, out, outputs)


@st.composite
def sequences(draw, outputs=("0", "1", "2")):
    """An automatic sequence over a random infinite language."""
    sigma = draw(alphabets())
    lang = draw(dfas(sigma))
    try:
        system = NumerationSystem(lang)
    except FiniteLanguageError:
        assume(False)
    return AutomaticSequence(system, draw(dfaos(sigma, outputs)))


# -- exhaustive oracles ---------------------------------------------------------


def _step(m, q, a):
    return None if q is None else m.trans.get((q, a))


def _key(sigma, w):
    return (len(w), [sigma.index(a) for a in w])


def least_words(machines, starts=None):
    """Every tuple of states (None once a run dies) that some word reaches,
    with the shortlex-least such word: all words, one length at a time."""
    sigma = machines[0].alphabet
    level = {tuple(starts or (m.start for m in machines)): ()}
    least = {}
    seen_levels = set()
    while frozenset(level) not in seen_levels:
        seen_levels.add(frozenset(level))
        for q, w in level.items():
            least.setdefault(q, w)
        nxt = {}
        for q, w in sorted(level.items(), key=lambda kv: _key(sigma, kv[1])):
            for a in sigma:
                nxt.setdefault(tuple(_step(m, p, a) for m, p in zip(machines, q)), w + (a,))
        level = nxt
    return least


def least_word(machines, bad, starts=None):
    """The shortlex-least word whose tuple of reached states is `bad`, or None."""
    sigma = machines[0].alphabet
    hits = [w for q, w in least_words(machines, starts).items() if bad(q)]
    return min(hits, key=lambda w: _key(sigma, w)) if hits else None


def distinguishable(states, step, label, sigma) -> set:
    """Pairs of `states` (closed under `step`) that some word tells apart."""
    marked = {(p, q) for p in states for q in states if label(p) != label(q)}
    changed = True
    while changed:
        changed = False
        for p in states:
            for q in states:
                if (p, q) not in marked and any((step(p, a), step(q, a)) in marked for a in sigma):
                    marked.add((p, q))
                    changed = True
    return marked


def complete(m):
    """Whether every state has a transition on every letter, pair by pair."""
    return all((q, a) in m.trans for q in m.states for a in m.alphabet)


def accepts(m, q):
    return q is not None and q in m.finals


def out(m, q):
    return BOTTOM if q is None else m.output[q]


# -- minimize and reduce_dfao ----------------------------------------------------


@seed(31)
@CORE
@given(dfas())
def test_minimize_keeps_language_and_is_idempotent(a):
    assert all(x.is_complete() == complete(x) for x in (a, a.completed(), a.trimmed()))
    m = minimize(a)
    assert least_word((a, m), lambda q: accepts(a, q[0]) != accepts(m, q[1])) is None
    assert minimize(m) == m
    assert minimize(a.completed()) == m  # a missing transition and an explicit dead state quotient alike
    # minimal: no two states of the result accept the same language
    step = lambda q, s: _step(m, q, s)
    marked = distinguishable(m.states + (None,), step, lambda q: accepts(m, q), m.alphabet)
    assert all((p, q) in marked for p, q in combinations(m.states, 2))


@seed(32)
@CORE
@given(dfaos())
def test_reduce_dfao_keeps_outputs_and_is_idempotent(m):
    assert all(x.is_complete() == complete(x) for x in (m, m.completed()))
    r = reduce_dfao(m)
    assert least_word((m, r), lambda q: out(m, q[0]) != out(r, q[1])) is None
    assert reduce_dfao(r) == r
    assert reduce_dfao(m.completed()) == r  # a missing transition and an explicit ⊥ state quotient alike
    # only the outputs of the kept states are declared, in the input's order
    assert r.output_alphabet == tuple(d for d in m.output_alphabet if d in r.output.values())


def _refused(*args):
    raise AssertionError("minimize runs a trimming pass")


@seed(40)
@CORE
@given(dfas())
def test_minimize_makes_no_trimming_pass(a):
    # dead states fall into the quotient's dropped block: trimming first changes nothing
    want = minimize(a.trimmed())
    with patch.object(Dfa, "trimmed", _refused), patch.object(Dfa, "coaccessible", _refused):
        assert minimize(a) == want


# -- distinguishing_word -----------------------------------------------------------


@seed(33)
@CORE
@given(st.data())
def test_distinguishing_word_is_shortlex_least(data):
    sigma = data.draw(alphabets())
    a, b = data.draw(dfas(sigma, "s")), data.draw(dfas(sigma, "t"))
    want = least_word((a, b), lambda q: accepts(a, q[0]) != accepts(b, q[1]))
    assert distinguishing_word(a, b) == want


# -- kernel --------------------------------------------------------------------------


@seed(34)
@CORE
@given(sequences())
def test_kernel_representatives_are_distinct_least_and_sorted(u):
    lang, mach, sigma = u.system.language, u.machine, u.system.alphabet
    pairs = least_words((lang, mach))  # every (language, machine) state pair a prefix reaches

    def step(q, a):
        return (_step(lang, q[0], a), _step(mach, q[1], a))

    def label(q):
        return (True, out(mach, q[1])) if accepts(lang, q[0]) else (False, None)

    marked = distinguishable(tuple(pairs), step, label, sigma)
    ks = kernel(u)
    assert [k.class_id for k in ks] == list(range(len(ks)))
    reps = [k.representative_prefix for k in ks]
    assert reps == sorted(set(reps), key=lambda w: _key(sigma, w))
    at = [(lang.run(w), mach.run(w)) for w in reps]
    for p, q in combinations(at, 2):
        assert (p, q) in marked  # distinct classes
    for p, w in pairs.items():
        same = [i for i, q in enumerate(at) if (p, q) not in marked]
        assert len(same) == 1  # every prefix falls in exactly one class ...
        assert _key(sigma, reps[same[0]]) <= _key(sigma, w)  # ... led by its least member
    for k, q in zip(ks, at):
        alive = least_word((lang,), lambda s: accepts(lang, s[0]), starts=(q[0],)) is not None
        assert k.empty == (not alive)


@seed(37)
@CORE
@given(sequences(("0", "1", BOTTOM)))
def test_kernel_refines_once_with_the_classes_of_the_canonical_machines(u):
    real, calls = automata_module._refine, []

    def counted(*a):
        calls.append(a)
        return real(*a)

    with patch.object(automata_module, "_refine", counted), patch.object(sequences_module, "_refine", counted):
        ks = kernel(u)
    assert len(calls) == 1  # the pair product itself, without quotients of its factors first
    canonical = AutomaticSequence(NumerationSystem(minimize(u.system.language)), reduce_dfao(u.machine))
    fields = lambda ks: [(k.class_id, k.representative_prefix, k.empty) for k in ks]
    assert fields(ks) == fields(kernel(canonical))


# -- dfao_from_fibers ------------------------------------------------------------------


@seed(35)
@CORE
@given(sequences())
def test_fibers_rebuild_the_sequence_or_name_the_least_gap(u):
    lang, mach = u.system.language, u.machine
    fibers = {d: fiber(u, d) for d in mach.output_alphabet}
    gap = least_word((lang, mach), lambda q: accepts(lang, q[0]) and q[1] is None)
    if gap is not None:
        label = "".join(gap) if gap else "the empty word"
        with pytest.raises(PartitionError, match=f"^fibers do not cover the language exactly: {label} separates"):
            dfao_from_fibers(u.system, fibers)
        return
    rebuilt = dfao_from_fibers(u.system, fibers)
    assert least_word(
        (lang, mach, rebuilt), lambda q: accepts(lang, q[0]) and out(mach, q[1]) != out(rebuilt, q[2])
    ) is None
    assert AutomaticSequence(u.system, rebuilt).prefix(40) == u.prefix(40)


@seed(38)
@CORE
@given(st.one_of(sequences(), sequences(("0", "1", BOTTOM))))
def test_fibers_of_every_stream_symbol_rebuild_the_sequence(u):
    # where a run dies the stream reads ⊥, and so does the ⊥ fiber, declared or not
    fibers = {d: fiber(u, d) for d in u.output_alphabet}
    rebuilt = dfao_from_fibers(u.system, fibers)
    assert AutomaticSequence(u.system, rebuilt).prefix(40) == u.prefix(40)


@seed(36)
@CORE
@given(st.data())
def test_fibers_name_the_least_overlap_or_gap(data):
    sigma = data.draw(alphabets())
    try:
        system = NumerationSystem(data.draw(dfas(sigma, "s")))
    except FiniteLanguageError:
        assume(False)
    lang = system.language
    k = data.draw(st.integers(1, 3))
    symbols = ("x", "y", "z")[:k]
    fibers = {d: data.draw(dfas(sigma, f"f{i}")) for i, d in enumerate(symbols)}
    parts = [fibers[d] for d in symbols]

    overlap = next(
        (
            (symbols[i], symbols[j])
            for i, j in combinations(range(k), 2)
            if least_word((parts[i], parts[j]), lambda q: accepts(parts[i], q[0]) and accepts(parts[j], q[1]))
            is not None
        ),
        None,
    )
    if overlap is not None:
        with pytest.raises(PartitionError, match=f"^fibers for {overlap[0]!r} and {overlap[1]!r} overlap$"):
            dfao_from_fibers(system, fibers)
        return
    machines = (lang, *parts)

    def covered(q):
        return any(accepts(f, p) for f, p in zip(parts, q[1:]))

    gap = least_word(machines, lambda q: accepts(lang, q[0]) != covered(q))
    if gap is not None:
        label = "".join(gap) if gap else "the empty word"
        with pytest.raises(PartitionError, match=f"^fibers do not cover the language exactly: {label} separates"):
            dfao_from_fibers(system, fibers)
        return
    rebuilt = dfao_from_fibers(system, fibers)

    def wrong(q):
        if not accepts(lang, q[0]):
            return False
        (d,) = [d for d, f, p in zip(symbols, parts, q[1:-1]) if accepts(f, p)]
        return out(rebuilt, q[-1]) != d

    assert least_word((*machines, rebuilt), wrong) is None


# -- the block a missing transition reads as -------------------------------------------------------


def test_minimize_empty_language_keeps_one_looping_state():
    no_final = Dfa(AB, ("p", "q"), "p", frozenset(), {("p", "a"): "q"})
    unreachable_final = Dfa(AB, ("p", "q"), "p", frozenset({"q"}), {})
    looping = Dfa(AB, ("p",), "p", frozenset(), {("p", "a"): "p", ("p", "b"): "p"})  # complete: no sink
    for a in (no_final, unreachable_final, looping):
        m = minimize(a)
        assert m.states == ("q0",)
        assert m.finals == frozenset()
        assert m.trans == {("q0", "a"): "q0", ("q0", "b"): "q0"}


def test_reduce_dfao_drops_states_that_behave_like_the_sink():
    sig = OrderedAlphabet(("a", "b"))
    # y outputs the placeholder and has no moves; z outputs it and loops:
    # every future output of both equals the completion sink's
    partial = {("x", "a"): "y", ("x", "b"): "z", ("z", "a"): "z"}
    # complete: no sink is added, and y and z, looping on every letter, are the ⊥ block
    complete = {("x", "a"): "y", ("x", "b"): "z"} | {(q, s): q for q in "yz" for s in "ab"}
    for trans in (partial, complete):
        m = Dfao(sig, ("x", "y", "z"), "x", trans, {"x": "0", "y": BOTTOM, "z": BOTTOM}, ("0", BOTTOM))
        assert m.is_complete() == (trans is complete)
        r = reduce_dfao(m)
        assert r.states == ("q0",)
        assert r.trans == {}
        assert r.output == {"q0": "0"}
        assert r.output_alphabet == ("0",)
    # ... unless the start itself behaves like the sink
    dead = Dfao(sig, ("x",), "x", {}, {"x": BOTTOM}, (BOTTOM,))
    r = reduce_dfao(dead)
    assert r.states == ("q0",)
    assert r.trans == {("q0", "a"): "q0", ("q0", "b"): "q0"}
    assert r.output == {"q0": BOTTOM}


# -- _refine against Moore's refinement -------------------------------------------------


def moore(states, alphabet, trans, label):
    """Moore's refinement: split blocks by their states' successor blocks until none splits."""
    ids = {}
    block = {q: ids.setdefault(label[q], len(ids)) for q in states}
    count = len(ids)
    while True:
        nums = {}
        block = {
            q: nums.setdefault((block[q], tuple(block[trans[(q, a)]] for a in alphabet)), len(nums))
            for q in states
        }
        if len(nums) == count:
            return block
        count = len(nums)


KERNEL_LABELS = ((True, "0"), (True, "1"), (True, BOTTOM), (False, None))  # as ``kernel`` labels pairs


@st.composite
def total_machines(draw):
    """A total machine on up to 40 states, its states in shuffled order, and kernel-style labels."""
    sigma = draw(alphabets())
    n = draw(st.integers(1, 40))
    labels = draw(st.lists(st.sampled_from(KERNEL_LABELS), min_size=1, max_size=4))
    trans = {(f"s{i}", a): f"s{draw(st.integers(0, n - 1))}" for i in range(n) for a in sigma}
    label = {f"s{i}": draw(st.sampled_from(labels)) for i in range(n)}
    return draw(st.permutations([f"s{i}" for i in range(n)])), sigma, trans, label


@seed(39)
@settings(CORE, max_examples=300)
@given(total_machines())
def test_refine_numbers_the_blocks_of_moores_refinement(machine):
    assert automata_module._refine(*machine) == moore(*machine)


def test_refine_on_one_state_one_letter_and_one_label():
    one_letter = OrderedAlphabet(("a",))
    one = (("s",), AB, {("s", "a"): "s", ("s", "b"): "s"}, {"s": (False, None)})
    cycle = (("x", "y", "z"), one_letter, {("x", "a"): "y", ("y", "a"): "z", ("z", "a"): "x"}, {"x": 1, "y": 0, "z": 0})
    same = (("x", "y", "z"), AB, {(q, s): "x" for q in "xyz" for s in "ab"}, dict.fromkeys("xyz", (True, "0")))
    for machine, blocks in ((one, {"s": 0}), (cycle, {"x": 0, "y": 1, "z": 2}), (same, dict.fromkeys("xyz", 0))):
        assert automata_module._refine(*machine) == moore(*machine) == blocks


def _counter(n, finals):
    """a counts up mod n, b resets to 0."""
    trans = {(i, "a"): (i + 1) % n for i in range(n)} | {(i, "b"): 0 for i in range(n)}
    return Dfa(AB, range(n), 0, finals, trans)


@pytest.mark.parametrize("n", [1_000, 8_000])
def test_refine_runs_n_sigma_log_n_lines_on_counters(n):
    # Moore's refinement takes n rounds on a counter, about n^2 lines in all;
    # every line the call runs is counted, comprehensions included
    c = _counter(n, {n - 1})
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        block = automata_module._refine(c.states, AB, c.trans, {q: q in c.finals for q in c.states})
    finally:
        sys.settrace(previous)
    assert len(set(block.values())) == n
    assert lines <= 4 * n * len(AB) * math.log2(n)


def test_minimize_folds_a_counter_mod_2n_onto_n_states():
    n = 4_000
    assert len(minimize(_counter(2 * n, {n - 1, 2 * n - 1})).states) == n
