"""Ordered alphabets and deterministic finite automata, plain and with output.

Conventions used throughout the package:

* Automata are *partial*: a missing transition means the word falls into an
  implicit dead state and is rejected.  ``completed()`` materializes that
  state when a construction needs totality.
* States are opaque hashable values; products use tuples of them.  Every
  machine derived from another keeps some states under new names through
  ``_renamed``, and ``renumbered()`` gives the canonical breadth-first
  naming q0, q1, ... used for serialization.
* All instances are immutable by contract: no method mutates ``self``.

Every product of machines read in parallel (``product``, ``intersect``,
``union``, ``difference``, ``distinguishing_word``, and the kernel and fiber
constructions of ``sequences``) is built by ``_reachable_product``, and
every quotient by indistinguishability (``minimize``, ``reduce_dfao``) by
``_quotient``.  The product is explored breadth-first with letters taken in
alphabet order, so a state is first reached by its shortlex-least access
word, and the order of discovery is the shortlex order of those words: the
first state of any set in that order carries the set's least word.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import AlphabetMismatchError

Symbol = Hashable
State = Hashable
Word = tuple

# Placeholder output carried by states that no accepted word reaches.
BOTTOM = "⊥"
# Name of the dead state ``completed()`` materializes.  The "@" prefix is
# reserved: user-supplied files cannot declare identifiers starting with it.
DEAD = "@dead"


@dataclass(frozen=True)
class OrderedAlphabet:
    """A finite alphabet with a fixed total order on its symbols."""

    symbols: tuple
    _pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if not symbols:
            raise ValueError("alphabet must contain at least one symbol")
        pos = {}
        for i, s in enumerate(symbols):
            if s in pos:
                raise ValueError(f"duplicate alphabet symbol {s!r}")
            pos[s] = i
        object.__setattr__(self, "_pos", pos)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator:
        return iter(self.symbols)

    def __contains__(self, symbol) -> bool:
        return symbol in self._pos

    def index(self, symbol) -> int:
        try:
            return self._pos[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} not in alphabet {self.symbols!r}") from None

    def word_key(self, word: Word):
        """Sort key realizing shortlex order: length first, then letter order."""
        return (len(word), tuple(self._pos[s] for s in word))


class _Machine:
    """Method mixin shared by Dfa and Dfao (fields live in the dataclasses)."""

    alphabet: OrderedAlphabet
    states: tuple
    start: State
    trans: dict

    def _check_core(self):
        seen = set()
        for q in self.states:
            if q in seen:
                raise ValueError(f"duplicate state {q!r}")
            seen.add(q)
        if self.start not in seen:
            raise ValueError(f"start state {self.start!r} not among states")
        for (q, a), q2 in self.trans.items():
            if q not in seen or q2 not in seen:
                raise ValueError(f"transition {(q, a, q2)!r} uses an undeclared state")
            if a not in self.alphabet:
                raise ValueError(f"transition {(q, a, q2)!r} uses a symbol outside the alphabet")

    def run(self, word: Iterable, state: State | None = None) -> State | None:
        """State reached from `state` (default: start) or None if undefined."""
        q = self.start if state is None else state
        for a in word:
            q = self.trans.get((q, a))
            if q is None:
                return None
        return q

    def reachable(self) -> tuple:
        """States reachable from the start, in breadth-first alphabet order."""
        order = [self.start]
        seen = {self.start}
        queue = deque(order)
        while queue:
            q = queue.popleft()
            for a in self.alphabet:
                q2 = self.trans.get((q, a))
                if q2 is not None and q2 not in seen:
                    seen.add(q2)
                    order.append(q2)
                    queue.append(q2)
        return tuple(order)

    def is_complete(self) -> bool:
        return all((q, a) in self.trans for q in self.states for a in self.alphabet)

    def _fresh_state(self, base: str) -> State:
        name = base
        k = 0
        existing = set(self.states)
        while name in existing:
            name = f"{base}{k}"
            k += 1
        return name

    def completed(self):
        """Total-transition view; adds a fresh dead state only if needed.

        The dead state is not final, and on a DFAO it outputs ``BOTTOM``.
        """
        if self.is_complete():
            return self
        sink = self._fresh_state(DEAD)
        states = self.states + (sink,)
        trans = {(q, a): self.trans.get((q, a), sink) for q in states for a in self.alphabet}
        return replace(self, states=states, trans=trans, **self._sink_fields(sink))

    def renumbered(self, prefix: str = "q"):
        """Canonical copy: reachable states renamed q0, q1, ... in BFS order."""
        return self._renamed({q: f"{prefix}{i}" for i, q in enumerate(self.reachable())})

    def _renamed(self, name: dict, **fields):
        """Copy keeping the states in `name`, renamed to their values; states sharing a name merge.

        Transitions between kept states stay; `fields` override what ``_renamed_fields`` carries.
        """
        trans = {(name[q], a): name[q2] for (q, a), q2 in self.trans.items() if q in name and q2 in name}
        states = tuple(dict.fromkeys(name.values()))
        fields = {**self._renamed_fields(name), **fields}
        return replace(self, states=states, start=name[self.start], trans=trans, **fields)

    def _sink_fields(self, sink) -> dict:
        """Fields other than states and transitions that a completion sink changes."""
        return {}


@dataclass(frozen=True)
class Dfa(_Machine):
    """Deterministic partial automaton accepting a language over its alphabet."""

    alphabet: OrderedAlphabet
    states: tuple
    start: State
    finals: frozenset
    trans: dict

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "finals", frozenset(self.finals))
        self._check_core()
        if not self.finals <= set(self.states):
            raise ValueError("final states must be declared states")

    def accepts(self, word: Iterable) -> bool:
        return self.run(word) in self.finals

    def coaccessible(self) -> frozenset:
        """States from which some final state can be reached."""
        back: dict[State, set] = {q: set() for q in self.states}
        for (q, _a), q2 in self.trans.items():
            back[q2].add(q)
        alive = set(self.finals)
        queue = deque(alive)
        while queue:
            q = queue.popleft()
            for p in back[q]:
                if p not in alive:
                    alive.add(p)
                    queue.append(p)
        return frozenset(alive)

    def trimmed(self) -> "Dfa":
        """Restrict to accessible-and-coaccessible states (start always kept)."""
        keep = set(self.reachable()) & self.coaccessible()
        keep.add(self.start)
        return self._renamed({q: q for q in self.states if q in keep})

    def _renamed_fields(self, name: dict) -> dict:
        return {"finals": frozenset(name[q] for q in self.finals if q in name)}


@dataclass(frozen=True)
class Dfao(_Machine):
    """Deterministic automaton with output: every state carries one output symbol."""

    alphabet: OrderedAlphabet
    states: tuple
    start: State
    trans: dict
    output: dict
    output_alphabet: tuple

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "output_alphabet", tuple(self.output_alphabet))
        self._check_core()
        allowed = set(self.output_alphabet)
        if len(allowed) != len(self.output_alphabet):
            raise ValueError("duplicate symbols in output alphabet")
        for q in self.states:
            if q not in self.output:
                raise ValueError(f"state {q!r} has no output symbol")
            if self.output[q] not in allowed:
                raise ValueError(f"state {q!r} outputs {self.output[q]!r}, outside the output alphabet")

    def transform(self, word: Iterable, state: State | None = None):
        """Output at the state reached by `word`; ValueError if the run dies."""
        q = self.run(word, state)
        if q is None:
            raise ValueError("output undefined: the run leaves the transition table")
        return self.output[q]

    def accessible(self) -> "Dfao":
        """Reachable part, declaring only the outputs it uses."""
        keep = self.reachable()
        out_alpha = _outputs_in_use(self.output_alphabet, map(self.output.get, keep))
        return self._renamed(dict(zip(keep, keep)), output_alphabet=out_alpha)

    def _sink_fields(self, sink) -> dict:
        out_alpha = self.output_alphabet
        if BOTTOM not in out_alpha:
            out_alpha += (BOTTOM,)
        return {"output": {**self.output, sink: BOTTOM}, "output_alphabet": out_alpha}

    def _renamed_fields(self, name: dict) -> dict:
        return {"output": {name[q]: self.output[q] for q in name}}

    def as_acceptor(self, outputs) -> Dfa:
        """DFA over the same graph accepting words whose output lies in `outputs`."""
        wanted = set(outputs)
        finals = frozenset(q for q in self.states if self.output[q] in wanted)
        return Dfa(self.alphabet, self.states, self.start, finals, dict(self.trans))


def _outputs_in_use(output_alphabet: tuple, used: Iterable) -> tuple:
    """The symbols of `output_alphabet` that occur in `used`, in declared order."""
    used = set(used)
    return tuple(d for d in output_alphabet if d in used)


@dataclass(frozen=True)
class ProductMachine:
    """Pair automaton of a DFA and a DFAO over one alphabet.

    States of ``dfao`` are pairs ``(k, k')``; the pair keeps the DFA side's
    acceptance (``finals``) and the DFAO side's output (``dfao.output``).
    Both factors are completed first, so the product has total transitions.
    """

    dfao: Dfao
    finals: frozenset


def _require_same_alphabet(a, b):
    if a.alphabet.symbols != b.alphabet.symbols:
        raise AlphabetMismatchError(
            f"operands use different ordered alphabets: {a.alphabet.symbols!r} vs {b.alphabet.symbols!r}"
        )


def _reachable_product(machines) -> tuple[list, dict, dict]:
    """The machines read in parallel: their reachable tuples of states.

    All machines must be complete and share one ordered alphabet.  Returns
    the tuples in breadth-first alphabet order (the shortlex order of their
    least access words), the transitions between them, and each tuple's
    least access word.
    """
    for m in machines[1:]:
        _require_same_alphabet(machines[0], m)
    alphabet = machines[0].alphabet.symbols
    # each state's successors in alphabet order: zipping the rows of the
    # current states gives the next tuple for every letter in turn
    succs = [{q: tuple(m.trans[(q, s)] for s in alphabet) for q in m.states} for m in machines]
    start = tuple(m.start for m in machines)
    order = [start]
    word = {start: ()}
    trans = {}
    for q in order:
        w = word[q]
        for s, nxt in zip(alphabet, zip(*[succ[p] for succ, p in zip(succs, q)])):
            trans[(q, s)] = nxt
            if nxt not in word:
                word[nxt] = w + (s,)
                order.append(nxt)
    return order, trans, word


def product(a: Dfa, b: Dfao) -> ProductMachine:
    """Reachable pair automaton of `a` and `b` (both completed first)."""
    ca, cb = a.completed(), b.completed()
    order, trans, _ = _reachable_product((ca, cb))
    out = {pair: cb.output[pair[1]] for pair in order}
    out_alpha = _outputs_in_use(cb.output_alphabet, out.values())
    dfao = Dfao(ca.alphabet, tuple(order), order[0], trans, out, out_alpha)
    return ProductMachine(dfao, frozenset(pair for pair in order if pair[0] in ca.finals))


def _refine(states: Sequence, alphabet: OrderedAlphabet, trans: dict, label: dict) -> dict:
    """Moore partition refinement of a total automaton; returns state -> block id.

    States start in one block per distinct `label`; blocks are numbered in
    order of first appearance in `states`.
    """
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


def _quotient(c, label: dict, sink):
    """Merge the states of a complete machine that no word tells apart, canonically renumbered.

    States merge when every word leads them to equal labels.  The block of
    the completion `sink` (None if completion added none) is dropped, so
    transitions into it go missing again, unless it holds the start.
    """
    block = _refine(c.reachable(), c.alphabet, c.trans, label)
    blocks = dict.fromkeys(block.values())  # ids count up in BFS order, which is the quotient's BFS order
    if sink is not None and block[sink] != block[c.start]:
        del blocks[block[sink]]
    name = {b: f"q{i}" for i, b in enumerate(blocks)}
    return c._renamed({q: name[b] for q, b in block.items() if b in name})


def minimize(a: Dfa) -> Dfa:
    """Minimal partial DFA for the language of `a`, canonically renumbered."""
    t = a.trimmed()
    c = t.completed()
    return _quotient(c, {q: q in c.finals for q in c.states}, None if c is t else c.states[-1])


def reduce_dfao(m: Dfao) -> Dfao:
    """Accessible DFAO merging states indistinguishable by future outputs.

    Two states merge exactly when every word leads them to equal outputs;
    missing transitions count as a distinct placeholder behavior.
    """
    acc = m.accessible()
    c = acc.completed()
    r = _quotient(c, c.output, None if c is acc else c.states[-1])
    return replace(r, output_alphabet=_outputs_in_use(r.output_alphabet, r.output.values()))


def is_empty(a: Dfa) -> bool:
    return not (set(a.reachable()) & a.finals)


def is_infinite(a: Dfa) -> bool:
    """True iff `a` accepts infinitely many words (cycle in the trimmed part).

    Peeling off states with no incoming transitions left, over and over,
    removes exactly the states on no cycle and reached from none.
    """
    t = a.trimmed()
    if not t.finals:  # trimming keeps every reached final state
        return False
    indegree = dict.fromkeys(t.states, 0)
    for q2 in t.trans.values():
        indegree[q2] += 1
    free = [q for q in t.states if not indegree[q]]
    left = len(t.states)
    while free:
        q = free.pop()
        left -= 1
        for s in t.alphabet:
            q2 = t.trans.get((q, s))
            if q2 is not None:
                indegree[q2] -= 1
                if not indegree[q2]:
                    free.append(q2)
    return left > 0


def distinguishing_word(a: Dfa, b: Dfa) -> Word | None:
    """Shortlex-least word accepted by exactly one of the two DFAs, or None."""
    ca, cb = a.completed(), b.completed()
    order, _, word = _reachable_product((ca, cb))
    for p, q in order:
        if (p in ca.finals) != (q in cb.finals):
            return word[(p, q)]
    return None


def equivalent(a: Dfa, b: Dfa) -> bool:
    """True iff the two DFAs accept the same language (same ordered alphabet)."""
    return distinguishing_word(a, b) is None


def _boolean_product(a: Dfa, b: Dfa, keep) -> Dfa:
    ca, cb = a.completed(), b.completed()
    order, trans, _ = _reachable_product((ca, cb))
    finals = frozenset(pq for pq in order if keep(pq[0] in ca.finals, pq[1] in cb.finals))
    p = Dfa(ca.alphabet, tuple(order), order[0], finals, trans)
    # a live state's least access word passes through live states only, so
    # `order` keeps the trimmed machine's breadth-first order
    live = p.coaccessible() | {p.start}
    return p._renamed({q: f"q{i}" for i, q in enumerate(q for q in order if q in live)})


def intersect(a: Dfa, b: Dfa) -> Dfa:
    return _boolean_product(a, b, lambda x, y: x and y)


def union(a: Dfa, b: Dfa) -> Dfa:
    return _boolean_product(a, b, lambda x, y: x or y)


def difference(a: Dfa, b: Dfa) -> Dfa:
    """Words accepted by `a` but not by `b`."""
    return _boolean_product(a, b, lambda x, y: x and not y)
