"""Ordered alphabets and deterministic finite automata, plain and with output.

Conventions used throughout the package:

* Automata are *partial*: a missing transition means the word falls into an
  implicit dead state and is rejected.  ``completed()`` materializes that
  state; ``_reachable_product`` and ``_quotient``, which need totality, call
  it on what they read, so their callers pass machines as given.
* States are opaque hashable values; products use tuples of them.  Every
  machine derived from another keeps some states under new names through
  ``_renamed``, and ``renumbered()`` gives the canonical breadth-first
  naming q0, q1, ... used for serialization.
* All instances are immutable by contract: no method mutates ``self``.
* ``is_complete`` counts transitions.  That is exact because the constructor
  checks that every key is a (state, letter) tuple, and instances are immutable.

Every product of machines read in parallel (``product``, ``intersect``,
``union``, ``difference``, ``distinguishing_word``, and the kernel and fiber
constructions of ``sequences``) is built by ``_reachable_product``, and
every quotient by indistinguishability (``minimize``, ``reduce_dfao``) by
``_quotient``.  The product is explored breadth-first with letters taken in
alphabet order, so a state is first reached by its shortlex-least access
word, and the order of discovery is the shortlex order of those words: the
first state of any set in that order carries the set's least word.  The
quotient's blocks, and the kernel classes of ``sequences``, come from
``_refine``: Hopcroft's partition refinement, O(n·|Σ|·log n) on n states.
The quotient drops the block a missing transition reads as, so a machine and
its completion minimize and reduce alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import inf
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import AlphabetMismatchError

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

    def _check_core(self) -> set:
        """Check the states, start and transitions; return the set of states.

        Each check is one set operation; a loop runs only when one fails, to name the first offender in order.
        """
        seen = set(self.states)
        if len(seen) < len(self.states):
            met = set()  # set.add returns None, so the generator yields the first state met twice
            raise ValueError(f"duplicate state {next(q for q in self.states if q in met or met.add(q))!r}")
        if self.start not in seen:
            raise ValueError(f"start state {self.start!r} not among states")
        keys = self.trans.keys()
        pairs = set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {2}
        if not (pairs and set(self.alphabet.symbols).issuperset(map(itemgetter(1), keys))
                and seen.issuperset(map(itemgetter(0), keys)) and seen.issuperset(self.trans.values())):
            for key, q2 in self.trans.items():
                if not (isinstance(key, tuple) and len(key) == 2):
                    raise ValueError(f"transition key {key!r} is not a (state, letter) pair")
                q, a = key
                if q not in seen or q2 not in seen:
                    raise ValueError(f"transition {(q, a, q2)!r} uses an undeclared state")
                if a not in self.alphabet:
                    raise ValueError(f"transition {(q, a, q2)!r} uses a symbol outside the alphabet")
        return seen

    def run(self, word: Iterable) -> State | None:
        """State reached from the start, or None if undefined."""
        q = self.start
        for a in word:
            q = self.trans.get((q, a))
            if q is None:
                return None
        return q

    def reachable(self) -> tuple:
        """States reachable from the start, in breadth-first alphabet order."""
        order = [self.start]
        seen = {self.start}
        for q in order:
            for a in self.alphabet.symbols:
                q2 = self.trans.get((q, a))
                if q2 is not None and q2 not in seen:
                    seen.add(q2)
                    order.append(q2)
        return tuple(order)

    def is_complete(self) -> bool:
        return len(self.trans) == len(self.states) * len(self.alphabet)

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
        trans = {(q, a): self.trans.get((q, a), sink) for q in states for a in self.alphabet.symbols}
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
        if not self.finals <= self._check_core():
            raise ValueError("final states must be declared states")

    def accepts(self, word: Iterable) -> bool:
        return self.run(word) in self.finals

    def coaccessible(self) -> frozenset:
        """States from which some final state can be reached."""
        back: dict[State, set] = {q: set() for q in self.states}
        for (q, _a), q2 in self.trans.items():
            back[q2].add(q)
        alive = set(self.finals)
        order = list(alive)
        for q in order:
            for p in back[q]:
                if p not in alive:
                    alive.add(p)
                    order.append(p)
        return frozenset(alive)

    def trimmed(self) -> "Dfa":
        """Restrict to accessible-and-coaccessible states (start always kept); `self` if every state is kept."""
        keep = set(self.reachable()) & self.coaccessible()
        keep.add(self.start)
        if len(keep) == len(self.states):
            return self
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
        seen = self._check_core()
        allowed = set(self.output_alphabet)
        if len(allowed) != len(self.output_alphabet):
            raise ValueError("duplicate symbols in output alphabet")
        if not (seen <= self.output.keys() and allowed.issuperset(map(self.output.__getitem__, self.states))):
            for q in self.states:
                if q not in self.output:
                    raise ValueError(f"state {q!r} has no output symbol")
                if self.output[q] not in allowed:
                    raise ValueError(f"state {q!r} outputs {self.output[q]!r}, outside the output alphabet")

    def transform(self, word: Iterable):
        """Output at the state reached by `word`; ValueError if the run dies."""
        q = self.run(word)
        if q is None:
            raise ValueError("output undefined: the run leaves the transition table")
        return self.output[q]

    def _sink_fields(self, sink) -> dict:
        out_alpha = self.output_alphabet
        if BOTTOM not in out_alpha:
            out_alpha += (BOTTOM,)
        return {"output": {**self.output, sink: BOTTOM}, "output_alphabet": out_alpha}

    def _renamed_fields(self, name: dict) -> dict:
        out = {name[q]: self.output[q] for q in name}
        return {"output": out, "output_alphabet": _outputs_in_use(self.output_alphabet, out.values())}

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
    """The machines read in parallel, each completed: their reachable tuples of states.

    The machines must share one ordered alphabet.  Returns the tuples in
    breadth-first alphabet order (the shortlex order of their least access
    words), the transitions between them, and each tuple's parent: the tuple
    and letter that first reached it (None at the start), for ``_access_word``.
    """
    for m in machines[1:]:
        _require_same_alphabet(machines[0], m)
    machines = [m.completed() for m in machines]
    alphabet = machines[0].alphabet.symbols
    # each state's successors in alphabet order: zipping the rows of the
    # current states gives the next tuple for every letter in turn
    succs = [{q: tuple(m.trans[(q, s)] for s in alphabet) for q in m.states} for m in machines]
    start = tuple(m.start for m in machines)
    order = [start]
    parent = {start: None}
    trans = {}
    for q in order:
        for s, nxt in zip(alphabet, zip(*[succ[p] for succ, p in zip(succs, q)])):
            trans[(q, s)] = nxt
            if nxt not in parent:
                parent[nxt] = (q, s)
                order.append(nxt)
    return order, trans, parent


def _access_word(parent: dict, q) -> Word:
    """The least word leading to `q`, read back along the parent links of ``_reachable_product``."""
    word = []
    while link := parent[q]:
        q, s = link
        word.append(s)
    return tuple(reversed(word))


def product(a: Dfa, b: Dfao) -> ProductMachine:
    """Reachable pair automaton of `a` and `b` (both completed first)."""
    cb = b.completed()  # its dead state's ``BOTTOM`` output is read here
    order, trans, _ = _reachable_product((a, cb))
    out = {pair: cb.output[pair[1]] for pair in order}
    out_alpha = _outputs_in_use(cb.output_alphabet, out.values())
    dfao = Dfao(a.alphabet, tuple(order), order[0], trans, out, out_alpha)
    return ProductMachine(dfao, frozenset(pair for pair in order if pair[0] in a.finals))


def _refine(states: Sequence, alphabet: OrderedAlphabet, trans: dict, label: dict) -> dict:
    """Coarsest partition of a total automaton refining `label`; returns state -> block id.

    `trans` must lead every state of `states` into `states`; blocks are
    numbered in order of first appearance in `states`.  Hopcroft's splitter
    loop on a refinable partition (Valmari, IPL 112(6), 2012), O(n·|Σ|·log n)
    on n states: block b holds ``elems[first[b]:end[b]]``, its states marked
    so far swapped to the front, ``elems[first[b]:mid[b]]``.  A partly marked
    block splits off its smaller part as a new block, in time linear in that
    part, and the new block becomes a splitter.
    """
    n = len(states)
    index = {q: i for i, q in enumerate(states)}
    pre = [[[] for _ in range(n)] for _ in alphabet]  # pre[a][i]: the states letter a leads to state i
    for rows, a in zip(pre, alphabet):
        for i, q in enumerate(states):
            rows[index[trans[(q, a)]]].append(i)
    ids = {}
    blk = [ids.setdefault(label[q], len(ids)) for q in states]  # each state's block
    elems = sorted(range(n), key=blk.__getitem__)
    loc, end = [0] * n, [0] * len(ids)  # loc: each state's position in elems
    for p, i in enumerate(elems):
        loc[i] = p
        end[blk[i]] = p + 1
    first = [0] + end[:-1]  # elems holds the blocks in order of their ids
    mid, splitters = first[:], list(range(len(ids)))
    while splitters:
        b = splitters.pop()
        members = elems[first[b] : end[b]]
        for rows in pre:
            touched = []
            for j in members:
                for i in rows[j]:
                    c, p = blk[i], loc[i]
                    m = mid[c]
                    if p >= m:  # unmarked: swap it to the end of the marked front
                        if m == first[c]:
                            touched.append(c)
                        k = elems[m]
                        elems[p], elems[m], loc[k], loc[i] = k, i, p, m
                        mid[c] = m + 1
            for c in touched:
                f, m, e = first[c], mid[c], end[c]
                if m == e:  # all marked: no split
                    mid[c] = f
                    continue
                if m - f <= e - m:  # the marked front is the smaller part
                    lo, hi, first[c] = f, m, m
                else:
                    lo, hi, end[c], mid[c] = m, e, m, f
                new = len(first)
                first.append(lo)
                mid.append(lo)
                end.append(hi)
                for p in range(lo, hi):
                    blk[elems[p]] = new
                splitters.append(new)
    ids = {}
    return {q: ids.setdefault(blk[i], len(ids)) for i, q in enumerate(states)}


def _quotient(m, label, missing):
    """Merge the reachable states of `m`, completed, that no word tells apart, canonically renumbered.

    States of the completion `c` merge when every word leads them to equal
    labels ``label(c)``.  The one block labelled `missing` that no letter
    leaves, complete `m` or not, is dropped unless it holds the start.
    """
    c = m.completed()
    block = _refine(c.reachable(), c.alphabet, c.trans, lab := label(c))
    blocks = dict.fromkeys(block.values())  # ids count up in BFS order, which is the quotient's BFS order
    closed = (b for q, b in block.items() if lab[q] == missing and all(block[c.trans[q, a]] == b for a in c.alphabet))
    if sink := next(closed, 0):  # blocks are stable, so one member shows it closed; block 0, the start's, stays
        del blocks[sink]
    name = {b: f"q{i}" for i, b in enumerate(blocks)}
    return c._renamed({q: name[b] for q, b in block.items() if b in name})


def minimize(a: Dfa) -> Dfa:
    """Minimal partial DFA for the language of `a`, canonically renumbered; dead states are the dropped block."""
    return _quotient(a, lambda c: {q: q in c.finals for q in c.states}, False)


def reduce_dfao(m: Dfao) -> Dfao:
    """Accessible DFAO merging states indistinguishable by future outputs.

    Two states merge exactly when every word leads them to equal outputs,
    missing transitions counting as ``BOTTOM``; states outputting it forever
    go, declared or not, unless one is the start.  Kept outputs are declared.
    """
    return _quotient(m, lambda c: c.output, BOTTOM)


def is_empty(a: Dfa) -> bool:
    return not (set(a.reachable()) & a.finals)


def is_infinite(a: Dfa) -> bool:
    """True iff `a` accepts infinitely many words: its start's growth class once trimmed is not finite."""
    t = a.trimmed()
    return _growth(t)[t.start] >= 0


def _growth(a: Dfa) -> dict:
    """How the words read from each state of a trimmed DFA grow with their length m.

    -1 if they are finitely many, d >= 0 if O(m^d) are of length m, ``inf``
    if exponentially many.  By Szilard, Yu, Zhang & Shallit (MFCS 1992) the
    growth is polynomial iff every strongly connected component reached is
    trivial or a single cycle, which it is iff it has no more inner edges
    than states; d + 1 is then the most cycles on one path.  Two searches
    (Kosaraju's) find the components sinks first: a post-order search of the
    reversed graph, then forward searches over the states not yet classed in
    reverse post-order, each of which meets exactly one component and, out
    of it, classed states only.  So each component's class follows from its
    inner edges and the classes it reaches.
    """
    if not a.finals:  # trimming keeps the start alone, dead
        return dict.fromkeys(a.states, -1)
    num = {q: i for i, q in enumerate(a.states)}
    nxt: list = [[] for _ in a.states]
    prv: list = [[] for _ in a.states]
    for (q, _a), q2 in a.trans.items():
        nxt[num[q]].append(num[q2])
        prv[num[q2]].append(num[q])
    n = len(nxt)
    # the first search pushes a state again as ~q, which comes off once its predecessors have
    order, seen, stack = [], [False] * n, list(range(n))
    while stack:
        q = stack.pop()
        if q < 0:
            order.append(~q)
        elif not seen[q]:
            seen[q] = True
            stack.append(~q)
            stack += prv[q]
    # by state number: class, None until its component is found; the second searches clear `seen`
    growth: list = [None] * n
    for top in reversed(order):
        if not seen[top]:
            continue
        seen[top], comp, inner, deg = False, [top], 0, -1
        for p in comp:  # grows by the states of top's component that the search meets
            for q2 in nxt[p]:
                g = growth[q2]
                if g is None:  # an inner edge
                    inner += 1
                    if seen[q2]:
                        seen[q2] = False
                        comp.append(q2)
                elif g > deg:
                    deg = g
        g = inf if inner > len(comp) else deg + (inner > 0)
        for p in comp:
            growth[p] = g
    return dict(zip(a.states, growth))


def distinguishing_word(a: Dfa, b: Dfa) -> Word | None:
    """Shortlex-least word accepted by exactly one of the two DFAs, or None."""
    order, _, parent = _reachable_product((a, b))
    for p, q in order:
        if (p in a.finals) != (q in b.finals):
            return _access_word(parent, (p, q))
    return None


def equivalent(a: Dfa, b: Dfa) -> bool:
    """True iff the two DFAs accept the same language (same ordered alphabet)."""
    return distinguishing_word(a, b) is None


def _boolean_product(a: Dfa, b: Dfa, keep) -> Dfa:
    order, trans, _ = _reachable_product((a, b))
    finals = frozenset(pq for pq in order if keep(pq[0] in a.finals, pq[1] in b.finals))
    p = Dfa(a.alphabet, tuple(order), order[0], finals, trans)
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
