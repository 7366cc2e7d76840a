"""Sequences read off a numeration system by a finite-state output machine.

The n-th term is the machine's output on the n-th word of the language in
shortlex order.  Besides evaluation and streaming, this module converts both
ways between three presentations of such a sequence:

* per-symbol fibers — the regular languages of representations sharing one
  output value (``fiber`` / ``dfao_from_fibers``);
* the kernel — the finitely many "suffix subsequences" obtained by fixing a
  prefix of the representation (``kernel``; ``subsequence`` streams one, and
  ``subsequences`` reads the first terms of them all in one pass), with a
  learner that rebuilds a machine from any black-box term function whose
  kernel is finite (``dfao_from_kernel``);
* occurrence statistics of output factors (``occurrence_gaps``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain, count, groupby, islice
from typing import Callable, Hashable, Iterable, Iterator

from .automata import (
    BOTTOM,
    Dfa,
    Dfao,
    Word,
    _access_word,
    _reachable_product,
    _refine,
    _require_same_alphabet,
    intersect,
    minimize,
)
from .errors import AnsError, KernelBoundError, PartitionError
from .numeration import NumerationSystem

SequenceStream = Iterator
# a pair's row where its language state's row in ``NumerationSystem._tables`` is empty, as it is
# where a run can start: true, so that term takes it as built, and empty (an exhausted
# iterator), so that term's letter-by-letter descent stops at that pair
_STOP = iter(())


def _outputs(system: NumerationSystem, complete: Dfao, prefix: Word = ()) -> SequenceStream:
    """Outputs of a complete machine on the accepted words `prefix` z, in shortlex order of z.

    No word is built: ``NumerationSystem._blocks`` yields the outputs in
    tuples, and the stream flattens them.  If the words read after `prefix`
    grow polynomially, each tuple is one length's outputs, built from the
    last length's by the morphism on (language state, machine state) pairs.
    Otherwise the walk carries the machine's state down the tree and yields
    one tuple per node of at most ``BLOCK`` words, memoized by the node and
    the machine's state on entering it.
    """
    root = system.language.run(prefix)
    if root is None:
        return iter(())
    return chain.from_iterable(system._blocks(root, complete.trans, complete.run(prefix), complete.output))


def sequence(system: NumerationSystem, machine: Dfao) -> SequenceStream:
    """Lazily yield the sequence of machine outputs over all ranks 0, 1, 2, …"""
    return AutomaticSequence(system, machine).stream()


def take(stream: Iterable, n: int) -> tuple:
    """First `n` items of a stream (fewer if it ends early)."""
    return tuple(islice(stream, n))


@dataclass(frozen=True)
class AutomaticSequence:
    """A sequence given by a numeration system and an output machine."""

    system: NumerationSystem
    machine: Dfao
    output_alphabet: tuple = field(init=False)  # the stream's symbols: the machine's, plus ⊥ if partial
    _complete: Dfao = field(init=False, repr=False, compare=False)  # completed once, for every walk
    _powers: dict = field(init=False, repr=False, compare=False)  # letter -> {state: its place on the letter's cycle}
    # (language state, completed-machine state) pairs that term has named: pair -> its number,
    # and by number the pair and, for each of ``NumerationSystem._tables``, its row in that
    # table's mirror; a row is None until term first visits its pair there
    _number: dict = field(init=False, repr=False, compare=False)
    _pairs: list = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_same_alphabet(self.system, self.machine)
        object.__setattr__(self, "_complete", self.machine.completed())
        object.__setattr__(self, "output_alphabet", self._complete.output_alphabet)
        object.__setattr__(self, "_powers", {a: {} for a in self.system.alphabet})
        start = (self.system.language.start, self._complete.start)
        object.__setattr__(self, "_number", {start: 0})
        object.__setattr__(self, "_pairs", [start])
        object.__setattr__(self, "_rows", ([None], [None]))

    def term(self, n: int):
        """The output at rank `n` (the machine run on the n-th word), ``⊥`` where the run dies.

        No word is built and neither ``rep`` nor ``Dfao.transform`` is called.  Where rep's
        descent reads letter by letter, term descends numbered (language state, completed-
        machine state) pairs instead, in the mirror of the table that ``_place`` picks for
        rep: a pair's row holds, per letter, the successor pair's number and the language's
        own count row, so a letter costs one list index and one count comparison per letter
        tried, and the machine state rides in the pair number.  A row is built the first
        time term visits its pair, one transition per letter.  Where the descent stops, as
        rep's does, at the first state where a run can start, the machine reads the runs of
        ``NumerationSystem._runs`` from the pair's machine state: one transition per letter,
        but a run a^k at least as long as the machine has states at once, through the
        ρ-shape of a: k letters from any state end on a's cycle.
        """
        length, n, tab = self.system._place(n)
        rows = self._rows[tab]
        p = 0  # the start pair
        for rest in range(length - 1, -1, -1):
            for p, held in rows[p] or self._row(p, tab):
                if n < held[rest]:
                    break
                n -= held[rest]
            else:  # p's language state is the first where a run can start
                break
        else:
            return self._complete.output[self._pairs[p][1]]
        q, c = self._pairs[p]
        trans = self._complete.trans
        for a, k in self.system._runs(q, rest, n):
            if k == 1:
                c = trans[c, a]
            elif k < len(self._complete.states):
                for _ in range(k):
                    c = trans[c, a]
            else:
                cycle, j = self._powers[a].get(c) or self._rho(a, c)
                c = cycle[(k + j) % len(cycle)]
        return self._complete.output[c]

    def _row(self, p: int, tab: int) -> Iterable:
        """Pair p's row in ``_rows[tab]``, built on term's first visit from its language
        state's row in ``NumerationSystem._tables[tab]``.

        Per letter in that row, in alphabet order: (the successor pair's number, the
        successor state's count row).  The rows are the system's own, so no second table is
        filled, and a successor is numbered when first named.  Where that row is empty, as
        where a run can start on long words, the pair's row is ``_STOP``, where term's
        letter-by-letter descent stops.
        """
        q, c = self._pairs[p]
        number, pairs, trans, row = self._number, self._pairs, self._complete.trans, []
        for a, q2, held in self.system._tables[tab][q]:
            x = (q2, trans[c, a])
            if x not in number:
                number[x] = len(pairs)
                pairs.append(x)
                for rows in self._rows:
                    rows.append(None)
            row.append((number[x], held))
        self._rows[tab][p] = row = tuple(row) or _STOP
        return row

    def _rho(self, a, c) -> tuple:
        """Where state c sits on the ρ-shape of letter a: (cycle, j) such that a^k leads
        from c to cycle[(k + j) % len(cycle)] for every k >= #states.

        Found by reading a from c up to a state already placed, or around a new cycle,
        and kept in ``_powers`` for every state read: at most one entry per state and letter.
        """
        trans, shape, path, on = self._complete.trans, self._powers[a], [], {}
        x = c
        while x not in shape and x not in on:
            on[x] = len(path)
            path.append(x)
            x = trans[x, a]
        if x not in shape:  # the path closed a new cycle at x
            i = on[x]
            cycle = tuple(path[i:])
            shape.update((y, (cycle, j)) for j, y in enumerate(cycle))
            del path[i:]
        for y in reversed(path):  # the tail into it
            cycle, j = shape[trans[y, a]]
            shape[y] = (cycle, j - 1)
        return shape[c]

    def stream(self) -> SequenceStream:
        return _outputs(self.system, self._complete)

    def prefix(self, n: int) -> tuple:
        return take(self.stream(), n)


def fiber(u: AutomaticSequence, a) -> Dfa:
    """Minimal DFA for the representations whose output is `a` (``⊥`` where the run dies)."""
    if a not in u.output_alphabet:
        raise AnsError(f"symbol {a!r} is not in the output alphabet")
    return minimize(intersect(u._complete.as_acceptor({a}), u.system.language))


def dfao_from_fibers(system: NumerationSystem, fibers: dict) -> Dfao:
    """Rebuild an output machine from one representation language per symbol.

    The languages must partition the system's language: any overlap or any
    uncovered word raises PartitionError naming a witness.  States of the
    result are reachable tuples of per-fiber states; a tuple accepted by
    exactly one fiber outputs that fiber's symbol, and tuples reached only
    by words outside the language output the placeholder "⊥".

    One product of the language with every fiber finds both kinds of
    witness: the least overlapping pair of fibers, in the order given, and
    the shortlex-least word on which the fibers' union and the language
    disagree (the first such tuple in breadth-first order).
    """
    symbols = tuple(fibers)
    if not symbols:
        raise PartitionError("no fibers given")
    lang = system.language
    parts = [fibers[a] for a in symbols]
    order, trans, parent = _reachable_product([lang, *parts])
    out = {}
    overlap = gap = None
    for q in order:
        hits = [i for i, (p, f) in enumerate(zip(q[1:], parts)) if p in f.finals]
        if len(hits) > 1 and (overlap is None or hits[:2] < overlap):
            overlap = hits[:2]
        if gap is None and bool(hits) != (q[0] in lang.finals):
            gap = _access_word(parent, q)
        out.setdefault(q[1:], symbols[hits[0]] if hits else BOTTOM)
    if overlap is not None:
        raise PartitionError(f"fibers for {symbols[overlap[0]]!r} and {symbols[overlap[1]]!r} overlap")
    if gap is not None:
        label = "".join(map(str, gap)) if gap else "the empty word"
        raise PartitionError(
            f"fibers do not cover the language exactly: {label} separates their "
            "union from it"
        )
    # project onto the fiber coordinates: where a tuple of fiber states
    # leads does not depend on the language's state beside it, and the
    # projections' first appearances in `order` are their own BFS order
    name = {p: f"q{i}" for i, p in enumerate(out)}
    out_alpha = symbols if BOTTOM in symbols or BOTTOM not in out.values() else symbols + (BOTTOM,)
    machine = Dfao(system.alphabet, tuple(order), order[0], trans, {q: out[q[1:]] for q in order}, out_alpha)
    return machine._renamed({q: name[q[1:]] for q in order}, output_alphabet=out_alpha)


@dataclass(frozen=True)
class KernelClass:
    """One class of prefixes inducing the same suffix subsequence.

    `representative_prefix` is the shortlex-least member; `empty` flags
    prefixes that no word of the language extends.
    """

    class_id: int
    representative_prefix: Word
    empty: bool


def kernel(u: AutomaticSequence) -> tuple[KernelClass, ...]:
    """All distinct suffix subsequences of `u`, one class each.

    Two prefixes w, w' are identified when they admit the same accepted
    continuations and the machine outputs agree on all of them — decided
    exactly, by partition refinement over the pair automaton of the
    language and the completed machine (outputs masked at non-accepting
    language states, where they can never be observed).  The classes are a
    property of the sequence, so any automata recognizing it give the same
    ones, with the same least members.
    """
    lang, mach = u.system.language, u._complete
    alive = lang.coaccessible()
    pairs, trans, parent = _reachable_product((lang, mach))
    label = {(ql, qm): (True, mach.output[qm]) if ql in lang.finals else (False, None) for ql, qm in pairs}
    block = _refine(pairs, u.system.alphabet, trans, label)
    # blocks in order of their first pair, whose access word is the least
    first = {}
    for q in pairs:
        first.setdefault(block[q], q)
    return tuple(KernelClass(i, _access_word(parent, q), q[0] not in alive) for i, q in enumerate(first.values()))


def subsequence(u: AutomaticSequence, k: KernelClass) -> SequenceStream:
    """Terms of `u` at ranks whose representation extends the class prefix.

    Continuations are enumerated shortlex; the stream is finite or empty
    when the prefix admits few or no accepted extensions.
    """
    return _outputs(u.system, u._complete, k.representative_prefix)


def subsequences(u: AutomaticSequence, classes: Iterable[KernelClass], n: int) -> list[list]:
    """The first `n` terms of ``subsequence(u, k)`` for each class k, in order; fewer where it ends.

    One pass of the pair morphism serves every class: the (language state, completed-machine
    state) pairs reachable from the classes' prefixes are numbered, each with its successors'
    numbers in letter order, and a pair's level at length m, its first `n` outputs there, is its
    successors' levels at m - 1 joined and cut to `n`.  Each class reads its root's level until it
    has `n` terms, or up to #states - 1 letters from a state with finitely many words.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    system, mach, lang, number, pairs, rows = u.system, u._complete, u.system.language, {}, [], []

    def numbered(x) -> int:
        if (i := number.setdefault(x, len(pairs))) == len(pairs):
            pairs.append(x)
        return i

    roots = [None if (q := lang.run(w := k.representative_prefix)) is None else numbered((q, mach.run(w)))
             for k in classes]
    for q, c in pairs:  # pairs grows while it is read
        rows.append([numbered((q2, mach.trans[c, a])) for a, q2, _row in system._succ[q]])
    terms, last = [[] for _ in roots], len(lang.states) - 1
    short = [(t, r, system._growth[pairs[r][0]] < 0) for t, r in zip(terms, roots) if r is not None and n]
    level = [(mach.output[c],) if q in lang.finals else () for q, c in pairs]
    for m in count():
        for t, r, finite in short:
            t += level[r][: n - len(t)]
        short = [(t, r, finite) for t, r, finite in short if len(t) < n and not (finite and m >= last)]
        if not short:
            return terms
        level = [sum(map(level.__getitem__, row), ())[:n] for row in rows]


def dfao_from_kernel(term: Callable[[int], Hashable], system: NumerationSystem, bound: int) -> Dfao:
    """Learn an output machine for a black-box term function.

    Prefixes are explored breadth-first and identified when they agree on
    their first `bound` accepted continuations (the continuation words and
    the terms at them).  More than `bound` distinct classes, or a rebuilt
    machine that fails to reproduce the first `bound` terms (asked of `term`
    again: a guard against answers that change between calls), raises
    KernelBoundError: the sequence is not recognized within this bound.
    Signatures share ranks (the word w s z continues both w and w s), and
    each rank is asked of `term` once for them.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    lang, conts, at = system.language, {}, cache(term)  # at: term, asked once per rank by the signatures

    def signature(w: Word) -> tuple:
        q = lang.run(w)
        if q is None:
            return ()
        if q not in conts:  # q's first `bound` continuations, in runs of one length
            conts[q] = [(n, tuple(zs)) for n, zs in groupby(islice(system.words_from(q), bound), len)]
        sig = []
        for n, zs in conts[q]:  # w z ranks z's index in its run past the least word w z' with |z'| = n
            first = system._least_rank(w, n)[0]
            sig += [(z, at(first + j)) for j, z in enumerate(zs)]
        return tuple(sig)

    index = {signature(()): 0}  # class by signature, in order of discovery
    reps: list[Word] = [()]
    trans = {}
    for ci, w in enumerate(reps):  # breadth first: reps grows while it is read
        for s in system.alphabet:
            w2 = w + (s,)
            sig = signature(w2)
            if sig not in index:
                if len(reps) == bound:
                    raise KernelBoundError(
                        f"not recognized within bound: more than {bound} "
                        f"prefix classes at {''.join(map(str, w2))!r}"
                    )
                index[sig] = len(reps)
                reps.append(w2)
            trans[(f"q{ci}", s)] = f"q{index[sig]}"

    states = tuple(f"q{i}" for i in range(len(reps)))
    out = {q: sig[0][1] if sig and sig[0][0] == () else BOTTOM for q, sig in zip(states, index)}
    used = tuple(sorted(dict.fromkeys(out.values()), key=lambda x: x == BOTTOM))  # first appearance, ⊥ last
    machine = Dfao(system.alphabet, states, states[0], trans, out, used)

    for n, got in enumerate(take(sequence(system, machine), bound)):
        if got != term(n):
            raise KernelBoundError(
                f"not recognized within bound: reconstruction disagrees with "
                f"the term function at rank {n}"
            )
    return machine


@dataclass(frozen=True)
class GapReport:
    """Occurrence positions of a factor and the differences between them."""

    positions: tuple[int, ...]
    gaps: tuple[int, ...]


def occurrence_gaps(stream: Iterable, factor, horizon: int) -> GapReport:
    """Where a factor occurs among the first `horizon` terms of a stream.

    Positions are 0-based starts; gaps are the successive differences.
    """
    fact = tuple(factor)
    if not fact:
        raise ValueError("factor must be nonempty")
    if horizon < len(fact):
        raise ValueError("horizon is shorter than the factor")
    terms = list(islice(stream, horizon))
    positions = tuple(
        i
        for i in range(len(terms) - len(fact) + 1)
        if tuple(terms[i : i + len(fact)]) == fact
    )
    gaps = tuple(b - a for a, b in zip(positions, positions[1:]))
    return GapReport(positions, gaps)
