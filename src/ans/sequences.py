"""Sequences read off a numeration system by a finite-state output machine.

The n-th term is the machine's output on the n-th word of the language in
shortlex order.  Besides evaluation and streaming, this module converts both
ways between three presentations of such a sequence:

* per-symbol fibers — the regular languages of representations sharing one
  output value (``fiber`` / ``dfao_from_fibers``);
* the kernel — the finitely many "suffix subsequences" obtained by fixing a
  prefix of the representation (``kernel`` / ``subsequence``), together with
  a learner that rebuilds a machine from any black-box term function whose
  kernel is finite (``dfao_from_kernel``);
* occurrence statistics of output factors (``occurrence_gaps``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, groupby, islice
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


def _outputs(system: NumerationSystem, complete: Dfao, prefix: Word = ()) -> SequenceStream:
    """Outputs of a complete machine on the accepted words `prefix` z, in shortlex order of z.

    The walk carries the machine's state down the tree and across each
    one-child chain in one step, and no word is built.  It yields the
    outputs in blocks, one tuple per node of at most ``BLOCK`` words,
    memoized by the node and the machine's state on entering it
    (``NumerationSystem._walk``), and the stream flattens them.
    """
    root = system.language.run(prefix)
    if root is None:
        return iter(())
    return chain.from_iterable(system._walk(root, complete.trans, complete.run(prefix), out=complete.output))


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

    def __post_init__(self):
        _require_same_alphabet(self.system, self.machine)
        object.__setattr__(self, "_complete", self.machine.completed())
        object.__setattr__(self, "output_alphabet", self._complete.output_alphabet)

    def term(self, n: int):
        """The output at rank `n` (the machine run on the n-th word), ``⊥`` where the run dies.

        The completed machine reads the letters that rep's descent lists; no tuple is built
        and neither ``rep`` nor ``Dfao.transform`` is called.
        """
        trans, c = self._complete.trans, self._complete.start
        for a in self.system._letters(n):
            c = trans[c, a]
        return self._complete.output[c]

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


def dfao_from_kernel(term: Callable[[int], Hashable], system: NumerationSystem, bound: int) -> Dfao:
    """Learn an output machine for a black-box term function.

    Prefixes are explored breadth-first and identified when they agree on
    their first `bound` accepted continuations (the continuation words and
    the terms at them).  More than `bound` distinct classes, or a rebuilt
    machine that fails to reproduce the first `bound` terms (asked of `term`
    again: a guard against answers that change between calls), raises
    KernelBoundError: the sequence is not recognized within this bound.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    lang, conts = system.language, {}

    def signature(w: Word) -> tuple:
        q = lang.run(w)
        if q is None:
            return ()
        if q not in conts:  # q's first `bound` continuations, in runs of one length
            conts[q] = [(n, tuple(zs)) for n, zs in groupby(islice(system.words_from(q), bound), len)]
        sig = []
        for n, zs in conts[q]:  # w z ranks z's index in its run past the least word w z' with |z'| = n
            first = system._least_rank(w, n)[0]
            sig += [(z, term(first + j)) for j, z in enumerate(zs)]
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
