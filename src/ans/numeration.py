"""Numeration systems built from an infinite regular language.

A system pairs a trimmed automaton for the language L with its ordered
alphabet; the n-th word of L in shortlex order (length first, then letter
order) represents the integer n, starting at n = 0.  Ranks are plain Python
integers, exact at any size, on words of at most ``MAX_LENGTH`` letters.

Counting tables u_q(m) = number of accepted words of length m readable from
state q are filled lazily and memoized, one length at a time, and each state
holds its successors' rows.  rep, val and ``AutomaticSequence.term`` read
those held rows along one word: val letter by letter, rep and term letter by
letter down to the first state where a run can start (polynomially or
finitely many words per length, and a loop on its least letter) and per run
from there, where such a loop is crossed by one bisection of that state's
row.  This module alone decides where the descent stops: ``_place`` picks
which of the two per-state ``_tables`` it reads, and on words of at least
``RUNS_FROM`` letters that is the one that stops it where a run can start.
rep and term share ``_place`` (with the rank check and the length bisection)
and ``_runs``; where rep descends states letter by letter, term descends
(language state, machine state) pairs whose rows mirror the picked table's
and hold the same count rows, and takes no machine transition there once a
pair's row is built.  Every shortlex listing of words (``enumerate``,
``words_from``) is one depth-first walk, ``_walk``, with one row memo: it
crosses each run of one-child nodes in one step, writes the words into one
buffer, and from a nonzero rank stacks the nodes on rep's path, building their
rows on the way back.  Every stream of outputs (machine sequences, a kernel
class's ``subsequence``, ``Substitution.generate``) is one ``_blocks`` stream,
whose path depends on how the words read from its root grow, which one pass
over the language's components gives every state when the system is built;
``ans kernel`` reads its terms from ``sequences.subsequences``.  From a root
with polynomially many words per length, ``_levels`` builds each length's
outputs from the last length's with the pair morphism of the paper's main
theorem.  From any other root a node with at most ``BLOCK`` words yields their
outputs as one tuple, memoized by the node and the state carried into it.
Instances never mutate their public state; concurrent readers either
tolerate the appends the cache performs or synchronize externally.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from math import inf
from typing import Iterator

from .automata import Dfa, OrderedAlphabet, Word, _growth
from .errors import AnsError, FiniteLanguageError, NotInLanguageError

BLOCK = 64  # a node with at most this many words yields their outputs as one tuple
MAX_LENGTH = 1 << 16  # the longest word that rep, term, val and enumerate's start read; streams are not bounded
MEMO_LETTERS = 1 << 16  # outputs and children a stream keeps in its memo; later ones are built but not kept
RUNS_FROM = 16  # shorter words are read letter by letter: over a*b* runs start to pay at about 13 letters


class NumerationSystem:
    """Shortlex rank/unrank machinery over an infinite regular language."""

    def __init__(self, language: Dfa):
        lang = language.trimmed()
        # by state: -1, d >= 0 or inf as its words of length m are finitely many, O(m^d) or exponentially many
        self._growth: dict = _growth(lang)
        if self._growth[lang.start] < 0:
            raise FiniteLanguageError(
                "the language is finite or empty; a numeration system needs infinitely many words"
            )
        self.language = lang
        self.alphabet: OrderedAlphabet = lang.alphabet
        self._counts: dict = {q: [1 if q in lang.finals else 0] for q in lang.states}
        self._cum = [0, self._counts[lang.start][0]]  # _cum[m] counts the accepted words shorter than m
        # by source state, in alphabet order: (letter, successor, the successor's count row); the
        # rows are the tables' own lists, which only grow by appending, so what holds them stays valid
        self._succ: dict = {
            q: tuple((a, q2, self._counts[q2]) for a in lang.alphabet if (q2 := lang.trans.get((q, a))) is not None)
            for q in lang.states
        }
        # the two per-state tables that the letter-by-letter descent reads, as _place picks: _succ,
        # and _succ but () where a run can start (polynomially or finitely many words per length,
        # and a loop on the least letter), where the descent stops and _runs spells the rest
        wide = {q: () if succ and succ[0][1] == q and self._growth[q] < inf else succ
                for q, succ in self._succ.items()}
        self._tables = (self._succ, wide)
        self._fill = [(self._counts[q], [r for _a, _q, r in succ]) for q, succ in self._succ.items()]

    # -- counting ---------------------------------------------------------

    def _ensure(self, length: int, rank: int = -1):
        """Fill the tables through `length`, and on to the first length that covers `rank`, up to ``MAX_LENGTH``.

        A length m covers `rank` when more than `rank` words are no longer than m.  A
        length costs one list sum per state, over the rows of its successors that
        ``_fill`` holds.
        """
        cum, start = self._cum, self._counts[self.language.start]
        m = len(cum) - 2  # the longest length that every row holds
        while m < length or (cum[-1] <= rank and m < MAX_LENGTH):
            for row, rows in self._fill:
                row.append(sum([r[m] for r in rows]))
            m += 1
            cum.append(cum[-1] + start[m])

    def count_words(self, length: int) -> int:
        """Number of accepted words of exactly the given length."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        self._ensure(length)
        return self._counts[self.language.start][length]

    # -- rank / unrank ----------------------------------------------------

    def rep(self, n: int) -> Word:
        """The word of rank n: the (n+1)-th word of L in shortlex order.

        Each letter is the first successor whose held row counts more than the rank left, in
        the table that ``_place`` picks.  On a word of at least ``RUNS_FROM`` letters that
        table stops the descent at the first state where a run can start, and ``_runs``
        spells the rest.
        """
        length, n, tab = self._place(n)
        q, letters, succ = self.language.start, [], self._tables[tab]
        for rest in range(length - 1, -1, -1):
            for a, q, row in succ[q]:
                if n < row[rest]:
                    break
                n -= row[rest]
            else:  # q is the first state where a run can start
                break
            letters.append(a)
        else:
            return tuple(letters)
        for a, k in self._runs(q, rest, n):
            letters += [a] * k
        return tuple(letters)

    def _place(self, n: int) -> tuple[int, int, bool]:
        """The length of rep(n), n's rank among the words of that length, and which of
        ``_tables`` the descent to rep(n) reads: the one that stops where a run can start
        from ``RUNS_FROM`` letters on.

        Checks the rank and fills the tables on to the first length that covers it, up to ``MAX_LENGTH``.
        """
        if n < 0:
            raise ValueError("ranks are nonnegative")
        if self._cum[-1] <= n:  # the tables stop short of rank n
            self._ensure(0, n)
        length = bisect_right(self._cum, n) - 1
        if length > MAX_LENGTH:
            raise self._too_long(f"the word of rank {n}")
        return length, n - self._cum[length], length >= RUNS_FROM

    def _runs(self, q, rest: int, n: int) -> list:
        """The last rest + 1 letters of a word, as runs (letter, k): those of rank n among the
        words of that length read from q, a state where a run can start or any state after one.

        q and the states after it have polynomially or finitely many words per length, and where
        a state's least letter loops on it, the state's row never decreases with the length, so
        the rank stays under it down to the length that one bisection of the row finds.
        Every other step (a loop taken once, a loop on a later letter, a cycle of more than
        one letter) is a run of one letter.
        """
        succ, runs = self._succ, []
        while rest >= 0:  # the letters left after the one chosen now
            step = succ[q]
            a, q2, row = step[0]
            if q2 == q and rest and n < row[rest - 1]:  # a loop on q's least letter, taken twice or more
                i = bisect_right(row, n, 0, rest)  # the rank stays under q's row down to length i
                runs.append((a, rest + 1 - i))
                rest = i - 1
                if rest < 0:
                    break
            for a, q, row in step:
                if n < row[rest]:
                    break
                n -= row[rest]
            else:  # pragma: no cover - counts guarantee a branch is taken
                raise AssertionError("count tables out of sync")
            runs.append((a, 1))
            rest -= 1
        return runs

    def val(self, word) -> int:
        """Rank of an accepted word; raises NotInLanguageError otherwise."""
        rank, q = self._least_rank(tuple(word), 0)
        if q not in self.language.finals:
            raise NotInLanguageError("word is a proper prefix of the language: it ends in a non-final state")
        return rank

    def _least_rank(self, word: Word, extra: int) -> tuple[int, object]:
        """Rank of the least word of len(word) + extra letters starting with `word`, and run(word).

        Such words are one run in shortlex order: `word` z ranks z's index among them past it.
        """
        length = len(word) + extra
        if length > MAX_LENGTH:
            raise self._too_long(f"a word of {length} letters")
        self._ensure(length)
        rank, q, succ = self._cum[length], self.language.start, self._succ
        for i, a in enumerate(word):
            rest = length - i - 1
            for b, q2, row in succ[q]:
                if b == a:
                    break
                rank += row[rest]
            else:
                if a not in self.alphabet:
                    raise NotInLanguageError(f"symbol {a!r} at position {i + 1} is not in the alphabet")
                raise NotInLanguageError(
                    f"word leaves the language at position {i + 1} (no accepted continuation)"
                )
            q = q2
        return rank, q

    def _too_long(self, word: str) -> AnsError:
        per = "exponentially many" if (g := self._growth[self.language.start]) == inf else f"O(m^{g})"
        return AnsError(f"{word} exceeds the {MAX_LENGTH}-letter limit (the language has {per} words of length m)")

    # -- enumeration ------------------------------------------------------

    def enumerate(self, start_rank: int = 0) -> Iterator[Word]:
        """Lazily yield accepted words in shortlex order from a given rank."""
        return self._walk(self.language.start, start_rank)

    def words_from(self, state) -> Iterator[Word]:
        """Shortlex stream of accepted words readable from `state`."""
        return self._walk(state)

    def _lengths(self, root, m: int = -1) -> Iterator[int]:
        """The lengths past m of the words read from `root`, one tree each.

        Accepted lengths from a live state are at most #states apart, so
        #states + 1 empty lengths in a row end them.
        """
        row, last = self._counts[root], m
        while m - last <= len(self.language.states):
            m += 1
            self._ensure(m)
            if row[m]:
                last = m
                yield m

    def _walk(self, root, start: int = 0) -> Iterator[Word]:
        """Depth-first shortlex walk over the words read from `root`, from rank `start`.

        Nodes are (state, remaining length) pairs, one tree per length; only
        live children, those with a nonzero count, are entered.  A stacked
        level holds a branching node's children left, each followed through
        its one-child chain, whose letters it writes into the tree's word
        buffer; a leaf yields the buffer.  The bottom level's children are
        the trees' roots.  From a nonzero rank `start` (`root` is then the
        start state) the walk yields rep(start), then stacks a level for each
        node on its path with a live child after the word's letter, which
        builds the node's row only when the walk comes back to it.
        """
        succ, kids, again, kept = self._succ, {}, set(), 0

        # branching (state, remaining length) -> its live children, as chains.  Later trees meet a node
        # again only if a cycle precedes its state on the path from the root, as it does once the state is
        # #states deep: a tree of #states letters or more keeps only their rows, checking those built since the last.
        def branches(q, r):
            if m - r >= len(succ):
                again.add(q)
            row = kids[q, r] = []
            for a, q2, held in [k for k in succ[q] if k[2][r - 1]]:
                letters, r2 = [a], r - 1
                while r2:  # follow the chain while one live child holds all the node's words
                    for b, q3, held3 in succ[q2]:
                        if held3[r2 - 1]:
                            break
                    if held3[r2 - 1] < held[r2]:
                        break
                    letters.append(b)
                    q2, r2, held = q3, r2 - 1, held3
                row.append((tuple(letters), q2, r2))  # (letters, end state, end remaining length)
            return row

        def trees(last):  # the trees longer than `last`, each root yielded as its tree starts
            nonlocal m, buf, kept
            for m in self._lengths(root, last):
                if m >= len(succ):
                    for key in [key for key in islice(kids, kept, None) if key[0] not in again]:
                        del kids[key]
                    kept = len(kids)
                buf = [None] * m
                yield (), root, m

        def after(q, r, a):  # the live children of the node (q, r) after its child on `a`
            row = kids.get((q, r)) or branches(q, r)
            yield from row[[k[0][0] for k in row].index(a) + 1 :]

        stack = [(trees(-1), 0)]  # per stacked level: its children left and its remaining length
        if start:
            word = self.rep(start)
            yield word
            m, buf, q, stack = len(word), list(word), root, [(trees(len(word)), 0)]
            for r, a in zip(range(m, 0, -1), word):
                step = succ[q]
                j = [k[0] for k in step].index(a)
                if any(k[2][r - 1] for k in step[j + 1 :]):
                    stack.append((after(q, r, a), r))
                q = step[j][1]
        while stack:
            it, r0 = stack[-1]
            for letters, q, r in it:
                buf[m - r0 : m - r] = letters
                if r:
                    stack.append((iter(kids.get((q, r)) or branches(q, r)), r))
                    break
                yield tuple(buf)
            else:
                stack.pop()

    def _blocks(self, root, step: dict, carried, out) -> Iterator[tuple]:
        """The outputs on the words read from `root`, in shortlex order, in tuples.

        A word's output is out[c], c the state that a second transition map
        `step`, defined on every letter read, reaches on it from `carried`.
        From a root whose words grow polynomially, ``_levels`` yields one
        length's outputs at a time.  From a finite or exponential root, the
        stack holds (state, remaining length, carried state) nodes of more
        than ``BLOCK`` words, and a smaller node yields the tuple of its
        words' outputs.  By the paper's main theorem the sequence is the
        coded fixed point of a morphism on (language state, carried state)
        pairs, so what a node yields depends on those three only.  Blocks
        are built from their children's blocks, and both they and a stacked
        node's children are memoized by the node, up to ``MEMO_LETTERS``
        outputs and children per stream; a tree's root is met once and not
        kept.  ``run`` follows a child down its one-child run, letter by
        letter, to a leaf or a branching node, whose count is smaller, so
        the recursion is at most ``BLOCK`` deep.  A run thus costs its
        length: from a polynomial root most words would sit at the end of
        one, which is why those roots take the level path.
        """
        if 0 <= self._growth[root] < inf:
            yield from self._levels(root, step, carried, out)
            return
        counts, succ = self._counts, self._succ
        # (state, remaining length, carried state) of a branching node -> the
        # outputs of its words if they are at most BLOCK, else its children
        memo, room = {}, MEMO_LETTERS

        def run(q, r, c):
            """The end of the one-child run down from the live node (q, r), entered at `c`."""
            while r:
                for a, q2, held in succ[q]:
                    if held[r - 1]:
                        break
                if held[r - 1] < counts[q][r]:
                    break
                q, r, c = q2, r - 1, step[(c, a)]
            return q, r, c

        def block(q, r, c):
            """The outputs on the words of length r from the live node (q, r), entered at `c`."""
            nonlocal room
            q, r, c = run(q, r, c)
            if not r:
                return (out[c],)
            got = memo.get((q, r, c))
            if got is None:
                got = ()
                for a, q2, held in succ[q]:
                    if held[r - 1]:
                        c2 = step[(c, a)]
                        got += (out[c2],) if r == 1 else (memo.get((q2, r - 1, c2)) or block(q2, r - 1, c2))
                if len(got) <= room and r < m:  # a tree's root is met once
                    room -= len(got)
                    memo[q, r, c] = got
            return got

        for m in self._lengths(root):
            stack = [iter(((root, m, carried),))]  # the root, as a one-child bottom level
            while stack:
                for q, r, c in stack[-1]:
                    if r and counts[q][r] > BLOCK:
                        kids = memo.get((q, r, c))
                        if kids is None:
                            kids = tuple(run(q2, r - 1, step[(c, a)]) for a, q2, held in succ[q] if held[r - 1])
                            if len(kids) <= room and r < m:
                                room -= len(kids)
                                memo[q, r, c] = kids
                        stack.append(iter(kids))
                        break
                    yield memo.get((q, r, c)) or block(q, r, c)
                else:
                    stack.pop()

    def _levels(self, root, step, carried, out) -> Iterator[tuple]:
        """``_blocks`` from a root whose words grow polynomially: one length's outputs at a time.

        The outputs on the words of length r read from a pair x = (language
        state, carried state) are those of x's successors at length r - 1,
        joined in letter order: the pair morphism of the paper's main
        theorem, applied to whole length slices.  The pairs reachable from
        (root, carried) are found once.  Each length is then one tuple
        concatenation per pair, at C speed, and the root's slice is yielded
        unless it is empty.  A length r holds Σ_x count(x, r) outputs over
        those pairs x; while the next length is built, its outputs are held
        too, and the partial join of one pair.  From an exponential root
        most of those outputs are never yielded, and from a finite one the
        stream would never end: both take the block path.
        """
        succ, finals, start = self._succ, self.language.finals, (root, carried)
        pairs, kids = [start], {start: ()}  # pair -> its successor pairs, in letter order
        for x in pairs:
            q, c = x
            kids[x] = row = tuple((q2, step[(c, a)]) for a, q2, _row in succ[q])
            for y in row:
                if y not in kids:
                    kids[y] = ()
                    pairs.append(y)
        rows = tuple(kids.items())
        level = {x: (out[x[1]],) if x[0] in finals else () for x in pairs}
        while True:
            if level[start]:
                yield level[start]
            get = level.__getitem__
            level = {x: sum(map(get, row), ()) for x, row in rows}
