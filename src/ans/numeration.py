"""Numeration systems built from an infinite regular language.

A system pairs a trimmed automaton for the language L with its ordered
alphabet; the n-th word of L in shortlex order (length first, then letter
order) represents the integer n, starting at n = 0.  Ranks are plain Python
integers, so arbitrarily large values are exact.

Counting tables u_q(m) = number of accepted words of length m readable from
state q are filled lazily and memoized, one length at a time, and each state
holds its successors' rows.  rep, val and ``AutomaticSequence.term`` read
those held rows along one word; every shortlex listing (words, machine
sequences, kernel subsequences, ``Substitution.generate``) is one
depth-first walk, ``_walk``, that enters only subtrees with a nonzero count
and crosses each run of one-child nodes in one step.  Listings of words
read it leaf by leaf; listings of outputs read it in blocks: a node with at
most ``BLOCK`` words yields all their outputs as one tuple, memoized by the
node and the state carried into it.
Instances never mutate their public state; concurrent readers either
tolerate the appends the cache performs or synchronize externally.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

from .automata import Dfa, OrderedAlphabet, Word, is_infinite
from .errors import FiniteLanguageError, NotInLanguageError

BLOCK = 64  # a node with at most this many words yields their outputs as one tuple
MEMO_LETTERS = 1 << 16  # outputs a walk keeps in memoized blocks; later blocks are built but not kept
STRIDE = 32  # one-child runs keep where they end at the lengths that this divides


class NumerationSystem:
    """Shortlex rank/unrank machinery over an infinite regular language."""

    def __init__(self, language: Dfa):
        lang = language.trimmed()
        if not is_infinite(lang):
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
        self._fill = [(self._counts[q], [r for _a, _q, r in succ]) for q, succ in self._succ.items()]

    # -- counting ---------------------------------------------------------

    def _ensure(self, length: int, rank: int = -1):
        """Fill the tables through `length`, and on to the first length that covers `rank`.

        A length m covers `rank` when more than `rank` words are no longer than m.  A
        length costs one list sum per state, over the rows of its successors that
        ``_fill`` holds.
        """
        cum, start = self._cum, self._counts[self.language.start]
        m = len(cum) - 2  # the longest length that every row holds
        while m < length or cum[-1] <= rank:
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
        """The word of rank n: the (n+1)-th word of L in shortlex order."""
        return tuple(self._letters(n))

    def _letters(self, n: int) -> list:
        """The letters of rep(n): each the first successor whose held row counts more than the rank left."""
        if n < 0:
            raise ValueError("ranks are nonnegative")
        self._ensure(0, n)
        length = bisect_right(self._cum, n) - 1
        n -= self._cum[length]
        q, succ, out = self.language.start, self._succ, []
        for rest in range(length - 1, -1, -1):
            for a, q, row in succ[q]:
                if n < row[rest]:
                    break
                n -= row[rest]
            else:  # pragma: no cover - counts guarantee a branch is taken
                raise AssertionError("count tables out of sync")
            out.append(a)
        return out

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

    # -- enumeration ------------------------------------------------------

    def enumerate(self, start_rank: int = 0) -> Iterator[Word]:
        """Lazily yield accepted words in shortlex order from a given rank."""
        return self._words(self.language.start, start_rank)

    def words_from(self, state) -> Iterator[Word]:
        """Shortlex stream of accepted words readable from `state`."""
        return self._words(state)

    def _words(self, root, start_rank=None) -> Iterator[Word]:
        """The walk's words, from `start_rank` if given (`root` is then the start)."""
        word = None if start_rank is None else self.rep(start_rank)
        levels, buf, top = [None, None], [], None  # by stack depth, the last level met; the word
        for stack, letters, _ in self._walk(root, self.language.trans, root, word):
            if stack[-1] is not top:  # a new top: write the chains of the newly stacked levels
                if stack[0] is not levels[1]:  # a new tree: m-letter words under at most m + 1 levels
                    m = sum(len(level[1]) for level in stack) + len(letters)
                    buf, levels = [None] * m, [None] * (m + 2)
                top, i = stack[-1], len(stack)
                p = e = m - len(letters)  # its leaves' chains start at p; its levels end there
                while i and levels[i] is not stack[i - 1]:  # the stack changes only at its top
                    level = levels[i] = stack[i - 1]
                    buf[e - len(level[1]) : e] = level[1]
                    e -= len(level[1])
                    i -= 1
            buf[p:] = letters
            yield tuple(buf)

    def _walk(self, root, step: dict, carried, word=None, out=None) -> Iterator:
        """Depth-first shortlex walk over the words accepted from `root`.

        Nodes are (state, remaining length) pairs, one tree per length; a
        child is live if its count is nonzero, so every descent ends in an
        accepted word.  Below the root, a node with one live child is never
        stacked: a branching node's live children are found once per walk
        (or per tree, if no later tree meets the node), each followed
        through its one-child chain to the next branching node or leaf.
        Each node also carries the state of a second transition map `step`,
        entered at `carried` and defined on every letter the walk reads;
        the state at a chain's end is memoized per state at its start.  So
        where the words of length m grow at least linearly in m, a word
        costs amortized constant work.  The bottom level's one child is the
        root, reached by the empty chain, so each tree is entered by the one
        descent step.  Accepted lengths from a live state are at most
        #states apart, so #states + 1 empty lengths in a row end it.

        Leaf mode (`out` None): each leaf yields the stack, whose levels hold
        the chains that reached them, its own chain and the carried state.
        The walk starts at `word`, an accepted word, or else at the least
        word.

        Block mode (`out` maps carried states at leaves to outputs; no
        `word`): a node with at most ``BLOCK`` words yields the tuple of
        their outputs, and only larger nodes are stacked.  By the paper's
        main theorem the sequence is the coded fixed point of a morphism on
        (language state, carried state) pairs, so a block depends only on
        the node's state, its remaining length and the state carried into
        it.  Blocks are built from their children's blocks and memoized
        under those three, up to ``MEMO_LETTERS`` outputs per walk; a tree's
        root is met once and not kept.  A child is first followed down its
        one-child run to a leaf or a branching node, whose count is smaller,
        so the recursion is at most ``BLOCK`` deep.  Where a run crosses a
        length that ``STRIDE`` divides, its end is memoized per carried
        state, so a run that is new in each tree (over a one-letter
        language, every tree is one) costs about ``STRIDE`` steps, not its
        length.
        """
        counts, succ = self._counts, self._succ

        # branching (state, remaining length) -> its live children, as chains.
        # Later trees meet a node again only if a cycle precedes its state on
        # the path from the root, as it does once the state is #states deep.
        # Other rows are kept for their own tree, unless the tree is shorter
        # than #states: such rows stay few and short.
        kids, again = {}, set()

        def branches(q, r):
            if m - r >= len(succ):
                again.add(q)
            memo = kids if m < len(succ) or q in again else near
            row = memo.get((q, r))
            if row is None:
                row = memo[q, r] = []
                for a, q2, held in succ[q]:
                    letters, r2 = [a], r - 1
                    if not held[r2]:
                        continue
                    while r2:  # follow the chain while one live child holds all the node's words
                        for b, q3, held3 in succ[q2]:
                            if held3[r2 - 1]:
                                break
                        if held3[r2 - 1] < held[r2]:
                            break
                        letters.append(b)
                        q2, r2, held = q3, r2 - 1, held3
                    # (letters, end state, end remaining length, carried state at the end by start state)
                    row.append((tuple(letters), q2, r2, {}))
            return row

        # blocks: (state, remaining length, carried state) of a branching node
        # -> its outputs; runs: the same of a one-child node at a length that
        # STRIDE divides -> the same of the leaf or branching node ending its run
        blocks, runs, room = {}, {}, MEMO_LETTERS

        def block(q, r, c):
            """The outputs on the words of length r from the live node (q, r), entered at `c`."""
            nonlocal room
            passed = []
            while r:  # down the one-child run to a branching node or a leaf
                if not r % STRIDE:
                    end = runs.get((q, r, c))
                    if end is not None:
                        q, r, c = end
                        break
                for a, q2, held in succ[q]:
                    if held[r - 1]:
                        break
                if held[r - 1] < counts[q][r]:
                    break
                if not r % STRIDE:
                    passed.append((q, r, c))
                q, r, c = q2, r - 1, step[(c, a)]
            for key in passed:
                runs[key] = (q, r, c)
            if not r:
                return (out[c],)
            got = blocks.get((q, r, c))
            if got is None:
                got = ()
                for a, q2, held in succ[q]:
                    if held[r - 1]:
                        c2 = step[(c, a)]
                        got += (out[c2],) if r == 1 else (blocks.get((q2, r - 1, c2)) or block(q2, r - 1, c2))
                if len(got) <= room and r < m:  # a tree's root is met once
                    room -= len(got)
                    blocks[q, r, c] = got
            return got

        bound = 0 if out is None else BLOCK  # stacked nodes hold more words than this
        m = -1 if word is None else len(word) - 1
        while True:
            zeros = 0
            while True:
                m += 1
                self._ensure(m)
                if counts[root][m]:
                    break
                zeros += 1
                if zeros > len(self.language.states):
                    return
            near = {}
            # per stacked node: its children left, the chain that reached it and its carried state
            stack = [(iter((((), root, m, {}),)), (), carried)]  # the root, as a one-child bottom level
            while stack:
                it, _, c0 = stack[-1]
                for letters, q, r, ends in it:
                    c = ends.get(c0)
                    if c is None:  # not memoized yet (or None itself, then found again each time)
                        c = c0
                        for a in letters:
                            c = step[(c, a)]
                        ends[c0] = c
                    if r and counts[q][r] > bound:
                        row = kids.get((q, r)) or branches(q, r)
                        if word is not None:  # enter the first tree along the word, not its least word
                            row = row[[k[0][0] for k in row].index(word[m - r]) :]
                        stack.append((iter(row), letters, c))
                        break
                    if out is None:
                        word = None
                        yield stack, letters, c
                    else:
                        yield (blocks.get((q, r, c)) or block(q, r, c)) if r else (out[c],)
                else:
                    stack.pop()
