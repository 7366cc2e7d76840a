"""Numeration systems built from an infinite regular language.

A system pairs a trimmed automaton for the language L with its ordered
alphabet; the n-th word of L in shortlex order (length first, then letter
order) represents the integer n, starting at n = 0.  Ranks are plain Python
integers, so arbitrarily large values are exact.

Counting tables u_q(m) = number of accepted words of length m readable from
state q are filled lazily and memoized; rep/val/enumeration all run off
them, skipping letters whose whole subtree counts zero.  Instances never
mutate their public state; concurrent readers either tolerate the appends
the cache performs or synchronize externally.
"""

from __future__ import annotations

from typing import Iterator

from .automata import Dfa, OrderedAlphabet, Word, is_infinite
from .errors import FiniteLanguageError, NotInLanguageError


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
        # transitions by source state, in alphabet order (dense lookup for the hot paths)
        self._succ: dict = {
            q: tuple((a, lang.trans[(q, a)]) for a in lang.alphabet if (q, a) in lang.trans)
            for q in lang.states
        }
        self._counts: dict = {q: [1 if q in lang.finals else 0] for q in lang.states}
        self._filled = 0  # largest length already present in every row
        self._cum = [self._counts[lang.start][0]]  # cumulative counts for the start state

    # -- counting ---------------------------------------------------------

    def _ensure(self, length: int):
        counts = self._counts
        while self._filled < length:
            m = self._filled
            for q, row in counts.items():
                row.append(sum(counts[q2][m] for _a, q2 in self._succ[q]))
            self._filled = m + 1
            self._cum.append(self._cum[-1] + counts[self.language.start][m + 1])

    def count_words(self, length: int) -> int:
        """Number of accepted words of exactly the given length."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        self._ensure(length)
        return self._counts[self.language.start][length]

    # -- rank / unrank ----------------------------------------------------

    def rep(self, n: int) -> Word:
        """The word of rank n: the (n+1)-th word of L in shortlex order."""
        if n < 0:
            raise ValueError("ranks are nonnegative")
        length = self._length_of_rank(n)
        remaining = n - (self._cum[length - 1] if length else 0)
        counts = self._counts
        q = self.language.start
        out = []
        for i in range(length):
            rest = length - i - 1
            for a, q2 in self._succ[q]:
                c = counts[q2][rest]
                if remaining < c:
                    out.append(a)
                    q = q2
                    break
                remaining -= c
            else:  # pragma: no cover - counts guarantee a branch is taken
                raise AssertionError("count tables out of sync")
        return tuple(out)

    def _length_of_rank(self, n: int) -> int:
        while self._cum[-1] <= n:
            self._ensure(self._filled + 1)
        # binary search the cumulative table
        lo, hi = 0, len(self._cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cum[mid] > n:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def val(self, word) -> int:
        """Rank of an accepted word; raises NotInLanguageError otherwise."""
        word = tuple(word)
        length = len(word)
        self._ensure(length)
        counts = self._counts
        lang = self.language
        rank = self._cum[length - 1] if length else 0
        q = lang.start
        for i, a in enumerate(word):
            rest = length - i - 1
            if a not in self.alphabet:
                raise NotInLanguageError(f"symbol {a!r} at position {i + 1} is not in the alphabet")
            nxt = lang.trans.get((q, a))
            if nxt is None:
                raise NotInLanguageError(
                    f"word leaves the language at position {i + 1} (no accepted continuation)"
                )
            idx = self.alphabet.index(a)
            for b, q2 in self._succ[q]:
                if self.alphabet.index(b) >= idx:
                    break
                rank += counts[q2][rest]
            q = nxt
        if q not in lang.finals:
            raise NotInLanguageError("word is a proper prefix of the language: it ends in a non-final state")
        return rank

    # -- enumeration ------------------------------------------------------

    def cursor(self, start_rank: int = 0, root=None) -> "_Cursor":
        """Stateful shortlex cursor; `root` picks a different base state."""
        return _Cursor(self, start_rank, self.language.start if root is None else root)

    def enumerate(self, start_rank: int = 0) -> Iterator[Word]:
        """Lazily yield accepted words in shortlex order from a given rank."""
        cur = self.cursor(start_rank)
        while True:
            yield tuple(cur.word)
            cur.advance()

    def words_from(self, state) -> Iterator[Word]:
        """Shortlex stream of accepted words readable from `state`."""
        cur = self.cursor(0, root=state)
        while not cur.exhausted:
            yield tuple(cur.word)
            cur.advance()


class _Cursor:
    """Odometer over the shortlex enumeration of words accepted from a root.

    ``word``/``states`` expose the current word and its run; ``advance()``
    moves to the next word and returns the first position whose letter
    changed, which lets callers patch any parallel run incrementally.
    """

    def __init__(self, system: NumerationSystem, start_rank: int, root):
        self.sys = system
        self.root = root
        self.word: list = []
        self.states: list = [root]
        self.exhausted = False
        if root == system.language.start:
            word = system.rep(start_rank)
            self._init_at(word)
        else:
            if start_rank != 0:
                raise ValueError("rooted cursors start at rank 0")
            if not self._first_of_some_length(0):
                self.exhausted = True

    def _init_at(self, word):
        self.word = list(word)
        states = [self.root]
        for a in word:
            states.append(self.sys.language.trans[(states[-1], a)])
        self.states = states

    def _first_of_some_length(self, length: int) -> bool:
        """Position at the least word of length >= `length`, if any exists.

        Accepted lengths from a live state are at most #states apart (pump
        one simple cycle out of a long accepted path), so a run of
        #states + 1 empty lengths proves exhaustion.
        """
        sys = self.sys
        probe = length
        zeros = 0
        while True:
            sys._ensure(probe)
            if sys._counts[self.root][probe] > 0:
                break
            zeros += 1
            if zeros > len(sys.language.states):
                return False
            probe += 1
        self.word = [None] * probe
        self.states = [self.root] + [None] * probe
        self._fill_min(0)
        return True

    def _fill_min(self, i: int):
        """Fill positions i.. with the least letters keeping the count positive."""
        sys = self.sys
        counts = sys._counts
        m = len(self.word)
        q = self.states[i]
        for j in range(i, m):
            rest = m - j - 1
            for a, q2 in sys._succ[q]:
                if counts[q2][rest] > 0:
                    self.word[j] = a
                    self.states[j + 1] = q2
                    q = q2
                    break
            else:  # pragma: no cover
                raise AssertionError("count tables out of sync")

    def advance(self) -> int:
        """Step to the next word; returns the first changed position."""
        sys = self.sys
        counts = sys._counts
        alphabet = sys.alphabet
        m = len(self.word)
        for i in range(m - 1, -1, -1):
            rest = m - i - 1
            q = self.states[i]
            cur = alphabet.index(self.word[i])
            for a, q2 in sys._succ[q]:
                if alphabet.index(a) <= cur:
                    continue
                if counts[q2][rest] > 0:
                    self.word[i] = a
                    self.states[i + 1] = q2
                    self._fill_min(i + 1)
                    return i
        if not self._first_of_some_length(m + 1):
            self.exhausted = True
        return 0
