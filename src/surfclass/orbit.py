"""Brute-force reachability oracle for the move system.

The rewriting engine in :mod:`surfclass.normalize` claims that two edge-words
describe the same surface exactly when some move sequence connects them.  This
module checks that claim from the other direction: starting from one word it
floods outward through every legal move, collecting the full reachability
class over a fixed symbol universe.  Because every symbol of a valid word
occurs exactly twice, capping the number of distinct symbols also caps the
word length, so the search space is finite and the flood can genuinely
exhaust it.

The oracle shares no code with the normalizer's strategy layer; it only
re-uses the move legality rules themselves.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations, product
from typing import NamedTuple, Sequence

from .moves import (
    Cancel,
    CutPaste,
    FlipEdge,
    Insert,
    Reflect,
    Rename,
    apply_move,
)
from .words import (
    Letter,
    ValidationError,
    Word,
    _pair_positions,
    mint_fresh,
    validate,
)


class OrbitResult(NamedTuple):
    """Outcome of a reachability flood.

    ``words`` holds every word reached (cyclic rotations identified),
    ``exhausted`` reports whether the frontier emptied before the budget ran
    out, and ``expanded`` counts the nodes whose successors were generated.
    Only an exhausted result is a complete orbit; a budget-limited one is a
    lower bound.
    """

    words: frozenset
    exhausted: bool
    expanded: int


def _symbol_universe(word: Word, max_symbols: int) -> list[str]:
    """Fixed name pool for the flood: the word's own symbols in sorted
    order, then successive `mint_fresh` names until the pool has
    ``max_symbols`` names."""
    pool = sorted(word.symbols())
    if len(pool) > max_symbols:
        raise ValidationError(
            f"word uses {len(pool)} symbols, above the cap of {max_symbols}"
        )
    used = set(pool)
    while len(pool) < max_symbols:
        pool.append(mint_fresh(used))
        used.add(pool[-1])
    return pool


def _successors(word: Word, universe: Sequence[str], temp: str) -> list[Word]:
    """Every word one legal move away, using only names from ``universe``.

    Rotations are omitted because words compare cyclically.  A cut-and-paste
    needs a fresh edge name; when the universe is fully occupied the move is
    run with the throwaway name ``temp``, which lies outside the universe,
    and immediately renamed onto the symbol the paste just freed, which is a
    two-move path to the same word.
    """
    out: list[Word] = []
    n = len(word)
    used = word.symbols()
    free = [s for s in universe if s not in used]

    out.append(apply_move(word, Reflect()))
    for s in sorted(used):
        out.append(apply_move(word, FlipEdge(s)))
        for t in free:
            out.append(apply_move(word, Rename(s, t)))

    if n > 2:
        for p in range(n):
            a = word.letters[p]
            b = word.letters[(p + 1) % n]
            if a.symbol == b.symbol and a.exponent == -b.exponent:
                out.append(apply_move(word, Cancel(p)))

    if len(used) < len(universe):
        fresh = free[0]
        for p in range(n + 1):
            out.append(apply_move(word, Insert(p, fresh)))

    if n >= 3:
        pairs = sorted(_pair_positions(word.letters).items())
        for i in range(n):
            for j in range(i + 1, n):
                for paste_sym, (a, b) in pairs:
                    # a paste symbol has exactly one letter on the arc [i, j)
                    if (i <= a < j) == (i <= b < j):
                        continue
                    if free:
                        out.append(apply_move(word, CutPaste(i, j, free[0], paste_sym)))
                    else:
                        mid = apply_move(word, CutPaste(i, j, temp, paste_sym))
                        out.append(apply_move(mid, Rename(temp, paste_sym)))
    return out


def orbit_oracle(word: Word, max_symbols: int, budget: int = 100_000) -> OrbitResult:
    """Flood-fill the move reachability class of ``word``.

    The name pool is the word's own symbols padded out to ``max_symbols``
    names by `mint_fresh` (a, b, ..., z, a1, b1, ...); every reached word
    draws its names from that pool, so the state space has at most
    ``2 * max_symbols`` letters per word and the flood terminates.
    ``budget`` caps how many nodes get expanded.
    """
    validate(word)
    if max_symbols < 1:
        raise ValidationError("symbol cap must be at least 1")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    universe = _symbol_universe(word, max_symbols)
    temp = mint_fresh(frozenset(universe))

    seen: set[Word] = {word}
    queue: deque[Word] = deque([word])
    expanded = 0
    while queue:
        if expanded >= budget:
            return OrbitResult(frozenset(seen), False, expanded)
        cur = queue.popleft()
        expanded += 1
        for nxt in _successors(cur, universe, temp):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return OrbitResult(frozenset(seen), True, expanded)


def enumerate_words(symbols: Sequence[str]) -> set[Word]:
    """All valid words drawing their symbols from ``symbols``.

    Every nonempty subset of the pool contributes the words in which each
    chosen symbol occurs exactly twice, with all four exponent combinations.
    Rotationally equal words collapse to one representative, the first one
    reached: symbol arrangements run in sorted order, so the stored rotation
    does not follow the string hash seed.
    """
    pool = list(dict.fromkeys(symbols))
    out: set[Word] = set()
    for k in range(1, len(pool) + 1):
        for subset in combinations(pool, k):
            base = []
            for s in subset:
                base.extend([s, s])
            for perm in sorted(set(permutations(base))):
                for signs in product((1, -1), repeat=2 * k):
                    out.add(Word(tuple(Letter(s, e) for s, e in zip(perm, signs))))
    return out
