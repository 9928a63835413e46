"""Brute-force reachability oracle for the move system.

The rewriting engine in :mod:`surfclass.normalize` claims that two edge-words
describe the same surface exactly when some move sequence connects them.  This
module checks that claim from the other direction: starting from one word it
floods outward through every legal move, collecting the full reachability
class over a fixed symbol universe.  Because every symbol of a valid word
occurs exactly twice, capping the number of distinct symbols also caps the
word length, so the search space is finite and the flood can genuinely
exhaust it.

The oracle shares no code with the normalizer's strategy layer.  It re-uses
the splices of :mod:`surfclass.moves` (reflection, the respelling behind a
flip or a rename, and the guarded cut-and-paste) and ``apply_move`` for a
cancellation or an insertion.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations, product
from typing import NamedTuple, Sequence

from .moves import Cancel, CutPaste, Insert, _cut_paste, _respell, apply_move
from .words import (
    Letter,
    ValidationError,
    Word,
    _SYMBOL,
    _as_int,
    _check_symbol,
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

    Rotations are omitted because words compare cyclically.  Each successor
    is spliced as its move splices it; a flip's or a rename's guards hold by
    construction (its symbol occurs, its target is free, every name is the
    universe's).  A cut-and-paste needs a fresh edge name; when the universe
    is fully occupied the cut is made with the throwaway name ``temp``,
    outside the universe, and one respell turns that diagonal into the
    symbol the paste just freed: one cut and one respell, giving the same
    word as the two-move path of the cut and ``Rename(temp, paste)``.
    """
    letters = word.letters
    n = len(letters)
    symbols = list(map(_SYMBOL, letters))
    used = set(symbols)
    free = [s for s in universe if s not in used]
    checked = Word._from_checked

    out = [word.reflected()]
    for s in sorted(used):
        out.append(checked(_respell(letters, symbols, s, s, -1)))
        for t in free:
            out.append(checked(_respell(letters, symbols, s, t, 1)))

    if n > 2:
        for p in range(n):
            a = letters[p]
            b = letters[(p + 1) % n]
            if a.symbol == b.symbol and a.exponent == -b.exponent:
                out.append(apply_move(word, Cancel(p)))

    if free:
        for p in range(n + 1):
            out.append(apply_move(word, Insert(p, free[0])))

    if n >= 3:
        fresh = free[0] if free else temp
        pairs = sorted(_pair_positions(letters).items())
        for i in range(n):
            for j in range(i + 1, n):
                for paste_sym, (a, b) in pairs:
                    # a paste symbol has exactly one letter on the arc [i, j)
                    if (i <= a < j) == (i <= b < j):
                        continue
                    spliced = _cut_paste(letters, CutPaste(i, j, fresh, paste_sym))
                    if not free:  # the diagonal takes the name the paste freed
                        spliced = _respell(spliced, list(map(_SYMBOL, spliced)), temp, paste_sym, 1)
                    out.append(checked(spliced))
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
    max_symbols = _as_int(max_symbols, "symbol cap")
    if max_symbols < 1:
        raise ValidationError("symbol cap must be at least 1")
    budget = _as_int(budget, "budget")
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
    for s in pool:
        _check_symbol(s)
    out: set[Word] = set()
    for k in range(1, len(pool) + 1):
        for subset in combinations(pool, k):
            base = []
            for s in subset:
                base.extend([s, s])
            for perm in sorted(set(permutations(base))):
                for signs in product((1, -1), repeat=2 * k):
                    out.add(Word._from_checked(tuple(map(Letter, perm, signs))))
    return out
