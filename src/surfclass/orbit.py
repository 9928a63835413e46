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
flip or a rename, and the splice of a cut-and-paste at the sites its one
case analysis finds), but neither ``apply_move`` nor the guards of a move:
every successor is sliced from the letters of the word it leaves, at sites
that are legal by construction.

The flood keys reached words by letter tuples rather than by `Word`
hashes.  No letter of a closed word occurs more than twice, so a word has
at most two *anchored rotations*, those that start at an occurrence of its
least letter; the flood keeps both for every word it reaches and looks a
successor up by the one that starts at the first such occurrence.  Only a
new successor becomes a `Word`.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, islice, permutations, product
from typing import NamedTuple, Sequence

from .moves import _paste_pair, _respell, _splice
from .words import (
    Letter,
    ValidationError,
    Word,
    _SYMBOL,
    _as_int,
    _check_symbol,
    _names,
    _pair_positions,
    _reflect,
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
    order, then the names `mint_fresh` would pick in turn, skipping those
    the word uses, until the pool has ``max_symbols`` names."""
    pool = sorted(word.symbols())
    if len(pool) > max_symbols:
        raise ValidationError(
            f"word uses {len(pool)} symbols, above the cap of {max_symbols}"
        )
    used = set(pool)
    pool += islice((s for s in _names() if s not in used), max_symbols - len(pool))
    return pool


def _successors(letters: tuple[Letter, ...], universe: Sequence[str]) -> list[tuple[Letter, ...]]:
    """The letters of every word one legal move away from ``letters``, using
    only names from ``universe``.

    Rotations are omitted because words compare cyclically.  Each successor
    is sliced from the letters, with no move object, no guard and no
    `Word`: a flip's or a rename's guards hold by construction (its symbol
    occurs, its target is free, every name is the universe's), a
    cancellation is taken only at an adjacent inverse pair and an insertion
    only under a free name.  A cut-and-paste is spliced at the sites
    `_paste_pair` finds from the pair map, so each chord and paste symbol
    it keeps is a legal cut.  Its diagonal takes the first free name; when
    the universe is fully occupied it takes the name of the symbol the
    paste frees, which gives the same word as a cut along a name outside
    the universe followed by a rename of that diagonal to the paste symbol.
    `orbit_oracle` keys each successor by its anchored rotation, so only
    the successors it has not reached become words.
    """
    n = len(letters)
    symbols = list(map(_SYMBOL, letters))
    used = set(symbols)
    free = [s for s in universe if s not in used]

    out = [_reflect(letters)]
    for s in sorted(used):
        out.append(_respell(letters, symbols, s, s, -1))
        for t in free:
            out.append(_respell(letters, symbols, s, t, 1))

    if n > 2:
        for p in range(n):
            a = letters[p]
            b = letters[(p + 1) % n]
            if a.symbol == b.symbol and a.exponent == -b.exponent:
                out.append(letters[1:p] if p == n - 1 else letters[:p] + letters[p + 2 :])

    if free:
        pair = (Letter(free[0], 1), Letter(free[0], -1))
        for p in range(n + 1):
            out.append(letters[:p] + pair + letters[p:])

    if n >= 3:
        fresh = free[0] if free else None
        pairs = [(s, a, b, letters[a].exponent == letters[b].exponent)
                 for s, (a, b) in sorted(_pair_positions(letters).items())]
        for i in range(n):
            for j in range(i + 1, n):
                for paste_sym, a, b, reflect in pairs:
                    sites = _paste_pair(i, j, a, b)
                    if sites is not None:
                        out.append(_splice(letters, i, j, *sites, reflect, fresh or paste_sym))
    return out


def _anchored_rotations(letters: tuple[Letter, ...]) -> list[tuple[Letter, ...]]:
    """The rotations of ``letters`` that start at an occurrence of its least
    letter: at most two, since no letter of a closed word occurs more than
    twice.  The least rotation is one of them, so two words are equal up to
    rotation exactly when the first-occurrence rotation of one is an
    anchored rotation of the other."""
    m = min(letters)
    k = letters.index(m)
    out = [letters[k:] + letters[:k]]
    if letters.count(m) == 2:
        k = letters.index(m, k + 1)
        out.append(letters[k:] + letters[:k])
    return out


def orbit_oracle(word: Word, max_symbols: int, budget: int = 100_000) -> OrbitResult:
    """Flood-fill the move reachability class of ``word``.

    The name pool is the word's own symbols padded out to ``max_symbols``
    names by `mint_fresh` (a, b, ..., z, a1, b1, ...); every reached word
    draws its names from that pool, so the state space has at most
    ``2 * max_symbols`` letters per word and the flood terminates.
    ``budget`` caps how many nodes get expanded.

    Reached words are keyed by letter tuples, not by `Word` hashes: the set
    ``reached`` holds the anchored rotations (at most two) of every word
    reached, and a successor is new exactly when its rotation starting at
    the first occurrence of its least letter is not among them.  Only a new
    successor is wrapped as a `Word`, in the rotation that first reached
    it, so building the result hashes each reached word once.
    """
    validate(word)
    max_symbols = _as_int(max_symbols, "symbol cap")
    if max_symbols < 1:
        raise ValidationError("symbol cap must be at least 1")
    budget = _as_int(budget, "budget")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    universe = _symbol_universe(word, max_symbols)

    reached = set(_anchored_rotations(word.letters))
    seen = [word]
    queue: deque[tuple[Letter, ...]] = deque([word.letters])
    checked = Word._from_checked
    expanded = 0
    while queue:
        if expanded >= budget:
            return OrbitResult(frozenset(seen), False, expanded)
        cur = queue.popleft()
        expanded += 1
        for nxt in _successors(cur, universe):
            k = nxt.index(min(nxt))
            if nxt[k:] + nxt[:k] not in reached:
                reached.update(_anchored_rotations(nxt))
                seen.append(checked(nxt))
                queue.append(nxt)
    return OrbitResult(frozenset(seen), True, expanded)


def enumerate_words(symbols: Sequence[str]) -> set[Word]:
    """All valid words drawing their symbols from ``symbols``.

    Every nonempty subset of the pool contributes the words in which each
    chosen symbol occurs exactly twice, with all four exponent combinations,
    one word per cyclic class.  Symbol arrangements run in sorted order and
    sign vectors in ``product((1, -1))`` order, and each class is built once,
    in the first rotation that order reaches: an arrangement is kept only
    when it is its own least rotation, and a sign vector only when no
    rotation that fixes the arrangement gives an earlier one.  So the stored
    rotation does not follow the string hash seed.
    """
    pool = list(dict.fromkeys(symbols))
    for s in pool:
        _check_symbol(s)
    out: set[Word] = set()
    for k in range(1, len(pool) + 1):
        n = 2 * k
        for subset in combinations(pool, k):
            for perm in sorted(set(permutations(subset * 2))):
                rotations = [perm[r:] + perm[:r] for r in range(1, n)]
                if min(rotations) < perm:
                    continue
                shifts = [r for r, rot in enumerate(rotations, 1) if rot == perm]
                for signs in product((1, -1), repeat=n):
                    # 1 runs before -1, so an earlier sign vector is a larger tuple
                    if any(signs[r:] + signs[:r] > signs for r in shifts):
                        continue
                    out.add(Word._from_checked(tuple(map(Letter, perm, signs))))
    return out
