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
that are legal by construction.  A cut-and-paste successor is read off an
*index program*: the positions, among the word's letters, their inverses
and the diagonal's two letters, that `_splice` would place, read off
`_splice` itself.  Programs are cached per process, keyed by shape, in a
bounded cache, so the floods of a census build each program once.

The flood keys reached words by letter tuples rather than by `Word`
hashes: it keeps every rotation of every word it reaches, so a successor
is looked up as it is, with no rotation to find first.  One list of
letter tuples is both its queue and its result; each reached word becomes
a `Word` once, at the end.
"""

from __future__ import annotations

from functools import lru_cache
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


@lru_cache(maxsize=1024)
def _paste_programs(n: int, a: int, b: int, reflect: bool) -> tuple[tuple[int, ...] | None, ...]:
    """The index programs of every cut of an ``n``-letter word that
    re-pastes along the symbol at positions a < b, whose two letters have
    equal exponents when ``reflect`` is set.

    There is one entry per chord (i, j), i < j, in the order the flood
    takes the chords: None when both paste letters lie on one side of the
    chord, and otherwise the program of the shape (n, i, j, pa, po,
    reflect) at the sites (pa, po) that `_paste_pair` finds.  A program
    lists, for each letter of the word that `_splice` makes, its index
    among the word's letters, then their inverses in the same order, then
    the diagonal's letter and its inverse.  It is read off `_splice`
    itself, run on proxy letters that name their own positions, so the
    splice is written in one place only.  Rows are cached per process by
    shape, shared by every flood, so a row is a tuple; the cache is bounded
    (every shape of up to 16 letters is 742 keys), and eviction only costs
    building a row again.
    """
    proxy = tuple(Letter(k, 1) for k in range(n))
    layout = proxy + tuple(Letter(k, -1) for k in range(n)) + (Letter(n, 1), Letter(n, -1))
    index = {letter: x for x, letter in enumerate(layout)}.__getitem__
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            sites = _paste_pair(i, j, a, b)
            out.append(None if sites is None
                       else tuple(map(index, _splice(proxy, i, j, *sites, reflect, n))))
    return tuple(out)


def _successors(letters: tuple[Letter, ...], universe: Sequence[str]) -> list[tuple[Letter, ...]]:
    """The letters of every word one legal move away from ``letters``, using
    only names from ``universe``.

    Rotations are omitted because words compare cyclically.  Each successor
    is sliced from the letters, with no move object, no guard and no
    `Word`: a flip's or a rename's guards hold by construction (its symbol
    occurs, its target is free, every name is the universe's), a
    cancellation is taken only at an adjacent inverse pair and an insertion
    only under a free name.  The word's symbols are read off its pair map,
    built once.  A cut-and-paste is taken at the sites `_paste_pair` finds
    from that map, so each chord and paste symbol it keeps is a legal cut.
    It is built by the index program of its shape, read from the letters,
    their inverses and the diagonal's two letters, from the row of
    programs for its length, paste positions and exponent match, which
    `_paste_programs` caches per process.  The diagonal takes the first
    free name; when the universe is fully occupied it takes the name
    of the symbol the paste frees, which gives the same word as a cut along
    a name outside the universe followed by a rename of that diagonal to
    the paste symbol.
    """
    n = len(letters)
    symbols = list(map(_SYMBOL, letters))
    pairs = _pair_positions(letters)
    free = [s for s in universe if s not in pairs]

    reflected = _reflect(letters)
    out = [reflected]
    for s in sorted(pairs):
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
        # the letters, then their inverses in the same order
        sides = letters + reflected[::-1]
        rows = [
            (_paste_programs(n, a, b, letters[a].exponent == letters[b].exponent),
             sides + (pair if free else (Letter(s, 1), Letter(s, -1))))
            for s, (a, b) in sorted(pairs.items())
        ]
        for c in range(n * (n - 1) // 2):
            for row, ext in rows:
                prog = row[c]
                if prog is not None:
                    out.append(tuple(map(ext.__getitem__, prog)))
    return out


def _rotations(letters: tuple[Letter, ...]) -> list[tuple[Letter, ...]]:
    """Every rotation of ``letters``, itself first."""
    return [letters[k:] + letters[:k] for k in range(len(letters))]


def orbit_oracle(word: Word, max_symbols: int, budget: int = 100_000) -> OrbitResult:
    """Flood-fill the move reachability class of ``word``.

    The name pool is the word's own symbols padded out to ``max_symbols``
    names by `mint_fresh` (a, b, ..., z, a1, b1, ...); every reached word
    draws its names from that pool, so the state space has at most
    ``2 * max_symbols`` letters per word and the flood terminates.
    ``budget`` caps how many nodes get expanded.

    Reached words are keyed by letter tuples, not by `Word` hashes: the set
    ``reached`` holds every rotation of every word reached, so a successor
    is new exactly when it is not in the set.  That stores one tuple per
    letter of each reached word, and saves finding a rotation for every
    successor.  One list is the breadth-first queue and the result; each
    reached word is wrapped as a `Word` once, at the end, in the rotation
    that first reached it.  The index programs come from the bounded
    per-process cache of `_paste_programs`, keyed by shape.
    """
    validate(word)
    max_symbols = _as_int(max_symbols, "symbol cap")
    if max_symbols < 1:
        raise ValidationError("symbol cap must be at least 1")
    budget = _as_int(budget, "budget")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    universe = _symbol_universe(word, max_symbols)

    reached = set(_rotations(word.letters))
    # found[:expanded] are expanded, the rest are the queue
    found = [word.letters]
    expanded = 0
    while expanded < len(found) and expanded < budget:
        for nxt in _successors(found[expanded], universe):
            if nxt not in reached:
                reached.update(_rotations(nxt))
                found.append(nxt)
        expanded += 1
    words = frozenset(map(Word._from_checked, found))
    return OrbitResult(words, expanded == len(found), expanded)


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
