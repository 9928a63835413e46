"""Deterministic normalization of closed-surface words.

The pipeline rewrites any valid word to the canonical form of its
homeomorphism type and records every elementary move:

1. Vertex reduction.  While the identified polygon has more than one vertex
   class, shrink a smallest class.  A class of size one forces its two
   flanking sides to be an adjacent inverse pair, which is cancelled; a
   larger class loses a corner through a triangle cut-and-paste, picked by
   rule: a cut at a corner of class Q moves exactly one corner from Q into
   a neighbouring class.  As Q is a smallest class, every such move into
   another class shrinks the class-size profile, and the first one is
   built.  Sphere words bottom out at the two-sided polygon, since one
   vertex is impossible when the characteristic is 2.
2. A one-shot split of a word that is already a run of adjacent
   same-exponent pairs, which reroutes it through the interleaved form
   before regathering.  On the four-sided Klein-bottle word this is the
   classical detour through ``a c a' c``.
3. The main loop: gather any non-adjacent same-exponent pair into an
   adjacent cross-cap; when cross-caps coexist with an inverse pair, cut so
   that the leading cross-cap becomes non-adjacent again, which converts one
   inverse pair into cross-cap material per round; on fully orientable words
   gather interleaved pairs into contiguous commutator blocks.  Each round
   reads one pair map, where each symbol's two letters sit, and every
   choice of the round is made from it.
4. Finish: rotate to a block boundary, reverse negatively oriented sides,
   and rename symbols left to right into the canonical alphabet.

Each emitted move is checked to preserve the Euler characteristic and
orientability.  A cut or a cancellation has the corners of the word it
produces traced once.  Rotations, renames and edge flips are checked by their
letters instead: a rotation must give exactly the rotated letters, and a
rename or flip must change only the two letters of its symbol, a rename to a
symbol not yet in the word with the same exponents, a flip to the inverse
letters.  Each such move keeps which positions pair and whether the pair's
exponents agree, so it keeps both invariants.  A vertex-reduction cut must
also strictly shrink the sorted class-size profile of the corner classes
traced for it, and the final word must equal the canonical word of the
computed type letter for letter.
Any violation raises InternalInvariantError rather than returning a wrong
certificate.
"""
from __future__ import annotations

from bisect import insort
from collections import Counter
from typing import Callable, NamedTuple

from .moves import (
    Cancel,
    CutPaste,
    FlipEdge,
    Move,
    MoveError,
    MoveTrace,
    Rename,
    Rotate,
    apply_move,
)
from .words import (
    InternalInvariantError,
    Letter,
    SurfaceType,
    Word,
    _SYMBOL,
    _euler_from_classes,
    _pair_positions,
    canonical_word,
    corner_classes,
    is_orientable,
    mint_fresh,
    surface_type_from_invariants,
    validate,
)


class NormalizationResult(NamedTuple):
    type: SurfaceType
    trace: MoveTrace


class _Rewriter:
    """Mutable cursor over a word that records and checks each move.

    Each word a cut or a cancellation produces has its corners traced once,
    for the Euler-characteristic check, and `emit` hands those classes back
    so that vertex reduction can pick its next cut and check that the last
    one shrank the class-size profile.  Rotations, renames and edge flips
    are checked by their letters alone and trace nothing.  `chi` is the
    input's Euler characteristic, read from the trace `normalize` starts
    with, and `orientable` is read off the input's letters.
    """

    def __init__(self, word: Word, chi: int) -> None:
        self.word = word
        self.steps: list[Move] = []
        self.chi = chi
        self.orientable = is_orientable(word)

    def emit(self, move: Move) -> tuple[int, ...] | None:
        """Apply, record and check one move.  Returns the corner classes of
        the new word for a cut or a cancellation, None otherwise."""
        old = self.word
        try:
            self.word = apply_move(old, move)
        except MoveError as exc:
            raise InternalInvariantError(
                f"normalization emitted an inapplicable move {move.render()}: {exc}"
            ) from exc
        self.steps.append(move)
        if isinstance(move, Rotate):
            k = move.offset % len(old)
            if self.word.letters != old.letters[k:] + old.letters[:k]:
                raise InternalInvariantError(
                    f"move {move.render()} did not rotate {old.render()}"
                )
            return None
        if isinstance(move, (Rename, FlipEdge)):
            if not _relabels(old.letters, self.word.letters, move):
                raise InternalInvariantError(
                    f"move {move.render()} changed an invariant of {self.word.render()}"
                )
            return None
        classes = corner_classes(self.word)
        if (
            _euler_from_classes(classes) != self.chi
            or is_orientable(self.word) != self.orientable
        ):
            raise InternalInvariantError(
                f"move {move.render()} changed an invariant of {self.word.render()}"
            )
        return classes

    def rotate_to(self, offset: int) -> None:
        if offset % len(self.word):
            self.emit(Rotate(offset % len(self.word)))

    def fresh(self) -> str:
        return mint_fresh(self.word.symbols())


def _relabels(
    old: tuple[Letter, ...], new: tuple[Letter, ...], move: Rename | FlipEdge
) -> bool:
    """True when `new` is `old` with only the two letters of the moved
    symbol changed: renamed to a symbol absent from `old` with the same
    exponents, or inverted by a flip.

    `old` is a closed word, so the moved symbol occurs exactly twice.  The
    unchanged stretches are compared as tuple slices.
    """
    if len(new) != len(old):
        return False
    symbols = list(map(_SYMBOL, old))
    if isinstance(move, Rename):
        if move.new in symbols:
            return False
        sym = move.old
    else:
        sym = move.symbol
    i = symbols.index(sym)
    j = symbols.index(sym, i + 1)
    if isinstance(move, Rename):
        want_i = Letter(move.new, old[i].exponent)
        want_j = Letter(move.new, old[j].exponent)
    else:
        want_i, want_j = old[i].inverse(), old[j].inverse()
    return (
        new[i] == want_i
        and new[j] == want_j
        and new[:i] == old[:i]
        and new[i + 1 : j] == old[i + 1 : j]
        and new[j + 1 :] == old[j + 1 :]
    )


# ---------------------------------------------------------------------------
# pair scanning helpers
# ---------------------------------------------------------------------------


def _cyclically_adjacent(i: int, j: int, n: int) -> bool:
    return j - i == 1 or (i == 0 and j == n - 1)


def _first_nonadjacent_same_pair(
    word: Word, pairs: dict[str, tuple[int, int]]
) -> tuple[int, int] | None:
    """The leftmost same-exponent pair whose two letters are not cyclically
    adjacent.  `pairs` lists symbols by first letter, so the first such pair
    it yields is the leftmost."""
    letters = word.letters
    n = len(letters)
    for i, j in pairs.values():
        if letters[i].exponent == letters[j].exponent and not _cyclically_adjacent(i, j, n):
            return i, j
    return None


def _block_alignment(
    word: Word, width: int, fits: Callable[[tuple[Letter, ...]], bool]
) -> int | None:
    """Smallest rotation offset splitting the word into blocks of `width`
    letters that each `fits`.

    Offsets r and r + width cut the same blocks, so only r < width is tried,
    and a word that has no such split costs O(n).
    """
    letters = word.letters
    n = len(letters)
    if n % width:
        return None
    for r in range(width):
        rotated = letters[r:] + letters[:r]
        if all(fits(rotated[t : t + width]) for t in range(0, n, width)):
            return r
    return None


def _is_crosscap(block: tuple[Letter, ...]) -> bool:
    """An (s, s) block: one symbol twice with the same exponent."""
    return block[0] == block[1]


def _is_commutator(block: tuple[Letter, ...]) -> bool:
    """X Y X Y over two distinct symbols with the second occurrences
    inverted, in any orientation."""
    x, y, x2, y2 = block
    return (
        x.symbol == x2.symbol != y.symbol == y2.symbol
        and x2.exponent == -x.exponent
        and y2.exponent == -y.exponent
    )


# ---------------------------------------------------------------------------
# phase 1: vertex reduction
# ---------------------------------------------------------------------------


def _reduce_vertices(rw: _Rewriter, classes: tuple[int, ...]) -> None:
    """Phase 1, from the corner classes `classes` of the current word.  It
    returns nothing and leaves one vertex class or the two-sided word."""
    guard = 8 * len(rw.word) * len(rw.word) + 64
    for _ in range(guard):
        n = len(rw.word)
        if n == 2:
            return
        sizes = Counter(classes)
        if len(sizes) == 1:
            return
        qroot = min(sizes, key=lambda r: (sizes[r], r))
        if sizes[qroot] == 1:
            p = classes.index(qroot)
            # a singleton corner is flanked by an adjacent inverse pair
            classes = rw.emit(Cancel((p - 1) % n))
            continue
        classes = _shrink_class(rw, classes, sizes, qroot)
    raise InternalInvariantError("vertex reduction failed to terminate")


def _shrink_class(
    rw: _Rewriter,
    classes: tuple[int, ...],
    sizes: Counter[int],
    qroot: int,
) -> tuple[int, ...]:
    """Transplant one corner out of the smallest class Q via a triangle cut.

    The cut at apex corner p joins corners p - 1 and p + 1.  Pasting along
    the side ending at p moves one corner from p's class into that of
    corner p + 1; pasting along the side starting at p moves it into that of
    corner p - 1.  A move from a class of size s into another of size d
    shrinks the sorted profile exactly when s <= d (s >= 2, as singletons
    are cancelled first), which always holds out of Q, the smallest class.
    With two or more classes some corner of Q has a cyclic neighbour in
    another class, so only the corners of Q are walked and the first such
    move is the only cut built.  Its two sides carry different symbols: the
    sides of one symbol meeting at p either make p a singleton (an inverse
    pair) or put both neighbours in p's class (a cross-cap).  The shrink is
    then checked on the classes `emit` traced, and those classes of the
    word the cut produced are returned.
    """
    word = rw.word
    n = len(word.letters)
    old_profile = sorted(sizes.values())
    for p in range(n):
        if classes[p] != qroot:
            continue
        for paste, dst in (
            (word[p - 1].symbol, classes[(p + 1) % n]),
            (word[p].symbol, classes[p - 1]),
        ):
            if dst != qroot:
                rw.rotate_to((p - 1) % n)
                move = CutPaste(0, 2, rw.fresh(), paste)
                new = rw.emit(move)
                if sorted(Counter(new).values()) >= old_profile:
                    raise InternalInvariantError(
                        f"move {move.render()} did not shrink the vertex classes"
                        f" {old_profile} of {word.render()}"
                    )
                return new
    raise InternalInvariantError("no corner-shrinking move exists; bad class data")


# ---------------------------------------------------------------------------
# phase 2: one-shot split of an all-cross-cap word
# ---------------------------------------------------------------------------


def _split_crosscap_run(rw: _Rewriter) -> None:
    n = len(rw.word)
    r = _block_alignment(rw.word, 2, _is_crosscap)
    if r is None:
        return
    rw.rotate_to(r)
    rw.emit(CutPaste(1, n - 1, rw.fresh(), rw.word[n - 1].symbol))


# ---------------------------------------------------------------------------
# phase 3: gathering
# ---------------------------------------------------------------------------


def _seed_split(rw: _Rewriter, inverse: set[str]) -> None:
    """Break the leading cross-cap across an inverse pair.

    The word starts with an adjacent same-exponent pair after rotation; the
    cut runs from inside that pair to just past the first letter that belongs
    to an inverse pair, one of the symbols in `inverse`.  A rotation keeps
    which symbols are inverse pairs, so that set is read before rotating.
    Pasting along that letter leaves the leading pair non-adjacent, so the
    next round regathers it, and the pasted-away inverse pair is gone for
    good; that is the strictly decreasing quantity.
    """
    word = rw.word
    n = len(word.letters)
    start = next((p for p in range(n) if word[p] == word[p + 1]), None)
    if start is None:
        raise InternalInvariantError("seed split called without a cross-cap")
    rw.rotate_to(start)
    word = rw.word
    q0 = next((q for q in range(2, n) if word[q].symbol in inverse), None)
    if q0 is None:
        raise InternalInvariantError("seed split called without an inverse pair")
    rw.emit(CutPaste(1, q0 + 1, rw.fresh(), word[q0].symbol))


def _collect_handle(
    rw: _Rewriter,
    i: int,
    p: int,
    pairs: dict[str, tuple[int, int]],
    done: set[str],
) -> None:
    """Gather the inverse pair at positions i < p into a contiguous
    commutator block.

    `pairs` is the pair map `_gather` built for the current word this round.
    The interleaver is read off it before any rotation: the first symbol not
    done with one letter strictly between i and p and the other outside.
    Two cuts follow: the first re-pastes along the interleaver, the second
    along the original pair; the two minted symbols u, v end up adjacent as
    u' v u v'.  Finished blocks are marked done and are never chosen as
    interleavers again; they cannot interleave anything anyway, because they
    stay contiguous under later cuts (cut boundaries always sit at letters of
    the pairs being worked on, never inside a finished block).
    """
    letters = rw.word.letters
    x = letters[i].symbol
    y = None
    for q in range(i + 1, p):
        sym = letters[q].symbol
        a, b = pairs[sym]
        # letter q lies between i and p; its pair interleaves unless the
        # other letter does too
        if sym not in done and (a < i or b > p):
            y = sym
            break
    if y is None:
        raise InternalInvariantError(
            f"pair {x} in a one-vertex word has no usable interleaver"
        )
    rw.rotate_to(i)
    u = rw.fresh()
    rw.emit(CutPaste(0, p - i + 1, u, y))
    # bring the positively oriented u to the front for the second cut; the
    # word is orientable, so u occurs once with each exponent
    rw.rotate_to(rw.word.letters.index(Letter(u, 1)))
    u_minus = rw.word.letters.index(Letter(u, -1))
    v = rw.fresh()
    rw.emit(CutPaste(0, u_minus + 1, v, x))
    done.add(u)
    done.add(v)


def _gather(rw: _Rewriter) -> None:
    """Phase 3.  `done` holds the symbols of finished commutator blocks; it
    stays empty on a non-orientable word, so one list of inverse pairs not
    yet done serves the seed split and the handle gather alike."""
    done: set[str] = set()
    guard = 20 * (len(rw.word) + 2) ** 2 + 64
    for _ in range(guard):
        letters = rw.word.letters
        pairs = _pair_positions(letters)
        pair = _first_nonadjacent_same_pair(rw.word, pairs)
        if pair is not None:
            i, j = pair
            rw.emit(CutPaste(i, j, rw.fresh(), letters[i].symbol))
            continue
        # the map lists symbols by first letter, so todo[0] sits leftmost
        todo = [
            s
            for s, (i, j) in pairs.items()
            if s not in done and letters[i].exponent != letters[j].exponent
        ]
        if not todo:
            return
        if not rw.orientable:
            _seed_split(rw, set(todo))
            continue
        _collect_handle(rw, *pairs[todo[0]], pairs, done)
    raise InternalInvariantError("gathering failed to terminate")


# ---------------------------------------------------------------------------
# phase 4: finish
# ---------------------------------------------------------------------------


def _apply_renames(rw: _Rewriter, mapping: dict[str, str]) -> None:
    """Rename by `mapping`, least pending symbol first among those whose
    target is free.  One set of the symbols in use and one sorted list of
    the pending symbols are kept up to date across the renames."""
    pending = {old: new for old, new in mapping.items() if old != new}
    order = sorted(pending)
    used = rw.word.symbols()
    guard = 4 * len(pending) + 8
    for _ in range(guard):
        if not order:
            return
        old = next((old for old in order if pending[old] not in used), None)
        if old is not None:
            new = pending.pop(old)
            order.remove(old)
        else:
            # break a rename cycle through a temporary name
            old = order.pop(0)
            new = mint_fresh(used | set(pending.values()))
            pending[new] = pending.pop(old)
            insort(order, new)
        rw.emit(Rename(old, new))
        used.remove(old)
        used.add(new)
    raise InternalInvariantError("renaming failed to terminate")


def _finish(rw: _Rewriter) -> SurfaceType:
    word = rw.word
    n = len(word.letters)
    if n == 2 and word[0].exponent == -word[1].exponent:
        if word[0].exponent < 0:
            rw.emit(Rotate(1))
        _apply_renames(rw, {rw.word[0].symbol: "a1"})
        return SurfaceType.sphere()
    # a cross-cap block (a a) or a commutator block (a b a' b'): the leading
    # letter of each of its symbols is made positive, then renamed in order
    if rw.orientable:
        width, fits, heads, what = 4, _is_commutator, "ab", "commutator blocks"
    else:
        width, fits, heads, what = 2, _is_crosscap, "a", "a cross-cap run"
    r = _block_alignment(word, width, fits)
    if r is None:
        raise InternalInvariantError(f"expected {what}, got {word.render()}")
    rw.rotate_to(r)
    starts = range(0, n, width)
    for t in starts:
        for k in range(len(heads)):
            if rw.word[t + k].exponent < 0:
                rw.emit(FlipEdge(rw.word[t + k].symbol))
    _apply_renames(rw, {
        rw.word[t + k].symbol: f"{head}{t // width + 1}"
        for t in starts
        for k, head in enumerate(heads)
    })
    return SurfaceType(rw.orientable, n // width)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def normalize(word: Word) -> NormalizationResult:
    """Classify a word and return the type with a replayable certificate."""
    validate(word)
    classes = corner_classes(word)
    rw = _Rewriter(word, _euler_from_classes(classes))
    _reduce_vertices(rw, classes)
    if len(rw.word) > 2:
        _split_crosscap_run(rw)
        _gather(rw)
    t = _finish(rw)
    if rw.word.letters != canonical_word(t).letters:
        raise InternalInvariantError(
            f"finished at {rw.word.render()}, not the canonical word of {t}"
        )
    if t != surface_type_from_invariants(rw.chi, rw.orientable):
        raise InternalInvariantError(
            f"normalized type {t} disagrees with the invariant classification"
        )
    trace = MoveTrace(word, tuple(rw.steps))
    return NormalizationResult(t, trace)
