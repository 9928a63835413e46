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
2. A one-shot split of a non-orientable word that is already a run of
   adjacent same-exponent pairs, which reroutes it through the interleaved form
   before regathering.  On the four-sided Klein-bottle word this is the
   classical detour through ``a c a' c``.
3. The main loop: gather any non-adjacent same-exponent pair into an
   adjacent cross-cap; when cross-caps coexist with an inverse pair, cut so
   that the leading cross-cap becomes non-adjacent again, which converts one
   inverse pair into cross-cap material per round; on fully orientable words
   gather interleaved pairs into contiguous commutator blocks.  Each round
   builds the pair map of the word it reads, where each symbol's two
   letters sit, and makes one pass over it in order of first letter: it
   gathers the first non-adjacent same-exponent pair it meets, and lists on
   its way the inverse pairs that the round splits or collects when there
   is none.
4. Finish: align the word onto the canonical word of its type, which is read
   from the corner trace the rewrite starts with.  One rotation, one flip per
   symbol whose letters point against their canonical letters and one rename
   per symbol turn the word into that canonical word.

Every cut is made where its diagonal sits, so the finish's alignment is the
only rotation a trace can hold.

Each emitted move is checked to preserve the Euler characteristic and
orientability.  A move that only relabels, a rotation, a rename or an edge
flip, is checked by its letters: a rotation must give exactly the rotated
letters, and a rename or flip must change only the two letters of its
symbol, a rename to a symbol not yet in the word with the same exponents, a
flip to the inverse letters.  Each such move keeps, up to a cyclic shift,
which positions pair and whether the pair's exponents agree, so it keeps
both invariants.  A cut or a cancellation must give a word of the right
length, n for a cut and n - 2 for a cancellation, and of the input's
orientability, which is read off the letters.  Its Euler characteristic is
checked once per span: phase 1 is one span, and phases 2 and 3 together are
another.  A span that emitted a move ends with one corner trace of the word
it reached, whose Euler characteristic must be the input's.  The Euler
characteristic and orientability are a complete invariant of closed
surfaces, so a span that keeps both at its ends kept the type; a move that
breaks the Euler characteristic is seen only if no later move of its span
restores it.  Between those traces phase 1 carries what it reads: it
derives the corner classes of each word it produces from those of the word
before, spliced as the move splices the letters, and returns the last ones,
which must equal the traced classes; each of its cuts must also strictly
shrink the sorted class-size profile.  Phases 2 and 3 carry nothing; each
gathering round builds the pair map it reads, which refuses a word that is
not closed.  When a span's end check fails, or the span raises
InternalInvariantError or ValidationError, the moves it recorded are
walked from its start word with every word traced, and the first word that
is not closed or breaks an invariant names its move.  So the walk raises
where a check after every move raises, and that error is chained to the
one that set the walk off; the phase itself runs once.  The type is read
from the trace the rewrite starts with, and the finished word must equal
that type's canonical word letter for letter.  Any violation raises
InternalInvariantError rather than returning a wrong certificate.
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
    _arc,
    _paste_sites,
    apply_move,
)
from .words import (
    InternalInvariantError,
    Letter,
    SurfaceType,
    ValidationError,
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


def _changed(move: Move, word: Word) -> InternalInvariantError:
    """The error for a move whose word `word` breaks an invariant."""
    return InternalInvariantError(f"move {move.render()} changed an invariant of {word.render()}")


class _Rewriter:
    """Mutable cursor over a word that records and checks each move.

    `emit` checks each move on its own, and `span` checks the cuts and
    cancellations of a phase as a whole.  The rewriter carries no corner
    classes and no pair map: phase 1 derives its classes move by move, and
    each gathering round builds its own pair map.  `chi` is read from the
    trace `normalize` starts with, and `orientable` off the input's letters.
    """

    def __init__(self, word: Word, chi: int) -> None:
        self.word = word
        self.steps: list[Move] = []
        self.chi = chi
        self.orientable = is_orientable(word)

    def emit(self, move: Move) -> None:
        """Apply, record and check one move."""
        old = self.word
        try:
            self.word = apply_move(old, move)
        except MoveError as exc:
            raise InternalInvariantError(
                f"normalization emitted an inapplicable move {move.render()}: {exc}"
            ) from exc
        self.steps.append(move)
        if isinstance(move, (Rotate, Rename, FlipEdge)):
            if not _relabels(old.letters, self.word.letters, move):
                raise _changed(move, self.word)
            return
        length = len(old) - 2 if isinstance(move, Cancel) else len(old)
        if len(self.word) != length or is_orientable(self.word) != self.orientable:
            raise _changed(move, self.word)

    def span(self, phase: Callable[..., tuple[int, ...] | None], *args: object) -> None:
        """Run `phase(self, *args)` and check the cuts and cancellations it
        emits as one span.

        If it emitted any, the word it reached has its corners traced once:
        its Euler characteristic must be the input's, and the corner classes
        the phase returns, if any, must equal the traced ones.  If that
        check fails, or the phase raises InternalInvariantError or
        ValidationError (a pair map built on a word that is not closed), the
        span's recorded moves are walked from its start word, each word
        traced: the first word that is not closed, or that breaks the Euler
        characteristic or orientability, names its move in an
        InternalInvariantError chained to the first error.  If none does,
        the first error is raised.
        """
        start, k = self.word, len(self.steps)
        try:
            derived = phase(self, *args)
            if len(self.steps) > k:
                classes = corner_classes(self.word)
                if _euler_from_classes(classes) != self.chi:
                    raise InternalInvariantError(
                        f"the moves from step {k + 1} on changed the Euler"
                        f" characteristic of {start.render()}"
                    )
                if derived is not None and derived != classes:
                    raise InternalInvariantError(
                        f"the corner classes derived for {self.word.render()}"
                        " are not its traced classes"
                    )
        except (InternalInvariantError, ValidationError) as exc:
            word = start
            for move in self.steps[k:]:
                word = apply_move(word, move)
                try:
                    kept = _euler_from_classes(corner_classes(word)) == self.chi
                except ValidationError:
                    kept = False
                if not kept or is_orientable(word) != self.orientable:
                    raise _changed(move, word) from exc
            raise


def _derive_classes(
    classes: tuple[int, ...], letters: tuple[Letter, ...], move: Cancel | CutPaste
) -> tuple[int, ...]:
    """The corner classes of the word `move` makes of `letters`, derived
    from `classes`, the corner classes of `letters`.

    A cut or a cancellation keeps the surface's vertices, so each corner of
    the new word lies in the class of the old corner it is, and corner k is
    where letter k starts.  A cut splices the labels at the sites
    `_paste_sites` finds, as `_cut_paste` splices the letters: a copied
    letter keeps its start label, and a reflected one takes its old end
    label, that of the corner after it.  The diagonal starts at corner j,
    and its inverse at corner i, or at corner j when the outer part is
    reflected.  A cancellation drops the labels of its two letters: the
    corner between them is a class of its own, and the corner before them
    shares its class with the one after.  Each class is then labelled by its
    least corner, as `corner_classes` labels it.
    """
    if isinstance(move, Cancel):
        p = move.position
        labels = classes[1:p] if p == len(classes) - 1 else classes[:p] + classes[p + 2 :]
    else:
        i, j = move.i, move.j
        pa, po, reflect = _paste_sites(letters, list(map(_SYMBOL, letters)), move)
        if reflect:
            ends = classes[1:] + classes[:1]
            outer = (_arc(ends, po + 1, i) + (classes[j],) + _arc(ends, j, po))[::-1]
        else:
            outer = _arc(classes, po + 1, i) + (classes[i],) + _arc(classes, j, po)
        labels = classes[pa + 1 : j] + (classes[j],) + classes[i:pa] + outer
    n = len(labels)
    least = dict(zip(reversed(labels), range(n - 1, -1, -1)))
    return tuple(map(least.__getitem__, labels))


def _relabels(
    old: tuple[Letter, ...], new: tuple[Letter, ...], move: Rotate | Rename | FlipEdge
) -> bool:
    """True when `new` is `old` relabelled by `move` and nothing else: the
    rotated letters for a rotation, or `old` with only the two letters of
    the moved symbol changed, renamed to a symbol absent from `old` with the
    same exponents, or inverted by a flip.

    `old` is a closed word, so the moved symbol occurs exactly twice.  The
    unchanged stretches are compared as tuple slices.
    """
    if len(new) != len(old):
        return False
    if isinstance(move, Rotate):
        k = move.offset % len(old)
        return new == old[k:] + old[:k]
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


def _alignment(
    letters: tuple[Letter, ...], target: tuple[Letter, ...]
) -> tuple[int, dict[str, tuple[str, int]]] | None:
    """The smallest rotation r that relabels `letters` onto `target`, with
    the relabelling {symbol: (target symbol, sign)}, or None.

    Each symbol's target symbol and sign are read where it first occurs in
    the rotated letters, and every later letter must agree with them.  Both
    words are closed, so two symbols sent to one target symbol would give it
    four letters: the relabelling is one to one.  A canonical word is made
    of blocks of two or four letters, and rotations r and r + 4 cut the same
    blocks, so only r < 4 is tried.
    """
    if len(letters) != len(target):
        return None
    for r in range(4):
        mapping: dict[str, tuple[str, int]] = {}
        for (sym, e), (want, e_want) in zip(letters[r:] + letters[:r], target):
            name, sign = mapping.setdefault(sym, (want, e * e_want))
            if name != want or sign * e != e_want:
                break
        else:
            return r, mapping
    return None


# ---------------------------------------------------------------------------
# phase 1: vertex reduction
# ---------------------------------------------------------------------------


def _step(rw: _Rewriter, classes: tuple[int, ...], move: Cancel | CutPaste) -> tuple[int, ...]:
    """Emit a phase-1 move and return the corner classes of the word it
    makes, derived from `classes`, those of the word before."""
    letters = rw.word.letters
    rw.emit(move)
    return _derive_classes(classes, letters, move)


def _reduce_vertices(rw: _Rewriter, classes: tuple[int, ...]) -> tuple[int, ...]:
    """Phase 1, from the corner classes `classes` of the current word.  Each
    move derives the classes of the word it makes from the last ones; it
    leaves one vertex class or the two-sided word, and returns that word's
    derived classes for `span` to check against its trace."""
    guard = 8 * len(rw.word) * len(rw.word) + 64
    for _ in range(guard):
        n = len(rw.word)
        if n == 2:
            return classes
        sizes = Counter(classes)
        if len(sizes) == 1:
            return classes
        qroot = min(sizes, key=lambda r: (sizes[r], r))
        if sizes[qroot] == 1:
            p = classes.index(qroot)
            # a singleton corner is flanked by an adjacent inverse pair
            classes = _step(rw, classes, Cancel((p - 1) % n))
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
    then checked on the classes `_step` derived, and those classes of the
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
                diagonal = sorted(((p - 1) % n, (p + 1) % n))
                move = CutPaste(*diagonal, mint_fresh(word.symbols()), paste)
                new = _step(rw, classes, move)
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


def _split_crosscap_run(rw: _Rewriter, target: tuple[Letter, ...]) -> None:
    """Phase 2 on a non-orientable word: a word that already aligns onto
    its cross-cap run `target` is cut across its leading cross-cap."""
    n = len(rw.word)
    aligned = _alignment(rw.word.letters, target)
    if aligned is None:
        return
    r = aligned[0]
    fresh = mint_fresh(rw.word.symbols())
    rw.emit(CutPaste(*sorted(((r + 1) % n, (r - 1) % n)), fresh, rw.word[r - 1].symbol))


# ---------------------------------------------------------------------------
# phase 3: gathering
# ---------------------------------------------------------------------------


def _seed_split(rw: _Rewriter, pairs: dict[str, tuple[int, int]], inverse: set[str]) -> None:
    """Break the leading cross-cap across an inverse pair.

    The leading cross-cap is the first adjacent same-exponent pair, at
    `start` and `start + 1`.  The cut runs from the corner inside that pair
    to just past the first letter after it that belongs to an inverse pair,
    one of the symbols in `inverse`, reading cyclically from `start`.
    Pasting along that letter leaves the leading pair non-adjacent, so the
    next round regathers it, and the pasted-away inverse pair is gone for
    good; that is the strictly decreasing quantity.  The diagonal's name is
    minted off `pairs`, the round's pair map.
    """
    word = rw.word
    n = len(word.letters)
    start = next((p for p in range(n) if word[p] == word[p + 1]), None)
    if start is None:
        raise InternalInvariantError("seed split called without a cross-cap")
    q0 = next((q for q in range(2, n) if word[start + q].symbol in inverse), None)
    if q0 is None:
        raise InternalInvariantError("seed split called without an inverse pair")
    diagonal = sorted(((start + 1) % n, (start + q0 + 1) % n))
    rw.emit(CutPaste(*diagonal, mint_fresh(pairs), word[start + q0].symbol))


def _collect_handle(
    rw: _Rewriter, pairs: dict[str, tuple[int, int]], i: int, p: int, done: set[str]
) -> None:
    """Gather the inverse pair at positions i < p into a contiguous
    commutator block.

    The interleaver is read off `pairs`, the round's pair map of the
    current word: the first symbol not done with one letter strictly
    between i and p and the other outside.  Two cuts follow, each where its
    diagonal sits: the first, from corner i to just past p, re-pastes along
    the interleaver; the second, from the letter u to just past u', along
    the original pair, at the sites the pair map of the first cut's word
    gives, which refuses that word if it is not closed.  The two minted
    symbols u, v end up adjacent as u' v u v'.  Finished blocks are marked
    done and are never chosen as interleavers again; they cannot interleave
    anything anyway, because they stay contiguous under later cuts (cut
    boundaries always sit at letters of the pairs being worked on, never
    inside a finished block).
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
    n = len(letters)
    u = mint_fresh(pairs)
    rw.emit(CutPaste(*sorted((i, (p + 1) % n)), u, y))
    # cut from the positively oriented u to just past u'; the word is
    # orientable, so u occurs once with each exponent
    # the paste pair y has opposite exponents, so the cut reflects nothing and puts u before u'
    after = _pair_positions(rw.word.letters)
    u_plus, u_minus = after[u]
    v = mint_fresh(after)
    rw.emit(CutPaste(*sorted((u_plus, (u_minus + 1) % n)), v, x))
    done.add(u)
    done.add(v)


def _gather(rw: _Rewriter) -> None:
    """Phase 3, one pass over the pair map per round.

    Each round builds the pair map of the word it reads.  The map lists
    symbols by first letter, so the pass meets the leftmost same-exponent
    pair whose letters are not cyclically adjacent first, and gathers it
    into a cross-cap.  On its way it lists the inverse pairs not
    yet done; when no such same-exponent pair exists, the round splits the
    leading cross-cap across one of them or collects the leftmost into a
    commutator block.  `done` holds the symbols of finished commutator
    blocks; it stays empty on a non-orientable word, so one list serves the
    seed split and the handle gather alike.
    """
    done: set[str] = set()
    guard = 20 * (len(rw.word) + 2) ** 2 + 64
    for _ in range(guard):
        letters = rw.word.letters
        n = len(letters)
        pairs = _pair_positions(letters)
        todo: list[str] = []
        for s, (i, j) in pairs.items():
            if letters[i].exponent != letters[j].exponent:
                if s not in done:
                    todo.append(s)
            elif 1 < j - i < n - 1:
                rw.emit(CutPaste(i, j, mint_fresh(pairs), s))
                break
        else:
            if not todo:
                return
            if rw.orientable:
                _collect_handle(rw, pairs, *pairs[todo[0]], done)
            else:
                _seed_split(rw, pairs, set(todo))
    raise InternalInvariantError("gathering failed to terminate")


def _regroup(rw: _Rewriter, target: tuple[Letter, ...]) -> None:
    """Phases 2 and 3, which `normalize` checks as one span: the one-shot
    split of a non-orientable word, then gathering."""
    if not rw.orientable:
        _split_crosscap_run(rw, target)
    _gather(rw)


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


def _finish(rw: _Rewriter, target: tuple[Letter, ...]) -> None:
    """Phase 4: turn the word into `target`, the canonical word of the type
    read from the trace the rewrite starts with.

    A sphere word with a negative leading letter is first rotated by one.
    Then the word is rotated to its alignment onto `target`, the symbols
    whose sign is negative are flipped in order of first occurrence, and
    every symbol is renamed to its target symbol.  `normalize` then checks
    that the finished word equals `target` letter for letter.
    """
    if rw.orientable and len(target) == 2 and rw.word[0].exponent < 0:
        rw.emit(Rotate(1))
    aligned = _alignment(rw.word.letters, target)
    if aligned is None:
        raise InternalInvariantError(
            f"{rw.word.render()} does not align onto {Word(target).render()}"
        )
    r, mapping = aligned
    if r:
        rw.emit(Rotate(r))
    for sym, (_, sign) in mapping.items():
        if sign < 0:
            rw.emit(FlipEdge(sym))
    _apply_renames(rw, {sym: name for sym, (name, _) in mapping.items()})


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def normalize(word: Word) -> NormalizationResult:
    """Classify a word and return the type with a replayable certificate."""
    validate(word)
    classes = corner_classes(word)
    rw = _Rewriter(word, _euler_from_classes(classes))
    t = surface_type_from_invariants(rw.chi, rw.orientable)
    target = canonical_word(t).letters
    rw.span(_reduce_vertices, classes)
    if len(rw.word) > 2:
        rw.span(_regroup, target)
    _finish(rw, target)
    if rw.word.letters != target:
        raise InternalInvariantError(
            f"finished at {rw.word.render()}, not the canonical word of {t}"
        )
    trace = MoveTrace(word, tuple(rw.steps))
    return NormalizationResult(t, trace)
