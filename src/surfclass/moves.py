"""Elementary cut-and-paste moves on cyclic words, with replayable traces.

Every move is invertible and preserves both the Euler characteristic and
orientability, which is what makes a recorded move sequence a classification
certificate: replaying it from the initial word must land on the canonical
form, and any tampering is caught because each intermediate is revalidated.

Move positions always refer to the stored rotation of the word they are
applied to.  Rotations are themselves moves, so a trace pins down every
intermediate exactly, not merely up to cyclic symmetry.

A move builds its result from letters of the word it is applied to, which
were checked when that word was made, so only a name the move introduces
(a cut's diagonal, a rename's target, an inserted pair) is checked again.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Callable, Union

from .words import (
    Letter,
    SurfclassError,
    ValidationError,
    Word,
    _SYMBOL,
    _Value,
    _check_symbol,
    _join_on_symbol,
    _lines,
    _reflect,
    _read_int,
    validate,
)


class MoveError(SurfclassError):
    """A move's parameters do not fit the word it is applied to."""


class ReplayError(SurfclassError):
    """A trace produced an invalid intermediate; the certificate is broken."""


# ---------------------------------------------------------------------------
# move vocabulary
# ---------------------------------------------------------------------------


class _Step(_Value):
    """A move renders as its trace keyword followed by its fields in order;
    `_GRAMMAR` holds the keywords."""

    __slots__ = ()

    def render(self) -> str:
        line, fields = _LINE[type(self)]
        return line % fields(self)


class Rotate(_Step):
    __slots__ = ("offset",)

    def __init__(self, offset: int) -> None:
        object.__setattr__(self, "offset", offset)


class Reflect(_Step):
    """Read the word backwards, inverting every letter."""

    __slots__ = ()


class Rename(_Step):
    __slots__ = ("old", "new")

    def __init__(self, old: str, new: str) -> None:
        object.__setattr__(self, "old", old)
        object.__setattr__(self, "new", new)


class FlipEdge(_Step):
    """Negate both occurrences of one symbol, reversing that side's arrow."""

    __slots__ = ("symbol",)

    def __init__(self, symbol: str) -> None:
        object.__setattr__(self, "symbol", symbol)


class Cancel(_Step):
    """Delete the adjacent inverse pair at (position, position+1)."""

    __slots__ = ("position",)

    def __init__(self, position: int) -> None:
        object.__setattr__(self, "position", position)


class Insert(_Step):
    """Insert a fresh inverse pair before `position`; undoes Cancel."""

    __slots__ = ("position", "symbol")

    def __init__(self, position: int, symbol: str) -> None:
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "symbol", symbol)


class CutPaste(_Step):
    """Cut along a diagonal from corner i to corner j, then re-paste.

    The diagonal becomes a fresh side `fresh` in both pieces; the pieces are
    rejoined along `paste`, whose two occurrences must end up in different
    pieces.  One CutPaste keeps the side count constant: `fresh` enters the
    word and `paste` leaves it.
    """

    __slots__ = ("i", "j", "fresh", "paste")

    def __init__(self, i: int, j: int, fresh: str, paste: str) -> None:
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "fresh", fresh)
        object.__setattr__(self, "paste", paste)


Move = Union[Rotate, Reflect, Rename, FlipEdge, Cancel, Insert, CutPaste]

# the trace grammar: each keyword with its move and one reader per field,
# which parses that field's text; `_Step.render` writes the line back from
# the format `_LINE` builds for each move, filled by a getter of its fields
_GRAMMAR: dict[str, tuple[type, tuple[Callable[[str], object], ...]]] = {
    "rotate": (Rotate, (_read_int,)),
    "reflect": (Reflect, ()),
    "rename": (Rename, (str, str)),
    "flipedge": (FlipEdge, (str,)),
    "cancel": (Cancel, (_read_int,)),
    "insert": (Insert, (_read_int, str)),
    "cutpaste": (CutPaste, (_read_int, _read_int, str, str)),
}
_LINE = {move: (" ".join([keyword] + ["%s"] * len(readers)),
                attrgetter(*move.__slots__) if readers else lambda step: ())
         for keyword, (move, readers) in _GRAMMAR.items()}


# ---------------------------------------------------------------------------
# cut and paste
# ---------------------------------------------------------------------------


def _check_cut(symbols: list[str], i: int, j: int, fresh: str) -> None:
    """The guards of a cut from corner i to corner j along a new side
    `fresh`, on a word with these symbols."""
    n = len(symbols)
    if n < 3:
        raise MoveError("cannot cut a polygon with fewer than 3 sides")
    if not (0 <= i < n and 0 <= j < n):
        raise MoveError(f"cut positions {i},{j} out of range for length {n}")
    if i == j:
        raise MoveError("cut needs two distinct corners; a piece would be empty")
    if fresh in symbols:
        raise MoveError(f"diagonal symbol {fresh} already occurs in the word")
    _check_symbol(fresh)


def cut(word: Word, i: int, j: int, fresh: str) -> tuple[Word, Word]:
    """Split a polygon along the diagonal from corner i to corner j.

    Returns (sides i..j-1 then the diagonal, the diagonal reversed then the
    remaining sides).  Gluing the two pieces back along `fresh` recovers the
    original cyclic word.
    """
    letters = word.letters
    _check_cut(list(map(_SYMBOL, letters)), i, j, fresh)
    # read from corner i: the first piece is the first k sides
    k = (j - i) % len(letters)
    letters = letters[i:] + letters[:i]
    return (
        Word._from_checked(letters[:k] + (Letter(fresh, 1),)),
        Word._from_checked((Letter(fresh, -1),) + letters[k:]),
    )


def _arc(seq: tuple, start: int, stop: int) -> tuple:
    """The entries of `seq` read cyclically from `start` up to, not
    including, `stop`."""
    return seq[start:stop] if start <= stop else seq[start:] + seq[:stop]


def _paste_pair(i: int, j: int, a: int, b: int) -> tuple[int, int] | None:
    """(pa, po) for a cut from corner i to corner j (i < j) and a paste
    symbol at positions a < b, or None when its two letters do not lie one
    inside the sides [i, j) and one outside them.

    pa is the paste letter inside [i, j) and po the one outside.  Since
    a < b, one letter inside and one outside is either a inside with b >= j,
    or b inside with a < i.  This is the one place the case analysis of a
    paste is written: `_paste_sites` and the orbit flood read it.
    """
    if i <= a < j <= b:
        return a, b
    if a < i <= b < j:
        return b, a
    return None


def _paste_sites(
    letters: tuple[Letter, ...], symbols: list[str], move: CutPaste
) -> tuple[int, int, bool]:
    """Where a cut from corner i to corner j (i < j) re-pastes along a
    symbol other than its diagonal: (pa, po, reflect).

    The cut leaves sides [i, j) on one piece and the rest, read on from j,
    on the other.  pa and po are the paste letters `_paste_pair` finds, so
    the outer sides after po run from po + 1 to i and those before it from
    j to po.  `reflect` says whether the two paste letters have equal
    exponents, so that the outer piece is turned over.  `symbols` lists the
    symbols of `letters`.  `_cut_paste` splices letters by these sites, and
    normalization splices corner labels by them.
    """
    paste_symbol = move.paste
    a = b = -1
    if symbols.count(paste_symbol) == 2:
        a = symbols.index(paste_symbol)
        b = symbols.index(paste_symbol, a + 1)
    sites = _paste_pair(move.i, move.j, a, b)
    if sites is None:
        raise MoveError(f"symbol {paste_symbol} must occur exactly once in each polygon")
    return sites + (letters[a].exponent == letters[b].exponent,)


def _splice(
    letters: tuple[Letter, ...], i: int, j: int, pa: int, po: int, reflect: bool, fresh: str
) -> tuple[Letter, ...]:
    """The letters L of a word cut from corner i to corner j along a
    diagonal `fresh` and re-pasted at the sites (pa, po, reflect) that
    `_paste_sites` finds: L[pa+1:j] + fresh + L[i:pa] + after + fresh' +
    before, where `after` runs from po + 1 to i and `before` from j to po,
    cyclically; when `reflect` is set the outer part after + fresh' + before
    is reflected.  Nothing is checked: the caller vouches for the sites and
    for `fresh`, a valid name that no letter outside the two paste letters
    spells.
    """
    outer = _arc(letters, po + 1, i) + (Letter(fresh, -1),) + _arc(letters, j, po)
    if reflect:
        outer = _reflect(outer)
    return letters[pa + 1 : j] + (Letter(fresh, 1),) + letters[i:pa] + outer


def _cut_paste(letters: tuple[Letter, ...], move: CutPaste) -> tuple[Letter, ...]:
    """The letters of `cut` then `paste`, spliced from the word's letters by
    `_splice` at the sites `_paste_sites` finds.

    Pasting along the diagonal itself undoes the cut, leaving the word
    rotated to start at corner i.  The guards, and their messages, are the
    cut's and then the paste's.
    """
    i, j, fresh = move.i, move.j, move.fresh
    if not i < j:
        raise MoveError("cut positions must satisfy i < j")
    symbols = list(map(_SYMBOL, letters))
    _check_cut(symbols, i, j, fresh)
    if move.paste == fresh:
        return letters[i:] + letters[:i]
    return _splice(letters, i, j, *_paste_sites(letters, symbols, move), fresh)


def paste(w1: Word, w2: Word, symbol: str) -> Word:
    """Glue two polygons along `symbol`, which must occur once in each.

    Opposite exponents join directly; equal exponents force a reflection of
    the second polygon before joining.
    """
    try:
        return Word(_join_on_symbol(w1.letters, w2.letters, symbol))
    except ValidationError as exc:
        raise MoveError(str(exc)) from exc


# ---------------------------------------------------------------------------
# applying moves
# ---------------------------------------------------------------------------


def _respell(
    letters: tuple[Letter, ...], symbols: list[str], old: str, new: str, sign: int
) -> tuple[Letter, ...]:
    """`letters` with each letter of `old` replaced by a letter of `new`
    whose exponent is `sign` times the replaced one.

    `symbols` lists the symbols of `letters`; the letters between
    occurrences are copied as tuple slices.
    """
    out: tuple[Letter, ...] = ()
    start = 0
    for _ in range(symbols.count(old)):
        k = symbols.index(old, start)
        out += letters[start:k] + (tuple.__new__(Letter, (new, sign * letters[k][1])),)
        start = k + 1
    return out + letters[start:]


def apply_move(word: Word, move: Move) -> Word:
    """Apply one elementary move; raises MoveError on bad parameters.

    A name the move introduces that is not a valid symbol raises
    ValidationError, as constructing the word would.
    """
    letters = word.letters
    n = len(letters)
    if isinstance(move, CutPaste):
        return Word._from_checked(_cut_paste(letters, move))
    if isinstance(move, Rotate):
        return word.rotated(move.offset)
    if isinstance(move, Reflect):
        return word.reflected()
    if isinstance(move, Rename):
        symbols = list(map(_SYMBOL, letters))
        if move.old not in symbols:
            raise MoveError(f"symbol {move.old} does not occur")
        if move.new == move.old:
            raise MoveError("rename must change the symbol")
        if move.new in symbols:
            raise MoveError(f"symbol {move.new} already occurs")
        _check_symbol(move.new)
        return Word._from_checked(_respell(letters, symbols, move.old, move.new, 1))
    if isinstance(move, FlipEdge):
        symbols = list(map(_SYMBOL, letters))
        if move.symbol not in symbols:
            raise MoveError(f"symbol {move.symbol} does not occur")
        return Word._from_checked(
            _respell(letters, symbols, move.symbol, move.symbol, -1)
        )
    if isinstance(move, Cancel):
        if n <= 2:
            raise MoveError("cancel on a word of length 2 would empty the polygon")
        p = move.position
        if not 0 <= p < n:
            raise MoveError(f"cancel position {p} out of range for length {n}")
        a, b = word[p], word[p + 1]
        if a.symbol != b.symbol or a.exponent != -b.exponent:
            raise MoveError(
                f"letters at {p},{(p + 1) % n} are {a.render()},{b.render()}, "
                "not an adjacent inverse pair"
            )
        if p == n - 1:
            return Word._from_checked(letters[1:p])
        return Word._from_checked(letters[:p] + letters[p + 2 :])
    if isinstance(move, Insert):
        if not 0 <= move.position <= n:
            raise MoveError(
                f"insert position {move.position} out of range for length {n}"
            )
        if move.symbol in word.symbols():
            raise MoveError(f"symbol {move.symbol} already occurs")
        _check_symbol(move.symbol)
        p = move.position
        pair = (Letter(move.symbol, 1), Letter(move.symbol, -1))
        return Word._from_checked(letters[:p] + pair + letters[p:])
    raise MoveError(f"unknown move {move!r}")


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


class MoveTrace(_Value):
    """A classification certificate: an initial word and a move sequence."""

    __slots__ = ("initial", "steps")

    def __init__(self, initial: Word, steps: tuple[Move, ...]) -> None:
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "steps", steps)

    def render(self) -> str:
        return "\n".join(step.render() for step in self.steps)


def replay(trace: MoveTrace) -> Word:
    """Re-run a trace, revalidating every intermediate word.

    Any parameter that no longer fits, or any intermediate that stops being a
    closed-surface word, raises ReplayError.
    """
    word = trace.initial
    try:
        validate(word)
    except ValidationError as exc:
        raise ReplayError(f"initial word invalid: {exc}") from exc
    for k, step in enumerate(trace.steps, start=1):
        try:
            word = apply_move(word, step)
            validate(word)
        except (MoveError, ValidationError) as exc:
            raise ReplayError(f"step {k} ({step.render()}): {exc}") from exc
    return word


def parse_trace(text: str, initial: Word) -> MoveTrace:
    """Parse the line-oriented trace format back into a MoveTrace."""
    steps: list[Move] = []
    for lineno, line in _lines(text):
        op, *args = line.split()
        move, readers = _GRAMMAR.get(op, (None, None))
        try:
            if readers is None:
                raise ValueError(f"unknown move {line!r}")
            if len(args) != len(readers):
                fields = f"{len(readers)} field" + ("s" if len(readers) != 1 else "")
                raise ValueError(f"{op} takes {fields}, got {len(args)}")
            steps.append(move(*[read(arg) for read, arg in zip(readers, args)]))
        except ValueError as exc:
            raise MoveError(f"trace line {lineno}: {exc}") from exc
    return MoveTrace(initial, tuple(steps))
