"""Cyclic edge-words for closed surfaces.

A closed surface can be presented as a single polygon with an even number of
sides identified in pairs.  Walking the boundary counterclockwise and writing
one symbol per side, with exponent -1 when the side is traversed against its
identification arrow, gives a cyclic word such as ``a b a' b'`` for the torus.
This module holds the word data model, the concrete syntax (with the line
and number rules every file format shares), the combinatorial invariants
(vertex cycles, Euler characteristic, orientability), the homeomorphism-type
datatype, and the assembly of one polygon from a glued multi-polygon complex.

Words are cyclic: rotations of the letter sequence denote the same polygon,
and equality and hashing go through the lexicographically least rotation,
found when first needed by a two-candidate scan of at most 3n steps.
Reflections are deliberately NOT identified here; reversing the reading
direction is an explicit move in the rewriting module.
"""
from __future__ import annotations

import re
from collections import Counter
from itertools import count, repeat
from operator import itemgetter, neg
from string import ascii_lowercase
from typing import Container, Iterator, NamedTuple, Sequence


class SurfclassError(Exception):
    """Base class for all errors raised by this package."""


class WordSyntaxError(SurfclassError):
    """Unparseable word text at a 1-based character position (and file line)."""

    def __init__(self, message: str, position: int, line: int | None = None) -> None:
        where = f"line {line}: " if line else ""
        super().__init__(f"{where}syntax error at position {position}: {message}")
        self.message = message
        self.position = position


class ValidationError(SurfclassError):
    """Input breaks a rule: a word or polygon set violates the closed-surface
    pairing condition, a lattice operation's precondition fails, or a script
    statement cannot be read or run (``run_script`` adds its line)."""


# a name in every format: an edge symbol, a script line or a basis name
_NAME = "[A-Za-z][A-Za-z0-9_]*"
# the mark of an inverse letter, a trailing ' or ^-1
_INVERSE = r"('|\^-1)"
_IDENT = re.compile(_NAME)
_TOKEN = re.compile(rf"({_NAME}){_INVERSE}?")
# compact form: single-letter symbols run together, e.g. aba'b' or ab^-1
_COMPACT_UNIT = re.compile(rf"[A-Za-z]{_INVERSE}?")


class Letter(NamedTuple):
    """One polygon side: an opaque symbol and a direction exponent."""

    symbol: str
    exponent: int

    def inverse(self) -> "Letter":
        return Letter(self.symbol, -self.exponent)

    def render(self) -> str:
        return self.symbol + ("'" if self.exponent < 0 else "")


# a letter's symbol and exponent, for maps that run without a Python frame
# per letter; tuple.__new__(Letter, (symbol, exponent)) likewise builds a
# letter without entering Letter's Python-level __new__
_SYMBOL = itemgetter(0)
_EXPONENT = itemgetter(1)

# each letter `_reflect` has met, mapped to its inverse and back; emptied
# before it would grow past the cap, so its size stays bounded whatever
# symbols the inputs bring
_INVERSES: dict[Letter, Letter] = {}
_INVERSES_CAP = 4096


def _reflect(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The letters read backwards, each inverted: the same polygon traversed
    the other way round.

    Each inverse is looked up in `_INVERSES`.  When a letter is missing
    there, every inverse is built instead and the letters and their
    inverses are entered, the table being emptied first if they would take
    it past its cap; letters too many to fit are built and not entered.
    """
    rev = letters[::-1]
    table = _INVERSES
    try:
        return tuple(map(table.__getitem__, rev))
    except KeyError:
        pass
    out = tuple(map(
        tuple.__new__, repeat(Letter), zip(map(_SYMBOL, rev), map(neg, map(_EXPONENT, rev)))
    ))
    if 2 * len(rev) <= _INVERSES_CAP:
        if len(table) + 2 * len(rev) > _INVERSES_CAP:
            table.clear()
        table.update(zip(rev, out))
        table.update(zip(out, rev))
    return out


def _check_symbol(symbol: str) -> None:
    """Reject a symbol name that the word syntax could not spell."""
    if not _IDENT.fullmatch(symbol):
        raise ValidationError(f"bad symbol name {symbol!r}")


def _check_letters(letters: tuple[Letter, ...]) -> None:
    if not letters:
        raise ValidationError("a word must have at least one letter")
    for let in letters:
        if not isinstance(let, Letter):
            raise TypeError(f"expected Letter, got {type(let).__name__}")
        if let.exponent not in (1, -1):
            raise ValidationError(f"exponent of {let.symbol!r} must be +1 or -1")
        _check_symbol(let.symbol)


def _least_rotation(s: tuple[Letter, ...]) -> int:
    """Start of the lexicographically least rotation of `s`.

    Two candidate starts i and j are compared k letters into the doubled
    sequence.  On a mismatch, the start with the larger letter and the k
    starts after it begin no least rotation, so it jumps past them; thus i
    never passes the first least start, and holds it once j or k reaches n.
    Each step raises i + j + k, which starts at 1 and stays below 3n.
    """
    n = len(s)
    ss = s + s
    i, j, k = 0, 1, 0
    for _ in range(3 * n):
        if j >= n or k >= n:
            return i
        a, b = ss[i + k], ss[j + k]
        if a == b:
            k += 1
        elif a > b:
            i, k = i + k + 1, 0
        else:
            j, k = j + k + 1, 0
        if i == j:
            j += 1
    raise InternalInvariantError(f"least-rotation scan of {n} letters ran past {3 * n} steps")


class _Value:
    """Base of the immutable value types.  A subclass names its fields in
    ``__slots__`` and sets them in its ``__init__`` through ``object.__setattr__``.
    Values equal only the same type with equal fields, hash alike when equal,
    print as ``Type(field=value, ...)``, and copy and pickle by constructor."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Word(_Value):
    """A cyclic sequence of letters.

    The stored rotation is meaningful for traces (move positions refer to it),
    but equality and hashing identify all rotations.  Closed-surface words
    have every symbol exactly twice; pieces returned by ``cut`` legitimately
    break that, so the pairing condition is enforced by ``validate``, not by
    the constructor.  The least rotation is computed on the first equality
    test, hash or ``display`` and kept.
    """

    __slots__ = ("letters", "_key")

    def __init__(self, letters: Sequence[Letter]) -> None:
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_key", None)
        self.__post_init__()

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        _check_letters(letters)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _from_checked(cls, letters: tuple[Letter, ...]) -> "Word":
        """Wrap a nonempty tuple of letters that are already known to be valid:
        taken from a checked word, or minted under a name that passed
        `_check_symbol`."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        object.__setattr__(word, "_key", None)
        return word

    def _least(self) -> tuple[Letter, ...]:
        key = self._key
        if key is None:
            k = _least_rotation(self.letters)
            key = self.letters[k:] + self.letters[:k]
            object.__setattr__(self, "_key", key)
        return key

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i: int) -> Letter:
        return self.letters[i % len(self.letters)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._least() == other._least()

    def __hash__(self) -> int:
        return hash(self._least())

    def __repr__(self) -> str:
        return f"Word({self.render()!r})"

    def __reduce__(self) -> tuple:
        return Word, (self.letters,)

    def symbols(self) -> set[str]:
        return set(map(_SYMBOL, self.letters))

    def rotated(self, offset: int) -> "Word":
        n = len(self.letters)
        k = offset % n
        return Word._from_checked(self.letters[k:] + self.letters[:k])

    def reflected(self) -> "Word":
        return Word._from_checked(_reflect(self.letters))

    def render(self) -> str:
        """Text of the stored rotation, one token per side."""
        return " ".join(let.render() for let in self.letters)

    def display(self) -> str:
        """Text of the lexicographically least rotation."""
        return " ".join(let.render() for let in self._least())


def parse_word(text: str) -> Word:
    """Parse word text into a :class:`Word`.

    Two concrete forms are accepted.  Tokens separated by whitespace are
    identifiers with an optional trailing ``'`` or ``^-1``.  A single run of
    one-letter symbols such as ``aba'b'`` is also accepted; digits are not
    allowed there because ``a1`` would be ambiguous.
    """
    stripped = text.strip()
    if not stripped:
        raise WordSyntaxError("empty word", 1)
    tokens = list(re.finditer(r"\S+", text))
    if len(tokens) == 1:
        tok = tokens[0].group()
        if re.fullmatch(rf"(?:{_COMPACT_UNIT.pattern}){{2,}}", tok):
            return Word(tuple(
                Letter(m.group()[0], -1 if m.group(1) else 1)
                for m in _COMPACT_UNIT.finditer(tok)
            ))
    letters = []
    for tok_match in tokens:
        tok = tok_match.group()
        m = _TOKEN.fullmatch(tok)
        if m is None:
            bad = _TOKEN.match(tok)
            offset = bad.end() if bad else 0
            raise WordSyntaxError(
                f"unexpected character {tok[offset]!r}",
                tok_match.start() + offset + 1,
            )
        letters.append(Letter(m.group(1), -1 if m.group(2) else 1))
    return Word(tuple(letters))


def _check_pairing(counts: dict[str, int]) -> None:
    """Raise the pairing error naming every symbol not counted exactly twice."""
    bad = sorted((s, c) for s, c in counts.items() if c != 2)
    if bad:
        parts = [
            f"symbol {s} occurs once" if c == 1 else f"symbol {s} occurs {c} times"
            for s, c in bad
        ]
        raise ValidationError("; ".join(parts))


def validate(word: Word) -> Word:
    """Check the closed-surface condition: every symbol occurs exactly twice.

    Returns the word unchanged so call sites can chain.  The error message
    lists every offending symbol with its occurrence count.
    """
    letters = word.letters
    counts = Counter(map(_SYMBOL, letters))
    if 2 * len(counts) != len(letters) or max(counts.values()) != 2:
        _check_pairing(counts)
    return word


def _pair_positions(letters: Sequence[Letter]) -> dict[str, tuple[int, int]]:
    """The pair map: each symbol's two positions, in order, keyed in order of
    first letter.  The corner trace, the polygon-set checks, `normalize`'s
    gathering rounds and the orbit flood build it, and it checks pairing for
    them: a symbol met once, or a third time, is counted other than twice,
    so `_check_pairing` raises `validate`'s error."""
    pos: dict = {}
    for k, s in enumerate(map(_SYMBOL, letters)):
        h = pos.setdefault(s, k)
        if h != k:
            if type(h) is tuple:
                break
            # replacing a value keeps its key where the first letter put it
            pos[s] = (h, k)
    else:
        if 2 * len(pos) == len(letters):
            return pos
    _check_pairing(Counter(map(_SYMBOL, letters)))


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """The line format of traces, polygon files and scripts: each line that
    is not blank once a ``#`` comment is cut off, as (1-based line number,
    the text before the comment, stripped)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# a number in every line format: ASCII digits, with a leading minus sign
# where the format takes one
_DIGITS = "[0-9]+"
_INTEGER = re.compile("-?" + _DIGITS)


def _read_int(text: str) -> int:
    """An ASCII integer with an optional leading minus sign, else ValueError."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"expected a number, got {text!r}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's int-string digit limit
        raise ValueError(f"number is too long ({len(text.lstrip('-'))} digits)") from None


def _as_int(value: object, what: str) -> int:
    """``value`` as an int if it is an integral number (a bool or 2.0 is, a
    digit string is not), else ValidationError naming ``what``."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return n


def _names() -> Iterator[str]:
    """Every name `mint_fresh` may pick, in the order it tries them:
    a, b, ..., z, then a1, b1, ..., z1, a2, ..."""
    yield from ascii_lowercase
    for suffix in count(1):
        tail = str(suffix)
        for ch in ascii_lowercase:
            yield ch + tail


def mint_fresh(used: Container[str]) -> str:
    """First symbol not in `used`, scanning a, b, ..., z, a1, b1, ..."""
    for name in _names():
        if name not in used:
            return name


# ---------------------------------------------------------------------------
# corner tracing
#
# Corner i is the polygon vertex where side i begins, so side i runs from
# corner i to corner i+1.  A side with exponent +1 carries its arrow along
# the traversal (tail at corner i), exponent -1 against it.  Identifying the
# two sides of a pair matches tail with tail and head with head.  Each corner
# joins two side ends, the start of the side leaving it and the end of the
# side entering it, and each identification joins two side ends of a pair,
# so the side ends and these joins form disjoint cycles: a vertex class of
# the quotient surface is the set of corners on one cycle.
# ---------------------------------------------------------------------------


def _trace_corners(letters: Sequence[Letter], nxt: Sequence[int]) -> list[int]:
    """Least corner index of each corner's vertex class.

    Side g runs from corner g to corner nxt[g], and the sides of each
    polygon are numbered consecutively, so a multi-polygon complex traces
    like one polygon.  Each side's partner, the other letter of its symbol,
    is read off the pair map, which refuses a word that is not closed.
    Then each class is walked once, from its least corner (the first corner
    not yet reached): leave a corner by the side end not yet used, cross to
    the partner side (equal exponents join start to start and end to end,
    opposite exponents start to end) and arrive at the corner of that end,
    until the walk is back where it began.  Each corner is visited once, so
    a walk takes at most n steps; one that does not close within them means
    `nxt` is not a permutation, and raises InternalInvariantError.
    """
    n = len(letters)
    mate = [0] * n
    for a, b in _pair_positions(letters).values():
        mate[a], mate[b] = b, a
    # the side that ends at corner c: in one polygon side c - 1, where index
    # -1 is the last side (only one polygon has nxt[-1] == 0); in a complex,
    # read off nxt, which must then be a permutation
    prv = range(-1, n - 1) if nxt[-1] == 0 else dict(zip(nxt, range(n)))
    if len(prv) != n:
        raise InternalInvariantError(f"the successor map of {n} sides is not a permutation")
    rep = [-1] * n
    for c0 in range(n):
        if rep[c0] >= 0:
            continue
        rep[c0] = c0
        side = c0
        at_start = True  # whether the walk leaves by the start of `side`
        for _ in range(n):
            h = mate[side]
            # partners share their symbol, so equal letters mean equal exponents
            if (letters[h] == letters[side]) is at_start:
                # at the start of h, corner h; leave by the side ending there
                if h == c0:
                    break
                rep[h] = c0
                side = prv[h]
                at_start = False
            else:
                # at the end of h, corner nxt[h]; leave by the side starting there
                side = nxt[h]
                if side == c0:
                    break
                rep[side] = c0
                at_start = True
        else:
            raise InternalInvariantError(
                f"the walk from corner {c0} did not close in {n} steps"
            )
    return rep


def corner_classes(word: Word) -> tuple[int, ...]:
    """Representative corner index, per corner, under side identifications.

    The representative of a class is its least corner index.  A word that
    is not closed raises ValidationError.
    """
    n = len(word.letters)
    return tuple(_trace_corners(word.letters, [*range(1, n), 0]))


def _euler_from_classes(classes: Sequence[int], faces: int = 1) -> int:
    """V - E + F of a closed complex from its corner classes.

    V counts the distinct representatives, one per vertex class; E is half
    the side count, since tracing accepts only closed complexes; F is the
    number of polygons.
    """
    return len(set(classes)) - len(classes) // 2 + faces


def euler_characteristic(word: Word) -> int:
    """V - E + F with one face; independent of any rewriting."""
    return _euler_from_classes(corner_classes(word))


def is_orientable(word: Word) -> bool:
    """A same-exponent pair is a Moebius band; orientable means none exists.

    Two letters of one symbol with the same exponent are equal letters, so
    this reads as: no letter repeats.
    """
    letters = word.letters
    return len(set(letters)) == len(letters)


# ---------------------------------------------------------------------------
# homeomorphism types
# ---------------------------------------------------------------------------


class SurfaceType(_Value):
    """Sphere, orientable genus g, or non-orientable with k cross-caps.

    `genus` counts handles when orientable (0 means the sphere) and
    cross-caps otherwise.
    """

    __slots__ = ("orientable", "genus")

    def __init__(self, orientable: bool, genus: int) -> None:
        genus = _as_int(genus, "genus")
        if genus < 0:
            raise ValidationError("genus must be non-negative")
        if not orientable and genus < 1:
            raise ValidationError("a non-orientable surface has at least one cross-cap")
        object.__setattr__(self, "orientable", orientable)
        object.__setattr__(self, "genus", genus)

    @classmethod
    def sphere(cls) -> "SurfaceType":
        return cls(True, 0)

    @classmethod
    def orientable_genus(cls, g: int) -> "SurfaceType":
        return cls(True, g)

    @classmethod
    def non_orientable(cls, k: int) -> "SurfaceType":
        return cls(False, k)

    @property
    def is_sphere(self) -> bool:
        return self.orientable and self.genus == 0

    @property
    def euler(self) -> int:
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus

    def describe(self) -> str:
        if self.is_sphere:
            body = "sphere"
        elif self.orientable:
            body = f"orientable genus {self.genus}"
            if self.genus == 1:
                body += " (torus)"
        else:
            plural = "s" if self.genus != 1 else ""
            body = f"non-orientable, {self.genus} cross-cap{plural}"
            if self.genus == 1:
                body += " (projective plane)"
            elif self.genus == 2:
                body += " (Klein bottle)"
        return f"{body}, χ={self.euler}"

    def __str__(self) -> str:
        if self.is_sphere:
            return "Sphere"
        if self.orientable:
            return f"Orientable({self.genus})"
        return f"NonOrientable({self.genus})"


class InternalInvariantError(SurfclassError):
    """A computation broke one of its own invariants; always a bug."""


def surface_type_from_invariants(chi: int, orientable: bool) -> SurfaceType:
    if orientable:
        if chi % 2 != 0:
            raise InternalInvariantError(
                f"orientable surface with odd Euler characteristic {chi}"
            )
        return SurfaceType(True, (2 - chi) // 2)
    return SurfaceType(False, 2 - chi)


def classify_by_invariants(word: Word) -> SurfaceType:
    """Type from Euler characteristic plus orientability alone.

    This is the cheap independent oracle: it never rewrites the word.  The
    corner trace's pair map refuses a word that is not closed.
    """
    return surface_type_from_invariants(euler_characteristic(word), is_orientable(word))


def canonical_word(t: SurfaceType) -> Word:
    """The normal-form word of a type, with subscripted symbols a1, b1, ..."""
    if t.is_sphere:
        return Word((Letter("a1", 1), Letter("a1", -1)))
    letters: list[Letter] = []
    if t.orientable:
        for i in range(1, t.genus + 1):
            a, b = f"a{i}", f"b{i}"
            letters += [Letter(a, 1), Letter(b, 1), Letter(a, -1), Letter(b, -1)]
    else:
        for i in range(1, t.genus + 1):
            a = f"a{i}"
            letters += [Letter(a, 1), Letter(a, 1)]
    return Word(tuple(letters))


# ---------------------------------------------------------------------------
# multi-polygon complexes
# ---------------------------------------------------------------------------


class PolygonSet(_Value):
    """Polygons sharing one symbol namespace; symbols pair across the set."""

    __slots__ = ("polygons",)

    def __init__(self, polygons: Sequence[Word]) -> None:
        if not polygons:
            raise ValidationError("a polygon set must contain at least one polygon")
        object.__setattr__(self, "polygons", tuple(polygons))


def _layout(polys: PolygonSet) -> tuple[list[Letter], list[int], list[int]]:
    """The set's polygons laid end to end: their letters, each side's
    successor in its own polygon, and each side's polygon.  The pair map of
    these letters pairs the set's sides, and refuses a set that is not
    closed with `validate`'s error."""
    letters: list[Letter] = []
    nxt: list[int] = []
    owner: list[int] = []
    for p, poly in enumerate(polys.polygons):
        start = len(letters)
        letters += poly.letters
        nxt += range(start + 1, len(letters))
        nxt.append(start)
        owner += [p] * len(poly.letters)
    return letters, nxt, owner


def _root(parent: list[int], k: int) -> int:
    """The root of k's set in a union-find forest, halving its path."""
    while parent[k] != k:
        parent[k] = k = parent[parent[k]]
    return k


def validate_polygon_set(polys: PolygonSet) -> PolygonSet:
    """The closed-surface condition across the set, with `validate`'s message."""
    _pair_positions(_layout(polys)[0])
    return polys


def parse_polygon_file(text: str) -> PolygonSet:
    """One word per line; blank lines and ``#`` comments are ignored."""
    polygons = []
    for lineno, line in _lines(text):
        try:
            polygons.append(parse_word(line))
        except WordSyntaxError as exc:
            raise WordSyntaxError(exc.message, exc.position, lineno) from exc
    if not polygons:
        raise ValidationError("no polygons in input")
    return PolygonSet(tuple(polygons))


def complex_euler(polys: PolygonSet) -> int:
    """V - E + F over the whole complex, before any merging.  The corner
    trace's pair map refuses a set that is not closed."""
    letters, nxt, _ = _layout(polys)
    return _euler_from_classes(_trace_corners(letters, nxt), len(polys.polygons))


def complex_is_orientable(polys: PolygonSet) -> bool:
    """True when every polygon can be oriented consistently.

    Flipping a polygon negates all of its exponents, and a side pair is
    orientation-compatible when its exponents are opposite after the flips.
    This is a two-colouring by union-find: node 2p is polygon p as read and
    2p + 1 is p flipped.  A pair with equal exponents joins each node of one
    polygon to the other node of the other, opposite exponents join like to
    like, and a pair inside one polygon the same way.  The complex is
    orientable unless some 2p and 2p + 1 end up in one set.
    """
    letters, _, owner = _layout(polys)
    parent = list(range(2 * len(polys.polygons)))
    for a, b in _pair_positions(letters).values():
        # partners share their symbol, so equal letters mean equal exponents
        p, q, same = owner[a], owner[b], letters[a] == letters[b]
        parent[_root(parent, 2 * p)] = _root(parent, 2 * q + same)
        parent[_root(parent, 2 * p + 1)] = _root(parent, 2 * q + 1 - same)
    return all(_root(parent, k) != _root(parent, k + 1) for k in range(0, len(parent), 2))


def _join_on_symbol(
    w1: tuple[Letter, ...], w2: tuple[Letter, ...], symbol: str
) -> tuple[Letter, ...]:
    """Merge two polygons along `symbol`, deleting both occurrences.

    The splice underlying both paste and gluing.  With opposite exponents the
    second polygon is concatenated as stored; with equal exponents it is
    reflected first, which is the only way the sides can be matched.
    """
    symbols1, symbols2 = list(map(_SYMBOL, w1)), list(map(_SYMBOL, w2))
    if symbols1.count(symbol) != 1 or symbols2.count(symbol) != 1:
        raise ValidationError(
            f"symbol {symbol} must occur exactly once in each polygon"
        )
    i, j = symbols1.index(symbol), symbols2.index(symbol)
    if w1[i].exponent == w2[j].exponent:
        w2 = _reflect(w2)
        j = len(w2) - 1 - j
    # rotate the first so `symbol` is last, the second so it is first
    left = w1[i + 1 :] + w1[:i]
    right = w2[j + 1 :] + w2[:j]
    return left + right


def glue_polygons(polys: PolygonSet) -> Word:
    """Merge a connected polygon set into one polygon word.

    The symbols are taken in sorted order, and each one whose two sides lie
    in different components splices those components along it (Kruskal's
    order on the dual graph): a merge only turns cross-component symbols
    into internal ones, so each step splices along the least symbol still
    joining two components.  Of the two, the left is the most recently
    merged component, or else the one holding the lower-indexed polygon.
    Symbols paired inside a single polygon are internal identifications and
    survive into the result.  A tree of polygons, whose merges use up every
    side, is a sphere and glues to ``s s'`` for the last merged symbol s.
    """
    letters, _, owner = _layout(polys)
    words = [p.letters for p in polys.polygons]
    parent = list(range(len(words)))
    place = [-p for p in parent]  # the step of the last merge, or -index if none
    merged: list[str] = []
    for s, (i, j) in sorted(_pair_positions(letters).items()):
        a, b = _root(parent, owner[i]), _root(parent, owner[j])
        if a != b:
            a, b = (a, b) if place[a] > place[b] else (b, a)
            merged.append(s)
            words[a] = _join_on_symbol(words[a], words[b], s)
            parent[b], place[a] = a, len(merged)
    if len(merged) < len(words) - 1:
        raise ValidationError("polygon set is disconnected")
    return Word(words[_root(parent, 0)] or (Letter(merged[-1], 1), Letter(merged[-1], -1)))
