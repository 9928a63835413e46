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
found with Booth's linear-time algorithm the first time it is needed.
Reflections are deliberately NOT identified here; reversing the reading
direction is an explicit move in the rewriting module.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter, neg
from string import ascii_lowercase
from typing import Iterator, NamedTuple, Sequence


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
    """A word or polygon set violates the closed-surface pairing condition."""


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


def _reflect(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The letters read backwards, each inverted: the same polygon traversed
    the other way round."""
    rev = letters[::-1]
    return tuple(map(
        tuple.__new__, repeat(Letter), zip(map(_SYMBOL, rev), map(neg, map(_EXPONENT, rev)))
    ))


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

    Booth's algorithm (K. S. Booth, "Lexicographically least circular
    substrings", IPL 10, 1980): a failure function over the doubled sequence,
    O(n) comparisons.
    """
    n = len(s)
    ss = s + s
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        c = ss[j]
        i = fail[j - k - 1]
        while i != -1 and c != ss[k + i + 1]:
            if c < ss[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and c != ss[k]:
            if c < ss[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


@dataclass(frozen=True, eq=False)
class Word:
    """A cyclic sequence of letters.

    The stored rotation is meaningful for traces (move positions refer to it),
    but equality and hashing identify all rotations.  Closed-surface words
    have every symbol exactly twice; pieces returned by ``cut`` legitimately
    break that, so the pairing condition is enforced by ``validate``, not by
    the constructor.  The least rotation is computed on the first equality
    test, hash or ``display`` and kept.
    """

    letters: tuple[Letter, ...]
    _key: tuple[Letter, ...] | None = field(default=None, init=False, repr=False)

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
    """Positions of the two letters of each symbol of a closed word, in
    order, keyed by symbol in order of first letter."""
    occ: dict[str, list[int]] = {}
    for k, s in enumerate(map(_SYMBOL, letters)):
        occ.setdefault(s, []).append(k)
    return {s: (p[0], p[1]) for s, p in occ.items()}


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


def mint_fresh(used: set[str]) -> str:
    """First symbol not in `used`, scanning a, b, ..., z, a1, b1, ..."""
    suffix = 0
    while True:
        tail = "" if suffix == 0 else str(suffix)
        for ch in ascii_lowercase:
            name = ch + tail
            if name not in used:
                return name
        suffix += 1


# ---------------------------------------------------------------------------
# corner tracing
#
# Corner i is the polygon vertex where side i begins, so side i runs from
# corner i to corner i+1.  A side with exponent +1 carries its arrow along
# the traversal (tail at corner i), exponent -1 against it.  Identifying the
# two sides of a pair matches tail with tail and head with head; the vertex
# classes of the quotient surface are the union-find classes of corners.
# ---------------------------------------------------------------------------


def _trace_corners(letters: Sequence[Letter], nxt: Sequence[int]) -> list[int]:
    """Least corner index of each corner's vertex class.

    Side g runs from corner g to corner nxt[g], so a multi-polygon complex
    traces like one polygon once its sides are numbered consecutively.
    Sides with equal exponents join start to start and end to end, opposite
    exponents start to end.  Roots are always linked under the smaller
    root, so parent[x] <= x throughout and one ascending pass resolves
    every corner to the least index of its class.
    """
    parent = list(range(len(letters)))
    first: dict[str, int] = {}  # first occurrence; -1 once the pair is joined
    for g, let in enumerate(letters):
        h = first.setdefault(let.symbol, g)
        if h == g:
            continue
        if h < 0:
            raise ValidationError("corner tracing needs a closed word")
        first[let.symbol] = -1
        if letters[h].exponent == let.exponent:
            links = ((h, g), (nxt[h], nxt[g]))
        else:
            links = ((h, nxt[g]), (nxt[h], g))
        for a, b in links:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    if 2 * len(first) != len(letters):
        raise ValidationError("corner tracing needs a closed word")
    for x in range(len(parent)):
        parent[x] = parent[parent[x]]
    return parent


def corner_classes(word: Word) -> tuple[int, ...]:
    """Representative corner index, per corner, under side identifications.

    The representative of a class is its least corner index.
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


@dataclass(frozen=True)
class SurfaceType:
    """Sphere, orientable genus g, or non-orientable with k cross-caps.

    `genus` counts handles when orientable (0 means the sphere) and
    cross-caps otherwise.
    """

    orientable: bool
    genus: int

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValidationError("genus must be non-negative")
        if not self.orientable and self.genus < 1:
            raise ValidationError("a non-orientable surface has at least one cross-cap")

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

    This is the cheap independent oracle: it never rewrites the word.
    """
    validate(word)
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


@dataclass(frozen=True)
class PolygonSet:
    """Polygons sharing one symbol namespace; symbols pair across the set."""

    polygons: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not self.polygons:
            raise ValidationError("a polygon set must contain at least one polygon")
        object.__setattr__(self, "polygons", tuple(self.polygons))


def validate_polygon_set(polys: PolygonSet) -> PolygonSet:
    """The closed-surface condition across the set, with `validate`'s message."""
    _check_pairing(Counter(let.symbol for poly in polys.polygons for let in poly.letters))
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
    """V - E + F over the whole complex, before any merging."""
    validate_polygon_set(polys)
    letters: list[Letter] = []
    nxt: list[int] = []
    for poly in polys.polygons:
        start = len(letters)
        letters += poly.letters
        nxt += range(start + 1, len(letters))
        nxt.append(start)
    return _euler_from_classes(_trace_corners(letters, nxt), len(polys.polygons))


def complex_is_orientable(polys: PolygonSet) -> bool:
    """True when every polygon can be oriented consistently.

    An identification is orientation-compatible when the two sides carry
    opposite exponents after each polygon's chosen orientation sign is
    applied; flipping a polygon negates all of its exponents.
    """
    validate_polygon_set(polys)
    occ: dict[str, list[tuple[int, int]]] = {}
    for p, poly in enumerate(polys.polygons):
        for let in poly.letters:
            occ.setdefault(let.symbol, []).append((p, let.exponent))
    npoly = len(polys.polygons)
    sign = [0] * npoly
    adj: list[list[tuple[int, int]]] = [[] for _ in range(npoly)]
    for pair in occ.values():
        (p1, e1), (p2, e2) = pair
        if p1 == p2:
            if e1 == e2:
                return False
            continue
        # required relation: sign[p1] * sign[p2] == -e1 * e2
        rel = -e1 * e2
        adj[p1].append((p2, rel))
        adj[p2].append((p1, rel))
    for start in range(npoly):
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            p = stack.pop()
            for q, rel in adj[p]:
                want = sign[p] * rel
                if sign[q] == 0:
                    sign[q] = want
                    stack.append(q)
                elif sign[q] != want:
                    return False
    return True


def _join_on_symbol(
    w1: tuple[Letter, ...],
    symbols1: list[str],
    w2: tuple[Letter, ...],
    symbols2: list[str],
    symbol: str,
) -> tuple[Letter, ...]:
    """Merge two polygons along `symbol`, deleting both occurrences.

    The splice underlying both paste and gluing; `symbols1` and `symbols2`
    list the symbols of `w1` and `w2`.  With opposite exponents the second
    polygon is concatenated as stored; with equal exponents it is reflected
    first, which is the only way the sides can be matched.
    """
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

    Repeatedly splices the two lowest-indexed polygons sharing the
    lexicographically least cross-polygon symbol.  Symbols paired inside a
    single polygon are internal identifications and survive into the result.
    """
    validate_polygon_set(polys)
    current: list[tuple[Letter, ...]] = [p.letters for p in polys.polygons]
    while len(current) > 1:
        shared: dict[str, list[int]] = {}
        for idx, letters in enumerate(current):
            for let in letters:
                shared.setdefault(let.symbol, []).append(idx)
        candidates = sorted(
            sym for sym, where in shared.items() if where[0] != where[-1]
        )
        if not candidates:
            raise ValidationError("polygon set is disconnected")
        sym = candidates[0]
        a, b = shared[sym][0], shared[sym][-1]
        w1, w2 = current[a], current[b]
        merged = _join_on_symbol(
            w1, list(map(_SYMBOL, w1)), w2, list(map(_SYMBOL, w2)), sym
        )
        current = [w for k, w in enumerate(current) if k not in (a, b)]
        current.insert(0, merged)
    return Word(current[0])
