"""Integer intersection lattices for rational complex surfaces.

A surface here is a symbolic object: a starting base (the projective plane or
a Hirzebruch surface) together with the integer lattice its divisor classes
live in, the intersection form on that lattice, a canonical class, and a set
of named line classes being followed through the construction.  Blowing up a
point adjoins an exceptional generator of square -1; blowing down a -1 line
passes to the orthogonal complement of its class.  Everything is exact
integer arithmetic; the only floating point in this module is the pair of
chart maps used for the bundle cocycle checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import mul, ne
from types import SimpleNamespace
from typing import Iterable, List, Sequence, Tuple

from .words import InternalInvariantError, ValidationError, _as_int, _Value


# ---------------------------------------------------------------------------
# line bundles over CP^1 and chart bookkeeping


def cocycle_at(n: int, z: complex) -> complex:
    """Transition multiplier z^(-n) of the degree-``n`` line bundle O(n) over
    CP^1, glued from two charts by this cocycle, at overlap coordinate ``z``."""
    if z == 0:
        raise ValidationError("cocycle is only defined away from z = 0")
    return complex(z) ** (-n)


def blowup_chart_transition(t: complex, u: complex) -> Tuple[complex, complex]:
    """Chart change of the blow-up of the plane at the origin.

    The two charts are glued by (t, u) -> (1/t, t*u); the fiber multiplier t
    is the degree -1 cocycle, which is how the exceptional curve acquires its
    normal bundle.
    """
    if t == 0:
        raise ValidationError("chart overlap excludes t = 0")
    t = complex(t)
    return (1 / t, t * complex(u))


class BaseSurface(_Value):
    """Minimal rational surface: the projective plane or a Hirzebruch
    surface of non-negative index, the base a script starts from and the
    answer a reduction names."""

    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int = 0) -> None:
        if kind not in ("cp2", "hirzebruch"):
            raise ValidationError(f"unknown base surface kind {kind!r}")
        index = _as_int(index, "base surface index")
        if kind == "cp2" and index != 0:
            raise ValidationError("the projective plane carries no index")
        if kind == "hirzebruch" and index < 0:
            raise ValidationError("Hirzebruch index must be non-negative")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)

    @classmethod
    def cp2(cls) -> "BaseSurface":
        return cls("cp2")

    @classmethod
    def hirzebruch(cls, n: int) -> "BaseSurface":
        return cls("hirzebruch", n)

    @property
    def is_cp2(self) -> bool:
        return self.kind == "cp2"

    @property
    def rank(self) -> int:
        return 1 if self.is_cp2 else 2

    def __str__(self) -> str:
        return "CP2" if self.is_cp2 else f"Hirzebruch({self.index})"


def projectivize(a: int, b: int) -> BaseSurface:
    """Base surface of the projectivized rank-2 bundle O(a)+O(b) over CP^1.

    Twisting by a line bundle leaves the projectivization unchanged, so only
    the degree gap matters and the index can be normalized non-negative.
    """
    return BaseSurface.hirzebruch(abs(a - b))


# ---------------------------------------------------------------------------
# divisor classes


class DivisorClass(_Value):
    """Integer coordinate vector in a surface's current lattice basis."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]) -> None:
        object.__setattr__(self, "coords", tuple([_as_int(c, "class coordinate") for c in coords]))

    @classmethod
    def _from_checked(cls, coords: Tuple[int, ...]) -> "DivisorClass":
        """Wrap a tuple of coordinates that are already ints: computed by
        integer arithmetic from the coordinates of checked classes."""
        dc = object.__new__(cls)
        object.__setattr__(dc, "coords", coords)
        return dc

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple([a + b for a, b in zip(self.coords, other.coords, strict=True)]))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple([a - b for a, b in zip(self.coords, other.coords, strict=True)]))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(tuple([k * a for a in self.coords]))

    def render(self, names: Sequence[str]) -> str:
        """Write the class as a signed combination of basis names."""
        parts = []
        for c, nm in zip(self.coords, names, strict=True):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 else str(abs(c))
            if not parts:
                parts.append(("-" if c < 0 else "") + mag + nm)
            else:
                parts.append(("- " if c < 0 else "+ ") + mag + nm)
        return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# rational surfaces


# the one dataclass among the value types, so that dataclasses.replace re-runs its checks
@dataclass(frozen=True)
class RationalSurface:
    """A rational surface presented by its Picard lattice.

    ``base`` records where the construction started.  After blow-downs the
    current lattice is authoritative and ``base`` may no longer be the true
    minimal model; the classifier in :mod:`surfclass.minimal` reads the
    lattice, not this tag.  ``tracked`` is insertion-ordered, which fixes the
    contraction order of the minimal-model procedure.  The operations and a
    script's statements change a working copy in lists (``_working``), and
    a surface is built only where one is handed out.
    """

    base: BaseSurface
    basis: Tuple[str, ...]
    gram: Tuple[Tuple[int, ...], ...]
    canonical: DivisorClass
    tracked: Tuple[Tuple[str, DivisorClass], ...]

    def __post_init__(self):
        n = len(self.basis)
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise InternalInvariantError("gram matrix shape disagrees with basis")
        if any(row != col for row, col in zip(self.gram, zip(*self.gram))):
            raise InternalInvariantError("intersection form must be symmetric")
        if len(self.canonical.coords) != n:
            raise InternalInvariantError("canonical class has wrong dimension")
        for nm, cls in self.tracked:
            if len(cls.coords) != n:
                raise InternalInvariantError(f"tracked line {nm} has wrong dimension")
        if len({nm for nm, _ in self.tracked}) != len(self.tracked):
            raise InternalInvariantError("tracked line names must be distinct")
        if self.rank < self.base.rank:
            raise InternalInvariantError("lattice rank below the recorded base")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def blowups(self) -> int:
        return self.rank - self.base.rank

    @property
    def is_even(self) -> bool:
        """Whether every class has even square.  x.x is congruent to
        sum x_i g_ii mod 2, so the diagonal decides it."""
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def k_squared(self) -> int:
        return intersect(self, self.canonical, self.canonical)

    def tracked_class(self, name: str) -> DivisorClass:
        for nm, cls in self.tracked:
            if nm == name:
                return cls
        raise ValidationError(f"unknown line name {name!r}")


def make_base(b: BaseSurface) -> RationalSurface:
    """Starting lattice of a minimal base, with its standard lines tracked."""
    if b.is_cp2:
        return RationalSurface(
            base=b,
            basis=("H",),
            gram=((1,),),
            canonical=DivisorClass((-3,)),
            tracked=(("H", DivisorClass((1,))),),
        )
    n = b.index
    return RationalSurface(
        base=b,
        basis=("S", "F"),
        gram=((-n, 1), (1, 0)),
        canonical=DivisorClass((-2, -(n + 2))),
        tracked=(("S", DivisorClass((1, 0))), ("F", DivisorClass((0, 1)))),
    )


def _dot(gram: Sequence[Sequence[int]], left: Sequence[int], right: Sequence[int]) -> int:
    """left . right under the Gram rows ``gram``, for tuples and lists alike.

    Each nonzero coordinate a_i of one class contributes a_i (G_i . b), one
    dot product of a Gram row with the other class b.  The form is
    symmetric, so the sum runs over the class with fewer nonzero
    coordinates, and its cost is that support times the rank, with the
    inner products taken at C level.
    """
    if left.count(0) < right.count(0):
        left, right = right, left
    return sum([left[i] * sum(map(mul, gram[i], right)) for i in compress(range(len(left)), left)])


def intersect(surf: RationalSurface, c1: DivisorClass, c2: DivisorClass) -> int:
    """Intersection number c1 . c2 under the surface's form."""
    n = surf.rank
    if len(c1.coords) != n or len(c2.coords) != n:
        raise ValidationError(
            f"class dimension mismatch: lattice rank {n}, "
            f"got {len(c1.coords)} and {len(c2.coords)}"
        )
    return _dot(surf.gram, c1.coords, c2.coords)


def blow_up(surf: RationalSurface, through: Iterable[str] = ()) -> RationalSurface:
    """Blow up a point, optionally lying on the named tracked lines: run
    ``_blow_up`` on a copy of the lattice."""
    if isinstance(through, str):
        raise ValidationError(
            f"through must be a sequence of line names, got the string {through!r}"
        )
    lat = _working(surf)
    _blow_up(lat, through)
    return _surface(lat)


def _working(surf: RationalSurface) -> SimpleNamespace:
    """A working lattice: the surface's ``base``, and its basis ``names``,
    ``gram`` rows, ``canonical`` class and ``tracked`` classes, the last an
    insertion-ordered dict of name to coordinates, copied into lists that
    ``_blow_up`` and ``_contract`` change in place.  A script holds one from
    its base statement to its last."""
    return SimpleNamespace(
        base=surf.base, names=list(surf.basis), gram=list(map(list, surf.gram)),
        canonical=list(surf.canonical.coords),
        tracked={nm: list(cls.coords) for nm, cls in surf.tracked},
    )


def _surface(lat: SimpleNamespace) -> RationalSurface:
    """The surface of a working lattice, through the full constructor."""
    return RationalSurface(
        lat.base,
        tuple(lat.names),
        tuple(map(tuple, lat.gram)),
        DivisorClass._from_checked(tuple(lat.canonical)),
        tuple([(nm, DivisorClass._from_checked(tuple(x))) for nm, x in lat.tracked.items()]),
    )


def _blow_up(lat: SimpleNamespace, through: Iterable[str]) -> None:
    """Blow up a point on the lines ``through``, in place on a working lattice.

    The lattice gains an orthogonal generator of square -1; lines through the
    point lose it from their class (the strict transform separates from the
    exceptional curve); the canonical class gains it.  Naming a line twice
    is an error, not a second pass through the point.  The generator is
    E<k>, k the blow-ups over the base with this one, or the next k free.
    """
    names, tracked = lat.names, lat.tracked
    seen = set()
    for nm in through:
        if nm not in tracked:
            raise ValidationError(f"unknown line name {nm!r}")
        if nm in seen:
            raise ValidationError(f"line name {nm!r} is repeated")
        seen.add(nm)

    n = len(names)
    idx = n - lat.base.rank + 1
    taken = set(names).union(tracked)
    while f"E{idx}" in taken:
        idx += 1
    for row in lat.gram:
        row.append(0)
    lat.gram.append([0] * n + [-1])
    lat.canonical.append(1)
    for nm, x in tracked.items():
        x.append(-1 if nm in seen else 0)
    names.append(f"E{idx}")
    tracked[names[-1]] = [0] * n + [1]


def blow_down(surf: RationalSurface, line: str) -> RationalSurface:
    """Contract a tracked -1 line: run ``_contract`` on a copy of the
    lattice."""
    lat = _working(surf)
    _contract(lat, line)
    return _surface(lat)


def _contract(lat: SimpleNamespace, line: str) -> List[str]:
    """Check that the tracked line ``line`` is a -1 line, of class c with
    c.c = c.K = -1, and contract it in place on a working lattice.  Returns
    the names of the tracked lines whose class moved, those with l.c != 0.
    A basis step rewrites the form with the coordinates, so every other
    line keeps its square and K-degree.

    The new lattice is the orthogonal complement of c, with a deterministic
    integer basis; every tracked class l moves to l + (l.c) c, which lies
    in that complement, and the canonical class drops c.  Lines whose class
    collapses to zero were other names for the contracted curve and are
    removed.

    The basis is reached by one step, e_i <- s (e_i - q e_j) with s = +-1,
    an O(n) update of row and column i of the Gram matrix and of w = G c.
    Not every -1 class pairs to a unit with some basis vector
    (6H - 2E1 - ... - 2E7 - 3E8 pairs to 6, 2, ..., 2, 3), so Euclid's
    algorithm first takes such steps until some w_p is a unit, which it
    reaches because gcd(w) = 1 (c.c = -1).  Then each other slot a with
    w_a != 0 takes the step e_a <- s_a (e_a - w_p w_a e_p), which zeroes
    w_a; s_a makes the first nonzero entry of e_a in the old coordinates
    positive.  The slots off p now span the complement, and slot p is
    dropped.  A class is pushed by replaying the steps on its coordinates,
    and lies in the complement exactly when its coordinate at p is then
    zero.  A fresh exceptional curve, whose w is nonzero only at the pivot,
    takes no step, so its contraction only deletes slot p.
    """
    names, g, canonical, tracked = lat.names, lat.gram, lat.canonical, lat.tracked
    if line not in tracked:
        raise ValidationError(f"unknown line name {line!r}")
    c = tracked[line]
    c2, ck = _dot(g, c, c), _dot(g, c, canonical)
    if c2 != -1:
        raise ValidationError(
            f"{line} is a {c2:+d} line, not -1 (self-intersection {c2}, K-degree {ck})"
        )
    if ck != -1:
        raise ValidationError(
            f"{line} has self-intersection -1 but K-degree {ck:+d}, not -1"
        )
    n = len(names)
    w = [0] * n
    for j in compress(range(n), c):
        a = c[j]
        w = [x + a * y for x, y in zip(w, g[j])]
    support = list(compress(range(n), w))
    w_support = [w[i] for i in support]

    # the basis changes in order, and each changed basis vector in the old coordinates
    steps = []
    frame = {}

    def vec(k: int) -> list:
        return frame[k] if k in frame else [0] * k + [1] + [0] * (n - k - 1)

    def change(i: int, j: int, q: int, s: int = 1) -> None:
        # e_i <- s (e_i - q e_j): row i, then column i, which by symmetry
        # takes the entries of the new row where they moved.  The form
        # started symmetric, so it still is when the new row equals its column
        old = g[i]
        row = [s * (a - q * b) for a, b in zip(old, g[j])]
        row[i] = s * (row[i] - q * row[j])
        g[i] = row
        for k in compress(range(n), map(ne, row, old)):
            g[k][i] = row[k]
        if row != [r[i] for r in g]:
            raise InternalInvariantError("intersection form must be symmetric")
        w[i] = s * (w[i] - q * w[j])
        frame[i] = [s * (a - q * b) for a, b in zip(vec(i), vec(j))]
        steps.append((i, j, q, s))

    # Euclid on w: reduce some entry not divisible by the smallest one, w_j,
    # to a remainder of at most |w_j| / 2.  Only w_i changes, and never to
    # zero, so the support of w stays the same and a unit can only appear
    # at w_i.
    p = next((i for i in support if abs(w[i]) == 1), None)
    while p is None:
        m, j = min([(abs(w[k]), k) for k in support])
        i = next((k for k in support if w[k] % m), None)
        if i is None:
            raise InternalInvariantError("contracted class is not primitive")
        q, r = divmod(w[i], w[j])
        if 2 * abs(r) > m:
            q += 1
        change(i, j, q)
        p = i if abs(w[i]) == 1 else None

    moved = [i for i in support if i != p]
    for a in moved:
        q = w[p] * w[a]
        lead = next(x - q * y for x, y in zip(vec(a), vec(p)) if x != q * y)
        change(a, p, q, 1 if lead > 0 else -1)

    del g[p]
    for row in g:
        del row[p]
    if moved:
        avoid = set(names).union(tracked)
        fresh = (nm for nm in map("B{}".format, count(1)) if nm not in avoid)
        for i, nm in zip(moved, fresh):
            names[i] = nm
    del names[p]
    if len(set(names)) != len(names):
        raise InternalInvariantError("duplicate basis name after contraction")
    if len(names) < lat.base.rank:
        lat.base = BaseSurface.cp2()

    def push(x: list) -> int:
        # l + (l.c) c, then in the new basis: the step
        # e_i <- s (e_i - q e_j) moves q x_i onto x_j and signs x_i
        lc = sum(map(mul, map(x.__getitem__, support), w_support))
        if lc:
            x[:] = [a + lc * b for a, b in zip(x, c)]
        for i, j, q, s in steps:
            x[j] += q * x[i]
            x[i] *= s
        if x[p]:
            raise InternalInvariantError("class does not lie in the sublattice")
        del x[p]
        return lc

    canonical[:] = [k - ci for k, ci in zip(canonical, c)]
    push(canonical)
    del tracked[line]
    changed = [nm for nm, x in tracked.items() if push(x)]
    for nm in [nm for nm, x in tracked.items() if not any(x)]:
        del tracked[nm]
    return changed


def euler_characteristic_cx(surf: RationalSurface) -> int:
    """Topological Euler number 2 + b2: a rational surface has b1 = b3 = 0,
    and b2 is the lattice rank."""
    return surf.rank + 2


class TopologicalModel(_Value):
    """Connected-sum reading of the lattice: a minimal base with
    ``reversed_cp2_summands`` reversed-orientation projective planes."""

    __slots__ = ("base", "reversed_cp2_summands", "euler", "b2")

    def __init__(self, base: BaseSurface, reversed_cp2_summands: int, euler: int, b2: int) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "reversed_cp2_summands", reversed_cp2_summands)
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "b2", b2)


def topological_model(surf: RationalSurface) -> TopologicalModel:
    """The smooth 4-manifold the lattice names, read off its parity.

    An odd indefinite unimodular form is diagonal (Serre, A Course in
    Arithmetic, Ch. V), so an odd lattice of rank r is CP2 # (r - 1) reversed
    CP2, and the form fixes the diffeomorphism type (C. T. C. Wall, "On
    simply-connected 4-manifolds", 1964).  An even form of signature (1, n)
    needs 1 - n divisible by 8.  A rational surface of rank 3 or more is a
    blow-up, so it holds a class of square -1 and its form is odd: rank 2,
    S2 x S2 = F_0, is the only even lattice of a surface.  A construction
    stays on surfaces only while the classes it tracks are curves, no two
    of which meet negatively.  Blowing down a line that meets another
    tracked class negatively can reach an even lattice of rank 10 (over
    CP2, ten blow-ups and the contraction of 3H - E1 - ... - E9 + E10,
    which meets E10 at -1), and on it this raises InternalInvariantError.
    """
    if not surf.is_even:
        base, summands = BaseSurface.cp2(), surf.rank - 1
    elif surf.rank == 2:
        base, summands = BaseSurface.hirzebruch(0), 0
    else:
        raise InternalInvariantError(f"even lattice of rank {surf.rank}")
    return TopologicalModel(base, summands, euler_characteristic_cx(surf), surf.rank)


def signature(surf: RationalSurface) -> Tuple[int, int]:
    """Inertia (positive, negative) of the intersection form.

    Integer-preserving symmetric elimination (Bareiss): pivoting on slot k with
    the previous pivot ``prev`` replaces each later entry a_ij by
    (a_kk a_ij - a_ik a_kj) / prev, an exact division that keeps every entry
    a minor of the form.  The k-th pivot is then the k-th leading principal
    minor, so the sign of pivot / prev is the sign the slot contributes.
    Rational surface lattices are unimodular, so a zero eigenvalue means the
    bookkeeping broke.
    """
    n = surf.rank
    a = [list(row) for row in surf.gram]
    pos = neg = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if j is None:
                raise InternalInvariantError("degenerate intersection form")
            if a[j][j] != 0:
                # symmetric swap of slots k and j
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                # both diagonals vanish; adding slot j puts 2*a[k][j] on it
                for i in range(k, n):
                    a[i][k] += a[i][j]
                for i in range(k, n):
                    a[k][i] += a[j][i]
        d = a[k][k]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        tail = a[k][k + 1:]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i][k + 1:] = [(d * x - f * y) // prev for x, y in zip(a[i][k + 1:], tail)]
        prev = d
    return pos, neg
