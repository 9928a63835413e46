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
from itertools import compress
from operator import mul
from typing import Iterable, Sequence, Tuple

from .words import InternalInvariantError, ValidationError


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


@dataclass(frozen=True)
class BaseSurface:
    """Minimal rational surface: the projective plane or a Hirzebruch
    surface of non-negative index, the base a script starts from and the
    answer a reduction names."""

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("cp2", "hirzebruch"):
            raise ValidationError(f"unknown base surface kind {self.kind!r}")
        if self.kind == "cp2" and self.index != 0:
            raise ValidationError("the projective plane carries no index")
        if self.kind == "hirzebruch" and self.index < 0:
            raise ValidationError("Hirzebruch index must be non-negative")

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


@dataclass(frozen=True)
class DivisorClass:
    """Integer coordinate vector in a surface's current lattice basis."""

    coords: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple([int(c) for c in self.coords]))

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

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple([-a for a in self.coords]))

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


@dataclass(frozen=True)
class RationalSurface:
    """A rational surface presented by its Picard lattice.

    ``base`` records where the construction started.  After blow-downs the
    current lattice is authoritative and ``base`` may no longer be the true
    minimal model; the classifier in :mod:`surfclass.minimal` reads the
    lattice, not this tag.  ``tracked`` is insertion-ordered, which fixes the
    contraction order of the minimal-model procedure.
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


def intersect(surf: RationalSurface, c1: DivisorClass, c2: DivisorClass) -> int:
    """Intersection number c1 . c2 under the surface's form.

    Each nonzero coordinate a_i of one class contributes a_i (G_i . b), one
    dot product of a Gram row with the other class b.  The form is
    symmetric, so the sum runs over the class with fewer nonzero
    coordinates, and its cost is that support times the rank, with the
    inner products taken at C level.
    """
    n = surf.rank
    if len(c1.coords) != n or len(c2.coords) != n:
        raise ValidationError(
            f"class dimension mismatch: lattice rank {n}, "
            f"got {len(c1.coords)} and {len(c2.coords)}"
        )
    gram = surf.gram
    left, right = c1.coords, c2.coords
    if left.count(0) < right.count(0):
        left, right = right, left
    return sum([left[i] * sum(map(mul, gram[i], right)) for i in compress(range(n), left)])


def blow_up(surf: RationalSurface, through: Iterable[str] = ()) -> RationalSurface:
    """Blow up a point, optionally lying on the named tracked lines.

    The lattice gains an orthogonal generator of square -1; lines through the
    point lose it from their class (the strict transform separates from the
    exceptional curve); the canonical class gains it.  Naming a line twice
    is an error, not a second pass through the point.
    """
    through = list(through)
    known = {nm for nm, _ in surf.tracked}
    seen = set()
    for nm in through:
        if nm not in known:
            raise ValidationError(f"unknown line name {nm!r}")
        if nm in seen:
            raise ValidationError(f"line name {nm!r} is repeated")
        seen.add(nm)

    idx = surf.blowups + 1
    taken = set(surf.basis) | known
    while f"E{idx}" in taken:
        idx += 1
    ename = f"E{idx}"

    n = surf.rank
    basis = surf.basis + (ename,)
    gram = tuple([row + (0,) for row in surf.gram]) + ((0,) * n + (-1,),)
    canonical = DivisorClass._from_checked(surf.canonical.coords + (1,))
    tracked = tuple([
        (nm, DivisorClass._from_checked(cls.coords + ((-1,) if nm in seen else (0,))))
        for nm, cls in surf.tracked
    ]) + ((ename, DivisorClass._from_checked((0,) * n + (1,))),)
    return RationalSurface(surf.base, basis, gram, canonical, tracked)


def blow_down(surf: RationalSurface, line: str) -> RationalSurface:
    """Contract a tracked -1 line.

    The new lattice is the orthogonal complement of the contracted class c,
    with a deterministic integer basis; every tracked class l moves to
    l + (l.c) c, which lies in that complement, and the canonical class
    drops the contracted class.  Lines whose class collapses to zero were
    other names for the contracted curve and are removed.

    There is one path, in integers, driven by w = G c, summed from the Gram
    rows at the nonzero entries of c.  Not every -1 class pairs to a unit
    with some basis vector: 6H - 2E1 - ... - 2E7 - 3E8 pairs to 6, 2, ...,
    2, 3.  So Euclid's algorithm first runs on w as unimodular basis changes
    e_i <- e_i - q e_j, each an O(n) row and column update of the Gram
    matrix, until some entry w_p is a unit.  It must get there because
    gcd(w) = 1 (c.c = -1), it takes O(log max|w|) steps, and it takes none
    when w already has a unit.  The complement basis is then e_i - s w_i e_p
    for i != p with s = w_p, each row signed so its first nonzero entry in
    the old coordinates is positive, whether or not Euclid ran.  The new
    Gram matrix is a rank-one update of the reduced one and a moved class
    keeps its reduced coordinates with slot p dropped, so the contraction
    costs O(n^2) integer operations at most and needs no solve.

    Everything after w works only on the support of w.  A slot with
    w_i = 0 is an untouched old basis vector: it keeps its name and its
    sign, and its Gram row is the old row with slot p dropped, patched only
    at the columns where w is nonzero; only the rows with w_i != 0 are
    recomputed in full and renamed with a fresh ``B`` name.  A tracked
    class l moves by (l.c) c with l.c summed over the support of w; when
    l.c = 0, as for most lines, the moved class is l with slot p dropped
    and the signs flipped at the few negated slots.  Contracting a fresh
    exceptional curve, whose w has the pivot as its only nonzero entry,
    slices every row, name and class and recomputes nothing.
    """
    c = surf.tracked_class(line)
    c2 = intersect(surf, c, c)
    ck = intersect(surf, c, surf.canonical)
    if c2 != -1:
        raise ValidationError(
            f"{line} is a {c2:+d} line, not -1 (self-intersection {c2}, K-degree {ck})"
        )
    if ck != -1:
        raise ValidationError(
            f"{line} has self-intersection -1 but K-degree {ck:+d}, not -1"
        )

    n = surf.rank
    g = surf.gram
    w = [0] * n
    for j in compress(range(n), c.coords):
        a = c.coords[j]
        w = [x + a * y for x, y in zip(w, g[j])]
    support = list(compress(range(n), w))

    # Euclid on w: reduce some entry not divisible by the smallest one, w_j,
    # to a remainder of at most |w_j| / 2.  Only w_i changes, and never to
    # zero, so the support of w stays the same and a unit can only appear
    # at w_i.  ``frame`` holds each changed basis vector in the old
    # coordinates, ``steps`` the changes in order.
    steps = []
    frame = {}

    def vec(k: int) -> list:
        return frame[k] if k in frame else [0] * k + [1] + [0] * (n - k - 1)

    p = next((i for i in support if abs(w[i]) == 1), None)
    if p is None:
        g = [list(row) for row in g]
    while p is None:
        m, j = min([(abs(w[k]), k) for k in support])
        i = next((k for k in support if w[k] % m), None)
        if i is None:
            raise InternalInvariantError("contracted class is not primitive")
        q, r = divmod(w[i], w[j])
        if 2 * abs(r) > m:
            q += 1
        w[i] -= q * w[j]
        for row in g:
            row[i] -= q * row[j]
        g[i] = [a - q * b for a, b in zip(g[i], g[j])]
        frame[i] = [a - q * b for a, b in zip(vec(i), vec(j))]
        steps.append((i, j, q))
        p = i if abs(w[i]) == 1 else None

    # basis row i is sigma_i (e_i - u_i e_p) with u = s w, so u, sigma and
    # the fresh names live on ``moved``, the support of w off the pivot;
    # every other slot keeps sigma_i = +1.  sigma_i makes the first nonzero
    # entry of the row in the old coordinates positive.  A changed slot
    # never has w_i = 0, so the slots off ``moved`` are exactly the
    # untouched old basis vectors.
    u = {i: w[p] * w[i] for i in support}
    moved = [i for i in support if i != p]
    sigma = {}
    for i in moved:
        ui = u[i]
        lead = next(a - ui * b for a, b in zip(vec(i), vec(p)) if a != ui * b)
        sigma[i] = 1 if lead > 0 else -1

    # entry (a, b) of the new Gram matrix pairs sigma_a (e_a - u_a e_p) with
    # sigma_b (e_b - u_b e_p).  Each reduced Gram row g_a with a in ``moved``
    # first becomes sigma_a (g_a - u_a g_p); p is not in ``moved``, so g_p
    # is unchanged.  Every row then drops slot p, row p is dropped, and each
    # row x takes sigma_b (x_b - u_b x_p) at the columns b in ``moved``.
    # Basis changes leave at least two slots in the support, so rows copied
    # to lists for them come back as tuples here.
    g = list(g)
    for a in moved:
        ua, sa = u[a], sigma[a]
        g[a] = [sa * (x - ua * y) for x, y in zip(g[a], g[p])]
    rows = [ga[:p] + ga[p + 1:] for ga in g]
    del rows[p]
    if moved:
        patch = [(b - (b > p), b, u[b], sigma[b]) for b in moved]
        for k, row in enumerate(rows):
            x = g[k + (k >= p)]
            xp = x[p]
            row = list(row)
            for kb, b, ub, sb in patch:
                row[kb] = sb * (x[b] - ub * xp)
            rows[k] = tuple(row)
    gram = tuple(rows)

    names = surf.basis[:p] + surf.basis[p + 1:]
    if moved:
        names = list(names)
        avoid = set(surf.basis) | {nm for nm, _ in surf.tracked}
        mint = 1
        for i in moved:
            while f"B{mint}" in avoid:
                mint += 1
            names[i - (i > p)] = f"B{mint}"
            mint += 1
        names = tuple(names)
    if len(set(names)) != len(names):
        raise InternalInvariantError("duplicate basis name after contraction")

    def reduced(cls: Sequence[int]) -> list:
        # coordinates after the basis changes: e_i <- e_i - q e_j moves
        # x_i of the old e_i onto x_j
        x = list(cls)
        for i, j, q in steps:
            x[j] += q * x[i]
        return x

    cr = reduced(c.coords)
    w_support = [w[i] for i in support]
    negated = [i - (i > p) for i in moved if sigma[i] < 0]

    def push(cls: Sequence[int]) -> Tuple[int, ...]:
        # l + (l.c) c in reduced coordinates, slot p dropped, signed by sigma
        x = reduced(cls) if steps else cls
        lc = sum(map(mul, map(x.__getitem__, support), w_support))
        if lc:
            x = [a + lc * b for a, b in zip(x, cr)]
            if sum(map(mul, map(x.__getitem__, support), w_support)) != 0:
                raise InternalInvariantError("class does not lie in the sublattice")
        x = x[:p] + x[p + 1:]
        if negated:
            x = list(x)
            for k in negated:
                x[k] = -x[k]
        return tuple(x)

    canonical = DivisorClass._from_checked(
        push([k - ci for k, ci in zip(surf.canonical.coords, c.coords)])
    )
    tracked = []
    for nm, cls in surf.tracked:
        if nm != line:
            x = push(cls.coords)
            if any(x):
                tracked.append((nm, DivisorClass._from_checked(x)))

    base = surf.base
    if n - 1 < base.rank:
        base = BaseSurface.cp2()
    return RationalSurface(base, names, gram, canonical, tuple(tracked))


def euler_characteristic_cx(surf: RationalSurface) -> int:
    """Topological Euler number 2 + b2: a rational surface has b1 = b3 = 0,
    and b2 is the lattice rank."""
    return surf.rank + 2


@dataclass(frozen=True)
class TopologicalModel:
    """Connected-sum reading of the lattice: a minimal base with
    ``reversed_cp2_summands`` reversed-orientation projective planes."""

    base: BaseSurface
    reversed_cp2_summands: int
    euler: int
    b2: int


def topological_model(surf: RationalSurface) -> TopologicalModel:
    """The smooth 4-manifold the lattice names, read off its parity.

    An odd indefinite unimodular form is diagonal (Serre, A Course in
    Arithmetic, Ch. V), so an odd lattice of rank r is CP2 # (r - 1) reversed
    CP2, and the form fixes the diffeomorphism type (C. T. C. Wall, "On
    simply-connected 4-manifolds", 1964).  An even form of signature (1, n)
    needs 1 - n divisible by 8; blow-ups add classes of square -1, so rank 2,
    S2 x S2 = F_0, is the only even lattice a construction reaches.
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
