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
from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple

from .words import InternalInvariantError, ValidationError


# ---------------------------------------------------------------------------
# line bundles over CP^1 and chart bookkeeping


@dataclass(frozen=True)
class BundleDegree:
    """Degree of a line bundle over CP^1, glued from two charts by the
    cocycle z -> z^(-n) on the overlap."""

    n: int


def _degree(d) -> int:
    return d.n if isinstance(d, BundleDegree) else int(d)


def cocycle_at(n, z: complex) -> complex:
    """Transition multiplier z^(-n) of the degree-``n`` bundle at overlap
    coordinate ``z``."""
    if z == 0:
        raise ValidationError("cocycle is only defined away from z = 0")
    return complex(z) ** (-_degree(n))


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
    """Minimal starting surface: the projective plane or a Hirzebruch
    surface of non-negative index."""

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


def projectivize(a, b) -> BaseSurface:
    """Base surface of the projectivized rank-2 bundle O(a)+O(b) over CP^1.

    Twisting by a line bundle leaves the projectivization unchanged, so only
    the degree gap matters and the index can be normalized non-negative.
    """
    return BaseSurface.hirzebruch(abs(_degree(a) - _degree(b)))


# ---------------------------------------------------------------------------
# divisor classes


@dataclass(frozen=True)
class DivisorClass:
    """Integer coordinate vector in a surface's current lattice basis."""

    coords: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple([int(c) for c in self.coords]))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple([a + b for a, b in zip(self.coords, other.coords, strict=True)]))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple([a - b for a, b in zip(self.coords, other.coords, strict=True)]))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple([-a for a in self.coords]))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(tuple([k * a for a in self.coords]))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

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


def _unit(rank: int, i: int) -> DivisorClass:
    return DivisorClass((0,) * i + (1,) + (0,) * (rank - i - 1))


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
    def tracked_lines(self) -> Dict[str, DivisorClass]:
        return dict(self.tracked)

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

    Only the nonzero coordinates of the two classes contribute, so the cost
    is the product of their support sizes rather than the square of the
    rank.
    """
    n = surf.rank
    if len(c1.coords) != n or len(c2.coords) != n:
        raise ValidationError(
            f"class dimension mismatch: lattice rank {n}, "
            f"got {len(c1.coords)} and {len(c2.coords)}"
        )
    gram = surf.gram
    right = [(j, b) for j, b in enumerate(c2.coords) if b]
    return sum([a * gram[i][j] * b for i, a in enumerate(c1.coords) if a for j, b in right])


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
    canonical = DivisorClass(surf.canonical.coords + (1,))
    tracked = []
    for nm, cls in surf.tracked:
        ext = cls.coords + ((-1,) if nm in seen else (0,))
        tracked.append((nm, DivisorClass(ext)))
    tracked.append((ename, _unit(n + 1, n)))
    return RationalSurface(surf.base, basis, gram, canonical, tuple(tracked))


# -- exact linear algebra over the integers ---------------------------------


def _hnf_columns(cols: Sequence[Sequence[int]]) -> list:
    """Column-style Hermite reduction; returns the nonzero columns spanning
    the same lattice, in a deterministic order."""
    mat = [list(col) for col in cols]
    m = len(mat[0]) if mat else 0
    row = 0
    fixed = 0
    while row < m and fixed < len(mat):
        live = [k for k in range(fixed, len(mat)) if mat[k][row] != 0]
        if not live:
            row += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda k: abs(mat[k][row]))
            base = live[0]
            for k in live[1:]:
                q = mat[k][row] // mat[base][row]
                mat[k] = [a - q * b for a, b in zip(mat[k], mat[base])]
            live = [k for k in live if mat[k][row] != 0]
        pivot = live[0]
        mat[fixed], mat[pivot] = mat[pivot], mat[fixed]
        if mat[fixed][row] < 0:
            mat[fixed] = [-a for a in mat[fixed]]
        fixed += 1
        row += 1
    out = [tuple(col) for col in mat if any(col)]
    return out


def _solve_integer(rows: Sequence[Sequence[int]], target: Sequence[int]) -> Tuple[int, ...]:
    """Express ``target`` as an integer combination of ``rows`` (exact; the
    rows are a lattice basis, so failure is an internal error)."""
    k = len(rows)
    n = len(target)
    aug = [[Fraction(rows[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    piv_cols = []
    r = 0
    for c in range(k):
        sel = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][k] != 0:
            raise InternalInvariantError("class does not lie in the sublattice")
    coeffs = [Fraction(0)] * k
    for i, c in enumerate(piv_cols):
        coeffs[c] = aug[i][k]
    if any(x.denominator != 1 for x in coeffs):
        raise InternalInvariantError("sublattice coordinates are not integral")
    return tuple(int(x) for x in coeffs)


def _sign_normalize(vec: Tuple[int, ...]) -> Tuple[int, ...]:
    for a in vec:
        if a > 0:
            return vec
        if a < 0:
            return tuple(-x for x in vec)
    return vec


def blow_down(surf: RationalSurface, line: str) -> RationalSurface:
    """Contract a tracked -1 line.

    The new lattice is the orthogonal complement of the contracted class c,
    with a deterministic integer basis; every tracked class l moves to
    l + (l.c) c, which lies in that complement, and the canonical class
    drops the contracted class.  Lines whose class collapses to zero were
    other names for the contracted curve and are removed.

    With w = G c, the branch is picked from w.  When some entry w_p is a
    unit (the usual case; every exceptional curve has one), the complement
    basis is e_i - s w_i e_p for i != p with s = w_p, each row sign
    normalized.  The new Gram matrix is then a rank-one update of the old
    one and a moved class keeps its coordinates with slot p dropped, so the
    contraction costs O(n^2) integer operations and needs no solve.
    Otherwise the basis comes from Hermite-reducing the columns of a
    projector onto the complement, the Gram matrix is the dense product
    r G r', and classes are pushed by an exact ``Fraction`` solve.
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
    old = surf.gram
    support = [(j, a) for j, a in enumerate(c.coords) if a]
    w = [sum([row[j] * a for j, a in support]) for row in old]

    pivot = next((i for i in range(n) if abs(w[i]) == 1), None)
    if pivot is not None:
        # basis row i is sigma_i (e_i - u_i e_p) with u = s w: _sign_normalize
        # negates e_i - u_i e_p exactly when i > p and u_i > 0, since its
        # first nonzero entry is then -u_i at slot p
        u = [w[pivot] * x for x in w]
        sigma = [-1 if i > pivot and x > 0 else 1 for i, x in enumerate(u)]
        slots = [i for i in range(n) if i != pivot]
        keep = [i if w[i] == 0 else None for i in slots]
        gp = old[pivot]
        gpp = gp[pivot]
        new_rows = []
        for a in slots:
            ga, ua, sa = old[a], u[a], sigma[a]
            gap = ga[pivot]
            new_rows.append(tuple([
                sa * sigma[b] * (ga[b] - u[b] * gap - ua * gp[b] + ua * u[b] * gpp)
                for b in slots
            ]))
        gram = tuple(new_rows)

        def solve(moved: Tuple[int, ...]) -> Tuple[int, ...]:
            if sum([m * x for m, x in zip(moved, w)]) != 0:
                raise InternalInvariantError("class does not lie in the sublattice")
            return tuple([sigma[i] * moved[i] for i in slots])

    else:
        # gcd of w is 1 because c.c = -1; build a projector onto the
        # complement and Hermite-reduce its column lattice
        v = _bezout_vector(w)
        cols = []
        for j in range(n):
            col = [((1 if i == j else 0) - v[i] * w[j]) for i in range(n)]
            cols.append(col)
        rows = [_sign_normalize(col) for col in _hnf_columns(cols)]
        if len(rows) != n - 1:
            raise InternalInvariantError("complement basis has wrong rank")
        keep = []
        for r in rows:
            ones = [j for j, a in enumerate(r) if a != 0]
            keep.append(ones[0] if len(ones) == 1 and r[ones[0]] == 1 else None)
        gram = tuple([
            tuple([
                sum(ra[i] * old[i][j] * rb[j] for i in range(n) for j in range(n))
                for rb in rows
            ])
            for ra in rows
        ])

        def solve(moved: Tuple[int, ...]) -> Tuple[int, ...]:
            return _solve_integer(rows, moved)

    names = []
    avoid = set(surf.basis) | {nm for nm, _ in surf.tracked}
    mint = 1
    for k in keep:
        if k is not None:
            names.append(surf.basis[k])
            continue
        while f"B{mint}" in avoid:
            mint += 1
        names.append(f"B{mint}")
        mint += 1
    if len(set(names)) != len(names):
        raise InternalInvariantError("duplicate basis name after contraction")

    def push(cls: Tuple[int, ...]) -> DivisorClass:
        lc = sum([a * x for a, x in zip(cls, w)])
        if lc:
            cls = tuple([a + lc * b for a, b in zip(cls, c.coords)])
        return DivisorClass(solve(cls))

    canonical = push(tuple([k - ci for k, ci in zip(surf.canonical.coords, c.coords)]))
    tracked = []
    for nm, cls in surf.tracked:
        if nm == line:
            continue
        newcls = push(cls.coords)
        if newcls.is_zero:
            continue
        tracked.append((nm, newcls))

    base = surf.base
    if n - 1 < base.rank:
        base = BaseSurface.cp2()
    return RationalSurface(base, tuple(names), gram, canonical, tuple(tracked))


def _bezout_vector(w: Sequence[int]) -> Tuple[int, ...]:
    """Integer vector v with v.w = 1; exists because gcd(w) = 1."""
    from math import gcd

    v = [0] * len(w)
    g = 0
    gv = [0] * len(w)  # combination achieving g over the prefix
    for i, wi in enumerate(w):
        if wi == 0:
            continue
        if g == 0:
            g = abs(wi)
            gv = [0] * len(w)
            gv[i] = 1 if wi > 0 else -1
            continue
        # extended gcd of g and wi
        a, b = g, wi
        x0, x1 = 1, 0
        y0, y1 = 0, 1
        while b:
            q = a // b
            a, b = b, a - q * b
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        gv = [x0 * t for t in gv]
        gv[i] += y0
        g = a
    if g != 1:
        raise InternalInvariantError("contracted class is not primitive")
    return tuple(gv)


def euler_characteristic_cx(surf: RationalSurface) -> int:
    """Topological Euler number: each blow-up is a connected sum with a
    reversed-orientation projective plane and adds one."""
    return (3 if surf.base.is_cp2 else 4) + surf.blowups


@dataclass(frozen=True)
class TopologicalModel:
    """Connected-sum reading of the construction: the base with one
    reversed-orientation projective plane per blow-up."""

    base: BaseSurface
    reversed_cp2_summands: int
    euler: int
    b2: int


def topological_model(surf: RationalSurface) -> TopologicalModel:
    return TopologicalModel(
        base=surf.base,
        reversed_cp2_summands=surf.blowups,
        euler=euler_characteristic_cx(surf),
        b2=surf.rank,
    )


def signature(surf: RationalSurface) -> Tuple[int, int]:
    """Inertia (positive, negative) of the intersection form.

    Rational surface lattices are unimodular, so a zero eigenvalue means the
    bookkeeping broke.
    """
    n = surf.rank
    a = [[Fraction(surf.gram[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = 0
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
                for i in range(n):
                    a[i][k] += a[i][j]
                for i in range(n):
                    a[k][i] += a[j][i]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f == 0:
                continue
            for j in range(n):
                a[i][j] -= f * a[k][j]
            for j in range(n):
                a[j][i] -= f * a[j][k]
    return pos, neg
