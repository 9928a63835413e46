import cmath
import random
from fractions import Fraction

import pytest

from surfclass import lattice
from surfclass.lattice import (
    BaseSurface,
    BundleDegree,
    DivisorClass,
    RationalSurface,
    blow_down,
    blow_up,
    blowup_chart_transition,
    cocycle_at,
    euler_characteristic_cx,
    intersect,
    make_base,
    projectivize,
    signature,
    topological_model,
)
from surfclass.minimal import find_minus_one_lines
from surfclass.script import run_script
from surfclass.words import InternalInvariantError, ValidationError


# ---------------------------------------------------------------------------
# bundle layer


def test_cocycle_inverse_pairs():
    rng = random.Random(1)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 1e-3:
            continue
        for n in range(-4, 5):
            assert abs(cocycle_at(n, z) * cocycle_at(-n, z) - 1) < 1e-12


def test_cocycle_rejects_origin():
    with pytest.raises(ValidationError):
        cocycle_at(2, 0)


def test_chart_transition():
    for t in (2, 3, -1):
        u = 1.25 - 0.5j
        a, b = blowup_chart_transition(t, u)
        assert abs(a - 1 / t) < 1e-12
        assert abs(b / u - cocycle_at(-1, t)) < 1e-12


def test_projectivize():
    assert projectivize(3, 0) == BaseSurface.hirzebruch(3)
    assert projectivize(0, 0) == BaseSurface.hirzebruch(0)
    assert projectivize(3, 1) == BaseSurface.hirzebruch(2)
    assert projectivize(BundleDegree(1), BundleDegree(4)) == BaseSurface.hirzebruch(3)


def test_projectivize_matrices_projectively_equal():
    # O(3)+O(1) and O(2)+O(0) have transition matrices differing by a
    # scalar, hence the same projectivization
    rng = random.Random(2)
    for _ in range(10):
        z = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        m1 = (cocycle_at(3, z), cocycle_at(1, z))
        m2 = (cocycle_at(2, z), cocycle_at(0, z))
        lam = m1[0] / m2[0]
        assert abs(m1[1] - lam * m2[1]) <= 1e-12 * abs(m1[1])


def test_base_surface_guards():
    with pytest.raises(ValidationError):
        BaseSurface.hirzebruch(-1)
    with pytest.raises(ValidationError):
        BaseSurface("squonk")


# ---------------------------------------------------------------------------
# bases


def test_make_base_cp2():
    s = make_base(BaseSurface.cp2())
    assert s.basis == ("H",)
    assert s.gram == ((1,),)
    assert s.canonical.coords == (-3,)
    assert s.k_squared == 9
    assert s.tracked_lines["H"].coords == (1,)


def test_make_base_hirzebruch():
    s = make_base(BaseSurface.hirzebruch(2))
    assert s.gram == ((-2, 1), (1, 0))
    assert s.canonical.coords == (-2, -4)
    assert s.k_squared == 8
    sec = s.tracked_lines["S"]
    assert intersect(s, sec, sec) == -2
    assert make_base(BaseSurface.hirzebruch(0)).gram == ((0, 1), (1, 0))


def test_intersect_dimension_mismatch():
    s = make_base(BaseSurface.cp2())
    with pytest.raises(ValidationError, match="dimension mismatch"):
        intersect(s, DivisorClass((1, 0)), DivisorClass((1,)))


# ---------------------------------------------------------------------------
# blow-up


def test_blow_up_generic():
    s = blow_up(make_base(BaseSurface.cp2()))
    assert s.basis == ("H", "E1")
    e1 = s.tracked_lines["E1"]
    assert intersect(s, e1, e1) == -1
    assert s.canonical.coords == (-3, 1)
    assert s.k_squared == 8
    assert s.blowups == 1


def test_blow_up_through_line():
    s = blow_up(make_base(BaseSurface.cp2()), through={"H"})
    h = s.tracked_lines["H"]
    assert h.coords == (1, -1)
    assert intersect(s, h, h) == 0


def test_blow_up_unknown_line():
    with pytest.raises(ValidationError, match="unknown line"):
        blow_up(make_base(BaseSurface.cp2()), through={"Q"})


def test_blow_up_rejects_repeated_line():
    s = blow_up(make_base(BaseSurface.hirzebruch(1)))
    with pytest.raises(ValidationError, match="line name 'F' is repeated"):
        blow_up(s, ["F", "E1", "F"])


def test_two_points_setup():
    s = blow_up(blow_up(make_base(BaseSurface.cp2())))
    L = DivisorClass((1, -1, -1))
    assert intersect(s, L, L) == -1
    assert intersect(s, L, s.canonical) == -1
    assert s.k_squared + s.rank == 10


def test_conservation_over_blow_ups():
    s = make_base(BaseSurface.hirzebruch(3))
    for _ in range(5):
        assert s.k_squared + s.rank == 10
        s = blow_up(s)
    assert s.k_squared + s.rank == 10


# ---------------------------------------------------------------------------
# blow-down


def test_blow_down_fresh_exceptional_is_inverse():
    base = make_base(BaseSurface.cp2())
    s = blow_down(blow_up(base), "E1")
    assert s.basis == base.basis
    assert s.gram == base.gram
    assert s.canonical == base.canonical
    assert s.tracked == base.tracked


def test_blow_down_keeps_untouched_names():
    s = blow_up(blow_up(make_base(BaseSurface.cp2())))
    down = blow_down(s, "E2")
    assert down.basis == ("H", "E1")
    assert down.tracked_lines["E1"].coords == (0, 1)


def test_blow_down_rejects_plus_one_line():
    with pytest.raises(ValidationError) as exc:
        blow_down(make_base(BaseSurface.cp2()), "H")
    msg = str(exc.value)
    assert "H is a +1 line, not -1" in msg
    assert "-3" in msg  # the K-degree is reported alongside


def test_blow_down_rejects_wrong_k_degree():
    # a class of square -1 whose K-degree is not -1 must not contract
    s = blow_up(blow_up(make_base(BaseSurface.cp2())))
    weird = s.tracked + (("W", DivisorClass((0, 1, 0)) - DivisorClass((0, 0, 1)) + DivisorClass((1, 0, 0))),)
    # W = H + E1 - E2: W.W = 1 - 1 - 1 = -1, W.K = -3 - 1 + 1 = -3
    s2 = RationalSurface(s.base, s.basis, s.gram, s.canonical, weird)
    with pytest.raises(ValidationError, match="K-degree"):
        blow_down(s2, "W")


def test_two_points_contraction():
    s = blow_up(blow_up(make_base(BaseSurface.cp2()), through={"H"}), through={"H"})
    assert s.tracked_lines["H"].coords == (1, -1, -1)
    withL = RationalSurface(
        s.base, s.basis, s.gram, s.canonical,
        s.tracked + (("L", DivisorClass((1, -1, -1))),),
    )
    down = blow_down(withL, "L")
    assert down.gram == ((0, 1), (1, 0))
    assert down.basis == ("B1", "B2")
    assert "H" not in down.tracked_lines  # same class as L: an alias, dropped
    e1 = down.tracked_lines["E1"]
    e2 = down.tracked_lines["E2"]
    assert e1.coords == (0, 1) and e2.coords == (1, 0)
    assert intersect(down, e1, e1) == 0
    assert intersect(down, e2, e2) == 0
    assert intersect(down, e1, e2) == 1
    assert down.canonical.coords == (-2, -2)
    assert down.k_squared == 8


def test_hirzebruch_one_section_contracts_to_plane():
    s1 = make_base(BaseSurface.hirzebruch(1))
    down = blow_down(s1, "S")
    assert down.basis == ("B1",)
    assert down.gram == ((1,),)
    assert down.canonical.coords == (-3,)
    assert down.tracked_lines["F"].coords == (1,)
    assert down.base == BaseSurface.cp2()
    assert down.blowups == 0


def test_blow_down_without_unit_pivot():
    # contrived form where e_i . c is (-2, 3): no unit entry, so the
    # complement basis comes from the projector + Hermite reduction path
    surf = RationalSurface(
        base=BaseSurface.hirzebruch(0),
        basis=("u", "v"),
        gram=((-1, 0), (0, 3)),
        canonical=DivisorClass((-1, -1)),
        tracked=(("C", DivisorClass((2, 1))),),
    )
    c = surf.tracked_class("C")
    assert intersect(surf, c, c) == -1
    assert intersect(surf, c, surf.canonical) == -1
    down = blow_down(surf, "C")
    assert down.rank == 1
    # the complement of c is spanned by (3, 2)
    assert down.gram == ((3,),)
    assert down.canonical.coords == (-1,)


def test_euler_and_topological_model():
    s = blow_up(blow_up(blow_up(make_base(BaseSurface.cp2()))))
    assert euler_characteristic_cx(s) == 6
    assert euler_characteristic_cx(make_base(BaseSurface.hirzebruch(4))) == 4
    tm = topological_model(blow_up(blow_up(make_base(BaseSurface.cp2()))))
    assert tm.base == BaseSurface.cp2()
    assert tm.reversed_cp2_summands == 2
    assert tm.euler == 5
    assert tm.b2 == 3
    tm1 = topological_model(make_base(BaseSurface.hirzebruch(1)))
    assert (tm1.reversed_cp2_summands, tm1.euler, tm1.b2) == (0, 4, 2)


def test_signature():
    assert signature(make_base(BaseSurface.cp2())) == (1, 0)
    assert signature(make_base(BaseSurface.hirzebruch(0))) == (1, 1)
    assert signature(make_base(BaseSurface.hirzebruch(3))) == (1, 1)
    s = blow_up(blow_up(make_base(BaseSurface.cp2())))
    assert signature(s) == (1, 2)


# ---------------------------------------------------------------------------
# blow-down against the dense reference


def _dense_unit_pivot_blow_down(surf, line):
    """Unit-pivot contraction done densely: complement rows e_i - s w_i e_p,
    Gram entries r.G.r, and every class pushed by a Fraction solve."""
    c = surf.tracked_class(line).coords
    n = surf.rank
    g = surf.gram
    w = [sum(g[i][j] * c[j] for j in range(n)) for i in range(n)]
    pivot = next(i for i in range(n) if abs(w[i]) == 1)
    sign = 1 if w[pivot] > 0 else -1
    rows = []
    for i in range(n):
        if i == pivot:
            continue
        r = [0] * n
        r[i] += 1
        r[pivot] -= w[i] * sign
        first = next(a for a in r if a)
        rows.append(tuple(r) if first > 0 else tuple(-a for a in r))

    names = []
    avoid = set(surf.basis) | {nm for nm, _ in surf.tracked}
    mint = 1
    for r in rows:
        ones = [j for j, a in enumerate(r) if a != 0]
        if len(ones) == 1 and r[ones[0]] == 1:
            names.append(surf.basis[ones[0]])
        else:
            while f"B{mint}" in names or f"B{mint}" in avoid:
                mint += 1
            names.append(f"B{mint}")
            mint += 1

    gram = tuple(
        tuple(sum(ra[i] * g[i][j] * rb[j] for i in range(n) for j in range(n)) for rb in rows)
        for ra in rows
    )

    def solve(target):
        k = len(rows)
        aug = [[Fraction(rows[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
        pivots = []
        r = 0
        for col in range(k):
            sel = next((i for i in range(r, n) if aug[i][col] != 0), None)
            if sel is None:
                continue
            aug[r], aug[sel] = aug[sel], aug[r]
            inv = 1 / aug[r][col]
            aug[r] = [x * inv for x in aug[r]]
            for i in range(n):
                if i != r and aug[i][col] != 0:
                    f = aug[i][col]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
            pivots.append(col)
            r += 1
        assert all(aug[i][k] == 0 for i in range(r, n))
        coeffs = [Fraction(0)] * k
        for i, col in enumerate(pivots):
            coeffs[col] = aug[i][k]
        assert all(x.denominator == 1 for x in coeffs)
        return tuple(int(x) for x in coeffs)

    def push(cls):
        lc = sum(cls[i] * w[i] for i in range(n))
        return solve([cls[i] + lc * c[i] for i in range(n)])

    canonical = push([k - ci for k, ci in zip(surf.canonical.coords, c)])
    tracked = []
    for nm, cls in surf.tracked:
        if nm == line:
            continue
        pushed = push(cls.coords)
        if any(pushed):
            tracked.append((nm, pushed))
    return tuple(names), gram, canonical, tuple(tracked)


def test_blow_down_matches_dense_reference():
    # random blow-up sequences up to rank 12, some on tracked lines, then
    # contractions; every -1 line of every surface on the way is compared
    rng = random.Random(20260)
    bases = [BaseSurface.cp2()] + [BaseSurface.hirzebruch(k) for k in range(6)]
    compared = 0
    while compared < 1000:
        surf = make_base(rng.choice(bases))
        for _ in range(rng.randint(1, 12 - surf.rank)):
            through = []
            if rng.random() < 0.4:
                names = [nm for nm, _ in surf.tracked]
                through = rng.sample(names, min(len(names), rng.randint(1, 2)))
            surf = blow_up(surf, through)
        for _ in range(rng.randint(1, surf.rank)):
            lines = find_minus_one_lines(surf)
            if not lines:
                break
            for line in lines:
                names, gram, canonical, tracked = _dense_unit_pivot_blow_down(surf, line)
                down = blow_down(surf, line)
                assert down.basis == names
                assert down.gram == gram
                assert down.canonical.coords == canonical
                assert tuple((nm, cls.coords) for nm, cls in down.tracked) == tracked
                compared += 1
            surf = blow_down(surf, rng.choice(lines))


def test_blow_down_guards_pushforward(monkeypatch):
    # H on the plane blown up once is a +1 line; if the -1 checks are
    # fooled, the moved canonical class is not orthogonal to H and the
    # unit-pivot pushforward must refuse it
    s = blow_up(make_base(BaseSurface.cp2()))
    monkeypatch.setattr(lattice, "intersect", lambda surf, a, b: -1)
    with pytest.raises(InternalInvariantError, match="does not lie in the sublattice"):
        blow_down(s, "H")


def test_blow_down_without_unit_pivot_from_script(monkeypatch):
    # 6H - 2E1 - ... - 2E7 - 3E8 on the plane blown up 8 times: a -1 line
    # whose pairing with every basis vector (6, 2, ..., 2, 3) is a non-unit
    hnf_calls = []
    real_hnf = lattice._hnf_columns
    monkeypatch.setattr(lattice, "_hnf_columns", lambda cols: hnf_calls.append(1) or real_hnf(cols))
    expr = "6H " + " ".join(f"- 2E{i}" for i in range(1, 8)) + " - 3E8"
    out = run_script("base cp2\n" + "blowup\n" * 8 + f"line C = {expr}\nblowdown C\n")
    surf = out.surface
    assert hnf_calls == [1]
    assert surf.rank == 8
    assert surf.k_squared + surf.rank == 10
    assert signature(surf) == (1, surf.rank - 1)


# ---------------------------------------------------------------------------
# conservation along random scripts


def _minus_one_expr(surf, rng):
    """A new -1 class in basis names, or None: f - e from a tracked 0-curve
    f and a disjoint tracked -1 line e, or l - e1 - e2 from a tracked +1
    line l and two such -1 lines."""
    k = surf.canonical

    def kind(c):
        return intersect(surf, c, c), intersect(surf, c, k)

    minus = [c for _, c in surf.tracked if kind(c) == (-1, -1)]
    options = []
    for _, l in surf.tracked:
        disjoint = [e for e in minus if intersect(surf, l, e) == 0]
        if kind(l) == (0, -2):
            options += [l - e for e in disjoint]
        elif kind(l) == (1, -3):
            options += [
                l - a - b
                for i, a in enumerate(disjoint)
                for b in disjoint[i + 1:]
                if intersect(surf, a, b) == 0
            ]
    return rng.choice(options).render(surf.basis) if options else None


def test_lattice_conservation_along_random_scripts():
    rng = random.Random(3)
    bases = ["cp2"] + [f"hirzebruch {k}" for k in range(6)]
    statements = 0
    for _ in range(40):
        lines = [f"base {rng.choice(bases)}"]
        surf = run_script(lines[0]).surface
        for step in range(rng.randint(6, 16)):
            roll = rng.random()
            new = []
            if roll < 0.15:
                new = ["minimal-model"]
            elif roll < 0.35:
                expr = _minus_one_expr(surf, rng)
                if expr is not None:
                    new = [f"line L{step} = {expr}", f"blowdown L{step}"]
            elif roll < 0.45:
                minus = find_minus_one_lines(surf)
                if minus:
                    new = [f"blowdown {rng.choice(minus)}"]
            elif roll < 0.7 and surf.tracked:
                names = [nm for nm, _ in surf.tracked]
                new = ["blowup on " + " ".join(rng.sample(names, min(len(names), rng.randint(1, 2))))]
            if not new:
                new = ["blowup"]
            for stmt in new:
                lines.append(stmt)
                surf = run_script("\n".join(lines) + "\n").surface
                statements += 1
                assert surf.k_squared + surf.rank == 10, lines
                assert signature(surf) == (1, surf.rank - 1), lines
    assert statements > 300
