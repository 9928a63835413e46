import cmath
import collections
import functools
import hashlib
import importlib
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from surfclass import lattice
from surfclass.lattice import (
    BaseSurface,
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
from surfclass.minimal import (
    ReductionReport,
    classify_minimal,
    find_minus_one_lines,
    minimal_model,
)
from surfclass.normalize import normalize
from surfclass.script import ScriptError, ScriptOutcome, parse_class_expr, render_report, run_script
from surfclass.sums import connected_sum_type, connected_sum_words
from surfclass.words import (
    _NAME,
    InternalInvariantError,
    SurfaceType,
    ValidationError,
    _lines,
    _read_int,
    parse_word,
    surface_type_from_invariants,
)

from test_script_cli import _SCRIPT_LINE

N = SurfaceType.non_orientable


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
    assert projectivize(1, 4) == BaseSurface.hirzebruch(3)


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
    assert s.tracked_class("H").coords == (1,)


def test_make_base_hirzebruch():
    s = make_base(BaseSurface.hirzebruch(2))
    assert s.gram == ((-2, 1), (1, 0))
    assert s.canonical.coords == (-2, -4)
    assert s.k_squared == 8
    sec = s.tracked_class("S")
    assert intersect(s, sec, sec) == -2
    assert make_base(BaseSurface.hirzebruch(0)).gram == ((0, 1), (1, 0))


def test_intersect_dimension_mismatch():
    s = make_base(BaseSurface.cp2())
    with pytest.raises(ValidationError, match="dimension mismatch"):
        intersect(s, DivisorClass((1, 0)), DivisorClass((1,)))


@st.composite
def _form_and_classes(draw):
    """A random symmetric integer form of rank 1-8 and two classes, with
    zero and negative entries throughout."""
    n = draw(st.integers(1, 8))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-4, 4))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    a = draw(st.lists(entry, min_size=n, max_size=n))
    b = draw(st.lists(entry, min_size=n, max_size=n))
    return gram, a, b


@given(_form_and_classes())
@settings(max_examples=300)
def test_intersect_matches_dense_sum(case):
    gram, a, b = case
    n = len(gram)
    surf = _form(gram)

    def dense(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))

    ca, cb = DivisorClass(tuple(a)), DivisorClass(tuple(b))
    assert intersect(surf, ca, cb) == dense(a, b)
    assert intersect(surf, cb, ca) == dense(b, a)
    assert intersect(surf, ca, ca) == dense(a, a)
    longer = DivisorClass(tuple(b) + (1,))
    for c1, c2 in ((ca, longer), (longer, ca)):
        with pytest.raises(ValidationError) as exc:
            intersect(surf, c1, c2)
        assert str(exc.value) == (
            f"class dimension mismatch: lattice rank {n}, "
            f"got {len(c1.coords)} and {len(c2.coords)}"
        )


# ---------------------------------------------------------------------------
# blow-up


def test_blow_up_generic():
    s = blow_up(make_base(BaseSurface.cp2()))
    assert s.basis == ("H", "E1")
    e1 = s.tracked_class("E1")
    assert intersect(s, e1, e1) == -1
    assert s.canonical.coords == (-3, 1)
    assert s.k_squared == 8
    assert s.blowups == 1


def test_blow_up_through_line():
    s = blow_up(make_base(BaseSurface.cp2()), through={"H"})
    h = s.tracked_class("H")
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
    assert down.tracked_class("E1").coords == (0, 1)


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
    assert s.tracked_class("H").coords == (1, -1, -1)
    withL = RationalSurface(
        s.base, s.basis, s.gram, s.canonical,
        s.tracked + (("L", DivisorClass((1, -1, -1))),),
    )
    down = blow_down(withL, "L")
    assert down.gram == ((0, 1), (1, 0))
    assert down.basis == ("B1", "B2")
    assert "H" not in dict(down.tracked)  # same class as L: an alias, dropped
    e1 = down.tracked_class("E1")
    e2 = down.tracked_class("E2")
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
    assert down.tracked_class("F").coords == (1,)
    assert down.base == BaseSurface.cp2()
    assert down.blowups == 0


def test_blow_down_without_unit_pivot():
    # contrived form where e_i . c is (-2, 3): no unit entry, so the
    # contraction runs the Euclid reduction before the rank-one update
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
    # F1 is CP2 blown up once: its form is odd, so one reversed summand
    tm1 = topological_model(make_base(BaseSurface.hirzebruch(1)))
    assert tm1.base == BaseSurface.cp2()
    assert (tm1.reversed_cp2_summands, tm1.euler, tm1.b2) == (1, 4, 2)
    tm0 = topological_model(make_base(BaseSurface.hirzebruch(4)))
    assert (tm0.base, tm0.reversed_cp2_summands, tm0.euler) == (BaseSurface.hirzebruch(0), 0, 4)


# the surface each script ends on, read off its lattice: a label kept from
# the base it started from names the wrong one after these contractions
PARITY_SCRIPTS = [
    # the README example: the plane blown up twice, the joining line
    # contracted, leaves the even form [[0, 1], [1, 0]]: S2 x S2
    ("base cp2\nblowup\nblowup\nline L = H - E1 - E2\nblowdown L\n", True, BaseSurface.hirzebruch(0), 0),
    # an elementary transformation of F3 lands on F2, even
    ("base hirzebruch 3\nblowup on F\nline A = F - E1\nblowdown A\n", True, BaseSurface.hirzebruch(0), 0),
    # one of F0 lands on F1, odd: CP2 # reversed CP2
    ("base hirzebruch 0\nblowup\nline A = F - E1\nblowdown A\n", False, BaseSurface.cp2(), 1),
]


@pytest.mark.parametrize("script,even,base,summands", PARITY_SCRIPTS)
def test_topological_model_reads_the_lattice_parity(script, even, base, summands):
    surf = run_script(script).surface
    assert surf.rank == 2 and surf.is_even == even
    assert topological_model(surf) == lattice.TopologicalModel(base, summands, 4, 2)


def test_topological_model_agrees_with_signature():
    # the model's own form, diag(1, -1, ..., -1) or the hyperbolic plane,
    # has the rank and signature of the lattice, and K^2 = 10 - rank
    rng = random.Random(0x70B0)
    for _ in range(200):
        surf = make_base(rng.choice([BaseSurface.cp2()] + [BaseSurface.hirzebruch(n) for n in range(4)]))
        for _ in range(rng.randint(0, 6)):
            names = [nm for nm, _ in surf.tracked]
            surf = blow_up(surf, rng.sample(names, rng.randint(0, min(2, len(names)))))
        lines = find_minus_one_lines(surf)
        if lines:
            surf = blow_down(surf, rng.choice(lines))
        tm = topological_model(surf)
        assert tm.b2 == surf.rank and tm.euler == surf.rank + 2
        summands = tm.reversed_cp2_summands
        if tm.base == BaseSurface.cp2():
            assert not surf.is_even and summands == surf.rank - 1
        else:
            assert surf.is_even and (tm.base, summands, surf.rank) == (BaseSurface.hirzebruch(0), 0, 2)
        assert signature(surf) == (1, surf.rank - 1)
        assert surf.k_squared == 10 - surf.rank


def test_topological_model_rejects_an_unreachable_even_form():
    # E8 plus a hyperbolic plane would be even of signature (1, 9); a
    # smaller even form of rank 3 stands in for any such lattice here
    surf = RationalSurface(
        base=BaseSurface.hirzebruch(0),
        basis=("u", "v", "w"),
        gram=((0, 1, 0), (1, 0, 0), (0, 0, -2)),
        canonical=DivisorClass((-2, -2, 0)),
        tracked=(),
    )
    with pytest.raises(InternalInvariantError, match="even lattice of rank 3"):
        topological_model(surf)


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


def _recording_blow_down(updates, run=blow_down):
    """``blow_down``, or ``run`` in its place, that also appends (n, p,
    support, steps, pushes) of each contraction to ``updates``: the rank,
    the pivot, the support of w = G c, the basis changes (i, j, q, s) in
    order, and for each class it pushed forward whether l.c was nonzero.
    They are read off the frames of the contraction kernel
    ``lattice._contract`` and of its nested ``push`` as they return, so a
    corpus can show which cases of the basis change and of the pushforward
    it reached."""
    code = lattice._contract.__code__
    push_code = next(k for k in code.co_consts if getattr(k, "co_name", None) == "push")
    pushes = []

    def hook(frame, event, arg):
        if event != "return":
            return
        if frame.f_code is push_code:
            f = frame.f_locals
            pushes.append(f["lc"] != 0)
        elif frame.f_code is code:
            f = frame.f_locals
            updates.append((f["n"], f["p"], f["support"], f["steps"], tuple(pushes)))
            pushes.clear()

    def contract(*args):
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            return run(*args)
        finally:
            sys.setprofile(previous)

    return contract


def _assert_update_cases_reached(updates):
    """The corpus reaches every case of the complement basis change and both
    cases of the pushforward."""
    # a slot with w_a = 0 that no step touches beside one that a step moves:
    # the support of w has the pivot, another slot, and misses a third
    assert any(1 < len(support) < n for n, _, support, _, _ in updates)
    # a complement step e_a <- -(e_a - q e_p), which negates its new basis
    # vector; Euclid's steps keep s = +1
    assert any(j == p and s == -1 for _, p, _, steps, _ in updates for _, j, _, s in steps)
    # a complement step at all: a slot off the pivot with w_a != 0
    assert any(len(support) > 1 for _, _, support, _, _ in updates)
    # a class with l.c = 0, pushed by replaying the steps on its coordinates,
    # and a class with l.c != 0, first moved by (l.c) c
    assert {moves for *_, pushes in updates for moves in pushes} == {False, True}


def test_blow_down_matches_dense_reference():
    # random blow-up sequences up to rank 12, some on tracked lines, then
    # contractions; every -1 line of every surface on the way is compared
    rng = random.Random(20260)
    bases = [BaseSurface.cp2()] + [BaseSurface.hirzebruch(k) for k in range(6)]
    compared = 0
    updates = []
    contract = _recording_blow_down(updates)
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
                down = contract(surf, line)
                assert down.basis == names
                assert down.gram == gram
                assert down.canonical.coords == canonical
                assert tuple((nm, cls.coords) for nm, cls in down.tracked) == tracked
                compared += 1
            surf = blow_down(surf, rng.choice(lines))
    _assert_update_cases_reached(updates)


def test_blow_down_guards_pushforward(monkeypatch):
    # if the -1 checks are fooled, the moved canonical class keeps a nonzero
    # pivot coordinate and the pushforward must refuse it: H on the plane
    # blown up once is a +1 line with a unit pivot; C = (2, 3) on the form
    # diag(-1, 3) has C.C = 23 and pairs to w = (-2, 9), so Euclid runs first
    unit = blow_up(make_base(BaseSurface.cp2()))
    euclid = RationalSurface(
        BaseSurface.hirzebruch(0), ("S", "F"), ((-1, 0), (0, 3)), DivisorClass((0, 0)),
        (("C", DivisorClass((2, 3))),),
    )
    monkeypatch.setattr(lattice, "_dot", lambda gram, a, b: -1)
    for surf, line in [(unit, "H"), (euclid, "C")]:
        with pytest.raises(InternalInvariantError, match="does not lie in the sublattice"):
            blow_down(surf, line)


def test_blow_down_without_unit_pivot_from_script():
    # 6H - 2E1 - ... - 2E7 - 3E8 on the plane blown up 8 times: a -1 line
    # whose pairing with every basis vector (6, 2, ..., 2, 3) is a non-unit,
    # so the contraction has to run the Euclid reduction first
    expr = "6H " + " ".join(f"- 2E{i}" for i in range(1, 8)) + " - 3E8"
    script = "base cp2\n" + "blowup\n" * 8 + f"line C = {expr}\n"
    before = run_script(script).surface
    c = before.tracked_class("C")
    w = [intersect(before, _unit_class(before.rank, i), c) for i in range(before.rank)]
    assert w == [6] + [2] * 7 + [3]
    out = run_script(script + "blowdown C\n")
    surf = out.surface
    assert surf.rank == 8
    assert surf.k_squared + surf.rank == 10
    assert signature(surf) == (1, surf.rank - 1)


def _unit_class(rank, i):
    return DivisorClass(tuple(int(k == i) for k in range(rank)))


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


def _random_scripts():
    """40 seeded random scripts of blow-ups, blow-downs of tracked and of
    scripted -1 lines, and minimal-model statements.  Yields each script's
    lines and its outcome after every statement."""
    rng = random.Random(3)
    bases = ["cp2"] + [f"hirzebruch {k}" for k in range(6)]
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
                outcome = run_script("\n".join(lines) + "\n")
                surf = outcome.surface
                yield lines, outcome


def test_lattice_conservation_along_random_scripts():
    statements = 0
    for lines, outcome in _random_scripts():
        surf = outcome.surface
        statements += 1
        assert surf.k_squared + surf.rank == 10, lines
        assert signature(surf) == (1, surf.rank - 1), lines
        assert signature(surf) == _fraction_signature(surf.gram), lines
    assert statements > 300


def _assert_int_classes(surf, steps=()):
    """Every coordinate of K, of each tracked class and of each step class
    is a Python int, and so is every Gram entry."""
    classes = [surf.canonical] + [cls for _, cls in surf.tracked] + [cls for _, cls in steps]
    for cls in classes:
        assert all(type(x) is int for x in cls.coords), cls
    assert all(type(x) is int for row in surf.gram for x in row)


def test_internal_classes_are_ints_along_random_scripts():
    # blow_up, blow_down and minimal_model build their classes unchecked
    # from int arithmetic; the scripts run all three, and each surface
    # along them is also blown up, blown down and reduced directly
    for _, outcome in _random_scripts():
        surf = outcome.surface
        _assert_int_classes(surf)
        for report in outcome.reductions:
            _assert_int_classes(report.final_surface, report.steps)
        _assert_int_classes(blow_up(surf, [nm for nm, _ in surf.tracked][:1]))
        for line in find_minus_one_lines(surf)[:2]:
            _assert_int_classes(blow_down(surf, line))
        report = minimal_model(surf)
        _assert_int_classes(report.final_surface, report.steps)


def test_divisor_class_constructor_normalizes_to_int():
    cls = DivisorClass((True, 2.0))
    assert cls.coords == (1, 2)
    assert [type(x) for x in cls.coords] == [int, int]


# ---------------------------------------------------------------------------
# contractions with no unit pairing: Cremona images of an exceptional curve


def _surface(base, tracked):
    return RationalSurface(base.base, base.basis, base.gram, base.canonical, tuple(tracked))


def _reflections(surf, cls, rng, points, count):
    """The images of cls under ``count`` successive reflections
    x -> x + (x.r) r in random classes r = H - Ei - Ej - Ek over the given
    points; r.r = -2 and r.K = 0, so each reflection keeps the form and K
    and maps -1 curves to -1 curves."""
    x = {i: a for i, a in enumerate(cls.coords) if a}
    for _ in range(count):
        r = [(0, 1)] + [(i, -1) for i in rng.sample(points, 3)]
        xr = sum([a * surf.gram[i][j] * b for i, a in x.items() for j, b in r])
        for j, b in r:
            x[j] = x.get(j, 0) + xr * b
        yield DivisorClass(tuple(x.get(i, 0) for i in range(surf.rank)))


def _cremona_image(surf, cls, rng, points):
    """cls under 2-12 random Cremona reflections."""
    *_, image = _reflections(surf, cls, rng, points, rng.randint(2, 12))
    return image


def _sparse_rows(surf):
    """The nonzero entries (j, g) of each Gram row; the forms here are
    mostly diagonal."""
    return [[(j, g) for j, g in enumerate(row) if g] for row in surf.gram]


def _gram_times(rows, cls):
    """G c, the pairings of c with the basis vectors."""
    gc = [0] * len(rows)
    for i, y in enumerate(cls.coords):
        if y:
            for j, g in rows[i]:
                gc[j] += g * y
    return gc


def _pairings(surf, classes):
    """Matrix of every pairing a.b among the given classes."""
    rows = _sparse_rows(surf)
    images = [_gram_times(rows, b) for b in classes]
    supports = [[(i, x) for i, x in enumerate(a.coords) if x] for a in classes]
    return [[sum([x * gb[i] for i, x in sa]) for gb in images] for sa in supports]


@functools.lru_cache(maxsize=None)
def _cremona_corpus():
    """200 distinct (surface, class) pairs: the plane blown up 8-40 times,
    and an image of E1 under 2-12 reflections on the first <= 10 points
    that pairs to no basis vector with +-1, so every contraction runs the
    Euclid reduction."""
    rng = random.Random(0xC4E)
    blown = {}
    seen = set()
    corpus = []
    while len(corpus) < 200:
        n = rng.randint(8, 40)
        if n not in blown:
            surf = make_base(BaseSurface.cp2())
            for _ in range(n):
                surf = blow_up(surf)
            blown[n] = surf, _sparse_rows(surf)
        surf, rows = blown[n]
        images = _reflections(surf, _unit_class(surf.rank, 1), rng, range(1, min(n, 10) + 1), 12)
        for c in list(images)[1:]:
            if not any(abs(x) == 1 for x in _gram_times(rows, c)) and c.coords not in seen:
                seen.add(c.coords)
                corpus.append((surf, c))
    return tuple(corpus[:200])


def _det(gram):
    """Determinant by Bareiss elimination with row swaps."""
    a = [list(row) for row in gram]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        d, tail = a[k][k], a[k][k + 1:]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i][k + 1:] = [(d * x - f * y) // prev for x, y in zip(a[i][k + 1:], tail)]
        prev = d
    return sign * prev


def test_blow_down_cremona_corpus():
    # 200 no-unit classes at rank 9-41, each contracted under 5 different
    # sets of tracked lines (1,000 contractions); the tracked lines do not
    # touch the Gram matrix, so rank, signature and determinant are checked
    # once per class and the Gram matrix is asserted equal across the five
    rng = random.Random(0xC4F)
    contractions = 0
    updates = []
    contract = _recording_blow_down(updates)
    ranks = set()
    for surf, c in _cremona_corpus():
        n = surf.rank
        points = range(1, min(n - 1, 10) + 1)
        gram = None
        for variant in range(5):
            exceptional = [(nm, cls) for nm, cls in surf.tracked if nm != "H"]
            tracked = [surf.tracked[0]] + rng.sample(exceptional, min(6, len(exceptional)))
            for k in range(rng.randint(1, 3)):
                e = _unit_class(n, rng.choice(points))
                tracked.append((f"L{k}", _cremona_image(surf, e, rng, points)))
            i, j = rng.sample(points, 2)
            tracked.append(("M", _unit_class(n, 0) - _unit_class(n, i) - _unit_class(n, j)))
            if variant == 0:
                tracked.append(("A", c))  # another name for C: dropped
            tracked.append(("C", c))
            before = _surface(surf, tracked)
            down = contract(before, "C")
            contractions += 1

            assert down.rank == n - 1
            assert down.k_squared + down.rank == 10
            if gram is None:
                gram = down.gram
                assert signature(down) == (1, down.rank - 1)
                assert abs(_det(down.gram)) == 1
                ranks.add(n)
            assert down.gram == gram

            # the pairing of every two surviving classes, K included, is the
            # old pairing of l + (l.c) c
            wc = _gram_times(_sparse_rows(before), c)
            moved = {"K": before.canonical - c}
            for nm, cls in before.tracked:
                lc = sum([x * y for x, y in zip(cls.coords, wc) if x])
                m = cls + lc * c if lc else cls
                if nm != "C" and any(m.coords):
                    moved[nm] = m
            pushed = {"K": down.canonical, **dict(down.tracked)}
            assert list(pushed) == list(moved)
            # a basis name that survives still names its own old curve
            for slot, nm in enumerate(down.basis):
                if nm in pushed:
                    assert pushed[nm] == _unit_class(down.rank, slot), (c, nm)
            assert _pairings(down, list(pushed.values())) == _pairings(
                before, list(moved.values())
            ), c
    assert contractions >= 1000
    assert min(ranks) <= 12 and max(ranks) == 41
    _assert_update_cases_reached(updates)


# ---------------------------------------------------------------------------
# minimal_model against the loop it replaced


def _reference_minimal_model(surf):
    """The reduction loop before the scan stopped at the first hit: list
    every -1 line, contract the first."""
    steps = []
    current = surf
    for _ in range(surf.rank):
        lines = find_minus_one_lines(current)
        if not lines:
            break
        steps.append((lines[0], current.tracked_class(lines[0])))
        current = blow_down(current, lines[0])
    else:
        raise AssertionError("reduction did not terminate within rank steps")
    return ReductionReport(tuple(steps), classify_minimal(current), current)


@functools.lru_cache(maxsize=None)
def _minimal_model_corpus():
    """Plain 10/20/40/80 blow-ups over CP2 and F0-F5, 10/20 blow-ups with
    some points on tracked lines, every surface along the random scripts,
    and scripted no-unit-pivot contractions of Cremona classes, with the
    surface before and after the contraction.  Built once, as a tuple."""
    rng = random.Random(0x3A1)
    corpus = []
    for base in [BaseSurface.cp2()] + [BaseSurface.hirzebruch(k) for k in range(6)]:
        for n in (10, 20, 40, 80):
            surf = make_base(base)
            for _ in range(n):
                surf = blow_up(surf)
            corpus.append(surf)
        for n in (10, 20):
            surf = make_base(base)
            for _ in range(n):
                names = [nm for nm, _ in surf.tracked]
                k = min(len(names), rng.randint(1, 2))
                surf = blow_up(surf, rng.sample(names, k) if rng.random() < 0.3 else [])
            corpus.append(surf)
    for _, outcome in _random_scripts():
        corpus.append(outcome.surface)
    for surf, c in _cremona_corpus()[:20]:
        script = "base cp2\n" + "blowup\n" * (surf.rank - 1) + f"line C = {c.render(surf.basis)}\n"
        corpus.append(run_script(script).surface)
        corpus.append(run_script(script + "blowdown C\n").surface)
    return tuple(corpus)


def test_minimal_model_matches_full_scan_reference():
    surfaces = contractions = 0
    for surf in _minimal_model_corpus():
        report = minimal_model(surf)
        reference = _reference_minimal_model(surf)
        assert report.steps == reference.steps
        assert report.final == reference.final
        final, ref = report.final_surface, reference.final_surface
        assert final.basis == ref.basis
        assert final.gram == ref.gram
        assert final.canonical == ref.canonical
        assert final.tracked == ref.tracked
        assert report == reference
        surfaces += 1
        contractions += len(report.steps)
    assert surfaces > 500 and contractions >= 3000


def test_minimal_model_runs_euclid_and_moves_every_later_line():
    # 6H - 2E1 - ... - 2E7 - 3E8 tracked first pairs to no basis vector with
    # +-1, so the first contraction of the reduction runs Euclid's steps and
    # moves every line tracked after it
    plane = make_base(BaseSurface.cp2())
    for _ in range(8):
        plane = blow_up(plane)
    c = DivisorClass((6,) + (-2,) * 7 + (-3,))
    surf = _surface(plane, (("C", c),) + plane.tracked)
    updates = []
    report = _recording_blow_down(updates, minimal_model)(surf)
    assert report.steps[0] == ("C", c)
    assert report == _reference_minimal_model(surf)
    n, p, _, steps, _ = updates[0]
    assert n == 9 and any(j != p for _, j, _, _ in steps)


def test_contract_names_only_the_lines_whose_class_moved():
    # on the same surface Euclid's steps rewrite every coordinate, but a
    # change of basis keeps the form: L = E1 - E2 pairs to 0 with C, so its
    # class, its square and its K-degree stay, and it is not among the lines
    # the contraction names as moved; H and every E_i pair nonzero with C
    plane = make_base(BaseSurface.cp2())
    for _ in range(8):
        plane = blow_up(plane)
    c = DivisorClass((6,) + (-2,) * 7 + (-3,))
    l = plane.tracked_class("E1") - plane.tracked_class("E2")
    surf = _surface(plane, (("C", c),) + plane.tracked + (("L", l),))
    assert intersect(surf, c, l) == 0
    lat = lattice._working(surf)
    moved = lattice._contract(lat, "C")
    assert moved == [nm for nm, _ in plane.tracked]
    down = blow_down(surf, "C")
    l = down.tracked_class("L")
    assert l != surf.tracked_class("L")
    assert (intersect(down, l, l), intersect(down, l, down.canonical)) == (-2, 0)
    assert minimal_model(surf) == _reference_minimal_model(surf)


def _chain(k):
    """The plane blown up k times, each point on the last exceptional curve,
    built by the constructor: H = e0, E_i = e_i - e_(i+1) for i < k and
    E_k = e_k, with the form diag(1, -1, ..., -1)."""
    basis = ("H",) + tuple(f"E{i}" for i in range(1, k + 1))
    diagonal = (1,) + (-1,) * k
    gram = tuple(tuple(d if i == j else 0 for j in range(k + 1)) for i, d in enumerate(diagonal))
    tracked = [("H", _unit_class(k + 1, 0))]
    for i in range(1, k + 1):
        e = _unit_class(k + 1, i)
        tracked.append((f"E{i}", e - _unit_class(k + 1, i + 1) if i < k else e))
    canonical = DivisorClass((-3,) + (1,) * k)
    return RationalSurface(BaseSurface.cp2(), basis, gram, canonical, tuple(tracked))


def test_minimal_model_on_a_chain_matches_the_reference():
    # each contraction turns the line before it into a -1 line, which the
    # scan reaches only at the end of the tracked lines
    surf = _chain(40)
    report = minimal_model(surf)
    assert [nm for nm, _ in report.steps] == [f"E{i}" for i in range(40, 0, -1)]
    assert report == _reference_minimal_model(surf)


def test_minimal_model_on_a_long_chain_is_not_cubic():
    # 640 contractions, each found at the end of the scan: 0.6-0.7 s on a
    # shared 2-vCPU VM (Python 3.11.7), and 11-14 s there when every
    # contraction built a surface and every scan read every line again
    surf = _chain(640)
    start = time.perf_counter()
    report = minimal_model(surf)
    elapsed = time.perf_counter() - start
    assert [nm for nm, _ in report.steps] == [f"E{i}" for i in range(640, 0, -1)]
    assert str(report.final) == "CP2"
    assert elapsed < 6.0, elapsed


# sha256 of the printed minimal-model answer of every corpus surface, one per
# line; the reference above shares ``classify_minimal`` and cannot see it move
_FINAL_TYPE_DIGEST = "7ecd78bf603ccc5b9302733fac2725ce0119456f8c2b23370989124b1dc092a7"


def test_minimal_model_final_type_digest():
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for surf in _minimal_model_corpus():
        final = str(minimal_model(surf).final)
        digest.update(final.encode() + b"\n")
        kinds[final.split("(")[0]] += 1
    assert kinds == {"CP2": 171, "Hirzebruch": 243, "Inconclusive": 149}
    assert digest.hexdigest() == _FINAL_TYPE_DIGEST


# ---------------------------------------------------------------------------
# run_script against the statement loop it replaced


def _reference_statement(surf, stmt, events):
    """One statement on an immutable surface, rebuilt by ``blow_up``,
    ``blow_down``, ``minimal_model`` or the constructor."""
    words = stmt.split()
    head = words[0].lower()
    if head == "base":
        if surf is not None:
            raise ValidationError("base is already set")
        if len(words) == 2 and words[1].lower() == "cp2":
            return make_base(BaseSurface.cp2())
        if len(words) == 3 and words[1].lower() == "hirzebruch":
            try:
                n = _read_int(words[2])
            except ValueError:
                raise ValidationError(f"bad Hirzebruch index {words[2]!r}")
            return make_base(BaseSurface.hirzebruch(n))
        raise ValidationError("expected 'base cp2' or 'base hirzebruch <n>'")
    if surf is None:
        raise ValidationError("script must start with a base statement")
    if head == "blowup":
        through = []
        if len(words) > 1:
            if words[1].lower() != "on":
                raise ValidationError("expected 'blowup' or 'blowup on <line> ...'")
            through = words[2:]
            if not through:
                raise ValidationError("'blowup on' needs at least one line name")
        return blow_up(surf, through)
    if head == "line":
        m = re.match(rf"^line\s+({_NAME})\s*=\s*(.+)$", stmt, re.IGNORECASE)
        if not m:
            raise ValidationError("expected 'line <name> = <class expr>'")
        name, expr = m.group(1), m.group(2)
        if any(nm == name for nm, _ in surf.tracked):
            raise ValidationError(f"line name {name!r} is already tracked")
        cls = parse_class_expr(expr, surf.basis)
        return RationalSurface(
            surf.base, surf.basis, surf.gram, surf.canonical, surf.tracked + ((name, cls),)
        )
    if head == "blowdown":
        if len(words) != 2:
            raise ValidationError("expected 'blowdown <name>'")
        return blow_down(surf, words[1])
    if head == "minimal-model":
        if len(words) != 1:
            raise ValidationError("'minimal-model' takes no arguments")
        report = minimal_model(surf)
        events.append(("reduction", report))
        return report.final_surface
    if head == "report":
        if len(words) != 1:
            raise ValidationError("'report' takes no arguments")
        events.append(("report", render_report(surf)))
        return surf
    raise ValidationError(f"unknown statement {head!r}")


def _reference_run_script(text):
    """``run_script`` as it was when every statement built a surface."""
    surf = None
    events = []
    for line_no, stmt in _lines(text):
        try:
            surf = _reference_statement(surf, stmt, events)
        except ValidationError as e:
            raise ScriptError(str(e), line_no)
    if surf is None:
        raise ScriptError("script is empty", max(1, len(text.splitlines())))
    return ScriptOutcome(surf, events)


def _outcome_or_error(run, text):
    """The outcome of ``run`` on ``text``, or the line and message of the
    ``ScriptError`` it raised."""
    try:
        return run(text)
    except ScriptError as e:
        return e.line_no, e.bare_message


def _assert_runs_agree(text):
    outcome = _outcome_or_error(run_script, text)
    reference = _outcome_or_error(_reference_run_script, text)
    if isinstance(outcome, ScriptOutcome):
        assert outcome.surface.base == reference.surface.base, text
        assert outcome.events == reference.events, text
    assert outcome == reference, text


def test_run_script_matches_the_surface_per_statement_reference(monkeypatch):
    # every prefix of the random scripts, the benchmark's construction
    # scripts of three seeds, alone and carried on past their reduction, so
    # that later statements change the lattice its report was built from,
    # and the Cremona scripts, each carried on to a reduction and a report
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    inputs = importlib.import_module("inputs")
    texts = ["\n".join(lines) + "\n" for lines, _ in _random_scripts()]
    for seed in (1, 2, 3):
        for item in inputs.script_inputs(seed):
            texts += [item.text, item.text + "blowup\nminimal-model\nreport\n"]
    for surf, c in _cremona_corpus()[:20]:
        script = "base cp2\n" + "blowup\n" * (surf.rank - 1) + f"line C = {c.render(surf.basis)}\n"
        texts += [script, script + "blowdown C\n", script + "blowdown C\nminimal-model\nreport\n"]
    assert len(texts) > 500
    for text in texts:
        _assert_runs_agree(text)


def test_run_script_labels_after_a_contraction_below_the_base():
    # contracting the section of F1 leaves rank 1, so the base is the plane
    # and the next exceptional curve is E1; the Hirzebruch base would give E0
    text = "base hirzebruch 1\nblowdown S\nblowup\n"
    outcome = run_script(text)
    assert outcome.surface.base == BaseSurface.cp2()
    assert outcome.surface.basis[-1] == "E1"
    _assert_runs_agree(text)


@given(
    st.sampled_from(["base cp2", "base hirzebruch 0", "base hirzebruch 1", "base hirzebruch 3", ""]),
    st.lists(_SCRIPT_LINE, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_run_script_matches_the_reference_on_generated_scripts(first, lines):
    _assert_runs_agree("\n".join([first, *lines]))


# ---------------------------------------------------------------------------
# the paper's dictionary: the real locus of each constructed surface
#
# With every blown-up point real, the real structure acts as -1 on H^2, so
# the Lefschetz formula gives chi(X(R)) = 2 - rank, and the real locus is
# orientable exactly when the lattice is even (Comessatti; Silhol, LNM 1392).
# CP2's real locus is RP2, F_n's a torus for n even and a Klein bottle for n
# odd, and a blow-up at a real point is a connected sum with RP2.  The word
# side reads the same type off independently, with connected sums and
# normalize.


def _real_type(surf):
    return surface_type_from_invariants(2 - surf.rank, surf.is_even)


def _real_word(base):
    if base.is_cp2:
        return parse_word("a a")
    return parse_word("a b a b'" if base.index % 2 else "a b a' b'")


def test_real_loci_agree_with_the_lattice():
    # law A: a base blown up k times, on lines or not, has the real type of
    # its base's real word with k cross-caps summed on.  Law B: the base a
    # reduction names has the real type of the lattice it ends on, and a run
    # of k contractions took k cross-caps off the real locus
    summed = {}

    def real_sum(base, k):
        if (base, k) not in summed:
            word = _real_word(base)
            for _ in range(k):
                word = connected_sum_words(word, parse_word("a a"))
            summed[base, k] = normalize(word).type
        return summed[base, k]

    rng = random.Random(0x13A)
    for base in [BaseSurface.cp2()] + [BaseSurface.hirzebruch(n) for n in range(6)]:
        surf = make_base(base)
        for k in range(13):
            assert real_sum(base, k) == _real_type(surf), (base, k)
            names = [nm for nm, _ in surf.tracked]
            through = rng.sample(names, rng.randint(1, 2)) if rng.random() < 0.3 else []
            surf = blow_up(surf, through)
    named = 0
    for surf in _minimal_model_corpus():
        report = minimal_model(surf)
        k = len(report.steps)
        end = _real_type(report.final_surface)
        assert _real_type(surf) == (connected_sum_type(end, N(k)) if k else end)
        if isinstance(report.final, BaseSurface):
            assert real_sum(report.final, 0) == end, report.final
            assert real_sum(report.final, k) == _real_type(surf), (report.final, k)
            named += 1
    assert named == 414


# ---------------------------------------------------------------------------
# every contraction of the three corpora against a pinned digest


def _dense_reference_contractions():
    """The (surface, line) pairs ``test_blow_down_matches_dense_reference``
    compares, drawn from the same seed in the same order."""
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
                yield surf, line
                compared += 1
            surf = blow_down(surf, rng.choice(lines))


def _corpus_contractions():
    """Every contraction of the dense-reference corpus, of each Cremona
    class with all the plane's lines tracked, and of each minimal-model
    reduction of ``_minimal_model_corpus``."""
    yield from _dense_reference_contractions()
    for surf, c in _cremona_corpus():
        yield _surface(surf, surf.tracked + (("C", c),)), "C"
    for surf in _minimal_model_corpus():
        for name, _ in minimal_model(surf).steps:
            yield surf, name
            surf = blow_down(surf, name)


# sha256 of every contraction's basis, Gram matrix, canonical class and
# tracked classes, computed before the pushforward and ``intersect`` became
# support-sparse; both the unit-pivot and the Euclid branch must keep it
_CONTRACTION_DIGEST = "deffdc328e0951bfc4013cb176242fe7df8c5458b9b85f18b1cd89a9511d06dd"


def test_blow_down_golden_digest():
    digest = hashlib.sha256()
    contractions = 0
    for surf, line in _corpus_contractions():
        down = blow_down(surf, line)
        tracked = tuple((nm, cls.coords) for nm, cls in down.tracked)
        digest.update(repr((line, down.basis, down.gram, down.canonical.coords, tracked)).encode())
        contractions += 1
    assert contractions == 4241
    assert digest.hexdigest() == _CONTRACTION_DIGEST


# ---------------------------------------------------------------------------
# signature against the Fraction elimination it replaced


def _fraction_signature(gram):
    """Inertia (positive, negative) by symmetric elimination over Fraction."""
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
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


def _form(gram):
    n = len(gram)
    return RationalSurface(
        base=BaseSurface.cp2(),
        basis=tuple(f"x{i}" for i in range(n)),
        gram=tuple(tuple(row) for row in gram),
        canonical=DivisorClass((0,) * n),
        tracked=(),
    )


def _congruent(gram, rng, moves):
    """P^T G P for a random unimodular P: elementary row-and-column
    additions, swaps and sign changes applied to both sides."""
    a = [list(row) for row in gram]
    n = len(a)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        kind = rng.random()
        if kind < 0.6:
            q = rng.choice([-2, -1, 1, 2])
            for row in a:
                row[i] += q * row[j]
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        elif kind < 0.8:
            a[i], a[j] = a[j], a[i]
            for row in a:
                row[i], row[j] = row[j], row[i]
        else:
            a[i] = [-x for x in a[i]]
            for row in a:
                row[i] = -row[i]
    return a


def test_signature_matches_fraction_reference_on_cremona_corpus():
    for surf, c in _cremona_corpus():
        down = blow_down(_surface(surf, surf.tracked + (("C", c),)), "C")
        assert signature(down) == _fraction_signature(down.gram) == (1, down.rank - 1)


def test_signature_matches_fraction_reference_on_hyperbolic_sums():
    # m U + k <-1>, with U the hyperbolic plane ((0, 1), (1, 0)): the
    # untransformed forms open on a zero diagonal whose partner diagonal is
    # also zero, the "add slot j" step; the congruent images mix them up
    rng = random.Random(0x0B)
    for m in range(1, 4):
        for k in range(0, 6):
            n = 2 * m + k
            gram = [[0] * n for _ in range(n)]
            for h in range(m):
                gram[2 * h][2 * h + 1] = gram[2 * h + 1][2 * h] = 1
            for i in range(2 * m, n):
                gram[i][i] = -1
            expected = (m, m + k)
            assert signature(_form(gram)) == _fraction_signature(gram) == expected
            for moves in (1, 3, 10, 40):
                image = _congruent(gram, rng, moves)
                assert signature(_form(image)) == _fraction_signature(image) == expected


def test_signature_matches_fraction_reference_on_zero_diagonal_forms():
    # random symmetric forms with an all-zero diagonal keep meeting zero
    # pivots, also after elimination; degenerate ones must raise in both
    rng = random.Random(0x2D)
    degenerate = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.choice([-2, -1, 0, 0, 1, 2])
        try:
            expected = _fraction_signature(gram)
        except InternalInvariantError:
            degenerate += 1
            with pytest.raises(InternalInvariantError, match="degenerate"):
                signature(_form(gram))
            continue
        assert signature(_form(gram)) == expected, gram
    assert 0 < degenerate < 200


def test_signature_rejects_degenerate_forms():
    rng = random.Random(0xDE)
    for gram in (
        [[1, 1], [1, 1]],
        [[0, 0], [0, -1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        _congruent([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]], rng, 20),
    ):
        with pytest.raises(InternalInvariantError, match="degenerate"):
            signature(_form(gram))
        with pytest.raises(InternalInvariantError, match="degenerate"):
            _fraction_signature(gram)
