"""Acceptance gate.

One test per numbered criterion, each printing a single pass/fail line and
enforcing the stated tolerance (exact integer equality unless a tolerance is
given).  On the first Hirzebruch surface the round-trip criterion checks the
round trip that holds there: undoing the blow-ups gives the base back, and the
reduction ends on the plane, because that base is not minimal.  See the
comment on that test.
"""

import random
import time
from itertools import accumulate

import pytest

from surfclass.lattice import (
    BaseSurface,
    DivisorClass,
    blow_down,
    blow_up,
    blowup_chart_transition,
    cocycle_at,
    euler_characteristic_cx,
    intersect,
    make_base,
    projectivize,
    signature,
)
from surfclass.minimal import (
    classify_minimal,
    find_minus_one_lines,
    minimal_model,
)
from surfclass.moves import (
    Cancel,
    CutPaste,
    FlipEdge,
    Insert,
    Reflect,
    Rename,
    Rotate,
    apply_move,
)
from surfclass.normalize import normalize
from surfclass.orbit import enumerate_words, orbit_oracle
from surfclass.script import run_script
from surfclass.sums import connected_sum_type, connected_sum_words
from surfclass.words import (
    SurfaceType,
    canonical_word,
    euler_characteristic,
    is_orientable,
    parse_word,
)

from conftest import random_word


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. named identities, exact, under a second
# ---------------------------------------------------------------------------


def test_criterion_1_named_identities():
    t0 = time.perf_counter()

    res = normalize(parse_word("a a b b"))
    assert res.type == SurfaceType.non_orientable(2)
    words_on_the_way = accumulate(res.trace.steps, apply_move, initial=res.trace.initial)
    assert parse_word("a c a' c") in words_on_the_way

    assert normalize(parse_word("a a'")).type == SurfaceType.sphere()

    for n in range(1, 6):
        w = canonical_word(SurfaceType.orientable_genus(n))
        assert normalize(w).type == SurfaceType.orientable_genus(n)

    for n in range(1, 4):
        for m in range(1, 4):
            total = connected_sum_words(
                canonical_word(SurfaceType.orientable_genus(n)),
                canonical_word(SurfaceType.orientable_genus(m)),
            )
            assert normalize(total).type == SurfaceType.orientable_genus(n + m)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, True, f"all named identities exact ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# 2. exhaustive oracle agreement over three symbols
# ---------------------------------------------------------------------------


def test_criterion_2_oracle_equivalence_exhaustive():
    t0 = time.perf_counter()
    universe = enumerate_words(("a", "b", "c"))

    by_type = {}
    for w in universe:
        by_type.setdefault(normalize(w).type, set()).add(w)

    # reachability partitions the whole universe exactly by surface type:
    # from any one representative the orbit enumerates precisely the words
    # of its type, so two words get equal types iff mutually reachable
    for t in sorted(by_type, key=str):
        slice_ = by_type[t]
        rep_a = min(slice_, key=lambda w: (len(w), w.render()))
        rep_b = max(slice_, key=lambda w: (len(w), w.render()))
        for rep in {rep_a, rep_b}:
            orb = orbit_oracle(rep, max_symbols=3, budget=100_000)
            assert orb.exhausted, (t, rep.render())
            assert orb.expanded <= 100_000
            assert orb.words == frozenset(slice_), (t, rep.render())

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        2,
        True,
        f"{len(universe)} words, {len(by_type)} orbits match type classes "
        f"exactly ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 3. move invariance and sum homomorphism properties
# ---------------------------------------------------------------------------


def _random_move(rng, word):
    n = len(word)
    syms = []
    for letter in word.letters:
        if letter.symbol not in syms:
            syms.append(letter.symbol)
    fresh = next(f"t{i}" for i in range(n + 1) if f"t{i}" not in syms)

    kinds = ["rotate", "reflect", "rename", "flipedge", "insert"]
    cancels = [
        p
        for p in range(n)
        if n > 2
        and word.letters[p].symbol == word.letters[(p + 1) % n].symbol
        and word.letters[p].exponent == -word.letters[(p + 1) % n].exponent
    ]
    if cancels:
        kinds.append("cancel")
    straddlers = []
    cut_at = None
    if n >= 3:
        i, j = sorted(rng.sample(range(n), 2))
        pos = {}
        for p, letter in enumerate(word.letters):
            pos.setdefault(letter.symbol, []).append(p)
        straddlers = [s for s, (p, q) in pos.items() if (i <= p < j) != (i <= q < j)]
        cut_at = (i, j)
        if straddlers:
            kinds.append("cutpaste")

    kind = rng.choice(kinds)
    if kind == "rotate":
        return Rotate(rng.randrange(n))
    if kind == "reflect":
        return Reflect()
    if kind == "rename":
        return Rename(rng.choice(syms), fresh)
    if kind == "flipedge":
        return FlipEdge(rng.choice(syms))
    if kind == "insert":
        return Insert(rng.randrange(n + 1), fresh)
    if kind == "cancel":
        return Cancel(rng.choice(cancels))
    return CutPaste(cut_at[0], cut_at[1], fresh, rng.choice(straddlers))


def test_criterion_3_move_invariance_and_homomorphism():
    rng = random.Random(0x3333)

    for _ in range(10_000):
        word = random_word(rng, max_pairs=6)
        move = _random_move(rng, word)
        after = apply_move(word, move)
        assert euler_characteristic(after) == euler_characteristic(word), move
        assert is_orientable(after) == is_orientable(word), move

    for _ in range(1_000):
        w1 = random_word(rng, max_pairs=4, prefix="p")
        w2 = random_word(rng, max_pairs=4, prefix="q")
        lhs = normalize(connected_sum_words(w1, w2)).type
        rhs = connected_sum_type(normalize(w1).type, normalize(w2).type)
        assert lhs == rhs, (w1.render(), w2.render())

    _report(3, True, "10000 move applications + 1000 sum pairs, zero failures")


# ---------------------------------------------------------------------------
# 4. summing a sphere word changes nothing
# ---------------------------------------------------------------------------


def test_criterion_4_sphere_identity():
    rng = random.Random(0x4444)
    disc = parse_word("a a'")
    for _ in range(200):
        w = random_word(rng, max_pairs=8)
        plain = normalize(w)
        summed = normalize(connected_sum_words(w, disc))
        assert summed.type == plain.type, w.render()
        assert canonical_word(summed.type) == canonical_word(plain.type)
    _report(4, True, "200/200 words unchanged by summing with a a'")


# ---------------------------------------------------------------------------
# 5. the two-points construction lands on the quadric
# ---------------------------------------------------------------------------


TWO_POINTS = """\
base cp2
blowup
blowup
line A = H - E1
line B = H - E2
line L = H - E1 - E2
blowdown L
"""


def test_criterion_5_two_points_example():
    surf = run_script(TWO_POINTS).surface
    assert surf.gram == ((0, 1), (1, 0))
    a = surf.tracked_class("A")
    b = surf.tracked_class("B")
    assert intersect(surf, a, a) == 0
    assert intersect(surf, b, b) == 0
    assert intersect(surf, a, b) == 1
    assert classify_minimal(surf) == BaseSurface.hirzebruch(0)
    report = minimal_model(surf)
    assert len(report.steps) == 0
    assert report.final == BaseSurface.hirzebruch(0)
    _report(5, True, "gram [[0,1],[1,0]], rulings (0,0,1), minimal Hirzebruch(0)")


# ---------------------------------------------------------------------------
# 6. conservation laws along 500 random constructions
# ---------------------------------------------------------------------------


def _check_conserved(surf):
    assert surf.k_squared + surf.rank == 10
    assert signature(surf) == (1, surf.rank - 1)


def test_criterion_6_conservation_suite():
    rng = random.Random(0x6666)
    bases = [BaseSurface.cp2()] + [BaseSurface.hirzebruch(n) for n in range(4)]
    for trial in range(500):
        surf = make_base(rng.choice(bases))
        _check_conserved(surf)
        for _ in range(rng.randint(0, 6)):
            through = []
            tracked = [nm for nm, _ in surf.tracked]
            if tracked and rng.random() < 0.3:
                through = [rng.choice(tracked)]
            surf = blow_up(surf, through)
            _check_conserved(surf)
        for _ in range(rng.randint(0, 2)):
            lines = find_minus_one_lines(surf)
            if not lines:
                break
            surf = blow_down(surf, rng.choice(lines))
            _check_conserved(surf)

        report = minimal_model(surf)
        assert len(report.steps) <= surf.rank - 1, trial
        assert euler_characteristic_cx(surf) == (
            euler_characteristic_cx(report.final_surface) + len(report.steps)
        ), trial
        _check_conserved(report.final_surface)
    _report(6, True, "500/500 scripts conserve K^2+rank=10 and signature (1, rank-1)")


# ---------------------------------------------------------------------------
# 7. bundle cocycles against chart transitions
# ---------------------------------------------------------------------------


def test_criterion_7_cocycle_checks():
    rng = random.Random(0x7777)

    def sample():
        while True:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) > 0.25:
                return z

    for _ in range(100):
        t, u = sample(), sample()
        tt, uu = blowup_chart_transition(t, u)
        mult = uu / u
        want = cocycle_at(-1, t)
        assert abs(mult - want) <= 1e-12 * max(abs(mult), abs(want))
        assert abs(tt - 1 / t) <= 1e-12 * abs(tt)

    assert projectivize(3, 1) == BaseSurface.hirzebruch(2)
    for _ in range(10):
        z = sample()
        # diag transition of O(3)+O(1) vs the rank-2 model O(2)+O(0):
        # projectively equal means one is a scalar multiple of the other
        m1 = (cocycle_at(3, z), cocycle_at(1, z))
        m2 = (cocycle_at(2, z), cocycle_at(0, z))
        lam = m1[0] / m2[0]
        assert abs(m1[1] - lam * m2[1]) <= 1e-12 * abs(m1[1])

    _report(7, True, "100 multiplier points + 10 projective matrix points within 1e-12")


# ---------------------------------------------------------------------------
# 8. round-trip recovery of the base under generic blow-ups
# ---------------------------------------------------------------------------


def _random_roundtrip(rng, base):
    surf = make_base(base)
    for _ in range(rng.randint(1, 6)):
        surf = blow_up(surf)
    return minimal_model(surf).final


def test_criterion_8_round_trip_generic_bases():
    rng = random.Random(0x8888)
    recovered = 0
    cases = [
        (BaseSurface.cp2(), BaseSurface.cp2()),
        (BaseSurface.hirzebruch(2), BaseSurface.hirzebruch(2)),
        (BaseSurface.hirzebruch(3), BaseSurface.hirzebruch(3)),
    ]
    for base, expected in cases:
        for _ in range(100):
            assert _random_roundtrip(rng, base) == expected, base
            recovered += 1
    _report(8, True, f"plane and Hirzebruch 2,3 recovered {recovered}/300")


def _random_blowups(rng, base):
    # the same rng draws as _random_roundtrip, keeping the blown-up surface
    surf = make_base(base)
    for _ in range(rng.randint(1, 6)):
        surf = blow_up(surf)
    return surf


def test_criterion_8_round_trip_first_hirzebruch():
    # The minimal rational surfaces are the plane and the Hirzebruch
    # surfaces F_n with n != 1 (Beauville, Complex Algebraic Surfaces,
    # Thm V.10): F_1 is the plane blown up once, and its section S is a
    # -1 line from birth.  F_1 is therefore recovered by undoing the
    # blow-ups, E_k first, after which S is the only -1 line left; the
    # reduction, which contracts the first -1 line in insertion order,
    # takes S first and ends on the plane after k + 1 contractions.
    rng = random.Random(0x8881)
    base = make_base(BaseSurface.hirzebruch(1))
    assert base.basis == ("S", "F")
    assert base.gram == ((-1, 1), (1, 0))
    assert base.canonical.coords == (-2, -3)
    assert base.tracked == (("S", DivisorClass((1, 0))), ("F", DivisorClass((0, 1))))
    undone = reduced = 0
    for _ in range(100):
        surf = _random_blowups(rng, BaseSurface.hirzebruch(1))
        k = surf.blowups

        back = surf
        for i in range(k, 0, -1):
            back = blow_down(back, f"E{i}")
        assert back == base, k
        assert find_minus_one_lines(back) == ["S"], k
        undone += 1

        report = minimal_model(surf)
        assert report.final == BaseSurface.cp2(), k
        assert len(report.steps) == k + 1, k
        assert report.steps[0][0] == "S", k
        final = report.final_surface
        assert final.rank == 1 and final.k_squared == 9, k
        assert euler_characteristic_cx(surf) - euler_characteristic_cx(final) == k + 1, k
        reduced += 1
    _report(
        8,
        undone == reduced == 100,
        f"first Hirzebruch: {undone}/100 undone to F1, {reduced}/100 reduce to CP2 in k+1 steps",
    )
