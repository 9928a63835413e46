"""The exceptional classes of CP2 blown up at r <= 8 points, enumerated here
with no help from surfclass, as an oracle for the lattice calculus.

With basis H, E1..Er and form diag(1, -1, ..., -1), a class e has e.e = -1
and e.K = -1 exactly when it is some E_i or dH - sum m_i E_i with d > 0,
m_i >= 0, sum m_i = 3d - 1 and sum m_i^2 = d^2 + 1; d <= 6 suffices for
r <= 8.  They are the lines of a del Pezzo surface: 1, 3, 6, 10, 16, 27, 56
and 240 of them (Manin, *Cubic Forms*, section 26; Dolgachev, *Classical
Algebraic Geometry*, Ch. 8).
"""

import pytest

from surfclass.script import run_script

COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def _multiplicities(slots, total, squares, top):
    """Every tuple of `slots` integers in [0, top] with the given sum and
    sum of squares."""
    if slots == 0:
        if total == squares == 0:
            yield ()
        return
    for m in range(min(top, total) + 1):
        t, s = total - m, squares - m * m
        # what is left has t <= s <= top * t, within slots - 1 entries
        if t <= s <= top * t and t <= (slots - 1) * top:
            for rest in _multiplicities(slots - 1, t, s, top):
                yield (m,) + rest


def exceptional_classes(r):
    """Each class as (d, m_1, ..., m_r), meaning dH - sum m_i E_i."""
    classes = [(0,) + tuple(-(i == j) for j in range(r)) for i in range(r)]
    for d in range(1, 7):
        classes += [(d,) + m for m in _multiplicities(r, 3 * d - 1, d * d + 1, d)]
    return classes


def _dot(a, b):
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def _expr(cls):
    terms = [f"{cls[0]}H"] if cls[0] else []
    for i, m in enumerate(cls[1:], start=1):
        if m:
            terms.append(f"{'-' if m > 0 else '+'} {abs(m)}E{i}")
    return " ".join(terms).lstrip("+ ")


CLASSES = {r: exceptional_classes(r) for r in COUNTS}


def test_counts_are_the_del_pezzo_line_counts():
    assert {r: len(c) for r, c in CLASSES.items()} == COUNTS
    for r, classes in CLASSES.items():
        canonical = (-3,) + (-1,) * r
        assert len(set(classes)) == len(classes)
        for cls in classes:
            assert _dot(cls, cls) == -1 and _dot(cls, canonical) == -1


def test_every_exceptional_class_contracts():
    for r, classes in CLASSES.items():
        head = "base cp2\n" + "blowup\n" * r
        for cls in classes:
            out = run_script(head + f"line X = {_expr(cls)}\nblowdown X\n")
            # one class fewer, and K^2 = 9 - (r - 1) on what is left
            assert out.surface.rank == r, cls
            assert out.surface.k_squared == 10 - r, cls


@pytest.mark.parametrize("r", range(2, 9))
def test_contracting_one_leaves_the_count_one_point_down(r):
    # the classes orthogonal to e are the exceptional classes of the surface
    # e contracts to, except where that surface is F0 = P1 x P1, which has
    # none: e = H - E1 - E2 at r = 2
    for cls in CLASSES[r]:
        orthogonal = sum(_dot(cls, other) == 0 for other in CLASSES[r] if other != cls)
        want = 0 if cls == (1, 1, 1) else COUNTS[r - 1]
        assert orthogonal == want, cls


def _quadratic_transformation(cls):
    """The reflection in H - E_a - E_b - E_c over the three largest
    multiplicities: d' = 2d - m_a - m_b - m_c and m_a' = d - m_b - m_c."""
    d, m = cls[0], list(cls[1:])
    top = sorted(range(len(m)), key=lambda i: -m[i])[:3]
    k = d - sum(m[i] for i in top)
    for i in top:
        m[i] += k
    return (d + k,) + tuple(m)


def test_noether_reduction_reaches_an_exceptional_curve():
    # a second check of the enumeration: Noether's inequality says an
    # exceptional class with d > 0 has m_a + m_b + m_c > d, so a quadratic
    # transformation lowers d and keeps e.e = e.K = -1, until some E_i is
    # left; below three points a point of multiplicity 0 is added
    longest = 0
    for r, classes in CLASSES.items():
        pad = max(0, 3 - r)
        canonical = (-3,) + (-1,) * (r + pad)
        for cls in classes:
            e, steps = cls + (0,) * pad, 0
            while e[0] > 0:
                assert sum(sorted(e[1:])[-3:]) > e[0], cls
                d, e, steps = e[0], _quadratic_transformation(e), steps + 1
                assert e[0] < d and _dot(e, e) == _dot(e, canonical) == -1, cls
                assert steps <= 5, cls
            assert e[0] == 0 and sorted(e[1:]) == [-1] + [0] * (r + pad - 1), cls
            longest = max(longest, steps)
    assert longest == 5
