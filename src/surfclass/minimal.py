"""Reduction to a minimal model by contracting -1 lines.

A tracked line is contractible when its class c has c.c = -1 and c.K = -1.
The procedure contracts the first such line in insertion order, repeats until
none remain, and then reads the minimal surface off the lattice.  Insertion
order matters: different contraction orders can genuinely land on different
minimal surfaces (the projective plane versus a Hirzebruch surface), so the
report records the order taken.

The contractions run in place on a working lattice (a copy of the surface
in ``minimal_model``, the script's own in ``minimal-model``), and only the
end result is built as a surface.  The scan keeps each line's (c.c, c.K)
until a contraction moves its class, l.c != 0; a basis change keeps both.
"""

from __future__ import annotations

from itertools import combinations
from types import SimpleNamespace
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .lattice import (
    BaseSurface,
    DivisorClass,
    RationalSurface,
    _contract,
    _dot,
    _surface,
    _working,
    intersect,
)
from .words import InternalInvariantError, ValidationError, _Value


class Inconclusive(_Value):
    """A minimal lattice that cannot be named, by its rank and parity: at rank
    two the lattice alone pins the Hirzebruch index only mod 2, and no one
    index is named by the tracked rational sections and rulings."""

    __slots__ = ("rank", "even")

    def __init__(self, rank: int, even: bool) -> None:
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "even", even)

    def __str__(self) -> str:
        return f"Inconclusive(rank={self.rank}, parity={'even' if self.even else 'odd'})"


class ReductionReport(_Value):
    """Log of a full reduction: each contracted line with the class it had
    when contracted, the minimal surface named (or ``Inconclusive``), and
    the ending surface."""

    __slots__ = ("steps", "final", "final_surface")

    def __init__(self, steps: Tuple[Tuple[str, DivisorClass], ...],
                 final: BaseSurface | Inconclusive, final_surface: RationalSurface) -> None:
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "final_surface", final_surface)


def _minus_one_scan(gram: Sequence[Sequence[int]], canonical: Sequence[int],
                    tracked: Iterable[Tuple[str, Sequence[int]]],
                    kept: Dict[str, Tuple[int, int]]) -> Iterator[Tuple[str, Sequence[int]]]:
    """Yield the (name, coordinates) of each tracked line with square -1 and
    K-degree -1, in insertion order, reading each line only when the next
    hit is asked for.  ``kept`` maps a name to its (c.c, c.K) where they are
    known; the numbers of every other line it reads are added to it."""
    for name, cls in tracked:
        degrees = kept.get(name)
        if degrees is None:
            degrees = kept[name] = _dot(gram, cls, cls), _dot(gram, cls, canonical)
        if degrees == (-1, -1):
            yield name, cls


def find_minus_one_lines(surf: RationalSurface) -> List[str]:
    """Names of tracked lines with square -1 and K-degree -1, in insertion
    order, each line read afresh."""
    tracked = [(nm, cls.coords) for nm, cls in surf.tracked]
    return [nm for nm, _ in _minus_one_scan(surf.gram, surf.canonical.coords, tracked, {})]


def classify_minimal(surf: RationalSurface) -> BaseSurface | Inconclusive:
    """Read the minimal surface off a lattice with no contractible lines.

    Rank one is the projective plane.  At rank two a tracked class of square
    -n names Hirzebruch(n) only if its K-degree is n - 2, so that it can be a
    smooth rational section; two tracked rulings of square zero meeting once
    name index 0.  A surface is named only when exactly one index is;
    anything else is ``Inconclusive`` rather than guessed.
    """
    leftovers = find_minus_one_lines(surf)
    if leftovers:
        raise ValidationError(
            f"surface is not minimal; contractible lines remain: {', '.join(leftovers)}"
        )
    if surf.rank == 1:
        return BaseSurface.cp2()
    if surf.rank == 2:
        named = set()
        rulings = []
        for _, cls in surf.tracked:
            sq = intersect(surf, cls, cls)
            if sq < 0 and intersect(surf, cls, surf.canonical) == -sq - 2:
                named.add(-sq)
            elif sq == 0:
                rulings.append(cls)
        if any(intersect(surf, f, s) == 1 for f, s in combinations(rulings, 2)):
            named.add(0)
        if len(named) == 1:
            return BaseSurface.hirzebruch(named.pop())
    return Inconclusive(surf.rank, surf.is_even)


def _reduce(lat: SimpleNamespace) -> List[Tuple[str, DivisorClass]]:
    """Contract the first -1 line in insertion order until none remain, in
    place on the working lattice ``lat``; return each contracted line with
    its class at contraction.  A stale kept (c.c, c.K), of a moved line the
    contraction did not report, can only hide a -1 line: ``_report`` finds it."""
    steps: List[Tuple[str, DivisorClass]] = []
    kept: Dict[str, Tuple[int, int]] = {}
    for _ in range(len(lat.names)):
        hit = next(_minus_one_scan(lat.gram, lat.canonical, lat.tracked.items(), kept), None)
        if hit is None:
            return steps
        name, cls = hit
        steps.append((name, DivisorClass._from_checked(tuple(cls))))
        for moved in _contract(lat, name):
            kept.pop(moved, None)
    raise InternalInvariantError("reduction did not terminate within rank steps")


def _report(steps: List[Tuple[str, DivisorClass]], surf: RationalSurface) -> ReductionReport:
    """The report of a reduction by ``steps`` that ended on ``surf``; a -1
    line left on it is a fault of the reduction: InternalInvariantError."""
    try:
        final = classify_minimal(surf)
    except ValidationError as exc:
        raise InternalInvariantError(f"the reduction stopped early: {exc}") from exc
    return ReductionReport(tuple(steps), final, surf)


def minimal_model(surf: RationalSurface) -> ReductionReport:
    """Reduce a working copy of ``surf`` (``_reduce``) and build the end
    result once; with nothing to contract, the report's surface is ``surf``."""
    lat = _working(surf)
    steps = _reduce(lat)
    return _report(steps, _surface(lat) if steps else surf)
