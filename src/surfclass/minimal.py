"""Reduction to a minimal model by contracting -1 lines.

A tracked line is contractible when its class c has c.c = -1 and c.K = -1.
The procedure contracts the first such line in insertion order, repeats until
none remain, and then reads the minimal surface off the lattice.  Insertion
order matters: different contraction orders can genuinely land on different
minimal surfaces (the projective plane versus a Hirzebruch surface), so the
report records the order taken.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, Tuple

from .lattice import (
    BaseSurface,
    DivisorClass,
    RationalSurface,
    blow_down,
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


def _minus_one_lines(surf: RationalSurface) -> Iterator[str]:
    """Yield the names of tracked lines with square -1 and K-degree -1, in
    insertion order, testing each line only when the next name is asked
    for."""
    for name, cls in surf.tracked:
        if (
            intersect(surf, cls, cls) == -1
            and intersect(surf, cls, surf.canonical) == -1
        ):
            yield name


def find_minus_one_lines(surf: RationalSurface) -> List[str]:
    """Names of tracked lines with square -1 and K-degree -1, in insertion
    order."""
    return list(_minus_one_lines(surf))


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


def minimal_model(surf: RationalSurface) -> ReductionReport:
    """Contract the first -1 line in insertion order until none remain.

    Each scan stops at the first contractible line: only that one is
    contracted, and the next scan starts over on the contracted surface,
    whose classes have all moved.
    """
    steps: List[Tuple[str, DivisorClass]] = []
    current = surf
    for _ in range(surf.rank):
        name = next(_minus_one_lines(current), None)
        if name is None:
            break
        steps.append((name, current.tracked_class(name)))
        current = blow_down(current, name)
    else:
        raise InternalInvariantError("reduction did not terminate within rank steps")
    return ReductionReport(tuple(steps), classify_minimal(current), current)
