"""Reduction to a minimal model by contracting -1 lines.

A tracked line is contractible when its class c has c.c = -1 and c.K = -1.
The procedure contracts the first such line in insertion order, repeats until
none remain, and then reads the minimal surface off the lattice.  Insertion
order matters: different contraction orders can genuinely land on different
minimal surfaces (the projective plane versus a Hirzebruch surface), so the
report records the order taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .lattice import (
    DivisorClass,
    RationalSurface,
    blow_down,
    intersect,
)
from .words import InternalInvariantError, ValidationError


@dataclass(frozen=True)
class MinimalType:
    """Outcome of classifying a surface with no contractible lines.

    Either the projective plane, a Hirzebruch surface of known index, or an
    honest "inconclusive" carrying the lattice rank and the parity of its
    diagonal: a rank-2 lattice alone pins the Hirzebruch index only mod 2,
    and without a tracked section there is nothing to pin it with.
    """

    kind: str
    index: int = 0
    rank: int = 0
    parity: str = ""

    @classmethod
    def cp2(cls) -> "MinimalType":
        return cls("cp2")

    @classmethod
    def hirzebruch(cls, n: int) -> "MinimalType":
        if n < 0:
            raise ValidationError("Hirzebruch index must be non-negative")
        return cls("hirzebruch", index=n)

    @classmethod
    def inconclusive(cls, rank: int, parity: str) -> "MinimalType":
        if parity not in ("even", "odd"):
            raise ValidationError("parity must be 'even' or 'odd'")
        return cls("inconclusive", rank=rank, parity=parity)

    def __str__(self) -> str:
        if self.kind == "cp2":
            return "CP2"
        if self.kind == "hirzebruch":
            return f"Hirzebruch({self.index})"
        return f"Inconclusive(rank={self.rank}, parity={self.parity})"


@dataclass(frozen=True)
class ReductionReport:
    """Log of a full reduction: each contracted line with the class it had
    when contracted, the classification, and the ending surface."""

    steps: Tuple[Tuple[str, DivisorClass], ...]
    final: MinimalType
    final_surface: RationalSurface


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


def classify_minimal(surf: RationalSurface) -> MinimalType:
    """Read the minimal surface off a lattice with no contractible lines.

    Rank one is the projective plane.  At rank two a tracked line of
    negative square is a section and names the Hirzebruch surface; failing
    that, two tracked rulings of square zero meeting once give the product
    surface.  Anything else is reported inconclusive rather than guessed.
    """
    leftovers = find_minus_one_lines(surf)
    if leftovers:
        raise ValidationError(
            f"surface is not minimal; contractible lines remain: {', '.join(leftovers)}"
        )
    if surf.rank == 1:
        return MinimalType.cp2()
    if surf.rank == 2:
        for _, cls in surf.tracked:
            sq = intersect(surf, cls, cls)
            if sq < 0:
                return MinimalType.hirzebruch(-sq)
        for i, (_, f) in enumerate(surf.tracked):
            if intersect(surf, f, f) != 0:
                continue
            for j, (_, s) in enumerate(surf.tracked):
                if i == j or intersect(surf, s, s) != 0:
                    continue
                if intersect(surf, f, s) == 1:
                    return MinimalType.hirzebruch(0)
    return MinimalType.inconclusive(surf.rank, "even" if surf.is_even else "odd")


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
