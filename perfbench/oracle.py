"""Independent oracles for the benchmark's correctness checks.

Nothing here calls into surfclass.  Word types come from a separate corner
tracer over plain ``(symbol, exponent)`` pairs, canonical words are spelled
out from the type, and lattice checks re-derive K², the inertia of the form
and the characteristic-vector property from the Gram matrix alone.  So a
fault in the timed code path cannot hide itself by also breaking its check.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

# A surface type as the oracle sees it: (orientable, genus), where genus
# counts handles when orientable (0 is the sphere) and cross-caps otherwise.
Type = tuple[bool, int]


def trace_corners(letters: Sequence[tuple[str, int]]) -> tuple[int, bool]:
    """(vertex classes, orientable) of a closed word given as letter pairs.

    Side i runs from corner i to corner i+1; identifying a pair matches the
    arrow tails and heads of its two sides.
    """
    n = len(letters)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    occurrences: dict[str, list[tuple[int, int]]] = {}
    for i, (symbol, exponent) in enumerate(letters):
        occurrences.setdefault(symbol, []).append((i, exponent))
    orientable = True
    for symbol, occ in occurrences.items():
        if len(occ) != 2:
            raise ValueError(f"symbol {symbol} occurs {len(occ)} times")
        ends = []
        for i, exponent in occ:
            ends.append((i, (i + 1) % n) if exponent > 0 else ((i + 1) % n, i))
        if occ[0][1] == occ[1][1]:
            orientable = False
        for a, b in zip(ends[0], ends[1]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return len({find(i) for i in range(n)}), orientable


def word_type(letters: Sequence[tuple[str, int]]) -> Type:
    vertices, orientable = trace_corners(letters)
    chi = vertices - len(letters) // 2 + 1
    return (orientable, (2 - chi) // 2 if orientable else 2 - chi)


def euler(t: Type) -> int:
    orientable, genus = t
    return 2 - 2 * genus if orientable else 2 - genus


def sum_type(t1: Type, t2: Type) -> Type:
    """Connected sum: Euler characteristics add minus 2, orientability ANDs."""
    orientable = t1[0] and t2[0]
    chi = euler(t1) + euler(t2) - 2
    return (orientable, (2 - chi) // 2 if orientable else 2 - chi)


def type_name(t: Type) -> str:
    """The ``type`` field of the command line's JSON output."""
    orientable, genus = t
    if orientable:
        return "Sphere" if genus == 0 else f"Orientable({genus})"
    return f"NonOrientable({genus})"


def canonical_text(t: Type) -> str:
    orientable, genus = t
    if orientable and genus == 0:
        return "a1 a1'"
    if orientable:
        return " ".join(f"a{i} b{i} a{i}' b{i}'" for i in range(1, genus + 1))
    return " ".join(f"a{i} a{i}" for i in range(1, genus + 1))


# ---------------------------------------------------------------------------
# lattices


def inertia(gram: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) counts of a symmetric integer form."""
    a = [[Fraction(x) for x in row] for row in gram]
    live = list(range(len(a)))
    pos = neg = 0
    while live:
        k = next((i for i in live if a[i][i] != 0), None)
        if k is None:
            pair = next(
                ((i, j) for i in live for j in live if i != j and a[i][j] != 0), None
            )
            if pair is None:
                return pos, neg, len(live)
            i, j = pair
            # replace basis vector i by i + j: its square becomes 2 a[i][j]
            for r in live:
                a[i][r] += a[j][r]
            for r in live:
                a[r][i] += a[r][j]
            continue
        d = a[k][k]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        live.remove(k)
        for i in live:
            f = a[i][k] / d
            if f:
                for j in live:
                    a[i][j] -= f * a[k][j]
    return pos, neg, 0


_REPORT_NUMBERS = re.compile(r"K\^2 = (-?\d+)  chi = (-?\d+)  b2 = (\d+)")


def lattice_problems(
    gram: Sequence[Sequence[int]], canonical: Sequence[int]
) -> list[str]:
    """Conservation laws every rational surface lattice obeys."""
    n = len(gram)
    gk = [sum(gram[i][j] * canonical[j] for j in range(n)) for i in range(n)]
    k2 = sum(canonical[i] * gk[i] for i in range(n))
    problems = []
    if k2 + n != 10:
        problems.append(f"K^2 + rank = {k2} + {n}, not 10")
    if inertia(gram) != (1, n - 1, 0):
        problems.append(f"inertia {inertia(gram)}, not (1, {n - 1}, 0)")
    # Wu: K is characteristic, K.x = x.x (mod 2) for every lattice vector x
    odd = [i for i in range(n) if (gk[i] - gram[i][i]) % 2]
    if odd:
        problems.append(f"K is not characteristic (basis slots {odd})")
    return problems


def report_problems(text: str, rank: int | None = None) -> list[str]:
    """The numbers a rendered report prints must obey the same laws; `rank`,
    when given, is the rank the report must show."""
    found = _REPORT_NUMBERS.findall(text)
    if not found:
        return ["report has no K^2/chi/b2 line"]
    k2, chi, b2 = (int(x) for x in found[-1])
    problems = []
    if (rank is not None and b2 != rank) or k2 + b2 != 10 or chi != b2 + 2:
        problems.append(f"report prints K^2={k2} chi={chi} b2={b2} at rank {rank}")
    return problems
