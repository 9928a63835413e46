"""Connected sums of closed surfaces, on words and on classes.

Joining two polygons along a small disk removed from each is, on edge-words,
just concatenation once the name clash is resolved.  On classification types
the operation is additive in genus and cross-cap count, with the one
non-obvious rule that a handle in the presence of a cross-cap converts to two
cross-caps; that rule is what makes the orientable and non-orientable series
interact.
"""

from __future__ import annotations

from .words import SurfaceType, Word, _names, surface_type_from_invariants, validate


def connected_sum_words(w1: Word, w2: Word) -> Word:
    """Concatenate two valid words after renaming ``w2`` away from ``w1``.

    Cutting a vertex open on each polygon and gluing the resulting boundary
    arcs realizes the connected sum, and the glued polygon reads as the first
    word followed by the second.  Colliding symbols in ``w2`` get fresh names
    in order of first occurrence, so the result is deterministic.
    """
    validate(w1)
    validate(w2)
    clash = w1.symbols()
    taken = clash | w2.symbols()
    # the names `mint_fresh` would pick one clash after another: a name this
    # passes over is taken, and stays so
    fresh = (name for name in _names() if name not in taken)
    mapping: dict[str, str] = {}
    for letter in w2.letters:
        s = letter.symbol
        if s in clash and s not in mapping:
            mapping[s] = next(fresh)
    renamed = tuple(letter._replace(symbol=mapping.get(letter.symbol, letter.symbol)) for letter in w2.letters)
    return Word(w1.letters + renamed)


def connected_sum_type(t1: SurfaceType, t2: SurfaceType) -> SurfaceType:
    """Classification type of the connected sum.

    Removing a disk from each surface and gluing along the boundary circles
    gives chi = chi1 + chi2 - 2, and the sum is orientable exactly when both
    summands are.  So the sphere is the identity, genus adds between
    orientable surfaces and cross-caps add between non-orientable ones.
    Mixing the two, every handle trades for two cross-caps (Dyck:
    T # P = P # P # P), so genus ``g`` against ``k`` cross-caps gives
    ``2g + k`` cross-caps.
    """
    return surface_type_from_invariants(t1.euler + t2.euler - 2, t1.orientable and t2.orientable)
