"""Input checks of each module, one table per module.  Every row names the
call, the error class it raises and the exact message."""

import dataclasses

import pytest

from surfclass.lattice import BaseSurface, DivisorClass, blowup_chart_transition, make_base
from surfclass.moves import Cancel, CutPaste, MoveError, apply_move
from surfclass.orbit import orbit_oracle
from surfclass.words import (
    InternalInvariantError,
    PolygonSet,
    ValidationError,
    parse_word,
    surface_type_from_invariants,
)

W = parse_word


def _raises(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def _cp2_with(**fields):
    return dataclasses.replace(make_base(BaseSurface.cp2()), **fields)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: _cp2_with(gram=((1, 0),)), InternalInvariantError,
         "gram matrix shape disagrees with basis"),
        (lambda: dataclasses.replace(make_base(BaseSurface.hirzebruch(0)), gram=((0, 1), (2, 0))),
         InternalInvariantError, "intersection form must be symmetric"),
        (lambda: _cp2_with(canonical=DivisorClass((-3, 0))), InternalInvariantError,
         "canonical class has wrong dimension"),
        (lambda: _cp2_with(tracked=(("H", DivisorClass((1, 0))),)), InternalInvariantError,
         "tracked line H has wrong dimension"),
        (lambda: _cp2_with(tracked=(("H", DivisorClass((1,))),) * 2), InternalInvariantError,
         "tracked line names must be distinct"),
        (lambda: _cp2_with(base=BaseSurface.hirzebruch(0)), InternalInvariantError,
         "lattice rank below the recorded base"),
        (lambda: BaseSurface("cp2", 1), ValidationError,
         "the projective plane carries no index"),
        (lambda: blowup_chart_transition(0, 1), ValidationError,
         "chart overlap excludes t = 0"),
    ],
    ids=["gram-shape", "asymmetric", "canonical-dim", "tracked-dim", "tracked-names",
         "rank-below-base", "cp2-index", "chart-origin"],
)
def test_lattice_input_checks(build, error, message):
    _raises(build, error, message)


@pytest.mark.parametrize(
    "max_symbols, budget, message",
    [(0, 100, "symbol cap must be at least 1"), (1, 0, "budget must be at least 1")],
    ids=["symbol-cap", "budget"],
)
def test_orbit_input_checks(max_symbols, budget, message):
    _raises(lambda: orbit_oracle(W("a a"), max_symbols, budget), ValidationError, message)


@pytest.mark.parametrize(
    "word, move, message",
    [
        ("a b a' b'", CutPaste(0, 4, "c", "a"), "cut positions 0,4 out of range for length 4"),
        ("a b a' b'", CutPaste(-1, 2, "c", "a"), "cut positions -1,2 out of range for length 4"),
        ("a a' b b'", Cancel(4), "cancel position 4 out of range for length 4"),
        ("a a' b b'", Cancel(-1), "cancel position -1 out of range for length 4"),
        ("a a", "rotate 1", "unknown move 'rotate 1'"),
    ],
    ids=["cut-past-end", "cut-negative", "cancel-past-end", "cancel-negative", "not-a-move"],
)
def test_moves_input_checks(word, move, message):
    _raises(lambda: apply_move(W(word), move), MoveError, message)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: surface_type_from_invariants(1, True), InternalInvariantError,
         "orientable surface with odd Euler characteristic 1"),
        (lambda: PolygonSet(()), ValidationError,
         "a polygon set must contain at least one polygon"),
    ],
    ids=["odd-orientable-chi", "empty-polygon-set"],
)
def test_words_input_checks(build, error, message):
    _raises(build, error, message)


def test_word_never_equals_its_text():
    w = W("a a")
    assert w.__eq__("a a") is NotImplemented
    assert (w == "a a") is False and (w != "a a") is True
