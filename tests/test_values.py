"""The contract of the value types: equality by type and fields, hashing,
immutability, the ``Type(field=value, ...)`` repr and the constructor forms
callers use.  ``RationalSurface`` is a frozen dataclass, so
``dataclasses.replace`` on it re-runs its checks."""

import copy
import dataclasses
import pickle

import pytest

from surfclass import lattice, minimal, script
from surfclass.lattice import (
    BaseSurface,
    DivisorClass,
    RationalSurface,
    blow_down,
    blow_up,
    make_base,
    topological_model,
)
from surfclass.minimal import Inconclusive, ReductionReport, minimal_model
from surfclass.moves import (
    Cancel,
    CutPaste,
    FlipEdge,
    Insert,
    MoveTrace,
    Reflect,
    Rename,
    Rotate,
    apply_move,
)
from surfclass.script import ScriptOutcome, run_script
from surfclass.words import (
    InternalInvariantError,
    Letter,
    PolygonSet,
    SurfaceType,
    Word,
    parse_word,
)

W = parse_word
CP2 = make_base(BaseSurface.cp2())
F0 = make_base(BaseSurface.hirzebruch(0))

# each value type: a builder of the value, its first field, then the
# arguments of two values that must be equal and of one that must differ
VALUES = {
    "Word": (Word, "letters", ((Letter("a", 1), Letter("b", 1)),),
             ((Letter("b", 1), Letter("a", 1)),), ((Letter("a", 1), Letter("a", 1)),)),
    "SurfaceType": (SurfaceType, "orientable", (True, 1), (True, 1), (False, 1)),
    "PolygonSet": (PolygonSet, "polygons", ((W("a b"),),), ([W("b a")],), ((W("a a"),),)),
    "Rotate": (Rotate, "offset", (1,), (1,), (2,)),
    "Reflect": (Reflect, None, (), (), None),
    "Rename": (Rename, "old", ("a", "b"), ("a", "b"), ("b", "a")),
    "FlipEdge": (FlipEdge, "symbol", ("a",), ("a",), ("b",)),
    "Cancel": (Cancel, "position", (0,), (0,), (1,)),
    "Insert": (Insert, "position", (0, "x"), (0, "x"), (1, "x")),
    "CutPaste": (CutPaste, "i", (1, 2, "x", "y"), (1, 2, "x", "y"), (1, 2, "y", "x")),
    "MoveTrace": (MoveTrace, "initial", (W("a a"), (Rotate(1),)), (W("a a"), (Rotate(1),)),
                  (W("a a"), (Reflect(),))),
    "BaseSurface": (BaseSurface, "kind", ("hirzebruch", 2), ("hirzebruch", 2),
                    ("hirzebruch", 3)),
    "DivisorClass": (DivisorClass, "coords", ((1, -1),), ([1, -1],), ((-1, 1),)),
    "TopologicalModel": (lambda *a: topological_model(make_base(BaseSurface(*a))), "base",
                         ("cp2",), ("cp2",), ("hirzebruch", 0)),
    "Inconclusive": (Inconclusive, "rank", (3, True), (3, True), (3, False)),
    "ReductionReport": (minimal_model, "steps", (CP2,), (CP2,), (F0,)),
    "ScriptOutcome": (ScriptOutcome, "surface", (CP2, [("report", "r")]),
                      (CP2, [("report", "r")]), (CP2, [])),
}
# ScriptOutcome keeps its events in a list, so it is compared but not hashed
HASHABLE = sorted(set(VALUES) - {"ScriptOutcome"})


def _value(name):
    build, _, args, _, _ = VALUES[name]
    return build(*args)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_are_equal_by_type_and_fields(name):
    build, _, args, same, other = VALUES[name]
    value = build(*args)
    assert value == build(*same)
    assert not value != build(*same)
    if other is not None:
        assert value != build(*other)
    assert value != tuple(args)
    assert all(value != _value(o) for o in VALUES if o != name)


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_values_hash_alike(name):
    build, _, args, same, _ = VALUES[name]
    assert hash(build(*args)) == hash(build(*same))
    assert len({build(*args), build(*same)}) == 1


def test_moves_are_equal_only_to_their_own_type():
    assert Rotate(1) != Cancel(1)
    assert Cancel(1) != Rotate(1)
    assert Insert(0, "a") != Rename(0, "a")
    assert len({Rotate(1), Cancel(1), FlipEdge(1)}) == 3
    # a move is a value, not a tuple: the fieldless one is still true
    assert bool(Reflect())


@pytest.mark.parametrize("name", HASHABLE)
def test_values_cannot_be_changed(name):
    field = VALUES[name][1]
    value = _value(name)
    for target in filter(None, [field, "anything"]):
        with pytest.raises(AttributeError):
            setattr(value, target, 0)
        with pytest.raises(AttributeError):
            delattr(value, target)
    assert value == _value(name)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_survive_copy_and_pickle(name):
    value = _value(name)
    for twin in [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]:
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_value_reprs():
    assert repr(CutPaste(1, 2, "x", "y")) == "CutPaste(i=1, j=2, fresh='x', paste='y')"
    assert repr(Reflect()) == "Reflect()"
    assert repr(SurfaceType(False, 2)) == "SurfaceType(orientable=False, genus=2)"
    assert repr(BaseSurface("cp2")) == "BaseSurface(kind='cp2', index=0)"
    assert repr(BaseSurface.hirzebruch(3)) == "BaseSurface(kind='hirzebruch', index=3)"
    assert repr(Inconclusive(rank=4, even=False)) == "Inconclusive(rank=4, even=False)"
    assert repr(MoveTrace(W("a a"), (Rotate(1),))) == (
        "MoveTrace(initial=Word('a a'), steps=(Rotate(offset=1),))"
    )


def test_constructor_forms():
    assert BaseSurface("hirzebruch") == BaseSurface.hirzebruch(0)
    assert Inconclusive(rank=2, even=True) == Inconclusive(2, True)
    outcome = run_script("base cp2\nreport\n")
    again = ScriptOutcome(outcome.surface, outcome.events)
    assert again == outcome and again.reports == outcome.reports
    assert ScriptOutcome(CP2).events == []
    report = ReductionReport((), BaseSurface.cp2(), CP2)
    assert report == minimal_model(CP2)


@pytest.fixture
def post_inits(monkeypatch):
    """Count the calls of ``Word.__post_init__`` through a wrapper set on
    the class, as a tracer would set it."""
    calls = []
    original = Word.__post_init__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Word, "__post_init__", counting)
    return calls


def test_word_constructor_checks_once(post_inits):
    word = Word((Letter("a", 1), Letter("a", -1)))
    assert len(post_inits) == 1 and post_inits[0] is word
    parse_word("a b a' b'")
    assert len(post_inits) == 2
    with pytest.raises(TypeError):
        Word(("a", "a"))
    assert len(post_inits) == 3


def test_moves_skip_the_word_check(post_inits):
    word, pair = W("a b a' b' c c"), W("a a' b b")
    post_inits.clear()
    for move in [Rotate(2), Reflect(), Rename("a", "d"), FlipEdge("c"), Insert(1, "x"),
                 CutPaste(0, 2, "x", "a")]:
        apply_move(word, move)
    apply_move(pair, Cancel(0))
    assert post_inits == []


def test_replace_on_a_rational_surface_runs_its_checks():
    moved = dataclasses.replace(CP2, canonical=DivisorClass((3,)))
    assert isinstance(moved, RationalSurface) and moved.canonical == DivisorClass((3,))
    assert moved.gram == CP2.gram and moved != CP2
    with pytest.raises(InternalInvariantError, match="canonical class has wrong dimension"):
        dataclasses.replace(CP2, canonical=DivisorClass((3, 0)))
    with pytest.raises(InternalInvariantError, match="must be symmetric"):
        dataclasses.replace(F0, gram=((0, 1), (2, 0)))


@pytest.fixture
def surface_inits(monkeypatch):
    """Count the calls of ``RationalSurface.__post_init__``, the full check
    of a built surface, through a wrapper set on the class."""
    calls = []
    original = RationalSurface.__post_init__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RationalSurface, "__post_init__", counting)
    return calls


def test_a_reduction_builds_one_surface(surface_inits):
    surf = blow_up(blow_up(blow_up(CP2), ["H"]), ["E1"])
    surface_inits.clear()
    report = minimal_model(surf)
    assert len(report.steps) == 3
    assert surface_inits == [report.final_surface]


def test_a_minimal_surface_is_its_own_reduction(surface_inits):
    report = minimal_model(F0)
    assert report.steps == () and report.final_surface is F0
    assert surface_inits == []


def test_blow_down_builds_one_surface(surface_inits):
    surf = blow_up(blow_up(CP2))
    surface_inits.clear()
    down = blow_down(surf, "E1")
    assert surface_inits == [down]


def test_a_script_builds_a_surface_only_where_one_is_output(surface_inits):
    # one working lattice from base to the end: a surface for make_base, one
    # for the report and one for the outcome, and none per statement
    text = "base cp2\n" + "blowup\n" * 20 + "".join(f"line L{i} = H - E{i + 1}\n" for i in range(5))
    outcome = run_script(text + "report\n")
    base, reported, final = surface_inits
    assert base.rank == 1 and final is outcome.surface
    assert reported == final and reported.rank == 21 and len(final.tracked) == 26


def test_a_script_reduces_its_own_lattice(surface_inits, monkeypatch):
    # minimal-model contracts the script's working lattice in place: one
    # surface per reduction, for its report, and no further working copy
    copies = []
    original = lattice._working

    def counting(surf):
        copies.append(surf)
        return original(surf)

    for module in (lattice, minimal, script):
        monkeypatch.setattr(module, "_working", counting)
    outcome = run_script("base cp2\nblowup\nblowup on E1\nminimal-model\n"
                         "blowup\nblowup on H\nminimal-model\nreport\n")
    base, first, second, reported, final = surface_inits
    assert len(copies) == 1 and copies[0] is base and final is outcome.surface
    one, two = outcome.reductions
    assert one.final_surface is first and two.final_surface is second
    assert len(one.steps) == len(two.steps) == 2
    assert {s.rank for s in surface_inits} == {1} and reported == final
