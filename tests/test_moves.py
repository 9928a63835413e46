import pytest
from hypothesis import given, strategies as st

from conftest import words
from surfclass.moves import (
    Cancel,
    CutPaste,
    FlipEdge,
    Insert,
    MoveError,
    MoveTrace,
    Reflect,
    Rename,
    ReplayError,
    Rotate,
    apply_move,
    cut,
    parse_trace,
    paste,
    replay,
)
from surfclass.words import (
    Letter,
    ValidationError,
    Word,
    euler_characteristic,
    is_orientable,
    parse_word,
    validate,
)


W = parse_word


# ---------------------------------------------------------------------------
# cut and paste primitives


def test_cut_golden():
    p1, p2 = cut(W("a a b b"), 0, 2, "c")
    assert p1 == W("a a c")
    assert p2 == W("c' b b")


def test_cut_then_paste_restores():
    w = W("a b c a' b' c'")
    for i in range(len(w)):
        for j in range(len(w)):
            if i == j:
                continue
            p1, p2 = cut(w, i, j, "z")
            assert paste(p1, p2, "z") == w


def test_paste_opposite_exponents():
    assert paste(W("a b c"), W("c' d e"), "c") == W("a b d e")


def test_paste_same_exponents_reflects():
    assert paste(W("a a c"), W("c b b"), "c") == W("a a b' b'")


def test_paste_requires_symbol_in_both():
    with pytest.raises(MoveError):
        paste(W("a b c"), W("d e d'"), "c")


def test_cut_guards():
    with pytest.raises(MoveError):
        cut(W("a a'"), 0, 1, "b")  # too short to cut
    with pytest.raises(MoveError):
        cut(W("a b c"), 1, 1, "z")
    with pytest.raises(MoveError):
        cut(W("a b c"), 0, 2, "a")  # fresh name already used
    with pytest.raises(ValidationError, match="^bad symbol name '1x'$"):
        cut(W("a b c"), 0, 2, "1x")


def test_paste_never_returns_an_empty_word():
    with pytest.raises(MoveError, match="at least one letter"):
        paste(Word((Letter("c", 1),)), Word((Letter("c", -1),)), "c")


# ---------------------------------------------------------------------------
# single moves


def test_rotate_and_reflect():
    w = W("a b c c' b' a'")
    assert apply_move(w, Rotate(2)).letters == w.rotated(2).letters
    assert apply_move(w, Reflect()).letters == w.reflected().letters


def test_rename():
    assert apply_move(W("a b a' b'"), Rename("a", "z")) == W("z b z' b'")
    with pytest.raises(MoveError):
        apply_move(W("a b a' b'"), Rename("a", "b"))  # collision
    with pytest.raises(MoveError):
        apply_move(W("a a'"), Rename("x", "y"))  # absent
    with pytest.raises(MoveError, match="^rename must change the symbol$"):
        apply_move(W("a b a' b'"), Rename("a", "a"))


def test_flipedge():
    assert apply_move(W("a b a b'"), FlipEdge("a")) == W("a' b a' b'")
    w = W("a b a' b'")
    assert apply_move(apply_move(w, FlipEdge("b")), FlipEdge("b")) == w


def test_cancel():
    assert apply_move(W("c a a' c"), Cancel(1)).letters == W("c c").letters
    # wrap-around pair: positions n-1 and 0
    assert apply_move(W("a x y a'"), Cancel(3)) == W("x y")
    with pytest.raises(MoveError):
        apply_move(W("a a'"), Cancel(0))  # would empty the word
    with pytest.raises(MoveError):
        apply_move(W("a a b b"), Cancel(0))  # not an inverse pair


def test_insert_then_cancel_roundtrip():
    w = W("a b a' b'")
    up = apply_move(w, Insert(2, "z"))
    assert up == W("a b z z' a' b'")
    assert apply_move(up, Cancel(2)) == w
    with pytest.raises(MoveError):
        apply_move(w, Insert(0, "a"))  # symbol in use


def test_cutpaste_golden():
    out = apply_move(W("a a b b"), CutPaste(1, 3, "c", "b"))
    assert out == W("a c a' c")  # cyclic equality


def test_cutpaste_requires_order():
    with pytest.raises(MoveError):
        apply_move(W("a a b b"), CutPaste(3, 1, "c", "b"))


@given(words(min_pairs=2, max_pairs=5), st.data())
def test_moves_preserve_validity_and_invariants(w, data):
    n = len(w)
    moves = [Reflect(), Rotate(data.draw(st.integers(0, n - 1)))]
    syms = sorted(w.symbols())
    moves.append(FlipEdge(data.draw(st.sampled_from(syms))))
    moves.append(Insert(data.draw(st.integers(0, n)), "zz"))
    m = data.draw(st.sampled_from(moves))
    out = apply_move(w, m)
    validate(out)
    assert euler_characteristic(out) == euler_characteristic(w)
    assert is_orientable(out) == is_orientable(w)


# ---------------------------------------------------------------------------
# traces


def test_trace_render_parse_round_trip():
    w = W("a a b b")
    trace = MoveTrace(w, (CutPaste(1, 3, "c", "b"), Rotate(1), Rename("c", "d")))
    text = trace.render()
    back = parse_trace(text, w)
    assert back == trace


def test_parse_trace_errors_carry_line():
    with pytest.raises(MoveError, match="line 2"):
        parse_trace("reflect\nwobble 3\n", W("a a'"))
    with pytest.raises(MoveError, match="line 1"):
        parse_trace("cutpaste 0 not-a-number c b", W("a a b b"))


@pytest.mark.parametrize(
    "line,message",
    [
        ("rotate \u0663", "trace line 1: expected a number, got '\u0663'"),
        ("rotate \uff13", "trace line 1: expected a number, got '\uff13'"),
        ("rotate 1_0", "trace line 1: expected a number, got '1_0'"),
        ("cancel +2", "trace line 1: expected a number, got '+2'"),
        ("rotate x", "trace line 1: expected a number, got 'x'"),
        ("insert 0x1 c", "trace line 1: expected a number, got '0x1'"),
        ("cutpaste 0 - c b", "trace line 1: expected a number, got '-'"),
        ("rotate " + "7" * 5000, "trace line 1: number is too long (5000 digits)"),
    ],
    ids=["arabic-indic", "fullwidth", "underscore", "plus", "letter", "hex", "minus", "long"],
)
def test_parse_trace_reads_ascii_numbers_only(line, message):
    with pytest.raises(MoveError) as exc:
        parse_trace(line, W("a b a' b'"))
    assert str(exc.value) == message


def test_parse_trace_reads_signed_numbers():
    trace = parse_trace("rotate -3\ncancel 0\ncutpaste 0 2 c b\n", W("a b a' b'"))
    assert trace.steps == (Rotate(-3), Cancel(0), CutPaste(0, 2, "c", "b"))


def test_replay_rejects_bad_step():
    trace = MoveTrace(W("a a b b"), (Cancel(0),))
    with pytest.raises(ReplayError, match="step 1"):
        replay(trace)


def test_replay_rejects_inapplicable_cutpaste():
    trace = MoveTrace(W("a a'"), (CutPaste(0, 1, "c", "a"),))
    with pytest.raises(ReplayError):
        replay(trace)
