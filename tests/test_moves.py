import random
import re
from collections import Counter
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, strategies as st

from conftest import words
from surfclass.moves import (
    Cancel,
    CutPaste,
    FlipEdge,
    Insert,
    Move,
    MoveError,
    MoveTrace,
    Reflect,
    Rename,
    ReplayError,
    Rotate,
    _GRAMMAR,
    apply_move,
    cut,
    parse_trace,
    paste,
    replay,
)
from surfclass.orbit import enumerate_words
from surfclass.words import (
    Letter,
    ValidationError,
    Word,
    _check_symbol,
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
    # one move of each of the seven kinds, in a trace that replays
    w = W("a a b b")
    steps = (
        CutPaste(1, 3, "c", "b"), Rotate(1), Rename("c", "d"), Reflect(),
        FlipEdge("d"), Insert(2, "e"), Cancel(2),
    )
    trace = MoveTrace(w, steps)
    text = trace.render()
    assert text.splitlines() == [
        "cutpaste 1 3 c b", "rotate 1", "rename c d", "reflect",
        "flipedge d", "insert 2 e", "cancel 2",
    ]
    assert {type(m) for m in steps} == set(get_args(Move))
    assert parse_trace(text, w) == trace
    assert replay(trace) == W("d a d a'")


def _readme_trace_grammar():
    """{keyword: argument count} from the README's "Move traces" block,
    whose lines read ``keyword ARG ...`` then a description after at
    least two spaces; indented lines continue a description."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("**Move traces**", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    entries = [re.split(r"\s{2,}", line)[0].split() for line in block.splitlines()
               if line and not line[0].isspace()]
    return {keyword: len(args) for keyword, *args in entries}


def test_readme_lists_the_trace_grammar():
    grammar = _readme_trace_grammar()
    assert grammar == {keyword: len(readers) for keyword, (_, readers) in _GRAMMAR.items()}
    for keyword, arity in grammar.items():
        # "1" reads as a number and as a symbol name alike
        line = " ".join([keyword] + ["1"] * arity)
        (step,) = parse_trace(line, W("a a")).steps
        assert step.render() == line
        with pytest.raises(MoveError, match="unknown move"):
            parse_trace(line + " 1", W("a a"))


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


# ---------------------------------------------------------------------------
# the slice-built results of reflect, rename, flipedge and cutpaste against
# the letter-by-letter forms they replaced


def _reference_join(w1, w2, symbol):
    occ1 = [i for i, let in enumerate(w1) if let.symbol == symbol]
    occ2 = [i for i, let in enumerate(w2) if let.symbol == symbol]
    if len(occ1) != 1 or len(occ2) != 1:
        raise ValidationError(f"symbol {symbol} must occur exactly once in each polygon")
    i, j = occ1[0], occ2[0]
    if w1[i].exponent == w2[j].exponent:
        w2 = tuple(let.inverse() for let in reversed(w2))
        j = len(w2) - 1 - j
    return w1[i + 1 :] + w1[:i] + w2[j + 1 :] + w2[:j]


def _reference_cut(letters, i, j, fresh):
    n = len(letters)
    if n < 3:
        raise MoveError("cannot cut a polygon with fewer than 3 sides")
    if not (0 <= i < n and 0 <= j < n):
        raise MoveError(f"cut positions {i},{j} out of range for length {n}")
    if i == j:
        raise MoveError("cut needs two distinct corners; a piece would be empty")
    if fresh in {let.symbol for let in letters}:
        raise MoveError(f"diagonal symbol {fresh} already occurs in the word")
    _check_symbol(fresh)
    if i < j:
        arc1, arc2 = letters[i:j], letters[j:] + letters[:i]
    else:
        arc1, arc2 = letters[i:] + letters[:j], letters[j:i]
    return arc1 + (Letter(fresh, 1),), (Letter(fresh, -1),) + arc2


def _reference_apply(word, move):
    letters = word.letters
    used = {let.symbol for let in letters}
    if isinstance(move, Reflect):
        return tuple(let.inverse() for let in reversed(letters))
    if isinstance(move, Rename):
        if move.old not in used:
            raise MoveError(f"symbol {move.old} does not occur")
        if move.new == move.old:
            raise MoveError("rename must change the symbol")
        if move.new in used:
            raise MoveError(f"symbol {move.new} already occurs")
        _check_symbol(move.new)
        return tuple(
            Letter(move.new, let.exponent) if let.symbol == move.old else let
            for let in letters
        )
    if isinstance(move, FlipEdge):
        if move.symbol not in used:
            raise MoveError(f"symbol {move.symbol} does not occur")
        return tuple(let.inverse() if let.symbol == move.symbol else let for let in letters)
    if not move.i < move.j:
        raise MoveError("cut positions must satisfy i < j")
    piece1, piece2 = _reference_cut(letters, move.i, move.j, move.fresh)
    try:
        return _reference_join(piece1, piece2, move.paste)
    except ValidationError as exc:
        raise MoveError(str(exc)) from exc


def _reference_is_orientable(word):
    seen = {}
    for let in word.letters:
        if let.symbol in seen and seen[let.symbol] == let.exponent:
            return False
        seen[let.symbol] = let.exponent
    return True


def _outcome(build):
    """The letters `build` returns, or the type and message it raises."""
    try:
        result = build()
    except (MoveError, ValidationError) as exc:
        return type(exc), str(exc)
    return result.letters if isinstance(result, Word) else result


def _assert_same(word, moves):
    for move in moves:
        got = _outcome(lambda: apply_move(word, move))
        assert got == _outcome(lambda: _reference_apply(word, move)), (word, move)
        if isinstance(got, tuple) and got and isinstance(got[0], Letter):
            # the new letters are Letters, not bare tuples that compare equal
            assert {type(let) for let in got} == {Letter}, (word, move)


def _census_moves(word):
    """The orbit oracle's successor moves over {a, b, c} that reflect,
    rename, flip or cut, and refused variants of each."""
    letters = word.letters
    n = len(letters)
    used = sorted(word.symbols())
    free = [s for s in "abc" if s not in used]
    moves = [Reflect(), FlipEdge("d"), Rename("d", "a")]
    for s in used:
        moves += [FlipEdge(s), Rename(s, s), Rename(s, used[0]), Rename(s, "1x")]
        moves += [Rename(s, t) for t in free]
    fresh = free[0] if free else "t"
    # refused cuts, and pastes along a symbol with both letters on one arc
    # or along the diagonal itself
    moves += [CutPaste(1, 0, fresh, used[0]), CutPaste(0, 1, used[0], used[0])]
    moves += [CutPaste(0, 1, fresh, p) for p in used + [fresh]]
    for i in range(n):
        for j in range(i + 1, n):
            # a successor pastes along a symbol with one letter in [i, j)
            arc = [let.symbol for let in letters[i:j]]
            moves += [CutPaste(i, j, fresh, p) for p in used if arc.count(p) == 1]
    return moves


def test_move_results_match_the_letter_by_letter_forms_on_the_census():
    for word in enumerate_words("abc"):
        _assert_same(word, _census_moves(word))
        assert is_orientable(word) == _reference_is_orientable(word)
        assert word.symbols() == {let.symbol for let in word.letters}


def _reference_paste(w1, w2, symbol):
    try:
        return Word(_reference_join(w1, w2, symbol))
    except ValidationError as exc:
        raise MoveError(str(exc)) from exc


def _seeded_words(rng, count):
    """Closed words of up to 80 pairs; every fifth word is instead any
    sequence of up to 160 letters, in which a symbol may occur once or
    three times."""
    for k in range(count):
        if k % 5 == 4:
            n = rng.randint(1, 160)
            pool = [f"s{t}" for t in range(rng.randint(1, n))]
            letters = [Letter(rng.choice(pool), rng.choice((1, -1))) for _ in range(n)]
        else:
            symbols = [f"s{t}" for t in range(rng.randint(1, 80))] * 2
            rng.shuffle(symbols)
            letters = [Letter(s, rng.choice((1, -1))) for s in symbols]
        yield Word(tuple(letters))


def test_move_results_match_the_letter_by_letter_forms_on_long_words():
    rng = random.Random(7)
    for word in _seeded_words(rng, 200):
        n = len(word)
        symbols = sorted(word.symbols())
        assert word.symbols() == {let.symbol for let in word.letters}
        moves = [Reflect(), FlipEdge("zz"), Rename("zz", "s0")]
        for s in rng.sample(symbols, min(len(symbols), 6)):
            moves += [FlipEdge(s), Rename(s, "zz"), Rename(s, symbols[0])]
        for _ in range(12):
            i, j = rng.randrange(n), rng.randrange(n)
            paste_symbol = rng.choice(symbols + ["zz"])
            moves.append(CutPaste(i, j, "zz", paste_symbol))
            pieces = _outcome(lambda: cut(word, i, j, "zz"))
            if isinstance(pieces[0], Word):
                pieces = tuple(piece.letters for piece in pieces)
            assert pieces == _outcome(lambda: _reference_cut(word.letters, i, j, "zz"))
            if isinstance(pieces[0], tuple):
                w1, w2 = Word(pieces[0]), Word(pieces[1])
                assert _outcome(lambda: paste(w1, w2, paste_symbol)) == _outcome(
                    lambda: _reference_paste(pieces[0], pieces[1], paste_symbol)
                )
        _assert_same(word, moves)
        if set(Counter(let.symbol for let in word).values()) == {2}:
            # a closed word, on which the old scan was right
            assert is_orientable(word) == _reference_is_orientable(word)


def test_cutpaste_along_its_diagonal_rotates_and_checks_the_diagonal_first():
    rng = random.Random(11)
    for word in _seeded_words(rng, 100):
        n = len(word)
        symbols = sorted(word.symbols())
        if n < 3:
            continue
        i, j = sorted(rng.sample(range(n), 2))
        # pasting along the diagonal undoes the cut, from corner i
        got = apply_move(word, CutPaste(i, j, "zz", "zz")).letters
        assert got == apply_move(word, Rotate(i)).letters, (word, i, j)
        # a diagonal already in the word, or one with a bad name, is
        # reported before a paste symbol that is absent
        used = symbols[0]
        with pytest.raises(MoveError) as exc:
            apply_move(word, CutPaste(i, j, used, "absent"))
        assert str(exc.value) == f"diagonal symbol {used} already occurs in the word"
        with pytest.raises(ValidationError, match="^bad symbol name '1x'$"):
            apply_move(word, CutPaste(i, j, "1x", "absent"))
