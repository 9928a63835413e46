import hashlib
import importlib
import random
import sys
from collections import Counter
from itertools import accumulate
from string import ascii_lowercase

import pytest
from hypothesis import given, settings

from conftest import words
from surfclass.cli import main as cli_main
from surfclass.moves import (
    Cancel,
    CutPaste,
    FlipEdge,
    Rename,
    Rotate,
    apply_move,
    parse_trace,
    replay,
)
from surfclass.normalize import normalize
from surfclass.orbit import enumerate_words
from surfclass.words import (
    InternalInvariantError,
    Letter,
    PolygonSet,
    SurfaceType,
    ValidationError,
    Word,
    canonical_word,
    classify_by_invariants,
    corner_classes,
    euler_characteristic,
    glue_polygons,
    is_orientable,
    mint_fresh,
    parse_word,
)

W = parse_word
# the package re-exports a function named `normalize`, which hides the module
normalize_module = importlib.import_module("surfclass.normalize")
words_module = importlib.import_module("surfclass.words")
S = SurfaceType.sphere
O = SurfaceType.orientable_genus
N = SurfaceType.non_orientable


BATTERY = [
    ("a a'", S()),
    ("a a", N(1)),
    ("a b a' b'", O(1)),
    ("a b a b'", N(2)),
    ("a a b b", N(2)),
    ("a b a b", N(1)),
    ("a b b' a'", S()),
    ("a b c c' b' a'", S()),
    ("a b c a' b' c'", O(1)),
    ("a b c a' c' b'", O(1)),
    ("a a b c b' c'", N(3)),
    ("a1 b1 a1' b1' a2 b2 a2' b2'", O(2)),
    ("a b a' b' c d c' d' e e", N(5)),
]


@pytest.mark.parametrize("text,expected", BATTERY)
def test_normalize_battery(text, expected):
    word = W(text)
    result = normalize(word)
    assert result.type == expected
    # the trace is a complete certificate: replaying it from the input
    # reaches the canonical word letter for letter
    final = replay(result.trace)
    assert final.letters == canonical_word(expected).letters
    assert result.trace.initial == word


def test_normalize_rejects_invalid():
    with pytest.raises(ValidationError):
        normalize(W("a b a"))


def test_trace_passes_through_split_form():
    # the Klein-bottle word detours through the mixed form a c a' c before
    # being regathered into cross-cap normal form
    trace = normalize(W("a a b b")).trace
    assert W("a c a' c") in accumulate(trace.steps, apply_move, initial=trace.initial)


def test_already_canonical_inputs():
    for t in (S(), O(1), O(3), N(1), N(2), N(4)):
        w = canonical_word(t)
        result = normalize(w)
        assert result.type == t
        assert replay(result.trace).letters == w.letters


def test_equivalent():
    def same(w1, w2):
        return normalize(w1).type == normalize(w2).type

    assert same(W("a b a b"), W("c c"))
    assert same(W("a a b b"), W("x y x y'"))
    assert not same(W("a b a b"), W("a a b b"))
    assert not same(W("a b a' b'"), W("a a'"))


@given(words(max_pairs=6))
@settings(max_examples=300)
def test_normalize_agrees_with_invariants(w):
    result = normalize(w)
    assert result.type == classify_by_invariants(w)


@given(words(max_pairs=5))
@settings(max_examples=150)
def test_normalize_trace_replays_to_canonical(w):
    result = normalize(w)
    final = replay(result.trace)
    assert final.letters == canonical_word(result.type).letters


@given(words(max_pairs=5))
@settings(max_examples=150)
def test_all_intermediates_share_invariants(w):
    result = normalize(w)
    chi = euler_characteristic(w)
    trace = result.trace
    for step_word in accumulate(trace.steps, apply_move, initial=trace.initial):
        assert euler_characteristic(step_word) == chi


# ---------------------------------------------------------------------------
# the per-move invariant check

# its certificate emits every kind of move below, a phase-1 cut first
ALL_KINDS_WORD = "s1 s3 s0' s3' s2 s2' s1' s0'"


def _append_handle(word, move, result):
    # the true result with a fresh handle appended: still closed and of the
    # same orientability, but with chi two lower
    x = mint_fresh(result.symbols())
    y = mint_fresh(result.symbols() | {x})
    handle = (Letter(x, 1), Letter(y, 1), Letter(x, -1), Letter(y, -1))
    return Word(result.letters + handle)


def _flip_one_occurrence(word, move, result):
    # only the first occurrence of the flipped symbol is inverted
    k = next(i for i, let in enumerate(word.letters) if let.symbol == move.symbol)
    letters = list(word.letters)
    letters[k] = letters[k].inverse()
    return Word(tuple(letters))


def _rename_onto_used(word, move, result):
    # the renamed letters take a symbol the word already has
    taken = next(let.symbol for let in word if let.symbol != move.old)
    return Word(tuple(
        Letter(taken, let.exponent) if let.symbol == move.old else let for let in word
    ))


def _also_flip_another(word, move, result):
    # the true result with one more pair flipped, which keeps every invariant
    moved = move.symbol if isinstance(move, FlipEdge) else move.new
    other = next(let.symbol for let in result if let.symbol != moved)
    return apply_move(result, FlipEdge(other))


# the tampers after the first keep the length of the true result, so a
# rename or flip must be refused by its letters
TAMPERS = {
    CutPaste: [_append_handle],
    Rotate: [_append_handle],
    Rename: [_append_handle, _rename_onto_used, _also_flip_another],
    FlipEdge: [_append_handle, _flip_one_occurrence, _also_flip_another],
    Cancel: [_append_handle],
}


@pytest.mark.parametrize("kind", [CutPaste, Rotate, Rename, FlipEdge, Cancel])
def test_every_move_kind_is_checked(monkeypatch, kind):
    # the first emitted move of `kind` yields a tampered result, which
    # normalize must refuse by naming that move
    real_apply = normalize_module.apply_move
    for tamper in TAMPERS[kind]:
        bad: list = []

        def tampering_apply(word, move):
            result = real_apply(word, move)
            emitted = sys._getframe(1).f_code.co_name == "emit"
            if bad or not emitted or not isinstance(move, kind):
                return result
            bad.append(move)
            return tamper(word, move, result)

        monkeypatch.setattr(normalize_module, "apply_move", tampering_apply)
        with pytest.raises(InternalInvariantError) as exc:
            normalize(W(ALL_KINDS_WORD))
        assert bad, f"no {kind.__name__} was emitted"
        assert f"move {bad[0].render()} " in str(exc.value), tamper.__name__


def _switch_orientability(word, move, result):
    # a closed word of the true result's χ and the other orientability
    chi = euler_characteristic(result)
    if is_orientable(result):
        tampered = canonical_word(N(2 - chi))
    else:
        tampered = canonical_word(O((2 - chi) // 2))
    assert euler_characteristic(tampered) == chi
    assert is_orientable(tampered) != is_orientable(result)
    return tampered


# χ = 0 on both, so every intermediate has a counterpart of the other
# orientability; each emits a cancellation and a cut
EVEN_CHI_WORDS = ["s1 s0 s2 s1' s0' s2'", "s0' s0 s2 s2 s1' s1'"]


@pytest.mark.parametrize("text", EVEN_CHI_WORDS)
@pytest.mark.parametrize("kind", [CutPaste, Cancel])
def test_cut_and_cancel_are_checked_for_orientability(monkeypatch, kind, text):
    # the first emitted move of `kind` keeps χ but switches orientability,
    # which only the orientability half of the invariant check can see
    real_apply = normalize_module.apply_move
    bad: list = []

    def tampering_apply(word, move):
        result = real_apply(word, move)
        emitted = sys._getframe(1).f_code.co_name == "emit"
        if bad or not emitted or not isinstance(move, kind):
            return result
        bad.append(move)
        return _switch_orientability(word, move, result)

    monkeypatch.setattr(normalize_module, "apply_move", tampering_apply)
    with pytest.raises(InternalInvariantError) as exc:
        normalize(W(text))
    assert bad, f"no {kind.__name__} was emitted"
    assert f"move {bad[0].render()} changed an invariant" in str(exc.value)


def test_relabel_check_refuses_a_taken_name():
    # apply_move refuses such a rename itself, so only a direct call reaches
    # the letter check's own test of the new name
    old, new = W("a b a' b'").letters, W("b b b' b'").letters
    assert not normalize_module._relabels(old, new, Rename("a", "b"))
    assert normalize_module._relabels(old, W("c b c' b'").letters, Rename("a", "c"))
    # a rotation must give exactly the letters rotated by its offset
    rotated = W("b a' b' a").letters
    assert not normalize_module._relabels(old, rotated, Rotate(2))
    assert normalize_module._relabels(old, rotated, Rotate(1))


def _reference_apply_renames(rw, mapping):
    # the rename order as it was chosen by re-sorting every round
    pending = {old: new for old, new in mapping.items() if old != new}
    while pending:
        used = rw.word.symbols()
        free = [(old, new) for old, new in sorted(pending.items()) if new not in used]
        if free:
            old, new = free[0]
            rw.emit(Rename(old, new))
            del pending[old]
            continue
        old = sorted(pending)[0]
        tmp = mint_fresh(used | set(pending.values()))
        rw.emit(Rename(old, tmp))
        pending[tmp] = pending.pop(old)


def test_rename_order_matches_the_resorting_form():
    # random maps onto the word's own names and fresh ones, so chains and
    # cycles that need a temporary name both occur
    rng = random.Random(11)
    names = [f"a{k}" for k in range(1, 9)] + list("xyz")
    cycles = 0
    for _ in range(300):
        k = rng.randint(1, 8)
        symbols = rng.sample(names, k)
        word = Word(tuple(Letter(s, e) for s in symbols for e in (1, -1)))
        mapping = dict(zip(symbols, rng.sample(names, k)))
        runs = []
        for apply in (normalize_module._apply_renames, _reference_apply_renames):
            rw = normalize_module._Rewriter(word, euler_characteristic(word))
            apply(rw, mapping)
            runs.append(rw.steps)
        assert runs[0] == runs[1], mapping
        cycles += any(step.new not in mapping.values() for step in runs[0])
    assert cycles

# ---------------------------------------------------------------------------
# the alignment onto canonical words against full rotation scans for blocks


def _reference_crosscap_alignment(word):
    n = len(word.letters)
    if n % 2:
        return None
    for r in range(n):
        ok = True
        for t in range(n // 2):
            a = word[(r + 2 * t) % n]
            b = word[(r + 2 * t + 1) % n]
            if a.symbol != b.symbol or a.exponent != b.exponent:
                ok = False
                break
        if ok:
            return r
    return None


def _reference_commutator_alignment(word):
    n = len(word.letters)
    if n % 4:
        return None
    for r in range(n):
        ok = True
        for t in range(0, n, 4):
            c = [word[(r + t + k) % n] for k in range(4)]
            if not (
                c[0].symbol == c[2].symbol
                and c[1].symbol == c[3].symbol
                and c[0].symbol != c[1].symbol
                and c[2].exponent == -c[0].exponent
                and c[3].exponent == -c[1].exponent
            ):
                ok = False
                break
        if ok:
            return r
    return None


def _aligned_rotation(letters, target):
    """The rotation `_alignment` finds, after checking that its relabelling
    maps the rotated letters onto `target` letter for letter."""
    aligned = normalize_module._alignment(letters, target)
    if aligned is None:
        return None
    r, mapping = aligned
    rotated = letters[r:] + letters[:r]
    assert tuple(Letter(mapping[s][0], mapping[s][1] * e) for s, e in rotated) == target
    return r


def test_block_alignment_matches_full_scans():
    pool = list(enumerate_words("abc")) + list(_seeded_words(0xB10C, 60, 4, 40))
    pool += [canonical_word(t) for g in range(1, 7) for t in (O(g), N(g))]
    pool += [canonical_word(O(g)).reflected() for g in range(1, 7)]
    hits = {"crosscap": 0, "commutator": 0}
    for word in pool:
        n = len(word)
        crosscaps = canonical_word(N(n // 2)).letters
        # genus 0 is the sphere, whose word is no commutator block; a
        # handle target of another length aligns nothing
        handles = canonical_word(O(max(n // 4, 1))).letters
        for r in range(n):
            w = word.rotated(r)
            want = _reference_crosscap_alignment(w)
            assert _aligned_rotation(w.letters, crosscaps) == want, w
            hits["crosscap"] += want is not None
            want = _reference_commutator_alignment(w)
            assert _aligned_rotation(w.letters, handles) == want, w
            hits["commutator"] += want is not None
    # both kinds of block are found, at more than one offset
    assert hits["crosscap"] > 100 and hits["commutator"] > 100


def _seeded_words(seed, count, lo, hi):
    """`count` words of lo-hi pairs over s0, s1, ...; odd-numbered ones orientable."""
    rng = random.Random(seed)
    for n in range(count):
        k = rng.randint(lo, hi)
        letters = []
        for i in range(k):
            e = rng.choice((1, -1))
            letters += [Letter(f"s{i}", e), Letter(f"s{i}", -e if n % 2 else rng.choice((1, -1)))]
        rng.shuffle(letters)
        yield Word(tuple(letters))


def _phase_1_length(monkeypatch):
    """Patch vertex reduction to record how many moves the rewrite holds
    when it returns; returns the list the counts go to."""
    real_reduce = normalize_module._reduce_vertices
    ends: list = []

    def recording_reduce(rw, classes):
        derived = real_reduce(rw, classes)
        ends.append(len(rw.steps))
        return derived

    monkeypatch.setattr(normalize_module, "_reduce_vertices", recording_reduce)
    return ends


def test_each_produced_word_is_traced_at_most_once(monkeypatch):
    # every apply_move that normalize makes emits a move, and the corners
    # are traced once for the start word, whose trace also gives the type
    # normalize aims at, and once at the end of each span that emitted a
    # cut or a cancellation: phase 1, then phases 2-3
    counts = {"traces": 0, "applies": 0}
    real_trace = words_module.corner_classes
    real_apply = normalize_module.apply_move
    phase_1 = _phase_1_length(monkeypatch)

    def counting_trace(word):
        counts["traces"] += 1
        return real_trace(word)

    def counting_apply(word, move):
        counts["applies"] += 1
        return real_apply(word, move)

    monkeypatch.setattr(words_module, "corner_classes", counting_trace)
    monkeypatch.setattr(normalize_module, "corner_classes", counting_trace)
    monkeypatch.setattr(normalize_module, "apply_move", counting_apply)
    for word in _seeded_words(0x7ACE, 50, 10, 40):
        counts.update(traces=0, applies=0)
        phase_1.clear()
        steps = normalize(word).trace.steps
        (k,) = phase_1
        later_cuts = sum(isinstance(m, (CutPaste, Cancel)) for m in steps[k:])
        assert counts["applies"] == len(steps)
        assert counts["traces"] == 1 + (k > 0) + (later_cuts > 0)


def test_pair_map_is_the_current_words(monkeypatch):
    # each gathering round builds the pair map of the word it reads and
    # mints the diagonal's name off it, and phases 1-2 mint it off the
    # word's symbols: every emitted cut must name its diagonal as
    # mint_fresh does for the symbols of the word it cuts
    real_emit = normalize_module._Rewriter.emit
    cuts = []

    def checked_emit(rw, move):
        if isinstance(move, CutPaste):
            assert move.fresh == mint_fresh(rw.word.symbols()), (rw.word.render(), move.render())
            cuts.append(move)
        return real_emit(rw, move)

    monkeypatch.setattr(normalize_module._Rewriter, "emit", checked_emit)
    for pairs in (4, 16, 64, 256):
        before = len(cuts)
        for word in _seeded_words(0x9A125 + pairs, 4, pairs, pairs):
            normalize(word)
        assert len(cuts) > before


def test_a_finished_block_never_interleaves_a_collected_pair(monkeypatch):
    # `_collect_handle` picks as interleaver any symbol with one letter
    # strictly between i and p; finished blocks stay contiguous and cuts
    # end at letters of the pair being collected, so no done symbol ever
    # has exactly one letter there, and the pick needs no check of `done`
    real_collect = normalize_module._collect_handle
    calls = []

    def checked_collect(rw, pairs, i, p, done):
        for sym in done:
            a, b = pairs[sym]
            assert (i < a < p) + (i < b < p) != 1, (rw.word.render(), sym, i, p)
        calls.append(len(done))
        return real_collect(rw, pairs, i, p, done)

    monkeypatch.setattr(normalize_module, "_collect_handle", checked_collect)
    for n, word in enumerate(_seeded_words(0xD0E, 100, 4, 80)):
        if n % 2:
            normalize(word)
    assert len(calls) > 900 and max(calls) > 0


def _square_chain(k):
    """k squares glued in a ring, the top of each to its own bottom: a torus
    word of 2k + 2 letters with k vertex classes."""
    squares = [W(f"u{m} v{(m + 1) % k} u{m}' v{m}'") for m in range(k)]
    return glue_polygons(PolygonSet(squares))


def test_derived_classes_are_the_traced_classes(monkeypatch):
    # phase 1 derives each word's corner classes from the last ones instead
    # of tracing them; after every phase-1 move they must be the classes
    # corner_classes traces, on seeded words of both orientabilities and on
    # a chain of squares, which starts with many vertex classes
    real_step = normalize_module._step
    kinds = Counter()

    def checked_step(rw, classes, move):
        classes = real_step(rw, classes, move)
        assert classes == corner_classes(rw.word), (rw.word.render(), move.render())
        kinds[type(move).__name__] += 1
        return classes

    monkeypatch.setattr(normalize_module, "_step", checked_step)
    chain = _square_chain(40)
    assert len(chain) == 82 and len(set(corner_classes(chain))) == 40
    seeded = [w for pairs in (4, 16, 64, 256) for w in _seeded_words(0xC1A55 + pairs, 2, pairs, pairs)]
    assert {is_orientable(w) for w in seeded} == {True, False}
    pool = [chain] + seeded
    for word in pool:
        assert normalize(word).type == classify_by_invariants(word)
    assert kinds["CutPaste"] > 300 and kinds["Cancel"] > 20, kinds


def _chi_changed(word):
    """`word` with the first two adjacent letters of different symbols
    swapped that change its Euler characteristic: the same letters, so
    still closed, of the same length and orientability."""
    letters = word.letters
    chi = euler_characteristic(word)
    for k in range(len(letters) - 1):
        if letters[k].symbol != letters[k + 1].symbol:
            swapped = Word(letters[:k] + (letters[k + 1], letters[k]) + letters[k + 2 :])
            if euler_characteristic(swapped) != chi:
                return swapped
    raise AssertionError(f"no swap changes the Euler characteristic of {word.render()}")


def _tamper_chi(monkeypatch, phase):
    """Patch apply_move so that the first cut of `phase`'s span gives a word
    of the same length and orientability but another χ; returns the word to
    normalize, that cut and the tampered word.  Phases 1 and 3 cut a seeded
    orientable word, on which phase 2 emits nothing; phase 2 splits
    ``a a b b``.  The tamper is keyed by the move and the word it is applied
    to, so it recurs wherever that move is applied to that word again."""
    if phase == 2:
        word = W("a a b b")
    else:
        word = list(_seeded_words(0xFA17, 2, 12, 12))[1]
        assert is_orientable(word)
    ends = _phase_1_length(monkeypatch)
    steps = normalize(word).trace.steps
    (k,) = ends
    befores = list(accumulate(steps, apply_move, initial=word))
    span = range(k) if phase == 1 else range(k, len(steps))
    at = next(t for t in span if isinstance(steps[t], CutPaste))
    target, before = steps[at], befores[at]
    tampered = _chi_changed(befores[at + 1])
    real_apply = normalize_module.apply_move

    def tampering_apply(w, move):
        if move == target and w.letters == before.letters:
            return tampered
        return real_apply(w, move)

    monkeypatch.setattr(normalize_module, "apply_move", tampering_apply)
    return word, target, tampered


@pytest.mark.parametrize("phase", [1, 2, 3])
def test_a_deferred_euler_check_names_the_move(monkeypatch, phase):
    # χ is traced once per span, not after each cut; a cut whose word keeps
    # its length and orientability but not χ must still be named, with the
    # per-move message, once the span's recorded moves are walked with
    # every word traced
    word, target, tampered = _tamper_chi(monkeypatch, phase)
    with pytest.raises(InternalInvariantError) as exc:
        normalize(word)
    assert str(exc.value) == f"move {target.render()} changed an invariant of {tampered.render()}"
    assert isinstance(exc.value.__cause__, InternalInvariantError)


@pytest.mark.parametrize("phase", [1, 2, 3])
def test_a_failed_span_runs_its_phase_once(monkeypatch, phase):
    # the move that broke χ is named from the span's recorded moves, so
    # neither phase runs a second time after the span's check fails
    word, target, _ = _tamper_chi(monkeypatch, phase)
    calls = Counter()
    for name in ("_reduce_vertices", "_regroup"):
        real = getattr(normalize_module, name)

        def counting(rw, *args, name=name, real=real):
            calls[name] += 1
            return real(rw, *args)

        monkeypatch.setattr(normalize_module, name, counting)
    with pytest.raises(InternalInvariantError, match=f"move {target.render()} "):
        normalize(word)
    assert calls == Counter(_reduce_vertices=1, _regroup=int(phase > 1))


def _respelled(word, move):
    """`word` with the first letter of `move`'s diagonal renamed to a symbol
    not in it: of the same length and orientability, but not closed."""
    letters = list(word.letters)
    k = next(k for k, let in enumerate(letters) if let.symbol == move.fresh)
    letters[k] = Letter(mint_fresh(word.symbols()), letters[k].exponent)
    return Word(tuple(letters))


@pytest.mark.parametrize("phase", [1, 3])
def test_a_cut_that_leaves_a_word_not_closed_names_the_move(monkeypatch, capsys, phase):
    # a cut whose word is not closed passes the per-move length and
    # orientability checks, and is refused once a corner trace or the next
    # gathering round's pair map reads the word; the span's recorded moves
    # are then walked with every word traced, which must name the cut, so
    # that the command
    # exits 2 for a bug and not 1 for bad input.  Each cut of the span is
    # tampered in turn, keyed by the move and the word it is applied to
    text = "a b c a' b' c' d e d' e'"
    word = W(text)
    ends = _phase_1_length(monkeypatch)
    steps = normalize(word).trace.steps
    (k,) = ends
    befores = list(accumulate(steps, apply_move, initial=word))
    span = range(k) if phase == 1 else range(k, len(steps))
    cuts = [t for t in span if isinstance(steps[t], CutPaste)]
    assert len(cuts) >= 2
    real_apply = normalize_module.apply_move
    for at in cuts:
        target, before = steps[at], befores[at]
        tampered = _respelled(befores[at + 1], target)
        assert is_orientable(tampered) and len(tampered) == len(before)

        def tampering_apply(w, move):
            if move == target and w.letters == before.letters:
                return tampered
            return real_apply(w, move)

        monkeypatch.setattr(normalize_module, "apply_move", tampering_apply)
        with pytest.raises(InternalInvariantError) as exc:
            normalize(word)
        assert str(exc.value) == f"move {target.render()} changed an invariant of {tampered.render()}"
        assert isinstance(exc.value.__cause__, ValidationError)
        assert cli_main(["normalize", text]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_derived_classes_that_differ_from_the_trace_are_refused(monkeypatch):
    # derived labels shifted by one pick the same cuts, since only their
    # order is read, but are not the least corners the trace labels classes
    # by; the trace at the end of phase 1 must refuse them, and as no move
    # broke an invariant, no move is named
    real_derive = normalize_module._derive_classes
    monkeypatch.setattr(
        normalize_module, "_derive_classes", lambda *args: tuple(c + 1 for c in real_derive(*args))
    )
    with pytest.raises(InternalInvariantError, match="are not its traced classes") as exc:
        normalize(_square_chain(4))
    assert exc.value.__cause__ is None


def test_only_the_final_alignment_rotates():
    # every cut is made where its diagonal sits, so a trace rotates at most
    # once, to align the finished blocks, and nothing is cut or cancelled
    # after that
    for word in _seeded_words(0x207A, 200, 1, 30):
        steps = normalize(word).trace.steps
        rotations = [k for k, m in enumerate(steps) if isinstance(m, Rotate)]
        assert len(rotations) <= 1, word.render()
        if rotations:
            after = steps[rotations[0] :]
            assert not any(isinstance(m, (CutPaste, Cancel)) for m in after), word.render()


def test_corner_cut_rule_matches_traced_cuts(monkeypatch):
    # the reference is the trial loop the rule replaced: every candidate
    # triangle cut is built in full and traced.  Its class-size profile must
    # be the one the rule predicts (one corner moves from the apex's class
    # into that of corner p + 1 when pasting along the side ending at p, of
    # corner p - 1 when pasting along the side starting at p), and vertex
    # reduction must move to the first cut that shrinks the profile
    real_shrink = normalize_module._shrink_class
    counts = {"shrinks": 0, "cuts": 0}

    def checked_shrink(rw, classes, sizes, qroot):
        word = rw.word
        n = len(word)
        fresh = mint_fresh(word.symbols())
        old_profile = sorted(sizes.values())
        first = None
        in_q = [p for p in range(n) if classes[p] == qroot]
        others = [p for p in range(n) if classes[p] != qroot]
        for p in in_q + others:
            flank_a, flank_b = word[(p - 1) % n], word[p]
            if flank_a.symbol == flank_b.symbol:
                continue
            for paste, q in ((flank_a.symbol, (p + 1) % n), (flank_b.symbol, (p - 1) % n)):
                diagonal = sorted(((p - 1) % n, (p + 1) % n))
                cut = apply_move(word, CutPaste(*diagonal, fresh, paste))
                profile = sorted(Counter(corner_classes(cut)).values())
                predicted = dict(sizes)
                predicted[classes[p]] -= 1
                predicted[classes[q]] += 1
                assert profile == sorted(predicted.values()), (word.render(), p, paste)
                if first is None and profile < old_profile:
                    first = cut
                counts["cuts"] += 1
        new = real_shrink(rw, classes, sizes, qroot)
        assert first is not None and rw.word.letters == first.letters
        counts["shrinks"] += 1
        return new

    monkeypatch.setattr(normalize_module, "_shrink_class", checked_shrink)
    for word in _seeded_words(0x5EED, 40, 4, 30):
        result = normalize(word)
        assert result.type == classify_by_invariants(word)
    assert counts["shrinks"] > 200 and counts["cuts"] > 10 * counts["shrinks"]


# ---------------------------------------------------------------------------
# golden certificates over a seeded corpus

GOLDEN_CORPUS_SEED = 0x60D1
GOLDEN_CORPUS_SIZE = 2000
GOLDEN_DIGEST = "465064301b6404c7a3c9ec2318f928c726b2187923e20b8fa7c1071b52b3c28a"
GOLDEN_NAMES = list(ascii_lowercase) + [f"{c}{i}" for c in "abxy" for i in range(1, 11)]


def _golden_corpus():
    """2,000 words of 1-40 pairs; even-numbered ones orientable.

    Names mix single letters with the subscripted names that `mint_fresh`
    produces, so fresh-name choices are exercised as well.
    """
    rng = random.Random(GOLDEN_CORPUS_SEED)
    out = []
    for n in range(GOLDEN_CORPUS_SIZE):
        k = rng.randint(1, 40)
        names = rng.sample(GOLDEN_NAMES, k)
        orientable = n % 2 == 0
        letters = []
        for s in names:
            e = rng.choice((1, -1))
            letters += [Letter(s, e), Letter(s, -e if orientable else rng.choice((1, -1)))]
        rng.shuffle(letters)
        if not orientable and is_orientable(Word(tuple(letters))):
            s = letters[0].symbol
            letters = [Letter(s, 1) if let.symbol == s else let for let in letters]
        out.append(Word(tuple(letters)))
    return out


def test_golden_corpus_certificates():
    # sha256 over each word's text, its type, its rendered trace and the
    # word its parsed trace replays to; pinned before the word core was
    # reworked, so any change to a trace shows here
    digest = hashlib.sha256()
    corpus = _golden_corpus()
    assert sum(is_orientable(w) for w in corpus) == GOLDEN_CORPUS_SIZE // 2
    for word in corpus:
        result = normalize(word)
        text = result.trace.render()
        final = replay(parse_trace(text, word))
        digest.update(f"{word.render()}|{result.type}|{text}|{final.render()}\n".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
