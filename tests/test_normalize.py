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
    SurfaceType,
    ValidationError,
    Word,
    canonical_word,
    classify_by_invariants,
    corner_classes,
    euler_characteristic,
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
            rw = normalize_module._Rewriter(
                word, euler_characteristic(word), words_module._pair_positions(word.letters)
            )
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


def test_each_produced_word_is_traced_at_most_once(monkeypatch):
    # every apply_move that normalize makes emits a move, and every word is
    # traced at most once: the start word, whose trace also gives the type
    # normalize aims at, and one per move that is neither a rotation, a
    # rename nor a flip
    counts = {"traces": 0, "applies": 0}
    real_trace = words_module.corner_classes
    real_apply = normalize_module.apply_move

    def counting_trace(word, pairs=None):
        counts["traces"] += 1
        return real_trace(word, pairs)

    def counting_apply(word, move):
        counts["applies"] += 1
        return real_apply(word, move)

    monkeypatch.setattr(words_module, "corner_classes", counting_trace)
    monkeypatch.setattr(normalize_module, "corner_classes", counting_trace)
    monkeypatch.setattr(normalize_module, "apply_move", counting_apply)
    for word in _seeded_words(0x7ACE, 50, 10, 40):
        counts.update(traces=0, applies=0)
        steps = normalize(word).trace.steps
        non_rotations = sum(not isinstance(m, Rotate) for m in steps)
        renames = sum(isinstance(m, Rename) for m in steps)
        flips = sum(isinstance(m, FlipEdge) for m in steps)
        assert counts["applies"] == len(steps)
        assert counts["traces"] == non_rotations - renames - flips + 1


def test_pair_map_is_the_current_words(monkeypatch):
    # the pair map each gathering round and each fresh name read is the one
    # the last trace left in the rewriter: after every move that leaves a
    # map, it must be the current word's, key order included, as
    # _pair_positions builds it
    real_emit = normalize_module._Rewriter.emit
    real_fresh = normalize_module._Rewriter.fresh
    counts = {"maps": 0, "fresh": 0}

    def checked_emit(rw, move):
        classes = real_emit(rw, move)
        if rw.pairs is not None:
            want = words_module._pair_positions(rw.word.letters)
            assert list(rw.pairs.items()) == list(want.items())
            counts["maps"] += 1
        return classes

    def checked_fresh(rw):
        name = real_fresh(rw)
        assert list(rw.pairs.items()) == list(words_module._pair_positions(rw.word.letters).items())
        assert name == mint_fresh(rw.word.symbols())
        counts["fresh"] += 1
        return name

    monkeypatch.setattr(normalize_module._Rewriter, "emit", checked_emit)
    monkeypatch.setattr(normalize_module._Rewriter, "fresh", checked_fresh)
    for pairs in (4, 16, 64, 256):
        before = dict(counts)
        for word in _seeded_words(0x9A125 + pairs, 4, pairs, pairs):
            normalize(word)
        assert counts["maps"] > before["maps"] and counts["fresh"] > before["fresh"]


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
