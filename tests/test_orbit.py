import os
import subprocess
import sys
import time
from collections import deque
from itertools import combinations, permutations, product
from pathlib import Path
from string import ascii_lowercase

import pytest

from surfclass import moves, words
from surfclass.moves import Cancel, CutPaste, FlipEdge, Insert, Reflect, Rename, apply_move
from surfclass.orbit import (
    OrbitResult,
    _anchored_rotations,
    _successors,
    _symbol_universe,
    enumerate_words,
    orbit_oracle,
)
from surfclass.words import (
    Letter,
    SurfaceType,
    ValidationError,
    Word,
    classify_by_invariants,
    mint_fresh,
    parse_word,
)

W = parse_word


def test_sphere_orbit_over_one_symbol():
    r = orbit_oracle(W("a a'"), max_symbols=1, budget=100)
    assert r.exhausted
    assert r.words == frozenset({W("a a'")})


def test_projective_plane_orbit_over_one_symbol():
    r = orbit_oracle(W("a a"), max_symbols=1, budget=100)
    assert r.exhausted
    # aa and a'a' are the two rotationally distinct spellings
    assert r.words == frozenset({W("a a"), W("a' a'")})


def test_budget_exhaustion_is_reported():
    r = orbit_oracle(W("a a b b"), max_symbols=3, budget=3)
    assert not r.exhausted
    assert r.expanded == 3
    # a truncated flood is still a sound lower bound
    full = orbit_oracle(W("a a b b"), max_symbols=3, budget=100_000)
    assert full.exhausted
    assert r.words <= full.words


def test_symbol_cap_enforced():
    with pytest.raises(ValidationError):
        orbit_oracle(W("a b a' b'"), max_symbols=1)


def test_orbit_is_start_independent():
    a = orbit_oracle(W("a a b b"), max_symbols=2, budget=100_000)
    b = orbit_oracle(W("a b a b'"), max_symbols=2, budget=100_000)
    assert a.exhausted and b.exhausted
    assert a.words == b.words
    assert W("a a b b") in b.words


def test_enumerate_words_counts():
    # 1 symbol: 2 letters with 4 sign choices, 3 classes after rotation
    assert len(enumerate_words(["a"])) == 3
    census = enumerate_words(["a", "b", "c"])
    assert len(census) == 1055
    for w in census:
        assert len(w) in (2, 4, 6)


def test_two_symbol_orbits_partition_census():
    census = enumerate_words(["a", "b"])
    seen = set()
    while len(seen) < len(census):
        rep = min(census - seen, key=lambda w: (len(w), w.render()))
        r = orbit_oracle(rep, max_symbols=2, budget=100_000)
        assert r.exhausted
        assert r.words <= census
        assert not (r.words & seen)  # orbits never overlap
        seen |= r.words
    assert seen == census


def test_orbit_respects_type():
    r = orbit_oracle(W("a b a' b'"), max_symbols=3, budget=100_000)
    assert r.exhausted
    t = SurfaceType.orientable_genus(1)
    assert all(classify_by_invariants(w) == t for w in r.words)


def test_enumerate_words_names_the_first_bad_symbol():
    # each pool symbol is checked once, in pool order, before any word is built
    with pytest.raises(ValidationError) as info:
        enumerate_words(["a", "b!", "1x"])
    assert str(info.value) == "bad symbol name 'b!'"


def test_enumerate_words_ignores_hash_seed():
    # the rotation stored for each cyclic class, and so the rendered text,
    # must not follow the string hash seed of the interpreter
    code = (
        "from surfclass.orbit import enumerate_words\n"
        "print(sorted(w.render() for w in enumerate_words('abc')))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=60, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("'") >= 2 * 1055


def _enumerate_words_by_hashing(symbols):
    """`enumerate_words` as it was before it built each cyclic class once:
    every arrangement with every sign vector, collapsed by the set, which
    keeps the first word of each class it meets."""
    pool = list(dict.fromkeys(symbols))
    out = set()
    for k in range(1, len(pool) + 1):
        for subset in combinations(pool, k):
            base = []
            for s in subset:
                base.extend([s, s])
            for perm in sorted(set(permutations(base))):
                for signs in product((1, -1), repeat=2 * k):
                    out.add(Word._from_checked(tuple(map(Letter, perm, signs))))
    return out


@pytest.mark.parametrize("pool", ["a", "ab", "abc", "bac"])
def test_enumerate_words_matches_hashing_reference(pool):
    # the same classes in the same stored rotations, letter for letter;
    # bac checks that the pool's order does not matter
    got = enumerate_words(pool)
    want = _enumerate_words_by_hashing(pool)
    assert len(got) == len(want)
    assert {w.letters for w in got} == {w.letters for w in want}


def _successors_by_arc_sets(word, universe, temp):
    """`_successors` as it was before it read the pair map: the paste
    symbols of each chord are the symbols in both of two per-arc sets."""
    out = []
    n = len(word)
    used = word.symbols()
    free = [s for s in universe if s not in used]
    out.append(apply_move(word, Reflect()))
    for s in sorted(used):
        out.append(apply_move(word, FlipEdge(s)))
        for t in free:
            out.append(apply_move(word, Rename(s, t)))
    if n > 2:
        for p in range(n):
            a = word.letters[p]
            b = word.letters[(p + 1) % n]
            if a.symbol == b.symbol and a.exponent == -b.exponent:
                out.append(apply_move(word, Cancel(p)))
    if len(used) < len(universe):
        for p in range(n + 1):
            out.append(apply_move(word, Insert(p, free[0])))
    if n >= 3:
        for i in range(n):
            for j in range(i + 1, n):
                arc1 = {word.letters[k].symbol for k in range(i, j)}
                arc2 = {word.letters[k % n].symbol for k in range(j, i + n)}
                for paste_sym in sorted(arc1 & arc2):
                    if free:
                        out.append(apply_move(word, CutPaste(i, j, free[0], paste_sym)))
                    else:
                        mid = apply_move(word, CutPaste(i, j, temp, paste_sym))
                        out.append(apply_move(mid, Rename(temp, paste_sym)))
    return out


def test_successors_match_arc_set_reference():
    # identical successor lists, letter for letter and in order; a cap of 3
    # leaves a 3-symbol word no free name (the rename path), a cap of 4
    # leaves one
    checked = 0
    for word in enumerate_words("abc"):
        if len(word) < 3:
            continue
        for cap in (3, 4):
            universe = _symbol_universe(word, cap)
            temp = mint_fresh(frozenset(universe))
            want = [w.letters for w in _successors_by_arc_sets(word, universe, temp)]
            got = _successors(word.letters, universe)
            assert got == want, word.render()
            checked += 1
    assert checked == 2 * (1055 - 9)  # nine one-symbol words


def test_symbol_universe_pads_with_mint_fresh_names():
    # the word's symbols in sorted order, then each name mint_fresh picks in
    # turn: past z the pool goes on a1, b1, c1, ..., skipping names in use
    rest = [c for c in ascii_lowercase if c not in "bq"]
    assert _symbol_universe(W("q b q' b'"), 30) == ["b", "q"] + rest + ["a1", "b1", "c1", "d1"]
    rest = [c for c in ascii_lowercase if c != "b"]
    assert _symbol_universe(W("a1 b a1' b'"), 30) == ["a1", "b"] + rest + ["b1", "c1", "d1"]


def test_symbol_universe_is_linear_in_the_cap():
    # padding a pool of 20,000 names reads the name order once; rescanning
    # it from a for each name took tens of seconds
    start = time.perf_counter()
    r = orbit_oracle(W("a a"), 20_000, budget=1)
    assert time.perf_counter() - start < 2.0
    # a a, its reflection a' a', a rename to each of the 19,999 free names
    # and one insertion of b b', the same word at every position
    assert len(r.words) == 20_002 and r.expanded == 1


def test_flood_builds_no_move_and_runs_no_cut_guard(monkeypatch):
    want = orbit_oracle(W("a b a b"), 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the flood built a move or ran a cut guard")

    for move in (CutPaste, Cancel, Insert):
        monkeypatch.setattr(move, "__init__", refuse)
    monkeypatch.setattr(moves, "_check_cut", refuse)
    got = orbit_oracle(W("a b a b"), 3)
    assert got.exhausted
    assert got == want
    assert {w.letters for w in got.words} == {w.letters for w in want.words}


def test_flood_scans_each_reached_word_once(monkeypatch):
    # successors are looked up by their anchored rotation, so the only
    # least-rotation scans are the result's hashes, one per reached word
    scans = []
    scan = words._least_rotation

    def counting(letters):
        scans.append(letters)
        return scan(letters)

    monkeypatch.setattr(words, "_least_rotation", counting)
    r = orbit_oracle(W("a b a b"), 3)
    assert r.exhausted
    assert len(scans) == len(r.words)


def test_anchored_rotations_decide_cyclic_equality():
    # each rotation's first-min-letter rotation is an anchored rotation of
    # its word, and no two cyclic classes share one, so the flood's lookup
    # decides what Word.__eq__ decides
    owner = {}
    for word in enumerate_words("abc"):
        letters = word.letters
        anchored = _anchored_rotations(letters)
        assert 1 <= len(anchored) <= 2
        assert word._least() in anchored
        for key in anchored:
            assert owner.setdefault(key, word) is word
        for r in range(len(letters)):
            s = letters[r:] + letters[:r]
            k = s.index(min(s))
            assert s[k:] + s[:k] in anchored
    assert len(set(owner.values())) == 1055


def _flood_by_arc_sets(word, max_symbols, budget):
    """`orbit_oracle`'s breadth-first flood, written out over
    `_successors_by_arc_sets`, which applies every move by `apply_move`."""
    universe = _symbol_universe(word, max_symbols)
    temp = mint_fresh(frozenset(universe))
    seen = {word}
    queue = deque([word])
    expanded = 0
    while queue:
        if expanded >= budget:
            return OrbitResult(frozenset(seen), False, expanded)
        cur = queue.popleft()
        expanded += 1
        for nxt in _successors_by_arc_sets(cur, universe, temp):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return OrbitResult(frozenset(seen), True, expanded)


def _assert_same_flood(word, max_symbols, budget):
    want = _flood_by_arc_sets(word, max_symbols, budget)
    got = orbit_oracle(word, max_symbols, budget)
    assert got == want, word.render()
    # the rotation each reached word is stored in is the one reached first
    assert {w.letters for w in got.words} == {w.letters for w in want.words}
    return got


def test_flood_matches_arc_set_reference():
    # one full flood per three-symbol type, at the cap that leaves a
    # three-symbol word no free name
    reps = {}
    for word in sorted(enumerate_words("abc"), key=lambda w: (len(w), w.render())):
        reps.setdefault(classify_by_invariants(word), word)
    assert len(reps) == 5
    for word in reps.values():
        assert _assert_same_flood(word, 3, 100_000).exhausted
    # cut off early in the four-symbol flood of a a, which pins the order in
    # which the breadth-first search expands its words
    for budget in (1, 10, 100):
        r = _assert_same_flood(W("a a"), 4, budget)
        assert not r.exhausted and r.expanded == budget


@pytest.mark.parametrize("start, size", [("a a'", 860), ("a b a' b' c d c' d'", 1008)])
def test_four_symbol_floods_match_arc_set_reference(start, size):
    # two exhausted floods over four names: every reached word has the
    # start word's type
    word = W(start)
    r = _assert_same_flood(word, 4, 100_000)
    assert r.exhausted and len(r.words) == size
    t = classify_by_invariants(word)
    assert all(classify_by_invariants(w) == t for w in r.words)
