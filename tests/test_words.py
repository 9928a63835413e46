import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import surfclass.words as words_module
from conftest import words
from surfclass.moves import ReplayError, paste, parse_trace, replay
from surfclass.normalize import normalize
from surfclass.orbit import enumerate_words, orbit_oracle
from surfclass.words import (
    InternalInvariantError,
    Letter,
    PolygonSet,
    SurfaceType,
    SurfclassError,
    ValidationError,
    Word,
    WordSyntaxError,
    _check_pairing,
    canonical_word,
    classify_by_invariants,
    complex_euler,
    complex_is_orientable,
    corner_classes,
    euler_characteristic,
    glue_polygons,
    is_orientable,
    mint_fresh,
    parse_polygon_file,
    parse_word,
    validate,
    validate_polygon_set,
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_spaced_tokens():
    w = parse_word("a b a' b'")
    assert w.letters == (
        Letter("a", 1), Letter("b", 1), Letter("a", -1), Letter("b", -1)
    )


def test_parse_caret_exponent():
    assert parse_word("a b a^-1 b^-1") == parse_word("a b a' b'")


def test_parse_compact():
    assert parse_word("aba'b'") == parse_word("a b a' b'")
    assert parse_word("aabb").letters == (
        Letter("a", 1), Letter("a", 1), Letter("b", 1), Letter("b", 1)
    )


def test_parse_multichar_symbols():
    w = parse_word("a1 b1 a1' b1'")
    assert w.letters[0] == Letter("a1", 1)
    assert w.letters[2] == Letter("a1", -1)


def test_parse_error_position():
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("a b ?")
    assert exc.value.position == 5


def test_parse_rejects_empty():
    with pytest.raises(WordSyntaxError):
        parse_word("   ")


def test_render_round_trip():
    for text in ("a b a' b'", "a a b b", "x y' x y"):
        assert parse_word(parse_word(text).render()) == parse_word(text)


# ---------------------------------------------------------------------------
# cyclic identity


def test_cyclic_equality_and_hash():
    w1 = parse_word("a b a' b'")
    w2 = parse_word("b a' b' a")
    assert w1 == w2
    assert hash(w1) == hash(w2)
    assert w1 != parse_word("a b a b")


def test_reflect_is_not_cyclic_equal():
    for text in ("a b c a' c' b'", "a b c", "a a b", "x y' x y"):
        w = parse_word(text)
        assert w != w.reflected()
        assert w.reflected().reflected() == w


def _rotations(letters):
    return [letters[k:] + letters[:k] for k in range(len(letters))]


@given(words(max_pairs=8))
def test_every_rotation_is_equal_and_hashes_equal(w):
    for k in range(len(w)):
        r = w.rotated(k)
        assert r == w and w == r
        assert hash(r) == hash(w)
        assert Word(r.letters) == w
        assert r.letters == w.letters[k:] + w.letters[:k]


# letters drawn from three symbols so that ties and periodic words are common
_SMALL_LETTERS = st.lists(
    st.sampled_from([Letter("a", 1), Letter("a", -1), Letter("b", 1)]),
    min_size=1,
    max_size=14,
)


@given(_SMALL_LETTERS)
@settings(max_examples=400)
def test_display_is_least_rotation(letters):
    w = Word(tuple(letters))
    least = min(_rotations(tuple(letters)))
    assert w.display() == " ".join(let.render() for let in least)
    assert w == Word(least)
    assert w.rotated(1).display() == w.display()


def test_display_periodic_and_single():
    assert parse_word("b a b a").display() == "a b a b"
    assert parse_word("a a a a").display() == "a a a a"
    # exponent -1 sorts before +1
    assert parse_word("x x'").display() == "x' x"
    assert Word((Letter("c", -1),)).display() == "c'"


def _reference_least_rotation(s):
    """Booth's failure-function scan (K. S. Booth, "Lexicographically least
    circular substrings", IPL 10, 1980): the start of a least rotation."""
    n = len(s)
    ss = s + s
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        c = ss[j]
        i = fail[j - k - 1]
        while i != -1 and c != ss[k + i + 1]:
            if c < ss[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and c != ss[k]:
            if c < ss[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _rotation_at(scan, letters):
    k = scan(letters)
    return letters[k:] + letters[:k]


def _seeded_rotation_inputs(rng):
    """Words of 8 to 320 letters over a few symbols, plain and periodic."""
    for n in (8, 12, 40, 80, 160, 320):
        for _ in range(6):
            yield tuple(Letter(rng.choice("abc"), rng.choice((1, -1))) for _ in range(n))
        for period in (1, 2, 4, n // 4, n // 2):
            block = tuple(Letter(rng.choice("ab"), rng.choice((1, -1))) for _ in range(period))
            yield block * (n // period)


def test_least_rotation_matches_booth():
    # periodic words have several least starts, so rotations are compared
    # with Booth's, not starts; the scan returns the first one
    scan = words_module._least_rotation
    two = (Letter("a", 1), Letter("a", -1))
    binary = [s for n in range(1, 13) for s in itertools.product(two, repeat=n)]
    assert len(binary) == 8190
    for s in binary:
        rotations = _rotations(s)
        least = min(rotations)
        assert scan(s) == rotations.index(least)
        assert _rotation_at(_reference_least_rotation, s) == least
    census = [w.letters for w in enumerate_words("abc")]
    seeded = list(_seeded_rotation_inputs(random.Random(0xB007)))
    assert any(len(set(_rotations(s))) < len(s) for s in seeded)
    for s in census + seeded:
        assert _rotation_at(scan, s) == _rotation_at(_reference_least_rotation, s)


def test_least_rotation_is_scanned_once_per_word(monkeypatch):
    other = parse_word("b a' b' a")
    hash(other)
    scanned = []
    scan = words_module._least_rotation

    def counting(letters):
        scanned.append(letters)
        return scan(letters)

    monkeypatch.setattr(words_module, "_least_rotation", counting)
    w = parse_word("a b a' b'")
    hash(w)
    assert w == other
    assert w.display() == "a' b' a b"
    hash(w)
    assert scanned == [w.letters]
    # a rotated word is a new value with its own key
    r = w.rotated(1)
    assert hash(r) == hash(w)
    assert scanned == [w.letters, r.letters]


def test_word_constructor_errors():
    with pytest.raises(ValidationError, match="^a word must have at least one letter$"):
        Word(())
    with pytest.raises(ValidationError, match=r"^exponent of 'a' must be \+1 or -1$"):
        Word((Letter("b", 1), Letter("a", 2)))
    with pytest.raises(ValidationError, match="^bad symbol name '1x'$"):
        Word((Letter("a", 1), Letter("1x", -1)))
    with pytest.raises(TypeError, match="^expected Letter, got tuple$"):
        Word((Letter("a", 1), ("a", -1)))


@pytest.mark.parametrize(
    "step,message",
    [
        ("cutpaste 0 2 1x a", "step 1 (cutpaste 0 2 1x a): bad symbol name '1x'"),
        ("rename a 9b", "step 1 (rename a 9b): bad symbol name '9b'"),
        ("insert 0 $", "step 1 (insert 0 $): bad symbol name '$'"),
    ],
)
def test_replay_rejects_bad_introduced_names(step, message):
    with pytest.raises(ReplayError) as exc:
        replay(parse_trace(step, parse_word("a b a' b'")))
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# validation


def test_validate_messages():
    with pytest.raises(ValidationError, match="symbol a occurs once"):
        validate(parse_word("a b b"))
    with pytest.raises(ValidationError, match="symbol a occurs 3 times"):
        validate(parse_word("a a a b b"))


def test_validate_passes():
    validate(parse_word("a a'"))


def _validate_by_dict_loop(word):
    """The counting loop `validate` used before it counted with Counter."""
    counts = {}
    for let in word.letters:
        counts[let.symbol] = counts.get(let.symbol, 0) + 1
    _check_pairing(counts)


@st.composite
def letter_sequences(draw):
    """Letters over a few symbols, each occurring 1 to 4 times, in any order."""
    k = draw(st.integers(min_value=1, max_value=6))
    letters = []
    for i in range(k):
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            letters.append(Letter(f"s{i}", draw(st.sampled_from([1, -1]))))
    return Word(tuple(draw(st.permutations(letters))))


def _error_of(check, word):
    try:
        check(word)
    except ValidationError as exc:
        return str(exc)
    return None


@given(letter_sequences())
@settings(max_examples=300)
def test_validate_matches_dict_loop(word):
    assert _error_of(validate, word) == _error_of(_validate_by_dict_loop, word)


def test_mint_fresh():
    assert mint_fresh(frozenset()) == "a"
    assert mint_fresh(frozenset("ab")) == "c"
    import string
    everything = frozenset(string.ascii_lowercase)
    assert mint_fresh(everything) == "a1"


# ---------------------------------------------------------------------------
# invariants: the corner-tracing vertex count is the load-bearing oracle


VERTEX_GOLDENS = [
    ("a b a' b'", 1),
    ("a a'", 2),
    ("a a", 1),
    ("a b a b", 2),
    ("a a b b", 1),
    ("a b c a' b' c'", 2),
    ("a b b' a'", 3),
]


@pytest.mark.parametrize("text,v", VERTEX_GOLDENS)
def test_vertex_cycle_count(text, v):
    assert len(set(corner_classes(parse_word(text)))) == v


def _reference_classes(w):
    """Vertex classes by relaxing labels to a fixpoint over the side links."""
    n = len(w)
    ends = {}
    for i, let in enumerate(w.letters):
        tail, head = (i, (i + 1) % n) if let.exponent > 0 else ((i + 1) % n, i)
        ends.setdefault(let.symbol, []).append((tail, head))
    links = [(p[0][0], p[1][0]) for p in ends.values()]
    links += [(p[0][1], p[1][1]) for p in ends.values()]
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in links:
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    return tuple(label)


@given(words(max_pairs=12))
@settings(max_examples=300)
def test_corner_representative_is_least_corner(w):
    classes = corner_classes(w)
    assert classes == _reference_classes(w)
    for i, root in enumerate(classes):
        assert root == min(j for j, r in enumerate(classes) if r == root)
        assert classes[root] == root


@given(words(max_pairs=8))
def test_complex_euler_of_one_polygon(w):
    assert complex_euler(PolygonSet((w,))) == euler_characteristic(w)
    assert complex_is_orientable(PolygonSet((w,))) == is_orientable(w)


def _refusal(fn, arg):
    """The text of the ValidationError ``fn(arg)`` raises."""
    with pytest.raises(ValidationError) as exc:
        fn(arg)
    return str(exc.value)


def test_corner_classes_needs_closed_word():
    # every entry point that reads a word refuses one that is not closed in
    # validate's words; test_complex_invariants_reject_unpaired does the
    # same for polygon sets
    for text, message in [
        ("a b a", "symbol b occurs once"),
        ("a a a b b", "symbol a occurs 3 times"),
        ("a a a a", "symbol a occurs 4 times"),
    ]:
        word = parse_word(text)
        for fn in (validate, corner_classes, euler_characteristic, classify_by_invariants,
                   normalize):
            assert _refusal(fn, word) == message, (text, fn.__name__)


def _reference_trace_corners(letters, nxt):
    """The union-find tracer the cycle walk replaced: roots are linked
    under the smaller root, so parent[x] <= x throughout and one ascending
    pass resolves every corner to the least index of its class."""
    parent = list(range(len(letters)))
    first = {}  # first occurrence; -1 once the pair is joined
    for g, let in enumerate(letters):
        h = first.setdefault(let.symbol, g)
        if h == g:
            continue
        if h < 0:
            validate(Word(tuple(letters)))
        first[let.symbol] = -1
        if letters[h].exponent == let.exponent:
            links = ((h, g), (nxt[h], nxt[g]))
        else:
            links = ((h, nxt[g]), (nxt[h], g))
        for a, b in links:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    if 2 * len(first) != len(letters):
        validate(Word(tuple(letters)))
    for x in range(len(parent)):
        parent[x] = parent[parent[x]]
    return parent


def _trace_outcome(trace, letters, nxt):
    try:
        return tuple(trace(letters, nxt))
    except ValidationError as exc:
        return str(exc)


def _closed_letters(rng, pairs, orientable):
    """A closed word's letters; an orientable one has opposite exponents
    on each pair."""
    letters = []
    for t in range(pairs):
        e = rng.choice((1, -1))
        letters += [Letter(f"s{t}", e), Letter(f"s{t}", -e if orientable else rng.choice((1, -1)))]
    rng.shuffle(letters)
    return letters


def test_corner_walk_matches_the_union_find(monkeypatch):
    traced = []
    real = words_module._trace_corners

    def checked(letters, nxt):
        got = real(letters, nxt)
        assert tuple(got) == tuple(_reference_trace_corners(letters, nxt)), (letters, nxt)
        traced.append(len(nxt))
        return got

    # corner_classes and complex_euler both reach the tracer through the module
    monkeypatch.setattr(words_module, "_trace_corners", checked)
    census = list(enumerate_words("abc"))
    for word in census:
        corner_classes(word)
    rng = random.Random(20)
    for k in range(200):
        letters = _closed_letters(rng, rng.randint(1, 80), k % 2 == 0)
        corner_classes(Word(tuple(letters)))
        # the same letters cut into up to five polygons
        cuts = sorted(rng.sample(range(1, len(letters)), min(len(letters) - 1, rng.randint(0, 4))))
        polys = [letters[a:b] for a, b in zip([0] + cuts, cuts + [len(letters)])]
        complex_euler(PolygonSet(tuple(Word(tuple(poly)) for poly in polys)))
    assert len(traced) == len(census) + 400
    # non-closed sequences: a symbol once or three times
    for k in range(200):
        letters = _closed_letters(rng, rng.randint(1, 40), k % 2 == 0)
        extra = letters[rng.randrange(len(letters))]
        if k % 4 < 2:
            letters.remove(extra)
        else:
            letters.insert(rng.randrange(len(letters) + 1), extra)
        nxt = [*range(1, len(letters)), 0]
        got = _trace_outcome(real, letters, nxt)
        assert got == _refusal(validate, Word(tuple(letters))), letters
        assert got == _trace_outcome(_reference_trace_corners, letters, nxt)


def test_corner_walk_is_bounded_on_a_broken_successor_map():
    # an nxt that is not a permutation: a class walk that waits to come back
    # to its first corner loops forever on these, the bounded walk raises
    trace = words_module._trace_corners
    t0 = time.perf_counter()
    for text in ("a a'", "a b a' b'", "a b a b", "a a b b"):
        letters = parse_word(text).letters
        with pytest.raises(InternalInvariantError, match="did not close in"):
            trace(letters, [0] * len(letters))
    rng = random.Random(21)
    raised = 0
    for k in range(300):
        letters = _closed_letters(rng, rng.randint(1, 40), k % 2 == 0)
        n = len(letters)
        # one polygon's last side still ends at corner 0, the rest is random
        nxt = [rng.randrange(n) for _ in range(n - 1)] + [0]
        try:
            trace(letters, nxt)
        except InternalInvariantError:
            raised += 1
    assert raised > 100
    # a complex's map (last entry not 0) with two sides ending at one corner
    # is refused before any walk
    for k in range(300):
        letters = _closed_letters(rng, rng.randint(1, 40), k % 2 == 0)
        n = len(letters)
        nxt = [rng.randrange(n) for _ in range(n - 1)] + [rng.randrange(1, n)]
        i = rng.randrange(n - 1)
        nxt[i] = nxt[rng.choice([j for j in range(n) if j != i])]
        with pytest.raises(InternalInvariantError, match="is not a permutation"):
            trace(letters, nxt)
    assert time.perf_counter() - t0 < 10


# ---------------------------------------------------------------------------
# the bounded inverse table behind _reflect


def _reference_reflect(letters):
    return tuple(let.inverse() for let in reversed(letters))


def test_reflect_matches_the_letterwise_inverse(monkeypatch):
    monkeypatch.setattr(words_module, "_INVERSES", {})
    rng = random.Random(22)
    names = [f"s{k}" for k in range(30)]
    for k in range(500):
        # known names, and every tenth tuple some the table has never seen
        pool = names + [f"u{k}_{t}" for t in range(3)] if k % 10 == 0 else names
        letters = tuple(
            Letter(rng.choice(pool), rng.choice((1, -1))) for _ in range(rng.randint(0, 40))
        )
        for _ in range(2):  # building the inverses, then reading them
            got = words_module._reflect(letters)
            assert got == _reference_reflect(letters), letters
            assert all(type(let) is Letter for let in got)


def test_inverse_table_never_outgrows_its_cap(monkeypatch):
    table = {}
    monkeypatch.setattr(words_module, "_INVERSES", table)
    cap = words_module._INVERSES_CAP
    sent = fresh = largest = 0
    while fresh < 10 * cap:
        # short words, and every 50th one with more letters than fit
        size = 3 * cap if sent % 50 == 0 else 97
        letters = tuple(Letter(f"x{fresh + t}", 1 - 2 * (t % 2)) for t in range(size))
        sent += 1
        fresh += size
        assert words_module._reflect(letters) == _reference_reflect(letters)
        largest = max(largest, len(table))
        assert len(table) <= cap
    assert largest > cap // 2


def test_reflections_unchanged_by_the_inverse_table(monkeypatch):
    # each result once with the table and once with a cap of 0, under
    # which every inverse is built afresh
    def outcomes():
        hexagons = [w for w in enumerate_words("abc") if len(w) == 6]
        reflected = [w.reflected().letters for w in hexagons]
        pasted = [
            paste(parse_word(a), parse_word(b), "c").letters
            for a, b in (("a b c", "c d e"), ("a a c", "c b b"), ("c a b'", "d c'"), ("a c", "b c"))
        ]
        orbits = [
            orbit_oracle(parse_word(text), max_symbols=2, budget=100_000)
            for text in ("a a b b", "a b a' b'", "a b a b'", "a a'")
        ]
        return reflected, pasted, orbits

    table = {}
    monkeypatch.setattr(words_module, "_INVERSES", table)
    outcomes()
    assert table
    with_table = outcomes()  # every inverse read from the table
    monkeypatch.setattr(words_module, "_INVERSES_CAP", 0)
    table.clear()
    without = outcomes()
    assert not table
    assert with_table == without
    assert with_table[0] == [_reference_reflect(w.letters) for w in enumerate_words("abc") if len(w) == 6]


def test_euler_characteristic():
    assert euler_characteristic(parse_word("a a'")) == 2
    assert euler_characteristic(parse_word("a b a' b'")) == 0
    assert euler_characteristic(parse_word("a a")) == 1


def test_orientability():
    assert is_orientable(parse_word("a b a' b'"))
    assert not is_orientable(parse_word("a a b b"))
    assert not is_orientable(parse_word("a b a b"))


def test_orientability_sees_a_repeated_letter():
    # letters 0 and 2 are a same-exponent pair, although each of them has an
    # opposite-exponent partner at letter 1
    assert not is_orientable(Word((Letter("a", 1), Letter("a", -1), Letter("a", 1))))


CLASSIFY_GOLDENS = [
    ("a a'", SurfaceType.sphere()),
    ("a b b' a'", SurfaceType.sphere()),
    ("a b a' b'", SurfaceType.orientable_genus(1)),
    ("a a", SurfaceType.non_orientable(1)),
    ("a b a b", SurfaceType.non_orientable(1)),
    ("a a b b", SurfaceType.non_orientable(2)),
    ("a b a b'", SurfaceType.non_orientable(2)),
    ("a b c a' b' c'", SurfaceType.orientable_genus(1)),
    ("a1 b1 a1' b1' a2 b2 a2' b2'", SurfaceType.orientable_genus(2)),
]


@pytest.mark.parametrize("text,expected", CLASSIFY_GOLDENS)
def test_classify_by_invariants(text, expected):
    assert classify_by_invariants(parse_word(text)) == expected


@given(words())
def test_classify_always_consistent(w):
    t = classify_by_invariants(w)
    assert t.euler == euler_characteristic(w)
    assert t.orientable == is_orientable(w)


# ---------------------------------------------------------------------------
# types and canonical words


def test_type_construction_guards():
    with pytest.raises(ValidationError):
        SurfaceType.orientable_genus(-1)
    with pytest.raises(ValidationError):
        SurfaceType.non_orientable(0)


def test_describe_strings():
    assert SurfaceType.orientable_genus(1).describe() == "orientable genus 1 (torus), χ=0"
    assert (
        SurfaceType.non_orientable(2).describe()
        == "non-orientable, 2 cross-caps (Klein bottle), χ=0"
    )
    assert (
        SurfaceType.non_orientable(1).describe()
        == "non-orientable, 1 cross-cap (projective plane), χ=1"
    )
    assert SurfaceType.sphere().describe() == "sphere, χ=2"


def test_canonical_words():
    assert canonical_word(SurfaceType.sphere()).render() == "a1 a1'"
    assert canonical_word(SurfaceType.non_orientable(2)).render() == "a1 a1 a2 a2"
    assert canonical_word(SurfaceType.orientable_genus(2)).render() == (
        "a1 b1 a1' b1' a2 b2 a2' b2'"
    )
    for t in (
        SurfaceType.sphere(),
        SurfaceType.orientable_genus(3),
        SurfaceType.non_orientable(5),
    ):
        assert classify_by_invariants(canonical_word(t)) == t


# ---------------------------------------------------------------------------
# polygon sets


def test_parse_polygon_file():
    polys = parse_polygon_file("# two triangles\na b c\n\na' b' c'\n")
    assert len(polys.polygons) == 2


def test_parse_polygon_file_reports_line():
    with pytest.raises(WordSyntaxError, match="line 2"):
        parse_polygon_file("a b c\na ?\n")


def test_parse_polygon_file_error_names_position_once():
    with pytest.raises(WordSyntaxError) as exc:
        parse_polygon_file("a b c\n# comment\na b' c!\n")
    assert str(exc.value) == "line 3: syntax error at position 7: unexpected character '!'"
    assert exc.value.position == 7


def test_polygon_set_validation():
    with pytest.raises(ValidationError, match="symbol c occurs once"):
        glue_polygons(parse_polygon_file("a b c\na' b'\n"))


def test_complex_euler_and_orientability():
    pillow = parse_polygon_file("a b c\na' c' b'\n")
    assert complex_euler(pillow) == 2
    assert complex_is_orientable(pillow)
    torus_pair = parse_polygon_file("a b c\na' b' c'\n")
    assert complex_euler(torus_pair) == 0
    assert complex_is_orientable(torus_pair)
    # two bigons read the same way around glue to a sphere
    assert complex_is_orientable(parse_polygon_file("a b\na b\n"))
    # flipping one edge makes the projective plane
    cross = parse_polygon_file("a b\na b'\n")
    assert not complex_is_orientable(cross)
    assert complex_euler(cross) == 1


@pytest.mark.parametrize(
    "text,message",
    [
        ("a b\nc", "symbol a occurs once; symbol b occurs once; symbol c occurs once"),
        ("a a a\nb b", "symbol a occurs 3 times"),
    ],
)
def test_complex_invariants_reject_unpaired(text, message):
    polys = parse_polygon_file(text)
    for fn in (complex_euler, complex_is_orientable, glue_polygons, validate_polygon_set):
        with pytest.raises(ValidationError) as exc:
            fn(polys)
        assert str(exc.value) == message


def test_entry_points_check_pairing_once(monkeypatch):
    # every module binding of validate and validate_polygon_set is wrapped,
    # so a call through any import is counted
    calls = []

    def wrap(fn):
        def wrapped(arg):
            calls.append(fn.__name__)
            return fn(arg)
        return wrapped

    for fn in (validate, validate_polygon_set):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("surfclass") and \
                    getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrap(fn))
    word = parse_word("a b a' b' c c")
    result = normalize(word)
    assert classify_by_invariants(word) == result.type
    assert complex_euler(parse_polygon_file("a b c\na' b' c'\n")) == 0
    assert calls == []
    # the wrappers are live: replay checks every intermediate word
    replay(result.trace)
    assert calls and set(calls) == {"validate"}


_HOSTILE_TEXT = st.text(alphabet="abcx1_'^-# \n\t$?", max_size=40) | st.text(max_size=20)


@given(_HOSTILE_TEXT)
@settings(max_examples=400)
def test_word_and_polygon_parsers_raise_only_surfclass_errors(text):
    try:
        parse_word(text)
    except SurfclassError:
        pass
    try:
        polys = parse_polygon_file(text)
    except SurfclassError:
        return
    for fn in (glue_polygons, complex_euler, complex_is_orientable):
        try:
            fn(polys)
        except SurfclassError:
            pass


_TRACE_ARGS = ["0", "1", "2", "3", "7", "-1", "x", "a", "b", "c", "1x", "$", "10" * 12]
_TRACE_LINE = st.one_of(
    st.builds(
        " ".join,
        st.tuples(
            st.sampled_from(
                ["rotate", "reflect", "rename", "flipedge", "cancel", "insert", "cutpaste", "wobble"]
            ),
            st.lists(st.sampled_from(_TRACE_ARGS), max_size=5).map(" ".join),
        ),
    ),
    st.text(max_size=12),
)


@given(
    st.sampled_from(["a b a' b'", "a a b b", "a a'", "a b c a' c' b'", "a b a"]),
    st.lists(_TRACE_LINE, max_size=8),
)
@settings(max_examples=400)
def test_trace_parser_and_replay_raise_only_surfclass_errors(word_text, lines):
    try:
        replay(parse_trace("\n".join(lines), parse_word(word_text)))
    except SurfclassError:
        pass


def test_glue_pillow_is_sphere():
    merged = glue_polygons(parse_polygon_file("a b c\na' c' b'\n"))
    assert classify_by_invariants(merged) == SurfaceType.sphere()


def test_glue_two_bigon_halves():
    merged = glue_polygons(parse_polygon_file("a b\na' b'\n"))
    assert classify_by_invariants(merged) == SurfaceType.sphere()


def test_glue_same_orientation_triangles_is_torus():
    # both triangles read the same way around: the complex has chi 0, and
    # the merged word is a torus, not a sphere
    merged = glue_polygons(parse_polygon_file("a b c\na' b' c'\n"))
    assert classify_by_invariants(merged) == SurfaceType.orientable_genus(1)
    assert euler_characteristic(merged) == 0


def test_glue_preserves_complex_euler():
    for text in ("a b c\na' c' b'\n", "a b c\na' b' c'\n", "a b\na' b'\n"):
        polys = parse_polygon_file(text)
        merged = glue_polygons(polys)
        assert euler_characteristic(merged) == complex_euler(polys)


def test_glue_single_polygon_passthrough():
    w = parse_word("a b a' b'")
    assert glue_polygons(PolygonSet((w,))) == w


def test_glue_disconnected_rejected():
    with pytest.raises(ValidationError, match="disconnected"):
        glue_polygons(parse_polygon_file("a a'\nb b'\n"))


def test_glue_deterministic():
    text = "a b c\nc' d e\ne' a' f\nf d' b'\n"
    first = glue_polygons(parse_polygon_file(text))
    for _ in range(3):
        assert glue_polygons(parse_polygon_file(text)) == first


@pytest.mark.parametrize(
    "text,word", [("a\na'\n", "a a'"), ("a\na' b\nb'\n", "b b'"), ("a\na\n", "a a'")]
)
def test_glue_tree_of_polygons_is_a_sphere(text, word):
    # the merges use up every side, so the sphere word of the last merged
    # symbol stands for the empty result
    merged = glue_polygons(parse_polygon_file(text))
    assert merged.letters == parse_word(word).letters
    assert classify_by_invariants(merged) == SurfaceType.sphere()


def _reference_glue(polys):
    """The rescan loop that gluing in Kruskal order replaced: each merge
    rebuilds the symbol -> polygon map, splices the two lowest-indexed
    polygons sharing the least cross-polygon symbol, and puts the merged
    polygon first."""
    validate_polygon_set(polys)
    current = [p.letters for p in polys.polygons]
    while len(current) > 1:
        shared = {}
        for idx, letters in enumerate(current):
            for let in letters:
                shared.setdefault(let.symbol, []).append(idx)
        candidates = sorted(sym for sym, where in shared.items() if where[0] != where[-1])
        if not candidates:
            raise ValidationError("polygon set is disconnected")
        sym = candidates[0]
        a, b = shared[sym][0], shared[sym][-1]
        merged = words_module._join_on_symbol(current[a], current[b], sym)
        current = [w for k, w in enumerate(current) if k not in (a, b)]
        current.insert(0, merged)
    return Word(current[0])


def _reference_is_orientable(polys):
    """The sign propagation that the two-colouring union-find replaced: a
    search over the polygons' adjacency lists, where each cross pair asks
    sign[p] * sign[q] == -e * f."""
    validate_polygon_set(polys)
    occ = {}
    for p, poly in enumerate(polys.polygons):
        for let in poly.letters:
            occ.setdefault(let.symbol, []).append((p, let.exponent))
    npoly = len(polys.polygons)
    sign = [0] * npoly
    adj = [[] for _ in range(npoly)]
    for (p1, e1), (p2, e2) in occ.values():
        if p1 == p2:
            if e1 == e2:
                return False
            continue
        adj[p1].append((p2, -e1 * e2))
        adj[p2].append((p1, -e1 * e2))
    for start in range(npoly):
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            p = stack.pop()
            for q, rel in adj[p]:
                want = sign[p] * rel
                if sign[q] == 0:
                    sign[q] = want
                    stack.append(q)
                elif sign[q] != want:
                    return False
    return True


_COMPLEX_NAMES = [c + t for t in ("", "1", "2", "10") for c in "abcdefghijklmnopqrstuvwxyz"]


def _random_complex(rng):
    """1-30 polygons of 1-6 sides, paired at random under shuffled names
    with random exponents.  The largest size is drawn first, so that sets
    of monogons and bigons, where trees of polygons live, are common."""
    top = rng.randint(1, 6)
    sizes = [rng.randint(1, top) for _ in range(rng.randint(1, 30))]
    if sum(sizes) % 2:
        k = rng.randrange(len(sizes))
        sizes[k] += 1 if sizes[k] == 1 else -1
    sides = [rng.choice((1, -1)) for _ in range(sum(sizes))]
    slots = list(range(len(sides)))
    rng.shuffle(slots)
    symbol = [None] * len(sides)
    for name, k in zip(rng.sample(_COMPLEX_NAMES, len(slots) // 2), range(0, len(slots), 2)):
        symbol[slots[k]] = symbol[slots[k + 1]] = name
    letters = [Letter(s, e) for s, e in zip(symbol, sides)]
    starts = list(itertools.accumulate(sizes, initial=0))
    return PolygonSet(tuple(Word(tuple(letters[a:b])) for a, b in zip(starts, starts[1:])))


def _glue_outcome(glue, polys):
    try:
        return glue(polys).letters
    except ValidationError as exc:
        return str(exc)


def test_glue_and_orientability_match_the_rescan_references():
    rng = random.Random(28)
    seen = {"glued": 0, "disconnected": 0, "sphere tree": 0, "monogon": 0, "internal pair": 0}
    for _ in range(2000):
        polys = _random_complex(rng)
        want = _glue_outcome(_reference_glue, polys)
        if want == "a word must have at least one letter":
            # a tree of polygons: every symbol was merged, the greatest last
            seen["sphere tree"] += 1
            last = max(let.symbol for poly in polys.polygons for let in poly.letters)
            want = (Letter(last, 1), Letter(last, -1))
        seen["glued"] += type(want) is tuple
        seen["disconnected"] += want == "polygon set is disconnected"
        seen["monogon"] += any(len(poly.letters) == 1 for poly in polys.polygons)
        seen["internal pair"] += any(
            len({let.symbol for let in poly.letters}) < len(poly.letters) for poly in polys.polygons
        )
        assert _glue_outcome(glue_polygons, polys) == want, polys
        assert complex_is_orientable(polys) == _reference_is_orientable(polys), polys
    assert min(seen.values()) >= 20, seen
