import time
from itertools import islice
from string import ascii_lowercase

from hypothesis import given, settings

from conftest import words
from surfclass.normalize import normalize
from surfclass.sums import connected_sum_type, connected_sum_words
from surfclass.words import Letter, SurfaceType, Word, _names, parse_word, validate

W = parse_word
S = SurfaceType.sphere
O = SurfaceType.orientable_genus
N = SurfaceType.non_orientable


def test_sum_words_renames_collisions():
    out = connected_sum_words(W("a a"), W("a a"))
    assert out == W("a a b b")


def test_sum_words_collision_heavy_names():
    # every symbol of the second word clashes; fresh names skip the first
    # word's, the second word's own and those already minted, in order of
    # first occurrence
    out = connected_sum_words(W("a b c a' b' c'"), W("c b a d e e' d' a' b c"))
    assert out.render() == "a b c a' b' c' f g h d e e' d' h' g f"
    full = " ".join(ascii_lowercase)
    out = connected_sum_words(W(f"{full} {full}"), W("a1 z a a1 z a"))
    assert out.render() == f"{full} {full} a1 b1 c1 a1 b1 c1"


def test_sum_words_mints_clashing_names_in_linear_time():
    # a self-sum of k symbols renames all k; minting each name by a scan
    # from a took 2.8 s at k = 4,000, one pass over the names takes 0.02 s
    # (2-vCPU VM)
    k = 4000
    names = list(islice(_names(), 2 * k))
    w = Word(tuple(Letter(s, e) for s in names[:k] for e in (1, -1)))
    t0 = time.perf_counter()
    out = connected_sum_words(w, w)
    elapsed = time.perf_counter() - t0
    assert out.letters[2 * k:] == tuple(Letter(s, e) for s in names[k:] for e in (1, -1))
    assert elapsed < 0.25


def test_sum_words_keeps_disjoint_names():
    out = connected_sum_words(W("a a'"), W("b b"))
    assert out == W("a a' b b")


def test_sum_words_is_valid():
    out = connected_sum_words(W("a b a' b'"), W("a b a b"))
    validate(out)
    assert len(out) == 8


def test_sum_type_identity():
    for t in (S(), O(2), N(3)):
        assert connected_sum_type(S(), t) == t
        assert connected_sum_type(t, S()) == t


def test_sum_type_additive():
    assert connected_sum_type(O(1), O(2)) == O(3)
    assert connected_sum_type(N(2), N(3)) == N(5)


def test_sum_type_handle_converts():
    # against a cross-cap every handle is worth two cross-caps
    assert connected_sum_type(O(1), N(1)) == N(3)
    assert connected_sum_type(N(2), O(2)) == N(6)


def test_klein_bottle_two_ways():
    # RP2 # RP2 is the Klein bottle whichever representative is used
    assert normalize(connected_sum_words(W("a a"), W("b b"))).type == N(2)
    assert normalize(W("a b a b'")).type == N(2)


def test_decompose_matches_sum_type():
    # a type is the sum of its genus many primes: tori when orientable,
    # projective planes otherwise, and the sphere is the empty sum
    for t in (S(), O(1), O(4), N(1), N(5)):
        prime = O(1) if t.orientable else N(1)
        total = S()
        for _ in range(t.genus):
            total = connected_sum_type(total, prime)
        assert total == t


@given(words(max_pairs=4), words(max_pairs=4))
@settings(max_examples=120)
def test_sum_homomorphism(w1, w2):
    t1 = normalize(w1).type
    t2 = normalize(w2).type
    assert normalize(connected_sum_words(w1, w2)).type == connected_sum_type(t1, t2)
