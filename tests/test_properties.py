"""Property tests: invariances of the bracket that the mathematics guarantees,
and JSON round trips of the exact types."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tlbraid import (
    BraidWord,
    LaurentPoly,
    PlanarPairing,
    bracket_via_tl,
    enumerate_pairings,
    normalized_bracket,
)

# Small words keep the whole module within a few seconds; derandomized so
# every run checks the same examples.
small = settings(max_examples=40, deadline=None, derandomize=True, database=None)

MAX_STRANDS = 5
MAX_LETTERS = 20


@st.composite
def braid_words(draw, min_strands=1):
    n = draw(st.integers(min_strands, MAX_STRANDS))
    if n == 1:
        return BraidWord(1, ())
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=MAX_LETTERS))))


def _splice(word: BraidWord, pos: int, inserted: tuple) -> BraidWord:
    letters = word.letters
    pos %= len(letters) + 1
    return BraidWord(word.strands, letters[:pos] + inserted + letters[pos:])


@small
@given(braid_words(min_strands=2), st.data())
def test_conjugation_invariance(word, data):
    i = data.draw(st.integers(1, word.strands - 1))
    s = data.draw(st.sampled_from((1, -1)))
    conjugated = BraidWord(word.strands, (s * i,) + word.letters + (-s * i,))
    assert normalized_bracket(conjugated) == normalized_bracket(word)


@small
@given(braid_words(), st.sampled_from((1, -1)))
def test_stabilization_invariance(word, s):
    n = word.strands
    stabilized = BraidWord(n + 1, word.letters + (s * n,))
    assert normalized_bracket(stabilized) == normalized_bracket(word)


@small
@given(braid_words(min_strands=2), st.data())
def test_cancelling_pair_insertion(word, data):
    i = data.draw(st.integers(1, word.strands - 1))
    s = data.draw(st.sampled_from((1, -1)))
    pos = data.draw(st.integers(0, MAX_LETTERS))
    assert bracket_via_tl(_splice(word, pos, (s * i, -s * i))) == bracket_via_tl(word)


@small
@given(braid_words(min_strands=3), st.data())
def test_braid_relation(word, data):
    i = data.draw(st.integers(1, word.strands - 2))
    pos = data.draw(st.integers(0, MAX_LETTERS))
    lhs = _splice(word, pos, (i, i + 1, i))
    rhs = _splice(word, pos, (i + 1, i, i + 1))
    assert bracket_via_tl(lhs) == bracket_via_tl(rhs)


@small
@given(braid_words())
def test_mirror_inverts_variable(word):
    mirror = BraidWord(word.strands, tuple(-x for x in word.letters))
    assert bracket_via_tl(mirror) == bracket_via_tl(word).invert_variable()


def _through_json(value):
    return json.loads(json.dumps(value.to_json()))


@small
@given(st.dictionaries(st.integers(-60, 60), st.integers(-(2**80), 2**80)))
def test_laurent_poly_json_round_trip(terms):
    poly = LaurentPoly(terms)
    assert LaurentPoly.from_json(_through_json(poly)) == poly


@small
@given(braid_words())
def test_braid_word_json_round_trip(word):
    assert BraidWord.from_json(_through_json(word)) == word


@small
@given(st.integers(1, 5).flatmap(lambda n: st.sampled_from(enumerate_pairings(n))))
def test_planar_pairing_json_round_trip(pairing):
    assert PlanarPairing.from_json(_through_json(pairing)) == pairing
