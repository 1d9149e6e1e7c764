"""Braid word parsing, writhe, inverses and closure permutations."""

import random

import pytest

from tlbraid import BraidWord, parse_braid
from tlbraid.braid import BRAID_MAX_STRANDS


def _random_word(rng, max_strands=5, max_len=10):
    n = rng.randint(2, max_strands)
    k = rng.randrange(max_len + 1)
    letters = tuple(
        rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(k)
    )
    return BraidWord(n, letters)


def test_parse_variants():
    assert parse_braid("1 -2 1", 3).letters == (1, -2, 1)
    assert parse_braid("1,-2,1", 3).letters == (1, -2, 1)
    assert parse_braid("  1, -2\t1 ", 3).letters == (1, -2, 1)
    assert parse_braid("", 4) == BraidWord(4, ())
    assert parse_braid("   ", 1).letters == ()


@pytest.mark.parametrize(
    "text,strands,fragment",
    [
        ("0", 2, "'0'"),
        ("3", 2, "'3'"),
        ("-9", 4, "'-9'"),
        ("x", 2, "'x'"),
        ("1 2 zz", 3, "'zz'"),
    ],
)
def test_parse_rejects_with_token_named(text, strands, fragment):
    with pytest.raises(ValueError) as err:
        parse_braid(text, strands)
    assert fragment in str(err.value)


def test_constructor_validation():
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    assert BraidWord(1, ()).strands == 1


def test_strand_cap():
    cap = BRAID_MAX_STRANDS
    assert BraidWord(cap, (cap - 1,)).strands == cap
    assert parse_braid("1", cap).strands == cap
    for strands in (cap + 1, 3000, 10**18):
        with pytest.raises(ValueError) as err:
            BraidWord(strands, ())
        assert str(cap) in str(err.value)
        with pytest.raises(ValueError):
            parse_braid("1", strands)


def test_writhe():
    assert BraidWord(3, (1, -2, 1)).writhe() == 1
    assert BraidWord(2, (1, 1, 1)).writhe() == 3
    assert BraidWord(2, ()).writhe() == 0


def test_inverse_word():
    b = BraidWord(3, (1, -2, 1))
    assert b.inverse().letters == (-1, 2, -1)
    assert b.inverse().inverse() == b
    rng = random.Random(5)
    for _ in range(50):
        w = _random_word(rng)
        assert w.writhe() == -w.inverse().writhe()


def test_closure_permutation_examples():
    assert BraidWord(2, (1,)).closure_permutation() == (1, 0)
    assert BraidWord(2, (1, 1)).closure_permutation() == (0, 1)
    # strand at top 0 is pushed right by each letter in turn: 0 -> 1 -> 2
    assert BraidWord(3, (1, 2)).closure_permutation() == (2, 0, 1)
    assert BraidWord(4, ()).closure_permutation() == (0, 1, 2, 3)


def test_component_counts():
    assert BraidWord(2, (1,)).component_count() == 1  # unknot
    assert BraidWord(2, (1, 1)).component_count() == 2  # Hopf link
    assert BraidWord(2, (1, 1, 1)).component_count() == 1  # trefoil
    assert BraidWord(3, ()).component_count() == 3  # 3-component unlink


def test_word_times_inverse_closes_trivially():
    rng = random.Random(77)
    for _ in range(50):
        w = _random_word(rng)
        assert (w * w.inverse()).closure_permutation() == tuple(range(w.strands))
        assert 1 <= w.component_count() <= w.strands


def test_concatenation_requires_same_strands():
    with pytest.raises(ValueError):
        BraidWord(2, (1,)) * BraidWord(3, (1,))
    w = BraidWord(3, (1, -2, 1))
    assert len(w) == 3 and len(BraidWord(3)) == 0
    assert len(w * w) == 6
    with pytest.raises(TypeError):
        w * 3  # a word is concatenated with a word, never repeated by an int


def test_json_round_trip():
    b = BraidWord(3, (1, -2, 1))
    assert b.to_json() == {"strands": 3, "word": [1, -2, 1]}
    assert BraidWord.from_json(b.to_json()) == b
