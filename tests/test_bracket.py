"""Bracket and Jones polynomials: axioms, frozen values, dual-path checks."""

import functools
import itertools
import random

import pytest

import tlbraid.bracket as bracket_module
from tlbraid import (
    BraidWord,
    LaurentPoly,
    PlanarPairing,
    StateSumCapError,
    bracket_state_sum,
    bracket_via_tl,
    chirality_certificate,
    delta,
    format_jones,
    jones_polynomial,
    normalized_bracket,
)

TREFOIL = BraidWord(2, (1, 1, 1))
FIGURE_EIGHT = BraidWord(3, (1, -2, 1, -2))


def test_unknot_axiom():
    assert bracket_state_sum(BraidWord(1, ())) == LaurentPoly.one()
    assert bracket_via_tl(BraidWord(1, ())) == LaurentPoly.one()


def test_disjoint_circles():
    for n in range(1, 9):
        expected = delta() ** (n - 1)
        assert bracket_state_sum(BraidWord(n, ())) == expected
        assert bracket_via_tl(BraidWord(n, ())) == expected


def test_curl_values():
    assert bracket_state_sum(BraidWord(2, (1,))) == LaurentPoly({3: -1})
    assert bracket_state_sum(BraidWord(2, (-1,))) == LaurentPoly({-3: -1})
    # the normalization makes both curls trivial
    assert normalized_bracket(BraidWord(2, (1,))) == LaurentPoly.one()
    assert normalized_bracket(BraidWord(2, (-1,))) == LaurentPoly.one()


def test_stabilization_adds_curl_factor():
    # the only words on one strand are empty; stabilizing appends a letter
    # on a fresh strand and multiplies the bracket by -A^3
    base = BraidWord(1, ())
    stabilized = BraidWord(2, (1,))
    assert bracket_via_tl(stabilized) == LaurentPoly({3: -1}) * bracket_via_tl(base)
    assert normalized_bracket(stabilized) == normalized_bracket(base)


def test_hopf_link_frozen():
    hopf = BraidWord(2, (1, 1))
    expected = LaurentPoly({4: -1, -4: -1})
    assert bracket_state_sum(hopf) == expected
    assert bracket_via_tl(hopf) == expected
    assert format_jones(jones_polynomial(hopf)) == "-1*t^1/2 + -1*t^5/2"


def test_trefoil_frozen():
    expected = LaurentPoly({5: -1, -3: -1, -7: 1})
    assert bracket_state_sum(TREFOIL) == expected
    assert bracket_via_tl(TREFOIL) == expected
    assert normalized_bracket(TREFOIL) == LaurentPoly({-4: 1, -12: 1, -16: -1})
    assert jones_polynomial(TREFOIL) == LaurentPoly({4: 1, 12: 1, 16: -1})
    assert format_jones(jones_polynomial(TREFOIL)) == "1*t^1 + 1*t^3 + -1*t^4"


def test_dual_paths_agree_exhaustively_short_words():
    # every word of length <= 4 on 2 strands and length <= 3 on 3 strands
    for length in range(5):
        for letters in itertools.product((1, -1), repeat=length):
            w = BraidWord(2, letters)
            assert bracket_state_sum(w) == bracket_via_tl(w)
    for length in range(4):
        for letters in itertools.product((1, -1, 2, -2), repeat=length):
            w = BraidWord(3, letters)
            assert bracket_state_sum(w) == bracket_via_tl(w)


def test_dual_paths_agree_random():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(2, 5)
        k = rng.randrange(9)
        w = BraidWord(
            n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(k))
        )
        assert bracket_state_sum(w) == bracket_via_tl(w)


def test_mirror_inverts_variable():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 4)
        k = rng.randrange(8)
        w = BraidWord(
            n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(k))
        )
        assert bracket_via_tl(w.inverse()) == bracket_via_tl(w).invert_variable()
        assert (
            normalized_bracket(w.inverse())
            == normalized_bracket(w).invert_variable()
        )


def test_jones_of_unknot_presentations():
    for w in (BraidWord(1, ()), BraidWord(2, (1,)), BraidWord(2, (-1,)),
              BraidWord(3, (1, 2)), BraidWord(3, (-1, 2))):
        if w.component_count() == 1:
            assert jones_polynomial(w) == LaurentPoly.one()


def test_trefoil_chirality_certificate():
    cert = chirality_certificate(TREFOIL)
    assert cert.distinct
    assert cert.f == LaurentPoly({-4: 1, -12: 1, -16: -1})
    assert cert.f_mirror == LaurentPoly({4: 1, 12: 1, 16: -1})
    assert cert.f_mirror == normalized_bracket(TREFOIL.inverse())


def test_chirality_certificate_refuses_a_mismatched_mirror(monkeypatch):
    # a bracket that ignores the word: the inverse word's then is not the mirror
    monkeypatch.setattr(bracket_module, "normalized_bracket", lambda word: LaurentPoly({-4: 1}))
    with pytest.raises(AssertionError, match="mirror invariant mismatch"):
        chirality_certificate(TREFOIL)


def test_figure_eight_is_its_own_mirror():
    cert = chirality_certificate(FIGURE_EIGHT)
    assert not cert.distinct
    assert cert.f == cert.f_mirror
    # V(q) = q^-8 - q^-4 + 1 - q^4 + q^8, i.e. t^-2 - t^-1 + 1 - t + t^2
    assert jones_polynomial(FIGURE_EIGHT) == LaurentPoly(
        {-8: 1, -4: -1, 0: 1, 4: -1, 8: 1}
    )


def test_oracle_cap_points_at_tl_path():
    w = BraidWord(2, (1,) * 25)
    with pytest.raises(StateSumCapError) as err:
        bracket_state_sum(w)
    assert "bracket_via_tl" in str(err.value)
    # the algebra path has no such cap
    assert bracket_via_tl(w) == bracket_via_tl(w)


# ------------------------------------------------- independent oracle checks

def _reference_state_sum(word: BraidWord) -> LaurentPoly:
    """Reference oracle, one state at a time: for each of the 2^N
    smoothings, wire the 4N crossing ports and walk every loop in Python."""
    n, letters = word.strands, word.letters
    num = len(letters)
    if num == 0:
        return delta() ** (n - 1)
    touched = [[] for _ in range(n)]
    for c, ell in enumerate(letters):
        a = abs(ell) - 1
        touched[a].append((c, 0))
        touched[a + 1].append((c, 1))
    free_loops = sum(1 for events in touched if not events)
    static = [0] * (4 * num)
    for events in touched:
        if not events:
            continue
        for (c1, s1), (c2, s2) in zip(events, events[1:] + events[:1]):
            static[4 * c1 + 2 + s1] = 4 * c2 + s2
            static[4 * c2 + s2] = 4 * c1 + 2 + s1

    signs = [1 if ell > 0 else -1 for ell in letters]
    counts = {}
    match = [0] * (4 * num)
    for state in range(1 << num):
        exponent = 0
        for c in range(num):
            base = 4 * c
            if (state >> c) & 1:  # cup-cap smoothing
                match[base] = base + 1
                match[base + 1] = base
                match[base + 2] = base + 3
                match[base + 3] = base + 2
                exponent -= signs[c]
            else:  # strand-preserving smoothing
                match[base] = base + 2
                match[base + 2] = base
                match[base + 1] = base + 3
                match[base + 3] = base + 1
                exponent += signs[c]
        loops = free_loops
        seen = [False] * (4 * num)
        for start in range(4 * num):
            if seen[start]:
                continue
            loops += 1
            x = start
            while not seen[x]:
                seen[x] = True
                y = match[x]
                seen[y] = True
                x = static[y]
        key = (exponent, loops)
        counts[key] = counts.get(key, 0) + 1

    total = LaurentPoly.zero()
    for (exponent, loops), count in counts.items():
        total = total + LaurentPoly.monomial(count, exponent) * _delta_power(loops - 1)
    return total


@functools.lru_cache(maxsize=None)
def _delta_power(k: int) -> LaurentPoly:
    return delta() ** k


def _random_words(seed, count, max_strands, max_letters):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(2, max_strands)
        k = rng.randint(0, max_letters)
        words.append(
            BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                               for _ in range(k)))
        )
    return words


def test_oracle_matches_reference_walk_exhaustively():
    # every word on 2 strands with <= 10 letters, on 3 strands with <= 5
    for strands, letters, max_len in ((2, (1, -1), 10), (3, (1, -1, 2, -2), 5)):
        for length in range(max_len + 1):
            for word in itertools.product(letters, repeat=length):
                w = BraidWord(strands, word)
                assert bracket_state_sum(w) == _reference_state_sum(w), w


def test_oracle_matches_reference_walk_random():
    for w in _random_words(515, 60, max_strands=7, max_letters=14):
        assert bracket_state_sum(w) == _reference_state_sum(w), w


def _finishes_two_positions_early(word: BraidWord) -> bool:
    """Whether a crossing before the last is the last on both its strand
    positions."""
    last = {}
    for c, ell in enumerate(word.letters):
        last[abs(ell) - 1] = last[abs(ell)] = c
    return any(last[abs(ell) - 1] == last[abs(ell)] == c
               for c, ell in enumerate(word.letters[:-1]))


def _has_untouched_middle_position(word: BraidWord) -> bool:
    touched = {p for ell in word.letters for p in (abs(ell) - 1, abs(ell))}
    return len(touched) < max(touched, default=-1) - min(touched, default=0) + 1


def test_oracle_matches_reference_walk_on_generator_subsets():
    # words over a few generators leave strand positions between touched
    # ones untouched, and let a crossing before the last finish both of its
    # positions at once
    rng = random.Random(909)
    words = []
    for _ in range(80):
        n = rng.randint(2, 9)
        gens = rng.sample(range(1, n), rng.randint(1, n - 1))
        k = rng.randint(0, 12)
        words.append(BraidWord(n, tuple(rng.choice((1, -1)) * rng.choice(gens)
                                        for _ in range(k))))
    assert sum(map(_has_untouched_middle_position, words)) >= 10
    assert sum(map(_finishes_two_positions_early, words)) >= 10
    for w in words:
        assert bracket_state_sum(w) == _reference_state_sum(w), w


@pytest.mark.parametrize("sign", [1, -1])
def test_oracle_at_its_widest_labels_and_keys(sign):
    # 24 curls on disjoint pairs of 48 strands: all 48 positions are touched,
    # so fresh labels reach 48 + 23 = 71 and keys 48 * 73 + 72. The closure
    # is 24 split curled unknots, (-A^(3 sign))^24 delta^23.
    w = BraidWord(48, tuple(sign * k for k in range(1, 48, 2)))
    assert bracket_state_sum(w) == LaurentPoly.monomial(1, 72 * sign) * delta() ** 23


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_depth_first_blocks_give_identical_results(monkeypatch, rows):
    words = _random_words(77, 40, max_strands=6, max_letters=12)
    expected = [bracket_state_sum(w) for w in words]
    monkeypatch.setattr(bracket_module, "_STATE_SUM_BLOCK_ROWS", rows)
    assert [bracket_state_sum(w) for w in words] == expected


def test_oracle_needs_no_diagram_algebra(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the state sum reached the diagram algebra")

    monkeypatch.setattr(bracket_module, "trace_braid_word", forbidden)
    monkeypatch.setattr(PlanarPairing, "compose", forbidden)
    assert bracket_state_sum(FIGURE_EIGHT) == LaurentPoly(
        {-8: 1, -4: -1, 0: 1, 4: -1, 8: 1}
    )


def test_oracle_long_word_against_tl_route():
    # 2^20 states; the 25-letter cap is checked by test_oracle_cap_points_at_tl_path
    rng = random.Random(20)
    w = BraidWord(5, tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(20)))
    assert bracket_state_sum(w) == bracket_via_tl(w)


def test_oracle_at_its_letter_cap_against_tl_route():
    # 24 letters: 2^24 states on 48 arcs, so labels, component counts and
    # A-exponents (from -24 to 24) reach the widest values the oracle holds
    rng = random.Random(24)
    w = BraidWord(5, tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(24)))
    assert len(w.letters) == bracket_module.STATE_SUM_MAX_LETTERS
    assert bracket_state_sum(w) == bracket_via_tl(w)


@pytest.mark.parametrize("sign", [1, -1])
def test_oracle_single_sign_words_at_the_cap(sign):
    # every state of an all-positive or all-negative 24-letter word has 48
    # arcs, and the all-A or all-A^-1 state reaches exponent +-24, so the
    # oracle's per-state key reaches its largest value
    rng = random.Random(48 + sign)
    w = BraidWord(5, tuple(sign * rng.randint(1, 4) for _ in range(24)))
    assert bracket_state_sum(w) == bracket_via_tl(w)
