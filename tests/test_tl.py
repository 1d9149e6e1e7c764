"""Diagrammatic Temperley-Lieb algebra: pairings, composition, traces."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlbraid.tl as tl_module
from tlbraid import (
    BraidWord,
    LaurentPoly,
    PlanarPairing,
    TLElement,
    bracket_via_tl,
    delta,
    enumerate_pairings,
    markov_trace,
    rep_braid_word,
)


def _random_element(rng, n, basis, max_terms=3, coeff_range=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.choice(basis)
        c = LaurentPoly(
            {rng.randint(-4, 4): rng.randint(-coeff_range, coeff_range) for _ in range(2)}
        )
        terms[d] = terms.get(d, LaurentPoly.zero()) + c
    return TLElement(n, terms)


def test_identity_and_generator_shapes():
    assert PlanarPairing.identity(2).partner == (2, 3, 0, 1)
    g = PlanarPairing.generator(3, 1)
    assert g.partner == (1, 0, 5, 4, 3, 2)  # {0-1, 3-4, 2-5}
    g2 = PlanarPairing.generator(3, 2)
    assert g2.partner == (3, 2, 1, 0, 5, 4)  # {1-2, 4-5, 0-3}


def test_generator_index_bounds():
    with pytest.raises(ValueError):
        PlanarPairing.generator(3, 0)
    with pytest.raises(ValueError):
        PlanarPairing.generator(3, 3)
    with pytest.raises(ValueError):
        PlanarPairing.generator(1, 1)


def test_rejects_crossing_and_non_involution():
    # top 0 to bottom right, top 1 to bottom left: the chords cross
    with pytest.raises(ValueError):
        PlanarPairing(2, (3, 2, 1, 0))
    with pytest.raises(ValueError):
        PlanarPairing(2, (0, 1, 2, 3))  # fixed points
    with pytest.raises(ValueError):
        PlanarPairing(2, (2, 3, 0))  # wrong length
    with pytest.raises(ValueError):
        PlanarPairing(2, (2, 3, 1, 0))  # not an involution


def _crosses_reference(n, partner):
    """Reference verdict: the pairwise O(n^2) chord-interleaving test."""
    chords = []
    for i, j in enumerate(partner):
        if i < j:
            a, b = tl_module._cyclic_position(i, n), tl_module._cyclic_position(j, n)
            chords.append((min(a, b), max(a, b)))
    for idx, (a, b) in enumerate(chords):
        for c, d in chords[idx + 1 :]:
            if (a < c < b < d) or (c < a < d < b):
                return True
    return False


def _involutions(points):
    """Every fixed-point-free involution of range(points), as partner lists."""
    if points == 0:
        yield []
        return
    for rest in _involutions(points - 2):
        # pair the new last point with each old point k; k's old partner
        # takes the new second-to-last point
        yield rest + [points - 1, points - 2]
        for k in range(points - 2):
            partner = rest + [rest[k], k]
            partner[rest[k]] = points - 2
            partner[k] = points - 1
            yield partner


def _accepted(n, partner):
    try:
        PlanarPairing(n, partner)
    except ValueError:
        return False
    return True


def test_chord_check_matches_reference_exhaustively():
    for n in range(1, 6):
        involutions = [tuple(p) for p in _involutions(2 * n)]
        assert len(set(involutions)) == math.prod(range(1, 2 * n, 2))  # 945 at n = 5
        accepted = 0
        for p in involutions:
            verdict = _accepted(n, p)
            assert verdict == (not _crosses_reference(n, p)), p
            accepted += verdict
        assert accepted == math.comb(2 * n, n) // (n + 1)


@st.composite
def _random_involutions(draw):
    """A random involution, or a random planar pairing with chords re-paired."""
    n = draw(st.integers(1, tl_module.ENUMERATION_MAX_N))
    if draw(st.booleans()):
        order = draw(st.permutations(range(2 * n)))
        pairs = list(zip(order[::2], order[1::2]))
    else:
        # a random bracket sequence along the boundary order is planar
        pairs, open_positions = [], []
        for pos in range(2 * n):
            closes_left = 2 * n - pos - len(open_positions)
            if open_positions and (closes_left == 0 or draw(st.booleans())):
                a = tl_module._cyclic_position(open_positions.pop(), n)
                pairs.append((a, tl_module._cyclic_position(pos, n)))
            else:
                open_positions.append(pos)
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, n - 1))
            m = draw(st.integers(0, n - 1))
            (a, b), (c, d) = pairs[k], pairs[m]
            if k != m:
                pairs[k], pairs[m] = (a, c), (b, d)
    partner = [0] * (2 * n)
    for a, b in pairs:
        partner[a], partner[b] = b, a
    return n, tuple(partner)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_random_involutions())
def test_chord_check_matches_reference_on_random_involutions(case):
    n, partner = case
    assert _accepted(n, partner) == (not _crosses_reference(n, partner))


def test_trusted_products_are_planar():
    """Fill every table entry up to 8 strands by BFS from the identity: the
    products compose builds without checks are exactly the planar diagrams,
    and each passes the public constructor unchanged."""
    for n in range(1, 9):
        table = tl_module._DiagramTable(n)
        frontier = [table.identity]
        reached = {table.identity}
        while frontier:
            d = frontier.pop()
            for i in range(1, n):
                target, loops = table.act[i - 1][d] or table.fill(i, d)
                assert loops in (0, 1)
                assert (loops == 1) == (target == d)  # the twist rule's premise
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        assert all(entry is not None for row in table.act for entry in row)
        assert len(table.diagrams) == len(reached)
        assert set(table.diagrams) == set(enumerate_pairings(n))
        for d in table.diagrams:
            assert PlanarPairing(n, d.partner) == d
        for i in range(1, n):
            u = PlanarPairing.generator(n, i)
            for d, (target, loops) in enumerate(table.act[i - 1]):
                product, product_loops = table.diagrams[d].compose(u)
                assert PlanarPairing(n, product.partner) == product
                assert (product, product_loops) == (table.diagrams[target], loops)


def test_compose_produces_loop():
    u = PlanarPairing.generator(2, 1)
    d, loops = u.compose(u)
    assert d == u and loops == 1


def test_jones_relation_via_composition():
    # U1 U2 U1 = U1 with no loops harvested along the way
    u1 = PlanarPairing.generator(3, 1)
    u2 = PlanarPairing.generator(3, 2)
    d12, loops12 = u1.compose(u2)
    assert loops12 == 0
    d121, loops121 = d12.compose(u1)
    assert loops121 == 0 and d121 == u1


def test_compose_identity_neutral():
    for n in (2, 3, 4):
        ident = PlanarPairing.identity(n)
        for d in enumerate_pairings(n):
            left, l1 = ident.compose(d)
            right, l2 = d.compose(ident)
            assert left == d and right == d and l1 == l2 == 0


def test_closure_loops():
    assert PlanarPairing.identity(2).closure_loops() == 2
    assert PlanarPairing.identity(5).closure_loops() == 5
    assert PlanarPairing.generator(2, 1).closure_loops() == 1
    assert PlanarPairing.generator(3, 1).closure_loops() == 2


def test_enumeration_matches_catalan():
    for n in range(1, 9):
        basis = enumerate_pairings(n)
        catalan = math.comb(2 * n, n) // (n + 1)
        assert len(basis) == catalan
        assert len(set(basis)) == catalan
        # built without checks, so each must pass the public constructor
        assert all(PlanarPairing(n, d.partner) == d for d in basis)
        assert [d.partner for d in basis] == sorted(d.partner for d in basis)
    with pytest.raises(ValueError):
        enumerate_pairings(13)


def test_element_relations_exact():
    for n in range(2, 7):
        gens = [TLElement.generator(n, i) for i in range(1, n)]
        d = delta()
        for g in gens:
            assert g * g == g.scale(d)
        for i in range(len(gens) - 1):
            assert gens[i] * gens[i + 1] * gens[i] == gens[i]
            assert gens[i + 1] * gens[i] * gens[i + 1] == gens[i + 1]
        for i in range(len(gens)):
            for j in range(i + 2, len(gens)):
                assert gens[i] * gens[j] == gens[j] * gens[i]


def test_twist_identity_in_general_algebra():
    # d * U_i traps a loop only when d has a cap at i, and then d * U_i is
    # delta * d, so each letter multiplies d by one monomial:
    # (A + A^-1 * delta) = -A^-3 and (A^-1 + A * delta) = -A^3.
    a, a_inv = LaurentPoly.monomial(1, 1), LaurentPoly.monomial(1, -1)
    for n in range(2, 7):
        ident = PlanarPairing.identity(n)
        for i in range(1, n):
            u = PlanarPairing.generator(n, i)
            positive = TLElement(n, {ident: a, u: a_inv})
            negative = TLElement(n, {ident: a_inv, u: a})
            for d in enumerate_pairings(n):
                product, loops = d.compose(u)
                if not loops:
                    assert product != d
                    continue
                assert product == d
                element = TLElement(n, {d: LaurentPoly.one()})
                assert element * positive == TLElement(n, {d: LaurentPoly({-3: -1})})
                assert element * negative == TLElement(n, {d: LaurentPoly({3: -1})})


def _norm(element):
    return sum(abs(c) for poly in element.terms.values() for c in poly.terms.values())


def _twist_rule_words():
    rng = random.Random(31)
    words = [BraidWord(2, (1,) * length) for length in (1, 2, 7, 20, 40)]
    # (1 -2)^k grows its coefficients by about 0.69 bits a letter, the
    # fastest family seen: past L/2 + 1 bits by 40 letters
    words.append(BraidWord(3, (1, -2) * 20))
    for n in range(2, 8):
        length = rng.randint(20, 40)
        sweep = tuple(i for _ in range(length // (n - 1) + 1) for i in range(1, n))
        words.append(BraidWord(n, sweep[:length]))
        words.append(_random_word(rng, n, rng.randint(20, 40), signs=(-1,)))
        words.append(_random_word(rng, n, rng.randint(20, 40)))
    return words


def test_twist_rule_states_stay_inside_the_norm_bound():
    # The slot width L + 2 rests on the state's L1 norm staying <= 2^L.
    widest = 0
    for word in _twist_rule_words():
        element = rep_braid_word(word)
        assert element == _general_fold(word)
        assert _norm(element) <= 2 ** len(word.letters)
        assert bracket_via_tl(word) == markov_trace(_general_fold(word))
        top = max(abs(c) for poly in element.terms.values() for c in poly.terms.values())
        widest = max(widest, top.bit_length() - len(word.letters) // 2)
    assert widest > 1  # some coefficient needs more than L/2 + 1 bits


def test_positive_times_negative_letter_is_identity():
    # (A*I + A^-1*U1) * (A^-1*I + A*U1) = I: the U1 coefficient
    # A^2 + A^-2 + delta vanishes
    n = 2
    pos = TLElement(
        n,
        {
            PlanarPairing.identity(n): LaurentPoly.monomial(1, 1),
            PlanarPairing.generator(n, 1): LaurentPoly.monomial(1, -1),
        },
    )
    neg = TLElement(
        n,
        {
            PlanarPairing.identity(n): LaurentPoly.monomial(1, -1),
            PlanarPairing.generator(n, 1): LaurentPoly.monomial(1, 1),
        },
    )
    assert pos * neg == TLElement.identity(n)


def test_rep_word_concatenation_is_multiplicative():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(2, 5)
        k1, k2 = rng.randrange(5), rng.randrange(5)
        w1 = BraidWord(
            n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(k1))
        )
        w2 = BraidWord(
            n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(k2))
        )
        assert rep_braid_word(w1 * w2) == rep_braid_word(w1) * rep_braid_word(w2)


def test_rep_satisfies_braid_relations():
    for n in range(3, 6):
        for i in range(1, n - 1):
            lhs = rep_braid_word(BraidWord(n, (i, i + 1, i)))
            rhs = rep_braid_word(BraidWord(n, (i + 1, i, i + 1)))
            assert lhs == rhs
    # distant commutation
    assert rep_braid_word(BraidWord(4, (1, 3))) == rep_braid_word(BraidWord(4, (3, 1)))


def test_rep_letter_inverse_cancels():
    for n in (2, 3, 4):
        for i in range(1, n):
            w = BraidWord(n, (i, -i))
            assert rep_braid_word(w) == TLElement.identity(n)


def test_rep_cubed_frozen():
    # (A*I + A^-1*U1)^3 = A^3*I + (A - A^-3 + A^-7)*U1, binomial with
    # U^2 = delta*U folded in
    got = rep_braid_word(BraidWord(2, (1, 1, 1)))
    expected = TLElement(
        2,
        {
            PlanarPairing.identity(2): LaurentPoly({3: 1}),
            PlanarPairing.generator(2, 1): LaurentPoly({1: 1, -3: -1, -7: 1}),
        },
    )
    assert got == expected


def test_markov_trace_values():
    assert markov_trace(TLElement.identity(2)) == delta()
    assert markov_trace(TLElement.generator(2, 1)) == LaurentPoly.one()
    assert markov_trace(TLElement.identity(4)) == delta() ** 3
    assert markov_trace(rep_braid_word(BraidWord(2, (1,)))) == LaurentPoly({3: -1})


def test_markov_trace_symmetric_exact():
    rng = random.Random(505)
    for n in (2, 3, 4):
        basis = enumerate_pairings(n)
        for _ in range(40):
            x = _random_element(rng, n, basis)
            y = _random_element(rng, n, basis)
            assert markov_trace(x * y) == markov_trace(y * x)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        TLElement(2, {PlanarPairing.identity(3): LaurentPoly.one()})
    a = TLElement.identity(2)
    b = TLElement.identity(3)
    with pytest.raises(TypeError):
        a * b  # NotImplemented surfaces as TypeError


def test_pairing_json_round_trip():
    for d in enumerate_pairings(3):
        assert PlanarPairing.from_json(d.to_json()) == d
    u = PlanarPairing.generator(3, 1)
    assert u.to_json() == {"n": 3, "partner": [1, 0, 5, 4, 3, 2]}


def test_element_json_is_canonically_ordered():
    e = rep_braid_word(BraidWord(2, (1,)))
    data = e.to_json()
    assert data["n"] == 2
    partners = [term[0]["partner"] for term in data["terms"]]
    assert partners == sorted(partners)


def _general_fold(word):
    """The braid word's image as an explicit left fold of TLElement products."""
    n = word.strands
    acc = TLElement.identity(n)
    for ell in word.letters:
        s = 1 if ell > 0 else -1
        acc = acc * TLElement(
            n,
            {
                PlanarPairing.identity(n): LaurentPoly.monomial(1, s),
                PlanarPairing.generator(n, abs(ell)): LaurentPoly.monomial(1, -s),
            },
        )
    return acc


def _random_word(rng, n, length, signs=(1, -1)):
    return BraidWord(
        n, tuple(rng.choice(signs) * rng.randint(1, n - 1) for _ in range(length))
    )


def test_fused_engine_matches_general_fold_past_oracle_cap():
    # Past the state-sum oracle's 24 letters, the general product is the
    # only other exact reference. The later words move the packed state in
    # one direction only, use 2 strands, have no letters, or have bracket
    # coefficients past 2^63.
    rng = random.Random(77)
    words = [_random_word(rng, n, rng.randint(25, 80)) for n in (3, 3, 4, 4, 5, 6)]
    words += [
        _random_word(rng, 4, 40, signs=(-1,)),
        _random_word(rng, 5, 40, signs=(1,)),
        _random_word(rng, 2, 60),
        BraidWord(3, ()),
    ]
    wide = _random_word(random.Random(1), 4, 400)
    for word in words + [wide]:
        folded = _general_fold(word)
        assert rep_braid_word(word) == folded
        assert bracket_via_tl(word) == markov_trace(folded)
    assert max(abs(c) for c in bracket_via_tl(wide).terms.values()) > 2**63


def test_repeat_word_makes_no_compositions(monkeypatch):
    monkeypatch.setattr(tl_module, "_TABLES", {})
    calls = []
    compose = PlanarPairing.compose

    def counting(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(PlanarPairing, "compose", counting)
    n = 5
    word = BraidWord(n, (1, 2, -3, 4, 2, 1, -4, 3, 3, 2, -1, 4) * 3)
    first = bracket_via_tl(word)
    catalan = math.comb(2 * n, n) // (n + 1)
    assert 0 < len(calls) <= catalan * (n - 1)
    calls.clear()
    assert bracket_via_tl(word) == first
    assert calls == []


def test_state_cap_raises(monkeypatch):
    monkeypatch.setattr(tl_module, "STATE_MAX_DIAGRAMS", 10)
    word = BraidWord(6, (1, 2, 3, 4, 5) * 2)
    with pytest.raises(ValueError, match="exceeds 10 diagrams"):
        bracket_via_tl(word)
    with pytest.raises(ValueError, match="exceeds 10 diagrams"):
        rep_braid_word(word)
    assert bracket_via_tl(BraidWord(6, (1, 3, 5))) == markov_trace(
        _general_fold(BraidWord(6, (1, 3, 5)))
    )
    # the bit cap: diagrams times (2L + 1) * (L + 2) bits
    monkeypatch.undo()
    bits = (2 * 10 + 1) * (10 + 2)
    _, state, _ = tl_module._word_state(word)
    cap = len(state) * bits
    monkeypatch.setattr(tl_module, "STATE_MAX_BITS", cap)
    assert bracket_via_tl(word) == markov_trace(_general_fold(word))
    monkeypatch.setattr(tl_module, "STATE_MAX_BITS", cap - 1)
    with pytest.raises(ValueError, match=f"exceeds {cap - 1} bits"):
        bracket_via_tl(word)
    with pytest.raises(ValueError, match=f"exceeds {cap - 1} bits"):
        rep_braid_word(word)
    # a word too long for even one diagram stops before its first letter
    monkeypatch.setattr(tl_module, "STATE_MAX_BITS", bits - 1)
    monkeypatch.setattr(PlanarPairing, "compose", None)
    with pytest.raises(ValueError, match="diagrams: 1,"):
        bracket_via_tl(BraidWord(6, (5,) * 10))


def test_word_budget_refuses_before_the_first_letter(monkeypatch):
    # work = letters * bits per diagram * the most diagrams the state may hold
    word = BraidWord(4, (1, -2, 3) * 4)
    work = 12 * (2 * 12 + 1) * (12 + 2) * 14  # Catalan(4) = 14
    monkeypatch.setattr(tl_module, "WORD_MAX_WORK", work)
    assert bracket_via_tl(word) == markov_trace(_general_fold(word))
    monkeypatch.setattr(tl_module, "WORD_MAX_WORK", work - 1)
    monkeypatch.setattr(PlanarPairing, "compose", None)
    for route in (bracket_via_tl, rep_braid_word):
        with pytest.raises(ValueError, match=f"exceeds the work budget of {work - 1}"):
            route(word)
    # at the real budget, 3 strands admit about 4800 letters
    monkeypatch.undo()
    monkeypatch.setattr(PlanarPairing, "compose", None)
    with pytest.raises(ValueError, match="work budget"):
        bracket_via_tl(BraidWord(3, (1, -2) * 2500))
