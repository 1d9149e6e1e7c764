"""Diagrammatic Temperley-Lieb algebra: pairings, composition, traces."""

import ast
import math
import random
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlbraid.fibrep as fibrep_module
import tlbraid.tl as tl_module
from tlbraid import (
    BraidWord,
    LaurentPoly,
    PlanarPairing,
    TLElement,
    VerifyReport,
    bracket_state_sum,
    bracket_via_tl,
    delta,
    enumerate_pairings,
    markov_trace,
    rep_braid_word,
    verify_relations,
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
    with pytest.raises(ValueError, match="size must be >= 1"):
        PlanarPairing(0, ())
    with pytest.raises(ValueError, match=r"endpoint 1 pairs out of range \(4\)"):
        PlanarPairing(2, (2, 4, 0, 1))


def test_pairings_and_elements_are_immutable():
    for obj, names in (
        (PlanarPairing.identity(2), ("partner", "size")),
        (TLElement.identity(2), ("_terms", "size")),
        (LaurentPoly.one(), ("_terms",)),
    ):
        for attr in names:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(obj, attr, None)
    assert PlanarPairing.identity(2).partner == (2, 3, 0, 1)


@pytest.mark.parametrize("bad", [1.5, "3"])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: LaurentPoly({0: x}),
        lambda x: LaurentPoly({x: 1}),
        lambda x: BraidWord(x),
        lambda x: BraidWord(4, (1, x)),
        lambda x: PlanarPairing(x, (3, 4, 5, 0, 1, 2)),
        lambda x: PlanarPairing(2, (2, x, 0, 1)),
        lambda x: TLElement(x),
    ],
    ids=["coefficient", "exponent", "strands", "letter", "size", "partner", "element_size"],
)
def test_exact_types_take_integers_only(make, bad):
    # operator.index, not int(): nothing is truncated or parsed, and numpy
    # integers still pass
    with pytest.raises(TypeError):
        make(bad)
    assert repr(make(np.int64(3))) == repr(make(3))


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


def test_local_rule_matches_compose_on_every_table_entry():
    """Fill every table entry up to 8 strands by BFS from the identity: the
    products fill's local U_i rule reaches are exactly the planar diagrams,
    and each entry (d*U_i, loops) equals what the general compose gives."""
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
                if not loops:  # a dense letter's premise: targets only receive
                    target_entry = table.act[i - 1][target] or table.fill(i, target)
                    assert target_entry == (target, 1)
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
        # each pairing went through the public constructor; rebuilding it
        # from its partner array gives an equal pairing
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
    # The slot width L + n + 1 rests on the state's L1 norm staying <= 2^L.
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
        w1, w2, w3 = (
            BraidWord(
                n,
                tuple(
                    rng.choice([1, -1]) * rng.randint(1, n - 1)
                    for _ in range(rng.randrange(5))
                ),
            )
            for _ in range(3)
        )
        x, y, z = (rep_braid_word(w) for w in (w1, w2, w3))
        product = rep_braid_word(w1 * w2)
        assert product == x * y
        # equal elements hash alike, whichever route built them
        assert hash(product) == hash(x * y)
        assert (x + y) * z == x * z + y * z
        assert x + y == y + x
        assert (x + x.scale(LaurentPoly({0: -1}))).is_zero() and not x.is_zero()


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
    # repr lists the diagrams by partner tuple and each polynomial by
    # descending exponent, so equal elements print alike however built, and
    # it reads back as the element
    text = repr(got)
    assert text == repr(expected)
    assert "LaurentPoly({1: 1, -3: -1, -7: 1})" in text
    assert text.startswith("TLElement(2, {PlanarPairing(2, [1, 0, 3, 2]): LaurentPoly(")
    assert text.index("PlanarPairing(2, [2, 3, 0, 1])") > text.index("[1, 0, 3, 2]")
    names = {"TLElement": TLElement, "PlanarPairing": PlanarPairing, "LaurentPoly": LaurentPoly}
    assert eval(text, names) == got


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
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(ValueError, match="equal size"):
        PlanarPairing.identity(2).compose(PlanarPairing.identity(3))
    for size in (0, -1):
        with pytest.raises(ValueError, match="size must be >= 1"):
            TLElement(size)


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


def test_a_letter_flips_the_closure_parity_of_each_product_it_does_not_trap():
    # the parity rule of the engine's A^4 slots: d*U_i either traps a loop
    # and is d itself, or its trace closure has one loop more or fewer than d's
    for n in range(2, 9):
        for i in range(1, n):
            u = PlanarPairing.generator(n, i)
            for d in enumerate_pairings(n):
                product, loops = d.compose(u)
                if loops:
                    assert (loops, product) == (1, d), (i, d)
                else:
                    assert abs(product.closure_loops() - d.closure_loops()) == 1, (i, d)


@st.composite
def _short_words(draw):
    n = draw(st.integers(2, 5))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=12))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_short_words())
def test_each_coefficient_lies_in_one_class_mod_4(word):
    # Kauffman's mod-4 property, on the general product: the exponents of
    # diagram d's coefficient are writhe + 2 * ((n - closure loops) mod 2)
    # mod 4, the class that the engine's A^4 slot layout assumes
    n = word.strands
    folded = _general_fold(word)
    for d, coeff in folded.terms.items():
        c = word.writhe() + 2 * ((n - d.closure_loops()) % 2)
        assert all((e - c) % 4 == 0 for e in coeff.terms), (d, coeff)
    assert rep_braid_word(word) == folded


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


def test_repeat_word_fills_no_table_entries(monkeypatch):
    monkeypatch.setattr(tl_module, "_TABLES", {})
    calls = []
    fill = tl_module._DiagramTable.fill

    def counting(self, i, d):
        calls.append(1)
        return fill(self, i, d)

    monkeypatch.setattr(tl_module._DiagramTable, "fill", counting)
    n = 5
    word = BraidWord(n, (1, 2, -3, 4, 2, 1, -4, 3, 3, 2, -1, 4) * 3)
    first = bracket_via_tl(word)
    catalan = math.comb(2 * n, n) // (n + 1)
    assert 0 < len(calls) <= catalan * (n - 1)
    calls.clear()
    assert bracket_via_tl(word) == first
    assert calls == []


def test_engine_never_composes(monkeypatch):
    # the engine applies U_i by fill's local rule, so the TLElement fold,
    # whose products go through compose, is an independent check of it
    rng = random.Random(31)
    words = [_random_word(rng, n, rng.randint(0, 24)) for n in range(2, 9) for _ in range(3)]
    folds = [_general_fold(word) for word in words]

    def forbidden(*args, **kwargs):
        raise AssertionError("the TL engine called compose")

    monkeypatch.setattr(PlanarPairing, "compose", forbidden)
    monkeypatch.setattr(tl_module, "_TABLES", {})
    for word, folded in zip(words, folds):
        assert rep_braid_word(word) == folded, word
        assert bracket_via_tl(word) == markov_trace(folded), word


def test_table_builds_only_the_identity_up_front(monkeypatch):
    identity = PlanarPairing.identity(200).partner
    built = []
    post_init = PlanarPairing.__post_init__

    def recording(self):
        post_init(self)
        built.append(self.partner)

    monkeypatch.setattr(PlanarPairing, "__post_init__", recording)
    table = tl_module._DiagramTable(200)
    assert built == [identity]
    assert table.diagrams[table.identity].partner == identity


def _complete_table(n):
    """The shared table for n strands, with every diagram interned."""
    table = tl_module._TABLES.setdefault(n, tl_module._DiagramTable(n))
    d = 0
    while d < len(table.diagrams):
        for i in range(1, n):
            table.act[i - 1][d] or table.fill(i, d)
        d += 1
    assert len(table.diagrams) == table.catalan
    return table


@st.composite
def _engine_words(draw):
    n = draw(st.integers(2, 7))
    letter = st.builds(lambda s, i: s * i, st.sampled_from((1, -1)), st.integers(1, n - 1))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=60))))


def _sparse_results(word):
    """bracket_via_tl and rep_braid_word of word, every letter on the dict loop."""
    n = word.strands
    with pytest.MonkeyPatch.context() as mp:
        # a fresh table that never counts itself complete keeps every letter
        # on the dict loop
        sparse_table = tl_module._DiagramTable(n)
        sparse_table.catalan += 1
        mp.setattr(tl_module, "_TABLES", {n: sparse_table})
        mp.setattr(tl_module._LetterPlan, "apply", None)
        return bracket_via_tl(word), rep_braid_word(word)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_engine_words())
def test_dense_letters_match_the_sparse_loop(word):
    n = word.strands
    sparse = _sparse_results(word)
    _complete_table(n)
    dense = (bracket_via_tl(word), rep_braid_word(word))
    assert dense == sparse
    if len(word.letters) <= 14:
        assert sparse[0] == bracket_state_sum(word)


def test_dense_letters_run_on_full_width_words(monkeypatch):
    calls = []
    apply = tl_module._LetterPlan.apply

    def counting(self, state, width, positive):
        calls.append(len(state))
        return apply(self, state, width, positive)

    monkeypatch.setattr(tl_module._LetterPlan, "apply", counting)
    rng = random.Random(5)
    for n in range(2, 8):
        table = _complete_table(n)
        word = _random_word(rng, n, 40)
        calls.clear()
        assert rep_braid_word(word) == _general_fold(word)
        if n < 5:
            # on 2-4 strands a whole sparse letter costs less than a dense
            # letter's fixed numpy cost
            assert calls == [], n
        else:
            # once half full, the state holds every diagram to the last letter
            assert calls and set(calls) == {table.catalan}, n
    # a word that leaves a generator out never fills the whole table
    calls.clear()
    bracket_via_tl(BraidWord(6, (1, 2, 3, 4) * 10))
    assert calls == []


def _long_dense_word():
    # the continuous-integration packaging step rebuilds this word with the
    # same random calls and checks that its Jones polynomial is (-2)^(c - 1)
    # at t = 1
    return _random_word(random.Random(6), 6, 300)


def test_dense_state_holds_python_ints(monkeypatch):
    word = _long_dense_word()
    sparse = _sparse_results(word)
    _complete_table(word.strands)
    seen = []
    apply = tl_module._LetterPlan.apply

    def checking(self, state, width, positive):
        assert all(type(x) is int for x in state)  # not numpy scalars
        apply(self, state, width, positive)
        assert all(type(x) is int for x in state)
        seen.append(max(x.bit_length() for x in state))

    monkeypatch.setattr(tl_module._LetterPlan, "apply", checking)
    dense = (bracket_via_tl(word), rep_braid_word(word))
    assert len(seen) > 2 * len(word.letters) * 0.9  # nearly every letter, twice
    assert max(seen) > 10_000  # the packed ints run to thousands of bits
    assert dense == sparse
    _, state, _ = tl_module._word_state(word)
    assert state and all(type(x) is int and x for x in state.values())


def test_every_capped_target_has_a_source(monkeypatch):
    # np.add.reduceat gives an empty group the next group's first element,
    # so a plan must never hold a target with no source
    for n in range(2, 9):
        table = _complete_table(n)
        for i in range(1, n):
            plan = table.plan(i)
            ends = np.append(plan.starts, len(plan.sources))
            assert (np.diff(ends) > 0).all() and len(ends) == len(plan.targets) + 1
            senders, low = np.flatnonzero(plan.shifted[False]), plan.shifted[True]
            assert sorted([*plan.targets, *senders]) == list(range(table.catalan))
            assert set(np.flatnonzero(low)) == set(plan.targets[: plan.split])
            h = [(n - table.closure[t]) & 1 for t in plan.targets]
            assert h == sorted(h) and h.count(0) == plan.split
            act = table.act[i - 1]
            groups = np.split(plan.sources, plan.starts[1:])
            for t, group in zip(plan.targets, groups):
                assert {act[d][0] for d in group} == {t} and act[t] == (t, 1)
    # a capped target whose sources are gone fails to plan, loudly
    monkeypatch.setattr(tl_module, "_TABLES", {})
    act = _complete_table(5).act[0]
    target = next(t for t, (_, loops) in enumerate(act) if loops)
    for d, (t, _) in enumerate(act):
        if t == target:
            act[d] = (d, 1)
    with pytest.raises(KeyError):
        tl_module._TABLES[5].plan(1)


def test_threads_share_fresh_tables_and_plans(monkeypatch):
    # threads fill the same new tables and build the same plans at once;
    # each must still get the bracket a lone caller gets
    rng = random.Random(8)
    words = [_random_word(rng, n, 40) for n in (3, 4, 5, 6, 7) for _ in range(3)]
    want = [bracket_via_tl(word) for word in words]
    monkeypatch.setattr(tl_module, "_TABLES", {})
    results, errors = {}, []
    start = threading.Barrier(6)

    def worker(k):
        try:
            start.wait(timeout=60)
            order = list(range(len(words)))
            random.Random(k).shuffle(order)
            for j in order:
                results[k, j] = bracket_via_tl(words[j])
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(results[k, j] == want[j] for k in range(6) for j in range(len(words)))


def test_close_holds_the_extra_bits_of_the_loop_powers():
    # delta^(l - 1) for l closure loops on n strands grows the bracket's
    # coefficients by up to n - 1 bits past the state's 2^L: on 12 strands
    # the empty word closes to delta^11, whose middle coefficient is
    # C(11, 5) = 462, and sigma_1 to -A^3 * delta^10, whose is 252, both far
    # past the 2^(L + 1) that a slot of L + 2 bits can hold
    for letters in ((), (1,), (-1,), (1, 2, -1), (1, -1, 1), (2, 3, 4, 5) * 2):
        word = BraidWord(12, letters)
        assert bracket_via_tl(word) == bracket_state_sum(word), letters
    assert bracket_via_tl(BraidWord(12, ())) == delta() ** 11
    assert bracket_via_tl(BraidWord(12, (1,))) == LaurentPoly({3: -1}) * delta() ** 10


def _pack(coeffs, width):
    """sum(c << k * width), split in halves so it costs O(n log n)."""
    if len(coeffs) == 1:
        return coeffs[0]
    mid = len(coeffs) // 2
    return _pack(coeffs[:mid], width) + (_pack(coeffs[mid:], width) << mid * width)


def test_unpack_reads_balanced_slots_in_bounded_memory():
    # about 1 MB of slots whose width is not a multiple of 8, with the
    # extreme digits, zeros and a negative top slot
    rng = random.Random(5)
    width, slots, top = 8 * 1000 + 3, 1000, 37
    half = 1 << (width - 1)
    coeffs = [rng.randrange(-half, half) for _ in range(slots)]
    coeffs[:6] = [-half, half - 1, 0, -1, 1, 0]
    coeffs[-1] = -rng.randrange(1, half)
    packed = _pack(coeffs, width)
    size = (packed.bit_length() + 7) // 8
    unpack = tl_module._unpacker(width, slots, top)
    tracemalloc.start()
    try:
        terms = unpack(packed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms == {top - 4 * k: c for k, c in enumerate(coeffs) if c}
    # a binary string of the value, one byte per bit, would be 8x alone
    assert peak <= 4 * size, peak / size


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
    # the bit cap: diagrams times (2L + 1) * (L + n + 1) bits
    monkeypatch.undo()
    bits = (2 * 10 + 1) * (10 + 6 + 1)
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
    monkeypatch.setattr(tl_module, "_TABLES", {})
    monkeypatch.setattr(tl_module._DiagramTable, "fill", None)
    with pytest.raises(ValueError, match="diagrams: 1,"):
        bracket_via_tl(BraidWord(6, (5,) * 10))


def test_word_budget_refuses_before_the_first_letter(monkeypatch):
    # work = letters * bits per diagram * the most diagrams the state may hold
    word = BraidWord(4, (1, -2, 3) * 4)
    work = 12 * (2 * 12 + 1) * (12 + 4 + 1) * 14  # Catalan(4) = 14
    monkeypatch.setattr(tl_module, "WORD_MAX_WORK", work)
    assert bracket_via_tl(word) == markov_trace(_general_fold(word))
    monkeypatch.setattr(tl_module, "WORD_MAX_WORK", work - 1)
    monkeypatch.setattr(tl_module, "_TABLES", {})
    monkeypatch.setattr(tl_module._DiagramTable, "fill", None)
    for route in (bracket_via_tl, rep_braid_word):
        with pytest.raises(ValueError, match=f"exceeds the work budget of {work - 1}"):
            route(word)
    # at the real budget, 3 strands admit about 4800 letters
    monkeypatch.undo()
    monkeypatch.setattr(tl_module, "_TABLES", {})
    monkeypatch.setattr(tl_module._DiagramTable, "fill", None)
    with pytest.raises(ValueError, match="work budget"):
        bracket_via_tl(BraidWord(3, (1, -2) * 2500))


def _reachable_diagrams(n, indices):
    """Diagrams reached from the identity by right-multiplying U_i,
    i in indices: the basis of the subalgebra those generators span."""
    gens = [PlanarPairing.generator(n, i) for i in indices]
    seen = {PlanarPairing.identity(n)}
    frontier = list(seen)
    while frontier:
        found = {d.compose(g)[0] for d in frontier for g in gens} - seen
        seen |= found
        frontier = list(found)
    return len(seen)


def test_span_dim_counts_reachable_diagrams():
    for n in range(1, 7):
        for bits in range(1 << (n - 1)):
            indices = {i for i in range(1, n) if bits >> (i - 1) & 1}
            assert tl_module._span_dim(indices) == _reachable_diagrams(n, indices)
    assert tl_module._span_dim(set(range(1, 12))) == math.comb(24, 12) // 13


def test_word_budget_counts_only_the_generators_used():
    # charged for the whole algebra on 12 strands (up to the bit cap), the
    # word's work is 1.18e12 > 2^40, but sigma_1 alone reaches 2 diagrams;
    # each untouched strand closes into one more loop
    word = BraidWord(12, (1,) * 1100)
    assert bracket_via_tl(word) == delta() ** 10 * bracket_via_tl(
        BraidWord(2, (1,) * 1100)
    )


def test_verify_relations_exact_report():
    names = [
        "U_i U_i = delta U_i",
        "U_i U_j U_i = U_i (|i-j| = 1)",
        "U_i U_j = U_j U_i (|i-j| > 1)",
        "trace(U_i U_j) = trace(U_j U_i)",
    ]
    for n in range(1, 7):
        report = verify_relations(n)
        assert report.n == n and report.delta is None and report.tol is None
        assert [c.name for c in report.checks] == names
        assert all(c.passed and c.residual == 0.0 for c in report.checks)
        assert report.passed
    for n in (0, 13):
        with pytest.raises(ValueError, match=r"^n must be in 1\.\.12$"):
            verify_relations(n)
    # one report type for the exact and the numeric suites
    assert fibrep_module.VerifyReport is VerifyReport


def test_verify_relations_fails_under_a_wrong_loop_value(monkeypatch):
    monkeypatch.setattr(tl_module, "delta", lambda: LaurentPoly({2: -1}))
    report = verify_relations(4)
    assert not report.passed
    assert [(c.residual, c.passed) for c in report.checks] == [
        (math.inf, False),
        (0.0, True),
        (0.0, True),
        (0.0, True),
    ]


def _module_level_imports(source: str):
    """Names imported by a module's own code, outside function bodies."""
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def _imports_numpy(source: str) -> bool:
    return any(
        name == "numpy" or name.startswith("numpy.")
        for name in _module_level_imports(source)
    )


def test_exact_modules_do_not_import_numpy_at_module_level():
    # the exact side, report types included, loads without numpy; a numpy
    # import inside a function (bracket_state_sum's) is allowed
    src = Path(tl_module.__file__).parent
    for name in ("laurent", "braid", "tl", "bracket"):
        assert not _imports_numpy((src / f"{name}.py").read_text()), name
    assert _imports_numpy((src / "fibrep.py").read_text())
    assert _imports_numpy("try:\n    from numpy import linalg\nexcept ImportError:\n    pass")
    assert _imports_numpy("class C:\n    import numpy.random")
    assert not _imports_numpy("def f():\n    import numpy as np")
