"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Every check pins its own tolerance (or demands exactness) and the two heavy
ones also pin a wall-clock budget. Run with plain pytest; the verdict lines
are echoed to the real stdout so they survive output capture.
"""

import cmath
import math
import random
import sys
import time

import numpy as np
import pytest

from tlbraid import (
    GOLDEN_RATIO,
    BraidWord,
    LaurentPoly,
    TLElement,
    bracket_state_sum,
    bracket_via_tl,
    braid_generator_matrix,
    delta,
    enumerate_pairings,
    f_matrix,
    fib_dim,
    fib_sequences,
    fibonacci_params,
    make_params,
    markov_trace,
    normalized_bracket,
    r_matrix,
    theta_validity,
    three_strand_family,
    tl_generator_matrix,
    verify_model,
)

PHI = GOLDEN_RATIO


def _report(criterion: int, message: str):
    line = f"ACCEPTANCE {criterion} PASS: {message}"
    print(line)
    real = sys.__stdout__
    if real is not None and sys.stdout is not real:
        print(line, file=real)


def _maxabs(m) -> float:
    return float(np.max(np.abs(m)))


def _random_words(count, seed, max_strands=5, max_letters=10):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(2, max_strands)
        k = rng.randint(0, max_letters)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(k)
        )
        words.append(BraidWord(n, letters))
    return words


def _random_element(rng, n, basis, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.choice(basis)
        c = LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(2)})
        terms[d] = terms.get(d, LaurentPoly.zero()) + c
    return TLElement(n, terms)


def _three_strand_words_up_to_six():
    """Words over {1, -1, 2, -2} of length 1..6, first letter positive,
    no letter directly followed by its inverse."""
    alphabet = (1, -1, 2, -2)
    words = []
    frontier = [(1,), (2,)]
    for _ in range(6):
        words.extend(frontier)
        frontier = [
            w + (ell,) for w in frontier for ell in alphabet if ell != -w[-1]
        ]
    return [BraidWord(3, w) for w in words]


def test_acceptance_1_dual_route_agreement():
    start = time.perf_counter()
    words = _random_words(200, seed=10301)
    family = _three_strand_words_up_to_six()
    assert len(family) == 728
    for word in words + family:
        assert bracket_state_sum(word) == bracket_via_tl(word), word
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(1, f"state sum = algebra trace on {len(words) + len(family)} words, exact ({elapsed:.1f}s)")


def test_acceptance_2_bracket_axioms_exact():
    one = LaurentPoly.one()
    assert bracket_state_sum(BraidWord(1, ())) == one
    assert bracket_via_tl(BraidWord(1, ())) == one
    for n in range(1, 9):
        expected = delta() ** (n - 1)
        assert bracket_state_sum(BraidWord(n, ())) == expected
        assert bracket_via_tl(BraidWord(n, ())) == expected
    pos_curl = BraidWord(2, (1,))
    neg_curl = BraidWord(2, (-1,))
    assert bracket_via_tl(pos_curl) == LaurentPoly.monomial(-1, 3)
    assert bracket_state_sum(pos_curl) == LaurentPoly.monomial(-1, 3)
    assert bracket_via_tl(neg_curl) == LaurentPoly.monomial(-1, -3)
    assert bracket_state_sum(neg_curl) == LaurentPoly.monomial(-1, -3)
    assert normalized_bracket(pos_curl) == one
    assert normalized_bracket(neg_curl) == one
    _report(2, "unknot, unlinks to n=8, both curls, normalization: all exact")


def test_acceptance_3_trefoil_chirality_certificate():
    word = BraidWord(2, (1, 1, 1))
    mirror = word.inverse()
    # normalized invariant from the state-sum route alone
    f = LaurentPoly.monomial(-1, -9) * bracket_state_sum(word)
    assert f == LaurentPoly({-4: 1, -12: 1, -16: -1})
    assert f != f.invert_variable()
    f_mirror = LaurentPoly.monomial(-1, 9) * bracket_state_sum(mirror)
    assert f_mirror == f.invert_variable()
    _report(3, "f(trefoil) = A^-4 + A^-12 - A^-16, mirror = variable inverse, distinct")


def test_acceptance_4_diagram_algebra_exact():
    dlt = delta()
    for n in range(2, 7):
        gens = [TLElement.generator(n, i) for i in range(1, n)]
        for g in gens:
            assert g * g == g.scale(dlt)
        for i in range(len(gens)):
            for j in range(len(gens)):
                if abs(i - j) == 1:
                    assert gens[i] * gens[j] * gens[i] == gens[i]
                elif abs(i - j) > 1:
                    assert gens[i] * gens[j] == gens[j] * gens[i]
    rng = random.Random(40404)
    n = 4
    basis = enumerate_pairings(n)
    for _ in range(100):
        x = _random_element(rng, n, basis)
        y = _random_element(rng, n, basis)
        assert markov_trace(x * y) == markov_trace(y * x)
    catalan = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    for n, expected in zip(range(1, 11), catalan):
        assert len(enumerate_pairings(n)) == expected
    _report(4, "projector/absorption/commutation exact to n=6, 100 trace-symmetry pairs, Catalan counts to n=10")


def test_acceptance_5_sequence_dimensions():
    expected = (2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
                233, 377, 610, 987, 1597, 2584, 4181, 6765, 10946, 17711)
    for n, dim in zip(range(1, 21), expected):
        assert fib_dim(n) == dim
        assert len(fib_sequences(n)) == dim
    _report(5, "enumeration = recurrence for n = 1..20, ending at 17711")


def test_acceptance_6_relation_suite_with_negative_control():
    start = time.perf_counter()
    tol = 1e-10
    worst = 0.0
    for sign in (1, -1):
        params = fibonacci_params(sign)
        for n in range(1, 11):
            report = verify_model(n, params, tol=tol)
            assert report.passed, (sign, n, [c for c in report.checks if not c.passed])
            worst = max(worst, max(c.residual for c in report.checks))
    control = verify_model(4, make_params(2.0), tol=tol)
    row = next(
        c for c in control.checks if c.name == "U_i U_j U_i = U_i (|i-j| = 1)"
    )
    assert not row.passed and row.residual >= 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(6, f"all relations hold to n=10 at both golden points (worst residual {worst:.2e}); "
               f"generic loop value fails as expected ({elapsed:.1f}s)")


def test_acceptance_7_matrix_reproduction():
    params = fibonacci_params()
    tau = 2.0 / (1.0 + math.sqrt(5.0))
    expected_f = np.array([[tau, math.sqrt(tau)], [math.sqrt(tau), -tau]])
    assert _maxabs(f_matrix(params) - expected_f) <= 1e-12
    expected_r = np.diag([cmath.exp(4j * math.pi / 5), -cmath.exp(2j * math.pi / 5)])
    assert _maxabs(r_matrix(params) - expected_r) <= 1e-12
    a = cmath.exp(3j * math.pi / 5)
    assert abs(-(a**3) - a**8) <= 1e-12
    assert abs(a**-1 - (-(a**4))) <= 1e-12
    assert abs(params.mu + params.lam**-3) <= 1e-12
    assert abs(params.lam * (params.mu - params.lam) - params.delta) <= 1e-12
    _report(7, "basis-change and exchange matrices, eigenvalue identity, parameter relations: all within 1e-12")


def test_acceptance_8_three_strand_family():
    rng = random.Random(80808)
    windows = [
        (0.0, math.pi / 6),
        (math.pi / 3, 2 * math.pi / 3),
        (5 * math.pi / 6, 7 * math.pi / 6),
        (4 * math.pi / 3, 5 * math.pi / 3),
    ]
    eye = np.eye(2)
    for k in range(50):
        lo, hi = windows[k % 4]
        theta = rng.uniform(lo, hi)
        assert theta_validity(theta)
        fam = three_strand_family(theta)
        assert _maxabs(fam.r @ fam.r.conj().T - eye) <= 1e-10
        assert _maxabs(fam.s @ fam.s.conj().T - eye) <= 1e-10
        assert _maxabs(fam.r @ fam.s @ fam.r - fam.s @ fam.r @ fam.s) <= 1e-10
    for theta in (math.pi / 4, 0.8, 2.5, 4.0, 5.5):
        assert not theta_validity(theta)
        with pytest.raises(ValueError):
            three_strand_family(theta)
    fam = three_strand_family(3 * math.pi / 5)
    assert abs(fam.delta - PHI) <= 1e-10
    params = fibonacci_params()
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert _maxabs(swap @ fam.u @ swap - tl_generator_matrix(1, 1, params)) <= 1e-12
    assert _maxabs(swap @ fam.v @ swap - tl_generator_matrix(1, 2, params)) <= 1e-12
    assert _maxabs(swap @ fam.r @ swap - braid_generator_matrix(1, 1, params)) <= 1e-12
    assert _maxabs(swap @ fam.s @ swap - braid_generator_matrix(1, 2, params)) <= 1e-12
    _report(8, "50 sampled phases unitary with braid relation at 1e-10; invalid phases rejected; "
               "golden phase matches the sequence-space matrices")


def test_acceptance_9_right_end_rule_matters():
    # the literal boundary reading kills the (P, *, P) window of the last
    # generator: U_3 at n = 2 with the column of "P*" zeroed
    params = fibonacci_params()
    uniform = tl_generator_matrix(2, 3, params)
    literal = uniform.copy()
    literal[:, fib_sequences(2).index("P*")] = 0.0
    residual = _maxabs(literal @ literal - params.delta * literal)
    assert residual >= 0.1
    assert _maxabs(literal - literal.T) >= 0.1
    assert _maxabs(uniform @ uniform - params.delta * uniform) == 0.0
    _report(9, f"literal right-end rule breaks the projector (residual {residual:.3f}) and symmetry; uniform rule is float-exact")
