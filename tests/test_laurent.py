"""Exact Laurent polynomial arithmetic, rendering and evaluation."""

import random

import pytest

import tlbraid.laurent as laurent_module
from tlbraid import LaurentPoly, delta, format_jones, jones_substitute


def _random_poly(rng, max_terms=5, exp_range=50, coeff_range=10**6):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = rng.randint(-exp_range, exp_range)
        c = rng.randint(-coeff_range, coeff_range)
        terms[e] = terms.get(e, 0) + c
    return LaurentPoly(terms)


def test_monomial_and_zero():
    m = LaurentPoly.monomial(3, -2)
    assert m.terms == {-2: 3}
    assert LaurentPoly.monomial(0, 7) == LaurentPoly.zero()
    assert LaurentPoly({5: 0}).is_zero()
    assert LaurentPoly.one().terms == {0: 1}


def test_delta_square_hand_expanded():
    # (-A^2 - A^-2)^2 = A^4 + 2 + A^-4
    assert (delta() * delta()).terms == {4: 1, 0: 2, -4: 1}


def test_delta_cube():
    # (-A^2 - A^-2)^3 = -(A^6 + 3A^2 + 3A^-2 + A^-6)
    assert (delta() ** 3).terms == {6: -1, 2: -3, -2: -3, -6: -1}


def test_addition_cancels():
    p = LaurentPoly({3: 1, 0: 2})
    q = LaurentPoly({3: -1, 0: -2})
    assert (p + q).is_zero()


def test_results_keep_no_zero_coefficient():
    # the results of +, -, * and the substitutions skip the public
    # constructor's zero filter; cancelled terms must still drop out
    p = LaurentPoly({1: 1, -1: 1})
    q = LaurentPoly({1: 1, -1: -1})
    assert (p * q).terms == {2: 1, -2: -1}
    assert (p + q).terms == {1: 2}
    assert (p - p).terms == {}
    assert (p * 0).terms == {}
    rng = random.Random(9)
    for _ in range(200):
        a, b = _random_poly(rng, coeff_range=2), _random_poly(rng, coeff_range=2)
        for r in (a + b, a - b, a * b, -a, a.invert_variable(), jones_substitute(a)):
            assert all(type(e) is int and type(c) is int and c for e, c in r.terms.items())


def test_ring_axioms_random():
    rng = random.Random(1400)
    for _ in range(200):
        p, q, r = (_random_poly(rng, coeff_range=100) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * LaurentPoly.one() == p
        assert p + LaurentPoly.zero() == p
        # an int on either side of - and ==
        assert 5 - p == -(p - 5) == LaurentPoly({0: 5}) - p
        assert (p - p == 0) and (p + 7 - p == 7) and not (p + 7 - p == 8)
        assert bool(p) is not p.is_zero()
        assert eval(repr(p), {"LaurentPoly": LaurentPoly}) == p


def test_repr_lists_descending_exponents():
    # equal polynomials print alike whatever order their terms came in
    p = LaurentPoly({-7: 1, 1: 1, -3: -1})
    q = LaurentPoly({1: 1, -3: -1}) + LaurentPoly({-7: 1})
    assert repr(p) == repr(q) == "LaurentPoly({1: 1, -3: -1, -7: 1})"
    assert repr(LaurentPoly.zero()) == "LaurentPoly({})"
    for poly in (p, LaurentPoly.zero(), LaurentPoly({0: -(10**30)})):
        assert eval(repr(poly), {"LaurentPoly": LaurentPoly}) == poly


def test_pow_matches_repeated_product():
    rng = random.Random(7)
    for _ in range(30):
        p = _random_poly(rng, coeff_range=20, exp_range=8)
        acc = LaurentPoly.one()
        for k in range(5):
            assert p**k == acc
            acc = acc * p
    with pytest.raises(ValueError):
        delta() ** -1


def test_invert_variable_is_ring_involution():
    rng = random.Random(99)
    for _ in range(100):
        p = _random_poly(rng)
        q = _random_poly(rng)
        assert p.invert_variable().invert_variable() == p
        assert (p * q).invert_variable() == p.invert_variable() * q.invert_variable()
        assert (p + q).invert_variable() == p.invert_variable() + q.invert_variable()


def test_evaluate_phase_known_points():
    import math

    # loop value at the golden phase is the golden ratio
    phi = (1 + math.sqrt(5)) / 2
    v = delta().evaluate_phase(3 * math.pi / 5)
    assert abs(v - phi) < 1e-12
    assert abs(delta().evaluate_phase(math.pi / 4)) < 1e-12
    assert LaurentPoly.one().evaluate_phase(1.234) == 1
    # exact sum of rounded terms, whatever the term order
    for terms in ({0: 10**16, 4: 1, 8: -(10**16)}, {8: -(10**16), 4: 1, 0: 10**16}):
        assert LaurentPoly(terms).evaluate_phase(0.0) == 1


def test_evaluate_phase_refuses_a_phase_past_float_resolution():
    import math

    # doubles of magnitude 2^52 and more are 1 rad or more apart
    p = delta()  # exponents 2 and -2
    limit = 2.0**52
    assert abs(p.evaluate_phase(math.nextafter(limit / 2, 0.0))) <= 2.0
    for theta in (limit / 2, -limit / 2, 1e17, 1e300, 1e308, math.inf, math.nan):
        with pytest.raises(ValueError, match="too large"):
            p.evaluate_phase(theta)
    # a constant polynomial evaluates at any finite phase
    for theta in (1e17, 1e308, -1e308):
        assert LaurentPoly({0: 3}).evaluate_phase(theta) == 3
        assert LaurentPoly.zero().evaluate_phase(theta) == 0


def test_evaluate_phase_refuses_a_value_past_the_largest_double():
    # a coefficient no double holds, and a sum of two that each fit
    for terms in ({0: 2**1244, 4: -1}, {0: 2**1023, 2: 2**1023}):
        with pytest.raises(ValueError, match="overflows a double"):
            LaurentPoly(terms).evaluate_phase(0.0)
    assert LaurentPoly({0: 2**1023, 2: -1}).evaluate_phase(0.0) == 2.0**1023


def test_evaluate_phase_is_multiplicative():
    # relative tolerance: products of ~1e6-coefficient values carry ~1e-16
    # relative float error, so an absolute bound cannot hold at this scale
    rng = random.Random(31415)
    for _ in range(100):
        p = _random_poly(rng)
        q = _random_poly(rng)
        theta = rng.uniform(0, 6.3)
        lhs = (p * q).evaluate_phase(theta)
        rhs = p.evaluate_phase(theta) * q.evaluate_phase(theta)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_canonical_text():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(LaurentPoly.monomial(-1, 3)) == "-1*A^3"
    f = LaurentPoly({-4: 1, -12: 1, -16: -1})
    assert str(f) == "1*A^-4 + 1*A^-12 + -1*A^-16"
    assert str(LaurentPoly({4: 1, 0: 2, -4: 1})) == "1*A^4 + 2 + 1*A^-4"


def test_json_round_trip_big_coefficients():
    p = LaurentPoly({100: 10**40, -3: -(2**200), 0: 1})
    data = p.to_json()
    assert data[0] == [100, str(10**40)]
    assert LaurentPoly.from_json(data) == p


def test_jones_substitute_negates_exponents():
    f = LaurentPoly({-4: 1, -12: 1, -16: -1})
    assert jones_substitute(f).terms == {4: 1, 12: 1, 16: -1}


def test_format_jones_quarter_powers():
    assert format_jones(LaurentPoly({4: 1, 12: 1, 16: -1})) == "1*t^1 + 1*t^3 + -1*t^4"
    assert (
        format_jones(LaurentPoly({-4: 1, -12: 1, -16: -1}))
        == "1*t^-1 + 1*t^-3 + -1*t^-4"
    )
    assert format_jones(LaurentPoly({2: -1, 10: -1})) == "-1*t^1/2 + -1*t^5/2"
    assert format_jones(LaurentPoly({1: 3, 0: 5})) == "5 + 3*t^1/4"
    assert format_jones(LaurentPoly.zero()) == "0"


def test_hashable_and_usable_as_key():
    d = {delta(): "loop"}
    assert d[LaurentPoly({2: -1, -2: -1})] == "loop"


def test_delta_power_cache_under_threads(monkeypatch):
    import sys
    import threading

    expected = [delta() ** k for k in range(41)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(laurent_module, "_DELTA_POWERS", [LaurentPoly.one()])
            barrier = threading.Barrier(8)
            wrong = []

            def worker():
                barrier.wait()
                powers = [laurent_module.delta_power(k) for k in range(41)]
                wrong.extend(k for k in range(41) if powers[k] != expected[k])

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert wrong == []
            assert laurent_module._DELTA_POWERS == expected
    finally:
        sys.setswitchinterval(interval)
    with pytest.raises(ValueError):
        laurent_module.delta_power(-1)
