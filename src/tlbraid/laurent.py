"""Exact sparse Laurent polynomials in the bracket variable A.

Coefficients are arbitrary-precision Python ints and exponents are
(possibly negative) ints, so bracket and trace computations downstream
stay exact. Instances are immutable: every operation returns a new value,
and values can be shared freely between threads.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from operator import index


def _exact_sum(values: list[float]) -> float:
    """The exact sum of values, rounded once to a double.

    math.fsum rounds exactly so, but raises OverflowError on an overflowing
    partial sum even when the exact sum fits; the same floats are then
    summed as fractions. Raises OverflowError when the sum itself is past
    the largest double.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        # imported here: fractions pulls in decimal, some ms at every start
        from fractions import Fraction

        # int / int true division rounds correctly
        return float(sum(map(Fraction, values)))


@dataclass(frozen=True, slots=True, init=False, eq=False)
class LaurentPoly:
    """A sparse Laurent polynomial with integer coefficients.

    Stored as a map exponent -> nonzero coefficient; the zero polynomial
    is the empty map. Supports +, -, * (with another polynomial or an
    int) and ** with a nonnegative integer exponent. Exponents and
    coefficients are ints (operator.index): a float or a string raises
    TypeError.
    """

    _terms: dict[int, int]

    def __init__(self, terms: dict[int, int] | None = None):
        pairs = ((index(e), index(c)) for e, c in (terms or {}).items())
        object.__setattr__(self, "_terms", {e: c for e, c in pairs if c})

    @classmethod
    def _clean(cls, terms: dict[int, int]) -> "LaurentPoly":
        """A polynomial on `terms` as given: int keys and nonzero int values."""
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        return self

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        """coeff * A^exp; the zero polynomial when coeff == 0."""
        return cls({exp: coeff})

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    @staticmethod
    def _coerce(value):
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly({0: value})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly._clean({e: c for e, c in acc.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._clean({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly._clean({e: c for e, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def invert_variable(self) -> "LaurentPoly":
        """Substitute A -> A^-1 (negate every exponent)."""
        return LaurentPoly._clean({-e: c for e, c in self._terms.items()})

    def evaluate_phase(self, theta: float) -> complex:
        """Evaluate at A = e^(i*theta) on the unit circle.

        The real and imaginary parts are each the exact sum of the terms'
        floats, rounded once (see _exact_sum), so the value depends only on
        the polynomial, not on its term order. Raises ValueError when some
        theta*e is not finite or reaches 2^52 in magnitude: doubles there
        are 1 rad or more apart, so no digit of the value would mean
        anything. Raises ValueError too when a coefficient or an exact sum
        is past the largest double.
        """
        if not all(abs(theta * e) < 2.0**52 for e in self._terms):
            raise ValueError(f"phase {theta!r} too large: |phase * exponent| >= 2^52")
        try:
            values = [c * cmath.exp(1j * theta * e) for e, c in self._terms.items()]
            return complex(
                _exact_sum([v.real for v in values]),
                _exact_sum([v.imag for v in values]),
            )
        except OverflowError:
            raise ValueError(f"value at phase {theta!r} overflows a double") from None

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            parts.append(str(c) if e == 0 else f"{c}*A^{e}")
        return " + ".join(parts)

    def __repr__(self):
        # descending exponents, as __str__ and to_json, so equal values print alike
        terms = sorted(self._terms.items(), reverse=True)
        body = ", ".join(f"{e}: {c}" for e, c in terms)
        return f"LaurentPoly({{{body}}})"

    def to_json(self) -> list:
        """[[exponent, coefficient-as-string], ...] sorted by descending exponent.

        Coefficients are decimal strings so arbitrary-precision values survive
        JSON round trips intact.
        """
        return [[e, str(self._terms[e])] for e in sorted(self._terms, reverse=True)]

    @classmethod
    def from_json(cls, data) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in data})


def delta() -> LaurentPoly:
    """The loop value -A^2 - A^-2 (what a closed circle contributes)."""
    return LaurentPoly({2: -1, -2: -1})


_DELTA_POWERS = [LaurentPoly.one()]
_DELTA_POWERS_LOCK = threading.Lock()


def delta_power(k: int) -> LaurentPoly:
    """delta()**k for k >= 0, cached: each power costs one product, once."""
    if k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if k >= len(_DELTA_POWERS):
        with _DELTA_POWERS_LOCK:  # an entry's index must be its power
            while len(_DELTA_POWERS) <= k:
                _DELTA_POWERS.append(_DELTA_POWERS[-1] * delta())
    return _DELTA_POWERS[k]


def jones_substitute(f: LaurentPoly) -> LaurentPoly:
    """Rewrite a normalized bracket in A as a polynomial in q = t^(1/4).

    The substitution A = t^(-1/4) sends c*A^e to c*q^(-e), so the result
    carries integer exponents of q; an exponent 4k in q is t^k.
    """
    return f.invert_variable()


def format_jones(p: LaurentPoly) -> str:
    """Render a q-polynomial with exponents written as powers of t = q^4.

    Terms are ordered by increasing |exponent| (the customary way Jones
    polynomials are written out), positive exponent first on ties.
    Fractional powers of t print as t^1/2- or t^1/4-style labels.
    """
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.terms, key=lambda e: (abs(e), e < 0)):
        c = p.coeff(e)
        if e == 0:
            parts.append(str(c))
        elif e % 4 == 0:
            parts.append(f"{c}*t^{e // 4}")
        elif e % 2 == 0:
            parts.append(f"{c}*t^{e // 2}/2")
        else:
            parts.append(f"{c}*t^{e}/4")
    return " + ".join(parts)
