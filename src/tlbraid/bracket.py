"""Bracket and Jones polynomials of braid closures, two independent ways.

The production path rewrites the braid word in the Temperley-Lieb algebra
and closes it with the Markov trace, in one pass of the fused state-vector
engine of tl.trace_braid_word. The oracle path enumerates all 2^N
crossing smoothings of the closed diagram and counts loops directly with
an arc-segment walk; it never touches the diagram algebra, so agreement
between the two is a real cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord
from .laurent import LaurentPoly, delta, jones_substitute
from .tl import trace_braid_word

STATE_SUM_MAX_LETTERS = 24


class StateSumCapError(ValueError):
    """Raised when a word is too long for the exhaustive smoothing oracle."""


def bracket_state_sum(word: BraidWord) -> LaurentPoly:
    """Bracket polynomial by brute-force smoothing enumeration (N <= 24).

    Every crossing is replaced by the strand-preserving smoothing (weight
    A for a positive letter, A^-1 for a negative one) or the cup-cap
    smoothing (the opposite weight); each of the 2^N states contributes its
    weight product times delta^(loops - 1). Use bracket_via_tl for words
    past the cap.
    """
    n, letters = word.strands, word.letters
    num = len(letters)
    if num > STATE_SUM_MAX_LETTERS:
        raise StateSumCapError(
            f"state sum enumerates 2^{num} smoothings; cap is "
            f"{STATE_SUM_MAX_LETTERS} letters -- use bracket_via_tl instead"
        )
    if num == 0:
        return delta() ** (n - 1)

    # Ports 4c..4c+3 are crossing c's NW, NE, SW, SE stubs. Static arcs wire
    # consecutive crossings on each strand position together, wrapping
    # bottom-to-top through the closure; positions no crossing touches are
    # standalone circles in every state.
    touched: list[list[tuple[int, int]]] = [[] for _ in range(n)]
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
    counts: dict[tuple[int, int], int] = {}
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
    for (exponent, loops), count in sorted(counts.items()):
        total = total + LaurentPoly.monomial(count, exponent) * (delta() ** (loops - 1))
    return total


def bracket_via_tl(word: BraidWord) -> LaurentPoly:
    """Bracket polynomial via the Temperley-Lieb rewrite and Markov trace.

    Raises ValueError when the word's TL state outgrows
    tl.STATE_MAX_DIAGRAMS diagrams.
    """
    return trace_braid_word(word)


def bracket(word: BraidWord) -> LaurentPoly:
    """Bracket polynomial of the braid closure (Temperley-Lieb path)."""
    return bracket_via_tl(word)


def writhe_normalize(word: BraidWord, poly: LaurentPoly) -> LaurentPoly:
    """(-A^3)^(-w) * poly, where w is the writhe of word."""
    w = word.writhe()
    return LaurentPoly.monomial((-1) ** (w % 2), -3 * w) * poly


def normalized_bracket(word: BraidWord) -> LaurentPoly:
    """Writhe-normalized invariant (-A^3)^(-w) * bracket.

    Invariant of the closure as a link, not just of the diagram: unchanged
    by adding a curl, and 1 on any unknot presentation.
    """
    return writhe_normalize(word, bracket_via_tl(word))


def jones_polynomial(word: BraidWord) -> LaurentPoly:
    """Jones polynomial of the closure, in the variable q = t^(1/4)."""
    return jones_substitute(normalized_bracket(word))


@dataclass(frozen=True)
class ChiralityCertificate:
    """Normalized invariants of a closure and its mirror image."""

    f: LaurentPoly
    f_mirror: LaurentPoly
    distinct: bool


def chirality_certificate(word: BraidWord) -> ChiralityCertificate:
    """Compare a closure against its mirror (A -> A^-1 on the invariant).

    distinct=True certifies the closure is chiral. The mirror invariant is
    recomputed independently from the inverse word as a consistency check.
    """
    f = normalized_bracket(word)
    f_mirror = f.invert_variable()
    recomputed = normalized_bracket(word.inverse())
    if f_mirror != recomputed:
        raise AssertionError(
            "mirror invariant mismatch between substitution and inverse word"
        )
    return ChiralityCertificate(f=f, f_mirror=f_mirror, distinct=f != f_mirror)
