"""Bracket and Jones polynomials of braid closures, two independent ways.

The production path rewrites the braid word in the Temperley-Lieb algebra
and closes it with the Markov trace, in one pass of the fused state-vector
engine of tl.trace_braid_word. The oracle path enumerates all 2^N
crossing smoothings of the closed diagram (Kauffman's state model) and
counts each state's loops directly, sweeping a horizontal cut down the
diagram: a state labels only the arcs the cut meets and each strand
position's top arc, counts a loop whenever a join meets two ends of one
path, and closes each position's arc onto its top arc after the position's
last crossing. Strand positions no crossing touches are loops of their own.
It never touches the diagram algebra, so agreement between the two is a
real cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord
from .laurent import LaurentPoly, delta_power, jones_substitute
from .tl import trace_braid_word

STATE_SUM_MAX_LETTERS = 24
# Rows per block of partial states; a block that would grow past this goes
# on as two halves, depth first, so memory stays bounded for any N.
_STATE_SUM_BLOCK_ROWS = 1 << 12


class StateSumCapError(ValueError):
    """Raised when a word is too long for the exhaustive smoothing oracle."""


def bracket_state_sum(word: BraidWord) -> LaurentPoly:
    """Bracket polynomial by brute-force smoothing enumeration (N <= 24).

    Every crossing is replaced by the strand-preserving smoothing (weight
    A for a positive letter, A^-1 for a negative one) or the cup-cap
    smoothing (the opposite weight); each of the 2^N states contributes its
    weight product times delta^(loops - 1). Use bracket_via_tl for words
    past the cap.

    The crossings are read top to bottom. Each of the t touched strand
    positions has two int8 label rows, one for the arc now at that
    position and one for its top arc, which the closure joins to the
    position's last arc; both start with the position's own label. The
    strand-preserving smoothing leaves the rows as they are. The cup-cap
    smoothing joins the two arcs above the crossing, closing a loop when
    their labels are equal and otherwise relabelling one path to the other,
    and gives both arcs below it the fresh label t + c. After a position's
    last crossing its two rows are joined the same way and dropped. Rows
    are ordered by last crossing, latest first, so the rows still read are
    always a prefix of the block.

    States are enumerated depth first in numpy blocks of at most
    _STATE_SUM_BLOCK_ROWS columns that share a common prefix of crossings,
    one column per state, so every numpy call runs along the states. Each
    state also carries one int16 key, (exponent + N) * (t + N + 1) +
    loops, and the keys of finished states are counted in one histogram.
    Every state keeps its own column to the end -- states are never merged
    by connectivity, which would turn the oracle into the transfer matrix
    of the TL route. The histogram is summed by Horner's rule in delta over
    the loop counts.
    """
    n, letters = word.strands, word.letters
    num = len(letters)
    if num > STATE_SUM_MAX_LETTERS:
        raise StateSumCapError(
            f"state sum enumerates 2^{num} smoothings; cap is "
            f"{STATE_SUM_MAX_LETTERS} letters -- use bracket_via_tl instead"
        )
    if num == 0:
        return delta_power(n - 1)

    last = {}  # strand position -> its last crossing
    for c, ell in enumerate(letters):
        last[abs(ell) - 1] = last[abs(ell)] = c
    order = sorted(last, key=last.__getitem__, reverse=True)
    row = {p: 2 * i for i, p in enumerate(order)}  # its arc's row; +1 top arc
    t = len(order)
    # Labels stay below t + N <= 72 and a state closes at most one loop per
    # join, N cup-caps and t closures, so keys stay below
    # (2N + 1) * (t + N + 1) <= 49 * 73.
    stride = t + num + 1
    steps = []
    for c, ell in enumerate(letters):
        a = abs(ell) - 1
        ends = sorted((row[p] for p in (a, a + 1) if last[p] == c), reverse=True)
        live = 2 * sum(1 for p in order if last[p] > c)
        steps.append((row[a], row[a + 1], stride if ell > 0 else -stride, ends, live))

    import numpy as np

    hist = np.zeros((2 * num + 1) * stride, dtype=np.int64)
    labels = np.repeat(np.arange(t, dtype=np.int8), 2)[:, None]
    stack = [(0, labels, np.array([num * stride], dtype=np.int16))]
    while stack:
        c, labels, keys = stack.pop()
        ra, rb, shift, ends, live = steps[c]
        # the strand-preserving half is a copy; the cup-cap half joins the
        # arcs above (relabelling b's path to a's) and labels those below
        la, lb = labels[ra], labels[rb]
        cup = labels + (labels == lb) * (la - lb)
        cup[ra] = cup[rb] = t + c
        labels = np.concatenate((labels, cup), axis=1)
        keys = np.concatenate((keys + shift, keys - shift + (la == lb)))
        for r in ends:  # close finished positions onto their top arcs, last
            # rows first, so that head still holds the other's rows
            x, y = labels[r], labels[r + 1]
            keys += x == y
            head = labels[:r]
            head += (head == y) * (x - y)
        if c + 1 == num:
            hist += np.bincount(keys, minlength=hist.size)
            continue
        labels, half = labels[:live], keys.size // 2
        if keys.size <= _STATE_SUM_BLOCK_ROWS:
            stack.append((c + 1, labels, keys))
        else:
            stack.append((c + 1, labels[:, :half], keys[:half]))
            stack.append((c + 1, labels[:, half:], keys[half:]))

    # Every exponent is N mod 2, so row j of counts is A^(2j - N). Horner in
    # delta = -A^2 - A^-2 over the loop counts, on int lists in steps of A^2:
    # after d products by delta, index i holds A^(2i - N - 2d).
    counts = hist.reshape(2 * num + 1, stride)[::2]
    used = np.flatnonzero(counts.any(axis=0)).tolist()
    lo, hi = used[0], used[-1]
    columns = counts[:, lo : hi + 1].T.tolist()
    total = columns.pop()
    for depth, column in enumerate(reversed(columns), 1):
        total = [-x - y for x, y in zip([0, 0] + total, total + [0, 0])]
        for j, v in enumerate(column, depth):
            total[j] += v
    base = num + 2 * (hi - lo)
    poly = LaurentPoly({2 * i - base: v for i, v in enumerate(total) if v})
    return poly * delta_power(n - t + lo - 1)


def bracket_via_tl(word: BraidWord) -> LaurentPoly:
    """Bracket polynomial via the Temperley-Lieb rewrite and Markov trace.

    Raises ValueError when the word exceeds tl.WORD_MAX_WORK or its TL
    state outgrows tl.STATE_MAX_DIAGRAMS diagrams or tl.STATE_MAX_BITS bits.
    """
    return trace_braid_word(word)


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
