"""Bracket and Jones polynomials of braid closures, two independent ways.

The production path rewrites the braid word in the Temperley-Lieb algebra
and closes it with the Markov trace, in one pass of the fused state-vector
engine of tl.trace_braid_word. The oracle path enumerates all 2^N
crossing smoothings of the closed diagram (Kauffman's state model) and
counts each state's loops directly: the 2N arcs between crossings are
vertices, each smoothing joins them in pairs, and the loops are the
connected components plus the strand positions no crossing touches. It
never touches the diagram algebra, so agreement between the two is a real
cross-check rather than a tautology.
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

    A state's loops are counted as components of a graph on the 2N static
    arcs: at each crossing the strand-preserving smoothing joins the NW arc
    to the SW arc and NE to SE, the cup-cap smoothing joins NW to NE and SW
    to SE. States are enumerated in numpy blocks that share the joins of a
    common prefix of crossings, but every state keeps its own row to the
    end -- states are never merged by connectivity, which would turn the
    oracle into the transfer matrix of the TL route.
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

    # Ports 4c..4c+3 are crossing c's NW, NE, SW, SE stubs. Static arc k
    # joins a crossing's bottom stub to the next top stub at the same strand
    # position, wrapping bottom-to-top through the closure; positions no
    # crossing touches are standalone circles in every state.
    touched: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for c, ell in enumerate(letters):
        a = abs(ell) - 1
        touched[a].append((c, 0))
        touched[a + 1].append((c, 1))
    free_loops = sum(1 for events in touched if not events)
    arc = [0] * (4 * num)
    arcs = 0
    for events in touched:
        for (c1, s1), (c2, s2) in zip(events, events[1:] + events[:1]):
            arc[4 * c1 + 2 + s1] = arc[4 * c2 + s2] = arcs
            arcs += 1

    import numpy as np

    # Each row of a block is one partial state: a component label per live
    # arc, the component count and the exponent of A so far. An arc's
    # column is dropped after the last crossing that touches it, since no
    # later join reads its label.
    last = [0] * arcs
    for port, k in enumerate(arc):
        last[k] = port // 4
    live = list(range(arcs))
    steps = []
    for c, ell in enumerate(letters):
        col = {k: i for i, k in enumerate(live)}
        nw, ne, sw, se = (col[k] for k in arc[4 * c : 4 * c + 4])
        sign = 1 if ell > 0 else -1
        kept = [i for i, k in enumerate(live) if last[k] > c]
        live = [live[i] for i in kept]
        smoothings = ((sign, ((nw, sw), (ne, se))), (-sign, ((nw, ne), (sw, se))))
        steps.append((smoothings, np.array(kept, dtype=np.intp)))

    def smooth(labels, comps, joins, kept):
        # joining arcs a and b relabels b's component with a's label
        for a, b in joins:
            la, lb = labels[:, a : a + 1], labels[:, b : b + 1]
            comps = comps - (la[:, 0] != lb[:, 0])
            labels = np.where(labels == lb, la, labels)
        return labels[:, kept], comps

    hist = np.zeros((2 * num + 1) * (arcs + 1), dtype=np.int64)
    first = (np.arange(arcs, dtype=np.int8)[None, :], np.array([arcs]), np.array([0]))
    stack = [(0, *first)]
    while stack:
        c, labels, comps, exps = stack.pop()
        if c == num:
            keys = (exps + num) * (arcs + 1) + comps
            hist += np.bincount(keys, minlength=hist.size)
            continue
        smoothings, kept = steps[c]
        halves = [
            (*smooth(labels, comps, joins, kept), exps + shift)
            for shift, joins in smoothings
        ]
        if 2 * len(comps) <= _STATE_SUM_BLOCK_ROWS:
            halves = [tuple(np.concatenate(part) for part in zip(*halves))]
        stack.extend((c + 1, *half) for half in halves)

    # one polynomial per component count, times its delta power
    counts = hist.reshape(2 * num + 1, arcs + 1)
    total = LaurentPoly.zero()
    for components in np.flatnonzero(counts.any(axis=0)).tolist():
        column = counts[:, components].tolist()
        poly = LaurentPoly({s - num: c for s, c in enumerate(column) if c})
        total = total + poly * delta_power(free_loops + components - 1)
    return total


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
