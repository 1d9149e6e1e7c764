"""The diagrammatic Temperley-Lieb algebra and the braid group's image in it.

A TL diagram on n strands is a non-crossing perfect pairing of 2n boundary
points: top endpoints 0..n-1 left to right, bottom endpoints n..2n-1 left
to right. Composition stacks one diagram above another and harvests closed
loops; LaurentPoly-weighted formal sums of diagrams form the algebra, with
each closed loop worth a factor of the loop value -A^2 - A^-2.

Braid words take a fused path. Diagrams of each size are interned as ints
in a lazily filled table that memoizes the right action of every U_i, and
a word is one pass of updates to a state {diagram id: packed int}. Each
diagram's Laurent coefficient is packed into one Python int by Kronecker
substitution: the polynomial is evaluated at 2^B, one B-bit slot per
exponent. A letter follows the twist rule: a diagram with a cap at i traps
a loop under U_i, so the letter multiplies it in place by the monomial
-A^(-+3), and only the other diagrams are split into two copies. The
state's L1 norm therefore at most doubles per letter, and B = L + 2 bits
for L letters hold every coefficient and every sum of them. Each weight is
a left shift of 0, 1 or 2 slots, and the work runs in C on exact
integers. rep_braid_word unpacks every diagram into a TLElement;
trace_braid_word adds the packed ints per closure loop count and unpacks
only those sums. A packed int holds (2L + 1) * B bits, so the state is
capped both in diagrams (STATE_MAX_DIAGRAMS) and in bits (STATE_MAX_BITS),
and a word whose worst-case work exceeds WORD_MAX_WORK is refused before
its first letter. The general TLElement product and markov_trace serve the
exact relation suite.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

from .braid import BraidWord
from .laurent import LaurentPoly, delta_power


def _catalan(n: int) -> int:
    """The number of TL diagrams on n strands."""
    return math.comb(2 * n, n) // (n + 1)


ENUMERATION_MAX_N = 12
# Catalan(12): the braid-word state may hold no more diagrams than there are
# on the largest size enumerate_pairings supports.
STATE_MAX_DIAGRAMS = _catalan(ENUMERATION_MAX_N)
# Bits of packed coefficients the state may hold: diagrams times the slot
# bits of one packed polynomial, (2L + 1) * (L + 2) for L letters. The
# state's measured peak memory is about 0.9x this count (7 strands, 400
# random letters: 17.3 MB counted, 15.8 MB peak), so 2^30 bits bound it
# near 128 MiB. The benchmark's widest words count about 1.1M bits.
STATE_MAX_BITS = 1 << 30
# A word's worst-case work: letters times the bits of one packed polynomial
# times the most diagrams its state may hold (Catalan(n), capped as above).
# Each letter shifts and adds every diagram's int once or twice, so run time
# grows with this count. At 2^40 the slowest admitted words measured take
# about a minute (2-vCPU VM, Python 3.11): 68 s for sigma_1^6500 on 2
# strands and 63 s for (1 -2)^2394 on 3; random words at the budget took
# 28-35 s on 5, 7 and 12 strands (the last with its state near the bit cap).
WORD_MAX_WORK = 1 << 40


def _cyclic_position(endpoint: int, n: int) -> int:
    # Boundary order walks the top left to right, then the bottom right to
    # left, so chord crossings reduce to interval interleaving. The map is
    # its own inverse: it also gives the endpoint at a boundary position.
    return endpoint if endpoint < n else 3 * n - 1 - endpoint


class PlanarPairing:
    """A non-crossing pairing of the 2n boundary points of a TL diagram."""

    __slots__ = ("size", "partner")

    def __init__(self, size: int, partner):
        p = tuple(int(x) for x in partner)
        if size < 1:
            raise ValueError("size must be >= 1")
        if len(p) != 2 * size:
            raise ValueError(f"partner array must have length {2 * size}")
        for i, j in enumerate(p):
            if not 0 <= j < 2 * size:
                raise ValueError(f"endpoint {i} pairs out of range ({j})")
            if j == i or p[j] != i:
                raise ValueError("partner must be a fixed-point-free involution")
        # Non-crossing means the chords nest like brackets along the cyclic
        # boundary order: each chord must close the innermost one still open.
        open_ends = []
        for pos in range(2 * size):
            end = _cyclic_position(p[_cyclic_position(pos, size)], size)
            if end > pos:
                open_ends.append(end)
            elif open_ends.pop() != pos:
                raise ValueError("pairing has crossing chords")
        self.size = size
        self.partner = p

    @classmethod
    def _trusted(cls, size: int, partner: tuple) -> "PlanarPairing":
        """A pairing known to be valid, built without the checks.

        Only for pairings planar by construction: products of valid
        pairings (composing two non-crossing pairings gives a non-crossing
        pairing) and the bracket matchings of enumerate_pairings.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "partner", partner)
        return self

    def __setattr__(self, name, value):
        if hasattr(self, "partner"):
            raise AttributeError("PlanarPairing is immutable")
        object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, PlanarPairing):
            return NotImplemented
        return self.size == other.size and self.partner == other.partner

    def __hash__(self):
        return hash((self.size, self.partner))

    def __repr__(self):
        return f"PlanarPairing({self.size}, {list(self.partner)})"

    @classmethod
    def identity(cls, n: int) -> "PlanarPairing":
        """n vertical strands: top i paired with bottom n+i."""
        return cls(n, tuple(list(range(n, 2 * n)) + list(range(n))))

    @classmethod
    def generator(cls, n: int, i: int) -> "PlanarPairing":
        """The cup-cap diagram: top i-1,i joined, bottom n+i-1,n+i joined.

        Requires n >= 2 and 1 <= i <= n-1; all other strands run vertically.
        """
        if n < 2 or not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} invalid for {n} strands")
        partner = list(range(n, 2 * n)) + list(range(n))
        partner[i - 1], partner[i] = i, i - 1
        partner[n + i - 1], partner[n + i] = n + i, n + i - 1
        return cls(n, tuple(partner))

    def compose(self, other: "PlanarPairing") -> tuple["PlanarPairing", int]:
        """Stack self above other; return (resulting pairing, closed loops).

        self's bottom boundary is glued to other's top boundary. Loops are
        the circles trapped entirely in the glued middle layer.
        """
        if not isinstance(other, PlanarPairing) or other.size != self.size:
            raise ValueError("can only compose pairings of equal size")
        n = self.size
        p1, p2 = self.partner, other.partner
        partner = [-1] * (2 * n)
        mid_seen = [False] * n
        for start in range(2 * n):
            if partner[start] != -1:
                continue
            if start < n:
                cur, in_top = p1[start], True
            else:
                cur, in_top = p2[start], False
            while True:
                if in_top:
                    if cur < n:  # surfaced at the top boundary
                        end = cur
                        break
                    j = cur - n
                    mid_seen[j] = True
                    cur, in_top = p2[j], False
                else:
                    if cur >= n:  # surfaced at the bottom boundary
                        end = cur
                        break
                    mid_seen[cur] = True
                    cur, in_top = p1[n + cur], True
            partner[start] = end
            partner[end] = start
        loops = 0
        for j0 in range(n):
            if mid_seen[j0]:
                continue
            loops += 1
            j = j0
            while not mid_seen[j]:
                mid_seen[j] = True
                j_via_top = p1[n + j] - n  # stays internal: outer paths are done
                mid_seen[j_via_top] = True
                j = p2[j_via_top]
        return PlanarPairing._trusted(n, tuple(partner)), loops

    def closure_loops(self) -> int:
        """Loops of the trace closure joining top i to bottom n+i."""
        n = self.size
        p = self.partner
        seen = [False] * (2 * n)
        loops = 0
        for start in range(2 * n):
            if seen[start]:
                continue
            loops += 1
            x = start
            while not seen[x]:
                seen[x] = True
                y = p[x]
                seen[y] = True
                x = y + n if y < n else y - n
        return loops

    def to_json(self) -> dict:
        return {"n": self.size, "partner": list(self.partner)}

    @classmethod
    def from_json(cls, data: dict) -> "PlanarPairing":
        return cls(int(data["n"]), tuple(int(x) for x in data["partner"]))


def enumerate_pairings(n: int) -> list[PlanarPairing]:
    """All non-crossing pairings of 2n points (Catalan(n) of them), n <= 12.

    Returned sorted by partner array so the order is canonical.
    """
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_N}")

    def matchings(positions):
        if not positions:
            yield []
            return
        first = positions[0]
        for k in range(1, len(positions), 2):
            inner, outer = positions[1:k], positions[k + 1 :]
            for m1 in matchings(inner):
                for m2 in matchings(outer):
                    yield [(first, positions[k])] + m1 + m2

    # A bracket matching of the boundary order is non-crossing, so every
    # pairing is built without the public constructor's checks.
    result = []
    for matching in matchings(tuple(range(2 * n))):
        partner = [-1] * (2 * n)
        for pa, pb in matching:
            ea, eb = _cyclic_position(pa, n), _cyclic_position(pb, n)
            partner[ea], partner[eb] = eb, ea
        result.append(PlanarPairing._trusted(n, tuple(partner)))
    result.sort(key=lambda d: d.partner)
    return result


class TLElement:
    """A formal LaurentPoly-weighted sum of TL diagrams of one size."""

    __slots__ = ("size", "_terms")

    def __init__(self, size: int, terms: dict[PlanarPairing, LaurentPoly] | None = None):
        clean = {}
        for diagram, coeff in (terms or {}).items():
            if diagram.size != size:
                raise ValueError("diagram size mismatch")
            if not coeff.is_zero():
                clean[diagram] = coeff
        self.size = size
        self._terms = clean

    def __setattr__(self, name, value):
        if hasattr(self, "_terms"):
            raise AttributeError("TLElement is immutable")
        object.__setattr__(self, name, value)

    @classmethod
    def identity(cls, n: int) -> "TLElement":
        return cls(n, {PlanarPairing.identity(n): LaurentPoly.one()})

    @classmethod
    def generator(cls, n: int, i: int) -> "TLElement":
        return cls(n, {PlanarPairing.generator(n, i): LaurentPoly.one()})

    @property
    def terms(self) -> dict[PlanarPairing, LaurentPoly]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def scale(self, poly: LaurentPoly) -> "TLElement":
        return TLElement(self.size, {d: c * poly for d, c in self._terms.items()})

    def __add__(self, other):
        if not isinstance(other, TLElement) or other.size != self.size:
            return NotImplemented
        acc = dict(self._terms)
        for d, c in other._terms.items():
            acc[d] = acc[d] + c if d in acc else c
        return TLElement(self.size, acc)

    def __mul__(self, other):
        """Algebra product: compose diagrams, each trapped loop worth delta."""
        if not isinstance(other, TLElement) or other.size != self.size:
            return NotImplemented
        acc: dict[PlanarPairing, LaurentPoly] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                d, loops = d1.compose(d2)
                coeff = c1 * c2 * delta_power(loops)
                acc[d] = acc[d] + coeff if d in acc else coeff
        return TLElement(self.size, acc)

    def __eq__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        return self.size == other.size and self._terms == other._terms

    def __hash__(self):
        return hash((self.size, frozenset(self._terms.items())))

    def __repr__(self):
        body = ", ".join(
            f"{d!r}: {c!r}" for d, c in sorted(self._terms.items(), key=lambda t: t[0].partner)
        )
        return f"TLElement({self.size}, {{{body}}})"

    def to_json(self) -> dict:
        pairs = sorted(self._terms.items(), key=lambda t: t[0].partner)
        return {
            "n": self.size,
            "terms": [[d.to_json(), c.to_json()] for d, c in pairs],
        }


class _DiagramTable:
    """The diagrams of one size interned as ints, with the memoized U_i action.

    act[i - 1][d] is (id of d*U_i, loops trapped), or None until first
    needed; loops is 0 or 1. closure[d] is the loop count of diagram d's
    trace closure. Misses go through PlanarPairing.compose, whose products
    skip the public constructor's checks: a product of planar diagrams is
    planar, which tests/test_tl.py confirms for every entry up to 8 strands.
    """

    def __init__(self, n: int):
        self.diagrams: list[PlanarPairing] = []
        self.closure: list[int] = []
        self.act: list[list] = [[] for _ in range(n - 1)]
        self._ids: dict[tuple, int] = {}
        self._generators = [PlanarPairing.generator(n, i) for i in range(1, n)]
        self._lock = threading.Lock()
        self.identity = self.intern(PlanarPairing.identity(n))

    def intern(self, diagram: PlanarPairing) -> int:
        found = self._ids.get(diagram.partner)
        if found is None:
            with self._lock:  # an id must match its slot in every list
                found = self._ids.get(diagram.partner)
                if found is None:
                    found = len(self.diagrams)
                    self.diagrams.append(diagram)
                    self.closure.append(diagram.closure_loops())
                    for row in self.act:
                        row.append(None)
                    self._ids[diagram.partner] = found
        return found

    def fill(self, i: int, d: int) -> tuple[int, int]:
        """Compute, store and return act[i - 1][d]."""
        product, loops = self.diagrams[d].compose(self._generators[i - 1])
        entry = self.act[i - 1][d] = (self.intern(product), loops)
        return entry


_TABLES: dict[int, _DiagramTable] = {}


def _word_state(word: BraidWord) -> tuple[_DiagramTable, dict[int, int], Callable]:
    """The image of a braid word as {diagram id: packed polynomial}.

    Right-multiplies the identity by A^s*identity + A^-s*U_i for each
    letter s*i. A diagram's coefficient, a Laurent polynomial in A, is
    packed into one int (Kronecker substitution): slot k, `width` = L + 2
    bits wide for L letters, holds the coefficient of A^(top - 2k), where
    `top` is the exponent of slot 0.

    The twist rule: a diagram d whose product with U_i traps a loop has
    d*U_i = delta*d with delta = -A^2 - A^-2, so the letter sends it to
    (A^s + A^-s*delta)*d = -A^(-3s)*d, one monomial in place. Only the
    other diagrams send a copy, times A^-s, to d*U_i. Slot 0's exponent
    rises by 1 for a positive letter and by 3 for a negative one, so each
    weight is a left shift of 0, 1 or 2 slots: positive, a capped x becomes
    -(x << 2B) and an uncapped x stays; negative, a capped x becomes -x and
    an uncapped x becomes x << 2B; every uncapped x adds x << B at its
    target. A letter moves a coefficient at most 2 slots, so the word needs
    2L + 1 slots.

    Why B = L + 2 bits suffice: a capped diagram gets a monomial factor,
    so its norm does not change, and an uncapped one is split into two
    copies, so its norm at most doubles. The state's L1 norm therefore
    stays at or below 2^L. Every coefficient, and every sum of them over a
    closure loop count, lies in [-2^L, 2^L], inside a slot's
    [-2^(B-1), 2^(B-1)), so every value unpacks exactly.

    Returns the table, the state and the function that unpacks a state
    value -- or a sum of them -- into {exponent: coefficient}. Raises
    ValueError before the first letter when the word's worst-case work
    exceeds WORD_MAX_WORK, and once the state holds more than
    STATE_MAX_DIAGRAMS diagrams or more than STATE_MAX_BITS bits of slots.
    """
    n, letters = word.strands, word.letters
    width = len(letters) + 2
    slots = 2 * len(letters) + 1
    bits = slots * width
    max_diagrams = min(STATE_MAX_DIAGRAMS, STATE_MAX_BITS // bits, _catalan(n))
    if max_diagrams < 1:
        raise _cap_error(n, 1, bits)
    work = len(letters) * bits * max_diagrams
    if work > WORD_MAX_WORK:
        raise ValueError(
            f"braid word of {len(letters)} letters on {n} strands exceeds the "
            f"work budget of {WORD_MAX_WORK} (letters x bits per diagram x "
            f"diagrams: {work})"
        )
    table = _TABLES.get(n)
    if table is None:
        table = _TABLES.setdefault(n, _DiagramTable(n))
    state = {table.identity: 1}
    double = 2 * width
    top = 0  # exponent of slot 0; slot k holds A^(top - 2k)
    for ell in letters:
        i = abs(ell)
        act = table.act[i - 1]
        moved: dict[int, int] = {}
        if ell > 0:
            top += 1
            capped_shift, kept_shift = double, 0
        else:
            top += 3
            capped_shift, kept_shift = 0, double
        for d, x in state.items():
            target, loops = act[d] or table.fill(i, d)
            if loops:
                state[d] = -(x << capped_shift)
                continue
            if kept_shift:
                state[d] = x << kept_shift
            x <<= width
            if target in moved:
                moved[target] += x
            else:
                moved[target] = x
        for target, x in moved.items():
            if target in state:
                state[target] += x
            else:
                state[target] = x
        if len(state) > max_diagrams:
            raise _cap_error(n, len(state), bits)

    # Adding `half` to every slot makes each one a plain base-2^width digit.
    half = 1 << (width - 1)
    bias = ((1 << bits) - 1) // ((1 << width) - 1) * half
    low = top - 2 * (slots - 1)  # exponent of the highest slot, read first

    def unpack(packed: int) -> dict[int, int]:
        digits = format(packed + bias, "b").zfill(bits)
        terms = {}
        for j in range(0, bits, width):
            c = int(digits[j : j + width], 2) - half
            if c:
                terms[low + 2 * j // width] = c
        return terms

    return table, state, unpack


def _cap_error(n: int, diagrams: int, bits: int) -> ValueError:
    if diagrams > STATE_MAX_DIAGRAMS:
        return ValueError(
            f"TL state on {n} strands exceeds {STATE_MAX_DIAGRAMS} diagrams "
            f"(the Catalan({ENUMERATION_MAX_N}) cap)"
        )
    return ValueError(
        f"TL state on {n} strands exceeds {STATE_MAX_BITS} bits "
        f"(diagrams: {diagrams}, bits per diagram: {bits})"
    )


def rep_braid_word(word: BraidWord) -> TLElement:
    """Image of a braid word in the TL algebra.

    Each positive letter maps to A*identity + A^-1*cupcap and each negative
    letter to A^-1*identity + A*cupcap; the whole word is the left-to-right
    product. Closing up the result with the Markov trace gives the bracket
    polynomial of the braid closure (trace_braid_word does both at once).
    Raises ValueError when the word exceeds WORD_MAX_WORK or the state
    outgrows its caps (see _word_state).
    """
    table, state, unpack = _word_state(word)
    diagrams = table.diagrams
    return TLElement(
        word.strands, {diagrams[d]: LaurentPoly(unpack(x)) for d, x in state.items()}
    )


def trace_braid_word(word: BraidWord) -> LaurentPoly:
    """markov_trace(rep_braid_word(word)), without building the TLElement.

    Packed coefficients are summed per closure loop count first, so only
    those sums are unpacked and delta powers are multiplied in once per
    distinct count.
    """
    table, state, unpack = _word_state(word)
    closure = table.closure
    by_loops: dict[int, int] = {}
    for d, x in state.items():
        loops = closure[d]
        by_loops[loops] = by_loops.get(loops, 0) + x
    total = LaurentPoly.zero()
    for loops, x in by_loops.items():
        total = total + LaurentPoly(unpack(x)) * delta_power(loops - 1)
    return total


def markov_trace(element: TLElement) -> LaurentPoly:
    """Trace each diagram by its closure loops: a diagram with L loops
    contributes coefficient * delta^(L-1)."""
    total = LaurentPoly.zero()
    for diagram, coeff in element.terms.items():
        total = total + coeff * delta_power(diagram.closure_loops() - 1)
    return total
