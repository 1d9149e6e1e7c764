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
substitution, one B-bit slot per power of A^4: by Kauffman's mod-4
property, its exponents share one class mod 4, set by the word's writhe
and the parity of the diagram's closure loops. A letter follows the twist
rule: a diagram with a cap at i traps a loop under U_i, so the letter
multiplies it in place by the monomial -A^(-+3), and only the other
diagrams are split into two copies. The state's L1 norm at most doubles
per letter, to 2^L after L letters, and the trace's loop powers
delta^(l - 1), l <= n, add at most n - 1 bits, so B = L + n + 1 bits on n
strands hold every coefficient of the state and of its trace. Each weight
is a left shift of 0 or 1 slots, and the work runs in C on exact
integers. A letter runs as a loop over a sparse state; once the state
holds half of all Catalan(n) diagrams and the table knows them all, it is
zero-filled and each letter runs as a few bulk C-level updates planned
once per generator. rep_braid_word unpacks every diagram into a
TLElement; trace_braid_word adds the packed ints per closure loop count,
closes the sums by Horner's rule in delta in packed form and unpacks once.
The state is capped in diagrams (STATE_MAX_DIAGRAMS) and in bits
(STATE_MAX_BITS, counting (2L + 1) * B, about twice the L + 1 slots of a
packed int), and a word whose worst-case work exceeds WORD_MAX_WORK is
refused before its first letter. The general TLElement product and
markov_trace serve the exact relation suite, verify_relations, which
reports in the VerifyReport shape that fibrep's numeric suite shares.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import repeat
from operator import add, index, itemgetter, lshift, sub
from typing import Callable

from .braid import BraidWord
from .laurent import LaurentPoly, delta, delta_power


def _catalan(n: int) -> int:
    """The number of TL diagrams on n strands."""
    return math.comb(2 * n, n) // (n + 1)


def _span_dim(indices: set[int]) -> int:
    """Dimension of the TL subalgebra spanned by the generators U_i, i in
    indices: Catalan(k + 1) for each run of k adjacent indices, multiplied.

    Runs act on disjoint strands, and a run of k generators spans the whole
    algebra on its k + 1 strands; Catalan(n) when all n - 1 are used.
    """
    dim, run = 1, 0
    for i in range(1, max(indices, default=0) + 2):
        if i in indices:
            run += 1
        else:
            dim *= _catalan(run + 1)
            run = 0
    return dim


ENUMERATION_MAX_N = 12
# Catalan(12): the braid-word state may hold no more diagrams than there are
# on the largest size enumerate_pairings supports.
STATE_MAX_DIAGRAMS = _catalan(ENUMERATION_MAX_N)
# Bits the state may hold, counted as diagrams times (2L + 1) * (L + n + 1)
# for L letters on n strands, about twice its L + 1 slots per diagram. Its
# measured peak memory is about 0.46x this count (7 strands, 400 random
# letters: 17.5 MB counted, 8.1 MB peak), so 2^30 bits bound it near 64 MiB.
# The benchmark's widest words count about 1.2M bits.
STATE_MAX_BITS = 1 << 30
# A word's worst-case work: letters times the counted bits of one diagram
# times the most diagrams its state may hold (the dimension of the TL
# subalgebra its generators span, capped as above).
# Each letter shifts and adds every diagram's int once or twice, so run time
# grows with this count. At 2^40 the slowest admitted words measured take
# under half a minute (2-vCPU VM, Python 3.11): 27 s for sigma_1^6500 on 2
# strands and 15 s for (1 -2)^2394 on 3; random words at the budget took
# 9-11 s on 5, 7 and 12 strands (the last on generators 1-6, its state near
# the bit cap).
WORD_MAX_WORK = 1 << 40


def _cyclic_position(endpoint: int, n: int) -> int:
    # Boundary order walks the top left to right, then the bottom right to
    # left, so chord crossings reduce to interval interleaving. The map is
    # its own inverse: it also gives the endpoint at a boundary position.
    return endpoint if endpoint < n else 3 * n - 1 - endpoint


@dataclass(frozen=True, slots=True)
class PlanarPairing:
    """A non-crossing pairing of the 2n boundary points of a TL diagram."""

    size: int
    partner: tuple[int, ...]

    def __post_init__(self):
        size = index(self.size)
        p = tuple(map(index, self.partner))
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
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "partner", p)

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


@dataclass(frozen=True, slots=True, init=False)
class TLElement:
    """A formal LaurentPoly-weighted sum of TL diagrams of one size."""

    size: int
    _terms: dict[PlanarPairing, LaurentPoly]

    def __init__(self, size: int, terms: dict[PlanarPairing, LaurentPoly] | None = None):
        clean = {}
        for diagram, coeff in (terms or {}).items():
            if diagram.size != size:
                raise ValueError("diagram size mismatch")
            if not coeff.is_zero():
                clean[diagram] = coeff
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_terms", clean)

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
    Once every diagram is interned, plan(i) gives U_i's action on a dense
    state.
    """

    def __init__(self, n: int):
        self.catalan = _catalan(n)
        self.diagrams: list[PlanarPairing] = []
        self.closure: list[int] = []
        self.act: list[list] = [[] for _ in range(n - 1)]
        self._plans: list = [None] * (n - 1)
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
                    self.closure.append(diagram.closure_loops())
                    for row in self.act:
                        row.append(None)
                    # last, so that a table whose diagrams number Catalan(n)
                    # has every list filled
                    self.diagrams.append(diagram)
                    self._ids[diagram.partner] = found
        return found

    def fill(self, i: int, d: int) -> tuple[int, int]:
        """Compute, store and return act[i - 1][d]."""
        product, loops = self.diagrams[d].compose(self._generators[i - 1])
        entry = self.act[i - 1][d] = (self.intern(product), loops)
        return entry

    def plan(self, i: int) -> "_LetterPlan":
        """The cached _LetterPlan of U_i; the table must be complete."""
        found = self._plans[i - 1]
        if found is None:
            found = self._plans[i - 1] = _LetterPlan(self, i)
        return found


class _LetterPlan:
    """U_i's action on a state that holds every diagram, as bulk updates.

    Every image d*U_i is capped for U_i (d*U_i*U_i = delta*d*U_i), so the
    uncapped diagrams only send and the capped ones only receive. Each
    capped t has a source, t*U_(i+-1) (on 2 strands the identity), and all
    of parity 1 - h(t) (see _word_state). parts holds (targets, columns, h)
    per parity, targets with the most sources first; the j-th column
    gathers the j-th source of each of the first len(column) targets, so a
    target of k sources costs k - 1 additions.
    """

    def __init__(self, table: _DiagramTable, i: int):
        act = table.act[i - 1]
        n = len(table.act) + 1
        sources: dict[int, list[int]] = {}
        capped, self.uncapped = [], []
        for d in range(table.catalan):
            target, loops = act[d] or table.fill(i, d)
            if loops:
                capped.append(d)
            else:
                self.uncapped.append(d)
                sources.setdefault(target, []).append(d)
        capped.sort(key=lambda t: -len(sources[t]))
        self.parts = []
        for h in (0, 1):
            targets = [t for t in capped if (n - table.closure[t]) & 1 == h]
            if targets:
                first, *rest = [
                    [sources[t][j] for t in targets if len(sources[t]) > j]
                    for j in range(len(sources[targets[0]]))
                ]
                self.parts.append((targets, first, rest, h))

    def apply(self, state: dict[int, int], width: int, positive: bool) -> None:
        """One letter, in place, with the weights of _word_state."""
        get = state.__getitem__
        for targets, first, rest, h in self.parts:
            moved = list(map(get, first))
            for column in rest:
                moved[: len(column)] = map(add, moved, map(get, column))
            # each old value is read just before its key is written, so no
            # letter holds two copies of the state
            capped = map(get, targets)
            if positive and h:  # (moved - x) << B
                values = map(lshift, map(sub, moved, capped), repeat(width))
            elif positive:  # moved - (x << B)
                values = map(sub, moved, map(lshift, capped, repeat(width)))
            else:  # (moved << B when h = 1) - x
                shifted = map(lshift, moved, repeat(width)) if h else moved
                values = map(sub, shifted, capped)
            state.update(zip(targets, values))
        if not positive:  # uncapped x become x << B
            values = map(lshift, map(get, self.uncapped), repeat(width))
            state.update(zip(self.uncapped, values))


_TABLES: dict[int, _DiagramTable] = {}


def _word_state(
    word: BraidWord,
) -> tuple[_DiagramTable, dict[int, int], tuple[int, int]]:
    """The image of a braid word as {diagram id: packed polynomial}.

    Right-multiplies the identity by A^s*identity + A^-s*U_i for each
    letter s*i. A diagram's coefficient, a Laurent polynomial in A, is
    packed into one int (Kronecker substitution): slot k of diagram d,
    `width` B bits wide, holds the coefficient of A^(top + 2h(d) - 4k),
    with h(d) = (n - closure loops of d) mod 2; `top` rises by 1 for a
    positive letter and by 3 for a negative one.

    The twist rule: a diagram d whose product with U_i traps a loop has
    d*U_i = delta*d with delta = -A^2 - A^-2, so the letter sends it to
    (A^s + A^-s*delta)*d = -A^(-3s)*d, one monomial in place. Only the
    other diagrams send a copy, times A^-s, to t = d*U_i; the closures of
    d*1 and t differ by one smoothing, so by one loop, and h(t) = 1 - h(d).
    This parity rule keeps d's exponents in the class of top + 2h(d) mod 4
    and makes each weight a shift of 0 or 1 slots: positive, a capped x
    becomes -(x << B) and an uncapped x stays; negative, a capped x becomes
    -x and an uncapped x becomes x << B; each target t adds the sum of its
    sources, shifted by B when h(t) = 1. L letters need L + 1 slots.

    Why B = L + n + 1 bits for n strands: a capped diagram gets a monomial
    factor, so its norm does not change, and an uncapped one is split into
    two copies, so its norm at most doubles. The state's L1 norm therefore
    stays at or below 2^L. trace_braid_word weights the state's sum over
    diagrams with l closure loops by delta^(l - 1), whose L1 norm is
    2^(l - 1) with l <= n, so every coefficient of the bracket lies in
    [-2^(L + n - 1), 2^(L + n - 1)], inside a slot's [-2^(B-1), 2^(B-1)),
    and unpacks exactly; so does every coefficient of the state itself.

    A letter runs as a loop over the state's diagrams while the state is
    sparse. Once the table holds all Catalan(n) diagrams, the caps admit
    that many and the state holds at least half of them, the state is
    zero-filled to every diagram and each later letter runs as the bulk
    updates of _LetterPlan.apply; such a state never outgrows the caps.

    Returns the table, the state and (B, top). Raises ValueError before the
    first letter when the word's worst-case work exceeds WORD_MAX_WORK,
    and once the state holds more than STATE_MAX_DIAGRAMS diagrams or more
    than STATE_MAX_BITS bits of slots.
    """
    n, letters = word.strands, word.letters
    width = len(letters) + n + 1
    bits = (2 * len(letters) + 1) * width
    reachable = _span_dim({abs(ell) for ell in letters})
    max_diagrams = min(STATE_MAX_DIAGRAMS, STATE_MAX_BITS // bits, reachable)
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
    catalan = table.catalan
    may_densify = catalan <= max_diagrams
    dense = False
    state = {table.identity: 1}
    top = 0  # slot k of diagram d holds A^(top + 2h(d) - 4k)
    for ell in letters:
        i = abs(ell)
        top += 1 if ell > 0 else 3
        if (
            not dense
            and may_densify
            and 2 * len(state) >= catalan
            and len(table.diagrams) == catalan
        ):
            state = {**dict.fromkeys(range(catalan), 0), **state}
            dense = True
        if dense:
            table.plan(i).apply(state, width, ell > 0)
            continue
        act = table.act[i - 1]
        moved: dict[int, int] = {}
        if ell > 0:
            capped_shift, kept_shift = width, 0
        else:
            capped_shift, kept_shift = 0, width
        for d, x in state.items():
            target, loops = act[d] or table.fill(i, d)
            if loops:
                state[d] = -(x << capped_shift)
                continue
            if kept_shift:
                state[d] = x << kept_shift
            if target in moved:
                moved[target] += x
            else:
                moved[target] = x
        for target, x in moved.items():
            if (n - table.closure[target]) & 1:
                x <<= width
            if target in state:
                state[target] += x
            else:
                state[target] = x
        if len(state) > max_diagrams:
            raise _cap_error(n, len(state), bits)
    if dense:  # drop the zero fill
        state = dict(filter(itemgetter(1), state.items()))
    return table, state, (width, top)


def _unpacker(width: int, slots: int, top: int) -> Callable[[int], dict[int, int]]:
    """The function that unpacks a value of `slots` slots of `width` bits,
    slot k holding the coefficient of A^(top - 4k), into {exponent: coefficient}."""
    # Slots are read low first from the value's two's complement bytes, as
    # balanced base-2^width digits: a digit of half or more is negative and
    # borrows one from the next slot. Memory stays near the value's own size.
    size = (slots * width + 7) // 8
    mask = (1 << width) - 1
    half = 1 << (width - 1)

    def unpack(packed: int) -> dict[int, int]:
        data = packed.to_bytes(size, "little", signed=True)
        terms = {}
        borrow = 0
        for k in range(slots):
            start = k * width
            chunk = data[start >> 3 : (start + width + 7) >> 3]
            c = (int.from_bytes(chunk, "little") >> (start & 7) & mask) + borrow
            borrow = c >= half
            if borrow:
                c -= mask + 1
            if c:
                terms[top - 4 * k] = c
        return terms

    return unpack


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
    table, state, (width, top) = _word_state(word)
    n, closure, diagrams = word.strands, table.closure, table.diagrams
    unpack = [_unpacker(width, len(word.letters) + 1, top + 2 * h) for h in (0, 1)]
    terms = {d: unpack[(n - closure[d]) & 1](x) for d, x in state.items()}
    return TLElement(n, {diagrams[d]: LaurentPoly(c) for d, c in terms.items()})


def trace_braid_word(word: BraidWord) -> LaurentPoly:
    """markov_trace(rep_braid_word(word)), without building the TLElement.

    Packed coefficients are summed per closure loop count l, and the sums
    S_l are closed by Horner's rule in packed form: delta = A^2 * -(1 + A^-4),
    so one factor of delta is -(x + (x << B)) with slot 0 moved up by A^2,
    and S_l, whose slot 0 sits 2((n - l) mod 2) above `top`, enters shifted
    by (n - l) // 2 slots to meet it. The result, L + n slots of A^4 for n
    strands and L letters, is unpacked once.
    """
    table, state, (width, top) = _word_state(word)
    n = word.strands
    closure = table.closure
    by_loops = [0] * (n + 1)
    for d, x in state.items():
        by_loops[closure[d]] += x
    total = 0
    for ell in range(n, 0, -1):  # S_n first, S_1 last
        total = (by_loops[ell] << (n - ell) // 2 * width) - (total + (total << width))
    slots = len(word.letters) + n
    return LaurentPoly(_unpacker(width, slots, top + 2 * (n - 1))(total))


def markov_trace(element: TLElement) -> LaurentPoly:
    """Trace each diagram by its closure loops: a diagram with L loops
    contributes coefficient * delta^(L-1)."""
    total = LaurentPoly.zero()
    for diagram, coeff in element.terms.items():
        total = total + coeff * delta_power(diagram.closure_loops() - 1)
    return total


@dataclass(frozen=True)
class RelationCheck:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    """Relation-by-relation residuals for one parameter point.

    delta and tol are None on the exact suite (verify_relations): its loop
    value is the polynomial -A^2 - A^-2, not a number, and a row passes only
    on equality, with residual 0.0 when it holds and math.inf when not.
    """

    n: int
    delta: float | None
    tol: float | None
    checks: tuple[RelationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def generator_pairs(k: int) -> tuple[list, list]:
    """The (near, far) index pairs of k generators: |i-j| = 1, and i + 1 < j."""
    near = [(i, j) for i in range(k) for j in (i - 1, i + 1) if 0 <= j < k]
    far = [(i, j) for i in range(k) for j in range(i + 2, k)]
    return near, far


def verify_relations(n: int) -> VerifyReport:
    """The Temperley-Lieb relations on n strands, exactly in the diagram algebra.

    Checks U_i U_i = delta U_i, U_i U_j U_i = U_i for adjacent i and j,
    U_i U_j = U_j U_i for distant ones, and trace(U_i U_j) = trace(U_j U_i),
    comparing LaurentPoly coefficients with ==. Raises ValueError when n is
    outside 1..ENUMERATION_MAX_N.
    """
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"n must be in 1..{ENUMERATION_MAX_N}")
    dlt = delta()
    gens = [TLElement.generator(n, i) for i in range(1, n)]
    k = len(gens)
    near, far = generator_pairs(k)

    def holds(pairs) -> bool:
        return all(lhs == rhs for lhs, rhs in pairs)

    rows = {
        "U_i U_i = delta U_i": holds((g * g, g.scale(dlt)) for g in gens),
        "U_i U_j U_i = U_i (|i-j| = 1)": holds(
            (gens[i] * gens[j] * gens[i], gens[i]) for i, j in near
        ),
        "U_i U_j = U_j U_i (|i-j| > 1)": holds(
            (gens[i] * gens[j], gens[j] * gens[i]) for i, j in far
        ),
        "trace(U_i U_j) = trace(U_j U_i)": holds(
            (markov_trace(gens[i] * gens[j]), markov_trace(gens[j] * gens[i]))
            for i in range(k)
            for j in range(k)
        ),
    }
    checks = tuple(
        RelationCheck(name, 0.0 if ok else math.inf, ok) for name, ok in rows.items()
    )
    return VerifyReport(n=n, delta=None, tol=None, checks=checks)
