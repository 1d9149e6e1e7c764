"""The golden-ratio representation of the Temperley-Lieb algebra on
Fibonacci sequence spaces, and the unitary braid representation it induces.

States of the n-label space are strings over {P, *} with no two adjacent
stars, read as if flanked by P on both ends; there are f_{n+1} of them
(f_0 = f_1 = 1). Temperley-Lieb generators U_1 .. U_{n+1} of the algebra
on n+2 strands act by a local three-symbol window rule, and braid
generators act as A*I + A^-1*U_i with A on the unit circle. At loop value
+-golden ratio with a matching phase the braid action is unitary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tl import RelationCheck, VerifyReport, generator_pairs

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
FIBONACCI_PHASE = 3.0 * math.pi / 5.0

SEQUENCE_MAX_N = 25  # f_26 = 196418 strings; enumeration stays snappy
MATRIX_MAX_N = 12  # dense matrices up to dimension f_13 = 377


def fib_dim(n: int) -> int:
    """Dimension f_{n+1} of the length-n sequence space (f_0 = f_1 = 1)."""
    if n < 0:
        raise ValueError("sequence length must be >= 0")
    prev, cur = 1, 1
    for _ in range(n):
        prev, cur = cur, prev + cur
    return cur


_LETTERS = str.maketrans("01", "P*")


@lru_cache(maxsize=None)
def fib_sequences(n: int) -> tuple[str, ...]:
    """All length-n strings over {P, *} with no two adjacent stars.

    Lexicographic with P < *, so e.g. n=2 lists PP, P*, *P, and n=0 lists
    the empty string. The count is always fib_dim(n). Supports
    0 <= n <= 25.
    """
    if not 0 <= n <= SEQUENCE_MAX_N:
        raise ValueError(f"sequence enumeration supports 0 <= n <= {SEQUENCE_MAX_N}")
    # a leading 1 bit fixes the width at n + 1 digits, even at n = 0
    top = 1 << n
    return tuple(
        [format(s | top, "b")[1:].translate(_LETTERS) for s in _fib_states(n).tolist()]
    )


@dataclass(frozen=True)
class ModelParams:
    """A point of the representation: the loop value delta and the
    argument a_phase of the bracket variable A on the unit circle.

    The rest is derived on read: the window-rule couplings a = 1/delta and
    b = sqrt(1 - delta^-2), and the exchange eigenvalues lam = conj(A) and
    mu = -lam^-3. Build instances with make_params or fibonacci_params,
    which check both numbers.
    """

    delta: float
    a_phase: float

    @property
    def a(self) -> float:
        return 1.0 / self.delta

    @property
    def b(self) -> float:
        return math.sqrt(1.0 - self.a * self.a)

    @property
    def lam(self) -> complex:
        return cmath.exp(1j * self.a_phase).conjugate()

    @property
    def mu(self) -> complex:
        return -(self.lam ** -3)


def compatible_phase(delta: float) -> float:
    """A phase theta with -2*cos(2*theta) == delta, when one exists.

    Prefers the classic 3*pi/5 at the golden point; for |delta| <= 2 picks
    the principal solution, and falls back to 3*pi/5 when no unit-circle
    phase can reproduce delta.
    """
    if abs(delta - GOLDEN_RATIO) < 1e-9:
        return FIBONACCI_PHASE
    if abs(delta) <= 2.0:
        return 0.5 * math.acos(max(-1.0, min(1.0, -delta / 2.0)))
    return FIBONACCI_PHASE


def make_params(delta: float, a_phase: float | None = None) -> ModelParams:
    """Build ModelParams for a given loop value.

    Requires a finite delta with delta^2 >= 1 so b is real, and a finite
    a_phase when given; when a_phase is omitted a phase compatible with
    delta is chosen. The exchange eigenvalues are lam = conj(A) and
    mu = -lam^-3, under which delta = lam*(mu - lam) holds at every
    compatible phase.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if delta * delta < 1.0:
        raise ValueError("b = sqrt(1 - delta^-2) requires delta^2 >= 1")
    if a_phase is None:
        a_phase = compatible_phase(delta)
    elif not math.isfinite(a_phase):
        raise ValueError(f"phase must be finite, got {a_phase!r}")
    return ModelParams(delta=delta, a_phase=a_phase)


def fibonacci_params(sign: int = 1, a_phase: float | None = None) -> ModelParams:
    """Parameters at loop value sign * golden ratio (sign is +1 or -1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return make_params(sign * GOLDEN_RATIO, a_phase)


@lru_cache(maxsize=None)
def _fib_states(n: int) -> np.ndarray:
    """The basis of fib_sequences(n) as ints, letter k at bit n-1-k with
    * = 1; fib_sequences writes these out as strings.

    Numeric order is the basis order (P < *). Built by the recursion
    states(n) = states(n-1) ++ (1 << (n-1) | states(n-2)): a string is P
    followed by any string one letter shorter, or *P followed by any string
    two letters shorter, from states(0) = [0], the empty string, and
    states(-1) = [0]. The array is cached, so it is read-only.
    """
    prev = cur = np.zeros(1, dtype=np.int64)
    for k in range(n):
        prev, cur = cur, np.concatenate((cur, (1 << k) | prev))
    cur.flags.writeable = False
    return cur


@lru_cache(maxsize=None)
def _shift(n: int, mask: int) -> np.ndarray:
    """Gather index from each basis index r of fib_sequences(n) to the index
    of the state _fib_states(n)[r] ^ mask, with one pad index dim appended.
    mask may set bits 0 .. n, bit n being the left flank's P.

    Rows whose partner is not a state, and the pad itself, go to the pad.
    The array is cached per mask, so it is read-only.
    """
    states = _fib_states(n)
    dim = len(states)
    # partners with bit n set are never states: they land on the pad
    index = np.full(2 << n, dim)
    index[states] = np.arange(dim)
    pick = np.append(index[states ^ mask], dim)
    pick.flags.writeable = False
    return pick


@lru_cache(maxsize=None)
def _generator_layout(n: int, i: int) -> tuple[tuple[int, np.ndarray], ...]:
    """U_i on fib_sequences(n) as mask slots ((mask, kind), ...): the
    diagonal (mask 0), then the flip of the center bit, 1 << (n + 1 - i).

    As in _Sparse, row r of slot mask is the entry in the column whose
    state is _fib_states(n)[r] ^ mask; kind[r] says which of
    (a, delta - a, delta, b, 0) it holds, and the pad row, last, holds 0.
    The center of U_1 is the left flank's P, so its flip partners are no
    states and its flip slot is all 0. Depends on no parameter, so it is
    cached per (n, i) and its arrays are read-only.
    """
    states = _fib_states(n)
    # the padded string "*P" + x + "P" as bits; U_i reads bits n+3-i..n+1-i
    window = (((2 << (n + 1)) | (states << 1)) >> (n + 1 - i)) & 7
    star = window == 0b010  # (P, *, P): the neighbors of a star are P
    empty = window == 0b000  # (P, P, P)
    loop = window == 0b101  # (*, P, *)
    # (*, P, P) and (P, P, *) windows contribute nothing
    diagonal = np.append(np.select([star, empty, loop], [0, 1, 2], 4), 4)
    flip = 1 << (n + 1 - i)
    # row r holds b when its partner column sends b
    sends_b = np.append(star | empty, False)
    layout = ((0, diagonal), (flip, np.where(sends_b[_shift(n, flip)], 3, 4)))
    for _, kind in layout:
        kind.flags.writeable = False
    return layout


def _generator_slots(n: int, i: int, params: ModelParams) -> dict[int, np.ndarray]:
    """U_i on fib_sequences(n) as _Sparse mask slots {mask: values}.

    The masks and kinds are the cached, read-only layout of
    _generator_layout; only the values are built per call, gathered from
    the four couplings and a 0.
    """
    if not 1 <= n <= MATRIX_MAX_N:
        raise ValueError(f"matrices support 1 <= n <= {MATRIX_MAX_N}")
    if not 1 <= i <= n + 1:
        raise ValueError(f"generator index {i} out of range 1..{n + 1}")
    # delta - a is delta*b^2, via the exact identity delta*(1 - 1/delta^2)
    couplings = np.array(
        [params.a, params.delta - params.a, params.delta, params.b, 0.0]
    )
    layout = _generator_layout(n, i)
    return {mask: couplings[kind] for mask, kind in layout}


def tl_generator_matrix(n: int, i: int, params: ModelParams) -> np.ndarray:
    """Matrix of U_i (1 <= i <= n+1) on fib_sequences(n), columns acting.

    The window rule pads the string x to y = "*P" + x + "P" and lets U_i
    read (y[i-1], y[i], y[i+1]), rewriting the center:

        (P, *, P) -> a*(P, *, P) + b*(P, P, P)
        (P, P, P) -> b*(P, *, P) + (delta - a)*(P, P, P)
        (*, P, *) -> delta * unchanged
        (*, P, P) and (P, P, *) -> 0

    (delta - a equals delta*b^2.) The leading "*P" padding only ever meets
    the two diagonal rules, so the flanks are never rewritten, and U_(n+1)
    reads the trailing "P" as any other P. States are held as integer
    bitmasks (letter k at bit n-1-k, * = 1), so the window is read with
    shifts, and the matrix is the mask slots of _generator_slots scattered
    into a dense array.
    """
    # the slots check n first, so n <= 0 is refused with the matrix bound
    slots = _generator_slots(n, i, params)
    dim = fib_dim(n)
    mat = np.zeros((dim, dim))
    for mask, values in slots.items():
        cols = _shift(n, mask)[:dim]
        rows = np.flatnonzero(cols < dim)
        mat[rows, cols[rows]] = values[rows]
    return mat


def braid_generator_matrix(
    n: int, i: int, params: ModelParams, inverse: bool = False
) -> np.ndarray:
    """Braid generator A*I + A^-1*U_i (swap the weights when inverse)."""
    u = tl_generator_matrix(n, i, params)
    lam = params.lam  # A^-1, as A is on the unit circle
    ci, cu = (lam, lam.conjugate()) if inverse else (lam.conjugate(), lam)
    return ci * np.eye(len(u), dtype=complex) + cu * u


def braid_word_matrix(word, basis_n: int, params: ModelParams) -> np.ndarray:
    """Left-to-right product of generator matrices for a braid word.

    The word must live on basis_n + 2 strands: the algebra on n+2 strands
    is what acts on length-n sequences. basis_n must be in
    1..MATRIX_MAX_N, as for every generator matrix, even for an empty word.
    """
    if not 1 <= basis_n <= MATRIX_MAX_N:
        raise ValueError(f"matrices support 1 <= n <= {MATRIX_MAX_N}")
    if word.strands != basis_n + 2:
        raise ValueError(
            f"word on {word.strands} strands needs basis_n = {word.strands - 2}"
        )
    dim = fib_dim(basis_n)
    mat = np.eye(dim, dtype=complex)
    for ell in word.letters:
        mat = mat @ braid_generator_matrix(basis_n, abs(ell), params, inverse=ell < 0)
    return mat


def f_matrix(params: ModelParams) -> np.ndarray:
    """The 2x2 basis-change involution [[a, b], [b, -a]] on {|*>, |P>}."""
    a, b = params.a, params.b
    return np.array([[a, b], [b, -a]])


def r_matrix(params: ModelParams) -> np.ndarray:
    """The local exchange matrix diag(mu, lam) on {|*>, |P>}.

    With lam = conj(A) at the golden point this is
    diag(e^(4*pi*i/5), -e^(2*pi*i/5)), the classic Fibonacci braiding
    eigenvalues; it coincides with the inverse braid generator on one
    label, basis order swapped.
    """
    return np.array([[params.mu, 0.0], [0.0, params.lam]], dtype=complex)


def theta_validity(theta: float) -> bool:
    """Whether b is real at phase theta: cos(2*theta)^2 >= 1/4.

    True exactly on [0, pi/6] u [pi/3, 2pi/3] u [5pi/6, 7pi/6] u
    [4pi/3, 5pi/3] modulo 2pi, boundaries included (up to float slack).
    """
    return math.cos(2.0 * theta) ** 2 >= 0.25 - 1e-12


@dataclass(frozen=True, eq=False)
class ThreeStrandFamily:
    """The one-parameter family of 2x2 three-strand representations."""

    theta: float
    delta: float
    u: np.ndarray
    f: np.ndarray
    v: np.ndarray
    r: np.ndarray
    s: np.ndarray


def three_strand_family(theta: float) -> ThreeStrandFamily:
    """2x2 matrices generating the three-strand braid representation.

    On basis order {|*>, |P>}: U = diag(delta, 0), F the involution from
    f_matrix, V = F U F, and the braid generator pair R = lam*I +
    lam^-1*U, S = F R F with lam = e^(i*theta). Valid only where
    theta_validity holds; delta = -2*cos(2*theta).
    """
    if not theta_validity(theta):
        raise ValueError(
            f"theta = {theta!r} invalid: needs cos(2*theta)^2 >= 1/4 for real b"
        )
    dlt = -2.0 * math.cos(2.0 * theta)
    a = 1.0 / dlt
    b = math.sqrt(max(0.0, 1.0 - a * a))
    u = np.array([[dlt, 0.0], [0.0, 0.0]])
    f = np.array([[a, b], [b, -a]])
    v = f @ u @ f
    lam = cmath.exp(1j * theta)
    r = lam * np.eye(2, dtype=complex) + lam.conjugate() * u
    s = f @ r @ f
    return ThreeStrandFamily(theta=theta, delta=dlt, u=u, f=f, v=v, r=r, s=s)


# Bytes per slot array of a _Sparse block: 32 KiB holds 5 members at
# n = 12, whose complex slot arrays have 378 values. A residual of the
# relation suite has at most 4 slots, so even the array that joins them for
# its maximum stays under glibc's 128 KiB mmap threshold, and temporaries
# reuse heap memory instead of faulting fresh pages in. Blocks also stay far
# under the 256 KiB at which numpy elides temporaries: there `a * b[pick]`
# runs as `b[pick] *= a`, the right operand first, and complex multiply is
# not bitwise commutative (FMA). On a 2-vCPU Xeon with 48 KiB of L1d per
# core, 64 KiB blocks ran about 10 % slower and raised peak RSS by 0.9 MB.
_BLOCK_BYTES = 32 * 1024


@lru_cache(maxsize=None)
def _block_shift(n: int, masks: tuple[int, ...]) -> np.ndarray | None:
    """Flat gather index of a block whose member b has slot mask masks[b]:
    entry (b, r) is b * (dim + 1) + _shift(n, masks[b])[r], and None when
    every mask is 0, whose gather is the identity.

    A block holds at most _BLOCK_BYTES // 16 entries per slot, so the index
    fits in uint16. The array is cached per masks, so it is read-only.
    """
    if not any(masks):
        return None
    width = fib_dim(n) + 1
    pick = np.concatenate(
        [_shift(n, m) + b * width for b, m in enumerate(masks)]
    ).astype(np.uint16).reshape(len(masks), width)
    pick.flags.writeable = False
    return pick


@lru_cache(maxsize=None)
def _product_plan(n: int, left: tuple, right: tuple) -> tuple[tuple, tuple]:
    """The slot keys of a _Sparse product and its steps (a, b, pick, k):
    add left slot a times right slot b, gathered with pick (None for the
    identity), into output slot k. Steps run left slots in order, each over
    the right slots in order, and output slots are numbered as they first
    occur, as a product of single matrices always ran.
    """
    keys, steps = {}, []
    for a, ka in enumerate(left):
        pick = _block_shift(n, ka)
        for b, kb in enumerate(right):
            k = tuple(x ^ y for x, y in zip(ka, kb))
            steps.append((a, b, pick, keys.setdefault(k, len(keys))))
    return tuple(keys), tuple(steps)


class _Sparse:
    """A block of B square matrices on fib_sequences(n) as slots
    {masks: values}, so a single matrix is a block of one.

    masks is a tuple of B ints and values a (B, dim + 1) array:
    values[b, r] is the entry of member b in row r and in the column whose
    state is _fib_states(n)[r] ^ masks[b]; every row ends in a 0 pad, and
    every position without an entry holds an exact 0. A member is the sum
    of its slots, whatever their masks. A product follows the steps of
    _product_plan, which depend on the masks only and are cached: for each
    slot pair it gathers vb to the left slot's columns, multiplies va into
    that gather in place with np.multiply, left operand first (numpy's
    complex multiply is not bitwise commutative, and unlike `*`,
    np.multiply never lets temporary elision swap its operands), and adds
    the result into the slot of masks ma ^ mb. The operands of a product
    share one dtype. Each member then sums the products a dense matmul
    sums, plus exact zeros, in slot order. No sort is needed to fix the
    order of those sums: U_i has two slots (the diagonal and the flip of
    its center bit), so no entry of a product verify_model forms sums more
    than two nonzero terms, and a sum of two floats does not depend on
    their order. Entries of more terms, from matrices of other shapes,
    agree with a dense product up to rounding. The shift of mask 0 is the
    identity, so a product and .T use the diagonal slot's array as it is,
    with no gather.

    The flips of U_1 .. U_(n+1) are distinct single bits, and the operands
    of every member of a verify_model block are all one generator or all
    distinct ones, so in any expression verify_model forms, two slots of a
    member coincide in mask exactly when they do in every other member of
    its block. So no two slots of one member have the same mask, which the
    maximum of a residual needs, and each member's entries are the floats
    a block of one computes. Slot arrays are never written after the
    operation that made them returns.
    """

    __slots__ = ("n", "slots")

    def __init__(self, n: int, slots: dict):
        self.n, self.slots = n, slots

    @property
    def T(self) -> "_Sparse":
        slots = {}
        for m, v in self.slots.items():
            pick = _block_shift(self.n, m)
            slots[m] = v if pick is None else v.take(pick)
        return _Sparse(self.n, slots)

    def conj(self) -> "_Sparse":
        return _Sparse(self.n, {m: v.conj() for m, v in self.slots.items()})

    def __rmul__(self, scalar) -> "_Sparse":
        return _Sparse(self.n, {m: scalar * v for m, v in self.slots.items()})

    def __sub__(self, other: "_Sparse") -> "_Sparse":
        slots = dict(self.slots)
        for m, v in other.slots.items():
            slots[m] = slots[m] - v if m in slots else -v
        return _Sparse(self.n, slots)

    def __matmul__(self, other: "_Sparse") -> "_Sparse":
        keys, steps = _product_plan(self.n, tuple(self.slots), tuple(other.slots))
        left, right = list(self.slots.values()), list(other.slots.values())
        out = [None] * len(keys)
        for a, b, pick, k in steps:
            if pick is None:
                term = left[a] * right[b]
            else:
                term = right[b].take(pick)
                np.multiply(left[a], term, out=term)
            if out[k] is None:
                out[k] = term
            else:
                out[k] += term
        return _Sparse(self.n, dict(zip(keys, out)))


@lru_cache(maxsize=None)
def _verify_plan(n: int) -> dict:
    """How verify_model stacks its operands on the length-n space.

    Maps each kind of operand tuple ("each" (i,), "twice" (i, i), "near"
    and "far" pairs as generator_pairs gives them, "next" (i, i + 1)) to
    its blocks: the tuples of the kind cut, in order, into blocks of at
    most _BLOCK_BYTES of complex values per slot array. Per operand a block
    gives the read-only rows of the sources to take, which are the indices
    of its generators, and the slot keys of the taken block: per slot, the
    masks of its members, read from _generator_layout. rho_i has the masks
    of U_i with the diagonal first, so these blocks serve the braid rows
    too.
    """
    cap = max(1, _BLOCK_BYTES // (16 * (fib_dim(n) + 1)))
    k = n + 1
    layouts = [
        tuple(mask for mask, _ in _generator_layout(n, i)) for i in range(1, k + 1)
    ]
    near, far = generator_pairs(k)
    kinds = {
        "each": [(i,) for i in range(k)],
        "twice": [(i, i) for i in range(k)],
        "near": near,
        "far": far,
        "next": [(i, i + 1) for i in range(k - 1)],
    }
    blocks = {}
    for kind, members in kinds.items():
        found = []
        for start in range(0, len(members), cap):
            block = []
            for operands in zip(*members[start : start + cap]):
                rows = np.array(operands)
                rows.flags.writeable = False
                block.append((rows, tuple(zip(*(layouts[i] for i in operands)))))
            found.append(tuple(block))
        blocks[kind] = tuple(found)
    return blocks


def verify_model(n: int, params: ModelParams, tol: float = 1e-10) -> VerifyReport:
    """Check every defining relation of the representation at one point.

    Builds the mask slots of U_1 .. U_{n+1} on the length-n space, once
    each, with _generator_slots, the one form of the window rule, which
    tl_generator_matrix scatters too (the slots' layout is cached, so a
    call only gathers values), and reports max-entry residuals for the
    Temperley-Lieb relations, symmetry, unitarity and the braid relations.
    The braid generators rho_i^(+-1) = A^(+-1) I + A^(-+1) U_i are formed
    from those same slots, as in braid_generator_matrix. No dense matrix is
    formed and nothing is sorted.

    Each slot of U_1 .. U_{n+1} is stacked once per call into one source
    array, and rho_i and rho_i^-1 are formed once on those plain arrays,
    the identity on the diagonal slot, which _generator_layout puts first.
    Each relation row cuts its operand tuples into blocks of at most
    _BLOCK_BYTES per slot array (5 members at n = 12), takes each operand's
    rows from its source with the cached plan's indices and slot keys, and
    evaluates the matrix expression a dense check would use on whole
    blocks: one numpy call per slot pair per block, each entry the same
    float as when the operands are taken one tuple at a time. The 32 KiB
    cap keeps every temporary, even a residual's slots joined for its
    maximum, under glibc's 128 KiB mmap threshold, so memory is reused
    rather than faulted in afresh, and far under numpy's 256 KiB temporary
    elision, which would swap the operands of a complex multiply and
    change the last bits of a residual. A source may exceed the cap (77 KiB
    at n = 12), since it is never an operand of a product: it is built by
    stacking, scaled and added elementwise, and read by take, and it still
    stays under both thresholds. The worst residual of a block is taken
    with one abs and one max. A NaN residual fails its row. All residuals
    pass at delta = +-golden ratio with a compatible phase; a generic delta
    fails the U_i U_(i+-1) U_i = U_i row, which is the point of running it
    as a negative control.
    Raises ValueError when n is outside 1..MATRIX_MAX_N, tol is negative
    or not finite, or a generator's slot masks are not its layout's.
    """
    if not 1 <= n <= MATRIX_MAX_N:
        raise ValueError(f"matrices support 1 <= n <= {MATRIX_MAX_N}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    gens = [_generator_slots(n, i, params) for i in range(1, n + 2)]
    for i, slots in enumerate(gens, 1):
        masks = tuple(mask for mask, _ in _generator_layout(n, i))
        if tuple(slots) != masks:
            raise ValueError(f"U_{i} has slot masks {tuple(slots)}, not {masks}")
    blocks = _verify_plan(n)
    width = fib_dim(n) + 1
    lam = params.lam  # A^-1, as A is on the unit circle
    dlt = params.delta

    def identity(size):
        ones = np.ones((size, width), dtype=complex)
        ones[:, -1] = 0.0
        return ones

    def eye(block):
        key = next(iter(block.slots))  # the diagonal slot: every mask 0
        return _Sparse(n, {key: identity(len(key))})

    # one source per slot: the diagonal, then the center flip
    diag, flip = (np.stack(values) for values in zip(*(g.values() for g in gens)))
    ones = identity(n + 1)
    us = (diag, flip)
    rhos = (lam.conjugate() * ones + lam * diag, lam * flip)
    rho_invs = (lam * ones + lam.conjugate() * diag, lam.conjugate() * flip)
    relations = (
        ("U_i^2 = delta U_i", "each", (us,), lambda u: u @ u - dlt * u),
        ("U_i U_j U_i = U_i (|i-j| = 1)", "near", (us, us), lambda a, b: a @ b @ a - a),
        ("U_i U_j = U_j U_i (|i-j| > 1)", "far", (us, us), lambda a, b: a @ b - b @ a),
        ("U_i symmetric", "each", (us,), lambda u: u - u.T),
        ("rho_i unitary", "each", (rhos,), lambda r: r @ r.conj().T - eye(r)),
        ("rho_i rho_i^-1 = I", "twice", (rhos, rho_invs), lambda r, s: r @ s - eye(r)),
        (
            "rho_i rho_j rho_i = rho_j rho_i rho_j (|i-j| = 1)",
            "next",
            (rhos, rhos),
            lambda a, b: a @ b @ a - b @ a @ b,
        ),
        (
            "rho_i rho_j = rho_j rho_i (|i-j| > 1)",
            "far",
            (rhos, rhos),
            lambda a, b: a @ b - b @ a,
        ),
    )
    checks = []
    # an overflow at a huge delta shows up in the row, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for name, kind, families, residual in relations:
            maxima = []
            for block in blocks[kind]:
                operands = [
                    _Sparse(n, {k: v.take(rows, axis=0) for k, v in zip(keys, source)})
                    for source, (rows, keys) in zip(families, block)
                ]
                slots = residual(*operands).slots.values()
                maxima.append(np.abs(np.concatenate(tuple(slots))).max())
            # ndarray.max, unlike the builtin max, carries a NaN through
            worst = float(np.max(maxima, initial=0.0))
            checks.append(RelationCheck(name, worst, worst <= tol))
    return VerifyReport(n=n, delta=dlt, tol=tol, checks=tuple(checks))
