"""Sequence spaces, window-rule generator matrices, unitarity, the 2x2 family."""

import cmath
import dataclasses
import math
import random
import warnings
from collections import Counter
from functools import partial

import numpy as np
import pytest

from tlbraid import (
    GOLDEN_RATIO,
    BraidWord,
    braid_generator_matrix,
    braid_word_matrix,
    compatible_phase,
    f_matrix,
    fib_dim,
    fib_sequences,
    fibonacci_params,
    make_params,
    r_matrix,
    theta_validity,
    three_strand_family,
    tl_generator_matrix,
    verify_model,
)
from tlbraid import fibrep
from tlbraid.fibrep import MATRIX_MAX_N, ModelParams, RelationCheck, VerifyReport
from tlbraid.tl import generator_pairs

PHI = GOLDEN_RATIO


def _maxabs(m):
    return float(np.max(np.abs(m)))


def test_dimension_recurrence_and_enumeration_agree():
    known = {1: 2, 2: 3, 3: 5, 10: 144, 20: 17711}
    for n, dim in known.items():
        assert fib_dim(n) == dim
    for n in range(1, 16):
        assert fib_dim(n) == len(fib_sequences(n))
    # n = 0 is the one empty string: f_1 = 1
    assert fib_dim(0) == 1
    with pytest.raises(ValueError):
        fib_dim(-1)


def test_sequence_enumeration_order_and_content():
    assert fib_sequences(1) == ("P", "*")
    assert fib_sequences(2) == ("PP", "P*", "*P")
    basis = fib_sequences(8)
    for seq in basis:
        assert "**" not in seq
    assert len(set(basis)) == len(basis)
    # lexicographic with P < *
    key = [s.replace("P", "0").replace("*", "1") for s in basis]
    assert key == sorted(key)
    assert basis.index("PPPPPPPP") == 0
    assert fib_sequences(0) == ("",)
    for bad in (-1, 26):
        with pytest.raises(ValueError):
            fib_sequences(bad)


def test_params_invariants():
    for params in (fibonacci_params(), fibonacci_params(-1), make_params(2.0)):
        assert abs(params.a * params.delta - 1.0) < 1e-12
        assert abs(params.a**2 + params.b**2 - 1.0) < 1e-12
        assert abs(abs(params.lam) - 1.0) < 1e-12
        assert abs(params.mu + params.lam**-3) < 1e-12
        assert abs(params.lam * (params.mu - params.lam) - params.delta) < 1e-12
    # the square relation singles out the golden values
    for sign in (1, -1):
        p = fibonacci_params(sign)
        assert abs(p.delta**2 * p.b**4 - 1.0) < 1e-12
    q = make_params(2.0)
    assert abs(q.delta**2 * q.b**4 - 1.0) > 0.1


def test_params_hold_only_the_two_independent_numbers():
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["delta", "a_phase"]
    p = make_params(-1.3, 0.3)
    assert p == ModelParams(delta=-1.3, a_phase=0.3)
    # the derived values are the expressions make_params once stored
    a = 1.0 / -1.3
    lam = cmath.exp(0.3j).conjugate()
    assert (p.a, p.b, p.lam, p.mu) == (a, math.sqrt(1.0 - a * a), lam, -(lam**-3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.delta = 2.0


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(0.5)
    with pytest.raises(ValueError):
        fibonacci_params(2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            make_params(bad)
        with pytest.raises(ValueError):
            make_params(PHI, a_phase=bad)
    with pytest.raises(ValueError):
        fibonacci_params(1, math.nan)


def test_compatible_phase_choices():
    assert compatible_phase(PHI) == pytest.approx(3 * math.pi / 5)
    assert compatible_phase(-PHI) == pytest.approx(math.pi / 10)
    assert compatible_phase(2.0) == pytest.approx(math.pi / 2)
    for delta in (PHI, -PHI, 2.0, -2.0, 1.3, -1.1):
        theta = compatible_phase(delta)
        assert -2.0 * math.cos(2.0 * theta) == pytest.approx(delta)


def test_one_label_generator_matrices_frozen():
    p = fibonacci_params()
    u1 = tl_generator_matrix(1, 1, p)
    assert _maxabs(u1 - np.diag([0.0, p.delta])) == 0.0
    u2 = tl_generator_matrix(1, 2, p)
    dbb = p.delta - p.a  # delta*b^2
    expected = np.array([[dbb, p.b], [p.b, p.a]])
    assert _maxabs(u2 - expected) == 0.0


def test_two_label_generator_matrices():
    p = fibonacci_params()
    basis = fib_sequences(2)
    dbb = p.delta - p.a
    u3 = tl_generator_matrix(2, 3, p)
    # columns on (PP, P*, *P): the last window reads (x2, P-flank)
    col_pp = u3[:, basis.index("PP")]
    assert col_pp[basis.index("PP")] == pytest.approx(dbb)
    assert col_pp[basis.index("P*")] == pytest.approx(p.b)
    assert col_pp[basis.index("*P")] == 0.0
    assert _maxabs(u3[:, basis.index("*P")]) == 0.0  # (*,P,P) window dies
    u1 = tl_generator_matrix(2, 1, p)
    assert _maxabs(u1 - np.diag([0.0, 0.0, p.delta])) == 0.0
    u2 = tl_generator_matrix(2, 2, p)
    assert _maxabs(u2[:, basis.index("P*")]) == 0.0  # (P,P,*) window dies


def _reference_generator_matrix(n, i, params):
    """tl_generator_matrix as it was written on strings, before states
    became integer bitmasks: the independent reference for the builder."""
    if not 1 <= n <= MATRIX_MAX_N:
        raise ValueError(f"matrices support 1 <= n <= {MATRIX_MAX_N}")
    if not 1 <= i <= n + 1:
        raise ValueError(f"generator index {i} out of range 1..{n + 1}")
    basis = fib_sequences(n)
    dlt, a, b = params.delta, params.a, params.b
    dbb = dlt - a  # delta*b^2, via the exact identity delta*(1 - 1/delta^2)
    mat = np.zeros((len(basis), len(basis)))
    for col, seq in enumerate(basis):
        ext = "*P" + seq + "P"
        left, center, right = ext[i - 1], ext[i], ext[i + 1]
        if center == "*":
            # neighbors of a star are forced to P, so the window is (P,*,P)
            mat[col, col] += a
            flipped = seq[: i - 2] + "P" + seq[i - 1 :]
            mat[basis.index(flipped), col] += b
        elif left == "P" and right == "P":
            mat[col, col] += dbb
            starred = seq[: i - 2] + "*" + seq[i - 1 :]
            mat[basis.index(starred), col] += b
        elif left == "*" and right == "*":
            mat[col, col] += dlt
        # (*,P,P) and (P,P,*) windows contribute nothing
    return mat


def test_integer_states_decode_to_the_basis():
    # fib_sequences is built from these states, so check both against the
    # definition: ints with no two adjacent set bits, in increasing order;
    # n = 0 has one state, the empty string
    assert fibrep._fib_states(0).tolist() == [0]
    for n in range(1, 17):
        want = [s for s in range(1 << n) if not s & (s >> 1)]
        assert fibrep._fib_states(n).tolist() == want, n
        decoded = tuple(
            format(s, f"0{n}b").replace("0", "P").replace("1", "*") for s in want
        )
        assert decoded == fib_sequences(n), n


def test_generator_layout_is_cached_and_read_only():
    # only the values depend on the loop value; the layout is shared
    build = fibrep._generator_slots
    slots = build(7, 8, fibonacci_params())
    slots2 = build(7, 8, make_params(1.5))
    layout = fibrep._generator_layout(7, 8)
    assert fibrep._generator_layout(7, 8) is layout
    assert list(slots) == list(slots2) == [mask for mask, _ in layout]
    for mask, kind in layout:
        vals, vals2 = slots[mask], slots2[mask]
        assert not kind.flags.writeable
        assert vals2 is not vals and not np.array_equal(vals, vals2), mask


def _dense_from_slots(n, slots):
    """The (dim + 1)-square matrix of mask slots {mask: values}, the pad
    row and column last; asserts that every slot value with no column, the
    pad included, is an exact +0.0."""
    states = fibrep._fib_states(n)
    dim = len(states)
    dense = np.zeros((dim + 1, dim + 1), dtype=next(iter(slots.values())).dtype)
    for mask, values in slots.items():
        pick = fibrep._shift(n, mask)
        absent = pick == dim
        zeros = np.zeros(absent.sum(), values.dtype)
        assert values[absent].tobytes() == zeros.tobytes()
        dense[np.flatnonzero(~absent), pick[~absent]] = values[~absent]
    return dense


@pytest.mark.parametrize("delta", [PHI, -PHI, 1.5])
def test_generator_slots_are_the_dense_matrix(delta):
    # the diagonal slot first, then the center-bit flip, which U_1 lacks;
    # every value with no column, the pad included, is an exact +0.0
    params = make_params(delta)
    for n in range(1, MATRIX_MAX_N + 1):
        dim = fib_dim(n)
        for i in range(1, n + 2):
            slots = fibrep._generator_slots(n, i, params)
            assert list(slots) == ([0] if i == 1 else [0, 1 << (n + 1 - i)])
            dense = _dense_from_slots(n, slots)
            want = tl_generator_matrix(n, i, params)
            assert dense[:dim, :dim].tobytes() == want.tobytes(), (n, i)


@pytest.mark.parametrize("delta", [PHI, -PHI, 1.5, 2.0, -1.3])
def test_generator_matches_string_reference(delta):
    params = make_params(delta)
    for n in range(1, MATRIX_MAX_N + 1):
        for i in range(1, n + 2):
            got = tl_generator_matrix(n, i, params)
            want = _reference_generator_matrix(n, i, params)
            assert np.array_equal(got, want), (n, i)


def test_generator_bounds():
    p = fibonacci_params()
    # n is checked before the dimension is taken, so n <= 0 names the bound
    for n in (-1, 0, MATRIX_MAX_N + 1):
        with pytest.raises(ValueError, match=f"1 <= n <= {MATRIX_MAX_N}"):
            tl_generator_matrix(n, 1, p)
    with pytest.raises(ValueError):
        tl_generator_matrix(1, 0, p)
    with pytest.raises(ValueError):
        tl_generator_matrix(1, 3, p)
    with pytest.raises(ValueError):
        tl_generator_matrix(13, 1, p)


def test_generators_real_symmetric():
    p = fibonacci_params()
    for n in range(1, 7):
        for i in range(1, n + 2):
            u = tl_generator_matrix(n, i, p)
            assert _maxabs(u - u.T) == 0.0


def test_relation_suite_small_sizes():
    for sign in (1, -1):
        p = fibonacci_params(sign)
        for n in range(1, 7):
            report = verify_model(n, p, tol=1e-10)
            assert report.passed, [c for c in report.checks if not c.passed]


def _dense_reference(n, params):
    """(name, residual, passed) rows from dense products on the public
    generator matrices: the relation suite as verify_model computed it
    before it switched to sparse products."""
    us = [tl_generator_matrix(n, i, params) for i in range(1, n + 2)]
    rhos = [braid_generator_matrix(n, i, params) for i in range(1, n + 2)]
    rho_invs = [
        braid_generator_matrix(n, i, params, inverse=True) for i in range(1, n + 2)
    ]
    eye = np.eye(len(us[0]), dtype=complex)
    dlt = params.delta
    k = len(us)
    near = [(i, j) for i in range(k) for j in (i - 1, i + 1) if 0 <= j < k]
    far = [(i, j) for i in range(k) for j in range(i + 2, k)]
    rows = [
        ("U_i^2 = delta U_i", [u @ u - dlt * u for u in us]),
        (
            "U_i U_j U_i = U_i (|i-j| = 1)",
            [us[i] @ us[j] @ us[i] - us[i] for i, j in near],
        ),
        (
            "U_i U_j = U_j U_i (|i-j| > 1)",
            [us[i] @ us[j] - us[j] @ us[i] for i, j in far],
        ),
        ("U_i symmetric", [u - u.T for u in us]),
        ("rho_i unitary", [r @ r.conj().T - eye for r in rhos]),
        ("rho_i rho_i^-1 = I", [r @ ri - eye for r, ri in zip(rhos, rho_invs)]),
        (
            "rho_i rho_j rho_i = rho_j rho_i rho_j (|i-j| = 1)",
            [
                rhos[i] @ rhos[i + 1] @ rhos[i] - rhos[i + 1] @ rhos[i] @ rhos[i + 1]
                for i in range(k - 1)
            ],
        ),
        (
            "rho_i rho_j = rho_j rho_i (|i-j| > 1)",
            [rhos[i] @ rhos[j] - rhos[j] @ rhos[i] for i, j in far],
        ),
    ]
    out = []
    for name, mats in rows:
        worst = float(np.max([_maxabs(m) for m in mats], initial=0.0))
        out.append((name, worst, worst <= 1e-10))
    return out


REFERENCE_POINTS = {
    "+phi": partial(fibonacci_params, 1),
    "-phi": partial(fibonacci_params, -1),
    "delta=1.5": partial(make_params, 1.5),
    "delta=2.0": partial(make_params, 2.0),
}


@pytest.mark.parametrize("point", sorted(REFERENCE_POINTS))
def test_verify_model_matches_dense_reference(point):
    params = REFERENCE_POINTS[point]()
    for n in range(1, 8):
        report = verify_model(n, params, tol=1e-10)
        expected = _dense_reference(n, params)
        assert [(c.name, c.passed) for c in report.checks] == [
            (name, passed) for name, _, passed in expected
        ], n
        for check, (_, residual, _) in zip(report.checks, expected):
            assert abs(check.residual - residual) <= 1e-14, (n, check.name)


class _PairSparse:
    """The sparse matrix verify_model used before it stacked operands:
    every result, however built, is sorted and coalesced afresh."""

    def __init__(self, dim, rows, cols, vals):
        key = rows * dim + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        self.dim = dim
        self.rows, self.cols = np.divmod(key[starts], dim)
        self.vals = np.add.reduceat(vals, starts) if len(starts) else vals

    @classmethod
    def from_dense(cls, mat):
        rows, cols = np.nonzero(mat)
        return cls(len(mat), rows, cols, mat[rows, cols])

    @property
    def T(self):
        return _PairSparse(self.dim, self.cols, self.rows, self.vals)

    def conj(self):
        return _PairSparse(self.dim, self.rows, self.cols, self.vals.conj())

    def __rmul__(self, scalar):
        return _PairSparse(self.dim, self.rows, self.cols, scalar * self.vals)

    def __add__(self, other):
        return _PairSparse(
            self.dim,
            np.concatenate((self.rows, other.rows)),
            np.concatenate((self.cols, other.cols)),
            np.concatenate((self.vals, other.vals)),
        )

    def __sub__(self, other):
        return self + _PairSparse(self.dim, other.rows, other.cols, -other.vals)

    def __matmul__(self, other):
        ptr = np.searchsorted(other.rows, np.arange(self.dim + 1))
        counts = np.diff(ptr)[self.cols]
        ends = np.cumsum(counts)
        pick = np.repeat(ptr[self.cols] - ends + counts, counts)
        pick += np.arange(len(pick))
        return _PairSparse(
            self.dim,
            np.repeat(self.rows, counts),
            other.cols[pick],
            np.repeat(self.vals, counts) * other.vals[pick],
        )

    def max_abs(self):
        return float(np.max(np.abs(self.vals), initial=0.0))


def _per_pair_reference(n, params, tol=1e-10):
    """verify_model as it was before operand stacking: one sparse
    expression per operand pair, built from the dense public matrices."""
    build = fibrep.tl_generator_matrix  # looked up here so patches apply
    us = [_PairSparse.from_dense(build(n, i, params)) for i in range(1, n + 2)]
    dim = us[0].dim
    eye = _PairSparse(
        dim, np.arange(dim), np.arange(dim), np.ones(dim, dtype=complex)
    )
    phase = cmath.exp(1j * params.a_phase)
    rhos = [phase * eye + phase.conjugate() * u for u in us]
    rho_invs = [phase.conjugate() * eye + phase * u for u in us]
    dlt = params.delta
    k = len(us)
    near = [(i, j) for i in range(k) for j in (i - 1, i + 1) if 0 <= j < k]
    far = [(i, j) for i in range(k) for j in range(i + 2, k)]
    rows = [
        ("U_i^2 = delta U_i", [u @ u - dlt * u for u in us]),
        (
            "U_i U_j U_i = U_i (|i-j| = 1)",
            [us[i] @ us[j] @ us[i] - us[i] for i, j in near],
        ),
        (
            "U_i U_j = U_j U_i (|i-j| > 1)",
            [us[i] @ us[j] - us[j] @ us[i] for i, j in far],
        ),
        ("U_i symmetric", [u - u.T for u in us]),
        ("rho_i unitary", [r @ r.conj().T - eye for r in rhos]),
        ("rho_i rho_i^-1 = I", [r @ ri - eye for r, ri in zip(rhos, rho_invs)]),
        (
            "rho_i rho_j rho_i = rho_j rho_i rho_j (|i-j| = 1)",
            [
                rhos[i] @ rhos[i + 1] @ rhos[i] - rhos[i + 1] @ rhos[i] @ rhos[i + 1]
                for i in range(k - 1)
            ],
        ),
        (
            "rho_i rho_j = rho_j rho_i (|i-j| > 1)",
            [rhos[i] @ rhos[j] - rhos[j] @ rhos[i] for i, j in far],
        ),
    ]
    checks = []
    for name, residuals in rows:
        worst = float(np.max([r.max_abs() for r in residuals], initial=0.0))
        checks.append(RelationCheck(name, worst, worst <= tol))
    return VerifyReport(n=n, delta=dlt, tol=tol, checks=tuple(checks))


@pytest.mark.parametrize(
    "params",
    [*(REFERENCE_POINTS[point]() for point in sorted(REFERENCE_POINTS)),
     fibonacci_params(1, 0.3)],
    ids=[*sorted(REFERENCE_POINTS), "+phi@0.3"],
)
def test_stacked_report_equals_per_pair_reference(params):
    # bit for bit: at delta = 2.0 and phase 0.3, a product left to numpy's
    # temporary elision (blocks of 256 KiB) runs with its operands swapped
    # and changes the last bits of residuals
    for n in range(1, MATRIX_MAX_N + 1):
        report = verify_model(n, params)
        assert report == _per_pair_reference(n, params), n


def test_blocks_stay_under_the_slot_array_cap(monkeypatch):
    # 32 KiB per slot array keeps a residual of four slots under glibc's
    # 128 KiB mmap threshold, and each array far under numpy's 256 KiB
    # temporary elision
    largest = []
    init = fibrep._Sparse.__init__

    def recorded(self, n, slots):
        init(self, n, slots)
        largest.append(max(values.nbytes for values in slots.values()))

    monkeypatch.setattr(fibrep._Sparse, "__init__", recorded)
    for n in range(1, MATRIX_MAX_N + 1):
        largest.clear()
        verify_model(n, fibonacci_params())
        assert 0 < max(largest) <= 32 * 1024, n
    # at n = 12 a block holds 5 members of 378 complex values
    assert max(largest) == 5 * 378 * 16


def test_blocks_follow_the_joint_signatures_alone():
    # no cut of the generators splits a signature group further: each
    # group of operand tuples fills ceil(group / cap) blocks
    counts = {}
    for n in range(1, MATRIX_MAX_N + 1):
        layouts = tuple(
            tuple(mask for mask, _ in fibrep._generator_layout(n, i))
            for i in range(1, n + 2)
        )
        cap = 32 * 1024 // (16 * (fib_dim(n) + 1))
        k = n + 1
        near, far = generator_pairs(k)
        kinds = {
            "each": [(i,) for i in range(k)],
            "twice": [(i, i) for i in range(k)],
            "near": near,
            "far": far,
            "next": [(i, i + 1) for i in range(k - 1)],
        }
        runs, blocks = fibrep._verify_plan(n, layouts)
        for kind, members in kinds.items():
            groups = Counter(
                fibrep._signature(sum((layouts[i] for i in m), ())) for m in members
            )
            want = sum(-(-size // cap) for size in groups.values())
            assert len(blocks[kind]) == want, (n, kind)
            counts[kind] = len(blocks[kind])
            for block in blocks[kind]:
                for run, rows, keys in block:
                    assert not rows.flags.writeable
                    taken = [layouts[runs[run][r]] for r in rows]
                    assert keys == tuple(zip(*taken)), (n, kind)
    assert counts == {"each": 4, "twice": 4, "near": 7, "far": 14, "next": 4}


def _perturb_entries(monkeypatch, target, error):
    """Patch the generator builder so U_target gets one off-diagonal entry
    moved by error, as seen by verify_model and tl_generator_matrix alike."""
    build = fibrep._generator_slots

    def perturbed(n, i, params):
        slots = build(n, i, params)
        if i == target:
            values = slots[max(slots)]  # the flip slot, built for this call
            values[np.flatnonzero(values)[0]] += error
        return slots

    monkeypatch.setattr(fibrep, "_generator_slots", perturbed)


def test_perturbed_last_generator_fails_in_the_last_stack(monkeypatch):
    n = MATRIX_MAX_N
    _perturb_entries(monkeypatch, n + 1, 1e-6)
    params = fibonacci_params()
    report = verify_model(n, params)
    assert not report.passed
    assert not next(c for c in report.checks if c.name == "U_i symmetric").passed
    assert report == _per_pair_reference(n, params)


@pytest.mark.parametrize("error", [1e-6, math.nan])
def test_perturbed_generator_fails_its_rows(monkeypatch, error):
    # not U_1, so a fold that drops a NaN would miss it
    _perturb_entries(monkeypatch, 3, error)
    report = verify_model(4, fibonacci_params(), tol=1e-10)
    failing = {c.name: c.residual for c in report.checks if not c.passed}
    for name in (
        "U_i^2 = delta U_i",
        "U_i U_j U_i = U_i (|i-j| = 1)",
        "U_i symmetric",
        "rho_i unitary",
        "rho_i rho_j rho_i = rho_j rho_i rho_j (|i-j| = 1)",
    ):
        assert name in failing
        assert math.isnan(failing[name]) == math.isnan(error), name
    assert not report.passed


def _same_rows(report, expected):
    """Row names and pass flags equal, and each residual equal or both NaN."""
    assert [(c.name, c.passed) for c in report.checks] == [
        (c.name, c.passed) for c in expected.checks
    ]
    for got, want in zip(report.checks, expected.checks):
        assert got.residual == want.residual or (
            math.isnan(got.residual) and math.isnan(want.residual)
        ), got.name


def test_huge_delta_matches_per_pair_reference():
    params = make_params(1e200)
    for n in (*range(1, 8), MATRIX_MAX_N):
        report = verify_model(n, params)
        with np.errstate(all="ignore"):
            expected = _per_pair_reference(n, params)
        _same_rows(report, expected)


@pytest.mark.parametrize("error", [math.nan, math.inf])
@pytest.mark.parametrize("n", [4, 7])
def test_non_finite_entry_matches_per_pair_reference(monkeypatch, n, error):
    _perturb_entries(monkeypatch, 3, error)
    params = fibonacci_params()
    report = verify_model(n, params)
    with np.errstate(all="ignore"):
        expected = _per_pair_reference(n, params)
    _same_rows(report, expected)
    assert not report.passed


@pytest.mark.parametrize("delta", [PHI, 1.5])
def test_entry_off_the_generator_masks_matches_dense_reference(monkeypatch, delta):
    """Move one off-diagonal entry of U_3 to a column whose state differs
    from its row's in two or more bits: a third mask, so a slot of a
    product sums three or more mask pairs."""
    build = fibrep._generator_slots

    def moved(n, i, params):
        slots = build(n, i, params)
        if i == 3:
            states = fibrep._fib_states(n)
            flip = max(slots)
            row = np.flatnonzero(slots[flip])[0]
            mask = next(
                m for m in (int(states[row] ^ s) for s in states)
                if bin(m).count("1") >= 2
            )
            values = slots[flip]
            slots[mask] = np.zeros_like(values)
            slots[mask][row], values[row] = values[row], 0.0
        return slots

    monkeypatch.setattr(fibrep, "_generator_slots", moved)
    params = make_params(delta)
    for n in (3, 4, 7):
        report = verify_model(n, params)
        expected = _dense_reference(n, params)
        assert [(c.name, c.passed) for c in report.checks] == [
            (name, passed) for name, _, passed in expected
        ], n
        for check, (_, residual, _) in zip(report.checks, expected):
            assert abs(check.residual - residual) <= 1e-14, (n, check.name)
        assert not report.passed


def test_slot_on_both_center_flips_matches_dense_reference(monkeypatch):
    """Give U_3 a third slot, at the mask of U_2's and U_3's center flips
    together, with an entry in every row whose partner is a state. In
    U_3 U_2 U_3 that slot meets the product of the two flip slots, in
    U_3 U_4 U_3 it meets none, so the two operand pairs must not share a
    block."""
    build = fibrep._generator_slots

    def widened(n, i, params):
        slots = build(n, i, params)
        if i == 3:
            flip = max(slots)
            mask = flip | (flip << 1)
            pick = fibrep._shift(n, mask)
            slots[mask] = np.where(pick < len(pick) - 1, 0.25, 0.0)
        return slots

    monkeypatch.setattr(fibrep, "_generator_slots", widened)
    params = fibonacci_params()
    for n in (3, 4, 7):
        report = verify_model(n, params)
        expected = _dense_reference(n, params)
        for check, (name, residual, passed) in zip(report.checks, expected):
            assert (check.name, check.passed) == (name, passed), n
            assert abs(check.residual - residual) <= 1e-14, (n, name)


def test_verify_model_builds_each_generator_once(monkeypatch):
    calls = []
    build = fibrep._generator_slots

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(fibrep, "_generator_slots", counted)
    for n in (1, 4, 9):
        calls.clear()
        assert verify_model(n, fibonacci_params()).passed
        assert sorted(calls) == list(range(1, n + 2))


def test_nan_residual_fails_its_row():
    params = ModelParams(delta=math.nan, a_phase=3 * math.pi / 5)
    report = verify_model(3, params)
    assert not report.passed
    for check in report.checks:
        assert math.isnan(check.residual) and not check.passed, check.name


def test_overflow_fails_rows_without_warnings():
    # at delta = 1e200 the products overflow to inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_model(3, make_params(1e200))
    assert not report.passed
    assert any(math.isnan(c.residual) for c in report.checks)
    for check in report.checks:
        if not math.isfinite(check.residual):
            assert not check.passed, check.name


def test_verify_model_rejects_bad_tol():
    p = fibonacci_params()
    for tol in (math.nan, math.inf, -1e-10):
        with pytest.raises(ValueError):
            verify_model(2, p, tol=tol)
    assert verify_model(2, p, tol=0.0).tol == 0.0


def test_verify_model_rejects_bad_n():
    p = fibonacci_params()
    for n in (-1, 0, fibrep.MATRIX_MAX_N + 1):
        with pytest.raises(ValueError) as err:
            verify_model(n, p)
        assert str(fibrep.MATRIX_MAX_N) in str(err.value)


def test_negative_control_isolates_jones_relation():
    report = verify_model(4, make_params(2.0), tol=1e-10)
    failing = {c.name for c in report.checks if not c.passed}
    assert "U_i U_j U_i = U_i (|i-j| = 1)" in failing
    residual = next(
        c.residual for c in report.checks if c.name == "U_i U_j U_i = U_i (|i-j| = 1)"
    )
    assert residual >= 0.1
    # the projector and symmetry rows survive any loop value
    passing = {c.name for c in report.checks if c.passed}
    assert "U_i^2 = delta U_i" in passing
    assert "U_i symmetric" in passing


def test_literal_right_end_breaks_projector():
    # reading the last window literally kills its (P, *, P) case: at n = 2
    # that is U_3 with the column of "P*", the one string ending in *, zeroed
    p = fibonacci_params()
    uu = tl_generator_matrix(2, 3, p)
    u = uu.copy()
    u[:, fib_sequences(2).index("P*")] = 0.0
    assert _maxabs(u @ u - p.delta * u) >= 0.1
    assert _maxabs(u - u.T) >= 0.1  # also not symmetric
    # under the uniform rule the projector identity is float-exact
    assert _maxabs(uu @ uu - p.delta * uu) == 0.0


def test_verify_model_fails_a_literal_last_window(monkeypatch):
    # the literal reading of U_(n+1) loses every column whose string ends
    # in *, that is whose state has bit 0 set
    build = fibrep._generator_slots

    def literal(n, i, params):
        slots = build(n, i, params)
        if i == n + 1:
            states = fibrep._fib_states(n)
            for mask, values in slots.items():
                values[:-1][((states ^ mask) & 1) == 1] = 0.0
        return slots

    p = fibonacci_params()
    want = tl_generator_matrix(2, 3, p)
    want[:, fib_sequences(2).index("P*")] = 0.0
    monkeypatch.setattr(fibrep, "_generator_slots", literal)
    assert tl_generator_matrix(2, 3, p).tobytes() == want.tobytes()
    for n in (2, 5, MATRIX_MAX_N):
        failing = {c.name for c in verify_model(n, p).checks if not c.passed}
        assert {"U_i^2 = delta U_i", "U_i symmetric"} <= failing, n


def test_braid_generator_diagonal_on_one_label():
    p = fibonacci_params()
    rho = braid_generator_matrix(1, 1, p)
    a = cmath.exp(1j * p.a_phase)
    assert _maxabs(rho - np.diag([a, -(a**-3)])) < 1e-12
    rho_inv = braid_generator_matrix(1, 1, p, inverse=True)
    assert _maxabs(rho @ rho_inv - np.eye(2)) < 1e-12


def test_braid_word_matrix_is_product():
    p = fibonacci_params()
    w = BraidWord(4, (1, -2, 3, 1))
    got = braid_word_matrix(w, 2, p)
    expected = np.eye(fib_dim(2), dtype=complex)
    for ell in w.letters:
        expected = expected @ braid_generator_matrix(2, abs(ell), p, inverse=ell < 0)
    assert _maxabs(got - expected) == 0.0
    assert _maxabs(braid_word_matrix(BraidWord(4, ()), 2, p) - np.eye(3)) == 0.0
    with pytest.raises(ValueError):
        braid_word_matrix(BraidWord(3, (1,)), 2, p)


def test_braid_word_matrix_refuses_n_out_of_range():
    # checked before the identity is built, so an empty word cannot skip it
    p = fibonacci_params()
    for n in (0, MATRIX_MAX_N + 1, 198):
        with pytest.raises(ValueError, match=f"1 <= n <= {MATRIX_MAX_N}"):
            braid_word_matrix(BraidWord(n + 2, ()), n, p)


def test_braid_word_matrix_unitary_and_relations():
    p = fibonacci_params()
    rng = random.Random(88)
    for _ in range(10):
        k = rng.randint(0, 8)
        w = BraidWord(5, tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(k)))
        m = braid_word_matrix(w, 3, p)
        assert _maxabs(m @ m.conj().T - np.eye(fib_dim(3))) < 1e-10
    lhs = braid_word_matrix(BraidWord(5, (1, 2, 1)), 3, p)
    rhs = braid_word_matrix(BraidWord(5, (2, 1, 2)), 3, p)
    assert _maxabs(lhs - rhs) < 1e-12
    inv = braid_word_matrix(BraidWord(5, (2, -2)), 3, p)
    assert _maxabs(inv - np.eye(fib_dim(3))) < 1e-12


def test_f_matrix_golden_values():
    p = fibonacci_params()
    tau = 2.0 / (1.0 + math.sqrt(5.0))
    expected = np.array([[tau, math.sqrt(tau)], [math.sqrt(tau), -tau]])
    assert _maxabs(f_matrix(p) - expected) < 1e-12
    f = f_matrix(p)
    assert _maxabs(f @ f - np.eye(2)) < 1e-12  # involution


def test_r_matrix_classic_eigenvalues():
    p = fibonacci_params()
    expected = np.diag(
        [cmath.exp(4j * math.pi / 5), -cmath.exp(2j * math.pi / 5)]
    )
    assert _maxabs(r_matrix(p) - expected) < 1e-12


def test_exchange_eigenvalue_identity():
    # diag(-A^3, A^-1) equals diag(A^8, -A^4) when A^10 = 1
    a = cmath.exp(3j * math.pi / 5)
    assert abs(a**10 - 1) < 1e-12
    assert abs(-(a**3) - a**8) < 1e-12
    assert abs(a**-1 - (-(a**4))) < 1e-12
    # and r_matrix is the inverse braid generator on one label, basis swapped
    p = fibonacci_params()
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rho_inv = braid_generator_matrix(1, 1, p, inverse=True)
    assert _maxabs(swap @ r_matrix(p) @ swap - rho_inv) < 1e-12


def test_three_strand_family_structure():
    fam = three_strand_family(3 * math.pi / 5)
    assert fam.delta == pytest.approx(PHI)
    a, b = 1 / fam.delta, math.sqrt(1 - fam.delta**-2)
    d = fam.delta
    expected_v = d * np.array([[a * a, a * b], [a * b, b * b]])
    assert _maxabs(fam.v - expected_v) < 1e-12
    # V U V = V and U V U = U through the shared involution
    assert _maxabs(fam.v @ fam.u @ fam.v - fam.v) < 1e-12
    assert _maxabs(fam.u @ fam.v @ fam.u - fam.u) < 1e-12


def test_three_strand_family_matches_sequence_space():
    p = fibonacci_params()
    fam = three_strand_family(3 * math.pi / 5)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])  # {*, P} order vs (P, *) order
    assert _maxabs(swap @ fam.u @ swap - tl_generator_matrix(1, 1, p)) < 1e-12
    assert _maxabs(swap @ fam.v @ swap - tl_generator_matrix(1, 2, p)) < 1e-12
    assert _maxabs(swap @ fam.r @ swap - braid_generator_matrix(1, 1, p)) < 1e-12
    assert _maxabs(swap @ fam.s @ swap - braid_generator_matrix(1, 2, p)) < 1e-12


def test_three_strand_family_valid_thetas():
    rng = random.Random(3)
    windows = [
        (0.0, math.pi / 6),
        (math.pi / 3, 2 * math.pi / 3),
        (5 * math.pi / 6, 7 * math.pi / 6),
        (4 * math.pi / 3, 5 * math.pi / 3),
    ]
    eye = np.eye(2)
    for _ in range(30):
        lo, hi = rng.choice(windows)
        theta = rng.uniform(lo, hi)
        assert theta_validity(theta)
        fam = three_strand_family(theta)
        assert _maxabs(fam.r @ fam.r.conj().T - eye) < 1e-10
        assert _maxabs(fam.s @ fam.s.conj().T - eye) < 1e-10
        assert _maxabs(fam.r @ fam.s @ fam.r - fam.s @ fam.r @ fam.s) < 1e-10


def test_three_strand_family_rejects_invalid_theta():
    for theta in (math.pi / 4, 0.8, 2.5, 4.0, 5.5):
        assert not theta_validity(theta)
        with pytest.raises(ValueError):
            three_strand_family(theta)
    # boundaries are included
    for theta in (0.0, math.pi / 6, math.pi / 3, 2 * math.pi / 3):
        assert theta_validity(theta)
        three_strand_family(theta)
