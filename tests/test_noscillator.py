"""N-fold extension: matrix path vs set-partition expansion, limits, and the budget.

The set-partition expansion is the load-bearing piece of the package, so it
gets the densest coverage: agreement with explicit tensor matrices wherever
those fit, exact-rational against float arithmetic, and the closed-form
limits.
"""

import contextlib
import functools
import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from carfield import noscillator, sparse, symmetries
from carfield.errors import (
    ConfigError,
    PreconditionError,
    ResourceLimitError,
    ShapeError,
    SizeCapError,
)
from carfield.modes import (
    ModeBlocks,
    SingleOscillatorSpace,
    VacuumProfile,
    field_operator,
    field_operator_spectral,
    mode_projector,
    rapidity_lattice,
    restricted_lattice,
    smeared_annihilator,
    uniform_profile,
)
from carfield.noscillator import (
    MAX_SLATER_ORDER,
    NRegister,
    OpSpec,
    extend_additive,
    extend_operator,
    extend_unitary,
    gram_matrix,
    slater_limit,
    smeared_matrix,
    determinant_limit_convergence,
    overlap_product_ops,
    vacuum_matrix_element,
    vacuum_matrix_element_matrix,
    vacuum_state,
    zprod_inner,
)
from carfield.register import REGISTER, REGISTER_DIM, VACUUM_INDEX

from conftest import (
    assert_same_csr,
    random_table,
    scipy_nonzero,
    to_scipy,
)

amplitude_entries = st.floats(-2.0, 2.0, allow_nan=False)


def tables_1mode(count):
    return st.lists(
        st.lists(amplitude_entries, min_size=4, max_size=4),
        min_size=count,
        max_size=count,
    ).map(
        lambda rows: [
            np.array([[r[0] + 1j * r[1], r[2] + 1j * r[3]]], dtype=np.complex128)
            for r in rows
        ]
    )


class _Gaussian:
    """A Gaussian integer for the test references.

    The package keeps its exact values as plain (re, im) pairs of ints with
    the arithmetic written out; the references multiply these instead, so
    they share no arithmetic with the code they check.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re
        self.im = im

    def __add__(self, other):
        return _Gaussian(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return _Gaussian(self.re * other.re - self.im * other.im,
                         self.re * other.im + self.im * other.re)

    def scaled(self, k):
        return _Gaussian(self.re * k, self.im * k)

    def conjugate(self):
        return _Gaussian(self.re, -self.im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def pair(self):
        return self.re, self.im


# --- extension maps


def test_nregister_validation(single_space, single_profile):
    with pytest.raises(ConfigError):
        NRegister(single_space, 0)
    nreg = NRegister(single_space, 3)
    assert nreg.factor_dim == 16
    assert nreg.dim == 16**3
    # N is an integer: a float is not rounded, and a bool is no count
    for bad in (2.5, 2.0, True, np.True_, "3", None):
        with pytest.raises(ConfigError, match="^oscillator count must be an integer"):
            NRegister(single_space, bad)
    nreg = NRegister(single_space, np.int64(3))
    assert type(nreg.n) is int and nreg.dim == 16**3
    assert vacuum_matrix_element(NRegister(single_space, np.int8(100)), single_profile, []) == 1


def test_extend_operator_formula(double_space, rng):
    nreg = NRegister(double_space, 2)
    op = smeared_annihilator(double_space, random_table(rng, 2), "b")
    op_csr = to_scipy(double_space.embed(op))
    twist = to_scipy(double_space.embed(double_space.parity()))
    ident = scipy.sparse.identity(double_space.dim, dtype=np.complex128, format="csr")
    manual = (scipy.sparse.kron(op_csr, ident) + scipy.sparse.kron(twist, op_csr)) / np.sqrt(2)
    assert_same_csr(extend_operator(nreg, op), scipy_nonzero(manual))


def test_extend_additive_and_mean(double_space):
    nreg = NRegister(double_space, 2)
    op = mode_projector(double_space, 0)
    op_csr = to_scipy(double_space.embed(op))
    ident = scipy.sparse.identity(double_space.dim, dtype=np.complex128, format="csr")
    plain = scipy.sparse.kron(op_csr, ident) + scipy.sparse.kron(ident, op_csr)
    assert_same_csr(extend_additive(nreg, op), scipy_nonzero(plain))
    assert_same_csr(extend_additive(nreg, op) / nreg.n, scipy_nonzero(plain / 2))


def _identity(space):
    return ModeBlocks.diagonal(np.ones((space.lattice.size, REGISTER_DIM)))


def _kron_chain_slot_sum(space, n, op, twist):
    """Sum over slots of twist^(k-1) x op x id^(N-k): a scipy kron chain per slot, left to right."""
    op, twist = to_scipy(space.embed(op)), to_scipy(space.embed(twist))
    ident = scipy.sparse.identity(space.dim, dtype=np.complex128, format="csr")
    total = scipy.sparse.csr_matrix((space.dim**n, space.dim**n), dtype=np.complex128)
    for k in range(n):
        chain = [twist] * k + [op] + [ident] * (n - k - 1)
        term = chain[0]
        for factor in chain[1:]:
            term = scipy_nonzero(scipy.sparse.kron(term, factor, format="csr"))
        total = total + term
    return total


def _small_entry_blocks(space, shift=0):
    """Blocks of a ladder with entries far below 1, a -0.0 part, a -0.0 entry and a NaN."""
    stack = smeared_annihilator(space, np.ones((space.lattice.size, 2)), "b").stack.copy()
    stack[:, 0, 0] = 1e-30  # on the diagonal: N slot terms summed
    stack[:, 1, 2] = complex(1e-300, -0.0)
    stack[:, 2, 1] = 1e-16
    stack[:, 4, 6] = complex(-0.0, -0.0)
    stack[-1, 5, 5] = np.nan
    return ModeBlocks(stack, shift)


def _slot_sum_cases(space, rng):
    m = space.lattice.size
    dense = rng.standard_normal((m, 16, 16)) + 1j * rng.standard_normal((m, 16, 16))
    # register row 3 holds only its diagonal, so N-slot rows whose digits all
    # sit there hold only theirs
    lone = np.zeros((m, 16, 16), dtype=np.complex128)
    lone[:, 3, 3] = 1.5
    lone[:, 5, 9] = 2.0
    lone[:, 9, 5] = -1j
    return {
        "ladder": smeared_annihilator(space, random_table(rng, m), "d"),
        # real entries conjugated: every imaginary part is -0.0
        "negative_zero_ladder": smeared_annihilator(space, rng.standard_normal((m, 2)), "b").adjoint(),
        "negative_zero_dense": ModeBlocks(np.conj(dense.real.astype(np.complex128))),
        "projector": mode_projector(space, m - 1),
        # +-v on the diagonal: slot terms cancel to exact zeros on some rows
        "cancelling": ModeBlocks.diagonal(np.tile([1, -1, 2, -2, 0.5, -0.5, 0, 0,
                                                   1, 1, -1, -1, 3, -3, 0, 1], (m, 1))),
        "lone_diagonal": ModeBlocks(lone),
        # one storage rule: entries however small, and NaN, are stored; exact zeros are not
        "small_entries": _small_entry_blocks(space),
        "shifted": ModeBlocks(dense, shift=1),
        # full blocks: rows past 16 entries, and N terms summed on the diagonal
        "dense": ModeBlocks(dense),
    }


@pytest.mark.parametrize("space_name, n", [*itertools.product(["single_space", "double_space"],
                                                                [1, 2, 3]),
                                            ("single_space", 4)])
def test_extensions_equal_kron_chain_bitwise(request, rng, space_name, n):
    space = request.getfixturevalue(space_name)
    nreg = NRegister(space, n)
    for name, op in _slot_sum_cases(space, rng).items():
        if name in ("dense", "negative_zero_dense") and nreg.dim > 4096:
            continue  # 1.5 million entries at 2 modes, N = 3
        twisted = _kron_chain_slot_sum(space, n, op, space.parity())
        assert_same_csr(extend_operator(nreg, op), scipy_nonzero(twisted / np.sqrt(n)))
        plain = _kron_chain_slot_sum(space, n, op, _identity(space))
        assert_same_csr(extend_additive(nreg, op), scipy_nonzero(plain))
        assert_same_csr(extend_additive(nreg, op) / n, scipy_nonzero(plain / n))


def _complex_product(x, y):
    """x y as numpy's scalar complex multiply forms it, in Python floats."""
    return complex(x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real)


def _rule_slot_sum(space, n, op, twist, scale=None):
    """The N-slot sum written out from the summation rule in Python floats, as {(row, col): value}.

    Slot k places each stored entry v of op at row (l d + r) d^(N-k-1) + b
    with the value t(l) v, t(l) the product 1 t_(l_0) t_(l_1) ... of the
    twist diagonal over the k left digits, formed left to right.  Per
    entry, from 0, slots in order; once any entry meets two terms, every
    entry is such a sum, else each keeps its one term as it is.  Exact
    zeros are not stored, and a scale multiplies each stored value by
    (scale + 0j).
    """
    rows, cols, data = space.embed(op).coo()
    entries = [(int(r), int(c), complex(v)) for r, c, v in zip(rows, cols, data)]
    d = space.dim
    twist = [complex(t) for t in twist]
    lefts = [complex(1.0, 0.0)]
    terms = {}
    for k in range(n):
        right = d ** (n - k - 1)
        for l, t in enumerate(lefts):
            for r, c, v in entries:
                value = _complex_product(t, v)
                for b in range(right):
                    key = ((l * d + r) * right + b, (l * d + c) * right + b)
                    terms.setdefault(key, []).append(value)
        lefts = [_complex_product(t, u) for t in lefts for u in twist]
    summed = any(len(values) > 1 for values in terms.values())
    out = {}
    for key in sorted(terms):
        re = im = 0.0
        for value in terms[key]:
            re += value.real
            im += value.imag
        value = complex(re, im) if summed else terms[key][0]
        if value != 0:
            out[key] = value if scale is None else _complex_product(value, complex(scale, 0.0))
    return out


def _assert_rule_bytes(got, want):
    rows, cols, data = got.coo()
    assert list(zip(rows.tolist(), cols.tolist())) == list(want)
    assert data.tobytes() == np.array(list(want.values()), dtype=np.complex128).tobytes()


@pytest.mark.parametrize("space_name, n", [("single_space", 1), ("single_space", 2),
                                            ("single_space", 3), ("double_space", 1),
                                            ("double_space", 2)])
def test_extensions_equal_the_summation_rule_bytewise(request, rng, space_name, n):
    # every zero part's sign too: the kron chain above compares values only
    space = request.getfixturevalue(space_name)
    nreg = NRegister(space, n)
    parity = np.tile(np.diag(REGISTER.parity), space.lattice.size)
    for name, op in _slot_sum_cases(space, rng).items():
        if name in ("dense", "negative_zero_dense") and nreg.dim > 1024:
            continue  # 200 000 Python terms at one mode, N = 3
        _assert_rule_bytes(extend_operator(nreg, op),
                           _rule_slot_sum(space, n, op, parity, 1 / np.sqrt(n)))
        _assert_rule_bytes(extend_additive(nreg, op),
                           _rule_slot_sum(space, n, op, np.ones(space.dim)))


def _assert_stores_exactly(got, want):
    """got is canonical CSR holding exactly the nonzero entries of the scipy matrix want."""
    assert got.indptr[0] == 0 and got.indptr[-1] == got.nnz
    assert np.all(np.diff(got.indptr) >= 0)
    rows = np.repeat(np.arange(got.shape[0], dtype=np.int64), np.diff(got.indptr))
    assert np.all(np.diff(rows * got.shape[1] + got.indices) > 0)
    assert np.all(got.data != 0)  # NaN != 0
    assert_same_csr(got, scipy_nonzero(want))


def test_builders_store_every_nonzero_entry(single_space, double_space, rng):
    # one storage rule: however small an entry, and NaN, it is stored; exact zeros are not
    # (extend_operator and extend_additive take the same blocks in _slot_sum_cases)
    for space in (single_space, double_space):
        m = space.lattice.size
        for shift in (0, m - 1):
            shifted = _small_entry_blocks(space, shift)
            dense = np.zeros((space.dim, space.dim), dtype=np.complex128)
            for i in range(shift, m):
                dense[16 * i:16 * i + 16, 16 * (i - shift):16 * (i - shift) + 16] = shifted.stack[i]
            _assert_stores_exactly(space.embed(shifted), scipy.sparse.csr_matrix(dense))

    space = SingleOscillatorSpace(rapidity_lattice(1, 0.4, 1.0))
    space.pos_table = space.pos_table * 1e-20
    space.neg_table = space.neg_table * 1e-300
    x = rng.uniform(-1, 1, 4)
    for alpha in range(4):
        got = field_operator_spectral(space, x, alpha)
        assert 0 < sparse.max_abs(got) < 1e-19
        _assert_stores_exactly(got, to_scipy(space.embed(field_operator(space, x, alpha))))

    # e^-40 and e^-700 are stored, e^-800 underflows to an exact zero, NaN stays
    d = np.array([0.0, -40.0, -700.0, -800.0, np.nan, -0.0, 1e-16, 2.0], dtype=np.complex128)
    got = sparse.matrix_exponential(sparse.SparseOperator(d, np.arange(8), np.arange(9), (8, 8)))
    _assert_stores_exactly(got, scipy.sparse.csr_matrix(np.diag(np.exp(d))))
    assert got.nnz == 7


def test_extend_unitary_is_tensor_power(double_space, rng):
    nreg = NRegister(double_space, 2)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, double_space.dim))
    u = ModeBlocks.diagonal(phases.reshape(double_space.lattice.size, REGISTER_DIM))
    u_csr = double_space.embed(u)
    expected = sparse.tensor_product(u_csr, u_csr)
    assert sparse.max_abs(extend_unitary(nreg, u) - expected) == 0.0


def test_extension_dimension_guards(double_space, default_space):
    nreg = NRegister(double_space, 2)
    # an operator of another lattice size
    with pytest.raises(ShapeError):
        extend_operator(nreg, ModeBlocks(np.zeros((3, REGISTER_DIM, REGISTER_DIM))))
    # (16 * 13)^3 blows through the cap
    big = NRegister(default_space, 3)
    with pytest.raises(SizeCapError):
        extend_operator(big, _identity(default_space))
    with pytest.raises(SizeCapError):
        extend_additive(big, _identity(default_space))
    with pytest.raises(SizeCapError):
        extend_unitary(big, _identity(default_space))


def test_extended_car(double_space, rng):
    nreg = NRegister(double_space, 2)
    f = random_table(rng, 2)
    g = random_table(rng, 2)
    ext_f = extend_operator(nreg, smeared_matrix(double_space, OpSpec(f, "b", False)))
    ext_g = extend_operator(nreg, smeared_matrix(double_space, OpSpec(g, "b", False)))
    single_anti = smeared_annihilator(double_space, f, "b").anticommutator(
        smeared_annihilator(double_space, g, "b").adjoint()
    )
    expected = extend_additive(nreg, single_anti) / nreg.n
    got = sparse.anticommutator(ext_f, sparse.adjoint(ext_g))
    assert sparse.max_abs(got - expected) < 1e-13
    assert sparse.max_abs(sparse.anticommutator(ext_f, ext_g)) < 1e-13


def test_vacuum_state_norm(double_space, double_profile):
    for n in (1, 2, 3):
        vac = vacuum_state(NRegister(double_space, n), double_profile)
        assert sparse.inner(vac, vac) == pytest.approx(1.0, abs=1e-14)


def test_vacuum_state_is_the_kron_power(double_space, default_space, default_profile):
    profiles = {double_space: VacuumProfile(np.array([0.6 - 0.3j, 1.1 + 0.2j])),
                default_space: default_profile}
    for space, profile in profiles.items():
        factor = noscillator.vacuum_vector(space, profile)
        want = np.array([1.0 + 0j])
        for n in (1, 2, 3):
            want = np.kron(want, factor)
            if len(want) > sparse.MAX_DIM:
                break
            assert vacuum_state(NRegister(space, n), profile).tobytes() == want.tobytes()


# --- the slot action: extensions applied to states, against the CSR route


@pytest.fixture(scope="module")
def triple_space():
    return SingleOscillatorSpace(rapidity_lattice(1, 0.4, 1.0))


_KINDS = ("twisted", "untwisted")


def _csr_route(nreg, op, ket, kind):
    """The extension as an explicit N-slot CSR matrix, applied to the ket."""
    if kind == "twisted":
        return extend_operator(nreg, op) @ ket
    return extend_additive(nreg, op) @ ket


def _slot_action(nreg, op, ket, kind):
    return noscillator.apply_extension(nreg, op, ket, twisted=kind == "twisted")


def _summation_gap_bound(n):
    """c u with |slot - CSR| <= c u sum|terms| entrywise, for rows of at most K = 16 N terms.

    Each route scales each value (within u) and forms each complex term
    (within sqrt(2) gamma_2: Higham 2002, Lemma 3.5), then sums each row's
    real and imaginary parts in its own order (each within gamma_(K-1) of
    the parts' absolute sum: ibid., section 4.2).  So each route lies within
    sqrt(2) gamma_(K+2) sum|terms| of the exact row, and the two within
    2 sqrt(2) gamma_(K+2); 3 gamma_(K+2) also covers the rounding of the
    computed sum|terms|.
    """
    k = 16 * n + 2
    u = np.finfo(np.float64).eps / 2
    return 3 * k * u / (1 - k * u)


def _assert_slot_action_is_the_csr_route(nreg, op, ket):
    """Bitwise at N = 1; at N > 1, NaN where the CSR route has it, else within its rounding."""
    magnitudes = extend_additive(nreg, ModeBlocks(np.abs(op.stack), op.shift)) @ np.abs(ket)
    for kind in _KINDS:
        got, want = _slot_action(nreg, op, ket, kind), _csr_route(nreg, op, ket, kind)
        if nreg.n == 1:
            assert np.array_equal(got, want, equal_nan=True), kind
            # every entry is a sum from +0 on both routes: no -0.0 part on either
            assert got.tobytes() == want.tobytes() or np.isnan(want).any(), kind
            continue
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), kind
        total = magnitudes / np.sqrt(nreg.n) if kind == "twisted" else magnitudes
        gap = np.abs(got - want)[~nan]
        assert np.all(gap <= _summation_gap_bound(nreg.n) * total.real[~nan]), kind


def _ket(rng, dim, scale=1.0):
    """A random state with about a third of its entries exactly zero."""
    ket = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    ket[rng.random(dim) < 0.3] = 0
    return ket


@settings(max_examples=40, deadline=None)
@given(modes=st.sampled_from([1, 2, 3]), n=st.sampled_from([1, 2, 3]),
       shift=st.sampled_from([-1, 0, 1]), species=st.sampled_from("bd"),
       dagger=st.booleans(), diagonal=st.booleans(), amplitude=st.sampled_from([1.0, 1e-38]),
       seed=st.integers(0, 2**32 - 1))
def test_slot_action_equals_the_csr_route(single_space, double_space, triple_space, modes, n,
                                         shift, species, dagger, diagonal, amplitude, seed):
    if (16 * modes) ** n > 2**15:
        n -= 1  # 48^3: the fixed cases below take it
    space = (single_space, double_space, triple_space)[modes - 1]
    rng = np.random.default_rng(seed)
    op = smeared_matrix(space, OpSpec(amplitude * random_table(rng, modes), species, dagger))
    if diagonal:
        op = op @ op.adjoint()  # every register row meets its own diagonal
    op = ModeBlocks(op.stack, shift)
    nreg = NRegister(space, n)
    _assert_slot_action_is_the_csr_route(nreg, op, _ket(rng, nreg.dim, amplitude))


@pytest.mark.parametrize("space_name, n", [*itertools.product(["single_space", "double_space"],
                                                                [1, 2, 3]),
                                            ("triple_space", 1), ("triple_space", 2)])
def test_slot_action_equals_the_csr_route_on_fixed_blocks(request, rng, space_name, n):
    # NaN, -0.0 parts, entries of 1e-300, cancelling diagonals, shifts and full blocks
    space = request.getfixturevalue(space_name)
    nreg = NRegister(space, n)
    cases = _slot_sum_cases(space, rng)
    cases["shifted_down"] = ModeBlocks(cases["dense"].stack, -1)
    # complex diagonal products, where a fused multiply-add would round differently
    phases = np.exp(1j * rng.uniform(-4, 4, (space.lattice.size, REGISTER_DIM)))
    cases["phases"] = ModeBlocks.diagonal(phases)
    for name, op in cases.items():
        if name in ("dense", "negative_zero_dense", "shifted", "shifted_down") \
                and nreg.dim > 4096:
            continue  # 1.5 million entries at 2 modes, N = 3
        _assert_slot_action_is_the_csr_route(nreg, op, _ket(rng, nreg.dim))


def test_slot_action_on_three_modes_and_slots(triple_space, rng):
    nreg = NRegister(triple_space, 3)
    ladder = smeared_annihilator(triple_space, random_table(rng, 3), "d")
    ket = _ket(rng, nreg.dim)
    for op in (ladder, ladder.adjoint() @ ladder, ModeBlocks(ladder.stack, 1)):
        _assert_slot_action_is_the_csr_route(nreg, op, ket)


def test_slot_action_guards(double_space, default_space):
    nreg = NRegister(double_space, 2)
    op = double_space.parity()
    ket = np.ones(nreg.dim, dtype=np.complex128)
    with pytest.raises(ShapeError):
        noscillator.apply_extension(nreg, ModeBlocks(np.zeros((3, REGISTER_DIM, REGISTER_DIM))),
                                    ket, twisted=True)
    with pytest.raises(ShapeError):
        noscillator.apply_extension(nreg, op, ket[:-1], twisted=False)
    with pytest.raises(SizeCapError):
        noscillator.apply_extension(NRegister(default_space, 3), _identity(default_space),
                                    ket, twisted=False)
    # an operator with no live mode moves every state to 0
    nothing = ModeBlocks(np.zeros((2, REGISTER_DIM, REGISTER_DIM)), 1)
    got = noscillator.apply_extension(nreg, nothing, ket, twisted=True)
    assert got.tobytes() == np.zeros(nreg.dim, dtype=np.complex128).tobytes()


def test_state_level_routes_build_no_n_slot_matrix(monkeypatch, double_space, double_profile,
                                                   default_space, default_profile, rng):
    ops = _random_ops(rng, 2, 4)
    walk = vacuum_matrix_element(NRegister(double_space, 2), double_profile, ops)

    def refuse(*args):
        raise AssertionError("an N-slot or single-oscillator CSR matrix was built")

    monkeypatch.setattr(noscillator, "_slot_sum", refuse)
    monkeypatch.setattr(SingleOscillatorSpace, "embed", refuse)
    got = vacuum_matrix_element_matrix(NRegister(double_space, 2), double_profile, ops)
    assert abs(got - walk) < 1e-12
    energy = symmetries.vacuum_energy_expectation(default_space, default_profile, 2)
    assert math.isfinite(energy) and energy < 0


# --- set-partition expansion vs explicit matrices


def test_empty_product_is_vacuum_norm(double_space, double_profile):
    for n in (1, 4, 64):
        got = vacuum_matrix_element(NRegister(double_space, n), double_profile, [])
        assert got == pytest.approx(1.0, abs=1e-15)


def _random_ops(rng, modes, count):
    return [
        OpSpec(random_table(rng, modes), "bd"[int(rng.integers(0, 2))], bool(rng.integers(0, 2)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("n,count", [(1, 2), (2, 2), (2, 4), (3, 2), (3, 4)])
def test_walk_matches_matrices_double(double_space, double_profile, rng, n, count):
    nreg = NRegister(double_space, n)
    ops = _random_ops(rng, 2, count)
    walk = vacuum_matrix_element(nreg, double_profile, ops)
    explicit = vacuum_matrix_element_matrix(nreg, double_profile, ops)
    assert abs(walk - explicit) < 1e-11


def test_walk_matches_matrices_single(single_space, single_profile, rng):
    nreg = NRegister(single_space, 4)
    for count in (2, 3, 4, 6):
        ops = _random_ops(rng, 1, count)
        walk = vacuum_matrix_element(nreg, single_profile, ops)
        explicit = vacuum_matrix_element_matrix(nreg, single_profile, ops)
        assert abs(walk - explicit) < 1e-11


@pytest.mark.parametrize("a", [1e-14, 1e-20, 1e-38])
def test_matrix_route_has_no_floor(single_space, single_profile, a):
    # c(e) c(a e)' on one mode at N = 2 is a w Z, and w Z = 1 up to rounding
    ops = [OpSpec(np.array([[1j, 0]]), "b", False), OpSpec(np.array([[a * 1j, 0]]), "b", True)]
    nreg = NRegister(single_space, 2)
    got = vacuum_matrix_element_matrix(nreg, single_profile, ops)
    assert abs(got - a) <= 1e-15 * a
    for exact in (False, True):
        assert abs(got - vacuum_matrix_element(nreg, single_profile, ops, exact=exact)) <= 1e-15 * a


def test_walk_matches_matrices_complex_profile(double_space, double_profile, rng):
    # vacuum amplitudes with phases: the bra carries their conjugates
    profile = VacuumProfile(double_profile.values * np.exp(1j * rng.uniform(-np.pi, np.pi, 2)))
    nreg = NRegister(double_space, 2)
    for m in (1, 2):
        ops = overlap_product_ops([random_table(rng, 2) for _ in range(m)],
                                  [random_table(rng, 2) for _ in range(m)])
        got = vacuum_matrix_element(nreg, profile, ops)
        assert abs(got) > 0.05
        assert abs(got - vacuum_matrix_element_matrix(nreg, profile, ops)) <= 1e-12


def test_odd_products_vanish(double_space, double_profile, rng):
    for count in (1, 3):
        ops = _random_ops(rng, 2, count)
        got = vacuum_matrix_element(NRegister(double_space, 3), double_profile, ops)
        assert got == 0.0


def test_exact_path_agrees_with_float(single_space, single_profile, rng):
    nreg = NRegister(single_space, 5)
    for count in (2, 4):
        ops = _random_ops(rng, 1, count)
        exact = vacuum_matrix_element(nreg, single_profile, ops, exact=True)
        floaty = vacuum_matrix_element(nreg, single_profile, ops)
        assert abs(exact - floaty) < 1e-12


def test_exact_path_needs_one_mode(double_space, double_profile, rng):
    ops = _random_ops(rng, 2, 2)
    with pytest.raises(PreconditionError):
        vacuum_matrix_element(NRegister(double_space, 2), double_profile, ops, exact=True)


@pytest.mark.parametrize("j_max", [1, 2])
def test_walk_matches_matrices_beyond_two_modes(rng, j_max):
    # the full J = 1 and J = 2 rapidity lattices: 3 and 5 modes
    space = SingleOscillatorSpace(rapidity_lattice(j_max, 0.4, 1.0))
    profile = uniform_profile(space.lattice)
    nreg = NRegister(space, 2)
    for count in (2, 4):
        ops = _random_ops(rng, space.lattice.size, count)
        walk = vacuum_matrix_element(nreg, profile, ops)
        explicit = vacuum_matrix_element_matrix(nreg, profile, ops)
        assert abs(walk - explicit) <= 1e-12


def _rapidity_overlap(rng, m, j_max=1):
    space = SingleOscillatorSpace(rapidity_lattice(j_max, 0.4, 1.0))
    fs = [random_table(rng, space.lattice.size) for _ in range(m)]
    gs = [random_table(rng, space.lattice.size) for _ in range(m)]
    return space, uniform_profile(space.lattice), fs, gs


@pytest.mark.parametrize("m", [5, 6])
def test_high_order_overlap_matches_matrices(rng, m):
    # a slot holds at most two b excitations, so at N = 2 both routes give 0
    # and N = 3 is the first nonzero comparison
    space, profile, fs, gs = _rapidity_overlap(rng, m)
    ops = overlap_product_ops(fs, gs)
    for n in (2, 3):
        nreg = NRegister(space, n)
        got = vacuum_matrix_element(nreg, profile, ops)
        assert abs(got - vacuum_matrix_element_matrix(nreg, profile, ops)) <= 1e-12
    assert abs(got) > 0.05


@pytest.mark.parametrize("m", [3, 4, 5, 6, 8])
def test_top_coefficient_is_determinant(rng, m):
    # the M-block partitions of an order-M overlap are the pairings: Wick's det;
    # 3 modes hold 6 one-particle states, so M = 8 runs on the 5-mode lattice
    space, profile, fs, gs = _rapidity_overlap(rng, m, j_max=1 if m <= 6 else 2)
    expansion = noscillator._partition_expansion(space, profile, overlap_product_ops(fs, gs),
                                                 False)
    det = slater_limit(space.lattice, profile, fs, gs)
    assert abs(det) > 0.05
    assert abs(expansion.coeffs[m] - det) <= 1e-12 * abs(det)
    assert len(expansion.coeffs) == 2 * m + 1
    assert all(c == 0 for c in expansion.coeffs[m + 1:])


def _matrix_coefficients(space, profile, ops):
    """c_1, c_2, c_3 solved from the N-slot matrices at N = 1, 2 and 3.

    N^(K/2) <vac_N| ... |vac_N> = sum_j (N)_j c_j, and (N)_j = 0 for j > N,
    so the three elements form a triangular system for c_1..c_3.
    """
    coeffs = []
    for n in (1, 2, 3):
        total = n ** (len(ops) // 2) * vacuum_matrix_element_matrix(NRegister(space, n),
                                                                   profile, ops)
        for j, coeff in enumerate(coeffs, 1):
            total -= math.perm(n, j) * coeff
        coeffs.append(total / math.perm(n, n))
    return coeffs


def _assert_coefficients_match_matrices(space, profile, ops):
    # balanced products of K <= 6 factors have blocks of two or more, so
    # c_1..c_3 are all the coefficients of the expansion
    want = noscillator._partition_expansion(space, profile, ops, False).coeffs
    assert len(ops) <= 6 and not any(want[4:])
    want = (want + [0j] * 3)[1:4]
    # the product's size bounds the rounding of both routes where the
    # coefficients cancel, as with a repeated table
    scale = max(*(abs(c) for c in want),
                math.prod(float(np.abs(spec.amplitude).max()) for spec in ops))
    for got, coeff in zip(_matrix_coefficients(space, profile, ops), want):
        assert abs(got - coeff) <= 1e-12 * scale


@st.composite
def _balanced_products(draw):
    """1 or 2 modes and K <= 6 factors, as many creators as annihilators per species.

    A product that ends in an annihilator or starts with a creator vanishes
    on the vacuum at every N, so an annihilator comes first, a creator last
    and the other factors in any order.
    """
    modes = draw(st.integers(1, 2))
    # magnitudes from 2 down to 1e-30, spread over the decades
    magnitude = st.builds(lambda x, k: x * 10.0**-k, st.floats(0.1, 2.0), st.integers(0, 29))
    entry = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))
    species = draw(st.lists(st.sampled_from("bd"), min_size=1, max_size=3))
    first, *rest = [(s, False) for s in species]
    last, *more = [(s, True) for s in species]
    word = [first, *draw(st.permutations(rest + more)), last]
    table = st.lists(entry, min_size=4 * modes, max_size=4 * modes).map(
        lambda xs: (np.array(xs[::2]) + 1j * np.array(xs[1::2])).reshape(modes, 2))
    return modes, [OpSpec(draw(table), s, dagger) for s, dagger in word]


@settings(max_examples=30, deadline=None)
@given(case=_balanced_products())
def test_every_coefficient_matches_the_matrices(case):
    modes, ops = case
    _assert_coefficients_match_matrices(*_engine_space(modes), ops)


def test_a_scaled_middle_coefficient_fails_the_matrix_check(monkeypatch, rng):
    space, profile = _engine_space(2)
    ops = [OpSpec(random_table(rng, 2), s, dagger)
           for s, dagger in [("b", False), ("d", False), ("b", True), ("d", True),
                             ("b", False), ("b", True)]]
    _assert_coefficients_match_matrices(space, profile, ops)
    partition_sum = noscillator._partition_sum

    def scaled(plan, moments):
        coeffs = partition_sum(plan, moments)
        coeffs[2] = coeffs[2][0] * 1.001, coeffs[2][1] * 1.001
        return coeffs

    monkeypatch.setattr(noscillator, "_partition_sum", scaled)
    with pytest.raises(AssertionError):
        _assert_coefficients_match_matrices(space, profile, ops)


def test_three_mode_deviation_decays_to_large_n(rng):
    space = SingleOscillatorSpace(rapidity_lattice(1, 0.4, 1.0))
    profile = uniform_profile(space.lattice)
    fs = [random_table(rng, 3) for _ in range(2)]
    gs = [random_table(rng, 3) for _ in range(2)]
    rep = determinant_limit_convergence(space, profile, fs, gs, [10**4, 10**6])
    assert not rep.exact
    assert rep.final_ratio == pytest.approx(1e-2, rel=0.01)


def test_pattern_budget(monkeypatch, single_space, single_profile, rng):
    # the factor bound 2 MAX_SLATER_ORDER is the expansion's one budget
    ops = overlap_product_ops([random_table(rng, 1) for _ in range(2)],
                              [random_table(rng, 1) for _ in range(2)])
    nreg = NRegister(single_space, 4)
    vacuum_matrix_element(nreg, single_profile, ops)
    monkeypatch.setattr(noscillator, "MAX_SLATER_ORDER", 1)
    for exact in (False, True):
        with pytest.raises(ResourceLimitError):
            vacuum_matrix_element(nreg, single_profile, ops, exact=exact)


def test_float_walk_overflow(single_space, single_profile, double_space, double_profile, rng):
    fs = [random_table(rng, 1) for _ in range(2)]
    gs = [random_table(rng, 1) for _ in range(2)]
    ops = overlap_product_ops(fs, gs)
    huge = NRegister(single_space, 10**200)
    with pytest.raises(ResourceLimitError):
        vacuum_matrix_element(huge, single_profile, ops)
    # the exact walk has no N limit and still sits on the determinant
    got = vacuum_matrix_element(huge, None, ops, exact=True)
    assert abs(got - slater_limit(single_space.lattice, single_profile, fs, gs)) < 1e-12
    # comb(10^76, 4) fits a float, but times these amplitudes it overflows to
    # inf without an OverflowError
    ops4 = overlap_product_ops([random_table(rng, 2) * 1e3 for _ in range(4)],
                               [random_table(rng, 2) * 1e3 for _ in range(4)])
    with pytest.raises(ResourceLimitError):
        vacuum_matrix_element(NRegister(double_space, 10**76), double_profile, ops4)


def test_exact_path_overflow(single_space, single_profile):
    # exact values past the float range stop as a budget error, as the float
    # path does, not as a bare OverflowError: det = 1e1200 here
    fs = gs = [np.array([[1e300, 0]]), np.array([[0, 1e300]])]
    with pytest.raises(ResourceLimitError, match="leaves the float range"):
        determinant_limit_convergence(single_space, single_profile, fs, gs, [2, 4])
    with pytest.raises(ResourceLimitError, match="leaves the float range"):
        vacuum_matrix_element(NRegister(single_space, 2), single_profile,
                              overlap_product_ops(fs, gs), exact=True)


@pytest.mark.parametrize("modes", [2, 3])
def test_convergence_records_equal_per_n_elements(rng, modes):
    # the float walk on two modes of the J = 1 lattice, and on all three
    lattice = rapidity_lattice(1, 0.4, 1.0)
    space = SingleOscillatorSpace(
        restricted_lattice(lattice, (0, 2)) if modes == 2 else lattice)
    profile = uniform_profile(space.lattice)
    n_list = [1, 2, 7, 64, 10**6]
    for m in (1, 2, 3):
        fs = [random_table(rng, modes) for _ in range(m)]
        gs = [random_table(rng, modes) for _ in range(m)]
        rep = determinant_limit_convergence(space, profile, fs, gs, n_list)
        ops = overlap_product_ops(fs, gs)
        for rec in rep.records:
            alone = vacuum_matrix_element(NRegister(space, rec.n), profile, ops)
            assert rec.lhs.real.hex() == alone.real.hex()
            assert rec.lhs.imag.hex() == alone.imag.hex()


def _fractions(quotient):
    """The exact real and imaginary parts of an exact quotient ((re, im), den)."""
    (re, im), den = quotient
    return Fraction(re, den), Fraction(im, den)


def test_exact_convergence_records_equal_per_n_elements(single_space, single_profile, rng):
    n_list = [1, 2, 3, 64, 10**6]
    for m in (1, 2, 3, 4):
        fs = [random_table(rng, 1) for _ in range(m)]
        gs = [random_table(rng, 1) for _ in range(m)]
        rep = determinant_limit_convergence(single_space, single_profile, fs, gs, n_list)
        ops = overlap_product_ops(fs, gs)
        expansion = noscillator._partition_expansion(single_space, None, ops, True)
        for rec in rep.records:
            alone = noscillator._evaluate(
                noscillator._partition_expansion(single_space, None, ops, True), rec.n)
            shared = noscillator._evaluate(expansion, rec.n)
            assert _fractions(alone) == _fractions(shared)
            assert rec.lhs == vacuum_matrix_element(NRegister(single_space, rec.n), None, ops,
                                                    exact=True)
            assert rec.deviation == 0.0


@pytest.mark.parametrize("j_max", [0, 1])
def test_one_walk_per_convergence_call(monkeypatch, rng, j_max):
    # one mode (exact path) and three modes (float path): one expansion per call
    lattice = rapidity_lattice(j_max, 0.4, 1.0)
    space = SingleOscillatorSpace(lattice)
    profile = uniform_profile(lattice)
    walks = []
    real_expansion = noscillator._partition_expansion

    def counting_expansion(*args, **kwargs):
        walks.append(len(args[2]))
        return real_expansion(*args, **kwargs)

    monkeypatch.setattr(noscillator, "_partition_expansion", counting_expansion)
    for n_list in ([2], [2, 4, 8], [1, 2, 4, 8, 64, 10**6]):
        for m in (1, 2, 3):
            fs = [random_table(rng, lattice.size) for _ in range(m)]
            gs = [random_table(rng, lattice.size) for _ in range(m)]
            walks.clear()
            rep = determinant_limit_convergence(space, profile, fs, gs, n_list)
            assert rep.exact == (lattice.size == 1)
            assert walks == [2 * m]


def test_one_lift_per_distinct_table(monkeypatch, single_space, single_profile, rng):
    # the expansion and the exact Gram share one lift per table: 2M calls,
    # not 4M, and a table passed as both f_k and g_k is lifted once
    lifted = []
    real_lift = noscillator._dyadic_lift

    def counting_lift(values):
        lifted.append(tuple(values))
        return real_lift(values)

    monkeypatch.setattr(noscillator, "_dyadic_lift", counting_lift)
    for m in (1, 2, 3, 4):
        fs = [random_table(rng, 1) for _ in range(m)]
        gs = [random_table(rng, 1) for _ in range(m)]
        for tables, distinct in (((fs, gs), 2 * m), ((fs, fs), m)):
            lifted.clear()
            rep = determinant_limit_convergence(single_space, single_profile, *tables, [2, 4])
            assert rep.exact and rep.deviations() == [0.0, 0.0]
            assert len(lifted) == len(set(lifted)) == distinct


# the routes as they are, for the faulted wrappers below
_REAL_EXPANSION = noscillator._partition_expansion
_REAL_GRAM = noscillator._gram_exact


def _unreversed_product_ops(fs, gs, species="b"):
    # overlap_product_ops without its annihilator reversal
    return ([OpSpec(np.asarray(f), species, False) for f in fs]
            + [OpSpec(np.asarray(g), species, True) for g in gs])


def _expansion_without_conjugation(space, profile, ops, exact, *rest):
    # the annihilators' tables conjugated on the way in: the expansion's own
    # conjugation, an involution, undoes it, as if it had been dropped
    ops = [spec if spec.dagger else spec._replace(amplitude=np.conj(spec.amplitude))
           for spec in ops]
    return _REAL_EXPANSION(space, profile, ops, exact, *rest)


def _gram_without_conjugation(fs, gs, *rest):
    return _REAL_GRAM([np.conj(f) for f in fs], gs, *rest)


@pytest.mark.parametrize("name, fault", [
    ("overlap_product_ops", _unreversed_product_ops),
    ("_partition_expansion", _expansion_without_conjugation),
    ("_gram_exact", _gram_without_conjugation),
])
def test_a_fault_on_one_route_moves_the_exact_deviation(monkeypatch, single_space,
                                                        single_profile, rng, name, fault):
    # the Gram reuses the expansion's lifts, but by table values, with its own
    # pairing and conjugation: a fault on either route must still show at
    # M = 2 on one mode, where det != 0 and the true deviation is exactly 0
    fs = [random_table(rng, 1) for _ in range(2)]
    gs = [random_table(rng, 1) for _ in range(2)]
    rep = determinant_limit_convergence(single_space, single_profile, fs, gs, [1, 2, 8])
    assert rep.limit != 0 and rep.deviations() == [0.0, 0.0, 0.0]
    monkeypatch.setattr(noscillator, name, fault)
    rep = determinant_limit_convergence(single_space, single_profile, fs, gs, [1, 2, 8])
    assert rep.exact and all(d > 0 for d in rep.deviations())


# extreme dyadic entries: the smallest subnormal, powers near 2^+-1000 and
# mixed exponents within one table; spin 0 is large in every f and small in
# every g, spin 1 the reverse, so the Gram entries and det stay in float range
_TINY = 5e-324


def _extreme_tables(rng):
    def mantissa():
        return complex(rng.standard_normal(), rng.standard_normal())

    fs = [
        [2.0**1000 * mantissa(), 2.0**-1000 * mantissa()],
        [1.5 * 2.0**1023, 2.0**-1022 * mantissa()],
        [2.0**990 * mantissa(), 2.0**-1010 * mantissa()],
    ]
    gs = [
        [2.0**-1000 * mantissa(), 2.0**1000 * mantissa()],
        [complex(_TINY, 2.0**-1000 * rng.standard_normal()), 2.0**1000 * mantissa()],
        [2.0**-1020 * mantissa(), 2.0**1010 * mantissa()],
    ]
    return ([np.array([row], dtype=np.complex128) for row in fs],
            [np.array([row], dtype=np.complex128) for row in gs])


def test_dyadic_lift_is_exact(rng):
    fs, gs = _extreme_tables(rng)
    for table in fs + gs:
        ints, shift = noscillator._dyadic_lift(table[0])
        for z, (re, im) in zip(table[0], ints):
            assert Fraction(re, 2**shift) == Fraction(z.real)
            assert Fraction(im, 2**shift) == Fraction(z.imag)


def test_exact_path_extreme_dyadic_amplitudes(single_space, single_profile, rng):
    fs, gs = _extreme_tables(rng)
    for m in (1, 2, 3):
        rep = determinant_limit_convergence(single_space, single_profile, fs[:m], gs[:m],
                                            [1, 2, 10**6])
        assert rep.exact
        assert rep.deviations() == [0.0, 0.0, 0.0]
        # the one-mode Gram matrix has rank 2, so only M = 3 has a zero limit
        assert (rep.limit == 0) == (m == 3)
        # the integers and the shift of the expansion, against the dict walk
        ops = overlap_product_ops(fs[:m], gs[:m])
        assert (_bits(noscillator._partition_expansion(single_space, None, ops, True))
                == _bits(_reference_expansion(single_space, None, ops, True)))
    # the subnormal alone: its square lies below the float range, not so the
    # exact value
    tiny = [np.array([[_TINY, 0.0]], dtype=np.complex128)]
    expansion = noscillator._partition_expansion(single_space, None,
                                                 overlap_product_ops(tiny, tiny), True)
    for n in (1, 2, 10**6):
        value = noscillator._evaluate(expansion, n)
        assert _fractions(value) == (Fraction(1, 2**2148), 0)
    rep = determinant_limit_convergence(single_space, single_profile, tiny, tiny, [1, 2, 10**6])
    assert rep.deviations() == [0.0, 0.0, 0.0]


def test_exact_odd_products_vanish(monkeypatch, single_space, rng):
    fs, gs = _extreme_tables(rng)
    tables = fs + gs
    for count in (1, 3, 5):
        ops = [OpSpec(tables[k], "bd"[k % 2], bool(k % 3)) for k in range(count)]
        expansion = noscillator._partition_expansion(single_space, None, ops, True)
        assert all(coeff == (0, 0) for coeff in expansion.coeffs)
        for n in (1, 2, 10**6):
            assert vacuum_matrix_element(NRegister(single_space, n), None, ops, exact=True) == 0
    # the parity guard fires on a nonzero odd moment: a doctored ladder that
    # keeps the register vacuum gives the one-factor product a vacuum moment
    # (in a fresh plan cache, so that no plan of the true ladder serves it)
    monkeypatch.setitem(noscillator._LADDERS, ("b", 0, False), {VACUUM_INDEX: (VACUUM_INDEX, 1)})
    ops = [OpSpec(tables[0], "b", False)]
    with _plan_cache(), pytest.raises(PreconditionError):
        noscillator._partition_expansion(single_space, None, ops, True)


def test_exact_order_five_sweep(single_space, single_profile, rng):
    fs = [random_table(rng, 1) for _ in range(5)]
    gs = [random_table(rng, 1) for _ in range(5)]
    rep = determinant_limit_convergence(single_space, single_profile, fs, gs, [2, 64, 10**6])
    assert rep.exact
    assert rep.deviations() == [0.0, 0.0, 0.0]
    assert rep.monotone


def test_opspec_validation(single_space, single_profile, rng):
    nreg = NRegister(single_space, 2)
    with pytest.raises(ShapeError):
        vacuum_matrix_element(nreg, single_profile, [OpSpec(np.zeros((2, 2)), "b", False)])
    with pytest.raises(ShapeError):
        vacuum_matrix_element(nreg, single_profile, [OpSpec(np.zeros((1, 2)), "x", False)])
    with pytest.raises(PreconditionError):
        vacuum_matrix_element(nreg, single_profile, [OpSpec(np.full((1, 2), np.nan), "b", False)])


def test_every_shape_and_species_is_checked_before_any_value(single_space, single_profile):
    # each bad factor alone raises as in test_opspec_validation; the tables
    # are stacked for one finiteness test only after every shape and
    # species has passed, so a later bad shape or species wins over an
    # earlier non-finite table
    nreg = NRegister(single_space, 2)
    nan = OpSpec(np.full((1, 2), np.nan), "b", False)
    for bad in (OpSpec(np.zeros((2, 2)), "b", True), OpSpec(np.zeros((1, 2)), "x", True)):
        with pytest.raises(ShapeError):
            vacuum_matrix_element(nreg, single_profile, [nan, bad])


@pytest.mark.parametrize("species, dagger", [("x", False), (None, True), ("b", "yes"),
                                             ("b", None), ("d", 1)])
def test_a_bad_species_or_dagger_is_a_shape_error_on_both_routes(single_space, single_profile,
                                                                 species, dagger):
    # a bad dagger was a KeyError in the expansion and taken for its truth
    # value by the matrix route, and a bad species a KeyError there; the
    # bad factor's NaN table shows that the check comes before any value
    nreg = NRegister(single_space, 2)
    ops = [OpSpec(np.full((1, 2), np.nan), species, dagger), OpSpec(np.ones((1, 2)), "b", True)]
    for route in (vacuum_matrix_element, vacuum_matrix_element_matrix):
        with pytest.raises(ShapeError):
            route(nreg, single_profile, ops)
    with pytest.raises(ShapeError):
        noscillator._partition_expansion(single_space, None, ops, True)
    with pytest.raises(ShapeError):
        smeared_matrix(single_space, ops[0])
    if species not in ("b", "d"):
        with pytest.raises(ShapeError):
            smeared_annihilator(single_space, np.ones((1, 2)), species)
    # numpy bools are bools
    assert vacuum_matrix_element(nreg, single_profile, [OpSpec(np.ones((1, 2)), "b", np.False_),
                                                        ops[1]]) != 0


# --- the compiled plan against the walk it replaced


def _times(x, k):
    """x times the integer k: a complex product, or a scaled Gaussian integer."""
    return x.scaled(k) if isinstance(x, _Gaussian) else x * k


def _reference_expansion(space, profile, ops, exact):
    """The dict walk and memoized partition sum that the compiled plan replaced.

    Moments of the ordered sub-products come from one register product per
    subset, visited depth first with zero entries dropped; the partition sum
    is memoized over the remaining factors.  The plan's value pass writes
    out, on (re, im) pairs, the complex products and sums of this walk in
    the same order.  It differs in three ways: a ket entry starts from 0,
    not from its first term; the ladder sign is a real factor, not a complex
    one; and the shuffle sign negates the moment's parts, not multiplies
    the moment by a complex -1.  Each changes at most the sign of a zero
    part, which no nonzero part depends on, and every moment and
    coefficient is a sum that starts from +0 and so never ends at -0: the
    two agree bit for bit.
    """
    lattice = space.lattice
    modes = lattice.size
    if exact:
        zero, one = _Gaussian(0), _Gaussian(1)
        root_coeff = [one]
    else:
        zero, one = 0.0 + 0j, 1.0 + 0j
        root_coeff = [
            complex(np.sqrt(lattice.weights[i]) * profile.values[i]) for i in range(modes)
        ]
    factors = []
    shift = 0
    for spec in ops:
        amp = np.asarray(spec.amplitude)
        table = (amp if spec.dagger else np.conj(amp)).astype(np.complex128)
        if exact:
            row, op_shift = noscillator._dyadic_lift(table[0])
            coeffs = [[_Gaussian(re, im) for re, im in row]]
            shift += op_shift
        else:
            coeffs = [[complex(table[i, s]) for s in (0, 1)] for i in range(modes)]
        factors.append((coeffs, [noscillator._LADDERS[(spec.species, s, spec.dagger)]
                                 for s in (0, 1)]))

    def apply(k, vec):
        coeffs, maps = factors[k]
        out = {}
        for (i, r), val in vec.items():
            for s in (0, 1):
                hit = maps[s].get(r)
                if hit is not None:
                    row, sign = hit
                    term = _times(coeffs[i][s], sign) * val
                    key = (i, row)
                    out[key] = out[key] + term if key in out else term
        return {key: val for key, val in out.items() if val}

    blocks = [[] for _ in ops]

    def descend(vec, mask, low):
        for k in range(low):
            ket = apply(k, vec)
            if not ket:
                continue
            block = mask | 1 << k
            moment = zero
            for i in range(modes):
                val = ket.get((i, VACUUM_INDEX))
                if val is not None:
                    moment = moment + root_coeff[i].conjugate() * val
            if moment:
                assert block.bit_count() % 2 == 0
                blocks[k].append((block, moment))
            descend(ket, block, k)

    descend({(i, VACUUM_INDEX): root_coeff[i] for i in range(modes)}, 0, len(ops))
    memo = {0: [one]}

    def sums(rest):
        if rest in memo:
            return memo[rest]
        out = [zero] * (rest.bit_count() + 1)
        for block, moment in blocks[(rest & -rest).bit_length() - 1]:
            if block & ~rest:
                continue
            left = rest & ~block
            swaps = sum((left & ((1 << k) - 1)).bit_count()
                        for k in range(block.bit_length()) if block >> k & 1)
            term = _times(moment, -1 if swaps % 2 else 1)
            for j, coeff in enumerate(sums(left)):
                if coeff:
                    out[j + 1] = out[j + 1] + term * coeff
        memo[rest] = out
        return out

    coeffs = sums((1 << len(ops)) - 1)
    if exact:  # the package's form of an exact coefficient
        coeffs = [coeff.pair() for coeff in coeffs]
    return noscillator._Expansion(len(ops), exact, coeffs, shift)


def _bits(expansion):
    """The coefficients as exact integers, or as the hex of each float part."""
    if expansion.exact:
        parts = [tuple(c) for c in expansion.coeffs]
    else:
        parts = [(c.real.hex(), c.imag.hex()) for c in expansion.coeffs]
    return expansion.nops, expansion.exact, parts, expansion.shift


@functools.cache
def _engine_space(modes):
    """The one-, two-, three- and five-mode lattices of the expansion tests, with their profiles."""
    lattice = rapidity_lattice(1, 0.4, 1.0)
    lattice = {1: rapidity_lattice(0, 0.4, 1.0), 2: restricted_lattice(lattice, (0, 2)),
               3: lattice, 5: rapidity_lattice(2, 0.4, 1.0)}[modes]
    return SingleOscillatorSpace(lattice), uniform_profile(lattice)


@contextlib.contextmanager
def _plan_cache(capacity=noscillator.PLAN_CACHE_ENTRIES):
    """A fresh plan cache for the duration of the block."""
    saved = noscillator._PLANS
    noscillator._PLANS = noscillator._PlanCache(capacity)
    try:
        yield noscillator._PLANS
    finally:
        noscillator._PLANS = saved


# exact zeros are drawn often: they drop ket entries and moments
_plan_entries = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def _products(draw):
    """A mode count and a product of K = 0..8 factors, or an overlap product.

    Tables come from a pool of at most three, so factors repeat and give
    nilpotent products.
    """
    modes = draw(st.sampled_from((1, 2, 3, 5)))
    table = st.lists(_plan_entries, min_size=4 * modes, max_size=4 * modes).map(
        lambda xs: (np.array(xs[::2]) + 1j * np.array(xs[1::2])).reshape(modes, 2))
    pool = draw(st.lists(table, min_size=1, max_size=3))
    pick = st.sampled_from(pool)
    if draw(st.booleans()):
        m = draw(st.integers(1, 4))
        return modes, overlap_product_ops([draw(pick) for _ in range(m)],
                                          [draw(pick) for _ in range(m)],
                                          species=draw(st.sampled_from("bd")))
    return modes, [OpSpec(draw(pick), draw(st.sampled_from("bd")), draw(st.booleans()))
                   for _ in range(draw(st.integers(0, 8)))]


@settings(max_examples=120, deadline=None)
@given(case=_products())
def test_plan_expansion_equals_the_walk_bitwise(case):
    modes, ops = case
    space, profile = _engine_space(modes)
    for exact in ((False, True) if modes == 1 else (False,)):
        want = _bits(_reference_expansion(space, profile, ops, exact))
        with _plan_cache():
            cold = noscillator._partition_expansion(space, profile, ops, exact)
            warm = noscillator._partition_expansion(space, profile, ops, exact)
        assert _bits(cold) == want
        assert _bits(warm) == want


@settings(max_examples=120, deadline=None)
@given(case=_products())
def test_coefficients_past_half_the_factors_are_exactly_zero(case):
    # a block with a nonzero moment has even size, so K factors split into
    # at most K/2 of them: c_j = 0 for every j > K/2, as an int 0 on the
    # exact path and as +0.0 parts on the float path
    modes, ops = case
    space, profile = _engine_space(modes)
    for exact in ((False, True) if modes == 1 else (False,)):
        coeffs = noscillator._partition_expansion(space, profile, ops, exact).coeffs
        assert len(coeffs) == len(ops) + 1
        for coeff in coeffs[len(ops) // 2 + 1:]:
            if exact:
                assert coeff == (0, 0) and all(type(part) is int for part in coeff)
            else:
                assert [math.copysign(1.0, part) for part in (coeff.real, coeff.imag)] == [1, 1]
                assert coeff == 0


def test_a_two_species_product_reaches_every_coefficient_up_to_half(rng):
    # the property above holds vacuously where every c_j is 0; here the
    # ones up to K/2 are not.  Both species, as one slot holds at most two
    # factors of one species' annihilators
    for modes, exact in ((1, True), (3, False)):
        space, profile = _engine_space(modes)
        ops = [OpSpec(random_table(rng, modes), species, dagger)
               for species, dagger in zip("bdbddbdb", [False] * 4 + [True] * 4)]
        coeffs = noscillator._partition_expansion(space, profile, ops, exact).coeffs
        assert [bool(c != (0, 0) if exact else c) for c in coeffs] == [False] + [True] * 4 + [False] * 4


_words = st.lists(st.tuples(st.sampled_from("bd"), st.booleans()), max_size=8).map(tuple)


@settings(max_examples=60, deadline=None)
@given(word=_words)
def test_every_record_reads_a_slot_written_before_it(word):
    plan = noscillator._compile_plan(word)
    kets, terms = (list(zip(*[iter(stream)] * 3)) for stream in (plan.kets, plan.terms))
    moments = len(plan.vacuum)
    assert plan.size == len(kets) + moments + len(terms)
    written = {0}  # the root's slot
    for a, c, d in kets:
        assert a in written and a < d and c < len(plan.signs)
        written.add(d)
    assert written == set(range(plan.slots))
    # one vacuum slot per moment, each that of a different ket
    assert len(set(plan.vacuum)) == moments and set(plan.vacuum) <= written
    assert all(v % 4 in (0, 2) and v < 4 * len(word) for v, _ in plan.signs)
    written = {0}  # the empty set's c_0
    for t, a, d in terms:
        assert a in written
        # a negated moment is moment t + moments; no odd subset enters the sum
        assert t < 2 * moments and t % moments not in plan.odd
        written.add(d)
    assert max(written) < plan.sums and plan.top + len(word) + 1 == plan.sums


@pytest.mark.parametrize("zero", range(6))
def test_a_product_with_an_all_zero_table_equals_the_walk_bitwise(rng, zero):
    # every ket past the zero factor vanishes; the value pass still runs
    # those kets' records, each reading a zero
    for modes in (1, 3):
        space, profile = _engine_space(modes)
        tables = [random_table(rng, modes) for _ in range(6)]
        tables[zero] = np.zeros((modes, 2), dtype=np.complex128)
        ops = overlap_product_ops(tables[:3], tables[3:])
        for exact in ((False, True) if modes == 1 else (False,)):
            want = _bits(_reference_expansion(space, profile, ops, exact))
            assert _bits(noscillator._partition_expansion(space, profile, ops, exact)) == want


def test_exact_values_stay_python_ints(rng):
    # floats and exact values share the value pass, so one float root or
    # table entry would round every exact value after it without an error
    space, _ = _engine_space(1)
    tables = [random_table(rng, 1) for _ in range(3)]
    products = [overlap_product_ops(tables[:m], tables[-m:], species)
                for m, species in ((1, "b"), (2, "d"))]
    products.append([OpSpec(tables[k % 3], "bddb"[k], k >= 2) for k in range(4)])
    for ops in products:
        _, moments, _ = noscillator._vacuum_moments(space, None, ops, True)
        expansion = noscillator._partition_expansion(space, None, ops, True)
        (re, im), den = noscillator._evaluate(expansion, 3)
        parts = [part for pair in moments if pair is not None for part in pair]
        parts += [part for pair in expansion.coeffs for part in pair] + [re, im, den]
        assert any(parts[:-1])
        assert all(type(part) is int for part in parts)


@pytest.mark.parametrize("m", [5, 6, 7])
def test_exact_plan_expansion_equals_the_walk_at_high_order(rng, m):
    # the Hypothesis draw stops at overlap order 4; these orders reach
    # integers of several hundred bits
    space, _ = _engine_space(1)
    ops = overlap_product_ops([random_table(rng, 1) for _ in range(m)],
                              [random_table(rng, 1) for _ in range(m)])
    want = _bits(_reference_expansion(space, None, ops, True))
    assert want[3] > 500
    assert _bits(noscillator._partition_expansion(space, None, ops, True)) == want


def _word_plan(space, profile, ops):
    return noscillator._vacuum_moments(space, profile, ops, False)[0]


def test_one_plan_per_word_serves_every_table(rng):
    space, profile = _engine_space(1)
    products = [overlap_product_ops([random_table(rng, 1) for _ in range(3)],
                                    [random_table(rng, 1) for _ in range(3)]) for _ in range(2)]
    with _plan_cache() as cache:
        plans = [_word_plan(space, profile, ops) for ops in products]
        assert plans[0] is plans[1]
        assert len(cache.plans) == 1
        got = [noscillator._partition_expansion(space, None, ops, True) for ops in products]
    want = [_reference_expansion(space, None, ops, True) for ops in products]
    assert [_bits(g) for g in got] == [_bits(w) for w in want]
    assert _bits(got[0]) != _bits(got[1])


def test_one_plan_serves_every_mode_count(rng):
    fs, gs = [random_table(rng, 3) for _ in range(2)], [random_table(rng, 3) for _ in range(2)]
    products = {modes: overlap_product_ops([f[:modes] for f in fs], [g[:modes] for g in gs])
                for modes in (1, 2, 3)}
    word = tuple((op.species, op.dagger) for op in products[1])
    with _plan_cache() as cache:
        plans = []
        for modes, ops in products.items():
            space, profile = _engine_space(modes)
            plans.append(_word_plan(space, profile, ops))
            got = noscillator._partition_expansion(space, profile, ops, False)
            assert _bits(got) == _bits(_reference_expansion(space, profile, ops, False))
        assert all(plan is plans[0] for plan in plans)
        assert list(cache.plans) == [word]


def test_a_plan_that_fits_on_one_mode_fits_on_every_lattice(rng):
    # a cache with room for the word's one-mode plan keeps it on 3 modes
    ops = overlap_product_ops([random_table(rng, 3) for _ in range(3)],
                              [random_table(rng, 3) for _ in range(3)])
    word = tuple((op.species, op.dagger) for op in ops)
    one_mode = [op._replace(amplitude=op.amplitude[:1]) for op in ops]
    with _plan_cache():
        size = _word_plan(*_engine_space(1), one_mode).size
    space, profile = _engine_space(3)
    with _plan_cache(size) as cache:
        want = _bits(_reference_expansion(space, profile, ops, False))
        assert _bits(noscillator._partition_expansion(space, profile, ops, False)) == want
        assert list(cache.plans) == [word] and cache.entries == size


def test_a_full_plan_cache_evicts_and_results_hold(rng):
    space, profile = _engine_space(2)
    products = [overlap_product_ops([random_table(rng, 2) for _ in range(m)],
                                    [random_table(rng, 2) for _ in range(m)], species=species)
                for m in (1, 2, 3) for species in "bd"]
    want = [_bits(_reference_expansion(space, profile, ops, False)) for ops in products]
    with _plan_cache() as cache:
        sizes = [_word_plan(space, profile, ops).size for ops in products]
    # room for the two largest plans but not for every plan
    capacity = sum(sorted(sizes)[-2:])
    with _plan_cache(capacity) as cache:
        for _ in range(2):
            for ops, expected in zip(products, want):
                got = noscillator._partition_expansion(space, profile, ops, False)
                assert _bits(got) == expected
                assert cache.entries == sum(plan.size for plan in cache.plans.values())
                assert cache.entries <= capacity
        assert 0 < len(cache.plans) < len(products)
        # the most recently used plan stays
        last = tuple((op.species, op.dagger) for op in products[-1])
        assert list(cache.plans)[-1] == last
    # a plan larger than the whole cache runs and is not kept
    with _plan_cache(min(sizes) - 1) as cache:
        assert _bits(noscillator._partition_expansion(space, profile, products[0], False)) == want[0]
        assert not cache.plans and cache.entries == 0


def test_threads_share_a_small_plan_cache(rng):
    space, profile = _engine_space(2)
    products = [overlap_product_ops([random_table(rng, 2) for _ in range(m)],
                                    [random_table(rng, 2) for _ in range(m)], species=species)
                for m in (1, 2, 3) for species in "bd"]
    want = [_bits(_reference_expansion(space, profile, ops, False)) for ops in products]
    errors = []

    def work(offset):
        try:
            for r in range(12):
                k = (offset + r) % len(products)
                got = noscillator._partition_expansion(space, profile, products[k], False)
                if _bits(got) != want[k]:
                    errors.append(f"word {k} differs")
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # room for about two of the six plans, so threads evict each other's
        with _plan_cache(2 * _word_plan(space, profile, products[-1]).size) as cache:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert cache.entries == sum(plan.size for plan in cache.plans.values())
            assert cache.entries <= cache.capacity
    finally:
        sys.setswitchinterval(switch)


def test_the_factor_budget_stops_before_a_plan(single_space, single_profile, rng):
    ops = [OpSpec(random_table(rng, 1), "bd"[k % 2], bool(k % 3)) for k in range(17)]
    with _plan_cache() as cache:
        for exact in (False, True, False):
            with pytest.raises(ResourceLimitError):
                noscillator._partition_expansion(single_space, single_profile, ops, exact)
        assert not cache.plans


# --- scalar products and limits


def test_zprod_inner_and_gram(double_lattice, double_profile, default_lattice, rng):
    f = random_table(rng, 2)
    g = random_table(rng, 2)
    wz = double_lattice.weights * double_profile.z
    expected = np.sum(wz[:, None] * np.conj(f) * g)
    assert zprod_inner(double_lattice, double_profile, f, g) == pytest.approx(expected)
    with pytest.raises(ShapeError):
        zprod_inner(double_lattice, double_profile, f[:1], g)
    gram = gram_matrix(double_lattice, double_profile, [f, g], [f, g])
    assert gram[0, 1] == pytest.approx(zprod_inner(double_lattice, double_profile, f, g))
    # bitwise, on the full J = 6 lattice too
    for lattice, profile in ((double_lattice, double_profile),
                             (default_lattice, uniform_profile(default_lattice))):
        fs = [random_table(rng, lattice.size) for _ in range(3)]
        gs = [random_table(rng, lattice.size) for _ in range(3)]
        gram = gram_matrix(lattice, profile, fs, gs)
        assert gram.shape == (3, 3)
        for k in range(3):
            for j in range(3):
                assert gram[k, j] == zprod_inner(lattice, profile, fs[k], gs[j])
        with pytest.raises(ShapeError):
            gram_matrix(lattice, profile, fs[:2] + [fs[2][:1]], gs)
        with pytest.raises(ShapeError):
            gram_matrix(lattice, profile, fs, gs[:2] + [gs[2][:, :1]])
    with pytest.raises(ShapeError):
        gram_matrix(double_lattice, double_profile, [f], [f, g])


def test_slater_limit_is_det(double_lattice, double_profile, rng):
    fs = [random_table(rng, 2) for _ in range(2)]
    gs = [random_table(rng, 2) for _ in range(2)]
    gram = gram_matrix(double_lattice, double_profile, fs, gs)
    expected = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    assert slater_limit(double_lattice, double_profile, fs, gs) == pytest.approx(expected)
    with pytest.raises(ResourceLimitError):
        slater_limit(double_lattice, double_profile, [fs[0]] * 9, [gs[0]] * 9)


def _permutation_sum(gram, scalar):
    """The Leibniz formula: the signed sum over permutations of gram[k][sigma k] products."""
    m = len(gram)
    total = scalar(0)
    for sigma in itertools.permutations(range(m)):
        inversions = sum(sigma[a] > sigma[b] for a in range(m) for b in range(a + 1, m))
        term = scalar(-1 if inversions % 2 else 1)
        for k in range(m):
            term = term * gram[k][sigma[k]]
        total = total + term
    return total


def _gaussian_matrix(rng, m, bound=9):
    parts = rng.integers(-bound, bound + 1, size=(2, m, m))
    return [[(int(parts[0, k, j]), int(parts[1, k, j])) for j in range(m)] for k in range(m)]


def _exact_permutation_sum(gram):
    """The permutation sum of a matrix of (re, im) pairs, in the tests' Gaussian integers."""
    return _permutation_sum([[_Gaussian(re, im) for re, im in row] for row in gram], _Gaussian)


def _assert_same_exact(got, want):
    assert tuple(got) == want.pair()


@pytest.mark.parametrize("m", range(1, 7))
def test_bareiss_det_equals_permutation_sum(rng, m):
    zero = (0, 0)
    for _ in range(2):
        gram = _gaussian_matrix(rng, m)
        # a zero leading pivot, whose column still holds a nonzero entry
        swapped = [row[:] for row in gram]
        swapped[0][0] = zero
        if m > 1:
            swapped[-1][0] = (0, 1)
        # entries past the float range: no pivot may be chosen by magnitude
        huge = [[(re * 2**1100, im * 2**1100) for re, im in row] for row in gram]
        # a zero first column, and two equal rows: det 0
        empty_column = [[zero] + row[1:] for row in gram]
        cases = [gram, swapped, huge, empty_column]
        if m > 1:
            cases.append(gram[:-1] + [gram[0][:]])
        for case in cases:
            want = _exact_permutation_sum(case)
            _assert_same_exact(noscillator._bareiss_det(case), want)
        assert noscillator._bareiss_det(empty_column) == zero


def test_bareiss_det_of_one_mode_grams(rng):
    # two spins give a rank-2 one-mode Gram: exact 0 from M = 3 on
    for m in (1, 2, 3, 4):
        fs = [random_table(rng, 1) for _ in range(m)]
        gs = [random_table(rng, 1) for _ in range(m)]
        gram, _ = noscillator._gram_exact(fs, gs, {})
        got = noscillator._bareiss_det(gram)
        _assert_same_exact(got, _exact_permutation_sum(gram))
        assert (got != (0, 0)) == (m <= 2)


def test_divide_exactly_refuses_a_remainder():
    num, den = _Gaussian(7, 1), _Gaussian(2, -3)
    _assert_same_exact(noscillator._divide_exactly((num * den).pair(), den.pair()), num)
    with pytest.raises(ArithmeticError):
        noscillator._divide_exactly(num.pair(), den.pair())


@pytest.mark.parametrize("m", range(1, 7))
def test_slater_limit_matches_permutation_sum(rng, m):
    space, profile, fs, gs = _rapidity_overlap(rng, m, j_max=2)
    want = _permutation_sum(gram_matrix(space.lattice, profile, fs, gs), complex)
    assert abs(want) > 0.05
    assert abs(slater_limit(space.lattice, profile, fs, gs) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("modes", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_tables_are_a_precondition_error(single_space, single_profile, double_space,
                                                    double_profile, rng, modes, bad):
    space, profile = ((single_space, single_profile) if modes == 1
                      else (double_space, double_profile))
    good = random_table(rng, modes)
    bad_table = random_table(rng, modes)
    bad_table[0, 1] = bad
    for fs, gs in (([good, bad_table], [good, good]), ([good, good], [bad_table, good])):
        with pytest.raises(PreconditionError, match="finite"):
            determinant_limit_convergence(space, profile, fs, gs, [2, 4])


def test_order_one_matrix_element_is_z_product(double_space, double_profile, rng):
    f = random_table(rng, 2)
    g = random_table(rng, 2)
    want = zprod_inner(double_space.lattice, double_profile, f, g)
    for n in (1, 2, 7, 33):
        got = vacuum_matrix_element(
            NRegister(double_space, n), double_profile, overlap_product_ops([f], [g])
        )
        assert abs(got - want) < 1e-13


def test_overlap_ops_layout(rng):
    fs = [random_table(rng, 1) for _ in range(3)]
    gs = [random_table(rng, 1) for _ in range(3)]
    ops = overlap_product_ops(fs, gs, species="d")
    assert [op.dagger for op in ops] == [False] * 3 + [True] * 3
    assert all(op.species == "d" for op in ops)
    np.testing.assert_array_equal(ops[0].amplitude, fs[2])
    np.testing.assert_array_equal(ops[3].amplitude, gs[0])
    with pytest.raises(ShapeError):
        overlap_product_ops(fs, gs[:2])


def test_convergence_report_validation(single_space, single_profile, rng):
    f = [random_table(rng, 1)]
    g = [random_table(rng, 1)]
    with pytest.raises(ConfigError):
        determinant_limit_convergence(single_space, single_profile, f, g, [4, 2])
    with pytest.raises(ConfigError):
        determinant_limit_convergence(single_space, single_profile, f, g, [])
    for n_list in ([2, 2.5], [True, 2], [2.0], [1, np.True_]):
        with pytest.raises(ConfigError, match="^oscillator count must be an integer"):
            determinant_limit_convergence(single_space, single_profile, f, g, n_list)
    rep = determinant_limit_convergence(single_space, single_profile, f, g,
                                        [np.int64(2), np.int8(100)])
    assert [(type(r.n), r.n) for r in rep.records] == [(int, 2), (int, 100)]
    with pytest.raises(ResourceLimitError):
        determinant_limit_convergence(single_space, single_profile, f * (MAX_SLATER_ORDER + 1),
                                      g * (MAX_SLATER_ORDER + 1), [2])
    with pytest.raises(ShapeError):
        determinant_limit_convergence(single_space, single_profile, f, g * 2, [2])


def test_empty_determinant_is_a_precondition_error(single_space, single_profile,
                                                   double_lattice, double_profile):
    # an empty product is no budget stop; the exact one-mode Gram once crashed on it
    with pytest.raises(PreconditionError):
        slater_limit(double_lattice, double_profile, [], [])
    with pytest.raises(PreconditionError):
        determinant_limit_convergence(single_space, single_profile, [], [], [2])


def test_one_mode_finite_n_equals_limit(single_space, single_profile, rng):
    # on one mode the smeared operators satisfy canonical CAR exactly, so
    # every finite N already sits on the determinant
    for m in (1, 2, 3):
        fs = [random_table(rng, 1) for _ in range(m)]
        gs = [random_table(rng, 1) for _ in range(m)]
        rep = determinant_limit_convergence(single_space, single_profile, fs, gs, [2, 4, 8])
        assert rep.exact
        assert rep.deviations() == [0.0, 0.0, 0.0]
        assert rep.monotone
        assert rep.final_ratio is None


def test_two_mode_deviation_decays(double_space, double_profile, rng):
    fs = [random_table(rng, 2) for _ in range(2)]
    gs = [random_table(rng, 2) for _ in range(2)]
    rep = determinant_limit_convergence(double_space, double_profile, fs, gs, [2, 4, 8])
    assert not rep.exact
    devs = rep.deviations()
    assert devs[0] > 0
    assert rep.monotone
    # halving N should roughly double the deviation (1/N convergence)
    assert devs[-1] == pytest.approx(devs[0] / 4, rel=0.5)


@settings(max_examples=20, deadline=None)
@given(fs=tables_1mode(2), gs=tables_1mode(2))
def test_antisymmetry_under_swap_exact(single_space, fs, gs):
    base = overlap_product_ops(fs, gs)
    swapped = overlap_product_ops([fs[1], fs[0]], gs)
    for n in (1, 2, 5):
        nreg = NRegister(single_space, n)
        total = vacuum_matrix_element(nreg, None, base, exact=True) + vacuum_matrix_element(
            nreg, None, swapped, exact=True
        )
        assert total == 0


def test_antisymmetry_under_swap_float(double_space, double_profile, rng):
    fs = [random_table(rng, 2) for _ in range(2)]
    gs = [random_table(rng, 2) for _ in range(2)]
    base = overlap_product_ops(fs, gs)
    swapped = overlap_product_ops([fs[1], fs[0]], gs)
    for n in (2, 4):
        nreg = NRegister(double_space, n)
        total = vacuum_matrix_element(nreg, double_profile, base) + vacuum_matrix_element(
            nreg, double_profile, swapped
        )
        assert abs(total) < 1e-12


def test_repeated_amplitude_vanishes(double_space, double_profile, rng):
    g = random_table(rng, 2)
    ops = [OpSpec(g, "b", False), OpSpec(g, "b", False),
           OpSpec(g, "b", True), OpSpec(g, "b", True)]
    for n in (2, 16):
        assert abs(vacuum_matrix_element(NRegister(double_space, n), double_profile, ops)) < 1e-14


def test_mixed_species_factorize_on_one_mode(single_space, single_profile, rng):
    f = random_table(rng, 1)
    h = random_table(rng, 1)
    ops = [OpSpec(f, "b", False), OpSpec(h, "d", False),
           OpSpec(h, "d", True), OpSpec(f, "b", True)]
    want = zprod_inner(single_space.lattice, single_profile, f, f) * zprod_inner(
        single_space.lattice, single_profile, h, h
    )
    got = vacuum_matrix_element(NRegister(single_space, 3), single_profile, ops, exact=True)
    assert abs(got - want) < 1e-12


def test_species_unbalanced_products_vanish(single_space, single_profile, rng):
    f = random_table(rng, 1)
    h = random_table(rng, 1)
    products = [
        [OpSpec(f, "b", False), OpSpec(h, "d", True)],
        [OpSpec(f, "b", False), OpSpec(f, "b", True), OpSpec(h, "d", True),
         OpSpec(h, "b", True)],
    ]
    for ops in products:
        got = vacuum_matrix_element(NRegister(single_space, 3), single_profile, ops)
        assert abs(got) < 1e-14
