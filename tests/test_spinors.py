"""Spinor kinematics: frames, eigen-bispinors, and boost mixing."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from carfield import spinors, symmetries
from carfield.draws import default_rng
from carfield.errors import (
    PreconditionError,
    ShapeError,
    UndefinedResidualError,
    UnsupportedMassError,
)
from carfield.modes import ModeBlocks, rapidity_lattice
from carfield.register import quadratic_generator

momentum_components = st.floats(-8.0, 8.0, allow_nan=False)


def _random_sl2c(rng):
    return spinors.exponential(spinors.random_sl2c_exponent(rng))


def spatial_momenta(m=1.0):
    """One on-shell (4,) momentum of mass m."""
    return st.tuples(momentum_components, momentum_components, momentum_components).map(
        lambda v: spinors.from_spatial(v, m)
    )


# --- four-momentum bookkeeping


def test_four_momentum_validation():
    with pytest.raises(PreconditionError, match="off shell"):
        spinors.on_shell([1.0, 1.0, 0.0, 0.0], 1.0)
    with pytest.raises(PreconditionError):
        spinors.on_shell([1.0, 0.0, 0.0, 0.0], -1.0)
    # one bad row fails the whole stack
    with pytest.raises(PreconditionError, match="off shell"):
        spinors.on_shell([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]], 1.0)
    with pytest.raises(ShapeError):
        spinors.on_shell([1.0, 0.0, 0.0], 1.0)


def test_four_momentum_boundaries():
    # the mass guard admits m = 0, and the energy guard rejects E = 0 even on shell
    light = spinors.on_shell([1.0, 0.0, 0.0, 1.0], 0.0)
    assert light.tolist() == [1.0, 0.0, 0.0, 1.0]
    with pytest.raises(PreconditionError):
        spinors.on_shell([0.0, 0.0, 0.0, 0.0], 0.0)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("row, m", [
    ([NAN, 0.0, 0.0, 0.0], 1.0),
    ([1.0, NAN, 0.0, 0.0], 1.0),
    ([1.0, 0.0, 0.0, NAN], 1.0),
    ([INF, INF, 0.0, 0.0], 1.0),
    ([INF, 0.0, 0.0, 0.0], INF),
    ([1.0, 0.0, 0.0, 0.0], NAN),
    ([1.0, 0.0, 0.0, 0.0], -1.0),
    ([1.0, 0.0, 0.0, 0.0], -0.5),
])
def test_on_shell_rejects_non_finite_entries_and_bad_masses(row, m):
    # NaN compares False with every tolerance, so an unguarded check passes it
    with pytest.raises(PreconditionError):
        spinors.on_shell(row, m)
    with pytest.raises(PreconditionError):
        spinors.on_shell([[1.0, 0.0, 0.0, 0.0], row], m)
    if m > 0:
        with pytest.raises(PreconditionError):
            spinors.build_spin_frame(row, m)


def test_nan_lorentz_transformation_is_refused():
    p = spinors.from_spatial([[0.3, -0.2, 0.5], [0.0, 0.0, 0.0]], 1.0)
    lam = spinors.boost_z(0.4)
    lam[0, 1] = NAN
    with pytest.raises(PreconditionError, match="off shell"):
        spinors.apply_lorentz(lam, p, 1.0)
    with pytest.raises(PreconditionError, match="off shell"):
        spinors.wigner_matrix(lam, p, 1.0)


def test_four_momentum_constructors():
    p = spinors.from_rapidity(0.7, 2.0)
    assert p[0] == pytest.approx(2 * np.cosh(0.7))
    assert p[3] == pytest.approx(2 * np.sinh(0.7))
    assert spinors.from_spatial([0.0, 0.0, 0.0], 1.5)[0] == 1.5
    q = spinors.from_spatial([0.3, -0.4, 1.2], 1.0)
    assert q[0] == pytest.approx(np.sqrt(1 + 0.09 + 0.16 + 1.44))
    # a stack keeps its leading shape
    assert spinors.from_rapidity(np.zeros((2, 3)), 1.0).shape == (2, 3, 4)
    assert spinors.from_spatial(np.zeros((5, 3)), 1.0).shape == (5, 4)


def test_dot_point_signature():
    p = spinors.from_spatial([1.0, 2.0, 3.0], 1.0)
    x = np.array([1.0, 1.0, 1.0, 1.0])
    assert spinors.dot_point(p, x) == pytest.approx(p[0] - 1.0 - 2.0 - 3.0)
    # each row summed left to right, as the scalar formula reads
    rows = spinors.from_spatial(np.array([[1.0, 2.0, 3.0], [0.1, -0.7, 1e-9]]), 1.0)
    x = np.array([0.3, -1.1, 0.25, 7.0])
    assert spinors.dot_point(rows, x).tolist() == [
        e * x[0] - px * x[1] - py * x[2] - pz * x[3] for e, px, py, pz in rows.tolist()
    ]


def test_two_spinor_index_handling():
    # raising is xi^A = eps^{AB} xi_B; a_A b^A = a0 b1 - a1 b0 is antisymmetric
    np.testing.assert_array_equal(spinors.EPSILON @ np.array([1, 2]), [2, -1])
    a = np.array([0.3 + 0.2j, -1.1 + 0.7j])
    b = np.array([2.0 - 0.5j, 0.4 + 1.3j])
    assert spinors.contract(a, b) == a[0] * b[1] - a[1] * b[0]
    assert spinors.contract(a, b) == -spinors.contract(b, a)
    assert spinors.contract(a, a) == 0
    # over the last axis of a stack, each row as the scalar products give it
    stack_a = np.array([a, b, 1j * a])
    stack_b = np.array([b, a, b - a])
    assert spinors.contract(stack_a, stack_b).tolist() == [
        x[0] * y[1] - x[1] * y[0] for x, y in zip(stack_a, stack_b)
    ]


def test_soldering_roundtrip(rng):
    x = rng.uniform(-3, 3, 4)
    np.testing.assert_allclose(
        spinors.hermitian_to_point(spinors.point_to_hermitian(x)), x, atol=1e-14
    )
    xs = rng.uniform(-3, 3, (3, 2, 4))
    np.testing.assert_allclose(
        spinors.hermitian_to_point(spinors.point_to_hermitian(xs)), xs, atol=1e-14
    )


def test_soldering_determinant():
    p = spinors.from_spatial([0.4, -0.8, 1.1], 1.3)
    herm = spinors.momentum_to_hermitian(p)
    assert np.linalg.det(herm) == pytest.approx(1.3**2 / 2)


# --- spin frames


@settings(max_examples=50, deadline=None)
@given(p=spatial_momenta())
def test_frame_identities(p):
    m = 1.0
    frame = spinors.build_spin_frame(p, m)
    assert abs(spinors.contract(frame.omega, frame.pi) - 1.0) < 1e-12
    pi = frame.pi
    om = frame.omega
    recon = np.outer(pi, np.conj(pi)) + (m**2 / 2) * np.outer(om, np.conj(om))
    assert np.max(np.abs(recon - spinors.momentum_to_hermitian(p))) < 1e-11 * p[0]


def test_rest_frame_golden_values():
    frame = spinors.build_spin_frame(spinors.from_spatial([0.0, 0.0, 0.0], 1.0), 1.0)
    assert not frame.used_fallback
    np.testing.assert_allclose(frame.omega, [2**0.25, 0.0], atol=1e-14)
    np.testing.assert_allclose(frame.pi, [0.0, 2**-0.25], atol=1e-14)


def test_fallback_branch():
    # nearly light-like along +z: the primary reference spinor degenerates
    m = 1.0
    p = spinors.from_spatial([0.0, 0.0, 1e9], m)
    frame = spinors.build_spin_frame(p, m)
    assert frame.used_fallback
    assert abs(spinors.contract(frame.omega, frame.pi) - 1.0) < 1e-12
    recon = np.outer(frame.pi, np.conj(frame.pi)) + (
        m**2 / 2
    ) * np.outer(frame.omega, np.conj(frame.omega))
    assert np.max(np.abs(recon - spinors.momentum_to_hermitian(p))) < 1e-11 * p[0]
    # moderate momenta and the -z direction keep the primary gauge
    assert not spinors.build_spin_frame(spinors.from_spatial([0.1, -0.2, 0.3], m), m).used_fallback
    assert not spinors.build_spin_frame(spinors.from_spatial([0.0, 0.0, -1e9], m), m).used_fallback
    # one stack takes each branch on its own rows
    both = spinors.from_spatial([[0.0, 0.0, 1e9], [0.0, 0.0, -1e9]], m)
    both = spinors.build_spin_frame(both, m)
    assert both.used_fallback.tolist() == [True, False]


def test_spin_frame_needs_mass():
    light = spinors.on_shell([1.0, 0.0, 0.0, 1.0], 0.0)
    with pytest.raises(UnsupportedMassError):
        spinors.build_spin_frame(light, 0.0)
    with pytest.raises(UnsupportedMassError):
        spinors.build_spin_frame(light, NAN)


# --- eigen-bispinors


def test_dirac_kernel_and_mismatch(rng):
    for _ in range(10):
        p = spinors.from_spatial(rng.uniform(-4, 4, 3), 1.0)
        pos, neg = spinors.eigen_bispinors(spinors.build_spin_frame(p, 1.0))
        assert pos.shape == neg.shape == (2, 4)
        for s in (0, 1):
            assert spinors.dirac_residual(p, 1.0, pos[s], +1) < 1e-12
            assert spinors.dirac_residual(p, 1.0, neg[s], -1) < 1e-12
            assert spinors.dirac_residual(p, 1.0, pos[s], -1) > 1.0
            assert spinors.dirac_residual(p, 1.0, neg[s], +1) > 1.0


def test_dirac_guards():
    p = spinors.from_spatial([0.0, 0.0, 0.0], 1.0)
    # True == 1 and 1.0 == 1, so a membership test alone takes them as +1
    for sign in (0, 2, True, False, np.True_, 1.0, -1.0, "1", None):
        with pytest.raises(ShapeError):
            spinors.dirac_matrix(p, 1.0, sign)
    assert spinors.dirac_matrix(p, 1.0, np.int64(-1)).shape == (4, 4)
    zero = np.zeros(4)
    with pytest.raises(UndefinedResidualError):
        spinors.dirac_residual(p, 1.0, zero, +1)
    # a zero row anywhere in a stack has no residual
    with pytest.raises(UndefinedResidualError):
        spinors.dirac_residual(p, 1.0, [[1.0, 0.0, 0.0, 0.0], zero], +1)


def test_pauli_lubanski_projection(rng):
    for _ in range(10):
        p = spinors.from_spatial(rng.uniform(-4, 4, 3), 1.0)
        frame = spinors.build_spin_frame(p, 1.0)
        s_un, s_pr = spinors.pauli_lubanski_projection(frame)
        for block in (s_un, s_pr):
            assert abs(np.trace(block)) < 1e-13
            assert np.max(np.abs(block @ block - 0.25 * np.eye(2))) < 1e-12
        pos, neg = spinors.eigen_bispinors(frame)
        for s, val in ((0, -0.5), (1, 0.5)):
            for branch in (pos[s], neg[s]):
                assert np.max(np.abs(s_un @ branch[:2] - val * branch[:2])) < 1e-12
                assert np.max(np.abs(s_pr @ branch[2:] - val * branch[2:])) < 1e-12


# --- a stack gives each row the bits that row gives alone


@st.composite
def mixed_momentum_stacks(draw):
    """(n, 3) spatial momenta holding the rest momentum, z-axis momenta, momenta
    that take the fallback reference, and random momenta, in a random order."""
    def axis():
        return (0.0, 0.0, draw(momentum_components))

    def fallback():
        # far along +z with a transverse part below 1e-8 E: |p_AA' obar| < 1e-8 E
        pz = draw(st.floats(1e5, 1e9))
        tx, ty = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
        return (tx * 1e-10 * pz, ty * 1e-10 * pz, pz)

    def generic():
        return draw(st.tuples(momentum_components, momentum_components, momentum_components))

    rows = [(0.0, 0.0, 0.0), axis(), fallback(), generic()]
    rows += [draw(st.sampled_from([axis, fallback, generic]))()
             for _ in range(draw(st.integers(0, 4)))]
    return np.array(draw(st.permutations(rows)))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(spatial=mixed_momentum_stacks(), m=st.floats(0.25, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_batch_rows_equal_single_rows_bitwise(spatial, m, seed):
    rng = default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        momenta = spinors.from_spatial(spatial, m)
        n = len(momenta)
        lams = np.array([_random_sl2c(rng) for _ in range(n)])
        frames = spinors.build_spin_frame(momenta, m)
        pos, neg = spinors.eigen_bispinors(frames)
        assert frames.used_fallback.any() and not frames.used_fallback.all()
        residuals = {(name, sign): spinors.dirac_residual(momenta[:, None], m, table, sign)
                     for name, table in (("pos", pos), ("neg", neg)) for sign in (1, -1)}
        shared = spinors.wigner_matrix(lams[0], momenta, m)
        per_row = spinors.wigner_matrix(lams, momenta, m)
        for i, p in enumerate(momenta):
            frame = spinors.build_spin_frame(p, m)
            assert frame.used_fallback == frames.used_fallback[i]
            assert _same_bits(frame.omega, frames.omega[i])
            assert _same_bits(frame.pi, frames.pi[i])
            alone = dict(zip(("pos", "neg"), spinors.eigen_bispinors(frame)))
            assert _same_bits(alone["pos"], pos[i]) and _same_bits(alone["neg"], neg[i])
            for (name, sign), got in residuals.items():
                for s in (0, 1):
                    want = spinors.dirac_residual(p, m, alone[name][s], sign)
                    assert _same_bits(want, got[i, s])
            assert _same_bits(spinors.wigner_matrix(lams[0], p, m), shared[i])
            assert _same_bits(spinors.wigner_matrix(lams[i], p, m), per_row[i])


# --- Lorentz action and spin mixing


def test_apply_lorentz_composition(rng):
    p = spinors.from_spatial([0.5, -0.2, 0.9], 1.0)
    l1 = _random_sl2c(rng)
    l2 = _random_sl2c(rng)
    lhs = spinors.apply_lorentz(l1 @ l2, p, 1.0)
    rhs = spinors.apply_lorentz(l1, spinors.apply_lorentz(l2, p, 1.0), 1.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_apply_lorentz_to_point_preserves_interval(rng):
    x = rng.uniform(-2, 2, 4)
    lam = _random_sl2c(rng)
    y = spinors.apply_lorentz_to_point(lam, x)
    norm = lambda v: v[0] ** 2 - v[1] ** 2 - v[2] ** 2 - v[3] ** 2
    assert norm(y) == pytest.approx(norm(x), abs=1e-10)


def test_boost_z_moves_rapidity():
    p = spinors.from_rapidity(0.8, 1.0)
    q = spinors.apply_lorentz(spinors.boost_z(0.4), p, 1.0)
    expected = spinors.from_rapidity(1.2, 1.0)
    np.testing.assert_allclose(q, expected, atol=1e-12)


def test_wigner_unitarity_and_cocycle(rng):
    for _ in range(20):
        p = spinors.from_spatial(rng.uniform(-4, 4, 3), 1.0)
        l1 = _random_sl2c(rng)
        l2 = _random_sl2c(rng)
        u12 = spinors.wigner_matrix(l1 @ l2, p, 1.0)
        assert np.max(np.abs(u12.conj().T @ u12 - np.eye(2))) < 1e-10
        assert abs(np.linalg.det(u12) - 1.0) < 1e-10
        q = spinors.apply_lorentz(np.linalg.inv(l1), p, 1.0)
        chained = spinors.wigner_matrix(l1, p, 1.0) @ spinors.wigner_matrix(l2, q, 1.0)
        assert np.max(np.abs(chained - u12)) < 1e-9


def test_z_boosts_mix_no_spin_on_axis():
    lattice = rapidity_lattice(3, 0.4, 1.0)
    lam = spinors.boost_z(0.8)
    for p in lattice.momenta:
        assert np.max(np.abs(spinors.wigner_matrix(lam, p, lattice.m) - np.eye(2))) < 1e-12


# --- the closed-form 2x2 exponential


def _normwise_error(got, ref):
    return np.linalg.norm(got - ref, 1) / np.linalg.norm(ref, 1)


complex_entries = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


def _expm_30_digits(a):
    """e^A by mpmath at 30 digits; scipy's expm is off by 1.9e-10 normwise on
    the nearly defective [[1.63e-7 + 4j, 0], [1, 4j]]."""
    with mpmath.workdps(30):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=np.complex128)


@settings(max_examples=300, deadline=None)
@given(v=st.lists(complex_entries, min_size=4, max_size=4))
def test_exponential_matches_expm(v):
    # the report's 2x2 exponents have entries of a few units at most
    a = np.array(v, dtype=np.complex128).reshape(2, 2)
    assert _normwise_error(spinors.exponential(a), _expm_30_digits(a)) <= 1e-13


def test_exponential_is_exact_on_diagonals(rng):
    assert np.array_equal(spinors.exponential(np.zeros((2, 2))), np.eye(2))
    for _ in range(50):
        d = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
        assert np.array_equal(spinors.exponential(np.diag(d)), np.diag(np.exp(d)))
    with pytest.raises(ShapeError):
        spinors.exponential(np.eye(3))


TWO_BY_TWO_KINDS = st.sampled_from(["general", "diagonal", "jordan", "zero", "traceless"])


def _two_by_two(kind, rng):
    a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * rng.uniform(0.1, 3)
    if kind == "diagonal":
        return np.diag(np.diag(a))
    if kind == "jordan":  # s = 0 with a nonzero nilpotent part
        return np.array([[a[0, 0], a[0, 1]], [0.0, a[0, 0]]])
    if kind == "zero":
        return np.zeros((2, 2), dtype=np.complex128)
    if kind == "traceless":
        return a - 0.5 * np.trace(a) * np.eye(2)
    return a


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(TWO_BY_TWO_KINDS, min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
def test_exponential_gives_each_item_its_own_bits(kinds, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([_two_by_two(kind, rng) for kind in kinds])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spinors.exponential(stack)
        for item, a in zip(got, stack):
            assert _same_bits(item, spinors.exponential(a))
        nested = spinors.exponential(stack[:, None])
    assert nested.shape == (len(kinds), 1, 2, 2) and _same_bits(nested[:, 0], got)


def test_exponential_of_a_jordan_block():
    # s = 0 with a nonzero nilpotent part: e^{lam id + N} = e^lam (id + N)
    for lam in (0.0, 1.5, -0.7 + 2j):
        got = spinors.exponential([[lam, 1.0], [0.0, lam]])
        assert np.max(np.abs(got - np.exp(lam) * np.array([[1.0, 1.0], [0.0, 1.0]]))) <= (
            1e-15 * abs(np.exp(lam))
        )


def test_boost_mixers_match_dense_expm_of_logm(default_space, reg):
    # Gamma(W) from the block assembler against scipy's dense exponential of
    # the quadratic generator of log W; test_mode_blocks::test_boost_unitary
    # pins the placement of the mixers
    for steps in range(-6, 7):
        boost = symmetries.boost_unitary(default_space, steps)
        dense = np.array([expm(quadratic_generator(logm(w), logm(w)))
                          for w in boost.wigner])
        want = ModeBlocks(dense, steps)
        assert boost.unitary.shift == want.shift
        assert np.max(np.abs(boost.unitary.stack - want.stack)) <= 1e-14


# --- classical solutions


def test_classical_solution_shape_guard():
    lattice = rapidity_lattice(1, 0.4, 1.0)
    bad = np.zeros((2, 2))
    good = np.zeros((3, 2))
    with pytest.raises(ShapeError):
        spinors.classical_solution(lattice, bad, good, np.zeros(4))


def test_classical_solution_is_linear(rng):
    lattice = rapidity_lattice(1, 0.4, 1.0)
    f1 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    f2 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    g = np.zeros((3, 2))
    x = np.array([0.0, 0.3, -0.2, 0.5])
    lhs = spinors.classical_solution(lattice, f1 + 2 * f2, g, x)
    rhs = spinors.classical_solution(lattice, f1, g, x) + 2 * spinors.classical_solution(
        lattice, f2, g, x
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
