"""Register algebra: CAR table, grading, vacuum, and quadratic flows."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from carfield import sparse
from carfield.errors import PreconditionError
from carfield.register import (
    OCCUPATION,
    REGISTER,
    REGISTER_DIM,
    VACUUM_INDEX,
    _exp2,
    build_register,
    conjugation_report,
    pair_exponential,
    pair_unitary,
    quadratic_generator,
)

from conftest import number_operator

bounded_reals = st.floats(-1.5, 1.5, allow_nan=False)


def small_2x2():
    return st.lists(bounded_reals, min_size=8, max_size=8).map(
        lambda v: np.array(v[:4], dtype=float).reshape(2, 2)
        + 1j * np.array(v[4:], dtype=float).reshape(2, 2)
    )


def test_register_operators_are_dense_arrays(reg):
    for op in (*reg.annihilators(), reg.identity, reg.parity):
        assert isinstance(op, np.ndarray)
        assert op.shape == (REGISTER_DIM, REGISTER_DIM) and op.dtype == np.complex128


def test_car_anticommutators(reg):
    cs = reg.annihilators()
    for i, a in enumerate(cs):
        for j, b in enumerate(cs):
            b_dag = b.conj().T
            anti = a @ b_dag + b_dag @ a
            if i == j:
                assert sparse.max_abs(anti - reg.identity) == 0.0
            else:
                assert sparse.max_abs(anti) == 0.0
            assert sparse.max_abs(a @ b + b @ a) == 0.0


def test_ladders_are_nilpotent(reg):
    for a in reg.annihilators():
        assert sparse.max_abs(a @ a) == 0.0


def test_grading(reg):
    g = reg.parity
    assert sparse.max_abs(g @ g - reg.identity) == 0.0
    for a in reg.annihilators():
        assert sparse.max_abs(g @ a @ g + a) == 0.0
    # vacuum is even
    np.testing.assert_array_equal(g @ reg.vacuum, reg.vacuum)


def test_vacuum_is_annihilated(reg):
    assert sparse.inner(reg.vacuum, reg.vacuum) == 1.0
    for a in reg.annihilators():
        assert np.all(a @ reg.vacuum == 0)


def test_creation_pattern(reg):
    # each creator populates exactly one excited-factor basis state, phase +1
    targets = {"b-": 7, "b+": 11, "d-": 13, "d+": 14}
    labels = ["b-", "b+", "d-", "d+"]
    for label, a in zip(labels, reg.annihilators()):
        created = a.conj().T @ reg.vacuum
        expected = sparse.basis_state(REGISTER_DIM, targets[label])
        np.testing.assert_array_equal(created, expected)


def test_ladder_lookup(reg):
    assert reg.ladder("b", 0) is reg.b_minus
    assert reg.ladder("d", 1) is reg.d_plus


def test_number_operator_counts(reg):
    n_b = number_operator(reg, "b")
    n_d = number_operator(reg, "d")
    diag = np.real((n_b + n_d).diagonal())
    assert diag[VACUUM_INDEX] == 0.0
    assert diag[0] == 4.0  # all four factors excited
    # n_b measures the first two tensor factors: basis index 7 = b- occupied
    assert np.real(n_b.diagonal())[7] == 1.0
    assert np.real(n_d.diagonal())[7] == 0.0


def test_occupation_is_the_diagonal_of_each_number_operator(reg):
    assert OCCUPATION.shape == (4, REGISTER_DIM) and OCCUPATION.dtype.kind == "i"
    for row, c in zip(OCCUPATION, reg.annihilators()):
        n = c.conj().T @ c
        # c'c is diagonal, with the occupation as its exact 0/1 entries
        np.testing.assert_array_equal(n, np.diag(row))
    for species, rows in (("b", OCCUPATION[:2]), ("d", OCCUPATION[2:])):
        np.testing.assert_array_equal(number_operator(reg, species), np.diag(rows.sum(axis=0)))
    assert not OCCUPATION[:, VACUUM_INDEX].any()


def test_shared_register_is_read_only_and_build_register_is_fresh(reg):
    for name, array in vars(REGISTER).items():
        np.testing.assert_array_equal(array, getattr(reg, name))
        with pytest.raises(ValueError):
            array[0] = 1
    with pytest.raises(ValueError):
        OCCUPATION[0, 0] = 2
    fresh = build_register()
    assert fresh.b_minus is not REGISTER.b_minus
    fresh.b_minus[0, 0] = 5  # a fresh register is the caller's to change
    assert REGISTER.b_minus[0, 0] == 0


@settings(max_examples=30, deadline=None)
@given(a_b=small_2x2(), a_d=small_2x2())
def test_pair_exponential_matches_dense(reg, a_b, a_d):
    closed = pair_exponential(a_b, a_d)
    dense = sparse.dense_exponential(quadratic_generator(reg, a_b, a_d))
    assert sparse.max_abs(closed - dense) < 1e-10


@settings(max_examples=30, deadline=None)
@given(a_b=small_2x2(), a_d=small_2x2())
def test_dense_exponential_matches_scipy_on_quadratic_generators(reg, a_b, a_d):
    x = quadratic_generator(reg, a_b, a_d)
    ref = scipy.linalg.expm(x)
    got = sparse.dense_exponential(x)
    assert np.linalg.norm(got - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)


def test_pair_exponential_species_factors_commute(rng):
    # exp(b'Ab + d'Bd) = exp(b'Ab) exp(d'Bd), in either order
    a_b, a_d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
    zero = np.zeros((2, 2))
    only_b, only_d = pair_exponential(a_b, zero), pair_exponential(zero, a_d)
    both = pair_exponential(a_b, a_d)
    assert sparse.max_abs(only_b @ only_d - both) == 0.0
    assert sparse.max_abs(only_d @ only_b - both) == 0.0


def test_pair_exponential_rejects_wrong_shape():
    with pytest.raises(PreconditionError):
        pair_exponential(np.eye(3), np.eye(2))


@settings(max_examples=30, deadline=None)
@given(a_b=small_2x2(), a_d=small_2x2())
def test_pair_unitary_of_exponentials_is_pair_exponential_bitwise(a_b, a_d):
    for a in (a_b, np.diag(np.diag(a_b))):
        got = pair_unitary(_exp2(a), _exp2(a_d))
        assert np.array_equal(got, pair_exponential(a, a_d))


def _random_su2(rng):
    # a uniform unit quaternion (a, b, c, d) as [[a + ib, c + id], [-c + id, a - ib]]
    q = rng.standard_normal(4)
    q = q / np.linalg.norm(q)
    return np.array([[q[0] + 1j * q[1], q[2] + 1j * q[3]],
                     [-q[2] + 1j * q[3], q[0] - 1j * q[1]]])


def test_pair_unitary_mixes_each_species(reg, rng):
    # Gamma(u_b) Gamma(u_d) conjugates c_s to sum_s' u[s, s'] c_s' per species
    for _ in range(20):
        u_b, u_d = _random_su2(rng), _random_su2(rng)
        gamma = pair_unitary(u_b, u_d)
        for u, ladders in ((u_b, [reg.b_minus, reg.b_plus]), (u_d, [reg.d_minus, reg.d_plus])):
            for s in range(2):
                lhs = gamma.conj().T @ ladders[s] @ gamma
                rhs = u[s, 0] * ladders[0] + u[s, 1] * ladders[1]
                assert sparse.max_abs(lhs - rhs) <= 1e-14


def test_conjugation_report_residuals(reg, rng):
    for _ in range(5):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = 0.5 * (h - h.conj().T)
        a = a - 0.5 * np.trace(a) * np.eye(2)
        alpha, beta = rng.uniform(-np.pi, np.pi, 2)
        report = conjugation_report(reg, a, float(alpha), float(beta))
        assert report.su2_residual < 1e-10
        assert report.phase_residual < 1e-10
        assert report.parity_residual < 1e-14


def test_conjugation_report_requires_su2(reg):
    # anti-Hermitian but not traceless: det(e^A) != 1
    with pytest.raises(PreconditionError):
        conjugation_report(reg, 0.3j * np.eye(2), 0.1, 0.2)
    # traceless but not anti-Hermitian: e^A not unitary
    with pytest.raises(PreconditionError):
        conjugation_report(reg, np.diag([0.5, -0.5]), 0.1, 0.2)
