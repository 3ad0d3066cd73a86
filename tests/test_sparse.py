"""Substrate tests: tensor products, adjoints, exponentials, and caps."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from carfield import sparse
from carfield.errors import ShapeError, SizeCapError


def _random_dense(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


small_complex = st.complex_numbers(
    max_magnitude=5, allow_nan=False, allow_infinity=False
)


def matrices(n):
    return st.lists(small_complex, min_size=n * n, max_size=n * n).map(
        lambda vals: np.array(vals, dtype=np.complex128).reshape(n, n)
    )


def test_asoperator_prunes_noise():
    a = np.array([[1.0, 1e-16], [0.0, 2.0]])
    op = sparse.asoperator(a)
    assert op.nnz == 2
    assert op[0, 1] == 0


def test_tensor_product_matches_numpy(rng):
    a = _random_dense(rng, 3)
    b = _random_dense(rng, 4)
    got = sparse.tensor_product(sparse.asoperator(a), sparse.asoperator(b))
    np.testing.assert_allclose(got.toarray(), np.kron(a, b), atol=1e-14)


def test_tensor_flattening_is_row_major():
    # kron(A, B) must put B-blocks inside A: index = i_A * dim_B + i_B
    a = sparse.asoperator(np.array([[0, 1], [0, 0]]))
    b = sp.identity(3, dtype=np.complex128, format="csr")
    out = sparse.tensor_product(a, b)
    v = sparse.basis_state(6, 3 + 2)  # i_A = 1, i_B = 2
    moved = sparse.apply_operator(out, v)
    np.testing.assert_array_equal(moved, sparse.basis_state(6, 2))


def test_tensor_product_cap():
    big = sp.identity(2048, dtype=np.complex128, format="csr")
    with pytest.raises(SizeCapError):
        sparse.tensor_product(big, big)


def test_tensor_many_associates(rng):
    mats = [sparse.asoperator(_random_dense(rng, 2)) for _ in range(3)]
    left = sparse.tensor_product(sparse.tensor_product(mats[0], mats[1]), mats[2])
    assert sparse.max_abs(sparse.tensor_many(*mats) - left) < 1e-14


@settings(max_examples=25, deadline=None)
@given(a=matrices(2), b=matrices(2), c=matrices(2), d=matrices(2))
def test_tensor_product_is_multiplicative(a, b, c, d):
    # (A x B)(C x D) = AC x BD
    lhs = sparse.tensor_product(sparse.asoperator(a), sparse.asoperator(b)) @ (
        sparse.tensor_product(sparse.asoperator(c), sparse.asoperator(d))
    )
    rhs = sparse.tensor_product(
        sparse.asoperator(a @ c), sparse.asoperator(b @ d)
    )
    assert sparse.max_abs(lhs - rhs) < 1e-9 * max(1.0, sparse.max_abs(rhs))


def test_adjoint(rng):
    a = _random_dense(rng, 3, 5)
    got = sparse.adjoint(sparse.asoperator(a))
    np.testing.assert_allclose(got.toarray(), a.conj().T, atol=1e-14)


def test_commutators(rng):
    a = sparse.asoperator(_random_dense(rng, 4))
    b = sparse.asoperator(_random_dense(rng, 4))
    comm = sparse.commutator(a, b).toarray()
    anti = sparse.anticommutator(a, b).toarray()
    np.testing.assert_allclose(comm + anti, 2 * (a @ b).toarray(), atol=1e-12)
    np.testing.assert_allclose(anti - comm, 2 * (b @ a).toarray(), atol=1e-12)


def test_commutator_shape_errors():
    a = sp.identity(2, dtype=np.complex128, format="csr")
    b = sp.identity(3, dtype=np.complex128, format="csr")
    with pytest.raises(ShapeError):
        sparse.commutator(a, b)
    with pytest.raises(ShapeError):
        sparse.anticommutator(sp.csr_matrix((2, 3), dtype=np.complex128), sp.csr_matrix((2, 3), dtype=np.complex128))


def test_matrix_exponential_matches_scipy(rng):
    a = _random_dense(rng, 6)
    got = sparse.matrix_exponential(sparse.asoperator(a)).toarray()
    np.testing.assert_allclose(got, scipy.linalg.expm(a), atol=1e-11)


def _normwise_error(got, ref):
    return np.linalg.norm(got - ref, 1) / np.linalg.norm(ref, 1)


@pytest.mark.parametrize("n", [3, 16, 40])
@pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, sparse.THETA_13, 20.0, 50.0])
def test_dense_exponential_matches_scipy_across_scales(rng, n, norm):
    # 1-norms up to THETA_13 take no scaling step, larger ones up to four
    a = _random_dense(rng, n)
    a *= norm / np.abs(a).sum(axis=0).max()
    assert _normwise_error(sparse.dense_exponential(a), scipy.linalg.expm(a)) <= 1e-13


def test_dense_exponential_of_a_nilpotent_matrix(rng):
    # e^N of a strictly upper-triangular N is the finite series sum_k N^k / k!
    n = 8
    a = np.triu(_random_dense(rng, n), 1) * 3
    series = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, n):
        term = term @ a / k
        series = series + term
    got = sparse.dense_exponential(a)
    assert np.array_equal(np.tril(got, -1), np.zeros((n, n)))
    assert _normwise_error(got, series) <= 1e-13
    assert _normwise_error(got, scipy.linalg.expm(a)) <= 1e-13


def test_dense_exponential_is_exact_on_diagonals(rng):
    d = np.diag(_random_dense(rng, 1, 40)[0])
    assert np.array_equal(sparse.dense_exponential(d), scipy.linalg.expm(d))
    assert np.array_equal(sparse.dense_exponential(np.zeros((5, 5))), np.eye(5))


def test_dense_exponential_of_a_non_finite_matrix_is_nan():
    for bad in (np.nan, np.inf):
        a = np.ones((3, 3), dtype=np.complex128)
        a[0, 1] = bad
        assert np.isnan(sparse.dense_exponential(a)).all()


def test_matrix_exponential_guards():
    with pytest.raises(ShapeError):
        sparse.matrix_exponential(sp.csr_matrix((2, 3), dtype=np.complex128))
    with pytest.raises(SizeCapError):
        sparse.matrix_exponential(sp.identity(sparse.DENSE_EXP_LIMIT + 1, dtype=np.complex128, format="csr"))


def test_apply_operator_and_inner(rng):
    a = _random_dense(rng, 4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    out = sparse.apply_operator(sparse.asoperator(a), v)
    np.testing.assert_allclose(out, a @ v, atol=1e-12)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert sparse.inner(v, w) == pytest.approx(np.vdot(v, w))
    with pytest.raises(ShapeError):
        sparse.apply_operator(sparse.asoperator(a), np.zeros(5))
    with pytest.raises(ShapeError):
        sparse.inner(v, np.zeros(5))


def test_inner_is_conjugate_linear_in_first_slot(rng):
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert sparse.inner(2j * v, w) == pytest.approx(-2j * sparse.inner(v, w))


def test_basis_state():
    v = sparse.basis_state(5, 3)
    assert v[3] == 1.0 and np.count_nonzero(v) == 1


def test_max_abs_variants():
    assert sparse.max_abs(sp.csr_matrix((4, 4), dtype=np.complex128)) == 0.0
    assert sparse.max_abs(np.array([])) == 0.0
    assert sparse.max_abs(np.array([1.0, -3.0])) == 3.0
    assert sparse.max_abs(sparse.asoperator(np.diag([2.0, -5.0]))) == 5.0



def test_worst_of_propagates_nan():
    nan = float("nan")
    assert sparse.worst_of(1e-13, 3e-14) == 1e-13
    assert sparse.worst_of(0.5) == 0.5
    # the builtin max keeps its first argument when a NaN comes second
    assert max(1e-13, nan) == 1e-13
    for values in ((nan, 1e-13, 0.0), (1e-13, 0.0, nan), (nan,)):
        assert np.isnan(sparse.worst_of(*values))
