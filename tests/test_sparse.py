"""Substrate tests: the CSR type against scipy.sparse, tensor products, exponentials, caps.

The hypothesis properties pin every operation of `sparse.SparseOperator`
bitwise against scipy.sparse, the tests' independent reference: same
pattern, same column order, same values.  Matrices are drawn with exact
zeros (so rows come out empty and products cancel exactly), entries below
DROP_TOL, and non-square shapes.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from conftest import assert_same_csr, identity_operator, scipy_pruned, to_scipy, zero_operator
from hypothesis import given, settings
from hypothesis import strategies as st

from carfield import sparse
from carfield.errors import ShapeError, SizeCapError
from carfield.sparse import SparseOperator


def _random_dense(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


small_complex = st.complex_numbers(
    max_magnitude=5, allow_nan=False, allow_infinity=False
)

# exact zeros and small integers make empty rows and exact cancellations
# likely; 1e-15 lies below DROP_TOL
entries = st.one_of(
    st.sampled_from([0j, 0j, 0j, 1 + 0j, -1 + 0j, 2j, 0.5 - 1j, 1e-15 + 0j]),
    small_complex,
)
sides = st.integers(1, 6)


def matrices(n):
    return st.lists(small_complex, min_size=n * n, max_size=n * n).map(
        lambda vals: np.array(vals, dtype=np.complex128).reshape(n, n)
    )


def dense(rows, cols):
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda vals: np.array(vals, dtype=np.complex128).reshape(rows, cols)
    )


def _operator(a):
    """Every nonzero of a, the entries below DROP_TOL included."""
    rows, cols = np.nonzero(a)
    return SparseOperator.from_coo(a[rows, cols], rows, cols, a.shape)


@st.composite
def operators(draw, rows=None, cols=None):
    rows = draw(sides) if rows is None else rows
    cols = draw(sides) if cols is None else cols
    return _operator(draw(dense(rows, cols)))


@st.composite
def coo_triples(draw, unique):
    """At most 16 triples: scipy sums duplicates in input order only for that few per row."""
    shape = (draw(sides), draw(sides))
    cells = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    at = draw(st.lists(cells, max_size=16, unique=unique))
    data = np.array(draw(st.lists(entries, min_size=len(at), max_size=len(at))),
                    dtype=np.complex128)
    rows = np.array([r for r, _ in at], dtype=np.int64)
    cols = np.array([c for _, c in at], dtype=np.int64)
    return shape, data, rows, cols


def _scipy_assembly(shape, data, rows, cols):
    # scipy keeps an explicit zero when no entry repeats; carfield drops it always
    want = sp.csr_matrix((data, (rows, cols)), shape=shape)
    want.eliminate_zeros()
    return want


@settings(max_examples=60, deadline=None)
@given(triples=coo_triples(unique=True))
def test_coo_assembly_matches_scipy(triples):
    shape, data, rows, cols = triples
    got = SparseOperator.from_coo(data, rows, cols, shape)
    assert_same_csr(got, _scipy_assembly(shape, data, rows, cols))


@settings(max_examples=60, deadline=None)
@given(triples=coo_triples(unique=False))
def test_coo_assembly_sums_duplicates_as_scipy(triples):
    shape, data, rows, cols = triples
    got = SparseOperator.from_coo(data, rows, cols, shape)
    assert_same_csr(got, _scipy_assembly(shape, data, rows, cols))


def test_coo_assembly_rejects_entries_outside_the_shape():
    for rows, cols in (([2], [0]), ([0], [3]), ([-1], [0])):
        with pytest.raises(ShapeError):
            SparseOperator.from_coo([1.0], rows, cols, (2, 3))


@st.composite
def product_pairs(draw):
    n, k, m = draw(sides), draw(sides), draw(sides)
    return draw(operators(n, k)), draw(operators(k, m))


@settings(max_examples=80, deadline=None)
@given(pair=product_pairs())
def test_product_matches_scipy(pair):
    a, b = pair
    assert_same_csr(a @ b, to_scipy(a) @ to_scipy(b))


def test_product_sums_long_runs_in_order(rng):
    # 40 terms per entry, past the runs of 8 where numpy's reductions turn pairwise
    a = _operator(_random_dense(rng, 3, 40) * 10.0 ** rng.integers(-8, 8, (3, 40)))
    b = _operator(_random_dense(rng, 40, 5))
    assert_same_csr(a @ b, to_scipy(a) @ to_scipy(b))
    v = _random_dense(rng, 40, 1)[:, 0]
    assert np.array_equal(a @ v, to_scipy(a) @ v)


@st.composite
def same_shape_pairs(draw):
    rows, cols = draw(sides), draw(sides)
    return draw(operators(rows, cols)), draw(operators(rows, cols))


@settings(max_examples=80, deadline=None)
@given(pair=same_shape_pairs(), scale=st.sampled_from([1.0, 0.0, -1.0, 2j]))
def test_sum_and_difference_match_scipy(pair, scale):
    # scale 0 leaves explicit zeros in the pattern, which the sum drops as scipy does
    a, b = pair
    b = scale * b
    assert_same_csr(a + b, to_scipy(a) + to_scipy(b))
    assert_same_csr(a - b, to_scipy(a) - to_scipy(b))
    assert_same_csr(b - a, to_scipy(b) - to_scipy(a))


@settings(max_examples=60, deadline=None)
@given(a=operators(), scalar=entries, divisor=st.sampled_from([3.0, np.sqrt(2.0), 1j, 0.7 + 2j]))
def test_scalar_multiple_and_quotient_match_scipy(a, scalar, divisor):
    assert_same_csr(scalar * a, scalar * to_scipy(a))
    assert_same_csr(a * scalar, to_scipy(a) * scalar)
    assert_same_csr(a / divisor, to_scipy(a) / divisor)


@settings(max_examples=60, deadline=None)
@given(a=operators())
def test_adjoint_and_prune_match_scipy(a):
    ref = to_scipy(a)
    assert_same_csr(sparse.adjoint(a), ref.conj().T.tocsr())
    assert np.array_equal(a.toarray(), ref.toarray())
    assert_same_csr(sparse.prune(a), scipy_pruned(ref))
    assert_same_csr(sparse.asoperator(a.toarray()), scipy_pruned(ref))


@st.composite
def operator_and_vector(draw):
    a = draw(operators())
    v = draw(st.lists(entries, min_size=a.shape[1], max_size=a.shape[1]))
    return a, np.array(v, dtype=np.complex128)


@settings(max_examples=80, deadline=None)
@given(case=operator_and_vector())
def test_matvec_matches_scipy(case):
    a, v = case
    assert np.array_equal(a @ v, to_scipy(a) @ v)
    want = to_scipy(a) @ v
    want[np.abs(want) < sparse.DROP_TOL] = 0
    assert np.array_equal(sparse.apply_operator(a, v), want)


def _add_at_matvec(a, v):
    """A @ v by its rule: each term a_ij v_j (einsum) added to row i from 0 in entry order."""
    rows, cols, data = a.coo()
    out = np.zeros(a.shape[0], dtype=np.complex128)
    np.add.at(out, rows, np.einsum("i,i->i", data, v[cols]))
    return out


@pytest.mark.parametrize("block", [1, 3, sparse._ROW_BLOCK])
def test_matvec_is_the_entry_order_sum_bitwise(monkeypatch, rng, block):
    monkeypatch.setattr(sparse, "_ROW_BLOCK", block)
    dense = _random_dense(rng, 40, 30)
    dense[rng.random(dense.shape) < 0.7] = 0
    dense[[0, 7, 8, 39]] = 0  # empty rows, at both ends and in a run
    dense[5] = _random_dense(rng, 1, 30)  # a full row
    dense[11, 4] = complex(np.nan, 1.0)
    dense[12, 0] = complex(-0.0, np.nan)
    dense[13, 2] = complex(1.0, -0.0)
    a = sparse.asoperator(dense)
    v = _random_dense(rng, 30)[:, 0]
    v[2] = complex(np.inf, 0.0)
    assert (a @ v).tobytes() == _add_at_matvec(a, v).tobytes()
    empty = zero_operator(30)
    assert (empty @ v).tobytes() == np.zeros(30, dtype=np.complex128).tobytes()


@settings(max_examples=60, deadline=None)
@given(a=operators(), b=operators())
def test_kron_matches_scipy(a, b):
    want = scipy_pruned(sp.kron(to_scipy(a), to_scipy(b), format="csr"))
    assert_same_csr(sparse.tensor_product(a, b), want)


def test_asoperator_prunes_noise():
    a = np.array([[1.0, 1e-16], [0.0, 2.0]])
    op = sparse.asoperator(a)
    assert op.nnz == 2
    assert op.toarray()[0, 1] == 0


def test_tensor_product_matches_numpy(rng):
    a = _random_dense(rng, 3)
    b = _random_dense(rng, 4)
    got = sparse.tensor_product(sparse.asoperator(a), sparse.asoperator(b))
    np.testing.assert_allclose(got.toarray(), np.kron(a, b), atol=1e-14)


def test_tensor_flattening_is_row_major():
    # kron(A, B) must put B-blocks inside A: index = i_A * dim_B + i_B
    a = sparse.asoperator(np.array([[0, 1], [0, 0]]))
    out = sparse.tensor_product(a, identity_operator(3))
    v = sparse.basis_state(6, 3 + 2)  # i_A = 1, i_B = 2
    moved = sparse.apply_operator(out, v)
    np.testing.assert_array_equal(moved, sparse.basis_state(6, 2))


def test_tensor_product_cap():
    big = identity_operator(2048)
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
    a = identity_operator(2)
    b = identity_operator(3)
    with pytest.raises(ShapeError):
        sparse.commutator(a, b)
    wide = SparseOperator.from_coo([], [], [], (2, 3))
    with pytest.raises(ShapeError):
        sparse.anticommutator(wide, wide)
    with pytest.raises(ShapeError):
        a @ b
    with pytest.raises(ShapeError):
        a + b


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_matrix_exponential_of_a_diagonal_is_the_dense_route_bitwise(monkeypatch, rng):
    # NaN, +-inf, underflow below DROP_TOL, overflow, and gaps (zeros give 1)
    specials = [np.nan, np.inf, -np.inf, -800.0, -32.3, 710.0, 0.0, -0.0, 1e-300]
    cases = []
    for _ in range(40):
        d = _random_dense(rng, 1, 30)[0] * 10 ** rng.uniform(-3, 2)
        d[rng.random(30) < 0.3] = 0
        special = rng.random(30) < 0.2
        d.real[special] = rng.choice(specials, special.sum())
        d.imag[rng.random(30) < 0.1] = rng.choice([np.nan, np.inf, -0.0])
        cases.append(SparseOperator(d, np.arange(30), np.arange(31), (30, 30)))
    want = [sparse.asoperator(sparse.dense_exponential(a.toarray())) for a in cases]
    monkeypatch.setattr(sparse, "dense_exponential", None)  # the diagonal route forms no dense matrix
    for a, w in zip(cases, want):
        got = sparse.matrix_exponential(a)
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() == getattr(w, name).tobytes()


def test_dense_exponential_of_a_non_finite_matrix_is_nan():
    for bad in (np.nan, np.inf):
        a = np.ones((3, 3), dtype=np.complex128)
        a[0, 1] = bad
        assert np.isnan(sparse.dense_exponential(a)).all()


def test_matrix_exponential_guards():
    with pytest.raises(ShapeError):
        sparse.matrix_exponential(SparseOperator.from_coo([], [], [], (2, 3)))
    with pytest.raises(SizeCapError):
        sparse.matrix_exponential(identity_operator(sparse.DENSE_EXP_LIMIT + 1))


def test_exponential_size_cap_is_inclusive():
    # on shapes alone: a matrix at the cap would take seconds to exponentiate
    limit = sparse.DENSE_EXP_LIMIT
    sparse._check_exponent((limit, limit))
    with pytest.raises(SizeCapError):
        sparse._check_exponent((limit + 1, limit + 1))


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
    assert sparse.max_abs(zero_operator(4)) == 0.0
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
