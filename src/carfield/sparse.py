"""Sparse complex linear algebra substrate.

N-slot operators are `SparseOperator`s: complex128 matrices in canonical
CSR form.  Register operators are dense (16, 16) complex128 arrays, and
single-oscillator operators are `modes.ModeBlocks`, which reach CSR only
through `SingleOscillatorSpace.embed`.  States are dense 1-d numpy arrays
(state dimensions stay below the cap, so dense vectors are cheaper than
hash maps and keep inner products exact-order deterministic).
All index flattening is row-major: kron(A, B) places B-blocks inside A,
index = i_A * dim_B + i_B.  The N-slot sums and the spectral field compute
these indices directly, each in one COO assembly.  Tests pin both against
independent kron chains; no other layer rolls its own.

Summation rule.  Every entry of a product A @ B or A @ v is the sum of its
terms a_ij b_jk in ascending inner index j, added one at a time to 0; each
complex term is (ar br - ai bi) + i (ar bi + ai br), rounded after every
operation, with no fused multiply-add.  Duplicate COO entries are summed
the same way, in input order, and `A @ v` sums every row by one
`np.add.at` over all entries.  `noscillator.apply_extension` follows the
rule on N-slot states without forming the matrix, so it equals the N-slot
CSR product bitwise.

Storage rule.  An operator stores every nonzero entry, however small, and
NaN.  Sums, differences, products and assemblies drop only the entries that
come out exactly zero; scalar `*` and `/` keep the pattern.

Stacks.  `dense_exponential` takes a stack (..., n, n) of dense matrices,
one matrix being the stack of shape (); each matrix takes its own branch
and scaling and has the bits it has alone, as the stacked `@` and
`np.linalg.solve` give each item its own.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, SizeCapError

# hard cap on any constructed operator dimension: (16*M)^N must stay under this
MAX_DIM = 2**20

# largest dimension for which a dense matrix exponential is attempted
DENSE_EXP_LIMIT = 4096

# Higham (2005): the degree-13 Pade approximant is accurate to double
# precision for 1-norms up to THETA_13; larger A is scaled down by 2^s first
THETA_13 = 5.371920351148152
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)

# row and column indices and row pointers; MAX_DIM keeps every index in range
_INDEX = np.int32


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise complex a * b, with no fused multiply-add (numpy's vectorised multiply fuses)."""
    return np.einsum("i,i->i", a, b)


def _sums_by_key(keys: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, each with the sum of its terms from 0 in input order.

    The stable sort (skipped when the keys already ascend) keeps each key's
    terms in input order, and np.add.at is unbuffered: it adds them one at a
    time in that order (numpy's reductions switch to pairwise summation on
    long runs).  When no key repeats, every term is returned as it is; once
    any key repeats, every key is summed from 0, so a lone term's -0.0 real
    or imaginary part reads +0.0.
    """
    if not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys, terms = keys[order], terms[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    if first.all():
        return keys, terms
    sums = np.zeros(np.count_nonzero(first), dtype=np.complex128)
    np.add.at(sums, np.cumsum(first) - 1, terms)
    return keys[first], sums


class SparseOperator:
    """A complex128 matrix in canonical CSR form.

    Row i holds data[indptr[i]:indptr[i + 1]] at the strictly increasing
    columns indices[indptr[i]:indptr[i + 1]].  The constructor takes these
    arrays as they are; `from_coo`, `from_sorted` and `asoperator` build
    them.  Operators support `@` (with an operator or a state vector), `+`
    and `-` (which drop exact-zero results), and `*` and `/` by a scalar
    (which keep the pattern).  Nothing mutates the arrays after construction.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    # numpy scalars defer to __rmul__ instead of broadcasting over the object
    __array_ufunc__ = None

    def __init__(self, data, indices, indptr, shape: tuple[int, int]):
        self.data = np.asarray(data, dtype=np.complex128)
        self.indices = np.asarray(indices, dtype=_INDEX)
        self.indptr = np.asarray(indptr, dtype=_INDEX)
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def from_coo(cls, data, rows, cols, shape: tuple[int, int]) -> SparseOperator:
        """Assemble entries data[k] at (rows[k], cols[k]); duplicates are summed in input order."""
        data = np.asarray(data, dtype=np.complex128)
        keys = np.array(rows, dtype=np.int64)  # a copy: it becomes row * n_cols + col
        cols = np.asarray(cols)
        n_rows, n_cols = shape
        if len(data) and (min(keys.min(), cols.min()) < 0
                          or keys.max() >= n_rows or cols.max() >= n_cols):
            raise ShapeError(f"COO entries fall outside shape {shape}")
        keys *= n_cols
        keys += cols.astype(np.int64)
        return cls._from_keys(*_sums_by_key(keys, data), shape)

    @classmethod
    def from_sorted(cls, data, rows, cols, shape: tuple[int, int]) -> SparseOperator:
        """Entries in canonical order: rows ascending, columns strictly ascending in a row."""
        indptr = np.zeros(shape[0] + 1, dtype=_INDEX)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(data, cols, indptr, shape)

    @classmethod
    def _from_keys(cls, keys: np.ndarray, data: np.ndarray, shape) -> SparseOperator:
        """Sorted distinct row-major keys row * n_cols + col with their values; zeros dropped."""
        live = data != 0
        if not live.all():
            keys, data = keys[live], data[live]
        n_rows, n_cols = shape
        row_starts = np.arange(n_rows + 1, dtype=np.int64)
        row_starts *= n_cols
        return cls(data, keys % n_cols, np.searchsorted(keys, row_starts), shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the stored entries, in row-major order."""
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        return rows, self.indices, self.data

    def _keys(self) -> np.ndarray:
        rows, cols, _ = self.coo()
        return rows * self.shape[1] + cols

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.complex128)
        rows, cols, data = self.coo()
        out[rows, cols] = data
        return out

    def __matmul__(self, other):
        if isinstance(other, SparseOperator):
            return self._matmul_operator(other)
        v = np.asarray(other, dtype=np.complex128)
        if v.ndim != 1 or v.shape[0] != self.shape[1]:
            raise ShapeError(f"operator {self.shape} cannot act on an array of shape {v.shape}")
        rows, cols, data = self.coo()
        out = np.zeros(self.shape[0], dtype=np.complex128)
        # np.add.at adds each row's terms in entry order, one at a time
        np.add.at(out, rows, _products(data, v[cols]))
        return out

    def _matmul_operator(self, other: SparseOperator) -> SparseOperator:
        """Every term a_ij b_jk, made in ascending j for each (i, k), summed by (i, k)."""
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        rows, inner, a = self.coo()
        b_start = other.indptr[inner].astype(np.int64)
        b_len = other.indptr[inner + 1] - b_start
        a_entry = np.repeat(np.arange(len(a)), b_len)
        b_entry = np.arange(len(a_entry)) - np.repeat(np.cumsum(b_len) - b_len - b_start, b_len)
        keys = rows[a_entry] * other.shape[1] + other.indices[b_entry]
        terms = _products(a[a_entry], other.data[b_entry])
        return SparseOperator._from_keys(*_sums_by_key(keys, terms),
                                         (self.shape[0], other.shape[1]))

    def _combine(self, other, sign) -> SparseOperator:
        """a + sign(b), sign a unary ufunc: each entry is a, sign(b), or their sum."""
        if not isinstance(other, SparseOperator):
            return NotImplemented
        if other.shape != self.shape:
            raise ShapeError(f"dimension mismatch: {self.shape} vs {other.shape}")
        if np.array_equal(self.indptr, other.indptr) and np.array_equal(self.indices,
                                                                        other.indices):
            # one pattern: every entry is 0 + a + sign(b), as _sums_by_key sums
            # it (of two NaN terms, either may pass on its sign)
            sums = np.zeros(self.nnz, dtype=np.complex128)
            sums += self.data
            sums += sign(other.data)
            live = sums != 0
            if live.all():
                return SparseOperator(sums, self.indices, self.indptr, self.shape)
            kept = np.zeros(self.nnz + 1, dtype=_INDEX)
            np.cumsum(live, out=kept[1:])
            return SparseOperator(sums[live], self.indices[live], kept[self.indptr], self.shape)
        keys = np.concatenate((self._keys(), other._keys()))
        terms = np.concatenate((self.data, sign(other.data)))
        return SparseOperator._from_keys(*_sums_by_key(keys, terms), self.shape)

    def __add__(self, other):
        return self._combine(other, np.positive)

    def __sub__(self, other):
        return self._combine(other, np.negative)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return SparseOperator(self.data * scalar, self.indices, self.indptr, self.shape)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        """The multiple by 1 / scalar."""
        return self * (1 / scalar) if np.isscalar(scalar) else NotImplemented


def asoperator(a: np.ndarray) -> SparseOperator:
    """A dense matrix as an operator holding its nonzero entries."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeError(f"an operator needs a 2-d array, got shape {a.shape}")
    rows, cols = np.nonzero(a)
    return SparseOperator.from_sorted(a[rows, cols], rows, cols, a.shape)


def tensor_product(a: SparseOperator, b: SparseOperator | np.ndarray) -> SparseOperator:
    out_rows = a.shape[0] * b.shape[0]
    out_cols = a.shape[1] * b.shape[1]
    if out_rows > MAX_DIM or out_cols > MAX_DIM:
        raise SizeCapError(
            f"tensor product of {a.shape} and {b.shape} exceeds cap {MAX_DIM}"
        )
    b = asoperator(b) if isinstance(b, np.ndarray) else b
    a_rows, a_cols, a_data = a.coo()
    b_rows, b_cols, b_data = b.coo()
    if not (len(a_data) and len(b_data)):
        return SparseOperator.from_coo([], [], [], (out_rows, out_cols))
    # one row of these arrays per entry of a, one column per entry of b; the
    # entries are numpy's complex products, which may fuse multiply-adds
    per = len(b_data)
    rows = (a_rows.repeat(per) * b.shape[0]).reshape(-1, per) + b_rows
    cols = (a_cols.astype(np.int64).repeat(per) * b.shape[1]).reshape(-1, per) + b_cols
    data = a_data.repeat(per).reshape(-1, per) * b_data
    return SparseOperator.from_coo(data.ravel(), rows.ravel(), cols.ravel(),
                                   (out_rows, out_cols))


def tensor_many(*ops: SparseOperator) -> SparseOperator:
    out = ops[0]
    for op in ops[1:]:
        out = tensor_product(out, op)
    return out


def adjoint(a: SparseOperator) -> SparseOperator:
    rows, cols, data = a.coo()
    # stable, so each row of the adjoint keeps its columns ascending
    order = np.argsort(cols, kind="stable")
    return SparseOperator.from_sorted(np.conj(data[order]), cols[order], rows[order],
                                      a.shape[::-1])


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    _check_square_pair(a, b)
    return a @ b - b @ a


def anticommutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    _check_square_pair(a, b)
    return a @ b + b @ a


def _check_square_pair(a: SparseOperator, b: SparseOperator) -> None:
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ShapeError(f"square operators required, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")


def _check_exponent(shape: tuple[int, ...]) -> None:
    if len(shape) < 2 or shape[-2] != shape[-1]:
        raise ShapeError(f"matrix exponential needs a square matrix, got {shape}")
    if shape[-1] > DENSE_EXP_LIMIT:
        raise SizeCapError(f"dense exponential limited to dim {DENSE_EXP_LIMIT}, got {shape[-1]}")


def dense_exponential(a: np.ndarray) -> np.ndarray:
    """e^A of each matrix of a dense stack (..., n, n); one matrix is the stack of shape ().

    Higham's scaling and squaring (SIAM J. Matrix Anal. Appl. 26 (2005)
    1179): with s = max(0, ceil(log2(|A|_1 / THETA_13))), the degree-13 Pade
    approximant r(A / 2^s) = (V - U)^{-1} (V + U), with U odd and V even in
    A, is squared s times.  A diagonal A takes the exponential of each
    diagonal entry, and a non-finite A gives NaN in every entry.  Each
    matrix takes its own branch and s, and the squarings run only on the
    matrices that still need them; each item has the bits it has alone.
    """
    a = np.asarray(a, dtype=np.complex128)
    _check_exponent(a.shape)
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    out = np.zeros_like(stack)
    diagonal = np.diagonal(stack, axis1=1, axis2=2)
    on_diagonal = np.count_nonzero(stack, axis=(1, 2)) == np.count_nonzero(diagonal, axis=1)
    rows = np.flatnonzero(on_diagonal)
    if len(rows):
        index = np.arange(n)
        out[rows[:, None], index, index] = np.exp(diagonal[rows])
    norms = np.abs(stack).sum(axis=1).max(axis=1)
    finite = np.isfinite(norms)
    # NaN in every entry, so a residual built on it fails its check
    out[~on_diagonal & ~finite] = complex(math.nan, math.nan)
    dense = np.flatnonzero(~on_diagonal & finite)
    if len(dense):
        out[dense] = _scaled_pade(stack[dense], norms[dense])
    return out.reshape(a.shape)


def _scaled_pade(a: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The scaling and squaring of `dense_exponential` on a stack of finite matrices."""
    s = np.array([max(0, math.ceil(math.log2(norm / THETA_13))) for norm in norms])
    a = a / (2.0 ** s)[:, None, None]
    b = _PADE_13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for step in range(s.max()):
        squared = np.flatnonzero(s > step)
        r[squared] = r[squared] @ r[squared]
    return r


def matrix_exponential(a: SparseOperator) -> SparseOperator:
    """e^A as CSR; matrices here are small by contract.

    An A whose entries all lie on the diagonal takes dense_exponential's
    diagonal rule on its diagonal alone (zeros give 1), with no dense matrix.
    """
    _check_exponent(a.shape)
    rows, cols, data = a.coo()
    if np.array_equal(rows, cols):
        diagonal = np.zeros(a.shape[0], dtype=np.complex128)
        diagonal[rows] = data
        values = np.exp(diagonal)
        kept = np.flatnonzero(values)
        return SparseOperator.from_sorted(values[kept], kept, kept, a.shape)
    return asoperator(dense_exponential(a.toarray()))


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    if u.shape != v.shape:
        raise ShapeError(f"state dims differ: {u.shape} vs {v.shape}")
    # einsum, unlike BLAS vdot, sums in an order that does not depend on the thread count
    return complex(np.einsum("i,i->", np.conj(u), v))


def basis_state(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def max_abs(a) -> float:
    """Largest entry magnitude of an operator, state, or residual."""
    if isinstance(a, SparseOperator):
        return float(np.abs(a.data).max()) if a.nnz else 0.0
    arr = np.asarray(a)
    return float(np.abs(arr).max()) if arr.size else 0.0


def worst_of(*residuals: float) -> float:
    """Largest of the residuals, or NaN if any of them is NaN.

    The builtin max keeps the running worst when a NaN arrives second
    (NaN > x is False), which would let a failed evaluation pass.
    """
    if any(math.isnan(r) for r in residuals):
        return math.nan
    return max(residuals)
