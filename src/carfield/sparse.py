"""Sparse complex linear algebra substrate.

N-slot operators are `SparseOperator`s: complex128 matrices in canonical
CSR form.  Register operators are dense (16, 16) complex128 arrays, and
single-oscillator operators are `modes.ModeBlocks`, which reach CSR only
through `SingleOscillatorSpace.embed`.  States are dense 1-d numpy arrays
(state dimensions stay below the cap, so dense vectors are cheaper than
hash maps and keep inner products exact-order deterministic).
All index flattening is row-major: kron(A, B) places B-blocks inside A,
index = i_A * dim_B + i_B.  The N-slot sums compute these indices directly
and write canonical CSR with no sort, each diagonal entry summed in slot
order; the spectral field computes them in one COO assembly.  Tests pin
both bitwise against independent kron chains; no other layer rolls its own.

Summation rule.  Every entry of a product A @ B or A @ v is the sum of its
terms a_ij b_jk in ascending inner index j, added one at a time to 0; each
complex term is (ar br - ai bi) + i (ar bi + ai br), rounded after every
operation, with no fused multiply-add.  Duplicate COO entries are summed
the same way, in input order.  Sums, differences and assemblies drop the
entries that come out exactly zero; `prune` also drops those below DROP_TOL.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, SizeCapError

# entries with |value| below this are dropped; below double-precision noise
# for the O(1)-normalized matrices used throughout
DROP_TOL = 1e-14

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

# rows per block of a matrix-vector product
_ROW_BLOCK = 8192


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise complex a * b, with no fused multiply-add (numpy's vectorised multiply fuses)."""
    return np.einsum("i,i->i", a, b)


def _sums_by_key(keys: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, each with the sum of its terms from 0 in input order.

    The stable sort (skipped when the keys already ascend) keeps each key's
    terms in input order, and np.add.at is unbuffered: it adds them one at a
    time in that order (numpy's reductions switch to pairwise summation on
    long runs).  A key with one term keeps it.
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


def kept_by_prune(values: np.ndarray) -> np.ndarray:
    """Mask of the entries prune keeps: |value| >= DROP_TOL, and NaN."""
    return ~(np.abs(values) < DROP_TOL)


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
        out = np.zeros(self.shape[0], dtype=np.complex128)
        # a block of rows at a time, so no temporary spans every entry; np.add.at
        # adds each row's terms in entry order, one at a time
        for start in range(0, self.shape[0], _ROW_BLOCK):
            ptr = self.indptr[start:start + _ROW_BLOCK + 1]
            rows = np.repeat(np.arange(start, start + len(ptr) - 1, dtype=_INDEX), np.diff(ptr))
            part = slice(ptr[0], ptr[-1])
            np.add.at(out, rows, _products(self.data[part], v[self.indices[part]]))
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
    """A dense matrix as a pruned operator."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeError(f"an operator needs a 2-d array, got shape {a.shape}")
    rows, cols = np.nonzero(a)
    return prune(SparseOperator.from_sorted(a[rows, cols], rows, cols, a.shape))


def prune(a: SparseOperator) -> SparseOperator:
    """a without the entries below DROP_TOL (a itself when there are none)."""
    keep = kept_by_prune(a.data)
    if keep.all():
        return a
    kept = np.concatenate(([0], np.cumsum(keep)))
    return SparseOperator(a.data[keep], a.indices[keep], kept[a.indptr], a.shape)


def prune_array(a: np.ndarray) -> np.ndarray:
    """Dense counterpart of prune: a copy with entries below DROP_TOL set to zero."""
    a = np.array(a, dtype=np.complex128)
    a[np.abs(a) < DROP_TOL] = 0
    return a


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
    return prune(SparseOperator.from_coo(data.ravel(), rows.ravel(), cols.ravel(),
                                         (out_rows, out_cols)))


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
    return prune(a @ b - b @ a)


def anticommutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    _check_square_pair(a, b)
    return prune(a @ b + b @ a)


def _check_square_pair(a: SparseOperator, b: SparseOperator) -> None:
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ShapeError(f"square operators required, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")


def _check_exponent(shape: tuple[int, ...]) -> None:
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ShapeError(f"matrix exponential needs a square matrix, got {shape}")
    if shape[0] > DENSE_EXP_LIMIT:
        raise SizeCapError(f"dense exponential limited to dim {DENSE_EXP_LIMIT}, got {shape[0]}")


def dense_exponential(a: np.ndarray) -> np.ndarray:
    """e^A of a dense matrix, pruned as prune_array prunes.

    Higham's scaling and squaring (SIAM J. Matrix Anal. Appl. 26 (2005)
    1179): with s = max(0, ceil(log2(|A|_1 / THETA_13))), the degree-13 Pade
    approximant r(A / 2^s) = (V - U)^{-1} (V + U), with U odd and V even in
    A, is squared s times.  A diagonal A takes the exponential of each
    diagonal entry, and a non-finite A gives NaN in every entry.
    """
    a = np.asarray(a, dtype=np.complex128)
    _check_exponent(a.shape)
    diagonal = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(diagonal):
        return prune_array(np.diag(np.exp(diagonal)))
    norm = np.abs(a).sum(axis=0).max()
    if not np.isfinite(norm):
        # NaN in every entry, so a residual built on it fails its check
        return np.full(a.shape, complex(math.nan, math.nan))
    s = max(0, math.ceil(math.log2(norm / THETA_13)))
    a = a / 2**s
    b = _PADE_13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return prune_array(r)


def matrix_exponential(a: SparseOperator) -> SparseOperator:
    """e^A as pruned CSR; matrices here are small by contract.

    An A whose entries all lie on the diagonal takes dense_exponential's
    diagonal rule on its diagonal alone (zeros give 1), with no dense matrix.
    """
    _check_exponent(a.shape)
    rows, cols, data = a.coo()
    if np.array_equal(rows, cols):
        diagonal = np.zeros(a.shape[0], dtype=np.complex128)
        diagonal[rows] = data
        values = prune_array(np.exp(diagonal))
        kept = np.flatnonzero(values)
        return SparseOperator.from_sorted(values[kept], kept, kept, a.shape)
    return asoperator(dense_exponential(a.toarray()))


def apply_operator(a: SparseOperator, v: np.ndarray) -> np.ndarray:
    if a.shape[1] != v.shape[0]:
        raise ShapeError(f"operator {a.shape} cannot act on state of dim {v.shape[0]}")
    out = a @ v
    out[np.abs(out) < DROP_TOL] = 0
    return out


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
