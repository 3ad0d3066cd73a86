"""Sparse complex linear algebra substrate.

N-slot operators are scipy CSR matrices with complex128 entries.  Register
operators are dense (16, 16) complex128 arrays, and single-oscillator
operators are `modes.ModeBlocks`, which reach CSR only through
`SingleOscillatorSpace.embed`.  States are dense 1-d numpy arrays
(state dimensions stay below the cap, so dense vectors are cheaper than
hash maps and keep inner products exact-order deterministic).
All index flattening is row-major: kron(A, B) places B-blocks inside A,
index = i_A * dim_B + i_B.  The N-slot sums and the spectral field compute
these indices directly, in one COO assembly each, and tests pin them
bitwise against tensor_product chains; no other layer rolls its own.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

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

SparseOperator = sp.csr_matrix


def asoperator(a) -> SparseOperator:
    """Coerce a dense or sparse matrix to pruned complex CSR."""
    m = sp.csr_matrix(a, dtype=np.complex128)
    return prune(m)


def prune(a: SparseOperator) -> SparseOperator:
    a = a.tocsr()
    if a.nnz:
        a.data[np.abs(a.data) < DROP_TOL] = 0
        a.eliminate_zeros()
    return a


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
    return prune(sp.kron(a, b, format="csr"))


def tensor_many(*ops: SparseOperator) -> SparseOperator:
    out = ops[0].tocsr()
    for op in ops[1:]:
        out = tensor_product(out, op)
    return out


def adjoint(a: SparseOperator) -> SparseOperator:
    return a.conj().T.tocsr()


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
    diagonal entry, as scipy.linalg.expm does, and a non-finite A gives NaN.
    """
    a = np.asarray(a, dtype=np.complex128)
    _check_exponent(a.shape)
    diagonal = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(diagonal):
        return prune_array(np.diag(np.exp(diagonal)))
    norm = np.abs(a).sum(axis=0).max()
    if not np.isfinite(norm):
        # NaN in every entry, as scipy.linalg.expm gives, so a residual built
        # on it fails its check
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
    """e^A as pruned CSR; matrices here are small by contract."""
    _check_exponent(a.shape)
    return asoperator(dense_exponential(a.toarray()))


def apply_operator(a: SparseOperator, v: np.ndarray) -> np.ndarray:
    if a.shape[1] != v.shape[0]:
        raise ShapeError(f"operator {a.shape} cannot act on state of dim {v.shape[0]}")
    out = a @ v
    out = np.asarray(out).reshape(-1)
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
    if sp.issparse(a):
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
