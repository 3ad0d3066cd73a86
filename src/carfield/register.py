"""Four-mode fermionic register in a Jordan-Wigner realization.

One register factor carries the four ladder operators b-, b+, d-, d+ as
dense (16, 16) complex arrays, as is every register operator here.  Each
2-dim tensor factor is ordered (excited, ground), so the register vacuum
is the last basis vector, index 15.  The grading operator ``parity`` (a
sigma3 string over all four factors) anticommutes with every ladder
operator and fixes the vacuum; it is the twist inserted by the N-oscillator
extension.  Products sum with einsum in index order, the summation rule of
`sparse` that `modes.ModeBlocks` products follow too.

The package reads one read-only register, `REGISTER`, built at import, and
its number operators as the int diagonals in `OCCUPATION`; `build_register`
still builds a fresh, writable register.  Everything else derived from the
register is built once at import too, read-only: the creators `ADJOINTS`,
the pair products c_s' c_t of `PAIR_PRODUCTS`, and for each operator of
`REGISTER` and each creator its nonzero entries, which `operator_table`
returns and the mode-block builders read.

The kernels `pair_unitary`, `pair_exponential`, `quadratic_generator` and
`conjugation_report` take stacks: their 2x2 arguments are (..., 2, 2)
arrays, a single matrix the stack of shape (), and each item of a stack
has the bits it has alone.  A product that the single form took between
two numpy scalars is formed by `spinors._times`, as numpy's scalar
multiply forms it; numpy's array multiply fuses multiply-adds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import sparse
from .errors import PreconditionError, ShapeError
from .spinors import _times, exponential

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
SIGMA_MINUS = (SIGMA1 - 1j * SIGMA2) / 2  # lowers excited -> ground
ID2 = np.eye(2, dtype=np.complex128)

REGISTER_DIM = 16
VACUUM_INDEX = 15

SPIN_MINUS = 0
SPIN_PLUS = 1


@dataclass(frozen=True)
class JWRegister:
    b_minus: np.ndarray
    b_plus: np.ndarray
    d_minus: np.ndarray
    d_plus: np.ndarray
    identity: np.ndarray
    parity: np.ndarray
    vacuum: np.ndarray

    def ladder(self, species: str, spin: int) -> np.ndarray:
        """Annihilator for the given species ('b' or 'd') and spin (0: -, 1: +)."""
        table = {
            ("b", SPIN_MINUS): self.b_minus,
            ("b", SPIN_PLUS): self.b_plus,
            ("d", SPIN_MINUS): self.d_minus,
            ("d", SPIN_PLUS): self.d_plus,
        }
        return table[(species, spin)]

    def annihilators(self) -> list[np.ndarray]:
        return [self.b_minus, self.b_plus, self.d_minus, self.d_plus]


def _chain(*factors: np.ndarray) -> np.ndarray:
    return functools.reduce(np.kron, factors)


def build_register() -> JWRegister:
    return JWRegister(
        b_minus=_chain(SIGMA_MINUS, ID2, ID2, ID2),
        b_plus=-_chain(SIGMA3, SIGMA_MINUS, ID2, ID2),
        d_minus=_chain(SIGMA3, SIGMA3, SIGMA_MINUS, ID2),
        d_plus=-_chain(SIGMA3, SIGMA3, SIGMA3, SIGMA_MINUS),
        identity=np.eye(REGISTER_DIM, dtype=np.complex128),
        parity=_chain(SIGMA3, SIGMA3, SIGMA3, SIGMA3),
        vacuum=sparse.basis_state(REGISTER_DIM, VACUUM_INDEX),
    )


REGISTER = build_register()

# diag(c'c)_j = sum_i |c_ij|^2, column sums of exact 0/1 moduli, in the
# order of `annihilators`; elementwise, so no matrix product runs at import
OCCUPATION = (np.abs(np.array(REGISTER.annihilators())) ** 2).sum(axis=1).astype(int)

# the creators c', in the order of `annihilators`
ADJOINTS = tuple(np.ascontiguousarray(c.conj().T) for c in REGISTER.annihilators())

# c_s' c_t of one species, [s, t, species (b, d)]; entries 0 and +-1, so
# every product is exact, and einsum runs no BLAS product at import
PAIR_PRODUCTS = np.ascontiguousarray(np.einsum(
    "xsij,xtjk->stxik", np.reshape(ADJOINTS, (2, 2, REGISTER_DIM, REGISTER_DIM)),
    np.reshape(REGISTER.annihilators(), (2, 2, REGISTER_DIM, REGISTER_DIM))))

_SPECIES = {"b": 0, "d": 1}


def pattern_bits(mask: np.ndarray) -> int:
    """A (16, 16) boolean register pattern as an int with bit 16 r + c set for entry (r, c)."""
    return int.from_bytes(np.packbits(mask, axis=None, bitorder="little").tobytes(), "little")


@dataclass(frozen=True, eq=False)
class OperatorTable:
    """The nonzero entries of a register operator: flat positions 16 r + c, ascending, and values."""

    positions: np.ndarray
    values: np.ndarray
    pattern: int  # `pattern_bits` of the positions
    finite: bool  # whether every value is finite


def _operator_table(op) -> OperatorTable:
    flat = np.asarray(op, dtype=np.complex128)
    if flat.shape != (REGISTER_DIM, REGISTER_DIM):
        raise ShapeError(f"register operator must be (16, 16), got {flat.shape}")
    flat = flat.reshape(-1)
    positions = np.flatnonzero(flat)
    values = flat[positions]
    for array in (positions, values):
        array.flags.writeable = False
    return OperatorTable(positions, values, pattern_bits(flat != 0), bool(np.isfinite(values).all()))


# keyed by id: the keyed arrays live as long as the module, so no other
# array can hold one of their ids
_TABLES = {id(op): _operator_table(op)
           for op in (*vars(REGISTER).values(), *ADJOINTS) if op.ndim == 2}

for _array in (*vars(REGISTER).values(), OCCUPATION, *ADJOINTS, PAIR_PRODUCTS):
    _array.flags.writeable = False


def creator(species: str, spin: int) -> np.ndarray:
    """The creator c' of REGISTER for the species ('b' or 'd') and spin (0: -, 1: +)."""
    return ADJOINTS[2 * _SPECIES[species] + spin]


def operator_table(op) -> OperatorTable:
    """The nonzero entries of a (16, 16) register operator.

    An operator of REGISTER, or one of `ADJOINTS`, reads the table built at
    import; any other array has its table computed on the spot.
    """
    table = _TABLES.get(id(op))
    return table if table is not None else _operator_table(op)


def _exp2(a: np.ndarray) -> np.ndarray:
    """e^A of a stack of 2x2 forms by the closed form `spinors.exponential`."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-2:] != (2, 2):
        raise PreconditionError(f"quadratic form must be 2x2, got {a.shape}")
    return exponential(a)


def _determinant(u: np.ndarray) -> np.ndarray:
    """u00 u11 - u01 u10 of each 2x2 item, by numpy's scalar complex product."""
    return _times(u[..., 0, 0], u[..., 1, 1]) - _times(u[..., 0, 1], u[..., 1, 0])


def pair_unitary(u_b: np.ndarray, u_d: np.ndarray) -> np.ndarray:
    """Gamma(u_b) Gamma(u_d), the register operator of per-species 2x2 mixings.

    For unitary u, Gamma(u)' c_s Gamma(u) = sum_s' u[s, s'] c_s' on its
    species.  Gamma preserves particle number per species, so it factorizes
    over the b-pair and d-pair subspaces, which commute.  On one pair, in
    the basis (ee, eg, ge, gg), the doubly-excited amplitude picks up det u,
    the one-particle block is u in spin order (-, +), and the empty sector
    is fixed.  The kron of the two blocks is an einsum: numpy's complex
    multiply may fuse a multiply-add, einsum's does not.  Stacks of u_b and
    u_d broadcast against each other.
    """
    blocks = []
    for u in (u_b, u_d):
        u = np.asarray(u, dtype=np.complex128)
        block = np.zeros(u.shape[:-2] + (4, 4), dtype=np.complex128)
        block[..., 0, 0] = _determinant(u)
        block[..., 1:3, 1:3] = u
        block[..., 3, 3] = 1.0
        blocks.append(block)
    kron = np.einsum("...ij,...kl->...ikjl", *blocks)
    return kron.reshape(kron.shape[:-4] + (REGISTER_DIM, REGISTER_DIM))


def pair_exponential(a_b: np.ndarray, a_d: np.ndarray) -> np.ndarray:
    """exp(b'(a_b)b + d'(a_d)d), the `pair_unitary` of e^(a_b) and e^(a_d).

    Each e^A comes from the closed 2x2 form of `_exp2`, so a check against
    `sparse.dense_exponential` of the 16x16 generator compares two
    independent algorithms.
    """
    return pair_unitary(_exp2(a_b), _exp2(a_d))


def quadratic_generator(a_b: np.ndarray, a_d: np.ndarray) -> np.ndarray:
    """The quadratic form b'(a_b)b + d'(a_d)d as an explicit 16x16 matrix.

    The terms a[s, t] c_s' c_t come from `PAIR_PRODUCTS`, whose entries 0
    and +-1 make every product exact, and are added to 0 by one einsum in
    the order (s, t), b before d.  Stacks of a_b and a_d broadcast.
    """
    coeffs = np.stack(np.broadcast_arrays(np.asarray(a_b, dtype=np.complex128),
                                          np.asarray(a_d, dtype=np.complex128)), axis=-1)
    out = np.einsum("...k,kij->...ij", coeffs.reshape(coeffs.shape[:-3] + (-1,)),
                    PAIR_PRODUCTS.reshape(-1, REGISTER_DIM, REGISTER_DIM))
    # the one floor on stored entries: a traceless form made traceless in
    # floats, a - tr(a)/2, leaves a_00 + a_11 of order 1e-17 on the doubly
    # occupied states; dropping it keeps the exact form's zero there
    out[np.abs(out) < 1e-14] = 0
    return out


def _finite_diagonals(a: np.ndarray) -> bool:
    """Whether every matrix of the stack is diagonal, with finite entries."""
    diagonal = np.diagonal(a, axis1=-2, axis2=-1)
    return bool(np.count_nonzero(a) == np.count_nonzero(diagonal)
                and np.isfinite(diagonal).all())


def _conjugate(inv: np.ndarray, op: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """inv @ op @ conj, left to right, each entry summed in index order from 0 with einsum.

    inv and conj are stacks of 16x16 matrices, op any stack of register
    operators that broadcasts between them.  When inv and conj are finite
    and diagonal, each sum has one nonzero term, and every other term is
    +-0, which adds nothing to a sum from 0: each entry is then einsum's
    product of the three entries, added to 0, as the contraction makes it.
    """
    if _finite_diagonals(inv) and _finite_diagonals(conj):
        left = np.einsum("...i,...ij->...ij", np.diagonal(inv, axis1=-2, axis2=-1), op)
        return np.einsum("...ij,...j->...ij", left, np.diagonal(conj, axis1=-2, axis2=-1))
    return np.einsum("...ij,...jk->...ik", np.einsum("...ij,...jk->...ik", inv, op), conj)


def _item_max_abs(a: np.ndarray, item_ndim: int) -> np.ndarray:
    """The largest entry magnitude of each item, the last item_ndim axes; NaN wins."""
    return np.abs(a).max(axis=tuple(range(-item_ndim, 0)))


def _as_reported(residuals: np.ndarray):
    """Per-item residuals: a float for the stack of shape (), else the array."""
    return float(residuals) if residuals.ndim == 0 else residuals


@dataclass(frozen=True)
class ConjugationReport:
    """Residuals of `conjugation_report`: floats for one form, arrays over a stack."""

    su2_residual: float | np.ndarray
    phase_residual: float | np.ndarray
    parity_residual: float | np.ndarray


def conjugation_report(reg: JWRegister, a: np.ndarray, alpha, beta) -> ConjugationReport:
    """Residuals of the three conjugation identities of the register algebra.

    (i)   e^{-X} c_s e^{X} = sum_s' u_{ss'} c_{s'} with X = b'Ab + d'Ad and
          u = e^A, which must be special-unitary (checked, 1e-10);
    (ii)  X = i(alpha b'b + beta d'd) conjugation multiplies b by e^{i alpha}
          and d by e^{i beta};
    (iii) both conjugations fix the parity operator exactly.

    a is a stack (..., 2, 2) and alpha and beta stacks (...) of the same
    shape; each residual is the largest entry magnitude over its
    identity's terms, per item.
    """
    a = np.asarray(a, dtype=np.complex128)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    u = _exp2(a)
    unit = _item_max_abs(u @ np.swapaxes(u.conj(), -1, -2) - np.eye(2), 2)
    if np.any(unit > 1e-10) or np.any(np.abs(_determinant(u) - 1) > 1e-10):
        raise PreconditionError("e^A is not special-unitary; the mixing identity needs u in SU(2)")

    ladders = np.array([[reg.b_minus, reg.b_plus], [reg.d_minus, reg.d_plus]])

    x = quadratic_generator(a, a)[..., None, None, :, :]
    ex, ex_inv = sparse.dense_exponential(np.stack([x, -x]))
    lhs = _conjugate(ex_inv, ladders, ex)
    # u[s, 0] c_0 + u[s, 1] c_1 for each species; u[s, s'] meets entries 0 and +-1 only
    rhs = (u[..., None, :, 0, None, None] * ladders[:, None, 0]
           + u[..., None, :, 1, None, None] * ladders[:, None, 1])
    su2_residual = _item_max_abs(lhs - rhs, 4)

    eye = np.eye(2)
    y = quadratic_generator((1j * alpha)[..., None, None] * eye,
                            (1j * beta)[..., None, None] * eye)[..., None, None, :, :]
    ey, ey_inv = sparse.dense_exponential(np.stack([y, -y]))
    phases = np.stack([np.exp(1j * alpha), np.exp(1j * beta)], axis=-1)[..., None, None, None]
    lhs = _conjugate(ey_inv, ladders, ey)
    phase_residual = _item_max_abs(lhs - phases * ladders, 4)

    parity_residual = np.zeros(a.shape[:-2])
    for conj, inv in ((ex, ex_inv), (ey, ey_inv)):
        moved = _conjugate(inv[..., 0, 0, :, :], reg.parity, conj[..., 0, 0, :, :])
        parity_residual = np.maximum(parity_residual, _item_max_abs(moved - reg.parity, 2))

    return ConjugationReport(_as_reported(su2_residual), _as_reported(phase_residual),
                             _as_reported(parity_residual))
