"""Four-mode fermionic register in a Jordan-Wigner realization.

One register factor carries the four ladder operators b-, b+, d-, d+ as
16x16 matrices.  Each 2-dim tensor factor is ordered (excited, ground), so
the register vacuum is the last basis vector, index 15.  The grading
operator ``parity`` (a sigma3 string over all four factors) anticommutes
with every ladder operator and fixes the vacuum; it is the twist inserted
by the N-oscillator extension.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import sparse
from .errors import PreconditionError
from .sparse import SparseOperator, worst_of

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
SIGMA_MINUS = (SIGMA1 - 1j * SIGMA2) / 2  # lowers excited -> ground
ID2 = np.eye(2, dtype=np.complex128)

REGISTER_DIM = 16
VACUUM_INDEX = 15

SPIN_MINUS = 0
SPIN_PLUS = 1
SPECIES = ("b", "d")


@dataclass(frozen=True)
class JWRegister:
    b_minus: SparseOperator
    b_plus: SparseOperator
    d_minus: SparseOperator
    d_plus: SparseOperator
    identity: SparseOperator
    parity: SparseOperator
    vacuum: np.ndarray

    def ladder(self, species: str, spin: int) -> SparseOperator:
        """Annihilator for the given species ('b' or 'd') and spin (0: -, 1: +)."""
        table = {
            ("b", SPIN_MINUS): self.b_minus,
            ("b", SPIN_PLUS): self.b_plus,
            ("d", SPIN_MINUS): self.d_minus,
            ("d", SPIN_PLUS): self.d_plus,
        }
        return table[(species, spin)]

    def annihilators(self) -> list[SparseOperator]:
        return [self.b_minus, self.b_plus, self.d_minus, self.d_plus]


def _chain(*factors: np.ndarray) -> SparseOperator:
    return sparse.asoperator(functools.reduce(np.kron, factors))


def build_register() -> JWRegister:
    b_minus = _chain(SIGMA_MINUS, ID2, ID2, ID2)
    b_plus = -_chain(SIGMA3, SIGMA_MINUS, ID2, ID2)
    d_minus = _chain(SIGMA3, SIGMA3, SIGMA_MINUS, ID2)
    d_plus = -_chain(SIGMA3, SIGMA3, SIGMA3, SIGMA_MINUS)
    parity = _chain(SIGMA3, SIGMA3, SIGMA3, SIGMA3)
    vacuum = sparse.basis_state(REGISTER_DIM, VACUUM_INDEX)
    return JWRegister(
        b_minus=b_minus,
        b_plus=b_plus,
        d_minus=d_minus,
        d_plus=d_plus,
        identity=sparse.identity(REGISTER_DIM),
        parity=parity,
        vacuum=vacuum,
    )


def number_operator(reg: JWRegister, species: str) -> SparseOperator:
    """Sum over spins of ladder-dagger times ladder for one species."""
    ops = [reg.ladder(species, s) for s in (SPIN_MINUS, SPIN_PLUS)]
    out = sparse.zeros(REGISTER_DIM)
    for a in ops:
        out = out + sparse.adjoint(a) @ a
    return sparse.prune(out)


def _pair_block(b: np.ndarray) -> np.ndarray:
    """4x4 action of exp(a' A a) on one species pair, basis (ee, eg, ge, gg).

    The doubly-excited amplitude picks up det B, the one-particle block is B
    itself in spin order (-, +), and the empty sector is fixed.
    """
    out = np.zeros((4, 4), dtype=np.complex128)
    out[0, 0] = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    out[1:3, 1:3] = b
    out[3, 3] = 1.0
    return out


def pair_exponential(a_b: np.ndarray, a_d: np.ndarray) -> SparseOperator:
    """exp(b'(a_b)b + d'(a_d)d) assembled from the closed block form.

    Quadratic forms preserve particle number per species, so the exponential
    factorizes over the b-pair and d-pair subspaces and only needs B = e^A
    per species.  The two factors commute.
    """
    return sparse.asoperator(_pair_product(a_b, a_d))


def quadratic_exponential(a: np.ndarray) -> np.ndarray:
    """exp(b'Ab + d'Ad) with the same 2x2 form A for both species, as a dense 16x16 block."""
    return _pair_product(a, a)


def _pair_product(a_b: np.ndarray, a_d: np.ndarray) -> np.ndarray:
    """kron of the pruned b-pair and d-pair blocks: the two commuting factors' product.

    einsum rather than np.kron: numpy's complex multiply may fuse a
    multiply-add, einsum's does not, and neither does the CSR product.
    """
    block_b = sparse.prune_array(_pair_block(_exp2(a_b)))
    block_d = sparse.prune_array(_pair_block(_exp2(a_d)))
    return np.einsum("ij,kl->ikjl", block_b, block_d).reshape(REGISTER_DIM, REGISTER_DIM)


def _exp2(a: np.ndarray) -> np.ndarray:
    """e^A of a 2x2 form, with entries below DROP_TOL dropped before and after."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (2, 2):
        raise PreconditionError(f"quadratic form must be 2x2, got {a.shape}")
    return sparse.dense_exponential(sparse.prune_array(a))


def quadratic_generator(reg: JWRegister, a_b: np.ndarray, a_d: np.ndarray) -> SparseOperator:
    """The quadratic form b'(a_b)b + d'(a_d)d as an explicit 16x16 matrix.

    Summed densely in the CSR sum's term order: each c_s' c_t has entries
    0 and +-1, so every product and sum rounds as the CSR arithmetic does.
    """
    bs = [reg.b_minus.toarray(), reg.b_plus.toarray()]
    ds = [reg.d_minus.toarray(), reg.d_plus.toarray()]
    out = np.zeros((REGISTER_DIM, REGISTER_DIM), dtype=np.complex128)
    for s in range(2):
        for t in range(2):
            out = out + a_b[s, t] * (bs[s].conj().T @ bs[t])
            out = out + a_d[s, t] * (ds[s].conj().T @ ds[t])
    return sparse.asoperator(out)


@dataclass(frozen=True)
class ConjugationReport:
    su2_residual: float
    phase_residual: float
    parity_residual: float


def conjugation_report(reg: JWRegister, a: np.ndarray, alpha: float, beta: float) -> ConjugationReport:
    """Residuals of the three conjugation identities of the register algebra.

    (i)   e^{-X} c_s e^{X} = sum_s' u_{ss'} c_{s'} with X = b'Ab + d'Ad and
          u = e^A, which must be special-unitary (checked, 1e-10);
    (ii)  X = i(alpha b'b + beta d'd) conjugation multiplies b by e^{i alpha}
          and d by e^{i beta};
    (iii) both conjugations fix the parity operator exactly.
    """
    a = np.asarray(a, dtype=np.complex128)
    u = _exp2(a)
    unit = sparse.max_abs(u @ u.conj().T - np.eye(2))
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    if unit > 1e-10 or abs(det - 1) > 1e-10:
        raise PreconditionError("e^A is not special-unitary; the mixing identity needs u in SU(2)")

    x = quadratic_generator(reg, a, a)
    ex = sparse.matrix_exponential(x)
    ex_inv = sparse.matrix_exponential(-x)
    su2_residual = 0.0
    for ladders in ([reg.b_minus, reg.b_plus], [reg.d_minus, reg.d_plus]):
        for s in range(2):
            lhs = ex_inv @ ladders[s] @ ex
            rhs = u[s, 0] * ladders[0] + u[s, 1] * ladders[1]
            su2_residual = worst_of(su2_residual, sparse.max_abs(lhs - rhs))

    y = quadratic_generator(reg, 1j * alpha * np.eye(2), 1j * beta * np.eye(2))
    ey = sparse.matrix_exponential(y)
    ey_inv = sparse.matrix_exponential(-y)
    phase_residual = 0.0
    for ladder, phase in (
        (reg.b_minus, np.exp(1j * alpha)),
        (reg.b_plus, np.exp(1j * alpha)),
        (reg.d_minus, np.exp(1j * beta)),
        (reg.d_plus, np.exp(1j * beta)),
    ):
        lhs = ey_inv @ ladder @ ey
        phase_residual = worst_of(phase_residual, sparse.max_abs(lhs - phase * ladder))

    parity_residual = 0.0
    for conj in (ex, ey):
        inv = ex_inv if conj is ex else ey_inv
        parity_residual = worst_of(
            parity_residual, sparse.max_abs(inv @ reg.parity @ conj - reg.parity)
        )

    return ConjugationReport(su2_residual, phase_residual, parity_residual)
