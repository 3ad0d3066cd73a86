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
still builds a fresh, writable register.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import sparse
from .errors import PreconditionError
from .sparse import worst_of
from .spinors import exponential

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

for _array in (*vars(REGISTER).values(), OCCUPATION):
    _array.flags.writeable = False


def _exp2(a: np.ndarray) -> np.ndarray:
    """e^A of a 2x2 form by the closed form `spinors.exponential`."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (2, 2):
        raise PreconditionError(f"quadratic form must be 2x2, got {a.shape}")
    return exponential(a)


def pair_unitary(u_b: np.ndarray, u_d: np.ndarray) -> np.ndarray:
    """Gamma(u_b) Gamma(u_d), the register operator of per-species 2x2 mixings.

    For unitary u, Gamma(u)' c_s Gamma(u) = sum_s' u[s, s'] c_s' on its
    species.  Gamma preserves particle number per species, so it factorizes
    over the b-pair and d-pair subspaces, which commute.  On one pair, in
    the basis (ee, eg, ge, gg), the doubly-excited amplitude picks up det u,
    the one-particle block is u in spin order (-, +), and the empty sector
    is fixed.  The kron of the two blocks is an einsum: numpy's complex
    multiply may fuse a multiply-add, einsum's does not.
    """
    blocks = []
    for u in (u_b, u_d):
        block = np.zeros((4, 4), dtype=np.complex128)
        block[0, 0] = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        block[1:3, 1:3] = u
        block[3, 3] = 1.0
        blocks.append(block)
    return np.einsum("ij,kl->ikjl", *blocks).reshape(REGISTER_DIM, REGISTER_DIM)


def pair_exponential(a_b: np.ndarray, a_d: np.ndarray) -> np.ndarray:
    """exp(b'(a_b)b + d'(a_d)d), the `pair_unitary` of e^(a_b) and e^(a_d).

    Each e^A comes from the closed 2x2 form of `_exp2`, so a check against
    `sparse.dense_exponential` of the 16x16 generator compares two
    independent algorithms.
    """
    return pair_unitary(_exp2(a_b), _exp2(a_d))


def quadratic_generator(reg: JWRegister, a_b: np.ndarray, a_d: np.ndarray) -> np.ndarray:
    """The quadratic form b'(a_b)b + d'(a_d)d as an explicit 16x16 matrix.

    Each c_s' c_t has entries 0 and +-1, so every product is exact.
    """
    bs = [reg.b_minus, reg.b_plus]
    ds = [reg.d_minus, reg.d_plus]
    out = np.zeros((REGISTER_DIM, REGISTER_DIM), dtype=np.complex128)
    for s in range(2):
        for t in range(2):
            out = out + a_b[s, t] * (bs[s].conj().T @ bs[t])
            out = out + a_d[s, t] * (ds[s].conj().T @ ds[t])
    # the one floor on stored entries: a traceless form made traceless in
    # floats, a - tr(a)/2, leaves a_00 + a_11 of order 1e-17 on the doubly
    # occupied states; dropping it keeps the exact form's zero there
    out[np.abs(out) < 1e-14] = 0
    return out


def _conjugate(inv: np.ndarray, op: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """inv @ op @ conj, left to right, each entry summed in index order with einsum."""
    return np.einsum("ij,jk->ik", np.einsum("ij,jk->ik", inv, op), conj)


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
    ex = sparse.dense_exponential(x)
    ex_inv = sparse.dense_exponential(-x)
    su2_residual = 0.0
    for ladders in ([reg.b_minus, reg.b_plus], [reg.d_minus, reg.d_plus]):
        for s in range(2):
            lhs = _conjugate(ex_inv, ladders[s], ex)
            rhs = u[s, 0] * ladders[0] + u[s, 1] * ladders[1]
            su2_residual = worst_of(su2_residual, sparse.max_abs(lhs - rhs))

    y = quadratic_generator(reg, 1j * alpha * np.eye(2), 1j * beta * np.eye(2))
    ey = sparse.dense_exponential(y)
    ey_inv = sparse.dense_exponential(-y)
    phase_residual = 0.0
    for ladder, phase in (
        (reg.b_minus, np.exp(1j * alpha)),
        (reg.b_plus, np.exp(1j * alpha)),
        (reg.d_minus, np.exp(1j * beta)),
        (reg.d_plus, np.exp(1j * beta)),
    ):
        lhs = _conjugate(ey_inv, ladder, ey)
        phase_residual = worst_of(phase_residual, sparse.max_abs(lhs - phase * ladder))

    parity_residual = 0.0
    for conj, inv in ((ex, ex_inv), (ey, ey_inv)):
        parity_residual = worst_of(
            parity_residual, sparse.max_abs(_conjugate(inv, reg.parity, conj) - reg.parity)
        )

    return ConjugationReport(su2_residual, phase_residual, parity_residual)
