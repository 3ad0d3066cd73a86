"""Two-spinor kinematics for massive on-shell momenta.

Conventions, fixed once (see CONVENTIONS.md):

* A 2-spinor is a (2,) complex128 array of lower-index components; a
  bispinor is a (4,) array, the unprimed part over the primed part.
* epsilon_{01} = epsilon^{01} = +1; raising a lower index is xi^A =
  eps^{AB} xi_B, numerically EPSILON @ xi; the contraction a_A b^A is
  `contract(a, b)` = a0*b1 - a1*b0.
* Soldering: p_{AA'} = (E*id + p.sigma)/sqrt(2), so det = m^2/2.
* Spin frames are gauged by the reference spinor o = (1,0) with the
  fallback o' = (0,1) when the momentum is nearly aligned with the primary
  null direction; the non-reference component of pi is kept real positive.
* Spin labels: index 0 is spin "minus", index 1 is spin "plus"; the plus
  bispinor carries Pauli-Lubanski projection +1/2 in this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .draws import Generator
from .errors import PreconditionError, ShapeError, UndefinedResidualError, UnsupportedMassError

EPSILON = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

ON_SHELL_RTOL = 1e-12
FALLBACK_THRESHOLD = 1e-8
SPIN_MINUS = 0
SPIN_PLUS = 1


@dataclass(frozen=True)
class FourMomentum:
    E: float
    px: float
    py: float
    pz: float
    m: float

    def __post_init__(self):
        if self.m < 0:
            raise PreconditionError(f"mass must be nonnegative, got {self.m}")
        expected = np.sqrt(self.m**2 + self.px**2 + self.py**2 + self.pz**2)
        if self.E <= 0 or abs(self.E - expected) > ON_SHELL_RTOL * max(expected, 1.0):
            raise PreconditionError(
                f"momentum off shell: E={self.E}, sqrt(p^2+m^2)={expected}"
            )

    @classmethod
    def from_spatial(cls, px: float, py: float, pz: float, m: float) -> "FourMomentum":
        return cls(E=float(np.sqrt(m**2 + px**2 + py**2 + pz**2)), px=px, py=py, pz=pz, m=m)

    @classmethod
    def from_rapidity(cls, eta: float, m: float) -> "FourMomentum":
        """On-shell momentum along +z with rapidity eta."""
        return cls(E=m * float(np.cosh(eta)), px=0.0, py=0.0, pz=m * float(np.sinh(eta)), m=m)

    def spatial(self) -> np.ndarray:
        return np.array([self.px, self.py, self.pz])

    def as_vector(self) -> np.ndarray:
        return np.array([self.E, self.px, self.py, self.pz])

    def dot_point(self, x: np.ndarray) -> float:
        """Minkowski product p.x with signature (+,-,-,-)."""
        return float(self.E * x[0] - self.px * x[1] - self.py * x[2] - self.pz * x[3])


def contract(a: np.ndarray, b: np.ndarray) -> complex:
    """a_A b^A = a0 b1 - a1 b0 for two lower-index 2-spinors of one prime type."""
    return a[0] * b[1] - a[1] * b[0]


def momentum_to_hermitian(p: FourMomentum) -> np.ndarray:
    """Soldering p -> p_{AA'}, Hermitian with det m^2/2."""
    return point_to_hermitian(p.as_vector())


def point_to_hermitian(x: np.ndarray) -> np.ndarray:
    t, a, b, c = (float(v) for v in x)
    return np.array(
        [[t + c, a - 1j * b], [a + 1j * b, t - c]], dtype=np.complex128
    ) / np.sqrt(2)


def hermitian_to_point(m: np.ndarray) -> np.ndarray:
    rt2 = np.sqrt(2)
    return np.array(
        [
            (m[0, 0] + m[1, 1]).real / rt2,
            (m[0, 1] + m[1, 0]).real / rt2,
            (m[1, 0] - m[0, 1]).imag / rt2,
            (m[0, 0] - m[1, 1]).real / rt2,
        ]
    )


def hermitian_to_momentum(m: np.ndarray, mass: float) -> FourMomentum:
    v = hermitian_to_point(m)
    return FourMomentum(E=float(v[0]), px=float(v[1]), py=float(v[2]), pz=float(v[3]), m=mass)


@dataclass(frozen=True)
class SpinFrame:
    omega: np.ndarray
    pi: np.ndarray
    momentum: FourMomentum
    used_fallback: bool


def build_spin_frame(p: FourMomentum) -> SpinFrame:
    """Frame (omega, pi) with omega_A pi^A = 1 and p = pi pibar + (m^2/2) om ombar.

    pi_A is proportional to p_{AA'} obar^{A'}; the primary reference o = (1,0)
    gives obar^{A'} = (0,-1).  Near the degenerate direction (|p_{AA'}
    obar^{A'}| < 1e-8 E) the reference switches to o' = (0,1).
    """
    if p.m <= 0:
        raise UnsupportedMassError("spin frames implemented for m > 0 only")
    m = momentum_to_hermitian(p)
    t = m @ np.array([0.0, -1.0])
    if np.linalg.norm(t) < FALLBACK_THRESHOLD * p.E:
        sq = np.sqrt(m[0, 0].real)
        pi = np.array([sq, m[1, 0] / sq])
        om = np.array([0.0, -1.0 / sq])
        fallback = True
    else:
        sq = np.sqrt(m[1, 1].real)
        pi = np.array([m[0, 1] / sq, sq])
        om = np.array([1.0 / sq, 0.0])
        fallback = False
    return SpinFrame(
        omega=om.astype(np.complex128),
        pi=pi.astype(np.complex128),
        momentum=p,
        used_fallback=fallback,
    )


def eigen_bispinors(frame: SpinFrame) -> tuple[np.ndarray, np.ndarray]:
    """The four sign combinations of the plane-wave solutions.

    Returns (pos, neg), each a (2, 4) array indexed [spin, component]:
    pos[+] = (+c om, -pibar), pos[-] = (-pi, -c ombar),
    neg[+] = (-c om, -pibar), neg[-] = (-pi, +c ombar), with c = m/sqrt(2).
    """
    om, pi = frame.omega, frame.pi
    c = frame.momentum.m / np.sqrt(2)
    pos = np.array([np.concatenate([-pi, -c * np.conj(om)]),
                    np.concatenate([c * om, -np.conj(pi)])])
    neg = np.array([np.concatenate([-pi, c * np.conj(om)]),
                    np.concatenate([-c * om, -np.conj(pi)])])
    return pos, neg


def dirac_matrix(p: FourMomentum, frequency_sign: int) -> np.ndarray:
    """Momentum-space Dirac operator; the matching frequency branch is its kernel.

    The plane-wave substitution maps the gradient to -frequency_sign * p,
    leaving mass terms on the diagonal and the soldered momentum (with one
    index raised by epsilon) in the off-diagonal blocks.
    """
    if frequency_sign not in (1, -1):
        raise ShapeError(f"frequency_sign must be +-1, got {frequency_sign}")
    m = momentum_to_hermitian(p)
    jt = EPSILON.T
    d = np.zeros((4, 4), dtype=np.complex128)
    d[:2, :2] = (p.m / np.sqrt(2)) * np.eye(2)
    d[2:, 2:] = (p.m / np.sqrt(2)) * np.eye(2)
    d[:2, 2:] = -frequency_sign * (m @ jt)
    d[2:, :2] = frequency_sign * (m.T @ jt)
    return d


def dirac_residual(p: FourMomentum, psi: np.ndarray, frequency_sign: int) -> float:
    v = np.asarray(psi, dtype=np.complex128)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise UndefinedResidualError("residual of the zero bispinor is undefined")
    return float(np.linalg.norm(dirac_matrix(p, frequency_sign) @ v) / norm)


def pauli_lubanski_projection(frame: SpinFrame) -> tuple[np.ndarray, np.ndarray]:
    """Spin projections along the frame direction, unprimed and primed blocks.

    Each block is trace-free and squares to id/4; eigenvalues are +-1/2.
    """
    om, pi = frame.omega, frame.pi
    s_unprimed = 0.5 * (np.outer(pi, EPSILON @ om) + np.outer(om, EPSILON @ pi))
    s_primed = -np.conj(s_unprimed)
    return s_unprimed, s_primed


def boost_z(eta: float) -> np.ndarray:
    """SL(2,C) element of a boost with rapidity eta along +z."""
    return np.diag([np.exp(eta / 2), np.exp(-eta / 2)]).astype(np.complex128)


def random_sl2c(rng: Generator) -> np.ndarray:
    c = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 0.7 / 2
    return exponential(c[0] * PAULI[0] + c[1] * PAULI[1] + c[2] * PAULI[2])


def bispinor_rep(lam: np.ndarray) -> np.ndarray:
    """Direct-sum action on (unprimed, primed) lower components."""
    out = np.zeros((4, 4), dtype=np.complex128)
    out[:2, :2] = lam
    out[2:, 2:] = np.conj(lam)
    return out


def apply_lorentz(lam: np.ndarray, p: FourMomentum) -> FourMomentum:
    """Active transformation p -> Lambda p via the soldered representative."""
    m = lam @ momentum_to_hermitian(p) @ lam.conj().T
    return hermitian_to_momentum(m, p.m)


def apply_lorentz_to_point(lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    return hermitian_to_point(lam @ point_to_hermitian(x) @ lam.conj().T)


def wigner_matrix(lam: np.ndarray, p: FourMomentum) -> np.ndarray:
    """SU(2) mixing of spin labels under the passive boost action.

    Entries are frame contractions between the frame at p and the
    Lambda-transported frame from Lambda^{-1} p; special-unitarity is a
    theorem, not enforced.
    """
    lam_inv = np.linalg.inv(lam)
    q = apply_lorentz(lam_inv, p)
    om_p = build_spin_frame(p).omega
    frame_q = build_spin_frame(q)
    z = contract(om_p, lam @ frame_q.pi)
    w = contract(om_p, lam @ frame_q.omega)
    c = p.m / np.sqrt(2)
    return np.array([[z, -c * w], [c * np.conj(w), np.conj(z)]])


def exponential(a: np.ndarray) -> np.ndarray:
    """e^A of a 2x2 matrix in closed form.

    With c = tr A / 2 and B = A - c id, B^2 = s^2 id for s^2 = B00^2 + B01 B10,
    so

        e^A = e^c (cosh s id + sinh(s) / s B),

    which at s = 0 is e^c (id + B); either root s gives the same value.  A
    diagonal A takes the exponential of each entry.  The result is accurate
    normwise; for large |Re s| the terms cosh s and sinh s nearly cancel in
    an entry that is small next to the norm.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (2, 2):
        raise ShapeError(f"exponential needs a 2x2 matrix, got shape {a.shape}")
    if a[0, 1] == 0 and a[1, 0] == 0:
        return np.diag(np.exp(np.diag(a)))
    c = (a[0, 0] + a[1, 1]) / 2
    b = a - c * np.eye(2)
    s = np.sqrt(b[0, 0] ** 2 + b[0, 1] * b[1, 0])
    if s == 0:
        return np.exp(c) * (np.eye(2) + b)
    return np.exp(c) * (np.cosh(s) * np.eye(2) + np.sinh(s) / s * b)


def classical_solution(lattice, f: np.ndarray, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Discretized plane-wave synthesis of the classical field at point x.

    psi(x) = sum_i w_i sum_s [ phi_pos[s](p_i) f(i,s) e^{-i p.x}
                               + phi_neg[s](p_i) conj(g(i,-s)) e^{+i p.x} ].
    """
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    n = len(lattice.points)
    if f.shape != (n, 2) or g.shape != (n, 2):
        raise ShapeError(f"amplitude tables must have shape ({n}, 2)")
    out = np.zeros(4, dtype=np.complex128)
    for i, p in enumerate(lattice.points):
        pos, neg = eigen_bispinors(build_spin_frame(p))
        phase = np.exp(-1j * p.dot_point(x))
        for s in (SPIN_MINUS, SPIN_PLUS):
            out = out + lattice.weights[i] * (
                pos[s] * f[i, s] * phase
                + neg[s] * np.conj(g[i, 1 - s]) * np.conj(phase)
            )
    return out
