"""Two-spinor kinematics for massive on-shell momenta, one numpy pass per momentum set.

Conventions, fixed once (see CONVENTIONS.md):

* A momentum set is a float (..., 4) array of rows (E, px, py, pz) with
  one mass m; `on_shell` is its one check, and the lattice builders,
  `from_spatial`, `from_rapidity` and `apply_lorentz` return only what
  passes it.  `dot_point` is the Minkowski product p.x of each row.
* A 2-spinor is a (..., 2) complex128 array of lower-index components; a
  bispinor is a (..., 4) array, the unprimed part over the primed part.
  Every function here on momenta or spinors takes a stack and returns
  stacks with the same leading shape; a single (4,) momentum is the empty
  stack.
* epsilon_{01} = epsilon^{01} = +1; raising a lower index is xi^A =
  eps^{AB} xi_B, numerically EPSILON @ xi; the contraction a_A b^A is
  `contract(a, b)` = a0*b1 - a1*b0 over the last axis.
* Soldering: p_{AA'} = (E*id + p.sigma)/sqrt(2), so det = m^2/2.
* Spin frames are gauged by the reference spinor o = (1,0) with the
  fallback o' = (0,1) when the momentum is nearly aligned with the primary
  null direction; the non-reference component of pi is kept real positive.
* Spin labels: index 0 is spin "minus", index 1 is spin "plus"; the plus
  bispinor carries Pauli-Lubanski projection +1/2 in this convention.

A stack gives each row the bits that row gives alone.  Complex products
that the scalar formulas took between two complex numbers (`contract`) are
formed in real arithmetic, as numpy's scalar complex multiply forms them:
its vectorized multiply fuses multiply-adds and rounds differently.
"""

from __future__ import annotations

import numbers
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


def on_shell(momenta, m: float) -> np.ndarray:
    """momenta as a float (..., 4) array, each row checked on the mass-m shell.

    A row passes when its entries are finite, E > 0 and |E - sqrt(m^2 +
    |p|^2)| <= 1e-12 max(sqrt(m^2 + |p|^2), 1); the mass must be finite and
    nonnegative.  Anything else raises PreconditionError.
    """
    p = np.asarray(momenta, dtype=float)
    if p.shape[-1:] != (4,):
        raise ShapeError(f"momenta must have shape (..., 4), got {p.shape}")
    if not (np.isfinite(m) and m >= 0):
        raise PreconditionError(f"mass must be finite and nonnegative, got {m}")
    # NaN compares False with every bound below, so it is refused first
    infinite = ~np.isfinite(p).all(axis=-1)
    if infinite.any():
        raise PreconditionError(f"momentum off shell: non-finite row {p[infinite][0].tolist()}")
    e = p[..., 0]
    expected = np.sqrt(np.float64(m) ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2 + p[..., 3] ** 2)
    off = (e <= 0) | (np.abs(e - expected) > ON_SHELL_RTOL * np.maximum(expected, 1.0))
    if off.any():
        raise PreconditionError(
            f"momentum off shell: E={e[off].flat[0]}, sqrt(p^2+m^2)={expected[off].flat[0]}"
        )
    return p


def from_spatial(spatial, m: float) -> np.ndarray:
    """On-shell momenta (..., 4) with the spatial parts (..., 3) and E = sqrt(m^2 + |p|^2)."""
    k = np.asarray(spatial, dtype=float)
    if k.shape[-1:] != (3,):
        raise ShapeError(f"spatial momenta must have shape (..., 3), got {k.shape}")
    p = np.empty(k.shape[:-1] + (4,))
    p[..., 0] = np.sqrt(np.float64(m) ** 2 + k[..., 0] ** 2 + k[..., 1] ** 2 + k[..., 2] ** 2)
    p[..., 1:] = k
    return on_shell(p, m)


def from_rapidity(eta, m: float) -> np.ndarray:
    """On-shell momenta (..., 4) along +z with the rapidities eta (...)."""
    eta = np.asarray(eta, dtype=float)
    zero = np.zeros_like(eta)
    return on_shell(np.stack([m * np.cosh(eta), zero, zero, m * np.sinh(eta)], axis=-1), m)


def dot_point(momenta, x) -> np.ndarray:
    """Minkowski product p.x = E x0 - px x1 - py x2 - pz x3 of each row, summed in that order."""
    p = np.asarray(momenta, dtype=float)
    x = np.asarray(x, dtype=float)
    return p[..., 0] * x[0] - p[..., 1] * x[1] - p[..., 2] * x[2] - p[..., 3] * x[3]


def row_norms(v) -> np.ndarray:
    """Euclidean norms over the last axis, each as np.linalg.norm gives it for that one vector.

    np.linalg.norm of one vector takes dot products, sqrt(re.re + im.im), and
    np.vecdot takes the same dot product row by row; np.linalg.norm(v,
    axis=-1) sums |v_k|^2 instead and rounds differently.
    """
    v = np.asarray(v)
    if np.iscomplexobj(v):
        return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    return np.sqrt(np.vecdot(v, v))


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b elementwise, each part formed as numpy's scalar complex multiply forms it."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def contract(a, b) -> np.ndarray:
    """a_A b^A = a0 b1 - a1 b0 over the last axis, for lower-index 2-spinors of one prime type."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return _times(a[..., 0], b[..., 1]) - _times(a[..., 1], b[..., 0])


def point_to_hermitian(x) -> np.ndarray:
    """Soldering x -> x_{AA'} of each (..., 4) row, as (..., 2, 2) Hermitian matrices."""
    x = np.asarray(x, dtype=float)
    t, a, b, c = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    h = np.empty(x.shape[:-1] + (2, 2), dtype=np.complex128)
    h[..., 0, 0] = t + c
    h[..., 0, 1] = a - 1j * b
    h[..., 1, 0] = a + 1j * b
    h[..., 1, 1] = t - c
    return h / np.sqrt(2)


def momentum_to_hermitian(momenta) -> np.ndarray:
    """Soldering p -> p_{AA'} of each row, Hermitian with det m^2/2."""
    return point_to_hermitian(momenta)


def hermitian_to_point(h) -> np.ndarray:
    """The inverse of `point_to_hermitian`, (..., 2, 2) -> (..., 4)."""
    h = np.asarray(h)
    rt2 = np.sqrt(2)
    return np.stack(
        [
            (h[..., 0, 0] + h[..., 1, 1]).real / rt2,
            (h[..., 0, 1] + h[..., 1, 0]).real / rt2,
            (h[..., 1, 0] - h[..., 0, 1]).imag / rt2,
            (h[..., 0, 0] - h[..., 1, 1]).real / rt2,
        ],
        axis=-1,
    )


@dataclass(frozen=True)
class SpinFrame:
    omega: np.ndarray          # (..., 2)
    pi: np.ndarray             # (..., 2)
    used_fallback: np.ndarray  # (...) bool
    m: float


def build_spin_frame(momenta, m: float) -> SpinFrame:
    """Frames (omega, pi) with omega_A pi^A = 1 and p = pi pibar + (m^2/2) om ombar.

    pi_A is proportional to p_{AA'} obar^{A'}; the primary reference o = (1,0)
    gives obar^{A'} = (0,-1).  Near the degenerate direction (|p_{AA'}
    obar^{A'}| < 1e-8 E) the reference switches to o' = (0,1).  Each branch
    is computed on its own rows only.
    """
    if not m > 0:
        raise UnsupportedMassError("spin frames implemented for m > 0 only")
    p = on_shell(momenta, m)
    h = momentum_to_hermitian(p)
    # p_{AA'} obar^{A'} is minus the second column of h
    fallback = row_norms(h[..., :, 1]) < FALLBACK_THRESHOLD * p[..., 0]
    primary = ~fallback
    omega = np.zeros(p.shape[:-1] + (2,), dtype=np.complex128)
    pi = np.zeros_like(omega)
    sq = np.sqrt(h[primary, 1, 1].real)
    pi[primary, 0] = h[primary, 0, 1] / sq
    pi[primary, 1] = sq
    omega[primary, 0] = 1.0 / sq
    sq = np.sqrt(h[fallback, 0, 0].real)
    pi[fallback, 0] = sq
    pi[fallback, 1] = h[fallback, 1, 0] / sq
    omega[fallback, 1] = -1.0 / sq
    return SpinFrame(omega=omega, pi=pi, used_fallback=fallback, m=m)


def eigen_bispinors(frame: SpinFrame) -> tuple[np.ndarray, np.ndarray]:
    """The four sign combinations of the plane-wave solutions.

    Returns (pos, neg), each a (..., 2, 4) array indexed [..., spin, component]:
    pos[+] = (+c om, -pibar), pos[-] = (-pi, -c ombar),
    neg[+] = (-c om, -pibar), neg[-] = (-pi, +c ombar), with c = m/sqrt(2).
    """
    om, pi = frame.omega, frame.pi
    c = frame.m / np.sqrt(2)
    pos = np.stack([np.concatenate([-pi, -c * np.conj(om)], axis=-1),
                    np.concatenate([c * om, -np.conj(pi)], axis=-1)], axis=-2)
    neg = np.stack([np.concatenate([-pi, c * np.conj(om)], axis=-1),
                    np.concatenate([-c * om, -np.conj(pi)], axis=-1)], axis=-2)
    return pos, neg


def dirac_matrix(momenta, m: float, frequency_sign: int) -> np.ndarray:
    """Momentum-space Dirac operators (..., 4, 4); the matching frequency branch is the kernel.

    The plane-wave substitution maps the gradient to -frequency_sign * p,
    leaving mass terms on the diagonal and the soldered momentum (with one
    index raised by epsilon) in the off-diagonal blocks.
    """
    # True == 1 and 1.0 == 1, so the membership test alone would take them
    if isinstance(frequency_sign, bool) or not isinstance(frequency_sign, numbers.Integral) \
            or frequency_sign not in (1, -1):
        raise ShapeError(f"frequency_sign must be the int +1 or -1, got {frequency_sign!r}")
    p = on_shell(momenta, m)
    h = momentum_to_hermitian(p)
    jt = EPSILON.T
    d = np.zeros(p.shape[:-1] + (4, 4), dtype=np.complex128)
    d[..., :2, :2] = (m / np.sqrt(2)) * np.eye(2)
    d[..., 2:, 2:] = (m / np.sqrt(2)) * np.eye(2)
    d[..., :2, 2:] = -frequency_sign * (h @ jt)
    d[..., 2:, :2] = frequency_sign * (np.swapaxes(h, -1, -2) @ jt)
    return d


def dirac_residual(momenta, m: float, psi, frequency_sign: int) -> np.ndarray:
    """|D(p) psi| / |psi| per row; momenta (..., 4) and bispinors (..., 4) broadcast."""
    v = np.asarray(psi, dtype=np.complex128)
    norm = row_norms(v)
    if np.any(norm == 0):
        raise UndefinedResidualError("residual of the zero bispinor is undefined")
    moved = (dirac_matrix(momenta, m, frequency_sign) @ v[..., None])[..., 0]
    return row_norms(moved) / norm


def pauli_lubanski_projection(frame: SpinFrame) -> tuple[np.ndarray, np.ndarray]:
    """Spin projections along the frame direction, unprimed and primed (..., 2, 2) blocks.

    Each block is trace-free and squares to id/4; eigenvalues are +-1/2.
    """
    om, pi = frame.omega, frame.pi
    raised_om = (EPSILON @ om[..., None])[..., 0]
    raised_pi = (EPSILON @ pi[..., None])[..., 0]
    s_unprimed = 0.5 * (pi[..., :, None] * raised_om[..., None, :]
                        + om[..., :, None] * raised_pi[..., None, :])
    s_primed = -np.conj(s_unprimed)
    return s_unprimed, s_primed


def boost_z(eta: float) -> np.ndarray:
    """SL(2,C) element of a boost with rapidity eta along +z."""
    return np.diag([np.exp(eta / 2), np.exp(-eta / 2)]).astype(np.complex128)


def random_sl2c_exponent(rng: Generator) -> np.ndarray:
    """A traceless exponent sum_k c_k sigma_k, each c_k 0.35 times a complex normal draw.

    `exponential` of it is a random SL(2,C) element; draw the exponents of
    many first and exponentiate them as one stack.
    """
    c = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 0.7 / 2
    return c[0] * PAULI[0] + c[1] * PAULI[1] + c[2] * PAULI[2]


def bispinor_rep(lam: np.ndarray) -> np.ndarray:
    """Direct-sum action on (unprimed, primed) lower components."""
    out = np.zeros((4, 4), dtype=np.complex128)
    out[:2, :2] = lam
    out[2:, 2:] = np.conj(lam)
    return out


def apply_lorentz(lam, momenta, m: float) -> np.ndarray:
    """Active transformation p -> Lambda p via the soldered representative, checked on shell.

    lam is one (2, 2) SL(2,C) element or a stack (..., 2, 2) that
    broadcasts against the momenta (..., 4).
    """
    lam = np.asarray(lam, dtype=np.complex128)
    h = lam @ momentum_to_hermitian(momenta) @ np.swapaxes(lam.conj(), -1, -2)
    return on_shell(hermitian_to_point(h), m)


def apply_lorentz_to_point(lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    return hermitian_to_point(lam @ point_to_hermitian(x) @ lam.conj().T)


def wigner_matrix(lam, momenta, m: float) -> np.ndarray:
    """SU(2) mixing of spin labels under the passive boost action, (..., 2, 2).

    Entries are frame contractions between the frame at p and the
    Lambda-transported frame from Lambda^{-1} p; special-unitarity is a
    theorem, not enforced.  lam is one (2, 2) element or a stack (..., 2, 2).
    """
    lam = np.asarray(lam, dtype=np.complex128)
    q = apply_lorentz(np.linalg.inv(lam), momenta, m)
    om_p = build_spin_frame(momenta, m).omega
    frame_q = build_spin_frame(q, m)
    z = contract(om_p, (lam @ frame_q.pi[..., None])[..., 0])
    w = contract(om_p, (lam @ frame_q.omega[..., None])[..., 0])
    c = m / np.sqrt(2)
    u = np.empty(z.shape + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = z
    u[..., 0, 1] = -c * w
    u[..., 1, 0] = c * np.conj(w)
    u[..., 1, 1] = np.conj(z)
    return u


def exponential(a: np.ndarray) -> np.ndarray:
    """e^A of each 2x2 matrix of a stack (..., 2, 2), in closed form.

    With c = tr A / 2 and B = A - c id, B^2 = s^2 id for s^2 = B00^2 + B01 B10,
    so

        e^A = e^c (cosh s id + sinh(s) / s B),

    which at s = 0 is e^c (id + B); either root s gives the same value.  A
    diagonal A takes the exponential of each entry.  The result is accurate
    normwise; for large |Re s| the terms cosh s and sinh s nearly cancel in
    an entry that is small next to the norm.  Each matrix takes its own
    branch and has the bits it has alone: the scalar products of s^2 are
    `_times`, and each product of a scalar with a 2x2 matrix broadcasts, so
    numpy's array multiply runs on that matrix's four entries with the
    scalar as a stride-0 operand, as `scalar * matrix` runs it.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-2:] != (2, 2):
        raise ShapeError(f"exponential needs a 2x2 matrix, got shape {a.shape}")
    stack = a.reshape(-1, 2, 2)
    out = np.zeros_like(stack)
    diagonal = (stack[:, 0, 1] == 0) & (stack[:, 1, 0] == 0)
    out[diagonal, 0, 0] = np.exp(stack[diagonal, 0, 0])
    out[diagonal, 1, 1] = np.exp(stack[diagonal, 1, 1])
    rest = np.flatnonzero(~diagonal)
    g = stack[rest]
    c = (g[:, 0, 0] + g[:, 1, 1]) / 2
    b = g - c[:, None, None] * np.eye(2)
    s = np.sqrt(_times(b[:, 0, 0], b[:, 0, 0]) + _times(b[:, 0, 1], b[:, 1, 0]))
    nilpotent = s == 0
    inner = np.empty_like(b)
    inner[nilpotent] = np.eye(2) + b[nilpotent]
    t = s[~nilpotent, None, None]
    inner[~nilpotent] = np.cosh(t) * np.eye(2) + np.sinh(t) / t * b[~nilpotent]
    out[rest] = np.exp(c)[:, None, None] * inner
    return out.reshape(a.shape)


def classical_solution(lattice, f: np.ndarray, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Discretized plane-wave synthesis of the classical field at point x.

    psi(x) = sum_i w_i sum_s [ phi_pos[s](p_i) f(i,s) e^{-i p.x}
                               + phi_neg[s](p_i) conj(g(i,-s)) e^{+i p.x} ],
    summed as a running sum over the modes in ascending order, spin minus
    before plus.
    """
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    n = lattice.size
    if f.shape != (n, 2) or g.shape != (n, 2):
        raise ShapeError(f"amplitude tables must have shape ({n}, 2)")
    pos, neg = eigen_bispinors(build_spin_frame(lattice.momenta, lattice.m))
    phase = np.exp(-1j * dot_point(lattice.momenta, x))[:, None, None]
    terms = lattice.weights[:, None, None] * (
        pos * f[:, :, None] * phase + neg * np.conj(g[:, ::-1])[:, :, None] * np.conj(phase)
    )
    return np.cumsum(terms.reshape(-1, 4), axis=0)[-1]
