"""Poincare, gauge, and spin structure on the single-oscillator space.

Conventions fixed here:

* Noether generators carry lower Lorentz indices, so the four-momentum
  components are (E, -px, -py, -pz) per mode, and contraction with an
  upper-index displacement y gives y.p in the (+,-,-,-) signature.
* P, Q and S3 are mode-diagonal, with register diagonals n_b + n_d - 2,
  n_b - n_d + 2 and (n_plus - n_minus) / 2 from `register.OCCUPATION`.
  exp(i y.P) has per-register phase exp(i theta_i (occ - 2)), occ the
  number of excited register factors; the -2 offset of the unordered
  (non-normally-ordered) generator makes the vacuum pick up phases.
* Boosts along z act on rapidity lattices by an index shift j -> j + k
  composed with per-mode spin mixing; columns shifted off the lattice are
  dropped, so the unitary is an isometry only on the modes that stay on
  it and covariant only on the interior; both are `modes.shift_range` slices.

Everything here stays at the single-oscillator level (dimension 16 M), as
mode-block operators built once per check; a linear combination of them is
one sum of their stacks.  The N-fold extension rules live in the oscillator
module: unitaries extend as tensor powers, generators as untwisted sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sparse
from .errors import ConfigError, PreconditionError
from .modes import (
    RAPIDITY_1D,
    ModeBlocks,
    MomentumLattice,
    SingleOscillatorSpace,
    VacuumProfile,
    field_operator,
    mode_blocks,
    mode_sum,
    shift_range,
    vacuum_vector,
)
from .noscillator import NRegister, apply_extension, vacuum_state
from .register import OCCUPATION, REGISTER, REGISTER_DIM, VACUUM_INDEX, creator, pair_unitary
from .sparse import worst_of
from .spinors import (
    apply_lorentz_to_point,
    bispinor_rep,
    boost_z,
    dot_point,
    wigner_matrix,
)


def _charge() -> np.ndarray:
    """The register diagonal of n_b - n_d, as an int vector."""
    b_minus, b_plus, d_minus, d_plus = OCCUPATION
    return b_minus + b_plus - d_minus - d_plus


def _momentum_component(coeffs: np.ndarray) -> ModeBlocks:
    """sum_i coeffs[i] |i><i| x (n_b + n_d - 2), coeffs the (M,) components p_{i,a}."""
    return mode_blocks(coeffs[:, None], [np.diag(OCCUPATION.sum(axis=0) - 2)])


def four_momentum(space: SingleOscillatorSpace) -> list[ModeBlocks]:
    """Lower-index components P_a = sum_i p_{i,a} |i><i| x (n_b + n_d - 2)."""
    momenta = space.lattice.momenta
    coeffs = np.hstack([momenta[:, :1], -momenta[:, 1:]])
    return [_momentum_component(coeffs[:, a]) for a in range(4)]


def translation_unitary(space: SingleOscillatorSpace, y: np.ndarray) -> ModeBlocks:
    """exp(i y.P), assembled directly from its diagonal phases."""
    y = np.asarray(y, dtype=float)
    if y.shape != (4,):
        raise ConfigError(f"displacement must be a 4-vector, got shape {y.shape}")
    thetas = dot_point(space.lattice.momenta, y)
    occ = OCCUPATION.sum(axis=0)
    return ModeBlocks.diagonal(np.exp(1j * np.outer(thetas, occ - 2)))


@dataclass(frozen=True)
class BoostData:
    """z-boost on a rapidity lattice: shift by `steps` with spin mixing."""

    steps: int
    sl2c: np.ndarray          # 2x2 SL(2,C) element
    wigner: np.ndarray        # (modes, 2, 2) per-mode mixing matrices
    unitary: ModeBlocks       # mixing times shift, boundary columns dropped


def boost_unitary(space: SingleOscillatorSpace, steps: int) -> BoostData:
    lattice = space.lattice
    if lattice.mode != RAPIDITY_1D:
        raise PreconditionError("boost steps are only defined on rapidity lattices")
    lam = boost_z(steps * lattice.delta_eta)
    wigner = wigner_matrix(lam, lattice.momenta, lattice.m)
    return BoostData(steps, lam, wigner, ModeBlocks(pair_unitary(wigner, wigner), steps))


def interior_range(modes: int, steps: int) -> tuple[int, int]:
    """The interior |j| <= J - |k| of a boost by k steps, as the slice [|k|, M - |k|).

    The overlap of shift_range(M, k) and shift_range(M, -k): the modes that
    come from the lattice and stay on it, where boundary effects cannot reach.
    """
    lo = shift_range(modes, abs(steps))[0]
    return lo, max(shift_range(modes, -abs(steps))[1], lo)


def _nonempty_interior(modes: int, steps: int) -> tuple[int, int]:
    """interior_range, refused when empty: a residual over no modes would read 0.0."""
    lo, hi = interior_range(modes, steps)
    if lo == hi:
        raise PreconditionError(f"a boost by {steps} steps leaves no interior on {modes} modes")
    return lo, hi


def poincare_unitary(space: SingleOscillatorSpace, boost: BoostData,
                     y: np.ndarray) -> ModeBlocks:
    """U_{Lambda,y} = U_{1,y} U_{Lambda,0}."""
    return translation_unitary(space, y) @ boost.unitary


def boost_mode_residual(space: SingleOscillatorSpace, boost: BoostData) -> float:
    """Residual of U' c(p_j, s) U = sum_s' u_j[s,s'] c(p_{j-k}, s') over valid j.

    All valid j at once: U' c(p_j, s) U is the block of mode j - k, so one
    block product per (species, s) holds every mode's left-hand side.
    """
    m = space.lattice.size
    k = boost.steps
    u = boost.unitary
    u_dag = u.adjoint()
    lo, hi = shift_range(m, k)
    # per source mode j - k, the mixing row of mode j
    mix = np.zeros((m, 2, 2), dtype=np.complex128)
    mix[lo - k:hi - k] = boost.wigner[lo:hi]
    worst = 0.0
    for species in ("b", "d"):
        ladders = [REGISTER.ladder(species, sp) for sp in (0, 1)]
        targets = [mode_sum(space, ladder, (lo - k, hi - k)).stack for ladder in ladders]
        for s in (0, 1):
            lhs = u_dag @ mode_sum(space, ladders[s], (lo, hi)) @ u
            rhs = ModeBlocks(mix[:, s, 0, None, None] * targets[0]
                             + mix[:, s, 1, None, None] * targets[1])
            worst = worst_of(worst, (lhs - rhs).max_abs())
    return worst


def grading_invariance_residual(space: SingleOscillatorSpace, boost: BoostData,
                                y: np.ndarray) -> float:
    """The grading commutes with Poincare maps away from the boundary (an empty one raises)."""
    lo, hi = _nonempty_interior(space.lattice.size, boost.steps)
    u = poincare_unitary(space, boost, y)
    parity = space.parity()
    diff = u.adjoint() @ parity @ u - parity
    return sparse.max_abs(diff.stack[lo:hi])


def field_covariance_residual(space: SingleOscillatorSpace, boost: BoostData,
                              y: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Residuals of U' Psi_a(x) U = sum_b S[a,b] Psi_b(L^-1 (x - y)), interior part.

    The pair (field, conjugate field), from one Poincare unitary.  S is the
    direct-sum bispinor action of the boost; the difference is read on the
    interior blocks only, because modes within `steps` of the lattice edge
    are shifted off and carry no covariance statement; an empty interior
    (|k| > J) raises PreconditionError.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    lo, hi = _nonempty_interior(space.lattice.size, boost.steps)
    u = poincare_unitary(space, boost, y)
    u_dag = u.adjoint()
    s4 = bispinor_rep(boost.sl2c)
    x_back = apply_lorentz_to_point(np.linalg.inv(boost.sl2c), x - y)
    residuals = []
    for conjugate in (False, True):
        backs = [field_operator(space, x_back, b, conjugate=conjugate).stack for b in range(4)]
        worst = 0.0
        for a in range(4):
            lhs = u_dag @ field_operator(space, x, a, conjugate=conjugate) @ u
            # one stack sum; Python's sum adds the terms to 0 in the order of b
            rhs = sum(backs[b] * s4[a, b] for b in range(4) if s4[a, b] != 0)
            worst = worst_of(worst, sparse.max_abs(lhs.stack[lo:hi] - rhs[lo:hi]))
        residuals.append(worst)
    return residuals[0], residuals[1]


# ---------------------------------------------------------------------------
# internal symmetries


def charge_operator(space: SingleOscillatorSpace, e0: float = 1.0) -> ModeBlocks:
    """Q = e0 sum_i |i><i| x (n_b - n_d + 2); the offset is central."""
    return mode_blocks(np.full((space.lattice.size, 1), e0), [np.diag(_charge() + 2)])


def gauge_unitary(space: SingleOscillatorSpace, e0: float, phi: float) -> ModeBlocks:
    """exp(i phi Q), assembled from its diagonal."""
    phases = np.exp(1j * phi * e0 * (_charge() + 2))
    return ModeBlocks.diagonal(np.tile(phases, (space.lattice.size, 1)))


@dataclass(frozen=True)
class GaugeReport:
    field_residual: float
    conjugate_residual: float
    grading_residual: float
    commutator_residual: float


def gauge_check(space: SingleOscillatorSpace, e0: float, phi: float,
                x: np.ndarray) -> GaugeReport:
    """Global phase rotations: field picks up e^{+i e0 phi}, conjugate the inverse.

    The commutator normalizations [Q, b'] = +e0 b' and [Q, d'] = -e0 d'
    fix the sign convention; the finite rotation follows from them.
    """
    u = gauge_unitary(space, e0, phi)
    u_dag = u.adjoint()
    field_res = 0.0
    conj_res = 0.0
    for a in range(4):
        psi = field_operator(space, x, a)
        rotated = u_dag @ psi @ u
        field_res = worst_of(field_res, (rotated - np.exp(1j * e0 * phi) * psi).max_abs())
        psi_c = field_operator(space, x, a, conjugate=True)
        rotated_c = u_dag @ psi_c @ u
        conj_res = worst_of(conj_res, (rotated_c - np.exp(-1j * e0 * phi) * psi_c).max_abs())
    parity = space.parity()
    grading_res = (u_dag @ parity @ u - parity).max_abs()
    charges = {(species, s): q for species, q in (("b", e0), ("d", -e0)) for s in (0, 1)}
    return GaugeReport(
        field_residual=field_res,
        conjugate_residual=conj_res,
        grading_residual=grading_res,
        commutator_residual=_creator_residual(space, charge_operator(space, e0), charges),
    )


def _creator_residual(space: SingleOscillatorSpace, generator: ModeBlocks,
                      charges: dict[tuple[str, int], float]) -> float:
    """Residual of [G, c'] = q c' over all modes, q = charges[species, spin] for each creator c'."""
    worst = 0.0
    for (species, s), q in charges.items():
        c_dag = mode_sum(space, creator(species, s))
        worst = worst_of(worst, (generator.commutator(c_dag) - q * c_dag).max_abs())
    return worst


def spin_operator(space: SingleOscillatorSpace) -> ModeBlocks:
    """Third spin component: (1/2) sum over species of (n_plus - n_minus)."""
    b_minus, b_plus, d_minus, d_plus = OCCUPATION
    base = np.diag(b_plus - b_minus + d_plus - d_minus)
    return mode_blocks(np.full((space.lattice.size, 1), 0.5), [base])


def spin_commutator_residual(space: SingleOscillatorSpace) -> float:
    """Residual of [S3, c_s'] = (+-1/2) c_s' for both species and spins, all modes at once."""
    spins = {(species, s): sign for species in "bd" for s, sign in ((0, -0.5), (1, 0.5))}
    return _creator_residual(space, spin_operator(space), spins)


# ---------------------------------------------------------------------------
# vacuum behavior


@dataclass(frozen=True)
class VacuumCovarianceReport:
    residual: float
    phase_removed_residual: float
    norm_deficit: float
    expected_deficit: float


def vacuum_covariance_report(space: SingleOscillatorSpace, profile: VacuumProfile,
                             boost: BoostData, y: np.ndarray) -> VacuumCovarianceReport:
    """Poincare maps send the vacuum to a vacuum with transported profile.

    U_{Lambda,y}|O> carries per-mode phases e^{-2 i y.p_j} and the shifted
    profile O(Lambda^-1 p_j); the phases are removable by a mode-diagonal
    central unitary, after which only the profile shift remains.  Modes
    shifted off the lattice edge are lost, which shows up as a norm
    deficit equal to the dropped profile weight.
    """
    y = np.asarray(y, dtype=float)
    lattice = space.lattice
    k = boost.steps
    vac = vacuum_vector(space, profile)
    moved = apply_extension(NRegister(space, 1), poincare_unitary(space, boost, y), vac,
                            twisted=False)

    thetas = dot_point(lattice.momenta, y)
    lo, hi = shift_range(lattice.size, k)
    shifted_raw = np.zeros(lattice.size, dtype=np.complex128)
    shifted_raw[lo:hi] = profile.values[lo - k:hi - k]
    # the vacuum entries sqrt(w_i) O(Lambda^-1 p_i), zero where the source is off the lattice
    amplitudes = np.sqrt(lattice.weights) * shifted_raw
    predicted = np.zeros((lattice.size, REGISTER_DIM), dtype=np.complex128)
    # einsum's complex product: numpy's vectorized multiply can fuse multiply-adds
    predicted[lo:hi, VACUUM_INDEX] = np.einsum("i,i->i", amplitudes[lo:hi],
                                               np.exp(-2j * thetas[lo:hi]))
    residual = float(np.max(np.abs(moved - predicted.ravel())))

    unphased = np.repeat(np.exp(2j * thetas), REGISTER_DIM) * moved
    plain = np.zeros((lattice.size, REGISTER_DIM), dtype=np.complex128)
    plain[:, VACUUM_INDEX] = amplitudes
    phase_removed_residual = float(np.max(np.abs(unphased - plain.ravel())))

    norm_deficit = 1.0 - float(np.vdot(moved, moved).real)
    dropped = np.delete(np.arange(lattice.size), slice(*shift_range(lattice.size, -k)))
    # Python's sum: one mode at a time from 0, where np.sum would pair the terms
    expected_deficit = float(sum(lattice.weights[dropped] * profile.z[dropped]))
    return VacuumCovarianceReport(
        residual=residual,
        phase_removed_residual=phase_removed_residual,
        norm_deficit=norm_deficit,
        expected_deficit=expected_deficit,
    )


@dataclass(frozen=True)
class BosonSector:
    """External scalar-sector data entering the vacuum energy balance.

    Z values play the same role as the fermionic profile weight |O|^2 and
    must be a normalized probability against the weights.
    """

    weights: np.ndarray
    omegas: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        om = np.asarray(self.omegas, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if not (w.shape == om.shape == z.shape) or w.ndim != 1 or w.size == 0:
            raise ConfigError("boson sector needs matching 1-d weights, omegas, z")
        if np.any(w <= 0) or np.any(om < 0) or np.any(z < 0):
            raise ConfigError("boson sector needs positive weights, nonnegative omegas and z")
        if abs(float(np.sum(w * z)) - 1.0) > 1e-9:
            raise ConfigError("boson Z must be normalized: sum w z = 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "z", z)


def fermion_vacuum_energy(lattice: MomentumLattice, profile: VacuumProfile,
                          n_species: int = 1) -> float:
    """-2 N_F sum_i w_i E_i Z_i, the unordered Dirac-sea contribution."""
    if n_species < 0:
        raise ConfigError(f"species count must be nonnegative, got {n_species}")
    energies = lattice.momenta[:, 0]
    return -2.0 * n_species * float(np.sum(lattice.weights * energies * profile.z))


def boson_vacuum_energy(sector: BosonSector, n_species: int) -> float:
    if n_species < 0:
        raise ConfigError(f"species count must be nonnegative, got {n_species}")
    return float(n_species * np.sum(sector.weights * sector.omegas * sector.z))


def vacuum_energy(lattice: MomentumLattice, profile: VacuumProfile,
                  n_fermion: int, n_boson: int = 0,
                  boson: BosonSector | None = None) -> float:
    """Total zero-point balance N_B sum w omega Z_B - 2 N_F sum w E Z_F."""
    total = fermion_vacuum_energy(lattice, profile, n_fermion)
    if n_boson:
        if boson is None:
            raise ConfigError("nonzero boson species count needs a boson sector")
        total += boson_vacuum_energy(boson, n_boson)
    return total


def balanced_boson_sector(lattice: MomentumLattice, profile: VacuumProfile,
                          n_fermion: int, n_boson: int) -> BosonSector:
    """Single-line boson sector tuned so the total vacuum energy vanishes."""
    if n_boson <= 0:
        raise ConfigError(f"need a positive boson species count, got {n_boson}")
    deficit = -fermion_vacuum_energy(lattice, profile, n_fermion)
    omega = deficit / n_boson
    if omega < 0:
        raise ConfigError("fermionic vacuum energy must be negative to balance")
    return BosonSector(weights=np.array([1.0]), omegas=np.array([omega]), z=np.array([1.0]))


def vacuum_energy_expectation(space: SingleOscillatorSpace, profile: VacuumProfile,
                              n: int) -> float:
    """<vac_N| extended P_0 |vac_N> on the explicit N-slot state (small N only).

    P_0 acts on the state by `apply_extension`, with no N-slot matrix; being
    diagonal, its slots' diagonals are summed into one state-sized array
    and multiply the vacuum once.  The bra is the vacuum conjugated in
    place, so the check holds three states at most; the inner product is
    an einsum.
    """
    nreg = NRegister(space, n)
    vac = vacuum_state(nreg, profile)
    moved = apply_extension(nreg, _momentum_component(space.lattice.momenta[:, 0]), vac,
                            twisted=False)
    bra = np.conjugate(vac, out=vac)
    return float(np.einsum("i,i->", bra, moved).real)
