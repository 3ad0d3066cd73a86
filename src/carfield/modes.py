"""Momentum lattices and the single-oscillator space.

A lattice is a finite quadrature rule for the invariant measure on the
mass-m hyperboloid.  The single-oscillator Hilbert space is (lattice modes)
x (16-dim register); the internal mode basis is orthonormal, |i> =
sqrt(w_i) |p_i>, so the resolution of unity sum_i w_i |p_i><p_i| = id holds
exactly and every continuum identity discretizes as integral -> sum w_i.

Lattice kinds:

* rapidity1d: p_j = m (cosh j*deta, 0, 0, sinh j*deta), j in [-J, J],
  weight deta per mode.  Closed under boosts by multiples of deta, which is
  what makes lattice-level Lorentz covariance exact.
* grid3d: centered cubic grid with weights delta^3 / ((2 pi)^3 2 E).

Single-oscillator operators are mode blocks sum_i |i><i - shift| x R_i, held
as a `ModeBlocks` (the (M, 16, 16) stack of R_i and the shift); their
products, sums, adjoints and (anti)commutators stay in that form.
`SingleOscillatorSpace.embed` is the one conversion to CSR, used where an
operator is extended to N slots, applied to a state, or compared with an
independent CSR route.  `field_operator_spectral` keeps its own assembly
on purpose, with no `ModeBlocks`: it places the kron of each diagonal
multiplier with a register ladder by index arithmetic, all four terms in one
COO triple converted to CSR once, so the field's dual-route check compares
two independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import register as reg_mod
from . import sparse, spinors
from .errors import ConfigError, DegenerateVacuumError, ShapeError
from .register import REGISTER_DIM, build_register
from .sparse import SparseOperator
from .spinors import FourMomentum

RAPIDITY_1D = "rapidity1d"
GRID_3D = "grid3d"


@dataclass(frozen=True)
class MomentumLattice:
    mode: str
    points: tuple[FourMomentum, ...]
    weights: np.ndarray
    m: float
    # rapidity metadata, None for grid lattices
    j_values: tuple[int, ...] | None = None
    delta_eta: float | None = None

    @property
    def size(self) -> int:
        return len(self.points)


def rapidity_lattice(j_max: int, delta_eta: float, m: float) -> MomentumLattice:
    if j_max < 0 or delta_eta <= 0 or m <= 0:
        raise ConfigError(f"invalid rapidity lattice: J={j_max}, deta={delta_eta}, m={m}")
    js = tuple(range(-j_max, j_max + 1))
    points = tuple(FourMomentum.from_rapidity(j * delta_eta, m) for j in js)
    weights = np.full(len(js), delta_eta, dtype=float)
    return MomentumLattice(RAPIDITY_1D, points, weights, m, j_values=js, delta_eta=delta_eta)


def grid_lattice(n: int, spacing: float, m: float) -> MomentumLattice:
    """Cubic n^3 grid centered at the origin."""
    if n <= 0 or spacing <= 0 or m <= 0:
        raise ConfigError(f"invalid grid lattice: n={n}, spacing={spacing}, m={m}")
    offsets = spacing * (np.arange(n) - (n - 1) / 2)
    points = []
    weights = []
    for ax in offsets:
        for ay in offsets:
            for az in offsets:
                p = FourMomentum.from_spatial(float(ax), float(ay), float(az), m)
                points.append(p)
                weights.append(spacing**3 / ((2 * np.pi) ** 3 * 2 * p.E))
    return MomentumLattice(GRID_3D, tuple(points), np.array(weights), m)


def build_lattice(mode: str, m: float, j_max: int = 6, delta_eta: float = 0.4,
                  grid_n: int = 2, grid_spacing: float = 1.0) -> MomentumLattice:
    if mode == RAPIDITY_1D:
        return rapidity_lattice(j_max, delta_eta, m)
    if mode == GRID_3D:
        return grid_lattice(grid_n, grid_spacing, m)
    raise ConfigError(f"unknown lattice mode {mode!r}")


def restricted_lattice(lattice: MomentumLattice, indices: tuple[int, ...]) -> MomentumLattice:
    """Sub-lattice on a subset of modes; rapidity metadata is dropped."""
    if len(indices) == 0 or len(set(indices)) != len(indices):
        raise ConfigError(f"need distinct mode indices, got {indices}")
    points = tuple(lattice.points[i] for i in indices)
    weights = lattice.weights[list(indices)].copy()
    return MomentumLattice("restricted", points, weights, lattice.m)


def shift_sources(modes: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Source mode i - shift of every mode i, and the mask of modes whose source is on the lattice.

    The one map of a mode shift.  On a rapidity lattice the index is j + J,
    so a boost by k steps sends mode j - k to j; modes j with j + k on the
    lattice are the unmasked entries of shift_sources(modes, -k).
    """
    src = np.arange(modes) - shift
    return src, (src >= 0) & (src < modes)


@dataclass(frozen=True, eq=False)
class ModeBlocks:
    """The single-oscillator operator sum_i |i><i - shift| x stack[i].

    `stack` holds one 16x16 register block per mode.  Blocks whose source
    mode i - shift is off the lattice are zero, so products and adjoints
    stay in this form.  Nothing here prunes except `pruned` and the
    (anti)commutators, which drop entries below DROP_TOL as their CSR
    counterparts in `sparse` do.
    """

    stack: np.ndarray
    shift: int = 0

    # numpy scalars defer to __rmul__ instead of broadcasting over the object
    __array_ufunc__ = None

    def __post_init__(self):
        stack = np.asarray(self.stack, dtype=np.complex128)
        if stack.ndim != 3 or stack.shape[1:] != (REGISTER_DIM, REGISTER_DIM):
            raise ShapeError(f"block stack must be (M, 16, 16), got {stack.shape}")
        shift = int(self.shift)
        if shift:
            off = ~shift_sources(len(stack), shift)[1]
            if stack[off].any():
                stack = stack.copy()
                stack[off] = 0
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "shift", shift)

    @classmethod
    def zeros(cls, modes: int, shift: int = 0) -> ModeBlocks:
        return cls(np.zeros((modes, REGISTER_DIM, REGISTER_DIM), dtype=np.complex128), shift)

    @classmethod
    def diagonal(cls, values: np.ndarray) -> ModeBlocks:
        """Mode-diagonal operator with the (M, 16) register diagonals `values`."""
        values = np.asarray(values, dtype=np.complex128)
        stack = np.zeros(values.shape + (REGISTER_DIM,), dtype=np.complex128)
        idx = np.arange(REGISTER_DIM)
        stack[:, idx, idx] = values
        return cls(stack)

    def _same_form(self, other: ModeBlocks) -> np.ndarray:
        if other.stack.shape != self.stack.shape or other.shift != self.shift:
            raise ShapeError(
                f"mode blocks differ: {self.stack.shape} shift {self.shift} vs "
                f"{other.stack.shape} shift {other.shift}"
            )
        return other.stack

    def __add__(self, other: ModeBlocks) -> ModeBlocks:
        return ModeBlocks(self.stack + self._same_form(other), self.shift)

    def __sub__(self, other: ModeBlocks) -> ModeBlocks:
        return ModeBlocks(self.stack - self._same_form(other), self.shift)

    def __mul__(self, scalar) -> ModeBlocks:
        return ModeBlocks(self.stack * scalar, self.shift)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> ModeBlocks:
        return ModeBlocks(self.stack / scalar, self.shift)

    def __matmul__(self, other: ModeBlocks) -> ModeBlocks:
        """Shifts add; block i is self[i] @ other[i - self.shift], zero off the lattice.

        einsum rather than matmul: it sums each entry in index order with no
        fused multiply-add, as the CSR product in `sparse` does, so the two
        agree bitwise.  Pairs with a zero block are skipped.
        """
        m = len(self.stack)
        if other.stack.shape != self.stack.shape:
            raise ShapeError(f"mode blocks differ: {self.stack.shape} vs {other.stack.shape}")
        src, valid = shift_sources(m, self.shift)
        dst = np.flatnonzero(self.stack.any(axis=(1, 2)) & valid)
        src = src[dst]
        live = other.stack[src].any(axis=(1, 2))
        dst, src = dst[live], src[live]
        out = np.zeros_like(self.stack)
        if len(dst):
            out[dst] = np.einsum("nij,njk->nik", self.stack[dst], other.stack[src])
        return ModeBlocks(out, self.shift + other.shift)

    def adjoint(self) -> ModeBlocks:
        """Shift -> -shift; block j is the conjugate transpose of block j + shift."""
        dst, keep = shift_sources(len(self.stack), -self.shift)
        out = np.zeros_like(self.stack)
        out[keep] = self.stack[dst[keep]].conj().transpose(0, 2, 1)
        return ModeBlocks(out, -self.shift)

    def pruned(self) -> ModeBlocks:
        return ModeBlocks(sparse.prune_array(self.stack), self.shift)

    def commutator(self, other: ModeBlocks) -> ModeBlocks:
        return (self @ other - other @ self).pruned()

    def anticommutator(self, other: ModeBlocks) -> ModeBlocks:
        return (self @ other + other @ self).pruned()

    def max_abs(self) -> float:
        return sparse.max_abs(self.stack)


class SingleOscillatorSpace:
    """Lattice modes tensored with the 16-dim register, dim = 16 M.

    Mode index is the slow index: basis = |i> x |register r|, flattened
    row-major as i * 16 + r.  The eigen-bispinors of each mode are
    precomputed as pos_table and neg_table, indexed [mode, spin, component].
    """

    def __init__(self, lattice: MomentumLattice):
        self.lattice = lattice
        self.register = build_register()
        self.dim = REGISTER_DIM * lattice.size
        tables = [spinors.eigen_bispinors(spinors.build_spin_frame(p)) for p in lattice.points]
        self.pos_table = np.array([pos for pos, _ in tables])
        self.neg_table = np.array([neg for _, neg in tables])

    def embed(self, op: ModeBlocks) -> SparseOperator:
        """op as pruned CSR: the one conversion of single-oscillator operators to CSR.

        Block i fills rows 16 i .. 16 i + 15 at columns 16 (i - shift) + c;
        one block per row of blocks, so row-major order is canonical order.
        """
        m = self.lattice.size
        if len(op.stack) != m:
            raise ShapeError(f"block stack must be ({m}, 16, 16), got {op.stack.shape}")
        src, keep = shift_sources(m, op.shift)
        modes = np.flatnonzero(keep)
        blocks = op.stack[modes]
        live = sparse.kept_by_prune(blocks)
        block, r, c = np.nonzero(live)
        rows = REGISTER_DIM * modes[block] + r
        cols = REGISTER_DIM * src[modes[block]] + c
        return SparseOperator.from_sorted(blocks[live], rows, cols, (self.dim, self.dim))

    def parity(self) -> ModeBlocks:
        """Single-oscillator grading sum_i w_i |p_i><p_i| x reg-parity = id x reg-parity."""
        return mode_blocks(np.ones((self.lattice.size, 1)), [self.register.parity])


def mode_blocks(coeffs: np.ndarray, reg_ops: list[np.ndarray]) -> ModeBlocks:
    """sum_i |i><i| x sum_k coeffs[i, k] reg_ops[k], pruned as embed prunes.

    Callers pass small-integer register operators on disjoint supports: each entry is exact.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    stack = sum(coeffs[:, k, None, None] * op for k, op in enumerate(reg_ops))
    return ModeBlocks(sparse.prune_array(stack))


def _one_mode(space: SingleOscillatorSpace, i: int, reg_op: np.ndarray) -> ModeBlocks:
    """(1/w_i) |i><i| x reg_op."""
    coeffs = np.eye(space.lattice.size)[:, [i]] / space.lattice.weights[i]
    return mode_blocks(coeffs, [reg_op])


def mode_projector(space: SingleOscillatorSpace, i: int) -> ModeBlocks:
    """Central element I_{p_i} = |p_i><p_i| x id = (1/w_i) |i><i| x id."""
    return _one_mode(space, i, space.register.identity)


def mode_annihilator(space: SingleOscillatorSpace, i: int, spin: int, species: str) -> ModeBlocks:
    """c_n(p_i, s) = |p_i><p_i| x c_s, normalized so {c, c'} = delta/w_i I_{p_i}."""
    return _one_mode(space, i, space.register.ladder(species, spin))


def smeared_annihilator(space: SingleOscillatorSpace, f: np.ndarray, species: str) -> ModeBlocks:
    """c_n(f) = sum_{i,s} w_i conj(f(p_i,s)) c_n(p_i,s); the weights cancel."""
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (space.lattice.size, 2):
        raise ShapeError(f"amplitude table must be ({space.lattice.size}, 2), got {f.shape}")
    ladders = [space.register.ladder(species, s) for s in (0, 1)]
    return mode_blocks(np.conj(f), ladders)


def plane_wave_unitary(space: SingleOscillatorSpace, x: np.ndarray) -> np.ndarray:
    """The mode-diagonal unitary W(x) as its (M,) diagonal, the phases e^{-i p_i . x}."""
    return np.array([np.exp(-1j * p.dot_point(x)) for p in space.lattice.points])


def field_operator(space: SingleOscillatorSpace, x: np.ndarray, alpha: int,
                   conjugate: bool = False) -> ModeBlocks:
    """Component alpha of the field at spacetime point x, as a Fourier sum.

    Psi_alpha(x) = sum_i w_i sum_s [ phi_pos[s](p_i) c(p_i,s) e^{-i p.x}
                                     + phi_neg[s](p_i) c'(p_i,-s)^dag e^{+i p.x} ]
    with (c, c') = (b, d), swapped when conjugate is set.
    """
    if not 0 <= alpha < 4:
        raise ShapeError(f"bispinor component index must be 0..3, got {alpha}")
    ann_species, cre_species = ("d", "b") if conjugate else ("b", "d")
    ann = [space.register.ladder(ann_species, s) for s in (0, 1)]
    cre = [space.register.ladder(cre_species, 1 - s).conj().T for s in (0, 1)]
    coeffs = np.zeros((space.lattice.size, 4), dtype=np.complex128)
    for i, p in enumerate(space.lattice.points):
        phase = np.exp(-1j * p.dot_point(x))
        # scalar products: numpy's vectorized complex multiply can round differently
        for s in (0, 1):
            coeffs[i, s] = space.pos_table[i, s, alpha] * phase
            coeffs[i, 2 + s] = space.neg_table[i, s, alpha] * np.conj(phase)
    return mode_blocks(coeffs, ann + cre)


def field_operator_spectral(space: SingleOscillatorSpace, x: np.ndarray, alpha: int,
                            conjugate: bool = False) -> SparseOperator:
    """Same operator assembled from the diagonal W(x) and amplitude multipliers.

    Each term kron(multiplier W(x)^(+-1), register ladder) places the ladder
    entry (r, c) at (16 i + r, 16 i + c), scaled by the mode-i multiplier; all
    four terms go into one COO triple and one CSR conversion.
    """
    if not 0 <= alpha < 4:
        raise ShapeError(f"bispinor component index must be 0..3, got {alpha}")
    ann_species, cre_species = ("d", "b") if conjugate else ("b", "d")
    phases = plane_wave_unitary(space, x)
    terms = []
    for s in (0, 1):
        terms.append((space.pos_table[:, s, alpha], phases,
                      space.register.ladder(ann_species, s)))
        terms.append((space.neg_table[:, s, alpha], np.conj(phases),
                      space.register.ladder(cre_species, 1 - s).conj().T))
    offsets = REGISTER_DIM * np.arange(space.lattice.size)[:, None]
    rows, cols, data = [], [], []
    for amplitudes, w, ladder in terms:
        # scalar products, as the CSR product computed them: numpy's vectorized
        # complex multiply can round differently
        multiplier = np.array([a * p for a, p in zip(amplitudes, w)])
        r, c = np.nonzero(ladder)
        rows.append((offsets + r).ravel())
        cols.append((offsets + c).ravel())
        data.append((multiplier[:, None] * ladder[r, c]).ravel())
    out = SparseOperator.from_coo(np.concatenate(data), np.concatenate(rows),
                                  np.concatenate(cols), (space.dim, space.dim))
    return sparse.prune(out)


@dataclass(frozen=True)
class VacuumProfile:
    """Per-mode vacuum amplitude O_i, normalized to sum_i w_i |O_i|^2 = 1."""

    values: np.ndarray

    @property
    def z(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def _normalized_profile(lattice: MomentumLattice, raw: np.ndarray) -> VacuumProfile:
    raw = np.asarray(raw, dtype=np.complex128)
    if raw.shape != (lattice.size,):
        raise ShapeError(f"profile needs {lattice.size} values, got shape {raw.shape}")
    norm_sq = float(np.sum(lattice.weights * np.abs(raw) ** 2))
    if norm_sq == 0:
        raise DegenerateVacuumError("vacuum profile is identically zero")
    return VacuumProfile(values=raw / np.sqrt(norm_sq))


def uniform_profile(lattice: MomentumLattice) -> VacuumProfile:
    return _normalized_profile(lattice, np.ones(lattice.size))


def gaussian_profile(lattice: MomentumLattice, width: float = 1.0, center: float = 0.0) -> VacuumProfile:
    """Gaussian in rapidity (rapidity1d) or in |p| (grid3d)."""
    if width <= 0:
        raise ConfigError(f"profile width must be positive, got {width}")
    if lattice.mode == RAPIDITY_1D:
        xs = np.array([j * lattice.delta_eta for j in lattice.j_values])
    else:
        xs = np.array([np.linalg.norm(p.spatial()) for p in lattice.points])
    return _normalized_profile(lattice, np.exp(-((xs - center) ** 2) / (2 * width**2)))


def point_profile(lattice: MomentumLattice, index: int) -> VacuumProfile:
    raw = np.zeros(lattice.size)
    raw[index] = 1.0
    return _normalized_profile(lattice, raw)


def vacuum_vector(space: SingleOscillatorSpace, profile: VacuumProfile) -> np.ndarray:
    """|O> = sum_i sqrt(w_i) O_i |i, register vacuum>."""
    v = np.zeros(space.dim, dtype=np.complex128)
    for i in range(space.lattice.size):
        v[i * REGISTER_DIM + reg_mod.VACUUM_INDEX] = (
            np.sqrt(space.lattice.weights[i]) * profile.values[i]
        )
    return v
