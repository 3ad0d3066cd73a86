"""Named verification suites producing flat, JSON-friendly check records.

Five suites run in a fixed order: the 16-dim register algebra, the
momentum-space spinor kinematics, the single-oscillator mode space, the
N-fold oscillator limit, and the symmetry actions.  Every check is an
operator or scalar identity evaluated to a residual and compared against
a fixed tolerance; boolean checks encode failure as residual 1.

Randomized inputs are drawn from a generator seeded per suite as
(seed, suite index), so reports are reproducible and byte-identical for
a given configuration, and independent of which subset of suites runs.
The generator is `draws.default_rng`, numpy's PCG64 stream reproduced bit
for bit.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass, fields

import numpy as np

from . import sparse, spinors, symmetries
from .config import RunConfig
from .draws import Generator, default_rng
from .errors import ConfigError
from .modes import (
    RAPIDITY_1D,
    ModeBlocks,
    SingleOscillatorSpace,
    field_operator,
    field_operator_spectral,
    mode_annihilator,
    mode_blocks,
    mode_projector,
    mode_sum,
    plane_wave_unitary,
    rapidity_lattice,
    restricted_lattice,
    shift_range,
    smeared_annihilator,
    uniform_profile,
    vacuum_vector,
)
from .noscillator import (
    MATRIX_CHECK_N,
    NRegister,
    OpSpec,
    apply_extension,
    extend_additive,
    extend_operator,
    determinant_limit_convergence,
    overlap_product_ops,
    vacuum_matrix_element,
    vacuum_matrix_element_matrix,
    zprod_inner,
)
from .register import (
    REGISTER,
    REGISTER_DIM,
    build_register,
    conjugation_report,
    pair_exponential,
    quadratic_generator,
)
from .sparse import worst_of

SUITE_ORDER = ("jw_car", "spinor", "mode_space", "n_oscillator", "symmetries")


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    check: str
    identity: str
    residual: float
    tolerance: float
    passed: bool


# the keys of a record in the report, in field order
_RECORD_FIELDS = tuple(field.name for field in fields(CheckRecord))


def _rec(suite: str, check: str, identity: str, residual, tolerance: float) -> CheckRecord:
    residual = float(abs(residual)) if not isinstance(residual, float) else abs(residual)
    return CheckRecord(
        suite=suite,
        check=check,
        identity=identity,
        residual=residual,
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
    )


def _flag(suite: str, check: str, identity: str, ok: bool) -> CheckRecord:
    return _rec(suite, check, identity, 0.0 if ok else 1.0, 0.0)


def _suite_rng(config: RunConfig, name: str) -> Generator:
    return default_rng([config.seed, SUITE_ORDER.index(name)])


def _random_table(rng: Generator, modes: int) -> np.ndarray:
    return rng.standard_normal((modes, 2)) + 1j * rng.standard_normal((modes, 2))


# ---------------------------------------------------------------------------
# suite 1: register algebra


def run_jw_car(config: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(config, "jw_car")
    reg = build_register()
    ident = reg.identity
    cs = np.array(reg.annihilators())
    cs_dag = np.swapaxes(cs.conj(), 1, 2)
    s = "jw_car"
    out = []

    # register operators are 0, +-1 arrays: every product below is exact;
    # the max_abs of a stacked residual is the worst of its items, and NaN
    # if any of them is NaN
    pairs = cs[:, None] @ cs_dag[None] + cs_dag[None] @ cs[:, None]
    expected = np.eye(len(cs))[:, :, None, None] * ident
    worst = sparse.max_abs(pairs - expected)
    out.append(_rec(s, "anticommutator", "{c_a, c_b'} = delta_ab id", worst, 1e-12))

    worst = sparse.max_abs(cs[:, None] @ cs[None] + cs[None] @ cs[:, None])
    out.append(_rec(s, "nilpotency", "{c_a, c_b} = 0", worst, 1e-12))

    worst = sparse.max_abs(reg.parity @ cs @ reg.parity + cs)
    worst = worst_of(worst, sparse.max_abs(reg.parity @ reg.parity - ident))
    out.append(_rec(s, "grading", "g c g = -c and g^2 = id", worst, 1e-12))

    worst = float(np.max(np.abs(cs @ reg.vacuum)))
    worst = worst_of(worst, abs(sparse.inner(reg.vacuum, reg.vacuum) - 1.0))
    out.append(_rec(s, "vacuum", "c_a |vac> = 0, <vac|vac> = 1", worst, 1e-12))

    targets = (7, 11, 13, 14)
    expected = np.eye(REGISTER_DIM)[list(targets)]
    worst = float(np.max(np.abs(cs_dag @ reg.vacuum - expected)))
    out.append(_rec(s, "creation_pattern", "c_a' |vac> = +|one-particle_a>", worst, 1e-12))

    # every sample is drawn first, in the order a_b, a_d per sample, then
    # each side is one stacked call
    draws = []
    for _ in range(5):
        a_b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a_d = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        draws.append((a_b, a_d))
    a_b, a_d = (np.array(column) for column in zip(*draws))
    closed = pair_exponential(a_b, a_d)
    dense = sparse.dense_exponential(quadratic_generator(a_b, a_d))
    worst = sparse.max_abs(closed - dense)
    out.append(_rec(s, "pair_exponential", "exp(b'Ab + d'Bd) closed block form", worst, 1e-10))

    draws = []
    for _ in range(5):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = 0.5 * (h - h.conj().T)
        a = a - 0.5 * np.trace(a) * np.eye(2)
        alpha, beta = rng.uniform(-np.pi, np.pi, 2)
        draws.append((a, alpha, beta))
    report = conjugation_report(*(np.array(column) for column in zip(*draws)))
    su2, phase, grading = (sparse.max_abs(residuals) for residuals in (
        report.su2_residual, report.phase_residual, report.parity_residual))
    out.append(_rec(s, "su2_conjugation", "e^{-X} c_s e^{X} = sum_s' (e^A)_ss' c_s'", su2, 1e-10))
    out.append(_rec(s, "phase_conjugation", "number phases rotate c by e^{i angle}", phase, 1e-10))
    out.append(_rec(s, "grading_conjugation", "quadratic flows preserve the grading", grading, 1e-10))
    return out


# ---------------------------------------------------------------------------
# suite 2: spinor kinematics


def _magnitude(z: np.ndarray) -> np.ndarray:
    """|z| of each complex entry as Python's abs of one complex computes it.

    np.abs on a complex array rounds differently; np.hypot of the parts does not.
    """
    return np.hypot(z.real, z.imag)


def run_spinor(config: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(config, "spinor")
    s = "spinor"
    m = config.lattice.m
    lattice = config.lattice.build()
    drawn = spinors.from_spatial(rng.uniform(-5, 5, (40, 3)), m)
    momenta = np.concatenate([lattice.momenta, drawn])
    energies = momenta[:, 0]
    frames = spinors.build_spin_frame(momenta, m)
    out = []

    om, pi = frames.omega, frames.pi
    worst_norm = float(np.max(_magnitude(spinors.contract(om, pi) - 1.0)))
    herm = spinors.momentum_to_hermitian(momenta)
    recon = (pi[:, :, None] * np.conj(pi)[:, None, :]
             + (m**2 / 2) * (om[:, :, None] * np.conj(om)[:, None, :]))
    worst_recon = float(np.max(np.max(np.abs(recon - herm), axis=(1, 2)) / energies))
    worst_det = float(np.max(_magnitude(np.linalg.det(herm) - m**2 / 2) / energies**2))
    out.append(_rec(s, "frame_normalization", "om_A pi^A = 1", worst_norm, 1e-12))
    out.append(_rec(s, "momentum_reconstruction",
                    "p = pi pibar + (m^2/2) om ombar (relative)", worst_recon, 1e-12))
    out.append(_rec(s, "soldering_det", "det p_AA' = m^2/2 (relative)", worst_det, 1e-12))

    frame = spinors.build_spin_frame(spinors.from_spatial([0.0, 0.0, 0.0], 1.0), 1.0)
    golden_om = np.array([2**0.25, 0.0])
    golden_pi = np.array([0.0, 2**-0.25])
    worst = float(np.max(np.abs(frame.omega - golden_om)))
    worst = worst_of(worst, float(np.max(np.abs(frame.pi - golden_pi))))
    out.append(_rec(s, "rest_frame_values", "rest frame om = (2^1/4, 0), pi = (0, 2^-1/4)",
                    worst, 1e-14))

    # the bispinors of the first 20 momenta, against each momentum's two spins
    pos, neg = (table[:20] for table in spinors.eigen_bispinors(frames))
    p20 = momenta[:20, None]
    matching = (spinors.dirac_residual(p20, m, pos, +1), spinors.dirac_residual(p20, m, neg, -1))
    mismatches = (spinors.dirac_residual(p20, m, pos, -1), spinors.dirac_residual(p20, m, neg, +1))
    out.append(_rec(s, "dirac_kernel", "matching branches solve the momentum Dirac system",
                    worst_of(*(float(np.max(r)) for r in matching)), 1e-12))
    # the least mismatched residual is sqrt(2) m, reached at rest; a NaN
    # mismatch compares False and fails the flag
    out.append(_flag(s, "dirac_mismatch", "mismatched branches stay order-1 away",
                     all(bool(np.all(r > m)) for r in mismatches)))

    s1, s2 = (block[:20] for block in spinors.pauli_lubanski_projection(frames))
    worst = 0.0
    for block in (s1, s2):
        worst = worst_of(worst, float(np.max(_magnitude(np.trace(block, axis1=1, axis2=2)))))
        worst = worst_of(worst, float(np.max(np.abs(block @ block - 0.25 * np.eye(2)))))
    # spin minus carries -1/2, spin plus +1/2
    val = np.array([-0.5, 0.5])[None, :, None]
    for branch in (pos, neg):
        unprimed = (s1[:, None] @ branch[..., :2, None])[..., 0] - val * branch[..., :2]
        primed = (s2[:, None] @ branch[..., 2:, None])[..., 0] - val * branch[..., 2:]
        worst = worst_of(worst, float(np.max(np.abs(unprimed))), float(np.max(np.abs(primed))))
    out.append(_rec(s, "spin_projection", "spin states are +-1/2 eigenvectors of the frame spin",
                    worst, 1e-12))

    # drawn in the order (momentum, lam1, lam2) per sample, then computed as
    # stacks: the 40 exponentials in one call
    draws = [(rng.uniform(-5, 5, 3), spinors.random_sl2c_exponent(rng),
              spinors.random_sl2c_exponent(rng)) for _ in range(20)]
    spatial, x1, x2 = (np.array(column) for column in zip(*draws))
    lam1, lam2 = spinors.exponential(np.stack([x1, x2]))
    p = spinors.from_spatial(spatial, m)
    u12 = spinors.wigner_matrix(lam1 @ lam2, p, m)
    worst_unit = worst_of(
        float(np.max(np.abs(np.swapaxes(u12.conj(), 1, 2) @ u12 - np.eye(2)))),
        float(np.max(_magnitude(np.linalg.det(u12) - 1.0))),
    )
    q = spinors.apply_lorentz(np.linalg.inv(lam1), p, m)
    chained = spinors.wigner_matrix(lam1, p, m) @ spinors.wigner_matrix(lam2, q, m)
    worst_coc = float(np.max(np.abs(chained - u12)))
    out.append(_rec(s, "wigner_unitarity", "u(L,p) in SU(2)", worst_unit, 1e-10))
    out.append(_rec(s, "wigner_cocycle", "u(L1 L2, p) = u(L1, p) u(L2, L1^-1 p)",
                    worst_coc, 1e-10))

    if lattice.mode == "rapidity1d":
        lam = spinors.boost_z(2 * lattice.delta_eta)
        worst = float(np.max(np.abs(spinors.wigner_matrix(lam, lattice.momenta, m) - np.eye(2))))
        out.append(_rec(s, "wigner_boost_gauge", "z-boosts mix no spin on the z-axis frames",
                        worst, 1e-12))

        steps = config.boost_steps
        lo, hi = symmetries.interior_range(lattice.size, steps)
        f = np.zeros((lattice.size, 2), dtype=np.complex128)
        g = np.zeros_like(f)
        f[lo:hi] = _random_table(rng, hi - lo)
        g[lo:hi] = _random_table(rng, hi - lo)
        lam = spinors.boost_z(steps * lattice.delta_eta)
        y = np.asarray(config.displacement)
        tf = np.zeros_like(f)
        tg = np.zeros_like(g)
        lo, hi = shift_range(lattice.size, steps)
        sources = slice(lo - steps, hi - steps)
        u = spinors.wigner_matrix(lam, lattice.momenta[lo:hi], m)
        phase = np.exp(1j * spinors.dot_point(lattice.momenta[lo:hi], y))[:, None]
        tf[lo:hi] = phase * (u @ f[sources, :, None])[..., 0]
        tg[lo:hi] = phase * (u @ g[sources, :, None])[..., 0]
        x = np.asarray(config.field_point)
        x_fwd = spinors.apply_lorentz_to_point(lam, x) + y
        lhs = spinors.classical_solution(lattice, tf, tg, x_fwd)
        rhs = spinors.bispinor_rep(lam) @ spinors.classical_solution(lattice, f, g, x)
        out.append(_rec(s, "classical_covariance",
                        "transported amplitudes move the classical field covariantly",
                        float(np.max(np.abs(lhs - rhs))), 1e-10))
    return out


# ---------------------------------------------------------------------------
# suite 3: single-oscillator mode space


def run_mode_space(config: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(config, "mode_space")
    s = "mode_space"
    lattice = config.lattice.build()
    space = SingleOscillatorSpace(lattice)
    profile = config.profile.build(lattice)
    out = []

    pairs = [(i, sp) for i in range(lattice.size) for sp in (0, 1)]
    sample = [pairs[int(k)] for k in rng.choice(len(pairs), size=min(6, len(pairs)), replace=False)]
    ladders = {(i, sp, species): mode_annihilator(space, i, sp, species)
               for i, sp in sample for species in ("b", "d")}
    adjoints = {key: op.adjoint() for key, op in ladders.items()}
    centrals = {i: mode_projector(space, i) / lattice.weights[i] for i, _ in sample}
    same, cross = [], []
    for i, sp in sample:
        for j, sq in sample:
            for species in ("b", "d"):
                a = ladders[(i, sp, species)]
                anti = a.anticommutator(adjoints[(j, sq, species)])
                if (i, sp) == (j, sq):
                    anti = anti - centrals[i]
                same.append(anti.max_abs())
                cross.append(a.anticommutator(ladders[(j, sq, species)]).max_abs())
            a = ladders[(i, sp, "b")]
            cross.append(a.anticommutator(ladders[(j, sq, "d")]).max_abs())
            cross.append(a.anticommutator(adjoints[(j, sq, "d")]).max_abs())
    out.append(_rec(s, "car_central", "{c(p,s), c(q,t)'} = delta (1/w) central projector",
                    worst_of(0.0, *same), 1e-12))
    out.append(_rec(s, "car_zero", "all other anticommutators vanish", worst_of(0.0, *cross),
                    1e-12))

    f = _random_table(rng, lattice.size)
    g = _random_table(rng, lattice.size)
    cf = smeared_annihilator(space, f, "b")
    cg = smeared_annihilator(space, g, "b")
    overlaps = lattice.weights * np.sum(np.conj(f) * g, axis=1)
    # (1/w_i + 0j) times the overlap: the bits of the overlap times mode_projector(space, i)
    central = np.multiply((1.0 / lattice.weights).astype(np.complex128), overlaps)
    expected = mode_blocks(central[:, None], [REGISTER.identity])
    residual = (cf.anticommutator(cg.adjoint()) - expected).max_abs()
    out.append(_rec(s, "smeared_car", "{c(f), c(g)'} = sum_i w <f,g>_i central_i",
                    residual, 1e-12))

    vac = vacuum_vector(space, profile)
    one_slot = NRegister(space, 1)
    projected = apply_extension(one_slot, mode_sum(space, REGISTER.identity), vac,
                                twisted=False)
    # <O|central_i|O> for every i at once: central_i |O> is zero off mode i's 16 entries
    got = np.einsum("ir,ir->i", np.conj(vac).reshape(-1, REGISTER_DIM),
                    projected.reshape(-1, REGISTER_DIM))
    worst = worst_of(abs(sparse.inner(vac, vac) - 1.0),
                     abs(float(np.sum(lattice.weights * profile.z)) - 1.0),
                     *_magnitude(got - profile.z).tolist())
    out.append(_rec(s, "vacuum_profile", "<O|central_i|O> = Z_i, sum_i w_i Z_i = 1",
                    worst, 1e-12))

    x = np.asarray(config.field_point)
    fields = {(a, c): field_operator(space, x, a, conjugate=c)
              for a in range(4) for c in (False, True)}
    worst = worst_of(*(sparse.max_abs(space.embed(psi)
                                      - field_operator_spectral(space, x, a, conjugate=c))
                       for (a, c), psi in fields.items()))
    out.append(_rec(s, "field_dual_route", "Fourier sum = spectral assembly of the field",
                    worst, 1e-12))

    worst = 0.0
    phases = plane_wave_unitary(space, x)
    for idx in rng.choice(lattice.size, size=min(4, lattice.size), replace=False):
        i = int(idx)
        for sp in (0, 1):
            one = apply_extension(one_slot, mode_annihilator(space, i, sp, "b").adjoint(), vac,
                                  twisted=False)
            for a in range(4):
                got = sparse.inner(vac, apply_extension(one_slot, fields[a, False], one,
                                                        twisted=False))
                want = (
                    space.pos_table[i, sp, a]
                    * phases[i]
                    * profile.z[i]
                )
                worst = worst_of(worst, abs(got - want))
    out.append(_rec(s, "one_particle_wavefunction",
                    "<O| field b'(p,s) |O> = Z phi_pos e^{-ip.x}", worst, 1e-12))

    h = _random_table(rng, lattice.size)
    cf_dag = cf.adjoint()
    ch = smeared_annihilator(space, h, "d")
    want_f = spinors.classical_solution(lattice, profile.z[:, None] * f, np.zeros_like(f), x)
    want_h = spinors.classical_solution(lattice, np.zeros_like(h), profile.z[:, None] * h, x)
    worst = 0.0
    for a in range(4):
        got = sparse.inner(vac, apply_extension(one_slot, fields[a, False] @ cf_dag, vac,
                                                twisted=False))
        worst = worst_of(worst, abs(got - want_f[a]))
        got = sparse.inner(vac, apply_extension(one_slot, ch @ fields[a, False], vac,
                                                twisted=False))
        worst = worst_of(worst, abs(got - want_h[a]))
    out.append(_rec(s, "classical_matrix_element",
                    "field matrix elements synthesize the classical solution",
                    worst, 1e-12))
    return out


# ---------------------------------------------------------------------------
# suite 4: N-oscillator limit

# the one-mode N grid; the order{2,3}_single_quarter gates read N = 8 and N = 64
N_VALUES_SINGLE = (2, 4, 8, 16, 32, 64)
# the two-mode N grid; the 0.35 gate of order{2,3}_double_decay assumes
# N_max / N_min = 4, as the deviation falls as 1/N
N_VALUES_DOUBLE = (2, 4, 8)


def _engine_lattices(config: RunConfig):
    single = rapidity_lattice(0, config.lattice.delta_eta, config.lattice.m)
    three = rapidity_lattice(1, config.lattice.delta_eta, config.lattice.m)
    double = restricted_lattice(three, (0, 2))
    return single, double


def run_n_oscillator(config: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(config, "n_oscillator")
    s = "n_oscillator"
    single, double = _engine_lattices(config)
    space1 = SingleOscillatorSpace(single)
    space2 = SingleOscillatorSpace(double)
    prof1 = uniform_profile(single)
    prof2 = uniform_profile(double)
    out = []

    def random_ops(modes: int, count: int) -> list[OpSpec]:
        ops = []
        species_draw = rng.integers(0, 2, size=count)
        dagger_draw = rng.integers(0, 2, size=count)
        for k in range(count):
            ops.append(OpSpec(
                _random_table(rng, modes),
                "bd"[int(species_draw[k])],
                bool(dagger_draw[k]),
            ))
        return ops

    worst = 0.0
    for space, prof, n in ((space2, prof2, 2), (space1, prof1, 3)):
        nreg = NRegister(space, n)
        for count in (2, 4):
            ops = random_ops(space.lattice.size, count)
            walk = vacuum_matrix_element(nreg, prof, ops)
            explicit = vacuum_matrix_element_matrix(nreg, prof, ops)
            worst = worst_of(worst, abs(walk - explicit))
    out.append(_rec(s, "walk_vs_matrices",
                    "set-partition expansion = explicit tensor matrices", worst, 1e-10))

    nreg = NRegister(space1, 5)
    worst = 0.0
    for count in (2, 4):
        ops = random_ops(1, count)
        worst = worst_of(
            worst,
            abs(vacuum_matrix_element(nreg, prof1, ops)
                - vacuum_matrix_element(nreg, prof1, ops, exact=True)),
        )
    out.append(_rec(s, "exact_vs_float", "exact and float expansions agree", worst, 1e-12))

    nreg2 = NRegister(space2, MATRIX_CHECK_N)
    f = _random_table(rng, 2)
    g = _random_table(rng, 2)
    cf = smeared_annihilator(space2, f, "b")
    cg = smeared_annihilator(space2, g, "b")
    ext_f = extend_operator(nreg2, cf)
    ext_g = extend_operator(nreg2, cg)
    ext_g_dag = sparse.adjoint(ext_g)
    expected = extend_additive(nreg2, cf.anticommutator(cg.adjoint())) / nreg2.n
    residual = sparse.max_abs(sparse.anticommutator(ext_f, ext_g_dag) - expected)
    out.append(_rec(s, "extended_car", "{ext c(f), ext c(g)'} = mean-extended central",
                    residual, 1e-12))

    ext_fd = extend_operator(nreg2, smeared_annihilator(space2, g, "d"))
    worst = sparse.max_abs(sparse.anticommutator(ext_f, ext_fd))
    worst = worst_of(worst, sparse.max_abs(sparse.anticommutator(ext_f, sparse.adjoint(ext_fd))))
    worst = worst_of(worst, sparse.max_abs(sparse.anticommutator(ext_f, ext_g)))
    out.append(_rec(s, "extended_car_zero", "cross and like anticommutators vanish",
                    worst, 1e-12))

    central = extend_additive(nreg2, mode_projector(space2, 0)) / nreg2.n
    worst = worst_of(
        *(sparse.max_abs(sparse.commutator(central, op))
          for op in (ext_f, ext_g_dag, ext_fd))
    )
    out.append(_rec(s, "central_commutes", "mean-extended centrals commute with extended ops",
                    worst, 1e-12))

    worst = 0.0
    for space, prof, ns in ((space1, prof1, (2, 64)), (space2, prof2, (2, 64))):
        for n_val in ns:
            got = vacuum_matrix_element(NRegister(space, n_val), prof, [])
            worst = worst_of(worst, abs(got - 1.0))
    out.append(_rec(s, "vacuum_norm", "<vac_N|vac_N> = 1", worst, 1e-15))

    f1 = _random_table(rng, 2)
    g1 = _random_table(rng, 2)
    worst = 0.0
    for n_val in (1, 3, 17, 64):
        got = vacuum_matrix_element(
            NRegister(space2, n_val), prof2, overlap_product_ops([f1], [g1])
        )
        worst = worst_of(worst, abs(got - zprod_inner(double, prof2, f1, g1)))
    out.append(_rec(s, "order1_all_n", "<ext c(f) ext c(g)'> = <f,g>_Z at every N",
                    worst, 1e-13))

    def random_tables(modes: int, order: int):
        return ([_random_table(rng, modes) for _ in range(order)],
                [_random_table(rng, modes) for _ in range(order)])

    single_tables = {order: random_tables(1, order) for order in (2, 3)}
    for order, (fs, gs) in single_tables.items():
        rep = determinant_limit_convergence(space1, prof1, fs, gs, list(N_VALUES_SINGLE))
        out.append(_rec(s, f"order{order}_single_exact",
                        f"one-mode order-{order} deviations are exactly zero",
                        worst_of(*rep.deviations()), 0.0))
        out.append(_flag(s, f"order{order}_single_monotone", "deviations non-increasing in N",
                         rep.monotone))
        devs = {r.n: r.deviation for r in rep.records}
        quarter = worst_of(0.0, devs[64] - 0.25 * devs[8])
        out.append(_rec(s, f"order{order}_single_quarter", "dev(64) <= dev(8)/4", quarter, 0.0))

    double_tables = {order: random_tables(2, order) for order in (2, 3)}
    for order, (fs, gs) in double_tables.items():
        rep = determinant_limit_convergence(space2, prof2, fs, gs, list(N_VALUES_DOUBLE))
        out.append(_flag(s, f"order{order}_double_monotone", "two-mode deviations non-increasing",
                         rep.monotone))
        out.append(_rec(s, f"order{order}_double_decay", "dev(N_max)/dev(N_min) tracks 1/N",
                        rep.final_ratio if rep.final_ratio is not None else 1.0, 0.35))
    fs2, gs2 = single_tables[2]
    fs2d, gs2d = double_tables[2]

    worst_exact = 0.0
    worst_float = 0.0
    for n_val in (2, 4):
        base = overlap_product_ops(fs2, gs2)
        swapped = overlap_product_ops([fs2[1], fs2[0]], gs2)
        nreg = NRegister(space1, n_val)
        total = (vacuum_matrix_element(nreg, prof1, base, exact=True)
                 + vacuum_matrix_element(nreg, prof1, swapped, exact=True))
        worst_exact = worst_of(worst_exact, abs(total))
        base_d = overlap_product_ops(fs2d, gs2d)
        swapped_d = overlap_product_ops([fs2d[1], fs2d[0]], gs2d)
        nreg_d = NRegister(space2, n_val)
        total = (vacuum_matrix_element(nreg_d, prof2, base_d)
                 + vacuum_matrix_element(nreg_d, prof2, swapped_d))
        worst_float = worst_of(worst_float, abs(total))
    out.append(_rec(s, "antisymmetry_exact", "swapping f_1, f_2 flips the sign (rational)",
                    worst_exact, 0.0))
    out.append(_rec(s, "antisymmetry_float", "swapping f_1, f_2 flips the sign (float)",
                    worst_float, 1e-12))

    worst = 0.0
    for space, prof, table in ((space1, prof1, fs2[0]), (space2, prof2, fs2d[0])):
        ops = [
            OpSpec(table, "b", False),
            OpSpec(table, "b", False),
            OpSpec(table, "b", True),
            OpSpec(table, "b", True),
        ]
        for n_val in (2, 8):
            worst = worst_of(worst, abs(vacuum_matrix_element(NRegister(space, n_val), prof, ops)))
    out.append(_rec(s, "repeated_amplitude", "<ext c(g)^2 ...> = 0 from nilpotency",
                    worst, 1e-14))

    basis = [np.zeros((2, 2), dtype=np.complex128) for _ in range(2)]
    for k in range(2):
        basis[k][k, 0] = 1.0 / np.sqrt(double.weights[k] * prof2.z[k])
    rep = determinant_limit_convergence(space2, prof2, basis, basis, [2, 4, 8])
    values = [r.lhs.real for r in rep.records]
    rising = all(values[i] < values[i + 1] for i in range(len(values) - 1))
    bounded = all(0.0 < v <= 1.0 + 1e-12 for v in values)
    out.append(_flag(s, "orthonormal_rising", "orthonormal overlap rises with N inside (0, 1]",
                     rising and bounded))
    out.append(_rec(s, "orthonormal_limit", "orthonormal overlap tends to det = 1",
                    abs(rep.limit - 1.0), 1e-12))

    fb = _random_table(rng, 1)
    gd = _random_table(rng, 1)
    ops = [
        OpSpec(fb, "b", False),
        OpSpec(gd, "d", False),
        OpSpec(gd, "d", True),
        OpSpec(fb, "b", True),
    ]
    worst = 0.0
    for n_val in (2, 16):
        got = vacuum_matrix_element(NRegister(space1, n_val), prof1, ops, exact=True)
        want = zprod_inner(single, prof1, fb, fb) * zprod_inner(single, prof1, gd, gd)
        worst = worst_of(worst, abs(got - want))
    out.append(_rec(s, "mixed_species_factorization",
                    "<b(f) d(g) d(g)' b(f)'> = <f,f>_Z <g,g>_Z on one mode",
                    worst, 1e-12))

    unbalanced = [
        [OpSpec(fb, "b", False)],
        [OpSpec(fb, "b", False), OpSpec(gd, "d", True)],
        [OpSpec(fb, "b", False), OpSpec(fb, "b", False),
         OpSpec(gd, "d", True), OpSpec(gd, "d", True)],
        [OpSpec(fb, "b", False), OpSpec(fb, "b", True), OpSpec(gd, "d", True)],
    ]
    worst = 0.0
    for ops in unbalanced:
        for space, prof in ((space1, prof1), (space2, prof2)):
            table_ops = [
                OpSpec(np.tile(spec.amplitude, (space.lattice.size, 1))[: space.lattice.size],
                       spec.species, spec.dagger)
                for spec in ops
            ]
            worst = worst_of(
                worst, abs(vacuum_matrix_element(NRegister(space, 3), prof, table_ops))
            )
    out.append(_rec(s, "mixed_species_vanishing",
                    "species-unbalanced products annihilate the vacuum pairing",
                    worst, 1e-14))
    return out


# ---------------------------------------------------------------------------
# suite 5: symmetries

# the charge unit of the gauge checks: at e0 = 0 the rotation is the identity
# and they read 0 whatever the gauge code does; at e0 = 1e6 the rounding of
# e^{i e0 phi} alone fails their 1e-12 gates
E0 = 1.0


def run_symmetries(config: RunConfig) -> list[CheckRecord]:
    rng = _suite_rng(config, "symmetries")
    s = "symmetries"
    lattice = config.lattice.build()
    space = SingleOscillatorSpace(lattice)
    profile = config.profile.build(lattice)
    y = np.asarray(config.displacement)
    x = np.asarray(config.field_point)
    out = []

    direct = space.embed(symmetries.translation_unitary(space, y))
    # sum_a y_a P_a as one stack sum; Python's sum adds the terms to 0 in order
    generator = ModeBlocks(sum(p.stack * float(y_a)
                               for p, y_a in zip(symmetries.four_momentum(space), y)))
    via_exp = sparse.matrix_exponential(1j * space.embed(generator))
    out.append(_rec(s, "translation_dual_route", "diagonal phases = exp(i y.P)",
                    sparse.max_abs(direct - via_exp), 1e-10))

    boost0 = symmetries.boost_unitary(space, config.boost_steps)
    out.append(_rec(s, "boost_mode_relation",
                    "U' c(p_j, s) U = sum_s' u_j[s,s'] c(p_{j-k}, s')",
                    symmetries.boost_mode_residual(space, boost0), 1e-10))

    u = boost0.unitary
    # the modes whose image under the boost stays on the lattice
    keep = np.zeros((lattice.size, 1))
    keep[slice(*shift_range(lattice.size, -boost0.steps))] = 1.0
    src_proj = mode_blocks(keep, [REGISTER.identity])
    out.append(_rec(s, "boost_isometry", "U'U projects on the modes that stay on the lattice",
                    (u.adjoint() @ u - src_proj).max_abs(), 1e-12))

    # the operators that several checks read, built once and released before
    # the N = 2 row, which holds the suite's largest arrays
    poincare = symmetries.poincare_unitary(space, boost0, y)
    fields = symmetries.field_components(space, x)
    parity = space.parity()
    creators = symmetries.creator_sums(space)
    field_res, conjugate_res = symmetries.field_covariance_residual(space, boost0, poincare, y, x,
                                                                    fields)
    out.append(_rec(s, "field_covariance",
                    "U' Psi(x) U = S(L) Psi(L^-1(x - y)) away from the boundary",
                    field_res, 1e-10))
    out.append(_rec(s, "conjugate_field_covariance",
                    "the conjugate field transforms with the same bispinor action",
                    conjugate_res, 1e-10))
    out.append(_rec(s, "grading_invariance", "Poincare maps preserve the grading (interior)",
                    symmetries.grading_invariance_residual(space, boost0, poincare, parity),
                    1e-12))

    gauge = symmetries.gauge_check(space, E0, float(rng.uniform(0.2, 1.2)), fields, parity,
                                   creators)
    out.append(_rec(s, "gauge_field_phase", "e^{-i phi Q} Psi e^{i phi Q} = e^{+i e0 phi} Psi",
                    gauge.field_residual, 1e-12))
    out.append(_rec(s, "gauge_conjugate_phase", "conjugate field rotates with e^{-i e0 phi}",
                    gauge.conjugate_residual, 1e-12))
    out.append(_rec(s, "gauge_commutators", "[Q, b'] = +e0 b', [Q, d'] = -e0 d'",
                    gauge.commutator_residual, 1e-12))
    out.append(_rec(s, "gauge_grading", "charge rotations preserve the grading",
                    gauge.grading_residual, 1e-12))

    out.append(_rec(s, "spin_commutators", "[S3, c_s'] = (s/2) c_s'",
                    symmetries.spin_commutator_residual(space, creators), 1e-12))

    vac_rep = symmetries.vacuum_covariance_report(space, profile, boost0, poincare, y)
    del poincare, fields, parity, creators
    out.append(_rec(s, "vacuum_covariance",
                    "U|O> = phases times the profile transported along the boost",
                    vac_rep.residual, 1e-12))
    out.append(_rec(s, "vacuum_phase_removal",
                    "a central diagonal unitary strips the translation phases",
                    vac_rep.phase_removed_residual, 1e-12))
    out.append(_rec(s, "vacuum_norm_deficit",
                    "norm loss equals the profile weight shifted off the lattice",
                    abs(vac_rep.norm_deficit - vac_rep.expected_deficit), 1e-12))

    formula = symmetries.fermion_vacuum_energy(lattice, profile, 1)
    expectation = symmetries.vacuum_energy_expectation(space, profile, MATRIX_CHECK_N)
    out.append(_rec(s, "vacuum_energy_expectation",
                    "<vac_N| ext P_0 |vac_N> = -2 N sum w E Z",
                    abs(expectation - MATRIX_CHECK_N * formula), 1e-10))

    rest = rapidity_lattice(0, config.lattice.delta_eta, 1.0)
    rest_profile = uniform_profile(rest)
    rest_energy = symmetries.fermion_vacuum_energy(rest, rest_profile, 3)
    out.append(_rec(s, "vacuum_energy_rest_mode", "three species on the rest mode give -6",
                    abs(rest_energy - (-6.0)), 1e-12))

    sector = symmetries.balanced_boson_sector(rest, rest_profile, 3, 6)
    balanced = symmetries.vacuum_energy(rest, rest_profile, 3, 6, sector)
    out.append(_rec(s, "vacuum_energy_balance",
                    "N_B sum w |k| Z_B cancels -2 N_F sum w E Z_F", abs(balanced), 1e-12))
    out.append(_rec(s, "vacuum_energy_balance_scale", "the balancing line sits at |k| = 1",
                    abs(float(sector.omegas[0]) - 1.0), 1e-12))
    return out


SUITE_FUNCS = {
    "jw_car": run_jw_car,
    "spinor": run_spinor,
    "mode_space": run_mode_space,
    "n_oscillator": run_n_oscillator,
    "symmetries": run_symmetries,
}


def _check_suite_config(name: str, config: RunConfig) -> None:
    """Refuse a config that the suite cannot run on, before any suite runs."""
    if name == "symmetries" and config.lattice.mode != RAPIDITY_1D:
        raise ConfigError("the symmetries suite needs a rapidity lattice")


def run_suite(name: str, config: RunConfig) -> list[CheckRecord]:
    if name not in SUITE_FUNCS:
        raise ConfigError(f"unknown suite {name!r}; choose from {list(SUITE_ORDER)}")
    _check_suite_config(name, config)
    return SUITE_FUNCS[name](config)


def selected_suites(config: RunConfig, suite_names: list[str] | None) -> list[str]:
    """The named suites once each, in SUITE_ORDER (all for None), refused before any runs."""
    if suite_names is None:
        suite_names = SUITE_ORDER
    elif not suite_names:
        # zero checks would report a pass that verified nothing
        raise ConfigError(f"no suites selected; name at least one of {', '.join(SUITE_ORDER)}")
    unknown = [n for n in suite_names if n not in SUITE_FUNCS]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; choose from {list(SUITE_ORDER)}")
    names = [n for n in SUITE_ORDER if n in suite_names]
    for name in names:
        _check_suite_config(name, config)
    return names


def run_report(config: RunConfig, suite_names: list[str] | None = None) -> dict:
    names = selected_suites(config, suite_names)
    records = []
    for name in names:
        records.extend(run_suite(name, config))
    passed = sum(1 for r in records if r.passed)
    return {
        "config": config.to_dict(),
        "environment": {
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "suites": names,
        "records": [{name: getattr(r, name) for name in _RECORD_FIELDS} for r in records],
        "counts": {"total": len(records), "passed": passed},
        "overall_pass": passed == len(records),
    }


def render_text(report: dict) -> str:
    lines = []
    for rec in report["records"]:
        status = "PASS" if rec["passed"] else "FAIL"
        lines.append(
            f"{status} {rec['suite']}.{rec['check']}: residual={rec['residual']:.3e} "
            f"tol={rec['tolerance']:.1e} ({rec['identity']})"
        )
    counts = report["counts"]
    verdict = "PASS" if report["overall_pass"] else "FAIL"
    lines.append(f"{verdict}: {counts['passed']}/{counts['total']} checks passed")
    return "\n".join(lines)
