"""Poincare maps, charge, spin, and the vacuum energy balance."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carfield import sparse, spinors, symmetries
from carfield.errors import ConfigError, PreconditionError
from carfield.modes import (
    ModeBlocks,
    SingleOscillatorSpace,
    gaussian_profile,
    grid_lattice,
    mode_annihilator,
    mode_blocks,
    rapidity_lattice,
    shift_range,
    uniform_profile,
    vacuum_vector,
)
from carfield.noscillator import NRegister, extend_additive, vacuum_state
from carfield.register import REGISTER_DIM, build_register
from conftest import number_operator, zero_operator

Y = np.array([0.3, 0.05, -0.1, 0.2])
X = np.array([0.15, -0.3, 0.2, 0.4])


@pytest.fixture(scope="module")
def small_space():
    return SingleOscillatorSpace(rapidity_lattice(2, 0.4, 1.0))


@pytest.fixture(scope="module")
def small_profile(small_space):
    return gaussian_profile(small_space.lattice)


# --- translations


def test_four_momentum_components(small_space):
    momenta = [small_space.embed(op).toarray() for op in symmetries.four_momentum(small_space)]
    e, _, _, pz = small_space.lattice.momenta[0]
    # diagonal value is (lowered component) * (occupation - 2); the register
    # vacuum sits at index 15 with occupation 0, index 7 holds one b- particle
    vac_slot = 15
    assert momenta[0][vac_slot, vac_slot] == pytest.approx(-2 * e)
    assert momenta[3][vac_slot, vac_slot] == pytest.approx(2 * pz)
    one_b = 7
    assert momenta[0][one_b, one_b] == pytest.approx(-e)
    assert momenta[3][one_b, one_b] == pytest.approx(pz)


def test_translation_unitary_is_exp_momentum(small_space):
    direct = small_space.embed(symmetries.translation_unitary(small_space, Y))
    momenta = [small_space.embed(op) for op in symmetries.four_momentum(small_space)]
    gen = zero_operator(small_space.dim)
    for a in range(4):
        gen = gen + float(Y[a]) * momenta[a]
    via_exp = sparse.matrix_exponential(1j * gen)
    assert sparse.max_abs(direct - via_exp) < 1e-12
    with pytest.raises(ConfigError):
        symmetries.translation_unitary(small_space, np.zeros(3))


def test_translation_group_law(small_space):
    u1 = symmetries.translation_unitary(small_space, Y)
    u2 = symmetries.translation_unitary(small_space, X)
    both = symmetries.translation_unitary(small_space, Y + X)
    assert (u1 @ u2 - both).max_abs() < 1e-13
    identity = ModeBlocks.diagonal(np.ones((small_space.lattice.size, REGISTER_DIM)))
    assert (u1 @ u1.adjoint() - identity).max_abs() < 1e-14


def test_vacuum_picks_up_translation_phases(small_space, small_profile):
    # the generator is not normally ordered, so the vacuum is not invariant:
    # each mode component rotates by e^{-2 i y.p}
    u = symmetries.translation_unitary(small_space, Y)
    vac = vacuum_vector(small_space, small_profile)
    moved = small_space.embed(u) @ vac
    expected = vac.copy()
    for i, p in enumerate(small_space.lattice.momenta):
        phase = np.exp(-2j * spinors.dot_point(p, Y))
        expected[i * REGISTER_DIM: (i + 1) * REGISTER_DIM] *= phase
    assert np.max(np.abs(moved - expected)) < 1e-14


# --- boosts


def test_boost_needs_rapidity_lattice():
    grid_space = SingleOscillatorSpace(grid_lattice(1, 1.0, 1.0))
    with pytest.raises(PreconditionError):
        symmetries.boost_unitary(grid_space, 1)


def test_boost_mode_relation(small_space):
    boost = symmetries.boost_unitary(small_space, 1)
    assert symmetries.boost_mode_residual(small_space, boost) < 1e-11


def test_boost_isometry_on_surviving_modes(small_space):
    boost = symmetries.boost_unitary(small_space, 1)
    u = boost.unitary
    js = list(small_space.lattice.j_values)
    keep = np.diag([1.0 if j + 1 in js else 0.0 for j in js])
    proj = sparse.asoperator(np.kron(keep, np.eye(REGISTER_DIM)))
    assert sparse.max_abs(small_space.embed(u.adjoint() @ u) - proj) < 1e-12


def test_interior_is_the_overlap_of_both_shift_ranges():
    for modes in range(1, 14):
        for steps in range(-modes - 1, modes + 2):
            lo, hi = symmetries.interior_range(modes, steps)
            # the modes the boost fills, and those it keeps on the lattice
            filled = np.zeros(modes, dtype=bool)
            filled[slice(*shift_range(modes, steps))] = True
            kept = np.zeros(modes, dtype=bool)
            kept[slice(*shift_range(modes, -steps))] = True
            assert 0 <= lo <= hi <= modes
            np.testing.assert_array_equal(np.arange(lo, hi), np.flatnonzero(filled & kept))
            if modes % 2:
                j_max = modes // 2
                js = np.arange(modes) - j_max
                np.testing.assert_array_equal(np.arange(lo, hi),
                                              np.flatnonzero(abs(js) <= j_max - abs(steps)))
    assert symmetries.interior_range(5, 1) == (1, 4)


@settings(max_examples=60, deadline=None)
@given(j_max=st.integers(0, 6), steps=st.integers(-7, 7), seed=st.integers(0, 2**32 - 1))
def test_interior_max_equals_the_projector_compression_bitwise(j_max, steps, seed):
    """The interior residual as a block slice, against proj @ X @ proj with a local projector."""
    rng = np.random.default_rng(seed)
    modes = 2 * j_max + 1
    shape = (modes, REGISTER_DIM, REGISTER_DIM)
    scale = 10.0 ** rng.integers(-300, 300, shape)
    stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    stack *= rng.random(shape) < 0.3
    stack[rng.random(modes) < 0.3] = 0
    op = ModeBlocks(stack)
    js = np.arange(modes) - j_max
    keep = (abs(js) <= j_max - abs(steps)).astype(float)
    proj = mode_blocks(keep[:, None], [np.eye(REGISTER_DIM)])
    lo, hi = symmetries.interior_range(modes, steps)
    assert sparse.max_abs(op.stack[lo:hi]) == (proj @ op @ proj).max_abs()


def test_an_empty_interior_is_refused(small_space):
    # J = 2: a boost by |k| > J leaves no mode the residuals could be read on
    for steps in (3, -3, 5):
        boost = symmetries.boost_unitary(small_space, steps)
        with pytest.raises(PreconditionError):
            symmetries.grading_invariance_residual(small_space, boost, Y)
        with pytest.raises(PreconditionError):
            symmetries.field_covariance_residual(small_space, boost, Y, X)
    # |k| = J keeps the middle mode, and its residuals are read
    for steps in (2, -2):
        boost = symmetries.boost_unitary(small_space, steps)
        assert symmetries.interior_range(small_space.lattice.size, steps) == (2, 3)
        assert symmetries.grading_invariance_residual(small_space, boost, Y) < 1e-13
        residuals = symmetries.field_covariance_residual(small_space, boost, Y, X)
        assert sparse.worst_of(*residuals) < 1e-10


def test_field_covariance(small_space):
    boost = symmetries.boost_unitary(small_space, 1)
    field, conjugate = symmetries.field_covariance_residual(small_space, boost, Y, X)
    assert field < 1e-10
    assert conjugate < 1e-10


def test_grading_invariance(small_space):
    boost = symmetries.boost_unitary(small_space, 1)
    assert symmetries.grading_invariance_residual(small_space, boost, Y) < 1e-13


def test_backward_boost(small_space):
    boost = symmetries.boost_unitary(small_space, -1)
    assert symmetries.boost_mode_residual(small_space, boost) < 1e-11
    residuals = symmetries.field_covariance_residual(small_space, boost, Y, X)
    assert sparse.worst_of(*residuals) < 1e-10


def test_vacuum_covariance(small_space, small_profile):
    boost = symmetries.boost_unitary(small_space, 1)
    rep = symmetries.vacuum_covariance_report(small_space, small_profile, boost, Y)
    assert rep.residual < 1e-12
    assert rep.phase_removed_residual < 1e-12
    assert rep.norm_deficit == pytest.approx(rep.expected_deficit, abs=1e-12)
    assert rep.expected_deficit > 0  # one boundary mode is shifted off


def test_vacuum_covariance_pure_translation(small_space, small_profile):
    # steps=0 boost is the identity map; nothing is shifted, nothing is lost
    boost = symmetries.boost_unitary(small_space, 0)
    rep = symmetries.vacuum_covariance_report(small_space, small_profile, boost, Y)
    assert rep.residual < 1e-12
    assert rep.norm_deficit == pytest.approx(0.0, abs=1e-12)
    assert rep.expected_deficit == 0.0


# --- charge and spin


def _dense_generators(space, e0, y, phi):
    """P, Q, S3, exp(i y.P) and exp(i phi Q) from dense c'c sums on a fresh register.

    The construction the occupation table replaced: number operators as
    matrix sums, their diagonals rounded back to ints for the unitaries.
    """
    reg = build_register()
    n_b, n_d = number_operator(reg, "b"), number_operator(reg, "d")
    m = space.lattice.size
    coeffs = np.array([(e, -px, -py, -pz) for e, px, py, pz in space.lattice.momenta])
    momenta = [mode_blocks(coeffs[:, a:a + 1], [n_b + n_d - 2 * reg.identity]) for a in range(4)]
    charge = mode_blocks(np.full((m, 1), e0), [n_b - n_d + 2 * reg.identity])
    spin_base = np.zeros((REGISTER_DIM, REGISTER_DIM), dtype=np.complex128)
    for species in ("b", "d"):
        for s, sign in ((0, -1.0), (1, 1.0)):
            ladder = reg.ladder(species, s)
            spin_base = spin_base + sign * (ladder.conj().T @ ladder)
    spin = mode_blocks(np.full((m, 1), 0.5), [spin_base])
    occ = np.real((n_b + n_d).diagonal()).round().astype(int)
    thetas = np.array([spinors.dot_point(p, y) for p in space.lattice.momenta])
    translation = ModeBlocks.diagonal(np.exp(1j * np.outer(thetas, occ - 2)))
    q = np.real((n_b - n_d).diagonal()).round().astype(int)
    gauge = ModeBlocks.diagonal(np.tile(np.exp(1j * phi * e0 * (q + 2)), (m, 1)))
    return momenta, charge, spin, translation, gauge


@pytest.mark.parametrize("j_max", [6, 1])
def test_generators_from_occupations_match_the_dense_sums_bitwise(j_max):
    space = SingleOscillatorSpace(rapidity_lattice(j_max, 0.4, 1.0))
    e0, phi = 1.3, 0.63
    momenta, charge, spin, translation, gauge = _dense_generators(space, e0, Y, phi)
    got = [*symmetries.four_momentum(space), symmetries.charge_operator(space, e0),
           symmetries.spin_operator(space), symmetries.translation_unitary(space, Y),
           symmetries.gauge_unitary(space, e0, phi)]
    for op, want in zip(got, [*momenta, charge, spin, translation, gauge]):
        assert op.shift == want.shift
        assert op.stack.tobytes() == want.stack.tobytes()



def test_gauge_unitary_is_exp_charge(small_space):
    phi = 0.63
    direct = small_space.embed(symmetries.gauge_unitary(small_space, 1.0, phi))
    via_exp = sparse.matrix_exponential(
        1j * phi * small_space.embed(symmetries.charge_operator(small_space, 1.0))
    )
    assert sparse.max_abs(direct - via_exp) < 1e-12


def test_gauge_check(small_space):
    rep = symmetries.gauge_check(small_space, 1.0, 0.8, X)
    assert rep.field_residual < 1e-12
    assert rep.conjugate_residual < 1e-12
    assert rep.grading_residual < 1e-14
    assert rep.commutator_residual < 1e-13


def test_charge_annihilates_nothing_but_scales(small_space):
    # [Q, b'] = +e0 b' and [Q, d'] = -e0 d' at a single mode
    e0 = 1.3
    q = symmetries.charge_operator(small_space, e0)
    b_dag = mode_annihilator(small_space, 1, 0, "b").adjoint()
    d_dag = mode_annihilator(small_space, 1, 1, "d").adjoint()
    assert (q.commutator(b_dag) - e0 * b_dag).max_abs() < 1e-13
    assert (q.commutator(d_dag) + e0 * d_dag).max_abs() < 1e-13


def test_spin_commutators_and_vacuum(small_space, small_profile):
    assert symmetries.spin_commutator_residual(small_space) == 0.0
    s3 = small_space.embed(symmetries.spin_operator(small_space))
    vac = vacuum_vector(small_space, small_profile)
    assert np.max(np.abs(s3 @ vac)) == 0.0


def test_extended_spin_annihilates_product_vacuum(small_space, small_profile):
    nreg = NRegister(small_space, 2)
    s_ext = extend_additive(nreg, symmetries.spin_operator(small_space))
    vac = vacuum_state(nreg, small_profile)
    assert np.max(np.abs(s_ext @ vac)) == 0.0


# --- vacuum energy


def test_fermion_vacuum_energy_formula(small_space, small_profile):
    lattice = small_space.lattice
    expected = -2.0 * np.sum(
        lattice.weights * np.array([p[0] for p in lattice.momenta]) * small_profile.z
    )
    assert symmetries.fermion_vacuum_energy(lattice, small_profile) == pytest.approx(expected)
    assert symmetries.fermion_vacuum_energy(lattice, small_profile, 3) == pytest.approx(
        3 * expected
    )
    with pytest.raises(ConfigError):
        symmetries.fermion_vacuum_energy(lattice, small_profile, -1)


def test_vacuum_energy_expectation_matches_quadrature(small_space, small_profile):
    formula = symmetries.fermion_vacuum_energy(small_space.lattice, small_profile)
    for n in (1, 2):
        got = symmetries.vacuum_energy_expectation(small_space, small_profile, n)
        assert got == pytest.approx(n * formula, abs=1e-12)


def test_vacuum_energy_expectation_peak_memory(default_space, default_profile):
    # what the check must hold is three states: the vacuum, P_0 applied to
    # it and the conjugate copy sparse.inner makes; no N-slot matrix, and no
    # state-sized temporary next to those three
    state = 16 * NRegister(default_space, 2).dim
    symmetries.vacuum_energy_expectation(default_space, default_profile, 2)
    tracemalloc.start()
    try:
        symmetries.vacuum_energy_expectation(default_space, default_profile, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * state


def test_rest_mode_energy_with_three_species():
    rest = rapidity_lattice(0, 0.4, 1.0)
    profile = uniform_profile(rest)
    assert symmetries.fermion_vacuum_energy(rest, profile, 3) == pytest.approx(-6.0, abs=1e-12)


def test_boson_sector_validation():
    with pytest.raises(ConfigError):
        symmetries.BosonSector(np.ones(2), np.ones(3), np.ones(2))
    with pytest.raises(ConfigError):
        symmetries.BosonSector(np.array([-1.0]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ConfigError):
        symmetries.BosonSector(np.array([1.0]), np.array([1.0]), np.array([2.0]))
    sector = symmetries.BosonSector(np.array([0.5]), np.array([1.0]), np.array([2.0]))
    assert symmetries.boson_vacuum_energy(sector, 4) == pytest.approx(4.0)
    with pytest.raises(ConfigError):
        symmetries.boson_vacuum_energy(sector, -1)


def test_boson_sector_boundaries():
    # zero frequencies and zero Z values are admitted, a zero weight is not
    sector = symmetries.BosonSector(np.array([0.5, 0.5]), np.array([0.0, 1.0]),
                                    np.array([0.0, 2.0]))
    assert sector.omegas[0] == 0.0 and sector.z[0] == 0.0
    with pytest.raises(ConfigError):
        symmetries.BosonSector(np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0]))


def test_vacuum_energy_balance():
    rest = rapidity_lattice(0, 0.4, 1.0)
    profile = uniform_profile(rest)
    with pytest.raises(ConfigError):
        symmetries.vacuum_energy(rest, profile, 3, n_boson=6)
    with pytest.raises(ConfigError):
        symmetries.balanced_boson_sector(rest, profile, 3, 0)
    sector = symmetries.balanced_boson_sector(rest, profile, 3, 6)
    assert sector.omegas[0] == pytest.approx(1.0, abs=1e-12)
    total = symmetries.vacuum_energy(rest, profile, 3, 6, sector)
    assert abs(total) < 1e-10
    # sign can land anywhere: more bosons push the balance positive
    heavier = symmetries.vacuum_energy(rest, profile, 3, 12, sector)
    assert heavier > 0
