"""Lattices, vacuum profiles, and the single-oscillator mode space."""

import numpy as np
import pytest
import scipy.sparse

from carfield import sparse, spinors
from carfield.errors import ConfigError, DegenerateVacuumError, ShapeError
from carfield.modes import (
    GRID_3D,
    RAPIDITY_1D,
    ModeBlocks,
    SingleOscillatorSpace,
    _normalized_profile,
    build_lattice,
    field_operator,
    field_operator_spectral,
    gaussian_profile,
    grid_lattice,
    mode_annihilator,
    mode_projector,
    plane_wave_unitary,
    point_profile,
    rapidity_lattice,
    restricted_lattice,
    smeared_annihilator,
    uniform_profile,
    vacuum_vector,
)
from carfield.register import REGISTER, REGISTER_DIM, VACUUM_INDEX

from conftest import assert_same_csr, random_table, scipy_nonzero


# --- lattices


def test_rapidity_lattice_structure():
    lat = rapidity_lattice(3, 0.5, 2.0)
    assert lat.size == 7
    assert lat.j_values == tuple(range(-3, 4))
    np.testing.assert_array_equal(lat.weights, np.full(7, 0.5))
    assert lat.momenta.shape == (7, 4)
    p = lat.momenta[2 + 3]
    assert p[0] == pytest.approx(2 * np.cosh(1.0))


def test_rapidity_lattice_closed_under_step_boosts():
    lat = rapidity_lattice(3, 0.4, 1.0)
    lam = spinors.boost_z(0.4)
    for j in range(-3, 3):
        moved = spinors.apply_lorentz(lam, lat.momenta[j + 3], lat.m)
        target = lat.momenta[j + 1 + 3]
        np.testing.assert_allclose(moved, target, atol=1e-12)


def test_grid_lattice_weights():
    lat = grid_lattice(2, 1.0, 1.0)
    assert lat.size == 8
    for p, w in zip(lat.momenta, lat.weights):
        assert w == pytest.approx(1.0 / ((2 * np.pi) ** 3 * 2 * p[0]))


def test_lattice_validation():
    with pytest.raises(ConfigError):
        rapidity_lattice(-1, 0.4, 1.0)
    with pytest.raises(ConfigError):
        rapidity_lattice(2, 0.0, 1.0)
    with pytest.raises(ConfigError):
        grid_lattice(0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        build_lattice("hexagonal", 1.0)
    assert build_lattice(RAPIDITY_1D, 1.0, j_max=2).size == 5
    assert build_lattice(GRID_3D, 1.0, grid_n=1).size == 1


def test_restricted_lattice():
    lat = rapidity_lattice(2, 0.4, 1.0)
    sub = restricted_lattice(lat, (0, 3))
    assert sub.size == 2
    assert np.array_equal(sub.momenta, lat.momenta[[0, 3]])
    np.testing.assert_array_equal(sub.weights, lat.weights[[0, 3]])
    with pytest.raises(ConfigError):
        restricted_lattice(lat, ())
    with pytest.raises(ConfigError):
        restricted_lattice(lat, (1, 1))
    assert np.array_equal(restricted_lattice(lat, (np.int64(4), np.int32(0))).momenta,
                          lat.momenta[[4, 0]])


@pytest.mark.parametrize("indices", [(-1, 0), (0, 5), (True, 2), (0, np.True_), (0.0, 1),
                                     (0, "1"), (0, None)])
def test_restricted_lattice_rejects_a_bad_index(indices):
    # -1 would take the last mode, True mode 1, and 5 end in an IndexError
    with pytest.raises(ConfigError):
        restricted_lattice(rapidity_lattice(2, 0.4, 1.0), indices)


# --- profiles


def test_profile_normalization(default_lattice):
    for profile in (
        uniform_profile(default_lattice),
        gaussian_profile(default_lattice, width=0.7, center=0.4),
        point_profile(default_lattice, 3),
    ):
        assert np.sum(default_lattice.weights * profile.z) == pytest.approx(1.0)


def test_profile_guards(default_lattice):
    with pytest.raises(DegenerateVacuumError):
        _normalized_profile(default_lattice, np.zeros(default_lattice.size))
    with pytest.raises(ShapeError):
        _normalized_profile(default_lattice, np.ones(3))
    with pytest.raises(ConfigError):
        gaussian_profile(default_lattice, width=0.0)
    # a width whose square leaves the float range is a uniform profile
    wide = gaussian_profile(default_lattice, width=1.5e154)
    np.testing.assert_array_equal(wide.values, uniform_profile(default_lattice).values)


def test_point_profile_support(default_lattice):
    profile = point_profile(default_lattice, 5)
    assert np.count_nonzero(profile.values) == 1
    assert profile.z[5] == pytest.approx(1.0 / default_lattice.weights[5])
    assert np.array_equal(point_profile(default_lattice, np.int64(5)).values, profile.values)


@pytest.mark.parametrize("index", [True, np.True_, -1, 13, 1.7, 5.0, "5", None])
def test_point_profile_rejects_a_bad_index(default_lattice, index):
    # True would set every mode, -1 take the last one, and 13 or 1.7 end in an IndexError
    with pytest.raises(ConfigError):
        point_profile(default_lattice, index)


def test_vacuum_vector(default_space, default_profile):
    vac = vacuum_vector(default_space, default_profile)
    assert sparse.inner(vac, vac) == pytest.approx(1.0)
    # support only on register-vacuum slots
    v = vac.reshape(default_space.lattice.size, REGISTER_DIM)
    assert np.all(v[:, :VACUUM_INDEX] == 0)


# --- operators on the mode space


def test_embedding_and_parity(default_space):
    par = default_space.parity()
    identity = ModeBlocks.diagonal(np.ones((default_space.lattice.size, REGISTER_DIM)))
    assert (par @ par - identity).max_abs() == 0.0
    blocks = np.zeros((default_space.lattice.size, REGISTER_DIM, REGISTER_DIM), dtype=complex)
    blocks[2] = REGISTER.b_minus
    op = default_space.embed(ModeBlocks(blocks))
    assert op.shape == (default_space.dim, default_space.dim)
    # embed places block i in the i-th 16-dim diagonal block
    dense = op.toarray()
    assert dense[2 * REGISTER_DIM + 8, 2 * REGISTER_DIM + 0] == 1.0
    assert not dense[:REGISTER_DIM, :REGISTER_DIM].any()


def test_mode_car_small():
    lat = rapidity_lattice(1, 0.4, 1.0)
    space = SingleOscillatorSpace(lat)
    a = mode_annihilator(space, 0, 0, "b")
    b = mode_annihilator(space, 2, 1, "b")
    anti_same = a.anticommutator(a.adjoint())
    expected = mode_projector(space, 0) / lat.weights[0]
    assert (anti_same - expected).max_abs() < 1e-14
    assert a.anticommutator(b.adjoint()).max_abs() == 0.0
    assert a.anticommutator(b).max_abs() == 0.0


def test_central_elements_commute_with_everything():
    lat = rapidity_lattice(1, 0.4, 1.0)
    space = SingleOscillatorSpace(lat)
    central = mode_projector(space, 1)
    for i in (0, 1, 2):
        for species in ("b", "d"):
            op = mode_annihilator(space, i, 0, species)
            assert central.commutator(op).max_abs() == 0.0


def test_smeared_annihilator_weights_cancel(default_space, rng):
    f = random_table(rng, default_space.lattice.size)
    smeared = smeared_annihilator(default_space, f, "b")
    total = ModeBlocks(np.zeros((default_space.lattice.size, REGISTER_DIM, REGISTER_DIM)))
    for i in range(default_space.lattice.size):
        for s in (0, 1):
            total = total + default_space.lattice.weights[i] * np.conj(
                f[i, s]
            ) * mode_annihilator(default_space, i, s, "b")
    assert (smeared - total).max_abs() < 1e-13
    with pytest.raises(ShapeError):
        smeared_annihilator(default_space, f[:3], "b")


def test_plane_wave_unitary_group(default_space, rng):
    x = rng.uniform(-1, 1, 4)
    y = rng.uniform(-1, 1, 4)
    wx = plane_wave_unitary(default_space, x)
    assert wx.shape == (default_space.lattice.size,)
    assert np.max(np.abs(np.abs(wx) - 1.0)) < 1e-14
    combined = plane_wave_unitary(default_space, x + y)
    assert np.max(np.abs(wx * plane_wave_unitary(default_space, y) - combined)) < 1e-14


def test_field_operator_dual_route(default_space, rng):
    x = rng.uniform(-1, 1, 4)
    for alpha in range(4):
        for conj in (False, True):
            direct = field_operator(default_space, x, alpha, conjugate=conj)
            spectral = field_operator_spectral(default_space, x, alpha, conjugate=conj)
            assert sparse.max_abs(default_space.embed(direct) - spectral) < 1e-12


def _spectral_kron_terms(space, x, alpha, conjugate):
    """The spectral field as a scipy sum of per-term krons of diagonal multipliers with W(x)."""
    ann_species, cre_species = ("d", "b") if conjugate else ("b", "d")
    w = scipy_nonzero(np.diag(plane_wave_unitary(space, x)))
    w_dag = w.conj().T.tocsr()
    out = scipy.sparse.csr_matrix((space.dim, space.dim), dtype=np.complex128)
    for s in (0, 1):
        pos_mult = scipy_nonzero(np.diag(space.pos_table[:, s, alpha]))
        neg_mult = scipy_nonzero(np.diag(space.neg_table[:, s, alpha]))
        ann = REGISTER.ladder(ann_species, s)
        cre = REGISTER.ladder(cre_species, 1 - s).conj().T
        out = out + scipy_nonzero(scipy.sparse.kron(pos_mult @ w, ann, format="csr"))
        out = out + scipy_nonzero(scipy.sparse.kron(neg_mult @ w_dag, cre, format="csr"))
    return scipy_nonzero(out)


def test_field_operator_spectral_equals_kron_terms_bitwise(default_space, rng):
    # the grid lattice's bispinors are complex, so the rounding of each
    # multiplier product shows there
    grid_space = SingleOscillatorSpace(grid_lattice(2, 1.0, 1.0))
    for space in (default_space, grid_space):
        x = rng.uniform(-2, 2, 4)
        for alpha in range(4):
            for conj in (False, True):
                got = field_operator_spectral(space, x, alpha, conjugate=conj)
                assert_same_csr(got, _spectral_kron_terms(space, x, alpha, conj))


def test_field_operator_component_guard(default_space):
    with pytest.raises(ShapeError):
        field_operator(default_space, np.zeros(4), 4)
    with pytest.raises(ShapeError):
        field_operator_spectral(default_space, np.zeros(4), -1)


def test_field_operator_is_odd(default_space):
    # the field is a pure ladder combination: it anticommutes with the grading
    par = default_space.parity()
    psi = field_operator(default_space, np.array([0.1, 0.0, 0.0, -0.3]), 1)
    assert (par @ psi @ par + psi).max_abs() < 1e-14
