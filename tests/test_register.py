"""Register algebra: CAR table, grading, vacuum, and quadratic flows."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from carfield import register, sparse
from carfield.config import default_config
from carfield.errors import PreconditionError, ShapeError
from carfield.register import (
    ADJOINTS,
    OCCUPATION,
    PAIR_PRODUCTS,
    REGISTER,
    REGISTER_DIM,
    VACUUM_INDEX,
    _exp2,
    build_register,
    conjugation_report,
    creator,
    operator_table,
    pair_exponential,
    pair_unitary,
    pattern_bits,
    quadratic_generator,
)
from carfield.suites import run_suite

from conftest import number_operator

bounded_reals = st.floats(-1.5, 1.5, allow_nan=False)


def small_2x2():
    return st.lists(bounded_reals, min_size=8, max_size=8).map(
        lambda v: np.array(v[:4], dtype=float).reshape(2, 2)
        + 1j * np.array(v[4:], dtype=float).reshape(2, 2)
    )


def test_register_operators_are_dense_arrays(reg):
    for op in (*reg.annihilators(), reg.identity, reg.parity):
        assert isinstance(op, np.ndarray)
        assert op.shape == (REGISTER_DIM, REGISTER_DIM) and op.dtype == np.complex128


def test_car_anticommutators(reg):
    cs = reg.annihilators()
    for i, a in enumerate(cs):
        for j, b in enumerate(cs):
            b_dag = b.conj().T
            anti = a @ b_dag + b_dag @ a
            if i == j:
                assert sparse.max_abs(anti - reg.identity) == 0.0
            else:
                assert sparse.max_abs(anti) == 0.0
            assert sparse.max_abs(a @ b + b @ a) == 0.0


def test_ladders_are_nilpotent(reg):
    for a in reg.annihilators():
        assert sparse.max_abs(a @ a) == 0.0


def test_grading(reg):
    g = reg.parity
    assert sparse.max_abs(g @ g - reg.identity) == 0.0
    for a in reg.annihilators():
        assert sparse.max_abs(g @ a @ g + a) == 0.0
    # vacuum is even
    np.testing.assert_array_equal(g @ reg.vacuum, reg.vacuum)


def test_vacuum_is_annihilated(reg):
    assert sparse.inner(reg.vacuum, reg.vacuum) == 1.0
    for a in reg.annihilators():
        assert np.all(a @ reg.vacuum == 0)


def test_creation_pattern(reg):
    # each creator populates exactly one excited-factor basis state, phase +1
    targets = {"b-": 7, "b+": 11, "d-": 13, "d+": 14}
    labels = ["b-", "b+", "d-", "d+"]
    for label, a in zip(labels, reg.annihilators()):
        created = a.conj().T @ reg.vacuum
        expected = sparse.basis_state(REGISTER_DIM, targets[label])
        np.testing.assert_array_equal(created, expected)


def test_ladder_lookup(reg):
    assert reg.ladder("b", 0) is reg.b_minus
    assert reg.ladder("d", 1) is reg.d_plus


@pytest.mark.parametrize("species, spin", [("b", 2), ("b", -1), ("d", 2), ("x", 0), ("B", 1),
                                           ("bd", 0), (["b"], 0), ("b", [0])])
def test_ladder_and_creator_refuse_an_unknown_species_or_spin(reg, species, spin):
    # an index computed from the spin would read ("b", 2) as the d- creator
    # and ("b", -1) as the d+ one
    for lookup in (reg.ladder, REGISTER.ladder, creator):
        with pytest.raises(ShapeError):
            lookup(species, spin)


def test_number_operator_counts(reg):
    n_b = number_operator(reg, "b")
    n_d = number_operator(reg, "d")
    diag = np.real((n_b + n_d).diagonal())
    assert diag[VACUUM_INDEX] == 0.0
    assert diag[0] == 4.0  # all four factors excited
    # n_b measures the first two tensor factors: basis index 7 = b- occupied
    assert np.real(n_b.diagonal())[7] == 1.0
    assert np.real(n_d.diagonal())[7] == 0.0


def test_occupation_is_the_diagonal_of_each_number_operator(reg):
    assert OCCUPATION.shape == (4, REGISTER_DIM) and OCCUPATION.dtype.kind == "i"
    for row, c in zip(OCCUPATION, reg.annihilators()):
        n = c.conj().T @ c
        # c'c is diagonal, with the occupation as its exact 0/1 entries
        np.testing.assert_array_equal(n, np.diag(row))
    for species, rows in (("b", OCCUPATION[:2]), ("d", OCCUPATION[2:])):
        np.testing.assert_array_equal(number_operator(reg, species), np.diag(rows.sum(axis=0)))
    assert not OCCUPATION[:, VACUUM_INDEX].any()


def test_register_is_the_jordan_wigner_chain_of_literal_pauli_matrices(reg):
    # the chains take their factors from spinors.PAULI; written out from
    # literal sigma matrices they give the same bytes, signed zeros included
    x, y, z = (np.array(m, dtype=np.complex128)
               for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
    lower, one = (x - 1j * y) / 2, np.eye(2, dtype=np.complex128)
    chains = {"b_minus": (1, lower, one, one, one), "b_plus": (-1, z, lower, one, one),
              "d_minus": (1, z, z, lower, one), "d_plus": (-1, z, z, z, lower),
              "parity": (1, z, z, z, z)}
    for name, (sign, *factors) in chains.items():
        want = functools.reduce(np.kron, factors)
        assert getattr(reg, name).tobytes() == (-want if sign < 0 else want).tobytes(), name


def test_shared_register_is_read_only_and_build_register_is_fresh(reg):
    for name, array in vars(REGISTER).items():
        np.testing.assert_array_equal(array, getattr(reg, name))
        with pytest.raises(ValueError):
            array[0] = 1
    with pytest.raises(ValueError):
        OCCUPATION[0, 0] = 2
    fresh = build_register()
    assert fresh.b_minus is not REGISTER.b_minus
    fresh.b_minus[0, 0] = 5  # a fresh register is the caller's to change
    assert REGISTER.b_minus[0, 0] == 0


@settings(max_examples=30, deadline=None)
@given(a_b=small_2x2(), a_d=small_2x2())
def test_pair_exponential_matches_dense(reg, a_b, a_d):
    closed = pair_exponential(a_b, a_d)
    dense = sparse.dense_exponential(quadratic_generator(a_b, a_d))
    assert sparse.max_abs(closed - dense) < 1e-10


@settings(max_examples=30, deadline=None)
@given(a_b=small_2x2(), a_d=small_2x2())
def test_dense_exponential_matches_scipy_on_quadratic_generators(reg, a_b, a_d):
    x = quadratic_generator(a_b, a_d)
    ref = scipy.linalg.expm(x)
    got = sparse.dense_exponential(x)
    assert np.linalg.norm(got - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)


def test_pair_exponential_species_factors_commute(rng):
    # exp(b'Ab + d'Bd) = exp(b'Ab) exp(d'Bd), in either order
    a_b, a_d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
    zero = np.zeros((2, 2))
    only_b, only_d = pair_exponential(a_b, zero), pair_exponential(zero, a_d)
    both = pair_exponential(a_b, a_d)
    assert sparse.max_abs(only_b @ only_d - both) == 0.0
    assert sparse.max_abs(only_d @ only_b - both) == 0.0


def test_pair_exponential_rejects_wrong_shape():
    with pytest.raises(PreconditionError):
        pair_exponential(np.eye(3), np.eye(2))


@settings(max_examples=30, deadline=None)
@given(a_b=small_2x2(), a_d=small_2x2())
def test_pair_unitary_of_exponentials_is_pair_exponential_bitwise(a_b, a_d):
    for a in (a_b, np.diag(np.diag(a_b))):
        got = pair_unitary(_exp2(a), _exp2(a_d))
        assert np.array_equal(got, pair_exponential(a, a_d))


def _random_su2(rng):
    # a uniform unit quaternion (a, b, c, d) as [[a + ib, c + id], [-c + id, a - ib]]
    q = rng.standard_normal(4)
    q = q / np.linalg.norm(q)
    return np.array([[q[0] + 1j * q[1], q[2] + 1j * q[3]],
                     [-q[2] + 1j * q[3], q[0] - 1j * q[1]]])


def test_pair_unitary_mixes_each_species(reg, rng):
    # Gamma(u_b) Gamma(u_d) conjugates c_s to sum_s' u[s, s'] c_s' per species
    for _ in range(20):
        u_b, u_d = _random_su2(rng), _random_su2(rng)
        gamma = pair_unitary(u_b, u_d)
        for u, ladders in ((u_b, [reg.b_minus, reg.b_plus]), (u_d, [reg.d_minus, reg.d_plus])):
            for s in range(2):
                lhs = gamma.conj().T @ ladders[s] @ gamma
                rhs = u[s, 0] * ladders[0] + u[s, 1] * ladders[1]
                assert sparse.max_abs(lhs - rhs) <= 1e-14


def test_conjugation_report_residuals(rng):
    for _ in range(5):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = 0.5 * (h - h.conj().T)
        a = a - 0.5 * np.trace(a) * np.eye(2)
        alpha, beta = rng.uniform(-np.pi, np.pi, 2)
        report = conjugation_report(a, float(alpha), float(beta))
        assert report.su2_residual < 1e-10
        assert report.phase_residual < 1e-10
        assert report.parity_residual < 1e-14


def test_conjugation_report_requires_su2():
    # anti-Hermitian but not traceless: det(e^A) != 1
    with pytest.raises(PreconditionError):
        conjugation_report(0.3j * np.eye(2), 0.1, 0.2)
    # traceless but not anti-Hermitian: e^A not unitary
    with pytest.raises(PreconditionError):
        conjugation_report(np.diag([0.5, -0.5]), 0.1, 0.2)


# --- tables built at import, and kernels on stacks


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_register_tables_are_built_at_import_and_read_only():
    ops = [op for op in vars(REGISTER).values() if op.ndim == 2] + list(ADJOINTS)
    for k, (c, c_dag) in enumerate(zip(REGISTER.annihilators(), ADJOINTS)):
        _same_bits(c_dag, np.ascontiguousarray(c.conj().T))
        assert creator("bd"[k // 2], k % 2) is c_dag
    cs = REGISTER.annihilators()
    for s in range(2):
        for t in range(2):
            for x in range(2):
                _same_bits(PAIR_PRODUCTS[s, t, x], ADJOINTS[2 * x + s] @ cs[2 * x + t])
    for array in (*ADJOINTS, PAIR_PRODUCTS):
        with pytest.raises(ValueError):
            array[0, 0] = 1
    for op in ops:
        table = operator_table(op)
        assert table is operator_table(op)  # read, not computed on the call
        flat = op.reshape(-1)
        _same_bits(table.positions, np.flatnonzero(flat))
        _same_bits(table.values, flat[table.positions])
        assert table.pattern == pattern_bits(op != 0)
        for array in (table.positions, table.values):
            with pytest.raises(ValueError):
                array[0] = 1
    # any other array has its table computed on the spot, with the same content
    fresh = build_register().b_plus
    table = operator_table(fresh)
    assert table is not operator_table(REGISTER.b_plus) and table is not operator_table(fresh)
    _same_bits(table.values, operator_table(REGISTER.b_plus).values)
    bad = np.eye(REGISTER_DIM, dtype=np.complex128)
    bad[3, 3] = np.inf
    # a non-finite entry is kept as a value, like any other nonzero entry
    bad_table = operator_table(bad)
    assert np.isinf(bad_table.values[3]) and len(bad_table.values) == REGISTER_DIM
    with pytest.raises(ShapeError):
        operator_table(np.eye(4))


def _loop_generator(reg, a_b, a_d):
    """The quadratic form as the sum of a[s, t] c_s' c_t, one BLAS product per term."""
    bs, ds = [reg.b_minus, reg.b_plus], [reg.d_minus, reg.d_plus]
    out = np.zeros((REGISTER_DIM, REGISTER_DIM), dtype=np.complex128)
    for s in range(2):
        for t in range(2):
            out = out + a_b[s, t] * (bs[s].conj().T @ bs[t])
            out = out + a_d[s, t] * (ds[s].conj().T @ ds[t])
    out[np.abs(out) < 1e-14] = 0
    return out


# entries of the random 2x2 forms: ordinary values, and signed zeros and a
# tiny value among them
form_entries = st.one_of(st.floats(-2.0, 2.0, allow_nan=False), st.sampled_from([0.0, -0.0, 1e-300]))


def form_stacks(max_items=4):
    """A stack (n, 2, 2) of complex forms, some diagonal."""
    entry = st.builds(complex, form_entries, form_entries)
    form = st.lists(entry, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))
    diagonal = form.map(lambda a: np.diag(np.diag(a)))
    return st.lists(st.one_of(form, diagonal), min_size=1, max_size=max_items).map(np.array)


@settings(max_examples=60, deadline=None)
@given(a_b=form_stacks(), a_d=form_stacks())
def test_register_kernels_give_each_item_its_own_bits(reg, a_b, a_d):
    n = min(len(a_b), len(a_d))
    a_b, a_d = a_b[:n], a_d[:n]
    with np.errstate(all="ignore"):
        stacked = {"unitary": pair_unitary(a_b, a_d), "exponential": pair_exponential(a_b, a_d),
                   "generator": quadratic_generator(a_b, a_d)}
        for i in range(n):
            _same_bits(stacked["unitary"][i], pair_unitary(a_b[i], a_d[i]))
            _same_bits(stacked["exponential"][i], pair_exponential(a_b[i], a_d[i]))
            _same_bits(stacked["generator"][i], quadratic_generator(a_b[i], a_d[i]))
            _same_bits(stacked["generator"][i], _loop_generator(reg, a_b[i], a_d[i]))


@settings(max_examples=30, deadline=None)
@given(h=st.lists(st.lists(bounded_reals, min_size=8, max_size=8), min_size=1, max_size=4),
       angles=st.lists(st.floats(-np.pi, np.pi), min_size=8, max_size=8))
def test_conjugation_report_gives_each_item_its_own_bits(h, angles):
    forms = []
    for v in h:
        x = np.array(v[:4]).reshape(2, 2) + 1j * np.array(v[4:]).reshape(2, 2)
        a = 0.5 * (x - x.conj().T)
        forms.append(a - 0.5 * np.trace(a) * np.eye(2))
    a = np.array(forms)
    alpha, beta = np.array(angles[:len(a)]), np.array(angles[4:4 + len(a)])
    report = conjugation_report(a, alpha, beta)
    for i in range(len(a)):
        alone = conjugation_report(a[i], alpha[i], beta[i])
        for name in ("su2_residual", "phase_residual", "parity_residual"):
            assert getattr(report, name).shape == (len(a),)
            assert getattr(alone, name).shape == ()  # one form: the stack of shape ()
            _same_bits(getattr(report, name)[i], getattr(alone, name))


def test_diagonal_conjugation_is_the_contraction_bitwise(reg, rng):
    # e^{+-Y} of the phase generator is diagonal: its conjugation is the
    # same contraction as any other, signed zeros included
    def contraction(inv, op, conj):
        return np.einsum("...ij,...jk->...ik", np.einsum("...ij,...jk->...ik", inv, op), conj)

    for _ in range(20):
        d = rng.standard_normal((2, REGISTER_DIM)) + 1j * rng.standard_normal((2, REGISTER_DIM))
        d[:, rng.random(REGISTER_DIM) < 0.2] = complex(-0.0, 0.0)
        inv, conj = (np.diag(v) for v in d)
        for op in (*reg.annihilators(), reg.parity, rng.standard_normal((16, 16)) + 0j):
            _same_bits(register._conjugate(inv, op, conj), contraction(inv, op, conj))
    # a non-finite factor keeps the contraction, which spreads it along its row
    inv[2, 2] = np.nan
    got = register._conjugate(inv, reg.parity, conj)
    _same_bits(got, contraction(inv, reg.parity, conj))
    assert np.isnan(got[2]).all()


def test_pair_exponential_residual_at_seed_3_is_pinned():
    # a stacked determinant formed by numpy's array multiply, which fuses
    # multiply-adds, read 2.6737711109153336e-14 here
    config = dataclasses.replace(default_config(), seed=3)
    record = next(r for r in run_suite("jw_car", config) if r.check == "pair_exponential")
    assert record.residual == 3.4168906036440466e-14
