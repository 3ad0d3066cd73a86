"""Shared fixtures: one register, a default lattice, and small engine lattices.

Also the scipy.sparse bridge: scipy is the tests' independent reference for
carfield's own CSR type, and carfield itself never imports it.
"""

import numpy as np
import pytest
import scipy.sparse

from carfield import sparse
from carfield.modes import (
    SingleOscillatorSpace,
    gaussian_profile,
    rapidity_lattice,
    restricted_lattice,
    uniform_profile,
)
from carfield.register import build_register


@pytest.fixture(scope="session")
def reg():
    return build_register()


@pytest.fixture(scope="session")
def default_lattice():
    return rapidity_lattice(6, 0.4, 1.0)


@pytest.fixture(scope="session")
def default_space(default_lattice):
    return SingleOscillatorSpace(default_lattice)


@pytest.fixture(scope="session")
def default_profile(default_lattice):
    return gaussian_profile(default_lattice)


# small lattices the pattern walk runs on: one mode, and two modes one
# rapidity step apart
@pytest.fixture(scope="session")
def single_lattice():
    return rapidity_lattice(0, 0.4, 1.0)


@pytest.fixture(scope="session")
def single_space(single_lattice):
    return SingleOscillatorSpace(single_lattice)


@pytest.fixture(scope="session")
def single_profile(single_lattice):
    return uniform_profile(single_lattice)


@pytest.fixture(scope="session")
def double_lattice():
    return restricted_lattice(rapidity_lattice(1, 0.4, 1.0), (0, 2))


@pytest.fixture(scope="session")
def double_space(double_lattice):
    return SingleOscillatorSpace(double_lattice)


@pytest.fixture(scope="session")
def double_profile(double_lattice):
    return uniform_profile(double_lattice)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def random_table(rng, modes):
    return rng.standard_normal((modes, 2)) + 1j * rng.standard_normal((modes, 2))


def to_scipy(op):
    """A copy of a carfield operator as a scipy CSR matrix."""
    return scipy.sparse.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape, copy=True)


def scipy_nonzero(m):
    """The storage rule applied to a scipy matrix: a copy without its exact zeros."""
    m = scipy.sparse.csr_matrix(m, copy=True)
    m.eliminate_zeros()
    return m


def assert_same_csr(got, want):
    """A carfield operator holds the same CSR arrays as a scipy matrix, value for value."""
    want = scipy.sparse.csr_matrix(want, copy=True)
    want.sort_indices()  # a scipy product leaves its columns unsorted; sorting moves no value
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data, equal_nan=True)


def assert_same_bytes(got, want):
    """Equal CSR arrays down to the sign of every zero part."""
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def zero_operator(dim):
    return sparse.SparseOperator.from_coo([], [], [], (dim, dim))


def identity_operator(dim):
    return sparse.asoperator(np.eye(dim))


def number_operator(reg, species):
    """Sum over spins of c_s' c_s for one species, as a dense register matrix."""
    ladders = [reg.ladder(species, s) for s in (0, 1)]
    return sum(c.conj().T @ c for c in ladders)
