"""The mode-block assembler against a per-mode kron reference.

Each reference below is built one coefficient at a time as
coeff * kron(|i><j|, register operator), the way the operators read in
their docstrings.  The assembled operators must match it bitwise, with the
same stored entries.
"""

import numpy as np
import pytest

from carfield import sparse, symmetries
from carfield.errors import ShapeError
from carfield.modes import (
    SingleOscillatorSpace,
    field_operator,
    grid_lattice,
    mode_annihilator,
    mode_projector,
    smeared_annihilator,
)
from carfield.register import REGISTER_DIM, number_operator, quadratic_exponential
from carfield.spinors import mixing_generator

from conftest import random_table


@pytest.fixture(scope="module")
def grid_space():
    return SingleOscillatorSpace(grid_lattice(2, 1.0, 1.0))


@pytest.fixture(params=["rapidity", "grid"])
def space(request, default_space, grid_space):
    return default_space if request.param == "rapidity" else grid_space


def _ket_bra(space, i, j):
    m = np.zeros((space.lattice.size, space.lattice.size), dtype=np.complex128)
    m[i, j] = 1.0
    return sparse.asoperator(m)


def _kron_sum(space, terms):
    """sum of coeff * |i><j| x reg_op over (i, j, coeff, reg_op), one kron each."""
    out = sparse.zeros(space.dim)
    for i, j, coeff, reg_op in terms:
        if coeff != 0:
            out = out + coeff * sparse.tensor_product(_ket_bra(space, i, j), reg_op)
    return sparse.prune(out)


def _assert_same(got, ref):
    assert sparse.max_abs(got - ref) == 0.0
    assert got.nnz == ref.nnz


def test_embed_places_blocks_and_shifts(default_space):
    m = default_space.lattice.size
    blocks = np.zeros((m, REGISTER_DIM, REGISTER_DIM), dtype=np.complex128)
    blocks[:] = default_space.register.b_minus.toarray()
    shifted = default_space.embed(blocks, shift=2)
    ref = _kron_sum(
        default_space,
        [(i, i - 2, 1.0, default_space.register.b_minus) for i in range(2, m)],
    )
    _assert_same(shifted, ref)
    # rows of the first two modes have no source on the lattice
    assert shifted[: 2 * REGISTER_DIM].nnz == 0
    assert default_space.embed(blocks, shift=m).nnz == 0


def test_embed_rejects_wrong_stack(default_space):
    m = default_space.lattice.size
    for shape in ((m, REGISTER_DIM, REGISTER_DIM - 1), (m - 1, REGISTER_DIM, REGISTER_DIM),
                  (REGISTER_DIM, REGISTER_DIM)):
        with pytest.raises(ShapeError):
            default_space.embed(np.zeros(shape))


def test_mode_ladders_and_projectors(space):
    reg = space.register
    for i in (0, space.lattice.size - 1):
        w = space.lattice.weights[i]
        ref = sparse.prune(sparse.tensor_product(_ket_bra(space, i, i), reg.identity) / w)
        _assert_same(mode_projector(space, i), ref)
        for species in ("b", "d"):
            for s in (0, 1):
                ref = sparse.prune(
                    sparse.tensor_product(_ket_bra(space, i, i), reg.ladder(species, s)) / w
                )
                _assert_same(mode_annihilator(space, i, s, species), ref)


def test_smeared_annihilator(space, rng):
    f = random_table(rng, space.lattice.size)
    f[0, 1] = 0.0
    for species in ("b", "d"):
        terms = [
            (i, i, np.conj(f[i, s]), space.register.ladder(species, s))
            for i in range(space.lattice.size) for s in (0, 1)
        ]
        _assert_same(smeared_annihilator(space, f, species), _kron_sum(space, terms))


def test_field_operator_components(space, rng):
    x = rng.uniform(-1, 1, 4)
    reg = space.register
    for conjugate in (False, True):
        ann, cre = ("d", "b") if conjugate else ("b", "d")
        for alpha in range(4):
            terms = []
            for i, p in enumerate(space.lattice.points):
                phase = np.exp(-1j * p.dot_point(x))
                for s in (0, 1):
                    terms.append((i, i, space.pos_table[i, s, alpha] * phase,
                                  reg.ladder(ann, s)))
                    terms.append((i, i, space.neg_table[i, s, alpha] * np.conj(phase),
                                  sparse.adjoint(reg.ladder(cre, 1 - s))))
            _assert_same(field_operator(space, x, alpha, conjugate=conjugate),
                         _kron_sum(space, terms))


def test_four_momentum(space):
    reg = space.register
    base = (
        number_operator(reg, "b") + number_operator(reg, "d") - 2 * sparse.identity(REGISTER_DIM)
    )
    for a, got in enumerate(symmetries.four_momentum(space)):
        terms = [
            (i, i, (p.E, -p.px, -p.py, -p.pz)[a], base)
            for i, p in enumerate(space.lattice.points)
        ]
        _assert_same(got, _kron_sum(space, terms))


@pytest.mark.parametrize("steps", [1, -1, 6, -6])
def test_boost_unitary(default_space, steps):
    lattice = default_space.lattice
    js = lattice.j_values
    boost = symmetries.boost_unitary(default_space, steps)
    mixers = [quadratic_exponential(mixing_generator(u)) for u in boost.wigner]
    # |j + steps><j| x mixer(j + steps) for every j whose image stays on the lattice
    terms = [
        (col + steps, col, 1.0, mixers[col + steps])
        for col, j in enumerate(js) if j + steps in js
    ]
    _assert_same(boost.unitary, _kron_sum(default_space, terms))
    dropped = [col for col, j in enumerate(js) if j + steps not in js]
    assert len(dropped) == abs(steps)
    dense = boost.unitary.toarray().reshape(lattice.size, REGISTER_DIM, lattice.size, REGISTER_DIM)
    assert not dense[:, :, dropped, :].any()
