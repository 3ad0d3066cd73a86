"""Mode-block operators against CSR references.

Each builder reference below is built one coefficient at a time as
coeff * kron(|i><j|, register operator), the way the operators read in
their docstrings.  The assembled operators, taken to CSR by embed, must
match it bitwise, with the same stored entries.  The block algebra
(products, sums, adjoints, commutators) must equal the same operations on
the embedded CSR matrices.
"""

import functools

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from carfield import modes as modes_module
from carfield import register, sparse, spinors, suites, symmetries
from carfield.config import default_config
from carfield.errors import ShapeError
from carfield.modes import (
    ModeBlocks,
    SingleOscillatorSpace,
    _zero_blocks,
    field_operator,
    grid_lattice,
    mode_annihilator,
    mode_projector,
    mode_sum,
    rapidity_lattice,
    restricted_lattice,
    shift_range,
    smeared_annihilator,
)
from carfield.register import REGISTER, REGISTER_DIM, build_register, pair_unitary
from carfield.suites import run_suite

from conftest import (
    assert_same_csr,
    number_operator,
    random_table,
    scipy_nonzero,
    to_scipy,
)


@pytest.fixture(scope="module")
def grid_space():
    return SingleOscillatorSpace(grid_lattice(2, 1.0, 1.0))


@pytest.fixture(params=["rapidity", "grid"])
def space(request, default_space, grid_space):
    return default_space if request.param == "rapidity" else grid_space


def _ket_bra(space, i, j):
    m = np.zeros((space.lattice.size, space.lattice.size), dtype=np.complex128)
    m[i, j] = 1.0
    return to_scipy(sparse.asoperator(m))


def _kron(space, i, j, reg_op):
    """|i><j| x reg_op as a scipy matrix."""
    return scipy.sparse.kron(_ket_bra(space, i, j), reg_op, format="csr")


def _kron_sum(space, terms):
    """sum of coeff * |i><j| x reg_op over (i, j, coeff, reg_op), one scipy kron each."""
    out = scipy.sparse.csr_matrix((space.dim, space.dim), dtype=np.complex128)
    for i, j, coeff, reg_op in terms:
        if coeff != 0:
            out = out + coeff * _kron(space, i, j, reg_op)
    return out


def _assert_same(got, ref):
    """got stores exactly the nonzero entries of the scipy matrix ref, value for value."""
    assert_same_csr(got, scipy_nonzero(ref))


def test_embed_places_blocks_and_shifts(default_space):
    m = default_space.lattice.size
    blocks = np.zeros((m, REGISTER_DIM, REGISTER_DIM), dtype=np.complex128)
    blocks[:] = REGISTER.b_minus
    shifted = default_space.embed(ModeBlocks(blocks, 2))
    ref = _kron_sum(
        default_space,
        [(i, i - 2, 1.0, REGISTER.b_minus) for i in range(2, m)],
    )
    _assert_same(shifted, ref)
    # rows of the first two modes have no source on the lattice
    assert shifted.indptr[2 * REGISTER_DIM] == 0
    assert default_space.embed(ModeBlocks(blocks, m)).nnz == 0


def test_embed_rejects_wrong_stack(default_space):
    m = default_space.lattice.size
    for shape in ((m, REGISTER_DIM, REGISTER_DIM - 1), (m - 1, REGISTER_DIM, REGISTER_DIM),
                  (REGISTER_DIM, REGISTER_DIM)):
        with pytest.raises(ShapeError):
            default_space.embed(ModeBlocks(np.zeros(shape)))


def test_mode_ladders_and_projectors(space):
    for i in (0, space.lattice.size - 1):
        w = space.lattice.weights[i]
        ref = _kron(space, i, i, REGISTER.identity) / w
        _assert_same(space.embed(mode_projector(space, i)), ref)
        for species in ("b", "d"):
            for s in (0, 1):
                ref = _kron(space, i, i, REGISTER.ladder(species, s)) / w
                _assert_same(space.embed(mode_annihilator(space, i, s, species)), ref)


def test_mode_sum_over_a_range(space):
    m = space.lattice.size
    w = space.lattice.weights
    for lo, hi in ((0, m), (1, m - 1), (m - 1, m), (2, 2)):
        ref = _kron_sum(space, [(i, i, 1.0 / w[i], REGISTER.b_plus) for i in range(lo, hi)])
        _assert_same(space.embed(mode_sum(space, REGISTER.b_plus, (lo, hi))), ref)
    _assert_same(space.embed(mode_sum(space, REGISTER.b_plus)),
                 to_scipy(space.embed(mode_sum(space, REGISTER.b_plus, (0, m)))))
    # a range off the lattice would silently give fewer modes
    for bad in ((-1, 0), (0, m + 1), (m, m + 1), (2, 1)):
        with pytest.raises(ShapeError):
            mode_sum(space, REGISTER.b_plus, bad)
    with pytest.raises(ShapeError):
        mode_annihilator(space, m, 0, "b")


def test_smeared_annihilator(space, rng):
    f = random_table(rng, space.lattice.size)
    f[0, 1] = 0.0
    for species in ("b", "d"):
        terms = [
            (i, i, np.conj(f[i, s]), REGISTER.ladder(species, s))
            for i in range(space.lattice.size) for s in (0, 1)
        ]
        _assert_same(space.embed(smeared_annihilator(space, f, species)),
                     _kron_sum(space, terms))


def test_field_operator_components(space, rng):
    x = rng.uniform(-1, 1, 4)
    for conjugate in (False, True):
        ann, cre = ("d", "b") if conjugate else ("b", "d")
        for alpha in range(4):
            terms = []
            for i, p in enumerate(space.lattice.momenta):
                phase = np.exp(-1j * spinors.dot_point(p, x))
                for s in (0, 1):
                    terms.append((i, i, space.pos_table[i, s, alpha] * phase,
                                  REGISTER.ladder(ann, s)))
                    terms.append((i, i, space.neg_table[i, s, alpha] * np.conj(phase),
                                  REGISTER.ladder(cre, 1 - s).conj().T))
            _assert_same(space.embed(field_operator(space, x, alpha, conjugate=conjugate)),
                         _kron_sum(space, terms))


def test_four_momentum(space):
    base = (
        number_operator(REGISTER, "b") + number_operator(REGISTER, "d") - 2 * REGISTER.identity
    )
    for a, got in enumerate(symmetries.four_momentum(space)):
        terms = [
            (i, i, (p[0], -p[1], -p[2], -p[3])[a], base)
            for i, p in enumerate(space.lattice.momenta)
        ]
        _assert_same(space.embed(got), _kron_sum(space, terms))


@pytest.mark.parametrize("steps", [1, -1, 6, -6])
def test_boost_unitary(default_space, steps):
    lattice = default_space.lattice
    js = lattice.j_values
    boost = symmetries.boost_unitary(default_space, steps)
    mixers = [pair_unitary(w, w) for w in boost.wigner]
    # |j + steps><j| x mixer(j + steps) for every j whose image stays on the lattice
    terms = [
        (col + steps, col, 1.0, mixers[col + steps])
        for col, j in enumerate(js) if j + steps in js
    ]
    unitary = default_space.embed(boost.unitary)
    _assert_same(unitary, _kron_sum(default_space, terms))
    dropped = [col for col, j in enumerate(js) if j + steps not in js]
    assert len(dropped) == abs(steps)
    dense = unitary.toarray().reshape(lattice.size, REGISTER_DIM, lattice.size, REGISTER_DIM)
    assert not dense[:, :, dropped, :].any()


# --- the block algebra against the same operations on embedded CSR

@functools.cache
def _space_of(modes):
    """A space with the given number of lattice modes (1 to 4)."""
    return SingleOscillatorSpace(
        restricted_lattice(rapidity_lattice(2, 0.4, 1.0), tuple(range(modes)))
    )


def _random_stack(rng, modes, integer):
    """Sparse small-integer blocks, or dense complex ones; some blocks are zero."""
    shape = (modes, REGISTER_DIM, REGISTER_DIM)
    if integer:
        stack = rng.integers(-2, 3, shape) * (rng.random(shape) < 0.1)
        stack = stack + 1j * rng.integers(-1, 2, shape) * (rng.random(shape) < 0.05)
    else:
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack[rng.random(modes) < 0.3] = 0
    return stack


def _same_as_csr(space, got, want, scale, integer):
    diff = sparse.max_abs(space.embed(got) - want)
    assert diff == 0.0 if integer else diff <= 1e-15 * scale


@settings(max_examples=60, deadline=None)
@given(modes=st.integers(1, 4), shifts=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       integer=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_algebra_matches_csr(modes, shifts, integer, seed):
    rng = np.random.default_rng(seed)
    space = _space_of(modes)
    s_a, s_b = (max(-modes, min(modes, s)) for s in shifts)
    a = ModeBlocks(_random_stack(rng, modes, integer), s_a)
    b = ModeBlocks(_random_stack(rng, modes, integer), s_b)
    b_same = ModeBlocks(_random_stack(rng, modes, integer), s_a)
    big_a, big_b, big_same = space.embed(a), space.embed(b), space.embed(b_same)
    norm_a, norm_b = a.max_abs(), b.max_abs()
    product_scale = REGISTER_DIM * norm_a * norm_b

    assert norm_a == sparse.max_abs(big_a)
    _same_as_csr(space, a @ b, big_a @ big_b, product_scale, integer)
    _same_as_csr(space, a + b_same, big_a + big_same, norm_a + b_same.max_abs(), integer)
    _same_as_csr(space, a - b_same, big_a - big_same, norm_a + b_same.max_abs(), integer)
    _same_as_csr(space, (2 - 0.5j) * a, (2 - 0.5j) * big_a, norm_a, integer)
    _same_as_csr(space, a / 4, big_a / 4, norm_a, integer)
    _same_as_csr(space, a.adjoint(), sparse.adjoint(big_a), norm_a, integer)
    assert (a.adjoint().shift, (a @ b).shift) == (-s_a, s_a + s_b)
    _same_as_csr(space, a.commutator(b), sparse.commutator(big_a, big_b),
                 2 * product_scale, integer)
    _same_as_csr(space, a.anticommutator(b), sparse.anticommutator(big_a, big_b),
                 2 * product_scale, integer)
    if s_a != s_b:
        with pytest.raises(ShapeError):
            a + b


def test_block_stack_drops_blocks_off_the_lattice(default_space):
    m = default_space.lattice.size
    stack = np.ones((m, REGISTER_DIM, REGISTER_DIM), dtype=np.complex128)
    op = ModeBlocks(stack, shift=3)
    assert not op.stack[:3].any() and op.stack[3:].all()
    assert stack.all()  # the caller's array is not modified
    assert not ModeBlocks(stack, shift=-m).stack.any()
    # numpy integer shifts are read as ints
    back = ModeBlocks(stack, np.int64(-1))
    assert type(back.shift) is int and not back.stack[-1].any() and back.stack[:-1].all()
    assert type(ModeBlocks(np.zeros_like(stack), np.int32(2)).shift) is int
    with pytest.raises(ShapeError):
        ModeBlocks(stack[:, :4])
    with pytest.raises(ShapeError):
        op @ ModeBlocks(stack[:2])


@pytest.mark.parametrize("shift", [1.7, 1.0, True, np.True_, "1", None])
def test_a_shift_must_be_an_integer(shift):
    # int() would read 1.7 and 1.0 as 1 and True as 1
    with pytest.raises(ShapeError):
        ModeBlocks(np.zeros((3, REGISTER_DIM, REGISTER_DIM)), shift)


def test_shift_range_is_the_brute_force_source_mask():
    for modes in range(1, 14):
        for shift in range(-modes - 1, modes + 2):
            src = np.arange(modes) - shift
            lo, hi = shift_range(modes, shift)
            assert 0 <= lo <= hi <= modes
            np.testing.assert_array_equal(np.arange(lo, hi),
                                          np.flatnonzero((src >= 0) & (src < modes)))


def test_commutators_keep_rounding_like_csr(default_space, rng):
    # b equals a up to rounding, so [a, b] is rounding noise of about 5e-16;
    # both routes store it, entry for entry
    m = default_space.lattice.size
    a = ModeBlocks(0.3 * _random_stack(rng, m, integer=False))
    b = a / 3 * 3
    comm = a.commutator(b)
    want = sparse.commutator(default_space.embed(a), default_space.embed(b))
    assert_same_csr(default_space.embed(comm), to_scipy(want))
    assert 0 < comm.max_abs() < 1e-14
    anti = a.anticommutator(b)
    want = sparse.anticommutator(default_space.embed(a), default_space.embed(b))
    assert sparse.max_abs(default_space.embed(anti) - want) == 0.0


# --- the planned product against a dense einsum reference

def _dense_product(a, b):
    """a @ b as one dense einsum over the live block pairs, every term of every entry."""
    src = np.arange(len(a.stack)) - a.shift
    valid = (src >= 0) & (src < len(a.stack))
    dst = np.flatnonzero(a.stack.any(axis=(1, 2)) & valid)
    src = src[dst]
    live = b.stack[src].any(axis=(1, 2))
    dst, src = dst[live], src[live]
    out = np.zeros_like(a.stack)
    if len(dst):
        out[dst] = np.einsum("nij,njk->nik", a.stack[dst], b.stack[src])
    return out


def _ladder_blocks(rng, modes):
    """Per mode, a random complex combination of two or three register ladders or their adjoints."""
    reg = build_register()
    ladders = [reg.ladder(sp, s) for sp in ("b", "d") for s in (0, 1)]
    ladders += [op.conj().T for op in ladders]
    stack = np.zeros((modes, REGISTER_DIM, REGISTER_DIM), dtype=np.complex128)
    for i in range(modes):
        for k in rng.choice(len(ladders), size=rng.integers(2, 4), replace=False):
            stack[i] += complex(*rng.standard_normal(2)) * ladders[k]
    return stack


def _stack_of(kind, rng, modes):
    shape = (modes, REGISTER_DIM, REGISTER_DIM)
    if kind == "zero":
        return np.zeros(shape, dtype=np.complex128)
    if kind == "ladder":
        stack = _ladder_blocks(rng, modes)
    elif kind == "dense":
        # every entry nonzero, so every output entry sums 16 terms
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    else:  # "single": one live block of scattered entries
        stack = np.zeros(shape, dtype=np.complex128)
        i = rng.integers(modes)
        stack[i] = (rng.standard_normal(shape[1:]) + 1j * rng.standard_normal(shape[1:])) \
            * (rng.random(shape[1:]) < 0.3)
        return stack
    stack[rng.random(modes) < 0.25] = 0
    return stack


def _same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # the bits, whatever the strides


KINDS = st.sampled_from(["ladder", "dense", "zero", "single"])


@settings(max_examples=150, deadline=None)
@given(modes=st.integers(1, 5), kinds=st.tuples(KINDS, KINDS), shift_seeds=st.tuples(
    st.integers(0, 10), st.integers(0, 10)), seed=st.integers(0, 2**32 - 1))
def test_planned_product_equals_dense_einsum_bitwise(modes, kinds, shift_seeds, seed):
    rng = np.random.default_rng(seed)
    # every shift in [-modes, modes]
    s_a, s_b = (s % (2 * modes + 1) - modes for s in shift_seeds)
    a = ModeBlocks(_stack_of(kinds[0], rng, modes), s_a)
    b = ModeBlocks(_stack_of(kinds[1], rng, modes), s_b)
    want = _dense_product(a, b)
    modes_module._product_plan.cache_clear()
    cold = a @ b
    warm = ModeBlocks(a.stack.copy(), s_a) @ ModeBlocks(b.stack.copy(), s_b)
    assert modes_module._product_plan.cache_info().hits >= 1 or not want.any()
    assert cold.shift == warm.shift == s_a + s_b
    _same_bits(cold.stack, want)
    _same_bits(warm.stack, want)


def test_planned_product_on_the_default_lattice(default_space, rng):
    m = default_space.lattice.size
    field = field_operator(default_space, rng.uniform(-1, 1, 4), 2)
    boost = symmetries.boost_unitary(default_space, 2).unitary
    ladder = mode_annihilator(default_space, 4, 1, "d")
    for a, b in [(field, field.adjoint()), (boost.adjoint(), field), (field, boost),
                 (ladder, boost), (boost, ladder.adjoint()), (ladder, ladder.adjoint()),
                 (ModeBlocks(_stack_of("dense", rng, m), -3), boost)]:
        _same_bits((a @ b).stack, _dense_product(a, b))
    # no live block pair: modes 4 and 7 never meet
    other = mode_annihilator(default_space, 7, 0, "b")
    assert not (ladder @ other.adjoint()).stack.any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(-np.inf, np.nan)])
def test_nonfinite_entries_meet_zeros_as_in_the_csr_product(bad):
    space = _space_of(3)
    a = np.zeros((3, REGISTER_DIM, REGISTER_DIM), dtype=np.complex128)
    b = np.zeros_like(a)
    a[0, 2, 5] = 1.5
    a[1, 2, 7] = 2.0 - 1j  # column 5 is zero in this block only
    b[1, 5, 3] = bad       # meets that zero
    b[1, 7, 3] = 1.0
    b[2, 4, 4] = bad       # block 2 of a is zero
    b[0, 9, 1] = bad       # column 9 of a is zero in every block
    a, b = ModeBlocks(a), ModeBlocks(b)
    got = space.embed(a @ b).toarray()
    want = (space.embed(a) @ space.embed(b)).toarray()
    np.testing.assert_array_equal(got, want)
    assert np.isfinite(got).all() and got[16 + 2, 16 + 3] == 2.0 - 1j
    # a dense einsum multiplies each zero with the bad entry
    assert np.isnan(_dense_product(a, b)[1, 2, 3])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nonfinite_entry_on_a_live_term_reaches_max_abs(bad):
    space = _space_of(3)
    a = np.zeros((3, REGISTER_DIM, REGISTER_DIM), dtype=np.complex128)
    a[1, 2, 5] = bad
    a[1, 2, 7] = 1.0
    b = a.copy()
    b[1, 5, 3] = b[1, 7, 3] = 1.0
    a, b = ModeBlocks(a), ModeBlocks(b)
    product = a @ b
    want = (space.embed(a) @ space.embed(b)).toarray()
    np.testing.assert_array_equal(space.embed(product).toarray(), want)
    assert not np.isfinite(want).all()
    # no residual hides it: a NaN stays NaN, and an inf stays inf or becomes NaN
    # (inf - inf), so each residual fails any tolerance
    with np.errstate(invalid="ignore"):
        residuals = [product.max_abs(), a.commutator(b).max_abs(),
                     a.anticommutator(b).max_abs(), (product - product).max_abs()]
    if np.isnan(bad):
        assert all(np.isnan(r) for r in residuals)
    else:
        assert not any(r <= 1.0 for r in residuals)


def test_the_zero_operator_is_shared_and_read_only(default_space):
    m = default_space.lattice.size
    zero = _zero_blocks(m, -2)
    assert zero is _zero_blocks(m, -2) and zero.shift == -2
    assert zero is not _zero_blocks(m, 2) and _zero_blocks(m, 2).shift == 2
    with pytest.raises(ValueError):
        zero.stack[0, 0, 0] = 1.0
    assert zero.max_abs() == 0.0 and not zero.stack.any()
    assert zero.stack.strides == (0, 0, 0)  # no memory per mode: one is cached per (M, shift)
    # disjoint products and sums of empty operands are it, at their shift
    first, last = mode_projector(default_space, 0), mode_projector(default_space, m - 1)
    assert first @ last is _zero_blocks(m, 0)
    # mode 1 from mode 0, twice: the second step would need mode -1
    step = ModeBlocks(mode_annihilator(default_space, 1, 1, "b").stack, 1)
    assert step.max_abs() > 0 and step @ step is _zero_blocks(m, 2)
    assert zero + zero is zero and zero - ModeBlocks(np.zeros((m, 16, 16)), -2) is zero
    # a sum with a live operand is a new operator
    total = _zero_blocks(m, 0) + first
    assert total is not first and total.max_abs() == first.max_abs()


# parts a block may hold besides ordinary values
SPECIAL_PARTS = [np.nan, np.inf, -np.inf, -0.0, 1e-300]


def test_brackets_of_disjoint_operands_are_the_shared_zero(default_space):
    a = mode_annihilator(default_space, 4, 1, "b")
    b = mode_annihilator(default_space, 7, 0, "d")
    m = default_space.lattice.size
    assert a.anticommutator(b.adjoint()) is _zero_blocks(m, 0)
    assert a.commutator(b) is _zero_blocks(m, 0)
    with pytest.raises(ShapeError):
        a.anticommutator(_zero_blocks(m + 1, 0))


def _dense_mode_blocks(coeffs, reg_ops):
    """The assembly as one einsum of every coefficient with every operator entry."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    ops = np.reshape(np.asarray(reg_ops, dtype=np.complex128), (len(reg_ops), -1))
    support = ops[coeffs.any(axis=0)].any(axis=0)
    rows = np.flatnonzero(coeffs.any(axis=1))
    out = np.zeros((len(coeffs), REGISTER_DIM**2), dtype=np.complex128)
    if len(rows):
        lo, hi = rows[0], rows[-1] + 1
        out[lo:hi, support] = np.einsum("ik,kt->it", coeffs[lo:hi], ops[:, support])
    return out.reshape(-1, REGISTER_DIM, REGISTER_DIM)


OPERATOR_KINDS = st.sampled_from(["ladder", "creator", "parity", "identity", "copy", "dense",
                                  "overlap", "inf"])


def _register_operator(kind, rng):
    reg = register.REGISTER
    if kind in ("ladder", "creator"):
        ops = reg.annihilators() if kind == "ladder" else register.ADJOINTS
        return ops[rng.integers(4)]
    if kind == "copy":  # a register operator that is not one of REGISTER's arrays
        return reg.d_plus.copy()
    if kind == "dense":
        return rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    if kind == "overlap":  # shares entries with the identity and the parity
        return np.diag(rng.standard_normal(16)) + 0j
    if kind == "inf":
        op = reg.b_minus.copy()
        op[3, 3] = np.inf
        return op
    return reg.parity if kind == "parity" else reg.identity


def _table_mode_blocks(coeffs, reg_ops):
    """The assembly by the per-operator table rule, one operator at a time.

    On the modes from the first to the last nonzero row of coeffs, each
    operator with a nonzero coefficient writes its coefficient column times
    its own nonzero entries, and nothing else: a non-finite coefficient or
    entry meets no other operator's entries.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    out = np.zeros((len(coeffs), REGISTER_DIM**2), dtype=np.complex128)
    rows = np.flatnonzero(coeffs.any(axis=1))
    for k, op in enumerate(reg_ops):
        flat = np.asarray(op, dtype=np.complex128).reshape(-1)
        if len(rows) and coeffs[:, k].any():
            lo, hi = rows[0], rows[-1] + 1
            positions = np.flatnonzero(flat)
            out[lo:hi, positions] = np.einsum("i,t->it", coeffs[lo:hi, k], flat[positions])
    return out.reshape(-1, REGISTER_DIM, REGISTER_DIM)


@settings(max_examples=150, deadline=None)
@given(modes=st.integers(1, 5), kinds=st.lists(OPERATOR_KINDS, min_size=1, max_size=4),
       special=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_mode_blocks_equal_one_dense_einsum_bitwise(modes, kinds, special, seed):
    # register tables and tables made on the spot: operators on disjoint
    # supports give the dense einsum's bits where all is finite, and the
    # per-operator table rule's bits with a non-finite entry or
    # coefficient; operators that share an entry are refused
    rng = np.random.default_rng(seed)
    ops = [_register_operator(kind, rng) for kind in kinds]
    coeffs = rng.standard_normal((modes, len(ops))) + 1j * rng.standard_normal((modes, len(ops)))
    coeffs[rng.random(coeffs.shape) < 0.3] = 0
    coeffs[rng.random(modes) < 0.3] = 0
    if special:
        coeffs.real.flat[rng.integers(coeffs.size)] = rng.choice(SPECIAL_PARTS)
        coeffs.imag.flat[rng.integers(coeffs.size)] = rng.choice(SPECIAL_PARTS)
    used = coeffs.any(axis=0)
    if np.sum([op != 0 for op, on in zip(ops, used) if on], axis=0).max(initial=0) > 1:
        with pytest.raises(ShapeError, match="disjoint supports"):
            modes_module.mode_blocks(coeffs, ops)
        return
    with np.errstate(invalid="ignore", over="ignore"):
        got = modes_module.mode_blocks(coeffs, ops)
        if np.isfinite(coeffs).all() and np.isfinite(ops).all():
            _same_bits(got.stack, _dense_mode_blocks(coeffs, ops))
        _same_bits(got.stack, _table_mode_blocks(coeffs, ops))
    live = np.flatnonzero(coeffs.any(axis=1))
    assert got._live == ((live[0], live[-1] + 1) if len(live) else (0, 0))
    assert got._pattern == register.pattern_bits(
        np.any([op != 0 for op, on in zip(ops, used) if on], axis=0))


def test_mode_sum_writes_its_range_as_the_dense_einsum(space):
    reg = build_register()
    m = space.lattice.size
    for lo, hi in [(0, m), (1, m - 1), (m - 1, m), (2, 2)]:
        coeffs = np.zeros((m, 1))
        coeffs[lo:hi, 0] = 1.0 / space.lattice.weights[lo:hi]
        for op in (reg.b_plus, register.REGISTER.b_plus, register.REGISTER.identity):
            got = mode_sum(space, op, (lo, hi))
            _same_bits(got.stack, _dense_mode_blocks(coeffs, [op]))
            assert got._live == ((lo, hi) if lo < hi else (0, 0))


def test_a_nan_central_coefficient_fails_smeared_car(monkeypatch):
    # smeared_car assembles sum_i w <f,g>_i central_i as one mode_blocks call;
    # a NaN coefficient on one mode must reach its residual and fail it
    real_mode_blocks = modes_module.mode_blocks
    calls = []

    def nan_on_mode_3(coeffs, reg_ops):
        if len(reg_ops) == 1 and reg_ops[0] is register.REGISTER.identity:
            coeffs = np.array(coeffs)
            coeffs[3, 0] = np.nan
            calls.append(coeffs.shape)
        return real_mode_blocks(coeffs, reg_ops)

    monkeypatch.setattr(suites, "mode_blocks", nan_on_mode_3)
    records = {r.check: r for r in run_suite("mode_space", default_config())}
    assert calls == [(13, 1)]
    assert np.isnan(records["smeared_car"].residual) and not records["smeared_car"].passed
    assert records["vacuum_profile"].passed and records["car_central"].passed


def test_a_nonzero_disjoint_product_fails_the_car_checks(monkeypatch):
    # the car checks meet disjoint-mode products, in the two products of
    # each anticommutator; if one of them came out nonzero, car_central or
    # car_zero must say so
    anticommutator = ModeBlocks.anticommutator
    faults = []

    def faulty(self, other):
        out = anticommutator(self, other)
        if not faults and out is _zero_blocks(len(out.stack), out.shift):
            faults.append(out.shift)
            return ModeBlocks(np.full(out.stack.shape, 1e-9, dtype=np.complex128), out.shift)
        return out

    monkeypatch.setattr(ModeBlocks, "anticommutator", faulty)
    records = {r.check: r for r in run_suite("mode_space", default_config())}
    assert faults
    assert not (records["car_central"].passed and records["car_zero"].passed)
