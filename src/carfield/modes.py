"""Momentum lattices and the single-oscillator space.

A lattice is a finite quadrature rule for the invariant measure on the
mass-m hyperboloid.  The single-oscillator Hilbert space is (lattice modes)
x (16-dim register); the internal mode basis is orthonormal, |i> =
sqrt(w_i) |p_i>, so the resolution of unity sum_i w_i |p_i><p_i| = id holds
exactly and every continuum identity discretizes as integral -> sum w_i.

A lattice holds its momenta as one (M, 4) array of rows (E, px, py, pz),
checked on shell by `spinors.on_shell` when it is built.  Lattice kinds:

* rapidity1d: p_j = m (cosh j*deta, 0, 0, sinh j*deta), j in [-J, J],
  weight deta per mode.  Closed under boosts by multiples of deta, which is
  what makes lattice-level Lorentz covariance exact.
* grid3d: centered cubic grid with weights delta^3 / ((2 pi)^3 2 E).

Single-oscillator operators are mode blocks sum_i |i><i - shift| x R_i, held
as a `ModeBlocks` (the (M, 16, 16) stack of R_i and the shift); their
products, sums, adjoints and (anti)commutators stay in that form, and
`shift_range` is the one map of a mode shift, for them and the boosts.  Each
operator keeps the range of modes whose blocks may be nonzero and the
register entries that may be nonzero in them, so the algebra touches only
those.  A block product computes only the terms a_ij b_jk whose positions
are set in both patterns, from a plan cached per pair of patterns, and sums
them by the summation rule of `sparse`; one product kernel serves `@` and
the (anti)commutators, which form the terms of both products of unshifted
operands in one einsum.
`mode_blocks` assembles sum_i |i><i| x sum_k c_ik R_k, the R_k on disjoint
supports, from the nonzero entries of each R_k, read from the tables
`register.operator_table` built at import; `mode_sum`, sum_i (1/w_i) |i><i|
x R over a range of modes, is the per-mode builder, and writes its range
with the same assembly.  Every builder reads the read-only `register.REGISTER`
and `register.creator` directly.
`SingleOscillatorSpace.embed` is the one conversion to CSR, used where an
operator is extended to N slots for an operator identity or compared with
an independent CSR route; an operator applied to a state takes
`noscillator.apply_extension`, at one slot or N, with no matrix.  Blocks
follow the storage rule of `sparse`: every entry that is not exactly zero
is kept, however small, and `embed` drops only exact zeros, so the block
algebra and its CSR image agree entry for entry.
`field_operator_spectral` keeps its own assembly
on purpose, with no `ModeBlocks`: it places the kron of each diagonal
multiplier with a register ladder by index arithmetic, all four terms in one
COO triple converted to CSR once, so the field's dual-route check compares
two independent routes.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import sparse, spinors
from .errors import ConfigError, DegenerateVacuumError, ShapeError
from .register import (
    REGISTER,
    REGISTER_DIM,
    VACUUM_INDEX,
    OperatorTable,
    creator,
    operator_table,
    pattern_bits,
)
from .sparse import SparseOperator

RAPIDITY_1D = "rapidity1d"
GRID_3D = "grid3d"


@dataclass(frozen=True)
class MomentumLattice:
    mode: str
    momenta: np.ndarray       # (M, 4) rows (E, px, py, pz), on the mass-m shell
    weights: np.ndarray
    m: float
    # rapidity metadata, None for grid lattices
    j_values: tuple[int, ...] | None = None
    delta_eta: float | None = None

    @property
    def size(self) -> int:
        return len(self.momenta)


def rapidity_lattice(j_max: int, delta_eta: float, m: float) -> MomentumLattice:
    if j_max < 0 or delta_eta <= 0 or m <= 0:
        raise ConfigError(f"invalid rapidity lattice: J={j_max}, deta={delta_eta}, m={m}")
    js = tuple(range(-j_max, j_max + 1))
    momenta = spinors.from_rapidity(np.array(js) * delta_eta, m)
    weights = np.full(len(js), delta_eta, dtype=float)
    return MomentumLattice(RAPIDITY_1D, momenta, weights, m, j_values=js, delta_eta=delta_eta)


def grid_lattice(n: int, spacing: float, m: float) -> MomentumLattice:
    """Cubic n^3 grid centered at the origin."""
    if n <= 0 or spacing <= 0 or m <= 0:
        raise ConfigError(f"invalid grid lattice: n={n}, spacing={spacing}, m={m}")
    offsets = spacing * (np.arange(n) - (n - 1) / 2)
    # x slowest, z fastest
    spatial = np.stack(np.meshgrid(offsets, offsets, offsets, indexing="ij"), axis=-1)
    momenta = spinors.from_spatial(spatial.reshape(-1, 3), m)
    weights = spacing**3 / ((2 * np.pi) ** 3 * 2 * momenta[:, 0])
    return MomentumLattice(GRID_3D, momenta, weights, m)


def build_lattice(mode: str, m: float, j_max: int = 6, delta_eta: float = 0.4,
                  grid_n: int = 2, grid_spacing: float = 1.0) -> MomentumLattice:
    if mode == RAPIDITY_1D:
        return rapidity_lattice(j_max, delta_eta, m)
    if mode == GRID_3D:
        return grid_lattice(grid_n, grid_spacing, m)
    raise ConfigError(f"unknown lattice mode {mode!r}")


def restricted_lattice(lattice: MomentumLattice, indices: tuple[int, ...]) -> MomentumLattice:
    """Sub-lattice on a subset of modes; rapidity metadata is dropped."""
    # a negative index would silently take a mode from the end
    if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool)
               and 0 <= i < lattice.size for i in indices) \
            or len(indices) == 0 or len(set(indices)) != len(indices):
        raise ConfigError(f"need distinct int mode indices in [0, {lattice.size}), got {indices}")
    momenta = lattice.momenta[list(indices)]
    weights = lattice.weights[list(indices)]
    return MomentumLattice("restricted", momenta, weights, lattice.m)


def shift_range(modes: int, shift: int) -> tuple[int, int]:
    """The modes i whose source mode i - shift is on the lattice, as the slice bounds [lo, hi).

    The one map of a mode shift; the sources are [lo - shift, hi - shift).
    On a rapidity lattice the index is j + J, so a boost by k steps fills
    shift_range(M, k) from modes j - k and keeps shift_range(M, -k) on it.
    """
    lo = min(max(shift, 0), modes)
    return lo, max(min(modes + shift, modes), lo)


# the (left, right) register patterns whose product plans are kept; a
# default report uses 92 distinct pairs, 13 of them vector plans
PLAN_CACHE_SIZE = 256

_NO_MODES = (0, 0)


def _shift_index(shift) -> int:
    """A mode shift as an int; a float or a bool is refused, not truncated."""
    if isinstance(shift, numbers.Integral) and not isinstance(shift, bool):
        return operator.index(shift)
    raise ShapeError(f"mode shift must be an integer, got {shift!r}")


def _pattern_mask(bits: int) -> np.ndarray:
    raw = np.frombuffer(bits.to_bytes(REGISTER_DIM**2 // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").view(bool).reshape(REGISTER_DIM, REGISTER_DIM)


def _hull(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The least mode range holding both ranges; empty ranges add nothing."""
    if a[0] >= a[1]:
        return b
    if b[0] >= b[1]:
        return a
    return min(a[0], b[0]), max(a[1], b[1])


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _product_plan(left: int, right: int) -> tuple:
    """The terms a_ij b_jk of a block product whose positions are set in both patterns.

    Returns (lefts, rights, entries, widths, pattern).  Term t multiplies
    the flat register entries lefts[t] = 16 i + j and rights[t] = 16 j + k.
    `entries` lists the output entries 16 i + k, those with the most terms
    first, and `pattern` is their bits.  The terms are grouped by rank:
    group r holds the r-th term, in ascending j, of each of the first
    widths[r] entries, so adding the groups in turn to zeros sums every
    entry from 0 in ascending j.
    """
    # np.nonzero lists (i, j, k) in row-major order, so a stable sort by the
    # output entry keeps each entry's terms in ascending j
    i, j, k = np.nonzero(_pattern_mask(left)[:, :, None] & _pattern_mask(right)[None])
    entry = i * REGISTER_DIM + k
    by_entry = np.argsort(entry, kind="stable")
    i, j, k, entry = i[by_entry], j[by_entry], k[by_entry], entry[by_entry]
    rank = np.arange(len(entry)) - np.searchsorted(entry, entry)
    counts = np.bincount(entry, minlength=REGISTER_DIM**2)
    # a copy: the cached plan should not keep the whole 256-entry sort alive
    entries = np.argsort(-counts, kind="stable")[:np.count_nonzero(counts)].copy()
    slot = np.empty(REGISTER_DIM**2, dtype=np.intp)
    slot[entries] = np.arange(len(entries))
    order = np.lexsort((slot[entry], rank))
    widths = tuple(int(np.count_nonzero(counts > r)) for r in range(counts.max()))
    return ((i * REGISTER_DIM + j)[order], (j * REGISTER_DIM + k)[order], entries, widths,
            pattern_bits(counts > 0))


# the register pattern of one column, entries (j, 0): a vector as a right factor
_COLUMN = sum(1 << REGISTER_DIM * j for j in range(REGISTER_DIM))


def _vector_plan(pattern: int) -> tuple:
    """The terms a_ij x_j of blocks with `pattern` acting on register vectors x.

    Returns (lefts, cols, rows, widths): term t multiplies the flat block
    entry lefts[t] = 16 i + j by x at cols[t] = j, and rows lists the output
    entries i, those with the most terms first.  The terms are grouped by
    rank as in `_product_plan`, whose cached plan against one column this
    is: adding group r in turn, the r-th term of each of the first
    widths[r] rows, sums every row from 0 in ascending j.
    """
    lefts, rights, entries, widths, _ = _product_plan(pattern, _COLUMN)
    return lefts, rights // REGISTER_DIM, entries // REGISTER_DIM, widths


@dataclass(frozen=True, eq=False)
class ModeBlocks:
    """The single-oscillator operator sum_i |i><i - shift| x stack[i].

    `stack` holds one 16x16 register block per mode.  Blocks whose source
    mode i - shift is off the lattice are zero, so products and adjoints
    stay in this form.

    Two bounds let the algebra skip what is zero.  `_live` is a mode range
    [lo, hi) outside which every block is zero, and `_pattern` the register
    entries (as `register.pattern_bits`) that may be nonzero in some block.  Both
    may be larger than the exact ones.  Results of the algebra carry them
    over from their operands; a stack from outside is scanned once, when
    they are first needed.  No stack is changed after construction, which
    the bounds rely on.
    """

    stack: np.ndarray
    shift: int = 0

    # numpy scalars defer to __rmul__ instead of broadcasting over the object
    __array_ufunc__ = None

    def __post_init__(self):
        stack = np.asarray(self.stack, dtype=np.complex128)
        if stack.ndim != 3 or stack.shape[1:] != (REGISTER_DIM, REGISTER_DIM):
            raise ShapeError(f"block stack must be (M, 16, 16), got {stack.shape}")
        shift = _shift_index(self.shift)
        lo, hi = shift_range(len(stack), shift)
        if shift and (stack[:lo].any() or stack[hi:].any()):
            stack = stack.copy()
            stack[:lo] = 0
            stack[hi:] = 0
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "shift", shift)

    @classmethod
    def _placed(cls, blocks, modes: int, live: tuple[int, int], shift: int,
                pattern: int | None = None) -> ModeBlocks:
        """A result of the algebra: the new `blocks` on the modes `live` = [lo, hi), zero elsewhere.

        Nothing is checked: the caller knows that no block of `blocks` is off
        the lattice.  A pattern of None is scanned when it is first needed.
        """
        lo, hi = live
        if live == (0, modes) and blocks.flags.c_contiguous:
            stack = blocks
        else:
            stack = np.zeros((modes, REGISTER_DIM, REGISTER_DIM), dtype=np.complex128)
            if lo < hi:
                stack[lo:hi] = blocks
            else:
                live = _NO_MODES
        return cls._wrapped(stack, live, shift, pattern)

    @classmethod
    def _wrapped(cls, stack: np.ndarray, live: tuple[int, int], shift: int,
                 pattern: int | None = None) -> ModeBlocks:
        """A result of the algebra on its full (M, 16, 16) stack, zero outside `live`; not checked."""
        op = object.__new__(cls)
        op.__dict__.update(stack=stack, shift=shift, _live=live)
        if pattern is not None:
            op.__dict__["_pattern"] = pattern
        return op

    @functools.cached_property
    def _live(self) -> tuple[int, int]:
        live = np.flatnonzero(self.stack.any(axis=(1, 2)))
        return (int(live[0]), int(live[-1]) + 1) if len(live) else _NO_MODES

    @functools.cached_property
    def _pattern(self) -> int:
        lo, hi = self._live
        return pattern_bits(self.stack[lo:hi].any(axis=0))

    @classmethod
    def diagonal(cls, values: np.ndarray) -> ModeBlocks:
        """Mode-diagonal operator with the (M, 16) register diagonals `values`."""
        values = np.asarray(values, dtype=np.complex128)
        stack = np.zeros(values.shape + (REGISTER_DIM,), dtype=np.complex128)
        idx = np.arange(REGISTER_DIM)
        stack[:, idx, idx] = values
        return cls(stack)

    def _combine(self, other: ModeBlocks, op) -> ModeBlocks:
        if other.stack.shape != self.stack.shape or other.shift != self.shift:
            raise ShapeError(
                f"mode blocks differ: {self.stack.shape} shift {self.shift} vs "
                f"{other.stack.shape} shift {other.shift}"
            )
        lo, hi = live = _hull(self._live, other._live)
        if lo >= hi:
            return _zero_blocks(len(self.stack), self.shift)
        return ModeBlocks._placed(op(self.stack[lo:hi], other.stack[lo:hi]), len(self.stack),
                                  live, self.shift, self._pattern | other._pattern)

    def __add__(self, other: ModeBlocks) -> ModeBlocks:
        return self._combine(other, np.add)

    def __sub__(self, other: ModeBlocks) -> ModeBlocks:
        return self._combine(other, np.subtract)

    def _scaled(self, op, scalar) -> ModeBlocks:
        # the pattern is scanned again: a non-finite scalar turns zeros into NaN
        lo, hi = self._live
        return ModeBlocks._placed(op(self.stack[lo:hi], scalar), len(self.stack), self._live,
                                  self.shift)

    def __mul__(self, scalar) -> ModeBlocks:
        return self._scaled(np.multiply, scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> ModeBlocks:
        return self._scaled(np.true_divide, scalar)

    def __matmul__(self, other: ModeBlocks) -> ModeBlocks:
        """Shifts add; block i is self[i] @ other[i - self.shift], zero off the lattice.

        Only live block pairs are multiplied, and in them only the terms
        a_ij b_jk whose register positions are set in both patterns, listed
        by the cached `_product_plan`; `_planned_products` forms and sums
        them as the CSR product in `sparse` does, so the two agree bitwise.
        """
        m = len(self.stack)
        self._check_pair(other)
        shift = self.shift + other.shift
        (a_lo, a_hi), (b_lo, b_hi) = self._live, other._live
        lo, hi = max(a_lo, b_lo + self.shift), min(a_hi, b_hi + self.shift)
        if lo >= hi:
            return _zero_blocks(m, shift)
        plan = _product_plan(self._pattern, other._pattern)
        ((entries, sums),) = _planned_products(
            [(self._flat(lo, hi), other._flat(lo - self.shift, hi - self.shift), plan)])
        stack = np.zeros((m, REGISTER_DIM**2), dtype=np.complex128)
        stack[lo:hi, entries] = sums
        return ModeBlocks._wrapped(stack.reshape(m, REGISTER_DIM, REGISTER_DIM), (lo, hi), shift,
                                   plan[4])

    def _check_pair(self, other: ModeBlocks) -> None:
        if other.stack.shape != self.stack.shape:
            raise ShapeError(f"mode blocks differ: {self.stack.shape} vs {other.stack.shape}")

    def _flat(self, lo: int, hi: int) -> np.ndarray:
        """Blocks lo .. hi - 1 as (hi - lo, 256) rows of flat register entries."""
        return self.stack[lo:hi].reshape(hi - lo, -1)

    def adjoint(self) -> ModeBlocks:
        """Shift -> -shift; block j is the conjugate transpose of block j + shift."""
        lo, hi = self._live
        blocks = self.stack[lo:hi].conj().transpose(0, 2, 1)
        return ModeBlocks._placed(blocks, len(self.stack), (lo - self.shift, hi - self.shift),
                                  -self.shift)

    def _bracket(self, other: ModeBlocks, combine) -> ModeBlocks:
        """combine(self @ other, other @ self), combine operator.add or operator.sub.

        For unshifted operands both products meet on the same modes, and
        one einsum forms the terms of both; each is summed as `@` sums it,
        and the two are combined as `+` and `-` combine them.
        """
        if self.shift or other.shift:
            return combine(self @ other, other @ self)
        m = len(self.stack)
        self._check_pair(other)
        (a_lo, a_hi), (b_lo, b_hi) = self._live, other._live
        lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
        if lo >= hi:
            return _zero_blocks(m, 0)
        a, b = self._flat(lo, hi), other._flat(lo, hi)
        plans = _product_plan(self._pattern, other._pattern), _product_plan(other._pattern,
                                                                             self._pattern)
        (ab_entries, ab), (ba_entries, ba) = _planned_products([(a, b, plans[0]),
                                                                 (b, a, plans[1])])
        # a sum from 0 is never -0.0, so an entry of one product alone is
        # what it is combined with 0, as the full blocks would combine it
        stack = np.zeros((m, REGISTER_DIM**2), dtype=np.complex128)
        stack[lo:hi, ab_entries] = ab
        stack[lo:hi, ba_entries] = combine(stack[lo:hi, ba_entries], ba)
        return ModeBlocks._wrapped(stack.reshape(m, REGISTER_DIM, REGISTER_DIM), (lo, hi), 0,
                                   plans[0][4] | plans[1][4])

    def commutator(self, other: ModeBlocks) -> ModeBlocks:
        return self._bracket(other, operator.sub)

    def anticommutator(self, other: ModeBlocks) -> ModeBlocks:
        return self._bracket(other, operator.add)

    def max_abs(self) -> float:
        lo, hi = self._live
        return sparse.max_abs(self.stack[lo:hi]) if lo < hi else 0.0


def _planned_products(factors: list[tuple[np.ndarray, np.ndarray, tuple]]) -> list[tuple]:
    """The block products of (left, right, plan) triples, all their terms made by one einsum.

    left and right are the live blocks of two operands as (n, 256) flat
    rows, plan their `_product_plan`; each product comes back as the plan's
    output entries and their (n, entries) sums.  Each term is einsum's complex product, with no fused
    multiply-add, and each entry adds its terms to 0 one at a time in
    ascending j: the summation rule of the CSR product.  A term with a
    zero factor counts as 0, as in the CSR product, which stores no zeros;
    with finite factors it is +-0 already, which adds nothing to a sum from
    0, so only non-finite terms make the zero-factor mask.
    """
    lefts = [left.take(plan[0], axis=1) for left, _, plan in factors]
    rights = [right.take(plan[1], axis=1) for _, right, plan in factors]
    left = lefts[0] if len(factors) == 1 else np.concatenate(lefts, axis=1)
    right = rights[0] if len(factors) == 1 else np.concatenate(rights, axis=1)
    terms = np.einsum("nt,nt->nt", left, right)
    if not np.isfinite(terms).all():
        # 0 * NaN and 0 * inf would be NaN; the CSR product never forms them
        terms[(left == 0) | (right == 0)] = 0
    products = []
    start = 0
    for _, _, (_, _, entries, widths, _) in factors:
        sums = np.zeros((len(terms), len(entries)), dtype=np.complex128)
        for width in widths:
            sums[:, :width] += terms[:, start:start + width]
            start += width
        products.append((entries, sums))
    return products


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _zero_blocks(modes: int, shift: int) -> ModeBlocks:
    # a broadcast view of one zero: read-only, and no memory per mode
    return ModeBlocks(np.broadcast_to(np.complex128(0), (modes, REGISTER_DIM, REGISTER_DIM)),
                      shift)


class SingleOscillatorSpace:
    """Lattice modes tensored with the 16-dim register, dim = 16 M.

    Mode index is the slow index: basis = |i> x |register r|, flattened
    row-major as i * 16 + r.  The eigen-bispinors of each mode are
    precomputed as pos_table and neg_table, indexed [mode, spin, component].
    """

    def __init__(self, lattice: MomentumLattice):
        self.lattice = lattice
        self.dim = REGISTER_DIM * lattice.size
        self.pos_table, self.neg_table = spinors.eigen_bispinors(
            spinors.build_spin_frame(lattice.momenta, lattice.m))

    def embed(self, op: ModeBlocks) -> SparseOperator:
        """op as CSR: the one conversion of single-oscillator operators to CSR.

        Block i fills rows 16 i .. 16 i + 15 at columns 16 (i - shift) + c;
        one block per row of blocks, so row-major order is canonical order.
        """
        m = self.lattice.size
        if len(op.stack) != m:
            raise ShapeError(f"block stack must be ({m}, 16, 16), got {op.stack.shape}")
        lo, hi = op._live
        blocks = op.stack[lo:hi]
        live = blocks != 0
        block, r, c = np.nonzero(live)
        rows = REGISTER_DIM * (lo + block) + r
        cols = REGISTER_DIM * (lo + block - op.shift) + c
        return SparseOperator.from_sorted(blocks[live], rows, cols, (self.dim, self.dim))

    def parity(self) -> ModeBlocks:
        """Single-oscillator grading sum_i w_i |p_i><p_i| x reg-parity = id x reg-parity."""
        return mode_blocks(np.ones((self.lattice.size, 1)), [REGISTER.parity])


def mode_blocks(coeffs: np.ndarray, reg_ops: list[np.ndarray]) -> ModeBlocks:
    """sum_i |i><i| x sum_k coeffs[i, k] reg_ops[k].

    Callers pass register operators on disjoint supports; operators with a
    nonzero coefficient that share an entry raise ShapeError.  Each entry
    is its one operator's value times the coefficient, on the modes from
    the first to the last nonzero row of coeffs.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    return _assemble(len(coeffs), 0, coeffs, [operator_table(op) for op in reg_ops])


def _assemble(modes: int, first: int, coeffs: np.ndarray,
              tables: list[OperatorTable]) -> ModeBlocks:
    """sum_i |i><i| x sum_k coeffs[i - first, k] R_k, R_k the operators of `tables`.

    coeffs holds the complex rows of modes first, first + 1, ...; the live
    range runs from its first to its last nonzero row.  The operators with
    a nonzero coefficient must share no entry (ShapeError otherwise), so
    each entry is one einsum product of a coefficient with its operator's
    nonzero entry.  A coefficient meets no other operator's entries, as in
    a block product a zero factor meets no term: a non-finite coefficient
    or entry reaches only its own operator's entries.  For finite inputs
    this is the einsum of coeffs with every operator entry, whose other
    terms are +-0 and add nothing.
    """
    nonzero = coeffs != 0
    used = nonzero.any(axis=0).nonzero()[0]
    rows = nonzero.any(axis=1).nonzero()[0]
    stack = np.zeros((modes, REGISTER_DIM**2), dtype=np.complex128)
    if not len(rows):
        return ModeBlocks._wrapped(stack.reshape(modes, REGISTER_DIM, REGISTER_DIM), _NO_MODES, 0,
                                   0)
    lo, hi = int(rows[0]), int(rows[-1]) + 1
    used_tables = [tables[k] for k in used]
    pattern = 0
    for table in used_tables:
        if pattern & table.pattern:
            raise ShapeError("mode_blocks needs register operators on disjoint supports")
        pattern |= table.pattern
    positions = np.concatenate([table.positions for table in used_tables])
    values = np.concatenate([table.values for table in used_tables])
    columns = np.repeat(used, [len(table.positions) for table in used_tables])
    stack[first + lo:first + hi, positions] = np.einsum("it,t->it", coeffs[lo:hi, columns],
                                                        values)
    return ModeBlocks._wrapped(stack.reshape(modes, REGISTER_DIM, REGISTER_DIM),
                               (first + lo, first + hi), 0, pattern)


def mode_sum(space: SingleOscillatorSpace, reg_op: np.ndarray,
             modes: tuple[int, int | None] = (0, None)) -> ModeBlocks:
    """sum_i (1/w_i) |i><i| x reg_op over the modes [lo, hi) (all by default).

    Mode blocks never mix, so block i of any product with the sum of a ladder
    is the block of the same product with mode_annihilator(space, i, spin, species).
    """
    m = space.lattice.size
    lo, hi = modes[0], m if modes[1] is None else modes[1]
    if not 0 <= lo <= hi <= m:
        raise ShapeError(f"mode range must lie in [0, {m}], got {modes}")
    coeffs = (1.0 / space.lattice.weights[lo:hi]).astype(np.complex128)
    return _assemble(m, lo, coeffs[:, None], [operator_table(reg_op)])


def mode_projector(space: SingleOscillatorSpace, i: int) -> ModeBlocks:
    """Central element I_{p_i} = |p_i><p_i| x id = (1/w_i) |i><i| x id."""
    return mode_sum(space, REGISTER.identity, (i, i + 1))


def mode_annihilator(space: SingleOscillatorSpace, i: int, spin: int, species: str) -> ModeBlocks:
    """c_n(p_i, s) = |p_i><p_i| x c_s, normalized so {c, c'} = delta/w_i I_{p_i}."""
    return mode_sum(space, REGISTER.ladder(species, spin), (i, i + 1))


def smeared_annihilator(space: SingleOscillatorSpace, f: np.ndarray, species: str) -> ModeBlocks:
    """c_n(f) = sum_{i,s} w_i conj(f(p_i,s)) c_n(p_i,s); the weights cancel."""
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (space.lattice.size, 2):
        raise ShapeError(f"amplitude table must be ({space.lattice.size}, 2), got {f.shape}")
    ladders = [REGISTER.ladder(species, s) for s in (0, 1)]
    return mode_blocks(np.conj(f), ladders)


def plane_wave_unitary(space: SingleOscillatorSpace, x: np.ndarray) -> np.ndarray:
    """The mode-diagonal unitary W(x) as its (M,) diagonal, the phases e^{-i p_i . x}."""
    return np.exp(-1j * spinors.dot_point(space.lattice.momenta, x))


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
    ann = [REGISTER.ladder(ann_species, s) for s in (0, 1)]
    cre = [creator(cre_species, 1 - s) for s in (0, 1)]
    phases = plane_wave_unitary(space, x)
    # einsum products: numpy's vectorized complex multiply can fuse multiply-adds
    coeffs = np.hstack([np.einsum("is,i->is", space.pos_table[:, :, alpha], phases),
                        np.einsum("is,i->is", space.neg_table[:, :, alpha], np.conj(phases))])
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
        terms.append((space.pos_table[:, s, alpha], phases, REGISTER.ladder(ann_species, s)))
        terms.append((space.neg_table[:, s, alpha], np.conj(phases), creator(cre_species, 1 - s)))
    offsets = REGISTER_DIM * np.arange(space.lattice.size)[:, None]
    rows, cols, data = [], [], []
    for amplitudes, w, ladder in terms:
        # einsum's products, as the CSR product computes them: numpy's
        # vectorized complex multiply can round differently
        multiplier = np.einsum("i,i->i", amplitudes, w)
        r, c = np.nonzero(ladder)
        rows.append((offsets + r).ravel())
        cols.append((offsets + c).ravel())
        data.append((multiplier[:, None] * ladder[r, c]).ravel())
    return SparseOperator.from_coo(np.concatenate(data), np.concatenate(rows),
                                   np.concatenate(cols), (space.dim, space.dim))


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
        xs = spinors.row_norms(lattice.momenta[:, 1:])
    # divided before squaring: width**2 leaves the float range past width 1.3e154
    return _normalized_profile(lattice, np.exp(-0.5 * ((xs - center) / width) ** 2))


def point_profile(lattice: MomentumLattice, index: int) -> VacuumProfile:
    # True would set every mode, and -1 would take the last one
    if not (isinstance(index, numbers.Integral) and not isinstance(index, bool)
            and 0 <= index < lattice.size):
        raise ConfigError(f"point profile needs an int mode index in [0, {lattice.size}), "
                          f"got {index!r}")
    raw = np.zeros(lattice.size)
    raw[index] = 1.0
    return _normalized_profile(lattice, raw)


def vacuum_vector(space: SingleOscillatorSpace, profile: VacuumProfile) -> np.ndarray:
    """|O> = sum_i sqrt(w_i) O_i |i, register vacuum>."""
    v = np.zeros(space.dim, dtype=np.complex128)
    # a real factor on each part: the array multiply rounds as the scalar one
    v[VACUUM_INDEX::REGISTER_DIM] = np.sqrt(space.lattice.weights) * profile.values
    return v
