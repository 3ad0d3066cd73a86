"""N-fold oscillator extension of the single-oscillator CAR representation.

An extended annihilator is the twisted symmetric sum

    ext(a) = (1/sqrt N) sum_k  g^(k-1) x a x id^(N-k)

with g the single-oscillator grading (parity).  The twist makes operators
in different slots anticommute, so the extension preserves the CAR with a
central right-hand side.  Noether generators extend as plain (untwisted)
sums, central elements as untwisted means, unitaries as tensor powers.

Two evaluation paths for vacuum matrix elements of smeared operator
products:

* explicit matrices, capped at total dimension (16 M)^N <= 2^20; each
  extension is written straight into canonical CSR by index arithmetic,
  with no sort and no chain of tensor products;
* a set-partition (moment-cumulant) expansion that never forms the N-fold
  space.  It sums products of single-oscillator vacuum moments over set
  partitions of the factors by block count and weights j blocks by
  N! / (N - j)!, so one expansion serves every N.  Every factor is
  mode-diagonal, with the same ladders on every mode, so which register
  entries each factor reaches, which subsets meet the vacuum and how
  partitions split depend only on the (species, dagger) word: they are
  compiled once, on one mode, into a cached plan of three flat record
  streams (kets, vacuum slots, partition terms).  A call runs the ket and
  vacuum loops once per lattice mode and the partition loop once.
  One value pass serves floats and exact values alike: every value is a
  plain (re, im) pair, with the arithmetic written out in the loops.  On
  one-mode lattices, where the finite-N element equals the limiting
  determinant identically, the parts are Python ints, Gaussian integers
  over a power of two, and a quotient is such a pair over an int
  denominator; `_rounded` rounds each float part once, and an exact value
  past the float range is a ResourceLimitError.

The limiting determinant is a pivoted LU det in floats and, on one mode, a
fraction-free (Bareiss) det in Gaussian integers.  The expansion's one
budget is K <= 2 MAX_SLATER_ORDER factors; its float path also stops once
N! / (N - j)! leaves the float range, near N = 10^154 for an order-2 overlap.
"""

from __future__ import annotations

import cmath
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import sparse
from .errors import (
    ConfigError,
    PreconditionError,
    ResourceLimitError,
    ShapeError,
    SizeCapError,
)
from .modes import (
    ModeBlocks,
    MomentumLattice,
    SingleOscillatorSpace,
    VacuumProfile,
    smeared_annihilator,
    vacuum_vector,
)
from .register import REGISTER, VACUUM_INDEX
from .sparse import MAX_DIM, SparseOperator

MAX_SLATER_ORDER = 8

# N of the report's explicit N-slot matrix checks (extended_car,
# extended_car_zero, central_commutes, vacuum_energy_expectation): the least N
# at which a grading twist enters _slot_sum.  Config load bounds the lattice
# by (16 M)^N <= MAX_DIM at this N.
MATRIX_CHECK_N = 2


def _oscillator_count(n) -> int:
    """N as a Python int, from any integer type; a float or a bool is a ConfigError."""
    if not isinstance(n, bool):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise ConfigError(f"oscillator count must be an integer, got {type(n).__name__}")


@dataclass(frozen=True)
class NRegister:
    space: SingleOscillatorSpace
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _oscillator_count(self.n))
        if self.n < 1:
            raise ConfigError(f"oscillator count must be >= 1, got {self.n}")

    @property
    def factor_dim(self) -> int:
        return self.space.dim

    @property
    def dim(self) -> int:
        return self.factor_dim**self.n


def _check_matrix_dim(nreg: NRegister) -> None:
    # 16 M >= 2, so N >= bit_length(MAX_DIM) exceeds the cap without forming (16 M)^N
    if nreg.n >= MAX_DIM.bit_length() or nreg.dim > MAX_DIM:
        raise SizeCapError(
            f"(16 M)^N exceeds cap {MAX_DIM} at 16 M = {nreg.factor_dim}; reduce N"
        )


def _slot_sum(nreg: NRegister, op: ModeBlocks, twist: np.ndarray) -> SparseOperator:
    """Unscaled sum over slots of twist^(k-1) x op x id^(N-k), twist a (16 M,) diagonal of +-1.

    Slot k places op entry (r, c) at row (l d + r) d^(N-k-1) + b and column
    (l d + c) d^(N-k-1) + b, for every left index l and right index b, with
    value twist(l) op[r, c], twist(l) the product of the twist diagonal over
    the k left slots.  So slot k moves digit k of the row index by c - r, and
    slot terms meet only on the diagonal: row i holds, in ascending columns,
    the below-diagonal entries of slots 0 .. N-1, the diagonal, then the
    above-diagonal entries of slots N-1 .. 0.  The entries go straight into
    canonical CSR, with no COO copy and no sort: per-row counts give indptr
    by one cumsum (Gustavson, ACM TOMS 4 (1978) 250), and a cursor per row
    walks the order above, each entry landing at the cursor plus its rank in
    its op row.  The diagonal sums its slot terms from 0 in slot order, as
    the kron chain's left-to-right CSR additions do, and drops an exact-zero
    sum.  Where terms meet (N > 1 and a diagonal op entry), every entry is a
    sum from 0, as `SparseOperator.from_coo` makes it, so a -0.0 part reads
    +0.0.
    """
    _check_matrix_dim(nreg)
    op = nreg.space.embed(op)
    d, n, dim = nreg.factor_dim, nreg.n, nreg.dim
    rows, cols, data = op.coo()
    lefts = [np.ones(1, dtype=np.complex128)]
    for _ in range(n - 1):
        lefts.append(np.kron(lefts[-1], twist))
    if n == 1:
        return SparseOperator((lefts[0][:, None] * data)[0], op.indices, op.indptr, op.shape)
    entry = np.arange(len(data))
    below, on_diag, above = cols < rows, cols == rows, cols > rows
    below_n = np.bincount(rows[below], minlength=d).astype(np.intp)
    above_n = np.bincount(rows[above], minlength=d).astype(np.intp)
    # (op rows, op columns, values, rank in the row's group) of each side
    lower = (rows[below], cols[below], data[below], (entry - op.indptr[rows])[below])
    upper = (rows[above], cols[above], data[above],
             (entry - op.indptr[rows + 1] + above_n[rows])[above])
    meet = bool(on_diag.any())

    def by_slot(a, k):
        """a as (left index, digit k, right index)."""
        return a.reshape(d**k, d, -1)

    indptr = np.zeros(dim + 1, dtype=np.int32)
    if meet:
        diagonal = np.zeros(dim, dtype=np.complex128)
        for k, left in enumerate(lefts):
            by_slot(diagonal, k)[:, rows[on_diag]] += (left[:, None] * data[on_diag])[:, :, None]
        kept = diagonal != 0
        indptr[1:] = kept
    for k in range(n):
        by_slot(indptr[1:], k)[...] += (below_n + above_n)[:, None]
    np.cumsum(indptr, out=indptr)
    out_data = np.empty(indptr[-1], dtype=np.complex128)
    out_cols = np.empty(indptr[-1], dtype=np.int32)
    cursor = indptr[:-1].astype(np.intp)

    def place(k, side):
        side_rows, side_cols, values, rank = side
        left = lefts[k]
        right = d ** (n - k - 1)
        at = by_slot(cursor, k)[:, side_rows] + rank[:, None]
        l = np.arange(len(left), dtype=np.int32)[:, None, None] * d
        out_cols[at] = (l + side_cols[:, None]) * right + np.arange(right, dtype=np.int32)
        values = left[:, None] * values
        if meet:
            values += 0  # a sum from 0, like the diagonal's
        out_data[at] = values[:, :, None]

    for k in range(n):
        place(k, lower)
        by_slot(cursor, k)[...] += below_n[:, None]
    if meet:
        at = cursor[kept]
        out_cols[at] = np.flatnonzero(kept)
        out_data[at] = diagonal[kept]
        del at, diagonal  # before the above-diagonal slots make theirs
        cursor += kept
    for k in reversed(range(n)):
        place(k, upper)
        by_slot(cursor, k)[...] += above_n[:, None]
    return SparseOperator(out_data, out_cols, indptr, (dim, dim))


def extend_operator(nreg: NRegister, op: ModeBlocks) -> SparseOperator:
    """(1/sqrt N) sum over slots of g^(k-1) x op x id^(N-k), g the grading."""
    parity = np.tile(np.diag(nreg.space.register.parity), nreg.space.lattice.size)
    return sparse.prune(_slot_sum(nreg, op, parity) / np.sqrt(nreg.n))


def extend_additive(nreg: NRegister, op: ModeBlocks, mean: bool = False) -> SparseOperator:
    """Untwisted sum over slots; with mean=True, divided by N (central elements)."""
    total = _slot_sum(nreg, op, np.ones(nreg.factor_dim))
    return sparse.prune(total / nreg.n if mean else total)


def extend_unitary(nreg: NRegister, u: ModeBlocks) -> SparseOperator:
    """u acting on every slot: the N-fold tensor power."""
    _check_matrix_dim(nreg)
    return sparse.tensor_many(*([nreg.space.embed(u)] * nreg.n))


def vacuum_state(nreg: NRegister, profile: VacuumProfile) -> np.ndarray:
    _check_matrix_dim(nreg)
    factor = vacuum_vector(nreg.space, profile)
    out = np.array([1.0 + 0j])
    for _ in range(nreg.n):
        out = np.kron(out, factor)
    return out


class OpSpec(NamedTuple):
    """One smeared factor in an operator product."""

    amplitude: np.ndarray  # (modes, 2) complex table
    species: str           # "b" or "d"
    dagger: bool


def _check_dagger(dagger) -> None:
    if not isinstance(dagger, (bool, np.bool_)):
        raise ShapeError(f"dagger must be a bool, got {dagger!r}")


def smeared_matrix(space: SingleOscillatorSpace, spec: OpSpec) -> ModeBlocks:
    _check_dagger(spec.dagger)
    mat = smeared_annihilator(space, spec.amplitude, spec.species)
    return mat.adjoint() if spec.dagger else mat


def vacuum_matrix_element_matrix(nreg: NRegister, profile: VacuumProfile,
                                 ops: list[OpSpec]) -> complex:
    """Matrix-path evaluation of <vac_N| op_1 ... op_k |vac_N> (small N only).

    Each extended factor is pruned below `sparse.DROP_TOL` absolutely, and
    so is every applied ket, so this route has an absolute floor that no
    scale of the inputs removes: on one mode at N = 2, c(e) c(a e)' with
    a = 1e-14 reads 0 here, while the expansion reads a.  A reference built
    on this route needs amplitudes well above the floor.
    """
    vac = vacuum_state(nreg, profile)
    ket = vac
    for spec in reversed(ops):
        # one extended factor alive at a time
        ket = sparse.apply_operator(extend_operator(nreg, smeared_matrix(nreg.space, spec)), ket)
    return sparse.inner(vac, ket)


def zprod_inner(lattice: MomentumLattice, profile: VacuumProfile,
                f: np.ndarray, g: np.ndarray) -> complex:
    """Z-weighted one-particle scalar product sum_{i,s} w_i Z_i conj(f) g."""
    return complex(gram_matrix(lattice, profile, [f], [g])[0, 0])


def gram_matrix(lattice: MomentumLattice, profile: VacuumProfile,
                fs: list[np.ndarray], gs: list[np.ndarray]) -> np.ndarray:
    """<f_k, g_j>_Z for every f_k and g_j, as one broadcast product and sum."""
    if len(fs) != len(gs):
        raise ShapeError(f"need equal list lengths, got {len(fs)} and {len(gs)}")
    shape = (lattice.size, 2)
    tables = [np.asarray(t, dtype=np.complex128) for t in (*fs, *gs)]
    if any(t.shape != shape for t in tables):
        raise ShapeError(f"amplitude tables must be {shape}")
    f, g = np.array(tables).reshape(2, len(fs), *shape)
    wz = lattice.weights * profile.z
    return np.sum(wz[:, None] * np.conj(f)[:, None] * g[None], axis=(2, 3))


def _check_slater_order(m: int) -> None:
    if m < 1:
        raise PreconditionError("a determinant limit needs at least one factor")
    if m > MAX_SLATER_ORDER:
        raise ResourceLimitError(f"order {m} exceeds the determinant budget of order "
                                 f"{MAX_SLATER_ORDER}; reduce the order M")


def slater_limit(lattice: MomentumLattice, profile: VacuumProfile,
                 fs: list[np.ndarray], gs: list[np.ndarray]) -> complex:
    """det of the Gram matrix of Z-products, by numpy's partially pivoted LU."""
    gram = gram_matrix(lattice, profile, fs, gs)
    _check_slater_order(len(gram))
    return complex(np.linalg.det(gram))


# ---------------------------------------------------------------------------
# set-partition expansion


def _dyadic_lift(values) -> tuple[list[tuple[int, int]], int]:
    """Gaussian integers m_k and one shift t >= 0 with values[k] == m_k / 2**t exactly.

    values is a sequence of complex numbers, a list or a numpy row.  Every
    finite float is p / 2**e with integer p, so a table of them shares the
    largest e as one power of two.  A Gaussian integer is an (re, im) pair
    of Python ints.
    """
    ratios = [(z.real.as_integer_ratio(), z.imag.as_integer_ratio()) for z in values]
    full = max(q for pair in ratios for _, q in pair)  # each q is a power of two
    return [(p_re * (full // q_re), p_im * (full // q_im))
            for (p_re, q_re), (p_im, q_im) in ratios], full.bit_length() - 1


def _rounded(num: tuple[int, int], den: int) -> complex:
    """The exact quotient num / den, den > 0, with each part rounded once.

    Int true division rounds correctly, so each part equals
    float(Fraction(part, den)) with no gcd taken.  A part past the float
    range is a ResourceLimitError.
    """
    try:
        return complex(num[0] / den, num[1] / den)
    except OverflowError:
        raise ResourceLimitError("the exact value leaves the float range; "
                                 "reduce the amplitudes") from None


def _divide_exactly(num: tuple[int, int], den: tuple[int, int]) -> tuple[int, int]:
    """The Gaussian integer num / den; raises unless den divides num."""
    (a, b), (c, d) = num, den
    re, im, norm = a * c + b * d, b * c - a * d, c * c + d * d
    if re % norm or im % norm:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return re // norm, im // norm


def _bareiss_det(gram: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """det of a square Gaussian-integer matrix by fraction-free (Bareiss) elimination.

    Each division by the previous pivot is exact, as Gaussian integers form an
    integral domain.  The pivot is the first nonzero entry of its column, with
    no magnitude compared (lifted entries can pass the float range).
    """
    a = [list(row) for row in gram]
    m = len(a)
    sign, prev = 1, (1, 0)
    for k in range(m):
        pivot = next((r for r in range(k, m) if a[r][k] != (0, 0)), None)
        if pivot is None:
            return 0, 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        pr, pi = a[k][k]
        for i in range(k + 1, m):
            lr, li = a[i][k]
            for j in range(k + 1, m):
                (xr, xi), (ur, ui) = a[i][j], a[k][j]
                a[i][j] = _divide_exactly((xr * pr - xi * pi - lr * ur + li * ui,
                                           xr * pi + xi * pr - lr * ui - li * ur), prev)
        prev = pr, pi
    return prev[0] * sign, prev[1] * sign


def _ladder_map(species: str, spin: int, dagger: bool) -> dict[int, tuple[int, int]]:
    """{col: (row, sign)} of a register ladder or its adjoint, a signed partial permutation."""
    ladder = REGISTER.ladder(species, spin)
    if dagger:
        ladder = ladder.conj().T
    rows, cols = np.nonzero(ladder)
    return {int(c): (int(r), int(ladder[r, c].real)) for r, c in zip(rows, cols)}


_LADDERS = {(species, spin, dagger): _ladder_map(species, spin, dagger)
            for species in ("b", "d") for spin in (0, 1) for dagger in (False, True)}


class _Expansion(NamedTuple):
    """c_j, the N-independent sum over partitions into j blocks.

    Exact ones are (re, im) pairs of ints and carry 2**-shift.
    """

    nops: int
    exact: bool
    coeffs: list
    shift: int


class _Plan(NamedTuple):
    """What an expansion's operator word fixes on one lattice mode, with no value in it.

    Every factor is mode-diagonal, with the same ladders on every mode, so
    one plan serves every lattice and a call runs it once per mode.  The
    records are flat streams of ints, one loop of the value pass each.
    Subsets of the factors are visited depth first, in pre-order.

    * `kets`: a (source slot, coefficient, destination slot) record per
      register entry of each ket A_b1 ... A_bm |vac>.  All kets share one
      slot space: the root takes slot 0, and each subset's ket follows in
      pre-order.  Coefficient c is `signs[c]` = (part index, ladder sign);
      the real part of factor k's coefficient on spin s sits at part index
      4 k + 2 s of a mode's coefficient list, its imaginary part next.
    * `vacuum`: the slot of the vacuum entry of each ket that reaches the
      vacuum, one per moment, as a one-mode ket holds the vacuum at most
      once.  `odd` lists the moments of odd subsets, which the register
      parity forces to 0.
    * `terms`: a (signed moment, source c-slot, destination c-slot) record
      per term of the partition sum, in block order and then by j; signed
      moment t + len(vacuum) is moment t negated by the shuffle sign.  Each
      remaining set of r factors holds c-slots for its c_0..c_r, after the
      sets it splits into.  Slot 0 is the empty set's c_0 = 1, and the
      whole word's c_0..c_K are the last, from `top` on; `sums` counts the
      slots.  A term is kept only if its block is even and its source is
      slot 0 or written by an earlier term, so no c_j with j > r/2 is read.

    `size` counts the records of the three streams.  Records share their
    int objects.
    """

    signs: tuple
    kets: tuple
    slots: int
    vacuum: tuple
    odd: tuple
    terms: tuple
    top: int
    sums: int
    size: int


def _compile_plan(word: tuple) -> _Plan:
    """The plan of a (species, dagger) word on one lattice mode."""
    maps = [(_LADDERS[(species, 0, dagger)], _LADDERS[(species, 1, dagger)])
            for species, dagger in word]
    signs: dict = {}
    kets: list = []
    vacuum: list = []
    odd: list = []
    blocks: list[list] = [[] for _ in maps]
    slots = 1  # the root's ket takes slot 0

    def descend(rows: list, base: int, mask: int, low: int) -> None:
        # rows are the register entries of A_b1 ... A_bm |vac> for
        # mask = {b1 < ... < bm}, in slots from base on, low = b1; prepending
        # a smaller factor visits every subset once
        nonlocal kets, slots
        for k in range(low):
            index: dict = {}
            at, ladders = slots, maps[k]
            for a, r in enumerate(rows, base):
                for s in (0, 1):
                    hit = ladders[s].get(r)
                    if hit is not None:
                        row, sign = hit
                        kets += (a, signs.setdefault((k, s, sign), len(signs)),
                                 at + index.setdefault(row, len(index)))
            if not index:
                continue  # every superset that prepends factors to it vanishes too
            slots += len(index)
            block = mask | 1 << k
            if VACUUM_INDEX in index:
                if block.bit_count() % 2:
                    odd.append(len(vacuum))
                else:
                    # and, per factor of the block, the mask of the factors below it
                    belows = [(1 << b) - 1 for b in range(k, block.bit_length())
                              if block >> b & 1]
                    blocks[k].append((block, len(vacuum), belows))
                vacuum.append(at + index[VACUUM_INDEX])
            descend(list(index), at, block, k)

    descend([VACUUM_INDEX], 0, 0, len(maps))
    moments = len(vacuum)
    terms: list = []
    where = {0: (0, (0,))}  # a remaining set's c_0 slot and the j of its written c_j
    sums = 1

    def split(rest: int) -> tuple:
        # split off the block holding the smallest remaining factor
        nonlocal sums
        if rest not in where:
            parts = []
            for block, t, belows in blocks[(rest & -rest).bit_length() - 1]:
                if block & ~rest:
                    continue
                left = rest & ~block
                # the shuffle that moves the block to the front passes, for each
                # of its factors, every remaining factor ahead of it
                swaps = sum((left & below).bit_count() for below in belows)
                parts.append((t + moments * (swaps % 2), *split(left)))
            at, sums = sums, sums + rest.bit_count() + 1
            written = set()
            for t, source, js in parts:
                for j in js:  # c_(j+1) of rest from c_j of what is left
                    terms.extend((t, source + j, at + j + 1))
                written.update(js)
            where[rest] = at, tuple(sorted(j + 1 for j in written))
        return where[rest]

    top = split((1 << len(maps)) - 1)[0]
    # one int object per value, shared by every record that holds it
    ints = list(range(max(slots, sums, 2 * moments, len(signs))))
    kets, vacuum, terms = (tuple(map(ints.__getitem__, stream))
                           for stream in (kets, vacuum, terms))
    size = len(kets) // 3 + moments + len(terms) // 3
    signs = tuple((4 * k + 2 * s, sign) for k, s, sign in signs)
    return _Plan(signs, kets, slots, vacuum, tuple(odd), terms, top, sums, size)


# the plan records the cache keeps, at most about 8 MB of plans: an order-8
# overlap has 2 216 ket, 848 vacuum and 137 404 partition records (4.1 MB
# retained) on every lattice, a default report's 14-15 plans 221-253 in all
PLAN_CACHE_ENTRIES = 1 << 18


class _PlanCache:
    """Least recently used plans by operator word, bounded by the records they hold."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.plans: OrderedDict = OrderedDict()
        self.entries = 0
        self._lock = threading.Lock()  # the plans and their entry count change together

    def plan(self, word: tuple) -> _Plan:
        with self._lock:
            plan = self.plans.pop(word, None)
            if plan is None:
                plan = _compile_plan(word)
            else:
                self.entries -= plan.size
            if plan.size <= self.capacity:
                self.plans[word] = plan
                self.entries += plan.size
                while self.entries > self.capacity:
                    self.entries -= self.plans.popitem(last=False)[1].size
        return plan


_PLANS = _PlanCache(PLAN_CACHE_ENTRIES)


def _vacuum_moments(space: SingleOscillatorSpace, profile: VacuumProfile | None,
                    ops: list[OpSpec], exact: bool):
    """Nonzero single-oscillator moments omega(B) of the ordered sub-products B.

    Returns (plan, moments, shift): moments[t] is omega of the plan's t-th
    subset whose ket reaches the vacuum, as an (re, im) pair, or None where
    it is zero.  Exact parts are ints carrying 2**-shift, float parts floats.
    All shapes, species and daggers are checked, in factor order, before
    any value; then one numpy pass stacks, tests and conjugates the tables
    and turns them into one coefficient list per mode.
    """
    if len(ops) > 2 * MAX_SLATER_ORDER:
        raise ResourceLimitError(
            f"more than {2 * MAX_SLATER_ORDER} factors exceed the expansion budget; "
            "reduce the order M")
    lattice = space.lattice
    modes = lattice.size
    if exact:
        if modes != 1:
            raise PreconditionError("exact rational path requires a one-mode lattice")
    elif profile is None:
        raise PreconditionError("float path needs a vacuum profile")
    for spec in ops:
        shape = np.shape(spec.amplitude)
        if shape != (modes, 2):
            raise ShapeError(f"amplitude table must be ({modes}, 2), got {shape}")
        if spec.species not in ("b", "d"):
            raise ShapeError(f"species must be 'b' or 'd', got {spec.species!r}")
        _check_dagger(spec.dagger)

    # all K tables in one pass, each factor's conjugated unless it is a creator
    amps = np.array([spec.amplitude for spec in ops], dtype=np.complex128).reshape(
        len(ops), modes, 2)
    if not np.isfinite(amps).all():
        raise PreconditionError("amplitude table must be finite")
    daggers = np.array([spec.dagger for spec in ops], dtype=bool).reshape(-1, 1, 1)
    amps = np.where(daggers, amps, np.conj(amps))
    shift = 0
    if exact:
        # factor k's row of Gaussian integers on its one mode, scaled by 2**shift_k
        coeffs = []
        for row in amps[:, 0].tolist():
            lifted, op_shift = _dyadic_lift(row)
            coeffs += [part for pair in lifted for part in pair]
            shift += op_shift
        parts = [coeffs]
        # sqrt(w) O is a pure phase by normalization and cancels between bra
        # and ket, so the vacuum coefficient is 1 and weighs nothing
        roots = [(1, 0)]
    else:
        parts = amps.swapaxes(0, 1).view(np.float64).reshape(modes, 4 * len(ops)).tolist()
        roots = [complex(np.sqrt(lattice.weights[i]) * profile.values[i]) for i in range(modes)]
        roots = [(z.real, z.imag) for z in roots]
    plan = _PLANS.plan(tuple((spec.species, spec.dagger) for spec in ops))
    return plan, _moments(plan, parts, roots), shift


def _moments(plan: _Plan, parts: list, roots: list) -> list:
    """The value pass of `_vacuum_moments`: per mode, one ket loop and one vacuum loop.

    parts[i] holds every factor's coefficients on mode i, re and im in turn,
    at the part indices of `_Plan.signs`; roots[i] is the vacuum's (re, im)
    coefficient on mode i, and the bra takes its conjugate.  Kets and
    moments are kept as separate re and im lists and the arithmetic is
    written out, with no call per operation: CPython's complex product and
    sum make these same float operations, and every sum starts from 0.
    Each moment adds its modes in ascending order.  A zero ket entry gives
    no term, so the kets of the supersets of a vanishing ket cost one truth
    test per record and stay 0.
    """
    m_re, m_im = [0] * len(plan.vacuum), [0] * len(plan.vacuum)
    fill = [0] * (plan.slots - 1)
    for coeffs, (root_re, root_im) in zip(parts, roots):
        # the ladder signs folded into the coefficients
        tab_re = [coeffs[v] * sign for v, sign in plan.signs]
        tab_im = [coeffs[v + 1] * sign for v, sign in plan.signs]
        ket_re, ket_im = [root_re, *fill], [root_im, *fill]
        stream = iter(plan.kets)
        for a, c, d in zip(stream, stream, stream):
            x_re, x_im = ket_re[a], ket_im[a]
            if x_re or x_im:
                y_re, y_im = tab_re[c], tab_im[c]
                ket_re[d] += y_re * x_re - y_im * x_im
                ket_im[d] += y_re * x_im + y_im * x_re
        y_re, y_im = root_re, -root_im
        for t, d in enumerate(plan.vacuum):
            x_re, x_im = ket_re[d], ket_im[d]
            if x_re or x_im:
                m_re[t] += y_re * x_re - y_im * x_im
                m_im[t] += y_re * x_im + y_im * x_re
    moments = [(re, im) if re or im else None for re, im in zip(m_re, m_im)]
    if any(moments[t] for t in plan.odd):
        # register parity forces odd products to vanish on the vacuum
        raise PreconditionError("odd operator product gave a nonzero vacuum moment")
    return moments


def _partition_sum(plan: _Plan, moments: list) -> list[tuple]:
    """c_j as (re, im) pairs: the moments summed over set partitions, by block count.

    One loop over the plan's terms, each adding a moment times a c_j of the
    factors its block leaves to a c_(j+1), written out as in `_moments`.
    """
    # moment t + len(moments) is moment t with the shuffle sign folded in
    signed = moments + [moment and (-moment[0], -moment[1]) for moment in moments]
    c_re, c_im = [0] * plan.sums, [0] * plan.sums
    c_re[0] = 1
    stream = iter(plan.terms)
    for t, a, d in zip(stream, stream, stream):
        moment = signed[t]
        if moment is not None:
            x_re, x_im = c_re[a], c_im[a]
            if x_re or x_im:
                m_re, m_im = moment
                c_re[d] += m_re * x_re - m_im * x_im
                c_im[d] += m_re * x_im + m_im * x_re
    return list(zip(c_re[plan.top:], c_im[plan.top:]))


def _partition_expansion(space: SingleOscillatorSpace, profile: VacuumProfile | None,
                         ops: list[OpSpec], exact: bool) -> _Expansion:
    """Sum the moments over set partitions of the factors, by block count; no N enters."""
    plan, moments, shift = _vacuum_moments(space, profile, ops, exact)
    coeffs = _partition_sum(plan, moments)
    if not exact:
        coeffs = [complex(re, im) for re, im in coeffs]
    return _Expansion(len(ops), exact, coeffs, shift)


def _evaluate(expansion: _Expansion, n: int):
    """N^(-K/2) sum_j (N)_j c_j: complex, or the exact quotient (num, den), den > 0."""
    # (N)_j = 0 drops partitions into more blocks than oscillators; odd
    # products have no partition into even blocks and vanish at any scale
    half = expansion.nops // 2
    if expansion.exact:
        re = im = 0
        for j, (c_re, c_im) in enumerate(expansion.coeffs):
            if c_re or c_im:
                weight = math.perm(n, j)
                re += c_re * weight
                im += c_im * weight
        # the dyadic scale and the deferred 1/sqrt(N) per factor
        return (re, im), n**half << expansion.shift
    total = 0j
    try:
        for j, coeff in enumerate(expansion.coeffs):
            if coeff:
                total = total + coeff * math.perm(n, j)
        value = total * (1.0 / n**half)
    except OverflowError:  # (N)_j or N^(K/2) past the float range
        value = complex("inf")
    if not cmath.isfinite(value):
        # finite amplitudes leave only the weights (N)_j to overflow
        raise ResourceLimitError("the float expansion overflowed; reduce N or the amplitudes")
    return value


def vacuum_matrix_element(nreg: NRegister, profile: VacuumProfile,
                          ops: list[OpSpec], exact: bool = False) -> complex:
    """<vac_N| product of smeared extended operators |vac_N>, written left to right.

    Set-partition (moment-cumulant) expansion, with no N-fold space.  Each
    factor of the K-factor product lands on one of N slots; the twist makes
    factors on different slots anticommute, and a slot's block survives the
    vacuum only with even size.  So the element is
    N^(-K/2) sum_pi (N)_|pi| sign(pi) prod_B omega(B), over set partitions pi
    of the factors into blocks B, with omega(B) the single-oscillator vacuum
    moment of the ordered sub-product B, sign(pi) the sign of sorting the
    factors by block and (N)_j = N! / (N - j)!.  The moments and the sums
    c_j over j-block partitions do not depend on N.  The exact path runs in
    Gaussian integers, each amplitude table lifted once to integers over a
    power of two 2^e_j, and divides once, by 2^(sum e_j) N^(K // 2); a
    value past the float range is a ResourceLimitError.  The one budget is
    K <= 2 MAX_SLATER_ORDER factors.
    """
    value = _evaluate(_partition_expansion(nreg.space, profile, ops, exact), nreg.n)
    return _rounded(*value) if exact else value


def _gram_exact(fs: list[np.ndarray],
                gs: list[np.ndarray]) -> tuple[list[list[tuple[int, int]]], int]:
    """Gram matrix on a normalized one-mode lattice, with w Z taken as 1.

    Normalization makes the true w Z equal to 1, and that is the value used
    here.  The float product of `lattice.weights` and `profile.z` may miss
    it by rounding: at `delta_eta` 0.4 it reads 1 - 1.1e-16.  Entries are
    Gaussian integers over one shift: row k and column j carry their own
    powers of two, so the det is that of the integer matrix times 2**-shift.
    """
    f_rows = [_dyadic_lift(np.conj(np.asarray(f, dtype=np.complex128)[0]).tolist()) for f in fs]
    g_cols = [_dyadic_lift(np.asarray(g, dtype=np.complex128)[0].tolist()) for g in gs]
    gram = [[(f0[0] * g0[0] - f0[1] * g0[1] + f1[0] * g1[0] - f1[1] * g1[1],
              f0[0] * g0[1] + f0[1] * g0[0] + f1[0] * g1[1] + f1[1] * g1[0])
             for (g0, g1), _ in g_cols] for (f0, f1), _ in f_rows]
    _check_slater_order(len(gram))
    return gram, sum(shift for _, shift in f_rows + g_cols)


def overlap_product_ops(fs: list[np.ndarray], gs: list[np.ndarray],
                         species: str = "b") -> list[OpSpec]:
    """Operator product whose vacuum expectation converges to det(Gram).

    Annihilators are applied in reversed index order against the creators,
    pairing f_k with g_k without a residual permutation sign.
    """
    if len(fs) != len(gs):
        raise ShapeError(f"need equal list lengths, got {len(fs)} and {len(gs)}")
    ann = [OpSpec(np.asarray(fs[k]), species, False) for k in reversed(range(len(fs)))]
    cre = [OpSpec(np.asarray(gs[k]), species, True) for k in range(len(gs))]
    return ann + cre


@dataclass(frozen=True)
class ConvergenceRecord:
    m: int
    n: int
    lhs: complex
    limit: complex
    deviation: float


@dataclass(frozen=True)
class ConvergenceReport:
    m: int
    limit: complex
    records: tuple[ConvergenceRecord, ...]
    monotone: bool
    final_ratio: float | None
    exact: bool

    def deviations(self) -> list[float]:
        return [r.deviation for r in self.records]


def determinant_limit_convergence(space: SingleOscillatorSpace, profile: VacuumProfile,
                         fs: list[np.ndarray], gs: list[np.ndarray],
                         n_list: list[int]) -> ConvergenceReport:
    """Finite-N matrix elements against the determinant limit, per N.

    One set-partition expansion serves every N in n_list.  On one-mode
    lattices the two sides coincide at every finite N, so both run exactly
    (the limit by `_bareiss_det`), lest float noise fake non-monotone
    deviations; any other lattice runs in floats (the limit by `slater_limit`).
    """
    n_list = [_oscillator_count(n) for n in n_list]
    if n_list != sorted(n_list) or len(n_list) == 0 or n_list[0] < 1:
        raise ConfigError("n_list must be a nonempty ascending list of positive integers")
    ops = overlap_product_ops(fs, gs)
    m = len(fs)
    lattice = space.lattice
    exact = lattice.size == 1

    # two independent routes to the limit; the expansion runs first to check the tables
    expansion = _partition_expansion(space, profile, ops, exact)
    if exact:
        gram, shift = _gram_exact(fs, gs)
        (det_re, det_im), det_den = _bareiss_det(gram), 1 << shift
        limit = _rounded((det_re, det_im), det_den)
    else:
        limit = slater_limit(lattice, profile, fs, gs)
    records = []
    for n in n_list:
        value = _evaluate(expansion, n)
        if exact:
            (re, im), den = value
            lhs = _rounded((re, im), den)
            # the difference of the two quotients, over the product of their denominators
            gap = _rounded((re * det_den - det_re * den, im * det_den - det_im * den),
                           den * det_den)
            deviation = math.hypot(gap.real, gap.imag)
        else:
            lhs, deviation = value, abs(value - limit)
        records.append(ConvergenceRecord(m=m, n=n, lhs=lhs, limit=limit, deviation=deviation))

    devs = [r.deviation for r in records]
    monotone = all(devs[i + 1] <= devs[i] for i in range(len(devs) - 1))
    final_ratio = devs[-1] / devs[0] if devs[0] != 0 else None
    return ConvergenceReport(m=m, limit=limit, records=tuple(records), monotone=monotone,
                             final_ratio=final_ratio, exact=exact)
