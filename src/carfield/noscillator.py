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
  extension is one COO assembly by index arithmetic, with no chain of
  tensor products;
* a set-partition (moment-cumulant) expansion that never forms the N-fold
  space.  It sums products of single-oscillator vacuum moments over set
  partitions of the factors by block count and weights j blocks by
  N! / (N - j)!, so one expansion serves every N.  Which register entries
  each factor reaches, which subsets meet the vacuum and how partitions
  split depend only on the (species, dagger) word and the mode count: they
  are compiled once into a cached plan, and a call runs only the arithmetic.
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
from .register import VACUUM_INDEX, build_register
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
    """Unscaled sum over slots of twist^(k-1) x op x id^(N-k), twist a (16 M,) diagonal.

    One COO assembly.  Slot k places op entry (r, c) at row
    (l d + r) d^(N-k-1) + b and column (l d + c) d^(N-k-1) + b, for every left
    index l and right index b, with value twist(l) op[r, c], twist(l) the
    product of the twist diagonal over the k left slots.  Slot terms meet only
    on the diagonal.  The entries go in slot order into arrays of their final
    size, and `SparseOperator.from_coo` sums each diagonal entry from 0 in
    that order, as the kron chain's left-to-right CSR additions sum it.
    """
    _check_matrix_dim(nreg)
    op = nreg.space.embed(op)
    d, n = nreg.factor_dim, nreg.n
    rows, cols, data = op.coo()
    lefts = [np.ones(1, dtype=np.complex128)]
    for _ in range(n - 1):
        lefts.append(np.kron(lefts[-1], twist))
    per_slot = len(data) * d ** (n - 1)
    out_rows = np.empty(n * per_slot, dtype=np.int32)
    out_cols = np.empty_like(out_rows)
    out_data = np.empty(len(out_rows), dtype=np.complex128)
    for k, left in enumerate(lefts):
        right = d ** (n - k - 1)
        shape = (len(left), len(data), right)
        l = np.arange(len(left), dtype=np.int32)[:, None, None] * d
        b = np.arange(right, dtype=np.int32)
        part = slice(k * per_slot, (k + 1) * per_slot)
        out_rows[part].reshape(shape)[:] = (l + rows[:, None]) * right + b
        out_cols[part].reshape(shape)[:] = (l + cols[:, None]) * right + b
        out_data[part].reshape(shape)[:] = (left[:, None] * data)[:, :, None]
    return SparseOperator.from_coo(out_data, out_rows, out_cols, (nreg.dim, nreg.dim))


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


def smeared_matrix(space: SingleOscillatorSpace, spec: OpSpec) -> ModeBlocks:
    mat = smeared_annihilator(space, spec.amplitude, spec.species)
    return mat.adjoint() if spec.dagger else mat


def vacuum_matrix_element_matrix(nreg: NRegister, profile: VacuumProfile,
                                 ops: list[OpSpec]) -> complex:
    """Matrix-path evaluation of <vac_N| op_1 ... op_k |vac_N> (small N only)."""
    vac = vacuum_state(nreg, profile)
    ket = vac
    for spec in reversed(ops):
        mat = extend_operator(nreg, smeared_matrix(nreg.space, spec))
        ket = sparse.apply_operator(mat, ket)
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


def _dyadic_lift(values: np.ndarray) -> tuple[list[tuple[int, int]], int]:
    """Gaussian integers m_k and one shift t >= 0 with values[k] == m_k / 2**t exactly.

    Every finite float is p / 2**e with integer p, so a table of them shares
    the largest e as one power of two.  A Gaussian integer is an (re, im)
    pair of Python ints.
    """
    ratios = [(z.real.as_integer_ratio(), z.imag.as_integer_ratio()) for z in values.tolist()]
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


_REGISTER = build_register()


def _ladder_map(species: str, spin: int, dagger: bool) -> dict[int, tuple[int, int]]:
    """{col: (row, sign)} of a register ladder or its adjoint, a signed partial permutation."""
    ladder = _REGISTER.ladder(species, spin)
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
    """What an expansion's operator word and mode count fix, with no value in it.

    `steps` is the depth-first walk over ordered sub-products, in pre-order.
    Step t applies factor k to its parent ket (0 the vacuum, u + 1 step u)
    and holds (parent, k, entries, size, vacuum, odd, skip): its (source,
    signed coefficient, destination) entries in the order the walk meets
    them, its ket size, its (mode, entry) vacuum entries, whether its subset
    is odd, and the step after its subtree.  `signs` gives, per factor, the
    (mode, spin, ladder sign) of each signed coefficient.  `rests` lists the
    remaining sets of the partition sum, each after the ones it uses: its
    length and a (step, rest, negate) entry per block.  Entries are stored
    flat, one tuple of ints per step or rest, and `size` counts them.
    """

    signs: tuple
    steps: tuple
    rests: tuple
    size: int


def _compile_plan(word: tuple, modes: int) -> _Plan:
    """The plan of a (species, dagger) word on `modes` lattice modes."""
    maps = [(_LADDERS[(species, 0, dagger)], _LADDERS[(species, 1, dagger)])
            for species, dagger in word]
    steps: list = []
    signs: list[dict] = [{} for _ in maps]
    blocks: list[list] = [[] for _ in maps]

    def descend(keys: list, parent: int, mask: int, low: int) -> None:
        # keys are the entries of A_b1 ... A_bm |vac> for mask = {b1 < ... < bm},
        # low = b1; prepending a smaller factor visits every subset once
        for k in range(low):
            index: dict = {}
            entries = []
            for a, (i, r) in enumerate(keys):
                for s in (0, 1):
                    hit = maps[k][s].get(r)
                    if hit is not None:
                        row, sign = hit
                        c = signs[k].setdefault((i, s, sign), len(signs[k]))
                        entries += a, c, index.setdefault((i, row), len(index))
            if not entries:
                continue  # every superset that prepends factors to it vanishes too
            block = mask | 1 << k
            vacuum = []
            for i in range(modes):
                if (i, VACUUM_INDEX) in index:
                    vacuum += i, index[(i, VACUUM_INDEX)]
            at = len(steps)
            steps.append(None)
            if vacuum:
                blocks[k].append((block, at))
            descend(list(index), at + 1, block, k)
            steps[at] = (parent, k, tuple(entries), len(index), tuple(vacuum),
                         block.bit_count() % 2 == 1, len(steps))

    descend([(i, VACUUM_INDEX) for i in range(modes)], 0, 0, len(maps))
    rests: list = []
    where = {0: 0}  # a remaining set's place among the sums, 0 the empty set

    def split(rest: int) -> int:
        # split off the block holding the smallest remaining factor
        if rest not in where:
            entries = []
            for block, at in blocks[(rest & -rest).bit_length() - 1]:
                if block & ~rest:
                    continue
                left = rest & ~block
                # the shuffle that moves the block to the front passes, for each
                # of its factors, every remaining factor ahead of it
                swaps = sum((left & ((1 << k) - 1)).bit_count()
                            for k in range(block.bit_length()) if block >> k & 1)
                entries += at, split(left), swaps % 2 == 1
            rests.append((rest.bit_count() + 1, tuple(entries)))
            where[rest] = len(rests)
        return where[rest]

    split((1 << len(maps)) - 1)
    size = (sum(len(step[2]) // 3 + len(step[4]) // 2 for step in steps)
            + sum(len(entries) // 3 for _, entries in rests))
    return _Plan(tuple(tuple(table) for table in signs), tuple(steps), tuple(rests), size)


# the plan entries the cache keeps, at most about 9 MB of plans: an order-8
# overlap on 5 modes has 76 596 entries (2.5 MB), a default report's 22
# plans 539 in all
PLAN_CACHE_ENTRIES = 1 << 18


class _PlanCache:
    """Least recently used plans by (word, modes), bounded by the entries they hold."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.plans: OrderedDict = OrderedDict()
        self.entries = 0
        self._lock = threading.Lock()  # the plans and their entry count change together

    def plan(self, word: tuple, modes: int) -> _Plan:
        key = (word, modes)
        with self._lock:
            plan = self.plans.pop(key, None)
            if plan is None:
                plan = _compile_plan(word, modes)
            else:
                self.entries -= plan.size
            if plan.size <= self.capacity:
                self.plans[key] = plan
                self.entries += plan.size
                while self.entries > self.capacity:
                    self.entries -= self.plans.popitem(last=False)[1].size
        return plan


_PLANS = _PlanCache(PLAN_CACHE_ENTRIES)


def _vacuum_moments(space: SingleOscillatorSpace, profile: VacuumProfile | None,
                    ops: list[OpSpec], exact: bool):
    """Nonzero single-oscillator moments omega(B) of the ordered sub-products B.

    Returns (plan, moments, shift): moments[t] is omega of the subset of plan
    step t as an (re, im) pair, None where it is zero, as on every odd subset.
    Exact parts are ints carrying 2**-shift, float parts floats.
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

    # per factor: its (re, im) coefficient on each mode and spin; an exact
    # factor is its one mode's row of Gaussian integers, factor j's scaled by
    # 2**shift_j
    factors = []
    shift = 0
    for spec in ops:
        amp = np.asarray(spec.amplitude)
        if amp.shape != (modes, 2):
            raise ShapeError(f"amplitude table must be ({modes}, 2), got {amp.shape}")
        if spec.species not in ("b", "d"):
            raise ShapeError(f"species must be 'b' or 'd', got {spec.species!r}")
        if not np.isfinite(amp).all():
            raise PreconditionError("amplitude table must be finite")
        table = (amp if spec.dagger else np.conj(amp)).astype(np.complex128)
        if exact:
            row, op_shift = _dyadic_lift(table[0])
            factors.append([row])
            shift += op_shift
        else:
            factors.append([[(z.real, z.imag) for z in row] for row in table.tolist()])

    plan = _PLANS.plan(tuple((spec.species, spec.dagger) for spec in ops), modes)
    if exact:
        # sqrt(w) O is a pure phase by normalization and cancels between bra
        # and ket, so the vacuum coefficient is 1 and weighs nothing
        root = [(1, 0)]
    else:
        root = [complex(np.sqrt(lattice.weights[i]) * profile.values[i]) for i in range(modes)]
        root = [(z.real, z.imag) for z in root]
    return plan, _moments(plan, factors, root), shift


def _moments(plan: _Plan, factors: list, root: list) -> list:
    """The value pass of `_vacuum_moments`: one loop for ints and floats alike.

    factors[k][i][s] is factor k's (re, im) coefficient on mode i and spin s,
    and root[i] the vacuum's on mode i; the bra takes its conjugate.  A ket
    is kept as separate re and im lists and the arithmetic is written out,
    with no call per operation: CPython's complex product and sum make these
    same float operations, and every sum starts from 0.
    """
    # the ladder signs folded into each factor's coefficients
    tables = [([table[i][s][0] * sign for i, s, sign in signs],
               [table[i][s][1] * sign for i, s, sign in signs])
              for table, signs in zip(factors, plan.signs)]
    bra = [(re, -im) for re, im in root]
    kets = [([re for re, _ in root], [im for _, im in root])] + [None] * len(plan.steps)
    moments = [None] * len(plan.steps)
    t = 0
    while t < len(plan.steps):
        parent, k, entries, size, vacuum, odd, skip = plan.steps[t]
        (src_re, src_im), (tab_re, tab_im) = kets[parent], tables[k]
        ket_re, ket_im = [0] * size, [0] * size
        flat = iter(entries)
        for a, c, d in zip(flat, flat, flat):
            x_re, x_im = src_re[a], src_im[a]
            if x_re or x_im:  # zero entries give no term
                y_re, y_im = tab_re[c], tab_im[c]
                ket_re[d] += y_re * x_re - y_im * x_im
                ket_im[d] += y_re * x_im + y_im * x_re
        if not (any(ket_re) or any(ket_im)):
            t = skip  # every superset that prepends factors to it vanishes too
            continue
        kets[t + 1] = ket_re, ket_im
        m_re = m_im = 0
        flat = iter(vacuum)
        for i, d in zip(flat, flat):
            x_re, x_im = ket_re[d], ket_im[d]
            if x_re or x_im:
                y_re, y_im = bra[i]
                m_re += y_re * x_re - y_im * x_im
                m_im += y_re * x_im + y_im * x_re
        if m_re or m_im:
            if odd:
                # register parity forces odd products to vanish on the vacuum
                raise PreconditionError("odd operator product gave a nonzero vacuum moment")
            moments[t] = m_re, m_im
        t += 1
    return moments


def _partition_sum(plan: _Plan, moments: list) -> list[tuple]:
    """c_j as (re, im) pairs: the moments summed over set partitions, by block count."""
    sums = [([1], [0])]
    for length, entries in plan.rests:
        out_re, out_im = [0] * length, [0] * length
        flat = iter(entries)
        for t, left, negate in zip(flat, flat, flat):
            moment = moments[t]
            if moment is None:
                continue
            # the shuffle sign, folded into the moment once per entry
            m_re, m_im = (-moment[0], -moment[1]) if negate else moment
            for j, c_re, c_im in zip(range(1, length), *sums[left]):
                if c_re or c_im:
                    out_re[j] += m_re * c_re - m_im * c_im
                    out_im[j] += m_re * c_im + m_im * c_re
        sums.append((out_re, out_im))
    return list(zip(*sums[-1]))


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
    f_rows = [_dyadic_lift(np.conj(np.asarray(f, dtype=np.complex128)[0])) for f in fs]
    g_cols = [_dyadic_lift(np.asarray(g, dtype=np.complex128)[0]) for g in gs]
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
