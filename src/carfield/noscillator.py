"""N-fold oscillator extension of the single-oscillator CAR representation.

An extended annihilator is the twisted symmetric sum

    ext(a) = (1/sqrt N) sum_k  g^(k-1) x a x id^(N-k)

with g the single-oscillator grading (parity).  The twist makes operators
in different slots anticommute, so the extension preserves the CAR with a
central right-hand side.  Noether generators extend as plain (untwisted)
sums, central elements as untwisted means, unitaries as tensor powers.

Two evaluation paths for vacuum matrix elements of smeared operator
products:

* explicit matrices, capped at total dimension (16 M)^N <= 2^20;
* an occupancy-pattern walk that never forms the N-fold space.  The walk
  tracks, per product vacuum, the multiset of slots whose local state has
  been modified, exploiting that all slots are exchangeable.  Nothing in
  the walk depends on N: N enters only through the binomial weight of each
  pattern and the deferred normalization, so one walk serves every N.  It
  is exact up to rounding for any N and any lattice, and on one-mode
  lattices it can run in exact arithmetic (every amplitude float is a
  dyadic rational), which matters because there the finite-N matrix
  element equals the limiting determinant identically and float noise
  would otherwise mask the equality.  The exact path lifts each amplitude
  table once to Gaussian integers over a power of two, runs in integers,
  and divides once at the end.

The walk's one budget is PATTERN_CAP (patterns and local states).  The float
path also stops once comb(N, k) leaves the float range, near N = 10^154 for
an order-2 overlap; the exact path has no N limit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
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
from .register import REGISTER_DIM, VACUUM_INDEX, build_register
from .sparse import MAX_DIM, SparseOperator

MAX_SLATER_ORDER = 8
PATTERN_CAP = 500_000


@dataclass(frozen=True)
class NRegister:
    space: SingleOscillatorSpace
    n: int

    def __post_init__(self):
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


def _slot_sum(nreg: NRegister, op: ModeBlocks, twist: ModeBlocks) -> SparseOperator:
    """Unscaled sum over slots of twist^(k-1) x op x id^(N-k), on CSR from embed."""
    _check_matrix_dim(nreg)
    op, twist = nreg.space.embed(op), nreg.space.embed(twist)
    ident = sparse.identity(nreg.factor_dim)
    total = sparse.zeros(nreg.dim)
    for k in range(nreg.n):
        factors = [twist] * k + [op] + [ident] * (nreg.n - k - 1)
        total = total + sparse.tensor_many(*factors)
    return total


def extend_operator(nreg: NRegister, op: ModeBlocks,
                    twist: ModeBlocks | None = None) -> SparseOperator:
    """(1/sqrt N) sum over slots of twist^(k-1) x op x id^(N-k)."""
    if twist is None:
        twist = nreg.space.parity()
    return sparse.prune(_slot_sum(nreg, op, twist) / np.sqrt(nreg.n))


def extend_additive(nreg: NRegister, op: ModeBlocks, mean: bool = False) -> SparseOperator:
    """Untwisted sum over slots; with mean=True, divided by N (central elements)."""
    total = _slot_sum(nreg, op, nreg.space.identity())
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
    _check_matrix_dim(nreg)
    vac = vacuum_state(nreg, profile)
    ket = vac
    for spec in reversed(ops):
        mat = extend_operator(nreg, smeared_matrix(nreg.space, spec))
        ket = sparse.apply_operator(mat, ket)
    return sparse.inner(vac, ket)


def zprod_inner(lattice: MomentumLattice, profile: VacuumProfile,
                f: np.ndarray, g: np.ndarray) -> complex:
    """Z-weighted one-particle scalar product sum_{i,s} w_i Z_i conj(f) g."""
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    if f.shape != (lattice.size, 2) or g.shape != (lattice.size, 2):
        raise ShapeError(f"amplitude tables must be ({lattice.size}, 2)")
    wz = lattice.weights * profile.z
    return complex(np.sum(wz[:, None] * np.conj(f) * g))


def gram_matrix(lattice: MomentumLattice, profile: VacuumProfile,
                fs: list[np.ndarray], gs: list[np.ndarray]) -> np.ndarray:
    if len(fs) != len(gs):
        raise ShapeError(f"need equal list lengths, got {len(fs)} and {len(gs)}")
    m = len(fs)
    out = np.zeros((m, m), dtype=np.complex128)
    for k in range(m):
        for j in range(m):
            out[k, j] = zprod_inner(lattice, profile, fs[k], gs[j])
    return out


def _perm_sign(sigma: tuple[int, ...]) -> int:
    sign = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sign = -sign
    return sign


def _permutation_sum(gram, scalar):
    """Signed sum over permutations of products gram[k][sigma k], in `scalar` arithmetic."""
    m = len(gram)
    if not 1 <= m <= MAX_SLATER_ORDER:
        raise PreconditionError(f"permutation sum limited to order {MAX_SLATER_ORDER}")
    total = scalar(0)
    for sigma in permutations(range(m)):
        term = scalar(_perm_sign(sigma))
        for k in range(m):
            term = term * gram[k][sigma[k]]
        total = total + term
    return total


def slater_limit(lattice: MomentumLattice, profile: VacuumProfile,
                 fs: list[np.ndarray], gs: list[np.ndarray]) -> complex:
    """Signed permutation sum over Z-products, i.e. det of the Gram matrix."""
    return _permutation_sum(gram_matrix(lattice, profile, fs, gs), complex)


# ---------------------------------------------------------------------------
# occupancy-pattern walk


class _ExactComplex:
    """Complex number with exact parts: Python ints (a Gaussian integer) or Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re
        self.im = im

    def __add__(self, other):
        return _ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, int):
            return _ExactComplex(self.re * other, self.im * other)
        return _ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return _ExactComplex(self.re, -self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))


def _dyadic_lift(values) -> tuple[list[_ExactComplex], int]:
    """Gaussian integers m_k and one shift t >= 0 with values[k] == m_k / 2**t exactly.

    Every finite float is p / 2**e with integer p, so a table of them shares
    the largest e as one power of two.
    """
    ratios = [(float(z.real).as_integer_ratio(), float(z.imag).as_integer_ratio())
              for z in values]
    shift = max(q.bit_length() - 1 for pair in ratios for _, q in pair)
    full = 1 << shift
    return [_ExactComplex(p_re * (full // q_re), p_im * (full // q_im))
            for (p_re, q_re), (p_im, q_im) in ratios], shift


def _exact_quotient(num: _ExactComplex, den: int) -> _ExactComplex:
    """The exact rational num / den: the one division of an exact result."""
    return _ExactComplex(Fraction(num.re, den), Fraction(num.im, den))


def _column_map(mat: SparseOperator) -> dict[int, tuple[int, int]]:
    """{col: (row, sign)} for a matrix with at most one +-1 entry per column."""
    dense = mat.toarray()
    out = {}
    for col in range(dense.shape[1]):
        rows = np.nonzero(dense[:, col])[0]
        if len(rows) == 0:
            continue
        row = int(rows[0])
        out[col] = (row, int(round(dense[row, col].real)))
    return out


def _build_ladder_maps():
    reg = build_register()
    maps = {}
    for species in ("b", "d"):
        for spin in (0, 1):
            mat = reg.ladder(species, spin)
            maps[(species, spin, False)] = _column_map(mat)
            maps[(species, spin, True)] = _column_map(sparse.adjoint(mat))
    parity = {r: (r, int(round(reg.parity[r, r].real))) for r in range(REGISTER_DIM)}
    return maps, parity


_LADDER_MAPS, _PARITY_MAP = _build_ladder_maps()


def _validate_state_path(space: SingleOscillatorSpace, ops: list[OpSpec]) -> None:
    modes = space.lattice.size
    for spec in ops:
        amp = np.asarray(spec.amplitude)
        if amp.shape != (modes, 2):
            raise ShapeError(f"amplitude table must be ({modes}, 2), got {amp.shape}")
        if spec.species not in ("b", "d"):
            raise ShapeError(f"species must be 'b' or 'd', got {spec.species!r}")
        if not np.all(np.isfinite(amp)):
            raise PreconditionError("amplitude table must be finite")


class _Walk(NamedTuple):
    """The N-independent result of a pattern walk, ready to evaluate at any N."""

    nops: int
    exact: bool
    # float path: (amplitude, root contraction of each slot) per pattern, in walk order
    terms: list
    # exact path: per pattern size k, the Gaussian-integer sum of the terms of
    # that size; every term carries the same factor 2**-shift
    sizes: list
    shift: int


def _pattern_walk(space: SingleOscillatorSpace, profile: VacuumProfile | None,
                  ops: list[OpSpec], exact: bool) -> _Walk:
    """Walk the occupancy patterns of a product; nothing here depends on N."""
    _validate_state_path(space, ops)
    lattice = space.lattice
    modes = lattice.size

    if exact:
        if modes != 1:
            raise PreconditionError("exact rational path requires a one-mode lattice")
        zero, one = _ExactComplex(0), _ExactComplex(1)
        # sqrt(w) O is a pure phase by normalization and cancels between bra
        # and ket, so the per-factor vacuum coefficient is fixed to 1
        root_coeff = [one]
    else:
        if profile is None:
            raise PreconditionError("float path needs a vacuum profile")
        zero, one = 0.0 + 0j, 1.0 + 0j
        root_coeff = [
            complex(np.sqrt(lattice.weights[i]) * profile.values[i]) for i in range(modes)
        ]

    # per op: coefficient tables coeffs[i][s] and register column maps per spin;
    # exact tables are Gaussian integers, op j's scaled by 2**shift_j
    op_table = []
    shift = 0
    for spec in ops:
        amp = np.asarray(spec.amplitude, dtype=np.complex128)
        table = amp if spec.dagger else np.conj(amp)
        if exact:
            row, op_shift = _dyadic_lift(table[0])
            coeffs = [row]
            shift += op_shift
        else:
            coeffs = [[complex(table[i, s]) for s in (0, 1)] for i in range(modes)]
        maps = tuple(_LADDER_MAPS[(spec.species, s, spec.dagger)] for s in (0, 1))
        op_table.append((coeffs, maps))

    # local states: sparse {(mode, register_index): amplitude}; id 0 is the
    # per-slot vacuum factor
    root = {(i, VACUUM_INDEX): root_coeff[i] for i in range(modes)}
    states: list[dict] = [root]
    children: dict[tuple, int | None] = {}

    def apply_label(state_id: int, label) -> int | None:
        key = (state_id, label)
        if key in children:
            return children[key]
        vec = states[state_id]
        out: dict = {}
        if label == "twist":
            for (i, r), val in vec.items():
                row, sign = _PARITY_MAP[r]
                out[(i, row)] = val * sign
        else:
            coeffs, maps = op_table[label]
            for (i, r), val in vec.items():
                for s in (0, 1):
                    hit = maps[s].get(r)
                    if hit is None:
                        continue
                    row, sign = hit
                    term = coeffs[i][s] * sign * val
                    acc = out.get((i, row))
                    acc = term if acc is None else acc + term
                    if not acc:
                        out.pop((i, row), None)
                    else:
                        out[(i, row)] = acc
        if not out:
            children[key] = None
            return None
        states.append(out)
        new_id = len(states) - 1
        children[key] = new_id
        if label == "twist":
            children[(new_id, "twist")] = state_id  # twist is an involution
        return new_id

    def twist_prefix(key: tuple, t: int) -> list | None:
        twisted = []
        for sid in key[:t]:
            tw = apply_label(sid, "twist")
            if tw is None:
                return None
            twisted.append(tw)
        return twisted

    patterns: dict[tuple, object] = {(): one}
    for op_index in reversed(range(len(ops))):
        next_patterns: dict[tuple, object] = {}

        def accumulate(key, value):
            acc = next_patterns.get(key)
            acc = value if acc is None else acc + value
            if not acc:
                next_patterns.pop(key, None)
            else:
                next_patterns[key] = acc

        for key, amp in patterns.items():
            count = len(key)
            fresh = apply_label(0, op_index)
            for t in range(count + 1):
                # act on an untouched slot inserted at position t
                if fresh is None:
                    break
                twisted = twist_prefix(key, t)
                if twisted is None:
                    continue
                accumulate(tuple(twisted) + (fresh,) + key[t:], amp)
            for t in range(count):
                # act on the already-modified slot at position t
                new_id = apply_label(key[t], op_index)
                if new_id is None:
                    continue
                twisted = twist_prefix(key, t)
                if twisted is None:
                    continue
                accumulate(tuple(twisted) + (new_id,) + key[t + 1:], amp)
        patterns = next_patterns
        if len(patterns) > PATTERN_CAP or len(states) > PATTERN_CAP:
            raise ResourceLimitError(
                "state path exceeded the pattern budget; reduce the order M or the lattice modes"
            )

    def contract_with_root(vec: dict):
        total = zero
        for i in range(modes):
            val = vec.get((i, VACUUM_INDEX))
            if val is None:
                continue
            total = total + root_coeff[i].conjugate() * val
        return total

    roots = [contract_with_root(vec) for vec in states]
    if not exact:
        terms = [(amp, tuple(roots[sid] for sid in key)) for key, amp in patterns.items()]
        return _Walk(len(ops), False, terms, [], 0)
    # every op acted on exactly one slot of each pattern, so every term
    # carries the same power of two, 2**-shift
    sizes = [zero] * (len(ops) + 1)
    for key, amp in patterns.items():
        term = amp
        for sid in key:
            if not term:
                break
            term = term * roots[sid]
        sizes[len(key)] = sizes[len(key)] + term
    return _Walk(len(ops), True, [], sizes, shift)


def _evaluate_walk(walk: _Walk, n: int):
    """The walk's matrix element at N copies: complex, or an exact rational _ExactComplex."""
    half, odd = divmod(walk.nops, 2)
    if walk.exact:
        total = _ExactComplex(0)
        for count, size_sum in enumerate(walk.sizes):
            # comb(N, k) = 0 drops patterns with more modified slots than factors
            total = total + size_sum * math.comb(n, count)
        if odd and total:
            # register parity forces odd products to vanish on the vacuum
            raise PreconditionError("odd operator product gave a nonzero exact value")
        # the dyadic scale and the deferred 1/sqrt(N) per operator factor
        return _exact_quotient(total, n**half << walk.shift)
    try:
        total = 0.0 + 0j
        for amp, roots in walk.terms:
            count = len(roots)
            if count > n:
                continue  # more modified slots than available factors
            term = amp * math.comb(n, count)
            for root in roots:
                if not term:
                    break
                term = term * root
            total = total + term

        # deferred 1/sqrt(N) normalizations, one per operator factor
        scale = 1.0 / n**half
        if odd:
            scale /= math.sqrt(n)
        value = total * scale
    except OverflowError:  # comb(N, k) or N^(M/2) past the float range
        value = complex("inf")
    if not cmath.isfinite(value):
        # finite amplitudes leave only the binomial weights comb(N, k) to overflow
        raise ResourceLimitError("the float walk overflowed; reduce N or the amplitudes")
    return value


def vacuum_matrix_element(nreg: NRegister, profile: VacuumProfile,
                          ops: list[OpSpec], exact: bool = False) -> complex:
    """<vac_N| product of smeared extended operators |vac_N>, written left to right.

    State-level evaluation: the product vacuum is exchange-symmetric, so a
    partially applied state is a combination of "patterns", multisets of
    modified per-slot local states with an amplitude each.  Applying one
    extended operator branches every pattern into (insert at a fresh slot,
    grading applied to all slots left of it) and (update a modified slot,
    ditto).  N enters only at the end, through the binomial weight
    comb(N, k) of a pattern with k modified slots and the deferred 1/sqrt(N)
    per factor, so one walk serves every N.  The exact path runs in Gaussian
    integers, each amplitude table lifted once to integers over a power of
    two 2^e_j; it sums the terms by pattern size and divides once, by
    2^(sum e_j) N^(K // 2) for K factors.
    """
    return complex(_evaluate_walk(_pattern_walk(nreg.space, profile, ops, exact), nreg.n))


def _gram_exact(fs: list[np.ndarray],
                gs: list[np.ndarray]) -> tuple[list[list[_ExactComplex]], int]:
    """Gram matrix on a normalized one-mode lattice, where w Z = 1 exactly.

    Entries are Gaussian integers over one shift: row k and column j carry
    their own powers of two, so every permutation product shares 2**-shift.
    """
    f_rows, f_shifts = zip(*(_dyadic_lift(np.conj(np.asarray(f, dtype=np.complex128)[0]))
                             for f in fs))
    g_cols, g_shifts = zip(*(_dyadic_lift(np.asarray(g, dtype=np.complex128)[0]) for g in gs))
    gram = [[fk[0] * gj[0] + fk[1] * gj[1] for gj in g_cols] for fk in f_rows]
    return gram, sum(f_shifts) + sum(g_shifts)


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

    One pattern walk serves every N in n_list.  On one-mode lattices the
    evaluation runs in exact rational arithmetic
    (both the matrix element and the determinant): there the central term
    is a scalar, the smeared operators satisfy the canonical relations on
    the nose, and the two sides coincide identically at every finite N, so
    float noise would otherwise produce spurious non-monotone deviation
    sequences.  Any other lattice runs the float walk.
    """
    if len(fs) != len(gs):
        raise ShapeError(f"need equal list lengths, got {len(fs)} and {len(gs)}")
    m = len(fs)
    if list(n_list) != sorted(n_list) or len(n_list) == 0 or n_list[0] < 1:
        raise ConfigError("n_list must be a nonempty ascending list of positive integers")
    lattice = space.lattice
    exact = lattice.size == 1
    ops = overlap_product_ops(fs, gs)

    if exact:
        gram, shift = _gram_exact(fs, gs)
        limit_value = _exact_quotient(_permutation_sum(gram, _ExactComplex), 1 << shift)
    else:
        limit_value = slater_limit(lattice, profile, fs, gs)
    limit = complex(limit_value)

    # the walk and the determinant stay independent routes to the limit
    walk = _pattern_walk(space, profile, ops, exact)
    records = []
    for n in n_list:
        value = _evaluate_walk(walk, n)
        records.append(ConvergenceRecord(m=m, n=n, lhs=complex(value), limit=limit,
                                         deviation=abs(value - limit_value)))

    devs = [r.deviation for r in records]
    monotone = all(devs[i + 1] <= devs[i] for i in range(len(devs) - 1))
    final_ratio = devs[-1] / devs[0] if devs[0] != 0 else None
    return ConvergenceReport(
        m=m,
        limit=limit,
        records=tuple(records),
        monotone=monotone,
        final_ratio=final_ratio,
        exact=exact,
    )
