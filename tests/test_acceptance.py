"""Acceptance checks, one per contract item, each printing a verdict line.

Run with output enabled to see the per-criterion lines:

    python3 -m pytest tests/test_acceptance.py -v -s

Every criterion is evaluated at its stated tolerance; randomized inputs use
fixed seeds so the numbers below are reproducible bit for bit.
"""

import numpy as np

from carfield import sparse, spinors, symmetries
from carfield.modes import (
    SingleOscillatorSpace,
    mode_annihilator,
    mode_projector,
    rapidity_lattice,
    restricted_lattice,
    uniform_profile,
)
from carfield.noscillator import (
    NRegister,
    OpSpec,
    extend_additive,
    extend_operator,
    determinant_limit_convergence,
    overlap_product_ops,
    vacuum_matrix_element,
    vacuum_state,
    zprod_inner,
)
from carfield.register import (
    build_register,
    conjugation_report,
    pair_exponential,
    quadratic_generator,
)
from conftest import zero_operator

Y = np.array([0.3, 0.05, -0.1, 0.2])
X = np.array([0.15, -0.3, 0.2, 0.4])


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _ball_momenta(rng, count, radius=10.0, m=1.0):
    """(count, 4) on-shell momenta with |p| uniform in [0, radius), in random directions."""
    out = []
    for _ in range(count):
        v = rng.standard_normal(3)
        v *= rng.uniform(0, radius) / np.linalg.norm(v)
        out.append(v)
    return spinors.from_spatial(np.array(out), m)


def test_criterion_01_car_table():
    reg = build_register()
    cs = reg.annihilators()
    ops = cs + [c.conj().T for c in cs]
    ident = reg.identity
    worst = 0.0
    pairs = 0
    for i in range(8):
        for j in range(i + 1, 8):
            pairs += 1
            anti = ops[i] @ ops[j] + ops[j] @ ops[i]
            expected = ident if j == i + 4 else 0
            worst = max(worst, sparse.max_abs(anti - expected))
    assert pairs == 28
    _verdict(1, "register CAR table", worst <= 1e-14,
             f"28 pairwise anticommutators, residual {worst:.2e} <= 1e-14")


def test_criterion_02_block_exponential():
    reg = build_register()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        norm = np.linalg.norm(a, 2)
        if norm > 2.0:
            a *= 2.0 / norm
        closed = pair_exponential(a, a)
        dense = sparse.dense_exponential(quadratic_generator(a, a))
        worst = max(worst, sparse.max_abs(closed - dense))
    _verdict(2, "block exponential identity", worst <= 1e-10,
             f"50 draws with |A| <= 2, residual {worst:.2e} <= 1e-10")


def test_criterion_03_conjugation_identities():
    reg = build_register()
    rng = np.random.default_rng(103)
    mixing = phase = parity = 0.0
    for _ in range(10):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = 0.5 * (h - h.conj().T)
        a = a - 0.5 * np.trace(a) * np.eye(2)
        alpha, beta = (float(v) for v in rng.uniform(-np.pi, np.pi, 2))
        rep = conjugation_report(reg, a, alpha, beta)
        mixing = max(mixing, rep.su2_residual)
        phase = max(phase, rep.phase_residual)
        parity = max(parity, rep.parity_residual)
    ok = mixing <= 1e-10 and phase <= 1e-10 and parity <= 1e-14
    _verdict(3, "conjugation identities", ok,
             f"mixing {mixing:.2e} <= 1e-10, phase {phase:.2e} <= 1e-10, "
             f"grading {parity:.2e} <= 1e-14")


def test_criterion_04_spin_frame_reconstruction():
    rng = np.random.default_rng(104)
    m = 1.0
    # degenerate direction: +z at nearly light-like rapidity forces the
    # fallback reference spinor
    momenta = np.concatenate([
        _ball_momenta(rng, 1000),
        spinors.from_spatial([[0.0, 0.0, 1e9], [0.0, 0.0, 4e8]], m),
    ])
    frame = spinors.build_spin_frame(momenta, m)
    fallbacks = int(np.sum(frame.used_fallback))
    pi = frame.pi
    om = frame.omega
    recon = (pi[:, :, None] * np.conj(pi)[:, None, :]
             + (m**2 / 2) * (om[:, :, None] * np.conj(om)[:, None, :]))
    worst_recon = float(np.max(
        np.max(np.abs(recon - spinors.momentum_to_hermitian(momenta)), axis=(1, 2))
        / momenta[:, 0]
    ))
    worst_norm = float(np.max(np.abs(spinors.contract(om, pi) - 1.0)))
    ok = worst_recon <= 1e-11 and worst_norm <= 1e-12 and fallbacks >= 2
    _verdict(4, "spin-frame reconstruction", ok,
             f"1000 momenta + {fallbacks} fallback hits, "
             f"reconstruction {worst_recon:.2e} <= 1e-11 E, "
             f"normalization {worst_norm:.2e} <= 1e-12")


def test_criterion_05_eigen_bispinors():
    rng = np.random.default_rng(105)
    m = 1.0
    momenta = np.concatenate([_ball_momenta(rng, 60), spinors.from_spatial([[0.0, 0.0, 0.0]], m)])
    frame = spinors.build_spin_frame(momenta, m)
    pos, neg = spinors.eigen_bispinors(frame)
    s_un, s_pr = (block[:, None] for block in spinors.pauli_lubanski_projection(frame))
    p = momenta[:, None]
    worst_dirac = float(max(np.max(spinors.dirac_residual(p, m, pos, +1)),
                            np.max(spinors.dirac_residual(p, m, neg, -1))))
    # spin minus carries -1/2, spin plus +1/2
    val = np.array([-0.5, 0.5])[None, :, None]
    worst_spin = 0.0
    for branch in (pos, neg):
        worst_spin = max(worst_spin, float(np.max(np.abs(
            (s_un @ branch[..., :2, None])[..., 0] - val * branch[..., :2]))))
        worst_spin = max(worst_spin, float(np.max(np.abs(
            (s_pr @ branch[..., 2:, None])[..., 0] - val * branch[..., 2:]))))
    ok = worst_dirac <= 1e-12 and worst_spin <= 1e-12
    _verdict(5, "eigen-bispinors", ok,
             f"Dirac residual {worst_dirac:.2e} <= 1e-12, "
             f"spin eigenvalue residual {worst_spin:.2e} <= 1e-12")


def test_criterion_06_wigner_mixing():
    rng = np.random.default_rng(106)
    m = 1.0
    # drawn in the order (momentum, l1, l2) per triple, then computed as stacks
    triples = [(_ball_momenta(rng, 1, m=m)[0], spinors.random_sl2c_exponent(rng),
                spinors.random_sl2c_exponent(rng)) for _ in range(100)]
    p, x1, x2 = (np.array(column) for column in zip(*triples))
    l1, l2 = spinors.exponential(np.stack([x1, x2]))
    u12 = spinors.wigner_matrix(l1 @ l2, p, m)
    worst_unit = max(float(np.max(np.abs(np.swapaxes(u12.conj(), 1, 2) @ u12 - np.eye(2)))),
                     float(np.max(np.abs(np.linalg.det(u12) - 1.0))))
    q = spinors.apply_lorentz(np.linalg.inv(l1), p, m)
    chained = spinors.wigner_matrix(l1, p, m) @ spinors.wigner_matrix(l2, q, m)
    worst_coc = float(np.max(np.abs(chained - u12)))
    ok = worst_unit <= 1e-10 and worst_coc <= 1e-9
    _verdict(6, "spin mixing matrices", ok,
             f"100 triples, unitarity/det {worst_unit:.2e} <= 1e-10, "
             f"cocycle {worst_coc:.2e} <= 1e-9")


def test_criterion_07_reducible_car():
    worst = 0.0
    central_worst = 0.0
    cases = []
    for n, j_max_modes in ((1, 2), (2, 2), (3, 1)):
        if j_max_modes == 2:
            lattice = restricted_lattice(rapidity_lattice(1, 0.4, 1.0), (0, 2))
        else:
            lattice = rapidity_lattice(0, 0.4, 1.0)
        space = SingleOscillatorSpace(lattice)
        nreg = NRegister(space, n)
        modes = lattice.size
        ladders = {}
        for i in range(modes):
            for s in (0, 1):
                for species in ("b", "d"):
                    single = mode_annihilator(space, i, s, species)
                    ladders[(i, s, species)] = (single, extend_operator(nreg, single))
        for (i, s, sp1), (single_a, ext_a) in ladders.items():
            for (j, t, sp2), (single_b, ext_b) in ladders.items():
                anti = sparse.anticommutator(ext_a, sparse.adjoint(ext_b))
                expected = extend_additive(
                    nreg, single_a.anticommutator(single_b.adjoint())) / nreg.n
                worst = max(worst, sparse.max_abs(anti - expected))
                worst = max(worst, sparse.max_abs(sparse.anticommutator(ext_a, ext_b)))
        for i in range(modes):
            central = extend_additive(nreg, mode_projector(space, i)) / nreg.n
            for (_, _, _), (_, ext_a) in ladders.items():
                central_worst = max(
                    central_worst, sparse.max_abs(sparse.commutator(central, ext_a))
                )
        cases.append(f"(N={n}, modes={modes})")
    ok = worst <= 1e-13 and central_worst == 0.0
    _verdict(7, "reducible CAR with central term", ok,
             f"{', '.join(cases)}: CAR residual {worst:.2e} <= 1e-13, "
             f"centrality residual {central_worst:.1e} (exact)")


def test_criterion_08_one_electron_scalar_product():
    rng = np.random.default_rng(108)
    lattice = restricted_lattice(rapidity_lattice(1, 0.4, 1.0), (0, 2))
    space = SingleOscillatorSpace(lattice)
    profile = uniform_profile(lattice)
    f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    want = zprod_inner(lattice, profile, f, g)
    worst = cross_worst = 0.0
    for n in (1, 2, 4, 8):
        nreg = NRegister(space, n)
        got = vacuum_matrix_element(nreg, profile, overlap_product_ops([f], [g]))
        worst = max(worst, abs(got - want))
        crossed = vacuum_matrix_element(
            nreg, profile, [OpSpec(f, "b", False), OpSpec(g, "d", True)]
        )
        cross_worst = max(cross_worst, abs(crossed))
    ok = worst <= 1e-13 and cross_worst <= 1e-13
    _verdict(8, "one-electron scalar product", ok,
             f"N in {{1,2,4,8}}: |<c(f) c(g)'> - <f,g>_Z| = {worst:.2e} <= 1e-13, "
             f"species off-diagonal {cross_worst:.2e} <= 1e-13")


def test_criterion_09_determinant_limit():
    rng = np.random.default_rng(109)
    single = SingleOscillatorSpace(rapidity_lattice(0, 0.4, 1.0))
    double_lat = restricted_lattice(rapidity_lattice(1, 0.4, 1.0), (0, 2))
    double = SingleOscillatorSpace(double_lat)
    prof1 = uniform_profile(single.lattice)
    prof2 = uniform_profile(double_lat)
    n_single = [2, 4, 8, 16, 32, 64]
    n_double = [2, 4, 8]
    details = []
    ok = True
    swap_worst = 0.0
    for m in (2, 3):
        fs = [rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)) for _ in range(m)]
        gs = [rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)) for _ in range(m)]
        rep = determinant_limit_convergence(single, prof1, fs, gs, n_single)
        devs = {r.n: r.deviation for r in rep.records}
        quarter_ok = devs[64] <= devs[8] / 4 or (devs[64] == 0.0 and devs[8] == 0.0)
        ok = ok and rep.monotone and quarter_ok
        details.append(f"M={m} one-mode monotone={rep.monotone} "
                       f"dev(64)={devs[64]:.1e} <= dev(8)/4={devs[8] / 4:.1e}")

        # antisymmetry under swapping the first two rows, exact at every N
        swapped = [fs[1], fs[0]] + fs[2:]
        base_ops = overlap_product_ops(fs, gs)
        swap_ops = overlap_product_ops(swapped, gs)
        for n in n_single:
            nreg = NRegister(single, n)
            total = (vacuum_matrix_element(nreg, prof1, base_ops, exact=True)
                     + vacuum_matrix_element(nreg, prof1, swap_ops, exact=True))
            swap_worst = max(swap_worst, abs(total))

        fs2 = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(m)]
        gs2 = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(m)]
        rep2 = determinant_limit_convergence(double, prof2, fs2, gs2, n_double)
        ok = ok and rep2.monotone and rep2.records[0].deviation > 0
        details.append(f"M={m} two-mode monotone={rep2.monotone}")
    ok = ok and swap_worst == 0.0
    details.append(f"swap antisymmetry residual {swap_worst:.1e} (exact)")
    _verdict(9, "determinant limit", ok, "; ".join(details))


def test_criterion_10_poincare_suite():
    lattice = rapidity_lattice(6, 0.4, 1.0)
    space = SingleOscillatorSpace(lattice)
    profile = uniform_profile(lattice)

    momenta = [space.embed(op) for op in symmetries.four_momentum(space)]
    gen = zero_operator(space.dim)
    for a in range(4):
        gen = gen + float(Y[a]) * momenta[a]
    translation = sparse.max_abs(
        space.embed(symmetries.translation_unitary(space, Y))
        - sparse.matrix_exponential(1j * gen)
    )

    boost = symmetries.boost_unitary(space, 1)
    covariance = symmetries.field_covariance_residual(space, boost, Y, X)
    grading = symmetries.grading_invariance_residual(space, boost, Y)
    vac_rep = symmetries.vacuum_covariance_report(space, profile, boost, Y)

    ok = (translation <= 1e-12 and covariance <= 1e-9
          and grading <= 1e-14 and vac_rep.residual <= 1e-12)
    _verdict(10, "lattice Poincare suite", ok,
             f"translation {translation:.2e} <= 1e-12, "
             f"boost covariance {covariance:.2e} <= 1e-9, "
             f"grading invariance {grading:.2e} <= 1e-14, "
             f"vacuum phase e^(-2iy.p) {vac_rep.residual:.2e} <= 1e-12")


def test_criterion_11_charge_and_spin():
    lattice = rapidity_lattice(6, 0.4, 1.0)
    space = SingleOscillatorSpace(lattice)
    gauge = symmetries.gauge_check(space, 1.0, 0.8, X)

    small = SingleOscillatorSpace(rapidity_lattice(2, 0.4, 1.0))
    profile = uniform_profile(small.lattice)
    nreg = NRegister(small, 2)
    q_ext = extend_additive(nreg, symmetries.charge_operator(small, 1.0))
    comm_worst = 0.0
    spin_worst = 0.0
    s_ext = extend_additive(nreg, symmetries.spin_operator(small))
    for i in (0, 2):
        for s, sign in ((0, -0.5), (1, 0.5)):
            b_dag = extend_operator(nreg, mode_annihilator(small, i, s, "b").adjoint())
            d_dag = extend_operator(nreg, mode_annihilator(small, i, s, "d").adjoint())
            comm_worst = max(comm_worst, sparse.max_abs(
                sparse.commutator(q_ext, b_dag) - b_dag))
            comm_worst = max(comm_worst, sparse.max_abs(
                sparse.commutator(q_ext, d_dag) + d_dag))
            spin_worst = max(spin_worst, sparse.max_abs(
                sparse.commutator(s_ext, b_dag) - sign * b_dag))
            spin_worst = max(spin_worst, sparse.max_abs(
                sparse.commutator(s_ext, d_dag) - sign * d_dag))
    vac = s_ext @ vacuum_state(nreg, profile)
    spin_vacuum = float(np.max(np.abs(vac)))

    # the extended spin diagonal reaches half-integers like 1.5 whose product
    # with 1/sqrt(2) rounds once, so "exact" here means one ulp, not bitwise
    ok = (gauge.field_residual <= 1e-12 and gauge.conjugate_residual <= 1e-12
          and comm_worst <= 1e-12 and spin_vacuum == 0.0 and spin_worst <= 1e-15)
    _verdict(11, "charge and spin", ok,
             f"[Q, c'] residual {comm_worst:.2e} <= 1e-12, "
             f"gauge phase {max(gauge.field_residual, gauge.conjugate_residual):.2e} <= 1e-12, "
             f"S|O> residual {spin_vacuum:.1e} (exact), "
             f"[S, c'] residual {spin_worst:.1e} <= 1e-15")


def test_criterion_12_vacuum_energy():
    lattice = rapidity_lattice(6, 0.4, 1.0)
    space = SingleOscillatorSpace(lattice)
    profile = uniform_profile(lattice)
    formula = symmetries.fermion_vacuum_energy(lattice, profile)
    expectation_worst = 0.0
    for n in (1, 2):
        got = symmetries.vacuum_energy_expectation(space, profile, n)
        expectation_worst = max(expectation_worst, abs(got - n * formula))

    rest = rapidity_lattice(0, 0.4, 1.0)
    rest_profile = uniform_profile(rest)
    rest_energy = symmetries.fermion_vacuum_energy(rest, rest_profile, 3)
    sector = symmetries.balanced_boson_sector(rest, rest_profile, 3, 6)
    balanced = symmetries.vacuum_energy(rest, rest_profile, 3, 6, sector)

    ok = (expectation_worst <= 1e-12 and abs(rest_energy + 6.0) <= 1e-12
          and abs(balanced) <= 1e-10)
    _verdict(12, "vacuum energy balance", ok,
             f"quadrature vs expectation {expectation_worst:.2e} <= 1e-12, "
             f"rest-mode energy {rest_energy:+.12f} (want -6), "
             f"balanced total {abs(balanced):.2e} <= 1e-10")
