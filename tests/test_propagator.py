from dataclasses import replace

import numpy as np
import pytest

from braidline import propagator
from braidline import (
    LatticeFunction,
    braided_line,
    build_hamiltonian_basis,
    build_qexp_basis,
    compose,
    conjugate_kernel,
    crossing_transform,
    delta_kernel,
    free_propagator,
    full_green,
    gaussian_potential,
    make_advanced,
    make_retarded,
    make_lattice,
    schrodinger_residual,
    solve_inhomogeneous,
    source_term,
)
from braidline.basis import branch_product, spectral_kernel
from braidline.propagator import VARIANTS, heaviside
from oracles import dense_kernel, pairwise_inhomogeneous, weighted_product

Q = 0.9
MASS = 1.0


@pytest.fixture(scope="module")
def ctx():
    return braided_line(Q)


@pytest.fixture(scope="module")
def basis(ctx):
    return build_hamiltonian_basis(make_lattice(Q), MASS, ctx)


@pytest.fixture(scope="module")
def basis_g2(ctx):
    c2 = crossing_transform(ctx)
    return build_hamiltonian_basis(make_lattice(c2.q), MASS, c2)


@pytest.fixture(scope="module")
def weak_v(basis):
    return gaussian_potential(basis.lattice, strength=0.05, width=1.0, epsilon=0.05)


def pick_basis(variant, basis, basis_g2):
    return basis if VARIANTS[variant][0] == 1 else basis_g2


def test_heaviside_includes_zero():
    assert heaviside(0.0) == 1.0
    assert heaviside(1e-9) == 1.0
    assert heaviside(-1e-9) == 0.0


def test_variant_table_covers_all_flag_combinations():
    assert len(VARIANTS) == 8
    assert len(set(VARIANTS.values())) == 8


def test_geometry_enforced(basis, basis_g2):
    with pytest.raises(ValueError):
        free_propagator(basis, "K2", 0.0, 1.0)
    with pytest.raises(ValueError):
        free_propagator(basis_g2, "K1prime", 0.0, 1.0)
    with pytest.raises(ValueError):
        free_propagator(basis, "K9", 0.0, 1.0)


def test_boundary_limit_is_delta(basis, basis_g2):
    for variant in VARIANTS:
        b = pick_basis(variant, basis, basis_g2)
        k = free_propagator(b, variant, 0.3, 0.3)
        assert np.max(np.abs(k.matrix - delta_kernel(b))) < 1e-12


# free bases at N = 50, 402 and 802 in both geometries
SIZES = pytest.mark.parametrize("q, j_max", [(Q, 12), (0.99, 100), (0.99, 200)],
                                ids=["n50", "n402", "n802"])
GEOMETRIES = pytest.mark.parametrize("geometry", [1, 2], ids=["G1", "G2"])


def free_basis(q, j_max, geometry):
    ctx = braided_line(q) if geometry == 1 else crossing_transform(braided_line(q))
    return build_hamiltonian_basis(make_lattice(ctx.q, j_min=-j_max, j_max=j_max), MASS, ctx)


@SIZES
@GEOMETRIES
def test_spectral_kernel_matches_dense_oracle(q, j_max, geometry):
    # the mirrored half-line builder against the dense complex product over
    # every mode, for the delta kernel, plain and tilde kernels and H0 K
    b = free_basis(q, j_max, geometry)
    assert b.vectors.dtype == np.float64
    half, e = b.size // 2, b.energies

    def check(got, want):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert not got[:half, half:].any() and not got[half:, :half].any()

    check(delta_kernel(b), dense_kernel(b, np.ones(b.size)))
    variant = "K1prime" if geometry == 1 else "K2"
    for dt in (0.0, 0.7, -2.5):
        for tilde in (False, True):
            k = free_propagator(b, variant, 0.0, dt, tilde=tilde).matrix
            check(k, dense_kernel(b, np.exp((1j if tilde else -1j) * e * dt)))
    # H0 and its action on the target leg of a kernel, as the residual forms it
    h0 = spectral_kernel(b, e)
    check(h0, dense_kernel(b, e))
    check(h0 @ (b.weights[:, None] * k), dense_kernel(b, e) @ (b.weights[:, None] * k))


def check_product(a, w, b):
    got, want = branch_product(a, w, b), weighted_product(a, w, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    return got


@SIZES
@GEOMETRIES
def test_branch_product_matches_weighted_oracle(q, j_max, geometry):
    # the per-branch-block product against the dense one over both branches,
    # as compose (complex x complex) and the residual (real H0 x complex) form it
    b = free_basis(q, j_max, geometry)
    half, w, variant = b.size // 2, b.weights, "K1prime" if geometry == 1 else "K2"
    h0 = spectral_kernel(b, b.energies)
    for tilde in (False, True):
        k01 = free_propagator(b, variant, -0.4, 0.3, tilde=tilde).matrix
        k12 = free_propagator(b, variant, 0.3, 1.1, tilde=tilde).matrix
        for a, k in ((k12, k01), (h0, k01)):
            got = check_product(a, w, k)
            assert not got[:half, half:].any() and not got[half:, :half].any()


def test_branch_product_dense_and_partial_operands(basis, weak_v):
    # dense operands take every block product; a cross-branch-only operand and
    # an all-zero one are exact too
    w, half = basis.weights, basis.size // 2
    green = full_green(weak_v, basis, None, 0.0, 0.4).kernel.matrix
    assert green[:half, half:].any()
    check_product(green, w, green)
    rng = np.random.default_rng(11)
    real = rng.normal(size=(basis.size, basis.size))
    check_product(real, w, green)
    check_product(green, w, real)
    cross = np.zeros_like(green)
    cross[:half, half:] = green[:half, half:]
    kern = free_propagator(basis, "K1", 0.0, 0.6).matrix
    for a, b in ((cross, kern), (kern, cross), (cross, cross), (real, cross)):
        check_product(a, w, b)
    zero = make_retarded(free_propagator(basis, "K1", 0.6, 0.0)).matrix
    assert not zero.any()
    for a, b in ((zero, kern), (kern, zero), (real, zero)):
        assert not check_product(a, w, b).any()


def test_branch_product_mirrors_parity_even_operands(basis):
    # exactly J-even operands (J the point reversal) give an exactly even product;
    # one changed negative-branch entry takes the full loop, and both match the oracle
    w, half = basis.weights, basis.size // 2
    r = np.random.default_rng(12).normal(size=(basis.size, basis.size))
    even = r + r[::-1, ::-1]
    kern = free_propagator(basis, "K1", -0.2, 0.5).matrix
    for a, b in ((even, kern), (kern, even), (even, even), (kern, kern)):
        got = check_product(a, w, b)
        assert np.array_equal(got, got[::-1, ::-1])
        for i in range(2):
            pair = [a.copy(), b.copy()]
            pair[i][half - 4, half - 9] += 0.5
            got = check_product(pair[0], w, pair[1])
            assert not np.array_equal(got, got[::-1, ::-1])
    w_odd = w.copy()
    w_odd[2] *= 1.5
    got = check_product(kern, w_odd, kern)
    assert not np.array_equal(got, got[::-1, ::-1])


def test_spectral_kernel_with_zero_imaginary_part_stays_complex(basis, basis_g2):
    # a complex f with an all-zero imaginary part takes one GEMM, as a real f
    # does, and keeps the complex type
    for b in (basis, basis_g2):
        for f in (b.energies, np.ones(b.size)):
            got = spectral_kernel(b, f.astype(complex))
            assert got.dtype == complex
            assert np.array_equal(got, spectral_kernel(b, f))
        assert free_propagator(b, "K1" if b is basis else "K2", 0.4, 0.4).matrix.dtype == complex


def test_spectral_kernel_refuses_complex_basis(basis):
    qb, _ = build_qexp_basis(basis.lattice, MASS, basis.ctx, np.linspace(0.3, 2.0, 8), 60)
    with pytest.raises(ValueError):
        spectral_kernel(qb, np.ones(qb.size))
    with pytest.raises(ValueError):
        delta_kernel(qb)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_composition(variant, basis, basis_g2):
    b = pick_basis(variant, basis, basis_g2)
    rng = np.random.default_rng(42)
    for _ in range(5):
        # the window keeps |E t| small enough that the entrywise identity
        # is not washed out by phase-argument rounding at the top of the
        # spectrum
        t0, t1, t2 = np.sort(rng.uniform(-0.05, 0.05, size=3))
        k01 = free_propagator(b, variant, t0, t1)
        k12 = free_propagator(b, variant, t1, t2)
        direct = free_propagator(b, variant, t0, t2)
        got = compose(k01, k12)
        assert np.max(np.abs(got.matrix - direct.matrix)) < 1e-12
        assert got.t_source == t0 and got.t_target == t2


def test_composition_checks(basis):
    k1 = free_propagator(basis, "K1", 0.0, 0.5)
    k2 = free_propagator(basis, "K1", 0.6, 1.0)
    with pytest.raises(ValueError):
        compose(k1, k2)
    k3 = free_propagator(basis, "K1prime", 0.5, 1.0)
    with pytest.raises(ValueError):
        compose(k1, k3)


def test_apply_evolves_coefficients(basis):
    rng = np.random.default_rng(5)
    f = LatticeFunction(basis.lattice, rng.normal(size=50) + 0j, time=0.0)
    k = free_propagator(basis, "K1prime", 0.0, 0.8)
    out = k.apply(f)
    # spectral oracle: evolve mode coefficients directly
    c = basis.vectors.conj().T @ (basis.weights * f.values)
    expect = basis.vectors @ (np.exp(-1j * basis.energies * 0.8) * c)
    assert np.max(np.abs(out.values - expect)) < 1e-10
    assert out.time == 0.8


def test_norm_preservation(basis):
    rng = np.random.default_rng(6)
    f = LatticeFunction(basis.lattice, rng.normal(size=50) + 1j * rng.normal(size=50))
    k = free_propagator(basis, "K1star", -0.4, 1.3)
    out = k.apply(f)
    n_in = np.sum(basis.weights * np.abs(f.values) ** 2)
    n_out = np.sum(basis.weights * np.abs(out.values) ** 2)
    assert n_out == pytest.approx(n_in, rel=1e-11)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("tilde", [False, True])
def test_schrodinger_residual_retarded(variant, tilde, basis, basis_g2):
    b = pick_basis(variant, basis, basis_g2)
    k = make_retarded(free_propagator(b, variant, 0.0, 0.7, tilde=tilde))
    assert schrodinger_residual(k) < 1e-10


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("tilde", [False, True])
def test_schrodinger_residual_advanced(variant, tilde, basis, basis_g2):
    b = pick_basis(variant, basis, basis_g2)
    k = make_advanced(free_propagator(b, variant, 0.7, 0.0, tilde=tilde))
    assert schrodinger_residual(k) < 1e-10


def test_residual_rejects_source_slice(basis):
    k = free_propagator(basis, "K1", 0.2, 0.2)
    with pytest.raises(ValueError):
        schrodinger_residual(k)


def test_retarded_vanishes_for_reversed_times(basis):
    k = make_retarded(free_propagator(basis, "K1prime", 1.0, 0.2))
    assert np.max(np.abs(k.matrix)) == 0.0


def test_advanced_vanishes_for_forward_times(basis):
    k = make_advanced(free_propagator(basis, "K1prime", 0.2, 1.0))
    assert np.max(np.abs(k.matrix)) == 0.0


def test_advanced_gate_closed_builds_no_kernel(basis, monkeypatch):
    # theta = 0 gives exact zeros without building any kernel
    bare = free_propagator(basis, "K1prime", 0.2, 1.0, tilde=True)

    def refuse(*args, **kwargs):
        raise AssertionError("reflected kernel built for theta = 0")

    monkeypatch.setattr(propagator, "free_propagator", refuse)
    k = make_advanced(bare)
    assert k.causality == "advanced" and k.tilde and k.variant == "K1prime"
    assert k.matrix.shape == bare.matrix.shape and k.matrix.dtype == complex
    assert not k.matrix.any()


@SIZES
@GEOMETRIES
@pytest.mark.parametrize("tilde", [False, True], ids=["plain", "tilde"])
def test_advanced_is_conjugate_of_bare_kernel(q, j_max, geometry, tilde):
    # the real free modes make the time-reflected kernel the bare one's conjugate
    b = free_basis(q, j_max, geometry)
    variant = "K1prime" if geometry == 1 else "K2"
    for t_s, t_t in ((0.9, 0.1), (0.3, -1.7), (0.4, 0.4)):
        got = make_advanced(free_propagator(b, variant, t_s, t_t, tilde=tilde)).matrix
        assert np.array_equal(got, free_propagator(b, variant, -t_s, -t_t, tilde=tilde).matrix)


def test_advanced_is_time_reflection(basis):
    fwd = make_retarded(free_propagator(basis, "K1prime", -0.8, 0.3))
    bwd = make_advanced(free_propagator(basis, "K1prime", 0.8, -0.3))
    assert np.max(np.abs(bwd.matrix - fwd.matrix)) < 1e-12


def test_causal_gate_gives_bare_values_or_exact_zeros(basis):
    bare = free_propagator(basis, "K1", 0.1, 0.9)
    assert np.array_equal(make_retarded(bare).matrix, bare.matrix)
    reflected = free_propagator(basis, "K1", -0.9, -0.1)
    assert np.array_equal(make_advanced(free_propagator(basis, "K1", 0.9, 0.1)).matrix,
                          reflected.matrix)
    for gated in (make_retarded(free_propagator(basis, "K1", 0.9, 0.1)).matrix,
                  make_advanced(bare).matrix):
        assert gated.shape == bare.matrix.shape and gated.dtype == bare.matrix.dtype
        # +0.0 everywhere: no -0.0 left from multiplying by theta = 0
        assert not gated.any() and not np.signbit(gated.view(float)).any()


def test_cross_branch_entry_is_not_skipped(basis):
    # a kernel that is not block-diagonal must not be treated as one: a stray
    # cross-branch entry shows in the residual and is carried through compose
    half = basis.size // 2
    k = make_retarded(free_propagator(basis, "K1", 0.0, 0.7))
    assert schrodinger_residual(k) < 1e-10
    mat = k.matrix.copy()
    mat[half - 3, half + 5] = 1e-6
    stray = replace(k, matrix=mat)
    assert schrodinger_residual(stray) > 1e-10
    later = free_propagator(basis, "K1", 0.7, 1.2)
    got = compose(stray, later).matrix
    want = weighted_product(later.matrix, basis.weights, mat)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert got[:half, half + 5].any()


def test_compose_and_residual_leave_inputs_unchanged(basis):
    k1 = make_retarded(free_propagator(basis, "K1", 0.0, 0.4, tilde=True))
    k2 = make_retarded(free_propagator(basis, "K1", 0.4, 0.9, tilde=True))
    before = [k1.matrix.copy(), k2.matrix.copy(), basis.weights.copy()]
    schrodinger_residual(compose(k1, k2))
    schrodinger_residual(k1)
    for old, new in zip(before, (k1.matrix, k2.matrix, basis.weights)):
        assert np.array_equal(old, new)


def test_double_causal_wrap_rejected(basis):
    k = make_retarded(free_propagator(basis, "K1", 0.0, 0.5))
    with pytest.raises(ValueError):
        make_retarded(k)
    with pytest.raises(ValueError):
        make_advanced(k)


def test_source_term_jump(basis):
    # at coincident times the retarded kernel jumps by the delta kernel,
    # so i times the jump is the source term
    k = make_retarded(free_propagator(basis, "K1prime", 0.4, 0.4))
    jump = 1j * k.matrix
    assert np.max(np.abs(jump - source_term(k))) < 1e-10


def test_conjugation_partners(basis, basis_g2):
    # conj K equals the independently built tilde partner with the prime
    # toggled, at the same time arguments
    for variant in sorted(VARIANTS):
        b = pick_basis(variant, basis, basis_g2)
        k = free_propagator(b, variant, -0.2, 0.9)
        ck = conjugate_kernel(k)
        family, starred, primed = VARIANTS[variant]
        assert VARIANTS[ck.variant] == (family, starred, not primed)
        assert ck.tilde
        partner = free_propagator(b, ck.variant, -0.2, 0.9, tilde=True)
        assert np.max(np.abs(ck.matrix - partner.matrix)) < 1e-10


def test_conjugation_is_involution(basis):
    k = free_propagator(basis, "K1star", 0.1, 0.6)
    back = conjugate_kernel(conjugate_kernel(k))
    assert back.variant == k.variant
    assert back.tilde == k.tilde
    assert np.max(np.abs(back.matrix - k.matrix)) == 0.0


def test_crossing_transported_kernel(basis, basis_g2):
    # the crossed-context geometry-2 kernel equals the geometry-1 kernel
    # built from the original context on the shared point set
    k1 = free_propagator(basis, "K1prime", 0.0, 0.5)
    k2 = free_propagator(basis_g2, "K2", 0.0, 0.5)
    assert np.max(np.abs(k1.matrix - k2.matrix)) < 1e-10


def test_inhomogeneous_solution_quadrature_order(basis):
    # the trapezoidal time quadrature converges at second order; the
    # source lives in the lowest modes so the grid resolves every
    # relevant evolution phase
    rng = np.random.default_rng(9)
    coeff = np.zeros(basis.size)
    coeff[:6] = rng.normal(size=6)
    profile = (basis.vectors @ coeff).real

    def solve(n_steps):
        times = np.linspace(0.0, 1.0, n_steps + 1)
        sources = [
            LatticeFunction(basis.lattice, profile * np.sin(2.0 * t), time=t)
            for t in times
        ]
        out = solve_inhomogeneous(sources, basis, "K1prime", times, np.array([1.0]))
        return out[0].values

    coarse = solve(16)
    fine = solve(32)
    finest = solve(64)
    e1 = np.max(np.abs(coarse - finest))
    e2 = np.max(np.abs(fine - finest))
    assert e1 / e2 > 3.0  # ~4x per halving


@pytest.mark.parametrize("advanced", [False, True], ids=["retarded", "advanced"])
def test_inhomogeneous_matches_pairwise_kernels(basis, advanced):
    # the mode projection against one causal kernel per (t, s) pair, with
    # evaluation times before, on the edge of, inside and after the window
    rng = np.random.default_rng(11)
    times = np.linspace(-0.4, 0.4, 65)
    sources = [LatticeFunction(basis.lattice, rng.normal(size=50) + 1j * rng.normal(size=50),
                               time=t) for t in times]
    t_eval = np.array([-0.9, -0.4, 0.1, 1.3])
    got = solve_inhomogeneous(sources, basis, "K1prime", times, t_eval, advanced=advanced)
    want = pairwise_inhomogeneous(sources, basis, "K1prime", times, t_eval, advanced)
    assert [f.time for f in got] == list(t_eval)
    assert np.max(np.abs(np.stack([f.values for f in got]) - want)) <= 1e-13 * np.max(np.abs(want))


def test_inhomogeneous_requires_uniform_grid(basis):
    times = np.array([0.0, 0.1, 0.35])
    sources = [LatticeFunction(basis.lattice, np.zeros(50)) for _ in times]
    with pytest.raises(ValueError):
        solve_inhomogeneous(sources, basis, "K1prime", times, np.array([1.0]))
    # one source per source time: a short list is refused, not truncated
    grid = np.linspace(0.0, 0.4, 5)
    with pytest.raises(ValueError):
        solve_inhomogeneous(sources, basis, "K1prime", grid, np.array([1.0]))
