import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidline import propagator
from braidline import (
    braided_line,
    build_hamiltonian_basis,
    compose,
    conjugate_kernel,
    crossing_transform,
    delta_kernel,
    free_propagator,
    make_advanced,
    make_retarded,
    make_lattice,
    schrodinger_residual,
    source_term,
)
from braidline import basis as basis_mod
from braidline.basis import _scaled_gram as scaled_gram
from braidline.basis import spectral_block
from braidline.propagator import VARIANTS, PropagatorKernel, heaviside
from oracles import (dense_kernel, four_block_residual, full_residual_matrix, spectral_kernel,
                     weighted_product)

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


def test_bases_and_kernels_compare_by_identity(ctx, basis):
    # array-holding values: equal content is not ==, and comparing never raises
    twin = build_hamiltonian_basis(make_lattice(Q), MASS, ctx)
    assert basis == basis and basis != twin and twin not in [basis]
    k, k_twin = (free_propagator(basis, "K1", 0.0, 0.3) for _ in range(2))
    assert k == k and k != k_twin and k_twin not in [k]


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
            phase = np.exp((1.0 if tilde else -1.0) * 1j * e * dt)
            k = free_propagator(b, variant, 0.0, dt, tilde=tilde).matrix
            check(k, dense_kernel(b, phase))
            # built on first read from the block alone: read-only, and the mirrored
            # spectral kernel bit for bit
            assert np.array_equal(k, spectral_kernel(b, phase))
            with pytest.raises(ValueError, match="read-only"):
                k[half, half] = 0.0
    # H0 and its action on the target leg of a kernel, as the residual forms it
    h0 = spectral_kernel(b, e)
    check(h0, dense_kernel(b, e))
    check(h0 @ (b.weights[:, None] * k), dense_kernel(b, e) @ (b.weights[:, None] * k))


# free bases at N = 50, 202 and 802 in both geometries, for the residual
BLOCK_SIZES = pytest.mark.parametrize("q, j_max", [(Q, 12), (0.99, 50), (0.99, 200)],
                                      ids=["n50", "n202", "n802"])


def kernel_forms(b, variant, t0, t1):
    # the kernel from t0 to t1 as every form composes and takes a residual: bare,
    # retarded, advanced and conjugated, plain and tilde (conjugation toggles the
    # tilde and prime flags; the gates are open or closed by the sign of t1 - t0)
    forms = {}
    for tilde in (False, True):
        bare = free_propagator(b, variant, t0, t1, tilde=tilde)
        forms.update({("bare", tilde): bare, ("retarded", tilde): make_retarded(bare),
                      ("advanced", tilde): make_advanced(bare),
                      ("conjugated", tilde): conjugate_kernel(bare)})
    return forms


def matrix_builds(monkeypatch):
    # counts the N x N matrices built from a block, one per read of a block kernel's matrix
    builds = []

    def spy(block):
        builds.append(len(block))
        return basis_mod.mirror_block(block)

    monkeypatch.setattr(propagator, "mirror_block", spy)
    return builds


@SIZES
@GEOMETRIES
def test_branch_product_matches_weighted_oracle(q, j_max, geometry, monkeypatch):
    # two kernels, each form with gates open and closed, compose to one product of the
    # positive-branch blocks that agrees with the weighted oracle, the dense product of
    # the read matrices, to 1e-14 of max|K|, with exact +0 across the branches; compose
    # reads neither operand's matrix
    b = free_basis(q, j_max, geometry)
    half, w, variant = b.size // 2, b.weights, "K1prime" if geometry == 1 else "K2"
    builds = matrix_builds(monkeypatch)
    for t0, t1, t2 in ((-0.4, 0.3, 1.1), (1.1, 0.3, -0.4)):
        earlier, later = kernel_forms(b, variant, t0, t1), kernel_forms(b, variant, t1, t2)
        for form, k01 in earlier.items():
            k12 = later[form]
            got = compose(k01, k12)
            assert not builds
            want = weighted_product(k12.matrix, w, k01.matrix)
            assert got.matrix.dtype == want.dtype == complex
            assert np.max(np.abs(got.matrix - want)) <= 1e-14 * np.max(np.abs(want)), form
            assert plus_zeros(got.matrix[:half, half:]) and plus_zeros(got.matrix[half:, :half])
            assert got.causality == k01.causality and got.tilde == k01.tilde
            builds.clear()


def test_kernel_refuses_any_array_but_its_block(basis):
    # a kernel is its half x half float64 or complex128 positive-branch block: an N x N
    # matrix, any other shape or type, or no array at all is refused by name
    half, n = basis.size // 2, basis.size
    green = np.ones((n, n), complex)
    for block in (green, None, green[:-1], green[:half, :half + 1], green[:half + 1, :half + 1],
                  green[:half, :half].astype(np.complex64), np.ones((half, half), int),
                  np.ones((half, half), bool), green[:half, :half].tolist()):
        with pytest.raises(ValueError, match=f"^block must be the {half} x {half} "):
            PropagatorKernel(basis, "K1", 0.0, 0.5, block)
    for block in (np.ones((half, half)), green[:half, :half]):
        assert PropagatorKernel(basis, "K1", 0.0, 0.5, block).matrix.shape == (n, n)


def test_spectral_kernel_with_zero_imaginary_part_stays_complex(basis, basis_g2):
    # a complex f with an all-zero imaginary part takes the updates of a real f
    # and keeps the complex type; the equal-time kernel, whose phase is exactly 1+0j,
    # is instead the basis's own real delta block
    for b in (basis, basis_g2):
        for f in (b.energies, np.ones(b.size)):
            got = spectral_kernel(b, f.astype(complex))
            assert got.dtype == complex
            assert np.array_equal(got, spectral_kernel(b, f))
        k = free_propagator(b, "K1" if b is basis else "K2", 0.4, 0.4)
        assert k.block is b.delta_block and k.block.dtype == np.float64
        assert np.array_equal(k.block, spectral_block(b, np.ones(b.size, complex)).real)


def traced_peak(call):
    # the most memory one call holds allocated at once, in bytes, after a warm-up call
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def plus_zeros(m):
    # exact zeros without a sign bit, real and imaginary parts alike
    return not m.any() and not np.signbit(m.view(float)).any()


# both constructions of a complex f at every size: the sign-split updates, and one
# GEMM on the float view with its upper triangle mirrored
PATHS = pytest.mark.parametrize("split_min", [0, 10 ** 9], ids=["split", "gemm"])
KERNEL_SIZES = pytest.mark.parametrize("q, j_max", [(Q, 12), (0.99, 50)], ids=["n50", "n202"])


@PATHS
@KERNEL_SIZES
@GEOMETRIES
def test_spectral_kernel_is_exactly_symmetric_and_matches_dense_oracle(
        q, j_max, geometry, split_min, monkeypatch):
    # real, complex, complex with an all-zero imaginary part, and f holding exact
    # zeros of either sign on whole +-p pairs, including the all-zero f of a closed
    # causal gate: exactly symmetric and mirrored, exact +0 across the branches, the
    # type of f, and the dense product over every mode to 1e-14
    monkeypatch.setattr(basis_mod, "SPLIT_MIN", split_min)
    b = free_basis(q, j_max, geometry)
    half, e = b.size // 2, b.energies
    phase = np.exp(-1j * e * 0.7)
    holes = np.arange(b.size) // 2 % 3 == 0
    for f in (e, -e, np.ones(b.size), phase, np.conj(phase), e.astype(complex),
              np.where(holes, 0.0, e), np.where(holes, -0.0, phase),
              np.where(holes, 0.0, phase.real + 0.0j), np.zeros(b.size), -0.0 * phase):
        got = spectral_kernel(b, f)
        assert got.dtype == np.result_type(f, float)
        assert np.array_equal(got, got.T)
        assert np.array_equal(got[:half, :half], got[half:, half:][::-1, ::-1])
        assert plus_zeros(got[:half, half:]) and plus_zeros(got[half:, :half])
        assert np.array_equal(spectral_block(b, f), got[half:, half:])
        want = dense_kernel(b, f)
        if not np.any(f):
            assert plus_zeros(got)
            continue
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if split_min:
        return
    # a mode dropped from A+ or from A- of the real part is far outside that tolerance
    want = dense_kernel(b, phase)
    for side in range(2):
        calls = []

        def drop_first_mode(pos, r, cols, out=None, side=side):
            if len(calls) == side:
                cols = cols.copy()
                cols[np.flatnonzero(cols)[0]] = False
            calls.append(side)
            return scaled_gram(pos, r, cols, out)

        monkeypatch.setattr(basis_mod, "_scaled_gram", drop_first_mode)
        got = spectral_kernel(b, phase)
        assert np.max(np.abs(got - want)) > 1e-6 * np.max(np.abs(want))


PAIR_SIZES = pytest.mark.parametrize("q, j_max", [(Q, 12), (0.99, 100)], ids=["n50", "n402"])


def kernel_functions(b):
    # real (one sign and both signs) and complex f of the energy, as the kernels use them
    e = b.energies
    return e, e - np.median(e), np.ones(b.size), np.exp(-1j * e * 0.7), -0.4j * e * np.exp(0.3j * e)


def gram_columns(monkeypatch):
    # the column count of P each sign-split update selects from: n for one mode per
    # +-p pair, 2n for every mode
    counts = []

    def spy(pos, r, cols, out=None):
        counts.append(pos.shape[1])
        return scaled_gram(pos, r, cols, out)

    monkeypatch.setattr(basis_mod, "_scaled_gram", spy)
    return counts


@PATHS
@PAIR_SIZES
@GEOMETRIES
def test_paired_spectral_block_sums_one_mode_per_pair(q, j_max, geometry, split_min, monkeypatch):
    # the free modes of a +-p pair are equal up to sign on the positive branch, so the
    # block is the sum over the even modes with f doubled, bit for bit, and the dense
    # product over every mode to 1e-14, at every lattice size
    monkeypatch.setattr(basis_mod, "SPLIT_MIN", split_min)
    b = free_basis(q, j_max, geometry)
    half = b.size // 2  # also the number of +-p pairs
    evens = replace(b, vectors=b.vectors[:, 0::2].copy())  # one mode per pair: none to find
    assert b.paired and not evens.paired
    counts = gram_columns(monkeypatch)
    for f in kernel_functions(b):
        got = spectral_block(b, f)
        assert np.array_equal(got, spectral_block(evens, 2.0 * f[0::2]))
        want = dense_kernel(b, f)[half:, half:]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert counts and set(counts) == {half}


@PAIR_SIZES
def test_spectral_block_of_an_unpaired_basis_keeps_every_mode(q, j_max, monkeypatch):
    # one positive-branch entry of an odd mode moved by one ulp, or with its sign
    # flipped (which leaves |P| unchanged), or the odd mode zeroed as in the C04
    # missing-mode test, breaks its pair: the rebuilt basis is not paired, and the
    # block sums every mode and is the dense product over the changed modes
    b = free_basis(q, j_max, 1)
    half, row, mode = b.size // 2, b.size // 2 + 3, 7
    clean = [spectral_block(b, f) for f in kernel_functions(b)]
    counts = gram_columns(monkeypatch)
    for change in ("ulp", "sign", "zero"):
        vectors = b.vectors.copy()
        if change == "zero":
            vectors[:, mode] = 0.0
        else:
            x = vectors[row, mode]
            vectors[row, mode] = np.nextafter(x, np.inf) if change == "ulp" else -x
        changed = replace(b, vectors=vectors)
        assert b.paired and not changed.paired
        counts.clear()
        for f, paired in zip(kernel_functions(b), clean):
            got = spectral_block(changed, f)
            want = dense_kernel(changed, f)[half:, half:]
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            if change != "ulp":  # the paired block of the clean basis misses it
                assert np.max(np.abs(want - paired)) > 1e-10 * np.max(np.abs(want))
        assert counts and set(counts) == {b.size}


def causal_kernels(b, variant):
    # bare, retarded and advanced kernels, plain and tilde, both ways in time (causal
    # gates open and closed)
    kernels = []
    for tilde in (False, True):
        for t0, t1 in ((0.0, 0.7), (0.7, 0.0)):
            bare = free_propagator(b, variant, t0, t1, tilde=tilde)
            kernels += [bare, make_retarded(bare), make_advanced(bare)]
    return kernels


@KERNEL_SIZES
@GEOMETRIES
def test_residual_matches_dense_oracle(q, j_max, geometry):
    # on free kernels the residual is rounding: below 1e-14 of the size of H0 K, the
    # terms it cancels, and within 1e-15 of that size of the dense value (5e-17
    # measured), since two correct evaluations round differently; on a dense random
    # matrix in place of K, each kernel's flags and times intact, nothing cancels, and
    # the four-block norm matches the dense one to 1e-14 (1e-15 measured)
    b = free_basis(q, j_max, geometry)
    variant = "K1" if geometry == 1 else "K2"
    rng = np.random.default_rng(25)
    dense = rng.normal(size=(b.size, b.size)) + 1j * rng.normal(size=(b.size, b.size))
    for k in causal_kernels(b, variant):
        want = np.linalg.norm(full_residual_matrix(k))
        scale = np.linalg.norm(dense_kernel(b, b.energies) @ (b.weights[:, None] * k.matrix))
        assert abs(schrodinger_residual(k) - want) <= 1e-15 * scale
        assert want <= 1e-14 * scale
        want = np.linalg.norm(full_residual_matrix(k, dense))
        assert abs(four_block_residual(k, dense) - want) <= 1e-14 * want


@KERNEL_SIZES
@GEOMETRIES
def test_residual_sees_one_corrupted_negative_branch_entry(q, j_max, geometry):
    # a 1e-6 relative error in one seeded entry of the stored block, and so in its
    # mirror image on the negative branch, raises the residual by orders of magnitude
    # (1e5 to 3e7 measured)
    b = free_basis(q, j_max, geometry)
    k = make_retarded(free_propagator(b, "K1" if geometry == 1 else "K2", 0.0, 0.7))
    clean = schrodinger_residual(k)
    i, j = np.random.default_rng(j_max + geometry).integers(b.size // 2, size=2)
    block = k.block.copy()
    block[i, j] *= 1.0 + 1e-6
    assert schrodinger_residual(replace(k, block=block)) > 1e4 * clean


@BLOCK_SIZES
@GEOMETRIES
def test_residual_of_an_even_kernel_is_the_four_block_loop_bit_for_bit(q, j_max, geometry):
    # a kernel (retarded, advanced and conjugated, gates open and closed, plain and
    # tilde) takes its positive rows only, counted twice; its value is the dense
    # four-block loop's on its matrix, to the last bit, and reading its matrix leaves
    # the kernel as it was
    b = free_basis(q, j_max, geometry)
    variant = "K1" if geometry == 1 else "K2"
    for t0, t1 in ((0.0, 0.7), (0.7, 0.0)):
        for form, k in kernel_forms(b, variant, t0, t1).items():
            if form[0] == "bare":
                continue
            fast = schrodinger_residual(k)
            again = schrodinger_residual(k)
            assert fast.hex() == four_block_residual(k).hex() == again.hex(), form


@pytest.mark.parametrize("q, j_max", [(Q, 12), (0.99, 100), (0.99, 200)],
                         ids=["n50", "n402", "n802"])
def test_residual_is_the_signed_h0_form_bit_for_bit(q, j_max):
    # H0 from the nonnegative energies with the sign s on d_t K gives the norm of the old
    # s H0 W K + i d_t K, summed over the four blocks of the matrix, to the last bit, for
    # bare, retarded and advanced kernels, plain and tilde, gates open and closed
    b = free_basis(q, j_max, 1)
    for k in causal_kernels(b, "K1"):
        assert schrodinger_residual(k).hex() == four_block_residual(k, signed_h0=True).hex(), (
            k.causality, k.tilde, k.t_target)


def test_residual_traced_peak_stays_near_two_kernels():
    # H0, d_t K and a free K are one positive-branch block each, so no N x N matrix is
    # made: one call at N = 402 allocates at most 1.00 complex N x N matrices at its
    # peak (0.88 measured)
    b = free_basis(0.99, 100, 1)
    k = make_retarded(free_propagator(b, "K1", 0.0, 0.7))
    peak = traced_peak(lambda: schrodinger_residual(k))
    assert peak <= 1.00 * b.size ** 2 * 16, peak / (b.size ** 2 * 16)


def test_kernel_and_compose_traced_peaks(monkeypatch):
    # a free kernel is its positive-branch block: at N = 402 it holds the block and at most
    # the scaled columns of one sign and one half-line product (0.47 complex N x N
    # matrices, 0.44 measured), and at N = 394, the largest size on the GEMM path, the
    # block and diag(f) P^T (0.65, 0.61 measured).  Reading its matrix adds the one N x N
    # array (1.26, 1.25 measured).  compose of two kernels whose matrices were never read
    # holds one weighted operand block and the product block, and makes no N x N array
    # (0.53, 0.50 measured)
    b = free_basis(0.99, 98, 1)
    peak = traced_peak(lambda: free_propagator(b, "K1", 0.0, 0.7))
    assert peak <= 0.65 * b.size ** 2 * 16, peak / (b.size ** 2 * 16)
    b = free_basis(0.99, 100, 1)
    unit = b.size ** 2 * 16
    k01, k12 = (free_propagator(b, "K1", t0, t1) for t0, t1 in ((0.0, 0.3), (0.3, 0.7)))
    peak = traced_peak(lambda: free_propagator(b, "K1", 0.0, 0.7))
    assert peak <= 0.47 * unit, peak / unit
    peak = traced_peak(lambda: free_propagator(b, "K1", 0.0, 0.7).matrix)
    assert peak <= 1.26 * unit, peak / unit
    peak = traced_peak(lambda: compose(k01, k12))
    assert peak <= 0.53 * unit, peak / unit
    builds = matrix_builds(monkeypatch)
    compose(k01, k12)
    assert not builds


def holed_basis(b):
    # mode 3 zeroed, as in the C04 missing-mode test: not paired, so every mode is summed
    vectors = b.vectors.copy()
    vectors[:, 3] = 0.0
    return replace(b, vectors=vectors)


def block_builds(monkeypatch):
    # the bases each spectral block is built for, through either module's name
    builds = []

    def spy(b, f):
        builds.append(b)
        return spectral_block(b, f)

    monkeypatch.setattr(basis_mod, "spectral_block", spy)
    monkeypatch.setattr(propagator, "spectral_block", spy)
    return builds


@BLOCK_SIZES
@GEOMETRIES
@pytest.mark.parametrize("holed", [False, True], ids=["paired", "holed"])
def test_delta_block_is_built_once_and_is_the_old_kernel_bit_for_bit(
        q, j_max, geometry, holed, monkeypatch):
    # four equal-time kernels and four delta kernels on one basis build the delta block
    # once; each is that block, which is the old real delta kernel and the real part of
    # the complex one (whose imaginary part is +0) bit for bit, paired or not
    b = free_basis(q, j_max, geometry)
    b = holed_basis(b) if holed else b
    assert b.paired != holed
    variants = sorted(v for v in VARIANTS if VARIANTS[v][0] == geometry)
    old_real = spectral_kernel(b, np.ones(b.size))
    old_complex = spectral_kernel(b, np.ones(b.size, complex))
    builds = block_builds(monkeypatch)
    deltas = [delta_kernel(b) for _ in range(4)]
    assert not b.delta_block.flags.writeable  # read-only before any kernel stores it
    kernels = [free_propagator(b, v, t, t, tilde=v.endswith("star"))
               for v, t in zip(variants, (0.4, 0.0, -1.3, 2.5))]
    assert builds == [b]
    for got in [k.matrix for k in kernels] + deltas:
        assert got.dtype == np.float64
        assert np.array_equal(got, old_real) and np.array_equal(got, old_complex.real)
    assert plus_zeros(old_complex.imag)
    assert all(k.block is b.delta_block for k in kernels)
    with pytest.raises(ValueError, match="read-only"):
        b.delta_block[0, 0] = 0.0


def test_equal_time_kernel_allocates_no_block_once_the_delta_block_exists():
    # at N = 802 the kernel shares the basis's delta block: one call allocates the kernel
    # object alone (under 1 kB measured), far below one float64 half x half block
    b = free_basis(0.99, 200, 1)
    half = b.size // 2
    assert b.delta_block.nbytes == half * half * 8
    peak = traced_peak(lambda: free_propagator(b, "K1", 0.3, 0.3))
    assert peak < half * half * 8 // 100, peak


@BLOCK_SIZES
@GEOMETRIES
def test_equal_time_kernel_composes_reflects_and_conjugates_as_a_real_block(q, j_max, geometry):
    # the float64 delta block on either side of compose, or on both, gives the weighted
    # product of the matrices; the advanced and conjugated forms are the same real block,
    # the latter equal to the tilde partner built directly; the residual refuses the
    # source slice; and nothing writes the shared block
    b = free_basis(q, j_max, geometry)
    variant = "K1prime" if geometry == 1 else "K2"
    coincident = free_propagator(b, variant, 0.5, 0.5)
    before = b.delta_block.copy()
    for k01, k12 in ((coincident, free_propagator(b, variant, 0.5, 1.2)),
                     (free_propagator(b, variant, -0.2, 0.5), coincident),
                     (coincident, coincident)):
        got = compose(k01, k12)
        want = weighted_product(k12.matrix, b.weights, k01.matrix)
        assert got.matrix.dtype == want.dtype
        assert np.max(np.abs(got.matrix - want)) <= 1e-14 * np.max(np.abs(want))
    assert compose(coincident, coincident).block.dtype == np.float64
    advanced = make_advanced(coincident)
    assert advanced.block.dtype == np.float64
    assert np.array_equal(advanced.matrix, delta_kernel(b))
    assert make_retarded(coincident).block is b.delta_block
    conj = conjugate_kernel(coincident)
    partner = free_propagator(b, conj.variant, 0.5, 0.5, tilde=True)
    assert conj.tilde and conj.block.dtype == np.float64 and partner.block is b.delta_block
    assert np.array_equal(conj.matrix, partner.matrix)
    for k in (coincident, make_retarded(coincident), advanced, conj):
        with pytest.raises(ValueError, match="source slice"):
            schrodinger_residual(k)
    assert np.array_equal(b.delta_block, before)


def test_spectral_kernel_refuses_f_that_differs_within_a_pair(basis):
    # only a function of the energy gives the mirrored kernel with zero cross-branch
    # blocks; an f whose +-p pair (modes 2k, 2k + 1) disagrees is refused, not built wrong
    f = np.exp(-1j * basis.energies * 0.7)
    f[5] *= 1.5  # mode 5 leaves its partner, mode 4
    with pytest.raises(ValueError, match="pair"):
        spectral_kernel(basis, f)
    f[4] = f[5]
    want = dense_kernel(basis, f)
    assert np.max(np.abs(spectral_kernel(basis, f) - want)) <= 1e-14 * np.max(np.abs(want))


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


@BLOCK_SIZES
@GEOMETRIES
def test_per_time_phase_is_the_lag_phase_to_phase_rounding(q, j_max, geometry):
    # the kernel's phase is formed per time, exp(s i E t_target) conj(exp(s i E t_source)):
    # from t_source = 0 it is the lag phase exp(s i E dt) bit for bit, and otherwise within
    # 4 phase units E max(|t_source|, |t_target|) 2**-52 of it, relative to max|K| (0.8
    # measured), also where |t| is far above |dt|
    b = free_basis(q, j_max, geometry)
    variant, e_max = "K1" if geometry == 1 else "K2", float(np.max(b.energies))
    for t_s, t_t in ((0.0, 0.7), (0.0, -2.5), (-0.8, 0.3), (3.0, 3.01), (-40.0, -39.5),
                     (100.0, -100.0), (0.2, 1e3)):
        for tilde in (False, True):
            s = 1.0 if tilde else -1.0
            got = free_propagator(b, variant, t_s, t_t, tilde=tilde).block
            want = spectral_block(b, np.exp(s * 1j * b.energies * (t_t - t_s)))
            if t_s == 0.0:
                assert np.array_equal(got, want)
            unit = e_max * max(abs(t_s), abs(t_t)) * 2.0 ** -52
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 4.0 * unit, (t_s, t_t, tilde, err / unit)


def test_composition_checks(basis):
    k1 = free_propagator(basis, "K1", 0.0, 0.5)
    k2 = free_propagator(basis, "K1", 0.6, 1.0)
    with pytest.raises(ValueError):
        compose(k1, k2)
    k3 = free_propagator(basis, "K1prime", 0.5, 1.0)
    with pytest.raises(ValueError):
        compose(k1, k3)


def test_apply_evolves_coefficients(basis):
    # the kernel under the weighted contraction, (K f)(x) = sum_y K[x, y] w(y) f(y)
    rng = np.random.default_rng(5)
    f = rng.normal(size=50)
    out = free_propagator(basis, "K1prime", 0.0, 0.8).matrix @ (basis.weights * f)
    # spectral oracle: evolve mode coefficients directly
    c = basis.vectors.conj().T @ (basis.weights * f)
    expect = basis.vectors @ (np.exp(-1j * basis.energies * 0.8) * c)
    assert np.max(np.abs(out - expect)) < 1e-10


def test_norm_preservation(basis):
    rng = np.random.default_rng(6)
    f = rng.normal(size=50) + 1j * rng.normal(size=50)
    out = free_propagator(basis, "K1star", -0.4, 1.3).matrix @ (basis.weights * f)
    n_in = np.sum(basis.weights * np.abs(f) ** 2)
    n_out = np.sum(basis.weights * np.abs(out) ** 2)
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


def test_block_kernel_stays_a_block_under_replace_and_repr(basis, monkeypatch):
    # changing any other field keeps what a kernel stores, so a block kernel stays one
    # and no N x N matrix is built; its block is read-only, shared by the kernels made
    # from it, and each read of the matrix builds a new read-only array
    builds = matrix_builds(monkeypatch)
    k = free_propagator(basis, "K1", 0.0, 0.6)
    for other in (replace(k, tilde=True), replace(k, t_target=0.7), make_retarded(k)):
        assert other.block is k.block
    assert "block=" not in repr(k) and not builds
    with pytest.raises(ValueError, match="read-only"):
        k.block[0, 0] = 0.0
    first, second = k.matrix, k.matrix
    assert builds == [basis.size // 2] * 2 and first is not second
    assert np.array_equal(first, second) and not first.flags.writeable
    assert not k.block.flags.writeable


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
    jump = 1j * k.block  # source_term, like a kernel, is its positive-branch block
    assert np.max(np.abs(jump - source_term(k))) < 1e-10
    assert np.array_equal(basis_mod.mirror_block(source_term(k)),
                          1j * np.diag(1.0 / basis.weights))


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


# the propagator surface's contract: every call returns finite arrays (or a finite
# norm) or raises a ValueError that names the argument or the condition it refuses
REFUSAL = re.compile(r"^(t_source|t_target|block|variant|unknown variant|residual undefined on "
                     r"the source slice|intermediate times)")
TIMES = st.floats(-10.0, 10.0) | st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308, np.nan, np.inf, -np.inf])
BLOCK_SHAPES = [(25, 25), (50, 50), (25, 26), (24, 25), (25,), (), (1, 25, 25)]
BLOCK_TYPES = [np.float64, np.complex128, np.complex64, np.float32, np.int64, bool, object, str]


def refused_or(call):
    # call's value, or None if it raised a ValueError naming what it refuses
    try:
        return call()
    except ValueError as exc:
        assert REFUSAL.match(str(exc)), str(exc)
        return None


def assert_finite_kernel(k):
    assert k.block.shape == (25, 25) and np.isfinite(k.block).all()
    assert np.isfinite(k.matrix).all() and np.isfinite(source_term(k)).all()
    residual = refused_or(lambda: schrodinger_residual(k))
    assert residual is None or math.isfinite(residual)


@settings(max_examples=150, deadline=None)
@given(t0=TIMES, t1=TIMES, t2=TIMES, tilde=st.booleans(),
       variant=st.sampled_from(sorted(VARIANTS) + ["K9"]),
       shape=st.sampled_from(BLOCK_SHAPES), dtype=st.sampled_from(BLOCK_TYPES))
def test_kernel_surface_returns_finite_arrays_or_refuses_by_name(
        basis, t0, t1, t2, tilde, variant, shape, dtype):
    # finite, huge, tiny, signed-zero and non-finite times, kernels of either geometry
    # or none, and blocks of every shape and type on the N = 50 basis
    assert np.isfinite(delta_kernel(basis)).all()
    k01 = refused_or(lambda: free_propagator(basis, variant, t0, t1, tilde=tilde))
    k12 = refused_or(lambda: free_propagator(basis, variant, t1, t2, tilde=tilde))
    for k in (k01, k12):
        if k is not None:
            for form in (k, make_retarded(k), make_advanced(k), conjugate_kernel(k)):
                assert_finite_kernel(form)
    if k01 is not None and k12 is not None:
        assert_finite_kernel(compose(k01, k12))
    block = np.ones(shape, dtype)
    given_block = refused_or(lambda: PropagatorKernel(basis, variant, t0, t1, block, tilde))
    if given_block is not None:
        assert_finite_kernel(given_block)
        if k12 is not None:
            assert_finite_kernel(compose(given_block, k12))
