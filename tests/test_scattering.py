import itertools

import numpy as np
import pytest

from braidline import (
    ModePotential,
    Potential,
    born_radius,
    born_wavefunction,
    braided_line,
    build_hamiltonian_basis,
    conjugate_smatrix,
    full_green,
    gaussian_potential,
    lippmann_schwinger_solve,
    make_lattice,
    smatrix_momentum,
    transition_probability,
    unitarity_defect,
    variant_basis,
)
from braidline import scattering
from braidline.basis import CoefficientVector
from braidline.checks import cross_formalism_potential
from oracles import dense_smatrix, expm_green
from braidline.propagator import conjugation_partner
from braidline.scattering import (
    S_FAMILIES,
    green_residual,
    transition_probability_table,
    variant_scale,
)

Q = 0.9
MASS = 1.0
EPS = 0.05
HAMILTONIANS = ("H", "Hprime", "Hdoubleprime")


@pytest.fixture(scope="module")
def ctx():
    return braided_line(Q)


@pytest.fixture(scope="module")
def basis(ctx):
    return build_hamiltonian_basis(make_lattice(Q), MASS, ctx)


@pytest.fixture(scope="module")
def weak_v(basis):
    return gaussian_potential(basis.lattice, strength=0.05, width=1.0, epsilon=EPS)


def test_variant_scales(ctx, basis):
    assert variant_scale("H", ctx) == 1.0
    # zeta = -1 on the braided line: q**-zeta = q, q**zeta = 1/q
    assert variant_scale("Hprime", ctx) == pytest.approx(Q)
    assert variant_scale("Hdoubleprime", ctx) == pytest.approx(Q ** -1)
    with pytest.raises(ValueError):
        variant_scale("Htriple", ctx)
    # a variant's basis shares everything but the energies, scaled bit for bit
    for variant in HAMILTONIANS:
        vb = variant_basis(basis, variant)
        for name in ("vectors", "momenta", "parity", "lattice", "ctx"):
            assert getattr(vb, name) is getattr(basis, name)
        assert vb.mass == basis.mass
        assert np.array_equal(vb.energies, variant_scale(variant, ctx) * basis.energies)
    with pytest.raises(ValueError):
        variant_basis(basis, "Htriple")


def test_potential_matrix_is_hermitian(basis, weak_v):
    vm = weak_v.matrix(basis)
    assert weak_v.is_hermitian
    assert np.max(np.abs(vm - vm.conj().T)) < 1e-13


def test_mode_potential_passthrough(basis):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(basis.size, basis.size))
    m = m + m.T
    mp = ModePotential(m, epsilon=EPS)
    assert mp.is_hermitian
    assert np.max(np.abs(mp.matrix(basis) - m)) == 0.0


@pytest.mark.parametrize("width", [1e-170, 4.5e-303, 0.0, -1.0, 1.3407807929942597e154,
                                   np.inf, np.nan])
def test_gaussian_potential_refuses_a_bad_width(width):
    # 2 * width**2 outside the positive normal floats: a NaN (and a divide-by-zero
    # warning) at the lattice point on the center, or a negative width
    with pytest.raises(ValueError, match="width"):
        gaussian_potential(make_lattice(0.9), 1.0, width=width, center=1.0)


def test_gaussian_potential_admits_the_narrowest_normal_width():
    vals = gaussian_potential(make_lattice(0.9), 1.0, width=1.1e-154, center=1.0).values
    assert np.all(np.isfinite(vals)) and vals.max() == 1.0


# ---------------------------------------------------------------------------
# Lippmann-Schwinger and Born

def test_ls_identity(basis, weak_v):
    # T = V + V R0 T with the uniform resolvent denominators, on H and H''
    energy = 1.0
    vm = weak_v.matrix(basis)
    for variant in ("H", "Hdoubleprime"):
        vb = variant_basis(basis, variant)
        t = lippmann_schwinger_solve(weak_v, vb, energy, EPS)
        rho = born_radius(weak_v, vb, energy, EPS)
        r0 = np.diag(1.0 / (energy - variant_scale(variant, basis.ctx) * basis.energies
                            + 1j * EPS))
        assert np.max(np.abs(t - (vm + vm @ r0 @ t))) < 1e-12
        assert rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(vm @ r0))), rel=1e-12)
        assert 0.0 < rho < 0.5


def test_ls_negative_eps_takes_the_advanced_resolvent(basis, weak_v):
    # T = V + V R0(E - i eps) T, the equation of a -1 family's S-matrix
    energy = 1.0
    t = lippmann_schwinger_solve(weak_v, basis, energy, -EPS)
    vm = weak_v.matrix(basis)
    r0 = np.diag(1.0 / (energy - basis.energies - 1j * EPS))
    assert np.max(np.abs(t - (vm + vm @ r0 @ t))) < 1e-12


def test_ls_zero_potential(basis):
    v0 = Potential(np.zeros(basis.lattice.size), epsilon=EPS)
    t = lippmann_schwinger_solve(v0, basis, 1.0, EPS)
    rho = born_radius(v0, basis, 1.0, EPS)
    assert np.max(np.abs(t)) == 0.0
    assert rho == 0.0


def test_ls_rejects_nonpositive_eps(basis, weak_v):
    with pytest.raises(ValueError):
        lippmann_schwinger_solve(weak_v, basis, 1.0, 0.0)
    with pytest.raises(ValueError):
        born_radius(weak_v, basis, 1.0, 0.0)
    for tilde in (False, True):
        for eps in (0.0, -EPS):
            with pytest.raises(ValueError):
                smatrix_momentum(weak_v, basis, "S2minus", eps=eps, tilde=tilde)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_eps_is_refused(basis, weak_v, eps):
    # each refusal names the value: no NaN coefficients, no misleading LinAlgError
    named = f": {eps!r}$"
    with pytest.raises(ValueError, match=named):
        Potential(weak_v.values, epsilon=eps)
    with pytest.raises(ValueError, match=named):
        ModePotential(weak_v.matrix(basis), epsilon=eps)
    with pytest.raises(ValueError, match=named):
        lippmann_schwinger_solve(weak_v, basis, 1.0, eps)
    with pytest.raises(ValueError, match=named):
        born_radius(weak_v, basis, 1.0, eps)
    for tilde in (False, True):
        with pytest.raises(ValueError, match=named):
            smatrix_momentum(weak_v, basis, "S2minus", eps=eps, tilde=tilde)


def test_ls_reports_singular_system(basis):
    # a resonant rank-one potential drives I - V R0 singular
    energy = float(basis.energies[8])
    vm = np.zeros((basis.size, basis.size), dtype=complex)
    vm[8, 8] = 1j * EPS  # cancels the +i eps of the resolvent exactly
    v = ModePotential(vm, epsilon=EPS)
    with pytest.raises(np.linalg.LinAlgError):
        lippmann_schwinger_solve(v, basis, energy, EPS)


def test_tilde_route_reports_near_singular_system(basis):
    # the advanced system I - conj(V) R0(E - i eps) of a +1 family's tilde
    # partner, made near-singular by the resonant potential detuned by 1e-14;
    # a plain -1 family solves the same system with conj(V) in place of V
    vm = np.zeros((basis.size, basis.size), dtype=complex)
    vm[8, 8] = 1j * EPS * (1.0 + 1e-14)
    with pytest.raises(np.linalg.LinAlgError):
        smatrix_momentum(ModePotential(vm, epsilon=EPS), basis, "S1plusPrime", eps=EPS,
                         tilde=True)
    with pytest.raises(np.linalg.LinAlgError):
        smatrix_momentum(ModePotential(np.conj(vm), epsilon=EPS), basis, "S2minus", eps=EPS)


def test_born_geometric_convergence(basis, weak_v):
    # the Born iteration converges geometrically at rate rho
    phi = np.zeros(basis.size, dtype=complex)
    phi[6] = 1.0
    inc = CoefficientVector(basis, phi)
    exact_order = 24
    ref = born_wavefunction(inc, weak_v, exact_order)[0].values
    errs = []
    for order in (1, 2, 3, 4):
        got = born_wavefunction(inc, weak_v, order)[0].values
        errs.append(np.max(np.abs(got - ref)))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios > 2.0)


def test_born_first_order_closed_form(basis, weak_v):
    # order 1: c_p = V_{pq} / (E_q - E_p + i eps) for incoming mode q, on H and H''
    jq = 6
    phi = np.zeros(basis.size, dtype=complex)
    phi[jq] = 1.0
    vm = weak_v.matrix(basis)
    for variant in ("H", "Hdoubleprime"):
        got = born_wavefunction(CoefficientVector(variant_basis(basis, variant), phi),
                                weak_v, 1)[0].values
        e = variant_scale(variant, basis.ctx) * basis.energies
        expect = phi + vm[:, jq] / (e[jq] - e + 1j * EPS)
        assert np.max(np.abs(got - expect)) < 1e-13, variant


def test_born_order_zero_free_phase(basis, weak_v):
    phi = np.zeros(basis.size, dtype=complex)
    phi[4] = 1.0
    for variant in ("H", "Hdoubleprime"):
        inc = CoefficientVector(variant_basis(basis, variant), phi)
        out = born_wavefunction(inc, weak_v, 0, times=np.array([0.0, 0.7]))
        assert np.max(np.abs(out[0].values - phi)) == 0.0
        e4 = variant_scale(variant, basis.ctx) * basis.energies[4]
        assert np.max(np.abs(out[1].values - phi * np.exp(-1j * e4 * 0.7))) < 1e-13


def test_born_requires_eps_for_positive_order(basis):
    v = gaussian_potential(basis.lattice, strength=0.05, epsilon=0.0)
    phi = CoefficientVector(basis, np.eye(basis.size)[0])
    with pytest.raises(ValueError):
        born_wavefunction(phi, v, 2)


# ---------------------------------------------------------------------------
# interacting Green's functions

def test_full_green_zero_potential_is_free(basis):
    v0 = Potential(np.zeros(basis.lattice.size), epsilon=EPS)
    g = full_green(v0, basis, None, 0.0, 0.6)
    from braidline import free_propagator

    k = free_propagator(basis, "K1prime", 0.0, 0.6)
    assert np.max(np.abs(g.kernel.matrix - k.matrix)) < 1e-10


def test_full_green_residual(basis, weak_v):
    for b in (basis, variant_basis(basis, "Hdoubleprime")):
        assert green_residual(full_green(weak_v, b, None, 0.0, 0.7)) < 1e-9


def test_full_green_retarded(basis, weak_v):
    g = full_green(weak_v, basis, None, 0.7, 0.0)
    assert np.max(np.abs(g.kernel.matrix)) == 0.0
    # the causal zero side solves the equation, since i d_t G carries theta too
    assert green_residual(g) == 0.0


@pytest.mark.parametrize("dt", [0.4, 0.7, 3.0])
@pytest.mark.parametrize("hermitian", [True, False], ids=["weak_v", "gain"])
def test_full_green_matches_expm(basis, weak_v, hermitian, dt):
    # the eigenbasis of s*H0 + V against the matrix exponential it replaced
    v = weak_v if hermitian else Potential(0.05j * np.exp(-basis.lattice.points ** 2),
                                           epsilon=EPS)
    u, w = basis.vectors, basis.weights
    for variant in HAMILTONIANS:
        g = full_green(v, variant_basis(basis, variant), None, 0.0, dt)
        modes = u.conj().T @ (w[:, None] * g.kernel.matrix * w[None, :]) @ u
        assert np.max(np.abs(modes - expm_green(v, basis, variant, dt))) < 1e-10, variant


def test_full_green_refuses_defective_hamiltonian(basis):
    # a coupling inside the exactly degenerate pair (0, 1) makes a Jordan block
    vm = np.zeros((basis.size, basis.size), dtype=complex)
    vm[0, 1] = 1e-3
    with pytest.raises(np.linalg.LinAlgError):
        full_green(ModePotential(vm, epsilon=EPS), basis, None, 0.0, 0.7)


def test_full_green_born_orders_converge(basis, weak_v):
    exact = full_green(weak_v, basis, None, 0.0, 0.7)
    errs = []
    for order in (1, 2, 4):
        trunc = full_green(weak_v, basis, order, 0.0, 0.7)
        errs.append(np.max(np.abs(trunc.kernel.matrix - exact.kernel.matrix)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-8


def test_full_green_composition(basis, weak_v):
    # the exact interacting kernel composes like the free one
    g01 = full_green(weak_v, basis, None, 0.0, 0.4)
    g12 = full_green(weak_v, basis, None, 0.4, 0.9)
    direct = full_green(weak_v, basis, None, 0.0, 0.9)
    from braidline import compose

    got = compose(g01.kernel, g12.kernel)
    assert np.max(np.abs(got.matrix - direct.kernel.matrix)) < 1e-10


def test_green_residual_requires_exact(basis, weak_v):
    g = full_green(weak_v, basis, 3, 0.0, 0.7)
    with pytest.raises(ValueError):
        green_residual(g)
    with pytest.raises(ValueError):  # undefined on the source slice
        green_residual(full_green(weak_v, basis, None, 0.7, 0.7))


# ---------------------------------------------------------------------------
# S-matrices

def test_family_table(ctx):
    assert len(S_FAMILIES) == 8
    for fam, (geom, sign, starred, primed) in S_FAMILIES.items():
        assert geom in (1, 2)
        assert sign in (-1, +1)
        # the partner toggles the prime only, and pairing is an involution
        partner = conjugation_partner(S_FAMILIES, fam)
        assert S_FAMILIES[partner] == (geom, sign, starred, not primed)
        assert conjugation_partner(S_FAMILIES, partner) == fam


def test_mode_potential_refuses_negative_epsilon(basis):
    # a negative rate would switch on a growing envelope exp(+|eps t|)
    with pytest.raises(ValueError, match="epsilon"):
        ModePotential(np.eye(basis.size), epsilon=-0.1)


def test_smatrix_zero_potential_identity(basis):
    v0 = Potential(np.zeros(basis.lattice.size), epsilon=EPS)
    for fam in ("S2minus", "S1starPlus"):
        s = smatrix_momentum(v0, basis, fam, eps=EPS)
        assert np.max(np.abs(s.matrix - np.eye(basis.size))) == 0.0
        assert unitarity_defect(s) < 1e-12


def test_smatrix_conjugation_partners(basis, weak_v):
    for fam in ("S2minus", "S1starPlus", "S1plusPrime", "S2starMinusPrime"):
        s = smatrix_momentum(weak_v, basis, fam, eps=EPS)
        cs = conjugate_smatrix(s)
        geom, sign, starred, primed = S_FAMILIES[fam]
        assert S_FAMILIES[cs.family] == (geom, sign, starred, not primed)
        assert cs.tilde
        built = smatrix_momentum(weak_v, basis, cs.family, eps=EPS, tilde=True)
        assert np.max(np.abs(cs.matrix - built.matrix)) < 1e-10


def test_smatrix_conjugation_involution(basis, weak_v):
    s = smatrix_momentum(weak_v, basis, "S2minus", eps=EPS)
    back = conjugate_smatrix(conjugate_smatrix(s))
    assert back.family == s.family
    assert back.tilde == s.tilde
    assert np.max(np.abs(back.matrix - s.matrix)) == 0.0


def test_unitarity_eps_trend(basis, weak_v):
    defects = [
        unitarity_defect(smatrix_momentum(weak_v, basis, "S2minus", eps=e))
        for e in (1e-1, 3e-2, 1e-2)
    ]
    assert defects[0] > defects[1] * 0.8
    assert defects[1] > defects[2] * 0.8


def test_unitarity_anti_hermitian_control(basis):
    va = Potential(
        0.05j * np.exp(-basis.lattice.points ** 2), epsilon=EPS
    )
    assert not va.is_hermitian
    s = smatrix_momentum(va, basis, "S2minus", eps=EPS)
    assert unitarity_defect(s) > 1e-2


def test_transition_probabilities_real_nonnegative(basis, weak_v):
    s = smatrix_momentum(weak_v, basis, "S2minus", eps=EPS)
    table = transition_probability_table(s)
    assert np.all(np.isreal(table))
    assert np.all(table >= 0.0)
    assert transition_probability(s, 3, 7) == pytest.approx(abs(s.matrix[3, 7]) ** 2)


def test_transition_probabilities_zero_potential(basis):
    v0 = Potential(np.zeros(basis.lattice.size), epsilon=EPS)
    s = smatrix_momentum(v0, basis, "S2minus", eps=EPS)
    assert transition_probability(s, 2, 5) == 0.0
    assert transition_probability(s, 4, 4) == 1.0


def test_transition_probabilities_tilde_pairs(basis, weak_v):
    s = smatrix_momentum(weak_v, basis, "S1plusPrime", eps=EPS)
    st = conjugate_smatrix(s)
    w = transition_probability_table(s)
    wt = transition_probability_table(st)
    assert np.max(np.abs(w - wt.T)) < 1e-10


def test_transition_row_sums_within_unitarity_defect(basis, weak_v):
    s = smatrix_momentum(weak_v, basis, "S2minus", eps=EPS)
    defect = unitarity_defect(s)
    rows = transition_probability_table(s).sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) <= defect


# ---------------------------------------------------------------------------
# the one-decomposition solve against the dense per-column solve it replaced

POTENTIALS = {
    "gaussian": lambda b: gaussian_potential(b.lattice, strength=0.05, width=1.0,
                                             epsilon=EPS),
    "non_hermitian": lambda b: Potential(0.05j * np.exp(-b.lattice.points ** 2),
                                         epsilon=EPS),
    "cross_formalism": cross_formalism_potential,
}
# a time sign +1 and a time sign -1 family: the retarded and advanced solves
ONE_FAMILY_PER_SIGN = ("S1plusPrime", "S2minus")


def on_shell_residuals(v, basis, eps):
    """Per-column max|R[:, k]| of R = V - T + V (R0 o T) for the on-shell
    solve, its bound 64 eps_mach max|V|, and the solve's diagnostics."""
    vm, e = v.matrix(basis), basis.energies
    diagnostics = {}
    t = lippmann_schwinger_solve(v, basis, e, eps, diagnostics)
    r0 = 1.0 / (e[None, :] + 1j * eps - e[:, None])
    res = np.max(np.abs(vm - t + vm @ (r0 * t)), axis=0)
    return res, 64 * np.finfo(float).eps * np.max(np.abs(vm)), diagnostics


@pytest.fixture(scope="module")
def basis102(ctx):
    return build_hamiltonian_basis(make_lattice(Q, j_min=-25, j_max=25), MASS, ctx)


@pytest.mark.parametrize("shape", sorted(POTENTIALS))
@pytest.mark.parametrize("lattice_basis", ["basis", "basis102"])
def test_smatrix_matches_dense_per_column_solve(request, lattice_basis, shape):
    b = request.getfixturevalue(lattice_basis)
    v = POTENTIALS[shape](b)
    for eps, variant in itertools.product((0.1, 0.01), ("H", "Hprime")):
        vb = variant_basis(b, variant)
        res, bound, diagnostics = on_shell_residuals(v, vb, eps)
        assert diagnostics["direct_columns"] == 0
        assert np.all(res <= bound)
        for family, tilde in itertools.product(ONE_FAMILY_PER_SIGN, (False, True)):
            s = smatrix_momentum(v, vb, family, eps=eps, tilde=tilde)
            assert s.diagnostics["max_residual"] <= bound
            ref = dense_smatrix(v, b, eps, variant, S_FAMILIES[family][1], tilde)
            assert np.max(np.abs(s.matrix - ref)) <= 1e-12, (eps, variant, family, tilde)


@pytest.mark.parametrize("shape", ["gaussian", "non_hermitian"])
def test_every_column_converges_at_n402(ctx, shape):
    # the raw spectral T misses the bound at this Emax; refinement reaches it
    b = build_hamiltonian_basis(make_lattice(Q, j_min=-100, j_max=100), MASS, ctx)
    res, bound, diagnostics = on_shell_residuals(POTENTIALS[shape](b), b, 0.01)
    assert b.size == 402
    assert diagnostics["refinement_steps"] >= 1
    assert diagnostics["direct_columns"] == 0
    assert np.all(res <= bound)


def test_unconverged_columns_fall_back_to_the_direct_solve(basis, weak_v, monkeypatch):
    # an unreachable refinement target sends the columns to the guarded solve
    monkeypatch.setattr(scattering, "RESIDUAL_ULPS", 0.0)
    for family, tilde in itertools.product(ONE_FAMILY_PER_SIGN, (False, True)):
        s = smatrix_momentum(weak_v, basis, family, eps=EPS, tilde=tilde)
        assert s.diagnostics["direct_columns"] > 0
        ref = dense_smatrix(weak_v, basis, EPS, "H", S_FAMILIES[family][1], tilde)
        assert np.max(np.abs(s.matrix - ref)) <= 1e-12, (family, tilde)


def test_smatrix_diagnostics(basis, weak_v):
    s = smatrix_momentum(weak_v, basis, "S2minus", eps=EPS)
    d = s.diagnostics
    assert set(d) == {"condition_bound", "refinement_steps", "max_residual",
                      "direct_columns"}
    assert 1.0 <= d["condition_bound"] <= scattering.COND_LIMIT
    assert conjugate_smatrix(s).diagnostics == d
