import numpy as np
import pytest
from scipy.integrate import solve_ivp

from braidline import (
    ModePotential,
    braided_line,
    build_hamiltonian_basis,
    crossing_transform,
    dyson_evolution,
    from_interaction_picture,
    gaussian_potential,
    interaction_coefficients,
    interaction_potential,
    make_lattice,
    ode_evolution,
    smatrix_interaction,
    to_interaction_picture,
    unitarity_defect,
)
from braidline.basis import CoefficientVector
from braidline.dyson import evolve, smatrix_from_evolution
from braidline.scattering import S_FAMILIES, smatrix_momentum, variant_basis, variant_scale

Q = 0.9
MASS = 1.0
SWITCH = 0.2


@pytest.fixture(scope="module")
def ctx():
    return braided_line(Q)


@pytest.fixture(scope="module")
def basis(ctx):
    return build_hamiltonian_basis(make_lattice(Q), MASS, ctx)


@pytest.fixture(scope="module")
def vi(basis):
    v = gaussian_potential(basis.lattice, strength=0.05, width=1.0, epsilon=SWITCH)
    return interaction_potential(v, basis)


def test_interaction_potential_at_zero_is_bare(basis, vi):
    v = gaussian_potential(basis.lattice, strength=0.05, width=1.0, epsilon=SWITCH)
    assert np.max(np.abs(vi.at(0.0) - v.matrix(basis))) < 1e-14


def test_interaction_potential_phases_and_envelope(basis, vi):
    # on H and on H'', whose phases carry the scaled energies q**zeta E_p
    t = 0.8
    bare = vi.matrix
    for variant in ("H", "Hdoubleprime"):
        vt = interaction_potential(ModePotential(bare, epsilon=SWITCH),
                                   variant_basis(basis, variant)).at(t)
        e = variant_scale(variant, basis.ctx) * basis.energies
        phase = np.exp(1j * e * t)
        expect = (phase[:, None] * bare * np.conj(phase)[None, :]) * np.exp(-SWITCH * t)
        assert np.max(np.abs(vt - expect)) < 1e-13, variant


def test_evolution_identity_cases(vi):
    u = ode_evolution(vi, 0.5, 0.5, 1e-8)
    assert np.max(np.abs(u.matrix - np.eye(u.matrix.shape[0]))) == 0.0
    u0 = dyson_evolution(vi, -1.0, 1.0, 0)
    assert np.max(np.abs(u0.matrix - np.eye(u0.matrix.shape[0]))) == 0.0


def test_ode_unitarity_drift(vi):
    u = ode_evolution(vi, -1.0, 1.0, 1e-8)
    assert u.unitarity_drift() <= 1e-8


def test_group_property(vi):
    tol = 1e-9
    whole = ode_evolution(vi, -1.0, 1.0, tol)
    first = ode_evolution(vi, -1.0, 0.3, tol)
    second = ode_evolution(vi, 0.3, 1.0, tol)
    defect = np.linalg.norm(second.matrix @ first.matrix - whole.matrix)
    assert defect <= 10 * tol


def test_diagonal_potential_closed_form(basis):
    # a potential diagonal in the energy basis commutes with itself at all
    # times, so the evolution is exp(-i V int exp(-eps|t|) dt)
    dvals = np.zeros(basis.size)
    dvals[:6] = [0.3, -0.2, 0.1, 0.05, -0.4, 0.25]
    vd = ModePotential(np.diag(dvals), epsilon=SWITCH)
    vid = interaction_potential(vd, basis)
    u = ode_evolution(vid, -1.0, 1.0, 1e-10)
    integral = 2.0 * (1.0 - np.exp(-SWITCH)) / SWITCH
    exact = np.diag(np.exp(-1j * dvals * integral))
    assert np.max(np.abs(u.matrix - exact)) < 1e-9


def test_dyson_order_truncation_scaling(basis):
    # || U_dyson(2) - U_ode || shrinks like strength**3; the potential is
    # confined to the lowest modes so the reference solve stays cheap
    bare = gaussian_potential(basis.lattice, strength=0.05, width=1.0,
                              epsilon=SWITCH).matrix(basis)
    block = np.zeros_like(bare)
    block[:12, :12] = bare[:12, :12]
    errs = []
    for lam in (1.0, 0.5, 0.25):
        vl = interaction_potential(ModePotential(lam * block, epsilon=SWITCH), basis)
        u2 = dyson_evolution(vl, -1.0, 1.0, 2)
        ue = ode_evolution(vl, -1.0, 1.0, 1e-10)
        errs.append(np.linalg.norm(u2.matrix - ue.matrix))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(slopes - 3.0) < 0.3)


def _packed_full_space(vi, t_from, t_to, tol, order=None):
    """The integration the coupled-mode driver replaced: every one of the
    m x m entries, complex matrices packed as real/imaginary halves.
    ``order=None`` evolves U, else the Dyson hierarchy up to ``order``."""
    m = vi.basis.size
    nm = m * m
    coeff, left = (-1j, True) if vi.basis.ctx.geometry == "G1" else (1j, False)
    levels = 1 if order is None else order
    rtol = (tol if order is None else tol / order) * 1e-2

    def unpack(y, k):
        return (y[2 * k * nm: (2 * k + 1) * nm].reshape(m, m)
                + 1j * y[(2 * k + 1) * nm: (2 * k + 2) * nm].reshape(m, m))

    def rhs_real(t, y):
        vt = vi.at(t)
        out = np.zeros_like(y)
        prev = unpack(y, 0) if order is None else np.eye(m, dtype=complex)
        for k in range(levels):
            d = coeff * (vt @ prev) if left else coeff * (prev @ vt)
            out[2 * k * nm: (2 * k + 1) * nm] = d.real.ravel()
            out[(2 * k + 1) * nm: (2 * k + 2) * nm] = d.imag.ravel()
            prev = unpack(y, k)
        return out

    y0 = np.zeros(2 * nm * levels)
    if order is None:
        y0[:nm] = np.eye(m).ravel()
    sol = solve_ivp(rhs_real, (t_from, t_to), y0, method="DOP853", rtol=rtol, atol=rtol)
    assert sol.success
    y = sol.y[:, -1]
    if order is None:
        return unpack(y, 0)
    return np.eye(m) + sum(unpack(y, k) for k in range(order))


@pytest.mark.parametrize("crossed", [False, True], ids=["G1", "G2"])
def test_coupled_modes_match_full_space_oracle(ctx, crossed):
    # support neither contiguous nor symmetric: V[3, 17] alone plus a block
    # on modes {1, 4, 9}; the restriction to modes {1, 3, 4, 9, 17} is exact
    c = crossing_transform(ctx) if crossed else ctx
    b = build_hamiltonian_basis(make_lattice(c.q), MASS, c)
    rng = np.random.default_rng(5)
    vm = np.zeros((b.size, b.size), dtype=complex)
    vm[3, 17] = 0.3 - 0.1j
    vm[np.ix_([1, 4, 9], [1, 4, 9])] = 0.2 * (rng.normal(size=(3, 3))
                                              + 1j * rng.normal(size=(3, 3)))
    vic = interaction_potential(ModePotential(vm, epsilon=SWITCH), b)
    outside = np.ones(b.size, dtype=bool)
    outside[[1, 3, 4, 9, 17]] = False
    outside = outside[:, None] | outside[None, :]
    for fast, order in ((ode_evolution(vic, -1.0, 1.0, 1e-10), None),
                        (dyson_evolution(vic, -1.0, 1.0, 2), 2)):
        ref = _packed_full_space(vic, -1.0, 1.0, 1e-10, order)
        assert np.max(np.abs(fast.matrix - ref)) < 1e-9
        assert np.array_equal(fast.matrix[outside], np.eye(b.size)[outside])
        assert fast.diagnostics["coupled_modes"] == 5
        assert fast.geometry == c.geometry


@pytest.mark.parametrize("crossed", [False, True], ids=["G1", "G2"])
def test_substeps_match_full_space_oracle(ctx, crossed):
    # |V|_2 = 5 on modes {0, 2, 5} with eps = 0.2: x = |V|_2 int exp(-eps|t|)
    # is 4.5 on each half of [-1, 1], so each half-window takes five steps
    c = crossing_transform(ctx) if crossed else ctx
    b = build_hamiltonian_basis(make_lattice(c.q), MASS, c)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    herm = a + a.conj().T
    vm = np.zeros((b.size, b.size), dtype=complex)
    vm[np.ix_([0, 2, 5], [0, 2, 5])] = 5.0 * herm / np.linalg.norm(herm, 2)
    vic = interaction_potential(ModePotential(vm, epsilon=SWITCH), b)
    for t_from, t_to in ((-1.0, 1.0), (1.0, -1.0)):
        fast = ode_evolution(vic, t_from, t_to, 1e-10)
        ref = _packed_full_space(vic, t_from, t_to, 1e-11)  # 4.5e-10 off at 1e-10
        assert np.max(np.abs(fast.matrix - ref)) < 1e-9
        assert fast.diagnostics["steps"] == 10 and fast.diagnostics["tail"] <= 1e-10


def test_dyson_first_order_oracle(basis, vi):
    # order 1 is the identity minus i times the plain time integral of V_I,
    # on H and on H'', whose phases carry the scaled energies
    ts = np.linspace(-1.0, 1.0, 4001)
    for variant in ("H", "Hdoubleprime"):
        e = variant_scale(variant, basis.ctx) * basis.energies

        def v_i(t):
            phase = np.exp(1j * e * t)
            return np.outer(phase, phase.conj()) * vi.matrix * np.exp(-SWITCH * abs(t))

        vb = interaction_potential(ModePotential(vi.matrix, epsilon=SWITCH),
                                   variant_basis(basis, variant))
        u1 = dyson_evolution(vb, -1.0, 1.0, 1)
        acc = sum(v_i(t) for t in ts) - 0.5 * (v_i(ts[0]) + v_i(ts[-1]))
        expect = np.eye(basis.size) - 1j * (ts[1] - ts[0]) * acc
        assert np.max(np.abs(u1.matrix - expect)) < 1e-6, variant


def test_picture_change_roundtrip(basis):
    rng = np.random.default_rng(21)
    vals = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    for variant in ("H", "Hprime"):
        psi = CoefficientVector(variant_basis(basis, variant), vals, time=0.7)
        there = to_interaction_picture(psi)
        back = from_interaction_picture(there)
        assert np.max(np.abs(back.values - vals)) < 1e-13
        # the free phase of the variant's scaled energies is the one removed
        e = variant_scale(variant, basis.ctx) * basis.energies
        assert np.max(np.abs(there.values - np.exp(1j * e * 0.7) * vals)) < 1e-13
        # isometry
        assert np.linalg.norm(there.values) == pytest.approx(np.linalg.norm(vals))


def test_free_state_coefficients_constant(basis):
    from braidline import expand, project

    c = np.zeros(basis.size, dtype=complex)
    c[3] = 1.0
    c[8] = 0.5
    states = []
    base = CoefficientVector(basis, c, time=0.0)
    for t in (0.0, 0.4, 1.1):
        f = expand(base, t)
        states.append(project(f, basis))
    times, rows = interaction_coefficients(states)
    assert np.allclose(times, [0.0, 0.4, 1.1])
    assert np.max(np.abs(rows - rows[0])) < 1e-12


def test_evolve_respects_time_stamps(basis, vi):
    u = ode_evolution(vi, -1.0, 1.0, 1e-8)
    psi = CoefficientVector(basis, np.eye(basis.size)[0], time=-1.0)
    out = evolve(u, psi)
    assert out.time == 1.0
    bad = CoefficientVector(basis, np.eye(basis.size)[0], time=0.0)
    with pytest.raises(ValueError):
        evolve(u, bad)


def test_crossed_geometry_right_action(ctx):
    c2 = crossing_transform(ctx)
    lat2 = make_lattice(c2.q)
    b2 = build_hamiltonian_basis(lat2, MASS, c2)
    v = gaussian_potential(lat2, strength=0.05, width=1.0, epsilon=SWITCH)
    vi2 = interaction_potential(v, b2)
    u = ode_evolution(vi2, -1.0, 1.0, 1e-8)
    assert u.geometry == "G2"
    assert u.unitarity_drift() <= 1e-8
    psi = CoefficientVector(b2, np.eye(b2.size)[0], time=-1.0)
    out = evolve(u, psi)
    assert np.max(np.abs(out.values - psi.values @ u.matrix)) == 0.0


def test_long_window_stays_unitary(basis):
    # eps*T = 200: a step towards t = 0 taken from its far end would carry
    # exp(200 k) on the k-th diagonal block of its exponential and overflow
    block = np.arange(16.0).reshape(4, 4)
    vm = np.zeros((basis.size, basis.size))
    vm[:4, :4] = 0.01 * (block + block.T)
    vil = interaction_potential(ModePotential(vm, epsilon=0.5), basis)
    for t_from, t_to in ((-400.0, 400.0), (400.0, -400.0)):
        assert ode_evolution(vil, t_from, t_to, 1e-10).unitarity_drift() <= 1e-10


def test_smatrix_interaction_horizon_checks(basis, vi):
    with pytest.raises(ValueError):
        smatrix_interaction(vi, "S1starPlus", 1.0, SWITCH)  # horizon too short
    with pytest.raises(ValueError):
        smatrix_interaction(vi, "S1starPlus", 100.0, 0.3)  # eps mismatch
    with pytest.raises(ValueError):
        smatrix_interaction(vi, "S9", 100.0, SWITCH)


def test_smatrix_interaction_zero_potential(basis):
    v0 = ModePotential(np.zeros((basis.size, basis.size)), epsilon=SWITCH)
    vi0 = interaction_potential(v0, basis)
    horizon = np.log(1e8) / SWITCH
    s = smatrix_interaction(vi0, "S1starPlus", horizon, SWITCH)
    assert np.max(np.abs(s.matrix - np.eye(basis.size))) == 0.0


def test_smatrix_interaction_unitary_for_hermitian(basis):
    eps = 0.5
    rng = np.random.default_rng(2)
    block = rng.normal(size=(8, 8))
    vm = np.zeros((basis.size, basis.size))
    vm[:8, :8] = 0.01 * (block + block.T)
    v = ModePotential(vm, epsilon=eps)
    vi8 = interaction_potential(v, basis)
    horizon = np.log(1e8) / eps
    s = smatrix_interaction(vi8, "S1starPlus", horizon, eps, tol=1e-8)
    assert unitarity_defect(s) <= 1e-6


def test_smatrix_interaction_matches_momentum_route(basis):
    # weak potential restricted to the lowest modes: the adiabatic
    # evolution across the switching window reproduces the resolvent
    # construction mode by mode
    eps = 0.05
    rng = np.random.default_rng(7)
    block = rng.normal(size=(10, 10))
    block = 2e-5 * (block + block.T) / 2
    vm = np.zeros((basis.size, basis.size))
    vm[:10, :10] = block
    v = ModePotential(vm, epsilon=eps)
    vi10 = interaction_potential(v, basis)
    horizon = np.log(1e8) / eps
    s_dyn = smatrix_interaction(vi10, "S1starPlus", horizon, eps, tol=1e-10)
    s_mom = smatrix_momentum(v, basis, "S1starPlus", eps=eps)
    assert np.max(np.abs(s_dyn.matrix - s_mom.matrix)) < 1e-6
    assert s_dyn.diagnostics["coupled_modes"] == 10
    assert s_dyn.diagnostics["order"] >= 1 and s_dyn.diagnostics["steps"] == 2
    assert s_dyn.diagnostics["tail"] <= 1e-10
    # a time sign -1 family takes the reversed window, U(T, -T)^-1, and the
    # momentum route the advanced resolvent: the routes agree for every family
    s_minus = smatrix_interaction(vi10, "S2minus", horizon, eps, tol=1e-10)
    assert np.max(np.abs(s_minus.matrix @ s_dyn.matrix - np.eye(basis.size))) <= 1e-12
    # U^-1 rather than the adjoint, so a non-Hermitian coupling agrees too
    gain = vm.astype(complex)
    gain[:10, :10] += 2e-5j * rng.normal(size=(10, 10))
    for pot in (v, ModePotential(gain, epsilon=eps)):
        vi = interaction_potential(pot, basis)
        u = ode_evolution(vi, -horizon, horizon, 1e-10)
        for family in S_FAMILIES:
            s_route = smatrix_from_evolution(vi, u, family).matrix
            s_route_mom = smatrix_momentum(pot, basis, family, eps=eps).matrix
            assert np.max(np.abs(s_route - s_route_mom)) < 1e-6, (pot.is_hermitian, family)


def test_smatrix_interaction_free_past_overlap(basis):
    # with the switching envelope the remote past is free: starting in a
    # single mode, the overlap with that mode at -T is 1
    eps = 0.5
    vm = np.zeros((basis.size, basis.size))
    vm[2, 2] = 0.05
    v = ModePotential(vm, epsilon=eps)
    vif = interaction_potential(v, basis)
    horizon = np.log(1e8) / eps
    u = ode_evolution(vif, -horizon, -horizon, 1e-8)
    psi = CoefficientVector(basis, np.eye(basis.size)[2], time=-horizon)
    out = evolve(u, psi)
    assert abs(np.vdot(psi.values, out.values)) == pytest.approx(1.0, abs=1e-6)
