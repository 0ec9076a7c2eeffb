import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from braidline import (
    Hamiltonian,
    braided_line,
    build_hamiltonian_basis,
    crossing_transform,
    gaussian_potential,
    make_lattice,
    ode_evolution,
    smatrix_from_evolution,
    unitarity_defect,
)
from braidline import checks, cli, dyson
from braidline.dyson import TOL_FLOOR, _dyson_blocks
from braidline.scattering import S_FAMILIES, smatrix_momentum
from oracles import dense_dyson_blocks

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
def h(basis):
    v = gaussian_potential(basis.lattice, strength=0.05, width=1.0, epsilon=SWITCH)
    return v.on(basis)


def test_hamiltonian_at_zero_is_bare(basis, h):
    v = gaussian_potential(basis.lattice, strength=0.05, width=1.0, epsilon=SWITCH)
    assert np.max(np.abs(h.at(0.0) - v.on(basis).v)) < 1e-14


def test_hamiltonian_at_phases_and_envelope(basis, h):
    # on H and on H'', whose phases carry the scaled energies q**zeta E_p
    t = 0.8
    bare = h.v
    for s in (1.0, 1.0 / Q):
        vb = replace(basis, energies=s * basis.energies)
        vt = Hamiltonian(vb, bare, epsilon=SWITCH).at(t)
        phase = np.exp(1j * vb.energies * t)
        expect = (phase[:, None] * bare * np.conj(phase)[None, :]) * np.exp(-SWITCH * t)
        assert np.max(np.abs(vt - expect)) < 1e-13, s


def test_evolution_identity_cases(basis, h):
    # an empty window, and a window over which nothing is coupled
    u = ode_evolution(h, 0.5, 0.5, 1e-8)
    assert np.max(np.abs(u.matrix - np.eye(u.matrix.shape[0]))) == 0.0
    free = Hamiltonian(basis, np.zeros((basis.size, basis.size)), epsilon=SWITCH)
    u0 = ode_evolution(free, -1.0, 1.0, 1e-8)
    assert np.max(np.abs(u0.matrix - np.eye(u0.matrix.shape[0]))) == 0.0
    assert u0.diagnostics["coupled_modes"] == 0


def test_ode_unitarity_drift(h):
    u = ode_evolution(h, -1.0, 1.0, 1e-8)
    assert u.unitarity_drift() <= 1e-8


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_ode_evolution_refuses_non_finite_tol(h, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        ode_evolution(h, -1.0, 1.0, tol)


@pytest.mark.parametrize("tol", [1e-300, TOL_FLOOR / 2, np.nextafter(TOL_FLOOR, 0.0)])
def test_ode_evolution_refuses_tol_below_floor_up_front(h, tol, monkeypatch):
    # a tol no order can meet is refused before any step is integrated
    def never(*args):
        raise AssertionError("integrated a refused tol")

    monkeypatch.setattr(dyson, "_integrate", never)
    with pytest.raises(ValueError, match="tol .*TOL_FLOOR"):
        ode_evolution(h, -1.0, 1.0, tol)


def test_ode_evolution_accepts_the_floor(h):
    u = ode_evolution(h, -1.0, 1.0, TOL_FLOOR)
    assert u.diagnostics["tail"] <= TOL_FLOOR


def test_group_property(h):
    tol = 1e-9
    whole = ode_evolution(h, -1.0, 1.0, tol)
    first = ode_evolution(h, -1.0, 0.3, tol)
    second = ode_evolution(h, 0.3, 1.0, tol)
    defect = np.linalg.norm(second.matrix @ first.matrix - whole.matrix)
    assert defect <= 10 * tol


def test_diagonal_potential_closed_form(basis):
    # a potential diagonal in the energy basis commutes with itself at all
    # times, so the evolution is exp(-i V int exp(-eps|t|) dt)
    dvals = np.zeros(basis.size)
    dvals[:6] = [0.3, -0.2, 0.1, 0.05, -0.4, 0.25]
    hd = Hamiltonian(basis, np.diag(dvals), epsilon=SWITCH)
    u = ode_evolution(hd, -1.0, 1.0, 1e-10)
    integral = 2.0 * (1.0 - np.exp(-SWITCH)) / SWITCH
    exact = np.diag(np.exp(-1j * dvals * integral))
    assert np.max(np.abs(u.matrix - exact)) < 1e-9


def _packed_full_space(h, t_from, t_to, tol):
    """The integration the coupled-mode driver replaced: every one of the
    m x m entries of U, complex matrices packed as real/imaginary halves."""
    m = h.basis.size
    nm = m * m
    coeff, left = (-1j, True) if h.basis.ctx.geometry == "G1" else (1j, False)
    rtol = tol * 1e-2

    def unpack(y):
        return y[:nm].reshape(m, m) + 1j * y[nm:].reshape(m, m)

    def rhs_real(t, y):
        vt, u = h.at(t), unpack(y)
        d = coeff * (vt @ u) if left else coeff * (u @ vt)
        return np.concatenate([d.real.ravel(), d.imag.ravel()])

    y0 = np.zeros(2 * nm)
    y0[:nm] = np.eye(m).ravel()
    sol = solve_ivp(rhs_real, (t_from, t_to), y0, method="DOP853", rtol=rtol, atol=rtol)
    assert sol.success
    return unpack(sol.y[:, -1])


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
    hc = Hamiltonian(b, vm, epsilon=SWITCH)
    outside = np.ones(b.size, dtype=bool)
    outside[[1, 3, 4, 9, 17]] = False
    outside = outside[:, None] | outside[None, :]
    fast = ode_evolution(hc, -1.0, 1.0, 1e-10)
    assert b.ctx.geometry == ("G2" if crossed else "G1")
    ref = _packed_full_space(hc, -1.0, 1.0, 1e-10)
    assert np.max(np.abs(fast.matrix - ref)) < 1e-9
    assert np.array_equal(fast.matrix[outside], np.eye(b.size)[outside])
    assert fast.diagnostics["coupled_modes"] == 5


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
    hc = Hamiltonian(b, vm, epsilon=SWITCH)
    for t_from, t_to in ((-1.0, 1.0), (1.0, -1.0)):
        fast = ode_evolution(hc, t_from, t_to, 1e-10)
        ref = _packed_full_space(hc, t_from, t_to, 1e-11)  # 4.5e-10 off at 1e-10
        assert np.max(np.abs(fast.matrix - ref)) < 1e-9
        assert fast.diagnostics["steps"] == 10 and fast.diagnostics["tail"] <= 1e-10


def test_dyson_first_order_oracle(basis, h):
    # the first-order term of U is minus i times the plain time integral of V_I, on H
    # and on H'', whose phases carry the scaled energies; U(lam V) - U(-lam V) is twice
    # that term times lam, up to lam**3
    ts = np.linspace(-1.0, 1.0, 4001)
    lam = 1e-4
    for s in (1.0, 1.0 / Q):
        vb = replace(basis, energies=s * basis.energies)
        e = vb.energies

        def v_i(t):
            phase = np.exp(1j * e * t)
            return np.outer(phase, phase.conj()) * h.v * np.exp(-SWITCH * abs(t))

        plus, minus = (ode_evolution(Hamiltonian(vb, sign * lam * h.v, epsilon=SWITCH),
                                     -1.0, 1.0, 1e-14).matrix for sign in (1.0, -1.0))
        acc = sum(v_i(t) for t in ts) - 0.5 * (v_i(ts[0]) + v_i(ts[-1]))
        expect = -1j * (ts[1] - ts[0]) * acc
        assert np.max(np.abs((plus - minus) / (2 * lam) - expect)) < 1e-6, s


def test_crossed_geometry_right_action(ctx):
    # G2 evolution acts from the right: U(1, -1) = U(0.3, -1) U(1, 0.3), the
    # reversed order of the G1 group law
    c2 = crossing_transform(ctx)
    lat2 = make_lattice(c2.q)
    b2 = build_hamiltonian_basis(lat2, MASS, c2)
    assert b2.ctx.geometry == "G2"
    h2 = gaussian_potential(lat2, strength=0.05, width=1.0, epsilon=SWITCH).on(b2)
    tol = 1e-9
    whole = ode_evolution(h2, -1.0, 1.0, tol)
    assert whole.unitarity_drift() <= 1e-8
    first, second = ode_evolution(h2, -1.0, 0.3, tol), ode_evolution(h2, 0.3, 1.0, tol)
    assert np.linalg.norm(first.matrix @ second.matrix - whole.matrix) <= 10 * tol
    assert np.linalg.norm(second.matrix @ first.matrix - whole.matrix) > 1e3 * tol


def test_long_window_stays_unitary(basis):
    # eps*T = 200: a step towards t = 0 taken from its far end would carry
    # exp(200 k) on the k-th diagonal block of its exponential and overflow
    block = np.arange(16.0).reshape(4, 4)
    vm = np.zeros((basis.size, basis.size))
    vm[:4, :4] = 0.01 * (block + block.T)
    hl = Hamiltonian(basis, vm, epsilon=0.5)
    for t_from, t_to in ((-400.0, 400.0), (400.0, -400.0)):
        assert ode_evolution(hl, t_from, t_to, 1e-10).unitarity_drift() <= 1e-10


def test_smatrix_from_evolution_guards(basis, h):
    h5 = replace(h, epsilon=0.5)
    with pytest.raises(ValueError, match="horizon too short"):
        smatrix_from_evolution(h5, ode_evolution(h5, -1.0, 1.0, 1e-8), "S1starPlus")
    horizon = np.log(1e8) / SWITCH
    with pytest.raises(ValueError, match="window"):
        smatrix_from_evolution(h, ode_evolution(h, -horizon, 2 * horizon, 1e-8), "S1starPlus")
    u = ode_evolution(h, -horizon, horizon, 1e-8)
    with pytest.raises(ValueError, match="eps must be positive"):
        smatrix_from_evolution(replace(h, epsilon=0.0), u, "S1starPlus")
    with pytest.raises(ValueError, match="unknown S-matrix family"):
        smatrix_from_evolution(h, u, "S9")


def test_smatrix_interaction_zero_potential(basis):
    h0 = Hamiltonian(basis, np.zeros((basis.size, basis.size)), epsilon=SWITCH)
    horizon = np.log(1e8) / SWITCH
    s = smatrix_from_evolution(h0, ode_evolution(h0, -horizon, horizon, 1e-8), "S1starPlus")
    assert np.max(np.abs(s.matrix - np.eye(basis.size))) == 0.0


def test_smatrix_interaction_unitary_for_hermitian(basis):
    eps = 0.5
    rng = np.random.default_rng(2)
    block = rng.normal(size=(8, 8))
    vm = np.zeros((basis.size, basis.size))
    vm[:8, :8] = 0.01 * (block + block.T)
    h8 = Hamiltonian(basis, vm, epsilon=eps)
    horizon = np.log(1e8) / eps
    s = smatrix_from_evolution(h8, ode_evolution(h8, -horizon, horizon, 1e-8), "S1starPlus")
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
    v = Hamiltonian(basis, vm, epsilon=eps)
    horizon = np.log(1e8) / eps
    u10 = ode_evolution(v, -horizon, horizon, 1e-10)
    s_dyn = smatrix_from_evolution(v, u10, "S1starPlus")
    s_mom = smatrix_momentum(v, basis, "S1starPlus", eps=eps)
    assert np.max(np.abs(s_dyn.matrix - s_mom.matrix)) < 1e-6
    assert s_dyn.diagnostics["coupled_modes"] == 10
    assert s_dyn.diagnostics["order"] >= 1 and s_dyn.diagnostics["steps"] == 2
    assert s_dyn.diagnostics["tail"] <= 1e-10
    # a time sign -1 family takes the reversed window, U(T, -T)^-1, and the
    # momentum route the advanced resolvent: the routes agree for every family
    s_minus = smatrix_from_evolution(v, u10, "S2minus")
    assert np.max(np.abs(s_minus.matrix @ s_dyn.matrix - np.eye(basis.size))) <= 1e-12
    # U^-1 rather than the adjoint, so a non-Hermitian coupling agrees too
    gain = vm.astype(complex)
    gain[:10, :10] += 2e-5j * rng.normal(size=(10, 10))
    for pot in (v, Hamiltonian(basis, gain, epsilon=eps)):
        u = ode_evolution(pot, -horizon, horizon, 1e-10)
        for family in S_FAMILIES:
            s_route = smatrix_from_evolution(pot, u, family).matrix
            s_route_mom = smatrix_momentum(pot, basis, family, eps=eps).matrix
            assert np.max(np.abs(s_route - s_route_mom)) < 1e-6, (pot.hermitian, family)


def test_smatrix_interaction_free_past_overlap(basis):
    # with the switching envelope the remote past is free: over a window of length 20
    # beyond the horizon, a coupling of 0.2 between the non-degenerate modes 2 and 4
    # leaves mode 2 in place (without the envelope, 1 - |overlap| is 0.027 and the
    # amplitude into mode 4 is 0.23)
    eps = 0.5
    assert basis.energies[4] - basis.energies[2] > 1.0
    vm = np.zeros((basis.size, basis.size))
    vm[2, 4] = vm[4, 2] = 0.2
    v = Hamiltonian(basis, vm, epsilon=eps)
    horizon = np.log(1e8) / eps
    u = ode_evolution(v, -horizon - 20.0, -horizon, 1e-8)
    assert u.diagnostics["steps"] >= 1
    psi = np.eye(basis.size)[2]
    assert abs(np.vdot(psi, u.matrix @ psi)) == pytest.approx(1.0, abs=1e-6)
    assert abs(u.matrix[4, 2]) <= 1e-8


# ---------------------------------------------------------------------------
# the structured block exponential against the dense expm of the whole matrix

# bench/'s PHASE_MULTIPLE: a block may differ from the oracle by 4 phase units,
# one unit being the rounding of the largest free phase, max(|h| max|e|, 1) 2^-52
PHASE_MULTIPLE = 4


def assert_blocks_match_oracle(e, w, c, rate, h, order):
    got = _dyson_blocks(e, w, c, rate, h, order)
    assert got.shape == (order + 1, e.size, e.size)
    unit = max(abs(h) * float(np.max(np.abs(e), initial=0.0)), 1.0) * 2.0 ** -52
    err = np.max(np.abs(got - dense_dyson_blocks(e, w, c, rate, h, order)), axis=(1, 2))
    assert np.all(err <= PHASE_MULTIPLE * unit), err / unit
    return got


def _block_calls(monkeypatch, module, run):
    """The arguments of every block exponential that ``run()`` takes through ``module``."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _dyson_blocks(*args)

    monkeypatch.setattr(module, "_dyson_blocks", spy)
    run()
    monkeypatch.undo()
    return calls


def _real_steps(monkeypatch, tmp_path, config):
    """The block exponentials `braidline dyson` takes under ``config``; for None,
    those of the C08 check (``cross_formalism``) on the default scene."""
    if config is None:
        scene = cli.Scene(cli.load_config(None))
        return _block_calls(monkeypatch, dyson, lambda: checks.run_check("cross_formalism", scene))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = ["dyson", "--config", str(path), "--out", str(tmp_path)]
    return _block_calls(monkeypatch, dyson, lambda: cli.main(argv))


@pytest.mark.parametrize("config, modes, order", [
    ({}, 16, 6),
    (None, 10, 4),
    ({"potential": {"strength": 50}}, 16, 15),
    ({"dyson": {"n_modes": 50}}, 50, 7),
], ids=["dyson_default", "c08", "strength50", "all_50_modes"])
def test_block_exponential_matches_dense_on_real_steps(monkeypatch, tmp_path, config, modes,
                                                       order):
    calls = _real_steps(monkeypatch, tmp_path, config)
    assert {(a[0].size, a[5]) for a in calls} == {(modes, order)}
    # the first, a middle and the last step: every step of a two-step window
    for i in sorted({0, len(calls) // 2, len(calls) - 1}):
        assert_blocks_match_oracle(*calls[i])


def test_block_exponential_matches_dense_for_full_green(monkeypatch, basis, h):
    # the unswitched evolution of the full Green's function, exp(-i H0 dt) U_I: one step
    # on every mode at rate 0
    h0 = replace(h, epsilon=0.0)
    calls = _block_calls(monkeypatch, dyson, lambda: ode_evolution(h0, 0.1, 0.4, 1e-10))
    (e, w, c, rate, dt, order), = calls
    assert (rate, dt, e.size) == (0.0, 0.4 - 0.1, basis.size)
    assert_blocks_match_oracle(e, w, c, rate, dt, order)


@pytest.mark.parametrize("c, rate, step, order, scale", [
    (-1j, 0.3, 2.0, 0, 1.0),    # order 0: the free phases alone
    (-1j, 0.3, 2.0, 4, 1.0),
    (1j, 0.3, 2.0, 4, 1.0),     # the crossed geometry's sign of i
    (-1j, -0.3, -2.0, 4, 1.0),  # a reversed window: h < 0 with rate < 0
    (-1j, 0.3, 2.0, 4, 0.0),    # w = 0
    (-1j, 0.3, 0.0, 4, 1.0),    # h = 0
], ids=["order0", "c=-i", "c=+i", "reversed", "w=0", "h=0"])
def test_block_exponential_edge_cases(c, rate, step, order, scale):
    rng = np.random.default_rng(3)
    e = np.sort(rng.uniform(0.0, 30.0, size=5))
    w = scale * 0.2 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    got = assert_blocks_match_oracle(e, w, c, rate, step, order)
    # block 0 is the exact free evolution; it alone survives w = 0 or h = 0
    assert np.array_equal(got[0], np.diag(np.exp(-1j * step * e)))
    if scale == 0.0 or step == 0.0:
        assert not np.any(got[1:])


@pytest.mark.parametrize("decay", [0.0, 1e-9, 1e-3, 0.5])
def test_block_exponential_one_mode_closed_form(decay):
    # one mode: U = exp(-i e h) exp(c w g) with g = int_0^h exp(-rate tau) dtau, so
    # block k is exp(-i e h) (c w g)^k / k!.  The dense oracle is no reference here:
    # scipy's expm recomputes the superdiagonal of a triangular matrix by the plain
    # divided difference, which cancels when rate h is small and nonzero (4.5e7
    # units off a 40-digit expm at rate h = 1e-9, against 1 unit for this function)
    e, w, h = np.array([7.3]), np.array([[0.4 - 0.2j]]), 1.5
    rate = decay / h
    g = -np.expm1(-decay) / rate if decay else h
    got = _dyson_blocks(e, w, -1j, rate, h, 4)
    want = [np.exp(-1j * e * h) * (-1j * w * g) ** k / math.factorial(k) for k in range(5)]
    unit = abs(h) * e[0] * 2.0 ** -52
    assert np.max(np.abs(got - np.array(want))) <= PHASE_MULTIPLE * unit


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6), order=st.integers(0, 8),
       phase=st.one_of(st.just(0.0), st.floats(1.0, 1e3)), coupling=st.floats(0.0, 1.0),
       decay=st.one_of(st.just(0.0), st.floats(0.5, 2.0)), backward=st.booleans(),
       crossed=st.booleans())
def test_block_exponential_matches_dense_random(seed, m, order, phase, coupling, decay,
                                                backward, crossed):
    # |h| max|e| = phase, |h| |w|_2 = coupling <= 1 and rate * h = decay >= 0, as in an
    # ode_evolution step: x <= 1, and no diagonal block of M grows.  The energies are
    # sorted and span [-phase, phase] / |h|, and phase and decay are 0 or at least
    # 1 and 0.5: the oracle's superdiagonal pairs, (-i e_last, -i e_0 - rate) times h,
    # are then equal or far apart (see the one-mode test above).  A phase unit does
    # not scale with the coupling; at |h| |w|_2 = 2 the oracle itself is 5 units off
    # a 40-digit expm where this function is 2.2 units off
    rng = np.random.default_rng(seed)
    h = -1.5 if backward else 1.5
    e = np.sort(rng.uniform(-1.0, 1.0, size=m))
    e[[0, -1]] = -1.0, 1.0
    e *= phase / abs(h)
    w = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    w *= coupling / (abs(h) * np.linalg.norm(w, 2))
    assert_blocks_match_oracle(e, w, 1j if crossed else -1j, decay / h, h, order)


def test_block_exponential_refuses_non_finite_input(basis, h):
    # a non-finite V is refused by name when H is built; finite entries whose norm
    # overflows need infinitely many steps, which the evolution refuses
    bad = h.v.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"^v must be finite: \(nan\+0j\)$"):
        Hamiltonian(basis, bad, epsilon=SWITCH)
    hb = Hamiltonian(basis, np.full_like(h.v, 1e308), epsilon=SWITCH)
    with pytest.raises(np.linalg.LinAlgError, match="inf needs inf steps"):
        ode_evolution(hb, -1.0, 1.0, 1e-8)
    e, w = basis.energies[:4], h.v[:4, :4]
    with pytest.raises(np.linalg.LinAlgError, match="bound"):
        _dyson_blocks(e, w, -1j, SWITCH, np.inf, 2)
