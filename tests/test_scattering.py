import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from braidline import (
    EvolutionOperator,
    Hamiltonian,
    Potential,
    QContext,
    SMatrix,
    born_radius,
    born_wavefunction,
    braided_line,
    build_hamiltonian_basis,
    build_qexp_basis,
    conjugate_smatrix,
    crossing_transform,
    delta_kernel,
    free_propagator,
    gaussian_potential,
    lippmann_schwinger_solve,
    make_lattice,
    ode_evolution,
    smatrix_from_evolution,
    smatrix_momentum,
    unitarity_defect,
)
from braidline import scattering
from braidline.basis import CoefficientVector
from braidline.checks import cross_formalism_potential
from oracles import dense_smatrix, weighted_product
from braidline.propagator import conjugation_partner
from braidline.scattering import S_FAMILIES, transition_probability_table

Q = 0.9
MASS = 1.0
EPS = 0.05
# the free-part scales of the paper's H, H' and H'': 1, q**-zeta and q**zeta, zeta = -1;
# the basis of s*H0 is replace(basis, energies=s * basis.energies)
SCALES = (1.0, Q, 1.0 / Q)


@pytest.fixture(scope="module")
def ctx():
    return braided_line(Q)


@pytest.fixture(scope="module")
def basis(ctx):
    return build_hamiltonian_basis(make_lattice(Q), MASS, ctx)


@pytest.fixture(scope="module")
def weak_v(basis):
    return gaussian_potential(basis.lattice, strength=0.05, width=1.0, epsilon=EPS)


def test_potential_matrix_is_hermitian(basis, weak_v):
    h = weak_v.on(basis)
    assert h.hermitian
    assert np.max(np.abs(h.v - h.v.conj().T)) < 1e-13


def test_hamiltonian_passthrough(basis):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(basis.size, basis.size))
    m = m + m.T
    mp = Hamiltonian(basis, m, epsilon=EPS)
    assert mp.hermitian
    assert mp.on(basis) is mp
    assert np.max(np.abs(mp.on(basis).v - m)) == 0.0


def test_decomposition_is_never_reused_across_bases(basis, weak_v):
    # a Hamiltonian decomposed on b and handed a scaled basis gives the S-matrix
    # of one built on the scaled basis, bit for bit: the scaled energies differ
    vb = replace(basis, energies=Q * basis.energies)
    h = weak_v.on(basis)
    assert h.eigen is h.eigen  # decomposed once, then held
    for tilde in (False, True):
        got = smatrix_momentum(h, vb, "S2minus", eps=EPS, tilde=tilde)
        ref = smatrix_momentum(weak_v.on(vb), vb, "S2minus", eps=EPS, tilde=tilde)
        assert np.array_equal(got.matrix, ref.matrix), tilde
    moved = h.on(vb)
    assert moved.basis is vb and moved.v is h.v and "eigen" not in vars(moved)
    small = build_hamiltonian_basis(make_lattice(Q, j_min=-5, j_max=5), MASS, basis.ctx)
    with pytest.raises(ValueError, match="mode count"):
        h.on(small)
    with pytest.raises(ValueError, match="mode count"):
        smatrix_momentum(h, small, "S2minus", eps=EPS)


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
    vm = weak_v.on(basis).v
    for s in (1.0, 1.0 / Q):
        vb = replace(basis, energies=s * basis.energies)
        t = lippmann_schwinger_solve(weak_v, vb, energy, EPS)
        rho = born_radius(weak_v, vb, energy, EPS)
        r0 = np.diag(1.0 / (energy - s * basis.energies + 1j * EPS))
        assert np.max(np.abs(t - (vm + vm @ r0 @ t))) < 1e-12
        assert rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(vm @ r0))), rel=1e-12)
        assert 0.0 < rho < 0.5


def test_ls_negative_eps_takes_the_advanced_resolvent(basis, weak_v):
    # T = V + V R0(E - i eps) T, the equation of a -1 family's S-matrix
    energy = 1.0
    t = lippmann_schwinger_solve(weak_v, basis, energy, -EPS)
    vm = weak_v.on(basis).v
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
        Hamiltonian(basis, weak_v.on(basis).v, epsilon=eps)
    with pytest.raises(ValueError, match=named):
        lippmann_schwinger_solve(weak_v, basis, 1.0, eps)
    with pytest.raises(ValueError, match=named):
        born_radius(weak_v, basis, 1.0, eps)
    for tilde in (False, True):
        with pytest.raises(ValueError, match=named):
            smatrix_momentum(weak_v, basis, "S2minus", eps=eps, tilde=tilde)


# library entries that take a lattice parameter, a mass, a time, an energy, a potential
# or incoming amplitudes: (the argument the refusal names, the call)
NON_FINITE_ENTRIES = [
    pytest.param("x0", lambda b, v, x: make_lattice(Q, x0=x), id="x0"),
    pytest.param("mass", lambda b, v, x: build_hamiltonian_basis(b.lattice, x, b.ctx), id="mass"),
    pytest.param("t_source", lambda b, v, x: free_propagator(b, "K1prime", x, 0.7), id="t_source"),
    pytest.param("t_target", lambda b, v, x: free_propagator(b, "K1prime", 0.0, x), id="t_target"),
    pytest.param("energy", lambda b, v, x: born_radius(v, b, x, EPS), id="energy"),
    pytest.param("energy", lambda b, v, x: lippmann_schwinger_solve(v, b, x, EPS),
                 id="ls_energy"),
    pytest.param("energy", lambda b, v, x: lippmann_schwinger_solve(
        v, b, np.where(np.arange(b.size) == 3, x, 1.0), EPS), id="ls_energies"),
    pytest.param("values", lambda b, v, x: Potential(np.full(b.lattice.size, x)), id="values"),
    pytest.param("values", lambda b, v, x: Potential(
        np.where(np.arange(b.lattice.size) == 7, x, 0.5)), id="one_value"),
    pytest.param("strength", lambda b, v, x: gaussian_potential(b.lattice, x), id="strength"),
    pytest.param("center", lambda b, v, x: gaussian_potential(b.lattice, 0.05, center=x),
                 id="center"),
    pytest.param("v", lambda b, v, x: Hamiltonian(b, np.full((b.size, b.size), x)), id="v"),
    pytest.param("v", lambda b, v, x: Hamiltonian(b, np.where(np.eye(b.size), x, 0.0)),
                 id="v_diagonal"),
    pytest.param("values", lambda b, v, x: born_wavefunction(
        CoefficientVector(b, np.full(b.size, x)), v, 2), id="amplitudes"),
    pytest.param("values", lambda b, v, x: CoefficientVector(
        b, np.where(np.arange(b.size) == 3, x, 1.0)), id="one_amplitude"),
    pytest.param("t_from", lambda b, v, x: ode_evolution(v.on(b), x, 1.0, 1e-8), id="t_from"),
    pytest.param("t_to", lambda b, v, x: ode_evolution(v.on(b), -1.0, x, 1e-8), id="t_to"),
    pytest.param("t", lambda b, v, x: v.on(b).at(x), id="at"),  # an all-NaN V_I(t) before
    pytest.param("momentum_grid", lambda b, v, x: build_qexp_basis(b.lattice, b.ctx, [0.5, x], 60),
                 id="momentum_grid"),
    # a NaN S had unitarity defect nan, and a NaN U unitarity drift nan
    pytest.param("matrix", lambda b, v, x: unitarity_defect(
        SMatrix(np.where(np.eye(b.size), x, 0.0), "S2minus")), id="smatrix"),
    pytest.param("matrix", lambda b, v, x: EvolutionOperator(
        np.full((4, 4), x), -1.0, 1.0).unitarity_drift(), id="evolution"),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, call", NON_FINITE_ENTRIES)
def test_non_finite_argument_is_refused_by_name(basis, weak_v, name, call, bad):
    # a ValueError naming the argument, not NaN values, T = V or numpy's own message
    with pytest.raises(ValueError, match=f"^{name} must be .*finite: {bad!r}$"):
        call(basis, weak_v, bad)


def _square(b, x):
    return np.full((b.size, b.size), x)


# finite arguments that warned, gave NaN, were accepted or raised KeyError: (the exception,
# the start of its message, the call)
FINITE_REFUSALS = [
    pytest.param(np.linalg.LinAlgError, r"V = strength \* values overflows in the energy basis",
                 lambda b: Potential(np.full(b.lattice.size, 1e308), strength=10).on(b),
                 id="potential-overflow"),
    pytest.param(ValueError, r"t = 1e\+308 overflows the phase E \* t$",
                 lambda b: Hamiltonian(b, _square(b, 1.0)).at(1e308), id="at-phase"),
    pytest.param(np.linalg.LinAlgError, r"V_I\(t\) overflows at t=1\.0$",
                 lambda b: Hamiltonian(b, _square(b, 1.7e308 + 1.7e308j)).at(1.0), id="at-product"),
    pytest.param(ValueError, "hermitian must be None or a bool: 'yes'$",
                 lambda b: Hamiltonian(b, _square(b, 0.0), hermitian="yes"), id="hermitian"),
    pytest.param(ValueError, "unknown S-matrix family 'nope'$",
                 lambda b: conjugate_smatrix(SMatrix(np.eye(b.size), "nope")), id="family"),
    pytest.param(ValueError, r"matrix must be a square matrix, not of shape \(4, 3\)$",
                 lambda b: unitarity_defect(SMatrix(np.ones((4, 3)), "S2minus")), id="shape"),
    pytest.param(np.linalg.LinAlgError, r"S S\+ - I overflows$",
                 lambda b: unitarity_defect(SMatrix(_square(b, 1e200), "S2minus")),
                 id="unitarity-overflow"),
    pytest.param(np.linalg.LinAlgError, r"U\+ U - I overflows$",
                 lambda b: EvolutionOperator(np.full((4, 4), 1e200), -1.0, 1.0).unitarity_drift(),
                 id="drift-overflow"),
]


@pytest.mark.parametrize("kind, message, call", FINITE_REFUSALS)
def test_finite_argument_out_of_range_is_refused_by_name(basis, kind, message, call):
    with pytest.raises(kind, match=f"^{message}"):
        call(basis)


@pytest.mark.parametrize("family", ["S1plus", "S2minus"])
def test_smatrix_from_a_nan_or_singular_evolution_is_refused(basis, family):
    # a U made NaN after it was built gave a NaN S; a singular U numpy's "Singular matrix"
    h = gaussian_potential(basis.lattice, 0.05, epsilon=0.5).on(basis)
    horizon = math.log(1e8) / 0.5
    u = EvolutionOperator(np.eye(basis.size), -horizon, horizon)
    u.matrix = np.full((basis.size, basis.size), np.nan)
    with pytest.raises(ValueError, match="^matrix must be finite: nan$"):
        smatrix_from_evolution(h, u, family)
    u.matrix = np.zeros((basis.size, basis.size))
    if S_FAMILIES[family][1] > 0:  # S = U itself
        assert not smatrix_from_evolution(h, u, family).matrix.any()
    else:
        with pytest.raises(np.linalg.LinAlgError, match=r"^U\(T, -T\) is singular"):
            smatrix_from_evolution(h, u, family)


# ---------------------------------------------------------------------------
# the construction surface: the exported names the other property tests do not call

# a refusal starts with the argument it names or the quantity that overflows; any other
# message, numpy's own included, fails the test below
NAMED = re.compile(
    r"^((q|x0|j_min|j_max|n|n_trunc|mass|values|strength|width|center|epsilon|v|t|hermitian"
    r"|matrix|momentum_grid)( must | = |=)"
    r"|invalid deformation parameter|canonical G1 context requires 0 < q"
    r"|lattice must have at least|degenerate weight matrix|context shift factor"
    r"|free Hamiltonian has non-finite or subnormal entries: x0=|LAPACK stemr failed"
    r"|\[n\]_q overflows|all requested momenta rejected|q-exponential family is numerically"
    r"|value count must equal|potential values must match|matrix size must match"
    r"|unknown S-matrix family|V = strength \* values overflows|V_I\(t\) overflows"
    r"|S S\+ - I overflows|S\+ S - I overflows|U\+ U - I overflows)")
ODD = [0.0, -0.0, 5e-324, 1e-300, 1e-154, 1e154, 1e300, -1e300, 1.7e308, math.nan, math.inf,
       -math.inf, True, False, 2.5]
SCALARS = st.floats(-10.0, 10.0) | st.sampled_from(ODD)
# each argument of the lattice, the free basis and the q-exponential report: (an
# admissible draw, an odd one).  An index range has at most 25 points per branch
BASIS_ARGS = {
    "q": (st.floats(0.5, 0.99), st.sampled_from(ODD + [0.05, 1.0, 1.0 / Q, 2.0])),
    "x0": (st.floats(0.1, 2.0), st.sampled_from(ODD)),
    "j_min": (st.integers(-12, -1), st.sampled_from([-8000, 1.5, True, False, math.nan])),
    "j_max": (st.integers(0, 12), st.sampled_from([3.0, True, False, math.nan])),
    "mass": (st.floats(0.1, 2.0), st.sampled_from(ODD)),
    "momentum": (st.floats(0.1, 2.0), st.sampled_from(ODD)),
    "n_trunc": (st.just(60), st.sampled_from([1, 0, 2.5, True])),
}


def named_or(call):
    """call's value, or None if it raised a refusal that ``NAMED`` accepts."""
    try:
        return call()
    except (ValueError, np.linalg.LinAlgError) as exc:
        assert NAMED.match(str(exc)), f"{type(exc).__name__}: {exc}"
        return None


def finite(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), odd=st.sets(st.sampled_from(sorted(BASIS_ARGS)), max_size=2),
       entry=SCALARS, one=st.booleans(),
       cplx=st.booleans(), fits=st.booleans(), strength=SCALARS, width=SCALARS, rate=SCALARS,
       t=SCALARS, hermitian=st.sampled_from([None, True, False, np.True_, "yes", 1]),
       family=st.sampled_from(sorted(S_FAMILIES) + ["nope"]), k=st.integers(1, 4))
def test_construction_surface_returns_finite_values_or_refuses_by_name(
        basis, data, odd, entry, one, cplx, fits, strength, width, rate, t, hermitian, family,
        k):
    # contexts, lattices and free bases with up to two of their arguments odd: huge, tiny,
    # non-finite, bool or non-integer; then potentials, Hamiltonians, S-matrices and
    # evolutions from finite, huge, tiny, non-finite and bool scalars and small arrays of
    # 0.5 with one entry or all of them drawn, real or complex, of the right shape or one
    # column too many.  Each call returns finite values or refuses by name
    q, x0, j_min, j_max, mass, momentum, n_trunc = (
        data.draw(BASIS_ARGS[name][name in odd], label=name)
        for name in ("q", "x0", "j_min", "j_max", "mass", "momentum", "n_trunc"))

    def array(*shape):
        a = np.full(shape[:-1] + (shape[-1] + (not fits),), 0.5, complex if cplx else float)
        value = complex(entry, entry) if cplx else entry
        a.flat[:1 if one else None] = value
        return a

    ctx = named_or(lambda: QContext(q))
    named_or(lambda: braided_line(q))
    if ctx is not None:
        crossed = named_or(lambda: crossing_transform(ctx))
        assert crossed is None or 0.0 < crossed.q < math.inf
    lattice = named_or(lambda: make_lattice(q, x0, j_min, j_max))
    b = None
    if lattice is not None and lattice.size <= 50:  # a drawn -8000 can pass at q near 1
        assert finite(lattice.points, lattice.weights)
        b = ctx and named_or(lambda: build_hamiltonian_basis(lattice, mass, ctx))
    if b:
        assert finite(b.energies, b.momenta, b.vectors, delta_kernel(b))
        report = named_or(lambda: build_qexp_basis(lattice, ctx, [0.5, momentum], n_trunc))
        assert report is None or math.isfinite(report["gram_defect"])
    else:  # the default basis carries the rest
        b = basis
    n = b.size
    phi = named_or(lambda: CoefficientVector(b, array(n)))
    assert phi is None or finite(phi.values)
    for pot in (named_or(lambda: Potential(array(b.lattice.size), rate, strength)),
                named_or(lambda: gaussian_potential(b.lattice, strength, width, entry, rate))):
        if pot is not None:
            h = named_or(lambda: pot.on(b))
            assert finite(pot.values) and (h is None or finite(h.v))
    h = named_or(lambda: Hamiltonian(b, array(n, n), rate, hermitian))
    if h is not None:
        assert h.on(b) is h and isinstance(h.hermitian, (bool, np.bool_))
        vi = named_or(lambda: h.at(t))
        assert vi is None or finite(vi)
    s = named_or(lambda: SMatrix(array(k, k), family))
    if s is not None:
        defect = named_or(lambda: unitarity_defect(s))
        assert finite(conjugate_smatrix(s).matrix) and (defect is None or math.isfinite(defect))
    u = named_or(lambda: EvolutionOperator(array(k, k), -1.0, 1.0))
    if u is not None:
        drift = named_or(u.unitarity_drift)
        assert drift is None or math.isfinite(drift)


@pytest.mark.parametrize("order", [2.5, 2.0, -1, np.float64(1.0), "2", None, True])
def test_born_wavefunction_refuses_a_bad_order_by_name(basis, weak_v, order):
    # an order that is not a nonnegative integer: a ValueError naming it, not range's
    # TypeError; a bool is no integer here, as in make_lattice (True was taken as 1)
    phi = CoefficientVector(basis, np.eye(basis.size)[6])
    named = re.escape(repr(order))
    with pytest.raises(ValueError, match=f"^order must be an integer >= 0: {named}$"):
        born_wavefunction(phi, weak_v, order)


def test_overflowing_lag_is_refused_by_name(basis):
    # two finite times whose difference overflows: a ValueError naming the lag, not
    # exp(-iE inf), a NaN kernel
    for t_source, t_target in ((-1e308, 1e308), (1e308, -1e308)):
        with pytest.raises(ValueError, match=r"^t_target - t_source must be finite: -?inf$"):
            free_propagator(basis, "K1prime", t_source, t_target)
    big = np.float64(1.7e308)
    with pytest.raises(ValueError, match="^t_target - t_source"):
        free_propagator(basis, "K1prime", -big, big)


def test_ls_reports_singular_system(basis):
    # a resonant rank-one potential drives I - V R0 singular
    energy = float(basis.energies[8])
    vm = np.zeros((basis.size, basis.size), dtype=complex)
    vm[8, 8] = 1j * EPS  # cancels the +i eps of the resolvent exactly
    v = Hamiltonian(basis, vm, epsilon=EPS)
    with pytest.raises(np.linalg.LinAlgError):
        lippmann_schwinger_solve(v, basis, energy, EPS)
    # a coupling inside the exactly degenerate pair (0, 1) makes a Jordan block,
    # whose eigenbasis the solve refuses
    vm = np.zeros((basis.size, basis.size), dtype=complex)
    vm[0, 1] = 1e-3
    with pytest.raises(np.linalg.LinAlgError, match="eigenbasis"):
        lippmann_schwinger_solve(Hamiltonian(basis, vm, epsilon=EPS), basis, energy, EPS)


def test_tilde_route_reports_near_singular_system(basis):
    # the advanced system I - conj(V) R0(E - i eps) of a +1 family's tilde
    # partner, made near-singular by the resonant potential detuned by 1e-14;
    # a plain -1 family solves the same system with conj(V) in place of V
    vm = np.zeros((basis.size, basis.size), dtype=complex)
    vm[8, 8] = 1j * EPS * (1.0 + 1e-14)
    with pytest.raises(np.linalg.LinAlgError):
        smatrix_momentum(Hamiltonian(basis, vm, epsilon=EPS), basis, "S1plusPrime", eps=EPS,
                         tilde=True)
    with pytest.raises(np.linalg.LinAlgError):
        smatrix_momentum(Hamiltonian(basis, np.conj(vm), epsilon=EPS), basis, "S2minus", eps=EPS)


def test_born_geometric_convergence(basis, weak_v):
    # the Born iteration converges geometrically at rate rho
    phi = np.zeros(basis.size, dtype=complex)
    phi[6] = 1.0
    inc = CoefficientVector(basis, phi)
    exact_order = 24
    ref = born_wavefunction(inc, weak_v, exact_order).values
    errs = []
    for order in (1, 2, 3, 4):
        got = born_wavefunction(inc, weak_v, order).values
        errs.append(np.max(np.abs(got - ref)))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios > 2.0)


def test_born_first_order_closed_form(basis, weak_v):
    # order 1: c_p = V_{pq} / (E_q - E_p + i eps) for incoming mode q, on H and H''
    jq = 6
    phi = np.zeros(basis.size, dtype=complex)
    phi[jq] = 1.0
    vm = weak_v.on(basis).v
    for s in (1.0, 1.0 / Q):
        vb = replace(basis, energies=s * basis.energies)
        got = born_wavefunction(CoefficientVector(vb, phi), weak_v, 1).values
        e = vb.energies
        expect = phi + vm[:, jq] / (e[jq] - e + 1j * EPS)
        assert np.max(np.abs(got - expect)) < 1e-13, s


def test_born_order_zero_free_phase(basis, weak_v):
    # order 0 is the incoming state itself, on H and H''
    phi = np.zeros(basis.size, dtype=complex)
    phi[4] = 1.0
    for s in (1.0, 1.0 / Q):
        inc = CoefficientVector(replace(basis, energies=s * basis.energies), phi)
        out = born_wavefunction(inc, weak_v, 0)
        assert out.basis is inc.basis
        assert np.array_equal(out.values, phi)


def test_born_series_is_linear_in_the_incoming_state(basis, weak_v):
    # each incoming mode iterates with its own resolvent R0(E_q), and the parts add
    single = [born_wavefunction(CoefficientVector(basis, np.eye(basis.size)[q]), weak_v,
                                3).values for q in (4, 8)]
    phi = np.eye(basis.size)[4] + np.eye(basis.size)[8]
    both = born_wavefunction(CoefficientVector(basis, phi), weak_v, 3)
    assert np.max(np.abs(both.values - single[0] - single[1])) < 1e-13


def test_born_requires_eps_for_positive_order(basis):
    v = gaussian_potential(basis.lattice, strength=0.05, epsilon=0.0)
    phi = CoefficientVector(basis, np.eye(basis.size)[0])
    with pytest.raises(ValueError):
        born_wavefunction(phi, v, 2)


# ---------------------------------------------------------------------------
# interacting Green's functions, from the one interacting evolution

def full_green(v, basis, dt):
    """exp(-i (H0 + V) dt) in the energy basis of ``basis``, V held constant (eps = 0):
    the free phase times the interaction-picture evolution, exp(-i H0 dt) U_I(dt, 0)."""
    h = replace(v.on(basis), epsilon=0.0)
    return np.exp(-1j * basis.energies * dt)[:, None] * ode_evolution(h, 0.0, dt, 1e-12).matrix


def test_full_green_zero_potential_is_free(basis):
    v0 = Potential(np.zeros(basis.lattice.size), epsilon=EPS)
    u = basis.vectors
    g = u @ full_green(v0, basis, 0.6) @ u.T
    k = free_propagator(basis, "K1prime", 0.0, 0.6)
    assert np.max(np.abs(g - k.matrix)) < 1e-10


@pytest.mark.parametrize("dt", [0.4, 0.7, 3.0])
@pytest.mark.parametrize("hermitian", [True, False], ids=["weak_v", "gain"])
def test_full_green_matches_expm(basis, weak_v, hermitian, dt):
    # the interacting evolution of s*H0 + V against the matrix exponential
    v = weak_v if hermitian else Potential(0.05j * np.exp(-basis.lattice.points ** 2),
                                           epsilon=EPS)
    for s in SCALES:
        vb = replace(basis, energies=s * basis.energies)
        want = expm(-1j * (np.diag(vb.energies) + v.on(basis).v) * dt)
        assert np.max(np.abs(full_green(v, vb, dt) - want)) < 1e-10, s


def test_full_green_composition(basis, weak_v):
    # the interacting kernel on the lattice composes under the weighted product
    # like the free one, though it couples the two branches (so it is no
    # ``PropagatorKernel``, which stores one positive-branch block)
    u, w = basis.vectors, basis.weights

    def kernel(dt):
        return u @ full_green(weak_v, basis, dt) @ u.T

    direct = kernel(0.9)
    assert direct[:basis.size // 2, basis.size // 2:].any()
    assert np.max(np.abs(weighted_product(kernel(0.5), w, kernel(0.4)) - direct)) < 1e-10


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


def test_hamiltonian_refuses_negative_epsilon(basis):
    # a negative rate would switch on a growing envelope exp(+|eps t|); a
    # non-finite one is refused in test_non_finite_eps_is_refused
    with pytest.raises(ValueError, match="epsilon"):
        Hamiltonian(basis, np.eye(basis.size), epsilon=-0.1)


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
    assert not va.on(basis).hermitian
    s = smatrix_momentum(va, basis, "S2minus", eps=EPS)
    assert unitarity_defect(s) > 1e-2


def test_transition_probabilities_real_nonnegative(basis, weak_v):
    s = smatrix_momentum(weak_v, basis, "S2minus", eps=EPS)
    table = transition_probability_table(s)
    assert np.all(np.isreal(table))
    assert np.all(table >= 0.0)
    assert table[3, 7] == pytest.approx(abs(s.matrix[3, 7]) ** 2)


def test_transition_probabilities_zero_potential(basis):
    v0 = Potential(np.zeros(basis.lattice.size), epsilon=EPS)
    table = transition_probability_table(smatrix_momentum(v0, basis, "S2minus", eps=EPS))
    assert table[2, 5] == 0.0
    assert table[4, 4] == 1.0


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
    vm, e = v.on(basis).v, basis.energies
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
    for eps, scale in itertools.product((0.1, 0.01), (1.0, Q)):
        vb = replace(b, energies=scale * b.energies)
        res, bound, diagnostics = on_shell_residuals(v, vb, eps)
        assert diagnostics["direct_columns"] == 0
        assert np.all(res <= bound)
        for family, tilde in itertools.product(ONE_FAMILY_PER_SIGN, (False, True)):
            s = smatrix_momentum(v, vb, family, eps=eps, tilde=tilde)
            assert s.diagnostics["max_residual"] <= bound
            ref = dense_smatrix(v, vb, eps, S_FAMILIES[family][1], tilde)
            assert np.max(np.abs(s.matrix - ref)) <= 1e-12, (eps, scale, family, tilde)


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
        ref = dense_smatrix(weak_v, basis, EPS, S_FAMILIES[family][1], tilde)
        assert np.max(np.abs(s.matrix - ref)) <= 1e-12, (family, tilde)


def test_smatrix_diagnostics(basis, weak_v):
    s = smatrix_momentum(weak_v, basis, "S2minus", eps=EPS)
    d = s.diagnostics
    assert set(d) == {"condition_bound", "refinement_steps", "max_residual",
                      "direct_columns", "parity_sectors"}
    assert d["parity_sectors"] is True  # the Gaussian at centre 0 is mirror-even
    assert 1.0 <= d["condition_bound"] <= scattering.COND_LIMIT
    assert conjugate_smatrix(s).diagnostics == d
