"""Parity sectors: a mirror-even H is solved once at half size and placed on both parities.

Every comparison is against the general path, reached by patching the two decisions
(``WaveBasis.pair_signs`` and ``Hamiltonian.sector``) to None, so V is the full
weighted product and every solve runs on all modes.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from braidline import (
    Hamiltonian,
    Potential,
    born_radius,
    born_wavefunction,
    braided_line,
    build_hamiltonian_basis,
    gaussian_potential,
    lippmann_schwinger_solve,
    make_lattice,
    ode_evolution,
    smatrix_from_evolution,
    smatrix_momentum,
)
from braidline import cli, dyson, scattering
from braidline.basis import CoefficientVector, WaveBasis
from braidline.checks import CHECK_EPS, cross_formalism_potential
from braidline.scattering import S_FAMILIES

Q = 0.9
MASS = 1.0
REL = 1e-14  # sector against general path, relative to the largest entry
# a time sign +1 and a time sign -1 family: the retarded and advanced solves
FAMILIES = ("S1plusPrime", "S2minus")
SIZES = pytest.mark.parametrize("j_max", [12, 50, 100], ids=["n50", "n202", "n402"])


def free_basis(j_max):
    return build_hamiltonian_basis(make_lattice(Q, j_min=-j_max, j_max=j_max), MASS,
                                   braided_line(Q))


def potentials(b, strength=0.05):
    """The default Gaussian and the non-Hermitian negative control, both at centre 0."""
    return {"hermitian": gaussian_potential(b.lattice, strength, epsilon=CHECK_EPS),
            "gain": Potential(1j * strength * np.exp(-b.lattice.points ** 2), epsilon=CHECK_EPS)}


@pytest.fixture
def general(monkeypatch):
    """Calls ``fn()`` on the general path: no basis is paired and no H splits."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(WaveBasis, "pair_signs", property(lambda self: None))
            m.setattr(scattering.Hamiltonian, "sector", property(lambda self: None))
            return fn()
    return run


def smatrix_gap(general, v, b, family, tilde):
    """max|S_sector - S_general| / max|S_general|, with both S-matrices."""
    got = smatrix_momentum(v, b, family, CHECK_EPS, tilde)
    ref = general(lambda: smatrix_momentum(v, b, family, CHECK_EPS, tilde))
    assert got.diagnostics["parity_sectors"] and not ref.diagnostics["parity_sectors"]
    return float(np.max(np.abs(got.matrix - ref.matrix)) / np.max(np.abs(ref.matrix))), got, ref


def amplifying(shape, family):
    """Whether the solve's resolvent sits on the side of the spectrum of the gain V: z = E +
    i eps on V, or the tilde partner's E - i eps on conj(V), whose spectrum is mirrored."""
    return shape == "gain" and S_FAMILIES[family][1] > 0


@SIZES
def test_smatrix_sector_matches_general_path(general, monkeypatch, j_max):
    # every S-matrix, plain and tilde, of both time signs, agrees to 1e-14 max|S| (2.5e-15
    # at most measured).  Both solves are refined to 16 ulps, not 64, so the comparison
    # sees the split and not where each refinement happens to stop: at 64 ulps the N=402
    # Gaussian reads 1.25e-14 with two BLAS threads, as far as the general path is then
    # from the dense per-column solve (1.28e-14).  The one exception is the gain
    # potential's amplifying solve, whose S reaches 6e4 (N=202): there both paths are
    # limited by the general path's condition bound (1e7), and they agree within it.  At
    # N=402 that solve is not run: its general path sends 228 columns to the direct solve
    # (10 s)
    monkeypatch.setattr(scattering, "RESIDUAL_ULPS", 16)
    b = free_basis(j_max)
    for (shape, v), family, tilde in itertools.product(potentials(b).items(), FAMILIES,
                                                       (False, True)):
        if amplifying(shape, family) and b.size == 402:
            continue
        gap, got, ref = smatrix_gap(general, v, b, family, tilde)
        if amplifying(shape, family) and b.size > 50:
            bound = ref.diagnostics["condition_bound"]
            assert bound > 1e6 and gap <= bound * np.finfo(float).eps, (shape, family, tilde)
        else:
            assert gap <= REL, (shape, family, tilde, gap)
        # the placed S has exact zeros between the parities
        assert not got.matrix[0::2, 1::2].any() and not got.matrix[1::2, 0::2].any()


@SIZES
def test_born_series_and_radius_sector_match_general_path(general, j_max):
    # a weak V (rho < 1) on incoming modes of both parities where V acts: the pair of the
    # largest diagonal entry of V and one more even mode
    b = free_basis(j_max)
    for shape, v in potentials(b, 0.003).items():
        diag = np.abs(np.diag(general(lambda: v.on(b).v)))
        jq = 2 * int(np.argmax(diag[0::2]))
        amps = np.zeros(b.size, dtype=complex)
        amps[[jq, jq + 1, (jq + 4) % b.size]] = 1.0, 0.5, -0.25j
        phi, energy = CoefficientVector(b, amps), float(b.energies[jq])
        for order in (1, 4):
            got = born_wavefunction(phi, v, order).values
            ref = general(lambda: born_wavefunction(phi, v, order).values)
            assert np.max(np.abs(got - ref)) <= REL * np.max(np.abs(ref)), (shape, order)
        rho = born_radius(v, b, energy, CHECK_EPS)
        assert rho == pytest.approx(general(lambda: born_radius(v, b, energy, CHECK_EPS)),
                                    rel=REL, abs=0.0)
        diagnostics = {}
        t = lippmann_schwinger_solve(v, b, energy, CHECK_EPS, diagnostics)
        ref = general(lambda: lippmann_schwinger_solve(v, b, energy, CHECK_EPS))
        assert np.max(np.abs(t - ref)) <= REL * np.max(np.abs(ref)), shape
        assert diagnostics["parity_sectors"] is True


@pytest.mark.parametrize("j_max", [12, 50], ids=["n50", "n202"])
def test_evolution_sector_matches_general_path(general, j_max):
    # the dyson scene: V on the lowest n_modes, eps = 0.5; an even n_modes keeps each
    # +-p pair whole and splits, an odd one cuts a pair and takes the general path
    b = free_basis(j_max)
    vm = gaussian_potential(b.lattice, 0.05).on(b).v
    horizon = float(np.log(1e8) / 0.5)
    for n_modes in (16, 15):
        block = np.zeros_like(vm)
        block[:n_modes, :n_modes] = vm[:n_modes, :n_modes]
        h = Hamiltonian(b, block, epsilon=0.5)
        u = ode_evolution(h, -horizon, horizon, 1e-8)
        ref = general(lambda: ode_evolution(Hamiltonian(b, block, epsilon=0.5),
                                            -horizon, horizon, 1e-8))
        assert u.diagnostics["parity_sectors"] is (n_modes % 2 == 0)
        assert u.diagnostics["coupled_modes"] == (n_modes // 2 if n_modes % 2 == 0
                                                  else n_modes)
        assert np.max(np.abs(u.matrix - ref.matrix)) <= REL * np.max(np.abs(ref.matrix))
        s = smatrix_from_evolution(h, u, "S2minus")
        assert s.diagnostics["parity_sectors"] is u.diagnostics["parity_sectors"]


@pytest.mark.parametrize("shape", ["hermitian", "gain"])
@pytest.mark.parametrize("j_max", [12, 100], ids=["n50", "n402"])
def test_eigen_of_a_sector_is_placed_on_both_parities(shape, j_max):
    # the half's decomposition on the even modes, S W S on the odd ones, each eigenvalue
    # twice; W diag(lam) W^-1 is H to 1e-14 of the largest eigenvalue (5e-12 of 1.7e3 at
    # N=50 and 2.1e-4 of 2e11 at N=402 measured).  At N=402 the pair signs are mixed
    b = free_basis(j_max)
    h = potentials(b)[shape].on(b)
    half, s = h.sector
    assert np.array_equal(s, b.pair_signs) or np.array_equal(s, np.ones_like(s))
    assert half.basis.size == b.size // 2 and half.hermitian is h.hermitian
    lam, w, w_inv, kappa = h.eigen
    assert np.array_equal(lam, np.repeat(half.eigen[0], 2)) and kappa == half.eigen[3]
    for full, part in ((w, half.eigen[1]), (w_inv, half.eigen[2])):
        assert np.array_equal(full[0::2, 0::2], part)
        assert np.array_equal(full[1::2, 1::2], s[:, None] * part * s)
        assert not full[0::2, 1::2].any() and not full[1::2, 0::2].any()
    err = np.max(np.abs(w @ (lam[:, None] * w_inv) - h.matrix))
    assert err <= 1e-14 * np.max(np.abs(lam))


def test_sector_decision_is_exact():
    # decided bit for bit: an H given as a matrix splits when its odd block is the even one
    # or D V_ee D, and not when one entry is an ulp off or couples the parities
    b = free_basis(100)
    d = b.pair_signs
    rng = np.random.default_rng(3)
    a = rng.normal(size=(b.size // 2,) * 2)
    even = a + a.T
    for signs in (np.ones_like(d), d):
        vm = np.zeros((b.size, b.size))
        vm[0::2, 0::2], vm[1::2, 1::2] = even, signs[:, None] * even * signs
        half, s = Hamiltonian(b, vm).sector
        assert np.array_equal(s, signs) and np.array_equal(half.v, even)
        for i, j in ((5, 5), (5, 8), (4, 9)):
            broken = vm.copy()
            broken[i, j] = np.nextafter(broken[i, j], np.inf)
            assert Hamiltonian(b, broken).sector is None, (i, j)
    # two equal pair energies are part of the decision
    unequal = dataclasses.replace(b, energies=b.energies + np.tile([0.0, 1e-9], b.size // 2))
    assert Hamiltonian(unequal, vm).sector is None


def test_broken_mirror_and_other_scenes_take_the_general_path():
    b = free_basis(12)
    values = np.exp(-b.lattice.points ** 2 / 2.0)
    values[b.size // 2 + 3] = np.nextafter(values[b.size // 2 + 3], np.inf)  # one ulp
    scenes = {
        "one_ulp": Potential(values, epsilon=CHECK_EPS, strength=0.05),
        "centre_1e-3": gaussian_potential(b.lattice, 0.05, center=1e-3, epsilon=CHECK_EPS),
        "cross_formalism": cross_formalism_potential(b),
    }
    for name, v in scenes.items():
        h = v.on(b)
        assert h.sector is None, name
        assert smatrix_momentum(h, b, "S2minus", CHECK_EPS).diagnostics["parity_sectors"] is False
    assert scenes["one_ulp"].on(b).v[0::2, 1::2].any()
    # the point shape, and a basis with one mode zeroed (C04's holed basis), is not paired
    cfg = cli.load_config(None)
    cfg["potential"]["shape"] = "point"
    assert cli.build_potential(cfg, b.lattice).on(b).sector is None
    vectors = b.vectors.copy()
    vectors[:, 7] = 0.0
    holed = dataclasses.replace(b, vectors=vectors)
    assert not holed.paired
    assert gaussian_potential(b.lattice, 0.05, epsilon=CHECK_EPS).on(holed).sector is None
    # and the default scene splits, with V exactly zero between the parities
    h = cli.Scene(cli.load_config(None)).h
    assert h.sector is not None
    assert not h.v[0::2, 1::2].any() and not h.v[1::2, 0::2].any()


# ---------------------------------------------------------------------------
# mutants of the sector path: each one makes the sector-vs-general comparison fail

def _no_factor_two(orig):
    return lambda p, wv: 0.5 * orig(p, wv)


def _odd_unplaced(block, signs):
    out = np.zeros((2 * len(block),) * 2, dtype=block.dtype)
    out[0::2, 0::2] = block
    return out


def _wrong_sign(block, signs):
    out = np.zeros((2 * len(block),) * 2, dtype=block.dtype)
    out[0::2, 0::2] = block
    out[1::2, 1::2] = signs[:, None] * block * -signs
    return out


@pytest.mark.parametrize("mutant, low", [
    ("no_factor_two", 0.6),
    ("odd_unplaced", 0.99),
    ("wrong_sign", 1.99),
])
@pytest.mark.parametrize("j_max", [12, 100], ids=["n50", "n402"])
def test_sector_mutants_fail_the_comparison(general, monkeypatch, mutant, low, j_max):
    # the gap is at least `low`, against 1e-14 unmutated: a halved V moves S by 0.62
    # (N=50) and 0.63 (N=402) of max|S|, an unplaced odd sector drops its identity (gap
    # 1.0) and the wrong sign flips it (gap 2.0)
    b = free_basis(j_max)
    v = potentials(b)["hermitian"]
    h = v.on(b)  # V placed before any mutant: only the solved blocks are misplaced
    subject = v if mutant == "no_factor_two" else h
    if mutant == "no_factor_two":
        monkeypatch.setattr(scattering, "half_line_v", _no_factor_two(scattering.half_line_v))
    else:
        patch = _odd_unplaced if mutant == "odd_unplaced" else _wrong_sign
        monkeypatch.setattr(scattering, "_both_parities", patch)
        monkeypatch.setattr(dyson, "_both_parities", patch)
    gap, _, _ = smatrix_gap(general, subject, b, "S2minus", False)
    assert gap >= low, gap
    if mutant != "no_factor_two":  # the evolution is placed by the same helper
        block = np.zeros_like(h.v)
        block[:16, :16] = h.v[:16, :16]
        u = ode_evolution(Hamiltonian(b, block, epsilon=0.5), -1.0, 1.0, 1e-8).matrix
        ref = general(lambda: ode_evolution(Hamiltonian(b, block, epsilon=0.5), -1.0, 1.0,
                                            1e-8).matrix)
        assert np.max(np.abs(u - ref)) >= low
