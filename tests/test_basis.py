from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from braidline import (
    braided_line,
    build_hamiltonian_basis,
    build_qexp_basis,
    crossing_transform,
    delta_kernel,
    free_propagator,
    make_lattice,
)
from braidline import basis as basis_module
from braidline.basis import WaveBasis, half_line_hamiltonian
from braidline.cli import export_basis
import oracles
from oracles import SPECIAL_FLOATS, derivative_matrix

Q = 0.9
MASS = 1.0


@pytest.fixture(scope="module")
def ctx():
    return braided_line(Q)


@pytest.fixture(scope="module")
def lattice():
    return make_lattice(Q)


@pytest.fixture(scope="module")
def basis(lattice, ctx):
    return build_hamiltonian_basis(lattice, MASS, ctx)


def test_gram_is_identity(basis):
    gram = basis.gram()
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-12


def test_completeness_kernel(basis):
    # Delta @ diag(w) acts as the identity on lattice functions
    delta = delta_kernel(basis)
    resolved = delta * basis.weights[None, :]
    assert np.max(np.abs(resolved - np.eye(basis.size))) < 1e-12


# N = 50 keeps its absolute bound.  At N = 802 the entries of H0 u reach
# Emax max|u| ~ 1e7, and the dense path this basis replaced read 8.4e-9 there.
@pytest.mark.parametrize("q, j_max, bound", [(Q, 12, 1e-9), (0.99, 200, 1e-7)],
                         ids=["n50", "n802"])
def test_eigenvalue_residual(q, j_max, bound):
    # the tridiagonal half-line basis against the dense path it replaced
    ctx = braided_line(q)
    lattice = make_lattice(q, j_min=-j_max, j_max=j_max)
    basis = build_hamiltonian_basis(lattice, MASS, ctx)
    d = derivative_matrix(lattice, ctx)
    w = basis.weights
    # H0 = D^dag D / 2m with the weighted adjoint
    h = (d.T * w[None, :]) @ d / w[:, None] / (2.0 * MASS)
    res = h @ basis.vectors - basis.vectors * basis.energies[None, :]
    assert np.max(np.abs(res)) < bound
    # the weight-symmetrised H0 and its eigenpairs, relative to the top energy
    sw = np.sqrt(w)
    b = (sw[:, None] * d) / sw[None, :]
    h_sym = b.T @ b / (2.0 * MASS)
    e_max = np.max(basis.energies)
    sym_vecs = sw[:, None] * basis.vectors
    sym_res = h_sym @ sym_vecs - sym_vecs * basis.energies[None, :]
    assert np.max(np.abs(sym_res)) <= 1e-13 * e_max
    dense = np.linalg.eigvalsh(h_sym)
    assert np.max(np.abs(np.sort(basis.energies) - dense)) <= 1e-12 * e_max
    assert np.array_equal(basis.energies[0::2], basis.energies[1::2])


def test_energies_nonnegative_and_sorted_in_pairs(basis):
    assert np.all(basis.energies >= -1e-14)
    evens = basis.energies[0::2]
    odds = basis.energies[1::2]
    assert np.all(np.diff(evens) > 0)
    assert np.all(np.diff(odds) > 0)


def test_momentum_labels(basis):
    assert np.allclose(np.abs(basis.momenta), np.sqrt(2 * MASS * basis.energies))
    assert np.all(basis.momenta[0::2] >= 0)
    assert np.all(basis.momenta[1::2] <= 0)
    assert np.all(basis.parity[0::2] == 1)
    assert np.all(basis.parity[1::2] == -1)


def test_parity_of_vectors(basis):
    flipped = basis.vectors[::-1, :]
    assert np.max(np.abs(flipped - basis.parity[None, :] * basis.vectors)) < 1e-12


def test_momentum_flip_permutation(basis):
    # modes come in +-p pairs of one energy: p -> -p swaps within each pair
    assert np.array_equal(basis.momenta[1::2], -basis.momenta[0::2])
    assert np.array_equal(basis.energies[1::2], basis.energies[0::2])


def project(f, basis):
    """c_p = <u_p, f> under the Jackson weights."""
    return basis.vectors.T @ (basis.weights * f)


def test_project_expand_roundtrip(basis):
    rng = np.random.default_rng(11)
    f = rng.normal(size=50) + 1j * rng.normal(size=50)
    back = basis.vectors @ project(f, basis)
    assert np.max(np.abs(back - f)) < 1e-11


def test_parseval(basis):
    rng = np.random.default_rng(12)
    f = rng.normal(size=50) + 1j * rng.normal(size=50)
    norm_x = np.sum(basis.weights * np.abs(f) ** 2)
    norm_p = np.sum(np.abs(project(f, basis)) ** 2)
    assert norm_x == pytest.approx(norm_p, rel=1e-12)


def test_expand_attaches_energy_phase(basis):
    # the free kernel evolves a mode by its energy phase alone
    t = 0.37
    k = free_propagator(basis, "K1prime", 0.0, t).matrix
    f = k @ (basis.weights * basis.vectors[:, 4])
    expect = basis.vectors[:, 4] * np.exp(-1j * basis.energies[4] * t)
    assert np.max(np.abs(f - expect)) < 1e-13


def test_crossed_basis_same_spectrum(lattice, ctx, basis):
    c2 = crossing_transform(ctx)
    lat2 = make_lattice(c2.q)
    b2 = build_hamiltonian_basis(lat2, MASS, c2)
    assert np.max(np.abs(np.sort(b2.energies) - np.sort(basis.energies))) < 1e-10


@pytest.mark.parametrize("crossed", [False, True], ids=["G1", "G2"])
@pytest.mark.parametrize("j_max", [2, 12, 50, 100, 200])
@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
def test_every_built_basis_is_paired(q, j_max, crossed):
    # on the positive branch the odd mode of each +-p pair is its even mode times one
    # sign, bit for bit, (Jv, +-v)/sqrt(2), at every deformation, size and geometry
    c = crossing_transform(braided_line(q)) if crossed else braided_line(q)
    b = build_hamiltonian_basis(make_lattice(c.q, j_min=-j_max, j_max=j_max), MASS, c)
    assert b.paired


def test_basis_fields_cannot_be_rebound(basis):
    # the pairing is decided once per basis, so no field may change under it
    # (dataclasses.replace builds a new basis, which decides afresh)
    with pytest.raises(FrozenInstanceError):
        basis.vectors = basis.vectors.copy()


def test_wave_basis_refuses_complex_vectors(basis):
    # the free modes are real, decided once where a basis is made: a complex dtype is
    # refused even with a zero imaginary part, and dataclasses.replace checks afresh
    with pytest.raises(ValueError, match="vectors must be real"):
        WaveBasis(basis.ctx, basis.lattice, basis.mass, basis.energies, basis.momenta,
                  basis.vectors + 1e-3j, basis.parity)
    with pytest.raises(ValueError, match="vectors must be real, not complex128"):
        replace(basis, vectors=basis.vectors.astype(complex))


def test_build_rejects_degenerate_input(lattice, ctx):
    with pytest.raises(ValueError):
        build_hamiltonian_basis(lattice, -1.0, ctx)
    tiny = make_lattice(Q, j_min=0, j_max=0)
    with pytest.raises(ValueError):
        build_hamiltonian_basis(tiny, MASS, ctx)


class StemrSpy:
    """SciPy's LAPACK extension, recording what each ``dstemr`` call returns."""

    def __init__(self, flapack):
        self.dstemr_lwork, self._dstemr, self.results = flapack.dstemr_lwork, flapack.dstemr, []

    def dstemr(self, *args, **kwargs):
        self.results.append(self._dstemr(*args, **kwargs))
        return self.results[-1]


@pytest.mark.parametrize("q, j_min, j_max, crossed", [
    (Q, -2, 2, False), (Q, -12, 12, False), (Q, -25, 25, False),
    (0.99, -50, 50, False), (0.99, -50, 50, True),
    (0.99, -200, 200, False), (0.99, -200, 200, True),
    (0.25, -30, 30, False),
], ids=["q0.9-n10", "q0.9-n50", "q0.9-n102", "q0.99-n202", "q0.99-n202-crossed",
        "q0.99-n802", "q0.99-n802-crossed", "q0.25-graded-n122"])
def test_stemr_matches_eigh_tridiagonal_bitwise(monkeypatch, q, j_min, j_max, crossed):
    # the direct dstemr call against the SciPy wrapper it replaces, bit for bit
    c = crossing_transform(braided_line(q)) if crossed else braided_line(q)
    lattice = make_lattice(c.q, j_min=j_min, j_max=j_max)
    spy = StemrSpy(basis_module._FLAPACK)
    monkeypatch.setattr(basis_module, "_FLAPACK", spy)
    b = build_hamiltonian_basis(lattice, MASS, c)
    evals, vecs = eigh_tridiagonal(*half_line_hamiltonian(lattice, MASS, c),
                                   lapack_driver="stemr")
    assert lattice.size == 2 * (j_max - j_min + 1) and len(spy.results) == 1
    m, w, v, info = spy.results[0]
    assert (m, info) == (evals.size, 0)
    assert np.array_equal(w, evals) and np.array_equal(v, vecs)
    assert np.array_equal(b.energies, np.repeat(evals, 2))


def test_stemr_refusals_match_eigh_tridiagonal(monkeypatch, lattice, ctx):
    # MRRR gives up on this graded lattice; eigh_tridiagonal raised LinAlgError too
    graded = make_lattice(0.25, j_min=-132, j_max=-64)
    with pytest.raises(np.linalg.LinAlgError, match=r"stemr.*info=22"):
        build_hamiltonian_basis(graded, MASS, braided_line(0.25))
    with pytest.raises(np.linalg.LinAlgError):
        eigh_tridiagonal(*half_line_hamiltonian(graded, MASS, braided_line(0.25)),
                         lapack_driver="stemr")
    d, e = half_line_hamiltonian(lattice, MASS, ctx)
    for bad in (np.nan, np.inf):
        for dd, ee in ((np.append(d[:-1], bad), e), (d, e * bad)):
            with pytest.raises(ValueError):
                eigh_tridiagonal(dd, ee, lapack_driver="stemr")
            monkeypatch.setattr(basis_module, "half_line_hamiltonian", lambda *_: (dd, ee))
            with pytest.raises(ValueError, match="non-finite"):
                build_hamiltonian_basis(lattice, MASS, ctx)


def test_flapack_loader_names_what_it_searched(monkeypatch, tmp_path):
    assert callable(basis_module._load_flapack().dstemr)
    monkeypatch.setattr(basis_module, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=r"scipy.*_flapack.*searched \[.+linalg"):
        basis_module._load_flapack()
    monkeypatch.undo()
    monkeypatch.setattr(basis_module, "find_spec",
                        lambda name: SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
    with pytest.raises(ImportError, match="searched") as err:
        basis_module._load_flapack()
    assert str(tmp_path / "linalg") in str(err.value)
    monkeypatch.setattr(basis_module, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy.*searched \[\]"):
        basis_module._load_flapack()


def test_qexp_basis_diagnostics(lattice, ctx):
    grid = np.linspace(0.3, 2.0, 6)
    report = build_qexp_basis(lattice, ctx, grid, n_trunc=60)
    assert sorted(report) == ["gram_defect", "n_modes", "rejected_momenta"]
    assert report["n_modes"] + len(report["rejected_momenta"]) == grid.size
    assert report["gram_defect"] >= 0.0


def test_qexp_basis_rejects_divergent_momenta(lattice, ctx):
    # large |p x| makes the truncated series overflow before converging
    grid = np.array([1e6])
    with pytest.raises(ValueError, match="all requested momenta rejected"):
        build_qexp_basis(lattice, ctx, grid, n_trunc=300)
    # one diverging lattice point rejects its momentum; the others are kept
    report = build_qexp_basis(lattice, ctx, np.array([0.5, 1e6, 1.0]), n_trunc=300)
    assert report["rejected_momenta"] == [1e6] and report["n_modes"] == 2


def test_export_basis_matches_per_entry_oracle(tmp_path, basis):
    # the free basis, and a real one holding signed zeros, subnormals, +-1e300,
    # nan and inf in every written field
    n, m = basis.vectors.shape
    odd = replace(basis, vectors=np.resize(SPECIAL_FLOATS, (n, m)),
                  energies=np.resize(SPECIAL_FLOATS, m),
                  momenta=np.resize(SPECIAL_FLOATS[::-1], m), mass=1e-300)
    for b in (basis, odd):
        export_basis(b, str(tmp_path / "new.csv"))
        oracles.export_basis(b, str(tmp_path / "ref.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_export_basis_roundtrip(tmp_path, basis):
    path = tmp_path / "basis.csv"
    export_basis(basis, str(path))
    text = path.read_text().splitlines()
    assert text[0].startswith("# q")
    # one row per lattice point after the three header lines
    assert len(text) == 4 + basis.lattice.size
    # repr floats reproduce exactly
    first_energy = float(text[1].split(",")[1])
    assert first_energy == basis.energies[0]
    # the real vectors keep the interleaved re/im columns: every im_u entry is
    # exactly 0.0 and every re_u entry reproduces the stored vector
    rows = [line.split(",")[2:] for line in text[4:]]
    assert all(entry == "0.0" for row in rows for entry in row[1::2])
    assert np.array_equal(np.array([row[0::2] for row in rows], dtype=float), basis.vectors)
