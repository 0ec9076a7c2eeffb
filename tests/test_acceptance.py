"""End-to-end acceptance checks.

Each test covers one acceptance criterion and records a single
``name: value=... tol=... PASS/FAIL`` line that is echoed in the terminal
summary after the run.
"""

import dataclasses
import json

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import eigsh

from braidline import (
    ModePotential,
    Potential,
    braided_line,
    conjugate_smatrix,
    crossing_transform,
    free_propagator,
    interaction_potential,
    make_lattice,
    smatrix_interaction,
    smatrix_momentum,
    unitarity_defect,
)
from braidline import checks
from braidline.basis import half_line_hamiltonian
from braidline.checks import born_errors, cross_formalism_potential, crossed_basis, run_check
from braidline.cli import build_potential, build_scene, load_config
from braidline.scattering import transition_probability_table
from conftest import ACCEPTANCE_LINES

MASS = 1.0
EPS = 0.05


def check(name, value, tol, sense="max", extra_ok=True):
    ok = (value <= tol if sense == "max" else value >= tol) and extra_ok
    line = "{}: value={:.3e} tol={:.3e} {}".format(
        name, value, tol, "PASS" if ok else "FAIL"
    )
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def registered(name, scene, label, extra_ok=True):
    """Record a registry check as an acceptance line, with extra conditions."""
    r = run_check(name, *scene)
    check(label, r["value"], r["tolerance"], r["sense"], extra_ok)


@pytest.fixture(scope="module")
def scene():
    """The default-config verify scene: (cfg, basis, crossed basis, potential)."""
    cfg = load_config(None)
    _, lat, basis = build_scene(cfg)
    return cfg, basis, crossed_basis(basis), build_potential(cfg, lat)


@pytest.fixture(scope="module")
def basis(scene):
    return scene[1]


@pytest.fixture(scope="module")
def weak_v(scene):
    return scene[3]


def test_c01_basis_orthonormal_complete(basis):
    gram = basis.gram()
    ident = np.eye(basis.size)
    ortho = float(np.max(np.abs(gram - ident)))
    # completeness in the function frame: sum_n u_n(x) conj(u_n(y)) w_y = delta
    resolution = basis.vectors @ (basis.vectors.conj().T * basis.weights[None, :])
    complete = float(np.max(np.abs(resolution - ident)))
    check("C01 basis orthonormality and completeness",
          max(ortho, complete), 1e-12)


def test_c02_kernel_composition(scene):
    registered("composition", scene, "C02 propagator composition (8 variants)")


def test_c03_schrodinger_equation_with_source(scene):
    registered("residual", scene, "C03 wave equation residual and source jump")


def test_c04_coincident_time_boundary(scene):
    registered("boundary", scene, "C04 coincident-time kernel is the delta function")


def test_c04_and_source_jump_detect_a_missing_mode(scene):
    # a basis with one mode zeroed is incomplete: its coincident kernel is not
    # the Jackson delta, and its jump misses the source i diag(1/w)
    cfg, *bases, v = scene
    holed = []
    for b in bases:
        vectors = b.vectors.copy()
        vectors[:, 3] = 0.0
        holed.append(dataclasses.replace(b, vectors=vectors))
    assert run_check("boundary", cfg, *holed, v)["value"] > 1e-12
    assert run_check("residual", cfg, *holed, v)["value"] > 1e-10


@pytest.mark.parametrize("j_max", [12, 50], ids=["n50", "n202"])
def test_negative_branch_corruption_fails_composition_and_residual(j_max, monkeypatch):
    # a 1e-6 relative error in only the negative-branch block of the first kernel
    # a check builds breaks the kernel's mirror symmetry, so the products take the
    # full loop and see it: far above the clean value, which at N=202 already
    # exceeds the absolute bound
    cfg = load_config(None)
    cfg["lattice"].update(j_min=-j_max, j_max=j_max)
    _, lat, basis = build_scene(cfg)
    scene = (cfg, basis, crossed_basis(basis), build_potential(cfg, lat))
    clean = {name: run_check(name, *scene)["value"] for name in ("composition", "residual")}
    built = []

    def corrupt_first(b, *args, **kwargs):
        kern = free_propagator(b, *args, **kwargs)
        if not built:
            kern.matrix[:b.size // 2, :b.size // 2] *= 1.0 + 1e-6
        built.append(kern)
        return kern

    monkeypatch.setattr(checks, "free_propagator", corrupt_first)
    for name, value in clean.items():
        built.clear()
        r = run_check(name, *scene)
        assert not r["pass"] and r["value"] > 1e3 * value, (name, r["value"], value)


def test_c05_conjugation_partners(scene):
    registered("conjugation", scene,
               "C05 conjugation maps kernels and S-matrices to partners")


def test_c06_born_series_convergence_rate(scene):
    # extra: the order-by-order error decays at the Born spectral radius
    basis, v = scene[1], scene[3]
    slopes_ok = True
    for lam in (0.003, 0.006, 0.012):
        errs, rho = born_errors(Potential(v.values, epsilon=EPS, strength=lam),
                                basis, (1, 2, 3, 4))
        slope = np.polyfit([1, 2, 3, 4], np.log(errs), 1)[0]
        slopes_ok = slopes_ok and abs(slope / np.log(rho) - 1.0) < 0.3
    registered("born", scene, "C06 geometric Born convergence at the coupling rate",
               extra_ok=slopes_ok)


def test_c07_unitarity_trend_and_controls(scene):
    # extras: the anti-Hermitian control and the Dyson leg of the switching
    basis = scene[1]
    control = run_check("unitarity_negative_control", *scene)["pass"]
    eps = 0.5
    rng = np.random.default_rng(2)
    block = rng.normal(size=(8, 8))
    vm = np.zeros((basis.size, basis.size))
    vm[:8, :8] = 0.01 * (block + block.T)
    vi = interaction_potential(ModePotential(vm, epsilon=eps), basis)
    s = smatrix_interaction(vi, "S1starPlus", np.log(1e8) / eps, eps, tol=1e-8)
    registered("unitarity_trend", scene,
               "C07 unitarity improves with adiabatic switching",
               extra_ok=control and unitarity_defect(s) <= 1e-6)


def test_c08_interaction_picture_matches_resolvent(scene):
    # extra: the S-matrix differs from the identity far above the agreement
    basis = scene[1]
    r = run_check("cross_formalism", *scene)
    mp = cross_formalism_potential(basis)
    s_mom = smatrix_momentum(mp, basis, "S1starPlus", eps=mp.epsilon)
    signal = float(np.max(np.abs(s_mom.matrix - np.eye(basis.size))))
    check("C08 time-ordered and resolvent S-matrices agree",
          r["value"], r["tolerance"], r["sense"], extra_ok=signal > 100 * r["value"])


def test_c09_crossing_symmetry(scene):
    # extra: crossing is an involution on the context
    ctx = scene[1].ctx
    ctx2 = crossing_transform(crossing_transform(ctx))
    involution_ok = (
        ctx2.q == pytest.approx(ctx.q)
        and ctx2.kappa == pytest.approx(ctx.kappa)
        and ctx2.zeta == ctx.zeta
        and ctx2.geometry == ctx.geometry
        and ctx2.barred == ctx.barred
    )
    registered("crossing", scene, "C09 crossing exchanges the two kernel geometries",
               extra_ok=involution_ok)


def _classical_limit_error(qv, t=0.05, k=160):
    # fixed physical window: the lattice refines toward the continuum as
    # q -> 1 while the outermost points stay put
    dq = 1.0 - qv
    jm = int(np.ceil(1.5 / dq))
    lat = make_lattice(qv, j_min=-jm, j_max=jm)
    ctx = braided_line(qv)
    x = lat.points
    n = x.size
    # classical reference: central differences with trapezoid weights
    wt = np.zeros(n)
    wt[1:-1] = (x[2:] - x[:-2]) / 2
    wt[0] = (x[1] - x[0]) / 2
    wt[-1] = (x[-1] - x[-2]) / 2
    rows, cols, vals = [], [], []
    for i in range(n):
        a, b = (0, 1) if i == 0 else (n - 2, n - 1) if i == n - 1 else (i - 1, i + 1)
        h = x[b] - x[a]
        rows += [i, i]
        cols += [a, b]
        vals += [-1.0 / h, 1.0 / h]
    dc = csr_matrix((vals, (rows, cols)), shape=(n, n))
    hc = (diags(1.0 / wt) @ dc.T @ diags(wt) @ dc / (2.0 * MASS)).tocsr()
    psi = np.exp(-((x - 1.5) ** 2) / (2 * 0.25 ** 2)) * np.exp(1j * x)

    def propagate(h, w):
        sw = np.sqrt(w)
        hs = diags(sw) @ h @ diags(1.0 / sw)
        hs = (hs + hs.T) / 2
        evals, vecs = eigsh(hs.tocsc(), k=k, sigma=0, which="LM")
        c = vecs.T @ (sw * psi)
        return (vecs @ (np.exp(-1j * evals * t) * c)) / sw

    # q-lattice: the k lowest modes are k/2 degenerate even/odd pairs, which
    # together propagate each branch with the k/2 lowest half-line modes
    evals, vecs = eigh_tridiagonal(*half_line_hamiltonian(lat, MASS, ctx), select="i",
                                   select_range=(0, k // 2 - 1))
    sq = np.sqrt(lat.weights)
    phi = sq * psi
    out_q = np.empty_like(phi)
    for branch in (slice(n // 2, None), slice(n // 2 - 1, None, -1)):  # innermost first
        out_q[branch] = vecs @ (np.exp(-1j * evals * t) * (vecs.T @ phi[branch]))
    out_q /= sq
    out_c = propagate(hc, wt)
    sw = np.sqrt(wt)
    return float(np.linalg.norm(sw * (out_q - out_c))
                 / np.linalg.norm(sw * out_c))


def test_c10_classical_limit():
    steps = np.array([4e-3, 2e-3, 1e-3])
    errs = np.array([_classical_limit_error(1.0 - h) for h in steps])
    orders = np.log(errs[:-1] / errs[1:]) / np.log(2.0)
    check("C10 evolution approaches the classical limit as q -> 1",
          errs[-1], 1e-2, extra_ok=bool(np.all(orders >= 0.8)))


def test_c11_transition_probabilities(basis, weak_v):
    s = smatrix_momentum(weak_v, basis, "S1plusPrime", eps=EPS)
    table = transition_probability_table(s)
    real_ok = bool(np.all(np.isreal(table)) and np.all(table >= 0.0))
    st = conjugate_smatrix(s)
    pair = float(np.max(np.abs(table - transition_probability_table(st).T)))
    defect = unitarity_defect(s)
    rows_ok = bool(np.max(np.abs(table.sum(axis=1) - 1.0)) <= defect)
    check("C11 transition probabilities pair under conjugation",
          pair, 1e-10, extra_ok=real_ok and rows_ok)


def test_c12_reproducible_verification(tmp_path):
    from braidline.cli import main

    outs = []
    for name in ("v1", "v2"):
        out = tmp_path / name
        assert main(["verify", "--out", str(out)]) == 0
        outs.append((out / "verify_report.json").read_bytes())
    report = json.loads(outs[0])
    differing = float(outs[0] != outs[1])
    check("C12 verification run is reproducible byte for byte",
          differing, 0.0, extra_ok=report["all_pass"])
