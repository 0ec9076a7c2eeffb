"""The verification registry: one implementation of each operator identity.

``braidline verify`` and the acceptance tests run the same checks.  Each
takes one ``cli.Scene`` -- the config with the G1 basis, its crossed G2 partner
and the configured H0 + V on the G1 basis, each built on first use -- and
returns ``(value, tolerance)``; ``CHECKS`` maps its name to ``(fn, sense)``,
where sense "max" bounds the value from above and "min" from below.  Times
come from ``time_target``, switching rates from ``CHECK_EPS``.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import CoefficientVector, WaveBasis
from .dyson import ode_evolution, smatrix_from_evolution
from .propagator import (compose, conjugate_kernel, free_propagator, make_advanced,
                         make_retarded, schrodinger_residual, source_term)
from .scattering import (Hamiltonian, Potential, born_radius, born_wavefunction,
                         conjugate_smatrix, free_resolvent, gaussian_potential,
                         lippmann_schwinger_solve, smatrix_momentum, unitarity_defect)

CHECK_EPS = 0.05  # the adiabatic switching rate of every check scene


def delta_defect(b: WaveBasis, block: np.ndarray) -> float:
    """Distance max |B diag(w+) - I| of a positive-branch block B from the Jackson delta:
    the negative branch repeats B mirrored, with mirrored weights, and the cross-branch
    entries are +0 on both sides, so this is the N x N distance."""
    half = b.size // 2
    return float(np.max(np.abs(block * b.weights[half:] - np.eye(half))))


def boundary_defect(b: WaveBasis, variant: str, t: float) -> float:
    """``delta_defect`` of the coincident kernel K(t, t)."""
    return delta_defect(b, free_propagator(b, variant, t, t).block)


def born_errors(weak: Potential, basis: WaveBasis, orders) -> tuple[list[float], float]:
    """Born-series error of incoming mode 6 per order against the exact
    Lippmann-Schwinger state, and the spectral radius rho of the iteration."""
    jq, h = 6, weak.on(basis)
    energy = float(basis.energies[jq])
    phi = CoefficientVector(basis, np.eye(basis.size)[jq])
    t_mat = lippmann_schwinger_solve(h, basis, energy, h.epsilon)
    exact = phi.values + free_resolvent(basis, energy, h.epsilon) * t_mat[:, jq]
    return [float(np.max(np.abs(born_wavefunction(phi, h, n).values - exact)))
            for n in orders], born_radius(h, basis, energy, h.epsilon)


def worst_ratio(defects) -> float:
    """Largest growth factor between successive defects.

    0.0 for fewer than two defects or when none grows; a zero defect
    followed by a nonzero one counts as infinite growth.
    """
    return max((later / earlier if earlier else (math.inf if later else 0.0)
                for earlier, later in zip(defects, defects[1:])), default=0.0)


def cross_formalism_potential(basis: WaveBasis) -> Hamiltonian:
    """Weak seeded Hermitian coupling of the ten lowest modes, eps = CHECK_EPS."""
    block = np.random.default_rng(7).normal(size=(10, 10))
    vm = np.zeros((basis.size, basis.size))
    vm[:10, :10] = 2e-5 * (block + block.T) / 2
    return Hamiltonian(basis, vm, epsilon=CHECK_EPS)


# ---------------------------------------------------------------------------
# the checks

# The kernel checks compare positive-branch blocks: every kernel is one, mirrored onto the
# negative branch with +0 across the branches, so each maximum is that of the N x N forms.

def _check_composition(scene):
    worst = 0.0
    rng = np.random.default_rng(42)
    # one kernel serves every name of a geometry; each name still draws five time triples
    for b, names in scene.geometries:
        for _ in range(5 * len(names)):
            t0, t1, t2 = np.sort(rng.uniform(-0.05, 0.05, size=3))
            got = compose(free_propagator(b, names[0], t0, t1),
                          free_propagator(b, names[0], t1, t2))
            direct = free_propagator(b, names[0], t0, t2)
            worst = max(worst, float(np.max(np.abs(got.block - direct.block))))
    return worst, 1e-12


def _check_boundary(scene):
    return max(boundary_defect(b, variant, scene.cfg["time_target"])
               for b, (variant, *_) in scene.geometries), 1e-12


def _check_residual(scene):
    # retarded and advanced wave-equation residuals plus the source jump
    t = scene.cfg["time_target"]
    worst = 0.0
    for b, (variant, *_) in scene.geometries:
        retarded = schrodinger_residual(make_retarded(free_propagator(b, variant, 0.0, t)))
        advanced = schrodinger_residual(make_advanced(free_propagator(b, variant, t, 0.0)))
        coincident = make_retarded(free_propagator(b, variant, t, t))
        jump = float(np.max(np.abs(1j * coincident.block - source_term(coincident))))
        worst = max(worst, retarded, advanced, jump)
    return worst, 1e-10


def _check_conjugation(scene):
    t, family = scene.cfg["time_target"], scene.cfg["family"]
    worst = 0.0
    for b, (variant, *_) in scene.geometries:
        ck = conjugate_kernel(free_propagator(b, variant, -0.2, t))
        partner = free_propagator(b, ck.variant, -0.2, t, tilde=True)
        worst = max(worst, float(np.max(np.abs(ck.block - partner.block))))
    # a family selects only its time sign and its tilde partner solves with the
    # opposite one, so one plain/tilde pair covers both resolvents; the tilde
    # partner decomposes H0 + conj(V) itself, so the two solves stay independent
    cs = conjugate_smatrix(smatrix_momentum(scene.h, scene.basis, family, eps=CHECK_EPS))
    built = smatrix_momentum(scene.h, scene.basis, cs.family, eps=CHECK_EPS, tilde=True)
    return max(worst, float(np.max(np.abs(cs.matrix - built.matrix)))), 1e-10


def _check_born(scene):
    # a fixed weak Gaussian, so the order-4 truncation error (~rho**5) is
    # resolvable whatever potential the config names
    basis = scene.basis
    errs, _ = born_errors(gaussian_potential(basis.lattice, 0.003, epsilon=CHECK_EPS), basis, [4])
    return errs[0], 1e-8


def _check_unitarity(scene):
    defects = [unitarity_defect(smatrix_momentum(scene.h, scene.basis, scene.cfg["family"], eps=e))
               for e in scene.cfg["eps_sweep"]]
    return worst_ratio(defects), 1.2


def _check_cross_formalism(scene):
    hc = cross_formalism_potential(scene.basis)
    horizon = float(np.log(1e8) / hc.epsilon)
    u = ode_evolution(hc, -horizon, horizon, 1e-10)  # one window covers both time directions
    return max(float(np.max(np.abs(smatrix_from_evolution(hc, u, family).matrix
                                   - smatrix_momentum(hc, hc.basis, family, hc.epsilon).matrix)))
               for family in ("S1starPlus", "S2minus")), 1e-6


def _check_crossing(scene):
    t = scene.cfg["time_target"]
    k1 = free_propagator(scene.basis, "K1prime", 0.0, t)
    k2 = free_propagator(scene.basis2, "K2", 0.0, t)
    return float(np.max(np.abs(k1.block - k2.block))), 1e-10


def _check_unitarity_negative_control(scene):
    va = Potential(0.05j * np.exp(-scene.basis.lattice.points ** 2))
    defect = unitarity_defect(smatrix_momentum(va, scene.basis, scene.cfg["family"],
                                               eps=CHECK_EPS))
    # reported as a lower bound: the check passes when the defect is large
    return float(defect), 1e-2


CHECKS = {
    "composition": (_check_composition, "max"),
    "boundary": (_check_boundary, "max"),
    "residual": (_check_residual, "max"),
    "conjugation": (_check_conjugation, "max"),
    "born": (_check_born, "max"),
    "unitarity_trend": (_check_unitarity, "max"),
    "unitarity_negative_control": (_check_unitarity_negative_control, "min"),
    "cross_formalism": (_check_cross_formalism, "max"),
    "crossing": (_check_crossing, "max"),
}


def run_check(name: str, scene) -> dict:
    """Evaluate one registered check on a ``cli.Scene``; the entry is looked up at call time."""
    fn, sense = CHECKS[name]
    value, tol = fn(scene)
    passed = value <= tol if sense == "max" else value >= tol
    return {"check": name, "value": value, "tolerance": tol, "sense": sense,
            "pass": bool(passed)}
