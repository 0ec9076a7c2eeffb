"""The verification registry: one implementation of each operator identity.

``braidline verify`` and the acceptance tests run the same checks.  Each
takes ``(cfg, basis, basis2, v)`` -- the config, the G1 basis, its crossed G2
partner and the configured potential -- and returns ``(value, tolerance)``;
``CHECKS`` maps its name to ``(fn, sense)``, where sense "max" bounds the
value from above and "min" from below.  Times come from ``time_target``.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import CoefficientVector, WaveBasis, build_hamiltonian_basis
from .dyson import interaction_potential, ode_evolution, smatrix_from_evolution
from .propagator import (VARIANTS, compose, conjugate_kernel, free_propagator, make_advanced,
                         make_retarded, schrodinger_residual, source_term)
from .qcalc import crossing_transform, make_lattice
from .scattering import (ModePotential, Potential, born_radius, born_wavefunction,
                         conjugate_smatrix, lippmann_schwinger_solve, smatrix_momentum,
                         unitarity_defect)


def crossed_basis(basis: WaveBasis) -> WaveBasis:
    """The G2 basis of the crossed context over the same j range."""
    c2 = crossing_transform(basis.ctx)
    lat = basis.lattice
    return build_hamiltonian_basis(
        make_lattice(c2.q, x0=lat.x0, j_min=lat.j_min, j_max=lat.j_max), basis.mass, c2)


def geometry_variants(basis: WaveBasis, basis2: WaveBasis) -> list[tuple[WaveBasis, list[str]]]:
    """Each geometry's basis with its kernel variants, sorted by name.  A variant
    only selects the geometry, so one kernel per geometry serves all its names."""
    return [(b, sorted(v for v in VARIANTS if VARIANTS[v][0] == family))
            for family, b in ((1, basis), (2, basis2))]


def boundary_defect(b: WaveBasis, variant: str, t: float) -> float:
    """Distance max |K(t, t) diag(w) - I| of the coincident kernel from the Jackson delta."""
    return float(np.max(np.abs(free_propagator(b, variant, t, t).matrix * b.weights
                               - np.eye(b.size))))


def born_errors(weak: Potential, basis: WaveBasis, orders) -> tuple[list[float], float]:
    """Born-series error of incoming mode 6 per order against the exact
    Lippmann-Schwinger state, and the spectral radius rho of the iteration."""
    jq = 6
    energy = float(basis.energies[jq])
    phi = CoefficientVector(basis, np.eye(basis.size)[jq])
    t_mat = lippmann_schwinger_solve(weak, basis, energy, weak.epsilon)
    r0 = 1.0 / (energy - basis.energies + 1j * weak.epsilon)
    exact = phi.values + r0 * t_mat[:, jq]
    return [float(np.max(np.abs(born_wavefunction(phi, weak, n)[0].values - exact)))
            for n in orders], born_radius(weak, basis, energy, weak.epsilon)


def worst_ratio(defects) -> float:
    """Largest growth factor between successive defects.

    0.0 for fewer than two defects or when none grows; a zero defect
    followed by a nonzero one counts as infinite growth.
    """
    return max((later / earlier if earlier else (math.inf if later else 0.0)
                for earlier, later in zip(defects, defects[1:])), default=0.0)


def cross_formalism_potential(basis: WaveBasis) -> ModePotential:
    """Weak seeded Hermitian coupling of the ten lowest modes, eps = 0.05."""
    block = np.random.default_rng(7).normal(size=(10, 10))
    vm = np.zeros((basis.size, basis.size))
    vm[:10, :10] = 2e-5 * (block + block.T) / 2
    return ModePotential(vm, epsilon=0.05)


# ---------------------------------------------------------------------------
# the checks

def _check_composition(cfg, basis, basis2, v):
    worst = 0.0
    rng = np.random.default_rng(42)
    # per variant, in name order: each draws its own times
    for b, names in geometry_variants(basis, basis2):
        for variant in names:
            for _ in range(5):
                t0, t1, t2 = np.sort(rng.uniform(-0.05, 0.05, size=3))
                got = compose(free_propagator(b, variant, t0, t1),
                              free_propagator(b, variant, t1, t2))
                direct = free_propagator(b, variant, t0, t2)
                worst = max(worst, float(np.max(np.abs(got.matrix - direct.matrix))))
    return worst, 1e-12


def _check_boundary(cfg, basis, basis2, v):
    return max(boundary_defect(b, variant, cfg["time_target"])
               for b, (variant, *_) in geometry_variants(basis, basis2)), 1e-12


def _check_residual(cfg, basis, basis2, v):
    # retarded and advanced wave-equation residuals plus the source jump
    t = cfg["time_target"]
    worst = 0.0
    for b, (variant, *_) in geometry_variants(basis, basis2):
        retarded = schrodinger_residual(make_retarded(free_propagator(b, variant, 0.0, t)))
        advanced = schrodinger_residual(make_advanced(free_propagator(b, variant, t, 0.0)))
        coincident = make_retarded(free_propagator(b, variant, t, t))
        jump = float(np.max(np.abs(1j * coincident.matrix - source_term(coincident))))
        worst = max(worst, retarded, advanced, jump)
    return worst, 1e-10


def _check_conjugation(cfg, basis, basis2, v):
    t = cfg["time_target"]
    worst = 0.0
    for b, (variant, *_) in geometry_variants(basis, basis2):
        ck = conjugate_kernel(free_propagator(b, variant, -0.2, t))
        partner = free_propagator(b, ck.variant, -0.2, t, tilde=True)
        worst = max(worst, float(np.max(np.abs(ck.matrix - partner.matrix))))
    # a family selects only its time sign and its tilde partner solves with the
    # opposite one, so one plain/tilde pair covers both resolvents
    cs = conjugate_smatrix(smatrix_momentum(v, basis, cfg["family"], eps=v.epsilon))
    built = smatrix_momentum(v, basis, cs.family, eps=v.epsilon, tilde=True)
    return max(worst, float(np.max(np.abs(cs.matrix - built.matrix)))), 1e-10


def _check_born(cfg, basis, basis2, v):
    # weak coupling so the order-4 truncation error (~rho**5) is resolvable
    weak = Potential(v.values, epsilon=0.05, strength=0.003)
    errs, _ = born_errors(weak, basis, [cfg["born_order"]])
    return errs[0], 1e-8


def _check_unitarity(cfg, basis, basis2, v):
    defects = [unitarity_defect(smatrix_momentum(v, basis, cfg["family"], eps=e))
               for e in cfg["eps_sweep"]]
    return worst_ratio(defects), 1.2


def _check_cross_formalism(cfg, basis, basis2, v):
    mp = cross_formalism_potential(basis)
    vi = interaction_potential(mp, basis)
    horizon = float(np.log(1e8) / mp.epsilon)
    u = ode_evolution(vi, -horizon, horizon, 1e-10)  # one window gives both time signs
    return max(float(np.max(np.abs(smatrix_from_evolution(vi, u, family).matrix
                                   - smatrix_momentum(mp, basis, family, mp.epsilon).matrix)))
               for family in ("S1starPlus", "S2minus")), 1e-6


def _check_crossing(cfg, basis, basis2, v):
    t = cfg["time_target"]
    k1 = free_propagator(basis, "K1prime", 0.0, t)
    k2 = free_propagator(basis2, "K2", 0.0, t)
    return float(np.max(np.abs(k1.matrix - k2.matrix))), 1e-10


def _check_unitarity_negative_control(cfg, basis, basis2, v):
    va = Potential(0.05j * np.exp(-basis.lattice.points ** 2), epsilon=0.05)
    defect = unitarity_defect(smatrix_momentum(va, basis, cfg["family"], eps=0.05))
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


def run_check(name: str, cfg: dict, basis: WaveBasis, basis2: WaveBasis, v) -> dict:
    """Evaluate one registered check; the entry is looked up at call time."""
    fn, sense = CHECKS[name]
    value, tol = fn(cfg, basis, basis2, v)
    passed = value <= tol if sense == "max" else value >= tol
    return {"check": name, "value": value, "tolerance": tol, "sense": sense,
            "pass": bool(passed)}
