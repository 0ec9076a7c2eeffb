"""Interaction picture: picture-change maps, interaction potentials,
time-evolution operators (iterated-integral and ODE routes) and
interaction-picture S-matrices.

Geometry G1 evolution acts from the left on coefficient columns, geometry
G2 from the right with the reversed operator ordering and the opposite
sign of i, matching the crossed equations of motion.  For Hermitian
interactions both routes produce unitary operators up to the integrator
tolerance, which is measured rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .basis import CoefficientVector, WaveBasis
from .qcalc import G1
from .scattering import Potential, SMatrix, S_FAMILIES, variant_scale


@dataclass
class InteractionPotential:
    """V_I(t)_{pp'} = exp(i (E_p - E_p') s t) V_{pp'} exp(-eps |t|)."""

    basis: WaveBasis
    matrix: np.ndarray  # V in the energy basis
    variant: str
    epsilon: float

    @property
    def scale(self) -> float:
        return variant_scale(self.variant, self.basis.ctx)

    def at(self, t: float) -> np.ndarray:
        e = self.basis.energies * self.scale
        phase = np.exp(1j * e * t)
        return (phase[:, None] * self.matrix * np.conj(phase)[None, :]) * np.exp(
            -self.epsilon * abs(t)
        )


def interaction_potential(v: Potential, basis: WaveBasis, variant: str) -> InteractionPotential:
    return InteractionPotential(
        basis=basis, matrix=v.matrix(basis), variant=variant, epsilon=v.epsilon,
    )


@dataclass
class EvolutionOperator:
    matrix: np.ndarray
    t_from: float
    t_to: float
    construction: str  # "dyson(N)" or "ode(tol)"
    geometry: str = G1
    # rhs_evals (right-hand-side calls) and coupled_modes (modes integrated)
    diagnostics: dict = field(default_factory=dict)

    def unitarity_drift(self) -> float:
        u = self.matrix
        return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def to_interaction_picture(psi: CoefficientVector, variant: str) -> CoefficientVector:
    """Remove the free phase: multiply coefficient p by exp(+i E_p s t)."""
    scale = variant_scale(variant, psi.basis.ctx)
    phase = np.exp(1j * psi.basis.energies * scale * psi.time)
    return CoefficientVector(psi.basis, phase * psi.values, time=psi.time)


def from_interaction_picture(psi: CoefficientVector, variant: str) -> CoefficientVector:
    scale = variant_scale(variant, psi.basis.ctx)
    phase = np.exp(-1j * psi.basis.energies * scale * psi.time)
    return CoefficientVector(psi.basis, phase * psi.values, time=psi.time)


def _integrate(
    vi: InteractionPotential, t_from: float, t_to: float, rtol: float,
    levels: int | None,
) -> tuple[np.ndarray, dict]:
    """One DOP853 solve on the modes V couples; returns (matrix, diagnostics).

    ``levels=None`` integrates U' = c V_I U (G1, c = -i) or U' = c U V_I
    (G2, c = +i) from U = 1.  ``levels=k`` integrates the Dyson hierarchy
    I_j' = c V_I I_{j-1} (I_0 = 1, I_j = 0 at t_from) and returns
    1 + I_1 + ... + I_k.  V_I(t) has the zero pattern of V at every t, so
    rows and columns outside the coupled modes (a nonzero row or column of
    V) stay those of the identity: the restriction is exact.  The complex
    state goes to ``solve_ivp`` as it is, with atol = rtol.
    """
    m = vi.basis.size
    idx = np.flatnonzero(np.any(vi.matrix, axis=0) | np.any(vi.matrix, axis=1))
    n = idx.size
    out = np.eye(m, dtype=complex)
    if n == 0 or t_from == t_to or levels == 0:
        return out, {"rhs_evals": 0, "coupled_modes": n}
    block = np.ix_(idx, idx)
    left = vi.basis.ctx.geometry == G1
    coeff = -1j if left else 1j
    ident = np.eye(n, dtype=complex)

    def rhs(t, y):
        vt = vi.at(t)[block]
        if levels is None:
            prev = y.reshape(n, n)
        else:  # level j is driven by level j - 1
            prev = np.concatenate([ident[None], y.reshape(levels, n, n)[:-1]])
        return (coeff * (vt @ prev if left else prev @ vt)).ravel()

    y0 = ident.ravel() if levels is None else np.zeros(levels * n * n, dtype=complex)
    sol = solve_ivp(rhs, (t_from, t_to), y0, method="DOP853", rtol=rtol, atol=rtol)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    y = sol.y[:, -1].reshape(-1, n, n)
    out[block] = y[0] if levels is None else ident + y.sum(axis=0)
    return out, {"rhs_evals": int(sol.nfev), "coupled_modes": n}


def ode_evolution(
    vi: InteractionPotential, t_from: float, t_to: float, tol: float,
) -> EvolutionOperator:
    """Adaptive high-order integration of the evolution equation."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    u, diagnostics = _integrate(vi, t_from, t_to, tol * 1e-2, None)
    return EvolutionOperator(u, t_from, t_to, f"ode({tol:g})", vi.basis.ctx.geometry,
                             diagnostics)


def dyson_evolution(
    vi: InteractionPotential, t_from: float, t_to: float, order: int,
    tol: float = 1e-10,
) -> EvolutionOperator:
    """Order-N truncation of the iterated time-ordered integrals.

    The hierarchy I_k(t) = (-+i) int V(s) I_{k-1}(s) ds is integrated
    jointly with adaptive stepping; per-level tolerance tol/order keeps
    the total error budget explicit.  Order 0 returns the identity.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    u, diagnostics = _integrate(vi, t_from, t_to, tol / max(order, 1) * 1e-2, order)
    return EvolutionOperator(u, t_from, t_to, f"dyson({order})", vi.basis.ctx.geometry,
                             diagnostics)


def evolve(u: EvolutionOperator, psi: CoefficientVector) -> CoefficientVector:
    if psi.time != u.t_from:
        raise ValueError("state time does not match the operator window")
    if u.geometry == G1:
        vals = u.matrix @ psi.values
    else:
        vals = psi.values @ u.matrix
    return CoefficientVector(psi.basis, vals, time=u.t_to)


def interaction_coefficients(
    states: list[CoefficientVector], variant: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Time series C_p(t): projection against the t = 0 plane waves.

    Returns (times, C) with C of shape (len(states), modes).  Free states
    produce constant rows.
    """
    times = np.array([s.time for s in states])
    rows = [to_interaction_picture(s, variant).values for s in states]
    return times, np.stack(rows, axis=0)


def smatrix_interaction(
    vi: InteractionPotential, family: str, t_horizon: float, eps: float,
    tol: float = 1e-8,
) -> SMatrix:
    """S = U(+-T, -+T): evolution across the switched-on window.

    Requires exp(-eps*T) <= 1e-8 so the interaction is negligible outside
    the window.  Families with time sign -1 run the reversed window.
    """
    if family not in S_FAMILIES:
        raise ValueError(f"unknown S-matrix family {family!r}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if np.exp(-eps * t_horizon) > 1e-8:
        raise ValueError(
            "horizon too short for the requested eps: need exp(-eps*T) <= 1e-8"
        )
    if vi.epsilon != eps:
        raise ValueError("interaction epsilon must match the requested eps")
    sign = S_FAMILIES[family][1]
    if sign > 0:
        u = ode_evolution(vi, -t_horizon, t_horizon, tol)
    else:
        u = ode_evolution(vi, t_horizon, -t_horizon, tol)
    return SMatrix(ctx=vi.basis.ctx, basis=vi.basis, matrix=u.matrix,
                   family=family, epsilon=eps, tilde=False, diagnostics=dict(u.diagnostics))
