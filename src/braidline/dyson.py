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

from dataclasses import dataclass

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


def _rhs_sign_and_side(geometry: str) -> tuple[complex, str]:
    # G1: i dU/dt = V U  -> dU/dt = -i V U (left action)
    # G2 (crossed): the conjugated equation evolves by right action with +i.
    return (-1j, "left") if geometry == G1 else (1j, "right")


def ode_evolution(
    vi: InteractionPotential, t_from: float, t_to: float, tol: float,
) -> EvolutionOperator:
    """Adaptive high-order integration of the evolution equation."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = vi.basis.size
    geometry = vi.basis.ctx.geometry
    coeff, side = _rhs_sign_and_side(geometry)
    if t_from == t_to or not np.any(vi.matrix):
        return EvolutionOperator(np.eye(m, dtype=complex), t_from, t_to,
                                 f"ode({tol:g})", geometry)

    def rhs_real(t, y):
        u = y[: m * m].reshape(m, m) + 1j * y[m * m:].reshape(m, m)
        vt = vi.at(t)
        du = coeff * (vt @ u) if side == "left" else coeff * (u @ vt)
        return np.concatenate([du.real.ravel(), du.imag.ravel()])

    y0 = np.concatenate([np.eye(m).ravel(), np.zeros(m * m)])
    sol = solve_ivp(
        rhs_real, (t_from, t_to), y0, method="DOP853",
        rtol=tol * 1e-2, atol=tol * 1e-2, dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    y = sol.y[:, -1]
    u = y[: m * m].reshape(m, m) + 1j * y[m * m:].reshape(m, m)
    return EvolutionOperator(u, t_from, t_to, f"ode({tol:g})", geometry)


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
    m = vi.basis.size
    geometry = vi.basis.ctx.geometry
    if order == 0 or t_from == t_to or not np.any(vi.matrix):
        return EvolutionOperator(np.eye(m, dtype=complex), t_from, t_to,
                                 f"dyson({order})", geometry)
    coeff, side = _rhs_sign_and_side(geometry)
    level_tol = tol / order
    nm = m * m

    def rhs_real(t, y):
        vt = vi.at(t)
        out = np.zeros_like(y)
        prev = np.eye(m, dtype=complex)
        for k in range(order):
            cur = y[2 * k * nm: (2 * k + 1) * nm].reshape(m, m) + 1j * y[
                (2 * k + 1) * nm: (2 * k + 2) * nm
            ].reshape(m, m)
            d = coeff * (vt @ prev) if side == "left" else coeff * (prev @ vt)
            out[2 * k * nm: (2 * k + 1) * nm] = d.real.ravel()
            out[(2 * k + 1) * nm: (2 * k + 2) * nm] = d.imag.ravel()
            prev = cur
        return out

    y0 = np.zeros(2 * nm * order)
    sol = solve_ivp(rhs_real, (t_from, t_to), y0, method="DOP853",
                    rtol=level_tol * 1e-2, atol=level_tol * 1e-2)
    if not sol.success:
        raise RuntimeError(f"quadrature failed: {sol.message}")
    y = sol.y[:, -1]
    u = np.eye(m, dtype=complex)
    for k in range(order):
        u = u + (
            y[2 * k * nm: (2 * k + 1) * nm].reshape(m, m)
            + 1j * y[(2 * k + 1) * nm: (2 * k + 2) * nm].reshape(m, m)
        )
    return EvolutionOperator(u, t_from, t_to, f"dyson({order})", geometry)


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
                   family=family, epsilon=eps, tilde=False)
