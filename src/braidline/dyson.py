"""Interaction picture: picture-change maps, interaction potentials,
time-evolution operators (exact Dyson partial sums and the full evolution,
both from one block exponential) and interaction-picture S-matrices.

Geometry G1 evolution acts from the left on coefficient columns, geometry
G2 from the right with the reversed operator ordering and the opposite
sign of i, matching the crossed equations of motion.  For Hermitian
interactions the full evolution is unitary up to its tolerance, which is
measured rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from .basis import CoefficientVector, WaveBasis
from .qcalc import G1
from .scattering import Potential, SMatrix, S_FAMILIES, _dyson_blocks


@dataclass
class InteractionPotential:
    """V_I(t)_{pp'} = exp(i (E_p - E_p') t) V_{pp'} exp(-eps |t|)."""

    basis: WaveBasis
    matrix: np.ndarray  # V in the energy basis
    epsilon: float

    def at(self, t: float) -> np.ndarray:
        phase = np.exp(1j * self.basis.energies * t)
        return np.outer(phase, phase.conj()) * self.matrix * np.exp(-self.epsilon * abs(t))


def interaction_potential(v: Potential, basis: WaveBasis) -> InteractionPotential:
    return InteractionPotential(basis, v.matrix(basis), v.epsilon)


@dataclass
class EvolutionOperator:
    matrix: np.ndarray
    t_from: float
    t_to: float
    geometry: str = G1
    # order (K), steps, tail and coupled_modes; see _integrate
    diagnostics: dict = field(default_factory=dict)

    def unitarity_drift(self) -> float:
        u = self.matrix
        return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def to_interaction_picture(psi: CoefficientVector) -> CoefficientVector:
    """Remove the free phase: multiply coefficient p by exp(+i E_p t)."""
    phase = np.exp(1j * psi.basis.energies * psi.time)
    return CoefficientVector(psi.basis, phase * psi.values, time=psi.time)


def from_interaction_picture(psi: CoefficientVector) -> CoefficientVector:
    phase = np.exp(-1j * psi.basis.energies * psi.time)
    return CoefficientVector(psi.basis, phase * psi.values, time=psi.time)


# the most sub-steps one evolution takes: a default-scene strength up to ~80
MAX_STEPS = 256


def _integrate(
    vi: InteractionPotential, t_from: float, t_to: float, tol: float,
    levels: int | None,
) -> tuple[np.ndarray, dict]:
    """Time-ordered exponential on the modes V couples: (matrix, diagnostics).

    ``levels=None`` gives U to ``tol`` (U' = c V_I U in G1 with c = -i,
    U' = c U V_I in G2 with c = +i), ``levels=k`` the exact partial sum
    1 + I_1 + ... + I_k.  Outside the coupled modes U is the identity, since
    V_I(t) keeps the zero pattern of V.  Diagnostics: the order K, the steps,
    the tail (largest entry of a last block) and the coupled modes.  The
    README's "Interaction picture" sets out the steps, K and the refusals.
    """
    idx = np.flatnonzero(np.any(vi.matrix, axis=0) | np.any(vi.matrix, axis=1))
    n = idx.size
    out = np.eye(vi.basis.size, dtype=complex)
    if n == 0 or t_from == t_to or levels == 0:
        return out, {"order": 0, "steps": 0, "tail": 0.0, "coupled_modes": n}
    block, left, eps = np.ix_(idx, idx), vi.basis.ctx.geometry == G1, vi.epsilon

    def env(t):  # int_0^|t| exp(-eps s) ds
        return -math.expm1(-eps * abs(t)) / eps if eps else abs(t)

    sigma, c = (1.0, -1j) if left else (-1.0, 1j)  # G2 is the transposed problem
    e = sigma * vi.basis.energies[idx]
    # |t| is monotone on each piece, so the envelope is one exponential there
    pieces = [(t_from, 0.0), (0.0, t_to)] if t_from * t_to < 0 else [(t_from, t_to)]
    counts, order = [1] * len(pieces), levels
    if levels is None:
        vb = vi.matrix[block]
        v_norm = float(np.linalg.norm(vb, 2)) if np.all(np.isfinite(vb)) else math.inf
        xs = [v_norm * abs(env(b) - env(a)) for a, b in pieces]
        if not sum(xs) <= MAX_STEPS:
            raise np.linalg.LinAlgError(f"|V|_2 = {v_norm:.3e} needs {sum(xs):.3e} steps")
        counts = [max(1, math.ceil(x)) for x in xs]
        x = max(x / k for x, k in zip(xs, counts))
        # the least K with steps * x^K / K! <= tol / 10, no finer than the rounding
        order, bound = 1, sum(counts) * x
        while bound > max(tol, np.finfo(float).eps) / 10:
            order, bound = order + 1, bound * x / (order + 1)
    acc, tail = None, 0.0
    for (a, b), k in zip(pieces, counts):
        g = np.linspace(env(a), env(b), k + 1)[1:-1]
        ts = [a, *np.copysign(-np.log1p(-eps * g) / eps if eps else g, a + b), b]
        for t0, t1 in zip(ts[:-1], ts[1:]):
            # W at the end nearer t = 0: a step towards it is the transposed
            # problem in reversed time, so no diagonal block of M grows
            h, grow = t1 - t0, abs(t1) < abs(t0)
            w = vi.at(t1 if grow else t0)[block]
            blocks = _dyson_blocks(e, w.T if left == grow else w, c, eps * np.sign(h), h, order)
            tail = max(tail, float(np.max(np.abs(blocks[-1]))))
            step = np.exp(1j * e * h)[:, None] * blocks
            step = step.transpose(0, 2, 1) if grow else step
            step = step.sum(axis=0, keepdims=True) if levels is None else step
            acc = step if acc is None else np.stack(  # graded by order, truncated
                [sum(step[i] @ acc[j - i] for i in range(j + 1)) for j in range(len(acc))])
    if levels is None and not tail <= tol:
        raise np.linalg.LinAlgError(f"Dyson order {order} leaves {tail:.3e} > tol={tol:g}")
    u = acc.sum(axis=0)
    out[block] = u if left else u.T
    return out, {"order": order, "steps": sum(counts), "tail": tail, "coupled_modes": n}


def ode_evolution(
    vi: InteractionPotential, t_from: float, t_to: float, tol: float,
) -> EvolutionOperator:
    """U(t_to, t_from) to ``tol``: sub-steps of the block exponential."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    u, diag = _integrate(vi, t_from, t_to, tol, None)
    return EvolutionOperator(u, t_from, t_to, vi.basis.ctx.geometry, diag)


def dyson_evolution(
    vi: InteractionPotential, t_from: float, t_to: float, order: int,
) -> EvolutionOperator:
    """Order-N truncation 1 + I_1 + ... + I_N of the iterated time-ordered
    integrals I_k(t) = (-+i) int V(s) I_{k-1}(s) ds, exact block by block.
    Order 0 returns the identity."""
    if order < 0:
        raise ValueError("order must be >= 0")
    u, diag = _integrate(vi, t_from, t_to, 0.0, order)
    return EvolutionOperator(u, t_from, t_to, vi.basis.ctx.geometry, diag)


def evolve(u: EvolutionOperator, psi: CoefficientVector) -> CoefficientVector:
    if psi.time != u.t_from:
        raise ValueError("state time does not match the operator window")
    vals = u.matrix @ psi.values if u.geometry == G1 else psi.values @ u.matrix
    return CoefficientVector(psi.basis, vals, time=u.t_to)


def interaction_coefficients(states: list[CoefficientVector]) -> tuple[np.ndarray, np.ndarray]:
    """Time series C_p(t): projection against the t = 0 plane waves.

    Returns (times, C) with C of shape (len(states), modes).  Free states
    produce constant rows.
    """
    times = np.array([s.time for s in states])
    rows = [to_interaction_picture(s).values for s in states]
    return times, np.stack(rows, axis=0)


def smatrix_from_evolution(vi: InteractionPotential, u: EvolutionOperator, family: str) -> SMatrix:
    """The family's S-matrix from the forward evolution U(T, -T) of ``vi``: U for
    time sign +1, the reversed window U(-T, T) = U(T, -T)^-1 for -1 (the
    inverse, not the adjoint, so a non-Hermitian V stays right)."""
    mat = u.matrix if S_FAMILIES[family][1] > 0 else np.linalg.inv(u.matrix)
    return SMatrix(basis=vi.basis, matrix=mat, family=family,
                   epsilon=vi.epsilon, tilde=False, diagnostics=dict(u.diagnostics))


def smatrix_interaction(
    vi: InteractionPotential, family: str, t_horizon: float, eps: float,
    tol: float = 1e-8,
) -> SMatrix:
    """S = U(+-T, -+T) across the switched-on window, from one forward
    evolution.  Requires exp(-eps*T) <= 1e-8 so the interaction is negligible
    outside it."""
    if family not in S_FAMILIES:
        raise ValueError(f"unknown S-matrix family {family!r}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    # T = ln(1e8) / eps itself can round to exp(-eps*T) a few ulps above 1e-8
    if np.exp(-eps * t_horizon) > 1e-8 * (1 + 1e-12):
        raise ValueError("horizon too short for the requested eps: need exp(-eps*T) <= 1e-8")
    if vi.epsilon != eps:
        raise ValueError("interaction epsilon must match the requested eps")
    return smatrix_from_evolution(vi, ode_evolution(vi, -t_horizon, t_horizon, tol), family)
