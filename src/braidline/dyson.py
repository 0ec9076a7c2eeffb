"""Interaction picture: the time-evolution operator, stepped with one block
exponential, and the interaction-picture S-matrix.  V_I(t) is ``Hamiltonian.at``.

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

from .qcalc import G1
from .scattering import Hamiltonian, SMatrix, S_FAMILIES, _both_parities

# the benchmark's tracer counts V_I(t) evaluations as InteractionPotential.at
InteractionPotential = Hamiltonian


@dataclass(eq=False)
class EvolutionOperator:
    matrix: np.ndarray
    t_from: float
    t_to: float
    # order (K), steps, tail and coupled_modes, see _integrate, and parity_sectors
    diagnostics: dict = field(default_factory=dict)

    def unitarity_drift(self) -> float:
        u = self.matrix
        return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


# the most sub-steps one evolution takes: a default-scene strength up to ~80
MAX_STEPS = 256
# the finest tail an evolution targets: a tol below it cannot be met
TOL_FLOOR = float(np.finfo(float).eps) / 10


def _dyson_blocks(e: np.ndarray, w: np.ndarray, c: complex, rate: float, h: float,
                  order: int) -> np.ndarray:
    """The (0, k) blocks, k = 0..order, of exp(h M), stacked on axis 0.

    M is block-bidiagonal: diagonal blocks D_k = -i diag(e) - k*rate, superdiagonal
    blocks c*w.  Block k is exactly the k-th Dyson term of U' = (-i diag(e) + c exp(-rate
    tau) w) U on [0, h] (C. Van Loan, IEEE TAC 23, 1978), free phases exact at any step.
    M is never formed; a bound on |h M|_1 that is not finite raises LinAlgError."""
    m, nb = e.size, order + 1
    bound = abs(float(h)) * float(np.abs(e).max(initial=0.0) + order * abs(rate)
                                  + abs(c) * np.abs(w).sum(axis=0).max(initial=0.0))
    if not bound < np.inf:  # NaN included
        raise np.linalg.LinAlgError(f"block exponential bound |h M|_1 <= {bound:.3e} is not finite")
    s = max(0, math.frexp(bound / 2.0)[1])  # x = |h M|_1 / 2^s < 2
    hs, x, p = math.ldexp(h, -s), math.ldexp(bound, -s), 0
    d, cw = hs * (-1j * e - rate * np.arange(nb)[:, None]), hs * c * w
    # Taylor terms of the first block row R, (R M)_k = R_k D_k + R_(k-1) c w, to the least
    # degree p with x^(p+1) / (p+1)! <= 2^-54; as x < 2 the omitted tail is <= 2^-53
    f = term = np.eye(m, dtype=complex) * (np.arange(nb) == 0)[:, None, None]
    while x ** (p + 1) / math.factorial(p + 1) > 2.0 ** -54:
        p += 1
        term = np.concatenate([term[:1] * d[0], term[1:] * d[1:, None, :] + term[:-1] @ cw]) / p
        f = f + term
    # block (r, r+k) = exp(-r rate h) block (0, k): each squaring is F_k <- sum_(j<=k)
    # exp(-j rate h') F_j F_(k-j), one batched matmul, with block 0 reset to the exact
    # exp(-i e h') (A. H. Al-Mohy and N. J. Higham, SIAM J. Matrix Anal. Appl. 31, 2009)
    k, j = np.tril_indices(nb)
    for i in range(s):
        f[0] = np.diag(np.exp(-1j * math.ldexp(hs, i) * e))
        prod = (f[j] @ f[k - j]).reshape(j.size, -1).view(float)
        sel = (k == np.arange(nb)[:, None]) * np.exp(-rate * math.ldexp(hs, i) * j)
        f = (sel @ prod).view(complex).reshape(nb, m, m)
    f[0] = np.diag(np.exp(-1j * h * e))
    return f


def _integrate(h: Hamiltonian, t_from: float, t_to: float, tol: float) -> tuple[np.ndarray, dict]:
    """Time-ordered exponential U to ``tol`` on the modes V couples: (matrix, diagnostics).

    U' = c V_I U in G1 with c = -i, U' = c U V_I in G2 with c = +i.  Outside the
    coupled modes U is the identity, since V_I(t) keeps the zero pattern of V.
    Diagnostics: the order K, the steps, the tail (largest entry of a last block)
    and the coupled modes.  The README's "Interaction picture" sets out the steps,
    K and the refusals.
    """
    idx = np.flatnonzero(np.any(h.v, axis=0) | np.any(h.v, axis=1))
    n = idx.size
    out = np.eye(h.basis.size, dtype=complex)
    if n == 0 or t_from == t_to:
        return out, {"order": 0, "steps": 0, "tail": 0.0, "coupled_modes": n}
    block, left, eps = np.ix_(idx, idx), h.basis.ctx.geometry == G1, h.epsilon

    def env(t):  # int_0^|t| exp(-eps s) ds
        return -math.expm1(-eps * abs(t)) / eps if eps else abs(t)

    sigma, c = (1.0, -1j) if left else (-1.0, 1j)  # G2 is the transposed problem
    e = sigma * h.basis.energies[idx]
    # |t| is monotone on each piece, so the envelope is one exponential there
    pieces = [(t_from, 0.0), (0.0, t_to)] if t_from * t_to < 0 else [(t_from, t_to)]
    vb = h.v[block]
    v_norm = float(np.linalg.norm(vb, 2))  # V is finite; an overflowing norm is inf
    xs = [v_norm * abs(env(b) - env(a)) for a, b in pieces]
    if not sum(xs) <= MAX_STEPS:
        raise np.linalg.LinAlgError(f"|V|_2 = {v_norm:.3e} needs {sum(xs):.3e} steps")
    counts = [max(1, math.ceil(x)) for x in xs]
    x = max(x / k for x, k in zip(xs, counts))
    # the least K with steps * x^K / K! <= tol / 10, no finer than the rounding
    order, bound = 1, sum(counts) * x
    while bound > max(tol / 10, TOL_FLOOR):
        order, bound = order + 1, bound * x / (order + 1)
    acc, tail = None, 0.0
    for (a, b), k in zip(pieces, counts):
        g = np.linspace(env(a), env(b), k + 1)[1:-1]
        ts = [a, *np.copysign(-np.log1p(-eps * g) / eps if eps else g, a + b), b]
        for t0, t1 in zip(ts[:-1], ts[1:]):
            # W at the end nearer t = 0: a step towards it is the transposed
            # problem in reversed time, so no diagonal block of M grows
            dt, grow = t1 - t0, abs(t1) < abs(t0)
            w = h.at(t1 if grow else t0)[block]
            blocks = _dyson_blocks(e, w.T if left == grow else w, c, eps * np.sign(dt), dt, order)
            tail = max(tail, float(np.max(np.abs(blocks[-1]))))
            step = (np.exp(1j * e * dt)[:, None] * blocks).sum(axis=0)
            step = step.T if grow else step
            acc = step if acc is None else step @ acc
    if not tail <= tol:
        raise np.linalg.LinAlgError(f"Dyson order {order} leaves {tail:.3e} > tol={tol:g}")
    out[block] = acc if left else acc.T
    return out, {"order": order, "steps": sum(counts), "tail": tail, "coupled_modes": n}


def ode_evolution(
    h: Hamiltonian, t_from: float, t_to: float, tol: float,
) -> EvolutionOperator:
    """U(t_to, t_from) to ``tol`` >= ``TOL_FLOOR``: sub-steps of the block exponential.
    A ``Hamiltonian.sector`` is evolved once on its half, placed on both parities
    (diagnostics ``parity_sectors``; the others are then the half's)."""
    if not TOL_FLOOR <= tol < np.inf:
        raise ValueError(f"tol must be positive, finite and >= TOL_FLOOR ({TOL_FLOOR!r}): {tol!r}")
    if h.sector is not None:
        half, s = h.sector
        u, diag = _integrate(half, t_from, t_to, tol)
        return EvolutionOperator(_both_parities(u, s), t_from, t_to,
                                 {**diag, "parity_sectors": True})
    u, diag = _integrate(h, t_from, t_to, tol)
    return EvolutionOperator(u, t_from, t_to, {**diag, "parity_sectors": False})


def smatrix_from_evolution(h: Hamiltonian, u: EvolutionOperator, family: str) -> SMatrix:
    """The family's S-matrix from the forward evolution U(T, -T) of ``h``: U for
    time sign +1, the reversed window U(-T, T) = U(T, -T)^-1 for -1 (the
    inverse, not the adjoint, so a non-Hermitian V stays right).  The window
    must be symmetric and switched off at its ends: exp(-eps*T) <= 1e-8."""
    if family not in S_FAMILIES:
        raise ValueError(f"unknown S-matrix family {family!r}")
    if h.epsilon <= 0:
        raise ValueError("eps must be positive")
    if not (u.t_from == -u.t_to and u.t_to > 0):
        raise ValueError(f"window ({u.t_from!r}, {u.t_to!r}) must be (-T, T) with T > 0")
    # T = ln(1e8) / eps itself can round to exp(-eps*T) a few ulps above 1e-8
    if np.exp(-h.epsilon * u.t_to) > 1e-8 * (1 + 1e-12):
        raise ValueError("horizon too short for the requested eps: need exp(-eps*T) <= 1e-8")
    mat = u.matrix if S_FAMILIES[family][1] > 0 else np.linalg.inv(u.matrix)
    return SMatrix(matrix=mat, family=family, tilde=False, diagnostics=dict(u.diagnostics))
