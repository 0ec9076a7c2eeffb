"""Potentials, the free resolvent, Born series, Lippmann-Schwinger solver,
momentum-basis S-matrices and unitarity diagnostics.

Infinite-time limits are regularised by adiabatic switching exp(-eps|t|);
the time integrals are evaluated in closed form, producing the uniform
energy denominators 1/(E - E' + i eps).  On the discrete spectrum the
on-shell energy delta is realised as the Lorentzian
delta_eps(x) = (eps/pi) / (x**2 + eps**2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .basis import CoefficientVector, WaveBasis, _finite
from .propagator import conjugation_partner


@dataclass(eq=False)
class Potential:
    """Position-diagonal interaction with adiabatic switching.

    ``values`` holds one (possibly complex) entry per lattice point; the
    operator is Hermitian exactly when all values are real.  ``epsilon``
    is the switching rate of the time envelope exp(-eps|t|).  ``on(basis)``
    is H0 + V on a free basis.
    """

    values: np.ndarray
    epsilon: float = 0.0
    strength: float = 1.0

    def __post_init__(self) -> None:
        self.values = np.asarray(_finite("values", self.values), dtype=complex)
        _finite("strength", self.strength)
        if not 0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be nonnegative and finite: {self.epsilon!r}")

    def on(self, basis: WaveBasis) -> Hamiltonian:
        """H0 + V with V in the energy basis: V_{pp'} = <u_p, V u_{p'}>."""
        if self.values.shape != (basis.lattice.size,):
            raise ValueError("potential values must match the lattice")
        u = basis.vectors
        vm = u.T @ ((basis.weights * self.strength * self.values)[:, None] * u)
        return Hamiltonian(basis, vm, self.epsilon, not np.any(self.values.imag))


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """H = H0 + V on a free basis: V in the energy basis, the switching rate and
    whether V is Hermitian by construction (real values for ``Potential.on``,
    else V == V^H bit for bit).  ``eigen`` decomposes H once, on first use, and
    ``at(t)`` is V in the interaction picture."""

    basis: WaveBasis
    v: np.ndarray
    epsilon: float = 0.0
    hermitian: bool | None = None

    def __post_init__(self) -> None:
        v = np.asarray(_finite("v", self.v), dtype=complex)
        if v.shape != (self.basis.size, self.basis.size):
            raise ValueError("matrix size must match the mode count")
        if not 0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be nonnegative and finite: {self.epsilon!r}")
        object.__setattr__(self, "v", v)
        if self.hermitian is None:
            object.__setattr__(self, "hermitian", bool(np.array_equal(v, v.conj().T)))

    def on(self, basis: WaveBasis) -> Hamiltonian:
        """Itself, or the same V on another basis of its size, decomposed afresh."""
        return self if basis is self.basis else replace(self, basis=basis)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.basis.energies) + self.v

    @cached_property
    def eigen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(lam, W, W^-1, kappa(W)) of H = W diag(lam) W^-1; see ``_eigen``."""
        return _eigen(self.matrix, self.hermitian)

    def at(self, t: float) -> np.ndarray:
        """V_I(t)_{pp'} = exp(i (E_p - E_p') t) V_{pp'} exp(-eps |t|)."""
        phase = np.exp(1j * self.basis.energies * t)
        return np.outer(phase, phase.conj()) * self.v * np.exp(-self.epsilon * abs(t))


def gaussian_width_ok(width: float) -> bool:
    """Whether 2 * width**2 is a positive normal float, so no Gaussian value is NaN."""
    return width > 0 and np.finfo(float).tiny <= 2.0 * width * width < np.inf


def gaussian_potential(lattice, strength: float, width: float = 1.0,
                       center: float = 0.0, epsilon: float = 0.0) -> Potential:
    if not gaussian_width_ok(width):
        raise ValueError(f"width must be positive with 2 * width**2 a normal float: {width!r}")
    _finite("center", center)
    with np.errstate(over="ignore"):
        vals = np.exp(-np.square(lattice.points - center) / (2.0 * np.square(width)))
    return Potential(values=vals, epsilon=epsilon, strength=strength)


# ---------------------------------------------------------------------------
# Lippmann-Schwinger / Born

# largest admitted condition number of a Lippmann-Schwinger system, and the
# refinement target max|R[:, k]| <= 64 eps_mach max|V| in machine epsilons
COND_LIMIT = 1e12
RESIDUAL_ULPS = 64


def free_resolvent(basis: WaveBasis, energy, eps: float) -> np.ndarray:
    """The free resolvent R0(E + i eps) = 1/(E - E_p + i eps) on the energies E_p of
    ``basis``: one entry per mode p for a scalar E, and R0[p, k] at E[k] for an array."""
    z = np.asarray(energy, dtype=float) + 1j * eps
    return 1.0 / (z - basis.energies.reshape(-1, *(1,) * z.ndim))


def lippmann_schwinger_solve(
    v: Potential | Hamiltonian, basis: WaveBasis, energy, eps: float,
    diagnostics: dict | None = None,
) -> np.ndarray:
    """Solve T = V + V R0(E + i eps) T for every column in one decomposition.

    ``energy`` holds one energy per column and a scalar broadcasts, so a
    scalar gives the full T(E) while the on-shell energies give column k of
    T(E_k) in column k.  R0 is diagonal with entries 1/(E - E_p + i eps) for
    the energies E_p of ``basis``: retarded for eps > 0, advanced for eps < 0.

    With H = H0 + V = W diag(lam) W^-1 (``Hamiltonian.eigen``), the resolvent
    identity gives (I - V R0(z))^-1 = I + V W g W^-1 with g = 1/(z - lam), so
    every column is T = V + (V W)(g o W^-1 V).  Rounding in W grows with the
    top of the spectrum, so T is refined against the exact residual
    R = V - T + V (R0 o T) until every column meets 64 eps_mach max|V| or a
    step fails to halve the worst residual; the columns still above it are
    solved directly.

    Before refining, the bound (1 + |V|_F / min_p|z - E_p|) *
    (1 + |V|_F kappa(W) / min|z - lam|) on cond(I - V R0) is checked
    against COND_LIMIT: ill-conditioned systems raise LinAlgError, never
    silently regularised.  ``diagnostics``, if given, receives the worst
    bound, the refinement steps, the worst column residual and the direct solves.
    """
    if not 0 < abs(eps) < np.inf:
        raise ValueError(f"eps must be finite and nonzero: {eps!r}")
    h = v.on(basis)
    vm, m = h.v, basis.size
    energy = np.broadcast_to(np.asarray(_finite("energy", energy), dtype=float), (m,))
    z, r0 = energy + 1j * eps, free_resolvent(basis, energy, eps)  # R0[p, k] at z[k]
    lam, w, w_inv, kappa = h.eigen
    # an overflowing or infinite bound is refused below, not warned about
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = 1.0 / (z[None, :] - lam[:, None])  # g[lam, k]
        v_norm = np.linalg.norm(vm)
        bound = ((1.0 + v_norm * np.max(np.abs(r0), axis=0))
                 * (1.0 + v_norm * kappa * np.max(np.abs(g), axis=0)))
    worst_bound = float(np.max(bound))
    if not np.isfinite(worst_bound) or worst_bound > COND_LIMIT:
        raise np.linalg.LinAlgError(
            f"Lippmann-Schwinger system is ill conditioned (cond bound={worst_bound:.3e})")
    vw = vm @ w

    def correct(r):  # (I + V G(z_k)) r[:, k] for every column k
        return r + vw @ (g * (w_inv @ r))

    def residual_norms(t):
        r = vm - t + vm @ (r0 * t)
        return r, np.max(np.abs(r), axis=0)

    tol = RESIDUAL_ULPS * np.finfo(float).eps * np.max(np.abs(vm))
    t = correct(vm)
    res, err = residual_norms(t)
    steps = 0
    while err.max() > tol:
        trial = t + correct(res)
        trial_res, trial_err = residual_norms(trial)
        if not trial_err.max() <= 0.5 * err.max():
            break
        t, res, err, steps = trial, trial_res, trial_err, steps + 1
    direct = np.nonzero(err > tol)[0]
    for k in direct:
        t[:, k] = _guarded_ls_column(vm, r0[:, k], vm[:, k])
    if direct.size:
        err[direct] = residual_norms(t)[1][direct]
    if diagnostics is not None:
        diagnostics.update(condition_bound=worst_bound, refinement_steps=steps,
                           max_residual=float(err.max()), direct_columns=int(direct.size))
    return t


def born_radius(v: Potential | Hamiltonian, basis: WaveBasis, energy: float, eps: float) -> float:
    """Spectral radius rho of the Born iteration operator V R0(E + i eps)."""
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite: {eps!r}")
    r0 = free_resolvent(basis, _finite("energy", energy), eps)
    return float(np.max(np.abs(np.linalg.eigvals(v.on(basis).v * r0[None, :]))))


def _eigen(h: np.ndarray, hermitian: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(lam, W, W^-1, kappa(W)) of h = H0 + V = W diag(lam) W^-1: ``eigh``
    when V is Hermitian by construction, else ``eig``, refused (LinAlgError)
    when kappa(W) exceeds COND_LIMIT."""
    if hermitian:
        lam, w = np.linalg.eigh(h)
        return lam, w, w.conj().T, 1.0
    lam, w = np.linalg.eig(h)
    kappa = np.linalg.cond(w)
    if not kappa <= COND_LIMIT:  # NaN included
        raise np.linalg.LinAlgError(f"eigenbasis of H0 + V has cond={kappa:.3e}")
    return lam, w, np.linalg.inv(w), kappa


def _guarded_ls_column(vm: np.ndarray, r0: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Dense solve of (I - V R0) t = rhs, refused above COND_LIMIT."""
    lhs = np.eye(vm.shape[0], dtype=complex) - vm * r0[None, :]
    cond = np.linalg.cond(lhs)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise np.linalg.LinAlgError(
            f"Lippmann-Schwinger system is ill conditioned (cond={cond:.3e})")
    return np.linalg.solve(lhs, rhs)


def born_wavefunction(
    phi: CoefficientVector, v: Potential | Hamiltonian, order: int,
) -> CoefficientVector:
    """Order-N Born series of the t = 0 scattering state in the energy basis.

    Each incoming mode q contributes the iteration (R0(E_q) V)^n with the
    uniform denominators 1/(E_q - E_p + i eps) of the closed-form time
    integrals, so order 0 is the incoming state and the series is linear in
    ``phi``.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    basis = phi.basis
    h = v.on(basis)
    if h.epsilon <= 0 and order > 0:
        raise ValueError("adiabatic epsilon must be positive for the Born series")
    vm = h.v
    modes = np.nonzero(np.abs(phi.values) > 0)[0]
    c = np.zeros((modes.size, basis.size), dtype=complex)  # row k: the series of modes[k]
    c[np.arange(modes.size), modes] = phi.values[modes]
    for row, jq in zip(c, modes):
        m = free_resolvent(basis, basis.energies[jq], h.epsilon)[:, None] * vm
        term = row
        for _ in range(order):
            term = m @ term
            row += term
    return CoefficientVector(basis, c.sum(axis=0))


# ---------------------------------------------------------------------------
# S-matrices

# family -> (geometry family, time sign, starred, primed).  The families'
# kappa shifts of the momentum label cancel against their measure
# Jacobians, so a family only selects the time sign of its resolvent and window.
S_FAMILIES = {
    "S2minus": (2, -1, False, False),
    "S1starPlus": (1, +1, True, False),
    "S1plusPrime": (1, +1, False, True),
    "S2starMinusPrime": (2, -1, True, True),
    # conjugation partners
    "S2minusPrime": (2, -1, False, True),
    "S1starPlusPrime": (1, +1, True, True),
    "S1plus": (1, +1, False, False),
    "S2starMinus": (2, -1, True, False),
}

@dataclass(eq=False)
class SMatrix:
    """An S-matrix with its labels.  ``diagnostics`` holds the health of the
    solve that built it (see ``lippmann_schwinger_solve``) and is never written
    to a report, so reports stay byte-identical from run to run."""

    matrix: np.ndarray
    family: str
    tilde: bool = False
    diagnostics: dict = field(default_factory=dict)


def smatrix_momentum(
    v: Potential | Hamiltonian, basis: WaveBasis, family: str, eps: float, tilde: bool = False,
) -> SMatrix:
    """S_{pp'} = delta - sigma 2 pi i delta_eps(E_p - E_p') T_{pp'}(E_p' + i sigma eps).

    sigma is the family's time sign: S+ from the retarded T for +1, S- = (S+)^-1
    from the advanced T for -1, as U(T, -T) and its inverse in the interaction
    picture.  A tilde partner solves the conjugated equations on its own:
    H0 + conj(V), decomposed afresh with the Hermitian flag of V, sigma
    flipped and the transposed placement.
    """
    if family not in S_FAMILIES:
        raise ValueError(f"unknown S-matrix family {family!r}")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite: {eps!r}")
    sigma = -S_FAMILIES[family][1] if tilde else S_FAMILIES[family][1]
    e, h = basis.energies, v.on(basis)
    diagnostics: dict = {}
    t_mat = lippmann_schwinger_solve(replace(h, v=np.conj(h.v)) if tilde else h, basis, e,
                                     sigma * eps, diagnostics)
    # beyond eps ~ 1e154 eps**2 overflows to inf and delta_eps to its limit 0
    with np.errstate(over="ignore"):
        lor = (eps / np.pi) / ((e[:, None] - e[None, :]) ** 2 + np.square(eps))
    step = sigma * 2j * np.pi * lor * t_mat
    s = np.eye(basis.size) - (step.T if tilde else step)
    return SMatrix(matrix=s, family=family, tilde=tilde, diagnostics=diagnostics)


def conjugate_smatrix(s: SMatrix) -> SMatrix:
    """Entrywise conjugate with transposed labels; toggles tilde and prime."""
    return SMatrix(matrix=np.conj(s.matrix).T, family=conjugation_partner(S_FAMILIES, s.family),
                   tilde=not s.tilde, diagnostics=dict(s.diagnostics))


def transition_probability_table(s: SMatrix) -> np.ndarray:
    return np.abs(s.matrix) ** 2


def unitarity_defect(s: SMatrix) -> float:
    """max(||S S+ - I||_F, ||S+ S - I||_F).

    The family's kappa shift of the summed momentum label cancels against
    the Jacobian of the shifted measure, leaving the plain adjoint pairing.
    """
    mat = s.matrix
    ident = np.eye(mat.shape[0])
    d1 = np.linalg.norm(mat @ mat.conj().T - ident)
    d2 = np.linalg.norm(mat.conj().T @ mat - ident)
    return float(max(d1, d2))
