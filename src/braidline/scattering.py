"""Potentials, Born series, Lippmann-Schwinger solver, interacting Green's
functions, momentum-basis S-matrices and unitarity diagnostics.

Infinite-time limits are regularised by adiabatic switching exp(-eps|t|);
the time integrals are evaluated in closed form, producing the uniform
energy denominators 1/(E - E' + i eps).  On the discrete spectrum the
on-shell energy delta is realised as the Lorentzian
delta_eps(x) = (eps/pi) / (x**2 + eps**2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

from .basis import CoefficientVector, WaveBasis
from .propagator import PropagatorKernel, conjugation_partner

H_PLAIN = "H"
H_PRIME = "Hprime"
H_DOUBLE_PRIME = "Hdoubleprime"


def variant_scale(variant: str, ctx) -> float:
    """Free-part scale: 1 for H, q**-zeta for H', q**zeta for H''."""
    if variant == H_PLAIN:
        return 1.0
    if variant == H_PRIME:
        return float(ctx.q ** -ctx.zeta)
    if variant == H_DOUBLE_PRIME:
        return float(ctx.q ** ctx.zeta)
    raise ValueError(f"unknown Hamiltonian variant {variant!r}")


def variant_basis(basis: WaveBasis, variant: str) -> WaveBasis:
    """The free basis of the variant's s*H0: the modes, weights, lattice, ctx and
    momentum labels of ``basis``, with the energies E' = s p**2/2m."""
    return replace(basis, energies=variant_scale(variant, basis.ctx) * basis.energies)


@dataclass
class Potential:
    """Position-diagonal interaction with adiabatic switching.

    ``values`` holds one (possibly complex) entry per lattice point; the
    operator is Hermitian exactly when all values are real.  ``epsilon``
    is the switching rate of the time envelope exp(-eps|t|).
    """

    values: np.ndarray
    epsilon: float = 0.0
    strength: float = 1.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        if not 0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be nonnegative and finite: {self.epsilon!r}")

    @property
    def is_hermitian(self) -> bool:
        return not bool(np.any(self.values.imag))

    def matrix(self, basis: WaveBasis) -> np.ndarray:
        """V in the energy basis: V_{pp'} = <u_p, V u_{p'}>."""
        if self.values.shape != (basis.lattice.size,):
            raise ValueError("potential values must match the lattice")
        u = basis.vectors
        return u.conj().T @ ((basis.weights * self.strength * self.values)[:, None] * u)


class ModePotential:
    """Interaction specified directly by its energy-basis matrix.

    Useful for coupling a restricted set of modes; interchangeable with
    Potential wherever only the energy-basis matrix is consumed.
    """

    def __init__(self, matrix: np.ndarray, epsilon: float = 0.0):
        self._matrix = np.asarray(matrix, dtype=complex)
        self.epsilon = float(epsilon)
        if not 0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be nonnegative and finite: {self.epsilon!r}")

    @property
    def is_hermitian(self) -> bool:
        return bool(np.array_equal(self._matrix, self._matrix.conj().T))

    def matrix(self, basis: WaveBasis) -> np.ndarray:
        if self._matrix.shape != (basis.size, basis.size):
            raise ValueError("matrix size must match the mode count")
        return self._matrix


def gaussian_width_ok(width: float) -> bool:
    """Whether 2 * width**2 is a positive normal float, so no Gaussian value is NaN."""
    return width > 0 and np.finfo(float).tiny <= 2.0 * width * width < np.inf


def gaussian_potential(lattice, strength: float, width: float = 1.0,
                       center: float = 0.0, epsilon: float = 0.0) -> Potential:
    if not gaussian_width_ok(width):
        raise ValueError(f"width must be positive with 2 * width**2 a normal float: {width!r}")
    with np.errstate(over="ignore"):
        vals = np.exp(-np.square(lattice.points - center) / (2.0 * np.square(width)))
    return Potential(values=vals, epsilon=epsilon, strength=strength)


# ---------------------------------------------------------------------------
# Lippmann-Schwinger / Born

# largest admitted condition number of a Lippmann-Schwinger system, and the
# refinement target max|R[:, k]| <= 64 eps_mach max|V| in machine epsilons
COND_LIMIT = 1e12
RESIDUAL_ULPS = 64


def lippmann_schwinger_solve(
    v: Potential, basis: WaveBasis, energy, eps: float, diagnostics: dict | None = None,
) -> np.ndarray:
    """Solve T = V + V R0(E + i eps) T for every column in one decomposition.

    ``energy`` holds one energy per column and a scalar broadcasts, so a
    scalar gives the full T(E) while the on-shell energies give column k of
    T(E_k) in column k.  R0 is diagonal with entries 1/(E - E_p + i eps) for
    the energies E_p of ``basis``: retarded for eps > 0, advanced for eps < 0.

    With H = H0 + V = W diag(lam) W^-1 (``_eigen``), the resolvent identity gives
    (I - V R0(z))^-1 = I + V W g W^-1 with g = 1/(z - lam), so every column
    is T = V + (V W)(g o W^-1 V).  Rounding in W grows with the top of the
    spectrum, so T is refined against the exact residual
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
    vm, m, ep = v.matrix(basis), basis.size, basis.energies
    z = np.broadcast_to(np.asarray(energy, dtype=float), (m,)) + 1j * eps
    r0 = 1.0 / (z[None, :] - ep[:, None])  # R0[p, k] at the energy of column k
    lam, w, w_inv, kappa = _eigen(np.diag(ep) + vm, v.is_hermitian)
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


def born_radius(v: Potential, basis: WaveBasis, energy: float, eps: float) -> float:
    """Spectral radius rho of the Born iteration operator V R0(E + i eps)."""
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite: {eps!r}")
    r0 = 1.0 / (energy - basis.energies + 1j * eps)
    return float(np.max(np.abs(np.linalg.eigvals(v.matrix(basis) * r0[None, :]))))


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
    phi: CoefficientVector, v: Potential, order: int, times: np.ndarray | None = None,
) -> list[CoefficientVector]:
    """Order-N Born series in the energy basis, closed-form time integrals.

    Each incoming mode q contributes the iteration (R0(E_q) V)^n with
    uniform denominators 1/(E_q - E_p + i eps).  Order 0 is the free
    solution with its phase attached.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if v.epsilon <= 0 and order > 0:
        raise ValueError("adiabatic epsilon must be positive for the Born series")
    basis = phi.basis
    vm = v.matrix(basis)
    e = basis.energies
    c_total = phi.values.astype(complex).copy()
    for jq in np.nonzero(np.abs(phi.values) > 0)[0]:
        r0 = 1.0 / (e[jq] - e + 1j * v.epsilon)
        m = r0[:, None] * vm
        term = np.zeros(basis.size, dtype=complex)
        term[jq] = phi.values[jq]
        for _ in range(order):
            term = m @ term
            c_total += term
    if times is None:
        times = np.array([0.0])
    e_in = _incoming_energy(phi)
    out = []
    for t in np.asarray(times, dtype=float):
        phase = np.exp(-1j * e_in * t)
        out.append(CoefficientVector(basis, phase * c_total, time=float(t)))
    return out


def _incoming_energy(phi: CoefficientVector) -> float:
    idx = np.nonzero(np.abs(phi.values) > 0)[0]
    if idx.size == 0:
        return 0.0
    weights = np.abs(phi.values[idx]) ** 2
    return float(np.sum(weights * phi.basis.energies[idx]) / np.sum(weights))


# ---------------------------------------------------------------------------
# Interacting Green's functions

@dataclass
class FullGreen:
    kernel: PropagatorKernel
    potential: Potential
    order: int | None  # None means exact


def full_green(
    v: Potential, basis: WaveBasis, order: int | None,
    t_source: float, t_target: float, prop_variant: str = "K1prime",
) -> FullGreen:
    """Retarded interacting kernel G = K + (-i) int K V G dt.

    Iterating generates the interacting evolution; ``order`` truncates the
    expansion in powers of V (each iterated time integral is evaluated
    exactly through a block matrix exponential), while ``order=None``
    gives the full evolution W exp(-i lam dt) W^-1 from the eigenbasis of
    H0 + V.
    """
    vm, e = v.matrix(basis), basis.energies
    dt = t_target - t_source
    if dt < 0:
        mat_modes = np.zeros_like(vm)
    elif order is None:
        lam, w, w_inv, _ = _eigen(np.diag(e) + vm, v.is_hermitian)
        mat_modes = (w * np.exp(-1j * lam * dt)) @ w_inv
    else:
        mat_modes = _dyson_blocks(e, vm, -1j, 0.0, dt, order).sum(axis=0)
    u = basis.vectors
    mat = u @ mat_modes @ u.conj().T
    kern = PropagatorKernel(
        basis=basis, variant=prop_variant, t_source=t_source,
        t_target=t_target, matrix=mat, tilde=False, causality="retarded",
    )
    return FullGreen(kernel=kern, potential=v, order=order)


def _dyson_blocks(e: np.ndarray, w: np.ndarray, c: complex, rate: float, h: float,
                  order: int) -> np.ndarray:
    """The (0, k) blocks, k = 0..order, of expm(h M), stacked on axis 0.

    M is block-bidiagonal: diagonal blocks -i diag(e) - k*rate, superdiagonal
    blocks c*w.  Block k is exactly the k-th term of the Dyson series of
    U' = (-i diag(e) + c exp(-rate tau) w) U on [0, h] (C. Van Loan,
    "Computing integrals involving the matrix exponential", IEEE TAC 23,
    1978): the free phases are carried exactly, at any step length.
    """
    m, nb = e.size, order + 1
    big = (np.diag(np.tile(-1j * e, nb) - rate * np.repeat(np.arange(nb), m))
           + np.kron(np.eye(nb, k=1), c * w))
    return expm(h * big)[:m].reshape(m, nb, m).transpose(1, 0, 2)


def green_residual(g: FullGreen) -> float:
    """|| i d_t G - (H0 + V) G ||_F of an exact-order kernel off the source
    slice, with i d_t G = theta(dt) W lam exp(-i lam dt) W^-1 analytic through
    the eigenbasis of the full Hamiltonian."""
    dt = g.kernel.t_target - g.kernel.t_source
    if g.order is not None or dt == 0:
        raise ValueError("residual check requires the exact kernel off the source slice")
    basis = g.kernel.basis
    h = np.diag(basis.energies) + g.potential.matrix(basis)
    u = basis.vectors
    lhs = u @ (h @ (u.conj().T @ (basis.weights[:, None] * g.kernel.matrix)))  # (H0 + V) G
    rhs = 0.0  # on the causal zero side
    if dt > 0:
        lam, w, w_inv, _ = _eigen(h, g.potential.is_hermitian)
        rhs = u @ ((w * (lam * np.exp(-1j * lam * dt))) @ w_inv) @ u.conj().T
    return float(np.linalg.norm(lhs - rhs))


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

@dataclass
class SMatrix:
    """An S-matrix with its labels.  ``diagnostics`` holds the health of the
    solve that built it (see ``lippmann_schwinger_solve``) and is never written
    to a report, so reports stay byte-identical from run to run."""

    basis: WaveBasis
    matrix: np.ndarray
    family: str
    epsilon: float
    tilde: bool = False
    diagnostics: dict = field(default_factory=dict)


def smatrix_momentum(
    v: Potential, basis: WaveBasis, family: str, eps: float, tilde: bool = False,
) -> SMatrix:
    """S_{pp'} = delta - sigma 2 pi i delta_eps(E_p - E_p') T_{pp'}(E_p' + i sigma eps).

    sigma is the family's time sign: S+ from the retarded T for +1, S- = (S+)^-1
    from the advanced T for -1, as U(T, -T) and its inverse in the interaction
    picture.  A tilde partner solves the conjugated equations on its own:
    conj(V), sigma flipped and the transposed placement.
    """
    if family not in S_FAMILIES:
        raise ValueError(f"unknown S-matrix family {family!r}")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite: {eps!r}")
    sigma = -S_FAMILIES[family][1] if tilde else S_FAMILIES[family][1]
    e = basis.energies
    # the tilde route's conj(V) keeps the Hermitian flag of V, so both solve alike
    conj_v = SimpleNamespace(matrix=lambda b: np.conj(v.matrix(b)), is_hermitian=v.is_hermitian)
    diagnostics: dict = {}
    t_mat = lippmann_schwinger_solve(conj_v if tilde else v, basis, e, sigma * eps, diagnostics)
    # beyond eps ~ 1e154 eps**2 overflows to inf and delta_eps to its limit 0
    with np.errstate(over="ignore"):
        lor = (eps / np.pi) / ((e[:, None] - e[None, :]) ** 2 + np.square(eps))
    step = sigma * 2j * np.pi * lor * t_mat
    s = np.eye(basis.size) - (step.T if tilde else step)
    return SMatrix(basis=basis, matrix=s, family=family, epsilon=eps, tilde=tilde,
                   diagnostics=diagnostics)


def conjugate_smatrix(s: SMatrix) -> SMatrix:
    """Entrywise conjugate with transposed labels; toggles tilde and prime."""
    return SMatrix(basis=s.basis, matrix=np.conj(s.matrix).T,
                   family=conjugation_partner(S_FAMILIES, s.family), epsilon=s.epsilon,
                   tilde=not s.tilde, diagnostics=dict(s.diagnostics))


def transition_probability(s: SMatrix, i: int, j: int) -> float:
    """omega = conj(S_{pp'}) S_{pp'}; real and nonnegative by construction."""
    amp = s.matrix[i, j]
    return float(np.real(np.conj(amp) * amp))


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
