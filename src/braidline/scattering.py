"""Potentials, Born series, Lippmann-Schwinger solver, interacting Green's
functions, momentum-basis S-matrices and unitarity diagnostics.

Infinite-time limits are regularised by adiabatic switching exp(-eps|t|);
the time integrals are evaluated in closed form, producing the uniform
energy denominators 1/(E - E' + i eps).  On the discrete spectrum the
on-shell energy delta is realised as the Lorentzian
delta_eps(x) = (eps/pi) / (x**2 + eps**2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .basis import CoefficientVector, WaveBasis
from .propagator import PropagatorKernel

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
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    @property
    def is_hermitian(self) -> bool:
        return bool(np.allclose(self.values.imag, 0.0))

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
        self.strength = 1.0

    @property
    def is_hermitian(self) -> bool:
        return bool(np.allclose(self._matrix, self._matrix.conj().T))

    @property
    def values(self) -> np.ndarray:  # conjugation support
        return self._matrix

    def matrix(self, basis: WaveBasis) -> np.ndarray:
        if self._matrix.shape != (basis.size, basis.size):
            raise ValueError("matrix size must match the mode count")
        return self._matrix


def gaussian_potential(lattice, strength: float, width: float = 1.0,
                       center: float = 0.0, epsilon: float = 0.0) -> Potential:
    x = lattice.points
    vals = np.exp(-((x - center) ** 2) / (2.0 * width ** 2))
    return Potential(values=vals, epsilon=epsilon, strength=strength)


# ---------------------------------------------------------------------------
# Lippmann-Schwinger / Born

def lippmann_schwinger_solve(
    v: Potential, basis: WaveBasis, energy: float, eps: float,
    variant: str = H_PLAIN,
) -> tuple[np.ndarray, float]:
    """Solve T = V + V R0(E + i eps) T as a dense linear system.

    R0 is diagonal with entries 1/(E - scale*E_p + i eps).  Returns the
    T-matrix and the spectral radius of the Born iteration operator V R0.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    t, iteration = _guarded_ls_solve(v.matrix(basis), basis, energy, eps, variant)
    rho = float(np.max(np.abs(np.linalg.eigvals(iteration))))
    return t, rho


def _guarded_ls_solve(vm: np.ndarray, basis: WaveBasis, energy: float,
                      eps: float, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """T = (I - V R0)^-1 V with R0 = 1/(E - scale*E_p + i eps), and V R0.

    A negative ``eps`` gives the conjugated resolvent of the tilde route.
    Singular systems are reported with a condition estimate, never
    silently regularised.
    """
    scale = variant_scale(variant, basis.ctx)
    r0 = 1.0 / (energy - scale * basis.energies + 1j * eps)
    iteration = vm * r0[None, :]
    lhs = np.eye(basis.size, dtype=complex) - iteration
    cond = np.linalg.cond(lhs)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(
            f"Lippmann-Schwinger system is ill conditioned (cond={cond:.3e})"
        )
    return np.linalg.solve(lhs, vm), iteration


def born_wavefunction(
    phi: CoefficientVector, v: Potential, order: int,
    variant: str = H_PLAIN, times: np.ndarray | None = None,
) -> list[CoefficientVector]:
    """Order-N Born series in the energy basis, closed-form time integrals.

    Each incoming mode q contributes the iteration (R0(E_q) V)^n with
    uniform denominators 1/(scale*(E_q - E_p) + i eps).  Order 0 is the
    free solution with the variant's scaled phase attached.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if v.epsilon <= 0 and order > 0:
        raise ValueError("adiabatic epsilon must be positive for the Born series")
    basis = phi.basis
    scale = variant_scale(variant, basis.ctx)
    vm = v.matrix(basis)
    e = basis.energies
    c_total = phi.values.astype(complex).copy()
    for jq in np.nonzero(np.abs(phi.values) > 0)[0]:
        r0 = 1.0 / (scale * (e[jq] - e) + 1j * v.epsilon)
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
        phase = np.exp(-1j * scale * e_in * t)
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
    variant: str
    order: int | None  # None means exact


def full_green(
    v: Potential, basis: WaveBasis, variant: str, order: int | None,
    t_source: float, t_target: float, prop_variant: str = "K1prime",
) -> FullGreen:
    """Retarded interacting kernel G = K + (-i) int K V G dt.

    Iterating generates the interacting evolution; ``order`` truncates the
    expansion in powers of V (each iterated time integral is evaluated
    exactly through a block matrix exponential), while ``order=None``
    solves the full system by propagating with scale*H0 + V.
    """
    scale = variant_scale(variant, basis.ctx)
    vm = v.matrix(basis)
    e = scale * basis.energies
    dt = t_target - t_source
    m = basis.size
    if dt < 0:
        mat_modes = np.zeros((m, m), dtype=complex)
    elif order is None:
        h = np.diag(e).astype(complex) + vm
        mat_modes = expm(-1j * h * dt)
    else:
        mat_modes = _born_green_modes(vm, e, dt, order)
    u = basis.vectors
    mat = u @ mat_modes @ u.conj().T
    kern = PropagatorKernel(
        basis=basis, variant=prop_variant, t_source=t_source,
        t_target=t_target, matrix=mat, tilde=False, causality="retarded",
    )
    return FullGreen(kernel=kern, potential=v, variant=variant, order=order)


def _born_green_modes(vm: np.ndarray, e: np.ndarray, dt: float, order: int) -> np.ndarray:
    """Sum of the first ``order`` iterated time integrals, evaluated exactly.

    Uses the block-bidiagonal exponential: for M with diagonal blocks
    -i diag(e) and superdiagonal blocks -i V, the (0, n) block of exp(M t)
    is exactly the n-th nested integral of the expansion.
    """
    m = e.size
    nb = order + 1
    big = np.zeros((nb * m, nb * m), dtype=complex)
    d = -1j * np.diag(e)
    n = -1j * vm
    for b in range(nb):
        big[b * m:(b + 1) * m, b * m:(b + 1) * m] = d
        if b + 1 < nb:
            big[b * m:(b + 1) * m, (b + 1) * m:(b + 2) * m] = n
    full = expm(big * dt)
    out = np.zeros((m, m), dtype=complex)
    for b in range(nb):
        out += full[0:m, b * m:(b + 1) * m]
    return out


def green_residual(g: FullGreen) -> float:
    """|| i d_t G - (scale*H0 + V) G ||_F off the source slice.

    Only defined for exact-order kernels, whose time derivative is
    analytic through the full Hamiltonian.
    """
    if g.order is not None:
        raise ValueError("residual check requires the exact kernel")
    basis = g.kernel.basis
    scale = variant_scale(g.variant, basis.ctx)
    vm = g.potential.matrix(basis)
    h = np.diag(scale * basis.energies).astype(complex) + vm
    u = basis.vectors
    coeff = u.conj().T @ (basis.weights[:, None] * g.kernel.matrix)
    lhs = u @ (h @ coeff)  # (scale*H0 + V) G
    # i d_t G = H G holds analytically; measure the reconstruction error
    dt = g.kernel.t_target - g.kernel.t_source
    dmodes = h @ expm(-1j * h * dt)
    rhs = u @ dmodes @ u.conj().T
    return float(np.linalg.norm(lhs - rhs))


# ---------------------------------------------------------------------------
# S-matrices

# family -> (geometry family, time sign, starred, primed).  The families'
# kappa shifts of the momentum label cancel against their measure
# Jacobians, so a family only selects the time sign of the Dyson window.
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

S_CONJ_PARTNERS = {
    "S2minus": "S2minusPrime",
    "S1starPlus": "S1starPlusPrime",
    "S1plusPrime": "S1plus",
    "S2starMinusPrime": "S2starMinus",
}
S_CONJ_PARTNERS.update({v: k for k, v in S_CONJ_PARTNERS.items()})


@dataclass
class SMatrix:
    ctx: object
    basis: WaveBasis
    matrix: np.ndarray
    family: str
    epsilon: float
    tilde: bool = False


def smatrix_momentum(
    v: Potential, basis: WaveBasis, family: str, eps: float,
    variant: str = H_PLAIN, tilde: bool = False,
) -> SMatrix:
    """S_{pp'} = delta - 2 pi i delta_eps(E_p - E_p') T_{pp'}(E_p' + i eps).

    Tilde partners are built independently through the conjugated
    equations: conjugated potential, resolvent at E - i eps and transposed
    placement with the opposite sign of 2 pi i.
    """
    if family not in S_FAMILIES:
        raise ValueError(f"unknown S-matrix family {family!r}")
    e = basis.energies
    scale = variant_scale(variant, basis.ctx)
    m = basis.size
    s = np.eye(m, dtype=complex)
    if not tilde:
        for col in range(m):
            t_mat, _ = lippmann_schwinger_solve(v, basis, scale * e[col], eps, variant)
            lor = (eps / np.pi) / ((scale * (e - e[col])) ** 2 + eps ** 2)
            s[:, col] -= 2j * np.pi * lor * t_mat[:, col]
    else:
        vm_c = np.conj(v.matrix(basis))
        for row in range(m):
            t_mat, _ = _guarded_ls_solve(vm_c, basis, scale * e[row], -eps, variant)
            lor = (eps / np.pi) / ((scale * (e - e[row])) ** 2 + eps ** 2)
            s[row, :] += 2j * np.pi * lor * t_mat[:, row]
    return SMatrix(ctx=basis.ctx, basis=basis, matrix=s, family=family,
                   epsilon=eps, tilde=tilde)


def conjugate_smatrix(s: SMatrix) -> SMatrix:
    """Entrywise conjugate with transposed labels; toggles tilde and prime."""
    return SMatrix(ctx=s.ctx, basis=s.basis, matrix=np.conj(s.matrix).T,
                   family=S_CONJ_PARTNERS[s.family], epsilon=s.epsilon,
                   tilde=not s.tilde)


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
