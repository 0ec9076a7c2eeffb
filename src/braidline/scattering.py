"""Potentials, the free resolvent, Born series, Lippmann-Schwinger solver,
momentum-basis S-matrices and unitarity diagnostics.

Infinite-time limits are regularised by adiabatic switching exp(-eps|t|);
the time integrals are evaluated in closed form, producing the uniform
energy denominators 1/(E - E' + i eps).  On the discrete spectrum the
on-shell energy delta is realised as the Lorentzian
delta_eps(x) = (eps/pi) / (x**2 + eps**2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .basis import CoefficientVector, WaveBasis, _finite
from .propagator import conjugation_partner
from .qcalc import _integer


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
        """H0 + V with V in the energy basis: V_{pp'} = <u_p, V u_{p'}>.

        On a ``paired`` basis with w V exactly mirrored, V(x) = V(-x), V has exact zeros
        between the parities and its even block is the half-line sum
        V_ee = 2 P^T diag(w V)_+ P, P the positive-branch rows of the even modes; the odd
        block is D V_ee D, D the basis's ``pair_signs``."""
        if self.values.shape != (basis.lattice.size,):
            raise ValueError("potential values must match the lattice")
        u, hermitian = basis.vectors, not np.any(self.values.imag)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            wv = basis.weights * self.strength * self.values
            if basis.paired and np.array_equal(wv, wv[::-1]):
                half = len(u) // 2
                vm = _both_parities(half_line_v(u[half:, 0::2], wv[half:]), basis.pair_signs)
            else:
                vm = u.T @ (wv[:, None] * u)
        if not np.isfinite(vm).all():
            raise np.linalg.LinAlgError(f"V = strength * values overflows in the energy basis "
                                        f"(strength={self.strength!r})")
        return Hamiltonian(basis, vm, self.epsilon, hermitian)


def half_line_v(p: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """2 P^T diag(wv) P: the even block of a mirror-even V from the positive branch, one real
    product for a real wv."""
    if not np.any(wv.imag):
        wv = wv.real
    return 2.0 * (p.T @ (wv[:, None] * p))


def _both_parities(block: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The mode-space matrix with ``block`` on the even modes, D block D on the odd ones
    (D = diag(signs)) and exact zeros between the parities."""
    out = np.zeros((2 * len(block),) * 2, dtype=block.dtype)
    out[0::2, 0::2] = block
    out[1::2, 1::2] = signs[:, None] * block * signs
    return out


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
        if not (self.hermitian is None or isinstance(self.hermitian, (bool, np.bool_))):
            raise ValueError(f"hermitian must be None or a bool: {self.hermitian!r}")
        if self.hermitian is None:
            object.__setattr__(self, "hermitian", bool(np.array_equal(v, v.conj().T)))

    def on(self, basis: WaveBasis) -> Hamiltonian:
        """Itself, or the same V on another basis of its size, decomposed afresh."""
        return self if basis is self.basis else replace(self, basis=basis)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.basis.energies) + self.v

    @cached_property
    def sector(self) -> tuple[Hamiltonian, np.ndarray] | None:
        """(H_e, s) when H is two copies of one half-size H_e, decided exactly, else None.

        H_e is H on the basis's ``even_modes``.  It holds when the basis is ``paired``,
        each +-p pair has one energy, V is exactly zero between the parities, and the odd
        block of V is the even one with the signs s applied on both sides, bit for bit: s
        all ones or the basis's ``pair_signs`` D.  Then H_oo = S H_e S (S = diag(s)), and
        every solve on H is the one on H_e placed on both parities."""
        b, v = self.basis, self.v
        d = b.pair_signs
        if (d is None or not np.array_equal(b.energies[0::2], b.energies[1::2])
                or np.any(v[0::2, 1::2]) or np.any(v[1::2, 0::2])):
            return None
        even, odd = v[0::2, 0::2], v[1::2, 1::2]
        for s in (np.ones_like(d), d):
            if np.array_equal(odd, s[:, None] * even * s):
                half = Hamiltonian(b.even_modes, np.ascontiguousarray(even), self.epsilon,
                                   self.hermitian)
                return half, s
        return None

    @cached_property
    def eigen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(lam, W, W^-1, kappa(W)) of H = W diag(lam) W^-1; see ``_eigen``.  The solves
        that split a ``sector`` decompose its half instead."""
        return _eigen(self.matrix, self.hermitian)

    def at(self, t: float) -> np.ndarray:
        """V_I(t)_{pp'} = exp(i (E_p - E_p') t) V_{pp'} exp(-eps |t|); a t that is not finite,
        or whose phase E t overflows, is refused by name (ValueError)."""
        e = self.basis.energies
        if not math.isfinite(float(np.abs(e).max()) * float(_finite("t", t))):
            raise ValueError(f"t = {t!r} overflows the phase E * t")
        phase = np.exp(1j * e * t)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            out = np.outer(phase, phase.conj()) * self.v * np.exp(-self.epsilon * abs(t))
        if not np.isfinite(out).all():
            raise np.linalg.LinAlgError(f"V_I(t) overflows at t={t!r}")
        return out


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
    bound, the refinement steps, the worst column residual, the direct solves
    and ``parity_sectors``: whether H was a ``Hamiltonian.sector`` with each pair
    of column energies equal, solved once at half size and placed on both parities
    (the other entries are then those of the half-size solve).
    """
    if not 0 < abs(eps) < np.inf:
        raise ValueError(f"eps must be finite and nonzero: {eps!r}")
    h = v.on(basis)
    vm, m = h.v, basis.size
    energy = np.broadcast_to(np.asarray(_finite("energy", energy), dtype=float), (m,))
    if h.sector is not None and np.array_equal(energy[0::2], energy[1::2]):
        half, s = h.sector
        t = _both_parities(lippmann_schwinger_solve(half, half.basis, energy[0::2], eps,
                                                    diagnostics), s)
        if diagnostics is not None:
            diagnostics["parity_sectors"] = True
        return t
    z = energy + 1j * eps
    lam, w, w_inv, kappa = h.eigen
    # an overflowing or infinite bound is refused below, not warned about
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r0 = free_resolvent(basis, energy, eps)  # R0[p, k] at z[k]
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
                           max_residual=float(err.max()), direct_columns=int(direct.size),
                           parity_sectors=False)
    return t


def born_radius(v: Potential | Hamiltonian, basis: WaveBasis, energy: float, eps: float) -> float:
    """Spectral radius rho of the Born iteration operator V R0(E + i eps)."""
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite: {eps!r}")
    h = v.on(basis)
    if h.sector is not None:  # each parity has the spectrum of its half
        return born_radius(h.sector[0], h.sector[0].basis, energy, eps)
    with np.errstate(over="ignore", invalid="ignore"):  # an eps so small that R0 overflows
        op = h.v * free_resolvent(basis, _finite("energy", energy), eps)[None, :]
    if not np.isfinite(op).all():
        raise np.linalg.LinAlgError(f"Born iteration operator V R0 overflows at eps={eps!r}")
    return float(np.max(np.abs(np.linalg.eigvals(op))))


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
    ``phi``.  It costs ``order`` products with V per incoming mode, nothing cubic, so a
    ``Hamiltonian.sector`` is not split here.
    """
    _integer("order", order, 0)
    basis = phi.basis
    h = v.on(basis)
    if h.epsilon <= 0 and order > 0:
        raise ValueError("adiabatic epsilon must be positive for the Born series")
    vm = h.v
    modes = np.nonzero(np.abs(phi.values) > 0)[0]
    c = np.zeros((modes.size, basis.size), dtype=complex)  # row k: the series of modes[k]
    c[np.arange(modes.size), modes] = phi.values[modes]
    # a series that overflows (rho(V R0) >> 1, or an eps so small that R0 does) is refused
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for row, jq in zip(c, modes):
            m = free_resolvent(basis, basis.energies[jq], h.epsilon)[:, None] * vm
            term = row
            for _ in range(order):
                term = m @ term
                row += term
        out = c.sum(axis=0)
    if not np.isfinite(out).all():
        raise np.linalg.LinAlgError(f"Born series of order {order} overflows at "
                                    f"epsilon={h.epsilon!r}")
    return CoefficientVector(basis, out)


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

    def __post_init__(self) -> None:
        if self.family not in S_FAMILIES:
            raise ValueError(f"unknown S-matrix family {self.family!r}")
        self.matrix = square_matrix("matrix", self.matrix)


def square_matrix(name: str, m) -> np.ndarray:
    """``m`` as a finite square array, else refused (ValueError naming ``name``)."""
    m = _finite(name, m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, not of shape {m.shape}")
    return m


def smatrix_momentum(
    v: Potential | Hamiltonian, basis: WaveBasis, family: str, eps: float, tilde: bool = False,
) -> SMatrix:
    """S_{pp'} = delta - sigma 2 pi i delta_eps(E_p - E_p') T_{pp'}(E_p' + i sigma eps).

    sigma is the family's time sign: S+ from the retarded T for +1, S- = (S+)^-1
    from the advanced T for -1, as U(T, -T) and its inverse in the interaction
    picture.  A tilde partner solves the conjugated equations on its own:
    H0 + conj(V), decomposed afresh with the Hermitian flag of V, sigma
    flipped and the transposed placement.  T is one ``lippmann_schwinger_solve`` at the
    on-shell energies, so a ``Hamiltonian.sector``, or its tilde partner's, is solved
    there on its half (diagnostics ``parity_sectors``).
    """
    if family not in S_FAMILIES:
        raise ValueError(f"unknown S-matrix family {family!r}")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite: {eps!r}")
    e, h = basis.energies, v.on(basis)
    sigma = -S_FAMILIES[family][1] if tilde else S_FAMILIES[family][1]
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


def identity_defect(name: str, a: np.ndarray, b: np.ndarray) -> float:
    """||a b - I||_F, refused (LinAlgError naming the product ``name``) if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        d = float(np.linalg.norm(a @ b - np.eye(a.shape[0])))
    if not math.isfinite(d):
        raise np.linalg.LinAlgError(f"{name} - I overflows")
    return d


def unitarity_defect(s: SMatrix) -> float:
    """max(||S S+ - I||_F, ||S+ S - I||_F).

    The family's kappa shift of the summed momentum label cancels against
    the Jacobian of the shifted measure, leaving the plain adjoint pairing.
    """
    mat = s.matrix
    return max(identity_defect("S S+", mat, mat.conj().T),
               identity_defect("S+ S", mat.conj().T, mat))
