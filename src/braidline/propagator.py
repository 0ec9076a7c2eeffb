"""Free-particle propagator kernels, causal wrapping, composition,
residual checks and conjugation.

Kernel matrices are stored weight-free: K[x, y] with x the target point and
y the source point, applied through the Jackson-weighted contraction
(K f)(x) = sum_y K[x, y] w(y) f(y).  The four variants share one evolution
phase exp(-i E (t_target - t_source)); their displayed source-time scalings
cancel against the scaled momentum labels (that cancellation is exactly the
boundary-limit argument), so a variant name only selects the geometry and
the conjugation flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .basis import WaveBasis, mirror_block, spectral_block
from .qcalc import G1, G2

# variant name -> (family, starred, primed)
VARIANTS = {
    "K1prime": (1, False, True),
    "K2": (2, False, False),
    "K1star": (1, True, False),
    "K2starPrime": (2, True, True),
    # conjugation partners of the four canonical kernels
    "K1": (1, False, False),
    "K2prime": (2, False, True),
    "K1starPrime": (1, True, True),
    "K2star": (2, True, False),
}

CAUSALITY_NONE = "none"
RETARDED = "retarded"
ADVANCED = "advanced"


def heaviside(t: float) -> float:
    """theta(t) = 1 for t >= 0, else 0.  The t = 0 slice is included."""
    return 1.0 if t >= 0.0 else 0.0


@dataclass(eq=False)
class PropagatorKernel:
    """A kernel K[x, y] that stores one array: its N x N matrix or, for a free kernel,
    its half x half positive-branch block B, made read-only.  K is then B on x, y > 0,
    J B J on x, y < 0 (J the point reversal) and +0 across the branches.  The B of a
    ``free_propagator`` kernel is complex, except at equal times: there it is the
    basis's float64 ``delta_block``.  ``matrix`` is K as an N x N array of B's type,
    built from B on every read of a block kernel and read-only, so it lives only as long
    as its reader keeps it."""

    basis: WaveBasis
    variant: str
    t_source: float
    t_target: float
    stored: np.ndarray = field(repr=False)
    tilde: bool = False
    causality: str = CAUSALITY_NONE

    def __post_init__(self) -> None:
        n = self.basis.lattice.size
        if np.shape(self.stored) not in ((n, n), (n // 2, n // 2)):
            raise ValueError(f"a kernel stores its {n} x {n} matrix or its {n // 2} x {n // 2} "
                             f"positive-branch block, not an array of shape "
                             f"{np.shape(self.stored)}")
        if self.block is not None:
            self.stored.flags.writeable = False

    @property
    def block(self) -> np.ndarray | None:
        """The positive-branch block B of a block kernel; None for a dense one."""
        return self.stored if len(self.stored) < self.basis.lattice.size else None

    @property
    def matrix(self) -> np.ndarray:
        if self.block is None:
            return self.stored
        out = mirror_block(self.stored)
        out.flags.writeable = False
        return out


def _phase_sign(tilde: bool) -> float:
    # Tilde partners carry the conjugate phase convention (positive energy
    # travelling backwards in time).
    return 1.0 if tilde else -1.0


def _check_variant(basis: WaveBasis, variant: str) -> None:
    """Refuse an unknown variant or one of the other geometry."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    expected = G1 if VARIANTS[variant][0] == 1 else G2
    if basis.ctx.geometry != expected:
        raise ValueError(f"variant {variant} belongs to geometry {expected}, "
                         f"basis context is {basis.ctx.geometry}")


def free_propagator(
    basis: WaveBasis,
    variant: str,
    t_source: float,
    t_target: float,
    tilde: bool = False,
) -> PropagatorKernel:
    """Spectral kernel evolving the source slice to the target slice; the modes
    are real, so a tilde kernel differs only in its phase sign.  An equal-time kernel,
    whose phase is exactly 1+0j, stores ``basis.delta_block`` itself: real, shared, no copy."""
    _check_variant(basis, variant)
    lag = float(t_target) - float(t_source)
    for name, t in (("t_source", t_source), ("t_target", t_target), ("t_target - t_source", lag)):
        if not np.isfinite(t):
            raise ValueError(f"{name} must be finite: {t!r}")
    stored = basis.delta_block if lag == 0 else spectral_block(
        basis, np.exp(_phase_sign(tilde) * 1j * basis.energies * lag))
    return PropagatorKernel(
        basis=basis, variant=variant, t_source=t_source, t_target=t_target,
        stored=stored, tilde=tilde, causality=CAUSALITY_NONE,
    )


def make_retarded(kernel: PropagatorKernel) -> PropagatorKernel:
    """Multiply by theta(t_target - t_source): share the bare kernel, or exact zeros."""
    if kernel.causality != CAUSALITY_NONE:
        raise ValueError("kernel already causal")
    theta = heaviside(kernel.t_target - kernel.t_source)
    stored = kernel.stored if theta else np.zeros_like(kernel.stored)
    return replace(kernel, stored=stored, causality=RETARDED)


def make_advanced(kernel: PropagatorKernel) -> PropagatorKernel:
    """Time-reflected counterpart K_-(t_y, t_x) = K_+(-t_y, -t_x), gated by theta as in
    make_retarded: the bare kernel's conjugate (the free modes are real), or exact zeros."""
    if kernel.causality != CAUSALITY_NONE:
        raise ValueError("kernel already causal")
    stored = np.conj(kernel.stored) if heaviside(kernel.t_source - kernel.t_target) else (
        np.zeros(kernel.stored.shape, dtype=complex))
    return replace(kernel, stored=stored, causality=ADVANCED)


def compose(k1: PropagatorKernel, k2: PropagatorKernel) -> PropagatorKernel:
    """Jackson-weighted composition of k1 (earlier) with k2 (later).

    The starred variants' kappa-scaled intermediate coordinate needs no
    factor: the kernel prefactor kappa**n cancels the measure Jacobian
    kappa**-n, leaving the plain weighted product: the half-size B2 W+ B1 of two
    block kernels, a block kernel, or else the dense K2 W K1.
    """
    if k1.basis is not k2.basis and k1.basis.lattice != k2.basis.lattice:
        raise ValueError("basis mismatch")
    if k1.variant != k2.variant or k1.tilde != k2.tilde:
        raise ValueError("variant mismatch")
    if k1.t_target != k2.t_source:
        raise ValueError("intermediate times do not match")
    w = k1.basis.weights
    if k1.block is not None and k2.block is not None:
        stored = k2.block @ (w[len(w) // 2:, None] * k1.block)
    else:
        stored = k2.matrix @ (w[:, None] * k1.matrix)
    causality = k1.causality if k1.causality == k2.causality else CAUSALITY_NONE
    return PropagatorKernel(
        basis=k1.basis, variant=k1.variant,
        t_source=k1.t_source, t_target=k2.t_target,
        stored=stored, tilde=k1.tilde, causality=causality,
    )


def schrodinger_residual(kernel: PropagatorKernel) -> float:
    """|| i d_t K - (+-) H0 K ||_F with the analytic time derivative.

    A kernel with phase exp(s i E dt) satisfies i d_t K = -s H0 K: retarded and
    bare kernels the +H0 equation, advanced and tilde kernels each flip the
    sign once.  Must be called off the source slice.

    As |s| = 1 the norm is || H0 W K + s i d_t K ||.  H0 and i d_t K never couple the
    mirrored half-lines: each is one positive-branch block, h0 (one ``syrk`` on the
    nonnegative energies) and dk = s i d_t K, and its reversal J h0 J, J dk J on the
    negative branch.  Residual block (r, c) is h0 W_r K_rc, plus dk when r = c; on the
    negative rows it is J (h0 J W_r K_rc J + dk) J, whose norm is that of the term in
    brackets.  Each product is one real GEMM on the float view of W K.  A block kernel has
    one such term, on the positive rows, which its negative rows repeat bit for bit, so it
    is counted twice.  A dense kernel sums the squared norms over its four blocks.
    """
    if kernel.t_target == kernel.t_source:
        raise ValueError("residual undefined on the source slice")
    dt = kernel.t_target - kernel.t_source
    theta = {RETARDED: heaviside(dt), ADVANCED: heaviside(-dt)}.get(kernel.causality, 1.0)
    s = _phase_sign(kernel.tilde) * (-1.0 if kernel.causality == ADVANCED else 1.0)
    b, e = kernel.basis, kernel.basis.energies
    h0 = spectral_block(b, e)
    # s i d_t K: i d_t on exp(s i E dt) brings down -s E, and s s = 1
    dk = spectral_block(b, -theta * e * np.exp(s * 1j * e * dt))
    half, w = len(h0), b.weights

    def squared_norm(w_r, k_rc, diagonal):
        y = (h0 @ np.multiply(w_r[:, None], k_rc, dtype=complex).view(float)).view(complex)
        if diagonal:
            y += dk
        return np.vdot(y, y).real

    if kernel.block is not None:
        return float(np.sqrt(2.0 * squared_norm(w[half:], kernel.block, True)))
    k, neg, pos = kernel.matrix, slice(None, half), slice(half, None)
    terms = []
    for r, c in product((neg, pos), (neg, pos)):
        rev = slice(None, None, -1 if r == neg else 1)
        terms.append(squared_norm(w[r][rev], k[r, c][rev, rev], r == c))
    return float(np.sqrt(sum(terms)))


def source_term(kernel: PropagatorKernel) -> np.ndarray:
    """Delta source of the causal Schroedinger equation, plain and tilde alike: i times
    the jump of the retarded kernel at the source slice, i.e. i times the Jackson
    delta diag(1/w) (kappa**n cancels the delta's Jacobian kappa**-n)."""
    return 1j * np.diag(1.0 / kernel.basis.weights)


def conjugate_kernel(kernel: PropagatorKernel) -> PropagatorKernel:
    """Entrywise conjugate; toggles the tilde and prime flags.

    The conjugate of each kernel is its tilde partner with the prime
    toggled, evaluated at the same arguments (the displayed time
    reflections are internal to the partner's definition).  The map is an
    involution.
    """
    return replace(kernel, stored=np.conj(kernel.stored),
                   variant=conjugation_partner(VARIANTS, kernel.variant), tilde=not kernel.tilde)


def conjugation_partner(table: dict, name: str) -> str:
    """The name in ``table`` (``VARIANTS`` or ``S_FAMILIES``) whose flags are those
    of ``name`` with the last one, the prime, toggled."""
    *flags, primed = table[name]
    return next(other for other, key in table.items() if key == (*flags, not primed))
