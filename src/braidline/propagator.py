"""Free-particle propagator kernels, causal wrapping, composition,
residual checks and conjugation.

Kernel matrices are stored weight-free: K[x, y] with x the target point and
y the source point, applied through the Jackson-weighted contraction
(K f)(x) = sum_y K[x, y] w(y) f(y).  The four variants share one evolution
phase exp(-i E (t_target - t_source)), formed per time; their displayed source-time scalings
cancel against the scaled momentum labels (that cancellation is exactly the
boundary-limit argument), so a variant name only selects the geometry and
the conjugation flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    """A kernel K[x, y], stored as its half x half positive-branch block B alone, made
    read-only: K is B on x, y > 0, J B J on x, y < 0 (J the point reversal) and +0 across
    the branches, as for every spectral sum over the real free modes.  B is complex,
    except at equal times, where a ``free_propagator`` kernel stores the basis's float64
    ``delta_block``.  ``matrix`` is K as a new read-only N x N array of B's type, built on
    every read, so it lives only as long as its reader keeps it."""

    basis: WaveBasis
    variant: str
    t_source: float
    t_target: float
    block: np.ndarray = field(repr=False)
    tilde: bool = False
    causality: str = CAUSALITY_NONE

    def __post_init__(self) -> None:
        _check_variant(self.basis, self.variant)
        _lag(self.basis, self.t_source, self.t_target)
        half, b = self.basis.lattice.size // 2, self.block
        if not (isinstance(b, np.ndarray) and b.dtype in (np.float64, np.complex128)
                and b.shape == (half, half)):
            raise ValueError(f"block must be the {half} x {half} float64 or complex128 "
                             f"positive-branch block, not {getattr(b, 'dtype', type(b))} "
                             f"of shape {np.shape(b)}")
        b.flags.writeable = False

    @property
    def matrix(self) -> np.ndarray:
        out = mirror_block(self.block)
        out.flags.writeable = False
        return out


def _lag(basis: WaveBasis, t_source: float, t_target: float) -> float:
    """t_target - t_source, refused (ValueError naming it) if a time or the lag is not
    finite, or so large that its phase E t overflows."""
    lag = float(t_target) - float(t_source)
    named = (("t_source", t_source), ("t_target", t_target), ("t_target - t_source", lag))
    for name, t in named:
        if not math.isfinite(t):
            raise ValueError(f"{name} must be finite: {t!r}")
    e_max = float(abs(basis.energies).max())
    for name, t in named:
        if not math.isfinite(e_max * float(t)):
            raise ValueError(f"{name} = {t!r} overflows the phase E * {name}")
    return lag


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
    are real, so a tilde kernel differs only in its phase sign.  The phase is formed per
    time, exp(s i E t_target) conj(exp(s i E t_source)), so that composed kernels share
    their intermediate factor exactly: its error is E max(|t_source|, |t_target|) 2**-53,
    not E |t_target - t_source| 2**-53.  An equal-time kernel, whose phase is exactly
    1+0j, stores ``basis.delta_block`` itself: real, shared, no copy."""
    lag = _lag(basis, t_source, t_target)
    s, e = _phase_sign(tilde), basis.energies
    block = basis.delta_block if lag == 0 else spectral_block(basis, np.exp(
        s * 1j * e * float(t_target)) * np.conj(np.exp(s * 1j * e * float(t_source))))
    return PropagatorKernel(
        basis=basis, variant=variant, t_source=t_source, t_target=t_target,
        block=block, tilde=tilde, causality=CAUSALITY_NONE,
    )


def make_retarded(kernel: PropagatorKernel) -> PropagatorKernel:
    """Multiply by theta(t_target - t_source): share the bare kernel, or exact zeros."""
    if kernel.causality != CAUSALITY_NONE:
        raise ValueError("kernel already causal")
    theta = heaviside(kernel.t_target - kernel.t_source)
    block = kernel.block if theta else np.zeros_like(kernel.block)
    return replace(kernel, block=block, causality=RETARDED)


def make_advanced(kernel: PropagatorKernel) -> PropagatorKernel:
    """Time-reflected counterpart K_-(t_y, t_x) = K_+(-t_y, -t_x), gated by theta as in
    make_retarded: the bare kernel's conjugate (the free modes are real), or exact zeros."""
    if kernel.causality != CAUSALITY_NONE:
        raise ValueError("kernel already causal")
    block = np.conj(kernel.block) if heaviside(kernel.t_source - kernel.t_target) else (
        np.zeros(kernel.block.shape, dtype=complex))
    return replace(kernel, block=block, causality=ADVANCED)


def compose(k1: PropagatorKernel, k2: PropagatorKernel) -> PropagatorKernel:
    """Jackson-weighted composition of k1 (earlier) with k2 (later).

    The starred variants' kappa-scaled intermediate coordinate needs no
    factor: the kernel prefactor kappa**n cancels the measure Jacobian
    kappa**-n, leaving the plain weighted product K2 W K1.  Neither kernel couples
    the branches and each negative branch mirrors its positive one, so the product is
    the half-size B2 W+ B1 of the blocks, W+ the positive-branch weights.
    """
    if k1.basis is not k2.basis and k1.basis.lattice != k2.basis.lattice:
        raise ValueError("basis mismatch")
    if k1.variant != k2.variant or k1.tilde != k2.tilde:
        raise ValueError("variant mismatch")
    if k1.t_target != k2.t_source:
        raise ValueError("intermediate times do not match")
    w = k1.basis.weights
    causality = k1.causality if k1.causality == k2.causality else CAUSALITY_NONE
    return PropagatorKernel(
        basis=k1.basis, variant=k1.variant,
        t_source=k1.t_source, t_target=k2.t_target,
        block=k2.block @ (w[len(w) // 2:, None] * k1.block), tilde=k1.tilde,
        causality=causality,
    )


def schrodinger_residual(kernel: PropagatorKernel) -> float:
    """|| i d_t K - (+-) H0 K ||_F with the analytic time derivative.

    A kernel with phase exp(s i E dt) satisfies i d_t K = -s H0 K: retarded and
    bare kernels the +H0 equation, advanced and tilde kernels each flip the
    sign once.  Must be called off the source slice.

    As |s| = 1 the norm is || H0 W K + s i d_t K ||.  H0, i d_t K and K never couple the
    mirrored half-lines, and each is J (its positive-branch block) J on the negative one:
    h0 (one ``syrk`` on the nonnegative energies), dk = s i d_t K and B.  So the residual
    is the positive rows' h0 W+ B + dk, one real GEMM on the float view of W+ B, and its
    negative rows repeat that term bit for bit: its squared norm is counted twice.
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
    w = b.weights[len(h0):, None]
    y = (h0 @ np.multiply(w, kernel.block, dtype=complex).view(float)).view(complex)
    y += dk
    squared = np.vdot(y, y).real
    # y is released before h0 and dk: in the other order the allocator hands back pages
    # that the next call faults in again (2,166 against 1,224 minor faults per call at
    # N = 802, about 1 ms of 13)
    del y
    return float(np.sqrt(2.0 * squared))


def source_term(kernel: PropagatorKernel) -> np.ndarray:
    """Delta source of the causal Schroedinger equation, plain and tilde alike: i times
    the jump of the retarded kernel at the source slice, i.e. i times the Jackson
    delta diag(1/w) (kappa**n cancels the delta's Jacobian kappa**-n).  Like a kernel,
    it is given as its positive-branch block, i diag(1/w+)."""
    w = kernel.basis.weights
    return 1j * np.diag(1.0 / w[len(w) // 2:])


def conjugate_kernel(kernel: PropagatorKernel) -> PropagatorKernel:
    """Entrywise conjugate; toggles the tilde and prime flags.

    The conjugate of each kernel is its tilde partner with the prime
    toggled, evaluated at the same arguments (the displayed time
    reflections are internal to the partner's definition).  The map is an
    involution.
    """
    return replace(kernel, block=np.conj(kernel.block),
                   variant=conjugation_partner(VARIANTS, kernel.variant), tilde=not kernel.tilde)


def conjugation_partner(table: dict, name: str) -> str:
    """The name in ``table`` (``VARIANTS`` or ``S_FAMILIES``) whose flags are those
    of ``name`` with the last one, the prime, toggled."""
    *flags, primed = table[name]
    return next(other for other, key in table.items() if key == (*flags, not primed))
