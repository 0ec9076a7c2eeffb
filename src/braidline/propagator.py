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

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .basis import WaveBasis, branch_product, mirror_even, spectral_block, spectral_kernel
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
    basis: WaveBasis
    variant: str
    t_source: float
    t_target: float
    matrix: np.ndarray
    tilde: bool = False
    causality: str = CAUSALITY_NONE


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
    are real, so a tilde kernel differs only in its phase sign."""
    _check_variant(basis, variant)
    lag = float(t_target) - float(t_source)
    for name, t in (("t_source", t_source), ("t_target", t_target), ("t_target - t_source", lag)):
        if not np.isfinite(t):
            raise ValueError(f"{name} must be finite: {t!r}")
    phase = np.exp(_phase_sign(tilde) * 1j * basis.energies * lag)
    return PropagatorKernel(
        basis=basis, variant=variant, t_source=t_source, t_target=t_target,
        matrix=spectral_kernel(basis, phase), tilde=tilde, causality=CAUSALITY_NONE,
    )


def make_retarded(kernel: PropagatorKernel) -> PropagatorKernel:
    """Multiply by theta(t_target - t_source): share the bare matrix, or exact zeros."""
    if kernel.causality != CAUSALITY_NONE:
        raise ValueError("kernel already causal")
    theta = heaviside(kernel.t_target - kernel.t_source)
    matrix = kernel.matrix if theta else np.zeros_like(kernel.matrix)
    return replace(kernel, matrix=matrix, causality=RETARDED)


def make_advanced(kernel: PropagatorKernel) -> PropagatorKernel:
    """Time-reflected counterpart K_-(t_y, t_x) = K_+(-t_y, -t_x), gated by theta as in
    make_retarded: the bare kernel's conjugate (the free modes are real), or exact zeros."""
    if kernel.causality != CAUSALITY_NONE:
        raise ValueError("kernel already causal")
    if not heaviside(kernel.t_source - kernel.t_target):
        return replace(kernel, matrix=np.zeros(kernel.matrix.shape, dtype=complex),
                       causality=ADVANCED)
    return replace(kernel, matrix=np.conj(kernel.matrix), causality=ADVANCED)


def compose(k1: PropagatorKernel, k2: PropagatorKernel) -> PropagatorKernel:
    """Jackson-weighted composition of k1 (earlier) with k2 (later).

    The starred variants' kappa-scaled intermediate coordinate needs no
    factor: the kernel prefactor kappa**n cancels the measure Jacobian
    kappa**-n, leaving the plain weighted product.
    """
    if k1.basis is not k2.basis and k1.basis.lattice != k2.basis.lattice:
        raise ValueError("basis mismatch")
    if k1.variant != k2.variant or k1.tilde != k2.tilde:
        raise ValueError("variant mismatch")
    if k1.t_target != k2.t_source:
        raise ValueError("intermediate times do not match")
    mat = branch_product(k2.matrix, k1.basis.weights, k1.matrix)
    causality = k1.causality if k1.causality == k2.causality else CAUSALITY_NONE
    return PropagatorKernel(
        basis=k1.basis, variant=k1.variant,
        t_source=k1.t_source, t_target=k2.t_target,
        matrix=mat, tilde=k1.tilde, causality=causality,
    )


def schrodinger_residual(kernel: PropagatorKernel) -> float:
    """|| i d_t K - (+-) H0 K ||_F with the analytic time derivative.

    A kernel with phase exp(s i E dt) satisfies i d_t K = -s H0 K: retarded and
    bare kernels the +H0 equation, advanced and tilde kernels each flip the
    sign once.  Must be called off the source slice.

    H0 and i d_t K never couple the mirrored half-lines: each is one positive-branch
    block, h0 and dk, and its reversal J h0 J, J dk J on the negative branch.  Residual
    block (r, c) is h0 W_r K_rc, plus dk when r = c; on the negative rows it is
    J (h0 J W_r K_rc J + dk) J, whose norm is that of the term in brackets.  The squared
    norms are summed over the four blocks, each product one real GEMM on the float view
    of W K, and an all-zero block of K is not multiplied.  For an exactly even K and W the
    negative rows repeat the positive rows' terms bit for bit, so only those are computed.
    A corrupted negative branch is not even, and is multiplied like any other block.
    """
    if kernel.t_target == kernel.t_source:
        raise ValueError("residual undefined on the source slice")
    dt = kernel.t_target - kernel.t_source
    theta = {RETARDED: heaviside(dt), ADVANCED: heaviside(-dt)}.get(kernel.causality, 1.0)
    s = _phase_sign(kernel.tilde) * (-1.0 if kernel.causality == ADVANCED else 1.0)
    b, e = kernel.basis, kernel.basis.energies
    h0 = spectral_block(b, s * e)  # s H0
    # i d_t K: i d_t on exp(s i E dt) brings down -s E
    dk = spectral_block(b, -theta * s * e * np.exp(s * 1j * e * dt))
    half, w, k = len(h0), b.weights, kernel.matrix
    neg, pos = slice(None, half), slice(half, None)
    even = mirror_even(w) and mirror_even(k)
    terms = []
    for r, c in product((pos,) if even else (neg, pos), (neg, pos)):
        y = dk if r == c else None
        if k[r, c].any():
            rev = slice(None, None, -1 if r == neg else 1)
            wk = np.multiply(w[r][rev, None], k[r, c][rev, rev], dtype=complex)
            y = (h0 @ wk.view(float)).view(complex)
            if r == c:
                y += dk
        if y is not None:
            terms.append(np.vdot(y, y).real)
    if even:  # the negative rows' terms, (neg, neg) and (neg, pos), come first
        terms = terms[::-1] + terms
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
    return PropagatorKernel(
        basis=kernel.basis, variant=conjugation_partner(VARIANTS, kernel.variant),
        t_source=kernel.t_source, t_target=kernel.t_target,
        matrix=np.conj(kernel.matrix), tilde=not kernel.tilde,
        causality=kernel.causality,
    )


def conjugation_partner(table: dict, name: str) -> str:
    """The name in ``table`` (``VARIANTS`` or ``S_FAMILIES``) whose flags are those
    of ``name`` with the last one, the prime, toggled."""
    *flags, primed = table[name]
    return next(other for other, key in table.items() if key == (*flags, not primed))
