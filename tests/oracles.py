"""Dense reference implementations the library's fast paths are tested against.

Each builds the full operator the library avoids: the N x N Jackson
derivative matrix, the dense complex spectral kernel over both branches, the
matrix-exponential interacting Green's function and the per-(evaluation,
source) kernel loop of the inhomogeneous solve.
"""

import numpy as np
from scipy.linalg import expm

from braidline import free_propagator, make_advanced, make_retarded
from braidline.scattering import variant_scale


def derivative_matrix(lattice, ctx):
    """Matrix of the Jackson difference quotient on the lattice.

    Row i realises (f(x_i) - f(s x_i)) / ((1 - s) x_i) with s the context's
    shift factor.  Where s*x falls off the lattice the shifted term is
    zero-filled.
    """
    s = ctx.shift_factor
    n = lattice.size
    idx, ok = lattice.shift_map(1)
    denom = (1.0 - s) * lattice.points
    d = np.zeros((n, n))
    d[np.arange(n), np.arange(n)] = 1.0 / denom
    rows = np.arange(n)[ok]
    d[rows, idx[ok]] -= 1.0 / denom[ok]
    return d


def expm_green(v, basis, variant, dt):
    """The exact retarded interacting Green's function in the energy basis,
    theta(dt) expm(-i (scale*H0 + V) dt)."""
    h = np.diag(variant_scale(variant, basis.ctx) * basis.energies) + v.matrix(basis)
    return expm(-1j * h * dt) if dt >= 0 else np.zeros_like(h)


def pairwise_inhomogeneous(sources, basis, variant, times, t_eval, advanced=False):
    """psi(t) = -+ i sum_s trap_s (K_+- rho_s)(t; s), one causal kernel per
    (evaluation time, source time) pair, over a uniform source grid."""
    times = np.asarray(times, dtype=float)
    dt = float(times[1] - times[0]) if times.size > 1 else 1.0
    trap = np.full(times.size, dt)
    if times.size > 1:
        trap[0] = trap[-1] = 0.5 * dt
    sign = 1j if advanced else -1j
    out = []
    for t in np.asarray(t_eval, dtype=float):
        acc = np.zeros(basis.lattice.size, dtype=complex)
        for wgt, ts, rho in zip(trap, times, sources):
            bare = free_propagator(basis, variant, ts, t)
            causal = make_advanced(bare) if advanced else make_retarded(bare)
            acc += wgt * causal.apply(rho).values
        out.append(sign * acc)
    return np.array(out)


def dense_kernel(basis, f):
    """sum_p u_p(x) f_p conj(u_p(y)) as one dense complex product over both
    branches and every mode: the reference for ``basis.spectral_kernel``."""
    u = basis.vectors
    return (u * f) @ u.conj().T
