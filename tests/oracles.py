"""Reference implementations the library's fast paths are tested against.

The dense ones build the full operator the library avoids: the N x N Jackson
derivative matrix, the dense complex spectral kernel and the weighted kernel
product over both branches, the residual matrix from dense H0 and d_t K
kernels (and the residual's earlier signed-H0 form), the dense block exponential of the Dyson terms, and the per-column
dense Lippmann-Schwinger solve of the on-shell S-matrix.  The scalar ones
evaluate one entry at a time: the q-exponential series in Python complex
arithmetic, and the CSV writers, which hand ``csv.writer`` each value formatted
by hand as repr(float(x)).
"""

import cmath
import csv
import itertools
import math

import numpy as np
from scipy.linalg import expm

from braidline.basis import spectral_block
from braidline.propagator import ADVANCED, RETARDED, heaviside


def derivative_matrix(lattice, ctx):
    """Matrix of the Jackson difference quotient on the lattice.

    Row i realises (f(x_i) - f(s x_i)) / ((1 - s) x_i) with s the context's
    shift factor: s x_i is the next point inward on the branch of x_i.  The two
    innermost points have none, so their shifted term is zero-filled.
    """
    s = ctx.shift_factor
    n, half = lattice.size, lattice.size // 2
    denom = (1.0 - s) * lattice.points
    d = np.diag(1.0 / denom)
    rows = np.r_[0:half - 1, half + 1:n]  # the negative branch runs inward, the positive outward
    d[rows, rows + np.where(rows < half, 1, -1)] -= 1.0 / denom[rows]
    return d


def dense_dyson_blocks(e, w, c, rate, h, order):
    """The (0, k) blocks, k = 0..order, of one dense expm(h M) of the whole
    block-bidiagonal matrix M: diagonal blocks -i diag(e) - k*rate, superdiagonal
    blocks c*w.  The reference for ``dyson._dyson_blocks``."""
    m, nb = e.size, order + 1
    big = (np.diag(np.tile(-1j * e, nb) - rate * np.repeat(np.arange(nb), m))
           + np.kron(np.eye(nb, k=1), c * w))
    return expm(h * big)[:m].reshape(m, nb, m).transpose(1, 0, 2)


def dense_smatrix(v, basis, eps, time_sign, tilde):
    """The on-shell S-matrix from one dense solve of (I - V R0(E_k + i sigma eps)) t
    = V e_k per column k, on the energies of ``basis``.  sigma is the family's time
    sign, flipped for a tilde partner, which also takes conj(V); column k is placed
    as S[:, k] = e_k - sigma 2 pi i delta_eps(E - E_k) t, as row k for a tilde
    partner."""
    sigma = -time_sign if tilde else time_sign
    vm = np.conj(v.on(basis).v) if tilde else v.on(basis).v
    e = basis.energies
    s = np.eye(basis.size, dtype=complex)
    for k in range(basis.size):
        r0 = 1.0 / (e[k] - e + 1j * sigma * eps)
        t = np.linalg.solve(np.eye(basis.size) - vm * r0[None, :], vm[:, k])
        lor = (eps / np.pi) / ((e - e[k]) ** 2 + eps ** 2)
        if tilde:
            s[k, :] -= sigma * 2j * np.pi * lor * t
        else:
            s[:, k] -= sigma * 2j * np.pi * lor * t
    return s


def dense_kernel(basis, f):
    """sum_p u_p(x) f_p conj(u_p(y)) as one dense complex product over both
    branches and every mode: the reference for ``basis.spectral_kernel``."""
    u = basis.vectors
    return (u * f) @ u.conj().T


def full_residual_matrix(kernel):
    """i d_t K - (+-) H0 K over both branches, with H0 and d_t K dense products over every
    mode: the reference for the norm ``propagator.schrodinger_residual`` takes."""
    dt = kernel.t_target - kernel.t_source
    theta = {RETARDED: heaviside(dt), ADVANCED: heaviside(-dt)}.get(kernel.causality, 1.0)
    s = (1.0 if kernel.tilde else -1.0) * (-1.0 if kernel.causality == ADVANCED else 1.0)
    b, e = kernel.basis, kernel.basis.energies
    h0_k = dense_kernel(b, s * e) @ (b.weights[:, None] * kernel.matrix)
    return h0_k + dense_kernel(b, -theta * s * e * np.exp(s * 1j * e * dt))


def signed_h0_residual(kernel):
    """``propagator.schrodinger_residual`` as it was formed with the sign s of the phase on
    H0, || s H0 W K + i d_t K ||: s H0 from the energies s E, so an s = -1 kernel took the
    negative-energy split.  The reference its value is pinned to, bit for bit."""
    dt = kernel.t_target - kernel.t_source
    theta = {RETARDED: heaviside(dt), ADVANCED: heaviside(-dt)}.get(kernel.causality, 1.0)
    s = (1.0 if kernel.tilde else -1.0) * (-1.0 if kernel.causality == ADVANCED else 1.0)
    b, e = kernel.basis, kernel.basis.energies
    h0 = spectral_block(b, s * e)
    dk = spectral_block(b, -theta * s * e * np.exp(s * 1j * e * dt))
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
    for r, c in itertools.product((neg, pos), (neg, pos)):
        rev = slice(None, None, -1 if r == neg else 1)
        terms.append(squared_norm(w[r][rev], k[r, c][rev, rev], r == c))
    return float(np.sqrt(sum(terms)))


def weighted_product(a, w, b):
    """a @ (w[:, None] * b) as one dense product over both branches: the reference
    for ``propagator.compose``."""
    return a @ (w[:, None] * b)


def q_exponential_series(z, q, n_trunc):
    """(value, last term, converged) of sum_n z**n / [n]_q! for one Python complex z,
    stopping at the first overflowing term."""
    total, term, last = 1.0 + 0.0j, 1.0 + 0.0j, 1.0
    for n in range(1, n_trunc + 1):
        term = term * z / ((1.0 - q ** n) / (1.0 - q))
        if not cmath.isfinite(term):
            return total, math.inf, False
        total += term
        last = abs(term)
    converged = cmath.isfinite(total) and last <= 1e-6 * max(abs(total), 1.0)
    return total, last, converged


# floats whose repr the CSV writers must reproduce: signed zero, subnormals,
# +-1e300, nan, +-inf, the largest double and the switch to exponent notation
SPECIAL_FLOATS = np.array([-0.0, 5e-324, 2.5e-310, 1e300, -1e300, np.nan, np.inf, -np.inf,
                           0.1, 1.7976931348623157e308, 1e16, -2.0])


def write_matrix_csv(path, mat):
    """The matrix CSV with every value formatted by hand, entry by entry."""
    mat = np.asarray(mat)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        if np.iscomplexobj(mat):
            wr.writerow(["row", "col", "re", "im"])
            wr.writerows([i, j, repr(float(mat[i, j].real)), repr(float(mat[i, j].imag))]
                         for i, j in np.ndindex(mat.shape))
        else:
            wr.writerow(["row", "col", "value"])
            wr.writerows([i, j, repr(float(mat[i, j]))] for i, j in np.ndindex(mat.shape))


def export_basis(basis, path):
    """The basis CSV with every value formatted by hand, entry by entry."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["# q", repr(float(basis.ctx.q)), "mass", repr(float(basis.mass)),
                     "geometry", basis.ctx.geometry])
        wr.writerow(["# energies"] + [repr(float(e)) for e in basis.energies])
        wr.writerow(["# momenta"] + [repr(float(p)) for p in basis.momenta])
        header = ["x", "w"]
        for k in range(basis.size):
            header += [f"re_u{k}", f"im_u{k}"]
        wr.writerow(header)
        for i in range(basis.lattice.size):
            row = [repr(float(basis.lattice.points[i])), repr(float(basis.weights[i]))]
            for k in range(basis.size):
                row += [repr(float(basis.vectors[i, k].real)),
                        repr(float(basis.vectors[i, k].imag))]
            wr.writerow(row)


def _write_rows(path, header, rows):
    """A header and rows through ``csv.writer``, every float formatted by hand."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([repr(float(x)) if isinstance(x, float) else x for x in row]
                     for row in rows)


def write_spectrum(basis, path):
    """spectrum.csv: mode number, energy, momentum and parity of each mode."""
    _write_rows(path, ["mode", "energy", "momentum", "parity"],
                [[k, float(basis.energies[k]), float(basis.momenta[k]), float(basis.parity[k])]
                 for k in range(basis.size)])


def write_unitarity_trend(rows, path):
    """unitarity_trend.csv from (eps, unitarity defect, max row-sum deviation) rows."""
    _write_rows(path, ["eps", "unitarity_defect", "max_row_sum_deviation"],
                [[float(x) for x in row] for row in rows])


def write_propagator_checks(rows, path):
    """propagator_checks.csv from (variant, Schrodinger residual, boundary defect)
    rows, sorted by variant."""
    _write_rows(path, ["variant", "schrodinger_residual", "boundary_defect"],
                sorted([variant, float(res), float(bd)] for variant, res, bd in rows))
