"""Reference implementations the library's fast paths are tested against.

The library stores every kernel as its positive-branch block; the dense
references here build the full operator it avoids: the N x N Jackson derivative
matrix, the spectral kernel ``mirror_block`` of a block (and the dense complex
one over every mode), the weighted kernel product over both branches (the dense
compose), the residual matrix from dense H0 and d_t K kernels and the residual's
norm summed over the four branch blocks (in the current and the earlier
signed-H0 form), the five kernel checks over N x N matrices, the dense block
exponential of the Dyson terms, and the per-column dense Lippmann-Schwinger
solve of the on-shell S-matrix.  The scalar ones evaluate one entry at a time:
the q-exponential series in Python complex arithmetic, and the CSV writers,
which hand ``csv.writer`` each value formatted by hand as repr(float(x)).
"""

import cmath
import csv
import itertools
import math

import numpy as np
from scipy.linalg import expm

from braidline.basis import mirror_block, spectral_block
from braidline.checks import CHECK_EPS
from braidline.propagator import (ADVANCED, RETARDED, compose, conjugate_kernel,
                                  free_propagator, heaviside, make_advanced, make_retarded)
from braidline.scattering import conjugate_smatrix, smatrix_momentum


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


def spectral_kernel(basis, f):
    """The kernel sum_p u_p(x) f_p u_p(y) of a function f_p = f(E_p) of the energy, as an
    N x N array of the type of f: ``basis.spectral_block`` mirrored onto the negative
    branch, with exact zeros across the branches.  That holds only when each +-p pair
    (modes 2k and 2k + 1) shares f_p; any other f is refused."""
    f = np.asarray(f)
    if not np.array_equal(f[0::2], f[1::2], equal_nan=True):
        raise ValueError("spectral_kernel needs f(E_p): each +-p pair of modes must share f_p")
    return mirror_block(spectral_block(basis, f))


def dense_kernel(basis, f):
    """sum_p u_p(x) f_p conj(u_p(y)) as one dense complex product over both
    branches and every mode: the reference for ``spectral_kernel``."""
    u = basis.vectors
    return (u * f) @ u.conj().T


def _residual_flags(kernel):
    # (dt, theta, s): the lag, the causal gate and the phase sign of exp(s i E dt)
    dt = kernel.t_target - kernel.t_source
    theta = {RETARDED: heaviside(dt), ADVANCED: heaviside(-dt)}.get(kernel.causality, 1.0)
    s = (1.0 if kernel.tilde else -1.0) * (-1.0 if kernel.causality == ADVANCED else 1.0)
    return dt, theta, s


def full_residual_matrix(kernel, matrix=None):
    """i d_t K - (+-) H0 K over both branches, with H0 and d_t K dense products over every
    mode: the reference for the norm ``propagator.schrodinger_residual`` takes.  ``matrix``,
    an N x N array, stands in for K (default ``kernel.matrix``) with the kernel's flags and
    times."""
    dt, theta, s = _residual_flags(kernel)
    b, e = kernel.basis, kernel.basis.energies
    k = kernel.matrix if matrix is None else matrix
    h0_k = dense_kernel(b, s * e) @ (b.weights[:, None] * k)
    return h0_k + dense_kernel(b, -theta * s * e * np.exp(s * 1j * e * dt))


def four_block_residual(kernel, matrix=None, signed_h0=False):
    """The norm ``propagator.schrodinger_residual`` takes, summed over the four branch blocks
    of ``matrix`` (default ``kernel.matrix``) with the kernel's flags and times: the dense
    loop whose (+, +) term the library counts twice.  Block (r, c) is h0 W_r K_rc, plus dk
    when r = c, each one real GEMM on the float view; the negative rows are reversed, so
    their term is formed as the positive rows' is.  With ``signed_h0`` it is the earlier
    form || s H0 W K + i d_t K ||, s H0 from the energies s E, which an s = -1 kernel took
    from the negative-energy split."""
    dt, theta, s = _residual_flags(kernel)
    sign = s if signed_h0 else 1.0
    b, e = kernel.basis, kernel.basis.energies
    h0 = spectral_block(b, sign * e)
    dk = spectral_block(b, -theta * sign * e * np.exp(s * 1j * e * dt))
    half, w = len(h0), b.weights
    k = kernel.matrix if matrix is None else matrix
    neg, pos = slice(None, half), slice(half, None)
    terms = []
    for r, c in itertools.product((neg, pos), (neg, pos)):
        rev = slice(None, None, -1 if r == neg else 1)
        y = (h0 @ np.multiply(w[r][rev][:, None], k[r, c][rev, rev], dtype=complex)
             .view(float)).view(complex)
        if r == c:
            y += dk
        terms.append(np.vdot(y, y).real)
    return float(np.sqrt(sum(terms)))


def weighted_product(a, w, b):
    """a @ (w[:, None] * b) as one dense product over both branches: the reference
    for ``propagator.compose``, the dense compose."""
    return a @ (w[:, None] * b)


def _distance(a, b):
    return float(np.max(np.abs(a - b)))


def dense_kernel_checks(scene):
    """The values of the ``composition``, ``boundary``, ``residual``, ``conjugation`` and
    ``crossing`` checks with each kernel distance taken over N x N matrices: the kernels'
    ``matrix``, the four-block residual and the whole source term i diag(1/w).  The same
    draws, kernels and S-matrices as ``checks``, which takes them over the blocks."""
    t = scene.cfg["time_target"]
    out = dict.fromkeys(("composition", "boundary", "residual", "conjugation"), 0.0)
    rng = np.random.default_rng(42)
    for b, names in scene.geometries:
        for variant in names:
            for _ in range(5):
                t0, t1, t2 = np.sort(rng.uniform(-0.05, 0.05, size=3))
                got = compose(free_propagator(b, variant, t0, t1),
                              free_propagator(b, variant, t1, t2))
                out["composition"] = max(out["composition"], _distance(
                    got.matrix, free_propagator(b, variant, t0, t2).matrix))
    for b, (variant, *_) in scene.geometries:
        coincident = free_propagator(b, variant, t, t)
        out["boundary"] = max(out["boundary"],
                              _distance(coincident.matrix * b.weights, np.eye(b.size)))
        out["residual"] = max(
            out["residual"],
            four_block_residual(make_retarded(free_propagator(b, variant, 0.0, t))),
            four_block_residual(make_advanced(free_propagator(b, variant, t, 0.0))),
            _distance(1j * make_retarded(coincident).matrix, 1j * np.diag(1.0 / b.weights)))
        ck = conjugate_kernel(free_propagator(b, variant, -0.2, t))
        out["conjugation"] = max(out["conjugation"], _distance(
            ck.matrix, free_propagator(b, ck.variant, -0.2, t, tilde=True).matrix))
    family = scene.cfg["family"]
    cs = conjugate_smatrix(smatrix_momentum(scene.h, scene.basis, family, eps=CHECK_EPS))
    built = smatrix_momentum(scene.h, scene.basis, cs.family, eps=CHECK_EPS, tilde=True)
    out["conjugation"] = max(out["conjugation"], _distance(cs.matrix, built.matrix))
    out["crossing"] = _distance(free_propagator(scene.basis, "K1prime", 0.0, t).matrix,
                                free_propagator(scene.basis2, "K2", 0.0, t).matrix)
    return out


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
