"""Orthonormal energy/momentum eigenbases over the q-lattice.

The default basis diagonalises the free Hamiltonian H0 = (1/2m) D^dag D,
with D the lattice difference-quotient matrix and the adjoint taken with
respect to the Jackson weights.  Momentum labels p = +-sqrt(2 m E) are
assigned by parity: the lattice is symmetric under x -> -x, H0 commutes
with the flip, and within each near-degenerate even/odd pair the even
member carries +p and the odd member -p.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .qcalc import (
    G1,
    LatticeFunction,
    QContext,
    QLattice,
    derivative_matrix,
    q_exponential,
)


@dataclass
class WaveBasis:
    ctx: QContext
    lattice: QLattice
    mass: float
    energies: np.ndarray  # (M,)
    momenta: np.ndarray  # (M,) signed labels
    vectors: np.ndarray  # (N, M), columns orthonormal under the weights
    parity: np.ndarray  # (M,) +-1
    vol: float = 1.0

    @property
    def size(self) -> int:
        return self.energies.size

    @property
    def weights(self) -> np.ndarray:
        return self.lattice.weights

    def gram(self) -> np.ndarray:
        return self.vectors.conj().T @ (self.weights[:, None] * self.vectors)

    def momentum_flip(self) -> np.ndarray:
        """Index permutation realising p -> -p (swap within each pair)."""
        out = np.arange(self.size)
        out[0::2], out[1::2] = np.arange(1, self.size, 2), np.arange(0, self.size, 2)
        return out


@dataclass
class CoefficientVector:
    basis: WaveBasis
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.basis.size,):
            raise ValueError("value count must equal mode count")


def _reference_profiles(lattice: QLattice) -> tuple[np.ndarray, np.ndarray]:
    x = lattice.points
    even = np.exp(-x * x)
    odd = x * np.exp(-x * x)
    return even, odd


def build_hamiltonian_basis(lattice: QLattice, mass: float, ctx: QContext) -> WaveBasis:
    """Diagonalise the free Hamiltonian and label modes by signed momentum."""
    if lattice.size < 4:
        raise ValueError("lattice must have at least 4 points")
    if mass <= 0:
        raise ValueError("mass must be positive")
    n = lattice.size
    w = lattice.weights
    if np.any(w <= 0):
        raise ValueError("degenerate weight matrix")
    d = derivative_matrix(lattice, ctx)
    sw = np.sqrt(w)
    b = (sw[:, None] * d) / sw[None, :]
    m_sym = (b.T @ b) / (2.0 * mass)

    # The flip x -> -x is the index reversal; build exact parity sectors.
    half = n // 2
    q_even = np.zeros((n, half))
    q_odd = np.zeros((n, half))
    inv = 1.0 / np.sqrt(2.0)
    for i in range(half):
        q_even[i, i] = inv
        q_even[n - 1 - i, i] = inv
        q_odd[i, i] = inv
        q_odd[n - 1 - i, i] = -inv

    evals_e, vecs_e = np.linalg.eigh(q_even.T @ m_sym @ q_even)
    evals_o, vecs_o = np.linalg.eigh(q_odd.T @ m_sym @ q_odd)

    u_even = (q_even @ vecs_e) / sw[:, None]
    u_odd = (q_odd @ vecs_o) / sw[:, None]

    # each mode's sign follows its overlap with the profile of its parity
    for u, ref in zip((u_even, u_odd), _reference_profiles(lattice)):
        for k in range(half):
            s = np.sum(w * ref * u[:, k])
            if s == 0.0:
                s = u[np.argmax(np.abs(u[:, k])), k]
            if s < 0:
                u[:, k] = -u[:, k]

    energies = np.empty(n)
    momenta = np.empty(n)
    parity = np.empty(n)
    vectors = np.empty((n, n))
    energies[0::2], energies[1::2] = evals_e, evals_o
    e_clip = np.clip(energies, 0.0, None)
    momenta[0::2] = np.sqrt(2.0 * mass * e_clip[0::2])
    momenta[1::2] = -np.sqrt(2.0 * mass * e_clip[1::2])
    parity[0::2], parity[1::2] = 1.0, -1.0
    vectors[:, 0::2], vectors[:, 1::2] = u_even, u_odd

    return WaveBasis(
        ctx=ctx, lattice=lattice, mass=mass,
        energies=energies, momenta=momenta,
        vectors=vectors.astype(complex), parity=parity, vol=1.0,
    )


def build_qexp_basis(
    lattice: QLattice,
    mass: float,
    ctx: QContext,
    momentum_grid: np.ndarray,
    n_trunc: int,
) -> tuple[WaveBasis, dict]:
    """Diagnostic basis from truncated q-exponential plane waves.

    Rows are Gram-normalised truncated series exp_q(i p x).  The returned
    report carries the pre-orthonormalisation Gram defect and the momenta
    rejected by the series convergence diagnostic.  This basis is a
    diagnostic companion, not the default.
    """
    momentum_grid = np.asarray(momentum_grid, dtype=float)
    kept: list[np.ndarray] = []
    kept_p: list[float] = []
    rejected: list[float] = []
    for p in momentum_grid:
        col = np.empty(lattice.size, dtype=complex)
        bad = False
        for i, x in enumerate(lattice.points):
            res = q_exponential(1j * p * x, ctx.q, n_trunc)
            if not res.converged:
                bad = True
                break
            col[i] = res.value
        if bad:
            rejected.append(float(p))
        else:
            kept.append(col)
            kept_p.append(float(p))
    if not kept:
        raise ValueError("all requested momenta rejected by the convergence diagnostic")
    v = np.stack(kept, axis=1)
    w = lattice.weights
    norms = np.sqrt(np.real(np.sum(w[:, None] * np.abs(v) ** 2, axis=0)))
    v = v / norms[None, :]
    gram = v.conj().T @ (w[:, None] * v)
    defect = float(np.linalg.norm(gram - np.eye(gram.shape[0])))
    # Loewdin orthonormalisation keeps the result as close as possible
    # to the raw series vectors.
    evals, evecs = np.linalg.eigh(gram)
    if np.min(evals) <= 1e-12:
        raise ValueError("q-exponential family is numerically degenerate")
    gram_inv_half = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    v_orth = v @ gram_inv_half
    p_arr = np.array(kept_p)
    basis = WaveBasis(
        ctx=ctx, lattice=lattice, mass=mass,
        energies=p_arr ** 2 / (2.0 * mass), momenta=p_arr,
        vectors=v_orth, parity=np.zeros_like(p_arr), vol=1.0,
    )
    report = {"gram_defect": defect, "rejected_momenta": rejected, "n_modes": len(kept_p)}
    return basis, report


def project(f: LatticeFunction, basis: WaveBasis) -> CoefficientVector:
    """c_p = <u_p, f> under the Jackson weights."""
    if f.lattice != basis.lattice:
        raise ValueError("lattice mismatch")
    c = basis.vectors.conj().T @ (basis.weights * f.values)
    return CoefficientVector(basis, c, time=f.time)


def expand(c: CoefficientVector, t: float) -> LatticeFunction:
    """f(x, t) = sum_p c_p exp(-i E_p (t - t_c)) u_p(x).

    Conjugate (barred) contexts attach the opposite phase sign.
    """
    sign = 1.0 if c.basis.ctx.barred else -1.0
    phase = np.exp(sign * 1j * c.basis.energies * (t - c.time))
    vals = c.basis.vectors @ (phase * c.values)
    return LatticeFunction(c.basis.lattice, vals, time=t)


def delta_kernel(basis: WaveBasis) -> np.ndarray:
    """Completeness kernel Delta(x, y) = sum_p u_p(x) conj(u_p(y)).

    Satisfies Delta @ diag(w) = identity and reproduces any lattice
    function under the weighted contraction.
    """
    return basis.vectors @ basis.vectors.conj().T


def export_basis(basis: WaveBasis, path: str) -> None:
    """CSV export: points, weights, energies/momenta, mode vectors.

    Mode vectors are written as interleaved real/imag columns, one row per
    lattice point.
    """
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
