"""Orthonormal energy/momentum eigenbases over the q-lattice.

The default basis diagonalises the free Hamiltonian H0 = (1/2m) D^dag D,
with D the lattice difference-quotient matrix and the adjoint taken with
respect to the Jackson weights.  Momentum labels p = +-sqrt(2 m E) are
assigned by parity: the lattice is symmetric under x -> -x, H0 commutes
with the flip, and within each degenerate even/odd pair the even member
carries +p and the odd member -p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

from .qcalc import QContext, QLattice, q_exponential


def _finite(name: str, x) -> np.ndarray:
    """``x`` as an array, refused (ValueError naming ``name`` and the first bad entry)
    if any entry is NaN or infinite."""
    x = np.asarray(x)
    bad = x[~np.isfinite(x)]
    if bad.size:
        raise ValueError(f"{name} must be finite: {bad[0].item()!r}")
    return x


@dataclass(frozen=True, eq=False)
class WaveBasis:
    ctx: QContext
    lattice: QLattice
    mass: float
    energies: np.ndarray  # (M,)
    momenta: np.ndarray  # (M,) signed labels
    vectors: np.ndarray  # (N, M) real, columns orthonormal under the weights
    parity: np.ndarray  # (M,) +-1

    def __post_init__(self) -> None:
        if not np.isrealobj(self.vectors):
            raise ValueError(f"vectors must be real, not {self.vectors.dtype}")

    @property
    def size(self) -> int:
        return self.energies.size

    @property
    def weights(self) -> np.ndarray:
        return self.lattice.weights

    def gram(self) -> np.ndarray:
        return self.vectors.T @ (self.weights[:, None] * self.vectors)

    @cached_property
    def pair_signs(self) -> np.ndarray | None:
        """The signs d_k with, on the positive branch, each odd mode 2k + 1 exactly its even
        mode 2k times d_k, the sign of their product at the innermost point, as for
        (Jv, +-v)/sqrt(2); None when any entry differs.  Decided once."""
        pos = self.vectors[self.lattice.size // 2:]
        even, odd = pos[:, 0::2], pos[:, 1::2]
        if even.shape != odd.shape:
            return None
        d = np.copysign(1.0, even[0] * odd[0])
        return d if (even * d == odd).all() else None

    @cached_property
    def delta_block(self) -> np.ndarray:
        """The positive-branch block of ``delta_kernel``, P P^T, built once per frozen basis
        and read-only: every equal-time kernel and every ``delta_kernel`` shares it."""
        block = spectral_block(self, np.ones(self.size))
        block.flags.writeable = False
        return block

    @property
    def paired(self) -> bool:
        """Whether ``pair_signs`` exist: then each +-p pair has one rank-one term."""
        return self.pair_signs is not None

    @cached_property
    def even_modes(self) -> WaveBasis:
        """The even modes 0, 2, 4, ... alone: the basis a parity sector is solved on."""
        return WaveBasis(ctx=self.ctx, lattice=self.lattice, mass=self.mass,
                         energies=self.energies[0::2], momenta=self.momenta[0::2],
                         vectors=self.vectors[:, 0::2], parity=self.parity[0::2])


@dataclass(eq=False)
class CoefficientVector:
    basis: WaveBasis
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(_finite("values", self.values), dtype=complex)
        if self.values.shape != (self.basis.size,):
            raise ValueError("value count must equal mode count")


def _load_flapack():
    """SciPy's f2py LAPACK extension, loaded from its file alone: running
    ``scipy/__init__`` and ``scipy/linalg/__init__`` would cost 0.2-0.4 s of
    imports, mostly numpy submodules that SciPy's array-API layer pulls in."""
    spec = find_spec("scipy")
    dirs = [Path(p, "linalg") for p in (spec and spec.submodule_search_locations or [])]
    for path in (d / f"_flapack{suffix}" for d in dirs for suffix in EXTENSION_SUFFIXES):
        if path.is_file():
            loader = ExtensionFileLoader("scipy.linalg._flapack", str(path))
            module = module_from_spec(spec_from_file_location(loader.name, path, loader=loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"scipy's LAPACK extension _flapack not found; searched {dirs}")


_FLAPACK = _load_flapack()


def half_line_hamiltonian(lattice: QLattice, mass: float, ctx: QContext
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Weight-symmetrised H0 = B^T B / 2m on the positive branch, B = W^1/2 D W^-1/2.

    Returns the (diagonal, off-diagonal) of the tridiagonal matrix, innermost
    point first.  Row i of the Jackson quotient couples x_i only to its inner
    neighbour, and the innermost row's shifted term falls off the lattice, so
    the two branches never couple and the negative one is the mirror image.
    """
    s = ctx.shift_factor
    if not np.isclose(s, lattice.base):
        raise ValueError("context shift factor does not match the lattice base")
    half = lattice.size // 2
    inv = 1.0 / ((1.0 - s) * lattice.points[half:])
    sw = np.sqrt(lattice.weights[half:])
    sub = -inv[1:] * sw[1:] / sw[:-1]  # B[i, i-1]; B[i, i] = inv[i]
    diag = inv * inv + np.append(sub * sub, 0.0)
    return diag / (2.0 * mass), sub * inv[1:] / (2.0 * mass)


def build_hamiltonian_basis(lattice: QLattice, mass: float, ctx: QContext) -> WaveBasis:
    """Diagonalise the free Hamiltonian and label modes by signed momentum.

    One tridiagonal eigenproblem on the positive branch gives every mode:
    with v an eigenvector and J the branch mirror, (Jv, +-v)/sqrt(2) are the
    even and odd modes of the symmetrised H0, so each +-p pair is exactly
    degenerate.  The LAPACK routine is MRRR (``stemr``), always: on the default
    scene it gives the residual check C03 5.9e-11, against 1.8e-10 (above the
    1e-10 bound) from ``stevd``, ``stev`` or a dense ``eigh``.  It is called
    as ``scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")`` calls it,
    with the same checks and bit-identical eigenpairs, minus the import.
    """
    if lattice.size < 4:
        raise ValueError("lattice must have at least 4 points")
    if not 0 < mass < np.inf:
        raise ValueError(f"mass must be positive and finite: {mass!r}")
    w = lattice.weights
    if np.any(w <= 0):
        raise ValueError("degenerate weight matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        d, e = half_line_hamiltonian(lattice, mass, ctx)
    if not (np.isfinite(d).all() and np.isfinite(e).all() and d.min() >= np.finfo(float).tiny):
        raise ValueError(f"free Hamiltonian has non-finite or subnormal entries: x0={lattice.x0!r}"
                         f", base={lattice.base!r} and mass={mass!r} put 1/(2m((1-q)x)^2) "
                         "outside the normal floats")
    args = (d, np.append(e, 0.0), 0, 0.0, 1.0, 1, 1)  # all eigenpairs; stemr's e has n entries
    lwork, liwork, info = _FLAPACK.dstemr_lwork(*args)
    if info == 0:
        _, evals, v, info = _FLAPACK.dstemr(*args, lwork=lwork, liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK stemr failed (info={info})")
    v, sw = v / np.sqrt(2.0), np.sqrt(w)[:, None]
    u_even = np.concatenate([v[::-1], v]) / sw
    u_odd = np.concatenate([v[::-1], -v]) / sw

    # each mode's sign follows its overlap with the profile of its parity
    x = lattice.points
    with np.errstate(over="ignore"):  # exp(-inf) is 0 for |x| beyond 1e154
        profile = np.exp(-x * x)
    for u, ref in zip((u_even, u_odd), (profile, x * profile)):
        s = (w * ref) @ u
        zero = s == 0.0
        s[zero] = u[np.argmax(np.abs(u[:, zero]), axis=0), zero]
        u[:, s < 0] *= -1.0

    energies = np.repeat(evals, 2)
    parity = np.tile([1.0, -1.0], evals.size)
    momenta = parity * np.sqrt(2.0 * mass * np.clip(energies, 0.0, None))
    vectors = np.empty((w.size, w.size))
    vectors[:, 0::2], vectors[:, 1::2] = u_even, u_odd
    return WaveBasis(ctx=ctx, lattice=lattice, mass=mass, energies=energies,
                     momenta=momenta, vectors=vectors, parity=parity)


def build_qexp_basis(lattice: QLattice, ctx: QContext, momentum_grid: np.ndarray,
                     n_trunc: int) -> dict:
    """Diagnostic report on the truncated q-exponential plane waves exp_q(i p x).

    The momenta whose series pass the convergence diagnostic give one normalised
    column each.  The report carries the Gram defect ||G - I||_F of those columns,
    the rejected momenta and the mode count.  A family with no momentum left, or
    with a numerically singular Gram matrix, is refused.
    """
    momentum_grid = _finite("momentum_grid", np.asarray(momentum_grid, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing p x is rejected below
        series = q_exponential(1j * np.outer(lattice.points, momentum_grid), ctx.q, n_trunc)
    ok = series.converged.all(axis=0)  # one diverging point rejects the momentum
    if not ok.any():
        raise ValueError("all requested momenta rejected by the convergence diagnostic")
    # C order, as the Gram GEMM expects: a boolean column index returns a
    # Fortran-ordered copy, which moves gram_defect in the last bit
    v = np.compress(ok, series.value, axis=1)
    w = lattice.weights
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norms = np.sqrt(np.real(np.sum(w[:, None] * np.abs(v) ** 2, axis=0)))
        v = v / norms[None, :]
        gram = v.conj().T @ (w[:, None] * v)
    if not (np.isfinite(gram).all() and np.linalg.eigvalsh(gram).min() > 1e-12):
        raise ValueError("q-exponential family is numerically degenerate")
    return {"gram_defect": float(np.linalg.norm(gram - np.eye(gram.shape[0]))),
            "rejected_momenta": momentum_grid[~ok].tolist(), "n_modes": v.shape[1]}


# Half-line size from which a complex f is split by sign: on shorter half-lines the numpy
# calls of the split cost more than the flops they save (the measured crossover, README
# "Free basis").
SPLIT_MIN = 200


@cache
def _strict_lower(n: int) -> np.ndarray:
    """Read-only mask of the entries below the diagonal of an n x n matrix."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _scaled_gram(pos: np.ndarray, r: np.ndarray, cols: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """A A^T for A the columns ``cols`` of ``pos`` scaled by r, one ``syrk``."""
    a = pos[:, cols]
    a *= r[cols]
    return np.matmul(a, a.T, out=out)


def spectral_block(basis: WaveBasis, f: np.ndarray) -> np.ndarray:
    """The x, y > 0 block P diag(f) P^T of the kernel sum_p u_p(x) f_p u_p(y), P the
    positive-branch rows of the real modes, a new array of the type of f.  The block is
    exactly symmetric.  H0 never couples the mirrored half-lines, so for f a function of
    the energy ``mirror_block`` of it is the whole kernel.

    For a ``paired`` basis the two modes of each +-p pair have the same rank-one term, so
    the even modes alone are summed with f[2k] + f[2k + 1].  Each part g of f, the real
    one and a nonzero imaginary one, is split by sign: P diag(g) P^T = A+ A+^T - A- A-^T,
    A+- the columns of P where +-g > 0 scaled by sqrt(+-g).  Each ``a @ a.T`` goes to BLAS
    ``syrk``, half the flops of a GEMM, and numpy mirrors its triangle.  On half-lines
    shorter than ``SPLIT_MIN`` a complex f is instead one real GEMM, both parts at once on
    the float view, whose upper triangle is copied onto the lower."""
    half = basis.lattice.size // 2
    pos, f = basis.vectors[half:], np.asarray(f)
    out = np.empty((half, half), np.result_type(pos, f))
    if basis.paired:
        pos, f = pos[:, 0::2], f[0::2] + f[1::2]
    parts = [(out.real, f.real)]
    if np.iscomplexobj(f) and np.count_nonzero(f.imag):
        if half < SPLIT_MIN:  # both parts in one real GEMM on the float view
            fp = np.multiply(f[:, None], pos.T, order="C")
            np.matmul(pos, fp.view(float), out=out.view(float))
            del fp  # released before the mirror copies the transposed block
            np.copyto(out, out.T, where=_strict_lower(half))
            return out
        parts.append((out.imag, f.imag))
    elif np.iscomplexobj(out):
        out.imag = 0.0
    for part, g in parts:
        minus = g < 0
        if np.count_nonzero(minus):
            r = np.sqrt(np.abs(g))
            _scaled_gram(pos, r, ~minus, out=part)
            part -= _scaled_gram(pos, r, minus)  # A- is released before the subtraction
        else:
            a = pos * np.sqrt(g)
            np.matmul(a, a.T, out=part)
    return out


def mirror_block(block: np.ndarray) -> np.ndarray:
    """The N x N kernel whose x, y > 0 block is ``block``: J block J on x, y < 0, J the
    point reversal, and exact +0 across the branches."""
    half = len(block)
    out = np.zeros((2 * half, 2 * half), block.dtype)
    out[half:, half:] = block
    out[:half, :half] = block[::-1, ::-1]
    return out


def delta_kernel(basis: WaveBasis) -> np.ndarray:
    """Completeness kernel Delta(x, y) = sum_p u_p(x) u_p(y); Delta @ diag(w) = identity,
    so it reproduces any lattice function under the weighted contraction.  A new float64
    N x N array, mirrored from the basis's shared ``delta_block``."""
    return mirror_block(basis.delta_block)
