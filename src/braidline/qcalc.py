"""q-deformation primitives on a truncated bilateral Jackson lattice.

The lattice consists of the points ``{+-x0 * b**j : j_min <= j <= j_max}``
with base ``0 < b < 1``, carrying the Jackson measure ``w(x) = (1-b)|x|``.
A context is its deformation parameter q alone: q fixes the geometry, the
scaling unit kappa, the exponent zeta and the conjugation bar, and crossing
is q -> 1/q.  Everything else in the package (bases, propagators,
scattering) is built on top of the difference calculus defined here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

G1 = "G1"
G2 = "G2"


@dataclass(frozen=True)
class QContext:
    """Deformation parameter governing every computation.

    ``q`` fixes the rest of the context.  q < 1 is the canonical geometry G1,
    with argument-scaling unit kappa = q and exponent zeta = -1 in the scaled
    Hamiltonians; q > 1 is the crossed, conjugate ("barred") geometry G2,
    whose kappa = q and zeta = +1 are the reciprocal parameters of its 1/q
    partner.
    """

    q: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q < np.inf or self.q == 1.0:
            raise ValueError(f"q must be finite, positive and != 1, got {self.q}")

    @property
    def geometry(self) -> str:
        return G1 if self.q < 1.0 else G2

    @property
    def kappa(self) -> float:
        return self.q

    @property
    def zeta(self) -> int:
        return -1 if self.geometry == G1 else 1

    @property
    def barred(self) -> bool:
        return self.geometry == G2

    @property
    def shift_factor(self) -> float:
        """Scaling applied to the argument by the difference quotient.

        G1 differentiates against f(q x); the crossed geometry G2 against
        f(q^-1 x).
        """
        return self.q if self.geometry == G1 else 1.0 / self.q


def braided_line(q: float) -> QContext:
    """Canonical one-dimensional context: kappa = q, zeta = -1, geometry G1."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"canonical G1 context requires 0 < q < 1, got {q}")
    return QContext(q)


def crossing_transform(ctx: QContext) -> QContext:
    """q -> 1/q: kappa -> 1/kappa, zeta -> -zeta, and the geometry label and
    conjugation flip with it.  The map is an involution."""
    return QContext(1.0 / ctx.q)


@dataclass(frozen=True)
class QLattice:
    """Truncated bilateral geometric lattice with Jackson weights.

    Points are built in ascending order: the negative branch from the
    outermost point inward, then the positive branch outward.  ``base`` is
    the contraction factor in (0, 1); an index shift j -> j+1 multiplies the
    point by ``base``.  Points and weights are built on first use.
    """

    x0: float
    j_min: int
    j_max: int
    base: float

    @functools.cached_property
    def points(self) -> np.ndarray:
        pos = self.x0 * self.base ** np.arange(self.j_min, self.j_max + 1)
        return np.concatenate([-pos, pos[::-1]])

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return (1.0 - self.base) * np.abs(self.points)

    @property
    def size(self) -> int:
        return 2 * (self.j_max - self.j_min + 1)

    def shift_map(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Index map for x -> base**m * x.

        Returns (idx, ok): for each point i, idx[i] is the index of the point
        ``base**m * x_i`` and ok[i] says whether it stays on the lattice.
        """
        n_per = self.size // 2
        i = np.arange(self.size)
        # j ascends along the negative branch and descends along the positive
        # one, so the shift moves an index by +m on the first half, -m on the second
        idx = i + np.where(i < n_per, m, -m)
        ok = idx // n_per == i // n_per
        return np.where(ok, idx, -1), ok


def make_lattice(q: float, x0: float = 1.0, j_min: int = -12, j_max: int = 12) -> QLattice:
    """Build the truncated lattice for deformation parameter q.

    A crossed context with q > 1 gives its 1/q partner's point set only up to
    rounding: the base is normalised to 1/q, and 1/(1/0.9) = 0.8999999999999999.
    """
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    if j_min > j_max:
        raise ValueError("j_min must not exceed j_max")
    base = q if q < 1.0 else 1.0 / q
    if not 0.0 < base < 1.0:
        raise ValueError(f"invalid deformation parameter {q}")
    return QLattice(x0, j_min, j_max, base)


@dataclass(eq=False)
class LatticeFunction:
    """Complex values on a QLattice at a fixed time stamp.

    ``valid`` marks points whose value is trustworthy; boundary-shifted
    points are zero-filled and flagged invalid, and norms are taken over
    valid points only.
    """

    lattice: QLattice
    values: np.ndarray
    time: float = 0.0
    valid: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.lattice.size,):
            raise ValueError("value count must equal lattice point count")
        if self.valid is None:
            self.valid = np.ones(self.lattice.size, dtype=bool)


def q_number(n: int, q: float) -> float:
    """[n]_q = (1 - q**n) / (1 - q)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if q <= 0 or q == 1.0:
        raise ValueError("q must be positive and != 1")
    return (1.0 - q ** n) / (1.0 - q)


def q_factorial(n: int, q: float) -> float:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1.0
    for k in range(1, n + 1):
        out *= q_number(k, q)
    return out


class QExpResult(NamedTuple):
    value: complex | np.ndarray
    last_term: float | np.ndarray  # magnitude of the last retained term
    converged: bool | np.ndarray


def q_exponential(z, q: float, n_trunc: int) -> QExpResult:
    """Partial sum of sum_n z**n / [n]_q! with a convergence diagnostic, entrywise.

    An entry whose term overflows stops summing there and is reported through
    ``converged=False`` and an infinite last term rather than silently
    propagating infs.  A scalar z gives a complex, a float and a bool.  The real
    and imaginary parts are divided by [n]_q separately, as Python's complex
    arithmetic does; numpy's complex / real rounds differently in the last bit.
    """
    if n_trunc < 1:
        raise ValueError("n_trunc must be >= 1")
    z = np.asarray(z, dtype=complex)
    total, term = np.ones_like(z), np.ones_like(z)
    dead = np.zeros(z.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_trunc + 1):
            qn = q_number(n, q)
            term *= z
            term.real /= qn
            term.imag /= qn
            dead |= ~np.isfinite(term)
            total = np.where(dead, total, total + term)
        last = np.where(dead, np.inf, np.abs(term))
        converged = np.isfinite(total) & (last <= 1e-6 * np.maximum(np.abs(total), 1.0))
    if z.ndim == 0:
        return QExpResult(complex(total), float(last), bool(converged))
    return QExpResult(total, last, converged)


def jackson_derivative(f: LatticeFunction, ctx: QContext) -> LatticeFunction:
    """Pointwise difference quotient (f(x) - f(s x)) / ((1 - s) x), s the
    context's shift factor.  Where s x falls off the lattice the shifted term
    is zero-filled and the row flagged invalid."""
    s = ctx.shift_factor
    if not np.isclose(s, f.lattice.base):
        raise ValueError("context shift factor does not match the lattice base")
    idx, ok = f.lattice.shift_map(1)
    shifted = np.where(ok, f.values[idx], 0.0)
    vals = (f.values - shifted) / ((1.0 - s) * f.lattice.points)
    return LatticeFunction(f.lattice, vals, time=f.time, valid=f.valid & ok)


def jackson_integral(f: LatticeFunction) -> complex:
    """Weighted sum over valid lattice points."""
    return complex(np.sum(f.lattice.weights[f.valid] * f.values[f.valid]))


def kappa_scale(f: LatticeFunction, m: int, ctx: QContext) -> LatticeFunction:
    """g(x) = f(kappa**m x), an exact index shift on the lattice.

    Points shifted past the truncation boundary are zero-filled and
    flagged invalid.
    """
    # kappa**m x corresponds to base**(e*m) x for some integer orientation e
    ratio = np.log(ctx.kappa) / np.log(f.lattice.base)
    e = int(round(ratio))
    if not np.isclose(ratio, e):
        raise ValueError("kappa is not an integer power of the lattice base")
    idx, ok = f.lattice.shift_map(e * m)
    vals = np.where(ok, f.values[idx], 0.0)
    return LatticeFunction(f.lattice, vals, time=f.time, valid=ok & f.valid[idx])


def sesquilinear(f: LatticeFunction, g: LatticeFunction) -> complex:
    """<f, g> = sum_x w(x) conj(f(x)) g(x) over mutually valid points."""
    if f.lattice != g.lattice:
        raise ValueError("lattice mismatch")
    mask = f.valid & g.valid
    return complex(np.sum(f.lattice.weights[mask] * np.conj(f.values[mask]) * g.values[mask]))
