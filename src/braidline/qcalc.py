"""q-deformation primitives: the context, the truncated bilateral Jackson
lattice, q-numbers and the q-exponential series.

The lattice consists of the points ``{+-x0 * b**j : j_min <= j <= j_max}``
with base ``0 < b < 1``, carrying the Jackson measure ``w(x) = (1-b)|x|``.
A context is its deformation parameter q alone: q fixes the geometry, the
scaling unit kappa, the exponent zeta and the conjugation bar, and crossing
is q -> 1/q.  Everything else in the package (bases, propagators,
scattering) is built on this lattice; the Jackson derivative enters only
through the free Hamiltonian (``basis.half_line_hamiltonian``).
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


def make_lattice(q: float, x0: float = 1.0, j_min: int = -12, j_max: int = 12) -> QLattice:
    """Build the truncated lattice for deformation parameter q.

    A crossed context with q > 1 gives its 1/q partner's point set only up to
    rounding: the base is normalised to 1/q, and 1/(1/0.9) = 0.8999999999999999.
    """
    if not 0 < x0 < np.inf:
        raise ValueError(f"x0 must be positive and finite: {x0!r}")
    if j_min > j_max:
        raise ValueError("j_min must not exceed j_max")
    base = q if q < 1.0 else 1.0 / q
    if not 0.0 < base < 1.0:
        raise ValueError(f"invalid deformation parameter {q}")
    return QLattice(x0, j_min, j_max, base)


def q_number(n: int, q: float) -> float:
    """[n]_q = (1 - q**n) / (1 - q)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if q <= 0 or q == 1.0:
        raise ValueError("q must be positive and != 1")
    return (1.0 - q ** n) / (1.0 - q)


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
