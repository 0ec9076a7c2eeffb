import dataclasses
import math

import numpy as np
import pytest

from braidline import (
    G1,
    G2,
    QContext,
    QLattice,
    braided_line,
    crossing_transform,
    make_lattice,
)
from braidline.basis import half_line_hamiltonian
from braidline.qcalc import q_exponential, q_number
from oracles import derivative_matrix, q_exponential_series

Q = 0.9
MASS = 1.0


@pytest.fixture(scope="module")
def ctx():
    return braided_line(Q)


@pytest.fixture(scope="module")
def lattice():
    return make_lattice(Q)


# ---------------------------------------------------------------------------
# contexts

def test_braided_line_parameters(ctx):
    assert ctx.q == Q
    assert ctx.geometry == G1


def test_context_rejects_bad_q():
    with pytest.raises(ValueError):
        QContext(1.0)
    with pytest.raises(ValueError):
        QContext(-0.5)
    with pytest.raises(ValueError):
        braided_line(1.2)


def test_crossing_transform_values(ctx):
    c2 = crossing_transform(ctx)
    assert c2.q == pytest.approx(1.0 / Q)
    assert c2.geometry == G2


def test_crossing_transform_is_involution(ctx):
    back = crossing_transform(crossing_transform(ctx))
    assert back.q == pytest.approx(ctx.q)
    assert back.geometry == ctx.geometry


def test_shift_factor_by_geometry(ctx):
    assert ctx.shift_factor == Q
    assert crossing_transform(ctx).shift_factor == pytest.approx(Q)


@pytest.mark.parametrize("q", [0.25, 0.5, 0.9, 0.99, 0.999, 1 - 2.0**-52])
def test_context_is_derived_from_q(q):
    # the values a context derives from q, built by the formulas that set them: the
    # braided line, then each crossing inverts q and flips the geometry
    q_, geometry = q, G1
    ctx = braided_line(q)
    for _ in range(3):
        shift = q_ if geometry == G1 else 1.0 / q_
        assert (ctx.q, ctx.geometry, ctx.shift_factor) == (q_, geometry, shift)
        q_, geometry = 1.0 / q_, G2 if geometry == G1 else G1
        ctx = crossing_transform(ctx)


def test_context_is_its_q():
    assert [f.name for f in dataclasses.fields(QContext)] == ["q"]
    assert QContext(0.9) == braided_line(0.9)
    assert hash(QContext(0.9)) == hash(braided_line(0.9))
    assert crossing_transform(QContext(0.9)) == QContext(1.0 / 0.9)
    for bad in (0.0, -0.5, 1.0):
        with pytest.raises(ValueError):
            QContext(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_context_refuses_non_finite_q(bad):
    # nan compares false both ways, so it once passed for a G2 context
    with pytest.raises(ValueError, match="finite"):
        QContext(bad)


def test_crossing_refuses_an_overflowing_reciprocal():
    # 1/5e-324 is inf: crossing the smallest subnormal q has no context
    ctx = braided_line(5e-324)
    with pytest.raises(ValueError, match="finite"):
        crossing_transform(ctx)


# ---------------------------------------------------------------------------
# lattice

def test_lattice_layout(lattice):
    assert lattice.size == 50
    assert np.all(np.diff(lattice.points) > 0)
    # symmetric under x -> -x as an index reversal
    assert np.allclose(lattice.points, -lattice.points[::-1])
    assert np.allclose(lattice.weights, (1 - Q) * np.abs(lattice.points))


def test_lattice_base_normalised():
    a = make_lattice(Q)
    b = make_lattice(1.0 / Q)
    assert np.allclose(a.points, b.points)


def test_lattice_validation():
    with pytest.raises(ValueError):
        make_lattice(Q, x0=-1.0)
    with pytest.raises(ValueError):
        make_lattice(Q, j_min=3, j_max=1)


@pytest.mark.parametrize("q, x0, j_min, j_max", [
    (Q, 1.0, -12, 12),
    (1.0 / Q, 1.0, -12, 12),  # crossed q > 1: the base is normalised to 1/q
    (Q, 0.7, 0, 0),  # a single point per branch
    (0.25, 1.0, -132, -64),
], ids=["q0.9", "crossed", "single-point", "q0.25-graded"])
def test_lattice_matches_per_point_oracle(q, x0, j_min, j_max):
    # each point carries its exponent j and its sign
    base = q if q < 1.0 else 1.0 / q
    j = np.arange(j_min, j_max + 1)
    exponent = np.concatenate([j, j[::-1]])
    sign = np.concatenate([-np.ones_like(j), np.ones_like(j)])
    points = sign * (x0 * base ** exponent)
    lat = make_lattice(q, x0=x0, j_min=j_min, j_max=j_max)
    assert lat.size == points.size
    assert np.array_equal(lat.points, points)
    assert np.array_equal(lat.weights, (1.0 - base) * np.abs(points))


def test_lattice_is_its_four_parameters():
    a, b = make_lattice(Q, x0=0.5), make_lattice(Q, x0=0.5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "a"}[b] == "a"
    assert a != make_lattice(Q, x0=0.6)
    assert a != make_lattice(0.5, x0=0.5)  # another base
    assert [f.name for f in dataclasses.fields(QLattice)] == ["x0", "j_min", "j_max", "base"]


# ---------------------------------------------------------------------------
# q-numbers and the q-exponential

def test_q_number_closed_form():
    for n in range(8):
        assert q_number(n, Q) == pytest.approx((1 - Q**n) / (1 - Q))
    assert q_number(0, Q) == 0.0
    assert q_number(1, Q) == 1.0


def test_q_number_classical_limit():
    assert q_number(5, 1 - 1e-9) == pytest.approx(5.0, rel=1e-6)


def test_q_exponential_series_oracle():
    # a general complex z against the partial sums computed independently
    res = q_exponential(0.3 + 0.1j, Q, 30)
    assert res.converged
    assert res == q_exponential_series(0.3 + 0.1j, Q, 30)


def test_q_exponential_overflow_flagged():
    res = q_exponential(1e200, Q, 400)
    assert not res.converged


@pytest.mark.parametrize("momenta, n_trunc", [(np.linspace(0.3, 2.0, 8), 60),
                                               (np.array([0.5, 1e6]), 300)],
                         ids=["basis_grid", "overflow"])
def test_q_exponential_grid_matches_scalar_series(lattice, momenta, n_trunc):
    # the points x momenta grid of build_qexp_basis in one call against the
    # series summed entry by entry in Python complex arithmetic, bit for bit
    z = 1j * np.outer(lattice.points, momenta)
    res = q_exponential(z, Q, n_trunc)
    ref = [q_exponential_series(complex(zz), Q, n_trunc) for zz in z.ravel()]
    value, last, converged = (np.array(col).reshape(z.shape) for col in zip(*ref))
    assert np.array_equal(res.value.view(np.uint64), value.view(np.uint64))
    assert np.array_equal(res.last_term, last)
    assert np.array_equal(res.converged, converged)
    assert converged[:, 0].all() and not converged[:, -1].all()  # the last is rejected
    one = q_exponential(z[3, 1], Q, n_trunc)
    assert [type(x) for x in one] == [complex, float, bool]
    assert one == (value[3, 1], last[3, 1], converged[3, 1])


def test_q_exponential_rejects_bad_truncation():
    with pytest.raises(ValueError):
        q_exponential(1.0, Q, 0)


# ---------------------------------------------------------------------------
# the Jackson derivative, as the dense oracle and as H0 is built from it, and
# the Jackson integral, as the weighted sum over the lattice

def interior(lattice):
    """The rows whose shifted point s x stays on the lattice: all but the two innermost."""
    ok = np.ones(lattice.size, dtype=bool)
    ok[[lattice.size // 2 - 1, lattice.size // 2]] = False
    return ok


def test_derivative_of_monomials(lattice, ctx):
    # D x**n = [n]_q x**(n-1) away from the zero-filled boundary
    x, ok = lattice.points, interior(lattice)
    d = derivative_matrix(lattice, ctx)
    for n in range(1, 5):
        expect = q_number(n, Q) * x ** (n - 1)
        assert np.allclose((d @ x ** n)[ok], expect[ok], rtol=1e-11)


def test_derivative_flags_boundary(lattice, ctx):
    # a constant has zero derivative except on the two rows with no inner neighbour
    df = derivative_matrix(lattice, ctx) @ np.ones(lattice.size)
    ok = interior(lattice)
    assert np.count_nonzero(~ok) == 2
    assert np.allclose(df[ok], 0.0)
    assert np.all(df[~ok] != 0.0)


@pytest.mark.parametrize("q, j_max", [(Q, 12), (0.99, 200)], ids=["n50", "n802"])
def test_derivative_matches_dense_matrix(q, j_max):
    # the two-point stencil of the half-line H0, B^T B / 2m with B = W^1/2 D W^-1/2,
    # against the same product of the dense derivative matrix on the positive branch
    ctx = braided_line(q)
    lat = make_lattice(q, j_min=-j_max, j_max=j_max)
    diag, off = half_line_hamiltonian(lat, MASS, ctx)
    sw = np.sqrt(lat.weights)
    b = (sw[:, None] * derivative_matrix(lat, ctx)) / sw[None, :]
    half = lat.size // 2
    dense = (b.T @ b / (2.0 * MASS))[half:, half:]
    assert not (b.T @ b)[:half, half:].any()  # the branches never couple
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(diag - np.diag(dense))) <= 1e-13 * scale
    assert np.max(np.abs(off - np.diag(dense, -1))) <= 1e-13 * scale
    assert np.array_equal(np.diag(dense, -1), np.diag(dense, 1))
    assert not np.triu(dense, 2).any()


def test_jackson_derivative_requires_matching_base(lattice):
    other = QContext(0.8)
    with pytest.raises(ValueError, match="shift factor"):
        half_line_hamiltonian(lattice, MASS, other)


def test_integral_geometric_series_oracle(lattice):
    # int_0^x0 t**2 dt -> x0**3 / [3]_q on the half lattice; the truncation
    # error of the tail is q**(3*(j_max+1)) relative
    x = lattice.points
    vals = np.where((x > 0) & (x <= 1.0), x ** 2, 0.0)  # the segment [0, x0]
    got = lattice.weights @ vals
    expect = 1.0 / q_number(3, Q)
    rel = abs(got - expect) / expect
    # the truncated geometric tail is exactly q**(3*(j_max - j_min + 1))
    assert rel == pytest.approx(Q ** 39, rel=1e-9)


def test_integral_of_derivative_telescopes(lattice, ctx):
    # fundamental theorem on the positive half: the Jackson sum of D f
    # telescopes to the boundary values
    x = lattice.points
    df = derivative_matrix(lattice, ctx) @ np.where(x > 0, np.exp(-x), 0.0)
    rows = interior(lattice) & (x > 0)
    got = lattice.weights[rows] @ df[rows]
    pos = x[x > 0]
    # the weighted sum telescopes between the outermost point and the
    # innermost point still referenced by a row
    expect = np.exp(-pos.max()) - np.exp(-pos.min())
    assert got == pytest.approx(expect, abs=1e-12)


def test_kappa_scaled_integral_jacobian(lattice):
    # int f(kappa x) d_q x = kappa**-1 int f(x) d_q x over the image of the shift: the
    # measure Jacobian that cancels a kernel's kappa**n prefactor (see propagator.compose)
    x, half = lattice.points, lattice.size // 2
    f = np.exp(-x ** 2)
    rows = np.flatnonzero(interior(lattice))
    shifted = rows + np.where(rows < half, 1, -1)  # the point kappa x = q x
    assert np.allclose(x[shifted], Q * x[rows])
    lhs = lattice.weights[rows] @ f[shifted]
    rhs = lattice.weights[shifted] @ f[shifted] / Q
    assert lhs == pytest.approx(rhs, rel=1e-12)
