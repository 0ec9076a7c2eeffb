import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidline import (
    G1,
    G2,
    LatticeFunction,
    QContext,
    QLattice,
    braided_line,
    crossing_transform,
    jackson_derivative,
    jackson_integral,
    kappa_scale,
    make_lattice,
    q_exponential,
    q_factorial,
    q_number,
    sesquilinear,
)
from oracles import derivative_matrix, q_exponential_series

Q = 0.9


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
    assert ctx.kappa == Q
    assert ctx.zeta == -1
    assert ctx.geometry == G1
    assert not ctx.barred


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
    assert c2.kappa == pytest.approx(1.0 / Q)
    assert c2.zeta == 1
    assert c2.geometry == G2
    assert c2.barred


def test_crossing_transform_is_involution(ctx):
    back = crossing_transform(crossing_transform(ctx))
    assert back.q == pytest.approx(ctx.q)
    assert back.kappa == pytest.approx(ctx.kappa)
    assert back.zeta == ctx.zeta
    assert back.geometry == ctx.geometry
    assert back.barred == ctx.barred


def test_shift_factor_by_geometry(ctx):
    assert ctx.shift_factor == Q
    assert crossing_transform(ctx).shift_factor == pytest.approx(Q)


@pytest.mark.parametrize("q", [0.25, 0.5, 0.9, 0.99, 0.999, 1 - 2.0**-52])
def test_context_is_derived_from_q(q):
    # the five values a context once stored, built by the formulas that set them:
    # the braided line, then each crossing inverts q and kappa and flips the rest
    q_, kappa, zeta, geometry, barred = q, q, -1, G1, False
    ctx = braided_line(q)
    for _ in range(3):
        shift = q_ if geometry == G1 else 1.0 / q_
        assert (ctx.q, ctx.kappa, ctx.zeta, ctx.geometry, ctx.barred, ctx.shift_factor) \
            == (q_, kappa, zeta, geometry, barred, shift)
        assert type(ctx.zeta) is int and type(ctx.barred) is bool
        q_, kappa, zeta = 1.0 / q_, 1.0 / kappa, -zeta
        geometry, barred = G2 if geometry == G1 else G1, not barred
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


def test_lattice_shift_map_roundtrip(lattice):
    idx, ok = lattice.shift_map(1)
    x = lattice.points
    assert np.allclose(x[idx[ok]], Q * x[ok])
    # innermost points fall off the lattice
    assert np.count_nonzero(~ok) == 2
    idx0, ok0 = lattice.shift_map(0)
    assert np.all(ok0)
    assert np.all(idx0 == np.arange(lattice.size))


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
    # each point carries its exponent j and its sign; the shift map reads them
    base = q if q < 1.0 else 1.0 / q
    j = np.arange(j_min, j_max + 1)
    exponent = np.concatenate([j, j[::-1]])
    sign = np.concatenate([-np.ones_like(j), np.ones_like(j)])
    points = sign * (x0 * base ** exponent)
    lat = make_lattice(q, x0=x0, j_min=j_min, j_max=j_max)
    assert lat.size == points.size
    assert np.array_equal(lat.points, points)
    assert np.array_equal(lat.weights, (1.0 - base) * np.abs(points))
    n_per = j.size
    for m in range(-(lat.size + 2), lat.size + 3):
        jj = exponent + m
        ok = (jj >= j_min) & (jj <= j_max)
        idx = np.where(sign < 0, jj - j_min, n_per + (j_max - jj))
        idx[~ok] = -1
        got_idx, got_ok = lat.shift_map(m)
        assert got_idx.dtype == idx.dtype and np.array_equal(got_idx, idx), m
        assert np.array_equal(got_ok, ok), m


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


def test_q_factorial_product_oracle():
    for n in range(1, 9):
        prod = 1.0
        for k in range(1, n + 1):
            prod *= q_number(k, Q)
        assert q_factorial(n, Q) == pytest.approx(prod, rel=1e-14)
    assert q_factorial(0, Q) == 1.0


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
# derivative and integral

def test_derivative_of_monomials(lattice, ctx):
    # D x**n = [n]_q x**(n-1) away from the zero-filled boundary
    x = lattice.points
    for n in range(1, 5):
        f = LatticeFunction(lattice, x.astype(complex) ** n)
        df = jackson_derivative(f, ctx)
        expect = q_number(n, Q) * x ** (n - 1)
        assert np.allclose(df.values[df.valid], expect[df.valid], rtol=1e-11)


def test_derivative_flags_boundary(lattice, ctx):
    f = LatticeFunction(lattice, np.ones(lattice.size, dtype=complex))
    df = jackson_derivative(f, ctx)
    assert np.count_nonzero(~df.valid) == 2
    assert np.allclose(df.values[df.valid], 0.0)


@pytest.mark.parametrize("q, j_max", [(Q, 12), (0.99, 200)], ids=["n50", "n802"])
def test_derivative_matches_dense_matrix(q, j_max):
    # the two-point stencil against the dense matrix it replaced
    ctx = braided_line(q)
    lat = make_lattice(q, j_min=-j_max, j_max=j_max)
    rng = np.random.default_rng(3)
    x = lat.points
    d = derivative_matrix(lat, ctx)
    for vals in (rng.normal(size=lat.size) + 1j * rng.normal(size=lat.size),
                 np.exp(-x * x).astype(complex)):
        df = jackson_derivative(LatticeFunction(lat, vals), ctx)
        dense = d @ vals
        assert np.max(np.abs(df.values - dense)) <= 1e-13 * np.max(np.abs(dense))
        _, ok = lat.shift_map(1)
        assert np.array_equal(df.valid, ok)


def test_jackson_derivative_requires_matching_base(lattice):
    other = QContext(0.8)
    with pytest.raises(ValueError):
        jackson_derivative(LatticeFunction(lattice, np.ones(lattice.size)), other)


def test_integral_geometric_series_oracle(lattice):
    # int_0^x0 t**2 dt -> x0**3 / [3]_q on the half lattice; the truncation
    # error of the tail is q**(3*(j_max+1)) relative
    x = lattice.points
    vals = np.where(x > 0, x.astype(complex) ** 2, 0.0)
    f = LatticeFunction(lattice, vals)
    # restrict to the segment [0, x0]
    f.values[np.abs(x) > 1.0] = 0.0
    got = jackson_integral(f).real
    expect = 1.0 / q_number(3, Q)
    rel = abs(got - expect) / expect
    # the truncated geometric tail is exactly q**(3*(j_max - j_min + 1))
    assert rel == pytest.approx(Q ** 39, rel=1e-9)


def test_integral_of_derivative_telescopes(lattice, ctx):
    # fundamental theorem on the positive half: the Jackson sum of D f
    # telescopes to the boundary values
    x = lattice.points
    vals = np.where(x > 0, np.exp(-x), 0.0).astype(complex)
    f = LatticeFunction(lattice, vals)
    df = jackson_derivative(f, ctx)
    df.values[x < 0] = 0.0
    got = jackson_integral(df).real
    pos = x[x > 0]
    # the weighted sum telescopes between the outermost point and the
    # innermost point still referenced by a valid row
    expect = np.exp(-pos.max()) - np.exp(-pos.min())
    assert got == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# kappa scaling

def test_kappa_scale_matches_point_shift(lattice, ctx):
    x = lattice.points
    f = LatticeFunction(lattice, np.exp(-(x**2)).astype(complex))
    g = kappa_scale(f, 1, ctx)
    assert np.allclose(g.values[g.valid], np.exp(-((Q * x[g.valid]) ** 2)))


def test_kappa_scale_inverse_shift(lattice, ctx):
    x = lattice.points
    f = LatticeFunction(lattice, (x.astype(complex)) ** 3)
    g = kappa_scale(f, -1, ctx)
    assert np.allclose(g.values[g.valid], (x[g.valid] / Q) ** 3)


def test_kappa_scale_roundtrip_interior(lattice, ctx):
    rng = np.random.default_rng(3)
    f = LatticeFunction(lattice, rng.normal(size=lattice.size) + 0j)
    back = kappa_scale(kappa_scale(f, 1, ctx), -1, ctx)
    assert np.allclose(back.values[back.valid], f.values[back.valid])
    # the outermost point of each branch never returns
    assert np.count_nonzero(~back.valid) == 2


def test_kappa_scale_rejects_incommensurate():
    lat = make_lattice(Q)
    odd = braided_line(0.77)
    f = LatticeFunction(lat, np.ones(lat.size, dtype=complex))
    with pytest.raises(ValueError):
        kappa_scale(f, 1, odd)


def test_kappa_scaled_integral_jacobian(lattice, ctx):
    # int f(kappa x) d_q x = kappa**-1 int f(x) d_q x up to truncation
    x = lattice.points
    f = LatticeFunction(lattice, np.exp(-(x**2)).astype(complex))
    g = kappa_scale(f, 1, ctx)
    lhs = jackson_integral(g).real
    # integrate f over the image of the shift only
    idx, ok = lattice.shift_map(1)
    fv = f.values.copy()
    mask = np.zeros(lattice.size, dtype=bool)
    mask[idx[ok]] = True
    fv[~mask] = 0.0
    rhs = jackson_integral(LatticeFunction(lattice, fv)).real / Q
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# inner product properties

@st.composite
def lattice_values(draw):
    vals = draw(
        st.lists(
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            min_size=50,
            max_size=50,
        )
    )
    return np.array(vals)


@given(lattice_values(), lattice_values())
@settings(max_examples=25, deadline=None)
def test_sesquilinear_conjugate_symmetry(a, b):
    lat = make_lattice(Q)
    f = LatticeFunction(lat, a)
    g = LatticeFunction(lat, b)
    assert sesquilinear(f, g) == pytest.approx(np.conj(sesquilinear(g, f)), abs=1e-9)


@given(lattice_values())
@settings(max_examples=25, deadline=None)
def test_sesquilinear_positivity(a):
    lat = make_lattice(Q)
    f = LatticeFunction(lat, a)
    norm2 = sesquilinear(f, f)
    assert abs(norm2.imag) < 1e-9
    assert norm2.real >= 0.0


@given(lattice_values(), lattice_values())
@settings(max_examples=25, deadline=None)
def test_sesquilinear_cauchy_schwarz(a, b):
    lat = make_lattice(Q)
    f = LatticeFunction(lat, a)
    g = LatticeFunction(lat, b)
    lhs = abs(sesquilinear(f, g)) ** 2
    rhs = sesquilinear(f, f).real * sesquilinear(g, g).real
    assert lhs <= rhs * (1 + 1e-9) + 1e-9


@given(lattice_values(), lattice_values(), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=25, deadline=None)
def test_derivative_linearity(a, b, ca, cb):
    lat = make_lattice(Q)
    ctx = braided_line(Q)
    fa = LatticeFunction(lat, a)
    fb = LatticeFunction(lat, b)
    combo = LatticeFunction(lat, ca * a + cb * b)
    d_combo = jackson_derivative(combo, ctx)
    d_split = ca * jackson_derivative(fa, ctx).values + cb * jackson_derivative(fb, ctx).values
    scale = max(1.0, np.max(np.abs(d_split)))
    assert np.allclose(d_combo.values, d_split, atol=1e-7 * scale)
