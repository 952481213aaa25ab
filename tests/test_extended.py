"""Tests for the double-double band residual of the eigenvalue refinement
and the linear solve, and for the exact least-squares fit."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from stripwave.bloch import (FourierSeriesD, Lattice, _coupling, _fiber, assemble_bloch,
                             basis_set, gaussian_potential, series1d_to_lattice)
from stripwave.eigen import solve_eig
from stripwave.extended import Band, band_residual, exact_lstsq, two_prod, two_sum
from stripwave.galerkin import assemble_dense
from stripwave.potentials import poisson_kernel, sine


def loop_band_residual(diag, lower, shift_hi, shift_lo, x_hi, x_lo):
    """The band residual as one cascaded two_sum per subdiagonal, in a
    Python loop over the band: the form the vectorized one replaced."""
    xh, xl = (np.stack((x.real, x.imag)) for x in (x_hi, x_lo))
    turn = np.array([-1.0, 1.0])[:, None, None]  # i * x as a real pair
    plain = (xh, xl)
    turned = (xh[::-1] * turn, xl[::-1] * turn)
    n = xh.shape[1]
    d_hi, d_lo = two_sum(diag[:, None], -shift_hi[None, :])
    acc, err = two_prod(d_hi, xh)
    err += d_hi * xl + (d_lo - shift_lo) * xh
    for d, c in enumerate(lower[:n - 1], start=1):
        below, above = (slice(d, n), slice(0, n - d)), (slice(0, n - d), slice(d, n))
        for coef, (dst, src), (vh, vl) in (
                (c.real, below, plain), (c.real, above, plain),
                (c.imag, below, turned), (-c.imag, above, turned)):
            if coef == 0.0:
                continue
            p, e = two_prod(coef, vh[:, src])
            e += coef * vl[:, src]
            acc[:, dst], t = two_sum(acc[:, dst], p)
            err[:, dst] += t + e
    out = acc + err
    return out[0] + 1j * out[1]


# the spectral-1d reference size: order 1025, band 120
EVEN = poisson_kernel(1.3, mu=1.0, shift=2.0, cutoff=120)
CASES = {"even": EVEN, "coupled": EVEN + sine(0.5, 2)}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("near_eigenvector", [True, False])
def test_matches_the_loop_to_double_double(name, near_eigenvector):
    V, cutoff = CASES[name], 512
    res = solve_eig(V, cutoff, 2)
    op = _fiber(series1d_to_lattice(V)[1], np.zeros(1), cutoff, 0)
    # the operator's band is trimmed to V's 120 modes
    coupling = op.coupling()
    assert isinstance(coupling, Band) and coupling.reach == 120
    assert np.any(coupling.coef.imag) == (name == "coupled")
    lower = assemble_dense(V, cutoff)[1:121, 0]
    rng = np.random.default_rng(7)
    x_hi = np.column_stack([v.coeffs for v in res.eigenvectors])
    if not near_eigenvector:
        x_hi = x_hi + rng.standard_normal(x_hi.shape)
    x_lo = x_hi * 2.0**-60 * rng.standard_normal(x_hi.shape)
    shift_hi = res.eigenvalues.copy()
    shift_lo = shift_hi * 2.0**-60 * rng.standard_normal(2)
    got = band_residual(op.diag, coupling, shift_hi, shift_lo, x_hi, x_lo)
    want = loop_band_residual(op.diag, lower, shift_hi, shift_lo, x_hi, x_lo)
    # the sums' size: |H| |x| + |shift| |x|
    scale = np.abs(assemble_dense(V, cutoff)) @ np.abs(x_hi) + np.abs(shift_hi * x_hi)
    if near_eigenvector:
        # the residual cancels to about eps * |H| |x|: its digits come from
        # the double-double sums
        assert np.max(np.abs(want)) < 1e-12 * np.max(scale)
    assert np.all(np.abs(got - want) <= 2.0**-100 * scale + 2.0**-52 * np.abs(want))


@pytest.mark.parametrize("name", sorted(CASES))
def test_blocks_follow_the_inversion_center(name):
    # the even V splits into its cosine and sine blocks; with sin 2x added
    # it has no inversion center and stays one block of order 2N + 1
    op = _fiber(series1d_to_lattice(CASES[name])[1], np.zeros(1), 40, 1)
    assert [len(block) for block in op.build()] == ([41, 40] if name == "even" else [81])
    assert op.rotation.form == ("parity" if name == "even" else "time-reversal")


def test_small_orders_and_zero_parts():
    # orders below the band, a band of one, and exactly zero real or
    # imaginary parts, which the vectorized form skips
    rng = np.random.default_rng(3)
    for n, band in [(1, 1), (2, 1), (5, 1), (5, 4), (9, 30)]:
        diag = rng.standard_normal(n) + np.arange(n) ** 2.0
        lower = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        for x in (rng.standard_normal((n, 2)) + 0j,
                  1j * rng.standard_normal((n, 2)),
                  rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))):
            for coefficients in (lower, lower.real + 0j):
                args = (np.array([0.5, -1.5]), np.array([1e-17, 3e-18]), x, 1e-17 * x)
                got = band_residual(diag, Band(coefficients, n), *args)
                want = loop_band_residual(diag, coefficients, *args)
                scale = np.abs(x).sum() * (np.abs(coefficients).sum() + n * n + 2)
                np.testing.assert_allclose(got, want, rtol=0, atol=2.0**-100 * scale)


@pytest.mark.parametrize("case", ["band", "gather"])
def test_double_product_is_the_off_diagonal_part(case):
    # the plain double product of the pilots' quick check, against the
    # dense matrix off its diagonal
    rng = np.random.default_rng(9)
    if case == "band":
        V, n = poisson_kernel(1.3, mu=1.0, shift=2.0, cutoff=40) + sine(0.5, 2), 30
        lattice, embedded = series1d_to_lattice(V)
        H, coupling = assemble_dense(V, n), _coupling(embedded, basis_set(lattice, [0.0], n))
    else:
        lattice = Lattice(2.0 * np.pi * np.eye(2))
        V = gaussian_potential(lattice, [[0.1, -0.2]], [0.6], [-1.5], 6.0)
        basis = basis_set(lattice, np.array([0.13, -0.29]), 4.0)
        H, coupling = assemble_bloch(V, basis), _coupling(V, basis)
    x = rng.standard_normal((len(H), 3)) + 1j * rng.standard_normal((len(H), 3))
    np.fill_diagonal(H, 0.0)
    np.testing.assert_allclose(coupling.product(x), H @ x, rtol=0,
                               atol=1e-13 * np.abs(H).sum(axis=1).max())


def test_rhs_is_subtracted_inside_the_sum():
    # rhs = fl(H x) cancels H x to rounding level: the result must be the
    # exact H x - rhs to double-double accuracy, not the rounding of H x
    rng = np.random.default_rng(11)
    n, band = 7, 3
    diag = rng.standard_normal(n) + np.arange(n) ** 2.0
    lower = rng.standard_normal(band) + 1j * rng.standard_normal(band)
    dense = np.diag(diag).astype(complex)
    for d, c in enumerate(lower, start=1):
        dense += np.diag(np.full(n - d, c), -d) + np.diag(np.full(n - d, np.conj(c)), d)
    x = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    rhs = dense @ x
    zero = np.zeros(1)
    got = band_residual(diag, Band(lower, n), zero, zero, x, np.zeros_like(x), rhs)[:, 0]

    def exact(z):
        return Fraction(float(z.real)), Fraction(float(z.imag))

    for row, b, value in zip(dense, rhs[:, 0], got):
        terms = [(exact(h), exact(v)) for h, v in zip(row, x[:, 0])]
        re = sum(h[0] * v[0] - h[1] * v[1] for h, v in terms) - exact(b)[0]
        im = sum(h[0] * v[1] + h[1] * v[0] for h, v in terms) - exact(b)[1]
        scale = float(sum(abs(h[0] * v[0]) + abs(h[1] * v[1]) + abs(h[0] * v[1])
                          + abs(h[1] * v[0]) for h, v in terms))
        for part, want in ((value.real, re), (value.imag, im)):
            assert abs(Fraction(part) - want) <= 2.0**-100 * scale + 2.0**-52 * abs(want)
    assert np.max(np.abs(got)) > 0  # the cancelled digits are kept


def neighbour_table(coupling):
    """Each row's neighbour at each offset, n where there is none."""
    n, rows = coupling.n, np.arange(coupling.n)
    if isinstance(coupling, Band):
        table = rows[:, None] + np.arange(len(coupling.coef)) - coupling.reach
        return np.where((table >= 0) & (table < n), table, n)
    return coupling.index[coupling.flat[:, None] - coupling.step]


def dot2_coupling(coupling, x_hi, x_lo):
    """H x as the residual summed it before the sliced products (Dot2):
    error-free products, summed pairwise by two_sum over chunks of a power
    of two of offsets (at most 2**13 products a chunk) and cascaded over
    the chunks; the four real terms are added by two_sum, rounded once."""
    table, coef = neighbour_table(coupling), coupling.coef
    n = len(table)
    chunk = 1 << max(0, min((len(coef) - 1).bit_length(), (2**13 // n).bit_length() - 1))
    pad = -len(coef) % chunk
    coef = np.concatenate((coef, np.zeros(pad)))
    table = np.pad(table, ((0, 0), (0, pad)), constant_values=n)

    def dot(w, vh, vl):
        hi, lo = np.zeros(n), np.zeros(n)
        for start in range(0, len(coef), chunk):
            ww, near = w[start:start + chunk, None], table[:, start:start + chunk].T
            p, e = two_prod(ww, vh[near])
            e += ww * vl[near]
            while len(p) > 1:
                half = len(p) // 2
                p, t = two_sum(p[:half], p[half:])
                e = e[:half] + e[half:] + t
            hi, t = two_sum(hi, p[0])
            lo = lo + (t + e[0])
        return hi, lo

    out = np.zeros(x_hi.shape, dtype=complex)
    for col in range(x_hi.shape[1]):
        xr, xi = ((np.append(x[:, col].real, 0.0), np.append(x[:, col].imag, 0.0))
                  for x in (x_hi, x_lo))
        xr, xi = zip(*(xr, xi))
        acc, err = [np.zeros(n), np.zeros(n)], [np.zeros(n), np.zeros(n)]
        for part, w, (vh, vl) in ((0, coef.real, xr), (0, -coef.imag, xi),
                                  (1, coef.real, xi), (1, coef.imag, xr)):
            hi, lo = dot(w, vh, vl)
            acc[part], t = two_sum(acc[part], hi)
            err[part] += t + lo
        out[:, col] = (acc[0] + err[0]) + 1j * (acc[1] + err[1])
    return out


SCALE = 1200  # every double times 2**SCALE is an integer


def integer(v):
    num, den = float(v).as_integer_ratio()
    return num * (2**SCALE // den)


def exact_coupling(coupling, x_hi, x_lo):
    """H x times 2**(2 SCALE) in integers, real and imaginary parts."""
    table = neighbour_table(coupling)
    n, m = x_hi.shape
    parts = [[[integer(h.real) + integer(lo.real) for h, lo in zip(x_hi[:, c], x_lo[:, c])],
              [integer(h.imag) + integer(lo.imag) for h, lo in zip(x_hi[:, c], x_lo[:, c])]]
             for c in range(m)]
    coef = [(integer(c.real), integer(c.imag)) for c in coupling.coef]
    out = np.zeros((n, m, 2), dtype=object)
    for i, row in enumerate(table):
        terms = [(coef[t], j) for t, j in enumerate(row) if j < n and coupling.coef[t] != 0]
        for c, (xr, xi) in enumerate(parts):
            out[i, c] = (sum(a * xr[j] - b * xi[j] for (a, b), j in terms),
                         sum(a * xi[j] + b * xr[j] for (a, b), j in terms))
    return out


def wide_sources(rng, n, lowest):
    """Complex double-doubles (n, 3) whose entries span 2**0 to 2**lowest:
    random signs and mantissas, a low part on every other row, some -0.0
    and an all-zero middle column."""
    def spread(size, top):
        return np.ldexp(rng.uniform(0.5, 1.0, size) * rng.choice([-1.0, 1.0], size),
                        top + rng.integers(lowest, 1, size))
    x_hi = spread((n, 3), 0) + 1j * spread((n, 3), 0)
    x_lo = (spread((n, 3), -60) * np.abs(x_hi.real)
            + 1j * spread((n, 3), -60) * np.abs(x_hi.imag))
    x_lo[::2] = 0.0
    x_hi, x_lo = two_sum(x_hi, x_lo)
    signed = rng.uniform(size=(n, 3)) < 0.1
    x_hi[signed], x_lo[signed] = -0.0 - 0.0j, 0.0
    x_hi[:, 1] = x_lo[:, 1] = 0.0
    return x_hi, x_lo


def band_coupling(rng, n, integers):
    reach = 12
    if integers:
        lower = rng.integers(-999, 1000, reach) + 1j * rng.integers(-999, 1000, reach)
    else:
        lower = (rng.uniform(-1, 1, reach) + 1j * rng.uniform(-1, 1, reach)) \
            * 2.0 ** (-5 * np.arange(reach))
    return Band(lower, n)


def cube_coupling(integers):
    """More offsets than rows: a gaussian-sum cutoff 8 on the cube fiber of
    cutoff 3, or integer coefficients on the unit cube (|cell| = 1)."""
    a = 1.0 if integers else 2.0 * np.pi
    lat = Lattice(a * np.eye(3))
    basis = basis_set(lat, np.array([0.1, 0.2, 0.3]) * 2.0 * np.pi / a, 3.0 * 2.0 * np.pi / a)
    if integers:
        rng = np.random.default_rng(5)
        coeffs = {}
        for key in itertools.product(range(-4, 5), repeat=3):
            coeffs[key] = complex(*rng.integers(-999, 1000, 2))
            coeffs[tuple(-k for k in key)] = coeffs[key].conjugate()
        coeffs[(0, 0, 0)] = 0.0
        V = FourierSeriesD(lat, coeffs)
    else:
        V = gaussian_potential(lat, [[0.1, 0.2, 0.3]], [0.4], [1.0], 8.0)
    coupling = _coupling(V, basis)
    assert len(coupling.coef) > coupling.n
    return coupling


CASES_WIDE = {
    # sources over 300 binary orders; with integer coefficients down to
    # subnormals, where no product of slices leaves the double range
    "band": (lambda rng, n: band_coupling(rng, n, False), -400),
    "band-subnormal": (lambda rng, n: band_coupling(rng, n, True), -1074),
    "cube": (lambda rng, n: cube_coupling(False), -400),
    "cube-subnormal": (lambda rng, n: cube_coupling(True), -1074),
}


@pytest.mark.parametrize("name", sorted(CASES_WIDE))
def test_sliced_products_are_exact(name):
    make, lowest = CASES_WIDE[name]
    rng = np.random.default_rng(sorted(CASES_WIDE).index(name))
    coupling = make(rng, 40)
    n = coupling.n
    x_hi, x_lo = wide_sources(rng, n, lowest)
    exact = exact_coupling(coupling, x_hi, x_lo)
    # the terms add up to H x exactly
    xh, xl = (np.ascontiguousarray(x).view(float).reshape(n, 3, 2) for x in (x_hi, x_lo))
    terms = coupling.terms(xh, xl)
    assert np.array_equal(np.vectorize(integer, otypes=[object])(terms).sum(axis=0)
                          * 2**SCALE, exact)
    # and each entry of the rounded sum is no further from it than Dot2's
    got = band_residual(np.zeros(n), coupling, np.zeros(3), np.zeros(3), x_hi, x_lo)
    dot2 = dot2_coupling(coupling, x_hi, x_lo)
    for value, old, want in zip(got.ravel(), dot2.ravel(), exact.reshape(-1, 2)):
        for part in (0, 1):
            err = abs(integer((value.real, value.imag)[part]) * 2**SCALE - want[part])
            assert err <= abs(integer((old.real, old.imag)[part]) * 2**SCALE - want[part])
    assert not np.any(got[:, 1])


def test_sums_at_their_bound():
    # 256 offsets; both parts of the coefficients and of x are all ones down
    # to their last bit, but for one bit of the imaginary coefficients, so
    # that the slice pairs of one level come within a factor 2 of 2**53 and
    # rows with an odd count of neighbours have odd sums: one bit more per
    # slice would round them
    ones = 1.0 - 2.0**-53
    coupling = Band(np.full(128, ones + 1j * (ones - 2.0**-44)), 400)
    x_hi = np.full((400, 1), ones * (1 + 1j))
    x_lo = x_hi * 2.0**-54
    xh, xl = (np.ascontiguousarray(x).view(float).reshape(400, 1, 2) for x in (x_hi, x_lo))
    terms = np.vectorize(integer, otypes=[object])(coupling.terms(xh, xl))
    assert np.array_equal(terms.sum(axis=0) * 2**SCALE, exact_coupling(coupling, x_hi, x_lo))


def exact_fit(columns, y):
    """Coefficients and mean squared misfit, from the exact residual of
    the exact solution of the normal equations by Cramer's rule."""
    x = [[Fraction(float(v)) for v in col] for col in columns]
    y = [Fraction(float(v)) for v in y]
    gram = [[sum(map(lambda p, q: p * q, a, b)) for b in x] for a in x]
    xty = [sum(map(lambda p, q: p * q, a, y)) for a in x]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)))

    whole = det(gram)
    coef = [det([row[:i] + [b] + row[i + 1:] for row, b in zip(gram, xty)]) / whole
            for i in range(len(x))]
    misfit = [sum(c * col[r] for c, col in zip(coef, x)) - y[r] for r in range(len(y))]
    return [float(c) for c in coef], float(sum(m * m for m in misfit) / len(y))


@pytest.mark.parametrize("seed", range(4))
def test_exact_lstsq_is_the_rounded_exact_fit(seed):
    rng = np.random.default_rng(seed)
    k = np.arange(3.0, 3.0 + rng.integers(6, 40))
    y = -0.8 * k - 1.3 * np.log1p(k) + 1e-3 * rng.standard_normal(len(k))
    columns = [np.ones_like(k), -k, -np.log1p(k)]
    coef, misfit = exact_lstsq(columns, y)
    assert (coef, misfit) == exact_fit(columns, y)
    # rows in any order give the same bits
    order = rng.permutation(len(k))
    assert exact_lstsq([c[order] for c in columns], y[order]) == (coef, misfit)
    np.testing.assert_allclose(coef, np.linalg.lstsq(np.column_stack(columns), y,
                                                     rcond=None)[0], rtol=1e-9)


def test_exact_lstsq_of_an_exact_line():
    x = np.arange(1.0, 9.0)
    assert exact_lstsq([np.ones_like(x), x], 0.5 - 0.25 * x) == ([0.5, -0.25], 0.0)
    assert math.isclose(exact_lstsq([np.ones(3), np.array([0.0, 1.0, 2.0])],
                                    np.array([0.0, 1.0, 0.0]))[1], 2 / 9)
