"""Tests for the double-double band residual of the eigenvalue refinement
and the linear solve, and for the exact least-squares fit."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stripwave.eigen import solve_eig
from stripwave.extended import Band, _prod, band_residual, exact_lstsq, split, two_sum
from stripwave.galerkin import assemble_dense, coefficient_column
from stripwave.potentials import poisson_kernel, sine


def loop_band_residual(diag, lower, shift_hi, shift_lo, x_hi, x_lo):
    """The band residual as one cascaded two_sum per subdiagonal, in a
    Python loop over the band: the form the vectorized one replaced."""
    xh, xl = (np.stack((x.real, x.imag)) for x in (x_hi, x_lo))
    turn = np.array([-1.0, 1.0])[:, None, None]  # i * x as a real pair
    plain = (xh, split(xh), xl)
    turned = (xh[::-1] * turn, split(xh[::-1] * turn), xl[::-1] * turn)
    n = xh.shape[1]
    d_hi, d_lo = two_sum(diag[:, None], -shift_hi[None, :])
    acc, err = _prod(d_hi, split(d_hi), xh, plain[1])
    err += d_hi * xl + (d_lo - shift_lo) * xh
    for d, c in enumerate(lower[:n - 1], start=1):
        below, above = (slice(d, n), slice(0, n - d)), (slice(0, n - d), slice(d, n))
        for coef, (dst, src), (vh, (vh_hi, vh_lo), vl) in (
                (c.real, below, plain), (c.real, above, plain),
                (c.imag, below, turned), (-c.imag, above, turned)):
            if coef == 0.0:
                continue
            p, e = _prod(coef, split(coef), vh[:, src], (vh_hi[:, src], vh_lo[:, src]))
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
    op = res._operator
    # the operator's band is trimmed to V's 120 modes
    coupling = op.coupling()
    assert coupling.reach == 120
    assert np.any(coupling.coef.imag) == (name == "coupled")
    lower = coefficient_column(V, cutoff)[1:121]
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
