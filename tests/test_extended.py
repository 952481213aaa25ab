"""Tests for the double-double band residual of the eigenvalue refinement."""

import numpy as np
import pytest

from stripwave.eigen import solve_eig
from stripwave.extended import Band, _prod, band_residual, split, two_sum
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
