"""Unit tests for the 1D Fourier series core."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stripwave.errors import InsufficientDataError, InvalidParameterError
from stripwave.fourier import (SQRT_2PI, FourierSeries1D, estimate_strip,
                               grid_values, l2_norm, multiplier_norm_bound,
                               multiply, project, series_from_json, strip_norm,
                               strip_weight)
from stripwave.linear import solve_linear
from stripwave.potentials import cosine, sine


def random_series(cutoff, seed, real=False):
    rng = np.random.RandomState(seed)
    c = rng.randn(2 * cutoff + 1) + 1j * rng.randn(2 * cutoff + 1)
    if real:
        c = 0.5 * (c + np.conj(c[::-1]))
    return FourierSeries1D(cutoff, c)


def evaluate(u, z):
    """Oracle: sum_k u_k exp(i*k*z) / sqrt(2*pi) at real or complex z."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    vals = np.exp(1j * np.outer(z_arr, u.wavenumbers())) @ u.coeffs / SQRT_2PI
    return complex(vals[0]) if np.ndim(z) == 0 else vals


class TestStripWeight:
    def test_at_zero(self):
        assert strip_weight(0.5, 0) == 1.0

    def test_scalar_value(self):
        assert strip_weight(0.5, 3) == pytest.approx(math.cosh(3.0), rel=1e-14)

    def test_even_in_k(self):
        k = np.arange(1, 20)
        assert np.array_equal(strip_weight(0.7, k), strip_weight(0.7, -k))

    def test_rejects_nonpositive_half_width(self):
        with pytest.raises(InvalidParameterError):
            strip_weight(0.0, 1)
        with pytest.raises(InvalidParameterError):
            strip_weight(-1.0, 1)


class TestStripNorm:
    def test_constant_mode(self):
        u = FourierSeries1D.mode(0, 1.0)
        for a in (0.1, 1.0, 5.0):
            assert strip_norm(u, a) == pytest.approx(1.0)

    def test_single_mode(self):
        u = FourierSeries1D.mode(1, 1.0)
        assert strip_norm(u, 0.5) == pytest.approx(math.sqrt(math.cosh(1.0)),
                                                   rel=1e-14)

    def test_matches_shifted_line_quadrature(self):
        # ||u||_A^2 should equal the mean of the L2 norms on the two lines
        # Im z = +/- A, computed by exact trapezoidal quadrature.
        n = 40
        k = np.arange(-n, n + 1)
        u = FourierSeries1D(n, 0.25 ** np.abs(k) + 0j)
        a = 0.5
        n_grid = 4 * n + 3  # |u(x+iA)|^2 has degree 2n, so this is exact
        x = 2 * np.pi * np.arange(n_grid) / n_grid
        up = evaluate(u, x + 1j * a)
        dn = evaluate(u, x - 1j * a)
        quad = 0.5 * (2 * np.pi / n_grid) * (np.sum(np.abs(up) ** 2)
                                             + np.sum(np.abs(dn) ** 2))
        assert strip_norm(u, a) == pytest.approx(math.sqrt(quad), rel=1e-10)

    def test_overflow_reports_infinity(self):
        u = FourierSeries1D.mode(400, 1.0)
        assert strip_norm(u, 2.0) == math.inf

    def test_zero_coefficient_does_not_poison_overflowed_weight(self):
        u = FourierSeries1D(500, (np.arange(-500, 501) == 0).astype(complex))
        assert strip_norm(u, 3.0) == pytest.approx(1.0)


class TestProject:
    def test_identity_when_cutoff_suffices(self):
        u = random_series(8, seed=0)
        assert project(u, 8) is u
        assert project(u, 12) is u

    def test_idempotent(self):
        u = random_series(16, seed=1)
        once = project(u, 5)
        twice = project(once, 5)
        np.testing.assert_array_equal(once.coeffs, twice.coeffs)

    def test_remainder_energy(self):
        u = random_series(16, seed=2)
        m = 6
        tail = u - project(u, m)
        k = u.wavenumbers()
        expected = np.sum(np.abs(u.coeffs[np.abs(k) > m]) ** 2)
        assert l2_norm(tail) ** 2 == pytest.approx(expected, rel=1e-14)

    def test_contractive_in_weighted_norms(self):
        u = random_series(12, seed=3)
        p = project(u, 4)
        assert l2_norm(p) <= l2_norm(u)
        for a in (0.2, 0.8):
            assert strip_norm(p, a) <= strip_norm(u, a)


class TestMultiply:
    def test_constant_factor(self):
        u = random_series(10, seed=4)
        c = 2.5
        const = FourierSeries1D.mode(0, c * SQRT_2PI)
        prod = multiply(u, const, 6)
        np.testing.assert_allclose(prod.coeffs, c * project(u, 6).coeffs,
                                   rtol=1e-14)

    def test_single_modes(self):
        prod = multiply(FourierSeries1D.mode(1), FourierSeries1D.mode(2), 3)
        expected = np.zeros(7, dtype=complex)
        expected[6] = 1.0 / SQRT_2PI
        np.testing.assert_allclose(prod.coeffs, expected, atol=1e-15)

    def test_against_dense_convolution(self):
        u = random_series(16, seed=5)
        v = random_series(16, seed=6)
        out = 20
        got = multiply(u, v, out)
        # brute-force double loop over all coefficient pairs
        expected = np.zeros(2 * out + 1, dtype=complex)
        for i, k1 in enumerate(u.wavenumbers()):
            for j, k2 in enumerate(v.wavenumbers()):
                if abs(k1 + k2) <= out:
                    expected[k1 + k2 + out] += u.coeffs[i] * v.coeffs[j] / SQRT_2PI
        np.testing.assert_allclose(got.coeffs, expected, rtol=1e-13, atol=1e-15)

    def test_against_grid_product(self):
        u = random_series(9, seed=7)
        v = random_series(11, seed=8)
        out = 20
        n = u.cutoff + v.cutoff + out + 1
        vals = grid_values(u, n) * grid_values(v, n)
        expected = FourierSeries1D.from_callable(lambda x: vals, out, n_grid=n)
        got = multiply(u, v, out)
        np.testing.assert_allclose(got.coeffs, expected.coeffs, rtol=0, atol=1e-12)


class TestEvaluate:
    """The evaluation oracle of the strip tests, against closed forms."""

    def test_constant(self):
        u = FourierSeries1D.mode(0, SQRT_2PI * 3.0)
        for z in (0.0, 1.3, 2j, 1 + 2j):
            assert evaluate(u, z) == pytest.approx(3.0)

    def test_sine_on_imaginary_axis(self):
        mu = 0.7
        f = sine(mu)
        for y in (0.3, 1.0, 2.0):
            assert evaluate(f, 1j * y) == pytest.approx(1j * mu * math.sinh(y),
                                                        abs=1e-14)

    def test_direct_summation(self):
        u = random_series(20, seed=9)
        rng = np.random.RandomState(10)
        z = rng.uniform(0, 2 * np.pi, size=11)
        direct = np.array([
            sum(c * np.exp(1j * k * zz) for k, c in zip(u.wavenumbers(), u.coeffs))
            / SQRT_2PI for zz in z])
        np.testing.assert_allclose(evaluate(u, z), direct, atol=1e-13)

    def test_round_trip_with_grid(self):
        u = random_series(15, seed=11)
        n = 2 * u.cutoff + 1
        x = 2 * np.pi * np.arange(n) / n
        np.testing.assert_allclose(evaluate(u, x), grid_values(u, n), atol=1e-13)


class TestMultiplierNormBound:
    def test_constant(self):
        v = FourierSeries1D.mode(0, -1.5 * SQRT_2PI)
        assert multiplier_norm_bound(v, 0.7) == pytest.approx(1.5, rel=1e-15)

    def test_sine_closed_form(self):
        # |mu * sqrt(pi/2)| * exp(A) at k = +-1, over sqrt(2*pi)
        mu = 2.0
        for a in (0.3, 1.0):
            assert multiplier_norm_bound(sine(mu), a) == pytest.approx(
                mu * math.exp(a), rel=1e-15)

    def test_monotone_in_half_width(self):
        v = random_series(6, seed=12, real=True)
        widths = [0.1, 0.3, 0.6, 1.0, 1.5]
        bounds = [multiplier_norm_bound(v, a) for a in widths]
        assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_sup_on_both_lines(self, seed):
        v = random_series(6, seed=20 + seed, real=seed % 2 == 0)
        x = 2 * np.pi * np.arange(4096) / 4096
        for a in (0.2, 0.9):
            norm = multiplier_norm_bound(v, a)
            for line in (x + 1j * a, x - 1j * a):
                assert np.max(np.abs(evaluate(v, line))) <= norm

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_multiplication_on_strip_space(self, seed):
        v = random_series(5, seed=30 + seed)
        u = random_series(9, seed=40 + seed)
        for a in (0.3, 1.2):
            product = multiply(v, u, v.cutoff + u.cutoff)
            assert strip_norm(product, a) <= multiplier_norm_bound(v, a) \
                * strip_norm(u, a)

    def test_zero_coefficient_does_not_poison_overflowed_weight(self):
        v = FourierSeries1D(800, SQRT_2PI * (np.arange(-800, 801) == 0))
        assert multiplier_norm_bound(v, 3.0) == pytest.approx(1.0, rel=1e-15)

    def test_overflow_reports_infinity(self):
        assert multiplier_norm_bound(FourierSeries1D.mode(400, 1.0), 2.0) == math.inf
        big = FourierSeries1D(1, np.full(3, 1e308))
        assert multiplier_norm_bound(big, 0.5) == math.inf


class TestEstimateStrip:
    def test_recovers_geometric_decay(self):
        n = 60
        k = np.arange(-n, n + 1)
        u = FourierSeries1D(n, 0.25 ** np.abs(k) + 0j)
        est = estimate_strip(u, noise_floor=1e-13)
        assert est.half_width == pytest.approx(-math.log(0.25), abs=1e-6)
        assert est.stride == 1
        assert est.residual < 1e-10

    def test_recovers_rate_with_algebraic_prefactor(self):
        n = 200
        k = np.arange(-n, n + 1)
        mags = np.exp(-0.7 * np.abs(k)) / (1.0 + np.abs(k))
        u = FourierSeries1D(n, mags + 0j)
        est = estimate_strip(u, noise_floor=1e-13)
        assert est.half_width == pytest.approx(0.7, abs=2e-2)

    def test_detects_stride_two(self):
        n = 40
        c = np.zeros(2 * n + 1, dtype=complex)
        for k in range(1, n + 1, 2):
            c[n + k] = 1j * math.exp(-0.5 * k)
            c[n - k] = -1j * math.exp(-0.5 * k)
        est = estimate_strip(FourierSeries1D(n, c), noise_floor=1e-13)
        assert est.stride == 2
        assert est.half_width == pytest.approx(0.5, abs=1e-6)

    def test_too_few_coefficients(self):
        c = np.zeros(21, dtype=complex)
        c[10], c[11], c[12] = 1.0, 0.5, 0.25
        with pytest.raises(InsufficientDataError):
            estimate_strip(FourierSeries1D(10, c))


class TestSeriesBasics:
    def test_length_validation(self):
        with pytest.raises(InvalidParameterError):
            FourierSeries1D(2, np.zeros(4, dtype=complex))

    def test_immutability(self):
        u = random_series(3, seed=13)
        with pytest.raises(ValueError):
            u.coeffs[0] = 1.0

    def test_real_valued_check(self):
        assert random_series(6, seed=14, real=True).is_real_valued()
        assert not FourierSeries1D.mode(1, 1.0).is_real_valued()

    def test_json_round_trip(self):
        u = random_series(5, seed=15)
        again = series_from_json({"cutoff": u.cutoff, "re": u.coeffs.real.tolist(),
                                  "im": u.coeffs.imag.tolist()})
        assert again.cutoff == u.cutoff
        np.testing.assert_array_equal(again.coeffs, u.coeffs)

    def test_json_lengths_must_match(self):
        with pytest.raises(InvalidParameterError):
            series_from_json({"cutoff": 1, "re": [0.0, 1.0, 0.0], "im": [0.0]})


def correctly_rounded_norm(coeffs):
    """Nearest double to sqrt(sum |c|^2), from the exact rational sum."""
    exact = sum(Fraction(float(c.real)) ** 2 + Fraction(float(c.imag)) ** 2
                for c in coeffs)
    root = math.sqrt(float(exact))
    while True:
        below = (Fraction(math.nextafter(root, 0.0)) + Fraction(root)) / 2
        above = (Fraction(root) + Fraction(math.nextafter(root, math.inf))) / 2
        if exact > above ** 2:
            root = math.nextafter(root, math.inf)
        elif exact < below ** 2:
            root = math.nextafter(root, 0.0)
        else:
            return root


class TestL2NormCorrectlyRounded:
    @pytest.mark.parametrize("cutoff", [4, 6])
    def test_linsolve_differences(self, cutoff):
        # the difference vectors behind the linsolve golden's err_vs_ref_l2
        V, f = cosine(mean=2.0), sine()
        diff = solve_linear(V, f, cutoff) - solve_linear(V, f, 12)
        assert l2_norm(diff) == correctly_rounded_norm(diff.coeffs)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_vectors(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        scale = np.exp(rng.uniform(-40, 40, 2 * n + 1))
        u = FourierSeries1D(n, scale * (rng.standard_normal(2 * n + 1)
                                        + 1j * rng.standard_normal(2 * n + 1)))
        assert l2_norm(u) == correctly_rounded_norm(u.coeffs)
        assert l2_norm(FourierSeries1D(n, u.coeffs[::-1])) == l2_norm(u)
