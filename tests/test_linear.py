"""Tests for the Galerkin solve of -u'' + V u = f and its tail bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from stripwave.eigen import solve_eig
from stripwave.errors import PreconditionError
from stripwave.extended import band_residual
from stripwave.fourier import (SQRT_2PI, FourierSeries1D, h1_norm, l2_norm,
                               multiply, project, strip_norm, strip_weight)
from stripwave.galerkin import assemble_dense
from stripwave.linear import refinement_study, solve_linear, tail_bound_check
from stripwave.potentials import constant, cosine, gaussian_bump, poisson_kernel, sine


def coefficient(u, k):
    """The coefficient u_k, zero beyond the stored cutoff."""
    return complex(u.coeffs[k + u.cutoff]) if abs(k) <= u.cutoff else 0j


def complex_hermitian_solve(V, f, cutoff):
    """The solve on the complex Hermitian matrix in the exponentials, the
    reference for the real blocks."""
    rhs = project(f, cutoff)._padded(cutoff)
    return scipy.linalg.solve(assemble_dense(V, cutoff), rhs, assume_a="her")


def exact_residual_norm(V, f, u):
    """||H u - f|| for the double matrix H = assemble_dense and f projected
    at u's cutoff, from the exact rational residual, correctly rounded."""
    n = u.cutoff
    H, rhs = assemble_dense(V, n), project(f, n)._padded(n)
    pairs = [(Fraction(float(z.real)), Fraction(float(z.imag))) for z in u.coeffs]
    exact = Fraction(0)
    for row, b in zip(H, rhs):
        re = sum(Fraction(float(h.real)) * x - Fraction(float(h.imag)) * y
                 for h, (x, y) in zip(row, pairs)) - Fraction(float(b.real))
        im = sum(Fraction(float(h.real)) * y + Fraction(float(h.imag)) * x
                 for h, (x, y) in zip(row, pairs)) - Fraction(float(b.imag))
        exact += re * re + im * im
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


# real potentials with V >= 1: even (a cosine and a sine block),
# off-centre (the two blocks about its center) and with no center (one
# coupled block); a real and a complex-valued source
POTENTIALS = {"even": cosine(mean=2.0),
              "off-centre": constant(1.0) + gaussian_bump(center=1.0),
              "no-center": cosine(mean=3.0) + sine(0.5, 2)}
RNG = np.random.default_rng(5)
SOURCES = {"real": sine(),
           "complex": FourierSeries1D(3, RNG.standard_normal(7)
                                      + 1j * RNG.standard_normal(7))}


class TestRealBlocks:
    @pytest.mark.parametrize("cutoff", [0, 1, 12, 40])
    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("potential", sorted(POTENTIALS))
    def test_matches_the_complex_hermitian_solve(self, potential, source, cutoff):
        V, f = POTENTIALS[potential], SOURCES[source]
        got = solve_linear(V, f, cutoff).coeffs
        want = complex_hermitian_solve(V, f, cutoff)
        assert np.linalg.norm(got - want) <= 1e-13 * (1 + cutoff**2) * np.linalg.norm(want)

    @pytest.mark.parametrize("cutoff", [0, 1, 12])
    @pytest.mark.parametrize("potential", sorted(POTENTIALS))
    def test_factors_only_the_real_blocks(self, monkeypatch, potential, cutoff):
        factored = []
        cho_factor = scipy.linalg.cho_factor

        def spy(a, *args, **kwargs):
            factored.append((a.dtype, a.shape))
            return cho_factor(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", spy)
        solve_linear(POTENTIALS[potential], SOURCES["complex"], cutoff)
        orders = [cutoff + 1, cutoff] if cutoff else [1]
        if potential == "no-center":
            orders = [2 * cutoff + 1]
        assert factored == [(np.dtype(float), (n, n)) for n in orders]

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("potential", sorted(POTENTIALS))
    def test_residual_within_an_ulp_of_the_exact_norm(self, potential, source):
        # the double-double residual is rounded to double once per entry
        # before its norm is correctly rounded, so residual_l2 may sit one
        # ulp from the correctly rounded norm of the exact residual
        V, f = POTENTIALS[potential], SOURCES[source]
        cutoffs = [0, 1, 4, 12]
        for n, residual, *_ in refinement_study(V, f, cutoffs, 24):
            exact = exact_residual_norm(V, f, solve_linear(V, f, n))
            assert abs(residual - exact) <= math.ulp(exact)

    def test_one_residual_per_study_row(self, monkeypatch):
        # the reference solve computes none: nothing reads it
        calls = []
        monkeypatch.setattr("stripwave.linear.band_residual",
                            lambda *args: calls.append(1) or band_residual(*args))
        rows = refinement_study(cosine(mean=2.0), sine(), [4, 6, 8], 16)
        assert len(calls) == len(rows) == 3


class TestSolveLinear:
    def test_diagonal_operator_single_mode(self):
        # V = 1 gives (k^2 + 1) u_k = f_k, so f = e_1 yields u = e_1 / 2.
        u = solve_linear(constant(1.0), FourierSeries1D.mode(1), 8)
        assert coefficient(u, 1) == pytest.approx(0.5, rel=1e-14)
        others = [coefficient(u, k) for k in range(-8, 9) if k != 1]
        assert np.max(np.abs(others)) < 1e-15

    def test_constant_source(self):
        u = solve_linear(constant(1.0), constant(1.0), 6)
        assert coefficient(u, 0) == pytest.approx(SQRT_2PI, rel=1e-14)

    def test_residual_and_self_refinement(self):
        V = cosine(mean=2.0)  # 2 + cos x >= 1
        f = sine(0.7)
        [(_, residual, error, _)] = refinement_study(V, f, [64], 128)
        assert residual <= 1e-10 * l2_norm(f)
        assert error < 1e-12

    def test_galerkin_orthogonality_coefficientwise(self):
        # The projected residual -u'' + Pi(V u) - Pi(f) must vanish mode by mode.
        V = cosine(mean=3.0, amplitude=1.5)
        f = cosine(amplitude=0.3, harmonic=3, mean=0.1)
        n = 24
        u = solve_linear(V, f, n)
        k = u.wavenumbers()
        lap = FourierSeries1D(n, k.astype(float) ** 2 * u.coeffs)
        residual = lap + multiply(V, u, n) - project(f, n)
        assert np.max(np.abs(residual.coeffs)) < 1e-10

    def test_a_priori_l2_bound(self):
        V = cosine(mean=2.0)
        f = sine(1.0)
        u = solve_linear(V, f, 32)
        alpha = solve_eig(V, 32, 1).eigenvalues[0]
        assert l2_norm(u) <= l2_norm(f) / alpha + 1e-8

    @pytest.mark.parametrize("V", [cosine(mean=2.0), cosine(mean=3.0) + sine(0.5, 2)],
                             ids=["even", "odd-part"])
    @pytest.mark.parametrize("cutoff", [0, 1, 12])
    def test_lowest_eigenvalue_of_the_complex_matrix(self, V, cutoff):
        # the lambda_1 that divides the low tail bound is that of the
        # complex Galerkin matrix at the solve cutoff
        f = sine()
        rep = tail_bound_check(V, f, cutoff, 4, 0.5)
        used = l2_norm(f) * math.sqrt(strip_weight(0.5, 4)) / rep.low_bound
        want = np.linalg.eigvalsh(assemble_dense(V, cutoff))[0]
        assert used == pytest.approx(want, rel=0, abs=1e-13 * (1 + cutoff**2))

    def test_rejects_small_potential(self):
        with pytest.raises(PreconditionError, match="V >= 1"):
            solve_linear(constant(0.5), sine(1.0), 8)
        with pytest.raises(PreconditionError):
            solve_linear(cosine(mean=1.5, amplitude=1.0), sine(1.0), 8)  # min 0.5

    def test_rejects_complex_potential(self):
        with pytest.raises(PreconditionError, match="real"):
            solve_linear(FourierSeries1D.mode(1, 2.0), sine(1.0), 8)

    def test_geometric_self_convergence(self):
        # For trig-polynomial data the truncation error decays at least
        # geometrically until it hits the floating-point floor.
        V = cosine(mean=2.0)
        f = sine(1.0)
        rows = refinement_study(V, f, [4, 8, 12, 16], 64)
        errs = [r[2] for r in rows]
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 < 0.5 * e1 or e2 < 1e-14


class TestTailBoundCheck:
    def test_constant_potential_reduces_to_source_tail(self):
        # With constant V the coupling term vanishes and the high bound is
        # exactly ||f_high||_A / (M^2 - ||V||), with ||V|| = |V| = 1.
        f = sine(1.0) + FourierSeries1D.mode(12, 0.01j) \
            + FourierSeries1D.mode(-12, -0.01j)
        split = 8
        rep = tail_bound_check(constant(1.0), f, 32, split, 0.5)
        assert rep.multiplier_norm == pytest.approx(1.0, rel=1e-15)
        f_high = f - project(f, split)
        expected = strip_norm(f_high, 0.5) / (split**2 - rep.multiplier_norm)
        assert rep.high_bound == pytest.approx(expected, rel=1e-12)
        assert rep.low_ok and rep.high_ok

    def test_cosine_potential(self):
        rep = tail_bound_check(cosine(mean=2.0), sine(1.0), 48, 8, 0.5)
        assert rep.low_ok
        assert rep.high_ok
        assert rep.low_norm <= rep.low_bound
        assert rep.high_norm <= rep.high_bound

    def test_low_bound_value(self):
        V = cosine(mean=2.0)
        f = sine(1.0)
        rep = tail_bound_check(V, f, 48, 8, 0.5)
        alpha = solve_eig(V, 48, 1).eigenvalues[0]
        expected = l2_norm(f) / alpha * math.sqrt(strip_weight(0.5, 8))
        assert rep.low_bound == pytest.approx(expected, rel=1e-12)

    def test_neumann_precondition(self):
        # ||2 + cos||_{l1, A = 0.5} = 2 + exp(0.5) = 3.65 needs M >= 2
        with pytest.raises(PreconditionError, match="split_cutoff >= 2"):
            tail_bound_check(cosine(mean=2.0), sine(1.0), 32, 1, 0.5)

    def test_overflowing_norm_admits_no_split(self):
        # far beyond the strip of 1 / (2 - cos x) the weighted sum overflows
        with pytest.raises(PreconditionError, match="split_cutoff >= inf"):
            tail_bound_check(poisson_kernel(2.0, shift=2.0), sine(1.0), 16, 8, 20.0)


def test_assemble_matches_brute_force():
    V = cosine(mean=2.0, amplitude=0.7, harmonic=2)
    n = 5
    H = assemble_dense(V, n)
    k = np.arange(-n, n + 1)
    brute = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    for i, ki in enumerate(k):
        for j, kj in enumerate(k):
            brute[i, j] = coefficient(V, ki - kj) / SQRT_2PI
            if i == j:
                brute[i, j] += ki * ki
    np.testing.assert_allclose(H, brute, atol=1e-14)
    assert np.max(np.abs(H - np.conj(H.T))) < 1e-14


def test_refinement_rows_shape():
    rows = refinement_study(constant(1.0), sine(1.0), [4, 8], 16)
    assert [r[0] for r in rows] == [4, 8]
    assert all(len(r) == 4 for r in rows)
    assert all(np.isfinite(r[1:]).all() for r in [np.array(r[1:]) for r in rows])
