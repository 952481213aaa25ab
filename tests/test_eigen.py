"""Tests for the planewave eigenproblem and convergence studies."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from stripwave.errors import DegeneracyError, InvalidParameterError
from stripwave.eigen import (assemble_hamiltonian, convergence_study,
                             eigenvector_strip_check, fit_log_rate,
                             h1_distance, solve_eig)
from stripwave.fourier import (FourierSeries1D, h1_norm, l2_norm, strip_norm,
                               strip_weight)
from stripwave.galerkin import (assemble_dense, from_modes, rayleigh_polish,
                                to_modes)
from stripwave.potentials import (constant, cosine, gaussian_bump, mathieu,
                                  poisson_kernel, poisson_kernel_half_width, sine)

ZERO = constant(0.0)
# Known characteristic value of the Mathieu operator -u'' + 2 cos(2x) u
# at coupling q = 1 (standard tables).
MATHIEU_A0_Q1 = -0.455138604


class TestAssemble:
    def test_free_laplacian(self):
        H = assemble_hamiltonian(ZERO, 2).entries
        np.testing.assert_allclose(H, np.diag([4.0, 1.0, 0.0, 1.0, 4.0]),
                                    atol=1e-15)

    def test_constant_shift_on_diagonal(self):
        c = 1.7
        H = assemble_hamiltonian(constant(c), 3).entries
        free = assemble_hamiltonian(ZERO, 3).entries
        np.testing.assert_allclose(H, free + c * np.eye(7), atol=1e-14)

    def test_mathieu_pentadiagonal(self):
        H = assemble_hamiltonian(mathieu(1.0), 4).entries
        n = H.shape[0]
        for i in range(n):
            for j in range(n):
                if abs(i - j) == 2:
                    assert H[i, j] == pytest.approx(1.0, rel=1e-14)
                elif i != j:
                    assert abs(H[i, j]) < 1e-15

    def test_hermitian(self):
        H = assemble_hamiltonian(poisson_kernel(2.0, shift=2.0), 12).entries
        assert np.max(np.abs(H - np.conj(H.T))) < 1e-14


class TestSolveEig:
    def test_free_spectrum(self):
        res = solve_eig(ZERO, 8, 7)
        np.testing.assert_allclose(res.eigenvalues, [0, 1, 1, 4, 4, 9, 9],
                                    atol=1e-13)

    def test_constant_shift(self):
        c = 0.8
        free = solve_eig(ZERO, 8, 5).eigenvalues
        shifted = solve_eig(constant(c), 8, 5).eigenvalues
        np.testing.assert_allclose(shifted, free + c, atol=1e-12)

    def test_mathieu_characteristic_value(self):
        a0_64 = solve_eig(mathieu(1.0), 64, 1).eigenvalues[0]
        a0_128 = solve_eig(mathieu(1.0), 128, 1).eigenvalues[0]
        assert abs(a0_64 - a0_128) < 1e-12
        assert a0_64 == pytest.approx(MATHIEU_A0_Q1, abs=1e-6)

    def test_normalization_residual_orthonormality(self):
        V = poisson_kernel(2.0, shift=2.0)
        n = 16
        res = solve_eig(V, n, 9)
        H = assemble_hamiltonian(V, n).entries
        mat = np.column_stack([v.coeffs for v in res.eigenvectors])
        gram = np.conj(mat.T) @ mat
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-10)
        for lam, vec in zip(res.eigenvalues, res.eigenvectors):
            assert l2_norm(vec) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(H @ vec.coeffs - lam * vec.coeffs) < 1e-10

    def test_eigenvalues_real_and_ascending(self):
        res = solve_eig(poisson_kernel(2.0, shift=2.0), 24, 12)
        assert res.eigenvalues.dtype.kind == "f"
        assert np.all(np.diff(res.eigenvalues) >= -1e-12)

    def test_rejects_too_many_pairs(self):
        with pytest.raises(InvalidParameterError):
            solve_eig(ZERO, 2, 6)


def complex_solve_eig(V, cutoff, n_pairs):
    """The complex Hermitian eigensolve of order 2N+1 that the real blocks
    replaced: polished eigenvalues and their eigenvectors as columns."""
    H = assemble_dense(V, cutoff)
    values, vecs = np.linalg.eigh(H)
    polished = np.array([rayleigh_polish(H, vecs[:, j]) for j in range(n_pairs)])
    order = np.argsort(polished, kind="stable")
    return polished[order], vecs[:, order], values


REAL_PATH_CASES = {
    # even V: a cosine block and a sine block
    "poisson-kernel": poisson_kernel(2.0, shift=2.0, cutoff=30),
    "cosine": cosine(amplitude=1.5, mean=2.0),
    # exactly degenerate cos/sin pairs, one in each block
    "constant": constant(0.7),
    # V with an odd part: one coupled real matrix
    "off-centre-gaussian": gaussian_bump(1.0, 0.5, 0.7, 20),
    "imaginary-coefficients": cosine(mean=3.0) + sine(0.5, 2),
}


class TestRealBlocks:
    @pytest.mark.parametrize("name", sorted(REAL_PATH_CASES))
    @pytest.mark.parametrize("cutoff, n_pairs", [(0, 1), (1, 3), (12, 7), (40, 9)])
    def test_matches_complex_eigensolve(self, name, cutoff, n_pairs):
        V = REAL_PATH_CASES[name]
        res = solve_eig(V, cutoff, n_pairs)
        want, want_vecs, spectrum = complex_solve_eig(V, cutoff, n_pairs)
        scale = 1.0 + cutoff**2
        np.testing.assert_allclose(res.eigenvalues, want, rtol=0, atol=1e-13 * scale)
        got_vecs = np.column_stack([v.coeffs for v in res.eigenvectors])
        # eigenspaces cluster by cluster (degenerate pairs as one space),
        # each within the perturbation bound eps * ||H|| / gap
        start = 0
        while start < n_pairs:
            stop = start + 1
            while stop < len(spectrum) and spectrum[stop] - spectrum[stop - 1] <= 1e-8:
                stop += 1
            gap = min(spectrum[start] - spectrum[start - 1] if start else np.inf,
                      spectrum[stop] - spectrum[stop - 1] if stop < len(spectrum)
                      else np.inf)
            angles = scipy.linalg.subspace_angles(got_vecs[:, start:stop],
                                                  want_vecs[:, start:stop])
            assert np.max(angles) <= 1e-13 * scale / gap, (start, stop, angles, gap)
            start = stop

    def test_eigh_sees_only_real_blocks(self, monkeypatch):
        seen = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            seen.append((np.asarray(a).dtype.kind, np.shape(a)))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        even = REAL_PATH_CASES["poisson-kernel"]
        solve_eig(even, 12, 3)
        assert seen == [("f", (13, 13)), ("f", (12, 12))]
        seen.clear()
        solve_eig(even, 0, 1)
        assert seen == [("f", (1, 1))]
        seen.clear()
        solve_eig(REAL_PATH_CASES["off-centre-gaussian"], 12, 3)
        assert seen == [("f", (25, 25))]
        seen.clear()
        convergence_study(even, [2, 3, 4], 8, 1, 1.0)
        assert sorted(shape for _, shape in seen) == sorted(
            (n + extra, n + extra) for n in (2, 3, 4, 8) for extra in (0, 1))
        assert {kind for kind, _ in seen} == {"f"}

    def test_rotation_round_trip(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((2 * 6 + 1, 3))
        u = to_modes(q)
        # conjugate-symmetric coefficients: real functions
        np.testing.assert_array_equal(u[::-1], np.conj(u))
        np.testing.assert_allclose(from_modes(u), q, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(u, axis=0),
                                   np.linalg.norm(q, axis=0), rtol=1e-15)


class TestH1Distance:
    def test_vector_in_span(self):
        basis = [FourierSeries1D.mode(1), FourierSeries1D.mode(2)]
        u = FourierSeries1D.mode(1, 0.3) + FourierSeries1D.mode(2, -1.2j)
        assert h1_distance(u, basis) < 1e-12

    def test_orthogonal_mode(self):
        # distance of e_2 from span(e_1) is its own H1 norm sqrt(1 + 4)
        d = h1_distance(FourierSeries1D.mode(2), [FourierSeries1D.mode(1)])
        assert d == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_invariant_under_basis_rotation(self):
        rng = np.random.RandomState(3)
        b1 = FourierSeries1D(4, rng.randn(9) + 1j * rng.randn(9))
        b2 = FourierSeries1D(4, rng.randn(9) + 1j * rng.randn(9))
        u = FourierSeries1D(4, rng.randn(9) + 1j * rng.randn(9))
        theta = 0.77
        r1 = math.cos(theta) * b1 + math.sin(theta) * b2
        r2 = -math.sin(theta) * b1 + math.cos(theta) * b2
        assert h1_distance(u, [b1, b2]) == pytest.approx(
            h1_distance(u, [r1, r2]), rel=1e-10)

    def test_empty_basis(self):
        with pytest.raises(InvalidParameterError):
            h1_distance(FourierSeries1D.mode(1), [])


class TestConvergenceStudy:
    def test_band_beyond_smallest_basis(self):
        # the N = 2 basis holds 5 pairs
        convergence_study(ZERO, [2, 3], 8, 5, 1.0)
        with pytest.raises(InvalidParameterError):
            convergence_study(ZERO, [2, 3], 8, 6, 1.0)

    def test_free_potential_exact(self):
        table = convergence_study(ZERO, [2, 3, 4], 8, 1, 1.0)
        np.testing.assert_allclose(table.eigenvalue_errors, 0.0, atol=1e-13)
        np.testing.assert_allclose(table.eigenvector_errors, 0.0, atol=1e-10)

    def test_finite_strip_rates(self):
        V = poisson_kernel(2.0, shift=2.0)
        table = convergence_study(V, [2, 3, 4, 5, 6], 16, 1, 1.0)
        width = poisson_kernel_half_width(2.0)
        # the claimed rates are certified with 10% slack
        assert table.fitted_rate_eigenvalue <= -2.0 * 1.0 * 0.9
        assert table.fitted_rate_eigenvector <= -1.0 * 0.9
        # and the fit sits in the exponential regime: at least as steep as
        # the asymptotic strip rate, within a bounded pre-asymptotic transient
        assert -2 * width * 1.5 <= table.fitted_rate_eigenvalue <= -2 * width * 0.9
        assert -width * 1.5 <= table.fitted_rate_eigenvector <= -width * 0.9

    def test_variational_monotonicity(self):
        V = poisson_kernel(2.0, shift=2.0)
        table = convergence_study(V, [2, 3, 4, 5, 6], 16, 1, 1.0)
        assert np.all(table.eigenvalue_errors >= -1e-12)
        diffs = np.diff(table.eigenvalue_errors)
        assert np.all(diffs <= 1e-12)

    def test_error_ratio_slope(self):
        # eigenvalue errors scale as the square of H1 eigenvector errors
        V = poisson_kernel(2.0, shift=2.0)
        table = convergence_study(V, [2, 3, 4, 5], 16, 1, 1.0)
        lam = np.log(table.eigenvalue_errors)
        vec = np.log(table.eigenvector_errors)
        slope, _ = np.polyfit(vec, lam, 1)
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_entire_potential_curves_downward(self):
        # For an entire potential the local log-error slope steepens with N.
        table = convergence_study(mathieu(1.0), [2, 3, 4, 5, 6], 16, 1, 1.0)
        errs = table.eigenvector_errors
        slopes = np.diff(np.log(errs))
        assert slopes[-1] < slopes[0] - 0.2

    def test_degenerate_cluster_modes(self):
        # free Laplacian bands 2 and 3 are the degenerate pair k = +/-1
        table = convergence_study(ZERO, [2, 3], 8, 2, 1.0, cluster=True)
        np.testing.assert_allclose(table.eigenvector_errors, 0.0, atol=1e-10)
        with pytest.raises(DegeneracyError):
            convergence_study(ZERO, [2, 3], 8, 2, 1.0, cluster=False)

    def test_reference_must_dominate(self):
        with pytest.raises(InvalidParameterError):
            convergence_study(ZERO, [4, 8], 12, 1, 1.0)

    @pytest.mark.parametrize("V, band, gap", [
        # the eig-convergence golden config: orders 5, 7, 9 against 17
        (poisson_kernel(2.0, shift=2.0, cutoff=30), 1, 1e-8),
        # bands 2 and 3 split by 1e-3, refined as one cluster
        (poisson_kernel(3.0, mu=0.05, cutoff=40), 2, 1e-2),
        (poisson_kernel(3.0, mu=0.05, cutoff=40), 3, 1e-2),
        # imaginary coefficients: a complex Hermitian band
        (cosine(mean=3.0) + sine(0.5, 2), 1, 1e-8),
        (gaussian_bump(1.0, 0.5, 0.7, 20), 2, 1e-8),
    ], ids=["golden", "cluster-lower", "cluster-upper", "complex",
            "off-centre-gaussian"])
    def test_eigenvalue_errors_match_60_digit_eigenvalues(self, V, band, gap):
        table = convergence_study(V, [2, 3, 4], 8, band, 1.0, cluster_gap=gap)
        mp = mpmath.MPContext()
        mp.dps = 60

        def eigenvalue(cutoff):
            H = mp.matrix(assemble_hamiltonian(V, cutoff).entries.tolist())
            return sorted(mp.eighe(H, eigvals_only=True))[band - 1]

        ref = eigenvalue(8)
        for n, err in zip([2, 3, 4], table.eigenvalue_errors):
            exact = float(eigenvalue(n) - ref)
            assert err >= 0.0
            assert abs(err - exact) <= np.spacing(exact), (n, err, exact)


class TestFitLogRate:
    def test_exact_line(self):
        n = np.arange(2, 10)
        errs = 3.0 * np.exp(-1.5 * n)
        assert fit_log_rate(n, errs) == pytest.approx(-1.5, rel=1e-12)

    def test_floor_exclusion(self):
        n = np.array([2, 4, 6, 8, 10])
        errs = np.array([1e-2, 1e-4, 1e-6, 1e-13, 1e-14])
        rate = fit_log_rate(n, errs)
        assert rate == pytest.approx(math.log(1e-6 / 1e-4) / 2, rel=1e-10)

    def test_insufficient_rows(self):
        assert math.isnan(fit_log_rate([2, 4], [1e-13, 1e-14]))


class TestEigenvectorStripCheck:
    def test_free_single_mode(self):
        chk = eigenvector_strip_check(ZERO, 6, 2, 0.5)
        # band 2 of the free operator is a k = +/-1 mode with norm sqrt(cosh(2A))
        assert chk.norm == pytest.approx(math.sqrt(strip_weight(0.5, 1)), rel=1e-10)
        assert chk.holds

    def test_poisson_kernel_bound_holds(self):
        chk = eigenvector_strip_check(poisson_kernel(2.0, shift=2.0), 24, 1, 0.8)
        assert chk.holds
        assert chk.norm > 0
        assert chk.bound > chk.norm

    def test_norm_inflates_toward_strip_edge(self):
        V = poisson_kernel(2.0, shift=2.0)
        res = solve_eig(V, 48, 1)
        vec = res.eigenvectors[0]
        width = poisson_kernel_half_width(2.0)
        norms = [strip_norm(vec, a) for a in (0.5 * width, 0.8 * width,
                                              0.95 * width)]
        assert norms[0] < norms[1] < norms[2]
        assert norms[2] > 10 * norms[0]
