"""Tests for the planewave eigenproblem and convergence studies."""

import dataclasses
import math
import weakref
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.linalg

from stripwave import bloch, eigen
from stripwave.bloch import _cuts, _fiber, _Operator, _Rotation, series1d_to_lattice
from stripwave.errors import InvalidParameterError
from stripwave.eigen import (EXTENDED_EPS, _extended_eigenvalue, _reference,
                             convergence_study, eigenvector_strip_check, error_table,
                             fit_log_rate, h1_distance, solve_eig)
from stripwave.extended import Gather, band_residual
from stripwave.fourier import (FourierSeries1D, h1_norm, l2_norm, strip_norm,
                               strip_weight)
from stripwave.galerkin import assemble_dense, rayleigh_polish
from stripwave.linear import refinement_study
from stripwave.potentials import (constant, cosine, gaussian_bump, mathieu,
                                  poisson_kernel, sine)

ZERO = constant(0.0)
# Known characteristic value of the Mathieu operator -u'' + 2 cos(2x) u
# at coupling q = 1 (standard tables).
MATHIEU_A0_Q1 = -0.455138604


def fiber_1d(V, cutoff, count=0):
    """The operator the 1D solvers build: V's fiber at k = 0 on 2*pi*Z."""
    return _fiber(series1d_to_lattice(V)[1], np.zeros(1), cutoff, count)


class TestAssemble:
    def test_free_laplacian(self):
        H = assemble_dense(ZERO, 2)
        np.testing.assert_allclose(H, np.diag([4.0, 1.0, 0.0, 1.0, 4.0]),
                                    atol=1e-15)

    def test_constant_shift_on_diagonal(self):
        c = 1.7
        H = assemble_dense(constant(c), 3)
        free = assemble_dense(ZERO, 3)
        np.testing.assert_allclose(H, free + c * np.eye(7), atol=1e-14)

    def test_mathieu_pentadiagonal(self):
        H = assemble_dense(mathieu(1.0), 4)
        n = H.shape[0]
        for i in range(n):
            for j in range(n):
                if abs(i - j) == 2:
                    assert H[i, j] == pytest.approx(1.0, rel=1e-14)
                elif i != j:
                    assert abs(H[i, j]) < 1e-15

    def test_hermitian(self):
        H = assemble_dense(poisson_kernel(2.0, shift=2.0), 12)
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
        H = assemble_dense(V, n)
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
    # even about its center 0.7: the two blocks about the center
    "off-centre-gaussian": gaussian_bump(1.0, 0.5, 0.7, 20),
    # no inversion center: one coupled real matrix
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
        # subset eigensolves of the real blocks only: no full np.linalg.eigh,
        # and each scipy.linalg.eigh call computes at most the lowest
        # n_pairs + 1 pairs of its block
        seen = []
        eigh = scipy.linalg.eigh

        def spy(a, *args, **kwargs):
            values, vectors = eigh(a, *args, **kwargs)
            seen.append((np.asarray(a).dtype.kind, np.shape(a),
                         kwargs.get("subset_by_index"), vectors.shape[1]))
            return values, vectors

        def full(*args, **kwargs):
            raise AssertionError("full eigendecomposition")

        monkeypatch.setattr(np.linalg, "eigh", full)
        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        even = REAL_PATH_CASES["poisson-kernel"]
        solve_eig(even, 12, 3)
        assert seen == [("f", (13, 13), [0, 3], 4), ("f", (12, 12), [0, 3], 4)]
        seen.clear()
        solve_eig(even, 0, 1)
        assert seen == [("f", (1, 1), [0, 0], 1)]
        seen.clear()
        solve_eig(REAL_PATH_CASES["off-centre-gaussian"], 12, 3)
        assert seen == [("f", (13, 13), [0, 3], 4), ("f", (12, 12), [0, 3], 4)]
        seen.clear()
        solve_eig(REAL_PATH_CASES["imaginary-coefficients"], 12, 3)
        assert seen == [("f", (25, 25), [0, 3], 4)]
        seen.clear()
        convergence_study(even, [2, 3, 4], 8, 1)
        assert sorted(shape for _, shape, _, _ in seen) == sorted(
            (n + extra, n + extra) for n in (2, 3, 4, 8) for extra in (0, 1))
        assert {kind for kind, _, _, _ in seen} == {"f"}
        # one pair above the one asked at every cutoff, the reference's too
        for _, (order, _), subset, columns in seen:
            m = min(order, 2)
            assert subset == [0, m - 1] and columns == m, (order, subset, columns)

    def test_rotation_round_trip(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((2 * 6 + 1, 3))
        rotation = fiber_1d(REAL_PATH_CASES["cosine"], 6).rotation
        u = rotation.to_modes(q)
        # conjugate-symmetric coefficients: real functions
        np.testing.assert_array_equal(u[::-1], np.conj(u))
        np.testing.assert_allclose(rotation.from_modes(u), q, rtol=0, atol=1e-15)
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
        c, s = math.cos(0.77), math.sin(0.77)
        r1 = FourierSeries1D(4, c * b1.coeffs + s * b2.coeffs)
        r2 = FourierSeries1D(4, -s * b1.coeffs + c * b2.coeffs)
        assert h1_distance(u, [b1, b2]) == pytest.approx(
            h1_distance(u, [r1, r2]), rel=1e-10)

    def test_empty_basis(self):
        with pytest.raises(InvalidParameterError):
            h1_distance(FourierSeries1D.mode(1), [])


class TestConvergenceStudy:
    def test_band_beyond_smallest_basis(self):
        # the N = 2 basis holds 5 pairs
        convergence_study(ZERO, [2, 3], 8, 5)
        with pytest.raises(InvalidParameterError):
            convergence_study(ZERO, [2, 3], 8, 6)

    def test_free_potential_exact(self):
        table = convergence_study(ZERO, [2, 3, 4], 8, 1)
        np.testing.assert_allclose(table.eigenvalue_errors, 0.0, atol=1e-13)
        np.testing.assert_allclose(table.eigenvector_errors, 0.0, atol=1e-10)

    def test_finite_strip_rates(self):
        V = poisson_kernel(2.0, shift=2.0)
        table = convergence_study(V, [2, 3, 4, 5, 6], 16, 1)
        width = math.acosh(2.0)  # the strip half-width of 1 / (2 - cos x)
        # the claimed rates are certified with 10% slack
        assert table.fitted_rate_eigenvalue <= -2.0 * 1.0 * 0.9
        assert table.fitted_rate_eigenvector <= -1.0 * 0.9
        # and the fit sits in the exponential regime: at least as steep as
        # the asymptotic strip rate, within a bounded pre-asymptotic transient
        assert -2 * width * 1.5 <= table.fitted_rate_eigenvalue <= -2 * width * 0.9
        assert -width * 1.5 <= table.fitted_rate_eigenvector <= -width * 0.9

    def test_variational_monotonicity(self):
        V = poisson_kernel(2.0, shift=2.0)
        table = convergence_study(V, [2, 3, 4, 5, 6], 16, 1)
        assert np.all(table.eigenvalue_errors >= -1e-12)
        diffs = np.diff(table.eigenvalue_errors)
        assert np.all(diffs <= 1e-12)

    def test_error_ratio_slope(self):
        # eigenvalue errors scale as the square of H1 eigenvector errors
        V = poisson_kernel(2.0, shift=2.0)
        table = convergence_study(V, [2, 3, 4, 5], 16, 1)
        lam = np.log(table.eigenvalue_errors)
        vec = np.log(table.eigenvector_errors)
        slope, _ = np.polyfit(vec, lam, 1)
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_entire_potential_curves_downward(self):
        # For an entire potential the local log-error slope steepens with N.
        table = convergence_study(mathieu(1.0), [2, 3, 4, 5, 6], 16, 1)
        errs = table.eigenvector_errors
        slopes = np.diff(np.log(errs))
        assert slopes[-1] < slopes[0] - 0.2

    def test_degenerate_cluster_modes(self):
        # free Laplacian bands 2 and 3 are the degenerate pair k = +/-1
        table = convergence_study(ZERO, [2, 3], 8, 2)
        np.testing.assert_allclose(table.eigenvector_errors, 0.0, atol=1e-10)

    def test_refinement_record(self):
        # bands 2 and 3, split by 1e-3, refined as one cluster of a cosine
        # and a sine vector
        V = poisson_kernel(3.0, mu=0.05, cutoff=40)
        table = convergence_study(V, [2, 3, 4], 8, 2, cluster_gap=1e-2)
        assert [r.cutoff for r in table.refinements] == [8, 2, 3, 4]
        assert [r.block_orders for r in table.refinements] == [
            (n + 1, n) for n in (8, 2, 3, 4)]
        assert {r.cluster_size for r in table.refinements} == {2}
        assert all(1 <= r.steps <= 12 for r in table.refinements)
        # Newton on the bordered system takes at most two corrections, also
        # for bands 1 to 3 as one cluster, two of them in the cosine block;
        # the values would come out right after more, since the closing
        # Ritz step takes out a first-order eigenvalue error
        wide = convergence_study(V, [2, 3, 4], 8, 1, cluster_gap=1.1)
        assert {r.cluster_size for r in wide.refinements} == {3}
        assert max(r.steps for r in wide.refinements) <= 2
        centred = convergence_study(REAL_PATH_CASES["off-centre-gaussian"],
                                    [2, 3], 6, 1)
        assert [r.block_orders for r in centred.refinements] == [(7, 6), (3, 2), (4, 3)]
        assert {r.form for r in centred.refinements} == {"parity"}
        coupled = convergence_study(REAL_PATH_CASES["imaginary-coefficients"],
                                    [2, 3], 6, 1)
        assert [r.block_orders for r in coupled.refinements] == [(13,), (5,), (7,)]
        assert {r.form for r in coupled.refinements} == {"time-reversal"}

    def test_reference_must_dominate(self):
        with pytest.raises(InvalidParameterError):
            convergence_study(ZERO, [4, 8], 12, 1)

    @pytest.mark.parametrize("V, band, gap", [
        # the eig-convergence golden config: orders 5, 7, 9 against 17
        (poisson_kernel(2.0, shift=2.0, cutoff=30), 1, 1e-8),
        # bands 2 and 3 split by 1e-3, refined as one cluster
        (poisson_kernel(3.0, mu=0.05, cutoff=40), 2, 1e-2),
        (poisson_kernel(3.0, mu=0.05, cutoff=40), 3, 1e-2),
        # imaginary coefficients: a complex Hermitian band
        (cosine(mean=3.0) + sine(0.5, 2), 1, 1e-8),
        (gaussian_bump(1.0, 0.5, 0.7, 20), 2, 1e-8),
        # an exactly degenerate cos/sin pair, one vector in each block
        (constant(0.7), 2, 1e-8),
        (constant(0.7), 5, 1e-8),
        # the 1e-3-split bands 2 and 3 as single eigenvalues, each refined
        # on its own block next to a close neighbour in the other one
        (poisson_kernel(3.0, mu=0.05, cutoff=40), 2, 1e-8),
        (poisson_kernel(3.0, mu=0.05, cutoff=40), 3, 1e-8),
        # bands 4 and 5, 3e-5 apart, as a cluster across the two blocks
        (poisson_kernel(3.0, mu=0.05, cutoff=40), 5, 1e-3),
        # the coupled block: off-centre Gaussian bands 1 and 3, and the
        # imaginary-coefficient bands 4 and 5 (4.3e-2 apart) as a cluster
        # of two vectors bordering the one block
        (gaussian_bump(1.0, 0.5, 0.7, 20), 1, 1e-8),
        (gaussian_bump(1.0, 0.5, 0.7, 20), 3, 1e-8),
        (cosine(mean=3.0) + sine(0.5, 2), 4, 0.1),
        # a cluster of bands 1 to 3 that reaches past the lowest pairs the
        # blocks first computed
        (poisson_kernel(3.0, mu=0.05, cutoff=40), 1, 1.1),
    ], ids=["golden", "cluster-lower", "cluster-upper", "complex",
            "off-centre-gaussian", "constant-pair", "constant-pair-k2",
            "split-lower", "split-upper", "cross-block-cluster",
            "coupled-lowest", "coupled-band-3", "coupled-cluster",
            "wide-cluster"])
    def test_eigenvalue_errors_match_60_digit_eigenvalues(self, V, band, gap):
        table = convergence_study(V, [2, 3, 4], 8, band, cluster_gap=gap)
        mp = mpmath.MPContext()
        mp.dps = 60

        def eigenvalue(cutoff):
            H = mp.matrix(assemble_dense(V, cutoff).tolist())
            return sorted(mp.eighe(H, eigvals_only=True))[band - 1]

        ref = eigenvalue(8)
        for n, err in zip([2, 3, 4], table.eigenvalue_errors):
            exact = float(eigenvalue(n) - ref)
            assert err >= 0.0
            assert abs(err - exact) <= np.spacing(exact), (n, err, exact)

    @pytest.mark.parametrize("V, cutoffs, reference, tried", [
        # the eig-convergence golden config: no pilot below 2 * 4
        (poisson_kernel(2.0, shift=2.0, cutoff=30), [2, 3, 4], 8, (8,)),
        # the reference's vectors are the accepted pilot's at 12, padded
        (cosine(mean=3.0), [2, 3], 16, (6, 12)),
    ], ids=["golden", "pilot"])
    def test_eigenvector_errors_match_50_digit_h1_distances(self, V, cutoffs,
                                                              reference, tried):
        # the H1 distances come from the refined vectors: what is left is
        # the double arithmetic of h1_distance, worst 6.9e-15 over the 8
        # BLAS settings of tools/kernel_sweep.py
        table = convergence_study(V, cutoffs, reference, 1)
        assert table.refinements[0].tried == tried
        mp = mpmath.MPContext()
        mp.dps = 50

        def eigenvector(cutoff):  # the lowest, weighted by sqrt(1 + k^2)
            values, vectors = mp.eigsy(mp.matrix(assemble_dense(V, cutoff).real.tolist()))
            j = min(range(2 * cutoff + 1), key=lambda i: values[i])
            return [mp.sqrt(1 + (k - cutoff) ** 2) * vectors[k, j]
                    for k in range(2 * cutoff + 1)]

        ref = eigenvector(reference)
        scale = mp.sqrt(mp.fsum(x * x for x in ref))
        ref = [x / scale for x in ref]
        for n, got in zip(cutoffs, table.eigenvector_errors):
            u = [mp.zero] * (reference - n) + eigenvector(n) + [mp.zero] * (reference - n)
            along = mp.fsum(a * b for a, b in zip(u, ref))
            exact = float(mp.sqrt(mp.fsum((a - along * b) ** 2 for a, b in zip(u, ref))))
            assert abs(got - exact) <= 2.0**-46 * exact, (n, got, exact)


def dense_operator(H, count):
    """The small real symmetric H as one block on the modes 0..n-1, its
    off-diagonal part a Gather whose row i sits at the flat position
    2**n + 2**i, so that a difference of positions names one entry."""
    n = len(H)
    at = 2 ** np.arange(n) + 2 ** n
    i, j = np.nonzero(H - np.diag(np.diag(H)))
    index = np.full(3 * 2 ** n + 1, n)
    index[at] = np.arange(n)
    return _Operator(lambda: [H], _Rotation("complex"), np.diag(H).copy(),
                     partial(Gather, H[i, j].astype(complex), index, at, at[i] - at[j]),
                     np.arange(n), count)


def dense_table(H):
    """error_table of band 1 on the leading blocks of H: order 2 for the
    study cutoff 1, order 3 for the pilot at cutoff 2, all of H's 5 for
    the reference at cutoff 4.  The pilot returns 3 pairs, two and the
    one above them."""
    def solve(_, reference):
        assert reference == 4
        return lambda cutoff: dense_operator(H[:cutoff + 1, :cutoff + 1], 2)
    return error_table(solve, [None], [1], 4, 1)


def symmetric(diagonal, entries):
    H = np.diag(np.asarray(diagonal, dtype=float))
    for (i, j), value in entries.items():
        H[i, j] = H[j, i] = value
    return H


# the eig-convergence workload's potential family and table
SPECTRAL_CUTOFFS, SPECTRAL_REFERENCE = [4, 8, 12, 16, 20], 512


def spectral_potential(c):
    return poisson_kernel(c, mu=1.0, shift=2.0, cutoff=120)


class TestPilotReference:
    @pytest.mark.parametrize("c", [1.25, 1.4])
    def test_agrees_with_the_full_reference(self, c):
        V = spectral_potential(c)
        ops = {}

        fiber = _cuts(series1d_to_lattice(V)[1], np.zeros(1), SPECTRAL_REFERENCE, 1)

        def cut(cutoff):
            ops[cutoff] = fiber(cutoff)
            return ops[cutoff]

        (hi, lo), record = _reference(cut, SPECTRAL_CUTOFFS, SPECTRAL_REFERENCE, 0, 1e-8)
        assert record.tried == (40, 80) and record.source == 80
        assert record.block_orders == (81, 80) and record.order == 1025
        assert 0.0 < record.outside_residual
        assert record.kato_temple <= 2.0**-110 * abs(hi)
        ref = ops[SPECTRAL_REFERENCE]
        (full_hi, full_lo), _, _, _ = _extended_eigenvalue(ref, ref, 0, 1e-8)
        assert abs((hi - full_hi) + (lo - full_lo)) <= EXTENDED_EPS * abs(full_hi)

    def test_no_reference_block_is_assembled_solved_or_factored(self, monkeypatch):
        orders = []

        def spy(name, module, function, sized=0):
            def spied(*args, **kwargs):
                orders.append((name, len(args[sized])))
                return function(*args, **kwargs)
            monkeypatch.setattr(module, name, spied)

        spy("_differences", bloch, bloch._differences, sized=1)  # the rows
        spy("band_residual", eigen, eigen.band_residual)
        spy("eigh", scipy.linalg, scipy.linalg.eigh)
        spy("lu_factor", scipy.linalg, scipy.linalg.lu_factor)
        table = convergence_study(spectral_potential(1.3), SPECTRAL_CUTOFFS,
                                  SPECTRAL_REFERENCE, 1)
        assert table.refinements[0].tried == (40, 80)
        # the blocks are assembled on the N + 1 first planewaves of pairs,
        # once per solved matrix (two gathers each): the five study cutoffs
        # and the pilots at 40 and 80
        gathers = [n for name, n in orders if name == "_differences"]
        assert sorted(gathers) == sorted(2 * [n + 1 for n in (*SPECTRAL_CUTOFFS, 40, 80)])
        assert max(n for name, n in orders if name in ("eigh", "lu_factor")) == 82
        # the residuals at the reference's order are the accepted pilot's
        # two; the double check refused the pilot at 40 before any
        assert [n for name, n in orders if name == "band_residual" and n == 1025] == \
            [1025] * (table.refinements[0].steps + 1)

    @pytest.mark.parametrize("study", ["pilot", "full", "bloch"])
    def test_no_blocks_outlive_the_study(self, monkeypatch, study):
        # no operator holds blocks while another assembles its own (a
        # refused pilot's are gone before the reference's), and the study
        # keeps no operator alive; weak references, so that the test holds
        # none either.  Every operator is watched: the reference, each
        # pilot and each study cut of every sample's basis
        alive, holders, cuts = [], [], []

        def recorded(*args):
            fiber = _cuts(*args)

            def cut(cutoff):
                op = fiber(cutoff)
                build = op.build

                def checked():  # refers to no operator, so no cycle keeps one
                    holders.append(sum("blocks" in vars(o) for o in (r() for r in alive)
                                       if o is not None))
                    return build()

                op = dataclasses.replace(op, build=checked)
                alive.append(weakref.ref(op))
                cuts.append(cutoff)
                return op
            return cut

        monkeypatch.setattr(eigen, "_cuts", recorded)
        if study == "pilot":  # the pilot at 40 refused, the one at 80 accepted
            record = convergence_study(spectral_potential(1.3), SPECTRAL_CUTOFFS,
                                       SPECTRAL_REFERENCE, 1).refinements[0]
            assert record.tried == (40, 80) and record.source == 80
            assert cuts == [SPECTRAL_REFERENCE, 40, 80, *SPECTRAL_CUTOFFS]
        elif study == "full":  # both pilots refused: the reference is refined
            V = poisson_kernel(1.02, mu=1.0, shift=2.0, cutoff=120)
            record = convergence_study(V, [4, 8], 64, 1).refinements[0]
            assert record.tried == (16, 32, 64) and record.source == 64
            assert cuts == [64, 16, 32, 4, 8]
        else:
            lattice = bloch.Lattice(2.0 * np.pi * np.eye(2))
            V = bloch.gaussian_potential(lattice, [[0.1, -0.2]], [0.6], [-1.5], 6.0)
            eigen.bz_convergence(V, [[0.0, 0.0], [0.2, 0.1]], [1.5, 2.0], 8.0, 1)
            assert cuts == 2 * [8.0, 4.0, 1.5, 2.0]
        assert len(holders) > 3 and set(holders) == {0}, holders
        assert [r for r in alive if r() is not None] == []

    def test_matches_60_digit_eigenvalues(self):
        V = poisson_kernel(10.0, cutoff=40)
        table = convergence_study(V, [2, 3, 4], 32, 1)
        assert table.refinements[0].tried == (8, 16)
        mp = mpmath.MPContext()
        mp.dps = 60

        def eigenvalue(cutoff):
            # the lowest of assemble_dense's, from the cosine and sine
            # blocks of the even V, rotated in mp arithmetic; the diagonal
            # holds the doubles t_0 + k^2
            dense = assemble_dense(V, cutoff).real
            column = [dense[cutoff, cutoff]] + dense[1:, 0].tolist()
            a, n = [mp.mpf(v) for v in column], cutoff
            cos, sin = mp.matrix(n + 1), mp.matrix(n)
            for j in range(n + 1):
                for k in range(n + 1):
                    diagonal = mp.mpf(column[0] + k * k) - a[0] if j == k else 0
                    cos[j, k] = a[abs(k - j)] + a[k + j] + diagonal
                    if j and k:
                        sin[j - 1, k - 1] = cos[j, k] - 2 * a[k + j]
            for k in range(1, n + 1):
                cos[0, k] = cos[k, 0] = mp.sqrt(2) * a[k]
            cos[0, 0] = a[0]
            return min(min(mp.eigsy(block, eigvals_only=True)) for block in (cos, sin))

        assert abs(eigenvalue(4) - min(mp.eighe(mp.matrix(assemble_dense(V, 4).tolist()),
                                                eigvals_only=True))) < mp.mpf(10)**-55
        ref = eigenvalue(32)
        for n, err in zip([2, 3, 4], table.eigenvalue_errors):
            exact = float(eigenvalue(n) - ref)
            assert abs(err - exact) <= np.spacing(exact), (n, err, exact)

    def test_slow_decay_takes_the_full_path(self, monkeypatch):
        # V's coefficients fall by 0.82 per mode: no pilot below 128 settles
        V = poisson_kernel(1.02, mu=1.0, shift=2.0, cutoff=120)
        got = convergence_study(V, [4, 8, 12, 16], 128, 1)
        assert got.refinements[0].tried == (32, 64, 128)
        assert got.refinements[0].source == 128
        monkeypatch.setattr(eigen, "_pilots", lambda *args: iter(()))
        want = convergence_study(V, [4, 8, 12, 16], 128, 1)
        assert want.refinements[0].tried == (128,)
        for field in ("eigenvalue_errors", "eigenvector_errors"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        for field in ("fitted_rate_eigenvalue", "fitted_rate_eigenvector"):
            assert getattr(got, field) == getattr(want, field)

    def test_count_refuses_an_outside_mode_below_the_pairs(self):
        # mode 3, outside the pilot's modes 0..2, lies below all of them
        H = symmetric([1.0, 3.0, 5.0, 0.5, 40.0], {(3, 4): 0.1})
        table = dense_table(H)
        assert table.refinements[0][0].tried == (2, 4)
        assert table.errors[0, 0] == pytest.approx(1.0 - np.linalg.eigvalsh(H)[0],
                                                   rel=1e-14)

    @pytest.mark.parametrize("diagonal, coupling, accepted", [
        # mode 2 of the pilot couples to the outside mode 3: eta = 1 / 0.9
        # leaves no room between t = 4 and the pilot's third eigenvalue 5
        (5.9, 0.5, False),
        (6.5, 0.5, True),  # eta = 1 / 1.5
        # eta = 288: the pair drops to 0.17, below the target 1
        (30.0, 12.0, False),
    ])
    def test_eta_bounds_the_pull_of_the_outside_modes(self, diagonal, coupling, accepted):
        H = symmetric([1.0, 3.0, 5.0, diagonal, 40.0], {(2, 3): coupling})
        table = dense_table(H)
        assert table.refinements[0][0].source == (2 if accepted else 4)
        assert table.errors[0, 0] == pytest.approx(1.0 - np.linalg.eigvalsh(H)[0],
                                                   rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("noise", [0.0, 1e-20, 1e-8])
    def test_residual_bound_holds_the_rayleigh_residual(self, noise):
        # ||(H - rho) x|| / ||x|| for the exact Rayleigh quotient rho of x,
        # against the bound from the double-double residual at the shift
        # lambda, which it exceeds by no more than rounding
        V, cutoff = poisson_kernel(2.0, shift=2.0, cutoff=30), 8
        op = fiber_1d(V, cutoff, 1)
        res = solve_eig(V, cutoff, 1)
        rng = np.random.default_rng(4)
        x = res.eigenvectors[0].coeffs[:, None] * (1 + noise * rng.standard_normal((17, 1)))
        shift = np.array([res.eigenvalues[0]])
        r = band_residual(op.diag, op.offdiag, shift, np.zeros(1), x, np.zeros_like(x))
        spread = math.fsum(np.abs(op.offdiag.coef).tolist())
        bound = eigen._residual_bound(op, r, x, float(shift[0]), spread)
        mp = mpmath.MPContext()
        mp.dps = 50
        H, v = mp.matrix(assemble_dense(V, cutoff).tolist()), mp.matrix(x[:, 0].tolist())
        norm2 = (v.H * v)[0].real
        rho = (v.H * H * v)[0].real / norm2
        at_rho, at_shift = (mp.norm(H * v - mu * v) / mp.sqrt(norm2)
                            for mu in (rho, mp.mpf(shift[0])))
        assert at_rho <= bound <= (1 + 1e-14) * at_shift + 1e-26

    @pytest.mark.parametrize("coupling, accepted", [(2.0**-54, False), (2.0**-56, True)])
    def test_kato_temple_bound_settles_the_target(self, coupling, accepted):
        # the target mode 0 couples to the outside mode 3: ||r|| = coupling
        # and delta is about 2, so ||r||^2 / delta sits at 2 and 1/8 of
        # 2**-110 |lambda|
        H = symmetric([1.0, 3.0, 5.0, 30.0, 40.0], {(0, 3): coupling})
        record = dense_table(H).refinements[0][0]
        assert record.source == (2 if accepted else 4)
        if accepted:
            assert record.outside_residual == coupling
            assert 1.9 < record.gap_bound < 2.0
            assert record.kato_temple == pytest.approx(coupling**2 / record.gap_bound)


class TestOneBasisPerSample:
    """A study enumerates one basis per sample, at its reference cutoff, and
    every operator it solves is a cut of it."""

    @staticmethod
    def spy(monkeypatch):
        """The cutoffs bloch.basis_set is called at, and per sample the
        operators of eigen's studies by cutoff."""
        enumerated, samples, basis_set = [], [], bloch.basis_set

        def counted(lattice, k, cutoff):
            enumerated.append(cutoff)
            return basis_set(lattice, k, cutoff)

        def recorded(*args):
            fiber, ops = _cuts(*args), {}
            samples.append(ops)

            def cut(cutoff):
                ops[cutoff] = fiber(cutoff)
                return ops[cutoff]
            return cut

        monkeypatch.setattr(bloch, "basis_set", counted)
        monkeypatch.setattr(eigen, "_cuts", recorded)
        return enumerated, samples

    @staticmethod
    def assert_cuts_of_the_reference(ops, reference, pilot):
        # the pilot certificate's premise: a pilot's matrix is the
        # reference's on its rows, so their diagonals agree bit for bit
        ref = ops[reference]
        assert np.array_equal(ref.rows, np.arange(len(ref.diag)))
        for op in ops.values():
            assert op.diag.tobytes() == ref.diag[op.rows].tobytes()
        assert pilot in ops and len(ops[pilot].diag) < len(ref.diag)

    def test_convergence_study(self, monkeypatch):
        V = spectral_potential(1.3)
        enumerated, samples = self.spy(monkeypatch)
        table = convergence_study(V, SPECTRAL_CUTOFFS, SPECTRAL_REFERENCE, 1)
        assert enumerated == [SPECTRAL_REFERENCE] and table.refinements[0].source == 80
        assert sorted(samples[0]) == [*SPECTRAL_CUTOFFS, 40, 80, SPECTRAL_REFERENCE]
        self.assert_cuts_of_the_reference(samples[0], SPECTRAL_REFERENCE, 80)

    def test_bz_convergence(self, monkeypatch):
        # the complex 1D fiber of test_bloch, whose pilot at 20 is accepted
        lattice = bloch.Lattice(np.array([[2.0 * np.pi]]))
        V = bloch.FourierSeriesD(lattice, {(0,): 0.4, (1,): 0.15 + 0.1j, (-1,): 0.15 - 0.1j,
                                           (2,): 0.05 - 0.03j, (-2,): 0.05 + 0.03j})
        enumerated, samples = self.spy(monkeypatch)
        table = eigen.bz_convergence(V, [[0.13], [-0.21]], [1.5, 2.0, 2.5], 24.0, 1)
        assert enumerated == [24.0, 24.0] and len(samples) == 2
        for ops, records in zip(samples, table.refinements):
            assert records[0].source == 20.0
            self.assert_cuts_of_the_reference(ops, 24.0, 20.0)

    def test_bz_convergence_on_a_lattice(self, monkeypatch):
        lattice = bloch.Lattice(2.0 * np.pi * np.array([[1.0, 0.0], [0.3, 1.1]]))
        V = bloch.gaussian_potential(lattice, [[0.1, -0.2]], [0.6], [-1.5], 6.0)
        enumerated, samples = self.spy(monkeypatch)
        eigen.bz_convergence(V, [[0.0, 0.0], [0.2, 0.1]], [1.5, 2.0], 8.0, 1)
        assert enumerated == [8.0, 8.0]
        for ops in samples:  # the pilot at 4 is refused
            self.assert_cuts_of_the_reference(ops, 8.0, 4.0)

    def test_refinement_study(self, monkeypatch):
        enumerated, _ = self.spy(monkeypatch)
        refinement_study(cosine(mean=2.0), sine(), [4, 6], 12)
        assert enumerated == [12]


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

    def test_slope_is_the_centred_fraction(self):
        # the least-squares slope sum (x - mx)(y - my) / sum (x - mx)^2 of
        # the kept rows, in fractions, rounded once
        n = np.array([4, 6, 8, 12, 16, 20])
        errs = np.exp(-1.7 * n) * (1 + 0.3 * np.sin(n))
        x = [Fraction(int(v)) for v in n[1:]]
        y = [Fraction(float(v)) for v in np.log(errs[1:])]
        mx, my = sum(x) / len(x), sum(y) / len(y)
        want = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)
        assert fit_log_rate(n, errs, floor=0.0) == float(want)


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
        width = math.acosh(2.0)
        norms = [strip_norm(vec, a) for a in (0.5 * width, 0.8 * width,
                                              0.95 * width)]
        assert norms[0] < norms[1] < norms[2]
        assert norms[2] > 10 * norms[0]
