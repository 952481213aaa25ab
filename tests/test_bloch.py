"""Tests for lattices, planewave bases, Bloch fibers and band structures."""

import itertools
import math

import numpy as np
import pytest

from stripwave.bloch import (FourierSeriesD, Lattice, PlanewaveBasis,
                             assemble_bloch, band_structure, basis_set,
                             bz_convergence, bz_sample_grid, gaussian_potential,
                             reciprocal, series1d_to_lattice, weight_multid)
from stripwave.eigen import assemble_hamiltonian
from stripwave.errors import InvalidParameterError
from stripwave.fourier import strip_weight
from stripwave.potentials import poisson_kernel

CUBIC_2D = Lattice(2.0 * np.pi * np.eye(2))
TWO_PI_LINE = Lattice(np.array([[2.0 * np.pi]]))


def product_basis(lattice, k, cutoff):
    """Reference enumeration: every point of the integer box, one at a time,
    in itertools.product order."""
    recip = reciprocal(lattice)
    reach = cutoff + float(np.linalg.norm(k))
    box = [int(math.floor(reach * np.linalg.norm(a) / (2.0 * np.pi))) + 1
           for a in lattice.basis]
    coords = [tup for tup in itertools.product(*[range(-b, b + 1) for b in box])
              if np.linalg.norm(np.asarray(tup, dtype=float) @ recip.basis + k)
              <= cutoff]
    return np.asarray(coords, dtype=int).reshape(len(coords), lattice.dimension)


def loop_assembly(coeffs, basis):
    """Reference fiber matrix, entry by entry from the coefficient dict."""
    n = basis.dimension
    scale = 1.0 / math.sqrt(basis.lattice.unit_cell_volume)
    H = np.zeros((n, n), dtype=complex)
    ints = basis.int_coords
    for a in range(n):
        for b in range(a, n):
            H[a, b] = scale * complex(coeffs.get(tuple(ints[a] - ints[b]), 0.0))
    H = H + np.conj(H.T)
    shifted = basis.wavevectors + basis.k_point
    zero = (0,) * basis.lattice.dimension
    H[np.diag_indices_from(H)] = np.sum(shifted * shifted, axis=1) \
        + scale * np.real(complex(coeffs.get(zero, 0.0)))
    return H


def sparse_real_coeffs(rng, d, reach, fill):
    """Coefficients c_{-m} = conj(c_m) on a random part of [-reach, reach]^d."""
    coeffs = {}
    for m in itertools.product(range(-reach, reach + 1), repeat=d):
        if m not in coeffs and rng.uniform() < fill:
            c = complex(rng.normal(), rng.normal())
            coeffs[m] = c
            coeffs[tuple(-i for i in m)] = c.conjugate()
    zero = (0,) * d
    if zero in coeffs:
        coeffs[zero] = coeffs[zero].real
    return coeffs


class TestLattice:
    def test_cubic_reciprocal(self):
        rec = reciprocal(Lattice(3.0 * np.eye(3)))
        np.testing.assert_allclose(rec.basis, 2 * np.pi / 3.0 * np.eye(3),
                                    atol=1e-14)

    def test_reciprocal_involution(self):
        lat = Lattice(np.array([[1.0, 0.2], [-0.3, 0.9]]))
        again = reciprocal(reciprocal(lat))
        np.testing.assert_allclose(again.basis, lat.basis, atol=1e-12)

    def test_oblique_biorthogonality(self):
        lat = Lattice(np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]))
        rec = reciprocal(lat)
        gram = lat.basis @ rec.basis.T
        np.testing.assert_allclose(gram, 2 * np.pi * np.eye(2), atol=1e-12)

    def test_volume(self):
        assert CUBIC_2D.unit_cell_volume == pytest.approx((2 * np.pi) ** 2)

    def test_rejects_singular_basis(self):
        with pytest.raises(InvalidParameterError):
            Lattice(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestWeightMultid:
    def test_at_origin_counts_dimension(self):
        assert weight_multid(0.7, CUBIC_2D, np.zeros(2)) == pytest.approx(2.0)

    def test_reduces_to_1d_weight(self):
        # on 2*pi*Z the reciprocal basis is 1, so G = m and the single
        # projection is m itself
        for m in (1, 3, 7):
            assert weight_multid(0.4, TWO_PI_LINE, [float(m)]) == pytest.approx(
                float(strip_weight(0.4, m)), rel=1e-14)

    def test_cubic_single_direction(self):
        rec = reciprocal(CUBIC_2D)
        m = 3
        got = weight_multid(0.5, CUBIC_2D, m * rec.basis[0])
        assert got == pytest.approx(1.0 + math.cosh(2 * 0.5 * m), rel=1e-14)

    def test_invariant_under_basis_relabeling(self):
        # for a symmetric lattice, swapping the basis rows reorders the
        # projections but not their sum
        swapped = Lattice(CUBIC_2D.basis[::-1].copy())
        rec = reciprocal(CUBIC_2D)
        g = 2.0 * rec.basis[0] + 1.0 * rec.basis[1]
        assert weight_multid(0.3, CUBIC_2D, g) == pytest.approx(
            weight_multid(0.3, swapped, g), rel=1e-14)


class TestBasisSet:
    def test_1d_interval(self):
        basis = basis_set(TWO_PI_LINE, [0.0], 2.5)
        np.testing.assert_array_equal(basis.int_coords[:, 0], [-2, -1, 0, 1, 2])
        assert basis.dimension == 5

    def test_asymmetric_at_zone_edge(self):
        basis = basis_set(TWO_PI_LINE, [0.5], 2.0)
        ks = set(basis.int_coords[:, 0].tolist())
        assert ks == {-2, -1, 0, 1}  # |G + 1/2| <= 2 is not symmetric

    def test_3d_count_matches_brute_force(self):
        lat = Lattice(2.0 * np.pi * np.eye(3))
        basis = basis_set(lat, np.zeros(3), 3.0)
        count = 0
        for tup in itertools.product(range(-4, 5), repeat=3):
            if np.linalg.norm(np.asarray(tup, dtype=float)) <= 3.0:
                count += 1
        assert basis.dimension == count

    def test_lexicographic_order(self):
        basis = basis_set(CUBIC_2D, np.zeros(2), 1.5)
        coords = [tuple(row) for row in basis.int_coords]
        assert coords == sorted(coords)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", [math.sqrt(2.0), 2.5, math.sqrt(5.0)])
    def test_shell_boundaries_match_product(self, d, cutoff):
        # integer shells lie exactly on these spheres at k = 0 and k = b/2
        lat = Lattice(2.0 * np.pi * np.eye(d))
        rec = reciprocal(lat)
        for k in (np.zeros(d), 0.5 * rec.basis[0], 0.5 * rec.basis.sum(axis=0)):
            got = basis_set(lat, k, cutoff).int_coords
            assert np.array_equal(got, product_basis(lat, k, cutoff))

    def test_oblique_lattices_match_product(self):
        # a cutoff equal to the norm of one G + k puts that point on the
        # sphere, where a batched norm can round to the other side
        rng = np.random.RandomState(11)
        for trial in range(40):
            d = 2 + trial % 2
            lat = Lattice(2.0 * np.pi * (np.eye(d) + 0.3 * rng.normal(size=(d, d))))
            rec = reciprocal(lat)
            k = rng.uniform(-0.5, 0.5, d) @ rec.basis
            on_sphere = rng.randint(-2, 3, size=d).astype(float) @ rec.basis + k
            for cutoff in (rng.uniform(1.0, 4.0), np.linalg.norm(on_sphere)):
                got = basis_set(lat, k, cutoff).int_coords
                assert np.array_equal(got, product_basis(lat, k, cutoff))

    def test_rejects_nonfinite_k(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidParameterError, match="finite"):
                basis_set(CUBIC_2D, [0.0, bad], 2.0)


class TestAssembleBloch:
    def test_free_diagonal(self):
        basis = basis_set(CUBIC_2D, [0.1, -0.2], 2.0)
        H = assemble_bloch(FourierSeriesD(CUBIC_2D, {}), basis)
        shifted = basis.wavevectors + basis.k_point
        np.testing.assert_allclose(H, np.diag(np.sum(shifted**2, axis=1)),
                                    atol=1e-15)

    def test_reduces_to_1d_assembly(self):
        V = poisson_kernel(2.0, shift=2.0, cutoff=24)
        lat, Vd = series1d_to_lattice(V)
        basis = basis_set(lat, [0.0], 6.0)
        H = assemble_bloch(Vd, basis)
        H1 = assemble_hamiltonian(V, 6).entries
        np.testing.assert_allclose(H, H1, atol=1e-15)

    def test_constant_potential_shift(self):
        basis = basis_set(CUBIC_2D, [0.0, 0.0], 2.0)
        c = 0.35
        vol = CUBIC_2D.unit_cell_volume
        V = FourierSeriesD(CUBIC_2D, {(0, 0): c * math.sqrt(vol)})
        H0 = assemble_bloch(FourierSeriesD(CUBIC_2D, {}), basis)
        H = assemble_bloch(V, basis)
        np.testing.assert_allclose(H, H0 + c * np.eye(basis.dimension),
                                    atol=1e-14)

    def test_hermitian(self):
        V = gaussian_potential(CUBIC_2D, [[1.0, 2.0]], [0.8], [0.5], 4.0)
        basis = basis_set(CUBIC_2D, [0.3, 0.1], 3.0)
        H = assemble_bloch(V, basis)
        assert np.max(np.abs(H - np.conj(H.T))) < 1e-14

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_loop(self, d):
        rng = np.random.RandomState(20 + d)
        lat = Lattice(2.0 * np.pi * np.eye(d) + 0.3 * rng.normal(size=(d, d)))
        k = rng.uniform(-0.5, 0.5, d) @ reciprocal(lat).basis
        # order 241 in 1D: there H + conj(H.T) comes out in Fortran order
        basis = basis_set(lat, k, {1: 120.0, 2: 3.5, 3: 2.2}[d])
        widest = int(np.abs(basis.int_coords).max())
        # holes in the box; a box narrower and one wider than the differences
        for reach, fill in ((widest, 0.5), (1, 1.0), (2 * widest + 3, 0.3)):
            coeffs = sparse_real_coeffs(rng, d, reach, fill)
            H = assemble_bloch(FourierSeriesD(lat, coeffs), basis)
            ref = loop_assembly(coeffs, basis)
            assert H.tobytes() == ref.tobytes()
            # the layout sets how later matvecs round
            assert H.strides == ref.strides
        H0 = assemble_bloch(FourierSeriesD(lat, {}), basis)
        assert H0.tobytes() == loop_assembly({}, basis).tobytes()

    def test_one_coefficient_lookup_per_assembly(self, monkeypatch):
        V = gaussian_potential(CUBIC_2D, [[0.5, 1.0]], [0.7], [1.0], 4.0)
        basis = basis_set(CUBIC_2D, [0.1, 0.2], 4.0)
        calls = []
        lookup = FourierSeriesD.coefficient

        def counted(self, key):
            calls.append(key)
            return lookup(self, key)

        monkeypatch.setattr(FourierSeriesD, "coefficient", counted)
        assemble_bloch(V, basis)
        assert len(calls) <= 1

    def test_eigenvalues_invariant_under_reordering(self):
        V = gaussian_potential(CUBIC_2D, [[0.0, 0.0]], [0.9], [1.0], 4.0)
        basis = basis_set(CUBIC_2D, [0.2, 0.0], 3.0)
        H = assemble_bloch(V, basis)
        rng = np.random.RandomState(5)
        perm = rng.permutation(basis.dimension)
        permuted = PlanewaveBasis(
            lattice=basis.lattice, k_point=basis.k_point, cutoff=basis.cutoff,
            int_coords=basis.int_coords[perm], wavevectors=basis.wavevectors[perm])
        Hp = assemble_bloch(V, permuted)
        np.testing.assert_allclose(np.linalg.eigvalsh(Hp), np.linalg.eigvalsh(H),
                                    atol=1e-12)


class TestFourierSeriesD:
    def test_coefficients_round_trip(self):
        coeffs = {(0, 0): 1.5, (2, -1): 0.5 - 0.25j, (-2, 1): 0.5 + 0.25j}
        V = FourierSeriesD(CUBIC_2D, coeffs)
        assert V.coeffs == {key: complex(val) for key, val in coeffs.items()}
        assert V.coefficient((2, -1)) == 0.5 - 0.25j
        assert V.coefficient((1, 1)) == 0.0
        assert V.coefficient((5, 0)) == 0.0

    def test_missing_mirror_is_not_real(self):
        assert not FourierSeriesD(CUBIC_2D, {(1, 0): 0.5}).is_real_valued()
        assert FourierSeriesD(CUBIC_2D, {(1, 0): 0.5j, (-1, 0): -0.5j}).is_real_valued()

    def test_real_within_scaled_tolerance(self):
        # the tolerance is tol * (1 + max |c|): 3e-12 here
        near = FourierSeriesD(CUBIC_2D, {(1, 0): 2.0, (-1, 0): 2.0 + 1.5e-12})
        far = FourierSeriesD(CUBIC_2D, {(1, 0): 2.0, (-1, 0): 2.0 + 6e-12})
        assert near.is_real_valued()
        assert not far.is_real_valued()
        tiny = FourierSeriesD(CUBIC_2D, {(1, 0): 0.0, (-1, 0): 5e-13})
        assert tiny.is_real_valued()


class TestBandStructure:
    def test_free_1d_folded_parabolas(self):
        Vd = FourierSeriesD(TWO_PI_LINE, {})
        ks = [[0.0], [0.25], [0.5]]
        bs = band_structure(Vd, ks, 3.0, 4)
        for k, row in zip([0.0, 0.25, 0.5], bs.bands):
            exact = sorted((m + k) ** 2 for m in range(-3, 4))[:4]
            np.testing.assert_allclose(row, exact, atol=1e-13)

    def test_gap_opens_at_zone_boundary(self):
        # weak potential splits the free degeneracy at k = b1/2
        V = gaussian_potential(CUBIC_2D, [[np.pi, np.pi]], [1.2], [0.4], 3.0)
        rec = reciprocal(CUBIC_2D)
        k_edge = 0.5 * rec.basis[0]
        free = band_structure(FourierSeriesD(CUBIC_2D, {}), [k_edge], 3.0, 2)
        bands = band_structure(V, [k_edge], 3.0, 2)
        free_gap = free.bands[0, 1] - free.bands[0, 0]
        gap = bands.bands[0, 1] - bands.bands[0, 0]
        assert free_gap == pytest.approx(0.0, abs=1e-13)
        assert gap > 1e-3

    def test_bands_continuous_under_path_refinement(self):
        V = gaussian_potential(TWO_PI_LINE, [[0.0]], [0.9], [0.6], 6.0)
        rec = reciprocal(TWO_PI_LINE)
        jumps = []
        for n_pts in (8, 16, 32):
            path = [f * 0.5 * rec.basis[0] for f in np.linspace(0, 1, n_pts)]
            bs = band_structure(V, path, 6.0, 3)
            jumps.append(np.max(np.abs(np.diff(bs.bands, axis=0))))
        assert jumps[2] < jumps[1] < jumps[0]

    def test_basis_too_small(self):
        with pytest.raises(InvalidParameterError, match="k ="):
            band_structure(FourierSeriesD(TWO_PI_LINE, {}), [[0.0]], 1.5, 9)


class TestBzConvergence:
    def test_free_errors_vanish(self):
        Vd = FourierSeriesD(TWO_PI_LINE, {})
        table = bz_convergence(Vd, [[0.0], [0.25]], [3, 4, 5], 10.0, 1, 1.0)
        np.testing.assert_allclose(table.max_errors, 0.0, atol=1e-13)

    def test_finite_strip_rate(self):
        _, Vd = series1d_to_lattice(poisson_kernel(2.0, shift=2.0, cutoff=40))
        table = bz_convergence(Vd, [[0.0], [0.25], [0.5]], [4, 5, 6, 7, 8],
                               16.0, 1, 1.0)
        assert np.all(table.max_errors >= 0.0)
        assert np.all(np.diff(table.max_errors) <= 1e-12)
        # variational monotonicity holds pointwise in k, not just for the max
        assert np.all(np.diff(table.per_k_errors, axis=0) <= 1e-12)
        assert table.fitted_rate <= -2.0

    def test_reference_must_dominate(self):
        with pytest.raises(InvalidParameterError):
            bz_convergence(FourierSeriesD(TWO_PI_LINE, {}), [[0.0]], [4], 6.0,
                           1, 1.0)

    def test_reference_basis_too_small(self):
        with pytest.raises(InvalidParameterError, match="cutoff 0.4"):
            bz_convergence(FourierSeriesD(TWO_PI_LINE, {}), [[0.0]], [0.2], 0.4,
                           3, 1.0)


class TestGaussianPotential:
    def test_origin_centered_coefficients(self):
        V = gaussian_potential(CUBIC_2D, [[0.0, 0.0]], [0.7], [1.3], 3.0)
        mags = {key: val for key, val in V.coeffs.items()}
        for key, val in mags.items():
            assert abs(val.imag) < 1e-15
            assert val.real > 0.0
        # radially decreasing
        assert mags[(0, 0)].real > mags[(1, 0)].real > mags[(2, 0)].real

    def test_matches_image_sum(self):
        # grid evaluation of the series vs direct summation of the
        # periodized Gaussian over the 3^d neighbouring cells
        lat = Lattice(np.eye(2))
        sigma, amp = 0.1, 0.9
        center = np.array([0.3, 0.6])
        V = gaussian_potential(lat, [center], [sigma], [amp], 75.0)
        rec = reciprocal(lat)
        xs = [np.array([x, y]) for x in (0.1, 0.35) for y in (0.2, 0.8)]
        vol = lat.unit_cell_volume
        for x in xs:
            series_val = sum(
                val * np.exp(1j * ((np.asarray(key, dtype=float) @ rec.basis) @ x))
                for key, val in V.coeffs.items()) / math.sqrt(vol)
            direct = sum(
                amp * math.exp(-np.sum((x - center - np.asarray(shift, dtype=float)
                                        @ lat.basis) ** 2) / (2 * sigma**2))
                for shift in itertools.product((-1, 0, 1), repeat=2))
            assert series_val.imag == pytest.approx(0.0, abs=1e-10)
            assert series_val.real == pytest.approx(direct, abs=1e-10)

    def test_half_lattice_translation_parity(self):
        # two equal Gaussians half a lattice vector apart cancel odd G
        lat = CUBIC_2D
        x0 = np.array([0.7, 1.1])
        x1 = x0 + 0.5 * lat.basis[0]
        V = gaussian_potential(lat, [x0, x1], [0.8, 0.8], [1.0, 1.0], 3.0)
        for key, val in V.coeffs.items():
            if key[0] % 2 == 1:
                assert abs(val) < 1e-14

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            gaussian_potential(CUBIC_2D, [[0.0, 0.0]], [-1.0], [1.0], 2.0)
        with pytest.raises(InvalidParameterError):
            gaussian_potential(CUBIC_2D, [[0.0, 0.0]], [1.0, 2.0], [1.0], 2.0)
        with pytest.raises(InvalidParameterError, match="2 components"):
            gaussian_potential(CUBIC_2D, [[0.0, 0.0, 0.0]], [1.0], [1.0], 2.0)


class TestBzSampleGrid:
    def test_points_inside_voronoi_cell(self):
        lat = Lattice(np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]))
        rec = reciprocal(lat)
        pts = bz_sample_grid(lat, 3)
        assert pts.shape == (9, 2)
        shells = [np.asarray(s, dtype=float) @ rec.basis
                  for s in itertools.product((-1, 0, 1), repeat=2)
                  if s != (0, 0)]
        for k in pts:
            for g in shells:
                assert np.linalg.norm(k) <= np.linalg.norm(k - g) + 1e-12

    def test_1d_grid(self):
        pts = bz_sample_grid(TWO_PI_LINE, 4)
        assert pts.shape == (4, 1)
        assert np.all(np.abs(pts) <= 0.5 + 1e-12)
