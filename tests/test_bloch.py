"""Tests for lattices, planewave bases, Bloch fibers and band structures."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from stripwave import bloch
from stripwave.bloch import (FourierSeriesD, Lattice, PlanewaveBasis, _coupling,
                             _diagonal, _form, _Rotation,
                             assemble_bloch, band_structure, basis_set,
                             bz_sample_grid, gaussian_potential,
                             reciprocal, series1d_to_lattice)
from stripwave.cli import _build_lattice_potential, main
from stripwave.eigen import bz_convergence, convergence_study
from stripwave.errors import InvalidParameterError
from stripwave.extended import Band, band_residual
from stripwave.galerkin import assemble_dense, rayleigh_polish
from stripwave.potentials import cosine, poisson_kernel, sine

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


def nonzero_coeffs(V):
    """The nonzero coefficients of V as {integer tuple: complex}."""
    return {tuple((idx - V.reach).tolist()): complex(V.dense[tuple(idx)])
            for idx in np.argwhere(V.dense != 0)}


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
        H1 = assemble_dense(V, 6)
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
        assert nonzero_coeffs(V) == {key: complex(val) for key, val in coeffs.items()}
        assert V.coefficient((2, -1)) == 0.5 - 0.25j
        assert V.coefficient((1, 1)) == 0.0
        assert V.coefficient((5, 0)) == 0.0

    def test_missing_mirror_is_not_real(self):
        assert not FourierSeriesD(CUBIC_2D, {(1, 0): 0.5}).is_real_valued()
        assert FourierSeriesD(CUBIC_2D, {(1, 0): 0.5j, (-1, 0): -0.5j}).is_real_valued()

    def test_real_within_scaled_tolerance(self):
        # the tolerance is 1e-10 * (1 + max |c|): 3e-10 here
        near = FourierSeriesD(CUBIC_2D, {(1, 0): 2.0, (-1, 0): 2.0 + 1.5e-10})
        far = FourierSeriesD(CUBIC_2D, {(1, 0): 2.0, (-1, 0): 2.0 + 6e-10})
        assert near.is_real_valued()
        assert not far.is_real_valued()
        tiny = FourierSeriesD(CUBIC_2D, {(1, 0): 0.0, (-1, 0): 5e-11})
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
        table = bz_convergence(Vd, [[0.0], [0.25]], [3, 4, 5], 10.0, 1)
        np.testing.assert_allclose(table.max_errors, 0.0, atol=1e-13)

    def test_finite_strip_rate(self):
        _, Vd = series1d_to_lattice(poisson_kernel(2.0, shift=2.0, cutoff=40))
        table = bz_convergence(Vd, [[0.0], [0.25], [0.5]], [4, 5, 6, 7, 8],
                               16.0, 1)
        assert np.all(table.max_errors >= 0.0)
        assert np.all(np.diff(table.max_errors) <= 1e-12)
        # variational monotonicity holds pointwise in k, not just for the max
        assert np.all(np.diff(table.errors, axis=0) <= 1e-12)
        assert table.fitted_rate <= -2.0

    def test_reference_must_dominate(self):
        with pytest.raises(InvalidParameterError):
            bz_convergence(FourierSeriesD(TWO_PI_LINE, {}), [[0.0]], [4], 6.0,
                           1)

    def test_reference_basis_too_small(self):
        with pytest.raises(InvalidParameterError, match="cutoff 0.4"):
            bz_convergence(FourierSeriesD(TWO_PI_LINE, {}), [[0.0]], [0.2], 0.4,
                           3)


def mirrored(coeffs):
    """The coefficients with c_{-G} = conj(c_G) added: a real potential."""
    out = dict(coeffs)
    out.update({tuple(-i for i in key): complex(val).conjugate()
                for key, val in coeffs.items()})
    return out


# complex coefficients, no inversion symmetry (c_{-G} != c_G), on an
# oblique lattice, at a k on no symmetry line
OBLIQUE = Lattice(2.0 * np.pi * np.array([[1.0, 0.0], [0.3, 1.1]]))
SKEW = FourierSeriesD(OBLIQUE, {(0, 0): 0.4, **mirrored({
    (1, 0): 0.3 + 0.2j, (0, 1): -0.25 + 0.1j, (1, 1): 0.15j,
    (2, -1): 0.1 - 0.05j, (1, -2): 0.05 + 0.07j})})
# an odd potential at the zone edge: the lowest Bloch vector is nearly
# (e_0 + i e_{-1}) / sqrt(2), whose x^T x vanishes, so a border of X^T
# in place of X^H would make the bordered system singular
EDGE = series1d_to_lattice(sine(0.6) + cosine(0.3, 2, 1.0))[1]


class TestZoneErrorsExact:
    @pytest.mark.parametrize("V, k, cutoffs, reference, band", [
        (SKEW, [0.13, -0.29], [1.0, 1.5, 1.75], 3.5, 2),
        (EDGE, [0.5], [2.0, 3.0, 4.0], 8.0, 1),
    ], ids=["skew-2d", "odd-zone-edge"])
    def test_match_50_digit_eigenvalues(self, V, k, cutoffs, reference, band):
        table = bz_convergence(V, [k], cutoffs, reference, band)
        mp = mpmath.MPContext()
        mp.dps = 50

        def eigenvalue(cutoff):
            H = assemble_bloch(V, basis_set(V.lattice, k, cutoff))
            return sorted(mp.eighe(mp.matrix(H.tolist()), eigvals_only=True))[band - 1]

        ref = eigenvalue(reference)
        for n, err in zip(cutoffs, table.errors[:, 0]):
            assert err == float(eigenvalue(n) - ref) and err > 0.0
        # Newton on the bordered system converges in at most two corrections
        assert all(1 <= r.steps <= 2 for r in table.refinements[0])

    @pytest.mark.parametrize("cutoffs, reference, potential_cutoff", [
        ([3, 4, 5], 10, 30),  # the bz-convergence golden config
        ([4, 5, 6, 7, 8], 16, 40),  # criterion 10's table
        # pilots at 10 and 20, both refused: the reference's own solve
        ([3, 4, 5], 40, 30),
        # pilots at 10, 20 and 40, the last accepted
        ([3, 4, 5], 80, 30),
    ])
    def test_1d_at_k0_is_the_1d_study(self, cutoffs, reference, potential_cutoff):
        V = poisson_kernel(2.0, shift=2.0, cutoff=potential_cutoff)
        table = bz_convergence(series1d_to_lattice(V)[1], [[0.0]],
                               [float(n) for n in cutoffs], float(reference), 1)
        study = convergence_study(V, cutoffs, reference, 1)
        assert table.errors[:, 0].tobytes() == study.eigenvalue_errors.tobytes()
        source = {10: 10, 16: 16, 40: 40, 80: 40}[reference]
        assert table.refinements[0][0].source == study.refinements[0].source == source
        assert table.refinements[0][0].tried == study.refinements[0].tried

    def test_complex_fiber_from_a_pilot(self, monkeypatch):
        # no inversion center and 2k off the lattice: complex fibers, whose
        # pilot at 20 (order 40) stands in for the reference of order 48
        V = FourierSeriesD(TWO_PI_LINE, {(0,): 0.4, **mirrored({
            (1,): 0.15 + 0.1j, (2,): 0.05 - 0.03j})})
        k, cutoffs = [0.13], [1.5, 2.0, 2.5]
        orders = eigh_orders(monkeypatch)
        table = bz_convergence(V, [k], cutoffs, 24.0, 1)
        record = table.refinements[0][0]
        assert (record.tried, record.source, record.form) == ((5.0, 10.0, 20.0), 20.0,
                                                             "complex")
        assert record.order == 48 and max(orders) == 41
        mp = mpmath.MPContext()
        mp.dps = 50

        def eigenvalue(cutoff):
            H = assemble_bloch(V, basis_set(V.lattice, np.asarray(k), cutoff))
            return min(mp.eighe(mp.matrix(H.tolist()), eigvals_only=True))

        ref = eigenvalue(24.0)
        for n, err in zip(cutoffs, table.errors[:, 0]):
            exact = float(eigenvalue(n) - ref)
            assert abs(err - exact) <= np.spacing(exact)

    @pytest.mark.parametrize("lattice", [
        TWO_PI_LINE, CUBIC_2D, Lattice(2.0 * np.pi * np.eye(3)), OBLIQUE,
        Lattice(2.0 * np.pi * np.array([[1.0, 0.0, 0.0], [0.4, 1.1, 0.0],
                                        [0.2, -0.3, 0.9]])),
    ], ids=["line", "square", "cube", "oblique", "skew-3d"])
    def test_cut_is_basis_set(self, lattice):
        # a study cuts every cutoff from one basis: each cut must be
        # basis_set's own basis there, bit for bit, also at cutoffs that
        # equal some planewave's per-row |G + k|, where the batched norm
        # may round either way
        rng = np.random.default_rng(7)
        d, recip = lattice.dimension, reciprocal(lattice).basis
        V = FourierSeriesD(lattice, {(0,) * d: 0.7})
        reference = {1: 24.0, 2: 4.0, 3: 2.5}[d]
        for _ in range(6):
            k = rng.uniform(-0.5, 0.5, d) @ recip
            whole = basis_set(lattice, k, reference)
            edges = [float(np.linalg.norm(whole.int_coords[i].astype(float) @ recip + k))
                     for i in rng.choice(whole.dimension, 4, replace=False)]
            for cutoff in [*rng.uniform(0.0, reference, 3), *edges, reference]:
                cut, rows = whole.within(cutoff)
                want = basis_set(lattice, k, cutoff)
                assert np.all(np.diff(rows) > 0)
                assert np.array_equal(whole.int_coords[rows], cut.int_coords)
                assert cut.int_coords.tobytes() == want.int_coords.tobytes()
                assert cut.wavevectors.tobytes() == want.wavevectors.tobytes()
                assert _diagonal(V, cut).tobytes() == _diagonal(V, want).tobytes()
                # _cuts gives each cut the reference's diagonal on its rows
                assert _diagonal(V, whole)[rows].tobytes() == _diagonal(V, cut).tobytes()
                assert cut.cutoff == want.cutoff

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coupling_is_the_fiber_off_its_diagonal(self, d):
        rng = np.random.RandomState(40 + d)
        lat = Lattice(2.0 * np.pi * np.eye(d) + 0.3 * rng.normal(size=(d, d)))
        k = rng.uniform(-0.5, 0.5, d) @ reciprocal(lat).basis
        basis = basis_set(lat, k, {1: 12.0, 2: 3.0, 3: 1.8}[d])
        coeffs = sparse_real_coeffs(rng, d, 3, 0.5)
        # conjugate symmetric only to within is_real_valued's tolerance
        coeffs = {key: val * (1 + 1e-14 * rng.normal()) for key, val in coeffs.items()}
        V = FourierSeriesD(lat, coeffs)
        H = assemble_bloch(V, basis)
        coupling = _coupling(V, basis)
        n = basis.dimension
        rows = np.arange(n)
        if d == 1:  # a run of consecutive integers: the Toeplitz band
            assert isinstance(coupling, Band)
            neighbours = rows[:, None] + np.arange(len(coupling.coef)) - coupling.reach
            neighbours[(neighbours < 0) | (neighbours >= n)] = n
        else:
            neighbours = coupling.index[coupling.flat[:, None] - coupling.step]
        rebuilt = np.zeros((n, n + 1), dtype=complex)
        for coef, near in zip(coupling.coef, neighbours.T):
            rebuilt[rows, near] += coef
        np.fill_diagonal(H, 0.0)
        assert np.array_equal(rebuilt[:, :n], H)

    def test_coupling_memory_is_not_offsets_times_rows(self):
        # a 3D fiber of order 515 with 2112 offsets: a neighbour table of
        # every (offset, row) would take 8.7 MB
        lat = Lattice(2.0 * np.pi * np.eye(3))
        V = gaussian_potential(lat, [[0.1, 0.2, 0.3]], [0.4], [1.0], 8.0)
        basis = basis_set(lat, np.array([0.1, -0.2, 0.05]), 5.0)
        V.hermitian  # cached on the series before the trace
        n = basis.dimension
        x = np.random.default_rng(1).standard_normal((n, 2)) + 0j
        tracemalloc.start()
        try:
            coupling = _coupling(V, basis)
            band_residual(np.ones(n), coupling, np.zeros(2), np.zeros(2), x, 1e-17 * x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = len(coupling.coef) * n * 8
        assert table > 8e6
        stored = sum(a.nbytes for a in vars(coupling).values()
                     if isinstance(a, np.ndarray))
        assert stored < table / 10
        assert peak < table / 4

    def test_no_full_eigensolve(self, monkeypatch):
        calls = []
        for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                             (scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh")):
            def spy(*args, _name=name, _solver=getattr(module, name), **kwargs):
                calls.append((_name, "subset_by_index" in kwargs))
                return _solver(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        band_structure(SKEW, [[0.0, 0.0], [0.5, 0.0]], 3.0, 4)
        bz_convergence(SKEW, [[0.13, -0.29]], [1.0, 1.5], 3.0, 2)
        assert calls and set(calls) == {("eigh", True)}


def loop_gaussian_potential(lattice, centers, widths, amplitudes, cutoff):
    """gaussian_potential as a Python loop over G: the form it replaced."""
    centers, widths, amplitudes = (np.atleast_1d(np.asarray(v, dtype=float))
                                   for v in (centers, widths, amplitudes))
    centers = np.atleast_2d(centers)
    d = lattice.dimension
    basis = basis_set(lattice, np.zeros(d), cutoff)
    vol = lattice.unit_cell_volume
    coeffs = {}
    for ints, G in zip(basis.int_coords, basis.wavevectors):
        total = 0.0 + 0.0j
        g2 = float(G @ G)
        for x0, sigma, amp in zip(centers, widths, amplitudes):
            total += (amp * (2.0 * np.pi * sigma**2) ** (d / 2.0) / math.sqrt(vol)
                      * math.exp(-0.5 * sigma**2 * g2)
                      * np.exp(-1j * float(G @ x0)))
        coeffs[tuple(ints)] = total
    return FourierSeriesD(lattice, coeffs)


class TestGaussianPotential:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_bit_identical_to_loop(self, d, count):
        rng = np.random.default_rng(10 * d + count)
        lat = Lattice(2.0 * np.pi * np.eye(d) + 0.4 * rng.normal(size=(d, d)))
        args = (rng.uniform(-0.5, 0.5, (count, d)).tolist(),
                rng.uniform(0.3, 0.8, count).tolist(), rng.uniform(-2, 2, count).tolist(),
                {1: 30.0, 2: 9.0, 3: 5.0}[d])
        got, want = gaussian_potential(lat, *args), loop_gaussian_potential(lat, *args)
        assert got.dense.tobytes() == want.dense.tobytes()

    def test_origin_centered_coefficients(self):
        V = gaussian_potential(CUBIC_2D, [[0.0, 0.0]], [0.7], [1.3], 3.0)
        mags = {key: val for key, val in nonzero_coeffs(V).items()}
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
                for key, val in nonzero_coeffs(V).items()) / math.sqrt(vol)
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
        for key, val in nonzero_coeffs(V).items():
            if key[0] % 2 == 1:
                assert abs(val) < 1e-14

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            gaussian_potential(CUBIC_2D, [[0.0, 0.0]], [-1.0], [1.0], 2.0)
        with pytest.raises(InvalidParameterError):
            gaussian_potential(CUBIC_2D, [[0.0, 0.0]], [1.0, 2.0], [1.0], 2.0)
        with pytest.raises(InvalidParameterError, match="2 components"):
            gaussian_potential(CUBIC_2D, [[0.0, 0.0, 0.0]], [1.0], [1.0], 2.0)


def loop_sample_grid(lattice, n_per_dim):
    """Reference grid, one point at a time: the loop the vectorized one replaced."""
    recip = reciprocal(lattice)
    d = lattice.dimension
    fractions = [(2.0 * r - n_per_dim + 1.0) / (2.0 * n_per_dim)
                 for r in range(n_per_dim)]
    shells = np.array(list(itertools.product([-1, 0, 1], repeat=d)), dtype=float)
    shifts = shells @ recip.basis
    points = []
    for frac in itertools.product(fractions, repeat=d):
        k = np.asarray(frac) @ recip.basis
        dists = np.linalg.norm(k - shifts, axis=1)
        points.append(k - shifts[int(np.argmin(dists))])
    return np.asarray(points)


class TestBzSampleGrid:
    @pytest.mark.parametrize("lattice", [
        TWO_PI_LINE, CUBIC_2D, Lattice(2.0 * np.pi * np.eye(3)),
        Lattice(np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])),
        Lattice(np.eye(3) + 0.3 * np.random.RandomState(2).normal(size=(3, 3)))],
        ids=["1d", "2d", "3d", "hexagonal", "oblique-3d"])
    def test_bit_identical_to_loop(self, lattice):
        for n in (1, 2, 3, 4, 7):
            assert bz_sample_grid(lattice, n).tobytes() \
                == loop_sample_grid(lattice, n).tobytes()

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


# the bands workload's kind of potential: two unequal Gaussians, no
# inversion center
TWO_GAUSSIANS = gaussian_potential(CUBIC_2D, [[0.3, -0.2], [-0.4, 0.1]], [0.6, 0.62],
                                   [-1.5, -1.2], 8.0)
GAMMA_X_M = [[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]]
CUBE = Lattice(2.0 * np.pi * np.eye(3))
ONE_GAUSSIAN = gaussian_potential(CUBE, [[0.31, -0.22, 0.17]], [0.8], [-2.0], 4.0)
# two equal Gaussians, centrosymmetric about (0.1, 0.2): inversion and time
# reversal both fix Gamma, X and M
MIRRORED_PAIR = gaussian_potential(CUBIC_2D, [[0.5, -0.1], [-0.3, 0.5]], [0.6, 0.6],
                                   [-1.5, -1.5], 8.0)


def form_at(V, k, cutoff):
    basis = basis_set(V.lattice, np.asarray(k, dtype=float), cutoff)
    return _form(V, basis, _diagonal(V, basis))


def complex_form(V, basis, diag):
    return (lambda: [assemble_bloch(V, basis)]), _Rotation("complex")


def eigh_dtypes(monkeypatch):
    """The dtypes of the matrices scipy.linalg.eigh receives from now on."""
    seen = []

    def spy(mat, *args, _solver=scipy.linalg.eigh, **kwargs):
        seen.append(mat.dtype)
        return _solver(mat, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return seen


def eigh_orders(monkeypatch):
    """The orders of the matrices that scipy.linalg.eigh and lu_factor
    receive from now on."""
    seen = []
    for name in ("eigh", "lu_factor"):
        def spy(mat, *args, _solver=getattr(scipy.linalg, name), **kwargs):
            seen.append(len(mat))
            return _solver(mat, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, spy)
    return seen


class TestRealForms:
    @pytest.mark.parametrize("V, k, form", [
        (TWO_GAUSSIANS, [0.0, 0.0], "time-reversal"),  # odd order: G = 0 is self-paired
        (TWO_GAUSSIANS, [0.5, 0.0], "time-reversal"),  # even order
        (TWO_GAUSSIANS, [0.5, 0.5], "time-reversal"),
        (ONE_GAUSSIAN, [0.1, 0.2, 0.3], "inversion"),
        (SKEW, [0.13, -0.29], "complex"),
        (MIRRORED_PAIR, [0.0, 0.0], "parity"),
        (MIRRORED_PAIR, [0.5, 0.0], "parity"),
        (MIRRORED_PAIR, [0.5, 0.5], "parity"),
        # d = 1, no inversion center: from the middle outward
        (series1d_to_lattice(cosine(0.5, 1, 3.0) + sine(0.5, 2))[1], [0.5], "time-reversal"),
    ])
    def test_rotation_is_orthonormal_and_makes_the_block(self, V, k, form):
        basis = basis_set(V.lattice, np.asarray(k), 3.0)
        build, rotation = _form(V, basis, _diagonal(V, basis))
        block = scipy.linalg.block_diag(*build())
        assert rotation.form == form
        assert block.dtype == (complex if form == "complex" else float)
        assert np.array_equal(block, np.conj(block.T))
        n = basis.dimension
        Q = rotation.to_modes(np.eye(n))
        assert np.max(np.count_nonzero(Q, axis=0)) <= 2
        np.testing.assert_allclose(np.conj(Q.T) @ Q, np.eye(n), atol=1e-15)
        H = assemble_bloch(V, basis)
        np.testing.assert_allclose(np.conj(Q.T) @ H @ Q, block, rtol=0, atol=1e-13)
        r = np.random.default_rng(1).standard_normal((n, 2)) + 1j
        adjoint = np.conj(Q.T) @ r
        if form in ("parity", "time-reversal"):
            # the real part: the real blocks' columns are real functions
            adjoint = adjoint.real
        np.testing.assert_allclose(rotation.from_modes(r), adjoint, atol=1e-15)

    def test_free_pairs_share_the_diagonal(self):
        # the free fiber's cosine and sine entries of a pair are one double
        # |G + k|^2, so zero-potential bands stay exact; on this oblique
        # lattice the partner's |G' + k|^2 rounds differently for some pairs
        lat = Lattice(2.0 * np.pi * (np.eye(2) + 0.3 * np.random.RandomState(0)
                                     .normal(size=(2, 2))))
        free = FourierSeriesD(lat, {})
        basis = basis_set(lat, 0.5 * reciprocal(lat).basis.sum(axis=0), 3.0)
        diag = _diagonal(free, basis)
        build, rotation = _form(free, basis, diag)
        p = rotation.pairs
        assert np.any(diag[:p] != diag[::-1][:p])
        outward = diag[:p][::-1]  # from the middle of the basis outward
        assert np.array_equal(scipy.linalg.block_diag(*build()),
                              np.diag(np.concatenate((diag[p:-p], outward, outward))))

    def test_gamma_x_m_bands_are_real_solves(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(bloch, "_form", complex_form)
            want = band_structure(TWO_GAUSSIANS, GAMMA_X_M, 10.0, 6).bands
        seen = eigh_dtypes(monkeypatch)
        got = band_structure(TWO_GAUSSIANS, GAMMA_X_M, 10.0, 6).bands
        assert seen == [np.dtype(float)] * 3
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_inversion_zone_errors_bit_identical_to_complex(self, monkeypatch):
        args = ([[0.1, 0.2, 0.3]], [1.5, 2.0, 2.5], 5.0, 1)
        with monkeypatch.context() as patch:
            patch.setattr(bloch, "_form", complex_form)
            want = bz_convergence(ONE_GAUSSIAN, *args)
        seen = eigh_dtypes(monkeypatch)
        got = bz_convergence(ONE_GAUSSIAN, *args)
        assert seen and set(seen) == {np.dtype(float)}
        assert [r.form for r in got.refinements[0]] == ["inversion"] * 4
        assert [r.form for r in want.refinements[0]] == ["complex"] * 4
        assert got.errors.tobytes() == want.errors.tobytes()
        assert got.fitted_rate == want.fitted_rate

    @pytest.mark.parametrize("k", GAMMA_X_M, ids=["gamma", "x", "m"])
    def test_parity_zone_errors_bit_identical_to_the_inversion_block(self, monkeypatch, k):
        args = ([k], [2.0, 3.0, 4.0], 8.0, 1)
        with monkeypatch.context() as patch:
            patch.setattr(bloch, "_pairing", lambda basis: None)  # one inversion block
            want = bz_convergence(MIRRORED_PAIR, *args)
        orders = eigh_orders(monkeypatch)
        got = bz_convergence(MIRRORED_PAIR, *args)
        assert [r.form for r in want.refinements[0]] == ["inversion"] * 4
        assert [r.form for r in got.refinements[0]] == ["parity"] * 4
        assert got.errors.tobytes() == want.errors.tobytes()
        assert got.fitted_rate == want.fitted_rate
        # eigh sees the even and the odd block of each fiber, never the whole
        sizes = [basis_set(CUBIC_2D, np.asarray(k), n).dimension for n in (8.0, 2.0, 3.0, 4.0)]
        assert [r.block_orders for r in got.refinements[0]] == \
            [(n - n // 2, n // 2) for n in sizes]
        solved = {n for n in orders if n not in sizes}
        assert {m for n in sizes for m in (n - n // 2, n // 2)} <= solved
        assert not set(orders) & set(sizes)

    def test_gaussian_center_found_and_a_quarter_shift_rejected(self):
        t, _ = ONE_GAUSSIAN._inversion
        # t_n = b_n . c up to pi: half a lattice vector away is also a center
        turns = (t - reciprocal(CUBE).basis @ np.array([0.31, -0.22, 0.17])) / np.pi
        np.testing.assert_allclose(turns, np.rint(turns), atol=1e-12)
        assert ONE_GAUSSIAN._about(t + [np.pi, 0.0, 0.0]) is not None
        # a quarter of a_1 away: the odd G along b_1 turn imaginary
        assert ONE_GAUSSIAN._about(t + [0.5 * np.pi, 0.0, 0.0]) is None

    def test_two_unequal_centers_stay_complex_at_generic_k(self):
        assert TWO_GAUSSIANS._inversion is None
        assert form_at(TWO_GAUSSIANS, [0.13, -0.29], 3.0)[1].form == "complex"

    def test_k_off_the_zone_edge_stays_complex(self):
        assert form_at(TWO_GAUSSIANS, [0.5, 0.0], 3.0)[1].form == "time-reversal"
        assert form_at(TWO_GAUSSIANS, [0.5 + 1e-9, 0.0], 3.0)[1].form == "complex"

    def test_basis_not_closed_under_pairing_stays_complex(self):
        # on this oblique lattice the cutoff sphere through G + k holds G
        # but, after rounding, not its partner -G - 2k
        lat = Lattice(2.0 * np.pi * (np.eye(2) + 0.3 * np.random.RandomState(0)
                                     .normal(size=(2, 2))))
        rec = reciprocal(lat)
        k = 0.5 * rec.basis[0]
        cutoff = float(np.linalg.norm(np.array([-3.0, 1.0]) @ rec.basis + k))
        V = gaussian_potential(lat, [[0.3, -0.2], [-0.4, 0.1]], [0.6, 0.62],
                               [-1.5, -1.2], 4.0)
        ints = basis_set(lat, k, cutoff).int_coords
        assert not np.array_equal(ints[::-1], -ints - [1, 0])
        assert form_at(V, k, cutoff)[1].form == "complex"
        assert form_at(V, k, cutoff + 0.01)[1].form == "time-reversal"


# The bands.csv contract (README, "Reproducibility"): a cell is the exactly
# summed Rayleigh quotient of eigh's vector through a BLAS H @ vec, so its
# last bits follow the kernel, the thread count and the fiber's form.  Each
# polished band lies within BANDS_ULPS ulps of max(1, the largest |band| at
# its k) of the complex fiber's.  Measured over the eight settings of
# tools/kernel_sweep.py: at most 5 such ulps here (TWO_GAUSSIANS, Prescott)
# and on the bloch-bands benchmark configs, a margin of 3.
BANDS_ULPS = 16


def complex_bands(V, k, cutoff, n_bands):
    """The lowest n_bands polished bands of the complex Hermitian fiber."""
    H = assemble_bloch(V, basis_set(V.lattice, np.asarray(k, dtype=float), cutoff))
    _, vecs = scipy.linalg.eigh(H, subset_by_index=[0, n_bands - 1])
    return np.sort([rayleigh_polish(H, v) for v in vecs.T])


def contract_ulps(bands, reference):
    """|bands - reference| in ulps of max(1, the row's largest |reference|)."""
    reference = np.atleast_2d(reference)
    scale = np.maximum(np.abs(reference).max(axis=1, keepdims=True), 1.0)
    return np.abs(bands - reference) / np.spacing(scale)


@pytest.mark.parametrize("V, form", [(TWO_GAUSSIANS, "time-reversal"),
                                     (MIRRORED_PAIR, "parity")])
def test_real_bands_within_the_contract_of_the_complex_fiber(V, form):
    assert {form_at(V, k, 10.0)[1].form for k in GAMMA_X_M} == {form}
    got = band_structure(V, GAMMA_X_M, 10.0, 6).bands
    want = [complex_bands(V, k, 10.0, 6) for k in GAMMA_X_M]
    assert contract_ulps(got, want).max() <= BANDS_ULPS


def block_digest(V, k, cutoff):
    """The fiber's form and the sha256 of its blocks' bytes, in order."""
    op = bloch._fiber(V, np.asarray(k, dtype=float), cutoff, 1)
    blocks = b"".join(np.ascontiguousarray(block).tobytes() for block in op.blocks)
    return op.rotation.form, hashlib.sha256(blocks).hexdigest()


# Parity blocks, pinned: the 1D goldens, the 1D benchmark artifacts and the
# bands golden (the zero potential) rest on these bytes.
POISSON_13 = series1d_to_lattice(poisson_kernel(1.3, mu=1, shift=2, cutoff=120))[1]
PARITY_BYTES = {
    (4, "53576621d2755f6b166baa1335ba4a59ace94f9308aeb46998fdbaa6554e9ff7"),
    (20, "3a2cd6b263df06568bc41ec1095e16e524a3bec7dc61d3a78dcad333530bc503"),
    (80, "acc5f5b8124e3111e66e5e84a112e2eb72bcf8b7b18a2e3937340122de366e3e"),
    (256, "1f60df6d8293ad2e88016a75ff76b561f58bd371c690cee701a1536b4b5b5e19"),
}
FREE_BYTES = {
    ((0.0, 0.0), "2158e6fb70d775acf048ee2aff2955b5f1c1a501c3ee457233846f8234cd4faf"),
    ((0.5, 0.0), "3d83cb7ef0355b0e8e647a0e85511358e2452dfa6d28d8bdab9f5af9b1f9ec8b"),
}
# gaussian_potential's G . x0 is a BLAS ddot, an FMA chain on SkylakeX and a
# plain sum on Haswell, Sandybridge and Prescott, so MIRRORED_PAIR has two
# sets of coefficients (keyed by their sha256); each pins its blocks at
# Gamma, X and M (cutoff 10)
MIRRORED_BYTES = {
    "d30e0f204570505ed82dd800e1102c68f801febec4c625caacc4c65bbb9b858b": (
        "5caf85b6d620fdc8d261b18029de17f1e24e90574b481ed8f66f086a4ecd4d84",
        "a9e37b44df2af8564a982289d290fe0b991bed804903efdcb28ed531bf40539d",
        "879b7a4fbccf25b79f94e27ad6209b9a98439b5a2aed2f0d9ec228ce085ab213"),
    "96d0dd270de42efa19ba262f91b7c38977b0bd31e025646489eb324e2119667a": (
        "2f8848dc23de561a9cef33133f83a04cfafec0589d60d3996b8a69723280a115",
        "44c923c04e679f32b8f9604fe6b78f21ab23f17198a4258cf639d5f4493d4e64",
        "4b2cd006bc071bb95f8b5df94146c0a0a9ea42c83ec00ce9f649a0ded27f558b"),
}


class TestParityBytes:
    @pytest.mark.parametrize("cutoff, digest", sorted(PARITY_BYTES))
    def test_1d_blocks(self, cutoff, digest):
        assert block_digest(POISSON_13, [0.0], cutoff) == ("parity", digest)

    @pytest.mark.parametrize("k, digest", sorted(FREE_BYTES))
    def test_free_blocks(self, k, digest):
        assert block_digest(FourierSeriesD(CUBIC_2D, {}), k, 2.5) == ("parity", digest)

    def test_mirrored_pair_blocks(self):
        coefficients = hashlib.sha256(MIRRORED_PAIR.dense.tobytes()).hexdigest()
        assert coefficients in MIRRORED_BYTES, \
            "this BLAS rounds MIRRORED_PAIR unlike SkylakeX, Haswell, Sandybridge, Prescott"
        assert [block_digest(MIRRORED_PAIR, k, 10.0) for k in GAMMA_X_M] == \
            [("parity", digest) for digest in MIRRORED_BYTES[coefficients]]


@st.composite
def bands_configs(draw):
    """A small bands config: a cubic lattice of dimension 1-3 or an
    oblique 2D one; the zero potential, one Gaussian or two unequal ones;
    k points on the zone edge (2k in the reciprocal lattice) or off it.
    Together they reach the parity, inversion, time-reversal and complex
    forms; n_bands may pass the smallest basis (exit 3)."""
    d = draw(st.integers(1, 3))
    oblique = d == 2 and draw(st.booleans())
    rows = (OBLIQUE.basis if oblique else 2.0 * np.pi * np.eye(d)).tolist()
    recip = reciprocal(Lattice(np.array(rows))).basis
    edge = st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0]), min_size=d, max_size=d) \
        .map(lambda m: (np.array(m) @ recip).tolist())
    off = st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d)
    count = draw(st.integers(0, 2))
    potential = {"name": "zero"} if count == 0 else {
        "name": "gaussian-sum",
        "centers": draw(st.lists(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d),
                                 min_size=count, max_size=count)),
        "widths": draw(st.lists(st.floats(0.5, 0.8), min_size=count, max_size=count)),
        "amplitudes": draw(st.lists(st.floats(-2.0, 2.0), min_size=count,
                                    max_size=count)),
        "cutoff": 3.0}
    return {"lattice": {"rows": rows} if oblique else
            {"cubic": {"dimension": d, "a": 2.0 * np.pi}},
            "potential": potential,
            "k_path": draw(st.lists(edge | off, min_size=1, max_size=3)),
            "N": draw(st.floats(0.5, {1: 8.0, 2: 4.0, 3: 2.5}[d])),
            "n_bands": draw(st.integers(1, 4))}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bands_configs())
def test_fuzzed_bands_configs_end_in_a_documented_exit(config):
    """Every generated bands config exits 0, 2 or 3; a nonzero exit leaves
    one JSON line on stderr (no traceback: an escaping exception fails the
    test), and on exit 0 each row of bands.csv ascends and lies within the
    contract (BANDS_ULPS) of the complex fiber's polished bands."""
    with tempfile.TemporaryDirectory() as root:
        cfg_path, out = Path(root, "config.json"), Path(root, "out")
        cfg_path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["bands", "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 2, 3)
        lines = stderr.getvalue().splitlines()
        if code:
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == ("config" if code == 2 else "numeric")
            return
        assert lines == []
        with open(out / "bands.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    n = config["n_bands"]
    got = np.array([[float(row[f"band{j + 1}"]) for j in range(n)] for row in rows])
    assert np.all(np.diff(got, axis=1) >= 0.0)
    _, V = _build_lattice_potential(config, "config")
    want = [complex_bands(V, k, config["N"], n) for k in config["k_path"]]
    assert contract_ulps(got, want).max() <= BANDS_ULPS
