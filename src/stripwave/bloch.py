"""Bravais lattices, planewave bases and Bloch band structures in d dimensions.

The Bloch fiber at quasimomentum k is the operator (-i*grad + k)^2 + V
on lattice-periodic functions; its Galerkin matrix on the planewave set
{G in the reciprocal lattice : |G + k| <= N} has entries

    |G + k|^2 delta_{GG'} + V_{G-G'} / sqrt(|cell|),

so the d = 1 pipeline on the lattice 2*pi*Z at k = 0 reproduces the
one-dimensional eigensolver.  Fibers are solved on the path of `eigen`:
subset eigensolves for band structures along a k path, and for the
Brillouin-zone convergence table also the double-double refinement,
whose residual sums over the offsets of V.

A potential stores its coefficients as one dense complex array on the
symmetric integer box [-reach, reach]^d.  The fiber matrix takes all of
V_{G-G'} in one gather from that box, zero-padded to the basis's
difference range, and keeps the arithmetic of the entrywise definition,
so it is bit-identical to an entry-by-entry assembly.  The basis
enumeration tests the whole integer box at once and settles the points
within rounding of the sphere with the single-point test, so it selects
the same planewaves in the same order as a point-by-point scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import InvalidParameterError, PreconditionError
from .eigen import ErrorTable, error_table, fiber_spectrum
from .extended import Gather
from .fourier import FourierSeries1D


@dataclass(frozen=True)
class Lattice:
    """Bravais lattice spanned by the rows of `basis` (d x d, invertible)."""

    basis: np.ndarray

    def __post_init__(self):
        arr = np.array(self.basis, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidParameterError("basis must be a square matrix of row vectors")
        d = arr.shape[0]
        if not 1 <= d <= 3:
            raise InvalidParameterError("dimension must be 1, 2 or 3")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("basis vectors must be finite")
        if abs(np.linalg.det(arr)) < 1e-12 * max(1.0, np.max(np.abs(arr)) ** d):
            raise InvalidParameterError("basis vectors must be linearly independent")
        arr.flags.writeable = False
        object.__setattr__(self, "basis", arr)

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    @property
    def unit_cell_volume(self) -> float:
        return float(abs(np.linalg.det(self.basis)))


def reciprocal(lattice: Lattice) -> Lattice:
    """Reciprocal lattice: rows b_n with a_m . b_n = 2*pi*delta_{mn}."""
    return Lattice(2.0 * np.pi * np.linalg.inv(lattice.basis).T)


def basis_box(lattice: Lattice, reach: float) -> list[int]:
    """Half-widths b_n of the integer box of every G with |G| <= reach, as
    |m_n| = |G . a_n| / (2*pi) <= |G| |a_n| / (2*pi); OverflowError past floats."""
    return [math.floor(reach * float(np.linalg.norm(a)) / (2.0 * np.pi)) + 1
            for a in lattice.basis]


@dataclass(frozen=True)
class PlanewaveBasis:
    """Wavevector set {G : |G + k| <= cutoff}, ordered lexicographically by
    integer coordinates for reproducible matrices."""

    lattice: Lattice
    k_point: np.ndarray
    cutoff: float
    int_coords: np.ndarray   # (n, d) integer coordinates in the reciprocal basis
    wavevectors: np.ndarray  # (n, d) cartesian G vectors

    @property
    def dimension(self) -> int:
        return self.int_coords.shape[0]


def basis_set(lattice: Lattice, k_point, cutoff: float) -> PlanewaveBasis:
    """Enumerate the reciprocal-lattice vectors with |G + k| <= cutoff."""
    if not (cutoff > 0 and math.isfinite(cutoff)):
        raise InvalidParameterError("cutoff must be positive and finite")
    k = np.asarray(k_point, dtype=float)
    d = lattice.dimension
    if k.shape != (d,):
        raise InvalidParameterError(f"k point must have {d} components")
    if not np.all(np.isfinite(k)):
        raise InvalidParameterError(f"k point {k.tolist()} must be finite")
    recip = reciprocal(lattice)
    box = basis_box(lattice, cutoff + float(np.linalg.norm(k)))
    # the box in lexicographic order, last coordinate fastest
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in box], indexing="ij")
    candidates = np.stack(grids, axis=-1).reshape(-1, d)
    norms = np.linalg.norm(candidates @ recip.basis + k, axis=1)
    inside = norms <= cutoff
    # A batched product may round differently from a single row's, so the
    # points within rounding of the sphere are decided by the per-row test.
    slack = 1e-10 * (cutoff + np.abs(candidates) @ np.abs(recip.basis).sum(axis=1)
                     + np.abs(k).sum())
    for i in np.flatnonzero(np.abs(norms - cutoff) <= slack):
        G = candidates[i].astype(float) @ recip.basis
        inside[i] = np.linalg.norm(G + k) <= cutoff
    ints = candidates[inside]
    return PlanewaveBasis(
        lattice=lattice,
        k_point=k,
        cutoff=float(cutoff),
        int_coords=ints,
        wavevectors=ints.astype(float) @ recip.basis,
    )


class FourierSeriesD:
    """Lattice-periodic function with coefficients over the reciprocal
    lattice, for the cell-normalized planewaves e_G = exp(i G.x)/sqrt(|cell|).

    Built from a map {integer tuple: coefficient} and stored as the dense
    complex array `dense` on the box [-reach, reach]^d, where reach is the
    largest |component| of a key; dense[m + reach] is the coefficient of
    the integer coordinates m.  Coefficients not given, inside or outside
    the box, are exactly zero."""

    def __init__(self, lattice: Lattice, coeffs: dict):
        self.lattice = lattice
        d = lattice.dimension
        entries = {tuple(int(i) for i in key): complex(val)
                   for key, val in coeffs.items()}
        for key in entries:
            if len(key) != d:
                raise InvalidParameterError(
                    f"coefficient key {key} does not match dimension")
        keys = np.array(list(entries), dtype=int).reshape(len(entries), d)
        self.reach = int(np.abs(keys).max(initial=0))
        dense = np.zeros((2 * self.reach + 1,) * d, dtype=complex)
        dense[tuple((keys + self.reach).T)] = list(entries.values())
        dense.flags.writeable = False
        self.dense = dense

    @cached_property
    def hermitian(self) -> np.ndarray:
        """(c_G + conj c_{-G}) / 2: both triangles of a fiber hold these."""
        return 0.5 * (self.dense + np.conj(np.flip(self.dense)))

    def coefficient(self, key) -> complex:
        idx = tuple(int(i) + self.reach for i in key)
        if len(idx) != self.dense.ndim or not all(0 <= i <= 2 * self.reach for i in idx):
            return 0.0 + 0.0j
        return complex(self.dense[idx])

    def is_real_valued(self, tol: float = 1e-12) -> bool:
        """Whether c_{-G} = conj(c_G) for all G, to within tol * (1 + max |c|)."""
        scale = 1.0 + float(np.abs(self.dense).max())
        # flipping every axis of the symmetric box maps G to -G
        mismatch = np.abs(self.dense - np.conj(np.flip(self.dense)))
        return not np.any(mismatch > tol * scale)


def series1d_to_lattice(u: FourierSeries1D) -> tuple[Lattice, FourierSeriesD]:
    """Embed a 2*pi-periodic 1D series on the lattice 2*pi*Z (identical
    normalization, so coefficients carry over unchanged)."""
    lattice = Lattice(np.array([[2.0 * np.pi]]))
    coeffs = {(int(k),): c for k, c in zip(u.wavenumbers(), u.coeffs) if c != 0.0}
    return lattice, FourierSeriesD(lattice, coeffs)


def assemble_bloch(V: FourierSeriesD, basis: PlanewaveBasis) -> np.ndarray:
    """Hermitian fiber |G+k|^2 delta + V_{G-G'}/sqrt(|cell|), V as V.hermitian."""
    if not V.is_real_valued():
        raise PreconditionError("potential must be real-valued")
    d = basis.lattice.dimension
    scale = 1.0 / math.sqrt(basis.lattice.unit_cell_volume)
    ints = basis.int_coords
    # V's box padded with zeros to hold every difference G - G' of the basis;
    # in flat C order the offset of G - G' is flat(G) - flat(G') + flat(reach).
    reach = max(V.reach, 2 * int(np.abs(ints).max(initial=0)))
    padded = np.zeros((2 * reach + 1,) * d, dtype=complex)
    padded[(slice(reach - V.reach, reach + V.reach + 1),) * d] = V.hermitian
    strides = (2 * reach + 1) ** np.arange(d - 1, -1, -1)
    flat = ints @ strides
    H = padded.ravel()[np.subtract.outer(flat + reach * int(strides.sum()), flat)]
    H *= scale
    H[np.tri(len(flat), k=-1, dtype=bool)] = 0.0
    # a new array, not in place: numpy lays the sum out in C or Fortran
    # order by size, and the later matvecs round according to that layout
    H = H + np.conj(H.T)
    shifted = basis.wavevectors + basis.k_point
    H[np.diag_indices_from(H)] = np.sum(shifted * shifted, axis=1) \
        + scale * np.real(V.coefficient((0,) * d))
    return H


def _coupling(V: FourierSeriesD, basis: PlanewaveBasis) -> Gather:
    """assemble_bloch's fiber off its diagonal: row i couples to G_i - D by
    V_D / sqrt(|cell|), rounded as there, for each offset D != 0 of V."""
    d, n, ints = basis.lattice.dimension, basis.dimension, basis.int_coords
    reach = int(np.abs(ints).max(initial=0))
    coef = V.hermitian * (1.0 / math.sqrt(basis.lattice.unit_cell_volume))
    offsets = np.argwhere(coef != 0) - V.reach
    offsets = offsets[np.all(np.abs(offsets) <= 2 * reach, axis=1)
                      & np.any(offsets != 0, axis=1)]
    # planewave indices on the box [-3 reach, 3 reach]^d of every G_i - D,
    # n where a point is not in the basis
    strides = (6 * reach + 1) ** np.arange(d - 1, -1, -1)
    index = np.full((6 * reach + 1) ** d, n)
    flat = (ints + 3 * reach) @ strides
    index[flat] = np.arange(n)
    return Gather(coef[tuple((offsets + V.reach).T)], index, flat, offsets @ strides)


def _fiber(V: FourierSeriesD, k: np.ndarray, cutoff: float, n_bands: int):
    """The lowest n_bands eigenvalues of the fiber at k on the planewaves
    within cutoff, and the fiber as an operator, from eigen.fiber_spectrum."""
    basis = basis_set(V.lattice, k, cutoff)
    if basis.dimension < n_bands:
        raise InvalidParameterError(
            f"basis at k = {k.tolist()}, cutoff {cutoff} has only {basis.dimension} "
            f"planewaves; cannot produce {n_bands} bands")
    return fiber_spectrum(assemble_bloch(V, basis), partial(_coupling, V, basis), n_bands)


@dataclass(frozen=True)
class BandStructure:
    path_parameter: np.ndarray
    bands: np.ndarray        # (n_k, n_bands), ascending along each row


def band_structure(V: FourierSeriesD, k_path, cutoff: float,
                   n_bands: int) -> BandStructure:
    """Lowest n_bands Bloch eigenvalues at each k of the path."""
    k_path = np.atleast_2d(np.asarray(k_path, dtype=float))
    bands = [_fiber(V, k, cutoff, n_bands)[0] for k in k_path]
    deltas = np.linalg.norm(np.diff(k_path, axis=0), axis=1)
    param = np.concatenate([[0.0], np.cumsum(deltas)])
    return BandStructure(path_parameter=param, bands=np.asarray(bands))


def bz_convergence(V: FourierSeriesD, k_samples, cutoffs, reference_cutoff: float,
                   band: int) -> ErrorTable:
    """eigen.error_table of band `band` (1-based) over the k samples."""
    return error_table(lambda k, n, _: _fiber(V, k, n, band)[1],
                       np.atleast_2d(np.asarray(k_samples, dtype=float)),
                       cutoffs, reference_cutoff, band)


def gaussian_potential(lattice: Lattice, centers, widths, amplitudes,
                       cutoff: float) -> FourierSeriesD:
    """Periodic sum of Gaussians amplitude*exp(-|x - center - R|^2/(2*width^2)).

    Coefficients come from the closed-form transform of the periodized
    Gaussian: amplitude * (2*pi*width^2)^(d/2) / sqrt(|cell|)
    * exp(-width^2 |G|^2 / 2) * exp(-i G.center), truncated at |G| <= cutoff.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    if np.any(widths <= 0):
        raise InvalidParameterError("widths must be positive")
    if not (len(centers) == len(widths) == len(amplitudes)):
        raise InvalidParameterError("centers, widths, amplitudes must align")
    d = lattice.dimension
    if centers.ndim != 2 or centers.shape[1] != d:
        raise InvalidParameterError(f"each center must have {d} components")
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


def bz_sample_grid(lattice: Lattice, n_per_dim: int) -> np.ndarray:
    """Uniform Monkhorst-Pack-style grid mapped into the first Brillouin
    zone (the Voronoi cell of the reciprocal lattice around the origin)."""
    if n_per_dim < 1:
        raise InvalidParameterError("n_per_dim must be positive")
    recip = reciprocal(lattice)
    d = lattice.dimension
    fractions = [(2.0 * r - n_per_dim + 1.0) / (2.0 * n_per_dim)
                 for r in range(n_per_dim)]
    shells = np.array(list(itertools.product([-1, 0, 1], repeat=d)), dtype=float)
    shifts = shells @ recip.basis
    points = []
    for frac in itertools.product(fractions, repeat=d):
        k = np.asarray(frac) @ recip.basis
        # reduce into the Voronoi cell: subtract the nearest lattice point
        dists = np.linalg.norm(k - shifts, axis=1)
        k = k - shifts[int(np.argmin(dists))]
        points.append(k)
    return np.asarray(points)
