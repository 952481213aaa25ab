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

An antiunitary symmetry that fixes k makes the fiber a real symmetric
matrix, solved at a third of the cost of the complex one.  Inversion
about a center c of V does so at every k, in the planewaves
exp(-i G.c) e_G; without a center, time reversal does so at a k with 2k
in the reciprocal lattice (such as Gamma, X and M), in the cosine and
sine combinations of e_G and e_{-G-2k}, which at d = 1, k = 0 are the 1D
basis of `galerkin`.  Any other fiber stays complex.  The refinement's
diagonal and off-diagonal part stay those of the complex fiber.

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
from .eigen import ErrorTable, error_table, fiber_operator
from .extended import Gather
from .fourier import FourierSeries1D
from .galerkin import SQRT2

# Relative size below which a symmetry counts as exact: 2k off the
# reciprocal lattice, or an imaginary part of V about an inversion center.
_ROUNDING = 2.0**-40


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

    def _about(self, t: np.ndarray):
        """Re(V_D exp(i D . t)) on the box, made exactly even: V's
        coefficients about the point c with b_n . c = t_n for the
        reciprocal basis vectors b_n, when each is real to _ROUNDING of
        the largest, so that c is an inversion center of the real V;
        None otherwise."""
        offsets = [axis - self.reach for axis in np.indices(self.dense.shape)]
        about = self.hermitian * np.exp(1j * sum(tn * dn for tn, dn in zip(t, offsets)))
        tol = _ROUNDING * float(np.abs(self.hermitian).max(initial=0.0))
        if np.any(np.abs(about.imag) > tol):
            return None
        return 0.5 * (about.real + np.flip(about.real))

    @cached_property
    def _inversion(self):
        """(t, _about(t)) for an inversion center of V, or None if it has
        none.  The candidates are c = 0, then the centers that make V
        real at every b_n (defined up to half lattice vectors)."""
        d, reach = self.lattice.dimension, self.reach
        candidates = [np.zeros(d)]
        if reach:
            unit = np.full((d, d), reach) + np.eye(d, dtype=int)
            angle = -np.angle(self.hermitian[tuple(unit.T)])
            candidates += [angle + np.pi * np.array(m)
                           for m in itertools.product((0, 1), repeat=d)]
        for t in candidates:
            about = self._about(t)
            if about is not None:
                return t, about
        return None

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


def _differences(box: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 shift: np.ndarray | None = None) -> np.ndarray:
    """box[m_i - m_j] for the integer coordinates m_i of `rows` and m_j of
    `cols`, or box[m_i + m_j + shift] when a shift is given, from the
    values of box on its symmetric integer box, zero beyond it."""
    d, half = rows.shape[1], box.shape[0] // 2
    extent = int(np.abs(rows).max(initial=0)) + int(np.abs(cols).max(initial=0))
    if shift is not None:
        extent += int(np.abs(shift).max())
    # box padded with zeros to hold every index; in flat C order the
    # offset of m is flat(m) + flat(reach)
    reach = max(half, extent)
    padded = np.zeros((2 * reach + 1,) * d, dtype=box.dtype)
    padded[(slice(reach - half, reach + half + 1),) * d] = box
    strides = (2 * reach + 1) ** np.arange(d - 1, -1, -1)
    first = rows @ strides + reach * int(strides.sum())
    if shift is None:
        return padded.ravel()[np.subtract.outer(first, cols @ strides)]
    return padded.ravel()[np.add.outer(first + shift @ strides, cols @ strides)]


def _diagonal(V: FourierSeriesD, basis: PlanewaveBasis) -> np.ndarray:
    """The fiber's diagonal |G + k|^2 + V_0 / sqrt(|cell|)."""
    shifted = basis.wavevectors + basis.k_point
    return np.sum(shifted * shifted, axis=1) \
        + 1.0 / math.sqrt(basis.lattice.unit_cell_volume) \
        * np.real(V.coefficient((0,) * basis.lattice.dimension))


def assemble_bloch(V: FourierSeriesD, basis: PlanewaveBasis) -> np.ndarray:
    """Hermitian fiber |G+k|^2 delta + V_{G-G'}/sqrt(|cell|), V as V.hermitian."""
    if not V.is_real_valued():
        raise PreconditionError("potential must be real-valued")
    H = _differences(V.hermitian, basis.int_coords, basis.int_coords)
    H *= 1.0 / math.sqrt(basis.lattice.unit_cell_volume)
    H[np.tri(len(H), k=-1, dtype=bool)] = 0.0
    # a new array, not in place: numpy lays the sum out in C or Fortran
    # order by size, and the later matvecs round according to that layout
    H = H + np.conj(H.T)
    H[np.diag_indices_from(H)] = _diagonal(V, basis)
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


@dataclass(frozen=True)
class _Rotation:
    """The orthonormal basis Q of a fiber block as planewave coefficients,
    with at most two nonzeros per column: for j < pairs, column j is
    (e_j + e_{n-1-j}) / sqrt(2) and column n - pairs + j is
    i (e_j - e_{n-1-j}) / sqrt(2); a middle planewave paired with itself
    is its own column; then each row is multiplied by its phase.  form
    names the symmetry that makes the block real."""

    form: str
    phase: np.ndarray | None = None  # one unit phase per planewave; None is 1
    pairs: int = 0

    def to_modes(self, q: np.ndarray) -> np.ndarray:
        """Q q: columns in the real basis as planewave coefficients."""
        if self.pairs:
            p, n = self.pairs, len(q)
            c, s = q[:p] / SQRT2, 1j * q[n - p:] / SQRT2
            u = np.empty(q.shape, dtype=complex)
            u[:p], u[n - p:], u[p:n - p] = c + s, (c - s)[::-1], q[p:n - p]
            q = u
        return q if self.phase is None else self.phase[:, None] * q

    def from_modes(self, r: np.ndarray) -> np.ndarray:
        """Q^H r, the adjoint of to_modes."""
        if self.phase is not None:
            r = np.conj(self.phase)[:, None] * r
        if not self.pairs:
            return r
        p, n = self.pairs, len(r)
        top, bottom = r[:p], r[::-1][:p]  # each planewave and its partner
        return np.concatenate(((top + bottom) / SQRT2, r[p:n - p],
                               -1j * (top - bottom) / SQRT2))


def _time_reversal(V: FourierSeriesD, basis: PlanewaveBasis, diag: np.ndarray):
    """A callable that assembles the fiber as a real symmetric block, and
    its rotation, when 2k is a reciprocal lattice vector K and the basis is
    closed under m -> -m - K; None otherwise.  That map reverses the
    lexicographic order of the basis, so planewave j pairs with n - 1 - j,
    and the middle one of an odd basis, m = -K/2, with itself.  With v_D =
    V_D / sqrt(|cell|), the pair sum S = m_i + m_j + K and the difference
    D = m_i - m_j, the cosine and sine columns couple by Re v_D + Re v_S,
    Re v_D - Re v_S and Im v_S - Im v_D (times sqrt(2) from the
    self-paired column); a pair's two diagonal entries share the
    planewave's |G + k|^2 + v_0."""
    twice_k = basis.lattice.basis @ basis.k_point / np.pi  # 2k in the b_n
    K = np.rint(twice_k).astype(int)
    ints = basis.int_coords
    if np.any(np.abs(twice_k - K) > _ROUNDING) \
            or not np.array_equal(ints[::-1], -ints - K):
        return None
    n, p = len(ints), len(ints) // 2

    def build():
        heads = ints[:n - p]  # the pairs' first planewaves, then the self-paired one
        coef = V.hermitian * (1.0 / math.sqrt(basis.lattice.unit_cell_volume))
        v_d = _differences(coef, heads, heads)
        v_s = _differences(coef, heads, heads, K)
        cos = v_d.real + v_s.real
        sin = (v_d.real - v_s.real)[:p, :p]
        mixed = (v_s.imag - v_d.imag)[:, :p]
        at = np.arange(p)
        cos[at, at] = diag[:p] + v_s.real[at, at]
        sin[at, at] = diag[:p] - v_s.real[at, at]
        if n > 2 * p:
            cos[p, :p] = cos[:p, p] = SQRT2 * v_d.real[p, :p]
            cos[p, p] = diag[p]
            mixed[p] = -SQRT2 * v_d.imag[p, :p]
        return np.block([[cos, mixed], [mixed.T, sin]])
    return build, _Rotation("time-reversal", pairs=p)


def _form(V: FourierSeriesD, basis: PlanewaveBasis, diag: np.ndarray):
    """A callable that assembles the fiber block, and its _Rotation.  Real
    and symmetric about an inversion center c of V at any k, in the
    planewaves exp(-i G . c) e_G; real and symmetric by time reversal at a
    k with 2k in the reciprocal lattice; otherwise the complex Hermitian
    fiber itself."""
    inversion = V._inversion
    if inversion is None:
        return _time_reversal(V, basis, diag) \
            or (partial(assemble_bloch, V, basis), _Rotation("complex"))
    t, about = inversion

    def build():
        block = _differences(about, basis.int_coords, basis.int_coords)
        block *= 1.0 / math.sqrt(basis.lattice.unit_cell_volume)
        block[np.diag_indices_from(block)] = diag
        return block
    phase = np.exp(-1j * (basis.int_coords @ t)) if np.any(t) else None
    return build, _Rotation("inversion", phase)


def _fiber(V: FourierSeriesD, k: np.ndarray, cutoff: float, n_bands: int):
    """The fiber at k on the planewaves within cutoff as an operator of
    eigen.fiber_operator, with its lowest n_bands eigenvalues."""
    basis = basis_set(V.lattice, k, cutoff)
    if basis.dimension < n_bands:
        raise InvalidParameterError(
            f"basis at k = {k.tolist()}, cutoff {cutoff} has only {basis.dimension} "
            f"planewaves; cannot produce {n_bands} bands")
    if not V.is_real_valued():
        raise PreconditionError("potential must be real-valued")
    diag = _diagonal(V, basis)
    return fiber_operator(*_form(V, basis, diag), diag, partial(_coupling, V, basis),
                          basis.int_coords, n_bands)


@dataclass(frozen=True)
class BandStructure:
    path_parameter: np.ndarray
    bands: np.ndarray        # (n_k, n_bands), ascending along each row


def band_structure(V: FourierSeriesD, k_path, cutoff: float,
                   n_bands: int) -> BandStructure:
    """Lowest n_bands Bloch eigenvalues at each k of the path."""
    k_path = np.atleast_2d(np.asarray(k_path, dtype=float))
    bands = [_fiber(V, k, cutoff, n_bands).eigenvalues for k in k_path]
    deltas = np.linalg.norm(np.diff(k_path, axis=0), axis=1)
    param = np.concatenate([[0.0], np.cumsum(deltas)])
    return BandStructure(path_parameter=param, bands=np.asarray(bands))


def bz_convergence(V: FourierSeriesD, k_samples, cutoffs, reference_cutoff: float,
                   band: int) -> ErrorTable:
    """eigen.error_table of band `band` (1-based) over the k samples.  A
    pilot's basis at k is the part of the reference's within its cutoff."""
    return error_table(lambda k, n, _: _fiber(V, k, n, band),
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
    G = basis.wavevectors
    # one dot product per G, batched: these round as G @ G and G @ x0 do
    # under every BLAS kernel, where a matrix-vector product need not
    g2 = np.matmul(G[:, None, :], G[:, :, None])[:, 0, 0]
    total = np.zeros(len(G), dtype=complex)
    for x0, sigma, amp in zip(centers, widths, amplitudes):
        # math.exp as before: numpy's exp need not round as the C library's
        decay = [math.exp(v) for v in (-0.5 * sigma**2 * g2).tolist()]
        total += (amp * (2.0 * np.pi * sigma**2) ** (d / 2.0) / math.sqrt(vol)
                  * np.array(decay)
                  * np.exp(-1j * np.matmul(G[:, None, :], x0[:, None])[:, 0, 0]))
    return FourierSeriesD(lattice, dict(zip(map(tuple, basis.int_coords.tolist()),
                                            total.tolist())))


def bz_sample_grid(lattice: Lattice, n_per_dim: int) -> np.ndarray:
    """Uniform Monkhorst-Pack-style grid mapped into the first Brillouin
    zone (the Voronoi cell of the reciprocal lattice around the origin),
    the last coordinate fastest."""
    if n_per_dim < 1:
        raise InvalidParameterError("n_per_dim must be positive")
    recip = reciprocal(lattice)
    d = lattice.dimension
    fractions = (2.0 * np.arange(n_per_dim) - n_per_dim + 1.0) / (2.0 * n_per_dim)
    grid = np.stack(np.meshgrid(*[fractions] * d, indexing="ij"), axis=-1).reshape(-1, d)
    # one matrix-vector product per component: these round as a single
    # point's vector-matrix product does under every BLAS kernel, where a
    # matrix-matrix product need not
    k = np.column_stack([grid @ recip.basis[:, j] for j in range(d)])
    shells = np.array(list(itertools.product([-1, 0, 1], repeat=d)), dtype=float)
    shifts = shells @ recip.basis
    # reduce into the Voronoi cell: subtract the nearest lattice point,
    # the first of the shells on a tie
    nearest, best = np.zeros(len(k), dtype=int), np.full(len(k), np.inf)
    for i, shift in enumerate(shifts):
        dist = np.linalg.norm(k - shift, axis=1)
        closer = dist < best
        nearest[closer], best[closer] = i, dist[closer]
    return k - shifts[nearest]
