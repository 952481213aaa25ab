"""Bravais lattices, planewave bases and Bloch band structures in d dimensions.

The Bloch fiber at quasimomentum k is the operator (-i*grad + k)^2 + V
on lattice-periodic functions; its Galerkin matrix on the planewave set
{G in the reciprocal lattice : |G + k| <= N} has entries

    |G + k|^2 delta_{GG'} + V_{G-G'} / sqrt(|cell|).

_cuts is the one operator constructor: a 1D potential is the d = 1 case
on the lattice 2*pi*Z at k = 0 (series1d_to_lattice).  Fibers are solved
on the path of `eigen`: subset eigensolves, and for convergence tables
also the double-double refinement, whose residual sums over the offsets
of V (the Toeplitz band at d = 1).

An antiunitary symmetry that fixes k makes the fiber real symmetric,
solved at a third of the cost of the complex one.  Inversion about a
center c of V does so at every k, in the planewaves exp(-i G.c) e_G;
time reversal does so at a k with 2k in the reciprocal lattice (such as
Gamma, X and M), in the cosine and sine combinations of e_G and
e_{-G-2k}.  Where both hold, the real fiber splits into an even and an
odd block, at d = 1, k = 0 the classical cosine and sine blocks.  One
builder (_paired) forms both paired forms, in one order from the middle
of the basis outward at every d.  Any other fiber stays complex.  The
refinement's diagonal and off-diagonal part stay those of the complex
fiber.

A potential stores its coefficients as one dense complex array on the
symmetric integer box [-reach, reach]^d.  The fiber matrix takes all of
V_{G-G'} in one gather from that box, zero-padded to the basis's
difference range, and keeps the arithmetic of the entrywise definition,
so it is bit-identical to an entry-by-entry assembly.  The basis
enumeration tests the whole integer box at once and settles the points
within rounding of the sphere with the single-point test, so it selects
the same planewaves in the same order as a point-by-point scan.  The same
test cuts a smaller cutoff's basis from a larger one: a study enumerates
one basis per k and solves each cutoff on a cut of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, PreconditionError
from .extended import Band, Gather
from .fourier import FourierSeries1D
from .galerkin import SQRT2, rayleigh_polish

# Relative size below which 2k off the reciprocal lattice counts as zero.
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

    @cached_property
    def unit_cell_volume(self) -> float:
        return float(abs(np.linalg.det(self.basis)))

    @cached_property
    def _reciprocal(self) -> Lattice:
        return Lattice(2.0 * np.pi * np.linalg.inv(self.basis).T)


def reciprocal(lattice: Lattice) -> Lattice:
    """Reciprocal lattice: rows b_n with a_m . b_n = 2*pi*delta_{mn}."""
    return lattice._reciprocal


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

    def within(self, cutoff: float) -> tuple[PlanewaveBasis, np.ndarray]:
        """Its planewaves with |G + k| <= cutoff, in its order, and their
        rows in it.  The points within rounding of the sphere take the
        per-row test, where a batched product may round unlike one row's,
        so the cut is basis_set's at that cutoff from any basis holding it."""
        if cutoff >= self.cutoff:
            return self, np.arange(self.dimension)
        recip, k, ints = reciprocal(self.lattice).basis, self.k_point, self.int_coords
        norms = np.linalg.norm(self.wavevectors + k, axis=1)
        inside = norms <= cutoff
        slack = 1e-10 * (cutoff + np.abs(ints) @ np.abs(recip).sum(axis=1)
                         + np.abs(k).sum())
        for i in np.flatnonzero(np.abs(norms - cutoff) <= slack):
            inside[i] = np.linalg.norm(ints[i].astype(float) @ recip + k) <= cutoff
        rows = np.flatnonzero(inside)
        cut = ints[rows]
        return PlanewaveBasis(self.lattice, k, float(cutoff), cut,
                              cut.astype(float) @ recip), rows


def basis_set(lattice: Lattice, k_point, cutoff: float) -> PlanewaveBasis:
    """The reciprocal-lattice vectors with |G + k| <= cutoff: a cut of the box."""
    if not (cutoff >= 0 and math.isfinite(cutoff)):
        raise InvalidParameterError("cutoff must be nonnegative and finite")
    k = np.asarray(k_point, dtype=float)
    d = lattice.dimension
    if k.shape != (d,):
        raise InvalidParameterError(f"k point must have {d} components")
    if not np.all(np.isfinite(k)):
        raise InvalidParameterError(f"k point {k.tolist()} must be finite")
    box = basis_box(lattice, cutoff + float(np.linalg.norm(k)))
    # the box in lexicographic order, last coordinate fastest
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in box], indexing="ij")
    candidates = np.stack(grids, axis=-1).reshape(-1, d)
    return PlanewaveBasis(lattice, k, math.inf, candidates,
                          candidates @ reciprocal(lattice).basis).within(cutoff)[0]


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
        for key in coeffs:
            if len(key) != d:
                raise InvalidParameterError(
                    f"coefficient key {key} does not match dimension")
        keys = np.array(list(coeffs), dtype=int).reshape(len(coeffs), d)
        self.reach = int(np.abs(keys).max(initial=0))
        dense = np.zeros((2 * self.reach + 1,) * d, dtype=complex)
        dense[tuple((keys + self.reach).T)] = np.array(list(coeffs.values()), dtype=complex)
        dense.flags.writeable = False
        self.dense = dense

    @cached_property
    def hermitian(self) -> np.ndarray:
        """(c_G + conj c_{-G}) / 2, which both triangles of a fiber hold, so
        a V real to 1e-10 of 1 + max |c| passes, as in assemble_dense;
        checked once per V: PreconditionError for any other V or overflow."""
        if not self.is_real_valued():
            raise PreconditionError("potential must be real-valued")
        with np.errstate(over="ignore", invalid="ignore"):
            hermitian = 0.5 * (self.dense + np.conj(np.flip(self.dense)))
        if not np.all(np.isfinite(hermitian)):
            raise PreconditionError("potential coefficients overflow when symmetrized")
        return hermitian

    def coefficient(self, key) -> complex:
        idx = tuple(int(i) + self.reach for i in key)
        if len(idx) != self.dense.ndim or not all(0 <= i <= 2 * self.reach for i in idx):
            return 0.0 + 0.0j
        return complex(self.dense[idx])

    def _about(self, t: np.ndarray):
        """Re(V_D exp(i D . t)) on the box, made exactly even: V's
        coefficients about the point c with b_n . c = t_n for the
        reciprocal basis vectors b_n, when each is real to 2^-46 (64 ulps)
        of the largest, so that c is an inversion center of the real V;
        None otherwise.  The phases exp(-i G . c) of a center some cells
        out leave about 30 ulps."""
        offsets = [axis - self.reach for axis in np.indices(self.dense.shape)]
        about = self.hermitian * np.exp(1j * sum(tn * dn for tn, dn in zip(t, offsets)))
        tol = 2.0**-46 * float(np.abs(self.hermitian).max(initial=0.0))
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

    def is_real_valued(self) -> bool:
        """Whether c_{-G} = conj(c_G) for all G, to within 1e-10 * (1 + max |c|)."""
        scale = 1.0 + float(np.abs(self.dense).max())
        # flipping every axis of the symmetric box maps G to -G
        mismatch = np.abs(self.dense - np.conj(np.flip(self.dense)))
        return not np.any(mismatch > 1e-10 * scale)


def series1d_to_lattice(u: FourierSeries1D) -> tuple[Lattice, FourierSeriesD]:
    """Embed a 2*pi-periodic 1D series on the lattice 2*pi*Z (identical
    normalization, so coefficients carry over unchanged)."""
    lattice = Lattice(np.array([[2.0 * np.pi]]))
    nonzero = np.flatnonzero(u.coeffs)
    keys = [(k,) for k in (nonzero - u.cutoff).tolist()]
    return lattice, FourierSeriesD(lattice, dict(zip(keys, u.coeffs[nonzero].tolist())))


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


def _kinetic(basis: PlanewaveBasis) -> np.ndarray:
    """|G + k|^2 for each planewave of the basis."""
    shifted = basis.wavevectors + basis.k_point
    return np.sum(shifted * shifted, axis=1)


def _diagonal(V: FourierSeriesD, basis: PlanewaveBasis) -> np.ndarray:
    """The fiber's diagonal |G + k|^2 + V_0 / sqrt(|cell|)."""
    return _kinetic(basis) + 1.0 / math.sqrt(basis.lattice.unit_cell_volume) \
        * np.real(V.coefficient((0,) * basis.lattice.dimension))


def assemble_bloch(V: FourierSeriesD, basis: PlanewaveBasis) -> np.ndarray:
    """Hermitian fiber |G+k|^2 delta + V_{G-G'}/sqrt(|cell|), V as V.hermitian."""
    H = _differences(V.hermitian, basis.int_coords, basis.int_coords)
    H *= 1.0 / math.sqrt(basis.lattice.unit_cell_volume)
    H[np.tri(len(H), k=-1, dtype=bool)] = 0.0
    # a new array, not in place: numpy lays the sum out in C or Fortran
    # order by size, and the later matvecs round according to that layout
    H = H + np.conj(H.T)
    H[np.diag_indices_from(H)] = _diagonal(V, basis)
    return H


def _coupling(V: FourierSeriesD, basis: PlanewaveBasis) -> Band | Gather:
    """assemble_bloch's fiber off its diagonal: row i couples to G_i - D by
    V_D / sqrt(|cell|), rounded as there, for each offset D != 0 of V.  A
    d = 1 basis is a run of consecutive integers, whose offsets are the
    diagonals of a Toeplitz band: its windows cost less than an index."""
    d, n, ints = basis.lattice.dimension, basis.dimension, basis.int_coords
    coef = V.hermitian * (1.0 / math.sqrt(basis.lattice.unit_cell_volume))
    if d == 1:
        return Band(coef[V.reach + 1:], n)
    reach = int(np.abs(ints).max(initial=0))
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
    """The orthonormal basis Q of a fiber block as planewave coefficients:
    each planewave times its phase.  form names the symmetry that makes
    the block real."""

    form: str
    phase: np.ndarray | None = None  # one unit phase per planewave; None is 1

    def to_modes(self, q: np.ndarray) -> np.ndarray:
        """Q q: columns in the block's basis as planewave coefficients."""
        return q if self.phase is None else self.phase[:, None] * q

    def from_modes(self, r: np.ndarray) -> np.ndarray:
        """Q^H r, the adjoint of to_modes."""
        return r if self.phase is None else np.conj(self.phase)[:, None] * r


@dataclass(frozen=True)
class _Outward(_Rotation):
    """_pairing's columns times the phase, from the middle of the basis
    outward: the self-paired planewave, if any, then (e_j + e_{n-1-j}) /
    sqrt(2) for j = pairs - 1, ..., 0, then i (e_j - e_{n-1-j}) / sqrt(2).
    At d = 1 that grades a block by |G + k|, which keeps eigh's lowest
    eigenvectors accurate entry by entry.  Real columns are real functions
    (about the center, with a phase), so from_modes keeps the real part of
    the adjoint, all that a real block can correct."""

    pairs: int = 0

    def to_modes(self, q: np.ndarray) -> np.ndarray:
        """Q q for real columns q: u_m = q_0 at the middle and (q_c -+ i
        q_s) / sqrt(2) at a pair's second and first planewave."""
        p, n = self.pairs, len(q)
        c, s = q[n - 2 * p:n - p] / SQRT2, q[n - p:] / SQRT2
        u = np.empty(q.shape, dtype=complex)
        u.real[p:n - p], u.imag[p:n - p] = q[:n - 2 * p], 0.0
        u.real[n - p:], u.imag[n - p:] = c, -s
        u.real[:p], u.imag[:p] = c[::-1], s[::-1]
        return super().to_modes(u)

    def from_modes(self, r: np.ndarray) -> np.ndarray:
        """The real part of Q^H r."""
        r = super().from_modes(r)
        p, n = self.pairs, len(r)
        up, down = r[n - p:], r[:p][::-1]  # each pair's second and first planewave
        return np.concatenate((r[p:n - p].real, (up.real + down.real) / SQRT2,
                               (down.imag - up.imag) / SQRT2))


def _pairing(basis: PlanewaveBasis):
    """(K, pairs) when 2k is a reciprocal lattice vector K and the basis is
    closed under m -> -m - K, which time reversal maps k to; None
    otherwise.  That map reverses the lexicographic order of the basis, so
    planewave j pairs with n - 1 - j, and the middle one of an odd basis,
    m = -K/2, with itself."""
    twice_k = basis.lattice.basis @ basis.k_point / np.pi  # 2k in the b_n
    K = np.rint(twice_k).astype(int)
    ints = basis.int_coords
    if np.any(np.abs(twice_k - K) > _ROUNDING) \
            or not np.array_equal(ints[::-1], -ints - K):
        return None
    return K, len(ints) // 2


def _paired(coeffs: np.ndarray, basis: PlanewaveBasis, diag: np.ndarray, K, p: int):
    """A callable that assembles the fiber in _Outward's columns for the
    pairing (K, p) and V's coefficients `coeffs` on its box: V_D about an
    inversion center (real and even), or V.hermitian.  With v_D = V_D /
    sqrt(|cell|), the sum S = m_i + m_j + K and difference D = m_i - m_j of
    two pairs' first planewaves, the cosine and sine columns couple by
    Toeplitz plus and minus Hankel terms

        even  (v_D + v_S) + |G + k|^2 delta   (self-paired row sqrt(2) v_D,
                                               diagonal |G + k|^2 + v_0)
        odd   (v_D - v_S) + |G + k|^2 delta,

    real parts taken, a pair sharing its first planewave's |G + k|^2.  Real
    coefficients decouple them into an even and an odd block; otherwise
    they make one block, coupled by Im v_S - Im v_D (-sqrt(2) Im v_D from
    the self-paired row).  At d = 1, k = 0 and c = 0 the even and odd
    blocks are those of phi_0 = e_0, c_k = (e_k + e_{-k}) / sqrt(2) and s_k
    = -i (e_k - e_{-k}) / sqrt(2), k = 1..N (Boyd, Chebyshev and Fourier
    Spectral Methods, 2nd ed., 2001, ch. 8)."""
    ints, n = basis.int_coords, basis.dimension
    middle = n - 2 * p  # 1 with a self-paired planewave, else 0

    def build():
        heads = ints[:n - p][::-1]  # the self-paired planewave first
        coef = coeffs * (1.0 / math.sqrt(basis.lattice.unit_cell_volume))
        v_d = _differences(coef, heads, heads)
        v_s = _differences(coef, heads, heads, K)
        mixed = None if np.isrealobj(coef) else (v_s.imag - v_d.imag)[:, middle:]
        odd = v_d.real[middle:, middle:] - v_s.real[middle:, middle:]
        edge = SQRT2 * v_d[0, 1:]
        even = np.add(v_d.real, v_s.real, out=v_d if mixed is None else None)
        kinetic, at = _kinetic(basis)[:p][::-1], np.arange(p)
        even[at + middle, at + middle] += kinetic
        odd[at, at] += kinetic
        if middle:
            even[0, 1:] = even[1:, 0] = edge.real
            even[0, 0] = diag[p]
            if mixed is not None:
                mixed[0] = -edge.imag
        if mixed is not None:
            return [np.block([[even, mixed], [mixed.T, odd]])]
        return [even, odd] if p else [even]
    return build


def _form(V: FourierSeriesD, basis: PlanewaveBasis, diag: np.ndarray):
    """A callable that assembles the fiber's blocks, and their _Rotation.
    Where 2k is in the reciprocal lattice, the blocks of _paired: about an
    inversion center c of V, in the planewaves exp(-i G . c) e_G, the even
    and odd blocks (form "parity"); without a center, one real block
    (form "time-reversal").  At any other k, about a center one real
    symmetric block, and otherwise the complex Hermitian fiber itself."""
    inversion, pairing = V._inversion, _pairing(basis)
    if inversion is None and pairing is None:
        return (lambda: [assemble_bloch(V, basis)]), _Rotation("complex")
    t, coeffs = inversion or (0.0, V.hermitian)  # no center: time reversal alone
    phase = np.exp(-1j * (basis.int_coords @ t)) if np.any(t) else None
    if pairing is not None:
        form = "time-reversal" if inversion is None else "parity"
        return _paired(coeffs, basis, diag, *pairing), _Outward(form, phase, pairing[1])

    def build():
        block = _differences(coeffs, basis.int_coords, basis.int_coords)
        block *= 1.0 / math.sqrt(basis.lattice.unit_cell_volume)
        block[np.diag_indices_from(block)] = diag
        return [block]
    return build, _Rotation("inversion", phase)


def _lowest_pairs(blocks, count: int):
    """The lowest `count` eigenpairs of each Hermitian block (every pair of
    a smaller block), from a subset eigensolve."""
    from scipy.linalg import eigh  # deferred: importing the CLI stays scipy-free
    return tuple(eigh(mat, subset_by_index=[0, min(count, len(mat)) - 1],
                      check_finite=False) for mat in blocks)


def _ascending(pairs):
    """The computed block eigenpairs in ascending order: their (block,
    column) positions, their values, and how many of them are the lowest
    of the whole spectrum.  Past the highest value a block computed, its
    left-out pairs may hide among the others."""
    values = np.concatenate([w for w, _ in pairs])
    where = [(b, j) for b, (w, _) in enumerate(pairs) for j in range(len(w))]
    order = np.argsort(values, kind="stable")
    values = values[order]
    bound = min((w[-1] for w, v in pairs if len(w) < len(v)), default=math.inf)
    return ([where[i] for i in order], values,
            int(np.searchsorted(values, bound, side="right")))


@dataclass(frozen=True)
class _Operator:
    """One fiber as the eigen path reads it: build() assembles its blocks
    in the basis of `rotation`, and `blocks` keeps them as long as the
    operator lives; diag and coupling() are the complex fiber's diagonal
    and off-diagonal part, for the double-double residual; rows are its
    planewaves' rows in the basis it was cut from.  Nothing is assembled
    or solved until `pairs` is first read."""

    build: Callable[[], list[np.ndarray]]
    rotation: _Rotation
    diag: np.ndarray
    coupling: Callable[[], object]
    rows: np.ndarray
    count: int = 0  # the eigenpairs a caller reads

    @cached_property
    def blocks(self) -> list[np.ndarray]:
        return self.build()

    @cached_property
    def pairs(self):
        """The lowest count + 1 eigenpairs of each block, ascending (all of
        them for a smaller block; the one above the last of the lowest
        count shows the gap above it)."""
        return _lowest_pairs(self.blocks, self.count + 1)

    @cached_property
    def solved(self):
        """The lowest count eigenvalues, polished and ascending, and their
        (block, column) positions in `pairs`."""
        lowest = _ascending(self.pairs)[0][:self.count]
        polished = np.array([rayleigh_polish(self.blocks[b], self.pairs[b][1][:, j])
                             for b, j in lowest])
        ranked = np.argsort(polished, kind="stable")
        return polished[ranked], [lowest[i] for i in ranked]

    @cached_property
    def offdiag(self):
        return self.coupling()


def _cuts(V: FourierSeriesD, k: np.ndarray, reference: float, n_bands: int):
    """The one operator constructor, a 1D V's on series1d_to_lattice's
    lattice: a callable from a cutoff to the fiber at k on that cut of one
    basis, enumerated within `reference`, with its lowest n_bands
    eigenvalues, polished and ascending, in `solved`."""
    whole = basis_set(V.lattice, k, reference)
    whole_diag = _diagonal(V, whole)  # per planewave: each cut takes its rows

    def fiber(cutoff: float) -> _Operator:
        basis, rows = whole.within(cutoff)
        if basis.dimension < n_bands:
            raise InvalidParameterError(
                f"basis at k = {k.tolist()}, cutoff {cutoff} has only {basis.dimension} "
                f"planewaves; cannot produce {n_bands} bands")
        diag = whole_diag[rows]
        return _Operator(*_form(V, basis, diag), diag, partial(_coupling, V, basis),
                         rows, n_bands)
    return fiber


def _fiber(V: FourierSeriesD, k: np.ndarray, cutoff: float, n_bands: int) -> _Operator:
    """The fiber at k on the planewaves within cutoff (_cuts)."""
    return _cuts(V, k, cutoff, n_bands)(cutoff)


@dataclass(frozen=True)
class BandStructure:
    path_parameter: np.ndarray
    bands: np.ndarray        # (n_k, n_bands), ascending along each row


def band_structure(V: FourierSeriesD, k_path, cutoff: float,
                   n_bands: int) -> BandStructure:
    """Lowest n_bands Bloch eigenvalues at each k of the path."""
    k_path = np.atleast_2d(np.asarray(k_path, dtype=float))
    bands = [_fiber(V, k, cutoff, n_bands).solved[0] for k in k_path]
    deltas = np.linalg.norm(np.diff(k_path, axis=0), axis=1)
    param = np.concatenate([[0.0], np.cumsum(deltas)])
    return BandStructure(path_parameter=param, bands=np.asarray(bands))


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
