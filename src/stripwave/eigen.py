"""Planewave Galerkin eigenproblem for -d2/dx2 + V and convergence studies.

The Galerkin matrix has entries k^2 delta_{kk'} + V_{k-k'} / sqrt(2*pi)
in the exponentials.  For real V it is real symmetric in the cosine/sine
basis of `galerkin`, and for even V it splits there into a cosine block
of order N + 1 and a sine block of order N; eigenpairs come from dense
real symmetric eigendecompositions of those blocks (of the one coupled
matrix of order 2N + 1 when V has an odd part), and only the eigenvectors
that are used are rotated back to the exponentials.  Eigenvalues are
polished by an exactly-summed Rayleigh quotient, which removes the
O(eps * ||H||) noise of the backward-stable decomposition.

Convergence tables measure eigenvalue errors and H1 eigenvector
distances against a reference solve at a much larger cutoff and fit
exponential decay rates.  For analytic potentials the eigenvalue errors
fall far below double precision within a few dozen modes, so they are
computed in extended precision: the target eigenpairs of each assembled
double matrix are refined by mixed-precision iterative refinement
(Ogita & Aishima, Japan J. Indust. Appl. Math. 35, 2018), with
double-double residuals on the complex matrix's Toeplitz band and
corrections from the real block eigendecompositions, so the refined
value does not depend on the eigensolver, and the eigenvalue difference is
rounded to double once.  Since every study matrix is a principal
submatrix of the reference matrix, the exact errors are nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, InvalidParameterError
from .extended import band_residual, dd_add
from .fourier import FourierSeries1D, multiplier_norm_bound, strip_norm, strip_weight
from .galerkin import (assemble_dense, coefficient_column, from_modes,
                       rayleigh_polish, real_blocks, to_modes)

# Default fit floor for errors computed in double precision, as the Bloch
# zone errors are; convergence_study passes a floor set by its extended
# working precision instead.
RATE_FIT_FLOOR = 1e-12
# Relative accuracy of the refined eigenvalues: double-double arithmetic
# (2**-104) with a margin for the length of the residual sums.
EXTENDED_EPS = 2.0**-100
_REFINE_STEPS = 12  # refinement stops earlier once its corrections stall
_MP_PREC = 128  # bits for the cluster's Ritz values, above double-double


@dataclass(frozen=True)
class GalerkinMatrix:
    cutoff: int
    entries: np.ndarray

    def __post_init__(self):
        n = 2 * self.cutoff + 1
        if self.entries.shape != (n, n):
            raise InvalidParameterError("matrix dimension must be 2*cutoff+1")


@dataclass(frozen=True)
class _DenseSpectrum:
    """Every eigenpair of an assembled matrix, with the matrix's band.

    The eigenvectors stay real, block by block, in the basis
    [phi_0, c_1..c_N, s_1..s_N] of galerkin.real_blocks.  Block b covers
    the same index range of that basis and of the concatenated block
    spectrum, so the concatenation acts as one block-diagonal matrix.
    """

    spectrum: np.ndarray  # the block eigenvalues, concatenated
    order: np.ndarray  # ascending order of the spectrum
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]  # (eigenvalues, vectors)
    diag: np.ndarray  # real diagonal of the complex matrix
    lower: np.ndarray  # constant subdiagonals: lower[d-1] = H[i+d, i]


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with L2-normalized coefficient-space eigenvectors.

    `_dense` keeps the full decomposition the pairs came from, which the
    extended-precision errors of convergence_study refine.
    """

    eigenvalues: np.ndarray
    eigenvectors: list[FourierSeries1D]
    _dense: _DenseSpectrum | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ConvergenceTable:
    cutoffs: np.ndarray
    eigenvalue_errors: np.ndarray
    eigenvector_errors: np.ndarray  # H1 distances to the reference eigenspace
    fitted_rate_eigenvalue: float
    fitted_rate_eigenvector: float
    band: int
    reference_cutoff: int
    claimed_half_width: float


@dataclass(frozen=True)
class StripBoundCheck:
    """Strip norm of a computed eigenvector against its theoretical bound."""

    norm: float
    bound: float
    eigenvalue: float
    multiplier_norm: float

    @property
    def holds(self) -> bool:
        return self.norm <= self.bound


def assemble_hamiltonian(V: FourierSeries1D, cutoff: int) -> GalerkinMatrix:
    """Dense Hermitian Galerkin matrix of -d2/dx2 + V on modes |k| <= cutoff."""
    return GalerkinMatrix(cutoff, assemble_dense(V, cutoff))


def _locate(blocks, index: int):
    """Block number, column and row offset of a concatenated eigenpair index."""
    start = 0
    for b, (values, _) in enumerate(blocks):
        if index < start + len(values):
            return b, index - start, start
        start += len(values)
    raise IndexError(index)


def _real_columns(blocks, indices) -> np.ndarray:
    """Eigenvectors at concatenated indices as real-basis columns."""
    dim = sum(len(values) for values, _ in blocks)
    out = np.zeros((dim, len(indices)))
    for col, index in enumerate(indices):
        b, j, start = _locate(blocks, index)
        vecs = blocks[b][1]
        out[start:start + len(vecs), col] = vecs[:, j]
    return out


def _block_product(blocks, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Q x (or Q^T x) for the block-diagonal eigenvector matrix Q."""
    out, start = [], 0
    for _, vecs in blocks:
        stop = start + len(vecs)
        out.append((vecs.T if transpose else vecs) @ x[start:stop])
        start = stop
    return np.concatenate(out)


def solve_eig(V: FourierSeries1D, cutoff: int, n_pairs: int) -> EigenResult:
    """Lowest n_pairs eigenpairs of the Galerkin operator, ascending.

    The real blocks of galerkin.real_blocks are decomposed by a dense
    symmetric eigensolver: the cosine and sine blocks separately for
    even V, the coupled matrix otherwise.  Only the returned pairs are
    rotated back to the exponentials.  Eigenvectors are L2-normalized;
    eigenvector sign and the basis of degenerate clusters are whatever
    the backend returns.
    """
    dim = 2 * cutoff + 1
    if n_pairs < 1 or n_pairs > dim:
        raise InvalidParameterError(
            f"n_pairs must lie in 1..{dim} for cutoff {cutoff}")
    column = coefficient_column(V, cutoff)
    mats = real_blocks(column)
    blocks = tuple(np.linalg.eigh(mat) for mat in mats)
    spectrum = np.concatenate([values for values, _ in blocks])
    order = np.argsort(spectrum, kind="stable")
    polished = []
    for index in order[:n_pairs]:
        b, j, _ = _locate(blocks, index)
        polished.append(rayleigh_polish(mats[b], blocks[b][1][:, j]))
    polished = np.array(polished)
    ranked = np.argsort(polished, kind="stable")
    modes = to_modes(_real_columns(blocks, order[:n_pairs][ranked]))
    series = [FourierSeries1D(cutoff, u / np.linalg.norm(u)) for u in modes.T]
    band = min(V.cutoff, dim - 1)
    k = np.arange(-cutoff, cutoff + 1)
    dense = _DenseSpectrum(spectrum, order, blocks, column[0].real + k * k,
                           column[1:band + 1].copy())
    return EigenResult(eigenvalues=polished[ranked], eigenvectors=series,
                       _dense=dense)


def _extended_eigenvalue(dense: _DenseSpectrum, index: int, gap: float):
    """Eigenvalue `index` (0-based, ascending) of the assembled matrix as
    a double-double pair (hi, lo).

    The eigenvectors of the cluster around `index` (neighbours closer
    than `gap`) are refined together: each step forms the residual
    (H - lambda_k) x_k in double-double (rounded to double) on the
    complex band, removes its components outside the cluster with the
    real block decomposition (divided by mu_j - lambda_k), and moves
    each shift lambda_k to its Rayleigh quotient.
    The eigenvalues of the refined cluster are then the Ritz values
    Lambda + G^-1 X^H R (G = X^H X), whose correction term needs only
    double precision; for a cluster of several they are taken with
    mpmath at _MP_PREC bits.
    """
    spectrum = dense.spectrum
    values = spectrum[dense.order]
    first, stop = index, index + 1
    while first > 0 and values[first] - values[first - 1] <= gap:
        first -= 1
    while stop < len(values) and values[stop] - values[stop - 1] <= gap:
        stop += 1
    cluster = dense.order[first:stop]  # positions in the block spectra
    x_hi = to_modes(_real_columns(dense.blocks, cluster))
    x_lo = np.zeros_like(x_hi)
    lam_hi = values[first:stop].copy()
    lam_lo = np.zeros_like(lam_hi)
    previous = math.inf
    for step in range(_REFINE_STEPS + 1):
        r = band_residual(dense.diag, dense.lower, lam_hi, lam_lo, x_hi, x_lo)
        if step == _REFINE_STEPS:
            break
        coef = _block_product(dense.blocks, from_modes(r), transpose=True)
        coef[cluster] = 0.0
        denom = spectrum[:, None] - lam_hi[None, :]
        denom[cluster] = 1.0
        # the eigenvalue shift this correction would still bring, to second order
        pending = np.sum(coef**2 / np.abs(denom), axis=0)
        correction = to_modes(_block_product(dense.blocks, coef / denom))
        size = float(np.max(np.abs(correction)))
        if np.all(pending <= 2.0**-110 * np.abs(lam_hi)) or size > 0.5 * previous:
            break
        previous = size
        quotient = np.einsum("ik,ik->k", np.conj(x_hi), r).real \
            / np.einsum("ik,ik->k", np.conj(x_hi), x_hi).real
        x_hi, x_lo = dd_add(x_hi, x_lo, -correction)
        lam_hi, lam_lo = dd_add(lam_hi, lam_lo, quotient)
    gram = np.conj(x_hi.T) @ x_hi
    coupling = np.linalg.solve(gram, np.conj(x_hi.T) @ r)
    if stop - first == 1:
        return dd_add(lam_hi[0], lam_lo[0], coupling[0, 0].real)
    import mpmath  # deferred: only clusters of several eigenvalues need it
    ctx = mpmath.MPContext()
    ctx.prec = _MP_PREC
    ritz = ctx.matrix(coupling.tolist())
    for k in range(stop - first):
        ritz[k, k] += ctx.mpf(lam_hi[k]) + ctx.mpf(lam_lo[k])
    roots = sorted(ctx.re(z) for z in ctx.eig(ritz, left=False, right=False))
    hi = float(roots[index - first])
    return hi, float(roots[index - first] - hi)


def h1_distance(u: FourierSeries1D, basis: list[FourierSeries1D]) -> float:
    """H1 distance from u to the span of the given series.

    The basis is orthonormalized internally (in H1), so the result only
    depends on the span.
    """
    if not basis:
        raise InvalidParameterError("basis must contain at least one series")
    n = max([u.cutoff] + [b.cutoff for b in basis])
    k = np.arange(-n, n + 1)
    w = np.sqrt(1.0 + k.astype(float) ** 2)
    mat = np.column_stack([w * b._padded(n) for b in basis])
    q, _ = np.linalg.qr(mat)
    target = w * u._padded(n)
    return float(np.linalg.norm(target - q @ (np.conj(q.T) @ target)))


def fit_log_rate(xs, errors, floor: float = RATE_FIT_FLOOR) -> float:
    """Least-squares slope of log(error) against x.

    Rows at the floating-point floor are excluded: both rows at or below
    the explicit floor and the trailing plateau where the sequence has
    stopped decaying (each kept row must undercut its predecessor by at
    least a factor 2, far slower than any exponential rate of interest).
    When at least three rows survive, the smallest-x row (pre-asymptotic)
    is dropped as well.  Returns nan when fewer than two usable rows
    remain.
    """
    xs = np.asarray(xs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > floor
    xs, errors = xs[mask], errors[mask]
    keep = len(xs)
    for i in range(1, len(xs)):
        if errors[i] > 0.5 * errors[i - 1]:
            keep = i
            break
    xs, errors = xs[:keep], errors[:keep]
    if len(xs) >= 3:
        xs, errors = xs[1:], errors[1:]
    if len(xs) < 2:
        return math.nan
    slope, _ = np.polyfit(xs, np.log(errors), 1)
    return float(slope)


def convergence_study(V: FourierSeries1D, cutoffs, reference_cutoff: int,
                      band: int, claimed_half_width: float,
                      cluster_gap: float = 1e-8,
                      cluster: bool = True) -> ConvergenceTable:
    """Eigenvalue and H1 eigenvector errors against a reference solve.

    `band` is 1-based.  The reference eigenspace is the cluster of
    reference eigenpairs within cluster_gap of the target eigenvalue;
    with cluster=False an unresolved cluster raises DegeneracyError
    instead.  Requires reference_cutoff >= 2 * max(cutoffs).

    Eigenvalue errors are differences of extended-precision eigenvalues
    of the assembled matrices, rounded to double once; the eigenvalue
    rate is fitted above EXTENDED_EPS * |lambda_ref|, the eigenvector
    rate above the default RATE_FIT_FLOOR.
    """
    cutoffs = [int(n) for n in cutoffs]
    if reference_cutoff < 2 * max(cutoffs):
        raise InvalidParameterError(
            "reference cutoff must be at least twice the largest study cutoff")
    if band < 1:
        raise InvalidParameterError("band index is 1-based")
    if band > 2 * min(cutoffs) + 1:
        raise InvalidParameterError(
            f"band {band} exceeds the {2 * min(cutoffs) + 1} pairs of the "
            "smallest study cutoff")
    n_ref = min(2 * reference_cutoff + 1, band + 8)
    ref = solve_eig(V, reference_cutoff, n_ref)
    lam_ref = ref.eigenvalues[band - 1]
    in_cluster = np.abs(ref.eigenvalues - lam_ref) <= cluster_gap
    if np.sum(in_cluster) > 1 and not cluster:
        raise DegeneracyError(
            f"eigenvalue {band} at the reference cutoff sits in a cluster of "
            f"{int(np.sum(in_cluster))} within gap {cluster_gap:g}")
    space = [v for v, keep in zip(ref.eigenvectors, in_cluster) if keep]

    ref_hi, ref_lo = _extended_eigenvalue(ref._dense, band - 1, cluster_gap)
    lam_err = np.empty(len(cutoffs))
    vec_err = np.empty(len(cutoffs))
    for i, n in enumerate(cutoffs):
        res = solve_eig(V, n, band)
        hi, lo = _extended_eigenvalue(res._dense, band - 1, cluster_gap)
        diff, diff_lo = dd_add(hi, lo - ref_lo, -ref_hi)
        lam_err[i] = diff + diff_lo
        vec_err[i] = h1_distance(res.eigenvectors[band - 1], space)

    return ConvergenceTable(
        cutoffs=np.asarray(cutoffs),
        eigenvalue_errors=lam_err,
        eigenvector_errors=vec_err,
        fitted_rate_eigenvalue=fit_log_rate(cutoffs, lam_err,
                                            EXTENDED_EPS * abs(ref_hi)),
        fitted_rate_eigenvector=fit_log_rate(cutoffs, vec_err),
        band=band,
        reference_cutoff=reference_cutoff,
        claimed_half_width=claimed_half_width,
    )


def eigenvector_strip_check(V: FourierSeries1D, cutoff: int, band: int,
                            half_width: float) -> StripBoundCheck:
    """Compare the strip norm of an eigenvector with its a-priori bound

        (1 + ||V||) * sqrt(cosh(2*A*sqrt(||V|| + lambda + 1))),

    where ||V|| is the multiplier-norm surrogate.  Meaningful only for
    half-widths strictly inside the potential's analyticity strip.
    """
    res = solve_eig(V, cutoff, band)
    lam = float(res.eigenvalues[band - 1])
    vnorm = multiplier_norm_bound(V, half_width)
    bound = (1.0 + vnorm) * math.sqrt(
        strip_weight(half_width, math.sqrt(vnorm + lam + 1.0)))
    return StripBoundCheck(
        norm=strip_norm(res.eigenvectors[band - 1], half_width),
        bound=float(bound),
        eigenvalue=lam,
        multiplier_norm=vnorm,
    )
