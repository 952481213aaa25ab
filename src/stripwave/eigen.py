"""Planewave Galerkin eigenproblem for -d2/dx2 + V and convergence studies.

The Galerkin matrix has entries k^2 delta_{kk'} + V_{k-k'} / sqrt(2*pi)
in the exponentials.  For real V it is real symmetric in the cosine/sine
basis of `galerkin`, and for even V it splits there into a cosine block
of order N + 1 and a sine block of order N; eigenpairs come from subset
eigensolves of those blocks (of the one coupled matrix of order 2N + 1
when V has an odd part), which compute only the lowest pairs of each
block, and only the eigenvectors that are used are rotated back to the
exponentials.  Eigenvalues are polished by an exactly-summed Rayleigh
quotient, which removes the O(eps * ||H||) noise of the backward-stable
decomposition.

Convergence tables measure eigenvalue errors and H1 eigenvector
distances against a reference solve at a much larger cutoff and fit
exponential decay rates.  For analytic potentials the eigenvalue errors
fall far below double precision within a few dozen modes, so they are
computed in extended precision: the target eigenpairs of each assembled
double matrix are refined by Newton's method on the bordered eigen-system
(Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal. 20, 1983), with
double-double residuals on the complex matrix's Toeplitz band in the
mixed-precision style of Ogita & Aishima (Japan J. Indust. Appl. Math.
35, 2018) and corrections from the real blocks bordered by the cluster's
eigenvectors and LU-factored once in double, so the refined value does
not depend on the eigensolver, and the eigenvalue difference is rounded
to double once.  Since every study matrix is a principal submatrix of
the reference matrix, the exact errors are nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
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
    """The lowest eigenpairs of the real blocks of an assembled matrix,
    with the coefficient column the blocks are built from and the
    matrix's band.

    The blocks are the diagonal blocks of galerkin.real_blocks(column),
    one after the other in the basis [phi_0, c_1..c_N, s_1..s_N].
    pairs[b] holds the lowest eigenvalues of block b, ascending, and their
    real eigenvectors; a block of fewer rows than were asked for has all
    of them.  The blocks themselves are not kept: the refinement builds
    them again, bordered, and factors them.
    """

    column: np.ndarray  # t_d, d = 0..2N, as galerkin.coefficient_column
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]  # (eigenvalues, vectors)
    diag: np.ndarray  # real diagonal of the complex matrix
    lower: np.ndarray  # constant subdiagonals: lower[d-1] = H[i+d, i]


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with L2-normalized coefficient-space eigenvectors.

    `_dense` keeps the block eigenpairs the pairs came from, which the
    extended-precision errors of convergence_study refine.
    """

    eigenvalues: np.ndarray
    eigenvectors: list[FourierSeries1D]
    _dense: _DenseSpectrum | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Refinement:
    """What the extended-precision refinement of one assembled matrix did."""

    cutoff: int
    block_orders: tuple[int, ...]  # orders of the real blocks
    steps: int  # Newton corrections applied
    cluster_size: int  # eigenpairs refined together


@dataclass(frozen=True)
class ConvergenceTable:
    cutoffs: np.ndarray
    eigenvalue_errors: np.ndarray
    eigenvector_errors: np.ndarray  # H1 distances to the reference eigenspace
    fitted_rate_eigenvalue: float
    fitted_rate_eigenvector: float
    band: int
    reference_cutoff: int
    # the reference's, then one per study cutoff; for the run record only
    refinements: tuple[Refinement, ...] = field(default=(), repr=False,
                                                compare=False)


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


def _lowest_pairs(blocks, count: int):
    """The lowest `count` eigenpairs of each real block (every pair of a
    smaller block), from a subset eigensolve."""
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


def _real_columns(pairs, where) -> np.ndarray:
    """Block eigenvectors at (block, column) positions as real-basis columns."""
    offsets = np.cumsum([0] + [len(vecs) for _, vecs in pairs])
    out = np.zeros((offsets[-1], len(where)))
    for col, (b, j) in enumerate(where):
        out[offsets[b]:offsets[b + 1], col] = pairs[b][1][:, j]
    return out


def solve_eig(V: FourierSeries1D, cutoff: int, n_pairs: int) -> EigenResult:
    """Lowest n_pairs eigenpairs of the Galerkin operator, ascending.

    The real blocks of galerkin.real_blocks are decomposed by a subset
    symmetric eigensolver, which computes the lowest n_pairs + 1 pairs of
    each block (the one above the last returned pair shows the gap above
    it): the cosine and sine blocks separately for even V, the coupled
    matrix otherwise.  Only the returned pairs are rotated back to the
    exponentials.  Eigenvectors are L2-normalized; eigenvector sign and
    the basis of degenerate clusters are whatever the backend returns.
    """
    dim = 2 * cutoff + 1
    if n_pairs < 1 or n_pairs > dim:
        raise InvalidParameterError(
            f"n_pairs must lie in 1..{dim} for cutoff {cutoff}")
    column = coefficient_column(V, cutoff)
    blocks = tuple(real_blocks(column))
    pairs = _lowest_pairs(blocks, n_pairs + 1)
    lowest = _ascending(pairs)[0][:n_pairs]
    polished = np.array([rayleigh_polish(blocks[b], pairs[b][1][:, j])
                         for b, j in lowest])
    ranked = np.argsort(polished, kind="stable")
    modes = to_modes(_real_columns(pairs, [lowest[i] for i in ranked]))
    series = [FourierSeries1D(cutoff, u / np.linalg.norm(u)) for u in modes.T]
    band = min(V.cutoff, dim - 1)
    k = np.arange(-cutoff, cutoff + 1)
    dense = _DenseSpectrum(column, pairs, column[0].real + k * k,
                           column[1:band + 1])
    return EigenResult(eigenvalues=polished[ranked], eigenvectors=series,
                       _dense=dense)


def _cluster(dense: _DenseSpectrum, index: int, gap: float):
    """The cluster around eigenvalue `index` (neighbours closer than
    `gap`): the block eigenpairs, the cluster's first index, and its
    (block, column) positions and values.

    When the cluster reaches past the pairs that are known to be the
    lowest, more pairs of each block are computed until the gap above
    it shows."""
    pairs, dim = dense.pairs, len(dense.diag)
    while True:
        where, values, known = _ascending(pairs)
        first, stop = index, index + 1
        while first > 0 and values[first] - values[first - 1] <= gap:
            first -= 1
        while stop < known and values[stop] - values[stop - 1] <= gap:
            stop += 1
        if stop < known or known == dim:
            return pairs, first, where[first:stop], values[first:stop]
        pairs = _lowest_pairs(real_blocks(dense.column),
                              2 * max(len(w) for w, _ in pairs))


def _bordered_factors(dense: _DenseSpectrum, pairs, where, shifts):
    """For each real block that holds cluster vectors: its rows in the
    real basis, the cluster columns it holds, and the LU factors of
    [[H_b - sigma, -X_b], [X_b^T, 0]], with X_b those vectors and sigma
    the mean of their shifts."""
    from scipy.linalg import lu_factor  # deferred, as in _lowest_pairs
    offsets = np.cumsum([0] + [len(vecs) for _, vecs in pairs])
    factors = []
    for b, mat in enumerate(real_blocks(dense.column)):
        cols = [k for k, (owner, _) in enumerate(where) if owner == b]
        if not cols:
            continue
        order, border = len(mat), pairs[b][1][:, [where[k][1] for k in cols]]
        # Fortran order, so that the LU overwrites it in place
        system = np.zeros((order + len(cols), order + len(cols)), order="F")
        system[:order, :order] = mat
        system[np.arange(order), np.arange(order)] -= np.mean(shifts[cols])
        system[:order, order:] = -border
        system[order:, :order] = border.T
        factors.append((slice(offsets[b], offsets[b + 1]), cols,
                        lu_factor(system, overwrite_a=True, check_finite=False)))
    return factors


def _extended_eigenvalue(dense: _DenseSpectrum, index: int, gap: float):
    """Eigenvalue `index` (0-based, ascending) of the assembled matrix as
    a double-double pair (hi, lo), with the number of Newton corrections
    and the size of the refined cluster.

    The eigenvectors of the cluster around `index` (neighbours closer
    than `gap`) are refined together by Newton's method on the bordered
    system: each step forms the residual r = (H - lambda_k) x_k in
    double-double (rounded to double) on the complex band and solves
    [[H_b - sigma, -X_b], [X_b^T, 0]] [d; m] = [r; 0] on the real block b
    that holds x_k, bordered by the block's double cluster eigenvectors
    X_b and factored once; x_k moves by -d, which keeps it off the rest
    of the spectrum, and lambda_k by minus x_k's own multiplier.
    The eigenvalues of the refined cluster are then the Ritz values
    Lambda + G^-1 X^H R (G = X^H X), whose correction term needs only
    double precision; for a cluster of several they are taken with
    mpmath at _MP_PREC bits.
    """
    from scipy.linalg import lu_solve  # deferred, as in _lowest_pairs
    pairs, first, where, values = _cluster(dense, index, gap)
    x_hi = to_modes(_real_columns(pairs, where))
    x_lo = np.zeros_like(x_hi)
    lam_hi = values.copy()
    lam_lo = np.zeros_like(lam_hi)
    factors = _bordered_factors(dense, pairs, where, lam_hi)
    previous, steps = math.inf, 0
    for step in range(_REFINE_STEPS + 1):
        r = band_residual(dense.diag, dense.lower, lam_hi, lam_lo, x_hi, x_lo)
        if step == _REFINE_STEPS:
            break
        rhs = from_modes(r)
        delta, shift = np.zeros_like(rhs), np.zeros_like(lam_hi)
        for rows, cols, lu in factors:
            order = rows.stop - rows.start
            bordered = np.zeros((order + len(cols), len(cols)))
            bordered[:order] = rhs[rows, cols]
            solution = lu_solve(lu, bordered, check_finite=False)
            delta[rows, cols] = solution[:order]
            shift[cols] = -np.diagonal(solution[order:])
        # bounds the eigenvalue shift this correction would still bring,
        # sum_j (q_j^T r)^2 / |mu_j - lambda|, by Cauchy-Schwarz
        pending = np.linalg.norm(r, axis=0) * np.linalg.norm(delta, axis=0)
        correction = to_modes(delta)
        size = float(np.max(np.abs(correction)))
        if np.all(pending <= 2.0**-110 * np.abs(lam_hi)) or size > 0.5 * previous:
            break
        previous, steps = size, steps + 1
        x_hi, x_lo = dd_add(x_hi, x_lo, -correction)
        lam_hi, lam_lo = dd_add(lam_hi, lam_lo, shift)
    gram = np.conj(x_hi.T) @ x_hi
    coupling = np.linalg.solve(gram, np.conj(x_hi.T) @ r)
    if len(where) == 1:
        return dd_add(lam_hi[0], lam_lo[0], coupling[0, 0].real), steps, 1
    import mpmath  # deferred: only clusters of several eigenvalues need it
    ctx = mpmath.MPContext()
    ctx.prec = _MP_PREC
    ritz = ctx.matrix(coupling.tolist())
    for k in range(len(where)):
        ritz[k, k] += ctx.mpf(lam_hi[k]) + ctx.mpf(lam_lo[k])
    roots = sorted(ctx.re(z) for z in ctx.eig(ritz, left=False, right=False))
    hi = float(roots[index - first])
    return (hi, float(roots[index - first] - hi)), steps, len(where)


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
                      band: int, cluster_gap: float = 1e-8) -> ConvergenceTable:
    """Eigenvalue and H1 eigenvector errors against a reference solve.

    `band` is 1-based.  The reference eigenspace is the cluster of
    reference eigenpairs within cluster_gap of the target eigenvalue.
    Requires reference_cutoff >= 2 * max(cutoffs).

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
    space = [v for v, keep in zip(ref.eigenvectors, in_cluster) if keep]

    refinements = []

    def refined(res: EigenResult, cutoff: int):
        value, steps, size = _extended_eigenvalue(res._dense, band - 1, cluster_gap)
        refinements.append(Refinement(
            cutoff, tuple(len(vecs) for _, vecs in res._dense.pairs), steps, size))
        return value

    ref_hi, ref_lo = refined(ref, reference_cutoff)
    lam_err = np.empty(len(cutoffs))
    vec_err = np.empty(len(cutoffs))
    for i, n in enumerate(cutoffs):
        res = solve_eig(V, n, band)
        hi, lo = refined(res, n)
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
        refinements=tuple(refinements),
    )


def eigenvector_strip_check(V: FourierSeries1D, cutoff: int, band: int,
                            half_width: float) -> StripBoundCheck:
    """Compare the strip norm of an eigenvector with its a-priori bound

        (1 + ||V||) * sqrt(cosh(2*A*sqrt(||V|| + lambda + 1))),

    where ||V|| is the weighted l1 norm of multiplier_norm_bound.  Meaningful
    only for half-widths strictly inside the potential's analyticity strip.
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
