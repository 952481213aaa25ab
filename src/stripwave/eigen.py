"""Planewave Galerkin eigenproblems and convergence studies, for
-d2/dx2 + V in 1D and for the Bloch fibers of `bloch`.

In 1D the Galerkin matrix, k^2 delta_{kk'} + V_{k-k'} / sqrt(2*pi) in
the exponentials, is real symmetric in the cosine/sine basis of
`galerkin` for real V, and for even V it splits there into a cosine and
a sine block.  A Bloch fiber is one block: real symmetric in the basis
that `bloch` builds from an antiunitary symmetry fixing k (time reversal
or inversion), complex Hermitian where there is none.  Either way the
eigenpairs come from subset eigensolves of the blocks, which compute
only their lowest pairs, and the eigenvalues are polished by an exactly
summed Rayleigh quotient.

Convergence tables measure eigenvalue errors against a reference solve
at a much larger cutoff and fit exponential decay rates.  For analytic
potentials the errors fall far below double precision within a few
dozen modes, so the target eigenpairs of each assembled double matrix
are refined by Newton's method on the bordered eigen-system (Dongarra,
Moler & Wilkinson, SIAM J. Numer. Anal. 20, 1983), with double-double
residuals in the mixed-precision style of Ogita & Aishima (Japan J.
Indust. Appl. Math. 35, 2018): the refined value does not depend on the
eigensolver, and the eigenvalue difference is rounded to double once.
The residuals use the complex matrix itself and only the corrections
use its blocks, so the rounding of a real block does not reach the
refined eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import InvalidParameterError
from .extended import Band, band_residual, dd_add, exact_lstsq
from .fourier import FourierSeries1D, multiplier_norm_bound, strip_norm, strip_weight
from .galerkin import (coefficient_column, from_modes, rayleigh_polish,
                       real_blocks, to_modes)

# Fit floor for errors computed in double precision, the H1 eigenvector
# distances; refined eigenvalue errors have one set by EXTENDED_EPS.
RATE_FIT_FLOOR = 1e-12
# Relative accuracy of the refined eigenvalues: double-double arithmetic
# (2**-104) with a margin for the length of the residual sums.
EXTENDED_EPS = 2.0**-100
_REFINE_STEPS = 12  # refinement stops earlier once its corrections stall
_MP_PREC = 128  # bits for the cluster's Ritz values, above double-double


@dataclass(frozen=True)
class _Operator:
    """One assembled Hermitian matrix H as the eigen path reads it.

    blocks() builds its diagonal blocks in an orthonormal basis, one after
    the other: the real cosine/sine blocks of galerkin.real_blocks in 1D,
    the complex fiber on a lattice; to_modes and from_modes rotate columns
    from that basis to the coefficients and back.  diag is H's diagonal
    and coupling() its off-diagonal part for the double-double residual,
    an extended.Band in 1D and an extended.Gather on a lattice.  pairs[b]
    holds the lowest eigenvalues of block b, ascending, with eigenvectors
    (all of them for a block of fewer rows than were asked for)."""

    blocks: Callable[[], list[np.ndarray]]
    to_modes: Callable[[np.ndarray], np.ndarray]
    from_modes: Callable[[np.ndarray], np.ndarray]
    diag: np.ndarray
    coupling: Callable[[], object]
    form: str  # the symmetry that makes the blocks real, or "complex"
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...] = ()


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues, L2-normalized coefficient-space eigenvectors
    and the solved operator, which convergence_study refines."""

    eigenvalues: np.ndarray
    eigenvectors: list[FourierSeries1D]
    _operator: _Operator | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Refinement:
    """What the extended-precision refinement of one assembled matrix did."""

    cutoff: int
    block_orders: tuple[int, ...]  # orders of the blocks
    form: str  # the operator's: "time-reversal", "inversion" or "complex"
    steps: int  # Newton corrections applied
    cluster_size: int  # eigenpairs refined together


@dataclass(frozen=True)
class ErrorTable:
    errors: np.ndarray  # (study cutoffs, samples)
    max_errors: np.ndarray  # the worst over the samples, per cutoff
    fitted_rate: float  # of max_errors
    # per sample, the reference's, then one per study cutoff; run record only
    refinements: tuple[tuple[Refinement, ...], ...] = field(repr=False, compare=False)


@dataclass(frozen=True)
class ConvergenceTable:
    eigenvalue_errors: np.ndarray
    eigenvector_errors: np.ndarray  # H1 distances to the reference eigenspace
    fitted_rate_eigenvalue: float
    fitted_rate_eigenvector: float
    # the reference's, then one per study cutoff; for the run record only
    refinements: tuple[Refinement, ...] = field(repr=False, compare=False)


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


def _block_columns(pairs, where) -> np.ndarray:
    """Block eigenvectors at (block, column) positions as columns in the
    basis of the blocks."""
    offsets = np.cumsum([0] + [len(vecs) for _, vecs in pairs])
    out = np.zeros((offsets[-1], len(where)), dtype=pairs[0][1].dtype)
    for col, (b, j) in enumerate(where):
        out[offsets[b]:offsets[b + 1], col] = pairs[b][1][:, j]
    return out


def _lowest(op: _Operator, n_pairs: int):
    """The operator with the lowest n_pairs + 1 pairs of each block (the
    one above the last returned pair shows the gap above it), its lowest
    n_pairs eigenvalues polished and ascending, and their (block, column)
    positions."""
    blocks = op.blocks()
    pairs = _lowest_pairs(blocks, n_pairs + 1)
    lowest = _ascending(pairs)[0][:n_pairs]
    polished = np.array([rayleigh_polish(blocks[b], pairs[b][1][:, j])
                         for b, j in lowest])
    ranked = np.argsort(polished, kind="stable")
    return replace(op, pairs=pairs), polished[ranked], [lowest[i] for i in ranked]


def fiber_spectrum(block: np.ndarray, rotation, diag: np.ndarray,
                   coupling: Callable[[], object], n_pairs: int):
    """The lowest n_pairs eigenvalues of a Bloch fiber, polished and
    ascending, and the fiber as an operator that error_table refines.
    block is the fiber in the orthonormal basis of rotation, whose
    to_modes and from_modes rotate columns to the planewaves and back and
    whose form names it; diag and coupling(), an extended.Gather, are the
    complex fiber's diagonal and off-diagonal part."""
    op, values, _ = _lowest(_Operator(lambda: [block], rotation.to_modes,
                                      rotation.from_modes, diag, coupling,
                                      rotation.form), n_pairs)
    return values, op


def operator_1d(V: FourierSeries1D, cutoff: int) -> _Operator:
    """The Galerkin operator of the real V on the modes |k| <= cutoff, as
    solve_eig and linear.solve_linear read it: real blocks, the cosine/sine
    rotation, and the diagonal and Toeplitz band of the complex matrix."""
    column = coefficient_column(V, cutoff)
    return _Operator(partial(real_blocks, column), to_modes, from_modes,
                     column[0].real + np.arange(-cutoff, cutoff + 1) ** 2,
                     partial(Band, column[1:V.cutoff + 1], 2 * cutoff + 1),
                     "time-reversal")


def solve_eig(V: FourierSeries1D, cutoff: int, n_pairs: int) -> EigenResult:
    """Lowest n_pairs eigenpairs of the Galerkin operator, ascending, from
    subset eigensolves of the blocks of galerkin.real_blocks.  Only the
    returned pairs are rotated back to the exponentials.  Eigenvectors are
    L2-normalized; their sign and the basis of degenerate clusters are
    whatever the backend returns."""
    dim = 2 * cutoff + 1
    if n_pairs < 1 or n_pairs > dim:
        raise InvalidParameterError(
            f"n_pairs must lie in 1..{dim} for cutoff {cutoff}")
    op, values, where = _lowest(operator_1d(V, cutoff), n_pairs)
    modes = to_modes(_block_columns(op.pairs, where))
    series = [FourierSeries1D(cutoff, u / np.linalg.norm(u)) for u in modes.T]
    return EigenResult(eigenvalues=values, eigenvectors=series, _operator=op)


def _cluster(op: _Operator, index: int, gap: float):
    """The cluster around eigenvalue `index` (neighbours closer than
    `gap`): the block eigenpairs, the cluster's first index, and its
    (block, column) positions and values.  When the cluster reaches past
    the pairs known to be the lowest, more pairs are computed."""
    pairs, dim = op.pairs, len(op.diag)
    while True:
        where, values, known = _ascending(pairs)
        first, stop = index, index + 1
        while first > 0 and values[first] - values[first - 1] <= gap:
            first -= 1
        while stop < known and values[stop] - values[stop - 1] <= gap:
            stop += 1
        if stop < known or known == dim:
            return pairs, first, where[first:stop], values[first:stop]
        pairs = _lowest_pairs(op.blocks(), 2 * max(len(w) for w, _ in pairs))


def _bordered_factors(op: _Operator, pairs, where, shifts):
    """For each block that holds cluster vectors: its rows in the basis of
    the blocks, the cluster columns it holds, and the LU factors of
    [[H_b - sigma, -X_b], [X_b^H, 0]], with X_b those vectors and sigma
    the mean of their shifts."""
    from scipy.linalg import lu_factor  # deferred, as in _lowest_pairs
    offsets = np.cumsum([0] + [len(vecs) for _, vecs in pairs])
    factors = []
    for b, mat in enumerate(op.blocks()):
        cols = [k for k, (owner, _) in enumerate(where) if owner == b]
        if not cols:
            continue
        order, border = len(mat), pairs[b][1][:, [where[k][1] for k in cols]]
        # Fortran order, so that the LU overwrites it in place
        system = np.zeros((order + len(cols),) * 2, dtype=mat.dtype, order="F")
        system[:order, :order] = mat
        system[np.arange(order), np.arange(order)] -= np.mean(shifts[cols])
        system[:order, order:] = -border
        system[order:, :order] = np.conj(border.T)
        factors.append((slice(offsets[b], offsets[b + 1]), cols,
                        lu_factor(system, overwrite_a=True, check_finite=False)))
    return factors


def _extended_eigenvalue(op: _Operator, index: int, gap: float):
    """Eigenvalue `index` (0-based, ascending) of the assembled matrix as
    a double-double pair (hi, lo), with the number of Newton corrections
    and the size of the refined cluster.

    The eigenvectors of the cluster around `index` (neighbours closer
    than `gap`) are refined together by Newton's method on the bordered
    system: each step forms r = (H - lambda_k) x_k in double-double
    (rounded to double) and solves [[H_b - sigma, -X_b], [X_b^H, 0]]
    [d; m] = [r; 0] on the block b of x_k, bordered by its double cluster
    eigenvectors X_b and factored once; x_k moves by -d and lambda_k by
    minus the real part of x_k's own multiplier.  The refined cluster's
    eigenvalues are the Ritz values Lambda + G^-1 X^H R (G = X^H X), for
    several taken with mpmath at _MP_PREC bits.
    """
    from scipy.linalg import lu_solve  # deferred, as in _lowest_pairs
    pairs, first, where, values = _cluster(op, index, gap)
    x_hi = op.to_modes(_block_columns(pairs, where))
    x_lo, lam_hi, lam_lo = np.zeros_like(x_hi), values.copy(), np.zeros_like(values)
    factors = _bordered_factors(op, pairs, where, lam_hi)
    offdiag = op.coupling()
    previous, steps = math.inf, 0
    for step in range(_REFINE_STEPS + 1):
        r = band_residual(op.diag, offdiag, lam_hi, lam_lo, x_hi, x_lo)
        if step == _REFINE_STEPS:
            break
        rhs = op.from_modes(r)
        delta, shift = np.zeros_like(rhs), np.zeros_like(lam_hi)
        for rows, cols, lu in factors:
            order = rows.stop - rows.start
            bordered = np.zeros((order + len(cols), len(cols)), dtype=rhs.dtype)
            bordered[:order] = rhs[rows, cols]
            if np.iscomplexobj(bordered) and not np.iscomplexobj(lu[0]):
                # real factors: the real and imaginary parts as columns
                solution = np.ascontiguousarray(lu_solve(
                    lu, bordered.view(float), check_finite=False)).view(complex)
            else:
                solution = lu_solve(lu, bordered, check_finite=False)
            delta[rows, cols] = solution[:order]
            shift[cols] = -np.diagonal(solution[order:]).real
        # bounds the eigenvalue shift this correction would still bring,
        # sum_j |q_j^H r|^2 / |mu_j - lambda|, by Cauchy-Schwarz
        pending = np.linalg.norm(r, axis=0) * np.linalg.norm(delta, axis=0)
        correction = op.to_modes(delta)
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
    """Least-squares slope of log(error) against x, correctly rounded.

    Rows at the floating-point floor are excluded: both rows at or below
    the explicit floor and the trailing plateau where the sequence has
    stopped decaying (each kept row must undercut its predecessor by at
    least a factor 2, far slower than any exponential rate of interest).
    When at least three rows survive, the smallest-x row (pre-asymptotic)
    is dropped as well.  Returns nan when fewer than two usable rows
    remain.  The slope of the kept (x, log error) doubles is exact
    (extended.exact_lstsq), rounded once.
    """
    xs, errors = np.asarray(xs, dtype=float), np.asarray(errors, dtype=float)
    xs, errors = xs[errors > floor], errors[errors > floor]
    stalled = np.flatnonzero(errors[1:] > 0.5 * errors[:-1])
    keep = stalled[0] + 1 if len(stalled) else len(xs)
    xs, errors = xs[:keep], errors[:keep]
    if len(xs) >= 3:
        xs, errors = xs[1:], errors[1:]
    if len(xs) < 2:
        return math.nan
    return exact_lstsq([np.ones_like(xs), xs], np.log(errors))[0][1]


def error_table(solve: Callable, samples, cutoffs, reference_cutoff: float,
                band: int, gap: float = 1e-8) -> ErrorTable:
    """Errors of eigenvalue `band` (1-based) at each study cutoff against
    the reference cutoff (at least twice the largest), at each sample,
    with the rate of the worst over the samples.

    solve(sample, cutoff, reference) returns the solved _Operator there.
    Each eigenvalue is refined to double-double (clusters within `gap`
    together) and each error, a difference of two, is rounded to double
    once; as every study matrix is a principal submatrix of the reference
    matrix, the exact errors are nonnegative.  The rate is fitted above
    EXTENDED_EPS * |lambda_ref|, the largest over the samples.
    """
    if reference_cutoff < 2 * max(cutoffs):
        raise InvalidParameterError(
            "reference cutoff must be at least twice the largest study cutoff")
    errors = np.empty((len(cutoffs), len(samples)))
    refinements, scale = [], 0.0
    for s, sample in enumerate(samples):
        records = []
        for i, cutoff in enumerate([reference_cutoff, *cutoffs]):
            op = solve(sample, cutoff, i == 0)
            (hi, lo), steps, size = _extended_eigenvalue(op, band - 1, gap)
            records.append(Refinement(cutoff, tuple(len(v) for _, v in op.pairs),
                                      op.form, steps, size))
            if i == 0:
                ref_hi, ref_lo, scale = hi, lo, max(scale, abs(hi))
            else:
                diff, diff_lo = dd_add(hi, lo - ref_lo, -ref_hi)
                errors[i - 1, s] = diff + diff_lo
        refinements.append(tuple(records))
    worst = errors.max(axis=1)
    return ErrorTable(errors, worst, fit_log_rate(cutoffs, worst, EXTENDED_EPS * scale),
                      tuple(refinements))


def convergence_study(V: FourierSeries1D, cutoffs, reference_cutoff: int,
                      band: int, cluster_gap: float = 1e-8) -> ConvergenceTable:
    """Eigenvalue errors (error_table) and H1 eigenvector errors against
    a reference solve, `band` 1-based.  The reference eigenspace is the
    cluster of reference eigenpairs within cluster_gap of the target
    eigenvalue; the eigenvector rate is fitted above RATE_FIT_FLOOR."""
    cutoffs = [int(n) for n in cutoffs]
    if band < 1:
        raise InvalidParameterError("band index is 1-based")
    if band > 2 * min(cutoffs) + 1:
        raise InvalidParameterError(
            f"band {band} exceeds the {2 * min(cutoffs) + 1} pairs of the "
            "smallest study cutoff")
    solved = []  # the reference's, then one per study cutoff

    def solve(_, cutoff, reference):
        pairs = min(2 * cutoff + 1, band + 8) if reference else band
        solved.append(solve_eig(V, cutoff, pairs))
        return solved[-1]._operator

    table = error_table(solve, [None], cutoffs, reference_cutoff, band, cluster_gap)
    ref = solved[0]
    in_cluster = np.abs(ref.eigenvalues - ref.eigenvalues[band - 1]) <= cluster_gap
    space = [v for v, keep in zip(ref.eigenvectors, in_cluster) if keep]
    vec_err = np.array([h1_distance(res.eigenvectors[band - 1], space)
                        for res in solved[1:]])
    return ConvergenceTable(
        eigenvalue_errors=table.errors[:, 0],
        eigenvector_errors=vec_err,
        fitted_rate_eigenvalue=table.fitted_rate,
        fitted_rate_eigenvector=fit_log_rate(cutoffs, vec_err),
        refinements=table.refinements[0],
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
