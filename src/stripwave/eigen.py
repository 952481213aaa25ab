"""Planewave Galerkin eigenproblems and convergence studies, for
-d2/dx2 + V in 1D and for the Bloch fibers of `bloch`.

Both solve the fibers of bloch._cuts, a 1D V as the d = 1 case: embedded
once per call on the lattice 2*pi*Z, at k = 0, where the fiber is the 1D
Galerkin matrix k^2 delta_{kk'} + V_{k-k'} / sqrt(2*pi).  The eigenpairs
come from subset eigensolves of the fiber's real or complex blocks, which
compute only their lowest pairs, and the eigenvalues are polished by an
exactly summed Rayleigh quotient.

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

The reference solve is mostly wasted on an analytic potential: its
eigenvectors vanish to double precision a few dozen modes in.  So
error_table first tries pilots, the same operator on cuts of the
reference's basis at smaller cutoffs, with the other modes zero.  A
pilot's eigenpairs are refined on the reference's own double-double
residual with the pilot's factors, and they stand in for the
reference's only under a certificate: an inertia count that no mode
outside the pilot enters below its pairs, and a Kato-Temple bound
(Kato, J. Phys. Soc. Japan 4, 1949) on the distance from the refined
value to the reference's eigenvalue.  Where no pilot passes, the
reference is its own last pilot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bloch import (FourierSeriesD, _ascending, _cuts, _fiber, _lowest_pairs,
                    _Operator, series1d_to_lattice)
from .errors import InvalidParameterError
from .extended import band_residual, dd_add, exact_lstsq
from .fourier import FourierSeries1D, multiplier_norm_bound, strip_norm, strip_weight

# Fit floor for errors computed in double precision, the H1 eigenvector
# distances; refined eigenvalue errors have one set by EXTENDED_EPS.
RATE_FIT_FLOOR = 1e-12
# Relative accuracy of the refined eigenvalues: double-double arithmetic
# (2**-104) with a margin for the length of the residual sums.
EXTENDED_EPS = 2.0**-100
_REFINE_STEPS = 12  # refinement stops earlier once its corrections stall
# relative eigenvalue change below which refinement stops, and below
# which a pilot's Kato-Temple bound must fall
_SETTLED = 2.0**-110
_MP_PREC = 128  # bits for the cluster's Ritz values, above double-double


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues and L2-normalized coefficient-space
    eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: list[FourierSeries1D]


@dataclass(frozen=True)
class Refinement:
    """What the extended-precision refinement of one matrix did.  A
    reference's eigenpairs may come from a pilot, the same operator at a
    smaller cutoff: `tried` lists the pilot cutoffs tried and then, where
    none passed, the matrix's own; `source` is the cutoff whose blocks
    were solved and factored.  An accepted pilot's certificate comes with
    it: the residual norm on the modes the pilot leaves out, the lower
    bound delta on the distance to the rest of the spectrum, and the
    Kato-Temple bound ||r||^2 / delta on the eigenvalue's error."""

    cutoff: float  # of the refined matrix
    order: int  # of the refined matrix
    block_orders: tuple[int, ...]  # of the blocks solved and factored
    form: str  # the source's: "parity", "time-reversal", "inversion" or "complex"
    steps: int  # Newton corrections applied
    cluster_size: int  # eigenpairs refined together
    source: float
    tried: tuple[float, ...]
    # the refined cluster's x_hi on the refined matrix's modes, the
    # target's column first: convergence_study's H1 distances
    vectors: np.ndarray = field(repr=False, compare=False)
    outside_residual: float = 0.0
    gap_bound: float | None = None
    kato_temple: float | None = None


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


def _block_columns(pairs, where) -> np.ndarray:
    """Block eigenvectors at (block, column) positions as columns in the
    basis of the blocks."""
    offsets = np.cumsum([0] + [len(vecs) for _, vecs in pairs])
    out = np.zeros((offsets[-1], len(where)), dtype=pairs[0][1].dtype)
    for col, (b, j) in enumerate(where):
        out[offsets[b]:offsets[b + 1], col] = pairs[b][1][:, j]
    return out


def solve_eig(V: FourierSeries1D, cutoff: int, n_pairs: int) -> EigenResult:
    """Lowest n_pairs eigenpairs of the Galerkin operator, ascending, from
    subset eigensolves of its fiber's real blocks; only these pairs are
    rotated back to the exponentials.  Eigenvectors are L2-normalized; their
    sign and the basis of degenerate clusters are whatever eigh returns."""
    dim = 2 * cutoff + 1
    if n_pairs < 1 or n_pairs > dim:
        raise InvalidParameterError(
            f"n_pairs must lie in 1..{dim} for cutoff {cutoff}")
    op = _fiber(series1d_to_lattice(V)[1], np.zeros(1), cutoff, n_pairs)
    values, where = op.solved
    modes = op.rotation.to_modes(_block_columns(op.pairs, where))
    return EigenResult(eigenvalues=values, eigenvectors=[
        FourierSeries1D(cutoff, u / np.linalg.norm(u)) for u in modes.T])


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
        pairs = _lowest_pairs(op.blocks, 2 * max(len(w) for w, _ in pairs))


def _bordered_factors(op: _Operator, pairs, where, shifts):
    """For each block that holds cluster vectors: its rows in the basis of
    the blocks, the cluster columns it holds, and the LU factors of
    [[H_b - sigma, -X_b], [X_b^H, 0]], with X_b those vectors and sigma
    the mean of their shifts."""
    from scipy.linalg import lu_factor  # deferred, as in _lowest_pairs
    offsets = np.cumsum([0] + [len(vecs) for _, vecs in pairs])
    factors = []
    for b, mat in enumerate(op.blocks):
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


def _extended_eigenvalue(op: _Operator, ref: _Operator, index: int, gap: float):
    """Eigenvalue `index` (0-based, ascending) of the matrix of `ref` as a
    double-double pair (hi, lo), from the eigenpairs and blocks of `op`:
    ref itself, or a pilot cut from ref's basis, whose matrix is ref's on
    the pilot's rows.  Also returns the number of Newton corrections, and
    the last residual with the refined cluster's vectors x_hi it was
    formed from, both on ref's modes, one column per eigenpair of the
    cluster, the target's first.

    The eigenvectors of the cluster around `index` (neighbours closer
    than `gap`) are refined together by Newton's method on the bordered
    system: each step forms r = (H - lambda_k) x_k on ref's modes in
    double-double (rounded to double) and solves [[H_b - sigma, -X_b],
    [X_b^H, 0]] [d; m] = [r; 0] on op's modes, on the block b of x_k,
    bordered by its double cluster eigenvectors X_b and factored once;
    x_k moves by -d (zero beyond op's modes) and lambda_k by minus the
    real part of x_k's own multiplier.  The refined cluster's eigenvalues
    are the Ritz values Lambda + G^-1 X^H R (G = X^H X), for several taken
    with mpmath at _MP_PREC bits.
    """
    from scipy.linalg import lu_solve  # deferred, as in _lowest_pairs
    rows = None if op is ref else op.rows

    def padded(v):  # op's modes among ref's
        if rows is None:
            return v
        out = np.zeros((len(ref.diag),) + v.shape[1:], dtype=v.dtype)
        out[rows] = v
        return out

    pairs, first, where, values = _cluster(op, index, gap)
    x_hi = padded(op.rotation.to_modes(_block_columns(pairs, where)))
    x_lo, lam_hi, lam_lo = np.zeros_like(x_hi), values.copy(), np.zeros_like(values)
    factors = _bordered_factors(op, pairs, where, lam_hi)
    offdiag = ref.offdiag
    previous, steps = math.inf, 0
    for step in range(_REFINE_STEPS + 1):
        r = band_residual(ref.diag, offdiag, lam_hi, lam_lo, x_hi, x_lo)
        if step == _REFINE_STEPS:
            break
        rhs = op.rotation.from_modes(r if rows is None else r[rows])
        delta, shift = np.zeros_like(rhs), np.zeros_like(lam_hi)
        for block, cols, lu in factors:
            order = block.stop - block.start
            bordered = np.zeros((order + len(cols), len(cols)), dtype=rhs.dtype)
            bordered[:order] = rhs[block, cols]
            if np.iscomplexobj(bordered) and not np.iscomplexobj(lu[0]):
                # real factors: the real and imaginary parts as columns
                solution = np.ascontiguousarray(lu_solve(
                    lu, bordered.view(float), check_finite=False)).view(complex)
            else:
                solution = lu_solve(lu, bordered, check_finite=False)
            delta[block, cols] = solution[:order]
            shift[cols] = -np.diagonal(solution[order:]).real
        # bounds the eigenvalue shift this correction would still bring,
        # sum_j |q_j^H r|^2 / |mu_j - lambda|, by Cauchy-Schwarz
        pending = np.linalg.norm(r, axis=0) * np.linalg.norm(delta, axis=0)
        correction = padded(op.rotation.to_modes(delta))
        size = float(np.max(np.abs(correction)))
        if np.all(pending <= _SETTLED * np.abs(lam_hi)) or size > 0.5 * previous:
            break
        previous, steps = size, steps + 1
        x_hi, x_lo = dd_add(x_hi, x_lo, -correction)
        lam_hi, lam_lo = dd_add(lam_hi, lam_lo, shift)
    gram = np.conj(x_hi.T) @ x_hi
    coupling = np.linalg.solve(gram, np.conj(x_hi.T) @ r)
    if len(where) == 1:
        return dd_add(lam_hi[0], lam_lo[0], coupling[0, 0].real), steps, r, x_hi
    import mpmath  # deferred: only clusters of several eigenvalues need it
    ctx = mpmath.MPContext()
    ctx.prec = _MP_PREC
    ritz = ctx.matrix(coupling.tolist())
    for k in range(len(where)):
        ritz[k, k] += ctx.mpf(lam_hi[k]) + ctx.mpf(lam_lo[k])
    roots = sorted(ctx.re(z) for z in ctx.eig(ritz, left=False, right=False))
    target = index - first
    hi, order = float(roots[target]), [target, *(k for k in range(len(where)) if k != target)]
    return (hi, float(roots[target] - hi)), steps, r[:, order], x_hi[:, order]


def _pilots(cutoffs, reference_cutoff):
    """The pilot cutoffs of a reference: twice, four times, ... the
    largest study cutoff, below the reference cutoff."""
    pilot = 2 * max(cutoffs)
    while pilot < reference_cutoff:
        yield pilot
        pilot *= 2


def _window(pilot: _Operator, values: np.ndarray, index: int, spread: float,
            outside: np.ndarray):
    """The count check of a pilot's certificate: (alpha, beta) such that
    eigenvalue `index` of the reference H is H's only one in (alpha,
    beta), or None where the bounds below cannot show it.  values are the
    pilot's lowest eigenvalues from eigh, ascending; spread is sum |coef|
    of H's off-diagonal part and outside H's diagonal on the modes the
    pilot leaves out.

    Split ref's matrix by the modes P that the pilot holds and the others
    O, H = [[A, B^H], [B, C]], so that A is the pilot's matrix.  Every row
    of H's off-diagonal part sums at most spread in absolute value, so
    lambda_min(C) >= c = min_O diag - spread (Gershgorin), and ||B|| <=
    sqrt(||B||_1 ||B||_inf) <= spread.  Take t between mu_m, the last of
    the m = count eigenvalues the pilot returns, and mu_{m+1}, the one
    above it.  If c > t, C - t is positive definite, and Haynsworth's
    inertia formula counts H's eigenvalues below t as the negative ones of
    the Schur complement S(t) = A - t - B^H (C - t)^-1 B.  As 0 <= B^H
    (C - t)^-1 B <= eta = spread^2 / (c - t), Weyl puts the i-th
    eigenvalue of S(t) in [mu_i - t - eta, mu_i - t]; so if also mu_{m+1}
    > t + eta, H has exactly m eigenvalues below t.  The same count at
    every s <= t puts H's i-th eigenvalue, i <= m, in [mu_i - eta, mu_i]
    (the upper end by Cauchy interlacing) and its (m+1)-th at t or above.
    So for the target i, alpha = mu_{i-1} (-inf for i = 1) and beta =
    mu_{i+1} - eta (t for i = m), once mu_i - eta > alpha and mu_i <
    beta.  Each mu carries the rounding margin 32 n 2**-53 (max |diag| +
    spread) of eigh on the pilot's rounded blocks of order at most n
    (p(n) eps ||A|| in Demmel, Applied Numerical Linear Algebra, 1997,
    sec. 5.2, with p(n) = 32 n), which c and eta carry as well."""
    m = pilot.count
    slack = 2.0**-48 * len(pilot.diag) * (float(np.max(np.abs(pilot.diag))) + spread)
    t = 0.5 * (values[m - 1] + values[m])
    floor = float(np.min(outside, initial=math.inf)) - spread - slack
    if not floor > t:
        return None
    eta = spread * spread / (floor - t) + slack
    if not values[m - 1] + slack < t < values[m] - eta - slack:
        return None
    alpha = values[index - 1] + slack if index else -math.inf
    beta = values[index + 1] - eta - slack if index + 1 < m else t
    if not alpha < values[index] - eta - slack and values[index] + slack < beta:
        return None
    return alpha, beta


def _certified(residual: float, delta: float, value: float) -> bool:
    """Whether the Kato-Temple bound residual^2 / delta, on the distance
    from value to the eigenvalue it approximates, is settled: at most
    _SETTLED |value|."""
    return delta > 0 and residual * residual <= _SETTLED * abs(value) * delta


def _residual_bound(ref: _Operator, r: np.ndarray, x: np.ndarray, value: float,
                    spread: float) -> float:
    """An upper bound on ||(H - rho) x|| / ||x|| for the Rayleigh quotient
    rho of the column x, which minimizes it over shifts, from the last
    double-double residual r = (H - lambda) x rounded to double.
    band_residual adds exact products, whose absolute values sum to at
    most twice the row of (|diag - value| + |H_off|) |x|, by two_sum
    cascades; for up to 128 of them Sum2's bound (Ogita, Rump & Oishi,
    SIAM J. Sci. Comput. 26, 2005) puts each entry within 2**-53 of itself
    and 2**-91 of that row of the exact one.  And || (|diag - value| +
    |H_off|) |x| || <= || |diag - value| |x| || + spread ||x||; 2**-50 and
    2**-90 leave room for the norms' own rounding."""
    size = np.linalg.norm(x)
    weight = np.linalg.norm(np.abs(ref.diag - value) * np.abs(x[:, 0])) + spread * size
    return float((np.linalg.norm(r) * (1 + 2.0**-50) + 2.0**-90 * weight) / size)


def _refined(op: _Operator, index: int, gap: float, tried: tuple):
    """The value of _extended_eigenvalue on op alone, and its Refinement."""
    value, steps, _, x = _extended_eigenvalue(op, op, index, gap)
    return value, Refinement(tried[-1], len(op.diag), tuple(len(v) for _, v in op.pairs),
                             op.rotation.form, steps, x.shape[1], tried[-1], tried, x)


def _reference(cut: Callable, cutoffs, reference_cutoff: float, index: int, gap: float):
    """Eigenvalue `index` (0-based) of the reference cut(reference_cutoff)
    as a double-double pair, and its Refinement.

    Each pilot of _pilots, the cut at its cutoff, stands in for the
    reference once its certificate holds: the count of _window, then the
    Kato-Temple bound of _certified, first in double on the reference
    rows outside the pilot's for the pilot's own eigenvector, then on the
    last double-double residual of its refinement with delta
    = min(beta - rho, rho - alpha) for the refined value rho.  A target
    that is not alone in its cluster takes the reference itself, as does a
    reference no pilot certifies.  A refused pilot is dropped before the
    reference assembles its own blocks."""
    ref, tried = cut(reference_cutoff), []
    spread = math.fsum(np.abs(ref.offdiag.coef).tolist())
    for cutoff in _pilots(cutoffs, reference_cutoff):
        tried.append(cutoff)
        pilot = cut(cutoff)
        where, values, _ = _ascending(pilot.pairs)
        if len(values) <= pilot.count:  # no pair above the pilot's to show a gap
            continue
        if (index and values[index] - values[index - 1] <= gap) \
                or values[index + 1] - values[index] <= gap:
            break
        outside = np.ones(len(ref.diag), dtype=bool)
        outside[pilot.rows] = False
        window = _window(pilot, values, index, spread, ref.diag[outside])
        if window is None:
            continue
        (alpha, beta), guess = window, values[index]
        x = np.zeros((len(ref.diag), 1), dtype=complex)
        x[pilot.rows] = pilot.rotation.to_modes(_block_columns(pilot.pairs, [where[index]]))
        if not _certified(float(np.linalg.norm(ref.offdiag.product(x)[outside])),
                          min(beta - guess, guess - alpha), guess):
            continue
        (hi, lo), steps, r, x = _extended_eigenvalue(pilot, ref, index, gap)
        delta = float(min(beta - hi, hi - alpha))
        residual = _residual_bound(ref, r, x, hi, spread)
        if _certified(residual, delta, hi):
            return (hi, lo), Refinement(
                reference_cutoff, len(ref.diag), tuple(len(v) for _, v in pilot.pairs),
                pilot.rotation.form, steps, x.shape[1], cutoff, tuple(tried), x,
                float(np.linalg.norm(r[outside])), delta, residual * residual / delta)
    pilot = None  # a refused pilot's blocks go before the reference builds its own
    return _refined(ref, index, gap, (*tried, reference_cutoff))


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

    solve(sample, reference_cutoff) enumerates the sample's basis and
    returns a callable from a cutoff to the _Operator on that cut of it,
    solved on first use.  Each eigenvalue is refined to double-double
    (clusters within `gap` together) and each error, a difference of two,
    is rounded to double once; as every study matrix is a principal
    submatrix of the reference matrix, the exact errors are nonnegative,
    and one that rounds below zero (two equal eigenvalues) reads 0.
    The reference eigenvalue comes from the first certified pilot of
    _reference, where one passes, and then lies within EXTENDED_EPS *
    |lambda_ref| of the reference's own refinement; a reference of twice
    the largest study cutoff tries none.  The rate is fitted above
    EXTENDED_EPS * |lambda_ref|, the largest over the samples.
    """
    if reference_cutoff < 2 * max(cutoffs):
        raise InvalidParameterError(
            "reference cutoff must be at least twice the largest study cutoff")
    errors = np.empty((len(cutoffs), len(samples)))
    refinements, scale = [], 0.0
    for s, sample in enumerate(samples):
        cut = solve(sample, reference_cutoff)
        (ref_hi, ref_lo), record = _reference(cut, cutoffs, reference_cutoff, band - 1, gap)
        records, scale = [record], max(scale, abs(ref_hi))
        for i, cutoff in enumerate(cutoffs):
            (hi, lo), record = _refined(cut(cutoff), band - 1, gap, (cutoff,))
            records.append(record)
            diff, diff_lo = dd_add(hi, lo - ref_lo, -ref_hi)
            error = diff + diff_lo
            errors[i, s] = 0.0 if error < 0 else error
        refinements.append(tuple(records))
    worst = errors.max(axis=1)
    return ErrorTable(errors, worst, fit_log_rate(cutoffs, worst, EXTENDED_EPS * scale),
                      tuple(refinements))


def bz_convergence(V: FourierSeriesD, k_samples, cutoffs, reference_cutoff: float,
                   band: int) -> ErrorTable:
    """error_table of band `band` (1-based) of the Bloch fibers of V over
    the k samples, each one basis enumerated at the reference cutoff."""
    return error_table(lambda k, n: _cuts(V, k, n, band),
                       np.atleast_2d(np.asarray(k_samples, dtype=float)),
                       cutoffs, reference_cutoff, band)


def convergence_study(V: FourierSeries1D, cutoffs, reference_cutoff: int,
                      band: int, cluster_gap: float = 1e-8) -> ConvergenceTable:
    """Eigenvalue errors (error_table) and H1 eigenvector errors against
    a reference solve, `band` 1-based.  The H1 distances are from each
    study cutoff's refined target vector, normalized, to the reference's
    refined cluster (an accepted pilot's, padded with zeros): neighbours
    closer than cluster_gap, chained, so a near-degenerate chain may reach
    further than cluster_gap from the target.  The eigenvector rate is
    fitted above RATE_FIT_FLOOR."""
    cutoffs = [int(n) for n in cutoffs]
    if band < 1:
        raise InvalidParameterError("band index is 1-based")
    if band > 2 * min(cutoffs) + 1:
        raise InvalidParameterError(
            f"band {band} exceeds the {2 * min(cutoffs) + 1} pairs of the "
            "smallest study cutoff")
    embedded = series1d_to_lattice(V)[1]
    table = error_table(lambda _, n: _cuts(embedded, np.zeros(1), n, band), [None],
                        cutoffs, reference_cutoff, band, cluster_gap)
    reference, *study = table.refinements[0]
    space = [FourierSeries1D(int(reference_cutoff), v) for v in reference.vectors.T]
    vec_err = np.empty(len(study))
    for i, record in enumerate(study):
        u = record.vectors[:, 0]
        vec_err[i] = h1_distance(FourierSeries1D(record.cutoff, u / np.linalg.norm(u)), space)
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
