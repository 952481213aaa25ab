"""Fourier-Galerkin solution of the source problem -u'' + V u = f.

The operator is V's fiber at k = 0 on the lattice 2*pi*Z (bloch._cuts),
whose real blocks (positive definite as V >= 1) map the coefficients of
real functions to those of real functions: each block is
Cholesky-factored once for both real-function parts of f.  Alongside the
solution the module evaluates the low/high-frequency tail bounds that
control the strip norm of the solution: splitting u = u_low + u_high at
a cutoff M with M^2 above ||V||, the weighted l1 norm that bounds
multiplication by V, the low part obeys the a-priori L2 bound through
the lowest Galerkin eigenvalue alpha, taken from eigen.solve_eig,

    ||u_low||_A <= ||f||_L2 / alpha * sqrt(cosh(2*A*M)),

and the high part, through a Neumann-series argument,

    ||u_high||_A <= (||f_high||_A + ||(V u_low)_high||_A) / (M^2 - ||V||).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import _cuts, series1d_to_lattice
from .errors import PreconditionError, SolverFailureError
from .eigen import solve_eig
from .extended import band_residual, norm2
from .fourier import (FourierSeries1D, grid_values, h1_norm, l2_norm, multiply,
                      multiplier_norm_bound, project, strip_norm, strip_weight)


@dataclass(frozen=True)
class TailBoundReport:
    """Both sides of the low/high frequency estimates at a split cutoff."""

    split_cutoff: int
    low_norm: float
    low_bound: float
    high_norm: float
    high_bound: float
    multiplier_norm: float

    @property
    def low_ok(self) -> bool:
        return self.low_norm <= self.low_bound

    @property
    def high_ok(self) -> bool:
        return self.high_norm <= self.high_bound


def solve_linear(V: FourierSeries1D, f: FourierSeries1D, cutoff: int) -> FourierSeries1D:
    """Galerkin solution of -u'' + V u = f on the modes |k| <= cutoff.

    Requires V real-valued with V >= 1 (checked on a 4*cutoff+1 grid).
    The right-hand side is projected onto the trial space; it may be
    complex-valued.
    """
    return _solve(V, _cuts(series1d_to_lattice(V)[1], np.zeros(1), cutoff, 0), f,
                  cutoff)[0]


def _solve(V: FourierSeries1D, cut, f: FourierSeries1D, cutoff: int):
    """solve_linear on the fiber cut(cutoff) of V's embedding on the
    lattice 2*pi*Z (bloch._cuts), and that fiber, whose blocks it factored."""
    from scipy.linalg import LinAlgError, cho_factor, cho_solve  # deferred, as in eigen
    op = cut(cutoff)
    vmin = float(np.min(grid_values(V, max(4 * cutoff + 1, 2 * V.cutoff + 1)).real))
    if vmin < 1.0 - 1e-12:  # grid transform rounding must not reject V = 1
        raise PreconditionError(
            f"potential dips to {vmin:.6g} < 1 on the sampling grid; "
            "the invertibility condition V >= 1 fails"
        )
    rhs = project(f, cutoff)._padded(cutoff)
    blocks = op.build()  # factored in place
    # the real-function and imaginary-function parts g, h of f = g + i h
    parts = np.split(op.rotation.from_modes(np.stack((rhs, -1j * rhs), axis=1)),
                     np.cumsum([len(block) for block in blocks[:-1]]))
    try:
        factors = [cho_factor(block, overwrite_a=True, check_finite=False) for block in blocks]
    except LinAlgError as exc:
        raise SolverFailureError(f"Galerkin block not positive definite: {exc}") from exc
    q = np.concatenate([cho_solve(c, b, check_finite=False) for c, b in zip(factors, parts)])
    if not np.all(np.isfinite(q)):
        raise SolverFailureError("Galerkin solve produced non-finite values")
    g, h = op.rotation.to_modes(q).T
    return FourierSeries1D(cutoff, g + 1j * h), op


def tail_bound_check(V: FourierSeries1D, f: FourierSeries1D, solve_cutoff: int,
                     split_cutoff: int, half_width: float) -> TailBoundReport:
    """Evaluate the low/high tail estimates for the solution at a split.

    Precondition: split_cutoff**2 must exceed the multiplier norm bound
    of V at the requested half-width, otherwise the Neumann-series
    argument behind the high-frequency bound is void.
    The low bound divides by the lowest Galerkin eigenvalue at
    solve_cutoff.
    """
    v_norm = multiplier_norm_bound(V, half_width)
    if split_cutoff**2 <= v_norm:
        needed = math.floor(math.sqrt(v_norm)) + 1 if v_norm < math.inf else v_norm
        raise PreconditionError(
            f"split cutoff {split_cutoff} too low: need split_cutoff >= {needed} "
            f"so that split_cutoff^2 > {v_norm:.6g}"
        )
    u = solve_linear(V, f, solve_cutoff)
    alpha = float(solve_eig(V, solve_cutoff, 1).eigenvalues[0])
    u_low = project(u, split_cutoff)
    u_high = u - u_low

    low_norm = strip_norm(u_low, half_width)
    low_bound = l2_norm(f) / alpha * math.sqrt(strip_weight(half_width, split_cutoff))

    f_high = f - project(f, split_cutoff)
    vu_low = multiply(V, u_low, V.cutoff + split_cutoff)
    coupling = vu_low - project(vu_low, split_cutoff)
    high_norm = strip_norm(u_high, half_width)
    high_bound = (strip_norm(f_high, half_width) + strip_norm(coupling, half_width)) \
        / (split_cutoff**2 - v_norm)

    return TailBoundReport(
        split_cutoff=split_cutoff,
        low_norm=low_norm,
        low_bound=low_bound,
        high_norm=high_norm,
        high_bound=high_bound,
        multiplier_norm=v_norm,
    )


def refinement_study(V: FourierSeries1D, f: FourierSeries1D, cutoffs,
                     reference_cutoff: int):
    """Errors of the Galerkin solution against a finer reference solve.

    Returns rows (N, residual_l2, err_vs_ref_l2, err_vs_ref_h1); each
    residual H u - f is summed in double-double on the fiber's diagonal and
    coupling.  Every solve is on a cut of one basis of V's embedding.
    """
    cut = _cuts(series1d_to_lattice(V)[1], np.zeros(1), reference_cutoff, 0)
    ref, _ = _solve(V, cut, f, reference_cutoff)
    rows = []
    for n in cutoffs:
        u, op = _solve(V, cut, f, n)
        x, zero = u.coeffs[:, None], np.zeros(1)
        residual = band_residual(op.diag, op.offdiag, zero, zero, x, np.zeros_like(x),
                                 project(f, n)._padded(n)[:, None])
        diff = u - ref
        rows.append((int(n), norm2(residual), l2_norm(diff), h1_norm(diff)))
    return rows
