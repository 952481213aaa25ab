"""Fourier-Galerkin solution of the source problem -u'' + V u = f.

The solve is a dense Hermitian system on the modes |k| <= N.  Alongside
the solution the module evaluates the a-priori L2 bound through the
lowest Galerkin eigenvalue, taken from the real cosine/sine blocks of
the operator (galerkin.real_blocks), and the low/high-frequency tail
bounds that control the strip norm of the solution: splitting
u = u_low + u_high at a cutoff M with M^2 above the multiplier norm of
V, the low part obeys

    ||u_low||_A <= ||f||_L2 / alpha * sqrt(cosh(2*A*M)),

and the high part, through a Neumann-series argument,

    ||u_high||_A <= (||f_high||_A + ||(V u_low)_high||_A) / (M^2 - ||V||).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SolverFailureError
from .fourier import (FourierSeries1D, grid_values, h1_norm, l2_norm, multiply,
                      multiplier_norm_bound, project, strip_norm, strip_weight)
from .galerkin import assemble_dense, coefficient_column, real_blocks


@dataclass(frozen=True)
class LinearSolveResult:
    solution: FourierSeries1D
    residual_l2: float
    lowest_eigenvalue: float  # lambda_1 of the Galerkin operator at this cutoff


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


def _check_invertibility(V: FourierSeries1D, cutoff: int) -> None:
    if not V.is_real_valued(tol=1e-10):
        raise PreconditionError("potential must be real-valued")
    n = 4 * cutoff + 1
    vmin = float(np.min(grid_values(V, max(n, 2 * V.cutoff + 1)).real))
    if vmin < 1.0 - 1e-12:  # grid transform rounding must not reject V = 1
        raise PreconditionError(
            f"potential dips to {vmin:.6g} < 1 on the sampling grid; "
            "the invertibility condition V >= 1 fails"
        )


def solve_linear(V: FourierSeries1D, f: FourierSeries1D, cutoff: int) -> LinearSolveResult:
    """Galerkin solution of -u'' + V u = f on the modes |k| <= cutoff.

    Requires V real-valued with V >= 1 (checked on a 4*cutoff+1 grid).
    The right-hand side is projected onto the trial space.
    """
    import scipy.linalg  # deferred: studies without a linear solve never load it
    _check_invertibility(V, cutoff)
    H = assemble_dense(V, cutoff)
    rhs = project(f, cutoff)._padded(cutoff)
    try:
        u = scipy.linalg.solve(H, rhs, assume_a="her")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise SolverFailureError(f"Galerkin system is singular: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise SolverFailureError("Galerkin solve produced non-finite values")
    residual = float(np.linalg.norm(H @ u - rhs))
    alpha = min(float(np.linalg.eigvalsh(block)[0])
                for block in real_blocks(coefficient_column(V, cutoff)))
    return LinearSolveResult(
        solution=FourierSeries1D(cutoff, u),
        residual_l2=residual,
        lowest_eigenvalue=alpha,
    )


def tail_bound_check(V: FourierSeries1D, f: FourierSeries1D, solve_cutoff: int,
                     split_cutoff: int, half_width: float) -> TailBoundReport:
    """Evaluate the low/high tail estimates for the solution at a split.

    Precondition: split_cutoff**2 must exceed the multiplier-norm
    surrogate of V at the requested half-width, otherwise the
    Neumann-series argument behind the high-frequency bound is void.
    """
    v_norm = multiplier_norm_bound(V, half_width)
    if split_cutoff**2 <= v_norm:
        needed = math.floor(math.sqrt(v_norm)) + 1
        raise PreconditionError(
            f"split cutoff {split_cutoff} too low: need split_cutoff >= {needed} "
            f"so that split_cutoff^2 > {v_norm:.6g}"
        )
    result = solve_linear(V, f, solve_cutoff)
    u = result.solution
    u_low = project(u, split_cutoff)
    u_high = u - u_low

    low_norm = strip_norm(u_low, half_width)
    low_bound = (l2_norm(f) / result.lowest_eigenvalue
                 * math.sqrt(strip_weight(half_width, split_cutoff)))

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

    Returns rows (N, residual_l2, err_vs_ref_l2, err_vs_ref_h1).
    """
    ref = solve_linear(V, f, reference_cutoff).solution
    rows = []
    for n in cutoffs:
        res = solve_linear(V, f, n)
        diff = res.solution - ref
        rows.append((int(n), res.residual_l2, l2_norm(diff), h1_norm(diff)))
    return rows
