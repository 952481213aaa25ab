"""The dense planewave Galerkin matrix of -d2/dx2 + V, and the Rayleigh
quotient polish of the eigen path.

In the exponentials e_k, |k| <= N, the operator is the complex Hermitian
Toeplitz matrix k^2 delta_{kk'} + t_{k-k'} with t_d = V_d / sqrt(2*pi).
The solvers build it as the fiber at k = 0 of the lattice 2*pi*Z
(bloch._fiber), in real blocks; assemble_dense builds the whole matrix
directly from V's coefficients, the reference that the lattice path is
checked against.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PreconditionError
from .fourier import SQRT_2PI, FourierSeries1D

SQRT2 = math.sqrt(2.0)


def assemble_dense(V: FourierSeries1D, cutoff: int) -> np.ndarray:
    """Matrix with entries k^2 delta_{kk'} + V_{k-k'} / sqrt(2*pi), |k|,|k'| <= cutoff.

    Coefficients of V beyond its stored cutoff are exactly zero.  The
    potential coefficients are conjugate-symmetrized so the matrix is
    Hermitian by construction.
    """
    if not V.is_real_valued():
        raise PreconditionError("potential must be real-valued")
    with np.errstate(over="ignore", invalid="ignore"):
        vsym = 0.5 * (V.coeffs + np.conj(V.coeffs[::-1]))
    if not np.all(np.isfinite(vsym)):
        raise PreconditionError("potential coefficients overflow when symmetrized")
    nv, n = V.cutoff, 2 * cutoff + 1
    d = np.arange(1 - n, n)
    vals = np.where(np.abs(d) <= nv, np.take(vsym, np.clip(nv + d, 0, 2 * nv)), 0.0)
    # a strided Toeplitz view [i, j] = V_{i-j}; the division copies it
    mat = sliding_window_view(vals, n)[:, ::-1] / SQRT_2PI
    k = np.arange(-cutoff, cutoff + 1)
    mat[np.diag_indices_from(mat)] += k * k
    return mat


def rayleigh_polish(H: np.ndarray, vec: np.ndarray) -> float:
    """Exactly-summed Rayleigh quotient of vec: quadratic in its error as an
    eigenvector of the Hermitian matrix H."""
    hv = H @ vec
    num = math.fsum((np.conj(vec) * hv).real)
    den = math.fsum(np.abs(vec) ** 2)
    return num / den
