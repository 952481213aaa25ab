"""Shared assembly of the planewave Galerkin operator -d2/dx2 + V.

In the exponentials e_k, |k| <= N, the operator is the complex Hermitian
Toeplitz matrix k^2 delta_{kk'} + t_{k-k'} with t_d = V_d / sqrt(2*pi).
For real V it is real in the orthonormal basis

    phi_0 = e_0,  c_k = (e_k + e_{-k}) / sqrt(2),  s_k = -i (e_k - e_{-k}) / sqrt(2),

k = 1..N, ordered [phi_0, c_1..c_N, s_1..s_N].  With t_d = a_d + i b_d
(a even and b odd in d) its entries are Toeplitz plus or minus Hankel
terms of the coefficients:

    cos/cos  a_{k-j} + a_{k+j} + k^2 delta_kj    (row 0: sqrt(2) a_j, a_0)
    sin/sin  a_{k-j} - a_{k+j} + k^2 delta_kj
    cos/sin  b_{k-j} - b_{k+j}                   (row 0: -sqrt(2) b_j)

For even V every b_d is zero, so the matrix splits into a cosine block
of order N + 1 and a sine block of order N (Boyd, Chebyshev and Fourier
Spectral Methods, 2nd ed., 2001, ch. 8).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PreconditionError
from .fourier import SQRT_2PI, FourierSeries1D

SQRT2 = math.sqrt(2.0)


def _symmetrized(V: FourierSeries1D, cutoff: int):
    """Conjugate-symmetrized coefficients V_d and V_{-d}, d = 0..2*cutoff,
    zero beyond the stored cutoff of V."""
    if not V.is_real_valued(tol=1e-10):
        raise PreconditionError("potential must be real-valued")
    with np.errstate(over="ignore", invalid="ignore"):
        vsym = 0.5 * (V.coeffs + np.conj(V.coeffs[::-1]))
    if not np.all(np.isfinite(vsym)):
        raise PreconditionError("potential coefficients overflow when symmetrized")
    nv = V.cutoff
    diffs = np.arange(0, 2 * cutoff + 1)
    col = np.where(diffs <= nv, np.take(vsym, np.minimum(nv + diffs, 2 * nv)), 0.0)
    row = np.where(diffs <= nv, np.take(vsym, np.maximum(nv - diffs, 0)), 0.0)
    return col, row


def _toeplitz(sym: np.ndarray, size: int) -> np.ndarray:
    """Read-only strided view [i, j] = sym[size - 1 + i - j], i, j < size,
    of an array of length 2 * size - 1."""
    return sliding_window_view(sym, size)[:, ::-1]


def assemble_dense(V: FourierSeries1D, cutoff: int) -> np.ndarray:
    """Matrix with entries k^2 delta_{kk'} + V_{k-k'} / sqrt(2*pi), |k|,|k'| <= cutoff.

    Coefficients of V beyond its stored cutoff are exactly zero.  The
    potential coefficients are conjugate-symmetrized so the matrix is
    Hermitian by construction.
    """
    col, row = _symmetrized(V, cutoff)
    n = 2 * cutoff + 1
    vals = np.concatenate((row[:0:-1], col))  # vals[n - 1 + d] = V_d, |d| < n
    mat = _toeplitz(vals, n) / SQRT_2PI  # the division copies the view
    k = np.arange(-cutoff, cutoff + 1)
    mat[np.diag_indices_from(mat)] += k * k
    return mat


def coefficient_column(V: FourierSeries1D, cutoff: int) -> np.ndarray:
    """t_d = V_d / sqrt(2*pi) for d = 0..2*cutoff: the first column of
    assemble_dense without its k^2 diagonal, bit for bit."""
    return _symmetrized(V, cutoff)[0] / SQRT_2PI


def real_blocks(column: np.ndarray) -> list[np.ndarray]:
    """Diagonal blocks of the Galerkin matrix in the real basis
    [phi_0, c_1..c_N, s_1..s_N], from the coefficient_column of order N.

    The cosine block (order N + 1) and the sine block (order N, left out
    for N = 0) when every b_d is exactly zero; otherwise the one coupled
    matrix of order 2N + 1.  Each block is exactly symmetric.
    """
    n = (len(column) - 1) // 2
    a, b = column.real, column.imag
    square = np.arange(n + 1) ** 2.0
    # Toeplitz x_{k-j} and Hankel x_{k+j} as views over k, j = 0..N
    even_a = _toeplitz(np.concatenate((a[n:0:-1], a[:n + 1])), n + 1)
    hankel = sliding_window_view(column, n + 1)
    # each block is one new array, its diagonal added in place
    cos = even_a + hankel.real
    cos.flat[::n + 2] += square
    cos[0, 0] = a[0]
    cos[0, 1:] = cos[1:, 0] = SQRT2 * a[1:n + 1]
    sin = even_a[1:, 1:] - hankel.real[1:, 1:]
    sin.flat[::n + 1] += square[1:]
    if not np.any(b):
        return [cos, sin] if n else [cos]

    odd_b = _toeplitz(np.concatenate((-b[n:0:-1], b[:n + 1])), n + 1)
    coupling = (odd_b - hankel.imag)[:, 1:]
    coupling[0] = -SQRT2 * b[1:n + 1]
    return [np.block([[cos, coupling], [coupling.T, sin]])]


def to_modes(q: np.ndarray) -> np.ndarray:
    """Columns in the real basis [phi_0, c_1..c_N, s_1..s_N] as
    coefficients of e_k, k = -N..N:
    u_0 = q_0, u_{+-k} = (q_ck -+ i q_sk) / sqrt(2)."""
    n = (len(q) - 1) // 2
    c, s = q[1:n + 1] / SQRT2, q[n + 1:] / SQRT2
    u = np.empty(q.shape, dtype=complex)
    u.real[n], u.imag[n] = q[0], 0.0
    u.real[n + 1:], u.imag[n + 1:] = c, -s
    u.real[:n], u.imag[:n] = c[::-1], s[::-1]
    return u


def from_modes(r: np.ndarray) -> np.ndarray:
    """Coefficients of e_k as columns in the real basis, by the adjoint of
    to_modes: the real parts of r_0, (r_k + r_{-k}) / sqrt(2) and
    i (r_k - r_{-k}) / sqrt(2).  For r with r_{-k} = conj(r_k), as the
    Galerkin matrix maps such vectors to such vectors, the imaginary
    parts left out are zero."""
    n = (len(r) - 1) // 2
    up, down = r[n + 1:], r[:n][::-1]  # k = 1..N and k = -1..-N
    return np.concatenate((r[n:n + 1].real, (up.real + down.real) / SQRT2,
                           (down.imag - up.imag) / SQRT2))


def rayleigh_polish(H: np.ndarray, vec: np.ndarray) -> float:
    """Exactly-summed Rayleigh quotient of vec: quadratic in its error as an
    eigenvector of the Hermitian matrix H."""
    hv = H @ vec
    num = math.fsum((np.conj(vec) * hv).real)
    den = math.fsum(np.abs(vec) ** 2)
    return num / den
