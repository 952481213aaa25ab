"""Error-free transformations and double-double vector arithmetic.

A double-double number is the unevaluated sum hi + lo of two doubles,
good for about 106 bits.  The building blocks are Knuth's two_sum and
Dekker's two_prod, which return a rounded result together with its
exact rounding error; everything is vectorized over numpy arrays and
uses only round-to-nearest double operations, never BLAS, so results do
not depend on the BLAS kernel or the summation order of a library.

Two consumers: the correctly rounded L2 norm of a coefficient vector,
and the residuals (H - lambda) x of a banded Hermitian Galerkin matrix
that drive the extended-precision eigenvalue refinement in `eigen`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves


def two_sum(a, b):
    """s, e with s = fl(a + b) and a + b = s + e exactly (also for complex)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def dd_add(hi, lo, x):
    """Double-double (hi + lo) + x, renormalized (also for complex)."""
    s, t = two_sum(hi, x)
    return two_sum(s, lo + t)


def split(a):
    """hi, lo with a = hi + lo exactly and hi, lo of at most 26 bits each."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """p, e with p = fl(a * b) and a * b = p + e exactly (real operands).

    Exact unless a product overflows or its error falls below the
    subnormal range.
    """
    return _prod(a, split(a), b, split(b))


def norm2(values) -> float:
    """Correctly rounded Euclidean norm of a real or complex array.

    The array is scaled by a power of two, every square is split exactly
    (two_prod) and the squares are summed exactly (math.fsum).  math.sqrt
    of that rounded sum can still sit one ulp off, so the root is settled
    against the exact sum at the midpoints to its neighbours.  The result
    is independent of the order of the entries.  Entries more than about
    500 binary orders of magnitude below the largest one are the only
    ones whose squares are not kept exactly.
    """
    x = np.asarray(values)
    x = np.concatenate((x.real.ravel(), x.imag.ravel())).astype(float)
    top = float(np.max(np.abs(x), initial=0.0))
    if top == 0.0 or not math.isfinite(top):
        return top
    exponent = math.frexp(top)[1]
    x = np.ldexp(x, -exponent)
    p, e = two_prod(x, x)
    squares = p.tolist() + e.tolist()
    root = math.sqrt(math.fsum(squares))
    rr, rr_err = two_prod(root, root)
    # sum - (root + up)^2 and sum - (root - down)^2, both exactly signed
    up = math.ulp(root) / 2
    down = (root - math.nextafter(root, 0.0)) / 2
    odd = math.frexp(root)[0] * 2.0**53 % 2 == 1
    above = math.fsum(squares + [-rr, -rr_err, -2 * root * up, -up * up])
    below = math.fsum(squares + [-rr, -rr_err, 2 * root * down, -down * down])
    if above > 0 or (above == 0 and odd):
        root = math.nextafter(root, math.inf)
    elif below < 0 or (below == 0 and odd):
        root = math.nextafter(root, 0.0)
    return math.ldexp(root, exponent)


def _as_real(x: np.ndarray) -> np.ndarray:
    """Complex (n, m) array as real (2, n, m): real parts, imaginary parts."""
    return np.stack((x.real, x.imag))


def band_residual(diag: np.ndarray, lower: np.ndarray, shift_hi: np.ndarray,
                  shift_lo: np.ndarray, x_hi: np.ndarray, x_lo: np.ndarray):
    """(H - shift) x in double-double, column by column.

    H is the Hermitian matrix with real diagonal `diag` and constant
    subdiagonals lower[d-1] = H[i+d, i] (superdiagonals their conjugates),
    d = 1..len(lower).  x = x_hi + x_lo is an (n, m) complex double-double
    block and shift = shift_hi + shift_lo holds one real double-double
    value per column.  Products are error-free and their sums error-free
    two_sum cascades (Ogita, Rump and Oishi's Sum2, pairwise over the
    band), so the result is as accurate as if computed in twice the
    working precision and then rounded to double: a residual far below
    eps * ||H x|| keeps its leading digits.
    """
    n = len(diag)
    band = lower[:n - 1]
    # row i of the band part of H x is sum_s coef[len(band) + s] x[i + s]
    coef = np.concatenate((band[::-1], [0.0], np.conj(band)))
    xh, xl = _as_real(x_hi), _as_real(x_lo)

    # diagonal term (diag - shift) * x, with diag - shift_hi split exactly
    d_hi, d_lo = two_sum(diag[:, None], -shift_hi[None, :])
    acc, err = _prod(d_hi, split(d_hi), xh, split(xh))
    err += d_hi * xl + (d_lo - shift_lo) * xh

    # real part A x_re - B x_im, imaginary part A x_im + B x_re (coef = A + iB)
    terms = (((0, coef.real, 0), (0, -coef.imag, 1)),
             ((1, coef.real, 1), (1, coef.imag, 0)))
    for col in range(xh.shape[2]):
        for out, weights, part in (t for pair in terms for t in pair):
            src_hi, src_lo = xh[part, :, col], xl[part, :, col]
            if not weights.any() or not (src_hi.any() or src_lo.any()):
                continue
            s, e = _band_dot(weights, src_hi, src_lo)
            acc[out, :, col], t = two_sum(acc[out, :, col], s)
            err[out, :, col] += t + e

    out = acc + err
    return out[0] + 1j * out[1]


# Elements per temporary (chunk x n) array of _band_dot: 64 KiB, small enough
# that a residual at order 1025 adds well under a MiB to the peak memory, and
# the fastest of 2**10..2**18 at that order on a 2-vCPU VM.
_CHUNK_ELEMENTS = 2**13


def _band_dot(weights: np.ndarray, x_hi: np.ndarray, x_lo: np.ndarray):
    """sum_j weights[j] * x[i + j - b] for every row i, as (hi, lo), where
    x = x_hi + x_lo is real double-double, 2b + 1 = len(weights) and
    entries of x outside 0..n-1 are zero.

    The diagonals are taken in chunks of a power-of-two count, each as a
    (chunk x n) block of error-free products summed pairwise by two_sum;
    the chunk sums are cascaded the same way.
    """
    n, width = len(x_hi), len(weights)
    chunk = 1 << max(0, min((width - 1).bit_length(),
                            (_CHUNK_ELEMENTS // n).bit_length() - 1))
    total = -(-width // chunk) * chunk
    w = np.zeros((total, 1))
    w[:width, 0] = weights
    w_hi, w_lo = split(w)
    # x_hi, its two halves and x_lo, zero-padded; row j of a source's view
    # holds x[i + j - b] for i = 0..n-1, diagonal j of the band
    padded = np.zeros((4, n + total - 1))
    padded[0, width // 2:width // 2 + n] = x_hi
    padded[1], padded[2] = split(padded[0])
    padded[3, width // 2:width // 2 + n] = x_lo
    step = padded.strides[1]
    views = as_strided(padded, (4, total, n), (padded.strides[0], step, step),
                       writeable=False)
    hi = lo = 0.0
    for start in range(0, total, chunk):
        rows = slice(start, start + chunk)
        vh, vh_hi, vh_lo, vl = views[:, rows]
        p, e = _prod(w[rows], (w_hi[rows], w_lo[rows]), vh, (vh_hi, vh_lo))
        e += w[rows] * vl
        while len(p) > 1:
            half = len(p) // 2
            p, t = two_sum(p[:half], p[half:])
            e = e[:half] + e[half:] + t
        hi, t = two_sum(hi, p[0])
        lo = lo + (t + e[0])
    return hi, lo


def _prod(a, a_split, b, b_split):
    """two_prod with both operands already split (Dekker)."""
    p = a * b
    ah, al = a_split
    bh, bl = b_split
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl
