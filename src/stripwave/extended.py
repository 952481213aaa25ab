"""Error-free transformations and double-double vector arithmetic.

A double-double number is the unevaluated sum hi + lo of two doubles,
good for about 106 bits.  The building blocks are Knuth's two_sum and
Dekker's two_prod, which return a rounded result together with its
exact rounding error; everything is vectorized over numpy arrays and
uses only round-to-nearest double operations, never BLAS, so results do
not depend on the BLAS kernel or the summation order of a library.

Consumers: the correctly rounded L2 norm of a vector, the residuals of
`eigen` and `linear` on the 1D Toeplitz band (Band) or a Bloch fiber
(Gather), and, in exact rational arithmetic, the least-squares fits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

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


def exact_lstsq(columns, y):
    """Least-squares coefficients c of y on the given linearly independent
    columns of X, and the mean squared misfit ||X c - y||^2 / len(y), each
    correctly rounded: every entry is an integer over one common power of
    two, so X^T X c = X^T y is summed exactly in integers and solved in
    fractions, and the misfit is y^T y - c^T X^T y exactly."""
    ratios = list(map(float.as_integer_ratio, np.concatenate((*columns, y)).tolist()))
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    *xs, ys = (ints[start:start + len(y)] for start in range(0, len(ints), len(y)))
    rows = [[Fraction(sum(map(mul, a, b))) for b in (*xs, ys)] for a in xs]
    xty = [row[-1] for row in rows]
    for i, pivot in enumerate(rows):  # Gauss-Jordan; X^T X is positive definite
        for j, row in enumerate(rows):
            if j != i:
                rows[j] = [v - row[i] / pivot[i] * p for v, p in zip(row, pivot)]
    coef = [row[-1] / row[i] for i, row in enumerate(rows)]
    misfit = sum(map(mul, ys, ys)) - sum(map(mul, coef, xty))
    return [float(c) for c in coef], float(misfit / (scale * scale * len(y)))


def band_residual(diag: np.ndarray, coupling, shift_hi: np.ndarray,
                  shift_lo: np.ndarray, x_hi: np.ndarray, x_lo: np.ndarray,
                  rhs: np.ndarray | None = None):
    """(H - shift) x - rhs in double-double, column by column, for the
    Hermitian H with real diagonal `diag` and off-diagonal part `coupling`,
    the (n, m) complex double-double x = x_hi + x_lo, one real double-double
    shift per column and an optional (n, m) rhs.  Products are error-free
    and their sums error-free two_sum cascades (Ogita, Rump and Oishi's
    Sum2, pairwise over the offsets), so the result is as accurate as if
    computed in twice the working precision and then rounded to double:
    a residual far below eps * ||H x|| keeps its leading digits."""
    # real parts and imaginary parts, (2, n, m)
    xh, xl = (np.stack((x.real, x.imag)) for x in (x_hi, x_lo))

    # diagonal term (diag - shift) * x, with diag - shift_hi split exactly
    d_hi, d_lo = two_sum(diag[:, None], -shift_hi[None, :])
    acc, err = _prod(d_hi, split(d_hi), xh, split(xh))
    err += d_hi * xl + (d_lo - shift_lo) * xh
    if rhs is not None:
        acc, t = two_sum(acc, -np.stack((rhs.real, rhs.imag)))
        err += t

    # real part A x_re - B x_im, imaginary part A x_im + B x_re (H = A + iB),
    # summed in this order; each source is gathered once for its two terms
    a, b = coupling.coef.real, coupling.coef.imag
    terms = ((0, a, 0), (0, -b, 1), (1, a, 1), (1, b, 0))
    by_source = [[i for i, (_, w, s) in enumerate(terms) if s == src and w.any()]
                 for src in (0, 1)]
    for col in range(xh.shape[2]):
        sums = [None] * len(terms)
        for src, used in enumerate(by_source):
            src_hi, src_lo = xh[src, :, col], xl[src, :, col]
            if used and (src_hi.any() or src_lo.any()):
                dots = _coupled_dot(coupling, [terms[i][1] for i in used], src_hi, src_lo)
                for i, dot in zip(used, dots):
                    sums[i] = dot
        for (out, _, _), dot in zip(terms, sums):
            if dot is not None:
                acc[out, :, col], t = two_sum(acc[out, :, col], dot[0])
                err[out, :, col] += t + dot[1]

    out = acc + err
    return out[0] + 1j * out[1]


# Elements per temporary (chunk x n) array of _coupled_dot: 64 KiB, small
# enough that a residual at order 1025 adds well under a MiB to the peak
# memory, and the fastest of 2**10..2**18 at that order on a 2-vCPU VM.
_CHUNK_ELEMENTS = 2**13


class Coupling:
    """The off-diagonal part of a Hermitian matrix of order n: row i
    couples by coef[t] to x at its neighbour t.  shifted(sources) maps a
    slice of offsets to the (..., chunk, n) neighbours of the (..., n)
    real sources, zero where there is none.  Chunks hold a power of two
    of offsets, at most _CHUNK_ELEMENTS // n; coef is zero-padded."""

    def __init__(self, coef: np.ndarray, n: int):
        self.n = n
        self.chunk = 1 << max(0, min((len(coef) - 1).bit_length(),
                                     (_CHUNK_ELEMENTS // n).bit_length() - 1))
        self.coef = np.zeros(-(-len(coef) // self.chunk) * self.chunk, dtype=complex)
        self.coef[:len(coef)] = coef


class Band(Coupling):
    """The Hermitian Toeplitz band with constant subdiagonals lower[d-1] =
    H[i+d, i] (superdiagonals their conjugates): offset j joins row i to
    x[i + j - b], 2b + 1 offsets."""

    def __init__(self, lower: np.ndarray, n: int):
        band = lower[:n - 1]
        self.reach = len(band)
        super().__init__(np.concatenate((band[::-1], [0.0], np.conj(band))), n)

    def shifted(self, sources: np.ndarray):
        """Strided views of one zero-padded copy, a view row per diagonal."""
        n, total = self.n, len(self.coef)
        padded = np.zeros(sources.shape[:-1] + (n + total - 1,))
        padded[..., self.reach:self.reach + n] = sources
        step = padded.strides[-1]
        views = as_strided(padded, sources.shape[:-1] + (total, n),
                           padded.strides[:-1] + (step, step), writeable=False)
        return lambda rows: views[..., rows, :]


class Gather(Coupling):
    """Offsets on a flat-numbered box of lattice points: offset t joins
    row i to x[index[flat[i] - step[t]]], index holding each point's row
    and n off the basis; step is zero-padded.  Neighbours are looked up
    a chunk of offsets at a time, so the stored arrays grow with the box,
    the rows and the offsets, never with their product."""

    def __init__(self, coef: np.ndarray, index: np.ndarray, flat: np.ndarray,
                 step: np.ndarray):
        super().__init__(coef, len(flat))
        self.index, self.flat = index, flat
        self.step = np.pad(step, (0, len(self.coef) - len(step)))

    def shifted(self, sources: np.ndarray):
        """Gathered from a copy with one zero appended."""
        padded = np.zeros(sources.shape[:-1] + (self.n + 1,))
        padded[..., :-1] = sources
        return lambda rows: np.take(padded, self.index[self.flat - self.step[rows, None]],
                                    axis=-1)


def _coupled_dot(coupling, weights, x_hi: np.ndarray, x_lo: np.ndarray):
    """sum_t w[t] * x[neighbour t of i] for every row i, as (hi, lo), for
    each w of `weights` and the real double-double x = x_hi + x_lo; the
    neighbours are gathered once for all of them.  Each chunk of offsets
    is a block of error-free products summed pairwise by two_sum; the
    chunk sums are cascaded."""
    views = coupling.shifted(np.stack((x_hi, *split(x_hi), x_lo)))
    sums = [(0.0, 0.0)] * len(weights)
    for start in range(0, len(coupling.coef), coupling.chunk):
        rows = slice(start, start + coupling.chunk)
        vh, vh_hi, vh_lo, vl = views(rows)
        for j, weight in enumerate(weights):
            w = weight[rows, None]
            p, e = _prod(w, split(w), vh, (vh_hi, vh_lo))
            e += w * vl
            while len(p) > 1:
                half = len(p) // 2
                p, t = two_sum(p[:half], p[half:])
                e = e[:half] + e[half:] + t
            hi, t = two_sum(sums[j][0], p[0])
            sums[j] = (hi, sums[j][1] + (t + e[0]))
    return sums


def _prod(a, a_split, b, b_split):
    """two_prod with both operands already split (Dekker)."""
    p = a * b
    ah, al = a_split
    bh, bl = b_split
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl
