"""Error-free transformations and double-double vector arithmetic.

A double-double number is the unevaluated sum hi + lo of two doubles,
good for about 106 bits.  The building blocks are Knuth's two_sum and
Dekker's two_prod, which return a rounded result together with its
exact rounding error, vectorized over numpy arrays.  The one BLAS call,
the coupling product of the residuals, sums integer slices exactly in
double in any order: no result depends on the BLAS kernel or threads.

Consumers: the correctly rounded L2 norm, the residuals of `eigen` and `linear`
on a Bloch fiber's offsets (the Toeplitz band, Band, at d = 1; Gather above),
and the exact fits.  Band and Gather also multiply in plain double, for the
quick check of a pilot in `eigen`.

A residual is computed only on the rows its live rows (where x or the rhs is
nonzero) reach through the coupling: a band reaches `reach` rows either side
of them, so a pilot's vector padded into a larger reference costs its own
rows and their neighbours, not the reference's order.  Every other row is an
exact zero.  The computed rows round exactly as in the full order: the
products are the same exact sums, and the cascade keeps the full order's
block size.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
_BUDGET = 2**14  # elements of one product's neighbours or one cascade block (128 KiB)


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
    """p, e with p = fl(a * b) and a * b = p + e exactly (real operands,
    Dekker): exact unless a product overflows or its error falls below the
    subnormal range."""
    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def norm2(values) -> float:
    """Correctly rounded Euclidean norm of a real or complex array.

    The array is scaled by a power of two, every square is split exactly
    (two_prod) and the squares are summed exactly (math.fsum).  math.sqrt
    of that rounded sum can still sit one ulp off, so the root is settled
    against the exact sum at the midpoints to its neighbours.  The result
    is independent of the order of the entries.  Entries more than about
    500 binary orders of magnitude below the largest one are the only
    ones whose squares are not kept exactly.  A real array has no
    imaginary half to square: its zeros would add nothing to the exact
    sums.
    """
    x = np.asarray(values)
    if np.iscomplexobj(x):
        x = np.concatenate((x.real.ravel(), x.imag.ravel()))
    x = x.ravel().astype(float)
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
    """(H - shift) x - rhs, column by column, for the Hermitian H with real diagonal
    `diag` and off-diagonal part `coupling`, the (n, m) complex double-double x = x_hi
    + x_lo, one real double-double shift per column and an optional (n, m) rhs: exact
    products added largest first by two_sum cascades (Ogita, Rump & Oishi's Sum2).

    Only the rows that the live rows (x or rhs nonzero, in any column) reach through
    the coupling are computed; the others are exact zeros.  The cascade adds blocks
    of the full order's size, so each computed row rounds as it would in the full
    order."""
    out = np.zeros(x_hi.shape, dtype=complex)
    live = x_hi.any(axis=1) | x_lo.any(axis=1)
    if rhs is not None:
        live |= rhs.any(axis=1)
    live = np.flatnonzero(live)
    if not len(live):
        return out
    rows = coupling.reached(int(live[0]), int(live[-1]))
    step = max(1, _BUDGET // (2 * x_hi.size))  # the full order's block
    xh, xl, rhs = (None if z is None else  # as (rows, m, 2) real pairs
                   np.ascontiguousarray(z[rows, :, None], complex).view(float)
                   for z in (x_hi, x_lo, rhs))
    # diag - shift_hi, exactly
    d_hi, d_lo = two_sum(diag[rows, None, None], -shift_hi[:, None])
    acc, err = two_prod(d_hi, xh)
    err += d_hi * xl + (d_lo - shift_lo[:, None]) * xh
    acc, t = (acc, 0.0) if rhs is None else two_sum(acc, -rhs)
    err += t
    terms = coupling.terms(*two_sum(xh, xl))
    for first in range(0, len(terms), step):  # a block of terms at a time
        block = np.concatenate((acc[None], terms[first:first + step]))
        partial = np.cumsum(block, axis=0)
        bb = partial[1:] - partial[:-1]  # two_sum's errors, in place
        block[1:] -= bb
        np.subtract(partial[:-1], np.subtract(partial[1:], bb, out=bb), out=bb)
        bb += block[1:]
        acc, err = partial[-1], err + bb.sum(axis=0)
    out[rows] = (acc + err).view(complex)[..., 0]
    return out


def _digits(v: np.ndarray, lo: np.ndarray, bits: int):
    """(digits, t): integer slices below 2**bits of the rows of the (B, L) double-double
    v + lo, |lo| <= ulp(v) / 2, |v| < 2**t: sum_s digits[s] 2**(t - (s + 1) bits)."""
    size = np.abs(both := np.array((v, lo)))
    top = np.frexp(size[0].max(axis=-1, initial=0.0))[1]
    lowest = np.frexp(np.minimum.reduce(size, None, initial=np.inf, where=size > 0))[1] - 53
    count = -(-(int(top.max()) - int(lowest)) // bits)
    # |v| / 2**grid truncated, less the part above the slice
    scale = (bits * np.arange(1, count + 1, dtype=np.int32)[:, None] - top)[:, None, :, None]
    if bits * count < 1024:
        cut = np.trunc(quotient := np.ldexp(size, scale), out=quotient)
        cut[1:] -= np.ldexp(cut[:-1], bits)
    else:  # a quotient that overflows has no bit at or below its slice
        with np.errstate(over="ignore"):
            cut = np.fmod(np.trunc(np.minimum(np.ldexp(size, scale), 2.0**1000)), 2.0**bits)
    np.copysign(cut, both, out=cut)
    return cut[:, 0] + cut[:, 1], top  # below 2**bits: lo lies below v's last bit


class Coupling:
    """The off-diagonal part of a Hermitian matrix of order n: row i couples by
    coef[t] to x at its neighbour t, shifted(sources)(rows)(cols) being the (cols,
    rows, n) neighbours of the (S, n) sources at the offsets `rows`.  Error-free
    splitting (Ozaki, Ogita, Oishi & Rump, Numer. Algorithms 59, 2012): coef and each
    column of x, both parts against one exponent, give integer slices of `bits` bits;
    a row's sums of products of slices k and l - k, over offsets and k, stay below 2**53."""

    def __init__(self, coef: np.ndarray, n: int):
        self.n, self.coef = n, coef
        # a row has at most n - 1 nonzero terms, one per other row
        terms = (max(1, min(int(np.count_nonzero(coef)), n - 1)) - 1).bit_length()
        parts = np.concatenate((coef.real, coef.imag))[None]
        size = np.abs(parts[parts != 0])  # _digits' slice count is ceil(span / bits)
        span = np.frexp(size.max(initial=0.0))[1] - np.frexp(size.min(initial=np.inf))[1] + 53
        self.bits = next(b for b in range((53 - terms) // 2, 0, -1)
                         if 2 * -(-int(span) // b) <= 2 ** (53 - terms - 2 * b))
        digits, (self.top,) = _digits(parts, np.zeros_like(parts), self.bits)
        digits = digits.reshape(len(digits), 2, len(coef))
        self.parts = [p for p in (0, 1) if digits[:, p].any()]
        self.slices = digits[:, self.parts]

    def reached(self, first: int, last: int) -> slice:
        """The rows that x on rows first..last can reach: all of them here."""
        return slice(0, self.n)

    def terms(self, x_hi: np.ndarray, x_lo: np.ndarray):
        """H x for the real double-double (n, m, 2) x = x_hi + x_lo, |x_lo| <=
        ulp(x_hi) / 2, as (count, n, m, 2) terms adding up to it exactly,
        largest first (H = A + iB: A x_re - B x_im, A x_im + B x_re)."""
        n, m, parts = x_hi.shape
        used = x_hi.any(axis=(0, 1)).nonzero()[0].tolist()
        digits, top = _digits(*(v.transpose(1, 0, 2).reshape(m, n * parts)
                                for v in (x_hi, x_lo)), self.bits)
        neighbours = self.shifted(digits.reshape(len(digits), m, n, parts)[..., used]
                                  .transpose(0, 1, 3, 2).reshape(-1, n))
        where = list(np.ndindex(len(digits), m, len(used)))
        # weight part w and source part s feed part (w + s) % 2, with -B x_im:
        # a source's parts in the last axis run backwards when s = 1
        at = [min(((w + s) % 2 for w in self.parts), default=0) for s in used]
        sign = [np.array([[1.0], [-1.0]])[self.parts] if s else 1.0 for s in used]
        levels = np.zeros((len(self.slices) + len(digits) - 1, n, m, parts))
        # offsets, then sources, a chunk at a time within the memory budget
        chunk = max(1, min(len(self.coef), _BUDGET // n))
        block = max(1, _BUDGET // (n * chunk))
        for start in range(0, len(self.coef), chunk):
            weights = self.slices[..., start:start + chunk]
            live = weights.any(axis=(1, 2)).nonzero()[0]  # the slices with a digit here
            if not len(live):
                continue
            low, high, near = live[0], live[-1] + 1, neighbours(slice(start, start + chunk))
            weights = weights[low:high].reshape((high - low) * len(self.parts), -1)
            for first in range(0, len(where), block):
                sums = weights @ near(slice(first, first + block))
                for (q, c, j), pair in zip(where[first:first + block], sums):
                    pair = pair.reshape(high - low, -1, n)
                    pair *= sign[j]
                    levels[q + low:q + high, :, c, at[j]:at[j] + len(self.parts)] += \
                        pair[:, ::1 - 2 * used[j]].transpose(0, 2, 1)
        return np.ldexp(levels, (self.top + top - self.bits * np.arange(
            2, len(levels) + 2, dtype=np.int32)[:, None])[:, None, :, None], out=levels)


class Band(Coupling):
    """The Hermitian Toeplitz band with subdiagonals lower[d-1] = H[i+d, i]
    (superdiagonals their conjugates): offset j joins row i to x[i + j - b]."""

    def __init__(self, lower: np.ndarray, n: int):
        self.reach = len(band := lower[:n - 1])
        super().__init__(np.concatenate((band[::-1], [0.0], np.conj(band))), n)

    def reached(self, first: int, last: int) -> slice:
        """Rows first..last and `reach` rows either side, within the order."""
        return slice(max(0, first - self.reach), min(self.n, last + 1 + self.reach))

    def shifted(self, sources: np.ndarray):
        """Copies of windows of one zero-padded copy, a window per offset.  The
        sources may be any run of rows reached() returned: the band is the same
        Toeplitz band on it, and x is zero beyond it."""
        n = sources.shape[1]
        padded = np.zeros((len(sources), n + len(self.coef) - 1))
        padded[:, self.reach:self.reach + n] = sources
        windows = np.ndarray((len(sources), len(self.coef), n), buffer=padded,
                             strides=(padded.strides[0],) + padded.strides[1:] * 2)
        return lambda rows: lambda cols: windows[cols, rows].copy()

    def product(self, x: np.ndarray) -> np.ndarray:
        """The band times the (n, m) x in double, a convolution per column."""
        kernel = self.coef[::-1]
        return np.stack([np.convolve(column, kernel)[self.reach:self.reach + self.n]
                         for column in x.T], axis=1)


class Gather(Coupling):
    """Offsets on a flat-numbered box of lattice points: offset t joins row i to
    x[index[flat[i] - step[t]]], index holding each point's row (n off the basis);
    offsets by decreasing |coef|, so that a chunk of them meets few slices."""

    def __init__(self, coef: np.ndarray, index: np.ndarray, flat: np.ndarray,
                 step: np.ndarray):
        super().__init__(coef[order := np.argsort(-np.abs(coef), kind="stable")], len(flat))
        self.index, self.flat, self.step = index, flat, step[order]

    def shifted(self, sources: np.ndarray):
        """Gathered from a copy with one zero appended, a chunk at a time."""
        padded = np.concatenate((sources, np.zeros((len(sources), 1))), axis=1)

        def near(rows):
            index = self.index[self.flat - self.step[rows, None]]
            return lambda cols: np.take(padded[cols], index, axis=1)
        return near

    def product(self, x: np.ndarray) -> np.ndarray:
        """The offsets times the (n, m) x in double, a chunk at a time."""
        padded = np.concatenate((x, np.zeros((1, x.shape[1]))))
        out = np.zeros(x.shape, dtype=complex)
        chunk = max(1, _BUDGET // (len(self.flat) * x.shape[1]))
        for start in range(0, len(self.coef), chunk):
            rows = slice(start, start + chunk)
            near = padded[self.index[self.flat - self.step[rows, None]]]
            out += np.einsum("t,tnm->nm", self.coef[rows], near)
        return out
