"""Truncated Fourier series of 2*pi-periodic functions.

A series is stored as the coefficient array (u_k) for k = -N..N in the
unitary normalization

    u_k = (2*pi)**(-1/2) * integral_0^{2*pi} u(x) exp(-i*k*x) dx,

so that Parseval reads ||u||_L2^2 = sum |u_k|^2.  On top of the basic
algebra (projection, exact products, values on the real grid) this
module provides the analyticity-strip machinery: the weighted norms

    ||u||_A^2 = sum_k cosh(2*A*k) |u_k|^2,

which are finite exactly when u extends analytically to the horizontal
strip |Im z| < A with square-integrable boundary traces, the weighted
l1 norm sum_k |v_k| exp(A*|k|) / sqrt(2*pi), which bounds multiplication
by v on that space, and the estimation of the strip half-width from the
exponential decay of the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError
from .extended import exact_lstsq, norm2

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FourierSeries1D:
    """Truncated Fourier series with coefficients indexed k = -cutoff..cutoff.

    Immutable: the coefficient array is copied and marked read-only, so
    instances are safe to share across threads.
    """

    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.cutoff < 0:
            raise InvalidParameterError("cutoff must be nonnegative")
        arr = np.array(self.coeffs, dtype=complex)
        if arr.shape != (2 * self.cutoff + 1,):
            raise InvalidParameterError(
                f"coefficient array must have length {2 * self.cutoff + 1}, "
                f"got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    # -- basic constructors -------------------------------------------------

    @staticmethod
    def mode(k: int, coeff: complex = 1.0) -> "FourierSeries1D":
        """Single Fourier mode: coefficient `coeff` at wavenumber k, cutoff |k|."""
        n = abs(k)
        c = np.zeros(2 * n + 1, dtype=complex)
        c[k + n] = coeff
        return FourierSeries1D(n, c)

    @staticmethod
    def from_callable(f, cutoff: int, n_grid: int | None = None) -> "FourierSeries1D":
        """Sample f on an equispaced grid and transform.

        Exact for trigonometric polynomials of degree <= cutoff whenever
        n_grid >= 2*cutoff+1 (the default); for other analytic functions
        the aliasing error decays exponentially in n_grid.
        """
        n = 2 * cutoff + 1 if n_grid is None else n_grid
        if n < 2 * cutoff + 1:
            raise InvalidParameterError("n_grid must be at least 2*cutoff+1")
        x = 2.0 * np.pi * np.arange(n) / n
        vals = np.asarray(f(x), dtype=complex)
        spec = SQRT_2PI / n * np.fft.fft(vals)
        c = np.empty(2 * cutoff + 1, dtype=complex)
        c[cutoff:] = spec[: cutoff + 1]
        c[:cutoff] = spec[n - cutoff:]
        return FourierSeries1D(cutoff, c)

    # -- accessors -----------------------------------------------------------

    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    def is_real_valued(self) -> bool:
        """Check the conjugate symmetry u_{-k} = conj(u_k) up to
        1e-10 * (1 + max |u_k|)."""
        sym = self.coeffs - np.conj(self.coeffs[::-1])
        scale = 1.0 + np.max(np.abs(self.coeffs))
        return bool(np.max(np.abs(sym)) <= 1e-10 * scale)

    # -- algebra -------------------------------------------------------------

    def _padded(self, cutoff: int) -> np.ndarray:
        out = np.zeros(2 * cutoff + 1, dtype=complex)
        out[cutoff - self.cutoff: cutoff + self.cutoff + 1] = self.coeffs
        return out

    def __add__(self, other: "FourierSeries1D") -> "FourierSeries1D":
        n = max(self.cutoff, other.cutoff)
        return FourierSeries1D(n, self._padded(n) + other._padded(n))

    def __sub__(self, other: "FourierSeries1D") -> "FourierSeries1D":
        n = max(self.cutoff, other.cutoff)
        return FourierSeries1D(n, self._padded(n) - other._padded(n))


@dataclass(frozen=True)
class AnalyticityEstimate:
    """Strip half-width fitted from the decay of Fourier coefficients.

    half_width is the fitted exponential rate A in |u_k| ~ C * (1+k)^(-p)
    * exp(-A*k); prefactor is C; fit_window the (k_min, k_max) index range
    used; residual the RMS misfit of the fit in log space; stride the
    spacing of nonzero coefficients (2 for odd functions).
    """

    half_width: float
    prefactor: float
    fit_window: tuple[int, int]
    residual: float
    stride: int


# -- weights and norms ---------------------------------------------------------


def strip_weight(half_width: float, k) -> np.ndarray | float:
    """Weight cosh(2*A*k) of the strip norm of half-width A.

    Even in k; overflows saturate to +inf rather than raising.
    """
    if half_width <= 0:
        raise InvalidParameterError("strip half-width must be positive")
    with np.errstate(over="ignore"):
        return np.cosh(2.0 * half_width * np.asarray(k, dtype=float))


def l2_norm(u: FourierSeries1D) -> float:
    """sqrt(sum |u_k|^2), correctly rounded from the exact sum of squares.

    The value does not depend on the order of the coefficients or on the
    BLAS kernel (np.linalg.norm sums through BLAS in the kernel's order).
    """
    return norm2(u.coeffs)


def h1_norm(u: FourierSeries1D) -> float:
    k = u.wavenumbers()
    return float(np.sqrt(np.sum((1.0 + k * k) * np.abs(u.coeffs) ** 2)))


def strip_norm(u: FourierSeries1D, half_width: float) -> float:
    """Norm sqrt(sum cosh(2*A*k) |u_k|^2); +inf on overflow, never a crash."""
    w = strip_weight(half_width, u.wavenumbers())
    mags = np.abs(u.coeffs) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        # 0 * inf must count as 0: a vanishing coefficient contributes nothing.
        terms = np.where(mags > 0.0, w * mags, 0.0)
        total = float(np.sum(terms))
    if not np.isfinite(total):
        return math.inf
    return math.sqrt(total)


# -- projection, products, evaluation -----------------------------------------


def project(u: FourierSeries1D, cutoff: int) -> FourierSeries1D:
    """Orthogonal projection onto modes |k| <= cutoff (drops the rest).

    The projector is the same in L2, in every Sobolev norm and in every
    strip norm, and is idempotent.
    """
    if cutoff < 0:
        raise InvalidParameterError("projection cutoff must be nonnegative")
    if cutoff >= u.cutoff:
        return u
    mid = u.cutoff
    return FourierSeries1D(cutoff, u.coeffs[mid - cutoff: mid + cutoff + 1])


def multiply(u: FourierSeries1D, v: FourierSeries1D, out_cutoff: int) -> FourierSeries1D:
    """Exact truncated product: the projection of u*v onto |k| <= out_cutoff.

    Computed by full linear convolution of the coefficients (no aliasing),
    then truncation.  In the unitary normalization the product picks up a
    factor (2*pi)**(-1/2).
    """
    if out_cutoff < 0:
        raise InvalidParameterError("out_cutoff must be nonnegative")
    full = np.convolve(u.coeffs, v.coeffs) / SQRT_2PI
    n_full = u.cutoff + v.cutoff
    out = np.zeros(2 * out_cutoff + 1, dtype=complex)
    lo = max(-out_cutoff, -n_full)
    hi = min(out_cutoff, n_full)
    out[lo + out_cutoff: hi + out_cutoff + 1] = full[lo + n_full: hi + n_full + 1]
    return FourierSeries1D(out_cutoff, out)


def grid_values(u: FourierSeries1D, n_grid: int) -> np.ndarray:
    """Values of u on the equispaced grid x_j = 2*pi*j/n_grid."""
    if n_grid < 2 * u.cutoff + 1:
        raise InvalidParameterError("n_grid must resolve the series")
    spec = np.zeros(n_grid, dtype=complex)
    spec[: u.cutoff + 1] = u.coeffs[u.cutoff:]
    spec[n_grid - u.cutoff:] = u.coeffs[: u.cutoff]
    return n_grid / SQRT_2PI * np.fft.ifft(spec)


# -- strip diagnostics ---------------------------------------------------------


def multiplier_norm_bound(v: FourierSeries1D, half_width: float) -> float:
    """Weighted l1 norm sum_k |v_k| exp(A*|k|) / sqrt(2*pi), exactly summed.

    It bounds sup |v| on the strip |Im z| <= A and, by Young's inequality
    for the weights exp(+-A*k), the norm of multiplication by v on the
    space of strip_norm (van den Berg & Lessard, Notices AMS 62, 2015).
    +inf on overflow; a vanishing coefficient contributes nothing.
    """
    if half_width <= 0:
        raise InvalidParameterError("strip half-width must be positive")
    nonzero = v.coeffs != 0
    with np.errstate(over="ignore"):
        terms = np.abs(v.coeffs[nonzero]) * np.exp(
            half_width * np.abs(v.wavenumbers()[nonzero]))
    try:
        return math.fsum(terms) / SQRT_2PI
    except OverflowError:
        return math.inf


def estimate_strip(u: FourierSeries1D, noise_floor: float = 1e-13) -> AnalyticityEstimate:
    """Fit the exponential decay rate of the coefficient tail.

    Uses the magnitudes m_k = max(|u_k|, |u_{-k}|) for k >= 1.  Indices
    with m_k above noise_floor enter the fit; the stride of nonzero
    coefficients is detected (2 for odd functions), the leading quarter of
    usable indices is discarded to suppress pre-asymptotic transients, and
    log m_k is fit by least squares against the model

        log m_k = log C - A*k - p*log(1+k),

    whose algebraic term absorbs the power-law prefactor that accompanies
    boundary singularities.  The fitted A is the strip half-width.  The
    fit and its misfit are exact, each rounded once (exact_lstsq).
    """
    if noise_floor <= 0:
        raise InvalidParameterError("noise_floor must be positive")
    n = u.cutoff
    ks = np.arange(1, n + 1)
    mags = np.maximum(np.abs(u.coeffs[n + 1:]), np.abs(u.coeffs[n - 1::-1]))
    usable = ks[mags > noise_floor]
    if len(usable) < 8:
        raise InsufficientDataError(
            f"only {len(usable)} coefficients above the noise floor; need at least 8"
        )
    stride = math.gcd(*np.diff(usable).tolist())

    window = usable[len(usable) // 4:]
    kf = window.astype(float)
    (log_c, rate, _), misfit = exact_lstsq([np.ones_like(kf), -kf, -np.log1p(kf)],
                                           np.log(mags[window - 1]))
    if rate <= 0:
        raise InsufficientDataError("no exponential decay detected in the tail")
    return AnalyticityEstimate(
        half_width=rate,
        prefactor=math.exp(log_c),
        fit_window=(int(window[0]), int(window[-1])),
        residual=math.sqrt(misfit),
        stride=stride,
    )


# -- serialization -------------------------------------------------------------


def series_from_json(data: dict) -> FourierSeries1D:
    cutoff = int(data["cutoff"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != im.shape:
        raise InvalidParameterError("'re' and 'im' must have the same length")
    return FourierSeries1D(cutoff, re + 1j * im)
