"""Truncated Fourier series of 2*pi-periodic functions.

A series is stored as the coefficient array (u_k) for k = -N..N in the
unitary normalization

    u_k = (2*pi)**(-1/2) * integral_0^{2*pi} u(x) exp(-i*k*x) dx,

so that Parseval reads ||u||_L2^2 = sum |u_k|^2.  On top of the basic
algebra (projection, exact products, evaluation in the complex plane)
this module provides the analyticity-strip machinery: the weighted norms

    ||u||_A^2 = sum_k cosh(2*A*k) |u_k|^2,

which are finite exactly when u extends analytically to the horizontal
strip |Im z| < A with square-integrable boundary traces, a sup-norm
surrogate for the operator norm of multiplication by an analytic
function on that space, and the estimation of the strip half-width from
the exponential decay of the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError
from .extended import norm2

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
    def zeros(cutoff: int) -> "FourierSeries1D":
        return FourierSeries1D(cutoff, np.zeros(2 * cutoff + 1, dtype=complex))

    @staticmethod
    def mode(k: int, coeff: complex = 1.0, cutoff: int | None = None) -> "FourierSeries1D":
        """Single Fourier mode: coefficient `coeff` at wavenumber k."""
        n = abs(k) if cutoff is None else cutoff
        if abs(k) > n:
            raise InvalidParameterError(f"mode {k} outside cutoff {n}")
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

    def coefficient(self, k: int) -> complex:
        if abs(k) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.cutoff])

    def is_real_valued(self, tol: float = 1e-12) -> bool:
        """Check the conjugate symmetry u_{-k} = conj(u_k) up to tol."""
        sym = self.coeffs - np.conj(self.coeffs[::-1])
        scale = 1.0 + np.max(np.abs(self.coeffs))
        return bool(np.max(np.abs(sym)) <= tol * scale)

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

    def __mul__(self, scalar) -> "FourierSeries1D":
        return FourierSeries1D(self.cutoff, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "FourierSeries1D":
        return FourierSeries1D(self.cutoff, -self.coeffs)


@dataclass(frozen=True)
class AnalyticityEstimate:
    """Strip half-width fitted from the decay of Fourier coefficients.

    half_width is the fitted exponential rate A in |u_k| ~ C * (1+k)^(-p)
    * exp(-A*k); prefactor is C; fit_window the (k_min, k_max) index range
    used; residual the RMS misfit of the fit in log space; stride the
    spacing of nonzero coefficients (2 for odd functions); step_ratios the
    per-step decay diagnostics log(|u_k| / |u_{k+s}|) / s.
    """

    half_width: float
    prefactor: float
    fit_window: tuple[int, int]
    residual: float
    stride: int
    step_ratios: np.ndarray


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


def evaluate(u: FourierSeries1D, z) -> np.ndarray | complex:
    """Evaluate sum_k u_k exp(i*k*z) / sqrt(2*pi) at real or complex z.

    Valid wherever the series converges; outside the convergence strip the
    divergence shows up as large magnitudes or inf, not as an exception.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    k = u.wavenumbers()
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(1j * np.outer(z_arr, k))
        vals = phases @ u.coeffs / SQRT_2PI
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return complex(vals[0])
    return vals


def grid_values(u: FourierSeries1D, n_grid: int) -> np.ndarray:
    """Values of u on the equispaced grid x_j = 2*pi*j/n_grid."""
    if n_grid < 2 * u.cutoff + 1:
        raise InvalidParameterError("n_grid must resolve the series")
    spec = np.zeros(n_grid, dtype=complex)
    spec[: u.cutoff + 1] = u.coeffs[u.cutoff:]
    spec[n_grid - u.cutoff:] = u.coeffs[: u.cutoff]
    return n_grid / SQRT_2PI * np.fft.ifft(spec)


def derivative(u: FourierSeries1D) -> FourierSeries1D:
    return FourierSeries1D(u.cutoff, 1j * u.wavenumbers() * u.coeffs)


# -- strip diagnostics ---------------------------------------------------------


def multiplier_norm_bound(v: FourierSeries1D, half_width: float,
                          n_grid: int | None = None) -> float:
    """Upper-bound surrogate for the norm of multiplication by v on the
    strip space of half-width A.

    Returns sqrt(2) * max over the two shifted lines Im z = +/-A of the
    sampled sup of |v|.  The sup is taken over n_grid equispaced points
    (default 8*cutoff+1, which resolves a trigonometric polynomial well);
    monotone nondecreasing in A by the maximum principle.
    """
    if half_width <= 0:
        raise InvalidParameterError("strip half-width must be positive")
    n = n_grid if n_grid is not None else 8 * v.cutoff + 1
    x = 2.0 * np.pi * np.arange(n) / n
    sup_up = np.max(np.abs(evaluate(v, x + 1j * half_width)))
    sup_dn = np.max(np.abs(evaluate(v, x - 1j * half_width)))
    return math.sqrt(2.0) * float(max(sup_up, sup_dn))


def estimate_strip(u: FourierSeries1D, noise_floor: float = 1e-13) -> AnalyticityEstimate:
    """Fit the exponential decay rate of the coefficient tail.

    Uses the magnitudes m_k = max(|u_k|, |u_{-k}|) for k >= 1.  Indices
    with m_k above noise_floor enter the fit; the stride of nonzero
    coefficients is detected (2 for odd functions), the leading quarter of
    usable indices is discarded to suppress pre-asymptotic transients, and
    log m_k is fit by least squares against the model

        log m_k = log C - A*k - p*log(1+k),

    whose algebraic term absorbs the power-law prefactor that accompanies
    boundary singularities.  The fitted A is the strip half-width.
    """
    if noise_floor <= 0:
        raise InvalidParameterError("noise_floor must be positive")
    n = u.cutoff
    mid = n
    ks = np.arange(1, n + 1)
    mags = np.maximum(np.abs(u.coeffs[mid + 1:]), np.abs(u.coeffs[mid - 1::-1]))
    usable = ks[mags > noise_floor]
    if len(usable) < 8:
        raise InsufficientDataError(
            f"only {len(usable)} coefficients above the noise floor; need at least 8"
        )
    diffs = np.diff(usable)
    stride = int(diffs[0])
    for d in diffs[1:]:
        stride = math.gcd(stride, int(d))
    stride = max(stride, 1)

    vals = np.log(mags[usable - 1])
    ratios = (vals[:-1] - vals[1:]) / diffs.astype(float)

    skip = len(usable) // 4
    window = usable[skip:]
    y = vals[skip:]
    kf = window.astype(float)
    design = np.column_stack([np.ones_like(kf), -kf, -np.log1p(kf)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    rate = float(coef[1])
    if rate <= 0:
        raise InsufficientDataError("no exponential decay detected in the tail")
    misfit = design @ coef - y
    return AnalyticityEstimate(
        half_width=rate,
        prefactor=float(np.exp(coef[0])),
        fit_window=(int(window[0]), int(window[-1])),
        residual=float(np.sqrt(np.mean(misfit**2))),
        stride=stride,
        step_ratios=ratios,
    )


# -- serialization -------------------------------------------------------------


def series_to_json(u: FourierSeries1D) -> dict:
    """JSON-ready dict: {"cutoff": N, "re": [...], "im": [...]}, k = -N..N."""
    return {
        "cutoff": u.cutoff,
        "re": u.coeffs.real.tolist(),
        "im": u.coeffs.imag.tolist(),
    }


def series_from_json(data: dict) -> FourierSeries1D:
    cutoff = int(data["cutoff"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != im.shape:
        raise InvalidParameterError("'re' and 'im' must have the same length")
    return FourierSeries1D(cutoff, re + 1j * im)
