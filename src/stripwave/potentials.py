"""Builtin 2*pi-periodic test potentials, built exactly in coefficient space."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .fourier import SQRT_2PI, FourierSeries1D

HALF_MODE = math.sqrt(math.pi / 2.0)  # sqrt(2*pi)/2


def constant(value: float) -> FourierSeries1D:
    """V(x) = value."""
    return FourierSeries1D.mode(0, value * SQRT_2PI)


def cosine(amplitude: float = 1.0, harmonic: int = 1, mean: float = 0.0) -> FourierSeries1D:
    """V(x) = mean + amplitude * cos(harmonic * x)."""
    if harmonic < 1:
        raise InvalidParameterError("harmonic must be a positive integer")
    c = np.zeros(2 * harmonic + 1, dtype=complex)
    c[0] = c[-1] = amplitude * HALF_MODE
    c[harmonic] = mean * SQRT_2PI
    return FourierSeries1D(harmonic, c)


def sine(amplitude: float = 1.0, harmonic: int = 1) -> FourierSeries1D:
    """f(x) = amplitude * sin(harmonic * x)."""
    if harmonic < 1:
        raise InvalidParameterError("harmonic must be a positive integer")
    c = np.zeros(2 * harmonic + 1, dtype=complex)
    c[-1] = -1j * amplitude * HALF_MODE
    c[0] = 1j * amplitude * HALF_MODE
    return FourierSeries1D(harmonic, c)


def mathieu(q: float = 1.0) -> FourierSeries1D:
    """V(x) = 2*q*cos(2x), the potential of the Mathieu equation
    -u'' + 2q cos(2x) u = a u in its standard parametrization."""
    return cosine(amplitude=2.0 * q, harmonic=2)


def poisson_kernel(c: float, mu: float = 1.0, shift: float = 0.0,
                   cutoff: int = 80) -> FourierSeries1D:
    """V(x) = mu / (c - cos x) + shift, truncated at the given cutoff.

    The coefficients are geometric, proportional to r^|k| with
    r = c - sqrt(c^2 - 1), so the analyticity-strip half-width is
    exactly arccosh(c).
    """
    if c <= 1.0:
        raise InvalidParameterError("pole parameter c must exceed 1")
    if cutoff < 0:
        raise InvalidParameterError("cutoff must be nonnegative")
    r = c - math.sqrt(c * c - 1.0)
    k = np.arange(-cutoff, cutoff + 1)
    coeffs = (SQRT_2PI * mu * 2.0 * r / (1.0 - r * r)) * r ** np.abs(k)
    coeffs = coeffs.astype(complex)
    coeffs[cutoff] += SQRT_2PI * shift
    return FourierSeries1D(cutoff, coeffs)


def poisson_kernel_half_width(c: float) -> float:
    """Strip half-width arccosh(c) of the poisson_kernel potential."""
    return math.acosh(c)


def gaussian_bump(amplitude: float = 1.0, width: float = 0.5, center: float = 0.0,
                  cutoff: int = 40) -> FourierSeries1D:
    """Periodized Gaussian sum_n amplitude * exp(-(x - center - 2*pi*n)^2 / (2*width^2)).

    Entire in the complex variable; coefficients amplitude * width *
    exp(-width^2 k^2 / 2) * exp(-i*k*center).
    """
    if width <= 0:
        raise InvalidParameterError("width must be positive")
    k = np.arange(-cutoff, cutoff + 1)
    coeffs = amplitude * width * np.exp(-0.5 * width**2 * k.astype(float) ** 2)
    coeffs = coeffs * np.exp(-1j * k * center)
    return FourierSeries1D(cutoff, coeffs)
