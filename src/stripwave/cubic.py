"""The cubic nonlinear problem -eps*u'' + u + u^3 = mu*sin(x).

For eps = 0 the problem is algebraic and solved in closed form by
Cardano's formula; the continuation of that closed form off the real
axis has branch points on the imaginary axis at +/- i*arcsinh(sqrt(4/27)/mu),
so the limiting solution is analytic only on a finite horizontal strip
even though the source term is entire.  For eps > 0 the Galerkin system
on the modes |k| <= N is solved by Newton iteration with the exact
coefficient-space cubic term (intermediate cutoffs are never aliased),
and the analyticity strip of the computed solution is estimated from
its coefficient decay.

Newton runs on the odd sine subspace u_k = i*b_k, u_{-k} = -i*b_k with
real b_k, k = 1..N.  That restriction is exact for sine forcing: the
map u -> -eps*u'' + u + u^3 sends odd real functions to odd real
functions, mu*sin is one of them, and the Galerkin residual and its
Jacobian keep the subspace invariant, so Newton started in it never
leaves it.  On the subspace the Jacobian is a real symmetric
positive-definite matrix of order N (multiplication by 3u^2 >= 0 plus
eps*k^2 + 1 > 0), and each step is one Cholesky solve in place of a
complex solve of order 2N + 1.  The residual and its norm are still
formed on all |k| <= N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BranchPointWarning, InvalidParameterError, NonconvergenceError
from .fourier import (SQRT_2PI, AnalyticityEstimate, FourierSeries1D,
                      estimate_strip, multiply)
from .potentials import sine


class CardanoBranches:
    """Branch realization for the closed-form root of u + u^3 = f.

    The square root is principal (cut on the negative real axis).  The
    cube root has its cut on the imaginary axis: principal on Re w >= 0
    and extended oddly, cbrt(w) = -cbrt(-w), on Re w < 0.  This is the
    unique choice that is real on the real axis, which makes the root
    itself real there.
    """

    @staticmethod
    def sqrt(w):
        return np.sqrt(np.asarray(w, dtype=complex))

    @staticmethod
    def cbrt(w):
        w = np.asarray(w, dtype=complex)
        third = 1.0 / 3.0
        with np.errstate(invalid="ignore"):
            return np.where(w.real >= 0.0, w**third, -((-w) ** third))


DEFAULT_BRANCHES = CardanoBranches()


@dataclass(frozen=True)
class GpSolveResult:
    epsilon: float
    mu: float
    solution: FourierSeries1D
    newton_iters: int
    residual_l2: float
    u_prime_at_zero: float
    residual_history: tuple[float, ...]


def cardano_discriminant(mu: float, z) -> np.ndarray | complex:
    """Discriminant -(4 + 27 f(z)^2) of u^3 + u = f(z) with f = mu*sin."""
    z = np.asarray(z, dtype=complex)
    f = mu * np.sin(z)
    out = -(4.0 + 27.0 * f * f)
    return complex(out) if out.ndim == 0 else out


def branch_point_height(mu: float) -> float:
    """Height arcsinh(sqrt(4/27)/mu) of the branch points +/- i*B on the
    imaginary axis, where the discriminant vanishes."""
    if mu <= 0:
        raise InvalidParameterError("mu must be positive")
    return math.asinh(math.sqrt(4.0 / 27.0) / mu)


def cardano_root(mu: float, z, branches: CardanoBranches = DEFAULT_BRANCHES):
    """Closed-form root of u + u^3 = mu*sin(z), continued off the real axis.

    On the real axis this is the unique real root.  Warns (but still
    evaluates) when z comes within 1e-8 of a branch point, where the two
    cube-root terms coalesce and the formula loses accuracy.
    """
    if mu < 0:
        raise InvalidParameterError("mu must be nonnegative")
    z_arr = np.asarray(z, dtype=complex)
    if mu > 0:
        b0 = branch_point_height(mu)
        near = np.minimum(np.abs(z_arr - 1j * b0), np.abs(z_arr + 1j * b0))
        if np.any(near < 1e-8):
            warnings.warn("evaluation within 1e-8 of a Cardano branch point",
                          BranchPointWarning, stacklevel=2)
    f = mu * np.sin(z_arr)
    root_disc = branches.sqrt(4.0 / 27.0 + f * f)
    out = branches.cbrt(0.5 * (f + root_disc)) + branches.cbrt(0.5 * (f - root_disc))
    return complex(out) if out.ndim == 0 else out


def _odd_imaginary(c: np.ndarray, cutoff: int) -> np.ndarray:
    """The b_k, k = 1..cutoff, of the projection u_k = i*b_k, u_{-k} = -i*b_k."""
    return 0.5 * (c[cutoff + 1:].imag - c[cutoff - 1::-1].imag)


def _odd_jacobian(sq: np.ndarray, cutoff: int, lin: np.ndarray) -> np.ndarray:
    """Real Jacobian of the Galerkin residual on the odd-imaginary subspace.

    sq holds the coefficients (u^2)_m, |m| <= 2*cutoff.  With
    s_m = Re (u^2)_m, the complex Jacobian diag(eps*k^2 + 1) +
    3 * (multiplication by u^2) maps i*d_k, -i*d_k to i*(J d)_k, -i*(J d)_k
    with J[k, j] = lin_k delta_kj + 3/sqrt(2 pi) (s_|k-j| - s_{k+j}),
    k, j = 1..cutoff.  It is symmetric positive definite: u^2 >= 0 on the
    real line makes the multiplication positive semidefinite.
    """
    s = sq.real[2 * cutoff:]
    sym = np.concatenate((s[cutoff - 1:0:-1], s[:cutoff]))  # s_|d|, |d| < cutoff
    # strided views: Toeplitz [k, j] = s_|k-j|, Hankel [k, j] = s_{k+j}
    jac = 3.0 / SQRT_2PI * (sliding_window_view(sym, cutoff)[:, ::-1]
                            - sliding_window_view(s[2:2 * cutoff + 1], cutoff))
    jac[np.diag_indices_from(jac)] += lin
    return jac


def _newton(epsilon: float, mu: float, cutoff: int, u0: np.ndarray,
            tol: float, max_iter: int):
    import scipy.linalg  # deferred: only the Newton step needs it
    k = np.arange(-cutoff, cutoff + 1)
    lin = epsilon * k.astype(float) ** 2 + 1.0
    fhat = sine(mu)._padded(cutoff) if mu != 0.0 else np.zeros(2 * cutoff + 1,
                                                               dtype=complex)
    pos, neg = slice(cutoff + 1, None), slice(cutoff - 1, None, -1)
    b = _odd_imaginary(u0, cutoff)
    u = np.zeros(2 * cutoff + 1, dtype=complex)
    u[pos], u[neg] = 1j * b, -1j * b
    history = []
    for it in range(max_iter + 1):
        # u^3 projected to |k| <= cutoff exactly: cutoffs 2N, then N
        series = FourierSeries1D(cutoff, u)
        sq = multiply(series, series, 2 * cutoff)
        residual = lin * u + multiply(sq, series, cutoff).coeffs - fhat
        rnorm = float(np.linalg.norm(residual))
        history.append(rnorm)
        if rnorm <= tol:
            return u, it, history
        if it == max_iter:
            break
        jac = _odd_jacobian(sq.coeffs, cutoff, lin[pos])
        try:
            step = scipy.linalg.solve(jac, _odd_imaginary(residual, cutoff),
                                      assume_a="pos")
        except np.linalg.LinAlgError as exc:
            raise NonconvergenceError(
                f"Newton Jacobian lost positive definiteness: {exc}",
                residual_history=history) from exc
        u[pos] -= 1j * step
        u[neg] += 1j * step
    raise NonconvergenceError(
        f"Newton did not reach {tol:g} within {max_iter} iterations",
        residual_history=history)


def solve_gp(epsilon: float, mu: float, cutoff: int, tol: float = 1e-12,
             max_iter: int = 50) -> GpSolveResult:
    """Newton-Galerkin solution of -eps*u'' + u + u^3 = mu*sin on |k| <= cutoff.

    The initial guess is the projected Cardano root of the eps = 0
    problem; if Newton stalls from there, the solver falls back to a
    continuation that halves eps from 1.0 down to the target.
    """
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    if cutoff < 16:
        raise InvalidParameterError("cutoff must be at least 16")
    guess = FourierSeries1D.from_callable(
        lambda x: np.real(cardano_root(mu, x)), cutoff,
        n_grid=4 * cutoff + 1).coeffs
    try:
        u, iters, history = _newton(epsilon, mu, cutoff, guess, tol, max_iter)
    except NonconvergenceError:
        eps_path = []
        e = max(1.0, epsilon)
        while e > epsilon:
            eps_path.append(e)
            e *= 0.5
        eps_path.append(epsilon)
        u = guess
        for e in eps_path:
            u, iters, history = _newton(e, mu, cutoff, u, tol, max_iter)

    series = FourierSeries1D(cutoff, u)
    k = series.wavenumbers()
    slope = complex(np.sum(1j * k * u)) / SQRT_2PI
    return GpSolveResult(
        epsilon=epsilon,
        mu=mu,
        solution=series,
        newton_iters=iters,
        residual_l2=history[-1],
        u_prime_at_zero=float(slope.real),
        residual_history=tuple(history),
    )


def estimate_solution_strip(result: GpSolveResult,
                            noise_floor: float = 1e-13) -> AnalyticityEstimate:
    """Strip half-width of the computed solution from its coefficient decay.

    For the odd solutions of the sine-forced problem the even
    coefficients vanish and the detected stride is 2.
    """
    return estimate_strip(result.solution, noise_floor=noise_floor)
