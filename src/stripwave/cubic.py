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

Newton runs on the half-wave sine subspace u_k = i*b_k, u_{-k} = -i*b_k
with real b_k on the odd wavenumbers k = 1, 3, 5, ... <= N, and u_k = 0
for every even k.  That restriction is exact for sine forcing: the map
u -> -eps*u'' + u + u^3 sends odd real functions with half-wave symmetry
u(x + pi) = -u(x) to functions of the same kind, mu*sin is one of them,
and Newton started in the subspace never leaves it.  With
beta = (-b reversed, b), so u_k = i*beta_k on the odd |k| <= K, the
square u^2 = -(beta*beta)/sqrt(2 pi) is real and lives on the even m,
and u^3 = i*(u^2 * beta)/sqrt(2 pi) on the odd k: the residual is two
real convolutions of these compressed arrays, summed by numpy rather
than BLAS.  The square is even, s_{-m} = s_m, and beta reversed is
-beta, so the row of -m sums the same products in the same order as the
row of m: only the m >= 0 rows are summed, and mirrored.  The Jacobian
is real symmetric positive definite (multiplication by 3u^2 >= 0 plus
eps*k^2 + 1 > 0).

Newton's state is a finite block: b on the first M odd k alone, and
the solution u-bar is exactly zero beyond it.  M comes from the eps = 0
root, whose strip the eps > 0 solution keeps (B_eps >= B0, criterion 8):
the block holds every odd k with exp(-B0*k) >= 2^-110, at least 32
modes, and is the whole order once it would hold more than half of it.
The square then lives on |m| <= 2(2M - 1) and the cube on the odd
k <= 3(2M - 1), the first 3M - 1 rows: the residual is summed on
min(3M - 1, ceil(N/2)) rows, and the Galerkin residual's other rows are
exact zeros.  Once 3(2M - 1) <= N it is F(u-bar) itself, untruncated.  Each step is one
Cholesky solve of the block's M x M Jacobian, and there is no tail step:
the modes beyond the block are never moved.  The Cardano start is
computed on the odd k <= M alone, about half the block's reach, and is
zero beyond: its FFT rounding (about 2^-53 of the largest coefficient)
is all it holds there.  Where M is the whole order the arithmetic is
that of the full-order Newton, bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BranchPointWarning, InvalidParameterError, NonconvergenceError
from .extended import norm2
from .fourier import SQRT_2PI, AnalyticityEstimate, FourierSeries1D, estimate_strip
from .potentials import HALF_MODE

_REACH = 110 * math.log(2)  # B0*k up to which a mode enters the Newton block
_MIN_BLOCK = 32


@dataclass(frozen=True)
class GpSolveResult:
    solution: FourierSeries1D
    newton_iters: int
    residual_l2: float
    u_prime_at_zero: float
    residual_history: tuple[float, ...]
    block_order: int  # M, the odd k <= 2M - 1 that Newton holds
    residual_rows: int  # the odd k <= 2*residual_rows - 1 its residual sums


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


def _sqrt(w):
    """The square root of cardano_root's branch choice."""
    return np.sqrt(np.asarray(w, dtype=complex))


def _cbrt(w):
    """The cube root of cardano_root's branch choice."""
    w = np.asarray(w, dtype=complex)
    third = 1.0 / 3.0
    with np.errstate(invalid="ignore"):
        return np.where(w.real >= 0.0, w**third, -((-w) ** third))


def cardano_root(mu: float, z):
    """Closed-form root of u + u^3 = mu*sin(z), continued off the real axis.

    The square root is principal (cut on the negative real axis).  The
    cube root has its cut on the imaginary axis: principal on Re w >= 0
    and extended oddly, cbrt(w) = -cbrt(-w), on Re w < 0.  This is the
    unique choice that is real on the real axis, so on the real axis this
    is the unique real root.  Warns (but still evaluates) when z comes
    within 1e-8 of a branch point, where the two cube-root terms coalesce
    and the formula loses accuracy.
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
    root_disc = _sqrt(4.0 / 27.0 + f * f)
    out = _cbrt(0.5 * (f + root_disc)) + _cbrt(0.5 * (f - root_disc))
    return complex(out) if out.ndim == 0 else out


def _slide(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j x[i + j] * y[j] for every window i of x, as numpy sums
    (einsum, not BLAS), so the sums do not follow the BLAS kernel."""
    return np.einsum("ij,j->i", sliding_window_view(x, len(y)), y)


def _half_wave_jacobian(sq: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """Real Jacobian of the Galerkin residual on the half-wave sine subspace.

    sq holds the real coefficients s_m = (u^2)_m at the even m,
    |m| <= 2K, with K the largest odd k, and lin the eps*k^2 + 1 at the
    odd k = 1, 3, ..., K.  The complex Jacobian diag(eps*k^2 + 1) +
    3 * (multiplication by u^2) maps i*d_k, -i*d_k on the odd k to
    i*(J d)_k, -i*(J d)_k, with k = 2a + 1, j = 2b + 1 and
    J[a, b] = lin_k delta_ab + 3/sqrt(2 pi) (s_{2|a-b|} - s_{2(a+b+1)}),
    a, b = 0..len(lin) - 1.  J is symmetric positive definite: u^2 >= 0
    on the real line makes the multiplication positive semidefinite.
    """
    order = len(lin)
    e = sq[2 * order - 1:]  # e[d] = s_{2d}, d = 0..K
    sym = np.concatenate((e[order - 1:0:-1], e[:order]))  # e_|d|, |d| < order
    # strided views: Toeplitz [a, b] = e_|a-b|, Hankel [a, b] = e_{a+b+1}
    jac = 3.0 / SQRT_2PI * (sliding_window_view(sym, order)[:, ::-1]
                            - sliding_window_view(e[1:2 * order], order))
    jac[np.diag_indices_from(jac)] += lin
    return jac


def _block_order(mu: float, order: int) -> int:
    """Order M of the block that Newton holds and solves: the odd
    k with B0*k <= _REACH, so exp(-B0*k) >= 2^-110, at least _MIN_BLOCK of
    them, and the whole order once the block would hold more than half of
    it, where it saves little and the exact step costs little."""
    height = branch_point_height(mu) if mu > 0 else math.inf
    kept = int(np.count_nonzero(np.arange(1, 2 * order, 2) * height <= _REACH))
    block = max(_MIN_BLOCK, kept)
    return block if 2 * block <= order else order


def _newton(epsilon: float, mu: float, b: np.ndarray, rows: int, tol: float,
            max_iter: int):
    import scipy.linalg  # deferred: only the Newton step needs it
    block = len(b)
    lin = epsilon * np.arange(1.0, 2 * block, 2) ** 2 + 1.0
    stop = tol * max(1.0, mu * math.sqrt(math.pi))  # tol * ||mu sin||_L2
    pad = np.zeros(2 * block - 1)
    sq_pad = np.zeros(rows - block)  # s_m = 0 beyond 2K, where the rows read it
    history = []
    for it in range(max_iter + 1):
        beta = np.concatenate((-b[::-1], b))  # u_k = i*beta_k, odd |k| <= K
        # u^2 on the even 0 <= m <= 2K, mirrored to |m| <= 2K, and u^3 on
        # the odd k = 1..2*rows - 1, exactly
        half = -_slide(np.concatenate((beta, pad)), beta[::-1]) / SQRT_2PI
        sq = np.concatenate((half[:0:-1], half))
        residual = _slide(np.concatenate((sq[block:], sq_pad)), beta[::-1]) / SQRT_2PI
        residual[:block] += lin * b
        residual[0] += mu * HALF_MODE  # the forcing, -i*mu*sqrt(pi/2) at k = 1
        rnorm = norm2((residual, residual))  # at k and at -k
        history.append(rnorm)
        if rnorm <= stop:
            return b, it, history
        if it == max_iter or not math.isfinite(rnorm):
            break
        try:
            factor = scipy.linalg.cho_factor(_half_wave_jacobian(sq, lin))
            b = b - scipy.linalg.cho_solve(factor, residual[:block])
        except np.linalg.LinAlgError as exc:
            raise NonconvergenceError(
                f"Newton Jacobian lost positive definiteness: {exc}",
                residual_history=history) from exc
    raise NonconvergenceError(
        f"Newton stopped at residual {rnorm:g} after {it} iterations, "
        f"above {stop:g}", residual_history=history)


def solve_gp(epsilon: float, mu: float, cutoff: int, tol: float = 1e-12,
             max_iter: int = 50) -> GpSolveResult:
    """Newton-Galerkin solution of -eps*u'' + u + u^3 = mu*sin on |k| <= cutoff.

    Newton stops at a Galerkin residual of L2 norm <= tol * max(1,
    mu*sqrt(pi)): tol is relative to the forcing's norm ||mu sin|| =
    mu*sqrt(pi) once that exceeds 1, as the residual's rounding floor
    grows with mu.  The initial guess is the projected Cardano root of
    the eps = 0 problem; if Newton stalls from there, the solver falls
    back to a continuation that halves eps from 1.0 down to the target.
    """
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    if cutoff < 16:
        raise InvalidParameterError("cutoff must be at least 16")
    order = (cutoff + 1) // 2
    block = _block_order(mu, order)
    rows = min(3 * block - 1, order)  # the odd k <= 3(2M - 1) that u^3 reaches
    top = cutoff if block == order else block  # the odd k <= M, or every one
    # a starting point that overflows shows in Newton's residual history
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", BranchPointWarning)
        c = FourierSeries1D.from_callable(
            lambda x: np.real(cardano_root(mu, x)), top, n_grid=4 * top + 1).coeffs
    # its projection onto the half-wave sine subspace, zero beyond top
    guess = np.zeros(block)
    guess[:(top + 1) // 2] = 0.5 * (c[top + 1::2].imag - c[top - 1::-2].imag)
    try:
        b, iters, history = _newton(epsilon, mu, guess, rows, tol, max_iter)
    except NonconvergenceError:
        eps_path = []
        e = max(1.0, epsilon)
        while e > epsilon:
            eps_path.append(e)
            e *= 0.5
        eps_path.append(epsilon)
        b = guess
        for e in eps_path:
            b, iters, history = _newton(e, mu, b, rows, tol, max_iter)

    b = np.concatenate((b, np.zeros(order - block)))  # exact zeros beyond the block
    u = np.zeros(2 * cutoff + 1, dtype=complex)
    u[cutoff + 1::2], u[cutoff - 1::-2] = 1j * b, -1j * b
    series = FourierSeries1D(cutoff, u)
    k = series.wavenumbers()
    slope = complex(np.sum(1j * k * u)) / SQRT_2PI
    return GpSolveResult(
        solution=series,
        newton_iters=iters,
        residual_l2=history[-1],
        u_prime_at_zero=float(slope.real),
        residual_history=tuple(history),
        block_order=block,
        residual_rows=rows,
    )


def estimate_solution_strip(result: GpSolveResult,
                            noise_floor: float = 1e-13) -> AnalyticityEstimate:
    """Strip half-width of the computed solution from its coefficient decay.

    The solutions of the sine-forced problem have half-wave symmetry:
    their even-k coefficients are exact zeros, so only the odd k enter
    the fit and the detected stride is 2.
    """
    return estimate_strip(result.solution, noise_floor=noise_floor)
