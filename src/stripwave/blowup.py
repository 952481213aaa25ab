"""Blow-up analysis of the nonlinear solution along the imaginary axis.

Along the imaginary axis the solution of -eps*u'' + u + u^3 = mu*sin
stays purely imaginary, u(i*y) = i*psi(y), and psi solves

    eps * psi'' = mu*sinh(y) - psi + psi^3,   psi(0) = 0,  psi'(0) = u'(0).

If psi blows up at a finite Y, the analyticity strip of u cannot exceed
Y.  The right-hand side is a polynomial in psi plus an entire forcing,
so the Taylor coefficients of psi about any point follow from
Cauchy-product recurrences (automatic differentiation of the vector
field: Corliss & Chang, ACM TOMS 8 (1982)).  This module integrates the
ODE with one fixed-order Taylor method, the order and step chosen as in
Jorba & Zou, Experiment. Math. 14 (2005).  The step polynomials are the
dense output: the blow-up time (|psi| reaching a threshold), the level
crossings psi = 1 and psi = 1 + eta, and the checks below are all
evaluated on them, and the last step's coefficient ratio locates the
pole itself.  The trajectory is compared against the closed-form
solution of the reduced comparison ODE

    xi' = (xi^2 - 1) / sqrt(2*eps),   xi(y_eta) = 1 + eta,

which explodes at y_eta + sqrt(eps/2)*log(1 + 2/eta) and bounds psi from
below on [y_eta, Y).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (InvalidParameterError, NoCrossingError, PreconditionError,
                     StiffnessError)

TAYLOR_ORDER = 30     # degree of every step polynomial
MIN_STEP = 1e-14
THRESHOLD = 1e8       # the default |psi| that counts as the blow-up
Y_MAX = 10.0          # blowup_report's default end of the integration
CHECK_SAMPLES = 2048  # dense-output samples of the energy and realness checks
BOUND_SAMPLES = 2000  # samples of the comparison lower bound
TRAJECTORY_ROWS = 512  # rows of trajectory_samples


@dataclass(frozen=True)
class OdeTrajectory:
    """Integrator output on [y_start, y_end] with dense evaluation.

    `interpolant` maps y (scalar or array) to the stacked (value,
    derivative) pair; nodes are the step boundaries.  When the
    integration was stopped by the threshold, blowup_time holds the
    crossing of |psi| = threshold, and pole_estimate the pole the last
    step's coefficients point to.
    """

    nodes: np.ndarray
    blowup_time: float | None
    interpolant: Callable
    pole_estimate: float | None = None

    @property
    def y_start(self) -> float:
        return float(self.nodes[0])

    @property
    def y_end(self) -> float:
        return float(self.nodes[-1])

    def value(self, y):
        return self.interpolant(y)[0]

    def slope(self, y):
        return self.interpolant(y)[1]


@dataclass(frozen=True)
class BlowupReport:
    """Crossing points, blow-up times and bound verdicts for one parameter set."""

    branch_height: float          # strip half-width of the eps = 0 closed form
    psi_at_branch: float
    psi_prime_at_branch: float
    first_unit_crossing: float    # first y >= branch height with psi = 1
    level_crossing: float         # first y with psi = 1 + eta
    blowup_time: float
    comparison_blowup: float      # explosion time of the closed-form bound
    energy_constant: float        # C(eta) from the comparison energy relation
    energy_constant_ok: bool      # C(eta) >= 1/4
    convex_after_branch: bool
    lower_bound_verified: bool
    trajectory: OdeTrajectory = field(repr=False, compare=False)


@dataclass(frozen=True)
class LowerBoundCheck:
    verified: bool
    ordering_ok: bool       # detected blow-up no later than the closed-form bound
    min_margin: float       # min of psi - xi over the sampled window


@dataclass(frozen=True)
class EnergyDriftReport:
    initial_energy: float
    max_drift: float
    relative_drift: float


@dataclass(frozen=True)
class AxisRealnessReport:
    max_real_ratio: float   # max |Re phi| / (1 + |Im phi|) along the trajectory


class TaylorDense:
    """Piecewise-polynomial dense output of the Taylor integrator.

    On [nodes[i], nodes[i+1]] the solution is sum_k coeffs[i, k] tau^k
    with tau = (y - nodes[i]) / scales[i]; outside [nodes[0], nodes[-1]]
    the first or last polynomial is extended.
    """

    def __init__(self, nodes: np.ndarray, scales: np.ndarray, coeffs: np.ndarray):
        self.nodes, self.scales, self.coeffs = nodes, scales, coeffs

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        i = np.clip(np.searchsorted(self.nodes, y, side="right") - 1,
                    0, len(self.scales) - 1)
        scale = self.scales[i]
        value, deriv = _horner(self.coeffs.T[:, i], (y - self.nodes[i]) / scale)
        return np.stack([value, deriv / scale])


def _fdot(x, y) -> float:
    """Correctly rounded sum of x_j * y_j over the shorter sequence."""
    return math.fsum(map(operator.mul, x, y))


def _cdot(x, y) -> complex:
    """Complex sum of x_j * y_j, real and imaginary parts summed exactly."""
    terms = list(map(operator.mul, x, y))
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))


def _taylor_coefficients(y0, value, slope, scale, epsilon, mu) -> list:
    """Scaled Taylor coefficients b_k = psi^(k)(y0) scale^k / k!,
    k = 0..TAYLOR_ORDER, of eps*psi'' = mu*sinh(y) - psi + psi^3 with
    psi(y0) = value and psi'(y0) = slope.

    Matching powers of tau = (y - y0)/scale gives

        eps (k+2)(k+1) b_{k+2} = scale^2 (mu s_k - b_k + (b*b*b)_k),

    where s_k is sinh(y0) (k even) or cosh(y0) (k odd) times scale^k/k!.
    The cube is two Cauchy products, each coefficient an exactly rounded
    sum (no BLAS), so the coefficients do not depend on the BLAS kernel.
    A complex value and slope carry the complex equation.
    """
    dot = _cdot if isinstance(value, complex) else _fdot
    b = [value, slope * scale]
    square = []
    even, odd = (mu * math.sinh(y0), mu * math.cosh(y0)) if mu else (0.0, 0.0)
    gain = scale * scale / epsilon
    power = 1.0  # scale^k / k!
    for k in range(TAYLOR_ORDER - 1):
        tail = b[k::-1]
        square.append(dot(b, tail))
        cube = dot(square, tail)
        forcing = (even if k % 2 == 0 else odd) * power
        b.append(gain * (forcing - b[k] + cube) / ((k + 2) * (k + 1)))
        power *= scale / (k + 1)
    return b


def _horner(b, tau):
    """Value and tau-derivative of sum_k b_k tau^k."""
    value, deriv = b[-1], 0.0
    for c in b[-2::-1]:
        deriv = deriv * tau + value
        value = value * tau + c
    return value, deriv


def _reach(tol: float, coeff, k: int) -> float:
    """Largest tau with |coeff| tau^k <= tol."""
    return (tol / abs(coeff)) ** (1.0 / k) if coeff else math.inf


def _first_root(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] with f(lo) < 0 <= f(hi); f returns the value
    and derivative.

    Newton steps from hi, kept inside the shrinking bracket, with
    bisection where a step would leave it.  Ends when Newton no longer
    moves or the bracket is two adjacent doubles (then at its upper end).
    """
    y = hi
    for _ in range(200):
        g, dg = f(y)
        if g >= 0.0:
            hi = y
        else:
            lo = y
        nxt = y - g / dg if dg else math.nan
        if nxt == y:
            return y
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return hi
        y = nxt
    return y


def _stiffness(message: str, nodes: list, y: float, step: float) -> StiffnessError:
    return StiffnessError(message, diagnostics={
        "last_y": y, "last_step": step,
        "min_step": float(min(np.diff(nodes), default=step))})


def _integrate(epsilon, mu, y_start, y_end, value, slope, threshold,
               rtol) -> OdeTrajectory:
    """Fixed-order Taylor integration of eps*psi'' = mu*sinh(y) - psi + psi^3
    from y_start to y_end, stopped where |psi| reaches the threshold.

    Each step expands psi about its start, in units of the previous step
    so the coefficients stay near the size of psi.  The step is the
    largest h with |b_k| (h/scale)^k <= tol for the last two orders k,
    where tol = rtol * max(1, |psi|) / TAYLOR_ORDER:
    the slope's series is the value's differentiated, so its last terms
    are up to TAYLOR_ORDER times larger per unit of tau.  A step whose
    end reaches the threshold is cut at the crossing, found on its
    polynomial.
    """
    if not y_end > y_start:
        raise InvalidParameterError("the integration must end after it starts")
    nodes, scales, rows = [y_start], [], []
    y, scale = y_start, min(y_end - y_start, 1.0)
    blowup = None
    while y < y_end and blowup is None:
        try:
            b = _taylor_coefficients(y, value, slope, scale, epsilon, mu)
        except OverflowError:  # sinh(y) or an exact sum beyond the double range
            raise _stiffness("Taylor coefficients overflow", nodes, y, scale)
        tol = max(rtol, rtol * abs(value)) / TAYLOR_ORDER
        h = scale * min(_reach(tol, b[-2], TAYLOR_ORDER - 1),
                        _reach(tol, b[-1], TAYLOR_ORDER))
        if h >= y_end - y:
            h, y_next = y_end - y, y_end
        elif h >= MIN_STEP:
            y_next = y + h
        else:
            raise _stiffness("step size underflow before any stop condition",
                             nodes, y, h)
        tau = h / scale
        end_value, end_deriv = _horner(b, tau)
        rows.append(b)
        scales.append(scale)
        if abs(end_value) >= threshold > abs(value):
            def excess(t):
                p, dp = _horner(b, t)
                size = abs(p)
                return size - threshold, \
                    (p.conjugate() * dp).real / size if size else math.nan
            tau = _first_root(excess, 0.0, tau)
            end_value, end_deriv = _horner(b, tau)
            y_next = blowup = y + scale * tau
        y, value, slope = y_next, end_value, end_deriv / scale
        nodes.append(y)
        scale = h

    pole = None
    if blowup is not None and rows[-1][-1]:
        pole = nodes[-2] + scales[-1] * abs(rows[-1][-2] / rows[-1][-1])
    nodes = np.array(nodes)
    return OdeTrajectory(
        nodes=nodes, blowup_time=blowup,
        interpolant=TaylorDense(nodes, np.array(scales), np.array(rows)),
        pole_estimate=pole,
    )


def resolvable_threshold(epsilon: float, y_max: float) -> float:
    """The largest |psi| threshold the integration resolves before y_max.

    Near the pole Y, psi ~ sqrt(2 eps) / (Y - y), so |psi| reaches the
    threshold sqrt(2 eps) / threshold before Y.  The steps there are a
    fraction of the distance to the pole, and none may fall below MIN_STEP
    or below one ulp of a y < y_max: the crossing must lie four of those
    before the pole.  (Measured at eps 0.01-2, mu 0.05-2: no run at this
    threshold or below ends in step underflow; at 1.5 to 2 times it, 79
    of 252 do.)
    """
    return math.sqrt(2.0 * epsilon) / (4.0 * max(MIN_STEP, math.ulp(y_max)))


def integrate_psi(epsilon: float, mu: float, initial_slope: float, y_max: float,
                  threshold: float = THRESHOLD, rtol: float = 1e-11) -> OdeTrajectory:
    """Integrate eps*psi'' = mu*sinh(y) - psi + psi^3 from psi(0) = 0.

    Stops at y_max or when |psi| reaches the threshold; in the latter
    case the crossing is located on the last step polynomial and
    reported as blowup_time.
    """
    if epsilon <= 0 or mu < 0:
        raise InvalidParameterError("epsilon must be positive and mu nonnegative")
    if rtol < 1e-13:
        raise InvalidParameterError("rtol below 1e-13 is not resolvable")
    if threshold > (limit := resolvable_threshold(epsilon, y_max)):
        raise InvalidParameterError(f"threshold {threshold!r} is above {limit!r}, the "
                                    "largest |psi| resolvable before the pole")
    return _integrate(epsilon, mu, 0.0, y_max, 0.0, float(initial_slope),
                      threshold, rtol)


def integrate_comparison(epsilon: float, y_start: float, value: float,
                         slope: float, y_max: float, threshold: float = THRESHOLD,
                         rtol: float = 1e-11) -> OdeTrajectory:
    """Integrate the unforced comparison dynamics eps*phi'' = -phi + phi^3."""
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    return _integrate(epsilon, 0.0, y_start, y_max, float(value), float(slope),
                      threshold, rtol)


def trajectory_diagnostics(traj: OdeTrajectory) -> dict:
    """What the integrator did, for the run record: step count, Taylor
    order, smallest node spacing and the pole estimate (None without a
    blow-up)."""
    return {"ode_steps": len(traj.nodes) - 1,
            "taylor_order": TAYLOR_ORDER,
            "min_step": float(np.min(np.diff(traj.nodes))),
            "pole_estimate": traj.pole_estimate}


def locate_crossings(traj: OdeTrajectory, after: float, eta: float) -> tuple[float, float]:
    """First crossings of the levels 1 and 1 + eta at or after `after`.

    Bracketed on a grid of the dense output, then refined on it by
    safeguarded Newton to the last bit.  Raises NoCrossingError if a
    level is never reached.
    """
    if eta < 0:
        raise InvalidParameterError("eta must be nonnegative")

    end = traj.blowup_time if traj.blowup_time is not None else traj.y_end
    grid = np.linspace(max(after, traj.y_start), end, 4097)
    vals = np.asarray(traj.value(grid))

    def first(level):
        above = vals >= level
        if not np.any(above):
            raise NoCrossingError(f"trajectory never reaches level {level}")
        idx = int(np.argmax(above))
        if idx == 0:
            return float(grid[0])

        def excess(y):
            value, slope = traj.interpolant(y)
            return float(value) - level, float(slope)

        return _first_root(excess, float(grid[idx - 1]), float(grid[idx]))

    y_unit = first(1.0)
    y_level = y_unit if eta == 0.0 else first(1.0 + eta)
    return y_unit, y_level


def comparison_blowup_time(epsilon: float, eta: float, y_start: float) -> float:
    """Explosion time y_start + sqrt(eps/2)*log(1 + 2/eta) of the closed form."""
    if epsilon <= 0 or eta <= 0:
        raise InvalidParameterError("epsilon and eta must be positive")
    return y_start + math.sqrt(epsilon / 2.0) * math.log(1.0 + 2.0 / eta)


def comparison_solution(epsilon: float, eta: float, y_start: float, y):
    """Closed-form solution of xi' = (xi^2 - 1)/sqrt(2*eps), xi(y_start) = 1 + eta:

        xi(y) = (1 + 2/eta + E) / (1 + 2/eta - E),  E = exp((y - y_start)/sqrt(eps/2)).

    Defined for y < the explosion time; beyond it the call raises.
    """
    y_arr = np.asarray(y, dtype=float)
    y_max = comparison_blowup_time(epsilon, eta, y_start)
    if np.any(y_arr >= y_max):
        raise InvalidParameterError(
            f"closed form explodes at {y_max:.12g}; requested y reaches beyond")
    growth = np.exp((y_arr - y_start) / math.sqrt(epsilon / 2.0))
    out = (1.0 + 2.0 / eta + growth) / (1.0 + 2.0 / eta - growth)
    return float(out) if out.ndim == 0 else out


def verify_lower_bound(traj: OdeTrajectory, epsilon: float, eta: float,
                       y_level: float) -> LowerBoundCheck:
    """Check psi >= xi at BOUND_SAMPLES points of [y_level, min(Y, Y_bound)
    - 1e-6], with slack 1e-8 * (1 + |xi|) per sample, and the ordering
    Y <= Y_bound.

    A violated bound is a result carried in the report, not an error.
    """
    if traj.blowup_time is None:
        raise PreconditionError("trajectory has no detected blow-up")
    y_bound = comparison_blowup_time(epsilon, eta, y_level)
    hi = min(traj.blowup_time, y_bound) - 1e-6
    ys = np.linspace(y_level, hi, BOUND_SAMPLES)
    xi = comparison_solution(epsilon, eta, y_level, ys)
    psi = np.asarray(traj.value(ys))
    margin = psi - xi
    ok = bool(np.all(margin >= -1e-8 * (1.0 + np.abs(xi))))
    ordering = bool(traj.blowup_time <= y_bound)
    return LowerBoundCheck(
        verified=ok and ordering,
        ordering_ok=ordering,
        min_margin=float(np.min(margin)),
    )


def _check_grid(traj: OdeTrajectory) -> np.ndarray:
    """CHECK_SAMPLES evenly spaced points on [y_start, y_end] and every node."""
    return np.union1d(np.linspace(traj.y_start, traj.y_end, CHECK_SAMPLES),
                      traj.nodes)


def energy_drift_check(epsilon: float, traj: OdeTrajectory) -> EnergyDriftReport:
    """Drift of the conserved energy eps/2 * phi'^2 - phi^4/4 + phi^2/2 of
    the unforced comparison dynamics along a computed trajectory, sampled
    on its dense output."""
    phi, dphi = traj.interpolant(_check_grid(traj))
    e = 0.5 * epsilon * dphi**2 - 0.25 * phi**4 + 0.5 * phi**2
    drift = float(np.max(np.abs(e - e[0])))
    scale = max(abs(float(e[0])), 1e-30)
    return EnergyDriftReport(initial_energy=float(e[0]), max_drift=drift,
                             relative_drift=drift / scale)


def axis_decoupling_check(epsilon: float, mu: float, initial_slope: float,
                          y_max: float, initial_real: float = 0.0) -> AxisRealnessReport:
    """Integrate the full complex ODE eps*phi'' + phi + phi^3 = i*mu*sinh
    with phi(0) = initial_real, phi'(0) = i*initial_slope, up to y_max or
    |phi| = THRESHOLD at rtol 1e-11, and measure how purely imaginary phi
    stays on the dense output.

    The state is carried as psi = -i*phi, which solves the psi equation
    with complex values: its real parts are Im phi and Im phi', its
    imaginary parts -Re phi and -Re phi'.  With initial_real = 0 the real
    part of phi is an invariant of the dynamics.  The ratio then reads
    exactly 0.0 for every real slope, not merely a rounding-sized
    number: every operation of the complex Taylor step (the exactly
    summed Cauchy products, the real forcing, Horner's rule) maps an
    exactly zero imaginary part to zero.  Only a nonzero initial_real,
    the negative control, makes the ratio nonzero.
    """
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    traj = _integrate(epsilon, mu, 0.0, y_max, complex(0.0, -initial_real),
                      complex(initial_slope), THRESHOLD, 1e-11)
    psi = traj.value(_check_grid(traj))
    return AxisRealnessReport(
        max_real_ratio=float(np.max(np.abs(psi.imag) / (1.0 + np.abs(psi.real)))))


def blowup_report(epsilon: float, mu: float, eta: float, initial_slope: float,
                  y_max: float = Y_MAX, threshold: float = THRESHOLD,
                  rtol: float = 1e-11) -> BlowupReport:
    """Full imaginary-axis analysis for one parameter set.

    The initial slope is the derivative at the origin of the computed
    spectral solution (it is an input here so the ODE layer stays
    independent of the spectral solver).  The integrated trajectory is
    returned on the report, so callers never integrate the ODE again.
    """
    from .cubic import branch_point_height

    b0 = branch_point_height(mu)
    traj = integrate_psi(epsilon, mu, initial_slope, y_max=y_max,
                         threshold=threshold, rtol=rtol)
    if traj.blowup_time is None:
        raise NoCrossingError(
            f"no blow-up detected below y = {y_max}; cannot build the report")
    psi_b0, dpsi_b0 = map(float, traj.interpolant(b0))
    y_unit, y_level = locate_crossings(traj, b0, eta)
    y_bound = comparison_blowup_time(epsilon, eta, y_level)

    slope_at_level = float(traj.slope(y_level))
    c_eta = float(-0.25 * (1.0 + eta) ** 4 + 0.5 * (1.0 + eta) ** 2
                  + 0.5 * epsilon * slope_at_level**2)

    ys = np.linspace(b0, traj.blowup_time - 1e-6, 2048)
    psi_vals = np.asarray(traj.value(ys))
    accel = mu * np.sinh(ys) - psi_vals + psi_vals**3
    convex = bool(np.all(accel >= 0.0))

    bound = verify_lower_bound(traj, epsilon, eta, y_level)
    return BlowupReport(
        branch_height=b0,
        psi_at_branch=psi_b0,
        psi_prime_at_branch=dpsi_b0,
        first_unit_crossing=y_unit,
        level_crossing=y_level,
        blowup_time=traj.blowup_time,
        comparison_blowup=y_bound,
        energy_constant=c_eta,
        energy_constant_ok=c_eta >= 0.25,
        convex_after_branch=convex,
        lower_bound_verified=bound.verified,
        trajectory=traj,
    )


def trajectory_samples(traj: OdeTrajectory, epsilon: float, eta: float,
                       y_level: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """TRAJECTORY_ROWS equispaced samples up to the blow-up (or the end of
    the integration), as the columns (y, psi, psi_prime, xi); xi, the
    comparison solution started at y_level, is None outside [y_level,
    its blow-up)."""
    end = traj.blowup_time if traj.blowup_time is not None else traj.y_end
    ys = np.linspace(traj.y_start, end - 1e-9, TRAJECTORY_ROWS)
    vals, slopes = traj.interpolant(ys)
    # ys ascends, so the rows inside [y_level, y_bound) are one run
    lo, hi = np.searchsorted(ys, (y_level, comparison_blowup_time(epsilon, eta, y_level)))
    xi = [None] * lo + comparison_solution(epsilon, eta, y_level, ys[lo:hi]).tolist() \
        + [None] * (len(ys) - hi)
    return ys, vals, slopes, xi
