"""Blow-up analysis of the nonlinear solution along the imaginary axis.

Along the imaginary axis the solution of -eps*u'' + u + u^3 = mu*sin
stays purely imaginary, u(i*y) = i*psi(y), and psi solves

    eps * psi'' = mu*sinh(y) - psi + psi^3,   psi(0) = 0,  psi'(0) = u'(0).

If psi blows up at a finite Y, the analyticity strip of u cannot exceed
Y.  This module integrates that ODE with an adaptive embedded
Runge-Kutta pair (5th order, 4th-order error estimate), detects the
blow-up time by a threshold plus bisection, locates the level crossings
psi = 1 and psi = 1 + eta, and compares the trajectory against the
closed-form solution of the reduced comparison ODE

    xi' = (xi^2 - 1) / sqrt(2*eps),   xi(y_eta) = 1 + eta,

which explodes at y_eta + sqrt(eps/2)*log(1 + 2/eta) and bounds psi from
below on [y_eta, Y).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (InvalidParameterError, NoCrossingError, PreconditionError,
                     StiffnessError)

MIN_STEP = 1e-14
BISECTION_WIDTH = 1e-9


@dataclass(frozen=True)
class OdeTrajectory:
    """Adaptive-integrator output on [y_start, y_end] with dense evaluation.

    `interpolant` maps y (scalar or array) to the stacked (value,
    derivative) pair; nodes/psi/psi_prime are the accepted steps.  When
    the integration was stopped by the threshold, blowup_time holds the
    bisected crossing of |psi| = blowup_threshold.
    """

    epsilon: float
    mu: float
    initial_slope: float
    nodes: np.ndarray
    psi: np.ndarray
    psi_prime: np.ndarray
    blowup_time: float | None
    blowup_threshold: float
    interpolant: Callable

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

    @staticmethod
    def from_callable(value, slope, y_grid, epsilon: float = math.nan,
                      mu: float = math.nan,
                      blowup_time: float | None = None,
                      blowup_threshold: float = math.inf) -> "OdeTrajectory":
        """Wrap closed-form value/slope callables as a trajectory (for
        planted comparisons and tests)."""
        y_grid = np.asarray(y_grid, dtype=float)

        def interp(y):
            y = np.asarray(y, dtype=float)
            return np.stack([np.asarray(value(y), dtype=float),
                             np.asarray(slope(y), dtype=float)])

        return OdeTrajectory(
            epsilon=epsilon, mu=mu,
            initial_slope=float(slope(y_grid[0])),
            nodes=y_grid,
            psi=np.asarray(value(y_grid), dtype=float),
            psi_prime=np.asarray(slope(y_grid), dtype=float),
            blowup_time=blowup_time,
            blowup_threshold=blowup_threshold,
            interpolant=interp,
        )


@dataclass(frozen=True)
class BlowupReport:
    """Crossing points, blow-up times and bound verdicts for one parameter set."""

    epsilon: float
    mu: float
    eta: float
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
    n_samples: int


@dataclass(frozen=True)
class EnergyDriftReport:
    initial_energy: float
    max_drift: float
    relative_drift: float


@dataclass(frozen=True)
class AxisRealnessReport:
    max_real_ratio: float   # max |Re phi| / (1 + |Im phi|) along the trajectory
    decoupled: bool
    y_end: float


def _integrate(rhs, y_span, state0, threshold, rtol, atol, stop_component,
               max_step=math.inf):
    """Shared adaptive RK45 driver with threshold stop and bisection refine."""
    from scipy.integrate import solve_ivp  # deferred: only ODE studies pay its import

    if isinstance(stop_component, tuple):
        i, j = stop_component

        def event(y, s):
            return math.hypot(s[i], s[j]) - threshold
    else:
        def event(y, s):
            return abs(s[stop_component]) - threshold

    event.terminal = True
    event.direction = 1
    sol = solve_ivp(rhs, y_span, state0, method="RK45", rtol=rtol, atol=atol,
                    max_step=max_step, dense_output=True, events=event)
    if sol.status == -1:
        steps = np.diff(sol.t)
        raise StiffnessError(
            f"integrator failed: {sol.message}",
            diagnostics={"last_y": float(sol.t[-1]),
                         "last_step": float(steps[-1]) if len(steps) else math.nan,
                         "min_step": float(np.min(steps)) if len(steps) else math.nan})
    if len(sol.t) > 1 and float(np.min(np.diff(sol.t))) < MIN_STEP:
        raise StiffnessError("step size underflow before any stop condition",
                             diagnostics={"min_step": float(np.min(np.diff(sol.t)))})

    blowup = None
    if sol.status == 1:  # threshold event fired; refine on the final step
        lo = sol.t[-2] if len(sol.t) > 1 else y_span[0]
        hi = sol.t_events[0][0]

        def excess(y):
            return event(y, sol.sol(y))

        if excess(lo) < 0.0:
            while hi - lo > BISECTION_WIDTH:
                midpoint = 0.5 * (lo + hi)
                if excess(midpoint) >= 0.0:
                    hi = midpoint
                else:
                    lo = midpoint
        blowup = float(0.5 * (lo + hi))
    return sol, blowup


def integrate_psi(epsilon: float, mu: float, initial_slope: float, y_max: float,
                  threshold: float = 1e8, rtol: float = 1e-11,
                  atol: float | None = None,
                  max_step: float = math.inf) -> OdeTrajectory:
    """Integrate eps*psi'' = mu*sinh(y) - psi + psi^3 from psi(0) = 0.

    Stops at y_max or when |psi| reaches the threshold; in the latter
    case the crossing is refined by bisection on the dense output and
    reported as blowup_time.  Capping max_step tightens the dense output
    between nodes (the interpolant is one order below the integrator).
    """
    if epsilon <= 0 or mu < 0:
        raise InvalidParameterError("epsilon must be positive and mu nonnegative")
    if rtol < 1e-13:
        raise InvalidParameterError("rtol below 1e-13 is not resolvable")
    if atol is None:
        atol = rtol

    def rhs(y, s):
        return (s[1], (mu * math.sinh(y) - s[0] + s[0] ** 3) / epsilon)

    sol, blowup = _integrate(rhs, (0.0, y_max), (0.0, initial_slope),
                             threshold, rtol, atol, stop_component=0,
                             max_step=max_step)
    return OdeTrajectory(
        epsilon=epsilon, mu=mu, initial_slope=initial_slope,
        nodes=sol.t, psi=sol.y[0], psi_prime=sol.y[1],
        blowup_time=blowup, blowup_threshold=threshold,
        interpolant=sol.sol,
    )


def integrate_comparison(epsilon: float, y_start: float, value: float,
                         slope: float, y_max: float, threshold: float = 1e8,
                         rtol: float = 1e-11,
                         atol: float | None = None) -> OdeTrajectory:
    """Integrate the unforced comparison dynamics eps*phi'' = -phi + phi^3."""
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    if atol is None:
        atol = rtol

    def rhs(y, s):
        return (s[1], (-s[0] + s[0] ** 3) / epsilon)

    sol, blowup = _integrate(rhs, (y_start, y_max), (value, slope),
                             threshold, rtol, atol, stop_component=0)
    return OdeTrajectory(
        epsilon=epsilon, mu=0.0, initial_slope=slope,
        nodes=sol.t, psi=sol.y[0], psi_prime=sol.y[1],
        blowup_time=blowup, blowup_threshold=threshold,
        interpolant=sol.sol,
    )


def locate_crossings(traj: OdeTrajectory, after: float, eta: float) -> tuple[float, float]:
    """First crossings of the levels 1 and 1 + eta at or after `after`.

    Root-bracketed on the dense output to 1e-10.  Raises NoCrossingError
    if a level is never reached.
    """
    if eta < 0:
        raise InvalidParameterError("eta must be nonnegative")
    from scipy.optimize import brentq  # deferred, like scipy.integrate

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
        return float(brentq(lambda y: float(traj.value(y)) - level,
                            grid[idx - 1], grid[idx], xtol=1e-10))

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
                       y_level: float, n_samples: int = 2000) -> LowerBoundCheck:
    """Check psi >= xi on [y_level, min(Y, Y_bound) - 1e-6], with slack
    1e-8 * (1 + |xi|) per sample, and the ordering Y <= Y_bound.

    A violated bound is a result carried in the report, not an error.
    """
    if traj.blowup_time is None:
        raise PreconditionError("trajectory has no detected blow-up")
    if n_samples < 1000:
        raise InvalidParameterError("use at least 1000 samples")
    y_bound = comparison_blowup_time(epsilon, eta, y_level)
    hi = min(traj.blowup_time, y_bound) - 1e-6
    ys = np.linspace(y_level, hi, n_samples)
    xi = comparison_solution(epsilon, eta, y_level, ys)
    psi = np.asarray(traj.value(ys))
    margin = psi - xi
    ok = bool(np.all(margin >= -1e-8 * (1.0 + np.abs(xi))))
    ordering = bool(traj.blowup_time <= y_bound)
    return LowerBoundCheck(
        verified=ok and ordering,
        ordering_ok=ordering,
        min_margin=float(np.min(margin)),
        n_samples=n_samples,
    )


def energy_drift_check(epsilon: float, traj: OdeTrajectory) -> EnergyDriftReport:
    """Drift of the conserved energy eps/2 * phi'^2 - phi^4/4 + phi^2/2 of
    the unforced comparison dynamics along a computed trajectory."""
    e = (0.5 * epsilon * traj.psi_prime**2
         - 0.25 * traj.psi**4 + 0.5 * traj.psi**2)
    drift = float(np.max(np.abs(e - e[0])))
    scale = max(abs(float(e[0])), 1e-30)
    return EnergyDriftReport(initial_energy=float(e[0]), max_drift=drift,
                             relative_drift=drift / scale)


def axis_decoupling_check(epsilon: float, mu: float, initial_slope: float,
                          y_max: float, threshold: float = 1e8,
                          rtol: float = 1e-11,
                          initial_real: float = 0.0) -> AxisRealnessReport:
    """Integrate the full complex ODE eps*phi'' + phi + phi^3 = i*mu*sinh
    with phi(0) = initial_real, phi'(0) = i*initial_slope, and measure how
    purely imaginary phi stays.

    With initial_real = 0 the real part is an invariant of the dynamics
    and must remain at numerical zero; a nonzero initial_real is the
    negative control.
    """
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")

    def rhs(y, s):
        a, b, da, db = s  # phi = a + i*b
        return (da, db,
                (-a - (a**3 - 3.0 * a * b * b)) / epsilon,
                (mu * math.sinh(y) - b - (3.0 * a * a * b - b**3)) / epsilon)

    sol, _ = _integrate(rhs, (0.0, y_max), (initial_real, 0.0, 0.0, initial_slope),
                        threshold, rtol, rtol, stop_component=(0, 1))
    ratio = np.abs(sol.y[0]) / (1.0 + np.abs(sol.y[1]))
    worst = float(np.max(ratio))
    return AxisRealnessReport(max_real_ratio=worst,
                              decoupled=worst <= 1e-9,
                              y_end=float(sol.t[-1]))


def forcing_region_boundary(mu: float, values) -> np.ndarray:
    """Boundary y(v) = arcsinh((v - v^3)/mu) of the region where the forced
    trajectory is convex (for plotting)."""
    v = np.asarray(values, dtype=float)
    return np.arcsinh((v - v**3) / mu)


def blowup_report(epsilon: float, mu: float, eta: float, initial_slope: float,
                  y_max: float = 10.0, threshold: float = 1e8,
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
    psi_b0 = float(traj.value(b0))
    dpsi_b0 = float(traj.slope(b0))
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
        epsilon=epsilon, mu=mu, eta=eta,
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


def write_blowup_json(report: BlowupReport, path) -> None:
    payload = {
        "epsilon": report.epsilon,
        "mu": report.mu,
        "eta": report.eta,
        "B0": report.branch_height,
        "psi_at_B0": report.psi_at_branch,
        "psi_prime_at_B0": report.psi_prime_at_branch,
        "y0": report.first_unit_crossing,
        "y_eta": report.level_crossing,
        "Y_eps": report.blowup_time,
        "Y_eps_eta": report.comparison_blowup,
        "C_eta": report.energy_constant,
        "C_eta_ok": report.energy_constant_ok,
        "convex_after_B0": report.convex_after_branch,
        "lower_bound_verified": report.lower_bound_verified,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(traj: OdeTrajectory, path, epsilon: float | None = None,
                         eta: float | None = None,
                         y_level: float | None = None,
                         n_rows: int = 512) -> None:
    """CSV of (y, psi, psi_prime, xi) rows; xi is empty before y_level or
    when the comparison parameters are not supplied."""
    end = traj.blowup_time if traj.blowup_time is not None else traj.y_end
    ys = np.linspace(traj.y_start, end - 1e-9, n_rows)
    vals = np.asarray(traj.value(ys))
    slopes = np.asarray(traj.slope(ys))
    with_xi = epsilon is not None and eta is not None and y_level is not None
    y_bound = comparison_blowup_time(epsilon, eta, y_level) if with_xi else math.inf
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "psi", "psi_prime", "xi"])
        for y, p, dp in zip(ys, vals, slopes):
            xi = ""
            if with_xi and y_level <= y < y_bound:
                xi = repr(float(comparison_solution(epsilon, eta, y_level, y)))
            writer.writerow([repr(float(y)), repr(float(p)), repr(float(dp)), xi])
