"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they are produced.
"""

import math
import time

import numpy as np
import pytest

from stripwave.blowup import (axis_decoupling_check, blowup_report,
                              comparison_blowup_time, energy_drift_check,
                              integrate_comparison, integrate_psi,
                              locate_crossings)
from stripwave.bloch import (FourierSeriesD, Lattice, assemble_bloch,
                             band_structure, basis_set, series1d_to_lattice)
from stripwave.cubic import (branch_point_height, cardano_discriminant,
                             cardano_root, estimate_solution_strip, solve_gp)
from stripwave.eigen import bz_convergence, convergence_study, solve_eig
from stripwave.fourier import (FourierSeries1D, grid_values, l2_norm, multiply,
                               project)
from stripwave.galerkin import assemble_dense
from stripwave.potentials import constant, mathieu, poisson_kernel

RESULTS = []


def report(criterion, ok, detail):
    line = f"[acceptance {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}"
    RESULTS.append(line)
    print(line)
    return ok


@pytest.fixture(scope="session", autouse=True)
def summary():
    yield
    print("\n".join(["", "acceptance summary", "------------------"] + RESULTS))


@pytest.fixture(scope="module")
def finite_strip_potential():
    # V(x) = 1/(2 - cos x) + 2, analytic on |Im z| < arccosh(2) ~ 1.3170
    return poisson_kernel(2.0, mu=1.0, shift=2.0, cutoff=120)


@pytest.fixture(scope="module")
def criterion1_table(finite_strip_potential):
    return convergence_study(finite_strip_potential, list(range(8, 49, 4)),
                             256, 1)


@pytest.fixture(scope="module")
def gp_solution():
    return solve_gp(0.1, 0.5, 128)


def test_criterion_1_exponential_eigenvalue_convergence(finite_strip_potential):
    started = time.perf_counter()
    table = convergence_study(finite_strip_potential, list(range(8, 49, 4)),
                              256, 1)
    elapsed = time.perf_counter() - started
    lam_ok = table.fitted_rate_eigenvalue <= -2.0
    vec_ok = table.fitted_rate_eigenvector <= -1.0
    time_ok = elapsed < 30.0
    report(1, lam_ok and vec_ok and time_ok,
           f"lambda rate {table.fitted_rate_eigenvalue:.4g} (need <= -2.0), "
           f"H1 rate {table.fitted_rate_eigenvector:.4g} (need <= -1.0), "
           f"runtime {elapsed:.1f}s (< 30s)")
    assert time_ok
    assert vec_ok, f"H1 rate {table.fitted_rate_eigenvector} exceeds -1.0"
    assert lam_ok, (
        "eigenvalue-rate fit over N in {8,12,...,48} above -2.0: the "
        "extended-precision errors are "
        f"{np.array2string(table.eigenvalue_errors, precision=2)} (expected "
        "4.2e-14, 5.2e-19, 7.9e-24 and 1.4e-28 at N=8, 12, 16 and 20 and "
        "exact zeros beyond, which the fit excludes)")


def test_criterion_2_error_ratio_slope(criterion1_table):
    lam = criterion1_table.eigenvalue_errors
    vec = criterion1_table.eigenvector_errors
    usable = (lam > 1e-12) & (vec > 1e-12)
    if np.sum(usable) >= 2:
        slope, _ = np.polyfit(np.log(vec[usable]), np.log(lam[usable]), 1)
    else:
        slope = math.nan
    ok = abs(slope - 2.0) <= 0.3
    # the one resolvable pair at N=8 does satisfy the square law pointwise
    ratio8 = lam[0] / vec[0] ** 2
    report(2, ok, f"log-log slope {slope:.4g} (need 2 +/- 0.3); pointwise "
                  f"lambda_err/h1_err^2 at N=8 is {ratio8:.3f}")
    assert ok, (
        "the square-law slope cannot be formed on the N in {8,...,48} sweep: "
        "no eigenvalue error lies above the 1e-12 filter (N=8's is 4.2e-14, "
        "and it does satisfy the square law pointwise: ratio "
        f"{ratio8:.3f}), so no rows remain to fit and the slope is nan")


def test_criterion_3_free_and_constant_spectra():
    free = solve_eig(constant(0.0), 16, 9)
    expected = np.array([0., 1., 1., 4., 4., 9., 9., 16., 16.])
    err_free = float(np.max(np.abs(free.eigenvalues - expected)))
    shift = 2.25
    shifted = solve_eig(constant(shift), 16, 9)
    err_shift = float(np.max(np.abs(shifted.eigenvalues - (expected + shift))))
    ok = err_free <= 1e-12 and err_shift <= 1e-12
    report(3, ok, f"free spectrum error {err_free:.2e}, "
                  f"constant-shift error {err_shift:.2e} (need <= 1e-12)")
    assert ok


def test_criterion_4_mathieu_cross_check():
    a0_64 = solve_eig(mathieu(1.0), 64, 1).eigenvalues[0]
    a0_128 = solve_eig(mathieu(1.0), 128, 1).eigenvalues[0]
    table_value = -0.455138604
    refinement = abs(a0_64 - a0_128)
    table_err = abs(a0_64 - table_value)
    ok = refinement <= 1e-12 and table_err <= 1e-6
    report(4, ok, f"a0(q=1) = {a0_64:.12f}; N=64 vs N=128 diff {refinement:.2e} "
                  f"(<= 1e-12), vs tables {table_err:.2e} (<= 1e-6)")
    assert ok


def test_criterion_5_cardano_validity():
    x = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    residuals = {}
    for mu in (0.5, 10.0):
        u = cardano_root(mu, x)
        residuals[mu] = float(np.max(np.abs(u + u**3 - mu * np.sin(x))))
    b0 = branch_point_height(10.0)
    disc = abs(cardano_discriminant(10.0, 1j * b0))
    res_ok = all(r <= 1e-10 for r in residuals.values())
    disc_ok = disc <= 1e-10
    caption_ok = abs(b0 - 0.0385) <= 5e-4  # agreement to 3 decimals
    ok = res_ok and disc_ok and caption_ok
    report(5, ok, f"max residuals {residuals[0.5]:.1e} (mu=0.5), "
                  f"{residuals[10.0]:.1e} (mu=10) (<= 1e-10); "
                  f"|R(i*B0)| = {disc:.1e} (<= 1e-10); B0(10) = {b0:.4f} "
                  f"vs 0.0385")
    assert ok


def test_criterion_6_branch_discontinuity():
    mu, delta = 10.0, 1e-3
    b0 = branch_point_height(mu)
    above = cardano_root(mu, 1j * (b0 + delta))
    below = cardano_root(mu, 1j * (b0 - delta))
    im_jump = abs(above.imag - below.imag)
    full_jump = abs(above - below)
    ok = im_jump > 0.1
    report(6, ok, f"Im jump {im_jump:.4f} (need > 0.1); "
                  f"full complex jump {full_jump:.4f}")
    assert ok, (
        f"the imaginary-part jump across y = B0 at delta=1e-3, mu=10 is "
        f"{im_jump:.4f}, below the 0.1 threshold: analytically it scales as "
        f"sqrt(delta*mu*cosh(B0)/sqrt(3)) ~ 0.076, so the threshold is not "
        f"reachable at this delta.  The discontinuity itself is real and "
        f"large: the full complex jump is {full_jump:.4f} (the real part "
        f"jumps by ~1.0)")


def test_criterion_7_nonlinear_solve(gp_solution):
    res = gp_solution
    iters_ok = res.newton_iters <= 12
    resid_ok = res.residual_l2 <= 1e-11
    c = res.solution.coeffs
    odd = float(np.max(np.abs(c + c[::-1])))
    realpart = float(np.max(np.abs(c.real)))
    structure_ok = odd <= 1e-12 and realpart <= 1e-12
    hist = res.residual_history
    quad_ok = all(r2 <= 10.0 * r1**2 for r1, r2 in zip(hist[-3:-1], hist[-2:]))
    ok = iters_ok and resid_ok and structure_ok and quad_ok
    report(7, ok, f"{res.newton_iters} Newton iters (<= 12), residual "
                  f"{res.residual_l2:.1e} (<= 1e-11), odd/imag structure "
                  f"{max(odd, realpart):.1e} (<= 1e-12), quadratic tail "
                  f"{'ok' if quad_ok else 'violated'}")
    assert ok


def test_criterion_8_strip_width_chain(gp_solution):
    started = time.perf_counter()
    eps, mu, eta = 0.1, 0.5, 0.5
    b0 = branch_point_height(mu)
    strip = estimate_solution_strip(gp_solution, noise_floor=1e-26)
    rep = blowup_report(eps, mu, eta, gp_solution.u_prime_at_zero)
    elapsed = time.perf_counter() - started

    b_eps = strip.half_width
    b_ok = math.isfinite(b_eps) and b_eps >= b0 and b_eps <= rep.blowup_time + 0.05
    ordering_ok = rep.blowup_time <= rep.comparison_blowup
    offset = rep.comparison_blowup - rep.level_crossing
    offset_ok = abs(offset - math.sqrt(0.05) * math.log(5.0)) <= 1e-10
    bound_ok = rep.lower_bound_verified
    branch_ok = 0.0 < rep.psi_at_branch < 1.0 / math.sqrt(3.0) \
        and rep.psi_prime_at_branch > 0.0
    time_ok = elapsed < 10.0
    ok = b_ok and ordering_ok and offset_ok and bound_ok and branch_ok and time_ok
    report(8, ok,
           f"B_eps = {b_eps:.4f} in [B0 = {b0:.4f}, Y_eps + 0.05 = "
           f"{rep.blowup_time + 0.05:.4f}]; Y_eps = {rep.blowup_time:.4f} <= "
           f"Y_eps_eta = {rep.comparison_blowup:.4f}; psi(B0) = "
           f"{rep.psi_at_branch:.4f} in (0, 0.5774), psi'(B0) = "
           f"{rep.psi_prime_at_branch:.4f} > 0; pointwise bound "
           f"{'holds' if bound_ok else 'fails'}; runtime {elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_9_strip_width_monotone_in_epsilon():
    widths = []
    for eps in (0.05, 0.1, 0.2, 0.4):
        res = solve_gp(eps, 0.5, 128)
        est = estimate_solution_strip(res, noise_floor=1e-26)
        widths.append(est.half_width)
    finite_ok = all(math.isfinite(w) for w in widths)
    monotone_ok = all(w1 <= w2 for w1, w2 in zip(widths, widths[1:]))
    ok = finite_ok and monotone_ok
    report(9, ok, "B_eps over eps in {0.05, 0.1, 0.2, 0.4}: "
                  + ", ".join(f"{w:.4f}" for w in widths)
                  + (" (nondecreasing)" if monotone_ok else " (NOT monotone)"))
    assert ok


def test_criterion_10_multidimensional(finite_strip_potential):
    started = time.perf_counter()
    # 1D reduction: the lattice pipeline must reproduce the 1D eigensolver
    V = finite_strip_potential
    lat, Vd = series1d_to_lattice(V)
    basis = basis_set(lat, [0.0], 12.0)
    fiber = np.linalg.eigvalsh(assemble_bloch(Vd, basis))
    direct = np.linalg.eigvalsh(assemble_dense(V, 12))
    reduction_err = float(np.max(np.abs(fiber - direct)))
    reduction_ok = reduction_err <= 1e-12

    # worst-over-k errors: nonnegative, monotone, exponential rate
    table = bz_convergence(Vd, [[0.0], [0.25], [0.5]], [4, 5, 6, 7, 8],
                           16.0, 1)
    nonneg_ok = bool(np.all(table.max_errors >= 0.0))
    monotone_ok = bool(np.all(np.diff(table.max_errors) <= 0.0))
    rate_ok = table.fitted_rate <= -2.0

    # 2D free bands are the folded parabolas, exactly
    lat2 = Lattice(2.0 * np.pi * np.eye(2))
    ks = [[0.0, 0.0], [0.2, 0.1], [0.5, 0.0], [0.5, 0.5]]
    bs = band_structure(FourierSeriesD(lat2, {}), ks, 3.0, 6)
    worst = 0.0
    for k, row in zip(ks, bs.bands):
        exact = sorted(
            (m1 + k[0]) ** 2 + (m2 + k[1]) ** 2
            for m1 in range(-4, 5) for m2 in range(-4, 5))[:6]
        worst = max(worst, float(np.max(np.abs(row - np.asarray(exact)))))
    bands_ok = worst <= 1e-12
    elapsed = time.perf_counter() - started
    time_ok = elapsed < 60.0
    ok = reduction_ok and nonneg_ok and monotone_ok and rate_ok and bands_ok \
        and time_ok
    report(10, ok, f"1D reduction error {reduction_err:.1e} (<= 1e-12); "
                   f"BZ errors nonneg={nonneg_ok}, monotone={monotone_ok}, "
                   f"rate {table.fitted_rate:.3f} (<= -2.0); free-band error "
                   f"{worst:.1e} (<= 1e-12); runtime {elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_11_property_suites(gp_solution):
    eps, mu, eta = 0.1, 0.5, 0.5
    checks = {}

    # Parseval between grid and coefficients
    rng = np.random.RandomState(42)
    u = FourierSeries1D(512, rng.randn(1025) + 1j * rng.randn(1025))
    vals = grid_values(u, 2 * 512 + 1)
    grid_sq = 2.0 * np.pi / len(vals) * float(np.sum(np.abs(vals) ** 2))
    checks["parseval"] = abs(grid_sq - l2_norm(u) ** 2) <= 1e-12 * l2_norm(u) ** 2

    # projection idempotence
    p = project(u, 100)
    checks["projection"] = bool(np.array_equal(project(p, 100).coeffs, p.coeffs))

    # convolution vs grid-product oracle
    a = FourierSeries1D(64, rng.randn(129) + 1j * rng.randn(129))
    b = FourierSeries1D(64, rng.randn(129) + 1j * rng.randn(129))
    n = 64 + 64 + 64 + 1
    pointwise = grid_values(a, n) * grid_values(b, n)
    oracle = FourierSeries1D.from_callable(lambda x: pointwise, 64, n_grid=n)
    prod = multiply(a, b, 64)
    scale = float(np.max(np.abs(oracle.coeffs)))
    checks["convolution"] = float(np.max(np.abs(prod.coeffs - oracle.coeffs))) \
        <= 1e-12 * scale

    # energy conservation of the comparison dynamics
    slope = gp_solution.u_prime_at_zero
    traj = integrate_psi(eps, mu, slope, y_max=10.0)
    _, y_eta = locate_crossings(traj, branch_point_height(mu), eta)
    comp = integrate_comparison(eps, y_eta, 1.0 + eta, float(traj.slope(y_eta)),
                                y_max=5.0, threshold=10.0, rtol=1e-12)
    drift = energy_drift_check(eps, comp)
    checks["energy"] = drift.relative_drift <= 1e-7

    # complex-axis realness decoupling
    axis = axis_decoupling_check(eps, mu, slope, y_max=10.0)
    checks["decoupling"] = axis.max_real_ratio <= 1e-9

    # integrator self-refinement of the blow-up time
    t1 = integrate_psi(eps, mu, slope, y_max=10.0, rtol=1e-10).blowup_time
    t2 = integrate_psi(eps, mu, slope, y_max=10.0, rtol=5e-11).blowup_time
    checks["refinement"] = abs(t1 - t2) <= 1e-6

    ok = all(checks.values())
    report(11, ok, ", ".join(f"{name}={'ok' if good else 'FAIL'}"
                             for name, good in checks.items()))
    assert ok, checks
