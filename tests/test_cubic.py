"""Tests for the Cardano closed form and the Newton-Galerkin cubic solve."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import stripwave.cubic
from stripwave.cubic import (_MAX_ITER, _block_order, _cbrt, _half_wave_jacobian, _slide,
                             _sqrt, branch_point_height, cardano_discriminant,
                             cardano_root, estimate_solution_strip, solve_gp)
from stripwave.errors import (BranchPointWarning, InvalidParameterError,
                              NonconvergenceError)
from stripwave.extended import norm2
from stripwave.fourier import (SQRT_2PI, FourierSeries1D, grid_values, l2_norm,
                               multiply)
from stripwave.cubic import GpSolveResult
from stripwave.potentials import HALF_MODE, sine

SQRT3 = math.sqrt(3.0)


def square(u, cutoff):
    return multiply(FourierSeries1D(cutoff, u), FourierSeries1D(cutoff, u),
                    2 * cutoff).coeffs


def complex_jacobian(u, cutoff, lin):
    """Jacobian diag(eps*k^2 + 1) + 3 * (multiplication by u^2) on |k| <= cutoff."""
    sq = square(u, cutoff)
    n2 = 2 * cutoff
    col = sq[n2: n2 + 2 * cutoff + 1]
    row = sq[n2::-1][: 2 * cutoff + 1]
    jac = 3.0 / SQRT_2PI * scipy.linalg.toeplitz(col, row)
    jac[np.diag_indices_from(jac)] += lin
    return jac


def complex_newton(epsilon, mu, cutoff, tol=1e-12):
    """Reference Newton on the full complex system of order 2N+1, started
    from the unprojected Cardano guess, with solve_gp's stopping rule."""
    k = np.arange(-cutoff, cutoff + 1)
    lin = epsilon * k.astype(float) ** 2 + 1.0
    fhat = sine(mu)._padded(cutoff)
    u = FourierSeries1D.from_callable(
        lambda x: np.real(cardano_root(mu, x)), cutoff,
        n_grid=4 * cutoff + 1).coeffs
    for it in range(_MAX_ITER + 1):
        series = FourierSeries1D(cutoff, u)
        cube = multiply(multiply(series, series, 2 * cutoff), series, cutoff)
        residual = lin * u + cube.coeffs - fhat
        if np.linalg.norm(residual) <= tol * max(1.0, mu * math.sqrt(math.pi)):
            return u, it
        u = u - np.linalg.solve(complex_jacobian(u, cutoff, lin), residual)
    raise AssertionError("reference Newton did not converge")


class TestBranches:
    def test_cbrt_real_on_real_axis(self):
        x = np.array([-8.0, -1.0, -0.3, 0.0, 0.3, 1.0, 8.0])
        got = _cbrt(x)
        np.testing.assert_allclose(got.imag, 0.0, atol=1e-15)
        np.testing.assert_allclose(got.real, np.cbrt(x), rtol=1e-14)

    def test_cbrt_analytic_off_imaginary_axis(self):
        # cube of the branch value returns the argument on both half planes
        rng = np.random.RandomState(0)
        w = rng.randn(50) + 1j * rng.randn(50)
        w = w[np.abs(w.real) > 1e-3]
        np.testing.assert_allclose(_cbrt(w) ** 3, w, rtol=1e-12)

    def test_sqrt_principal(self):
        assert _sqrt(-4.0) == pytest.approx(2j)


class TestDiscriminant:
    def test_at_origin(self):
        assert cardano_discriminant(3.0, 0.0) == pytest.approx(-4.0)

    def test_negative_on_real_axis(self):
        x = np.linspace(0, 2 * np.pi, 257)
        vals = cardano_discriminant(1.3, x)
        assert np.all(vals.real <= -4.0 + 1e-12)
        assert np.max(np.abs(vals.imag)) < 1e-12

    @pytest.mark.parametrize("mu", [0.5, 10.0])
    def test_vanishes_at_branch_point(self, mu):
        b0 = branch_point_height(mu)
        assert abs(cardano_discriminant(mu, 1j * b0)) < 1e-12

    def test_branch_height_large_forcing(self):
        # for mu = 10 the branch point sits at about 0.0385
        assert branch_point_height(10.0) == pytest.approx(0.0385, abs=5e-4)


class TestCardanoRoot:
    def test_zero_forcing_point(self):
        assert cardano_root(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("mu", [0.5, 10.0])
    def test_residual_on_real_axis(self, mu):
        x = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
        u = cardano_root(mu, x)
        res = np.max(np.abs(u + u**3 - mu * np.sin(x)))
        assert res <= 1e-10
        assert np.max(np.abs(u.imag)) < 1e-14

    def test_residual_inside_strip(self):
        mu = 10.0
        b0 = branch_point_height(mu)
        x = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        for level in (0.5 * b0, b0 - 1e-3, -(b0 - 1e-3)):
            z = x + 1j * level
            u = cardano_root(mu, z)
            assert np.max(np.abs(u + u**3 - mu * np.sin(z))) <= 1e-10

    def test_limit_at_branch_point(self):
        # approaching i*B0 from below, the root tends to i/sqrt(3)
        mu = 10.0
        b0 = branch_point_height(mu)
        with pytest.warns(BranchPointWarning):
            val = cardano_root(mu, 1j * (b0 - 1e-12))
        assert val == pytest.approx(1j / SQRT3, abs=1e-4)
        # and the forcing there is i*sqrt(4/27)
        f = mu * np.sin(1j * b0)
        assert f == pytest.approx(1j * math.sqrt(4.0 / 27.0), abs=1e-14)

    def test_warning_radius(self):
        mu = 10.0
        b0 = branch_point_height(mu)
        with pytest.warns(BranchPointWarning):
            cardano_root(mu, 1j * b0)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cardano_root(mu, 1j * (b0 - 1e-3))  # outside the 1e-8 radius

    def test_branch_discontinuity_across_cut(self):
        # Crossing y = B0 on the imaginary axis the closed form jumps.
        # The measured jump of the full complex value exceeds 1 for mu = 10
        # at delta = 1e-3; its imaginary part alone jumps by about 0.079
        # (it scales as sqrt(delta * mu)).
        mu, delta = 10.0, 1e-3
        b0 = branch_point_height(mu)
        above = cardano_root(mu, 1j * (b0 + delta))
        below = cardano_root(mu, 1j * (b0 - delta))
        assert abs(above - below) > 1.0
        assert abs(above.imag - below.imag) > 0.07

    def test_mu_zero(self):
        assert cardano_root(0.0, 1.3 + 0.2j) == pytest.approx(0.0)


class TestSolveGp:
    def test_zero_forcing(self):
        res = solve_gp(0.1, 0.0, 32)
        assert res.newton_iters <= 1
        assert l2_norm(res.solution) < 1e-13

    def test_converged_structure(self):
        res = solve_gp(0.1, 0.5, 64)
        assert res.residual_l2 <= 1e-11
        c = res.solution.coeffs
        # odd and purely imaginary coefficients for sine forcing
        assert np.max(np.abs(c + c[::-1])) < 1e-12
        assert np.max(np.abs(c.real)) < 1e-12
        assert res.u_prime_at_zero > 0

    def test_self_refinement(self):
        u64 = solve_gp(0.1, 0.5, 64).solution
        u128 = solve_gp(0.1, 0.5, 128).solution
        assert l2_norm(u64 - u128) < 1e-12

    def test_quadratic_newton_tail(self):
        res = solve_gp(0.1, 0.5, 64)
        hist = res.residual_history
        assert len(hist) >= 3
        for r_prev, r_next in zip(hist[-3:-1], hist[-2:]):
            assert r_next <= 10.0 * r_prev**2

    def test_cubic_term_matches_grid_oracle(self):
        res = solve_gp(0.2, 0.5, 32)
        u = res.solution
        sq = multiply(u, u, 2 * u.cutoff)
        cubic = multiply(sq, u, u.cutoff)
        n = 3 * u.cutoff + 1
        vals = grid_values(u, n) ** 3
        oracle = FourierSeries1D.from_callable(lambda x: vals, u.cutoff, n_grid=n)
        np.testing.assert_allclose(cubic.coeffs, oracle.coeffs, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            solve_gp(0.0, 0.5, 64)
        with pytest.raises(InvalidParameterError):
            solve_gp(0.1, 0.5, 8)

    def test_nonconvergence_carries_history(self, monkeypatch):
        direct = solve_gp(0.1, 0.5, 32)
        runs = newton_runs(monkeypatch)
        with pytest.raises(NonconvergenceError) as info:
            solve_gp(0.1, 0.5, 32, tol=1e-30)
        assert len(runs) == 1 and runs[0][:2] == (0.1, 0.5)
        # the floor is about 3.7e-26: every step is taken, on this eps,
        # through the same iterates as the converged solve
        history = info.value.residual_history
        assert len(history) == _MAX_ITER + 1
        assert tuple(history[:len(direct.residual_history)]) == direct.residual_history
        assert 1e-30 < min(history) < 1e-25

    @pytest.mark.parametrize("mu", [1e200, 1e300])
    def test_nonfinite_residual_raises_nonconvergence(self, mu, monkeypatch):
        # mu^2 overflows in the Cardano guess; Newton stops at its first
        # residual instead of handing infs and NaNs to the linear solve
        runs = newton_runs(monkeypatch)
        with pytest.raises(NonconvergenceError, match="residual nan") as info:
            solve_gp(0.1, mu, 32)
        assert len(runs) == 1
        assert len(info.value.residual_history) == 1
        assert not math.isfinite(info.value.residual_history[0])


def newton_runs(monkeypatch):
    """The arguments of each cubic._newton call, as a list that fills
    while the patch holds.  A solve is one Newton run, on success and on
    every failure: the tests that spy on it check that it ran once."""
    newton, runs = stripwave.cubic._newton, []

    def spy(*args):
        runs.append(args)
        return newton(*args)

    monkeypatch.setattr(stripwave.cubic, "_newton", spy)
    return runs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(epsilon=st.floats(-4.0, 2.0).map(lambda e: 10.0**e),
       mu=st.one_of(st.just(0.0), st.floats(-6.0, 3.0).map(lambda e: 10.0**e)),
       cutoff=st.integers(16, 256))
def test_one_newton_converges(epsilon, mu, cutoff):
    # no fallback path is left to rescue a solve that stalls: the one
    # Newton from the Cardano start must converge across the range
    res = solve_gp(epsilon, mu, cutoff)
    assert res.residual_l2 <= 1e-12 * max(1.0, mu * math.sqrt(math.pi))
    assert len(res.residual_history) == res.newton_iters + 1 <= 8
    c = res.solution.coeffs
    assert np.all(c.real == 0.0) and np.all(c[even_k(cutoff)] == 0.0)


PARAMS =[(0.1, 0.5), (0.2, 2.0), (0.05, 1.0), (1.0, 0.1)]


def even_k(cutoff):
    return np.arange(-cutoff, cutoff + 1) % 2 == 0


class TestOddNewton:
    @pytest.mark.parametrize("cutoff", [16, 17, 24, 25, 64])
    @pytest.mark.parametrize("epsilon, mu", PARAMS)
    def test_matches_complex_newton(self, cutoff, epsilon, mu):
        res = solve_gp(epsilon, mu, cutoff)
        ref, iters = complex_newton(epsilon, mu, cutoff)
        assert res.newton_iters == iters
        odd = ~even_k(cutoff)
        c = res.solution.coeffs
        np.testing.assert_allclose(c[odd], ref[odd], rtol=0,
                                   atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("epsilon, mu", PARAMS)
    def test_solution_stays_odd_and_imaginary(self, epsilon, mu):
        cutoff = 24
        c = solve_gp(epsilon, mu, cutoff).solution.coeffs
        assert np.all(c.real == 0.0)
        assert c[cutoff] == 0.0
        assert np.array_equal(c[cutoff + 1:], -c[cutoff - 1::-1])
        # half-wave symmetry: Newton never leaves the odd k
        assert np.all(c[even_k(cutoff)] == 0.0)

    @pytest.mark.parametrize("cutoff", [16, 17, 24, 25])
    def test_every_newton_matrix_has_half_order(self, cutoff, monkeypatch):
        cho_solve = scipy.linalg.cho_solve
        orders = []

        def spy(factor, b, **kwargs):
            orders.append((factor[0].shape, b.shape))
            return cho_solve(factor, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_solve", spy)
        res = solve_gp(0.1, 0.5, cutoff)
        half = (cutoff + 1) // 2
        assert len(orders) == res.newton_iters > 0
        assert set(orders) == {((half, half), (half,))}

    @pytest.mark.parametrize("cutoff", [16, 17, 40, 41])
    def test_real_jacobian_acts_like_complex(self, cutoff):
        epsilon = 0.1
        u = solve_gp(epsilon, 0.5, cutoff).solution.coeffs
        k = np.arange(-cutoff, cutoff + 1)
        lin = epsilon * k.astype(float) ** 2 + 1.0
        pos, neg = slice(cutoff + 1, None, 2), slice(cutoff - 1, None, -2)
        odd = cutoff - 1 + cutoff % 2  # the largest odd k <= cutoff
        # (u^2)_m at the even |m| <= 2*odd, the only ones the Jacobian reads
        sq = square(u, cutoff)[2 * (cutoff - odd):2 * (cutoff + odd) + 1:2]
        assert np.all(sq.imag == 0.0)
        jac = _half_wave_jacobian(sq.real, lin[pos])
        assert jac.shape == ((cutoff + 1) // 2,) * 2
        assert np.array_equal(jac, jac.T)
        assert np.min(np.linalg.eigvalsh(jac)) >= 1.0 - 1e-12
        d = np.random.RandomState(3).randn(len(jac))
        v = np.zeros(2 * cutoff + 1, dtype=complex)
        v[pos], v[neg] = 1j * d, -1j * d
        got = complex_jacobian(u, cutoff, lin) @ v
        jd = jac @ d
        scale = np.max(np.abs(jd))
        np.testing.assert_allclose(got[pos], 1j * jd, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(got[neg], -1j * jd, rtol=0, atol=1e-14 * scale)
        # the odd-k vector stays odd: the even k, k = 0 among them, get nothing
        assert np.max(np.abs(got[even_k(cutoff)])) <= 1e-14 * scale

    @pytest.mark.parametrize("cutoff", [1, 2, 16, 17, 257])
    def test_real_jacobian_matches_toeplitz_hankel(self, cutoff):
        rng = np.random.RandomState(cutoff)
        half = (cutoff + 1) // 2
        # s_m at the even |m| <= 2K, K = 2*half - 1 the largest odd k
        sq = rng.randn(4 * half - 1)
        lin = 1.0 + rng.rand(half)
        e = sq[2 * half - 1:]  # s_0, s_2, ..., s_{2K}
        want = 3.0 / SQRT_2PI * (scipy.linalg.toeplitz(e[:half])
                                 - scipy.linalg.hankel(e[1:half + 1],
                                                       e[half:2 * half]))
        want[np.diag_indices_from(want)] += lin
        got = _half_wave_jacobian(sq, lin)
        assert got.tobytes() == want.tobytes()
        assert got.strides == want.strides

    def test_newton_forms_no_complex_product(self, monkeypatch):
        import stripwave.cubic
        import stripwave.fourier
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a complex convolution was formed")

        monkeypatch.setattr(stripwave.fourier, "multiply", spy)
        monkeypatch.setattr(stripwave.cubic, "multiply", spy, raising=False)
        monkeypatch.setattr(np, "convolve", spy)
        res = solve_gp(0.1, 0.5, 64)
        assert calls == []
        assert res.newton_iters == 3 and res.residual_l2 <= 1e-12

    @pytest.mark.parametrize("mu", [1e4, 1e5])
    def test_tolerance_is_relative_to_large_forcing(self, mu):
        # the residual's rounding floor grows with mu: at these mu it lies
        # above the absolute 1e-12, below 1e-12 * ||mu sin|| = 1e-12 mu sqrt(pi)
        res = solve_gp(0.1, mu, 24)
        assert 1e-12 < res.residual_l2 <= 1e-12 * mu * math.sqrt(math.pi)
        assert res.newton_iters <= 6
        hist = res.residual_history
        assert hist[-1] <= 1e-4 * hist[-2]  # no stall: the last step still gains
        c = res.solution.coeffs
        assert np.all(c.real == 0.0) and np.all(c[even_k(24)] == 0.0)

    def test_failed_cholesky_raises_nonconvergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        runs = newton_runs(monkeypatch)
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
        for cutoff in (32, 768):
            runs.clear()
            with pytest.raises(NonconvergenceError, match="positive definiteness") as info:
                solve_gp(0.1, 0.5, cutoff)
            assert len(runs) == 1
            assert len(info.value.residual_history) == 1


def full_square_residual(epsilon, mu, b):
    """cubic._newton's residual before the mirrored half-row square and the
    block: u^2 as the full convolution of the zero-padded beta, and u^3 on
    every odd k <= 2*len(b) - 1.  Returns the square and the residual."""
    order = len(b)
    lin = epsilon * np.arange(1.0, 2 * order, 2) ** 2 + 1.0
    pad = np.zeros(2 * order - 1)
    beta = np.concatenate((-b[::-1], b))
    sq = -_slide(np.concatenate((pad, beta, pad)), beta[::-1]) / SQRT_2PI
    residual = lin * b + _slide(sq[order:], beta[::-1]) / SQRT_2PI
    residual[0] += mu * HALF_MODE
    return sq, residual


def full_square_newton(epsilon, mu, b, tol, block=None):
    """cubic._newton as it was before the mirrored half-row square, the
    direct Cholesky step and the block: the residual of
    full_square_residual on every mode, each step from
    scipy.linalg.solve(assume_a="pos").  With a block order, b must be
    zero beyond it, and each step is instead cho_solve of the leading
    block x block of _half_wave_jacobian(sq, lin), and zero beyond it, so
    the iterate stays zero there.  Returns its last iterate, its residual
    history, and the square and the step of every iteration."""
    order = len(b)
    lin = epsilon * np.arange(1.0, 2 * order, 2) ** 2 + 1.0
    stop = tol * max(1.0, mu * math.sqrt(math.pi))
    history, squares, steps = [], [], []
    for _ in range(_MAX_ITER + 1):
        sq, residual = full_square_residual(epsilon, mu, b)
        history.append(norm2((residual, residual)))
        if history[-1] <= stop:
            return b, history, squares, steps
        squares.append(sq)
        jac = _half_wave_jacobian(sq, lin)
        if block is None:
            steps.append(scipy.linalg.solve(jac, residual, assume_a="pos"))
        else:
            steps.append(np.zeros(order))
            steps[-1][:block] = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(jac[:block, :block]), residual[:block])
        b = b - steps[-1]
    raise AssertionError("reference Newton did not converge")


def zero_padded(b, order):
    """b followed by exact zeros up to length order."""
    return np.concatenate((b, np.zeros(order - len(b))))


class TestSameBitsAsTheFullSquare:
    """The mirrored half-row square gives the bits of the full padded
    square.  Where the block is the whole order, the cho_factor/cho_solve
    step gives those of scipy.linalg.solve; above it, Newton holds the
    block alone, and its square, on the block's reach, and each step are
    those of the full-order Newton whose iterate is zero beyond the
    block and which steps on the block alone, bit for bit."""

    @pytest.mark.parametrize("cutoff", [24, 256, 768])
    @pytest.mark.parametrize("epsilon, mu", [(0.1, 0.5), (0.08, 0.6), (0.05, 1.0)])
    def test_squares_and_steps_match(self, cutoff, epsilon, mu, monkeypatch):
        squares, steps = [], []
        jacobian = stripwave.cubic._half_wave_jacobian
        cho_solve = scipy.linalg.cho_solve

        def spy_jacobian(sq, lin):
            squares.append(sq)
            return jacobian(sq, lin)

        def spy_cho_solve(*args, **kwargs):
            steps.append(cho_solve(*args, **kwargs))
            return steps[-1]

        starts = newton_runs(monkeypatch)
        monkeypatch.setattr(stripwave.cubic, "_half_wave_jacobian", spy_jacobian)
        monkeypatch.setattr(scipy.linalg, "cho_solve", spy_cho_solve)
        res = solve_gp(epsilon, mu, cutoff)
        assert len(starts) == 1  # one Newton run
        order = (cutoff + 1) // 2
        block = _block_order(mu, order)
        # at mu = 1 the block (101 modes) is the whole order at N = 256
        assert (block < order) == (cutoff > 256 or (cutoff == 256 and mu < 1.0))
        monkeypatch.undo()
        epsilon, mu, start, rows, tol = starts[0]
        assert len(start) == block and rows == min(3 * block - 1, order)
        b, history, want_squares, want_steps = full_square_newton(
            epsilon, mu, zero_padded(start, order), tol,
            block=None if block == order else block)
        assert tuple(history) == res.residual_history
        assert len(squares) == len(want_squares) == res.newton_iters > 0
        for got, want in zip(squares, want_squares):
            # the block's Jacobian reads the s_m at |m| <= 2(2*block - 1)
            cut = slice(2 * (order - block), 2 * (order + block) - 1)
            assert got.tobytes() == want[cut].tobytes()
        assert len(steps) == len(want_steps)
        for got, want in zip(steps, want_steps):
            assert got.tobytes() == want[:block].tobytes()
        assert res.solution.coeffs[cutoff + 1::2].imag.tobytes() == b.tobytes()


def full_order_start(mu, cutoff):
    """solve_gp's start before the block: the Cardano root's projection on
    every odd k <= cutoff."""
    c = FourierSeries1D.from_callable(lambda x: np.real(cardano_root(mu, x)), cutoff,
                                      n_grid=4 * cutoff + 1).coeffs
    return 0.5 * (c[cutoff + 1::2].imag - c[cutoff - 1::-2].imag)


def as_result(b, cutoff, history):
    """b and its residual history as solve_gp's result on |k| <= cutoff."""
    u = np.zeros(2 * cutoff + 1, dtype=complex)
    u[cutoff + 1::2], u[cutoff - 1::-2] = 1j * b, -1j * b
    slope = complex(np.sum(1j * np.arange(-cutoff, cutoff + 1) * u)) / SQRT_2PI
    return GpSolveResult(solution=FourierSeries1D(cutoff, u), newton_iters=len(history) - 1,
                         residual_l2=history[-1], u_prime_at_zero=slope.real,
                         residual_history=tuple(history), block_order=len(b),
                         residual_rows=len(b))


def odd_block_count(mu, order):
    """The odd k = 1..2*order - 1 with exp(-B0*k) >= 2^-110, counted."""
    height = branch_point_height(mu)
    return sum(math.exp(-height * k) >= 2.0**-110 for k in range(1, 2 * order, 2))


def factor_shapes(monkeypatch):
    """The shapes of the matrices scipy.linalg.cho_factor is given, as a
    list that fills while the patch holds."""
    cho_factor = scipy.linalg.cho_factor
    shapes = []

    def spy(a, **kwargs):
        shapes.append(a.shape)
        return cho_factor(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", spy)
    return shapes


class TestBlock:
    """Newton holds the leading block sized by the Cardano branch height
    alone: its iterate is exactly zero beyond it, and its residual is
    summed on the 3M - 1 rows the block's cube reaches."""

    @pytest.mark.parametrize("mu, cutoff", [(0.5, 24), (0.5, 32), (0.5, 128),
                                            (0.6, 128), (0.4, 128), (5.0, 768)])
    def test_whole_order_at_golden_sizes_and_large_mu(self, mu, cutoff, monkeypatch):
        # the gp-solve (N = 24) and blowup (N = 32) goldens, criteria 8
        # and 9 (N = 128), and a branch point near the real axis
        order = (cutoff + 1) // 2
        assert _block_order(mu, order) == order
        shapes = factor_shapes(monkeypatch)
        res = solve_gp(0.1, mu, cutoff)
        assert set(shapes) == {(order, order)} and len(shapes) == res.newton_iters

    @pytest.mark.parametrize("mu, block", [(0.4, 45), (0.5, 54), (0.6, 63)])
    def test_block_holds_the_modes_above_2_to_the_minus_110(self, mu, block, monkeypatch):
        assert _block_order(mu, 384) == odd_block_count(mu, 384) == block
        assert _block_order(mu, 128) == block  # the blowup workload's N = 256
        assert _block_order(mu, 2 * block - 1) == 2 * block - 1
        # no order x order Jacobian is formed
        shapes = factor_shapes(monkeypatch)
        res = solve_gp(0.1, mu, 768)
        assert set(shapes) == {(block, block)} and len(shapes) == res.newton_iters == 3

    @pytest.mark.parametrize("mu", [0.0, 1e-300, 0.05])
    def test_at_least_32_modes(self, mu):
        assert _block_order(mu, 384) == 32

    @pytest.mark.parametrize("mu", [0.4, 0.5, 0.6])
    def test_reported_residual_is_untruncated(self, mu, monkeypatch):
        slide = stripwave.cubic._slide
        lengths = []

        def spy_slide(x, y):
            lengths.append(max(len(x), len(y)))
            return slide(x, y)

        monkeypatch.setattr(stripwave.cubic, "_slide", spy_slide)
        epsilon, cutoff, order = 0.1, 768, 384
        res = solve_gp(epsilon, mu, cutoff)
        block = _block_order(mu, order)
        assert res.block_order == block and res.residual_rows == 3 * block - 1
        # the operands hold the block and its square and cube, never the order
        assert lengths and max(lengths) < order
        monkeypatch.undo()
        # u^3 of the block reaches the odd k <= 3(2M - 1): summed on three
        # times the order, the full residual is zero from row 3M - 1 on
        b = res.solution.coeffs[cutoff + 1::2].imag
        _, residual = full_square_residual(epsilon, mu, zero_padded(b, 3 * order))
        assert np.all(residual[3 * block - 1:] == 0.0)
        assert norm2((residual, residual)) == res.residual_l2

    @pytest.mark.parametrize("epsilon", [0.08, 0.12])
    @pytest.mark.parametrize("mu", [0.4, 0.5, 0.6])
    def test_matches_the_full_newton_above_the_block(self, epsilon, mu, monkeypatch):
        starts = newton_runs(monkeypatch)
        cutoff = 768
        res = solve_gp(epsilon, mu, cutoff)
        block = _block_order(mu, 384)
        _, _, start, _, tol = starts[0]
        # the start is the Cardano root on the odd k <= block, zero beyond
        assert np.all(start[(block + 1) // 2:] == 0.0)
        b = res.solution.coeffs[cutoff + 1::2].imag
        top = np.max(np.abs(b))
        assert np.all(b[block:] == 0.0)
        want, history, _, _ = full_square_newton(epsilon, mu, zero_padded(start, 384),
                                                 tol)
        assert tuple(history) == res.residual_history
        above = np.abs(want) > 2.0**-60 * top
        assert np.max(np.abs(b - want)[above]) <= 2.0**-80 * top
        strip = estimate_solution_strip(res, noise_floor=1e-26)
        want_strip = estimate_solution_strip(as_result(want, cutoff, history),
                                             noise_floor=1e-26)
        assert strip.fit_window == want_strip.fit_window
        assert strip.half_width == pytest.approx(want_strip.half_width, rel=1e-9)


class TestContractAboveTheBlock:
    """README's gp-solve contract above the block, against the full-order
    Newton from the full-cutoff start."""

    @pytest.mark.parametrize("cutoff", [256, 768])
    @pytest.mark.parametrize("epsilon, mu", [(0.08, 0.4), (0.1, 0.5), (0.12, 0.6)])
    def test_within_the_contract(self, cutoff, epsilon, mu):
        got = solve_gp(epsilon, mu, cutoff)
        b, history, _, _ = full_square_newton(epsilon, mu, full_order_start(mu, cutoff),
                                              1e-12)
        want = as_result(b, cutoff, history)
        assert got.newton_iters == want.newton_iters
        assert got.residual_l2 <= 1e-12 * max(1.0, mu * math.sqrt(math.pi))
        top = np.max(np.abs(b))
        above = np.abs(b) > 2.0**-60 * top
        mine = got.solution.coeffs[cutoff + 1::2].imag
        assert np.max(np.abs(mine - b)[above]) <= 2.0**-50 * top
        assert got.u_prime_at_zero == pytest.approx(want.u_prime_at_zero, rel=1.8e-15, abs=0)
        assert estimate_solution_strip(got).half_width == pytest.approx(
            estimate_solution_strip(want).half_width, rel=5.5e-15, abs=0)


class TestStripOfSolution:
    def test_planted_odd_tail(self):
        n = 80
        c = np.zeros(2 * n + 1, dtype=complex)
        for k in range(1, n + 1, 2):
            c[n + k] = 1j * math.exp(-0.5 * k)
            c[n - k] = -1j * math.exp(-0.5 * k)
        fake = GpSolveResult(solution=FourierSeries1D(n, c), newton_iters=0,
                             residual_l2=0.0, u_prime_at_zero=1.0,
                             residual_history=(0.0,), block_order=(n + 1) // 2,
                             residual_rows=(n + 1) // 2)
        est = estimate_solution_strip(fake, noise_floor=1e-13)
        assert est.stride == 2
        assert est.half_width == pytest.approx(0.5, abs=1e-6)

    def test_solution_strip_exceeds_limit_height(self):
        res = solve_gp(0.1, 0.5, 96)
        est = estimate_solution_strip(res, noise_floor=1e-20)
        assert est.stride == 2
        assert math.isfinite(est.half_width)
        assert est.half_width > branch_point_height(0.5)
