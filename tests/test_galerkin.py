"""Tests for the Galerkin matrix assembly: the complex Toeplitz reference,
and the real blocks of the 1D fiber that the solvers build from it."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from stripwave.bloch import _fiber, series1d_to_lattice
from stripwave.errors import PreconditionError
from stripwave.fourier import SQRT_2PI, FourierSeries1D
from stripwave.galerkin import assemble_dense
from stripwave.potentials import (constant, cosine, gaussian_bump, mathieu,
                                  poisson_kernel, sine)

# V with an inversion center: even about 0, or about its center
EVEN = {
    "poisson-kernel": poisson_kernel(2.0, shift=2.0, cutoff=30),
    "cosine": cosine(mean=3.0),
    "mathieu": mathieu(1.0),
    "constant": constant(1.5),
    "zero": constant(0.0),
    "centred-gaussian": gaussian_bump(1.0, 0.5, 0.0, 20),
}
ODD = {
    "off-centre-gaussian": gaussian_bump(1.0, 0.5, 0.7, 20),
    # no inversion center: one coupled block
    "imaginary-coefficients": cosine(mean=3.0) + sine(0.5, 2),
    # an odd part far below the coefficients but far above their rounding
    "faint-odd-part": cosine(mean=3.0) + sine(1e-12, 2),
}
NO_CENTER = {"imaginary-coefficients", "faint-odd-part"}


def fiber_1d(V, cutoff):
    """The operator the 1D solvers build: V's fiber at k = 0 on 2*pi*Z."""
    return _fiber(series1d_to_lattice(V)[1], np.zeros(1), cutoff, 0)


def toeplitz_reference(V, cutoff):
    """The assembly through scipy.linalg.toeplitz that the gather replaced."""
    vsym = 0.5 * (V.coeffs + np.conj(V.coeffs[::-1]))
    nv = V.cutoff
    diffs = np.arange(0, 2 * cutoff + 1)
    col = np.where(diffs <= nv, np.take(vsym, np.minimum(nv + diffs, 2 * nv)), 0.0)
    row = np.where(diffs <= nv, np.take(vsym, np.maximum(nv - diffs, 0)), 0.0)
    mat = scipy.linalg.toeplitz(col, row) / SQRT_2PI
    k = np.arange(-cutoff, cutoff + 1)
    mat[np.diag_indices_from(mat)] += k * k
    return mat


def rotation(cutoff):
    """Columns phi_0, c_1..c_N, s_1..s_N in the exponentials e_{-N..N}."""
    n = 2 * cutoff + 1
    w = np.zeros((n, n), dtype=complex)
    w[cutoff, 0] = 1.0
    for k in range(1, cutoff + 1):
        w[cutoff + k, k] = w[cutoff - k, k] = 1 / math.sqrt(2)
        w[cutoff + k, cutoff + k] = -1j / math.sqrt(2)
        w[cutoff - k, cutoff + k] = 1j / math.sqrt(2)
    return w


@pytest.mark.parametrize("name", sorted({**EVEN, **ODD}))
@pytest.mark.parametrize("cutoff", [0, 1, 2, 7, 40, 100])
def test_assembly_is_bit_identical_to_scipy_toeplitz(name, cutoff):
    V = {**EVEN, **ODD}[name]
    got, want = assemble_dense(V, cutoff), toeplitz_reference(V, cutoff)
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides


@pytest.mark.parametrize("cutoff", [0, 1, 5, 40])
def test_coefficient_column_is_first_column(cutoff):
    # the fiber's band holds assemble_dense's first column below the
    # diagonal, and its diagonal is assemble_dense's, bit for bit
    V = ODD["imaginary-coefficients"]
    op, dense = fiber_1d(V, cutoff), assemble_dense(V, cutoff)
    band = op.offdiag
    column = np.zeros(2 * cutoff, dtype=complex)
    column[:band.reach] = band.coef[:band.reach][::-1]
    assert column.tobytes() == dense[1:, 0].tobytes()
    assert op.diag.tobytes() == dense.diagonal().real.tobytes()


@pytest.mark.parametrize("name", sorted({**EVEN, **ODD}))
@pytest.mark.parametrize("cutoff", [0, 1, 3, 12])
def test_real_blocks_are_the_rotated_matrix(name, cutoff):
    V = {**EVEN, **ODD}[name]
    op = fiber_1d(V, cutoff)
    blocks = op.build()
    for block in blocks:
        assert block.dtype == np.float64
        assert np.array_equal(block, block.T)
    if name not in NO_CENTER:
        assert [len(b) for b in blocks] == ([cutoff + 1, cutoff] if cutoff
                                            else [1])
    else:
        assert [len(b) for b in blocks] == [2 * cutoff + 1]
    # the even V's blocks are in the basis [phi_0, c_1..c_N, s_1..s_N]; the
    # off-centre one's in that basis about its center
    w = op.rotation.to_modes(np.eye(2 * cutoff + 1))
    if name in EVEN:
        assert np.array_equal(w, rotation(cutoff))
    H = assemble_dense(V, cutoff)
    rotated = np.conj(w.T) @ H @ w
    scale = 1.0 + np.max(np.abs(H))
    assert np.max(np.abs(rotated.imag)) <= 1e-14 * scale
    np.testing.assert_allclose(scipy.linalg.block_diag(*blocks), rotated.real,
                               rtol=0, atol=4e-15 * scale)


def cosine_sine_reference(V, cutoff):
    """The cosine block [phi_0, c_1..c_N] and the sine block [s_1..s_N] of
    an even V as the 1D real-block assembly built them: strided Toeplitz
    a_{k-j} and Hankel a_{k+j} views of assemble_dense's first column t_d
    = a_d, each diagonal summed as (a_0 + a_2k) + k^2."""
    n = cutoff
    a = assemble_dense(V, n)[:, 0].real.copy()
    a[0] = assemble_dense(V, n)[n, n].real  # t_0, without the k^2 of row -N
    toeplitz = sliding_window_view(np.concatenate((a[n:0:-1], a[:n + 1])), n + 1)[:, ::-1]
    hankel = sliding_window_view(a, n + 1)
    square = np.arange(n + 1) ** 2.0
    cos = toeplitz + hankel
    cos.flat[::n + 2] += square
    cos[0, 0] = a[0]
    cos[0, 1:] = cos[1:, 0] = math.sqrt(2.0) * a[1:n + 1]
    sin = toeplitz[1:, 1:] - hankel[1:, 1:]
    sin.flat[::n + 1] += square[1:]
    return [cos, sin] if n else [cos]


@pytest.mark.parametrize("name", sorted(EVEN))
@pytest.mark.parametrize("cutoff", [0, 1, 3, 12, 40])
def test_parity_blocks_are_the_cosine_and_sine_blocks_bit_for_bit(name, cutoff):
    got = fiber_1d(EVEN[name], cutoff).build()
    want = cosine_sine_reference(EVEN[name], cutoff)
    assert [block.tobytes() for block in got] == [block.tobytes() for block in want]
    assert all(block.flags.c_contiguous for block in got)


@pytest.mark.parametrize("build", [assemble_dense, fiber_1d])
def test_overflowing_coefficients_are_rejected(build):
    # real-valued, but V_0 + conj(V_0) overflows in the symmetrization
    V = FourierSeries1D(2, np.array([0.0, 1.0, 1e308, 1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="overflow"):
            build(V, 3)


@pytest.mark.parametrize("build", [assemble_dense, fiber_1d])
@pytest.mark.parametrize("defect", [5e-11, 5e-10])
def test_both_builds_take_the_same_realness_tolerance(build, defect):
    # V_1 - conj(V_-1) = 4 * defect against 1 + max |V_k| = 4: conjugate
    # symmetric to within 1e-10 of that scale counts as real, since both
    # builds hold the symmetrized coefficients
    V = FourierSeries1D(1, np.array([1.0, 3.0, 1.0 + 4 * defect]))
    if defect < 1e-10:
        build(V, 3)
    else:
        with pytest.raises(PreconditionError, match="real-valued"):
            build(V, 3)
