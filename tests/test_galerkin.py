"""Tests for the Galerkin matrix assembly: complex Toeplitz and real blocks."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from stripwave.errors import PreconditionError
from stripwave.fourier import SQRT_2PI, FourierSeries1D
from stripwave.galerkin import assemble_dense, coefficient_column, real_blocks
from stripwave.potentials import (constant, cosine, gaussian_bump, mathieu,
                                  poisson_kernel, sine)

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
    "imaginary-coefficients": cosine(mean=3.0) + sine(0.5, 2),
}


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
    V = ODD["imaginary-coefficients"]
    column = coefficient_column(V, cutoff)
    dense = assemble_dense(V, cutoff)
    assert column[1:].tobytes() == dense[1:, 0].tobytes()
    assert column[0] + cutoff**2 == dense[0, 0]


@pytest.mark.parametrize("name", sorted({**EVEN, **ODD}))
@pytest.mark.parametrize("cutoff", [0, 1, 3, 12])
def test_real_blocks_are_the_rotated_matrix(name, cutoff):
    V = {**EVEN, **ODD}[name]
    blocks = real_blocks(coefficient_column(V, cutoff))
    for block in blocks:
        assert block.dtype == np.float64
        assert np.array_equal(block, block.T)
    if name in EVEN:
        assert [len(b) for b in blocks] == ([cutoff + 1, cutoff] if cutoff
                                            else [1])
    else:
        assert [len(b) for b in blocks] == [2 * cutoff + 1]
    w = rotation(cutoff)
    H = assemble_dense(V, cutoff)
    rotated = np.conj(w.T) @ H @ w
    scale = 1.0 + np.max(np.abs(H))
    assert np.max(np.abs(rotated.imag)) <= 1e-14 * scale
    np.testing.assert_allclose(scipy.linalg.block_diag(*blocks), rotated.real,
                               rtol=0, atol=4e-15 * scale)


def test_odd_part_beyond_the_matrix_is_even():
    # sin(5x) has no coefficient inside |k - k'| <= 2 for cutoff 1
    V = cosine(mean=3.0) + sine(0.5, 5)
    assert [len(b) for b in real_blocks(coefficient_column(V, 1))] == [2, 1]
    assert [len(b) for b in real_blocks(coefficient_column(V, 3))] == [7]


@pytest.mark.parametrize("build", [assemble_dense, coefficient_column])
def test_overflowing_coefficients_are_rejected(build):
    # real-valued, but V_0 + conj(V_0) overflows in the symmetrization
    V = FourierSeries1D(2, np.array([0.0, 1.0, 1e308, 1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="overflow"):
            build(V, 3)
