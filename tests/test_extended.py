"""Tests for the double-double band residual of the eigenvalue refinement
and the linear solve, and for the exact least-squares fit."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from stripwave.bloch import (FourierSeriesD, Lattice, _coupling, _fiber, assemble_bloch,
                             basis_set, gaussian_potential, series1d_to_lattice)
from stripwave.eigen import solve_eig
from stripwave.extended import (Band, band_residual, dd_add, exact_lstsq, norm2, two_prod,
                                two_sum)
from stripwave.galerkin import assemble_dense
from stripwave.potentials import poisson_kernel, sine


def loop_band_residual(diag, lower, shift_hi, shift_lo, x_hi, x_lo):
    """The band residual as one cascaded two_sum per subdiagonal, in a
    Python loop over the band: the form the vectorized one replaced."""
    xh, xl = (np.stack((x.real, x.imag)) for x in (x_hi, x_lo))
    turn = np.array([-1.0, 1.0])[:, None, None]  # i * x as a real pair
    plain = (xh, xl)
    turned = (xh[::-1] * turn, xl[::-1] * turn)
    n = xh.shape[1]
    d_hi, d_lo = two_sum(diag[:, None], -shift_hi[None, :])
    acc, err = two_prod(d_hi, xh)
    err += d_hi * xl + (d_lo - shift_lo) * xh
    for d, c in enumerate(lower[:n - 1], start=1):
        below, above = (slice(d, n), slice(0, n - d)), (slice(0, n - d), slice(d, n))
        for coef, (dst, src), (vh, vl) in (
                (c.real, below, plain), (c.real, above, plain),
                (c.imag, below, turned), (-c.imag, above, turned)):
            if coef == 0.0:
                continue
            p, e = two_prod(coef, vh[:, src])
            e += coef * vl[:, src]
            acc[:, dst], t = two_sum(acc[:, dst], p)
            err[:, dst] += t + e
    out = acc + err
    return out[0] + 1j * out[1]


# the spectral-1d reference size: order 1025, band 120
EVEN = poisson_kernel(1.3, mu=1.0, shift=2.0, cutoff=120)
CASES = {"even": EVEN, "coupled": EVEN + sine(0.5, 2)}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("near_eigenvector", [True, False])
def test_matches_the_loop_to_double_double(name, near_eigenvector):
    V, cutoff = CASES[name], 512
    res = solve_eig(V, cutoff, 2)
    op = _fiber(series1d_to_lattice(V)[1], np.zeros(1), cutoff, 0)
    # the operator's band is trimmed to V's 120 modes
    coupling = op.coupling()
    assert isinstance(coupling, Band) and coupling.reach == 120
    assert np.any(coupling.coef.imag) == (name == "coupled")
    lower = assemble_dense(V, cutoff)[1:121, 0]
    rng = np.random.default_rng(7)
    x_hi = np.column_stack([v.coeffs for v in res.eigenvectors])
    if not near_eigenvector:
        x_hi = x_hi + rng.standard_normal(x_hi.shape)
    x_lo = x_hi * 2.0**-60 * rng.standard_normal(x_hi.shape)
    shift_hi = res.eigenvalues.copy()
    shift_lo = shift_hi * 2.0**-60 * rng.standard_normal(2)
    got = band_residual(op.diag, coupling, shift_hi, shift_lo, x_hi, x_lo)
    want = loop_band_residual(op.diag, lower, shift_hi, shift_lo, x_hi, x_lo)
    # the sums' size: |H| |x| + |shift| |x|
    scale = np.abs(assemble_dense(V, cutoff)) @ np.abs(x_hi) + np.abs(shift_hi * x_hi)
    if near_eigenvector:
        # the residual cancels to about eps * |H| |x|: its digits come from
        # the double-double sums
        assert np.max(np.abs(want)) < 1e-12 * np.max(scale)
    assert np.all(np.abs(got - want) <= 2.0**-100 * scale + 2.0**-52 * np.abs(want))


@pytest.mark.parametrize("name", sorted(CASES))
def test_blocks_follow_the_inversion_center(name):
    # the even V splits into its cosine and sine blocks; with sin 2x added
    # it has no inversion center and stays one block of order 2N + 1
    op = _fiber(series1d_to_lattice(CASES[name])[1], np.zeros(1), 40, 1)
    assert [len(block) for block in op.build()] == ([41, 40] if name == "even" else [81])
    assert op.rotation.form == ("parity" if name == "even" else "time-reversal")


def test_small_orders_and_zero_parts():
    # orders below the band, a band of one, and exactly zero real or
    # imaginary parts, which the vectorized form skips
    rng = np.random.default_rng(3)
    for n, band in [(1, 1), (2, 1), (5, 1), (5, 4), (9, 30)]:
        diag = rng.standard_normal(n) + np.arange(n) ** 2.0
        lower = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        for x in (rng.standard_normal((n, 2)) + 0j,
                  1j * rng.standard_normal((n, 2)),
                  rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))):
            for coefficients in (lower, lower.real + 0j):
                args = (np.array([0.5, -1.5]), np.array([1e-17, 3e-18]), x, 1e-17 * x)
                got = band_residual(diag, Band(coefficients, n), *args)
                want = loop_band_residual(diag, coefficients, *args)
                scale = np.abs(x).sum() * (np.abs(coefficients).sum() + n * n + 2)
                np.testing.assert_allclose(got, want, rtol=0, atol=2.0**-100 * scale)


@pytest.mark.parametrize("case", ["band", "gather"])
def test_double_product_is_the_off_diagonal_part(case):
    # the plain double product of the pilots' quick check, against the
    # dense matrix off its diagonal
    rng = np.random.default_rng(9)
    if case == "band":
        V, n = poisson_kernel(1.3, mu=1.0, shift=2.0, cutoff=40) + sine(0.5, 2), 30
        lattice, embedded = series1d_to_lattice(V)
        H, coupling = assemble_dense(V, n), _coupling(embedded, basis_set(lattice, [0.0], n))
    else:
        lattice = Lattice(2.0 * np.pi * np.eye(2))
        V = gaussian_potential(lattice, [[0.1, -0.2]], [0.6], [-1.5], 6.0)
        basis = basis_set(lattice, np.array([0.13, -0.29]), 4.0)
        H, coupling = assemble_bloch(V, basis), _coupling(V, basis)
    x = rng.standard_normal((len(H), 3)) + 1j * rng.standard_normal((len(H), 3))
    np.fill_diagonal(H, 0.0)
    np.testing.assert_allclose(coupling.product(x), H @ x, rtol=0,
                               atol=1e-13 * np.abs(H).sum(axis=1).max())


def test_rhs_is_subtracted_inside_the_sum():
    # rhs = fl(H x) cancels H x to rounding level: the result must be the
    # exact H x - rhs to double-double accuracy, not the rounding of H x
    rng = np.random.default_rng(11)
    n, band = 7, 3
    diag = rng.standard_normal(n) + np.arange(n) ** 2.0
    lower = rng.standard_normal(band) + 1j * rng.standard_normal(band)
    dense = np.diag(diag).astype(complex)
    for d, c in enumerate(lower, start=1):
        dense += np.diag(np.full(n - d, c), -d) + np.diag(np.full(n - d, np.conj(c)), d)
    x = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    rhs = dense @ x
    zero = np.zeros(1)
    got = band_residual(diag, Band(lower, n), zero, zero, x, np.zeros_like(x), rhs)[:, 0]

    def exact(z):
        return Fraction(float(z.real)), Fraction(float(z.imag))

    for row, b, value in zip(dense, rhs[:, 0], got):
        terms = [(exact(h), exact(v)) for h, v in zip(row, x[:, 0])]
        re = sum(h[0] * v[0] - h[1] * v[1] for h, v in terms) - exact(b)[0]
        im = sum(h[0] * v[1] + h[1] * v[0] for h, v in terms) - exact(b)[1]
        scale = float(sum(abs(h[0] * v[0]) + abs(h[1] * v[1]) + abs(h[0] * v[1])
                          + abs(h[1] * v[0]) for h, v in terms))
        for part, want in ((value.real, re), (value.imag, im)):
            assert abs(Fraction(part) - want) <= 2.0**-100 * scale + 2.0**-52 * abs(want)
    assert np.max(np.abs(got)) > 0  # the cancelled digits are kept


def neighbour_table(coupling):
    """Each row's neighbour at each offset, n where there is none."""
    n, rows = coupling.n, np.arange(coupling.n)
    if isinstance(coupling, Band):
        table = rows[:, None] + np.arange(len(coupling.coef)) - coupling.reach
        return np.where((table >= 0) & (table < n), table, n)
    return coupling.index[coupling.flat[:, None] - coupling.step]


def dot2_coupling(coupling, x_hi, x_lo):
    """H x as the residual summed it before the sliced products (Dot2):
    error-free products, summed pairwise by two_sum over chunks of a power
    of two of offsets (at most 2**13 products a chunk) and cascaded over
    the chunks; the four real terms are added by two_sum, rounded once."""
    table, coef = neighbour_table(coupling), coupling.coef
    n = len(table)
    chunk = 1 << max(0, min((len(coef) - 1).bit_length(), (2**13 // n).bit_length() - 1))
    pad = -len(coef) % chunk
    coef = np.concatenate((coef, np.zeros(pad)))
    table = np.pad(table, ((0, 0), (0, pad)), constant_values=n)

    def dot(w, vh, vl):
        hi, lo = np.zeros(n), np.zeros(n)
        for start in range(0, len(coef), chunk):
            ww, near = w[start:start + chunk, None], table[:, start:start + chunk].T
            p, e = two_prod(ww, vh[near])
            e += ww * vl[near]
            while len(p) > 1:
                half = len(p) // 2
                p, t = two_sum(p[:half], p[half:])
                e = e[:half] + e[half:] + t
            hi, t = two_sum(hi, p[0])
            lo = lo + (t + e[0])
        return hi, lo

    out = np.zeros(x_hi.shape, dtype=complex)
    for col in range(x_hi.shape[1]):
        xr, xi = ((np.append(x[:, col].real, 0.0), np.append(x[:, col].imag, 0.0))
                  for x in (x_hi, x_lo))
        xr, xi = zip(*(xr, xi))
        acc, err = [np.zeros(n), np.zeros(n)], [np.zeros(n), np.zeros(n)]
        for part, w, (vh, vl) in ((0, coef.real, xr), (0, -coef.imag, xi),
                                  (1, coef.real, xi), (1, coef.imag, xr)):
            hi, lo = dot(w, vh, vl)
            acc[part], t = two_sum(acc[part], hi)
            err[part] += t + lo
        out[:, col] = (acc[0] + err[0]) + 1j * (acc[1] + err[1])
    return out


SCALE = 1200  # every double times 2**SCALE is an integer


def integer(v):
    num, den = float(v).as_integer_ratio()
    return num * (2**SCALE // den)


def exact_coupling(coupling, x_hi, x_lo):
    """H x times 2**(2 SCALE) in integers, real and imaginary parts."""
    table = neighbour_table(coupling)
    n, m = x_hi.shape
    parts = [[[integer(h.real) + integer(lo.real) for h, lo in zip(x_hi[:, c], x_lo[:, c])],
              [integer(h.imag) + integer(lo.imag) for h, lo in zip(x_hi[:, c], x_lo[:, c])]]
             for c in range(m)]
    coef = [(integer(c.real), integer(c.imag)) for c in coupling.coef]
    out = np.zeros((n, m, 2), dtype=object)
    for i, row in enumerate(table):
        terms = [(coef[t], j) for t, j in enumerate(row) if j < n and coupling.coef[t] != 0]
        for c, (xr, xi) in enumerate(parts):
            out[i, c] = (sum(a * xr[j] - b * xi[j] for (a, b), j in terms),
                         sum(a * xi[j] + b * xr[j] for (a, b), j in terms))
    return out


def wide_sources(rng, n, lowest):
    """Complex double-doubles (n, 3) whose entries span 2**0 to 2**lowest:
    random signs and mantissas, a low part on every other row, some -0.0
    and an all-zero middle column."""
    def spread(size, top):
        return np.ldexp(rng.uniform(0.5, 1.0, size) * rng.choice([-1.0, 1.0], size),
                        top + rng.integers(lowest, 1, size))
    x_hi = spread((n, 3), 0) + 1j * spread((n, 3), 0)
    x_lo = (spread((n, 3), -60) * np.abs(x_hi.real)
            + 1j * spread((n, 3), -60) * np.abs(x_hi.imag))
    x_lo[::2] = 0.0
    x_hi, x_lo = two_sum(x_hi, x_lo)
    signed = rng.uniform(size=(n, 3)) < 0.1
    x_hi[signed], x_lo[signed] = -0.0 - 0.0j, 0.0
    x_hi[:, 1] = x_lo[:, 1] = 0.0
    return x_hi, x_lo


def band_coupling(rng, n, integers):
    reach = 12
    if integers:
        lower = rng.integers(-999, 1000, reach) + 1j * rng.integers(-999, 1000, reach)
    else:
        lower = (rng.uniform(-1, 1, reach) + 1j * rng.uniform(-1, 1, reach)) \
            * 2.0 ** (-5 * np.arange(reach))
    return Band(lower, n)


def cube_coupling(integers):
    """More offsets than rows: a gaussian-sum cutoff 8 on the cube fiber of
    cutoff 3, or integer coefficients on the unit cube (|cell| = 1)."""
    a = 1.0 if integers else 2.0 * np.pi
    lat = Lattice(a * np.eye(3))
    basis = basis_set(lat, np.array([0.1, 0.2, 0.3]) * 2.0 * np.pi / a, 3.0 * 2.0 * np.pi / a)
    if integers:
        rng = np.random.default_rng(5)
        coeffs = {}
        for key in itertools.product(range(-4, 5), repeat=3):
            coeffs[key] = complex(*rng.integers(-999, 1000, 2))
            coeffs[tuple(-k for k in key)] = coeffs[key].conjugate()
        coeffs[(0, 0, 0)] = 0.0
        V = FourierSeriesD(lat, coeffs)
    else:
        V = gaussian_potential(lat, [[0.1, 0.2, 0.3]], [0.4], [1.0], 8.0)
    coupling = _coupling(V, basis)
    assert len(coupling.coef) > coupling.n
    return coupling


CASES_WIDE = {
    # sources over 300 binary orders; with integer coefficients down to
    # subnormals, where no product of slices leaves the double range
    "band": (lambda rng, n: band_coupling(rng, n, False), -400),
    "band-subnormal": (lambda rng, n: band_coupling(rng, n, True), -1074),
    "cube": (lambda rng, n: cube_coupling(False), -400),
    "cube-subnormal": (lambda rng, n: cube_coupling(True), -1074),
}


def sparse(x_hi, x_lo):
    """The sources on the middle third of the rows only, with a gap of two
    zero rows inside: a band of reach 12 on 40 rows then leaves a row
    unreached at either end."""
    n = len(x_hi)
    keep = np.zeros(n, dtype=bool)
    keep[n // 3:2 * n // 3] = True
    keep[n // 2:n // 2 + 2] = False
    return x_hi * keep[:, None], x_lo * keep[:, None]


CASES_WIDE.update({f"{name}-sparse": CASES_WIDE[name] for name in ("band", "cube")})


@pytest.mark.parametrize("name", sorted(CASES_WIDE))
def test_sliced_products_are_exact(name):
    make, lowest = CASES_WIDE[name]
    rng = np.random.default_rng(list(CASES_WIDE).index(name))
    coupling = make(rng, 40)
    n = coupling.n
    x_hi, x_lo = wide_sources(rng, n, lowest)
    if name.endswith("-sparse"):
        x_hi, x_lo = sparse(x_hi, x_lo)
    exact = exact_coupling(coupling, x_hi, x_lo)
    # the terms add up to H x exactly
    xh, xl = (np.ascontiguousarray(x).view(float).reshape(n, 3, 2) for x in (x_hi, x_lo))
    terms = coupling.terms(xh, xl)
    assert np.array_equal(np.vectorize(integer, otypes=[object])(terms).sum(axis=0)
                          * 2**SCALE, exact)
    # and each entry of the rounded sum is no further from it than Dot2's
    got = band_residual(np.zeros(n), coupling, np.zeros(3), np.zeros(3), x_hi, x_lo)
    dot2 = dot2_coupling(coupling, x_hi, x_lo)
    for value, old, want in zip(got.ravel(), dot2.ravel(), exact.reshape(-1, 2)):
        for part in (0, 1):
            err = abs(integer((value.real, value.imag)[part]) * 2**SCALE - want[part])
            assert err <= abs(integer((old.real, old.imag)[part]) * 2**SCALE - want[part])
    assert not np.any(got[:, 1])


def snapped(v, bits):
    """v on the grid of 2**-bits of its largest part: what LAPACK returns on
    any kernel lands on the same doubles."""
    grid = np.frexp(max(np.abs(v.real).max(), np.abs(v.imag).max()))[1] - bits

    def part(w):
        return np.ldexp(np.round(np.ldexp(w, -grid)), grid)
    return part(v.real) + 1j * part(v.imag) if np.iscomplexobj(v) else part(v)


def eliminated(a, b):
    """a^-1 b by Gaussian elimination with partial pivoting, in elementwise
    numpy only: the same bits on every BLAS kernel."""
    a, b = a.copy(), b.copy()
    for k in range(len(a)):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]], b[[k, p]] = a[[p, k]], b[[p, k]]
        factor = a[k + 1:, k:k + 1] / a[k, k]
        a[k + 1:, k:] -= factor * a[k, k:]
        b[k + 1:] -= factor * b[k]
    for k in range(len(a) - 1, -1, -1):
        b[k] = (b[k] - (a[k, k + 1:, None] * b[k + 1:]).sum(axis=0)) / a[k, k]
    return b


def pilot_columns():
    """The spectral-1d pilot case: eigenpair 1 of the cutoff-80 pilot of EVEN,
    zero-padded into the order-1025 reference (rows 432 to 592), in double and
    after one bordered Newton correction on the pilot's modes.  The pilot's
    pair is snapped, every pilot row given a tail of 53 bits of its own, and one
    correction makes it the double pair; the corrections are solved without
    BLAS."""
    pilot = solve_eig(EVEN, 80, 2)
    tail = np.random.default_rng(80).uniform(-1.0, 1.0, (161, 2)) @ [[1.0], [1j]]
    x = snapped(pilot.eigenvectors[1].coeffs[:, None], 24) \
        + tail * 2.0 ** (-40 - np.abs(np.arange(-80, 81))[:, None])
    op = _fiber(series1d_to_lattice(EVEN)[1], np.zeros(1), 512, 0)
    coupling, dense, rows = op.coupling(), assemble_dense(EVEN, 80), slice(432, 593)

    def padded(v):
        out = np.zeros((1025, 1), dtype=complex)
        out[rows] = v
        return out

    def corrected(x_hi, x_lo, lam_hi, lam_lo):
        r = band_residual(op.diag, coupling, lam_hi, lam_lo, x_hi, x_lo)[rows]
        bordered = np.block([[dense - lam_hi * np.eye(161), -x_hi[rows]],
                             [np.conj(x_hi[rows].T), np.zeros((1, 1))]])
        solution = eliminated(bordered, np.concatenate((r, [[0.0]])))
        return (*dd_add(x_hi, x_lo, -padded(solution[:161])),
                *dd_add(lam_hi, lam_lo, -solution[161].real))

    zero = np.zeros((1025, 1)), np.zeros(1)
    x_hi, _, lam_hi, _ = corrected(padded(x), zero[0], snapped(pilot.eigenvalues[1:], 30),
                                   zero[1])
    before = (op.diag, coupling, lam_hi, zero[1], x_hi, zero[0])
    x_hi, x_lo, lam_hi, lam_lo = corrected(x_hi, zero[0], lam_hi, zero[1])
    return before, (op.diag, coupling, lam_hi, lam_lo, x_hi, x_lo)


def pinned_cases():
    """Residual inputs: the pilot case, and on a band of reach 12 and order
    300 sources and rhs on a few runs of rows; and one Gather."""
    before, after = pilot_columns()
    rng = np.random.default_rng(21)
    band = band_coupling(rng, 300, False)
    diag = rng.standard_normal(300) + np.arange(300.0) ** 2
    shifts = np.array([3.5, -1.25]), np.array([1e-17, -2e-18])

    def on(*runs):
        """Two columns of sources, nonzero on rows a to b of one run each."""
        x_hi, x_lo = wide_sources(rng, 300, -60)
        keep = np.zeros((300, 2), dtype=bool)
        for column, (a, b) in enumerate(runs):
            keep[a:b + 1, column] = True
        return x_hi[:, ::2] * keep, x_lo[:, ::2] * keep

    cases = {"pilot-before": before, "pilot-after": after}
    rhs = np.zeros((300, 2), dtype=complex)
    rhs[40:61] = rng.standard_normal((21, 2)) + 1j * rng.standard_normal((21, 2))
    cases["rhs"] = (diag, band, *shifts, *on((100, 150), (100, 150)), rhs)
    cases["two-supports"] = (diag, band, *shifts, *on((50, 80), (200, 230)))
    cases["first-row"] = (diag, band, *shifts, *on((0, 20), (3, 9)))
    cases["last-row"] = (diag, band, *shifts, *on((280, 299), (290, 299)))
    cases["zero"] = (diag, band, *shifts, np.zeros((300, 2), complex), np.zeros((300, 2)))
    cube = cube_coupling(True)
    x_hi, x_lo = wide_sources(rng, cube.n, -60)
    cases["gather"] = (rng.standard_normal(cube.n), cube, *shifts, x_hi[:, ::2], x_lo[:, ::2])
    return cases


# sha256 of each residual's bytes, as the residual gave them when it summed
# every row of the order
PINNED = {
    "pilot-before": "aa92ca9ad3c6c89fb61d9a5213a19579dfc1ebb70a03595c5cc4768d3c363765",
    "pilot-after": "665427e6a519e5089ffed516320d1bee650bc5f905cc9c527d75035e801e74ba",
    "rhs": "9bb296d28d695d0f27f91aaa9379ff931e47dce352d1ef0746b57963c3b8c395",
    "two-supports": "3e3ab1139120ebf02698ae36fdd55fdb723060631262eb1aad2077bf1334485e",
    "first-row": "5059a719941a41a7cf98c2b5cbf9798f3188aa66422f58e9fe4056e61c231b4b",
    "last-row": "e248272c21c44d04463eacb53f3ecdb0e804443a0ab720d098695eb85b7d8970",
    "zero": "e9a15a094703faaea3fdf53af7e04da21717008ab4bb228799712b2fced03c65",
    "gather": "2cd3c568bf384c60330e13643e1eec019f82b8d4110df5862dae60cddf7f9067",
}


def test_terms_are_formed_on_the_reached_rows_only(monkeypatch):
    # the pilot's 161 rows reach 401 of the reference's 1025; the terms are
    # formed on those rows only, and a Gather forms them on all of its rows
    seen = []
    terms = Band.terms

    def spied(self, x_hi, x_lo):
        seen.append(len(x_hi))
        return terms(self, x_hi, x_lo)

    cases = pinned_cases()
    monkeypatch.setattr(Band, "terms", spied)
    band = cases["rhs"][1]
    assert band.reach == 12 and band.reached(40, 150) == slice(28, 163)
    assert band.reached(3, 9) == slice(0, 22) and band.reached(290, 299) == slice(278, 300)
    assert cases["gather"][1].reached(5, 6) == slice(0, cases["gather"][1].n)
    for name in ("pilot-before", "rhs", "zero", "first-row"):
        band_residual(*cases[name])
    assert seen == [401, 135, 33]


def test_residual_bytes_are_pinned():
    # the residual computes only the rows its live rows reach; those bytes
    # and the exact zeros beyond them are the ones the full order gave
    got = {name: hashlib.sha256(np.ascontiguousarray(band_residual(*args)).tobytes())
           .hexdigest() for name, args in pinned_cases().items()}
    assert got == PINNED


def test_sums_at_their_bound():
    # 256 offsets; both parts of the coefficients and of x are all ones down
    # to their last bit, but for one bit of the imaginary coefficients, so
    # that the slice pairs of one level come within a factor 2 of 2**53 and
    # rows with an odd count of neighbours have odd sums: one bit more per
    # slice would round them
    ones = 1.0 - 2.0**-53
    coupling = Band(np.full(128, ones + 1j * (ones - 2.0**-44)), 400)
    x_hi = np.full((400, 1), ones * (1 + 1j))
    x_lo = x_hi * 2.0**-54
    xh, xl = (np.ascontiguousarray(x).view(float).reshape(400, 1, 2) for x in (x_hi, x_lo))
    terms = np.vectorize(integer, otypes=[object])(coupling.terms(xh, xl))
    assert np.array_equal(terms.sum(axis=0) * 2**SCALE, exact_coupling(coupling, x_hi, x_lo))


def exact_fit(columns, y):
    """Coefficients and mean squared misfit, from the exact residual of
    the exact solution of the normal equations by Cramer's rule."""
    x = [[Fraction(float(v)) for v in col] for col in columns]
    y = [Fraction(float(v)) for v in y]
    gram = [[sum(map(lambda p, q: p * q, a, b)) for b in x] for a in x]
    xty = [sum(map(lambda p, q: p * q, a, y)) for a in x]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)))

    whole = det(gram)
    coef = [det([row[:i] + [b] + row[i + 1:] for row, b in zip(gram, xty)]) / whole
            for i in range(len(x))]
    misfit = [sum(c * col[r] for c, col in zip(coef, x)) - y[r] for r in range(len(y))]
    return [float(c) for c in coef], float(sum(m * m for m in misfit) / len(y))


@pytest.mark.parametrize("seed", range(4))
def test_exact_lstsq_is_the_rounded_exact_fit(seed):
    rng = np.random.default_rng(seed)
    k = np.arange(3.0, 3.0 + rng.integers(6, 40))
    y = -0.8 * k - 1.3 * np.log1p(k) + 1e-3 * rng.standard_normal(len(k))
    columns = [np.ones_like(k), -k, -np.log1p(k)]
    coef, misfit = exact_lstsq(columns, y)
    assert (coef, misfit) == exact_fit(columns, y)
    # rows in any order give the same bits
    order = rng.permutation(len(k))
    assert exact_lstsq([c[order] for c in columns], y[order]) == (coef, misfit)
    np.testing.assert_allclose(coef, np.linalg.lstsq(np.column_stack(columns), y,
                                                     rcond=None)[0], rtol=1e-9)


def test_exact_lstsq_of_an_exact_line():
    x = np.arange(1.0, 9.0)
    assert exact_lstsq([np.ones_like(x), x], 0.5 - 0.25 * x) == ([0.5, -0.25], 0.0)
    assert math.isclose(exact_lstsq([np.ones(3), np.array([0.0, 1.0, 2.0])],
                                    np.array([0.0, 1.0, 0.0]))[1], 2 / 9)


def adversarial_reals(seed):
    """Real arrays whose squares are hard to sum: subnormals, spreads over
    500 binary orders of magnitude, and values within an ulp of 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    one = np.array([1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)])
    return [
        np.ldexp(rng.standard_normal(n), rng.integers(-1074, -1020, n)),
        np.ldexp(rng.standard_normal(n), rng.integers(-250, 250, n)),
        rng.choice(one, n) * rng.choice([-1.0, 1.0], n),
        np.concatenate((rng.choice(one, n), [5e-324, 2.0**-600])),
        np.ldexp(rng.standard_normal(n), rng.integers(-20, 20, n)),
    ]


@pytest.mark.parametrize("seed", range(20))
def test_norm2_of_a_real_array_is_that_of_its_complex_cast(seed):
    # the real path skips the all-zero imaginary half, which adds nothing
    # to the exact sums: every result keeps its bits
    for x in adversarial_reals(seed):
        got = norm2(x)
        assert got.hex() == norm2(x.astype(complex)).hex()
        assert got.hex() == norm2(x * 1j).hex()
        assert got.hex() == norm2(x[::-1]).hex()
        if np.all(np.abs(x) >= 2.0**-400 * np.max(np.abs(x))):  # squares kept exactly
            exact = sum(Fraction(v) ** 2 for v in x.tolist())
            mid_up = (Fraction(got) + Fraction(math.nextafter(got, math.inf))) / 2
            mid_down = (Fraction(got) + Fraction(math.nextafter(got, 0.0))) / 2
            assert mid_down ** 2 <= exact <= mid_up ** 2
