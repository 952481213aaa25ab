"""Run the kernel-sensitive tests under every OpenBLAS kernel and thread count.

    python3 tools/kernel_sweep.py

For each of the eight settings OPENBLAS_CORETYPE in {SkylakeX, Haswell,
Sandybridge, Prescott} x OPENBLAS_NUM_THREADS in {1, 2}, runs the golden
comparisons (`tests/test_cli.py -k golden`), the linear solve tests
(`tests/test_linear.py`: the real-block Cholesky solves against the
complex Hermitian solve, and the double-double residual against its
exact rational value), the cubic solver tests (`tests/test_cubic.py`, with
`TestSameBitsAsTheFullSquare`: the mirrored half-row square against the
full padded square at N = 24, 256 and 768, and each Newton step bit for
bit, against `scipy.linalg.solve(assume_a="pos")` where the block is the
whole order and, above it, against the full-order Newton whose iterate is
zero beyond the block and which steps by `cho_solve` of the full
Jacobian's leading block alone; `TestBlock`: the iterate exactly zero
beyond the block and the reported residual the untruncated one;
`TestContractAboveTheBlock`: README's gp-solve contract against the
full-order Newton at N = 256 and 768),
the eigensolver tests (`tests/test_eigen.py`: the subset eigensolves,
the bordered refinement and its 60-digit checks,
`test_eigenvector_errors_match_50_digit_h1_distances`: the H1 distances
from the refined vectors against those between 50-digit eigenvectors,
and `TestPilotReference`:
a certified pilot's reference eigenvalue against the full reference's
refinement and against 60-digit eigenvalues, the fallback to the full
reference bit for bit, and the count, eta and Kato-Temple edges of the
certificate; `TestOneBasisPerSample`: every cut's diagonal the
reference's on its rows, bit for bit), the double-double
residual tests (`tests/test_extended.py`: the sliced coupling products,
whose BLAS sums must be exact, against integer row sums; all but
`test_matches_the_loop_to_double_double`, whose eigenvectors of order 1025
pass its 1e-12 backward-error premise only on some kernels), the blow-up tests
(`tests/test_blowup.py`, whose slopes come from `solve_gp` at N = 64 and
128, with `test_trajectory_samples`: the vectorized comparison column
against the scalar `comparison_solution`, bit for bit), the Bloch
tests (`tests/test_bloch.py`: the real and complex fibers on the same
refinement and its 50-digit checks, the parity split's zone errors against
the one inversion block's at Gamma, X and M, the bands.csv contract (the
real fibers' polished bands within 16 ulps of the complex fiber's, on two
potentials and on fuzzed configs), the parity blocks' pinned sha256
digests, `test_cut_is_basis_set` (each cut of one basis against
`basis_set` at its cutoff, bit for bit), with `test_complex_fiber_from_a_pilot`
and the pilot cases of `test_1d_at_k0_is_the_1d_study`, whose zone errors
equal the 1D study's bit for bit) and acceptance
criterion 10 (`tests/test_acceptance.py -k criterion_10`: the lattice
path, on its real form, against the 1D assembly) in fresh
subprocesses, since OpenBLAS reads both variables once, when it loads.
Prints one PASS/FAIL line per setting, with the ids of its failed tests
under it, and exits 1 if any setting fails.  Run it from any directory;
the tests import stripwave from this checkout's `src/`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORETYPES = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")
THREADS = ("1", "2")
SUITES = (("tests/test_cli.py", "-k", "golden"), ("tests/test_linear.py",),
          ("tests/test_cubic.py",), ("tests/test_eigen.py",),
          ("tests/test_extended.py", "-k", "not matches_the_loop"), ("tests/test_blowup.py",),
          ("tests/test_bloch.py",), ("tests/test_acceptance.py", "-k", "criterion_10"))


def run_setting(coretype: str, threads: str) -> tuple[bool, list[str], list[str]]:
    """Run every suite under one setting: (all passed, the summary line of
    each suite, the ids of the failed tests)."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    ok, summaries, failures = True, [], []
    for suite in SUITES:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *suite],
            cwd=ROOT, env=env, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        summaries.append(f"{' '.join(suite)}: "
                         f"{lines[-1] if lines else proc.stderr.strip()}")
        failures += [line.split()[1] for line in lines if line.startswith("FAILED ")]
        ok = ok and proc.returncode == 0
    return ok, summaries, failures


def main() -> int:
    settings = [(c, t) for c in CORETYPES for t in THREADS]
    failed = 0
    for coretype, threads in settings:
        ok, summaries, failures = run_setting(coretype, threads)
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} OPENBLAS_CORETYPE={coretype} "
              f"OPENBLAS_NUM_THREADS={threads}: {'; '.join(summaries)}")
        for test in failures:
            print(f"    failed: {test}")
        sys.stdout.flush()
    print(f"{len(settings) - failed} of {len(settings)} settings passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
