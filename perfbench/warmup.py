"""First-BLAS-call warm-up, shared by the set-up probe and the benchmark.

The first dense call in a fresh process maps the BLAS buffers and, on
more than one BLAS thread, starts the thread pool; on a small machine
that costs anywhere from 5 ms to nearly a second.  numpy and scipy each
bundle their own OpenBLAS, so both are called.  The cost is counted in set-up time and kept out of the
timed passes.
"""

import numpy as np
import scipy.linalg

ORDER = 256


def warm_up() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((ORDER, ORDER)) + 1j * rng.standard_normal((ORDER, ORDER))
    h = a + a.conj().T
    rhs = h[:, 0].copy()
    np.linalg.eigh(h)
    np.linalg.solve(h, rhs)
    _ = h @ h
    scipy.linalg.solve(h, rhs, assume_a="her")
    scipy.linalg.eigvalsh(h)
