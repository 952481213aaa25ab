"""The benchmark workloads: seeded lists of CLI invocations.

One pass of a workload is its list of (experiment, config) invocations.
The seed draws only parameters from ranges where the cost is flat: for
epsilon in [0.08, 0.12] and mu in [0.4, 0.6] Newton takes 3 iterations
and the blow-up ODE about 1640 steps, and potential shapes change no
matrix order.  Problem sizes are fixed per workload.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _poisson(rng, c_range, shift_range=(1.5, 2.5), cutoff=120) -> dict:
    # mu/(c - cos x) + shift >= shift >= 1, as linsolve requires
    return {"name": "poisson-kernel", "c": rng.uniform(*c_range),
            "mu": rng.uniform(0.8, 1.2), "shift": rng.uniform(*shift_range),
            "cutoff": cutoff}


def _eps_mu(rng) -> dict:
    return {"epsilon": rng.uniform(0.08, 0.12), "mu": rng.uniform(0.4, 0.6)}


def spectral_1d(rng: np.random.Generator) -> list[tuple[str, dict]]:
    c = rng.uniform(1.25, 1.4)
    eig = {"potential": _poisson(rng, (c, c)), "N_list": [4, 8, 12, 16, 20],
           "N_ref": 512, "j": 1, "A_claim": math.acosh(c)}
    lin = {"potential": _poisson(rng, (1.25, 1.4)),
           "source": {"name": "sine", "amplitude": rng.uniform(0.5, 1.5),
                      "harmonic": int(rng.integers(1, 4))},
           "N_list": [16, 32, 64], "N_ref": 256}
    return [("eig-convergence", eig), ("linsolve", lin)]


def bloch_bands(rng: np.random.Generator) -> list[tuple[str, dict]]:
    square = {"cubic": {"dimension": 2, "a": TWO_PI}}
    bands = {
        "lattice": square,
        "potential": {"name": "gaussian-sum",
                      "centers": rng.uniform(-0.5, 0.5, (2, 2)).tolist(),
                      "widths": rng.uniform(0.55, 0.65, 2).tolist(),
                      "amplitudes": rng.uniform(-2.0, -1.0, 2).tolist(),
                      "cutoff": 8.0},
        "k_path": [[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]],
        "N": 10.0,
        "n_bands": 6,
    }
    cube = {"cubic": {"dimension": 3, "a": TWO_PI}}
    bz = {
        "lattice": cube,
        "potential": {"name": "gaussian-sum",
                      "centers": [rng.uniform(-0.5, 0.5, 3).tolist()],
                      "widths": [rng.uniform(0.75, 0.85)],
                      "amplitudes": [rng.uniform(-2.2, -1.8)],
                      "cutoff": 4.0},
        "N_list": [1.5, 2.0, 2.5],
        "N_ref": 5.0,
        "n": 1,
        "A_claim": 1.0,
        "k_samples": [[0.1, 0.2, 0.3]],
    }
    return [("bands", bands), ("bz-convergence", bz)]


def cubic_blowup(rng: np.random.Generator) -> list[tuple[str, dict]]:
    gp = {**_eps_mu(rng), "N": 768}
    blow = {**_eps_mu(rng), "eta": rng.uniform(0.4, 0.6), "N": 256}
    strip = {"potential": {"name": "poisson-kernel", "c": rng.uniform(1.5, 3.0),
                           "cutoff": 60}}
    return [("gp-solve", gp), ("blowup", blow), ("strip-estimate", strip)]


def _tiny_round(rng: np.random.Generator) -> list[tuple[str, dict]]:
    """The seven experiments at the sizes of the CLI test configs."""
    return [
        ("linsolve", {"potential": {"name": "cosine", "mean": rng.uniform(2.0, 2.5)},
                      "source": {"name": "sine", "amplitude": rng.uniform(0.5, 1.5)},
                      "N_list": [4, 6], "N_ref": 12}),
        ("eig-convergence", {"potential": _poisson(rng, (1.8, 2.2), cutoff=30),
                             "N_list": [2, 3, 4], "N_ref": 8, "j": 1,
                             "A_claim": 1.0}),
        ("gp-solve", {**_eps_mu(rng), "N": 24}),
        ("strip-estimate", {"potential": {"name": "poisson-kernel",
                                          "c": rng.uniform(1.8, 2.2), "cutoff": 60}}),
        ("blowup", {**_eps_mu(rng), "eta": rng.uniform(0.4, 0.6), "N": 32,
                    "rtol": 1e-9}),
        ("bands", {"lattice": {"cubic": {"dimension": 2, "a": TWO_PI}},
                   "potential": {"name": "zero"},
                   "k_path": [[0.0, 0.0], [rng.uniform(0.1, 0.4), 0.0], [0.5, 0.0]],
                   "N": 2.5, "n_bands": 3}),
        ("bz-convergence", {"lattice": {"rows": [[TWO_PI]]},
                            "potential": {"name": "embed-1d",
                                          "potential": _poisson(rng, (1.8, 2.2),
                                                                cutoff=30)},
                            "N_list": [3, 4, 5], "N_ref": 10, "n": 1,
                            "A_claim": 1.0, "k_samples": [0.0, 0.5]}),
    ]


def cli_tiny(rng: np.random.Generator) -> list[tuple[str, dict]]:
    return _tiny_round(rng) + _tiny_round(rng)


WORKLOADS = {
    "spectral-1d": spectral_1d,
    "bloch-bands": bloch_bands,
    "cubic-blowup": cubic_blowup,
    "cli-tiny": cli_tiny,
}


def invocations(workload: str, seed: int, pass_index: int) -> list[tuple[str, dict]]:
    """The invocations of one pass; the same seed and pass give the same list."""
    return WORKLOADS[workload](np.random.default_rng([seed, pass_index]))
