"""Output checks for each experiment, against tolerances.

The artifact bytes depend on the BLAS kernel, so no check compares bytes
with a golden file.  Each check reads the artifacts a CLI run wrote and
tests a property the result must have whatever the kernel: a closed form,
a residual below its tolerance, a variational inequality, or a verdict
the run reports.  A check returns the list of problems it found; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# Galerkin eigenvalues on nested trial spaces never undercut the finer
# reference; this absorbs the rounding of the polished eigenvalues.
VARIATIONAL_SLACK = 1e-9


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_linsolve(cfg: dict, out: Path) -> list[str]:
    rows = _rows(out / "linsolve.csv")
    problems = []
    if [int(r["N"]) for r in rows] != cfg["N_list"]:
        problems.append("linsolve rows do not match N_list")
    for r in rows:
        n = int(r["N"])
        residual = float(r["residual_l2"])
        # backward-stable solve: residual ~ eps * ||H||, ||H|| ~ N^2 + ||V||
        if not residual <= 1e-12 * (n * n + 10.0):
            problems.append(f"linsolve residual {residual!r} at N={n} is not small")
        if not all(_finite(float(r[key])) and float(r[key]) >= 0.0
                   for key in ("err_vs_ref_l2", "err_vs_ref_h1")):
            problems.append(f"linsolve error against reference at N={n} is invalid")
    return problems


def check_eig_convergence(cfg: dict, out: Path) -> list[str]:
    rows = _rows(out / "convergence.csv")
    side = _json(out / "convergence.json")
    problems = []
    if [int(r["N"]) for r in rows] != cfg["N_list"]:
        problems.append("convergence rows do not match N_list")
    for r in rows:
        lam_err, h1 = float(r["lambda_err"]), float(r["h1_dist"])
        if not (_finite(lam_err) and lam_err >= -VARIATIONAL_SLACK):
            problems.append(f"eigenvalue error {lam_err!r} at N={r['N']} "
                            "undercuts the reference")
        if not (_finite(h1) and h1 >= 0.0):
            problems.append(f"H1 distance {h1!r} at N={r['N']} is invalid")
    for key in ("fitted_rate_eigenvalue", "fitted_rate_eigenvector"):
        rate = side.get(key)
        if not (_finite(rate) and rate < 0.0):
            problems.append(f"{key} = {rate!r} is not finite and negative")
    return problems


def check_gp_solve(cfg: dict, out: Path) -> list[str]:
    report = _json(out / "report.json")
    problems = []
    tol = cfg.get("tol", 1e-12)
    if not (_finite(report.get("residual")) and report["residual"] <= tol):
        problems.append(f"gp-solve residual {report.get('residual')!r} exceeds tol {tol}")
    if report.get("N") != cfg["N"]:
        problems.append("gp-solve report has the wrong N")
    strip = report.get("B_eps_estimate")
    if not (_finite(strip) and strip > 0.0):
        problems.append(f"gp-solve strip estimate {strip!r} is invalid")
    return problems


def check_strip_estimate(cfg: dict, out: Path) -> list[str]:
    est = _json(out / "estimate.json")
    expected = math.acosh(cfg["potential"]["c"])
    got = est.get("half_width")
    if _finite(got) and abs(got - expected) <= 1e-6 * expected:
        return []
    return [f"strip half-width {got!r} is not near arccosh(c) = {expected!r}"]


def check_blowup(cfg: dict, out: Path) -> list[str]:
    report = _json(out / "report.json")
    problems = []
    y, y_bound = report.get("Y_eps"), report.get("Y_eps_eta")
    if not (_finite(y, y_bound) and y <= y_bound):
        problems.append(f"blow-up time {y!r} exceeds the bound {y_bound!r}")
    if report.get("lower_bound_verified") is not True:
        problems.append("blow-up lower bound not verified")
    if len(_rows(out / "trajectory.csv")) != 512:
        problems.append("trajectory.csv does not hold 512 rows")
    return problems


def _lattice_rows(spec: dict) -> np.ndarray:
    if "rows" in spec:
        return np.asarray(spec["rows"], dtype=float)
    cubic = spec["cubic"]
    return cubic["a"] * np.eye(cubic["dimension"])


def _free_energies(rows: np.ndarray, k: np.ndarray, cutoff: float) -> np.ndarray:
    """Sorted |G + k|^2 over the reciprocal vectors with |G + k| <= cutoff."""
    recip = TWO_PI * np.linalg.inv(rows).T
    reach = cutoff + float(np.linalg.norm(k))
    box = [int(reach * np.linalg.norm(a) / TWO_PI) + 1 for a in rows]
    ints = np.array(list(itertools.product(*[range(-b, b + 1) for b in box])),
                    dtype=float)
    shifted = ints @ recip + k
    energies = np.sum(shifted * shifted, axis=1)
    return np.sort(energies[energies <= cutoff * cutoff * (1 + 1e-12)])


def _gaussian_operator_bound(rows: np.ndarray, spec: dict) -> float:
    """Upper bound sum_G |V_G| / sqrt(|cell|) on the Galerkin matrix of V.

    The matrix of multiplication by V is a section of a Laurent operator
    whose symbol has coefficients V_G / sqrt(|cell|); its norm is at most
    their absolute sum.  Coefficients as in the closed-form transform of
    the periodized Gaussians, truncated at |G| <= cutoff.
    """
    d = rows.shape[0]
    vol = abs(float(np.linalg.det(rows)))
    g2 = _free_energies(rows, np.zeros(d), spec["cutoff"])
    total = 0.0
    for sigma, amp in zip(spec["widths"], spec["amplitudes"]):
        scale = abs(amp) * (TWO_PI * sigma * sigma) ** (d / 2.0) / math.sqrt(vol)
        total += scale * float(np.sum(np.exp(-0.5 * sigma * sigma * g2)))
    return total / math.sqrt(vol)


def check_bands(cfg: dict, out: Path) -> list[str]:
    """Zero potential: bands equal the sorted |G + k|^2.  Otherwise Weyl's
    inequality: each band lies within the norm of the potential's Galerkin
    matrix of the matching free band."""
    rows = _lattice_rows(cfg["lattice"])
    d = rows.shape[0]
    n_bands = cfg["n_bands"]
    potential = cfg["potential"]
    if potential["name"] == "zero":
        slack = 0.0
    elif potential["name"] == "gaussian-sum":
        slack = _gaussian_operator_bound(rows, potential)
    else:
        return [f"no band check for potential {potential['name']!r}"]
    table = _rows(out / "bands.csv")
    problems = []
    if len(table) != len(cfg["k_path"]):
        problems.append("bands.csv does not hold one row per k point")
    for r in table:
        k = np.array([float(r[f"k{i + 1}"]) for i in range(d)])
        bands = np.array([float(r[f"band{j + 1}"]) for j in range(n_bands)])
        free = _free_energies(rows, k, cfg["N"])[:n_bands]
        tol = 1e-9 * (1.0 + np.abs(free))
        if not np.all(np.isfinite(bands)) or np.any(np.diff(bands) < -tol[1:]):
            problems.append(f"bands at k={k.tolist()} are not finite and ascending")
        elif np.any(np.abs(bands - free) > slack + tol):
            problems.append(f"bands at k={k.tolist()} leave the free bands by more "
                            f"than {slack!r}")
    return problems


def check_bz_convergence(cfg: dict, out: Path) -> list[str]:
    table = _rows(out / "bz.csv")
    side = _json(out / "bz.json")
    problems = []
    if [float(r["N"]) for r in table] != [float(n) for n in cfg["N_list"]]:
        problems.append("bz.csv rows do not match N_list")
    for r in table:
        err = float(r["max_lambda_err"])
        if not (_finite(err) and err >= -VARIATIONAL_SLACK):
            problems.append(f"zone error {err!r} at N={r['N']} undercuts the reference")
    rate = side.get("fitted_rate")
    if not (_finite(rate) and rate < 0.0):
        problems.append(f"fitted_rate = {rate!r} is not finite and negative")
    return problems


CHECKS = {
    "linsolve": check_linsolve,
    "eig-convergence": check_eig_convergence,
    "gp-solve": check_gp_solve,
    "strip-estimate": check_strip_estimate,
    "blowup": check_blowup,
    "bands": check_bands,
    "bz-convergence": check_bz_convergence,
}


def check(experiment: str, cfg: dict, out: Path) -> list[str]:
    """Problems with the artifacts one invocation wrote; a missing or
    unreadable artifact is a problem, not a crash of the benchmark."""
    try:
        return CHECKS[experiment](cfg, Path(out))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"{experiment} artifacts unreadable: {type(exc).__name__}: {exc}"]
