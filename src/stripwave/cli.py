"""Experiment driver: every study as a subcommand with JSON configs.

The numerics modules return data; this module alone renders it.  Each
run writes its CSV/JSON artifacts plus a manifest (config hash, code
version, wall time, and for `gp-solve`, `blowup` and `eig-convergence`
the solvers' diagnostics) into the output directory, every file through
`write_csv` (which takes a table's columns and formats each numpy column
at once) or `write_json`: atomically (temp + rename), with floats in
the shortest round-trip representation, so identical configs produce
identical bytes.  Exit codes: 0 on success, 2 on configuration errors
(a dense matrix above DENSE_BYTES_LIMIT among them, a Bloch fiber
counted from the integer box of its basis, and a `gaussian-sum` lattice
potential whose own integer box would pass the same limit, rejected
before anything is allocated), 3 on numeric failures (running out of
memory, and a bare ValueError or FloatingPointError from numpy, among
them); both error paths emit a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .blowup import (THRESHOLD, Y_MAX, blowup_report, resolvable_threshold,
                     trajectory_diagnostics, trajectory_samples)
from .bloch import (FourierSeriesD, Lattice, band_structure, basis_box,
                    bz_sample_grid, gaussian_potential, series1d_to_lattice)
from .cubic import estimate_solution_strip, solve_gp
from .eigen import bz_convergence, convergence_study
from .errors import (ConfigError, InsufficientDataError, InvalidParameterError,
                     NonconvergenceError, StiffnessError, StripwaveError)
from .fourier import series_from_json
from .linear import refinement_study
from . import potentials

ENV_OUT_DIR = "STRIPWAVE_OUT"

EXPERIMENTS = {}


def _experiment(name):
    def register(fn):
        EXPERIMENTS[name] = fn
        return fn
    return register


# -- config plumbing -----------------------------------------------------------


def _require_keys(cfg: dict, required: dict, optional: dict, location: str):
    """Validate presence and type of keys; unknown keys are rejected."""
    if not isinstance(cfg, dict):
        raise ConfigError("expected an object", location=location)
    for key in cfg:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key '{key}'", location=f"{location}.{key}")
    out = {}
    for key, kind in required.items():
        if key not in cfg:
            raise ConfigError(f"missing required key '{key}'",
                              location=f"{location}.{key}")
        out[key] = _coerce(cfg[key], kind, f"{location}.{key}")
    for key, (kind, default) in optional.items():
        out[key] = _coerce(cfg[key], kind, f"{location}.{key}") \
            if key in cfg else default
    return out


def _coerce(value, kind, location):
    try:
        if kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError
            return value
        if kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError
            if not math.isfinite(value):  # NaN and +-Infinity are valid JSON here
                raise ConfigError("number must be finite", location=location)
            return float(value)
        if kind == "str":
            if not isinstance(value, str):
                raise TypeError
            return value
        if kind == "int_list":
            return [int(_coerce(v, "int", location)) for v in value]
        if kind == "float_list":
            return [float(_coerce(v, "float", location)) for v in value]
        if kind == "list":
            if not isinstance(value, list):
                raise TypeError
            return value
        if kind == "dict":
            if not isinstance(value, dict):
                raise TypeError
            return value
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"key has wrong type, expected {kind}", location=location)
    raise ConfigError(f"unhandled kind {kind}", location=location)


def _validate_range(cfg: dict, location: str = "config", **conditions):
    """Documented-range checks of the keys present; a violation is a
    configuration error."""
    for key, predicate in conditions.items():
        if cfg[key] is not None and not predicate(cfg[key]):
            raise ConfigError(f"'{key}' = {cfg[key]!r} is outside its "
                              "documented range", location=f"{location}.{key}")


# Largest dense matrix a run may form.  A config whose size keys ask for a
# larger one is a configuration error, found before anything is allocated.
DENSE_BYTES_LIMIT = 2**30


def _guard(cfg: dict, key: str, nbytes, location: str = "config"):
    """Configuration error when nbytes(n), for the value n at `key` (the
    largest one of a list), passes DENSE_BYTES_LIMIT; a size beyond the
    float range counts as infinite."""
    value = cfg[key]
    try:
        size = nbytes(max(value) if isinstance(value, list) else value)
    except OverflowError:  # a Bloch box beyond the float range
        size = math.inf
    if size > DENSE_BYTES_LIMIT:
        raise ConfigError(f"'{key}' = {value!r} asks for {size} bytes, above "
                          f"the {DENSE_BYTES_LIMIT}-byte limit",
                          location=f"{location}.{key}")


def _dense(order, itemsize: int):
    """The bytes of a dense matrix of order order(n)."""
    return lambda n: order(n) ** 2 * itemsize


def _box(lattice: Lattice, reach: float) -> int:
    """Points of the integer box of every G with |G| <= reach."""
    return math.prod(2 * b + 1 for b in basis_box(lattice, reach))


def _fiber_bytes(lattice: Lattice, k_points: np.ndarray):
    """A complex Bloch fiber at cutoff n, of order at most the integer box
    basis_set tests at the largest finite |k| (it rejects the other k)."""
    norms = np.linalg.norm(k_points, axis=1)
    reach = float(np.max(norms, where=np.isfinite(norms), initial=0.0))
    return _dense(lambda n: _box(lattice, n + reach), 16)


def _given(cfg: dict, *keys) -> dict:
    """The optional keys the config gives, as keyword arguments.  Absent
    keys (None) are not passed, so their defaults live in the numerics
    signatures alone."""
    return {key: cfg[key] for key in keys if cfg[key] is not None}


def _points(value, location: str) -> np.ndarray:
    """A list of points (or numbers) as a float array; ragged or
    non-numeric lists are configuration errors."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("expected a rectangular list of numbers", location=location)


def _k_points(value, dimension: int, location: str) -> np.ndarray:
    """k points as an (n, d) array; on a 1-D lattice a flat list holds
    one point per number."""
    points = _points(value, location)
    if points.ndim == 1 and dimension == 1:
        points = points[:, None]
    if len(points) == 0 or points.ndim != 2 or points.shape[1] != dimension:
        raise ConfigError(f"expected one or more k points of {dimension} "
                          "components", location=location)
    return points


def _ascending_cutoffs(values):
    return len(values) > 0 and all(a < b for a, b in zip(values, values[1:])) \
        and values[0] > 0


# Builtin 1D potentials: config name -> (factory in `potentials`, required
# keys, optional keys).  Absent optional keys are not passed, so their
# defaults live in `potentials` alone.  The factory is looked up by name
# at call time, so a wrapper installed on the `potentials` module (as
# perfbench/tracing.py does) sees the call.
POTENTIALS_1D = {
    "constant": ("constant", {"value": "float"}, {}),
    "cosine": ("cosine", {}, {"amplitude": "float", "harmonic": "int",
                              "mean": "float"}),
    "sine": ("sine", {}, {"amplitude": "float", "harmonic": "int"}),
    "mathieu": ("mathieu", {}, {"q": "float"}),
    "poisson-kernel": ("poisson_kernel", {"c": "float"},
                       {"mu": "float", "shift": "float", "cutoff": "int"}),
    "gaussian-sum": ("gaussian_bump", {}, {"amplitude": "float", "width": "float",
                                           "center": "float", "cutoff": "int"}),
}


def build_potential_1d(spec: dict, location: str = "potential"):
    """Build one of the named builtin 1D potentials, or load one from file.

    Every argument of a factory comes from the spec, so a factory's
    InvalidParameterError is a configuration error at `location`."""
    if not isinstance(spec, dict):
        raise ConfigError("potential spec must be an object", location=location)
    if "file" in spec:
        cfg = _require_keys(spec, {"file": "str"}, {}, location)
        try:
            with open(cfg["file"]) as fh:
                return series_from_json(json.load(fh))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot load series file: {exc}", location=location)
    if "name" not in spec:
        raise ConfigError("potential spec needs 'name' or 'file'", location=location)
    name = spec["name"]
    if not isinstance(name, str) or name not in POTENTIALS_1D:
        raise ConfigError(f"unknown potential '{name}'", location=location)
    factory, required, optional = POTENTIALS_1D[name]
    cfg = _require_keys(spec, {"name": "str", **required},
                        {key: (kind, None) for key, kind in optional.items()},
                        location)
    # the series and its lattice embedding take 244 bytes a coefficient (measured)
    if cfg.get("cutoff") is not None:
        _guard(cfg, "cutoff", lambda n: (2 * n + 1) * 256, location)
    try:
        return getattr(potentials, factory)(**_given(cfg, *required, *optional))
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), location=location)


def _build_lattice(spec, location: str):
    if not isinstance(spec, dict):
        raise ConfigError("lattice spec must be an object", location=location)
    if "rows" in spec:
        cfg = _require_keys(spec, {"rows": "list"}, {}, location)
        key, basis = "rows", _points(cfg["rows"], f"{location}.rows")
    elif "cubic" in spec:
        sub = _require_keys(spec["cubic"], {"dimension": "int", "a": "float"},
                            {}, f"{location}.cubic")
        _validate_range(sub, f"{location}.cubic", dimension=lambda d: 1 <= d <= 3)
        key, basis = "cubic.a", sub["a"] * np.eye(sub["dimension"])
    else:
        raise ConfigError("lattice spec needs 'rows' or 'cubic'", location=location)
    try:
        return Lattice(basis)
    except InvalidParameterError as exc:  # every basis entry is the config's
        raise ConfigError(str(exc), location=f"{location}.{key}")


def _build_lattice_potential(cfg: dict, location: str):
    lattice = _build_lattice(cfg["lattice"], f"{location}.lattice")
    spec = cfg["potential"]
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("potential spec needs 'name'", location=f"{location}.potential")
    name = spec["name"]
    if name == "zero":
        return lattice, FourierSeriesD(lattice, {})
    if name == "gaussian-sum":
        sub = _require_keys(spec, {"name": "str", "centers": "list",
                                   "widths": "float_list",
                                   "amplitudes": "float_list",
                                   "cutoff": "float"}, {},
                            f"{location}.potential")
        centers = _points(sub["centers"], f"{location}.potential.centers")
        # basis_set forms d int64 coordinates and one float norm per box point
        _guard(sub, "cutoff", lambda c: _box(lattice, c) * 8 * (lattice.dimension + 1),
               f"{location}.potential")
        return lattice, gaussian_potential(lattice, centers, sub["widths"],
                                           sub["amplitudes"], sub["cutoff"])
    if name == "embed-1d":
        sub = _require_keys(spec, {"name": "str", "potential": "dict"}, {},
                            f"{location}.potential")
        if lattice.dimension != 1 or abs(lattice.basis[0, 0] - 2 * np.pi) > 1e-12:
            raise ConfigError("embed-1d requires the lattice 2*pi*Z",
                              location=f"{location}.lattice")
        series = build_potential_1d(sub["potential"], f"{location}.potential.potential")
        return series1d_to_lattice(series)
    raise ConfigError(f"unknown lattice potential '{name}'",
                      location=f"{location}.potential")


# -- experiments ---------------------------------------------------------------


@_experiment("linsolve")
def _run_linsolve(cfg: dict, out):
    cfg = _require_keys(cfg, {"potential": "dict", "source": "dict",
                              "N_list": "int_list", "N_ref": "int"}, {}, "config")
    _validate_range(cfg, N_list=_ascending_cutoffs,
                    N_ref=lambda n: n >= 2 * max(cfg["N_list"]))
    for key in ("N_list", "N_ref"):  # real, one block when V has no inversion center
        _guard(cfg, key, _dense(lambda n: 2 * n + 1, 8))
    V = build_potential_1d(cfg["potential"], "config.potential")
    f = build_potential_1d(cfg["source"], "config.source")
    rows = refinement_study(V, f, cfg["N_list"], cfg["N_ref"])
    write_csv(out, "linsolve.csv",
              ["N", "residual_l2", "err_vs_ref_l2", "err_vs_ref_h1"], zip(*rows))


@_experiment("eig-convergence")
def _run_eig_convergence(cfg: dict, out):
    cfg = _require_keys(cfg, {"potential": "dict", "N_list": "int_list",
                              "N_ref": "int", "j": "int", "A_claim": "float"},
                        {}, "config")
    # j must index a pair of the smallest study basis, of order 2N + 1
    _validate_range(cfg, N_list=_ascending_cutoffs,
                    j=lambda j: 1 <= j <= 2 * min(cfg["N_list"]) + 1,
                    A_claim=lambda a: a > 0,
                    N_ref=lambda n: n >= 2 * max(cfg["N_list"]))
    for key in ("N_list", "N_ref"):  # real, one block when V has no inversion center
        _guard(cfg, key, _dense(lambda n: 2 * n + 1, 8))
    V = build_potential_1d(cfg["potential"], "config.potential")
    table = convergence_study(V, cfg["N_list"], cfg["N_ref"], cfg["j"])
    write_csv(out, "convergence.csv", ["N", "lambda_err", "h1_dist"],
              [cfg["N_list"], table.eigenvalue_errors, table.eigenvector_errors])
    write_json(out, "convergence.json", {
        "j": cfg["j"],
        "N_ref": cfg["N_ref"],
        "A_claim": cfg["A_claim"],
        "fitted_rate_eigenvalue": table.fitted_rate_eigenvalue,
        "fitted_rate_eigenvector": table.fitted_rate_eigenvector,
    })
    out.diagnostics["refinement"] = [
        {"N": r.cutoff, **_refinement_record(r)} for r in table.refinements]


def _refinement_record(r) -> dict:
    """One eigen.Refinement for the manifest: the refined matrix's order,
    the blocks factored, the Newton steps and cluster size, and the cutoffs
    tried, the one accepted, with an accepted pilot's certificate."""
    return {"matrix_order": r.order, "block_orders": list(r.block_orders),
            "newton_steps": r.steps, "cluster_size": r.cluster_size,
            "tried": list(r.tried), "accepted": r.source,
            "r_outside": r.outside_residual, "delta": r.gap_bound,
            "kato_temple": r.kato_temple}


def _newton_record(result) -> dict:
    """What Newton did, for the manifest: its iterations, the residual
    norm before each of them and after the last, the order of the block
    it solved and the rows its residual summed."""
    return {"iterations": result.newton_iters,
            "residual_history": list(result.residual_history),
            "block_order": result.block_order,
            "residual_rows": result.residual_rows}


def _decay_columns(u):
    """(k, |u_k|) columns for coefficient-decay plots."""
    return u.wavenumbers(), np.abs(u.coeffs)


def _strip_fit(fit, out):
    """fit(), a strip estimate, or None where the coefficients give too
    little to fit (InsufficientDataError: fewer than 8 above the noise
    floor, or no decay), with the estimator's message in the manifest
    diagnostics as `strip_estimate`."""
    try:
        return fit()
    except InsufficientDataError as exc:
        out.diagnostics["strip_estimate"] = str(exc)
        return None


@_experiment("gp-solve")
def _run_gp_solve(cfg: dict, out):
    cfg = _require_keys(cfg, {"epsilon": "float", "mu": "float", "N": "int"},
                        {"tol": ("float", None), "noise_floor": ("float", None)},
                        "config")
    _validate_range(cfg, epsilon=lambda e: e > 0, mu=lambda m: m >= 0,
                    N=lambda n: n >= 16, tol=lambda t: t > 0,
                    noise_floor=lambda f: f > 0)
    # the Newton Jacobian: its block is the whole order ceil(N/2) at large mu
    _guard(cfg, "N", _dense(lambda n: -(-n // 2), 8))
    result = solve_gp(cfg["epsilon"], cfg["mu"], cfg["N"], **_given(cfg, "tol"))
    strip = _strip_fit(lambda: estimate_solution_strip(result, **_given(cfg, "noise_floor")),
                       out)
    write_csv(out, "decay.csv", ["k", "abs_coeff"], _decay_columns(result.solution))
    write_json(out, "report.json", {
        "epsilon": cfg["epsilon"],
        "mu": cfg["mu"],
        "N": result.solution.cutoff,
        "newton_iters": result.newton_iters,
        "residual": result.residual_l2,
        "u_prime_at_zero": result.u_prime_at_zero,
        "B_eps_estimate": None if strip is None else strip.half_width,
    })
    out.diagnostics["newton"] = _newton_record(result)


@_experiment("strip-estimate")
def _run_strip_estimate(cfg: dict, out):
    from .fourier import estimate_strip
    cfg = _require_keys(cfg, {"potential": "dict"},
                        {"noise_floor": ("float", None)}, "config")
    _validate_range(cfg, noise_floor=lambda f: f > 0)
    series = build_potential_1d(cfg["potential"], "config.potential")
    est = _strip_fit(lambda: estimate_strip(series, **_given(cfg, "noise_floor")), out)
    write_csv(out, "decay.csv", ["k", "abs_coeff"], _decay_columns(series))
    write_json(out, "estimate.json", dict.fromkeys(
        ("half_width", "prefactor", "fit_window", "residual", "stride")) if est is None else {
        "half_width": est.half_width,
        "prefactor": est.prefactor,
        "fit_window": list(est.fit_window),
        "residual": est.residual,
        "stride": est.stride,
    })


@_experiment("blowup")
def _run_blowup(cfg: dict, out):
    cfg = _require_keys(cfg, {"epsilon": "float", "mu": "float", "eta": "float",
                              "N": "int"},
                        {"rtol": ("float", None), "threshold": ("float", None),
                         "y_max": ("float", None), "tol": ("float", None)},
                        "config")
    _validate_range(cfg, epsilon=lambda e: e > 0, mu=lambda m: m > 0,
                    eta=lambda e: e > 0, N=lambda n: n >= 16,
                    rtol=lambda r: r >= 1e-13, threshold=lambda t: t > 1,
                    y_max=lambda y: y > 0, tol=lambda t: t > 0)
    # psi meets the threshold sqrt(2 eps)/threshold before its pole, which
    # double steps must resolve; the bound also holds for the default
    limit = resolvable_threshold(cfg["epsilon"], Y_MAX if cfg["y_max"] is None
                                 else cfg["y_max"])
    threshold = THRESHOLD if cfg["threshold"] is None else cfg["threshold"]
    if threshold > limit:
        raise ConfigError(f"'threshold' = {threshold!r} is above {limit!r}, the largest "
                          "|psi| resolvable before the pole", location="config.threshold")
    # the Newton Jacobian: its block is the whole order ceil(N/2) at large mu
    _guard(cfg, "N", _dense(lambda n: -(-n // 2), 8))
    gp = solve_gp(cfg["epsilon"], cfg["mu"], cfg["N"], **_given(cfg, "tol"))
    report = blowup_report(cfg["epsilon"], cfg["mu"], cfg["eta"],
                           gp.u_prime_at_zero,
                           **_given(cfg, "y_max", "threshold", "rtol"))
    write_json(out, "report.json", {
        "epsilon": cfg["epsilon"],
        "mu": cfg["mu"],
        "eta": cfg["eta"],
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
    })
    write_csv(out, "trajectory.csv", ["y", "psi", "psi_prime", "xi"],
              trajectory_samples(report.trajectory, cfg["epsilon"], cfg["eta"],
                                 report.level_crossing))
    out.diagnostics.update(trajectory_diagnostics(report.trajectory),
                           newton=_newton_record(gp))


@_experiment("bands")
def _run_bands(cfg: dict, out):
    cfg = _require_keys(cfg, {"lattice": "dict", "potential": "dict",
                              "k_path": "list", "N": "float", "n_bands": "int"},
                        {}, "config")
    _validate_range(cfg, N=lambda n: n > 0, n_bands=lambda n: n >= 1)
    lattice, V = _build_lattice_potential(cfg, "config")
    k_path = _k_points(cfg["k_path"], lattice.dimension, "config.k_path")
    _guard(cfg, "N", _fiber_bytes(lattice, k_path))
    bs = band_structure(V, k_path, cfg["N"], cfg["n_bands"])
    header = ["path_parameter"] + [f"k{i + 1}" for i in range(lattice.dimension)] \
        + [f"band{j + 1}" for j in range(cfg["n_bands"])]
    write_csv(out, "bands.csv", header, [bs.path_parameter, *k_path.T, *bs.bands.T])


@_experiment("bz-convergence")
def _run_bz(cfg: dict, out):
    cfg = _require_keys(cfg, {"lattice": "dict", "potential": "dict",
                              "N_list": "float_list", "N_ref": "float",
                              "n": "int", "A_claim": "float"},
                        {"k_samples": ("list", None), "n_k": ("int", 2)}, "config")
    _validate_range(cfg, N_list=_ascending_cutoffs, n=lambda n: n >= 1,
                    A_claim=lambda a: a > 0, n_k=lambda n: n >= 1,
                    N_ref=lambda n: n >= 2 * max(cfg["N_list"]))
    lattice, V = _build_lattice_potential(cfg, "config")
    if cfg["k_samples"] is not None:
        samples = _k_points(cfg["k_samples"], lattice.dimension, "config.k_samples")
    else:
        d = lattice.dimension  # the grid holds n_k^d samples of d floats
        _guard(cfg, "n_k", lambda n: n ** d * d * 8)
        samples = bz_sample_grid(lattice, cfg["n_k"])
    _guard(cfg, "N_ref", _fiber_bytes(lattice, samples))  # >= N_list
    table = bz_convergence(V, samples, cfg["N_list"], cfg["N_ref"], cfg["n"])
    write_csv(out, "bz.csv", ["N", "max_lambda_err"], [cfg["N_list"], table.max_errors])
    write_json(out, "bz.json", {
        "n": cfg["n"],
        "N_ref": cfg["N_ref"],
        "A_claim": cfg["A_claim"],
        "fitted_rate": table.fitted_rate,
        "k_samples": samples.tolist(),
    })
    out.diagnostics["refinement"] = [
        {"k": k.tolist(), "N": r.cutoff, "form": r.form, **_refinement_record(r)}
        for k, records in zip(samples, table.refinements) for r in records]


# -- output handling -----------------------------------------------------------


class _OutputDir:
    """The run directory, the artifact names written into it so far, and
    the run diagnostics that go to the manifest only."""

    def __init__(self, root: str):
        self.root = root
        self.written = []
        self.diagnostics = {}
        os.makedirs(root, exist_ok=True)


@contextlib.contextmanager
def _replacing(out: _OutputDir, name: str):
    """A text file at a temp path, renamed to `name` once written."""
    tmp = os.path.join(out.root, name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        yield fh
    os.replace(tmp, os.path.join(out.root, name))
    out.written.append(name)


def _cell(value) -> str:
    """Integers as such, floats in shortest round-trip form, None empty."""
    if isinstance(value, float):  # numpy's float64 too; the common case first
        return float.__repr__(value)
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _cells(column) -> list[str]:
    """The cells of one column: a float64 or integer array formatted at
    once, anything else cell by cell."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return list(map(float.__repr__, column.tolist()))
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
    return list(map(_cell, column))


def write_csv(out: _OutputDir, name: str, header, columns) -> None:
    """A header line and one CSV line per row of the equally long
    columns, written atomically, with the bytes csv.writer would write."""
    cells = [_cells(column) for column in columns]
    if len(cells) == 1:  # csv.writer quotes a row's only field when it is empty
        cells = [[cell or '""' for cell in cells[0]]]
    lines = [*map(",".join, zip(*cells, strict=True)), ""]  # "" ends the last line
    with _replacing(out, name) as fh:
        csv.writer(fh).writerow(header)
        fh.write("\r\n".join(lines))


def write_json(out: _OutputDir, name: str, payload: dict) -> None:
    """Indented JSON with sorted keys, written atomically."""
    with _replacing(out, name) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _error_json(kind: str, exc: Exception) -> str:
    """The stderr object of a failed run, with a failed solver's record
    under `diagnostics`: Newton's residual history, or the ODE's last
    step."""
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    location = getattr(exc, "location", None)
    if location is not None:
        payload["location"] = location
    record = ({"residual_history": exc.residual_history}
              if isinstance(exc, NonconvergenceError) else
              exc.diagnostics if isinstance(exc, StiffnessError) else None)
    if record is not None:  # NaN and Infinity as null: strict JSON
        payload["diagnostics"] = json.loads(json.dumps(record), parse_constant=lambda _: None)
    return json.dumps(payload, sort_keys=True, allow_nan=False)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built once: building it costs more than parsing."""
    parser = argparse.ArgumentParser(
        prog="stripwave",
        description="Spectral studies of periodic Schrodinger problems "
                    "with analytic potentials.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in sorted(EXPERIMENTS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    out_dir = args.out
    if out_dir is None:
        out_dir = os.environ.get(ENV_OUT_DIR) or os.path.join("runs", args.experiment)

    try:
        with open(args.config) as fh:
            raw = fh.read()
        cfg = json.loads(raw)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object", location="config")
    except OSError as exc:
        print(_error_json("config", exc), file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        err = ConfigError(f"invalid JSON: {exc.msg}",
                          location=f"line {exc.lineno}, column {exc.colno}")
        print(_error_json("config", err), file=sys.stderr)
        return 2

    out = _OutputDir(out_dir)
    started = time.perf_counter()
    try:
        EXPERIMENTS[args.experiment](cfg, out)
    except ConfigError as exc:
        print(_error_json("config", exc), file=sys.stderr)
        return 2
    # a bare numpy ValueError or FloatingPointError is a numeric failure too
    except (StripwaveError, np.linalg.LinAlgError, MemoryError, ValueError,
            FloatingPointError) as exc:
        print(_error_json("numeric", exc), file=sys.stderr)
        return 3

    manifest = {
        "experiment": args.experiment,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "code_version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "outputs": sorted(out.written),
    }
    if out.diagnostics:
        manifest["diagnostics"] = out.diagnostics
    write_json(out, "manifest.json", manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
