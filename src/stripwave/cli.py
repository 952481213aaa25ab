"""Experiment driver: every study as a subcommand with JSON configs.

Each run writes its CSV/JSON artifacts plus a manifest (config hash,
code version, wall time) into the output directory.  Exit codes: 0 on
success, 2 on configuration errors, 3 on numeric failures; both error
paths emit a machine-readable JSON object on stderr.  Files are written
atomically (temp + rename) and floats are formatted with the shortest
round-trip representation, so identical configs produce identical CSV
bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .blowup import (blowup_report, integrate_psi, write_blowup_json,
                     write_trajectory_csv)
from .bloch import (FourierSeriesD, Lattice, band_structure, bz_convergence,
                    bz_sample_grid, gaussian_potential, series1d_to_lattice,
                    write_bands_csv, write_bz_csv)
from .cubic import estimate_solution_strip, solve_gp, write_gp_json
from .eigen import convergence_study, write_convergence_csv
from .errors import ConfigError, StripwaveError
from .fourier import series_from_json, write_decay_csv
from .linear import refinement_study, write_refinement_csv
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
    except (TypeError, ValueError):
        raise ConfigError(f"key has wrong type, expected {kind}", location=location)
    raise ConfigError(f"unhandled kind {kind}", location=location)


def _validate_range(cfg: dict, location: str = "config", **conditions):
    """Documented-range checks; a violation is a configuration error."""
    for key, predicate in conditions.items():
        if not predicate(cfg[key]):
            raise ConfigError(f"'{key}' = {cfg[key]!r} is outside its "
                              "documented range", location=f"{location}.{key}")


def _points(value, location: str) -> np.ndarray:
    """A list of points (or numbers) as a float array; ragged or
    non-numeric lists are configuration errors."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("expected a rectangular list of numbers", location=location)


def _ascending_cutoffs(values):
    return len(values) > 0 and all(a < b for a, b in zip(values, values[1:])) \
        and values[0] > 0


def build_potential_1d(spec: dict, location: str = "potential"):
    """Build one of the named builtin 1D potentials, or load one from file."""
    if not isinstance(spec, dict):
        raise ConfigError("potential spec must be an object", location=location)
    if "file" in spec:
        cfg = _require_keys(spec, {"file": "str"}, {}, location)
        try:
            with open(cfg["file"]) as fh:
                return series_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise ConfigError(f"cannot load series file: {exc}", location=location)
    if "name" not in spec:
        raise ConfigError("potential spec needs 'name' or 'file'", location=location)
    name = spec["name"]
    if name == "constant":
        cfg = _require_keys(spec, {"name": "str", "value": "float"}, {}, location)
        return potentials.constant(cfg["value"])
    if name == "cosine":
        cfg = _require_keys(spec, {"name": "str"},
                            {"amplitude": ("float", 1.0), "harmonic": ("int", 1),
                             "mean": ("float", 0.0)}, location)
        return potentials.cosine(cfg["amplitude"], cfg["harmonic"], cfg["mean"])
    if name == "sine":
        cfg = _require_keys(spec, {"name": "str"},
                            {"amplitude": ("float", 1.0), "harmonic": ("int", 1)},
                            location)
        return potentials.sine(cfg["amplitude"], cfg["harmonic"])
    if name == "mathieu":
        cfg = _require_keys(spec, {"name": "str"}, {"q": ("float", 1.0)}, location)
        return potentials.mathieu(cfg["q"])
    if name == "poisson-kernel":
        cfg = _require_keys(spec, {"name": "str", "c": "float"},
                            {"mu": ("float", 1.0), "shift": ("float", 0.0),
                             "cutoff": ("int", 80)}, location)
        return potentials.poisson_kernel(cfg["c"], cfg["mu"], cfg["shift"],
                                         cfg["cutoff"])
    if name == "gaussian-sum":
        cfg = _require_keys(spec, {"name": "str"},
                            {"amplitude": ("float", 1.0), "width": ("float", 0.5),
                             "center": ("float", 0.0), "cutoff": ("int", 40)},
                            location)
        return potentials.gaussian_bump(cfg["amplitude"], cfg["width"],
                                        cfg["center"], cfg["cutoff"])
    raise ConfigError(f"unknown potential '{name}'", location=location)


def _build_lattice(spec, location: str):
    if not isinstance(spec, dict):
        raise ConfigError("lattice spec must be an object", location=location)
    if "rows" in spec:
        cfg = _require_keys(spec, {"rows": "list"}, {}, location)
        return Lattice(np.asarray(cfg["rows"], dtype=float))
    if "cubic" in spec:
        sub = _require_keys(spec["cubic"], {"dimension": "int", "a": "float"},
                            {}, f"{location}.cubic")
        return Lattice(sub["a"] * np.eye(sub["dimension"]))
    raise ConfigError("lattice spec needs 'rows' or 'cubic'", location=location)


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
    V = build_potential_1d(cfg["potential"], "config.potential")
    f = build_potential_1d(cfg["source"], "config.source")
    rows = refinement_study(V, f, cfg["N_list"], cfg["N_ref"])
    out.csv("linsolve.csv", lambda p: write_refinement_csv(rows, p))


@_experiment("eig-convergence")
def _run_eig_convergence(cfg: dict, out):
    cfg = _require_keys(cfg, {"potential": "dict", "N_list": "int_list",
                              "N_ref": "int", "j": "int", "A_claim": "float"},
                        {}, "config")
    _validate_range(cfg, N_list=_ascending_cutoffs, j=lambda j: j >= 1,
                    A_claim=lambda a: a > 0,
                    N_ref=lambda n: n >= 2 * max(cfg["N_list"]))
    V = build_potential_1d(cfg["potential"], "config.potential")
    table = convergence_study(V, cfg["N_list"], cfg["N_ref"], cfg["j"],
                              cfg["A_claim"])
    out.csv("convergence.csv",
            lambda p: write_convergence_csv(table, p, out.path("convergence.json")))
    out.record("convergence.json")


@_experiment("gp-solve")
def _run_gp_solve(cfg: dict, out):
    cfg = _require_keys(cfg, {"epsilon": "float", "mu": "float", "N": "int"},
                        {"tol": ("float", 1e-12), "noise_floor": ("float", 1e-13)},
                        "config")
    _validate_range(cfg, epsilon=lambda e: e > 0, mu=lambda m: m >= 0,
                    N=lambda n: n >= 16, tol=lambda t: t > 0,
                    noise_floor=lambda f: f > 0)
    result = solve_gp(cfg["epsilon"], cfg["mu"], cfg["N"], tol=cfg["tol"])
    strip = estimate_solution_strip(result, noise_floor=cfg["noise_floor"])
    out.csv("decay.csv", lambda p: write_decay_csv(result.solution, p))
    out.csv("report.json", lambda p: write_gp_json(result, p, strip))


@_experiment("strip-estimate")
def _run_strip_estimate(cfg: dict, out):
    from .fourier import estimate_strip
    cfg = _require_keys(cfg, {"potential": "dict"},
                        {"noise_floor": ("float", 1e-13)}, "config")
    _validate_range(cfg, noise_floor=lambda f: f > 0)
    series = build_potential_1d(cfg["potential"], "config.potential")
    est = estimate_strip(series, noise_floor=cfg["noise_floor"])
    payload = {
        "half_width": est.half_width,
        "prefactor": est.prefactor,
        "fit_window": list(est.fit_window),
        "residual": est.residual,
        "stride": est.stride,
    }
    out.csv("decay.csv", lambda p: write_decay_csv(series, p))
    out.json("estimate.json", payload)


@_experiment("blowup")
def _run_blowup(cfg: dict, out):
    cfg = _require_keys(cfg, {"epsilon": "float", "mu": "float", "eta": "float",
                              "N": "int"},
                        {"rtol": ("float", 1e-11), "threshold": ("float", 1e8),
                         "y_max": ("float", 10.0), "tol": ("float", 1e-12)},
                        "config")
    _validate_range(cfg, epsilon=lambda e: e > 0, mu=lambda m: m > 0,
                    eta=lambda e: e > 0, N=lambda n: n >= 16,
                    rtol=lambda r: r >= 1e-13, threshold=lambda t: t > 1,
                    y_max=lambda y: y > 0)
    gp = solve_gp(cfg["epsilon"], cfg["mu"], cfg["N"], tol=cfg["tol"])
    report = blowup_report(cfg["epsilon"], cfg["mu"], cfg["eta"],
                           gp.u_prime_at_zero, y_max=cfg["y_max"],
                           threshold=cfg["threshold"], rtol=cfg["rtol"])
    traj = integrate_psi(cfg["epsilon"], cfg["mu"], gp.u_prime_at_zero,
                         y_max=cfg["y_max"], threshold=cfg["threshold"],
                         rtol=cfg["rtol"])
    out.csv("report.json", lambda p: write_blowup_json(report, p))
    out.csv("trajectory.csv",
            lambda p: write_trajectory_csv(traj, p, epsilon=cfg["epsilon"],
                                           eta=cfg["eta"],
                                           y_level=report.level_crossing))


@_experiment("bands")
def _run_bands(cfg: dict, out):
    cfg = _require_keys(cfg, {"lattice": "dict", "potential": "dict",
                              "k_path": "list", "N": "float", "n_bands": "int"},
                        {}, "config")
    _validate_range(cfg, N=lambda n: n > 0, n_bands=lambda n: n >= 1,
                    k_path=lambda p: len(p) >= 1)
    k_path = _points(cfg["k_path"], "config.k_path")
    _, V = _build_lattice_potential(cfg, "config")
    bs = band_structure(V, k_path, cfg["N"], cfg["n_bands"])
    out.csv("bands.csv", lambda p: write_bands_csv(bs, p))


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
        samples = _points(cfg["k_samples"], "config.k_samples")
        if samples.ndim == 1:
            samples = samples[:, None]
    else:
        samples = bz_sample_grid(lattice, cfg["n_k"])
    table = bz_convergence(V, samples, cfg["N_list"], cfg["N_ref"], cfg["n"],
                           cfg["A_claim"])
    out.csv("bz.csv", lambda p: write_bz_csv(table, p, out.path("bz.json")))
    out.record("bz.json")


# -- output handling -----------------------------------------------------------


class _OutputDir:
    """Atomic artifact writing into the run directory."""

    def __init__(self, root: str):
        self.root = root
        self.written = []
        os.makedirs(root, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def record(self, name: str) -> None:
        self.written.append(name)

    def csv(self, name: str, writer_fn) -> None:
        tmp = self.path(name + ".tmp")
        writer_fn(tmp)
        os.replace(tmp, self.path(name))
        self.record(name)

    def json(self, name: str, payload: dict) -> None:
        tmp = self.path(name + ".tmp")
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path(name))
        self.record(name)


def _error_json(kind: str, exc: Exception) -> str:
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    location = getattr(exc, "location", None)
    if location is not None:
        payload["location"] = location
    return json.dumps(payload, sort_keys=True)


def main(argv=None) -> int:
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
        p.add_argument("--threads", type=int, default=1,
                       help="parallelism hint, recorded in the manifest")
        p.add_argument("--seed", type=int, default=0,
                       help="reserved; no stochastic component currently")
    args = parser.parse_args(argv)

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
    except (StripwaveError, np.linalg.LinAlgError) as exc:
        print(_error_json("numeric", exc), file=sys.stderr)
        return 3

    manifest = {
        "experiment": args.experiment,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "code_version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "outputs": sorted(out.written),
        "threads": args.threads,
        "seed": args.seed,
    }
    out.json("manifest.json", manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
