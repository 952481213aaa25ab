"""CLI driver tests: exit codes, manifests, determinism and golden files."""

import ast
import contextlib
import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripwave.blowup import blowup_report
from stripwave.cli import _error_json, _OutputDir, main, write_csv
from stripwave.cubic import estimate_solution_strip, solve_gp
from stripwave.errors import NonconvergenceError, StiffnessError
from stripwave.fourier import estimate_strip
from stripwave.potentials import constant, gaussian_bump, poisson_kernel

GOLDEN_ROOT = Path(__file__).parent / "golden"

# tiny-N configs, one per subcommand; the goldens were produced by these
CONFIGS = {
    "linsolve": {
        "potential": {"name": "cosine", "mean": 2.0},
        "source": {"name": "sine"},
        "N_list": [4, 6],
        "N_ref": 12,
    },
    "eig-convergence": {
        "potential": {"name": "poisson-kernel", "c": 2.0, "shift": 2.0,
                      "cutoff": 30},
        "N_list": [2, 3, 4],
        "N_ref": 8,
        "j": 1,
        "A_claim": 1.0,
    },
    "gp-solve": {"epsilon": 0.1, "mu": 0.5, "N": 24},
    "strip-estimate": {
        "potential": {"name": "poisson-kernel", "c": 2.0, "cutoff": 60},
    },
    "blowup": {"epsilon": 0.1, "mu": 0.5, "eta": 0.5, "N": 32, "rtol": 1e-9},
    "bands": {
        "lattice": {"cubic": {"dimension": 2, "a": 6.283185307179586}},
        "potential": {"name": "zero"},
        "k_path": [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0]],
        "N": 2.5,
        "n_bands": 3,
    },
    "bz-convergence": {
        "lattice": {"rows": [[6.283185307179586]]},
        "potential": {"name": "embed-1d",
                      "potential": {"name": "poisson-kernel", "c": 2.0,
                                    "shift": 2.0, "cutoff": 30}},
        "N_list": [3, 4, 5],
        "N_ref": 10,
        "n": 1,
        "A_claim": 1.0,
        "k_samples": [0.0, 0.5],
    },
}


def run_cli(tmp_path, experiment, config, subdir="run"):
    cfg_path = tmp_path / f"{experiment}-config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / subdir
    code = main([experiment, "--config", str(cfg_path), "--out", str(out_dir)])
    return code, out_dir


def artifact_names(out_dir):
    return sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_runs_and_writes_manifest(tmp_path, experiment):
    code, out_dir = run_cli(tmp_path, experiment, CONFIGS[experiment])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["experiment"] == experiment
    assert len(manifest["config_sha256"]) == 64
    assert manifest["outputs"] == artifact_names(out_dir)
    assert manifest["wall_time_s"] >= 0.0


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_every_output_is_renamed_into_place(tmp_path, monkeypatch, experiment):
    renamed = []
    replace = os.replace

    def recording(src, dst):
        renamed.append(Path(dst).name)
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    code, out_dir = run_cli(tmp_path, experiment, CONFIGS[experiment])
    assert code == 0
    outputs = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    assert outputs and set(outputs) <= set(renamed)
    assert not list(out_dir.glob("*.tmp"))


def test_only_the_cli_does_file_io():
    src = Path(__file__).resolve().parent.parent / "src" / "stripwave"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [node.func.id]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] in ("csv", "json", "open")]
    assert offenders == []


def test_decay_csv(tmp_path):
    code, out_dir = run_cli(tmp_path, "strip-estimate", CONFIGS["strip-estimate"])
    assert code == 0
    raw = (out_dir / "decay.csv").read_bytes()
    assert raw.endswith(b"\r\n")
    lines = raw.decode().splitlines()
    assert lines[0] == "k,abs_coeff"
    assert len(lines) == 2 * 60 + 2
    rows = [line.split(",") for line in lines[1:]]
    assert [int(k) for k, _ in rows] == list(range(-60, 61))
    series = poisson_kernel(2.0, cutoff=60)
    # shortest round-trip floats: the text is the repr of |u_k| itself
    assert [m for _, m in rows] == [repr(float(abs(c))) for c in series.coeffs]


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_identical_config_identical_bytes(tmp_path, experiment):
    _, first = run_cli(tmp_path, experiment, CONFIGS[experiment], subdir="a")
    _, second = run_cli(tmp_path, experiment, CONFIGS[experiment], subdir="b")
    names = artifact_names(first)
    assert names == artifact_names(second)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def byte_mismatches(golden_dir, out_dir):
    """Golden files that the run did not reproduce byte for byte."""
    return [golden.name for golden in sorted(golden_dir.iterdir())
            if not (out_dir / golden.name).exists()
            or (out_dir / golden.name).read_bytes() != golden.read_bytes()]


# gp-solve goes through the LAPACK Cholesky solve of its real Newton step,
# so its last bits may follow the BLAS kernel (its residual is numpy sums).
# Relative spreads against the golden files, measured over
# OPENBLAS_CORETYPE in {SkylakeX, Haswell, Sandybridge, Prescott} x
# OPENBLAS_NUM_THREADS in {1, 2} when the step was a complex LU solve
# (zgesv): odd-k abs_coeff 2.70e-14 (the 7.3e-18 tail entry on
# Sandybridge), u_prime_at_zero 0, B_eps_estimate 1.13e-15, residual
# 2.33e-5 (Prescott).  With the Cholesky step the same sweep gives
# 5.40e-14, 0, 1.13e-15 and 4.64e-5 (Prescott), and so does the
# half-wave step of order ceil(N/2); the residual from real convolutions
# of the half-wave coefficients gives 2.70e-14, 0, 1.13e-15 and 2.36e-5
# (one value on every setting; tools/kernel_sweep.py runs this
# comparison on all eight settings).  Each tolerance is 4 times the
# first spread, the spread taken as at least one ulp (2**-52).
# Even-k coefficients vanish by half-wave symmetry, u(x + pi) = -u(x).
# Newton solves for the odd k alone, so a run must write exactly 0.0
# there; the golden files, made when Newton solved for every k, hold
# rounding noise of at most eps * max|u_k| there.
EPS = 2.0**-52
GP_RTOL = {"abs_coeff": 4 * 2.70e-14, "u_prime_at_zero": 4 * EPS,
           "B_eps_estimate": 4 * 1.13e-15, "residual": 4 * 2.33e-5}
GP_EXACT_KEYS = ("N", "newton_iters", "epsilon", "mu")


def _decay_rows(path):
    with open(path, newline="") as fh:
        return [(int(r["k"]), float(r["abs_coeff"])) for r in csv.DictReader(fh)]


def gp_solve_mismatches(golden_dir, out_dir):
    """Differences of a gp-solve run from its golden files beyond the
    stated tolerances."""
    problems = []
    want, got = _decay_rows(golden_dir / "decay.csv"), _decay_rows(out_dir / "decay.csv")
    if [k for k, _ in got] != [k for k, _ in want]:
        problems.append("decay.csv: k column differs")
    else:
        top_want = max(a for _, a in want)
        for (k, a_want), (_, a_got) in zip(want, got):
            if k % 2 and abs(a_got - a_want) > GP_RTOL["abs_coeff"] * a_want:
                problems.append(f"decay.csv: abs_coeff at k={k}: {a_got!r} vs {a_want!r}")
            if k % 2 == 0 and a_got != 0.0:
                problems.append(f"decay.csv: abs_coeff at even k={k} is {a_got!r}, not 0.0")
            if k % 2 == 0 and a_want > EPS * top_want:
                problems.append(f"decay.csv: golden abs_coeff at even k={k} "
                                "is not rounding noise")
    want = json.loads((golden_dir / "report.json").read_text())
    got = json.loads((out_dir / "report.json").read_text())
    if sorted(got) != sorted(want):
        problems.append("report.json: keys differ")
        return problems
    for key in GP_EXACT_KEYS:
        if got[key] != want[key]:
            problems.append(f"report.json: {key} = {got[key]!r} vs {want[key]!r}")
    for key in ("u_prime_at_zero", "B_eps_estimate", "residual"):
        if abs(got[key] - want[key]) > GP_RTOL[key] * abs(want[key]):
            problems.append(f"report.json: {key} = {got[key]!r} vs {want[key]!r}")
    return problems


# eig-convergence: lambda_err is rounded once from extended precision and
# matches 60-digit eigenvalues, and fitted_rate_eigenvalue is its exactly
# summed least-squares slope, rounded once, so both are compared exactly,
# as are the echoed N, j, N_ref and A_claim.  h1_dist comes from the
# refined eigenvectors and the double QR of h1_distance, which follows the
# BLAS kernel in the last bit.  Relative spreads against the golden files, measured over
# OPENBLAS_CORETYPE in {SkylakeX, Haswell, Sandybridge, Prescott} x
# OPENBLAS_NUM_THREADS in {1, 2}: h1_dist 1.76e-16 (1 ulp at N = 3 and 4,
# Haswell and Sandybridge), fitted_rate_eigenvector 0.  4 times the spread
# is below 4 ulps, so each tolerance is 4 * 2**-52, at least 4 ulps of
# any value.
EIG_RTOL = {"h1_dist": 4 * 2.0**-52, "fitted_rate_eigenvector": 4 * 2.0**-52}
EIG_EXACT_KEYS = ("j", "N_ref", "A_claim", "fitted_rate_eigenvalue")


def eig_convergence_mismatches(golden_dir, out_dir):
    """Differences of an eig-convergence run from its golden files beyond
    the stated tolerances."""
    problems = []
    with open(golden_dir / "convergence.csv", newline="") as fh:
        want = list(csv.DictReader(fh))
    with open(out_dir / "convergence.csv", newline="") as fh:
        got = list(csv.DictReader(fh))
    if [r["N"] for r in got] != [r["N"] for r in want]:
        problems.append("convergence.csv: N column differs")
    else:
        for g, w in zip(got, want):
            if g["lambda_err"] != w["lambda_err"]:
                problems.append(f"convergence.csv: lambda_err at N={w['N']}: "
                                f"{g['lambda_err']} vs {w['lambda_err']}")
            h_got, h_want = float(g["h1_dist"]), float(w["h1_dist"])
            if abs(h_got - h_want) > EIG_RTOL["h1_dist"] * h_want:
                problems.append(f"convergence.csv: h1_dist at N={w['N']}: "
                                f"{h_got!r} vs {h_want!r}")
    want = json.loads((golden_dir / "convergence.json").read_text())
    got = json.loads((out_dir / "convergence.json").read_text())
    if sorted(got) != sorted(want):
        problems.append("convergence.json: keys differ")
        return problems
    for key in EIG_EXACT_KEYS:
        if got[key] != want[key]:
            problems.append(f"convergence.json: {key} = {got[key]!r} vs {want[key]!r}")
    rate, rate_want = got["fitted_rate_eigenvector"], want["fitted_rate_eigenvector"]
    if abs(rate - rate_want) > EIG_RTOL["fitted_rate_eigenvector"] * abs(rate_want):
        problems.append(f"convergence.json: fitted_rate_eigenvector = {rate!r} "
                        f"vs {rate_want!r}")
    return problems


GOLDEN_COMPARISON = {"gp-solve": gp_solve_mismatches,
                     "eig-convergence": eig_convergence_mismatches}


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_matches_golden_files(tmp_path, experiment):
    golden_dir = GOLDEN_ROOT / experiment
    assert golden_dir.is_dir(), f"golden files missing for {experiment}"
    _, out_dir = run_cli(tmp_path, experiment, CONFIGS[experiment])
    compare = GOLDEN_COMPARISON.get(experiment, byte_mismatches)
    assert compare(golden_dir, out_dir) == []


@pytest.mark.parametrize("change", [
    {"tol": 1e-6},  # one Newton iteration fewer
    {"mu": 0.5 * (1 + 1e-10)},
    {"N": 26},
], ids=["tol", "mu", "N"])
def test_gp_solve_comparison_rejects_other_runs(tmp_path, change):
    _, out_dir = run_cli(tmp_path, "gp-solve", dict(CONFIGS["gp-solve"], **change))
    problems = gp_solve_mismatches(GOLDEN_ROOT / "gp-solve", out_dir)
    # the computed values are rejected, not only the echoed parameters
    assert any(p.startswith("decay.csv") for p in problems), problems


@pytest.mark.parametrize("change", [
    {"potential": dict(CONFIGS["eig-convergence"]["potential"], c=2.0 * (1 + 1e-9))},
    {"N_ref": 10},
], ids=["c", "N_ref"])
def test_eig_convergence_comparison_rejects_other_runs(tmp_path, change):
    _, out_dir = run_cli(tmp_path, "eig-convergence",
                         dict(CONFIGS["eig-convergence"], **change))
    problems = eig_convergence_mismatches(GOLDEN_ROOT / "eig-convergence", out_dir)
    # the toleranced column rejects them, not only the exact ones
    assert any("h1_dist" in p for p in problems), problems


# optional config key -> the numerics function and parameter it feeds
NUMERICS_DEFAULTS = {
    "gp-solve": {"tol": (solve_gp, "tol"),
                 "noise_floor": (estimate_solution_strip, "noise_floor")},
    "blowup": {"tol": (solve_gp, "tol"), "rtol": (blowup_report, "rtol"),
               "threshold": (blowup_report, "threshold"),
               "y_max": (blowup_report, "y_max")},
    "strip-estimate": {"noise_floor": (estimate_strip, "noise_floor")},
}


@pytest.mark.parametrize("experiment", sorted(NUMERICS_DEFAULTS))
def test_absent_optional_keys_take_the_numerics_defaults(tmp_path, experiment):
    keys = NUMERICS_DEFAULTS[experiment]
    bare = {k: v for k, v in CONFIGS[experiment].items() if k not in keys}
    spelled = dict(bare, **{key: inspect.signature(fn).parameters[name].default
                            for key, (fn, name) in keys.items()})
    assert run_cli(tmp_path, experiment, bare, subdir="bare")[0] == 0
    assert run_cli(tmp_path, experiment, spelled, subdir="spelled")[0] == 0
    names = artifact_names(tmp_path / "bare")
    assert names == artifact_names(tmp_path / "spelled")
    for name in names:
        assert ((tmp_path / "bare" / name).read_bytes()
                == (tmp_path / "spelled" / name).read_bytes()), name


@pytest.mark.parametrize("experiment, key", [
    ("gp-solve", "tol"), ("gp-solve", "noise_floor"), ("blowup", "tol"),
    ("blowup", "rtol"), ("blowup", "threshold"), ("blowup", "y_max"),
    ("strip-estimate", "noise_floor"),
])
def test_out_of_range_optional_key_exits_2(tmp_path, capsys, experiment, key):
    code, _ = run_cli(tmp_path, experiment, dict(CONFIGS[experiment], **{key: -1.0}))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["location"] == f"config.{key}"


@pytest.mark.parametrize("threshold, y_max, code", [
    (1e13, None, 0), (1e14, None, 2), (1e300, None, 2),
    # y_max = 100: one ulp of y (1.4e-14) outgrows MIN_STEP, so 1e13 is refused
    (1e13, 100.0, 2), (5e12, 100.0, 0),
])
def test_blowup_threshold_within_the_resolvable_bound(tmp_path, capsys, threshold,
                                                      y_max, code):
    # psi reaches 1e14 only sqrt(2 eps)/1e14 = 4.5e-15 before its pole at
    # eps = 0.1: below the smallest step, so such a run used to end in a
    # StiffnessError (exit 3)
    cfg = {"epsilon": 0.1, "mu": 0.5, "eta": 0.5, "N": 64, "threshold": threshold}
    if y_max is not None:
        cfg["y_max"] = y_max
    assert run_cli(tmp_path, "blowup", cfg)[0] == code
    if code == 2:
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["location"] == "config.threshold"


def test_blowup_report_content(tmp_path):
    _, out_dir = run_cli(tmp_path, "blowup", CONFIGS["blowup"])
    report = json.loads((out_dir / "report.json").read_text())
    assert report["lower_bound_verified"] is True
    assert report["Y_eps"] <= report["Y_eps_eta"]


def test_blowup_integrates_once(tmp_path, monkeypatch):
    import stripwave.blowup
    import stripwave.cli

    calls = []
    integrate = stripwave.blowup.integrate_psi

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    # also where the CLI could have bound its own copy of the name
    for module in (stripwave.blowup, stripwave.cli):
        monkeypatch.setattr(module, "integrate_psi", counted, raising=False)
    code, out_dir = run_cli(tmp_path, "blowup", CONFIGS["blowup"])
    assert code == 0
    assert len(calls) == 1
    assert byte_mismatches(GOLDEN_ROOT / "blowup", out_dir) == []


def test_linsolve_runs_no_eigensolver(tmp_path, monkeypatch):
    # linsolve.csv reads no eigenvalue, so the run must not compute one
    import numpy as np
    import scipy.linalg

    calls = []
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                         (scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh")):
        def counted(*args, _name=f"{module.__name__}.{name}",
                    _solver=getattr(module, name), **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    code, _ = run_cli(tmp_path, "linsolve", CONFIGS["linsolve"])
    assert code == 0
    assert calls == []


def test_import_leaves_ode_modules_unloaded(tmp_path):
    # scipy.linalg too: only the linear and Newton solves import it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, stripwave.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', "
            "'scipy.linalg') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"

    # the blowup study integrates and root-finds without scipy
    cfg = tmp_path / "blowup.json"
    cfg.write_text(json.dumps(CONFIGS["blowup"]))
    argv = ["blowup", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = ("import sys; from stripwave.cli import main; "
            f"assert main({argv!r}) == 0; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_blowup_manifest_diagnostics(tmp_path):
    _, out_dir = run_cli(tmp_path, "blowup", CONFIGS["blowup"])
    diagnostics = json.loads((out_dir / "manifest.json").read_text())["diagnostics"]
    assert set(diagnostics) == {"ode_steps", "taylor_order", "min_step",
                                "pole_estimate", "newton"}
    report = json.loads((out_dir / "report.json").read_text())
    assert 0 < diagnostics["ode_steps"] <= 100
    assert 0.0 < diagnostics["min_step"]
    assert report["Y_eps"] < diagnostics["pole_estimate"] < report["Y_eps"] + 1e-6
    # run records stay out of the byte-compared artifacts
    assert "pole_estimate" not in (out_dir / "report.json").read_text()


def newton_record(tmp_path, experiment, cfg):
    """The manifest's Newton record of one run, after checking that its
    block order and residual rows are those solve_gp reports."""
    _, out_dir = run_cli(tmp_path, experiment, cfg)
    newton = json.loads((out_dir / "manifest.json").read_text())["diagnostics"]["newton"]
    assert set(newton) == {"iterations", "residual_history", "block_order",
                           "residual_rows"}
    gp = solve_gp(cfg["epsilon"], cfg["mu"], cfg["N"])
    assert (newton["block_order"], newton["residual_rows"]) == (gp.block_order,
                                                                gp.residual_rows)
    return out_dir, newton


@pytest.mark.parametrize("experiment", ["gp-solve", "blowup"])
def test_newton_record_above_the_block(tmp_path, experiment):
    # 54 of the 384 modes at N = 768, whose cube reaches 3 * 54 - 1 rows
    _, newton = newton_record(tmp_path, experiment, dict(CONFIGS[experiment], N=768))
    assert (newton["block_order"], newton["residual_rows"]) == (54, 161)


@pytest.mark.parametrize("experiment", ["gp-solve", "blowup"])
def test_newton_record_in_manifest(tmp_path, experiment):
    out_dir, newton = newton_record(tmp_path, experiment, CONFIGS[experiment])
    # the block is the whole order at the test sizes
    half = (CONFIGS[experiment]["N"] + 1) // 2
    assert newton["block_order"] == newton["residual_rows"] == half
    history = newton["residual_history"]
    # one residual before each iteration and one after the last
    assert newton["iterations"] == 3 and len(history) == newton["iterations"] + 1
    assert history[-1] <= 1e-12 < history[0]
    report = (out_dir / "report.json").read_text()
    assert "residual_history" not in report
    if experiment == "gp-solve":
        assert json.loads(report)["newton_iters"] == newton["iterations"]
        assert json.loads(report)["residual"] == history[-1]


@pytest.mark.parametrize("mu", [1e4, 1e5])
@pytest.mark.parametrize("experiment", ["gp-solve", "blowup"])
def test_large_forcing_exits_0(tmp_path, experiment, mu):
    # the residual's rounding floor at these mu lies above tol = 1e-12;
    # Newton stops relative to the forcing's norm, mu * sqrt(pi)
    code, out_dir = run_cli(tmp_path, experiment, dict(CONFIGS[experiment], mu=mu))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    newton = manifest["diagnostics"]["newton"]
    assert 1e-12 < newton["residual_history"][-1] <= 1e-12 * mu * math.sqrt(math.pi)


def test_eig_convergence_manifest_diagnostics(tmp_path):
    _, out_dir = run_cli(tmp_path, "eig-convergence", CONFIGS["eig-convergence"])
    diagnostics = json.loads((out_dir / "manifest.json").read_text())["diagnostics"]
    assert set(diagnostics) == {"refinement"}
    solves = diagnostics["refinement"]
    # the reference first, then the study cutoffs; the even Poisson kernel
    # splits each matrix into a cosine and a sine block
    assert [s["N"] for s in solves] == [8, 2, 3, 4]
    for s in solves:
        n = s["N"]
        assert s["matrix_order"] == 2 * n + 1
        assert s["block_orders"] == [n + 1, n]
        assert 1 <= s["newton_steps"] <= 12
        assert s["cluster_size"] == 1
    # run records stay out of the byte-compared artifacts
    for name in ("convergence.csv", "convergence.json"):
        assert "newton_steps" not in (out_dir / name).read_text()


class Reached(Exception):
    """Raised by a stubbed numerics call: the config passed validation."""


def reached(*args, **kwargs):
    raise Reached


# size key -> the largest value DENSE_BYTES_LIMIT admits: real matrices of
# order 2N + 1 for eig-convergence and linsolve, the real half-wave
# Jacobian of order ceil(N/2) for gp-solve and blowup.  An N_list beyond
# it needs an N_ref beyond it, so only its rejection is checked; N_list
# is named, the first key that asks for the matrix.  The complex
# Bloch fibers are bounded by the integer box of their basis, which grows
# by one layer per unit of N + max |k| on these 2*pi lattices (max |k| is
# 0.5 in both configs): the values admitted are a box layer below the limit.
SIZE_GUARDS = [
    ("eig-convergence", "convergence_study", "N_ref", 5792,
     lambda n: {"N_ref": n}),
    ("eig-convergence", "convergence_study", "N_list", None,
     lambda n: {"N_list": [2, 5793], "N_ref": 2 * 5793}),
    ("linsolve", "refinement_study", "N_ref", 5792, lambda n: {"N_ref": n}),
    ("linsolve", "refinement_study", "N_list", None,
     lambda n: {"N_list": [4, 5793], "N_ref": 2 * 5793}),
    ("gp-solve", "solve_gp", "N", 23170, lambda n: {"N": n}),
    ("blowup", "solve_gp", "N", 23170, lambda n: {"N": n}),
    ("bands", "band_structure", "N", 43.49, lambda n: {"N": n}),  # 89^2 <= 8192
    ("bz-convergence", "bz_convergence", "N_ref", 4094.49,  # 2 * 4095 + 1
     lambda n: {"N_ref": n}),
    # a builtin 1D potential's 2 cutoff + 1 coefficients, 256 bytes each to
    # build and embed on the lattice, stubbed at its factory
    ("eig-convergence", "potentials.poisson_kernel", "potential.cutoff", 2097151,
     lambda n: {"potential": dict(CONFIGS["eig-convergence"]["potential"], cutoff=n)}),
    ("strip-estimate", "potentials.poisson_kernel", "potential.cutoff", 2097151,
     lambda n: {"potential": dict(CONFIGS["strip-estimate"]["potential"], cutoff=n)}),
    ("linsolve", "potentials.gaussian_bump", "source.cutoff", 2097151,
     lambda n: {"source": {"name": "gaussian-sum", "cutoff": n}}),
    ("bz-convergence", "potentials.poisson_kernel", "potential.potential.cutoff", 2097151,
     lambda n: {"potential": {"name": "embed-1d", "potential": dict(
         CONFIGS["bz-convergence"]["potential"]["potential"], cutoff=n)}}),
]


@pytest.mark.parametrize("experiment, numerics, key, largest, change", SIZE_GUARDS,
                         ids=[f"{e}-{k}" for e, _, k, _, _ in SIZE_GUARDS])
def test_dense_size_guard(tmp_path, monkeypatch, capsys, experiment, numerics, key,
                          largest, change):
    # the numerics are stubbed: no test allocates a matrix of this size
    monkeypatch.setattr(f"stripwave.cli.{numerics}", reached)
    if largest is not None:
        with pytest.raises(Reached):
            run_cli(tmp_path, experiment, dict(CONFIGS[experiment], **change(largest)))
        largest += 1
    code, _ = run_cli(tmp_path, experiment, dict(CONFIGS[experiment], **change(largest)))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["location"] == f"config.{key}"
    assert "byte limit" in err["message"]


CUBE = {"cubic": {"dimension": 3, "a": 6.283185307179586}}


@pytest.mark.parametrize("n", [20.0, 1e308], ids=["cube-20", "box-overflows"])
def test_bloch_fiber_guard_counts_the_box(tmp_path, monkeypatch, capsys, n):
    # the box of the cube of side 2*pi at N = 20 holds 43^3 = 79507 points
    # and the basis about 33,000 planewaves; at 1e308 the box overflows
    monkeypatch.setattr("stripwave.cli.band_structure", reached)
    cube = dict(CONFIGS["bands"], lattice=CUBE, k_path=[[0.0, 0.0, 0.0]])
    with pytest.raises(Reached):
        run_cli(tmp_path, "bands", dict(cube, N=8.99))  # a box of 19^3 points
    code, _ = run_cli(tmp_path, "bands", dict(cube, N=n))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["location"] == "config.N"
    assert "byte limit" in err["message"]


GAUSSIAN = {"name": "gaussian-sum", "centers": [[0.0, 0.0, 0.0]], "widths": [0.5],
            "amplitudes": [1.0]}
ON_THE_CUBE = {
    "bands": dict(CONFIGS["bands"], lattice=CUBE, k_path=[[0.0, 0.0, 0.0]]),
    "bz-convergence": dict(CONFIGS["bz-convergence"], lattice=CUBE,
                           k_samples=[[0.0, 0.0, 0.0]]),
}


@pytest.mark.parametrize("cutoff", [160.0, 1e308], ids=["cube-160", "box-overflows"])
@pytest.mark.parametrize("experiment", sorted(ON_THE_CUBE))
def test_gaussian_potential_guard_counts_its_box(tmp_path, monkeypatch, capsys,
                                                experiment, cutoff):
    # On the cube of side 2*pi the box of |G| <= cutoff has half-widths
    # floor(cutoff) + 1, and basis_set stores 3 int64 coordinates and one
    # float norm per point: 321^3 points take 1.058e9 bytes, 323^3 points
    # 1.078e9, against the limit of 2**30 = 1.074e9.  The potential is
    # stubbed: no test enumerates the box.
    monkeypatch.setattr("stripwave.cli.gaussian_potential", reached)

    def config(c):
        return dict(ON_THE_CUBE[experiment], potential=dict(GAUSSIAN, cutoff=c))

    with pytest.raises(Reached):
        run_cli(tmp_path, experiment, config(159.99))
    code, _ = run_cli(tmp_path, experiment, config(cutoff))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["location"] == "config.potential.cutoff"
    assert "byte limit" in err["message"]


@pytest.mark.parametrize("lattice, largest", [
    ({"rows": [[6.283185307179586]]}, 2**27),  # 2**27 samples of one float
    (CUBE, 355),  # 355^3 samples of 3 floats take 1.0737e9 bytes, 356^3 1.083e9
], ids=["line", "cube"])
def test_bz_sample_grid_guard(tmp_path, monkeypatch, capsys, lattice, largest):
    # the grid is stubbed: no test forms it
    monkeypatch.setattr("stripwave.cli.bz_sample_grid", reached)
    config = {key: value for key, value in CONFIGS["bz-convergence"].items()
              if key != "k_samples"}
    config.update(lattice=lattice, potential={"name": "zero"})
    with pytest.raises(Reached):
        run_cli(tmp_path, "bz-convergence", dict(config, n_k=largest))
    for n_k in (largest + 1, 10**9):
        code, _ = run_cli(tmp_path, "bz-convergence", dict(config, n_k=n_k))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["location"] == "config.n_k"
        assert "byte limit" in err["message"]


def test_bz_convergence_manifest_diagnostics(tmp_path):
    _, out_dir = run_cli(tmp_path, "bz-convergence", CONFIGS["bz-convergence"])
    diagnostics = json.loads((out_dir / "manifest.json").read_text())["diagnostics"]
    assert set(diagnostics) == {"refinement"}
    records = diagnostics["refinement"]
    # per k sample the reference first, then the study cutoffs; at the zone
    # edge k = 0.5 each basis holds one planewave fewer
    assert [(r["k"], r["N"]) for r in records] == [
        ([k], n) for k in (0.0, 0.5) for n in (10.0, 3.0, 4.0, 5.0)]
    assert [r["matrix_order"] for r in records] == [21, 7, 9, 11, 20, 6, 8, 10]
    for r in records:
        assert set(r) == {"k", "N", "matrix_order", "block_orders", "form",
                          "newton_steps", "cluster_size", "tried", "accepted",
                          "r_outside", "delta", "kato_temple"}
        # N_ref is twice the largest study cutoff: no pilot is tried
        assert r["tried"] == [r["N"]] and r["accepted"] == r["N"]
        assert r["r_outside"] == 0.0 and r["delta"] is r["kato_temple"] is None
        # the even Poisson kernel has its inversion center at 0, and 2k is in
        # the reciprocal lattice at k = 0 and 0.5: an even and an odd block
        order = r["matrix_order"]
        assert r["block_orders"] == [order - order // 2, order // 2]
        assert r["form"] == "parity"
        assert 1 <= r["newton_steps"] <= 2
        assert r["cluster_size"] == 1
    # run records stay out of the byte-compared artifacts
    for name in ("bz.csv", "bz.json"):
        assert "newton_steps" not in (out_dir / name).read_text()


def test_memory_error_exits_3(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr("stripwave.cli.convergence_study", exhausted)
    code, _ = run_cli(tmp_path, "eig-convergence", CONFIGS["eig-convergence"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numeric"
    assert err["type"] == "MemoryError"


def test_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = main(["gp-solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "location" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = dict(CONFIGS["gp-solve"], typo=1)
    code, _ = run_cli(tmp_path, "gp-solve", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["location"] == "config.typo"


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["gp-solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_out_of_range_parameter_exits_2(tmp_path, capsys):
    cfg = dict(CONFIGS["gp-solve"], epsilon=-0.1)
    code, _ = run_cli(tmp_path, "gp-solve", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["location"] == "config.epsilon"


@pytest.mark.parametrize("experiment, raw, location", [
    ("linsolve", '{"potential": {"name": "cosine", "mean": 2.0}, '
                 '"source": {"name": "sine", "amplitude": NaN}, '
                 '"N_list": [4, 6], "N_ref": 12}', "config.source.amplitude"),
    ("gp-solve", '{"epsilon": 0.1, "mu": Infinity, "N": 24}', "config.mu"),
    ("eig-convergence", '{"potential": {"name": "poisson-kernel", "c": 2.0, '
                        '"shift": NaN, "cutoff": 30}, "N_list": [2, 3, 4], '
                        '"N_ref": 8, "j": 1, "A_claim": 1.0}',
     "config.potential.shift"),
    ("bz-convergence", '{"lattice": {"rows": [[6.283185307179586]]}, '
                       '"potential": {"name": "zero"}, "N_list": [3, -Infinity], '
                       '"N_ref": 10, "n": 1, "A_claim": 1.0}', "config.N_list"),
    ("gp-solve", '{"epsilon": 0.1, "mu": 1' + '0' * 400 + ', "N": 24}', "config.mu"),
], ids=["nan-amplitude", "infinite-mu", "nan-shift", "infinite-list-entry",
        "int-beyond-float"])
def test_nonfinite_number_exits_2(tmp_path, capsys, experiment, raw, location):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(raw)
    code = main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["location"] == location


@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_inert_flags_are_gone(tmp_path, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIGS["strip-estimate"]))
    with pytest.raises(SystemExit) as exc:
        main(["strip-estimate", "--config", str(cfg), "--out", str(tmp_path / "o"),
              flag, "1"])
    assert exc.value.code == 2


OVERFLOWING_SERIES = {"cutoff": 2, "re": [0, 1, 1e308, 1, 0], "im": [0, 0, 0, 0, 0]}


@pytest.mark.parametrize("experiment, config, kind", [
    ("eig-convergence", dict(CONFIGS["eig-convergence"],
                             potential={"file": "series.json"}), "PreconditionError"),
    ("linsolve", dict(CONFIGS["linsolve"], potential={"file": "series.json"}),
     "PreconditionError"),
    ("gp-solve", dict(CONFIGS["gp-solve"], mu=1e200), "NonconvergenceError"),
    ("blowup", dict(CONFIGS["blowup"], mu=1e300), "NonconvergenceError"),
], ids=["eig-convergence", "linsolve", "gp-solve", "blowup"])
def test_overflow_exits_3(tmp_path, monkeypatch, capsys, experiment, config, kind):
    """Coefficients or Newton residuals beyond the float range exit 3 with
    the JSON object alone on stderr, and no warning on the way."""
    (tmp_path / "series.json").write_text(json.dumps(OVERFLOWING_SERIES))
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run_cli(tmp_path, experiment, config)
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "numeric"
    assert err["type"] == kind


def test_numeric_failure_exits_3(tmp_path, capsys):
    cfg = {"potential": {"name": "constant", "value": 0.5},
           "source": {"name": "sine"}, "N_list": [4], "N_ref": 8}
    code, _ = run_cli(tmp_path, "linsolve", cfg)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numeric"
    assert err["type"] == "PreconditionError"


def strict_json(text):
    """json.loads that refuses NaN and Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def test_nonconvergence_keeps_its_residual_history(tmp_path, capsys):
    # Newton settles at about 1.6e-16, above tol, and stops at max_iter
    code, _ = run_cli(tmp_path, "gp-solve", dict(CONFIGS["gp-solve"], tol=1e-30))
    assert code == 3
    err = strict_json(capsys.readouterr().err)
    assert err["type"] == "NonconvergenceError"
    history = err["diagnostics"]["residual_history"]
    assert len(history) == 51 and history[0] > 0.1 and max(history[-5:]) < 1e-15


def test_stiffness_keeps_its_last_step():
    exc = StiffnessError("step underflow", diagnostics={
        "last_y": 1.5, "last_step": 0.0, "min_step": math.inf})
    err = strict_json(_error_json("numeric", exc))
    assert err["type"] == "StiffnessError"
    assert err["diagnostics"] == {"last_y": 1.5, "last_step": 0.0, "min_step": None}
    nan_history = strict_json(_error_json("numeric", NonconvergenceError(
        "residual nan", residual_history=[1.0, math.nan])))
    assert nan_history["diagnostics"] == {"residual_history": [1.0, None]}


def test_env_var_overrides_default_out(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIGS["strip-estimate"]))
    target = tmp_path / "from-env"
    monkeypatch.setenv("STRIPWAVE_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    code = main(["strip-estimate", "--config", str(cfg_path)])
    assert code == 0
    assert (target / "estimate.json").exists()


def test_explicit_out_beats_env(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIGS["strip-estimate"]))
    monkeypatch.setenv("STRIPWAVE_OUT", str(tmp_path / "env-dir"))
    code = main(["strip-estimate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "flag-dir")])
    assert code == 0
    assert (tmp_path / "flag-dir" / "estimate.json").exists()
    assert not (tmp_path / "env-dir").exists()


def test_strip_estimate_recovers_kernel_width(tmp_path):
    _, out_dir = run_cli(tmp_path, "strip-estimate", CONFIGS["strip-estimate"])
    est = json.loads((out_dir / "estimate.json").read_text())
    import math
    assert est["half_width"] == pytest.approx(math.acosh(2.0), rel=1e-9)


def _null_estimate_run(tmp_path, experiment, config):
    """Run a config whose coefficients give the strip fit too little: it
    exits 0, writes decay.csv, and the manifest carries the estimator's
    message.  Returns the run directory."""
    code, out_dir = run_cli(tmp_path, experiment, config)
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "decay.csv" in manifest["outputs"] and (out_dir / "decay.csv").exists()
    assert "above the noise floor" in manifest["diagnostics"]["strip_estimate"]
    return out_dir


@pytest.mark.parametrize("mu", [0.0, 1e-12, 1e-6, 1e-3])
def test_gp_solve_with_too_few_coefficients_writes_a_null_estimate(tmp_path, mu):
    # Newton converges; 0-2 odd coefficients rise above the 1e-13 floor
    out_dir = _null_estimate_run(tmp_path, "gp-solve", {"epsilon": 0.1, "mu": mu, "N": 64})
    report = json.loads((out_dir / "report.json").read_text())
    assert report["B_eps_estimate"] is None and report["residual"] <= 1e-12


@pytest.mark.parametrize("potential", [
    {"name": "cosine"}, {"name": "mathieu"}, {"name": "constant", "value": 1.0},
    {"name": "poisson-kernel", "c": 30.0}])
def test_strip_estimate_with_too_few_coefficients_is_null(tmp_path, potential):
    out_dir = _null_estimate_run(tmp_path, "strip-estimate", {"potential": potential})
    assert json.loads((out_dir / "estimate.json").read_text()) == dict.fromkeys(
        ["fit_window", "half_width", "prefactor", "residual", "stride"])


SQUARE = {"cubic": {"dimension": 2, "a": 6.283185307179586}}


@pytest.mark.parametrize("experiment, config", [
    ("bands", dict(CONFIGS["bands"],
                   potential={"name": "gaussian-sum", "centers": [[0.0, 0.0, 0.0]],
                              "widths": [0.5], "amplitudes": [1.0], "cutoff": 3.0})),
    ("bands", dict(CONFIGS["bands"], k_path=[[0.0, 0.0], [float("nan"), 0.0]])),
    ("bz-convergence", {"lattice": {"rows": [[6.283185307179586]]},
                        "potential": {"name": "zero"}, "N_list": [0.2],
                        "N_ref": 0.4, "n": 3, "A_claim": 1.0,
                        "k_samples": [0.0]}),
], ids=["center-dimension", "nonfinite-k", "reference-basis-too-small"])
def test_invalid_bloch_parameter_exits_3(tmp_path, capsys, experiment, config):
    code, _ = run_cli(tmp_path, experiment, config)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numeric"
    assert err["type"] == "InvalidParameterError"


@pytest.mark.parametrize("experiment, config, location", [
    ("bands", dict(CONFIGS["bands"], k_path=[[0, 0], [0.5]]), "config.k_path"),
    ("bz-convergence", dict(CONFIGS["bz-convergence"], lattice=SQUARE,
                            potential={"name": "zero"},
                            k_samples=[[0, 0], [0.5]]), "config.k_samples"),
    ("bands", dict(CONFIGS["bands"],
                   potential={"name": "gaussian-sum", "centers": [[0.0, 0.0], [1.0]],
                              "widths": [0.5, 0.5], "amplitudes": [1.0, 1.0],
                              "cutoff": 3.0}), "config.potential.centers"),
    ("bands", dict(CONFIGS["bands"], lattice={"rows": [[6.28, 0], [0]]}),
     "config.lattice.rows"),
    ("bands", dict(CONFIGS["bands"], lattice={"rows": [["a"]]}),
     "config.lattice.rows"),
    ("bands", dict(CONFIGS["bands"], lattice={"cubic": 3}), "config.lattice.cubic"),
    ("bands", dict(CONFIGS["bands"], lattice={"cubic": {"dimension": -1, "a": 1.0}}),
     "config.lattice.cubic.dimension"),
    ("strip-estimate", {"potential": {"name": "poisson-kernel", "c": 2.0,
                                      "cutoff": -3}}, "config.potential"),
    ("bz-convergence", dict(CONFIGS["bz-convergence"], k_samples=[]),
     "config.k_samples"),
    ("strip-estimate", {"potential": {"file": "series.json"}}, "config.potential"),
    ("eig-convergence", dict(CONFIGS["eig-convergence"], j=100, N_list=[2, 3]),
     "config.j"),
    ("bands", dict(CONFIGS["bands"], k_path=[0.0, 0.5]), "config.k_path"),
    ("bz-convergence", dict(CONFIGS["bz-convergence"], lattice=SQUARE,
                            potential={"name": "zero"}, k_samples=[0.0, 0.5]),
     "config.k_samples"),
    ("bands", dict(CONFIGS["bands"], lattice={"rows": [[1, 2, 3]]}),
     "config.lattice.rows"),
    ("bands", dict(CONFIGS["bands"], lattice={"rows": [[0, 0], [0, 0]]}),
     "config.lattice.rows"),
    ("bands", dict(CONFIGS["bands"], lattice={"cubic": {"dimension": 2, "a": 0.0}}),
     "config.lattice.cubic.a"),
    ("bands", dict(CONFIGS["bands"], lattice={"rows": [[float("nan"), 0], [0, 6.28]]}),
     "config.lattice.rows"),
], ids=["k_path", "k_samples", "centers", "ragged-rows", "non-numeric-rows",
        "cubic-not-object", "negative-dimension", "negative-cutoff",
        "empty-k-samples", "series-lengths", "band-beyond-basis",
        "flat-k-path-2d", "flat-k-samples-2d", "non-square-rows",
        "singular-rows", "zero-cubic-a", "nonfinite-rows"])
def test_ragged_point_list_exits_2(tmp_path, monkeypatch, capsys, experiment, config,
                                   location):
    """Malformed configs, ragged point lists among them, exit 2 at their key."""
    # the series-lengths case reads this file by its relative name
    (tmp_path / "series.json").write_text(
        json.dumps({"cutoff": 1, "re": [0.0, 1.0, 0.0], "im": [0.0, 0.0]}))
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(tmp_path, experiment, config)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["location"] == location


def test_flat_k_list_is_one_point_per_number_in_1d(tmp_path):
    line = {"lattice": {"rows": [[6.283185307179586]]}, "potential": {"name": "zero"}}
    bands = dict(line, k_path=[0.0, 0.25, 0.5], N=2.5, n_bands=2)
    code, out_dir = run_cli(tmp_path, "bands", bands, subdir="flat")
    assert code == 0
    nested = dict(bands, k_path=[[0.0], [0.25], [0.5]])
    _, nested_dir = run_cli(tmp_path, "bands", nested, subdir="nested")
    flat_csv = (out_dir / "bands.csv").read_bytes()
    assert flat_csv == (nested_dir / "bands.csv").read_bytes()
    assert len(flat_csv.splitlines()) == 4
    bz = dict(line, N_list=[3, 4, 5], N_ref=10, n=1, A_claim=1.0,
              k_samples=[0.0, 0.25, 0.5])
    code, bz_dir = run_cli(tmp_path, "bz-convergence", bz, subdir="bz")
    assert code == 0
    samples = json.loads((bz_dir / "bz.json").read_text())["k_samples"]
    assert samples == [[0.0], [0.25], [0.5]]


# -- the columnwise CSV writer ----------------------------------------------------


def reference_cell(value) -> str:
    """A cell as the row-by-row writer formatted it: integers as such,
    floats in shortest round-trip form, None empty."""
    if isinstance(value, float):
        return float.__repr__(value)
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def reference_csv(header, columns) -> bytes:
    """The bytes of the row-by-row writer: csv.writer over reference_cell."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(map(reference_cell, row) for row in zip(*columns))
    return buf.getvalue().encode()


def written_csv(root, header, columns) -> bytes:
    write_csv(_OutputDir(root), "table.csv", header, columns)
    return Path(root, "table.csv").read_bytes()


FLOATS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     math.inf, -math.inf, math.nan, 0.1, 1e16, 1e22]))
INT64 = st.integers(-2**63, 2**63 - 1)
CELLS = st.one_of(st.none(), FLOATS, FLOATS.map(np.float64), st.integers(-2**70, 2**70),
                  INT64.map(np.int64), st.booleans())


def column(rows: int):
    """One column: a float64, float32, int64 or uint64 array, or a list
    of Python and numpy numbers and None."""
    def cells(values):
        return st.lists(values, min_size=rows, max_size=rows)

    return st.one_of(cells(FLOATS).map(lambda v: np.array(v, dtype=np.float64)),
                     cells(st.floats(width=32)).map(lambda v: np.array(v, dtype=np.float32)),
                     cells(INT64).map(lambda v: np.array(v, dtype=np.int64)),
                     cells(st.integers(0, 2**64 - 1)).map(lambda v: np.array(v, dtype=np.uint64)),
                     cells(CELLS))


TABLES = st.integers(0, 12).flatmap(
    lambda rows: st.lists(column(rows), min_size=1, max_size=6))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(columns=TABLES)
def test_columnwise_writer_matches_the_row_writer(tmp_path_factory, columns):
    header = [f"c{i}" for i in range(len(columns))]
    root = tmp_path_factory.getbasetemp() / "writer"
    assert written_csv(root, header, columns) == reference_csv(header, columns)


def test_single_column_quotes_empty_cells_as_csv_writer_does(tmp_path):
    columns = [[None, 1.5, None]]
    assert written_csv(tmp_path, ["x"], columns) == b'x\r\n""\r\n1.5\r\n""\r\n'
    assert written_csv(tmp_path, ["x"], columns) == reference_csv(["x"], columns)


def test_columns_of_unequal_length_are_refused():
    with tempfile.TemporaryDirectory() as root:
        with pytest.raises(ValueError):
            write_csv(_OutputDir(root), "table.csv", ["a", "b"],
                      [np.zeros(3), np.zeros(2)])
        assert os.listdir(root) == []


# -- numeric exits and fuzzed configs ---------------------------------------------


@pytest.mark.parametrize("error", [ValueError, FloatingPointError])
def test_bare_numpy_error_exits_3(tmp_path, monkeypatch, capsys, error):
    def failing(*args, **kwargs):
        raise error("a numpy failure")

    monkeypatch.setattr("stripwave.cli.solve_gp", failing)
    code, _ = run_cli(tmp_path, "gp-solve", CONFIGS["gp-solve"])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err == {"error": "numeric", "type": error.__name__,
                   "message": "a numpy failure"}


MISSING = object()  # a key the config leaves out
NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
WRONG_TYPE = st.sampled_from(["0.5", [0.5], None, True, {}])
OPTIONAL = st.just(MISSING)

# key -> (valid values, values outside the documented range, wrong types);
# N stays at most 64 and y_max at most 5, so a run takes milliseconds
EPSILON = (st.floats(0.01, 2.0), st.floats(-1.0, 0.0), WRONG_TYPE)
SIZE = (st.integers(16, 64), st.integers(-3, 15),
        st.sampled_from(["24", 24.0, [24], None, True]))
TOL = (st.floats(1e-14, 1e-6) | OPTIONAL, st.floats(-1.0, 0.0), WRONG_TYPE)
FUZZED_KEYS = {
    "gp-solve": {
        "epsilon": EPSILON,
        "mu": (st.floats(0.0, 2.0), st.floats(-1.0, -1e-3), WRONG_TYPE),
        "N": SIZE,
        "tol": TOL,
        "noise_floor": (st.floats(1e-15, 1e-9) | OPTIONAL, st.floats(-1.0, 0.0),
                        WRONG_TYPE),
    },
    "blowup": {
        "epsilon": EPSILON,
        "mu": (st.floats(0.05, 2.0), st.floats(-1.0, 0.0), WRONG_TYPE),
        "eta": (st.floats(0.05, 2.0), st.floats(-1.0, 0.0), WRONG_TYPE),
        "N": SIZE,
        "rtol": (st.floats(1e-12, 1e-6) | OPTIONAL, st.floats(-1.0, 1e-14), WRONG_TYPE),
        "threshold": (st.floats(10.0, 1e8) | OPTIONAL, st.floats(-1.0, 1.0), WRONG_TYPE),
        "y_max": (st.floats(0.5, 5.0) | OPTIONAL, st.floats(-1.0, 0.0), WRONG_TYPE),
        "tol": TOL,
    },
}


@st.composite
def fuzzed_configs(draw):
    """An experiment and its config: valid values, with up to two keys
    made out of range, non-finite, of a wrong type or missing, and now
    and then an unknown key."""
    experiment = draw(st.sampled_from(sorted(FUZZED_KEYS)))
    keys = FUZZED_KEYS[experiment]
    config = {key: draw(valid) for key, (valid, _, _) in keys.items()}
    for key in draw(st.lists(st.sampled_from([*sorted(keys), "unknown"]), max_size=2,
                             unique=True)):
        if key == "unknown":
            config[key] = 1
            continue
        _, out_of_range, wrong_type = keys[key]
        config[key] = draw(out_of_range | NONFINITE | wrong_type | st.just(MISSING))
    return experiment, {key: v for key, v in config.items() if v is not MISSING}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(fuzzed_configs())
def test_fuzzed_configs_end_in_a_documented_exit(case):
    """Every generated gp-solve and blowup config exits 0, 2 or 3, and a
    nonzero exit leaves one JSON line on stderr (no traceback: an escaping
    exception fails the test)."""
    experiment, config = case
    with tempfile.TemporaryDirectory() as root:
        cfg_path = Path(root, "config.json")
        cfg_path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([experiment, "--config", str(cfg_path), "--out",
                         str(Path(root, "out"))])
    assert code in (0, 2, 3)
    lines = stderr.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == ("config" if code == 2 else "numeric")


POTENTIAL_1D = st.one_of(
    st.builds(lambda c, mu, cutoff: {"name": "poisson-kernel", "c": c, "mu": mu,
                                     "cutoff": cutoff},
              st.floats(1.02, 4.0), st.floats(-2.0, 2.0), st.integers(0, 60)),
    st.builds(lambda amplitude, width, center: {
        "name": "gaussian-sum", "amplitude": amplitude, "width": width,
        "center": center, "cutoff": 30},
        st.floats(-2.0, 2.0), st.floats(0.3, 1.5), st.floats(-1.0, 1.0)),
    st.builds(lambda q: {"name": "mathieu", "q": q}, st.floats(-3.0, 3.0)),
    st.builds(lambda amplitude, mean: {"name": "cosine", "amplitude": amplitude,
                                       "mean": mean},
              st.floats(-2.0, 2.0), st.floats(-1.0, 3.0)))


@st.composite
def convergence_configs(draw):
    """An eig-convergence or bz-convergence config with a reference of 2
    to 16 times the largest study cutoff: at most 64 in 1D and 4 on a
    lattice, so that a run takes milliseconds.  The band may lie beyond
    the smallest basis (exit 2)."""
    if draw(st.booleans()):
        cutoffs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
        largest = max(cutoffs)
        return "eig-convergence", {
            "potential": draw(POTENTIAL_1D), "N_list": sorted(cutoffs),
            "N_ref": draw(st.integers(2 * largest, min(16 * largest, 64))),
            "j": draw(st.integers(1, 2 * min(cutoffs) + 2)), "A_claim": 1.0}
    largest = draw(st.floats(0.25, 2.0))
    cutoffs = sorted({largest, *draw(st.lists(st.floats(0.1, largest), max_size=2))})
    dimension = draw(st.integers(1, 2))
    if dimension == 1:
        lattice = {"rows": [[2.0 * math.pi]]}
        potential = {"name": "embed-1d", "potential": draw(POTENTIAL_1D)}
    else:
        lattice = {"cubic": {"dimension": 2, "a": 2.0 * math.pi}}
        potential = {"name": "gaussian-sum",
                     "centers": [draw(st.lists(st.floats(-0.5, 0.5), min_size=2,
                                               max_size=2))],
                     "widths": [draw(st.floats(0.5, 1.0))],
                     "amplitudes": [draw(st.floats(-2.0, 2.0))], "cutoff": 3.0}
    k = draw(st.lists(st.floats(-0.5, 0.5), min_size=dimension, max_size=dimension))
    return "bz-convergence", {
        "lattice": lattice, "potential": potential, "N_list": cutoffs,
        "N_ref": draw(st.floats(2.0 * largest, min(16.0 * largest, 4.0))),
        "n": draw(st.integers(1, 2)), "A_claim": 1.0, "k_samples": [k]}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(convergence_configs())
def test_fuzzed_convergence_configs_end_in_a_documented_exit(case):
    """Every generated eig-convergence and bz-convergence config, pilots
    tried or not, exits 0, 2 or 3; a nonzero exit leaves one JSON line on
    stderr (no traceback: an escaping exception fails the test), and every
    eigenvalue error of a run that exits 0 is nonnegative."""
    experiment, config = case
    with tempfile.TemporaryDirectory() as root:
        cfg_path, out = Path(root, "config.json"), Path(root, "out")
        cfg_path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([experiment, "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 2, 3)
        lines = stderr.getvalue().splitlines()
        if code:
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == ("config" if code == 2 else "numeric")
            return
        assert lines == []
        name, column = (("convergence.csv", "lambda_err") if experiment == "eig-convergence"
                        else ("bz.csv", "max_lambda_err"))
        with open(out / name, newline="") as fh:
            errors = [float(row[column]) for row in csv.DictReader(fh)]
    assert errors and all(err >= 0.0 for err in errors)


def _raised_gaussian(center, width):
    """1.5 plus a unit Gaussian bump about center, as a series file's JSON:
    V >= 1 holds, so a linsolve on it solves."""
    V = constant(1.5) + gaussian_bump(1.0, width, center, 20)
    return {"cutoff": V.cutoff, "re": V.coeffs.real.tolist(), "im": V.coeffs.imag.tolist()}


CENTRE = st.sampled_from([0.0, math.pi]) | st.floats(-3.0, 3.0)
RAISED_GAUSSIAN = st.builds(lambda center, width: {"series": _raised_gaussian(center, width)},
                            CENTRE, st.floats(0.3, 1.5))
LINSOLVE_POTENTIAL = st.one_of(
    st.builds(lambda amplitude, harmonic, mean: {"name": "cosine", "amplitude": amplitude,
                                                 "harmonic": harmonic, "mean": mean},
              st.floats(-1.0, 1.0), st.integers(1, 3), st.floats(0.5, 4.0)),
    st.builds(lambda c, mu, shift, cutoff: {"name": "poisson-kernel", "c": c, "mu": mu,
                                            "shift": shift, "cutoff": cutoff},
              st.floats(1.02, 4.0), st.floats(-1.0, 2.0), st.floats(0.0, 3.0),
              st.integers(0, 60)),
    # a bare bump dips below 1 (exit 3); a raised one solves
    st.builds(lambda amplitude, width, center: {
        "name": "gaussian-sum", "amplitude": amplitude, "width": width, "center": center,
        "cutoff": 20}, st.floats(0.5, 3.0), st.floats(0.3, 1.5), CENTRE),
    RAISED_GAUSSIAN, RAISED_GAUSSIAN)


@st.composite
def linsolve_configs(draw):
    """A linsolve config on a cosine, Poisson-kernel or Gaussian potential,
    the Gaussian centred or off-centre, with cutoffs of at most 8 and a
    reference of at most 32, so that a run takes milliseconds."""
    cutoffs = sorted(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True)))
    source = draw(st.sampled_from(["sine", "cosine"]))
    return {"potential": draw(LINSOLVE_POTENTIAL),
            "source": {"name": source, "amplitude": draw(st.floats(0.1, 2.0)),
                       "harmonic": draw(st.integers(1, 3))},
            "N_list": cutoffs, "N_ref": draw(st.integers(2 * cutoffs[-1], 32))}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(linsolve_configs())
def test_fuzzed_linsolve_configs_end_in_a_documented_exit(config):
    """Every generated linsolve config exits 0, 2 or 3; a nonzero exit
    leaves one JSON line on stderr (no traceback: an escaping exception
    fails the test), and a run that exits 0 writes finite residuals."""
    with tempfile.TemporaryDirectory() as root:
        cfg_path, out = Path(root, "config.json"), Path(root, "out")
        if "series" in config["potential"]:
            Path(root, "series.json").write_text(json.dumps(config["potential"]["series"]))
            config = dict(config, potential={"file": str(Path(root, "series.json"))})
        cfg_path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["linsolve", "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 2, 3)
        lines = stderr.getvalue().splitlines()
        if code:
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == ("config" if code == 2 else "numeric")
            return
        assert lines == []
        with open(out / "linsolve.csv", newline="") as fh:
            residuals = [float(row["residual_l2"]) for row in csv.DictReader(fh)]
    assert len(residuals) == len(config["N_list"])
    assert all(math.isfinite(r) and r >= 0.0 for r in residuals)


STRIP_POTENTIAL = st.one_of(
    st.builds(lambda value: {"name": "constant", "value": value}, st.floats(-3.0, 3.0)),
    st.builds(lambda amplitude, harmonic, mean: {"name": "cosine", "amplitude": amplitude,
                                                 "harmonic": harmonic, "mean": mean},
              st.floats(-2.0, 2.0), st.integers(0, 4), st.floats(-1.0, 3.0)),
    st.builds(lambda q: {"name": "mathieu", "q": q}, st.floats(-3.0, 3.0)),
    # c <= 1 is out of range (exit 2); a large c or a small cutoff leaves
    # too few coefficients above the floor (a null estimate)
    st.builds(lambda c, mu, shift, cutoff: {"name": "poisson-kernel", "c": c, "mu": mu,
                                            "shift": shift, "cutoff": cutoff},
              st.floats(1.05, 40.0) | st.just(0.5), st.floats(-2.0, 2.0),
              st.floats(-1.0, 3.0), st.sampled_from([4, 30, 60, 120])),
    st.builds(lambda amplitude, width, center, cutoff: {
        "name": "gaussian-sum", "amplitude": amplitude, "width": width, "center": center,
        "cutoff": cutoff}, st.floats(-2.0, 2.0), st.floats(0.1, 1.5), st.floats(-3.0, 3.0),
        st.sampled_from([4, 30, 60])))
NOISE_FLOOR = st.sampled_from([MISSING, MISSING, 1e-15, 1e-13, 1e-10, 1e-6, 0.0, -1.0])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(STRIP_POTENTIAL, NOISE_FLOOR)
def test_fuzzed_strip_estimate_configs_end_in_a_documented_exit(potential, noise_floor):
    """Every generated strip-estimate config exits 0, 2 or 3; a nonzero
    exit leaves one JSON line on stderr (no traceback: an escaping
    exception fails the test).  On exit 0 decay.csv is written and the
    estimate is either a positive half-width or, with the estimator's
    message in the manifest, null in every field."""
    config = {"potential": potential}
    if noise_floor is not MISSING:
        config["noise_floor"] = noise_floor
    with tempfile.TemporaryDirectory() as root:
        cfg_path, out = Path(root, "config.json"), Path(root, "out")
        cfg_path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["strip-estimate", "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 2, 3)
        lines = stderr.getvalue().splitlines()
        if code:
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == ("config" if code == 2 else "numeric")
            return
        assert lines == []
        assert (out / "decay.csv").exists()
        estimate = json.loads((out / "estimate.json").read_text())
        diagnostics = json.loads((out / "manifest.json").read_text()).get("diagnostics", {})
    if estimate["half_width"] is None:
        assert set(estimate.values()) == {None} and diagnostics["strip_estimate"]
    else:
        assert estimate["half_width"] > 0.0 and "strip_estimate" not in diagnostics
