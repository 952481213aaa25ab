"""CLI driver tests: exit codes, manifests, determinism and golden files."""

import ast
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stripwave.cli import main
from stripwave.potentials import poisson_kernel

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


# gp-solve goes through BLAS zdotu (np.convolve) and the LAPACK Cholesky
# solve of its real Newton step, so its last bits follow the BLAS kernel.
# Relative spreads against the golden files, measured over
# OPENBLAS_CORETYPE in {SkylakeX, Haswell, Sandybridge, Prescott} x
# OPENBLAS_NUM_THREADS in {1, 2} when the step was a complex LU solve
# (zgesv): odd-k abs_coeff 2.70e-14 (the 7.3e-18 tail entry on
# Sandybridge), u_prime_at_zero 0, B_eps_estimate 1.13e-15, residual
# 2.33e-5 (Prescott).  With the Cholesky step the same sweep gives
# 5.40e-14, 0, 1.13e-15 and 4.64e-5 (Prescott).  Each tolerance is 4
# times the first spread, the spread taken as at least one ulp (2**-52).
# Even-k coefficients vanish in exact arithmetic and must stay rounding
# noise: at most eps * max|u_k| on both sides.
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
        top_want, top_got = max(a for _, a in want), max(a for _, a in got)
        for (k, a_want), (_, a_got) in zip(want, got):
            if k % 2 and abs(a_got - a_want) > GP_RTOL["abs_coeff"] * a_want:
                problems.append(f"decay.csv: abs_coeff at k={k}: {a_got!r} vs {a_want!r}")
            if k % 2 == 0 and (a_got > EPS * top_got or a_want > EPS * top_want):
                problems.append(f"decay.csv: abs_coeff at even k={k} is not rounding noise")
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
# matches 60-digit eigenvalues, so it is compared exactly, as are the
# echoed N, j, N_ref and A_claim.  h1_dist comes from double eigenvectors
# and follows the BLAS kernel and the eigensolver.  Relative spreads
# against the golden files, measured over OPENBLAS_CORETYPE in {SkylakeX,
# Haswell, Sandybridge, Prescott} x OPENBLAS_NUM_THREADS in {1, 2} with
# the complex Hermitian eigensolver the golden files were made with:
# h1_dist 8.10e-12 (N = 4, Haswell), fitted_rate_eigenvector 5.92e-12
# (Haswell), fitted_rate_eigenvalue 1 ulp (Sandybridge, Prescott; the
# np.polyfit least squares).  Each tolerance is 4 times its spread.
EIG_RTOL = {"h1_dist": 4 * 8.10e-12, "fitted_rate_eigenvector": 4 * 5.92e-12}
EIG_RATE_ULPS = 4
EIG_EXACT_KEYS = ("j", "N_ref", "A_claim")


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
    rate, rate_want = got["fitted_rate_eigenvalue"], want["fitted_rate_eigenvalue"]
    if abs(rate - rate_want) > EIG_RATE_ULPS * math.ulp(rate_want):
        problems.append(f"convergence.json: fitted_rate_eigenvalue = {rate!r} "
                        f"vs {rate_want!r}")
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
                                "pole_estimate"}
    report = json.loads((out_dir / "report.json").read_text())
    assert 0 < diagnostics["ode_steps"] <= 100
    assert 0.0 < diagnostics["min_step"]
    assert report["Y_eps"] < diagnostics["pole_estimate"] < report["Y_eps"] + 1e-6
    # run records stay out of the byte-compared artifacts
    assert "pole_estimate" not in (out_dir / "report.json").read_text()
    _, gp_dir = run_cli(tmp_path, "gp-solve", CONFIGS["gp-solve"], subdir="gp")
    assert "diagnostics" not in json.loads((gp_dir / "manifest.json").read_text())


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


def test_numeric_failure_exits_3(tmp_path, capsys):
    cfg = {"potential": {"name": "constant", "value": 0.5},
           "source": {"name": "sine"}, "N_list": [4], "N_ref": 8}
    code, _ = run_cli(tmp_path, "linsolve", cfg)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numeric"
    assert err["type"] == "PreconditionError"


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
], ids=["k_path", "k_samples", "centers", "ragged-rows", "non-numeric-rows",
        "cubic-not-object", "negative-dimension", "negative-cutoff",
        "empty-k-samples", "series-lengths", "band-beyond-basis",
        "flat-k-path-2d", "flat-k-samples-2d"])
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
