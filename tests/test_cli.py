"""CLI driver tests: exit codes, manifests, determinism and golden files."""

import json
import os
from pathlib import Path

import pytest

from stripwave.cli import main

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
def test_identical_config_identical_bytes(tmp_path, experiment):
    _, first = run_cli(tmp_path, experiment, CONFIGS[experiment], subdir="a")
    _, second = run_cli(tmp_path, experiment, CONFIGS[experiment], subdir="b")
    names = artifact_names(first)
    assert names == artifact_names(second)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_matches_golden_files(tmp_path, experiment):
    golden_dir = GOLDEN_ROOT / experiment
    assert golden_dir.is_dir(), f"golden files missing for {experiment}"
    _, out_dir = run_cli(tmp_path, experiment, CONFIGS[experiment])
    for golden in sorted(golden_dir.iterdir()):
        produced = out_dir / golden.name
        assert produced.exists(), golden.name
        assert produced.read_bytes() == golden.read_bytes(), golden.name


def test_blowup_report_content(tmp_path):
    _, out_dir = run_cli(tmp_path, "blowup", CONFIGS["blowup"])
    report = json.loads((out_dir / "report.json").read_text())
    assert report["lower_bound_verified"] is True
    assert report["Y_eps"] <= report["Y_eps_eta"]


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
], ids=["k_path", "k_samples", "centers"])
def test_ragged_point_list_exits_2(tmp_path, capsys, experiment, config, location):
    code, _ = run_cli(tmp_path, experiment, config)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["location"] == location
