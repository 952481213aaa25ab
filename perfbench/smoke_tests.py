"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/smoke_tests.py

The file name keeps these out of the repository's default test run:
each workload is run end to end, which takes about a minute.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def bench(*args, cwd=ROOT):
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def test_spec_names_the_metrics_the_run_emits():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_minimal_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(line["metrics"][name]["value"] > 0 for name in expected)


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.invocations(name, 7, 2) == workloads.invocations(name, 7, 2)
        assert workloads.invocations(name, 7, 2) != workloads.invocations(name, 8, 2)


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli-tiny", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- output checks catch perturbed artifacts -----------------------------------------


def _edit_json(path: Path, key: str, value) -> None:
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))


def _edit_csv(path: Path, column: str, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[-1][column] = repr(change(float(rows[-1][column])))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


PERTURBATIONS = {
    "linsolve": lambda out: _edit_csv(out / "linsolve.csv", "residual_l2",
                                      lambda r: 1e-6),
    "eig-convergence": lambda out: _edit_json(out / "convergence.json",
                                              "fitted_rate_eigenvalue", 0.5),
    "gp-solve": lambda out: _edit_json(out / "report.json", "residual", 1e-8),
    "strip-estimate": lambda out: _edit_json(
        out / "estimate.json", "half_width",
        json.loads((out / "estimate.json").read_text())["half_width"] * 1.001),
    "blowup": lambda out: _edit_json(out / "report.json", "lower_bound_verified",
                                     False),
    "bands": lambda out: _edit_csv(out / "bands.csv", "band2", lambda v: v + 1e-6),
    "bz-convergence": lambda out: _edit_csv(out / "bz.csv", "max_lambda_err",
                                            lambda v: -1e-6),
}


@pytest.mark.parametrize("experiment", sorted(PERTURBATIONS))
def test_perturbed_artifact_is_caught(tmp_path, experiment):
    from stripwave.cli import main
    rng = workloads.np.random.default_rng(5)
    cfg = dict(workloads._tiny_round(rng))[experiment]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert checks.check(experiment, cfg, out) == []
    PERTURBATIONS[experiment](out)
    assert checks.check(experiment, cfg, out) != []


def test_gaussian_bands_obey_the_weyl_bound(tmp_path):
    from stripwave.cli import main
    experiment, cfg = workloads.bloch_bands(workloads.np.random.default_rng(2))[0]
    cfg = {**cfg, "N": 4.0, "k_path": cfg["k_path"][:2]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert checks.check(experiment, cfg, out) == []
    _edit_csv(out / "bands.csv", "band1", lambda v: v - 50.0)
    assert checks.check(experiment, cfg, out) != []


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 51)]
    value, pct, beyond = run.tail(samples)
    assert sum(1 for s in samples if s > value) == beyond == run.TAIL_BEYOND
    assert pct == 80.0


def test_short_tail_is_the_upper_quartile_not_the_median():
    samples = [float(i) for i in range(1, 13)]
    assert run.tail(samples) == (9.0, 75.0, 3)
    assert run.tail([2.0]) == (2.0, 100.0, 0)
