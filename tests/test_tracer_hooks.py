"""The benchmark's layer tracer (perfbench/tracing.py) still fits the package.

`Tracer.install` looks up every module in its LAYERS and every method in
its COUNTED_METHODS before the first pass: a layer that `import
stripwave.cli` no longer loads, or a counted method that left its class,
ends a traced benchmark run before it measures anything, while untraced
runs pass.  So the tracer is installed here as a traced benchmark pass
installs it: in a fresh interpreter that has imported `stripwave.cli`
and nothing else of the package, then two tiny studies run through
`cli.main`.  The tracer file is imported by path and left as it is.

Run this file as a script, `python tests/test_tracer_hooks.py DIR`, for
that pass alone: it prints the exit codes and the pass's metrics as JSON.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_PI = 6.283185307179586
POISSON = {"name": "poisson-kernel", "c": 2.0, "mu": 1.0, "shift": 2.0, "cutoff": 30}
CONFIGS = {
    "eig-convergence": {"potential": POISSON, "N_list": [2, 3, 4], "N_ref": 8,
                        "j": 1, "A_claim": 1.0},
    "bz-convergence": {"lattice": {"rows": [[TWO_PI]]},
                       "potential": {"name": "embed-1d", "potential": POISSON},
                       "N_list": [3, 4, 5], "N_ref": 10, "n": 1, "A_claim": 1.0,
                       "k_samples": [0.0, 0.5]},
}


def traced_pass(work: Path) -> dict:
    """Install the tracer after `import stripwave.cli`, run both studies in
    `work`, uninstall; the exit codes and the metrics of the pass."""
    import stripwave.cli as cli

    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = {}
        for experiment, config in CONFIGS.items():
            path = work / f"{experiment}.json"
            path.write_text(json.dumps(config))
            codes[experiment] = cli.main([experiment, "--config", str(path),
                                          "--out", str(work / experiment)])
    finally:
        tracer.uninstall()
    return {"codes": codes, "metrics": tracer.pass_metrics(tracer.pass_index)}


def test_tracer_installs_on_what_the_cli_loads(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == {experiment: 0 for experiment in CONFIGS}
    metrics = result["metrics"]
    # one span per study, each seen through the copy that cli bound with
    # `from .eigen import`
    assert metrics["eigen.convergence_study.calls"] == 1
    assert metrics["eigen.bz_convergence.calls"] == 1


if __name__ == "__main__":
    print(json.dumps(traced_pass(Path(sys.argv[1]))))
