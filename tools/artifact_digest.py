"""Print the SHA-256 of every artifact of the benchmark passes and golden configs.

    python3 tools/artifact_digest.py > digests.json

Runs, in this process and through `stripwave.cli.main`, passes 0-2 of the
four `perfbench/workloads.py` workloads at seeds 1 and 3, and the golden
configs of `tests/test_cli.py` (read from its `CONFIGS` literal, without
importing the tests), each invocation into its own temporary directory.
Prints one JSON object that maps `<workload>/seed<s>/pass<p>/<i>-<experiment>/<file>`
and `golden/<experiment>/<file>` to the hex digest of the file.  A
manifest is hashed without its `wall_time_s`, the one field that differs
between identical runs.  A claim that a change leaves every artifact's
bytes alone is then a `diff` of this output on the two trees.  The BLAS
kernel and thread count are whatever the environment sets; perfbench
measures on one thread (`OPENBLAS_NUM_THREADS=1`).
"""

from __future__ import annotations

import ast
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from stripwave.cli import main as cli_main  # noqa: E402
from workloads import WORKLOADS, invocations  # noqa: E402

SEEDS = (1, 3)
PASSES = (0, 1, 2)


def golden_configs() -> dict:
    """The CONFIGS literal of tests/test_cli.py, which made the goldens."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CONFIGS"]:
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_cli.py has no CONFIGS literal")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("wall_time_s")
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run(experiment: str, config: dict, name: str, scratch: Path, digests: dict) -> None:
    """One CLI invocation; its artifacts' digests under `name`."""
    out = scratch / name
    out.mkdir(parents=True)
    config_path = scratch / f"{name.replace('/', '_')}.json"
    config_path.write_text(json.dumps(config))
    code = cli_main([experiment, "--config", str(config_path), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{name}: exit {code}")
    for path in sorted(out.iterdir()):
        digests[f"{name}/{path.name}"] = digest(path)


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for workload in WORKLOADS:
            for seed in SEEDS:
                for index in PASSES:
                    for i, (experiment, config) in enumerate(
                            invocations(workload, seed, index)):
                        run(experiment, config,
                            f"{workload}/seed{seed}/pass{index}/{i}-{experiment}",
                            scratch, digests)
        for experiment, config in sorted(golden_configs().items()):
            run(experiment, config, f"golden/{experiment}", scratch, digests)
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
