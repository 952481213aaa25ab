#!/usr/bin/env python3
"""Benchmark of the stripwave experiments: per-study time to solution.

Run from the repository root:

    python3 perfbench/run.py --workload spectral-1d --seed 1 --seconds 15 --trace 0

One process runs the workload's CLI invocations in-process on one BLAS
thread, pass after pass, for --seconds of pass time, and checks every
output.  Set-up (a fresh-process import of stripwave.cli plus the
first-BLAS-call warm-up) is measured in fresh subprocesses, spread
between the passes.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 the run also makes traced passes and
a pass on nproc BLAS threads and reports the per-layer metrics instead.
The full record, with the environment block, goes to
.perfbench/BENCH_<workload>_seed<seed>_trace<trace>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

SETUP_PROBES = 9        # fresh processes per run; set-up reports their median
TAIL_BEYOND = 10        # samples a resolved tail percentile leaves beyond it
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Measured runs use one BLAS thread.  On a 2-vCPU VM with one vCPU held by
# another process, two BLAS threads made spectral-1d passes 2.5 times and
# cli-tiny passes 1.5 times slower, while one thread lost under 5%: a
# gate on two threads would measure the neighbours, not the code.  The
# nproc-thread figure is the per-layer metric blas_nproc.pass_s.
MEASURED_THREADS = 1
EXPERIMENTS = ("linsolve", "eig-convergence", "gp-solve", "strip-estimate",
               "blowup", "bands", "bz-convergence")

END_TO_END = {
    "setup_s": "s",
    "pass_s.p50": "s",
    "pass_s.tail": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics: "<module>.<function>.{calls,s,self_s}" come from the
# spans, the rest from counters and the untraced, set-up and nproc-thread
# measurements of the same run.
PER_LAYER = {
    "bloch.assemble_bloch.calls": "count",
    "bloch.assemble_bloch.s": "s",
    "bloch.FourierSeriesD.coefficient.calls": "count",
    "bloch.band_structure.self_s": "s",
    "bloch.bz_convergence.self_s": "s",
    "bloch.basis_set.s": "s",
    "bloch.gaussian_potential.s": "s",
    "bloch.fiber.order_max": "count",
    "bloch.fiber.bands_used_ratio": "ratio",
    "bloch.dense.order3_sum": "count",
    "galerkin.assemble_dense.calls": "count",
    "galerkin.assemble_dense.s": "s",
    "eigen.solve_eig.calls": "count",
    "eigen.solve_eig.s": "s",
    "eigen.solve_eig.self_s": "s",
    "eigen.solve_eig.pairs_used_ratio": "ratio",
    "eigen.h1_distance.s": "s",
    "eigen.fit_log_rate.s": "s",
    "eigen.dense.order3_sum": "count",
    "linear.solve_linear.calls": "count",
    "linear.solve_linear.s": "s",
    "linear.solve_linear.self_s": "s",
    "linear.refinement_study.s": "s",
    "fourier.multiply.calls": "count",
    "fourier.multiply.s": "s",
    "fourier.estimate_strip.s": "s",
    "cubic.cardano_root.s": "s",
    "cubic.solve_gp.s": "s",
    "cubic.solve_gp.self_s": "s",
    "cubic.solve_gp.newton_iters": "count",
    "blowup.integrate_psi.calls": "count",
    "blowup.integrate_psi.s": "s",
    "blowup.integrate_psi.steps": "count",
    "blowup.integrate_psi.calls_per_blowup": "ratio",
    "blowup.locate_crossings.s": "s",
    "blowup.verify_lower_bound.s": "s",
    "potentials.poisson_kernel.s": "s",
    "cli.build_potential_1d.s": "s",
    "io.write.s": "s",
    "setup.import_s": "s",
    "setup.import.scipy_integrate_s": "s",
    "setup.warmup_s": "s",
    "blas1.pass_s": "s",
    "blas_nproc.pass_s": "s",
    "trace.overhead_s": "s",
    "failed_fraction": "ratio",
    **{f"exp.{name}.p50_s": "s" for name in EXPERIMENTS},
}

PROBE = """\
import json, time
t0 = time.perf_counter()
import stripwave.cli
t1 = time.perf_counter()
from warmup import warm_up
warm_up()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))
"""


def thread_env(threads: int) -> dict[str, str]:
    return {var: str(threads) for var in THREAD_VARS}


def child_env(**overrides: str) -> dict[str, str]:
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


# -- set-up --------------------------------------------------------------------


def probe_setup() -> dict[str, float]:
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SetupProbes:
    """SETUP_PROBES set-up probes spread evenly over `seconds` of pass
    time, one between passes when due, so that machine drift reaches them
    as it reaches the passes."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.results: list[dict[str, float]] = []

    def between_passes(self, spent: float) -> None:
        # probe k is due once `spent` reaches k / SETUP_PROBES of the run
        while (len(self.results) < SETUP_PROBES
               and spent >= len(self.results) * self.seconds / SETUP_PROBES):
            self.results.append(probe_setup())

    def finish(self) -> list[dict[str, float]]:
        while len(self.results) < SETUP_PROBES:
            self.results.append(probe_setup())
        return self.results


def probe_scipy_integrate_import() -> float:
    """Cumulative import time of scipy.integrate under -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import stripwave.cli"], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "scipy.integrate":
            return int(fields[1]) * 1e-6
    return 0.0  # not imported at all


# -- passes ----------------------------------------------------------------------


class Runner:
    """Runs and checks the passes of one workload in this process."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        # imported here: they load numpy, which must see the thread caps first
        from checks import check
        from workloads import invocations
        self.cli = cli
        self.check = check
        self.invocations = invocations
        self.workload = workload
        self.seed = seed
        self.work = work
        self.records: list[dict] = []  # one per invocation, in order

    def run_pass(self, index: int, tracer=None) -> float:
        """Run pass `index`; return the summed wall time of its invocations."""
        total = 0.0
        for j, (experiment, cfg) in enumerate(
                self.invocations(self.workload, self.seed, index)):
            slot = self.work / f"{j}-{experiment}"
            out = slot / "out"
            shutil.rmtree(out, ignore_errors=True)
            slot.mkdir(parents=True, exist_ok=True)
            cfg_path = slot / "config.json"
            cfg_path.write_text(json.dumps(cfg))
            argv = [experiment, "--config", str(cfg_path), "--out", str(out)]
            span = tracer.span(f"exp.{experiment}") if tracer else contextlib.nullcontext()
            started = time.perf_counter()
            try:
                with span:
                    code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed invocation, not the end
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            total += elapsed
            problems = self.check(experiment, cfg, out) if code == 0 \
                else [f"exit status {code}"]
            self.records.append({"pass": index, "experiment": experiment,
                                 "seconds": elapsed, "traced": tracer is not None,
                                 "problems": problems})
        return total

    def run_for(self, seconds: float, first_index: int, tracer=None,
                probes: SetupProbes | None = None) -> list[float]:
        """Passes until `seconds` of pass time (checks included) have
        elapsed, at least one; set-up probes run between them, untimed."""
        times = []
        spent = 0.0
        index = first_index
        while True:
            if tracer is not None:
                tracer.pass_index = index
            started = time.perf_counter()
            times.append(self.run_pass(index, tracer))
            spent += time.perf_counter() - started
            index += 1
            if probes is not None:
                probes.between_passes(spent)
            if spent >= seconds:
                return times

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])

    def experiment_p50(self, passes: range) -> dict[str, float]:
        """Median seconds per experiment over untraced invocations of those passes."""
        out = {}
        for name in EXPERIMENTS:
            samples = [r["seconds"] for r in self.records
                       if r["experiment"] == name and r["pass"] in passes
                       and not r["traced"]]
            out[f"exp.{name}.p50_s"] = statistics.median(samples) if samples else 0.0
        return out


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    at least min(TAIL_BEYOND, n // 4) samples beyond it.  The tail is
    resolved only when TAIL_BEYOND samples lie beyond it (n >= 40);
    below that it is the upper quartile or higher, never the median."""
    n = len(samples)
    beyond = min(TAIL_BEYOND, n // 4)
    rank = n - beyond  # 1-based order statistic
    return sorted(samples)[rank - 1], 100.0 * rank / n, beyond


# -- environment -------------------------------------------------------------------


def _openblas_runtime() -> list[dict]:
    """Core type and thread count each bundled OpenBLAS chose at run time."""
    import ctypes
    import glob
    import numpy
    import scipy
    found = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            entry = {"library": Path(path).name}
            for key, names, restype in (
                    ("corename", ("scipy_openblas_get_corename64_",
                                  "scipy_openblas_get_corename",
                                  "openblas_get_corename"), ctypes.c_char_p),
                    ("threads", ("scipy_openblas_get_num_threads64_",
                                 "scipy_openblas_get_num_threads",
                                 "openblas_get_num_threads"), ctypes.c_int)):
                for name in names:
                    fn = getattr(lib, name, None)
                    if fn is not None:
                        fn.argtypes = []
                        fn.restype = restype
                        value = fn()
                        entry[key] = value.decode() if isinstance(value, bytes) else value
                        break
            found.append(entry)
    return found


def _git_commit() -> dict | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout carries no history
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, check=True, capture_output=True,
                               text=True).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"commit": head, "dirty": dirty}


def environment() -> dict:
    import numpy
    import scipy
    build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": build.get("name"), "version": build.get("version"),
                 "configuration": build.get("openblas configuration"),
                 "runtime": _openblas_runtime(),
                 "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git": _git_commit(),
    }


# -- modes ---------------------------------------------------------------------------


def import_cli():
    sys.path.insert(0, str(SRC))
    import stripwave.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"stripwave imported from {cli.__file__}, not from {SRC}")
    from warmup import warm_up
    warm_up()
    return cli


def child_pass(args, work: Path) -> dict:
    """Child mode: one warm-up pass, then one traced pass."""
    from tracing import Tracer
    runner = Runner(import_cli(), args.workload, args.seed, work)
    runner.run_pass(0)
    tracer = Tracer()
    tracer.pass_index = 1
    tracer.install()
    try:
        seconds = runner.run_pass(1, tracer)
    finally:
        tracer.uninstall()
    return {"pass_s": seconds, "attempted": len(runner.records), "failed": runner.failed}


def run_nproc_child(args) -> dict:
    """One traced pass in a child process on nproc BLAS threads."""
    nproc = len(os.sched_getaffinity(0))
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                           args.workload, "--seed", str(args.seed), "--child-pass"],
                          cwd=ROOT, env=child_env(**thread_env(nproc)),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_end_to_end(args, runner: Runner, record: dict) -> dict:
    probes = SetupProbes(args.seconds)
    times = runner.run_for(args.seconds, 1, probes=probes)
    setup = record["setup"] = probes.finish()
    tail_s, tail_pct, beyond = tail(times)
    record.update(pass_s=times, tail_percentile=tail_pct, tail_beyond=beyond,
                  tail_resolved=beyond >= TAIL_BEYOND,
                  experiments=runner.experiment_p50(range(1, 1 + len(times))))
    return {
        "setup_s": statistics.median(p["import_s"] + p["warmup_s"] for p in setup),
        "pass_s.p50": statistics.median(times),
        "pass_s.tail": tail_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_layers(args, runner: Runner, record: dict) -> dict:
    """Untraced passes with the set-up probes between them, then traced
    passes, for half the time each; then the nproc-thread pass.  Layer
    figures are medians over traced passes."""
    from tracing import Tracer, derived_metrics
    probes = SetupProbes(args.seconds / 2.0)
    plain = runner.run_for(args.seconds / 2.0, 1, probes=probes)
    setup = record["setup"] = probes.finish()
    first_traced = 1 + len(plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_for(args.seconds / 2.0, first_traced, tracer)
    finally:
        tracer.uninstall()
    nproc_pass = run_nproc_child(args)
    per_pass = []
    for index in range(first_traced, first_traced + len(traced)):
        raw = tracer.pass_metrics(index)
        per_pass.append({**raw, **derived_metrics(raw)})
    metrics = {name: statistics.median(p.get(name, 0.0) for p in per_pass)
               for name in PER_LAYER}
    metrics.update(runner.experiment_p50(range(1, first_traced)))
    metrics.update({
        "setup.import_s": statistics.median(p["import_s"] for p in setup),
        "setup.warmup_s": statistics.median(p["warmup_s"] for p in setup),
        "setup.import.scipy_integrate_s": probe_scipy_integrate_import(),
        "blas1.pass_s": statistics.median(traced),
        "blas_nproc.pass_s": nproc_pass["pass_s"],
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    })
    spans_path = WORK_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl"
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    record.update(pass_s=plain, traced_pass_s=traced, nproc_pass=nproc_pass,
                  per_pass_layers=per_pass, spans_file=spans_path.name)
    return metrics


def benchmark(args, work: Path) -> tuple[dict, dict]:
    """Measure one run; return (result line, full record)."""
    runner = Runner(import_cli(), args.workload, args.seed, work)
    runner.run_pass(0)  # lazy set-up and caches settle outside the timing
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    measure = measure_layers if args.trace else measure_end_to_end
    metrics = measure(args, runner, record)

    child = record.get("nproc_pass", {"attempted": 0, "failed": 0})
    attempted = len(runner.records) + child["attempted"]
    failed = runner.failed + child["failed"]
    record.update(invocations=runner.records, failed_fraction=failed / attempted)
    metrics["failed_fraction"] = failed / attempted
    units = PER_LAYER if args.trace else END_TO_END
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()}}
    return line, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-pass", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stripwave" / "__init__.py").is_file():
        print(f"perfbench: no stripwave sources under {SRC}", file=sys.stderr)
        return 2
    if not args.child_pass:
        os.environ.update(thread_env(MEASURED_THREADS))  # before numpy loads BLAS
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"tmp-{os.getpid()}"
    try:
        if args.child_pass:
            print(json.dumps(child_pass(args, work)))
            return 0
        line, record = benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["environment"] = environment()
    record["result"] = line
    result_path = WORK_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    if not args.trace:
        resolved = "" if record["tail_resolved"] else " (unresolved)"
        print(f"perfbench: {args.workload}: {len(record['pass_s'])} passes, "
              f"tail = p{record['tail_percentile']:.1f} with "
              f"{record['tail_beyond']} beyond{resolved}", file=sys.stderr)
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
