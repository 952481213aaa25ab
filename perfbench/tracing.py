"""Layer spans recorded from outside the program.

`Tracer.install` wraps every public module-level function of the
stripwave layer modules and replaces it wherever the package bound it,
including the copies that `cli` and sibling modules took with
`from ... import`, so calls made inside the package are recorded too.
Spans stay in memory; `Tracer.pass_metrics` folds them into per-pass
totals, and the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("fourier", "galerkin", "linear", "eigen", "cubic", "blowup",
          "bloch", "potentials", "cli")

# Methods too hot for a span: only their calls are counted.
COUNTED_METHODS = (("bloch", "FourierSeriesD", "coefficient"),)

# Spans whose call arguments later observers read from the active stack.
CONTEXT_SPANS = ("bloch.band_structure", "bloch.bz_convergence")


class Tracer:
    """Spans and counters of one benchmark run, grouped by pass index."""

    def __init__(self):
        # [pass, parent span index or None, name, start, end]
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.pass_index = 0
        self._stack: list[tuple[int, dict | None]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._signatures: dict[str, inspect.Signature] = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, context: dict | None = None) -> int:
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append([self.pass_index, parent, name, time.perf_counter(), None])
        self._stack.append((index, context))
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def active(self, name: str) -> dict | None:
        """Bound arguments of the innermost active span of that name."""
        for index, context in reversed(self._stack):
            if self.spans[index][2] == name:
                return context if context is not None else {}
        return None

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[self.pass_index][key] += amount

    def maximum(self, key: str, value: float) -> None:
        table = self.counters[self.pass_index]
        table[key] = max(table[key], value)

    # -- wrapping ------------------------------------------------------------

    def _arguments(self, name, fn, args, kwargs) -> dict:
        sig = self._signatures.get(name)
        if sig is None:
            sig = self._signatures[name] = inspect.signature(fn)
        return sig.bind(*args, **kwargs).arguments

    def _wrap(self, name: str, fn):
        observer = OBSERVERS.get(name)
        keeps_context = name in CONTEXT_SPANS
        tracer = self

        def traced(*args, **kwargs):
            context = None
            if keeps_context or observer is not None:
                context = tracer._arguments(name, fn, args, kwargs)
            index = tracer._open(name, context if keeps_context else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if observer is not None:
                observer(tracer, context, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_calls(self, key: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counters[tracer.pass_index][key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"stripwave.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    replacements[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for name, module in list(sys.modules.items()):
            if name != "stripwave" and not name.startswith("stripwave."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for layer, cls_name, method in COUNTED_METHODS:
            cls = getattr(sys.modules[f"stripwave.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method,
                    self._count_calls(f"{layer}.{cls_name}.{method}.calls", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation ---------------------------------------------------------

    def pass_metrics(self, pass_index: int) -> dict[str, float]:
        """Per-function calls, total and self seconds, plus the counters."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[0] == pass_index]
        child_time = defaultdict(float)
        for _, (_, parent, _, start, end) in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (_, _, name, start, end) in spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
            if name.rsplit(".", 1)[-1].startswith("write_"):
                out["io.write.s"] += end - start
        out.update(self.counters[pass_index])
        return out


# -- observers: counts read from arguments and results -------------------------


def _observe_solve_eig(tracer: Tracer, args: dict, result) -> None:
    order = 2 * int(args["cutoff"]) + 1
    tracer.count("eigen.dense.order3_sum", float(order) ** 3)
    tracer.count("eigen.solve_eig.order_sum", order)
    tracer.count("eigen.solve_eig.pairs_sum", int(args["n_pairs"]))


def _observe_assemble_bloch(tracer: Tracer, args: dict, result) -> None:
    order = int(result.shape[0])
    tracer.count("bloch.dense.order3_sum", float(order) ** 3)
    tracer.count("bloch.fiber.order_sum", order)
    tracer.maximum("bloch.fiber.order_max", order)
    bands = tracer.active("bloch.band_structure")
    if bands is not None:
        tracer.count("bloch.fiber.bands_sum", int(bands["n_bands"]))
        return
    bz = tracer.active("bloch.bz_convergence")
    if bz is not None:
        tracer.count("bloch.fiber.bands_sum", int(bz["band"]))


def _observe_solve_gp(tracer: Tracer, args: dict, result) -> None:
    tracer.count("cubic.solve_gp.newton_iters_sum", int(result.newton_iters))


def _observe_integrate_psi(tracer: Tracer, args: dict, result) -> None:
    tracer.count("blowup.integrate_psi.steps_sum", len(result.nodes))
    if tracer.active("exp.blowup") is not None:
        tracer.count("blowup.integrate_psi.calls_in_blowup")


OBSERVERS = {
    "eigen.solve_eig": _observe_solve_eig,
    "bloch.assemble_bloch": _observe_assemble_bloch,
    "cubic.solve_gp": _observe_solve_gp,
    "blowup.integrate_psi": _observe_integrate_psi,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derived_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Ratios and per-call means computed from one pass's raw totals."""
    def get(key: str) -> float:
        return raw.get(key, 0.0)

    return {
        "bloch.fiber.bands_used_ratio": _ratio(get("bloch.fiber.bands_sum"),
                                               get("bloch.fiber.order_sum")),
        "eigen.solve_eig.pairs_used_ratio": _ratio(get("eigen.solve_eig.pairs_sum"),
                                                   get("eigen.solve_eig.order_sum")),
        "cubic.solve_gp.newton_iters": _ratio(get("cubic.solve_gp.newton_iters_sum"),
                                              get("cubic.solve_gp.calls")),
        "blowup.integrate_psi.steps": _ratio(get("blowup.integrate_psi.steps_sum"),
                                             get("blowup.integrate_psi.calls")),
        "blowup.integrate_psi.calls_per_blowup": _ratio(
            get("blowup.integrate_psi.calls_in_blowup"), get("exp.blowup.calls")),
    }
