"""Per-layer spans around jsdmsim's public functions, installed from outside.

Each traced function is replaced by a wrapper under every name a jsdmsim
module looks it up by: several modules import functions by name (``metrics``
imports ``build_covariances`` and ``compute_geb``, ``runner`` imports
``build_beamformer`` and ``beampattern``, ``linksim`` imports
``zf_combiners`` and ``sample_channels``), so patching only the defining
module would miss their calls.  A wrapper records one span (name, start,
end, parent span) in memory; ``summary`` folds the spans into per-function
call counts, total time and self time.  The sweep runs on one thread, so
spans nest strictly and a stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Metric prefix "<layer>.<function>": the layer names the module whose
# namespace holds the function (channel.psd_sqrt is defined in linalg and
# called through channel's sqrt-factor cache).
TRACED = {
    "config": ("load_config",),
    "channel": ("build_covariances", "ccm_one_ring", "sample_channels", "psd_sqrt"),
    "statistics": ("group_statistics", "reduce", "expected_sinr"),
    "geb": ("compute_geb",),
    "constrained": ("phase_extraction", "dft_beamformer", "pe_am", "fixed_subarray",
                    "dynamic_connection", "dynamic_subarray"),
    "digital": ("effective_channel", "zf_combiners", "lmmse_combiners"),
    "linksim": ("ergodic_capacity", "bussgang_report"),
    "chanest": ("effective_covariance", "lmmse_estimator", "nmse"),
    "metrics": ("phi_sweep", "build_beamformer", "beampattern"),
    "runner": ("run",),
}


def _am_iterations(args, kwargs, result):
    return result[1].iterations


# Work counters read off a traced call: counter name -> (span name, count(args, kwargs, result)).
# dynamic_subarray's trace is its inner fixed_subarray's, so it is not counted again.
COUNTERS = {
    "constrained.am_iterations": (
        ("constrained.pe_am", _am_iterations),
        ("constrained.fixed_subarray", _am_iterations),
        ("constrained.dynamic_connection", _am_iterations),
    ),
    "digital.bins": (
        ("digital.zf_combiners", lambda a, k, r: r.n_bins),
        ("digital.lmmse_combiners", lambda a, k, r: r.n_bins),
    ),
    "linksim.trials": (
        ("linksim.ergodic_capacity", lambda a, k, r: len(r.samples)),
    ),
}


class Tracer:
    """Span recorder; ``install`` must run after jsdmsim is imported."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []   # name, start, end, parent index
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        self._hooks: dict[str, list] = {}
        for counter, sources in COUNTERS.items():
            for span_name, count in sources:
                self._hooks.setdefault(span_name, []).append((counter, count))

    def _wrap(self, name: str, func):
        spans, stack, hooks, counters = self.spans, self._stack, self._hooks.get(name, ()), \
            self.counters
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            for counter, count in hooks:
                counters[counter] += count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"jsdmsim.{layer}") for layer in TRACED}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "jsdmsim" or key.startswith("jsdmsim.")]
        for layer, names in TRACED.items():
            home = homes[layer]
            for func_name in names:
                original = getattr(home, func_name)
                wrapper = self._wrap(f"{layer}.{func_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    @staticmethod
    def span_cost() -> float:
        """Seconds one wrapper adds to a call, measured on a no-op function."""
        calls = 20000

        def noop():
            return None

        wrapped = Tracer()._wrap("probe", noop)
        clock = time.perf_counter
        start = clock()
        for _ in range(calls):
            noop()
        middle = clock()
        for _ in range(calls):
            wrapped()
        end = clock()
        return max(0.0, ((end - middle) - (middle - start)) / calls)

    def summary(self) -> dict:
        """Per-span calls, total and self seconds, the counters and the tracing overhead.

        Self time is a span's duration minus the durations of its direct
        children; ``<layer>.s`` sums the spans of a layer not called from the
        same layer; ``trace.overhead_s`` is the number of spans times the
        measured cost of one wrapper.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {f"{layer}.{f}.{kind}": 0 if kind == "calls" else 0.0
                                 for layer, names in TRACED.items()
                                 for f in names for kind in ("calls", "s", "self_s")}
        out.update({f"{layer}.s": 0.0 for layer in TRACED})
        for (name, start, end, parent), children in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - children
            layer = name.split(".", 1)[0]
            if parent < 0 or not self.spans[parent][0].startswith(layer + "."):
                out[f"{layer}.s"] += end - start
        out.update(self.counters)
        out["trace.overhead_s"] = len(self.spans) * self.span_cost()
        return out
