"""Layer spans recorded from outside the library, by wrapping its functions.

``from .x import f`` copies the name ``f`` into the importing module, so a
function is reachable under several bindings (``risbeam.design``,
``risbeam.cli``, the package namespace).  :meth:`Tracer.install` replaces
every binding that refers to a traced function, in every loaded
``risbeam`` module, and :meth:`Tracer.uninstall` puts the originals back.

Spans are kept in memory as (parent, key, start, end).  A key's busy time
is the sum of its spans' self time: the span minus the part its child
spans cover.  Spans of one key nested inside each other therefore add up
to the outermost one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# (defining module, function name) -> span key.  Each module of
# src/risbeam/ is one layer; the key's prefix names it.
SPANS = {
    ("scenario", "load_scenario"): "scenario.load_s",
    ("geometry", "cover_set"): "geometry.cover_s",
    ("scenario", "resolve_eta"): "design.eta_s",
    ("design", "centered_eta"): "design.eta_s",
    ("design", "select_eta"): "design.eta_s",
    ("design", "eta_objective"): "design.eta_s",
    ("design", "design_closed_form"): "design.closed_form_s",
    ("design", "closed_form_vector"): "design.closed_form_s",
    ("design", "design_finite_l"): "design.finite_l_s",
    ("design", "dd_h_deviation"): "design.dd_h_s",
    ("ris", "ris_from_beamformer"): "ris.map_s",
    ("ris", "unit_modulus_project"): "ris.map_s",
    ("ris", "effective_weight_vector"): "ris.map_s",
    ("ris", "reflection_coefficient"): "ris.link_s",
    ("ris", "cascaded_channel"): "ris.link_s",
    ("ris", "received_snr"): "ris.link_s",
    ("arrays", "sample_gains"): "arrays.sample_s",
    ("metrics", "report"): "metrics.report_s",
    ("metrics", "report_from_pattern"): "metrics.report_s",
    ("metrics", "connected_components_above"): "metrics.components_s",
    ("metrics", "cut"): "metrics.cut_s",
    ("svgplot", "heatmap_svg"): "svgplot.heatmap_s",
    ("cli", "pattern_csv_text"): "cli.pattern_csv_s",
    ("cli", "main"): "cli.self_s",
}

# Functions that only count: their time stays with the calling span.
COUNTERS = {("cli", "_write_text")}

LAYERS = ("scenario", "geometry", "design", "ris", "arrays", "metrics",
          "svgplot", "cli")

# Per-layer metrics in report order, with units.
METRICS = (
    [(key, "s") for key in dict.fromkeys(SPANS.values())]
    + [("design.eta_total_s", "s"),
       ("geometry.cover_cells", "count"), ("design.eta_candidates", "count"),
       ("design.cells", "count"), ("design.dd_h_peak_mb", "MB"),
       ("arrays.samples", "count"), ("arrays.samples_per_s", "1/s"),
       ("metrics.cut_samples", "count"), ("metrics.cut_samples_per_s", "1/s"),
       ("svgplot.bytes", "count"), ("cli.bytes_written", "count"),
       ("cli.files_written", "count")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.overhead_frac", "ratio")]
)


def _count(tracer, name: str, args, result):
    """Work counts taken at the span boundary, from arguments and results."""
    c = tracer.counts
    if name == "cover_set":
        c["geometry.cover_cells"] += result.size
    elif name in ("design_closed_form", "design_finite_l"):
        c["design.cells"] += result.cover.size
    elif name == "sample_gains":
        c["arrays.samples"] += len(args[1]) * len(args[2])
    elif name == "cut":
        c["metrics.cut_samples"] += result.angles.size
    elif name == "heatmap_svg":
        c["svgplot.bytes"] += len(result)      # the SVG text is ASCII
    elif name == "_write_text":
        c["cli.bytes_written"] += len(args[1])
        c["cli.files_written"] += 1


class Tracer:
    """In-memory span recorder for one process; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.errors = defaultdict(int)
        self._stack = []
        self._patched = []

    def _span(self, fn, name: str, key: str):
        tracer = self
        layer = key.split(".")[0]
        measure_memory = name == "dd_h_deviation"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    tracer.counts["design.dd_h_peak_mb"] = max(
                        tracer.counts["design.dd_h_peak_mb"], peak)
                tracer._stack.pop()
                tracer.spans[index] = (parent, key, start, end)
            _count(tracer, name, args, result)
            return result
        return wrapper

    def _counter(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            _count(tracer, name, args, result)
            return result
        return wrapper

    def install(self):
        """Wrap every binding of every traced function in loaded risbeam modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "risbeam" or n.startswith("risbeam.")]
        wrappers = {}
        for (module, name), key in SPANS.items():
            fn = getattr(sys.modules[f"risbeam.{module}"], name)
            wrappers[id(fn)] = (fn, self._span(fn, name, key))
        for module, name in COUNTERS:
            fn = getattr(sys.modules[f"risbeam.{module}"], name)
            wrappers[id(fn)] = (fn, self._counter(fn, name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        own = [end - start for _, _, start, end in self.spans]
        for parent, _, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, overhead_frac: float) -> dict:
        """Per-layer metrics: busy seconds, counts, rates, errors, overhead."""
        values = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            values[span[1]] += own
        values.update(self.counts)
        for parent, key, start, end in self.spans:
            if key not in ("design.eta_s", "design.closed_form_s"):
                continue
            ancestors = self._ancestor_keys(parent)
            if key == "design.eta_s" and "design.eta_s" not in ancestors:
                values["design.eta_total_s"] += end - start
            if key == "design.closed_form_s" and "design.eta_s" in ancestors \
                    and "design.closed_form_s" not in ancestors:
                values["design.eta_candidates"] += 1
        for layer in LAYERS:
            values[f"{layer}.errors"] = self.errors[layer]
        if values["arrays.sample_s"] > 0:
            values["arrays.samples_per_s"] = values["arrays.samples"] / values["arrays.sample_s"]
        if values["metrics.cut_s"] > 0:
            values["metrics.cut_samples_per_s"] = \
                values["metrics.cut_samples"] / values["metrics.cut_s"]
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}

    def _ancestor_keys(self, index: int) -> set:
        keys = set()
        while index >= 0:
            parent, key, _, _ = self.spans[index]
            keys.add(key)
            index = parent
        return keys

    def write_spans(self, path):
        """One JSON object per span: id, parent, key, start, end, self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((parent, key, start, end), own) in enumerate(
                    zip(self.spans, self.self_times())):
                fh.write(json.dumps({"id": i, "parent": parent, "key": key,
                                     "start": start, "end": end, "self": own}) + "\n")
