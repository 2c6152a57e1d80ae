"""Span tracing of mtsgen's layers, installed from outside the package.

`Tracer.install` wraps every function named in a layer module's `__all__`
(or, for a module without one, every public function it defines) in each
mtsgen namespace that binds it, plus the `sample` and `sample_components`
methods of each dependence model class.  Each call records a span: name,
layer, start, end, parent span and run id.  Spans stay in memory until the
run ends.  A name a later version no longer defines or calls simply records
no spans, so its metrics read zero.

A span's layer is the module that defines the function, with the overrides
in LAYER_BY_BINDING.  Self time is a span's duration minus the durations of
its child spans; everything runs in one thread, so children never overlap
and the layers' self times partition the time spent inside root spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc

LAYERS = ("margins", "pca", "dependence", "gmmn", "forecast", "assess",
          "bootstrap", "pipeline", "serialize", "cli")

# Public functions outside any `__all__` that a per-layer metric needs.
EXTRA_FUNCTIONS = {"pipeline": ("rolling_forecasts",)}

# assess scores every dependence model with gmmn's MMD statistic.  Calls made
# through assess's binding are assessment work, so gmmn.calls counts only
# GMMN training and sampling.
LAYER_BY_BINDING = {("assess", "mmd"): "assess"}

SAMPLE_METHODS = ("sample", "sample_components")


def _rows(result) -> int:
    return len(result[0] if isinstance(result, tuple) else result)


# Sizes recorded on a span, read from the call's result so that they do not
# depend on the argument order.  Sample methods record the rows drawn.
SIZE_OF = {
    "margins.arma_garch_filter": lambda result: len(result.z_t),
    "pca.select_k": int,
}

# tracemalloc runs only inside these spans; the span's size is the peak bytes.
MEASURE_MEMORY = {"assess.avs"}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER_METRICS = [
    *[(f"{layer}.{what}", unit, "lower") for layer in LAYERS
      for what, unit in (("calls", "count"), ("self_s", "s"), ("failed", "count"))],
    ("margins.fit_ms", "ms", "lower"),
    ("margins.filter_ms", "ms", "lower"),
    ("margins.filter_steps", "count", "lower"),
    ("margins.filter_useful_ratio", "1", "higher"),
    ("margins.quantile_ms", "ms", "lower"),
    ("pca.fit_ms", "ms", "lower"),
    ("pca.k", "count", "lower"),
    ("dependence.sample_ms", "ms", "lower"),
    ("dependence.draws", "count", "lower"),
    ("gmmn.step_ms", "ms", "lower"),
    ("gmmn.adam_ms", "ms", "lower"),
    ("gmmn.steps", "count", "lower"),
    ("gmmn.train_s", "s", "lower"),
    ("gmmn.sample_ms", "ms", "lower"),
    ("forecast.origin_ms_p50", "ms", "lower"),
    ("forecast.origin_ms_p95", "ms", "lower"),
    ("forecast.rolling_s", "s", "lower"),
    ("assess.ammd_s", "s", "lower"),
    ("assess.mmd_ms", "ms", "lower"),
    ("assess.mmd_calls", "count", "lower"),
    ("assess.avs_s", "s", "lower"),
    ("assess.avs_peak_mb", "MB", "lower"),
    ("bootstrap.fit_s", "s", "lower"),
    ("bootstrap.sample_ms", "ms", "lower"),
    ("serialize.save_ms", "ms", "lower"),
    ("serialize.load_ms", "ms", "lower"),
    ("serialize.file_kb", "KB", "lower"),
    ("pipeline.load_dataset_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "run_id", "failed", "size")

    def __init__(self, name, layer, parent, run_id):
        self.name, self.layer, self.parent, self.run_id = name, layer, parent, run_id
        self.start = self.end = 0.0
        self.failed = False
        self.size = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _public_functions(module, layer):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in (*names, *EXTRA_FUNCTIONS.get(layer, ())):
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


class Tracer:
    """Records spans around mtsgen's layer functions while installed."""

    def __init__(self, run_id: str):
        self.spans: list[Span] = []
        self.run_id = run_id
        self._open: list[int] = []
        self._patched: list = []

    def _call(self, name, layer, size_of, fn, args, kwargs):
        span = Span(name, layer, self._open[-1] if self._open else -1, self.run_id)
        self._open.append(len(self.spans))
        self.spans.append(span)
        memory = name in MEASURE_MEMORY
        if memory:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if memory:
                span.size = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if size_of is not None:
            span.size = size_of(result)
        return result

    def _wrap(self, fn, name, layer, size_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, layer, size_of, fn, args, kwargs)
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from mtsgen.dependence import DependenceModel

        namespaces = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
                      if name == "mtsgen" or name.startswith("mtsgen.")}
        for layer in LAYERS:
            module = sys.modules.get(f"mtsgen.{layer}")
            if module is None:
                continue
            for name, fn in _public_functions(module, layer):
                for ns_name, ns in namespaces.items():
                    if vars(ns).get(name) is fn:
                        span_layer = LAYER_BY_BINDING.get((ns_name, name), layer)
                        self._patch(ns, name, self._wrap(fn, f"{layer}.{name}", span_layer,
                                                         SIZE_OF.get(f"{layer}.{name}")))
            for cls in vars(module).values():
                if (isinstance(cls, type) and issubclass(cls, DependenceModel)
                        and cls is not DependenceModel and cls.__module__ == module.__name__):
                    for method in SAMPLE_METHODS:
                        fn = vars(cls).get(method)
                        if inspect.isfunction(fn):
                            self._patch(cls, method, self._wrap(
                                fn, f"{layer}.{cls.__name__}.{method}", layer, _rows))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "layer": s.layer,
                                     "start": s.start, "end": s.end, "parent": s.parent,
                                     "run_id": s.run_id, "failed": s.failed,
                                     "size": s.size}) + "\n")


def _p(values, q):
    """Nearest-rank q-th percentile; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def layer_metrics(tracer: Tracer, useful_steps: int) -> dict:
    """Per-layer metrics of one traced fit and eval.

    Counts, times and self times are totals over the traced calls; the
    `*_ms` percentiles are per call.  A metric whose spans never occurred
    reads 0.
    """
    spans = tracer.spans
    own = {id(s): t for s, t in zip(spans, tracer.self_times())}

    def total(select, value):
        return sum(value(s) for s in spans if select(s))

    def ms(select, q=50):
        return 1e3 * _p([s.duration for s in spans if select(s)], q)

    def named(name):
        return lambda s: s.name == name

    def dep_sample(s):
        return s.layer == "dependence" and s.name.endswith(".sample")

    def assess_mmd(s):
        return s.name == "gmmn.mmd" and s.layer == "assess"

    def one(s):
        return 1

    def dur(s):
        return s.duration

    out = {}
    for layer in LAYERS:
        def in_layer(s, layer=layer):
            return s.layer == layer

        out[f"{layer}.calls"] = total(in_layer, one)
        out[f"{layer}.self_s"] = total(in_layer, lambda s: own[id(s)])
        out[f"{layer}.failed"] = sum(s.failed for s in spans if in_layer(s))

    filter_call = named("margins.arma_garch_filter")
    steps = total(filter_call, lambda s: s.size)
    select_k = [s.size for s in spans if s.name == "pca.select_k"]
    out.update({
        "margins.fit_ms": ms(named("margins.fit_arma_garch")),
        "margins.filter_ms": 1e3 * total(filter_call, dur),
        "margins.filter_steps": steps,
        "margins.filter_useful_ratio": useful_steps / steps if steps else 0.0,
        "margins.quantile_ms": ms(named("margins.scaled_t_quantile")),
        "pca.fit_ms": ms(named("pca.fit_pca")),
        "pca.k": select_k[-1] if select_k else 0,
        "dependence.sample_ms": ms(dep_sample),
        "dependence.draws": total(dep_sample, lambda s: s.size),
        "gmmn.step_ms": ms(named("gmmn.mmd_loss_and_grad")),
        "gmmn.adam_ms": ms(named("gmmn.adam_step")),
        "gmmn.steps": total(named("gmmn.mmd_loss_and_grad"), one),
        "gmmn.train_s": total(named("gmmn.train_gmmn"), dur),
        "gmmn.sample_ms": ms(named("gmmn.sample_gmmn")),
        "forecast.origin_ms_p50": ms(named("forecast.forecast_paths")),
        "forecast.origin_ms_p95": ms(named("forecast.forecast_paths"), 95),
        "forecast.rolling_s": total(named("pipeline.rolling_forecasts"), dur),
        "assess.ammd_s": total(named("assess.ammd"), dur),
        "assess.mmd_ms": ms(assess_mmd),
        "assess.mmd_calls": total(assess_mmd, one),
        "assess.avs_s": total(named("assess.avs"), dur),
        "assess.avs_peak_mb": max((s.size for s in spans if s.name == "assess.avs"),
                                  default=0) / 2**20,
        "bootstrap.fit_s": total(named("bootstrap.bootstrap_fit"), dur),
        "bootstrap.sample_ms": ms(named("bootstrap.BootstrapMixture.sample_components")),
        "serialize.save_ms": ms(named("serialize.save_model")),
        "serialize.load_ms": ms(named("serialize.load_model")),
        "pipeline.load_dataset_ms": ms(named("pipeline.load_dataset")),
    })
    return out
