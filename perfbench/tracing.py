"""Spans around the public functions where one compscore layer calls another.

A Tracer rebinds each target function in every compscore module that
imported it, so a call from cli into io, from study into samplers, or
from fitting into core is recorded whichever module makes it. Nothing in
the package changes: the originals are put back by ``restore``. Spans
stay in memory as (name, parent index, start, end) and are reduced to
per-layer numbers after the op.

The memory pass is separate: with ``memory=True`` the spans named in
MEMORY_SPANS run under tracemalloc and record their peak allocation
above the level at entry. Their times are not used, because tracemalloc
slows every allocation.
"""

import functools
import statistics
import sys
import time
import tracemalloc

# (module, attribute, span name). Every module of the package that holds
# the same function object gets the wrapper too.
FUNCTION_TARGETS = (
    ("compscore.core", "sqrt_transform", "core.sqrt_transform"),
    ("compscore.weights", "cap_from_quantile", "weights.cap_from_quantile"),
    ("compscore.fitting", "build_workspace", "fitting.build_workspace"),
    ("compscore.fitting", "solve", "fitting.solve"),
    ("compscore.fitting", "standard_errors", "fitting.standard_errors"),
    ("compscore.fitting", "fit_hybrid", "fitting.fit_hybrid"),
    ("compscore.moments", "build_workspace_from_moments", "moments.build_workspace_from_moments"),
    ("compscore.moments", "fit_from_counts", "moments.fit_from_counts"),
    ("compscore.samplers", "sample_model", "samplers.sample_model"),
    ("compscore.study", "run_study", "study.run_study"),
    ("compscore.diagnostics", "marginal_report", "diagnostics.marginal_report"),
    ("compscore.io", "read_counts_csv", "io.read_counts_csv"),
    ("compscore.io", "write_output_dir", "io.write_output_dir"),
    ("compscore.cli", "main", "cli.main"),
)

# Public methods of the count-moment provider, all timed as one span name;
# a call nested in another call of the same name is not counted twice.
PROVIDER_METHODS = ("__init__", "monomial_mean", "poly_mean")
PROVIDER_SPAN = "moments.FactorialMoments"

MEMORY_SPANS = (
    "fitting.build_workspace",
    "fitting.standard_errors",
    "moments.build_workspace_from_moments",
)

TIME_SPANS = tuple(name for _, _, name in FUNCTION_TARGETS) + (PROVIDER_SPAN,)
SELF_LAYERS = ("study", "diagnostics", "cli")
CALL_COUNTS = ("fitting.fit_hybrid",)


class Tracer:
    """Records spans while installed; ``restore`` undoes every rebinding."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.peaks = {}
        self.sampled_rows = 0
        self.providers = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        measure_memory = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else None, time.perf_counter(), None])
            stack.append(index)
            started = measure_memory and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            if measure_memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.peaks[name] = max(self.peaks.get(name, 0), peak)
                if started:
                    tracemalloc.stop()
                stack.pop()
                spans[index][3] = time.perf_counter()

        return wrapper

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "compscore" or n.startswith("compscore.")]
        for module_name, attr, name in FUNCTION_TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(name, original)
            if name == "samplers.sample_model":
                wrapped = self._count_rows(wrapped)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._rebind(module, attr, wrapped)
        provider = sys.modules["compscore.moments"].FactorialMoments
        for attr in PROVIDER_METHODS:
            wrapped = self._wrap(PROVIDER_SPAN, provider.__dict__[attr])
            if attr == "__init__":
                wrapped = self._keep_instance(wrapped)
            self._rebind(provider, attr, wrapped)
        return self

    def _count_rows(self, fn):
        @functools.wraps(fn)
        def wrapper(spec, n, *args, **kwargs):
            self.sampled_rows += int(n)
            return fn(spec, n, *args, **kwargs)

        return wrapper

    def _keep_instance(self, fn):
        @functools.wraps(fn)
        def wrapper(instance, *args, **kwargs):
            self.providers.append(instance)
            return fn(instance, *args, **kwargs)

        return wrapper

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


def _outermost(spans, name):
    """Spans of this name that are not inside another span of the same name."""
    out = []
    for span in spans:
        if span[0] != name:
            continue
        parent = span[1]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent is None:
            out.append(span)
    return out


def layer_metrics(tracer, op_seconds):
    """Per-layer numbers of one traced op that took op_seconds in all.

    Returns (metrics, seconds): span times as shares of the op, with counts
    and rates, and the same span times in seconds.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[3] - span[2]
    seconds = {}
    for name in TIME_SPANS:
        seconds[f"{name}.s"] = sum(s[3] - s[2] for s in _outermost(spans, name))
    for layer in SELF_LAYERS:
        seconds[f"{layer}.self_s"] = sum(
            s[3] - s[2] - child_time[i]
            for i, s in enumerate(spans)
            if s[0].split(".", 1)[0] == layer
        )
    metrics = {key[:-1] + "share": value / op_seconds for key, value in seconds.items()}
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = sum(1 for s in spans if s[0] == name)
    sample_s = seconds["samplers.sample_model.s"]
    metrics["samplers.sample_model.rows_per_s"] = (
        tracer.sampled_rows / sample_s if sample_s > 0 else 0.0
    )
    metrics["moments.requested"] = sum(len(p.requested()) for p in tracer.providers)
    metrics["moments.exclusions"] = sum(
        sum(p.exclusions.values()) for p in tracer.providers
    )
    top = [i for i, s in enumerate(spans) if s[1] is None]
    if len(top) == 1:
        # the op is one public call: the share of it its child spans cover
        whole = spans[top[0]][3] - spans[top[0]][2]
        covered = child_time[top[0]]
    else:
        # the op is public calls made one after another by the benchmark
        whole = op_seconds
        covered = sum(spans[i][3] - spans[i][2] for i in top)
    metrics["trace.coverage_ratio"] = covered / whole
    return metrics, seconds


def memory_metrics(tracer):
    return {f"{name}.peak_mb": tracer.peaks.get(name, 0) / 2**20 for name in MEMORY_SPANS}


def median_metrics(per_op):
    """Median of each metric over the traced ops of one run."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
