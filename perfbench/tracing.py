"""Per-layer tracing of pitchpilot, installed from outside the package.

The package carries no instrumentation.  `Tracer.install` replaces each
public function or method named below at every place it is looked up: a
class attribute for methods, and every `pitchpilot.*` module global that
refers to the function (the modules import each other by name, so
`pitchpilot.tuner.run_scenario` and `pitchpilot.engine.run_scenario` are
separate lookup sites of one function).

* Coarse calls (config loading, one closed-loop run, CSV I/O, metrics,
  tuner evaluations and searches, the CLI entry point) get one span per
  call: name, start, end and parent, kept in memory.
* The per-step block methods (about 8 calls per simulated step) are only
  counted and timed in aggregate: a span per call would swamp the run.

A span's self time is its duration minus its child spans and minus the
aggregated block time spent directly inside it.
"""

import functools
import importlib
import inspect
import os
import sys
import time

# (span name, module, attribute path); one span per call.
SPANS = (
    ("config.load", "config", "load_config"),
    ("engine.run", "engine", "run_scenario"),
    ("engine.ab_pair", "engine", "run_ab_pair"),
    ("engine.probe", "engine", "stability_probe"),
    ("engine.to_csv", "engine", "Trace.to_csv"),
    ("engine.from_csv", "engine", "Trace.from_csv"),
    ("metrics.step_metrics", "metrics", "step_metrics"),
    ("metrics.noise_envelope", "metrics", "noise_envelope"),
    ("tuner.evaluate", "tuner", "evaluate"),
    ("tuner.sweep", "tuner", "sweep"),
    ("tuner.nelder_mead", "tuner", "nelder_mead"),
    ("tuner.tune_pid", "tuner", "tune_pid"),
    ("cli.main", "cli", "main"),
)

# (aggregate name, module, attribute path); count and total time only.
AGGREGATES = (
    ("blocks.pid_step", "blocks", "Pid.step"),
    ("blocks.lead_step", "blocks", "Lead.step"),
    ("blocks.actuator_step", "blocks", "Actuator.step"),
    ("blocks.kalman_step", "blocks", "Kalman.step"),
    ("blocks.noise_sample", "blocks", "NoiseSource.sample"),
    ("blocks.disturbance_at", "blocks", "disturbance_at"),
    ("blocks.init", "blocks", "Actuator.__init__"),
    ("blocks.init", "blocks", "Kalman.__init__"),
)
STEP_AGGREGATES = tuple(name for name, _, _ in AGGREGATES
                        if name != "blocks.init")


def _run_info(span, args, result, exc):
    from pitchpilot.errors import DivergedError
    if exc is None:
        span["steps"] = len(result)
    elif isinstance(exc, DivergedError):
        span["steps"] = exc.step + 1


def _to_csv_info(span, args, result, exc):
    if exc is None:
        span["bytes"] = os.path.getsize(args[1])


def _evaluate_info(span, args, result, exc):
    if exc is None:
        span["penalised"] = result[0] is None


def _tune_info(span, args, result, exc):
    if exc is None:
        history = result[1]
        span["evals_to_best"] = history.index(history[-1]) + 1


UNITS = {
    "config.load_ms": "ms",
    "blocks.pid_step_ns": "ns",
    "blocks.lead_step_ns": "ns",
    "blocks.actuator_step_ns": "ns",
    "blocks.kalman_step_ns": "ns",
    "blocks.noise_sample_ns": "ns",
    "blocks.disturbance_at_ns": "ns",
    "blocks.calls_per_step": "count",
    "blocks.init_us": "us",
    "engine.run_ms": "ms",
    "engine.self_us_per_step": "us",
    "engine.runs": "count",
    "engine.steps": "count",
    "engine.to_csv_ms": "ms",
    "engine.from_csv_ms": "ms",
    "engine.csv_bytes": "count",
    "engine.probe_ms": "ms",
    "metrics.step_metrics_us": "us",
    "metrics.noise_envelope_us": "us",
    "tuner.evaluate_ms": "ms",
    "tuner.evals": "count",
    "tuner.penalised_evals": "count",
    "tuner.useful_ratio": "ratio",
    "tuner.search_self_ms": "ms",
    "tuner.evals_to_best": "count",
    "cli.self_ms": "ms",
    "trace.overhead_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
}

OBSERVERS = {
    "engine.run": _run_info,
    "engine.to_csv": _to_csv_info,
    "tuner.evaluate": _evaluate_info,
    "tuner.tune_pid": _tune_info,
}


class Tracer:
    """Spans and aggregate counters of the traced iterations of a run."""

    def __init__(self):
        self.spans = []
        self.aggregates = {}       # name -> [calls, total ns]
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        # Import every traced module first, so each lookup site exists when
        # the functions are searched for.
        for _, module, _ in SPANS + AGGREGATES:
            importlib.import_module(f"pitchpilot.{module}")
        for name, module, path in SPANS:
            self._patch(module, path, lambda fn, n=name: self._span(n, fn))
        for name, module, path in AGGREGATES:
            self._patch(module, path, lambda fn, n=name: self._aggregate(n, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, module, path, make):
        mod = sys.modules[f"pitchpilot.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        original = inspect.unwrap(getattr(mod, path))
        sites = [m for key, m in list(sys.modules.items())
                 if key == "pitchpilot" or key.startswith("pitchpilot.")]
        for site in sites:
            for attr, value in list(vars(site).items()):
                if callable(value) and inspect.unwrap(value) is original:
                    self._undo.append((site, attr, value))
                    setattr(site, attr, make(value))

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, aggregated_ns = self.spans, self._stack, self._aggregated_ns
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = {"name": name, "id": len(spans) + len(stack),
                    "parent": parent["id"] if parent else None,
                    "child_ns": 0, "child_agg_ns": 0, "agg_ns": aggregated_ns()}
            stack.append(span)
            result, exc = None, None
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                span["error"] = type(err).__name__
                raise
            finally:
                span["end"] = end = clock()
                stack.pop()
                span["agg_ns"] = aggregated_ns() - span["agg_ns"]
                if parent is not None:
                    parent["child_ns"] += end - span["start"]
                    parent["child_agg_ns"] += span["agg_ns"]
                if observe is not None:
                    observe(span, args, result, exc)
                spans.append(span)

        return wrapper

    def _aggregate(self, name, fn):
        cell = self.aggregates.setdefault(name, [0, 0])
        clock = time.perf_counter_ns

        # No try/finally: this runs ~8 times per simulated step, and a block
        # method that raises ends its run anyway.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            cell[1] += clock() - t0
            cell[0] += 1
            return result

        return wrapper

    def _aggregated_ns(self):
        return sum(cell[1] for cell in self.aggregates.values())


def self_ns(span):
    """Span duration minus its child spans and its direct block calls."""
    direct_agg = span["agg_ns"] - span["child_agg_ns"]
    return span["end"] - span["start"] - span["child_ns"] - direct_agg


def layer_metrics(tracer, iterations):
    """Per-layer numbers over `iterations` traced iterations.

    Times are means per call (per run for `blocks.init_us`); counts are
    per iteration.  A metric whose layer the workload never reaches is
    None.
    """
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def mean(values, scale):
        values = list(values)
        return sum(values) / len(values) / scale if values else None

    def mean_duration(name, scale):
        return mean((s["end"] - s["start"] for s in spans(name)), scale)

    def mean_self(name, scale):
        return mean((self_ns(s) for s in spans(name)), scale)

    def per_call_ns(name):
        calls, total = tracer.aggregates.get(name, (0, 0))
        return total / calls if calls else None

    runs = spans("engine.run")
    steps = sum(s.get("steps", 0) for s in runs)
    step_calls = sum(tracer.aggregates.get(n, (0, 0))[0]
                     for n in STEP_AGGREGATES)
    init_ns = tracer.aggregates.get("blocks.init", (0, 0))[1]
    evals = spans("tuner.evaluate")
    penalised = sum(1 for s in evals if s.get("penalised"))
    tunes = spans("tuner.tune_pid")

    out = {
        "config.load_ms": mean_duration("config.load", 1e6),
        "blocks.calls_per_step": step_calls / steps if steps else None,
        "blocks.init_us": init_ns / len(runs) / 1e3 if runs else None,
        "engine.run_ms": mean_duration("engine.run", 1e6),
        "engine.self_us_per_step": (sum(self_ns(s) for s in runs) / steps / 1e3
                                    if steps else None),
        "engine.runs": len(runs) / iterations,
        "engine.steps": steps / iterations,
        "engine.to_csv_ms": mean_duration("engine.to_csv", 1e6),
        "engine.from_csv_ms": mean_duration("engine.from_csv", 1e6),
        "engine.csv_bytes": sum(s.get("bytes", 0)
                                for s in spans("engine.to_csv")) / iterations,
        "engine.probe_ms": mean_duration("engine.probe", 1e6),
        "metrics.step_metrics_us": mean_duration("metrics.step_metrics", 1e3),
        "metrics.noise_envelope_us": mean_duration("metrics.noise_envelope",
                                                   1e3),
        "tuner.evaluate_ms": mean_duration("tuner.evaluate", 1e6),
        "tuner.evals": len(evals) / iterations,
        "tuner.penalised_evals": penalised / iterations,
        "tuner.useful_ratio": ((len(evals) - penalised) / len(evals)
                               if evals else None),
        "tuner.search_self_ms": mean_self("tuner.nelder_mead", 1e6),
        "tuner.evals_to_best": mean((s["evals_to_best"] for s in tunes
                                     if "evals_to_best" in s), 1),
        "cli.self_ms": mean_self("cli.main", 1e6),
    }
    for name, _, _ in AGGREGATES:
        if name != "blocks.init":
            out[f"{name}_ns"] = per_call_ns(name)
    return out


def run_accounting(tracer):
    """(run span, block step time, block init time, engine self), in ns."""
    runs = [s for s in tracer.spans if s["name"] == "engine.run"]
    span_ns = sum(s["end"] - s["start"] for s in runs)
    block_ns = sum(s["agg_ns"] for s in runs)
    init_ns = tracer.aggregates.get("blocks.init", (0, 0))[1]
    self_total = sum(self_ns(s) for s in runs)
    return span_ns, block_ns - init_ns, init_ns, self_total
