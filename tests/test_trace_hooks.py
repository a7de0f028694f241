"""The benchmark's per-layer tracer still finds every hook it times.

`perfbench/tracing.py` patches block methods and engine functions by name
from outside the package.  A refactor that stops calling one of them (or
renames it) leaves `perfbench/run.py --trace 1` with a metric it cannot
measure; this test runs each benchmark workload traced and checks that every
per-layer metric of BENCHMARK.json comes back measured.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
ITERATIONS = 2


def _per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # trace.* compares traced with untraced iterations in run.py itself.
    return [entry["name"] for entry in spec["per_layer"]
            if not entry["name"].startswith("trace.")]


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("run", "tracing"):
        sys.modules.pop(name, None)
    import run
    import tracing
    yield run, tracing
    for name in ("run", "tracing"):
        sys.modules.pop(name, None)


def test_every_per_layer_metric_is_measured(perfbench, monkeypatch, tmp_path):
    run, tracing = perfbench
    from pitchpilot import cli
    # AbReport wraps cli.run_ab_pair to capture its traces; undo it after.
    monkeypatch.setattr(cli, "run_ab_pair", cli.run_ab_pair)
    unmeasured = {}
    for name, workload in run.WORKLOADS.items():
        bench = workload(0, tmp_path)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for _ in range(ITERATIONS):
                result = bench.iteration()
                assert bench.check(result) == [], name
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer, ITERATIONS)
        missing = [m for m in _per_layer_names() if layers.get(m) is None]
        if missing:
            unmeasured[name] = missing
    assert unmeasured == {}
