#!/usr/bin/env python3
"""pitchpilot benchmark: the ab_report, grid and tune workloads.

    python3 perfbench/run.py --workload ab_report --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory.  Each workload is a closed loop in one single-threaded process:
the next iteration starts when the previous one has finished.  One warm-up
iteration is run, checked and left out of the timings.  Iteration times are
reported scaled to a reference host speed (see `calibrate`) and as measured.

`--trace 0` measures the end-to-end metrics; `--trace 1` runs every other
iteration traced (see tracing.py) and reports the per-layer metrics and the
tracing overhead.  The human-readable report goes to stdout; the last line
is the JSON summary, with the metrics listed in BENCHMARK.json.  `--out
FILE` appends the full record (environment, every metric with its sample
count, check failures, spans) to FILE as one JSON line; compare.py diffs two
such files.  See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import functools
import io
import json
import lzma
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
WORKDIR = ROOT / ".perfbench_work"

# Workload inputs.  The references in reference/ were captured for exactly
# these; make_reference.py rebuilds them.
GAINS = tuple(float(g) for g in range(1, 16))   # the CLI sweep default, 1:15
DELAY_POOL = tuple(round(0.23 + 0.01 * i, 2) for i in range(8))  # 0.23-0.30 s
PROBE_DELAYS = 5      # every window of 5 in the pool brackets 0.26 | 0.27 s
TUNE_BUDGET = 16
TUNE_JITTER = 0.1     # start gains = defaults * (1 +/- up to 10%)
NOISE_SEEDS = 4       # ab_report references exist for noise seeds 0-3
TOLERANCE = 1e-6      # max |deviation| from a reference (deg, or relative)

SETUP_REPEATS = 7
SETUP_CODE = ("import pitchpilot\n"
              "from pitchpilot import config\n"
              "cfg = config.load_config()\n"
              "config.loop_config_from(cfg)\n"
              "config.scenario_from(cfg)\n")

# Metrics the harness prints beyond BENCHMARK.json: (unit, better, bound).
# They are zero on a correct commit or exist on one workload only, so they
# are kept out of the driver's summary line; compare.py uses these bounds.
EXTRA_METRICS = {
    "error_rate": ("ratio", "lower", 0.0),
    "best_cost": ("cost", "lower", 0.02),
    "trace_max_dev_deg": ("deg", "lower", 0.0),
}


UNITS = {
    "setup_s": "s", "wall_s": "s", "wall_s_tail": "s", "runs_per_s": "1/s",
    "peak_rss_mb": "MB", "wall_s_raw": "s",
    "runs_per_s_raw": "1/s", "calibration_ms": "ms",
    **{name: unit for name, (unit, _, _) in EXTRA_METRICS.items()},
}


def bench_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- workloads ---------------------------------------------------------------


class AbReport:
    """`cli.main(["ab", ...])`, then reading both trace CSVs back.

    Half the time is CSV writing and reading; batched lanes cannot help a
    single A/B pair.
    """

    name = "ab_report"

    def __init__(self, seed, workdir):
        from pitchpilot import cli, config
        self.noise_seed = seed % NOISE_SEEDS
        self.out = workdir / "ab"
        scenario = config.scenario_from(config.load_config())
        self.initial, self.command = scenario.initial, scenario.command
        ref = load_ab_reference()
        self.ref_a, self.ref_b = ref[self.noise_seed]
        self.max_dev = 0.0
        self.captured = None
        original = cli.run_ab_pair

        @functools.wraps(original)
        def capture(*args, **kwargs):
            self.captured = original(*args, **kwargs)
            return self.captured

        cli.run_ab_pair = capture

    def iteration(self):
        from pitchpilot import cli, engine, metrics
        argv = ["ab", "--out", str(self.out), "--seed", str(self.noise_seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        traces = [engine.Trace.from_csv(self.out / f"trace_{leg}.csv")
                  for leg in "ab"]
        band = metrics.band_for_step(self.initial, self.command, 0.05)
        found = [metrics.step_metrics(tr, self.initial, self.command, band)
                 for tr in traces]
        return code, traces, found

    def runs(self, result):
        return 2

    def check(self, result):
        import numpy as np
        from pitchpilot import metrics
        code, traces, found = result
        if code != 0:
            return [f"cli ab exited with {code}"]
        if not (self.out / "ab_report.txt").is_file():
            return ["ab_report.txt was not written"]
        problems = []
        band = metrics.band_for_step(self.initial, self.command, 0.05)
        for leg, mem, csv, m_csv, ref in zip(
                "AB", self.captured, traces, found, (self.ref_a, self.ref_b)):
            m_mem = metrics.step_metrics(mem, self.initial, self.command, band)
            if m_csv != m_mem:
                problems.append(f"leg {leg}: step metrics from CSV differ"
                                f" from the in-memory trace")
            if not np.array_equal(csv.omega, mem.omega):
                problems.append(f"leg {leg}: CSV omega differs from memory")
            if csv.omega.shape != ref.shape:
                problems.append(f"leg {leg}: {len(csv.omega)} samples,"
                                f" reference has {len(ref)}")
                continue
            dev = float(np.max(np.abs(csv.omega - ref)))
            self.max_dev = max(self.max_dev, dev)
            if not dev <= TOLERANCE:
                problems.append(f"leg {leg}: omega deviates from the"
                                f" reference by {dev!r} deg")
        return problems

    def extra_metrics(self):
        return {"trace_max_dev_deg": self.max_dev}


class Grid:
    """`tuner.sweep` over actuator.gain 1-15, then `stability_probe`.

    Independent runs without file I/O, including unstable-but-finite ones
    (gain 15, the long delays): where batched lanes and divergence abort
    show.
    """

    name = "grid"

    def __init__(self, seed, workdir):
        windows = len(DELAY_POOL) - PROBE_DELAYS + 1
        start = seed % windows
        self.delays = DELAY_POOL[start:start + PROBE_DELAYS]
        ref = json.loads((REFERENCE / "grid.json").read_text(encoding="utf-8"))
        self.ref_rows = ref["sweep"]
        self.ref_verdicts = {float(k): v for k, v in ref["probe"].items()}

    def iteration(self):
        from pitchpilot import config, engine, tuner
        cfg = config.load_config()
        loop = config.loop_config_from(cfg)
        scenario = config.scenario_from(cfg)
        rows = tuner.sweep(tuner.SweepSpec(path="actuator.gain", values=GAINS,
                                           scenario=scenario, config=loop))
        verdicts = engine.stability_probe(loop, scenario, self.delays)
        return rows, verdicts

    def runs(self, result):
        rows, verdicts = result
        return len(rows) + len(verdicts)

    def check(self, result):
        rows, verdicts = result
        problems = []
        if len(rows) != len(self.ref_rows):
            return [f"sweep gave {len(rows)} rows, reference {len(self.ref_rows)}"]
        for (value, m, cost), ref in zip(rows, self.ref_rows):
            got = sweep_row(value, m, cost)
            if not all(agrees(got[key], want) for key, want in ref.items()):
                problems.append(f"sweep row {value}: {got} differs from"
                                f" reference {ref}")
        for tau, stable in verdicts:
            if stable != self.ref_verdicts.get(tau):
                problems.append(f"probe delay {tau}: stable={stable},"
                                f" reference {self.ref_verdicts.get(tau)}")
        if [tau for tau, _ in verdicts] != list(self.delays):
            problems.append("probe verdicts do not follow the delay grid")
        return problems

    def extra_metrics(self):
        return {}


def sweep_row(value, m, cost):
    row = {"value": value, "cost": cost}
    for key in ("t_r", "t_p", "t_s", "m_p"):
        row[key] = getattr(m, key) if m is not None else None
    return row


def agrees(have, want):
    """Equal, or both numbers within TOLERANCE of each other (relative)."""
    if have is None or want is None:
        return have is want
    return math.isclose(have, want, rel_tol=TOLERANCE)


class Tune:
    """`tuner.tune_pid` with a fixed budget from seed-jittered start gains.

    The same engine as grid, but each evaluation depends on the last.
    """

    name = "tune"

    def __init__(self, seed, workdir):
        import numpy as np
        self.factors = 1.0 + TUNE_JITTER * np.random.default_rng(seed).uniform(
            -1.0, 1.0, 3)
        self.first = None
        self.best_cost = None

    def _inputs(self):
        from pitchpilot import config
        cfg = config.load_config()
        loop = config.loop_config_from(cfg)
        scenario = config.scenario_from(cfg)
        f = [float(x) for x in self.factors]
        pid = replace(loop.pid, k_p=loop.pid.k_p * f[0],
                      k_i=loop.pid.k_i * f[1], k_d=loop.pid.k_d * f[2])
        loop = replace(loop, pid=pid, noise=replace(loop.noise, enabled=False))
        return loop, scenario

    def iteration(self):
        from pitchpilot import tuner
        loop, scenario = self._inputs()
        return tuner.tune_pid(loop, scenario, tuner.CostSpec(),
                              max_evals=TUNE_BUDGET)

    def runs(self, result):
        return len(result[1])

    def check(self, result):
        from pitchpilot import tuner
        gains, history = result
        if not 1 <= len(history) <= TUNE_BUDGET:
            return [f"history has {len(history)} entries, budget {TUNE_BUDGET}"]
        problems = []
        if any(later > earlier for earlier, later in zip(history, history[1:])):
            problems.append("history is not non-increasing")
        if not history[-1] <= history[0]:
            problems.append("returned gains are worse than the start")
        if self.first is None:
            # Once per run: the returned gains really score best_cost.
            loop, scenario = self._inputs()
            _, cost = tuner.evaluate(replace(loop, pid=gains), scenario,
                                     tuner.CostSpec())
            if cost != history[-1]:
                problems.append(f"returned gains score {cost!r},"
                                f" history says {history[-1]!r}")
            self.first = (gains, list(history))
        elif (gains, list(history)) != self.first:
            problems.append("tune_pid is not deterministic across iterations")
        self.best_cost = history[-1]
        return problems

    def extra_metrics(self):
        return {"best_cost": self.best_cost}


WORKLOADS = {cls.name: cls for cls in (AbReport, Grid, Tune)}


def load_ab_reference():
    import numpy as np
    raw = lzma.decompress((REFERENCE / "ab_omega.npy.xz").read_bytes())
    return np.load(io.BytesIO(raw))


# -- measurement -------------------------------------------------------------

# Host-speed calibration.  On a shared host the machine's speed drifts by up
# to 2x over minutes, and CPU time drifts with it (so it is not steal time):
# far more than any useful regression bound.  Around every timed iteration
# the harness times a fixed pure-Python loop that does not use pitchpilot,
# and scales the iteration's time by CALIBRATION_REFERENCE_S / (loop time).
# No change to pitchpilot can move the loop, so a change moves the scaled
# times as it moves the raw ones; the raw times are reported next to them.
# Set-up time (imports: file reads, page faults) does not follow the loop's
# speed, and is reported as measured.
CALIBRATION_STEPS = 50_000
CALIBRATION_REFERENCE_S = 0.010


class _Filter:
    """Stand-in for a block: attribute updates and float arithmetic."""

    def __init__(self):
        self.state = 0.0
        self.prev = 0.0

    def step(self, x, dt):
        self.state += 0.5 * (x + self.prev) * dt
        self.prev = x
        return 2.0 * x + self.state


def calibrate():
    """Seconds taken by the calibration loop (about 10 ms)."""
    filt, y = _Filter(), 0.0
    t0 = time.perf_counter()
    for k in range(CALIBRATION_STEPS):
        y = filt.step(math.sin(k * 0.001) - 0.1 * y, 0.001)
    return time.perf_counter() - t0


def scaled(samples):
    """Seconds of (seconds, calibration seconds, ...) samples, scaled."""
    return [s[0] * CALIBRATION_REFERENCE_S / s[1] for s in samples]


def setup_time():
    """Wall time of one fresh interpreter importing and configuring."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                   check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


class Loop:
    """Closed-loop iterations of one workload, with their checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def once(self):
        """One checked iteration: (seconds, calibration seconds, runs), or
        None if it raised or failed a check.  The calibration is timed
        before and after the iteration, and the mean is kept."""
        self.attempted += 1
        before = calibrate()
        t0 = time.perf_counter()
        try:
            result = self.workload.iteration()
        except Exception as exc:  # a failed iteration counts in error_rate
            self.failed += 1
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        calibration = 0.5 * (before + calibrate())
        problems = self.workload.check(result)
        if problems:
            self.failed += 1
            self.failures.extend(problems)
            return None
        return elapsed, calibration, self.workload.runs(result)

    def measure(self, seconds, setups=0, tracer=None):
        """Iterate for at least `seconds`: (untraced, traced, set-ups).

        The first two are the samples of the iterations that passed their
        checks.  With a tracer, every other iteration runs traced, so both
        sets see the same machine conditions.  `setups` fresh-interpreter
        set-ups (seconds, as measured) are spread evenly over the stretch
        between iterations, so that they meet the same machine conditions;
        their time does not count towards `seconds`.
        """
        untraced, traced, setup = [], [], []
        start, paused = time.perf_counter(), 0.0
        while True:
            elapsed = time.perf_counter() - start - paused
            while len(setup) < setups and elapsed >= len(setup) * seconds / setups:
                setup.append(setup_time())
                paused += setup[-1]
            if elapsed >= seconds:
                return untraced, traced, setup
            tracing_now = tracer is not None and self.attempted % 2 == 1
            if tracing_now:
                tracer.install()
            try:
                sample = self.once()
            finally:
                if tracing_now:
                    tracer.uninstall()
            if sample is not None:
                (traced if tracing_now else untraced).append(sample)


def no_success(loop):
    return "error: no iteration succeeded:\n  " + "\n  ".join(loop.failures[:5])


def tail(durations):
    """Highest percentile with at least 10 samples beyond it: (value, label)."""
    ordered = sorted(durations)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} (fewer than 11 samples)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n} samples"


def metric(value, samples, note=""):
    return {"value": value, "samples": samples, "note": note}


def run_workload(name, seed, seconds, trace):
    import tracing

    workdir = WORKDIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    try:
        workload = WORKLOADS[name](seed, workdir)
        loop = Loop(workload)
        loop.once()  # warm-up: checked, not timed
        samples, traced, setups = loop.measure(
            seconds, 0 if trace else SETUP_REPEATS, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORKDIR.rmdir()
    if not samples or (trace and not traced):
        raise SystemExit(no_success(loop))

    times, raw = scaled(samples), [s[0] for s in samples]
    runs, n = sum(s[2] for s in samples), len(samples)
    metrics = {}
    if setups:
        metrics["setup_s"] = metric(statistics.median(setups), len(setups),
                                    "median of fresh interpreters")
    metrics["wall_s"] = metric(statistics.median(times), n, "median, scaled")
    value, label = tail(times)
    metrics["wall_s_tail"] = metric(value, n, label + ", scaled")
    metrics["runs_per_s"] = metric(runs / sum(times), runs,
                                   "closed-loop runs per second, scaled")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1,
        "peak resident set of this process")
    metrics["error_rate"] = metric(loop.failed / loop.attempted, loop.attempted,
                                   "failed / attempted iterations")
    for key, val in workload.extra_metrics().items():
        metrics[key] = metric(val, n)
    metrics["wall_s_raw"] = metric(statistics.median(raw), n, "as measured")
    metrics["runs_per_s_raw"] = metric(runs / sum(raw), runs, "as measured")
    metrics["calibration_ms"] = metric(
        1e3 * statistics.median(s[1] for s in samples), n,
        f"scale = {1e3 * CALIBRATION_REFERENCE_S:g} ms / this")

    layers = {}
    if trace:
        layers = tracing.layer_metrics(tracer, len(traced))
        untraced_wall = statistics.median(raw)
        traced_wall = statistics.median(s[0] for s in traced)
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.traced_wall_s"] = traced_wall

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(seed),
              "attempted": loop.attempted, "failed": loop.failed,
              "failures": loop.failures[:20], "metrics": {}, "layers": {},
              "spans": tracer.spans if trace else []}
    for key, m in metrics.items():
        record["metrics"][key] = dict(m, unit=UNITS[key])
    for key, val in layers.items():
        record["layers"][key] = {"value": val, "unit": tracing.UNITS[key]}
    if trace:
        record["accounting_ns"] = dict(zip(
            ("run_span", "block_steps", "block_init", "engine_self"),
            tracing.run_accounting(tracer)))
    return record


# -- environment and output --------------------------------------------------


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_loc():
    """Non-blank, non-comment lines of src/pitchpilot."""
    total = 0
    for path in sorted((SRC / "pitchpilot").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            total += bool(stripped) and not stripped.startswith("#")
    return total


def environment(seed):
    import numpy
    import scipy
    from pitchpilot import config
    scenario = config.scenario_from(config.load_config())
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "samples_per_run": int(round(scenario.duration / scenario.dt)) + 1,
        "src_loc": src_loc(),
    }


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float) and value != 0 and not 1e-3 <= abs(value) < 1e6:
        return f"{value:.4e}"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(record):
    env = record["environment"]
    mode = "traced" if record["trace"] else "untraced"
    print(f"pitchpilot benchmark: workload {record['workload']}, seed"
          f" {record['seed']}, {record['seconds']:g} s, {mode}")
    print(f"environment: git {env['git_sha'][:12]}, python {env['python']},"
          f" numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']},"
          f" {env['samples_per_run']} samples/run,"
          f" src/pitchpilot {env['src_loc']} LOC")
    print(f"{'end-to-end metric':<24}{'value':>14}  {'unit':<7}{'samples':>8}  note")
    for name, m in record["metrics"].items():
        print(f"  {name:<22}{fmt(m['value']):>14}  {m['unit']:<7}"
              f"{m['samples']:>8}  {m['note']}")
    if record["layers"]:
        print(f"{'per-layer metric':<32}{'value':>14}  unit")
        for name, m in record["layers"].items():
            print(f"  {name:<30}{fmt(m['value']):>14}  {m['unit']}")
        acc = record["accounting_ns"]
        print("run_scenario spans: {:.1f} ms = block steps {:.1f} ms + block"
              " init {:.1f} ms + engine self {:.1f} ms".format(
                  *(acc[k] / 1e6 for k in ("run_span", "block_steps",
                                           "block_init", "engine_self"))))
    print(f"checks: {record['attempted']} iterations attempted,"
          f" {record['failed']} failed")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def summary(record, spec):
    """The driver's summary line: the BENCHMARK.json metrics of this mode."""
    section, values = (("per_layer", record["layers"]) if record["trace"]
                       else ("end_to_end", record["metrics"]))
    out = {}
    for entry in spec[section]:
        name = entry["name"]
        measured = values[name]
        if measured["value"] is None or measured["unit"] != entry["unit"]:
            raise SystemExit(f"error: {name} not measured as {entry['unit']}")
        out[name] = {"value": measured["value"], "unit": entry["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": out}


def run_all(args, spec):
    """Each workload in its own process (so peak RSS is its own)."""
    batch = WORKDIR / f"all-{os.getpid()}"
    batch.mkdir(parents=True, exist_ok=True)
    records = []
    try:
        for name in WORKLOADS:
            out = batch / f"{name}.jsonl"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace), "--out",
                   str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=170 + 2 * args.seconds)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"error: workload {name} exited"
                                 f" {proc.returncode}")
            print("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            records.append(json.loads(out.read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(batch, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    key = "layers" if args.trace else "metrics"
    names = list(dict.fromkeys(n for r in records for n in r[key]))
    print(f"{'metric':<30}" + "".join(f"{r['workload']:>14}" for r in records))
    for name in names:
        cells = [r[key].get(name, {}).get("value") for r in records]
        unit = next(r[key][name]["unit"] for r in records if name in r[key])
        print(f"  {name + ' (' + unit + ')':<28}"
              + "".join(f"{fmt(c):>14}" for c in cells))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for record in records:
        line = summary(record, spec)
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, m in line["metrics"].items():
            combined["metrics"][f"{record['workload']}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record(s) to this"
                        " JSON-lines file")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "pitchpilot" / "__init__.py").is_file():
        print(f"error: pitchpilot sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = bench_spec()
    if args.workload == "all":
        return run_all(args, spec)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(summary(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
