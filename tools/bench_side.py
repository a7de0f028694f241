#!/usr/bin/env python3
"""Time the short-delay runs that the benchmark in perfbench/ never makes.

Every `perfbench/run.py` workload runs at an actuator delay of 0.1 s or
more, so the engine's per-window work is seen about 100 times per run.
This script times default 10 s `run_scenario` runs at tau = 0 and 5 ms,
where the windows are 1 and 6 steps long, with noise on and off:

    python tools/bench_side.py [--src DIR] [--repeats 7]
    python tools/bench_side.py --compare PARENT CHANGE [--pairs 10] [--out FILE]

The first form imports `pitchpilot` from DIR (default: this checkout's
`src/`), runs each case once to warm the plan, then `--repeats` times, and
prints one JSON record: per case the sha256 of the trace's `rows` and each
run's time in ms, as measured and scaled by the benchmark's host-speed
calibration (`perfbench/run.py`'s `calibrate` and `scaled`, imported and not
changed).  It adds no bound to the benchmark and replaces none.

`--compare` takes two checkouts, each holding `src/pitchpilot`, and runs
the first form on each in a fresh interpreter, `--pairs` times, alternating
which side goes first.  Per case it prints the median scaled time of each
side and the median over pairs of the change/parent ratio; `--out` writes
every record as JSON.  It exits 1 if any case's rows differ in a single bit
between the two sides or between runs, else 0.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASES = {f"tau={tau:g}-{'noisy' if noise else 'quiet'}": (tau, noise)
         for tau in (0.0, 0.005) for noise in (True, False)}


def measure(src, repeats):
    """The record of this checkout's cases, `pitchpilot` taken from `src`."""
    src = Path(src).resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from dataclasses import replace

    import pitchpilot
    import run
    from pitchpilot.blocks import ActuatorParams, NoiseParams
    from pitchpilot.engine import LoopConfig, Scenario, run_scenario
    if not Path(pitchpilot.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"pitchpilot imported from {pitchpilot.__file__},"
                         f" not from {src}")
    cases = {}
    for name, (tau, noise) in CASES.items():
        config = LoopConfig(actuator=ActuatorParams(tau=tau),
                            noise=replace(NoiseParams(), enabled=noise))
        digests, samples = set(), []
        for k in range(repeats + 1):   # the first run warms the plan
            before = run.calibrate()
            t0 = time.perf_counter()
            trace = run_scenario(config, Scenario())
            elapsed = time.perf_counter() - t0
            calibration = 0.5 * (before + run.calibrate())
            digests.add(hashlib.sha256(trace.rows.tobytes()).hexdigest())
            if k:
                samples.append((elapsed, calibration))
        cases[name] = {
            # More than one digest means the runs themselves differ.
            "sha256": sorted(digests),
            "raw_ms": [1e3 * s for s, _ in samples],
            "scaled_ms": [1e3 * s for s in run.scaled(samples)]}
    return {"pitchpilot": pitchpilot.__file__, "repeats": repeats,
            "cases": cases}


def side(checkout, repeats):
    """One record from a fresh interpreter on `checkout`'s src/."""
    out = subprocess.run(
        [sys.executable, __file__, "--src", str(Path(checkout) / "src"),
         "--repeats", str(repeats)],
        check=True, capture_output=True, text=True, timeout=600).stdout
    return json.loads(out)


def compare(parent, change, pairs, repeats):
    """(records of each pair, report lines, whether every hash agreed)."""
    records, paths = [], {"parent": parent, "change": change}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for name in order:
            pair[name] = side(paths[name], repeats)
        records.append(pair)
    lines = [f"{'case':<18} {'parent ms':>10} {'change ms':>10}"
             f" {'ratio':>7} {'faster':>7}  rows"]
    same = True
    for case in CASES:
        medians = {name: [statistics.median(r[name]["cases"][case]
                                            ["scaled_ms"]) for r in records]
                   for name in ("parent", "change")}
        ratios = [c / p for p, c in zip(medians["parent"], medians["change"])]
        digests = {d for r in records for name in ("parent", "change")
                   for d in r[name]["cases"][case]["sha256"]}
        same &= len(digests) == 1
        faster = sum(c < p for p, c in zip(medians["parent"],
                                           medians["change"]))
        lines.append(
            f"{case:<18} {statistics.median(medians['parent']):>10.3f}"
            f" {statistics.median(medians['change']):>10.3f}"
            f" {statistics.median(ratios):>7.3f} {faster:>4}/{pairs:<2}"
            f"  {'identical' if len(digests) == 1 else 'DIFFER'}"
            f" {min(digests)[:16]}")
    return records, lines, same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory to import pitchpilot from")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed runs per case and side (default 7)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="two checkouts to time side by side")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs with --compare (default 10)")
    parser.add_argument("--out", help="with --compare, write the records"
                        " as JSON to this file")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.pairs < 1:
        parser.error("--repeats and --pairs must be at least 1")
    if not args.compare:
        print(json.dumps(measure(args.src, args.repeats)))
        return 0
    records, lines, same = compare(*args.compare, args.pairs, args.repeats)
    print("\n".join(lines))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"cases": list(CASES), "lines": lines, "rows_identical": same,
             "pairs": records}, indent=1) + "\n", encoding="utf-8")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
