#!/usr/bin/env python3
"""Capture the reference outputs that run.py checks against.

    python3 perfbench/make_reference.py

Writes reference/ab_omega.npy.xz (the omega column of the A and B traces
of `pitchpilot ab --seed s`, for s in 0..NOISE_SEEDS-1, as an array of
shape (seeds, 2, samples)) and reference/grid.json (the sweep rows and the
probe verdicts over DELAY_POOL, plus the commit they came from).

The stored references were captured at the commit named in grid.json.
Rerun this only on purpose, when a change of results is intended and
measured: the references are the benchmark's definition of correct output.
"""

import io
import json
import lzma
import sys
from dataclasses import replace

import numpy as np

from run import (DELAY_POOL, GAINS, NOISE_SEEDS, PROBE_DELAYS, REFERENCE, SRC,
                 git_sha, sweep_row)

sys.path.insert(0, str(SRC))

from pitchpilot import config, engine, tuner  # noqa: E402


def main():
    cfg = config.load_config()
    loop = config.loop_config_from(cfg)
    scenario = config.scenario_from(cfg)

    omega = np.array([[trace.omega for trace in
                       engine.run_ab_pair(loop, replace(scenario, seed=s))]
                      for s in range(NOISE_SEEDS)])
    buf = io.BytesIO()
    np.save(buf, omega)
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / "ab_omega.npy.xz").write_bytes(lzma.compress(buf.getvalue()))

    rows = tuner.sweep(tuner.SweepSpec(path="actuator.gain", values=GAINS,
                                       scenario=scenario, config=loop))
    verdicts = engine.stability_probe(loop, scenario, DELAY_POOL)
    flags = [stable for _, stable in verdicts]
    for start in range(len(flags) - PROBE_DELAYS + 1):
        window = flags[start:start + PROBE_DELAYS]
        if not (any(window) and not all(window)):
            raise SystemExit(f"delay window {start} does not bracket the"
                             " destabilising delay")
    grid = {
        "source_commit": git_sha(),
        "sweep": [sweep_row(value, m, cost) for value, m, cost in rows],
        "probe": {repr(tau): stable for tau, stable in verdicts},
    }
    (REFERENCE / "grid.json").write_text(json.dumps(grid, indent=1) + "\n",
                                         encoding="utf-8")
    print(f"wrote {REFERENCE} from commit {grid['source_commit']}")


if __name__ == "__main__":
    main()
