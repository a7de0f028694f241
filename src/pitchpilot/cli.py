"""Command-line front end.

Subcommands: simulate, ab, size, sweep, tune, metrics.  All outputs go to
--out (default: current directory).  Exit codes: 0 success, 2 configuration
or parse error or an output that cannot be written, 3 diverged simulation.
A command that does not exit 0 writes no file.
"""

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .aero import sizing_report
from .engine import Trace, run_ab_pair, run_scenario
from .errors import (ConfigError, DivergedError, DomainError,
                     NoResponseError, PitchPilotError, fixed)
from .metrics import (BAND_FRACTION, band_for_step, noise_envelope,
                      step_metrics, step_report)
from .tuner import CostSpec, SweepSpec, sweep, tune_pid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Plot the pitch trace with the settling tolerance band.  Both files lie
# beside this script, wherever it is run from.
import csv
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
t, omega, cmd = [], [], []
with open(here / "trace.csv") as fh:
    for row in csv.DictReader(fh):
        t.append(float(row["t"]))
        omega.append(float(row["omega"]))
        cmd.append(float(row["cmd"]))

target = cmd[-1]
half = {half_width!r}
plt.plot(t, omega, label="pitch")
plt.plot(t, cmd, "k:", label="command")
plt.axhline(target + half, color="r", ls="--", label="Upper 1")
plt.axhline(target - half, color="r", ls="--", label="Lower 2")
plt.xlabel("time [s]")
plt.ylabel("pitch [deg]")
plt.legend()
plt.savefig(here / "trace.png", dpi=150)
print("wrote", here / "trace.png")
"""


def _add_common(parser, timed=False, noisy=False):
    """--config, --out and --set; with `timed` also the scenario's
    --duration and --dt, with `noisy` also --seed and --no-noise."""
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted-path config override (repeatable)")
    if timed:
        parser.add_argument("--duration", type=float,
                            help="override duration (s), a multiple of --dt")
        parser.add_argument("--dt", type=float, help="override step size (s)")
    if noisy:
        parser.add_argument("--seed", type=int, help="override scenario seed")
        parser.add_argument("--no-noise", action="store_true",
                            help="disable measurement noise")


def _load(args):
    cfg = cfgmod.load_config(args.config)
    for item in args.sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        key, _, raw = item.partition("=")
        cfgmod.apply_override(cfg, key.strip(), cfgmod.parse_value(raw.strip()))
    for key in ("seed", "duration", "dt"):
        if getattr(args, key, None) is not None:
            cfgmod.apply_override(cfg, f"scenario.{key}", getattr(args, key))
    if getattr(args, "no_noise", False):
        cfgmod.apply_override(cfg, "loop.noise.enabled", False)
    return cfg


def _outdir(path):
    """The nearest existing directory at or above `--out`, where `_write`
    stages; refused if the nearest existing path is not a directory."""
    out = Path(path)
    found = next((p for p in (out, *out.parents) if p.exists()), out)
    if not found.is_dir():
        raise ConfigError(f"cannot use output directory {out}:"
                          f" {found} is not a directory")
    return found


def _write(out, base, outputs):
    """Write every output (a file name's text or `Trace`) to `out`, or none:
    all are staged in a temporary directory in `base`, and only then is
    `out` made and each renamed into it.  A name taken by a directory is
    refused first, as renaming onto it would fail after earlier renames."""
    for name in outputs:
        if (out / name).is_dir():
            raise ConfigError(f"cannot write output {out / name}:"
                              " it is a directory")
    stage = Path(tempfile.mkdtemp(dir=base, prefix=".pitchpilot-"))
    try:
        for name, data in outputs.items():
            if isinstance(data, Trace):
                data.to_csv(stage / name)
            else:
                (stage / name).write_text(data, encoding="utf-8")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"cannot use output directory {out}: {exc}") from exc
        for name in outputs:
            (stage / name).replace(out / name)
    finally:
        shutil.rmtree(stage)


# Each command returns (outputs, text): the files for `_write` and the exact
# stdout.  `main` loads `cfg` and prints `text` once the files are written.


def cmd_simulate(args, cfg):
    loop = cfgmod.loop_config_from(cfg)
    scenario = cfgmod.scenario_from(cfg)
    band = band_for_step(scenario.initial, scenario.command)
    trace = run_scenario(loop, scenario)
    try:
        m = step_metrics(trace, scenario.initial, scenario.command, band)
        text = step_report(m)
    except NoResponseError as exc:
        text = f"Step metrics\n  ({exc})\n"
    plot = PLOT_TEMPLATE.format(half_width=band.half_width)
    return ({"trace.csv": trace, "metrics.txt": text, "plot_trace.py": plot},
            f"{text}wrote {Path(args.out) / 'trace.csv'}\n")


def cmd_ab(args, cfg):
    loop = cfgmod.loop_config_from(cfg)
    scenario = cfgmod.scenario_from(cfg)
    band = band_for_step(scenario.initial, scenario.command)
    trace_a, trace_b = run_ab_pair(loop, scenario)

    def measure(leg, trace):
        # Named like a diverged leg: `run_ab_pair` tags its DivergedError.
        try:
            return step_metrics(trace, scenario.initial, scenario.command,
                                band)
        except NoResponseError as exc:
            raise NoResponseError(f"{exc} (leg {leg})") from exc

    m_a, m_b = measure("A", trace_a), measure("B", trace_b)

    def improvement(a, b):
        return fixed(100.0 * (a - b) / a if a else float("nan"), ".1f")

    lines = [step_report(m_a, "(A: no compensator)"),
             step_report(m_b, "(B: with compensator)"),
             "Improvement of B over A:",
             f"  rise time:     {improvement(m_a.t_r, m_b.t_r)} %"]
    if m_a.t_s is not None and m_b.t_s is not None:
        lines.append(f"  settling time: {improvement(m_a.t_s, m_b.t_s)} %")
    lines.append(f"  peak overshoot: {improvement(m_a.m_p, m_b.m_p)} %")
    if (trace_a.omega_meas != trace_a.omega).any():   # noise reached the loop
        for leg, trace in (("A", trace_a), ("B", trace_b)):
            mx, mn = noise_envelope(trace, scenario.duration / 2)
            lines.append(f"Noise envelope {leg}: max {fixed(mx, '.3f')}"
                         f" min {fixed(mn, '.3f')} deg")
    report = "\n".join(lines) + "\n"
    return ({"trace_a.csv": trace_a, "trace_b.csv": trace_b,
             "ab_report.txt": report}, report)


def cmd_size(args, cfg):
    report = sizing_report(*cfgmod.airframe_from(cfg))
    return {"sizing.txt": report}, report


# The most values one sweep takes, about half an hour of default runs.
MAX_SWEEP_VALUES = 100_000


def _parse_values(text):
    # Ranges are counted as they are read and expanded once all are.
    parts, count = [], 0
    for chunk in filter(None, map(str.strip, text.split(","))):
        try:
            if ":" in chunk:
                lo, hi = (int(v) for v in chunk.split(":", 1))
                float(lo), float(hi)   # OverflowError past the float range
                parts.append(range(lo, hi + 1))
                count += max(hi - lo + 1, 0)
            else:
                parts.append((float(chunk),))
                count += 1
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"sweep value '{chunk}' is not a float"
                              " or an integer range lo:hi of floats") from exc
        if count > MAX_SWEEP_VALUES:
            raise ConfigError(f"sweep value '{chunk}' takes the sweep past"
                              f" {MAX_SWEEP_VALUES} values")
    return tuple(float(v) for part in parts for v in part)


def cmd_sweep(args, cfg):
    spec = SweepSpec(path=args.param, values=_parse_values(args.values),
                     scenario=cfgmod.scenario_from(cfg),
                     config=cfgmod.loop_config_from(cfg))
    rows = sweep(spec)
    lines = ["value,t_r,t_p,t_s,m_p,cost"]
    for value, m, c in rows:
        if m is None:
            lines.append(f"{value!r},,,,,{c!r}")
        else:
            t_s = repr(m.t_s) if m.t_s is not None else ""
            lines.append(f"{value!r},{m.t_r!r},{m.t_p!r},{t_s},{m.m_p!r},{c!r}")
    winner = min((row for row in rows if row[1] is not None),
                 key=lambda row: row[2], default=None)
    best = (f"best {spec.path} = {winner[0]} (cost {fixed(winner[2], '.4f')})"
            if winner else "no value gave a measurable response")
    return ({"sweep.csv": "\n".join(lines) + "\n"},
            f"swept {spec.path} over {len(rows)} values; {best}\n")


def cmd_tune(args, cfg):
    loop = cfgmod.loop_config_from(cfg)
    scenario = cfgmod.scenario_from(cfg)
    gains, history = tune_pid(loop, scenario, CostSpec(), args.max_evals)
    report = (
        f"tuned gains: k_p={fixed(gains.k_p, '.4f')}"
        f" k_i={fixed(gains.k_i, '.4f')} k_d={fixed(gains.k_d, '.4f')}\n"
        f"evaluations: {len(history)}\n"
        f"cost: start {fixed(history[0], '.4f')}"
        f" -> best {fixed(history[-1], '.4f')}\n")
    return {"tuned_gains.txt": report}, report


def cmd_metrics(args, cfg):
    trace = Trace.from_csv(args.trace)
    if not (np.isfinite(trace.t).all() and (trace.t[1:] > trace.t[:-1]).all()):
        raise ConfigError(f"cannot measure trace {args.trace}: its t column"
                          " is not finite and strictly increasing")
    start = float(args.start if args.start is not None else trace.omega[0])
    target = float(args.target if args.target is not None else trace.cmd[-1])
    try:
        band = band_for_step(start, target, args.band_fraction)
        return {}, step_report(step_metrics(trace, start, target, band))
    except (DomainError, NoResponseError) as exc:
        raise ConfigError(f"cannot measure trace {args.trace} with --start"
                          f" {start} --target {target} --band-fraction"
                          f" {args.band_fraction}: {exc}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pitchpilot",
        description="Missile pitch-autopilot simulation and sizing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario")
    _add_common(p, timed=True, noisy=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ab", help="run the compensator A/B comparison")
    _add_common(p, timed=True, noisy=True)
    p.set_defaults(func=cmd_ab)

    p = sub.add_parser("size", help="conceptual sizing report")
    _add_common(p)
    p.set_defaults(func=cmd_size)

    # Sweeps and tuning run noise-free, so they take no noise options.
    p = sub.add_parser("sweep", help="sweep one loop parameter")
    _add_common(p, timed=True)
    p.add_argument("--param", default="actuator.gain",
                   help="path below the loop section (default actuator.gain)")
    p.add_argument("--values", default="1:15",
                   help="comma list and/or lo:hi ranges (default 1:15)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tune", help="tune PID gains")
    _add_common(p, timed=True)
    p.add_argument("--max-evals", type=int, default=150)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("metrics", help="recompute metrics from a trace CSV")
    p.add_argument("--trace", required=True, help="trace CSV path")
    p.add_argument("--start", type=float, help="step start (default: first sample)")
    p.add_argument("--target", type=float, help="step target (default: last command)")
    p.add_argument("--band-fraction", type=float, default=BAND_FRACTION)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args) if "config" in args else None
        base = _outdir(args.out) if "out" in args else None
        outputs, text = args.func(args, cfg)
        if outputs:
            _write(Path(args.out), base, outputs)
    except PitchPilotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED if isinstance(exc, DivergedError) else EXIT_CONFIG
    except OSError as exc:   # reads and --out raise ConfigError instead
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(text, end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
