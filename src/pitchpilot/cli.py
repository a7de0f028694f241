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

from . import config as cfgmod
from .aero import sizing_report
from .engine import Trace, run_ab_pair, run_scenario
from .errors import (ConfigError, DivergedError, NoResponseError,
                     PitchPilotError, fixed)
from .metrics import (BAND_FRACTION, band_for_step, devaud_report,
                      noise_envelope, step_metrics)
from .tuner import CostSpec, SweepSpec, sweep, tune_pid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Plot the pitch trace with the settling tolerance band.
import csv

import matplotlib.pyplot as plt

t, omega, cmd = [], [], []
with open('trace.csv') as fh:
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
plt.savefig('trace.png', dpi=150)
print("wrote", 'trace.png')
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
                            help="override duration (s)")
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
            cfg["scenario"][key] = getattr(args, key)
    if getattr(args, "no_noise", False):
        cfg["loop"]["noise"]["enabled"] = False
    return cfg


def _outdir(path):
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"cannot use output directory {out}: {exc}") from exc
    return out


def _write(out, outputs):
    """Write every output (a file name's text or `Trace`) to `out`, or none:
    all are staged in a temporary directory before any is renamed into
    `out`.  A name taken by a directory is refused before any write, since
    renaming onto it would fail after earlier renames had landed."""
    for name in outputs:
        if (out / name).is_dir():
            raise ConfigError(f"cannot write output {out / name}:"
                              " it is a directory")
    stage = Path(tempfile.mkdtemp(dir=out, prefix=".pitchpilot-"))
    try:
        for name, data in outputs.items():
            if isinstance(data, Trace):
                data.to_csv(stage / name)
            else:
                (stage / name).write_text(data, encoding="utf-8")
        for name in outputs:
            (stage / name).replace(out / name)
    finally:
        shutil.rmtree(stage)


def _metrics_text(m, label=""):
    head = f"Step metrics {label}".rstrip() + "\n"
    t_s = f"{fixed(m.t_s * 1000, '.1f')} ms" if m.t_s is not None else "never"
    body = (
        f"  rise time t_r      = {fixed(m.t_r * 1000, '.1f')} ms\n"
        f"  peak time t_p      = {fixed(m.t_p * 1000, '.1f')} ms\n"
        f"  settling time t_s  = {t_s}\n"
        f"  peak overshoot M_p = {fixed(m.m_p, '.3f')} deg\n"
        f"  percent overshoot  = {fixed(m.pct_overshoot, '.1f')} %\n"
    )
    return head + body + devaud_report(m) + "\n"


# Each command returns (outputs, text): the files for `_write` and the exact
# stdout.  `main` loads `cfg` and prints `text` once the files are written.


def cmd_simulate(args, cfg):
    loop = cfgmod.loop_config_from(cfg)
    scenario = cfgmod.scenario_from(cfg)
    band = band_for_step(scenario.initial, scenario.command)
    trace = run_scenario(loop, scenario)
    try:
        m = step_metrics(trace, scenario.initial, scenario.command, band)
        text = _metrics_text(m)
    except NoResponseError:
        text = "Step metrics\n  (trace never crossed the 10% threshold)\n"
    plot = PLOT_TEMPLATE.format(half_width=band.half_width)
    return ({"trace.csv": trace, "metrics.txt": text, "plot_trace.py": plot},
            f"{text}wrote {Path(args.out) / 'trace.csv'}\n")


def cmd_ab(args, cfg):
    loop = cfgmod.loop_config_from(cfg)
    scenario = cfgmod.scenario_from(cfg)
    band = band_for_step(scenario.initial, scenario.command)
    trace_a, trace_b = run_ab_pair(loop, scenario)
    m_a = step_metrics(trace_a, scenario.initial, scenario.command, band)
    m_b = step_metrics(trace_b, scenario.initial, scenario.command, band)

    def improvement(a, b):
        return fixed(100.0 * (a - b) / a if a else float("nan"), ".1f")

    lines = [_metrics_text(m_a, "(A: no compensator)"),
             _metrics_text(m_b, "(B: with compensator)"),
             "Improvement of B over A:",
             f"  rise time:     {improvement(m_a.t_r, m_b.t_r)} %"]
    if m_a.t_s is not None and m_b.t_s is not None:
        lines.append(f"  settling time: {improvement(m_a.t_s, m_b.t_s)} %")
    lines.append(f"  peak overshoot: {improvement(m_a.m_p, m_b.m_p)} %")
    if loop.noise.enabled:
        for leg, trace in (("A", trace_a), ("B", trace_b)):
            mx, mn, _ = noise_envelope(trace, scenario.duration / 2)
            lines.append(f"Noise envelope {leg}: max {fixed(mx, '.3f')}"
                         f" min {fixed(mn, '.3f')} deg")
    report = "\n".join(lines) + "\n"
    return ({"trace_a.csv": trace_a, "trace_b.csv": trace_b,
             "ab_report.txt": report}, report)


def cmd_size(args, cfg):
    report = sizing_report(cfgmod.missile_from(cfg),
                           cfgmod.derivatives_from(cfg),
                           cfgmod.tail_sizing_from(cfg))
    return {"sizing.txt": report}, report


def _parse_values(text):
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if ":" in chunk:
                lo, hi = chunk.split(":", 1)
                values.extend(float(v) for v in range(int(lo), int(hi) + 1))
            else:
                values.append(float(chunk))
        except ValueError as exc:
            raise ConfigError(f"sweep value '{chunk}' is not a number"
                              " or an integer range lo:hi") from exc
    if not values:
        raise ConfigError("empty sweep value list")
    return tuple(values)


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
    winner = min(rows, key=lambda row: row[2])
    best = (f"best {spec.path} = {winner[0]} (cost {fixed(winner[2], '.4f')})"
            if any(m is not None for _, m, _ in rows)
            else "no value gave a measurable response")
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
    start = float(args.start if args.start is not None else trace.omega[0])
    target = float(args.target if args.target is not None else trace.cmd[-1])
    band = band_for_step(start, target, args.band_fraction)
    m = step_metrics(trace, start, target, band)
    return {}, _metrics_text(m)


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
        out = _outdir(args.out) if "out" in args else None
        outputs, text = args.func(args, cfg)
        if outputs:
            _write(out, outputs)
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
