"""Command-line surface: figure data, budget reports, simulations.

Subcommands: degree, pool, area, power, simulate, sweep, paper-check.
Each takes ``--out``; all but paper-check take ``--format``; area,
power, simulate and sweep take ``--config``; only simulate takes
``--seed`` (sweep draws from the config's ``sweep.seeds``). Numbers on
the command line must be finite; ``--points``, ``--per-decade`` and
``--n-seeds`` must be whole numbers >= 1, and ``--seed`` >= 0. Numeric
output uses scientific notation with six significant digits; units appear
in headers only.
Exit codes: 0 success, 1 check failure, 2 usage or input error,
including a simulation that exceeds its event budget (``max_events``).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    build_hardware_profile,
    build_sim_config,
    build_sweep,
    load_experiment_config,
)
from .constants import EARTH_SURFACE_AREA, SPEED_OF_LIGHT, THETA_BAND_HZ
from .errors import (
    ConfigError,
    EventQueueOverflowError,
    check_integer,
    check_number,
)
from .golden import all_passed, run_golden_checks
from .graphs import (
    PowerLaw,
    avg_degree_random,
    powerlaw_max_degree,
    powerlaw_mean_degree,
    unique_sorted,
)
from .hardware import (
    HardwareProfile,
    network_area,
    neuron_power,
    node_area,
    system_power_density,
    wafer_area,
)
from .pool import Platform, PoolQuery, describe_pool, max_frequency
from .sim import pool_sweep, run, synchrony_metrics

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def sci(x: float) -> str:
    """Scientific notation with six significant digits."""
    return f"{x:.5e}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return sci(float(value))


def emit_csv(header: list[str], rows: list[list], out_dir: Path | None,
             filename: str) -> None:
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text)
        print(f"wrote {out_dir / filename}")
    else:
        sys.stdout.write(text)


def emit_table(header: list[str], rows: list[list]) -> None:
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _emit(args, header, rows, filename) -> None:
    if args.format == "table" and args.out is None:
        emit_table(header, rows)
    else:
        emit_csv(header, rows, args.out, filename)


def _finite_float(text: str) -> float:
    """A number from the command line; NaN and infinity are rejected."""
    try:
        return check_number("value", float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}") from None


def _whole_number(minimum: int):
    """An argparse type for a whole number no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            return check_integer("value", int(text), ge=minimum)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a whole number >= {minimum}, got {text!r}"
            ) from None
    return parse


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [_finite_float(v) for v in text.split(",")
                  if v.strip() != ""]
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"{flag}: {exc}")
    if not values:
        raise ConfigError(f"{flag} produced an empty list")
    return values


def _n_grid(n_min: float, n_max: float, per_decade: int) -> np.ndarray:
    if n_min < 2 or n_max < n_min:
        raise ConfigError("need 2 <= n-min <= n-max")
    decades = np.log10(n_max) - np.log10(n_min)
    points = max(2, int(round(decades * per_decade)) + 1)
    grid = np.logspace(np.log10(n_min), np.log10(n_max), points)
    # Whole numbers kept in float64: sizes beyond the int64 range (earth
    # scale passes 1e20) stay exact, and ``int(n)`` prints each one. The
    # grid increases, so rounding can only repeat a neighbour.
    return unique_sorted(np.rint(grid))


def cmd_degree(args) -> int:
    if not args.random and not args.powerlaw:
        raise ConfigError("choose --random and/or --powerlaw")
    ns = _n_grid(args.n_min, args.n_max, args.per_decade)
    rows = []
    if args.random:
        for path_length in _parse_floats(args.path_length, "--path-length"):
            for n in ns:
                rows.append([int(n), path_length,
                             avg_degree_random(float(n), path_length), ""])
    if args.powerlaw:
        for alpha in _parse_floats(args.alpha, "--alpha"):
            dist = PowerLaw(alpha=alpha, k_min=args.k_min, k_max=args.k_max)
            for n in ns:
                rows.append([int(n), alpha,
                             powerlaw_mean_degree(dist, float(n)),
                             powerlaw_max_degree(dist, float(n))])
    _emit(args, ["n_total", "param", "avg_degree", "max_degree"],
          rows, "degree.csv")
    return EXIT_OK


def _pool_frequencies(args) -> list[float]:
    if args.f is not None:
        return [args.f]
    if args.f_min is None or args.f_max is None:
        raise ConfigError("give --f, or both --f-min and --f-max")
    if args.f_min <= 0 or args.f_max < args.f_min:
        raise ConfigError("need 0 < f-min <= f-max")
    return np.logspace(np.log10(args.f_min), np.log10(args.f_max),
                       args.points).tolist()


def cmd_pool(args) -> int:
    platform = Platform(signal_velocity=args.v, element_width=args.w,
                        element_kind=args.kind, label="cli")
    rows = []
    for f in _pool_frequencies(args):
        result = describe_pool(platform, PoolQuery(frequency=f,
                                                   dimension=args.n))
        rows.append([f, result.diameter,
                     result.area if result.area is not None else "",
                     result.population])
    _emit(args, ["frequency", "diameter_m", "area_m2", "population"],
          rows, "pool.csv")
    if args.format == "table" and args.out is None:
        side = EARTH_SURFACE_AREA ** 0.5
        f_earth = max_frequency(platform, side)
        lo, hi = THETA_BAND_HZ
        print()
        print(f"earth-surface square side (m): {sci(side)}")
        print(f"max integrable frequency at that extent (Hz): {sci(f_earth)}")
        print(f"theta band [{lo:g}, {hi:g}] Hz integrable at earth scale: "
              f"{'yes' if f_earth >= hi else 'no'}")
    return EXIT_OK


def _profile_from(args) -> HardwareProfile:
    if args.config is not None:
        return build_hardware_profile(load_experiment_config(args.config))
    return HardwareProfile.wafer_300mm()


def _degree_law(args):
    """A fixed ``--mean-degree`` when given, else a power law."""
    if args.mean_degree is not None:
        return args.mean_degree
    return PowerLaw(alpha=args.alpha, k_min=args.k_min, k_max=args.k_max)


def cmd_area(args) -> int:
    profile = _profile_from(args)
    if args.mode == "node":
        degrees = _parse_floats(args.degrees, "--degrees")
        if not all(k.is_integer() for k in degrees):
            raise ConfigError(
                f"--degrees expects whole numbers, got {args.degrees}")
        rows = [[int(k), node_area(k, profile)] for k in degrees]
        _emit(args, ["degree", "node_area_m2"], rows, "node_area.csv")
    else:
        ns = _n_grid(args.n_min, args.n_max, args.per_decade)
        dist = _degree_law(args)
        rows = [[int(n), network_area(float(n), dist, profile)] for n in ns]
        _emit(args, ["n_total", "network_area_m2"], rows, "network_area.csv")
    return EXIT_OK


def cmd_power(args) -> int:
    profile = _profile_from(args)
    report = neuron_power(args.degree, args.frequency, profile)
    rows = [
        ["pulse_energy_j", report.pulse_energy],
        ["device_power_w", report.device_power],
        ["wall_power_w", report.wall_power],
        ["node_power_density_w_per_m2", report.power_density],
    ]
    if args.n_total is not None:
        dist = _degree_law(args)
        rate = args.rate if args.rate is not None else args.frequency
        rows.append(["system_power_density_w_per_m2",
                     system_power_density(args.n_total, dist, rate, profile)])
        rows.append(["network_area_m2",
                     network_area(args.n_total, dist, profile)])
        rows.append(["wafer_area_m2", wafer_area(profile.wafer_diameter)])
    _emit(args, ["quantity", "value"], rows, "power.csv")
    return EXIT_OK


def _require_config(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError("this subcommand requires --config <file>")
    return load_experiment_config(args.config)


def cmd_simulate(args) -> int:
    config = build_sim_config(_require_config(args), seed_override=args.seed)
    trace = run(config)
    report = synchrony_metrics(trace, lock_threshold=config.lock_threshold)
    print(f"nodes: {config.n_nodes}")
    print(f"duration_s: {sci(config.duration)}")
    print(f"spikes: {len(trace.times)}")
    print(f"events: {trace.n_events}")
    print(f"order_parameter: {sci(report.order_parameter)}")
    print(f"lock_threshold: {sci(report.lock_threshold)}")
    print(f"locked: {'yes' if report.locked else 'no'}")
    if report.convergence_time is not None:
        print(f"convergence_time_s: {sci(report.convergence_time)}")
    else:
        print("convergence_time_s: none")
    header = ["node_id", "fire_time_s"]
    rows = [[int(node), t] for node, t in zip(trace.nodes, trace.times)]
    if args.out is not None:
        emit_csv(header, rows, args.out, "spike_trace.csv")
    elif args.format == "csv":
        emit_csv(header, rows, None, "spike_trace.csv")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _require_config(args)
    base = build_sim_config(config)
    override = (_parse_floats(args.diameters, "--diameters")
                if args.diameters is not None else None)
    diameters, seeds = build_sweep(config, base, override, args.n_seeds)
    result = pool_sweep(base, diameters, seeds)
    rows = [[row.diameter_over_vt, row.mean_order_parameter, row.stderr]
            for row in result.rows]
    _emit(args, ["diameter_over_vT", "mean_order_parameter", "stderr"],
          rows, "sweep.csv")
    return EXIT_OK


def cmd_paper_check(args) -> int:
    results = run_golden_checks()
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        tol = (f"rel {r.tolerance:.0%}" if r.mode == "relative"
               else f"factor {r.tolerance:g}")
        print(f"{verdict}  {r.name:<24} value={sci(r.value)}  "
              f"expected={sci(r.expected)}  tol={tol}")
    ok = all_passed(results)
    print(f"{'all checks passed' if ok else 'SOME CHECKS FAILED'} "
          f"({sum(r.passed for r in results)}/{len(results)})")
    payload = {
        "schema_version": 1,
        "all_passed": ok,
        "results": [
            {
                "name": r.name,
                "description": r.description,
                "value": r.value,
                "expected": r.expected,
                "tolerance_mode": r.mode,
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
            for r in results
        ],
    }
    out_dir = args.out if args.out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / "paper_check.json"
    out_file.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_file}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lightcone`` parser, built once per process.

    Parsing reads the parser and never changes it, so every ``main`` call
    shares one and the argparse setup is paid once.
    """
    # One parent per shared flag group; each subcommand takes only the
    # groups it reads.
    out, fmt, config, seed, grid, law = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    out.add_argument("--out", type=Path, default=None,
                     help="directory for output files (default: stdout)")
    fmt.add_argument("--format", choices=("csv", "table"), default="table",
                     help="output format (default: table)")
    config.add_argument("--config", type=Path, default=None,
                        help="experiment config file (JSON, SI units)")
    seed.add_argument("--seed", type=_whole_number(0), default=None,
                      help="override simulation.seed (placement and phases)")
    grid.add_argument("--n-min", type=_finite_float, default=1e2)
    grid.add_argument("--n-max", type=_finite_float, default=1e8)
    grid.add_argument("--per-decade", type=_whole_number(1), default=4)
    law.add_argument("--alpha", type=_finite_float, default=2.0)
    law.add_argument("--k-min", type=_finite_float, default=1.0)
    law.add_argument("--mean-degree", type=_finite_float, default=None,
                     help="degenerate fixed-degree distribution")

    parser = argparse.ArgumentParser(
        prog="lightcone",
        description="Degree requirements, velocity-limited pools, hardware "
                    "budgets and pulse-coupled oscillator simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degree", parents=[out, fmt, grid],
                       help="degree statistics over a grid of network sizes")
    p.add_argument("--random", action="store_true",
                   help="random-network average degree vs size")
    p.add_argument("--powerlaw", action="store_true",
                   help="power-law mean and max degree vs size")
    p.add_argument("--path-length", default="2",
                   help="comma-separated path lengths (with --random)")
    p.add_argument("--alpha", default="2,2.5,3",
                   help="comma-separated exponents (with --powerlaw)")
    p.add_argument("--k-min", type=_finite_float, default=1.0)
    p.add_argument("--k-max", type=_finite_float, default=None,
                   help="explicit degree cutoff (default: natural cutoff)")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("pool", parents=[out, fmt],
                       help="pool diameter, area and population")
    p.add_argument("--v", type=_finite_float, default=SPEED_OF_LIGHT,
                   help="signal velocity in m/s (default: light speed)")
    p.add_argument("--w", type=_finite_float, default=1.9e-5,
                   help="element width in m")
    p.add_argument("--kind", choices=("neuron", "synapse"), default="synapse")
    p.add_argument("--n", type=int, choices=(1, 2, 3), default=2,
                   help="spatial dimension")
    p.add_argument("--f", type=_finite_float, default=None,
                   help="single frequency, Hz")
    p.add_argument("--f-min", type=_finite_float, default=None)
    p.add_argument("--f-max", type=_finite_float, default=None)
    p.add_argument("--points", type=_whole_number(1), default=25)
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("area", parents=[out, fmt, config, grid, law],
                       help="node area vs degree, or network area vs size")
    p.add_argument("--mode", choices=("node", "network"), default="node")
    p.add_argument("--degrees", default="0,1,10,100,1000,10000",
                   help="comma-separated whole degrees (node mode)")
    p.add_argument("--k-max", type=_finite_float, default=None)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("power", parents=[out, fmt, config, law],
                       help="photon-budget power report for one node")
    p.add_argument("--degree", type=_finite_float, default=1e6)
    p.add_argument("--frequency", type=_finite_float, default=1e6,
                   help="firing rate of the node, Hz")
    p.add_argument("--n-total", type=_finite_float, default=None,
                   help="also report the system power density for n nodes")
    p.add_argument("--rate", type=_finite_float, default=None,
                   help="mean system firing rate, Hz (default: --frequency)")
    p.set_defaults(func=cmd_power, k_max=None)

    p = sub.add_parser("simulate", parents=[out, fmt, config, seed],
                       help="run one oscillator simulation from --config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[out, fmt, config],
                       help="order parameter vs pool diameter from --config")
    p.add_argument("--diameters", default=None,
                   help="comma-separated diameters in units of v*T")
    p.add_argument("--n-seeds", type=_whole_number(1), default=10)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("paper-check", parents=[out],
                       help="run the built-in golden-number suite")
    p.set_defaults(func=cmd_paper_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, EventQueueOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
