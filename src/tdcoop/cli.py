"""Command line entry points.

tdcoop run -c cfg.yaml [--seed N] [-o out.csv] [run flags]   sweep to CSV
tdcoop export-placements -c cfg.yaml [--seed N] [-o placements.csv]

The config file alone must be a valid experiment; each flag then
replaces its key's value, and the result is checked again.  Exit codes:
0 success, 2 invalid configuration or usage, or a placement with a link
whose d^gamma is 0 or past the float range (both commands sample every
placement before they compute or write anything), 3 output not writable
(``run`` checks it before the sweep starts).  ``run`` prints one stderr
warning per sweep point that stopped at its trial ceiling short of the
target events; the CSV is unchanged.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, config_from_dict, read_yaml
from .harness import format_rows, run_experiment
from .network import LinkRangeError

__all__ = ["main"]


def _parse_snr(text: str) -> list[str] | dict[str, str]:
    """--snr-db: comma list '0,5,10' or inclusive range '0:45:5'.

    A range becomes the config file's {start, stop, step} mapping, so
    both spellings build the same grid; the config parses the numbers.
    """
    if ":" not in text:
        return [p for p in text.split(",") if p.strip()]
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("an snr range must be start:stop:step")
    return dict(zip(("start", "stop", "step"), parts))


def _build_config(args):
    """The config file's experiment with the flags named in args.flags
    written over it.

    Each flag's argparse dest is the config key it replaces; --strategies
    picks, with their settings, the file's entries whose parsed
    ``Strategy.name`` it lists (lower-cased, surrounding spaces dropped).
    """
    raw = read_yaml(args.config)
    parsed = config_from_dict(raw)  # the file alone must be a valid experiment
    for key in args.flags:
        value = getattr(args, key)
        if key == "strategies" and value is not None:
            have = {s.name: e for s, e in zip(parsed.strategies, raw[key])}
            wanted = [w.strip().lower() for w in value.split(",") if w.strip()]
            missing = [w for w in wanted if w not in have]
            if missing:
                raise ConfigError(f"strategies not in config: {missing}")
            value = [have[w] for w in wanted]
        if value is not None:
            raw[key] = value
    return config_from_dict(raw)


def _check_writable(path) -> None:
    """Open path as the final write will, but in append mode, so an
    existing file keeps its bytes; a file made here is removed again."""
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        # realpath: through a dangling symlink open() made the link's
        # target; remove that and keep the link.
        os.remove(os.path.realpath(path))


def _cmd_run(cfg, args) -> int:
    try:
        # Fail on an unwritable output before the sweep, not after it.
        if cfg.output_path is not None:
            _check_writable(cfg.output_path)
        rows = run_experiment(cfg)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    for r in rows:
        if r["user_k"] == "avg" and r["ceiling_flag"]:
            print(
                f"warning: {r['strategy']} at {r['snr_db']:g} dB stopped at the trial "
                f"ceiling: {r['events']} of {cfg.target_events} target events "
                f"in {r['trials']} trials",
                file=sys.stderr,
            )
    if cfg.output_path is None:
        sys.stdout.write(format_rows(rows))
    else:
        print(f"wrote {len(rows)} rows to {cfg.output_path}")
    return 0


def _cmd_export_placements(cfg, args) -> int:
    lines = ["placement,node,x,y"]
    for idx, placement in enumerate(cfg.placements()):
        for node in placement.node_ids:
            x, y = placement.positions[node]
            lines.append(f"{idx},{node},{format(x, '.12g')},{format(y, '.12g')}")
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {cfg.num_placements} placements to {args.output}")
    return 0


def _add_shared(parser: argparse.ArgumentParser):
    parser.add_argument("-c", "--config", required=True, help="YAML config path")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("-o", "--output", default=None, help="output CSV path")


def _add_run_only(parser: argparse.ArgumentParser):
    parser.add_argument("--workers", type=int, default=None,
                        help="most processes a run uses, capped at the CPUs; they start at "
                        "the first round of at least workers x 2^20 trials")
    parser.add_argument("--target-events", type=int, default=None,
                        help="pooled outage events at which a point stops")
    parser.add_argument("--trial-ceiling", type=int, default=None,
                        help="most trials per point, summed over its cells")
    parser.add_argument("--snr-db", type=_parse_snr, default=None, help="'0,5,10' or '0:45:5'")
    parser.add_argument("--strategies", default=None, help="comma-separated subset")
    parser.add_argument(
        "--bounds-only", action="store_const", const=True, default=None,
        help="skip Monte Carlo, emit bounds columns only",
    )
    parser.add_argument(
        "--per-user-rows", action="store_const", const=True, default=None,
        help="emit per-user rows after each averaged row",
    )


# The config keys that run's flags replace: each flag's dest is its key.
_RUN_FLAGS = ("seed", "output", "workers", "target_events", "trial_ceiling", "snr_db",
              "strategies", "bounds_only", "per_user_rows")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tdcoop",
        description="Outage simulation for time-duplexed cooperative networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a sweep and emit the results CSV")
    _add_shared(run_p)
    _add_run_only(run_p)
    run_p.set_defaults(fn=_cmd_run, flags=_RUN_FLAGS)
    exp_p = sub.add_parser("export-placements", help="emit the placement ensemble")
    _add_shared(exp_p)
    # -o names export-placements' own CSV, not the config's output.
    exp_p.set_defaults(fn=_cmd_export_placements, flags=("seed",))
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(cfg, args)
    except LinkRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
