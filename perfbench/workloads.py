"""The benchmark's workloads: inputs made from the seed, and output checks.

area-lowsnr   ``tdcoop run``: default geometry (K = 3, 60 degree sector),
              all seven strategies, 100 placements, rate 0.25,
              encode/decode factors 0.5, SNR -10 and 0 dB, two workers.
              Every point stops in one or two rounds.
edge-highsnr  ``harness.sweep_fixed_placement`` on the rim cluster of
              the acceptance tests at the slope benchmark's rates, one
              worker, SNR points that reach 100 events well below the
              default trial ceiling.
bounds-grid   ``tdcoop run --bounds-only``: same strategies, 250
              placements, SNR -10..45 dB in 5 dB steps, no theta search.

Only the seed varies between runs: it is the master seed of the CLI
configs and the stream seed of the edge sweep.  Each workload keeps 100
placements or a fixed geometry wherever the stopping round of a point
depends on it, so that the trials a point needs do not change with the
seed; see README.md for the expected events that make this hold.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import checks

STRATEGIES = ("mac", "rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc2-af", "uc3-af")
NUM_USERS = 3
GAMMA = 4.0
RELAY = (0.5, 0.0)
POWER = {"rate": 0.25, "relay_factor": 0.5, "encode_factor": 0.5, "decode_factor": 0.5}

# Diversity order L of each strategy's lower bound, which falls as P^-L.
LOWER_BOUND_ORDER = {"rc-ddf": 2, "rc-af": 2, "uc2-af": 2, "uc2-ddf": 3, "uc3-ddf": 3, "uc3-af": 3}

# Rim cluster (radius, degrees) of the acceptance slope benchmark.
EDGE_CLUSTER = ((1.0, 29.0), (0.99, 31.0), (0.98, 33.0))
# (strategy, rate, SNR points); the position is the stream index.  The
# decode-and-forward points are the acceptance slope window; the AF points
# sit one to two 5 dB steps lower, where a point needs at most 393k trials
# instead of 6.3M, so a sweep takes seconds and can be repeated in a run.
# A point's trials must not depend on the seed: at each point the expected
# pooled events are at most about 70 one round before it stops and at least
# about 150 when it stops (uc3-ddf tops out at 39 dB because 40 dB expects
# 125), except at points where the extra round costs next to nothing.
EDGE_SWEEPS = (
    ("mac", 9.0, (30.0, 35.0, 40.0, 45.0)),
    ("rc-ddf", 9.0, (30.0, 35.0, 40.0, 45.0)),
    ("uc2-ddf", 9.0, (30.0, 35.0, 40.0)),
    ("uc3-ddf", 9.0, (30.0, 35.0, 39.0)),
    ("rc-af", 5.0, (25.0, 30.0, 35.0)),
    ("uc2-af", 5.0, (25.0, 35.0)),
    ("uc3-af", 4.0, (20.0, 25.0)),
)
# Slope checks over each strategy's points: the relay-like strategies
# (diversity 2) stay at or below 2.25, full user cooperation exceeds 2.5.
EDGE_SLOPE_MAX = {"rc-ddf": 2.25, "rc-af": 2.25, "uc2-af": 2.25}
EDGE_SLOPE_MIN = {"uc2-ddf": 2.5, "uc3-ddf": 2.5}

AREA_GRID = (-10.0, 0.0)
BOUNDS_GRID = tuple(float(x) for x in range(-10, 50, 5))


class Workload:
    """One workload: how it runs and what a correct output looks like."""

    def __init__(self, name, workers, sweep_s, cli):
        self.name = name
        self.workers = workers
        # Nominal seconds of one sweep on the reference machine; a run of
        # --seconds S does max(1, S // sweep_s) sweeps whatever the clock
        # says, so every run attempts the same points.
        self.sweep_s = sweep_s
        self.cli = cli

    def points(self):
        if self.name == "edge-highsnr":
            return [(s, snr) for s, _, grid in EDGE_SWEEPS for snr in grid]
        grid = AREA_GRID if self.name == "area-lowsnr" else BOUNDS_GRID
        return [(s, snr) for s in STRATEGIES for snr in grid]

    def config(self, seed: int) -> dict:
        """The YAML config of a CLI workload (JSON is valid YAML)."""
        base = {"seed": seed, "power": dict(POWER), "strategies": list(STRATEGIES)}
        if self.name == "area-lowsnr":
            return {**base, "placements": 100, "snr_db": list(AREA_GRID), "workers": self.workers}
        return {
            **base,
            "placements": 250,
            "snr_db": list(BOUNDS_GRID),
            "bounds_only": True,
            "bounds": {"optimize": False},
        }

    def write_config(self, path: Path, seed: int):
        path.write_text(json.dumps(self.config(seed), indent=1) + "\n", encoding="utf-8")

    def check(self, rows, distances=None):
        """Failures of one sweep's rows; a missing or extra point fails too.

        distances are the user-to-destination distances of the run's
        placements (CLI workloads only)."""
        got = [(r["strategy"], r["snr_db"]) for r in rows]
        if got != self.points():
            return [checks.Failure("points", tuple(self.points()), f"rows {got} do not match the sweep")]
        if self.name == "edge-highsnr":
            return check_edge(rows)
        return check_area(rows, distances, bounds_only=self.name == "bounds-grid")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("area-lowsnr", workers=2, sweep_s=7.0, cli=True),
        Workload("edge-highsnr", workers=1, sweep_s=6.0, cli=False),
        Workload("bounds-grid", workers=1, sweep_s=3.5, cli=True),
    )
}


def _float_or_none(text: str):
    return float(text) if text != "" else None


def parse_csv(text: str) -> list[dict]:
    """Rows of a tdcoop results CSV with typed columns."""
    rows = []
    for r in csv.DictReader(io.StringIO(text)):
        rows.append(
            {
                "strategy": r["strategy"],
                "snr_db": float(r["snr_db"]),
                "ptot_db": float(r["ptot_db"]),
                "outage": _float_or_none(r["outage"]),
                "ci95": _float_or_none(r["ci95"]),
                "bound_lower": float(r["bound_lower"]),
                "bound_upper": float(r["bound_upper"]),
                "trials": int(r["trials"]),
                "ceiling_flag": int(r["ceiling_flag"]),
            }
        )
    return rows


def user_distances(placements_csv: str) -> list[float]:
    """User-to-destination distances of every placement in an export."""
    nodes: dict[str, dict[str, tuple[float, float]]] = {}
    for r in csv.DictReader(io.StringIO(placements_csv)):
        nodes.setdefault(r["placement"], {})[r["node"]] = (float(r["x"]), float(r["y"]))
    out = []
    for pl in nodes.values():
        dx, dy = pl["d"]
        out += [math.hypot(x - dx, y - dy) for node, (x, y) in pl.items() if node.startswith("u")]
    return out


def _by_strategy(rows):
    groups: dict[str, list[dict]] = {}
    for r in rows:
        groups.setdefault(r["strategy"], []).append(r)
    return groups


def check_area(rows, distances, bounds_only: bool):
    """Checks shared by area-lowsnr and bounds-grid."""

    def ptot(name, snr):
        return checks.total_power_db(
            name, NUM_USERS, 10.0 ** (snr / 10.0), POWER["rate"], POWER["encode_factor"],
            POWER["decode_factor"], POWER["relay_factor"],
        )

    def mac_mean(snr):
        return checks.mac_area_mean(POWER["rate"], distances, GAMMA, NUM_USERS, 10.0 ** (snr / 10.0))

    out = checks.check_rows(rows, ptot, bounds_only)
    groups = _by_strategy(rows)
    out += checks.check_bounds_equal(groups["mac"], mac_mean, "mac-bounds")
    if not bounds_only:
        out += checks.check_mc_close(groups["mac"], mac_mean, "mac-closed-form")
    for name, order in LOWER_BOUND_ORDER.items():
        out += checks.check_lower_bound_decay(groups[name], order)
    return out


def edge_users():
    return checks.polar_positions(EDGE_CLUSTER)


def check_edge(rows):
    out = checks.check_rows(rows, None, bounds_only=False)
    groups = _by_strategy(rows)
    users = edge_users()
    rates = {name: rate for name, rate, _ in EDGE_SWEEPS}

    def mac_exact(snr):
        dists = [math.hypot(x, y) for x, y in users]
        return checks.mac_area_mean(rates["mac"], dists, GAMMA, NUM_USERS, 10.0 ** (snr / 10.0))

    def rc_ddf_exact(snr):
        return checks.rc_ddf_outage(rates["rc-ddf"], 10.0 ** (snr / 10.0), users, RELAY, GAMMA, NUM_USERS)

    out += checks.check_mc_close(groups["mac"], mac_exact, "mac-closed-form")
    out += checks.check_mc_close(groups["rc-ddf"], rc_ddf_exact, "rc-ddf-quadrature")
    for name, hi in EDGE_SLOPE_MAX.items():
        out += checks.check_slope(groups[name], high=hi)
    for name, lo in EDGE_SLOPE_MIN.items():
        out += checks.check_slope(groups[name], low=lo)
    # mac's bound pair is its closed form, checked above at MC_Z.
    for name, pts in groups.items():
        if name != "mac":
            out += checks.check_sandwich(max(pts, key=lambda r: r["snr_db"]))
    return out


def failed_points(failures) -> set:
    """Distinct points named by a list of failures."""
    return {point for f in failures for point in f.points}


def edge_inputs():
    """The edge workload's placement and (strategy, power, grid) sweeps."""
    from tdcoop.network import DESTINATION, RELAY as RELAY_ID, GeometryParams, NodePlacement, user_id
    from tdcoop.power import PowerConfig
    from tdcoop.strategies import parse_strategy

    positions = {DESTINATION: (0.0, 0.0), RELAY_ID: RELAY}
    for k, xy in enumerate(edge_users(), start=1):
        positions[user_id(k)] = xy
    placement = NodePlacement(params=GeometryParams(), positions=positions)
    sweeps = [
        (parse_strategy(name, NUM_USERS), PowerConfig(rate=rate), grid)
        for name, rate, grid in EDGE_SWEEPS
    ]
    return placement, sweeps


def run_edge_sweep(seed: int, workers: int) -> list[dict]:
    """The edge-highsnr sweep through the library (call inside the child)."""
    from tdcoop import harness

    placement, sweeps = edge_inputs()
    rows = []
    for idx, (strategy, power, grid) in enumerate(sweeps):
        ests = harness.sweep_fixed_placement(
            strategy, placement, power, grid, seed, strategy_index=idx, workers=workers
        )
        for snr, e in zip(grid, ests):
            rows.append(
                {
                    "strategy": strategy.name,
                    "snr_db": snr,
                    "outage": e.p_hat,
                    "ci95": e.ci95,
                    "bound_lower": e.bounds.lower,
                    "bound_upper": e.bounds.upper,
                    "trials": e.trials,
                    "events": e.events,
                    "ceiling_flag": int(e.ceiling_flag),
                }
            )
    return rows
