"""Byte-identity probes: run small frozen workloads and print one sha256 each.

Run from the repository root, with nothing installed:

    PYTHONPATH=src python3 scripts/probe_digests.py

A change that must not move any number prints the same digests before
and after it.  With ``--expect`` the script compares each digest with a
saved run, prints ``same`` or ``DIFF`` after it and exits 1 on any DIFF:

    PYTHONPATH=src python3 scripts/probe_digests.py > before.txt
    PYTHONPATH=src python3 scripts/probe_digests.py --expect before.txt

Everything a digest covers is fixed here: the configs, the worker counts
and how results turn into bytes (CLI probes hash the CSV file; the
library probes hash ``json.dumps`` of the edge rows and the
newline-joined ``repr`` of ``OutageEstimate`` values).  A probe run
at several worker counts must give the same bytes at each, or the
script exits 1.

  a  acceptance 8: seed 11, 4 placements, 0/10/20 dB, rate 1, mac,
     rc-ddf, uc2-af, trial ceiling 120,000; workers 1 and 2
  b  default geometry, the seven strategies (uc2-ddf with ring coop_sets
     {1: [2], 2: [3], 3: [1]}, uc3-ddf per-fraction), 20 placements,
     seed 7, -10/0/10/20 dB, trial ceiling 200,000, per-user rows,
     bounds.optimize; workers 1 and 2
  c  b with --bounds-only
  d  perfbench/workloads.run_edge_sweep(seed 1, workers 1)
  e  estimate_outage on the edge workload's rim cluster, 20,000 trials
     per user, seed 5: for each of the seven strategies in turn, at
     (rate 1, P 10) and then (rate 4, P 1000)
  f  b's settings with uc3-ddf alone, accumulating mode
  g  b's settings with uc3-ddf alone, per-fraction mode
  h  b's settings at num_users 4 with uc4-ddf and uc4-af (three helpers)
  i  the bounds-grid sweep: default geometry, the seven strategies, 250
     placements, seed 2001, -10..45 dB in 5 dB steps, rate 0.25,
     relay/encode/decode factors 0.5, bounds.optimize off; --bounds-only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
PROBES = tuple("abcdefghi")
SEVEN = ["mac", "rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc2-af", "uc3-af"]

ACCEPTANCE_8 = {
    "seed": 11,
    "placements": 4,
    "snr_db": [0.0, 10.0, 20.0],
    "target_events": 100,
    "trial_ceiling": 120000,
    "power": {"rate": 1.0},
    "strategies": ["mac", "rc-ddf", "uc2-af"],
}
SMALL_AREA = {
    "seed": 7,
    "placements": 20,
    "snr_db": [-10.0, 0.0, 10.0, 20.0],
    "trial_ceiling": 200000,
    "per_user_rows": True,
    "bounds": {"optimize": True},
}
PROBE_B = {
    **SMALL_AREA,
    "strategies": [
        "mac",
        "rc-ddf",
        {"name": "uc2-ddf", "coop_sets": {1: [2], 2: [3], 3: [1]}},
        {"name": "uc3-ddf", "multihop_mode": "per-fraction"},
        "rc-af",
        "uc2-af",
        "uc3-af",
    ],
}

BOUNDS_GRID = {
    "seed": 2001,
    "placements": 250,
    "snr_db": [float(x) for x in range(-10, 50, 5)],
    "power": {"rate": 0.25, "relay_factor": 0.5, "encode_factor": 0.5, "decode_factor": 0.5},
    "bounds": {"optimize": False},
    "strategies": SEVEN,
}

# name -> (config, extra CLI arguments, worker counts)
CLI_PROBES = {
    "a": (ACCEPTANCE_8, [], (1, 2)),
    "b": (PROBE_B, [], (1, 2)),
    "c": (PROBE_B, ["--bounds-only"], (1,)),
    "f": ({**SMALL_AREA, "strategies": ["uc3-ddf"]}, [], (1,)),
    "g": (
        {**SMALL_AREA, "strategies": [{"name": "uc3-ddf", "multihop_mode": "per-fraction"}]},
        [],
        (1,),
    ),
    "h": ({**SMALL_AREA, "geometry": {"num_users": 4}, "strategies": ["uc4-ddf", "uc4-af"]}, [], (1,)),
    "i": (BOUNDS_GRID, ["--bounds-only"], (1,)),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests(config: dict, extra: list[str], workers: tuple[int, ...], tmp: Path) -> list[str]:
    """sha256 of ``tdcoop run``'s CSV at each worker count."""
    from tdcoop import cli

    cfg = tmp / "probe.yaml"
    cfg.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    out = []
    for w in workers:
        csv = tmp / f"probe_w{w}.csv"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(["run", "-c", str(cfg), "-o", str(csv), "--workers", str(w), *extra])
        if rc != 0:
            raise SystemExit(f"tdcoop run exited with {rc}: {sink.getvalue()}")
        out.append(_sha(csv.read_bytes()))
    return out


def edge_rows_digest() -> str:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return _sha(json.dumps(workloads.run_edge_sweep(1, 1)).encode())


def estimate_digest() -> str:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    from tdcoop.harness import estimate_outage
    from tdcoop.power import PowerConfig
    from tdcoop.strategies import parse_strategy

    placement, _ = workloads.edge_inputs()
    reprs = []
    for name in SEVEN:
        for rate, p in ((1.0, 10.0), (4.0, 1000.0)):
            pc = PowerConfig(user_power=p, rate=rate)
            est = estimate_outage(parse_strategy(name, 3), placement, pc, trials=20000, seed=5)
            reprs.append(repr(est))
    return _sha("\n".join(reprs).encode())


def read_expected(path: str) -> dict[str, str]:
    """Probe name -> digest from a saved run of this script."""
    expected = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        words = line.split()
        if len(words) >= 2 and words[0] in PROBES and len(words[1]) == 64:
            expected[words[0]] = words[1]
    return expected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Print the sha256 of each frozen probe.")
    ap.add_argument("--expect", metavar="FILE", help="saved output to compare each digest with")
    args = ap.parse_args(argv)
    expected = read_expected(args.expect) if args.expect else None
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in PROBES:
            if name in CLI_PROBES:
                config, extra, workers = CLI_PROBES[name]
                digests = cli_digests(config, extra, workers, Path(tmp))
            else:
                digests = [edge_rows_digest() if name == "d" else estimate_digest()]
                workers = (1,)
            label = "workers " + ",".join(map(str, workers))
            if len(set(digests)) != 1:
                status = 1
                print(f"{name} MISMATCH across {label}: {' '.join(digests)}", flush=True)
                continue
            verdict = ""
            if expected is not None:
                same = expected.get(name) == digests[0]
                verdict = "  same" if same else f"  DIFF (expected {expected.get(name)})"
                if not same:
                    status = 1
            print(f"{name} {digests[0]}  ({label}){verdict}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
