"""Byte-identity probes: run small frozen workloads and print one sha256 each.

Run from the repository root, with nothing installed:

    PYTHONPATH=src python3 scripts/probe_digests.py

A change that must not move any number prints the same digests before
and after it.  With ``--expect`` the script compares each digest with a
saved run, prints ``same`` or ``DIFF`` after it and exits 1 on any DIFF:

    PYTHONPATH=src python3 scripts/probe_digests.py > before.txt
    PYTHONPATH=src python3 scripts/probe_digests.py --expect before.txt

``scripts/probe_digests.expected`` is this script's output at the
committed code, so one command checks a change without a second
checkout:

    PYTHONPATH=src python3 scripts/probe_digests.py --expect scripts/probe_digests.expected

A change that moves a number on purpose rewrites that file in its own
diff.  The first line names the numpy version, the machine and the SIMD
targets numpy dispatches to (probe m's digest moves when the AVX-512
targets are switched off with ``NPY_DISABLE_CPU_FEATURES``) that the
digests were taken with.  Digests are compared only where that line
equals the running one: elsewhere ``--expect`` prints every digest, says
why it compares none, and exits 1 only on a MISMATCH across worker
counts.  ``tests/test_probe_digests.py`` applies the same rule.

Everything a digest covers is fixed here: the configs, the worker counts,
the task size at more than one worker (``POOL_TASK_TRIALS``) and how
results turn into bytes (CLI probes hash the CSV file; the
library probes hash ``json.dumps`` of the edge rows or of
``run_experiment``'s rows, and the newline-joined ``repr`` of
``OutageEstimate`` or CDF values).  A probe
run at several worker counts must give the same bytes at each, or the
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
  j  run_experiment on default geometry, 4 placements, seed 13, 0/10 dB,
     rate 1, trial ceiling 60,000, strategies uc2-ddf then uc2-af: its
     rows, strategies in config order
  k  ``tdcoop export-placements`` on b's config, without and then with
     --seed 9: sha256 of the two CSV files joined
  l  ``tdcoop run`` on b's config with --strategies uc2-ddf,rc-af
     --snr-db 0:20:10 --seed 9 --per-user-rows (a ring coop_sets entry
     picked by name); workers 1 and 2
  m  hypoexp_cdf then hypoexp_leading_cdf_term at each scalar eta in
     0, 1e-8, 1e-5, 1e-3, 0.1, 1, 10, 100, for the weight sets (1, 2, 3),
     (1, 1 + 1e-9), (1, 1, 1) and (0.5, 0.7, 1.9, 2.4)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
PROBES = tuple("abcdefghijklm")
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

# A sweep runs its rounds in its own process until one reaches workers *
# mc.MAX_TASK_TRIALS trials, so at full-size tasks no probe would start a
# worker.  Above one worker the CLI probes run with tasks of at most this
# many trials.  That splits no cell's round in a, b or l, so the streams
# are unchanged (a split would show as a MISMATCH against one worker),
# and their workers start at the first round.
POOL_TASK_TRIALS = 8192

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
    "l": (
        PROBE_B,
        ["--strategies", "uc2-ddf,rc-af", "--snr-db", "0:20:10", "--seed", "9", "--per-user-rows"],
        (1, 2),
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_config(config: dict, tmp: Path) -> Path:
    path = tmp / "probe.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return path


def _cli(argv: list[str]) -> None:
    """cli.main(argv) with its console output captured; exit on failure."""
    from tdcoop import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"tdcoop {argv[0]} exited with {rc}: {sink.getvalue()}")


def cli_digests(config: dict, extra: list[str], workers: tuple[int, ...], tmp: Path) -> list[str]:
    """sha256 of ``tdcoop run``'s CSV at each worker count."""
    from tdcoop import mc

    cfg = _write_config(config, tmp)
    out = []
    full = mc.MAX_TASK_TRIALS
    for w in workers:
        csv = tmp / f"probe_w{w}.csv"
        mc.MAX_TASK_TRIALS = POOL_TASK_TRIALS if w > 1 else full
        try:
            _cli(["run", "-c", str(cfg), "-o", str(csv), "--workers", str(w), *extra])
        finally:
            mc.MAX_TASK_TRIALS = full
        out.append(_sha(csv.read_bytes()))
    return out


def export_digest(tmp: Path) -> str:
    """sha256 of the placement CSVs of b's config, default seed then seed 9."""
    cfg = _write_config(PROBE_B, tmp)
    data = b""
    for extra in ([], ["--seed", "9"]):
        csv = tmp / "placements.csv"
        _cli(["export-placements", "-c", str(cfg), "-o", str(csv), *extra])
        data += csv.read_bytes()
    return _sha(data)


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


def area_digest() -> str:
    from tdcoop.harness import ExperimentConfig, run_experiment
    from tdcoop.network import GeometryParams
    from tdcoop.power import PowerConfig
    from tdcoop.strategies import parse_strategy

    cfg = ExperimentConfig(
        geometry=GeometryParams(),
        power=PowerConfig(rate=1.0),
        strategies=(parse_strategy("uc2-ddf", 3), parse_strategy("uc2-af", 3)),
        snr_db=(0.0, 10.0),
        num_placements=4,
        master_seed=13,
        trial_ceiling=60000,
    )
    return _sha(json.dumps(run_experiment(cfg)).encode())


def hypoexp_digest() -> str:
    from tdcoop.mathcore import hypoexp_cdf, hypoexp_leading_cdf_term

    reprs = []
    for weights in ((1.0, 2.0, 3.0), (1.0, 1.0 + 1e-9), (1.0, 1.0, 1.0), (0.5, 0.7, 1.9, 2.4)):
        for eta in (0.0, 1e-8, 1e-5, 1e-3, 0.1, 1.0, 10.0, 100.0):
            reprs.append(repr(hypoexp_cdf(weights, eta)))
            reprs.append(repr(hypoexp_leading_cdf_term(weights, eta)))
    return _sha("\n".join(reprs).encode())


LIBRARY_PROBES = {
    "d": edge_rows_digest,
    "e": estimate_digest,
    "j": area_digest,
    "m": hypoexp_digest,
}


def platform_line() -> str:
    """The output's first line: numpy version, machine and the SIMD targets
    numpy dispatches to on this CPU, which the digests depend on."""
    import numpy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"# numpy {numpy.__version__} {platform.machine()} {' '.join(targets)}"


def probe(name: str, tmp: Path) -> tuple[list[str], tuple[int, ...]]:
    """Probe name's digest at each of its worker counts, and the counts."""
    if name in CLI_PROBES:
        config, extra, workers = CLI_PROBES[name]
        return cli_digests(config, extra, workers, tmp), workers
    if name == "k":
        return [export_digest(tmp)], (1,)
    return [LIBRARY_PROBES[name]()], (1,)


def read_expected(path: str) -> dict[str, str]:
    """Probe name -> digest from a saved run of this script."""
    expected = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        words = line.split()
        if len(words) >= 2 and words[0] in PROBES and len(words[1]) == 64:
            expected[words[0]] = words[1]
    return expected


def skip_reason(path: str) -> str | None:
    """None when the saved run at path was taken on the running platform,
    else why its digests cannot be compared: float results may differ in
    the last bit across numpy versions, machines and SIMD targets."""
    recorded = (Path(path).read_text(encoding="utf-8").splitlines() or [""])[0]
    running = platform_line()
    if recorded == running:
        return None
    return f"digests in {path} were taken with '{recorded[2:]}', running '{running[2:]}'"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Print the sha256 of each frozen probe.")
    ap.add_argument("--expect", metavar="FILE", help="saved output to compare each digest with")
    args = ap.parse_args(argv)
    expected = None
    print(platform_line(), flush=True)
    if args.expect:
        skip = skip_reason(args.expect)
        if skip is None:
            expected = read_expected(args.expect)
        else:
            print(f"# not compared: {skip}", flush=True)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in PROBES:
            digests, workers = probe(name, Path(tmp))
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
