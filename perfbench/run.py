"""Benchmark entry point: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload area-lowsnr --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
``src`` (nothing is installed).  Every measured step runs in a fresh
process with numpy's BLAS pinned to one thread.

--trace 0  times the workload's sweep from outside, --seconds worth of
           whole sweeps: wall and CPU of the process tree (fastest
           sweep), peak RSS, and the median set-up time of fresh
           processes; then checks every output point of every sweep.
--trace 1  runs the workload under the span tracer (tracing.py) and
           reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted (sweep
points), failed (points that hit the trial ceiling or failed a check)
and the metrics with their units.  Failure details go to stderr, and the
exit code is 1 when any point failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUPS_PER_ROUND = 2  # measured set-up processes before each sweep
DEADLINE_S = 170.0  # every child is killed past this point of the run


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float


class RunFailed(RuntimeError):
    pass


def _env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _probe_s(cpu: int) -> float:
    """Seconds a fixed 20 ms Python loop takes on one CPU."""
    os.sched_setaffinity(0, {cpu})
    t0 = time.perf_counter()
    sum(i * i for i in range(100_000))
    return time.perf_counter() - t0


def fastest_cpu():
    """The CPU that runs the probe fastest right now.

    Other tenants slow each CPU of a shared host for stretches of seconds,
    mostly one CPU at a time, so a one-process step pinned to the CPU that
    is fast at its start mostly runs at full speed.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        return min(cpus, key=_probe_s)
    finally:
        os.sched_setaffinity(0, cpus)


def run_child(cmd, log: Path, t_start: float, cpu=None) -> Child:
    """Run cmd to completion, pinned to cpu if given; wall from spawn to
    exit and the rusage of its tree.

    wait4 reports the child's CPU including the worker processes it reaped,
    and the largest resident set among them.
    """
    remaining = DEADLINE_S - (time.perf_counter() - t_start)
    if remaining <= 0:
        raise RunFailed(f"no time left for {cmd[1:4]}")
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=fh, stderr=fh, start_new_session=True)
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        timer = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(map(str, cmd))} exited with {proc.returncode}; see {log}")
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _py(*args):
    return [sys.executable, *map(str, args)]


def setup_cmd(wl, cfg: Path, placements: Path):
    if wl.cli:
        return _py("-m", "tdcoop.cli", "export-placements", "-c", cfg, "-o", placements)
    return _py(HERE / "child.py", "setup", "--workload", wl.name)


def sweep_cmd(wl, seed, cfg: Path, out: Path, workers: int, trace=None, summary=None, spans=None):
    if wl.cli and trace is None:
        return _py("-m", "tdcoop.cli", "run", "-c", cfg, "-o", out, "--workers", workers)
    cmd = _py(HERE / "child.py", "sweep", "--workload", wl.name, "--seed", seed,
              "--workers", workers, "--out", out)
    if wl.cli:
        cmd += ["--config", str(cfg)]
    if trace is not None:
        cmd += ["--trace", trace, "--summary", str(summary)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
    return cmd


def read_rows(wl, path: Path):
    text = path.read_text(encoding="utf-8")
    return workloads.parse_csv(text) if wl.cli else json.loads(text)


class Outcome:
    """Attempted and failed points of a run, with the failures' details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.details: list[str] = []

    def add(self, wl, failures):
        """One sweep's points, failed where any check names them."""
        self.attempted += len(wl.points())
        self.failed += len(workloads.failed_points(failures))
        self.details += [f"{f.check} {list(f.points)}: {f.detail}" for f in failures]


def identity_failures(wl, reference: Path, others):
    """Every point fails when an output is not byte-identical to the reference."""
    want = reference.read_bytes()
    return [
        checks.Failure("identity", tuple(wl.points()), f"{label} differs from {reference.name}")
        for label, path in others
        if path.read_bytes() != want
    ]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(wl, seed, seconds, out: Path, t_start: float):
    """Rounds of (set-up processes, one sweep), interleaved so that both
    sample the same stretches of machine time.

    Sweep times are reported as the minimum over the rounds: on a shared
    host, stretches of seconds run up to 1.4 times slower, and the fastest
    of several repeats of identical work is the steady estimate of its
    cost.  Set-up time is the median of all set-up processes.  One-process
    steps run pinned to the CPU that is fastest when they start.
    """
    log = out / "children.log"
    cfg, placements = out / "config.yaml", out / "placements.csv"
    if wl.cli:
        wl.write_config(cfg, seed)
    result = out / ("sweep.csv" if wl.cli else "sweep.json")
    outcome = Outcome()
    setups, sweeps = [], []
    distances = None
    for i in range(max(1, int(seconds // wl.sweep_s))):
        if i == 0:  # warm-up: fills the bytecode caches, not counted
            run_child(setup_cmd(wl, cfg, placements), log, t_start)
        setups += [
            run_child(setup_cmd(wl, cfg, placements), log, t_start, fastest_cpu())
            for _ in range(SETUPS_PER_ROUND)
        ]
        cpu = fastest_cpu() if wl.workers == 1 else None
        sweeps.append(run_child(sweep_cmd(wl, seed, cfg, result, wl.workers), log, t_start, cpu))
        if distances is None and wl.cli:
            distances = workloads.user_distances(placements.read_text())
        failures = wl.check(read_rows(wl, result), distances)
        if i == 0 and wl.workers > 1:
            single = out / ("workers1.csv" if wl.cli else "workers1.json")
            run_child(sweep_cmd(wl, seed, cfg, single, 1), log, t_start)
            failures += identity_failures(wl, result, [("--workers 1", single)])
        outcome.add(wl, failures)
    metrics = {
        "wall_s": _metric(min(c.wall_s for c in sweeps), "s"),
        "cpu_s": _metric(min(c.cpu_s for c in sweeps), "s"),
        "setup_s": _metric(statistics.median(c.wall_s for c in setups), "s"),
        "peak_rss_mb": _metric(max(c.rss_mb for c in sweeps), "MB"),
    }
    return outcome, metrics


def traced_run(wl, seed, out: Path, t_start: float):
    log = out / "children.log"
    cfg, placements = out / "config.yaml", out / "placements.csv"
    distances = None
    if wl.cli:
        wl.write_config(cfg, seed)
        run_child(setup_cmd(wl, cfg, placements), log, t_start)
        distances = workloads.user_distances(placements.read_text())
    ext = "csv" if wl.cli else "json"
    # light and full alternate twice and the faster of each pair is used,
    # so that a slow stretch of the host does not land on one side only.
    runs = ["light-1", "full-1", "light-2", "full-2"] + (["pool"] if wl.workers > 1 else [])
    summaries = {}
    for run in runs:
        mode = run.split("-")[0]
        workers = wl.workers if mode == "pool" else 1
        summary = out / f"trace-{run}-summary.json"
        spans = out / f"trace-spans-{run}.npz" if mode == "full" else None
        run_child(
            sweep_cmd(wl, seed, cfg, out / f"trace-{run}.{ext}", workers, mode, summary, spans),
            log, t_start, fastest_cpu() if workers == 1 else None,
        )
        summaries[run] = json.loads(summary.read_text())
    full = out / f"trace-full-1.{ext}"
    failures = wl.check(read_rows(wl, full), distances)
    failures += identity_failures(
        wl, full, [(f"trace {r}", out / f"trace-{r}.{ext}") for r in runs if r != "full-1"]
    )
    outcome = Outcome()
    outcome.add(wl, failures)

    def fastest(mode):
        return min((summaries[r] for r in runs if r.startswith(mode)), key=lambda s: s["wall_s"])

    layer = tracing.layer_metrics(
        fastest("full"), fastest("light"), summaries.get("pool"), wl.workers, len(wl.points())
    )
    return outcome, {name: _metric(v, unit) for name, (v, unit) in layer.items()}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a nonnegative 64-bit integer")
    if not (ROOT / "src" / "tdcoop" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'tdcoop'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    out = OUT / f"{wl.name}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so children get killed
    try:
        if args.trace:
            outcome, metrics = traced_run(wl, args.seed, out, t_start)
        else:
            outcome, metrics = timed_run(wl, args.seed, args.seconds, out, t_start)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in outcome.details:
        print(f"FAILED {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not outcome.details,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not outcome.details else 1


if __name__ == "__main__":
    sys.exit(main())
