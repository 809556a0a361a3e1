"""In-process side of the benchmark, run by run.py in a fresh process.

  child.py setup --workload edge-highsnr
      import tdcoop and build the edge workload's inputs, then exit
      (the CLI workloads time ``tdcoop export-placements`` instead);
  child.py sweep --workload W --seed S --workers N --out PATH
      [--config CFG] [--trace light|full|pool --summary PATH [--spans PATH]]
      run one sweep: the library sweep for edge-highsnr (rows as JSON),
      ``tdcoop.cli.main`` for the CLI workloads (the CSV); with --trace,
      record spans (see tracing.py) and write their summary.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("action", choices=("setup", "sweep"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--config")
    ap.add_argument("--out")
    ap.add_argument("--trace", choices=("light", "full", "pool"))
    ap.add_argument("--summary")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    if args.action == "setup":
        workloads.edge_inputs()
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, args.trace)
    if wl.cli:
        from tdcoop import cli

        argv = ["run", "-c", args.config, "-o", args.out, "--workers", str(args.workers)]
        rc = cli.main(argv)
        if rc != 0:
            return rc
    else:
        rows = workloads.run_edge_sweep(args.seed, args.workers)
        Path(args.out).write_text(json.dumps(rows), encoding="utf-8")
    wall = time.perf_counter() - T0
    if tracer is not None:
        tracer.restore()
        Path(args.summary).write_text(json.dumps(tracer.summary(wall)), encoding="utf-8")
        if args.spans:
            tracer.save(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
