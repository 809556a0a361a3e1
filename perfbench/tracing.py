"""Per-layer tracing from outside the program.

The tracer rebinds the module attributes through which one tdcoop module
calls another, so that every call into a layer records a span (name,
parent, start, end) in flat in-memory arrays.  Nothing in tdcoop is
edited: the rebinding lives only in the traced process.  A layer's self
time is its spans' time minus the time of their child spans; the parent
side combines the spans of three runs into the per-layer metrics
(``layer_metrics``).

Three trace modes, each run in a fresh process (run.py runs light and
full twice each and keeps the faster run of each):

- ``light``: only ``mc.run_cells`` and ``mc.count_events``; about one
  span per Monte Carlo task, so this run stands in for the untraced
  program and gives task time without kernel-level tracing.
- ``full``: every boundary listed in ``install``; runs at one worker,
  because spans recorded in worker processes are lost.
- ``pool``: only ``mc.run_cells`` and the process pool's ``map``, at the
  workload's worker count, seen from the parent process.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

TARGET_EVENTS = 100  # the workloads run at the program's default target


class Tracer:
    """Span recorder.  Spans stay in memory until ``summary``/``save``."""

    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.kernel_trials: Counter = Counter()
        self.tasks = 0
        self.events = 0
        self.points = 0
        self.rounds = 0
        self._max_round = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str):
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return span

    def timed(self, fn, name: str):
        """fn wrapped so that each call records a span called name."""
        return functools.wraps(fn)(self._span(fn, name))

    def patch(self, module, attr: str, replacement):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(self, module, attr: str, name: str):
        self.patch(module, attr, self.timed(getattr(module, attr), name))

    def restore(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- Monte Carlo boundaries ------------------------------------------

    def wrap_run_cells(self, mc):
        timed = self.timed(mc.run_cells, "mc.run_cells")

        @functools.wraps(mc.run_cells)
        def run_cells(*args, **kwargs):
            self._max_round = -1
            out = timed(*args, **kwargs)
            self.points += 1
            self.rounds += self._max_round + 1
            return out

        self.patch(mc, "run_cells", run_cells)

    def wrap_count_events(self, mc):
        """Task spans named per kernel; counts tasks, trials, events, rounds."""
        original = mc.count_events
        per_kernel = {}

        @functools.wraps(original)
        def count_events(kernel, params, seed, path, trials):
            if kernel not in per_kernel:
                per_kernel[kernel] = self._span(original, f"mc.task.{kernel}")
            got = per_kernel[kernel](kernel, params, seed, path, trials)
            self.tasks += 1
            self.kernel_trials[kernel] += trials
            self.events += got
            self._max_round = max(self._max_round, path[2])
            return got

        self.patch(mc, "count_events", count_events)

    def wrap_draws(self, mc):
        """Generators from derive_stream time their exponential and normal draws."""
        original = mc.derive_stream

        @functools.wraps(original)
        def derive_stream(seed, *path):
            return _TimedGenerator(original(seed, *path), self)

        self.patch(mc, "derive_stream", derive_stream)

    def wrap_pool(self, mc):
        """Time the parent's wait in ProcessPoolExecutor.map (submit to last result)."""
        base = mc.ProcessPoolExecutor
        collect = self._span(lambda pool_map, *a, **k: list(pool_map(*a, **k)), "mc.pool_wait")

        class TimedPool(base):
            def map(self, fn, *iterables, **kwargs):
                return collect(super().map, fn, *iterables, **kwargs)

        self.patch(mc, "ProcessPoolExecutor", TimedPool)

    # -- results -----------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.intc),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def summary(self, wall_s: float) -> dict:
        """Calls, inclusive and self seconds per span name, plus counters."""
        name, parent, start, end = self._arrays()
        n = name.size
        dur = (end - start) / 1e9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        # Inclusive time counts a span only when its parent has another name,
        # so a function that re-enters itself is not counted twice.
        outermost = ~nested | (name[np.where(nested, parent, 0)] != name)
        k = len(self.span_names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name[outermost], weights=dur[outermost], minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            "wall_s": wall_s,
            "spans": int(n),
            "top_level_s": float(dur[~nested].sum()),
            "by_name": {
                s: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
                for i, s in enumerate(self.span_names)
            },
            "kernel_trials": dict(self.kernel_trials),
            "tasks": self.tasks,
            "events": self.events,
            "points": self.points,
            "rounds": self.rounds,
        }

    def save(self, path):
        """Write the raw spans (name ids, parent index, start/end ns)."""
        name, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.span_names), name=name, parent=parent, start=start, end=end)


class _TimedGenerator:
    """Proxy for a numpy Generator whose channel draws record spans."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self.exponential = tracer._span(gen.exponential, "mc.draw")
        self.standard_normal = tracer._span(gen.standard_normal, "mc.draw")

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def install(tracer: Tracer, mode: str):
    """Rebind tdcoop's inter-module call sites for one trace mode."""
    from tdcoop import af, cli, config, ddf, harness, mathcore, mc

    if mode == "pool":
        tracer.wrap_run_cells(mc)
        tracer.wrap_pool(mc)
        return
    tracer.wrap_run_cells(mc)
    tracer.wrap_count_events(mc)
    if mode == "light":
        return
    if mode != "full":
        raise ValueError(f"unknown trace mode {mode!r}")
    tracer.wrap_draws(mc)
    for attr in ("listen_fraction_rc", "listen_fraction_uc2", "trial_mutual_info_rc", "trial_mutual_info_uc2"):
        tracer.wrap(ddf, attr, "ddf.rate")
    tracer.wrap(ddf, "multihop_schedule", "ddf.schedule")
    tracer.wrap(ddf, "trial_mutual_info_multihop", "ddf.multihop_mi")
    tracer.wrap(ddf, "capacity", "mathcore.capacity")
    for attr in ("af2_equivalent_channel", "afmh_equivalent_channel"):
        tracer.wrap(af, attr, "af.channel")
    tracer.wrap(af, "af_trial_mutual_info", "af.logdet")
    for attr in ("ddf_bounds_rc", "ddf_bounds_uc2", "ddf_bounds_multihop"):
        tracer.wrap(harness, attr, "ddf.bounds")
    for attr in ("af_bounds_2hop", "af_bounds_multihop"):
        tracer.wrap(harness, attr, "af.bounds")
    tracer.wrap(harness, "mac_outage", "harness.mac_outage")
    for attr in ("user_burst_power", "relay_power", "total_power"):
        tracer.wrap(harness, attr, "power")
    tracer.wrap(harness, "sample_placement", "network.placement")
    tracer.wrap(harness, "format_rows", "cli.render")
    tracer.wrap(harness, "sweep_fixed_placement", "harness.sweep")
    tracer.wrap(cli, "run_experiment", "harness.sweep")
    tracer.wrap(cli, "config_from_dict", "config.parse")
    tracer.wrap(cli, "main", "cli.main")
    # Nothing calls the hypoexponential CDF today; a conditional estimator
    # would, through mathcore or through a module that imported it.
    for attr in ("hypoexp_cdf", "hypoexp_leading_cdf_term"):
        original = getattr(mathcore, attr)
        timed = tracer.timed(original, "mathcore.hypoexp")
        for module in (mc, ddf, af, harness, config, mathcore):
            if getattr(module, attr, None) is original:
                tracer.patch(module, attr, timed)


# ---------------------------------------------------------------------------
# Parent side: per-layer metrics from the three runs' summaries.

KERNELS = ("mac", "rc-ddf", "uc2-ddf", "ucmh-ddf", "af2", "afmh")
AF_KERNELS = ("af2", "afmh")


def _get(summary, name, field):
    return summary["by_name"].get(name, {}).get(field, 0)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(full: dict, light: dict, pool: dict | None, workers: int, points: int) -> dict:
    """Per-layer metrics of one workload (name -> (value, unit)).

    ``full`` gives every layer's time and count; ``light`` the task time
    without kernel-level tracing and the untraced stand-in wall time;
    ``pool`` (workloads with more than one worker) the parent-side busy
    and pool-wait times at the workload's worker count.
    """
    f = full
    trials = sum(f["kernel_trials"].values())
    task_s = sum(_get(f, f"mc.task.{k}", "incl_s") for k in KERNELS)
    m = {
        "mc.points": (f["points"], "count"),
        "mc.rounds": (f["rounds"], "count"),
        "mc.tasks": (f["tasks"], "count"),
        "mc.trials": (trials, "count"),
        "mc.events": (f["events"], "count"),
        "mc.overshoot": (_ratio(f["events"], f["points"] * TARGET_EVENTS), "ratio"),
        "mc.task_s": (task_s, "s"),
        "mc.ns_per_trial": (_ratio(task_s, trials, 1e9), "ns"),
    }
    for k in KERNELS:
        m[f"mc.ns_per_trial.{k}"] = (
            _ratio(_get(f, f"mc.task.{k}", "incl_s"), f["kernel_trials"].get(k, 0), 1e9),
            "ns",
        )
    draw_s = _get(f, "mc.draw", "incl_s")
    m["mc.draw_s"] = (draw_s, "s")
    m["mc.draw_ns_per_trial"] = (_ratio(draw_s, trials, 1e9), "ns")
    m["mc.kernel_self_s"] = (sum(_get(f, f"mc.task.{k}", "self_s") for k in KERNELS), "s")
    busy_src = pool if pool is not None else light
    busy_s = _get(busy_src, "mc.run_cells", "incl_s")
    light_task_s = sum(_get(light, f"mc.task.{k}", "incl_s") for k in KERNELS)
    m["mc.busy_s"] = (busy_s, "s")
    m["mc.self_s"] = (_get(f, "mc.run_cells", "self_s"), "s")
    m["mc.pool_wait_s"] = (_get(pool, "mc.pool_wait", "incl_s") if pool else 0.0, "s")
    m["mc.pool_efficiency"] = (_ratio(light_task_s, workers * busy_s), "ratio")

    rate_s = _get(f, "ddf.rate", "incl_s")
    sched_s = _get(f, "ddf.schedule", "incl_s")
    mi_s = _get(f, "ddf.multihop_mi", "incl_s")
    cap_s = _get(f, "mathcore.capacity", "incl_s")
    ddf_bounds_s = _get(f, "ddf.bounds", "incl_s")
    ddf_bounds_n = _get(f, "ddf.bounds", "calls")
    m.update(
        {
            "ddf.rate_s": (rate_s, "s"),
            "ddf.schedule_s": (sched_s, "s"),
            "ddf.multihop_mi_s": (mi_s, "s"),
            "ddf.bounds_s": (ddf_bounds_s, "s"),
            "ddf.bounds_calls": (ddf_bounds_n, "count"),
            "ddf.bounds_us_per_call": (_ratio(ddf_bounds_s, ddf_bounds_n, 1e6), "us"),
            "ddf.self_s": (sum(_get(f, s, "self_s") for s in ("ddf.rate", "ddf.schedule", "ddf.multihop_mi", "ddf.bounds")), "s"),
        }
    )
    channel_s = _get(f, "af.channel", "incl_s")
    logdet_s = _get(f, "af.logdet", "incl_s")
    af_bounds_s = _get(f, "af.bounds", "incl_s")
    af_bounds_n = _get(f, "af.bounds", "calls")
    af_trials = sum(f["kernel_trials"].get(k, 0) for k in AF_KERNELS)
    m.update(
        {
            "af.channel_s": (channel_s, "s"),
            "af.logdet_s": (logdet_s, "s"),
            "af.ns_per_trial": (_ratio(channel_s + logdet_s, af_trials, 1e9), "ns"),
            "af.bounds_s": (af_bounds_s, "s"),
            "af.bounds_calls": (af_bounds_n, "count"),
            "af.bounds_us_per_call": (_ratio(af_bounds_s, af_bounds_n, 1e6), "us"),
            "af.self_s": (sum(_get(f, s, "self_s") for s in ("af.channel", "af.logdet", "af.bounds")), "s"),
            "mathcore.capacity_calls": (_get(f, "mathcore.capacity", "calls"), "count"),
            "mathcore.capacity_s": (cap_s, "s"),
            "mathcore.hypoexp_calls": (_get(f, "mathcore.hypoexp", "calls"), "count"),
            "mathcore.hypoexp_s": (_get(f, "mathcore.hypoexp", "incl_s"), "s"),
        }
    )
    cells = _get(f, "harness.mac_outage", "calls") + ddf_bounds_n + af_bounds_n
    harness_self = _get(f, "harness.sweep", "self_s") + _get(f, "harness.mac_outage", "self_s")
    m.update(
        {
            "harness.points": (points, "count"),
            "harness.cells": (cells, "count"),
            "harness.self_s": (harness_self, "s"),
            "harness.us_per_cell": (_ratio(harness_self, cells, 1e6), "us"),
            "power.calls": (_get(f, "power", "calls"), "count"),
            "power.s": (_get(f, "power", "incl_s"), "s"),
            "network.placements": (_get(f, "network.placement", "calls"), "count"),
            "network.placement_s": (_get(f, "network.placement", "incl_s"), "s"),
            "config.parse_s": (_get(f, "config.parse", "incl_s"), "s"),
            "cli.self_s": (_get(f, "cli.main", "self_s") + _get(f, "cli.render", "self_s"), "s"),
        }
    )
    m["trace.wall_s"] = (f["wall_s"], "s")
    m["trace.untraced_wall_s"] = (light["wall_s"], "s")
    m["trace.overhead_s"] = (f["wall_s"] - light["wall_s"], "s")
    m["trace.unattributed_s"] = (f["wall_s"] - f["top_level_s"], "s")
    m["trace.spans"] = (f["spans"], "count")
    return m


# Layer self times that add up to trace.wall_s together with trace.unattributed_s.
SELF_TIME_PARTS = (
    "cli.self_s",
    "config.parse_s",
    "harness.self_s",
    "power.s",
    "network.placement_s",
    "mc.self_s",
    "mc.kernel_self_s",
    "mc.draw_s",
    "ddf.self_s",
    "af.self_s",
    "mathcore.capacity_s",
    "mathcore.hypoexp_s",
)
