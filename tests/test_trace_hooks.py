"""The benchmark's trace hooks still find the call sites they rebind.

``perfbench/tracing.py`` times the program's layers from outside: it
rebinds the module attributes through which one tdcoop module calls
another (``ddf.multihop_schedule``, ``harness.user_burst_power``, ...).
A refactor that renames or drops one of those names breaks
``perfbench/run.py --trace 1``; these tests catch that in the unit suite.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
from tdcoop import af, cli, config, ddf, harness, mathcore, mc  # noqa: E402
from tdcoop.network import GeometryParams, sample_placement  # noqa: E402
from tdcoop.power import PowerConfig  # noqa: E402
from tdcoop.strategies import parse_strategy  # noqa: E402

SEVEN = ("mac", "rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc2-af", "uc3-af")

MODULES = (af, cli, config, ddf, harness, mathcore, mc)


def bindings():
    return [{name: id(value) for name, value in vars(m).items()} for m in MODULES]


@pytest.mark.parametrize("mode", ("full", "light", "pool"))
def test_install_then_restore(mode):
    # mc.ProcessPoolExecutor is resolved on first use, and a lazy name
    # enters vars(mc) the first time anything reads it: read it before the
    # snapshot, as the pool mode's install does.
    mc.ProcessPoolExecutor
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, mode)
        assert bindings() != before
    finally:
        tracer.restore()
    assert bindings() == before


def test_full_mode_records_the_layers(monkeypatch):
    placement = sample_placement(GeometryParams(), mc.derive_stream(1, 0, 0))
    survivors = mc._survivors
    kept = []

    def spy(rng, trials, rate, gain, slots):
        out = survivors(rng, trials, rate, gain, slots)
        kept.append(out[0])
        return out

    monkeypatch.setattr(mc, "_survivors", spy)
    # Every kernel's task spans and draws.  rc-ddf runs on the uc2 kernel
    # but keeps its own task label.  At rate 4 the direct screen keeps
    # trials in every rc-ddf and uc2-ddf task (one batch per user), so each
    # task draws its survivor rows once; mac and afmh (uc3-af) are not
    # screened and draw once per task.  A screened task draws rows only when
    # it has survivors: two of the three tasks have none for uc3-ddf at rate
    # 0.25 and for rc-af (on the af2 kernel) at rate 1.
    draws = {}
    for strategy, rate, spans in (
        ("mac", 1.0, ("mc.task.mac",)),
        ("uc3-ddf", 0.25, ("mc.task.ucmh-ddf", "ddf.schedule", "ddf.multihop_mi")),
        ("rc-ddf", 4.0, ("mc.task.rc-ddf", "ddf.rate")),
        ("uc2-ddf", 4.0, ("mc.task.uc2-ddf", "ddf.rate")),
        ("rc-af", 1.0, ("mc.task.af2",)),
        ("uc3-af", 1.0, ("mc.task.afmh",)),
    ):
        kept.clear()
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer, "full")
            harness.estimate_outage(
                parse_strategy(strategy, 3), placement, PowerConfig(user_power=10.0, rate=rate),
                trials=64, seed=1,
            )
        finally:
            tracer.restore()
        # A span name is registered when its function is rebound, so each
        # layer must show calls, not just a name.
        by_name = tracer.summary(1.0)["by_name"]
        for name in ("mc.run_cells", "mc.draw", "power") + spans:
            assert name in tracer.span_names, (strategy, name)
            assert by_name[name]["calls"] > 0, (strategy, name)
        # three tasks of one batch each
        assert tracer.tasks == 3
        draws[strategy] = (by_name["mc.draw"]["calls"], sum(k > 0 for k in kept))
    assert draws["rc-ddf"] == draws["uc2-ddf"] == (3, 3)
    assert draws["uc3-ddf"] == draws["rc-af"] == (1, 1)
    assert draws["mac"] == draws["uc3-af"] == (3, 0)


def test_full_mode_records_the_bound_layers():
    """A bounds-only sweep calls each bound function through the names the
    tracer rebinds: one span per cell, which covers the whole SNR grid."""
    cfg = harness.ExperimentConfig(
        geometry=GeometryParams(),
        power=PowerConfig(),
        strategies=tuple(parse_strategy(n, 3) for n in SEVEN),
        snr_db=(0.0, 10.0),
        num_placements=4,
        bounds_only=True,
    )
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, "full")
        harness.run_experiment(cfg)
    finally:
        tracer.restore()
    calls = {name: v["calls"] for name, v in tracer.summary(1.0)["by_name"].items()}
    cells = 4 * 3
    assert calls.get("ddf.bounds") == 3 * cells
    assert calls.get("af.bounds") == 3 * cells
    assert calls.get("harness.mac_outage") == cells


def test_pool_mode_times_the_workers(monkeypatch):
    """The ``pool`` mode times the map of the pool that a sweep's handle
    starts, and the workers give one process's estimates.

    Rounds of 6,144, 18,432 and 5,424 trials against a start threshold of
    2 * 4096: the last two run on the workers, and the point has events.
    """
    monkeypatch.setattr(mc, "MAX_TASK_TRIALS", 4096)
    monkeypatch.setattr(mc, "_cpu_count", lambda: 2)
    placement = sample_placement(GeometryParams(), mc.derive_stream(1, 0, 0))

    def sweep(workers):
        return harness.sweep_fixed_placement(
            parse_strategy("rc-ddf", 3), placement, PowerConfig(rate=2.0), [10.0], seed=1,
            trial_ceiling=30_000, workers=workers,
        )

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, "pool")
        par = sweep(2)
    finally:
        tracer.restore()
    assert tracer.summary(1.0)["by_name"]["mc.pool_wait"]["calls"] == 2
    assert par == sweep(1)
    assert par[0].events > 0
