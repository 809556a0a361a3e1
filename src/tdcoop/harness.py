"""Experiment sweeps: outage estimates, area averaging, CSV rows.

A sweep point is one (strategy, SNR) pair; the SNR grid is over the
per-user power P_1 in dB.  Each point runs the adaptive trial engine
over every (placement, user) cell, pools the integer counts, and pairs
the estimate with the analytic bounds averaged the same way.  All
randomness is derived from the master seed by the keyed-stream rule in
the engine module, so rows are byte-identical across runs and worker
counts.

One builder describes a strategy's cells for the whole grid: ``_cells``
gathers each cell's d^gamma links from its placement's table
(``NodePlacement.link_pow``), and ``_user_powers`` cuts each user's
burst and its forwarders' budgets from one per-node power table over
the grid.  ``_bounds`` reads both with one bound call per cell, and
``_tasks`` joins them at one grid point into the trial engine's
parameter records.  Every entry point takes its points from
``_points``; the sweeps read them through ``_sweep``, which owns the
worker pool and the point seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import mc
from .af import af_bounds_2hop, af_bounds_multihop
from .ddf import BoundPair, ddf_bounds_multihop, ddf_bounds_rc, ddf_bounds_uc2
from .network import DESTINATION, RELAY, GeometryParams, NodePlacement, sample_placement, user_id
from .power import PowerConfig, relay_power, total_power, user_burst_power
from .strategies import Strategy, _is_int

__all__ = [
    "CSV_HEADER",
    "ExperimentConfig",
    "OutageEstimate",
    "mac_outage",
    "estimate_outage",
    "sweep_fixed_placement",
    "run_experiment",
    "format_rows",
]

# Largest decimal exponent, in magnitude, of a power the bounds form: the burst
# power raised to its branch count, or 2^R raised to the square of it.
_MAX_POW10 = 300

CSV_HEADER = "strategy,user_k,snr_db,ptot_db,outage,ci95,bound_lower,bound_upper,trials,ceiling_flag"


def _check_strategy(strategy: Strategy, num_users: int, rate: float, snr_db) -> None:
    """Reject a strategy sized for another user count than the geometry's
    num_users, and a rate, or a user power P at any of the points snr_db
    (10 log10 P), at which the strategy's bounds leave the float range.

    With L = ``strategy.branches`` the bounds raise K*P, or its inverse,
    to the power L, and 2^R to the power L^2 (AF's (2^(LR) - 1)^L and the
    multihop bracket at split 1/L).  ``ExperimentConfig`` and
    ``estimate_outage`` both call this, so no entry point runs a strategy
    on the wrong users or overflows.
    """
    if strategy.num_users != num_users:
        raise ValueError(
            f"strategy {strategy.name} is sized for {strategy.num_users} users, "
            f"but the geometry has {num_users}"
        )
    L = strategy.branches
    for x in snr_db:
        if L * abs(math.log10(strategy.num_users) + x / 10.0) > _MAX_POW10:
            raise ValueError(
                f"snr_db {x:g} is out of range for {strategy.name}: its bounds raise K*P "
                f"to the power +-{L}, so |snr_db/10 + log10 K| must not exceed "
                f"{_MAX_POW10 / L:.4g}"
            )
    if L * L * rate * math.log10(2.0) > _MAX_POW10:
        raise ValueError(
            f"rate {rate:g} is out of range for {strategy.name}: its bounds raise 2^R "
            f"to the power {L * L}, so the rate must not exceed "
            f"{_MAX_POW10 / (L * L * math.log10(2.0)):.4g}"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep run."""

    geometry: GeometryParams
    power: PowerConfig
    strategies: tuple[Strategy, ...]
    snr_db: tuple[float, ...]
    num_placements: int = 100
    master_seed: int = 0
    target_events: int = mc.TARGET_EVENTS
    trial_ceiling: int = mc.TRIAL_CEILING
    workers: int = 1
    output_path: str | None = None
    per_user_rows: bool = False
    optimize_bounds: bool = False
    bounds_only: bool = False

    def __post_init__(self):
        if len(self.strategies) == 0:
            raise ValueError("strategy list must not be empty")
        names = [s.name for s in self.strategies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate strategy names in {names}")
        grid = tuple(float(x) for x in self.snr_db)
        if not all(math.isfinite(x) for x in grid):
            raise ValueError(f"snr_db must be finite, got {grid}")
        if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_db grid must be nonempty and strictly increasing")
        object.__setattr__(self, "snr_db", grid)
        for name in ("num_placements", "target_events", "trial_ceiling", "workers"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not _is_int(self.master_seed):
            raise ValueError(f"master_seed must be an integer, got {self.master_seed!r}")
        # mc.derive_stream's key passes through float64 when its words
        # straddle 2^63, which holds every integer below 2^53 exactly.
        if not 0 <= self.master_seed < 2**53:
            raise ValueError(f"master_seed must lie in [0, 2^53), got {self.master_seed}")
        cells = self.num_placements * self.geometry.num_users
        if not self.bounds_only and self.trial_ceiling < cells:
            raise ValueError(
                f"trial_ceiling {self.trial_ceiling} is below one trial per cell "
                f"({self.num_placements} placements x {self.geometry.num_users} users = {cells})"
            )
        for s in self.strategies:
            _check_strategy(s, self.geometry.num_users, self.power.rate, grid)

    def placements(self) -> list[NodePlacement]:
        """The run's placement ensemble (stream keyed by placement index)."""
        return [
            sample_placement(self.geometry, mc.derive_stream(self.master_seed, 0, i))
            for i in range(self.num_placements)
        ]


@dataclass(frozen=True)
class OutageEstimate:
    """Pooled Monte Carlo estimate for one sweep point."""

    p_hat: float
    trials: int
    ci95: float
    bounds: BoundPair
    events: int = 0
    ceiling_flag: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError("p_hat must lie in [0, 1]")


def mac_outage(rate: float, burst_power, dk_pow):
    """Closed-form direct-link outage 1 - exp(-(2^R - 1) d^g / P_burst).

    burst_power is the source's burst power (``user_burst_power``: K P_k
    without cooperation) and dk_pow is d^gamma of the source-destination
    link.  Both are scalars or columns that broadcast against each other
    (a sweep passes one cell's d^gamma and the SNR grid's bursts); the
    result has their shape.  A row with d^gamma not > 0 or a burst not
    >= 0 raises ValueError; a zero burst gives float(rate > 0).
    """
    d, b = np.broadcast_arrays(np.asarray(dk_pow, dtype=float), np.asarray(burst_power, dtype=float))
    scale = -math.expm1(rate * math.log(2.0))
    out = []
    # Per row in Python floats: numpy's expm1 can differ from math.expm1
    # in the last bit.
    for i, (dv, bv) in enumerate(zip(d.ravel().tolist(), b.ravel().tolist())):
        if not dv > 0:
            raise ValueError(f"mac_outage requires positive inputs: d^gamma {dv} at row {i}")
        if not bv >= 0:
            raise ValueError(f"mac_outage requires a burst >= 0: {bv} at row {i}")
        out.append(-math.expm1(scale * dv / bv) if bv != 0.0 else float(rate > 0))
    out = np.array(out).reshape(d.shape)
    return float(out) if out.ndim == 0 else out


def _cells(strategy: Strategy, placements) -> list[tuple]:
    """Every (placement, user) cell, placement-major: (placement index,
    user index, kernel, dk, dj, jk, hh).

    The last four are the cell's d^gamma links: destination-source (a
    float), destination-forwarder and forwarder-source (one per
    forwarder) and forwarder-forwarder (a matrix with a zero diagonal).
    They are gathered from the placement's ``link_pow`` table, read once
    per placement; the trial kernels and the bounds read them as they are.
    """
    # Each user's forwarders: the relay under rc, its helper users otherwise.
    users = [
        (user_id(k), [RELAY] if strategy.uses_relay else [user_id(j) for j in strategy.helpers(k)])
        for k in range(1, strategy.num_users + 1)
    ]
    cells = []
    for i, placement in enumerate(placements):
        pw = placement.link_pow()
        for u, (src, fwd) in enumerate(users):
            dj = tuple(pw[DESTINATION][h] for h in fwd)
            jk = tuple(pw[h][src] for h in fwd)
            hh = tuple(tuple(pw[h][o] for o in fwd) for h in fwd)
            cells.append((i, u, strategy.kernel, pw[DESTINATION][src], dj, jk, hh))
    return cells


def _user_powers(strategy: Strategy, grid: list[PowerConfig]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each user's (burst, budgets) over the SNR grid.

    Both are cut from one power table with a row per grid point: column
    0 holds the relay's budget and column k user k's burst.  burst is
    the user's own column, shaped (points,); budgets holds its
    forwarders' columns, shaped (points, forwarders): the relay's under
    rc, its helpers' under uc and none under mac.
    """
    users = range(1, strategy.num_users + 1)
    table = np.array([[relay_power(pc)] + [user_burst_power(strategy, pc, k) for k in users] for pc in grid])
    # np.take, not a list index: an empty list index (mac's) raises peak
    # memory on first use.
    return [
        (table[:, k], np.take(table, [0] if strategy.uses_relay else strategy.helpers(k), axis=1))
        for k in users
    ]


def _bounds(cells, powers, rate: float, optimize: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's bound pair at every grid point: (lower, upper), each
    shaped (grid points, cells) in cell order.

    One bound-function call per cell covers the whole grid, with the
    cell's links as scalars and its user's live rows as rows: the points
    where its burst is positive.  The DDF bounds weigh the source by 1
    and each forwarder by its budget over the burst.  A source whose
    forwarders have no budget at any point (mac's, which has none, or
    rc's at relay factor 0) takes ``mac_outage``'s closed form twice: a
    silent forwarder adds nothing to the DDF rate, and an AF gain of 0
    leaves det(I + P HH*) = (1 + P |h_dk|^2)^2, so either rate is the
    direct link's capacity.  A silent source is in outage at every
    positive rate, so at a point off its live rows both columns are
    float(rate > 0), ``mac_outage``'s rule, and no bound is called.
    """
    lower = np.full((len(powers[0][0]), len(cells)), float(rate > 0.0))
    upper = lower.copy()
    rows = []
    for burst, budgets in powers:
        # Live rows picked in Python: a numpy mask costs more peak memory
        # on first use than a grid's few rows repay.
        live = np.array([s for s, b in enumerate(burst.tolist()) if b > 0.0], dtype=int)
        lambdas = np.column_stack((np.ones(len(live)), budgets[live] / burst[live, None]))
        rows.append((live, burst[live], lambdas, not any(map(any, budgets.tolist()))))
    for c, (_, u, kernel, dk, dj, jk, _) in enumerate(cells):
        live, burst, lambdas, direct_only = rows[u]
        if not len(burst):
            continue
        if direct_only:
            cf = mac_outage(rate, burst, dk)
            pair = BoundPair(lower=cf, upper=cf)
        elif kernel in ("af2", "afmh"):
            af_bounds = af_bounds_2hop if kernel == "af2" else af_bounds_multihop
            pair = af_bounds(rate, burst, dk, dj, jk)
        elif kernel == "rc-ddf":
            pair = ddf_bounds_rc(rate, burst, lambdas[:, 1], dk, dj[0], jk[0], optimize=optimize)
        else:
            ddf_bounds = ddf_bounds_uc2 if kernel == "uc2-ddf" else ddf_bounds_multihop
            pair = ddf_bounds(rate, burst, lambdas, np.array((dk,) + dj), np.array(jk), optimize=optimize)
        # Through the column's view: a 1-D index writes faster than a 2-D one.
        lower[:, c][live] = pair.lower
        upper[:, c][live] = pair.upper
    return lower, upper


def _tasks(cells, powers, s: int, rate: float, mode: str) -> list[tuple]:
    """``mc.run_cells`` entries at grid point s: (placement, user, kernel,
    params) per cell.

    params is mc's 8-key record, the same for every kernel: the rate, the
    source's burst power, its forwarders' budgets, the multihop mode and
    the cell's links, all Python floats and tuples of them.
    """
    at_point = [(float(burst[s]), tuple(budgets[s].tolist())) for burst, budgets in powers]
    tasks = []
    for i, u, kernel, dk, dj, jk, hh in cells:
        burst, budgets = at_point[u]
        params = dict(rate=rate, burst=burst, budgets=budgets, mode=mode)
        params.update(dk_pow=dk, dj_pow=dj, jk_pow=jk, hh_pow=hh)
        tasks.append((i, u, kernel, params))
    return tasks


@dataclass(frozen=True)
class _Point:
    """One sweep point at cell granularity.  Arrays run in cell order:
    each cell's user index, its events (None when bounds-only) and its
    bound pair; trials is the count every cell ran."""

    users: np.ndarray
    events: np.ndarray | None
    trials: int
    lower: np.ndarray
    upper: np.ndarray
    ceiling_flag: bool

    def bounds(self, user: int | None = None) -> BoundPair:
        picked = slice(None) if user is None else self.users == user
        return BoundPair(
            lower=float(np.mean(self.lower[picked])),
            upper=float(np.mean(self.upper[picked])),
        )

    def estimate(self, user: int | None = None) -> OutageEstimate:
        """Counts pooled over every cell, or over one user's cells."""
        picked = slice(None) if user is None else self.users == user
        events = self.events[picked]
        e = int(events.sum())
        n = self.trials * events.size
        p = e / n
        return OutageEstimate(
            p_hat=p,
            trials=n,
            ci95=1.96 * math.sqrt(p * (1.0 - p) / n),
            bounds=self.bounds(user),
            events=e,
            ceiling_flag=self.ceiling_flag,
        )


def _points(strategy: Strategy, placements, grid: list[PowerConfig], optimize: bool, seeds, **run):
    """Yield strategy's ``_Point`` over placements at each power config of
    grid (one rate), bounds only without seeds.

    Cells, user powers and bounds are built once for the grid; each point
    runs ``mc.run_cells`` at its seed in seeds, with run's keywords.
    """
    rate = grid[0].rate
    cells = _cells(strategy, placements)
    users = np.array([cell[1] for cell in cells])
    powers = _user_powers(strategy, grid)
    lower, upper = _bounds(cells, powers, rate, optimize)
    for s in range(len(grid)):
        # Row copies: a point the caller still holds must not keep the whole
        # grid's arrays alive while the next strategy builds its own.
        bounds = (lower[s].copy(), upper[s].copy())
        if seeds is None:
            yield _Point(users, None, 0, *bounds, False)
            continue
        tasks = _tasks(cells, powers, s, rate, strategy.multihop_mode)
        events, trials, flagged = mc.run_cells(tasks, seeds[s], **run)
        yield _Point(users, events, trials, *bounds, flagged)


def estimate_outage(
    strategy: Strategy,
    placement: NodePlacement,
    pc: PowerConfig,
    trials: int,
    seed: int,
) -> OutageEstimate:
    """Fixed-size user-averaged estimate on one placement.

    ``trials`` is per user; the estimate pools the per-user counts, which
    equals the arithmetic user average because every user runs the same
    count.  Streams are keyed exactly like the sweep engine's, so a sweep
    point that stops at its ceiling reproduces this function.  seed is
    such a point seed, an integer in [0, 2^64): a ``mc.mix64`` word, or a
    hand-picked seed below 2^53 (above it, neighbouring seeds share
    streams; see README, Determinism).
    """
    if not _is_int(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    # At P = 0 there is no power to range-check; the rate still is.
    snr_db = [10.0 * math.log10(pc.user_power)] if pc.user_power > 0 else []
    _check_strategy(strategy, placement.params.num_users, pc.rate, snr_db)
    n = trials * strategy.num_users
    # A target above every possible count runs each cell to its ceiling
    # share; reaching it is the plan, not a flag.
    (point,) = _points(strategy, [placement], [pc], False, [seed], target_events=n + 1, trial_ceiling=n)
    return replace(point, ceiling_flag=False).estimate()


def _sweep(cfg: ExperimentConfig, placements, strategies):
    """Yield (strategy, snr_db, power config, point) over cfg's SNR grid
    for each (stream index, strategy) pair of strategies.

    Points are seeded ``mc.mix64(master_seed, 1, stream index, snr index)``
    and share one ``mc.worker_pool``, open until the last one is read.
    Its worker processes start at the sweep's first round of at least
    workers * ``mc.MAX_TASK_TRIALS`` trials and run every later round;
    a sweep whose rounds stay smaller runs in this process alone.
    """
    grid = [cfg.power.with_user_power(10.0 ** (snr / 10.0)) for snr in cfg.snr_db]
    with mc.worker_pool(cfg.workers) as pool:
        run = dict(target_events=cfg.target_events, trial_ceiling=cfg.trial_ceiling, pool=pool)
        for index, strategy in strategies:
            seeds = None if cfg.bounds_only else [
                mc.mix64(cfg.master_seed, 1, index, s) for s in range(len(grid))
            ]
            points = _points(strategy, placements, grid, cfg.optimize_bounds, seeds, **run)
            for snr, pc, point in zip(cfg.snr_db, grid, points):
                yield strategy, snr, pc, point


def sweep_fixed_placement(
    strategy: Strategy,
    placement: NodePlacement,
    base_power: PowerConfig,
    snr_db,
    seed: int,
    strategy_index: int = 0,
    trial_ceiling: int = mc.TRIAL_CEILING,
    workers: int = 1,
) -> list[OutageEstimate]:
    """Adaptive sweep on one hand-picked geometry (no area averaging).

    Useful for slope benchmarks where the node layout must stay fixed
    across the grid.  Streams are keyed exactly like a one-placement
    sweep under the same seed.  ``strategy_index`` is the strategy's
    position in that sweep's list, an integer >= 0.
    """
    if not _is_int(strategy_index) or strategy_index < 0:
        raise ValueError(f"strategy_index must be an integer >= 0, got {strategy_index!r}")
    cfg = ExperimentConfig(
        geometry=placement.params,
        power=base_power,
        strategies=(strategy,),
        snr_db=tuple(snr_db),
        num_placements=1,
        master_seed=seed,
        trial_ceiling=trial_ceiling,
        workers=workers,
    )
    return [point.estimate() for *_, point in _sweep(cfg, [placement], [(strategy_index, strategy)])]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def format_rows(rows: list[dict]) -> str:
    """Render result rows as the CSV body (header included)."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r["strategy"],
                    str(r["user_k"]),
                    _fmt(r["snr_db"]),
                    _fmt(r["ptot_db"]),
                    _fmt(r["outage"]) if r["outage"] is not None else "",
                    _fmt(r["ci95"]) if r["ci95"] is not None else "",
                    _fmt(r["bound_lower"]),
                    _fmt(r["bound_upper"]),
                    str(r["trials"]),
                    str(int(r["ceiling_flag"])),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Run the full sweep; returns rows and writes the CSV when configured.

    Row order: strategies in config order, SNR ascending, the averaged
    row first and then per-user rows when enabled.  Every placement is
    drawn before the first point, so one whose links leave the float
    range raises ``LinkRangeError`` before any work or output.
    """
    rows = []
    for strategy, snr, pc, point in _sweep(cfg, cfg.placements(), enumerate(cfg.strategies)):
        ptot_db = 10.0 * math.log10(total_power(strategy, pc))
        targets: list[int | None] = [None]
        if cfg.per_user_rows:
            targets += list(range(strategy.num_users))
        for user in targets:
            if cfg.bounds_only:
                b, outage, ci, n, events = point.bounds(user), None, None, 0, None
            else:
                est = point.estimate(user)
                b, outage, ci = est.bounds, est.p_hat, est.ci95
                n, events = est.trials, est.events
            rows.append(
                {
                    "strategy": strategy.name,
                    "user_k": "avg" if user is None else user + 1,
                    "snr_db": snr,
                    "ptot_db": ptot_db,
                    "outage": outage,
                    "ci95": ci,
                    "bound_lower": b.lower,
                    "bound_upper": b.upper,
                    "trials": n,
                    "events": events,
                    "ceiling_flag": point.ceiling_flag,
                }
            )
    if cfg.output_path is not None:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(format_rows(rows))
    return rows
