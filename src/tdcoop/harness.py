"""Experiment sweeps: outage estimates, area averaging, slopes, CSV rows.

A sweep point is one (strategy, SNR) pair; the SNR grid is over the
per-user power P_1 in dB.  Each point runs the adaptive trial engine
over every (placement, user) cell, pools the integer counts, and pairs
the estimate with the analytic bounds averaged the same way.  All
randomness is derived from the master seed by the keyed-stream rule in
the engine module, so rows are byte-identical across runs and worker
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .af import af_bounds_2hop, af_bounds_multihop
from .ddf import BoundPair, ddf_bounds_multihop, ddf_bounds_rc, ddf_bounds_uc2
from .network import DESTINATION, RELAY, GeometryParams, NodePlacement, sample_placement, user_id
from .power import PowerConfig, relay_power, total_power, user_burst_power
from .strategies import Strategy

__all__ = [
    "CSV_HEADER",
    "ExperimentConfig",
    "OutageEstimate",
    "mac_outage",
    "estimate_outage",
    "area_averaged_outage",
    "sweep_fixed_placement",
    "diversity_slope",
    "run_experiment",
    "format_rows",
]

CSV_HEADER = "strategy,user_k,snr_db,ptot_db,outage,ci95,bound_lower,bound_upper,trials,ceiling_flag"


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
        grid = tuple(float(x) for x in self.snr_db)
        if not all(math.isfinite(x) for x in grid):
            raise ValueError(f"snr_db must be finite, got {grid}")
        if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_db grid must be nonempty and strictly increasing")
        object.__setattr__(self, "snr_db", grid)
        if self.num_placements < 1:
            raise ValueError("num_placements must be >= 1")
        # mc.derive_stream's key passes through float64 when its words
        # straddle 2^63, which holds every integer below 2^53 exactly.
        if not 0 <= self.master_seed < 2**53:
            raise ValueError(f"master_seed must lie in [0, 2^53), got {self.master_seed}")
        if self.target_events < 1 or self.trial_ceiling < 1:
            raise ValueError("target_events and trial_ceiling must be >= 1")
        cells = self.num_placements * self.geometry.num_users
        if not self.bounds_only and self.trial_ceiling < cells:
            raise ValueError(
                f"trial_ceiling {self.trial_ceiling} is below one trial per cell "
                f"({self.num_placements} placements x {self.geometry.num_users} users = {cells})"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for s in self.strategies:
            if s.num_users != self.geometry.num_users:
                raise ValueError(f"strategy {s.name} sized for {s.num_users} users")

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
    result has their shape.
    """
    d, b = np.broadcast_arrays(np.asarray(dk_pow, dtype=float), np.asarray(burst_power, dtype=float))
    scale = -math.expm1(rate * math.log(2.0))
    out = []
    # Per row in Python floats: numpy's expm1 can differ from math.expm1
    # in the last bit.
    for i, (dv, bv) in enumerate(zip(d.ravel().tolist(), b.ravel().tolist())):
        if not dv > 0:
            raise ValueError(f"mac_outage requires positive inputs: d^gamma {dv} at row {i}")
        out.append(-math.expm1(scale * dv / bv) if bv != 0.0 else float(rate > 0))
    out = np.array(out).reshape(d.shape)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class _Cell:
    """One (strategy, placement, user) cell: everything that does not depend on P.

    The forwarders of user k are the relay under rc and its helper users
    otherwise (none for mac).  Links run destination-source (dk),
    destination-forwarder (dj) and forwarder-source (jk); ``hh_pow`` is
    the helper-to-helper table of ucmh-ddf (zero diagonal).  Each link
    is kept only as d^gamma, raised here with Python's float power: this
    is the one link table, which the trial kernels and the bounds read
    as it is.
    """

    placement_idx: int
    user_idx: int
    kernel: str
    dk_pow: float
    dj_pow: tuple[float, ...]
    jk_pow: tuple[float, ...]
    hh_pow: tuple[tuple[float, ...], ...]


_NON_AF_KERNELS = {"mac": "mac", "rc": "rc-ddf", "uc2": "uc2-ddf", "ucmh": "ucmh-ddf"}


def _cell(strategy: Strategy, placement: NodePlacement, placement_idx: int, k: int) -> _Cell:
    gamma = placement.params.path_loss_exponent
    src = user_id(k)
    fwd = [RELAY] if strategy.uses_relay else [user_id(j) for j in strategy.helpers(k)]
    if strategy.family == "af":
        kernel = "af2" if strategy.hops(k) == 2 else "afmh"
    else:
        kernel = _NON_AF_KERNELS[strategy.mode]
    hh_pow = ()
    if kernel == "ucmh-ddf":
        hh_pow = tuple(
            tuple(0.0 if o == h else placement.distance(h, o) ** gamma for o in fwd)
            for h in fwd
        )
    return _Cell(
        placement_idx=placement_idx,
        user_idx=k - 1,
        kernel=kernel,
        dk_pow=placement.distance(DESTINATION, src) ** gamma,
        dj_pow=tuple(placement.distance(DESTINATION, h) ** gamma for h in fwd),
        jk_pow=tuple(placement.distance(h, src) ** gamma for h in fwd),
        hh_pow=hh_pow,
    )


def _user_powers(strategy: Strategy, pc: PowerConfig) -> list[tuple[float, tuple[float, ...]]]:
    """(burst power, forwarder budgets) of each user at one P."""
    bursts = [user_burst_power(strategy, pc, k) for k in range(1, strategy.num_users + 1)]
    if strategy.uses_relay:
        relay = (relay_power(pc),)
        return [(b, relay) for b in bursts]
    return [
        (b, tuple(bursts[j - 1] for j in strategy.helpers(k)))
        for k, b in enumerate(bursts, start=1)
    ]


def _cell_bounds(cell: _Cell, rate: float, burst, lambdas, optimize: bool) -> BoundPair:
    """Analytic bound pair of the cell at every grid point; the closed form twice for mac.

    burst (the source's burst power) is a column over the SNR grid.
    lambdas has one row per grid point: 1 for the source, then each
    forwarder's budget over the burst.
    """
    if cell.kernel == "mac":
        cf = mac_outage(rate, burst, cell.dk_pow)
        return BoundPair(lower=cf, upper=cf)
    if cell.kernel in ("af2", "afmh"):
        af_bounds = af_bounds_2hop if cell.kernel == "af2" else af_bounds_multihop
        return af_bounds(rate, burst, cell.dk_pow, cell.dj_pow, cell.jk_pow)
    if cell.kernel == "rc-ddf":
        return ddf_bounds_rc(
            rate, burst, lambdas[:, 1], cell.dk_pow, cell.dj_pow[0], cell.jk_pow[0], optimize=optimize
        )
    dist_dest_pow = np.array((cell.dk_pow,) + cell.dj_pow)
    dist_src_pow = np.array(cell.jk_pow)
    if cell.kernel == "uc2-ddf":
        return ddf_bounds_uc2(rate, burst, lambdas, dist_dest_pow, dist_src_pow, optimize=optimize)
    return ddf_bounds_multihop(rate, burst, lambdas, dist_dest_pow, dist_src_pow, optimize=optimize)


def _bounds(cells: list[_Cell], rate: float, powers, optimize: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's bound pair at every grid point: (lower, upper), each
    shaped (grid points, cells) in cell order.

    powers[s] is ``_user_powers`` at grid point s.  One bound-function
    call per cell covers the whole grid.
    """
    per_user = []
    for u in range(len(powers[0])):
        rows = [p[u] for p in powers]
        lambdas = [(1.0,) + tuple(f / b for f in budgets) for b, budgets in rows]
        per_user.append((np.array([b for b, _ in rows]), np.array(lambdas)))
    lower = np.empty((len(powers), len(cells)))
    upper = np.empty_like(lower)
    for i, c in enumerate(cells):
        pair = _cell_bounds(c, rate, *per_user[c.user_idx], optimize)
        lower[:, i] = pair.lower
        upper[:, i] = pair.upper
    return lower, upper


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


def _tasks(cells: list[_Cell], strategy: Strategy, pc: PowerConfig, powers) -> list[tuple]:
    """``mc.run_cells`` entries at one P: (placement, user, kernel, params) per cell.

    params is the same record for every kernel: rate, the source's burst
    power, its forwarders' budgets (the relay's under rc), the multihop
    mode and the cell's link table; each kernel reads the entries its
    rate step needs.  powers is ``_user_powers`` at pc.
    """
    tasks = []
    for c in cells:
        burst, budgets = powers[c.user_idx]
        params = dict(rate=pc.rate, burst=burst, budgets=budgets, mode=strategy.multihop_mode)
        params.update(dk_pow=c.dk_pow, dj_pow=c.dj_pow, jk_pow=c.jk_pow, hh_pow=c.hh_pow)
        tasks.append((c.placement_idx, c.user_idx, c.kernel, params))
    return tasks


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
    such a point seed: a ``mc.mix64`` word, or a hand-picked seed below
    2^53 (above it, neighbouring seeds share streams; see README,
    Determinism).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    K = strategy.num_users
    cells = [_cell(strategy, placement, 0, k) for k in range(1, K + 1)]
    powers = _user_powers(strategy, pc)
    # A target above every possible count runs each cell to its ceiling share.
    events, n, _ = mc.run_cells(
        _tasks(cells, strategy, pc, powers),
        seed,
        target_events=trials * K + 1,
        trial_ceiling=trials * K,
    )
    lower, upper = _bounds(cells, pc.rate, [powers], optimize=False)
    return _Point(np.arange(K), events, n, lower[0], upper[0], False).estimate()


def _points(cfg: ExperimentConfig, strategy: Strategy, strategy_index: int, placements, pool):
    """Yield (snr_db, power config, point) over the SNR grid for one strategy.

    Cells and their bounds over the whole grid are computed once; each
    SNR point only scales the cells by P.  pool is the sweep's
    ``mc.worker_pool``.
    """
    cells = [
        _cell(strategy, placement, i, k)
        for i, placement in enumerate(placements)
        for k in range(1, strategy.num_users + 1)
    ]
    users = np.array([c.user_idx for c in cells])
    grid = [cfg.power.with_user_power(10.0 ** (snr / 10.0)) for snr in cfg.snr_db]
    powers = [_user_powers(strategy, pc) for pc in grid]
    lower, upper = _bounds(cells, cfg.power.rate, powers, cfg.optimize_bounds)
    for snr_index, (snr, pc) in enumerate(zip(cfg.snr_db, grid)):
        # Row copies: a point the caller still holds must not keep the whole
        # grid's arrays alive while the next strategy builds its own.
        bounds = (lower[snr_index].copy(), upper[snr_index].copy())
        if cfg.bounds_only:
            yield snr, pc, _Point(users, None, 0, *bounds, False)
            continue
        events, trials, flagged = mc.run_cells(
            _tasks(cells, strategy, pc, powers[snr_index]),
            mc.mix64(cfg.master_seed, 1, strategy_index, snr_index),
            workers=cfg.workers,
            target_events=cfg.target_events,
            trial_ceiling=cfg.trial_ceiling,
            pool=pool,
        )
        yield snr, pc, _Point(users, events, trials, *bounds, flagged)


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
    sweep under the same seed.
    """
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
    with mc.worker_pool(workers) as pool:
        points = _points(cfg, strategy, strategy_index, [placement], pool)
        return [point.estimate() for _, _, point in points]


def area_averaged_outage(cfg: ExperimentConfig) -> list[list[OutageEstimate]]:
    """Adaptive pooled estimates, one list over the SNR grid per strategy
    of cfg in config order: the averaged rows of ``run_experiment(cfg)``."""
    if cfg.bounds_only:
        raise ValueError("area_averaged_outage returns Monte Carlo estimates; bounds_only is set")
    placements = cfg.placements()
    with mc.worker_pool(cfg.workers) as pool:
        return [
            [point.estimate() for _, _, point in _points(cfg, s, i, placements, pool)]
            for i, s in enumerate(cfg.strategies)
        ]


def diversity_slope(points) -> float:
    """Least-squares slope of -log10(outage) against SNR_dB / 10.

    points is an iterable of (snr_db, outage) pairs; every outage must be
    positive, and at least two points are required.
    """
    pts = [(float(s), float(p)) for s, p in points]
    if len(pts) < 2:
        raise ValueError("diversity_slope needs at least two points")
    if any(p <= 0.0 for _, p in pts):
        raise ValueError("diversity_slope: zero outage in window, not enough events")
    x = np.array([s / 10.0 for s, _ in pts])
    y = np.array([-math.log10(p) for _, p in pts])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


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
    row first and then per-user rows when enabled.
    """
    placements = cfg.placements()
    rows = []
    with mc.worker_pool(cfg.workers) as pool:
        for s_idx, strategy in enumerate(cfg.strategies):
            for snr, pc, point in _points(cfg, strategy, s_idx, placements, pool):
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
