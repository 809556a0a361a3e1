"""Deterministic parallel Monte Carlo trial engine.

Every batch of trials draws from its own counter-based stream whose key
is (seed, blake2b-64 of the batch's index path), so results depend only
on the configuration and never on worker count or execution order:

    placement i       <- stream (master_seed; 0, i)
    point seed        <- mix64(master_seed, 1, strategy_idx, snr_idx)
    trial chunk       <- stream (point_seed; placement_idx, user_idx,
                                 round_idx, chunk_idx)

Trials for one (strategy, SNR) point are scheduled in geometric rounds:
every (placement, user) cell starts at MIN_CELL_TRIALS and quadruples at
each round until the point has TARGET_EVENTS pooled outage events or the
cell hits its equal share of the trial ceiling.  Decisions use pooled
integer event counts at round boundaries only, which keeps the schedule
identical for any worker count.  Rounds are cut into tasks of at most
MAX_TASK_TRIALS trials; each task reduces to one integer.  With more
than one worker, tasks run on a spawn-started process pool that a whole
sweep shares (``worker_pool``).

A task draws its trials in internal batches of ``_BATCH`` trials that
read the task's one stream in order, so counts do not depend on the
batch size; it only keeps each batch's draw arrays in cache.

Kernels draw channels directly (documented column layouts below) and
return outage event counts.  A trial is in outage when its mutual
information is strictly below the rate; rate 0 therefore never fails.
Every kernel takes the same parameter record (built by the sweep
harness): ``rate``, the source's ``burst`` power, its forwarders'
``budgets`` (the relay's under rc), the multihop ``mode`` and the
cell's link table -- ``gamma``, raw source-forwarder distances
``d_jk``, d^gamma per link (``dk_pow``, ``dj_pow``, ``jk_pow``, and
``hh_pow`` between helpers) and the AF amplitude scales d^(-gamma/2)
(``dk_scale``, ``dj_scale``, ``jk_scale``).  Each kernel reads what its
rate step needs.

The DDF kernels screen on the direct link before their rate step.  Every
DDF destination rate is a weighted sum, with weights summing to 1, of
capacities whose SNR includes the direct term A_dk * burst / dk_pow, so
it is at least C(A_dk * burst / dk_pow).  A trial whose A_dk reaches
``_direct_threshold`` (where that capacity equals the rate) times
1 + ``_SCREEN_MARGIN`` cannot be in outage; the margin covers rounding
in the weighted sums.  Only the other rows go through the rate step,
which works elementwise over trials, so each kept trial gets the same
rate bits as without the screen and the counts cannot change.  At zero
burst power nothing is screened.  AF is not screened: its only
direct-only bound, (1/L) C(P|h_dk|^2), drops few rows at the benchmark's
points.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import multiprocessing
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import af as _af
from . import ddf as _ddf

__all__ = [
    "MIN_CELL_TRIALS",
    "MAX_TASK_TRIALS",
    "ROUND_GROWTH",
    "TARGET_EVENTS",
    "TRIAL_CEILING",
    "mix64",
    "derive_stream",
    "round_targets",
    "chunk_sizes",
    "count_events",
    "worker_pool",
    "run_cells",
    "CellResult",
]

MIN_CELL_TRIALS = 2048
MAX_TASK_TRIALS = 1 << 20
ROUND_GROWTH = 4
TARGET_EVENTS = 100
TRIAL_CEILING = 10_000_000

_BATCH = 1 << 13
_MASK = (1 << 64) - 1
_SCREEN_MARGIN = 1e-9


def mix64(*words) -> int:
    """Collapse an index path into one 64-bit stream key word."""
    data = struct.pack("<%dQ" % len(words), *(int(w) & _MASK for w in words))
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def derive_stream(seed, *path) -> np.random.Generator:
    """Independent generator for one index path under the given seed."""
    return np.random.Generator(np.random.Philox(key=[int(seed) & _MASK, mix64(*path)]))


def round_targets(cap: int) -> list[int]:
    """Cumulative per-cell trial counts per round: 2048, 8192, ... up to cap."""
    if cap < 1:
        raise ValueError("per-cell trial cap must be >= 1")
    targets = []
    t = min(MIN_CELL_TRIALS, cap)
    while True:
        targets.append(t)
        if t >= cap:
            return targets
        t = min(t * ROUND_GROWTH, cap)


def chunk_sizes(n: int) -> list[int]:
    """Fixed decomposition of a round's addition into task-sized chunks."""
    out = [MAX_TASK_TRIALS] * (n // MAX_TASK_TRIALS)
    if n % MAX_TASK_TRIALS:
        out.append(n % MAX_TASK_TRIALS)
    return out


# ---------------------------------------------------------------------------
# Trial kernels.  params is the plain-data record described above, so
# tasks pickle cheaply.  Each kernel documents its draw layout; changing a
# layout changes results.


def _rayleigh_complex(rng, n, m):
    """m proper complex unit-variance amplitudes per trial.

    Layout: standard_normal (n, 2m), first m columns real parts, last m
    imaginary, scaled by sqrt(1/2).
    """
    parts = rng.standard_normal((n, 2 * m))
    parts *= math.sqrt(0.5)
    # Link-major storage (Fortran order): each link's column is contiguous,
    # which keeps the per-trial sums over links in the rate step fast.
    amp = np.empty((m, n), dtype=complex)
    amp.real = parts[:, :m].T
    amp.imag = parts[:, m:].T
    return amp.T


def _direct_threshold(params):
    """Direct-link gain A_dk at which C(A_dk * burst / dk_pow) equals the rate."""
    return math.expm1(params["rate"] * math.log(2.0)) * params["dk_pow"] / params["burst"]


def _direct_screen(a, dk_col, params):
    """Rows of the draw table a that the direct link alone may not carry.

    Keeps the rows whose A_dk (column dk_col) lies below the direct-link
    threshold widened by ``_SCREEN_MARGIN``; every dropped row meets the
    rate under each DDF scheme.  At zero burst power every row is kept.
    """
    if params["burst"] <= 0.0:
        return a
    return a[a[:, dk_col] < _direct_threshold(params) * (1.0 + _SCREEN_MARGIN)]


def _count_mac(params, rng, n):
    """Direct slot only.  Draws: exponential (n, 1) = |A_dk|^2."""
    a = rng.exponential(size=(n, 1))[:, 0]
    if params["rate"] <= 0.0:
        return 0
    if params["burst"] <= 0.0:
        return n
    return int((a < _direct_threshold(params)).sum())


def _count_rc_ddf(params, rng, n):
    """One dedicated forwarder.  Draws: exponential (n, 3) = A_rk, A_dk, A_dr.

    Only the rows that ``_direct_screen`` keeps reach the rate step.  A
    dropped row meets the rate: theta*G1 + (1-theta)*G2 with G2 >= G1 is
    at least G1, the direct link's capacity, and the kept rows' rates
    are computed trial by trial as without the screen.
    """
    rate = params["rate"]
    a = rng.exponential(size=(n, 3))
    if rate <= 0.0:
        return 0
    a = _direct_screen(a, 1, params)
    burst = params["burst"]
    theta = _ddf.listen_fraction_rc(a[:, 0], params["d_jk"][0], burst, rate, params["gamma"])
    mi = _ddf.trial_mutual_info_rc(
        theta,
        a[:, 1] * burst / params["dk_pow"],
        a[:, 2] * params["budgets"][0] / params["dj_pow"][0],
    )
    return int((mi < rate).sum())


def _count_uc2_ddf(params, rng, n):
    """Shared second slot, m helpers.

    Draws: exponential (n, 2m + 1) = helper listen links A_jk (m), then
    A_dk, then destination links A_dj (m).  Only the rows that
    ``_direct_screen`` keeps reach the rate step.  A dropped row meets
    the rate: the second slot's SNR adds the helpers' terms to the
    direct one, so the rate is at least G1, the direct link's capacity,
    and the kept rows' rates are computed trial by trial as without the
    screen.
    """
    rate = params["rate"]
    m = len(params["budgets"])
    a = rng.exponential(size=(n, 2 * m + 1))
    if rate <= 0.0:
        return 0
    a = _direct_screen(a, m, params)
    burst = params["burst"]
    d_jk = np.asarray(params["d_jk"])
    theta = _ddf.listen_fraction_uc2(a[:, :m], d_jk, burst, rate, params["gamma"])
    budgets = np.asarray(params["budgets"])
    helper_snr = a[:, m + 1 :] * budgets / np.asarray(params["dj_pow"])
    mi = _ddf.trial_mutual_info_uc2(theta, a[:, m] * burst / params["dk_pow"], helper_snr)
    return int((mi < rate).sum())


def _count_ucmh_ddf(params, rng, n):
    """Greedy multihop chain, m helpers (L = m + 1 slots).

    Draws: exponential (n, m + m(m-1)/2 + 1 + m) in the order
    helper-hears-source (m), helper pairs (h < j, row-major), destination
    from source (1), destination from helpers (m).  A helper pair shares
    one fading draw for both directions.  Only the rows that
    ``_direct_screen`` keeps reach the rate step.  A dropped row meets
    the rate: the stage SNRs at the destination start at the direct term
    and never decrease, and the stage fractions sum to 1.  The schedule
    and the destination rate work trial by trial (a stage loop that ends
    early skips only stages no kept trial has time left for), so the
    kept rows' rates are the same as without the screen.
    """
    rate = params["rate"]
    burst, budgets = params["burst"], params["budgets"]
    m = len(budgets)
    L = m + 1
    npairs = m * (m - 1) // 2
    a = rng.exponential(size=(n, m + npairs + 1 + m))
    if rate <= 0.0:
        return 0
    a = _direct_screen(a, m + npairs, params)
    n = len(a)
    # Link SNR coefficients: helper h hears the source (slot 0) and every
    # other helper; the destination hears the source and every helper.
    recv_coef = np.zeros((m, L))
    for h in range(m):
        recv_coef[h, 0] = burst / params["jk_pow"][h]
        for j in range(m):
            if j != h:
                recv_coef[h, j + 1] = budgets[j] / params["hh_pow"][h][j]
    dest_coef = np.array(
        (burst / params["dk_pow"],)
        + tuple(budget / d_pow for budget, d_pow in zip(budgets, params["dj_pow"]))
    )
    # Helper-major (m, L, n) storage, passed as its (n, m, L) view: the
    # schedule reads each helper's links as contiguous columns.
    recv = np.zeros((m, L, n))
    recv[:, 0] = a[:, :m].T
    col = m
    for h in range(m):
        for j in range(h + 1, m):
            recv[h, j + 1] = a[:, col]
            recv[j, h + 1] = a[:, col]
            col += 1
    dest = a[:, m + npairs :]
    sched = _ddf.multihop_schedule(
        recv.transpose(2, 0, 1), recv_coef, rate, mode=params["mode"]
    )
    mi = _ddf.trial_mutual_info_multihop(sched, dest, dest_coef)
    return int((mi < rate).sum())


def _count_af(params, rng, n, multihop=False):
    """AF over m helpers: the two-slot scheme (all helpers forward at
    once) or, with multihop, L = m + 1 slots with one helper per slot.

    Draws: complex amplitudes for links [d-k, d-j (m), j-k (m)] via
    standard_normal (n, 2(1 + 2m)); helpers never hear each other.  The
    rate is the closed-form determinant of the scheme's whitened matrix
    (``af2_trial_mutual_info``/``afmh_trial_mutual_info``); no matrix is
    built, and ``af_trial_mutual_info`` stays the general reference.
    """
    rate = params["rate"]
    m = len(params["budgets"])
    h = _rayleigh_complex(rng, n, 1 + 2 * m)
    if rate <= 0.0:
        return 0
    h *= np.array((params["dk_scale"], *params["dj_scale"], *params["jk_scale"]))
    mutual_info = _af.afmh_trial_mutual_info if multihop else _af.af2_trial_mutual_info
    mi = mutual_info(h[:, 0], h[:, 1 : 1 + m], h[:, 1 + m :], params["budgets"], params["burst"])
    return int((mi < rate).sum())


_KERNELS = {
    "mac": _count_mac,
    "rc-ddf": _count_rc_ddf,
    "uc2-ddf": _count_uc2_ddf,
    "ucmh-ddf": _count_ucmh_ddf,
    "af2": _count_af,
    "afmh": functools.partial(_count_af, multihop=True),
}


def count_events(kernel: str, params: dict, seed: int, path: tuple, trials: int) -> int:
    """Outage events in one task, consumed in internal batches of one stream.

    Every kernel's draw layout is trial-major, so the count is the same for
    any batch size."""
    fn = _KERNELS[kernel]
    rng = derive_stream(seed, *path)
    events = 0
    done = 0
    while done < trials:
        step = min(_BATCH, trials - done)
        events += fn(params, rng, step)
        done += step
    return events


def _run_task(args):
    kernel, params, seed, path, trials = args
    return count_events(kernel, params, seed, path, trials)


@dataclass(frozen=True)
class CellResult:
    """Pooled counts for one (placement, user) cell of a sweep point."""

    placement_idx: int
    user_idx: int
    trials: int
    events: int


@contextlib.contextmanager
def worker_pool(workers: int):
    """Process pool shared by every ``run_cells`` call of one sweep.

    Yields None at one worker.  Otherwise the pool starts its workers
    with spawn (never fork, which is unsafe once the parent has threads)
    when the first tasks arrive, and shuts them down when the block
    exits.  Scripts that run a sweep with more than one worker therefore
    need an ``if __name__ == "__main__":`` guard.
    """
    if workers <= 1:
        yield None
        return
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    )
    try:
        yield pool
    finally:
        pool.shutdown()


def run_cells(
    cells: list[tuple[int, int, str, dict]],
    point_seed: int,
    workers: int = 1,
    target_events: int = TARGET_EVENTS,
    trial_ceiling: int = TRIAL_CEILING,
    pool=None,
) -> tuple[list[CellResult], bool]:
    """Adaptive pooled trial loop for one sweep point.

    cells holds (placement_idx, user_idx, kernel, params) entries; every
    cell receives the same per-round trial counts (equal shares of the
    ceiling), so per-user and per-placement averages pool cleanly.
    With more than one worker the tasks run on ``pool`` (a
    ``worker_pool``), or on a pool of this call's own when none is given.
    Returns the per-cell counts and the ceiling flag (True when the point
    stopped at the ceiling with fewer than target_events events).
    """
    if not cells:
        raise ValueError("run_cells needs at least one cell")
    if trial_ceiling < len(cells):
        raise ValueError("trial ceiling below one trial per cell")
    cap = trial_ceiling // len(cells)
    targets = round_targets(cap)
    trials = {(c[0], c[1]): 0 for c in cells}
    events = {(c[0], c[1]): 0 for c in cells}
    with worker_pool(workers) if pool is None else contextlib.nullcontext(pool) as pool:
        prev = 0
        for round_idx, cum in enumerate(targets):
            add = cum - prev
            prev = cum
            tasks = []
            owners = []
            for placement_idx, user_idx, kernel, params in cells:
                for chunk_idx, size in enumerate(chunk_sizes(add)):
                    path = (placement_idx, user_idx, round_idx, chunk_idx)
                    tasks.append((kernel, params, point_seed, path, size))
                    owners.append((placement_idx, user_idx))
            if pool is not None:
                # About four chunks per worker balance the load while
                # keeping the per-chunk pickling and IPC overhead small.
                chunk = -(-len(tasks) // (4 * workers))
                results = list(pool.map(_run_task, tasks, chunksize=chunk))
            else:
                results = [_run_task(t) for t in tasks]
            for owner, task, got in zip(owners, tasks, results):
                trials[owner] += task[4]
                events[owner] += got
            if sum(events.values()) >= target_events:
                break
    flagged = sum(events.values()) < target_events
    out = [
        CellResult(p, u, trials[(p, u)], events[(p, u)])
        for p, u, _, _ in cells
    ]
    return out, flagged
