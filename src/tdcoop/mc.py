"""Deterministic parallel Monte Carlo trial engine.

Every task draws from its own counter-based stream, keyed by (seed,
blake2b-64 of an index path), so results depend only on the
configuration and never on worker count or execution order:

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
MAX_TASK_TRIALS trials; each task reduces to one integer.  Since every
cell runs every round, ``run_cells`` returns one count table: the events
of each cell as an int array in the caller's cell order, the one trial
count all cells ran, and the ceiling flag.  With more
than one worker, tasks run on a spawn-started process pool that a whole
sweep shares (``worker_pool``).

A task reads its stream in order, in internal batches of ``_BATCH``
rows, so counts do not depend on the batch size; it only keeps each
batch's draw arrays in cache.  A mac or afmh task reads one row per
trial.  A DDF or af2 task first draws how many of its trials survive the
direct screen (below), then one row per survivor in trial order, in
which the direct gain A_dk is conditioned on surviving.

Kernels draw channels directly (documented column layouts below) and
return outage event counts.  A trial is in outage when its mutual
information is strictly below the rate.  Two outcomes are certain,
and ``count_events`` alone decides them, before it derives a stream or
calls a kernel: at rate 0 no trial fails, and with a silent source
(zero burst power) every trial does, since every rate step then gives
mutual information 0.

Every kernel takes the same 8-key parameter record (built by the sweep
harness): ``rate``, the source's ``burst`` power, its forwarders'
``budgets`` (the relay's under rc), the multihop ``mode`` and the
cell's d^gamma link table -- ``dk_pow`` (destination-source),
``dj_pow`` (destination-forwarder), ``jk_pow`` (forwarder-source) and
``hh_pow`` (between helpers).  Each kernel reads what its rate step
needs; the AF kernels scale their amplitudes by 1/sqrt(d^gamma).  rc-ddf
and uc2-ddf are one protocol, the source's slot and then a second slot
that its decoded forwarders share, so rc-ddf runs on the uc2 kernel
with the relay as its one forwarder.

The DDF and af2 kernels draw only the trials that the direct link alone
may not carry.  Each of their destination rates is at least
(1/L) C(A_dk * burst / dk_pow) for a fixed slot count L, listed beside
the kernel in ``_KERNELS``.  Every DDF rate (L = 1) is a weighted sum,
with weights summing to 1, of capacities whose SNR includes the direct
term.  af2 (L = 2) takes half the log of det(I + P HH*), and det - 1 is
a sum of nonnegative terms that includes P |h_dk|^2.  A trial whose A_dk
reaches ``_direct_threshold`` (where that bound equals the rate) times
1 + ``_SCREEN_MARGIN`` cannot be in outage; the margin covers rounding
in the rate step.  A_dk is exponential, so the number of trials below
that widened threshold t' is binomial with q = 1 - exp(-t'), and the
survivors are independent with A_dk drawn given A_dk < t'.  Drawing the
count and then only the survivors gives the event count exactly the
distribution of screening every trial, and the rate step, which works
elementwise over trials, never sees a dropped trial.  mac counts its
direct link against the same threshold (L = 1) without a screen.  afmh
is not screened: its bound holds at L = m + 1 slots, but that threshold
keeps nearly every trial at the benchmark's uc3-af points, and
screening would renumber the draws under acceptance 4's uc3-af slope.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import multiprocessing
import struct
from concurrent.futures import ProcessPoolExecutor

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


def _direct_threshold(params, slots):
    """Direct-link gain A_dk at which (1/slots) C(A_dk * burst / dk_pow)
    equals the rate."""
    return math.expm1(slots * params["rate"] * math.log(2.0)) * params["dk_pow"] / params["burst"]


def _survivors(params, rng, trials, slots):
    """How many of a screened task's trials the direct link alone may not
    carry, for a kernel whose rate is at least (1/slots) C(direct), and
    q: the chance that A_dk lies below the ``slots``-slot direct-link
    threshold widened by ``_SCREEN_MARGIN``.

    Draws: binomial (trials, q).  Every other trial meets the rate.
    """
    q = -math.expm1(-_direct_threshold(params, slots) * (1.0 + _SCREEN_MARGIN))
    return int(rng.binomial(trials, q)), q


def _conditioned(e, q):
    """A_dk given A_dk < t' from the exponential draws e, by inversion in
    place: -log1p(q * expm1(-e)) with q = 1 - exp(-t'), which lies in
    [0, t').  With q None (no screen) e is A_dk as drawn.  Returns e."""
    if q is not None:
        e[...] = -np.log1p(q * np.expm1(-e))
    return e


def _survivor_rows(rng, n, links, q):
    """n surviving trials as rows [A_dk, links...].

    Draws: exponential (n, 1 + links); column 0 becomes ``_conditioned``.
    """
    a = rng.exponential(size=(n, 1 + links))
    _conditioned(a[:, 0], q)
    return a


def _count_mac(params, rng, n, q):
    """Direct slot only.  Draws: exponential (n,) = A_dk.  Not screened
    (q is None): the count is the indicator A_dk < ``_direct_threshold``
    at one slot."""
    a = rng.exponential(size=n)
    return int((a < _direct_threshold(params, 1)).sum())


def _count_uc2_ddf(params, rng, n, q):
    """Shared second slot, m forwarders: the relay under rc (m = 1), the
    helper users under uc2.

    Draws: n surviving rows from ``_survivor_rows`` = A_dk, forwarder
    listen links A_jk (m), then destination links A_dj (m); at m = 1
    that is A_dk, A_rk, A_dr.  A dropped trial meets the rate: the
    second slot's SNR adds the forwarders' terms to the direct one, so
    the rate is at least G1, the direct link's capacity.
    """
    rate, burst = params["rate"], params["burst"]
    m = len(params["budgets"])
    a = _survivor_rows(rng, n, 2 * m, q)
    theta = _ddf.listen_fraction_uc2(a[:, 1 : 1 + m], params["jk_pow"], burst, rate)
    budgets = np.asarray(params["budgets"])
    helper_snr = a[:, 1 + m :] * budgets / np.asarray(params["dj_pow"])
    mi = _ddf.trial_mutual_info_uc2(theta, a[:, 0] * burst / params["dk_pow"], helper_snr)
    return int((mi < rate).sum())


def _count_ucmh_ddf(params, rng, n, q):
    """Greedy multihop chain, m helpers (L = m + 1 slots).

    Draws: n surviving rows from ``_survivor_rows`` = A_dk,
    helper-hears-source (m), helper pairs (h < j, row-major), destination
    from helpers (m).  A helper pair shares one fading draw for both
    directions.  A dropped trial meets the rate: the stage SNRs at the
    destination start at the direct term and never decrease, and the
    stage fractions sum to 1.  The schedule and the destination rate
    work trial by trial (a stage loop that ends early skips only stages
    no surviving trial has time left for).  Helpers hear each other at
    the unboosted ``budgets / hh_pow``; only the destination rate boosts
    a forwarder by 1 / (its remaining time).
    """
    rate, burst, budgets = params["rate"], params["burst"], params["budgets"]
    m = len(budgets)
    L = m + 1
    npairs = m * (m - 1) // 2
    a = _survivor_rows(rng, n, m + npairs + m, q)
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
    recv[:, 0] = a[:, 1 : 1 + m].T
    col = 1 + m
    for h in range(m):
        for j in range(h + 1, m):
            recv[h, j + 1] = a[:, col]
            recv[j, h + 1] = a[:, col]
            col += 1
    dest = np.column_stack((a[:, 0], a[:, 1 + m + npairs :]))
    sched = _ddf.multihop_schedule(
        recv.transpose(2, 0, 1), recv_coef, rate, mode=params["mode"]
    )
    mi = _ddf.trial_mutual_info_multihop(sched, dest, dest_coef)
    return int((mi < rate).sum())


def _count_af2(params, rng, n, q):
    """Two-slot AF: all m helpers forward at once.

    Draws: n surviving trials' complex amplitudes for links [d-k, d-j
    (m), j-k (m)] via ``_rayleigh_complex`` (standard_normal
    (n, 2(1 + 2m))).  The rate step reads only |h_dk|^2, so the d-k pair
    gives E = |h_dk|^2 as drawn, which becomes ``_conditioned``, and its
    phase is dropped.  A dropped trial meets the rate: det(I + P HH*) - 1
    is a sum of nonnegative terms that includes P |h_dk|^2, so the rate
    is at least half the direct link's capacity.  The rate is the closed
    form ``af2_trial_mutual_info``; helpers never hear each other.
    """
    m = len(params["budgets"])
    h = _rayleigh_complex(rng, n, 1 + 2 * m)
    # In place: a fresh array per batch costs more than the arithmetic.
    h[:, 1:] *= 1.0 / np.sqrt(np.array((*params["dj_pow"], *params["jk_pow"])))
    h_dk = _conditioned(_af._abs2(h[:, 0]), q)
    h_dk *= 1.0 / params["dk_pow"]
    np.sqrt(h_dk, out=h_dk)
    mi = _af.af2_trial_mutual_info(
        h_dk, h[:, 1 : 1 + m], h[:, 1 + m :], params["budgets"], params["burst"]
    )
    return int((mi < params["rate"]).sum())


def _count_afmh(params, rng, n, q):
    """AF with L = m + 1 slots, one helper per slot.  Not screened (q is
    None).

    Draws: complex amplitudes for links [d-k, d-j (m), j-k (m)] via
    standard_normal (n, 2(1 + 2m)).  Helpers never hear each other.  The
    rate is the closed-form determinant of the arrow matrix
    (``afmh_trial_mutual_info``); no matrix is built, and
    ``af_trial_mutual_info`` stays the general reference.
    """
    m = len(params["budgets"])
    h = _rayleigh_complex(rng, n, 1 + 2 * m)
    h *= 1.0 / np.sqrt(np.array((params["dk_pow"], *params["dj_pow"], *params["jk_pow"])))
    mi = _af.afmh_trial_mutual_info(
        h[:, 0], h[:, 1 : 1 + m], h[:, 1 + m :], params["budgets"], params["burst"]
    )
    return int((mi < params["rate"]).sum())


# Each kernel and its screen's slot count L (its destination rate is at
# least (1/L) C(A_dk * burst / dk_pow)), or None for a kernel that reads
# one row per trial.
_KERNELS = {
    "mac": (_count_mac, None),
    "rc-ddf": (_count_uc2_ddf, 1),
    "uc2-ddf": (_count_uc2_ddf, 1),
    "ucmh-ddf": (_count_ucmh_ddf, 1),
    "af2": (_count_af2, 2),
    "afmh": (_count_afmh, None),
}


def count_events(kernel: str, params: dict, seed: int, path: tuple, trials: int) -> int:
    """Outage events in one task, read from the task's one stream (keyed
    by path) in internal batches.

    At rate 0 no trial fails and at zero burst power every trial does;
    either count returns before the stream is derived.  Otherwise a
    screened task (slot count L in ``_KERNELS``) first draws its
    survivor count and q (``_survivors``) and then one row per survivor,
    with A_dk conditioned by q; mac and afmh read one row per trial (q
    is None).  Rows are read trial-major, so the count is the same for
    any batch size."""
    fn, slots = _KERNELS[kernel]
    if params["rate"] <= 0.0:
        return 0
    if params["burst"] <= 0.0:
        return trials
    rng = derive_stream(seed, *path)
    q = None
    if slots is not None:
        trials, q = _survivors(params, rng, trials, slots)
    events = 0
    for done in range(0, trials, _BATCH):
        events += fn(params, rng, min(_BATCH, trials - done), q)
    return events


def _run_task(args):
    kernel, params, seed, path, trials = args
    return count_events(kernel, params, seed, path, trials)


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
) -> tuple[np.ndarray, int, bool]:
    """Adaptive pooled trial loop for one sweep point.

    cells holds (placement_idx, user_idx, kernel, params) entries; every
    cell receives the same per-round trial counts (equal shares of the
    ceiling), so per-user and per-placement averages pool cleanly.
    With more than one worker the tasks run on ``pool`` (a
    ``worker_pool``), or on a pool of this call's own when none is given.
    Returns the events of each cell as an int array in the order of
    cells, the trial count every cell ran, and the ceiling flag (True
    when the point stopped at the ceiling with fewer than target_events
    events).
    """
    if not cells:
        raise ValueError("run_cells needs at least one cell")
    if trial_ceiling < len(cells):
        raise ValueError("trial ceiling below one trial per cell")
    events = np.zeros(len(cells), dtype=np.int64)
    trials = 0
    with worker_pool(workers) if pool is None else contextlib.nullcontext(pool) as pool:
        for round_idx, cum in enumerate(round_targets(trial_ceiling // len(cells))):
            sizes = chunk_sizes(cum - trials)
            trials = cum
            tasks = [
                (kernel, params, point_seed, (placement_idx, user_idx, round_idx, chunk_idx), size)
                for placement_idx, user_idx, kernel, params in cells
                for chunk_idx, size in enumerate(sizes)
            ]
            if pool is not None:
                # About four chunks per worker balance the load while
                # keeping the per-chunk pickling and IPC overhead small.
                chunk = -(-len(tasks) // (4 * workers))
                results = list(pool.map(_run_task, tasks, chunksize=chunk))
            else:
                results = [_run_task(t) for t in tasks]
            # Each cell's tasks are consecutive, one per chunk.
            events += np.reshape(results, (len(cells), len(sizes))).sum(axis=1)
            if events.sum() >= target_events:
                break
    return events, trials, bool(events.sum() < target_events)
