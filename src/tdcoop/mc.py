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
count all cells ran, and the ceiling flag.  A whole sweep shares one
``worker_pool`` of at most as many workers as this process has CPUs.
Its rounds run in the sweep's own process until the first round of at
least workers * MAX_TASK_TRIALS trials, big enough to give every worker
one full-size task.  The spawn-started workers start at that round and
run it and every later round of the sweep, small ones included.  Only
that start imports the pool machinery: ``ProcessPoolExecutor`` is a
module attribute resolved on first use, so a sweep that starts no
worker never loads ``concurrent.futures.process`` or
``multiprocessing``.  Every task owns its stream, so where a task runs
never changes a count.

A task reads its stream in order, in internal batches of ``_BATCH``
rows, so counts do not depend on the batch size; it only keeps each
batch's draw arrays in cache.  Two outcomes are certain, and
``count_events`` alone decides them, before it derives a stream: at
rate 0 no trial fails, and with a silent source (a direct gain
burst/dk_pow of 0) every trial does, since every rate step then gives
mutual information 0.

``_KERNELS`` declares each kernel's rate function and screen.
``count_events`` alone draws, through ``_snrs``: one ``rng.exponential``
(n, columns) call per batch, the direct gain (column 0) conditioned by
the screen's q.  A trial is in outage when the rate function gives
mutual information strictly below the rate.

    kernel     columns at m forwarders     screen L
    mac        1                           -
    rc-ddf     1 + 2m                      1
    uc2-ddf    1 + 2m                      1
    ucmh-ddf   1 + 2m + m(m-1)/2           1
    af2        1 + 2m, 1 + 3m at m >= 2    2
    afmh       1 + 2m                      -

A row holds the fading power gains |h|^2: A_dk, then A_jk (m) and A_dj
(m), with ucmh-ddf's helper pairs (h < j, row-major, one draw for both
directions) between them.  Every rate reads only these magnitudes,
except af2's coherent sum over m >= 2 helpers, which also reads the
phase phi_j of H_dj H_jk.  That phase is uniform and independent of
both magnitudes, so af2's row ends, at m >= 2, in m more exponentials
E_j, read as phi_j = 2 pi (1 - exp(-E_j)).  rc-ddf and uc2-ddf are one
protocol, the source's slot and then a second slot that its decoded
forwarders share, so rc-ddf is uc2-ddf with the relay as its one
forwarder; rc-af and uc2-af read the same row on af2.

A task gets an 8-key record (built by the sweep harness): ``rate``,
the source's ``burst`` power, its forwarders' ``budgets`` (the relay's
under rc), the multihop ``mode`` and the cell's d^gamma -- ``dk_pow``
(destination-source), ``dj_pow`` (destination-forwarder), ``jk_pow``
(forwarder-source), ``hh_pow`` (between helpers).  ``_snr_table`` alone
reads the powers and d^gamma.  The column layout, for each received
SNR the draw column it reads and which power and link it takes, is
built once per (kernel, m) (``_layout``); each task forms its gains
P/d^gamma from its record, one float division each.  A batch's SNRs
are one product of the rows' columns and the gains, so every SNR is
A * (P/d^gamma), rounded one way.  SNR columns: the direct link, the
source into each forwarder, each forwarder into the destination, then
af2's phase draws.  ucmh-ddf's follow its chain: the direct link, each
helper into the destination, then per helper h the source into h and h
hearing each helper (the pair's one draw; h itself at gain 0).  A rate
function reads only SNRs (and af2's phase draws, at gain 1), m, the
rate and the mode.

A screened kernel (L in the table) draws only the trials that the
direct link alone may not carry.  Its destination rate is at least
(1/L) C(A_dk g), g the direct gain.  Every DDF rate is a weighted sum,
with weights summing to 1, of capacities whose SNR includes the direct
term.  af2 takes half the log of det(I + P HH*), and det - 1 is a sum of
nonnegative terms that includes P |h_dk|^2.  A trial whose A_dk reaches
expm1(L R ln 2) / g (where that bound equals the rate) times 1 +
``_SCREEN_MARGIN`` cannot be in outage; the margin covers rounding in
the rate step.  A_dk is exponential, so the number of trials below that
widened threshold t' is binomial with q = 1 - exp(-t'), and the
survivors are independent with A_dk drawn given A_dk < t'.  Drawing the
count and then only the survivors gives the event count exactly the
distribution of screening every trial, and the rate step, which works
elementwise over trials, never sees a dropped trial.  afmh is not
screened: its bound holds at L = m + 1 slots, but that threshold keeps
nearly every trial at the benchmark's uc3-af points, and screening
would renumber the draws under acceptance 4's uc3-af slope, whose 45 dB
point rests on 5 events.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import struct
import sys

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


class _KeyWords(np.random.bit_generator.ISeedSequence):
    """A Philox key given word for word.  ``Philox(key=...)`` would also
    build, and drop, a ``SeedSequence`` of fresh OS entropy."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def derive_stream(seed, *path) -> np.random.Generator:
    """Independent generator for one index path under the given seed.  The
    Philox key words are the ones numpy makes from the list [seed, path
    word] (README "Determinism")."""
    words = np.asarray([int(seed) & _MASK, mix64(*path)]).astype(np.uint64)
    return np.random.Generator(np.random.Philox(_KeyWords(words)))


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
# tasks pickle cheaply.  A rate function reads its SNRs and never writes
# them; changing a layout changes results.


@functools.cache
def _layout(kernel, m):
    """The SNR columns of a kernel at m forwarders, in the column order of
    the module docstring, for every task alike: the draw column each
    reads (one read-only array), its sender and link as indices into the
    power and d^gamma tuples ``_snr_table`` reads from a record, and the
    row width, one past the largest draw column."""
    pair = {}  # draw column of each helper pair, both ways round
    if kernel == "ucmh-ddf":
        for col, (h, j) in enumerate(itertools.combinations(range(m), 2), start=1 + m):
            pair[h, j] = pair[j, h] = col
    dest = 1 + m + len(pair) // 2  # draw column of the first forwarder-destination link
    # (draw column, sender, link) per SNR column.  Senders: 0.0, 1.0, burst,
    # budgets.  Links: 1.0, dk_pow, jk_pow, dj_pow, hh_pow row-major.
    links = [(0, 2, 1)]
    source = [(1 + j, 2, 2 + j) for j in range(m)]
    to_dest = [(dest + j, 3 + j, 2 + m + j) for j in range(m)]
    if kernel == "ucmh-ddf":
        links += to_dest
        for h in range(m):
            links.append(source[h])
            links += [(pair[h, j], 3 + j, 2 + (2 + h) * m + j) if j != h else (0, 0, 0) for j in range(m)]
    else:
        links += source + to_dest
    if kernel == "af2" and m > 1:
        links += [(dest + m + j, 1, 0) for j in range(m)]
    columns = np.array([col for col, _, _ in links])
    columns.flags.writeable = False
    return columns, tuple((sender, link) for _, sender, link in links), int(columns.max()) + 1


def _snr_table(kernel, params):
    """The cell's SNR table: per SNR column, the draw column it reads
    (``_layout``'s shared array) and its gain P/d^gamma, and the forwarder
    count m (0 for mac)."""
    budgets = () if kernel == "mac" else params["budgets"]
    m = len(budgets)
    columns, links, _ = _layout(kernel, m)
    power = (0.0, 1.0, params["burst"], *budgets)
    d_pow = (1.0, params["dk_pow"])
    if m:
        d_pow += (*params["jk_pow"], *params["dj_pow"])
    if kernel == "ucmh-ddf":
        d_pow += tuple(itertools.chain.from_iterable(params["hh_pow"]))
    return columns, np.array([power[sender] / d_pow[link] for sender, link in links]), m


def _survivors(rng, trials, rate, gain, slots):
    """How many of a screened task's trials the direct link alone may not
    carry, for a kernel whose rate is at least (1/slots) C(A_dk gain), and
    q: the chance that A_dk lies below the threshold expm1(slots R ln 2) /
    gain, where that bound equals the rate, widened by ``_SCREEN_MARGIN``.

    Draws: binomial (trials, q).  Every other trial meets the rate.  A
    threshold past the float range is inf: q = 1, every trial survives.
    """
    try:
        threshold = math.expm1(slots * rate * math.log(2.0)) / gain
    except OverflowError:
        threshold = math.inf
    q = -math.expm1(-threshold * (1.0 + _SCREEN_MARGIN))
    return int(rng.binomial(trials, q)), q


def _conditioned(e, q):
    """A_dk given A_dk < t' from the exponential draws e, by inversion in
    place: -log1p(q * expm1(-e)) with q = 1 - exp(-t'), which lies in
    [0, t').  With q None (no screen) e is A_dk as drawn.  Returns e."""
    if q is not None:
        np.negative(e, out=e)
        np.expm1(e, out=e)
        e *= q
        np.log1p(e, out=e)
        np.negative(e, out=e)
    return e


def _snrs(columns, width, gains, rng, n, q):
    """The engine's one draw: n trials' rows, ``rng.exponential`` (n,
    width) up to the layout's largest draw column, as SNR columns, each
    column's draws (A_dk conditioned by q) times its gain.  The gather
    stores them link-major (Fortran order), so a rate step's elementwise
    work runs in long contiguous loops."""
    snr = rng.exponential(size=(n, width))[:, columns]
    _conditioned(snr[:, 0], q)
    snr *= gains
    return snr


def _rate_uc2_ddf(snr, m, rate, mode):
    """Shared second slot, m forwarders: the relay under rc (m = 1), the
    helper users under uc2."""
    theta = _ddf.listen_fraction_uc2(snr[:, 1 : m + 1], rate)
    return _ddf.trial_mutual_info_uc2(theta, snr[:, 0], snr[:, m + 1 :])


def _rate_ucmh_ddf(snr, m, rate, mode):
    """Greedy multihop chain, m helpers (L = m + 1 slots), trial by trial
    (a stage loop that ends early skips only stages no trial has time
    left for).  The table's column order makes both chain inputs views of
    the link-major batch: the helpers' (m, L, n) received SNRs and the
    destination's (n, L)."""
    recv = snr.T[m + 1 :].reshape(m, m + 1, len(snr))
    return _ddf.trial_mutual_info_multihop(_ddf.multihop_schedule(recv, snr[:, : m + 1], rate, mode))


def _rate_af2(snr, m, rate, mode):
    """All helpers forward in one second slot; at m >= 2 the phases
    phi_j = 2 pi (1 - exp(-E_j)) come from the last m columns."""
    phase = -2.0 * math.pi * np.expm1(-snr[:, 2 * m + 1 :]) if m > 1 else None
    return _af.af2_trial_mutual_info(snr[:, 0], snr[:, m + 1 : 2 * m + 1], snr[:, 1 : m + 1], phase)


def _rate_afmh(snr, m, rate, mode):
    """One helper per slot."""
    return _af.afmh_trial_mutual_info(snr[:, 0], snr[:, m + 1 :], snr[:, 1 : m + 1])


def _rate_mac(snr, m, rate, mode):
    """The direct link alone, one slot."""
    return _ddf.capacity(snr[:, 0])


# kernel -> (rate function, screen slot count L or None): the table in
# the module docstring.
_KERNELS = {
    "mac": (_rate_mac, None),
    "rc-ddf": (_rate_uc2_ddf, 1),
    "uc2-ddf": (_rate_uc2_ddf, 1),
    "ucmh-ddf": (_rate_ucmh_ddf, 1),
    "af2": (_rate_af2, 2),
    "afmh": (_rate_afmh, None),
}


def count_events(kernel: str, params: dict, seed: int, path: tuple, trials: int) -> int:
    """Outage events in one task, read from the task's one stream (keyed
    by path) in internal batches.

    At rate 0 no trial fails and at a direct gain of 0 (zero burst power)
    every trial does; either count returns before the stream is derived.
    Otherwise a screened task (slot count L in ``_KERNELS``) first draws
    its survivor count and q (``_survivors``) and then one row per
    survivor, with the direct draw conditioned by q; mac and afmh read one
    row per trial (q is None).  Rows are read trial-major, so the count
    is the same for any batch size."""
    rate_of, slots = _KERNELS[kernel]
    rate = params["rate"]
    if rate <= 0.0:
        return 0
    columns, gains, m = _snr_table(kernel, params)
    if gains[0] <= 0.0:
        return trials
    width = _layout(kernel, m)[2]
    rng = derive_stream(seed, *path)
    q = None
    if slots is not None:
        trials, q = _survivors(rng, trials, rate, gains[0], slots)
    events = 0
    for done in range(0, trials, _BATCH):
        snr = _snrs(columns, width, gains, rng, min(_BATCH, trials - done), q)
        events += int(np.count_nonzero(rate_of(snr, m, rate, params.get("mode")) < rate))
    return events


def _run_task(args):
    kernel, params, seed, path, trials = args
    return count_events(kernel, params, seed, path, trials)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def __getattr__(name):
    """``ProcessPoolExecutor``, imported on first use (PEP 562)."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


class worker_pool:
    """Worker processes shared by every ``run_cells`` call of one sweep.

    A handle for ``count`` = min(workers, CPUs this process may run on)
    processes, whose ``executor`` is None until they start.  Rounds run
    in this process until the first round of at least count *
    MAX_TASK_TRIALS trials; the workers start there, with spawn (never
    fork, which is unsafe once the parent has threads), run that round
    and every later one, and shut down when the ``with`` block exits.
    The start alone imports ``multiprocessing`` and reads the executor
    class through this module's ``ProcessPoolExecutor`` attribute, so a
    handle whose workers never start loads no pool machinery.  Scripts
    that run a sweep with more than one worker need an
    ``if __name__ == "__main__":`` guard.
    """

    def __init__(self, workers: int):
        self.count = min(workers, _cpu_count())
        self.executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.executor is not None:
            self.executor.shutdown()

    def run(self, tasks: list) -> list[int]:
        """Event counts of one round's tasks, in task order."""
        if self.executor is None and self.count > 1:
            if sum(task[-1] for task in tasks) >= self.count * MAX_TASK_TRIALS:
                import multiprocessing

                # Through the module attribute, so a stand-in bound on this
                # module (a tracer's, a test's) is the class that starts.
                pool_class = getattr(sys.modules[__name__], "ProcessPoolExecutor")
                self.executor = pool_class(
                    max_workers=self.count, mp_context=multiprocessing.get_context("spawn")
                )
        if self.executor is None:
            return [_run_task(t) for t in tasks]
        # About four chunks per worker balance the load while keeping the
        # per-chunk pickling and IPC overhead small.
        chunk = -(-len(tasks) // (4 * self.count))
        return list(self.executor.map(_run_task, tasks, chunksize=chunk))


def run_cells(
    cells: list[tuple[int, int, str, dict]],
    point_seed: int,
    target_events: int = TARGET_EVENTS,
    trial_ceiling: int = TRIAL_CEILING,
    pool=None,
) -> tuple[np.ndarray, int, bool]:
    """Adaptive pooled trial loop for one sweep point.

    cells holds (placement_idx, user_idx, kernel, params) entries; every
    cell receives the same per-round trial counts (equal shares of the
    ceiling), so per-user and per-placement averages pool cleanly.
    Rounds run through ``pool``, the sweep's ``worker_pool`` handle, or
    all in this process when pool is None.
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
    if pool is None:
        pool = worker_pool(1)
    for round_idx, cum in enumerate(round_targets(trial_ceiling // len(cells))):
        sizes = chunk_sizes(cum - trials)
        trials = cum
        tasks = [
            (kernel, params, point_seed, (placement_idx, user_idx, round_idx, chunk_idx), size)
            for placement_idx, user_idx, kernel, params in cells
            for chunk_idx, size in enumerate(sizes)
        ]
        results = pool.run(tasks)
        # Each cell's tasks are consecutive, one per chunk.
        events += np.reshape(results, (len(cells), len(sizes))).sum(axis=1)
        if events.sum() >= target_events:
            break
    return events, trials, bool(events.sum() < target_events)
