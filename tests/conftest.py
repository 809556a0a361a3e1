"""Shared fixtures."""

import pytest

from tdcoop import mc


@pytest.fixture
def spy_pool(monkeypatch):
    """Make sweeps reach the worker pool at small sizes, and watch it.

    ``spy_pool(task_trials, cpus)`` sets ``mc.MAX_TASK_TRIALS`` to
    task_trials (unless it is None) and the CPU count ``mc`` sees to
    cpus, so a round of workers * task_trials trials starts the workers.
    It returns a list that gets one record per process pool started: its
    ``workers`` count, its start ``method`` and the trials of each round
    it ran (``rounds``).  The pools are real spawned processes; workers take
    their chunk sizes from the parent's tasks, so the patch reaches them.
    """
    pools = []

    class SpyPool(mc.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            super().__init__(max_workers=max_workers, mp_context=mp_context)
            self.record = dict(workers=max_workers, method=mp_context.get_start_method(), rounds=[])
            pools.append(self.record)

        def map(self, fn, tasks, **kwargs):
            tasks = list(tasks)
            self.record["rounds"].append(sum(task[-1] for task in tasks))
            return super().map(fn, tasks, **kwargs)

    def spy(task_trials, cpus):
        if task_trials is not None:
            monkeypatch.setattr(mc, "MAX_TASK_TRIALS", task_trials)
        monkeypatch.setattr(mc, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(mc, "ProcessPoolExecutor", SpyPool)
        return pools

    return spy
