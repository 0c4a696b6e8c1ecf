"""Seeded PR-7 regression: the worker shared-counter race.

This is the shape ``core/parallel.py`` shipped with before the fix:
the thread-pool worker wrapper bumps an engine attribute from worker
threads, so the counter's trajectory — and anything derived from it —
depends on scheduling order.  The whole-program worker reachability
graph must flag the write (RACE002): the method is a registered entry
point and a ``self.method`` handed to the pool.
"""

from concurrent.futures import ThreadPoolExecutor, as_completed

WORKER_ENTRY_POINTS = (
    "repro.core.parallel.MiniEngine._run_shard",
)

PICKLE_BOUNDARY_TYPES = (
    "repro.core.parallel.MiniRunner",
)


class MiniRunner:
    """Stand-in shard runner: pure function of its shard."""

    def run(self, shard):
        return {"shard": shard, "hosts": len(shard)}


class MiniEngine:
    def __init__(self, runner, workers):
        self.runner = runner
        self.workers = workers
        self._shards_done = 0

    def run(self, shards):
        completed = {}
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = {
                pool.submit(self._run_shard, shard): index
                for index, shard in enumerate(shards)
            }
            for future in as_completed(futures):
                completed[futures[future]] = future.result()
        return [completed[index] for index in sorted(completed)]

    def _run_shard(self, shard):
        result = self.runner.run(shard)
        self._shards_done += 1  # the seeded bug: a worker-side write
        return result
