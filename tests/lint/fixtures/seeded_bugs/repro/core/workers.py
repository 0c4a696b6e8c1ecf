"""Seeded worker-pool bugs (RACE*), each beside a near miss.

Nothing here is registered: every worker callable is reached through
the pool dispatch sites in ``dispatch``, including a bound method whose
receiver arrives as a plain parameter and so has no known type.
"""

RESULTS = {}


def record(item):
    RESULTS[item] = item * 2  # seeded: RACE001
    return item


def record_locally(item):
    owned = {}
    owned[item] = item * 2  # near miss: RACE001
    return owned


class Tally:
    def __init__(self):
        self.count = 0

    def tally_shard(self, shard):
        self.count += 1  # seeded: RACE002 (untyped receiver)
        return shard


class ShardBuffer:
    """Built inside the worker, so private to it: it may mutate itself."""

    def __init__(self):
        self.rows = []

    def add_row(self, row):
        self.rows = [*self.rows, row]  # near miss: RACE002
        return self.rows


def fill(shard):
    return ShardBuffer().add_row(shard)


def dispatch(pool, tally, shards):
    seen = []

    def note(shard):
        seen.append(shard)

    def double(shard):
        return shard * 2

    for shard in shards:
        pool.submit(note, shard)  # seeded: RACE003
        pool.submit(double, shard)  # near miss: RACE003
        pool.submit(record, shard)
        pool.submit(record_locally, shard)
        pool.submit(tally.tally_shard, shard)
        pool.submit(fill, shard)
    return seen
