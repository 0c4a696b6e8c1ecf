"""Seeded determinism bugs: one per DET rule, each beside a near miss.

A ``# seeded`` line must be flagged with its rule; a ``# near miss``
line looks like it but is sound, and must not be.
"""

import random
import time
import uuid


def stamp(clock):
    wall = time.time()  # seeded: DET001
    simulated = clock.time()  # near miss: DET001 (an instance method)
    return wall, simulated


def token(namespace, name):
    fresh = uuid.uuid4()  # seeded: DET002
    derived = uuid.uuid5(namespace, name)  # near miss: DET002
    return fresh, derived


def jitter(seed):
    shared = random.random()  # seeded: DET003
    own = random.Random(seed)  # near miss: DET003
    return shared, own.random()


def order(hosts):
    leaked = [host for host in set(hosts)]  # seeded: DET004
    fixed = [host for host in sorted(set(hosts))]  # near miss: DET004
    return leaked, fixed


def drain(queue):
    while True:  # seeded: DET006
        if not queue.pop():
            break
    while queue:  # near miss: DET006
        queue.pop()
