"""Stage I host by host, kept as the oracle for the /24 block walk.

This is ``repro.core.masscan.Masscan.scan_in_batches`` as it was before
the block walk: a producer of ``(dead gap, live value)`` ops, one per
host to probe, over liveness hints asked one frame run at a time; a lazy
supervision gate over them; and one consumer that asks the transport
once per host.  Production never calls it; the property in
``test_masscan.py`` requires the block walk to yield the same batches,
send the same packets in the same order and make the same gate
decisions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.core.masscan import PortScanResult
from repro.net.intervals import BLOCK_MASK, BLOCK_SIZE
from repro.net.ipv4 import IPv4Address


def run_hints(transport, frame):
    """The liveness hints by /24, asked run by run: each answer holds
    frame members only, so nothing needs dropping.  None for a backend
    that cannot know."""
    hints = {}
    for start, end in frame.runs:
        values = transport.live_values_in(start, end)
        if values is None:
            return None
        for value in values:
            hints.setdefault(value & BLOCK_MASK, []).append(value)
    return hints


def op_stream(scanner, candidates, skip):
    """The sweep after ``skip`` as ``(dead gap, live value)`` ops."""
    frame, counts, bases = scanner.plan_blocks(candidates)
    hints = run_hints(scanner.transport, frame)
    pending_dead = 0
    for base in bases:
        count = counts[base]
        if skip >= count:
            skip -= count
            continue
        live = range(base, base + BLOCK_SIZE) if hints is None else hints.get(base, ())
        if not live:
            pending_dead += count - skip
            skip = 0
            continue
        if len(live) == count:
            for value in live[skip:]:
                yield pending_dead, value
                pending_dead = 0
            skip = 0
            continue
        last = base | (BLOCK_SIZE - 1)
        runs = ((base, last),) if count == BLOCK_SIZE else frame.runs_in(base, last)
        for start, end in runs:
            if skip > end - start:
                skip -= end - start + 1
                continue
            cursor, skip = start + skip, 0
            for value in live[bisect_left(live, cursor):bisect_right(live, end)]:
                yield pending_dead + value - cursor, value
                pending_dead, cursor = 0, value + 1
            pending_dead += end - cursor + 1
    if pending_dead:
        yield pending_dead, None


def gate(supervision, ops):
    """A gap and its host as two ops, each read after the last flush."""
    for gap, host in ops:
        for dead, value in ((gap, None), (0, host)):
            if supervision.should_stop():
                return
            if value is not None and supervision.is_quarantined_value(value):
                supervision.note_gate_skip(IPv4Address(value))
            else:
                yield dead, value


def reference_batches(scanner, candidates, batch_size, skip=0):
    """Yield ``(batch, re-sends)``; each flush adds the dead's SYNs."""
    ops = op_stream(scanner, candidates, skip)
    if scanner.supervision is not None:
        ops = gate(scanner.supervision, ops)
    transport, ports = scanner.transport, scanner.ports
    attempts = 1 if scanner.retry is None else scanner.retry.policy.max_attempts

    def close():
        transport.stats.syn_probes += dead * len(ports) * attempts
        result.addresses_scanned = scanned
        result.probes_sent = scanned * len(ports)
        return result, resends

    result, scanned, dead, resends = PortScanResult(), 0, 0, 0
    for gap, value in ops:
        while gap:
            take = min(gap, batch_size - scanned)
            scanned, dead, gap = scanned + take, dead + take, gap - take
            if scanned >= batch_size:
                yield close()
                result, scanned, dead, resends = PortScanResult(), 0, 0, 0
        if value is None:
            continue
        if attempts == 1:
            found = list(transport.probe_ports([value], ports).get(value, ()))
        else:
            ip, found = IPv4Address(value), []
            for port in ports:
                for sent in range(attempts):
                    if transport.syn_probe(ip, port):
                        found.append(port)
                        break
                resends += sent
        scanned += 1
        if found:
            result.open_ports[value] = tuple(sorted(found))
        if scanned >= batch_size:
            yield close()
            result, scanned, dead, resends = PortScanResult(), 0, 0, 0
    if scanned:
        yield close()
