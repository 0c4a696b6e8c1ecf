"""Throughput harness: stage-II bodies/sec and end-to-end addresses/sec.

Times two things against a *seed-baseline emulation* (the hot paths as
they were before the parallel-engine PR):

* **matcher** — ``match_signatures`` (guaranteed-literal prescan + single
  combined scan) versus ``match_signatures_naive`` (up to 90 regexes, one
  at a time) over the canned-page corpus plus signature-free bodies;
* **pipeline** — the sharded engine at 1/2/4/8 workers — on both the
  thread executor and the multicore process executor — versus a
  sequential baseline run with the naive matcher and the per-port probe
  path (no batched ``probe_ports``), on a bench-scale census.

Results land in ``BENCH_scan.json`` so future PRs have a perf
trajectory.  ``--check`` gates CI on the committed file: because absolute
addresses/sec depend on the runner's hardware, the gate compares the
hardware-independent *speedup ratios* (current vs committed) and fails
when sequential throughput regresses more than ``--tolerance`` relative
to its baseline.  Process-executor scaling efficiency additionally gets
*absolute* floors (workers=4 >= 2x, workers=8 >= 3x over workers=1) —
but only when the machine has the cores to make the floor physically
meaningful, which is why ``cpu_cores`` is recorded in the file: a
1-core container measuring efficiency 1.0 is not a regression, it is
Amdahl's law.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --out BENCH_scan.json                  # full-scale, rewrite file
    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --addresses 3000 --check BENCH_scan.json   # CI smoke + gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.apps.catalog import scanned_ports
from repro.core import masscan as masscan_mod
from repro.core import prefilter as prefilter_mod
from repro.core.pipeline import ScanPipeline
from repro.core.prefilter import match_signatures, match_signatures_naive
from repro.core.retry import RetryPolicy
from repro.lint.corpus import build_corpus
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.ipv4 import IPv4Address, iana_reserved_networks
from repro.net.transport import InMemoryTransport, Transport
from repro.obs.profile import ProfileRollup
from repro.util.clock import SimClock

SCHEMA = 4

#: absolute floors on the interval/rescan arms, enforced by
#: --enforce-rescan-floors.  An incremental re-scan at 2% block churn
#: must beat a from-scratch sweep by >= 5x end to end, and the
#: interval-compressed frame must cost <= 1/10 the bytes per address of
#: a naive per-address dict.  Both compare two runs on the *same*
#: machine, so unlike raw throughput they are hardware-independent.
RESCAN_SPEEDUP_FLOOR = 5.0
MEMORY_RATIO_FLOOR = 10.0

#: absolute floors on process-executor scaling efficiency (workers=N
#: throughput over workers=1), enforced by --enforce-scaling-floors on
#: machines with at least N cores.  On fewer cores the floor is
#: physically unreachable and is skipped, not failed.
EFFICIENCY_FLOORS = {"4": 2.0, "8": 3.0}

#: mild weather for the SimClock-attribution arm: a clean sweep never
#: advances the simulated clock, so attributing sim time needs retries
#: (backoff) and slow responses (injected latency) actually happening
SIM_ATTRIBUTION_PLAN = FaultPlan(
    request_loss=0.03,
    slow_rate=0.02,
    slow_latency=5.0,
)


# -- matcher ------------------------------------------------------------------

def matcher_bodies() -> list[str]:
    """The canned-page corpus plus signature-free filler, 2:1.

    Real stage-II traffic is a mix of application landing pages and
    bodies that match nothing (decoys, error pages); the filler keeps the
    bench honest about the all-miss case, which is the matcher's
    worst-case scan.
    """
    corpus = [
        body
        for pages in build_corpus().values()
        for body in pages.values()
    ]
    filler = ["<html><body>nothing to see here</body></html> " * 30] * (
        len(corpus) // 2
    )
    return corpus + filler


def bench_matcher(rounds: int = 30) -> dict:
    bodies = matcher_bodies()

    def rate(fn) -> float:
        start = time.perf_counter()
        for _ in range(rounds):
            for body in bodies:
                fn(body)
        return rounds * len(bodies) / (time.perf_counter() - start)

    naive = rate(match_signatures_naive)
    # the matcher itself: the public function is memoised by body, and
    # these rounds repeat the same bodies
    single_pass = rate(match_signatures.__wrapped__)
    return {
        "bodies": len(bodies),
        "naive_bodies_per_sec": round(naive, 1),
        "single_pass_bodies_per_sec": round(single_pass, 1),
        "speedup": round(single_pass / naive, 3),
    }


# -- pipeline -----------------------------------------------------------------

def legacy_is_reserved(address: IPv4Address) -> bool:
    """The pre-PR reserved check: a linear scan over all 27 CIDR objects.

    The PR replaced it with a bisect over precomputed integer ranges;
    the baseline must still pay the old per-address cost.
    """
    return any(net.contains(address) for net in _LEGACY_RESERVED)


_LEGACY_RESERVED = iana_reserved_networks()


class PerPortTransport(Transport):
    """Seed-baseline probe path: no batched ``probe_ports`` override.

    Wrapping the in-memory transport in this shim restores the
    one-host-lookup-per-port behaviour the scanner had before this PR,
    which is what the end-to-end baseline must measure.
    """

    def __init__(self, inner: Transport) -> None:
        super().__init__(enforce_ethics=inner.enforce_ethics)
        self.inner = inner
        self.stats = inner.stats

    def _port_open(self, ip, port):
        return self.inner._port_open(ip, port)

    def _exchange(self, ip, port, scheme, request):
        return self.inner._exchange(ip, port, scheme, request)

    def fetch_certificate(self, ip, port):
        return self.inner.fetch_certificate(ip, port)


def bench_census(limit: int | None, dead_per_live: int = 50):
    """The bench-scale frame: populated hosts diluted with dead neighbours.

    The paper sweeps ~3.5B addresses of which a sliver responds, so a
    realistic throughput frame is dominated by stage I silence.  Scanning
    only ``populated_addresses()`` would invert that (and hide the
    batched-probe win), so each populated host drags ``dead_per_live``
    unpopulated addresses from its own /24 into the frame.
    """
    from repro.experiments.config import StudyConfig
    from repro.net.population import generate_internet

    internet, _geo, _census = generate_internet(
        StudyConfig.default().population
    )
    populated: list[IPv4Address] = internet.populated_addresses()
    if limit is not None:
        populated = populated[:limit]
    values = set()
    for ip in populated:
        values.add(ip.value)
        base = ip.value & 0xFFFFFF00
        added = 0
        for offset in range(256):
            if added == dead_per_live:
                break
            value = base + offset
            if value not in values:
                values.add(value)
                added += 1
    candidates = [IPv4Address(value) for value in sorted(values)]
    return internet, candidates


def run_baseline(internet, candidates) -> float:
    """Sequential sweep with the pre-PR hot paths: addresses/sec."""
    transport = PerPortTransport(InMemoryTransport(internet))
    pipeline = ScanPipeline(transport, scanned_ports(), seed=3)
    # The baseline must pay the old 90-regex matching and linear
    # reserved-check costs; swapping the module hooks is bench-only
    # surgery and is undone immediately.
    original_match = prefilter_mod.match_signatures
    original_reserved = masscan_mod.is_reserved
    prefilter_mod.match_signatures = prefilter_mod.match_signatures_naive
    masscan_mod.is_reserved = legacy_is_reserved
    try:
        start = time.perf_counter()
        report = pipeline.run(candidates)
        elapsed = time.perf_counter() - start
    finally:
        prefilter_mod.match_signatures = original_match
        masscan_mod.is_reserved = original_reserved
    assert report.port_scan.addresses_scanned == len(candidates)
    return len(candidates) / elapsed


def run_engine(
    internet, candidates, workers: int, executor: str = "thread"
) -> float:
    """Sharded engine at ``workers`` on ``executor``: addresses/sec.

    Process runs pay their real operating costs inside the timed window —
    interpreter spawn plus pickling the world into each worker — because
    that is what a user of ``--executor process`` pays too.
    """
    transport = InMemoryTransport(internet)
    pipeline = ScanPipeline(
        transport, scanned_ports(), seed=3,
        workers=workers, executor=executor,
    )
    start = time.perf_counter()
    report = pipeline.run(candidates)
    elapsed = time.perf_counter() - start
    assert report.port_scan.addresses_scanned == len(candidates)
    return len(candidates) / elapsed


def bench_pipeline(
    limit: int | None,
    worker_counts: tuple[int, ...],
    dead_per_live: int = 50,
    executors: tuple[str, ...] = ("thread", "process"),
) -> tuple[dict, object, list]:
    if "thread" not in executors:
        raise ValueError("the thread executor anchors the speedup ratios "
                         "and cannot be skipped")
    internet, candidates = bench_census(limit, dead_per_live)
    baseline = run_baseline(internet, candidates)
    sweeps = {
        executor: {
            str(workers): round(
                run_engine(internet, candidates, workers, executor), 1
            )
            for workers in worker_counts
        }
        for executor in executors
    }

    def efficiency(per_workers: dict) -> dict:
        # Scaling *efficiency* vs the engine's own workers=1 rate: the
        # honest view the 2.5x-over-baseline headline hides.  >1 means
        # adding workers helps; <1 means they cost throughput (the GIL
        # for threads, spawn + world-pickling overhead for processes).
        return {
            str(workers): round(
                per_workers[str(workers)] / per_workers["1"], 3
            )
            for workers in worker_counts
            if workers != 1 and "1" in per_workers
        }

    thread = sweeps["thread"]
    reference = thread.get("4", next(iter(thread.values())))
    results = {
        "addresses": len(candidates),
        "dead_per_live": dead_per_live,
        # Scaling numbers are only meaningful relative to the cores that
        # measured them; the floors in --enforce-scaling-floors key off
        # this field so a 1-core container is not failed for obeying
        # Amdahl's law.
        "cpu_cores": os.cpu_count(),
        "baseline_addresses_per_sec": round(baseline, 1),
        "workers": thread,
        "speedup_workers4": round(reference / baseline, 3),
        "scaling_efficiency": efficiency(thread),
    }
    if "process" in sweeps:
        process = sweeps["process"]
        results["process_workers"] = process
        # No workers=1 fallback here: a fallback number would be compared
        # against a committed workers=4 measurement by the ratio gate,
        # which is incoherent.  Absent key -> gate pair skipped.
        if "4" in process:
            results["speedup_workers4_process"] = round(
                process["4"] / baseline, 3
            )
        results["process_scaling_efficiency"] = efficiency(process)
    return results, internet, candidates


# -- profiling attribution ----------------------------------------------------

def run_sim_attribution(internet, candidates) -> dict:
    """Where simulated time goes, under mild chaos + retries.

    Deterministic: the rollup is a pure function of the seeds, so this
    section of BENCH_scan.json is diffable across machines.
    """
    clock = SimClock()
    transport = ChaosTransport(
        InMemoryTransport(internet), SIM_ATTRIBUTION_PLAN,
        seed=11, clock=clock,
    )
    pipeline = ScanPipeline(
        transport, scanned_ports(), seed=3,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=8.0),
        clock=clock, workers=1, profile=True,
    )
    pipeline.run(candidates)
    rollup = ProfileRollup.from_spans(pipeline.telemetry.tracer.finished)
    ranked = sorted(
        sorted(rollup.paths),
        key=lambda path: -rollup.paths[path].self_time,
    )
    return {
        "root_total_sim_seconds": round(rollup.root_total, 3),
        "attributed_fraction": round(rollup.attributed_fraction(), 6),
        "top_paths": [
            {
                "path": path,
                "self": round(rollup.paths[path].self_time, 3),
                "total": round(rollup.paths[path].total, 3),
                "count": rollup.paths[path].count,
            }
            for path in ranked[:8]
        ],
    }


def run_wall_attribution(internet, candidates, worker_counts) -> dict:
    """Real seconds per span path, per worker count (profiled re-runs).

    The numbers are hardware-bound and *not* gated; what matters is the
    shape — which path's self time grows as workers are added.  The
    ``regression`` block names the path whose self wall time grows most
    from the fewest to the most workers: the code the GIL serialises.
    """
    books = {}
    for workers in worker_counts:
        transport = InMemoryTransport(internet)
        pipeline = ScanPipeline(
            transport, scanned_ports(), seed=3,
            workers=workers, profile=True,
        )
        pipeline.run(candidates)
        books[workers] = pipeline.wall_profile
    section = {
        str(workers): book.to_dict(top=6)
        for workers, book in books.items()
    }
    low, high = min(books), max(books)
    if low != high:
        slow, fast = books[high], books[low]
        paths = sorted(set(slow.path_self) | set(fast.path_self))
        dominant = max(
            paths,
            key=lambda p: slow.path_self.get(p, 0.0)
            - fast.path_self.get(p, 0.0),
        )
        section["regression"] = {
            "fast_workers": str(low),
            "slow_workers": str(high),
            "dominant_path": dominant,
            "self_delta_seconds": round(
                slow.path_self.get(dominant, 0.0)
                - fast.path_self.get(dominant, 0.0), 3,
            ),
        }
    return section


# -- rescan engine ------------------------------------------------------------

def bench_rescan(frame_addresses: int, churn: float = 0.02) -> dict:
    """Incremental re-scan vs from-scratch sweep at ``churn`` block churn.

    Builds its own world (the tiny-study population over an
    interval-compressed frame) so the measurement does not depend on
    ``--addresses``: the rescan win is about dead-run skipping and host
    replay, and needs a frame big enough for both to matter.
    """
    from repro.core.rescan import RescanEngine
    from repro.experiments.config import StudyConfig
    from repro.net.intervals import CompressedPopulation
    from repro.net.population import generate_internet

    config = StudyConfig.tiny()
    internet, _geo, _census = generate_internet(config.population)
    transport = InMemoryTransport(internet)
    pop = CompressedPopulation.build(internet, frame_addresses, seed=config.seed)
    frame = pop.frame
    engine = RescanEngine(
        transport, scanned_ports(), seed=config.seed, batch_size=16384
    )

    start = time.perf_counter()
    state = engine.baseline(frame)
    baseline_seconds = time.perf_counter() - start

    # Median of three on both sides: the gate is an absolute floor on the
    # ratio, so one noisy run must not be able to fail (or pass) it.
    full_times = []
    for _ in range(3):
        start = time.perf_counter()
        ScanPipeline(
            transport, scanned_ports(), seed=config.seed, batch_size=16384
        ).run(frame)
        full_times.append(time.perf_counter() - start)
    full_seconds = sorted(full_times)[1]

    # Port-level churn on ``churn`` of the live /24s: every
    # ``1/churn``-th live host goes away.  The engine must self-detect
    # each from the stage-I diff and deep-probe only those blocks.
    live = pop.live_values()
    step = max(1, int(1 / churn))
    removed = 0
    for value in live[::step]:
        host = internet.host_at(IPv4Address(value))
        if host is not None:
            internet.remove_host(IPv4Address(value))
            removed += 1

    rescan_times = []
    for _ in range(3):
        start = time.perf_counter()
        engine.rescan(frame, state)
        rescan_times.append(time.perf_counter() - start)
    rescan_seconds = sorted(rescan_times)[1]

    return {
        "frame_addresses": frame_addresses,
        "frame_runs": len(frame.runs),
        "live_hosts": len(live),
        "churned_hosts": removed,
        "churn": churn,
        "baseline_recorded_seconds": round(baseline_seconds, 3),
        "full_sweep_seconds": round(full_seconds, 3),
        "rescan_seconds": round(rescan_seconds, 3),
        "speedup_at_churn": round(full_seconds / rescan_seconds, 3),
    }


def bench_population_memory(
    frame_addresses: int, dict_sample: int = 200_000
) -> dict:
    """tracemalloc bytes-per-address: naive dict vs interval frame.

    The dict arm allocates ``{address: {}}`` for a sample and
    extrapolates (allocating 10M dict entries just to measure them is
    the bug this PR removes); the interval arm builds the real frame at
    full size and measures it outright.
    """
    import tracemalloc

    from repro.experiments.config import StudyConfig
    from repro.net.intervals import CompressedPopulation
    from repro.net.population import generate_internet

    config = StudyConfig.tiny()
    internet, _geo, _census = generate_internet(config.population)

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    frame = CompressedPopulation.build(
        internet, frame_addresses, seed=config.seed
    ).frame
    after, _ = tracemalloc.get_traced_memory()
    interval_bytes = after - before

    before, _ = tracemalloc.get_traced_memory()
    sample = {value: {} for value in range(dict_sample)}
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    dict_bytes_per_address = (after - before) / len(sample)
    del sample

    interval_per_address = interval_bytes / len(frame)
    projected_dict_bytes = int(dict_bytes_per_address * len(frame))
    return {
        "frame_addresses": len(frame),
        "frame_runs": len(frame.runs),
        "interval_bytes": interval_bytes,
        "interval_bytes_per_address": round(interval_per_address, 4),
        "dict_sample": dict_sample,
        "dict_bytes_per_address": round(dict_bytes_per_address, 1),
        "projected_dict_bytes": projected_dict_bytes,
        "ratio": round(dict_bytes_per_address / interval_per_address, 1),
    }


# -- regression gate ----------------------------------------------------------

def check_regression(current: dict, committed: dict, tolerance: float) -> list[str]:
    """Ratio-based comparison against the committed BENCH_scan.json.

    Absolute throughput is hardware-bound, so the gate compares the
    *speedups over the in-run baseline*, which cancel the machine out.
    """
    failures: list[str] = []
    pairs = [
        ("matcher speedup",
         current["matcher"]["speedup"], committed["matcher"]["speedup"]),
        ("workers=4 end-to-end speedup",
         current["pipeline"]["speedup_workers4"],
         committed["pipeline"]["speedup_workers4"]),
    ]
    now = current["pipeline"].get("speedup_workers4_process")
    then = committed["pipeline"].get("speedup_workers4_process")
    if now is not None and then is not None:
        pairs.append(("workers=4 process end-to-end speedup", now, then))
    # Scaling efficiency (workers=N vs workers=1) is gated too, so a
    # change that silently worsens the parallel regression fails CI even
    # while the headline speedup over the seed baseline still looks fine.
    # ``.get`` guards keep the gate compatible with older-schema files.
    for key, what in (("scaling_efficiency", "thread"),
                      ("process_scaling_efficiency", "process")):
        for count in ("4", "8"):
            now = current["pipeline"].get(key, {}).get(count)
            then = committed["pipeline"].get(key, {}).get(count)
            if now is not None and then is not None:
                pairs.append(
                    (f"workers={count} {what} scaling efficiency", now, then)
                )
    # Rescan and memory ratios are machine-independent; gate them like
    # the speedups.  ``.get`` keeps schema-3 files working.
    for section, key, what in (
        ("rescan", "speedup_at_churn", "rescan speedup at 2% churn"),
        ("memory", "ratio", "dict/interval bytes-per-address ratio"),
    ):
        now = current.get(section, {}).get(key)
        then = committed.get(section, {}).get(key)
        if now is not None and then is not None:
            pairs.append((what, now, then))
    for label, now, then in pairs:
        floor = then * (1.0 - tolerance)
        if now < floor:
            failures.append(
                f"{label} regressed: {now:.3f} < {floor:.3f} "
                f"(committed {then:.3f}, tolerance {tolerance:.0%})"
            )
    return failures


def check_scaling_floors(current: dict) -> list[str]:
    """Absolute floors on *this run's* process-executor scaling.

    Unlike :func:`check_regression` this does not compare against the
    committed file: it asserts the multicore promise itself — workers=4
    must beat workers=1 by at least 2x on a >=4-core machine (3x at
    workers=8 on >=8 cores).  Floors whose core count the runner lacks
    are skipped, so the committed file from a small container never
    poisons the gate; CI enforces them on real multicore runners with a
    frame large enough that worker startup is amortised.
    """
    pipeline = current["pipeline"]
    cores = pipeline.get("cpu_cores") or 1
    efficiency = pipeline.get("process_scaling_efficiency")
    if efficiency is None:
        return ["--enforce-scaling-floors needs the process executor "
                "measured; include it in --executors"]
    failures: list[str] = []
    for count, floor in sorted(
        EFFICIENCY_FLOORS.items(), key=lambda pair: int(pair[0])
    ):
        if cores < int(count):
            continue
        now = efficiency.get(count)
        if now is not None and now < floor:
            failures.append(
                f"process executor at workers={count} scaled only "
                f"{now:.3f}x over workers=1 on a {cores}-core machine "
                f"(floor {floor}x)"
            )
    return failures


def check_rescan_floors(current: dict) -> list[str]:
    """Absolute floors on this run's rescan speedup and memory ratio.

    Both numbers compare two measurements from the same process on the
    same machine, so unlike raw throughput they carry no hardware term
    and can be gated absolutely.
    """
    failures: list[str] = []
    rescan = current.get("rescan")
    if rescan is None:
        failures.append("--enforce-rescan-floors needs the rescan section; "
                        "run without --no-rescan")
    else:
        speedup = rescan["speedup_at_churn"]
        if speedup < RESCAN_SPEEDUP_FLOOR:
            failures.append(
                f"incremental re-scan at {rescan['churn']:.0%} churn beat the "
                f"full sweep by only {speedup:.2f}x "
                f"(floor {RESCAN_SPEEDUP_FLOOR}x)"
            )
    memory = current.get("memory")
    if memory is None:
        failures.append("--enforce-rescan-floors needs the memory section; "
                        "run without --no-rescan")
    else:
        ratio = memory["ratio"]
        if ratio < MEMORY_RATIO_FLOOR:
            failures.append(
                f"interval frame cost {memory['interval_bytes_per_address']} "
                f"bytes/address vs dict {memory['dict_bytes_per_address']} "
                f"— ratio {ratio:.1f} under the {MEMORY_RATIO_FLOOR}x floor"
            )
    return failures


# -- entry point --------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="write results to this JSON file")
    parser.add_argument("--addresses", type=int, default=None,
                        help="cap the census at this many candidates "
                             "(default: the full bench-scale census)")
    parser.add_argument("--matcher-rounds", type=int, default=30)
    parser.add_argument("--dead-per-live", type=int, default=50,
                        help="unresponsive neighbours pulled into the frame "
                             "per populated host (models the mostly-silent "
                             "internet-wide sweep)")
    parser.add_argument("--workers", type=int, nargs="+",
                        default=(1, 2, 4, 8))
    parser.add_argument("--executors", nargs="+",
                        choices=("thread", "process"),
                        default=("thread", "process"),
                        help="executors to sweep; thread anchors the "
                             "baseline-relative speedups and is mandatory. "
                             "CI's smoke-scale gate runs thread-only because "
                             "a tiny frame measures process startup cost, "
                             "not scaling")
    parser.add_argument("--check", type=Path, default=None,
                        help="compare speedup ratios against this committed "
                             "BENCH_scan.json and exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.3,
                        help="allowed relative regression for --check")
    parser.add_argument("--enforce-scaling-floors", action="store_true",
                        help="fail unless this run's process executor hits "
                             "the absolute efficiency floors (workers=4 >= "
                             "2x, workers=8 >= 3x vs workers=1) on a machine "
                             "with that many cores; use a frame large enough "
                             "to amortise worker startup")
    parser.add_argument("--no-profile", action="store_true",
                        help="skip the profile-attribution section "
                             "(halves the bench's wall time)")
    parser.add_argument("--no-rescan", action="store_true",
                        help="skip the rescan and population-memory "
                             "sections (they build their own world)")
    parser.add_argument("--rescan-addresses", type=int, default=10_000_000,
                        help="interval-frame size for the rescan and "
                             "memory sections")
    parser.add_argument("--enforce-rescan-floors", action="store_true",
                        help="fail unless the incremental re-scan beats a "
                             "full sweep by >= 5x at 2%% churn and the "
                             "interval frame costs <= 1/10 the bytes per "
                             "address of a naive dict")
    parser.add_argument("--sim-addresses", type=int, default=30000,
                        help="frame cap for the chaos-driven SimClock "
                             "attribution arm (retries make it slow per "
                             "address; the attribution fraction does not "
                             "depend on the frame size)")
    args = parser.parse_args(argv)

    print("benching matcher ...", flush=True)
    matcher = bench_matcher(rounds=args.matcher_rounds)
    print(f"  naive       {matcher['naive_bodies_per_sec']:>10} bodies/s")
    print(f"  single-pass {matcher['single_pass_bodies_per_sec']:>10} bodies/s"
          f"  ({matcher['speedup']}x)")

    print("benching pipeline ...", flush=True)
    pipeline, internet, candidates = bench_pipeline(
        args.addresses, tuple(args.workers), args.dead_per_live,
        tuple(args.executors),
    )
    print(f"  baseline    {pipeline['baseline_addresses_per_sec']:>10} addrs/s"
          f"  ({pipeline['cpu_cores']} cores)")
    for executor, key in (("thread", "workers"), ("process", "process_workers")):
        for workers, value in pipeline.get(key, {}).items():
            print(f"  {executor:>7} workers={workers}   {value:>10} addrs/s")
    speedups = [f"thread {pipeline['speedup_workers4']}x"]
    if "speedup_workers4_process" in pipeline:
        speedups.append(f"process {pipeline['speedup_workers4_process']}x")
    print("  workers=4 speedup over baseline: " + ", ".join(speedups))
    for executor, key in (("thread", "scaling_efficiency"),
                          ("process", "process_scaling_efficiency")):
        for workers, efficiency in pipeline.get(key, {}).items():
            print(f"  {executor:>7} workers={workers} efficiency "
                  f"vs workers=1: {efficiency}x")

    results = {"schema": SCHEMA, "matcher": matcher, "pipeline": pipeline}

    if not args.no_profile:
        print("profiling attribution ...", flush=True)
        sim = run_sim_attribution(internet, candidates[:args.sim_addresses])
        print(f"  sim root total {sim['root_total_sim_seconds']}s, "
              f"{sim['attributed_fraction']:.1%} attributed to named paths")
        wall = run_wall_attribution(internet, candidates, tuple(args.workers))
        for workers in map(str, args.workers):
            book = wall.get(workers)
            if book:
                print(f"  workers={workers} wall {book['elapsed']}s, "
                      f"dominant {book['dominant_path']}")
        regression = wall.get("regression")
        if regression:
            print(f"  workers={regression['slow_workers']} vs "
                  f"{regression['fast_workers']} regression: "
                  f"+{regression['self_delta_seconds']}s self in "
                  f"{regression['dominant_path']}")
        results["profile"] = {"sim": sim, "wall": wall}

    if not args.no_rescan:
        print("benching incremental re-scan ...", flush=True)
        rescan = bench_rescan(args.rescan_addresses)
        print(f"  full sweep {rescan['full_sweep_seconds']}s, incremental "
              f"{rescan['rescan_seconds']}s at {rescan['churn']:.0%} churn "
              f"({rescan['speedup_at_churn']}x)")
        memory = bench_population_memory(args.rescan_addresses)
        print(f"  frame {memory['interval_bytes_per_address']} B/addr vs "
              f"dict {memory['dict_bytes_per_address']} B/addr "
              f"({memory['ratio']}x)")
        results["rescan"] = rescan
        results["memory"] = memory

    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")

    failures: list[str] = []
    if args.check is not None:
        committed = json.loads(args.check.read_text())
        failures += check_regression(results, committed, args.tolerance)
    if args.enforce_rescan_floors:
        rescan_failures = check_rescan_floors(results)
        if not rescan_failures:
            print("rescan floors passed "
                  f"(speedup >= {RESCAN_SPEEDUP_FLOOR}x, "
                  f"memory ratio >= {MEMORY_RATIO_FLOOR}x)")
        failures += rescan_failures
    if args.enforce_scaling_floors:
        floor_failures = check_scaling_floors(results)
        if not floor_failures:
            cores = pipeline["cpu_cores"]
            enforced = [
                count for count in EFFICIENCY_FLOORS if cores >= int(count)
            ]
            if enforced:
                print("scaling floors passed at workers="
                      + ",".join(sorted(enforced, key=int)))
            else:
                print(f"scaling floors skipped: only {cores} core(s)")
        failures += floor_failures
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.check is not None:
        print("regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
