"""The repository benchmark: five scan workloads, end to end and layer by layer.

One workload, as the driver runs it (contract in BENCHMARK.json)::

    python3 bench/run.py --workload sweep_dense --seed 7 --seconds 10 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name and unit, checks the outputs against the oracles,
and ends with one JSON line.  An oracle mismatch prints ``"correct":
false`` and exits 1.

The whole suite, each workload in a fresh interpreter, one at a time::

    python3 bench/run.py --seed 7 [--scale X | --smoke] [--sets N] [--out F]

writes every result to ``--out`` (default ``bench/out/latest.json``) and,
with ``--sets 2`` or more, exits non-zero unless the later sets agree with
the earlier ones within the benchmark's own bounds.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from multiprocessing import resource_tracker
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
# The checkout's own source, ahead of any installed copy of the package.
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
from layers import PER_LAYER, TRACED_TICKS, trace_workload  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, OracleMismatch, cpu_count  # noqa: E402

from repro.core.parallel import resolve_start_method  # noqa: E402

SMOKE_SCALE = 0.1
#: the speedometer: iterations of spin(), and the fastest it ran on the
#: reference machine (bench/reference.json); fixes the unit of calibrated
#: seconds and nothing else
SPIN_LOOPS = 400_000
SPIN_REFERENCE_S = 0.0173


def stamp(args) -> dict:
    """Where and how the numbers were taken; written into every output file."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}",
        "commit": commit,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "mp_start_method": resolve_start_method(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


# -- one workload ---------------------------------------------------------------


def spin() -> float:
    """Wall seconds of a fixed piece of pure-Python work: the speedometer."""
    start = perf_counter()
    total = 0
    for i in range(SPIN_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed(section, workers: int = 1) -> tuple[object, float, float]:
    """Run ``section``; return its result, wall seconds, calibrated seconds.

    The speedometer runs right before and right after, and says how much
    slower than the reference machine at its best the CPU is running.  Only
    the seconds spent computing are divided by that slowdown: this
    process's CPU seconds, plus those of the ``workers`` processes the
    section ran side by side, at 1/workers each.  The rest of the wall time
    (waiting on the OS to start and reap processes) is taken as measured.
    """
    gc.collect()
    before = spin()
    start, cpu_start, children_start = perf_counter(), process_time(), children_cpu()
    result = section()
    wall = perf_counter() - start
    cpu = process_time() - cpu_start + (children_cpu() - children_start) / workers
    slowdown = (before + spin()) / 2 / SPIN_REFERENCE_S
    computing = min(cpu, wall)
    return result, wall, wall - computing + computing / slowdown


def measure(workload, args) -> tuple[dict[str, float], int, int]:
    """The untraced closed loop: end-to-end metrics, attempted, failed."""
    # A set-up is tens of milliseconds for most workloads: repeat it for a
    # second (3 to 15 times) so that its median is as steady as the rest.
    setups, began = [timed(workload.setup)[2]], perf_counter()
    while not args.smoke and (
        len(setups) < 3 or (len(setups) < 15 and perf_counter() - began < 1.0)
    ):
        setups.append(timed(workload.setup)[2])
    workload.reference()

    raw, walls, address_rates, host_rates = [], [], [], []
    attempted = failed = 0
    began = perf_counter()
    while len(walls) < (1 if args.smoke else 3) or perf_counter() - began < args.seconds:
        workload.prepare()
        result, wall, calibrated = timed(workload.operation, workload.workers)
        checked = workload.verify(result)
        raw.append(wall)
        walls.append(calibrated)
        address_rates.append(checked.addresses / calibrated)
        host_rates.append(checked.open_hosts / calibrated)
        attempted += checked.attempted
        failed += checked.failed
    workload.finish()
    print(f"samples: {len(walls)} operations, {len(setups)} set-ups; medians reported")
    print(f"uncalibrated wall_s: {median(raw):.6g} s "
          f"(machine ran at {median(walls) / median(raw):.2f} of reference speed)")
    print(f"failed_share: {failed / attempted:.6f} ratio ({failed} of {attempted})")
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "addresses_per_s": median(address_rates),
        "open_hosts_per_s": median(host_rates),
        "peak_rss_mb": peak_rss_mb(),
    }, attempted, failed


def trace(workload, args) -> tuple[dict[str, float], int, int]:
    """The traced pass: per-layer metrics, and the trace file.

    The pass is repeated for ``--seconds`` and each metric is the median
    over the rounds; the trace file holds the spans of the first round.
    """
    workload.setup()
    rounds, first, checked = [], None, None
    began = perf_counter()
    while not rounds or (not args.smoke and perf_counter() - began < args.seconds):
        recorder = Recorder(workload.name)
        metrics, checked = trace_workload(
            workload, recorder, ticks=3 if args.smoke else TRACED_TICKS
        )
        rounds.append(metrics)
        first = first or recorder
    path = OUT / f"trace-{workload.name}.json"
    first.write_chrome_trace(path, stamp(args))
    print(f"trace: {path.relative_to(ROOT)} ({len(first.spans)} spans); "
          f"medians over {len(rounds)} rounds reported")
    medians = {name: median(r[name] for r in rounds) for name in rounds[0]}
    return medians, checked.attempted, checked.failed


def run_workload(args, spec: dict) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    correct = True
    values, attempted, failed = {}, 1, 0
    try:
        values, attempted, failed = (trace if args.trace else measure)(workload, args)
    except OracleMismatch as mismatch:
        print(f"ORACLE MISMATCH in {args.workload}: {mismatch}", file=sys.stderr)
        correct, failed = False, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"{args.workload}.{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# -- the suite ------------------------------------------------------------------


def invoke(args, workload: str, traced: int) -> dict:
    """One workload in a fresh interpreter; its last line is the result."""
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(traced), "--scale", str(args.scale),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if not lines or done.returncode:
        sys.exit(f"bench: {workload} --trace {traced} exited with {done.returncode}")
    return json.loads(lines[-1])


def exact_mismatches(sets: list[dict]) -> list[str]:
    """Counts that must repeat exactly between runs of one commit, but did not."""
    counts = [name for name, unit, _ in PER_LAYER if unit == "count"]
    out = []
    for workload, first in sets[0].items():
        for other in sets[1:]:
            if other[workload]["failed"] != first["failed"]:
                out.append(f"{workload}.failed")
            out.extend(
                f"{workload}.{name}" for name in counts
                if other[workload]["per_layer"][name] != first["per_layer"][name]
            )
    return out


def run_suite(args, spec: dict) -> int:
    sets = []
    for index in range(args.sets):
        results = {}
        for workload in (w["name"] for w in spec["workloads"]):
            print(f"== set {index + 1}/{args.sets}: {workload}", flush=True)
            untraced = invoke(args, workload, 0)
            traced = invoke(args, workload, 1)
            results[workload] = {
                "attempted": untraced["attempted"],
                "failed": untraced["failed"],
                "end_to_end": untraced["metrics"],
                "per_layer": traced["metrics"],
            }
        sets.append(results)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"stamp": stamp(args), "sets": sets}, indent=1))
    print(f"results: {out}")
    if args.sets < 2:
        return 0
    half = args.sets // 2
    rows = compare.compare(spec, sets[:half], sets[half:])
    print(compare.render(rows))
    moved = exact_mismatches(sets)
    for name in moved:
        print(f"exact count differs between sets: {name}")
    return 1 if moved or any(row.verdict != "within" for row in rows) else 0


def stop_children() -> None:
    """Stop every process this one started, and wait until each has ended.

    A spawn sweep leaves no worker behind, but it starts multiprocessing's
    resource tracker, which otherwise lives until this process has gone and
    so outlives it for an instant.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main() -> int:
    try:
        return run()
    finally:
        stop_children()


def run() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one workload measures (at least 3 operations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="the one size factor: multiplies every world's sampling rates")
    parser.add_argument("--smoke", action="store_true",
                        help=f"scale {SMOKE_SCALE}, one operation, one set-up")
    parser.add_argument("--sets", type=int, default=1,
                        help="suite only: run it this many times and compare the halves")
    parser.add_argument("--out", default=str(OUT / "latest.json"))
    args = parser.parse_args()
    if args.smoke:
        args.scale, args.seconds = SMOKE_SCALE, 0.0
    if args.workload:
        return run_workload(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
