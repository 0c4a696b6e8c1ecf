"""Wall-clock stack sampler over a benchmark workload's timed operation.

    python tests/tools/sample_stacks.py sweep_dense --seed 7 --seconds 25

Sets the workload up as ``bench/run.py`` does, then runs ``operation()``
in a loop on the main thread while a daemon thread reads that thread's
frame from ``sys._current_frames()`` about every millisecond.  Prints, per
function (``file:qualname``), its inclusive share (samples with it on the
stack) and its self share (samples with it on top).  Unlike cProfile it
adds no cost per call and charges a function's own time to it, so a cost
spread over many callers shows as one row: the ``__init__`` a dataclass
generates (``<string>:__create_fn__.<locals>.__init__``), or
``enum.py:Enum.__hash__``.

Caveat: the sampler thread runs only when the main thread gives up the
GIL, at the interpreter's switch points, so a long C call is charged to
the Python frame that made it, whole.
"""

import argparse
import shutil
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS  # noqa: E402


def label(code) -> str:
    # co_qualname is new in Python 3.11; 3.10 gets the bare name
    name = getattr(code, "co_qualname", code.co_name)
    return f"{Path(code.co_filename).name}:{name}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()
    workdir = Path(tempfile.mkdtemp(prefix="sample-"))
    workload = WORKLOADS[args.workload](args.seed, 1.0, workdir)
    workload.setup()
    workload.reference()
    inclusive, own, samples = Counter(), Counter(), 0
    main_id, running = threading.main_thread().ident, True

    def sample() -> None:
        nonlocal samples
        while running:
            frame = sys._current_frames().get(main_id)
            if frame is not None:
                samples += 1
                own[label(frame.f_code)] += 1
                inclusive.update({label(f.f_code) for f in _stack(frame)})
            time.sleep(0.001)

    sys.setswitchinterval(0.001)
    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    operations, deadline = 0, time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        workload.prepare()
        workload.operation()
        operations += 1
    running = False
    sampler.join()
    shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"{args.workload} seed {args.seed}: {operations} operations, {samples} samples"]
    for title, counts in (("self", own), ("inclusive", inclusive)):
        lines.append(f"\n{title}:")
        for name, count in counts.most_common(args.top):
            lines.append(f"{100 * count / samples:6.1f}%  {name}")
    sys.stdout.write("\n".join(lines) + "\n")


def _stack(frame):
    while frame is not None:
        yield frame
        frame = frame.f_back


if __name__ == "__main__":
    main()
