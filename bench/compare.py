"""Compare two benchmark result files, one row per workload x end-to-end metric.

    python3 bench/compare.py A.json B.json

A result file (written by ``run.py --out``) holds one or more *sets*: one
set is one run of the whole suite.  Each side's value for a row is the
median over its sets, shown with the quartiles of the same values.  The
verdict reads B against A with the metric's bound from BENCHMARK.json:

* ``worse`` / ``better``  B's median differs from A's by more than the bound;
* ``within``              it does not;
* ``unresolved``          the run-to-run spread (the wider of the two
  interquartile ranges, as a share of A's median) exceeds the bound, so the
  difference cannot be told from noise - unless every run of B is better
  than every run of A, which still reads ``better``.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    bound: float
    a: tuple[float, float, float]  # first quartile, median, third quartile
    b: tuple[float, float, float]
    verdict: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = quantiles(values, n=4)
    return first, median(values), third


def judge(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    spread = max(qa[2] - qa[0], qb[2] - qb[0]) / qa[1]
    if spread > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return "better" if all_better else "unresolved"
    worsening = sign * (qb[1] - qa[1]) / qa[1]
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within"


def compare(spec: dict, a_sets: list[dict], b_sets: list[dict]) -> list[Row]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [s[workload]["end_to_end"][name]["value"] for s in a_sets]
            b = [s[workload]["end_to_end"][name]["value"] for s in b_sets]
            rows.append(Row(
                workload, name, metric["unit"], metric["bound"],
                quartiles(a), quartiles(b),
                judge(a, b, metric["better"], metric["bound"]),
            ))
    return rows


def render(rows: list[Row]) -> str:
    lines = [
        f"{'workload':<20}{'metric':<18}{'unit':<5}"
        f"{'A q1/median/q3':>34}{'B q1/median/q3':>34}{'bound':>7}  verdict"
    ]
    for row in rows:
        a = "/".join(f"{v:.5g}" for v in row.a)
        b = "/".join(f"{v:.5g}" for v in row.b)
        lines.append(
            f"{row.workload:<20}{row.metric:<18}{row.unit:<5}"
            f"{a:>34}{b:>34}{row.bound:>7.0%}  {row.verdict}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    for side, doc in (("A", a), ("B", b)):
        print(f"{side}: {json.dumps(doc['stamp'], sort_keys=True)}")
    if a["stamp"]["nproc"] != b["stamp"]["nproc"]:
        print("warning: the two files come from machines with different core counts")
    rows = compare(spec, a["sets"], b["sets"])
    print(render(rows))
    return 1 if any(row.verdict == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
