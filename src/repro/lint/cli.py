"""``python -m repro.lint`` — run every analyzer, report, gate on the baseline.

Exit codes: 0 = no findings outside the baseline, 1 = new findings (or
stale baseline entries under ``--fail-on-stale``), 2 = usage /
configuration error.  The report is a pure function of the tree: every
run parses each module of it once (a cold whole-tree lint takes under
two seconds) and folds the two analyzers' findings through
:func:`~repro.lint.findings.sort_findings`.  Lint health is also
charged to the shared :mod:`repro.obs` telemetry (one counter series per
rule id), so ``--telemetry`` surfaces it in the same formats as the scan
funnel.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.determinism import DeterminismAuditor
from repro.lint.findings import Finding, sort_findings
from repro.lint.modules import parse_modules
from repro.lint.report import render_json, render_text, rule_catalog
from repro.lint.signatures import SignatureAuditor

#: the committed suppression file, looked up relative to the CWD
DEFAULT_BASELINE = "reprolint-baseline.json"


def default_root() -> Path:
    """The installed ``repro`` package directory (``src/repro``)."""
    import repro

    return Path(repro.__file__).resolve().parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Audit signature shapes, determinism invariants "
                    "and metric names.",
    )
    parser.add_argument("--root", type=Path, default=None,
                        help="repro package directory to audit "
                             "(default: the installed package)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the report to this file instead of stdout")
    parser.add_argument("--baseline", type=Path, default=Path(DEFAULT_BASELINE),
                        help=f"baseline file (default: ./{DEFAULT_BASELINE}; "
                             "missing file = empty baseline)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="accept the current findings into the baseline "
                             "and exit 0")
    parser.add_argument("--fail-on-stale", action="store_true",
                        help="exit 1 if the baseline carries fingerprints "
                             "that no longer fire")
    parser.add_argument("--rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--telemetry", choices=("jsonl", "prometheus"),
                        default=None,
                        help="append the lint run's telemetry in this format")
    parser.add_argument("--telemetry-out", type=Path, default=None,
                        help="write the telemetry dump to this file")
    return parser


def run_analyzers(root: Path) -> list[Finding]:
    """All findings for one tree, in canonical order; both analyzers
    read the one parse of each module."""
    modules = parse_modules(root)
    auditors = (SignatureAuditor(root), DeterminismAuditor(root))
    return sort_findings(
        [finding for auditor in auditors for finding in auditor.run(modules)]
    )


def _record_telemetry(telemetry, findings: list[Finding], new: list[Finding]) -> None:
    telemetry.metrics.counter("lint_runs_total").inc()
    for finding in findings:
        telemetry.metrics.counter("lint_findings_total", rule=finding.rule).inc()
    telemetry.metrics.counter("lint_new_findings_total").inc(len(new))
    telemetry.events.info(
        "lint", "run-complete", findings=len(findings), new=len(new),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.rules:
        sys.stdout.write(rule_catalog())
        return 0

    root = (args.root or default_root()).resolve()
    if not root.is_dir():
        print(f"error: not a directory: {root}", file=sys.stderr)
        return 2

    findings = run_analyzers(root)
    try:
        baseline = Baseline.load(args.baseline)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.update_baseline:
        Baseline.from_findings(findings).save(args.baseline)
        print(f"baseline written to {args.baseline} "
              f"({len(findings)} fingerprint(s))")
        return 0

    new = baseline.new_findings(findings)
    stale = baseline.stale_fingerprints(findings)

    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry()
    _record_telemetry(telemetry, findings, new)

    report = (
        render_json(findings, new, stale)
        if args.format == "json"
        else render_text(findings, new, stale)
    )
    if args.out is not None:
        args.out.write_text(report)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(report)

    if args.telemetry is not None:
        dump = telemetry.export(args.telemetry)
        if args.telemetry_out is not None:
            args.telemetry_out.write_text(dump)
            print(f"telemetry written to {args.telemetry_out}")
        else:
            sys.stdout.write(dump)

    if new:
        return 1
    if stale and args.fail_on_stale:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
