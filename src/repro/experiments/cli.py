"""Command-line entry point: ``repro-study``.

Examples::

    repro-study --experiment scan --scale tiny
    repro-study --experiment full --scale default --out report.txt
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.config import StudyConfig
from repro.experiments.defenders import run_defender_study
from repro.experiments.full_study import run_full_study
from repro.experiments.honeypots import run_honeypot_study
from repro.experiments.observe import run_observer_study
from repro.experiments.scan import run_scan_study
from repro.util.errors import ReproError

_SCALES = {
    "tiny": StudyConfig.tiny,
    "default": StudyConfig.default,
    "paper": StudyConfig.paper,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Reproduce the MAV measurement study (IMC 2022).",
    )
    parser.add_argument(
        "--experiment",
        choices=("full", "scan", "observe", "honeypot", "defender",
                 "ct-race", "vhosts", "packet-loss", "recall-recovery",
                 "chaos-soak", "chaos-coverage", "longevity"),
        default="full",
    )
    parser.add_argument("--scale", choices=sorted(_SCALES), default="default")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None,
                        help="run the sweep as concurrent /24-aligned shards "
                             "on this many workers: threads, or processes "
                             "that compute shards, the parent included "
                             "(scan / observe experiments); the report and "
                             "telemetry are byte-identical for every worker "
                             "count")
    parser.add_argument("--executor", choices=("thread", "process"),
                        default="thread",
                        help="shard execution backend when --workers is set: "
                             "threads share memory but are GIL-bound; "
                             "processes scan on real cores (output is "
                             "byte-identical either way)")
    parser.add_argument("--markdown", action="store_true",
                        help="render the full report as markdown")
    parser.add_argument("--out", type=str, default=None,
                        help="write the report to this file instead of stdout")
    parser.add_argument("--telemetry", choices=("jsonl", "prometheus", "funnel"),
                        default=None,
                        help="append the run's telemetry in this format "
                             "(scan / observe / honeypot experiments)")
    parser.add_argument("--telemetry-out", type=str, default=None,
                        help="write the telemetry dump to this file instead "
                             "of appending it to the report")
    observability = parser.add_argument_group(
        "profiling and the operations console",
        "diagnostic layers on top of the telemetry: none of them change "
        "the canonical report or telemetry export",
    )
    observability.add_argument(
        "--profile", action="store_true",
        help="arm span profiling (SimClock rollups plus per-shard wall "
             "attribution) for experiments that run the pipeline",
    )
    observability.add_argument(
        "--profile-out", type=str, default=None,
        help="write the deterministic SimClock profile rollup as JSON "
             "(implies --profile)",
    )
    observability.add_argument(
        "--flight-out", type=str, default=None,
        help="write the flight recorder's slowest-probe dump as JSON",
    )
    observability.add_argument(
        "--console-port", type=int, default=None,
        help="serve the live operations console on this loopback port "
             "for the duration of the run (0 = ephemeral)",
    )
    longevity = parser.add_argument_group(
        "incremental longevity campaign",
        "the interval-compressed re-scan campaign (--experiment "
        "longevity): one recorded baseline sweep, then incremental "
        "re-scans on the study's cadence with sampled byte-identity "
        "verification against from-scratch sweeps",
    )
    longevity.add_argument(
        "--frame-addresses", type=int, default=10_000_000,
        help="size of the interval-compressed scan frame (default 10M; "
             "the paper's full scale is 100M)",
    )
    longevity.add_argument(
        "--max-sweeps", type=int, default=None,
        help="cap the cadence ticks for smoke runs (default: the whole "
             "observation window)",
    )
    longevity.add_argument(
        "--rescan-from", type=str, default=None,
        help="resume an earlier campaign from this saved re-scan state: "
             "the baseline sweep is skipped and the first tick diffs "
             "against the loaded sweep",
    )
    longevity.add_argument(
        "--rescan-out", type=str, default=None,
        help="save the campaign's final re-scan state to this file so a "
             "later run can continue with --rescan-from",
    )
    supervision = parser.add_argument_group(
        "supervised runtime",
        "run the sweep under the supervised runtime (full / scan / observe "
        "experiments): deadlines, per-probe watchdogs, quarantine, and a "
        "coverage account of everything skipped",
    )
    supervision.add_argument(
        "--deadline", type=float, default=None,
        help="sweep-wide deadline in simulated seconds; the sweep stops "
             "probing when a shard's clock budget runs out and accounts "
             "the remainder as deadline-skipped",
    )
    supervision.add_argument(
        "--max-shard-restarts", type=int, default=None,
        help="restarts granted to a crashing shard before it is abandoned "
             "and its frame accounted unreachable (default 2)",
    )
    supervision.add_argument(
        "--quarantine-threshold", type=int, default=None,
        help="poison/stall strikes before a host is quarantined for the "
             "rest of the sweep (default 2)",
    )
    return parser


def _supervisor_config(args):
    """A SupervisorConfig when any supervision flag was given, else None."""
    if (args.deadline is None and args.max_shard_restarts is None
            and args.quarantine_threshold is None):
        return None
    from repro.core.supervisor import SupervisorConfig

    defaults = SupervisorConfig()
    return SupervisorConfig(
        deadline=args.deadline,
        max_shard_restarts=(
            args.max_shard_restarts
            if args.max_shard_restarts is not None
            else defaults.max_shard_restarts
        ),
        quarantine_threshold=(
            args.quarantine_threshold
            if args.quarantine_threshold is not None
            else defaults.quarantine_threshold
        ),
    )


def _run(
    experiment: str,
    config: StudyConfig,
    markdown: bool = False,
    workers: int | None = None,
    executor: str = "thread",
    supervisor=None,
    profile: bool = False,
    console=None,
    longevity_args=None,
):
    """Run one experiment; returns (report text, Telemetry or None)."""
    if experiment == "full":
        study = run_full_study(config, supervisor=supervisor)
        return study.render_markdown() if markdown else study.render(), None
    if experiment == "scan":
        study = run_scan_study(
            config, workers=workers, executor=executor,
            supervisor=supervisor, profile=profile, console=console,
        )
        sections = [study.table2().render(), study.table3().render(),
                    study.table4().render(), study.figure1().render()]
        if supervisor is not None:
            sections.append(study.report.coverage.render())
        return "\n\n".join(sections), study.telemetry
    if experiment == "observe":
        study = run_scan_study(
            config, workers=workers, executor=executor,
            supervisor=supervisor, profile=profile, console=console,
        )
        # The observer charges its sweep counters to the scan pipeline's
        # handle, so one dump covers both phases.
        observer = run_observer_study(study, telemetry=study.telemetry)
        return observer.figure2().render(), observer.telemetry
    if experiment == "honeypot":
        study = run_honeypot_study(config)
        return "\n\n".join(
            [study.table5().render(), study.table6().render(),
             study.figure3().render(), study.figure4().render(),
             study.table7().render(), study.table8().render()]
        ), study.telemetry
    if experiment == "defender":
        return run_defender_study().table().render(), None
    if experiment == "ct-race":
        from repro.experiments.ct_race import run_ct_race

        return run_ct_race().table().render(), None
    if experiment == "vhosts":
        from repro.experiments.vhosts import run_vhost_study

        return run_vhost_study().table().render(), None
    if experiment == "packet-loss":
        from repro.experiments.packet_loss import run_packet_loss_study

        return run_packet_loss_study().table().render(), None
    if experiment == "recall-recovery":
        from repro.experiments.packet_loss import run_recall_recovery_study

        return run_recall_recovery_study().table().render(), None
    if experiment == "longevity":
        from repro.core.rescan import load_rescan_state, save_rescan_state
        from repro.experiments.longevity import run_longevity_study

        options = longevity_args or {}
        resume = None
        if options.get("rescan_from"):
            resume = load_rescan_state(options["rescan_from"])
        study = run_longevity_study(
            config,
            frame_addresses=options.get("frame_addresses", 10_000_000),
            max_sweeps=options.get("max_sweeps"),
            resume_from=resume,
        )
        if options.get("rescan_out"):
            save_rescan_state(study.final_state, options["rescan_out"])
        return study.render(), None
    if experiment == "chaos-soak":
        from repro.experiments.chaos_soak import run_chaos_soak

        soak = run_chaos_soak(profile=profile, console=console)
        return soak.render(), soak.telemetry
    if experiment == "chaos-coverage":
        from repro.experiments.chaos_soak import run_chaos_coverage_study

        study = run_chaos_coverage_study()
        return study.table().render(), study.telemetry
    raise ValueError(f"unknown experiment {experiment!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = _SCALES[args.scale]()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    profile = args.profile or args.profile_out is not None
    hub = server = None
    try:
        if args.console_port is not None:
            from repro.obs.console import ConsoleHub, ConsoleServer

            hub = ConsoleHub()
            server = ConsoleServer(hub, port=args.console_port).start()
            print(f"operations console at {server.url}", file=sys.stderr)
        report, telemetry = _run(
            args.experiment, config,
            markdown=args.markdown, workers=args.workers,
            executor=args.executor,
            supervisor=_supervisor_config(args),
            profile=profile, console=hub,
            longevity_args={
                "frame_addresses": args.frame_addresses,
                "max_sweeps": args.max_sweeps,
                "rescan_from": args.rescan_from,
                "rescan_out": args.rescan_out,
            },
        )
    except ReproError as error:
        print(f"repro-study: {error}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.stop()
    if args.telemetry is not None:
        if telemetry is None:
            print(
                f"experiment {args.experiment!r} records no telemetry",
                file=sys.stderr,
            )
            return 2
        dump = telemetry.export(args.telemetry)
        if args.telemetry_out:
            with open(args.telemetry_out, "w") as handle:
                handle.write(dump)
            print(f"telemetry written to {args.telemetry_out}")
        else:
            report = report + "\n\n" + dump.rstrip("\n")
    if args.profile_out is not None or args.flight_out is not None:
        if telemetry is None:
            print(
                f"experiment {args.experiment!r} records no telemetry",
                file=sys.stderr,
            )
            return 2
        if args.profile_out is not None:
            from repro.obs.profile import ProfileRollup

            rollup = ProfileRollup.from_spans(telemetry.tracer.finished)
            with open(args.profile_out, "w") as handle:
                json.dump(rollup.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"profile rollup written to {args.profile_out}")
        if args.flight_out is not None:
            with open(args.flight_out, "w") as handle:
                json.dump(
                    telemetry.flight.snapshot_state(), handle,
                    indent=2, sort_keys=True,
                )
                handle.write("\n")
            print(f"flight record written to {args.flight_out}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        print(f"report written to {args.out}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
