"""Command-line entry point: ``repro-study``.

Examples::

    repro-study --experiment scan --scale tiny
    repro-study --experiment full --scale default --out report.txt

``EXPERIMENTS`` maps each experiment to its runner and the flags it
reads; a flag it does not read ends the run before anything starts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

from repro.core.rescan import load_rescan_state, save_rescan_state
from repro.experiments.chaos_soak import run_chaos_coverage_study, run_chaos_soak
from repro.experiments.config import StudyConfig
from repro.experiments.ct_race import run_ct_race
from repro.experiments.defenders import run_defender_study
from repro.experiments.full_study import run_full_study
from repro.experiments.honeypots import run_honeypot_study
from repro.experiments.longevity import run_longevity_study
from repro.experiments.observe import run_observer_study
from repro.experiments.packet_loss import (
    run_packet_loss_study,
    run_recall_recovery_study,
)
from repro.experiments.scan import run_scan_study
from repro.experiments.vhosts import run_vhost_study
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
        choices=tuple(EXPERIMENTS),
        default="full",
    )
    # Every other option defaults to None, so a given flag is one that is
    # not None (see refusal); the runners fill in the defaults.
    parser.add_argument("--scale", choices=sorted(_SCALES),
                        help="study size (default: default)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None,
                        help="run the sweep as concurrent /24-aligned shards "
                             "on this many workers: threads, or processes "
                             "that compute shards, the parent included; "
                             "the report and telemetry are byte-identical "
                             "for every worker count")
    parser.add_argument("--executor", choices=("thread", "process"),
                        help="shard execution backend for --workers "
                             "(default: thread): threads share memory but "
                             "are GIL-bound; processes scan on real cores "
                             "(output is byte-identical either way)")
    parser.add_argument("--markdown", action="store_true", default=None,
                        help="render the full report as markdown")
    parser.add_argument("--out", type=str, default=None,
                        help="write the report to this file instead of stdout")
    parser.add_argument("--telemetry", choices=("jsonl", "prometheus", "funnel"),
                        help="append the run's telemetry in this format")
    parser.add_argument("--telemetry-out", type=str, default=None,
                        help="write the telemetry dump to this file instead "
                             "of appending it to the report")
    observability = parser.add_argument_group(
        "profiling and the operations console",
        "diagnostic layers on top of the telemetry: none of them change "
        "the canonical report or telemetry export",
    )
    observability.add_argument(
        "--profile-out", type=str, default=None,
        help="write the deterministic SimClock profile rollup as JSON",
    )
    observability.add_argument(
        "--flight-out", type=str, default=None,
        help="write the flight recorder's slowest-probe dump as JSON",
    )
    observability.add_argument(
        "--console-port", type=int, default=None,
        help="serve the live operations console on this loopback port "
             "for the duration of the run (0 = ephemeral); arms the "
             "per-shard wall profile it shows",
    )
    longevity = parser.add_argument_group(
        "incremental longevity campaign",
        "the interval-compressed re-scan campaign (--experiment "
        "longevity): one recorded baseline sweep, then incremental "
        "re-scans on the study's cadence with sampled byte-identity "
        "verification against from-scratch sweeps",
    )
    longevity.add_argument(
        "--frame-addresses", type=int, default=None,
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
        "run the sweep under the supervised runtime: deadlines, per-probe "
        "watchdogs, quarantine, and a coverage account of everything "
        "skipped",
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


def _config(args) -> StudyConfig:
    config = _SCALES[args.scale or "default"]()
    return config if args.seed is None else config.with_seed(args.seed)


def _supervisor_config(args):
    """A SupervisorConfig of the supervision flags given, or None."""
    given = {
        name: getattr(args, name)
        for name in ("deadline", "max_shard_restarts", "quarantine_threshold")
        if getattr(args, name) is not None
    }
    if not given:
        return None
    from repro.core.supervisor import SupervisorConfig

    return SupervisorConfig(**given)


def _scan_study(args, console):
    # Profiling is armed exactly when a console shows its per-shard wall.
    return run_scan_study(
        _config(args), workers=args.workers,
        executor=args.executor or "thread",
        supervisor=_supervisor_config(args),
        profile=console is not None, console=console,
    )


def _full(args, console):
    study = run_full_study(_config(args), supervisor=_supervisor_config(args))
    return study.render_markdown() if args.markdown else study.render(), None


def _scan(args, console):
    study = _scan_study(args, console)
    sections = [study.table2().render(), study.table3().render(),
                study.table4().render(), study.figure1().render()]
    if study.pipeline.supervisor is not None:
        sections.append(study.report.coverage.render())
    return "\n\n".join(sections), study.telemetry


def _observe(args, console):
    study = _scan_study(args, console)
    # The observer charges its sweep counters to the scan pipeline's
    # handle, so one dump covers both phases.
    observer = run_observer_study(study, telemetry=study.telemetry)
    return observer.figure2().render(), observer.telemetry


def _honeypot(args, console):
    study = run_honeypot_study(_config(args))
    return "\n\n".join(
        [study.table5().render(), study.table6().render(),
         study.figure3().render(), study.figure4().render(),
         study.table7().render(), study.table8().render()]
    ), study.telemetry


def _one_table(study: Callable):
    """The runner of a study that reads no flag and renders one table."""
    return lambda args, console: (study().table().render(), None)


def _longevity(args, console):
    study = run_longevity_study(
        _config(args),
        frame_addresses=args.frame_addresses or 10_000_000,
        max_sweeps=args.max_sweeps,
        resume_from=(
            None if args.rescan_from is None
            else load_rescan_state(args.rescan_from)
        ),
    )
    if args.rescan_out is not None:
        save_rescan_state(study.final_state, args.rescan_out)
    return study.render(), None


def _chaos_soak(args, console):
    soak = run_chaos_soak(profile=console is not None, console=console)
    return soak.render(), soak.telemetry


def _chaos_coverage(args, console):
    study = run_chaos_coverage_study()
    return study.table().render(), study.telemetry


class Experiment(NamedTuple):
    #: ``(args, console hub or None) -> (report text, Telemetry or None)``
    run: Callable
    #: the flags ``run`` reads; ``--experiment`` and ``--out`` apply to all
    reads: frozenset[str]


_STUDY = {"--scale", "--seed"}
_SUPERVISION = {"--deadline", "--max-shard-restarts", "--quarantine-threshold"}
_SWEEP = {"--workers", "--executor", "--console-port", *_SUPERVISION}
#: what main writes from the Telemetry the runner returns
_TELEMETRY = {"--telemetry", "--telemetry-out", "--profile-out", "--flight-out"}
_CAMPAIGN = {"--frame-addresses", "--max-sweeps", "--rescan-from", "--rescan-out"}

#: every experiment, its runner and the flags it reads: any other flag is
#: refused before anything runs
EXPERIMENTS = {
    name: Experiment(run, frozenset(reads))
    for name, run, reads in (
        ("full", _full, {*_STUDY, *_SUPERVISION, "--markdown"}),
        ("scan", _scan, {*_STUDY, *_SWEEP, *_TELEMETRY}),
        ("observe", _observe, {*_STUDY, *_SWEEP, *_TELEMETRY}),
        ("honeypot", _honeypot, {*_STUDY, *_TELEMETRY}),
        ("defender", _one_table(run_defender_study), ()),
        ("ct-race", _one_table(run_ct_race), ()),
        ("vhosts", _one_table(run_vhost_study), ()),
        ("packet-loss", _one_table(run_packet_loss_study), ()),
        ("recall-recovery", _one_table(run_recall_recovery_study), ()),
        ("chaos-soak", _chaos_soak, {"--console-port", *_TELEMETRY}),
        ("chaos-coverage", _chaos_coverage, _TELEMETRY),
        ("longevity", _longevity, {*_STUDY, *_CAMPAIGN}),
    )
}
#: a flag that only means something beside another
COMPANIONS = (("--telemetry-out", "--telemetry"), ("--executor", "--workers"))


def refusal(args) -> str | None:
    """Why these parsed arguments cannot run as given, or None."""
    given = [
        "--" + dest.replace("_", "-")
        for dest, value in vars(args).items()
        if dest != "experiment" and value is not None
    ]
    reads = EXPERIMENTS[args.experiment].reads
    for flag in given:
        if flag != "--out" and flag not in reads:
            return f"{flag} does not apply to --experiment {args.experiment}"
    for flag, needs in COMPANIONS:
        if flag in given and needs not in given:
            return f"{flag} needs {needs}"
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    refused = refusal(args)
    if refused is not None:
        print(f"repro-study: {refused}", file=sys.stderr)
        return 2
    hub = server = None
    try:
        if args.console_port is not None:
            from repro.obs.console import ConsoleHub, ConsoleServer

            hub = ConsoleHub()
            server = ConsoleServer(hub, port=args.console_port).start()
            print(f"operations console at {server.url}", file=sys.stderr)
        report, telemetry = EXPERIMENTS[args.experiment].run(args, hub)
    except ReproError as error:
        print(f"repro-study: {error}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.stop()
    if args.telemetry is not None:
        dump = telemetry.export(args.telemetry)
        if args.telemetry_out:
            _write(args.telemetry_out, dump, "telemetry")
        else:
            report = report + "\n\n" + dump.rstrip("\n")
    if args.profile_out is not None:
        from repro.obs.profile import ProfileRollup

        rollup = ProfileRollup.from_spans(telemetry.tracer.finished)
        _write(args.profile_out, _json(rollup.to_dict()), "profile rollup")
    if args.flight_out is not None:
        state = telemetry.flight.snapshot_state()
        _write(args.flight_out, _json(state), "flight record")
    if args.out:
        _write(args.out, report + "\n", "report")
    else:
        print(report)
    return 0


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str, what: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)
    print(f"{what} written to {path}")


if __name__ == "__main__":
    sys.exit(main())
