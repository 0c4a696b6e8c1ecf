"""CI and the docs can only name what exists.

The legacy throughput harness kept gating CI, and being quoted by the
docs, for four PRs after the code it patched had moved: a name in a
workflow or a document is not checked by anything that runs.  This is
the check.
"""

import importlib
import json
import re
import shlex
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: the deleted harness and its result file; the second engine, the second
#: runner and the thread-only hook of supervised sweeps; the pipeline's
#: fifth walk through the stages; the observer's private lifecycle step,
#: fingerprint pass, host record and span; the re-scan engine's own batch
#: loop and the pipeline pieces it drove; the unused wire codec and figure
#: helper; stage I's per-host counter write, dead-gap helper and op
#: generators, and the observation-log subset only a test called; the
#: lint rules and passes that checked a property something else checks;
#: the plugin base class, its auditor and its rules; the re-scan
#: pipeline's stage-III token and its noting stats class; the process
#: pool's per-shard function, its initializer and its per-worker runner;
#: stage I's per-host op stream, its lazy gate and its batch closer; the
#: per-driver resume-config lists and the sharded journal's shard count;
#: the static analyzer, its baseline and every rule it had left
RETIRED = (
    "bench_throughput", "BENCH_scan",
    "SweepSupervisor", "SupervisedShardRunner", "crash_hook", "rescan_hosts",
    "_apply_fate_transitions", "_measure_version_updates", "_TrackedHost",
    "observer-sweep",
    "_diff_churned_blocks", "_open_sweep", "_close_sweep",
    "parse_wire_request", "parse_wire_response", "curves_by_app",
    "Masscan._count", "_account_dead", "_range_ops", "_block_ops",
    "subset_by_app",
    "DET005", "ObservabilityAuditor",
    "no-corpus", "with_corpus", "SIG004", "SIG005", "SIG006",
    "TelemetrySummary", "RecordWindowError", "_open_window", "_close_window",
    "counters_flat", "flat_reads", "shard_deadline", "sweep_deadline",
    "effective_deadline", "probe_port(", "_probe_operations",
    "MavDetectionPlugin", "PluginContractAuditor",
    "PLUGIN_BASE", "PLG001", "PLG002", "PLG003", "PLG004", "PLG005",
    "PLG006", "PLG007", "replay_findings", "_NotedStats",
    "_process_shard", "_init_worker", "_WORKER_RUNNER",
    "_ops", "_gated(", "`_gated`", "_close_batch",
    "_resume_config", "_expected_config", "resume_config(", "shards_total",
    "Gauge", "gauge_value", "_raw_key", "_counter_memo", "_histogram_memo",
    ".absorb(",
    # the static worker-boundary analyzer, its call graph, registries, rules
    "WORKER_ENTRY_POINTS", "PICKLE_BOUNDARY_TYPES", "ConcurrencyAuditor",
    "worker_contexts", "boundary_classes",
    "CallGraph", "lint/callgraph.py",
    "RACE001", "RACE002", "RACE003", "PKL001", "PKL002", "PKL003",
    # the rest of the analyzer: its package, baseline, auditors and rules
    "repro.lint", "reprolint-baseline", "SignatureAuditor",
    "DeterminismAuditor", "SIG001", "SIG002", "SIG003", "DET001", "DET002",
    "DET003", "DET004", "DET006", "OBS001",
    # the CLI's profiling switch, in forms --profile-out does not match
    "--profile ", "--profile\n", "`--profile`",
)

#: history (what was done, what was asked) may name what is gone; the
#: benchmark's README is frozen with the benchmark; this file defines
#: the names
MAY_NAME_RETIRED = {
    "CHANGES.md", "ROADMAP.md", "ISSUE.md", "bench/README.md",
    "tests/test_ci_names.py",
}
#: a document that may name some retired names: DESIGN.md's static
#: analysis section says where each retired rule went
MAY_NAME = {"DESIGN.md": {
    *(f"PLG00{n}" for n in range(1, 8)),
    *(f"{family}00{n}" for family in ("RACE", "PKL", "SIG") for n in range(1, 4)),
    "DET001", "DET002", "DET003", "DET004", "DET006", "OBS001",
}, "SNIPPETS.md": {"--profile ", "`--profile`"}}  # other projects' CLIs


def test_ci_and_docs_name_only_what_exists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    ci = (ROOT / ".github/workflows/ci.yml").read_text()

    assert set(re.findall(r"--workload[ =]([\w.-]+)", ci)) <= workloads
    assert set(re.findall(r'metrics\["([^"]+)"\]', ci)) <= metrics
    # the gate table: a quoted key is a workload or one of its metrics
    table_keys = set(re.findall(r'"([\w.]+)"\s*:', ci))
    assert table_keys & workloads and table_keys & metrics  # table found
    assert table_keys <= workloads | metrics

    try:
        tracked = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files"],
            check=True, capture_output=True, text=True, timeout=30,
        ).stdout.splitlines()
    except (OSError, subprocess.SubprocessError):
        pytest.skip("not a git checkout: no list of tracked files")
    naming = [
        name for name in tracked
        if name not in MAY_NAME_RETIRED and (ROOT / name).is_file()
        and any(
            retired in (ROOT / name).read_text(errors="ignore")
            for retired in RETIRED if retired not in MAY_NAME.get(name, ())
        )
    ]
    assert naming == []


def _names_code(layer: str, leaf: str) -> bool:
    """Is ``<layer>.<leaf>`` something module ``repro.<layer>`` defines?"""
    try:
        module = importlib.import_module(f"repro.{layer}")
    except ImportError:
        return False
    return hasattr(module, leaf)


def test_docs_quote_only_metrics_the_benchmark_declares():
    """A backticked ``workload.metric`` or ``layer.metric`` is in
    BENCHMARK.json.  The grammar is the benchmark's own — a workload or a
    layer it declares, then one name — not "anything with dots": module
    paths are left alone, and under a layer the one other thing a name can
    be is what the module of that name defines (``net.intervals.as_frame``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    layers = {name.rpartition(".")[0] for name in per_layer}

    checked, unknown = set(), []
    for doc in ("DESIGN.md", "README.md", "EXPERIMENTS.md"):
        text = (ROOT / doc).read_text()
        for token in sorted(set(re.findall(r"`([a-z_]+(?:\.\w+)+)`", text))):
            head, _, leaf = token.rpartition(".")
            if head in workloads:
                declared = leaf in end_to_end
            elif head in layers:
                declared = token in per_layer or _names_code(head, leaf)
            else:
                continue
            checked.add(token)
            if not declared:
                unknown.append(f"{doc}: {token}")
    assert {"sweep_dense.wall_s", "core.checkpoint.share"} <= checked  # found
    assert unknown == []


#: where a ``repro-study`` command line starts: the console script or the
#: module, then a space
COMMAND = re.compile(r"(?:repro-study|-m repro\.experiments\.cli)(?=\s|$)(.*)")


def command_lines(text: str, folded: bool) -> list[list[str]]:
    """The arguments of every ``repro-study`` command line in ``text``.

    A line that ends in a backslash goes on, as in a shell, and so, where
    lines are ``folded`` (a YAML ``run: >`` block), do the lines after it
    that start with ``--``; inline code ends at its backtick, a shell
    comment is dropped, and a command ends at a pipe or a redirection.
    """
    lines = text.splitlines()
    commands = []
    for index, line in enumerate(lines):
        match = COMMAND.search(line)
        if match is None:
            continue
        rest = match.group(1)
        for following in lines[index + 1:]:
            if rest.endswith("\\"):
                rest = rest[:-1] + following
            elif folded and following.lstrip().startswith("--"):
                rest += " " + following
            else:
                break
        words = shlex.split(re.sub(r"(^|\s)#.*", "", rest.split("`")[0]))
        ends = [n for n, word in enumerate(words) if word[:1] in tuple("|&;<>")]
        commands.append(words[:ends[0]] if ends else words)
    return commands


@pytest.mark.parametrize(
    "doc", [".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md"]
)
def test_every_command_line_names_only_flags_that_apply(doc):
    """Each ``repro-study`` command line in CI and the docs parses, and
    the experiment table takes every flag it gives; none is run."""
    from repro.experiments.cli import build_parser, refusal

    commands = command_lines((ROOT / doc).read_text(), doc.endswith(".yml"))
    assert len(commands) >= 5  # found
    refused = []
    for words in commands:
        if "--help" in words:
            continue
        try:
            why = refusal(build_parser().parse_args(words))
        except SystemExit:
            why = "does not parse"
        if why is not None:
            refused.append(f"{' '.join(words)}: {why}")
    assert refused == []
