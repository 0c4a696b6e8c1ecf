"""Every repro-study flag on every experiment applies or is refused.

The census is generated: each option of ``build_parser()`` against each
experiment of ``cli.EXPERIMENTS``, with the runners stubbed, so no
experiment runs.  A flag the experiment reads reaches its runner; any
other ends the run with exit status 2 and one ``repro-study: <flag> does
not apply to --experiment <name>`` line before the runner is entered.
"""

import pytest

from repro.experiments import cli
from repro.obs.telemetry import Telemetry

OPTIONS = [
    action for action in cli.build_parser()._actions
    if action.dest not in ("help", "experiment")
]
#: the flags main itself writes a file for, from the runner's results
WRITTEN = {"--out", "--telemetry-out", "--profile-out", "--flight-out"}
COMPANION = dict(cli.COMPANIONS)


def flag_of(action) -> str:
    return action.option_strings[-1]


def sample(action, tmp_path) -> list[str]:
    """The flag with one value it takes."""
    flag = flag_of(action)
    if action.nargs == 0:
        return [flag]
    if action.choices:
        return [flag, action.choices[0]]
    if action.type in (int, float):
        return [flag, "1"]
    return [flag, str(tmp_path / action.dest)]


class FakeServer:
    started = 0

    def __init__(self, hub, port):
        self.url = f"http://127.0.0.1:{port}"

    def start(self):
        FakeServer.started += 1
        return self

    def stop(self):
        pass


@pytest.fixture
def stubbed(monkeypatch):
    """Every runner replaced by one that records its arguments; the
    console server replaced by one that binds nothing."""
    entered = []

    def stub(args, console):
        entered.append(args)
        return "report", Telemetry()

    for name, experiment in cli.EXPERIMENTS.items():
        monkeypatch.setitem(
            cli.EXPERIMENTS, name, experiment._replace(run=stub)
        )
    monkeypatch.setattr("repro.obs.console.ConsoleServer", FakeServer)
    FakeServer.started = 0
    return entered


def run(capsys, argv):
    status = cli.main(argv)
    return status, capsys.readouterr().err


def test_the_table_names_only_real_flags():
    flags = {flag_of(action) for action in OPTIONS}
    for name, experiment in cli.EXPERIMENTS.items():
        assert experiment.reads <= flags, name
    assert {flag for pair in cli.COMPANIONS for flag in pair} <= flags


@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
@pytest.mark.parametrize("action", OPTIONS, ids=flag_of)
def test_a_flag_applies_or_is_refused_before_anything_runs(
    stubbed, capsys, tmp_path, name, action
):
    flag = flag_of(action)
    argv = ["--experiment", name, *sample(action, tmp_path)]
    applies = flag == "--out" or flag in cli.EXPERIMENTS[name].reads
    if applies and flag in COMPANION:
        companion = next(a for a in OPTIONS if flag_of(a) == COMPANION[flag])
        argv += sample(companion, tmp_path)
    status, err = run(capsys, argv)
    if not applies:
        assert status == 2
        assert err == f"repro-study: {flag} does not apply to --experiment {name}\n"
        assert stubbed == [] and FakeServer.started == 0
        return
    assert status == 0
    # the one stderr line of a run: where its console serves
    assert err.count("\n") == (1 if flag == "--console-port" else 0)
    [args] = stubbed
    assert getattr(args, action.dest) is not None
    if flag in WRITTEN:
        assert (tmp_path / action.dest).exists()


@pytest.mark.parametrize("flag, needs", cli.COMPANIONS)
def test_a_companion_flag_alone_is_refused(stubbed, capsys, tmp_path, flag, needs):
    action = next(a for a in OPTIONS if flag_of(a) == flag)
    status, err = run(
        capsys, ["--experiment", "scan", *sample(action, tmp_path)]
    )
    assert status == 2 and err == f"repro-study: {flag} needs {needs}\n"
    assert stubbed == []


#: command lines that ran, and ignored flags or refused only after the
#: whole study, while each experiment read whatever it happened to read
IGNORED = [
    "defender --workers 4 --executor process --rescan-from /nonexistent/x "
    "--max-sweeps 3",
    "honeypot --scale tiny --workers 4 --deadline 5 --markdown",
    "longevity --scale tiny --max-sweeps 2 --workers 4 --executor process "
    "--console-port 0",
    "full --scale tiny --telemetry jsonl",
    "longevity --scale tiny --max-sweeps 1 --flight-out f.json",
    *(
        f"{name} {flag}"
        for name in ("defender", "ct-race", "vhosts", "packet-loss",
                     "recall-recovery", "chaos-soak", "chaos-coverage")
        for flag in ("--scale tiny", "--seed 99")
    ),
]


@pytest.mark.parametrize("line", IGNORED)
def test_a_flag_the_experiment_ignores_is_refused(stubbed, capsys, line):
    status, err = run(capsys, ["--experiment", *line.split()])
    assert status == 2 and err.count("\n") == 1
    assert err.startswith("repro-study: --")
    assert err.split()[1] in line.split()
    assert stubbed == [] and FakeServer.started == 0


def test_profile_is_gone():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--experiment", "scan", "--profile"])


def test_a_console_arms_each_shard_wall(monkeypatch, capsys):
    """The console is where the wall profile shows, so serving it arms
    profiling: no other flag does."""
    from repro.obs import console

    hubs = []

    class Recording(console.ConsoleHub):
        def __init__(self):
            super().__init__()
            hubs.append(self)

    monkeypatch.setattr(console, "ConsoleHub", Recording)
    assert cli.main([
        "--experiment", "scan", "--scale", "tiny", "--workers", "2",
        "--console-port", "0",
    ]) == 0
    shards = hubs[0].shards()["shards"]
    assert len(shards) > 1
    assert all("wall" in entry for entry in shards.values())
