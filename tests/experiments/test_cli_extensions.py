"""Tests for the CLI's extension experiments and markdown output."""


from repro.experiments.cli import build_parser, main


class TestCliExtensions:
    def test_vhosts_experiment(self, capsys):
        assert main(["--experiment", "vhosts"]) == 0
        out = capsys.readouterr().out
        assert "ip-scan (paper)" in out

    def test_packet_loss_experiment(self, capsys):
        assert main(["--experiment", "packet-loss"]) == 0
        out = capsys.readouterr().out
        assert "Loss rate" in out

    def test_recall_recovery_experiment(self, capsys):
        assert main(["--experiment", "recall-recovery"]) == 0
        out = capsys.readouterr().out
        assert "Recall (retry)" in out

    def test_ct_race_experiment(self, capsys):
        assert main(["--experiment", "ct-race"]) == 0
        out = capsys.readouterr().out
        assert "ct-monitor" in out

    def test_markdown_flag_accepted(self):
        args = build_parser().parse_args(["--markdown"])
        assert args.markdown

    def test_seed_override(self, capsys):
        assert main(["--experiment", "defender", "--seed", "99"]) == 0


class TestFigure2Categories:
    def test_category_curves_present(self, observer_study):
        from repro.analysis.longevity import HostStatus

        curves = observer_study.figure2().curves_by_category(HostStatus.VULNERABLE)
        assert set(curves) <= {"CI", "CMS", "CM", "NB", "CP"}
        assert "CM" in curves  # Docker/Hadoop/Nomad dominate the MAVs

    def test_render_includes_categories(self, observer_study):
        assert "category:CM" in observer_study.figure2().render()


class TestSupervisionFlags:
    def test_no_flags_means_no_supervisor(self):
        from repro.experiments.cli import _supervisor_config

        args = build_parser().parse_args([])
        assert _supervisor_config(args) is None

    def test_flags_build_a_supervisor_config(self):
        from repro.experiments.cli import _supervisor_config

        args = build_parser().parse_args([
            "--deadline", "600", "--max-shard-restarts", "1",
            "--quarantine-threshold", "3",
        ])
        config = _supervisor_config(args)
        assert config.deadline == 600.0
        assert config.max_shard_restarts == 1
        assert config.quarantine_threshold == 3

    def test_partial_flags_keep_defaults(self):
        from repro.core.supervisor import SupervisorConfig
        from repro.experiments.cli import _supervisor_config

        args = build_parser().parse_args(["--deadline", "600"])
        config = _supervisor_config(args)
        assert config.deadline == 600.0
        assert config.max_shard_restarts == SupervisorConfig().max_shard_restarts
        assert (
            config.quarantine_threshold == SupervisorConfig().quarantine_threshold
        )

    def test_supervised_scan_renders_coverage(self, capsys):
        assert main([
            "--experiment", "scan", "--scale", "tiny", "--deadline", "100000",
        ]) == 0
        out = capsys.readouterr().out
        assert "Coverage by stage" in out
        assert "run status:" in out


class TestChaosExperiments:
    def test_chaos_soak_gate(self):
        """The CI gate in miniature: hostile sweep completes degraded
        with balanced, reconciling coverage books."""
        from repro.experiments.chaos_soak import run_chaos_soak

        soak = run_chaos_soak()
        cov = soak.coverage
        assert cov.degraded
        assert cov.deadline_hits > 0
        assert len(cov.quarantined_hosts) > 0
        assert cov.shard_restarts >= 1
        cov.verify()
        cov.reconcile(soak.report)
        rendered = soak.render()
        assert "DEGRADED" in rendered

    def test_chaos_coverage_severity_curve(self):
        """More severe weather quarantines more and finds fewer MAVs."""
        from repro.experiments.chaos_soak import run_chaos_coverage_study

        study = run_chaos_coverage_study(severities=(0.0, 2.0))
        calm, stormy = study.points
        assert calm.quarantined_hosts == 0
        assert stormy.quarantined_hosts > 0
        assert stormy.mavs_found < calm.mavs_found
        assert "Severity" in study.table().render()


class TestBadRescanState:
    """A saved state the longevity campaign cannot continue from ends the
    run with one ``repro-study: <message>`` line and exit status 2."""

    LONGEVITY = [
        "--experiment", "longevity", "--scale", "tiny",
        "--frame-addresses", "100000", "--max-sweeps", "1",
    ]

    def refused(self, capsys, *extra):
        status = main([*self.LONGEVITY, *extra])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("repro-study: ") and err.count("\n") == 1
        return err

    def test_a_state_with_no_sections(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        state.write_text('{"format_version": 2}')
        err = self.refused(capsys, "--rescan-from", str(state))
        assert str(state) in err and "damaged" in err

    def test_a_missing_state_file(self, capsys, tmp_path):
        state = tmp_path / "never-written.json"
        err = self.refused(capsys, "--rescan-from", str(state))
        assert f"no rescan state file at {state}" in err

    def test_a_state_taken_at_another_seed(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        saved = main([*self.LONGEVITY, "--seed", "7", "--rescan-out", str(state)])
        assert saved == 0
        capsys.readouterr()
        err = self.refused(capsys, "--seed", "8", "--rescan-from", str(state))
        assert " seed=7," in err and " seed=8" in err
