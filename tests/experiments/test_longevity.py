"""Tests for the incremental longevity campaign."""

import pytest

from repro.core.rescan import load_rescan_state, save_rescan_state
from repro.experiments.config import StudyConfig
from repro.experiments.longevity import run_longevity_study
from repro.net.population import PopulationModel

FRAME = 2_000_000


@pytest.fixture(scope="module")
def campaign():
    return run_longevity_study(
        frame_addresses=FRAME, max_sweeps=4, verify_every=2
    )


class TestCampaign:
    def test_covers_requested_ticks(self, campaign):
        assert campaign.sweep_count == 4
        assert [s.index for s in campaign.sweeps] == [1, 2, 3, 4]

    def test_sampled_sweeps_verified_byte_identical(self, campaign):
        # verify_every=2 over 4 ticks → sweeps 2 and 4, plus the baseline.
        assert campaign.verified_sweeps == 2
        assert campaign.baseline_cost.verified
        assert [s.index for s in campaign.sweeps if s.verified] == [2, 4]

    def test_incremental_sweeps_save_http_traffic(self, campaign):
        assert campaign.savings_factor() > 5.0
        baseline_http = campaign.baseline_cost.http_requests
        for sweep in campaign.sweeps:
            assert sweep.http_requests < baseline_http / 5

    def test_syn_cost_matches_frame(self, campaign):
        # Stage I still sweeps the whole frame every tick, by design.
        ports = campaign.baseline_cost.syn_probes // FRAME
        for sweep in campaign.sweeps:
            assert sweep.syn_probes == FRAME * ports

    def test_vulnerable_population_decays(self, campaign):
        curve = [count for _, count in campaign.decay_curve()]
        assert curve[-1] <= curve[0]
        assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_render_mentions_verification(self, campaign):
        text = campaign.render()
        assert "verified byte-identical" in text
        assert "savings factor" in text

    def test_final_state_supports_resume(self, campaign, tmp_path):
        path = tmp_path / "campaign.json"
        save_rescan_state(campaign.final_state, path)
        resumed = run_longevity_study(
            frame_addresses=FRAME,
            max_sweeps=1,
            verify_every=1,
            resume_from=load_rescan_state(path),
        )
        assert resumed.baseline_cost.mode == "resumed"
        assert resumed.verified_sweeps == 1
        # The first resumed tick re-validates every previously-live /24.
        assert resumed.sweeps[0].churned_blocks > 100

    def test_a_resumed_campaign_keeps_its_first_oracle_as_stand_in(self, campaign):
        """With no measured baseline, the first oracle sweep stands in for
        the from-scratch cost; a later verified tick, whose oracle sends a
        different number of requests, leaves it alone."""
        def resumed(ticks):
            return run_longevity_study(
                frame_addresses=FRAME, max_sweeps=ticks, verify_every=1,
                resume_from=campaign.final_state,
            )

        first, both = resumed(1), resumed(2)
        assert both.verified_sweeps == 2
        assert both.baseline_cost.http_requests == first.baseline_cost.http_requests
        assert both.baseline_cost.syn_probes == first.baseline_cost.syn_probes


class TestConfigPlumbing:
    def test_honours_observation_window(self):
        config = StudyConfig(
            population=PopulationModel(
                awe_rate=0.002, vuln_rate=0.05, background_rate=2e-7
            ),
            observation_window=4 * 3600.0,
            rescan_interval=2 * 3600.0,
        )
        study = run_longevity_study(
            config, frame_addresses=FRAME, verify_every=100
        )
        assert study.sweep_count == 2  # window // interval
        # The last tick is always verified even off the sampling grid.
        assert study.sweeps[-1].verified
