"""Tests for the correlated-adversity models (BurstLoss, TargetedChurn).

Three layers:

* model-level unit tests (validation, spec round trips, semantics of the
  static targeted mask);
* hypothesis property tests pinning the Gilbert–Elliott chain's stationary
  loss rate (the empirical bad-state occupancy and loss frequency must
  match the closed form for arbitrary parameters);
* end-to-end sanity on the engines: bursty loss slows spreading, targeted
  churn silences exactly its victims, and the clock-view scenario runs
  agree with the global view in distribution (the superposition argument
  extends to the perturbed processes).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.equivalence import assert_same_distribution
from repro.analysis.montecarlo import run_trials
from repro.core.protocols import spread
from repro.errors import ScenarioError
from repro.graphs import complete_graph, path_graph, star_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.scenarios import (
    BurstLoss,
    MessageLoss,
    NodeChurn,
    TargetedChurn,
    parse_scenario,
)


class TestBurstLossModel:
    def test_parameter_validation(self):
        BurstLoss(0.2, 0.5, 0.8)
        BurstLoss(0.0, 1.0, 1.0, p_loss_good=0.0)  # extremes allowed
        with pytest.raises(ScenarioError, match="p_bg"):
            BurstLoss(0.2, 0.0, 0.8)  # must escape the bad state
        with pytest.raises(ScenarioError):
            BurstLoss(1.5, 0.5, 0.8)
        with pytest.raises(ScenarioError):
            BurstLoss(0.2, 0.5, -0.1)
        with pytest.raises(ScenarioError):
            BurstLoss(0.2, 0.5, 0.8, p_loss_good=1.0)  # good state must be sub-total

    def test_spec_round_trips(self):
        spec = "burst-loss:p_gb=0.2,p_bg=0.5,p_loss_bad=0.8,p_loss_good=0.1"
        assert parse_scenario(spec).spec() == spec

    def test_shares_the_loss_category(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            MessageLoss(0.1) | BurstLoss(0.2, 0.5, 0.8)
        composed = BurstLoss(0.2, 0.5, 0.8) | NodeChurn(0.1)
        assert composed.burst is not None
        assert composed.loss_prob == 0.0  # burst never leaks a constant rate
        assert composed.runtime_active()

    def test_step_state_scalar_and_vector_agree(self):
        burst = BurstLoss(0.3, 0.6, 0.9)
        states = np.array([False, False, True, True])
        draws = np.array([0.2, 0.9, 0.5, 0.7])
        stepped = burst.step_state(states, draws)
        expected = [
            bool(burst.step_state(bool(s), float(d))) for s, d in zip(states, draws)
        ]
        assert stepped.tolist() == expected

    def test_stationary_loss_rate_closed_form(self):
        burst = BurstLoss(0.2, 0.6, 0.9, p_loss_good=0.1)
        bad_fraction = 0.2 / (0.2 + 0.6)
        assert burst.stationary_loss_rate == pytest.approx(
            bad_fraction * 0.9 + (1 - bad_fraction) * 0.1
        )
        # MessageLoss is the memoryless special case: always-bad channel.
        degenerate = BurstLoss(1.0, 1.0, 0.35, p_loss_good=0.35)
        assert degenerate.stationary_loss_rate == pytest.approx(0.35)


class TestBurstLossStationaryHypothesis:
    @settings(max_examples=25, deadline=None)
    @given(
        p_gb=st.floats(0.05, 0.95),
        p_bg=st.floats(0.05, 0.95),
        p_loss_bad=st.floats(0.0, 1.0),
        p_loss_good=st.floats(0.0, 0.9),
    )
    def test_empirical_loss_rate_matches_stationary_formula(
        self, p_gb, p_bg, p_loss_bad, p_loss_good
    ):
        """Simulate the chain exactly as the engines do (one state draw per
        epoch, one loss coin per exchange) and compare the observed loss
        frequency to the closed form."""
        burst = BurstLoss(p_gb, p_bg, p_loss_bad, p_loss_good=p_loss_good)
        rng = np.random.default_rng(
            abs(hash((round(p_gb, 6), round(p_bg, 6), round(p_loss_bad, 6)))) % 2**32
        )
        epochs = 4000
        bad = False
        losses = 0
        bad_epochs = 0
        for _ in range(epochs):
            bad = bool(burst.step_state(bad, rng.random()))
            bad_epochs += bad
            losses += rng.random() < float(burst.loss_at(bad))
        expected_bad = p_gb / (p_gb + p_bg)
        assert bad_epochs / epochs == pytest.approx(expected_bad, abs=0.06)
        assert losses / epochs == pytest.approx(burst.stationary_loss_rate, abs=0.06)

    @settings(max_examples=25, deadline=None)
    @given(
        p_gb=st.floats(0.05, 0.95),
        p_bg=st.floats(0.05, 0.95),
        p=st.floats(0.0, 0.99),
    )
    def test_uniform_loss_probability_degenerates_to_message_loss(self, p_gb, p_bg, p):
        """With equal loss in both states the channel state is irrelevant:
        the stationary rate is exactly p, whatever the transition rates."""
        burst = BurstLoss(p_gb, p_bg, p, p_loss_good=p)
        assert burst.stationary_loss_rate == pytest.approx(p)


class TestTargetedChurnModel:
    def test_parameter_validation(self):
        TargetedChurn(0.0)
        TargetedChurn(1.0)  # capped at n - 1 victims at runtime
        with pytest.raises(ScenarioError):
            TargetedChurn(-0.1)
        with pytest.raises(ScenarioError):
            TargetedChurn(1.5)
        with pytest.raises(ScenarioError, match="criterion"):
            TargetedChurn(0.1, by="loudest")

    def test_spec_round_trips(self):
        spec = "targeted-churn:fraction=0.25,by=eccentricity"
        assert parse_scenario(spec).spec() == spec

    def test_shares_the_churn_category(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            NodeChurn(0.1) | TargetedChurn(0.1)

    def test_degree_targets_the_hub_first(self):
        star = star_graph(16)
        up = TargetedChurn(1 / 16).initial_up(star)
        assert not up[0] and up[1:].all()  # exactly the hub

    def test_eccentricity_targets_the_periphery_first(self):
        path = path_graph(9)
        up = TargetedChurn(3 / 9, by="eccentricity").initial_up(path)
        assert sorted(np.flatnonzero(~up).tolist()) == [0, 1, 8]  # ends, then id ties

    def test_never_crashes_everyone(self):
        up = TargetedChurn(1.0).initial_up(complete_graph(6))
        assert up.sum() == 1  # n - 1 victims at most

    def test_consumes_no_randomness(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        TargetedChurn(0.5).initial_up(star_graph(12))
        assert rng.bit_generator.state == state


class TestEnginesEndToEnd:
    def test_burst_loss_slows_spreading(self):
        graph = random_regular_graph(32, 4, seed=1)
        clean = run_trials(graph, 0, "pp", trials=60, seed=5)
        bursty = run_trials(
            graph, 0, "pp", trials=60, seed=5, scenario=BurstLoss(0.4, 0.3, 0.95)
        )
        assert bursty.mean > clean.mean

    @pytest.mark.parametrize("protocol", ["pp", "pp-a"])
    def test_targeted_victims_stay_uninformed(self, protocol):
        graph = star_graph(16)
        result = spread(
            graph,
            1,
            protocol=protocol,
            seed=3,
            scenario=TargetedChurn(1 / 16),
            on_budget_exhausted="partial",
            **({"max_rounds": 60} if protocol == "pp" else {"max_steps": 2000}),
        )
        # The hub is down: no leaf can reach any other leaf.
        assert np.isfinite(result.informed_time[1])
        assert not np.isfinite(result.informed_time[0])
        assert sum(1 for t in result.informed_time if np.isfinite(t)) == 1
        # The source is cut off at trial start, so the run stops there
        # instead of spending its budget.
        assert result.termination == "absorbed"
        assert (result.rounds if protocol == "pp" else result.steps) == 0

    @pytest.mark.parametrize(
        "scenario",
        [
            MessageLoss(0.25),
            BurstLoss(0.3, 0.5, 0.8),
            NodeChurn(0.1, 0.5),
            TargetedChurn(0.1),
        ],
        ids=lambda s: s.spec().split(":")[0],
    )
    @pytest.mark.parametrize("view", ["node_clocks", "edge_clocks"])
    def test_clock_view_scenarios_agree_with_global_view(self, view, scenario):
        """Superposition sanity: the perturbed asynchronous process is the
        same in all three views, so scenario'd clock-view samples must
        match the global view in distribution.  Targeted churn leaves its
        victims uninformed forever, so that case compares the time to
        inform 75% of the graph instead of the (infinite) completion time.
        """
        targeted = scenario.churn is not None and not scenario.churn.epoch_draws
        graph = random_regular_graph(24, 4, seed=9)
        kwargs = dict(
            trials=260,
            batch=True,
            scenario=scenario,
            fractions=(0.75,) if targeted else (),
            engine_options={"max_steps": 20_000, "on_budget_exhausted": "partial"},
        )
        global_sample = run_trials(
            graph, 5, "pp-a", seed=100,
            **{**kwargs, "engine_options": {**kwargs["engine_options"]}},
        )
        view_sample = run_trials(
            graph, 5, "pp-a", seed=200,
            **{
                **kwargs,
                "engine_options": {**kwargs["engine_options"], "view": view},
            },
        )
        if targeted:
            values_a = np.asarray(global_sample.fraction_times[0.75])
            values_b = np.asarray(view_sample.fraction_times[0.75])
        else:
            values_a = global_sample.as_array()
            values_b = view_sample.as_array()
        assert_same_distribution(
            values_a,
            values_b,
            min_pvalue=1e-3,
            label=f"{scenario.spec()}: global vs {view}",
        )
