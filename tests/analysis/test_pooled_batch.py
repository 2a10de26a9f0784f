"""Tests for the pooled-RNG batch mode (``batch="pooled"``).

Pooled mode shares one generator across the whole batch instead of spawning
one per trial, so it cannot reproduce serial runs bit-for-bit — the contract
is *distributional* equality with the per-trial modes, checked here with
two-sample Kolmogorov–Smirnov tests, plus the usual reproducibility and
dispatch properties.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from scipy import stats as scipy_stats

from helpers.equivalence import assert_same_distribution
from repro.analysis.montecarlo import run_trials
from repro.core import batch_engine
from repro.core.batch_engine import run_batch
from repro.core.kernels import jit_backend, numpy_backend
from repro.errors import AnalysisError, ProtocolError
from repro.graphs import complete_graph, star_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.randomness.rng import spawn_generators
from repro.scenarios import (
    AdaptiveCrash,
    AdaptiveLoss,
    BurstLoss,
    Delay,
    DynamicGraph,
    FamilyResampler,
    MessageLoss,
    NodeChurn,
)


#: Kernel backends for the pooled suites; the jit legs skip cleanly when
#: numba is unavailable (and REPRO_JIT_PURE_PYTHON is unset).
BACKENDS = [
    "numpy",
    pytest.param(
        "jit",
        marks=pytest.mark.skipif(
            not jit_backend.is_available(),
            reason="numba is not installed (and REPRO_JIT_PURE_PYTHON is unset)",
        ),
    ),
]


class TestPooledDispatch:
    @pytest.mark.parametrize("protocol", ["pp", "pp-a"])
    def test_pooled_runs_and_is_reproducible(self, protocol):
        graph = complete_graph(24)
        a = run_trials(graph, 0, protocol, trials=40, seed=9, batch="pooled")
        b = run_trials(graph, 0, protocol, trials=40, seed=9, batch="pooled")
        assert a.num_trials == 40
        assert a.times == b.times  # same seed -> same pooled stream

    def test_pooled_differs_from_per_trial_stream(self):
        # Same seed, different stream discipline: agreement would be a
        # one-in-astronomical coincidence, and silently identical streams
        # would mean pooled mode is not actually pooled.
        graph = complete_graph(24)
        pooled = run_trials(graph, 0, "pp", trials=40, seed=9, batch="pooled")
        spawned = run_trials(graph, 0, "pp", trials=40, seed=9, batch=True)
        assert pooled.times != spawned.times

    def test_pooled_random_sources_and_fractions(self):
        graph = star_graph(16)
        sample = run_trials(
            graph, "random", "pp", trials=30, seed=3, batch="pooled", fractions=(0.5,)
        )
        assert sample.num_trials == 30
        assert len(sample.fraction_times[0.5]) == 30

    def test_pooled_rejects_unbatchable_settings(self):
        graph = star_graph(12)
        with pytest.raises(AnalysisError):
            run_trials(
                graph,
                1,
                "pp",
                trials=4,
                seed=1,
                batch="pooled",
                engine_options={"record_trace": True},
            )

        def factory(rng):
            return complete_graph(12)

        with pytest.raises(AnalysisError):
            run_trials(factory, 0, "pp", trials=4, seed=1, batch="pooled")

    def test_kernel_rejects_both_rngs_and_pooled_rng(self):
        graph = star_graph(8)
        with pytest.raises(ProtocolError):
            run_batch(
                graph,
                [0, 1],
                "pp",
                rngs=spawn_generators(2, 0),
                pooled_rng=np.random.default_rng(0),
            )


class TestPooledDistribution:
    """KS checks: pooled and per-trial modes sample the same law."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("protocol", ["pp", "pp-a"])
    def test_pooled_matches_per_trial_distribution(self, protocol, backend):
        graph = random_regular_graph(32, 4, seed=1)
        trials = 400
        options = {"backend": backend}
        pooled = run_trials(
            graph, 0, protocol, trials=trials, seed=101, batch="pooled",
            engine_options=options,
        )
        spawned = run_trials(
            graph, 0, protocol, trials=trials, seed=202, batch=True,
            engine_options=options,
        )
        result = scipy_stats.ks_2samp(pooled.as_array(), spawned.as_array())
        assert result.pvalue > 0.01, (
            f"pooled vs per-trial {protocol} KS p-value {result.pvalue:.4f} "
            "(distributions should agree)"
        )

    @pytest.mark.parametrize("variant", ["ppx", "ppy"])
    def test_pooled_matches_per_trial_on_aux_processes(self, variant):
        graph = random_regular_graph(32, 4, seed=1)
        trials = 400
        pooled = run_trials(graph, 0, variant, trials=trials, seed=101, batch="pooled")
        spawned = run_trials(graph, 0, variant, trials=trials, seed=202, batch=True)
        assert_same_distribution(
            pooled.as_array(),
            spawned.as_array(),
            min_pvalue=0.01,
            label=f"pooled vs per-trial {variant}",
        )

    def test_pooled_aux_is_reproducible_and_distinct_from_spawned(self):
        graph = complete_graph(20)
        a = run_trials(graph, 0, "ppx", trials=30, seed=9, batch="pooled")
        b = run_trials(graph, 0, "ppx", trials=30, seed=9, batch="pooled")
        assert a.times == b.times
        spawned = run_trials(graph, 0, "ppx", trials=30, seed=9, batch=True)
        assert a.times != spawned.times  # pooled mode really pools

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("view", ["node_clocks", "edge_clocks"])
    def test_pooled_matches_per_trial_on_clock_views(self, view, backend):
        graph = random_regular_graph(24, 4, seed=3)
        trials = 300
        options = {"view": view, "backend": backend}
        pooled = run_trials(
            graph, 0, "pp-a", trials=trials, seed=7, batch="pooled", engine_options=options
        )
        spawned = run_trials(
            graph, 0, "pp-a", trials=trials, seed=77, batch=True, engine_options=options
        )
        assert_same_distribution(
            pooled.as_array(),
            spawned.as_array(),
            min_pvalue=0.01,
            label=f"pooled vs per-trial {view} view",
        )

    def test_pooled_matches_per_trial_under_scenario(self):
        graph = complete_graph(24)
        trials = 400
        scenario = MessageLoss(0.3)
        pooled = run_trials(
            graph, 0, "pp", trials=trials, seed=11, batch="pooled", scenario=scenario
        )
        spawned = run_trials(
            graph, 0, "pp", trials=trials, seed=22, batch=True, scenario=scenario
        )
        result = scipy_stats.ks_2samp(pooled.as_array(), spawned.as_array())
        assert result.pvalue > 0.01


class TestChunkedPooledClockViews:
    """The one pooled asynchronous kernel behind every view.

    With a pooled generator the engine pre-draws ``(B, chunk)`` randomness
    blocks and drops the next-tick table entirely (the three asynchronous
    views are the same superposed Poisson process in distribution), so a
    pooled run must agree in law with the per-trial kernels and in every
    bit across views and backends.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("view", ["node_clocks", "edge_clocks"])
    @pytest.mark.parametrize("mode_protocol", ["pp-a", "push-a", "pull-a"])
    def test_chunked_matches_serial_distribution(self, view, mode_protocol, backend):
        graph = random_regular_graph(24, 4, seed=3)
        trials = 300
        chunked = run_batch(
            graph,
            0,
            mode_protocol,
            trials=trials,
            pooled_rng=np.random.default_rng(7),
            view=view,
            backend=backend,
        )
        serial = run_trials(
            graph,
            0,
            mode_protocol,
            trials=trials,
            seed=77,
            batch=False,
            engine_options={"view": view},
        )
        assert_same_distribution(
            chunked.spreading_times(),
            serial.as_array(),
            min_pvalue=0.01,
            label=f"chunked pooled vs serial {mode_protocol} {view}",
        )

    def test_chunked_is_reproducible_and_respects_small_chunks(self):
        graph = random_regular_graph(24, 4, seed=3)
        a = run_batch(
            graph, 0, "pp-a", trials=40, pooled_rng=np.random.default_rng(5),
            view="node_clocks",
        )
        b = run_batch(
            graph, 0, "pp-a", trials=40, pooled_rng=np.random.default_rng(5),
            view="node_clocks",
        )
        assert np.array_equal(a.completion_time, b.completion_time)
        # A tiny chunk width forces many block refills; results stay valid.
        with mock.patch.object(batch_engine, "_POOLED_CLOCK_CHUNK", 7):
            tiny = run_batch(
                graph, 0, "pp-a", trials=40, pooled_rng=np.random.default_rng(5),
                view="node_clocks",
            )
        assert tiny.completed.all()

    def test_chunked_honors_step_and_time_budgets(self):
        graph = random_regular_graph(24, 4, seed=3)
        stepped = run_batch(
            graph, 0, "pp-a", trials=20, pooled_rng=np.random.default_rng(5),
            view="node_clocks", max_steps=15, on_budget_exhausted="partial",
        )
        assert stepped.steps.max() <= 15
        assert not stepped.completed.any()
        timed = run_batch(
            graph, 0, "pp-a", trials=20, pooled_rng=np.random.default_rng(5),
            view="edge_clocks", max_time=0.4, on_budget_exhausted="partial",
        )
        finished = timed.completion_time[timed.completed]
        assert (finished <= 0.4).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("view", ["node_clocks", "edge_clocks"])
    @pytest.mark.parametrize(
        "scenario",
        [
            MessageLoss(0.25),
            BurstLoss(0.3, 0.5, 0.8),
            NodeChurn(0.1, 0.5),
            Delay(low=0.5, high=2.0),
            # One crossing draws the churn uniforms and then the burst
            # uniform, both from the trial's own epoch stream.
            NodeChurn(0.1, 0.5) | BurstLoss(0.3, 0.5, 0.8),
        ],
        ids=lambda s: "+".join(part.split(":")[0] for part in s.spec().split("+")),
    )
    def test_chunked_scenarios_match_per_trial_distribution(self, view, scenario, backend):
        """The pooled fast path carries every non-dynamic runtime scenario;
        its samples must agree with the (serial-equivalent) per-trial
        kernel in distribution."""
        graph = random_regular_graph(24, 4, seed=3)
        trials = 250
        chunked = run_batch(
            graph, 0, "pp-a", trials=trials,
            pooled_rng=np.random.default_rng(7), view=view, scenario=scenario,
            backend=backend,
        )
        per_trial = run_batch(
            graph, 0, "pp-a", trials=trials, seed=77, view=view, scenario=scenario,
            backend=backend,
        )
        assert_same_distribution(
            chunked.spreading_times(),
            per_trial.spreading_times(),
            min_pvalue=0.01,
            label=f"chunked pooled vs per-trial {view} under {scenario.spec()}",
        )

    def test_block_crossing_several_epochs_consumes_them_in_order(self):
        """A row whose block spans several unit epochs crosses each one at
        its first tick at or after it — several at once after a long gap —
        drawing churn then burst uniforms from its own stream, epoch by
        epoch.  Replaying each trial's stream epoch by epoch must give the
        consumer's final up/down and channel states."""
        from repro.core.batch_engine import _ScenarioParts

        n, trials, width = 6, 3, 40
        graph = complete_graph(n)
        churn, burst = NodeChurn(0.3, 0.5), BurstLoss(0.4, 0.4, 0.5)
        parts = _ScenarioParts(churn | burst)
        rows = np.arange(trials)
        gaps = np.full((trials, width), 0.3)
        gaps[1] = 0.45
        gaps[2, 5] = 2.6  # one tick crosses three epochs at once
        tick_times = np.cumsum(gaps, axis=1)
        # The informed source always calls: no pull can inform anyone, so
        # every row runs to the block end and only the epochs stop its scan.
        callers = np.zeros((trials, width), dtype=np.int64)
        callees = np.tile(np.arange(width) % (n - 1) + 1, (trials, 1))
        informed = np.zeros((trials, n), dtype=bool)
        informed[:, 0] = True
        num_informed = np.ones(trials, dtype=np.int64)
        up = parts.initial_up(graph, trials)
        bad = np.zeros(trials, dtype=bool)
        next_epoch = np.ones(trials)
        parts.init_targets(graph, np.zeros(trials, dtype=np.int64), informed, up)
        steps = np.zeros(trials, dtype=np.int64)
        now = np.zeros(trials)
        numpy_backend.clock_chunk_consume(
            rows, 0, width, tick_times, callers, callees,
            np.random.default_rng(1).random((trials, width)), informed, None,
            num_informed, steps, np.zeros(trials, dtype=bool),
            np.full(trials, np.inf), np.ones(trials, dtype=bool), now, n, np.inf,
            False, False, False, parts, bad, up, next_epoch,
            spawn_generators(trials, 9),
        )
        assert (steps == width).all() and np.array_equal(now, tick_times[:, -1])
        for b, rng in enumerate(spawn_generators(trials, 9)):
            epochs = int(np.floor(tick_times[b, -1]))
            assert next_epoch[b] == epochs + 1.0
            up_b, bad_b = churn.initial_up(graph), False
            for _ in range(epochs):
                up_b = churn.step(up_b, rng.random(n))
                bad_b = bool(burst.step_state(bad_b, rng.random()))
            assert np.array_equal(up[b], up_b) and bad[b] == bad_b

    @pytest.mark.parametrize("view", ["global", "node_clocks"])
    def test_dynamic_scenario_routes_through_spawned_streams(self, view):
        """Dynamic graphs cannot use the pre-resolved callee blocks; a pooled
        run must fall back to the per-trial tick loop on streams spawned
        once from the pooled generator — exactly that run — and agree with
        the per-trial kernel of its view in distribution."""
        scenario = DynamicGraph(FamilyResampler("erdos_renyi"), period=2)
        graph = complete_graph(16)
        trials = 200
        pooled = run_batch(
            graph, 0, "pp-a", trials=trials,
            pooled_rng=np.random.default_rng(3), view=view, scenario=scenario,
        )
        spawned = run_batch(
            graph, 0, "pp-a", rngs=spawn_generators(trials, np.random.default_rng(3)),
            scenario=scenario,
        )
        assert np.array_equal(pooled.completion_time, spawned.completion_time)
        assert np.array_equal(pooled.steps, spawned.steps)
        per_trial = run_batch(
            graph, 0, "pp-a", trials=trials, seed=5, view=view, scenario=scenario
        )
        assert_same_distribution(
            pooled.spreading_times(),
            per_trial.spreading_times(),
            min_pvalue=0.01,
            label=f"pooled dynamic spawned streams vs per-trial {view}",
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "scenario",
        [
            None,
            MessageLoss(0.2),
            AdaptiveLoss(p=0.8, budget=10),
            Delay(low=0.5, high=2.0),
            NodeChurn(0.1, 0.5),
            AdaptiveCrash(budget=3, k=1),
        ],
        ids=["plain", "loss", "adaptive-loss", "delay", "churn", "adaptive-crash"],
    )
    def test_every_view_runs_the_one_pooled_kernel(self, scenario, backend):
        """One pooled seed gives bit-identical outputs under all three
        views: each routes to the same superposed-process kernel."""
        graph = random_regular_graph(24, 4, seed=3)
        runs = [
            run_batch(
                graph, 0, "pp-a", trials=30, pooled_rng=np.random.default_rng(13),
                view=view, scenario=scenario, backend=backend, max_steps=5000,
                on_budget_exhausted="partial",
            )
            for view in ("global", "node_clocks", "edge_clocks")
        ]
        reference = runs[0]
        for run in runs[1:]:
            assert np.array_equal(run.completion_time, reference.completion_time)
            assert np.array_equal(run.steps, reference.steps)
            assert np.array_equal(run.termination, reference.termination)
            assert np.array_equal(run.informed_time, reference.informed_time)
