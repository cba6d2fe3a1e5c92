"""Sparse scheduling and cohort deduplication of fleet windows.

Exactness contracts of the fleet-scale window levers:

- sparse windows of the fast backend scatter to the ``serial`` oracle's
  dense view (noise-free: sizes, counts and costs bit-identical, stats to
  summation order) across mid-run resizes, and the controller and ledger
  state they produce matches a dense O(fleet) reference applied to
  ``to_dense()``;
- zero-arrival functions never reach the execution engine (no group request
  is built for them), and the controller merges only the active rows;
- fused execution agrees with a per-function looped reference;
- cohort deduplication keeps representatives bit-exact and fleet totals
  statistically close.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.predictor import SizelessPredictor
from repro.dataset.harness import HarnessConfig
from repro.errors import ConfigurationError
from repro.fleet import (
    ControllerConfig,
    FleetConfig,
    FleetSimulator,
    FleetWindow,
    ResizeEvent,
    RightsizingController,
    SavingsLedger,
    SparseFleetWindow,
    merge_stat_blocks,
)
from repro.monitoring.aggregation import STAT_NAMES
from repro.monitoring.metrics import METRIC_NAMES
from repro.simulation.coldstart import ColdStartModel
from repro.simulation.platform import ServerlessPlatform
from repro.simulation.seeding import STREAM_EXECUTION, STREAM_TRAFFIC
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import (
    BurstyTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    RampTraffic,
    TraceTraffic,
)

WINDOW_S = 1800.0


def _mixed_fleet(n_functions: int, seed: int = 31):
    """A small fleet exercising every traffic model class, some idle."""
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seed, name_prefix="sparse")
    ).generate(n_functions)
    rng = np.random.default_rng(seed + 1)
    traffic = []
    for i in range(n_functions):
        kind = i % 6
        if kind == 0:
            traffic.append(ConstantTraffic(rate_rps=float(rng.uniform(0.01, 0.05))))
        elif kind == 1:
            traffic.append(
                DiurnalTraffic(
                    mean_rate_rps=float(rng.uniform(0.01, 0.04)),
                    amplitude=float(rng.uniform(0.4, 0.8)),
                    phase_s=float(rng.uniform(0.0, 86_400.0)),
                )
            )
        elif kind == 2:
            traffic.append(
                RampTraffic(
                    start_rate_rps=0.005,
                    end_rate_rps=float(rng.uniform(0.02, 0.05)),
                    ramp_start_s=0.0,
                    ramp_duration_s=3 * WINDOW_S,
                )
            )
        elif kind == 3:
            traffic.append(
                BurstyTraffic(
                    base_rate_rps=float(rng.uniform(0.005, 0.02)),
                    burst_rate_rps=float(rng.uniform(0.1, 0.3)),
                    burst_every_s=WINDOW_S,
                    burst_duration_s=120.0,
                )
            )
        elif kind == 4:
            # Replays inside the first two windows, then goes silent.
            stamps = tuple(np.sort(rng.uniform(0.0, 2 * WINDOW_S, size=20)))
            traffic.append(TraceTraffic(timestamps_s=stamps))
        else:
            # Idle forever within the simulated horizon.
            traffic.append(TraceTraffic(timestamps_s=(1e9,)))
    return functions, traffic


def _noise_free_platform(seed: int) -> ServerlessPlatform:
    """A platform whose execution and cold-start times carry no noise."""
    platform = ServerlessPlatform.noise_free(seed=seed)
    platform.cold_start_model = ColdStartModel(noise_cv=0.0)
    return platform


def _run_windows(
    functions, traffic, config, n_windows=4, resizes=(), platform=None,
    step=FleetSimulator.run_window,
):
    """Run windows, applying ``{window_index: [(function, size)]}`` resizes.

    ``step`` advances the simulator one window (the fused ``run_window`` by
    default, or the per-function looped reference).
    """
    simulator = FleetSimulator(functions, traffic, config=config, platform=platform)
    resizes = dict(resizes)
    windows = []
    for index in range(n_windows):
        windows.append(step(simulator))
        for function_index, size in resizes.get(index, ()):
            simulator.resize(function_index, size)
    return simulator, windows


def _assert_windows_equal(a, b) -> None:
    if isinstance(a, SparseFleetWindow):
        assert np.array_equal(a.active, b.active)
    assert np.array_equal(a.memory_mb, b.memory_mb)
    assert np.array_equal(a.stats, b.stats)
    assert np.array_equal(a.n_invocations, b.n_invocations)
    assert np.array_equal(a.n_arrivals, b.n_arrivals)
    assert np.array_equal(a.n_cold_starts, b.n_cold_starts)
    assert np.array_equal(a.cost_usd, b.cost_usd)


class _DenseReference:
    """The O(fleet) controller merge and ledger arithmetic on ``to_dense()``.

    Every function's row takes part in every window, idle or not — the
    per-function state the sparse controller and ledger keep must match it.
    """

    def __init__(self, n_functions: int, default_memory_mb: int = 256) -> None:
        self.default_memory_mb = default_memory_mb
        self.acc_stats = np.zeros((n_functions, len(METRIC_NAMES), len(STAT_NAMES)))
        self.acc_counts = np.zeros(n_functions, dtype=np.int64)
        self.acc_cost = np.zeros(n_functions)
        self.windows_observed = np.zeros(n_functions, dtype=np.int64)
        self.default_cost = np.zeros(n_functions)
        self.default_time_weighted = np.zeros(n_functions)
        self.default_count = np.zeros(n_functions, dtype=np.int64)
        self.frozen = np.zeros(n_functions, dtype=bool)
        self.baseline_cost_per_inv = np.zeros(n_functions)
        self.baseline_time_ms = np.zeros(n_functions)

    def observe(self, window: FleetWindow, events) -> tuple[float, float, float, float]:
        """Merge and account one dense window; returns the window totals."""
        self.acc_stats, self.acc_counts = merge_stat_blocks(
            self.acc_stats, self.acc_counts, window.stats, window.n_invocations
        )
        self.acc_cost += window.cost_usd
        self.windows_observed += window.n_invocations > 0

        counts = window.n_invocations.astype(float)
        mean_time = window.mean_execution_time_ms()
        at_default = window.memory_mb == self.default_memory_mb
        refine = at_default & ~self.frozen
        self.default_cost[refine] += window.cost_usd[refine]
        self.default_time_weighted[refine] += (mean_time * counts)[refine]
        self.default_count[refine] += window.n_invocations[refine]
        for event in events:
            i = event.function_index
            if self.frozen[i] or self.default_count[i] == 0:
                continue
            self.baseline_cost_per_inv[i] = self.default_cost[i] / self.default_count[i]
            self.baseline_time_ms[i] = (
                self.default_time_weighted[i] / self.default_count[i]
            )
            self.frozen[i] = True
        use_baseline = self.frozen & ~at_default
        baseline_cost = np.where(
            use_baseline, self.baseline_cost_per_inv * counts, window.cost_usd
        )
        baseline_time = np.where(
            use_baseline, self.baseline_time_ms * counts, mean_time * counts
        )
        return (
            float(np.sum(window.cost_usd)),
            float(np.sum(baseline_cost)),
            float(np.sum(mean_time * counts)),
            float(np.sum(baseline_time)),
        )


class TestSparseDenseParity:
    RESIZES = {1: [(0, 512), (3, 1024)], 2: [(0, 256)]}

    def _fast_and_oracle(self, config, step=FleetSimulator.run_window):
        """Noise-free windows of the fast path and of the ``serial`` oracle.

        The scalar oracle draws its noise per invocation in a different
        order than the batch kernels, so the two are compared noise-free.
        ``step`` drives the fast side (the oracle always runs ``run_window``).
        """
        functions, traffic = _mixed_fleet(18)
        runs = []
        for backend, advance in ((config.backend, step), ("serial", FleetSimulator.run_window)):
            _, windows = _run_windows(
                functions,
                traffic,
                replace(config, backend=backend),
                resizes=self.RESIZES,
                platform=_noise_free_platform(config.seed),
                step=advance,
            )
            runs.append(windows)
        return runs

    @pytest.mark.parametrize("path", ["fused", "looped"])
    def test_sparse_windows_bit_identical_to_dense(self, path, looped_window):
        """Fast-path windows scatter to the serial oracle's dense view.

        Both the fused window and the per-function looped reference are
        checked.  Sizes, counts and costs are bit-identical; the stats agree
        to floating-point summation order (scalar vs segmented reductions).
        """
        config = FleetConfig(window_s=WINDOW_S, seed=9)
        step = FleetSimulator.run_window if path == "fused" else looped_window
        fast, oracle = self._fast_and_oracle(config, step=step)
        for fast_window, oracle_window in zip(fast, oracle):
            assert isinstance(fast_window, SparseFleetWindow)
            assert np.array_equal(fast_window.active, oracle_window.active)
            dense, oracle_dense = fast_window.to_dense(), oracle_window.to_dense()
            assert isinstance(dense, FleetWindow)
            for column in ("memory_mb", "n_invocations", "n_arrivals", "n_cold_starts"):
                assert np.array_equal(
                    getattr(dense, column), getattr(oracle_dense, column)
                ), column
            if path == "fused":
                assert np.array_equal(dense.cost_usd, oracle_dense.cost_usd)
            else:
                # One np.sum per function vs segmented reduceat sums.
                np.testing.assert_allclose(
                    dense.cost_usd, oracle_dense.cost_usd, rtol=1e-12, atol=0
                )
            np.testing.assert_allclose(dense.stats, oracle_dense.stats, rtol=1e-12, atol=0)
            # to_dense() places every active row and zero-fills the idle ones.
            idle = np.setdiff1d(np.arange(fast_window.n_functions), fast_window.active)
            assert idle.size > 0
            assert np.array_equal(dense.stats[fast_window.active], fast_window.stats)
            assert np.all(dense.stats[idle] == 0.0)
            assert np.all(dense.n_arrivals[idle] == 0)

    def test_sparse_window_shape_contract(self):
        functions, traffic = _mixed_fleet(18)
        _, windows = _run_windows(
            functions, traffic, FleetConfig(window_s=WINDOW_S, seed=9)
        )
        window = windows[0]
        assert window.n_functions == 18
        assert window.n_active == window.active.shape[0]
        assert 0 < window.n_active < 18  # the idle trace functions stay out
        assert np.array_equal(window.active, np.sort(window.active))
        assert window.stats.shape == (window.n_active,) + windows[0].stats.shape[1:]
        assert np.all(window.n_arrivals > 0)
        assert window.mean_execution_time_ms().shape == (window.n_active,)
        assert window.total_invocations == window.to_dense().total_invocations
        assert window.total_cost_usd == pytest.approx(
            window.to_dense().total_cost_usd
        )

    def test_sparse_totals_match_dense_closely(self):
        fast, oracle = self._fast_and_oracle(FleetConfig(window_s=WINDOW_S, seed=9))
        for ow, sw in zip(oracle, fast):
            dense = ow.to_dense()
            assert sw.total_invocations == dense.total_invocations
            # Summation order differs (k active terms vs n zero-padded terms).
            assert sw.total_cost_usd == pytest.approx(dense.total_cost_usd, rel=1e-12)

    def test_controller_and_ledger_match_dense_reference(self, trained_model):
        functions, traffic = _mixed_fleet(18)
        simulator = FleetSimulator(
            functions, traffic, FleetConfig(window_s=WINDOW_S, seed=9)
        )
        # Warm-up never completes, so the controller only observes.
        controller = RightsizingController(
            SizelessPredictor(trained_model), ControllerConfig(min_windows=1_000)
        )
        ledger = SavingsLedger()
        reference = _DenseReference(len(functions))
        for index in range(4):
            window = simulator.run_window()
            events = []
            for function_index, size in self.RESIZES.get(index, ()):
                current = int(simulator.current_memory_mb()[function_index])
                reason = "rollback" if size == 256 else "recommendation"
                events.append(
                    ResizeEvent(
                        index, function_index, functions[function_index].name,
                        current, size, reason,
                    )
                )
                simulator.resize(function_index, size)
            assert controller.step(simulator, window) == []
            account = ledger.observe(window, events)
            totals = reference.observe(window.to_dense(), events)

            assert np.array_equal(controller._acc_stats, reference.acc_stats)
            assert np.array_equal(controller._acc_counts, reference.acc_counts)
            assert np.array_equal(controller._acc_cost, reference.acc_cost)
            assert np.array_equal(
                controller._windows_observed, reference.windows_observed
            )
            for name in (
                "default_cost", "default_time_weighted", "default_count", "frozen",
                "baseline_cost_per_inv", "baseline_time_ms",
            ):
                assert np.array_equal(
                    getattr(ledger, f"_{name}"), getattr(reference, name)
                ), name
            assert account.invocations == window.to_dense().total_invocations
            assert account.functions_resized == int(
                np.count_nonzero(window.memory_mb != 256)
            )
            assert (
                account.actual_cost_usd,
                account.baseline_cost_usd,
                account.actual_time_weighted_ms,
                account.baseline_time_weighted_ms,
            ) == pytest.approx(totals, rel=1e-12)
        assert ledger._frozen[[0, 3]].all()


class TestZeroArrivalFunctionsSkipEngine:
    def test_no_group_emitted_for_idle_functions(self, monkeypatch):
        functions, traffic = _mixed_fleet(18)
        simulator = FleetSimulator(
            functions, traffic, config=FleetConfig(window_s=WINDOW_S, seed=9)
        )
        seen: list[list[str]] = []
        original = type(simulator.backend).run_grouped

        def spy(backend_self, platform, requests):
            seen.append([request.function_name for request in requests])
            return original(backend_self, platform, requests)

        monkeypatch.setattr(type(simulator.backend), "run_grouped", spy)
        window = simulator.run_window()
        active_names = {functions[int(i)].name for i in window.active}
        assert len(seen) == 1
        assert set(seen[0]) == active_names
        assert len(seen[0]) < 18
        # Idle functions have no row and scatter to exact zero rows.
        dense = window.to_dense()
        idle = np.flatnonzero(dense.n_arrivals == 0)
        assert idle.size > 0
        assert not np.isin(idle, window.active).any()
        assert np.all(dense.stats[idle] == 0.0)
        assert np.all(dense.cost_usd[idle] == 0.0)

    def test_fully_idle_window_never_calls_engine(self, monkeypatch):
        functions, _ = _mixed_fleet(6)
        traffic = [TraceTraffic(timestamps_s=(1e9,)) for _ in range(6)]
        simulator = FleetSimulator(
            functions, traffic, config=FleetConfig(window_s=WINDOW_S, seed=9)
        )

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("engine invoked for an all-idle window")

        monkeypatch.setattr(type(simulator.backend), "run_grouped", boom)
        window = simulator.run_window()
        assert window.n_active == 0
        assert window.total_invocations == 0
        assert np.all(window.to_dense().stats == 0.0)


class TestKeyedSeedingCost:
    """Stream derivation must be O(active): idle functions never cost a stream.

    Regression guard for the former >=25%-active heuristic, which silently
    spawned the whole fleet's execution streams once a quarter of it was
    active in a window.
    """

    def _spy_keyed(self, monkeypatch):
        import repro.fleet.simulator as simulator_module

        calls: list[tuple[int, np.ndarray]] = []
        real = simulator_module.keyed_child_rngs

        def wrapper(base_seed, stream, *prefix, indices):
            calls.append((stream, np.asarray(indices).copy()))
            return real(base_seed, stream, *prefix, indices=indices)

        monkeypatch.setattr(simulator_module, "keyed_child_rngs", wrapper)
        return calls

    def test_execution_seeding_covers_exactly_the_active_set(self, monkeypatch):
        functions, traffic = _mixed_fleet(18)
        simulator = FleetSimulator(
            functions, traffic, config=FleetConfig(window_s=WINDOW_S, seed=9)
        )
        calls = self._spy_keyed(monkeypatch)
        window = simulator.run_window()
        active = window.active
        assert 0 < active.shape[0] < len(functions)
        execution_calls = [idx for stream, idx in calls if stream == STREAM_EXECUTION]
        assert len(execution_calls) == 1
        np.testing.assert_array_equal(execution_calls[0], active)
        # Fused traffic sampling draws the fleet from ONE window stream:
        # no per-function traffic streams are derived at all.
        assert not any(stream == STREAM_TRAFFIC for stream, _ in calls)

    def test_no_full_fleet_derivation_when_most_functions_active(self, monkeypatch):
        n = 12
        functions, _ = _mixed_fleet(n)
        traffic = [ConstantTraffic(rate_rps=0.05) for _ in range(n - 1)] + [
            TraceTraffic(timestamps_s=(1e9,))
        ]
        simulator = FleetSimulator(
            functions,
            traffic,
            config=FleetConfig(window_s=WINDOW_S, seed=10),
        )
        calls = self._spy_keyed(monkeypatch)
        window = simulator.run_window()
        active = window.active
        # The scenario really is in the former heuristic's spawn-everything
        # regime, and the idle trace function stays excluded regardless.
        assert active.shape[0] * 4 >= n
        assert active.shape[0] < n
        execution_calls = [idx for stream, idx in calls if stream == STREAM_EXECUTION]
        assert len(execution_calls) == 1
        np.testing.assert_array_equal(execution_calls[0], active)


class TestControllerObserveCost:
    """The controller's window merge must be O(active), never O(fleet)."""

    N_FUNCTIONS = 20_000

    def test_merge_receives_only_active_rows(self, trained_model, monkeypatch):
        import repro.fleet.controller as controller_module

        bases = SyntheticFunctionGenerator(
            config=GeneratorConfig(seed=61, name_prefix="idle")
        ).generate(4)
        functions = [
            bases[i % len(bases)].with_name(f"idle-{i}") for i in range(self.N_FUNCTIONS)
        ]
        rng = np.random.default_rng(62)
        traffic = DiurnalTraffic.batch_build(
            mean_rate_rps=rng.uniform(1e-6, 5e-6, self.N_FUNCTIONS),
            amplitude=rng.uniform(0.4, 0.8, self.N_FUNCTIONS),
            phase_s=rng.uniform(0.0, 86_400.0, self.N_FUNCTIONS),
        )
        simulator = FleetSimulator(
            functions, traffic, FleetConfig(window_s=3600.0, seed=63)
        )
        controller = RightsizingController(SizelessPredictor(trained_model))

        merged_rows: list[tuple[int, int]] = []
        real = controller_module.merge_stat_blocks

        def spy(stats_a, counts_a, stats_b, counts_b):
            merged_rows.append((stats_a.shape[0], stats_b.shape[0]))
            return real(stats_a, counts_a, stats_b, counts_b)

        monkeypatch.setattr(controller_module, "merge_stat_blocks", spy)
        for _ in range(3):
            window = simulator.run_window()
            assert 0 < window.n_active < 0.05 * self.N_FUNCTIONS
            n_calls = len(merged_rows)
            controller.step(simulator, window)
            calls = merged_rows[n_calls:]
            assert calls == [(window.n_active, window.n_active)]


class TestExecutionPathParity:
    def test_fused_equals_looped_under_fused_traffic(self, looped_window):
        functions, traffic = _mixed_fleet(18)
        _, fused = _run_windows(functions, traffic, FleetConfig(window_s=WINDOW_S, seed=9))
        simulator = FleetSimulator(
            functions, traffic, FleetConfig(window_s=WINDOW_S, seed=9)
        )
        looped = [looped_window(simulator) for _ in range(len(fused))]
        for fw, lw in zip(fused, looped):
            assert np.array_equal(fw.active, lw.active)
            assert np.array_equal(fw.stats, lw.stats)
            assert np.array_equal(fw.n_invocations, lw.n_invocations)
            assert np.array_equal(fw.n_arrivals, lw.n_arrivals)
            assert np.array_equal(fw.n_cold_starts, lw.n_cold_starts)
            # Per-group cost sums in segment order, the per-function batch in
            # pairwise order — equal up to summation order, as in the seed.
            np.testing.assert_allclose(fw.cost_usd, lw.cost_usd, rtol=1e-12)

class TestCohortDeduplication:
    def _replicated_fleet(self, n_functions: int, n_bases: int = 3):
        """A fleet of a few profiles replicated many times at similar rates."""
        bases = SyntheticFunctionGenerator(
            config=GeneratorConfig(seed=51, name_prefix="cohort")
        ).generate(n_bases)
        functions = [
            replace(bases[i % n_bases], name=f"cohort-{i}") for i in range(n_functions)
        ]
        rng = np.random.default_rng(52)
        traffic = [
            DiurnalTraffic(
                mean_rate_rps=float(rng.uniform(0.02, 0.03)),
                amplitude=0.5,
                phase_s=1000.0,
            )
            for _ in range(n_functions)
        ]
        return functions, traffic

    def test_cohort_off_is_the_exact_path(self):
        functions, traffic = self._replicated_fleet(12)
        _, exact = _run_windows(functions, traffic, FleetConfig(window_s=WINDOW_S, seed=9))
        _, off = _run_windows(
            functions, traffic, FleetConfig(window_s=WINDOW_S, seed=9, cohort_mode="off")
        )
        for ew, ow in zip(exact, off):
            _assert_windows_equal(ew, ow)

    def test_representatives_bit_exact_members_scaled(self):
        functions, traffic = self._replicated_fleet(12)
        exact_sim = FleetSimulator(
            functions, traffic, FleetConfig(window_s=WINDOW_S, seed=9)
        )
        cohort_sim = FleetSimulator(
            functions,
            traffic,
            FleetConfig(window_s=WINDOW_S, seed=9, cohort_mode="statistical"),
        )
        exact = exact_sim.run_window().to_dense()
        cohort = cohort_sim.run_window().to_dense()
        # With 3 profiles at one size and one rate bucket there are at most 3
        # executed representatives; their rows must be bit-exact.
        reps = [int(np.flatnonzero(exact.n_arrivals)[0])]
        distinct_rows = {
            tuple(np.round(cohort.stats[i].ravel(), 12)) for i in range(12)
        }
        assert len(distinct_rows) <= 3
        for i in reps:
            assert np.array_equal(cohort.stats[i], exact.stats[i])
            assert cohort.n_invocations[i] == exact.n_invocations[i]
            assert cohort.cost_usd[i] == exact.cost_usd[i]
        # Members carry their own arrival counts and scaled statistics.
        assert np.array_equal(cohort.n_arrivals, exact.n_arrivals)
        assert cohort.total_invocations == pytest.approx(
            exact.total_invocations, rel=0.2
        )
        assert cohort.total_cost_usd == pytest.approx(exact.total_cost_usd, rel=0.2)
        # Platform billing stays consistent with the window columns.
        assert cohort_sim.platform.total_cost_usd() == pytest.approx(
            cohort.total_cost_usd, rel=1e-9
        )

    def test_equal_valued_distinct_profile_objects_cohort_together(self):
        # Regression: the cohort key once used id(profile), so value-equal
        # profiles rebuilt as distinct objects (fresh processes, runs,
        # deserialized fleets) silently fell out of their cohorts.
        import copy

        functions, traffic = self._replicated_fleet(12)
        rebuilt = [
            replace(fn, profile=copy.deepcopy(fn.profile)) for fn in functions
        ]
        assert all(
            a.profile is not b.profile and a.profile == b.profile
            for a, b in zip(functions, rebuilt)
        )
        config = FleetConfig(window_s=WINDOW_S, seed=9, cohort_mode="statistical")
        shared_sim = FleetSimulator(functions, traffic, config)
        rebuilt_sim = FleetSimulator(rebuilt, traffic, config)
        for _ in range(2):
            _assert_windows_equal(shared_sim.run_window(), rebuilt_sim.run_window())

    def test_distinct_profiles_never_cohorted(self):
        functions, traffic = _mixed_fleet(12)
        _, exact = _run_windows(functions, traffic, FleetConfig(window_s=WINDOW_S, seed=9))
        _, cohort = _run_windows(
            functions,
            traffic,
            FleetConfig(window_s=WINDOW_S, seed=9, cohort_mode="statistical"),
        )
        # Every function has a distinct profile object, so every cohort is a
        # singleton and the statistical mode degenerates to the exact path.
        for ew, cw in zip(exact, cohort):
            _assert_windows_equal(ew, cw)


class TestConfigValidation:
    def test_new_knobs_validated(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(cohort_mode="always")
        with pytest.raises(ConfigurationError):
            FleetConfig(cohort_rate_buckets_per_decade=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(rate_resolution=0)

    def test_sparse_knob_removed(self):
        with pytest.raises(TypeError):
            FleetConfig(sparse=True)

    @pytest.mark.parametrize(
        "knob",
        [
            {"n_workers": 2},
            {"fused": False},
            {"traffic_mode": "per-function"},
            {"window_shard_size": 8},
            {"dtype": "float32"},
            {"noise": "pooled"},
            {"stream_records": True},
        ],
        ids=lambda knob: next(iter(knob)),
    )
    def test_removed_execution_knobs_raise(self, knob):
        with pytest.raises(TypeError):
            FleetConfig(**knob)

    def test_harness_stream_records_removed(self):
        # Grouped runs leave no records, so the harness has nothing to discard.
        with pytest.raises(TypeError):
            HarnessConfig(stream_records=True)
