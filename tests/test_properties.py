"""Property-based tests (hypothesis) on core invariants.

These cover the arithmetic cores that every experiment depends on: the pricing
scheme, the resource scaling model, the trade-off optimizer, profile
composition, and the regression metrics; plus the conservation of billed cost
between a fleet's window columns, the platform's billing totals and the
savings ledger.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import MemorySizeOptimizer
from repro.core.predictor import SizelessPredictor
from repro.fleet import (
    ControllerConfig,
    FleetConfig,
    FleetRightsizingService,
    FleetSimulator,
)
from repro.ml.metrics import explained_variance_score, mean_squared_error, r2_score
from repro.simulation.execution import ExecutionModel
from repro.simulation.pricing import PricingModel
from repro.simulation.profile import ResourceProfile
from repro.simulation.scaling import ResourceScalingModel
from repro.simulation.variability import VariabilityModel
from repro.workloads.function import FunctionSpec
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import ConstantTraffic

MEMORY_SIZES = [128, 256, 512, 1024, 2048, 3008]

memory_strategy = st.sampled_from(MEMORY_SIZES)
time_strategy = st.floats(min_value=0.5, max_value=120_000.0, allow_nan=False)


class TestPricingProperties:
    @given(time_ms=time_strategy, memory=memory_strategy)
    def test_cost_positive_and_finite(self, time_ms, memory):
        cost = PricingModel().execution_cost(time_ms, memory)
        assert np.isfinite(cost) and cost > 0

    @given(time_ms=time_strategy, memory=memory_strategy, extra=st.floats(1.0, 1000.0))
    def test_cost_monotone_in_time(self, time_ms, memory, extra):
        model = PricingModel()
        assert model.execution_cost(time_ms + extra, memory) >= model.execution_cost(time_ms, memory)

    @given(time_ms=time_strategy)
    def test_cost_monotone_in_memory_for_fixed_time(self, time_ms):
        model = PricingModel()
        costs = [model.execution_cost(time_ms, memory) for memory in MEMORY_SIZES]
        assert costs == sorted(costs)

    @given(time_ms=time_strategy, memory=memory_strategy)
    def test_billed_duration_at_least_execution_time(self, time_ms, memory):
        model = PricingModel()
        assert model.billed_duration_ms(time_ms) >= min(time_ms, model.scheme.minimum_billed_ms)


class TestScalingProperties:
    @given(memory=st.floats(64.0, 10240.0))
    def test_cpu_share_bounded(self, memory):
        model = ResourceScalingModel()
        share = model.cpu_share(memory)
        assert model.min_share_floor <= share <= model.max_vcpus

    @given(working_set=st.floats(0.0, 4000.0), memory=memory_strategy)
    def test_pressure_factor_at_least_one(self, working_set, memory):
        factor = ResourceScalingModel().memory_pressure_factor(working_set, memory)
        assert 1.0 <= factor <= 3.0

    @given(nbytes=st.floats(0.0, 1e8), memory=memory_strategy)
    def test_transfer_time_non_negative_monotone_in_bytes(self, nbytes, memory):
        model = ResourceScalingModel()
        assert model.network_transfer_ms(nbytes, memory) >= 0
        assert model.network_transfer_ms(2 * nbytes, memory) >= model.network_transfer_ms(nbytes, memory)


class TestExecutionProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        cpu=st.floats(1.0, 2000.0),
        working_set=st.floats(5.0, 150.0),
        blocking=st.floats(0.0, 1.0),
    )
    def test_execution_time_monotone_in_memory(self, cpu, working_set, blocking):
        """More memory never makes a (noise-free) function slower."""
        model = ExecutionModel(variability=VariabilityModel.none())
        profile = ResourceProfile(
            cpu_user_ms=cpu, memory_working_set_mb=working_set, blocking_fraction=blocking
        )
        times = [model.expected_execution_time_ms(profile, size) for size in MEMORY_SIZES]
        assert all(earlier >= later - 1e-9 for earlier, later in zip(times, times[1:]))

    @settings(max_examples=25, deadline=None)
    @given(cpu=st.floats(1.0, 500.0), fs=st.floats(0.0, 5e6))
    def test_metrics_always_finite_and_complete(self, cpu, fs):
        model = ExecutionModel(variability=VariabilityModel.none())
        profile = ResourceProfile(cpu_user_ms=cpu, fs_read_bytes=fs)
        result = model.execute(profile, 512, np.random.default_rng(0))
        assert len(result.metrics) == 25
        assert all(np.isfinite(value) for value in result.metrics.values())


class TestOptimizerProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        times=st.lists(st.floats(1.0, 50_000.0), min_size=6, max_size=6),
        tradeoff=st.floats(0.0, 1.0),
    )
    def test_selected_size_minimises_total_score(self, times, tradeoff):
        execution_times = dict(zip(MEMORY_SIZES, times))
        optimizer = MemorySizeOptimizer(tradeoff=tradeoff)
        recommendation = optimizer.recommend(execution_times)
        best_score = min(recommendation.total_scores.values())
        assert recommendation.total_scores[recommendation.selected_memory_mb] == best_score

    @settings(max_examples=50, deadline=None)
    @given(times=st.lists(st.floats(1.0, 50_000.0), min_size=6, max_size=6))
    def test_scores_always_at_least_one(self, times):
        execution_times = dict(zip(MEMORY_SIZES, times))
        optimizer = MemorySizeOptimizer()
        assert min(optimizer.cost_scores(execution_times).values()) >= 1.0 - 1e-12
        assert min(optimizer.performance_scores(execution_times).values()) >= 1.0 - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(times=st.lists(st.floats(1.0, 50_000.0), min_size=6, max_size=6))
    def test_ranking_is_permutation_of_sizes(self, times):
        execution_times = dict(zip(MEMORY_SIZES, times))
        ranking = MemorySizeOptimizer().recommend(execution_times).ranking
        assert sorted(ranking) == sorted(MEMORY_SIZES)


class TestProfileProperties:
    profile_strategy = st.builds(
        ResourceProfile,
        cpu_user_ms=st.floats(0.0, 1000.0),
        cpu_system_ms=st.floats(0.0, 100.0),
        memory_working_set_mb=st.floats(1.0, 300.0),
        heap_allocated_mb=st.floats(1.0, 200.0),
        fs_read_bytes=st.floats(0.0, 1e7),
        fs_write_bytes=st.floats(0.0, 1e7),
        network_bytes_in=st.floats(0.0, 1e7),
        network_bytes_out=st.floats(0.0, 1e7),
        blocking_fraction=st.floats(0.0, 1.0),
    )

    @settings(max_examples=50, deadline=None)
    @given(a=profile_strategy, b=profile_strategy)
    def test_combine_additive_in_cpu_and_bytes(self, a, b):
        combined = a.combine(b)
        assert combined.cpu_user_ms == a.cpu_user_ms + b.cpu_user_ms
        assert combined.fs_read_bytes == a.fs_read_bytes + b.fs_read_bytes
        assert combined.network_bytes_in == a.network_bytes_in + b.network_bytes_in

    @settings(max_examples=50, deadline=None)
    @given(a=profile_strategy, b=profile_strategy)
    def test_combine_working_set_bounded(self, a, b):
        combined = a.combine(b)
        lower = max(a.memory_working_set_mb, b.memory_working_set_mb)
        upper = a.memory_working_set_mb + b.memory_working_set_mb
        assert lower <= combined.memory_working_set_mb <= upper + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(a=profile_strategy, b=profile_strategy)
    def test_combine_blocking_fraction_valid(self, a, b):
        assert 0.0 <= a.combine(b).blocking_fraction <= 1.0


class TestMetricProperties:
    arrays = st.integers(5, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-100, 100), min_size=n, max_size=n),
            st.lists(st.floats(-100, 100), min_size=n, max_size=n),
        )
    )

    @settings(max_examples=50, deadline=None)
    @given(data=arrays)
    def test_mse_non_negative_and_r2_at_most_one(self, data):
        y_true, y_pred = np.array(data[0]), np.array(data[1])
        assert mean_squared_error(y_true, y_pred) >= 0.0
        assert r2_score(y_true, y_pred) <= 1.0 + 1e-9
        assert explained_variance_score(y_true, y_pred) <= 1.0 + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(data=arrays)
    def test_identity_prediction_is_perfect(self, data):
        y = np.array(data[0])
        assert mean_squared_error(y, y) == 0.0
        assert r2_score(y, y) == 1.0


class TestBillingConservation:
    """Window cost columns and platform billing agree, whatever the schedule."""

    PROFILES = (
        ResourceProfile(cpu_user_ms=120.0, memory_working_set_mb=40.0),
        ResourceProfile(cpu_user_ms=15.0, network_bytes_in=2e5, blocking_fraction=0.6),
    )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        backend=st.sampled_from(["serial", "vectorized"]),
        cohort_mode=st.sampled_from(["off", "statistical"]),
        rates=st.lists(st.sampled_from([1e-5, 0.004, 0.02, 0.03]), min_size=1, max_size=12),
    )
    def test_window_costs_equal_platform_billing(self, seed, backend, cohort_mode, rates):
        # Few shared profiles and rates put functions into common cohorts,
        # so the statistical mode exercises the member broadcast; the 1e-5
        # rate leaves a function idle in most windows.
        functions = [
            FunctionSpec(name=f"bill-{i}", profile=self.PROFILES[i % 2])
            for i in range(len(rates))
        ]
        traffic = [ConstantTraffic(rate_rps=rate) for rate in rates]
        simulator = FleetSimulator(
            functions,
            traffic,
            FleetConfig(window_s=900.0, backend=backend, cohort_mode=cohort_mode, seed=seed),
        )
        platform = simulator.platform
        per_function = np.zeros(len(functions))
        for window_index in range(3):
            if window_index == 2:
                simulator.resize(0, 1024)  # billing follows the new deployment
            billed = platform.total_cost_usd()
            window = simulator.run_window()
            assert np.isclose(
                platform.total_cost_usd() - billed, window.total_cost_usd, rtol=1e-12, atol=0.0
            )
            assert platform.invocation_log == []
            per_function[window.active] += window.cost_usd
        for i, function in enumerate(functions):
            assert np.isclose(
                platform.total_cost_usd(function.name), per_function[i], rtol=1e-12, atol=0.0
            )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        backend=st.sampled_from(["serial", "vectorized"]),
        cohort_mode=st.sampled_from(["off", "statistical"]),
    )
    def test_service_windows_conserve_cost_into_ledger(
        self, seed, backend, cohort_mode, trained_model
    ):
        # Permissive guardrails make the controller resize (and roll back)
        # within a few windows; the 1e-5 rate leaves functions idle.
        functions = SyntheticFunctionGenerator(
            config=GeneratorConfig(seed=seed, name_prefix="ledger")
        ).generate(8)
        rates = [0.02, 0.05, 1e-5, 0.03] * 2
        simulator = FleetSimulator(
            functions,
            [ConstantTraffic(rate_rps=rate) for rate in rates],
            FleetConfig(window_s=900.0, backend=backend, cohort_mode=cohort_mode, seed=seed),
        )
        service = FleetRightsizingService(
            simulator,
            SizelessPredictor(trained_model),
            controller_config=ControllerConfig(
                min_windows=1,
                min_invocations=5,
                cooldown_windows=0,
                evaluation_windows=1,
                rollback_tolerance=0.0,
            ),
        )
        # Keep each simulated window so its cost column can be checked too.
        windows = []
        run_window = simulator.run_window

        def run_and_keep():
            windows.append(run_window())
            return windows[-1]

        simulator.run_window = run_and_keep
        platform = simulator.platform
        deltas = []
        for _ in range(4):
            billed = platform.total_cost_usd()
            events, account = service.run_window()
            delta = platform.total_cost_usd() - billed
            assert np.isclose(delta, account.actual_cost_usd, rtol=1e-12, atol=0.0)
            assert np.isclose(
                account.actual_cost_usd, np.sum(windows[-1].cost_usd), rtol=1e-12, atol=0.0
            )
            assert account.resizes + account.rollbacks == len(events)
            deltas.append(delta)
        assert np.isclose(
            service.ledger.total_actual_cost_usd, sum(deltas), rtol=1e-12, atol=0.0
        )
