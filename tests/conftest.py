"""Shared fixtures for the test suite.

Expensive artefacts (a small measured dataset, a trained model) are built once
per session; everything else is cheap enough to construct per test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import SizelessModel, SizelessModelConfig
from repro.core.training import build_training_matrices
from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.fleet import SparseFleetWindow
from repro.monitoring.aggregation import STAT_NAMES
from repro.monitoring.metrics import METRIC_NAMES
from repro.ml.network import NetworkConfig
from repro.simulation.execution import ExecutionModel
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.profile import ResourceProfile, ServiceCall
from repro.simulation.variability import VariabilityModel
from repro.workloads.function import FunctionSpec


def pytest_configure(config) -> None:
    """Register the suite's custom markers."""
    config.addinivalue_line(
        "markers", "slow: long-running end-to-end test (deselect with -m 'not slow')"
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture()
def cpu_profile() -> ResourceProfile:
    """A CPU-dominated resource profile."""
    return ResourceProfile(
        cpu_user_ms=300.0,
        cpu_system_ms=5.0,
        memory_working_set_mb=60.0,
        heap_allocated_mb=45.0,
        blocking_fraction=0.9,
    )


@pytest.fixture()
def service_profile() -> ResourceProfile:
    """A managed-service-dominated resource profile."""
    return ResourceProfile(
        cpu_user_ms=12.0,
        cpu_system_ms=3.0,
        memory_working_set_mb=24.0,
        heap_allocated_mb=16.0,
        service_calls=(
            ServiceCall("dynamodb", "query", request_bytes=1024, response_bytes=4096, calls=2),
        ),
        blocking_fraction=0.3,
    )


@pytest.fixture()
def noise_free_model() -> ExecutionModel:
    """An execution model without run-to-run noise."""
    return ExecutionModel(variability=VariabilityModel.none())


@pytest.fixture()
def platform() -> ServerlessPlatform:
    """A platform with default noise and unrestricted memory sizes."""
    return ServerlessPlatform(
        config=PlatformConfig(allowed_memory_sizes_mb=None, seed=0)
    )


@pytest.fixture()
def cpu_function(cpu_profile) -> FunctionSpec:
    """A deployable CPU-bound function."""
    return FunctionSpec(name="cpu-function", profile=cpu_profile)


@pytest.fixture()
def service_function(service_profile) -> FunctionSpec:
    """A deployable service-bound function."""
    return FunctionSpec(name="service-function", profile=service_profile)


@pytest.fixture()
def harness() -> MeasurementHarness:
    """A measurement harness with a small invocation budget."""
    return MeasurementHarness(
        config=HarnessConfig(max_invocations_per_size=6, seed=3)
    )


@pytest.fixture(scope="session")
def small_dataset():
    """A small synthetic training dataset (measured once per session)."""
    generator = TrainingDatasetGenerator(
        DatasetGenerationConfig(n_functions=30, invocations_per_size=8, seed=5)
    )
    return generator.generate()


@pytest.fixture(scope="session")
def small_matrices(small_dataset):
    """Training matrices for base size 256 MB from the session dataset."""
    return build_training_matrices(small_dataset, base_memory_mb=256)


@pytest.fixture(scope="session")
def tiny_network_config() -> NetworkConfig:
    """A very small network configuration for fast training in tests."""
    return NetworkConfig(
        n_layers=2, n_neurons=24, epochs=120, learning_rate=0.01, loss="mse", l2=0.0001, seed=0
    )


@pytest.fixture(scope="session")
def trained_model(small_matrices, tiny_network_config) -> SizelessModel:
    """A Sizeless model trained on the session dataset (base 256 MB)."""
    model = SizelessModel(
        SizelessModelConfig(
            base_memory_mb=small_matrices.base_memory_mb,
            target_memory_sizes_mb=small_matrices.target_memory_sizes_mb,
            feature_names=small_matrices.feature_names,
            network=tiny_network_config,
        )
    )
    model.fit(small_matrices.features, small_matrices.ratios)
    return model


@pytest.fixture(scope="session")
def sample_summary(small_dataset):
    """A monitoring summary at 256 MB for one function of the session dataset."""
    return small_dataset.measurements[0].summary_at(256)


def run_looped_window(simulator) -> SparseFleetWindow:
    """Advance a fleet simulator one window through a per-function loop.

    The looped reference of ``FleetSimulator.run_window``: the same fleet
    traffic draw and the same per-function execution streams, but one
    ``platform.invoke_batch`` engine batch and one stat reduction per active
    function instead of one fused mega-batch.  Cohort deduplication is not
    modelled (the reference is the exact path).
    """
    config = simulator.config
    start_s = simulator.clock_s
    end_s = start_s + config.window_s
    arrivals = simulator._sample_arrivals(start_s, end_s)
    active = arrivals.active()
    rngs = simulator._execution_rngs(active)
    k = active.shape[0]
    stats = np.zeros((k, len(METRIC_NAMES), len(STAT_NAMES)))
    n_invocations = np.zeros(k, dtype=np.int64)
    n_cold_starts = np.zeros(k, dtype=np.int64)
    cost_usd = np.zeros(k)
    for j, i in enumerate(active.tolist()):
        name = simulator.functions[i].name
        batch = simulator.platform.invoke_batch(
            name, arrivals.arrivals_of(i), backend=simulator.backend, rng=rngs[j]
        )
        stats[j], n_invocations[j] = batch.aggregate_stats(
            warmup_s=0.0, exclude_cold_starts=config.exclude_cold_starts
        )
        n_cold_starts[j] = batch.n_cold_starts
        cost_usd[j] = batch.total_cost_usd
        simulator.platform.discard_function_records(name)
    window = SparseFleetWindow(
        index=simulator.windows_run,
        start_s=start_s,
        end_s=end_s,
        memory_mb=simulator.current_memory_mb(),
        active=active,
        stats=stats,
        n_invocations=n_invocations,
        n_arrivals=arrivals.counts()[active],
        n_cold_starts=n_cold_starts,
        cost_usd=cost_usd,
    )
    simulator._clock_s = end_s
    simulator._window_index += 1
    return window


def measure_looped_blocks(harness, functions, memory_sizes_mb=None):
    """Measure a function list through a per-(function, size) loop.

    The independent reference of ``MeasurementHarness.measure_table`` and
    ``measure_many``: the same index-derived arrival and noise streams, but
    one deploy, one ``platform.invoke_batch`` engine batch and one stat
    reduction per (function, size) pair instead of one grouped engine call
    per chunk.  Returns ``(n_functions, n_sizes, n_metrics, n_stats)`` stats
    and ``(n_functions, n_sizes)`` surviving invocation counts.
    """
    sizes = memory_sizes_mb if memory_sizes_mb is not None else harness.config.memory_sizes_mb
    load = harness.config.workload
    platform = harness.platform
    stats = np.zeros((len(functions), len(sizes), len(METRIC_NAMES), len(STAT_NAMES)))
    counts = np.zeros((len(functions), len(sizes)), dtype=np.int64)
    for index, function in enumerate(functions):
        for j, memory_mb in enumerate(sizes):
            platform.deploy(function.name, function.profile, int(memory_mb))
            batch = platform.invoke_batch(
                function.name,
                harness._arrivals_for(load, index, j),
                backend=harness.backend,
                rng=harness._execution_rng(index, j),
            )
            stats[index, j], counts[index, j] = batch.aggregate_stats(
                warmup_s=load.warmup_s,
                exclude_cold_starts=harness.config.exclude_cold_starts,
            )
        platform.discard_function_records(function.name)
    return stats, counts


@pytest.fixture()
def looped_window():
    """The per-function looped window reference (:func:`run_looped_window`)."""
    return run_looped_window


@pytest.fixture()
def looped_blocks():
    """The per-(function, size) harness reference (:func:`measure_looped_blocks`)."""
    return measure_looped_blocks
