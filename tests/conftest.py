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
