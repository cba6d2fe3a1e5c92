"""End-to-end training-dataset generation (paper Section 3.3).

Combines the synthetic function generator, the measurement harness and the
monitoring aggregation into one call: generate N unique synthetic functions,
measure each at all six memory sizes, and return a
:class:`~repro.dataset.schema.MeasurementDataset`.  The paper's full scale is
2 000 functions x 6 sizes x 18 000 invocations; the defaults below produce a
smaller (but structurally identical) dataset suitable for laptop runs, and
every knob can be raised to paper scale.  Even at paper scale the dense
table is small (2 000 functions x 6 sizes x 25 metrics x 3 statistics is
about 7 MB of float64), so it always lives in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.dataset.schema import MeasurementDataset
from repro.dataset.table import MeasurementTable
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.loadgen import Workload


@dataclass(frozen=True)
class DatasetGenerationConfig:
    """Configuration of the training-dataset generation run.

    Attributes
    ----------
    n_functions:
        Number of synthetic functions to generate and measure (paper: 2 000).
    memory_sizes_mb:
        Memory sizes measured per function (paper: the six AWS sizes).
    invocations_per_size:
        Simulated invocations aggregated per (function, size) pair.  The
        vectorized execution engine makes a window of 120 invocations (the
        same cap the paper-scale experiment preset uses) affordable by
        default; the paper's full 18 000-invocation windows are reachable by
        raising this knob.
    requests_per_second / duration_s:
        Open-loop workload parameters (paper: 30 req/s for 600 s).
    seed:
        Master seed; generator, platform and load generator derive from it.
    generator_config:
        Optional override for the synthetic function generator settings.
    backend:
        Execution backend measuring the functions: ``"serial"`` (the original
        scalar path) or ``"vectorized"`` (numpy batches, one fused
        cross-function mega-batch per chunk).
    """

    n_functions: int = 200
    memory_sizes_mb: tuple[int, ...] = (128, 256, 512, 1024, 2048, 3008)
    invocations_per_size: int = 120
    requests_per_second: float = 30.0
    duration_s: float = 600.0
    warmup_s: float = 30.0
    seed: int = 42
    generator_config: GeneratorConfig | None = field(default=None)
    backend: str = "vectorized"

    def __post_init__(self) -> None:
        if self.n_functions < 1:
            raise ConfigurationError("n_functions must be at least 1")
        if self.invocations_per_size < 2:
            raise ConfigurationError("invocations_per_size must be at least 2")
        if not self.memory_sizes_mb:
            raise ConfigurationError("memory_sizes_mb must not be empty")

    def workload(self) -> Workload:
        """The per-experiment workload implied by this configuration."""
        return Workload(
            requests_per_second=self.requests_per_second,
            duration_s=self.duration_s,
            warmup_s=self.warmup_s,
        )


class TrainingDatasetGenerator:
    """Generates the synthetic-function training dataset."""

    def __init__(self, config: DatasetGenerationConfig | None = None) -> None:
        self.config = config if config is not None else DatasetGenerationConfig()
        generator_config = self.config.generator_config
        if generator_config is None:
            generator_config = GeneratorConfig(seed=self.config.seed)
        self.function_generator = SyntheticFunctionGenerator(config=generator_config)
        platform = ServerlessPlatform(
            config=PlatformConfig(allowed_memory_sizes_mb=None, seed=self.config.seed + 1)
        )
        harness_config = HarnessConfig(
            memory_sizes_mb=self.config.memory_sizes_mb,
            workload=self.config.workload(),
            max_invocations_per_size=self.config.invocations_per_size,
            seed=self.config.seed + 2,
            backend=self.config.backend,
        )
        self.harness = MeasurementHarness(platform=platform, config=harness_config)

    def _metadata(self) -> dict[str, object]:
        return {
            "n_functions": self.config.n_functions,
            "memory_sizes_mb": list(self.config.memory_sizes_mb),
            "invocations_per_size": self.config.invocations_per_size,
            "requests_per_second": self.config.requests_per_second,
            "duration_s": self.config.duration_s,
            "seed": self.config.seed,
            "backend": self.config.backend,
        }

    def _description(self) -> str:
        return (
            f"synthetic training dataset: {self.config.n_functions} functions x "
            f"{len(self.config.memory_sizes_mb)} memory sizes"
        )

    def generate_table(self, progress_callback=None) -> MeasurementTable:
        """Generate and measure the full dataset as a columnar table.

        The array-first path: measurements flow from the engine's batch
        columns straight into the dense
        :class:`~repro.dataset.table.MeasurementTable` without per-summary
        objects.

        Parameters
        ----------
        progress_callback:
            Optional ``callable(index, total, function_name)`` invoked after
            each measured function (used by the examples to print progress).
        """
        return self.harness.measure_table(
            self.function_generator.generate(self.config.n_functions),
            progress_callback=progress_callback,
            description=self._description(),
            metadata=self._metadata(),
        )

    def generate(self, progress_callback=None) -> MeasurementDataset:
        """Generate and measure the full dataset (object-API view).

        Measures through the columnar table path and materializes the
        :class:`MeasurementDataset` view — same numbers as the table, same
        interface as before the table existed.
        """
        return self.generate_table(progress_callback=progress_callback).to_dataset()
