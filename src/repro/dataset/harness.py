"""The measurement harness (paper Section 3.3).

The paper's harness — written in Go, driving Vegeta — deploys each function,
pushes an open-loop load at every memory size, and stores the aggregated
metrics.  :class:`MeasurementHarness` is the simulator-side equivalent.  The
paper-scale parameters (10 minutes at 30 req/s = 18 000 invocations per size)
are supported but the default configuration caps the number of simulated
invocations per size so that the full 2 000-function dataset can be generated
in seconds; the cap preserves the arrival-process shape (see
:meth:`repro.workloads.loadgen.LoadGenerator.arrival_times`).

Every measurement takes one path through the engine: the (function, size)
experiments of a function chunk become the groups of one
:meth:`~repro.simulation.engine.ExecutionBackend.run_grouped` call, and the
grouped result is reduced straight to per-group stat rows with segmented
reductions — no per-invocation metric dictionaries are materialized.
:meth:`MeasurementHarness.measure_chunk` builds the measurements of one
chunk, :meth:`MeasurementHarness.measure_function` is the one-function
chunk, :meth:`MeasurementHarness.measure_many` loops over it, and
:meth:`MeasurementHarness.measure_table` runs the chunks of a whole list.
The backend (:mod:`repro.simulation.engine`) decides how a chunk executes:
the default ``"serial"`` backend runs one scalar batch per group (the
original invocation-by-invocation path), ``"vectorized"`` flattens all
groups into one columnar mega-batch.  Grouped runs leave no per-invocation
records in the platform log, so memory stays bounded during paper-scale runs.

Every (function, size) experiment owns two private random streams — one for
its arrival trace, one for its execution noise — spawned from the base seeds
and the function's absolute index (:mod:`repro.simulation.seeding`).  Chunk
boundaries and backends' group schedules therefore never change the
numbers: a function measured alone, in a list or in a table run produces
bit-identical statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.monitoring.aggregation import STAT_NAMES, summary_from_stats
from repro.monitoring.metrics import METRIC_NAMES
from repro.dataset.schema import FunctionMeasurement
from repro.dataset.table import MeasurementTableBuilder
from repro.simulation.engine import (
    ExecutionBackend,
    GroupRequest,
    available_backends,
    get_backend,
)
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.seeding import STREAM_ARRIVALS, STREAM_EXECUTION, child_rng
from repro.workloads.function import FunctionSpec
from repro.workloads.loadgen import LoadGenerator, Workload

#: Functions per grouped engine call of :meth:`MeasurementHarness.measure_table`;
#: bounds peak memory at one chunk's metric columns.
_DEFAULT_FUSED_CHUNK = 64


@dataclass(frozen=True)
class HarnessConfig:
    """Configuration of the measurement harness.

    Attributes
    ----------
    memory_sizes_mb:
        Memory sizes to measure (the paper's six sizes by default).
    workload:
        Open-loop load per experiment (paper scale: 600 s at 30 req/s).
    max_invocations_per_size:
        Simulation-side cap on invocations per memory size (``None`` runs the
        full workload).  The default keeps dataset generation fast while still
        averaging away per-invocation noise.
    exclude_cold_starts:
        Drop cold-start invocations from the aggregation window.
    seed:
        Base seed of the per-experiment arrival streams.
    backend:
        Execution backend name (``"serial"`` or ``"vectorized"``) used for
        invocation batches.
    """

    memory_sizes_mb: tuple[int, ...] = (128, 256, 512, 1024, 2048, 3008)
    workload: Workload = Workload(requests_per_second=30.0, duration_s=600.0, warmup_s=30.0)
    max_invocations_per_size: int | None = 40
    exclude_cold_starts: bool = True
    seed: int = 0
    backend: str = "serial"

    def __post_init__(self) -> None:
        if not self.memory_sizes_mb:
            raise ConfigurationError("memory_sizes_mb must not be empty")
        if any(size <= 0 for size in self.memory_sizes_mb):
            raise ConfigurationError("memory sizes must be positive")
        if self.max_invocations_per_size is not None and self.max_invocations_per_size < 2:
            raise ConfigurationError("max_invocations_per_size must be at least 2")
        if self.backend not in available_backends():
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; available: {available_backends()}"
            )


class MeasurementHarness:
    """Measures functions across memory sizes on a (simulated) platform."""

    def __init__(
        self,
        platform: ServerlessPlatform | None = None,
        config: HarnessConfig | None = None,
    ) -> None:
        self.config = config if config is not None else HarnessConfig()
        if platform is None:
            platform = ServerlessPlatform(
                config=PlatformConfig(
                    allowed_memory_sizes_mb=None, seed=self.config.seed
                )
            )
        self.platform = platform
        self.backend: ExecutionBackend = get_backend(self.config.backend)
        self._load_generator = LoadGenerator(seed=self.config.seed)
        self._auto_index = 0

    # -------------------------------------------------------- group streams
    def _arrivals_for(self, workload: Workload, index: int, size_index: int) -> np.ndarray:
        """Sample one (function, size) experiment's private arrival trace."""
        arrivals = self._load_generator.arrival_times(
            workload,
            max_requests=self.config.max_invocations_per_size,
            rng=child_rng(self.config.seed, STREAM_ARRIVALS, index, size_index),
        )
        if not arrivals:
            arrivals = [workload.warmup_s + 0.001]
        return np.asarray(arrivals, dtype=float)

    def _execution_rng(self, index: int, size_index: int) -> np.random.Generator:
        """Spawn one (function, size) experiment's private noise stream."""
        return child_rng(
            self.platform.config.seed, STREAM_EXECUTION, index, size_index
        )

    def _next_index(self, index: int | None) -> int:
        """Resolve a measurement's absolute index (auto-advancing default).

        Explicit indices come from schedulers (``measure_many`` /
        ``measure_table`` enumerate their function lists) and leave the
        auto-counter untouched; ``None`` takes the next counter value so
        repeated standalone calls never replay one another's streams.
        """
        if index is not None:
            return int(index)
        index = self._auto_index
        self._auto_index += 1
        return index

    def measure_function(
        self,
        function: FunctionSpec,
        memory_sizes_mb: tuple[int, ...] | None = None,
        workload: Workload | None = None,
        index: int | None = None,
    ) -> FunctionMeasurement:
        """Measure one function at every requested memory size.

        ``index`` is the function's absolute position within the overall
        measurement run; it selects the experiment's random streams, so a
        scheduler measuring a list reproduces the same numbers function for
        function.  When omitted, the harness assigns the next auto-index —
        successive standalone calls on one harness therefore draw from
        successive independent streams (the first standalone call equals
        measuring the function first in a list).  Returns a
        :class:`~repro.dataset.schema.FunctionMeasurement` holding one
        aggregated summary per memory size.
        """
        return self.measure_chunk(
            [function],
            index_offset=self._next_index(index),
            memory_sizes_mb=memory_sizes_mb,
            workload=workload,
        )[0]

    def measure_chunk(
        self,
        functions: list[FunctionSpec],
        index_offset: int = 0,
        memory_sizes_mb: tuple[int, ...] | None = None,
        workload: Workload | None = None,
    ) -> list[FunctionMeasurement]:
        """Measure a function chunk through one grouped engine call.

        Function ``k`` measures with absolute index ``index_offset + k``, so
        each measurement equals :meth:`measure_function` of that function at
        that index.  Returns one
        :class:`~repro.dataset.schema.FunctionMeasurement` per function.
        """
        if memory_sizes_mb is None:
            memory_sizes_mb = self.config.memory_sizes_mb
        stats, counts = self.measure_chunk_stats(
            functions, index_offset=index_offset, memory_sizes_mb=memory_sizes_mb,
            workload=workload,
        )
        measurements = []
        for k, function in enumerate(functions):
            measurement = FunctionMeasurement(
                function_name=function.name,
                application=function.application,
                segments=function.segments,
            )
            for j, memory_mb in enumerate(memory_sizes_mb):
                measurement.add_summary(
                    int(memory_mb),
                    summary_from_stats(function.name, memory_mb, stats[k, j], counts[k, j]),
                )
            measurements.append(measurement)
        return measurements

    def measure_many(
        self,
        functions: list[FunctionSpec],
        memory_sizes_mb: tuple[int, ...] | None = None,
        workload: Workload | None = None,
        progress_callback=None,
    ) -> list[FunctionMeasurement]:
        """Measure a list of functions sequentially (like the paper's trials).

        Function ``k`` of the list measures with absolute index ``k``, so
        its numbers equal those of the same function at the same position in
        :meth:`measure_table`.  ``progress_callback(done, total, name)`` is
        invoked after each completed function.
        """
        measurements = []
        for index, function in enumerate(functions):
            measurements.append(
                self.measure_function(
                    function,
                    memory_sizes_mb=memory_sizes_mb,
                    workload=workload,
                    index=index,
                )
            )
            if progress_callback is not None:
                progress_callback(index + 1, len(functions), function.name)
        return measurements

    # ----------------------------------------------------------- columnar path
    def measure_chunk_stats(
        self,
        functions: list[FunctionSpec],
        index_offset: int = 0,
        memory_sizes_mb: tuple[int, ...] | None = None,
        workload: Workload | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Measure a function chunk through ONE grouped engine call.

        All ``len(functions) x n_sizes`` (function, size) groups go to the
        engine together (:meth:`ExecutionBackend.run_grouped`) and are
        reduced to dense stat blocks with segmented reductions.  Function
        ``k`` of the chunk measures with absolute index ``index_offset + k``;
        every group draws from its own index-derived streams, so the numbers
        do not depend on how a list is cut into chunks.

        Returns
        -------
        tuple[numpy.ndarray, numpy.ndarray]
            ``(n_functions, n_sizes, n_metrics, n_stats)`` stats and
            ``(n_functions, n_sizes)`` surviving invocation counts.
        """
        memory_sizes = memory_sizes_mb if memory_sizes_mb is not None else self.config.memory_sizes_mb
        load = workload if workload is not None else self.config.workload
        requests = []
        for k, function in enumerate(functions):
            index = index_offset + k
            for j, memory_mb in enumerate(memory_sizes):
                self.platform.deploy(function.name, function.profile, int(memory_mb))
                requests.append(
                    GroupRequest.for_deployed(
                        self.platform,
                        function.name,
                        self._arrivals_for(load, index, j),
                        self._execution_rng(index, j),
                        fresh_pool=True,
                    )
                )
        if not requests:
            shape = (0, len(memory_sizes), len(METRIC_NAMES), len(STAT_NAMES))
            return np.zeros(shape), np.zeros((0, len(memory_sizes)), dtype=np.int64)
        batch = self.backend.run_grouped(self.platform, requests)
        stats, counts = batch.aggregate_stats(
            warmup_s=load.warmup_s,
            exclude_cold_starts=self.config.exclude_cold_starts,
        )
        n_sizes = len(memory_sizes)
        return (
            stats.reshape(len(functions), n_sizes, len(METRIC_NAMES), len(STAT_NAMES)),
            counts.reshape(len(functions), n_sizes),
        )

    def measure_table(
        self,
        functions: list[FunctionSpec],
        memory_sizes_mb: tuple[int, ...] | None = None,
        workload: Workload | None = None,
        progress_callback=None,
        description: str = "",
        metadata: dict[str, object] | None = None,
    ):
        """Measure a list of functions into a columnar measurement table.

        The array-first counterpart of :meth:`measure_many`: the list runs
        as chunks of :data:`_DEFAULT_FUSED_CHUNK` functions, each one grouped
        engine call (:meth:`measure_chunk_stats`), and the stat blocks land
        in a :class:`~repro.dataset.table.MeasurementTableBuilder`.
        """
        memory_sizes = tuple(
            int(size)
            for size in (
                memory_sizes_mb if memory_sizes_mb is not None else self.config.memory_sizes_mb
            )
        )
        builder = MeasurementTableBuilder(
            memory_sizes_mb=memory_sizes, description=description, metadata=metadata
        )
        # One grouped engine call per chunk; per-group streams derive from
        # absolute indices, so chunking never changes the numbers.
        total = len(functions)
        for start in range(0, total, _DEFAULT_FUSED_CHUNK):
            chunk = functions[start : start + _DEFAULT_FUSED_CHUNK]
            stats, counts = self.measure_chunk_stats(
                chunk,
                index_offset=start,
                memory_sizes_mb=memory_sizes,
                workload=workload,
            )
            for k, function in enumerate(chunk):
                builder.add_function(
                    function.name,
                    application=function.application,
                    segments=function.segments,
                    stats=stats[k],
                    counts=counts[k],
                )
                if progress_callback is not None:
                    progress_callback(start + k + 1, total, function.name)
        return builder.build()
