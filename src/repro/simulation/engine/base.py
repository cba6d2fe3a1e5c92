"""Execution-backend abstraction: batch invocation containers and registry.

The measurement path of the paper runs 2 000 functions x 6 memory sizes x
18 000 invocations (~216 M simulated invocations).  Driving that through the
scalar :meth:`~repro.simulation.platform.ServerlessPlatform.invoke` call is
infeasible, so the platform delegates batch execution to a pluggable
:class:`ExecutionBackend`.  There are two:

- :class:`~repro.simulation.engine.serial.SerialBackend` — the original scalar
  path, kept as the reference implementation (the test oracle);
- :class:`~repro.simulation.engine.vectorized.VectorizedBackend` — the one
  fast path: many (function, size) groups as one kernelized columnar
  mega-batch; a single arrival batch is the same kernel with one group.

Every backend also inherits the *looped* grouped reference,
:meth:`ExecutionBackend.run_grouped`, which runs one :meth:`run_batch` per
group.

Backends are selected by name (a declarative config concern: harness, dataset
generator, fleet simulator and pipeline all expose a ``backend=`` knob)
through :func:`get_backend`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.monitoring.aggregation import MonitoringSummary
    from repro.simulation.platform import InvocationRecord, ServerlessPlatform


@dataclass(frozen=True)
class BatchResult:
    """Columnar result of one invocation batch (one function, one size).

    Where the scalar path produces one
    :class:`~repro.simulation.platform.InvocationRecord` per invocation, a
    batch result keeps one numpy column per attribute, so a measurement window
    can be aggregated without ever materializing per-invocation dictionaries.

    Attributes
    ----------
    function_name / memory_mb:
        The (function, size) pair the batch was executed for.
    timestamps_s:
        Sorted virtual arrival times.
    execution_time_ms:
        Inner handler execution time per invocation (excludes cold starts).
    init_duration_ms:
        Cold-start duration per invocation (0 for warm invocations).
    cold_start:
        Boolean mask of cold-started invocations.
    instance_ids:
        Worker instance that served each invocation.
    cost_usd / billed_duration_ms:
        Billing columns under the platform's pricing model.
    metrics:
        One ``(n,)`` array per Table-1 metric name.
    """

    function_name: str
    memory_mb: float
    timestamps_s: np.ndarray
    execution_time_ms: np.ndarray
    init_duration_ms: np.ndarray
    cold_start: np.ndarray
    instance_ids: np.ndarray
    cost_usd: np.ndarray
    billed_duration_ms: np.ndarray
    metrics: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_invocations(self) -> int:
        """Number of invocations in the batch."""
        return int(self.timestamps_s.shape[0])

    @property
    def n_cold_starts(self) -> int:
        """Number of cold-started invocations."""
        return int(np.count_nonzero(self.cold_start))

    @property
    def total_cost_usd(self) -> float:
        """Total billed cost of the batch."""
        return float(np.sum(self.cost_usd))

    def aggregate(
        self, warmup_s: float = 0.0, exclude_cold_starts: bool = True
    ) -> "MonitoringSummary":
        """Aggregate the batch into a :class:`MonitoringSummary`.

        Invocations arriving before ``warmup_s`` are discarded (falling back
        to the full batch when everything arrived during warm-up), matching
        the scalar harness path record for record.
        """
        from repro.monitoring.aggregation import aggregate_arrays

        if self.n_invocations == 0:
            raise SimulationError("cannot aggregate an empty batch")
        return aggregate_arrays(
            function_name=self.function_name,
            memory_mb=self.memory_mb,
            metrics=self.metrics,
            cold_start=self.cold_start,
            exclude_cold_starts=exclude_cold_starts,
            window=self.timestamps_s >= warmup_s,
        )

    def aggregate_stats(
        self, warmup_s: float = 0.0, exclude_cold_starts: bool = True
    ) -> tuple[np.ndarray, int]:
        """Aggregate the batch into a bare ``(n_metrics, n_stats)`` stat row.

        The dict-free counterpart of :meth:`aggregate`, used by the columnar
        measurement-table path: no :class:`MonitoringSummary` (or any other
        per-summary object) is materialized, just the stat matrix and the
        surviving invocation count.  Same windowing semantics as
        :meth:`aggregate` and bit-identical numbers (both wrap
        :func:`repro.monitoring.aggregation.stat_matrix`).
        """
        from repro.monitoring.aggregation import stat_matrix

        if self.n_invocations == 0:
            raise SimulationError("cannot aggregate an empty batch")
        return stat_matrix(
            self.metrics,
            cold_start=self.cold_start,
            exclude_cold_starts=exclude_cold_starts,
            window=self.timestamps_s >= warmup_s,
        )

    def to_records(self) -> list["InvocationRecord"]:
        """Materialize scalar :class:`InvocationRecord` objects (compat path).

        Expensive for large batches — intended for debugging and for callers
        that still need per-invocation record objects.
        """
        from repro.simulation.execution import ExecutionResult
        from repro.simulation.platform import InvocationRecord

        records = []
        for i in range(self.n_invocations):
            result = ExecutionResult(
                execution_time_ms=float(self.execution_time_ms[i]),
                memory_mb=float(self.memory_mb),
                metrics={name: float(values[i]) for name, values in self.metrics.items()},
                breakdown=None,
                cold_start=bool(self.cold_start[i]),
                init_duration_ms=float(self.init_duration_ms[i]),
            )
            records.append(
                InvocationRecord(
                    function_name=self.function_name,
                    memory_mb=float(self.memory_mb),
                    timestamp_s=float(self.timestamps_s[i]),
                    result=result,
                    cost_usd=float(self.cost_usd[i]),
                    billed_duration_ms=float(self.billed_duration_ms[i]),
                    instance_id=int(self.instance_ids[i]),
                )
            )
        return records

    @staticmethod
    def from_records(
        function_name: str, memory_mb: float, records: list["InvocationRecord"]
    ) -> "BatchResult":
        """Columnarize a list of scalar invocation records."""
        from repro.monitoring.metrics import METRIC_NAMES

        return BatchResult(
            function_name=function_name,
            memory_mb=float(memory_mb),
            timestamps_s=np.array([r.timestamp_s for r in records], dtype=float),
            execution_time_ms=np.array(
                [r.result.execution_time_ms for r in records], dtype=float
            ),
            init_duration_ms=np.array(
                [r.result.init_duration_ms for r in records], dtype=float
            ),
            cold_start=np.array([r.result.cold_start for r in records], dtype=bool),
            instance_ids=np.array([r.instance_id for r in records], dtype=int),
            cost_usd=np.array([r.cost_usd for r in records], dtype=float),
            billed_duration_ms=np.array(
                [r.billed_duration_ms for r in records], dtype=float
            ),
            metrics={
                name: np.array([r.result.metrics[name] for r in records], dtype=float)
                for name in METRIC_NAMES
            },
        )


class ExecutionBackend(abc.ABC):
    """Strategy interface for executing invocation batches.

    Backends implement :meth:`run_batch` — execute one (function, size)
    arrival batch against a platform — and may override :meth:`run_grouped`
    with a fused executor for many groups at once (the vectorized backend
    does, and its :meth:`run_batch` is that executor with one group).
    """

    #: Registry name of the backend (used by the ``backend=`` config knobs).
    name: str = "abstract"

    @abc.abstractmethod
    def run_batch(
        self,
        platform: "ServerlessPlatform",
        function_name: str,
        arrivals: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> BatchResult:
        """Execute one sorted arrival batch of a deployed function.

        ``rng`` optionally overrides the noise stream of this batch (the
        per-group streams spawned by :mod:`repro.simulation.seeding`);
        ``None`` keeps the platform's shared generator.
        """

    def run_grouped(self, platform: "ServerlessPlatform", requests):
        """Execute many (function, size) groups into one grouped result.

        The default schedules one :meth:`run_batch` call per group — the
        *looped* reference path — and concatenates the per-group columns into
        a :class:`~repro.simulation.engine.grouped.GroupedBatch`.  The
        vectorized backend overrides this with its kernelized single-pass
        executor, and its :meth:`run_batch` is that kernel with one group, so
        for it the looped path checks grouping invariance: one kernel call
        per group gives the same numbers as one call for all groups, because
        every group draws its noise from its own request stream.

        Like the kernelized executor, the looped path rejects unsorted,
        negative or non-finite group arrivals before running anything, and it
        leaves no per-invocation records behind: once a group's columns are
        built, its function's records are discarded from the platform log
        (billing totals are kept), so memory stays bounded by one group.
        """
        from repro.monitoring.metrics import METRIC_NAMES
        from repro.simulation.engine.grouped import (
            GroupedBatch,
            validate_group_timestamps,
        )

        if not requests:
            raise SimulationError("run_grouped needs at least one group request")
        offsets = np.zeros(len(requests) + 1, dtype=np.int64)
        np.cumsum([r.arrivals.shape[0] for r in requests], out=offsets[1:])
        timestamps = np.concatenate([r.arrivals for r in requests])
        validate_group_timestamps(timestamps, offsets, requests)
        batches = []
        for request in requests:
            # Execute against the deployment captured at request-build time:
            # a multi-size group list (the harness measuring one function at
            # several sizes) holds requests whose deployment is no longer
            # the platform's current one, so redeploy it before the batch
            # (redeploying also drops warm instances, like the grouped path's
            # fresh_pool reset does).
            if platform._functions.get(request.function_name) is not request.deployment:
                platform.deploy(
                    request.function_name,
                    request.deployment.profile,
                    request.deployment.memory_mb,
                )
            elif request.fresh_pool:
                platform._instances[request.function_name] = []
            if request.arrivals.shape[0] == 0:
                continue
            batches.append(
                self.run_batch(
                    platform, request.function_name, request.arrivals, rng=request.rng
                )
            )
            platform.discard_function_records(request.function_name)

        def column(parts, dtype=float):
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        return GroupedBatch(
            function_names=tuple(r.function_name for r in requests),
            memory_mb=np.array([r.memory_mb for r in requests], dtype=float),
            offsets=offsets,
            timestamps_s=timestamps,
            execution_time_ms=column([b.execution_time_ms for b in batches]),
            init_duration_ms=column([b.init_duration_ms for b in batches]),
            cold_start=column([b.cold_start for b in batches], bool),
            instance_ids=column([b.instance_ids for b in batches], np.int64),
            cost_usd=column([b.cost_usd for b in batches]),
            billed_duration_ms=column([b.billed_duration_ms for b in batches]),
            metrics={
                name: column([b.metrics[name] for b in batches])
                for name in METRIC_NAMES
            },
        )


_BACKENDS: dict[str, type[ExecutionBackend]] = {}


def register_backend(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
    """Register a backend class under its ``name`` (usable as a decorator)."""
    if not cls.name or cls.name == "abstract":
        raise ConfigurationError("backend classes must define a concrete name")
    _BACKENDS[cls.name] = cls
    return cls


def available_backends() -> list[str]:
    """Return the sorted names of all registered execution backends."""
    return sorted(_BACKENDS)


def get_backend(backend: str | ExecutionBackend) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    ``backend`` is a registered backend name (``"serial"`` or
    ``"vectorized"``) or an already-constructed backend instance, which is
    returned as-is.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        cls = _BACKENDS[str(backend).lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown execution backend {backend!r}; available: {available_backends()}"
        ) from None
    return cls()
