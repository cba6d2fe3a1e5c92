"""Trace-driven simulation of a production fleet of deployed functions.

The offline harness (:mod:`repro.dataset.harness`) measures functions one at
a time, at every memory size, under a constant-rate workload — the paper's
controlled measurement protocol.  Production looks different: hundreds to
thousands of functions are deployed *simultaneously*, each at exactly one
memory size, serving time-varying traffic around the clock.

:class:`FleetSimulator` models that production side.  It deploys a whole
fleet on one :class:`~repro.simulation.platform.ServerlessPlatform`, assigns
every function a :class:`~repro.workloads.traffic.TrafficModel`, and advances
virtual time in fixed monitoring windows.  Each :meth:`run_window` call
executes the window's active functions as **one fused cross-function
mega-batch** (:meth:`~repro.simulation.engine.ExecutionBackend.run_grouped`):
their window arrivals are flattened into single columnar arrays with a
group-id structure and reduced straight to per-function
``(n_metrics, n_stats)`` stat rows with segmented reductions — no
per-function batches, no per-summary objects.  Every (function, window) pair
draws its execution noise from a private stream spawned via
:mod:`repro.simulation.seeding`, so the result is bit-identical to running
one engine batch per function.  The result is one :class:`SparseFleetWindow`
holding rows only for the window's active functions, which the rightsizing
controller (:mod:`repro.fleet.controller`) and the savings ledger consume;
:meth:`SparseFleetWindow.to_dense` gives the function-indexed
:class:`FleetWindow` view.

Memory stays bounded by one window: batch columns are transient, grouped
execution leaves no per-invocation records in the platform log, and the
simulator retains only the fleet's current deployment state.

At platform scale (10^5–10^6 functions, mostly idle under diurnal traffic)
:meth:`FleetSimulator.run_window` scales with *active, distinct* work
instead of fleet size:

- **Fused traffic sampling** — one window draws the whole fleet's arrivals
  from a single stream via
  :class:`~repro.workloads.traffic.FleetTrafficSchedule`: one Poisson draw,
  one rate-matrix evaluation, one thinning pass, instead of one Python
  ``arrivals()`` call per function.  Engine groups are then built only for
  functions with >0 arrivals, and the window result holds rows only for
  them; idle functions cost O(1) bookkeeping.
- **Cohort deduplication** (``cohort_mode="statistical"``) — active
  functions sharing (profile, memory size, mean-rate bucket) execute one
  representative group; members receive the representative's stat block
  scaled by their own arrival count.  Off by default: per-function noise
  streams make exact cohorting impossible, so this is an explicitly
  statistical approximation (representatives stay bit-exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.fleet.profiling import WindowPhaseProfiler
from repro.monitoring.aggregation import STAT_NAMES
from repro.monitoring.metrics import METRIC_NAMES
from repro.simulation.engine import (
    ExecutionBackend,
    GroupRequest,
    available_backends,
    get_backend,
)
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.seeding import (
    STREAM_EXECUTION,
    STREAM_TRAFFIC,
    child_rng,
    keyed_child_rngs,
)
from repro.workloads.function import FunctionSpec
from repro.workloads.traffic import (
    FleetArrivals,
    FleetTrafficSchedule,
    TrafficModel,
    fleet_mean_rates,
)

#: Stat-axis column of the mean (column order of
#: :data:`~repro.monitoring.aggregation.STAT_NAMES`).
_MEAN = STAT_NAMES.index("mean")

#: Metric-axis row of the execution time (Table-1 order).
_EXECUTION_TIME = METRIC_NAMES.index("execution_time")


@dataclass(frozen=True)
class FleetConfig:
    """Configuration of a fleet simulation.

    Attributes
    ----------
    window_s:
        Length of one monitoring window in virtual seconds (one hour by
        default — the granularity at which CloudWatch-style monitoring is
        typically aggregated).
    default_memory_mb:
        Memory size every function is initially deployed with (the paper's
        256 MB default deployment that Table 8 measures savings against).
    memory_sizes_mb:
        Sizes the fleet may be resized to (the platform is configured to
        allow exactly these).
    backend:
        Execution backend for the window batches (``"serial"`` or
        ``"vectorized"``).
    exclude_cold_starts:
        Drop cold-start invocations from window aggregation (the monitoring
        wrapper only measures warm executions).
    max_arrivals_per_window:
        Optional per-function cap on simulated arrivals per window; the
        arrival *pattern* is preserved by uniform subsampling, exactly like
        the offline harness cap.
    seed:
        Base seed of the window traffic streams and the per-(function,
        window) noise streams.
    cohort_mode:
        ``"off"`` (default) executes every active function — the exactness
        escape hatch: per-function noise streams force per-function draws,
        so only this mode is bit-reproducible function by function.
        ``"statistical"`` deduplicates active functions into (profile,
        memory size, mean-rate bucket) cohorts, executes one representative
        each and broadcasts its stat block to the members scaled by their
        own arrival counts (representatives stay bit-exact).
    cohort_rate_buckets_per_decade:
        Resolution of the cohort rate bucketing: mean window rates are
        bucketed on a log10 grid with this many buckets per decade.
    rate_resolution:
        Midpoint samples per window for the batched rate-matrix evaluations
        (cohort rate bucketing); see
        :func:`~repro.workloads.traffic.fleet_rate_matrix`.
    """

    window_s: float = 3600.0
    default_memory_mb: int = 256
    memory_sizes_mb: tuple[int, ...] = (128, 256, 512, 1024, 2048, 3008)
    backend: str = "vectorized"
    exclude_cold_starts: bool = True
    max_arrivals_per_window: int | None = None
    seed: int = 0
    cohort_mode: str = "off"
    cohort_rate_buckets_per_decade: int = 2
    rate_resolution: int = 64

    def __post_init__(self) -> None:
        """Validate window geometry, sizes, backend and scaling knobs."""
        if not np.isfinite(self.window_s) or self.window_s <= 0:
            raise ConfigurationError("window_s must be a positive finite number")
        if not self.memory_sizes_mb:
            raise ConfigurationError("memory_sizes_mb must not be empty")
        if any(size <= 0 for size in self.memory_sizes_mb):
            raise ConfigurationError("memory sizes must be positive")
        if int(self.default_memory_mb) not in tuple(int(s) for s in self.memory_sizes_mb):
            raise ConfigurationError("default_memory_mb must be one of memory_sizes_mb")
        if self.backend not in available_backends():
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; available: {available_backends()}"
            )
        if self.max_arrivals_per_window is not None and self.max_arrivals_per_window < 1:
            raise ConfigurationError("max_arrivals_per_window must be at least 1 when given")
        if self.cohort_mode not in ("off", "statistical"):
            raise ConfigurationError(
                f"cohort_mode must be 'off' or 'statistical', got {self.cohort_mode!r}"
            )
        if self.cohort_rate_buckets_per_decade < 1:
            raise ConfigurationError("cohort_rate_buckets_per_decade must be at least 1")
        if self.rate_resolution < 1:
            raise ConfigurationError("rate_resolution must be at least 1")


@dataclass(frozen=True)
class FleetWindow:
    """Function-indexed view of one fleet window.

    Built by :meth:`SparseFleetWindow.to_dense` for callers that want to
    index a window by function; the simulator itself returns sparse windows.

    Attributes
    ----------
    index:
        Zero-based window number.
    start_s / end_s:
        Window bounds in virtual seconds.
    memory_mb:
        ``(n_functions,)`` size each function was deployed at during the
        window.
    stats:
        ``(n_functions, n_metrics, n_stats)`` aggregated statistics (Table-1
        metric order, mean/std/cv stat order) of each function at its
        current size; zero rows mark functions without traffic.
    n_invocations:
        ``(n_functions,)`` invocations that survived the aggregation masks.
    n_arrivals:
        ``(n_functions,)`` raw arrivals driven through the platform.
    n_cold_starts:
        ``(n_functions,)`` cold-started invocations.
    cost_usd:
        ``(n_functions,)`` total billed cost of the window.
    """

    index: int
    start_s: float
    end_s: float
    memory_mb: np.ndarray
    stats: np.ndarray
    n_invocations: np.ndarray
    n_arrivals: np.ndarray
    n_cold_starts: np.ndarray
    cost_usd: np.ndarray

    @property
    def n_functions(self) -> int:
        """Number of fleet functions covered by the window."""
        return int(self.memory_mb.shape[0])

    @property
    def total_invocations(self) -> int:
        """Fleet-wide invocation count of the window."""
        return int(np.sum(self.n_invocations))

    @property
    def total_cost_usd(self) -> float:
        """Fleet-wide billed cost of the window."""
        return float(np.sum(self.cost_usd))

    def mean_execution_time_ms(self) -> np.ndarray:
        """Per-function mean execution time of the window (0 = no traffic)."""
        return self.stats[:, _EXECUTION_TIME, _MEAN]


@dataclass(frozen=True)
class SparseFleetWindow:
    """Active-rows-only monitoring result of one fleet window.

    The stat/count/cost columns hold rows only for the window's *active*
    functions, so per-window memory is bounded by the active count rather
    than the fleet size; :meth:`to_dense` scatters them into the
    function-indexed :class:`FleetWindow` view.  ``memory_mb`` stays dense:
    the controller and the savings ledger need every function's deployed
    size, and one integer per function is the O(fleet) bookkeeping floor
    the simulator already pays.

    Attributes
    ----------
    index:
        Zero-based window number.
    start_s / end_s:
        Window bounds in virtual seconds.
    memory_mb:
        ``(n_functions,)`` size each function was deployed at during the
        window (dense).
    active:
        ``(n_active,)`` sorted function indices with >0 arrivals this
        window; all remaining columns are parallel to it.
    stats:
        ``(n_active, n_metrics, n_stats)`` aggregated statistics of the
        active functions (Table-1 metric order, mean/std/cv stat order).
    n_invocations:
        ``(n_active,)`` invocations that survived the aggregation masks.
    n_arrivals:
        ``(n_active,)`` raw arrivals driven through the platform.
    n_cold_starts:
        ``(n_active,)`` cold-started invocations.
    cost_usd:
        ``(n_active,)`` total billed cost of the window.
    """

    index: int
    start_s: float
    end_s: float
    memory_mb: np.ndarray
    active: np.ndarray
    stats: np.ndarray
    n_invocations: np.ndarray
    n_arrivals: np.ndarray
    n_cold_starts: np.ndarray
    cost_usd: np.ndarray

    @property
    def n_functions(self) -> int:
        """Number of fleet functions covered by the window."""
        return int(self.memory_mb.shape[0])

    @property
    def n_active(self) -> int:
        """Number of functions with traffic this window."""
        return int(self.active.shape[0])

    @property
    def total_invocations(self) -> int:
        """Fleet-wide invocation count of the window."""
        return int(np.sum(self.n_invocations))

    @property
    def total_cost_usd(self) -> float:
        """Fleet-wide billed cost of the window."""
        return float(np.sum(self.cost_usd))

    def mean_execution_time_ms(self) -> np.ndarray:
        """Mean execution time of the *active* rows (parallel to ``active``)."""
        return self.stats[:, _EXECUTION_TIME, _MEAN]

    def to_dense(self) -> FleetWindow:
        """Scatter the active rows into the dense window representation."""
        n = self.n_functions
        stats = np.zeros((n, len(METRIC_NAMES), len(STAT_NAMES)), dtype=float)
        n_invocations = np.zeros(n, dtype=np.int64)
        n_arrivals = np.zeros(n, dtype=np.int64)
        n_cold = np.zeros(n, dtype=np.int64)
        cost = np.zeros(n, dtype=float)
        stats[self.active] = self.stats
        n_invocations[self.active] = self.n_invocations
        n_arrivals[self.active] = self.n_arrivals
        n_cold[self.active] = self.n_cold_starts
        cost[self.active] = self.cost_usd
        return FleetWindow(
            index=self.index,
            start_s=self.start_s,
            end_s=self.end_s,
            memory_mb=self.memory_mb.copy(),
            stats=stats,
            n_invocations=n_invocations,
            n_arrivals=n_arrivals,
            n_cold_starts=n_cold,
            cost_usd=cost,
        )


class FleetSimulator:
    """Advances a deployed fleet through monitoring windows of virtual time."""

    def __init__(
        self,
        functions: list[FunctionSpec],
        traffic: list[TrafficModel],
        config: FleetConfig | None = None,
        platform: ServerlessPlatform | None = None,
    ) -> None:
        """Deploy the fleet at the default size and bind its traffic models.

        Parameters
        ----------
        functions:
            The fleet's function specifications (unique names).
        traffic:
            One :class:`~repro.workloads.traffic.TrafficModel` per function.
        config:
            Fleet configuration (defaults to :class:`FleetConfig`).
        platform:
            Optional pre-configured platform; by default one is created that
            allows exactly the configured memory sizes.
        """
        self.config = config if config is not None else FleetConfig()
        if not functions:
            raise ConfigurationError("a fleet needs at least one function")
        if len(traffic) != len(functions):
            raise ConfigurationError(
                f"got {len(traffic)} traffic models for {len(functions)} functions"
            )
        names = [function.name for function in functions]
        if len(set(names)) != len(names):
            raise ConfigurationError("fleet function names must be unique")
        self.functions = list(functions)
        self.traffic = list(traffic)
        if platform is None:
            platform = ServerlessPlatform(
                config=PlatformConfig(
                    allowed_memory_sizes_mb=tuple(
                        int(s) for s in self.config.memory_sizes_mb
                    ),
                    seed=self.config.seed,
                )
            )
        self.platform = platform
        self.backend: ExecutionBackend = get_backend(self.config.backend)
        self._clock_s = 0.0
        self._window_index = 0
        self._memory_mb = np.full(
            len(self.functions), int(self.config.default_memory_mb), dtype=int
        )
        self._schedule = FleetTrafficSchedule(self.traffic)
        # Deployment rows indexed by function, maintained across resizes, so
        # window request construction never round-trips through the
        # platform's name registry.
        self._deployments = self.platform.deploy_many(
            names,
            [function.profile for function in self.functions],
            float(self.config.default_memory_mb),
        )
        self.profiler = WindowPhaseProfiler()

    # ------------------------------------------------------------------ state
    @property
    def n_functions(self) -> int:
        """Number of functions in the fleet."""
        return len(self.functions)

    @property
    def clock_s(self) -> float:
        """Current virtual time (start of the next window)."""
        return self._clock_s

    @property
    def windows_run(self) -> int:
        """Number of windows simulated so far."""
        return self._window_index

    def current_memory_mb(self) -> np.ndarray:
        """Return a copy of the per-function deployed memory sizes."""
        return self._memory_mb.copy()

    def function_names(self) -> tuple[str, ...]:
        """Fleet function names in index order."""
        return tuple(function.name for function in self.functions)

    # ----------------------------------------------------------------- resize
    def resize(self, function_index: int, memory_mb: int) -> None:
        """Redeploy one function at a new memory size (drops warm instances).

        ``function_index`` must lie in ``[0, n_functions)``: negative
        indices are rejected rather than counted from the end.  Bad input
        raises :class:`~repro.errors.SimulationError` before any state
        changes.
        """
        index = int(function_index)
        if not 0 <= index < self.n_functions:
            raise SimulationError(
                f"function index {index} out of range for a fleet of "
                f"{self.n_functions} functions"
            )
        memory_mb = int(memory_mb)
        if memory_mb not in tuple(int(s) for s in self.config.memory_sizes_mb):
            raise SimulationError(
                f"memory size {memory_mb} MB not among fleet sizes "
                f"{list(self.config.memory_sizes_mb)}"
            )
        function = self.functions[index]
        self.platform.set_memory_size(
            function.name, float(memory_mb), at_time_s=self._clock_s
        )
        # Redeployment replaced the platform record; refresh the cached row.
        self._deployments[index] = self.platform.get_function(function.name)
        self._memory_mb[index] = memory_mb

    # ----------------------------------------------------------------- window
    def _sample_arrivals(self, start_s: float, end_s: float) -> FleetArrivals:
        """Sample the whole fleet's window arrivals from one window stream.

        One Poisson draw, one rate-matrix evaluation and one thinning pass
        per window (:meth:`FleetTrafficSchedule.sample_window`),
        deterministic in the seed and the window index.
        """
        return self._schedule.sample_window(
            start_s,
            end_s,
            child_rng(self.config.seed, STREAM_TRAFFIC, self._window_index),
            max_per_function=self.config.max_arrivals_per_window,
        )

    def _execution_rngs(self, indices: np.ndarray) -> list[np.random.Generator]:
        """Derive the private noise streams of the given function indices.

        Keyed derivation (:func:`~repro.simulation.seeding.keyed_child_rngs`)
        constructs exactly the requested streams in one vectorized batch —
        bit-identical to spawning the full fleet and indexing, but O(active)
        regardless of fleet size, so idle functions never cost a stream.
        """
        return keyed_child_rngs(
            self.platform.config.seed,
            STREAM_EXECUTION,
            self._window_index,
            indices=indices,
        )

    def _cohort_plan(
        self, active: np.ndarray, start_s: float, end_s: float
    ) -> np.ndarray | None:
        """Map each active position to its cohort representative's position.

        Cohort key: (profile value, deployed memory size, log10 bucket of
        the mean window rate).  The profile participates by *value* —
        :class:`~repro.simulation.profile.ResourceProfile` is frozen and
        hashable — so cohort assignment is deterministic across processes
        and runs, and equal-valued profiles cohort together even when
        they are distinct objects.  Functions whose mean rate is not
        bucketable (zero / non-finite) stay solo.  Returns ``None`` when
        cohorting is off or degenerate (every cohort a singleton) so callers
        keep the exact path.
        """
        if self.config.cohort_mode != "statistical" or active.shape[0] < 2:
            return None
        rates = fleet_mean_rates(
            [self.traffic[int(i)] for i in active],
            start_s,
            end_s,
            resolution=self.config.rate_resolution,
        )
        per_decade = self.config.cohort_rate_buckets_per_decade
        bucketable = np.isfinite(rates) & (rates > 0.0)
        buckets = np.zeros(active.shape[0], dtype=np.int64)
        buckets[bucketable] = np.floor(
            np.log10(rates[bucketable]) * per_decade
        ).astype(np.int64)
        seen: dict[object, int] = {}
        rep_of = np.empty(active.shape[0], dtype=np.int64)
        for position, index in enumerate(active):
            if bucketable[position]:
                key: object = (
                    self.functions[int(index)].profile,
                    int(self._memory_mb[int(index)]),
                    int(buckets[position]),
                )
            else:
                key = ("solo", int(index))
            rep_of[position] = seen.setdefault(key, position)
        if np.array_equal(rep_of, np.arange(active.shape[0])):
            return None
        return rep_of

    def _execute_active(
        self, arrivals: FleetArrivals
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Execute the window's active groups.

        Returns ``(active, stats, n_invocations, n_cold_starts, cost_usd)``
        where every column after ``active`` is parallel to it (one row per
        active function).  Zero-arrival functions never reach the engine:
        no group request is built for them, they cost O(1) here.
        """
        active = arrivals.active()
        k = active.shape[0]
        n_metrics, n_stats = len(METRIC_NAMES), len(STAT_NAMES)
        if k == 0:
            return (
                active,
                np.zeros((0, n_metrics, n_stats), dtype=float),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=float),
            )
        tick = perf_counter()
        plan = self._cohort_plan(active, arrivals.start_s, arrivals.end_s)
        if plan is None:
            execute_positions = np.arange(k)
        else:
            execute_positions = np.unique(plan)
        execute = active[execute_positions]
        self.profiler.add("group-build", perf_counter() - tick)
        tick = perf_counter()
        exec_rngs = self._execution_rngs(execute)
        self.profiler.add("seeding", perf_counter() - tick)
        # Build group requests straight from the cached deployment rows and
        # the columnar arrival buffers: no platform name-registry lookups, no
        # per-group array re-validation — each request holds a view into the
        # window's flat ``times_s``.
        tick = perf_counter()
        times_s = arrivals.times_s
        offsets = arrivals.offsets
        deployments = self._deployments
        requests = [
            GroupRequest(
                deployment=deployments[i],
                arrivals=times_s[offsets[i] : offsets[i + 1]],
                rng=exec_rngs[j],
            )
            for j, i in enumerate(execute.tolist())
        ]
        self.profiler.add("group-build", perf_counter() - tick)
        tick = perf_counter()
        batch = self.backend.run_grouped(self.platform, requests)
        self.profiler.add("execute", perf_counter() - tick)
        tick = perf_counter()
        stats_e, ninv_e = batch.aggregate_stats(
            warmup_s=0.0, exclude_cold_starts=self.config.exclude_cold_starts
        )
        cold_e = batch.cold_starts_per_group()
        cost_e = batch.cost_per_group()
        self.profiler.add("reduce", perf_counter() - tick)
        if plan is None:
            return active, stats_e, ninv_e, cold_e, cost_e
        tick = perf_counter()
        # Broadcast each representative's stat block to its cohort members,
        # scaled by the member's own arrival count.  Representatives map to
        # themselves with scale exactly 1.0, so their rows stay bit-exact.
        rep_idx = np.searchsorted(execute_positions, plan)
        counts_all = arrivals.counts()
        scale = (
            counts_all[active].astype(float)
            / counts_all[execute].astype(float)[rep_idx]
        )
        stats_k = stats_e[rep_idx]
        ninv_k = np.rint(ninv_e[rep_idx] * scale).astype(np.int64)
        cold_k = np.rint(cold_e[rep_idx] * scale).astype(np.int64)
        cost_k = cost_e[rep_idx] * scale
        # Members never touched the engine: book their scaled cost and
        # invocation count on the platform so billing totals stay consistent
        # with the window's columns.
        members = np.flatnonzero(plan != np.arange(k))
        member_rows = active[members]
        self.platform.bill(
            [self._deployments[i] for i in member_rows.tolist()],
            counts_all[member_rows].tolist(),
            cost_k[members].tolist(),
        )
        self.profiler.add("reduce", perf_counter() - tick)
        return active, stats_k, ninv_k, cold_k, cost_k

    def run_window(self) -> SparseFleetWindow:
        """Simulate the next monitoring window for the whole fleet.

        Arrivals are sampled for the fleet first; only functions with >0
        arrivals build engine groups (idle functions cost O(1) and never
        reach the engine).  The active groups execute as one fused
        cross-function mega-batch reduced straight to per-function stat rows
        with segmented reductions.  Functions without traffic get no row in
        the result.
        """
        start_s = self._clock_s
        end_s = start_s + self.config.window_s
        tick = perf_counter()
        arrivals = self._sample_arrivals(start_s, end_s)
        self.profiler.add("traffic", perf_counter() - tick)
        active, stats_k, ninv_k, cold_k, cost_k = self._execute_active(arrivals)
        tick = perf_counter()
        window = SparseFleetWindow(
            index=self._window_index,
            start_s=start_s,
            end_s=end_s,
            memory_mb=self._memory_mb.copy(),
            active=active,
            stats=stats_k,
            n_invocations=ninv_k,
            n_arrivals=arrivals.counts()[active],
            n_cold_starts=cold_k,
            cost_usd=cost_k,
        )
        self._clock_s = end_s
        self._window_index += 1
        self.profiler.add("reduce", perf_counter() - tick)
        self.profiler.count_window()
        return window
