"""The benchmark's three workloads, each a repeatable pass through the public API.

A *pass* is one fixed job: the whole offline loop (``offline-paper``) or one
virtual day of a fleet rightsizing service (``fleet-idle``,
``fleet-resize``).  Every pass builds its inputs from the seed alone, so
repeated passes of one seed must produce identical outputs; the digest of
each pass is compared against the first.  A pass returns its timings, the
outcome of its output checks, its digest and its quality numbers.

Workloads set only ``FleetConfig.seed`` and the size/seed fields of
``ExperimentScale``: execution knobs stay at their defaults, so the
benchmark measures whatever the default path is.  Why each workload exists
is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from repro.core.predictor import SizelessPredictor
from repro.experiments import (
    figure7_selection_rank,
    table8_savings,
    tables4_7_prediction_error,
)
from repro.experiments.context import ExperimentContext, ExperimentScale
from repro.fleet import FleetConfig, FleetRightsizingService, FleetSimulator
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import DiurnalTraffic, sample_fleet_traffic

#: Base size the online phase monitors at (the paper's default deployment).
BASE_MB = 256

#: Windows of one fleet pass: one virtual day of one-hour windows.
WINDOWS_PER_DAY = 24

#: Relative tolerance of the billing and ledger cross-checks.
COST_RTOL = 1e-9


@dataclass
class PassResult:
    """Timings, checks and outputs of one pass."""

    setup_s: float
    #: Wall seconds of each step: fleet windows, or the single offline pass.
    steps_s: list[float]
    attempted: int
    failed: int
    digest: str
    quality: dict[str, float]
    #: ``WindowPhaseProfiler.snapshot()`` seconds per phase (fleets only).
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def pass_s(self) -> float:
        """Wall seconds of the pass's work, set-up excluded."""
        return math.fsum(self.steps_s)


@contextmanager
def span(tracer, name: str):
    """A benchmark-level span when tracing, nothing otherwise."""
    if tracer is None:
        yield
        return
    index = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(index)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= COST_RTOL * max(abs(a), abs(b))


# ------------------------------------------------------------------ offline
def offline_paper(seed: int, tracer=None) -> PassResult:
    """Generate → features → train → evaluate at the paper's invocation count.

    300 training functions × 6 sizes × 120 invocations, the default
    network, 3 repetitions of the 4 case-study applications; then Figure 7,
    Tables 4–7 and Table 8 at base 256 MB.  Checks: every case-study
    prediction is finite and positive and every selection rank is a valid
    rank (1..number of sizes).
    """
    tick = perf_counter()
    with span(tracer, "bench.setup"):
        context = ExperimentContext(
            ExperimentScale(
                n_training_functions=300,
                train_invocations_per_size=120,
                case_invocations_per_size=120,
                case_repetitions=3,
                seed=seed,
            )
        )
        applications = context.applications()
    setup_s = perf_counter() - tick

    tick = perf_counter()
    with span(tracer, "bench.pass"):
        context.training_table()
        context.model(BASE_MB)
        context.case_measurements()
        with span(tracer, "experiments.evaluate"):
            figure7 = figure7_selection_rank.run(context, base_memory_mb=BASE_MB)
            errors = tables4_7_prediction_error.run(context, base_memory_mb=BASE_MB)
            savings = table8_savings.run(context, base_memory_mb=BASE_MB)
    pass_s = perf_counter() - tick

    n_sizes = len(context.scale.memory_sizes_mb)
    attempted = failed = 0
    for application in applications:
        for index, name in enumerate(application.function_names):
            attempted += 1
            predicted = context.predicted_execution_times(application.name, name, BASE_MB)
            values = np.array(list(predicted.values()), dtype=float)
            ranks = [figure7.ranks[t][application.name][index] for t in figure7.ranks]
            if not (np.all(np.isfinite(values)) and np.all(values > 0)) or not all(
                1 <= rank <= n_sizes for rank in ranks
            ):
                failed += 1
    overall = savings.all_applications_row(0.75)
    quality = {
        "experiments.figure7.optimal_pct": figure7.rate_percent(1),
        "experiments.tables4_7.mape_pct": errors.overall_error_percent(),
        "experiments.table8.speedup_pct": overall.speedup_percent,
        "experiments.table8.cost_savings_pct": overall.cost_savings_percent,
    }
    digest = _digest(
        {
            "ranks": figure7.ranks,
            "errors": {app: table.per_function for app, table in errors.tables.items()},
            "table8": [vars(row) for row in savings.rows],
        }
    )
    return PassResult(setup_s, [pass_s], attempted, failed, digest, quality)


# -------------------------------------------------------------------- fleets
def _idle_fleet(seed: int):
    """200 000 functions (64 specs replicated), diurnal at 1e-6–5e-6 rps."""
    n_functions = 200_000
    bases = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seed, name_prefix="idle-base")
    ).generate(64)
    functions = [bases[i % 64].with_name(f"idle-{i}") for i in range(n_functions)]
    rng = np.random.default_rng([seed, 1])
    traffic = DiurnalTraffic.batch_build(
        mean_rate_rps=rng.uniform(1e-6, 5e-6, n_functions),
        amplitude=rng.uniform(0.4, 0.8, n_functions),
        phase_s=rng.uniform(0.0, 86_400.0, n_functions),
    )
    return functions, traffic


def _resize_fleet(seed: int):
    """2 000 distinct functions, mixed traffic at 0.002–0.02 rps."""
    n_functions = 2_000
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seed, name_prefix="resize")
    ).generate(n_functions)
    traffic = sample_fleet_traffic(
        n_functions, seed=seed + 1, mean_rate_range=(0.002, 0.02)
    )
    return functions, traffic


def _window_problems(window, account, events, before_mb, after_mb, billed) -> list[str]:
    """Conservation checks of one service window."""
    problems = []
    if not _close(billed, window.total_cost_usd):
        problems.append("platform billing delta != sum(window.cost_usd)")
    if not _close(account.actual_cost_usd, float(np.sum(window.cost_usd))):
        problems.append("ledger actual cost != sum(window.cost_usd)")
    if np.any(window.n_invocations > window.n_arrivals):
        problems.append("n_invocations > n_arrivals")
    if not np.array_equal(window.memory_mb, before_mb):
        problems.append("window sizes != deployed sizes")
    expected = before_mb.copy()
    for event in events:
        if expected[event.function_index] != event.from_memory_mb:
            problems.append("event from-size != deployed size")
        expected[event.function_index] = event.to_memory_mb
    if not np.array_equal(expected, after_mb):
        problems.append("applied sizes != controller events")
    if account.resizes + account.rollbacks != len(events):
        problems.append("ledger event counts != controller events")
    return problems


def _fleet(build):
    def run(seed: int, tracer=None) -> PassResult:
        tick = perf_counter()
        with span(tracer, "bench.setup"):
            context = ExperimentContext(replace(ExperimentScale.quick(), seed=seed))
            predictor = SizelessPredictor(context.model(BASE_MB), pricing=context.pricing)
            functions, traffic = build(seed)
            simulator = FleetSimulator(functions, traffic, FleetConfig(seed=seed))
            service = FleetRightsizingService(simulator, predictor)
        setup_s = perf_counter() - tick

        # Keep the window the service consumed, for the checks.
        seen = []
        run_window = simulator.run_window

        def capture():
            seen.append(run_window())
            return seen[-1]

        simulator.run_window = capture
        platform = simulator.platform
        steps, failed, window_costs = [], 0, []
        for index in range(WINDOWS_PER_DAY):
            before_mb = simulator.current_memory_mb()
            billed = platform.total_cost_usd()
            if tracer is not None:
                tracer.window = (tracer.pass_index, index)
            tick = perf_counter()
            with span(tracer, "fleet.service.run_window"):
                events, account = service.run_window()
            steps.append(perf_counter() - tick)
            if tracer is not None:
                tracer.window = None
            window = seen.pop()
            window_costs.append(window.total_cost_usd)
            problems = _window_problems(
                window, account, events, before_mb, simulator.current_memory_mb(),
                platform.total_cost_usd() - billed,
            )
            if index == WINDOWS_PER_DAY - 1 and not _close(
                service.ledger.total_actual_cost_usd, math.fsum(window_costs)
            ):
                problems.append("ledger total != sum of window costs")
            if problems:
                failed += 1
                print(f"check failed in window {index}: {problems}")

        ledger = service.ledger
        digest = _digest(
            {
                "final_mb": simulator.current_memory_mb().tolist(),
                "events": [
                    (e.window_index, e.function_index, e.from_memory_mb, e.to_memory_mb,
                     e.reason, e.predicted_improvement)
                    for e in ledger.events
                ],
                "ledger": ledger.summary(),
            }
        )
        snapshot = simulator.profiler.snapshot()["phases"]
        return PassResult(
            setup_s,
            steps,
            WINDOWS_PER_DAY,
            failed,
            digest,
            {
                "fleet.ledger.speedup_pct": ledger.speedup_percent(),
                "fleet.ledger.cost_savings_pct": ledger.cost_savings_percent(),
            },
            {phase: entry["seconds"] for phase, entry in snapshot.items()},
        )

    return run


WORKLOADS = {
    "offline-paper": offline_paper,
    "fleet-idle": _fleet(_idle_fleet),
    "fleet-resize": _fleet(_resize_fleet),
}
