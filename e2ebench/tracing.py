"""In-memory span tracing of the repro layers, installed by monkeypatching.

The benchmark never edits the program.  For a traced run it replaces a few
public functions and methods (where their callers look them up) with
wrappers that record one span per call: name, start, end, parent span and
the fleet window the call belongs to.  Spans stay in memory and are written
out once, at the end of the run.  A layer's self time is its span minus the
spans of its children, so the self times of one window add up to the
window's root span as long as every child ends inside its parent (checked:
:meth:`Tracer.self_seconds` counts the spans that break this).

The wrappers cost two ``perf_counter`` reads and one list append per call
and sit at layer boundaries only (one call per window or per stage, never
per invocation).  Untraced passes run with nothing installed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    """Collects spans and counters from the patched layer boundaries."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent, window]`` list per span.
        self.spans: list[list] = []
        #: Counters keyed by metric name (``"simulation.engine.groups"``).
        self.counts: dict[str, float] = defaultdict(float)
        #: ``(pass, window)`` tag given to new spans; ``None`` outside windows.
        self.window: tuple[int, int] | None = None
        #: Index of the pass being traced (first half of the window tag).
        self.pass_index = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------------ spans
    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.window])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the innermost span (which must be ``index``)."""
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _open(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # --------------------------------------------------------------- patching
    def wrap(self, owner, attr: str, name: str, counters=()) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module (module-level function, patched where its
        callers look it up) or a class (method, patched for every
        instance).  ``counters`` is a sequence of ``(metric, fn)`` pairs;
        ``fn(args, kwargs, result)`` returns the amount added per call.  A
        call made while a span of the same name is already open (a backend
        delegating to its parent class, a predict path calling a sibling)
        runs unwrapped and is charged to the outer span.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            if tracer._open(name):
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            for metric, amount in counters:
                tracer.counts[metric] += amount(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- reporting
    def self_seconds(self) -> tuple[dict[str, float], dict[str, float], int]:
        """Self and in-window inclusive seconds per span name, plus violations.

        Inclusive seconds count only spans inside fleet windows, the scope
        the simulator's phase profiler covers.  The third value counts spans
        whose children cover more than the span itself (a child outside its
        parent), which would make self times negative; a well-formed trace
        has none.
        """
        children = [0.0] * len(self.spans)
        for name, start, stop, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += stop - start
        own: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        negative = 0
        for (name, start, stop, _, window), child in zip(self.spans, children):
            own[name] += (stop - start) - child
            if window is not None:
                inclusive[name] += stop - start
            if child > (stop - start) + 1e-9:
                negative += 1
        return own, inclusive, negative

    def write(self, path: Path) -> None:
        """Write every span (times relative to the first) as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as handle:
            for index, (name, start, stop, parent, window) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": stop - origin,
                            "parent": parent,
                            "window": window,
                        }
                    )
                    + "\n"
                )


def _count_len(args, kwargs, result) -> float:
    return float(len(result)) if isinstance(result, list) else 1.0


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are read from.

    Undo with :meth:`Tracer.unpatch`.  Targets a later version of the
    program no longer has are reported on stderr and left out.
    """
    tracer.missing = []
    import repro.dataset.harness as harness
    import repro.experiments.context as context
    import repro.fleet.simulator as simulator
    import repro.monitoring.aggregation as aggregation
    from repro.core.features import FeatureExtractor
    from repro.core.model import SizelessModel
    from repro.core.predictor import SizelessPredictor
    from repro.dataset.generation import TrainingDatasetGenerator
    from repro.dataset.harness import MeasurementHarness
    from repro.fleet.controller import RightsizingController
    from repro.fleet.ledger import SavingsLedger
    from repro.fleet.simulator import FleetSimulator
    from repro.ml.network import NeuralNetwork
    from repro.simulation.engine import available_backends, get_backend
    from repro.workloads.traffic import FleetTrafficSchedule

    def arrivals(args, kwargs, result) -> float:
        return float(result.times_s.shape[0])

    for attr in ("sample_window", "sample_window_keyed"):
        tracer.wrap(
            FleetTrafficSchedule, attr, "workloads.traffic.sample",
            [("workloads.traffic.arrivals", arrivals)],
        )
    seeding = [("simulation.seeding.streams", _count_len)]
    for module, attr in (
        (simulator, "keyed_child_rngs"),
        (simulator, "child_rng"),
        (harness, "child_rng"),
    ):
        tracer.wrap(module, attr, "simulation.seeding.derive", seeding)

    # Every registered backend class that defines its own entry points.
    classes = {type(get_backend(name)) for name in available_backends()}
    classes |= {base for cls in classes for base in cls.__mro__ if base is not object}
    def groups(args, kwargs, result) -> float:
        return float(len(args[2] if len(args) > 2 else kwargs["requests"]))

    def invocations(args, kwargs, result) -> float:
        return float(result.n_invocations)

    grouped = [
        ("simulation.engine.groups", groups),
        ("simulation.engine.invocations", invocations),
    ]
    batch = [("simulation.engine.invocations", invocations)]
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        if "run_grouped" in vars(cls):
            tracer.wrap(cls, "run_grouped", "simulation.engine.run_grouped", grouped)
        if "run_batch" in vars(cls):
            tracer.wrap(cls, "run_batch", "simulation.engine.run_batch", batch)

    # Aggregation helpers are imported inside the callers' function bodies,
    # so the module attribute is where they are looked up.
    for attr in ("grouped_stat_blocks", "stat_matrix", "aggregate_arrays"):
        tracer.wrap(aggregation, attr, "monitoring.aggregation.reduce")

    def events(reason):
        return lambda a, k, r: float(sum(1 for e in r if e.reason == reason))

    def table_rows(args, kwargs, result) -> float:
        table = args[1] if len(args) > 1 else kwargs["table"]
        return float(len(table.function_names))

    tracer.wrap(FleetSimulator, "run_window", "fleet.simulator.run_window")
    tracer.wrap(FleetSimulator, "resize", "fleet.simulator.resize")
    tracer.wrap(
        RightsizingController, "step", "fleet.controller.step",
        [
            ("fleet.controller.resizes", events("recommendation")),
            ("fleet.controller.rollbacks", events("rollback")),
        ],
    )
    tracer.wrap(
        SizelessPredictor, "recommend_table", "core.predictor.recommend_table",
        [("core.predictor.rows", table_rows), ("fleet.controller.eligible_rows", table_rows)],
    )
    tracer.wrap(SavingsLedger, "observe", "fleet.ledger.observe")

    tracer.wrap(
        TrainingDatasetGenerator, "generate_table", "dataset.generation.generate",
        [("dataset.generation.invocations", lambda a, k, r: float(r.n_invocations.sum()))],
    )
    for attr in ("measure_function", "measure_table"):
        tracer.wrap(MeasurementHarness, attr, "dataset.harness.measure")
    for attr in ("extract", "extract_matrix", "extract_table"):
        tracer.wrap(FeatureExtractor, attr, "core.features.extract")
    tracer.wrap(context, "train_model", "core.training.train")
    tracer.wrap(NeuralNetwork, "fit", "ml.network.fit")
    for attr in ("predict_execution_times", "predict_times_matrix", "predict_ratios"):
        tracer.wrap(SizelessModel, attr, "core.model.predict")

    if tracer.missing:
        print(f"trace: not found, left unwrapped: {tracer.missing}", file=sys.stderr)
