"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 e2ebench/run.py --workload fleet-resize --seed 1 --seconds 20 --trace 0

The run repeats whole passes of the workload (see ``workloads.py``) until
``--seconds`` have passed, and at least two.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics, read from spans recorded around the
program's layer boundaries (``tracing.py``) and written to
``e2ebench/out/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: one thread keeps runs steady on a shared box.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Passes every run makes at least: fleet percentiles need two virtual days
#: of windows, and a traced run needs one untraced pass to compare against.
MIN_PASSES = 2

#: Profiler phases whose time the benchmark also wraps, with the span that
#: covers the same code.
CROSSCHECK = {
    "traffic": "workloads.traffic.sample",
    "execute": "simulation.engine.run_grouped",
    "decide": "fleet.controller.step",
    "ledger": "fleet.ledger.observe",
}

#: Span names reported as self seconds per pass.
SELF_TIMES = {
    "fleet.controller.self_s": "fleet.controller.step",
    "simulation.engine.run_grouped_s": "simulation.engine.run_grouped",
    "simulation.engine.run_batch_s": "simulation.engine.run_batch",
    "workloads.traffic.sample_s": "workloads.traffic.sample",
    "monitoring.aggregation.reduce_s": "monitoring.aggregation.reduce",
    "simulation.seeding.derive_s": "simulation.seeding.derive",
    "fleet.simulator.self_s": "fleet.simulator.run_window",
    "fleet.simulator.resize_s": "fleet.simulator.resize",
    "core.predictor.recommend_table_s": "core.predictor.recommend_table",
    "fleet.ledger.observe_s": "fleet.ledger.observe",
    "fleet.service.self_s": "fleet.service.run_window",
    "ml.network.fit_s": "ml.network.fit",
    "core.training.train_s": "core.training.train",
    "dataset.generation.generate_s": "dataset.generation.generate",
    "dataset.harness.measure_s": "dataset.harness.measure",
    "core.features.extract_s": "core.features.extract",
    "core.model.predict_s": "core.model.predict",
    "experiments.evaluate_s": "experiments.evaluate",
    "bench.setup_s": "bench.setup",
    "bench.pass_s": "bench.pass",
}

COUNTS = (
    "fleet.controller.eligible_rows",
    "fleet.controller.resizes",
    "fleet.controller.rollbacks",
    "simulation.engine.groups",
    "simulation.engine.invocations",
    "workloads.traffic.arrivals",
    "simulation.seeding.streams",
    "core.predictor.rows",
    "dataset.generation.invocations",
)

QUALITY = (
    "experiments.figure7.optimal_pct",
    "experiments.tables4_7.mape_pct",
    "experiments.table8.speedup_pct",
    "experiments.table8.cost_savings_pct",
    "fleet.ledger.speedup_pct",
    "fleet.ledger.cost_savings_pct",
)

#: End-to-end metrics where a larger value is better (all others: smaller).
HIGHER_IS_BETTER = {"ok_share"}

PHASES = ("traffic", "seeding", "group-build", "execute", "reduce", "decide", "ledger")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


def end_to_end(passes, attempted: int, failed: int) -> dict:
    steps_ms = [step * 1e3 for result in passes for step in result.steps_s]
    quartiles = statistics.quantiles(steps_ms, n=4)
    return {
        "setup_s": (statistics.median(r.setup_s for r in passes), "s"),
        "pass_s": (statistics.median(r.pass_s for r in passes), "s"),
        "step_ms_p50": (statistics.median(steps_ms), "ms"),
        "step_ms_p75": (quartiles[2], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (1.0 - failed / attempted, "share"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    n = len(traced)
    own, inclusive, negative = tracer.self_seconds()
    metrics = {
        "fleet.controller.step_s": (inclusive.get("fleet.controller.step", 0.0) / n, "s"),
    }
    for metric, name in SELF_TIMES.items():
        metrics[metric] = (own.get(name, 0.0) / n, "s")
    for metric in COUNTS:
        metrics[metric] = (tracer.counts.get(metric, 0.0) / n, "count")
    for phase in PHASES:
        seconds = sum(r.phases.get(phase, 0.0) for r in traced) / n
        metrics[f"fleet.phase.{phase}_s"] = (seconds, "s")
    for phase, name in CROSSCHECK.items():
        profiled = sum(r.phases.get(phase, 0.0) for r in traced)
        ratio = inclusive.get(name, 0.0) / profiled if profiled > 0 else 0.0
        metrics[f"fleet.phase.{phase}_span_ratio"] = (ratio, "ratio")
    for metric in QUALITY:
        metrics[metric] = (traced[0].quality.get(metric, 0.0), "%")
    plain = statistics.median(r.pass_s for r in untraced)
    with_spans = statistics.median(r.pass_s for r in traced)
    metrics["trace.overhead_pct"] = (100.0 * (with_spans / plain - 1.0), "%")
    metrics["trace.negative_self_spans"] = (float(negative), "count")
    metrics["trace.spans"] = (len(tracer.spans) / n, "count")
    return metrics


def main() -> int:
    args = parse_args()
    if not (SRC / "repro").is_dir():
        print(f"error: package sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer, install
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("env:", json.dumps({"workload": args.workload, **environment(args.seed)}))

    tracer = Tracer() if args.trace else None
    passes, traced, untraced = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < args.seconds:
        tracing = tracer is not None and len(passes) % 2 == 1
        if tracing:
            tracer.pass_index = len(passes)
            install(tracer)
        try:
            result = workload(args.seed, tracer if tracing else None)
        except Exception:
            traceback.print_exc()
            attempted += 1
            failed += 1
            break
        finally:
            if tracing:
                tracer.unpatch()
        passes.append(result)
        (traced if tracing else untraced).append(result)
        attempted += result.attempted
        if result.digest != passes[0].digest:
            # A pass that does not reproduce the first one fails as a whole.
            print(f"pass {len(passes) - 1}: digest {result.digest} != {passes[0].digest}")
            failed += result.attempted
        else:
            failed += result.failed
        print(
            f"pass {len(passes) - 1}{' (traced)' if tracing else ''}: "
            f"setup {result.setup_s:.3f} s, work {result.pass_s:.3f} s, "
            f"{len(result.steps_s)} steps, {result.failed} failed checks"
        )

    if len(passes) < MIN_PASSES:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1
    print(f"digest: {passes[0].digest}")
    for name, value in passes[0].quality.items():
        print(f"quality: {name} = {value:.4f}")
    if tracer is not None:
        metrics = per_layer(tracer, traced, untraced)
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(passes, attempted, failed)
    for name, (value, unit) in metrics.items():
        better = "higher is better" if name in HIGHER_IS_BETTER else "lower is better"
        print(f"{name:40s} {value:14.6f} {unit:6s} {better if tracer is None else ''}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
