"""Benchmark: training-dataset generation throughput per execution backend.

Generates the benchmark dataset (by default 200 synthetic functions x 6
memory sizes x 120 invocations = 144 000 simulated invocations) once per
backend and records the achieved invocations/second: ``serial`` (scalar
reference) and ``vectorized`` (fused cross-function mega-batches, the
default path).  The final tests assert the engine's acceptance criteria: the
default (fused vectorized) path generates the dataset at least 10x faster
than serial, and measurably faster than the looped reference (one deploy and
one ``invoke_batch`` engine batch per (function, size) pair, the test-local
``measure_looped_blocks`` of ``tests/conftest.py``) on identical functions,
with bit-identical numbers.  Both ratios time each side best-of-3.

Unlike the other benchmarks this one deliberately ignores ``REPRO_BENCH_SCALE``
— the comparison is defined on the default generation configuration
(shrinkable for CI smoke runs via ``REPRO_BENCH_GEN_FUNCTIONS``).  On shared
CI runners the measured ratios are noisier than on a quiet machine, so the
asserted floors can be lowered via ``REPRO_BENCH_MIN_SPEEDUP`` (default: the
acceptance criterion, 10x) and ``REPRO_BENCH_GEN_FUSED_SPEEDUP`` (default
1.2x).
"""

from __future__ import annotations

import importlib.util
import os
import time
from pathlib import Path

import numpy as np

from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator

N_FUNCTIONS = int(os.environ.get("REPRO_BENCH_GEN_FUNCTIONS", "200"))

#: Recorded generation wall times per variant (the speedup gate takes the
#: best of them).
_DURATIONS: dict[str, list[float]] = {}
_INVOCATIONS = N_FUNCTIONS * 6 * 120  # functions x sizes x invocations_per_size

_VARIANTS = {
    "serial": dict(backend="serial"),
    "vectorized": dict(backend="vectorized"),
}


def _generate(variant: str):
    """Generate the benchmark dataset with ``variant``, recording the duration."""
    generator = TrainingDatasetGenerator(
        DatasetGenerationConfig(n_functions=N_FUNCTIONS, **_VARIANTS[variant])
    )
    start = time.perf_counter()
    dataset = generator.generate()
    _DURATIONS.setdefault(variant, []).append(time.perf_counter() - start)
    return dataset


def _throughput(variant: str, n_runs: int = 1) -> float:
    """Best throughput over at least ``n_runs`` generations (earlier runs count)."""
    while len(_DURATIONS.get(variant, ())) < n_runs:
        _generate(variant)
    return _INVOCATIONS / min(_DURATIONS[variant])


def _bench(benchmark, variant: str):
    dataset = benchmark.pedantic(lambda: _generate(variant), rounds=1, iterations=1)
    benchmark.extra_info["invocations_per_second"] = round(_throughput(variant))
    assert len(dataset) == N_FUNCTIONS
    assert all(m.has_all_sizes((128, 256, 512, 1024, 2048, 3008)) for m in dataset)


def test_bench_generation_serial(benchmark):
    """Scalar reference path: one Python-level model evaluation per invocation."""
    _bench(benchmark, "serial")


def test_bench_generation_vectorized(benchmark):
    """Fused path: one cross-function mega-batch per chunk (the default)."""
    _bench(benchmark, "vectorized")


def test_vectorized_speedup_over_serial():
    """Acceptance criterion: >= 10x over serial on the default dataset.

    Each side is timed best-of-3 (the benchmark runs above count as one
    sample each), so one noisy run on a shared machine cannot sink the ratio.
    """
    minimum = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "10.0"))
    serial = _throughput("serial", n_runs=3)
    vectorized = _throughput("vectorized", n_runs=3)
    speedup = vectorized / serial
    print(
        f"\ngeneration throughput: serial {serial:,.0f} inv/s, "
        f"fused vectorized {vectorized:,.0f} inv/s ({speedup:.1f}x, best of 3)"
    )
    assert speedup >= minimum


def _best_of(n_runs, run):
    """Repeat a timed run, keeping the fastest (noise-robust) ``(seconds, result)``."""
    best = None
    for _ in range(n_runs):
        start = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - start
        if best is None or seconds < best[0]:
            best = (seconds, result)
    return best


def _measure_looped_blocks():
    """Load the per-(function, size) reference from ``tests/conftest.py``.

    Imported by file path: neither ``tests/`` nor ``benchmarks/`` is a
    package, and the benchmarks also run without the tests collected.
    """
    path = Path(__file__).resolve().parents[1] / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("repro_tests_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.measure_looped_blocks


def test_fused_speedup_over_looped():
    """The fused mega-batch path beats the looped per-(function, size) path.

    Both sides measure the same pre-generated functions through one
    harness (every experiment draws from index-derived streams, so reruns
    reproduce the same numbers) and are timed best-of-3.  The looped side
    is the test-local reference loop — one deploy and one ``invoke_batch``
    engine batch per (function, size) pair — which shares no code with the
    harness's grouped path.
    """
    minimum = float(os.environ.get("REPRO_BENCH_GEN_FUSED_SPEEDUP", "1.2"))
    generator = TrainingDatasetGenerator(
        DatasetGenerationConfig(n_functions=N_FUNCTIONS, **_VARIANTS["vectorized"])
    )
    functions = generator.function_generator.generate(N_FUNCTIONS)
    harness = generator.harness
    measure_looped_blocks = _measure_looped_blocks()
    fused_seconds, table = _best_of(3, lambda: harness.measure_table(functions))
    looped_seconds, (stats, counts) = _best_of(
        3, lambda: measure_looped_blocks(harness, functions)
    )
    np.testing.assert_array_equal(table.values, stats)
    np.testing.assert_array_equal(table.n_invocations, counts)

    speedup = looped_seconds / fused_seconds
    print(
        f"\ngeneration throughput: looped {_INVOCATIONS / looped_seconds:,.0f} inv/s, "
        f"fused {_INVOCATIONS / fused_seconds:,.0f} inv/s ({speedup:.2f}x, "
        f"bit-identical)"
    )
    assert speedup >= minimum
