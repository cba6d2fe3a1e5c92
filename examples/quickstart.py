"""Quickstart: train Sizeless on synthetic functions and size a new function.

Runs the complete pipeline at a small scale (a couple of minutes):

1. offline phase — generate and measure synthetic functions, train the model;
2. online phase  — monitor a previously unseen function at 256 MB only and
   recommend its optimal memory size.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import os

from repro import MEMORY_SIZES_MB
from repro.core import PipelineConfig, SizelessPipeline
from repro.simulation.profile import ResourceProfile, ServiceCall
from repro.workloads.function import FunctionSpec


def main() -> None:
    # REPRO_EXAMPLE_SCALE=ci shrinks the run for the CI smoke job.
    ci_scale = os.environ.get("REPRO_EXAMPLE_SCALE", "").lower() == "ci"
    config = PipelineConfig(
        n_training_functions=60 if ci_scale else 150,
        invocations_per_size=12 if ci_scale else 20,
        base_memory_sizes_mb=(256,),
        seed=7,
        backend="vectorized",  # numpy batch engine; "serial" is the scalar reference
    )
    pipeline = SizelessPipeline(config)

    print(f"Offline phase: measuring {config.n_training_functions} synthetic functions "
          f"at {len(config.memory_sizes_mb)} memory sizes "
          f"({config.backend} backend) ...")
    pipeline.run_offline_phase()
    print("Offline phase done - model trained.\n")

    # A "production" function the model has never seen: a thumbnail service
    # that downloads an image from S3, resizes it, and stores the result.
    thumbnail_service = FunctionSpec(
        name="thumbnail-service",
        application="demo",
        profile=ResourceProfile(
            cpu_user_ms=120.0,
            cpu_system_ms=8.0,
            memory_working_set_mb=90.0,
            heap_allocated_mb=70.0,
            service_calls=(
                ServiceCall("s3", "get_object", request_bytes=512, response_bytes=1_500_000),
                ServiceCall("s3", "put_object", request_bytes=200_000, response_bytes=512),
            ),
            blocking_fraction=0.8,
        ),
    )

    print(f"Online phase: monitoring {thumbnail_service.name!r} at 256 MB only ...")
    prediction = pipeline.predict(thumbnail_service)
    print("Predicted execution times:")
    for memory_mb in MEMORY_SIZES_MB:
        print(f"  {memory_mb:>5d} MB : {prediction.execution_times_ms[memory_mb]:8.1f} ms")

    for tradeoff, label in ((0.75, "cost-focused"), (0.5, "balanced"), (0.25, "speed-focused")):
        recommendation = pipeline.recommend(thumbnail_service, tradeoff=tradeoff)
        print(
            f"Recommended size ({label}, t={tradeoff}): "
            f"{recommendation.selected_memory_mb} MB "
            f"(predicted {recommendation.selected_execution_time_ms:.1f} ms, "
            f"{recommendation.selected_cost_usd * 1e6:.3f} USD per million ms of billing)"
        )


if __name__ == "__main__":
    main()
