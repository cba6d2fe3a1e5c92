"""The scalar execution backend (the platform's original invocation path).

Kept as the reference implementation: it drives
:meth:`~repro.simulation.platform.ServerlessPlatform.invoke` once per arrival,
so per-invocation records land in the platform log exactly as before.  The
parity tests compare the vectorized backend against it.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.engine.base import BatchResult, ExecutionBackend, register_backend


@register_backend
class SerialBackend(ExecutionBackend):
    """Executes a batch as one scalar :meth:`invoke` call per arrival."""

    name = "serial"

    def run_batch(
        self,
        platform,
        function_name: str,
        arrivals: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> BatchResult:
        function = platform.get_function(function_name)
        if rng is None:
            records = [platform.invoke(function_name, at_time_s=float(t)) for t in arrivals]
        else:
            # Group-private stream: the scalar path draws through the
            # platform's generator, so swap it in for the duration of the
            # batch (the simulation is single-threaded).
            shared = platform._rng
            platform._rng = rng
            try:
                records = [
                    platform.invoke(function_name, at_time_s=float(t)) for t in arrivals
                ]
            finally:
                platform._rng = shared
        return BatchResult.from_records(function_name, function.memory_mb, records)
