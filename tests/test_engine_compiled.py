"""Parity, mode and fallback tests for the compiled (kernelized) backend.

The compiled backend's contract has three tiers:

- **Bit-exact** in the default ``float64`` / ``per-group`` configuration:
  every stat, cold-start flag, instance id and the platform pool state must
  match the vectorized backend (and therefore the serial reference) bit for
  bit, across warm-pool carryover, resizes, duplicate-name batches, fresh
  pools and overlapping (unsafe) arrivals.
- **Statistical** in the opt-in ``dtype="float32"`` and ``noise="pooled"``
  modes: fleet-level aggregates stay within tight tolerance of the default
  configuration while arrival streams are untouched.
- **Graceful** around the optional numba dependency: present, broken or
  absent numba must all yield the same results, never an import error.
"""

from __future__ import annotations

import sys
import types
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetConfig, FleetSimulator
from repro.simulation.coldstart import ColdStartModel
from repro.simulation.engine import (
    CompiledBackend,
    GroupRequest,
    available_backends,
    get_backend,
)
from repro.simulation.engine import compiled as compiled_mod
from repro.simulation.engine import grouped as grouped_mod
from repro.simulation.execution import ExecutionModel
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.seeding import STREAM_EXECUTION, child_rng
from repro.simulation.variability import VariabilityModel
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import (
    BurstyTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    RampTraffic,
    TraceTraffic,
)


def _functions(n, seed=11, prefix="cmp"):
    return SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seed, name_prefix=prefix)
    ).generate(n)


def assert_windows_equal(a, b):
    """Bit-identical window comparison (cost compared to float tolerance)."""
    np.testing.assert_array_equal(a.active, b.active)
    np.testing.assert_array_equal(a.stats, b.stats)
    np.testing.assert_array_equal(a.n_invocations, b.n_invocations)
    np.testing.assert_array_equal(a.n_arrivals, b.n_arrivals)
    np.testing.assert_array_equal(a.n_cold_starts, b.n_cold_starts)
    np.testing.assert_array_equal(a.memory_mb, b.memory_mb)
    np.testing.assert_allclose(a.cost_usd, b.cost_usd, rtol=1e-12)


TRAFFIC_FACTORIES = {
    "constant": lambda i: ConstantTraffic(rate_rps=0.01 + 0.002 * i),
    "diurnal": lambda i: DiurnalTraffic(
        mean_rate_rps=0.01, amplitude=0.6, phase_s=1000.0 * i
    ),
    "bursty": lambda i: BurstyTraffic(
        base_rate_rps=0.004, burst_rate_rps=0.3,
        burst_every_s=1800.0, burst_duration_s=120.0, burst_seed=i,
    ),
    "ramp": lambda i: RampTraffic(
        start_rate_rps=0.002, end_rate_rps=0.03,
        ramp_start_s=0.0, ramp_duration_s=7200.0,
    ),
    "trace": lambda i: TraceTraffic(
        timestamps_s=tuple(np.sort(np.random.default_rng(i).uniform(0, 7200, 50)))
    ),
}


class TestFleetWindowParity:
    """Compiled fleet windows are bit-identical to vectorized, per traffic model."""

    @pytest.mark.parametrize("model_name", sorted(TRAFFIC_FACTORIES))
    def test_compiled_equals_vectorized(self, model_name):
        factory = TRAFFIC_FACTORIES[model_name]
        functions = _functions(12, seed=31, prefix=f"cfleet-{model_name}")
        traffic = [factory(i) for i in range(len(functions))]

        def run(backend):
            simulator = FleetSimulator(
                functions,
                traffic,
                FleetConfig(window_s=3600.0, seed=17, fused=True, backend=backend),
            )
            windows = [simulator.run_window() for _ in range(2)]
            simulator.resize(0, 1024)  # warm pools drop for fn 0 only
            windows.append(simulator.run_window())
            return windows

        for compiled_window, vectorized_window in zip(run("compiled"), run("vectorized")):
            assert_windows_equal(compiled_window, vectorized_window)


class TestGroupedEdgeParity:
    """Direct run_grouped parity on the walk kernel's fallback-triggering shapes."""

    def _build_requests(self, platform, funcs, seed=23):
        reqs = [
            # empty group
            GroupRequest.for_deployed(
                platform, funcs[0].name, np.array([]),
                child_rng(seed, STREAM_EXECUTION, 0, 0),
            ),
            # dense overlapping arrivals: unsafe, falls back to walk_group
            GroupRequest.for_deployed(
                platform, funcs[1].name,
                np.sort(np.random.default_rng(1).uniform(0.0, 2.0, 40)),
                child_rng(seed, STREAM_EXECUTION, 0, 1),
            ),
            # sparse idle arrivals: the safe single-server-run regime
            GroupRequest.for_deployed(
                platform, funcs[2].name, np.arange(10) * 900.0,
                child_rng(seed, STREAM_EXECUTION, 0, 2),
            ),
            # duplicate name later in the batch: forced unsafe (its pool
            # state depends on the earlier group in this very batch)
            GroupRequest.for_deployed(
                platform, funcs[1].name,
                3.0 + np.sort(np.random.default_rng(2).uniform(0.0, 2.0, 15)),
                child_rng(seed, STREAM_EXECUTION, 0, 3),
            ),
            # fresh pool: prior instances must be dropped before the walk
            replace(
                GroupRequest.for_deployed(
                    platform, funcs[3].name, np.arange(5) * 700.0,
                    child_rng(seed, STREAM_EXECUTION, 0, 4),
                ),
                fresh_pool=True,
            ),
            # single arrival
            GroupRequest.for_deployed(
                platform, funcs[4].name, np.array([42.0]),
                child_rng(seed, STREAM_EXECUTION, 0, 5),
            ),
        ]
        return reqs

    def _run(self, backend_name):
        funcs = _functions(6, seed=7, prefix="edge")
        platform = ServerlessPlatform(PlatformConfig(seed=23))
        for f in funcs:
            platform.deploy(f.name, f.profile, 512)
        backend = get_backend(backend_name)
        first = backend.run_grouped(platform, self._build_requests(platform, funcs))
        # second window: warm pools carried over, same names again
        shifted = [
            GroupRequest.for_deployed(
                platform, r.function_name, np.asarray(r.arrivals) + 3600.0,
                child_rng(23, STREAM_EXECUTION, 1, i),
            )
            for i, r in enumerate(self._build_requests(platform, funcs))
        ]
        second = backend.run_grouped(platform, shifted)
        return platform, funcs, first, second

    def test_batches_and_pool_state_bit_identical(self):
        pa, funcs, a1, a2 = self._run("vectorized")
        pb, _, b1, b2 = self._run("compiled")
        for a, b in ((a1, b1), (a2, b2)):
            (blk_a, cnt_a), (blk_b, cnt_b) = a.aggregate_stats(), b.aggregate_stats()
            np.testing.assert_array_equal(blk_a, blk_b)
            np.testing.assert_array_equal(cnt_a, cnt_b)
            np.testing.assert_array_equal(a.cold_start, b.cold_start)
            np.testing.assert_array_equal(a.instance_ids, b.instance_ids)
            np.testing.assert_array_equal(a.init_duration_ms, b.init_duration_ms)
            np.testing.assert_allclose(a.cost_usd, b.cost_usd, rtol=1e-12)
        assert pa._next_instance_id == pb._next_instance_id
        for f in funcs:
            pool_a = [
                (i.instance_id, i.created_at_s, i.busy_until_s, i.last_used_s, i.invocations)
                for i in pa._instances[f.name]
            ]
            pool_b = [
                (i.instance_id, i.created_at_s, i.busy_until_s, i.last_used_s, i.invocations)
                for i in pb._instances[f.name]
            ]
            assert pool_a == pool_b
            assert (
                pa._functions[f.name].invocation_count
                == pb._functions[f.name].invocation_count
            )

    def test_grouped_batch_dtype_property(self):
        funcs = _functions(2, seed=8, prefix="dt")
        platform = ServerlessPlatform(PlatformConfig(seed=5))
        for f in funcs:
            platform.deploy(f.name, f.profile, 512)
        reqs = [
            GroupRequest.for_deployed(
                platform, f.name, np.array([10.0 * i]),
                child_rng(5, STREAM_EXECUTION, 0, i),
            )
            for i, f in enumerate(funcs)
        ]
        batch = get_backend("compiled").run_grouped(platform, reqs)
        assert batch.dtype == np.float64


class TestDisagreementPath:
    """The vectorized cold-chain recurrence on warm/cold expiry disagreements.

    A disagreement pair is one where the warm-case idle time exceeds the
    keep-alive but the cold-case idle time does not — the run state at the
    pair's right arrival then depends on the left arrival's own (recursive)
    state.  With noise disabled the execution/init durations are exact, so
    the geometry below provably produces such pairs, and the resolved chains
    must agree bit for bit across serial, vectorized and compiled backends.
    """

    def _platform(self, seed=0):
        return ServerlessPlatform(
            config=PlatformConfig(allowed_memory_sizes_mb=None, seed=seed),
            execution_model=ExecutionModel(variability=VariabilityModel.none()),
            cold_start_model=ColdStartModel(
                base_init_ms=200.0,
                runtime_init_ms=300.0,
                code_load_ms_per_mb=0.0,
                keep_alive_s=1.0,
                noise_cv=0.0,
            ),
        )

    def _profile(self):
        # pure CPU work, no service calls: with VariabilityModel.none() and
        # cold noise off, execution and init durations are exactly
        # deterministic, so the pair geometry below is provable
        from repro.simulation.profile import ResourceProfile

        return ResourceProfile(
            cpu_user_ms=250.0,
            cpu_system_ms=8.0,
            memory_working_set_mb=70.0,
            heap_allocated_mb=50.0,
            blocking_fraction=0.9,
        )

    def test_disagreement_pairs_resolve_identically(self):
        profile = self._profile()

        # probe the deterministic per-invocation execution and cold-init
        # durations once
        probe_platform = self._platform()
        probe_platform.deploy("dis-fn", profile, 512)
        probe = probe_platform.invoke_batch(
            "dis-fn", np.array([0.0]), backend="serial",
            rng=child_rng(0, STREAM_EXECUTION, 9, 0),
        )
        exec_s = float(probe.execution_time_ms[0]) / 1000.0
        init_s = float(probe.init_duration_ms[0]) / 1000.0
        assert init_s > 0.5  # the geometry below needs a sizeable init
        # gap = exec + keep_alive + d with 0 < d <= init: the warm-case idle
        # (keep_alive + d) exceeds the keep-alive while the cold-case idle
        # (keep_alive + d - init) does not -> every adjacent pair disagrees
        # and the resolved chain alternates cold/warm/cold/... from the head
        gap = exec_s + 1.0 + 0.5
        arrivals = np.cumsum(np.full(12, gap))

        def run(backend):
            platform = self._platform()
            platform.deploy("dis-fn", profile, 512)
            request = GroupRequest.for_deployed(
                platform, "dis-fn", arrivals, child_rng(0, STREAM_EXECUTION, 0, 0)
            )
            return get_backend(backend).run_grouped(platform, [request])

        serial = run("serial")
        vectorized = run("vectorized")
        compiled = run("compiled")
        # the disagreement branch must actually fire: runs re-warm behind
        # cold starts, so the chain is neither all-cold nor all-warm
        np.testing.assert_array_equal(
            serial.cold_start, np.arange(12) % 2 == 0
        )
        for other in (vectorized, compiled):
            np.testing.assert_array_equal(serial.cold_start, other.cold_start)
            np.testing.assert_array_equal(serial.instance_ids, other.instance_ids)
            np.testing.assert_array_equal(
                serial.init_duration_ms, other.init_duration_ms
            )

    def test_solve_cold_recurrence_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            abs_mask = rng.random(n) < 0.3
            abs_mask[0] = True
            abs_vals = rng.random(n) < 0.5
            flip = (rng.random(n) < 0.4) & ~abs_mask
            expected = np.empty(n, dtype=bool)
            for i in range(n):
                if abs_mask[i]:
                    expected[i] = abs_vals[i]
                else:
                    expected[i] = expected[i - 1] ^ flip[i]
            np.testing.assert_array_equal(
                grouped_mod.solve_cold_recurrence(abs_mask, abs_vals, flip), expected
            )


class TestFloat32Mode:
    """Opt-in single-precision compute: statistical parity, dtype plumbing."""

    def _windows(self, **knobs):
        functions = _functions(16, seed=5, prefix="f32")
        traffic = [
            DiurnalTraffic(mean_rate_rps=0.02, amplitude=0.5, phase_s=500.0 * i)
            for i in range(len(functions))
        ]
        simulator = FleetSimulator(
            functions,
            traffic,
            FleetConfig(window_s=3600.0, seed=13, fused=True, **knobs),
        )
        return [simulator.run_window() for _ in range(3)]

    def test_float32_statistical_parity(self):
        base = self._windows(backend="compiled")
        f32 = self._windows(backend="compiled", dtype="float32")
        for wa, wb in zip(base, f32):
            np.testing.assert_array_equal(wa.active, wb.active)
            np.testing.assert_array_equal(wa.n_arrivals, wb.n_arrivals)
            a = np.asarray(wa.stats, dtype=np.float64)
            b = np.asarray(wb.stats, dtype=np.float64)
            mask = np.abs(a) > 1e-9
            rel = np.abs(a[mask] - b[mask]) / np.abs(a[mask])
            # single-precision arithmetic: per-cell agreement at ~1e-6
            assert float(np.quantile(rel, 0.99)) < 1e-4

    def test_float32_requires_compiled(self):
        with pytest.raises(ConfigurationError, match="float32"):
            get_backend("vectorized", dtype="float32")
        with pytest.raises(ConfigurationError, match="float32"):
            get_backend("serial", dtype="float32")
        assert get_backend("compiled", dtype="float32").dtype == "float32"

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ConfigurationError, match="dtype"):
            get_backend("compiled", dtype="float16")
        with pytest.raises(ConfigurationError, match="dtype"):
            FleetConfig(window_s=3600.0, dtype="float16")


class TestPooledNoise:
    """Opt-in pooled noise stream: statistical parity, config coupling."""

    def _windows(self, **knobs):
        functions = _functions(16, seed=5, prefix="pool")
        traffic = [
            DiurnalTraffic(mean_rate_rps=0.02, amplitude=0.5, phase_s=500.0 * i)
            for i in range(len(functions))
        ]
        simulator = FleetSimulator(
            functions,
            traffic,
            FleetConfig(window_s=3600.0, seed=13, fused=True, **knobs),
        )
        return [simulator.run_window() for _ in range(3)]

    def test_pooled_statistical_parity(self):
        base = self._windows(backend="compiled")
        pooled = self._windows(backend="compiled", noise="pooled")
        for wa, wb in zip(base, pooled):
            # arrivals are drawn from the traffic streams, not the noise
            # streams: pooling must leave them untouched
            np.testing.assert_array_equal(wa.active, wb.active)
            np.testing.assert_array_equal(wa.n_arrivals, wb.n_arrivals)
        a = np.mean([np.asarray(w.stats, dtype=np.float64).mean() for w in base])
        b = np.mean([np.asarray(w.stats, dtype=np.float64).mean() for w in pooled])
        assert abs(a - b) / abs(a) < 0.05

    def test_default_stays_bit_exact_per_group(self):
        # the pooled mode is opt-in: a default-config compiled simulator
        # must still match vectorized bit for bit (regression guard for the
        # draw-order contract)
        functions = _functions(6, seed=9, prefix="defg")
        traffic = [ConstantTraffic(rate_rps=0.01)] * len(functions)
        runs = {}
        for backend in ("vectorized", "compiled"):
            simulator = FleetSimulator(
                functions,
                traffic,
                FleetConfig(window_s=3600.0, seed=21, fused=True, backend=backend),
            )
            runs[backend] = [simulator.run_window() for _ in range(2)]
        for a, b in zip(runs["vectorized"], runs["compiled"]):
            assert_windows_equal(a, b)

    def test_pooled_requires_compiled_and_fused(self):
        with pytest.raises(ConfigurationError, match="pooled"):
            get_backend("vectorized", noise="pooled")
        with pytest.raises(ConfigurationError, match="fused"):
            FleetConfig(window_s=3600.0, noise="pooled", fused=False, backend="compiled")
        with pytest.raises(ConfigurationError, match="window_shard_size"):
            FleetConfig(
                window_s=3600.0, noise="pooled", backend="compiled",
                window_shard_size=8,
            )
        with pytest.raises(ConfigurationError, match="noise"):
            get_backend("compiled", noise="per-request")


class TestNumbaFallback:
    """Present, broken or absent numba must never change results."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        had = sys.modules.pop("numba", None)
        compiled_mod._reset_numba_kernels()
        yield
        if had is not None:
            sys.modules["numba"] = had
        else:
            sys.modules.pop("numba", None)
        compiled_mod._reset_numba_kernels()

    def _windows(self):
        functions = _functions(8, seed=3, prefix="nb")
        traffic = [
            BurstyTraffic(
                base_rate_rps=0.004, burst_rate_rps=0.3,
                burst_every_s=1800.0, burst_duration_s=120.0, burst_seed=i,
            )
            for i in range(len(functions))
        ]
        simulator = FleetSimulator(
            functions,
            traffic,
            FleetConfig(window_s=3600.0, seed=9, fused=True, backend="compiled"),
        )
        return [simulator.run_window() for _ in range(2)]

    def test_without_numba_pure_numpy(self):
        backend = CompiledBackend()
        assert not backend.uses_numba
        assert backend.warmup() == 0.0

    def test_with_monkeypatched_numba_same_results(self):
        base = self._windows()
        fake = types.ModuleType("numba")
        fake.njit = lambda f=None, **kw: f if f is not None else (lambda g: g)
        sys.modules["numba"] = fake
        compiled_mod._reset_numba_kernels()
        backend = CompiledBackend()
        assert backend.uses_numba
        assert backend.warmup() >= 0.0
        for a, b in zip(base, self._windows()):
            assert_windows_equal(a, b)

    def test_broken_numba_degrades_gracefully(self):
        class Broken(types.ModuleType):
            def __getattr__(self, name):
                raise ImportError("broken install")

        sys.modules["numba"] = Broken("numba")
        compiled_mod._reset_numba_kernels()
        assert not CompiledBackend().uses_numba


class TestRegistryErrorPaths:
    """Satellite: registry error paths and name stability."""

    def test_unknown_backend_lists_available_names(self):
        with pytest.raises(ConfigurationError, match="compiled"):
            get_backend("gpu")

    def test_compiled_registered_and_sorted(self):
        names = available_backends()
        assert "compiled" in names
        assert names == sorted(names)
        # stable across calls (no registration side effects)
        assert available_backends() == names

    def test_compiled_resolves_with_and_without_numba(self):
        had = sys.modules.pop("numba", None)
        try:
            compiled_mod._reset_numba_kernels()
            assert isinstance(get_backend("compiled"), CompiledBackend)
            fake = types.ModuleType("numba")
            fake.njit = lambda f=None, **kw: f if f is not None else (lambda g: g)
            sys.modules["numba"] = fake
            compiled_mod._reset_numba_kernels()
            assert isinstance(get_backend("compiled"), CompiledBackend)
        finally:
            if had is not None:
                sys.modules["numba"] = had
            else:
                sys.modules.pop("numba", None)
            compiled_mod._reset_numba_kernels()
