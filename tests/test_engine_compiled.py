"""Parity tests for the kernelized grouped executor.

``VectorizedBackend.run_grouped`` is the one fast path for grouped
execution: a cross-group instance walk, a gather-based temporary-free
metric kernel and raw per-group noise draws, and
``VectorizedBackend.run_batch`` is the same kernel called with one group.
The looped reference — ``ExecutionBackend.run_grouped``, one ``run_batch``
per group — is therefore one kernel call per group, so the suites that
compare against it check grouping invariance: one call for all groups
equals one call per group in every stat, cold-start flag, instance id and
the platform pool state, across warm-pool carryover, resizes,
duplicate-name batches, fresh pools and overlapping (unsafe) arrivals.  The
kernel's semantics are checked against independent references: the scalar
``walk_instances`` replayed on a twin platform (noisy execution), and the
``serial`` scalar oracle with noise disabled.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetConfig, FleetSimulator
from repro.simulation.coldstart import ColdStartModel
from repro.simulation.engine import (
    ExecutionBackend,
    GroupRequest,
    VectorizedBackend,
    available_backends,
    get_backend,
)
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


class LoopedVectorizedBackend(VectorizedBackend):
    """The looped reference: one ``run_batch`` per group, no grouped kernel."""

    run_grouped = ExecutionBackend.run_grouped


def _backend(name):
    """Resolve a registered backend name or ``"looped"`` (the reference)."""
    return LoopedVectorizedBackend() if name == "looped" else get_backend(name)


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
    """Kernel fleet windows equal the looped ``run_batch`` reference, per traffic model."""

    @pytest.mark.parametrize("model_name", sorted(TRAFFIC_FACTORIES))
    def test_compiled_equals_vectorized(self, model_name):
        factory = TRAFFIC_FACTORIES[model_name]
        functions = _functions(12, seed=31, prefix=f"cfleet-{model_name}")
        traffic = [factory(i) for i in range(len(functions))]

        def run(backend_name):
            simulator = FleetSimulator(
                functions, traffic, FleetConfig(window_s=3600.0, seed=17)
            )
            simulator.backend = _backend(backend_name)
            windows = [simulator.run_window() for _ in range(2)]
            simulator.resize(0, 1024)  # warm pools drop for fn 0 only
            windows.append(simulator.run_window())
            return windows

        for kernel_window, looped_window in zip(run("vectorized"), run("looped")):
            assert_windows_equal(kernel_window, looped_window)


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

    def _run(self, backend_name, noise_free=False):
        funcs = _functions(6, seed=7, prefix="edge")
        if noise_free:
            platform = ServerlessPlatform.noise_free(seed=23)
            platform.cold_start_model = ColdStartModel(noise_cv=0.0)
        else:
            platform = ServerlessPlatform(PlatformConfig(seed=23))
        for f in funcs:
            platform.deploy(f.name, f.profile, 512)
        backend = _backend(backend_name)
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

    @staticmethod
    def _pools(platform, funcs):
        return {
            f.name: [
                (i.instance_id, i.created_at_s, i.busy_until_s, i.last_used_s, i.invocations)
                for i in platform._instances[f.name]
            ]
            for f in funcs
        }

    def test_batches_and_pool_state_bit_identical(self):
        pa, funcs, a1, a2 = self._run("vectorized")
        pb, _, b1, b2 = self._run("looped")
        for a, b in ((a1, b1), (a2, b2)):
            (blk_a, cnt_a), (blk_b, cnt_b) = a.aggregate_stats(), b.aggregate_stats()
            np.testing.assert_array_equal(blk_a, blk_b)
            np.testing.assert_array_equal(cnt_a, cnt_b)
            np.testing.assert_array_equal(a.cold_start, b.cold_start)
            np.testing.assert_array_equal(a.instance_ids, b.instance_ids)
            np.testing.assert_array_equal(a.init_duration_ms, b.init_duration_ms)
            np.testing.assert_allclose(a.cost_usd, b.cost_usd, rtol=1e-12)
        assert pa._next_instance_id == pb._next_instance_id
        assert self._pools(pa, funcs) == self._pools(pb, funcs)
        for f in funcs:
            assert (
                pa._functions[f.name].invocation_count
                == pb._functions[f.name].invocation_count
            )

    def test_serial_oracle_agrees_noise_free(self):
        pa, _, a1, a2 = self._run("vectorized", noise_free=True)
        pb, _, b1, b2 = self._run("serial", noise_free=True)
        for a, b in ((a1, b1), (a2, b2)):
            np.testing.assert_array_equal(a.cold_start, b.cold_start)
            np.testing.assert_array_equal(a.instance_ids, b.instance_ids)
            (blk_a, cnt_a), (blk_b, cnt_b) = a.aggregate_stats(), b.aggregate_stats()
            np.testing.assert_array_equal(cnt_a, cnt_b)
            # Scalar vs vectorized arithmetic: equal up to summation order.
            np.testing.assert_allclose(blk_a, blk_b, rtol=1e-9, atol=1e-12)
        assert pa._next_instance_id == pb._next_instance_id


class TestKernelWalkEqualsScalarWalk:
    """The kernel's instance walk equals the scalar per-arrival walk.

    A walk defect shared by both schedules would pass the looped reference,
    so every noisy kernel batch is replayed through ``walk_instances`` (the
    platform's own acquisition logic, one arrival at a time) on a twin
    platform, with the kernel's execution times.  Cold-start noise is off,
    so init durations are exact.
    """

    @pytest.mark.parametrize("keep_alive_s", [600.0, 250.0, 0.3])
    def test_noisy_batches_match_scalar_walk(self, keep_alive_s):
        def make_platform():
            return ServerlessPlatform(
                config=PlatformConfig(seed=3),
                cold_start_model=ColdStartModel(keep_alive_s=keep_alive_s, noise_cv=0.0),
            )

        kernel, scalar = make_platform(), make_platform()
        funcs = _functions(4, seed=19, prefix="walk")
        for platform in (kernel, scalar):
            for f in funcs:
                platform.deploy(f.name, f.profile, 512)
        backend = VectorizedBackend()
        rs = np.random.default_rng(7)
        n_cold = 0
        for b in range(32):
            # The last function only sees idle runs, so its pool stays one
            # instance and the kernel resolves it without the walk_group
            # fallback.
            f = funcs[3] if b % 4 == 3 else funcs[int(rs.integers(3))]
            if b == 16:
                for platform in (kernel, scalar):
                    platform.set_memory_size(f.name, 1024)  # drops the warm pool
            n = int(rs.integers(1, 80))
            start = 100.0 * b
            arrivals = (
                np.sort(rs.uniform(start, start + 3.0, n)),  # overlapping
                np.sort(rs.uniform(start, start + 100.0, n)),  # dense enough to queue
                start + np.cumsum(rs.exponential(0.4, n)),  # gaps near a short keep-alive
                start + 20.0 * np.arange(n % 5 + 1),  # idle single-server run
            )[b % 4]
            result = kernel.invoke_batch(
                f.name, arrivals, backend=backend, rng=np.random.default_rng(b)
            )
            memory_mb = scalar.get_function(f.name).memory_mb
            init_ms = scalar.cold_start_model.duration_ms(
                memory_mb,
                f.profile.code_size_kb,
                scalar.execution_model.scaling.cpu_share(memory_mb),
            )
            cold, init, ids = grouped_mod.walk_instances(
                scalar, f.name, memory_mb, arrivals, result.execution_time_ms,
                init_ms, None,
            )
            np.testing.assert_array_equal(result.cold_start, cold)
            np.testing.assert_array_equal(result.init_duration_ms, init)
            np.testing.assert_array_equal(result.instance_ids, ids)
            n_cold += int(cold.sum())
        assert 0 < n_cold
        assert kernel._next_instance_id == scalar._next_instance_id
        assert TestGroupedEdgeParity._pools(kernel, funcs) == TestGroupedEdgeParity._pools(
            scalar, funcs
        )


class TestDisagreementPath:
    """The vectorized cold-chain recurrence on warm/cold expiry disagreements.

    A disagreement pair is one where the warm-case idle time exceeds the
    keep-alive but the cold-case idle time does not — the run state at the
    pair's right arrival then depends on the left arrival's own (recursive)
    state.  With noise disabled the execution/init durations are exact, so
    the geometry below provably produces such pairs, and the resolved chains
    must agree bit for bit across the serial oracle, the grouped kernel and
    the looped ``run_batch`` reference.
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
            return _backend(backend).run_grouped(platform, [request])

        serial = run("serial")
        kernel = run("vectorized")
        looped = run("looped")
        # the disagreement branch must actually fire: runs re-warm behind
        # cold starts, so the chain is neither all-cold nor all-warm
        np.testing.assert_array_equal(
            serial.cold_start, np.arange(12) % 2 == 0
        )
        for other in (kernel, looped):
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


class TestRegistryErrorPaths:
    """Satellite: registry error paths and name stability."""

    def test_unknown_backend_lists_available_names(self):
        with pytest.raises(ConfigurationError, match="vectorized"):
            get_backend("gpu")

    def test_only_serial_and_vectorized_registered(self):
        assert available_backends() == ["serial", "vectorized"]
        # stable across calls (no registration side effects)
        assert available_backends() == ["serial", "vectorized"]

    @pytest.mark.parametrize("name", ["compiled", "parallel"])
    def test_removed_backends_rejected(self, name):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            get_backend(name)
