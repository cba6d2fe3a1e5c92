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
            # dense overlapping arrivals: the lockstep walk
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
            # instance and the kernel resolves it in the flat pass.
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


    @staticmethod
    def _replay(scalar, requests, batch):
        """Replay a kernel call group by group through ``walk_instances``."""
        for g, request in enumerate(requests):
            name, memory_mb = request.function_name, request.memory_mb
            if request.fresh_pool:
                scalar._instances[name] = []
            a, b = int(batch.offsets[g]), int(batch.offsets[g + 1])
            profile = request.deployment.profile
            init_ms = scalar.cold_start_model.duration_ms(
                memory_mb,
                profile.code_size_kb,
                scalar.execution_model.scaling.cpu_share(memory_mb),
            )
            cold, init, ids = grouped_mod.walk_instances(
                scalar, name, memory_mb, request.arrivals,
                batch.execution_time_ms[a:b], init_ms, None,
            )
            np.testing.assert_array_equal(batch.cold_start[a:b], cold)
            np.testing.assert_array_equal(batch.init_duration_ms[a:b], init)
            np.testing.assert_array_equal(batch.instance_ids[a:b], ids)

    @pytest.mark.parametrize("max_instances", [2, 3, 1000])
    def test_mixed_calls_match_scalar_walk(self, max_instances, monkeypatch):
        """Flat, lockstep, repeated and fresh groups in one call; pools carry over.

        Every call mixes sparse idle runs (flat pass), heavy overlap (the
        lockstep walk; at a low instance limit it queues), a second and
        third occurrence of a non-fresh name (each starts a new segment of
        the walk), a fresh duplicate and an empty group.  Calls follow each
        other closely, so multi-instance pools, some still busy, carry into
        the next call.
        """
        from repro.simulation.engine import vectorized as vectorized_mod

        walked = []
        walk = vectorized_mod._lockstep_walk

        def spy(block, members, *args):
            walked.append(len(members))
            return walk(block, members, *args)

        monkeypatch.setattr(vectorized_mod, "_lockstep_walk", spy)

        def make_platform():
            return ServerlessPlatform(
                config=PlatformConfig(seed=5, max_instances_per_function=max_instances),
                cold_start_model=ColdStartModel(keep_alive_s=4.0, noise_cv=0.0),
            )

        kernel, scalar = make_platform(), make_platform()
        funcs = _functions(6, seed=23, prefix="mix")
        for platform in (kernel, scalar):
            for f in funcs:
                platform.deploy(f.name, f.profile, 256)
        backend = VectorizedBackend()
        rs = np.random.default_rng(11)
        max_pool = n_groups = 0
        streams = iter(range(10**6))

        def req(f, arrivals, fresh=False):
            request = GroupRequest.for_deployed(
                kernel, f.name, arrivals, np.random.default_rng(next(streams))
            )
            return replace(request, fresh_pool=fresh)

        for call in range(12):
            start = 6.0 * call

            def burst(lo, hi, n_lo, n_hi):
                n = int(rs.integers(n_lo, n_hi))
                return np.sort(rs.uniform(start + lo, start + hi, n))

            requests = [
                req(funcs[0], burst(0.0, 0.5, 20, 60)),
                req(funcs[1], start + 30.0 * np.arange(int(rs.integers(1, 6)))),
                req(funcs[0], burst(0.5, 1.5, 1, 30)),
                req(funcs[2], np.array([])),
                req(funcs[3], burst(0.0, 2.0, 5, 40)),
                req(funcs[0], burst(1.5, 5.0, 0, 20)),
                req(funcs[3], burst(0.0, 0.2, 2, 9), True),
                req(funcs[4], start + np.cumsum(rs.exponential(0.3, int(rs.integers(1, 40))))),
                # a flat-eligible idle run repeating an earlier one
                req(funcs[1], start + 4.0 + 30.0 * np.arange(int(rs.integers(1, 3)))),
                req(funcs[5], start + 30.0 * np.arange(int(rs.integers(1, 6)))),
            ]
            batch = backend.run_grouped(kernel, requests)
            self._replay(scalar, requests, batch)
            assert kernel._next_instance_id == scalar._next_instance_id
            pools = TestGroupedEdgeParity._pools(kernel, funcs)
            assert pools == TestGroupedEdgeParity._pools(scalar, funcs)
            max_pool = max(max_pool, *(len(p) for p in pools.values()))
            n_groups += sum(r.arrivals.shape[0] > 0 for r in requests)
        # Both walks ran (every call has several segments), and pools
        # reached but never exceeded the limit.
        assert len(walked) >= 2 * 12
        assert sum(walked) < n_groups
        assert 2 <= max_pool <= max_instances
        if max_instances < 1000:
            assert max_pool == max_instances

    def test_boundary_arrivals_match_scalar_walk(self):
        """Arrivals placed exactly on (or just inside) the walk's boundaries.

        Noise-free execution times are fixed per function, so arrivals can
        land exactly when a worker frees up, exactly one keep-alive after a
        worker's last use, half a millisecond before a worker frees up, and
        just before a carried-over worker's busy time.  Every comparison
        of the walk is decided at its boundary here.
        """
        keep_alive = 2.0  # a power of two: (b + 2.0) - b == 2.0 exactly

        def make_platform():
            platform = ServerlessPlatform.noise_free(seed=1)
            platform.cold_start_model = ColdStartModel(keep_alive_s=keep_alive, noise_cv=0.0)
            return platform

        kernel, scalar = make_platform(), make_platform()
        # Managed-service latencies stay random without noise: no service calls.
        funcs = [f for f in _functions(40, seed=31, prefix="edge") if not f.profile.service_calls]
        funcs = funcs[:3]
        for platform in (kernel, scalar):
            for f in funcs:
                platform.deploy(f.name, f.profile, 512)
        backend = VectorizedBackend()
        probe = make_platform()
        exec_s, init_s = [], []
        for f in funcs:
            probe.deploy(f.name, f.profile, 512)
            exec_ms = probe.invoke_batch(f.name, [1.0], backend=backend).execution_time_ms[0]
            init_ms = probe.cold_start_model.duration_ms(
                512.0, f.profile.code_size_kb, probe.execution_model.scaling.cpu_share(512.0)
            )
            exec_s.append(exec_ms)
            init_s.append(init_ms)

        def call(groups):
            requests = [
                replace(
                    GroupRequest.for_deployed(
                        kernel, funcs[i].name, np.asarray(arrivals), np.random.default_rng(i)
                    ),
                    fresh_pool=fresh,
                )
                for i, arrivals, fresh in groups
            ]
            batch = backend.run_grouped(kernel, requests)
            np.testing.assert_array_equal(
                batch.execution_time_ms, np.repeat(
                    [exec_s[i] for i, _, _ in groups], np.diff(batch.offsets)
                ),
            )
            self._replay(scalar, requests, batch)
            assert kernel._next_instance_id == scalar._next_instance_id
            assert TestGroupedEdgeParity._pools(kernel, funcs) == TestGroupedEdgeParity._pools(
                scalar, funcs
            )
            return batch

        s0 = 10.0
        b0 = s0 + (exec_s[0] + init_s[0]) / 1000.0  # worker 1 frees up
        b2 = b0 + (exec_s[0] + 0.0) / 1000.0  # worker 1 again, after a warm run
        assert (b2 + keep_alive) - b2 == keep_alive
        near = s0 + (exec_s[1] + init_s[1]) / 1000.0 - 0.0005
        first = call(
            [
                # overlap, then exactly free, then idle exactly one keep-alive
                (0, [s0, s0 + 0.0001, b0, b2 + keep_alive], True),
                # one pair overlapping by half a millisecond
                (1, [s0, near], True),
                (2, [s0], True),
            ]
        )
        assert first.cold_start.tolist() == [True, True, False, False, True, True, True]
        carried = scalar._instances[funcs[2].name][0].busy_until_s
        multi = scalar._instances[funcs[0].name][0].busy_until_s
        second = call(
            [
                # the carried single worker is still busy for half a millisecond
                (2, [carried - 0.0005, carried + 30.0], False),
                # exactly when the carried multi-worker pool's first worker frees up
                (0, [multi], False),
            ]
        )
        assert second.cold_start.tolist() == [True, True, False]

    def test_queue_at_limit_matches_scalar_walk(self):
        """Single-group batches far over a limit of two instances queue."""
        def make_platform():
            return ServerlessPlatform(
                config=PlatformConfig(seed=2, max_instances_per_function=2),
                cold_start_model=ColdStartModel(keep_alive_s=30.0, noise_cv=0.0),
            )

        kernel, scalar = make_platform(), make_platform()
        funcs = _functions(2, seed=29, prefix="queue")
        for platform in (kernel, scalar):
            for f in funcs:
                platform.deploy(f.name, f.profile, 128)
        backend = VectorizedBackend()
        rs = np.random.default_rng(13)
        for b in range(10):
            f = funcs[b % 2]
            arrivals = np.sort(rs.uniform(10.0 * b, 10.0 * b + 0.3, int(rs.integers(5, 80))))
            request = GroupRequest.for_deployed(
                kernel, f.name, arrivals, np.random.default_rng(b)
            )
            batch = backend.run_grouped(kernel, [request])
            self._replay(scalar, [request], batch)
            assert len(set(batch.instance_ids.tolist())) <= 2
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
