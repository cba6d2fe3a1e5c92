"""Numpy-vectorized execution backend: the one fast path.

:meth:`VectorizedBackend.run_grouped` executes many (function, size) groups
as one columnar mega-batch — the fleet-window and dataset-generation hot
path — and :meth:`VectorizedBackend.run_batch` is the same kernel called
with one group.  Timing noise, resource scaling, managed service latencies,
all 25 monitor metrics and billing are numpy array operations; only the
cold-start/instance bookkeeping keeps a (cheap, arithmetic-only) sequential
fallback, because whether invocation ``i`` cold-starts depends on how long
earlier invocations kept their workers busy.  The kernel runs three passes:

1. **Raw noise draws** — per group, only the raw generator calls run
   (``lognormal``/``standard_normal``/``random``/``normal``/``lognormal``
   for cpu, service, tail, counter jitter and cold-start noise, in that
   stream order); all post-draw arithmetic (tail thresholding, jitter
   clamping, the service latency row math) runs batched over the
   concatenated draws, which is bit-identical because the ops are
   elementwise or row-local.

2. **Temporary-free fused metric kernel** — the group-level subexpressions
   of the timing model and the Table-1 formulas are evaluated once per group
   and gathered by group id through reusable scratch buffers
   (:meth:`~repro.simulation.runtime.NodeRuntimeModel.metrics_batch_grouped`).

3. **Cross-group instance walk** — the single-server-run classification of
   :func:`~repro.simulation.engine.grouped.walk_group` evaluated once over
   the flat group-major columns: pair completion/idle arrays, expiry masks
   and the cold-chain recurrence
   (:func:`~repro.simulation.engine.grouped.solve_cold_recurrence`, with
   every group head as an absolute anchor) are computed for *all* groups in
   one pass; per-group segmented reductions recover cold counts, instance
   ids and end-pool state.  A vectorized safety test decides per group
   whether the whole group is one idle single-server run (the sparse-traffic
   regime); unsafe groups — busy or multi-instance pools, overlapping
   arrivals, duplicate non-fresh names — fall back to the per-group hybrid
   ``walk_group``.

Every group draws its noise from its own request stream, so a mega-batch is
bit-identical to running its groups one kernel call at a time (the looped
reference,
:meth:`~repro.simulation.engine.base.ExecutionBackend.run_grouped`).  With
every noise source disabled both agree invocation for invocation with the
serial backend (see ``tests/test_engine_backends.py`` and
``tests/test_engine_grouped.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.simulation.engine.base import BatchResult, ExecutionBackend, register_backend
from repro.simulation.engine.grouped import (
    GroupedBatch,
    GroupRequest,
    _param_column,
    _worker_instance_cls,
    solve_cold_recurrence,
    validate_group_timestamps,
    walk_group,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simulation.platform import ServerlessPlatform


def _classify_pairs(t, exec_ms, init_worst, gid, keep_alive):
    """Classify every adjacent arrival pair of the flat group-major columns.

    For each pair ``(k, k+1)``: whether a *warm* (respectively *cold*)
    invocation at ``k`` leaves the worker expired at ``k+1``, whether ``k+1``
    could reach a still-busy worker even after a worst-case cold start at
    ``k`` (the unsafe-overlap test of ``walk_group``), and whether the pair
    lies inside one group.  Same float expressions as ``walk_group``, so the
    masks are bit-identical to its per-group arrays.
    """
    completion = t + (exec_ms + init_worst) / 1000.0
    warm_base = t + exec_ms / 1000.0
    warm_expired = (t[1:] - warm_base[:-1]) > keep_alive
    cold_expired = (t[1:] - completion[:-1]) > keep_alive
    unsafe = t[1:] < completion[:-1]
    internal = gid[1:] == gid[:-1]
    return warm_expired, cold_expired, unsafe, internal


@register_backend
class VectorizedBackend(ExecutionBackend):
    """Executes arrival batches and grouped mega-batches as numpy array ops."""

    name = "vectorized"

    def __init__(self) -> None:
        self._scratch: dict[str, np.ndarray] = {}
        self._column_cache: dict[str, tuple] = {}

    def run_batch(
        self,
        platform,
        function_name: str,
        arrivals: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> BatchResult:
        """Execute one sorted arrival batch of a deployed function.

        Parameters
        ----------
        platform:
            The platform the function is deployed on.
        function_name:
            Name of the deployed function.
        arrivals:
            Sorted arrival timestamps (seconds).
        rng:
            Optional group-private noise stream
            (:mod:`repro.simulation.seeding`); defaults to the platform's
            shared generator.

        The batch runs as a one-group :meth:`run_grouped` against the
        function's current deployment, keeping its warm pool; billing happens
        once, inside the kernel.
        """
        request = GroupRequest.for_deployed(
            platform, function_name, arrivals, rng if rng is not None else platform.rng
        )
        # Called unbound: a subclass that overrides run_grouped with the
        # looped reference (one run_batch per group) would otherwise recurse.
        return VectorizedBackend.run_grouped(self, platform, [request]).group(0)

    def _buffer(self, key: str, n: int) -> np.ndarray:
        """A reusable ``float64`` scratch buffer of at least ``n`` elements (view)."""
        buf = self._scratch.get(key)
        if buf is None or buf.shape[0] < n:
            capacity = n if buf is None else max(n, 2 * buf.shape[0])
            buf = np.empty(capacity)
            self._scratch[key] = buf
        return buf[:n]

    def run_grouped(
        self, platform: "ServerlessPlatform", requests: list[GroupRequest]
    ) -> GroupedBatch:
        """Execute many groups through the kernel pipeline (see module doc)."""
        from repro.simulation.execution import _HANDLER_OVERHEAD_MS
        from repro.simulation.runtime import RuntimeBatchInputs

        if not requests:
            raise SimulationError("run_grouped needs at least one group request")
        model = platform.execution_model
        variability = model.variability
        cold_model = platform.cold_start_model
        runtime = model.runtime
        services = model.services

        n_groups = len(requests)
        sizes_l: list[int] = []
        cols_l: list[np.ndarray] = []
        # Param columns are cached per deployment identity (resize redeploys
        # under the same name with a new object, so the identity check keeps
        # the cache coherent without hashing the full parameter key).
        column_cache = self._column_cache

        # Hoisted noise-distribution parameters: the per-group loop below
        # only issues raw generator calls, in a fixed stream order (cpu,
        # service, tail, jitters, cold), so each group's draws do not depend
        # on its batch-mates; all post-draw arithmetic runs batched.
        cpu_cv = variability.cpu_noise_cv
        cpu_mu, cpu_sigma = variability.lognormal_params(cpu_cv)
        tail_p = float(variability.tail_probability)
        tail_mult = float(variability.tail_multiplier)
        counter_cv = variability.counter_noise_cv
        draw_cold = cold_model.noise_cv > 0
        cold_mu, cold_sigma = cold_model.noise_params()
        batch_rows = services.batch_rows

        cpu_parts: list[np.ndarray] = []
        tail_parts: list[np.ndarray] = []
        jitter_parts: list[np.ndarray] = []
        cold_parts: list[np.ndarray] = []
        # Service-latency draws are grouped by distinct call tuple so the row
        # arithmetic (exp / row sums) runs once per distinct profile shape.
        key_index: dict = {}
        key_rows: list[tuple] = []
        key_blocks: list[list] = []  # per key: [(group, z-draws), ...]
        group_fixed_l: list[float] = []

        # Per-group pool scan for the cross-group walk: the walk kernel only
        # handles groups whose pool is empty or one idle instance; everything
        # else (and duplicate non-fresh names, whose pool state depends on
        # earlier groups in this very batch) falls back to walk_group.
        instances_map = platform._instances
        pool_rows: list[tuple] = []  # (empty, single?, busy, last, id, forced)
        singles: list = []
        seen_names: set[str] = set()

        for g, request in enumerate(requests):
            arrivals = request.arrivals
            n = arrivals.shape[0]
            sizes_l.append(n)
            deployment = request.deployment
            profile = deployment.profile
            name = deployment.name
            cached = column_cache.get(name)
            if cached is not None and cached[0] is deployment:
                col = cached[1]
            else:
                col = _param_column(
                    profile, float(deployment.memory_mb), model, cold_model
                )
                column_cache[name] = (deployment, col)
            cols_l.append(col)

            calls = profile.service_calls
            k = key_index.get(calls)
            if k is None:
                k = len(key_rows)
                key_index[calls] = k
                key_rows.append(batch_rows(calls))
                key_blocks.append([])
            rows = key_rows[k]
            group_fixed_l.append(rows[0])
            rng = request.rng
            if cpu_cv > 0:
                cpu_parts.append(rng.lognormal(cpu_mu, cpu_sigma, n))
            if rows[1] is not None:
                key_blocks[k].append((g, rng.standard_normal((n, rows[1].shape[0]))))
            if tail_p > 0:
                tail_parts.append(rng.random(n))
            if counter_cv > 0:
                jitter_parts.append(rng.normal(1.0, counter_cv, (13, n)))
            if draw_cold:
                cold_parts.append(rng.lognormal(cold_mu, cold_sigma, n))

            fresh = request.fresh_pool
            pool = () if fresh else instances_map.get(name, ())
            if len(pool) == 1:
                single = pool[0]
                pool_rows.append(
                    (
                        False,
                        True,
                        single.busy_until_s,
                        single.last_used_s,
                        single.instance_id,
                        not fresh and name in seen_names,
                    )
                )
            else:
                single = None
                pool_rows.append(
                    (not pool, False, 0.0, 0.0, 0, not fresh and name in seen_names)
                )
            singles.append(single)
            seen_names.add(name)

        sizes = np.asarray(sizes_l, dtype=np.int64)
        columns = np.stack(cols_l, axis=1)
        group_fixed = np.asarray(group_fixed_l)
        offsets = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        n_total = int(offsets[-1])
        timestamps = np.concatenate([r.arrivals for r in requests])
        validate_group_timestamps(timestamps, offsets, requests)
        gid = np.repeat(np.arange(n_groups), sizes)

        # ---- batched noise post-processing --------------------------------
        cpu_noise = np.concatenate(cpu_parts) if cpu_cv > 0 else np.ones(n_total)
        tail = (
            np.where(np.concatenate(tail_parts) < tail_p, tail_mult, 1.0)
            if tail_p > 0
            else np.ones(n_total)
        )
        if counter_cv > 0:
            jitters = np.hstack(jitter_parts)
            np.maximum(jitters, 0.5, out=jitters)
        else:
            jitters = np.ones((13, n_total))
        cold_noise = np.concatenate(cold_parts) if draw_cold else None
        service_ms = np.take(group_fixed, gid)
        for k, blocks in enumerate(key_blocks):
            if not blocks:
                continue
            _, mean_row, sigma_row = key_rows[k]
            bg_t, zb_t = zip(*blocks)
            z = np.concatenate(zb_t, axis=0) if len(blocks) > 1 else zb_t[0]
            factors = np.exp(-0.5 * sigma_row * sigma_row + sigma_row * z)
            sums = (mean_row * factors).sum(axis=1)
            # Scatter back as one fancy-index add: every block is a disjoint
            # contiguous slice of ``service_ms``, so the concatenated aranges
            # of the block slices address each element exactly once.
            bg = np.fromiter(bg_t, dtype=np.int64, count=len(blocks))
            reps = sizes[bg]
            stops = np.cumsum(reps)
            flat = (
                np.arange(int(stops[-1]), dtype=np.int64)
                - np.repeat(stops - reps, reps)
                + np.repeat(offsets[bg], reps)
            )
            service_ms[flat] += sums

        # ---- fused timing kernel (scratch in, bit-identical op order) -----
        drift = variability.drift_factors(timestamps)
        sg = self._buffer("gather", n_total)
        s_cpu = self._buffer("cpu", n_total)
        s_fs = self._buffer("fs", n_total)
        s_net = self._buffer("net", n_total)
        s_tf = self._buffer("factor", n_total)

        np.take(columns[0], gid, out=sg)
        np.multiply(sg, cpu_noise, out=s_cpu)
        np.take(columns[1], gid, out=sg)
        np.multiply(sg, cpu_noise, out=s_fs)
        np.take(columns[2], gid, out=sg)
        np.multiply(sg, cpu_noise, out=s_net)
        np.multiply(tail, drift, out=s_tf)
        np.multiply(s_cpu, s_tf, out=s_cpu)
        np.multiply(s_fs, s_tf, out=s_fs)
        np.multiply(s_net, s_tf, out=s_net)
        np.multiply(service_ms, s_tf, out=service_ms)
        np.add(s_cpu, s_fs, out=sg)
        np.add(sg, s_net, out=sg)
        np.add(sg, service_ms, out=sg)
        execution_time_ms = np.add(sg, _HANDLER_OVERHEAD_MS)

        metrics = runtime.metrics_batch_grouped(
            RuntimeBatchInputs(*columns[4:]),
            gid,
            cpu_ms=s_cpu,
            fs_ms=s_fs,
            network_ms=s_net,
            service_ms=service_ms,
            total_ms=execution_time_ms,
            jitters=jitters,
            scratch=(self._buffer("metric1", n_total), self._buffer("metric2", n_total)),
        )

        # ---- cross-group instance walk ------------------------------------
        cold_start, init_ms, instance_ids = self._walk_all_groups(
            platform,
            requests,
            offsets,
            sizes,
            gid,
            timestamps,
            execution_time_ms,
            columns,
            cold_noise,
            pool_rows=pool_rows,
            singles=singles,
        )

        billed_ms = platform.pricing_model.billed_duration_batch_ms(execution_time_ms)
        np.take(columns[4], gid, out=sg)
        cost_usd = platform.pricing_model.execution_cost_batch(execution_time_ms, sg)

        batch = GroupedBatch(
            function_names=tuple(r.function_name for r in requests),
            memory_mb=columns[4].copy(),
            offsets=offsets,
            timestamps_s=timestamps,
            execution_time_ms=execution_time_ms,
            init_duration_ms=init_ms,
            cold_start=cold_start,
            instance_ids=instance_ids,
            cost_usd=cost_usd,
            billed_duration_ms=billed_ms,
            metrics=metrics,
        )
        platform.bill(
            [r.deployment for r in requests], sizes_l, batch.cost_per_group().tolist()
        )
        return batch

    def _walk_all_groups(
        self,
        platform: "ServerlessPlatform",
        requests: list[GroupRequest],
        offsets: np.ndarray,
        sizes: np.ndarray,
        gid: np.ndarray,
        t: np.ndarray,
        exec_ms: np.ndarray,
        columns: np.ndarray,
        cold_noise: np.ndarray | None,
        pool_rows: list[tuple],
        singles: list,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One vectorized instance walk over all groups' flat columns.

        Safe groups (empty or idle single-instance pool, no overlapping
        arrival pairs, name not executed earlier in this batch) are resolved
        entirely from the flat pair masks; the rest run the per-group hybrid
        :func:`walk_group`, preserving bit-identity with the looped path.
        """
        n_groups = len(requests)
        n_total = int(offsets[-1])
        keep_alive = platform.cold_start_model.keep_alive_s

        cold_start = np.zeros(n_total, dtype=bool)
        init_ms = np.zeros(n_total)
        instance_ids = np.zeros(n_total, dtype=np.int64)

        pool_cols = tuple(zip(*pool_rows))
        pool_empty = np.asarray(pool_cols[0], dtype=bool)
        pool_single = np.asarray(pool_cols[1], dtype=bool)
        single_busy = np.asarray(pool_cols[2])
        single_last = np.asarray(pool_cols[3])
        single_ids = list(pool_cols[4])
        forced_unsafe = np.asarray(pool_cols[5], dtype=bool)

        nonempty = sizes > 0
        starts_ne = offsets[:-1][nonempty]
        ends_ne = offsets[1:][nonempty] - 1
        if n_total:
            first_t = np.where(
                nonempty, t[np.minimum(offsets[:-1], n_total - 1)], 0.0
            )
            if cold_noise is not None:
                init_worst = np.take(columns[3], gid) * cold_noise
            else:
                init_worst = np.take(columns[3], gid)
            warm_expired, cold_expired, unsafe_pair, internal = _classify_pairs(
                t, exec_ms, init_worst, gid, keep_alive
            )

            group_has_unsafe = np.zeros(n_groups, dtype=bool)
            group_has_unsafe[gid[1:][internal & unsafe_pair]] = True
            idle_start = pool_empty | (pool_single & (single_busy <= first_t))
            safe = nonempty & idle_start & ~group_has_unsafe & ~forced_unsafe
            head_cold = np.where(
                pool_empty,
                True,
                np.maximum(first_t - single_last, 0.0) > keep_alive,
            )

            # Resolve every group's cold chain in one pass: group heads are
            # absolute anchors, so anchors and flip parity never leak across
            # group boundaries (see solve_cold_recurrence).
            disagree = (warm_expired != cold_expired) & internal
            run_cold = np.empty(n_total, dtype=bool)
            run_cold[1:] = warm_expired
            run_cold[starts_ne] = head_cold[nonempty]
            if disagree.any():
                abs_mask = np.empty(n_total, dtype=bool)
                abs_mask[0] = True
                abs_mask[1:] = ~disagree
                abs_mask[starts_ne] = True
                flip = np.zeros(n_total, dtype=bool)
                flip[1:] = disagree & warm_expired
                flip[starts_ne] = False
                run_cold = solve_cold_recurrence(abs_mask, run_cold, flip)

            init_out = np.where(run_cold, init_worst, 0.0)
            cum = np.cumsum(run_cold)
            seg_base = np.where(offsets[:-1] > 0, cum[np.maximum(offsets[:-1] - 1, 0)], 0)
            seg = cum - np.take(seg_base, gid)

            idx = np.arange(n_total)
            pos_cold = np.where(run_cold, idx, -1)
            first_pos = np.where(run_cold, idx, n_total)
            n_cold_g = np.zeros(n_groups, dtype=np.int64)
            last_cold_g = np.full(n_groups, -1, dtype=np.int64)
            first_cold_g = np.full(n_groups, n_total, dtype=np.int64)
            busy_g = np.zeros(n_groups)
            created_g = np.zeros(n_groups)
            if starts_ne.shape[0]:
                n_cold_g[nonempty] = seg[ends_ne]
                last_cold_g[nonempty] = np.maximum.reduceat(pos_cold, starts_ne)
                first_cold_g[nonempty] = np.minimum.reduceat(first_pos, starts_ne)
                # End-pool busy time: same float expression as walk_group's
                # final busy_until update, vectorized over group tails.
                busy_g[nonempty] = (
                    t[ends_ne] + (exec_ms[ends_ne] + init_out[ends_ne]) / 1000.0
                )
                created_g[nonempty] = t[np.maximum(last_cold_g[nonempty], 0)]
            cold_start = run_cold
            init_ms = init_out
        else:
            safe = np.zeros(n_groups, dtype=bool)
            seg = np.zeros(0, dtype=np.int64)
            n_cold_g = last_cold_g = first_cold_g = np.zeros(n_groups, dtype=np.int64)
            busy_g = created_g = np.zeros(n_groups)

        # ---- sequential per-group bookkeeping (id order, pools, fallback) -
        worker_cls = _worker_instance_cls()
        instances_map = platform._instances
        off_l = offsets.tolist()
        safe_l = safe.tolist()
        n_cold_l = n_cold_g.tolist()
        last_cold_l = last_cold_g.tolist()
        first_cold_l = first_cold_g.tolist()
        busy_l = busy_g.tolist()
        created_l = created_g.tolist()
        mem_l = columns[4].tolist()
        next_id = platform._next_instance_id
        # All-safe fast path (the sparse-fleet steady state): instance ids
        # are the global running cold count — group g's block starts after
        # all earlier groups' cold starts, exactly the sequential id order —
        # so one vectorized select replaces the per-group id writes and the
        # remaining loop only touches pool objects.
        all_safe = n_total > 0 and bool(np.all(safe))
        if all_safe and not any(r.fresh_pool for r in requests):
            instance_ids = np.where(
                seg > 0,
                next_id + cum,
                np.take(np.asarray(single_ids, dtype=np.int64), gid),
            )
            cum_end_l = cum[ends_ne].tolist()
            for g, request in enumerate(requests):
                if n_cold_l[g]:
                    instance = worker_cls(
                        instance_id=next_id + cum_end_l[g],
                        memory_mb=mem_l[g],
                        created_at_s=created_l[g],
                        invocations=(off_l[g + 1] - 1) - last_cold_l[g] + 1,
                    )
                else:
                    instance = singles[g]
                    instance.invocations += off_l[g + 1] - off_l[g]
                instance.busy_until_s = busy_l[g]
                instance.last_used_s = busy_l[g]
                instances_map[request.deployment.name] = [instance]
            platform._next_instance_id = next_id + int(cum[-1])
            return cold_start, init_ms, instance_ids
        for g, request in enumerate(requests):
            a = off_l[g]
            b = off_l[g + 1]
            name = request.deployment.name
            if request.fresh_pool:
                instances_map[name] = []
            if a == b:
                continue
            if safe_l[g]:
                n_cold = n_cold_l[g]
                if n_cold:
                    instance_ids[a:b] = next_id + seg[a:b]
                    if first_cold_l[g] > a:  # warm head served by the old single
                        instance_ids[a : first_cold_l[g]] = single_ids[g]
                    next_id += n_cold
                    last_cold = last_cold_l[g]
                    instance = worker_cls(
                        instance_id=int(next_id),
                        memory_mb=mem_l[g],
                        created_at_s=created_l[g],
                        invocations=(b - 1) - last_cold + 1,
                    )
                else:
                    instance = singles[g]
                    instance.invocations += b - a
                    instance_ids[a:b] = instance.instance_id
                instance.busy_until_s = busy_l[g]
                instance.last_used_s = busy_l[g]
                instances_map[name][:] = [instance]
            else:
                platform._next_instance_id = next_id
                cold_g, init_g, ids_g = walk_group(
                    platform,
                    name,
                    mem_l[g],
                    request.arrivals,
                    exec_ms[a:b],
                    float(columns[3, g]),
                    cold_noise[a:b] if cold_noise is not None else None,
                )
                next_id = platform._next_instance_id
                cold_start[a:b] = cold_g
                init_ms[a:b] = init_g
                instance_ids[a:b] = ids_g
        platform._next_instance_id = next_id
        return cold_start, init_ms, instance_ids
