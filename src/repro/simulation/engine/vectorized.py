"""Numpy-vectorized execution backend: the one fast path.

:meth:`VectorizedBackend.run_grouped` executes many (function, size) groups
as one columnar mega-batch — the fleet-window and dataset-generation hot
path — and :meth:`VectorizedBackend.run_batch` is the same kernel called
with one group.  Timing noise, resource scaling, managed service latencies,
all 25 monitor metrics, billing and the cold-start/instance walk are numpy
array operations.  The kernel runs three passes:

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

3. **Instance walk** — whether invocation ``i`` cold-starts depends on how
   long earlier invocations kept their workers busy, so the walk is exact
   in two parts.  A *flat pass* solves every group as one single-server
   cold chain over the flat group-major columns
   (:func:`~repro.simulation.engine.grouped.solve_cold_recurrence`, every
   group head an absolute anchor) and re-tests each pair with the
   sequential walk's own busy-until expression; a group whose pool starts
   empty or as one idle worker and whose arrivals never find that worker
   busy is exact as it stands (the sparse-traffic regime).  Every other
   group — real overlap, busy or multi-instance pools — runs through one
   *lockstep walk* (:func:`_lockstep_walk`) that steps all of them arrival
   by arrival through ``(groups, slots)`` pool arrays.  Instance ids are
   assigned afterwards, group-major, exactly as the sequential walk numbers
   them.  A group whose non-fresh name an earlier group of the batch
   already ran starts a new segment, walked after the earlier ones, so it
   sees the pool they leave.

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
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simulation.platform import ServerlessPlatform


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

        # A group whose non-fresh name an earlier group of the batch already
        # ran starts from the pool that group leaves: the walk splits the
        # batch before it and walks the segments one after another.
        splits: list[int] = []
        seen: set[str] = set()

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

            if not request.fresh_pool and name in seen:
                splits.append(g)
                seen = set()
            seen.add(name)

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

        # ---- instance walk ------------------------------------------------
        # Runs before the metric kernel allocates its columns, so the walk's
        # temporaries reuse heap the metrics then take over (a lower peak).
        bounds = [0, *splits, n_groups]
        walked = [
            _walk_segment(
                platform,
                requests[g0:g1],
                offsets[g0 : g1 + 1] - offsets[g0],
                timestamps[offsets[g0] : offsets[g1]],
                execution_time_ms[offsets[g0] : offsets[g1]],
                columns[:, g0:g1],
                None if cold_noise is None else cold_noise[offsets[g0] : offsets[g1]],
            )
            for g0, g1 in zip(bounds, bounds[1:])
        ]
        cold_start, init_ms, instance_ids = (
            walked[0] if len(walked) == 1 else map(np.concatenate, zip(*walked))
        )

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


def _walk_segment(
    platform: "ServerlessPlatform",
    requests: list[GroupRequest],
    offsets: np.ndarray,
    t: np.ndarray,
    exec_ms: np.ndarray,
    columns: np.ndarray,
    cold_noise: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact instance walk of groups with distinct non-fresh names.

    A group whose pool starts empty or as one idle worker and whose
    arrivals never reach a still-busy worker is one single-server run,
    resolved in the flat pass.  Every other group runs through
    :func:`_lockstep_walk`.  Instance ids are assigned afterwards,
    group-major from ``_next_instance_id``, as the sequential walk assigns
    them; then each name gets the pool its last group leaves.
    """
    n_groups = len(requests)
    n_total = int(offsets[-1])
    sizes = np.diff(offsets)
    sizes_l = sizes.tolist()
    instances_map = platform._instances
    writers = {
        r.function_name: g
        for g, r in enumerate(requests)
        if sizes_l[g] or r.fresh_pool
    }
    if not n_total:
        for name in writers:
            instances_map[name] = []
        empty = np.zeros(0)
        return empty.astype(bool), empty, empty.astype(np.int64)
    keep_alive = platform.cold_start_model.keep_alive_s
    gid = np.repeat(np.arange(n_groups), sizes)
    pools = [
        () if r.fresh_pool else instances_map.get(r.function_name, ())
        for r in requests
    ]
    single = [p[0] if len(p) == 1 else None for p in pools]
    pool_empty = np.fromiter((not p for p in pools), dtype=bool, count=n_groups)
    single_busy = np.array([np.inf if s is None else s.busy_until_s for s in single])
    single_last = np.array([0.0 if s is None else s.last_used_s for s in single])
    single_id = np.array(
        [0 if s is None else s.instance_id for s in single], dtype=np.int64
    )

    nonempty = sizes > 0
    starts_ne = offsets[:-1][nonempty]
    ends_ne = offsets[1:][nonempty] - 1
    first_t = np.where(nonempty, t[np.minimum(offsets[:-1], n_total - 1)], 0.0)
    init_if_cold = np.take(columns[3], gid)
    if cold_noise is not None:
        init_if_cold = init_if_cold * cold_noise

    # ---- flat pass: every group as one single-server cold chain ---
    # Whether arrival k+1 finds the worker expired depends on whether k
    # was cold (its completion includes the init); where the warm and
    # cold answers disagree, the closed-form chain solve resolves it.
    # Group heads are absolute anchors, so nothing leaks across groups.
    warm_expired = (t[1:] - (t + exec_ms / 1000.0)[:-1]) > keep_alive
    cold_expired = (t[1:] - (t + (exec_ms + init_if_cold) / 1000.0)[:-1]) > keep_alive
    internal = gid[1:] == gid[:-1]
    head_cold = pool_empty | (np.maximum(first_t - single_last, 0.0) > keep_alive)
    run_cold = np.empty(n_total, dtype=bool)
    run_cold[1:] = warm_expired
    run_cold[starts_ne] = head_cold[nonempty]
    disagree = (warm_expired != cold_expired) & internal
    if disagree.any():
        abs_mask = np.empty(n_total, dtype=bool)
        abs_mask[0] = True
        abs_mask[1:] = ~disagree
        abs_mask[starts_ne] = True
        flip = np.zeros(n_total, dtype=bool)
        flip[1:] = disagree & warm_expired
        flip[starts_ne] = False
        run_cold = solve_cold_recurrence(abs_mask, run_cold, flip)
    init_out = np.where(run_cold, init_if_cold, 0.0)
    # Exact re-test with the sequential walk's own busy_until expression:
    # a group is one single-server run iff no arrival reaches its worker
    # still busy and the pool starts empty or as one idle worker.
    completion = t + (exec_ms + init_out) / 1000.0
    overlap = np.zeros(n_groups, dtype=bool)
    overlap[gid[1:][internal & (t[1:] < completion[:-1])]] = True
    idle_start = pool_empty | (single_busy <= first_t)
    flat = nonempty & idle_start & ~overlap
    lockstep = nonempty & ~flat

    cum = np.cumsum(run_cold)
    seg = cum - np.take(np.concatenate(([0], cum))[offsets[:-1]], gid)
    n_cold_g = np.zeros(n_groups, dtype=np.int64)
    n_cold_g[nonempty] = seg[ends_ne]
    last_cold_g = np.full(n_groups, -1, dtype=np.int64)
    last_cold_g[nonempty] = np.maximum.reduceat(
        np.where(run_cold, np.arange(n_total), -1), starts_ne
    )
    last_cold_l = last_cold_g.tolist()

    # ---- lockstep walk: everything else ---
    members = np.flatnonzero(lockstep)
    members = members[np.argsort(-sizes[members], kind="stable")]
    block = _PoolBlock.load(members.tolist(), pools)
    slot_src = np.empty(n_total, dtype=np.int64)
    slot_key = np.empty(n_total, dtype=np.int64)
    _lockstep_walk(
        block,
        members,
        offsets[:-1][members],
        sizes[members],
        t,
        exec_ms,
        init_if_cold,
        keep_alive,
        platform.config.max_instances_per_function,
        (run_cold, init_out, slot_src, slot_key),
    )
    n_cold_g[members] = block.n_cold

    # ---- instance ids: group-major from the platform's counter ---
    next_id = platform._next_instance_id
    base = next_id + np.cumsum(n_cold_g) - n_cold_g
    instance_ids = np.where(seg > 0, np.take(base, gid) + seg, np.take(single_id, gid))
    lock_pos = np.take(lockstep, gid)
    src, key = slot_src[lock_pos], slot_key[lock_pos]
    instance_ids[lock_pos] = np.where(src >= 0, base[src] + key, key)
    platform._next_instance_id = next_id + int(n_cold_g.sum())

    # ---- write the pools back: each name gets its last writer's pool ---
    worker_cls = _worker_instance_cls()
    mem_l = columns[4].tolist()
    off_l = offsets.tolist()
    flat_l = flat.tolist()
    lock_l = lockstep.tolist()
    n_cold_l = n_cold_g.tolist()
    base_l = base.tolist()
    busy_l = completion[offsets[1:] - 1].tolist()
    created_l = t[np.maximum(last_cold_g, 0)].tolist()
    row_of = dict(zip(members.tolist(), range(members.shape[0])))
    lock_rows, lock_names = [], []
    for name, g in writers.items():
        if flat_l[g]:
            if n_cold_l[g]:
                instance = worker_cls(
                    instance_id=base_l[g] + n_cold_l[g],
                    memory_mb=mem_l[g],
                    created_at_s=created_l[g],
                    invocations=off_l[g + 1] - last_cold_l[g],
                )
            else:
                instance = single[g]
                instance.invocations += off_l[g + 1] - off_l[g]
            instance.busy_until_s = busy_l[g]
            instance.last_used_s = busy_l[g]
            instances_map[name] = [instance]
        elif lock_l[g]:
            lock_rows.append(row_of[g])
            lock_names.append(name)
        else:  # a fresh group without arrivals
            instances_map[name] = []
    block.write_back(lock_rows, lock_names, base, mem_l, worker_cls, instances_map)
    return run_cold, init_out, instance_ids


class _PoolBlock:
    """Warm pools of many groups as ``(rows, slots)`` arrays.

    Slots hold workers in creation order, so a first-idle scan over a row
    is the platform's scan over its pool list.  A worker is identified by
    ``(src, key)``: ``src`` is the group that cold-started it and ``key``
    its cold rank there, or ``src = -1`` and ``key`` its instance id when
    it was in the pool before the batch (``orig`` then indexes
    :attr:`objects`, so the written-back pool reuses the object).
    """

    #: Per-slot columns: busy-until, last-used and creation times, served
    #: invocations, worker identity, original object, and liveness.
    _COLUMNS = {
        "busy": float, "last": float, "created": float, "inv": np.int64,
        "src": np.int64, "key": np.int64, "orig": np.int64, "alive": bool,
    }

    def __init__(self, rows: int, width: int) -> None:
        for column, dtype in self._COLUMNS.items():
            setattr(self, column, np.zeros((rows, width), dtype=dtype))
        self.used = np.zeros(rows, dtype=np.int64)
        self.n_cold = np.zeros(rows, dtype=np.int64)
        self.objects: list = []

    @classmethod
    def load(cls, members: list[int], pools: list) -> "_PoolBlock":
        """Start pools of ``members``: the platform's pool lists, in order."""
        lens = [len(pools[g]) for g in members]
        block = cls(len(members), 2 * max(max(lens, default=0), 2))
        rows, slots, objects = [], [], block.objects
        for row, g in enumerate(members):
            for slot, instance in enumerate(pools[g]):
                rows.append(row)
                slots.append(slot)
                objects.append(instance)
        if objects:
            index = (np.asarray(rows), np.asarray(slots))
            block.busy[index] = [o.busy_until_s for o in objects]
            block.last[index] = [o.last_used_s for o in objects]
            block.created[index] = [o.created_at_s for o in objects]
            block.inv[index] = [o.invocations for o in objects]
            block.src[index] = -1
            block.key[index] = [o.instance_id for o in objects]
            block.orig[index] = np.arange(len(objects))
            block.alive[index] = True
        block.used[:] = lens
        return block

    def pack(self) -> None:
        """Left-pack live slots, keeping creation order; double a full axis."""
        order = np.argsort(~self.alive, axis=1, kind="stable")
        for column in self._COLUMNS:
            setattr(self, column, np.take_along_axis(getattr(self, column), order, axis=1))
        self.used = self.alive.sum(axis=1)
        width = self.alive.shape[1]
        if self.used.max(initial=0) >= width:
            for column in self._COLUMNS:
                array = getattr(self, column)
                setattr(self, column, np.concatenate([array, np.zeros_like(array)], axis=1))

    def write_back(self, rows, names, base, mem_l, worker_cls, instances_map) -> None:
        """Write packed ``rows`` back as the pool lists of ``names`` (ids resolved)."""
        pools = [[] for _ in rows]
        instances_map.update(zip(names, pools))
        rows = np.asarray(rows, dtype=np.int64)
        which, slots = np.nonzero(self.alive[rows])
        index = (rows[which], slots)
        src = self.src[index]
        ids = np.where(src >= 0, base[src] + self.key[index], self.key[index])
        for i, busy, last, created, inv, orig, source, instance_id in zip(
            which.tolist(),
            self.busy[index].tolist(),
            self.last[index].tolist(),
            self.created[index].tolist(),
            self.inv[index].tolist(),
            self.orig[index].tolist(),
            src.tolist(),
            ids.tolist(),
        ):
            if orig >= 0:
                instance = self.objects[orig]
                instance.invocations = inv
            else:
                instance = worker_cls(
                    instance_id=instance_id,
                    memory_mb=mem_l[source],
                    created_at_s=created,
                    invocations=inv,
                )
            instance.busy_until_s = busy
            instance.last_used_s = last
            pools[i].append(instance)


def _lockstep_walk(
    block: _PoolBlock,
    members: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    t: np.ndarray,
    exec_ms: np.ndarray,
    init_if_cold: np.ndarray,
    keep_alive: float,
    max_instances: int,
    out: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Walk many groups' arrivals through their pools, one arrival index at a time.

    Rows are sorted longest first, so the groups still walking at step
    ``k`` are a prefix.  Each step is ``ServerlessPlatform._acquire_instance``
    for every active group at once: reclaim idle workers past the
    keep-alive (strictly), serve on the first idle worker, at the
    concurrency limit queue on the first earliest-free worker, otherwise
    cold-start a new slot.  The busy_until update is the sequential walk's
    float expression, so the result is bit-identical to it.  Writes the
    cold flags, init durations and serving worker ``(src, key)`` into
    ``out`` at the flat positions and leaves ``block`` packed.
    """
    cold_out, init_out, src_out, key_out = out
    active = np.searchsorted(-lens, -np.arange(int(lens.max(initial=0))))
    for k, m in enumerate(active.tolist()):
        if block.used[:m].max() >= block.alive.shape[1]:
            block.pack()
        busy, alive = block.busy[:m], block.alive[:m]
        pos = starts[:m] + k
        tk = t[pos]
        tcol = tk[:, None]
        free = busy <= tcol
        alive &= ~(free & (np.maximum(tcol - block.last[:m], 0.0) > keep_alive))
        idle = alive & free
        slot = idle.argmax(axis=1)
        cold = ~idle[np.arange(m), slot]
        if cold.any():
            full = cold & (alive.sum(axis=1) >= max_instances)
            if full.any():
                rows = np.flatnonzero(full)
                slot[rows] = np.where(alive[rows], busy[rows], np.inf).argmin(axis=1)
                cold &= ~full
            rows = np.flatnonzero(cold)
            new = block.used[rows]
            slot[rows] = new
            block.used[rows] = new + 1
            block.n_cold[rows] += 1
            block.alive[rows, new] = True
            block.busy[rows, new] = 0.0
            block.created[rows, new] = tk[rows]
            block.inv[rows, new] = 0
            block.src[rows, new] = members[rows]
            block.key[rows, new] = block.n_cold[rows]
            block.orig[rows, new] = -1
        index = (np.arange(m), slot)
        init = np.where(cold, init_if_cold[pos], 0.0)
        done = np.maximum(tk, busy[index]) + (exec_ms[pos] + init) / 1000.0
        busy[index] = done
        block.last[index] = done
        block.inv[index] += 1
        cold_out[pos] = cold
        init_out[pos] = init
        src_out[pos] = block.src[index]
        key_out[pos] = block.key[index]
    block.pack()
