"""The benchmark's workloads: inputs from a seed, set-up, measured phase.

Each workload turns ``(seed, seconds)`` into explicit inputs, builds and
warms its topology, and runs the inputs as a measured phase that returns
one :class:`Phase`: every operation's outcome, its virtual latency and
answer digest, and the difference of the simulator's public counters
from before to after the phase.  Parameters are drawn per (seed,
stream, position) from their own RNG, never from a shared generator
whose draw order depends on virtual-time interleaving, so the answer an
operation must produce is fixed by its inputs alone.

The simulator runs single-threaded in this process; the topology seed
is fixed per workload, and the workload seed only chooses inputs.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import numpy as np

from repro.dist import Strategy, execute_plan
from repro.dist import planner as dist_planner
from repro.dist.partition import DistSpec
from repro.harness import Design
from repro.harness import dbbench
from repro.plan import PlanNode, count_nodes
from repro.sim.kernel import AllOf
from repro.txn import DEFAULT_TXN_POLICY, check_serializable, committed_row_images
from repro.workloads import tpcc as tpcc_module
from repro.workloads import tpch as tpch_module
from repro.workloads import (
    TPCH_QUERIES,
    TpccConfig,
    TpccScale,
    TpchScale,
    tpch_order_lines_plan,
    tpch_returnflag_agg_plan,
    tpch_star_join_plan,
)

__all__ = ["WORKLOADS", "Op", "Phase", "Stretches", "digest_rows"]

#: Parameter variants per query template / plan kind.  Inputs pick a
#: variant index, so one reference digest per (template, variant)
#: checks the answer of every seed.
VARIANTS = 8


def digest_rows(rows: list, ordered: bool) -> str:
    """Short digest of a result; unordered results are canonicalised."""
    items = [repr(row) for row in rows]
    if not ordered:
        items.sort()
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


@dataclass
class Op:
    """One operation of a measured phase."""

    key: str
    latency_us: Optional[float] = None
    digest: Optional[str] = None
    error: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.error is None and self.latency_us is not None


@dataclass
class Phase:
    """What a measured phase did, in exact counts and virtual time."""

    ops: list[Op]
    attempts: int
    counts: dict[str, float]
    cpu_busy_frac: float
    #: Wall-clock (start, end) of the measured stretches.
    intervals: list[tuple[float, float]]
    #: Run-level answer checks that failed (empty when all passed).
    check_failures: list[str] = field(default_factory=list)
    #: Host seconds spent rebuilding poisoned clusters (not in host_s).
    rebuild_s: float = 0.0
    rebuilds: int = 0

    @property
    def host_s(self) -> float:
        return sum(end - start for start, end in self.intervals)


class Stretches:
    """Marks the measured stretches of a phase as wall intervals.

    ``measured()`` encloses host time that counts, with ``sampling`` (a
    reusable context manager, the traced run's sampler) active inside.
    ``excluded()`` encloses work inside a phase that must count nowhere,
    such as rebuilding a poisoned cluster.
    """

    def __init__(self, sampling=None, excluded: Callable = contextlib.nullcontext):
        self.intervals: list[tuple[float, float]] = []
        self._sampling = sampling if sampling is not None else contextlib.nullcontext()
        self.excluded = excluded

    @contextlib.contextmanager
    def measured(self):
        start = time.perf_counter()
        try:
            with self._sampling:
                yield
        finally:
            self.intervals.append((start, time.perf_counter()))


# ---------------------------------------------------------------------------
# Public counters
# ---------------------------------------------------------------------------

COUNTER_KEYS = (
    "events", "pool_hits", "pool_misses", "pool_ext_reads", "pool_disk_reads",
    "bpext_hits", "bpext_misses", "remote_reads", "remote_writes",
    "nic_bytes", "nic_messages", "storage_ios", "storage_bytes",
    "wal_appends", "wal_bytes", "wal_flushes", "tempdb_bytes",
    "lock_requests", "lock_waits", "deadlocks", "lock_wait_us",
    "commits", "aborts", "reliability_retries", "reliability_hedges",
)


def counters(sim, servers, databases, remote_files, reliability=None) -> dict[str, float]:
    """Cumulative public counters of one simulated cluster."""
    c = dict.fromkeys(COUNTER_KEYS, 0)
    c["events"] = sim.events_processed
    for db in databases:
        pool = db.pool
        c["pool_hits"] += pool.hits
        c["pool_misses"] += pool.misses
        c["pool_ext_reads"] += pool.ext_hits
        c["pool_disk_reads"] += pool.base_reads
        if pool.extension is not None:
            c["bpext_hits"] += pool.extension.hits
            c["bpext_misses"] += pool.extension.misses
        c["wal_appends"] += len(db.wal.records)
        c["wal_bytes"] += sum(record.payload_bytes for record in db.wal.records)
        c["wal_flushes"] += db.wal.flushes
        if db.tempdb is not None:
            c["tempdb_bytes"] += db.tempdb.bytes_spilled
        manager = db._txn_manager
        if manager is not None:
            c["lock_requests"] += manager.locks.acquires
            c["lock_waits"] += manager.locks.waits
            c["deadlocks"] += manager.locks.deadlocks
            c["lock_wait_us"] += manager.locks.lock_wait_us
            c["commits"] += manager.commits
            c["aborts"] += manager.aborts
    for file in remote_files:
        c["remote_reads"] += file.reads
        c["remote_writes"] += file.writes
    for server in servers:
        if server.nic is not None:
            c["nic_bytes"] += server.nic.bytes_sent
            c["nic_messages"] += server.nic.messages_sent
        for device in server.devices.values():
            c["storage_ios"] += device.reads + device.writes
            c["storage_bytes"] += device.bytes_read + device.bytes_written
    if reliability is not None:
        c["reliability_retries"] += sum(reliability.retries.values())
        c["reliability_hedges"] += reliability.hedge.issued
    return c


def add_diff(total: dict, before: dict, after: dict) -> None:
    for key in COUNTER_KEYS:
        total[key] = total.get(key, 0) + after[key] - before[key]


def _single_node_counters(setup) -> dict[str, float]:
    files = list(setup.remote_fs.files.values()) if setup.remote_fs is not None else []
    return counters(setup.sim, list(setup.cluster), [setup.database], files, setup.reliability)


def _dist_counters(setup) -> dict[str, float]:
    files = [f for fs in setup.remote_fs.values() for f in fs.files.values()]
    return counters(setup.sim, list(setup.cluster), setup.databases, files)


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_processes(sim, processes, ops: list[Op]) -> None:
    """Run until every process ends.  A failure that escapes into the
    event loop poisons the simulator: every unfinished op fails with it."""

    def waiter():
        yield AllOf(sim, processes)

    try:
        sim.run_until_complete(sim.spawn(waiter()))
    except Exception as exc:
        for op in ops:
            if op.latency_us is None and op.error is None:
                op.error = _failure(exc)


# ---------------------------------------------------------------------------
# tpch_remote
# ---------------------------------------------------------------------------


class TpchRemote:
    """The 22 TPC-H templates as closed-loop streams over remote memory.

    The fig18/19 configuration: Custom design, 256-page local pool,
    2600-page BPExt in remote memory over RDMA, 20 HDD spindles.
    """

    name = "tpch_remote"
    STREAMS = 2
    BUILD = dict(bp_pages=256, bpext_pages=2600, tempdb_pages=49152, data_spindles=20)
    #: Sequential warm-up after the BPExt prewarm (fills the local pool).
    WARMUP = (("Q6", 0), ("Q2", 0))

    def inputs(self, seed: int, seconds: int) -> list[list[tuple[int, int]]]:
        """Per stream: (template index, variant) in that stream's order.

        One fixed permutation of the templates is dealt round-robin to
        the streams, so a full-size run executes every template once
        with the same partners; the seed picks each query's variant.
        """
        total = min(len(TPCH_QUERIES), max(self.STREAMS, round(seconds * 2.2)))
        order = np.random.default_rng(0).permutation(len(TPCH_QUERIES))[:total]
        streams = []
        for stream in range(self.STREAMS):
            streams.append([
                (int(template), int(
                    np.random.default_rng([seed, stream, position]).integers(VARIANTS)
                ))
                for position, template in enumerate(order[stream::self.STREAMS])
            ])
        return streams

    @staticmethod
    def plan_for(db, tables, template: int, variant: int):
        """A template's plan for one variant (its RNG is the variant)."""
        spec = TPCH_QUERIES[template]
        rng = np.random.default_rng([template, variant])
        return spec.factory(db, tables, rng)

    @staticmethod
    def op_key(template: int, variant: int) -> str:
        return f"{TPCH_QUERIES[template].name}/{variant}"

    def setup(self, design: Design = Design.CUSTOM):
        setup = dbbench.build_database(design, analytic=True, **self.BUILD)
        tables = tpch_module.build_tpch_database(setup.database)
        dbbench.prewarm_extension(setup)
        names = [spec.name for spec in TPCH_QUERIES]
        for name, variant in self.WARMUP:
            self.run_one((setup, tables), names.index(name), variant)
        return setup, tables

    def run_one(self, env, template: int, variant: int) -> list:
        """Run one (template, variant) alone; its result rows."""
        setup, tables = env
        plan, memory, consumers = self.plan_for(setup.database, tables, template, variant)
        result = setup.run(setup.database.execute(
            plan, requested_memory_bytes=memory, memory_consumers=consumers
        ))
        return result.rows

    def measure(self, env, inputs, stretches: Optional[Stretches] = None) -> Phase:
        stretches = stretches or Stretches()
        setup, tables = env
        db, sim = setup.database, setup.sim
        ops = [[Op(self.op_key(t, v)) for t, v in stream] for stream in inputs]
        rows_out = [0]

        def stream(index: int):
            for position, (template, variant) in enumerate(inputs[index]):
                op = ops[index][position]
                begin = sim.now
                try:
                    plan, memory, consumers = self.plan_for(db, tables, template, variant)
                    result = yield from db.execute(
                        plan, requested_memory_bytes=memory, memory_consumers=consumers
                    )
                except Exception as exc:  # counted as a failed operation
                    op.error = _failure(exc)
                    continue
                op.latency_us = sim.now - begin
                op.digest = digest_rows(result.rows, ordered=False)
                rows_out[0] += result.metrics.rows_out

        before = _single_node_counters(setup)
        mark = db.server.cpu.mark_utilization()
        start_us = sim.now
        flat = [op for stream_ops in ops for op in stream_ops]
        with stretches.measured():
            _run_processes(sim, [sim.spawn(stream(i)) for i in range(len(inputs))], flat)
        total: dict[str, float] = {}
        add_diff(total, before, _single_node_counters(setup))
        total["rows_out"] = rows_out[0]
        total["virtual_us"] = sim.now - start_us
        return Phase(
            ops=flat, attempts=len(flat), counts=total,
            cpu_busy_frac=db.server.cpu.utilization(since=mark),
            intervals=stretches.intervals,
        )


# ---------------------------------------------------------------------------
# tpcc_2pl
# ---------------------------------------------------------------------------


class Tpcc2pl:
    """Row-level 2PL TPC-C with a hot-district conflict knob.

    The ``medium`` conflict cell of the repo's TPC-C axis: Custom
    design, an 830-page pool that holds the working set, 20 closed-loop
    workers, half of all transactions routed into warehouse 0.  A run is
    a few independent episodes of 2000 intents, each on a freshly built
    and warmed database.
    """

    name = "tpcc_2pl"
    WORKERS = 20
    SCALE = TpccScale(warehouses=4, items=200, history_orders=40)
    BUILD = dict(bp_pages=830, bpext_pages=1650, tempdb_pages=512, seed=7)
    HOT_FRACTION = 0.5
    HOT_SHARE = 0.25
    WARMUP_PER_WORKER = 5
    #: Intents per worker and episode (2000 per episode in all).
    INTENTS_PER_WORKER = 100
    #: Episodes per second of ``--seconds``.
    EPISODES_PER_S = 0.4
    #: Retries per intent.  A deadlock victim is always the junior member
    #: of its cycle and keeps its first attempt's rank, so it loses only
    #: to intents that began before it; at this contention a junior intent
    #: can lose to 9 of them in a row, which exhausts the default budget
    #: of 8 (see NOTES.md).  Measured maximum: 9 losses per intent.
    RETRY_ATTEMPTS = 32
    KINDS = tuple(tpcc_module.DEFAULT_MIX)

    def __init__(self):
        self.config = TpccConfig(
            scale=self.SCALE, workers=self.WORKERS, concurrency="2pl",
            hot_district_fraction=self.HOT_FRACTION, hot_district_share=self.HOT_SHARE,
            record_history=True,
        )

    def _draw(self, key: tuple, per_worker: int) -> list[list[tuple]]:
        """Per worker: (kind, district, body entropy) per position.

        Each worker's mix and hot share are exact (stratified) and only
        their order, the districts and the bodies' draws are random, so
        runs differ in which rows conflict, not in how much they do.
        """
        weights = [tpcc_module.DEFAULT_MIX[k] for k in self.KINDS]
        counts = [int(round(w / sum(weights) * per_worker)) for w in weights]
        counts[0] += per_worker - sum(counts)
        kinds = [kind for kind, n in zip(self.KINDS, counts) for _ in range(n)]
        hot_count = max(1, int(self.SCALE.districts * self.HOT_SHARE))
        hot_slots = int(round(per_worker * self.HOT_FRACTION))
        workers = []
        for worker in range(self.WORKERS):
            rng = np.random.default_rng([*key, worker])
            order = rng.permutation(kinds)
            hot = rng.permutation(per_worker) < hot_slots
            intents = []
            for position in range(per_worker):
                rng = np.random.default_rng([*key, worker, position])
                span = hot_count if hot[position] else self.SCALE.districts
                district = int(rng.integers(0, span))
                # The body's own draws (customer, items) come from this
                # entropy, re-seeded per attempt so a retry redoes the
                # same intent.
                intents.append((str(order[position]), district,
                                (*key, worker, position, 1)))
            workers.append(intents)
        return workers

    def inputs(self, seed: int, seconds: int) -> list[list[list[tuple]]]:
        """Per episode, per worker: the intents in order."""
        episodes = max(1, round(seconds * self.EPISODES_PER_S))
        return [self._draw((1, seed, episode), self.INTENTS_PER_WORKER)
                for episode in range(episodes)]

    def setup(self):
        setup = dbbench.build_database(Design.CUSTOM, **self.BUILD)
        state = tpcc_module.build_tpcc_database(setup.database, self.SCALE)
        dbbench.prewarm_extension(setup)
        setup.database.transactions(
            record_history=True,
            policy=replace(DEFAULT_TXN_POLICY, retry_attempts=self.RETRY_ATTEMPTS),
        )
        env = (setup, state)
        self._drive(env, self._draw((0, 0), self.WARMUP_PER_WORKER))
        return env

    def _drive(self, env, inputs):
        setup, state = env
        db, sim = setup.database, setup.sim
        manager = db.transactions()
        ops = [[Op(f"{kind}/{district}") for kind, district, _e in w] for w in inputs]

        def worker(index: int):
            for position, (kind, district, entropy) in enumerate(inputs[index]):
                op = ops[index][position]
                begin = sim.now
                try:
                    yield from db.server.cpu.compute(db.query_setup_cpu_us / 3)
                    body = getattr(tpcc_module, kind)
                    yield from manager.run(
                        lambda txn, body=body, district=district, entropy=entropy: body(
                            state, np.random.default_rng(list(entropy)), self.config,
                            district, txn,
                        ),
                        name=kind,
                    )
                except Exception as exc:  # counted as a failed operation
                    op.error = _failure(exc)
                    continue
                op.latency_us = sim.now - begin

        flat = [op for worker_ops in ops for op in worker_ops]
        _run_processes(sim, [sim.spawn(worker(i)) for i in range(len(inputs))], flat)
        return flat

    def _episode(self, env, inputs, stretches: Stretches, total: dict, failures: list):
        """Run one episode on ``env``, adding its counters to ``total`` and
        failed checks to ``failures``; (its ops, busy CPU virtual us)."""
        setup, state = env
        db, sim = setup.database, setup.sim
        manager = db.transactions()
        exhausted_before = manager.exhausted
        before = _single_node_counters(setup)
        mark = db.server.cpu.mark_utilization()
        start_us = sim.now
        with stretches.measured():
            flat = self._drive(env, inputs)
        after = _single_node_counters(setup)
        add_diff(total, before, after)
        virtual_us = sim.now - start_us
        total["virtual_us"] = total.get("virtual_us", 0) + virtual_us
        busy = db.server.cpu.utilization(since=mark)
        # committed_row_images reads frames and the data files but not
        # pages still queued for write-back, so checkpoint first.
        setup.run(db.pool.flush_all())
        tables = [state.warehouse, state.district, state.customer,
                  state.stock, state.orders, state.order_line]
        check = check_serializable(manager.history, final_rows=committed_row_images(db, tables))
        if not check.ok:
            failures.append(f"history not serializable: {check}")
        if not manager.locks.idle:
            failures.append("locks held after the run")
        exhausted = manager.exhausted - exhausted_before
        if exhausted:
            failures.append(
                f"{exhausted} intents exhausted {self.RETRY_ATTEMPTS} retries"
            )
        completed = sum(op.completed for op in flat)
        if completed != len(flat):
            failures.append(f"{len(flat) - completed} intents failed")
        if after["commits"] - before["commits"] != completed:
            failures.append("commits differ from completed intents")
        return flat, busy * virtual_us

    def measure(self, env, inputs, stretches: Optional[Stretches] = None) -> Phase:
        stretches = stretches or Stretches()
        total: dict[str, float] = {"rows_out": 0}
        failures: list[str] = []
        ops: list[Op] = []
        busy_us = 0.0
        for episode, episode_inputs in enumerate(inputs):
            if episode:
                with stretches.excluded():
                    env = None
                    gc.collect()
                    env = self.setup()
                    gc.collect()
            flat, busy = self._episode(env, episode_inputs, stretches, total, failures)
            ops += flat
            busy_us += busy
        return Phase(
            ops=ops, attempts=int(total["commits"] + total["aborts"]), counts=total,
            cpu_busy_frac=busy_us / total["virtual_us"], intervals=stretches.intervals,
            check_failures=failures,
        )


# ---------------------------------------------------------------------------
# dist_shipping
# ---------------------------------------------------------------------------

#: Plan kinds and their parameter variants (index = variant).
DIST_PLANS: dict[str, Callable[[int], PlanNode]] = {
    "star_join": lambda v: tpch_star_join_plan(size_below=20 + v),
    "order_lines": lambda v: tpch_order_lines_plan(acctbal_below=400.0 + 25.0 * v),
    "returnflag_agg": lambda v: tpch_returnflag_agg_plan(ship_fraction=0.5 + 0.02 * v),
}


class DistShipping:
    """IR plans on a 4-DB-server cluster under query and hybrid shipping.

    One client at a time; every plan runs on the query-shipping cluster
    and then on the hybrid cluster (remote BPExt slice per server).
    """

    name = "dist_shipping"
    STRATEGIES = (Strategy.QUERY, Strategy.HYBRID)
    SPEC = DistSpec(name="bench", db_servers=4, tempdb_pages=8192)
    TOTAL_EXT_PAGES = 1024
    DATA_SEED = 9
    WARMUP = ("star_join", 5)
    #: Rounds (every plan kind once, under both strategies) per second
    #: of ``--seconds``: one round per variant at ``--seconds 10``.
    ROUNDS_PER_S = 0.8

    def inputs(self, seed: int, seconds: int) -> list[tuple[str, int]]:
        """(plan kind, variant) in order: rounds of every kind once.

        Each kind goes through its variants in a seeded order, so a
        full-size run executes the same plans on every seed and the seed
        decides their order; variants differ in selectivity, and a random
        draw of them made the latency median swing by seed.
        """
        orders = [np.random.default_rng([seed, k]).permutation(VARIANTS)
                  for k in range(len(DIST_PLANS))]
        return [
            (kind, int(orders[k][round_index % VARIANTS]))
            for round_index in range(max(1, round(seconds * self.ROUNDS_PER_S)))
            for k, kind in enumerate(DIST_PLANS)
        ]

    def build(self, strategy: Strategy):
        setup = dist_planner.build_strategy(
            strategy, self.SPEC, total_ext_pages=self.TOTAL_EXT_PAGES,
            scale=TpchScale(), seed=self.DATA_SEED,
        )
        kind, variant = self.WARMUP
        execute_plan(setup, DIST_PLANS[kind](variant), name="warmup")
        return setup

    def setup(self) -> dict:
        return {strategy: self.build(strategy) for strategy in self.STRATEGIES}

    def measure(self, env, inputs, stretches: Optional[Stretches] = None) -> Phase:
        stretches = stretches or Stretches()
        ops: list[Op] = []
        total: dict[str, float] = {}
        extra = dict.fromkeys((
            "virtual_us", "rows_out", "exchange_batches", "exchange_bytes",
            "credit_stalls_us", "plan_nodes", "ok_events",
        ), 0)
        busy_weighted = 0.0
        rebuild_s = 0.0
        rebuilds = 0
        for kind, variant in inputs:
            plan = DIST_PLANS[kind](variant)
            for strategy in self.STRATEGIES:
                setup = env[strategy]
                op = Op(f"{kind}/{variant}@{strategy.value}")
                ops.append(op)
                before = _dist_counters(setup)
                marks = [server.cpu.mark_utilization() for server in setup.db_servers]
                try:
                    with stretches.measured():
                        result = execute_plan(setup, plan, name=kind)
                except Exception as exc:  # counted as a failed operation
                    op.error = _failure(exc)
                    result = None
                after = _dist_counters(setup)
                add_diff(total, before, after)
                if result is None:
                    # The simulator is poisoned: rebuild this cluster
                    # outside both set-up time and the measured time.
                    rebuild_start = time.perf_counter()
                    with stretches.excluded():
                        env[strategy] = self.build(strategy)
                        gc.collect()
                    rebuild_s += time.perf_counter() - rebuild_start
                    rebuilds += 1
                    continue
                op.latency_us = result.elapsed_us
                op.digest = digest_rows(result.rows, ordered=True)
                busy = [
                    server.cpu.utilization(since=mark)
                    for server, mark in zip(setup.db_servers, marks)
                ]
                busy_weighted += result.elapsed_us * sum(busy) / len(busy)
                metrics = result.metrics
                extra["virtual_us"] += result.elapsed_us
                extra["rows_out"] += metrics["rows_out"]
                extra["exchange_batches"] += metrics["exchange_batches"]
                extra["exchange_bytes"] += metrics["exchange_bytes"]
                extra["credit_stalls_us"] += metrics["credit_stalls_us"]
                extra["plan_nodes"] += count_nodes(plan, PlanNode)
                extra["ok_events"] += after["events"] - before["events"]
        total.update(extra)
        failures = []
        by_plan: dict[str, set] = {}
        for op in ops:
            if op.completed:
                by_plan.setdefault(op.key.split("@")[0], set()).add(op.digest)
        for key, digests in sorted(by_plan.items()):
            if len(digests) > 1:
                failures.append(f"{key}: query and hybrid shipping returned different rows")
        return Phase(
            ops=ops, attempts=len(ops), counts=total,
            cpu_busy_frac=busy_weighted / extra["virtual_us"] if extra["virtual_us"] else 0.0,
            intervals=stretches.intervals, check_failures=failures, rebuild_s=rebuild_s,
            rebuilds=rebuilds,
        )


WORKLOADS: dict[str, Any] = {
    w.name: w for w in (TpchRemote(), Tpcc2pl(), DistShipping())
}

