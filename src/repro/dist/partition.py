"""Horizontal partitioning + multi-server topology for distributed plans.

The single-node engine owns *all* pages of every table; query shipping
("The End of Slow Networks", Binnig et al.) instead gives each of N DB
servers one horizontal shard with its own buffer pool and tier stack,
and moves *tuples* between servers at exchange boundaries.  This module
supplies both halves of that story:

* a declarative partitioning grammar (:class:`PartitionSpec` — hash or
  range on one key column) with a **stable** hash function, because
  Python's built-in ``hash`` is salted per process and would shard
  differently on every run;
* :func:`build_dist`, the cluster builder: N identical DB servers
  (HDD array + SSD + local TempDB each), optional memory servers with a
  shared broker for NAM-style remote shards, and the exchange fabric
  bootstrapped over pre-registered staging buffers.  Each server's
  engine is :data:`DIST_TIER` compiled by the shared
  :mod:`~repro.harness.topology` steps.

Loaders reuse the TPC-H generator split
(:func:`~repro.workloads.tpch.generate_tpch_rows`): one canonical row
set is generated once, then either installed whole on server 0
(page shipping) or sharded by the partitioning map (query shipping /
hybrid) — so all strategies query byte-identical data.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

from ..broker import MemoryBroker, MemoryProxy
from ..cluster import Cluster, Server
from ..engine import Database, Schema
from ..harness import warm_extension, warm_pool
from ..harness.topology import (
    ClusterSetup,
    add_memory_servers,
    bind_metrics,
    compile_plan,
    equip_db_server,
    new_cluster,
    offer_memory,
    open_remote_stores,
    remote_filesystem,
)
from ..net import Network
from ..remotefile import RemoteMemoryFilesystem
from ..storage import GB, MB, PAGE_SIZE
from ..telemetry import MetricsRegistry
from ..tiers import TierDef, TierSpec
from ..workloads import TPCH_SCHEMAS, TpchScale, generate_tpch_rows, install_tpch_tables
from .exchange import ExchangeRuntime

__all__ = [
    "PartitionSpec",
    "DistSpec",
    "DistSetup",
    "TPCH_PARTITIONING",
    "stable_hash",
    "partition_rows",
    "build_dist",
    "load_tpch_single",
    "load_tpch_partitioned",
    "prewarm_dist",
]


def stable_hash(value: Any) -> int:
    """Process-stable 64-bit hash (splitmix64 finalizer / CRC for str).

    Partitioning and Bloom filters must place the same key on the same
    server in every run; Python's ``hash`` is salted per interpreter.
    """
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    x = int(value) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (x ^ (x >> 31)) & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class PartitionSpec:
    """How one table is split across N servers.

    ``hash``: row goes to ``stable_hash(key) % n``.
    ``range``: ``bounds`` holds n-1 ascending split points; row goes to
    the first partition whose bound exceeds its key (last otherwise).
    """

    table: str
    key: str
    method: str = "hash"
    bounds: tuple = ()

    def __post_init__(self):
        if self.method not in ("hash", "range"):
            raise ValueError(f"unknown partition method {self.method!r}")
        if self.method == "range" and list(self.bounds) != sorted(self.bounds):
            raise ValueError("range bounds must be ascending")

    def owner(self, value: Any, n: int) -> int:
        """Which of ``n`` servers owns a row with this key value."""
        if n == 1:
            return 0
        if self.method == "hash":
            return stable_hash(value) % n
        if len(self.bounds) != n - 1:
            raise ValueError(
                f"range partitioning of {self.table!r} needs {n - 1} bounds,"
                f" got {len(self.bounds)}"
            )
        for index, bound in enumerate(self.bounds):
            if value < bound:
                return index
        return n - 1


def partition_rows(
    rows: list, schema: Schema, spec: PartitionSpec, n: int
) -> list[list]:
    """Split one table's rows into ``n`` shards by the spec's key."""
    key_index = schema.index_of(spec.key)
    shards: list[list] = [[] for _ in range(n)]
    for row in rows:
        shards[spec.owner(row[key_index], n)].append(row)
    return shards


#: Default TPC-H co-location: each table is partitioned on its most
#: join-relevant key so every two-table join has exactly one shuffling
#: side (the build side is always local to its shard).
TPCH_PARTITIONING: dict[str, PartitionSpec] = {
    "customer": PartitionSpec("customer", "custkey"),
    "orders": PartitionSpec("orders", "orderkey"),
    "lineitem": PartitionSpec("lineitem", "partkey"),
    "part": PartitionSpec("part", "partkey"),
    "supplier": PartitionSpec("supplier", "suppkey"),
}


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistSpec:
    """Declarative distributed topology: N identical DB servers.

    ``ext_pages`` is per-DB-server remote BPExt capacity (0 = no remote
    tier on that server); page-shipping setups put the whole extension
    on server 0, NAM-style hybrids give every server a slice.
    """

    name: str
    db_servers: int = 2
    memory_servers: int = 1
    bp_pages: int = 256
    ext_pages: tuple = ()
    tempdb_pages: int = 1024
    data_spindles: int = 8
    db_cores: int = 8
    seed: int = 0
    credits: int = 4
    slot_bytes: int = 64 * 1024
    workspace_bytes: int = 64 * MB

    def resolved_ext(self) -> tuple:
        ext = tuple(self.ext_pages) if self.ext_pages else (0,) * self.db_servers
        if len(ext) != self.db_servers:
            raise ValueError(
                f"ext_pages needs {self.db_servers} entries, got {len(ext)}"
            )
        return ext


@dataclass
class DistSetup(ClusterSetup):
    """Everything a distributed benchmark needs to drive one topology."""

    spec: DistSpec
    cluster: Cluster
    network: Network
    db_servers: list[Server]
    databases: list[Database]
    runtime: ExchangeRuntime
    memory_servers: list[Server] = field(default_factory=list)
    broker: Optional[MemoryBroker] = None
    proxies: dict[str, MemoryProxy] = field(default_factory=dict)
    remote_fs: dict[str, RemoteMemoryFilesystem] = field(default_factory=dict)
    metrics: Optional[MetricsRegistry] = None
    #: Per-DB-server table dicts (loader output); page-shipping setups
    #: populate index 0 only.
    tables: list = field(default_factory=list)
    #: Partitioning map when the load was sharded, else None.
    partitioning: Optional[dict[str, PartitionSpec]] = None


#: Every DB server's layout: one remote extension level (sized per
#: server by ``DistSpec.ext_pages``), TempDB and WAL on the local SSD.
DIST_TIER = TierSpec(
    name="dist",
    extension=(TierDef(medium="remote", name="remote"),),
    tempdb="ssd",
    wal="ssd",
    protocol="ndspi",
    sync_remote_io=True,
)


def build_dist(spec: DistSpec) -> DistSetup:
    """Assemble the virtual cluster for one distributed topology."""
    ext_pages = spec.resolved_ext()
    cluster, network = new_cluster(spec.seed)
    db_servers = [
        equip_db_server(
            cluster, network, f"db{index}", cores=spec.db_cores, memory_bytes=384 * GB,
            spindles=spec.data_spindles, rng_stream=f"hdd{index}",
        )
        for index in range(spec.db_servers)
    ]
    setup = DistSetup(
        spec=spec, cluster=cluster, network=network,
        db_servers=db_servers, databases=[],
        runtime=ExchangeRuntime(
            db_servers, credits=spec.credits, slot_bytes=spec.slot_bytes
        ),
    )

    if any(pages > 0 for pages in ext_pages):
        # Leases hand out whole MRs, so each server's bpext file consumes
        # at least one full region — size the offer by region count, not
        # raw bytes, or a many-small-shards hybrid starves the last file.
        mr_bytes = 64 * MB
        regions_needed = sum(
            -(-pages * PAGE_SIZE // mr_bytes) for pages in ext_pages if pages > 0
        )
        per_memory_server = -(-regions_needed // max(1, spec.memory_servers)) + 1
        setup.broker = MemoryBroker(cluster.sim)
        setup.memory_servers = add_memory_servers(
            cluster, network, spec.memory_servers, 384 * GB
        )
        setup.proxies = setup.run(offer_memory(
            setup.memory_servers, setup.broker, mr_bytes, per_memory_server * mr_bytes
        ))

    spread = spec.memory_servers > 1
    for server, pages in zip(db_servers, ext_pages):
        plan = DIST_TIER.resolve(
            analytic=False, bpext_pages=pages, tempdb_pages=spec.tempdb_pages
        )
        remote_stores = []
        if pages > 0:
            fs = remote_filesystem(server, setup.broker, schedulers=spec.db_cores)
            setup.remote_fs[server.name] = fs

            def bootstrap(fs=fs, plan=plan, file_name=f"bpext.{server.name}"):
                yield from fs.initialize()
                return (yield from open_remote_stores(fs, plan, file_name, spread))

            remote_stores = setup.run(bootstrap())
        setup.databases.append(compile_plan(
            server, plan, remote_stores, spec.bp_pages,
            workspace_bytes=spec.workspace_bytes,
        ))

    setup.run(setup.runtime.bootstrap())
    setup.metrics = bind_metrics(
        f"dist.{spec.name}", cluster,
        {f"db{index}.bp": database.pool for index, database in enumerate(setup.databases)},
    )
    return setup


# ---------------------------------------------------------------------------
# Loaders
# ---------------------------------------------------------------------------


def load_tpch_single(
    setup: DistSetup, scale: TpchScale = TpchScale(), seed: int = 0
) -> None:
    """Install the whole TPC-H row set on DB server 0 (page shipping)."""
    rows = generate_tpch_rows(scale, seed)
    setup.tables = [install_tpch_tables(setup.databases[0], rows, scale)]
    setup.partitioning = None


def load_tpch_partitioned(
    setup: DistSetup,
    partitioning: dict[str, PartitionSpec] | None = None,
    scale: TpchScale = TpchScale(),
    seed: int = 0,
) -> None:
    """Shard the canonical TPC-H row set across every DB server."""
    partitioning = dict(partitioning or TPCH_PARTITIONING)
    n = len(setup.databases)
    rows = generate_tpch_rows(scale, seed)
    shards: list[dict[str, list]] = [{} for _ in range(n)]
    for name, schema in TPCH_SCHEMAS.items():
        spec = partitioning.get(name)
        if spec is None:
            raise ValueError(f"no PartitionSpec for table {name!r}")
        for index, shard in enumerate(partition_rows(rows[name], schema, spec, n)):
            shards[index][name] = shard
    setup.tables = [
        install_tpch_tables(db, shard, scale)
        for db, shard in zip(setup.databases, shards)
    ]
    setup.partitioning = partitioning


def prewarm_dist(setup: DistSetup) -> int:
    """Steady-state warm-up: extension if the server has one, else pool."""
    installed = 0
    for database in setup.databases[: len(setup.tables)]:
        if database.pool.extension is not None:
            installed += warm_extension(database.pool)
        else:
            installed += warm_pool(database.pool)
    return installed
