"""Cluster wiring shared by every builder.

Every topology here is the paper's one architecture: DB servers with
local media lease remote memory from memory servers through a broker.
:func:`~repro.harness.build_database`, the iobench targets,
:func:`~repro.dist.build_dist` and :func:`~repro.fleet.build_fleet`
differ only in how many servers they make and in which simulated
process each step runs; the steps themselves live here.  Setup events
and setup virtual time are part of the goldens, so the steps that do
I/O are generators each builder composes inside its own processes.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..broker import MemoryBroker, MemoryProxy
from ..cluster import Cluster, Server
from ..engine import Database, DevicePageFile, PageStore, RemotePageFile
from ..engine.page import PAGE_SIZE
from ..net import Network, SmbClient, SmbDirectClient, SmbFileServer
from ..remotefile import AccessPolicy, RemoteFile, RemoteMemoryFilesystem, StagingPool
from ..sim.kernel import ProcessGenerator
from ..storage import GB, RamDrive, Raid0Array, SsdDevice
from ..telemetry import MetricsRegistry
from ..telemetry.attach import (
    register_cluster,
    register_pool,
    register_reliability,
    register_remote_file,
)
from ..tiers import Tier, TierPlan, build_stack

__all__ = [
    "BPEXT_FILE_ID", "SEMCACHE_FILE_ID", "SMB_CLIENTS", "TEMPDB_FILE_ID", "ClusterSetup",
    "add_memory_servers", "add_server", "bind_metrics", "compile_plan",
    "equip_db_server", "ext_file_id", "new_cluster", "offer_memory",
    "open_remote_file", "open_remote_store", "open_remote_stores",
    "remote_filesystem", "remote_level", "remote_placements", "smb_file_server",
]

#: File ids reserved for engine-internal files, unique within one
#: database.  Extension levels are spaced ten apart so multi-tier stacks
#: never collide with TempDB.
BPEXT_FILE_ID = 900
TEMPDB_FILE_ID = 901
SEMCACHE_FILE_ID = 950


def ext_file_id(index: int) -> int:
    """File id of extension level ``index`` (0 = fastest)."""
    return BPEXT_FILE_ID + 10 * index


class ClusterSetup:
    """Base of the builders' setup types: the cluster's simulator, and
    running one generator to completion as a process."""

    cluster: Cluster

    @property
    def sim(self):
        return self.cluster.sim

    def run(self, generator):
        return self.sim.run_until_complete(self.sim.spawn(generator))


def new_cluster(seed: int) -> tuple[Cluster, Network]:
    cluster = Cluster(seed=seed)
    return cluster, Network(cluster.sim)


def add_server(
    cluster: Cluster, network: Network, name: str, cores: int = 20,
    memory_bytes: int = 384 * GB,
) -> Server:
    server = cluster.add_server(name, cores=cores, memory_bytes=memory_bytes)
    network.attach(server)
    return server


def equip_db_server(
    cluster: Cluster, network: Network, name: str, cores: int, memory_bytes: int,
    spindles: int, rng_stream: str,
) -> Server:
    """A DB server with a RAID-0 ``hdd`` seeded by ``rng_stream`` and an ``ssd``."""
    server = add_server(cluster, network, name, cores=cores, memory_bytes=memory_bytes)
    rng = cluster.rng.stream(rng_stream)
    server.attach_device("hdd", Raid0Array(cluster.sim, spindles=spindles, rng=rng))
    server.attach_device("ssd", SsdDevice(cluster.sim))
    return server


def add_memory_servers(
    cluster: Cluster, network: Network, count: int, memory_bytes: int
) -> list[Server]:
    """Memory servers ``mem0`` .. ``mem{count-1}``."""
    return [
        add_server(cluster, network, f"mem{index}", memory_bytes=memory_bytes)
        for index in range(count)
    ]


def offer_memory(
    servers: Iterable[Server], broker: MemoryBroker, mr_bytes: int, limit_bytes: int
) -> ProcessGenerator:
    """``yield from``-able: each server in turn offers up to ``limit_bytes``
    in ``mr_bytes`` regions.  Returns the proxies by server name."""
    proxies: dict[str, MemoryProxy] = {}
    for server in servers:
        proxies[server.name] = proxy = MemoryProxy(server, broker, mr_bytes=mr_bytes)
        yield from proxy.offer_available(limit_bytes=limit_bytes)
    return proxies


#: SMB client class per remote protocol (Table 5).
SMB_CLIENTS = {"smb": SmbClient, "smbdirect": SmbDirectClient}


def smb_file_server(server: Server) -> SmbFileServer:
    """An SMB file server exporting a RamDrive on ``server``."""
    drive = RamDrive(server.sim, name=f"{server.name}.ramdrive")
    return SmbFileServer(server, server.attach_device("ramdrive", drive))


def remote_filesystem(
    server: Server, broker: MemoryBroker, schedulers: int = 8,
    policy: AccessPolicy = AccessPolicy.SYNC, reliability=None,
) -> RemoteMemoryFilesystem:
    """A DB server's remote-memory filesystem; ``initialize()`` pins its
    staging pool of one buffer per scheduler."""
    return RemoteMemoryFilesystem(
        server, broker, StagingPool(server, schedulers=schedulers),
        policy=policy, reliability=reliability,
    )


def open_remote_file(
    fs: RemoteMemoryFilesystem, name: str, size: int, spread: bool = False,
    providers: Optional[list[str]] = None,
) -> ProcessGenerator:
    """``yield from``-able: create a remote file and connect to its providers."""
    file = yield from fs.create(name, size, providers=providers, spread=spread)
    yield from file.open()
    return file


def open_remote_store(
    fs: RemoteMemoryFilesystem, file_id: int, name: str, pages: int, spread: bool = False
) -> ProcessGenerator:
    """``yield from``-able: an opened remote file as a page store."""
    file = yield from open_remote_file(fs, name, pages * PAGE_SIZE, spread)
    return RemotePageFile(file_id, file, capacity_pages=pages)


def remote_placements(plan: TierPlan):
    """(file id, resolved tier) of every remote store in ``plan``:
    extension levels fast to slow, then TempDB when it has pages."""
    for index, tier in enumerate(plan.extension):
        if tier.medium == "remote":
            yield ext_file_id(index), tier
    if plan.tempdb.medium == "remote" and plan.tempdb.capacity_pages:
        yield TEMPDB_FILE_ID, plan.tempdb


def open_remote_stores(
    fs: RemoteMemoryFilesystem, plan: TierPlan, file_name: str, spread: bool
) -> ProcessGenerator:
    """``yield from``-able: open every remote store of ``plan``, each file
    named ``file_name.format(tier=<tier name>)``."""
    stores = []
    for file_id, tier in remote_placements(plan):
        stores.append((yield from open_remote_store(
            fs, file_id, file_name.format(tier=tier.name), tier.capacity_pages, spread
        )))
    return stores


def compile_plan(
    server: Server, plan: TierPlan, remote_stores: Iterable[PageStore], bp_pages: int,
    workspace_bytes: Optional[int] = None,
) -> Database:
    """A :class:`~repro.engine.Database` on ``server`` laid out by ``plan``.

    Remote placements take their store from ``remote_stores`` by file
    id; local ones map onto the server's ``hdd``/``ssd``.  Data files
    live on the HDD array; a plan without TempDB pages gets no TempDB.
    """
    remote = {store.file_id: store for store in remote_stores}
    media = server.devices
    extension = build_stack(
        Tier(
            name=tier.name,
            store=remote.get(ext_file_id(index)) or DevicePageFile(
                ext_file_id(index), server, media[tier.medium],
                capacity_pages=tier.capacity_pages,
            ),
            medium=tier.medium,
            latency_class=tier.latency_class,
            promote_on_hit=tier.promote_on_hit,
        )
        for index, tier in enumerate(plan.extension)
    )
    tempdb = None
    if plan.tempdb.capacity_pages:
        tempdb = remote.get(TEMPDB_FILE_ID) or DevicePageFile(
            TEMPDB_FILE_ID, server, media[plan.tempdb.medium],
            capacity_pages=plan.tempdb.capacity_pages, base_offset=512 * GB,
            chunk_pages=None,  # TempDB is preallocated contiguously
        )
    return Database(
        server, bp_pages=bp_pages, data_device=media["hdd"],
        log_device=media[plan.wal.medium], extension=extension,
        tempdb_store=tempdb, workspace_bytes=workspace_bytes,
    )


def remote_level(extension):
    """The first extension level backed by remote memory, or None (a
    single extension is its own only level)."""
    levels = () if extension is None else getattr(extension, "levels", (extension,))
    for level in levels:
        if isinstance(level.store, RemotePageFile):
            return level
    return None


def bind_metrics(
    name: str, cluster: Cluster, pools: Optional[dict] = None,
    files: Iterable[RemoteFile] = (), reliability=None,
) -> MetricsRegistry:
    """One registry adopting the cluster, then the named buffer pools,
    the remote files and the reliability layer."""
    registry = MetricsRegistry(name)
    register_cluster(registry, cluster)
    for prefix, pool in (pools or {}).items():
        register_pool(registry, prefix, pool)
    for file in files:
        register_remote_file(registry, f"rfile.{file.name}", file)
    if reliability is not None:
        register_reliability(registry, "reliability", reliability)
    return registry
