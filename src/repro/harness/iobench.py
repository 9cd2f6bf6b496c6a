"""Builders for the I/O micro-benchmark targets (Figures 3-6).

``build_io_target`` assembles the simulated cluster for one design
alternative and returns a uniform target with ``read(offset, size)`` /
``write(offset, size)`` generator methods, so :func:`repro.workloads.sqlio.
run_sqlio` can drive any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..broker import MemoryBroker
from ..cluster import Cluster, Server
from ..remotefile import AccessPolicy, RemoteFile
from ..storage import GB, MB, Raid0Array, SsdDevice
from ..telemetry import MetricsRegistry
from .topology import (
    SMB_CLIENTS,
    add_memory_servers,
    add_server,
    bind_metrics,
    new_cluster,
    offer_memory,
    open_remote_file,
    remote_filesystem,
    smb_file_server,
)

__all__ = ["IoTarget", "build_io_target", "build_custom_multi", "IO_DESIGNS"]

#: Designs understood by :func:`build_io_target` (Figure 3/4 x-axis).
IO_DESIGNS = (
    "HDD(4)",
    "HDD(8)",
    "HDD(20)",
    "SSD",
    "SMB+RamDrive",
    "SMBDirect+RamDrive",
    "Custom",
)

#: Memory-region size every iobench memory server offers in.
MR_BYTES = 256 * MB

#: Address span the micro-benchmark sweeps (matches the paper's setup
#: where the RamDrive/remote file far exceeds any cache).
DEFAULT_SPAN = 64 * GB


@dataclass
class IoTarget:
    """A uniform read/write target plus the cluster behind it."""

    name: str
    cluster: Cluster
    span_bytes: int
    _reader: object
    db_server: Server | None = None
    memory_servers: tuple[Server, ...] = ()
    #: Every instrument behind the target (devices, NICs, CPUs, remote
    #: file) adopted into one registry; populated by the builders.
    metrics: MetricsRegistry | None = None

    def read(self, offset: int, size: int):
        yield from self._reader.read(offset, size)

    def write(self, offset: int, size: int):
        yield from self._reader.write(offset, size)


class _RemoteFileAdapter:
    """Presents a RemoteFile as a (offset, size) target (timing-only)."""

    def __init__(self, file: RemoteFile):
        self.file = file

    def read(self, offset: int, size: int):
        yield from self.file.read_nodata(offset, size)

    def write(self, offset: int, size: int):
        yield from self.file.write_nodata(offset, size)


def _bind_metrics(target: IoTarget) -> IoTarget:
    """Adopt every instrument behind ``target`` into one registry."""
    file = getattr(target._reader, "file", None)
    target.metrics = bind_metrics(
        target.name, target.cluster, files=() if file is None else (file,)
    )
    return target


def build_io_target(design: str, span_bytes: int = DEFAULT_SPAN, seed: int = 0) -> IoTarget:
    """Build the cluster + target for one Figure-3/4 design alternative.

    Local designs read the DB server's device directly; remote ones go
    through an SMB client or a remote file on one memory server.
    """
    cluster, network = new_cluster(seed)
    db = add_server(cluster, network, "db")
    sim = cluster.sim
    memory_servers: list[Server] = []
    if design.startswith("HDD("):
        reader = db.attach_device("data", Raid0Array(
            sim, spindles=int(design[4:-1]), name=design, rng=cluster.rng.stream("hdd")
        ))
    elif design == "SSD":
        reader = db.attach_device("ssd", SsdDevice(sim, name="ssd"))
    elif design in IO_DESIGNS:
        memory_servers = add_memory_servers(
            cluster, network, 1, max(384 * GB, span_bytes + 64 * GB)
        )
        if design == "Custom":
            reader = _build_custom(cluster, db, memory_servers, span_bytes)
        else:
            protocol = "smb" if design == "SMB+RamDrive" else "smbdirect"
            reader = SMB_CLIENTS[protocol](db, smb_file_server(memory_servers[0]))
    else:
        raise ValueError(f"unknown design {design!r}; expected one of {IO_DESIGNS}")
    return _bind_metrics(IoTarget(
        design, cluster, span_bytes, reader, db_server=db,
        memory_servers=tuple(memory_servers),
    ))


def _build_custom(
    cluster: Cluster,
    db: Server,
    memory_servers: list[Server],
    span_bytes: int,
    policy: AccessPolicy = AccessPolicy.SYNC,
) -> _RemoteFileAdapter:
    broker = MemoryBroker(cluster.sim)
    fs = remote_filesystem(db, broker, policy=policy)
    per_server = -(-span_bytes // len(memory_servers))  # ceil division

    def setup():
        yield from fs.initialize()
        yield from offer_memory(memory_servers, broker, MR_BYTES, per_server + MR_BYTES)
        return (yield from open_remote_file(
            fs, "iobench", span_bytes, spread=len(memory_servers) > 1,
            providers=[s.name for s in memory_servers],
        ))

    return _RemoteFileAdapter(_run(cluster, setup()))


def _run(cluster: Cluster, generator):
    sim = cluster.sim
    return sim.run_until_complete(sim.spawn(generator))


def build_custom_multi(
    n_memory_servers: int,
    span_bytes: int = DEFAULT_SPAN,
    seed: int = 0,
    policy: AccessPolicy = AccessPolicy.SYNC,
) -> IoTarget:
    """Custom design with remote memory pooled from N servers (Figure 5)."""
    cluster, network = new_cluster(seed)
    db = add_server(cluster, network, "db")
    memory_servers = add_memory_servers(
        cluster, network, n_memory_servers, max(384 * GB, span_bytes + 64 * GB)
    )
    target = _build_custom(cluster, db, memory_servers, span_bytes, policy=policy)
    return _bind_metrics(IoTarget(
        f"Custom x{n_memory_servers}", cluster, span_bytes, target,
        db_server=db, memory_servers=tuple(memory_servers),
    ))


def build_multi_db(
    n_db_servers: int,
    per_db_span: int = 8 * GB,
    seed: int = 0,
    policy: AccessPolicy = AccessPolicy.SYNC,
) -> list[IoTarget]:
    """N database servers sharing one memory server (Figure 6/25 setup).

    Each DB server gets its own staging pool and remote file of
    ``per_db_span`` bytes, all leased from the single provider.
    """
    cluster, network = new_cluster(seed)
    [mem] = add_memory_servers(
        cluster, network, 1, max(384 * GB, n_db_servers * per_db_span + 64 * GB)
    )
    broker = MemoryBroker(cluster.sim)
    _run(cluster, offer_memory([mem], broker, MR_BYTES, n_db_servers * per_db_span + 512 * MB))
    targets = []
    for index in range(n_db_servers):
        db = add_server(cluster, network, f"db{index}")
        fs = remote_filesystem(db, broker, policy=policy)

        def setup(fs=fs, index=index):
            yield from fs.initialize()
            return (yield from open_remote_file(fs, f"iobench{index}", per_db_span))

        targets.append(
            IoTarget(
                f"db{index}", cluster, per_db_span, _RemoteFileAdapter(_run(cluster, setup())),
                db_server=db, memory_servers=(mem,),
            )
        )
    # Bind after the loop so every registry sees the full cluster.
    return [_bind_metrics(target) for target in targets]
