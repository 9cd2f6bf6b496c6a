"""Golden fingerprint of every cluster builder's wiring.

Each builder (``build_database``, the iobench builders, ``build_dist``,
``build_fleet``) is run at a small size and summarised: setup virtual
time and event count, servers in creation order with their devices,
memory and an RNG probe per HDD array, remote files with their
providers and leases, and the file id of every extension level and
TempDB store.  Any change to server order, RNG stream names, file ids,
offer or MR sizes, staging schedulers or the order of setup I/O shows
up here.  Refresh deliberately with::

    REPRO_UPDATE_BENCH=1 PYTHONPATH=src python -m pytest \\
        tests/harness/test_builder_fingerprint.py
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.dist import DistSpec, build_dist
from repro.fleet import FleetSpec, TenantSpec, build_fleet
from repro.harness import IO_DESIGNS, Design, build_custom_multi, build_database, build_io_target
from repro.harness.iobench import build_multi_db
from repro.storage import GB, MB, Raid0Array
from repro.tiers import TierDef, TierSpec

GOLDEN = Path(__file__).with_name("builder_fingerprint.json")
UPDATE = os.environ.get("REPRO_UPDATE_BENCH", "") == "1"


def _device(key, device):
    entry = [key, device.name, type(device).__name__]
    if isinstance(device, Raid0Array):
        # Peek the shared spindle stream without advancing it: the
        # value identifies the RNG stream name the builder chose.
        rng = copy.deepcopy(device.spindles[0]._rng)
        entry += [len(device.spindles), int(rng.integers(1 << 30))]
    return entry


def _servers(cluster):
    return [
        {
            "name": server.name,
            "cores": server.spec.cores,
            "memory_bytes": server.memory_bytes,
            "memory_committed": server.memory_committed,
            "devices": [_device(key, device) for key, device in server.devices.items()],
        }
        for server in cluster
    ]


def _remote_file(file):
    return {
        "name": file.name,
        "owner": file.owner.name,
        "providers": list(file.providers),
        "leases": len(file.leases),
        "region_bytes": sorted({lease.region.size for lease in file.leases}),
        "policy": file.policy.name,
        "staging_schedulers": file.staging.schedulers,
        "reliability": file.reliability is not None,
    }


def _store(store):
    if store is None:
        return None
    entry = {
        "kind": type(store).__name__,
        "file_id": store.file_id,
        "capacity_pages": store.capacity_pages,
    }
    device = getattr(store, "device", None)
    if device is not None:
        entry["device"] = device.name
        entry["base_offset"] = store.base_offset
        entry["chunk_pages"] = store.chunk_pages
    remote = getattr(store, "remote_file", None)
    if remote is not None:
        entry["remote_file"] = remote.name
    return entry


def _database(database):
    extension = database.pool.extension
    levels = []
    if extension is not None:
        for level in getattr(extension, "levels", (extension,)):
            tier = level.tier
            levels.append({
                "name": tier.name,
                "medium": tier.medium,
                "latency_class": tier.latency_class,
                "promote_on_hit": tier.promote_on_hit,
                "store": _store(level.store),
            })
    tempdb = database.tempdb
    return {
        "server": database.server.name,
        "bp_pages": database.pool.capacity_pages,
        "data_device": database.data_device.name,
        "log_device": database.wal.device.name,
        "workspace_bytes": database.grants.total_bytes,
        "extension": levels,
        "tempdb": _store(tempdb.store) if tempdb is not None else None,
        "reliability": database.pool.reliability is not None,
    }


def _fingerprint(cluster, files=(), databases=()):
    sim = cluster.sim
    return {
        "now_us": sim.now,
        "events_processed": sim.events_processed,
        "servers": _servers(cluster),
        "remote_files": [_remote_file(file) for file in files],
        "databases": [_database(database) for database in databases],
    }


def _dbbench(design, **kwargs):
    setup = build_database(
        design, bp_pages=64, bpext_pages=256, tempdb_pages=128, data_spindles=4,
        **kwargs,
    )
    files = setup.remote_fs.files.values() if setup.remote_fs is not None else ()
    return _fingerprint(setup.cluster, files, [setup.database])


def _iobench(targets):
    cluster = targets[0].cluster
    files = [
        target._reader.file for target in targets
        if getattr(target._reader, "file", None) is not None
    ]
    return _fingerprint(cluster, files)


DIST_SPEC = DistSpec(
    name="fp", db_servers=3, memory_servers=2, bp_pages=64, tempdb_pages=64,
    data_spindles=2, db_cores=4,
)
DIST_EXT = {"page": (512, 0, 0), "query": (0, 0, 0), "hybrid": (171, 171, 171)}


def _dist(strategy):
    setup = build_dist(replace(DIST_SPEC, name=f"fp.{strategy}", ext_pages=DIST_EXT[strategy]))
    files = [file for fs in setup.remote_fs.values() for file in fs.files.values()]
    return _fingerprint(setup.cluster, files, setup.databases)


TWO_TIER = TierSpec(
    name="fp-two-tier",
    extension=(TierDef(medium="ssd"), TierDef(medium="remote", promote_on_hit=True)),
    tempdb="hdd",
    wal="hdd",
    protocol="ndspi",
)


def _fleet(marketplace):
    spec = FleetSpec(
        name="fp",
        memory_servers=2,
        tenants=(
            TenantSpec(name="acme", replicas=2, ext_pages=1024, bp_pages=32, n_rows=500),
            TenantSpec(name="zen", replicas=1, ext_pages=256, bp_pages=32, n_rows=500,
                       tier=TWO_TIER),
        ),
    )
    setup = build_fleet(spec, marketplace=marketplace)
    replicas = [
        replica for _name, runtime in setup.tenants.items() for replica in runtime.replicas
    ]
    files = [file for replica in replicas for file in replica.fs.files.values()]
    return _fingerprint(setup.cluster, files, [replica.database for replica in replicas])


BUILDS = {
    **{f"dbbench.{design.name}": (lambda d=design: _dbbench(d)) for design in Design},
    "dbbench.CUSTOM.analytic": lambda: _dbbench(Design.CUSTOM, analytic=True),
    "dbbench.HDD_SSD.analytic": lambda: _dbbench(Design.HDD_SSD, analytic=True),
    "dbbench.CUSTOM.mem2": lambda: _dbbench(Design.CUSTOM, n_memory_servers=2),
    "dbbench.CUSTOM.reliability": lambda: _dbbench(Design.CUSTOM, reliability=True),
    **{
        f"iobench.{design}": (lambda d=design: _iobench([build_io_target(d, span_bytes=1 * GB)]))
        for design in IO_DESIGNS
    },
    "iobench.custom_multi3": lambda: _iobench([build_custom_multi(3, span_bytes=1 * GB)]),
    "iobench.multi_db3": lambda: _iobench(build_multi_db(3, per_db_span=256 * MB)),
    **{f"dist.{strategy}": (lambda s=strategy: _dist(s)) for strategy in DIST_EXT},
    "fleet.two_tenants.static": lambda: _fleet(None),
    "fleet.two_tenants.marketplace": lambda: _fleet(True),
}


def _dumps(golden: dict) -> str:
    """JSON with one line per server, remote file and database, so a
    change to one builder reads as a short diff."""
    builds = []
    for name, fingerprint in sorted(golden.items()):
        fields = []
        for key, value in sorted(fingerprint.items()):
            text = json.dumps(value)
            if isinstance(value, list) and value:
                rows = ",\n".join(f"   {json.dumps(item, sort_keys=True)}" for item in value)
                text = f"[\n{rows}\n  ]"
            fields.append(f"  {json.dumps(key)}: {text}")
        builds.append(f" {json.dumps(name)}: {{\n" + ",\n".join(fields) + "\n }")
    return "{\n" + ",\n".join(builds) + "\n}\n"


def _golden() -> dict:
    if GOLDEN.exists():
        return json.loads(GOLDEN.read_text())
    return {}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_builder_fingerprint(name):
    got = json.loads(json.dumps(BUILDS[name]()))
    golden = _golden()
    if UPDATE:
        golden[name] = got
        GOLDEN.write_text(_dumps(golden))
        return
    assert name in golden, f"no golden for {name}; record with REPRO_UPDATE_BENCH=1"
    assert got == golden[name]


def test_golden_has_no_stale_builds():
    assert sorted(_golden()) == sorted(BUILDS)
