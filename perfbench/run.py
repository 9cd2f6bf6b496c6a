"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpch_remote --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up several times (the median is
``setup_s``), runs the measured phase untraced and prints the
end-to-end metrics.  ``--trace 1`` runs the measured phase untraced and
then again, on a fresh set-up, with every layer's entry points wrapped
and host time sampled by layer (see ``tracer.py``); it prints the
per-layer metrics and fails the run unless both phases agree bit for
bit on answers, virtual metrics and exact counts.  Either way every answer is checked against
``reference.json``, and so are the virtual metrics and exact counts of
the seeds recorded there.  ``--record`` stores this run's virtual
metrics and exact counts as the reference for its seed instead.

The last line of standard output is the JSON result; everything else
(a readable table, mismatch diagnostics) goes before it or to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".perfbench"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

UNITS = {
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "sim_throughput_per_s": "1/s", "sim_latency_p50_ms": "ms",
    "sim_latency_tail_ms": "ms", "attempts_per_op": "count",
    "op_success_rate": "ratio",
}


# ---------------------------------------------------------------------------
# Metrics from a measured phase
# ---------------------------------------------------------------------------


def tail_index(n: int) -> int:
    """Index (sorted ascending) of the highest order statistic with at
    least ten samples beyond it; the maximum when n < 11."""
    return n - 11 if n >= 11 else n - 1


def virtual_metrics(phase) -> dict[str, float]:
    """Virtual-time end-to-end metrics over completed operations
    (failures are reported by ``op_success_rate`` and ``failed``)."""
    latencies = sorted(op.latency_us for op in phase.ops if op.completed)
    if not latencies:
        latencies = [0.0]
    completed = sum(op.completed for op in phase.ops)
    virtual_us = phase.counts["virtual_us"]
    return {
        "sim_throughput_per_s": completed / (virtual_us / 1e6) if virtual_us else 0.0,
        "sim_latency_p50_ms": statistics.median(latencies) / 1e3,
        "sim_latency_tail_ms": latencies[tail_index(len(latencies))] / 1e3,
        "attempts_per_op": phase.attempts / max(1, completed),
        "op_success_rate": completed / len(phase.ops),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def exact_counts(phase) -> dict[str, float]:
    c = phase.counts
    completed = sum(op.completed for op in phase.ops)
    ok_events = c.get("ok_events", c["events"])
    return {
        "kernel.events": c["events"],
        "kernel.events_per_op": _ratio(ok_events, completed),
        "kernel.events_per_remote_read": _ratio(c["events"], c["remote_reads"]),
        "dist.events_per_batch": _ratio(ok_events, c.get("exchange_batches", 0)),
        "wal.appends_per_commit": _ratio(c["wal_appends"], c["commits"]),
    }


def outcome_digest(phase) -> str:
    """One digest over every operation's key, answer and failure."""
    text = "\n".join(f"{op.key}|{op.digest}|{op.error}" for op in phase.ops)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(phase) -> dict:
    """Everything that must repeat exactly for one (workload, seed)."""
    return {
        "virtual": virtual_metrics(phase),
        "counts": exact_counts(phase),
        "outcomes": outcome_digest(phase),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Answer and reference checks
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_answers(workload, phase, reference: dict) -> list[str]:
    """Mark operations whose answer differs from the reference as failed."""
    answers = reference.get("answers", {}).get(workload.name)
    if answers is None:
        return []
    problems = []
    for op in phase.ops:
        if not op.completed:
            continue
        key = op.key.split("@")[0]
        expected = answers.get(key)
        if expected != op.digest:
            problems.append(f"{op.key}: answer {op.digest}, reference {expected}")
            op.error = "wrong answer"
    return problems


def compare(label: str, got: dict, want: dict) -> list[str]:
    problems = []
    for section in ("virtual", "counts"):
        for name, value in want[section].items():
            if got[section].get(name) != value:
                problems.append(
                    f"{label}: {name} = {got[section].get(name)!r}, expected {value!r}"
                )
    if got["outcomes"] != want["outcomes"]:
        problems.append(f"{label}: operation outcomes differ")
    return problems


# ---------------------------------------------------------------------------
# Layer attribution (traced run)
# ---------------------------------------------------------------------------


def _nic_service_us(port, dst, size: int) -> float:
    """Unqueued virtual time of one healthy NIC transfer (TX, wire, RX)."""

    def engine(p) -> float:
        return (p.profile.per_message_us + size / p.profile.bandwidth_bytes_per_us) * (
            p.latency_multiplier
        )

    return engine(port) + port.network.propagation_us + port.profile.processing_us + engine(dst)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=0):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def trace_targets() -> list:
    """Every wrapped entry point, by layer (metric prefix)."""
    from repro.broker.broker import MemoryBroker
    from repro.dist import exchange, planner
    from repro.engine.btree import BTree
    from repro.engine.bufferpool import BufferPool, BufferPoolExtension
    from repro.engine.operators import Operator
    from repro.engine.tempdb import TempDb
    from repro.engine.wal import WriteAheadLog
    from repro.net.fabric import NicPort
    from repro.net.rdma import QueuePair
    from repro.plan.lower import Lowering
    from repro.reliability.layer import ReliabilityLayer
    from repro.remotefile.api import RemoteFile
    from repro.sim.cpu import Cpu
    from repro.storage.device import BlockDevice
    from repro.tiers.stack import TierStack
    from repro.txn.locks import LockManager
    from repro.txn.transaction import Transaction, TransactionManager
    from repro.workloads import tpcc
    from tracer import Target

    def many(layer, owner, *attrs, **hooks):
        return [Target(layer, owner, attr, **hooks) for attr in attrs]

    def operator_classes(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from operator_classes(sub)

    targets = [
        *many("cpu", Cpu, "compute", "acquire_core"),
        *many("bufferpool", BufferPool, "get_page", "prefetch", "update_page",
              "mark_dirty", "put_page", "_evict_one"),
        *many("tiers", BufferPoolExtension, "get", "put"),
        *many("tiers", TierStack, "get", "put"),
        Target("remotefile", RemoteFile, "read_object",
               size=lambda a, k: _arg(a, k, 2, "size")),
        Target("remotefile", RemoteFile, "write_object",
               size=lambda a, k: _arg(a, k, 2, "size")),
        Target("remotefile", RemoteFile, "read", size=lambda a, k: _arg(a, k, 2, "size")),
        Target("remotefile", RemoteFile, "write",
               size=lambda a, k: len(_arg(a, k, 2, "data", b""))),
        Target("rdma", QueuePair, "read", size=lambda a, k: _arg(a, k, 3, "size")),
        Target("rdma", QueuePair, "write", size=lambda a, k: (
            len(_arg(a, k, 3, "payload", None) or b"") or _arg(a, k, 4, "size", 0) or 0
        )),
        Target("fabric", NicPort, "transfer", size=lambda a, k: _arg(a, k, 2, "size"),
               on_return=lambda a, k, elapsed: elapsed - _nic_service_us(
                   a[0], _arg(a, k, 1, "dst"), _arg(a, k, 2, "size"))),
        Target("fabric", NicPort, "send_control"),
        *many("plan", Lowering, "lower"),
        Target("plan", planner, "place_exchanges"),
        *many("dist", exchange.ExchangeRuntime, "send", "receive_rows", "exchange_object"),
        *many("btree", BTree, "search", "range_scan", "insert", "update_where", "delete"),
        *many("wal", WriteAheadLog, "append", "append_nowait", "log_update"),
        *many("txn", LockManager, "acquire", "release_all"),
        *many("txn", Transaction, "lock", "read", "update", "insert", "delete", "scan",
              "commit", "rollback"),
        Target("txn", TransactionManager, "run"),
        *many("tempdb", TempDb, "write_run", "read_run", "read_extent"),
        Target("storage", BlockDevice, "io", size=lambda a, k: _arg(a, k, 3, "size")),
        *many("broker", MemoryBroker, "acquire", "renew", "release"),
        *many("reliability", ReliabilityLayer, "with_deadline", "call_idempotent"),
        *many("workloads", tpcc, "new_order", "payment", "order_status", "delivery",
              "stock_level"),
    ]
    seen = set()
    for cls in operator_classes(Operator):
        if cls in seen or "run" not in cls.__dict__:
            continue
        seen.add(cls)
        layer = "dist" if cls.__module__.startswith("repro.dist") else "operators"
        targets.append(Target(layer, cls, "run"))
    return targets


#: The module (or package) whose code counts as each layer's self time;
#: code in no layer's module counts as ``kernel`` (see
#: ``tracer.LayerSampler``).
LAYER_MODULES = {
    "cpu": "repro.sim.cpu",
    "bufferpool": "repro.engine.bufferpool",
    "tiers": "repro.tiers",
    "remotefile": "repro.remotefile",
    "rdma": "repro.net.rdma",
    "fabric": "repro.net.fabric",
    "operators": "repro.engine.operators",
    "plan": "repro.plan",
    "btree": "repro.engine.btree",
    "wal": "repro.engine.wal",
    "txn": "repro.txn",
    "tempdb": "repro.engine.tempdb",
    "storage": "repro.storage",
    "dist": "repro.dist",
    "broker": "repro.broker",
    "reliability": "repro.reliability",
    "workloads": "repro.workloads",
}
#: Layers between the buffer pool and the wire: the remote page path.
REMOTE_PATH = ("tiers", "remotefile", "rdma", "fabric")


def layer_metrics(phase, tracer, self_s: dict, untraced_s: float,
                  setup_s: float, setup_self: dict) -> dict:
    """Per-layer metrics of a traced phase: name -> (value, unit).

    ``self_s`` is the sampled self time of the traced phase by layer
    (``kernel`` and ``trace`` included); ``setup_s`` is the host time of
    its set-up and ``setup_self`` the sampled self time of that.
    """
    from repro.engine.page import PAGE_SIZE

    c = phase.counts
    traced_s = phase.host_s
    # Host time of the program itself: the traced phase minus the
    # tracer's own work.
    program_s = traced_s - self_s.get("trace", 0.0)
    counts = exact_counts(phase)
    requests = c["pool_hits"] + c["pool_misses"]
    m = {
        "kernel.events": (counts["kernel.events"], "count"),
        "kernel.events_per_op": (counts["kernel.events_per_op"], "count"),
        "kernel.events_per_remote_read": (counts["kernel.events_per_remote_read"], "count"),
        "kernel.self_s": (self_s.get("kernel", 0.0), "s"),
        "cpu.compute_calls": (tracer.count("Cpu.compute"), "count"),
        "cpu.busy_frac": (phase.cpu_busy_frac, "ratio"),
        "bufferpool.requests": (requests, "count"),
        "bufferpool.hit_ratio": (_ratio(c["pool_hits"], requests), "ratio"),
        "bufferpool.ext_reads": (c["pool_ext_reads"], "count"),
        "bufferpool.disk_reads": (c["pool_disk_reads"], "count"),
        "bufferpool.evictions": (tracer.count("BufferPool._evict_one"), "count"),
        "bpext.hit_ratio": (
            _ratio(c["bpext_hits"], c["bpext_hits"] + c["bpext_misses"]), "ratio"),
        "bpext.puts": (tracer.count("BufferPoolExtension.put"), "count"),
        "remotefile.reads": (c["remote_reads"], "count"),
        "remotefile.writes": (c["remote_writes"], "count"),
        "remotefile.bytes": (
            tracer.bytes_of("RemoteFile.read_object") + tracer.bytes_of("RemoteFile.write_object")
            + tracer.bytes_of("RemoteFile.read") + tracer.bytes_of("RemoteFile.write"), "B"),
        "remotefile.retries": (c["reliability_retries"], "count"),
        "rdma.ops": (tracer.count("QueuePair.read") + tracer.count("QueuePair.write"), "count"),
        "rdma.bytes": (
            tracer.bytes_of("QueuePair.read") + tracer.bytes_of("QueuePair.write"), "B"),
        "fabric.transfers": (tracer.count("NicPort.transfer"), "count"),
        "fabric.bytes": (c["nic_bytes"], "B"),
        "fabric.queue_wait_us": (tracer.returned_of("NicPort.transfer"), "us"),
        "operators.rows_out": (c["rows_out"], "count"),
        "plan.lower_s": (self_s.get("plan", 0.0), "s"),
        "plan.nodes": (c.get("plan_nodes", 0), "count"),
        "btree.searches": (
            tracer.count("BTree.search") + tracer.count("BTree.range_scan"), "count"),
        "wal.appends": (c["wal_appends"], "count"),
        "wal.bytes": (c["wal_bytes"], "B"),
        "wal.flushes": (c["wal_flushes"], "count"),
        "wal.appends_per_commit": (counts["wal.appends_per_commit"], "count"),
        "txn.lock_requests": (c["lock_requests"], "count"),
        "txn.lock_waits": (c["lock_waits"], "count"),
        "txn.deadlocks": (c["deadlocks"], "count"),
        "txn.lock_wait_us": (c["lock_wait_us"], "us"),
        "tempdb.spilled_pages": (c["tempdb_bytes"] / PAGE_SIZE, "count"),
        "storage.ios": (c["storage_ios"], "count"),
        "storage.bytes": (c["storage_bytes"], "B"),
        "dist.exchange_batches": (c.get("exchange_batches", 0), "count"),
        "dist.exchange_bytes": (c.get("exchange_bytes", 0), "B"),
        "dist.credit_stalls_us": (c.get("credit_stalls_us", 0.0), "us"),
        "dist.events_per_batch": (counts["dist.events_per_batch"], "count"),
        "broker.lease_rpcs": (tracer.layer_calls("broker"), "count"),
        "reliability.retries": (c["reliability_retries"], "count"),
        "reliability.hedges": (c["reliability_hedges"], "count"),
        # Set-up is data generation (code of ``repro.workloads``) and
        # everything else: topology, loading, prewarm, warm-up operations.
        "harness.build_s": (setup_s - setup_self.get("workloads", 0.0), "s"),
        "workloads.generate_s": (setup_self.get("workloads", 0.0), "s"),
        "trace.overhead_ratio": (_ratio(traced_s, untraced_s), "ratio"),
        "trace.self_s": (self_s.get("trace", 0.0), "s"),
        "trace.attributed_ratio": (_ratio(program_s, untraced_s), "ratio"),
        "trace.spans": (tracer.spans_total, "count"),
        "trace.remote_path_share": (
            _ratio(sum(self_s.get(layer, 0.0) for layer in REMOTE_PATH), program_s), "ratio"),
    }
    for layer in LAYER_MODULES:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return m


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_setup(workload, repeats: int):
    """Set the workload up ``repeats`` times; (last env, wall intervals)."""
    intervals = []
    env = None
    for _ in range(repeats):
        env = None
        gc.collect()
        start = time.perf_counter()
        env = workload.setup()
        intervals.append((start, time.perf_counter()))
    return env, intervals


def run(workload_name: str, seed: int, seconds: int, trace: bool, record: bool = False):
    """Run one benchmark invocation; returns (result dict, report lines)."""
    from hostclock import NominalClock
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    reference = load_reference()
    inputs = workload.inputs(seed, seconds)
    clock = NominalClock()
    with clock if not trace else contextlib.nullcontext():
        env, setup_intervals = timed_setup(workload, 1 if trace else SETUP_REPEATS)
        gc.collect()  # collect set-up garbage before timing starts
        phase = workload.measure(env, inputs)
    env = None
    problems = check_answers(workload, phase, reference) + phase.check_failures
    got = fingerprint(phase)

    key = (workload.name, str(seconds), str(seed))
    runs = reference.setdefault("runs", {})
    recorded = runs.get(key[0], {}).get(key[1], {}).get(key[2])
    if record:
        if problems:
            raise SystemExit("refusing to record a run with failed checks:\n" + "\n".join(problems))
        runs.setdefault(key[0], {}).setdefault(key[1], {})[key[2]] = got
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    elif recorded is not None:
        problems += compare("reference", got, recorded)

    notes: list[str] = []
    if not trace:
        low, mid, high = clock.scale_range()
        notes.append(f"  (clock) nominal/CPU scale min {low:.3f} median {mid:.3f} max {high:.3f}"
                     f" over {len(clock.probes)} probes")
        virtual = got["virtual"]
        metrics = {
            "run_s": (sum(clock.seconds(*interval) for interval in phase.intervals), "s"),
            "setup_s": (statistics.median(clock.seconds(*i) for i in setup_intervals), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            **{name: (value, UNITS[name]) for name, value in virtual.items()},
        }
    else:
        from tracer import LayerSampler, LayerTracer
        from workloads import Stretches

        tracer = LayerTracer(trace_targets())
        # This file's size and on_return hooks are tracer cost too.
        sampler = LayerSampler(LAYER_MODULES, trace_files=(__file__,))
        gc.collect()
        with tracer:
            start = time.perf_counter()
            with sampler:
                traced_env = workload.setup()
            setup_s = time.perf_counter() - start
            setup_self = sampler.self_s(setup_s)
            gc.collect()
            tracer.reset()
            sampler.reset()
            traced = workload.measure(traced_env, inputs, Stretches(
                sampling=sampler, excluded=tracer.suspended))
        traced_env = None
        problems += check_answers(workload, traced, reference) + traced.check_failures
        problems += compare("traced vs untraced", fingerprint(traced), got)
        metrics = layer_metrics(
            traced, tracer, sampler.self_s(traced.host_s), phase.host_s, setup_s, setup_self
        )
        total = sampler.total
        notes.append(f"  (sampled) {total} samples of the traced phase; largest files:")
        for filename, k in sorted(sampler.files.items(), key=lambda item: -item[1])[:12]:
            name = filename.split("/src/")[-1].split("/perfbench/")[-1]
            notes.append(f"  (sampled) {k / total:6.1%} {sampler.layer_of(filename):11s} {name}")
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"spans-{workload.name}.npz")

    failed = sum(not op.completed for op in phase.ops)
    result = {
        "correct": not problems,
        "attempted": len(phase.ops),
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    lines = [f"{workload.name} seed={seed} seconds={seconds} trace={int(trace)}"]
    errors: dict[str, int] = {}
    for op in phase.ops:
        if op.error is not None:
            errors[op.error] = errors.get(op.error, 0) + 1
    lines += [f"  failed op: {count} x {error}" for error, count in sorted(errors.items())]
    lines.append(f"  (wall) measured phase {phase.host_s:.3f} s")
    if recorded is None and not record:
        lines.append("  no recorded fingerprint for this seed: answers checked, "
                     "virtual metrics and exact counts not gated")
    if phase.rebuilds:
        lines.append(f"  rebuilt {phase.rebuilds} poisoned clusters in {phase.rebuild_s:.2f} s")
    lines += notes
    lines += [f"  {name:34s} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"  (exact) {name:26s} {value:>16.10g}" for name, value in got["counts"].items()]
    lines += [f"  CHECK FAILED: {problem}" for problem in problems]
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run as the reference for its seed")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), args.record)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
