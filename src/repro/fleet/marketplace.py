"""The memory marketplace: demand-driven lease reallocation over the pool.

The paper's broker (Section 4.2) is a static allocator: first come,
first served, and a lease lives until its holder releases it or the
provider needs the memory back.  At fleet scale — tens of databases
with shifting, bursty demand sharing one elastic pool (Wang et al.,
PAPERS.md) — that leaves memory parked with idle tenants while loaded
ones thrash.  The :class:`Marketplace` closes the loop:

* tenants publish :class:`DemandSignal`\\ s at every workload epoch
  (offered intensity, extension miss rate, epoch backlog);
* a rebalance daemon periodically recomputes each tenant's *target*
  extension size from demand × :class:`QosClass` weight over the live
  pool budget (which shrinks automatically when providers crash);
* shrink-before-grow with per-tenant cooldowns reclaims pages from
  low-priority tenants first and prevents resize thrash;
* an anti-affinity placement hook (installed into
  :attr:`~repro.broker.MemoryBroker.placement`) spreads each tenant's
  leases across providers so one memory-server crash degrades a tenant
  instead of destroying it.

Everything is deterministic: demand comes from seeded traffic shapes,
targets are integer arithmetic over the signals, and tie-breaks are
lexicographic — the same seed replays the same marketplace history.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..broker import BrokerUnavailable, InsufficientMemory, Lease, MemoryBroker
from ..engine.page import PAGE_SIZE
from ..sim.kernel import ProcessGenerator, Simulator
from ..telemetry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from .topology import TenantRuntime

__all__ = [
    "DemandSignal",
    "Marketplace",
    "MarketplacePolicy",
    "QosClass",
    "verify_broker_consistency",
]


class QosClass(enum.IntEnum):
    """Tenant priority class; higher values win contended memory."""

    BRONZE = 0
    SILVER = 1
    GOLD = 2


#: Relative marketplace weight per QoS class (GOLD demand counts 4x a
#: BRONZE tenant's at the same intensity).
QOS_WEIGHTS = {QosClass.BRONZE: 1.0, QosClass.SILVER: 2.0, QosClass.GOLD: 4.0}


@dataclass(frozen=True)
class DemandSignal:
    """One tenant's demand report for one workload epoch."""

    at_us: float
    #: Offered-load intensity in [0, 1] (the traffic shape's value).
    intensity: float
    #: Extension miss rate over the epoch, in [0, 1].
    miss_rate: float = 0.0
    #: How far past the epoch boundary the epoch's queries finished.
    backlog_us: float = 0.0
    #: Queries issued during the epoch.
    offered: int = 0

    @property
    def score(self) -> float:
        """Demand score used for apportioning: intensity, nudged up by
        cache pressure so two equally-loaded tenants split in favour of
        the one actually missing its extension."""
        return max(0.0, min(1.0, self.intensity)) * (1.0 + 0.5 * self.miss_rate)


@dataclass(frozen=True)
class MarketplacePolicy:
    """Knobs of the rebalance loop."""

    #: Rebalance cadence (virtual microseconds).
    period_us: float = 2e6
    #: Minimum gap between two resizes of the same tenant (anti-thrash).
    cooldown_us: float = 6e6
    #: Ignore target moves smaller than this many pages (anti-thrash).
    min_delta_pages: int = 128
    #: Fraction of the pool the marketplace never hands out, so MR
    #: rounding and in-flight rebuilds cannot deadlock on a full pool.
    headroom_fraction: float = 0.10
    #: Demand score assumed for a tenant that has not reported yet.
    default_score: float = 0.5


@dataclass
class _TenantAccount:
    runtime: "TenantRuntime"
    signal: Optional[DemandSignal] = None
    last_resize_us: float = field(default=-1e18)
    revocations: int = 0


class Marketplace:
    """Global memory marketplace over one :class:`~repro.broker.MemoryBroker`."""

    def __init__(
        self,
        sim: Simulator,
        broker: MemoryBroker,
        policy: MarketplacePolicy | None = None,
        registry: MetricsRegistry | None = None,
        mr_bytes: int = 2 * 1024 * 1024,
    ):
        self.sim = sim
        self.broker = broker
        self.policy = policy if policy is not None else MarketplacePolicy()
        self.registry = registry
        self.mr_pages = max(1, mr_bytes // PAGE_SIZE)
        self._accounts: dict[str, _TenantAccount] = {}
        #: Broker holder name (db server) -> tenant name, for placement.
        self._holder_tenant: dict[str, str] = {}
        # Stats (exported as fleet.marketplace.* gauges).
        self.rounds = 0
        self.resizes = 0
        self.reclaimed_pages = 0
        self.granted_pages = 0
        self.grow_deferred = 0
        self.aborted_rounds = 0
        self.revocations_seen = 0
        broker.placement = self.place
        if registry is not None:
            registry.gauge("fleet.marketplace.rounds", lambda: self.rounds)
            registry.gauge("fleet.marketplace.resizes", lambda: self.resizes)
            registry.gauge("fleet.marketplace.reclaimed_pages", lambda: self.reclaimed_pages)
            registry.gauge("fleet.marketplace.granted_pages", lambda: self.granted_pages)
            registry.gauge("fleet.marketplace.grow_deferred", lambda: self.grow_deferred)
            registry.gauge("fleet.marketplace.aborted_rounds", lambda: self.aborted_rounds)
            registry.gauge("fleet.marketplace.revocations", lambda: self.revocations_seen)

    # -- tenant membership -------------------------------------------------

    def adopt(self, runtime: "TenantRuntime") -> None:
        """Register a tenant: demand accounting + revocation observation."""
        account = _TenantAccount(runtime=runtime)
        self._accounts[runtime.name] = account
        for holder in runtime.holders():
            self._holder_tenant[holder] = runtime.name
            self.broker.add_revocation_listener(
                holder,
                lambda lease, account=account: self._on_revoked(account, lease),
            )

    def _on_revoked(self, account: _TenantAccount, lease: Lease) -> None:
        account.revocations += 1
        self.revocations_seen += 1
        account.runtime.on_lease_revoked(lease)

    # -- demand ------------------------------------------------------------

    def report_demand(self, tenant: str, signal: DemandSignal) -> None:
        """Tenant-side epoch report; drives the next rebalance round."""
        account = self._accounts.get(tenant)
        if account is not None:
            account.signal = signal

    # -- placement ---------------------------------------------------------

    def place(self, holder: str, candidates: list[str], broker: MemoryBroker) -> str:
        """Anti-affinity: take the next MR from the provider currently
        backing the fewest of this *tenant's* leases (all replicas
        count), lexicographic provider name on ties."""
        tenant = self._holder_tenant.get(holder)
        holders = (
            {holder}
            if tenant is None
            else set(self._accounts[tenant].runtime.holders())
        )
        held: dict[str, int] = {}
        for lease in self.broker.active_leases:
            if lease.holder in holders:
                held[lease.provider] = held.get(lease.provider, 0) + 1
        return min(candidates, key=lambda p: (held.get(p, 0), p))

    # -- allocation --------------------------------------------------------

    def budget_pages(self) -> int:
        """Pages the marketplace may apportion right now.

        Live capacity = unleased pool + everything currently leased; a
        provider crash removes its regions from both terms, so targets
        shrink automatically after a failure storm.
        """
        live = self.broker.available_bytes() + sum(
            lease.region.size for lease in self.broker.active_leases
        )
        usable = int(live * (1.0 - self.policy.headroom_fraction))
        return (usable // PAGE_SIZE // self.mr_pages) * self.mr_pages

    def _round_pages(self, pages: int) -> int:
        return max(0, (pages // self.mr_pages) * self.mr_pages)

    def desired_allocation(self) -> dict[str, int]:
        """Target extension pages per tenant from demand × QoS weight.

        Floors come first (scaled down proportionally if a shrunken
        pool cannot cover them); the surplus is split by weighted
        demand.  Pure integer arithmetic over reported signals — no
        randomness, so the same history yields the same targets.
        """
        tenants = [
            account for _name, account in sorted(self._accounts.items())
            if account.runtime.resizable
        ]
        if not tenants:
            return {}
        budget = self.budget_pages()
        floors = {
            account.runtime.name: self._round_pages(account.runtime.floor_pages)
            for account in tenants
        }
        floor_total = sum(floors.values())
        if floor_total > budget and floor_total > 0:
            scale = budget / floor_total
            floors = {
                name: self._round_pages(int(pages * scale))
                for name, pages in floors.items()
            }
            floor_total = sum(floors.values())
        surplus = max(0, budget - floor_total)
        weights = {}
        for account in tenants:
            score = (
                account.signal.score
                if account.signal is not None
                else self.policy.default_score
            )
            weights[account.runtime.name] = (
                QOS_WEIGHTS[account.runtime.qos] * max(score, 0.05)
            )
        total_weight = sum(weights.values())
        targets = {}
        for account in tenants:
            name = account.runtime.name
            share = int(surplus * weights[name] / total_weight)
            targets[name] = floors[name] + self._round_pages(share)
        return targets

    # -- rebalancing -------------------------------------------------------

    def rebalance_once(self) -> ProcessGenerator:
        """One marketplace round: shrink low-priority first, then grow.

        Shrinks run in ascending QoS order (reclaim-from-low-priority
        under pressure), grows in descending order, both subject to the
        per-tenant cooldown and the ``min_delta_pages`` dead band —
        except repairs: a tenant left without a healthy extension by a
        crash or an interrupted rebuild is fixed regardless of cooldown.
        A broker restart (:class:`~repro.broker.BrokerUnavailable`)
        aborts the round; every tenant resize is individually re-runnable,
        so the next round simply retries from a consistent state.
        """
        self.rounds += 1
        now = self.sim.now
        targets = self.desired_allocation()
        moves: list[tuple[_TenantAccount, int, int]] = []
        for name, target in targets.items():
            account = self._accounts[name]
            runtime = account.runtime
            delta = target - runtime.ext_pages
            if runtime.needs_repair:
                moves.append((account, target, delta))
                continue
            if abs(delta) < self.policy.min_delta_pages:
                continue
            if now - account.last_resize_us < self.policy.cooldown_us:
                continue
            moves.append((account, target, delta))
        shrinks = sorted(
            (m for m in moves if m[2] < 0 or m[0].runtime.needs_repair),
            key=lambda m: (m[0].runtime.qos, m[0].runtime.name),
        )
        grows = sorted(
            (m for m in moves if m[2] >= 0 and not m[0].runtime.needs_repair),
            key=lambda m: (-m[0].runtime.qos, m[0].runtime.name),
        )
        changed = 0
        for account, target, delta in shrinks + grows:
            runtime = account.runtime
            before = runtime.ext_pages
            try:
                yield from runtime.set_extension_pages(target)
            except InsufficientMemory:
                self.grow_deferred += 1
                continue
            except BrokerUnavailable:
                self.aborted_rounds += 1
                return changed
            account.last_resize_us = self.sim.now
            self.resizes += 1
            changed += 1
            moved = runtime.ext_pages - before
            if moved < 0:
                self.reclaimed_pages += -moved
            else:
                self.granted_pages += moved
        return changed

    def rebalance_daemon(self) -> ProcessGenerator:
        """Spawn with ``sim.spawn``: periodic marketplace rounds."""
        while True:
            yield self.sim.timeout(self.policy.period_us)
            yield from self.rebalance_once()


def verify_broker_consistency(
    broker: MemoryBroker, proxies: Optional[dict] = None
) -> dict[str, int]:
    """Assert lease/region/metadata invariants; returns a count summary.

    Used by the broker-restart race tests and fleet benchmarks: after
    any storm of reallocation racing faults,

    * every ACTIVE lease has a record in the replicated
      :class:`~repro.broker.MetadataStore` and vice versa (no
      double-grant survives a replayed recovery, no ghost records);
    * no region is simultaneously available and leased, and no region
      backs two leases;
    * (with ``proxies``) every MR offered by a live proxy is accounted
      for — available or leased — i.e. no orphaned MR.
    """
    active = broker.active_leases
    recorded = {
        key.rsplit("/", 1)[-1] for key in broker.store.peek_keys("leases/")
    }
    active_ids = {str(lease.lease_id) for lease in active}
    if active_ids != recorded:
        raise AssertionError(
            f"lease table diverged from metadata store: active={sorted(active_ids)} "
            f"recorded={sorted(recorded)}"
        )
    leased = [lease.region for lease in active]
    if len({id(region) for region in leased}) != len(leased):
        raise AssertionError("double-grant: one region backs two active leases")
    available = broker.available_regions()
    overlap = {id(r) for r in available} & {id(r) for r in leased}
    if overlap:
        raise AssertionError("region is both available and leased")
    if proxies:
        accounted = {id(r) for r in available} | {id(r) for r in leased}
        for name, proxy in sorted(proxies.items()):
            if not proxy.server.alive:
                continue
            for region in proxy.offered:
                if id(region) not in accounted:
                    raise AssertionError(
                        f"orphaned MR: {name} offered region {region.mr_id} is "
                        "neither available nor leased"
                    )
    return {
        "active_leases": len(active),
        "available_regions": len(available),
        "recorded_leases": len(recorded),
    }
