"""Buffer pool with an optional extension tier (BPExt).

Scenario (i) of the paper (Section 3.1): when a page is evicted from
the in-memory pool, its *clean* image is parked in the extension — an
SSD file in the stock design, or a remote-memory file in the paper's
Custom design — so a later access is a fast extension read instead of a
data-file read from the HDD array.

Faithfully modelled details:

* **Clean-only extension.**  Dirty victims are handed to a background
  lazy writer that flushes them to the data file; the evicting worker
  does not wait (checkpoint-style write-behind with backpressure).
* **Best-effort remote memory.**  If the extension lives in remote
  memory and a lease is lost, the pool transparently falls back to the
  data file: queries keep answering correctly, just slower
  (Section 4.1.5).
* **Hit accounting** at every tier, which the drill-down figures use.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Iterable, Optional

from ..cluster import Server
from ..reliability import DeadlineExceeded, ReliabilityLayer
from ..sim import LatencyRecorder, TimeSeries
from ..sim.kernel import ProcessGenerator
from ..telemetry.tracer import NOOP_SPAN as _NOOP_SPAN
from typing import TYPE_CHECKING

from ..tiers.tier import Tier

if TYPE_CHECKING:
    from ..tiers.stack import TierStack
from .errors import EngineError, PageNotFound
from .files import PageStore, RemoteMemoryUnavailable
from .page import Page, PageId

__all__ = ["BufferPool", "BufferPoolExtension", "Frame"]

#: CPU cost of a buffer-pool lookup (hash probe + latch).
LATCH_CPU_US = 0.8
#: Lazy-writer backpressure threshold (pending dirty pages).
WRITE_QUEUE_LIMIT = 256
#: Max concurrent read-ahead I/Os per pool (per-scan windows share it).
PREFETCH_CONCURRENCY = 256


class Frame:
    __slots__ = ("page", "dirty", "pin_count")

    def __init__(self, page: Page):
        self.page = page
        self.dirty = False
        self.pin_count = 0


class BufferPoolExtension:
    """Maps evicted page ids to slots of an extension page store.

    One extension is one *tier* of the memory hierarchy: construct it
    from a :class:`~repro.tiers.Tier` to carry medium/latency metadata
    (a bare :class:`~repro.engine.PageStore` still works and is wrapped
    in an anonymous tier).  A :class:`~repro.tiers.TierStack` composes
    several of these into a DRAM -> SSD -> remote hierarchy.
    """

    def __init__(self, store: PageStore | Tier):
        tier = store if isinstance(store, Tier) else None
        if tier is not None:
            store = tier.store
        if store.capacity_pages is None:
            raise EngineError("extension store needs a fixed capacity")
        self.store = store
        self.tier = tier if tier is not None else Tier.wrap(store)
        self.capacity_pages = store.capacity_pages
        self._slots: OrderedDict[PageId, int] = OrderedDict()
        self._free: list[int] = list(range(self.capacity_pages - 1, -1, -1))
        self.enabled = True
        #: Optional reliability layer (set via BufferPool.attach_reliability):
        #: routes around quarantined providers and classifies deadline
        #: expiries as transient instead of data loss.
        self.reliability: ReliabilityLayer | None = None
        #: Set by a :class:`~repro.tiers.TierStack`: called with
        #: ``(page_id, slot)`` when a full tier must make room, to move
        #: the victim one tier down instead of dropping it.
        self.demote_sink: Callable[[PageId, int], ProcessGenerator] | None = None
        self.hits = 0
        self.misses = 0
        self.failures = 0
        #: Accesses skipped because the backing provider is quarantined.
        self.quarantine_skips = 0
        #: Deadline expiries — the parked image is presumed intact.
        self.transient_failures = 0
        #: Pages invalidated by provider faults (``on_fault`` sweeps).
        self.pages_lost_to_faults = 0
        #: Observers called with the page id whenever a remote failure is
        #: detected on the access path (fault-detection latency probes).
        self.fault_listeners: list[Callable[[PageId], None]] = []
        #: Observers called with ``(provider, lost_page_ids)`` after an
        #: ``on_fault`` sweep — the media-loss signal transaction
        #: managers use to doom in-flight transactions whose working set
        #: may have evaporated with the provider.
        self.loss_listeners: list[Callable[[str | None, list[PageId]], None]] = []
        #: Per-read latency of extension fetches (Figure 11c drill-down).
        self.read_latency = LatencyRecorder("bpext.read")
        #: Optional bytes-moved series (Figure 11a drill-down).
        self.bytes_series: TimeSeries | None = None

    def track_throughput(self, bucket_us: float = 1e6) -> TimeSeries:
        self.bytes_series = TimeSeries(bucket_us, name="bpext.bytes")
        return self.bytes_series

    @property
    def parked_pages(self) -> int:
        """Number of page images currently parked in this extension."""
        return len(self._slots)

    def contains(self, page_id: PageId) -> bool:
        return self.enabled and page_id in self._slots

    def put(self, page: Page) -> ProcessGenerator:
        """Park a clean page image; evicts the oldest entry when full."""
        if not self.enabled:
            return
        if page.page_id in self._slots:
            # Already parked and never dirtied since (updates invalidate
            # the mapping), so the extension copy is current: no I/O.
            self._slots.move_to_end(page.page_id)
            return
        if self._free:
            slot = self._free.pop()
        else:
            _old_id, slot = self._slots.popitem(last=False)
            if self.demote_sink is not None:
                # Hand the victim to the tier below before its slot is
                # reused (the sink reads the image and re-parks it).
                yield from self.demote_sink(_old_id, slot)
            self.store.discard(slot)
        layer = self.reliability
        if layer is not None:
            provider = self._slot_provider(slot)
            if provider is not None and not layer.breakers.routable(provider):
                # Don't park pages at a quarantined provider: give the
                # slot back and let the page age out of the pool.
                self.quarantine_skips += 1
                self._free.append(slot)
                return
        page_id = page.page_id

        def _write_aborted(page_id=page_id, slot=slot):
            # The write-behind transfer died after put() returned (the
            # provider crashed or a write deadline cut it short): the
            # remote bytes are unknown, so the mapping made below must
            # not survive.  The store already discarded its slot state.
            self.transient_failures += 1
            if self._slots.get(page_id) == slot:
                del self._slots[page_id]
                self._free.append(slot)

        sim = self._sim()
        try:
            if sim.tracer.enabled:
                with sim.tracer.span("bpext.put", slot=slot, tier=self.tier.name):
                    yield from self.store.write_page(
                        page, slot=slot, background=True, on_abort=_write_aborted
                    )
            else:
                yield from self.store.write_page(
                    page, slot=slot, background=True, on_abort=_write_aborted
                )
            if self.bytes_series is not None:
                self.bytes_series.add(sim.now, 8192)
        except DeadlineExceeded:
            # The write may not have completed: the slot's remote bytes
            # are unknown, so never map it — but the *slot* is reusable.
            self.transient_failures += 1
            self.store.discard(slot)
            self._free.append(slot)
            return
        except RemoteMemoryUnavailable:
            self._on_failure(page.page_id, slot)
            return
        # Map only once the slot actually holds the page; readers that
        # race the write simply miss to the base file (correct, slower).
        self._slots[page.page_id] = slot

    def get(self, page_id: PageId, background: bool = False) -> ProcessGenerator:
        """Fetch a parked page; raises PageNotFound when absent."""
        if not self.contains(page_id):
            self.misses += 1
            raise PageNotFound(f"extension: {page_id} not present")
        slot = self._slots[page_id]
        layer = self.reliability
        if layer is not None:
            provider = self._slot_provider(slot)
            if provider is not None and not layer.breakers.routable(provider):
                # Quarantined provider: go straight to the base file.
                # The mapping is kept — the parked image is presumed
                # intact and becomes reachable again once the breaker
                # re-admits the provider (crashes are swept separately
                # by on_fault).
                self.quarantine_skips += 1
                self.misses += 1
                raise PageNotFound(
                    f"extension: {page_id} parked at quarantined provider {provider}"
                )
        # Touch the LRU position first so a concurrent put is unlikely
        # to evict the slot we are about to read.
        self._slots.move_to_end(page_id)
        sim = self._sim()
        start = sim.now
        try:
            if sim.tracer.enabled:
                with sim.tracer.span("bpext.read", slot=slot, tier=self.tier.name):
                    page = yield from self.store.read_page(slot, background=background)
            else:
                page = yield from self.store.read_page(slot, background=background)
        except DeadlineExceeded:
            # Transient: the remote image is still there, only slow.
            # Keep the slot mapped and let the caller fall back to disk.
            self.transient_failures += 1
            self.misses += 1
            raise PageNotFound(f"extension: {page_id} read exceeded its deadline")
        except RemoteMemoryUnavailable:
            self._on_failure(page_id, slot)
            self.misses += 1
            raise PageNotFound(f"extension: {page_id} lost with remote memory")
        self.read_latency.record(sim.now - start)
        if self.bytes_series is not None:
            self.bytes_series.add(sim.now, 8192)
        self._slots.move_to_end(page_id)
        self.hits += 1
        return page

    def _sim(self):
        # All stores carry either a server or a remote file with an owner.
        owner = getattr(self.store, "server", None)
        if owner is None:
            owner = self.store.remote_file.owner  # type: ignore[attr-defined]
        return owner.sim

    def _slot_provider(self, slot: int) -> str | None:
        """Memory server backing ``slot``, if the store can tell."""
        try:
            return self.store.slot_provider(slot)
        except Exception:
            return None  # e.g. the backing lease is already gone

    def adopt(self, page: Page) -> bool:
        """Park a clean page image without simulated I/O (pool priming).

        Steady-state benchmarks use this instead of replaying hours of
        warm-up traffic.  Returns ``False`` when the extension is
        disabled, full, or already holds the page.
        """
        if not self.enabled or page.page_id in self._slots or not self._free:
            return False
        slot = self._free.pop()
        self._slots[page.page_id] = slot
        self.store.install(page.copy(), slot=slot)
        return True

    def invalidate(self, page_id: PageId) -> None:
        slot = self._slots.pop(page_id, None)
        if slot is not None:
            self.store.discard(slot)
            self._free.append(slot)

    def _on_failure(self, page_id: PageId, slot: int) -> None:
        """A lease/provider vanished: drop the mapping, free the slot.

        The page image is lost, but the *slot* is not: once the store
        recovers (lease re-acquired, provider restored) the slot can
        hold a fresh page, so it goes back on the free list instead of
        leaking capacity.  The caller re-faults the page from the local
        store, so correctness is never affected.
        """
        self.failures += 1
        for listener in self.fault_listeners:
            listener(page_id)
        if self._slots.pop(page_id, None) is None and slot in self._free:
            # A concurrent access already reclaimed this slot.
            return
        self.store.discard(slot)
        self._free.append(slot)

    def on_fault(self, provider: str | None = None) -> list[PageId]:
        """Drop every slot backed by ``provider`` (``None`` = all slots).

        Called by fault injectors when a memory server crashes, instead
        of waiting for each page to fail on access.  Returns the page
        ids that were lost (they will re-fault from the base file).
        """
        lost: list[PageId] = []
        for page_id, slot in list(self._slots.items()):
            # A store that cannot name a provider loses everything on any
            # fault sweep (conservative: local media are never swept by
            # provider-targeted injectors in practice).
            known = self.store.slot_provider(slot)
            if provider is None or known is None or known == provider:
                self.invalidate(page_id)
                lost.append(page_id)
        self.pages_lost_to_faults += len(lost)
        for listener in self.loss_listeners:
            listener(provider, lost)
        return lost

    def replace_store(self, store: PageStore) -> None:
        """Point the extension at a fresh store (post-crash re-acquisition).

        All slot mappings are dropped (the new store starts empty) and
        the slot free list is rebuilt to the new capacity; the extension
        then re-warms organically as clean pages are evicted into it.
        """
        if store.capacity_pages is None:
            raise EngineError("extension store needs a fixed capacity")
        self.store = store
        self.tier.store = store
        self.capacity_pages = store.capacity_pages
        self._slots.clear()
        self._free = list(range(self.capacity_pages - 1, -1, -1))
        self.enabled = True

    def clear(self) -> None:
        for page_id in list(self._slots):
            self.invalidate(page_id)


class BufferPool:
    """Fixed-capacity page cache with LRU eviction and write-behind."""

    def __init__(
        self,
        server: Server,
        capacity_pages: int,
        extension: "Optional[BufferPoolExtension | TierStack]" = None,
        lazy_writers: int = 4,
    ):
        if capacity_pages < 2:
            raise EngineError("buffer pool needs at least two pages")
        self.server = server
        self.capacity_pages = capacity_pages
        self.extension = extension
        self.files: dict[int, PageStore] = {}
        self._frames: OrderedDict[PageId, Frame] = OrderedDict()
        #: Reads in flight: page_id -> completion event (dedup + prefetch).
        self._inflight: dict[PageId, object] = {}
        #: Dirty pages awaiting background flush: page_id -> snapshot.
        self._pending_writes: dict[PageId, Page] = {}
        self._write_queue: deque[PageId] = deque()
        self._queue_waiters: deque = deque()
        self._writer_signal = server.sim.store(name="bp.writer")
        for _ in range(lazy_writers):
            server.sim.spawn(self._lazy_writer(), name="bp.lazywriter")
        self.hits = 0
        self.misses = 0
        self.ext_hits = 0
        self.base_reads = 0
        self.prefetches = 0
        self._prefetch_active = 0
        #: Optional reliability layer: hedged reads + quarantine routing.
        self.reliability: ReliabilityLayer | None = None
        #: End-to-end latency of demand page faults (whatever medium
        #: served them) — the metric hedging is meant to bound.
        self.fault_latency = LatencyRecorder("bp.fault")

    def attach_reliability(self, layer: ReliabilityLayer) -> ReliabilityLayer:
        """Enable hedged reads here and quarantine routing in the extension."""
        self.reliability = layer
        if self.extension is not None:
            self.extension.reliability = layer
        return layer

    # -- file registry -----------------------------------------------------

    def register_file(self, store: PageStore) -> PageStore:
        if store.file_id in self.files:
            raise EngineError(f"file id {store.file_id} already registered")
        self.files[store.file_id] = store
        return store

    # -- accounting helpers --------------------------------------------------

    @property
    def in_memory_pages(self) -> int:
        return len(self._frames)

    def is_cached(self, page_id: PageId) -> bool:
        return page_id in self._frames or page_id in self._pending_writes

    # -- main access path ------------------------------------------------------

    def get_page(self, file_id: int, page_no: int) -> ProcessGenerator:
        """Return the current image of a page, faulting it in if needed."""
        yield from self.server.cpu.compute(LATCH_CPU_US)
        page_id: PageId = (file_id, page_no)
        while True:
            frame = self._frames.get(page_id)
            if frame is not None:
                self._frames.move_to_end(page_id)
                self.hits += 1
                return frame.page
            # A dirty page may be in flight to the data file.
            pending = self._pending_writes.get(page_id)
            if pending is not None:
                self.hits += 1
                page = pending.copy()
                yield from self._insert(page)
                return page
            # Someone else (a peer worker or the prefetcher) is already
            # reading this page: wait for them instead of re-reading.
            inflight = self._inflight.get(page_id)
            if inflight is not None:
                yield inflight  # type: ignore[misc]
                continue  # re-check the frame table
            self.misses += 1
            page = yield from self._fault(page_id)
            return page

    def _fault(self, page_id: PageId, done=None, background: bool = False) -> ProcessGenerator:
        """Read a page from extension or base file and install it.

        ``done`` is the pre-registered in-flight event when the caller
        (the prefetcher) already claimed the page id; ``background``
        marks read-ahead I/O (waited asynchronously, never spinning).
        """
        if done is None:
            done = self.server.sim.event()
            self._inflight[page_id] = done
        start = self.server.sim.now
        layer = self.reliability
        tracer = self.server.sim.tracer
        span = tracer.span(
            "bp.fault", cat="fault",
            page=f"{page_id[0]}:{page_id[1]}", background=background,
        ) if tracer.enabled else _NOOP_SPAN
        try:
            page = None
            if self.extension is not None and self.extension.contains(page_id):
                if layer is not None and layer.policy.hedge_enabled and not background:
                    page, source = yield from self._hedged_ext_fetch(page_id)
                    if source == "ext":
                        self.ext_hits += 1
                    elif source == "base":
                        self.base_reads += 1
                else:
                    try:
                        page = yield from self.extension.get(page_id, background=background)
                        self.ext_hits += 1
                    except PageNotFound:
                        page = None  # lost to remote failure: fall back to base
            if page is None:
                store = self.files.get(page_id[0])
                if store is None:
                    raise PageNotFound(f"no file registered with id {page_id[0]}")
                page = yield from store.read_page(page_id[1], background=background)
                self.base_reads += 1
            yield from self._insert(page)
            if not background:
                self.fault_latency.record(self.server.sim.now - start)
            return page
        finally:
            span.close()
            del self._inflight[page_id]
            done.succeed()

    def _hedged_ext_fetch(self, page_id: PageId) -> ProcessGenerator:
        """Race the extension read against a delayed base-file read.

        The extension read is issued immediately; once it has been
        outstanding for the tail-derived hedge delay, a backup read of
        the same page from the base file is issued and whichever
        completes first supplies the page.  During a brown-out this
        bounds the fault latency at roughly *hedge delay + one disk
        read* instead of however long the degraded link takes — and
        when the primary fails outright the already-running backup
        doubles as the fallback.  Returns ``(page | None, source)``
        with ``source`` in ``{"ext", "base", None}``.
        """
        sim = self.server.sim
        layer = self.reliability
        extension = self.extension

        def absorb(generator) -> ProcessGenerator:
            # Spawned racers must not leak PageNotFound into the sim loop.
            try:
                page = yield from generator
            except PageNotFound:
                return None
            return page

        primary = sim.spawn(absorb(extension.get(page_id)), name="bp.hedge.primary")
        delay = layer.hedge_delay_us(extension.read_latency)
        index, value = yield sim.any_of([primary, sim.timeout(delay)])
        if index == 0:
            return value, "ext" if value is not None else None
        store = self.files.get(page_id[0])
        if store is None or not store.contains(page_id[1]):
            value = yield primary  # nothing to hedge with: sit it out
            return value, "ext" if value is not None else None
        layer.hedge.issued += 1
        hedge_span = (
            sim.tracer.span("bp.hedge", delay_us=delay)
            if sim.tracer.enabled
            else _NOOP_SPAN
        )
        backup = sim.spawn(
            absorb(store.read_page(page_id[1], background=True)),
            name="bp.hedge.backup",
        )
        try:
            index, value = yield sim.any_of([primary, backup])
            if index == 0:
                if value is not None:
                    layer.hedge.primary_wins += 1
                    return value, "ext"
                # Primary failed after the hedge fired: the backup read,
                # already in flight, doubles as the disk fallback.
                value = yield backup
                if value is not None:
                    layer.hedge.record_backup_win(rescued=True)
                    return value, "base"
                return None, None
            if value is not None:
                layer.hedge.record_backup_win(rescued=False)
                # Cancel the losing primary: a read parked on a browned-out
                # link would otherwise hold the provider's NIC engine for
                # its whole degraded service time, starving later traffic.
                primary.interrupt(cause="hedged read: backup won")
                return value, "base"
            value = yield primary  # backup lost the page mid-race: rare
            return value, "ext" if value is not None else None
        finally:
            hedge_span.close()

    def prefetch(self, file_id: int, page_nos: Iterable[int]) -> None:
        """Issue background read-ahead for ``page_nos`` (scan path).

        Pages already resident or in flight are skipped; missing pages
        are ignored silently (the scan simply faults them on demand).
        """

        def fetch(page_id: PageId, done) -> ProcessGenerator:
            try:
                yield from self._fault(page_id, done, background=True)
            except PageNotFound:
                pass
            finally:
                self._prefetch_active -= 1

        def fetch_group(store, start: int, claims: list) -> ProcessGenerator:
            # One large read for a contiguous group: engines issue
            # 256K+ read-ahead I/Os, which is what lets the HDD array
            # stream during scans.
            try:
                pages = yield from store.read_batch(start, len(claims))
                for page in pages:
                    yield from self._insert(page)
            except PageNotFound:
                pass
            finally:
                for page_id, done in claims:
                    if self._inflight.get(page_id) is done:
                        del self._inflight[page_id]
                    done.succeed()
                self._prefetch_active -= len(claims)

        store = self.files.get(file_id)
        if store is None:
            return
        # This runs once per scanned leaf over a full read-ahead window
        # (the window slides by one page per leaf, so nearly every probe
        # is a repeat): keep the filter loop tight.
        budget = PREFETCH_CONCURRENCY - self._prefetch_active
        if budget <= 0:
            return
        frames = self._frames
        inflight = self._inflight
        pending = self._pending_writes
        contains = store.contains
        wanted: list[int] = []
        for page_no in page_nos:
            page_id = (file_id, page_no)
            if page_id in frames or page_id in inflight or page_id in pending:
                continue
            if not contains(page_no):
                continue
            wanted.append(page_no)
            if len(wanted) >= budget:
                break
        if not wanted:
            return
        # Split into extension-resident pages (fetched individually —
        # their extension slots are not contiguous) and contiguous
        # base-file groups (fetched as one large read each).
        groups: list[list[int]] = []
        ext_spawned = 0
        for page_no in wanted:
            page_id = (file_id, page_no)
            ext_resident = self.extension is not None and self.extension.contains(page_id)
            if ext_resident:
                # Extension reads complete in tens of microseconds; a
                # short pipeline suffices and avoids flooding the NIC.
                if ext_spawned >= 16:
                    continue
                ext_spawned += 1
                done = self.server.sim.event()
                self._inflight[page_id] = done
                self._prefetch_active += 1
                self.prefetches += 1
                self.server.sim.spawn(fetch(page_id, done), name="bp.prefetch")
            elif groups and groups[-1][-1] == page_no - 1:
                groups[-1].append(page_no)
            else:
                groups.append([page_no])
        for group in groups:
            claims = []
            for page_no in group:
                done = self.server.sim.event()
                self._inflight[(file_id, page_no)] = done
                claims.append(((file_id, page_no), done))
            self._prefetch_active += len(claims)
            self.prefetches += len(claims)
            self.server.sim.spawn(
                fetch_group(store, group[0], claims), name="bp.prefetch"
            )

    def update_page(self, file_id: int, page_no: int, mutate, lsn: int = 0) -> ProcessGenerator:
        """Fault in a page, apply ``mutate(page)``, mark it dirty.

        The mutation happens atomically (no simulation yield between the
        lookup and the dirty marking).
        """
        page = yield from self.get_page(file_id, page_no)
        mutate(page)
        if lsn:
            page.lsn = max(page.lsn, lsn)
        frame = self._frames.get((file_id, page_no))
        if frame is None:  # evicted during fault-in by a concurrent worker
            yield from self._insert(page, dirty=True)
            frame = self._frames.get((file_id, page_no))
            if frame is not None:
                frame.page = page
        else:
            frame.dirty = True
        # The extension copy (if any) is now stale.
        if self.extension is not None:
            self.extension.invalidate((file_id, page_no))
        return page

    def mark_dirty(self, page: Page, lsn: int = 0) -> ProcessGenerator:
        """Flag an already-fetched page as modified.

        Safe in cooperative simulation code as long as no simulation
        yield happened between the ``get_page`` and this call; if the
        frame was concurrently evicted the image is re-installed.
        """
        if lsn:
            page.lsn = max(page.lsn, lsn)
        frame = self._frames.get(page.page_id)
        if frame is None or frame.page is not page:
            yield from self._insert(page, dirty=True)
            frame = self._frames.get(page.page_id)
            if frame is not None:
                frame.page = page
        else:
            frame.dirty = True
        if self.extension is not None:
            self.extension.invalidate(page.page_id)

    def adopt(self, page: Page) -> bool:
        """Install a clean frame without I/O or eviction (pool priming).

        The caller bounds how many frames it adopts (the pool does not
        evict here); returns ``False`` when the page is already resident.
        """
        if page.page_id in self._frames:
            return False
        self._frames[page.page_id] = Frame(page.copy())
        return True

    def put_page(self, page: Page, dirty: bool = False) -> ProcessGenerator:
        """Install a page image directly (loader / split / priming path).

        ``dirty`` is applied atomically with the insertion so a newly
        created page can never be evicted as clean before the flag
        lands."""
        yield from self._insert(page, dirty=dirty)

    # -- eviction & write-behind -------------------------------------------------

    def _insert(self, page: Page, dirty: bool = False) -> ProcessGenerator:
        if page.page_id in self._frames:
            frame = self._frames[page.page_id]
            frame.page = page
            if dirty:
                frame.dirty = True
            self._frames.move_to_end(page.page_id)
            return
        # Reserve the frame *before* evicting: eviction can yield, and a
        # dirty page must never be observable as missing meanwhile.
        frame = Frame(page)
        frame.dirty = dirty
        self._frames[page.page_id] = frame
        self._frames.move_to_end(page.page_id)
        while len(self._frames) > self.capacity_pages:
            yield from self._evict_one()

    def _evict_one(self) -> ProcessGenerator:
        victim_id = None
        for page_id, frame in self._frames.items():
            if frame.pin_count == 0:
                victim_id = page_id
                break
        if victim_id is None:
            raise EngineError("all frames pinned; cannot evict")
        frame = self._frames.pop(victim_id)
        if frame.dirty:
            # Park the image in pending_writes *before* any yield so the
            # page stays visible to readers throughout the hand-off.
            self._pending_writes[victim_id] = frame.page.copy()
            # Lazy-writer backpressure when flooded.
            while len(self._write_queue) >= WRITE_QUEUE_LIMIT:
                waiter = self.server.sim.event()
                self._queue_waiters.append(waiter)
                yield waiter
            self._write_queue.append(victim_id)
            self._writer_signal.put(victim_id)
        if self.extension is not None and not frame.dirty:
            yield from self.extension.put(frame.page)

    def _lazy_writer(self) -> ProcessGenerator:
        while True:
            yield self._writer_signal.get()
            if not self._write_queue:
                continue
            # Drain a batch and write it elevator-style per file.
            batch: list[PageId] = []
            while self._write_queue and len(batch) < 64:
                batch.append(self._write_queue.popleft())
            by_file: dict[int, list] = {}
            for page_id in batch:
                page = self._pending_writes.get(page_id)
                if page is not None:
                    by_file.setdefault(page_id[0], []).append(page)
            with self.server.sim.tracer.span("bp.writeback", pages=len(batch)):
                for file_id, pages in by_file.items():
                    store = self.files.get(file_id)
                    if store is None:
                        continue
                    if hasattr(store, "write_scattered"):
                        yield from store.write_scattered(pages)
                    else:
                        for page in pages:
                            yield from store.write_page(page)
            # After the flush, the clean images can go to the extension.
            for file_id, pages in by_file.items():
                for page in pages:
                    if self.extension is not None:
                        yield from self.extension.put(page)
                    self._pending_writes.pop(page.page_id, None)
            while self._queue_waiters and len(self._write_queue) < WRITE_QUEUE_LIMIT:
                self._queue_waiters.popleft().succeed()

    def flush_all(self) -> ProcessGenerator:
        """Write every dirty frame through to its file (checkpoint)."""
        for page_id, frame in list(self._frames.items()):
            if frame.dirty:
                store = self.files.get(page_id[0])
                if store is not None:
                    yield from store.write_page(frame.page)
                frame.dirty = False
        while self._pending_writes:
            yield self.server.sim.timeout(100.0)

    def drop_all(self) -> None:
        """Empty the pool without I/O (cold restart, priming target)."""
        self._frames.clear()

    def cached_pages(self) -> list[Page]:
        """Snapshot of resident pages, hottest last (priming source)."""
        return [frame.page for frame in self._frames.values()]

    def pending_pages(self) -> list[Page]:
        """Dirty images evicted to the lazy writer and not yet written."""
        return list(self._pending_writes.values())

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
