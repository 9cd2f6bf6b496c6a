"""Serializability checker: conflict graph, dirty reads, final state."""

from repro.harness import Design, build_database
from repro.txn import TxnHistory, check_serializable, committed_row_images
from repro.workloads import build_customer_table


class TestConflictGraph:
    def test_empty_history_is_serializable(self):
        result = check_serializable(TxnHistory())
        assert result.ok
        assert result.txns == 0

    def test_serial_history_passes(self):
        history = TxnHistory()
        history.install(1, reads=[("x", 0)], writes=[("x", "a")])
        history.install(2, reads=[("x", 1)], writes=[("x", "b")])
        result = check_serializable(history)
        assert result.ok
        # ww, wr and rw all point 1->2; per-pair edges are a set.
        assert result.edges == 1

    def test_rw_anti_dependency_cycle_detected(self):
        # T1 reads x@0 then T2 overwrites x; T2 reads y@0 then T1
        # overwrites y: rw edges T1->T2 and T2->T1 — not serializable
        # (the classic write-skew shape).
        history = TxnHistory()
        history.install(1, reads=[("x", 0)], writes=[("y", "w1")])
        history.install(2, reads=[("y", 0)], writes=[("x", "w2")])
        result = check_serializable(history)
        assert not result.ok
        assert any("cycle" in violation for violation in result.violations)

    def test_dirty_read_detected(self):
        history = TxnHistory()
        history.install(2, reads=[("x", 5)], writes=[])  # txn 5 never committed
        result = check_serializable(history)
        assert not result.ok
        assert any("dirty read" in violation for violation in result.violations)

    def test_read_your_own_write_is_not_an_edge(self):
        history = TxnHistory()
        history.install(1, reads=[("x", 1)], writes=[("x", "mine")])
        result = check_serializable(history)
        assert result.ok
        assert result.edges == 0


class TestFinalState:
    def test_matching_final_state_passes(self):
        history = TxnHistory()
        history.install(1, reads=[], writes=[("x", "a")])
        history.install(2, reads=[], writes=[("x", "b")])
        result = check_serializable(history, final_rows={"x": "b"})
        assert result.ok

    def test_lost_committed_image_flagged(self):
        history = TxnHistory()
        history.install(1, reads=[], writes=[("x", "a")])
        result = check_serializable(history, final_rows={"x": "stale"})
        assert not result.ok
        assert any("lost" in violation for violation in result.violations)

    def test_committed_delete_must_be_absent(self):
        history = TxnHistory()
        history.install(1, reads=[], writes=[("x", None)])  # delete
        result = check_serializable(history, final_rows={"x": "ghost"})
        assert not result.ok
        result_ok = check_serializable(history, final_rows={})
        assert result_ok.ok


class TestRowImages:
    def test_images_reflect_committed_updates(self, txn_rig):
        manager = txn_rig.db.transactions(record_history=True)

        def bump(row):
            new_row = list(row)
            new_row[5] = row[5] + 1.0
            return tuple(new_row)

        def body(txn):
            yield from txn.update(txn_rig.table, 42, bump)

        txn_rig.run(manager.run(body))
        images = committed_row_images(txn_rig.db, [txn_rig.table])
        item = ("row", txn_rig.table.name, 42)
        assert images[item][5] == float(1000 + 42 % 9000) + 1.0
        # The history's last after-image matches the on-storage row.
        result = check_serializable(manager.history, final_rows=images)
        assert result.ok

    def test_images_include_dirty_pool_frames(self, txn_rig):
        """Rows changed in the buffer pool but not yet flushed to the
        store must still appear — the overlay prefers resident frames."""
        manager = txn_rig.db.transactions(record_history=True)

        def rewrite(row):
            new_row = list(row)
            new_row[1] = "Rewritten"
            return tuple(new_row)

        def body(txn):
            yield from txn.update(txn_rig.table, 0, rewrite)

        txn_rig.run(manager.run(body))
        images = committed_row_images(txn_rig.db, [txn_rig.table])
        assert images[("row", txn_rig.table.name, 0)][1] == "Rewritten"
        # The store's own (stale) snapshot proves the overlay mattered.
        store_row = txn_rig.table.clustered.store.peek(
            txn_rig.table.clustered.root_page_no
        )
        assert store_row is not None

    def test_images_include_pages_queued_for_write_back(self):
        """A dirty page evicted to the lazy writer is still the newest
        image until its write lands: read the rows right at eviction."""
        setup = build_database(Design.CUSTOM, bp_pages=8, bpext_pages=64, tempdb_pages=64)
        db = setup.database
        table = build_customer_table(db, n_rows=2_000)
        store = table.clustered.store
        manager = db.transactions(record_history=True)

        def rewrite(row):
            return (row[0], "Rewritten", *row[2:])

        def body(txn):
            yield from txn.update(table, 0, rewrite)

        def scenario():
            yield from manager.run(body)
            for page_no, _page in sorted(store.iter_pages()):
                yield from db.pool.get_page(store.file_id, page_no)
                queued = [
                    page for page in db.pool.pending_pages()
                    if any(row[0] == 0 for row in page.rows)
                ]
                if queued:
                    return committed_row_images(db, [table])
            raise AssertionError("the dirty page was never evicted")

        images = setup.run(scenario())
        assert images[("row", table.name, 0)][1] == "Rewritten"
        assert check_serializable(manager.history, final_rows=images).ok
