"""Tests for the application state machines."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app import CounterApp, KVStore, is_read_only
from repro.app import statemachine
from repro.crypto.costs import active_cost_model


class TestKVStore:
    def test_put_get_delete(self):
        store = KVStore()
        assert store.execute(("put", "k", "v")) == ("ok", 1)
        assert store.execute(("get", "k")) == ("value", "v")
        assert store.execute(("delete", "k")) == ("ok",)
        assert store.execute(("get", "k")) == ("missing",)
        assert store.execute(("delete", "k")) == ("missing",)

    def test_versions_increment(self):
        store = KVStore()
        store.execute(("put", "k", "v1"))
        assert store.execute(("put", "k", "v2")) == ("ok", 2)

    def test_cas(self):
        store = KVStore()
        store.execute(("put", "k", "old"))
        assert store.execute(("cas", "k", "old", "new")) == ("ok",)
        assert store.execute(("cas", "k", "old", "x")) == ("mismatch", "new")

    def test_incr(self):
        store = KVStore()
        assert store.execute(("incr", "n", 5)) == ("value", 5)
        assert store.execute(("incr", "n", -2)) == ("value", 3)
        store.execute(("put", "s", "text"))
        assert store.execute(("incr", "s", 1)) == ("error", "not a number")

    def test_scan_and_size(self):
        store = KVStore()
        for key in ("a1", "a2", "b1"):
            store.execute(("put", key, key))
        assert store.execute(("scan", "a")) == ("keys", ("a1", "a2"))
        assert store.execute(("size",)) == ("value", 3)

    def test_unknown_and_empty_ops(self):
        store = KVStore()
        assert store.execute(("frobnicate",))[0] == "error"
        assert store.execute(())[0] == "error"

    def test_snapshot_restore_roundtrip(self):
        store = KVStore()
        store.execute(("put", "k", "v"))
        snapshot = store.snapshot()
        store.execute(("put", "k", "v2"))
        store.execute(("put", "other", "x"))
        store.restore(snapshot)
        assert store.execute(("get", "k")) == ("value", "v")
        assert store.execute(("get", "other")) == ("missing",)

    def test_snapshot_is_isolated_from_later_writes(self):
        store = KVStore()
        store.execute(("put", "k", "v"))
        snapshot = store.snapshot()
        store.execute(("put", "k", "v2"))
        fresh = KVStore()
        fresh.restore(snapshot)
        assert fresh.execute(("get", "k")) == ("value", "v")

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "incr"]),
                st.sampled_from(["a", "b", "c"]),
            ),
            max_size=30,
        )
    )
    def test_determinism_property(self, script):
        """Two stores applying the same operation sequence end identical."""

        def run():
            store = KVStore()
            results = []
            for opcode, key in script:
                if opcode == "put":
                    results.append(store.execute(("put", key, key * 2)))
                elif opcode == "delete":
                    results.append(store.execute(("delete", key)))
                else:
                    results.append(store.execute(("incr", key + "_n", 1)))
            return results, store.snapshot()

        assert run() == run()


class TestCounter:
    def test_add_and_read(self):
        app = CounterApp()
        assert app.execute(("add", 4)) == 4
        assert app.execute(("read",)) == 4

    def test_snapshot_restore(self):
        app = CounterApp(3)
        snap = app.snapshot()
        app.execute(("add", 10))
        app.restore(snap)
        assert app.value == 3


class TestReadOnlyClassification:
    def test_reads(self):
        assert is_read_only(("get", "k"))
        assert is_read_only(("scan", "a"))
        assert is_read_only(("size",))

    def test_writes(self):
        assert not is_read_only(("put", "k", "v"))
        assert not is_read_only(("incr", "k", 1))
        assert not is_read_only(())

    def test_compound_is_read_only_only_if_every_member_is(self):
        assert is_read_only(("multi", "k", (("get", "k"), ("get", "k"))))
        assert not is_read_only(("multi", "k", (("get", "k"), ("put", "k", "v"))))
        assert not is_read_only(("multi", "k", (("put", "k", "v"),)))


class TestCompound:
    """``("multi", key, ops)``: a session lane's queued same-key run."""

    def test_members_are_charged_and_applied_one_by_one(self, monkeypatch):
        events = []

        class Recording(KVStore):
            def apply(self, operation):
                events.append(("apply", operation))
                return super().apply(operation)

        monkeypatch.setattr(statemachine, "charge", lambda cost: events.append(("charge", cost)))
        members = (("put", "k", "a"), ("get", "k"), ("put", "k", "b"))
        assert Recording().execute(("multi", "k", members)) == (
            ("ok", 1), ("value", "a"), ("ok", 2),
        )
        cost = active_cost_model().execute_request
        assert events == [
            event for member in members for event in (("charge", cost), ("apply", member))
        ]

    def test_results_come_back_in_member_order_for_every_app(self):
        store = KVStore()
        puts = tuple(("put", "k", value) for value in "abc")
        assert store.execute(("multi", "k", puts)) == (("ok", 1), ("ok", 2), ("ok", 3))
        assert store.execute(("get", "k")) == ("value", "c")
        counter = CounterApp()
        assert counter.execute(("multi", "n", (("add", 2), ("read",), ("add", 3)))) == (2, 2, 5)

    def test_malformed_compound_is_an_unknown_opcode(self):
        store = KVStore()
        for operation in (("multi",), ("multi", "k"), ("multi", "k", "put")):
            assert not is_read_only(operation)
            assert store.execute(operation) == ("error", "unknown opcode 'multi'")
