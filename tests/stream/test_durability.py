"""Durable streams: write-ahead logging, crash recovery, snapshots.

The contract under test: a :class:`StreamEngine` attached to a
:class:`LogBackend` can be killed at any point and
:meth:`LogBackend.recover_stream` rebuilds it *exactly* as of the last
flush -- the integrated relation, the per-source snapshots and
reliabilities, and the watermark.  Events accepted after the last flush
were never durable and must be absent.  Recovery must also agree with
``Federation.integrate`` over the recovered per-source snapshots (the
same oracle the live engine is property-tested against).

Snapshot backends (json/sqlite) get the weaker but still useful
guarantee: the integrated relation and the watermark survive.
"""

import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import SyntheticConfig, synthetic_relation
from repro.datasets.restaurants import table_ra, table_rb
from repro.errors import SerializationError, TotalConflictError
from repro.integration import Federation, TupleMerger
from repro.model.evidence import EvidenceSet
from repro.storage import Database, open_backend
from repro.stream import StreamEngine
from repro.stream.changelog import BatchDelta

RELIABILITIES = (1, Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))


def log_backend(tmp_path, name="wal.jsonl"):
    return open_backend(f"log:{tmp_path / name}")


def durable_engine(backend, schema, **kwargs):
    kwargs.setdefault("merger", TupleMerger(on_conflict="vacuous"))
    return StreamEngine(schema, name="R", backend=backend, **kwargs)


def federation_oracle(engine):
    """Federation.integrate over the engine's current snapshots."""
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for source in engine.sources():
        federation.add_source(
            source,
            engine.source_snapshot(source),
            reliability=engine.reliability(source),
        )
    integrated, _ = federation.integrate(name="R")
    return integrated


class TestLogRecovery:
    def test_kill_and_reopen_recovers_flushed_state(self, tmp_path):
        backend = log_backend(tmp_path)
        engine = durable_engine(backend, table_ra().schema)
        engine.set_reliability("daily", Fraction(9, 10))
        for etuple in table_ra():
            engine.upsert("daily", etuple)
        engine.flush()
        for etuple in table_rb():
            engine.upsert("tribune", etuple)
        engine.retract("daily", ("wok",))
        engine.flush()
        watermark, relation = engine.watermark, engine.relation
        # Events after the last flush: accepted, never durable.
        engine.upsert("tribune", next(iter(table_rb())))
        backend.close()  # the "crash": the engine object is abandoned

        with log_backend(tmp_path) as reopened:
            recovered = reopened.recover_stream("R")
            assert recovered.watermark == watermark
            assert recovered.relation == relation
            assert list(recovered.relation.keys()) == list(relation.keys())
            assert recovered.sources() == ("daily", "tribune")
            assert recovered.reliability("daily") == Fraction(9, 10)
            # The last upsert (never flushed) is gone, as it must be.
            assert recovered.pending_events == 0
            # ... and the recovery agrees with the batch oracle.
            assert recovered.relation.same_tuples(federation_oracle(recovered))

    def test_recovered_engine_keeps_journaling(self, tmp_path):
        backend = log_backend(tmp_path)
        engine = durable_engine(backend, table_ra().schema)
        for etuple in table_ra():
            engine.upsert("daily", etuple)
        engine.flush()
        backend.close()

        with log_backend(tmp_path) as reopened:
            recovered = reopened.recover_stream("R")
            assert recovered.backend is reopened
            for etuple in table_rb():
                recovered.upsert("tribune", etuple)
            recovered.flush()
            final = recovered.relation
            watermark = recovered.watermark

        with log_backend(tmp_path) as again:
            twice = again.recover_stream("R")
            assert twice.relation == final
            assert twice.watermark == watermark

    def test_recovery_survives_compaction(self, tmp_path):
        backend = log_backend(tmp_path)
        engine = durable_engine(backend, table_ra().schema)
        engine.set_reliability("daily", Fraction(3, 4))
        for etuple in table_ra():
            engine.upsert("daily", etuple)
        engine.flush()
        for etuple in table_rb():
            engine.upsert("tribune", etuple)
        engine.retract("daily", ("olive",))
        engine.flush()
        relation, watermark = engine.relation, engine.watermark
        snapshots = {
            source: engine.source_snapshot(source)
            for source in engine.sources()
        }
        backend.compact()

        recovered = backend.recover_stream("R")
        assert recovered.relation == relation
        assert recovered.watermark == watermark
        for source, snapshot in snapshots.items():
            assert recovered.source_snapshot(source).same_tuples(snapshot)
        backend.close()

    def test_unflushed_wal_tail_is_discarded(self, tmp_path):
        """Event records with no closing batch marker (a crash between
        the event appends and the marker) do not replay."""
        backend = log_backend(tmp_path)
        engine = durable_engine(backend, table_ra().schema)
        for etuple in table_ra():
            engine.upsert("daily", etuple)
        engine.flush()
        relation = engine.relation
        # Forge a torn batch: events on disk, no batch record.
        backend._append(
            {
                "record": "event",
                "stream": "R",
                "event": {
                    "op": "reliability",
                    "source": "daily",
                    "value": "1/2",
                },
            }
        )
        backend.close()

        with log_backend(tmp_path) as reopened:
            recovered = reopened.recover_stream("R")
            assert recovered.relation == relation
            assert recovered.reliability("daily") == 1

    def test_rejected_events_never_reach_the_journal(self, tmp_path):
        """A raise-policy total conflict rolls the upsert back before it
        is journaled: recovery replays only accepted events."""
        schema = table_ra().schema
        backend = log_backend(tmp_path)
        engine = durable_engine(
            backend, schema, merger=TupleMerger(on_conflict="raise")
        )
        domain = schema.attribute("rating").domain
        base = table_ra().get(("wok",)).with_values(
            {"rating": EvidenceSet.parse("[ex^1]", domain)}
        )
        engine.upsert("daily", base)
        conflicting = base.with_values(
            {"rating": EvidenceSet.parse("[gd^1]", domain)}
        )
        with pytest.raises(TotalConflictError):
            engine.upsert("tribune", conflicting)
        engine.flush()
        backend.close()

        with log_backend(tmp_path) as reopened:
            recovered = reopened.recover_stream("R")
            assert recovered.sources() == ("daily",)
            assert recovered.relation == engine.relation

    def test_failed_batch_write_keeps_events_for_the_next_flush(
        self, tmp_path, monkeypatch
    ):
        """If the backend write fails mid-flush, the buffered events are
        restored: the next successful flush journals them, so recovery
        never silently loses upserts behind an advanced watermark."""
        backend = log_backend(tmp_path)
        engine = durable_engine(backend, table_ra().schema)
        engine.upsert("daily", table_ra().get(("wok",)))
        engine.flush()

        def exploding(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(backend, "write_batch", exploding)
        engine.upsert("daily", table_ra().get(("garden",)))
        with pytest.raises(OSError):
            engine.flush()
        monkeypatch.undo()

        engine.upsert("daily", table_ra().get(("olive",)))
        engine.flush()
        relation, watermark = engine.relation, engine.watermark
        backend.close()

        with log_backend(tmp_path) as reopened:
            recovered = reopened.recover_stream("R")
            assert recovered.relation == relation
            assert recovered.watermark == watermark
            assert len(recovered.relation) == 3  # garden survived the outage

    def test_empty_flush_skips_the_backend_entirely(self, tmp_path):
        """A quiet periodic flush must not even reach the backend: the
        store already holds this relation and watermark exactly."""
        url = f"sqlite:{tmp_path / 'snap.sqlite'}"
        with open_backend(url) as backend:
            engine = durable_engine(backend, table_ra().schema)
            engine.upsert("daily", table_ra().get(("wok",)))
            engine.flush()

            calls = []
            original = backend.write_batch
            backend.write_batch = (
                lambda *a, **k: calls.append(a) or original(*a, **k)
            )
            skips_before = engine.stats().empty_flush_skips
            engine.flush()  # no events accepted: empty batch, skipped
            engine.set_reliability("daily", Fraction(1, 2))
            engine.flush()
            backend.write_batch = original
            assert len(calls) == 1  # only the non-empty batch persists
            assert engine.stats().empty_flush_skips == skips_before + 1
            assert backend.stream_watermark("R") == engine.watermark

    def test_unknown_stream_is_clean_error(self, tmp_path):
        with log_backend(tmp_path) as backend:
            engine = durable_engine(backend, table_ra().schema)
            engine.upsert("daily", next(iter(table_ra())))
            engine.flush()
            with pytest.raises(SerializationError, match="logged: R"):
                backend.recover_stream("GHOST")

    def test_reattach_with_different_policy_rejected(self, tmp_path):
        with log_backend(tmp_path) as backend:
            durable_engine(backend, table_ra().schema)
            with pytest.raises(SerializationError, match="on_conflict"):
                StreamEngine(
                    table_ra().schema,
                    name="R",
                    merger=TupleMerger(on_conflict="raise"),
                    backend=backend,
                )

    def test_recovery_republishes_into_a_database(self, tmp_path):
        backend = log_backend(tmp_path)
        engine = durable_engine(backend, table_ra().schema)
        for etuple in table_ra():
            engine.upsert("daily", etuple)
        engine.flush()
        backend.close()

        db = Database("d")
        with log_backend(tmp_path) as reopened:
            recovered = reopened.recover_stream("R", database=db)
            assert "R" in db
            assert db.get("R") == recovered.relation


class TestSnapshotDurability:
    @pytest.mark.parametrize("scheme", ["json", "sqlite"])
    def test_flush_persists_relation_and_watermark(self, scheme, tmp_path):
        url = f"{scheme}:{tmp_path / 'snap'}"
        with open_backend(url) as backend:
            engine = durable_engine(backend, table_ra().schema)
            for etuple in table_ra():
                engine.upsert("daily", etuple)
            engine.flush()
            assert backend.stream_watermark("R") == engine.watermark == 6
            assert backend.load_relation("R") == engine.relation
        # ... and both survive a reopen.
        with open_backend(url) as reopened:
            assert reopened.stream_watermark("R") == 6
            assert len(reopened.load_relation("R")) == 6

    @pytest.mark.parametrize("scheme", ["json", "sqlite"])
    def test_delete_relation_forgets_the_watermark(self, scheme, tmp_path):
        """The watermark goes with the deleted relation, so the next
        write_batch is a first flush: even a batch that changed nothing
        stores the whole relation again."""
        url = f"{scheme}:{tmp_path / 'snap'}"
        with open_backend(url) as backend:
            engine = durable_engine(backend, table_ra().schema)
            for etuple in table_ra():
                engine.upsert("daily", etuple)
            engine.flush()
            backend.delete_relation("R")
            assert backend.stream_watermark("R") is None
            quiet = BatchDelta(
                batch=2,
                watermark=engine.watermark,
                events=0,
                inserted=(),
                updated=(),
                removed=(),
                conflicted=(),
            )
            backend.write_batch("R", quiet, [], engine.relation)
            assert backend.stream_watermark("R") == engine.watermark
            assert backend.load_relation("R") == engine.relation

    @pytest.mark.parametrize("scheme", ["json", "sqlite"])
    def test_database_save_dropping_the_relation_forgets_the_watermark(
        self, scheme, tmp_path
    ):
        """A whole-database save that no longer holds the stream's
        relation drops its watermark too; the watermarks of the
        relations it keeps stay."""
        url = f"{scheme}:{tmp_path / 'snap'}"
        with open_backend(url) as backend:
            for name in ("R", "K"):
                engine = StreamEngine(
                    table_ra().schema,
                    name=name,
                    backend=backend,
                    merger=TupleMerger(on_conflict="vacuous"),
                )
                for etuple in table_ra():
                    engine.upsert("daily", etuple)
                engine.flush()
            kept = Database("d")
            kept.add(backend.load_relation("K"))
            backend.save_database(kept)
            assert backend.list_relations() == ("K",)
            assert backend.stream_watermark("R") is None
            assert backend.stream_watermark("K") == 6
        with open_backend(url) as reopened:
            assert reopened.stream_watermark("R") is None
            assert reopened.stream_watermark("K") == 6


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_sources=st.integers(min_value=2, max_value=3),
    n_events=st.integers(min_value=1, max_value=30),
    compact=st.booleans(),
)
def test_random_workloads_recover_exactly(seed, n_sources, n_events, compact):
    """Any interleaving of upserts / retractions / reliability changes
    with random flush points recovers bit-for-bit: relation, watermark,
    source snapshots -- matching both the pre-crash engine and the
    ``Federation.integrate`` oracle (with or without compaction)."""
    rng = random.Random(seed)
    config = SyntheticConfig(
        n_tuples=6, conflict=0.6, ignorance=1.0, overlap=1.0, seed=seed
    )
    pools = {
        f"s{index}": tuple(synthetic_relation(config, f"s{index}"))
        for index in range(n_sources)
    }
    schema = pools["s0"][0].schema

    with tempfile.TemporaryDirectory() as directory:
        backend = open_backend(f"log:{Path(directory) / 'wal.jsonl'}")
        engine = durable_engine(backend, schema)
        asserted: dict[str, set] = {name: set() for name in pools}
        for _ in range(n_events):
            roll = rng.random()
            retractable = [name for name in pools if asserted[name]]
            if roll < 0.65 or not retractable:
                source = rng.choice(sorted(pools))
                etuple = rng.choice(pools[source])
                engine.upsert(source, etuple)
                asserted[source].add(etuple.key())
            elif roll < 0.85:
                source = rng.choice(retractable)
                key = rng.choice(sorted(asserted[source]))
                engine.retract(source, key)
                asserted[source].remove(key)
            else:
                engine.set_reliability(
                    rng.choice(sorted(pools)), rng.choice(RELIABILITIES)
                )
            if rng.random() < 0.2:
                engine.flush()
        engine.flush()
        expected_relation = engine.relation
        expected_watermark = engine.watermark
        expected_snapshots = {
            source: engine.source_snapshot(source)
            for source in engine.sources()
        }
        if compact:
            backend.compact()
        recovered = backend.recover_stream("R")
        assert recovered.relation == expected_relation
        assert list(recovered.relation.keys()) == list(expected_relation.keys())
        assert recovered.watermark == expected_watermark
        assert tuple(recovered.sources()) == tuple(expected_snapshots)
        for source, snapshot in expected_snapshots.items():
            assert recovered.source_snapshot(source).same_tuples(snapshot)
        assert recovered.relation.same_tuples(federation_oracle(recovered))
        backend.close()
