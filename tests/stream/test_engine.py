"""Unit tests for the streaming integration engine."""

from fractions import Fraction

import pytest

from repro.algebra.union import union
from repro.errors import StreamError, TotalConflictError
from repro.integration import Federation, TupleMerger
from repro.datasets.restaurants import table_ra, table_rb
from repro.model.attribute import Attribute
from repro.model.domain import EnumeratedDomain, TextDomain
from repro.model.etuple import ExtendedTuple
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema
from repro.storage import Database
from repro.stream import StreamEngine


@pytest.fixture
def schema():
    return table_ra().schema


def feed(engine, source, relation):
    for etuple in relation:
        engine.upsert(source, etuple)


class TestIngestion:
    def test_two_sources_equal_extended_union(self, schema):
        engine = StreamEngine(schema, name="R")
        feed(engine, "daily", table_ra())
        feed(engine, "tribune", table_rb())
        engine.flush()
        assert engine.relation.same_tuples(
            union(table_ra(), table_rb(), name="R")
        )

    def test_interleaved_arrival_order_is_irrelevant(self, schema):
        ra, rb = table_ra(), table_rb()
        engine = StreamEngine(schema, name="R")
        # Alternate sources, flush mid-stream: exactness must survive
        # any interleaving and batching.
        pairs = [("daily", t) for t in ra] + [("tribune", t) for t in rb]
        pairs[1::2], pairs[::2] = pairs[: len(pairs) // 2], pairs[len(pairs) // 2:]
        for index, (source, etuple) in enumerate(pairs):
            engine.upsert(source, etuple)
            if index % 3 == 0:
                engine.flush()
        engine.flush()
        assert engine.relation.same_tuples(union(ra, rb, name="R"))

    def test_incremental_arrival_costs_one_combination(self, schema):
        engine = StreamEngine(schema, name="R")
        feed(engine, "daily", table_ra())
        engine.flush()
        before = engine.stats().combinations
        engine.upsert("tribune", table_rb().get(("wok",)))
        engine.flush()
        assert engine.stats().combinations == before + 1
        assert engine.stats().refolds == 0

    def test_stats_count_every_combination_on_the_kernel(self, schema):
        """Enumerated attributes (speciality, best_dish, rating) and
        open-domain ones (street, bldg_no, phone) all combine on the
        compiled kernel.  RA/RB share 5 matched entities, so the kernel
        sees 5 x 6 evidence combinations."""
        engine = StreamEngine(schema, name="R")
        feed(engine, "daily", table_ra())
        feed(engine, "tribune", table_rb())
        engine.flush()
        stats = engine.stats()
        assert stats.kernel_combinations == 30
        assert "30 evidence combinations" in stats.summary()

    def test_upsert_accepts_values_mapping(self):
        small = RelationSchema(
            "S",
            [
                Attribute("k", TextDomain("k"), key=True),
                Attribute(
                    "v", EnumeratedDomain("v", ["a", "b", "c"]), uncertain=True
                ),
            ],
        )
        engine = StreamEngine(small, name="S")
        key = engine.upsert(
            "daily",
            {"k": "wok", "v": "[a^1/4, b^3/4]"},
            membership=("1/2", 1),
        )
        assert key == ("wok",)
        engine.flush()
        row = engine.relation.get(("wok",))
        assert row.membership.sn == Fraction(1, 2)

    def test_overwrite_is_exact(self, schema):
        engine = StreamEngine(schema, name="R")
        feed(engine, "daily", table_ra())
        feed(engine, "tribune", table_rb())
        # Re-assert a daily tuple with different evidence: the entity
        # must re-fold, not double-count the source.
        revised = table_ra().get(("wok",)).with_values(
            {"rating": "[gd^1/2, avg^1/2]"}
        )
        engine.upsert("daily", revised)
        engine.flush()
        expected_sources = ExtendedRelation(
            table_ra().schema,
            [revised if t.key() == ("wok",) else t for t in table_ra()],
        )
        assert engine.relation.same_tuples(
            union(expected_sources, table_rb(), name="R")
        )

    def test_sn_zero_upsert_rejected(self, schema):
        engine = StreamEngine(schema, name="R")
        etuple = table_ra().get(("wok",)).with_membership((0, 1))
        with pytest.raises(StreamError, match="sn = 0"):
            engine.upsert("daily", etuple)


class TestRetraction:
    def test_retract_refolds_survivors(self, schema):
        engine = StreamEngine(schema, name="R")
        feed(engine, "daily", table_ra())
        feed(engine, "tribune", table_rb())
        engine.flush()
        engine.retract("tribune", ("wok",))
        delta = engine.flush()
        assert ("wok",) in delta.updated
        assert engine.relation.get(("wok",)) is not None
        # wok is now supported by daily alone.
        assert engine.relation.get(("wok",)).evidence("rating") == table_ra().get(
            ("wok",)
        ).evidence("rating")

    def test_retract_last_contribution_removes_entity(self, schema):
        engine = StreamEngine(schema, name="R")
        feed(engine, "daily", table_ra())
        engine.flush()
        engine.retract("daily", ("wok",))
        delta = engine.flush()
        assert ("wok",) in delta.removed
        assert engine.relation.get(("wok",)) is None
        assert len(engine.relation) == len(table_ra()) - 1

    def test_retract_unknown_tuple_rejected(self, schema):
        engine = StreamEngine(schema, name="R")
        feed(engine, "daily", table_ra())
        with pytest.raises(StreamError, match="no tuple"):
            engine.retract("daily", ("nowhere",))

    def test_retract_unknown_source_rejected(self, schema):
        engine = StreamEngine(schema, name="R")
        with pytest.raises(StreamError, match="unknown source"):
            engine.retract("ghost", ("wok",))


class TestReliability:
    def test_reliability_update_matches_federation(self, schema):
        engine = StreamEngine(schema, name="F")
        feed(engine, "a", table_ra())
        feed(engine, "b", table_rb())
        engine.set_reliability("b", "1/2")
        engine.flush()
        federation = Federation()
        federation.add_source("a", table_ra())
        federation.add_source("b", table_rb(), reliability="1/2")
        expected, _ = federation.integrate(name="F")
        assert engine.relation.same_tuples(expected)

    def test_register_with_reliability_up_front(self, schema):
        engine = StreamEngine(schema, name="F")
        engine.register_source("b", reliability="1/2")
        feed(engine, "a", table_ra())
        feed(engine, "b", table_rb())
        engine.flush()
        federation = Federation()
        # Registration order is the fold order.
        federation.add_source("b", table_rb(), reliability="1/2")
        federation.add_source("a", table_ra())
        expected, _ = federation.integrate(name="F")
        assert engine.relation.same_tuples(expected)

    def test_zero_reliability_source_is_identity(self, schema):
        engine = StreamEngine(schema, name="F")
        feed(engine, "a", table_ra())
        feed(engine, "b", table_rb())
        engine.set_reliability("b", 0)
        engine.flush()
        assert engine.relation.same_tuples(table_ra().with_name("F"))

    def test_bad_reliability_rejected(self, schema):
        engine = StreamEngine(schema, name="F")
        with pytest.raises(StreamError, match=r"\[0, 1\]"):
            engine.register_source("a", reliability=2)

    def test_duplicate_source_rejected(self, schema):
        engine = StreamEngine(schema, name="F")
        engine.register_source("a")
        with pytest.raises(StreamError, match="duplicate"):
            engine.register_source("a")


class TestConflicts:
    @pytest.fixture
    def conflict_schema(self):
        return RelationSchema(
            "C",
            [
                Attribute("k", TextDomain("k"), key=True),
                Attribute(
                    "v", EnumeratedDomain("v", ["a", "b", "c"]), uncertain=True
                ),
            ],
        )

    def test_raise_policy_rolls_back_the_event(self, conflict_schema):
        engine = StreamEngine(conflict_schema, name="C")
        engine.upsert("s1", {"k": "x", "v": {"a": 1}})
        engine.flush()
        seq = engine.seq
        with pytest.raises(TotalConflictError):
            engine.upsert("s2", {"k": "x", "v": {"b": 1}})
        assert engine.seq == seq
        engine.flush()
        # The failed event left no trace: not in the integrated
        # relation, and the source it introduced is unregistered again.
        assert engine.relation.get(("x",)).evidence("v").format() == "[a^1]"
        assert engine.sources() == ("s1",)

    def test_drop_policy_marks_entity_conflicted(self, conflict_schema):
        engine = StreamEngine(
            conflict_schema, name="C", merger=TupleMerger(on_conflict="drop")
        )
        engine.upsert("s1", {"k": "x", "v": {"a": 1}})
        engine.upsert("s2", {"k": "x", "v": {"b": 1}})
        delta = engine.flush()
        assert ("x",) in delta.conflicted
        assert engine.relation.get(("x",)) is None

    def test_conflicted_entity_recovers_after_retraction(self, conflict_schema):
        engine = StreamEngine(
            conflict_schema, name="C", merger=TupleMerger(on_conflict="drop")
        )
        engine.upsert("s1", {"k": "x", "v": {"a": 1}})
        engine.upsert("s2", {"k": "x", "v": {"b": 1}})
        engine.flush()
        engine.retract("s2", ("x",))
        delta = engine.flush()
        assert ("x",) in delta.inserted
        assert engine.relation.get(("x",)).evidence("v").format() == "[a^1]"


class TestBatching:
    def test_autoflush_at_batch_size(self, schema):
        engine = StreamEngine(schema, name="R", batch_size=4)
        feed(engine, "daily", table_ra())  # 6 upserts -> one autoflush at 4
        assert len(engine.changelog) == 1
        assert engine.watermark == 4
        assert engine.pending_events == 2
        engine.flush()
        assert engine.watermark == 6

    def test_changelog_watermarks_are_monotone(self, schema):
        engine = StreamEngine(schema, name="R", batch_size=2)
        feed(engine, "daily", table_ra())
        feed(engine, "tribune", table_rb())
        watermarks = [delta.watermark for delta in engine.changelog]
        assert watermarks == sorted(watermarks)
        assert engine.changelog.total_events() == engine.watermark

    def test_empty_flush_is_recorded_but_changes_nothing(self, schema):
        engine = StreamEngine(schema, name="R")
        feed(engine, "daily", table_ra())
        engine.flush()
        delta = engine.flush()
        assert delta.is_empty()
        assert delta.events == 0


class TestPublishing:
    def test_flush_publishes_and_bumps_version(self, schema):
        db = Database("live")
        db.add(table_ra())
        engine = StreamEngine(schema, name="R_LIVE", database=db)
        feed(engine, "daily", table_ra())
        engine.flush()
        assert "R_LIVE" in db
        version = db.version  # first publish: brand-new name
        engine.upsert("tribune", table_rb().get(("wok",)))
        engine.flush()
        assert db.version == version + 1

    def test_empty_flush_does_not_republish(self, schema):
        db = Database("live")
        engine = StreamEngine(schema, name="R_LIVE", database=db)
        feed(engine, "daily", table_ra())
        engine.flush()
        version = db.version
        engine.flush()
        assert db.version == version
        assert engine.stats().publishes == 1

    def test_subscription_refreshes_on_flush(self, schema):
        db = Database("live")
        engine = StreamEngine(schema, name="R_LIVE", database=db)
        feed(engine, "daily", table_ra())
        engine.flush()
        seen = []
        session = db.session()
        subscription = session.subscribe(
            "SELECT rname FROM R_LIVE WHERE rating IS {ex}",
            callback=lambda result: seen.append(len(result)),
        )
        assert subscription.result is not None
        feed(engine, "tribune", table_rb())
        engine.flush()
        assert subscription.refreshes == 2
        assert len(seen) == 2
        assert subscription.result.same_tuples(
            db.query("SELECT rname FROM R_LIVE WHERE rating IS {ex}")
        )

    def test_non_identifier_name_rejected_with_database(self, schema):
        with pytest.raises(StreamError, match="identifier"):
            StreamEngine(schema, name="not a name", database=Database())


class TestAccessors:
    def test_source_snapshot_round_trip(self, schema):
        engine = StreamEngine(schema, name="R")
        feed(engine, "daily", table_ra())
        engine.retract("daily", ("wok",))
        snapshot = engine.source_snapshot("daily")
        assert len(snapshot) == len(table_ra()) - 1
        assert snapshot.get(("garden",)) is not None

    def test_repr_and_len(self, schema):
        engine = StreamEngine(schema, name="R")
        feed(engine, "daily", table_ra())
        assert len(engine) == len(table_ra())
        assert "daily" in repr(engine) or "1 sources" in repr(engine)


class TestFoldOrderDeterminism:
    """Under total-conflict fallbacks no fold order is canonical, so the
    engine pins one: the registration-order left fold of the final
    snapshots, regardless of arrival order or re-assertions."""

    @pytest.fixture
    def conflict_schema(self):
        return RelationSchema(
            "C",
            [
                Attribute("k", TextDomain("k"), key=True),
                Attribute(
                    "v", EnumeratedDomain("v", ["a", "b", "c"]), uncertain=True
                ),
            ],
        )

    def _tuple(self, schema, focal):
        return ExtendedTuple(schema, {"k": "x", "v": {focal: 1}})

    def test_out_of_order_arrival_matches_registration_fold(
        self, conflict_schema
    ):
        # Registration order A, B, C with A=C={a}, B={b}: the canonical
        # left fold hits the A-B conflict first, goes vacuous, then C
        # restores {a}.  Arrival order A, C, B must publish the same.
        merger = TupleMerger(on_conflict="vacuous")
        arrival = StreamEngine(conflict_schema, name="C", merger=merger)
        for source in ("A", "B", "C"):
            arrival.register_source(source)
        arrival.upsert("A", self._tuple(conflict_schema, "a"))
        arrival.upsert("C", self._tuple(conflict_schema, "a"))
        arrival.upsert("B", self._tuple(conflict_schema, "b"))
        arrival.flush()

        canonical = StreamEngine(conflict_schema, name="C", merger=merger)
        canonical.upsert("A", self._tuple(conflict_schema, "a"))
        canonical.upsert("B", self._tuple(conflict_schema, "b"))
        canonical.upsert("C", self._tuple(conflict_schema, "a"))
        canonical.flush()
        assert arrival.relation.same_tuples(canonical.relation)

    def test_reassertion_is_a_semantic_no_op(self, conflict_schema):
        merger = TupleMerger(on_conflict="vacuous")
        engine = StreamEngine(conflict_schema, name="C", merger=merger)
        engine.register_source("A")
        engine.register_source("B")
        engine.register_source("C")
        engine.upsert("A", self._tuple(conflict_schema, "a"))
        engine.upsert("C", self._tuple(conflict_schema, "a"))
        engine.upsert("B", self._tuple(conflict_schema, "b"))
        engine.flush()
        before = engine.relation
        # Re-asserting an identical tuple must not change the published
        # relation (it re-folds, but in the same canonical order).
        engine.upsert("C", self._tuple(conflict_schema, "a"))
        delta = engine.flush()
        assert delta.is_empty()
        assert engine.relation.same_tuples(before)

    def test_rolled_back_upsert_leaves_no_phantom_conflicts(
        self, conflict_schema
    ):
        engine = StreamEngine(conflict_schema, name="C")  # on_conflict=raise
        engine.upsert("A", self._tuple(conflict_schema, "a"))
        with pytest.raises(TotalConflictError):
            engine.upsert("B", self._tuple(conflict_schema, "b"))
        delta = engine.flush()
        # The rejected event was rolled back entirely: the audit trail
        # must not report conflicts for evidence that is not in the
        # integrated state.
        assert delta.conflicts == ()
        assert delta.conflicted == ()

    def test_conflicting_overwrite_raises_eagerly_and_rolls_back(
        self, conflict_schema
    ):
        """Under "raise", a conflicting *overwrite* (dirty path) must
        raise at the upsert itself -- deferring it to flush would wedge
        the stream -- and restore the source's previous assertion."""
        engine = StreamEngine(conflict_schema, name="C")  # on_conflict=raise
        engine.upsert("A", self._tuple(conflict_schema, "a"))
        engine.flush()
        engine.upsert("B", self._tuple(conflict_schema, "a"))  # fast path, ok
        with pytest.raises(TotalConflictError):
            engine.upsert("B", self._tuple(conflict_schema, "b"))
        # B's earlier assertion survives; flushing works and publishes it.
        assert engine.source_snapshot("B").get(("x",)) is not None
        engine.flush()
        assert engine.relation.get(("x",)).evidence("v").format() == "[a^1]"

    def test_out_of_order_conflicting_upsert_cannot_wedge_the_stream(
        self, conflict_schema
    ):
        """The review counterexample: an out-of-order arrival used to be
        accepted and then fail every flush under "raise"."""
        engine = StreamEngine(conflict_schema, name="C")
        engine.register_source("A")
        engine.register_source("B")
        engine.upsert("B", self._tuple(conflict_schema, "a"))
        with pytest.raises(TotalConflictError):
            engine.upsert("A", self._tuple(conflict_schema, "b"))  # out of order
        delta = engine.flush()  # must not raise: the event was rolled back
        assert delta.inserted == (("x",),)
        assert engine.relation.get(("x",)).evidence("v").format() == "[a^1]"
        assert engine.watermark == engine.seq

    def test_reliability_raise_exposing_conflict_is_reverted(
        self, conflict_schema
    ):
        """Discount ignorance can mask a total conflict; removing it via
        set_reliability must raise eagerly and revert entirely."""
        engine = StreamEngine(conflict_schema, name="C")
        engine.register_source("A")
        engine.register_source("B", reliability="1/2")  # masks the conflict
        engine.upsert("A", self._tuple(conflict_schema, "a"))
        engine.upsert("B", self._tuple(conflict_schema, "b"))
        engine.flush()
        before = engine.relation
        with pytest.raises(TotalConflictError):
            engine.set_reliability("B", 1)
        assert engine.reliability("B") == Fraction(1, 2)
        delta = engine.flush()  # reverted: nothing changed, nothing wedged
        assert delta.is_empty()
        assert engine.relation.same_tuples(before)

    def test_same_batch_overwrite_does_not_duplicate_conflicts(self):
        schema = RelationSchema(
            "C",
            [
                Attribute("k", TextDomain("k"), key=True),
                Attribute(
                    "v", EnumeratedDomain("v", ["a", "b", "c"]), uncertain=True
                ),
            ],
        )
        engine = StreamEngine(
            schema, name="C", merger=TupleMerger(on_conflict="vacuous")
        )
        engine.upsert("A", ExtendedTuple(schema, {"k": "x", "v": "[a^1/2, *^1/2]"}))
        conflicting = ExtendedTuple(schema, {"k": "x", "v": "[b^1/2, *^1/2]"})
        engine.upsert("B", conflicting)       # fast path: records kappa=1/4
        engine.upsert("B", conflicting)       # same-batch overwrite -> refold
        delta = engine.flush()
        # One actual conflict in the published fold -> exactly one record.
        assert len(delta.conflicts) == 1

    def test_rejected_first_event_does_not_register_the_source(
        self, conflict_schema
    ):
        engine = StreamEngine(conflict_schema, name="C")  # on_conflict=raise
        engine.upsert("A", self._tuple(conflict_schema, "a"))
        with pytest.raises(TotalConflictError):
            engine.upsert("B", self._tuple(conflict_schema, "b"))
        assert engine.sources() == ("A",)
        # A later registration with an explicit reliability still works.
        engine.register_source("B", reliability="1/2")
        assert engine.sources() == ("A", "B")

    def test_sn_zero_first_event_does_not_register_the_source(self):
        from repro.datasets.restaurants import table_ra

        engine = StreamEngine(table_ra().schema, name="R")
        bad = table_ra().get(("wok",)).with_membership((0, 1))
        with pytest.raises(StreamError):
            engine.upsert("ghost", bad)
        assert engine.sources() == ()

    def test_raising_subscriber_does_not_lose_the_batch(self, conflict_schema):
        db = Database("live")
        engine = StreamEngine(conflict_schema, name="C", database=db)
        engine.upsert("A", self._tuple(conflict_schema, "a"))
        engine.flush()
        def boom(result):
            raise RuntimeError("subscriber bug")
        subscription = db.session().subscribe("SELECT k FROM C", callback=boom)
        assert isinstance(subscription.callback_error, RuntimeError)
        assert subscription.error is None  # the query itself succeeded
        engine.upsert("A", self._tuple(conflict_schema, "b"))
        delta = engine.flush()  # must not raise out of the flush
        # ... and the batch is fully recorded in the audit trail.
        assert delta.updated == (("x",),)
        assert engine.changelog.last is delta
        assert engine.watermark == engine.seq


class TestChangelogRetention:
    def test_retention_cap_trims_oldest(self, schema):
        engine = StreamEngine(
            schema, name="R", batch_size=1, max_changelog_batches=3
        )
        feed(engine, "daily", table_ra())  # 6 events -> 6 batches
        assert len(engine.changelog) == 3
        assert engine.changelog.total_batches == 6
        # Batch numbering and the watermark keep counting across trims.
        assert [d.batch for d in engine.changelog] == [4, 5, 6]
        assert engine.changelog.watermark == 6

    def test_unbounded_retention_opt_in(self, schema):
        engine = StreamEngine(
            schema, name="R", batch_size=1, max_changelog_batches=None
        )
        feed(engine, "daily", table_ra())
        assert len(engine.changelog) == 6


class TestConflictReporting:
    def _partial(self, schema, focal):
        return ExtendedTuple(schema, {"k": "x", "v": f"[{focal}^1/2, *^1/2]"})

    def _schema(self):
        return RelationSchema(
            "C",
            [
                Attribute("k", TextDomain("k"), key=True),
                Attribute(
                    "v", EnumeratedDomain("v", ["a", "b", "c"]), uncertain=True
                ),
            ],
        )

    def test_reported_conflicts_do_not_depend_on_arrival_order(self):
        """A batch reports the touched entities' current-fold records,
        so re-folding (out-of-order arrival) and fold-extension (in
        order) report identically."""
        schema = self._schema()

        def run(order):
            engine = StreamEngine(
                schema, name="C", merger=TupleMerger(on_conflict="vacuous")
            )
            engine.register_source("A")
            engine.register_source("B")
            engine.upsert("A" if order == "in" else "B",
                          self._partial(schema, "a" if order == "in" else "b"))
            engine.flush()
            engine.upsert("B" if order == "in" else "A",
                          self._partial(schema, "b" if order == "in" else "a"))
            return engine.flush()

        in_order, out_of_order = run("in"), run("out")
        assert len(in_order.conflicts) == len(out_of_order.conflicts) == 1
        assert in_order.conflicts[0].kappa == out_of_order.conflicts[0].kappa

    def test_untouched_conflicting_entity_is_not_re_reported(self):
        schema = self._schema()
        engine = StreamEngine(
            schema, name="C", merger=TupleMerger(on_conflict="vacuous")
        )
        engine.upsert("A", self._partial(schema, "a"))
        engine.upsert("B", self._partial(schema, "b"))
        first = engine.flush()
        assert len(first.conflicts) == 1
        # A batch touching a different entity says nothing about x.
        engine.upsert("A", ExtendedTuple(schema, {"k": "y", "v": "[c^1]"}))
        second = engine.flush()
        assert second.conflicts == ()


class TestReliabilityEdges:
    def test_set_reliability_auto_registers_unknown_source(self, schema):
        engine = StreamEngine(schema, name="F")
        engine.upsert("a", table_ra().get(("wok",)))
        engine.set_reliability("b", "1/2")  # before b's first tuple
        assert engine.sources() == ("a", "b")
        assert engine.reliability("b") == Fraction(1, 2)
        engine.upsert("b", table_rb().get(("wok",)))
        engine.flush()
        federation = Federation()
        federation.add_source("a", ExtendedRelation(
            schema, [table_ra().get(("wok",))]))
        federation.add_source("b", ExtendedRelation(
            schema, [table_rb().get(("wok",))]), reliability="1/2")
        expected, _ = federation.integrate(name="F")
        assert engine.relation.same_tuples(expected)

    def test_noop_reliability_update_costs_nothing(self, schema):
        engine = StreamEngine(schema, name="F")
        feed(engine, "a", table_ra())
        feed(engine, "b", table_rb())
        engine.flush()
        seq, combinations = engine.seq, engine.stats().combinations
        engine.set_reliability("b", 1)  # already 1: no-op
        assert engine.seq == seq
        delta = engine.flush()
        assert delta.is_empty()
        assert engine.stats().combinations == combinations
